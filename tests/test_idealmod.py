import pytest

import heckework.idealmod as idealmod
from heckework import CoxeterSystem, InfiniteGroupError
from heckework.cli import main
from heckework.hecke import HeckeAlgebra
from heckework.idealmod import IdealModel, canonical_rref
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly, ONE
from oracles import ideal_basis


def u_poly(items):
    """{u-exponent: coeff} -> LaurentPoly in v-units."""
    return LaurentPoly({2 * e: c for e, c in items.items()})


def table(elt, sys):
    return {str(x): c for x, c in elt.laurent_coeffs().items()}


def expand(sys, factor, terms):
    """factor * sum coeff_x T_x with coefficients in u-units."""
    f = u_poly(factor)
    return {
        str(sys.element(lbl)): f * u_poly(c) for lbl, c in terms.items()
    }


def test_x_empty_examples(a1, a2, a3):
    assert table(a1.ideal.x_empty(), a1.sys) == {
        "e": ONE,
        "1": u_poly({-1: 1}),
    }
    x0 = table(a2.ideal.x_empty(), a2.sys)
    assert x0 == {
        "e": ONE,
        "1": u_poly({-1: 1}),
        "2": u_poly({-1: 1}),
        "12": u_poly({-2: 1}),
        "21": u_poly({-2: 1}),
        "121": u_poly({-3: 1}),
    }
    assert len(a3.ideal.x_empty().coeffs) == 24


def test_x_empty_star_fixed_only():
    flip = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    alg = HeckeAlgebra(flip)
    ideal = IdealModel(alg, InvolutionModule(alg))
    x0 = ideal.x_empty()
    for x in x0.coeffs:
        assert flip.star_elt(x) == x
    assert len(x0.coeffs) < 24


def test_ideal_dimensions(a1, a2, a3):
    assert ideal_basis(a1.ideal)[0] == 2
    assert ideal_basis(a2.ideal)[0] == 4
    assert ideal_basis(a3.ideal)[0] == 10


def test_ideal_basis_spans_x_elements(a1, a2):
    # the row space of {T_x X_empty} equals the span of the X_w
    for ctx in (a1, a2):
        els = ctx.sys.elements()
        _, basis = ideal_basis(ctx.ideal)
        rows_basis = [b.laurent_coeffs() for b in basis]
        _, x_table = ctx.ideal.eta_check()
        rows_x = [x_table[w].laurent_coeffs() for w in ctx.inv.basis]
        assert canonical_rref(rows_basis, els) == canonical_rref(rows_x, els)


def test_eta_check_passes(a1, a2, a3):
    for ctx in (a1, a2, a3):
        rep, _ = ctx.ideal.eta_check()
        assert rep.passed, [c.to_json() for c in rep.checks]


def test_x_elements_a2_match_table(a2):
    sys = a2.sys
    _, xt = a2.ideal.eta_check()
    assert table(xt[sys.element("1")], sys) == expand(
        sys, {1: 1, 0: -1}, {"121": {-3: 1}, "12": {-2: 1}, "1": {-1: 1}}
    )
    assert table(xt[sys.element("2")], sys) == expand(
        sys, {1: 1, 0: -1}, {"121": {-3: 1}, "21": {-2: 1}, "2": {-1: 1}}
    )
    assert table(xt[sys.element("121")], sys) == expand(
        sys,
        {1: 1, 0: -1},
        {"121": {-1: 1, -2: 1, -3: -1}, "12": {-1: 1}, "21": {-1: 1}},
    )


def test_x_13_matches_table(a3):
    sys = a3.sys
    x13 = a3.ideal.x_elt(sys.element("13"))
    assert table(x13, sys) == expand(
        sys,
        {2: 1, 1: -2, 0: 1},  # (u-1)^2
        {
            "13": {-2: 1},
            "132": {-3: 1},
            "1321": {-4: 1},
            "1323": {-4: 1},
            "13213": {-5: 1},
            "121321": {-6: 1},
        },
    )


def test_dinf_x_121_series(dinf):
    sys = dinf.sys
    x = dinf.ideal.x_elt(sys.element("121"), max_len=8)
    expected = expand(
        sys,
        {1: 1, 0: -1},
        {
            "12": {-1: 1},
            "121": {-2: 1},
            "1212": {-3: 1},
            "12121": {-4: 1},
            "121212": {-5: 1},
            "1212121": {-6: 1},
            "12121212": {-7: 1},
        },
    )
    assert table(x, sys) == expected
    assert x.exact_len == 8


def test_dinf_truncation_stability(dinf):
    sys = dinf.sys
    w = sys.element("12121")
    x_n = dinf.ideal.x_elt(w, max_len=8)
    x_n2 = dinf.ideal.x_elt(w, max_len=10)
    for x, c in x_n.coeffs.items():
        if len(x.word) <= 6:
            assert x_n2.coeffs[x] == c
    for x, c in x_n2.coeffs.items():
        if len(x.word) <= 6:
            assert x_n.coeffs[x] == c


def test_window_bookkeeping(dinf):
    base = dinf.ideal.x_empty(max_len=6)
    assert base.exact_len == 6
    shrunk = dinf.ideal.t_gen_mult(0, base)
    assert shrunk.exact_len == 5
    assert all(len(x.word) <= 5 for x in shrunk.coeffs)
    with pytest.raises(ValueError):
        shrunk.trimmed(6)


def test_x_integrality(a3):
    for w in a3.inv.basis:
        xw = a3.ideal.x_elt(w)
        for x, c in xw.laurent_coeffs().items():
            c.specialize_uinv_zero()  # raises if not in Z[u^-1]


def test_pi_fibers_a2(a2):
    rep, pi = a2.ideal.pi_report()
    assert rep.passed
    fibers = a2.ideal.pi_fibers(pi)
    e = a2.sys.element
    assert fibers[e("121")] == [e("12"), e("21"), e("121")]
    assert fibers[e("e")] == [e("e")]
    assert fibers[e("1")] == [e("1")]


def test_pi_fibers_a3(a3):
    _, pi = a3.ideal.pi_report()
    fibers = {
        str(w): [str(x) for x in xs]
        for w, xs in a3.ideal.pi_fibers(pi).items()
    }
    e = a3.sys.element
    # reference fiber lists, labels normalized
    assert fibers[str(e("2132"))] == ["213"]
    assert fibers[str(e("121"))] == ["12", "21", "121"]
    assert fibers[str(e("323"))] == ["23", "32", "232"]
    assert sorted(fibers[str(e("13213"))]) == sorted(
        str(e(lbl)) for lbl in ["132", "123", "321", "1321", "1323"]
    )
    assert sorted(fibers[str(e("121321"))]) == sorted(
        str(e(lbl))
        for lbl in ["1213", "2132", "2321", "21323", "21321", "13231", "121321"]
    )
    # the length-5 involution is NOT fixed by pi: it lies in the fiber of w0
    w14 = e("12321")
    assert pi[w14] == e("121321")


def test_pi_fibers_dinf(dinf):
    _, pi = dinf.ideal.pi_report(max_len=12)
    fibers = {
        str(w): [str(x) for x in xs]
        for w, xs in dinf.ideal.pi_fibers(pi).items()
    }
    assert fibers["e"] == ["e"]
    assert fibers["1"] == ["1"]
    assert fibers["2"] == ["2"]
    assert fibers["121"] == ["12"]
    assert fibers["212"] == ["21"]
    assert fibers["12121"] == ["121"]
    assert fibers["21212"] == ["212"]
    assert fibers["1212121"] == ["1212"]
    assert fibers["2121212"] == ["2121"]


def test_pi_well_defined_exhaustive(a3, dinf):
    rep, _ = a3.ideal.pi_report()
    assert rep.passed
    repd, _ = dinf.ideal.pi_report(max_len=12)
    assert repd.passed


def test_pi_requires_trivial_star():
    flip = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    alg = HeckeAlgebra(flip)
    ideal = IdealModel(alg, InvolutionModule(alg))
    with pytest.raises(ValueError):
        ideal.pi_map()


def test_specialization_checks(a1, a2, a3):
    for ctx in (a1, a2, a3):
        rep = ctx.ideal.specialization_check()
        assert rep.passed, [c.to_json() for c in rep.checks]


def test_specialization_check_dinf(dinf):
    rep = dinf.ideal.specialization_check(max_len=12, window=7)
    assert rep.passed, [c.to_json() for c in rep.checks]


def test_specialize_x1_a1(a1):
    s = a1.sys.element("1")
    assert a1.ideal.specialize(a1.ideal.x_elt(s)) == {s: 1}


def test_infinite_guards(dinf):
    with pytest.raises(InfiniteGroupError):
        ideal_basis(dinf.ideal)
    with pytest.raises(InfiniteGroupError):
        dinf.ideal.eta_check()
    with pytest.raises(InfiniteGroupError):
        dinf.ideal.x_empty()


def test_dihedral_ideal_dimensions():
    # the module isomorphism holds for dihedral groups: dim = |I_*|
    for label, expected in (("B2", 6), ("G2", 8), ("I2(5)", 6)):
        sys = CoxeterSystem.from_label(label)
        alg = HeckeAlgebra(sys)
        inv = InvolutionModule(alg)
        assert len(inv.basis) == expected
        ideal = IdealModel(alg, inv)
        assert ideal_basis(ideal)[0] == expected
        rep, _ = ideal.eta_check()
        assert rep.passed, (label, [c.to_json() for c in rep.checks])


@pytest.mark.parametrize(
    "label, star, expected",
    [("A1", None, 2), ("A2", None, 4), ("A3", None, 10), ("A2", [1, 0], 4),
     ("B2", None, 6), ("G2", None, 8), ("I2(5)", None, 6)],
)
def test_eta_check_dimension_equals_ideal_basis(label, star, expected):
    # eta_check takes the dimension from the rank of the transposed matrix;
    # ideal_basis row-reduces the images themselves
    sys = CoxeterSystem.from_label(label, star=star)
    alg = HeckeAlgebra(sys)
    ideal = IdealModel(alg, InvolutionModule(alg))
    rep, _ = ideal.eta_check()
    (dim,) = [c.witness["dim"] for c in rep.checks if c.check_id == "ideal-dimension"]
    assert dim == ideal_basis(ideal)[0] == expected


def test_conj34_row_reduces_twice(monkeypatch, capsys):
    calls = []
    real = idealmod.canonical_rref

    def counting(rows, order):
        calls.append(len(rows))
        return real(rows, order)

    monkeypatch.setattr(idealmod, "canonical_rref", counting)
    assert main(["conj34", "--type", "A2"]) == 0
    assert "ideal_dimension" in capsys.readouterr().out
    assert len(calls) == 2
