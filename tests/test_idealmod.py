import json

import pytest

import heckework.idealmod as idealmod
from heckework import CoxeterSystem, InfiniteGroupError
from heckework.cli import main
from heckework.hecke import HeckeAlgebra, InexactDivision
from heckework.idealmod import CompletionElement, IdealModel, canonical_rref
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly, ONE, ZERO
from oracles import UINV, bar_a_by_chain, eta_by_rref, ideal_basis, x_elt_by_chain


def u_poly(items):
    """{u-exponent: coeff} -> LaurentPoly in v-units."""
    return LaurentPoly({2 * e: c for e, c in items.items()})


def table(elt, sys):
    return {str(x): c for x, c in elt.coeffs.items()}


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
    ideal = IdealModel(InvolutionModule(alg))
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
        rows_basis = [b.coeffs for b in basis]
        _, x_table = ctx.ideal.eta_check()
        rows_x = [x_table[w].coeffs for w in ctx.inv.basis]
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


def test_x_elements_one_window(dinf):
    # max_len bounds both the twisted involutions and each X_w's window
    table = dinf.ideal.x_elements(max_len=5)
    assert list(table) == dinf.sys.twisted_involutions(max_len=5)
    for w, x in table.items():
        assert x is dinf.ideal.x_elt(w, max_len=5)


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
        for x, c in xw.coeffs.items():
            c.specialize_uinv_zero()  # raises if not in Z[u^-1]


def _ideal(label, star=None):
    alg = HeckeAlgebra(CoxeterSystem.from_label(label, star=star))
    return IdealModel(InvolutionModule(alg))


def _inexact_at_w0(monkeypatch, ideal):
    w0 = ideal.system.element("121")
    x_elt = ideal.x_elt

    def inexact_at_w0(w, max_len=None):
        if w is w0:
            raise InexactDivision("not divisible")
        return x_elt(w, max_len)

    monkeypatch.setattr(ideal, "x_elt", inexact_at_w0)


def _checks(rep):
    return {c.check_id: c for c in rep.checks}


def test_an_inexact_step_fails_x_integrality(monkeypatch):
    # the InexactDivision of a quotient u + 1 does not divide is a failed
    # check with its w as witness, not an error of the whole call
    ideal = _ideal("A2")
    _inexact_at_w0(monkeypatch, ideal)
    rep, x_table = ideal.eta_check()
    (check,) = [c for c in rep.checks if c.check_id == "x-integrality"]
    assert (check.passed, check.witness) == (False, "121")
    assert sorted(map(str, x_table)) == ["1", "2", "e"]


def test_a_missing_x_fails_the_kernel_and_dimension_checks(monkeypatch):
    # without X_w there is nothing to certify: both checks fail naming w
    ideal = _ideal("A2")
    _inexact_at_w0(monkeypatch, ideal)
    checks = _checks(ideal.eta_check()[0])
    assert not checks["kernel-equality"].passed
    assert checks["kernel-equality"].witness == {"missing": ["121"]}
    assert not checks["ideal-dimension"].passed
    assert checks["ideal-dimension"].witness == {
        "dim": None, "involutions": 4, "missing": ["121"]}
    assert not checks["module-surjectivity"].passed


def test_only_an_inexact_division_is_caught(monkeypatch):
    # any other ValueError is a fault of the program, not a failed check
    ideal = _ideal("A2")

    def broken(w, max_len=None):
        raise ValueError("not an inexact division")

    monkeypatch.setattr(ideal, "x_elt", broken)
    with pytest.raises(ValueError, match="not an inexact division"):
        ideal.eta_check()


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
    ideal = IdealModel(InvolutionModule(alg))
    with pytest.raises(ValueError):
        ideal.pi_map()


def test_specialization_checks(a1, a2, a3):
    for ctx in (a1, a2, a3):
        rep, _ = ctx.ideal.specialization_check()
        assert rep.passed, [c.to_json() for c in rep.checks]


def test_specialization_check_dinf(dinf):
    rep, _ = dinf.ideal.specialization_check(max_len=12)
    assert rep.passed, [c.to_json() for c in rep.checks]


def test_a_fault_at_the_top_of_the_window_fails_the_specialization(dinf, monkeypatch):
    # the module reaches length 13 and the check stops at 11: X_w of the
    # last w of length 11, given a T_e term, is still compared
    ideal, e = dinf.ideal, dinf.sys.identity
    top = max((w for w in dinf.inv.basis if len(w.word) <= 11), key=lambda w: w.sort_key())
    x_elt = ideal.x_elt

    def planted(w, max_len=None):
        got = x_elt(w, max_len=max_len)
        if w != top:
            return got
        return CompletionElement({**got.coeffs, e: got.coeffs.get(e, ZERO) + ONE}, got.exact_len)

    monkeypatch.setattr(ideal, "x_elt", planted)
    rep, _ = ideal.specialization_check(max_len=11)
    (check,) = [c for c in rep.checks if c.check_id == "specialization-identity"]
    assert len(top.word) == 11 and not check.passed and check.witness[0] == str(top)


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
        ideal = IdealModel(inv)
        assert ideal_basis(ideal)[0] == expected
        rep, _ = ideal.eta_check()
        assert rep.passed, (label, [c.to_json() for c in rep.checks])


@pytest.mark.parametrize(
    "label, star, expected",
    [("A1", None, 2), ("A2", None, 4), ("A3", None, 10), ("A2", [1, 0], 4),
     ("B2", None, 6), ("G2", None, 8), ("I2(5)", None, 6)],
)
def test_eta_check_dimension_equals_ideal_basis(label, star, expected):
    # eta_check certifies the dimension by equivariance and a rank over F_p;
    # ideal_basis row-reduces the images themselves
    sys = CoxeterSystem.from_label(label, star=star)
    alg = HeckeAlgebra(sys)
    ideal = IdealModel(InvolutionModule(alg))
    rep, _ = ideal.eta_check()
    (dim,) = [c.witness["dim"] for c in rep.checks if c.check_id == "ideal-dimension"]
    assert dim == ideal_basis(ideal)[0] == expected


def test_eta_check_makes_no_row_reduction(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(idealmod, "canonical_rref", lambda rows, order: calls.append(rows))
    assert main(["conj34", "--type", "A2"]) == 0
    assert json.loads(capsys.readouterr().out)["ideal_dimension"] == 4
    assert calls == []


CERTIFIED = [("A1", None), ("A2", None), ("A3", None), ("A4", None), ("B2", None),
             ("B3", None), ("G2", None), ("I2(5)", None), ("A2", [1, 0]),
             ("A3", [2, 1, 0])]


@pytest.mark.parametrize("label, star", CERTIFIED,
                         ids=["A1", "A2", "A3", "A4", "B2", "B3", "G2", "I2(5)",
                              "A2-star21", "A3-star321"])
def test_certificate_equals_row_reduction(label, star):
    # the same dim, rank and pass bits as the row-reduction route
    ideal = _ideal(label, star)
    checks = _checks(ideal.eta_check()[0])
    kernel_equal, dim, rank = eta_by_rref(ideal)
    n = len(ideal.invmod.basis)
    assert checks["kernel-equality"].passed == kernel_equal
    assert checks["ideal-dimension"].witness == {"dim": dim, "involutions": n}
    assert checks["ideal-dimension"].passed == (dim == n)
    assert checks["module-surjectivity"].witness == {"rank": rank, "involutions": n}
    assert checks["module-surjectivity"].passed == (rank == n)
    assert all(c.passed for c in checks.values())


def _tampered(monkeypatch, ideal, change):
    """eta_check over the X_w table as `change` rewrites it."""
    table = change(dict(ideal.x_elements()))
    monkeypatch.setattr(ideal, "x_elt", lambda w, max_len=None: table[w])
    return _checks(ideal.eta_check()[0])


def _scaled(elt, c):
    return CompletionElement({x: a * c for x, a in elt.coeffs.items()})


def test_swapped_x_elements_fail(monkeypatch):
    ideal = _ideal("A3")
    a, b = ideal.system.element("1"), ideal.system.element("2")

    def swap(table):
        table[a], table[b] = table[b], table[a]
        return table

    checks = _tampered(monkeypatch, ideal, swap)
    assert not checks["kernel-equality"].passed
    assert "equivariance" in checks["kernel-equality"].witness
    assert not checks["ideal-dimension"].passed


def test_a_perturbed_x_e_fails(monkeypatch):
    ideal = _ideal("A3")
    e = ideal.system.identity

    def perturb(table):
        coeffs = dict(table[e].coeffs)
        coeffs[e] = coeffs[e] + UINV
        table[e] = CompletionElement(coeffs)
        return table

    checks = _tampered(monkeypatch, ideal, perturb)
    assert not checks["kernel-equality"].passed
    assert "pin" in checks["kernel-equality"].witness


def test_scaled_x_elements_fail_only_the_pin(monkeypatch):
    ideal = _ideal("A3")
    table = {w: _scaled(x, UINV) for w, x in ideal.x_elements().items()}
    # equivariance and rank are blind to a common scalar ...
    assert ideal.equivariance_fault(table) is None
    assert ideal.specialized_rank(table)[0] == len(table)
    # ... so the pin to X_empty is what rejects it
    checks = _tampered(monkeypatch, ideal, lambda _: table)
    assert not checks["kernel-equality"].passed
    assert "pin" in checks["kernel-equality"].witness


def test_a_dropped_term_of_the_equivariance_fails(monkeypatch):
    ideal = _ideal("A3")
    ideal.x_elements()  # memoized before ts_action is tampered with
    ts_action = ideal.invmod.ts_action
    w = ideal.system.element("1")

    def dropped(i, m):
        out = ts_action(i, m)
        if i == 0 and m == {w: ONE}:
            del out[max(out, key=lambda x: x.sort_key())]
        return out

    monkeypatch.setattr(ideal.invmod, "ts_action", dropped)
    checks = _checks(ideal.eta_check()[0])
    assert checks["kernel-equality"].witness == {"equivariance": [1, "1"]}
    assert not checks["ideal-dimension"].passed


def _summed(x1, x2):
    coeffs = dict(x1.coeffs)
    for x, c in x2.coeffs.items():
        coeffs[x] = coeffs.get(x, ZERO) + c
    return CompletionElement({x: c for x, c in coeffs.items() if c})


@pytest.mark.parametrize("edit, rank", [
    # X_2 read as a copy of X_1: the rows are dependent at every point
    (lambda x1, x2, x3: x1, 9),
    # X_2 read as X_1 + X_2: the rows stay independent, but row 2 now
    # starts in a column of row 1, which the reduction must clear
    (lambda x1, x2, x3: _summed(x1, x2), 10),
    # X_2 read as X_1 + X_3: row 3 is dependent, which only clearing it
    # against rows 1 and 2 shows
    (lambda x1, x2, x3: _summed(x1, x3), 9),
], ids=["equal-rows", "summed-rows", "dependent-later-row"])
def test_the_rank_certificate_reads_the_x_rows(monkeypatch, edit, rank):
    # the edit is seen by the rank alone, after equivariance held on the
    # true table; a rank below |I| = 10 fails both checks with its witness
    ideal = _ideal("A3")
    certify = ideal.specialized_rank
    one, two, three = (ideal.system.element(w) for w in ("1", "2", "3"))
    monkeypatch.setattr(ideal, "specialized_rank", lambda table: certify(
        {**table, two: edit(table[one], table[two], table[three])}))
    checks = _checks(ideal.eta_check()[0])
    points = list(idealmod.SPECIALIZATION_POINTS)
    fault = None if rank == 10 else {"rank": rank, "points": points}
    assert checks["kernel-equality"].witness == fault
    assert checks["ideal-dimension"].witness == {
        "dim": None if fault else 10, "involutions": 10, **(fault or {})}


def test_every_point_dropping_rank_exits_1(monkeypatch, capsys):
    # at v = +-1 (u = 1) every X_w but X_e vanishes: the rank is
    # inconclusive at each point, which fails the check, never passes it
    points = (1, idealmod.PRIME - 1)
    monkeypatch.setattr(idealmod, "SPECIALIZATION_POINTS", points)
    assert main(["verify-all", "--type", "A2"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    (eta,) = [r for r in reports if r["suite"] == "conj-eta"]
    checks = {c["id"]: c for c in eta["checks"]}
    assert checks["kernel-equality"]["witness"] == {"rank": 1, "points": list(points)}
    assert not checks["ideal-dimension"]["pass"]
    assert checks["x-integrality"]["pass"]


def test_a_later_point_rescues_a_degenerate_one(monkeypatch):
    monkeypatch.setattr(idealmod, "SPECIALIZATION_POINTS", (1, 12345))
    ideal = _ideal("A2")
    assert ideal.specialized_rank(ideal.x_elements()) == (4, [1, 12345])
    assert ideal.eta_check()[0].passed


@pytest.mark.parametrize(
    "label, star, window",
    [("A3", None, None), ("B3", None, None), ("G2", None, None), ("A2", [1, 0], None),
     ("Dinf", None, 7), ("Dinf", None, 9), ("Dinf", None, 12)],
    ids=["A3", "B3", "G2", "A2-star21", "Dinf-7", "Dinf-9", "Dinf-12"],
)
def test_descent_step_equals_chain_replay(label, star, window):
    # one memoized step per w that divides exactly, against the whole chain
    # replayed from the identity over Q(v)
    alg = HeckeAlgebra(CoxeterSystem.from_label(label, star=star))
    inv = InvolutionModule(alg, max_len=window)
    ideal = IdealModel(inv)
    for w in inv.basis:
        assert inv.bar_a(w) == bar_a_by_chain(inv, w), str(w)
        assert ideal.x_elt(w, max_len=window) == x_elt_by_chain(ideal, w, window), str(w)
