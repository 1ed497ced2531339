import itertools
import random

import pytest

from heckework import CoxeterSystem
from heckework import hecke
from heckework.cache import CacheStore
from heckework.hecke import HeckeAlgebra, KLTable, bar_invariant_solve
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly, ONE, ZERO
from oracles import bar_h, f_constants_t_basis, h_struct_t_basis, kl_mu, triple_H

U = LaurentPoly({2: 1})
UM1 = LaurentPoly({2: 1, 0: -1})


def T(ctx, label):
    return {ctx.sys.element(label): ONE}


def test_quadratic_relation(a2):
    s = a2.sys.element("1")
    prod = a2.alg.mult({s: ONE}, {s: ONE})
    assert prod == {s: UM1, a2.sys.identity: U}


def test_braid_product(a2):
    prod = a2.alg.mult(T(a2, "1"), T(a2, "2"))
    assert prod == {a2.sys.element("12"): ONE}


def test_t1_times_t121(a2):
    # derived from the quadratic relation; cross-checked by associativity
    lhs = a2.alg.mult(T(a2, "1"), T(a2, "121"))
    assert lhs == {
        a2.sys.element("121"): UM1,
        a2.sys.element("21"): U,
    }
    via = a2.alg.mult(T(a2, "1"), a2.alg.mult(T(a2, "1"), T(a2, "21")))
    direct = a2.alg.mult(a2.alg.mult(T(a2, "1"), T(a2, "1")), T(a2, "21"))
    assert via == direct


def test_t_mult_associativity_exhaustive_a2(a2):
    els = a2.sys.elements()
    for x, y, z in itertools.product(els, repeat=3):
        lhs = a2.alg.mult(a2.alg.mult({x: ONE}, {y: ONE}), {z: ONE})
        rhs = a2.alg.mult({x: ONE}, a2.alg.mult({y: ONE}, {z: ONE}))
        assert lhs == rhs


def test_t_mult_associativity_random_a3(a3):
    els = a3.sys.elements()
    rng = random.Random(0)
    for _ in range(200):
        x, y, z = (rng.choice(els) for _ in range(3))
        lhs = a3.alg.mult(a3.alg.mult({x: ONE}, {y: ONE}), {z: ONE})
        rhs = a3.alg.mult({x: ONE}, a3.alg.mult({y: ONE}, {z: ONE}))
        assert lhs == rhs


def test_bar_of_ts(a2):
    s = a2.sys.element("1")
    assert a2.alg.bar_t(s) == {
        s: LaurentPoly({-2: 1}),
        a2.sys.identity: LaurentPoly({-2: 1, 0: -1}),
    }
    assert a2.alg.bar_t(a2.sys.identity) == {a2.sys.identity: ONE}


def test_bar_involutive_exhaustive_a2(a2):
    for w in a2.sys.elements():
        assert bar_h(a2.alg, a2.alg.bar_t(w)) == {w: ONE}


def test_bar_is_multiplicative(a2):
    els = a2.sys.elements()
    rng = random.Random(1)
    for _ in range(60):
        x, y = rng.choice(els), rng.choice(els)
        h1, h2 = {x: ONE}, {y: ONE}
        lhs = bar_h(a2.alg, a2.alg.mult(h1, h2))
        rhs = a2.alg.mult(bar_h(a2.alg, h1), bar_h(a2.alg, h2))
        assert lhs == rhs


def test_kl_diagonal_and_a2_trivial(a2):
    for w in a2.sys.elements():
        assert a2.alg.kl.p(w, w) == ONE
        for y in a2.sys.lower_interval(w):
            assert a2.alg.kl.p(y, w) == ONE


def test_kl_nontrivial_a3(a3):
    y = a3.sys.element("2")
    w = a3.sys.element("2132")
    assert a3.alg.kl.p(y, w) == LaurentPoly({1: 1, 0: 1})  # 1 + u, in u-units
    # the full list of nontrivial entries, frozen from the solver oracle and
    # matching the two singular Schubert varieties of S4
    nontrivial = {
        (str(y), str(w))
        for w in a3.sys.elements()
        for y in a3.sys.lower_interval(w)
        if a3.alg.kl.p(y, w) != ONE
    }
    assert nontrivial == {
        ("e", "2132"),
        ("2", "2132"),
        ("e", "12321"),
        ("1", "12321"),
        ("3", "12321"),
        ("13", "12321"),
    }


def test_kl_recursion_equals_solver(a3, b2, g2):
    for ctx in (a3, b2, g2):
        for w in ctx.sys.elements():
            for y in ctx.sys.lower_interval(w):
                assert ctx.alg.kl.p(y, w) == ctx.alg.kl_solved(y, w), (str(y), str(w))


def test_kl_degree_bound(a3):
    for w in a3.sys.elements():
        for y in a3.sys.lower_interval(w):
            if y == w:
                continue
            p = a3.alg.kl.p(y, w)
            if p:
                assert 2 * p.degree() <= len(w.word) - len(y.word) - 1


def test_c_elt_examples(a2):
    e = a2.sys.identity
    assert a2.alg.c_elt(e) == {e: ONE}
    s = a2.sys.element("1")
    vinv = LaurentPoly({-1: 1})
    assert a2.alg.c_elt(s) == {s: vinv, e: vinv}
    w0 = a2.sys.element("121")
    v3 = LaurentPoly({-3: 1})
    assert a2.alg.c_elt(w0) == {a2.sys.element(lbl): v3 for lbl in ["e", "1", "2", "12", "21", "121"]}


def test_c_elt_bar_invariant(a2, b2):
    for ctx in (a2, b2):
        for w in ctx.sys.elements():
            c = ctx.alg.c_elt(w)
            assert bar_h(ctx.alg, c) == c


def test_h_struct_examples(a2):
    s = a2.sys.element("1")
    assert a2.alg.h_struct(s, s) == {s: LaurentPoly({1: 1, -1: 1})}
    e = a2.sys.identity
    for y in a2.sys.elements():
        assert a2.alg.h_struct(e, y) == {y: ONE}


def test_h_struct_support_constraint(a2):
    # h(x,y,z) != 0 forces z preceq x and z preceq y; cells cross-check lives
    # in test_cells, here the weaker Bruhat-free sanity: z in W of course, and
    # structure constants reproduce the product
    els = a2.sys.elements()
    for x in els:
        for y in els:
            prod = a2.alg.mult(a2.alg.c_elt(x), a2.alg.c_elt(y))
            rebuilt = {}
            for z, h in a2.alg.h_struct(x, y).items():
                for t, c in a2.alg.c_elt(z).items():
                    cur = rebuilt.get(t, ZERO) + h * c
                    if cur:
                        rebuilt[t] = cur
                    else:
                        rebuilt.pop(t, None)
            assert rebuilt == prod


@pytest.fixture(scope="module")
def oracle_contexts(a3, b2, g2):
    """(label, algebra, module, x rows) for the two-route comparisons: every
    row on the small systems, {e, s_i, w0} on B3."""
    out = [(ctx.sys.describe(), ctx.alg, ctx.inv, ctx.sys.elements()) for ctx in (a3, b2, g2)]
    for label, star in (("I2(5)", None), ("A2", [1, 0]), ("B3", None)):
        alg = HeckeAlgebra(CoxeterSystem.from_label(label, star=star))
        els = alg.system.elements()
        gens = [alg.system.generator(i) for i in range(alg.system.rank)]
        rows = els if label != "B3" else [els[0], *gens, els[-1]]
        out.append((label, alg, InvolutionModule(alg), rows))
    return out


def test_h_struct_recursion_equals_t_basis_product(oracle_contexts):
    for label, alg, _, rows in oracle_contexts:
        for x in rows:
            for y in alg.system.elements():
                assert alg.h_struct(x, y) == h_struct_t_basis(alg, x, y), (label, str(x), str(y))


def test_f_constants_recursion_equals_t_action(oracle_contexts):
    for label, _, inv, rows in oracle_contexts:
        for x in rows:
            for w in inv.basis:
                assert inv.f_constants(x, w) == f_constants_t_basis(inv, x, w), (label, str(x), str(w))


def test_c_gen_mult_is_the_generator_row(a3, monkeypatch):
    # c_s c_w by the mu-rule equals the T-basis product, and mu_down lists
    # exactly the z < w with s in D_L(z) and mu(z, w) != 0
    for w in a3.sys.elements():
        for i in range(a3.sys.rank):
            s = a3.sys.generator(i)
            assert a3.alg.c_gen_mult(i, {w: ONE}) == h_struct_t_basis(a3.alg, s, w)
            expected = {
                z: kl_mu(a3.alg.kl, z, w)
                for z in a3.sys.lower_interval(w)
                if i in a3.sys.left_descents(z) and kl_mu(a3.alg.kl, z, w)
            }
            assert dict(a3.alg.mu_down(i, w)) == expected
    # mu is 0 or 1 on every system small enough for these tests, so scale it
    # by hand: c_z enters c_s c_w with coefficient mu(z, w)
    mu_down = a3.alg.mu_down
    monkeypatch.setattr(a3.alg, "mu_down", lambda i, w: [(z, 3 * m) for z, m in mu_down(i, w)])
    for w in a3.sys.elements():
        for i in set(range(a3.sys.rank)) - a3.sys.left_descents(w):
            got = a3.alg.c_gen_mult(i, {w: ONE})
            for z, m in mu_down(i, w):
                assert got[z] == LaurentPoly.const(3 * m)


def test_triple_h(a2):
    e = a2.sys.identity
    inv = a2.sys.twisted_involutions()
    for w in inv:
        for wp in inv:
            expected = ONE if w == wp else ZERO
            assert triple_H(a2.alg, e, w, wp) == expected
    # two-way agreement is asserted inside triple_H; run it exhaustively
    for x in a2.sys.elements():
        for w in inv:
            for wp in inv:
                triple_H(a2.alg, x, w, wp)


def test_kl_cache_roundtrip(tmp_path):
    store = CacheStore(tmp_path)
    sys1 = CoxeterSystem.from_label("A3")
    t_cold = KLTable(sys1, store=store)
    w = sys1.element("2132")
    y = sys1.element("2")
    cold = t_cold.p(y, w)
    sys2 = CoxeterSystem.from_label("A3")
    t_warm = KLTable(sys2, store=store)
    assert t_warm._p  # loaded from disk
    assert t_warm.p(sys2.element("2"), sys2.element("2132")) == cold
    # full-table equality warm vs cold, matching elements by word
    sys3 = CoxeterSystem.from_label("A3")
    t_plain = KLTable(sys3)
    for ww in sys2.elements():
        for yy in sys2.lower_interval(ww):
            assert t_warm.p(yy, ww) == t_plain.p(sys3.element(yy.word), sys3.element(ww.word))


def test_c_struct_associativity(a2, a3):
    # sum_z h(x,y,z) h(z,w,v) = sum_z h(y,w,z) h(x,z,v)
    def check(ctx, x, y, w):
        lhs = {}
        for z, h in ctx.alg.h_struct(x, y).items():
            for v, hh in ctx.alg.h_struct(z, w).items():
                cur = lhs.get(v, ZERO) + h * hh
                if cur:
                    lhs[v] = cur
                else:
                    lhs.pop(v, None)
        rhs = {}
        for z, h in ctx.alg.h_struct(y, w).items():
            for v, hh in ctx.alg.h_struct(x, z).items():
                cur = rhs.get(v, ZERO) + h * hh
                if cur:
                    rhs[v] = cur
                else:
                    rhs.pop(v, None)
        assert lhs == rhs, (str(x), str(y), str(w))

    for x, y, w in itertools.product(a2.sys.elements(), repeat=3):
        check(a2, x, y, w)
    rng = random.Random(13)
    els = a3.sys.elements()
    for _ in range(100):
        check(a3, rng.choice(els), rng.choice(els), rng.choice(els))


def test_triple_h_distinguished_leading_term(a2):
    # the coefficient of v^{2a(w')} in H_{d0,w,w'} is delta_{w,w'}, where d0
    # is the distinguished involution in the left cell of w^-1
    cd = a2.cells
    dist = set(cd.distinguished_involutions())
    for w in a2.inv.basis:
        lam = next(c for c in cd.partition.left_cells if w.inverse() in c)
        (d0,) = tuple(lam & dist)
        for wp in a2.inv.basis:
            h = triple_H(a2.alg, d0, w, wp)
            expected = 1 if w == wp else 0
            assert h.coeff_of_v(2 * cd.a[wp]) == expected, (str(w), str(wp))


def test_bar_invariant_solve_rejects_a_wrong_leading_term(a2):
    w, x = a2.sys.element("121"), a2.sys.element("2")

    def bar_col(y):
        col = dict(a2.alg.bar_t(y))
        if y == x:
            col[x] = col[x].shifted(2)
        return col

    with pytest.raises(AssertionError, match="leading term at 2"):
        bar_invariant_solve(w, a2.sys.lower_interval(w), bar_col)


def test_bar_invariant_solve_rejects_an_inconsistent_column(a2):
    # bar(T_s) = v^-2 T_s + (v^-2 - 1) T_e; dropping the -1 leaves
    # f - bar(f) = v^-1 - v against G = v^-1 at e
    s, e = a2.sys.element("1"), a2.sys.identity

    def bar_col(y):
        if y == s:
            return {s: LaurentPoly.monomial(-2), e: LaurentPoly.monomial(-2)}
        return {e: ONE}

    assert bar_invariant_solve(s, [e, s], a2.alg.bar_t) == a2.alg.c_elt(s)
    with pytest.raises(AssertionError, match="inconsistent at e below 1"):
        bar_invariant_solve(s, [e, s], bar_col)


def test_c_elt_solved_solves_once_per_w(monkeypatch):
    sys = CoxeterSystem.from_label("A3")
    alg = HeckeAlgebra(sys)
    solved = []

    def counting(w, below, bar_col):
        solved.append(w)
        return bar_invariant_solve(w, below, bar_col)

    monkeypatch.setattr(hecke, "bar_invariant_solve", counting)
    for w in sys.elements():
        for y in sys.lower_interval(w):
            assert alg.kl_solved(y, w) == alg.kl.p(y, w)
    assert sorted(solved, key=lambda w: w.sort_key()) == sys.elements()
