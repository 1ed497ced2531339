"""Acceptance suite: one test per criterion, each timed independently and
printing a pass/fail line (run with -s to see them on success).

All comparisons are bit-exact; every expected table below is a frozen
reference value (labels are arbitrary reduced words and are normalized
through the group before comparison).
"""

import itertools
import random
import time

from heckework import CoxeterSystem
from heckework.cells import CellData
from heckework.eqvb import (
    KRing,
    cell_consistency,
    circ_axioms_report,
    count_check,
    standard_pairs,
    star_axioms_report,
)
from heckework.hecke import HeckeAlgebra
from heckework.idealmod import IdealModel
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly, ONE


def fresh(label, max_len=None, with_cells=True):
    system = CoxeterSystem.from_label(label)
    alg = HeckeAlgebra(system)
    cells = CellData(alg) if with_cells else None
    inv = InvolutionModule(alg, max_len=max_len)
    return system, alg, cells, inv, IdealModel(inv)


def u_poly(items):
    return LaurentPoly({2 * e: c for e, c in items.items()})


def expand(sys, factor, terms):
    """factor * sum(coeff * T_label): {element: LaurentPoly}, u-units input."""
    f = u_poly(factor)
    out = {}
    for lbl, c in terms.items():
        w = sys.element(lbl)
        assert w not in out, "two labels for one element inside a single table"
        out[w] = f * u_poly(c)
    return out


def elapsed_ok(t0, limit, n, desc):
    dt = time.time() - t0
    print("ACCEPTANCE %d (%s): PASS (%.1fs)" % (n, desc, dt))
    assert dt < limit, "criterion %d exceeded its %ds budget: %.1fs" % (n, limit, dt)


# -- criterion 1: X-table reproduction --------------------------------------------------

A2_X_TABLES = {
    "e": ({0: 1}, {"121": {-3: 1}, "12": {-2: 1}, "21": {-2: 1},
                   "1": {-1: 1}, "2": {-1: 1}, "e": {0: 1}}),
    "1": ({1: 1, 0: -1}, {"121": {-3: 1}, "12": {-2: 1}, "1": {-1: 1}}),
    "2": ({1: 1, 0: -1}, {"121": {-3: 1}, "21": {-2: 1}, "2": {-1: 1}}),
    "121": ({1: 1, 0: -1}, {"121": {-1: 1, -2: 1, -3: -1},
                            "12": {-1: 1}, "21": {-1: 1}}),
}

UM1 = {1: 1, 0: -1}          # u - 1
UM1SQ = {2: 1, 1: -2, 0: 1}  # (u - 1)^2

A3_X_TABLES = {
    "1": (UM1, {"1": {-1: 1}, "12": {-2: 1}, "13": {-2: 1}, "121": {-3: 1},
                "123": {-3: 1}, "132": {-3: 1}, "1213": {-4: 1},
                "1232": {-4: 1}, "1321": {-4: 1}, "13213": {-5: 1},
                "12132": {-5: 1}, "121321": {-6: 1}}),
    "3": (UM1, {"3": {-1: 1}, "32": {-2: 1}, "13": {-2: 1}, "323": {-3: 1},
                "321": {-3: 1}, "132": {-3: 1}, "3231": {-4: 1},
                "3212": {-4: 1}, "1323": {-4: 1}, "13213": {-5: 1},
                "32312": {-5: 1}, "121321": {-6: 1}}),
    "2": (UM1, {"2": {-1: 1}, "21": {-2: 1}, "23": {-2: 1}, "121": {-3: 1},
                "323": {-3: 1}, "213": {-3: 1}, "1213": {-4: 1},
                "3231": {-4: 1}, "2132": {-4: 1}, "32312": {-5: 1},
                "12132": {-5: 1}, "121321": {-6: 1}}),
    "13": (UM1SQ, {"13": {-2: 1}, "132": {-3: 1}, "1321": {-4: 1},
                   "1323": {-4: 1}, "13213": {-5: 1}, "121321": {-6: 1}}),
    "121": (UM1, {"12": {-1: 1}, "21": {-1: 1},
                  "121": {-1: 1, -2: 1, -3: -1},
                  "123": {-2: 1}, "213": {-2: 1},
                  "1213": {-2: 1, -3: 1, -4: -1},
                  "1323": {-3: 1}, "2132": {-3: 1},
                  "12132": {-3: 1, -4: 1, -5: -1},
                  "13213": {-4: 1}, "21321": {-4: 1},
                  "121321": {-4: 1, -5: 1, -6: -1}}),
    "323": (UM1, {"32": {-1: 1}, "23": {-1: 1},
                  "323": {-1: 1, -2: 1, -3: -1},
                  "321": {-2: 1}, "213": {-2: 1},
                  "3213": {-2: 1, -3: 1, -4: -1},
                  "1321": {-3: 1}, "2132": {-3: 1},
                  "32132": {-3: 1, -4: 1, -5: -1},
                  "13213": {-4: 1}, "21323": {-4: 1},
                  "121321": {-4: 1, -5: 1, -6: -1}}),
    "2132": (UM1SQ, {"213": {-2: 1}, "2132": {-3: 1}, "21321": {-4: 1},
                     "21323": {-4: 1}, "12321": {-4: 1},
                     "121321": {-4: 1, -5: 1, -6: -1}}),
    "13213": (UM1, {"132": {-1: 1}, "123": {-1: 1}, "321": {-1: 1},
                    "1321": {-1: 1, -2: 1, -3: -1},
                    "3213": {-2: 1},
                    "1323": {-1: 1, -2: 1, -3: -1},
                    "1213": {-2: 1}, "2132": {-2: 1},
                    "21323": {-2: 1, -3: 1, -4: -1},
                    "21321": {-2: 1, -3: 1, -4: -1},
                    "13213": {-2: 2, -3: 1, -4: -2},
                    "121321": {-2: 1, -3: 2, -4: -1, -5: -2, -6: 1}}),
    "213213": (UM1SQ, {"1213": {-2: 1}, "2132": {-2: 1}, "2321": {-2: 1},
                       "21323": {-2: 1, -3: 1, -4: -1},
                       "21321": {-2: 1, -3: 1, -4: -1},
                       "13231": {-2: 1, -4: -1},
                       "121321": {-2: 1, -3: 1, -4: -1, -5: -1, -6: 1}}),
}


def test_acceptance_1_x_table_reproduction():
    t0 = time.time()
    # A1
    sys, alg, _, inv, ideal = fresh("A1", with_cells=False)
    _, xt = ideal.eta_check()
    assert xt[sys.identity] == expand(
        sys, {0: 1}, {"e": {0: 1}, "1": {-1: 1}}
    )
    assert xt[sys.element("1")] == expand(
        sys, UM1, {"1": {-1: 1}}
    )
    # A2 (X_empty with the plain u^{-l} sign convention)
    sys, alg, _, inv, ideal = fresh("A2", with_cells=False)
    _, xt = ideal.eta_check()
    for lbl, (factor, terms) in A2_X_TABLES.items():
        assert xt[sys.element(lbl)] == expand(sys, factor, terms), lbl
    # A3: all ten
    sys, alg, _, inv, ideal = fresh("A3", with_cells=False)
    _, xt = ideal.eta_check()
    x_empty = {x: u_poly({-len(x.word): 1}) for x in sys.elements()}
    assert xt[sys.identity] == x_empty
    for lbl, (factor, terms) in A3_X_TABLES.items():
        w = sys.element(lbl)
        assert xt[w] == expand(sys, factor, terms), lbl
    assert len(xt) == 10
    # Dinf series truncated to l(x) <= 7
    sys, alg, _, inv, ideal = fresh("Dinf", max_len=7, with_cells=False)
    x0 = ideal.x_empty()
    assert x0 == {
        x: u_poly({-len(x.word): 1}) for x in sys.elements(max_len=7)
    }
    for first in (0, 1):
        for k in range(4):
            lw = 2 * k + 1
            if lw > 7:
                continue
            w = sys.element(tuple((first + i) % 2 for i in range(lw)))
            xw = ideal.x_elt(w)
            expected = {}
            for length in range(k + 1, 8):
                x = sys.element(tuple((first + i) % 2 for i in range(length)))
                expected[x] = u_poly(UM1) * u_poly({-(length - k): 1})
            assert xw == expected, str(w)
    elapsed_ok(t0, 10, 1, "reference X-tables: A1, A2, A3, Dinf<=7")


# -- criterion 2: pi fibers and the specialization identity ------------------------------

A3_FIBERS = {
    "e": ["e"], "1": ["1"], "2": ["2"], "3": ["3"], "13": ["13"],
    "121": ["12", "21", "121"],
    "323": ["32", "23", "323"],
    "2132": ["213"],
    "13213": ["132", "123", "321", "1321", "1323"],
    "121321": ["1213", "2132", "2321", "21323", "21321", "13231", "121321"],
}

DINF_FIBERS = {
    "e": ["e"], "1": ["1"], "2": ["2"],
    "121": ["12"], "212": ["21"],
    "12121": ["121"], "21212": ["212"],
    "1212121": ["1212"], "2121212": ["2121"],
}


def test_acceptance_2_pi_reproduction():
    t0 = time.time()
    for label, expected_fibers, max_len in (
        ("A1", {"e": ["e"], "1": ["1"]}, None),
        ("A2", {"e": ["e"], "1": ["1"], "2": ["2"], "121": ["12", "21", "121"]}, None),
        ("A3", A3_FIBERS, None),
        ("Dinf", DINF_FIBERS, 12),
    ):
        sys, alg, _, inv, ideal = fresh(label, max_len=max_len, with_cells=False)
        _, pi = ideal.pi_report()
        fibers = ideal.pi_fibers(pi)
        for w_lbl, xs in expected_fibers.items():
            w = sys.element(w_lbl)
            assert fibers[w] == sorted(
                (sys.element(x) for x in xs), key=lambda e: e.sort_key()
            ), (label, w_lbl)
        rep, spec_pi = ideal.specialization_check()
        assert rep.passed, (label, [c.to_json() for c in rep.checks])
        assert spec_pi == pi, label
    elapsed_ok(t0, 5, 2, "pi fibers + specialization + length identity")


# -- criterion 3: the J-module structure ---------------------------------------------------


def test_acceptance_3_j_module_suite():
    t0 = time.time()
    contexts = {lbl: fresh(lbl) for lbl in ("A2", "B2", "A3")}
    # associativity: exhaustive on A2 and B2
    for lbl in ("A2", "B2"):
        sys, alg, cells, inv, _ = contexts[lbl]
        for x, y in itertools.product(cells.elements, repeat=2):
            jprod = cells.j_mult({x: 1}, {y: 1})
            for w in inv.basis:
                lhs = inv.cm_action(jprod, {w: 1}, cells)
                rhs = inv.cm_action({x: 1}, inv.cm_action({y: 1}, {w: 1}, cells), cells)
                assert lhs == rhs, (lbl, str(x), str(y), str(w))
    # associativity: >= 10^4 random triples on A3
    sys, alg, cells, inv, _ = contexts["A3"]
    rng = random.Random(20260810)
    for _ in range(10000):
        x = rng.choice(cells.elements)
        y = rng.choice(cells.elements)
        w = rng.choice(inv.basis)
        lhs = inv.cm_action(cells.j_mult({x: 1}, {y: 1}), {w: 1}, cells)
        rhs = inv.cm_action({x: 1}, inv.cm_action({y: 1}, {w: 1}, cells), cells)
        assert lhs == rhs, (str(x), str(y), str(w))
    # unit identity: exhaustive on A2, A3, B2
    for lbl in ("A2", "A3", "B2"):
        sys, alg, cells, inv, _ = contexts[lbl]
        one = cells.j_unit()
        for w in inv.basis:
            assert inv.cm_action(one, {w: 1}, cells) == {w: 1}, (lbl, str(w))
    # block laws and left-cell restriction: exhaustive
    for lbl in ("A2", "A3", "B2"):
        sys, alg, cells, inv, _ = contexts[lbl]
        for x in cells.elements:
            for w in inv.basis:
                act = inv.cm_action({x: 1}, {w: 1}, cells)
                if not cells.same_two_sided(x, w):
                    assert act == {}, (lbl, str(x), str(w))
                else:
                    for wp in act:
                        assert cells.same_two_sided(wp, w)
        dist = set(cells.distinguished_involutions())
        for lam in cells.left_cells:
            if frozenset(w.star() for w in lam) != lam:
                continue
            lam_inv = frozenset(w.inverse() for w in lam)
            inter = lam & lam_inv
            (d,) = tuple(lam & dist)
            for w in inv.basis:
                if w not in inter:
                    continue
                assert inv.cm_action({d: 1}, {w: 1}, cells) == {w: 1}
                for x in inter:
                    for wp in inv.cm_action({x: 1}, {w: 1}, cells):
                        assert wp in inter, (lbl, str(x), str(w), str(wp))
                for dp in dist - lam:
                    assert inv.cm_action({dp: 1}, {w: 1}, cells) == {}
    elapsed_ok(t0, 120, 3, "J-module: associativity, unit, blocks, left cells")


# -- criterion 4: the leading-term law ------------------------------------------------------


def test_acceptance_4_leading_term_law():
    t0 = time.time()
    for lbl in ("A2", "A3", "B2"):
        sys, alg, cells, inv, _ = fresh(lbl)
        for x in cells.elements:
            for w in inv.basis:
                row = inv.f_constants(x, w)
                for wp in inv.basis:
                    f = row.get(wp)
                    if f is None:
                        continue
                    # f = beta v^{2a(w')} mod v^{2a(w')-1} Z[v^-1]
                    assert f.degree() <= 2 * cells.a[wp], (lbl, str(x), str(w), str(wp))
                    beta = f.coeff_of_v(2 * cells.a[wp])
                    if beta:
                        assert cells.same_two_sided(x, w), (lbl, str(x), str(w))
                        assert cells.same_two_sided(w, wp)
                    # 1.1(f): support constraint
                    assert cells.leq_lr(wp, w)
                    assert cells.leq_lr(wp, x)
    elapsed_ok(t0, 120, 4, "leading-term law + support constraints")


# -- criterion 5: the KL layer ----------------------------------------------------------------


def test_acceptance_5_kl_oracle_equivalence():
    t0 = time.time()
    one_plus_u = LaurentPoly({1: 1, 0: 1})
    for lbl in ("A2", "A3", "B2", "G2"):
        sys = CoxeterSystem.from_label(lbl)
        alg = HeckeAlgebra(sys)
        nontrivial = {}
        for w in sys.elements():
            for y in sys.lower_interval(w):
                p = alg.kl.p(y, w)
                assert p == alg.kl_solved(y, w), (lbl, str(y), str(w))
                if y != w and p:
                    assert 2 * p.degree() <= len(w.word) - len(y.word) - 1
                if p != ONE and p:
                    nontrivial[(str(y), str(w))] = p
        if lbl == "A3":
            assert set(nontrivial.values()) == {one_plus_u}
            assert ("2", "2132") in nontrivial
            assert set(nontrivial) == {
                ("e", "2132"), ("2", "2132"),
                ("e", "12321"), ("1", "12321"), ("3", "12321"), ("13", "12321"),
            }
        else:
            assert not nontrivial, (lbl, nontrivial)
    elapsed_ok(t0, 30, 5, "KL recursion == bar-solver; degree bounds; A3 values")


# -- criterion 6: bar and A-basis well-definedness ----------------------------------------------


def test_acceptance_6_bar_and_a_basis():
    t0 = time.time()
    for lbl, max_len in (("A2", None), ("A3", None), ("B2", None), ("Dinf", 9)):
        sys, alg, _, inv, _ = fresh(lbl, max_len=max_len, with_cells=False)
        for w in inv.basis:
            # bar recursion independent of the chosen descent
            if w.word:
                results = [inv.bar_a_via(w, i) for i in sorted(sys.left_descents(w))]
                assert all(r == results[0] for r in results[1:]), (lbl, str(w))
            # involutive, with integral coefficients
            bar = inv.bar_a(w)
            for c in bar.values():
                assert isinstance(c, LaurentPoly)
            assert inv.bar_m(bar) == {w: ONE}, (lbl, str(w))
            # A_w: bar-invariant unique triangular solution (the solve itself
            # certifies uniqueness), integral, degree-bounded
            aw = inv.a_upper(w)
            assert inv.bar_m(aw) == aw, (lbl, str(w))
            for y, c in aw.items():
                assert isinstance(c, LaurentPoly)
            for y in aw:
                p = inv.psigma(y, w)
                if y != w and p:
                    assert 2 * p.degree() <= len(w.word) - len(y.word) - 1
    elapsed_ok(t0, 60, 6, "bar/A-basis: descent-free, involutive, integral")


# -- criterion 7: equivariant counting ------------------------------------------------------------


def test_acceptance_7_equivariant_counting():
    t0 = time.time()
    pairs = standard_pairs()
    assert len(pairs) >= 10
    for name, gs in pairs:
        assert gs.rank <= 2 and gs.size <= 12
        rep = count_check(KRing(gs), name)  # rank formula + brute force + 2.4(d)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])
    # star/circ module axioms and Psi-centrality, exhaustive at |X| <= 6
    for name, gs in pairs:
        if gs.size > 6:
            continue
        kr = KRing(gs)
        rep = star_axioms_report(kr, name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])
        rep = circ_axioms_report(kr, name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])
    elapsed_ok(t0, 60, 7, "Kbar ranks, scalar action, star/circ axioms")


# -- criterion 8: cell consistency ------------------------------------------------------------------


def test_acceptance_8_cell_consistency():
    t0 = time.time()
    for lbl in ("A2", "A3"):
        sys, alg, cells, inv, _ = fresh(lbl)
        for idx, c in enumerate(cells.two_sided_cells):
            n_left = sum(1 for lam in cells.left_cells if lam <= c)
            rep = cell_consistency(cells, inv, idx, 0, [[]] * n_left)
            assert rep.passed, (lbl, idx, [ch.to_json() for ch in rep.checks])
    sys, alg, cells, inv, _ = fresh("B2")
    idx = next(
        i for i, c in enumerate(cells.two_sided_cells) if len(c) == 6
    )
    rep = cell_consistency(cells, inv, idx, 1, [[], []])
    assert rep.passed, [ch.to_json() for ch in rep.checks]
    elapsed_ok(t0, 30, 8, "cell dimension consistency: A2, A3, B2 middle")
