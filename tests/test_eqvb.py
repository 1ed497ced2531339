import itertools
import random

import pytest

from heckework.eqvb import (
    GammaSet,
    KRing,
    cell_consistency,
    char_value,
    circ_axioms_report,
    count_check,
    standard_pairs,
    star_axioms_report,
)


def test_gamma_set_validation():
    with pytest.raises(ValueError):
        GammaSet(1, 2, ((0, 1),))  # missing a row
    with pytest.raises(ValueError):
        GammaSet(1, 2, ((0, 1), (0, 0)))  # not a permutation
    gs = GammaSet.from_subgroups(1, [[]])
    assert gs.size == 2


def test_orbits_trivial_group():
    gs = GammaSet.trivial(3)
    kr = KRing(gs)
    assert len(kr.pair_orbits) == 9
    assert all(len(o.points) == 1 for o in kr.pair_orbits)


def test_orbits_regular_z2():
    gs = GammaSet.from_subgroups(1, [[]])
    kr = KRing(gs)
    assert len(kr.pair_orbits) == 2
    assert all(o.stabilizer == (0,) for o in kr.pair_orbits)


def test_pairs_symmetric_in_single_orbit():
    # (x, y) and (y, x) lie in the same orbit when X is one orbit
    for gens in ([[]], [[1]], [[1, 2]]):
        rank = 2 if gens == [[1, 2]] else 1
        gs = GammaSet.from_subgroups(rank, gens)
        kr = KRing(gs)
        for o in kr.pair_orbits:
            pts = set(o.points)
            assert {kr._sigma_point(p) for p in pts} == pts


def test_convolution_unit():
    for name, gs in standard_pairs():
        kr = KRing(gs)
        one = kr.unit()
        for i in range(len(kr.basis)):
            assert kr.convolve(one, {i: 1}) == {i: 1}
            assert kr.convolve({i: 1}, one) == {i: 1}


def test_matrix_units_trivial_group():
    kr = KRing(GammaSet.trivial(3))
    # basis elements are e_{pq}; with the diagonal-preferred base points the
    # orbit of (p,q) is the single point p*3+q
    def idx(p, q):
        return next(
            i
            for i, (oi, phi) in enumerate(kr.basis)
            if kr.pair_orbits[oi].base == p * 3 + q
        )

    for p in range(3):
        for q in range(3):
            for qq in range(3):
                for r in range(3):
                    prod = kr.convolve({idx(p, q): 1}, {idx(qq, r): 1})
                    expected = {idx(p, r): 1} if q == qq else {}
                    assert prod == expected


def test_z2_regular_structure_table():
    # frozen from brute-force fiber materialization: X = Z/2 regular, basis
    # {Delta (diagonal orbit), A (antidiagonal orbit)}; the table is the
    # group algebra of Z/2: Delta is the unit and A*A = Delta
    kr = KRing(GammaSet.from_subgroups(1, [[]]))
    assert len(kr.basis) == 2
    diag = next(
        i
        for i, (oi, _) in enumerate(kr.basis)
        if kr.pair_orbits[oi].base // 2 == kr.pair_orbits[oi].base % 2
    )
    anti = 1 - diag
    assert kr.convolve({diag: 1}, {diag: 1}) == {diag: 1}
    assert kr.convolve({diag: 1}, {anti: 1}) == {anti: 1}
    assert kr.convolve({anti: 1}, {anti: 1}) == {diag: 1}


def test_sigma_twist():
    kr = KRing(GammaSet.trivial(3))
    one = kr.unit()
    assert kr.sigma(one) == one
    rng = random.Random(0)
    for name, gs in standard_pairs():
        kr = KRing(gs)
        nb = len(kr.basis)
        for _ in range(20):
            i, j = rng.randrange(nb), rng.randrange(nb)
            lhs = kr.sigma(kr.convolve_basis(i, j))
            rhs = kr.convolve(kr.sigma({j: 1}), kr.sigma({i: 1}))
            assert lhs == rhs
        for i in range(nb):
            assert kr.sigma(kr.sigma({i: 1})) == {i: 1}


def test_kbar_ranks():
    assert len(KRing(GammaSet.trivial(4)).kbar_basis()) == 4
    assert len(KRing(GammaSet.from_subgroups(1, [[]])).kbar_basis()) == 2
    assert len(KRing(GammaSet.from_subgroups(2, [[1, 2]])).kbar_basis()) == 4
    # two fixed points plus one regular orbit: rank 2 * 3
    gs = GammaSet.from_subgroups(1, [[1], [1], []])
    assert len(KRing(gs).kbar_basis()) == 6
    gs = GammaSet.from_subgroups(2, [[1], [2], [3]])
    assert len(KRing(gs).kbar_basis()) == 12


def test_circ_unit_and_composition():
    for name, gs in standard_pairs():
        if gs.size > 4:
            continue
        kr = KRing(gs)
        one = kr.unit()
        for j in kr.kbar_basis():
            assert kr.circ(one, {j: 1}) == {j: 1}
        nb = len(kr.basis)
        for i, ip in itertools.product(range(nb), repeat=2):
            prod = kr.convolve_basis(ip, i)
            for j in kr.kbar_basis():
                assert kr.circ(prod, {j: 1}) == kr.circ({ip: 1}, kr.circ_basis(i, j))


def test_theta_dies_in_quotient():
    for name, gs in standard_pairs():
        if gs.size > 6:
            continue
        kr = KRing(gs)
        for i in range(len(kr.basis)):
            assert kr.theta_signed(i) == {}


def test_signed_negation_cancels():
    # (U, kappa) + (U, -kappa) = 0 in the quotient: the class of the negated
    # twist is the negated class, so the sum vanishes
    kr = KRing(GammaSet.from_subgroups(1, [[1], []]))
    for j in kr.kbar_basis():
        total = {}
        for k, v in {j: 1}.items():
            total[k] = total.get(k, 0) + v
        for k, v in {j: -1}.items():
            total[k] = total.get(k, 0) + v
        assert all(v == 0 for v in total.values())


def test_psi_nu():
    for name, gs in standard_pairs():
        kr = KRing(gs)
        # unit of C_Gamma maps to the diagonal bundle
        assert kr.psi({(0, 0): 1}) == kr.unit()
        # nu (the sum of the coefficients) is multiplicative
        y1 = {(g, 0): 1 for g in kr.gs.group}
        assert sum(y1.values()) == len(list(kr.gs.group))
        prod = kr.cgamma_mult(y1, y1)
        assert sum(prod.values()) == sum(y1.values()) ** 2


def test_psi_ring_hom_and_central():
    for name, gs in standard_pairs():
        if gs.size > 4:
            continue
        rep = circ_axioms_report(gs, name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_scalar_action_2_4d():
    for name, gs in standard_pairs():
        kr = KRing(gs)
        for (g0, phi) in kr.cgamma_basis():
            v = kr.psi_basis(g0, phi)
            for j in kr.kbar_basis():
                assert kr.circ(v, {j: 1}) == {j: 1}


def test_count_check_library():
    pairs = standard_pairs()
    assert len(pairs) >= 10
    for name, gs in pairs:
        assert gs.rank <= 2 and gs.size <= 12
        rep = count_check(gs, name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_star_axioms_library():
    for name, gs in standard_pairs():
        if gs.size > 6:
            continue
        rep = star_axioms_report(gs, name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_char_value():
    assert char_value(0b11, 0b01) == -1
    assert char_value(0b11, 0b11) == 1
    assert char_value(0, 7) == 1


def test_cell_consistency_a2(a2):
    part = a2.cells.partition
    for idx, c in enumerate(part.two_sided_cells):
        n_left = sum(1 for lam in part.left_cells if lam <= c)
        rep = cell_consistency(a2.cells, a2.inv, idx, 0, [[]] * n_left)
        assert rep.passed, [ch.to_json() for ch in rep.checks]


def test_cell_consistency_b2_middle(b2):
    part = b2.cells.partition
    idx = next(i for i, c in enumerate(part.two_sided_cells) if len(c) == 6)
    rep = cell_consistency(b2.cells, b2.inv, idx, 1, [[], []])
    assert rep.passed, [ch.to_json() for ch in rep.checks]


def test_cell_consistency_detects_mismatch(a2):
    part = a2.cells.partition
    idx = next(i for i, c in enumerate(part.two_sided_cells) if len(c) == 4)
    rep = cell_consistency(a2.cells, a2.inv, idx, 1, [[], []])  # wrong rank
    assert not rep.passed


def test_orbit_stabilizers_public():
    from heckework.eqvb import orbit_stabilizers

    gs = GammaSet.trivial(2)
    data = orbit_stabilizers(gs)
    assert len(data["x"]) == 2 and len(data["pairs"]) == 4
    gs = GammaSet.from_subgroups(1, [[]])
    data = orbit_stabilizers(gs)
    assert len(data["pairs"]) == 2
    assert all(o.stabilizer == (0,) for o in data["pairs"])
    # single-orbit X: (x, y) and (y, x) always share an orbit
    for o in data["pairs"]:
        n = gs.size
        assert {(p % n) * n + (p // n) for p in o.points} == set(o.points)


@pytest.mark.parametrize("op", ["j_mult", "convolve", "cgamma_mult", "circ", "psi"])
def test_zero_coefficient_in_a_sum_is_dropped(op, a2):
    # a zero input coefficient adds nothing, so no absent key is deleted
    kr = KRing(GammaSet.trivial(1))
    e = a2.sys.identity
    calls = {
        "j_mult": lambda: a2.cells.j_mult({e: 0}, {e: 1}),
        "convolve": lambda: kr.convolve({0: 0}, {0: 1}),
        "cgamma_mult": lambda: kr.cgamma_mult({(0, 0): 0}, {(0, 0): 1}),
        "circ": lambda: kr.circ({0: 0}, {0: 1}),
        "psi": lambda: kr.psi({(0, 0): 0}),
    }
    assert calls[op]() == {}
