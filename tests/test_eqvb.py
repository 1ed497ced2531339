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
from heckework.hecke import add_scaled
import oracles
from oracles import circ_basis_by_kappa, convolve_basis_by_points


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
    # basis elements are e_{pq}: the orbit of (p,q) is the single point p*3+q
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
    assert len(KRing(GammaSet.trivial(4)).kbar) == 4
    assert len(KRing(GammaSet.from_subgroups(1, [[]])).kbar) == 2
    assert len(KRing(GammaSet.from_subgroups(2, [[1, 2]])).kbar) == 4
    # two fixed points plus one regular orbit: rank 2 * 3
    gs = GammaSet.from_subgroups(1, [[1], [1], []])
    assert len(KRing(gs).kbar) == 6
    gs = GammaSet.from_subgroups(2, [[1], [2], [3]])
    assert len(KRing(gs).kbar) == 12


def test_sigma_table_is_an_involution_fixing_kbar():
    # sigma_of permutes the basis indices and squares to the identity, and
    # kbar is the set of i whose materialized trace signature is symmetric
    # under the swap (x, y) -> (y, x)
    for name, gs in standard_pairs():
        kr = KRing(gs)
        nb = len(kr.basis)
        assert sorted(kr.sigma_of) == list(range(nb)), name
        assert all(kr.sigma_of[kr.sigma_of[i]] == i for i in range(nb)), name
        symmetric = set()
        for i in range(nb):
            sig = kr.trace_signature({i: 1})
            if sig == {(kr._sigma_point(p), g): v for (p, g), v in sig.items()}:
                symmetric.add(i)
        assert set(kr.kbar) == symmetric, name


def _relabelled(gs, rng):
    # the same Gamma-set with its points renamed by a random permutation
    perm = list(range(gs.size))
    rng.shuffle(perm)
    action = [[0] * gs.size for _ in gs.group]
    for g in gs.group:
        for x in range(gs.size):
            action[g][perm[x]] = perm[gs.act(g, x)]
    return GammaSet(gs.rank, gs.size, tuple(map(tuple, action)))


def _oracle_sets():
    # the library, five rank-2 and rank-3 coset spaces, and those five with
    # their points relabelled
    extra = [GammaSet.from_subgroups(r, gens) for r, gens in [
        (3, [[]]), (3, [[1], [2]]), (3, [[1, 2], [4]]), (3, [[1, 2, 4], [3], []]),
        (2, [[3], [1, 2], []])]]
    rng = random.Random(1)
    return [gs for _, gs in standard_pairs()] + extra + [_relabelled(gs, rng) for gs in extra]


def test_circ_basis_equals_the_kappa_route():
    # the closed form against the kappa search and its six-sign traces, on
    # every i and every self-dual j of the oracle sets
    sets = _oracle_sets()
    checked = 0
    for gs in sets:
        kr = KRing(gs)
        for i in range(len(kr.basis)):
            for j in kr.kbar:
                assert kr.circ_basis(i, j) == circ_basis_by_kappa(kr, i, j), (gs.action, i, j)
                checked += 1
    assert (len(sets), checked) == (22, 4685)


def test_convolve_basis_equals_the_point_route():
    # the closed form against one sign per fixed point, on every (i, j) of
    # the oracle sets and of the rank-3 config on four fixed points
    sets = _oracle_sets() + [GammaSet.from_subgroups(3, [[1, 2, 4]] * 4)]
    checked = nonzero = 0
    for gs in sets:
        kr = KRing(gs)
        for i in range(len(kr.basis)):
            for j in range(len(kr.basis)):
                got = kr.convolve_basis(i, j)
                assert got == convolve_basis_by_points(kr, i, j), (gs.action, i, j)
                checked += 1
                nonzero += bool(got)
    assert (len(sets), checked, nonzero) == (23, 24095, 6981)


def test_signed_negation_cancels(monkeypatch):
    # (U, kappa) + (U, -kappa) = 0 in the quotient: the kappa route with every
    # kappa negated gives V . (U, -kappa), and it cancels KRing's V . (U, kappa)
    kr = KRing(GammaSet.from_subgroups(1, [[1], []]))
    kappa = oracles.kappa_by_search
    monkeypatch.setattr(oracles, "kappa_by_search",
                        lambda ring, j: {p: -e for p, e in kappa(ring, j).items()})
    nonzero = 0
    for i in range(len(kr.basis)):
        for j in kr.kbar:
            total = kr.circ({i: 1}, {j: 1})
            add_scaled(total, circ_basis_by_kappa(kr, i, j), 1)
            assert total == {}, (i, j)
            nonzero += bool(kr.circ_basis(i, j))
    assert nonzero == 12


def test_psi_nu():
    # the unit of C_Gamma maps to the diagonal bundle
    for name, gs in standard_pairs():
        kr = KRing(gs)
        assert kr.psi_of[0, 0] == kr.unit(), name


def test_psi_images_are_the_graph_bundles():
    # Psi(Y) for Y at g0 with character phi, materialized: the fiber at each
    # (g0 y, y) is one line on which h with h y = y acts by chi_phi(h)
    for name, gs in standard_pairs() + [("rank-3", GammaSet.from_subgroups(3, [[1, 2, 4]] * 4))]:
        kr = KRing(gs)
        n = gs.size
        assert sorted(kr.psi_of) == [(g0, phi) for g0 in gs.group for phi in gs.group], name
        for (g0, phi), v in kr.psi_of.items():
            expected = {(gs.act(g0, y) * n + y, h): char_value(phi, h)
                        for y in range(n) for h in gs.group if gs.act(h, y) == y}
            assert kr.trace_signature(v) == expected, (name, g0, phi)


def test_psi_ring_hom_and_central():
    for name, gs in standard_pairs():
        if gs.size > 4:
            continue
        rep = circ_axioms_report(KRing(gs), name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_scalar_action_2_4d():
    for name, gs in standard_pairs():
        kr = KRing(gs)
        for v in kr.psi_of.values():
            for j in kr.kbar:
                assert kr.circ(v, {j: 1}) == {j: 1}


def test_count_check_library():
    pairs = standard_pairs()
    assert len(pairs) >= 10
    for name, gs in pairs:
        assert gs.rank <= 2 and gs.size <= 12
        rep = count_check(KRing(gs), name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_star_axioms_library():
    for name, gs in standard_pairs():
        if gs.size > 6:
            continue
        rep = star_axioms_report(KRing(gs), name)
        assert rep.passed, (name, [c.to_json() for c in rep.checks])


def test_char_value():
    assert char_value(0b11, 0b01) == -1
    assert char_value(0b11, 0b11) == 1
    assert char_value(0, 7) == 1


def test_cell_consistency_a2(a2):
    for idx, c in enumerate(a2.cells.two_sided_cells):
        n_left = sum(1 for lam in a2.cells.left_cells if lam <= c)
        rep = cell_consistency(a2.cells, a2.inv, idx, 0, [[]] * n_left)
        assert rep.passed, [ch.to_json() for ch in rep.checks]


def test_cell_consistency_b2_middle(b2):
    idx = next(i for i, c in enumerate(b2.cells.two_sided_cells) if len(c) == 6)
    rep = cell_consistency(b2.cells, b2.inv, idx, 1, [[], []])
    assert rep.passed, [ch.to_json() for ch in rep.checks]


def test_cell_consistency_detects_mismatch(a2):
    idx = next(i for i, c in enumerate(a2.cells.two_sided_cells) if len(c) == 4)
    rep = cell_consistency(a2.cells, a2.inv, idx, 1, [[], []])  # wrong rank
    assert not rep.passed


def test_each_orbit_is_based_at_its_least_point():
    # the points come in increasing order, so the first one not yet reached
    # is its orbit's least point, and the orbits come by increasing base
    sets = [gs for _, gs in standard_pairs()] + [GammaSet.from_subgroups(3, [[1, 2, 4]] * 4)]
    for gs in sets:
        n = gs.size
        kr = KRing(gs)
        for orbits, act in ((kr.x_orbits, gs.act), (kr.pair_orbits, (
                lambda g, p: gs.act(g, p // n) * n + gs.act(g, p % n)))):
            bases = [o.base for o in orbits]
            assert all(o.base == min(o.points) for o in orbits)
            assert all(o.transporter[o.base] == 0 for o in orbits)
            assert all(act(g, o.base) == p for o in orbits for p, g in o.transporter.items())
            assert bases == sorted(set(bases))


def test_orbits_of_x_and_of_pairs():
    kr = KRing(GammaSet.trivial(2))
    assert len(kr.x_orbits) == 2 and len(kr.pair_orbits) == 4
    gs = GammaSet.from_subgroups(1, [[]])
    kr = KRing(gs)
    assert len(kr.pair_orbits) == 2
    assert all(o.stabilizer == (0,) for o in kr.pair_orbits)
    # single-orbit X: (x, y) and (y, x) always share an orbit
    for o in kr.pair_orbits:
        n = gs.size
        assert {(p % n) * n + (p // n) for p in o.points} == set(o.points)


@pytest.mark.parametrize("op", ["j_mult", "convolve", "circ"])
def test_zero_coefficient_in_a_sum_is_dropped(op, a2):
    # a zero input coefficient adds nothing, so no absent key is deleted
    kr = KRing(GammaSet.trivial(1))
    e = a2.sys.identity
    calls = {
        "j_mult": lambda: a2.cells.j_mult({e: 0}, {e: 1}),
        "convolve": lambda: kr.convolve({0: 0}, {0: 1}),
        "circ": lambda: kr.circ({0: 0}, {0: 1}),
    }
    assert calls[op]() == {}
