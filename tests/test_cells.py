import itertools
import random

import pytest

from heckework import CoxeterSystem, InfiniteGroupError
from heckework.cells import CellData, _closure
from heckework.hecke import HeckeAlgebra


def gamma(cd, x, y, z):
    """gamma_{x,y,z}, read from h_{x,y,z^-1} at v^{a(z^-1)}."""
    zi = z.inverse()
    h = cd.algebra.h_struct(x, y).get(zi)
    return h.coeff_of_v(cd.a[zi]) if h is not None else 0


@pytest.mark.parametrize("n", [1, 2, 5, 33, 64, 65, 130])
def test_closure_is_reachability(n):
    # the bitset Warshall closure against a search from every vertex, on
    # seeded random relations from empty through sparse chains to dense
    rng = random.Random(n)
    for density in (0.0, 1 / n, 3 / n, 0.3):
        succ = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        rows = _closure([sum(1 << j for j in out) for out in succ])
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                for j in succ[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert rows[i] == sum(1 << j for j in seen), (n, density, i)


def cell_strs(cells):
    return [frozenset(str(w) for w in c) for c in cells]


def test_a1_cells(a1):
    assert cell_strs(a1.cells.partition.two_sided_cells) == [
        frozenset({"e"}),
        frozenset({"1"}),
    ]


def test_a2_cells(a2):
    assert cell_strs(a2.cells.partition.two_sided_cells) == [
        frozenset({"e"}),
        frozenset({"1", "2", "12", "21"}),
        frozenset({"121"}),
    ]
    assert set(cell_strs(a2.cells.partition.left_cells)) == {
        frozenset({"e"}),
        frozenset({"1", "21"}),
        frozenset({"2", "12"}),
        frozenset({"121"}),
    }


def test_b2_cells(b2):
    two = b2.cells.partition.two_sided_cells
    sizes = sorted(len(c) for c in two)
    assert sizes == [1, 1, 6]


def test_left_cells_refine_two_sided(a3, b2, g2):
    for ctx in (a3, b2, g2):
        part = ctx.cells.partition
        for lam in part.left_cells:
            indices = {part.two_sided_index(w) for w in lam}
            assert len(indices) == 1


def test_cells_partition_group(a3):
    part = a3.cells.partition
    union = set()
    for c in part.two_sided_cells:
        assert not (union & c)
        union |= c
    assert union == set(a3.sys.elements())


def test_a_values(a2, a3):
    assert a2.cells.a[a2.sys.identity] == 0
    assert a2.cells.a[a2.sys.element("1")] == 1
    assert a2.cells.a[a2.sys.element("121")] == 3
    assert a3.cells.a[a3.sys.element("121321")] == 6


def test_a_constant_on_cells(a2, a3, b2, g2):
    for ctx in (a2, a3, b2, g2):
        for c in ctx.cells.partition.two_sided_cells:
            assert len({ctx.cells.a[w] for w in c}) == 1


def test_a_monotone(a2, a3, b2):
    for ctx in (a2, a3, b2):
        for x in ctx.cells.elements:
            for y in ctx.cells.elements:
                if ctx.cells.leq_lr(x, y):
                    assert ctx.cells.a[x] >= ctx.cells.a[y]


def test_a_attained(a2, a3):
    # the maximum defining a(z) is attained: h_{x,y,z} has degree exactly a(z)
    # for some pair
    for ctx in (a2, a3):
        for z in ctx.cells.elements:
            degs = []
            for x in ctx.cells.elements:
                for y in ctx.cells.elements:
                    h = ctx.alg.h_struct(x, y).get(z)
                    if h is not None:
                        degs.append(h.degree())
            assert max(degs) == ctx.cells.a[z]


def test_h_support_constraint(a2, b2, a3):
    for ctx in (a2, b2, a3):
        part = ctx.cells.partition
        for x in ctx.cells.elements:
            for y in ctx.cells.elements:
                for z in ctx.alg.h_struct(x, y):
                    assert part.preceq(z, x)
                    assert part.preceq(z, y)


def test_h_degree_bounded_by_a(a2, a3):
    for ctx in (a2, a3):
        for x in ctx.cells.elements:
            for y in ctx.cells.elements:
                for z, h in ctx.alg.h_struct(x, y).items():
                    assert h.degree() <= ctx.cells.a[z]


def test_gamma_examples(a2):
    cd = a2.cells
    e = a2.sys.element
    expected = {
        ("e", "e", "e"): 1,
        ("1", "1", "1"): 1,
        ("1", "12", "21"): 1,
        ("2", "2", "2"): 1,
        ("2", "21", "12"): 1,
        ("12", "2", "21"): 1,
        ("12", "21", "1"): 1,
        ("21", "1", "12"): 1,
        ("21", "12", "2"): 1,
        ("121", "121", "121"): 1,
    }
    got = {}
    for x in cd.elements:
        for y in cd.elements:
            for z in cd.elements:
                g = gamma(cd, x, y, z)
                if g:
                    got[(str(x), str(y), str(z))] = g
    assert got == expected


def test_gamma_same_cell(a2, a3, b2):
    for ctx in (a2, a3, b2):
        cd = ctx.cells
        for x in cd.elements:
            for y in cd.elements:
                for z in cd.elements:
                    if gamma(cd, x, y, z):
                        assert cd.partition.same_two_sided(x, y)
                        assert cd.partition.same_two_sided(y, z)


def test_gamma_with_distinguished(a2, a3, b2):
    # gamma(x, x^-1, d) = 1 for d the distinguished involution of the left
    # cell of x^-1; and gamma(x, y, d) != 0 with d distinguished forces y = x^-1
    for ctx in (a2, a3, b2):
        cd = ctx.cells
        dist = set(cd.distinguished_involutions())
        for x in cd.elements:
            lam = next(c for c in cd.partition.left_cells if x.inverse() in c)
            (d,) = tuple(lam & dist)
            assert gamma(cd, x, x.inverse(), d) == 1
            for y in cd.elements:
                for dd in dist:
                    if gamma(cd, x, y, dd):
                        assert y == x.inverse()
                        assert gamma(cd, x, y, dd) == 1


def test_distinguished_involutions(a1, a2, a3, b2, g2):
    assert {str(d) for d in a1.cells.distinguished_involutions()} == {"e", "1"}
    assert {str(d) for d in a2.cells.distinguished_involutions()} == {
        "e",
        "1",
        "2",
        "121",
    }
    # in type A every involution is distinguished
    assert set(a3.cells.distinguished_involutions()) == set(a3.inv.basis)
    for ctx in (a1, a2, a3, b2, g2):
        dist = ctx.cells.distinguished_involutions()
        for lam in ctx.cells.partition.left_cells:
            assert sum(1 for d in dist if d in lam) == 1


def test_j_unit(a2, a3, b2, g2):
    for ctx in (a2, a3, b2, g2):
        cd = ctx.cells
        u = cd.j_unit()
        for w in cd.elements:
            assert cd.j_mult(u, {w: 1}) == {w: 1}
            assert cd.j_mult({w: 1}, u) == {w: 1}


def test_j_associativity_exhaustive_small(a1, a2, b2):
    for ctx in (a1, a2, b2):
        cd = ctx.cells
        for x, y, z in itertools.product(cd.elements, repeat=3):
            lhs = cd.j_mult(cd.j_mult({x: 1}, {y: 1}), {z: 1})
            rhs = cd.j_mult({x: 1}, cd.j_mult({y: 1}, {z: 1}))
            assert lhs == rhs


def test_j_associativity_random(a3, g2):
    for ctx in (a3, g2):
        cd = ctx.cells
        rng = random.Random(42)
        for _ in range(400):
            x, y, z = (rng.choice(cd.elements) for _ in range(3))
            lhs = cd.j_mult(cd.j_mult({x: 1}, {y: 1}), {z: 1})
            rhs = cd.j_mult({x: 1}, cd.j_mult({y: 1}, {z: 1}))
            assert lhs == rhs


def test_j_cross_cell_zero(a2, a3, b2):
    for ctx in (a2, a3, b2):
        cd = ctx.cells
        for x in cd.elements:
            for y in cd.elements:
                if not cd.partition.same_two_sided(x, y):
                    assert cd.j_mult({x: 1}, {y: 1}) == {}


def test_j_blocks_a2(a2):
    cell_blocks, left_blocks = a2.cells.j_blocks()
    mid = next(b for b in cell_blocks if len(b["basis"]) == 4)
    assert {str(w) for w in mid["unit"]} == {"1", "2"}
    lam = next(
        b for b in left_blocks if {str(w) for w in b["left_cell"]} == {"1", "21"}
    )
    assert [str(w) for w in lam["basis"]] == ["1"]
    assert {str(w) for w in lam["unit"]} == {"1"}
    # the unit of J is the sum of the block units
    total = {}
    for b in cell_blocks:
        total.update(b["unit"])
    assert total == a2.cells.j_unit()


def test_j_block_closure(a2, a3):
    for ctx in (a2, a3):
        cd = ctx.cells
        cell_blocks, left_blocks = cd.j_blocks()
        for b in cell_blocks:
            basis = set(b["basis"])
            for x in basis:
                for y in basis:
                    assert set(cd.j_mult({x: 1}, {y: 1})) <= basis
            for x in basis:
                assert cd.j_mult(b["unit"], {x: 1}) == {x: 1}
                assert cd.j_mult({x: 1}, b["unit"]) == {x: 1}
        for b in left_blocks:
            basis = set(b["basis"])
            for x in basis:
                for y in basis:
                    assert set(cd.j_mult({x: 1}, {y: 1})) <= basis
                assert cd.j_mult(b["unit"], {x: 1}) == {x: 1}
                assert cd.j_mult({x: 1}, b["unit"]) == {x: 1}


def test_infinite_rejected():
    dinf = CoxeterSystem.from_label("Dinf")
    alg = HeckeAlgebra(dinf)
    with pytest.raises(InfiniteGroupError):
        CellData(alg)


def test_cell_data_never_multiplies_in_the_t_basis(monkeypatch):
    calls = []
    original = HeckeAlgebra.mult

    def counting(self, h1, h2):
        calls.append(1)
        return original(self, h1, h2)

    monkeypatch.setattr(HeckeAlgebra, "mult", counting)
    cd = CellData(HeckeAlgebra(CoxeterSystem.from_label("B2")))
    assert len(cd.partition.two_sided_cells) == 3
    assert calls == []


def test_two_sided_index_lookup(b2):
    part = b2.cells.partition
    for i, c in enumerate(part.two_sided_cells):
        for w in c:
            assert part.two_sided_index(w) == i
    outside = CoxeterSystem.from_label("A2").element("12")
    with pytest.raises(KeyError):
        part.two_sided_index(outside)
