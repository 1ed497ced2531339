import itertools
import random

import pytest

from heckework import CoxeterSystem, InfiniteGroupError
from heckework.cells import CellData, _reach
from heckework.hecke import HeckeAlgebra
from oracles import closure, kottwitz_fault, perm_of_word, rsk


def gamma(cd, x, y, z):
    """gamma_{x,y,z}, read from h_{x,y,z^-1} at v^{a(z^-1)}."""
    zi = z.inverse()
    h = cd.algebra.h_struct(x, y).get(zi)
    return h.coeff_of_v(cd.a[zi]) if h is not None else 0


@pytest.mark.parametrize("n", [1, 2, 5, 33, 64, 65, 130])
def test_closure_is_reachability(n):
    # the reach from every vertex against the bitset Warshall closure and a
    # search, on seeded random relations from empty through sparse chains to dense
    rng = random.Random(n)
    for density in (0.0, 1 / n, 3 / n, 0.3):
        succ = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        edges = [sum(1 << j for j in out) for out in succ]
        rows = closure(list(edges))
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                for j in succ[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert rows[i] == sum(1 << j for j in seen), (n, density, i)
            assert _reach(edges, i) == rows[i], (n, density, i)


def cell_strs(cells):
    return [frozenset(str(w) for w in c) for c in cells]


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5"])
def test_type_a_cells_and_a_are_the_robinson_schensted_classes(label):
    # Robinson-Schensted needs no Hecke algebra: left cells are the classes
    # of the recording tableau, two-sided cells those of the shape, and a is
    # sum i * lambda_i (the convention of `oracles.rsk`)
    cd = CellData(HeckeAlgebra(CoxeterSystem.from_label(label)))
    n = cd.system.rank + 1
    tableaux = {w: rsk(perm_of_word(n, w.word)) for w in cd.elements}

    def classes(key):
        out = {}
        for w in cd.elements:
            out.setdefault(key(tableaux[w]), set()).add(w)
        return set(map(frozenset, out.values()))

    def shape(pq):
        return tuple(map(len, pq[0]))

    assert set(cd.left_cells) == classes(lambda pq: pq[1])
    assert set(cd.two_sided_cells) == classes(shape)
    bad = [str(w) for w in cd.elements
           if cd.a[w] != sum(i * k for i, k in enumerate(shape(tableaux[w])))]
    assert not bad, bad[:3]


def test_a1_cells(a1):
    assert cell_strs(a1.cells.two_sided_cells) == [
        frozenset({"e"}),
        frozenset({"1"}),
    ]


def test_a2_cells(a2):
    assert cell_strs(a2.cells.two_sided_cells) == [
        frozenset({"e"}),
        frozenset({"1", "2", "12", "21"}),
        frozenset({"121"}),
    ]
    assert set(cell_strs(a2.cells.left_cells)) == {
        frozenset({"e"}),
        frozenset({"1", "21"}),
        frozenset({"2", "12"}),
        frozenset({"121"}),
    }


def test_b2_cells(b2):
    two = b2.cells.two_sided_cells
    sizes = sorted(len(c) for c in two)
    assert sizes == [1, 1, 6]


def test_left_cells_refine_two_sided(a3, b2, g2):
    for ctx in (a3, b2, g2):
        for lam in ctx.cells.left_cells:
            indices = {ctx.cells.two_sided_index(w) for w in lam}
            assert len(indices) == 1


def test_cells_partition_group(a3):
    union = set()
    for c in a3.cells.two_sided_cells:
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
        for c in ctx.cells.two_sided_cells:
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
        for x in ctx.cells.elements:
            for y in ctx.cells.elements:
                for z in ctx.alg.h_struct(x, y):
                    assert ctx.cells.leq_lr(z, x)
                    assert ctx.cells.leq_lr(z, y)


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


def _cell_data_by_str(cd):
    """Everything CellData publishes, with each element as its string."""
    els = cd.elements
    return {
        "left": [sorted(map(str, c)) for c in cd.left_cells],
        "two_sided": [sorted(map(str, c)) for c in cd.two_sided_cells],
        "order": cd.cell_order(),
        "a": [(str(z), cd.a[z]) for z in els],
        "gamma": [(str(x), str(y), [(str(z), g) for z, g in row.items()])
                  for (x, y), row in cd.gamma_table().items()],
        "dist": [str(d) for d in cd.distinguished_involutions()],
    }


@pytest.mark.parametrize("label, first, column", [("A3", "321", "32123"),
                                                   ("B3", "321", "32132")])
def test_cell_data_does_not_depend_on_interning_order(label, first, column):
    # elements met before the enumeration take the low ids, so ids and
    # enumeration positions differ; the walk runs on ids, and every output
    # must still come out in enumeration order
    system = CoxeterSystem.from_label(label)
    alg = HeckeAlgebra(system)
    system.element(first)
    alg.kl.column(system.element(column))
    cd = CellData(alg)
    els = cd.elements
    assert sorted(w.id for w in els) == list(range(len(els)))
    assert any(w.id != i for i, w in enumerate(els))
    fresh = CellData(HeckeAlgebra(CoxeterSystem.from_label(label)))
    assert all(w.id == i for i, w in enumerate(fresh.elements))
    assert _cell_data_by_str(cd) == _cell_data_by_str(fresh)
    # the gamma table is keyed in (x, y) enumeration order, each row in z order
    pos = {w: i for i, w in enumerate(els)}
    keys = [(pos[x], pos[y]) for x, y in cd.gamma_table()]
    assert keys == sorted(keys)
    assert all(list(map(pos.get, row)) == sorted(map(pos.get, row))
               for row in cd.gamma_table().values())


@pytest.mark.parametrize("label", ["A3", "B3", "I2(5)", "D4"])
def test_gamma_row_is_the_top_coefficient_of_h_struct(label):
    # the whole table of structure constants against the W-graph, Delta and
    # one left cell per column: the preorders close the supports of c_x c_y
    # (z <=_L y, z <=_R x), a(z) is the largest degree of h_{x,y,z}, D is
    # where a meets Delta, and every gamma row is the nonzero coefficients
    # of v^{a(z)} in h_{x,y,z}
    system = (CoxeterSystem([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
              if label == "D4" else CoxeterSystem.from_label(label))
    alg = HeckeAlgebra(system)
    cd = CellData(alg)
    leq_l, leq_lr, a = [0] * len(cd.elements), [0] * len(cd.elements), {}
    bad = []
    for x in cd.elements:
        for y in cd.elements:
            hxy = alg.h_struct(x, y)
            for z, h in hxy.items():
                leq_l[z.id] |= 1 << y.id
                leq_lr[z.id] |= 1 << y.id | 1 << x.id
                a[z] = max(h.degree(), a.get(z, h.degree()))
            top = {z: h.coeff_of_v(cd.a[z]) for z, h in hxy.items()}
            if cd.gamma_row(x, y) != {z: g for z, g in top.items() if g}:
                bad.append((str(x), str(y)))
    assert not bad, (label, len(bad), bad[:3])
    leq_l, leq_lr = closure(leq_l), closure(leq_lr)
    assert set(cd.left_cells) == {
        frozenset(y for y in cd.elements if leq_l[x.id] >> y.id & 1 and leq_l[y.id] >> x.id & 1)
        for x in cd.elements}
    assert leq_lr == [sum(1 << y.id for y in cd.elements if cd.leq_lr(x, y))
                      for x in system._elts]
    assert cd.a == a
    e = system.identity
    assert set(cd.distinguished_involutions()) == {
        z for z in cd.elements if a[z] == len(z.word) - 2 * alg.kl.p(e, z).degree()}


def test_gamma_same_cell(a2, a3, b2):
    for ctx in (a2, a3, b2):
        cd = ctx.cells
        for x in cd.elements:
            for y in cd.elements:
                for z in cd.elements:
                    if gamma(cd, x, y, z):
                        assert cd.same_two_sided(x, y)
                        assert cd.same_two_sided(y, z)


def test_gamma_with_distinguished(a2, a3, b2):
    # gamma(x, x^-1, d) = 1 for d the distinguished involution of the left
    # cell of x^-1; and gamma(x, y, d) != 0 with d distinguished forces y = x^-1
    for ctx in (a2, a3, b2):
        cd = ctx.cells
        dist = set(cd.distinguished_involutions())
        for x in cd.elements:
            lam = next(c for c in cd.left_cells if x.inverse() in c)
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
        for lam in ctx.cells.left_cells:
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
                if not cd.same_two_sided(x, y):
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
    assert len(cd.two_sided_cells) == 3
    assert calls == []


def test_two_sided_index_lookup(b2):
    for i, c in enumerate(b2.cells.two_sided_cells):
        for w in c:
            assert b2.cells.two_sided_index(w) == i
    outside = CoxeterSystem.from_label("A2").element("12")
    with pytest.raises(KeyError):
        b2.cells.two_sided_index(outside)


_D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
_B4 = [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]


@pytest.mark.parametrize("label, stars", [
    ("A2", []), ("A3", ["321"]), ("A4", ["4321"]), ("B2", []), ("B3", []), ("B4", []),
    ("D4", ["1243", "4231"]), ("G2", []), ("I2(5)", []),
], ids=["A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "I2(5)"])
def test_kottwitz_identity_holds_on_every_left_cell(label, stars):
    # |W| #(L n I_*) = sum_w chi_L(w) #{x : x x* = w} on every left cell L,
    # with the identity star and with each diagram star given (w -> w0 w w0
    # on A3 and A4, the two branch swaps fixing one leg of D4); the cells do
    # not depend on the star, so one CellData serves every star
    matrix = {"B4": _B4, "D4": _D4}.get(label)
    system = CoxeterSystem(matrix) if matrix else CoxeterSystem.from_label(label)
    cells = CellData(HeckeAlgebra(system))
    assert kottwitz_fault(cells) is None
    for star in stars:
        perm = CoxeterSystem(system.matrix, star=[int(ch) - 1 for ch in star]).star_perm
        assert kottwitz_fault(cells, perm) is None, star


def test_kottwitz_fault_names_a_cell_with_a_member_moved_out():
    # B3: the least member of the first left cell of two or more elements
    # moved into another left cell of its two-sided cell; both cells now
    # fail, and the oracle names the first with both sides of the identity
    cells = CellData(HeckeAlgebra(CoxeterSystem.from_label("B3")))
    lcs = list(cells.left_cells)
    a = next(i for i, c in enumerate(lcs) if len(c) > 1)
    m = min(lcs[a], key=lambda w: w.sort_key())
    b = next(i for i, c in enumerate(lcs) if i != a and cells.same_two_sided(m, next(iter(c))))
    lcs[a], lcs[b] = lcs[a] - {m}, lcs[b] | {m}
    cells.left_cells = tuple(lcs)
    words, lhs, rhs = kottwitz_fault(cells)
    assert words == sorted(str(w) for w in lcs[min(a, b)]) and lhs != rhs
