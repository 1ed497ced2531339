"""Isomorphic inputs give identical tables.  Each system is built from its
Coxeter matrix and again with its generators relabelled by a permutation
pi, and the two builds must agree on every table under w -> pi(w), the word
of w with each letter k read as pi(k).  A walk that leaked generator order,
through a first letter, `sort_key` or the order it fills a table in, would
make the two builds disagree.  Each pi changes the matrix; a star * is
carried along as pi * pi^-1.
"""

import pytest

from heckework import CoxeterSystem
from heckework.cells import CellData
from heckework.hecke import HeckeAlgebra
from heckework.idealmod import IdealModel
from heckework.invmod import InvolutionModule

A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
A4 = [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]

# (matrix, pi, star); A3's star is w -> w0 w w0
CASES = {
    "B3": (B3, (2, 0, 1), None),
    "A4": (A4, (1, 3, 0, 2), None),
    "D4": (D4, (2, 3, 0, 1), None),
    "A3-star": (A3, (1, 0, 2), (2, 1, 0)),
}


def relabelled(matrix, pi, star):
    """The matrix and star of the same system with generator k named pi(k)."""
    n = len(matrix)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = matrix[i][j]
    if star is not None:
        back = {p: k for k, p in enumerate(pi)}
        star = tuple(pi[star[back[k]]] for k in range(n))
    return out, star


def build(matrix, star):
    """(system, KL table, cells, involution module, ideal model)."""
    system = CoxeterSystem(matrix, star=star)
    alg = HeckeAlgebra(system)
    inv = InvolutionModule(alg)
    return system, alg.kl, CellData(alg), inv, IdealModel(inv)


@pytest.fixture(scope="module", params=list(CASES), ids=list(CASES))
def pair(request):
    """(phi, build of the matrix, build of the relabelled matrix)."""
    matrix, pi, star = CASES[request.param]
    other, other_star = relabelled(matrix, pi, star)
    assert other != matrix
    one, two = build(matrix, star), build(other, other_star)
    phi = {w: two[0].element(tuple(pi[k] for k in w.word)) for w in one[0].elements()}
    return phi, one, two


def mapped(phi, table):
    """A {key: {element: value}} table with every element sent through phi;
    a key is an element or a tuple of them."""
    def key(k):
        return tuple(map(phi.get, k)) if isinstance(k, tuple) else phi[k]
    return {key(k): {phi[z]: c for z, c in row.items()} for k, row in table.items()}


def test_the_map_is_a_bijection_that_keeps_the_star(pair):
    phi, (sys1, *_, inv1, _), (sys2, *_, inv2, _) = pair
    assert sorted(phi.values(), key=lambda w: w.sort_key()) == sys2.elements()
    for w, pw in phi.items():
        assert len(pw.word) == len(w.word)
        assert phi[sys1.star_elt(w)] == sys2.star_elt(pw)
    assert {phi[w] for w in inv1.basis} == set(inv2.basis)


def test_kl_polynomials_and_mu_lists(pair):
    phi, (sys1, kl1, *_), (sys2, kl2, *_) = pair
    for w, pw in phi.items():
        below = sys1.lower_interval(w)
        assert {phi[y] for y in below} == set(sys2.lower_interval(pw))
        for y in below:
            assert kl1.p(y, w) == kl2.p(phi[y], pw), (str(y), str(w))
        mu1 = {(phi[sys1._elts[z]], lz, m) for z, lz, m in kl1._mu_list(w.id)}
        assert mu1 == {(sys2._elts[z], lz, m) for z, lz, m in kl2._mu_list(pw.id)}, str(w)


def test_cells_a_and_distinguished_involutions(pair):
    phi, (_, _, cells1, *_), (_, _, cells2, *_) = pair

    def cells(cs):
        return {frozenset(map(phi.get, c)) for c in cs}

    assert cells(cells1.left_cells) == set(cells2.left_cells)
    assert cells(cells1.two_sided_cells) == set(cells2.two_sided_cells)
    assert {phi[w]: a for w, a in cells1.a.items()} == cells2.a
    assert {phi[d] for d in cells1.distinguished_involutions()} == set(
        cells2.distinguished_involutions())


def test_gamma_table(pair):
    phi, (_, _, cells1, *_), (_, _, cells2, *_) = pair
    assert mapped(phi, cells1.gamma_table()) == cells2.gamma_table()


def test_beta_table(pair):
    phi, (*_, cells1, inv1, _), (*_, cells2, inv2, _) = pair
    assert mapped(phi, inv1._beta_walk(cells1)[1]) == inv2._beta_walk(cells2)[1]


def test_upper_canonical_basis(pair):
    phi, (*_, inv1, _), (*_, inv2, _) = pair
    assert mapped(phi, {w: inv1.a_upper(w) for w in inv1.basis}) == {
        w: inv2.a_upper(w) for w in inv2.basis}


def test_x_elements(pair):
    phi, (*_, ideal1), (*_, ideal2) = pair
    assert mapped(phi, ideal1.x_elements()) == ideal2.x_elements()
