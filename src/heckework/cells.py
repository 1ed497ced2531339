"""Cells, the a-function, gamma-constants, distinguished involutions, and
the asymptotic ring J with its block decomposition.  Finite groups only.

The preorders are closed from the W-graph: each term c_z of c_s c_w
(`HeckeAlgebra.c_gen_mult`, Kazhdan-Lusztig 1979, (2.3a/b)) puts z <=_L w
and, T_w -> T_{w^-1} being an anti-automorphism, z^-1 <=_R w^-1.  As the c_s
generate H and c_s c_w is one of the c_x c_w, this closes to "c_z occurs
in some c_x c_w" with no generation theorem: z <= w when w is reachable
from z.  Edges are int-bitset rows on element ids, kept up (bit w of row z)
and down (bit z of row w); a cell is what its least member reaches both up
and down (Fleischer, Hendrickson and Pinar, 2000); each member's row of
<=_LR is its two-sided cell's up-reach, and cells come in enumeration order.

Only a, D and gamma assume theorems, Lusztig's P1, P4, P8 and P13 (CRM
Monograph Series 18, 14.2; finite W, equal parameters).  a(z) = max
deg_v h_{x,y,z} is the least Delta = l - 2 deg_u P_{e,-} on the left cell
of z (P1: a <= Delta; P4: a is constant there; P13: equality at one d),
and D is where it is met.  gamma(x, y, z), the coefficient of v^{a(z^-1)}
in h_{x,y,z^-1} (t_x t_y = sum_z gamma(x, y, z^-1) t_z), vanishes unless
x ~_L y^-1 (P8): the first gamma read walks column y of `HeckeAlgebra.c_left`
over that left cell alone, one memo per column.  A visited h_{x,y,z} of
degree above a(z) raises: the structure constants certify a.

J-ring elements are plain integer dicts {CoxeterElement: int}.
"""

from __future__ import annotations

from .coxeter import InfiniteGroupError, bits
from .hecke import bilinear


def _sorted(ws):
    return tuple(sorted(ws, key=lambda w: w.sort_key()))


def _reach(edges, i):
    """The int bitset of the ids reachable from i, i included, along edges
    given as int-bitset rows (bit j of edges[k]: an edge k -> j)."""
    seen = new = 1 << i
    while new:
        out = 0
        for j in bits(new):
            out |= edges[j]
        new = out & ~seen
        seen |= new
    return seen


class CellData:
    """Cell structure, a-function, gamma-table and J-ring of a finite system."""

    def __init__(self, algebra):
        system = algebra.system
        if not system.is_finite:
            raise InfiniteGroupError("cell theory here requires a finite group")
        self.algebra, self.system = algebra, system
        self.elements = system.elements()
        elts, kl, n = system._elts, algebra.kl, len(self.elements)
        inv = [w.inverse().id for w in elts]

        # the W-graph, kept up and down: each term z of c_s c_w is <=_L w, z^-1 <=_R w^-1
        l_up, l_down, lr_up, lr_down = ([0] * n for _ in range(4))
        for w in range(n):
            for s in range(system.rank):
                for z in algebra.c_gen_mult(s, {w: 1}):
                    l_up[z] |= 1 << w
                    l_down[w] |= 1 << z
                    for lo, hi in ((z, w), (inv[z], inv[w])):
                        lr_up[lo] |= 1 << hi
                        lr_down[hi] |= 1 << lo
        self.left_cells = self._classes(l_up, l_down)[0]
        self.two_sided_cells, self._leq_lr = self._classes(lr_up, lr_down)
        self._two_sided = {w: i for i, c in enumerate(self.two_sided_cells) for w in c}

        # a: the least Delta on each left cell (P1, P4); D: where it is met (P13)
        delta = {z: len(z.word) - 2 * kl.p(system.identity, z).degree() for z in self.elements}
        self.a = {}
        for c in self.left_cells:
            self.a.update(dict.fromkeys(c, min(map(delta.get, c))))
        self._dist = tuple(z for z in self.elements if delta[z] == self.a[z])
        self._gamma = None  # filled by the first gamma_table

    # -- preorders, cells and distinguished involutions --------------------------

    def leq_lr(self, z, w):
        """z <=_LR w, the two-sided preorder."""
        return bool(self._leq_lr[z.id] >> w.id & 1)

    def _classes(self, up, down):
        """The classes of the preorder closed from the edges up (reversed in
        down) in order of least member, and each id's row, its up-reach: in
        sort_key order, the first id not yet reached is the least of its class."""
        elts = self.system._elts
        rows, classes = [0] * len(up), []
        for w in self.elements:
            i = w.id
            if rows[i]:
                continue
            above = _reach(up, i)
            cls = bits(above & _reach(down, i))
            for j in cls:
                rows[j] = above
            classes.append(frozenset(elts[j] for j in cls))
        return tuple(classes), rows

    def two_sided_index(self, w):
        """The index of the two-sided cell of w in `two_sided_cells`."""
        return self._two_sided[w]

    def same_two_sided(self, x, y):
        return self._two_sided[x] == self._two_sided[y]

    def cell_order(self):
        """The sorted pairs [i, j] with two-sided cell i <=_LR cell j."""
        reps = [next(iter(c)).id for c in self.two_sided_cells]
        return [[i, j] for i, x in enumerate(reps) for j, y in enumerate(reps)
                if self._leq_lr[x] >> y & 1]

    def star_stable_left_cells(self):
        """(lambda, lambda n lambda^-1, lambda n D) for every left cell lambda
        with lambda* = lambda, D the distinguished involutions."""
        dist = set(self.distinguished_involutions())
        for lam in self.left_cells:
            if frozenset(w.star() for w in lam) == lam:
                yield lam, frozenset(w for w in lam if w.inverse() in lam), lam & dist

    def distinguished_involutions(self):
        """{z : a(z) = l(z) - 2 deg_u P_{e,z}}, one per left cell (P13)."""
        return self._dist

    # -- the ring J ----------------------------------------------------------------

    def gamma_table(self):
        """{(x, y): {z: gamma(x, y, z^-1)}} over the nonzero rows, keyed in
        (x, y) enumeration order with each row in z order: gamma(x, y, z^-1)
        is the coefficient of v^{a(z)} in h_{x,y,z}, and of t_z in t_x t_y.
        The first call fills it by the gamma walk; it is the table itself,
        to be read only."""
        if self._gamma is None:
            # column w over the x ~_L w^-1 alone (P8), each h_{x,w,z} checked against a(z)
            algebra, elts, els = self.algebra, self.system._elts, self.elements
            a = [self.a[z] for z in elts]
            pos = {z.id: k for k, z in enumerate(els)}  # id -> enumeration position
            rows = [[] for _ in elts]  # id x -> [(pos[w], row (x, w))]
            for c in self.left_cells:
                ids = sorted(i.id for i in c)
                for w in (elts[i].inverse().id for i in ids):
                    col = {}  # the memo of column w, dropped once read
                    for i in ids:
                        top = []  # (pos[z], coefficient at v^{a(z)})
                        for z, h in algebra.c_left(i, w, algebra.c_gen_mult, col).items():
                            d = h.degree()
                            if d > a[z]:
                                raise AssertionError(
                                    "deg h_{x,w,z} = %d > a(z) = %d at (%s, %s, %s)"
                                    % (d, a[z], elts[i], elts[w], elts[z]))
                            if d == a[z]:
                                top.append((pos[z], h.coeff_of_v(d)))
                        if top:
                            rows[i].append((pos[w], {els[k]: g for k, g in sorted(top)}))
            self._gamma = {(x, els[k]): row for x in els for k, row in sorted(rows[x.id])}
        return self._gamma

    def gamma_row(self, x, y):
        """Row (x, y) of `gamma_table`, {} if it is zero: read it only."""
        return self.gamma_table().get((x, y), {})

    def j_mult(self, ja, jb):
        """Product in J of two integer dicts: t_x t_y = sum gamma(x,y,z^-1) t_z."""
        return bilinear(ja, jb, self.gamma_row)

    def j_unit(self):
        return {d: 1 for d in self.distinguished_involutions()}

    def j_blocks(self):
        """Two-sided blocks J_c and the subrings attached to *-stable left cells.

        Returns (cell_blocks, left_blocks): each cell block is a dict with the
        cell, its basis, its unit 1_c; each left block carries the left cell
        lambda, the basis of J_{lambda n lambda^-1}, and its unit t_d.
        """
        dist = set(self.distinguished_involutions())
        cell_blocks = [
            {"cell": c, "basis": _sorted(c), "unit": dict.fromkeys(_sorted(c & dist), 1)}
            for c in self.two_sided_cells
        ]
        left_blocks = []
        for lam, inter, found in self.star_stable_left_cells():
            if len(found) != 1:
                raise AssertionError(
                    "left cell %s holds the distinguished involutions %s, not one"
                    % (sorted(map(str, lam)), sorted(map(str, found))))
            left_blocks.append(
                {"left_cell": lam, "basis": _sorted(inter), "unit": dict.fromkeys(found, 1)})
        return cell_blocks, left_blocks
