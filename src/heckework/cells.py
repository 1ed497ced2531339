"""Cells, the a-function, gamma-constants, distinguished involutions, and
the asymptotic ring J with its block decomposition.  Finite groups only.

The preorders are generated directly from canonical-basis multiplication:
z <=_L w whenever c_z occurs in some c_x c_w (and symmetrically on the
right), then closed transitively.  No generation theorem is assumed.  The
structure constants are read once, one column c_x c_w (all x, one w) of
the generator recursion `HeckeAlgebra.c_left` at a time, each column
dropped once read.  That pass sets the preorder bits and a(z) and keeps the
integer gammas, the top coefficients of the h_{x,y,z} whose degree is the
running a(z), so no polynomial table outlives it.  The walk runs on the
system's element ids, which on a finite system that has interned all of W
are exactly 0..|W|-1.  Each preorder is a list of int-bitset rows indexed
by id (bit j of row i: element i is below element j), closed by Warshall's
algorithm (J. ACM 9, 1962).  The two closed preorders are the only copy of
the cell structure: the cells, their order and the *-stable left cells are
read off them, each in enumeration order whatever the ids.

Conventions (all read off the v-variable structure constants h_{x,y,z}):

- a(z) = max over (x, y) of deg_v h_{x,y,z};
- gamma(x, y, z) = coefficient of v^{a(z^-1)} in h_{x,y,z^-1}, so that
  t_x t_y = sum_z gamma(x, y, z^-1) t_z;
- distinguished involutions are the z with a(z) = l(z) - 2 deg_u P_{e,z}.

J-ring elements are plain integer dicts {CoxeterElement: int}.
"""

from __future__ import annotations

from .coxeter import InfiniteGroupError, bits
from .hecke import bilinear


def _sorted(ws):
    return tuple(sorted(ws, key=lambda w: w.sort_key()))


def _closure(rows):
    """Reflexive-transitive closure of a relation given by int-bitset rows
    (bit j of rows[i] set when i relates to j), in place: Warshall's
    algorithm, one row union per pair (i, k) with k in row i."""
    for i in range(len(rows)):
        rows[i] |= 1 << i
    for k, row_k in enumerate(rows):
        for i, row_i in enumerate(rows):
            if row_i >> k & 1:
                rows[i] = row_i | row_k
    return rows


class CellData:
    """Cell structure, a-function, gamma-table and J-ring of a finite system."""

    def __init__(self, algebra):
        system = algebra.system
        if not system.is_finite:
            raise InfiniteGroupError("cell theory here requires a finite group")
        self.algebra = algebra
        self.system = system
        self.elements = system.elements()
        elts, ids = system._elts, [w.id for w in self.elements]

        # rows, a(z) and the top lists by id, walked in enumeration order
        leq_l = [0] * len(ids)
        leq_lr = [0] * len(ids)
        a = [0] * len(ids)
        top = [[] for _ in ids]  # (x, w, coefficient) at v^{a(z)}
        for w in ids:
            bw = 1 << w
            col = {}  # the column c_x c_w over x, dropped once read
            for x in ids:
                bx = 1 << x
                for z, h in algebra.c_left(x, w, algebra.c_gen_mult, col).items():
                    # c_z occurs in c_x c_w: z <=_L w; and z <=_R x
                    leq_l[z] |= bw
                    leq_lr[z] |= bw | bx
                    d = h.degree()
                    if d > a[z]:
                        a[z], top[z] = d, []
                    if d == a[z]:
                        top[z].append((x, w, h.coeff_of_v(d)))
        self.a = {z: a[z.id] for z in self.elements}
        self._gamma = {}
        for z in self.elements:
            for x, w, g in top[z.id]:
                self._gamma.setdefault((elts[x], elts[w]), {})[z] = g
        self._leq_l = _closure(leq_l)
        self._leq_lr = _closure(leq_lr)

        self.left_cells = self._classes(self._leq_l)
        self.two_sided_cells = self._classes(self._leq_lr)
        self._two_sided = {w: i for i, c in enumerate(self.two_sided_cells) for w in c}
        self._dist = None

    # -- preorders and cells -------------------------------------------------

    def leq_lr(self, z, w):
        """z <=_LR w, the two-sided preorder."""
        return bool(self._leq_lr[z.id] >> w.id & 1)

    def _classes(self, leq):
        """The equivalence classes of a closed preorder on ids, in order of
        least member: the enumeration order is the sort_key order, so the
        first element not yet seen is the least member of its class."""
        elts = self.system._elts
        seen = 0
        classes = []
        for w in self.elements:
            i = w.id
            if seen >> i & 1:
                continue
            cls = [j for j in bits(leq[i]) if leq[j] >> i & 1]
            for j in cls:
                seen |= 1 << j
            classes.append(frozenset(elts[j] for j in cls))
        return tuple(classes)

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

    # -- a-function, gamma, distinguished involutions ---------------------------

    def distinguished_involutions(self):
        """{z : a(z) = l(z) - 2 deg_u P_{e,z}}, one per left cell."""
        if self._dist is None:
            e, kl = self.system.identity, self.algebra.kl
            self._dist = tuple(z for z in self.elements
                               if self.a[z] == len(z.word) - 2 * kl.p(e, z).degree())
        return self._dist

    # -- the ring J ----------------------------------------------------------------

    def gamma_row(self, x, y):
        """{z: gamma(x, y, z^-1)} over the nonzero values: the coefficient of
        v^{a(z)} in h_{x,y,z}, which is the coefficient of t_z in t_x t_y.
        The row is the table's own dict, not a copy: read it only."""
        return self._gamma.get((x, y), {})

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
