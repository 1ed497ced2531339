"""Cells, the a-function, gamma-constants, distinguished involutions, and
the asymptotic ring J with its block decomposition.  Finite groups only.

The preorders are generated directly from canonical-basis multiplication:
z <=_L w whenever c_z occurs in some c_x c_w (and symmetrically on the
right), then closed transitively.  No generation theorem is assumed; the
full structure-constant table comes from the generator recursion of
`HeckeAlgebra.h_struct` and doubles as the data source for the a-function
and the gamma-table.  Each preorder is a list of int-bitset rows, one per
element in enumeration order (bit j of row i: element i is below element
j), closed by Warshall's algorithm (J. ACM 9, 1962).

Conventions (all read off the v-variable structure constants h_{x,y,z}):

- a(z) = max over (x, y) of deg_v h_{x,y,z};
- gamma(x, y, z) = coefficient of v^{a(z^-1)} in h_{x,y,z^-1}, so that
  t_x t_y = sum_z gamma(x, y, z^-1) t_z;
- distinguished involutions are the z with a(z) = l(z) - 2 deg_u P_{e,z}.

J-ring elements are plain integer dicts {CoxeterElement: int}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import InfiniteGroupError, bits
from .hecke import add_into


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


@dataclass
class CellPartition:
    """Left and two-sided cells plus the partial order on two-sided cells."""

    left_cells: tuple
    two_sided_cells: tuple
    order_pairs: frozenset  # (i, j) with cell_i preceq cell_j

    _two_sided: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._two_sided = {w: i for i, c in enumerate(self.two_sided_cells) for w in c}

    def two_sided_index(self, w):
        return self._two_sided[w]

    def same_two_sided(self, x, y):
        return self.two_sided_index(x) == self.two_sided_index(y)

    def preceq(self, x, y):
        """x preceq y for elements, via the two-sided cell order."""
        return (self.two_sided_index(x), self.two_sided_index(y)) in self.order_pairs


class CellData:
    """Cell structure, a-function, gamma-table and J-ring of a finite system."""

    def __init__(self, algebra):
        system = algebra.system
        if system.is_finite is False:
            raise InfiniteGroupError("cell theory here requires a finite group")
        self.algebra = algebra
        self.system = system
        self.elements = system.elements()
        index = self._index = {w: i for i, w in enumerate(self.elements)}

        leq_l = [0] * len(self.elements)
        leq_lr = [0] * len(self.elements)
        for x in self.elements:
            bx = 1 << index[x]
            for w in self.elements:
                bw = 1 << index[w]
                for z in algebra.h_struct(x, w):
                    # c_z occurs in c_x c_w: z <=_L w; and z <=_R x
                    leq_l[index[z]] |= bw
                    leq_lr[index[z]] |= bw | bx
        self._leq_l = _closure(leq_l)
        self._leq_lr = _closure(leq_lr)

        self.partition = self._build_partition()
        self.a = self._a_function()
        self._dist = None

    # -- preorders and cells -------------------------------------------------

    def leq_lr(self, z, w):
        return bool(self._leq_lr[self._index[z]] >> self._index[w] & 1)

    def _classes(self, leq):
        """The equivalence classes of a closed preorder, by least member."""
        seen = 0
        classes = []
        for i, row in enumerate(leq):
            if seen >> i & 1:
                continue
            cls = [j for j in bits(row) if leq[j] >> i & 1]
            for j in cls:
                seen |= 1 << j
            classes.append(frozenset(self.elements[j] for j in cls))
        return classes

    def _build_partition(self):
        left = self._classes(self._leq_l)
        two = self._classes(self._leq_lr)

        def keyof(c):
            return min(w.sort_key() for w in c)

        left.sort(key=keyof)
        two.sort(key=keyof)
        order = set()
        for i, ci in enumerate(two):
            wi = next(iter(ci))
            for j, cj in enumerate(two):
                wj = next(iter(cj))
                if self.leq_lr(wi, wj):
                    order.add((i, j))
        return CellPartition(tuple(left), tuple(two), frozenset(order))

    # -- a-function, gamma, distinguished involutions ---------------------------

    def _a_function(self):
        a = {z: 0 for z in self.elements}
        for x in self.elements:
            for y in self.elements:
                for z, h in self.algebra.h_struct(x, y).items():
                    d = h.degree()
                    if d is not None and d > a[z]:
                        a[z] = d
        return a

    def distinguished_involutions(self):
        """{z : a(z) = l(z) - 2 deg_u P_{e,z}}, one per left cell."""
        if self._dist is None:
            e = self.system.identity
            out = []
            for z in self.elements:
                p = self.algebra.kl.p(e, z)
                if p.is_zero():
                    continue
                if self.a[z] == len(z.word) - 2 * p.degree():
                    out.append(z)
            self._dist = tuple(out)
        return self._dist

    # -- the ring J ----------------------------------------------------------------

    def j_mult(self, ja, jb):
        """Product in J of two integer dicts: t_x t_y = sum gamma(x,y,z^-1) t_z."""
        out = {}
        for x, cx in ja.items():
            for y, cy in jb.items():
                c = cx * cy
                for z, h in self.algebra.h_struct(x, y).items():
                    # coefficient of t_z is gamma(x, y, z^-1), the top
                    # coefficient of h_{x,y,z} at v^{a(z)}
                    add_into(out, z, c * h.coeff_of_v(self.a[z]))
        return out

    def j_unit(self):
        return {d: 1 for d in self.distinguished_involutions()}

    def j_blocks(self):
        """Two-sided blocks J_c and the subrings attached to *-stable left cells.

        Returns (cell_blocks, left_blocks): each cell block is a dict with the
        cell, its basis, its unit 1_c; each left block carries the left cell
        lambda, the basis of J_{lambda n lambda^-1}, and its unit t_d.
        """
        dist = set(self.distinguished_involutions())
        cell_blocks = []
        for c in self.partition.two_sided_cells:
            unit = {d: 1 for d in sorted(c & dist, key=lambda w: w.sort_key())}
            cell_blocks.append(
                {
                    "cell": c,
                    "basis": tuple(sorted(c, key=lambda w: w.sort_key())),
                    "unit": unit,
                }
            )
        left_blocks = []
        for lam in self.partition.left_cells:
            lam_star = frozenset(w.star() for w in lam)
            if lam_star != lam:
                continue
            lam_inv = frozenset(w.inverse() for w in lam)
            inter = lam & lam_inv
            (d,) = tuple(lam & dist)
            left_blocks.append(
                {
                    "left_cell": lam,
                    "basis": tuple(sorted(inter, key=lambda w: w.sort_key())),
                    "unit": {d: 1},
                }
            )
        return cell_blocks, left_blocks
