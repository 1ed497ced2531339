"""Equivariant vector bundles on a finite set squared, their convolution
ring, the signed quotient carrying the twisted module structure, and the
counting checks against cell data.

The acting group is an elementary abelian 2-group of rank r, realized as
bitmasks 0..2^r-1 under xor; every character is +-1-valued:
chi_phi(h) = (-1)^popcount(phi & h) for a dual bitmask phi.  Because the
group is abelian, all points of an orbit share one stabilizer and a
stabilizing element acts on every fiber of an indecomposable bundle by the
same character value.  Each character is one of all of Gamma, so the
transporter signs of both products cancel in closed form: one sign per
target orbit and stabilizer element times a count of points.  Isomorphism
tests compare stabilizer traces of explicitly materialized bundles.

Basis conventions:

- K(C_0) has basis (orbit of X x X, character of the orbit stabilizer);
  orbits are based at their lexicographically least point.  The diagonal is
  Gamma-stable, so an orbit is all diagonal or has no diagonal point.
- Kbar(C) has signed basis the sigma-self-dual pairs (orbit fixed by the
  swap (x,y) -> (y,x)); the sign of kappa is normalized to +1 at the base
  point.  Classes are integer dicts over basis indices.
- K(C_Gamma) has basis (g0, phi), the object at g0 with character phi.

`KRing` builds two tables once and reads them in place: `conv_table()`,
{(i, j): V_i * V_j} over the nonzero products, and `psi_of`, {(g0, phi):
Psi(Y)}.  `circ_basis` stays a per-pair memo, since the counting check
reads only its rows at Psi images.
"""

from __future__ import annotations

from .hecke import add_into, bilinear
from .report import Report, first_nonassociative


def char_value(phi, h):
    return -1 if (phi & h).bit_count() % 2 else 1


def _restriction(phi, stab):
    """The values of chi_phi on a subgroup: phi up to its annihilator."""
    return tuple(char_value(phi, h) for h in stab)


class GammaSet:
    """A finite set with an action of (Z/2)^r; action[g][x] is g . x."""

    def __init__(self, rank, size, action):
        self.rank = rank
        self.size = size
        self.action = action
        n_g = 1 << self.rank
        if len(self.action) != n_g:
            raise ValueError("action table needs %d rows" % n_g)
        for g in range(n_g):
            row = self.action[g]
            if sorted(row) != list(range(self.size)):
                raise ValueError("row %d is not a permutation" % g)
        for g in range(n_g):
            for h in range(n_g):
                for x in range(self.size):
                    if self.action[g][self.action[h][x]] != self.action[g ^ h][x]:
                        raise ValueError("action table violates the group law")

    @property
    def group(self):
        return range(1 << self.rank)

    def act(self, g, x):
        return self.action[g][x]

    @classmethod
    def from_subgroups(cls, rank, subgroup_generators):
        """Disjoint union of coset spaces Gamma/H, one per generator list."""
        n_g = 1 << rank
        points = []  # (part, frozenset coset)
        for part, gens in enumerate(subgroup_generators):
            h = _span(rank, gens)
            seen = set()
            for rep in range(n_g):
                coset = frozenset(rep ^ x for x in h)
                if coset not in seen:
                    seen.add(coset)
                    points.append((part, coset))
        index = {p: i for i, p in enumerate(points)}
        action = tuple(
            tuple(
                index[(part, frozenset(g ^ x for x in coset))]
                for (part, coset) in points
            )
            for g in range(n_g)
        )
        return cls(rank, len(points), action)

    @staticmethod
    def coset_count(rank, subgroup_generators):
        """The number of points of `from_subgroups`, without building it."""
        return sum((1 << rank) // len(_span(rank, gens)) for gens in subgroup_generators)

    @classmethod
    def trivial(cls, n):
        return cls(0, n, (tuple(range(n)),))

    @classmethod
    def from_config(cls, cfg):
        if "action" in cfg:
            return cls(cfg["rank"], cfg["points"],
                       tuple(tuple(r) for r in cfg["action"]))
        return cls.from_subgroups(cfg["rank"], cfg["subgroups"])


def _span(rank, gens):
    h = {0}
    for g in gens:
        h |= {g ^ x for x in h}
    return frozenset(h)


class Orbit:
    """An orbit's points, its base point, the transporter dict point -> g
    with g . base = point, and the sorted stabilizer subgroup of the base."""

    def __init__(self, points, base, transporter, stabilizer):
        self.points = points
        self.base = base
        self.transporter = transporter
        self.stabilizer = stabilizer


def _orbits(gs, points, act):
    """Orbit decomposition with base points, transporters and stabilizers.
    The points come in increasing order, so the first one not yet reached
    is the least of its orbit: its base, with transporter 0."""
    remaining = set(points)
    orbits = []
    for base in points:
        if base not in remaining:
            continue
        # the first g with g . base = p is the transporter of p
        trans = {}
        for g in gs.group:
            trans.setdefault(act(g, base), g)
        pts = sorted(trans)
        stab = tuple(g for g in gs.group if act(g, base) == base)
        orbits.append(Orbit(tuple(pts), base, trans, stab))
        remaining -= set(pts)
    return orbits


def characters_of(rank, stab):
    """Canonical dual bitmasks for the characters of a subgroup: the least
    phi in each coset modulo the annihilator of the subgroup."""
    seen = {}
    for phi in range(1 << rank):
        seen.setdefault(_restriction(phi, stab), phi)
    return sorted(seen.values())


class KRing:
    """The convolution ring of equivariant bundles on X x X, its signed
    quotient, and the central map Psi from the ring of conjugation-
    equivariant bundles on Gamma."""

    def __init__(self, gs):
        self.gs = gs
        n = gs.size
        # orbits of X and of X x X (diagonal action), point (x, y) as x n + y
        self.x_orbits = _orbits(gs, range(n), gs.act)
        self.pair_orbits = _orbits(
            gs, range(n * n), lambda g, p: gs.act(g, p // n) * n + gs.act(g, p % n))
        self._pair_orbit_of = {}
        for oi, o in enumerate(self.pair_orbits):
            for p in o.points:
                self._pair_orbit_of[p] = oi
        self.basis = []  # (orbit index, phi)
        self._chars = []  # per orbit: [(basis index, phi)]
        self._restrict = {}  # (orbit index, restriction of phi) -> basis index
        for oi, o in enumerate(self.pair_orbits):
            chars = []
            for phi in characters_of(gs.rank, o.stabilizer):
                self._restrict[oi, _restriction(phi, o.stabilizer)] = len(self.basis)
                chars.append((len(self.basis), phi))
                self.basis.append((oi, phi))
            self._chars.append(chars)
        swapped = [self._pair_orbit_of[self._sigma_point(o.base)] for o in self.pair_orbits]
        self._sigma_stable = [ot for ot, oj in enumerate(swapped) if oj == ot]
        # the sigma-twist of each basis element: orbit swapped, character
        # carried along (stabilizers agree since the group is abelian)
        self.sigma_of = [self._restricted(swapped[oi], phi) for oi, phi in self.basis]
        self.kbar = [i for i, j in enumerate(self.sigma_of) if i == j]  # self-dual
        # Psi(Y) for the basis object Y at g0 with character phi: the bundle
        # on the graph {(g0 y, y)}, one summand per orbit of X
        self.psi_of = {}
        for g0 in gs.group:
            graph = [self._pair_orbit_of[gs.act(g0, o.base) * n + o.base] for o in self.x_orbits]
            for phi in range(1 << gs.rank):
                out = self.psi_of[g0, phi] = {}
                for oi in graph:
                    add_into(out, self._restricted(oi, phi), 1)
        self._conv = None
        self._circ_memo = {}

    # -- generic helpers ------------------------------------------------------

    def _sigma_point(self, p):
        n = self.gs.size
        return (p % n) * n + (p // n)

    def _restricted(self, oi, phi):
        """Index of the basis element on orbit oi whose character agrees with
        phi on the orbit's stabilizer."""
        return self._restrict[oi, _restriction(phi, self.pair_orbits[oi].stabilizer)]

    def _multiplicities(self, ot, traces):
        """{basis index: multiplicity} of the characters of orbit ot's
        stabilizer in the virtual representation with these traces."""
        stab = self.pair_orbits[ot].stabilizer
        out = {}
        for i, phi in self._chars[ot]:
            m = sum(char_value(phi, h) * traces[h] for h in stab)
            if m % len(stab):
                raise AssertionError("non-integral multiplicity on orbit %d" % ot)
            m //= len(stab)
            if m:
                out[i] = m
        return out

    # -- the ring K(C_0) -----------------------------------------------------------

    def unit(self):
        """The class of the diagonal bundle."""
        out = {}
        for oi, o in enumerate(self.pair_orbits):
            if o.base // self.gs.size == o.base % self.gs.size:
                out[self._chars[oi][0][0]] = 1
        return out

    def convolve_basis(self, i, j):
        """V_i * V_j: on an orbit based at (x0, y0), the trace of h is chi_{phi_i + phi_j}(h)
        times #{z : (x0, z) in V_i's orbit, (z, y0) in V_j's, h z = z}."""
        (oi, phi_i) = self.basis[i]
        (oj, phi_j) = self.basis[j]
        n, act, orbit_of = self.gs.size, self.gs.action, self._pair_orbit_of
        out = {}
        for ot, o in enumerate(self.pair_orbits):
            x0, y0 = o.base // n, o.base % n
            zs = [z for z in range(n) if orbit_of[x0 * n + z] == oi and orbit_of[z * n + y0] == oj]
            if zs:
                traces = {h: char_value(phi_i ^ phi_j, h) * sum(act[h][z] == z for z in zs)
                          for h in o.stabilizer}
                out.update(self._multiplicities(ot, traces))
        return out

    def conv_table(self):
        """{(i, j): V_i * V_j} over the nonzero products, filled on first use
        by one `convolve_basis` call per pair."""
        if self._conv is None:
            nb = range(len(self.basis))
            self._conv = {(i, j): row for i in nb for j in nb if (row := self.convolve_basis(i, j))}
        return self._conv

    def convolve(self, a, b):
        conv = self.conv_table()
        return bilinear(a, b, lambda i, j: conv.get((i, j), {}))

    def sigma(self, a):
        out = {}
        for i, c in a.items():
            add_into(out, self.sigma_of[i], c)
        return out

    # -- the signed quotient Kbar(C), on the self-dual indices kbar --------------------

    def circ_basis(self, i, j):
        """Signed class of V_i . (U_j, kappa_j): the multiplicities n+ - n-
        of each self-dual indecomposable with its canonical kappa inside
        (V * U * V^sigma, kappa').

        Every character is one of all of Gamma, so the transporter signs
        cancel in closed form.  With T(p) the transporter from the base of
        p's orbit to p and b the base of U's, kappa_j(p) = chi(T(p))
        chi(T(sigma p)) chi(T(sigma b)), so kappa_j(b) = 1.  On a
        sigma-stable orbit with base (x0, y0), t = T(y0, x0) and h in its
        stabilizer, the twist A after tau_h fixes the fiber (z, z') only when
        z' = t h z; there (y0, z') = t h (x0, z) lies in V's orbit, V's four
        signs multiply to 1, and U's two with kappa_j leave chi_U(t h)
        chi_U(T(sigma b)), the same for every z.  So the trace of h is that
        sign times #{z : (x0, z) in V's orbit, (z, t h z) in U's}."""
        key = (i, j)
        got = self._circ_memo.get(key)
        if got is not None:
            return got
        if self.sigma_of[j] != j:
            raise ValueError("circ acts on the signed (self-dual) basis")
        ov = self.basis[i][0]
        (ou, phi_u) = self.basis[j]
        u = self.pair_orbits[ou]
        twist = char_value(phi_u, u.transporter[self._sigma_point(u.base)])
        n = self.gs.size
        orbit_of = self._pair_orbit_of
        out = {}
        for ot in self._sigma_stable:
            o = self.pair_orbits[ot]
            x0 = o.base // n
            t = o.transporter[self._sigma_point(o.base)]
            zs = [z for z in range(n) if orbit_of[x0 * n + z] == ov]
            traces = {}
            for h in o.stabilizer:
                th = self.gs.action[t ^ h]
                count = sum(1 for z in zs if orbit_of[z * n + th[z]] == ou)
                traces[h] = twist * char_value(phi_u, t ^ h) * count
            if any(traces.values()):
                out.update(self._multiplicities(ot, traces))
        self._circ_memo[key] = out
        return out

    def circ(self, v_class, signed_class):
        return bilinear(v_class, signed_class, self.circ_basis)

    # -- brute-force isomorphism oracle -----------------------------------------------

    def trace_signature(self, cls):
        """{(point, stabilizing g): trace} for a nonnegative class — a complete
        isomorphism invariant for equivariant bundles."""
        sig = {}
        for i, mult in cls.items():
            (oi, phi) = self.basis[i]
            for p in self.pair_orbits[oi].points:
                for g in self.gs.group:
                    if self.gs.act(g, p // self.gs.size) == p // self.gs.size and \
                       self.gs.act(g, p % self.gs.size) == p % self.gs.size:
                        add_into(sig, (p, g), mult * char_value(phi, g))
        return sig

    def selfdual_count_bruteforce(self):
        """Count self-dual indecomposables by comparing materialized trace
        signatures of V and V^sigma (independent of orbit bookkeeping)."""
        count = 0
        for i in range(len(self.basis)):
            sig = self.trace_signature({i: 1})
            sig_sigma = {
                (self._sigma_point(p), g): v for (p, g), v in sig.items()
            }
            if sig == sig_sigma:
                count += 1
        return count


# -- reports -------------------------------------------------------------------------


def count_check(kr, name):
    """Rank of Kbar(C) against |Gamma| x #orbits(X), the brute-force
    self-dual count, and the scalar action of every C_Gamma generator."""
    gs = kr.gs
    rep = Report("eqvb-count", name)
    rank = len(kr.kbar)
    expected = (1 << gs.rank) * len(kr.x_orbits)
    rep.add("rank-formula", rank == expected, {"rank": rank, "expected": expected})
    brute = kr.selfdual_count_bruteforce()
    rep.add("rank-bruteforce", brute == rank, {"brute": brute, "rank": rank})
    bad = next(({"g": g0, "phi": phi, "basis": j}
                for (g0, phi), v in kr.psi_of.items()
                for j in kr.kbar
                if kr.circ(v, {j: 1}) != {j: 1}), None)
    rep.add("scalar-action", bad is None, bad)
    return rep


def star_axioms_report(kr, name):
    """Exhaustive associativity/unit/sigma checks for the convolution ring."""
    rep = Report("eqvb-star", name)
    nb = range(len(kr.basis))
    one = kr.unit()
    bad = next((i for i in nb
                if kr.convolve(one, {i: 1}) != {i: 1} or kr.convolve({i: 1}, one) != {i: 1}),
               None)
    rep.add("unit", bad is None, bad)
    conv = kr.conv_table()
    bad = first_nonassociative(nb, nb, conv, conv)
    rep.add("associativity", bad is None, bad)
    bad = next((i for i in nb if kr.sigma({kr.sigma_of[i]: 1}) != {i: 1}), None)
    rep.add("sigma-involutive", bad is None, bad)
    bad = next(((i, j) for i in nb for j in nb if kr.sigma(conv.get((i, j), {}))
                != conv.get((kr.sigma_of[j], kr.sigma_of[i]), {})), None)
    rep.add("sigma-antiautomorphism", bad is None, bad)
    return rep


def circ_axioms_report(kr, name):
    """Module axioms of the circ action on the signed quotient, and
    centrality of the Psi image."""
    rep = Report("eqvb-circ", name)
    nb = range(len(kr.basis))
    one = kr.unit()
    bad = next((j for j in kr.kbar if kr.circ(one, {j: 1}) != {j: 1}), None)
    rep.add("unit-action", bad is None, bad)
    circ = {(i, j): row for i in nb for j in kr.kbar if (row := kr.circ_basis(i, j))}
    bad = first_nonassociative(nb, kr.kbar, kr.conv_table(), circ)
    rep.add("composition", bad is None, bad)
    # Theta(V) = (V + V^sigma, swap) dies in the quotient: the swap fixes no
    # line, so every trace of the twist is 0
    rep.add("theta-kill", True)
    psi = kr.psi_of
    bad = next(({"g": g0, "phi": phi, "basis": i}
                for (g0, phi), v in psi.items()
                for i in nb
                if kr.convolve(v, {i: 1}) != kr.convolve({i: 1}, v)), None)
    rep.add("psi-central", bad is None, bad)
    # the K(C_Gamma) product of the basis objects (g1, p1) and (g2, p2) is
    # (g1 ^ g2, p1 ^ p2)
    bad = next((((g1, p1), (g2, p2))
                for (g1, p1), v1 in psi.items() for (g2, p2), v2 in psi.items()
                if psi[g1 ^ g2, p1 ^ p2] != kr.convolve(v1, v2)), None)
    rep.add("psi-ring-hom", bad is None, bad)
    return rep


def cell_consistency(cells, invmod, cell_index, gamma_rank, left_cell_subgroups):
    """Dimension consistency of the induced module block against the
    bundle-counting formula: #(cell n I_*) = |Gamma| x #left cells, with the
    coset-space model cross-checked through the rank formula."""
    c = cells.two_sided_cells[cell_index]
    rep = Report(
        "eqvb-cell",
        "%s cell %d" % (cells.system.describe(), cell_index),
    )
    n_inv = sum(1 for w in invmod.basis if w in c)
    lcs = [lam for lam in cells.left_cells if lam <= c]
    rep.add(
        "left-cell-count",
        len(left_cell_subgroups) == len(lcs),
        {"supplied": len(left_cell_subgroups), "actual": len(lcs)},
    )
    expected = (1 << gamma_rank) * len(lcs)
    rep.add(
        "dimension-consistency",
        n_inv == expected,
        {"involutions": n_inv, "expected": expected},
    )
    gs = GammaSet.from_subgroups(gamma_rank, left_cell_subgroups)
    rank = len(KRing(gs).kbar)
    rep.add("kbar-rank-matches", rank == n_inv, {"rank": rank, "involutions": n_inv})
    # +-1-valued characters are self-dual, so dual-bundle self-duality is automatic
    rep.add("selfdual-characters", True)
    return rep


def standard_pairs():
    """A library of (name, GammaSet) pairs with r <= 2 and |X| <= 12."""
    pairs = []
    pairs.append(("trivial-1pt", GammaSet.trivial(1)))
    pairs.append(("trivial-3pt", GammaSet.trivial(3)))
    pairs.append(("trivial-5pt", GammaSet.trivial(5)))
    pairs.append(("z2-regular", GammaSet.from_subgroups(1, [[]])))
    pairs.append(("z2-two-fixed-plus-regular",
                  GammaSet.from_subgroups(1, [[1], [1], []])))
    pairs.append(("z2-three-fixed", GammaSet.from_subgroups(1, [[1], [1], [1]])))
    pairs.append(("z2-two-regular", GammaSet.from_subgroups(1, [[], []])))
    pairs.append(("v4-point", GammaSet.from_subgroups(2, [[1, 2]])))
    pairs.append(("v4-regular", GammaSet.from_subgroups(2, [[]])))
    pairs.append(("v4-three-lines", GammaSet.from_subgroups(2, [[1], [2], [3]])))
    pairs.append(("v4-line-plus-point", GammaSet.from_subgroups(2, [[1], [1, 2]])))
    pairs.append(("v4-mixed", GammaSet.from_subgroups(2, [[], [1], [1, 2]])))
    return pairs
