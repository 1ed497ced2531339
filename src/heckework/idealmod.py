"""The completed Hecke module, the distinguished generator X of the left
ideal it spans, the conjectural module isomorphism onto the involution
module, the u^-1 -> 0 specialization, and the inductive projection from the
group onto its twisted involutions.

All of this lives in the parameter-u^2 convention: T_s T_x = T_{sx} when
lengths add and T_s^2 = (u^2-1) T_s + u^2, with coefficients in Z[v, v^-1]
(u = v^2 as everywhere else).

Key objects:

- X_empty = sum over *-fixed x of u^{-l(x)} T_x (a formal series for
  infinite groups, cut at the window below);
- X_w, built by one descent step from the memoized X_v of the involution
  module's descent: X_w = (u+1)^{-1}(T_s - u) X_{sw} when sw = ws* < w,
  X_w = T_s X_{sws*} otherwise.  Each step is asserted to send a_v exactly
  to a_w in the involution module, so X_w = eta^{-1}(a_w) whenever eta
  exists;
- eta_check: for finite W, certifies that the unique module map
  X_empty -> a_empty is an isomorphism from the X_w alone: X_e = X_empty,
  T_s X_w = sum m_w' X_w' whenever T_s a_w = sum m_w' a_w', and the X_w
  are independent (a rank over F_p, p = 2^61 - 1, at v = v0).  The
  fraction-free row echelon form `canonical_rref` below is the tests'
  second route to the same facts;
- pi_map: the length-inductive projection onto involutions, with its
  well-definedness tested (every choice of first letter must agree), never
  assumed;
- specialization_check: (X_w at u^-1 = 0) = sum of T_x over the pi-fiber
  of w, plus the length identity l(w) = l(x) + l(x^-1 w) on every fiber.

Truncation bookkeeping: the window is the involution module's max_len, and
X_empty, every X_w, pi and the checks all stop at it.  Left multiplication
by T_s can pull unknown coefficients of length N+1 down to length N, so each
descent step shrinks the exact window by one.  So each X_w, a plain T-basis
dict with no tag, is built once, exact to max_len + (the module's deepest
descent chain - the steps from e to w), and handed out cut to max_len.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ZERO, ONE, poly_gcd
from .coxeter import InfiniteGroupError
from .hecke import U_V, InexactDivision, add_scaled, half_step, t_gen_action
from .report import Report

_U2 = LaurentPoly.monomial(4)

# the rank certificate works in F_p at v = v0: the first point, then the rest
# only if it drops rank
PRIME = (1 << 61) - 1
SPECIALIZATION_POINTS = (12345, 271828, 314159, 161803)


class IdealModel:
    """The ideal generated by X_empty inside the completed module, plus the
    associated projection and specialization checks, for one system, on the
    length window of the involution module it wraps."""

    def __init__(self, invmod):
        self.invmod = invmod
        self.system = invmod.system
        self.max_len = invmod.max_len
        self._x_memo = {}
        # window(w) = max_len + (the deepest chain - the steps from e to w)
        self._window = dict.fromkeys(invmod.basis)
        if self.max_len is not None:
            depth = {}
            for w in invmod.basis:  # by length, so v comes before w
                depth[w] = depth[invmod._case(w.word[0], w)[1]] + 1 if w.word else 0
            top = max(depth.values())
            self._window = {w: self.max_len + top - d for w, d in depth.items()}

    # -- the X_w elements ------------------------------------------------------------

    def x_empty(self):
        """X_empty = sum over x with x* = x of u^{-l(x)} T_x, on the window."""
        return _trimmed(self._x_elt(self.system.identity), self.max_len)

    def x_elt(self, w):
        """X_w = eta^{-1}(a_w), exact on the window."""
        return _trimmed(self._x_elt(w), self.max_len)

    def _x_elt(self, w):
        """X_w exact to l(x) <= window(w) (None: whole), built once: one
        descent step from the memoized X_v, trimmed to window(w) =
        window(v) - 1, as far as T_s X_v is exact.  The same step must send
        a_v exactly to a_w in the involution module; that is asserted, and by
        induction certifies the whole chain."""
        got = self._x_memo.get(w)
        if got is None:
            sys = self.system
            n = self._window[w]
            if not w.word:
                got = {x: LaurentPoly.monomial(-2 * len(x.word))
                       for x in sys.elements(max_len=n) if sys.star_elt(x) == x}
            else:
                i = w.word[0]
                half, v = self.invmod._case(i, w)
                prev = self._x_elt(v)
                got = _trimmed(t_gen_action(sys, i, prev, _U2), n)
                m = self.invmod.ts_action(i, {v: ONE})
                if half:
                    # X_v's terms past window(w) would divide inexactly
                    got = half_step(got, _trimmed(prev, n), U_V)
                    m = half_step(m, {v: ONE}, U_V)
                if m != {w: ONE}:
                    raise AssertionError("descent step does not send a_%s to a_%s" % (v, w))
            self._x_memo[w] = got
        return got

    def x_elements(self):
        """X_w for every twisted involution w of the module, each exact on
        the window."""
        return {w: self.x_elt(w) for w in self.invmod.basis}

    # -- the eta certificate ----------------------------------------------------------

    def eta_check(self):
        """Certificate for the module isomorphism onto the involution module.

        Builds the X_w of every twisted involution w once and certifies
        (a) X_e = X_empty; (b) T_s X_w = sum m_w' X_w' for every generator s
        and every w, where T_s a_w = sum m_w' a_w' in the involution module;
        (c) the |I| x |W| matrix of the X_w has rank |I|.  By (b),
        psi: a_w -> X_w is H-linear, and by (a) psi(h a_e) = h X_empty, so
        h a_e = 0 implies h X_empty = 0.  By (c) psi is injective, so the
        converse holds too: the kernels of h -> h X_empty and h -> h a_e
        agree.  `x_elt` asserts at every step that the step sends a_v to
        a_w, so each a_w lies in H a_e (module surjectivity), and then the
        ideal H X_empty = psi(M) has dimension |I|.

        (c) is checked over F_p at v = v0: v -> v0 is a ring map
        Z[v, v^-1] -> F_p, so a nonzero |I|-minor mod p is nonzero over
        Q(v), and a pass is never wrong.  A point can only lose rank, when
        it is a root of every |I|-minor, which for a random v0 has chance at
        most deg/p (Schwartz, J. ACM 27 (1980)); then the next point of
        SPECIALIZATION_POINTS is tried, and if all lose rank the check fails
        with the points as witness.  Last, every X_w must have coefficients
        in Z[u^-1].  Returns (report, x_table).
        """
        sys = self.system
        # a window cuts X_w short where T_s reaches past it, even for finite W
        if self.max_len is not None:
            raise InfiniteGroupError("eta_check requires a finite group and no window")
        rep = Report("conj-eta", sys.describe())
        inv = self.invmod.basis
        x_table = {}
        integral = True
        witness = None
        for w in inv:
            try:
                xw = x_table[w] = self.x_elt(w)
            except InexactDivision:
                integral, witness = False, str(w)
                continue
            if not all(c.in_z_uinv() for c in xw.values()):
                integral, witness = False, str(w)
        n = len(inv)
        missing = [str(w) for w in inv if w not in x_table]
        if missing:
            fault = {"missing": missing}
        elif x_table[sys.identity] != self.x_empty():
            fault = {"pin": "X_e differs from X_empty"}
        else:
            fault = self.equivariance_fault(x_table)
        if fault is None:
            rank, points = self.specialized_rank(x_table)
            if rank < n:
                fault = {"rank": rank, "points": points}
        rep.add("kernel-equality", fault is None, fault)
        rep.add("ideal-dimension", fault is None,
                {"dim": n if fault is None else None, "involutions": n, **(fault or {})})
        rep.add("module-surjectivity", not missing, {"rank": len(x_table), "involutions": n})
        rep.add("x-integrality", integral, witness)
        return rep, x_table

    def equivariance_fault(self, x_table):
        """The first (s, w) with T_s X_w != sum m_w' X_w', where
        T_s a_w = sum m_w' a_w', as a witness; None when every pair holds."""
        sys = self.system
        for w, xw in x_table.items():
            for i in range(sys.rank):
                rhs = {}
                for wp, c in self.invmod.ts_action(i, {w: ONE}).items():
                    add_scaled(rhs, x_table[wp], c)
                if t_gen_action(sys, i, xw, _U2) != rhs:
                    return {"equivariance": [i + 1, str(w)]}
        return None

    def specialized_rank(self, x_table):
        """(rank, points): the rank over F_p of the matrix of the X_w at the
        first point of SPECIALIZATION_POINTS that gives full rank, else the
        largest rank seen; points lists the points tried."""
        best, tried = 0, []
        for v0 in SPECIALIZATION_POINTS:
            tried.append(v0)
            rows = [{x: _at(c, v0) for x, c in xw.items()} for xw in x_table.values()]
            best = max(best, _rank_mod_p(rows))
            if best == len(rows):
                break
        return best, tried

    # -- specialization and the projection ----------------------------------------------

    def specialize(self, elt):
        """(elt at u^-1 = 0): an integer combination of T_x."""
        out = {}
        for x, c in elt.items():
            n = c.specialize_uinv_zero()
            if n:
                out[x] = n
        return out

    def pi_map(self):
        """The inductive projection onto involutions, built by length.

        Requires sigma-star = identity: the displayed rule produces plain
        involutions, which are the twisted involutions only for * = 1.
        """
        sys = self.system
        if sys.star_perm != tuple(range(sys.rank)):
            raise ValueError("the projection rule is stated for * = 1 only")
        pi = {sys.identity: sys.identity}
        for x in sys.elements(max_len=self.max_len):
            if not x.word:
                continue
            pi[x] = self._pi_step(pi, x, x.word[0])
        return pi

    def _pi_step(self, pi, x, i):
        sys = self.system
        s = sys.generator(i)
        p = pi[s * x]
        ps = p * s
        if len(ps.word) < len(p.word):
            return p
        sp = s * p
        if sp == ps:
            return sp
        return (s * p) * s

    def pi_fibers(self, pi):
        fibers = {}
        for x, w in pi.items():
            fibers.setdefault(w, []).append(x)
        return {w: sorted(xs, key=lambda x: x.sort_key()) for w, xs in fibers.items()}

    def pi_report(self):
        """Well-definedness of the rule (all descents agree), involution-valued,
        surjectivity onto the twisted involutions of the window."""
        sys = self.system
        rep = Report("pi", sys.describe())
        pi = self.pi_map()
        bad = None
        for x in pi:
            if not x.word:
                continue
            vals = {self._pi_step(pi, x, i) for i in sys.left_descents(x)}
            if len(vals) != 1:
                bad = (str(x), sorted(str(v) for v in vals))
                break
        rep.add("well-defined", bad is None, bad)
        bad = None
        for x, w in pi.items():
            if w * w != sys.identity:
                bad = (str(x), str(w))
                break
        rep.add("involution-valued", bad is None, bad)
        image = set(pi.values())
        missing = [str(w) for w in self.invmod.basis if w not in image]
        rep.add("surjective", not missing, missing or None)
        return rep, pi

    def specialization_check(self):
        """(X_w at u^-1 = 0) = sum over the pi-fiber of w, and the length
        identity on every fiber, for every w of the window, where pi and X_w
        are exact.  Returns (report, pi)."""
        sys = self.system
        rep = Report("specialization", sys.describe())
        sub, pi = self.pi_report()
        for c in sub.checks:
            rep.add("pi-" + c.check_id, c.passed, c.witness)
        fibers = self.pi_fibers(pi)
        bad_spec = None
        bad_len = None
        for w in self.invmod.basis:
            spec = self.specialize(self.x_elt(w))
            fib = fibers.get(w, [])  # pi reads the window, so X_w is exact on it
            expected = {x: 1 for x in fib}
            if spec != expected:
                bad_spec = (
                    str(w),
                    sorted(str(x) for x in spec),
                    sorted(str(x) for x in fib),
                )
            for x in fib:
                if len(w.word) != len(x.word) + len((x.inverse() * w).word):
                    bad_len = (str(w), str(x))
        rep.add("specialization-identity", bad_spec is None, bad_spec)
        rep.add("length-identity", bad_len is None, bad_len)
        return rep, pi


def _trimmed(coeffs, n):
    """The terms of coeffs with l(x) <= n; n = None keeps them all."""
    return coeffs if n is None else {x: c for x, c in coeffs.items() if len(x.word) <= n}


# -- ranks over F_p and the canonical fraction-free row echelon form -----------------


def _at(c, v0):
    """The Laurent polynomial c at v = v0 in F_p (v0 nonzero mod p)."""
    return sum(a * pow(v0, e, PRIME) for e, a in c.items()) % PRIME


def _rank_mod_p(rows):
    """Rank over F_p of sparse rows (dicts column -> residue): each row is
    reduced against the pivot rows in the order they were found."""
    pivots = {}  # pivot column -> row scaled to 1 there
    for row in rows:
        row = dict(row)
        for col, prow in pivots.items():
            c = row.get(col)
            if c:
                for k, a in prow.items():
                    row[k] = (row.get(k, 0) - c * a) % PRIME
        row = {k: a for k, a in row.items() if a}
        if row:
            col, a = next(iter(row.items()))
            inv = pow(a, -1, PRIME)
            pivots[col] = {k: b * inv % PRIME for k, b in row.items()}
    return len(pivots)


def _row_normalize(row, order):
    """Primitive representative of the Q(u)-line of a row (dict elt->poly):
    divide by the gcd of the entries, shift the minimal valuation to 0, and
    make the leading coefficient of the first nonzero entry positive."""
    row = {k: v for k, v in row.items() if v}
    if not row:
        return row
    g = None
    for c in row.values():
        g = c if g is None else poly_gcd(g, c)
        if g == ONE:
            break
    if g != ONE:
        row = {k: v.try_divide(g) for k, v in row.items()}
    shift = min(c.valuation() for c in row.values())
    if shift:
        row = {k: v.shifted(-shift) for k, v in row.items()}
    first = next(k for k in order if k in row)
    lead = row[first]
    if lead.coeff_of_v(lead.degree()) < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _eliminate(r, pivot_row, col, order):
    """Clear column `col` of row r against the pivot row, fraction-free:
    the normalized r * pivot_row[col] - pivot_row * r[col]."""
    p = pivot_row[col]
    c = r[col]
    merged = {}
    for k in set(r) | set(pivot_row):
        val = r.get(k, ZERO) * p - pivot_row.get(k, ZERO) * c
        if val:
            merged[k] = val
    return _row_normalize(merged, order)


def canonical_rref(rows, order):
    """Canonical reduced row echelon form over Q(u) of rows of Laurent
    polynomials, computed fraction-free: the tests' second route to the
    facts `eta_check` certifies.  `order` fixes the column order
    (lexicographic pivoting); rows come back sorted by pivot column, each
    the unique primitive representative of its echelon row.
    """
    work = [_row_normalize(r, order) for r in rows]
    work = [r for r in work if r]
    pivots = []  # (column index, row)
    col_index = {k: i for i, k in enumerate(order)}
    for col in order:
        rest = []
        pivot_row = None
        for r in work:
            if pivot_row is None and r.get(col):
                pivot_row = r
            else:
                rest.append(r)
        if pivot_row is None:
            work = rest
            continue
        new_rest = []
        for r in rest:
            if r.get(col):
                r = _eliminate(r, pivot_row, col, order)
            if r:
                new_rest.append(r)
        pivots.append((col_index[col], pivot_row))
        work = new_rest
    # back-elimination to reach the reduced form
    for i in range(len(pivots) - 1, -1, -1):
        ci, ri = pivots[i]
        col = order[ci]
        for j in range(i):
            cj, rj = pivots[j]
            if rj.get(col):
                pivots[j] = (cj, _eliminate(rj, ri, col, order))
    pivots.sort(key=lambda t: t[0])
    return [tuple(sorted(r.items(), key=lambda kv: kv[0].sort_key())) for _, r in pivots]
