"""The completed Hecke module, the distinguished generator X of the left
ideal it spans, the conjectural module isomorphism onto the involution
module, the u^-1 -> 0 specialization, and the inductive projection from the
group onto its twisted involutions.

All of this lives in the parameter-u^2 convention: T_s T_x = T_{sx} when
lengths add and T_s^2 = (u^2-1) T_s + u^2, with coefficients in Q(u) (u =
v^2 as everywhere else).

Key objects:

- X_empty = sum over *-fixed x of u^{-l(x)} T_x (a formal series for
  infinite groups; truncations carry an explicit exactness window);
- X_w, built by replaying the involution-module descent chain on X_empty:
  X_w = (u+1)^{-1}(T_s - u) X_{sw} when sw = ws* < w, X_w = T_s X_{sws*}
  otherwise.  The same chain is replayed on a_empty in the involution
  module and asserted to land exactly on a_w, so X_w = eta^{-1}(a_w)
  whenever eta exists;
- eta_check: for finite W, compares the kernels of h -> h X_empty and
  h -> h a_empty via canonical fraction-free reduced row echelon forms and
  reports ranks — a certificate that the unique module map X_empty -> a_empty
  is an isomorphism;
- pi_map: the length-inductive projection onto involutions, with its
  well-definedness tested (every choice of first letter must agree), never
  assumed;
- specialization_check: (X_w at u^-1 = 0) = sum of T_x over the pi-fiber
  of w, plus the length identity l(w) = l(x) + l(x^-1 w) on every fiber.

Truncation bookkeeping: left multiplication by T_s can pull unknown
coefficients of length N+1 down to length N, so each T_s application
shrinks the guaranteed-exact window by one; every emitted coefficient is
tagged with the window it is exact in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, RationalFn, ZERO, ONE, poly_gcd, as_laurent
from .coxeter import InfiniteGroupError
from .hecke import half_step, t_gen_action
from .report import Report

_U = LaurentPoly.monomial(2)                    # u = v^2
_U2 = LaurentPoly.monomial(4)


@dataclass
class CompletionElement:
    """A (possibly truncated) formal sum of T_x with Q(u) coefficients.

    exact_len None means exact (finitely supported); otherwise coefficients
    of T_x are guaranteed exact for l(x) <= exact_len and dropped beyond.
    """

    coeffs: dict
    exact_len: object = None  # None or int

    def trimmed(self, n):
        """Restrict to l(x) <= n (n must not exceed the exactness window);
        n = None keeps an exact element whole."""
        if n is None:
            return self
        if self.exact_len is not None and n > self.exact_len:
            raise ValueError("window %d exceeds exact length %d" % (n, self.exact_len))
        return CompletionElement(
            {w: c for w, c in self.coeffs.items() if len(w.word) <= n}, n
        )

    def laurent_coeffs(self):
        """Coefficients as integer Laurent polynomials (exactness check)."""
        return {w: as_laurent(c) for w, c in self.coeffs.items()}


class IdealModel:
    """The ideal generated by X_empty inside the completed module, plus the
    associated projection and specialization checks, for one system."""

    def __init__(self, algebra, invmod):
        self.algebra = algebra
        self.invmod = invmod
        self.system = algebra.system
        self._x_memo = {}

    # -- completion arithmetic ----------------------------------------------------

    def x_empty(self, max_len=None):
        """X_empty = sum over x with x* = x of u^{-l(x)} T_x."""
        sys = self.system
        if max_len is None and sys.is_finite is False:
            raise InfiniteGroupError("x_empty over an infinite group needs max_len")
        coeffs = {}
        for x in sys.elements(max_len=max_len):
            if sys.star_elt(x) == x:
                coeffs[x] = LaurentPoly.monomial(-2 * len(x.word))
        window = None if sys.is_finite else max_len
        return CompletionElement(coeffs, window)

    def t_gen_mult(self, i, elt):
        """Left multiplication by T_{s_i}; shrinks a truncation window by one."""
        out = t_gen_action(self.system, i, elt.coeffs, _U2)
        n = elt.exact_len
        return CompletionElement(out, n).trimmed(None if n is None else n - 1)

    def t_word_mult(self, word, elt):
        for i in reversed(word):
            elt = self.t_gen_mult(i, elt)
        return elt

    # -- the X_w elements ------------------------------------------------------------

    def _descent_chain(self, w):
        """The descent chain from w down to the identity: a list of
        ("half", i) / ("conj", i) steps, innermost first."""
        steps = []
        while w.word:
            i = w.word[0]
            half, w = self.invmod._case(i, w)
            steps.append(("half" if half else "conj", i))
        return list(reversed(steps))

    def _apply_chain_x(self, steps, elt):
        for kind, i in steps:
            t = self.t_gen_mult(i, elt)
            if kind == "half":
                # T_s X is exact one length less far than X, so the difference is too
                t = CompletionElement(half_step(t.coeffs, elt.coeffs, _U),
                                      elt.exact_len).trimmed(t.exact_len)
            elt = t
        return elt

    def _apply_chain_m(self, steps, m):
        for kind, i in steps:
            t = self.invmod.ts_action(i, m)
            m = half_step(t, m, _U) if kind == "half" else t
        return m

    def x_elt(self, w, max_len=None):
        """X_w = eta^{-1}(a_w), by replaying the descent chain of a_w on
        X_empty.  The same chain applied to a_empty must reproduce a_w
        exactly; that is asserted, certifying the chain."""
        key = (w, max_len)
        got = self._x_memo.get(key)
        if got is not None:
            return got
        steps = self._descent_chain(w)
        buffer = None
        if max_len is not None:
            buffer = max_len + len(steps)
        base = self.x_empty(max_len=buffer)
        out = self._apply_chain_x(steps, base)
        mside = self._apply_chain_m(steps, {self.system.identity: ONE})
        if {x: RationalFn._coerce(c) for x, c in mside.items()} != {
            w: RationalFn._coerce(ONE)
        }:
            raise AssertionError("descent chain does not reproduce a_%s" % w)
        if max_len is not None and out.exact_len is not None:
            out = out.trimmed(min(max_len, out.exact_len))
        self._x_memo[key] = out
        return out

    def x_elements(self, max_w_len=None, max_len=None):
        """X_w for every twisted involution w (l(w) <= max_w_len), each exact
        to window max_len for truncated systems."""
        out = {}
        for w in self.system.twisted_involutions(max_len=max_w_len):
            out[w] = self.x_elt(w, max_len=max_len)
        return out

    # -- row reduction over Q(u) and the eta certificate ----------------------------

    def eta_check(self):
        """Certificate for the module isomorphism onto the involution module.

        Compares the kernels of h -> h X_empty and h -> h a_empty (equal row
        echelon forms of the transposed coefficient matrices), reports the
        ideal dimension against the number of twisted involutions, and checks
        that every X_w has coefficients in Z[u^-1].  The ideal dimension is
        the rank of the transposed X_empty matrix, since a matrix and its
        transpose have equal rank.  Returns (report, x_table).
        """
        sys = self.system
        if sys.is_finite is False:
            raise InfiniteGroupError("eta_check requires a finite group")
        rep = Report("conj-eta", sys.describe())
        els = sys.elements()
        inv = self.invmod.basis
        base = self.x_empty()
        images_x = [self.t_word_mult(x.word, base).laurent_coeffs() for x in els]
        images_a = [self.invmod.t_word_action(x.word, {sys.identity: ONE}) for x in els]

        def transposed(images, targets):
            # rows indexed by the target basis, columns by x
            return [{x: img[y] for x, img in zip(els, images) if img.get(y)} for y in targets]

        rref_x = canonical_rref(transposed(images_x, els), els)
        rref_a = canonical_rref(transposed(images_a, inv), els)
        kernel_equal = rref_x == rref_a
        rep.add(
            "kernel-equality",
            kernel_equal,
            None if kernel_equal else "row spaces of the two action matrices differ",
        )
        dim_ideal = len(rref_x)
        rep.add(
            "ideal-dimension",
            dim_ideal == len(inv),
            {"dim": dim_ideal, "involutions": len(inv)},
        )
        rep.add("module-surjectivity", len(rref_a) == len(inv),
                {"rank": len(rref_a), "involutions": len(inv)})
        x_table = {}
        integral = True
        witness = None
        for w in inv:
            xw = self.x_elt(w)
            try:
                for x, c in xw.laurent_coeffs().items():
                    c.specialize_uinv_zero()
                x_table[w] = xw
            except ValueError:
                integral = False
                witness = str(w)
                x_table[w] = xw
        rep.add("x-integrality", integral, witness)
        return rep, x_table

    # -- specialization and the projection ----------------------------------------------

    def specialize(self, elt):
        """(elt at u^-1 = 0): an integer combination of T_x."""
        out = {}
        for x, c in elt.laurent_coeffs().items():
            n = c.specialize_uinv_zero()
            if n:
                out[x] = n
        return out

    def pi_map(self, max_len=None):
        """The inductive projection onto involutions, built by length.

        Requires sigma-star = identity: the displayed rule produces plain
        involutions, which are the twisted involutions only for * = 1.
        """
        sys = self.system
        if sys.star_perm != tuple(range(sys.rank)):
            raise ValueError("the projection rule is stated for * = 1 only")
        pi = {sys.identity: sys.identity}
        for x in sys.elements(max_len=max_len):
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

    def pi_report(self, max_len=None):
        """Well-definedness of the rule (all descents agree), involution-valued,
        surjectivity onto the enumerated window."""
        sys = self.system
        rep = Report("pi", sys.describe())
        pi = self.pi_map(max_len=max_len)
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
        missing = [
            str(w)
            for w in sys.twisted_involutions(max_len=max_len)
            if w not in image
        ]
        rep.add("surjective", not missing, missing or None)
        return rep, pi

    def specialization_check(self, max_len=None, window=None):
        """(X_w at u^-1 = 0) = sum over the pi-fiber of w, and the length
        identity on every fiber.  For truncated systems the comparison is
        restricted to the guaranteed-exact window."""
        sys = self.system
        rep = Report("specialization", sys.describe())
        sub, pi = self.pi_report(max_len=max_len)
        for c in sub.checks:
            rep.add("pi-" + c.check_id, c.passed, c.witness)
        fibers = self.pi_fibers(pi)
        finite = sys.is_finite is not False
        if finite:
            targets = self.invmod.basis
        else:
            targets = [w for w in self.invmod.basis if len(w.word) <= (window or max_len)]
        bad_spec = None
        bad_len = None
        for w in targets:
            xw = self.x_elt(w, max_len=None if finite else (window or max_len))
            spec = self.specialize(xw)
            fib = fibers.get(w, [])
            if not finite:
                cut = xw.exact_len
                fib = [x for x in fib if len(x.word) <= cut]
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
        return rep


# -- canonical fraction-free reduced row echelon form ---------------------------------


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
    if g is not None and g != ONE:
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
    polynomials, computed fraction-free.  `order` fixes the column order
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
