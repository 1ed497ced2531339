"""The Hecke algebra in the T-basis, its bar involution, Kazhdan-Lusztig
polynomials and the canonical basis, and structure constants.

Everything is computed in the variable-v convention: the algebra is free
over Z[v, v^-1] with basis (T_w), T_w T_w' = T_{ww'} when lengths add, and
(T_s + 1)(T_s - u) = 0 with u = v^2.  The parameter-u^2 version of any
quantity is obtained by doubling exponents (`LaurentPoly.subst_v_to_u`),
never recomputed.

Kazhdan-Lusztig polynomials are produced by two independent routes that
serve as each other's oracle:

- `KLTable.p` (one pair) and `KLTable.column` (every P_{y,w} of one w):
  the classical multiplication recursion with mu-corrections, filled a
  column at a time over a pool of distinct polynomials, from nothing else:
  the KL cache of `kl --cache-dir` is written from a filled table
  (`cache.write_kl`) and never read for a value;
- `HeckeAlgebra.kl_solved`: a triangular bar-invariance solve for c_w,
  memoized per w, that only uses the expansion of bar(T_w) in the T-basis.

The algorithms below are shared with the involution module (`invmod`), the
completion (`idealmod`) and the rest of the package, each written once:

- `t_gen_action`: left multiplication by a generator T_s under the quadratic
  relation (T_s + 1)(T_s - q) = 0 (q = u here, u^2 in the completion);
- `t_inv_gen_action`: the inverse generator T_s^-1 = q^-1 T_s + (q^-1 - 1),
  which is bar(T_s) (in `bar_t` here and `_bar_ts` in the module);
- `half_step`: the descent half step (u + 1)^-1 (T_s - u), in the module's
  `bar_a` (with u^-1 and bar(T_s)) and the completion's `_x_elt`; the
  division is exact in Z[v, v^-1];
- `bar_invariant_solve`: the certifying triangular solve for the canonical
  basis element (c_w here, A_w in the module);
- `strip_off`: coordinates in a unitriangular canonical basis (`to_c` here,
  the c_s rows of the module's `_cs_action`);
- `add_into` / `add_scaled`: the sparse accumulator for every dict-of-
  coefficients sum;
- `bilinear`: the bilinear extension of a product given on basis pairs,
  behind the ring J (`CellData.j_mult`), its module (`cm_action`) and the
  K-rings (`KRing.convolve`, `KRing.circ`);
- `KLTable._mu_down`: the mu(z, w) with s in D_L(z), listed once per
  (w, s) on element ids, for the KL recursion and behind c_s c_w
  (`c_gen_mult`, Kazhdan-Lusztig 1979, (2.3a/b)), the W-graph of the cells;
- `HeckeAlgebra.c_left`: the recursion c_x = c_s c_{x'} - sum mu(z, x') c_z
  on the id x = s x', given the action of c_s: with `c_gen_mult` on ids,
  `h_struct` here and the gamma walk of `CellData` (column w over the left
  cell of w^-1 alone); with the module's `_cs_action`, its beta walk (column
  w over every x) and `f_constants`.  The gamma and beta walks take one
  fresh memo per column; `h_struct` and `f_constants` each keep one memo
  for all their pairs.  The T-basis product `mult` with `to_c` is the
  second route: the tests' oracle, and a layer the perfbench trace wraps by
  name.

KL polynomials are stored in u-units (monomial exponent = power of u);
`subst_v_to_u` converts them to the ambient v-representation.

Hecke elements are plain dicts {CoxeterElement: LaurentPoly} in T-basis
coordinates; the c-basis dicts of `c_gen_mult` are keyed by element id, and
`h_struct` turns ids back into elements once, at its return.
"""

from __future__ import annotations

from .coxeter import bits
from .laurent import LaurentPoly, ZERO, ONE

# v-units scalars for the T-basis quadratic relation
U_V = LaurentPoly.monomial(2)                    # u = v^2
UINV_V = LaurentPoly.monomial(-2)                # u^-1
V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})         # v + v^-1


class InexactDivision(ArithmeticError):
    """A descent half step met a coefficient that u + 1 does not divide."""


def add_into(acc, w, coeff):
    """acc[w] += coeff, dropping exact zeros."""
    if not coeff:
        return
    s = acc.get(w)
    s = coeff if s is None else s + coeff
    if s:
        acc[w] = s
    else:
        del acc[w]


def add_scaled(acc, coeffs, scale):
    """acc += scale * coeffs, dropping exact zeros."""
    for w, c in coeffs.items():
        add_into(acc, w, c * scale)


def bilinear(a, b, row):
    """sum over x, y of a_x b_y row(x, y): the bilinear extension of a
    product whose value on the basis pair (x, y) is the dict row(x, y)."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            add_scaled(out, row(x, y), cx * cy)
    return out


def t_gen_action(system, i, coeffs, q):
    """Left multiplication by T_{s_i} on a dict of T-basis coordinates, in
    the algebra with quadratic relation (T_s + 1)(T_s - q) = 0."""
    s = system.generator(i)
    q_minus_1 = q - ONE
    out = {}
    for w, c in coeffs.items():
        sw = s * w
        if len(sw.word) > len(w.word):
            add_into(out, sw, c)
        else:
            add_into(out, w, c * q_minus_1)
            add_into(out, sw, c * q)
    return out


def t_inv_gen_action(ts_coeffs, coeffs, qinv):
    """T_s^-1 = q^-1 T_s + (q^-1 - 1) applied to coeffs, given
    ts_coeffs = T_s applied to coeffs and qinv = q^-1."""
    out = {}
    add_scaled(out, ts_coeffs, qinv)
    add_scaled(out, coeffs, qinv - ONE)
    return out


def half_step(ts_coeffs, coeffs, u):
    """(u + 1)^-1 (T_s - u) applied to coeffs, given ts_coeffs = T_s applied
    to coeffs.  T_s a_v = u a_v + (u + 1) a_w makes the division exact;
    a coefficient u + 1 does not divide raises InexactDivision naming its x."""
    num = dict(ts_coeffs)
    add_scaled(num, coeffs, -u)
    den = u + ONE
    out = {}
    for x, c in num.items():
        q = out[x] = c.try_divide(den)
        if q is None:
            raise InexactDivision("not divisible by %r at %s: %r" % (den, x, c))
    return out


def strip_off(coeffs, basis_elt):
    """Coordinates of `coeffs` in a unitriangular canonical basis.

    `basis_elt(z)` is the basis element at z, written in the same standard
    basis as `coeffs`, with leading term v^{-l(z)} at z.  The largest
    remaining z is stripped off until nothing is left.
    """
    rem = dict(coeffs)
    out = {}
    while rem:
        z = max(rem, key=lambda x: x.sort_key())
        alpha = rem[z].shifted(len(z.word))
        out[z] = alpha
        add_scaled(rem, basis_elt(z), -alpha)
    return out


def bar_invariant_solve(w, below, bar_col):
    """The bar-invariant element pi = sum_x pi_x e_x with pi_w = v^{-l(w)}
    and v^{l(x)} pi_x strictly negatively supported for x < w.

    `below` holds the basis elements y <= w (w included) and `bar_col(y)` is
    bar(e_y) in the standard basis.  Each column must have leading term
    v^{-2 l(y)} at y.  Going down from w, pi_x must satisfy
    f_x - bar(f_x) = v^{l(x)} * (column sum) with f_x = v^{l(x)} pi_x
    strictly negatively supported, which pins it uniquely; the consistency
    of that equation is asserted, so success certifies both existence and
    uniqueness.  Any failure raises AssertionError.
    """
    lw = len(w.word)
    pi = {w: LaurentPoly.monomial(-lw)}
    for x in sorted(below, key=lambda y: y.sort_key(), reverse=True):
        lx = len(x.word)
        if bar_col(x).get(x) != LaurentPoly.monomial(-2 * lx):
            raise AssertionError("bar column has unexpected leading term at %s" % x)
        if x == w:
            continue
        g = ZERO
        for y, piy in pi.items():
            r = bar_col(y).get(x)
            if r:
                g = g + piy.bar() * r
        big_g = g.shifted(lx)
        f = LaurentPoly({e: c for e, c in big_g.items() if e < 0})
        if f - f.bar() != big_g:
            raise AssertionError(
                "bar-invariance solve inconsistent at %s below %s" % (x, w)
            )
        if f:
            pi[x] = f.shifted(-lx)
    return pi


_ZERO_H, _ONE_H = 0, 1  # the handles of ZERO and ONE in every KLTable pool


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials P_{y,w}, in u-units.

    The recursion (Kazhdan-Lusztig 1979, (2.2.c)) runs on the system's
    element ids and fills a whole column {y: P_{y,w}} at a time, as du
    Cloux's Coxeter program does (Experiment. Math. 11, 2002): `_col` fills
    the missing columns of [e, w] in length order.  For x = s v with s in
    D_L(x), the lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7) puts
    every y <= x with sy > y in [e, v] and gives P_{sy,x} = P_{y,x}, so only
    that half is computed, as in Coxeter: u P_{sy,v} + P_{y,v} from one walk
    over the column of v, minus each mu(z, v) u^{(l(x)-l(z))/2} P_{y,z} over
    the column of z, which holds exactly the y <= z; P_{v,x} = 1.  A column
    lists its y in ascending id order and the diagonal, x -> the handle of
    ONE, last; `_mu_list`, and every order read off it, follows this order.
    Each (v, s) keeps the (z, l(z), mu(z, v)) with mu(z, v) != 0 and s in
    D_L(z) (`_mu_down`, read by `HeckeAlgebra.c_left` and `c_gen_mult` as
    well).

    Every polynomial the fill touches is interned once per table in a
    pool of distinct values (`_pool`, with `_handle` and the degrees
    `_deg`): ONE and ZERO, each computed P, and each partial sum
    of the mu loop.  The memo holds handles, and both combine steps are
    dict lookups on handles: `_add` for u P_{sy,v} + P_{y,v} and `_sub` for
    each correction.  Only a miss does polynomial arithmetic, as with the
    polynomial pool of Coxeter: on B4, 98 `_add` and 292 `_sub` misses
    serve the 19,741 computed values of 39,865 pairs, and the pool holds
    142 values.  The degree bound 2 deg P_{y,x} <= l(x) - l(y) - 1 is
    checked on each computed value at (sy, x), the sharper of its pairs,
    never cached with a value: one combine serves pairs of other lengths.

    The table is filled only by this recursion; nothing is read from
    outside.  `filled` lists the filled columns in fill order, for the one
    writer of the KL cache (`cache.write_kl`).
    """

    def __init__(self, system):
        self.system = system
        self._by_id = {}  # w id -> {y id: handle of P_{y,w}} over every y <= w
        self._mu = {}  # v id -> [(z id, l(z), mu(z, v)) with mu != 0]
        self._mu_s = {}  # (v id, s) -> the _mu[v] entries with s in D_L(z)
        self._pool = []  # handle -> polynomial, each distinct value once
        self._deg = []  # handle -> degree of the polynomial (-1 for zero)
        self._handle = {}  # polynomial -> handle
        self._add = {}  # (a, b) -> handle of u a + b
        self._sub = {}  # (r, k, m, q) -> handle of r - m u^k q
        self._intern(ZERO)
        self._intern(ONE)

    def p(self, y, w):
        """P_{y,w} as a polynomial in u (zero unless y <= w)."""
        sys = self.system
        y, w = sys._id(y), sys._id(w)
        if not sys._lower_bits(w) >> y & 1:
            return ZERO
        return self._pool[self._col(w)[y]]

    def column(self, w):
        """{y id: handle of P_{y,w}} over every y <= w, w included; `value`
        gives the polynomial of a handle.  The column is the table's own
        dict, not a copy: read it only."""
        return self._col(self.system._id(w))

    def value(self, h):
        """The polynomial with handle h."""
        return self._pool[h]

    def filled(self):
        """(w id, column) over every filled column, in the order filled; the
        columns are the table's own dicts: read them only."""
        return self._by_id.items()

    def _intern(self, p):
        """The handle of p, adding it to the pool when new."""
        h = self._handle.get(p)
        if h is None:
            h = self._handle[p] = len(self._pool)
            self._pool.append(p)
            self._deg.append(-1 if not p else p.degree())
        return h

    def _col(self, w):
        """{y id: handle of P_{y,w}} over y <= w for the id w, after filling
        every missing column of [e, w] in length order: column x = s v reads
        the columns of v and of the z in `_mu_down(v, s)`, all shorter."""
        by_id = self._by_id
        if w in by_id:
            return by_id[w]
        sys, pool, deg = self.system, self._pool, self._deg
        lens, add, sub = sys._len, self._add, self._sub
        todo = [x for x in bits(sys._lower_bits(w)) if x not in by_id]
        for x in sorted(todo, key=lens.__getitem__):
            lx = lens[x]
            if not lx:
                by_id[x] = {x: _ONE_H}
                continue
            s = sys._elts[x].word[0]
            v = sys._lstep(s, x)  # shorter; the normal form starts with a left descent
            below = bits(sys._lower_bits(x) ^ 1 << x)
            lsy = sys._lmul[s]  # filled on [e, v] by _lower_bits(x)
            # u P_{sy,v} + P_{y,v} for the y < v with sy > y
            pv, got = by_id[v], {}
            for y, b in pv.items():
                sy = lsy[y]
                if lens[sy] > lens[y]:
                    a = pv.get(sy, _ZERO_H)
                    h = add.get((a, b))
                    if h is None:
                        h = add[a, b] = self._intern(pool[a].shifted(1) + pool[b])
                    got[y] = h
            del got[v]  # P_{v,x} = P_{x,x} = 1, set below
            # l(v) - l(z) is odd for every listed z, so l(x) - l(z) is even;
            # z's column holds exactly the y <= z
            for z, lz, m in self._mu_down(v, s) if got else ():
                k = (lx - lz) // 2
                for y, q in by_id[z].items():
                    r = got.get(y)
                    if r is not None:
                        h = sub.get((r, k, m, q))
                        if h is None:
                            h = sub[r, k, m, q] = self._intern(
                                pool[r] - LaurentPoly.monomial(k, m) * pool[q])
                        got[y] = h
            # 2 deg P_{y,x} <= l(x) - l(sy) - 1, the sharper bound of the two
            for y, h in got.items():
                if 2 * deg[h] > lx - lens[y] - 2:
                    raise AssertionError(
                        "KL degree bound violated at (%s, %s): %r"
                        % (sys._elts[lsy[y]], sys._elts[x], pool[h]))
            got[v] = _ONE_H
            # P_{y,x} = P_{sy,x}; no value is ZERO (handle 0), so `or` falls
            # through to sy exactly when y is not in the computed half
            col = {y: got.get(y) or got.get(lsy[y]) for y in below}
            col[x] = _ONE_H  # the diagonal
            by_id[x] = col
        return by_id[w]

    def _mu_list(self, v):
        """[(z, l(z), mu(z, v))] over z < v with mu(z, v) != 0, in id order."""
        got = self._mu.get(v)
        if got is None:
            lens, pool, deg = self.system._len, self._pool, self._deg
            lv = lens[v]
            # mu(z, v) is the coefficient of u^{(d-1)/2}, d = l(v) - l(z), so
            # it is nonzero exactly when that is the degree bound, met
            got = self._mu[v] = [(z, lens[z], pool[h].coeff_of_v(deg[h]))
                                 for z, h in self._col(v).items()
                                 if 2 * deg[h] == lv - lens[z] - 1]
        return got

    def _mu_down(self, v, s):
        """The entries of `_mu_list(v)` with s in D_L(z), memoized."""
        got = self._mu_s.get((v, s))
        if got is None:
            desc = self.system._descents
            got = self._mu_s[v, s] = [t for t in self._mu_list(v) if desc(t[0]) >> s & 1]
        return got


class HeckeAlgebra:
    """Operations on T-basis coefficient dicts over one Coxeter system."""

    def __init__(self, system):
        self.system = system
        self.kl = KLTable(system)
        self._bar_t = {}
        self._c_elt = {}
        self._solved = {}
        self._h_struct = {}

    # -- T-basis multiplication ------------------------------------------------

    def mult(self, h1, h2):
        """Product of two T-basis coefficient dicts."""
        out = {}
        for w, c in h1.items():
            part = h2
            for i in reversed(w.word):
                part = t_gen_action(self.system, i, part, U_V)
            add_scaled(out, part, c)
        return out

    # -- bar involution -----------------------------------------------------------

    def bar_t(self, w):
        """bar(T_w) = (T_{w^-1})^{-1} as a T-basis dict."""
        got = self._bar_t.get(w)
        if got is None:
            if not w.word:
                got = {w: ONE}
            else:
                i = w.word[0]
                rest = self.bar_t(self.system.generator(i) * w)
                got = t_inv_gen_action(t_gen_action(self.system, i, rest, U_V), rest, UINV_V)
            self._bar_t[w] = got
        return got

    # -- canonical basis ------------------------------------------------------------

    def c_elt(self, w):
        """c_w = v^{-l(w)} sum_{y<=w} P_{y,w}(u) T_y, as a T-basis dict."""
        got = self._c_elt.get(w)
        if got is None:
            lw, elts, kl = len(w.word), self.system._elts, self.kl
            got = self._c_elt[w] = {
                elts[y]: kl.value(h).subst_v_to_u().shifted(-lw)
                for y, h in kl.column(w).items()}
        return got

    def to_c(self, coeffs):
        """Rewrite a T-basis dict in c-coordinates (triangular strip-off)."""
        return strip_off(coeffs, self.c_elt)

    def c_gen_mult(self, i, coeffs):
        """c_{s_i} times a c-basis dict on element ids: c_s c_w = (v + v^-1)
        c_w if sw < w, else c_{sw} + sum mu(z, w) c_z over the KL table's
        `_mu_down(w, s)`."""
        sys, mu_down = self.system, self.kl._mu_down
        out = {}
        for w, c in coeffs.items():
            if sys._descents(w) >> i & 1:
                add_into(out, w, c * V_PLUS_VINV)
            else:
                add_into(out, sys._lstep(i, w), c)
                for z, _, m in mu_down(w, i):
                    add_into(out, z, c * m)
        return out

    def c_left(self, x, y, c_gen, memo):
        """c_x applied to the basis element at y, in that basis, for the id
        x: {y: 1} at x = e, else c_x = c_s c_{x'} - sum mu(z, x') c_z over
        the KL table's `_mu_down(x', s)` for x = s x' > x'.  `c_gen(i,
        coeffs)` is c_{s_i} on a fresh dict and `memo` holds the (x, y)
        results."""
        key = (x, y)
        got = memo.get(key)
        if got is None:
            sys = self.system
            if not sys._len[x]:
                got = {y: ONE}
            else:
                i = sys._elts[x].word[0]
                xp = sys._lstep(i, x)
                got = c_gen(i, self.c_left(xp, y, c_gen, memo))
                for z, _, m in self.kl._mu_down(xp, i):
                    add_scaled(got, self.c_left(z, y, c_gen, memo), -m)
            memo[key] = got
        return got

    def h_struct(self, x, y):
        """All structure constants of c_x c_y: a dict z -> coefficient, by
        `c_left` with `c_gen_mult` on ids, memoized whole; for `jring --struct`
        and the tests (`CellData` walks one left cell per column, by P8)."""
        sys = self.system
        got = self.c_left(sys._id(x), sys._id(y), self.c_gen_mult, self._h_struct)
        return {sys._elts[z]: h for z, h in got.items()}

    # -- independent bar-invariance solver ----------------------------------------

    def kl_solved(self, y, w):
        """P_{y,w} in u-units, read off c_w as the triangular bar-invariance
        solve of `bar_invariant_solve` gives it, memoized per w.

        Independent of the mu-recursion: only uses bar(T_y).
        """
        if not self.system.bruhat_leq(y, w):
            return ZERO
        c_w = self._solved.get(w)
        if c_w is None:
            c_w = self._solved[w] = bar_invariant_solve(
                w, self.system.lower_interval(w), self.bar_t)
        return c_w.get(y, ZERO).shifted(len(w.word)).halve_exponents()
