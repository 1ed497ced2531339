"""The Hecke module spanned by twisted involutions, its bar operator and
upper canonical basis, the leading-coefficient constants, and the induced
module over the asymptotic ring.

The module M is free over Z[u, u^-1] on (a_w), w in the twisted involution
set; the generator action is the four-case rule

    T_s a_w = u a_w + (u+1) a_{sw}            if sw = ws* > w
    T_s a_w = (u^2-u-1) a_w + (u^2-u) a_{sw}  if sw = ws* < w
    T_s a_w = a_{sws*}                        if sw != ws* > w
    T_s a_w = (u^2-1) a_w + u^2 a_{sws*}      if sw != ws* < w

with u = v^2 throughout, so (T_s + 1)(T_s - u^2) = 0 on M.

The bar operator is defined by the descent recursion

    a_w = (u+1)^{-1} (T_s - u) a_{sw}   when sw = ws* < w,
    a_w = T_s a_{sws*}                  when sw != ws* < w,

ground case bar(a_e) = a_e, with bar(T_s) = u^-2 T_s + (u^-2 - 1) applied
semilinearly.  The recursion is well defined independently of the chosen
descent; that is a tested property, not an assumption.  Intermediate values
live over Q(u) because of the (u+1)^{-1}; every published coefficient is
checked back into Z[v, v^-1].

Module elements are dicts {twisted involution: coefficient}; coefficients
are LaurentPoly, or RationalFn inside the bar recursion.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ZERO, ONE, as_laurent
from .hecke import (
    add_into,
    add_scaled,
    bar_invariant_solve,
    half_step,
    strip_off,
    t_inv_gen_action,
)
from .report import Report, sample_triples

# v-units scalars of the four-case action (u = v^2)
_U = LaurentPoly.monomial(2)
_U_PLUS_1 = LaurentPoly({2: 1, 0: 1})
_U2_MINUS_U_MINUS_1 = LaurentPoly({4: 1, 2: -1, 0: -1})
_U2_MINUS_U = LaurentPoly({4: 1, 2: -1})
_U2 = LaurentPoly.monomial(4)
_U2_MINUS_1 = LaurentPoly({4: 1, 0: -1})
_UINV2 = LaurentPoly.monomial(-4)
_UINV = LaurentPoly.monomial(-2)


class InvolutionModule:
    """The module on I_* for one Coxeter system (finite, or length-truncated)."""

    def __init__(self, algebra, max_len=None):
        self.algebra = algebra
        self.system = algebra.system
        self.max_len = max_len
        self.basis = tuple(self.system.twisted_involutions(max_len=max_len))
        self._bar_a = {}
        self._a_upper = {}
        self._psigma = {}
        self._f = {}

    # -- the four-case generator action ------------------------------------------

    def _case(self, i, w):
        """(sw == ws*, v) for generator i at a twisted involution w, where v
        is sw when sw = ws* and sws* otherwise; l(v) < l(w) exactly when s
        is a left descent of w."""
        sys = self.system
        t = sys.generator(sys.star_perm[i])
        sw = sys.generator(i) * w
        if sw == w * t:
            return True, sw
        return False, sw * t

    def ts_action(self, i, m):
        """T_{s_i} acting on a module element (a-basis coordinates)."""
        out = {}
        for w, c in m.items():
            half, v = self._case(i, w)
            up = len(v.word) > len(w.word)
            if half:
                if up:
                    add_into(out, w, c * _U)
                    add_into(out, v, c * _U_PLUS_1)
                else:
                    add_into(out, w, c * _U2_MINUS_U_MINUS_1)
                    add_into(out, v, c * _U2_MINUS_U)
            elif up:
                add_into(out, v, c)
            else:
                add_into(out, w, c * _U2_MINUS_1)
                add_into(out, v, c * _U2)
        return out

    def t_word_action(self, word, m):
        for i in reversed(word):
            m = self.ts_action(i, m)
        return m

    # -- bar operator ---------------------------------------------------------------

    def _bar_ts(self, i, m):
        """bar(T_s) = u^-2 T_s + (u^-2 - 1), applied to a module element."""
        return t_inv_gen_action(self.ts_action(i, m), m, _UINV2)

    def bar_a_via(self, w, i):
        """bar(a_w) computed through the descent i (RationalFn coefficients)."""
        half, v = self._case(i, w)
        if len(v.word) >= len(w.word):
            raise ValueError("%d is not a left descent of %s" % (i + 1, w))
        prev = self._bar_a_rational(v)
        if half:
            # a_w = (u+1)^-1 (T_s - u) a_sw, barred with u -> u^-1
            return half_step(self._bar_ts(i, prev), prev, _UINV)
        return self._bar_ts(i, prev)

    def _bar_a_rational(self, w):
        if not w.word:
            return {w: ONE}
        got = self._bar_a.get(w)
        if got is not None:
            return got
        return self.bar_a_via(w, w.word[0])

    def bar_a(self, w):
        """bar(a_w) with integral (Laurent) coefficients, memoized."""
        got = self._bar_a.get(w)
        if got is None:
            raw = self._bar_a_rational(w)
            got = {x: as_laurent(c) for x, c in raw.items()}
            self._bar_a[w] = got
        return got

    def bar_m(self, m):
        """The semilinear bar operator on a module element."""
        out = {}
        for w, c in m.items():
            cl = as_laurent(c) if not isinstance(c, LaurentPoly) else c
            add_scaled(out, self.bar_a(w), cl.bar())
        return out

    # -- the upper canonical basis ----------------------------------------------------

    def a_upper(self, w):
        """A_w = v^{-l(w)} sum_{y <= w} P^sigma_{y,w}(u) a_y: the unique
        bar-invariant element with this triangular, degree-bounded shape.

        Returns the module element; the P^sigma table entry is cached and
        available through `psigma`.  The triangular solve
        (`hecke.bar_invariant_solve`) certifies existence and uniqueness;
        the P^sigma degree bound and bar-invariance are checked on top (any
        failure raises).
        """
        got = self._a_upper.get(w)
        if got is not None:
            return got
        sub = [y for y in self.basis if self.system.bruhat_leq(y, w)]
        pi = bar_invariant_solve(w, sub, self.bar_a)
        lw = len(w.word)
        psig = {}
        for y, c in pi.items():
            p = c.shifted(lw).halve_exponents()
            d = p.degree()
            if y != w and d is not None and 2 * d > lw - len(y.word) - 1:
                raise AssertionError("P^sigma degree bound violated at (%s,%s)" % (y, w))
            psig[y] = p
        if self.bar_m(pi) != pi:
            raise AssertionError("A_%s is not bar-invariant" % w)
        self._a_upper[w] = pi
        self._psigma[w] = psig
        return pi

    def psigma(self, y, w):
        """P^sigma_{y,w} in u-units (integer coefficients, possibly negative)."""
        if w not in self._psigma:
            self.a_upper(w)
        return self._psigma[w].get(y, ZERO)

    # -- leading-coefficient constants and the induced module ---------------------------

    def f_constants(self, x, w):
        """A-basis coordinates of c_x A_w: a dict w' -> f_{x,w,w'}.  The
        rows of x = e and x = s strip off A_w and c_s A_w = u^-1 (T_s + 1) A_w
        (c_s at parameter u^2); longer x follow `h_struct`'s recursion
        (exponent doubling is a ring map, mu an integer):
        f(x, w) = sum f(x', w)[w'] f(s, w') - sum mu(z, x') f(z, w)."""
        key = (x, w)
        got = self._f.get(key)
        if got is None:
            if len(x.word) < 2:
                m = aw = self.a_upper(w)
                if x.word:
                    m = {}
                    add_scaled(m, self.ts_action(x.word[0], aw), _UINV)
                    add_scaled(m, aw, _UINV)
                got = strip_off(m, self.a_upper)
            else:
                s = self.system.generator(x.word[0])
                xp = s * x
                got = {}
                for wp, c in self.f_constants(xp, w).items():
                    add_scaled(got, self.f_constants(s, wp), c)
                for z, m in self.algebra.mu_down(x.word[0], xp):
                    add_scaled(got, self.f_constants(z, w), -m)
            self._f[key] = got
        return got

    def beta_table(self, cells):
        """{(x, w) -> {w' -> beta}} over all x in W, w in I_* (nonzero only)."""
        return {
            (x, w): self._beta_row(x, w, cells)
            for x in cells.elements
            for w in self.basis
        }

    def cm_action(self, j, t, cells):
        """The induced action of the asymptotic ring: t_x tau_w = sum beta tau_{w'}."""
        out = {}
        for x, cx in j.items():
            for w, cw in t.items():
                add_scaled(out, self._beta_row(x, w, cells), cx * cw)
        return out

    def _beta_row(self, x, w, cells):
        """{w' -> beta_{x,w,w'}}: the nonzero leading coefficients of c_x A_w."""
        row = {}
        for wp, f in self.f_constants(x, w).items():
            b = f.coeff_of_v(2 * cells.a[wp])
            if b:
                row[wp] = b
        return row

    # -- the verifier suite -------------------------------------------------------------

    def verify_section1(self, cells, n_random=2000):
        """Pass/fail report for the leading-term law, support constraints,
        associativity and unit laws of the induced module, and its block and
        left-cell restrictions."""
        rep = Report("invmod", self.system.describe())
        els = cells.elements
        inv = self.basis
        part = cells.partition

        bad = None
        for x in els:
            for w in inv:
                for wp, f in self.f_constants(x, w).items():
                    d = f.degree()
                    if d is not None and d > 2 * cells.a[wp]:
                        bad = (str(x), str(w), str(wp))
                        break
        rep.add("leading-term-law", bad is None, bad)

        bad = None
        for x in els:
            for w in inv:
                for wp in self.f_constants(x, w):
                    if not (part.preceq(wp, w) and part.preceq(wp, x)):
                        bad = (str(x), str(w), str(wp))
        rep.add("support-constraint", bad is None, bad)

        bad = None
        for x in els:
            for w in inv:
                for wp, b in self._beta_row(x, w, cells).items():
                    if not (part.same_two_sided(x, w) and part.same_two_sided(w, wp)):
                        bad = (str(x), str(w), str(wp), b)
        rep.add("beta-cell-support", bad is None, bad)

        bad = None
        for w in inv:
            for wp in inv:
                total = sum(
                    self._beta_row(d, w, cells).get(wp, 0)
                    for d in cells.distinguished_involutions()
                )
                if total != (1 if w == wp else 0):
                    bad = (str(w), str(wp), total)
        rep.add("unit-identity", bad is None, bad)

        bad = None
        for x, y, w in sample_triples(els, els, inv, n_random):
            lhs = self.cm_action(cells.j_mult({x: 1}, {y: 1}), {w: 1}, cells)
            rhs = self.cm_action({x: 1}, self.cm_action({y: 1}, {w: 1}, cells), cells)
            if lhs != rhs:
                bad = (str(x), str(y), str(w))
                break
        rep.add("module-associativity", bad is None, bad)

        bad = None
        for x in els:
            for w in inv:
                if not part.same_two_sided(x, w) and self._beta_row(x, w, cells):
                    bad = (str(x), str(w))
        rep.add("block-decomposition", bad is None, bad)

        bad = None
        dist = set(cells.distinguished_involutions())
        for lam in part.left_cells:
            if frozenset(w.star() for w in lam) != lam:
                continue
            lam_inv = frozenset(w.inverse() for w in lam)
            inter_inv = [w for w in inv if w in lam and w in lam_inv]
            if len(lam & dist) != 1:
                bad = ("distinguished-count", str(min(lam, key=lambda w: w.sort_key())),
                       len(lam & dist))
                continue
            (d,) = lam & dist
            for w in inter_inv:
                if self.cm_action({d: 1}, {w: 1}, cells) != {w: 1}:
                    bad = ("unit", str(d), str(w))
                for x in lam & lam_inv:
                    for wp in self._beta_row(x, w, cells):
                        if wp not in lam or wp not in lam_inv:
                            bad = ("closure", str(x), str(w), str(wp))
                for dp in dist - lam:
                    if self._beta_row(dp, w, cells):
                        bad = ("outside-unit", str(dp), str(w))
        rep.add("left-cell-restriction", bad is None, bad)
        return rep
