"""The Hecke module spanned by twisted involutions, its bar operator and
upper canonical basis, the leading-coefficient constants, and the induced
module over the asymptotic ring, given by the integers beta_{x,w,w'} (the
v^{2a(w')} coefficients of c_x A_w): one table, filled by walking
`HeckeAlgebra.c_left` a column w at a time over every x.

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
descent; that is a tested property, not an assumption.  The division by
u + 1 is exact (T_s a_{sw} = u a_{sw} + (u+1) a_w; Lusztig-Vogan, Bull.
Inst. Math. Acad. Sinica 7 (2012)), so every value stays in Z[v, v^-1].

Module elements are dicts {twisted involution: LaurentPoly}.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ZERO, ONE
from .hecke import (
    U_V,
    UINV_V,
    add_into,
    add_scaled,
    bar_invariant_solve,
    bilinear,
    half_step,
    strip_off,
    t_inv_gen_action,
)
from .report import Report, first_nonassociative

# v-units scalars of the four-case action (u = v^2)
_U_PLUS_1 = LaurentPoly({2: 1, 0: 1})
_U2_MINUS_U_MINUS_1 = LaurentPoly({4: 1, 2: -1, 0: -1})
_U2_MINUS_U = LaurentPoly({4: 1, 2: -1})
_U2 = LaurentPoly.monomial(4)
_U2_MINUS_1 = LaurentPoly({4: 1, 0: -1})
_UINV2 = LaurentPoly.monomial(-4)


class InvolutionModule:
    """The module on I_* for one Coxeter system (finite, or length-truncated)."""

    def __init__(self, algebra, max_len=None):
        self.algebra = algebra
        self.system = algebra.system
        self.max_len = max_len
        self.basis = tuple(self.system.twisted_involutions(max_len=max_len))
        self._bar_a = {}
        self._a_upper = {}
        self._f = {}
        self._cs_rows = {}
        self._beta = None  # (cells, {(x, w): beta row}, {check: witness})

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
                    add_into(out, w, c * U_V)
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

    # -- bar operator ---------------------------------------------------------------

    def _bar_ts(self, i, m):
        """bar(T_s) = u^-2 T_s + (u^-2 - 1), applied to a module element."""
        return t_inv_gen_action(self.ts_action(i, m), m, _UINV2)

    def bar_a_via(self, w, i):
        """bar(a_w) computed through the descent i, from the memoized bar(a_v)."""
        half, v = self._case(i, w)
        if len(v.word) >= len(w.word):
            raise ValueError("%d is not a left descent of %s" % (i + 1, w))
        prev = self.bar_a(v)
        ts = self._bar_ts(i, prev)
        # a_w = (u+1)^-1 (T_s - u) a_sw, barred with u -> u^-1
        return half_step(ts, prev, UINV_V) if half else ts

    def bar_a(self, w):
        """bar(a_w), memoized: a_e at e, else through the first letter of w."""
        got = self._bar_a.get(w)
        if got is None:
            got = self._bar_a[w] = self.bar_a_via(w, w.word[0]) if w.word else {w: ONE}
        return got

    def bar_m(self, m):
        """The semilinear bar operator on a module element."""
        out = {}
        for w, c in m.items():
            add_scaled(out, self.bar_a(w), c.bar())
        return out

    # -- the upper canonical basis ----------------------------------------------------

    def a_upper(self, w):
        """A_w = v^{-l(w)} sum_{y <= w} P^sigma_{y,w}(u) a_y: the unique
        bar-invariant element with this triangular, degree-bounded shape.

        Returns the module element, memoized; `psigma` reads P^sigma off it.
        The triangular solve (`hecke.bar_invariant_solve`) certifies existence
        and uniqueness, and its shape is the P^sigma degree bound: for y != w
        it sets pi_y = v^{-l(y)} f with f strictly negatively supported, so
        v^{l(w)} pi_y has degree <= l(w) - l(y) - 1, and its exponents are
        even because every module coefficient lies in Z[u, u^-1].  Checking
        bar-invariance on top certifies the triangularity of the bar columns
        (a failure raises).
        """
        got = self._a_upper.get(w)
        if got is not None:
            return got
        sub = [y for y in self.basis if self.system.bruhat_leq(y, w)]
        pi = bar_invariant_solve(w, sub, self.bar_a)
        if self.bar_m(pi) != pi:
            raise AssertionError("A_%s is not bar-invariant" % w)
        self._a_upper[w] = pi
        return pi

    def psigma(self, y, w):
        """P^sigma_{y,w} in u-units (integer coefficients, possibly negative):
        the coefficient of a_y in A_w, shifted by v^{l(w)} and halved."""
        return self.a_upper(w).get(y, ZERO).shifted(len(w.word)).halve_exponents()

    # -- leading-coefficient constants and the induced module ---------------------------

    def f_constants(self, x, w):
        """A-basis coordinates of c_x A_w, a dict w' -> f_{x,w,w'}, memoized for
        every (x, w): for `invmod --tables` and the tests, not the verifier."""
        return self.algebra.c_left(x.id, w, self._cs_action, self._f)

    def _cs_action(self, i, m):
        """c_{s_i} = u^-1 (T_s + 1) on A-basis coordinates (c_s at parameter
        u^2: exponent doubling is a ring map, mu an integer), the sum of the
        rows u^-1 (T_s + 1) A_w, each stripped off once."""
        out = {}
        for w, c in m.items():
            row = self._cs_rows.get((i, w))
            if row is None:
                aw = self.a_upper(w)
                row = {}
                add_scaled(row, self.ts_action(i, aw), UINV_V)
                add_scaled(row, aw, UINV_V)
                row = self._cs_rows[i, w] = strip_off(row, self.a_upper)
            add_scaled(out, row, c)
        return out

    def cm_action(self, j, t, cells):
        """The induced action of the asymptotic ring: t_x tau_w = sum beta tau_{w'}."""
        return bilinear(j, t, lambda x, w: self._beta_row(x, w, cells))

    def _beta_row(self, x, w, cells):
        """{w' -> beta_{x,w,w'}}, the nonzero leading coefficients of c_x A_w,
        from the table of `cells`: the table's own dict, to be read only."""
        return self._beta_walk(cells)[1].get((x, w), {})

    def _beta_walk(self, cells):
        """(cells, beta, bad), filled on first use from column w of `c_left`
        over every x, and owned by `cells` (else ValueError).  beta maps (x, w)
        to the nonzero integer v^{2a(w')} coefficients of c_x A_w; bad maps each
        failed single-row check to the last bad (x, w) in x-outer order, with
        its first bad w' for the leading-term law, else its last."""
        if self._beta is None:
            a, leq_lr, same = cells.a, cells.leq_lr, cells.same_two_sided
            beta, bad = {}, {}
            for j, w in enumerate(self.basis):
                col = {}  # the memo of column w, dropped once read
                for i, x in enumerate(cells.elements):
                    row, found, same_xw = {}, {}, same(x, w)
                    for wp, f in self.algebra.c_left(x.id, w, self._cs_action, col).items():
                        if f.degree() > 2 * a[wp]:
                            found.setdefault("leading-term-law", (str(x), str(w), str(wp)))
                        if not (leq_lr(wp, w) and leq_lr(wp, x)):
                            found["support-constraint"] = (str(x), str(w), str(wp))
                        b = f.coeff_of_v(2 * a[wp])
                        if b:
                            row[wp] = b
                            if not (same_xw and same(w, wp)):
                                found["beta-cell-support"] = (str(x), str(w), str(wp), b)
                    if row:
                        beta[x, w] = row
                        if not same_xw:
                            found["block-decomposition"] = (str(x), str(w))
                    for check, witness in found.items():  # the later (x, w) wins
                        bad[check] = max(bad.get(check, ()), ((i, j), witness))
            self._beta = cells, beta, {check: got[1] for check, got in bad.items()}
        elif self._beta[0] is not cells:
            raise ValueError("the beta table was filled with another CellData")
        return self._beta

    # -- the verifier suite -------------------------------------------------------------

    def verify_section1(self, cells):
        """Pass/fail report for the leading-term law, support constraints,
        associativity and unit laws of the induced module, and its block and
        left-cell restrictions."""
        rep = Report("invmod", self.system.describe())
        els = cells.elements
        inv = self.basis

        _, beta, single = self._beta_walk(cells)
        for check in ("leading-term-law", "support-constraint", "beta-cell-support"):
            rep.add(check, check not in single, single.get(check))

        bad = None
        unit = cells.j_unit()
        for w in inv:
            total = self.cm_action(unit, {w: 1}, cells)
            for wp in inv:
                if total.get(wp, 0) != (1 if w == wp else 0):
                    bad = (str(w), str(wp), total.get(wp, 0))
        rep.add("unit-identity", bad is None, bad)

        bad = first_nonassociative(els, inv, cells.gamma_table(), beta)
        rep.add("module-associativity", bad is None, bad and tuple(map(str, bad)))
        rep.add("block-decomposition", "block-decomposition" not in single,
                single.get("block-decomposition"))

        bad = None
        dist = set(cells.distinguished_involutions())
        for lam, inter, found in cells.star_stable_left_cells():
            if len(found) != 1:
                bad = ("distinguished-count", str(min(lam, key=lambda w: w.sort_key())),
                       len(found))
                continue
            (d,) = found
            for w in [w for w in inv if w in inter]:
                if self.cm_action({d: 1}, {w: 1}, cells) != {w: 1}:
                    bad = ("unit", str(d), str(w))
                for x in inter:
                    for wp in self._beta_row(x, w, cells):
                        if wp not in inter:
                            bad = ("closure", str(x), str(w), str(wp))
                for dp in dist - lam:
                    if self._beta_row(dp, w, cells):
                        bad = ("outside-unit", str(dp), str(w))
        rep.add("left-cell-restriction", bad is None, bad)
        return rep
