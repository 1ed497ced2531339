"""Exact Laurent-polynomial arithmetic in the indeterminate v.

Conventions used throughout the package:

- The base ring is Z[v, v^-1], stored sparsely as {exponent: coefficient}.
- u is shorthand for v^2.  Quantities living in Z[u, u^-1] are Laurent
  polynomials supported on even v-exponents.  `subst_v_to_u` doubles every
  exponent, i.e. evaluates p(v) at v = u; `halve_exponents` is its inverse
  on even-supported polynomials.
- Kazhdan-Lusztig-style tables store polynomials "in u-units": the exponent
  of a monomial means a power of u.  Converting such a table entry to the
  ambient v-representation is exactly `subst_v_to_u`.
- Every computed value stays in Z[v, v^-1]: each division the package
  makes (the descent half step, row normalization) is an exact
  `try_divide`, and a quotient that does not exist raises.
- Exact division (`try_divide`) and `poly_gcd` use only Python ints: long
  division over Z, and Euclid on primitive pseudo-remainders.
- The public constructor validates: it copies its dict, coerces every
  exponent and coefficient with `int()` and drops zeros.  Only the private
  `_wrap` skips that; its callers are the ring operations in this module,
  each of which hands over a fresh dict of nonzero ints that it built
  itself and never touches again.

>>> p = LaurentPoly({3: 1, -1: 1})
>>> p.bar()
LaurentPoly({-3: 1, 1: 1})
>>> LaurentPoly({-4: 1, -6: 1, -8: -1}).pretty()
'u^{-2}+u^{-3}-u^{-4}'
"""

from __future__ import annotations

from math import gcd


class LaurentPoly:
    """Sparse integer Laurent polynomial in v; immutable by convention."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    c[int(e)] = int(a)
        self._c = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n):
        return cls({0: n})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def items(self):
        return sorted(self._c.items())

    def support(self):
        return sorted(self._c)

    def coeff_of_v(self, n):
        """The coefficient of v^n (0 when absent)."""
        return self._c.get(n, 0)

    def degree(self):
        """Maximal exponent, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    def valuation(self):
        """Minimal exponent, or None for the zero polynomial."""
        return min(self._c) if self._c else None

    def content(self):
        g = 0
        for a in self._c.values():
            g = gcd(g, abs(a))
        return g

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, a in o._c.items():
            s = c.get(e, 0) + a
            if s:
                c[e] = s
            else:
                del c[e]
        return _wrap(c)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, a in o._c.items():
            s = c.get(e, 0) - a
            if s:
                c[e] = s
            else:
                del c[e]
        return _wrap(c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        """The product; an int or a one-term factor scales and shifts."""
        if isinstance(other, int):
            return _wrap({e: a * other for e, a in self._c.items()} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q = self._c, other._c
        if len(p) < len(q):
            p, q = q, p
        if len(q) == 1:
            ((k, b),) = q.items()
            return _wrap({e + k: a * b for e, a in p.items()})
        c = {}
        for e1, a1 in p.items():
            for e2, a2 in q.items():
                e = e1 + e2
                s = c.get(e, 0) + a1 * a2
                if s:
                    c[e] = s
                else:
                    del c[e]
        return _wrap(c)

    __rmul__ = __mul__

    def shifted(self, k):
        """v^k * self."""
        return _wrap({e + k: a for e, a in self._c.items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __repr__(self):
        return "LaurentPoly(%r)" % (dict(self.items()),)

    # -- the involutions and substitutions the algebra needs ----------------

    def bar(self):
        """The bar involution v -> v^-1 (exponent negation)."""
        return _wrap({-e: a for e, a in self._c.items()})

    def subst_v_to_u(self):
        """Evaluate p(v) at v = u = v^2, i.e. double all exponents."""
        return _wrap({2 * e: a for e, a in self._c.items()})

    def halve_exponents(self):
        """Inverse of subst_v_to_u; rejects odd-supported polynomials."""
        if any(e % 2 for e in self._c):
            raise ValueError("polynomial has odd v-exponents: %r" % self)
        return _wrap({e // 2: a for e, a in self._c.items()})

    def in_z_uinv(self):
        """Whether self lies in Z[u^-1]: even, nonpositive v-exponents only."""
        return not any(e % 2 or e > 0 for e in self._c)

    def specialize_uinv_zero(self):
        """The specialization u^-1 -> 0 of an element of Z[u^-1].

        Rejects input outside Z[u^-1] (odd or positive v-exponents).
        """
        if not self.in_z_uinv():
            raise ValueError("not in Z[u^-1]: %r" % self)
        return self._c.get(0, 0)

    # -- display and serialization ------------------------------------------

    def pretty(self):
        """Display in u when the support is even, else in v (descending powers)."""
        if not self._c:
            return "0"
        even = all(e % 2 == 0 for e in self._c)
        var = "u" if even else "v"
        parts = []
        for e in sorted(self._c, reverse=True):
            a = self._c[e]
            p = e // 2 if even else e
            if p == 0:
                term = str(abs(a))
            else:
                pw = var if p == 1 else "%s^{%d}" % (var, p)
                term = pw if abs(a) == 1 else "%d%s" % (abs(a), pw)
            if not parts:
                parts.append(("-" if a < 0 else "") + term)
            else:
                parts.append(("-" if a < 0 else "+") + term)
        return "".join(parts)

    def to_json(self):
        return {"v": {str(e): a for e, a in self.items()}}

    @classmethod
    def from_json(cls, data):
        return cls({int(e): a for e, a in data["v"].items()})

    # -- exact division ------------------------------------------------------

    def try_divide(self, d):
        """Exact quotient self/d in Z[v, v^-1], or None if it does not exist.

        Integer long division from the top: it stops as soon as the leading
        coefficient of d does not divide, or a remainder is left.
        """
        d = self._coerce(d)
        if d is None or d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return _wrap({})
        num, nval = _dense(self)
        den, dval = _dense(d)
        dd = len(den) - 1
        lead = den[-1]
        quot = {}
        for i in range(len(num) - 1, dd - 1, -1):
            a = num[i]
            if a:
                c, r = divmod(a, lead)
                if r:
                    return None
                quot[i - dd + nval - dval] = c
                for j in range(dd):
                    num[i - dd + j] -= c * den[j]
        if any(num[:dd]):
            return None
        return _wrap(quot)


def _wrap(c):
    """A LaurentPoly owning c, unchecked: c must be a fresh dict of int
    exponents and nonzero int coefficients that no one else holds."""
    p = object.__new__(LaurentPoly)
    p._c = c
    p._hash = None
    return p


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def _dense(p):
    """(ascending dense coefficient list, valuation) of a nonzero polynomial."""
    lo = p.valuation()
    hi = p.degree()
    out = [0] * (hi - lo + 1)
    for e, a in p._c.items():
        out[e - lo] = a
    return out, lo


def _primitive(a):
    """A nonzero dense list divided by the gcd of its entries."""
    g = 0
    for x in a:
        g = gcd(g, x)
    return a if g == 1 else [x // g for x in a]


def _prem(a, b):
    """Primitive part of a pseudo-remainder of a by b over Z ([] for 0).

    Each step scales a by lead(b) / g and subtracts lead(a) / g times the
    shifted b, g = gcd(lead(a), lead(b)): a nonzero integer multiple of the
    remainder over Q, which is all Euclid needs.
    """
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) > db:
        la = a[-1]
        g = gcd(la, lb)
        m, k = lb // g, la // g
        s = len(a) - 1 - db
        if m != 1:
            a = [m * x for x in a]
        for j, y in enumerate(b):
            a[s + j] -= k * y
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else a


def poly_gcd(p, q):
    """gcd in Z[v, v^-1] up to units, normalized: valuation 0, positive lead.

    Gauss: gcd = gcd(contents) * gcd(primitive parts).  The primitive gcd is
    the last primitive pseudo-remainder of Euclid over Z (Knuth, TAOCP vol. 2,
    4.6.1), so only integers are used.
    """
    if p.is_zero():
        p, q = q, p
    if p.is_zero():
        return ZERO
    a = _primitive(_dense(p)[0])
    b = _primitive(_dense(q)[0]) if q else []
    while b:
        a, b = b, _prem(a, b)
    c = gcd(p.content(), q.content())
    if a[-1] < 0:
        c = -c
    return LaurentPoly({i: x * c for i, x in enumerate(a)})


class RationalFn:
    """A reduced fraction of integer Laurent polynomials (the field Q(v)).

    Canonical form: gcd(num, den) = 1 including integer content, denominator
    has valuation 0 and positive leading coefficient.  No computation in the
    package divides through it; it is the ring of the tests' second route
    for the descent recursions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g != ONE:
            num = num.try_divide(g)
            den = den.try_divide(g)
        k = den.valuation()
        if k:
            num = num.shifted(-k)
            den = den.shifted(-k)
        if den.coeff_of_v(den.degree()) < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, (LaurentPoly, int)):
            return RationalFn(_as_poly(other))
        return None

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def as_laurent(self):
        """Convert back to Z[v, v^-1]; raises when a denominator survives."""
        if self.den != ONE:
            raise ValueError("not integral: (%r)/(%r)" % (self.num, self.den))
        return self.num

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        return RationalFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def bar(self):
        return RationalFn(self.num.bar(), self.den.bar())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == ONE:
            return "RationalFn(%r)" % self.num
        return "RationalFn(%r, %r)" % (self.num, self.den)


def _as_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    raise TypeError("cannot coerce %r to LaurentPoly" % (x,))
