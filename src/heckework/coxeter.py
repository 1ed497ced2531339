"""Coxeter systems at desk scale, on dense element ids and generator tables.

Every element is interned once per system: it gets a dense integer id (in
order of first appearance), its ShortLex normal form (the lexicographically
least reduced word) and a state in an exact backend model.  What the
algebra layers ask of the group is then a lookup on ids:

- ``lmul[i][x]`` and ``rmul[i][x]`` hold the ids of s_i x and x s_i;
- the left-descent bitmask of x compares lengths along ``lmul``;
- the lower Bruhat interval is an int bitset over ids: for w = s v with s
  the first letter of the normal form, ivl[w] = ivl[v] | s.ivl[v] by the
  subword property;
- products, inverses and sigma-star images fold words through the tables.

Tables are filled on first use, so truncated windows of infinite groups
(Dinf) work exactly like finite groups.  The backend only fills a table
entry: it steps the state of x by one generator, and the new state is looked
up among the interned ones; only a state never seen before is turned into a
normal form.  `elements()` takes one backend step per edge of the length
filtration, and a new element's normal form is its lex-least predecessor in
the sorted previous layer plus one letter.

One backend model per rank:

- rank 2: an exact dihedral word model for every bond order (it covers
  I2(5), I2(7), ..., where the matrix entries are irrational);
- every other rank: a matrix model (the standard geometric representation
  with integral Cartan-style entries), available whenever every bond order
  m(i,j) lies in {2, 3, 4, 6, inf}.  The state of w is the matrix of w^-1;
  i is a left descent of w iff its i-th column is nonpositive (w^-1 sends
  alpha_i to a negative root), which peels off the normal form greedily.

`CoxeterElement` objects carry their id and stay the public currency.  An
element belongs to the one system instance that interned it, so equality is
identity; a system rejects the elements of any other instance, even of an
equal one, with ValueError.  The lazily filled tables are not thread-safe.

Bond order infinity is encoded as 0, matching the external matrix format.
Words are displayed as digit strings over 1..n ("121321"); the identity
prints as "e".
"""

from __future__ import annotations

import hashlib
import json
from itertools import compress, count

INF = 0  # Coxeter-matrix encoding of m(i,j) = infinity
ELEMENT_LIMIT = 100000  # the most elements `elements()` enumerates

# a_ij, a_ji with a_ij * a_ji = 4 cos^2(pi/m); keeps the matrix model integral
_CARTAN_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


class InfiniteGroupError(ValueError):
    """Raised when a full enumeration of an infinite group is requested."""


def _identity_mat(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


_BIT = bytes.maketrans(b"01", b"\x00\x01")


def bits(b):
    """The indices of the set bits of the int b >= 0, ascending."""
    return list(compress(count(), bin(b)[:1:-1].encode().translate(_BIT)))


class ReflectionRep:
    """Exact matrix action of the generators on the geometric representation,
    and the matrix backend: the state of w is the matrix of w^-1.

    Requires all bond orders in {2, 3, 4, 6, inf}.  With a_i the i-th row of
    the integral Cartan matrix (a_ii = 2), s_i = 1 - e_i a_i^T is a rank-one
    change of the identity, so one step never forms a full matrix product:
    s_i b rewrites row i of b only, and b s_i subtracts r[i] a_i from each
    row r with r[i] != 0.  `gens` holds the generator matrices themselves,
    integral involutions; descent tests read off root-sign changes.
    """

    def __init__(self, matrix):
        n = len(matrix)
        a = self.cartan = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
            for j in range(i + 1, n):
                m = matrix[i][j]
                if m not in _CARTAN_PAIRS:
                    raise ValueError("bond order %r has no integral model" % m)
                a[i][j], a[j][i] = _CARTAN_PAIRS[m]
        self.n = n
        self.identity = _identity_mat(n)
        # s_i as a matrix: the identity with row i = (-a_i1, ..., -1, ..., -a_in)
        self.gens = tuple(
            self.identity[:i] + (tuple(-1 if c == i else -a[i][c] for c in range(n)),)
            + self.identity[i + 1:] for i in range(n))

    def left(self, b, i):
        """State of s_i w: (s_i w)^-1 = w^-1 s_i, each row r - r[i] a_i."""
        a = self.cartan[i]
        return tuple(
            tuple(x - r[i] * y for x, y in zip(r, a)) if r[i] else r for r in b)

    def right(self, b, i):
        """State of w s_i: (w s_i)^-1 = s_i w^-1, row i b_i - sum_j a_ij b_j."""
        a = self.cartan[i]
        row = tuple(x - sum(c * r[k] for c, r in zip(a, b) if c) for k, x in enumerate(b[i]))
        return b[:i] + (row,) + b[i + 1:]

    def word(self, b):
        """ShortLex normal form: peel off the smallest left descent."""
        out = []
        while b != self.identity:
            for i in range(self.n):
                if all(row[i] <= 0 for row in b):
                    out.append(i)
                    b = self.left(b, i)
                    break
            else:
                raise AssertionError("no descent found; matrix model broken")
        return tuple(out)


class _DihedralBackend:
    """Exact word model for rank-2 systems with arbitrary bond order.

    The state (t, k) is the element r^k s_0^t with r = s_0 s_1 (k mod m when
    m is finite); normal forms are alternating words, ties at the top
    resolved to the lexicographically least word.
    """

    identity = (0, 0)

    def __init__(self, m):
        self.m = m  # bond order; INF (0) means the infinite dihedral group

    def _mod(self, t, k):
        return (t, k % self.m if self.m != INF else k)

    def left(self, state, i):
        # s_0 r^k = r^-k s_0 and s_1 = s_0 r
        t, k = state
        return self._mod(t ^ 1, -k - i)

    def right(self, state, i):
        # r^k s_0 s_1 = r^(k+1) and r^k s_1 = r^(k-1) s_0
        t, k = state
        if i == 0:
            return (t ^ 1, k)
        return self._mod(t ^ 1, k + 1 if t else k - 1)

    @staticmethod
    def _alt(first, length):
        return tuple((first + i) % 2 for i in range(length))

    def word(self, state):
        t, k = state
        m = self.m
        if m == INF:
            if t == 0:
                if k == 0:
                    return ()
                return self._alt(0, 2 * k) if k > 0 else self._alt(1, -2 * k)
            return self._alt(0, 2 * k + 1) if k >= 0 else self._alt(1, -2 * k - 1)
        if t == 0:
            if k == 0:
                return ()
            c1, c2 = 2 * k, 2 * (m - k)
        else:
            c1, c2 = 2 * k + 1, 2 * (m - k) - 1
        # ties happen only at the longest element: prefer the word starting 0
        return self._alt(0, c1) if c1 <= c2 else self._alt(1, c2)


class CoxeterElement:
    """A group element in ShortLex normal form, interned in its system."""

    __slots__ = ("system", "word", "id", "_hash", "_str")

    def __init__(self, system, word, id):
        self.system = system
        self.word = word
        self.id = id
        self._hash = hash((system._ckey, word))
        self._str = "".join(str(i + 1) for i in word) if word else "e"

    def __mul__(self, other):
        return self.system.multiply(self, other)

    def inverse(self):
        return self.system.inverse(self)

    def star(self):
        return self.system.star_elt(self)

    def left_descents(self):
        return self.system.left_descents(self)

    def bruhat_leq(self, other):
        return self.system.bruhat_leq(self, other)

    def sort_key(self):
        return (len(self.word), self.word)

    def __hash__(self):
        # by word, not by address, so that set order and every printed
        # witness are the same from run to run
        return self._hash

    def __str__(self):
        return self._str

    def __repr__(self):
        return "<%s>" % self


class CoxeterSystem:
    """A Coxeter system (W, S) with a diagram involution sigma-star."""

    def __init__(self, matrix, star=None, label=None):
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(matrix)
        for i in range(n):
            if len(matrix[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            if matrix[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and matrix[i][j] != INF and matrix[i][j] < 2:
                    raise ValueError("off-diagonal orders are >= 2 (0 = infinity)")
        if star is None:
            star = tuple(range(n))
        else:
            star = tuple(int(i) for i in star)
            if sorted(star) != list(range(n)):
                raise ValueError("star must be a permutation of the generators")
            for i in range(n):
                if star[star[i]] != i:
                    raise ValueError("star must be an involution")
            for i in range(n):
                for j in range(n):
                    if matrix[star[i]][star[j]] != matrix[i][j]:
                        raise ValueError("star must preserve the Coxeter matrix")
        self.matrix = matrix
        self.star_perm = star
        self.label = label
        self.rank = n
        self._ckey = (matrix, star)
        if n == 2:
            self._backend = _DihedralBackend(matrix[0][1])
        else:
            self._backend = ReflectionRep(matrix)
        # per id: element, backend state, length; None marks an unfilled entry
        self._elts = []
        self._state = []
        self._len = []
        self._of_state = {}
        self._lmul = [[] for _ in range(n)]
        self._rmul = [[] for _ in range(n)]
        self._desc = []  # left-descent bitmask
        self._ivl = []  # lower Bruhat interval as a bitset over ids
        self._layers = [[self._intern((), self._backend.identity)]]
        self.identity = self._elts[0]
        self._ivl[0] = 1
        self._gens = [self._elts[self._rstep(i, 0)] for i in range(n)]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_label(cls, label, star=None):
        """Build a named system: An, B2/C2, B3, G2, I2(m), Dinf."""
        lab = label.strip()
        key = lab.upper().replace("∞", "INF")
        if key.startswith("A") and key[1:].isdigit():
            n = int(key[1:])
            m = [[1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(n)]
                 for i in range(n)]
            return cls(m, star=star, label="A%d" % n)
        if key in ("B2", "C2"):
            return cls([[1, 4], [4, 1]], star=star, label="B2")
        if key == "B3":
            return cls([[1, 4, 2], [4, 1, 3], [2, 3, 1]], star=star, label="B3")
        if key == "G2":
            return cls([[1, 6], [6, 1]], star=star, label="G2")
        if key in ("DINF", "D_INF", "I2(INF)", "I2INF"):
            return cls([[1, INF], [INF, 1]], star=star, label="Dinf")
        if key.startswith("I2"):
            digits = "".join(ch for ch in key[2:] if ch.isdigit())
            if digits:
                m = int(digits)
                if m < 2:
                    raise ValueError("I2(m) needs m >= 2")
                return cls([[1, m], [m, 1]], star=star, label="I2(%d)" % m)
        raise ValueError("unknown type label %r" % label)

    def content_hash(self):
        blob = json.dumps(
            {"matrix": [list(r) for r in self.matrix],
             "star": list(self.star_perm)},
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def describe(self):
        return self.label or ("matrix:" + self.content_hash())

    # -- interning and tables ----------------------------------------------------

    def _intern(self, word, state):
        x = len(self._elts)
        self._elts.append(CoxeterElement(self, word, x))
        self._state.append(state)
        self._len.append(len(word))
        self._of_state[state] = x
        for table in (*self._lmul, *self._rmul, self._desc, self._ivl):
            table.append(None)
        return x

    def _fill(self, row, state, x, word=None):
        """row[x] := the id of `state`, interned with `word` (or the backend's
        normal form) when new; generators are involutions, so row[y] = x too."""
        y = self._of_state.get(state)
        if y is None:
            y = self._intern(self._backend.word(state) if word is None else word, state)
        row[x] = y
        row[y] = x
        return y

    def _lstep(self, i, x):
        """The id of s_i x."""
        y = self._lmul[i][x]
        if y is None:
            y = self._fill(self._lmul[i], self._backend.left(self._state[x], i), x)
        return y

    def _rstep(self, i, x):
        """The id of x s_i."""
        y = self._rmul[i][x]
        if y is None:
            y = self._fill(self._rmul[i], self._backend.right(self._state[x], i), x)
        return y

    def _id(self, w):
        """The id of w, which must have been interned here."""
        if w.system is not self:
            raise ValueError("element belongs to a different Coxeter system")
        return w.id

    def _word_id(self, word):
        """The id of the product of the generators in word."""
        x = 0
        for g in word:
            x = self._rstep(g, x)
        return x

    def _descents(self, x):
        """Left-descent bitmask of the id x."""
        d = self._desc[x]
        if d is None:
            lx = self._len[x]
            d = 0
            for i in range(self.rank):
                if self._len[self._lstep(i, x)] < lx:
                    d |= 1 << i
            self._desc[x] = d
        return d

    def _lower_bits(self, w):
        """{y : y <= w} as a bitset over ids: ivl[s v] = ivl[v] | s.ivl[v]."""
        b = self._ivl[w]
        if b is None:
            chain = []
            while b is None:
                s = self._elts[w].word[0]
                chain.append((w, s))
                w = self._lstep(s, w)
                b = self._ivl[w]
            for w, s in reversed(chain):
                row = self._lmul[s]
                for y in bits(b):
                    sy = row[y]
                    b |= 1 << (self._lstep(s, y) if sy is None else sy)
                self._ivl[w] = b
        return b

    # -- elements --------------------------------------------------------------

    def element(self, word):
        """Build an element from an iterable of generator indices or a digit string."""
        if isinstance(word, str):
            if word in ("", "e"):
                word = ()
            else:
                word = tuple(int(ch) - 1 for ch in word)
        word = tuple(word)
        for g in word:
            if not 0 <= g < self.rank:
                raise ValueError("generator index %r out of range" % g)
        return self._elts[self._word_id(word)]

    def generator(self, i):
        return self._gens[i]

    def multiply(self, a, b):
        """a * b, folding the shorter word through the tables."""
        x, y = self._id(a), self._id(b)
        if self._len[x] <= self._len[y]:
            for g in reversed(self._elts[x].word):
                y = self._lstep(g, y)
            return self._elts[y]
        for g in self._elts[y].word:
            x = self._rstep(g, x)
        return self._elts[x]

    def inverse(self, w):
        return self._elts[self._word_id(reversed(self._elts[self._id(w)].word))]

    def star_elt(self, w):
        star = self.star_perm
        return self._elts[self._word_id(star[g] for g in self._elts[self._id(w)].word)]

    def left_descents(self, w):
        return frozenset(bits(self._descents(self._id(w))))

    # -- enumeration -------------------------------------------------------------

    @property
    def is_finite(self):
        """Whether W is finite, read off the matrix.

        Rank <= 2: no bond is infinite.  Rank >= 3: the Coxeter graph (an
        edge where m(i,j) != 2) is a forest and every leading principal minor
        of the integral Cartan matrix is positive.  On a forest that matrix
        is diagonally similar to twice the Tits form, so this is Sylvester's
        test that the form is positive definite (Humphreys, Reflection Groups
        and Coxeter Groups, 6.4).  Fraction-free elimination (Bareiss, Math.
        Comp. 22, 1968) leaves the k-th leading principal minor as its k-th
        pivot.
        """
        n, m = self.rank, self.matrix
        if n <= 2:
            return all(INF not in row for row in m)
        component = list(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != 2:
                    ci, cj = component[i], component[j]
                    if ci == cj:
                        return False  # the edge closes a cycle
                    component = [ci if c == cj else c for c in component]
        a = [list(row) for row in self._backend.cartan]
        prev = 1
        for k in range(n):
            pivot = a[k][k]
            if pivot <= 0:
                return False
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            prev = pivot
        return True

    def _next_layer(self):
        """Ids of length len(layers), sorted by word: one backend step per edge.

        Layers are complete, so a state not seen before is one longer, and the
        first sorted predecessor that reaches it spells its ShortLex word."""
        length = len(self._layers) - 1
        found = set()
        out = []
        for x in self._layers[-1]:
            word = self._elts[x].word
            for i in range(self.rank):
                row = self._rmul[i]
                y = row[x]
                if y is None:
                    y = self._fill(row, self._backend.right(self._state[x], i), x,
                                   word + (i,))
                if self._len[y] > length and y not in found:
                    found.add(y)
                    out.append(y)
        out.sort(key=lambda y: self._elts[y].word)
        return out

    def elements(self, max_len=None):
        """All elements of length <= max_len (all of W when max_len is None),
        sorted by (length, word); more than ELEMENT_LIMIT is a ValueError."""
        if max_len is None and not self.is_finite:
            raise InfiniteGroupError(
                "infinite Coxeter group: pass max_len for a bounded window"
            )
        layers = self._layers
        stop = None if max_len is None else max_len + 1
        total = sum(len(layer) for layer in layers[:stop])
        while layers[-1] and (stop is None or len(layers) < stop) and total <= ELEMENT_LIMIT:
            layers.append(self._next_layer())
            total += len(layers[-1])
        if total > ELEMENT_LIMIT:
            raise ValueError("group too large: more than %d elements to enumerate"
                             % ELEMENT_LIMIT)
        elts = self._elts
        return [elts[x] for layer in layers[:stop] for x in layer]

    def twisted_involutions(self, max_len=None):
        """All w with w* = w^-1 (length <= max_len), sorted by (length, word)."""
        out = [
            w for w in self.elements(max_len=max_len)
            if self.star_elt(w) == self.inverse(w)
        ]
        return out

    # -- Bruhat order ---------------------------------------------------------------

    def lower_interval(self, w):
        """{y : y <= w}, from the subword property on the normal form."""
        elts = self._elts
        return frozenset(elts[y] for y in bits(self._lower_bits(self._id(w))))

    def bruhat_leq(self, y, w):
        y, w = self._id(y), self._id(w)
        return self._len[y] <= self._len[w] and bool(self._lower_bits(w) >> y & 1)
