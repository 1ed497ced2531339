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

Two backend models:

- a matrix model (the standard geometric representation with integral
  Cartan-style entries), available whenever every bond order m(i,j) lies in
  {2, 3, 4, 6, inf}.  The state of w is the matrix of w^-1; i is a left
  descent of w iff its i-th column is nonpositive (w^-1 sends alpha_i to a
  negative root), which peels off the normal form greedily;
- an exact dihedral word model for rank <= 2 and arbitrary bond order
  (covers I2(5), I2(7), ... where the matrix entries are irrational).

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

INF = 0  # Coxeter-matrix encoding of m(i,j) = infinity

# a_ij, a_ji with a_ij * a_ji = 4 cos^2(pi/m); keeps the matrix model integral
_CARTAN_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


class InfiniteGroupError(ValueError):
    """Raised when a full enumeration of an infinite group is requested."""


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def _identity_mat(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def bits(b):
    """The indices of the set bits of the int b, ascending."""
    return [i for i, ch in enumerate(reversed(bin(b))) if ch == "1"]


class ReflectionRep:
    """Exact matrix action of the generators on the geometric representation.

    Requires all bond orders in {2, 3, 4, 6, inf}.  Generator matrices are
    integral involutions; descent tests read off root-sign changes.
    """

    def __init__(self, matrix):
        n = len(matrix)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
            for j in range(i + 1, n):
                m = matrix[i][j]
                if m not in _CARTAN_PAIRS:
                    raise ValueError("bond order %r has no integral model" % m)
                a[i][j], a[j][i] = _CARTAN_PAIRS[m]
        gens = []
        for i in range(n):
            rows = [list(r) for r in _identity_mat(n)]
            for j in range(n):
                rows[i][j] = -1 if j == i else -a[i][j]
            gens.append(tuple(tuple(r) for r in rows))
        self.n = n
        self.gens = tuple(gens)
        self.identity = _identity_mat(n)

    @staticmethod
    def _column_nonpositive(mat, i):
        return all(row[i] <= 0 for row in mat)


class _MatrixBackend:
    """States are the matrices of w^-1."""

    def __init__(self, matrix):
        self.rep = ReflectionRep(matrix)
        self.identity = self.rep.identity

    def left(self, b, i):
        """State of s_i w: (s_i w)^-1 = w^-1 s_i."""
        return _mat_mul(b, self.rep.gens[i])

    def right(self, b, i):
        """State of w s_i: (w s_i)^-1 = s_i w^-1."""
        return _mat_mul(self.rep.gens[i], b)

    def word(self, b):
        """ShortLex normal form: peel off the smallest left descent."""
        rep = self.rep
        out = []
        while b != rep.identity:
            for i in range(rep.n):
                if rep._column_nonpositive(b, i):
                    out.append(i)
                    b = _mat_mul(b, rep.gens[i])
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
        if n <= 2 and not all(
            matrix[i][j] in _CARTAN_PAIRS
            for i in range(n)
            for j in range(n)
            if i != j
        ):
            self._backend = _DihedralBackend(matrix[0][1])
        else:
            self._backend = _MatrixBackend(matrix)
        # per id: element, backend state, length; None marks an unfilled entry
        self._elts = []
        self._state = []
        self._len = []
        self._of_state = {}
        self._lmul = [[] for _ in range(n)]
        self._rmul = [[] for _ in range(n)]
        self._desc = []  # left-descent bitmask
        self._ivl = []  # lower Bruhat interval as a bitset over ids
        self._ivl_set = {}
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
            if "INF" in key:
                return cls([[1, INF], [INF, 1]], star=star, label="Dinf")
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
                for y in bits(b):
                    b |= 1 << self._lstep(s, y)
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
        if self.rank == 1:
            return True
        orders = [self.matrix[i][j] for i in range(self.rank)
                  for j in range(i + 1, self.rank)]
        if any(m == INF for m in orders):
            return False
        if self.rank == 2:
            return True
        if self.rank == 3:
            # spherical triangle condition 1/a + 1/b + 1/c > 1
            a, b, c = orders
            return a * b + b * c + c * a > a * b * c
        return None  # unknown; enumeration will probe with a cap

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

    def elements(self, max_len=None, cap=100000):
        """All elements of length <= max_len (all of W when max_len is None),
        sorted by (length, word)."""
        if max_len is None:
            fin = self.is_finite
            if fin is False:
                raise InfiniteGroupError(
                    "infinite Coxeter group: pass max_len for a bounded window"
                )
        layers = self._layers
        stop = None if max_len is None else max_len + 1
        total = sum(len(layer) for layer in layers[:stop])
        while layers[-1] and (stop is None or len(layers) < stop) and total <= cap:
            layers.append(self._next_layer())
            total += len(layers[-1])
        if total > cap:
            raise InfiniteGroupError(
                "enumeration exceeded cap=%d; group looks infinite" % cap
            )
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
        x = self._id(w)
        got = self._ivl_set.get(x)
        if got is None:
            elts = self._elts
            got = self._ivl_set[x] = frozenset(elts[y] for y in bits(self._lower_bits(x)))
        return got

    def bruhat_leq(self, y, w):
        y, w = self._id(y), self._id(w)
        return self._len[y] <= self._len[w] and bool(self._lower_bits(w) >> y & 1)
