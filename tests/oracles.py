"""Independent reference models and second routes used as oracles by the
tests.

The group models deliberately avoid the package's own machinery: type A is
modeled by one-line permutations (length = inversion count), dihedral
groups by affine maps v -> +-v + c on Z/m (or Z for the infinite one).
Reduced words and Bruhat order are recomputed here from scratch.

The Hecke-side oracles compute through the T-basis product and strip-off,
the route the package's generator recursions for `h_struct` and
`f_constants` replaced; `ideal_basis` row-reduces the ideal itself, the
second route to the dimension `eta_check` reads off a transposed matrix.
"""

from __future__ import annotations

from heckework.hecke import add_scaled, strip_off
from heckework.idealmod import CompletionElement, canonical_rref
from heckework.laurent import ZERO


# -- the T-basis route in H and M -----------------------------------------------------


def bar_h(alg, coeffs):
    """The semilinear bar involution on a T-basis dict."""
    out = {}
    for w, c in coeffs.items():
        add_scaled(out, alg.bar_t(w), c.bar())
    return out


def h_struct_t_basis(alg, x, y):
    """c_x c_y in c-coordinates, through the T-basis product."""
    return alg.to_c(alg.mult(alg.c_elt(x), alg.c_elt(y)))


def c_act(inv, x, m):
    """The canonical basis element c_x acting on the module element m: its
    T-coordinates at parameter u^2, each T_y acting through a reduced word."""
    out = {}
    for y, c in inv.algebra.c_elt(x).items():
        add_scaled(out, inv.t_word_action(y.word, m), c.subst_v_to_u())
    return out


def f_constants_t_basis(inv, x, w):
    """c_x A_w in A-coordinates, through the T-action on the module."""
    return strip_off(c_act(inv, x, inv.a_upper(w)), inv.a_upper)


def kl_mu(kl, y, w):
    """The coefficient of u^((l(w)-l(y)-1)/2) in P_{y,w}."""
    d = len(w.word) - len(y.word)
    if d <= 0 or d % 2 == 0:
        return 0
    return kl.p(y, w).coeff_of_v((d - 1) // 2)


def ideal_basis(ideal):
    """Row-reduce {T_x X_empty : x in W}; returns (dim, basis rows)."""
    els = ideal.system.elements()
    base = ideal.x_empty()
    rows = [ideal.t_word_mult(x.word, base).laurent_coeffs() for x in els]
    rref = canonical_rref(rows, els)
    return len(rref), [CompletionElement(dict(r)) for r in rref]


def triple_H(alg, x, w, wp):
    """Coefficient of c_{w'} in c_x c_w c_{(x*)^{-1}}.

    Computed both by the direct triple product and by summing products of
    pairwise structure constants; the two must agree.
    """
    xs = alg.system.star_elt(x).inverse()
    direct = alg.to_c(
        alg.mult(alg.mult(alg.c_elt(x), alg.c_elt(w)), alg.c_elt(xs))
    ).get(wp, ZERO)
    total = ZERO
    for y, hxy in alg.h_struct(x, w).items():
        hyw = alg.h_struct(y, xs).get(wp)
        if hyw:
            total = total + hxy * hyw
    if direct != total:
        raise AssertionError("triple product mismatch at (%s, %s, %s)" % (x, w, wp))
    return direct


def sign_split_check(inv, x, w, wp):
    """Coefficientwise comparison of f_{x,w,w'} with the triple product
    coefficient H_{x,w,w'}: |f| <= H, H-coefficient 0 forces f = 0, and
    H-coefficient 1 forces f = +-1.  Returns (ok, detail)."""
    H = triple_H(inv.algebra, x, w, wp)
    f = inv.f_constants(x, w).get(wp, ZERO)
    for e in set(H.support()) | set(f.support()):
        hc = H.coeff_of_v(e)
        fc = f.coeff_of_v(e)
        if abs(fc) > hc:
            return False, ("abs", e, fc, hc)
        if hc == 0 and fc != 0:
            return False, ("zero", e, fc, hc)
        if hc == 1 and abs(fc) != 1:
            return False, ("unit", e, fc, hc)
    return True, None


# -- the reflection representation ---------------------------------------------------


def matrix_of_word(rep, word):
    """The product of the generator matrices of `rep` along word."""
    m = rep.identity
    for g in word:
        b = rep.gens[g]
        m = tuple(
            tuple(sum(row[k] * b[k][c] for k in range(len(b))) for c in range(len(b)))
            for row in m
        )
    return m


# -- type A: permutations ----------------------------------------------------------


def perm_identity(n):
    return tuple(range(n))


def perm_gen(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def perm_compose(p, q):
    """(p o q)(k) = p[q[k]]."""
    return tuple(p[q[k]] for k in range(len(p)))


def perm_of_word(n, word):
    acc = perm_identity(n)
    for g in word:
        acc = perm_compose(acc, perm_gen(n, g))
    return acc


def perm_inversions(p):
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )


def perm_left_descents(n, p):
    lp = perm_inversions(p)
    return {
        i
        for i in range(n - 1)
        if perm_inversions(perm_compose(perm_gen(n, i), p)) < lp
    }


def perm_reduced_words(n, p, _memo=None):
    if _memo is None:
        _memo = {}
    if p == perm_identity(n):
        return [()]
    got = _memo.get(p)
    if got is not None:
        return got
    words = []
    for i in sorted(perm_left_descents(n, p)):
        shorter = perm_compose(perm_gen(n, i), p)
        for rest in perm_reduced_words(n, shorter, _memo):
            words.append((i,) + rest)
    _memo[p] = words
    return words


def _is_subsequence(short, long):
    it = iter(long)
    return all(ch in it for ch in short)


def perm_bruhat_leq(n, p, q):
    """Subword criterion on one fixed reduced word of q."""
    rq = perm_reduced_words(n, q)[0]
    return any(_is_subsequence(rp, rq) for rp in perm_reduced_words(n, p))


# -- dihedral groups: affine maps v -> eps v + c --------------------------------------


def dih_gen(i):
    return (-1, 0) if i == 0 else (-1, 1)


def dih_compose(a, b, m=None):
    e1, c1 = a
    e2, c2 = b
    c = e1 * c2 + c1
    if m:
        c %= m
    return (e1 * e2, c)


def dih_of_word(word, m=None):
    acc = (1, 0)
    for g in word:
        acc = dih_compose(acc, dih_gen(g), m)
    return acc


def dih_length_table(m, max_len):
    """BFS lengths over the Cayley graph (right multiplication)."""
    table = {(1, 0): 0}
    frontier = [(1, 0)]
    length = 0
    while frontier and length < max_len:
        nxt = []
        for a in frontier:
            for i in (0, 1):
                b = dih_compose(a, dih_gen(i), m)
                if b not in table:
                    table[b] = length + 1
                    nxt.append(b)
        frontier = nxt
        length += 1
    return table
