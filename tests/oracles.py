"""Independent reference models and second routes used as oracles by the
tests.

The group models deliberately avoid the package's own machinery: type A is
modeled by one-line permutations (length = inversion count), dihedral
groups by affine maps v -> +-v + c on Z/m (or Z for the infinite one).
Reduced words and Bruhat order are recomputed here from scratch, and
`rsk` gives the type-A cells and a-function by Robinson-Schensted, with no
Hecke algebra at all.  `closure` closes a relation by Warshall's algorithm,
the route the cells' reachability replaced.

The Hecke-side oracles compute through the T-basis product and strip-off,
the route the package's generator recursions for `h_struct` and
`f_constants` replaced.  `eta_by_rref` is the row-reduction route to the
facts `eta_check` certifies by H-equivariance and a rank over F_p: it
compares the canonical echelon forms of the |W| images h X_empty and
h a_empty, and `ideal_basis` row-reduces the ideal itself.
`bar_a_by_chain` and `x_elt_by_chain` replay the whole descent chain over
Q(v), dividing by u + 1 through `RationalFn`, where the package takes one
memoized step that divides exactly in Z[v, v^-1].

`circ_basis_by_kappa` is the twisted circ product of the equivariant K-ring
by the route `KRing.circ_basis` replaced with its closed form: the twist
kappa found by a search over the orbit, and each trace a sum over fixed
fibers of six transporter signs.  `convolve_basis_by_points` is the
convolution by the route `KRing.convolve_basis` replaced: the two orbits'
point sets, and each trace a sum of one sign per fixed point z.
"""

from __future__ import annotations

from heckework.eqvb import char_value
from heckework.hecke import add_scaled, strip_off
from heckework.idealmod import CompletionElement, canonical_rref
from heckework.laurent import ONE, ZERO, LaurentPoly, RationalFn

U = LaurentPoly.monomial(2)
UINV = LaurentPoly.monomial(-2)


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


def t_word_action(inv, word, m):
    """T_word acting on the module element m, one generator at a time."""
    for i in reversed(word):
        m = inv.ts_action(i, m)
    return m


def t_word_mult(ideal, word, elt):
    """T_word times the completion element elt, one generator at a time."""
    for i in reversed(word):
        elt = ideal.t_gen_mult(i, elt)
    return elt


def t_act(inv, h, m):
    """The T-basis element h acting on the module element m: its
    T-coordinates at parameter u^2, each T_y acting through a reduced word."""
    out = {}
    for y, c in h.items():
        add_scaled(out, t_word_action(inv, y.word, m), c.subst_v_to_u())
    return out


def f_constants_t_basis(inv, x, w):
    """c_x A_w in A-coordinates, through the T-action on the module."""
    return strip_off(t_act(inv, inv.algebra.c_elt(x), inv.a_upper(w)), inv.a_upper)


def half_step_q(ts_coeffs, coeffs, u):
    """(u + 1)^-1 (T_s - u) applied to coeffs over Q(v), given ts_coeffs = T_s
    applied to coeffs; the coefficients come back as RationalFn."""
    num = dict(ts_coeffs)
    add_scaled(num, coeffs, -u)
    scale = RationalFn(ONE, u + ONE)
    return {x: scale * c for x, c in num.items()}


def descent_chain(inv, w):
    """(half, i) steps from the identity up to w along first letters."""
    steps = []
    while w.word:
        i = w.word[0]
        half, w = inv._case(i, w)
        steps.append((half, i))
    return steps[::-1]


def _laurent(coeffs):
    """RationalFn coefficients back in Z[v, v^-1]; raises if one is not."""
    return {x: c if isinstance(c, LaurentPoly) else c.as_laurent() for x, c in coeffs.items()}


def bar_a_by_chain(inv, w):
    """bar(a_w) by replaying w's whole descent chain on a_e, nothing stored."""
    m = {inv.system.identity: RationalFn(ONE)}
    for half, i in descent_chain(inv, w):
        t = inv._bar_ts(i, m)
        m = half_step_q(t, m, UINV) if half else t
    return _laurent(m)


def x_elt_by_chain(ideal, w, max_len=None):
    """X_w by replaying w's whole descent chain on X_empty, taken exact far
    enough that the chain leaves the window max_len; the same chain must
    send a_e to a_w."""
    steps = descent_chain(ideal.invmod, w)
    elt = ideal.x_empty(max_len=None if max_len is None else max_len + len(steps))
    m = {ideal.system.identity: RationalFn(ONE)}
    for half, i in steps:
        t = ideal.t_gen_mult(i, elt)
        tm = ideal.invmod.ts_action(i, m)
        if half:
            # a quotient past the window of T_s X need not be Laurent
            t = CompletionElement(half_step_q(t.coeffs, elt.coeffs, U),
                                  elt.exact_len).trimmed(t.exact_len)
            tm = half_step_q(tm, m, U)
        elt, m = t, tm
    assert _laurent(m) == {w: ONE}, str(w)
    return CompletionElement(_laurent(elt.coeffs), elt.exact_len)


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
    rows = [t_word_mult(ideal, x.word, base).coeffs for x in els]
    rref = canonical_rref(rows, els)
    return len(rref), [CompletionElement(dict(r)) for r in rref]


def eta_by_rref(ideal):
    """The three facts of the eta certificate by row reduction over Q(u):
    whether the kernels of h -> h X_empty and h -> h a_empty agree (equal
    echelon forms of the transposed image matrices), the ideal dimension
    (the rank of the X_empty images) and the rank of the a_empty images."""
    sys = ideal.system
    els = sys.elements()
    base = ideal.x_empty()
    images_x = [t_word_mult(ideal, x.word, base).coeffs for x in els]
    images_a = [t_word_action(ideal.invmod, x.word, {sys.identity: ONE}) for x in els]

    def transposed(images, targets):
        # rows indexed by the target basis, columns by x
        return [{x: img[y] for x, img in zip(els, images) if img.get(y)} for y in targets]

    rref_x = canonical_rref(transposed(images_x, els), els)
    rref_a = canonical_rref(transposed(images_a, ideal.invmod.basis), els)
    return rref_x == rref_a, len(rref_x), len(rref_a)


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


# -- the twisted circ product by its kappa signs --------------------------------------


def _scalar(kr, oi, phi, g, p):
    """Scalar of tau_g on the transported basis vector at point p of the
    indecomposable (orbit oi, character phi), and the point g . p."""
    o = kr.pair_orbits[oi]
    n = kr.gs.size
    q = kr.gs.act(g, p // n) * n + kr.gs.act(g, p % n)
    return char_value(phi, o.transporter[q] ^ g ^ o.transporter[p]), q


def kappa_by_search(kr, i):
    """The kappa signs eps: point -> +-1 of a self-dual basis element,
    normalized to +1 at the base point, by a breadth-first search that checks
    every edge it meets again and that eps is sigma-invariant."""
    (oi, phi) = kr.basis[i]
    o = kr.pair_orbits[oi]
    eps = {o.base: 1}
    queue = [o.base]
    while queue:
        p = queue.pop(0)
        for g in kr.gs.group:
            s1, q = _scalar(kr, oi, phi, g, p)
            s2, _ = _scalar(kr, oi, phi, g, kr._sigma_point(p))
            val = eps[p] * s1 * s2
            if q in eps:
                if eps[q] != val:
                    raise AssertionError("kappa signs inconsistent")
            else:
                eps[q] = val
                queue.append(q)
    for p, v in eps.items():
        if eps[kr._sigma_point(p)] != v:
            raise AssertionError("kappa not involutive")
    return eps


def circ_basis_by_kappa(kr, i, j):
    """V_i . (U_j, kappa_j) for j in kbar: on each sigma-stable orbit, the
    trace of tau_h then the twist A over the fibers (z, z') of V * U * V^sigma
    that A tau_h fixes, six transporter signs and one kappa sign each."""
    (ov, phi_v) = kr.basis[i]
    (ou, phi_u) = kr.basis[j]
    eps_u = kappa_by_search(kr, j)
    gs, n = kr.gs, kr.gs.size
    pts_v = set(kr.pair_orbits[ov].points)
    pts_u = set(kr.pair_orbits[ou].points)
    out = {}
    for ot in kr._sigma_stable:
        o = kr.pair_orbits[ot]
        x0, y0 = o.base // n, o.base % n
        pairs = [(z, zp) for z in range(n) for zp in range(n)
                 if x0 * n + z in pts_v and z * n + zp in pts_u and y0 * n + zp in pts_v]
        if not pairs:
            continue
        t = o.transporter[kr._sigma_point(o.base)]
        traces = {}
        for h in o.stabilizer:
            tr = 0
            for (z, zp) in pairs:
                a, b = gs.act(h, z), gs.act(h, zp)
                if (gs.act(t, b), gs.act(t, a)) != (z, zp):
                    continue
                sh1, _ = _scalar(kr, ov, phi_v, h, x0 * n + z)
                sh2, _ = _scalar(kr, ou, phi_u, h, z * n + zp)
                sh3, _ = _scalar(kr, ov, phi_v, h, y0 * n + zp)
                sa1, _ = _scalar(kr, ov, phi_v, t, y0 * n + b)
                sa2, _ = _scalar(kr, ou, phi_u, t, b * n + a)
                sa3, _ = _scalar(kr, ov, phi_v, t, x0 * n + a)
                tr += sh1 * sh2 * sh3 * eps_u[a * n + b] * sa1 * sa2 * sa3
            traces[h] = tr
        out.update(kr._multiplicities(ot, traces))
    return out


def convolve_basis_by_points(kr, i, j):
    """V_i * V_j: on each orbit with base (x0, y0), the trace of h in its
    stabilizer summed over the points z with (x0, z) in V_i's orbit and
    (z, y0) in V_j's, one sign chi_i(h) chi_j(h) for each z that h fixes."""
    (oi, phi_i) = kr.basis[i]
    (oj, phi_j) = kr.basis[j]
    n = kr.gs.size
    pts_i = set(kr.pair_orbits[oi].points)
    pts_j = set(kr.pair_orbits[oj].points)
    out = {}
    for ot, o in enumerate(kr.pair_orbits):
        x0, y0 = o.base // n, o.base % n
        zs = [z for z in range(n) if x0 * n + z in pts_i and z * n + y0 in pts_j]
        if not zs:
            continue
        traces = {}
        for h in o.stabilizer:
            t = 0
            for z in zs:
                if kr.gs.act(h, z) == z:
                    t += char_value(phi_i, h) * char_value(phi_j, h)
            traces[h] = t
        out.update(kr._multiplicities(ot, traces))
    return out


# -- relations on ids ------------------------------------------------------------------


def closure(rows):
    """Reflexive-transitive closure of a relation given by int-bitset rows
    (bit j of rows[i] set when i relates to j), in place: Warshall's
    algorithm (J. ACM 9, 1962), one row union per pair (i, k) with k in
    row i.  The second route to the preorders `cells._reach` reads off."""
    for i in range(len(rows)):
        rows[i] |= 1 << i
    for k, row_k in enumerate(rows):
        for i, row_i in enumerate(rows):
            if row_i >> k & 1:
                rows[i] = row_i | row_k
    return rows


# -- Kottwitz's identity on the left cells --------------------------------------------


def kottwitz_fault(cells, star=None):
    """The first left cell L, in `left_cells` order, where Kottwitz's identity

        |W| #(L n I_*) = sum_w chi_L(w) #{x : x x* = w}

    fails, as (the sorted words of L, the left side, the right side); None
    when every cell holds.  star is the diagram involution as a tuple of
    generator indices (None: the identity), and I_* = {w : w* = w^-1}.

    chi_L is the character of the left cell module at v = 1, the group
    algebra: T_s acts as c_s - 1, with c_s c_w from `HeckeAlgebra.c_gen_mult`
    (v + v^-1 = 2 there) restricted to L, and T_w = T_s T_w' for w = s w' in
    length order.  Every irreducible character of a finite Coxeter group is
    real, so by Frobenius-Schur #{x : x^2 = w} = sum_E chi_E(w), and the
    right side over |W| is the number of irreducible constituents of L
    counted with multiplicity.  That this is the number of involutions in L
    is Kottwitz's (Represent. Theory 4, 2000), shown there for the classical
    Weyl groups; the tests check it on dihedral and exceptional systems
    too.  With a nontrivial star the identity is checked as observed on
    these systems, not cited as a theorem.  Only the W-graph is shared with the cells: no
    a, no gamma and no KL value beyond mu."""
    system = cells.system
    els = sorted(cells.elements, key=lambda w: len(w.word))
    star = tuple(range(system.rank)) if star is None else tuple(star)
    twisted = {}  # w -> #{x : x x* = w}
    for x in els:
        w = x * system.element(star[g] for g in x.word)
        twisted[w] = twisted.get(w, 0) + 1
    for cell in cells.left_cells:
        index = {w.id: k for k, w in enumerate(sorted(cell, key=lambda w: w.sort_key()))}
        n = len(index)
        # the rows of T_s on L: row z holds (k, entry) for the basis element k
        t_rows = []
        for s in range(system.rank):
            rows = [[] for _ in range(n)]
            for w, k in index.items():
                column = {w: -1}
                for z, c in cells.algebra.c_gen_mult(s, {w: ONE}).items():
                    column[z] = column.get(z, 0) + sum(a for _, a in c.items())
                for z, e in column.items():
                    if z in index and e:
                        rows[index[z]].append((k, e))
            t_rows.append(rows)
        mats = {}  # w -> the matrix of T_w on L, as rows
        rhs = 0
        for w in els:
            if not w.word:
                m = [[int(i == j) for j in range(n)] for i in range(n)]
            else:
                rest, m = mats[system.generator(w.word[0]) * w], []
                # no row is empty: T_s e_z has the term +-e_z
                for (k, a), *more in t_rows[w.word[0]]:
                    row = [a * x for x in rest[k]]
                    for k, a in more:
                        row = [x + a * y for x, y in zip(row, rest[k])]
                    m.append(row)
            mats[w] = m
            rhs += twisted.get(w, 0) * sum(m[i][i] for i in range(n))
        fixed = sum(1 for w in cell
                    if system.element(star[g] for g in w.word) == w.inverse())
        if len(els) * fixed != rhs:
            return sorted(str(w) for w in cell), len(els) * fixed, rhs
    return None


# -- the reflection representation ---------------------------------------------------


def mat_mul(a, b):
    """The full product of two square matrices given as tuples of rows."""
    return tuple(
        tuple(sum(row[k] * b[k][c] for k in range(len(b))) for c in range(len(b)))
        for row in a
    )


def matrix_of_word(rep, word):
    """The product of the generator matrices of `rep` along word."""
    m = rep.identity
    for g in word:
        m = mat_mul(m, rep.gens[g])
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


def rsk(p):
    """(P, Q): the Robinson-Schensted insertion and recording tableaux of
    the one-line permutation p, each a tuple of rows.  Row insertion of
    p[0], p[1], ... bumps the least larger entry of each row into the next.

    With `perm_of_word` composing left to right, Kazhdan-Lusztig (1979)
    and Ariki (Adv. Stud. Pure Math. 28, 2000) give, on type A_{n-1}:
    the left cells are the classes of Q, the two-sided cells the classes of
    the shape lambda (the row lengths of P and Q), and
    a = sum_i i * lambda_i with the rows numbered from 0."""
    rows, rec = [], []
    for k, x in enumerate(p):
        r = 0
        while r < len(rows):
            row = rows[r]
            j = next((j for j, y in enumerate(row) if y > x), None)
            if j is None:
                break
            row[j], x = x, row[j]
            r += 1
        if r == len(rows):
            rows.append([])
            rec.append([])
        rows[r].append(x)
        rec[r].append(k)
    return tuple(map(tuple, rows)), tuple(map(tuple, rec))


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
