import itertools
import random

from heckework.laurent import LaurentPoly, RationalFn, ONE, ZERO
from oracles import sign_split_check

U = LaurentPoly({2: 1})


def unit(ctx, label):
    return {ctx.sys.element(label): ONE}


def test_ts_action_four_cases(a1, a2):
    e = a2.sys.identity
    got = a2.inv.ts_action(0, {e: ONE})
    assert got == {e: U, a2.sys.element("1"): LaurentPoly({2: 1, 0: 1})}
    s = a1.sys.element("1")
    got = a1.inv.ts_action(0, {s: ONE})
    assert got == {
        s: LaurentPoly({4: 1, 2: -1, 0: -1}),
        a1.sys.identity: LaurentPoly({4: 1, 2: -1}),
    }
    w0 = a2.sys.element("121")
    got = a2.inv.ts_action(0, {w0: ONE})
    assert got == {
        w0: LaurentPoly({4: 1, 0: -1}),
        a2.sys.element("2"): LaurentPoly({4: 1}),
    }


def test_quadratic_relation_on_module(a2, a3, b2):
    u2 = LaurentPoly({4: 1})
    for ctx in (a2, a3, b2):
        for w in ctx.inv.basis:
            for i in range(ctx.sys.rank):
                m = {w: ONE}
                t = ctx.inv.ts_action(i, m)
                tt = ctx.inv.ts_action(i, t)
                # (T_s + 1)(T_s - u^2) = 0, i.e. T_s^2 = (u^2-1) T_s + u^2
                lhs = tt
                rhs = {}
                for x, c in t.items():
                    cur = rhs.get(x, ZERO) + c * LaurentPoly({4: 1, 0: -1})
                    if cur:
                        rhs[x] = cur
                for x, c in m.items():
                    cur = rhs.get(x, ZERO) + c * u2
                    if cur:
                        rhs[x] = cur
                    else:
                        rhs.pop(x, None)
                assert lhs == rhs


def test_braid_relations_on_module(a2, a3, b2, g2):
    for ctx in (a2, a3, b2, g2):
        n = ctx.sys.rank
        for i in range(n):
            for j in range(i + 1, n):
                m_ij = ctx.sys.matrix[i][j]
                word1 = tuple(itertools.islice(itertools.cycle((i, j)), m_ij))
                word2 = tuple(itertools.islice(itertools.cycle((j, i)), m_ij))
                for w in ctx.inv.basis:
                    m = {w: ONE}
                    assert ctx.inv.t_word_action(word1, m) == ctx.inv.t_word_action(
                        word2, m
                    )


def test_h_action_well_defined(a2):
    # T_e acts as the identity; braid check on every basis element
    for w in a2.inv.basis:
        assert a2.inv.t_word_action((), {w: ONE}) == {w: ONE}
    a121 = a2.sys.element("121")
    lhs = a2.inv.ts_action(0, unit(a2, "2"))
    rhs = a2.inv.ts_action(1, unit(a2, "1"))
    assert lhs == rhs == {a121: ONE}


def test_bar_examples(a1):
    e = a1.sys.identity
    assert a1.inv.bar_a(e) == {e: ONE}
    s = a1.sys.element("1")
    assert a1.inv.bar_a(s) == {
        s: LaurentPoly({-2: 1}),
        e: LaurentPoly({-2: 1, 0: -1}),
    }


def test_bar_involutive(a2, a3):
    for ctx in (a2, a3):
        for w in ctx.inv.basis:
            assert ctx.inv.bar_m(ctx.inv.bar_a(w)) == {w: ONE}


def test_bar_semilinear(a2):
    rng = random.Random(3)
    for _ in range(50):
        w = rng.choice(a2.inv.basis)
        c = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
        if c.is_zero():
            continue
        lhs = a2.inv.bar_m({w: c})
        rhs = {x: a * c.bar() for x, a in a2.inv.bar_a(w).items()}
        assert lhs == rhs


def test_bar_commutes_with_bar_h_action(a2):
    # bar(T_s m) = bar(T_s) bar(m) on basis elements
    for w in a2.inv.basis:
        for i in range(a2.sys.rank):
            lhs = a2.inv.bar_m(a2.inv.ts_action(i, {w: ONE}))
            rhs = a2.inv._bar_ts(i, a2.inv.bar_m({w: ONE}))
            rhs = {
                x: c if isinstance(c, LaurentPoly) else c.as_laurent()
                for x, c in rhs.items()
            }
            assert lhs == rhs


def test_bar_descent_independence(a3, b2):
    for ctx in (a3, b2):
        for w in ctx.inv.basis:
            if not w.word:
                continue
            results = []
            for i in sorted(ctx.sys.left_descents(w)):
                got = ctx.inv.bar_a_via(w, i)
                results.append(
                    {x: RationalFn._coerce(c) for x, c in got.items()}
                )
            assert all(r == results[0] for r in results[1:])


def test_a_upper_examples(a1, a2):
    e1 = a1.sys.identity
    assert a1.inv.a_upper(e1) == {e1: ONE}
    s = a1.sys.element("1")
    vinv = LaurentPoly({-1: 1})
    assert a1.inv.a_upper(s) == {s: vinv, e1: vinv}
    assert a1.inv.psigma(e1, s) == ONE
    # A2: all P^sigma attached to the longest involution
    w0 = a2.sys.element("121")
    aw0 = a2.inv.a_upper(w0)
    assert set(aw0) == set(a2.inv.basis)


def test_a_upper_bar_invariant(a3):
    for w in a3.inv.basis:
        aw = a3.inv.a_upper(w)
        assert a3.inv.bar_m(aw) == aw


def test_psigma_degree_bound(a3, b2):
    for ctx in (a3, b2):
        for w in ctx.inv.basis:
            ctx.inv.a_upper(w)
            for y in ctx.inv.basis:
                p = ctx.inv.psigma(y, w)
                if y == w:
                    assert p == ONE
                elif p:
                    assert 2 * p.degree() <= len(w.word) - len(y.word) - 1


def test_f_constants_unit(a2):
    e = a2.sys.identity
    for w in a2.inv.basis:
        assert a2.inv.f_constants(e, w) == {w: ONE}


def test_f_leading_form(a2, a3):
    # f = beta v^{2a(w')} + lower terms
    for ctx in (a2, a3):
        for x in ctx.cells.elements:
            for w in ctx.inv.basis:
                for wp, f in ctx.inv.f_constants(x, w).items():
                    assert f.degree() <= 2 * ctx.cells.a[wp]


def test_f_support_constraint(a2, a3):
    for ctx in (a2, a3):
        part = ctx.cells.partition
        for x in ctx.cells.elements:
            for w in ctx.inv.basis:
                for wp in ctx.inv.f_constants(x, w):
                    assert part.preceq(wp, w)
                    assert part.preceq(wp, x)


def test_beta_unit_sum(a2, a3):
    for ctx in (a2, a3):
        dist = ctx.cells.distinguished_involutions()
        for w in ctx.inv.basis:
            for wp in ctx.inv.basis:
                total = sum(ctx.inv._beta_row(d, w, ctx.cells).get(wp, 0) for d in dist)
                assert total == (1 if w == wp else 0)


def test_beta_cell_constraint(a2, a3):
    for ctx in (a2, a3):
        part = ctx.cells.partition
        for x in ctx.cells.elements:
            for w in ctx.inv.basis:
                for wp in ctx.inv.basis:
                    if ctx.inv._beta_row(x, w, ctx.cells).get(wp, 0):
                        assert part.same_two_sided(x, w)
                        assert part.same_two_sided(w, wp)


def test_beta_table_a2_middle_cell(a2):
    # frozen from the oracle (f_constants + leading-coefficient extraction);
    # the middle cell acts on {tau_1, tau_2} like the 2x2 matrix-unit algebra
    expected = {
        ("1", "1", "1"): 1,
        ("2", "2", "2"): 1,
        ("12", "2", "1"): 1,
        ("21", "1", "2"): 1,
    }
    got = {}
    for x in a2.cells.elements:
        for w in a2.inv.basis:
            for wp in a2.inv.basis:
                b = a2.inv._beta_row(x, w, a2.cells).get(wp, 0)
                if b and len(x.word) in (1, 2):
                    got[(str(x), str(w), str(wp))] = b
    assert got == expected


def test_cm_unit_and_blocks(a2, a3):
    for ctx in (a2, a3):
        cd = ctx.cells
        one = cd.j_unit()
        for w in ctx.inv.basis:
            assert ctx.inv.cm_action(one, {w: 1}, cd) == {w: 1}
        for x in cd.elements:
            for w in ctx.inv.basis:
                if not cd.partition.same_two_sided(x, w):
                    assert ctx.inv.cm_action({x: 1}, {w: 1}, cd) == {}


def test_cm_associativity(a2, a3):
    cd = a2.cells
    for x, y in itertools.product(a2.cells.elements, repeat=2):
        for w in a2.inv.basis:
            lhs = a2.inv.cm_action(cd.j_mult({x: 1}, {y: 1}), {w: 1}, cd)
            rhs = a2.inv.cm_action({x: 1}, a2.inv.cm_action({y: 1}, {w: 1}, cd), cd)
            assert lhs == rhs
    rng = random.Random(9)
    cd3 = a3.cells
    for _ in range(300):
        x, y = rng.choice(cd3.elements), rng.choice(cd3.elements)
        w = rng.choice(a3.inv.basis)
        lhs = a3.inv.cm_action(cd3.j_mult({x: 1}, {y: 1}), {w: 1}, cd3)
        rhs = a3.inv.cm_action({x: 1}, a3.inv.cm_action({y: 1}, {w: 1}, cd3), cd3)
        assert lhs == rhs


def test_sign_split_against_triple_product(a2, a3):
    # |f| <= H coefficientwise; H-coefficient 0 forces 0; 1 forces +-1
    for x in a2.cells.elements:
        for w in a2.inv.basis:
            for wp in a2.inv.basis:
                ok, detail = sign_split_check(a2.inv, x, w, wp)
                assert ok, detail
    rng = random.Random(17)
    for _ in range(60):
        x = rng.choice(a3.cells.elements)
        w = rng.choice(a3.inv.basis)
        wp = rng.choice(a3.inv.basis)
        ok, detail = sign_split_check(a3.inv, x, w, wp)
        assert ok, detail


def test_verify_section1_reports(a2, a3, b2):
    for ctx in (a2, a3, b2):
        rep = ctx.inv.verify_section1(ctx.cells, n_random=300)
        assert rep.passed, [c.to_json() for c in rep.checks]


def test_missing_distinguished_involution_fails_left_cell_restriction(b2, monkeypatch):
    # a *-stable left cell without its distinguished involution is a failed
    # check with a witness, not a crash of the unpack
    cd = b2.cells
    dist = cd.distinguished_involutions()
    part = cd.partition
    stable = [lam for lam in part.left_cells if frozenset(w.star() for w in lam) == lam]
    lam = stable[-1]
    monkeypatch.setattr(cd, "distinguished_involutions", lambda: tuple(d for d in dist if d not in lam))
    rep = b2.inv.verify_section1(cd, n_random=50)
    (check,) = [c for c in rep.checks if c.check_id == "left-cell-restriction"]
    least = min(lam, key=lambda w: w.sort_key())
    assert not check.passed
    assert check.witness == ("distinguished-count", str(least), 0)
    assert not rep.passed


def test_dinf_truncated_bar_and_a_basis(dinf):
    # a-function-free checks on the truncated twisted involution set
    for w in dinf.inv.basis:
        if len(w.word) > 9:
            continue
        assert dinf.inv.bar_m(dinf.inv.bar_a(w)) == {w: ONE}
        aw = dinf.inv.a_upper(w)
        assert dinf.inv.bar_m(aw) == aw
        for y, c in aw.items():
            assert isinstance(c, LaurentPoly)  # integral coefficients
