import itertools
import random

import pytest

from heckework import CoxeterSystem
from heckework.cells import CellData
from heckework.hecke import HeckeAlgebra
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly, ONE, ZERO
from oracles import sign_split_check, t_word_action

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
                    assert t_word_action(ctx.inv, word1, m) == t_word_action(
                        ctx.inv, word2, m
                    )


def test_h_action_well_defined(a2):
    # T_e acts as the identity; braid check on every basis element
    for w in a2.inv.basis:
        assert t_word_action(a2.inv, (), {w: ONE}) == {w: ONE}
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
            assert lhs == rhs


def test_bar_descent_independence(a3, b2):
    for ctx in (a3, b2):
        for w in ctx.inv.basis:
            if not w.word:
                continue
            results = [ctx.inv.bar_a_via(w, i) for i in sorted(ctx.sys.left_descents(w))]
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
        for x in ctx.cells.elements:
            for w in ctx.inv.basis:
                for wp in ctx.inv.f_constants(x, w):
                    assert ctx.cells.leq_lr(wp, w)
                    assert ctx.cells.leq_lr(wp, x)


def test_beta_unit_sum(a2, a3):
    for ctx in (a2, a3):
        dist = ctx.cells.distinguished_involutions()
        for w in ctx.inv.basis:
            for wp in ctx.inv.basis:
                total = sum(ctx.inv._beta_row(d, w, ctx.cells).get(wp, 0) for d in dist)
                assert total == (1 if w == wp else 0)


def test_beta_cell_constraint(a2, a3):
    for ctx in (a2, a3):
        for x in ctx.cells.elements:
            for w in ctx.inv.basis:
                for wp in ctx.inv.basis:
                    if ctx.inv._beta_row(x, w, ctx.cells).get(wp, 0):
                        assert ctx.cells.same_two_sided(x, w)
                        assert ctx.cells.same_two_sided(w, wp)


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
                if not cd.same_two_sided(x, w):
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
        rep = ctx.inv.verify_section1(ctx.cells)
        assert rep.passed, [c.to_json() for c in rep.checks]


def test_the_verifier_keeps_beta_as_integers_and_no_polynomial_of_c_x_a_w():
    # columns of c_x A_w are walked one at a time and dropped once read:
    # the verifier leaves the f_constants memo empty, and beta is integers
    alg = HeckeAlgebra(CoxeterSystem.from_label("B3"))
    cd, inv = CellData(alg), InvolutionModule(alg)
    assert inv.verify_section1(cd).passed
    assert inv._f == {}
    rows = [inv._beta_row(x, w, cd) for x in cd.elements for w in inv.basis]
    assert any(rows) and all(type(b) is int for row in rows for b in row.values())


def test_the_beta_table_belongs_to_the_cell_data_that_filled_it(a2):
    e = a2.sys.identity
    assert a2.inv._beta_row(e, e, a2.cells) == {e: 1}
    with pytest.raises(ValueError, match="another CellData"):
        a2.inv._beta_row(e, e, CellData(a2.alg))


def test_missing_distinguished_involution_fails_left_cell_restriction(b2, monkeypatch):
    # a *-stable left cell without its distinguished involution is a failed
    # check with a witness, not a crash of the unpack
    cd = b2.cells
    dist = cd.distinguished_involutions()
    stable = [lam for lam in cd.left_cells if frozenset(w.star() for w in lam) == lam]
    lam = stable[-1]
    monkeypatch.setattr(cd, "distinguished_involutions", lambda: tuple(d for d in dist if d not in lam))
    rep = b2.inv.verify_section1(cd)
    (check,) = [c for c in rep.checks if c.check_id == "left-cell-restriction"]
    least = min(lam, key=lambda w: w.sort_key())
    assert not check.passed
    assert check.witness == ("distinguished-count", str(least), 0)
    assert not rep.passed


def test_unit_identity_witness_is_the_last_bad_pair(b2, monkeypatch):
    # the rows of each (d, w) are summed once; the witness is still the last
    # (w, w', sum over d of beta_{d,w,w'}) that is not the Kronecker delta
    cd = b2.cells
    dist = cd.elements  # every element posing as distinguished
    monkeypatch.setattr(cd, "distinguished_involutions", lambda: dist)
    bad = None
    for w in b2.inv.basis:
        for wp in b2.inv.basis:
            total = sum(b2.inv._beta_row(d, w, cd).get(wp, 0) for d in dist)
            if total != (1 if w == wp else 0):
                bad = (str(w), str(wp), total)
    assert bad is not None and bad[2] not in (0, 1)
    rep = b2.inv.verify_section1(cd)
    (check,) = [c for c in rep.checks if c.check_id == "unit-identity"]
    assert check.witness == bad


def _single_row_witnesses(inv, cd):
    """The witnesses of the leading-term, support, beta-cell and block checks
    of verify_section1, one loop per check: the last offending (x, w), and
    in it the first offending w' for the leading-term law, else the last."""
    pairs = [(x, w) for x in cd.elements for w in inv.basis]
    lead = support = cell = block = None
    for x, w in pairs:
        for wp, f in inv.f_constants(x, w).items():
            d = f.degree()
            if d is not None and d > 2 * cd.a[wp]:
                lead = (str(x), str(w), str(wp))
                break
    for x, w in pairs:
        for wp in inv.f_constants(x, w):
            if not (cd.leq_lr(wp, w) and cd.leq_lr(wp, x)):
                support = (str(x), str(w), str(wp))
    for x, w in pairs:
        for wp, b in inv._beta_row(x, w, cd).items():
            if not (cd.same_two_sided(x, w) and cd.same_two_sided(w, wp)):
                cell = (str(x), str(w), str(wp), b)
    for x, w in pairs:
        if not cd.same_two_sided(x, w) and inv._beta_row(x, w, cd):
            block = (str(x), str(w))
    return {"leading-term-law": lead, "support-constraint": support,
            "beta-cell-support": cell, "block-decomposition": block}


def _plant_a(cd):
    # a lowered to 0 on the middle cell of B2: every c_x A_w with a term
    # of positive degree there breaks the leading-term law.  One gamma row
    # is read first, so the gamma table is filled with the true a
    cd.gamma_row(cd.system.identity, cd.system.identity)
    return "a", {z: 0 if a == 1 else a for z, a in cd.a.items()}


def _plant_leq_lr(cd):
    # 1 and 121 below nothing: both sit in several rows, so the support
    # witness is the last w' of the last offending row
    leq = cd.leq_lr
    return "leq_lr", lambda z, w: str(z) not in ("1", "121") and leq(z, w)


def _plant_same_two_sided(cd):
    # 121 split off from its two-sided cell
    same = cd.same_two_sided
    return "same_two_sided", lambda x, y: "121" not in (str(x), str(y)) and same(x, y)


def _plant_leq_lr_at_w(cd):
    # 1 not below 2: 2 is a twisted involution and 1 never sits in a row
    # c_2 A_w, so only the test of w' <=_LR w sees the plant
    leq = cd.leq_lr
    return "leq_lr", lambda z, w: (str(z), str(w)) != ("1", "2") and leq(z, w)


def _plant_leq_lr_at_x(cd):
    # nothing below 12, which is no twisted involution: only the test of
    # w' <=_LR x sees the plant
    leq = cd.leq_lr
    return "leq_lr", lambda z, w: str(w) != "12" and leq(z, w)


def _plant_same_two_sided_at_x(cd):
    # 12, no twisted involution, split off: only the test of x ~ w sees it
    same = cd.same_two_sided
    return "same_two_sided", lambda x, y: "12" not in (str(x), str(y)) and same(x, y)


def _plant_same_two_sided_at_wp(cd):
    # 2 apart from 1, in this order only: row (2, 1) is zero, so only the
    # test of w ~ w' at w = 2, w' = 1 sees the plant
    same = cd.same_two_sided
    return "same_two_sided", lambda x, y: (str(x), str(y)) != ("2", "1") and same(x, y)


@pytest.mark.parametrize("plant, checks", [
    (_plant_a, ["leading-term-law"]),
    (_plant_leq_lr, ["support-constraint"]),
    (_plant_same_two_sided, ["beta-cell-support", "block-decomposition"]),
    # one plant per conjunct of the support and beta-cell tests: a check
    # weakened to either conjunct misses one of them
    (_plant_leq_lr_at_w, ["support-constraint"]),
    (_plant_leq_lr_at_x, ["support-constraint"]),
    (_plant_same_two_sided_at_x, ["beta-cell-support", "block-decomposition"]),
    (_plant_same_two_sided_at_wp, ["beta-cell-support"]),
])
def test_single_row_check_witnesses(plant, checks, monkeypatch):
    # a fresh B2 context keeps the plants off the shared fixture; a planted
    # a leaves the distinguished involutions as CellData fixed them with a
    alg = HeckeAlgebra(CoxeterSystem.from_label("B2"))
    cd, inv = CellData(alg), InvolutionModule(alg)
    monkeypatch.setattr(cd, *plant(cd))
    expected = _single_row_witnesses(inv, cd)
    rep = inv.verify_section1(cd)
    got = {c.check_id: c for c in rep.checks}
    assert [c.check_id for c in rep.checks] == [
        "leading-term-law", "support-constraint", "beta-cell-support", "unit-identity",
        "module-associativity", "block-decomposition", "left-cell-restriction"]
    for check_id in checks:
        assert expected[check_id] is not None
        assert not got[check_id].passed
        assert got[check_id].witness == expected[check_id], check_id


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
