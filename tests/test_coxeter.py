import random

import pytest

from heckework import CoxeterSystem, InfiniteGroupError
from heckework.coxeter import ReflectionRep
from heckework.hecke import KLTable

from oracles import (
    dih_length_table,
    dih_of_word,
    matrix_of_word,
    perm_bruhat_leq,
    perm_inversions,
    perm_left_descents,
    perm_of_word,
    perm_reduced_words,
)


def words_up_to(rank, n):
    out = [()]
    layer = [()]
    for _ in range(n):
        layer = [w + (g,) for w in layer for g in range(rank)]
        out.extend(layer)
    return out


# -- normal forms against the permutation model (type A) ---------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_a_multiplication_matches_permutations(n):
    sys = CoxeterSystem.from_label("A%d" % (n - 1))
    rng = random.Random(n)
    for _ in range(300):
        word = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 8)))
        w = sys.element(word)
        p = perm_of_word(n, word)
        assert len(w.word) == perm_inversions(p)
        assert perm_of_word(n, w.word) == p


def test_type_a_normal_forms_distinct(a3):
    els = a3.sys.elements()
    assert len(els) == 24
    perms = {perm_of_word(4, w.word) for w in els}
    assert len(perms) == 24


def test_normal_form_is_shortlex_least(a3):
    # the normal form must be the lexicographically least reduced word
    for w in a3.sys.elements():
        p = perm_of_word(4, w.word)
        words = perm_reduced_words(4, p)
        assert w.word == min(words)


def test_multiply_examples(a2):
    e = a2.sys.element
    assert e("1") * e("2") == e("12")
    assert len((e("1") * e("2")).word) == 2
    assert e("121") * e("1") == e("12")
    with pytest.raises(ValueError):
        b2 = CoxeterSystem.from_label("B2")
        a2.sys.multiply(e("1"), b2.element("1"))


def test_dinf_multiplication():
    dinf = CoxeterSystem.from_label("Dinf")
    assert dinf.element("1212") * dinf.element("12") == dinf.element("121212")
    assert len((dinf.element("1212") * dinf.element("12")).word) == 6


def test_left_descents_examples(a2, a3):
    assert a2.sys.element("121").left_descents() == frozenset({0, 1})
    assert a2.sys.identity.left_descents() == frozenset()
    w = a3.sys.element("2132")
    # brute force: first letters of all reduced words
    p = perm_of_word(4, w.word)
    firsts = {rw[0] for rw in perm_reduced_words(4, p)}
    assert firsts == {1}
    assert w.left_descents() == frozenset({1})


def test_descents_match_bruteforce(a3):
    for w in a3.sys.elements():
        p = perm_of_word(4, w.word)
        assert w.left_descents() == frozenset(perm_left_descents(4, p))


def test_length_changes_by_one(a3, b2):
    for ctx in (a3, b2):
        for w in ctx.sys.elements():
            for i in range(ctx.sys.rank):
                sw = ctx.sys.generator(i) * w
                assert abs(len(sw.word) - len(w.word)) == 1


def test_star_examples():
    a2 = CoxeterSystem.from_label("A2", star=[1, 0])
    w = a2.element("121")
    assert a2.star_elt(w) == w  # 212 = 121 by the braid relation
    a3 = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    assert a3.star_elt(a3.element("1213")) == a3.element("3231")
    plain = CoxeterSystem.from_label("A3")
    for w in plain.elements():
        assert plain.star_elt(w) == w


def test_star_is_automorphism():
    a3 = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    els = a3.elements()
    for w in els:
        assert a3.star_elt(a3.star_elt(w)) == w
    rng = random.Random(5)
    for _ in range(300):
        w, x = rng.choice(els), rng.choice(els)
        assert a3.star_elt(w * x) == a3.star_elt(w) * a3.star_elt(x)


def test_star_must_preserve_matrix():
    with pytest.raises(ValueError):
        # B3 has m(1,2) = 4 but m(3,2) = 3, so swapping 1 and 3 is no automorphism
        CoxeterSystem.from_label("B3", star=[2, 1, 0])
    CoxeterSystem.from_label("A2", star=[1, 0])  # fine
    with pytest.raises(ValueError):
        # swapping the adjacent nodes 1,2 of A3 breaks m(1,3)=2 vs m(2,3)=3
        CoxeterSystem.from_label("A3", star=[1, 0, 2])
    with pytest.raises(ValueError):
        CoxeterSystem.from_label("A3", star=[1, 2, 0])  # a 3-cycle is no involution


def test_twisted_involutions():
    a1 = CoxeterSystem.from_label("A1")
    assert [str(w) for w in a1.twisted_involutions()] == ["e", "1"]
    a2 = CoxeterSystem.from_label("A2")
    assert [str(w) for w in a2.twisted_involutions()] == ["e", "1", "2", "121"]
    a3 = CoxeterSystem.from_label("A3")
    got = {str(w) for w in a3.twisted_involutions()}
    expected = {
        str(a3.element(lbl))
        for lbl in ["e", "1", "2", "3", "13", "121", "323", "2132", "13213", "121321"]
    }
    assert got == expected
    assert len(got) == 10
    # against the permutation model: involutions of S4
    invs = {
        p
        for p in [perm_of_word(4, w.word) for w in a3.elements()]
        if perm_of_word(4, ()) == tuple(p[p[k]] for k in range(4))
    }
    assert len(invs) == 10
    # twisted case: w* = w^-1 under the diagram flip
    flip = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    for w in flip.twisted_involutions():
        assert flip.star_elt(w) == flip.inverse(w)


def test_inverse_is_reversed_word(a3):
    for w in a3.sys.elements():
        winv = w.inverse()
        assert w * winv == a3.sys.identity
        assert perm_of_word(4, tuple(reversed(w.word))) == perm_of_word(4, winv.word)


def test_bruhat_examples(a2, a3):
    e = a2.sys.element
    for w in a2.sys.elements():
        assert a2.sys.bruhat_leq(a2.sys.identity, w)
    assert a2.sys.bruhat_leq(e("1"), e("121"))
    # (1,3) is a subsequence of the fixed reduced word (2,1,3,2) of 2132,
    # confirmed by the permutation dominance cross-check below
    assert a3.sys.bruhat_leq(a3.sys.element("13"), a3.sys.element("2132"))


def test_bruhat_matches_permutation_oracle(a3):
    els = a3.sys.elements()
    for y in els:
        for w in els:
            expected = perm_bruhat_leq(
                4, perm_of_word(4, y.word), perm_of_word(4, w.word)
            )
            assert a3.sys.bruhat_leq(y, w) == expected


# -- dihedral backends against the affine-map model ------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_dihedral_words_match_affine_model(m):
    sys = CoxeterSystem.from_label("I2(%d)" % m)
    table = dih_length_table(m, 2 * m + 2)
    els = sys.elements()
    assert len(els) == 2 * m
    rng = random.Random(m)
    for _ in range(300):
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2 * m + 2)))
        w = sys.element(word)
        a = dih_of_word(word, m)
        assert dih_of_word(w.word, m) == a
        assert len(w.word) == table[a]


def test_dinf_words_match_affine_model():
    sys = CoxeterSystem.from_label("Dinf")
    table = dih_length_table(None, 14)
    rng = random.Random(99)
    for _ in range(300):
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 12)))
        w = sys.element(word)
        a = dih_of_word(word)
        assert dih_of_word(w.word) == a
        assert len(w.word) == table[a]


def test_dinf_normal_forms_unique_up_to_12():
    sys = CoxeterSystem.from_label("Dinf")
    els = sys.elements(max_len=12)
    assert len(els) == 1 + 2 * 12
    assert len({dih_of_word(w.word) for w in els}) == len(els)


# -- reflection representation invariants ------------------------------------------------


def test_reflection_rep_involutions():
    for label in ("A3", "B2", "G2", "Dinf", "B3"):
        sys = CoxeterSystem.from_label(label)
        rep = ReflectionRep(sys.matrix)
        ident = rep.identity
        for i, g in enumerate(rep.gens):
            prod = matrix_of_word(rep, (i, i))
            assert prod == ident


def test_matrix_model_separates_elements(a3, b2):
    for ctx in (a3, b2):
        rep = ReflectionRep(ctx.sys.matrix)
        mats = {}
        for w in ctx.sys.elements():
            m = matrix_of_word(rep, w.word)
            assert m not in mats
            mats[m] = w


def test_normalize_idempotent(a3):
    rng = random.Random(12)
    for _ in range(200):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 10)))
        w = a3.sys.element(word)
        assert a3.sys.element(w.word) == w


def test_i25_without_matrix_model():
    sys = CoxeterSystem.from_label("I2(5)")
    els = sys.elements()
    assert len(els) == 10
    w0 = els[-1]
    assert len(w0.word) == 5
    assert w0.left_descents() == frozenset({0, 1})


# -- enumeration, serialization ------------------------------------------------------------


def test_enumeration_sorted_and_finite_guard():
    a3 = CoxeterSystem.from_label("A3")
    els = a3.elements()
    keys = [w.sort_key() for w in els]
    assert keys == sorted(keys)
    dinf = CoxeterSystem.from_label("Dinf")
    with pytest.raises(InfiniteGroupError):
        dinf.elements()
    assert len(dinf.elements(max_len=5)) == 11


def test_config_roundtrip():
    # the content hash sees the matrix and the star, not the label
    sys = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    back = CoxeterSystem(sys.matrix, star=sys.star_perm)
    assert back.content_hash() == sys.content_hash()
    assert CoxeterSystem.from_label("A3").content_hash() != sys.content_hash()


def test_is_finite_from_the_matrix():
    for label in ("A1", "A2", "A3", "B2", "B3", "G2", "I2(7)"):
        assert CoxeterSystem.from_label(label).is_finite is True, label
    assert CoxeterSystem.from_label("Dinf").is_finite is False
    assert CoxeterSystem.from_label("A4").is_finite is None  # probed by enumeration
    # affine rank 3: 1/a + 1/b + 1/c = 1 exactly, so not finite
    for a, b, c in ((3, 3, 3), (4, 4, 2), (6, 3, 2)):
        m = [[1, a, b], [a, 1, c], [b, c, 1]]
        assert CoxeterSystem(m).is_finite is False, (a, b, c)


def test_element_parsing_and_display(a3):
    assert str(a3.sys.element("")) == "e"
    assert str(a3.sys.element("e")) == "e"
    assert str(a3.sys.element((0, 1, 0, 2, 1, 0))) == "121321"
    assert a3.sys.element("13213") == a3.sys.element("12321")


def test_dinf_matrix_model_separates_up_to_12():
    sys = CoxeterSystem.from_label("Dinf")
    rep = ReflectionRep(sys.matrix)
    els = sys.elements(max_len=12)
    mats = {matrix_of_word(rep, w.word) for w in els}
    assert len(mats) == len(els)


def test_star_automorphism_exhaustive_a3():
    a3f = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    els = a3f.elements()
    for w in els:
        for x in els:
            assert a3f.star_elt(w * x) == a3f.star_elt(w) * a3f.star_elt(x)


# -- generator tables and interned ids ---------------------------------------------------


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "I2(5)", "I2(7)", "Dinf"])
def test_left_and_right_folds_agree_with_words(label):
    # a shorter left factor folds through lmul, a longer one through rmul;
    # element() folds the concatenated word through rmul alone
    sys = CoxeterSystem.from_label(label)
    rng = random.Random(label)
    for _ in range(200):
        u = tuple(rng.randrange(sys.rank) for _ in range(rng.randint(0, 7)))
        x = tuple(rng.randrange(sys.rank) for _ in range(rng.randint(0, 7)))
        assert sys.element(u) * sys.element(x) == sys.element(u + x)


def test_enumeration_independent_of_interning_order():
    fresh = CoxeterSystem.from_label("B3")
    used = CoxeterSystem.from_label("B3")
    used.element("321232")
    used.element("2")
    assert [w.word for w in used.elements()] == [w.word for w in fresh.elements()]
    assert [w.word for w in used.elements(max_len=3)] == [
        w.word for w in fresh.elements() if len(w.word) <= 3
    ]


def test_elements_of_an_equal_system_are_rejected():
    # an element belongs to the instance that interned it: an equal system
    # does not translate it, and identity is equality
    mine = CoxeterSystem.from_label("B3")
    other = CoxeterSystem.from_label("B3")
    x, y = mine.element("2321"), mine.element("21")
    fx, fy = other.element("2321"), other.element("21")
    assert fx != x and fx == other.element(x.word)
    assert hash(fx) == hash(x) == hash(((mine.matrix, mine.star_perm), x.word))
    kl_mine = KLTable(mine)
    calls = [
        lambda: mine.multiply(fx, y),
        lambda: mine.multiply(x, fy),
        lambda: mine.bruhat_leq(fy, x),
        lambda: mine.bruhat_leq(y, fx),
        lambda: mine.lower_interval(fx),
        lambda: kl_mine.p(fy, x),
        lambda: kl_mine.p(y, fx),
        lambda: mine.multiply(x, CoxeterSystem.from_label("A3").element("1")),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different Coxeter system"):
            call()
