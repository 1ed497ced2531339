import itertools

from hypothesis import given, settings, strategies as st

from heckework.report import first_nonassociative


def _apply(table, pairs):
    """sum of c * table[key] over the (key, c) in pairs, zeros dropped."""
    out = {}
    for key, c in pairs:
        for k, d in table.get(key, {}).items():
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _first_by_every_triple(xs, zs, product, action):
    for x, y, z in itertools.product(xs, xs, zs):
        lhs = _apply(action, (((u, z), c) for u, c in product.get((x, y), {}).items()))
        rhs = _apply(action, (((x, u), d) for u, d in action.get((y, z), {}).items()))
        if lhs != rhs:
            return x, y, z
    return None


def _rows(firsts, seconds, values):
    row = st.dictionaries(st.sampled_from(values), st.integers(-2, 2).filter(bool),
                          min_size=1, max_size=2)
    return st.dictionaries(st.tuples(st.sampled_from(firsts), st.sampled_from(seconds)), row,
                           max_size=len(firsts) * len(seconds))


XS = ["b", "d", "a", "c"]  # positions, not sorted order, set the product order
ZS = [3, 1, 2]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_first_failing_triple_is_the_one_every_triple_finds(data):
    # random sparse tables: the triples that no side can reach are skipped,
    # and the witness is still the first failure of the whole product
    if data.draw(st.booleans()):  # a ring acting on itself
        product = action = data.draw(_rows(XS, XS, XS))
        zs = XS
    else:  # a ring acting on a module
        product, action = data.draw(_rows(XS, XS, XS)), data.draw(_rows(XS, ZS, ZS))
        zs = ZS
    assert first_nonassociative(XS, zs, product, action) == \
        _first_by_every_triple(XS, zs, product, action)


def test_an_associative_table_has_no_witness():
    # the matrix units e_pq e_qr = e_pr and the group algebra of Z/5
    units = list(itertools.product(range(3), repeat=2))
    mult = {(a, b): {(a[0], b[1]): 1} for a in units for b in units if a[1] == b[0]}
    assert first_nonassociative(units, units, mult, mult) is None
    z5 = {(a, b): {(a + b) % 5: 1} for a in range(5) for b in range(5)}
    assert first_nonassociative(range(5), range(5), z5, z5) is None
    z5[2, 3] = {0: 2}
    assert first_nonassociative(range(5), range(5), z5, z5) == \
        _first_by_every_triple(range(5), range(5), z5, z5) == (1, 1, 3)
