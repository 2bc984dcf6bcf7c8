import pytest

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import CartanType, RootSystem, build_root_system
from catx.weyl import (
    WeylElement,
    _biclosed_masks,
    _longest,
    _subgroup,
    coset_minimize,
    element_from_word,
    enumerate_biclosed,
    enumerate_weyl,
    kept_masks,
    longest_element,
    min_coset_reps,
    weyl_subgroup,
)
from reference import inverted_roots, preserved_roots


def test_simple_reflection_action():
    rs = build_root_system("A2")
    s1 = WeylElement.simple_reflection(rs, 1)
    assert s1.act((1, 0)) == (-1, 0)
    assert s1.act((0, 1)) == (1, 1)
    assert s1.length == 1
    assert (s1 * s1).is_identity
    with pytest.raises(InputError):
        WeylElement.simple_reflection(rs, 5)


def test_product_convention_right_factor_acts_first():
    rs = build_root_system("A2")
    s1 = WeylElement.simple_reflection(rs, 1)
    s2 = WeylElement.simple_reflection(rs, 2)
    w = s1 * s2
    # (s1*s2)(alpha_1) = s1(s2(alpha_1)) = s1(alpha_1+alpha_2) = alpha_2
    assert w.act((1, 0)) == (0, 1)
    assert w.word == (1, 2)
    assert (s2 * s1).word == (2, 1)


def test_element_from_word_and_length():
    rs = build_root_system("A2")
    w0 = element_from_word(rs, [1, 2, 1])
    assert w0.length == 3
    assert w0 == element_from_word(rs, [2, 1, 2])
    assert w0 == longest_element(rs, [1, 2])
    # non-reduced word still folds to the correct element
    assert element_from_word(rs, [1, 1]).is_identity
    assert element_from_word(rs, []).is_identity


def test_inverse_and_action_roundtrip():
    rs = build_root_system("B2")
    w = element_from_word(rs, [1, 2, 1])
    wi = w.inverse()
    assert (w * wi).is_identity
    for root in rs.positive_roots:
        assert wi.act(w.act(root)) == root


def test_enumerate_weyl():
    for name, order in (("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24)):
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        assert len(elems) == order, name
        assert len(set(elems)) == order, name
        # identity first, nondecreasing lengths
        assert elems[0].is_identity
        lengths = [w.length for w in elems]
        assert lengths == sorted(lengths)
        assert elems == weyl_subgroup(rs, rs.simple_indices), name


def test_longest_element_words():
    rs = build_root_system("A2")
    assert longest_element(rs, [1, 2]).word == (1, 2, 1)
    rs = build_root_system("B2")
    assert longest_element(rs, [1, 2]).word == (2, 1, 2, 1)
    rs = build_root_system("G2")
    w0 = longest_element(rs, [1, 2])
    assert w0.length == 6
    assert w0.word == (2, 1, 2, 1, 2, 1)
    # parabolic longest elements
    assert longest_element(rs, [1]).word == (1,)
    assert longest_element(rs, []).is_identity


def test_longest_element_inverts_exactly_parabolic_roots():
    rs = build_root_system("B3")
    for sub in ([1], [2], [1, 2], [2, 3], [1, 3], [1, 2, 3]):
        wj = longest_element(rs, sub)
        span = [
            r
            for r in rs.positive_roots
            if all(c == 0 for k, c in enumerate(r) if (k + 1) not in sub)
        ]
        assert inverted_roots(wj) == frozenset(span)


def test_weyl_subgroup_orders():
    rs = build_root_system("B3")
    assert len(weyl_subgroup(rs, [])) == 1
    assert len(weyl_subgroup(rs, [1])) == 2
    assert len(weyl_subgroup(rs, [1, 2])) == 6
    assert len(weyl_subgroup(rs, [2, 3])) == 8
    assert len(weyl_subgroup(rs, [1, 2, 3])) == 48


def test_min_coset_reps():
    rs = build_root_system("A2")
    reps = min_coset_reps(rs, [1])
    assert len(reps) == 3
    for w in reps:
        # minimal in w*W_J: right multiplication by s_1 goes up
        assert (w * WeylElement.simple_reflection(rs, 1)).length == w.length + 1
    # reps of the full group modulo everything: identity only
    assert len(min_coset_reps(rs, [1, 2])) == 1
    assert len(min_coset_reps(rs, [])) == 6


def test_coset_minimize():
    rs = build_root_system("B2")
    w0 = longest_element(rs, [1, 2])
    m = coset_minimize(w0, [1, 2])
    assert m.is_identity
    s2 = WeylElement.simple_reflection(rs, 2)
    assert coset_minimize(s2, [2]).is_identity
    assert coset_minimize(s2, [1]) == s2


def test_descents_and_inversions():
    rs = build_root_system("A2")
    w = element_from_word(rs, [1, 2])
    assert w.descent_set() == frozenset({2})
    inv, kept = inverted_roots(w), preserved_roots(w)
    assert inv == frozenset({(0, 1), (1, 1)})
    assert kept == frozenset({(1, 0)})
    assert len(inv) + len(kept) == len(rs.positive_roots)
    assert w.act((1, 0)) == (0, 1)


def test_length_equals_inversion_count():
    rs = build_root_system("B2")
    for w in enumerate_weyl(rs):
        assert w.length == len(inverted_roots(w))
        assert w.length == len(w.word)


def test_biclosed_matches_group_order():
    for name in ("A2", "B2", "G2", "A3"):
        rs = build_root_system(name)
        pairs = enumerate_biclosed(rs)
        assert len(pairs) == rs.cartan_type.weyl_order(), name
        witnesses = [w for _, w in pairs]
        assert all(w is not None for w in witnesses)
        assert len(set(witnesses)) == len(witnesses)
        for members, w in pairs:
            assert preserved_roots(w) == members


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C4", "D4", "G2", "F4"])
def test_kept_masks_match_the_permutations(name):
    rs = build_root_system(name)
    group = enumerate_weyl(rs)
    masks = kept_masks(rs)
    assert len(masks) == len(group)
    assert masks == [w.plus_mask for w in group]
    # the same list on every call, kept on the root system
    assert kept_masks(rs) is masks


def _brute_force_biclosed(n, triples):
    """Reference sweep: every mask whose set and complement are closed."""
    full = (1 << n) - 1
    bits = [(1 << i | 1 << j, 1 << k) for i, j, k in triples]
    return [
        mask
        for mask in range(full + 1)
        if not any(
            side & pair == pair and not side & top
            for pair, top in bits
            for side in (mask, full ^ mask)
        )
    ]


def _masks(rs, pairs):
    return [sum(1 << rs.positive_index(r) for r in members) for members, _ in pairs]


def test_biclosed_search_tiny_hand_cases():
    for search in (_biclosed_masks, _brute_force_biclosed):
        # two roots, no sums: every subset is biclosed
        assert search(2, ()) == [0, 1, 2, 3]
        # roots 0 and 1 sum to root 2: {0,1} misses the sum, and {2}
        # leaves the complement {0,1} missing it
        assert search(3, ((0, 1, 2),)) == [0, 1, 2, 5, 6, 7]


# every type with at most 16 positive roots
@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2"]
)
def test_biclosed_matches_brute_force_oracle(name):
    rs = build_root_system(name)
    ref = _brute_force_biclosed(len(rs.positive_roots), rs.sum_triples())
    assert _masks(rs, enumerate_biclosed(rs)) == ref
    assert len(ref) == rs.cartan_type.weyl_order()


def test_biclosed_rank_five_counts():
    for name, order in (("B5", 3840), ("D5", 1920)):
        rs = build_root_system(name)
        pairs = enumerate_biclosed(rs)
        assert len(pairs) == order, name
        masks = _masks(rs, pairs)
        assert masks == sorted(set(masks)), name
        for members, w in pairs:
            assert w is not None and preserved_roots(w) == members, name


def test_biclosed_guard():
    # E8 builds under allow_large, but its group order is beyond the
    # enumeration guard, which refuses before any search runs
    rs = build_root_system("E8", allow_large=True)
    with pytest.raises(ResourceGuardError):
        enumerate_biclosed(rs)


def test_enumerate_weyl_rejects_cross_system_products():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    with pytest.raises(InputError):
        _ = WeylElement.simple_reflection(a2, 1) * WeylElement.simple_reflection(b2, 1)
    # two equal systems built apart multiply, with or without group tables
    words = [(), (1,), (2, 3), (3, 2, 3), (1, 2, 3, 2, 1), (3, 3, 1)]

    def check_products(one, other):
        assert one == other and one is not other
        for u in words:
            for v in words:
                x, y = element_from_word(one, u), element_from_word(other, v)
                for left, right in ((x, y), (y, x)):
                    product = left * right
                    assert product.rs is left.rs
                    assert product.perm == perm_mul(left.perm, right.perm)
                    assert product.word == strip_descent_word(one, product.perm)

    check_products(build_root_system("B3"), build_root_system("B3", allow_large=True))
    b3 = RootSystem(CartanType.parse("B3"))
    b3_large = RootSystem(CartanType.parse("B3"), allow_large=True)
    check_products(b3, b3_large)
    enumerate_weyl(b3)
    check_products(b3, b3_large)
    enumerate_weyl(b3_large)
    check_products(b3, b3_large)


# -- the group table against the permutation reference -----------------


def perm_mul(p, q):
    """Signed permutation of p * q (q acts first)."""
    return tuple(p[j] if j >= 0 else ~p[~j] for j in q)


def perm_inverse(p):
    inv = [0] * len(p)
    for k, j in enumerate(p):
        if j >= 0:
            inv[j] = k
        else:
            inv[~j] = ~k
    return tuple(inv)


def perm_descents(rs, p):
    return [i for i in rs.simple_indices if p[rs.simple_root_index(i)] < 0]


def strip_descent_word(rs, p):
    """Canonical word: repeatedly strip the smallest right descent."""
    collected = []
    while down := perm_descents(rs, p):
        p = perm_mul(p, rs._simple_perm[down[0] - 1])
        collected.append(down[0])
    return tuple(reversed(collected))


def root_tuple_key(w):
    """The enumeration order's definition: length, then the sorted
    tuple of inverted roots."""
    return (w.length, tuple(sorted(inverted_roots(w))))


def all_subsets(indices):
    out = [()]
    for i in indices:
        out += [s + (i,) for s in out]
    return out


# every type with |W| <= 3840
@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
     "D4", "D5", "G2", "F4"],
)
def test_enumeration_order_matches_the_root_tuple_key(name):
    elements = enumerate_weyl(build_root_system(name))
    assert list(elements) == sorted(elements, key=root_tuple_key)


# every type with |W| <= 1152
@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_group_table_matches_the_permutation_reference(name):
    rs = build_root_system(name)
    elements = enumerate_weyl(rs)
    table = rs._weyl_table
    assert len(elements) == rs.cartan_type.weyl_order()
    for a, w in enumerate(elements):
        assert w._id == a and table.index[w.perm] == a
        assert elements[table.inverse[a]].perm == perm_inverse(w.perm)
        assert w.inverse() is elements[table.inverse[a]]
        for i in rs.simple_indices:
            right = perm_mul(w.perm, rs._simple_perm[i - 1])
            assert elements[table.rmul[i][a]].perm == right
        assert table.descents[a] == sum(1 << (i - 1) for i in perm_descents(rs, w.perm))
        assert w.word == table.words[a] == strip_descent_word(rs, w.perm)
        assert w.length == len(w.word) == w.inversion_mask.bit_count()
    # products walk the table; compare a spread of pairs with the reference
    sample = elements[:: max(1, len(elements) // 24)]
    for w in elements:
        for v in sample:
            assert (w * v).perm == perm_mul(w.perm, v.perm)
            assert (v * w).perm == perm_mul(v.perm, w.perm)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_table_and_permutation_paths_agree(name):
    rs = build_root_system(name)
    elements = enumerate_weyl(rs)
    plain = RootSystem(rs.cartan_type)  # never enumerated: no table
    assert plain._weyl_table is None
    subsets = all_subsets(rs.simple_indices)
    for w in elements:
        word = w.word
        assert element_from_word(rs, word) is w
        slow = element_from_word(plain, word)
        assert slow._id is None and slow.perm == w.perm
        # a non-reduced word folds the same way on both paths
        assert element_from_word(rs, word + (1, 1)) is w
        assert element_from_word(plain, word + (1, 1)).perm == w.perm
        for j in subsets:
            fast = coset_minimize(w, j)
            assert fast._id is not None
            assert fast.perm == coset_minimize(slow, j).perm
    assert plain._weyl_table is None
    with pytest.raises(InputError):
        element_from_word(rs, [rs.rank + 1])
    with pytest.raises(InputError):
        element_from_word(plain, [0])
    for j in subsets:
        # call the uncached builders, so that `plain` runs the permutation
        # code; the last subset holds every index, whose subgroup
        # enumerates `plain`
        group = _subgroup(rs, frozenset(j))
        assert [w.perm for w in group] == [
            w.perm for w in _subgroup(plain, frozenset(j))
        ]
        assert all(w._id is not None for w in group)
        longest = _longest(rs, frozenset(j))
        assert longest.perm == _longest(plain, frozenset(j)).perm
        assert list(min_coset_reps(rs, j)) == [
            w for w in elements if not set(perm_descents(rs, w.perm)) & set(j)
        ]


def test_elements_built_before_enumeration_match_the_interned_ones():
    rs = RootSystem(CartanType.parse("B3"))
    words = [(), (1,), (2, 3), (3, 2, 3, 2), (1, 2, 3, 2, 1), (1, 1, 2)]
    before = [element_from_word(rs, word) for word in words]
    early_words = [w.word for w in before]
    early_hashes = [hash(w) for w in before]
    assert all(w._id is None for w in before)
    elements = enumerate_weyl(rs)
    for w, word, h in zip(before, early_words, early_hashes):
        interned = elements[rs._weyl_table.index[w.perm]]
        assert w == interned and interned == w
        assert hash(interned) == h
        assert interned.word == word == strip_descent_word(rs, w.perm)
        assert len({w, interned}) == 1
        # a permutation product in an enumerated group is interned
        assert w * w.inverse() is elements[0]
        assert w * interned is interned * interned
        assert coset_minimize(w, [1, 2]) == coset_minimize(interned, [1, 2])
    assert WeylElement.identity(rs) is elements[0]
    assert WeylElement.simple_reflection(rs, 2) is element_from_word(rs, [2])


def test_memo_answers_belong_to_their_own_root_system():
    plain = build_root_system("B3")
    large = build_root_system("B3", allow_large=True)
    assert plain == large and plain is not large
    elements = enumerate_weyl(large)
    for rs in (plain, large):
        group = weyl_subgroup(rs, [1, 2])
        longest = longest_element(rs, [1, 2])
        reps = min_coset_reps(rs, [1, 2])
        assert all(w.rs is rs for w in (*group, longest, *reps))
        assert weyl_subgroup(rs, [2, 1]) is group
        assert longest_element(rs, [2, 1]) is longest
        assert min_coset_reps(rs, [1, 2]) is reps
    # the second system's answers are its own interned elements, so their
    # products walk its table
    group = weyl_subgroup(large, [1, 2])
    assert all(w is elements[w._id] for w in group)
    assert all((w * v)._id is not None for w in group for v in elements[:8])
    longest = longest_element(large, [1, 2])
    assert longest._id is not None and longest is elements[longest._id]
