import pytest

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import build_root_system
from catx.weyl import (
    WeylElement,
    _biclosed_masks,
    coset_minimize,
    descent_set,
    element_from_word,
    enumerate_biclosed,
    enumerate_weyl,
    inversion_set,
    longest_element,
    min_coset_reps,
    weyl_act,
    weyl_subgroup,
)


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
        assert wj.inverted_roots() == frozenset(span)


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
    assert descent_set(w) == frozenset({2})
    inv, kept = inversion_set(w)
    assert inv == frozenset({(0, 1), (1, 1)})
    assert kept == frozenset({(1, 0)})
    assert w.inverted_roots() == inv
    assert weyl_act(w, (1, 0)) == (0, 1)


def test_length_equals_inversion_count():
    rs = build_root_system("B2")
    for w in enumerate_weyl(rs):
        assert w.length == len(w.inverted_roots())
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
            assert w.preserved_roots() == members


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
            assert w is not None and w.preserved_roots() == members, name


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
