import pytest

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import CartanType, build_root_system
from reference import is_closed_subset, root_string


EXPECTED_COUNTS = {
    "A1": (1, 2),
    "A2": (3, 6),
    "A3": (6, 24),
    "A4": (10, 120),
    "B2": (4, 8),
    "B3": (9, 48),
    "C3": (9, 48),
    "C4": (16, 384),
    "D4": (12, 192),
    "G2": (6, 12),
    "F4": (24, 1152),
}


def test_cartan_type_parse():
    ct = CartanType.parse("b3")
    assert ct.family == "B" and ct.rank == 3
    assert str(ct) == "B3"
    with pytest.raises(InputError):
        CartanType.parse("Z9")
    with pytest.raises(InputError):
        CartanType.parse("A")
    with pytest.raises(InputError):
        CartanType.parse("D3")
    with pytest.raises(InputError):
        CartanType.parse("G3")


def test_positive_root_counts_and_orders():
    for name, (nroots, order) in EXPECTED_COUNTS.items():
        rs = build_root_system(name)
        assert len(rs.positive_roots) == nroots, name
        assert rs.cartan_type.weyl_order() == order, name


def test_a2_roots_explicit():
    rs = build_root_system("A2")
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))


def test_g2_roots_explicit():
    rs = build_root_system("G2")
    assert rs.positive_roots == (
        (0, 1),
        (1, 0),
        (1, 1),
        (2, 1),
        (3, 1),
        (3, 2),
    )


def test_roots_sorted_by_height_then_lex():
    for name in ("B3", "F4", "D4"):
        rs = build_root_system(name)
        keys = [(sum(r), r) for r in rs.positive_roots]
        assert keys == sorted(keys), name


def test_simple_root_queries():
    rs = build_root_system("B2")
    assert rs.simple_root(1) == (1, 0)
    assert rs.simple_root(2) == (0, 1)
    assert rs.positive_roots[rs.simple_root_index(1)] == (1, 0)
    with pytest.raises(InputError):
        rs.simple_root(3)
    with pytest.raises(InputError):
        rs.simple_root(0)


def test_reflect_root():
    rs = build_root_system("A2")
    # s_1 negates alpha_1 and swaps alpha_2 with alpha_1 + alpha_2
    assert rs.reflect_root(1, (1, 0)) == (-1, 0)
    assert rs.reflect_root(1, (0, 1)) == (1, 1)
    assert rs.reflect_root(1, (1, 1)) == (0, 1)
    assert rs.reflect_root(2, (1, 0)) == (1, 1)
    with pytest.raises(InputError):
        rs.reflect_root(1, (2, 0))


def test_membership_queries():
    rs = build_root_system("B2")
    assert rs.is_positive_root((1, 1))
    assert not rs.is_positive_root((-1, 0))
    assert rs.is_root((-1, 0))
    assert not rs.is_root((5, 5))
    assert rs.root_height((1, 2)) == 3
    with pytest.raises(InputError):
        rs.positive_index((7, 7))


def test_root_string_b2_c2():
    # B2: alpha_2 short, so the height-2 and height-3 roots are
    # alpha_1 + alpha_2 and alpha_1 + 2 alpha_2; C2 mirrors them
    b2 = build_root_system("B2")
    assert root_string(b2, (1, 0), (0, 1)) == frozenset({(1, 1), (1, 2)})
    c2 = build_root_system("C2")
    assert root_string(c2, (1, 0), (0, 1)) == frozenset({(1, 1), (2, 1)})
    with pytest.raises(InputError):
        root_string(b2, (1, 0), (1, 0))
    with pytest.raises(InputError):
        root_string(b2, (1, 0), (-1, 0))


def test_root_string_g2():
    rs = build_root_system("G2")
    s = root_string(rs, (1, 0), (0, 1))
    # m*alpha_1 + n*alpha_2 a root: (1,1),(2,1),(3,1),(3,2)
    assert s == frozenset({(1, 1), (2, 1), (3, 1), (3, 2)})


def test_closed_subsets():
    rs = build_root_system("A2")
    assert is_closed_subset(rs, [])
    assert is_closed_subset(rs, [(1, 0)])
    assert not is_closed_subset(rs, [(1, 0), (0, 1)])
    assert is_closed_subset(rs, [(1, 0), (0, 1), (1, 1)])
    assert is_closed_subset(rs, [(1, 0), (1, 1)])
    with pytest.raises(InputError):
        is_closed_subset(rs, [(9, 9)])


def test_sum_triples_consistency():
    rs = build_root_system("B3")
    roots = rs.positive_roots
    triples = rs.sum_triples()
    seen = set()
    for i, j, k in triples:
        assert i < j
        assert tuple(a + b for a, b in zip(roots[i], roots[j])) == roots[k]
        seen.add((i, j))
    # completeness: any pair summing to a root must appear
    index = {r: k for k, r in enumerate(roots)}
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            s = tuple(a + b for a, b in zip(roots[i], roots[j]))
            if s in index:
                assert (i, j) in seen


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        build_root_system("E8")
    # allowed when explicitly requested; D5 is small enough to finish fast
    rs = build_root_system("D5", allow_large=False)
    assert len(rs.positive_roots) == 20


def test_rank_outside_family_range_is_invalid_input():
    with pytest.raises(InputError):
        build_root_system("A9")
    with pytest.raises(InputError):
        build_root_system("F5")


@pytest.mark.parametrize("bad", [5, None, ["A2"], True, 2.0])
def test_type_that_is_neither_a_name_nor_a_cartan_type_is_invalid_input(bad):
    # a character file's "type" reaches build_root_system as any JSON value
    with pytest.raises(InputError, match="cannot parse Cartan type"):
        build_root_system(bad)
    assert build_root_system(CartanType("A", 2)) is build_root_system("A2")


@pytest.mark.parametrize(
    "family, rank", [("A", True), ("B", False), ("A", 2.0), ("A", "2"), (["A"], 2), (None, 2)]
)
def test_cartan_type_rejects_a_rank_that_is_no_int_and_a_family_that_is_no_name(
    family, rank
):
    # a bool is an int to isinstance, and True == 1 passed the A-rank check
    with pytest.raises(InputError):
        CartanType(family, rank)


def test_guard_triggers_on_group_order():
    # B8 is a legal type, but its group order is past the guard
    with pytest.raises(ResourceGuardError):
        build_root_system("B8")
