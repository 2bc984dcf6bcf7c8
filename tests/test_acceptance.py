"""Acceptance gate: one test per criterion, reported line by line.

The terminal summary (see conftest) prints PASS or FAIL per criterion.
Each test states its own oracle values inline; nothing here trusts the
library's own pass/fail bookkeeping.
"""

import random
import time

from catx.charcalc import (
    FormalCharacter,
    ModuleCharacter,
    costandard_character,
    decompose_character,
    induced_character,
    order_axiom_records,
    simple_character,
)
from catx.incidence import (
    all_subsets,
    build_incidence_algebra,
    cartan_and_ext,
    direct_sum,
    heredity_chain_check,
    interval_module,
    is_isomorphic,
    krull_schmidt_decompose,
    regular_module,
)
from catx.rootsystem import build_root_system
from catx.weyl import enumerate_biclosed, min_coset_reps
from reference import cartan_determinant, preserved_roots, simple_coset_reps

RANK_LE_3 = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")


def subsets_of(items):
    base = sorted(items)
    out = [frozenset()]
    for x in base:
        out += [s | {x} for s in out]
    return out


def sweep_parameters():
    """Every (root system, theta, J) with rank <= 3, J inside itheta."""
    for name in RANK_LE_3:
        rs = build_root_system(name)
        for itheta in subsets_of(rs.simple_indices):
            theta = FormalCharacter("theta", itheta)
            for j in subsets_of(itheta):
                yield rs, theta, j


def test_criterion_1_biclosed_sets_are_the_inversion_complements():
    expected = {
        "A1": 2,
        "A2": 6,
        "A3": 24,
        "B2": 8,
        "B3": 48,
        "C3": 48,
        "G2": 12,
    }
    t0 = time.perf_counter()
    for name, order in expected.items():
        rs = build_root_system(name)
        assert rs.cartan_type.weyl_order() == order, name
        pairs = enumerate_biclosed(rs)
        assert len(pairs) == order, name
        witnesses = []
        for members, w in pairs:
            assert w is not None, (name, sorted(map(sorted, members)))
            assert preserved_roots(w) == members, name
            witnesses.append(w)
        assert len(set(witnesses)) == order, name
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_costandard_filtration_identities():
    t0 = time.perf_counter()
    for rs, theta, j in sweep_parameters():
        nabla = costandard_character(rs, theta, j)
        total = ModuleCharacter.sum(
            simple_character(rs, theta, k) for k in subsets_of(j)
        )
        assert nabla == total, (str(rs.cartan_type), sorted(theta.itheta), sorted(j))
        lhs = len(min_coset_reps(rs, theta.itheta - j))
        rhs = sum(len(simple_coset_reps(rs, theta, k)) for k in subsets_of(j))
        assert lhs == rhs, (str(rs.cartan_type), sorted(theta.itheta), sorted(j))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_induced_character_decomposes_to_supersets():
    for rs, theta, j in sweep_parameters():
        dec = decompose_character(rs, induced_character(rs, theta, j))
        want = {
            (theta, k): 1 for k in subsets_of(theta.itheta) if j <= k
        }
        assert dec.ok, (str(rs.cartan_type), sorted(theta.itheta), sorted(j), dec.diagnostic)
        assert dec.factors == want, (str(rs.cartan_type), sorted(theta.itheta), sorted(j))


def test_criterion_4_decomposition_round_trip_and_tie_break_independence():
    for rs, theta, j in sweep_parameters():
        context = (str(rs.cartan_type), sorted(theta.itheta), sorted(j))
        runs = [
            decompose_character(rs, simple_character(rs, theta, j), tie_break=t)
            for t in (0, 1, 2)
        ]
        for dec in runs:
            assert dec.ok, context
            assert dec.factors == {(theta, j): 1}, context
            assert not dec.remainder, context
        nabla = costandard_character(rs, theta, j)
        nabla_runs = [
            decompose_character(rs, nabla, tie_break=t) for t in (0, 1, 2)
        ]
        assert all(dec.ok for dec in nabla_runs), context
        assert (
            nabla_runs[0].factors == nabla_runs[1].factors == nabla_runs[2].factors
        ), context


def test_criterion_5_order_axioms_hold_on_the_weight_universe():
    for name in RANK_LE_3:
        rs = build_root_system(name)
        for itheta in subsets_of(rs.simple_indices):
            theta = FormalCharacter("theta", itheta)
            records = order_axiom_records(rs, theta)
            for rec in records:
                assert rec["passed"], (name, sorted(itheta), rec)
            assert records[1]["params"]["mode"] == "exhaustive", name


def test_criterion_6_incidence_algebra_invariants():
    t0 = time.perf_counter()
    for n in range(7):
        assert build_incidence_algebra(n).dim == 3**n
    for n in range(6):
        assert cartan_determinant(build_incidence_algebra(n)) == 1
    for n in range(5):
        a = build_incidence_algebra(n)
        _, ext1 = cartan_and_ext(a)
        covering = {
            (y, z) for y in a.subsets for z in a.subsets
            if y < z and len(z - y) == 1
        }
        assert set(ext1) == covering, n
        assert len(ext1) == (n * 2 ** (n - 1) if n else 0), n
        assert all(y < z for y, z in ext1), n
    for n in range(5):
        result = heredity_chain_check(build_incidence_algebra(n))
        assert result["passed"], (n, result)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_7_krull_schmidt_recovers_interval_sums():
    a1 = build_incidence_algebra(1)
    parts = krull_schmidt_decompose(a1, regular_module(a1))
    assert [(m.total_dim, mult, cert) for m, mult, cert in parts] == [
        (2, 1, True),
        (1, 1, True),
    ]

    a2 = build_incidence_algebra(2)
    lattice = list(all_subsets(2))
    picker = random.Random(99)
    chosen = []
    for _ in range(5):
        lo = picker.choice(lattice)
        ups = [z for z in lattice if lo <= z]
        hi = picker.choice(ups)
        chosen.append((lo, hi))
    intervals = [interval_module(a2, lo, hi) for lo, hi in chosen]
    big = direct_sum(a2, intervals)

    expected: dict[tuple, int] = {}
    for lo, hi in chosen:
        key = (tuple(sorted(lo)), tuple(sorted(hi)))
        expected[key] = expected.get(key, 0) + 1

    outcomes = []
    for seed in (1, 2, 1729):
        parts = krull_schmidt_decompose(a2, big, seed=seed)
        assert all(cert for _, _, cert in parts), seed
        assert sum(m.total_dim * mult for m, mult, _ in parts) == big.total_dim
        # match each summand class to the unique interval it is isomorphic to
        found: dict[tuple, int] = {}
        for m, mult, _ in parts:
            hits = [
                key
                for key in expected
                if is_isomorphic(m, interval_module(a2, frozenset(key[0]), frozenset(key[1])))
            ]
            assert len(hits) == 1, (seed, m)
            found[hits[0]] = found.get(hits[0], 0) + mult
        assert found == expected, seed
        outcomes.append(
            sorted((m.signature(), mult, cert) for m, mult, cert in parts)
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_criterion_8_costandard_length_matches_injective_dimension():
    # lattice side: the downward interval at Y has dimension 2^|Y|
    for n in range(4):
        a = build_incidence_algebra(n)
        for y in a.subsets:
            mod = interval_module(a, frozenset(), y)
            assert mod.total_dim == 2 ** len(y)
    # character side: the costandard at J has composition length 2^|J|
    for rs, theta, j in sweep_parameters():
        dec = decompose_character(rs, costandard_character(rs, theta, j))
        assert dec.ok, (str(rs.cartan_type), sorted(theta.itheta), sorted(j))
        length = sum(dec.factors.values())
        assert length == 2 ** len(j), (
            str(rs.cartan_type),
            sorted(theta.itheta),
            sorted(j),
            length,
        )
