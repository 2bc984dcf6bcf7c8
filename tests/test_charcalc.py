import json
import os
import random
import subprocess
import sys
from functools import reduce
from itertools import compress
from operator import or_
from pathlib import Path

import pytest

from catx import charcalc
from catx.charcalc import (
    Decomposition,
    FormalCharacter,
    ModuleCharacter,
    TwistedCharacter,
    Weight,
    costandard_character,
    decompose_character,
    induced_character,
    order_axiom_records,
    simple_character,
    verify_filtration,
    weight_lt,
    weight_universe,
    _bitset,
    _candidates,
    _coset_mins,
    _descent_classes,
    _descent_counts,
    _eliminate,
    _family_bits,
    _members,
    _order_rows,
    _order_verdict,
    _simple_bits,
    _subgroup_bits,
    _subgroup_ids,
    _supports,
    _universe_ids,
    _weight_ids,
    _weight_of,
)
from catx.cli import main
from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import CartanType, RootSystem, build_root_system
from catx.weyl import (
    WeylElement,
    _GroupTable,
    _index_mask,
    element_from_word,
    enumerate_weyl,
    group_table,
    kept_masks,
    longest_element,
    min_coset_reps,
    weyl_subgroup,
)
from reference import (
    canonical_twist,
    order_rows,
    reference_decompose,
    reference_filtration,
    simple_coset_reps,
    weight_sort_key,
)


def theta_for(rs, itheta):
    return FormalCharacter("theta", frozenset(itheta))


def words(char: ModuleCharacter) -> set[tuple[int, ...]]:
    return {w.v.word for w in char.weights()}


def test_twisted_character_canonicalization():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    s1 = WeylElement.simple_reflection(rs, 1)
    tc = TwistedCharacter.of(th, s1)
    assert tc.coset_rep.is_identity
    assert tc.is_untwisted
    with pytest.raises(InputError):
        TwistedCharacter(th, s1)
    # partial stabilizer: s2 survives canonicalization when 2 not in itheta
    th1 = theta_for(rs, [1])
    s2 = WeylElement.simple_reflection(rs, 2)
    assert TwistedCharacter.of(th1, s2).coset_rep == s2


def test_canonical_twist_composes_on_the_left():
    rs = build_root_system("B2")
    th = theta_for(rs, [1])
    s2 = WeylElement.simple_reflection(rs, 2)
    s1 = WeylElement.simple_reflection(rs, 1)
    tc = TwistedCharacter.of(th, s2)
    assert canonical_twist(tc, s1) == TwistedCharacter.of(th, s1 * s2)


def test_input_validation():
    rs = build_root_system("A2")
    bad = FormalCharacter("theta", frozenset([5]))
    with pytest.raises(InputError):
        induced_character(rs, bad, [])
    th = theta_for(rs, [1])
    with pytest.raises(InputError):
        induced_character(rs, th, [2])
    with pytest.raises(InputError):
        costandard_character(rs, th, [1], jprime_convention="bogus")
    with pytest.raises(InputError):
        ModuleCharacter([(None, 0)])


def test_a2_characters_explicit():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    m = induced_character(rs, th, [1])
    e = simple_character(rs, th, [1])
    n = costandard_character(rs, th, [1])
    assert words(m) == {(1,), (1, 2), (1, 2, 1)}
    assert words(e) == {(1,), (1, 2)}
    assert words(n) == {(), (1,), (1, 2)}
    for char in (m, e, n):
        assert all(w.tchar.is_untwisted for w in char.weights())
        assert all(mult == 1 for _, mult in char.items())
    # simple at the empty set is the single untwisted weight
    e0 = simple_character(rs, th, [])
    assert words(e0) == {()}


def test_character_sizes():
    rs = build_root_system("B2")
    th = theta_for(rs, [1, 2])
    # induced: one weight per coset rep of W_J
    assert induced_character(rs, th, []).total() == 8
    assert induced_character(rs, th, [1]).total() == 4
    assert induced_character(rs, th, [1, 2]).total() == 1
    # costandard at the full set matches induced at the empty set
    assert costandard_character(rs, th, [1, 2]) == induced_character(rs, th, [])
    # costandard at the empty set matches the simple there
    assert costandard_character(rs, th, []) == simple_character(rs, th, [])


def test_sanity_identities_across_types():
    for name in ("A2", "B2", "G2", "A3"):
        rs = build_root_system(name)
        for itheta in ([1], [2], list(rs.simple_indices)):
            th = theta_for(rs, itheta)
            assert costandard_character(rs, th, itheta) == induced_character(rs, th, [])
            assert costandard_character(rs, th, []) == simple_character(rs, th, [])
            # simple weights embed in the costandard ones
            for j in ([], [itheta[0]], itheta):
                e = simple_character(rs, th, j)
                n = costandard_character(rs, th, j)
                for w, mult in e.items():
                    assert n.get(w) >= mult


def test_simple_coset_reps_b2():
    rs = build_root_system("B2")
    th = theta_for(rs, [1, 2])
    # J = itheta: every minimal rep of W_J is the identity, kept
    assert len(simple_coset_reps(rs, th, [1, 2])) == 1
    # J = {} with full itheta: only the identity survives
    assert len(simple_coset_reps(rs, th, [])) == 1
    # descents outside itheta are allowed, so every rep survives here
    th1 = theta_for(rs, [1])
    assert len(simple_coset_reps(rs, th1, [1])) == 4


def test_weight_lt_basic_relations():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    e = WeylElement.identity(rs)
    s1 = element_from_word(rs, [1])
    w0 = element_from_word(rs, [1, 2, 1])
    top = Weight(TwistedCharacter.of(th, e), e)
    mid = Weight(TwistedCharacter.of(th, e), s1)
    low = Weight(TwistedCharacter.of(th, e), w0)
    assert weight_lt(mid, top)
    assert weight_lt(low, top)
    assert weight_lt(low, mid)
    assert not weight_lt(top, mid)
    assert not weight_lt(top, top)
    # different labels never compare
    other = FormalCharacter("eta", frozenset([1, 2]))
    assert not weight_lt(Weight(TwistedCharacter.of(other, e), s1), top)


def test_decompose_costandard_and_induced():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    dec = decompose_character(rs, costandard_character(rs, th, [1]))
    assert dec.ok
    assert dec.factors == {(th, frozenset()): 1, (th, frozenset({1})): 1}
    dec_m = decompose_character(rs, induced_character(rs, th, [1]))
    assert dec_m.ok
    assert dec_m.factors == {
        (th, frozenset({1})): 1,
        (th, frozenset({1, 2})): 1,
    }
    # the regular character decomposes into every simple once
    dec_r = decompose_character(rs, induced_character(rs, th, []))
    assert dec_r.ok
    assert dec_r.factors == {
        (th, frozenset()): 1,
        (th, frozenset({1})): 1,
        (th, frozenset({2})): 1,
        (th, frozenset({1, 2})): 1,
    }


def test_decompose_tie_break_agreement():
    rs = build_root_system("B2")
    th = theta_for(rs, [1, 2])
    char = ModuleCharacter.sum(
        [induced_character(rs, th, []), costandard_character(rs, th, [1])]
    )
    results = [decompose_character(rs, char, tie_break=t) for t in (0, 1, 2)]
    assert all(r.ok for r in results)
    assert results[0].factors == results[1].factors == results[2].factors
    with pytest.raises(InputError):
        decompose_character(rs, char, tie_break=3)


def test_decompose_reports_missing_weights():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    s1 = element_from_word(rs, [1])
    partial = ModuleCharacter({Weight(TwistedCharacter.of(th, WeylElement.identity(rs)), s1): 1})
    dec = decompose_character(rs, partial)
    assert not dec.ok
    assert dec.diagnostic is not None
    assert dec.remainder.total() == 1
    # a character with no longest-element-shaped weight stops immediately
    twisted = ModuleCharacter(
        {Weight(TwistedCharacter.of(theta_for(rs, [1]), element_from_word(rs, [2])), s1): 1}
    )
    dec2 = decompose_character(rs, twisted)
    assert not dec2.ok and "no maximal weight" in dec2.diagnostic


def test_decompose_stops_on_an_empty_simple_character():
    # a round that subtracts an empty piece removes nothing, so the same
    # candidate would stay maximal forever: run in a child process with a
    # timeout, so that a regression fails here instead of hanging the suite
    script = "\n".join(
        [
            "from catx import charcalc",
            "from catx.charcalc import FormalCharacter",
            "from catx.rootsystem import build_root_system",
            # the class lists stay, so the character is built; its bitsets go
            "classes = charcalc._descent_classes",
            "charcalc._descent_classes = lambda rs: (classes(rs)[0], [0] * 2 ** rs.rank)",
            "rs = build_root_system('A2')",
            "th = FormalCharacter('theta', frozenset([1, 2]))",
            "dec = charcalc.decompose_character(rs, charcalc.costandard_character(rs, th, [1]))",
            "print(dec.ok)",
            "print(dec.diagnostic)",
        ]
    )
    src = Path(charcalc.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    ok, diagnostic = proc.stdout.splitlines()
    assert ok == "False"
    # the first pick, the identity weight, is the simple at J = {}
    assert diagnostic == (
        "the simple character at (theta|{1,2}, J=[]) is empty; "
        "the class table is broken"
    )


def test_decompose_empty_character():
    rs = build_root_system("A2")
    dec = decompose_character(rs, ModuleCharacter())
    assert dec.ok and dec.factors == {}


def test_verify_filtration_passes_rank2():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        for itheta in ([], [1], [2], [1, 2]):
            th = theta_for(rs, itheta)
            records = verify_filtration(rs, th)
            assert len(records) == 4 * (2 ** len(itheta))
            assert all(r["passed"] for r in records), (name, itheta)
            assert {r["check"] for r in records} == {
                "filtration-multiset",
                "filtration-counting",
                "costandard-decomposition",
                "projective-pattern",
            }


def test_verify_filtration_passes_rank3():
    for name in ("A3", "B3", "C3"):
        rs = build_root_system(name)
        th = theta_for(rs, [1, 2, 3])
        records = verify_filtration(rs, th)
        assert all(r["passed"] for r in records), name


def test_rejected_jprime_convention_fails():
    rs = build_root_system("A2")
    th = theta_for(rs, [1])
    records = verify_filtration(rs, th, jprime_convention="i-minus-j")
    assert any(not r["passed"] for r in records)
    # the conventions coincide when itheta is everything
    full = theta_for(rs, [1, 2])
    records_full = verify_filtration(rs, full, jprime_convention="i-minus-j")
    assert all(r["passed"] for r in records_full)


def test_order_axiom_records():
    rs = build_root_system("B2")
    th = theta_for(rs, [1, 2])
    records = order_axiom_records(rs, th)
    assert [r["check"] for r in records] == ["order-irreflexive", "order-transitive"]
    assert all(r["passed"] for r in records)
    assert records[1]["params"]["mode"] == "exhaustive"
    rs3 = build_root_system("A3")
    records3 = order_axiom_records(rs3, theta_for(rs3, [1, 2, 3]))
    assert all(r["passed"] for r in records3)
    assert records3[1]["params"]["mode"] == "exhaustive"


def subsets_of(items):
    out = [frozenset()]
    for x in sorted(items):
        out += [s | {x} for s in out]
    return out


def lt_from_definition(a, b):
    """The strict order read off its definition: some w_b u w_a^{-1}, u in
    the stabilizer subgroup, maps a's kept roots onto a proper subset of
    b's kept roots."""
    if a.tchar.base != b.tchar.base:
        return False
    kept_a = [k for k, j in enumerate(a.v.perm) if j >= 0]
    kept_b = {k for k, j in enumerate(b.v.perm) if j >= 0}
    wa_inv, wb = a.tchar.coset_rep.inverse(), b.tchar.coset_rep
    for u in weyl_subgroup(a.v.rs, a.tchar.base.itheta):
        x = wb * u * wa_inv
        if {x.perm[k] for k in kept_a} < kept_b:
            return True
    return False


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_order_rows_match_the_pairwise_order(name):
    rs = build_root_system(name)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        universe = weight_universe(rs, theta)
        ids = _universe_ids(rs, theta)
        assert ModuleCharacter({w: 1 for w in universe})._entries.get(theta, {}) == {
            p: 1 for p in ids
        }
        rows_ids, rows = _order_rows(rs, theta)
        assert rows_ids == ids
        lt = [[weight_lt(a, b) for b in universe] for a in universe]
        assert rows == [
            sum(1 << j for j, related in enumerate(row) if related) for row in lt
        ], (name, sorted(itheta))
        assert lt == [
            [lt_from_definition(a, b) for b in universe] for a in universe
        ], (name, sorted(itheta))
        n = len(universe)
        chains = sum(
            1
            for a in range(n)
            for b in range(n)
            if lt[a][b]
            for c in range(n)
            if lt[b][c]
        )
        params = order_axiom_records(rs, theta)[1]["params"]
        assert params["triples_checked"] == chains, (name, sorted(itheta))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]
)
def test_order_rows_match_the_column_reference(name):
    # the rows from the parabolic factorisation against the column ANDs
    # over every stabilizer element that passes the mask test, on every
    # itheta of every type up to rank 4
    rs = build_root_system(name)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        assert _order_rows(rs, theta) == order_rows(rs, theta), (name, sorted(itheta))


def left_weak_ideals(rs) -> list[int]:
    """Per element id x, the lower left-weak ideal of x: {x} and the ideals
    of s_i * x over the left descents s_i of x, as a set of element ids
    held in one int (bit y for id y).  Read off the group table's right
    multiplication alone: s_i * x = (x^{-1} * s_i)^{-1}, and ids increase
    with length, so s_i * x is done before x."""
    table = group_table(rs)
    rmul, inverse, descents = table.rmul, table.inverse, table.descents
    ideals = []
    for x in range(len(inverse)):
        ideal = 1 << x
        left = inverse[x]
        for i in rs.simple_indices:
            if descents[left] >> (i - 1) & 1:
                ideal |= ideals[inverse[rmul[i][left]]]
        ideals.append(ideal)
    return ideals


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]
    + ["A5", "B5", "C5", "D5"],
)
def test_order_rows_at_empty_itheta_are_the_left_weak_order(name):
    """At itheta empty the weight of x is (x, x^{-1}), and its row holds
    the weight of y exactly when y lies strictly below x in the left weak
    order, N(y) a proper subset of N(x)."""
    rs = build_root_system(name)
    enumerate_weyl(rs, allow_large=True)
    n = len(group_table(rs).elements)
    universe, rows = _order_rows(rs, theta_for(rs, []))
    at = {p // n: a for a, p in enumerate(universe)}
    assert sorted(at) == list(range(n))
    for x, ideal in enumerate(left_weak_ideals(rs)):
        want, rest = 0, ideal ^ 1 << x
        while rest:
            low = rest & -rest
            rest ^= low
            want |= 1 << at[low.bit_length() - 1]
        assert rows[at[x]] == want, (name, x)


# every weight of every rank-2 type, not only the sweep universes: twists
# whose inverse sends a kept root negative reach the negative roots of
# weight_lt's masks, which no sweep weight has
@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2"])
def test_order_matches_its_definition_on_every_weight(name):
    rs = build_root_system(name)
    group = enumerate_weyl(rs)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        weights = tuple(
            Weight(TwistedCharacter(theta, rep), v)
            for rep in min_coset_reps(rs, itheta)
            for v in group
        )
        lt = [[lt_from_definition(a, b) for b in weights] for a in weights]
        assert [[weight_lt(a, b) for b in weights] for a in weights] == lt, (
            name,
            sorted(itheta),
        )


def test_order_verdict_catches_a_reflexive_weight():
    rs = build_root_system("A2")
    universe = weight_universe(rs, theta_for(rs, [1, 2]))
    rows = [0] * len(universe)
    rows[2] = 1 << 2
    refl, trans = _order_verdict(rows, {}, lambda k: repr(universe[k]))
    assert not refl["passed"]
    assert refl["counterexample"] == {"weight": repr(universe[2])}
    assert trans["passed"]


def test_order_verdict_names_the_first_broken_chain():
    rs = build_root_system("A2")
    universe = weight_universe(rs, theta_for(rs, [1, 2]))
    rows = [0] * len(universe)
    # broken chains 0 < 1 < 4, 0 < 1 < 5 and 0 < 3 < 2; the first in
    # universe order is (0, 1, 4) even though 2 < 4
    rows[0] = 1 << 1 | 1 << 3
    rows[1] = 1 << 4 | 1 << 5
    rows[3] = 1 << 2
    refl, trans = _order_verdict(rows, {}, lambda k: repr(universe[k]))
    assert refl["passed"]
    assert not trans["passed"]
    assert trans["counterexample"] == {
        "triple": [repr(universe[k]) for k in (0, 1, 4)]
    }
    assert trans["params"] == {"mode": "exhaustive", "triples_checked": 3}


def test_order_verdict_rejects_a_two_cycle():
    rs = build_root_system("A2")
    universe = weight_universe(rs, theta_for(rs, [1, 2]))
    rows = [0] * len(universe)
    rows[0] = 1 << 1
    rows[1] = 1 << 0
    refl, trans = _order_verdict(rows, {}, lambda k: repr(universe[k]))
    assert refl["passed"]
    assert not trans["passed"]
    assert trans["counterexample"] == {
        "triple": [repr(universe[k]) for k in (0, 1, 0)]
    }


def test_weight_universe():
    rs = build_root_system("A2")
    th = theta_for(rs, [1, 2])
    uni = weight_universe(rs, th)
    # full itheta: every group element appears as a second component
    assert len(uni) == 6
    assert len(set(uni)) == 6


def test_decomposition_ok_property():
    d = Decomposition()
    assert d.ok
    d.diagnostic = "stopped"
    assert not d.ok


def candidate_label(rs, weight):
    """J such that the weight reads (untwisted theta, w_J), if any."""
    if not weight.tchar.is_untwisted:
        return None
    j = weight.v.descent_set()
    if not j <= weight.tchar.base.itheta:
        return None
    if weight.v != longest_element(rs, j):
        return None
    return j


def reference_decomposition(rs, char, tie_break=0):
    """The pairwise decomposition: each round tests every longest-element-
    shaped weight with weight_lt against every weight still present."""
    work = char.mapping
    out = Decomposition()
    while work:
        cands = []
        for weight in work:
            j = candidate_label(rs, weight)
            if j is not None:
                cands.append((weight, j))
        maximal = [
            (weight, j)
            for weight, j in cands
            if not any(other != weight and weight_lt(weight, other) for other in work)
        ]
        if not maximal:
            out.diagnostic = (
                "no maximal weight of longest-element shape remains; "
                f"{sum(work.values())} weight(s) left"
            )
            break
        maximal.sort(
            key=lambda wj: (-len(wj[1]), tuple(sorted(wj[1])), wj[0].tchar.base.label)
        )
        pick = {0: 0, 1: len(maximal) - 1, 2: len(maximal) // 2}[tie_break]
        weight, j = maximal[pick]
        piece = simple_character(rs, weight.tchar.base, j)
        missing = [pw for pw, pm in piece.items() if work.get(pw, 0) < pm]
        if missing:
            out.diagnostic = (
                f"subtracting the simple character at J={sorted(j)} needs "
                f"weight(s) {missing!r} not present with enough multiplicity"
            )
            break
        for pw, pm in piece.items():
            left = work[pw] - pm
            if left:
                work[pw] = left
            else:
                del work[pw]
        key = (weight.tchar.base, j)
        out.factors[key] = out.factors.get(key, 0) + 1
    out.remainder = ModuleCharacter(work)
    return out


def assert_matches_reference(rs, char, label):
    for tie_break in (0, 1, 2):
        got = decompose_character(rs, char, tie_break=tie_break)
        want = reference_decomposition(rs, char, tie_break)
        assert got.factors == want.factors, (label, tie_break)
        assert got.remainder == want.remainder, (label, tie_break)
        assert got.diagnostic == want.diagnostic, (label, tie_break)


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_decomposition_matches_the_pairwise_scan(name):
    rs = build_root_system(name)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        for j in subsets_of(itheta):
            for kind, build in (
                ("M", induced_character),
                ("E", simple_character),
                ("nabla", costandard_character),
            ):
                label = (kind, sorted(itheta), sorted(j))
                assert_matches_reference(rs, build(rs, theta, j), label)


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_decomposition_matches_the_pairwise_scan_off_the_families(name):
    rs = build_root_system(name)
    full = theta_for(rs, rs.simple_indices)
    eta = FormalCharacter("eta", frozenset([1, 2]))
    # two thetas at once: maxima of both labels compete in the tie order
    mixed = ModuleCharacter.sum(
        [
            induced_character(rs, full, [1]),
            costandard_character(rs, eta, [2]),
            induced_character(rs, eta, []),
        ]
    )
    assert_matches_reference(rs, mixed, "two thetas")
    nabla = costandard_character(rs, full, [1, 3])
    for weight, mult in nabla.items():
        # one weight removed: a subtraction runs short somewhere
        removed = nabla.mapping
        del removed[weight]
        assert_matches_reference(rs, ModuleCharacter(removed), ("removed", weight))
        # one multiplicity doubled: a copy is left over or blocks a maximum
        doubled = nabla.mapping
        doubled[weight] = 2 * mult
        assert_matches_reference(rs, ModuleCharacter(doubled), ("doubled", weight))


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_decomposition_matches_the_pairwise_scan_past_twisted_weights(name):
    # a twisted weight (theta^r, v) with v in W_itheta has its v's support
    # inside some candidate's K, yet lies above no candidate: r is not 1
    rs = build_root_system(name)
    n = len(enumerate_weyl(rs))
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        inside = [v._id for v in weyl_subgroup(rs, itheta)]
        twisted = [
            _weight_of(rs, theta, rep._id * n + v)
            for rep in min_coset_reps(rs, itheta)[1:]
            for v in inside
        ]
        if not twisted:
            continue
        for j in subsets_of(itheta):
            char = costandard_character(rs, theta, j).mapping
            char.update(dict.fromkeys(twisted, 1))
            assert_matches_reference(rs, ModuleCharacter(char), (sorted(itheta), sorted(j)))


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_decomposition_breaks_ties_between_bases_in_insertion_order(name):
    # one label over two itheta: both bases have a maximal candidate at
    # J = {2} with the same sort key, and one weight short in either base
    # makes the subtraction order show in the remainder
    rs = build_root_system(name)
    pair = ModuleCharacter.sum(
        [
            costandard_character(rs, FormalCharacter("theta", frozenset(k)), [2])
            for k in ([1, 2], [2, 3])
        ]
    )
    assert len(pair._entries) == 2
    failed = 0
    for weight in pair.weights():
        removed = pair.mapping
        del removed[weight]
        char = ModuleCharacter(removed)
        assert_matches_reference(rs, char, ("removed", weight))
        failed += not decompose_character(rs, char).ok
    assert failed


def candidate_rows(rs, base, weights):
    """The up-sets of the decomposition candidates among packed weights
    over one base, as the closed form of `_candidates` gives them: a
    triple (K, k, row) per candidate weights[k] = (theta, w_K), where bit
    b of the row is set when weights[b] is untwisted (id below |W|) with
    a v whose support (`_supports`) lies inside K, and b is not k."""
    n, support = len(group_table(rs).elements), _supports(rs)
    at = {p: k for k, p in enumerate(weights)}
    out = []
    for j, p, mask, _ in _candidates(rs, _index_mask(base.itheta)):
        if p not in at:
            continue
        row = sum(
            1 << b
            for b, q in enumerate(weights)
            if q < n and not support[q] & ~mask
        )
        out.append((j, at[p], row ^ 1 << at[p]))
    return out


def candidate_rows_hold(rs, char, label):
    """The candidate rows, one per candidate (an untwisted weight whose v
    is w_J for some J inside itheta) against all of the character's
    weights, equal the weight_lt rows.  A packed id below |W| has the
    identity as its representative."""
    for base, inner in char._entries.items():
        ids = list(inner)
        longest = {longest_element(rs, k)._id: k for k in subsets_of(base.itheta)}
        weights = [_weight_of(rs, base, p) for p in ids]
        want = {
            k: (
                longest[a],
                sum(
                    1 << b
                    for b, upper in enumerate(weights)
                    if weight_lt(_weight_of(rs, base, a), upper)
                ),
            )
            for k, a in enumerate(ids)
            if a in longest
        }
        got = {k: (j, row) for j, k, row in candidate_rows(rs, base, ids)}
        assert got == want, (label, base)


def maximal_holds(rs, char, seed, label):
    """Along one seeded random order of deleting the character's weights,
    the elimination's one-AND maximality test (a candidate at K is
    maximal when the bits present inside W_K, `_subgroup_bits`, are its
    own bit alone) picks exactly the candidates whose row
    (`candidate_rows`) meets no weight still present, in candidate order.
    The presence bitsets are rebuilt from the weights left at every step,
    as `decompose_character` converts its input: weight p is bit
    x = v^{-1} when `_weight_ids` gives p for x.  Returns how many picks
    were compared."""
    table = group_table(rs)
    n, inverse, sub = len(table.elements), table.inverse, _subgroup_bits(rs)
    work = {base: dict(inner) for base, inner in char._entries.items()}
    cands, rows = [], []
    for base, inner in work.items():
        weights = list(inner)
        for j, k, row in candidate_rows(rs, base, weights):
            cands.append((base, j, weights[k]))
            rows.append({q for b, q in enumerate(weights) if row >> b & 1})
    order = [(base, p) for base, inner in work.items() for p in inner]
    random.Random(seed).shuffle(order)
    picked = 0
    for step in range(len(order) + 1):
        present = {}
        for base, inner in work.items():
            ids = _weight_ids(rs, _index_mask(base.itheta))
            xs = [inverse[p % n] for p in inner if ids[inverse[p % n]] == p]
            present[base] = _bitset(xs, n)
        got = [
            (base, j)
            for base, j, p in cands
            if present[base] & sub[_index_mask(j)] == 1 << p
        ]
        want = [
            (base, j)
            for (base, j, p), row in zip(cands, rows)
            if p in work[base] and row.isdisjoint(work[base])
        ]
        assert got == want, (label, step)
        picked += len(want)
        if step < len(order):
            base, p = order[step]
            del work[base][p]
    return picked


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_maximal_picks_the_candidates_whose_rows_miss_every_weight_left(name):
    rs = build_root_system(name)
    eta = costandard_character(rs, FormalCharacter("eta", frozenset([1, 2])), [2])
    seed = picked = 0
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        for j in subsets_of(itheta):
            nabla = costandard_character(rs, theta, j)
            induced = induced_character(rs, theta, j)
            summed = ModuleCharacter.sum([nabla, induced, eta])
            for kind, char in (("nabla", nabla), ("M", induced), ("sum", summed)):
                seed += 1
                label = (kind, sorted(itheta), sorted(j))
                picked += maximal_holds(rs, char, seed, label)
    # several candidates are maximal at once on most steps
    assert picked > seed


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_decomposition_rows_match_weight_lt_on_failing_characters_too(name):
    rs = build_root_system(name)
    full = theta_for(rs, rs.simple_indices)
    eta = FormalCharacter("eta", frozenset([1, 2]))
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        for j in subsets_of(itheta):
            for build in (induced_character, simple_character, costandard_character):
                candidate_rows_hold(rs, build(rs, theta, j), (sorted(itheta), sorted(j)))
    induced = induced_character(rs, full, [1])
    failed = 0
    for weight in induced.weights():
        # one weight short: mostly the decomposition stops part way
        removed = induced.mapping
        del removed[weight]
        char = ModuleCharacter(removed)
        candidate_rows_hold(rs, char, ("removed", weight))
        maximal_holds(rs, char, failed, ("removed", weight))
        failed += not decompose_character(rs, char).ok
    assert failed
    two = ModuleCharacter.sum(
        [induced_character(rs, full, []), costandard_character(rs, eta, [2])]
    )
    candidate_rows_hold(rs, two, "two bases")
    maximal_holds(rs, two, 0, "two bases")
    assert set(two._entries) == {full, eta}
    # a base whose one weight is a candidate, beside a base of mostly
    # twisted weights, which no candidate row holds
    single = ModuleCharacter.sum(
        [simple_character(rs, full, rs.simple_indices), induced_character(rs, eta, [])]
    )
    candidate_rows_hold(rs, single, "lone candidate")
    maximal_holds(rs, single, 0, "lone candidate")


def every_weight_id(rs, itheta):
    """The packed ids of every weight over a theta with this itheta: each
    canonical representative against each group element."""
    n = len(enumerate_weyl(rs))
    return [rep._id * n + v for rep in min_coset_reps(rs, itheta) for v in range(n)]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "D4"]
)
def test_candidate_rows_match_weight_lt_on_every_weight(name):
    """The closed form of a candidate's up-set: (theta, w_K) lies below
    (theta^r, v) exactly when r = 1 and v is in W_K but is not w_K."""
    rs = build_root_system(name)
    identity = WeylElement.identity(rs)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        ids = every_weight_id(rs, itheta)
        weights = [_weight_of(rs, theta, p) for p in ids]
        rows = candidate_rows(rs, theta, ids)
        assert sorted(map(sorted, (j for j, _, _ in rows))) == sorted(
            map(sorted, subsets_of(itheta))
        )
        for j, k, row in rows:
            low = weights[k]
            assert low == Weight(TwistedCharacter(theta, identity), longest_element(rs, j))
            want = sum(1 << b for b, up in enumerate(weights) if weight_lt(low, up))
            assert row == want, (name, sorted(itheta), sorted(j))


def union_universe(rs, theta):
    """The sweep universe as the union of the costandard characters over
    every J inside itheta, in `items` order."""
    seen = set()
    for j in subsets_of(theta.itheta):
        seen.update(costandard_character(rs, theta, j)._entries.get(theta, ()))
    return sorted(seen, key=lambda p: weight_sort_key(_weight_of(rs, theta, p)))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]
)
def test_universe_is_the_costandard_family_at_itheta(name):
    rs = build_root_system(name)
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        assert _universe_ids(rs, theta) == union_universe(rs, theta), sorted(itheta)


def walk_every_edge(rows):
    """The transitivity verdict by the walk over every edge a < b: the
    first chain a < b < c in universe order with c not above a, and the
    number of chains a < b < c."""
    violation = None
    checked = 0
    for a in range(len(rows)):
        rest = rows[a]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            checked += rows[b].bit_count()
            missing = rows[b] & ~rows[a]
            if missing and violation is None:
                c = (missing & -missing).bit_length() - 1
                violation = (a, b, c)
    return violation, checked


def assert_verdict_matches_the_walk(rows, label):
    refl, trans = _order_verdict(rows, {}, str)
    violation, checked = walk_every_edge(rows)
    assert refl["passed"] == (not any(row >> a & 1 for a, row in enumerate(rows)))
    assert trans["passed"] == (violation is None), label
    assert trans["counterexample"] == (
        None if violation is None else {"triple": [str(x) for x in violation]}
    ), label
    assert trans["params"]["triples_checked"] == checked, label
    return trans["passed"]


def closure(rows):
    rows = list(rows)
    for k in range(len(rows)):
        for a in range(len(rows)):
            if rows[a] >> k & 1:
                rows[a] |= rows[k]
    return rows


def test_order_verdict_matches_the_walk_on_seeded_relations():
    rng = random.Random(20231)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(1, 40)
        density = rng.random() * 0.5
        # a strict order: the closure of random edges from later to
        # earlier positions, placed in a random universe order
        place = list(range(n))
        rng.shuffle(place)
        rows = [0] * n
        for a in range(n):
            for b in range(a):
                if rng.random() < density:
                    rows[place[a]] |= 1 << place[b]
        rows = closure(rows)
        outcomes.add(assert_verdict_matches_the_walk(rows, (trial, "order")))
        set_bits = [(a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1]
        if set_bits:
            a, b = rng.choice(set_bits)
            dropped = rows[:a] + [rows[a] ^ 1 << b] + rows[a + 1 :]
            outcomes.add(assert_verdict_matches_the_walk(dropped, (trial, "drop")))
        a, b = rng.randrange(n), rng.randrange(n)
        added = rows[:a] + [rows[a] | 1 << b] + rows[a + 1 :]
        outcomes.add(assert_verdict_matches_the_walk(added, (trial, "add")))
        noise = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        outcomes.add(assert_verdict_matches_the_walk(noise, (trial, "noise")))
    assert outcomes == {True, False}


@pytest.mark.parametrize("name, itheta", [("A3", [1, 2, 3]), ("B3", [1, 3]), ("C3", [])])
def test_order_verdict_matches_the_walk_on_universes_one_bit_off(name, itheta):
    rs = build_root_system(name)
    theta = theta_for(rs, itheta)
    _, rows = _order_rows(rs, theta)
    assert assert_verdict_matches_the_walk(rows, "as built")
    n = len(rows)
    rng = random.Random(len(rows))
    set_bits = [(a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1]
    failed = 0
    for a, b in rng.sample(set_bits, min(60, len(set_bits))):
        dropped = rows[:a] + [rows[a] ^ 1 << b] + rows[a + 1 :]
        failed += not assert_verdict_matches_the_walk(dropped, ("drop", a, b))
    for _ in range(60):
        a, b = rng.randrange(n), rng.randrange(n)
        added = rows[:a] + [rows[a] | 1 << b] + rows[a + 1 :]
        failed += not assert_verdict_matches_the_walk(added, ("add", a, b))
    assert failed


def test_order_verdict_finds_a_chain_hidden_behind_a_cover():
    # 0 < 1 < 3 is broken (3 is not above 0), but walking row 0 from the
    # top bit checks 2 first, whose row holds 1, so 1 is never tested
    # from 0; the failure shows at 2 < 1 < 3 instead, and the witness is
    # still the first broken chain in universe order
    rows = [1 << 1 | 1 << 2, 1 << 3, 1 << 1, 0]
    refl, trans = _order_verdict(rows, {}, str)
    assert refl["passed"]
    assert not trans["passed"]
    assert trans["counterexample"] == {"triple": ["0", "1", "3"]}
    assert trans["params"]["triples_checked"] == 3
    assert_verdict_matches_the_walk(rows, "hidden")
    # a diagonal bit hides more: 2 lies in its own row, which holds 1, so
    # the walk over the covers would drop 1 and never test 2 < 1 < 0
    rows = [0, 1 << 0, 1 << 1 | 1 << 2]
    refl, trans = _order_verdict(rows, {}, str)
    assert refl["counterexample"] == {"weight": "2"}
    assert trans["counterexample"] == {"triple": ["2", "1", "0"]}
    assert_verdict_matches_the_walk(rows, "reflexive")


@pytest.mark.parametrize("name", ["A1", "G2", "A3", "B3", "C4", "D4", "F4"])
def test_kept_masks_give_the_root_masks_of_every_sweep_weight(name):
    """K[rep] & K[v * rep] is the kept-root set of v moved by rep^{-1},
    read off the permutations and the image bits over all 2n roots as
    the order rows did before the mask table: so no sweep weight's mask
    holds a negative root."""
    rs = build_root_system(name)
    table = group_table(rs)
    n = len(table.elements)
    kept = kept_masks(rs)
    assert len(kept) == n
    for itheta in subsets_of(rs.simple_indices):
        for p in _universe_ids(rs, theta_for(rs, itheta)):
            rep, v = divmod(p, n)
            bits = table.elements[table.inverse[rep]].image_bits
            want = sum(compress(bits, map((0).__le__, table.elements[v].perm)))
            assert kept[rep] & kept[table.product(v, rep)] == want, (sorted(itheta), p)


def test_decomposition_and_filtration_never_call_weight_lt(monkeypatch):
    # nor the order rows: a candidate's up-set is read off its closed form
    def refuse(*args):
        raise AssertionError("the pairwise order called on the decomposition path")

    for name in ("weight_lt", "_order_rows"):
        monkeypatch.setattr(f"catx.charcalc.{name}", refuse)
    rs = build_root_system("B3")
    records = verify_filtration(rs, theta_for(rs, rs.simple_indices))
    assert records and all(r["passed"] for r in records)
    rs4 = build_root_system("C4")
    theta = theta_for(rs4, rs4.simple_indices)
    dec = decompose_character(rs4, costandard_character(rs4, theta, [1, 2, 4]))
    assert dec.ok
    assert dec.factors == {(theta, k): 1 for k in subsets_of([1, 2, 4])}


def test_filtration_builds_no_character_per_subset(monkeypatch):
    # the simple characters are summed as their memoised id tuples
    def refuse(*args, **kwargs):
        raise AssertionError("a simple character was built or summed per subset")

    monkeypatch.setattr("catx.charcalc.simple_character", refuse)
    monkeypatch.setattr(ModuleCharacter, "sum", staticmethod(refuse))
    rs = build_root_system("B3")
    theta = theta_for(rs, [1, 2])
    assert all(r["passed"] for r in verify_filtration(rs, theta))
    rejected = verify_filtration(rs, theta, jprime_convention="i-minus-j")
    assert len(rejected) == 16 and not all(r["passed"] for r in rejected)


def test_hot_paths_build_no_weight_objects(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a weight object was built on a hot path")

    for module in ("catx.charcalc", "catx.chario"):
        monkeypatch.setattr(f"{module}.Weight", refuse, raising=False)
    monkeypatch.setattr(TwistedCharacter, "of", classmethod(refuse))
    monkeypatch.setattr("catx.charcalc.weight_lt", refuse)
    # a system of its own, so the simple characters are built here
    rs = RootSystem(CartanType.parse("B3"))
    theta = theta_for(rs, rs.simple_indices)
    records = verify_filtration(rs, theta) + order_axiom_records(rs, theta)
    assert records and all(r["passed"] for r in records)
    path = tmp_path / "nabla.json"
    argv = ["char", "--type", "C4", "--kind", "nabla", "--itheta", "all", "--j", "1,2,4"]
    assert main([*argv, "--json", "--out", str(path)]) == 0
    assert main(["decompose", "--in", str(path), "--json"]) == 0
    decomposed = json.loads(capsys.readouterr().out)
    assert decomposed["ok"] and len(decomposed["factors"]) == 8


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_packed_weights_round_trip_and_sort_by_weight_sort_key(name):
    rs = build_root_system(name)
    group = enumerate_weyl(rs)
    n = len(group)
    # with an empty itheta every element is a canonical representative
    theta = theta_for(rs, [])
    if n <= 128:
        pairs = [(a, b) for a in range(n) for b in range(n)]
    else:
        # every id in each slot, against a spread of ids in the other
        spread = range(0, n, n // 7)
        pairs = [(a, b) for a in range(n) for b in spread]
        pairs += [(a, b) for a in spread for b in range(n)]
    weights = [Weight(TwistedCharacter(theta, group[a]), group[b]) for a, b in pairs]
    char = ModuleCharacter({w: 1 for w in weights})
    assert list(char._entries[theta]) == list(dict.fromkeys(a * n + b for a, b in pairs))
    assert list(char.mapping) == list(dict.fromkeys(weights))
    assert char.items() == sorted(
        char.mapping.items(), key=lambda kv: weight_sort_key(kv[0])
    )


def test_weights_of_a_system_without_a_table_pack_like_the_enumerated_one():
    rs = build_root_system("B3")
    theta = theta_for(rs, [1, 2])
    want = costandard_character(rs, theta, [1])
    fresh = RootSystem(CartanType.parse("B3"))
    assert fresh._weyl_table is None
    weights = {
        Weight(
            TwistedCharacter.of(theta, element_from_word(fresh, w.tchar.coset_rep.word)),
            element_from_word(fresh, w.v.word),
        ): m
        for w, m in want.items()
    }
    assert all(w.v._id is None for w in weights)
    char = ModuleCharacter(weights)
    assert fresh._weyl_table is not None
    assert char == want
    assert char.items() == want.items()
    assert decompose_character(fresh, char).factors == {
        (theta, frozenset()): 1,
        (theta, frozenset({1})): 1,
    }
    # beyond the order guard, packing refuses before it enumerates anything
    e8 = RootSystem(CartanType.parse("E8"), allow_large=True)
    identity = WeylElement.identity(e8)
    top = Weight(TwistedCharacter.of(theta_for(e8, []), identity), identity)
    with pytest.raises(ResourceGuardError):
        ModuleCharacter({top: 1})
    assert e8._weyl_table is None


def test_simple_character_memo_belongs_to_its_system():
    one = RootSystem(CartanType.parse("C3"))
    two = RootSystem(CartanType.parse("C3"))
    enumerate_weyl(two)
    before = set(two._weyl_memo)
    theta = theta_for(one, one.simple_indices)
    first = simple_character(one, theta, [1])
    assert set(two._weyl_memo) == before
    assert simple_character(two, theta, [1]) == first
    # changing a returned character, even in place, changes no later answer
    want = first.items()
    for p in first._entries[theta]:
        first._entries[theta][p] += 4
    first.mapping.clear()
    assert simple_character(one, theta, [1]).items() == want
    dec = decompose_character(one, costandard_character(one, theta, [1]))
    assert dec.ok
    assert dec.factors == {(theta, frozenset()): 1, (theta, frozenset({1})): 1}


def test_simple_character_memo_is_keyed_on_masks_not_labels():
    rs = RootSystem(CartanType.parse("B3"))
    a = FormalCharacter("a", frozenset({1, 3}))
    b = FormalCharacter("b", frozenset({1, 3}))

    def table_keys():
        return {k for k in rs._weyl_memo if isinstance(k, tuple) and k[0] is _weight_ids}

    dec_a = decompose_character(rs, costandard_character(rs, a, [1, 3]))
    grown = table_keys()
    assert grown == {(_weight_ids, _index_mask({1, 3}))}  # one per itheta mask
    dec_b = decompose_character(rs, costandard_character(rs, b, [1, 3]))
    assert table_keys() == grown
    assert dec_a.ok and dec_a.factors == {(a, k): 1 for k in subsets_of([1, 3])}
    assert dec_b.ok and dec_b.factors == {(b, k): 1 for k in subsets_of([1, 3])}
    both = costandard_character(rs, a, [1]) + costandard_character(rs, b, [3])
    dec = decompose_character(rs, both)
    assert dec.ok
    assert dec.factors == {(a, frozenset()): 1, (a, frozenset({1})): 1,
                           (b, frozenset()): 1, (b, frozenset({3})): 1}
    assert table_keys() == grown
    assert set(simple_character(rs, b, [1])._entries) == {b}


RANK_4_AND_BELOW = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_coset_minima_match_the_descent_walk(name):
    rs = build_root_system(name)
    table = group_table(rs)
    ids = range(len(table.elements))
    for j in subsets_of(rs.simple_indices):
        mask = _index_mask(j)
        assert _coset_mins(rs, mask) == [table.minimize(a, mask) for a in ids], sorted(j)


def _counted_reps(rs, j):
    """The count of minimal coset representatives that the counting
    record reads off the descent histogram."""
    mask = _index_mask(j)
    return sum(c for d, c in enumerate(_descent_counts(rs)) if not d & mask)


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_descent_counts_count_the_minimal_coset_reps(name):
    rs = build_root_system(name)
    counts = _descent_counts(rs)
    assert len(counts) == 2 ** rs.rank and sum(counts) == len(group_table(rs).elements)
    for j in subsets_of(rs.simple_indices):
        assert _counted_reps(rs, j) == len(min_coset_reps(rs, j)), sorted(j)


def test_descent_counts_count_the_minimal_coset_reps_of_e6():
    rs = build_root_system("E6", allow_large=True)
    for j in ([], [2], [1, 3], [2, 4, 5], [1, 2, 3, 4, 5, 6]):
        assert _counted_reps(rs, j) == len(min_coset_reps(rs, j)), j


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_families_match_the_two_walk_formula(name, monkeypatch):
    """Each weight of the standard families is (theta^w, w_J * w^{-1}): the
    reference below walks the group twice per weight, once to minimize w
    in its coset and once for the product."""
    rs = RootSystem(CartanType.parse(name))
    table = group_table(rs)
    n = len(table.elements)
    minimize, product, inverse = table.minimize, table.product, table.inverse

    def reference(itheta, reps, wj):
        mask = _index_mask(itheta)
        return [minimize(w._id, mask) * n + product(wj, inverse[w._id]) for w in reps]

    want = {}
    for itheta in subsets_of(rs.simple_indices):
        for j in subsets_of(itheta):
            wj = longest_element(rs, j)._id
            reps = min_coset_reps(rs, j)
            refused = _index_mask(itheta - j)
            simple = [w for w in reps if not table.descents[product(w._id, wj)] & refused]
            want[itheta, j] = (
                reference(itheta, reps, wj),
                reference(itheta, simple, wj),
                reference(itheta, min_coset_reps(rs, itheta - j), 0),
                reference(itheta, min_coset_reps(rs, frozenset(rs.simple_indices) - j), 0),
            )
            assert list(simple_coset_reps(rs, theta_for(rs, itheta), j)) == simple
        _weight_ids(rs, _index_mask(itheta))
    _descent_classes(rs)

    # once the tables are built, the families only look up
    def refuse(*args):
        raise AssertionError("a family builder walked the group")

    monkeypatch.setattr(_GroupTable, "minimize", refuse)
    monkeypatch.setattr(_GroupTable, "product", refuse)
    # each family lists its weights class by class: by the right-descent
    # mask of the top x (the inverse of the second component), then by x
    def class_order(p):
        x = inverse[p % n]
        return table.descents[x], x

    for (itheta, j), (m, e, nabla, rejected) in want.items():
        theta = theta_for(rs, itheta)
        got = (
            induced_character(rs, theta, j),
            simple_character(rs, theta, j),
            costandard_character(rs, theta, j),
            costandard_character(rs, theta, j, jprime_convention="i-minus-j"),
        )
        for char, ids in zip(got, (m, e, nabla, rejected)):
            assert list(char._entries.get(theta, {}).items()) == [
                (p, 1) for p in sorted(ids, key=class_order)
            ], (sorted(itheta), sorted(j))


def translates(rs, itheta, slice_ids):
    """The packed weights (r, v) with r a minimal representative of the
    cosets of W_itheta and (1, v * r) in the slice: v = s * r^{-1} for
    each slice weight (1, s)."""
    table = group_table(rs)
    n, product, inverse = len(table.elements), table.product, table.inverse
    return {
        r._id * n + product(s, inverse[r._id])
        for r in min_coset_reps(rs, itheta)
        for s in slice_ids
    }


def family_masks(itheta, j):
    """Per family of the adopted convention, its builder and the (mask,
    want) of its right-descent test."""
    imask, jmask = _index_mask(itheta), _index_mask(j)
    return (
        (costandard_character, imask & ~jmask, 0),
        (induced_character, jmask, jmask),
        (simple_character, imask, jmask),
    )


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_every_family_is_the_translates_of_its_slice(name):
    rs = build_root_system(name)
    table = group_table(rs)
    n, inverse = len(enumerate_weyl(rs)), table.inverse
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        within = _subgroup_bits(rs)[_index_mask(itheta)]
        weights = _weight_ids(rs, _index_mask(itheta))
        assert within.bit_count() == len(weyl_subgroup(rs, itheta))
        # the untwisted weights are those of W_I, each (theta, x^{-1})
        assert [x for x in range(n) if weights[x] < n] == _members(within)
        assert all(weights[x] == inverse[x] for x in _members(within))
        for j in subsets_of(itheta):
            for build, mask, want in family_masks(itheta, j):
                full = list(build(rs, theta, j)._entries[theta])
                part = [inverse[x] for x in _members(_family_bits(rs, mask, want) & within)]
                label = (name, build.__name__, sorted(itheta), sorted(j))
                assert sorted(part) == sorted(p for p in full if p < n), label
                assert set(full) == translates(rs, itheta, part), label
                assert len(full) == len(min_coset_reps(rs, itheta)) * len(part), label


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_slice_decompositions_match_the_full_ones(name):
    rs = build_root_system(name)
    inverse = group_table(rs).inverse
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        within = _subgroup_bits(rs)[_index_mask(itheta)]
        pieces = [b & within for b in _simple_bits(rs, _index_mask(itheta))]
        for j in subsets_of(itheta):
            for build, mask, want in family_masks(itheta, j):
                full = decompose_character(rs, build(rs, theta, j))
                bits = _family_bits(rs, mask, want) & within
                part = _eliminate(rs, [[theta, inverse, pieces, bits, {}, {}]], 0)
                label = (name, build.__name__, sorted(itheta), sorted(j))
                assert full.ok and part.ok, label
                assert part.factors == full.factors, label


def test_the_rejected_costandard_family_is_translation_invariant_where_it_passes():
    """Its slice is the part at the identity coset (ids below |W|).  The
    (itheta, J) where the full family is not the translates of that slice
    are exactly those with a failing record."""
    counts = {}
    for name in ("A2", "B3", "C3", "G2"):
        rs = build_root_system(name)
        n = len(enumerate_weyl(rs))
        moved, failing = set(), set()
        for itheta in subsets_of(rs.simple_indices):
            theta = theta_for(rs, itheta)
            for j in subsets_of(itheta):
                full = costandard_character(rs, theta, j, jprime_convention="i-minus-j")
                ids = full._entries[theta]
                if set(ids) != translates(rs, itheta, [p for p in ids if p < n]):
                    moved.add((itheta, j))
            records = verify_filtration(rs, theta, jprime_convention="i-minus-j")
            failing |= {
                (itheta, frozenset(r["params"]["j"])) for r in records if not r["passed"]
            }
        assert moved == failing, name
        counts[name] = len(moved)
    assert counts == {"A2": 5, "B3": 19, "C3": 19, "G2": 5}


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_subgroup_ids_are_the_standard_subgroup_in_id_order(name):
    rs = build_root_system(name)
    table = group_table(rs)
    for itheta in subsets_of(rs.simple_indices):
        want = [table.index[u.perm] for u in weyl_subgroup(rs, itheta)]
        assert _subgroup_ids(rs, _index_mask(itheta)) == want, (name, sorted(itheta))


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "C4"])
def test_simple_pieces_are_the_simple_families_of_the_class_table(name):
    rs = build_root_system(name)
    table = group_table(rs)
    n = len(table.elements)
    lists, bits = _descent_classes(rs)
    # each class in id order, as a list and as the same bitset
    assert lists == [[x for x in range(n) if table.descents[x] == d] for d in range(2 ** rs.rank)]
    assert bits == [_bitset(xs, n) for xs in lists]
    for itheta in subsets_of(rs.simple_indices):
        imask = _index_mask(itheta)
        for within in ((1 << n) - 1, _subgroup_bits(rs)[imask]):
            pieces = [b & within for b in _simple_bits(rs, imask)]
            for j in subsets_of(itheta):
                jmask = _index_mask(j)
                assert pieces[jmask] == _family_bits(rs, imask, jmask) & within
            # every id of the table lies in exactly one simple family
            assert sum(b.bit_count() for b in pieces) == within.bit_count()
            assert reduce(or_, pieces) == within
    assert main(["verify", "--types", "a2,A2", "--checks", "biclosed,filtration"]) == 2


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_subgroup_bits_are_the_standard_subgroups(name):
    rs = build_root_system(name)
    table = group_table(rs)
    sub = _subgroup_bits(rs)
    assert len(sub) == 2 ** rs.rank
    for k in subsets_of(rs.simple_indices):
        ids = [table.index[u.perm] for u in weyl_subgroup(rs, k)]
        assert _members(sub[_index_mask(k)]) == sorted(ids), (name, sorted(k))


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_set_up_tables_match_their_definitions(name):
    # built from the group table's columns, not from words and products
    rs = build_root_system(name)
    table = group_table(rs)
    assert _supports(rs) == [_index_mask(set(word)) for word in table.words]
    cands = _candidates(rs, (1 << rs.rank) - 1)
    assert sorted(map(_index_mask, (c[0] for c in cands))) == list(range(2**rs.rank))
    for k, p, kmask, tie in cands:
        assert p == table.index[longest_element(rs, k).perm], (name, sorted(k))
        assert kmask == _index_mask(k) and tie == (-len(k), tuple(sorted(k)))


def decomposition_corpus(rs, seed):
    """The characters the elimination is held to the reference on: every
    induced, simple and costandard family (both conventions) of every
    (itheta, J); each family added to itself (multiplicity 2); each
    family plus the induced family at J = {} over a second base, eta;
    and each of these with one weight, drawn with the seed, removed.  Per
    itheta also the induced family at J = {} plus three weights (fewer
    in A1) drawn from every weight over theta, most of them outside every
    family, with multiplicities 1 to 3."""
    rng = random.Random(seed)
    everything = subsets_of(rs.simple_indices)
    for k, itheta in enumerate(everything):
        theta = theta_for(rs, itheta)
        eta = FormalCharacter("eta", everything[(k + 1) % len(everything)])
        other = induced_character(rs, eta, [])
        entries = {theta: dict(induced_character(rs, theta, [])._entries[theta])}
        ids = every_weight_id(rs, itheta)
        for p in rng.sample(ids, min(3, len(ids))):
            entries[theta][p] = entries[theta].get(p, 0) + rng.randint(1, 3)
        yield ModuleCharacter._of(rs, entries)
        for j in subsets_of(itheta):
            for family in (
                induced_character(rs, theta, j),
                simple_character(rs, theta, j),
                costandard_character(rs, theta, j),
                costandard_character(rs, theta, j, jprime_convention="i-minus-j"),
            ):
                for char in (family, family + family, family + other):
                    yield char
                    entries = {base: dict(inner) for base, inner in char._entries.items()}
                    del entries[theta][rng.choice(list(entries[theta]))]
                    yield ModuleCharacter._of(rs, entries)


def shown(dec):
    """What the repr of a decomposition shows: its factors in insertion
    order, its remainder and its diagnostic.  The remainder's repr lists
    its weights sorted, so equal entries give equal reprs; comparing the
    entries spares spelling out every weight left."""
    return repr(dec.factors), dec.remainder._entries, dec.diagnostic


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_decompositions_match_the_class_table_reference(name):
    rs = build_root_system(name)
    failed = 0
    for char in decomposition_corpus(rs, name):
        for tie in (0, 1, 2):
            got = decompose_character(rs, char, tie_break=tie)
            want = reference_decompose(rs, char, tie_break=tie)
            assert shown(got) == shown(want), (name, tie, char)
            if rs.rank < 4:
                assert repr(got) == repr(want), (name, tie, char)
        failed += not got.ok
    # the removals make some decompositions fail, so the diagnostics and
    # remainders are compared too
    assert failed


@pytest.mark.parametrize("name", RANK_4_AND_BELOW)
def test_filtration_records_match_the_class_table_reference(name):
    rs = build_root_system(name)
    failed = 0
    for itheta in subsets_of(rs.simple_indices):
        theta = theta_for(rs, itheta)
        for convention in ("itheta-minus-j", "i-minus-j"):
            got = verify_filtration(rs, theta, jprime_convention=convention)
            assert got == reference_filtration(rs, theta, jprime_convention=convention)
            failed += sum(not r["passed"] for r in got)
    # the rejected convention fails from rank 2 on, diagnostics included
    assert failed or rs.rank == 1
