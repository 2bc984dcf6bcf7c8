"""Seeded input generators for the benchmark workloads.

Everything here is plain Python and independent of catx, so the inputs
(and the answers they must produce) do not rest on the code under test.
The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations

N_POINTS = 3
SUBSETS = [
    frozenset(c) for k in range(N_POINTS + 1) for c in combinations(range(1, N_POINTS + 1), k)
]
INTERVALS = [(lo, hi) for lo in SUBSETS for hi in SUBSETS if lo <= hi]

ALGEBRA_MODULES = 24
ALGEBRA_SUMMANDS = 8
ALGEBRA_TOTAL_DIM = 16
ALGEBRA_VERTEX_DIM_MAX = 3
BASIS_MIXES = 6

CHAR_TYPES = ("A3", "B3", "C3", "A4", "B4", "C4", "D4")
CHAR_KINDS = ("M", "E", "nabla")
CHAR_PER_STRATUM = 10


def tag(s) -> str:
    """Subset key as catx writes it: a compact sorted JSON list."""
    return json.dumps(sorted(s), separators=(",", ":"))


def _unimodular(rng: random.Random, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant +-1 and its exact inverse."""
    b = [[int(i == j) for j in range(d)] for i in range(d)]
    binv = [row[:] for row in b]
    if d < 2:
        return b, binv
    for _ in range(BASIS_MIXES * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        # left-multiply b by E (row_i += c row_j); right-multiply binv by E^-1
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for row in binv:
            row[j] -= c * row[i]
    perm = list(range(d))
    rng.shuffle(perm)
    b = [b[p] for p in perm]
    binv = [[row[p] for p in perm] for row in binv]
    return b, binv


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def interval_sum_module(rng: random.Random, intervals) -> dict:
    """Module JSON of the direct sum of interval modules, with each
    vertex's basis scrambled by a random unimodular integer matrix."""
    dims = {y: sum(1 for lo, hi in intervals if lo <= y <= hi) for y in SUBSETS}
    # position of each interval's basis vector inside each vertex space
    slot: dict[tuple[int, frozenset], int] = {}
    for y in SUBSETS:
        k = 0
        for idx, (lo, hi) in enumerate(intervals):
            if lo <= y <= hi:
                slot[(idx, y)] = k
                k += 1
    change = {y: _unimodular(rng, dims[y]) for y in SUBSETS if dims[y]}
    maps = {}
    for y in SUBSETS:
        for x in range(1, N_POINTS + 1):
            z = y | {x}
            if x in y or not dims[y] or not dims[z]:
                continue
            block = [[0] * dims[z] for _ in range(dims[y])]
            for idx, (lo, hi) in enumerate(intervals):
                if lo <= y and z <= hi:
                    block[slot[(idx, y)]][slot[(idx, z)]] = 1
            # new basis rows B_y: the map becomes B_y A B_z^-1
            mixed = _mat_mul(_mat_mul(change[y][0], block), change[z][1])
            if any(v for row in mixed for v in row):
                maps[f"{tag(y)}->{tag(z)}"] = mixed
    return {
        "n": N_POINTS,
        "dims": {tag(y): d for y, d in dims.items() if d},
        "maps": maps,
    }


def _algebra_catalogue() -> list[list[tuple[frozenset, frozenset]]]:
    """The fixed list of interval multisets behind the algebra-split
    modules: ALGEBRA_SUMMANDS random intervals each, of total dimension
    ALGEBRA_TOTAL_DIM and at most ALGEBRA_VERTEX_DIM_MAX at any vertex.

    The splitting cost depends mostly on which intervals meet, so the
    list is the same for every seed.
    """
    rng = random.Random("algebra-split-catalogue")
    out = []
    while len(out) < ALGEBRA_MODULES:
        intervals = [rng.choice(INTERVALS) for _ in range(ALGEBRA_SUMMANDS)]
        dims = [sum(1 for lo, hi in intervals if lo <= y <= hi) for y in SUBSETS]
        if sum(dims) == ALGEBRA_TOTAL_DIM and max(dims) <= ALGEBRA_VERTEX_DIM_MAX:
            out.append(intervals)
    return out


def _relabel_module(module: dict, sigma: dict[int, int]) -> dict:
    """The same module with the points 1..n renamed by sigma."""

    def move(key: str) -> str:
        return tag(sigma[x] for x in json.loads(key))

    maps = {}
    for key, rows in module["maps"].items():
        y, z = key.split("->")
        maps[f"{move(y)}->{move(z)}"] = rows
    return {
        "n": module["n"],
        "dims": {move(k): d for k, d in module["dims"].items()},
        "maps": maps,
    }


def algebra_cases(seed: int) -> list[dict]:
    """Module files for the algebra-split workload, with their answers.

    Each catalogue entry is built once with its own fixed unimodular
    scramble of every vertex basis (the scramble sets how large the
    rationals grow, so it is part of the fixed cost); the seed renames
    the points 1..n, orders the modules, and is passed to catx as the
    splitting seed.  The expected answer is the multiset of interval
    dimension vectors.
    """
    rng = random.Random(f"algebra-split:{seed}")
    cases = []
    for k, intervals in enumerate(_algebra_catalogue()):
        module = interval_sum_module(random.Random(f"algebra-split-basis:{k}"), intervals)
        perm = list(range(1, N_POINTS + 1))
        rng.shuffle(perm)
        sigma = dict(zip(range(1, N_POINTS + 1), perm))
        expected: dict[str, int] = {}
        for lo, hi in intervals:
            dims = {tag(sigma[x] for x in y): 1 for y in SUBSETS if lo <= y <= hi}
            key = json.dumps(dims, sort_keys=True)
            expected[key] = expected.get(key, 0) + 1
        cases.append(
            {
                "module": _relabel_module(module, sigma),
                "expected": sorted([key, mult] for key, mult in expected.items()),
            }
        )
    rng.shuffle(cases)
    return cases


def _diagram_automorphisms(cartan_type: str) -> list[dict[int, int]]:
    """Relabellings of the simple indices that preserve the Dynkin
    diagram (A_n flips; D4 permutes the three leaves around node 2)."""
    family, rank = cartan_type[0], int(cartan_type[1:])
    nodes = list(range(1, rank + 1))
    if family == "A":
        return [dict(zip(nodes, nodes)), dict(zip(nodes, reversed(nodes)))]
    if cartan_type == "D4":
        return [{1: a, 2: 2, 3: b, 4: c} for a, b, c in permutations((1, 3, 4))]
    return [dict(zip(nodes, nodes))]


def _char_catalogue() -> list[dict]:
    """CHAR_PER_STRATUM queries for every (type, kind) pair, each with a
    random itheta and J inside it.  Fixed for every seed: a seeded draw
    moves the total work by about a tenth between seeds."""
    rng = random.Random("char-roundtrip-catalogue")
    out = []
    for t in CHAR_TYPES:
        rank = int(t[1:])
        for kind in CHAR_KINDS:
            for _ in range(CHAR_PER_STRATUM):
                itheta = [i for i in range(1, rank + 1) if rng.random() < 0.6]
                j = [i for i in itheta if rng.random() < 0.5]
                out.append({"type": t, "kind": kind, "itheta": itheta, "j": j})
    return out


def char_queries(seed: int) -> list[dict]:
    """The char-roundtrip query stream: the catalogue with each query's
    indices moved by a seeded diagram automorphism of its type, in a
    seeded order."""
    rng = random.Random(f"char-roundtrip:{seed}")
    queries = []
    for q in _char_catalogue():
        sigma = rng.choice(_diagram_automorphisms(q["type"]))
        queries.append(
            {**q, "itheta": sorted(sigma[i] for i in q["itheta"]), "j": sorted(sigma[i] for i in q["j"])}
        )
    rng.shuffle(queries)
    return queries
