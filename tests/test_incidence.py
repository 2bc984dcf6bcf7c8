import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from math import comb, prod
from pathlib import Path

import pytest

from catx import incidence, linalg
from catx.chario import module_dumps
from catx.cli import main
from catx.errors import InputError, ResourceGuardError
from catx.incidence import (
    AlgebraModule,
    algebra_radical,
    build_incidence_algebra,
    cartan_and_ext,
    cartan_determinant,
    direct_sum,
    heredity_chain_check,
    interval_module,
    is_isomorphic,
    krull_schmidt_decompose,
    radical_series,
    regular_module,
)
from reference import (
    hom_basis,
    pair_basis,
    pair_cartan_and_ext,
    pair_heredity_chain_check,
    pair_radical,
    projective_injective_dims,
)

E = frozenset()
S1 = frozenset({1})
S2 = frozenset({2})
S12 = frozenset({1, 2})


def test_algebra_dimensions():
    for n in range(4):
        a = build_incidence_algebra(n)
        assert a.dim == 3**n
        assert len(a.subsets) == 2**n
        for y, z in a.basis:
            assert y <= z


def test_algebra_guards():
    with pytest.raises(InputError):
        build_incidence_algebra(-1)
    # a bool is an int to isinstance, but no ground-set size
    for flag in (True, False):
        with pytest.raises(InputError):
            build_incidence_algebra(flag)
    with pytest.raises(ResourceGuardError):
        build_incidence_algebra(7)
    assert build_incidence_algebra(7, allow_large=True).dim == 2187


def test_mul_basis():
    a = build_incidence_algebra(2)
    assert a.mul_basis((E, S1), (S1, S12)) == (E, S12)
    assert a.mul_basis((E, S1), (E, S1)) is None
    assert a.mul_basis((E, E), (E, S12)) == (E, S12)
    with pytest.raises(InputError):
        a.mul_basis((S1, E), (E, S1))


def test_radical_series():
    a1 = build_incidence_algebra(1)
    basis, series = algebra_radical(a1)
    assert [p for p in basis] == [(E, S1)]
    assert series == [1, 0]
    a2 = build_incidence_algebra(2)
    basis2, series2 = algebra_radical(a2)
    assert len(basis2) == 5
    assert series2 == [5, 1, 0]
    a3 = build_incidence_algebra(3)
    _, series3 = algebra_radical(a3)
    assert series3[0] == 3**3 - 2**3
    assert series3[-1] == 0
    assert all(x > y for x, y in zip(series3, series3[1:]))


def test_cartan_matrix_and_arrows():
    a = build_incidence_algebra(1)
    cartan, ext1 = cartan_and_ext(a)
    assert cartan == [[1, 1], [0, 1]]
    assert ext1 == {(E, S1): 1}
    a2 = build_incidence_algebra(2)
    cartan2, ext2 = cartan_and_ext(a2)
    # arrows sit exactly on the covering pairs
    assert set(ext2) == {(E, S1), (E, S2), (S1, S12), (S2, S12)}
    assert all(m == 1 for m in ext2.values())
    # unitriangular Cartan matrix
    for n in range(5):
        assert cartan_determinant(build_incidence_algebra(n)) == 1


def test_arrow_count_formula():
    for n in range(5):
        _, ext1 = cartan_and_ext(build_incidence_algebra(n))
        expected = n * 2 ** (n - 1) if n else 0
        assert len(ext1) == expected


def test_heredity_chain():
    out0 = heredity_chain_check(build_incidence_algebra(0))
    assert out0["passed"] and out0["layers"] == []
    for n in range(1, 5):
        out = heredity_chain_check(build_incidence_algebra(n))
        assert out["passed"], out
        assert [layer["level"] for layer in out["layers"]] == list(range(n, -1, -1))
        assert all(layer["passed"] for layer in out["layers"])
    out2 = heredity_chain_check(build_incidence_algebra(2))
    assert [layer["ideal_dim"] for layer in out2["layers"]] == [4, 4, 1]


def test_rows_are_the_containment_relation():
    for n in range(7):
        a = build_incidence_algebra(n)
        assert a.rows == tuple(
            sum(1 << j for j, z in enumerate(a.subsets) if y <= z) for y in a.subsets
        )
        assert a.basis == pair_basis(a)


def test_row_checks_match_the_pair_reference():
    for n in range(7):
        a = build_incidence_algebra(n)
        assert algebra_radical(a) == pair_radical(a), n
        assert radical_series(a) == pair_radical(a)[1], n
        assert cartan_and_ext(a) == pair_cartan_and_ext(a), n
        assert list(cartan_and_ext(a)[1]) == list(pair_cartan_and_ext(a)[1]), n
        assert heredity_chain_check(a) == pair_heredity_chain_check(a), n


def test_closed_forms_of_the_algebra_checks():
    for n in range(7):
        a = build_incidence_algebra(n)
        # rad^k is spanned by the pairs with |Z - Y| >= k
        _, series = algebra_radical(a)
        assert series == [
            sum(comb(n, j) * 2 ** (n - j) for j in range(k, n + 1))
            for k in range(1, n + 1)
        ] + [0], n
        _, ext1 = cartan_and_ext(a)
        covering = [
            (y, y | {x}) for y in a.subsets for x in range(1, n + 1) if x not in y
        ]
        assert set(ext1) == set(covering) and len(ext1) == len(covering), n
        assert set(ext1.values()) <= {1}, n
        for layer in heredity_chain_check(a)["layers"]:
            want = comb(n, layer["level"]) * 2 ** layer["level"]
            assert layer["ideal_dim"] == layer["tensor_dimension"] == want, (n, layer)


def test_interval_module_shapes():
    a = build_incidence_algebra(2)
    m = interval_module(a, E, S12)
    assert m.total_dim == 4
    assert m.dims == {E: 1, S1: 1, S2: 1, S12: 1}
    assert m.action(E, S12) == [[Q(1)]]
    assert m.action(E, E) == [[Q(1)]]
    s = interval_module(a, S1, S1)
    assert s.total_dim == 1
    assert s.action(E, S1) == []  # zero rows: source vertex is zero
    with pytest.raises(InputError):
        interval_module(a, S12, S1)
    with pytest.raises(InputError):
        m.action(S1, E)


def test_module_validation():
    a = build_incidence_algebra(2)
    dims = {E: 1, S1: 1, S2: 1, S12: 1}
    good = {
        (E, S1): [[Q(1)]],
        (E, S2): [[Q(1)]],
        (S1, S12): [[Q(1)]],
        (S2, S12): [[Q(1)]],
    }
    AlgebraModule(a, dims, good)
    bad = dict(good)
    bad[(S2, S12)] = [[Q(2)]]
    with pytest.raises(InputError):
        AlgebraModule(a, dims, bad)
    # the same data passes with validation off
    AlgebraModule(a, dims, bad, validate=False)
    with pytest.raises(InputError):
        AlgebraModule(a, {E: -1})
    with pytest.raises(InputError):
        AlgebraModule(a, {frozenset({9}): 1})
    with pytest.raises(InputError):
        AlgebraModule(a, dims, {(E, S12): [[Q(1)]]})  # not a covering pair
    with pytest.raises(InputError):
        AlgebraModule(a, {E: 1, S1: 2}, {(E, S1): [[Q(1)]]})  # wrong shape


def test_zero_intermediate_vertex():
    a = build_incidence_algebra(2)
    # nonzero endpoints, zero middle layer: the long action map is zero
    dims = {E: 1, S12: 1}
    m = AlgebraModule(a, dims, {})
    assert m.action(E, S12) == [[Q(0)]]
    assert m.total_dim == 2


def test_direct_sum_and_regular():
    a = build_incidence_algebra(2)
    r = regular_module(a)
    assert r.total_dim == 9
    assert {tuple(sorted(y)): d for y, d in r.dims.items()} == {
        (): 1,
        (1,): 2,
        (2,): 2,
        (1, 2): 4,
    }
    two = direct_sum(a, [interval_module(a, E, S1)] * 2)
    assert two.total_dim == 4
    assert two.covering_map(E, S1) == [[Q(1), Q(0)], [Q(0), Q(1)]]


def test_projective_injective_dims():
    a = build_incidence_algebra(3)
    out = projective_injective_dims(a)
    top = frozenset({1, 2, 3})
    for y in a.subsets:
        assert out["projective"][y]["dim"] == 2 ** (3 - len(y))
        assert out["injective"][y]["dim"] == 2 ** len(y)
        assert out["projective"][y]["multiplicity_free"]
        assert out["injective"][y]["multiplicity_free"]
    assert out["projective"][top]["dim"] == 1
    assert out["injective"][top]["dim"] == 8


def test_hom_basis_dimensions():
    a = build_incidence_algebra(1)
    p = interval_module(a, E, S1)
    s_top = interval_module(a, S1, S1)
    s_bot = interval_module(a, E, E)
    assert len(hom_basis(p, p)) == 1
    assert len(hom_basis(s_top, p)) == 1
    assert len(hom_basis(s_bot, p)) == 0
    assert len(hom_basis(p, s_bot)) == 1
    assert len(hom_basis(s_top, s_bot)) == 0
    # a basis element really is a morphism: check the one square by hand
    (f,) = hom_basis(p, p)
    assert f[E] == [[Q(1)]] and f[S1] == [[Q(1)]]


def test_is_isomorphic():
    a = build_incidence_algebra(1)
    p = interval_module(a, E, S1)
    scaled = AlgebraModule(a, dict(p.dims), {(E, S1): [[Q(5, 3)]]})
    assert is_isomorphic(p, scaled)
    split = direct_sum(a, [interval_module(a, E, E), interval_module(a, S1, S1)])
    assert split.dims == p.dims
    assert not is_isomorphic(p, split)
    assert is_isomorphic(split, split)
    zero = AlgebraModule(a, {})
    assert is_isomorphic(zero, zero)
    for seed in (1, 2, 1729):
        assert is_isomorphic(p, scaled, seed=seed)
        assert not is_isomorphic(p, split, seed=seed)


def test_krull_schmidt_regular_a1():
    a = build_incidence_algebra(1)
    out = krull_schmidt_decompose(a, regular_module(a))
    shapes = [(m.total_dim, mult, cert) for m, mult, cert in out]
    assert shapes == [(2, 1, True), (1, 1, True)]


def test_krull_schmidt_regular_a2():
    a = build_incidence_algebra(2)
    out = krull_schmidt_decompose(a, regular_module(a))
    shapes = [(m.total_dim, mult, cert) for m, mult, cert in out]
    assert [s[0] for s in shapes] == [4, 2, 2, 1]
    assert all(mult == 1 and cert for _, mult, cert in shapes)
    # the two middle summands are the distinct projectives at the atoms
    assert not is_isomorphic(out[1][0], out[2][0])


def test_krull_schmidt_regular_a3():
    a = build_incidence_algebra(3)
    out = krull_schmidt_decompose(a, regular_module(a))
    assert [m.total_dim for m, _, _ in out] == [8, 4, 4, 4, 2, 2, 2, 1]
    assert all(mult == 1 and cert for _, mult, cert in out)


def test_krull_schmidt_multiplicities():
    a = build_incidence_algebra(2)
    i1 = interval_module(a, E, S1)
    i2 = interval_module(a, S1, S12)
    big = direct_sum(a, [i1, i1, i1, i2, i2])
    out = krull_schmidt_decompose(a, big)
    assert sorted((m.total_dim, mult) for m, mult, _ in out) == [(2, 2), (2, 3)]
    assert all(cert for _, _, cert in out)
    recovered = {mult: m for m, mult, _ in out}
    assert is_isomorphic(recovered[3], i1)
    assert is_isomorphic(recovered[2], i2)


def test_krull_schmidt_determinism_and_guards():
    a = build_incidence_algebra(2)
    m = regular_module(a)
    one = krull_schmidt_decompose(a, m, seed=7)
    two = krull_schmidt_decompose(a, m, seed=7)
    assert [(x.signature(), k, c) for x, k, c in one] == [
        (x.signature(), k, c) for x, k, c in two
    ]
    assert krull_schmidt_decompose(a, AlgebraModule(a, {})) == []
    with pytest.raises(InputError):
        krull_schmidt_decompose(build_incidence_algebra(1), m)
    a1 = build_incidence_algebra(1)
    fat = AlgebraModule(a1, {E: 40, S1: 30})
    with pytest.raises(ResourceGuardError):
        krull_schmidt_decompose(a1, fat)


def test_allow_large_lifts_the_module_guard():
    # 70 simples at two vertices, past the guard: the real split.  Without
    # the split along the support it runs for minutes, so it runs in a
    # child process with a timeout, to fail here instead of hanging
    script = "\n".join(
        [
            "from catx.incidence import (",
            "    AlgebraModule, build_incidence_algebra, interval_module,",
            "    krull_schmidt_decompose,",
            ")",
            "E, S1 = frozenset(), frozenset({1})",
            "a1 = build_incidence_algebra(1)",
            "fat = AlgebraModule(a1, {E: 40, S1: 30})",
            "assert krull_schmidt_decompose(a1, fat, allow_large=True) == [",
            "    (interval_module(a1, S1, S1), 30, True),",
            "    (interval_module(a1, E, E), 40, True),",
            "]",
            "print('split')",
        ]
    )
    src = Path(incidence.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "split\n"


def _no_endomorphism_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the endomorphism search ran")

    monkeypatch.setattr(incidence, "_find_split", refuse)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regular_module_splits_by_support_alone(monkeypatch, n):
    _no_endomorphism_search(monkeypatch)
    a = build_incidence_algebra(n)
    top = frozenset(range(1, n + 1))
    projectives = {interval_module(a, y, top) for y in a.subsets}
    out = krull_schmidt_decompose(a, regular_module(a), allow_large=True)
    assert len(out) == len(projectives)
    assert {m for m, _, _ in out} == projectives
    assert all(mult == 1 and cert for _, mult, cert in out)


def test_simples_at_distinct_vertices_split_by_support_alone(monkeypatch):
    _no_endomorphism_search(monkeypatch)
    a = build_incidence_algebra(7, allow_large=True)
    verts = a.subsets[:65]
    m = AlgebraModule(a, dict.fromkeys(verts, 1))
    out = krull_schmidt_decompose(a, m, allow_large=True)
    assert len(out) == 65
    assert {piece for piece, _, _ in out} == {interval_module(a, y, y) for y in verts}
    assert all(mult == 1 and cert for _, mult, cert in out)


def test_support_components_are_sub_blocks_in_basis_order():
    a = build_incidence_algebra(2)
    i1 = interval_module(a, E, S1)
    i2 = interval_module(a, S1, S12)
    s2 = interval_module(a, S2, S2)
    # the second basis vector at {1} belongs to i2, whose first vector
    # comes after i1's first (at the empty set) but before s2's
    assert incidence._support_components(direct_sum(a, [s2, i2, i1])) == [i1, i2, s2]
    assert incidence._support_components(i2) == [i2]
    assert incidence._support_components(AlgebraModule(a, {})) == []


def test_permuted_summands_give_the_same_algebra_output(tmp_path, capsys):
    a = build_incidence_algebra(3)
    summands = [
        interval_module(a, lo, hi)
        for lo, hi in [
            ([], [1]),
            ([1], [1, 2, 3]),
            ([2], [2, 3]),
            ([], [1]),
            ([3], [1, 3]),
            ([1, 2], [1, 2]),
        ]
    ]
    path = tmp_path / "module.json"
    rng = random.Random(3)
    outputs = set()
    for _ in range(4):
        path.write_text(module_dumps(direct_sum(a, summands)))
        assert main(["algebra", "--n", "3", "--module", str(path), "--json"]) == 0
        outputs.add(capsys.readouterr().out)
        rng.shuffle(summands)
    assert len(outputs) == 1


def test_simple_module_is_local():
    a = build_incidence_algebra(2)
    s = interval_module(a, S1, S1)
    out = krull_schmidt_decompose(a, s)
    assert len(out) == 1
    m, mult, cert = out[0]
    assert m.total_dim == 1 and mult == 1 and cert


def _flat(endo):
    return [x for block in endo.values() for row in block for x in row]


def _semisimple_rank_by_structure_constants(space):
    """dim End/rad as the certificate first computed it: structure
    constants of End(M) read at the hom space's free columns, then the
    rank of the trace form of End(M)'s regular representation."""
    endos = [space.matrices(v) for v in space.vectors]
    struct = [
        [
            linalg.coords_in_span(
                space.vectors,
                space.free_cols,
                _flat({y: linalg.mat_mul(ei[y], ej[y]) for y in space.verts}),
            )
            for ej in endos
        ]
        for ei in endos
    ]
    m = space.dim
    regular_trace = [sum(struct[k][i][i] for i in range(m)) for k in range(m)]
    gram = [
        [sum(c * t for c, t in zip(struct[i][j], regular_trace)) for j in range(m)]
        for i in range(m)
    ]
    return linalg.rank(gram)


def _scrambled(module, rng):
    """An isomorphic copy: a random invertible change of basis at every
    vertex, so the covering maps are no longer block diagonal."""
    a = module.algebra
    change, inverse = {}, {}
    for y in a.subsets:
        d = module.dims[y]
        # lower unitriangular times upper triangular with a nonzero diagonal
        lower = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(d)] for i in range(d)]
        upper = [
            [rng.randint(-2, 2) if j > i else rng.choice([-2, 1, 3]) * (i == j) for j in range(d)]
            for i in range(d)
        ]
        change[y] = linalg.mat_mul(linalg.mat(lower), linalg.mat(upper))
        red, _ = linalg.rref([row + e for row, e in zip(change[y], linalg.identity(d))])
        inverse[y] = [row[d:] for row in red]
    maps = {
        (y, z): linalg.mat_mul(linalg.mat_mul(inverse[y], m), change[z])
        for (y, z), m in module.nonzero_maps().items()
    }
    return AlgebraModule(a, dict(module.dims), maps)


def test_locality_trace_form_on_the_module_matches_structure_constants(monkeypatch):
    seen = []
    trace_form = incidence._is_local_end

    def recorded(space):
        local = trace_form(space)
        seen.append((space, local))
        return local

    monkeypatch.setattr(incidence, "_is_local_end", recorded)
    for n in (2, 3):
        a = build_incidence_algebra(n)
        krull_schmidt_decompose(a, regular_module(a))
    rng = random.Random(5)
    a2 = build_incidence_algebra(2)
    lattice = list(a2.subsets)
    for _ in range(4):
        chosen = [interval_module(a2, E, S12)]
        for _ in range(rng.randint(1, 3)):
            lo = rng.choice(lattice)
            chosen.append(interval_module(a2, lo, rng.choice([z for z in lattice if lo <= z])))
        scrambled = _scrambled(direct_sum(a2, chosen), rng)
        assert scrambled.nonzero_maps() != direct_sum(a2, chosen).nonzero_maps()
        krull_schmidt_decompose(a2, scrambled)
    assert {local for _, local in seen} == {True, False}
    for space, local in seen:
        assert local == (_semisimple_rank_by_structure_constants(space) == 1)


def test_locality_of_an_end_with_a_radical():
    # End(P(0) + P({1})) is the upper triangular 2x2 matrices: dimension
    # 3, a one-dimensional radical and a semisimple quotient of dimension 2
    a = build_incidence_algebra(1)
    m = direct_sum(a, [interval_module(a, E, S1), interval_module(a, S1, S1)])
    space = incidence._HomSpace(m, m)
    assert space.dim == 3
    assert _semisimple_rank_by_structure_constants(space) == 2
    assert not incidence._is_local_end(space)
    # one summand alone: End(P(0)) is the rationals
    p = interval_module(a, E, S1)
    assert incidence._is_local_end(incidence._HomSpace(p, p))


def _tube_module(j=((2, 1), (0, 2))):
    """The six middle subsets of the cube form a hexagon with no
    relations among its arrows; put Q^2 on each, the identity on every
    arrow but one and the matrix J there.  The endomorphisms are the
    polynomials in J.  For the default Jordan block End = Q[t]/t^2: a
    local endomorphism algebra that is not a field, with a
    one-dimensional radical."""
    a = build_incidence_algebra(3)
    hexagon = [y for y in a.subsets if len(y) in (1, 2)]
    dims = {y: 2 if y in hexagon else 0 for y in a.subsets}
    maps = {(y, z): linalg.identity(2) for y in hexagon for z in hexagon if y < z}
    maps[(S1, S12)] = linalg.mat([list(row) for row in j])
    return AlgebraModule(a, dims, maps)


def test_locality_of_a_local_end_with_a_radical():
    m = _tube_module()
    space = incidence._HomSpace(m, m)
    assert space.dim == 2
    assert _semisimple_rank_by_structure_constants(space) == 1
    assert incidence._is_local_end(space)
    assert krull_schmidt_decompose(m.algebra, m) == [(m, 1, True)]


def test_min_poly_annihilates_and_has_least_degree():
    a = build_incidence_algebra(1)
    # P(0) + P({1}): components ordered P(0) first at every vertex
    m = direct_sum(a, [interval_module(a, E, S1), interval_module(a, S1, S1)])
    ident = {E: linalg.identity(1), S1: linalg.identity(2)}
    zero = {E: linalg.zeros(1, 1), S1: linalg.zeros(2, 2)}
    # the map P({1}) -> P(0) composed into an endomorphism: square zero
    nilpotent = {E: linalg.zeros(1, 1), S1: linalg.mat([[0, 0], [1, 0]])}
    # 2 on P(0) and -3 on P({1}): two coprime linear factors
    split = {E: linalg.mat([[2]]), S1: linalg.mat([[2, 0], [0, -3]])}
    # the Jordan block at every vertex of the tube module: (x - 2)^2
    tube = _tube_module()
    jordan = {y: linalg.mat([[2, 1], [0, 2]]) for y in tube.dims if tube.dims[y]}
    expected = [
        (m, ident, [-1, 1]),
        (m, zero, [0, 1]),
        (m, nilpotent, [0, 0, 1]),
        (m, split, [-6, 1, 1]),
        (tube, jordan, [4, -4, 1]),
    ]
    for module, endo, poly in expected:
        assert incidence._min_poly(module, endo) == poly
    regular = regular_module(build_incidence_algebra(2))
    cases = [(module, endo) for module, endo, _ in expected]
    for module in (m, regular, tube):
        cases += [(module, endo) for endo in hom_basis(module, module)]
    for module, endo in cases:
        poly = incidence._min_poly(module, endo)
        assert poly[-1] == 1
        assert not any(_flat(incidence._poly_at_endo(module, endo, poly)))
        powers = [{y: linalg.identity(len(b)) for y, b in endo.items()}]
        for _ in range(len(poly) - 2):
            powers.append({y: linalg.mat_mul(powers[-1][y], endo[y]) for y in endo})
        assert linalg.rank([_flat(p) for p in powers]) == len(poly) - 1


reference = incidence._sympy_factor_rational_poly


def _rational_factor(rng, degree):
    coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
    return coeffs + [Q(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))]


def _needs_sympy(factors):
    """The fallback rule, read off the reference factorization: some
    square-free part (the factors of one exponent) has a root-free part of
    degree 4 or more, or an end coefficient of its primitive form, without
    the factor x, above the limit."""
    for exp in {e for _, e in factors}:
        part = [f for f, e in factors if e == exp and f != [0, 1]]
        root_free = sum(len(f) - 1 for f in part if len(f) > 2)
        ends = (prod(f[0] for f in part), prod(f[-1] for f in part))
        if root_free >= 4 or max(map(abs, ends)) > incidence.FACTOR_END_COEFF_LIMIT:
            return True
    return False


@pytest.fixture
def fallbacks(monkeypatch):
    """The polynomials the factorizer hands to sympy, in call order."""
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return reference(coeffs)

    monkeypatch.setattr(incidence, "_sympy_factor_rational_poly", counted)
    return calls


def test_factorizer_matches_sympy_on_a_seeded_corpus(fallbacks):
    rng = random.Random(20240501)
    corpus = [[Q(0), Q(-1, 2), Q(1)]]  # x^2 - x/2: factors 2x - 1 and x
    for _ in range(150):
        poly = [Q(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 9))]
        for _ in range(rng.randint(1, 3)):
            factor = _rational_factor(rng, rng.randint(1, 4))
            poly = incidence._poly_mul(
                poly, incidence._poly_pow(factor, rng.randint(1, 3))
            )
        corpus.append(poly)
    for poly in corpus:
        before = len(fallbacks)
        got = incidence._factor_rational_poly(poly)
        want = reference(poly)
        assert (len(fallbacks) > before) == _needs_sympy(want)
        assert got == want
        assert [[(c.numerator, c.denominator) for c in f] for f, _ in got] == [
            [(c.numerator, c.denominator) for c in f] for f, _ in want
        ]
        assert all(type(e) is int for _, e in got)
    assert incidence._factor_rational_poly(corpus[0]) == [
        ([Q(-1), Q(2)], 1),
        ([Q(0), Q(1)], 1),
    ]
    assert 0 < len(fallbacks) < len(corpus)


def test_factorizer_falls_back_on_quartic_parts_and_large_ends(fallbacks):
    factor = incidence._factor_rational_poly
    # (x^2 + 1)(x^2 + 2): root free, degree 4, a product of quadratics
    quartic = [Q(2), Q(0), Q(3), Q(0), Q(1)]
    assert factor(quartic) == [([Q(1), Q(0), Q(1)], 1), ([Q(2), Q(0), Q(1)], 1)]
    assert fallbacks == [quartic]
    big = incidence.FACTOR_END_COEFF_LIMIT + 1
    large_end = incidence._poly_mul([Q(-big), Q(1)], [Q(1), Q(3)])
    assert factor(large_end) == [([Q(-big), Q(1)], 1), ([Q(1), Q(3)], 1)]
    assert fallbacks == [quartic, large_end]
    # at the limit itself the divisor search runs, and so do cubic parts
    # without a rational root, squared
    at_limit = incidence._poly_mul([Q(-big + 1), Q(1)], [Q(1), Q(3)])
    assert factor(at_limit) == reference(at_limit)
    cubic = incidence._poly_pow([Q(-2), Q(0), Q(0), Q(1)], 2)
    assert factor(cubic) == [([Q(-2), Q(0), Q(0), Q(1)], 2)]
    assert fallbacks == [quartic, large_end]
    assert factor([]) == factor([Q(5)]) == factor([Q(5), Q(0)]) == []


def test_a_split_that_needs_the_sympy_fallback(fallbacks):
    """Two tubes whose J have minimal polynomials x^2 + 1 and x^2 - 2,
    scrambled together.  A random endomorphism has a quartic minimal
    polynomial without a rational root, the product of two quadratics;
    only factoring it splits the module.  Each summand's End is a
    quadratic field, local but with a semisimple quotient of dimension
    2, so the trace form does not certify it."""
    a = build_incidence_algebra(3)
    tubes = [_tube_module(((0, -1), (1, 0))), _tube_module(((0, 2), (1, 0)))]
    scrambled = _scrambled(direct_sum(a, tubes), random.Random(11))
    pieces = krull_schmidt_decompose(a, scrambled)
    assert [(piece.total_dim, mult, cert) for piece, mult, cert in pieces] == [
        (12, 1, False),
        (12, 1, False),
    ]
    assert [len(poly) - 1 for poly in fallbacks] == [4]
    assert [len(f) - 1 for f, _ in reference(fallbacks[0])] == [2, 2]
    matches = [[is_isomorphic(piece, tube) for tube in tubes] for piece, _, _ in pieces]
    assert sorted(matches) == [[False, True], [True, False]]


def _high_degree_corpus(rng):
    """Products of powers of small rational linear factors and of
    quadratics without a rational root, of degrees 2 to 48, the shape
    of minimal polynomials with many repeated eigenvalues."""
    corpus = []
    for target in range(2, 49, 2):
        poly = [Q(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 9))]
        while len(poly) <= target:
            if rng.random() < 0.75:
                factor = [Q(rng.randint(-6, 6), rng.randint(1, 4)), Q(1)]
            else:
                factor = [Q(rng.randint(1, 6)), Q(rng.randint(-1, 1)), Q(1)]
            e = rng.randint(1, min(6, max(1, (target - len(poly) + 1) // (len(factor) - 1))))
            poly = incidence._poly_mul(poly, incidence._poly_pow(factor, e))
        corpus.append(poly)
    return corpus


def test_square_free_parts_match_sympy_up_to_degree_48(fallbacks):
    import sympy

    x = sympy.Symbol("x")
    corpus = _high_degree_corpus(random.Random(20241018))
    assert max(len(p) - 1 for p in corpus) >= 48
    for poly in corpus:
        z = incidence._primitive(poly)
        _, parts = sympy.Poly(list(reversed(z)), x, domain="ZZ").sqf_list()
        want = []
        for f, e in parts:
            coeffs = [int(c) for c in reversed(f.all_coeffs())]
            want.append((coeffs if coeffs[-1] > 0 else [-c for c in coeffs], e))
        assert sorted(incidence._square_free_parts(z)) == sorted(want)
        before = len(fallbacks)
        got = incidence._factor_rational_poly(poly)
        want_factors = reference(poly)
        assert got == want_factors
        assert (len(fallbacks) > before) == _needs_sympy(want_factors)


def _overlapping_intervals():
    """[{}, {1}] and [{1}, {1, 2}] summed at n = 2, with the basis at
    their common vertex {1} changed by the unimodular [[1, 1], [0, 1]]:
    the block maps [[1, 0]] and [[0], [1]] become [[1, 1]] and [[-1], [1]].
    Both basis vectors at {1} meet both ends, so the support graph is
    connected and only the endomorphism search splits the module."""
    a = build_incidence_algebra(2)
    return AlgebraModule(
        a, {E: 1, S1: 2, S12: 1}, {(E, S1): [[1, 1]], (S1, S12): [[-1], [1]]}
    )


def test_splitting_modules_does_not_import_sympy(tmp_path):
    module = _overlapping_intervals()
    assert incidence._support_components(module) == [module]
    (tmp_path / "module.json").write_text(module_dumps(module))
    script = "\n".join(
        [
            "import sys",
            "from catx import incidence",
            "from catx.cli import main",
            "calls = []",
            "factor = incidence._factor_rational_poly",
            "incidence._factor_rational_poly = lambda c: calls.append(c) or factor(c)",
            "for argv in sys.argv[1:]:",
            "    assert main(argv.split()) == 0",
            "    print(len(calls), 'sympy' in sys.modules)",
        ]
    )
    src = Path(incidence.__file__).resolve().parents[1]
    proc = subprocess.run(
        [
            sys.executable, "-c", script,
            f"verify --types A1 --checks algebra --out {tmp_path / 'report.json'}",
            f"algebra --n 2 --json --out {tmp_path / 'algebra.json'}",
            f"algebra --n 2 --module {tmp_path / 'module.json'} --json"
            f" --out {tmp_path / 'module-split.json'}",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.split("\n")[-4:-1]]
    # the regular modules split by their support alone; the connected
    # module factored minimal polynomials; no command imported sympy
    verify_calls, algebra_calls, module_calls = (int(calls) for calls, _ in lines)
    assert verify_calls == algebra_calls == 0 < module_calls
    assert [imported for _, imported in lines] == ["False"] * 3
    split = json.loads((tmp_path / "module-split.json").read_text())
    assert [(s["dims"], s["is_certified_local"]) for s in split["summands"]] == [
        ({"[1]": 1, "[1,2]": 1}, True),
        ({"[]": 1, "[1]": 1}, True),
    ]


def test_module_refuses_inexact_dimensions_and_entries():
    a = build_incidence_algebra(1)
    # int(True) is 1 and int(1.9) is 1, and Fraction(0.1) is the binary
    # value of the float: none of them is exact input
    for dims in ({E: True}, {E: 1.9}, {E: 1.0}, {E: "1"}):
        with pytest.raises(InputError):
            AlgebraModule(a, dims)
    for entry in (0.1, 1.0, True, False):
        with pytest.raises(InputError):
            AlgebraModule(a, {E: 1, S1: 1}, {(E, S1): [[entry]]})
    ok = AlgebraModule(a, {E: 1, S1: 1}, {(E, S1): [["1/3"]]})
    assert ok.covering_map(E, S1) == [[Q(1, 3)]]
    assert AlgebraModule(a, {E: 1, S1: 1}, {(E, S1): [[2]]}).covering_map(E, S1) == [[Q(2)]]
