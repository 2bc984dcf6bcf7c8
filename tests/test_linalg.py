import itertools
import random
from fractions import Fraction as Q

import pytest

from catx import linalg


def test_mat_mul_oracle():
    a = [[Q(1), Q(2)], [Q(3), Q(4)]]
    b = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert linalg.mat_mul(a, b) == [[Q(2), Q(1)], [Q(4), Q(3)]]
    assert linalg.mat_mul(a, linalg.identity(2)) == a


def test_rref_and_rank():
    m = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(1), Q(0), Q(1)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2
    assert linalg.rank(linalg.identity(4)) == 4
    assert linalg.rank([[Q(0), Q(0)]]) == 0


def test_nullspace_identity_pattern():
    # x + 2y + 3z = 0: two free columns, canonical basis has identity there
    rows = [[Q(1), Q(2), Q(3)]]
    basis, free = linalg.nullspace(rows)
    assert free == [1, 2]
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * x for r, x in zip(rows[0], vec)) == 0
    assert [basis[0][c] for c in free] == [Q(1), Q(0)]
    assert [basis[1][c] for c in free] == [Q(0), Q(1)]


def test_nullspace_empty_rows_needs_ncols():
    basis, free = linalg.nullspace([], ncols=3)
    assert len(basis) == 3 and free == [0, 1, 2]


def test_det_oracles():
    assert linalg.det([[Q(2)]]) == 2
    assert linalg.det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert linalg.det([[Q(1), Q(2)], [Q(2), Q(4)]]) == 0
    # permutation matrix sign
    p = [[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)], [Q(1), Q(0), Q(0)]]
    assert linalg.det(p) == 1


def leibniz_det(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_of_triangular_and_other_integer_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 6)
        upper = [
            [rng.randint(-3, 3) if j >= i else 0 for j in range(n)] for i in range(n)
        ]
        if n and rng.random() < 0.5:
            upper[rng.randrange(n)] = [0] * n  # a zero on the diagonal too
        # conjugating by a permutation keeps the determinant, and leaves
        # most matrices not triangular
        perm = rng.sample(range(n), n)
        shuffled = [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for m in (upper, shuffled, dense):
            got = linalg.det(m)
            assert isinstance(got, Q) and got == leibniz_det(m), m
        assert linalg.det(upper) == linalg.det(shuffled)
    # the zeta matrix of the subsets of {1, 2, 3}, in a linear extension
    subsets = sorted(range(8), key=lambda y: (bin(y).count("1"), y))
    zeta = [[int(y & z == y) for z in subsets] for y in subsets]
    assert linalg.det(zeta) == 1
    with pytest.raises(ValueError, match="square"):
        linalg.det([[1, 2]])


def test_coords_in_span_roundtrip():
    rows = [[Q(1), Q(2), Q(3)]]
    basis, free = linalg.nullspace(rows)
    vec = [basis[0][j] * 2 + basis[1][j] * -3 for j in range(3)]
    assert linalg.coords_in_span(basis, free, vec) == [Q(2), Q(-3)]
    with pytest.raises(ValueError):
        linalg.coords_in_span(basis, free, [Q(1), Q(0), Q(0)])



def _dense_rref(rows):
    """Textbook Gauss-Jordan elimination, column by column."""
    m = [[Q(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def test_sparse_elimination_matches_dense_gauss_jordan():
    rng = random.Random(7)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [rng.choice((0, 0, 0, 1, -1, 2, Q(1, 3))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rng.random() < 0.3:  # a dependent row
            rows.append([x + 2 * y for x, y in zip(rows[0], rows[-1])])
        assert linalg.rref(rows) == _dense_rref(rows)
        assert linalg.rank(rows) == len(_dense_rref(rows)[1])
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        assert linalg.nullspace(sparse, ncols=ncols) == linalg.nullspace(rows)
        basis, _ = linalg.nullspace(rows)
        for vec in basis:
            assert all(sum(Q(r) * x for r, x in zip(row, vec)) == 0 for row in rows)


def test_nullspace_of_sparse_rows_needs_ncols():
    with pytest.raises(ValueError):
        linalg.nullspace([{0: Q(1)}])
    assert linalg.nullspace([{1: Q(2)}], ncols=3) == (
        [[Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1)]],
        [0, 2],
    )
