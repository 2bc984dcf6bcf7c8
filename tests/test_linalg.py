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


def test_coords_in_span_roundtrip():
    rows = [[Q(1), Q(2), Q(3)]]
    basis, free = linalg.nullspace(rows)
    vec = [basis[0][j] * 2 + basis[1][j] * -3 for j in range(3)]
    assert linalg.coords_in_span(basis, free, vec) == [Q(2), Q(-3)]
    with pytest.raises(ValueError):
        linalg.coords_in_span(basis, free, [Q(1), Q(0), Q(0)])

