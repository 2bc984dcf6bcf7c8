"""Small dense exact linear algebra over the rationals.

Matrices are lists of lists holding ints or Fractions; every routine
returns Fractions.  Sizes stay desk-scale (dimensions in the tens), so
plain Gaussian elimination is all that is needed.
"""

from __future__ import annotations

from fractions import Fraction as Q

Matrix = list[list[Q]]


def mat(rows) -> Matrix:
    return [[Q(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[Q(0)] * c for _ in range(r)]


def mat_mul(a, b) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Q(0)] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    m = mat(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, ncols: int | None = None) -> tuple[list[list[Q]], list[int]]:
    """Canonical right-nullspace basis and the free columns.

    Each basis vector carries 1 at its own free column and 0 at every
    other free column, so coordinates of any vector in the span can be
    read off at the free columns directly.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty constraint matrix")
        return [list(row) for row in identity(ncols)], list(range(ncols))
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis, free


def det(rows) -> Q:
    m = mat(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    out = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out * sign


def coords_in_span(basis: list[list[Q]], free_cols: list[int], vector) -> list[Q]:
    """Coordinates of a vector against a canonical nullspace basis.

    Reads the candidate coefficients off the free columns and verifies
    the exact reconstruction; raises ValueError when the vector is not
    in the span.
    """
    v = [Q(x) for x in vector]
    coeffs = [v[c] for c in free_cols]
    recon = [Q(0)] * len(v)
    for coeff, b in zip(coeffs, basis):
        if coeff:
            for j, y in enumerate(b):
                recon[j] += coeff * y
    if recon != v:
        raise ValueError("vector is not in the span of the basis")
    return coeffs

