"""Small exact linear algebra over the rationals.

Matrices are lists of lists holding ints or Fractions; every routine
returns Fractions.  Row reduction (`rref`, `rank`, `nullspace`) runs on
sparse {column: value} rows, so a system with few unknowns per equation,
such as the hom-space equations of a module, costs what its nonzero
entries cost; `nullspace` also takes such rows directly.
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


def _reduced_rows(rows) -> dict[int, dict[int, Q]]:
    """The nonzero rows of the reduced row echelon form as {column:
    value} dicts, keyed by pivot column.

    Rows are dense lists or {column: value} dicts.  They are taken one at
    a time: each is cleared at the pivots found so far, and its own
    leading column then becomes a pivot that is cleared from the earlier
    rows.  A row's leading column is its pivot throughout, so the result
    is the reduced row echelon form, which is unique.
    """
    reduced: dict[int, dict[int, Q]] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: Q(x) for c, x in items if x}
        # a pivot row is 0 at every other pivot, so clearing one pivot
        # leaves the entries at the others as they were
        for c in [c for c in row if c in reduced]:
            f = row[c]
            for j, x in reduced[c].items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = 1 / row[p]
            row = {j: x * inv for j, x in row.items()}
        for other in reduced.values():
            f = other.get(p)
            if f:
                for j, x in row.items():
                    y = other.get(j, 0) - f * x
                    if y:
                        other[j] = y
                    else:
                        del other[j]
        reduced[p] = row
    return reduced


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = _reduced_rows(rows)
    pivots = sorted(reduced)
    zero = Q(0)
    m = [[reduced[p].get(c, zero) for c in range(ncols)] for p in pivots]
    m += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return m, pivots


def rank(rows) -> int:
    return len(_reduced_rows(rows))


def nullspace(rows, ncols: int | None = None) -> tuple[list[list[Q]], list[int]]:
    """Canonical right-nullspace basis and the free columns.

    Rows are dense lists, or {column: value} dicts over ncols columns.
    Each basis vector carries 1 at its own free column and 0 at every
    other free column, so coordinates of any vector in the span can be
    read off at the free columns directly.
    """
    if rows and not isinstance(rows[0], dict):
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty or sparse constraint matrix")
    reduced = _reduced_rows(rows)
    free = [c for c in range(ncols) if c not in reduced]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        basis.append(v)
    # the entries of a reduced row off its pivot all sit at free columns
    slot = {f: k for k, f in enumerate(free)}
    for p, row in reduced.items():
        for f, x in row.items():
            if f != p:
                basis[slot[f]][p] = -x
    return basis, free


def det(rows) -> Q:
    """The determinant; of an upper triangular matrix, such as a zeta
    matrix in a linear extension of its order, the product of the
    diagonal, read without converting any other entry."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if not any(x for i, row in enumerate(rows) for x in row[:i]):
        out = Q(1)
        for i, row in enumerate(rows):
            out *= Q(row[i])
        return out
    m = mat(rows)
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

