"""The incidence algebra of the Boolean lattice and its finite modules.

The algebra on ground set {1..n} has one basis element per containment
pair (Y, Z) of subsets, multiplying like matrix units: (Y, Z) times
(Z', W) is (Y, W) when Z = Z' and zero otherwise.  Basis pairs are kept
in the fixed order (|Y|, lex Y, |Z|, lex Z).

A set of basis pairs is a list of 2^n bitset rows, one per subset in
`subset_key` order: bit j of row i stands for the pair (subsets[i],
subsets[j]).  Walking the rows in index order, and each row's bits
upwards, gives the basis order.  The algebra's own rows hold every
containment pair, and the span product of two row sets ORs, for each
set bit j of a row of the first, row j of the second.  The radical
series, the Cartan matrix and arrows, and the heredity chain run on
rows; they turn rows into pairs, in basis order, only for what they
return.

A right module is stored vertex-wise: a dimension per subset and one
exact rational matrix per covering pair, mapping the Y-component into
the Z-component (rows act from the left on the matrix, so shapes are
dim(Y) x dim(Z)).  Maps for longer containments are chain products,
which path-independence validation makes well defined.

Everything downstream (radical series, heredity layers, endomorphism
algebras, direct-summand splitting) is computed over exact rationals.
Splitting first cuts a module along the connected components of its
basis support graph, exactly and with no randomness; only a connected
piece reaches the endomorphism search, whose randomized steps take
explicit seeds and are certified after the fact.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations, zip_longest
from math import gcd, isqrt, lcm
from operator import and_
from typing import Iterable, Mapping, Optional, Sequence

from catx import linalg
from catx.errors import InputError, ResourceGuardError

Subset = frozenset[int]
Pair = tuple[Subset, Subset]

ALGEBRA_SIZE_GUARD = 6
MODULE_DIM_GUARD = 64
DEFAULT_SEED = 1729
# The largest leading or constant coefficient whose divisors the
# rational-root search enumerates; beyond it sympy factors instead.
FACTOR_END_COEFF_LIMIT = 10**6


def subset_key(s: Subset) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def all_subsets(n: int) -> tuple[Subset, ...]:
    items = list(range(1, n + 1))
    out: list[Subset] = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return tuple(sorted(out, key=subset_key))


class IncidenceAlgebra:
    """Matrix-unit presentation of the Boolean-lattice incidence algebra.

    `rows[i]` has bit j set when subsets[i] is contained in subsets[j]:
    the basis pairs (subsets[i], Z), in the row layout described above.
    """

    def __init__(self, n: int, *, allow_large: bool = False):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InputError("ground-set size must be a non-negative int")
        if n > ALGEBRA_SIZE_GUARD and not allow_large:
            raise ResourceGuardError(
                f"ground-set size {n} beyond the guard ({ALGEBRA_SIZE_GUARD}); "
                "pass allow_large=True to build anyway"
            )
        self.n = n
        self.subsets = all_subsets(n)
        self.subset_index = {s: i for i, s in enumerate(self.subsets)}
        # containing[x]: the subsets that hold x; the row of Y is the
        # intersection of containing[x] over x in Y
        containing = {
            x: sum(1 << j for j, s in enumerate(self.subsets) if x in s)
            for x in range(1, n + 1)
        }
        everything = (1 << len(self.subsets)) - 1
        self.rows: tuple[int, ...] = tuple(
            reduce(and_, (containing[x] for x in y), everything) for y in self.subsets
        )
        self.basis: tuple[Pair, ...] = _row_pairs(self, self.rows)
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        self.dim = len(self.basis)
        if self.dim != 3**n:
            raise AssertionError(f"basis size {self.dim} != 3^{n}")

    def mul_basis(self, p: Pair, q: Pair) -> Optional[Pair]:
        """Product of two basis pairs, or None when it vanishes."""
        if p not in self.basis_index or q not in self.basis_index:
            raise InputError("arguments must be basis pairs of this algebra")
        if p[1] != q[0]:
            return None
        return (p[0], q[1])

    def __repr__(self) -> str:
        return f"IncidenceAlgebra(n={self.n}, dim={self.dim})"


def build_incidence_algebra(n: int, *, allow_large: bool = False) -> IncidenceAlgebra:
    return IncidenceAlgebra(n, allow_large=allow_large)


def _row_product(s: Sequence[int], t: Sequence[int]) -> list[int]:
    """The span product: (Y, Z) times (Z, W) is (Y, W)."""
    out = []
    for row in s:
        acc = 0
        while row:
            low = row & -row
            acc |= t[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _row_pairs(a: IncidenceAlgebra, rows: Sequence[int]) -> tuple[Pair, ...]:
    """The pairs of a row set, in basis order."""
    subsets = a.subsets
    out = []
    for y, row in zip(subsets, rows):
        while row:
            low = row & -row
            out.append((y, subsets[low.bit_length() - 1]))
            row ^= low
    return tuple(out)


def _radical_rows(rows: Sequence[int]) -> list[int]:
    """The strict pairs of a row set."""
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _size(rows: Iterable[int]) -> int:
    return sum(row.bit_count() for row in rows)


def radical_series(a: IncidenceAlgebra) -> list[int]:
    """The dimensions of the powers of the radical (the strict pairs).

    They are computed by honest span products, not by a closed form, and
    the list ends with the 0 of the first vanishing power.
    """
    rad = _radical_rows(a.rows)
    series = []
    cur = rad
    while any(cur):
        series.append(_size(cur))
        cur = _row_product(cur, rad)
    series.append(0)
    return series


def cartan_and_ext(
    a: IncidenceAlgebra,
) -> tuple[list[list[int]], dict[Pair, int]]:
    """Cartan matrix over the subset order, and the arrow multiplicities.

    The Cartan entry at (Y, Z) counts basis elements in the (Y, Z)
    corner; arrows live on the pairs spanning rad but not rad squared.
    """
    m = len(a.subsets)
    cartan = [[row >> j & 1 for j in range(m)] for row in a.rows]
    rad = _radical_rows(a.rows)
    rad2 = _row_product(rad, rad)
    arrows = [r & ~r2 for r, r2 in zip(rad, rad2)]
    return cartan, dict.fromkeys(_row_pairs(a, arrows), 1)


def heredity_chain_check(a: IncidenceAlgebra) -> dict:
    """Peel idempotent ideals by descending subset cardinality and check
    the heredity axioms at every layer.

    Per layer: the generated ideal is idempotent (span product), it
    kills the radical of the current quotient from both sides, and the
    multiplication map from the two one-sided pieces over the (diagonal,
    hence semisimple) corner is a dimension-exact surjection onto the
    ideal.  All of it runs at the matrix-unit level, where every span
    is a list of bitset rows, one per subset (see `IncidenceAlgebra`).
    """
    if a.n == 0:
        return {
            "n": 0,
            "layers": [],
            "passed": True,
            "note": "ground field; nothing to peel",
        }
    quotient = list(a.rows)
    layers = []
    passed = True
    for level in range(a.n, -1, -1):
        level_ids = [c for c, s in enumerate(a.subsets) if len(s) == level]
        level_mask = sum(1 << c for c in level_ids)
        # the pieces (Y, C) and (C, Z) of the quotient through the level
        left = [row & level_mask for row in quotient]
        right = [row if level_mask >> i & 1 else 0 for i, row in enumerate(quotient)]
        through = _row_product(left, right)
        ideal = [t & q for t, q in zip(through, quotient)]
        idem_ok = _row_product(ideal, ideal) == ideal
        rad = _radical_rows(quotient)
        kills_rad = not any(_row_product(_row_product(ideal, rad), ideal))
        corner_diagonal = all(not left[c] & ~(1 << c) for c in level_ids)
        tensor_dim = sum(
            sum(row >> c & 1 for row in left) * right[c].bit_count() for c in level_ids
        )
        ideal_dim = _size(ideal)
        surjective = through == ideal
        tensor_ok = corner_diagonal and surjective and tensor_dim == ideal_dim
        layer_ok = idem_ok and kills_rad and tensor_ok
        passed = passed and layer_ok
        layers.append(
            {
                "level": level,
                "ideal_dim": ideal_dim,
                "idempotent": idem_ok,
                "kills_quotient_radical": kills_rad,
                "tensor_dimension": tensor_dim,
                "tensor_bijective": tensor_ok,
                "passed": layer_ok,
            }
        )
        quotient = [q & ~i for q, i in zip(quotient, ideal)]
    if any(quotient):
        passed = False
    return {"n": a.n, "layers": layers, "passed": passed}


# ----------------------------------------------------------------------
# modules


def _as_matrix(rows, nr: int, nc: int, what: str) -> list[list[Q]]:
    if any(isinstance(x, (bool, float)) for row in rows for x in row):
        raise InputError(f"{what}: a bool or float entry is not exact")
    m = [[Q(x) for x in row] for row in rows]
    if len(m) != nr or any(len(row) != nc for row in m):
        raise InputError(f"{what}: expected shape {nr}x{nc}")
    return m


def _is_zero(mat: Sequence[Sequence[Q]]) -> bool:
    return all(not x for row in mat for x in row)


class AlgebraModule:
    """A finite right module, stored vertex-wise with covering maps."""

    def __init__(
        self,
        algebra: IncidenceAlgebra,
        dims: Mapping[Subset, int],
        maps: Mapping[Pair, Sequence[Sequence[Q]]] = (),
        *,
        validate: bool = True,
    ):
        self.algebra = algebra
        self.dims: dict[Subset, int] = {}
        for y in algebra.subsets:
            d = dims.get(y, 0)
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise InputError(f"dimension at {sorted(y)} must be an int >= 0: {d!r}")
            self.dims[y] = d
        extra = set(dims) - set(algebra.subsets)
        if extra:
            raise InputError(f"unknown vertices {sorted(map(sorted, extra))}")
        self._maps: dict[Pair, list[list[Q]]] = {}
        items = maps.items() if isinstance(maps, Mapping) else maps
        for (y, z), rows in items:
            y, z = frozenset(y), frozenset(z)
            if not (y <= z and len(z - y) == 1):
                raise InputError(
                    f"map key ({sorted(y)}, {sorted(z)}) is not a covering pair"
                )
            mat = _as_matrix(
                rows, self.dims[y], self.dims[z], f"map {sorted(y)}->{sorted(z)}"
            )
            if not _is_zero(mat):
                self._maps[(y, z)] = mat
        if validate:
            self._validate()

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def covering_map(self, y: Subset, z: Subset) -> list[list[Q]]:
        got = self._maps.get((y, z))
        if got is not None:
            return [row[:] for row in got]
        return linalg.zeros(self.dims[y], self.dims[z])

    def action(self, y: Subset, z: Subset) -> list[list[Q]]:
        """Matrix of the basis pair (Y, Z) from the Y- to the Z-component."""
        y, z = frozenset(y), frozenset(z)
        if (y, z) not in self.algebra.basis_index:
            raise InputError(f"({sorted(y)}, {sorted(z)}) is not a basis pair")
        if y == z:
            return linalg.identity(self.dims[y])
        chain = [y]
        for x in sorted(z - y):
            chain.append(chain[-1] | {x})
        if any(self.dims[c] == 0 for c in chain):
            return linalg.zeros(self.dims[y], self.dims[z])
        cur = self.covering_map(chain[0], chain[1])
        for c0, c1 in zip(chain[1:], chain[2:]):
            cur = linalg.mat_mul(cur, self.covering_map(c0, c1))
        return cur

    def _validate(self) -> None:
        # Path independence on every square with nonzero endpoints; a
        # path through a zero vertex is the zero map of the right shape.
        for y in self.algebra.subsets:
            if self.dims[y] == 0:
                continue
            rest = sorted(set(range(1, self.algebra.n + 1)) - y)
            for a_, b_ in combinations(rest, 2):
                z = y | {a_, b_}
                if self.dims[z] == 0:
                    continue
                if self._path(y, y | {a_}, z) != self._path(y, y | {b_}, z):
                    raise InputError(
                        f"action matrices do not commute on the square "
                        f"{sorted(y)} -> {sorted(z)}"
                    )

    def _path(self, y: Subset, mid: Subset, z: Subset) -> list[list[Q]]:
        if self.dims[mid] == 0:
            return linalg.zeros(self.dims[y], self.dims[z])
        return linalg.mat_mul(self.covering_map(y, mid), self.covering_map(mid, z))

    def nonzero_maps(self) -> dict[Pair, list[list[Q]]]:
        return {p: [row[:] for row in m] for p, m in sorted(
            self._maps.items(), key=lambda kv: subset_key(kv[0][0]) + subset_key(kv[0][1])
        )}

    def signature(self):
        """Hashable canonical form: dims plus nonzero covering maps."""
        dims = tuple(self.dims[s] for s in self.algebra.subsets)
        maps = tuple(
            (subset_key(y), subset_key(z), tuple(tuple(x for x in row) for row in m))
            for (y, z), m in sorted(
                self._maps.items(),
                key=lambda kv: subset_key(kv[0][0]) + subset_key(kv[0][1]),
            )
        )
        return (self.algebra.n, dims, maps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraModule) and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        dims = {tuple(sorted(y)): d for y, d in self.dims.items() if d}
        return f"AlgebraModule(n={self.algebra.n}, dims={dims})"


def interval_module(a: IncidenceAlgebra, lower: Iterable[int], upper: Iterable[int]) -> AlgebraModule:
    """One-dimensional spaces on the interval [lower, upper], identity maps."""
    lo, hi = frozenset(lower), frozenset(upper)
    if lo not in a.subset_index or hi not in a.subset_index or not lo <= hi:
        raise InputError("interval endpoints must satisfy lower <= upper inside the lattice")
    dims = {s: 1 if lo <= s <= hi else 0 for s in a.subsets}
    maps = {}
    for y in a.subsets:
        if not lo <= y <= hi:
            continue
        for x in sorted(hi - y):
            z = y | {x}
            if z <= hi:
                maps[(y, z)] = [[Q(1)]]
    return AlgebraModule(a, dims, maps)


def direct_sum(a: IncidenceAlgebra, modules: Sequence[AlgebraModule]) -> AlgebraModule:
    dims = {s: sum(m.dims[s] for m in modules) for s in a.subsets}
    maps = {}
    for y in a.subsets:
        for x in range(1, a.n + 1):
            if x in y:
                continue
            z = y | {x}
            if dims[y] == 0 or dims[z] == 0:
                continue
            block = linalg.zeros(dims[y], dims[z])
            ro = co = 0
            for m in modules:
                sub = m.covering_map(y, z)
                for i, row in enumerate(sub):
                    for j, val in enumerate(row):
                        block[ro + i][co + j] = val
                ro += m.dims[y]
                co += m.dims[z]
            maps[(y, z)] = block
    return AlgebraModule(a, dims, maps)


def regular_module(a: IncidenceAlgebra) -> AlgebraModule:
    """The algebra as a right module over itself: the direct sum of the
    projectives, one upward interval per subset."""
    top = frozenset(range(1, a.n + 1))
    return direct_sum(a, [interval_module(a, y, top) for y in a.subsets])


# ----------------------------------------------------------------------
# hom spaces, endomorphism algebras, and Krull-Schmidt splitting


class _HomSpace:
    """Basis of module homomorphisms, flattened vertex block by vertex block."""

    def __init__(self, source: AlgebraModule, target: AlgebraModule):
        a = source.algebra
        verts = [
            y
            for y in a.subsets
            if source.dims[y] > 0 and target.dims[y] > 0
        ]
        offsets: dict[Subset, int] = {}
        width = 0
        for y in verts:
            offsets[y] = width
            width += source.dims[y] * target.dims[y]
        # one equation f_y m2 = m1 f_z per entry of each covering square,
        # as a {column: value} row over the d2(y) + d1(z) unknowns it meets
        rows: list[dict[int, Q]] = []
        for y in a.subsets:
            for x in range(1, a.n + 1):
                if x in y:
                    continue
                z = y | {x}
                d1y, d2y = source.dims[y], target.dims[y]
                d1z, d2z = source.dims[z], target.dims[z]
                if d1y == 0 or d2z == 0:
                    continue
                m1 = source.covering_map(y, z)
                m2 = target.covering_map(y, z)
                for r_ in range(d1y):
                    for c_ in range(d2z):
                        row = {}
                        if d2y > 0:
                            base = offsets[y] + r_ * d2y
                            for t in range(d2y):
                                if m2[t][c_]:
                                    row[base + t] = m2[t][c_]
                        if z in offsets:
                            base = offsets[z] + c_
                            for t in range(d1z):
                                if m1[r_][t]:
                                    row[base + t * d2z] = -m1[r_][t]
                        if row:
                            rows.append(row)
        self.source = source
        self.target = target
        self.verts = verts
        self.offsets = offsets
        self.width = width
        self.vectors, self.free_cols = linalg.nullspace(rows, ncols=width)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrices(self, vec: Sequence[Q]) -> dict[Subset, list[list[Q]]]:
        out = {}
        for y in self.verts:
            d1, d2 = self.source.dims[y], self.target.dims[y]
            base = self.offsets[y]
            out[y] = [
                [vec[base + r * d2 + c] for c in range(d2)] for r in range(d1)
            ]
        return out

    def element(self, coeffs: Sequence[Q]) -> dict[Subset, list[list[Q]]]:
        vec = [Q(0)] * self.width
        for coeff, basis_vec in zip(coeffs, self.vectors):
            if coeff:
                for j, x in enumerate(basis_vec):
                    vec[j] += coeff * x
        return self.matrices(vec)


def _is_local_end(space: _HomSpace) -> bool:
    """Sound certificate that the endomorphism algebra is local: the
    semisimple quotient is one dimensional over the rationals.

    End(M) acts faithfully on M, and in characteristic zero the trace
    form (f, g) -> tr_M(fg), the sum over vertices y of tr(f_y g_y), of a
    faithful representation has exactly the radical as its null space
    (Dickson's criterion; Curtis-Reiner 1962).  So the rank of its Gram
    matrix on the hom-space basis is the dimension of the semisimple
    quotient, and rank one certifies locality; a local algebra whose
    residue division algebra is bigger than the rationals is not
    certified here and surfaces as an honest uncertified summand.
    """
    if space.dim == 1:
        return True
    # tr(f_y g_y) pairs entry (r, c) of f_y with entry (c, r) of g_y
    transposed = []
    for y in space.verts:
        d, base = space.source.dims[y], space.offsets[y]
        transposed += [base + c * d + r for r in range(d) for c in range(d)]
    entries = [[(t, x) for x, t in zip(f, transposed) if x] for f in space.vectors]
    gram = [[sum(x * g[t] for t, x in e) for g in space.vectors] for e in entries]
    return linalg.rank(gram) == 1


def _poly_mul(a_: list[Q], b_: list[Q]) -> list[Q]:
    out = [Q(0)] * (len(a_) + len(b_) - 1)
    for i, x in enumerate(a_):
        if x:
            for j, y in enumerate(b_):
                out[i + j] += x * y
    return out


def _poly_pow(p: list[Q], e: int) -> list[Q]:
    out = [Q(1)]
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _min_poly(m: AlgebraModule, endo: Mapping[Subset, list[list[Q]]]) -> list[Q]:
    """Monic minimal polynomial, coefficients lowest degree first.

    Stacks the flattened powers I, A, A^2, ... as columns until they are
    dependent.  The powers before the newest are independent, so the null
    space is one vector with 1 at the newest power: the minimal polynomial.
    """
    power = {y: linalg.identity(m.dims[y]) for y in m.algebra.subsets if m.dims[y]}
    cols: list[list[Q]] = []
    while True:
        cols.append([x for block in power.values() for row in block for x in row])
        null, _ = linalg.nullspace([list(r) for r in zip(*cols)], ncols=len(cols))
        if null:
            return null[0]
        power = {y: linalg.mat_mul(power[y], endo[y]) for y in power}


def _poly_trim(p: list) -> list:
    """Drop zero top coefficients; the zero polynomial is []."""
    while p and not p[-1]:
        p = p[:-1]
    return p


# The square-free decomposition works on integer polynomials: lists of
# ints, lowest degree first, with no zero top coefficient; the zero
# polynomial is [].


def _poly_sub(a_: list[int], b_: list[int]) -> list[int]:
    return _poly_trim([x - y for x, y in zip_longest(a_, b_, fillvalue=0)])


def _poly_derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _poly_normal(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients, with a positive leading
    coefficient (the zero polynomial stays zero)."""
    if not p:
        return p
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // g for c in p]


def _poly_exact_quotient(a_: list[int], b_: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over the rationals; by
    Gauss's lemma the quotient has integer coefficients, so every step
    divides exactly."""
    rem = list(a_)
    quot = [0] * max(len(a_) - len(b_) + 1, 0)
    lead = b_[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b_) - 1] // lead
        quot[k] = c
        if c:
            for j, y in enumerate(b_):
                rem[k + j] -= c * y
    return quot


def _poly_pseudo_rem(a_: list[int], b_: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by a nonzero b:
    each step scales the running remainder by b's leading coefficient
    and cancels its top term."""
    rem = list(a_)
    lead = b_[-1]
    while len(rem) >= len(b_):
        c, k = rem[-1], len(rem) - len(b_)
        rem = [lead * x for x in rem]
        for j, y in enumerate(b_):
            rem[k + j] -= c * y
        rem = _poly_trim(rem)
    return rem


def _poly_gcd(a_: list[int], b_: list[int]) -> list[int]:
    """Greatest common divisor of two integer polynomials, not both zero,
    primitive with a positive leading coefficient.  Euclid on the
    primitive parts of pseudo-remainders (the primitive remainder
    sequence), so the coefficients stay as small as the divisors allow
    instead of growing as Fractions do over the rationals."""
    a_, b_ = _poly_normal(a_), _poly_normal(b_)
    while b_:
        a_, b_ = b_, _poly_normal(_poly_pseudo_rem(a_, b_))
    return a_


def _square_free_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a non-constant integer
    polynomial f.

    Returns the non-constant a_i with their exponents i, where f is a
    constant times the product of the a_i**i and the a_i are primitive
    with positive leading coefficients, square-free and pairwise coprime
    (Yun, "On square-free decomposition algorithms", SYMSAC 1976).  Every
    divisor is a primitive gcd, so every quotient is exact over the
    integers.
    """
    df = _poly_derivative(f)
    g = _poly_gcd(f, df)
    b = _poly_exact_quotient(f, g)
    d = _poly_sub(_poly_exact_quotient(df, g), _poly_derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b = _poly_exact_quotient(b, a)
        c = _poly_exact_quotient(d, a)
        d = _poly_sub(c, _poly_derivative(b))
        i += 1
    return parts


def _primitive(p: list[Q]) -> list[int]:
    """The positive integer multiple of p with coprime coefficients."""
    den = lcm(*(c.denominator for c in p))
    z = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*z)
    return [c // g for c in z]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _is_root(z: list[int], u: int, v: int) -> bool:
    """Whether u/v is a root of z: sum of z_k u^k v^(d-k) is zero."""
    acc, vp = z[-1], 1
    for c in reversed(z[:-1]):
        vp *= v
        acc = acc * u + c * vp
    return acc == 0


def _divide_linear(z: list[int], u: int, v: int) -> list[int]:
    """Quotient of z by v*x - u, exact over the integers (Gauss's lemma)."""
    quot = [0] * (len(z) - 1)
    q = 0
    for k in range(len(z) - 1, 0, -1):
        q = (z[k] + u * q) // v
        quot[k - 1] = q
    return quot


def _factor_rational_poly(coeffs: list[Q]) -> list[tuple[list[Q], int]]:
    """Irreducible factors over the rationals, with exponents.

    Each factor is the primitive integer polynomial with a positive
    leading coefficient (x^2 - x/2 gives 2x - 1 and x), stored lowest
    degree first as Fractions; the constant is dropped.  Factors are
    sorted by degree, then by their coefficient lists.

    Yun's square-free decomposition splits off the exponents, and the
    rational-root theorem strips the linear factors of each square-free
    part; what is left has no rational root, so at degree 2 or 3 it is
    irreducible.  The whole polynomial goes to sympy instead when a
    root-free part of degree 4 or more is left (it may be a product of
    quadratics), or when a part's primitive form has a leading or
    constant coefficient above FACTOR_END_COEFF_LIMIT, which bounds the
    divisor search.
    """
    f = _poly_trim([Q(c) for c in coeffs])
    if len(f) < 2:
        return []
    out = []
    for z, exp in _square_free_parts(_primitive(f)):
        if z[0] == 0:
            out.append(([Q(0), Q(1)], exp))
            z = z[1:]
        if max(abs(z[0]), abs(z[-1])) > FACTOR_END_COEFF_LIMIT:
            return _sympy_factor_rational_poly(f)
        for v in _divisors(z[-1]):
            for u0 in _divisors(z[0]):
                for u in (u0, -u0):
                    if len(z) > 1 and gcd(u, v) == 1 and _is_root(z, u, v):
                        out.append(([Q(-u), Q(v)], exp))
                        z = _divide_linear(z, u, v)
        if len(z) > 4:
            return _sympy_factor_rational_poly(f)
        if len(z) > 1:
            out.append(([Q(c) for c in z], exp))
    out.sort(key=lambda fe: (len(fe[0]), [(c.numerator, c.denominator) for c in fe[0]]))
    return out


def _sympy_factor_rational_poly(coeffs: list[Q]) -> list[tuple[list[Q], int]]:
    """_factor_rational_poly by sympy's factorization over the rationals."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for poly, exp in factors:
        cs = list(reversed(poly.all_coeffs()))
        out.append(([Q(c.p, c.q) for c in cs], int(exp)))
    out.sort(key=lambda fe: (len(fe[0]), [(c.numerator, c.denominator) for c in fe[0]]))
    return out


def _poly_at_endo(
    m: AlgebraModule, endo: Mapping[Subset, list[list[Q]]], coeffs: list[Q]
) -> dict[Subset, list[list[Q]]]:
    out = {}
    for y in m.algebra.subsets:
        d = m.dims[y]
        if d == 0:
            continue
        g = endo[y]
        acc = linalg.zeros(d, d)
        for c in reversed(coeffs):
            acc = linalg.mat_mul(acc, g)
            if c:
                for i in range(d):
                    acc[i][i] += c
        out[y] = acc
    return out


def _kernel_restriction(
    m: AlgebraModule, op: Mapping[Subset, list[list[Q]]]
) -> AlgebraModule:
    """Submodule cut out by the kernel of a commuting operator."""
    bases: dict[Subset, tuple[list[list[Q]], list[int]]] = {}
    dims: dict[Subset, int] = {}
    for y in m.algebra.subsets:
        if m.dims[y] == 0:
            dims[y] = 0
            continue
        rows, free = linalg.nullspace(
            [list(col) for col in zip(*op[y])], ncols=m.dims[y]
        )
        bases[y] = (rows, free)
        dims[y] = len(rows)
    maps = {}
    for y in m.algebra.subsets:
        if dims[y] == 0:
            continue
        for x in range(1, m.algebra.n + 1):
            if x in y:
                continue
            z = y | {x}
            if dims[z] == 0:
                continue
            by, _ = bases[y]
            bz, free_z = bases[z]
            image = linalg.mat_mul(by, m.covering_map(y, z))
            maps[(y, z)] = [
                linalg.coords_in_span(bz, free_z, row) for row in image
            ]
    return AlgebraModule(m.algebra, dims, maps, validate=False)


def _find_split(
    m: AlgebraModule, space: _HomSpace, rng: random.Random, retries: int = 60
) -> Optional[tuple[AlgebraModule, AlgebraModule]]:
    """Look for a proper direct-sum split through one endomorphism.

    Tries each basis endomorphism first and then seeded random integer
    combinations; an endomorphism splits the module whenever its
    minimal polynomial has two coprime parts (kernels of the parts are
    complementary submodules).
    """
    total = m.total_dim

    def candidates():
        for v in space.vectors:
            yield space.matrices(v)
        bound = 3
        for k in range(retries):
            if k and k % 20 == 0:
                bound += 2
            coeffs = [Q(rng.randint(-bound, bound)) for _ in range(space.dim)]
            yield space.element(coeffs)

    for endo in candidates():
        minpoly = _min_poly(m, endo)
        factors = _factor_rational_poly(minpoly)
        if len(factors) < 2:
            continue
        first, exp = factors[0]
        rest = [Q(1)]
        for poly, e in factors[1:]:
            rest = _poly_mul(rest, _poly_pow(poly, e))
        part1 = _kernel_restriction(m, _poly_at_endo(m, endo, _poly_pow(first, exp)))
        part2 = _kernel_restriction(m, _poly_at_endo(m, endo, rest))
        if (
            part1.total_dim
            and part2.total_dim
            and part1.total_dim + part2.total_dim == total
        ):
            return part1, part2
    return None


def is_isomorphic(
    m1: AlgebraModule, m2: AlgebraModule, *, seed: int = DEFAULT_SEED, rounds: int = 40
) -> bool:
    """Randomized isomorphism test with exact verification.

    Requires equal dimension vectors, then searches the hom space for an
    element invertible at every vertex: basis elements first, then
    seeded integer combinations drawn from a box wide enough that a
    nonzero determinant polynomial is missed with probability at most
    one half per round.  A hit is verified exactly, so the only failure
    mode is declaring isomorphic modules distinct, at probability at
    most 2**-rounds.
    """
    if m1.algebra.n != m2.algebra.n:
        return False
    if any(m1.dims[y] != m2.dims[y] for y in m1.algebra.subsets):
        return False
    if m1.total_dim == 0:
        return True
    space = _HomSpace(m1, m2)
    if space.dim == 0:
        return False

    def invertible(endo: Mapping[Subset, list[list[Q]]]) -> bool:
        for y in space.verts:
            if m1.dims[y] and not linalg.det(endo[y]):
                return False
        return True

    for v in space.vectors:
        if invertible(space.matrices(v)):
            return True
    rng = random.Random(seed)
    box = max(7, m1.total_dim + 1)
    for _ in range(rounds):
        coeffs = [Q(rng.randint(-box, box)) for _ in range(space.dim)]
        if invertible(space.element(coeffs)):
            return True
    return False


def _support_components(m: AlgebraModule) -> list[AlgebraModule]:
    """The submodules on the connected components of m's basis support
    graph, ordered by their first basis vector; [m] when it is connected.

    The nodes are the basis vectors (Y, i), in `subsets` order, and
    (Y, i)-(Z, j) is an edge when entry [i][j] of the covering map Y -> Z
    is nonzero.  Every covering map sends a component's span into itself
    and the spans partition the basis, so m is exactly their direct sum,
    and each piece's maps are sub-blocks of m's (no square to revalidate).
    """
    subsets = m.algebra.subsets
    offsets: dict[Subset, int] = {}
    size = 0
    for y in subsets:
        offsets[y] = size
        size += m.dims[y]
    # union-find whose roots are the least node of each component
    root = list(range(size))

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for (y, z), mat in m._maps.items():
        oy, oz = offsets[y], offsets[z]
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x:
                    ru, rv = find(oy + i), find(oz + j)
                    if ru != rv:
                        root[max(ru, rv)] = min(ru, rv)
    groups: dict[int, dict[Subset, list[int]]] = {}
    for y in subsets:
        for i in range(m.dims[y]):
            groups.setdefault(find(offsets[y] + i), {}).setdefault(y, []).append(i)
    if len(groups) < 2:
        return [m] if groups else []
    pieces = []
    for _, support in sorted(groups.items()):
        maps = {
            (y, z): [[mat[i][j] for j in support[z]] for i in support[y]]
            for (y, z), mat in m._maps.items()
            if y in support and z in support
        }
        dims = {y: len(idx) for y, idx in support.items()}
        pieces.append(AlgebraModule(m.algebra, dims, maps, validate=False))
    return pieces


def _split_recursive(
    m: AlgebraModule, rng: random.Random, out: list[tuple[AlgebraModule, bool]]
) -> None:
    """Append m's summands to out, each with its local certificate.

    Disconnected support splits first, exactly and with no randomness
    (`_support_components`); only a connected piece builds its hom space
    and, unless `_is_local_end` certifies it, goes to the seeded
    endomorphism search, whose kernel pieces recurse here again."""
    for piece in _support_components(m):
        space = _HomSpace(piece, piece)
        if _is_local_end(space):
            out.append((piece, True))
            continue
        pair = _find_split(piece, space, rng)
        if pair is None:
            out.append((piece, False))
            continue
        for part in pair:
            _split_recursive(part, rng, out)


def krull_schmidt_decompose(
    a: IncidenceAlgebra,
    m: AlgebraModule,
    seed: int = DEFAULT_SEED,
    *,
    allow_large: bool = False,
) -> list[tuple[AlgebraModule, int, bool]]:
    """Indecomposable summands with multiplicities and local certificates.

    Splits recursively (`_split_recursive`): first along the connected
    components of the basis support graph, an exact direct sum that
    needs no hom space, then each connected piece through endomorphism
    kernels, until every piece has a local endomorphism algebra
    (certified via the trace-form radical, valid in characteristic zero)
    or no further split is found; the latter is reported honestly
    through is_certified_local=False rather than guessed.  Pieces are
    then grouped into isomorphism classes by the randomized-but-verified
    hom test.  The whole run is deterministic for a fixed seed.
    """
    if m.algebra.n != a.n:
        raise InputError("module does not live over the given algebra")
    if m.total_dim > MODULE_DIM_GUARD and not allow_large:
        raise ResourceGuardError(
            f"module dimension {m.total_dim} beyond the guard ({MODULE_DIM_GUARD}); "
            "pass allow_large=True to split anyway"
        )
    rng = random.Random(seed)
    pieces: list[tuple[AlgebraModule, bool]] = []
    _split_recursive(m, rng, pieces)
    pieces.sort(key=lambda pc: (-pc[0].total_dim, pc[0].signature()))
    classes: list[tuple[AlgebraModule, int, bool]] = []
    for piece, certified in pieces:
        for k, (rep, mult, cert) in enumerate(classes):
            if piece.total_dim == rep.total_dim and is_isomorphic(
                rep, piece, seed=rng.randrange(2**32)
            ):
                classes[k] = (rep, mult + 1, cert and certified)
                break
        else:
            classes.append((piece, 1, certified))
    return classes
