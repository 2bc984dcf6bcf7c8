"""Finite crystallographic root systems over exact integer coordinates.

A root is a tuple of ints: its coefficients in the simple-root basis.
A positive root has every coefficient >= 0, a negative root every
coefficient <= 0; mixed signs never occur in a valid system and are
rejected wherever roots enter from outside.

Simple-root indices are 1-based throughout (alpha_1 .. alpha_rank),
matching the usual diagram labelling and the on-disk formats.  The
positive roots are generated from the simple roots by closing under the
simple reflections and are kept sorted by (height, lexicographic
coordinates), so every downstream enumeration is reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from catx.errors import InputError, ResourceGuardError, refuse_change

Root = tuple[int, ...]

# Largest Weyl group a plain (non-override) construction will accept.
WEYL_ORDER_GUARD = 10**7
RANK_GUARD = 8

_FAMILY_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


class CartanType:
    """A family letter plus a rank, e.g. A2, B3, G2.

    An immutable value, equal and hashed as its (family, rank) tuple.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        ranks = _FAMILY_RANKS.get(family) if isinstance(family, str) else None
        if ranks is None:
            raise InputError(f"unknown family {family!r}")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank not in ranks:
            raise InputError(
                f"invalid rank {rank!r} for family {family} "
                f"(allowed: {ranks.start}..{ranks.stop - 1})"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    __setattr__ = __delattr__ = refuse_change

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __reduce__(self):
        return self.__class__, (self.family, self.rank)

    def __repr__(self) -> str:
        return f"CartanType(family={self.family!r}, rank={self.rank!r})"

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        s = text.strip().upper() if isinstance(text, str) else ""
        if len(s) < 2 or not s[0].isalpha() or not s[1:].isdigit():
            raise InputError(f"cannot parse Cartan type {text!r}")
        return cls(s[0], int(s[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def simple_indices(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return _cartan_matrix(self.family, self.rank)

    def positive_root_count(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family in ("B", "C"):
            return n * n
        if self.family == "D":
            return n * (n - 1)
        if self.family == "G":
            return 6
        if self.family == "F":
            return 24
        return {6: 36, 7: 63, 8: 120}[n]

    def weyl_order(self) -> int:
        n = self.rank
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family in ("B", "C"):
            return (2**n) * math.factorial(n)
        if self.family == "D":
            return (2 ** (n - 1)) * math.factorial(n)
        if self.family == "G":
            return 12
        if self.family == "F":
            return 1152
        return {6: 51840, 7: 2903040, 8: 696729600}[n]


def _cartan_matrix(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    # Entry a[i][j] (0-based) is the pairing of alpha_{j+1} against the
    # coroot of alpha_{i+1}; the reflection s_i subtracts a[i][.] times
    # the i-th coordinate column.
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n short
        if family == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if i <= n and j <= n:
                bond(i - 1, j - 1)
        bond(2 - 1, 4 - 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2)
        bond(2, 3)
        a[2][1] = -2  # alpha_3, alpha_4 short
    elif family == "G":
        a[0][1] = -3  # alpha_1 short
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def _root_sign(root: Root) -> int:
    """+1 for a positive root, -1 for a negative one, 0 for mixed signs."""
    has_pos = any(c > 0 for c in root)
    has_neg = any(c < 0 for c in root)
    if has_pos and has_neg:
        return 0
    return -1 if has_neg else 1


class RootSystem:
    """All positive roots of a Cartan type, with exact reflection data.

    Instances compare and hash by Cartan type.  They are immutable once
    built, except that the Weyl-group layer attaches the group table on
    first enumeration and the memo of per-system tables to the instance,
    so two equal systems built apart share neither.
    """

    def __init__(self, cartan_type: CartanType, *, allow_large: bool = False):
        order = cartan_type.weyl_order()
        if not allow_large and (cartan_type.rank > RANK_GUARD or order > WEYL_ORDER_GUARD):
            raise ResourceGuardError(
                f"{cartan_type} has Weyl order {order} beyond the guard "
                f"({WEYL_ORDER_GUARD}); pass allow_large=True to build anyway"
            )
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.simple_indices = cartan_type.simple_indices
        self.cartan_matrix = cartan_type.cartan_matrix()
        self.positive_roots = self._generate()
        self._index: dict[Root, int] = {r: k for k, r in enumerate(self.positive_roots)}
        self._simple_pos = tuple(
            self._index[self.simple_root(i)] for i in self.simple_indices
        )
        self._sum_index = self._build_sum_index()
        self._simple_perm = tuple(
            self._reflection_perm(i) for i in self.simple_indices
        )
        # the group table, set by catx.weyl.enumerate_weyl on first use,
        # and the memo of every per-system table (catx.weyl.per_system)
        self._weyl_table = None
        self._weyl_memo: dict = {}

    def _generate(self) -> tuple[Root, ...]:
        n = self.rank
        simples = [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        seen: set[Root] = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for root in frontier:
                for i in self.simple_indices:
                    image = self._reflect_coords(i, root)
                    sign = _root_sign(image)
                    if sign == 0:
                        raise AssertionError(f"mixed-sign image {image}")
                    if sign > 0 and image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        roots = tuple(sorted(seen, key=lambda r: (sum(r), r)))
        expected = self.cartan_type.positive_root_count()
        if len(roots) != expected:
            raise AssertionError(
                f"{self.cartan_type}: generated {len(roots)} positive roots, "
                f"expected {expected}"
            )
        return roots

    def _build_sum_index(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for (ka, ra), (kb, rb) in combinations(enumerate(self.positive_roots), 2):
            s = tuple(x + y for x, y in zip(ra, rb))
            k = self._index.get(s)
            if k is not None:
                table[(ka, kb)] = k
        return table

    def _reflect_coords(self, i: int, root: Root) -> Root:
        row = self.cartan_matrix[i - 1]
        pairing = sum(row[j] * root[j] for j in range(self.rank))
        out = list(root)
        out[i - 1] -= pairing
        return tuple(out)

    def _reflection_perm(self, i: int) -> tuple[int, ...]:
        # Signed permutation of the positive-root indices under s_i:
        # value k means image is positive root k, value ~k means its
        # negative.  Only alpha_i itself is sent negative.
        perm = []
        for root in self.positive_roots:
            image = self._reflect_coords(i, root)
            if _root_sign(image) > 0:
                perm.append(self._index[image])
            else:
                neg = tuple(-c for c in image)
                perm.append(~self._index[neg])
        return tuple(perm)

    # ------------------------------------------------------------------
    # queries

    def simple_root(self, i: int) -> Root:
        if i not in self.simple_indices:
            raise InputError(f"simple index {i} out of range for {self.cartan_type}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def simple_root_index(self, i: int) -> int:
        if i not in self.simple_indices:
            raise InputError(f"simple index {i} out of range for {self.cartan_type}")
        return self._simple_pos[i - 1]

    def positive_index(self, root: Root) -> int:
        k = self._index.get(tuple(root))
        if k is None:
            raise InputError(f"{root} is not a positive root of {self.cartan_type}")
        return k

    def is_positive_root(self, root: Root) -> bool:
        return tuple(root) in self._index

    def is_root(self, root: Root) -> bool:
        r = tuple(root)
        return r in self._index or tuple(-c for c in r) in self._index

    def root_height(self, root: Root) -> int:
        if not self.is_root(root):
            raise InputError(f"{root} is not a root of {self.cartan_type}")
        return sum(root)

    def reflect_root(self, i: int, root: Root) -> Root:
        """Image of a root (positive or negative) under s_i."""
        if i not in self.simple_indices:
            raise InputError(f"simple index {i} out of range for {self.cartan_type}")
        r = tuple(root)
        if not self.is_root(r):
            raise InputError(f"{root} is not a root of {self.cartan_type}")
        return self._reflect_coords(i, r)

    def sum_triples(self) -> tuple[tuple[int, int, int], ...]:
        """All (i, j, k) with i < j and root_i + root_j = root_k."""
        return tuple(
            (ka, kb, k) for (ka, kb), k in sorted(self._sum_index.items())
        )

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.cartan_type == other.cartan_type

    def __hash__(self) -> int:
        return hash(self.cartan_type)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


@lru_cache(maxsize=None)
def _cached_system(cartan_type: CartanType, allow_large: bool) -> RootSystem:
    return RootSystem(cartan_type, allow_large=allow_large)


def build_root_system(
    cartan_type: CartanType | str, *, allow_large: bool = False
) -> RootSystem:
    """Build (or fetch the cached copy of) the root system of a type."""
    if not isinstance(cartan_type, CartanType):
        cartan_type = CartanType.parse(cartan_type)
    return _cached_system(cartan_type, allow_large)
