"""Weyl-group elements, cosets, and the two-sided-closed subset search.

An element is stored as the signed permutation it induces on the
positive-root indices: entry k is the image index of positive root k,
with ~j (bitwise complement) marking the negative of positive root j.
Two elements are equal exactly when they act identically on the simple
roots, which the permutation encodes in full.

Reduced words are a derived artifact: the canonical word of an element
repeatedly strips its smallest right descent, and any input word is
accepted and canonicalized on construction.  Words use 1-based simple
indices.

The biclosed subsets of the positive roots (closed, with a closed
complement) are found by a depth-first search that decides the roots in
index order and prunes a branch as soon as a decided sum triple breaks
closure on either side.  Because the biclosed sets are exactly the
kept-positive sets of the group elements (Papi 1994; Dyer), the search
visits about |W| leaves instead of all 2**|positive roots| subsets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import WEYL_ORDER_GUARD, Root, RootSystem


def _flip(signed: int) -> int:
    return ~signed


class WeylElement:
    """One group element, identified by its action on the positive roots."""

    __slots__ = ("rs", "perm", "_word", "_hash")

    def __init__(self, rs: RootSystem, perm: tuple[int, ...]):
        self.rs = rs
        self.perm = perm
        self._word: Optional[tuple[int, ...]] = None
        self._hash: Optional[int] = None

    # -- construction --------------------------------------------------

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, tuple(range(len(rs.positive_roots))))

    @classmethod
    def simple_reflection(cls, rs: RootSystem, i: int) -> "WeylElement":
        if i not in rs.simple_indices:
            raise InputError(f"simple index {i} out of range for {rs.cartan_type}")
        return cls(rs, rs._simple_perm[i - 1])

    # -- group structure ----------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition: (self * other) acts by other first, then self."""
        if self.rs is not other.rs and self.rs != other.rs:
            raise InputError("cannot compose elements of different root systems")
        sp = self.perm
        out = tuple(
            sp[j] if j >= 0 else _flip(sp[~j]) for j in other.perm
        )
        return WeylElement(self.rs, out)

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for k, j in enumerate(self.perm):
            if j >= 0:
                inv[j] = k
            else:
                inv[~j] = ~k
        return WeylElement(self.rs, tuple(inv))

    # -- action ---------------------------------------------------------

    def act_index(self, k: int) -> int:
        """Signed image index of positive root k (~j encodes a negative)."""
        return self.perm[k]

    def act(self, root: Root) -> Root:
        """Image of a root, positive or negative."""
        rs = self.rs
        r = tuple(root)
        if rs.is_positive_root(r):
            j = self.perm[rs.positive_index(r)]
            return rs.positive_roots[j] if j >= 0 else tuple(
                -c for c in rs.positive_roots[~j]
            )
        neg = tuple(-c for c in r)
        if rs.is_positive_root(neg):
            j = self.perm[rs.positive_index(neg)]
            return (
                tuple(-c for c in rs.positive_roots[j])
                if j >= 0
                else rs.positive_roots[~j]
            )
        raise InputError(f"{root} is not a root of {rs.cartan_type}")

    # -- derived combinatorics -------------------------------------------

    @property
    def length(self) -> int:
        return sum(1 for j in self.perm if j < 0)

    @property
    def is_identity(self) -> bool:
        return all(j == k for k, j in enumerate(self.perm))

    @property
    def inversion_mask(self) -> int:
        """Bitmask of positive-root indices sent negative."""
        m = 0
        for k, j in enumerate(self.perm):
            if j < 0:
                m |= 1 << k
        return m

    @property
    def plus_mask(self) -> int:
        """Bitmask of positive-root indices kept positive."""
        full = (1 << len(self.perm)) - 1
        return full ^ self.inversion_mask

    def inverted_roots(self) -> frozenset[Root]:
        roots = self.rs.positive_roots
        return frozenset(roots[k] for k, j in enumerate(self.perm) if j < 0)

    def preserved_roots(self) -> frozenset[Root]:
        roots = self.rs.positive_roots
        return frozenset(roots[k] for k, j in enumerate(self.perm) if j >= 0)

    def descent_set(self) -> frozenset[int]:
        """Simple indices i with (self * s_i) shorter than self."""
        rs = self.rs
        return frozenset(
            i for i in rs.simple_indices if self.perm[rs.simple_root_index(i)] < 0
        )

    @property
    def simple_images(self) -> tuple[Root, ...]:
        return tuple(self.act(self.rs.simple_root(i)) for i in self.rs.simple_indices)

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word (smallest right descent stripped first)."""
        if self._word is None:
            collected = []
            cur = self
            while True:
                ds = cur.descent_set()
                if not ds:
                    break
                i = min(ds)
                cur = cur * WeylElement.simple_reflection(self.rs, i)
                collected.append(i)
            self._word = tuple(reversed(collected))
        return self._word

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rs.cartan_type == other.rs.cartan_type
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rs.cartan_type, self.perm))
        return self._hash

    def __repr__(self) -> str:
        body = " ".join(str(i) for i in self.word) or "e"
        return f"W[{body}]"


def element_from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product of simple reflections; any word is accepted, reduced or not."""
    acc = WeylElement.identity(rs)
    for i in word:
        acc = acc * WeylElement.simple_reflection(rs, i)
    return acc


def weyl_act(w: WeylElement, root: Root) -> Root:
    return w.act(root)


def inversion_set(w: WeylElement) -> tuple[frozenset[Root], frozenset[Root]]:
    """(roots sent negative, roots kept positive); sizes sum to all roots."""
    return w.inverted_roots(), w.preserved_roots()


def descent_set(w: WeylElement) -> frozenset[int]:
    return w.descent_set()


def _element_sort_key(w: WeylElement):
    return (w.length, tuple(sorted(w.inverted_roots())))


def _normalize_subset(rs: RootSystem, subset: Iterable[int]) -> frozenset[int]:
    j = frozenset(subset)
    bad = j - set(rs.simple_indices)
    if bad:
        raise InputError(
            f"simple indices {sorted(bad)} out of range for {rs.cartan_type}"
        )
    return j


def enumerate_weyl(
    rs: RootSystem, *, allow_large: bool = False
) -> tuple[WeylElement, ...]:
    """All group elements, ordered by length then inversion set.

    Refuses groups beyond the construction guard unless overridden; the
    expected size is known in closed form before any enumeration runs.
    """
    order = rs.cartan_type.weyl_order()
    if order > WEYL_ORDER_GUARD and not allow_large:
        raise ResourceGuardError(
            f"Weyl group of {rs.cartan_type} has {order} elements; "
            "pass allow_large=True to enumerate anyway"
        )
    elements = _subgroup_cached(rs, frozenset(rs.simple_indices))
    if len(elements) != order:
        raise AssertionError(
            f"{rs.cartan_type}: enumerated {len(elements)} elements, expected {order}"
        )
    return elements


@lru_cache(maxsize=None)
def _subgroup_cached(rs: RootSystem, j: frozenset[int]) -> tuple[WeylElement, ...]:
    gens = [WeylElement.simple_reflection(rs, i) for i in sorted(j)]
    identity = WeylElement.identity(rs)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                v = w * s
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return tuple(sorted(seen, key=_element_sort_key))


def weyl_subgroup(rs: RootSystem, subset: Iterable[int]) -> tuple[WeylElement, ...]:
    """The standard subgroup generated by the listed simple reflections."""
    return _subgroup_cached(rs, _normalize_subset(rs, subset))


@lru_cache(maxsize=None)
def _longest_cached(rs: RootSystem, j: frozenset[int]) -> WeylElement:
    w = WeylElement.identity(rs)
    while True:
        up = [i for i in sorted(j) if w.perm[rs.simple_root_index(i)] >= 0]
        if not up:
            return w
        w = w * WeylElement.simple_reflection(rs, up[0])


def longest_element(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Longest element of the standard subgroup on the listed indices.

    Built greedily: extend by any simple reflection in the subset that
    still increases length.  The result inverts exactly the positive
    roots supported on the subset.
    """
    return _longest_cached(rs, _normalize_subset(rs, subset))


@lru_cache(maxsize=None)
def _min_reps_cached(rs: RootSystem, j: frozenset[int]) -> tuple[WeylElement, ...]:
    pos = [rs.simple_root_index(i) for i in sorted(j)]
    return tuple(
        w for w in enumerate_weyl(rs) if all(w.perm[k] >= 0 for k in pos)
    )


def min_coset_reps(rs: RootSystem, subset: Iterable[int]) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the left cosets of the subgroup.

    An element is kept exactly when it maps every listed simple root to
    a positive root; the result follows the global enumeration order.
    """
    return _min_reps_cached(rs, _normalize_subset(rs, subset))


def coset_minimize(w: WeylElement, subset: Iterable[int]) -> WeylElement:
    """Minimal-length element of w times the subgroup on the subset."""
    rs = w.rs
    j = _normalize_subset(rs, subset)
    pos = {i: rs.simple_root_index(i) for i in sorted(j)}
    cur = w
    while True:
        down = [i for i, k in pos.items() if cur.perm[k] < 0]
        if not down:
            return cur
        cur = cur * WeylElement.simple_reflection(rs, min(down))


def _biclosed_masks(n: int, triples: Sequence[tuple[int, int, int]]) -> list[int]:
    """Masks X over n bits with X and its complement both closed, ascending.

    A triple (i, j, k) records root_i + root_j = root_k.  Bits are decided
    in index order, and each triple is checked once its largest index is
    decided: with all three bits known, X breaks it exactly when it holds
    i and j but not k, and the complement breaks it exactly when X holds
    k but neither i nor j.
    """
    by_top: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(n)]
    for i, j, k in triples:
        pair, top = (1 << i) | (1 << j), 1 << k
        by_top[max(i, j, k)].append((pair | top, (pair, top)))
    out: list[int] = []

    def extend(bit: int, mask: int) -> None:
        if bit == n:
            out.append(mask)
            return
        for m in (mask, mask | 1 << bit):
            if not any(m & trio in bad for trio, bad in by_top[bit]):
                extend(bit + 1, m)

    extend(0, 0)
    return sorted(out)


def enumerate_biclosed(
    rs: RootSystem, *, allow_large: bool = False
) -> list[tuple[frozenset[Root], Optional[WeylElement]]]:
    """All subsets of the positive roots closed on both sides.

    The group is enumerated first, so its order guard refuses oversize
    inputs before any search runs.  The closure search then finds every
    biclosed set on its own, and each one is paired with the group
    element whose preserved-root set equals it, or with None.  The
    theory says the witness always exists; the search does not assume it.
    Sets come in increasing order of their root-index bitmask.
    """
    witness = {w.plus_mask: w for w in enumerate_weyl(rs, allow_large=allow_large)}
    roots = rs.positive_roots
    n = len(roots)
    out = []
    for mask in _biclosed_masks(n, rs.sum_triples()):
        members = frozenset(roots[k] for k in range(n) if mask & (1 << k))
        out.append((members, witness.get(mask)))
    return out
