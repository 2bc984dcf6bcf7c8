"""Weyl-group elements, cosets, and the two-sided-closed subset search.

An element is stored as the signed permutation it induces on the
positive-root indices: entry k is the image index of positive root k,
with ~j (bitwise complement) marking the negative of positive root j.
Two elements are equal exactly when they act identically on the simple
roots, which the permutation encodes in full.

Words use 1-based simple indices.  The canonical word of an element
strips its smallest right descent first: it is the canonical word of
w * s_i followed by i, where i is the smallest right descent of w.  Any
input word is accepted and canonicalized on construction.

Enumerating the group (`enumerate_weyl`) numbers its elements 0, 1, ...
in the canonical order (length, then inversion set) and stores one
table on the root system with flat per-id arrays: the interned element
(its id in `_id`, its word filled in), the permutation -> id index,
right multiplication by each simple reflection, the inverse id, the
right-descent bitmask (bit i - 1 for simple index i) and the canonical
word.  Ids increase with length, so s_i is a right descent of the
element with id a exactly when rmul[i][a] < a.

Which path runs is decided by the data alone: an element has an id
exactly when it is the table's copy, and a table exists once the group
has been enumerated.  Every group within the order guard gets a table on
its first enumeration, E7 (2,903,040 elements) included; E8 gets one only
when `allow_large` lets it be enumerated.  Elements with ids multiply,
invert, build from words and minimize over cosets by walking the table.
A permutation product in an enumerated group returns the interned
element, so even the products of elements built before the enumeration
have ids.  Standard subgroups and longest elements are built on
permutations and interned once a table exists.  A group that has not
been enumerated (as for `catx weyl --type E8`, which prints the longest
word only) keeps the permutation arithmetic, which is also the
reference the tests check the table against.  Nothing else selects the
path.

The biclosed subsets of the positive roots (closed, with a closed
complement) are found by a depth-first search that decides the roots in
index order and prunes a branch as soon as a decided sum triple breaks
closure on either side.  Because the biclosed sets are exactly the
kept-positive sets of the group elements (Papi 1994; Dyer), the search
visits about |W| leaves instead of all 2**|positive roots| subsets.
"""

from __future__ import annotations

from functools import wraps
from itertools import compress
from operator import invert, itemgetter
from typing import Iterable, Optional, Sequence

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import WEYL_ORDER_GUARD, Root, RootSystem

Perm = tuple[int, ...]


def _perm_mul(p: Perm, q: Perm) -> Perm:
    """Signed permutation of p * q (q acts first)."""
    return tuple(p[j] if j >= 0 else ~p[~j] for j in q)


def _check_index(rs: RootSystem, i: int) -> None:
    if i not in rs.simple_indices:
        raise InputError(f"simple index {i} out of range for {rs.cartan_type}")


class WeylElement:
    """One group element, identified by its action on the positive roots."""

    __slots__ = ("rs", "perm", "_id", "_word", "_hash", "_image_bits")

    def __init__(self, rs: RootSystem, perm: Perm):
        self.rs = rs
        self.perm = perm
        self._id: Optional[int] = None
        self._word: Optional[tuple[int, ...]] = None
        self._hash: Optional[int] = None
        self._image_bits: Optional[tuple[int, ...]] = None

    # -- construction --------------------------------------------------

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return _interned(rs, tuple(range(len(rs.positive_roots))))

    @classmethod
    def simple_reflection(cls, rs: RootSystem, i: int) -> "WeylElement":
        _check_index(rs, i)
        return _interned(rs, rs._simple_perm[i - 1])

    # -- group structure ----------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition: (self * other) acts by other first, then self."""
        rs = self.rs
        if rs is not other.rs:
            if rs != other.rs:
                raise InputError("cannot compose elements of different root systems")
        elif self._id is not None and other._id is not None:
            table = rs._weyl_table
            return table.elements[table.product(self._id, other._id)]
        return _interned(rs, _perm_mul(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        if self._id is not None:
            table = self.rs._weyl_table
            return table.elements[table.inverse[self._id]]
        inv = [0] * len(self.perm)
        for k, j in enumerate(self.perm):
            if j >= 0:
                inv[j] = k
            else:
                inv[~j] = ~k
        return _interned(self.rs, tuple(inv))

    # -- action ---------------------------------------------------------

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

    @property
    def image_bits(self) -> tuple[int, ...]:
        """The action on all 2n roots as one-bit masks.

        The roots are numbered 0..n-1 (the positive roots) and n..2n-1
        (n + k is the negative of positive root k); entry r is
        1 << (number of the image of root r).  The image of a set of
        roots given by its numbers is the sum of their entries.
        """
        if self._image_bits is None:
            n = len(self.perm)
            pos = [1 << j if j >= 0 else 1 << (n + ~j) for j in self.perm]
            neg = [1 << (n + j) if j >= 0 else 1 << ~j for j in self.perm]
            self._image_bits = tuple(pos + neg)
        return self._image_bits

    # -- derived combinatorics -------------------------------------------

    @property
    def length(self) -> int:
        if self._word is not None:
            return len(self._word)
        return sum(1 for j in self.perm if j < 0)

    @property
    def is_identity(self) -> bool:
        if self._id is not None:
            return self._id == 0
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

    def descent_set(self) -> frozenset[int]:
        """Simple indices i with (self * s_i) shorter than self."""
        return frozenset(_perm_descents(self.rs, self.perm))

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word (smallest right descent stripped first)."""
        if self._word is None:
            table = self.rs._weyl_table
            if table is not None:
                self._word = table.words[table.index[self.perm]]
            else:
                self._word = _strip_descents(self.rs, self.perm)
        return self._word

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
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


def _perm_descents(rs: RootSystem, perm: Perm) -> list[int]:
    """Right descents, ascending: the simple roots the element negates."""
    return [i for i, k in zip(rs.simple_indices, rs._simple_pos) if perm[k] < 0]


def _strip_descents(rs: RootSystem, perm: Perm) -> tuple[int, ...]:
    """Canonical word by permutation arithmetic alone."""
    collected = []
    while down := _perm_descents(rs, perm):
        perm = _perm_mul(perm, rs._simple_perm[down[0] - 1])
        collected.append(down[0])
    return tuple(reversed(collected))


def _interned(rs: RootSystem, perm: Perm) -> WeylElement:
    """The element with this permutation: the table's copy when the
    group has been enumerated, a fresh one otherwise."""
    table = rs._weyl_table
    if table is None:
        return WeylElement(rs, perm)
    return table.elements[table.index[perm]]


class _GroupTable:
    """Flat per-id arrays of an enumerated group (see the module docstring).

    rmul[i][a] is the id of element a times s_i; rmul[0] is unused
    because simple indices are 1-based.
    """

    __slots__ = ("elements", "index", "rmul", "inverse", "descents", "words")

    def __init__(self, rs: RootSystem):
        perms, products = _closure(rs, rs.simple_indices)
        key = _perm_sort_key(rs)
        order = sorted(range(len(perms)), key=lambda k: key(perms[k]))
        new_id = [0] * len(perms)
        for a, k in enumerate(order):
            new_id[k] = a
        rmul: list[list[int]] = [[]]
        for i in rs.simple_indices:
            row = products.pop(i)  # renumbered and dropped one at a time
            rmul.append([new_id[row[k]] for k in order])
        self.rmul = rmul
        perms = [perms[k] for k in order]
        del order, new_id  # freed before the per-element arrays are built
        ids = range(len(perms))
        descents = [0] * len(perms)
        for i in rs.simple_indices:
            bit = 1 << (i - 1)
            for a, b in zip(ids, rmul[i]):
                if b < a:
                    descents[a] |= bit
        self.descents = descents
        words: list[tuple[int, ...]] = [()]
        for a in ids[1:]:
            d = descents[a]
            i = (d & -d).bit_length()
            words.append(words[rmul[i][a]] + (i,))
        self.words = words
        self.inverse = [self.walk(0, reversed(word)) for word in words]
        elements = []
        for a, perm in enumerate(perms):
            w = WeylElement(rs, perm)
            w._id = a
            w._word = words[a]
            elements.append(w)
        self.elements = tuple(elements)
        self.index = {perm: w._id for perm, w in zip(perms, elements)}

    def walk(self, a: int, word: Iterable[int]) -> int:
        """Id of element a times the simple reflections of the word."""
        rmul = self.rmul
        for i in word:
            a = rmul[i][a]
        return a

    def minimize(self, a: int, mask: int) -> int:
        """Id of the minimal element of a's coset modulo the subgroup on
        the simple indices of the mask: strips the smallest right descent
        inside the mask until none is left."""
        descents, rmul = self.descents, self.rmul
        while down := descents[a] & mask:
            a = rmul[(down & -down).bit_length()][a]
        return a

    def product(self, a: int, b: int) -> int:
        """Id of a * b, walking the shorter of the two words."""
        words = self.words
        if len(words[b]) <= len(words[a]):
            return self.walk(a, words[b])
        # a * b = (b^-1 * a^-1)^-1, and a^-1 is the word of a reversed
        inverse = self.inverse
        return inverse[self.walk(inverse[b], reversed(words[a]))]


def element_from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product of simple reflections; any word is accepted, reduced or not."""
    table = rs._weyl_table
    if table is None:
        acc = WeylElement.identity(rs)
        for i in word:
            acc = acc * WeylElement.simple_reflection(rs, i)
        return acc
    if not all(map(rs.simple_indices.__contains__, word)):
        for i in word:
            _check_index(rs, i)  # raises at the first index out of range
    return table.elements[table.walk(0, word)]


_NEGATIVE = (0).__gt__


def _perm_sort_key(rs: RootSystem):
    """Key of the canonical element order on permutations: length, then
    inversion set, compared as sorted tuples of roots.

    For two sets of one size, that comparison is decided by the smallest
    root in only one of them, so it equals comparing masks whose highest
    bit stands for the lexicographically smallest root, larger first:
    bit n-1-r is set when the root of lexicographic rank r is inverted.
    """
    roots = rs.positive_roots
    n = len(roots)
    bit = [0] * n
    for r, k in enumerate(sorted(range(n), key=roots.__getitem__)):
        bit[k] = 1 << (n - 1 - r)

    def key(perm: Perm) -> tuple[int, int]:
        mask = sum(compress(bit, map(_NEGATIVE, perm)))
        return mask.bit_count(), -mask

    return key


def _closure(
    rs: RootSystem, j: Iterable[int]
) -> tuple[list[Perm], dict[int, list[int]]]:
    """Breadth-first closure of the identity under right multiplication
    by the simple reflections of j.

    Returns the permutations in discovery order and, per simple index i,
    the discovery number of each permutation times s_i.
    """
    n = len(rs.positive_roots)
    gens = []
    for i in sorted(j):
        # entry k of w * s_i is w[s_i[k]], or ~w[~s_i[k]] where s_i[k] is
        # negative: one read of w followed by its negation (entry n + m
        # of that is ~w[m])
        source = [k if k >= 0 else n + ~k for k in rs._simple_perm[i - 1]]
        read = itemgetter(*source)
        if n == 1:  # itemgetter of one index returns the entry, not a tuple
            read = lambda w, get=read: (get(w),)
        gens.append((i, read))
    index = {tuple(range(n)): 0}
    queue = list(index)
    products: dict[int, list[int]] = {i: [] for i, _ in gens}
    for w in queue:  # grows while iterating: a breadth-first queue
        signed = w + tuple(map(invert, w))
        for i, read in gens:
            v = read(signed)
            m = index.get(v)
            if m is None:
                m = index[v] = len(queue)
                queue.append(v)
            products[i].append(m)
    return queue, products


def _normalize_subset(rs: RootSystem, subset: Iterable[int]) -> frozenset[int]:
    j = frozenset(subset)
    bad = j - set(rs.simple_indices)
    if bad:
        raise InputError(
            f"simple indices {sorted(bad)} out of range for {rs.cartan_type}"
        )
    return j


def _index_mask(j: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in j)


def enumerate_weyl(
    rs: RootSystem, *, allow_large: bool = False
) -> tuple[WeylElement, ...]:
    """All group elements, ordered by length then inversion set.

    Refuses groups beyond the construction guard unless overridden; the
    expected size is known in closed form before any enumeration runs.
    The first call builds the group table of the root system.
    """
    order = rs.cartan_type.weyl_order()
    if order > WEYL_ORDER_GUARD and not allow_large:
        raise ResourceGuardError(
            f"Weyl group of {rs.cartan_type} has {order} elements; "
            "pass allow_large=True to enumerate anyway"
        )
    if rs._weyl_table is None:
        table = _GroupTable(rs)
        if len(table.elements) != order:
            raise AssertionError(
                f"{rs.cartan_type}: enumerated {len(table.elements)} elements, "
                f"expected {order}"
            )
        rs._weyl_table = table
    return rs._weyl_table.elements


def group_table(rs: RootSystem) -> _GroupTable:
    """The group table of the root system, enumerating the group under
    its order guard first if it has none yet."""
    if rs._weyl_table is None:
        enumerate_weyl(rs)
    return rs._weyl_table


def per_system(build):
    """Memoise a table of a root system on the system itself.

    `build(rs)` is kept under the key `build` and `build(rs, key)` under
    `(build, key)`, `build` being the function returned here, which the
    decorated module-level name binds.  Entries live and die with their
    system, two equal systems built apart share none, and nothing is
    ever cleared: each key keeps the value it was first built with.
    """

    @wraps(build)
    def table(rs: RootSystem, *key):
        entry = (table, *key) if key else table
        memo = rs._weyl_memo
        if entry not in memo:
            memo[entry] = build(rs, *key)
        return memo[entry]

    return table


@per_system
def kept_masks(rs: RootSystem) -> list[int]:
    """Per element id x, the mask of the positive roots that x keeps
    positive: bit k when x keeps positive root k positive, the element's
    `plus_mask`.  Built once per enumerated group, enumerating it under
    its order guard first.

    The inversion sets come from the table in id order: an element a
    other than the identity is s_i * b for b shorter, with s_i its
    smallest left descent, and then a inverts what b inverts plus the
    root b^{-1}(alpha_i), the one root that b sends to alpha_i.
    """
    table = group_table(rs)
    rmul, inverse, descents = table.rmul, table.inverse, table.descents
    simple_pos = (None,) + rs._simple_pos
    perms = [w.perm for w in table.elements]
    inverted = [0] * len(perms)
    for a in range(1, len(perms)):
        d = descents[inverse[a]]  # the left descents of a
        i = (d & -d).bit_length()
        b = inverse[rmul[i][inverse[a]]]
        inverted[a] = inverted[b] | 1 << perms[b].index(simple_pos[i])
    full = (1 << len(rs.positive_roots)) - 1
    return [full ^ m for m in inverted]


# The next three are keyed by the normalized index set.  An entry made
# before its group was enumerated holds elements without ids; those are
# equal to and hash like the interned ones, and their products are
# interned, so a stale entry can cost speed but never change an answer.
# Only answers that cover the whole group enumerate it first: the
# subgroup on every simple index, and the minimal coset representatives.


@per_system
def _subgroup(rs: RootSystem, j: frozenset[int]) -> tuple[WeylElement, ...]:
    if len(j) == rs.rank:
        # the whole group: its closure would redo the enumeration
        return enumerate_weyl(rs)
    perms, _ = _closure(rs, j)
    return tuple(_interned(rs, p) for p in sorted(perms, key=_perm_sort_key(rs)))


def weyl_subgroup(rs: RootSystem, subset: Iterable[int]) -> tuple[WeylElement, ...]:
    """The standard subgroup generated by the listed simple reflections."""
    return _subgroup(rs, _normalize_subset(rs, subset))


@per_system
def _longest(rs: RootSystem, j: frozenset[int]) -> WeylElement:
    w = WeylElement.identity(rs)
    while True:
        up = [i for i in sorted(j) if w.perm[rs.simple_root_index(i)] >= 0]
        if not up:
            return w
        w = w * WeylElement.simple_reflection(rs, up[0])


def longest_element(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Longest element of the standard subgroup on the listed indices.

    Built greedily: extend by the smallest simple reflection in the
    subset that still increases length.  The result inverts exactly the
    positive roots supported on the subset.
    """
    return _longest(rs, _normalize_subset(rs, subset))


@per_system
def _min_reps(rs: RootSystem, j: frozenset[int]) -> tuple[WeylElement, ...]:
    elements = enumerate_weyl(rs)
    mask = _index_mask(j)
    return tuple(
        w for w, d in zip(elements, rs._weyl_table.descents) if not d & mask
    )


def min_coset_reps(rs: RootSystem, subset: Iterable[int]) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the left cosets of the subgroup.

    An element is kept exactly when it has no right descent in the
    subset (it maps every listed simple root to a positive root); the
    result follows the global enumeration order.
    """
    return _min_reps(rs, _normalize_subset(rs, subset))


def coset_minimize(w: WeylElement, subset: Iterable[int]) -> WeylElement:
    """Minimal-length element of w times the subgroup on the subset.

    Strips the smallest right descent inside the subset until none is
    left.
    """
    rs = w.rs
    j = _normalize_subset(rs, subset)
    if w._id is not None:
        table = rs._weyl_table
        return table.elements[table.minimize(w._id, _index_mask(j))]
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
    elements = enumerate_weyl(rs, allow_large=allow_large)
    roots = rs.positive_roots
    witness = dict(zip(kept_masks(rs), elements))
    masks = _biclosed_masks(len(roots), rs.sum_triples())
    # each set is the union of the sets of its mask's bytes, each of
    # those built once, so no root is hashed once per set
    byte_sets = []
    for s in range(0, len(roots), 8):
        values = {mask >> s & 255 for mask in masks}
        byte_sets.append((s, {b: _members(roots[s : s + 8], b) for b in values}))
    return [
        (
            frozenset().union(*[sets[mask >> s & 255] for s, sets in byte_sets]),
            witness.get(mask),
        )
        for mask in masks
    ]


def _members(roots: Sequence[Root], mask: int) -> frozenset[Root]:
    """The roots at the set bits of the mask.  Its bits, lowest first,
    are the characters of its binary text reversed; compress stops at
    the last root."""
    return frozenset(compress(roots, map("1".__eq__, reversed(bin(mask)))))
