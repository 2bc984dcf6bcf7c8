"""Weight characters of parabolically induced families and their
triangular decomposition into simple characters.

The model tracks a torus character theta only through a label and the
set itheta of simple indices on which it restricts trivially.  The full
Weyl stabilizer of theta is declared to be the standard subgroup on
itheta; reports carry that declaration so downstream consumers know the
approximation.  Twists theta^w therefore live on the left cosets of
that subgroup and are stored via the minimal-length representative.

A weight pairs a twisted character with a group element v; the root
side of the weight is the set of positive roots v keeps positive.  The
strict order on weights moves the root set into a strictly smaller one
through any group element compatible with the twist, and the
decomposition peels maximal weights of longest-element shape,
subtracting one simple character per step.

Inside this module and `catx.chario` a weight is one int.  With the ids
of the group table (`catx.weyl`), the weight with coset representative
id r and second component id v packs as r * |W| + v, and a
`ModuleCharacter` stores {torus character: {packed weight: mult}}.  The
character builders, the decomposition, the order rows and verdict, and
the character files all run on these ints.  Every standard family is a
union of right-descent classes of the group, and a family over theta is
one bitset over the group: bit x stands for the weight (minimum of
x W_I, x^{-1}), I = itheta, one list of packed weights per itheta mask
(`_weight_ids`).  The classes (`_descent_classes`) and the standard
subgroups (`_subgroup_bits`) are bitsets kept once per root system;
under the adopted convention the filtration sweep reads each family at
the identity coset, the family ANDed with W_I, where the weight of x is
(theta, x^{-1}).  The decomposition and the filtration share one
elimination on these bitsets.  These tables, one word rank, the support
of every element and the decomposition candidates of every subset are
kept per root system (`catx.weyl.per_system`).  The order check keeps none
of them: it enumerates its universe from the parabolic factorisation
(`_coset_parts`).
`Weight` and `TwistedCharacter` objects are built only at the edges: the
public accessors of `ModuleCharacter`, `weight_universe`, `weight_lt`,
and the repr of a weight named in a counterexample or diagnostic.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress
from operator import and_, eq, or_
from typing import Callable, Iterable, Mapping, Optional

from catx.errors import InputError, refuse_change
from catx.rootsystem import RootSystem
from catx.weyl import (
    WeylElement,
    _index_mask,
    coset_minimize,
    group_table,
    kept_masks,
    per_system,
    weyl_subgroup,
)

STABILIZER_MODEL = "standard subgroup on itheta (declared, not computed)"

JPRIME_CONVENTIONS = ("itheta-minus-j", "i-minus-j")


class FormalCharacter:
    """A torus character: a label plus its trivial simple indices.

    An immutable value, equal and hashed as its (label, itheta) tuple;
    the hash is computed once, on construction.  Equal labels are
    required to carry equal itheta sets; equality compares both fields,
    so respecting that contract makes the label alone decisive.
    """

    __slots__ = ("label", "itheta", "_hash")

    def __init__(self, label: str, itheta: frozenset[int]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "itheta", itheta)
        object.__setattr__(self, "_hash", hash((label, itheta)))

    __setattr__ = __delattr__ = refuse_change

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.itheta == other.itheta

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.label, self.itheta)

    def __repr__(self) -> str:
        body = ",".join(str(i) for i in sorted(self.itheta))
        return f"{self.label}|{{{body}}}"


def _check_itheta(rs: RootSystem, theta: FormalCharacter) -> frozenset[int]:
    bad = theta.itheta - set(rs.simple_indices)
    if bad:
        raise InputError(
            f"itheta indices {sorted(bad)} out of range for {rs.cartan_type}"
        )
    return theta.itheta


def _check_j(rs: RootSystem, theta: FormalCharacter, j: Iterable[int]) -> frozenset[int]:
    jj = frozenset(j)
    if not jj <= _check_itheta(rs, theta):
        raise InputError(
            f"J={sorted(jj)} is not contained in itheta={sorted(theta.itheta)}"
        )
    return jj


class TwistedCharacter:
    """theta twisted by a group element, stored by its canonical coset rep.

    The representative must be the minimal-length element of its left
    coset modulo the stabilizer subgroup; construct through `of` to
    canonicalize an arbitrary element.  An immutable value, equal and
    hashed as its (base, coset_rep) tuple.
    """

    __slots__ = ("base", "coset_rep")

    def __init__(self, base: FormalCharacter, coset_rep: WeylElement) -> None:
        rs = coset_rep.rs
        for i in sorted(_check_itheta(rs, base)):
            if coset_rep.perm[rs.simple_root_index(i)] < 0:
                raise InputError(
                    f"coset representative {coset_rep!r} is not canonical for "
                    f"itheta={sorted(base.itheta)}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coset_rep", coset_rep)

    __setattr__ = __delattr__ = refuse_change

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.coset_rep == other.coset_rep

    def __hash__(self) -> int:
        return hash((self.base, self.coset_rep))

    def __reduce__(self):
        return self.__class__, (self.base, self.coset_rep)

    @classmethod
    def of(cls, base: FormalCharacter, w: WeylElement) -> "TwistedCharacter":
        return cls(base, coset_minimize(w, base.itheta))

    @property
    def is_untwisted(self) -> bool:
        return self.coset_rep.is_identity

    def __repr__(self) -> str:
        return f"{self.base!r}^{self.coset_rep!r}"


class Weight:
    """A twisted character paired with a group element.

    The combinatorial content of the second component is the set of
    positive roots it keeps positive.  An immutable value, equal and
    hashed as its (tchar, v) tuple.
    """

    __slots__ = ("tchar", "v")

    def __init__(self, tchar: TwistedCharacter, v: WeylElement) -> None:
        object.__setattr__(self, "tchar", tchar)
        object.__setattr__(self, "v", v)

    __setattr__ = __delattr__ = refuse_change

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tchar == other.tchar and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.tchar, self.v))

    def __reduce__(self):
        return self.__class__, (self.tchar, self.v)

    def __repr__(self) -> str:
        return f"({self.tchar!r}, {self.v!r})"


# ----------------------------------------------------------------------
# weights as packed integer ids


def _element_id(table, w: WeylElement) -> int:
    """The table id of an element; elements built before the group was
    enumerated carry none, and are found by their permutation."""
    return w._id if w._id is not None else table.index[w.perm]


def _weight_of(rs: RootSystem, base: FormalCharacter, packed: int) -> Weight:
    """The weight object of a packed id (built at the edges only)."""
    elements = rs._weyl_table.elements
    rep, v = divmod(packed, len(elements))
    return Weight(TwistedCharacter(base, elements[rep]), elements[v])


@per_system
def _word_rank(rs: RootSystem) -> list[int]:
    """Per element id, its rank when the ids are sorted by (len(word),
    word) of their canonical words: shorter first, then lexicographic."""
    words = rs._weyl_table.words
    rank = [0] * len(words)
    ordered = sorted(range(len(words)), key=lambda a: (len(words[a]), words[a]))
    for k, a in enumerate(ordered):
        rank[a] = k
    return rank


def _id_sort_key(rs: RootSystem) -> Callable[[int], int]:
    """Sort key on the packed ids of one base that orders their weights by
    the canonical word of the coset representative, then by that of the
    second component, each shorter first and then lexicographically
    (`_word_rank`)."""
    rank = _word_rank(rs)
    n = len(rank)
    return lambda p: rank[p // n] * n + rank[p % n]


def _base_key(base: FormalCharacter):
    return base.label, tuple(sorted(base.itheta))


class ModuleCharacter:
    """A finite multiset of weights with positive multiplicities.

    Stored over one root system as {torus character: {packed weight:
    multiplicity}} (see the module docstring), in insertion order within
    each torus character; no inner dict is empty.  Weights given as
    objects are packed on construction, enumerating the group of a
    system that has no table yet under its order guard.  The accessors
    `mapping`, `items`, `weights` and `get` speak in `Weight` objects and
    build them on each call; `items` orders them by torus character (label,
    then sorted itheta), then by the canonical words of the coset
    representative and of the second component (`_id_sort_key`).
    """

    __slots__ = ("_rs", "_entries")

    def __init__(self, entries: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        self._rs: Optional[RootSystem] = None
        self._entries: dict[FormalCharacter, dict[int, int]] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for weight, mult in items:
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity for {weight!r} must be a positive int")
            rs = weight.v.rs
            if self._rs is None:
                self._rs = rs
            elif rs is not self._rs and rs != self._rs:
                raise InputError("cannot mix weights of different root systems")
            packed = self._packed(weight)
            inner = self._entries.setdefault(weight.tchar.base, {})
            inner[packed] = inner.get(packed, 0) + mult

    def _packed(self, weight: Weight) -> int:
        table = group_table(self._rs)
        rep = _element_id(table, weight.tchar.coset_rep)
        return rep * len(table.elements) + _element_id(table, weight.v)

    @classmethod
    def _of(
        cls, rs: RootSystem, entries: dict[FormalCharacter, dict[int, int]]
    ) -> "ModuleCharacter":
        """A character over packed ids, taking ownership of the dicts; it
        keeps rs even when empty."""
        out = cls.__new__(cls)
        out._entries = {base: inner for base, inner in entries.items() if inner}
        out._rs = rs
        return out

    def _sorted_ids(self, base: FormalCharacter) -> list[int]:
        """The packed ids over one torus character, in `items` order."""
        inner = self._entries.get(base)
        return sorted(inner, key=_id_sort_key(self._rs)) if inner else []

    @property
    def mapping(self) -> dict[Weight, int]:
        rs = self._rs
        return {
            _weight_of(rs, base, p): m
            for base, inner in self._entries.items()
            for p, m in inner.items()
        }

    def items(self) -> list[tuple[Weight, int]]:
        rs = self._rs
        return [
            (_weight_of(rs, base, p), self._entries[base][p])
            for base in sorted(self._entries, key=_base_key)
            for p in self._sorted_ids(base)
        ]

    def weights(self) -> list[Weight]:
        return [w for w, _ in self.items()]

    def get(self, weight: Weight) -> int:
        inner = self._entries.get(weight.tchar.base)
        if inner is None or weight.v.rs != self._rs:
            return 0
        return inner.get(self._packed(weight), 0)

    def total(self) -> int:
        return sum(sum(inner.values()) for inner in self._entries.values())

    def __len__(self) -> int:
        return sum(map(len, self._entries.values()))

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other: "ModuleCharacter") -> "ModuleCharacter":
        return ModuleCharacter.sum((self, other))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleCharacter)
            and self._entries == other._entries
            and (not self._entries or self._rs == other._rs)
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{w!r}:{m}" for w, m in self.items())
        return f"ModuleCharacter({{{body}}})"

    @staticmethod
    def sum(pieces: Iterable["ModuleCharacter"]) -> "ModuleCharacter":
        rs = None
        out: dict[FormalCharacter, dict[int, int]] = {}
        for piece in pieces:
            if not piece._entries:
                continue
            if rs is None:
                rs = piece._rs
            elif piece._rs is not rs and piece._rs != rs:
                raise InputError("cannot mix weights of different root systems")
            for base, inner in piece._entries.items():
                acc = out.setdefault(base, {})
                for p, m in inner.items():
                    acc[p] = acc.get(p, 0) + m
        return ModuleCharacter._of(rs, out)


# ----------------------------------------------------------------------
# the strict order on weights


def _pulled_roots(a: Weight) -> list[int]:
    """a's kept roots moved by w_a^{-1}, as numbers of the 2n roots
    (see `WeylElement.image_bits`)."""
    w_a_inv = a.tchar.coset_rep.inverse().image_bits
    return [w_a_inv[k].bit_length() - 1 for k, j in enumerate(a.v.perm) if j >= 0]


def _target_mask(b: Weight) -> int:
    """The roots that b's twist w_b carries into b's kept set, as a mask
    over the 2n roots numbered as in `WeylElement.image_bits`."""
    plus = b.v.plus_mask
    return sum(
        1 << r for r, bit in enumerate(b.tchar.coset_rep.image_bits) if bit & plus
    )


@lru_cache(maxsize=None)
def weight_lt(a: Weight, b: Weight) -> bool:
    """Strict order: some twist-compatible element carries a's kept-root
    set into a proper subset of b's, staying inside the positive roots.

    The elements are w_b u w_a^{-1} for u in the stabilizer subgroup of
    a's character.  Such an element maps a's kept roots into b's kept
    set exactly when u maps the pulled roots of a into the target mask
    of b.  A proper subset forces a's kept set to be smaller, so unequal
    lengths are a cheap necessary precheck.

    This is the readable pairwise definition; no catx code calls it.  The
    order check reads the bitset rows of `_order_rows`, and the
    decomposition the closed form of its candidates' up-sets
    (`_candidates`); the tests hold both equal to this.
    """
    if a.tchar.base != b.tchar.base or a.v.length <= b.v.length:
        return False
    inside = _target_mask(b).__and__
    pulled = _pulled_roots(a)
    return any(
        all(map(inside, map(u.image_bits.__getitem__, pulled)))
        for u in weyl_subgroup(a.v.rs, a.tchar.base.itheta)
    )


# ----------------------------------------------------------------------
# characters of the standard families


def _coset_parts(rs: RootSystem, mask: int) -> tuple[list[int], list[int]]:
    """The parabolic factorisation x = r * u of every element id x, as two
    lists of ids indexed by x: r is the minimal element of x's left coset
    modulo the subgroup W_I on the simple indices of the mask, and u lies
    in W_I (Björner–Brenti, Combinatorics of Coxeter Groups, section 2.4).

    Built in id order: ids increase with length, so for a right descent
    s_i of x inside the mask, x * s_i = r * (u * s_i) is shorter and
    already filled in."""
    table = group_table(rs)
    rmul = table.rmul
    mins = list(range(len(table.elements)))
    parts = [0] * len(mins)
    for x, d in enumerate(table.descents):
        if down := d & mask:
            step = rmul[(down & -down).bit_length()]
            y = step[x]
            mins[x] = mins[y]
            parts[x] = step[parts[y]]
    return mins, parts


def _coset_mins(rs: RootSystem, mask: int) -> list[int]:
    """Per element id x, the id of the minimal element of x's left coset
    modulo the subgroup on the simple indices of the mask (`_coset_parts`)."""
    return _coset_parts(rs, mask)[0]


def _bitset(ids: Iterable[int], size: int) -> int:
    """The bitset of the ids, each below size, built in one pass as a
    binary numeral with one digit per id (an OR per id would copy the
    whole int every time)."""
    digits = bytearray(b"0") * size
    for x in ids:
        digits[x] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


def _members(bits: int) -> list[int]:
    """The set bits of a bitset, ascending, found in its binary numeral
    read from the low end (peeling the lowest bit would copy the whole
    int once per bit)."""
    digits = bin(bits)[:1:-1]
    out, k = [], digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


@per_system
def _descent_classes(rs: RootSystem) -> tuple[list[list[int]], list[int]]:
    """The group split into right-descent classes: per mask d of simple
    indices, the ids x whose right-descent mask is d, in id order, and the
    same class as one bitset over the ids."""
    descents = group_table(rs).descents
    lists = [[] for _ in range(1 << rs.rank)]
    for x, d in enumerate(descents):
        lists[d].append(x)
    return lists, [_bitset(xs, len(descents)) for xs in lists]


@per_system
def _subgroup_bits(rs: RootSystem) -> list[int]:
    """Per mask K of simple indices, the bitset of the standard subgroup
    W_K: the ids whose support (`_supports`) lies inside K.  Built from
    the ids of each exact support, summed over the submasks one index at
    a time."""
    support = _supports(rs)
    exact = [[] for _ in range(1 << rs.rank)]
    for x, s in enumerate(support):
        exact[s].append(x)
    sub = [_bitset(xs, len(support)) for xs in exact]
    for i in range(rs.rank):
        bit = 1 << i
        for k in range(len(sub)):
            if k & bit:
                sub[k] |= sub[k ^ bit]
    return sub


@per_system
def _weight_ids(rs: RootSystem, mask: int) -> list[int]:
    """Per element id x, the packed weight (minimum of x's coset, x^{-1})
    over an itheta with this mask: the weight that bit x of a family's
    bitset stands for.  For x in the subgroup on itheta it is the id of
    x^{-1}.  One list per mask."""
    table = group_table(rs)
    n = len(table.elements)
    return [r * n + v for r, v in zip(_coset_mins(rs, mask), table.inverse)]


# Every family is a union of right-descent classes.  As w runs over the
# minimal representatives of the left cosets of W_J, x = w * w_J runs
# over exactly the elements with J inside their right descent set D_R(x)
# (Bjorner-Brenti, Combinatorics of Coxeter Groups, section 2.4), and
# w_J * w^{-1} = x^{-1}.  With J inside I = itheta, w and x share a coset
# of W_I, so each x gives the weight (theta^x, x^{-1}) (`_weight_ids`):
#   induced at J:    J inside D_R(x);
#   simple at J:     D_R(x) & I = J;
#   costandard at J: D_R(x) & J' empty (x = w itself), either convention.
# Distinct x give distinct second components: every multiplicity is one,
# and a family is one bitset over the ids x (`_family_bits`).
#
# Write x = r * y, r minimal in x W_I and y in W_I (the same section).
# The right descents of x inside I are those of y, so when the mask of a
# family lies inside I, as every mask does under the adopted convention,
# x is in the family exactly when y is.  Its weight (r, y^{-1} r^{-1})
# goes to (1, y^{-1}) under (r, v) -> (1, v * r): the family is the
# |W:W_I| translates of its slice at r = 1, the family's bitset ANDed
# with that of W_I (`_subgroup_bits`).  The rejected convention's J'
# leaves I, and its families are not translation-invariant.


def _family_bits(rs: RootSystem, mask: int, want: int) -> int:
    """The bitset of the x whose right-descent mask d has d & mask == want."""
    classes = _descent_classes(rs)[1]
    return reduce(or_, (bits for d, bits in enumerate(classes) if d & mask == want), 0)


def _simple_bits(rs: RootSystem, imask: int) -> list[int]:
    """`_family_bits(rs, imask, want)` for every want inside imask at once,
    in one pass over the classes: entry want is the bitset of the simple
    family at the J of that mask."""
    pieces = [0] * (imask + 1)
    for d, bits in enumerate(_descent_classes(rs)[1]):
        pieces[d & imask] |= bits
    return pieces


def _family(
    rs: RootSystem, theta: FormalCharacter, mask: int, want: int
) -> ModuleCharacter:
    """The full family of the x whose right-descent mask d has
    d & mask == want, class by class in order of d."""
    weight = _weight_ids(rs, _index_mask(theta.itheta)).__getitem__
    classes = _descent_classes(rs)[0]
    ids = [map(weight, xs) for d, xs in enumerate(classes) if d & mask == want]
    return ModuleCharacter._of(rs, {theta: dict.fromkeys(chain(*ids), 1)})


def induced_character(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> ModuleCharacter:
    """Character of the full induced family at (theta, J).

    One weight per minimal coset representative w: theta twisted by w,
    paired with w_J w^{-1}.
    """
    jmask = _index_mask(_check_j(rs, theta, j))
    return _family(rs, theta, jmask, jmask)


def simple_character(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> ModuleCharacter:
    """Character of the simple quotient at (theta, J)."""
    jmask = _index_mask(_check_j(rs, theta, j))
    return _family(rs, theta, _index_mask(theta.itheta), jmask)


def _check_convention(convention: str) -> None:
    if convention not in JPRIME_CONVENTIONS:
        raise InputError(
            f"unknown jprime convention {convention!r}; "
            f"expected one of {JPRIME_CONVENTIONS}"
        )


def _jprime(
    rs: RootSystem, theta: FormalCharacter, j: frozenset[int], convention: str
) -> frozenset[int]:
    """The index set J' that the costandard family at (theta, J) is
    induced from: itheta minus J under the adopted convention, I minus J
    under the rejected one."""
    if convention == "itheta-minus-j":
        return theta.itheta - j
    return frozenset(rs.simple_indices) - j


def costandard_character(
    rs: RootSystem,
    theta: FormalCharacter,
    j: Iterable[int],
    *,
    jprime_convention: str = "itheta-minus-j",
) -> ModuleCharacter:
    """Character of the costandard family at (theta, J).

    Induction from the parabolic on J' pairs each minimal coset
    representative w of J' with plain w^{-1}: the subgroup fixing the
    corresponding vector is indexed by the roots w^{-1} keeps positive.
    The adopted convention takes J' inside itheta; the rejected
    complement-in-I reading stays available behind the flag so sweeps
    can demonstrate where it breaks the filtration identity.
    """
    _check_convention(jprime_convention)
    jprime = _jprime(rs, theta, _check_j(rs, theta, j), jprime_convention)
    return _family(rs, theta, _index_mask(jprime), 0)


# ----------------------------------------------------------------------
# decomposition into simple characters


class Decomposition:
    """Outcome of the greedy triangular elimination.

    factors maps (theta, J) to how many copies of the simple character
    were subtracted.  A nonzero remainder means the input was not a
    nonnegative combination of simple characters; diagnostic then says
    why the loop stopped.  A mutable record: equal as its field tuple,
    and unhashable.
    """

    __slots__ = ("factors", "remainder", "diagnostic")

    def __init__(
        self,
        factors: Optional[dict[tuple[FormalCharacter, frozenset[int]], int]] = None,
        remainder: Optional[ModuleCharacter] = None,
        diagnostic: Optional[str] = None,
    ) -> None:
        self.factors = {} if factors is None else factors
        self.remainder = ModuleCharacter() if remainder is None else remainder
        self.diagnostic = diagnostic

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.factors, self.remainder, self.diagnostic) == (
            other.factors,
            other.remainder,
            other.diagnostic,
        )

    def __repr__(self) -> str:
        return (
            f"Decomposition(factors={self.factors!r}, "
            f"remainder={self.remainder!r}, diagnostic={self.diagnostic!r})"
        )

    @property
    def ok(self) -> bool:
        return not self.remainder and self.diagnostic is None


@per_system
def _supports(rs: RootSystem) -> list[int]:
    """Per element id, the mask of the simple indices its word uses: the
    least J whose standard subgroup holds the element.  Built in id
    order: the canonical word of x is that of x * s_i plus the letter i,
    i its smallest right descent, and x * s_i is shorter, so already
    filled in."""
    table = group_table(rs)
    rmul, descents = table.rmul, table.descents
    support = [0] * len(descents)
    for x, d in enumerate(descents):
        if d:
            low = d & -d
            support[x] = support[rmul[low.bit_length()][x]] | low
    return support


def _subgroup_ids(rs: RootSystem, mask: int) -> list[int]:
    """The ids of the standard subgroup on the simple indices of the
    mask, in id order: the elements whose support (`_supports`) lies
    inside it."""
    outside = ~mask
    return [x for x, support in enumerate(_supports(rs)) if not support & outside]


@per_system
def _descent_counts(rs: RootSystem) -> list[int]:
    """Per mask of simple indices, how many elements have exactly that
    mask of right descents, counted from the group table's descents
    rather than `_descent_classes`, so that the two stay independent."""
    counts = [0] * (1 << rs.rank)
    for d in group_table(rs).descents:
        counts[d] += 1
    return counts


def _candidates(
    rs: RootSystem, imask: int
) -> list[tuple[frozenset[int], int, int, tuple]]:
    """The decomposition candidates over an itheta with this mask: a tuple
    (K, p, mask of K, tie key) for each K inside itheta, p the packed
    weight (theta, w_K).  That is the id of w_K, and as w_K is an
    involution, also the bit that stands for it (`_weight_ids`).

    A candidate's up-set has a closed form: (theta, w_K) lies below
    (theta^r, v) exactly when r = 1 and v lies in W_K but is not w_K.
    With g = r u, u in W_itheta, the order asks g and v g to keep every
    positive root outside Phi_K positive.  The first makes g an element
    of W_K, so r = 1, as r is a minimal coset representative; then the
    second puts v in W_K.  Conversely u = 1 works, as W_K permutes those
    roots, and the length test leaves out only v = w_K.  (The parabolic
    factorisation w = w^K w_K; Bjorner-Brenti, Combinatorics of Coxeter
    Groups, section 2.4.)  So the up-set is the untwisted weights whose v
    lies in W_K, less the candidate: the bits x = v^{-1} of W_K
    (`_subgroup_bits`) other than p, and a candidate is maximal exactly
    when the bits present meet W_K in p alone.

    The tie key orders K by |K| descending, then lexicographically (see
    `decompose_character`).  The candidates of every K are built once per
    root system (`_every_candidate`), in `_subsets` order; an itheta
    keeps those with K inside it, which stay in that order.
    """
    outside = ~imask
    return [c for c in _every_candidate(rs) if not c[2] & outside]


@per_system
def _every_candidate(rs: RootSystem) -> list[tuple[frozenset[int], int, int, tuple]]:
    """The candidate tuple of `_candidates` for every K, in `_subsets`
    order."""
    table = group_table(rs)
    rmul, descents = table.rmul, table.descents
    cands = []
    for k in _subsets(rs.simple_indices):
        kmask = _index_mask(k)
        # w_K is the element of W_K with every index of K a right
        # descent; climbing by any ascent inside K reaches it
        w = 0
        while ascents := kmask & ~descents[w]:
            w = rmul[(ascents & -ascents).bit_length()][w]
        cands.append((k, w, kmask, (-len(k), tuple(sorted(k)))))
    return cands


def decompose_character(
    rs: RootSystem, char: ModuleCharacter, *, tie_break: int = 0
) -> Decomposition:
    """Greedy triangular elimination against the simple characters.

    Each round selects a maximal weight of longest-element shape
    (untwisted character, v = w_J with J inside itheta) and subtracts
    the simple character at (theta, J).  Maximality is taken against
    every weight still present, by the closed form of a candidate's
    up-set (`_candidates`): per base, the weights present are one bitset
    over the ids x of `_weight_ids`, and a candidate at K is maximal when
    that bitset meets W_K (`_subgroup_bits`) in the candidate alone.
    Incomparable maxima are ordered by (|J| descending, J lexicographic,
    label), ties kept in the character's insertion order; tie_break in
    {0, 1, 2} picks the first, last, or middle entry of that order, and
    results must not depend on the choice.

    A subtraction that would drive a multiplicity negative stops the
    loop, leaving the offending weights in the remainder and naming
    the missing ones in the diagnostic.  So does an empty simple
    character, which only a broken class table gives: the diagnostic
    names its (theta, J).
    """
    if tie_break not in (0, 1, 2):
        raise InputError("tie_break must be 0, 1, or 2")
    if not char:
        return Decomposition()
    if char._rs is not rs and char._rs != rs:
        raise InputError(
            f"character is over {char._rs.cartan_type}, not {rs.cartan_type}"
        )
    table = group_table(rs)
    n, inverse = len(table.elements), table.inverse
    work = []
    for base, inner in char._entries.items():
        imask = _index_mask(base.itheta)
        weights = _weight_ids(rs, imask)
        # weight p = r * |W| + v is bit x = v^{-1} when it is the weight of x
        xs = [inverse[p % n] for p in inner]
        mults = list(inner.values())
        aside = {}
        if [weights[x] for x in xs] != list(inner):
            hits = list(map(eq, map(weights.__getitem__, xs), inner))
            aside = {p: m for p, m, hit in zip(inner, mults, hits) if not hit}
            xs, mults = list(compress(xs, hits)), list(compress(mults, hits))
        extra = {}
        if sum(mults) > len(mults):
            extra = {x: m - 1 for x, m in zip(xs, mults) if m > 1}
        present = _bitset(xs, n)
        work.append([base, weights, _simple_bits(rs, imask), present, extra, aside])
    return _eliminate(rs, work, tie_break)


def _left(state: list) -> dict[int, int]:
    """The packed weights of an elimination entry still present, with
    their multiplicities."""
    _, weights, _, present, extra, aside = state
    inner = {weights[x]: 1 + extra.get(x, 0) for x in _members(present)}
    inner.update(aside)
    return inner


def _eliminate(rs: RootSystem, work: list[list], tie_break: int) -> Decomposition:
    """The elimination loop of `decompose_character` on work, one entry
    [base, weights, pieces, present, extra, aside] per base, which it
    consumes.  Bit x of the bitset present stands for the packed weight
    weights[x] (`_weight_ids`, or a list equal to it on every bit of the
    pieces), with multiplicity one more than extra[x] (no entry: one);
    aside holds the packed weights that stand for no x, with their
    multiplicities.  No simple character and no candidate's up-set holds
    those: they stay in the remainder.  pieces[mask of J] is the bitset
    of the simple character at (theta, J): the simple family
    (`_simple_bits`) for full characters, cut to W_I for their slices at
    the identity coset.

    Sorted once into tie order, the candidates give the maxima of every
    round already in that order: the stable sort of each round's maxima
    by (|J| descending, J, label) that the tie-break is defined on."""
    sub = _subgroup_bits(rs)
    factors, diagnostic, cands, keys = {}, None, [], []
    for state in work:
        base, present = state[0], state[3]
        for j, p, jmask, tie in _candidates(rs, _index_mask(base.itheta)):
            if present >> p & 1:
                cands.append((state, base, j, 1 << p, sub[jmask], jmask))
                keys.append((tie, base.label))
    cands = [cands[k] for k in sorted(range(len(cands)), key=keys.__getitem__)]
    while any(state[3] or state[5] for state in work):
        # maximal: the bits present inside W_K are the candidate's alone
        maximal = [c for c in cands if c[0][3] & c[4] == c[3]]
        if not maximal:
            left = sum(
                s[3].bit_count() + sum(s[4].values()) + sum(s[5].values()) for s in work
            )
            diagnostic = (
                "no maximal weight of longest-element shape remains; "
                f"{left} weight(s) left"
            )
            break
        pick = (0, len(maximal) - 1, len(maximal) // 2)[tie_break]
        state, base, j, _, _, jmask = maximal[pick]
        piece = state[2][jmask]
        if not piece:
            # a round that removes nothing would pick the same maximum again
            diagnostic = (
                f"the simple character at ({base!r}, J={sorted(j)}) is empty; "
                "the class table is broken"
            )
            break
        present, extra = state[3], state[4]
        if short := piece & ~present:
            weights = state[1]
            ids = sorted((weights[x] for x in _members(short)), key=_id_sort_key(rs))
            missing = [_weight_of(rs, base, p) for p in ids]
            diagnostic = (
                f"subtracting the simple character at J={sorted(j)} needs "
                f"weight(s) {missing!r} not present with enough multiplicity"
            )
            break
        # a weight of multiplicity above one stays present
        for x in [x for x in extra if piece >> x & 1]:
            if extra[x] > 1:
                extra[x] -= 1
            else:
                del extra[x]
            piece ^= 1 << x
        state[3] = present ^ piece
        key = (base, j)
        factors[key] = factors.get(key, 0) + 1
    left = {s[0]: _left(s) for s in work if s[3] or s[5]}
    return Decomposition(factors, ModuleCharacter._of(rs, left), diagnostic)


# ----------------------------------------------------------------------
# verification sweeps


def _subsets(items: Iterable[int]) -> list[frozenset[int]]:
    base = sorted(items)
    out = [frozenset()]
    for x in base:
        out += [s | {x} for s in out]
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _weight_diff(a: ModuleCharacter, b: ModuleCharacter) -> dict[str, int]:
    """Multiplicity differences a - b, keyed by weight repr, in `items`
    order within each torus character."""
    diff: dict[str, int] = {}
    if a == b:
        return diff
    rs = a._rs or b._rs
    for base in {**a._entries, **b._entries}:
        x, y = a._entries.get(base, {}), b._entries.get(base, {})
        for p in sorted(x.keys() | y.keys(), key=_id_sort_key(rs)):
            if x.get(p, 0) != y.get(p, 0):
                diff[repr(_weight_of(rs, base, p))] = x.get(p, 0) - y.get(p, 0)
    return diff


def _decomposition_record(
    check: str, params: dict, dec: Decomposition, want: dict
) -> dict:
    """The record of one decomposition expected to return exactly want;
    it carries params itself, not a copy."""
    ok = dec.ok and dec.factors == want
    return {
        "check": check,
        "params": params,
        "passed": ok,
        "counterexample": None
        if ok
        else {
            "factors": sorted((sorted(k), m) for (_, k), m in dec.factors.items()),
            "remainder": dec.remainder.total(),
            "diagnostic": dec.diagnostic,
        },
    }


def verify_filtration(
    rs: RootSystem,
    theta: FormalCharacter,
    *,
    jprime_convention: str = "itheta-minus-j",
) -> list[dict]:
    """Check the costandard filtration identities for every J in itheta.

    Per J: the costandard character equals the sum of the simple
    characters over all subsets of J (as multisets); the representative
    counts satisfy the matching counting identity (a simple character
    has one weight of multiplicity one per representative, so its total
    is their count); decomposing the costandard character returns exactly
    the subsets of J with multiplicity one; decomposing the induced
    character returns exactly the supersets of J inside itheta with
    multiplicity one.  Every family is one bitset over the group
    (`_family_bits`): the simple characters sum to the costandard one
    exactly when they are pairwise disjoint (their sizes add up to the
    size of their union) and their union is the costandard family.
    Weights are built only to name a failure.

    Every family here is a union of right-descent classes (see the note
    above `_family_bits`).  Under the adopted convention the costandard
    family at J, the x with D_R(x) & (itheta - J) empty, is the disjoint
    union of the simple ones at the subsets K of J, the x with
    D_R(x) & itheta = K.  The filtration-multiset record reads both sides
    from the same classes, grouped by d & itheta, so it passes by
    construction under the adopted convention, whatever the classes: it
    shows only that the two descent tests agree, and fails only under
    the rejected convention.  The counting record compares with the
    descent histogram (`_descent_counts`) and the decompositions with
    the subgroup bitsets (`_subgroup_bits`), so a wrong class table
    fails those; the tests pin the definition through w * w_J by
    multiplying in the group.

    Under the adopted convention the checks run on the slices of the
    families at the identity coset, each family ANDed with W_I (the note
    above `_family_bits`), the counting identity's right side being
    |W:W_I| times the slice counts; under the rejected one, on the full
    families.

    Returns one JSON-ready record per (J, check).
    """
    _check_itheta(rs, theta)
    _check_convention(jprime_convention)
    table = group_table(rs)
    n = len(table.elements)
    imask = _index_mask(theta.itheta)
    if jprime_convention == "itheta-minus-j":
        # bit x of W_I stands for the untwisted weight (theta, x^{-1})
        within, weights = _subgroup_bits(rs)[imask], table.inverse
    else:
        within, weights = (1 << n) - 1, _weight_ids(rs, imask)
    copies = n // within.bit_count()
    pieces = [bits & within for bits in _simple_bits(rs, imask)]
    counts = _descent_counts(rs)
    every_k = _subsets(theta.itheta)
    records = []
    tname, itheta = str(rs.cartan_type), sorted(theta.itheta)
    for j in every_k:
        # the four records of this J share one params object
        params = {
            "type": tname,
            "itheta": itheta,
            "j": sorted(j),
            "jprime_convention": jprime_convention,
        }
        jmask = _index_mask(j)
        jpmask = _index_mask(_jprime(rs, theta, j, jprime_convention))
        nabla = _family_bits(rs, jpmask, 0) & within
        # the simple families at the subsets K of J
        simples = [bits for k, bits in enumerate(pieces) if not k & ~jmask]
        size = sum(bits.bit_count() for bits in simples)
        diff = None
        if size != nabla.bit_count() or reduce(or_, simples) != nabla:
            nabla_ids = [weights[x] for x in _members(nabla)]
            simple_ids = [weights[x] for bits in simples for x in _members(bits)]
            diff = _weight_diff(
                ModuleCharacter._of(rs, {theta: dict.fromkeys(nabla_ids, 1)}),
                ModuleCharacter._of(rs, {theta: Counter(simple_ids)}),
            )
        records.append(
            {
                "check": "filtration-multiset",
                "params": params,
                "passed": not diff,
                "counterexample": {"weight_diff": diff} if diff else None,
            }
        )

        # the minimal representatives of W/W_J', by their right descents
        lhs = sum(c for d, c in enumerate(counts) if not d & jpmask)
        rhs = copies * size
        records.append(
            {
                "check": "filtration-counting",
                "params": params,
                "passed": lhs == rhs,
                "counterexample": None if lhs == rhs else {"lhs": lhs, "rhs": rhs},
            }
        )

        induced = _family_bits(rs, jmask, jmask) & within
        for check, bits, factors in (
            ("costandard-decomposition", nabla, [k for k in every_k if k <= j]),
            ("projective-pattern", induced, [k for k in every_k if j <= k]),
        ):
            dec = _eliminate(rs, [[theta, weights, pieces, bits, {}, {}]], 0)
            want = {(theta, k): 1 for k in factors}
            records.append(_decomposition_record(check, params, dec, want))
    return records


def _sweep_order(rs: RootSystem, mins: list[int]) -> list[int]:
    """The element ids x in `items` order of their weights (mins[x],
    x^{-1}) (`_id_sort_key`)."""
    table = group_table(rs)
    n, inverse, rank = len(table.elements), table.inverse, _word_rank(rs)
    keys = [rank[r] * n + rank[inverse[x]] for x, r in enumerate(mins)]
    return sorted(range(n), key=keys.__getitem__)


def _universe_ids(rs: RootSystem, theta: FormalCharacter) -> list[int]:
    """The packed weights of the costandard sweep of theta, in `items`
    order.  Every costandard family of the sweep lies inside the one at
    J = itheta: there J' is empty, so its representatives are all of W,
    and a representative's weight does not depend on J.  So the universe
    is the weight (r, x^{-1}) of every element x, r the minimum of x's
    coset (`_coset_parts`), enumerated directly: no per-itheta table is
    built or kept for it."""
    table = group_table(rs)
    n, inverse = len(table.elements), table.inverse
    mins = _coset_mins(rs, _index_mask(theta.itheta))
    return [mins[x] * n + inverse[x] for x in _sweep_order(rs, mins)]


def weight_universe(rs: RootSystem, theta: FormalCharacter) -> tuple[Weight, ...]:
    """Every weight appearing across the costandard sweep of theta."""
    return tuple(_weight_of(rs, theta, p) for p in _universe_ids(rs, theta))


def _order_rows(
    rs: RootSystem, theta: FormalCharacter
) -> tuple[list[int], list[int]]:
    """The sweep universe of theta (`_universe_ids`) and the weight order
    on it as one bitset row per weight: bit b of row a is set exactly
    when universe[a] lies below universe[b] (`weight_lt`).

    Each weight gives one mask over the positive roots: its kept roots
    moved by the inverse of its twist, K[w] & K[v * w] for the weight
    (w, v), with K the kept-root masks of `kept_masks`.  As the lower
    weight these are its pulled roots, as the upper one its target mask.
    The column of a root holds the weights whose target mask contains it,
    so the weights that a stabilizer element v carries the pulled roots
    of a into are the meet (AND) of the columns of their images under v.
    Row a joins these meets over v in W_I (I = itheta), among the weights
    whose second component is shorter.

    The universe weight of x = r * u (`_coset_parts`) is (r, x^{-1}), so
    its mask is K[r] & K[u^{-1}], and it splits in two: A(r), the part
    outside the roots Phi_I of W_I, is that of K[r], as u^{-1} permutes
    the positive roots outside Phi_I; B(u), the part inside, is that of
    K[u^{-1}], as r inverts no root of Phi_I (Björner–Brenti §2.4).  No
    v in W_I inverts a root outside Phi_I, so v meets the mask only when
    it inverts no root of B(u): the v of U(u).  The meet over the whole
    mask is meetA(r, v) & meetB(u, v), the meets over A(r) and B(u), so

        row(x) = shorter(len x) & OR over v in U(u) of
                 meetA(r, v) & meetB(u, v).

    The meets are memoised within the call: meetA once per (r, v), and
    meetB once per (u, v in U(u)), each from a longer element's by one
    AND.  When r = s * r' is a longer minimum, A(r') is A(r) and one root;
    when u' = u * s is longer, with s in I, B(u) is B(u') and one root,
    and U(u) is U(u') less the v that invert it.  So meetA runs down from
    the longest minimum, and meetB down a spanning tree of W_I from w_I,
    depth first, holding the meets of the u on the current path only.
    No row is read from another row.
    """
    table = group_table(rs)
    n, inverse, words = len(table.elements), table.inverse, table.words
    rmul, descents = table.rmul, table.descents
    imask = _index_mask(theta.itheta)
    mins, parts = _coset_parts(rs, imask)
    order = _sweep_order(rs, mins)
    universe = [mins[x] * n + inverse[x] for x in order]
    kept = kept_masks(rs)
    n_roots = len(rs.positive_roots)
    full = (1 << n_roots) - 1
    subgroup = _subgroup_ids(rs, imask)
    size = len(subgroup)
    inside = full ^ kept[subgroup[-1]]  # Phi_I: the roots w_I inverts
    slot = dict(zip(subgroup, range(size)))

    # the weights of each u in W_I, as positions and as one bitset, and
    # of each length of x
    places: list[list[int]] = [[] for _ in range(size)]
    u_bits = [0] * size
    by_length = [0] * (len(words[-1]) + 1)
    for b, x in enumerate(order):
        k = slot[parts[x]]
        places[k].append(b)
        bit = 1 << b
        u_bits[k] |= bit
        by_length[len(words[x])] |= bit
    # shorter[l]: the weights of x shorter than l
    shorter = list(accumulate(by_length, or_, initial=0))
    # the universe runs over the minima r in blocks of |W_I| weights
    reps = [mins[x] for x in order[::size]]
    block = (1 << size) - 1
    columns = [0] * n_roots
    for root in range(n_roots):
        bit = 1 << root
        if bit & inside:
            pick = [u_bits[k] for k, u in enumerate(subgroup) if kept[inverse[u]] & bit]
        else:
            pick = [block << j * size for j, r in enumerate(reps) if kept[r] & bit]
        columns[root] = reduce(or_, pick, 0)
    del u_bits, pick  # |W_I| ints of |W| bits: not kept through the meets
    # per root, the column of its image under each v in W_I (none when
    # v inverts the root, which no meet reads)
    by_root = list(
        zip(*([columns[j] if j >= 0 else 0 for j in table.elements[v].perm] for v in subgroup))
    )
    inverted = [full ^ kept[v] for v in subgroup]
    ones = (1 << len(universe)) - 1

    # meetA(r, v) for each v in W_I, longest minimum first: when s * r is a
    # longer minimum, A(r) is A(s * r) and the one root r keeps and s * r not
    meet_a = {}
    for r in sorted(reps, reverse=True):
        left = inverse[r]
        for i in rs.simple_indices:
            up = inverse[rmul[i][left]]
            if up > r and mins[up] == up:
                step = by_root[(kept[r] & ~kept[up]).bit_length() - 1]
                meet_a[r] = list(map(and_, meet_a[up], step))
                break
        else:
            meet_a[r] = [ones] * size  # the longest minimum: A(r) is empty

    # a spanning tree of W_I: the parent of u is u * s for its least right
    # ascent s in I, and B(u) is B(u * s) and the root of the bit
    children: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for k, u in enumerate(subgroup):
        if up := imask & ~descents[u]:
            parent = rmul[(up & -up).bit_length()][u]
            bit = kept[inverse[u]] & ~kept[inverse[parent]]
            children[slot[parent]].append((k, bit))
    rows = [0] * len(universe)
    # depth first from w_I, whose B is empty and whose U is all of W_I; a
    # child's meets are made when it is popped, so only those of the u on
    # the current path are held
    stack = [(size - 1, 0, list(range(size)), [ones] * size)]
    while stack:
        k, bit, ks, meet_b = stack.pop()
        if bit:
            step = by_root[bit.bit_length() - 1]
            meet_b = [m & step[h] for h, m in zip(ks, meet_b) if not inverted[h] & bit]
            ks = [h for h in ks if not inverted[h] & bit]
        for b in places[k]:
            if below := shorter[len(words[order[b]])]:
                meets = map(and_, map(meet_a[universe[b] // n].__getitem__, ks), meet_b)
                rows[b] = below & reduce(or_, meets)
        stack += [(c, bit, ks, meet_b) for c, bit in children[k]]
    return universe, rows


def _first_broken_chain(rows: list[int]) -> Optional[tuple[int, int, int]]:
    """The first a < b < c in universe order with c not above a (a == c
    included), walking every edge a < b: Warshall's bitset form."""
    for a, row in enumerate(rows):
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            missing = rows[b] & ~row
            if missing:
                return a, b, (missing & -missing).bit_length() - 1
    return None


def _transitive_on_covers(rows: list[int]) -> bool:
    """Transitivity of an irreflexive bitset relation, tested on few
    edges: each a walks its row from the top bit, tests row b inside
    row a for each b it reaches, then drops row b from what is left.

    A dropped weight c lies in a tested row b, and that row is a proper
    subset of row a (b is in row a, not in its own).  So by induction on
    the size of the row, once every test passes, row c lies inside row b
    and hence inside row a.  The order of the walk does not matter; top
    bit first meets the nearest weights, whose rows cover the most.
    """
    for row in rows:
        rest = row
        while rest:
            b = rest.bit_length() - 1
            above = rows[b]
            if above & ~row:
                return False
            rest &= ~(above | 1 << b)
    return True


def _chain_count(rows: list[int]) -> int:
    """The number of chains a < b < c, the sum of indeg(b) * |row b|, without
    walking the edges.  Bit-sliced column counters hold the in-degrees
    (bit b of counts[j] is bit j of the in-degree of b; each row is added
    with a carry-save ripple), and sliced masks the row sizes (bit b of
    sizes[k] is bit k of |row b|), so the sum is over pairs of slices."""
    counts: list[int] = []
    for carry in rows:
        for j, count in enumerate(counts):
            if not carry:
                break
            counts[j], carry = count ^ carry, count & carry
        if carry:
            counts.append(carry)
    sizes = [0] * len(rows).bit_length()
    for b, row in enumerate(rows):
        size = row.bit_count()
        for k in range(size.bit_length()):
            if size >> k & 1:
                sizes[k] |= 1 << b
    return sum(
        (count & size).bit_count() << (j + k)
        for j, count in enumerate(counts)
        for k, size in enumerate(sizes)
    )


def _order_verdict(
    rows: list[int], params: dict, name: Callable[[int], str]
) -> list[dict]:
    """Irreflexivity and transitivity records of a bitset relation.

    Irreflexive means no diagonal bit.  Transitive means row b lies
    inside row a for every b in row a.  On an irreflexive relation that
    is decided on the covers (`_transitive_on_covers`); a diagonal bit or
    a failed test falls back to the walk over every edge, whose first
    failing chain a < b < c in universe order is the witness, a == c
    included.  Every chain a < b < c is counted (`_chain_count`).  name(k)
    is the text that names universe element k in a counterexample.  The
    irreflexive record carries params itself, and the transitive one a
    new dict over its values.
    """
    refl = [a for a, row in enumerate(rows) if row >> a & 1]
    violation = None
    if refl or not _transitive_on_covers(rows):
        violation = _first_broken_chain(rows)
    return [
        {
            "check": "order-irreflexive",
            "params": params,
            "passed": not refl,
            "counterexample": {"weight": name(refl[0])} if refl else None,
        },
        {
            "check": "order-transitive",
            "params": {
                **params,
                "mode": "exhaustive",
                "triples_checked": _chain_count(rows),
            },
            "passed": violation is None,
            "counterexample": (
                None if violation is None else {"triple": [name(x) for x in violation]}
            ),
        },
    ]


def order_axiom_records(rs: RootSystem, theta: FormalCharacter) -> list[dict]:
    """Irreflexivity and transitivity of the weight order on the sweep
    universe of theta, checked exhaustively on its bitset relation."""
    universe, rows = _order_rows(rs, theta)
    params = {"type": str(rs.cartan_type), "itheta": sorted(theta.itheta)}
    return _order_verdict(
        rows, params, lambda k: repr(_weight_of(rs, theta, universe[k]))
    )
