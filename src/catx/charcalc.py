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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable, Mapping, Optional

from catx.errors import InputError
from catx.rootsystem import RootSystem
from catx.weyl import (
    WeylElement,
    coset_minimize,
    longest_element,
    min_coset_reps,
    weyl_subgroup,
)

STABILIZER_MODEL = "standard subgroup on itheta (declared, not computed)"

JPRIME_CONVENTIONS = ("itheta-minus-j", "i-minus-j")


@dataclass(frozen=True)
class FormalCharacter:
    """A torus character: a label plus its trivial simple indices.

    Equal labels are required to carry equal itheta sets; equality
    compares both fields, so respecting that contract makes the label
    alone decisive.
    """

    label: str
    itheta: frozenset[int]

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


@dataclass(frozen=True)
class TwistedCharacter:
    """theta twisted by a group element, stored by its canonical coset rep.

    The representative must be the minimal-length element of its left
    coset modulo the stabilizer subgroup; construct through `of` to
    canonicalize an arbitrary element.
    """

    base: FormalCharacter
    coset_rep: WeylElement

    def __post_init__(self) -> None:
        rep = self.coset_rep
        rs = rep.rs
        for i in sorted(_check_itheta(rs, self.base)):
            if rep.perm[rs.simple_root_index(i)] < 0:
                raise InputError(
                    f"coset representative {rep!r} is not canonical for "
                    f"itheta={sorted(self.base.itheta)}"
                )

    @classmethod
    def of(cls, base: FormalCharacter, w: WeylElement) -> "TwistedCharacter":
        return cls(base, coset_minimize(w, base.itheta))

    @property
    def is_untwisted(self) -> bool:
        return self.coset_rep.is_identity

    def __repr__(self) -> str:
        return f"{self.base!r}^{self.coset_rep!r}"


def canonical_twist(tc: TwistedCharacter, v: WeylElement) -> TwistedCharacter:
    """Twist by a further element; twists compose through left products."""
    return TwistedCharacter.of(tc.base, v * tc.coset_rep)


@dataclass(frozen=True)
class Weight:
    """A twisted character paired with a group element.

    The combinatorial content of the second component is the set of
    positive roots it keeps positive.
    """

    tchar: TwistedCharacter
    v: WeylElement

    def __repr__(self) -> str:
        return f"({self.tchar!r}, {self.v!r})"


def weight_sort_key(w: Weight):
    rep_word = w.tchar.coset_rep.word
    v_word = w.v.word
    return (
        w.tchar.base.label,
        tuple(sorted(w.tchar.base.itheta)),
        len(rep_word),
        rep_word,
        len(v_word),
        v_word,
    )


class ModuleCharacter:
    """A finite multiset of weights with positive multiplicities."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        data: dict[Weight, int] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for weight, mult in items:
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity for {weight!r} must be a positive int")
            data[weight] = data.get(weight, 0) + mult
        self._entries = data

    @property
    def mapping(self) -> dict[Weight, int]:
        return dict(self._entries)

    def items(self) -> list[tuple[Weight, int]]:
        return sorted(self._entries.items(), key=lambda kv: weight_sort_key(kv[0]))

    def weights(self) -> list[Weight]:
        return [w for w, _ in self.items()]

    def get(self, weight: Weight) -> int:
        return self._entries.get(weight, 0)

    def total(self) -> int:
        return sum(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other: "ModuleCharacter") -> "ModuleCharacter":
        out = dict(self._entries)
        for w, m in other._entries.items():
            out[w] = out.get(w, 0) + m
        return ModuleCharacter(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModuleCharacter) and self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"{w!r}:{m}" for w, m in self.items())
        return f"ModuleCharacter({{{body}}})"

    @staticmethod
    def sum(pieces: Iterable["ModuleCharacter"]) -> "ModuleCharacter":
        out: dict[Weight, int] = {}
        for piece in pieces:
            for w, m in piece._entries.items():
                out[w] = out.get(w, 0) + m
        return ModuleCharacter(out)


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

    This is the readable pairwise definition.  The decomposition and the
    order check read the bitset rows of `_order_rows` instead, and the
    tests hold the two equal.
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


def _character(
    rs: RootSystem, theta: FormalCharacter, reps: Iterable[WeylElement], wj: WeylElement
) -> ModuleCharacter:
    out: dict[Weight, int] = {}
    for w in reps:
        weight = Weight(TwistedCharacter.of(theta, w), wj * w.inverse())
        out[weight] = out.get(weight, 0) + 1
    return ModuleCharacter(out)


def induced_character(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> ModuleCharacter:
    """Character of the full induced family at (theta, J).

    One weight per minimal coset representative w: theta twisted by w,
    paired with w_J w^{-1}.
    """
    jj = _check_j(rs, theta, j)
    return _character(rs, theta, min_coset_reps(rs, jj), longest_element(rs, jj))


def simple_coset_reps(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> tuple[WeylElement, ...]:
    """The representatives indexing the simple character at (theta, J).

    Keeps w in the minimal coset representatives whose product with w_J
    has every right descent inside J or outside itheta.
    """
    jj = _check_j(rs, theta, j)
    allowed = jj | (frozenset(rs.simple_indices) - theta.itheta)
    wj = longest_element(rs, jj)
    return tuple(
        w for w in min_coset_reps(rs, jj) if (w * wj).descent_set() <= allowed
    )


def simple_character(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> ModuleCharacter:
    """Character of the simple quotient at (theta, J)."""
    jj = _check_j(rs, theta, j)
    return _character(rs, theta, simple_coset_reps(rs, theta, jj), longest_element(rs, jj))


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
    if jprime_convention not in JPRIME_CONVENTIONS:
        raise InputError(
            f"unknown jprime convention {jprime_convention!r}; "
            f"expected one of {JPRIME_CONVENTIONS}"
        )
    jprime = _jprime(rs, theta, _check_j(rs, theta, j), jprime_convention)
    return _character(
        rs, theta, min_coset_reps(rs, jprime), WeylElement.identity(rs)
    )


# ----------------------------------------------------------------------
# decomposition into simple characters


@dataclass
class Decomposition:
    """Outcome of the greedy triangular elimination.

    factors maps (theta, J) to how many copies of the simple character
    were subtracted.  A nonzero remainder means the input was not a
    nonnegative combination of simple characters; diagnostic then says
    why the loop stopped.
    """

    factors: dict[tuple[FormalCharacter, frozenset[int]], int] = field(default_factory=dict)
    remainder: ModuleCharacter = field(default_factory=ModuleCharacter)
    diagnostic: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.remainder and self.diagnostic is None


def _candidate_label(rs: RootSystem, weight: Weight) -> Optional[frozenset[int]]:
    """J such that the weight reads (untwisted theta, w_J), if any."""
    if not weight.tchar.is_untwisted:
        return None
    j = weight.v.descent_set()
    if not j <= weight.tchar.base.itheta:
        return None
    if weight.v != longest_element(rs, j):
        return None
    return j


def decompose_character(
    rs: RootSystem, char: ModuleCharacter, *, tie_break: int = 0
) -> Decomposition:
    """Greedy triangular elimination against the simple characters.

    Each round selects a maximal weight of longest-element shape
    (untwisted character, v = w_J with J inside itheta) and subtracts
    the simple character at (theta, J).  Maximality is taken against
    every weight still present: the order rows of the candidates
    against the character's own weights are built once (subtraction
    never adds a weight), a bitmask tracks the weights still present,
    and a candidate is maximal when it is present and its row misses
    that mask.  Incomparable maxima are ordered by (|J| descending, J
    lexicographic, label), ties kept in the character's insertion
    order; tie_break in {0, 1, 2} picks the first, last, or middle
    entry of that order, and results must not depend on the choice.

    A subtraction that would drive a multiplicity negative stops the
    loop, leaving the offending weights in the remainder and naming
    the missing ones in the diagnostic.
    """
    if tie_break not in (0, 1, 2):
        raise InputError("tie_break must be 0, 1, or 2")
    work = char.mapping
    weights = tuple(work)
    bit = {weight: 1 << k for k, weight in enumerate(weights)}
    cands = []
    for weight in weights:
        j = _candidate_label(rs, weight)
        if j is not None:
            cands.append((bit[weight], weight, j))
    rows = _order_rows(weights, [weight for _, weight, _ in cands])
    present = (1 << len(weights)) - 1
    out = Decomposition()
    while work:
        maximal = [
            (weight, j)
            for (own, weight, j), row in zip(cands, rows)
            if own & present and not row & present
        ]
        if not maximal:
            out.diagnostic = (
                "no maximal weight of longest-element shape remains; "
                f"{sum(work.values())} weight(s) left"
            )
            break
        maximal.sort(
            key=lambda wj: (-len(wj[1]), tuple(sorted(wj[1])), wj[0].tchar.base.label)
        )
        pick = {0: 0, 1: len(maximal) - 1, 2: len(maximal) // 2}[tie_break]
        weight, j = maximal[pick]
        piece = simple_character(rs, weight.tchar.base, j)
        missing = [pw for pw, pm in piece.items() if work.get(pw, 0) < pm]
        if missing:
            out.diagnostic = (
                f"subtracting the simple character at J={sorted(j)} needs "
                f"weight(s) {missing!r} not present with enough multiplicity"
            )
            break
        for pw, pm in piece.items():
            left = work[pw] - pm
            if left:
                work[pw] = left
            else:
                del work[pw]
                present &= ~bit[pw]
        key = (weight.tchar.base, j)
        out.factors[key] = out.factors.get(key, 0) + 1
    out.remainder = ModuleCharacter(work)
    return out


# ----------------------------------------------------------------------
# verification sweeps


def _subsets(items: Iterable[int]) -> list[frozenset[int]]:
    base = sorted(items)
    out = [frozenset()]
    for x in base:
        out += [s | {x} for s in out]
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _weight_diff(a: ModuleCharacter, b: ModuleCharacter) -> dict[str, int]:
    diff: dict[str, int] = {}
    for w in set(a.mapping) | set(b.mapping):
        if a.get(w) != b.get(w):
            diff[repr(w)] = a.get(w) - b.get(w)
    return diff


def verify_filtration(
    rs: RootSystem,
    theta: FormalCharacter,
    *,
    jprime_convention: str = "itheta-minus-j",
) -> list[dict]:
    """Check the costandard filtration identities for every J in itheta.

    Per J: the costandard character equals the sum of the simple
    characters over all subsets of J (as multisets); the representative
    counts satisfy the matching counting identity; decomposing the
    costandard character returns exactly the subsets of J with
    multiplicity one; decomposing the induced character returns exactly
    the supersets of J inside itheta with multiplicity one.

    Returns one JSON-ready record per (J, check).
    """
    _check_itheta(rs, theta)
    records = []
    tname = str(rs.cartan_type)
    for j in _subsets(theta.itheta):
        params = {
            "type": tname,
            "itheta": sorted(theta.itheta),
            "j": sorted(j),
            "jprime_convention": jprime_convention,
        }
        nabla = costandard_character(rs, theta, j, jprime_convention=jprime_convention)
        total = ModuleCharacter.sum(simple_character(rs, theta, k) for k in _subsets(j))
        diff = _weight_diff(nabla, total)
        records.append(
            {
                "check": "filtration-multiset",
                "params": dict(params),
                "passed": not diff,
                "counterexample": {"weight_diff": diff} if diff else None,
            }
        )

        lhs = len(min_coset_reps(rs, _jprime(rs, theta, j, jprime_convention)))
        rhs = sum(len(simple_coset_reps(rs, theta, k)) for k in _subsets(j))
        records.append(
            {
                "check": "filtration-counting",
                "params": dict(params),
                "passed": lhs == rhs,
                "counterexample": None if lhs == rhs else {"lhs": lhs, "rhs": rhs},
            }
        )

        dec = decompose_character(rs, nabla)
        want = {(theta, k): 1 for k in _subsets(j)}
        ok = dec.ok and dec.factors == want
        records.append(
            {
                "check": "costandard-decomposition",
                "params": dict(params),
                "passed": ok,
                "counterexample": None
                if ok
                else {
                    "factors": sorted(
                        (sorted(k), m) for (_, k), m in dec.factors.items()
                    ),
                    "remainder": dec.remainder.total(),
                    "diagnostic": dec.diagnostic,
                },
            }
        )

        dec_m = decompose_character(rs, induced_character(rs, theta, j))
        want_m = {(theta, k): 1 for k in _subsets(theta.itheta) if j <= k}
        ok_m = dec_m.ok and dec_m.factors == want_m
        records.append(
            {
                "check": "projective-pattern",
                "params": dict(params),
                "passed": ok_m,
                "counterexample": None
                if ok_m
                else {
                    "factors": sorted(
                        (sorted(k), m) for (_, k), m in dec_m.factors.items()
                    ),
                    "remainder": dec_m.remainder.total(),
                    "diagnostic": dec_m.diagnostic,
                },
            }
        )
    return records


def weight_universe(rs: RootSystem, theta: FormalCharacter) -> tuple[Weight, ...]:
    """Every weight appearing across the costandard sweep of theta."""
    seen: set[Weight] = set()
    for j in _subsets(theta.itheta):
        seen.update(costandard_character(rs, theta, j).mapping)
    return tuple(sorted(seen, key=weight_sort_key))


def _order_rows(
    universe: tuple[Weight, ...], _sources: Optional[Iterable[Weight]] = None
) -> list[int]:
    """The weight order on a universe of weights as one bitset row per
    source weight: bit b of row a is set exactly when
    weight_lt(sources[a], universe[b]).  The sources default to the
    universe itself; `decompose_character` passes its candidates.

    The column of a root holds the weights whose target mask contains
    it, so the weights that u carries the pulled roots of a into are the
    intersection of the columns of their images.  Row a joins that over
    the stabilizer elements u, among the shorter weights over a's
    character, and stops once it holds all of them.  An element that
    sends a pulled root outside every target mask is skipped with one
    mask test.
    """
    n_roots = 2 * len(universe[0].v.perm) if universe else 0
    columns = {1 << r: 0 for r in range(n_roots)}
    by_length: dict[tuple[FormalCharacter, int], int] = {}
    for b, w in enumerate(universe):
        bit = 1 << b
        target = _target_mask(w)
        for root in columns:
            if root & target:
                columns[root] |= bit
        key = (w.tchar.base, w.v.length)
        by_length[key] = by_length.get(key, 0) | bit
    # per stabilizer element: its images, and the roots it sends outside
    # every target mask
    reach = sum(root for root, weights in columns.items() if weights)
    systems = {w.tchar.base: w.v.rs for w in universe}
    stabilizers = {
        base: [
            (u.image_bits, sum(1 << r for r, x in enumerate(u.image_bits) if not x & reach))
            for u in weyl_subgroup(rs, base.itheta)
        ]
        for base, rs in systems.items()
    }
    column = columns.__getitem__
    rows = []
    for a in universe if _sources is None else _sources:
        base, length = a.tchar.base, a.v.length
        shorter = sum(m for (c, n), m in by_length.items() if c == base and n < length)
        row = 0
        pulled = _pulled_roots(a)
        pulled_mask = sum(1 << r for r in pulled)
        for images, missed in stabilizers[base] if shorter else ():
            if pulled_mask & missed:
                continue
            fits = map(column, map(images.__getitem__, pulled))
            row |= reduce(and_, fits, shorter & ~row)
            if row == shorter:
                break
        rows.append(row)
    return rows


def _order_verdict(
    universe: tuple[Weight, ...], rows: list[int], params: dict
) -> list[dict]:
    """Irreflexivity and transitivity records of a bitset relation.

    Irreflexive means no diagonal bit.  Transitive means row b lies
    inside row a for every b in row a (Warshall's bitset form); the
    first failing chain a < b < c in universe order is the witness,
    a == c included.  Every chain a < b < c is counted.
    """
    n = len(universe)
    refl = [universe[a] for a in range(n) if rows[a] >> a & 1]
    violation = None
    checked = 0
    for a in range(n):
        rest = rows[a]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            checked += rows[b].bit_count()
            missing = rows[b] & ~rows[a]
            if missing and violation is None:
                c = (missing & -missing).bit_length() - 1
                violation = (universe[a], universe[b], universe[c])
    return [
        {
            "check": "order-irreflexive",
            "params": dict(params),
            "passed": not refl,
            "counterexample": {"weight": repr(refl[0])} if refl else None,
        },
        {
            "check": "order-transitive",
            "params": {**params, "mode": "exhaustive", "triples_checked": checked},
            "passed": violation is None,
            "counterexample": (
                None if violation is None else {"triple": [repr(x) for x in violation]}
            ),
        },
    ]


def order_axiom_records(rs: RootSystem, theta: FormalCharacter) -> list[dict]:
    """Irreflexivity and transitivity of the weight order on the sweep
    universe of theta, checked exhaustively on its bitset relation."""
    universe = weight_universe(rs, theta)
    params = {"type": str(rs.cartan_type), "itheta": sorted(theta.itheta)}
    return _order_verdict(universe, _order_rows(universe), params)
