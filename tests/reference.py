"""Readable reference helpers that only the tests use.

The root-system ones read roots as coordinate tuples.  Most others
restate, on `Weight` and `WeylElement` objects, an order or a
construction that `catx.charcalc` computes on packed integer ids.  The
incidence-algebra ones restate, on sets of (Y, Z) frozenset pairs, the
checks that `catx.incidence` runs on bitset rows.
"""

from fractions import Fraction as Q
from typing import Iterable

from catx.charcalc import (
    FormalCharacter,
    TwistedCharacter,
    Weight,
    _check_j,
    _class_ids,
    _family_ids,
)
from catx.incidence import (
    AlgebraModule,
    IncidenceAlgebra,
    Pair,
    Subset,
    _HomSpace,
    interval_module,
    subset_key,
)
from catx.errors import InputError
from catx.rootsystem import Root, RootSystem
from catx.weyl import WeylElement, _index_mask, group_table


def root_string(rs: RootSystem, alpha: Root, beta: Root) -> frozenset[tuple[int, int]]:
    """All (m, n) with m, n >= 1 such that m*alpha + n*beta is a root.

    Both arguments must be distinct positive roots.  Any such
    combination has all-nonnegative coordinates, so membership is
    tested against the positive roots only, with the loop bounded
    by the maximal root height.
    """
    a, b = tuple(alpha), tuple(beta)
    if not rs.is_positive_root(a) or not rs.is_positive_root(b):
        raise InputError("root_string arguments must be positive roots")
    if a == b:
        raise InputError("root_string arguments must be distinct")
    ha, hb = sum(a), sum(b)
    top = max(map(sum, rs.positive_roots))
    out = set()
    m = 1
    while m * ha + hb <= top:
        n = 1
        while m * ha + n * hb <= top:
            if rs.is_positive_root(tuple(m * x + n * y for x, y in zip(a, b))):
                out.add((m, n))
            n += 1
        m += 1
    return frozenset(out)


def is_closed_subset(rs: RootSystem, subset: Iterable[Root]) -> bool:
    """True when a subset of positive roots is closed under addition:
    whenever two members sum to a root, that sum is also a member."""
    chosen = {rs.positive_index(root) for root in subset}
    return all(
        k in chosen for i, j, k in rs.sum_triples() if i in chosen and j in chosen
    )


def inverted_roots(w: WeylElement) -> frozenset[Root]:
    """The positive roots that w sends negative."""
    roots = w.rs.positive_roots
    return frozenset(roots[k] for k, j in enumerate(w.perm) if j < 0)


def preserved_roots(w: WeylElement) -> frozenset[Root]:
    """The positive roots that w keeps positive."""
    roots = w.rs.positive_roots
    return frozenset(roots[k] for k, j in enumerate(w.perm) if j >= 0)


def canonical_twist(tc: TwistedCharacter, v: WeylElement) -> TwistedCharacter:
    """Twist by a further element; twists compose through left products."""
    return TwistedCharacter.of(tc.base, v * tc.coset_rep)


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


def simple_coset_reps(
    rs: RootSystem, theta: FormalCharacter, j: Iterable[int]
) -> tuple[WeylElement, ...]:
    """The representatives indexing the simple character at (theta, J).

    Keeps w in the minimal coset representatives whose product with w_J
    has every right descent inside J or outside itheta: the minima under
    J of the tops x of the simple character's weights, in id order.
    """
    jj = _check_j(rs, theta, j)
    table = group_table(rs)
    n, inverse, jmask = len(table.elements), table.inverse, _index_mask(jj)
    imask = _index_mask(theta.itheta)
    simple = _family_ids(_class_ids(rs, imask), imask, jmask)
    reps = [table.minimize(inverse[p % n], jmask) for p in simple]
    return tuple(table.elements[w] for w in sorted(reps))


# ----------------------------------------------------------------------
# the incidence algebra on frozenset pairs


def _pair_key(p: Pair):
    return subset_key(p[0]) + subset_key(p[1])


def pair_basis(a: IncidenceAlgebra) -> tuple[Pair, ...]:
    """The containment pairs, sorted into the (|Y|, lex Y, |Z|, lex Z) order."""
    return tuple(
        sorted(((y, z) for y in a.subsets for z in a.subsets if y <= z), key=_pair_key)
    )


def _pair_product(s: Iterable[Pair], t: Iterable[Pair]) -> set[Pair]:
    by_start: dict[Subset, list[Subset]] = {}
    for z, w in t:
        by_start.setdefault(z, []).append(w)
    return {(y, w) for y, z in s for w in by_start.get(z, ())}


def pair_radical(a: IncidenceAlgebra) -> tuple[tuple[Pair, ...], list[int]]:
    """`algebra_radical` by span products of pair sets."""
    rad = {p for p in pair_basis(a) if p[0] != p[1]}
    series = []
    cur = set(rad)
    while cur:
        series.append(len(cur))
        cur = _pair_product(cur, rad)
    series.append(0)
    return tuple(sorted(rad, key=_pair_key)), series


def pair_cartan_and_ext(a: IncidenceAlgebra) -> tuple[list[list[int]], dict[Pair, int]]:
    """`cartan_and_ext`: corner counts, and rad minus rad squared."""
    m = len(a.subsets)
    cartan = [[0] * m for _ in range(m)]
    for y, z in pair_basis(a):
        cartan[a.subset_index[y]][a.subset_index[z]] += 1
    rad = {p for p in pair_basis(a) if p[0] != p[1]}
    rad2 = _pair_product(rad, rad)
    return cartan, {p: 1 for p in sorted(rad - rad2, key=_pair_key)}


def pair_heredity_chain_check(a: IncidenceAlgebra) -> dict:
    """`heredity_chain_check`, every span a set of pairs."""
    if a.n == 0:
        return {
            "n": 0,
            "layers": [],
            "passed": True,
            "note": "ground field; nothing to peel",
        }
    quotient = set(pair_basis(a))
    layers = []
    passed = True
    for level in range(a.n, -1, -1):
        level_sets = [c for c in a.subsets if len(c) == level]
        ideal = {
            (y, w)
            for y, w in quotient
            if any((y, c) in quotient and (c, w) in quotient for c in level_sets)
        }
        idem_ok = _pair_product(ideal, ideal) == ideal
        rad = {(y, z) for y, z in quotient if y != z}
        kills_rad = not _pair_product(_pair_product(ideal, rad), ideal)
        left = {(y, c) for y, c in quotient if len(c) == level}
        right = {(c, z) for c, z in quotient if len(c) == level}
        corner = {
            (c, c2) for c, c2 in quotient if len(c) == level and len(c2) == level
        }
        corner_diagonal = all(c == c2 for c, c2 in corner)
        left_at = {c: sum(1 for _, cc in left if cc == c) for c in level_sets}
        right_at = {c: sum(1 for cc, _ in right if cc == c) for c in level_sets}
        tensor_dim = sum(left_at[c] * right_at[c] for c in level_sets)
        surjective = _pair_product(left, right) == ideal
        tensor_ok = corner_diagonal and surjective and tensor_dim == len(ideal)
        layer_ok = idem_ok and kills_rad and tensor_ok
        passed = passed and layer_ok
        layers.append(
            {
                "level": level,
                "ideal_dim": len(ideal),
                "idempotent": idem_ok,
                "kills_quotient_radical": kills_rad,
                "tensor_dimension": tensor_dim,
                "tensor_bijective": tensor_ok,
                "passed": layer_ok,
            }
        )
        quotient -= ideal
    if quotient:
        passed = False
    return {"n": a.n, "layers": layers, "passed": passed}


def projective_injective_dims(a: IncidenceAlgebra) -> dict:
    """Dimensions and composition data of the projectives and injectives.

    Built from the actual interval modules: the projective at Y lives on
    [Y, top], the injective at Z on [bottom, Z].  Composition length is
    the total dimension (vertex simples), and every factor has
    multiplicity at most one exactly when every vertex dimension is.
    """
    top = frozenset(range(1, a.n + 1))
    bottom: Subset = frozenset()
    out: dict[str, dict[Subset, dict]] = {"projective": {}, "injective": {}}
    for y in a.subsets:
        p = interval_module(a, y, top)
        i = interval_module(a, bottom, y)
        out["projective"][y] = {
            "dim": p.total_dim,
            "length": sum(p.dims.values()),
            "multiplicity_free": all(d <= 1 for d in p.dims.values()),
        }
        out["injective"][y] = {
            "dim": i.total_dim,
            "length": sum(i.dims.values()),
            "multiplicity_free": all(d <= 1 for d in i.dims.values()),
        }
    return out


def hom_basis(
    source: AlgebraModule, target: AlgebraModule
) -> list[dict[Subset, list[list[Q]]]]:
    space = _HomSpace(source, target)
    return [space.matrices(v) for v in space.vectors]
