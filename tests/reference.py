"""Readable reference helpers that only the tests use.

The root-system ones read roots as coordinate tuples.  Most others
restate, on `Weight` and `WeylElement` objects, an order or a
construction that `catx.charcalc` computes on packed integer ids.  The
incidence-algebra ones restate, on sets of (Y, Z) frozenset pairs, the
checks that `catx.incidence` runs on bitset rows.  `build_parser` is
the command line's argparse parser as it was written out by hand, before
`catx.cli` declared its options in one table.
"""

import argparse
from fractions import Fraction as Q
from functools import reduce
from operator import and_
from typing import Iterable

from catx.charcalc import (
    JPRIME_CONVENTIONS,
    FormalCharacter,
    TwistedCharacter,
    Weight,
    _check_j,
    _class_ids,
    _family_ids,
    _subgroup_ids,
    _universe_ids,
)
from catx.cli import (
    KINDS,
    _cmd_algebra,
    _cmd_char,
    _cmd_decompose,
    _cmd_roots,
    _cmd_verify,
    _cmd_weyl,
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
from catx.verify import CHECKS, ITHETA_MODES
from catx.weyl import WeylElement, _index_mask, group_table, kept_masks


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


def order_rows(
    rs: RootSystem, theta: FormalCharacter
) -> tuple[list[int], list[int]]:
    """`_order_rows` by one column AND per pulled root for every stabilizer
    element that passes the mask test, for every weight.

    Each weight gives one mask over the n positive roots: its kept roots
    moved by the inverse of its twist.  As the lower weight these are its
    pulled roots, as the upper one its target mask.  With K the kept-root
    masks of `kept_masks`, a positive root lies in the mask of the weight
    (w, v) exactly when w and then v keep it positive, so the mask is
    K[w] & K[v * w].  No negative root lies in it: the universe weight of
    an element x = w * u, with w minimal in x's coset and u in the
    stabilizer, is (w, x^{-1}), so v * w = u^{-1}; a negative root would
    need w and u^{-1} both to invert its positive, but w inverts no root
    of the stabilizer's root system (Björner–Brenti §2.4) and u^{-1}
    inverts no other root.

    The column of a root holds the weights whose target mask contains
    it, so the weights that u carries the pulled roots of a into are the
    intersection of the columns of their images.  Row a joins that over
    the stabilizer elements u, among the shorter weights, and stops once
    it holds all of them.  An element that inverts a pulled root carries
    it outside every target mask, and is skipped with one mask test.
    """
    universe = _universe_ids(rs, theta)
    table = group_table(rs)
    n = len(table.elements)
    words, product = table.words, table.product
    kept = kept_masks(rs)
    n_roots = len(rs.positive_roots)
    full = (1 << n_roots) - 1
    columns = [0] * n_roots
    by_length: dict[int, int] = {}
    masks = []
    for b, p in enumerate(universe):
        rep, v = divmod(p, n)
        # the kept roots of p moved by its twist's inverse
        rest = kept[rep] & kept[product(v, rep) if rep else v]
        masks.append(rest)
        bit = 1 << b
        while rest:
            root = rest & -rest
            rest ^= root
            columns[root.bit_length() - 1] |= bit
        length = len(words[v])
        by_length[length] = by_length.get(length, 0) | bit
    stabilizer = [
        (table.elements[u].perm, full ^ kept[u])
        for u in _subgroup_ids(rs, _index_mask(theta.itheta))
    ]
    column = columns.__getitem__
    rows = []
    for a, pulled_mask in zip(universe, masks):
        length = len(words[a % n])
        shorter = sum(m for k, m in by_length.items() if k < length)
        row = 0
        pulled = [r for r in range(n_roots) if pulled_mask >> r & 1]
        for perm, inverted in stabilizer if shorter else ():
            if pulled_mask & inverted:
                continue
            fits = map(column, map(perm.__getitem__, pulled))
            row |= reduce(and_, fits, shorter & ~row)
            if row == shorter:
                break
        rows.append(row)
    return universe, rows


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catx",
        description="Exact combinatorics of root systems, twisted characters, "
        "and the Boolean-lattice incidence algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--allow-large", action="store_true", help="lift resource guards"
        )

    p = sub.add_parser("roots", help="positive roots of a type")
    p.add_argument("--type", required=True, help="Cartan type, e.g. A2 or B3")
    add_common(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("weyl", help="reflection group data")
    p.add_argument("--type", required=True)
    p.add_argument("--elements", action="store_true", help="list all elements")
    p.add_argument(
        "--biclosed",
        action="store_true",
        help="find the two-sided-closed subsets and match them to the group",
    )
    add_common(p)
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("char", help="compute a module character")
    p.add_argument("--type", required=True)
    p.add_argument("--kind", choices=KINDS, required=True,
                   help="M induced, E simple, nabla costandard")
    p.add_argument("--itheta", default="all",
                   help="comma list of simple indices fixed by theta; 'all' or ''")
    p.add_argument("--label", default="theta", help="name for the torus character")
    p.add_argument("--j", default="", help="comma list, a subset of itheta")
    p.add_argument(
        "--jprime-convention",
        choices=JPRIME_CONVENTIONS,
        default=JPRIME_CONVENTIONS[0],
        help="complement used for the costandard character",
    )
    add_common(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("decompose", help="decompose a character file")
    p.add_argument("--in", dest="infile", required=True,
                   help="character JSON file, or - for stdin")
    p.add_argument("--type", default=None, help="crosscheck the payload type")
    p.add_argument("--strict", action="store_true",
                   help="reject non-canonical or duplicate input instead of fixing it")
    p.add_argument("--tie-break", type=int, default=0, choices=(0, 1, 2),
                   help="which maximal label to peel when several are available")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--types", default=None,
                   help="comma list of Cartan types; default from --max-rank")
    p.add_argument("--checks", default=None,
                   help=f"comma list from {','.join(CHECKS)}; default all")
    p.add_argument("--itheta-mode", choices=ITHETA_MODES, default=ITHETA_MODES[0])
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument(
        "--jprime-convention",
        choices=JPRIME_CONVENTIONS,
        default=JPRIME_CONVENTIONS[0],
    )
    p.add_argument("--theta-label", default="theta")
    p.add_argument("--csv", default=None, help="also write a CSV view to this file")
    p.add_argument("--out", default=None, help="write the JSON report to this file")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("algebra", help="incidence-algebra invariants and splitting")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--module", default=None,
                   help="module JSON file to decompose; default the regular module")
    p.add_argument("--seed", type=int, default=1729)
    add_common(p)
    p.set_defaults(func=_cmd_algebra)

    return parser
