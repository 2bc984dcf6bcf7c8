"""Readable reference helpers that only the tests use.

The root-system ones read roots as coordinate tuples.  Most others
restate, on `Weight` and `WeylElement` objects, an order or a
construction that `catx.charcalc` computes on packed integer ids.  The
incidence-algebra ones restate, on sets of (Y, Z) frozenset pairs, the
checks that `catx.incidence` runs on bitset rows.  `build_parser` is
the command line's argparse parser as it was written out by hand, before
`catx.cli` declared its options in one table.  `reference_decompose` and
`reference_filtration` are the decomposition and the filtration sweep as
they ran on per-itheta tables of packed ids, before `catx.charcalc` ran
them on bitsets over the group.
"""

import argparse
from collections import Counter
from fractions import Fraction as Q
from itertools import chain
from functools import reduce
from operator import and_
from typing import Callable, Iterable, Mapping

from catx.charcalc import (
    JPRIME_CONVENTIONS,
    Decomposition,
    FormalCharacter,
    ModuleCharacter,
    TwistedCharacter,
    Weight,
    _check_convention,
    _check_itheta,
    _check_j,
    _coset_mins,
    _decomposition_record,
    _descent_counts,
    _element_id,
    _id_sort_key,
    _jprime,
    _subgroup_ids,
    _subsets,
    _supports,
    _universe_ids,
    _weight_diff,
    _weight_of,
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
from catx.weyl import WeylElement, _index_mask, group_table, kept_masks, longest_element


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
# the decomposition and the filtration sweep on per-itheta class tables


def _class_ids(rs: RootSystem, mask: int) -> list[list[int]]:
    """The group split into right-descent classes, as packed weights over
    an itheta with this mask: list d holds, in id order, the weight
    (minimum of x's coset, x^{-1}) of each x whose right-descent mask is
    d.  One table per mask, kept on the root system's memo; the coset
    minima it is built from are dropped."""
    memo = rs._weyl_memo
    key = (_class_ids, mask)
    if key not in memo:
        table = group_table(rs)
        n, inverse = len(table.elements), table.inverse
        classes = [[] for _ in range(1 << rs.cartan_type.rank)]
        for x, (r, d) in enumerate(zip(_coset_mins(rs, mask), table.descents)):
            classes[d].append(r * n + inverse[x])
        memo[key] = classes
    return memo[key]


def _slice_ids(rs: RootSystem, mask: int) -> list[list[int]]:
    """The classes of `_class_ids` cut down to the subgroup W_I on the
    itheta of this mask: list d holds, in id order, the weight
    (theta, x^{-1}) of each x in W_I whose right-descent mask is d,
    packed as the id of x^{-1}.  These are the untwisted weights of the
    full table, |W_I| of them.  One table per mask, kept on the root
    system's memo."""
    memo = rs._weyl_memo
    key = (_slice_ids, mask)
    if key not in memo:
        table = group_table(rs)
        classes = [[] for _ in range(1 << rs.cartan_type.rank)]
        for x in _subgroup_ids(rs, mask):
            classes[table.descents[x]].append(table.inverse[x])
        memo[key] = classes
    return memo[key]


def _family_ids(classes: list[list[int]], mask: int, want: int) -> list[int]:
    """The packed weights of a class table (`_class_ids` or `_slice_ids`)
    whose right-descent mask d has d & mask == want, class by class in
    order of d."""
    return [p for d, ids in enumerate(classes) if d & mask == want for p in ids]


def _simple_pieces(classes: list[list[int]], mask: int) -> list[list[int]]:
    """`_family_ids(classes, mask, want)` for every want inside the mask
    at once, in one pass over the class table: entry want holds the
    packed weights of the simple family at the J of that mask."""
    pieces = [[] for _ in range(mask + 1)]
    for d, ids in enumerate(classes):
        pieces[d & mask] += ids
    return pieces


def _candidates(
    rs: RootSystem, base: FormalCharacter, inner: Mapping[int, int]
) -> list[tuple[frozenset[int], int, int, tuple]]:
    """The decomposition candidates among packed weights over one base: a
    tuple (K, p, mask of K, tie key) for each K inside itheta whose weight
    (theta, w_K), packed as p, lies in inner.

    A candidate's up-set has a closed form: (theta, w_K) lies below
    (theta^r, v) exactly when r = 1 and v lies in W_K but is not w_K.
    With g = r u, u in W_itheta, the order asks g and v g to keep every
    positive root outside Phi_K positive.  The first makes g an element
    of W_K, so r = 1, as r is a minimal coset representative; then the
    second puts v in W_K.  Conversely u = 1 works, as W_K permutes those
    roots, and the length test leaves out only v = w_K.  (The parabolic
    factorisation w = w^K w_K; Bjorner-Brenti, Combinatorics of Coxeter
    Groups, section 2.4.)  So the up-set is the untwisted weights (ids
    below |W|) whose v has its support (`_supports`) inside K, less the
    candidate, and maximality needs one count per support mask.

    The tie key orders K by |K| descending, then lexicographically (see
    `decompose_character`).  The candidates of every K are built once per
    root system and kept on its memo, in `_subsets` order; a base keeps
    those with K inside its itheta, which stay in that order.
    """
    memo = rs._weyl_memo
    if _candidates not in memo:
        table = group_table(rs)
        memo[_candidates] = [
            (
                k,
                _element_id(table, longest_element(rs, k)),
                _index_mask(k),
                (-len(k), tuple(sorted(k))),
            )
            for k in _subsets(rs.simple_indices)
        ]
    outside = ~_index_mask(base.itheta)
    return [c for c in memo[_candidates] if not c[2] & outside and c[1] in inner]


def _maximal(cands: list) -> list:
    """The candidates (base, K, p, mask of K, mask of itheta, weights left,
    counts) maximal among the weights left, in candidate order: p is still
    among the weights left over its base, and the counts of the untwisted
    weights left per support mask sum to one inside K.  The support of w_K
    is K, so that one is the candidate itself, and nothing of its up-set
    (`_candidates`) is left."""
    out = []
    for cand in cands:
        _, _, p, mask, _, inner, count = cand
        if p in inner:
            total, s = count[0], mask
            while s:
                total += count[s]
                s = (s - 1) & mask
            if total == 1:
                out.append(cand)
    return out


def reference_decompose(
    rs: RootSystem, char: ModuleCharacter, *, tie_break: int = 0
) -> Decomposition:
    """`decompose_character` on the per-itheta class tables: one count of
    the untwisted weights left per support mask, and dict subtraction."""
    if tie_break not in (0, 1, 2):
        raise InputError("tie_break must be 0, 1, or 2")
    if not char:
        return Decomposition()
    if char._rs != rs:
        raise InputError(
            f"character is over {char._rs.cartan_type}, not {rs.cartan_type}"
        )
    work = {base: dict(inner) for base, inner in char._entries.items()}
    return _eliminate(rs, work, _class_ids, tie_break)


def _eliminate(
    rs: RootSystem, work: dict, tables: Callable, tie_break: int
) -> Decomposition:
    """The elimination loop of `decompose_character` on work, {base:
    {packed weight: multiplicity}}, which it consumes.  The simple
    character at (theta, J) is read from the class table
    tables(rs, mask of itheta): `_class_ids` for full characters,
    `_slice_ids` for their slices at the identity coset.  The simple
    characters of a table are cut from it once per call
    (`_simple_pieces`), not per round.

    Sorted once into tie order, the candidates give the maxima of every
    round already in that order: the stable sort of each round's maxima
    by (|J| descending, J, label) that the tie-break is defined on."""
    out = Decomposition()
    n, support = len(group_table(rs).elements), _supports(rs)
    cands, keys, pieces = [], [], {}
    # each candidate binds its base's weights left and counts, once per call
    for base, inner in work.items():
        count = [0] * (1 << rs.cartan_type.rank)
        for p in inner:
            if p < n:
                count[support[p]] += 1
        imask = _index_mask(base.itheta)
        for j, p, jmask, tie in _candidates(rs, base, inner):
            cands.append((base, j, p, jmask, imask, inner, count))
            keys.append((tie, base.label))
    # in tie order, once: `_maximal` keeps candidate order
    cands = [cands[k] for k in sorted(range(len(cands)), key=keys.__getitem__)]
    while any(work.values()):
        maximal = _maximal(cands)
        if not maximal:
            left = sum(sum(inner.values()) for inner in work.values())
            out.diagnostic = (
                "no maximal weight of longest-element shape remains; "
                f"{left} weight(s) left"
            )
            break
        pick = {0: 0, 1: len(maximal) - 1, 2: len(maximal) // 2}[tie_break]
        base, j, _, jmask, imask, inner, count = maximal[pick]
        if imask not in pieces:
            pieces[imask] = _simple_pieces(tables(rs, imask), imask)
        piece = pieces[imask][jmask]
        if not piece:
            # a round that removes nothing would pick the same maximum again
            out.diagnostic = (
                f"the simple character at ({base!r}, J={sorted(j)}) is empty; "
                "the class table is broken"
            )
            break
        short = [p for p in piece if p not in inner]
        if short:
            short.sort(key=_id_sort_key(rs))
            missing = [_weight_of(rs, base, p) for p in short]
            out.diagnostic = (
                f"subtracting the simple character at J={sorted(j)} needs "
                f"weight(s) {missing!r} not present with enough multiplicity"
            )
            break
        for p in piece:
            left = inner[p] - 1
            if left:
                inner[p] = left
            else:
                del inner[p]
                if p < n:
                    count[support[p]] -= 1
        key = (base, j)
        out.factors[key] = out.factors.get(key, 0) + 1
    out.remainder = ModuleCharacter._of(rs, work)
    return out


def reference_filtration(
    rs: RootSystem,
    theta: FormalCharacter,
    *,
    jprime_convention: str = "itheta-minus-j",
) -> list[dict]:
    """`verify_filtration` on the per-itheta class tables (`_class_ids`) and
    their slices (`_slice_ids`), with a `Counter` for the multiset record."""
    _check_itheta(rs, theta)
    _check_convention(jprime_convention)
    tables = _slice_ids if jprime_convention == "itheta-minus-j" else _class_ids
    imask = _index_mask(theta.itheta)
    classes = tables(rs, imask)
    copies = len(group_table(rs).elements) // sum(map(len, classes))
    pieces = _simple_pieces(classes, imask)
    every_k = _subsets(theta.itheta)
    records = []
    tname = str(rs.cartan_type)
    for j in every_k:
        params = {
            "type": tname,
            "itheta": sorted(theta.itheta),
            "j": sorted(j),
            "jprime_convention": jprime_convention,
        }
        jpmask = _index_mask(_jprime(rs, theta, j, jprime_convention))
        nabla = _family_ids(classes, jpmask, 0)
        simples = [pieces[_index_mask(k)] for k in _subsets(j)]
        diff = _weight_diff(
            ModuleCharacter._of(rs, {theta: dict.fromkeys(nabla, 1)}),
            ModuleCharacter._of(rs, {theta: Counter(chain(*simples))}),
        )
        records.append(
            {
                "check": "filtration-multiset",
                "params": dict(params),
                "passed": not diff,
                "counterexample": {"weight_diff": diff} if diff else None,
            }
        )

        # the minimal representatives of W/W_J', by their right descents
        lhs = sum(c for d, c in enumerate(_descent_counts(rs)) if not d & jpmask)
        rhs = copies * sum(map(len, simples))
        records.append(
            {
                "check": "filtration-counting",
                "params": dict(params),
                "passed": lhs == rhs,
                "counterexample": None if lhs == rhs else {"lhs": lhs, "rhs": rhs},
            }
        )

        jmask = _index_mask(j)
        induced = _family_ids(classes, jmask, jmask)
        for check, ids, factors in (
            ("costandard-decomposition", nabla, [k for k in every_k if k <= j]),
            ("projective-pattern", induced, [k for k in every_k if j <= k]),
        ):
            dec = _eliminate(rs, {theta: dict.fromkeys(ids, 1)}, tables, 0)
            want = {(theta, k): 1 for k in factors}
            records.append(_decomposition_record(check, params, dec, want))
    return records


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
