"""Readable reference helpers that only the tests use.

Each restates, on `Weight` and `WeylElement` objects, an order or a
construction that `catx.charcalc` computes on packed integer ids.
"""

from typing import Iterable

from catx.charcalc import (
    FormalCharacter,
    TwistedCharacter,
    Weight,
    _check_j,
    _class_ids,
    _family_ids,
)
from catx.rootsystem import RootSystem
from catx.weyl import WeylElement, _index_mask, group_table


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
