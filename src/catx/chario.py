"""JSON serialization for characters and lattice modules.

This module owns the indent-2 layout of every file catx writes
(`json_text`): characters, modules, verification reports and the
command line's JSON payloads.

Characters ship as words in the simple generators so files stay
readable and system independent.  Both directions work on whole lists
of weights, with one table of word texts per root system
(`_word_pieces`, by word rank): the writer sorts the weights as ints and
joins the texts of their words in one pass, and a file laid out byte
for byte as `character_dumps` writes it is read by the text of its
words, each column of pieces (keys, words, multiplicities) checked in
one pass per chunk; only its header goes through the JSON decoder.  Any
other text is decoded whole, and every word in it is canonicalized,
with a warning or (strict mode) a failure on non-canonical coset data.
Module files carry vertex dimensions and the nonzero covering matrices
with exact rational entries; reading one imports the incidence-algebra
stack (`catx.incidence`, `catx.linalg`, `fractions`) on first use, not
with this module.  Writing is canonical: for any payload,
write then read then write is byte identical.
"""

from __future__ import annotations

import json
import sys
from functools import reduce
from itertools import repeat
from operator import or_
from typing import TYPE_CHECKING, Optional

from catx.charcalc import FormalCharacter, ModuleCharacter, _word_rank
from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import RootSystem, build_root_system
from catx.weyl import _index_mask, element_from_word, group_table, per_system

if TYPE_CHECKING:
    from fractions import Fraction as Q

    from catx.incidence import AlgebraModule


_WEIGHT_KEYS = frozenset({"coset_rep", "v", "mult"})


def check_label(label) -> None:
    """Refuse a label that a character file cannot carry: one that is not
    a non-empty string, or that holds a lone surrogate outside the
    surrogateescape range (which holds command-line bytes the locale
    could not decode), which has no bytes to write."""
    if not isinstance(label, str) or not label:
        raise InputError("label must be a non-empty string")
    try:
        label.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        raise InputError(f"label {label!r} is not encodable text") from None


def _are_indices(values) -> bool:
    """Whether every value is an int and none a bool: a bool is an int,
    but would come back out of a set as a bool and be written as one."""
    return all(isinstance(i, int) and not isinstance(i, bool) for i in values)


def _single_base(
    rs: RootSystem, char: ModuleCharacter, base: Optional[FormalCharacter]
) -> FormalCharacter:
    """The one torus character of a character to be written over rs, with
    a label and an itheta that the reader accepts; an empty character
    needs it given."""
    if char and char._rs != rs:
        raise InputError(
            f"character is over {char._rs.cartan_type}, not {rs.cartan_type}"
        )
    bases = set(char._entries)
    if len(bases) > 1:
        raise InputError("cannot serialize a character with mixed torus characters")
    if bases:
        found = next(iter(bases))
        if base is not None and base != found:
            raise InputError("explicit base disagrees with the character contents")
        base = found
    if base is None:
        raise InputError("an empty character needs an explicit base to record")
    check_label(base.label)
    if not _are_indices(base.itheta):
        raise InputError("itheta must be a set of simple indices")
    return base


def character_to_json(
    rs: RootSystem, char: ModuleCharacter, *, base: Optional[FormalCharacter] = None
) -> dict:
    base = _single_base(rs, char, base)
    weights = []
    if char:
        words = char._rs._weyl_table.words
        n = len(words)
        mults = char._entries[base]
        weights = [
            {
                "coset_rep": list(words[p // n]),
                "v": list(words[p % n]),
                "mult": mults[p],
            }
            for p in char._sorted_ids(base)
        ]
    return {
        "type": str(rs.cartan_type),
        "label": base.label,
        "itheta": sorted(base.itheta),
        "weights": weights,
    }


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as json writes it: its repr, or the JavaScript names of
    NaN and the infinities."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# a dict that starts on a line indented by at least this many spaces
# (three levels: a report, its records, a record) is laid out once per
# call: a report's records share their params there
_SHARED_PAD = 6


def _indented(value, pad: str, seen: dict) -> str:
    """value laid out as json.dumps(indent=2) lays it out when it starts
    on a line indented by pad.

    Only values of exactly the types dict (with str keys), list, tuple,
    str, int, float, bool and None are written; anything else, a
    subclass included, raises TypeError, so that any text it returns is
    json's.  A value that holds itself is not detected.

    A non-empty dict at a pad of `_SHARED_PAD` or more spaces is laid
    out once: its text is kept in seen under (id, pad) and reused.  That
    is sound while no part of value is freed or changed between the
    calls that share seen, so that no id is reused and a shared dict has
    one text per pad, as json.dumps writes it each time.  The records of
    a report share their params dicts, and `json_text` passes a fresh
    seen per call.  The containers above that depth are not kept: they
    are the large ones (a report's records, a module's maps), and
    holding their texts until the call returns would double its peak
    memory.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        shared = len(pad) >= _SHARED_PAD
        if shared:
            key = (id(value), pad)
            text = seen.get(key)
            if text is not None:
                return text
        inner = pad + "  "
        # a key that is not a str is a TypeError of _encode_str
        items = [
            f"{_encode_str(k)}: {_indented(v, inner, seen)}" for k, v in value.items()
        ]
        text = "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        if shared:
            seen[key] = text
        return text
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_indented(v, inner, seen) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if kind is float:
        return _float_text(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


if sys.version_info >= (3, 13):
    # json's C encoder lays out indent itself from 3.13 on, and is
    # faster there than _indented
    def json_text(value) -> str:
        """The text of json.dumps(value, indent=2) and a newline;
        tests/test_json_text.py holds both branches to it."""
        return json.dumps(value, indent=2) + "\n"

else:
    # before 3.13, indent sends json.dumps to its pure-Python encoder,
    # which takes more than twice as long as _indented
    def json_text(value) -> str:
        """The text of json.dumps(value, indent=2) and a newline;
        tests/test_json_text.py holds both branches to it.  A dict three
        or more levels deep that value holds more than once is laid out
        once."""
        return _indented(value, "", {}) + "\n"


# A weight of a file that character_dumps writes has no quotes but those
# around its three keys.  The piece of a word is the text between the
# quote after its key and the quote before the next key: ': ', the word
# as json.dumps(indent=2) lays it out there, then _WORD_END.
_WEIGHTS_OPEN = '\n  "weights": ['
_FIRST_WEIGHT = "\n    {\n      "
_WORD_END = ",\n      "
_MULT_END = "\n    },\n    {\n      "
_MULT_ONE = ": 1" + _MULT_END
# how the writer closes a weight and opens the next
_NEXT_WEIGHT = _MULT_END + '"coset_rep"'
_NEXT_ONE = '"mult": 1' + _NEXT_WEIGHT
_WEIGHTS_END = "\n    }\n  ]\n}\n"
# the weights are cut a chunk of about this many characters at a time,
# so that a large file's pieces are not all held at once
_CHUNK = 16384


@per_system
def _word_pieces(rs: RootSystem) -> list[str]:
    """Per word rank (`_word_rank`), the piece of the canonical word of
    that rank; one entry per element of the enumerated group.

    Built in id order: the canonical word of x is that of x * s_i plus
    the letter i, i its smallest right descent, and x * s_i is shorter,
    so its letters' lines are already there; x's are those plus one."""
    table = group_table(rs)
    rmul, descents = table.rmul, table.descents
    # per id, its letters as json lays them out, each after ",\n" and
    # the indent; the identity has none
    lines = [""] * len(descents)
    for x in range(1, len(descents)):
        i = (descents[x] & -descents[x]).bit_length()
        lines[x] = f"{lines[rmul[i][x]]},\n        {i}"
    pieces = [f": []{_WORD_END}"] * len(lines)
    for k, line in zip(_word_rank(rs), lines):
        if line:
            pieces[k] = f": [{line[1:]}\n      ]{_WORD_END}"
    return pieces


@per_system
def _piece_ids(rs: RootSystem) -> dict[str, int]:
    """The id of every canonical word by its piece."""
    pieces = _word_pieces(rs)
    return {pieces[k]: a for a, k in enumerate(_word_rank(rs))}


def _header_text(rs: RootSystem, base: FormalCharacter) -> str:
    """The lines of a character file before its weights, as
    `character_dumps` writes them."""
    return (
        "{\n"
        f'  "type": {_encode_str(str(rs.cartan_type))},\n'
        f'  "label": {_encode_str(base.label)},\n'
        f'  "itheta": {_indented(sorted(base.itheta), "  ", {})},'
    )


def character_dumps(
    rs: RootSystem, char: ModuleCharacter, *, base: Optional[FormalCharacter] = None
) -> str:
    """`character_to_json` as text, byte for byte what
    json.dumps(..., indent=2) writes plus a newline, formatted directly
    for the fixed layout of a character payload.

    The weights go in `items` order, by the word ranks of the coset
    representative and then of v (`_id_sort_key`), sorted as the ints
    rank * |W| + rank; those ranks index the word pieces (`_word_pieces`)
    directly.  The text is one join of four parts per weight: the piece
    of the representative, the "v" key, the piece of v, and the
    multiplicity with the start of the next weight."""
    base = _single_base(rs, char, base)
    head = _header_text(rs, base) + _WEIGHTS_OPEN
    if not char:
        return head + "]\n}\n"
    # the character's own system has a group table; an equal rs may not
    pieces = _word_pieces(char._rs)
    rank = _word_rank(char._rs)
    n = len(rank)
    mults = char._entries[base]
    keys = [rank[p // n] * n + rank[p % n] for p in mults]
    if sum(mults.values()) == len(keys):
        # every family that catx char writes has multiplicity one
        keys.sort()
        ends = [_NEXT_ONE] * len(keys)
    else:
        mult_of = dict(zip(keys, mults.values()))
        keys.sort()
        ends = [f'"mult": {mult_of[k]}{_NEXT_WEIGHT}' for k in keys]
    ends[-1] = ends[-1][: -len(_NEXT_WEIGHT)] + _WEIGHTS_END
    parts = ['"v"'] * (4 * len(keys) + 1)
    parts[0] = head + _FIRST_WEIGHT + '"coset_rep"'
    parts[1::4] = [pieces[k // n] for k in keys]
    parts[3::4] = [pieces[k % n] for k in keys]
    parts[4::4] = ends
    return "".join(parts)


def character_from_json(
    rs: Optional[RootSystem],
    data: dict,
    *,
    strict: bool = False,
    allow_large: bool = False,
    expect_type: Optional[str] = None,
) -> tuple[ModuleCharacter, FormalCharacter, list[str]]:
    """Parse a character payload; returns the character, its base, and
    any canonicalization warnings (strict mode turns those into errors).

    With rs None the character is over the system the payload's "type"
    names, built under its order guard unless allow_large; a non-empty
    expect_type must equal that "type" first.  The character keeps its
    root system even when it is empty.

    Every word is walked through the group table, which refuses an index
    out of range.  The representative is made canonical by stripping its
    right descents inside itheta.
    """
    if rs is None:
        if not isinstance(data, dict) or "type" not in data:
            raise InputError("character payload must be an object with a 'type'")
        if expect_type and expect_type != data["type"]:
            raise InputError(
                f"payload is for type {data['type']!r}, but --type says {expect_type!r}"
            )
        rs = build_root_system(data["type"], allow_large=allow_large)
    if not isinstance(data, dict):
        raise InputError("character payload must be a JSON object")
    missing = {"type", "label", "itheta", "weights"} - set(data)
    if missing:
        raise InputError(f"character payload missing keys {sorted(missing)}")
    if data["type"] != str(rs.cartan_type):
        raise InputError(
            f"payload is for type {data['type']!r}, expected {rs.cartan_type}"
        )
    check_label(data["label"])
    itheta = data["itheta"]
    if not isinstance(itheta, list) or not _are_indices(itheta):
        raise InputError("itheta must be a list of simple indices")
    base = FormalCharacter(data["label"], frozenset(itheta))
    bad = base.itheta - set(rs.simple_indices)
    if bad:
        raise InputError(f"itheta indices {sorted(bad)} out of range")
    warnings: list[str] = []
    entries: dict[int, int] = {}
    weights = data["weights"]
    if not isinstance(weights, list):
        raise InputError("weights must be a list")
    if weights:  # only a character with weights needs the group
        table = group_table(rs)
        descents, minimize = table.descents, table.minimize
        n = len(table.elements)
    mask = _index_mask(base.itheta)
    ints = repeat(int)  # endless, so one iterator serves every word check
    for k, entry in enumerate(weights):
        if not isinstance(entry, dict):
            raise InputError(f"weight #{k} must be an object")
        if not entry.keys() >= _WEIGHT_KEYS:
            missing = _WEIGHT_KEYS - entry.keys()
            raise InputError(f"weight #{k} missing keys {sorted(missing)}")
        mult = entry["mult"]
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise InputError(f"weight #{k}: mult must be a positive int")
        # the type checks run before the walks, since a float would reach
        # the group table as an index; a bool is an int and reads as one
        rep_word, v_word = entry["coset_rep"], entry["v"]
        if not isinstance(rep_word, list) or not all(map(isinstance, rep_word, ints)):
            raise InputError(
                f"weight #{k}: coset_rep must be a list of simple indices"
            )
        if not isinstance(v_word, list) or not all(map(isinstance, v_word, ints)):
            raise InputError(f"weight #{k}: v must be a list of simple indices")
        rep = element_from_word(rs, rep_word)._id
        if descents[rep] & mask:
            canon = minimize(rep, mask)
            message = (
                f"weight #{k}: coset_rep {rep_word} is not canonical; "
                f"replaced by {list(table.words[canon])}"
            )
            if strict:
                raise InputError(message)
            warnings.append(message)
            rep = canon
        v = element_from_word(rs, v_word)._id
        weight = rep * n + v
        if weight in entries:
            message = f"weight #{k} duplicates an earlier entry; multiplicities merged"
            if strict:
                raise InputError(message)
            warnings.append(message)
            entries[weight] += mult
        else:
            entries[weight] = mult
    return ModuleCharacter._of(rs, {base: entries}), base, warnings


def _written_character(
    rs: Optional[RootSystem],
    text: str,
    *,
    allow_large: bool,
    expect_type: Optional[str],
) -> Optional[tuple[ModuleCharacter, FormalCharacter, list[str]]]:
    """`character_loads` on a text that is byte for byte what
    `character_dumps` writes, without decoding its weights; None for any
    other text.

    The header is decoded and checked by `character_from_json` with no
    weights, and must be written back to the same bytes.  A written
    weight holds no quote but those around its three keys, so cutting
    the weights at quotes, a chunk of whole weights at a time, gives six
    pieces per weight: a key, then the text up to the next key.  Every
    sixth piece is one column, checked in one pass: each key column
    must hold its key alone (counted); the multiplicity column the text
    of multiplicity one alone, or else positive ints written back to the
    same bytes; and each word column only pieces of canonical words,
    looked up in one table (`_piece_ids`).  Each distinct representative
    must be canonical, and the packed weights distinct.  Such a text
    decodes to the same payload, which `character_from_json` reads with
    no warnings, so the result is the same and strict mode cannot
    change it.
    """
    cut = text.find(_WEIGHTS_OPEN)
    if cut < 0:
        return None
    head = text[:cut]
    try:
        header = json.loads(head[:-1] + "}")
        header["weights"] = []
        char, base, _ = character_from_json(
            rs, header, allow_large=allow_large, expect_type=expect_type
        )
    except (ValueError, ResourceGuardError):
        # an InputError is a ValueError; decoding the whole text gives
        # the decoder's error or the same one
        return None
    rs = char._rs
    if head != _header_text(rs, base):
        return None
    if text == head + _WEIGHTS_OPEN + "]\n}\n":
        return char, base, []
    start = cut + len(_WEIGHTS_OPEN) + len(_FIRST_WEIGHT)
    end = len(text) - len(_WEIGHTS_END)
    if not (
        text.startswith(_FIRST_WEIGHT, cut + len(_WEIGHTS_OPEN))
        and text.endswith(_WEIGHTS_END)
        and start < end
    ):
        return None
    table = group_table(rs)
    word_id = _piece_ids(rs).__getitem__
    reps, vs, mults = [], [], []
    while start < end:
        # whole weights, up to the first weight boundary past _CHUNK
        stop = text.find(_MULT_END, start + _CHUNK, end)
        if stop < 0:
            stop = end
        pieces = text[start:stop].split('"')
        # the last multiplicity is closed like the others, so all read alike
        pieces[-1] += _MULT_END
        count = len(pieces) // 6
        if (
            len(pieces) != 6 * count + 1
            or pieces[0]
            or pieces[1::6].count("coset_rep") != count
            or pieces[3::6].count("v") != count
            or pieces[5::6].count("mult") != count
        ):
            return None
        mult_pieces = pieces[6::6]
        if mult_pieces.count(_MULT_ONE) == count:
            # every family that catx char writes has multiplicity one
            mults += repeat(1, count)
        else:
            try:
                ints = [int(piece[2 : -len(_MULT_END)]) for piece in mult_pieces]
            except ValueError:  # not an int, or past the digit limit
                return None
            if min(ints) < 1 or mult_pieces != [f": {m}{_MULT_END}" for m in ints]:
                return None
            mults += ints
        try:
            reps += map(word_id, pieces[2::6])
            vs += map(word_id, pieces[4::6])
        except KeyError:  # not a canonical word's piece
            return None
        start = stop + len(_MULT_END)
    mask = _index_mask(base.itheta)
    # the representatives are few: each distinct one is checked once
    if mask and reduce(or_, map(table.descents.__getitem__, set(reps))) & mask:
        return None
    n = len(table.elements)
    entries = {rep * n + v: m for rep, v, m in zip(reps, vs, mults)}
    if len(entries) != len(reps):
        return None
    return ModuleCharacter._of(rs, {base: entries}), base, []


def character_loads(
    rs: Optional[RootSystem],
    text: str,
    *,
    strict: bool = False,
    allow_large: bool = False,
    expect_type: Optional[str] = None,
) -> tuple[ModuleCharacter, FormalCharacter, list[str]]:
    """`character_from_json` on the text of a character file.

    A text that `character_dumps` wrote is read by the text of its words,
    with only its header decoded; any other text is decoded whole, once.
    Both give the same character, base and warnings, or the same error.
    """
    found = _written_character(
        rs, text, allow_large=allow_large, expect_type=expect_type
    )
    if found is not None:
        return found
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an int past the decoder's digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
    return character_from_json(
        rs, data, strict=strict, allow_large=allow_large, expect_type=expect_type
    )


# ----------------------------------------------------------------------
# lattice modules


def _subset_tag(s) -> str:
    return json.dumps(sorted(s), separators=(",", ":"))


def _parse_subset(tag: str, n: int, what: str) -> frozenset[int]:
    try:
        items = json.loads(tag)
    except ValueError as exc:
        raise InputError(f"{what}: bad subset key {tag!r}") from exc
    if not isinstance(items, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in items
    ):
        raise InputError(f"{what}: bad subset key {tag!r}")
    out = frozenset(items)
    if len(out) != len(items) or not out <= set(range(1, n + 1)):
        raise InputError(f"{what}: subset {tag!r} invalid for ground set 1..{n}")
    return out


def _encode_entry(q: Q):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _decode_entry(x, what: str) -> Q:
    from fractions import Fraction as Q

    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"{what}: entries must be ints or 'p/q' strings")
    try:
        return Q(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: bad rational {x!r}") from exc


def module_to_json(module: AlgebraModule) -> dict:
    dims = {
        _subset_tag(y): d
        for y, d in sorted(module.dims.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        if d
    }
    maps = {}
    for (y, z), m in module.nonzero_maps().items():
        maps[f"{_subset_tag(y)}->{_subset_tag(z)}"] = [
            [_encode_entry(x) for x in row] for row in m
        ]
    return {"n": module.algebra.n, "dims": dims, "maps": maps}


def module_dumps(module: AlgebraModule) -> str:
    return json_text(module_to_json(module))


def module_from_json(data: dict, *, allow_large: bool = False) -> AlgebraModule:
    from catx.incidence import AlgebraModule, build_incidence_algebra

    if not isinstance(data, dict):
        raise InputError("module payload must be a JSON object")
    missing = {"n", "dims", "maps"} - set(data)
    if missing:
        raise InputError(f"module payload missing keys {sorted(missing)}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError("n must be an int")
    algebra = build_incidence_algebra(n, allow_large=allow_large)
    if not isinstance(data["dims"], dict) or not isinstance(data["maps"], dict):
        raise InputError("dims and maps must be objects")
    # a second spelling of one subset or pair would replace the first
    dims, tags = {}, {}
    for tag, d in data["dims"].items():
        y = _parse_subset(tag, n, "dims")
        if tags.setdefault(y, tag) != tag:
            raise InputError(f"dims keys {tags[y]!r} and {tag!r} name one subset")
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InputError(f"dims[{tag!r}] must be a non-negative int")
        dims[y] = d
    maps = {}
    for tag, rows in data["maps"].items():
        if "->" not in tag:
            raise InputError(f"maps key {tag!r} must look like 'Y->Z'")
        left, right = tag.split("->", 1)
        y = _parse_subset(left, n, "maps")
        z = _parse_subset(right, n, "maps")
        if tags.setdefault((y, z), tag) != tag:
            raise InputError(f"maps keys {tags[y, z]!r} and {tag!r} name one pair")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InputError(f"maps[{tag!r}] must be a matrix")
        maps[(y, z)] = [
            [_decode_entry(x, f"maps[{tag!r}]") for x in row] for row in rows
        ]
    return AlgebraModule(algebra, dims, maps)


def module_loads(text: str, *, allow_large: bool = False) -> AlgebraModule:
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an int past the decoder's digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
    return module_from_json(data, allow_large=allow_large)
