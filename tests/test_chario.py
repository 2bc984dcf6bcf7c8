import json
import sys
from fractions import Fraction as Q

import pytest

from catx import chario
from catx.charcalc import (
    FormalCharacter,
    ModuleCharacter,
    costandard_character,
    induced_character,
    simple_character,
    _word_rank,
)
from catx.chario import (
    _written_character,
    character_dumps,
    character_from_json,
    character_loads,
    character_to_json,
    module_dumps,
    module_loads,
)
from catx.errors import InputError, ResourceGuardError
from catx.incidence import build_incidence_algebra, regular_module
from catx.rootsystem import RootSystem, build_root_system
from catx.verify import default_types
from catx.weyl import group_table


def test_character_roundtrip_byte_identical():
    rs = build_root_system("B2")
    th = FormalCharacter("theta", frozenset([1, 2]))
    char = costandard_character(rs, th, [1])
    text = character_dumps(rs, char)
    loaded, base, warnings = character_loads(rs, text)
    assert warnings == []
    assert base == th
    assert loaded == char
    assert character_dumps(rs, loaded) == text


def test_character_empty_needs_base():
    rs = build_root_system("A2")
    th = FormalCharacter("theta", frozenset([1]))
    with pytest.raises(InputError):
        character_to_json(rs, ModuleCharacter())
    data = character_to_json(rs, ModuleCharacter(), base=th)
    assert data["weights"] == [] and data["itheta"] == [1]
    loaded, base, _ = character_loads(rs, json.dumps(data))
    assert not loaded and base == th


def test_character_noncanonical_rep_lenient_vs_strict():
    rs = build_root_system("A2")
    payload = {
        "type": "A2",
        "label": "theta",
        "itheta": [1],
        # s1 lies in the stabilizer subgroup, so the rep is not canonical
        "weights": [{"coset_rep": [1], "v": [], "mult": 1}],
    }
    text = json.dumps(payload)
    loaded, _, warnings = character_loads(rs, text)
    assert len(warnings) == 1 and "not canonical" in warnings[0]
    assert loaded.total() == 1
    assert all(w.tchar.is_untwisted for w in loaded.weights())
    with pytest.raises(InputError):
        character_loads(rs, text, strict=True)


def test_character_duplicate_weights_merge_or_fail():
    rs = build_root_system("A2")
    payload = {
        "type": "A2",
        "label": "theta",
        "itheta": [],
        "weights": [
            {"coset_rep": [], "v": [1], "mult": 1},
            {"coset_rep": [], "v": [1], "mult": 2},
        ],
    }
    text = json.dumps(payload)
    loaded, _, warnings = character_loads(rs, text)
    assert loaded.total() == 3 and len(loaded) == 1
    assert any("duplicates" in w for w in warnings)
    with pytest.raises(InputError):
        character_loads(rs, text, strict=True)


def test_character_writers_refuse_a_label_the_reader_refuses():
    rs = build_root_system("A2")
    for label in ("", "\ud800"):
        theta = FormalCharacter(label, frozenset([1]))
        for char, base in ((simple_character(rs, theta, [1]), None), (ModuleCharacter(), theta)):
            with pytest.raises(InputError):
                character_dumps(rs, char, base=base)
            with pytest.raises(InputError):
                character_to_json(rs, char, base=base)
    # a label from undecodable command-line bytes is written and read back
    theta = FormalCharacter("\udcff", frozenset([1]))
    text = character_dumps(rs, simple_character(rs, theta, [1]))
    assert character_loads(rs, text)[1] == theta


def test_character_writers_refuse_an_itheta_the_reader_refuses():
    # True == 1, so the character builds, but its file would say
    # "itheta": [true], which the reader refuses
    rs = build_root_system("A2")
    theta = FormalCharacter("t", frozenset({True}))
    for char, base in ((induced_character(rs, theta, []), None), (ModuleCharacter(), theta)):
        for write in (character_dumps, character_to_json):
            with pytest.raises(InputError, match="itheta must be a set of simple indices"):
                write(rs, char, base=base)
    # the same itheta of ints is written and read back
    theta = FormalCharacter("t", frozenset({1}))
    text = character_dumps(rs, induced_character(rs, theta, []))
    assert character_loads(rs, text)[1] == theta


def test_character_writers_refuse_a_character_over_another_system():
    # the words come from the character's own group, so the file would
    # name one type and hold the words of another
    b3, a3 = build_root_system("B3"), build_root_system("A3")
    theta = FormalCharacter("theta", frozenset([1, 2, 3]))
    char = costandard_character(b3, theta, [1])
    for write in (character_dumps, character_to_json):
        with pytest.raises(InputError, match="character is over B3, not A3"):
            write(a3, char)
    assert json.loads(character_dumps(b3, char))["type"] == "B3"
    # an empty character carries no words, so any system may record it
    assert character_to_json(a3, ModuleCharacter(), base=theta)["type"] == "A3"


def test_character_payload_validation():
    rs = build_root_system("A2")
    good = {"type": "A2", "label": "theta", "itheta": [], "weights": []}
    for corrupt in (
        {**good, "type": "B2"},
        {**good, "label": ""},
        {**good, "label": "\ud800"},
        {**good, "itheta": [9]},
        {**good, "itheta": "nope"},
        {**good, "itheta": [True]},
        {**good, "itheta": [1, False]},
        {**good, "weights": [{"coset_rep": [], "v": []}]},
        {**good, "weights": [{"coset_rep": [], "v": [], "mult": 0}]},
        {**good, "weights": [{"coset_rep": [], "v": [], "mult": True}]},
        {**good, "weights": [{"coset_rep": [], "v": ["x"], "mult": 1}]},
        {k: v for k, v in good.items() if k != "weights"},
    ):
        with pytest.raises(InputError):
            character_loads(rs, json.dumps(corrupt))
    with pytest.raises(InputError):
        character_loads(rs, "{not json")
    # the surrogateescape range carries undecodable command-line bytes
    text = json.dumps({**good, "label": "\udcff"})
    char, base, _ = character_loads(rs, text)
    assert base.label == "\udcff"
    assert character_dumps(rs, char, base=base) == json.dumps(
        {**good, "label": "\udcff"}, indent=2
    ) + "\n"


def weights_payload(itheta, *weights):
    return {
        "type": "A3",
        "label": "theta",
        "itheta": itheta,
        "weights": [{"coset_rep": r, "v": v, "mult": 1} for r, v in weights],
    }


def loaded_words(rs, payload, **kwargs):
    char, _, warnings = character_loads(rs, json.dumps(payload), **kwargs)
    return sorted((w.tchar.coset_rep.word, w.v.word) for w in char.weights()), warnings


def test_character_letters_are_checked_before_any_word_lookup():
    rs = build_root_system("A3")
    for bad in ([1.0], [2, 1.0], [0], [False], [4], [-1], [2**70], ["1"], [None], [[1]]):
        for weight in (([], bad), (bad, [])):
            with pytest.raises(InputError):
                character_from_json(rs, weights_payload([], weight))
    # 1.0 equals 1, so it is a simple index by equality; it must be
    # refused before the group table is walked with it
    with pytest.raises(InputError, match="list of simple indices"):
        character_from_json(rs, weights_payload([], ([], [1.0])))
    with pytest.raises(InputError, match="out of range"):
        character_from_json(rs, weights_payload([], ([2], [4])))
    # a bool is an int, and reads as one
    assert loaded_words(rs, weights_payload([], ([True], [2]))) == (
        [((1,), (2,))],
        [],
    )


def test_character_words_that_are_not_canonical_load_through_the_walk():
    rs = build_root_system("A3")
    # not reduced, and reduced but not the canonical word (s1 s3, whose
    # canonical word ends in its smallest right descent: 3 1)
    words, warnings = loaded_words(
        rs, weights_payload([], ([1, 1], [1, 2, 2]), ([1, 3], [2, 1, 2]))
    )
    assert words == [((), (1,)), ((3, 1), (1, 2, 1))]
    assert warnings == []
    # a non-reduced word whose element is not canonical for itheta warns,
    # names the canonical word, and raises under strict
    payload = weights_payload([1], ([2, 2, 1], []))
    words, warnings = loaded_words(rs, payload)
    assert words == [((), ())]
    assert warnings == [
        "weight #0: coset_rep [2, 2, 1] is not canonical; replaced by []"
    ]
    with pytest.raises(InputError, match="not canonical"):
        loaded_words(rs, payload, strict=True)
    # two spellings of one weight merge with a warning, and raise under strict
    payload = weights_payload([1], ([], [1, 3]), ([1], [3, 1, 2, 2]))
    char, _, warnings = character_loads(rs, json.dumps(payload))
    assert char.total() == 2 and len(char) == 1
    assert warnings == [
        "weight #1: coset_rep [1] is not canonical; replaced by []",
        "weight #1 duplicates an earlier entry; multiplicities merged",
    ]
    with pytest.raises(InputError, match="not canonical"):
        character_loads(rs, json.dumps(payload), strict=True)
    payload = weights_payload([], ([2], [1, 3]), ([2, 1, 1], [3, 1]))
    with pytest.raises(InputError, match="duplicates"):
        character_loads(rs, json.dumps(payload), strict=True)


def test_mixed_bases_rejected():
    rs = build_root_system("A2")
    th1 = FormalCharacter("theta", frozenset())
    th2 = FormalCharacter("eta", frozenset())
    c1 = costandard_character(rs, th1, [])
    c2 = costandard_character(rs, th2, [])
    with pytest.raises(InputError):
        character_to_json(rs, c1 + c2)
    with pytest.raises(InputError):
        character_to_json(rs, c1, base=th2)


def encoder_dumps(rs, char, base=None):
    """The character file as the json module's indent encoder writes it."""
    return json.dumps(character_to_json(rs, char, base=base), indent=2) + "\n"


def subsets_of(items):
    out = [frozenset()]
    for x in sorted(items):
        out += [s | {x} for s in out]
    return out


@pytest.mark.parametrize("name", ["A3", "B3", "C4"])
def test_character_dumps_matches_the_json_encoder(name):
    rs = build_root_system(name)
    for itheta in subsets_of(rs.simple_indices):
        theta = FormalCharacter("theta", itheta)
        for j in subsets_of(itheta):
            for build in (induced_character, simple_character, costandard_character):
                char = build(rs, theta, j)
                assert character_dumps(rs, char) == encoder_dumps(rs, char), (
                    build.__name__,
                    sorted(itheta),
                    sorted(j),
                )


def test_character_dumps_matches_the_json_encoder_on_odd_labels_and_empties():
    rs = build_root_system("B3")
    for label in ('say "hi"', "back\\slash", "tab\tnew\nline", "θ-ü-€-😀", "\x7f\x00"):
        for itheta in (frozenset(), frozenset({2}), frozenset({1, 2, 3})):
            theta = FormalCharacter(label, itheta)
            # the costandard character at J = itheta holds the weight with
            # two empty words
            for char in (
                costandard_character(rs, theta, itheta),
                induced_character(rs, theta, []),
            ):
                assert character_dumps(rs, char) == encoder_dumps(rs, char)
            empty = ModuleCharacter()
            assert character_dumps(rs, empty, base=theta) == encoder_dumps(
                rs, empty, base=theta
            )
            loaded, base, _ = character_loads(rs, character_dumps(rs, empty, base=theta))
            assert not loaded and base == theta


def decoded_loads(rs, text, **kwargs):
    """A character file read by decoding all of its text: the reader's
    path for any text that `character_dumps` did not write."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return character_from_json(rs, data, **kwargs)


def outcome(read, text, **kwargs):
    """What a reader gives on a text: the character with its system, the
    base and the warnings, or the type and message of its error."""
    try:
        char, base, warnings = read(None, text, **kwargs)
    except (InputError, ResourceGuardError) as exc:
        return type(exc).__name__, str(exc)
    return char, char._rs, base, warnings


def read_by_its_words(text, **kwargs):
    return _written_character(
        None, text, allow_large=False, expect_type=kwargs.get("expect_type")
    )


# escapes, non-ASCII text, and a byte the locale could not decode
_LABELS = ("theta", 'say "hi"\\', "tab\tnew\nline", "θ-ü-€-😀", "\udcff")


def assert_read_by_its_words(text, char, base):
    found = read_by_its_words(text)
    assert found is not None
    assert found == decoded_loads(None, text) == (char, base, [])
    assert found[0]._rs == char._rs
    assert character_loads(None, text, strict=True) == found
    assert character_dumps(char._rs, found[0], base=base) == text


@pytest.mark.parametrize("name", default_types(3))
def test_written_files_read_by_their_words_as_decoded(name):
    rs = build_root_system(name)
    k = 0
    for itheta in subsets_of(rs.simple_indices):
        for j in subsets_of(itheta):
            for build in (induced_character, simple_character, costandard_character):
                theta = FormalCharacter(_LABELS[k % len(_LABELS)], itheta)
                k += 1
                char = build(rs, theta, j)
                assert_read_by_its_words(character_dumps(rs, char, base=theta), char, theta)


@pytest.mark.parametrize("name", ["B4", "C4", "D4"])
def test_written_rank_4_files_read_by_their_words_as_decoded(name):
    rs = build_root_system(name)
    itheta = frozenset(rs.simple_indices)
    for k, j in enumerate(([], [1], [2, 4], [1, 3, 4], sorted(itheta))):
        theta = FormalCharacter(_LABELS[k], itheta)
        for build in (induced_character, simple_character, costandard_character):
            char = build(rs, theta, j)
            assert_read_by_its_words(character_dumps(rs, char, base=theta), char, theta)


@pytest.mark.parametrize("name", default_types(4))
def test_word_pieces_are_the_json_layout_of_each_word_by_rank(name):
    # built from each word's parent, not laid out word by word
    rs = build_root_system(name)
    words = group_table(rs).words
    rank = _word_rank(rs)
    pieces = chario._word_pieces(rs)
    assert len(pieces) == len(words)
    for a, word in enumerate(words):
        want = f": {chario._indented(list(word), '      ', {})}{chario._WORD_END}"
        assert pieces[rank[a]] == want, (name, word)
    assert chario._piece_ids(rs) == {pieces[rank[a]]: a for a in range(len(words))}


def multiplicity_cases():
    """Characters with multiplicities above one, each with its base: a
    family plus itself, a family plus another family, and a weight whose
    multiplicity has just fewer digits than the decoder reads."""
    rs = build_root_system("B3")
    theta = FormalCharacter("theta", frozenset({1, 2}))
    induced = induced_character(rs, theta, [])
    yield "family twice", induced + induced
    others = simple_character(rs, theta, [1]) + costandard_character(rs, theta, [2])
    yield "two families", induced + others
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    entries = dict(induced._entries[theta])
    entries[next(reversed(entries))] = int("7" * (limit - 1))
    yield "many digits", ModuleCharacter._of(rs, {theta: entries})


@pytest.mark.parametrize("chunk", ["default", 1])
def test_multiplicities_above_one_are_written_and_read_as_decoded(chunk, monkeypatch):
    if chunk != "default":  # every weight a chunk of its own
        monkeypatch.setattr(chario, "_CHUNK", chunk)
    for what, char in multiplicity_cases():
        rs, base = char._rs, next(iter(char._entries))
        assert max(char._entries[base].values()) > 1, what
        text = character_dumps(rs, char)
        assert text == encoder_dumps(rs, char), what
        assert_read_by_its_words(text, char, base)


def test_a_character_writes_over_an_equal_system_with_no_group_table_yet():
    rs = build_root_system("B3")
    theta = FormalCharacter("theta", frozenset({2}))
    char = induced_character(rs, theta, []) + simple_character(rs, theta, [])
    fresh = RootSystem(rs.cartan_type)
    assert fresh._weyl_table is None
    assert character_dumps(fresh, char) == encoder_dumps(rs, char)


def test_a_written_file_reads_over_a_system_with_no_group_table_yet():
    # as in a fresh process, which reads a file before it builds a table
    rs = build_root_system("B3")
    theta = FormalCharacter("theta", frozenset({2}))
    char = costandard_character(rs, theta, [])
    text = character_dumps(rs, char)
    fresh = RootSystem(rs.cartan_type)
    assert fresh._weyl_table is None
    found = _written_character(fresh, text, allow_large=False, expect_type=None)
    assert found == (char, theta, []) and found[0]._rs is fresh

def swap_lines(text, a, b):
    lines = text.split("\n")
    i, j = lines.index(a), lines.index(b)
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def edits_of(text):
    """Edits of a written file whose first weight has two empty words and
    multiplicity 1, with its itheta [1, 2]: none is a text the writer
    writes."""
    start_text = '    {\n      "coset_rep"'
    start = text.index(start_text)
    first = text[start : text.index("    }", start) + 5]
    assert first == '    {\n      "coset_rep": [],\n      "v": [],\n      "mult": 1\n    }'
    itheta = "[\n    1,\n    2\n  ]"
    yield "changed space", text.replace('"v": ', '"v":  ', 1)
    yield "changed header space", text.replace('"type": ', '"type":  ')
    yield "tab for spaces", text.replace("        ", "\t", 1)
    yield "changed first indent", text.replace(start_text, " " + start_text, 1)
    yield "changed first key indent", text.replace(start_text, start_text.replace(' "', '  "'), 1)
    second = text.index(start_text, start + 1)
    yield "changed second key indent", text[:second] + text[second:].replace(
        start_text, start_text.replace(' "', '  "'), 1
    )
    yield "bracket for a brace", text.replace(start_text, start_text.replace("{", "["), 1)
    for key in ('"coset_rep"', '"v"', '"mult"'):
        yield f"renamed {key}", text.replace(key + ":", '"u":', 1)
    yield "moved last brace", text[: -len("\n}\n")] + "}\n\n"
    yield "cut after the weights' bracket", text[: text.index('"weights": [') + 12]
    yield "empty weight", text[: text.index('"weights": [') + 12] + (
        "\n    {\n      \n    }\n  ]\n}\n"
    )
    yield "unclosed key", text[: -len("\n    }\n  ]\n}\n")] + (
        '\n    },\n    {\n      "x\n    }\n  ]\n}\n'
    )
    yield "last weight without words", text[: -len("\n  ]\n}\n")] + (
        ',\n    {\n      "x": 1\n    }\n  ]\n}\n'
    )
    yield "swapped weight keys", swap_lines(text, '      "coset_rep": [],', '      "v": [],')
    yield "swapped header keys", swap_lines(text, '  "type": "B3",', '  "label": "theta",')
    for letter in ("1.0", "true"):
        yield f"{letter} in a word", text.replace("\n        1", f"\n        {letter}", 1)
    for mult in ("0", "01", "-1", "+1", "1 ", "1" * 5000):
        yield f"mult {mult[:8]}", text.replace('"mult": 1\n', f'"mult": {mult}\n', 1)
    yield "non-canonical coset_rep", text.replace(
        '"coset_rep": [],', '"coset_rep": [\n        1\n      ],', 1
    )
    yield "duplicated weight", text.replace(first, f"{first},\n{first}", 1)
    yield "unsorted itheta", text.replace(itheta, "[\n    2,\n    1\n  ]")
    yield "repeated itheta", text.replace(itheta, "[\n    1,\n    1,\n    2\n  ]")
    yield "extra header key", text.replace('  "label"', '  "extra": 1,\n  "label"')
    yield "repeated header key", text.replace('  "label"', '  "type": "B3",\n  "label"')
    yield "extra weight key", text.replace('"mult": 1\n', '"mult": 1,\n      "x": 1\n', 1)
    yield "trailing text", text + "x"
    yield "trailing newline", text + "\n"
    yield "no final newline", text[:-1]
    yield "CRLF line ends", text.replace("\n", "\r\n")


@pytest.mark.parametrize("chunk", ["default", 1])
def test_edited_written_files_are_decoded_whole(chunk, monkeypatch):
    if chunk != "default":  # every weight a chunk of its own
        monkeypatch.setattr(chario, "_CHUNK", chunk)
    rs = build_root_system("B3")
    theta = FormalCharacter("theta", frozenset({1, 2}))
    char = induced_character(rs, theta, [])
    text = character_dumps(rs, char)
    assert_read_by_its_words(text, char, theta)
    edits = dict(edits_of(text))
    # every edit is a text of its own
    assert len(set(edits.values()) - {text}) == len(edits) == len(list(edits_of(text)))
    for what, edited in edits.items():
        assert read_by_its_words(edited) is None, what
        for strict in (False, True):
            assert outcome(character_loads, edited, strict=strict) == outcome(
                decoded_loads, edited, strict=strict
            ), (what, strict)
    # the edits reach the decoded path's own messages
    for what, message in (
        ("1.0 in a word", "list of simple indices"),
        ("mult 0", "mult must be a positive int"),
        ("mult 11111111", "invalid JSON: Exceeds the limit"),
        ("trailing text", "invalid JSON: Extra data"),
    ):
        assert message in outcome(character_loads, edits[what])[1], what
    warnings = outcome(character_loads, edits["non-canonical coset_rep"])[3]
    assert "not canonical" in warnings[0]


def test_written_files_with_a_header_error_give_the_decoded_error():
    rs = build_root_system("A2")
    theta = FormalCharacter("t", frozenset({1}))
    text = character_dumps(rs, induced_character(rs, theta, []))
    for edited, expect_type, error in (
        (text.replace('"A2"', '"a2"'), None, "payload is for type 'a2', expected A2"),
        (text.replace('"A2"', '"E8"'), None, "E8 has Weyl order"),
        (text.replace("[\n    1\n  ]", "[\n    3\n  ]"), None, "out of range"),
        (text.replace('"t"', '""'), None, "label must be a non-empty string"),
        (text, "B2", "but --type says 'B2'"),
        # in a text that does not decode, the decoder's error comes first
        (text.replace('"A2"', '"a2"') + "x", None, "invalid JSON: Extra data"),
    ):
        assert read_by_its_words(edited, expect_type=expect_type) is None
        got = outcome(character_loads, edited, expect_type=expect_type)
        assert error in got[1]
        assert got == outcome(decoded_loads, edited, expect_type=expect_type)


def test_module_roundtrip_byte_identical():
    a = build_incidence_algebra(2)
    mod = regular_module(a)
    text = module_dumps(mod)
    loaded = module_loads(text)
    assert loaded.signature() == mod.signature()
    assert module_dumps(loaded) == text


def test_module_roundtrip_with_fractions():
    from catx.incidence import AlgebraModule

    a = build_incidence_algebra(1)
    mod = AlgebraModule(
        a,
        {frozenset(): 1, frozenset({1}): 1},
        {(frozenset(), frozenset({1})): [[Q(1, 3)]]},
    )
    text = module_dumps(mod)
    assert '"1/3"' in text
    loaded = module_loads(text)
    assert loaded.covering_map(frozenset(), frozenset({1})) == [[Q(1, 3)]]
    assert module_dumps(loaded) == text


def test_module_payload_validation():
    good = json.loads(module_dumps(regular_module(build_incidence_algebra(1))))
    for corrupt in (
        {**good, "n": "one"},
        {**good, "dims": {"bad": 1}},
        {**good, "dims": {"[1]": -2}},
        {**good, "maps": {"[1]": [[1]]}},
        {**good, "maps": {"[]->[1]": [[True]]}},
        {**good, "maps": {"[]->[1]": [["1/0"]]}},
        {**good, "maps": {"[]->[1]": [5]}},
        {**good, "maps": {"[]->[1]": ["1"]}},
        {k: v for k, v in good.items() if k != "maps"},
    ):
        with pytest.raises(InputError):
            module_loads(json.dumps(corrupt))
    with pytest.raises(InputError):
        module_loads("[1,2]")
    # JSON true is a Python int, so an unchecked reader builds n=True;
    # each payload below loads once every true is written as 1
    for corrupt in (
        {"n": True, "dims": {"[]": 1}, "maps": {}},
        {"n": 1, "dims": {"[]": True}, "maps": {}},
        {"n": 1, "dims": {"[true]": 1}, "maps": {}},
        {"n": 1, "dims": {"[]": 1, "[1]": 1}, "maps": {"[]->[true]": [[1]]}},
    ):
        with pytest.raises(InputError):
            module_loads(json.dumps(corrupt))
        module_loads(json.dumps(corrupt).replace("true", "1"))


def test_module_reader_refuses_an_entry_spelled_twice():
    # a second spelling of one subset or covering pair used to replace the
    # first silently: dimension 2 at {1,2}, and a module with no map
    for payload, keys in (
        ({"n": 2, "dims": {"[1,2]": 1, "[2,1]": 2}, "maps": {}}, ("[1,2]", "[2,1]")),
        (
            {"n": 1, "dims": {"[]": 1, "[1]": 1},
             "maps": {"[]->[1]": [[1]], "[] -> [1]": [[0]]}},
            ("[]->[1]", "[] -> [1]"),
        ),
    ):
        with pytest.raises(InputError) as err:
            module_loads(json.dumps(payload))
        assert all(repr(k) in str(err.value) for k in keys), err.value
    # a non-canonical tag that occurs once still reads
    once = module_loads(json.dumps(
        {"n": 2, "dims": {"[2,1]": 1, "[1]": 1}, "maps": {"[1] -> [2,1]": [[1]]}}
    ))
    assert once.dims[frozenset({1, 2})] == 1
    assert once.covering_map(frozenset({1}), frozenset({1, 2})) == [[Q(1)]]


def test_algebra_command_refuses_a_module_entry_spelled_twice(tmp_path):
    from catx.cli import main

    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"n": 2, "dims": {"[1,2]": 1, "[2,1]": 2}, "maps": {}}))
    assert main(["algebra", "--n", "2", "--module", str(path)]) == 2
