import csv
import io
import json
import os
import stat
import subprocess
import sys

import pytest

from catx.charcalc import FormalCharacter, costandard_character, simple_character
from catx.chario import character_dumps, module_dumps
from catx import cli
from catx.cli import build_parser, main
from catx.incidence import build_incidence_algebra, interval_module
from catx.rootsystem import build_root_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text_and_json(capsys, tmp_path):
    code, out, err = run_cli(capsys, "roots", "--type", "A2")
    assert code == 0
    assert "3 positive roots" in out and "group order 6" in out
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "--type", "B2", "--json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 4 and payload["weyl_order"] == 8
    assert [1, 1] in payload["positive_roots"]


def test_weyl_biclosed_json(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--type", "G2", "--biclosed", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 12
    assert payload["longest_word"] == [2, 1, 2, 1, 2, 1]
    assert payload["biclosed"] == {
        "count": 12,
        "witnessed": 12,
        "matches_group": True,
    }


def test_weyl_elements_listing(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--type", "A2", "--elements", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 6
    assert [] in payload["elements"]


def test_char_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "char", "--type", "A2", "--kind", "nabla", "--itheta", "all", "--j", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    rs = build_root_system("A2")
    th = FormalCharacter("theta", frozenset([1, 2]))
    expected = json.loads(character_dumps(rs, costandard_character(rs, th, [1])))
    assert payload == expected


def test_char_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--type", "B2", "--kind", "E", "--itheta", "1,2", "--j", ""
    )
    assert code == 0
    assert "E(theta, J=[])" in out and "1 weights" in out


def test_char_decompose_pipeline(capsys, tmp_path):
    char_file = tmp_path / "nabla.json"
    code, _, _ = run_cli(
        capsys,
        "char", "--type", "B2", "--kind", "nabla", "--itheta", "all", "--j", "1,2",
        "--json", "--out", str(char_file),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "decompose", "--in", str(char_file), "--json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["remainder_total"] == 0
    assert [f["j"] for f in payload["factors"]] == [[], [1], [2], [1, 2]]
    assert all(f["mult"] == 1 for f in payload["factors"])


def test_decompose_tie_breaks_agree(capsys, tmp_path):
    char_file = tmp_path / "full.json"
    run_cli(
        capsys,
        "char", "--type", "A2", "--kind", "M", "--itheta", "all", "--j", "",
        "--json", "--out", str(char_file),
    )
    payloads = []
    for tb in ("0", "1", "2"):
        code, out, _ = run_cli(
            capsys, "decompose", "--in", str(char_file), "--json", "--tie-break", tb
        )
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1] == payloads[2]


def test_decompose_partial_character_exits_1(capsys, tmp_path):
    bad = tmp_path / "partial.json"
    bad.write_text(
        json.dumps(
            {
                "type": "A2",
                "label": "theta",
                "itheta": [1, 2],
                "weights": [{"coset_rep": [], "v": [1], "mult": 1}],
            }
        )
    )
    code, out, _ = run_cli(capsys, "decompose", "--in", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["diagnostic"]
    assert payload["remainder_total"] >= 1


def test_decompose_lenient_vs_strict(capsys, tmp_path):
    # the rep word [1] is inside the stabilizer, so it canonicalizes away
    f = tmp_path / "noncanonical.json"
    f.write_text(
        json.dumps(
            {
                "type": "A2",
                "label": "theta",
                "itheta": [1, 2],
                "weights": [{"coset_rep": [1], "v": [], "mult": 1}],
            }
        )
    )
    code, out, err = run_cli(capsys, "decompose", "--in", str(f), "--json")
    assert code == 0
    assert "warning:" in err and "not canonical" in err
    assert json.loads(out)["ok"] is True
    code, _, err = run_cli(capsys, "decompose", "--in", str(f), "--strict")
    assert code == 2
    assert "error:" in err


def test_decompose_stdin(capsys, monkeypatch):
    rs = build_root_system("A1")
    th = FormalCharacter("theta", frozenset([1]))
    text = character_dumps(rs, costandard_character(rs, th, [1]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "decompose", "--in", "-", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_decompose_type_crosscheck(capsys, tmp_path):
    f = tmp_path / "char.json"
    f.write_text(
        json.dumps(
            {"type": "A2", "label": "theta", "itheta": [], "weights": []}
        )
    )
    code, _, err = run_cli(capsys, "decompose", "--in", str(f), "--type", "B2")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "decompose", "--in", str(tmp_path / "nope.json"))
    assert code == 2 and "no such file" in err


def test_decompose_empty_character_beyond_the_order_guard(capsys, tmp_path):
    # an empty character needs no group table, so E8 is never enumerated
    f = tmp_path / "char.json"
    f.write_text(json.dumps({"type": "E8", "label": "t", "itheta": [], "weights": []}))
    code, out, _ = run_cli(capsys, "decompose", "--in", str(f), "--json", "--allow-large")
    assert code == 0
    assert json.loads(out)["ok"] is True and json.loads(out)["factors"] == []


_EMPTY_A2 = '{"type": "A2", "label": "t", "itheta": [], "weights": []}'
_NONCANONICAL_A2 = (
    '{"type": "A2", "label": "t", "itheta": [1, 2],'
    ' "weights": [{"coset_rep": [1], "v": [], "mult": 1}]}'
)
_E8_GUARD = (
    "error: E8 has Weyl order 696729600 beyond the guard (10000000); "
    "pass allow_large=True to build anyway\n"
)
# in place of a file's text: no file at all, or a directory at its path
_NO_FILE = object()
_A_DIRECTORY = object()


@pytest.mark.parametrize(
    "text, extra, code, err",
    [
        pytest.param(
            "{", [], 2,
            "error: invalid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)\n",
            id="invalid-json",
        ),
        pytest.param(
            "[1]", [], 2, "error: character payload must be an object with a 'type'\n",
            id="non-object",
        ),
        pytest.param(
            '{"label": "t"}', [], 2,
            "error: character payload must be an object with a 'type'\n",
            id="no-type",
        ),
        pytest.param(
            _EMPTY_A2, ["--type", "B2"], 2,
            "error: payload is for type 'A2', but --type says 'B2'\n",
            id="type-mismatch",
        ),
        # the --type cross-check runs before the type is parsed
        pytest.param(
            '{"type": "Z9"}', ["--type", "A2"], 2,
            "error: payload is for type 'Z9', but --type says 'A2'\n",
            id="type-mismatch-before-unknown-type",
        ),
        pytest.param(
            '{"type": 5}', ["--type", "A2"], 2,
            "error: payload is for type 5, but --type says 'A2'\n",
            id="type-mismatch-before-bad-type",
        ),
        pytest.param(
            _EMPTY_A2.replace("A2", "Z9"), [], 2, "error: unknown family 'Z'\n",
            id="unknown-family",
        ),
        pytest.param(
            _EMPTY_A2.replace("A2", "XY"), [], 2,
            "error: cannot parse Cartan type 'XY'\n",
            id="unparsable-type",
        ),
        pytest.param(
            _EMPTY_A2.replace("A2", "E8"), [], 2, _E8_GUARD, id="oversize-type",
        ),
        # the order guard runs before the payload's other keys are read
        pytest.param('{"type": "E8"}', [], 2, _E8_GUARD, id="guard-before-missing-keys"),
        pytest.param(
            '{"type": "A2"}', [], 2,
            "error: character payload missing keys ['itheta', 'label', 'weights']\n",
            id="missing-keys",
        ),
        # a type that parses but is not written canonically: missing keys
        # win, and a complete payload fails the canonical-type check
        pytest.param(
            '{"type": "a2"}', [], 2,
            "error: character payload missing keys ['itheta', 'label', 'weights']\n",
            id="missing-keys-before-type-spelling",
        ),
        pytest.param(
            _EMPTY_A2.replace("A2", "a2"), [], 2,
            "error: payload is for type 'a2', expected A2\n",
            id="type-spelling",
        ),
        pytest.param(
            _EMPTY_A2.replace("[]}", "[5]}"), [], 2,
            "error: weight #0 must be an object\n",
            id="weight-not-object",
        ),
        pytest.param(
            _EMPTY_A2.replace("[]}", '[{"coset_rep": [], "v": [1]}]}'), [], 2,
            "error: weight #0 missing keys ['mult']\n",
            id="weight-missing-mult",
        ),
        pytest.param(
            _EMPTY_A2.replace("[]}", '[{"coset_rep": [], "v": [1], "mult": 0}]}'),
            [], 2, "error: weight #0: mult must be a positive int\n",
            id="weight-bad-mult",
        ),
        pytest.param(
            _EMPTY_A2.replace("[]}", '[{"coset_rep": [1.0], "v": [1.0], "mult": 1}]}'),
            [], 2, "error: weight #0: coset_rep must be a list of simple indices\n",
            id="weight-bad-coset-rep",
        ),
        pytest.param(
            _EMPTY_A2.replace("[]}", '[{"coset_rep": [], "v": [1.0], "mult": 1}]}'),
            [], 2, "error: weight #0: v must be a list of simple indices\n",
            id="weight-bad-v",
        ),
        pytest.param(
            _NONCANONICAL_A2, [], 0,
            "warning: weight #0: coset_rep [1] is not canonical; replaced by []\n",
            id="noncanonical-lenient",
        ),
        pytest.param(
            _NONCANONICAL_A2, ["--strict"], 2,
            "error: weight #0: coset_rep [1] is not canonical; replaced by []\n",
            id="noncanonical-strict",
        ),
        pytest.param(_EMPTY_A2, [], 0, "", id="empty-character"),
        pytest.param(
            '{"type": 5}', [], 2, "error: cannot parse Cartan type 5\n", id="type-int",
        ),
        pytest.param(
            '{"type": null}', [], 2, "error: cannot parse Cartan type None\n",
            id="type-null",
        ),
        pytest.param(
            '{"type": ["A2"]}', [], 2, "error: cannot parse Cartan type ['A2']\n",
            id="type-list",
        ),
        # PATH stands for the input path
        pytest.param(_NO_FILE, [], 2, "error: no such file: PATH\n", id="no-file"),
        pytest.param(
            _A_DIRECTORY, [], 2, "error: cannot read PATH: Is a directory\n",
            id="directory",
        ),
        pytest.param(
            b'{"type": "A2", "label": "\xff"}', [], 2,
            "error: cannot read PATH: not UTF-8 text (invalid start byte at byte 25)\n",
            id="not-utf8",
        ),
    ],
)
def test_decompose_error_contract(capsys, tmp_path, text, extra, code, err):
    f = tmp_path / "char.json"
    if text is _A_DIRECTORY:
        f.mkdir()
    elif isinstance(text, bytes):
        f.write_bytes(text)
    elif text is not _NO_FILE:
        f.write_text(text)
    got_code, _, got_err = run_cli(capsys, "decompose", "--in", str(f), "--json", *extra)
    assert (got_code, got_err) == (code, err.replace("PATH", str(f)))


def test_decompose_decodes_only_the_header_of_a_file_that_char_wrote(
    capsys, tmp_path, monkeypatch
):
    written = tmp_path / "nabla.json"
    run_cli(
        capsys,
        "char", "--type", "B2", "--kind", "nabla", "--j", "1,2",
        "--json", "--out", str(written),
    )
    text = written.read_text()
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(text)))
    loads = json.loads
    calls = []

    def counting_loads(s, *args, **kwargs):
        calls.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    runs = {}
    for path in (written, compact):
        calls.clear()
        code = main(["decompose", "--in", str(path), "--json"])
        runs[path] = code, capsys.readouterr().out, list(calls)
    monkeypatch.undo()
    # the file that catx char wrote: one decode, of its header alone
    code, out, [header] = runs[written]
    assert code == 0 and json.loads(out)["ok"] is True
    assert "weights" not in header and text.startswith(header[:-1])
    # any other layout: the whole text, decoded once, to the same output
    assert runs[compact] == (0, out, [compact.read_text()])


def test_integers_past_the_decoders_digit_limit_are_invalid_json(capsys, tmp_path):
    big = "1" * 5000
    rs = build_root_system("A2")
    char = simple_character(rs, FormalCharacter("t", frozenset()), [])
    f = tmp_path / "big.json"
    f.write_text(character_dumps(rs, char).replace('"mult": 1', f'"mult": {big}', 1))
    code, _, err = run_cli(capsys, "decompose", "--in", str(f))
    assert code == 2 and err.startswith("error: invalid JSON: Exceeds the limit")
    for payload, message in (
        ('{"n": 1, "dims": {"[]": %s}, "maps": {}}' % big, "invalid JSON: Exceeds the limit"),
        ('{"n": 1, "dims": {"[%s]": 1}, "maps": {}}' % big, "dims: bad subset key"),
    ):
        f.write_text(payload)
        code, _, err = run_cli(capsys, "algebra", "--n", "1", "--module", str(f))
        assert code == 2 and err.startswith(f"error: {message}"), err[:80]


def test_input_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "roots", "--type", "Z9")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "roots", "--type", "E8")
    assert code == 2 and "guard" in err
    code, _, err = run_cli(
        capsys, "char", "--type", "A2", "--kind", "M", "--itheta", "1", "--j", "2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "algebra", "--n", "9")
    assert code == 2


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "--type", "A2"])  # missing --kind
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--in", "x", "--tie-break", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--sample-triples", "5"])  # the order check is exhaustive
    assert exc.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(capsys, tmp_path):
    def fresh(argv):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
        return args.func(args)

    def shared(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    outcomes = {}
    for run in (shared, fresh):
        char_file = tmp_path / f"{run.__name__}.json"
        calls = [
            ["char", "--type", "A2"],  # missing --kind
            ["char", "--type", "B2", "--kind", "nabla", "--j", "1,2",
             "--json", "--out", str(char_file)],
            ["decompose", "--in", str(char_file), "--json"],
            # help, no command, an unknown command: the top-level parser
            ["char", "--help"],
            ["--help"],
            [],
            ["nope"],
            ["nope", "--type", "A1"],
            # extras after a command are refused by the top-level parser
            ["roots", "--type", "A1", "extra"],
            ["roots", "--type", "A1", "--bogus", "1"],
            ["roots", "--type", "A1", "--", "extra"],
            # abbreviated and --opt=value spellings, a choices rejection
            ["roots", "--ty", "A1"],
            ["roots", "--type=A2", "--js"],
            ["char", "--type", "A2", "--kind", "X"],
            ["decompose", "--in", str(char_file), "--tie-break", "3"],
            ["verify", "--types", "A1", "--checks", "biclosed", "--max-rank", "x"],
        ]
        got = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        outcomes[run.__name__] = (got, char_file.read_text())
        parser = cli._parser
        assert parser is not None and main(["roots", "--type", "A1"]) == 0
        assert cli._parser is parser
        capsys.readouterr()
    assert outcomes["shared"] == outcomes["fresh"]
    got = outcomes["shared"][0]
    (bad, bad_out, bad_err), (char_code, _, _), (dec_code, dec_out, _) = got[:3]
    assert (bad, char_code, dec_code) == (2, 0, 0)
    assert bad_out == "" and "--kind" in bad_err
    assert json.loads(dec_out)["ok"] is True
    assert [code for code, _, _ in got[3:]] == [0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 2, 2, 2]
    assert got[3][1].startswith("usage: catx char ")
    assert got[4][1].startswith("usage: catx ") and "{roots," in got[4][1]
    assert got[8][2].endswith("catx: error: unrecognized arguments: extra\n")
    assert got[11][1].startswith("type A1:") and got[12][1].startswith("{")


def test_verify_quick_pass(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    csv_file = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "verify", "--types", "A1", "--max-rank", "1",
        "--out", str(report_file), "--csv", str(csv_file),
    )
    assert code == 0
    assert "overall: pass" in out
    assert "biclosed: 1 checks, all pass" in out
    report = json.loads(report_file.read_text())
    assert report["overall_status"] == "pass"
    assert len(report["records"]) == 37
    csv_lines = csv_file.read_text().strip().split("\n")
    assert csv_lines[0] == "check,params,passed,counterexample,wall_time_s"
    assert len(csv_lines) == 38


def test_verify_failing_convention(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--types", "A2", "--checks", "filtration",
        "--jprime-convention", "i-minus-j",
    )
    assert code == 1
    assert "overall: fail" in out
    assert "FAILED" in out


def test_verify_rejects_bad_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
    assert code == 2 and "unknown checks" in err


def test_algebra_regular_json(capsys):
    code, out, _ = run_cli(capsys, "algebra", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["radical_series"] == [1, 0]
    assert payload["cartan_determinant"] == "1"
    assert payload["heredity_passed"] is True
    assert [(s["total_dim"], s["multiplicity"], s["is_certified_local"])
            for s in payload["summands"]] == [(2, 1, True), (1, 1, True)]


def test_algebra_module_file(capsys, tmp_path):
    a = build_incidence_algebra(2)
    mod = interval_module(a, frozenset(), frozenset({1, 2}))
    f = tmp_path / "mod.json"
    f.write_text(module_dumps(mod))
    code, out, _ = run_cli(capsys, "algebra", "--n", "2", "--module", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposed"].startswith("module file")
    assert [(s["total_dim"], s["multiplicity"]) for s in payload["summands"]] == [(4, 1)]
    code, _, err = run_cli(capsys, "algebra", "--n", "1", "--module", str(f))
    assert code == 2 and "over n=2" in err


def test_algebra_module_file_with_a_non_list_row_exits_2(capsys, tmp_path):
    a = build_incidence_algebra(2)
    payload = json.loads(module_dumps(interval_module(a, frozenset(), frozenset({1}))))
    payload["maps"] = {"[]->[1]": [5]}
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "algebra", "--n", "2", "--module", str(f))
    assert (code, err) == (2, "error: maps['[]->[1]'] must be a matrix\n")


def test_unreadable_inputs_and_unwritable_outputs_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "algebra", "--n", "2", "--module", str(tmp_path))
    assert (code, err) == (2, f"error: cannot read {tmp_path}: Is a directory\n")
    missing = tmp_path / "missing" / "out.json"
    for argv in (
        ["roots", "--type", "A2", "--out"],
        ["verify", "--types", "A1", "--checks", "biclosed", "--out"],
        ["verify", "--types", "A1", "--checks", "biclosed", "--csv"],
    ):
        code, _, err = run_cli(capsys, *argv, str(missing))
        assert (code, err) == (
            2, f"error: cannot write {missing}: No such file or directory\n"
        )
        code, _, err = run_cli(capsys, *argv, str(tmp_path))
        assert (code, err) == (2, f"error: cannot write {tmp_path}: Is a directory\n")
    assert not missing.parent.exists()


def test_decompose_stdin_must_be_utf8_like_a_file(capsys, monkeypatch, tmp_path):
    # UTF-8 mode gives sys.stdin the surrogateescape handler, which would
    # let the 0xff byte through as a lone surrogate
    data = b'{"type": "A2", "label": "\xff", "itheta": [], "weights": []}'
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "decompose", "--in", "-", "--json")
    assert (code, out) == (2, "")
    assert err == "error: cannot read stdin: not UTF-8 text (invalid start byte at byte 25)\n"
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    code, _, err = run_cli(capsys, "decompose", "--in", str(f), "--json")
    assert (code, err) == (
        2, f"error: cannot read {f}: not UTF-8 text (invalid start byte at byte 25)\n"
    )


def test_decompose_refuses_a_label_that_cannot_be_written(capsys, tmp_path):
    # valid JSON, but a lone surrogate outside the surrogateescape range
    # has no bytes: writing the text report would raise UnicodeEncodeError
    f = tmp_path / "bad.json"
    f.write_text('{"type": "A2", "label": "\\ud800", "itheta": [], "weights": '
                 '[{"coset_rep": [], "v": [], "mult": 1}]}')
    code, out, err = run_cli(capsys, "decompose", "--in", str(f), "--out", str(tmp_path / "o"))
    assert (code, out, err) == (2, "", "error: label '\\ud800' is not encodable text\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "label, message",
    [
        ("", "label must be a non-empty string"),
        ("\ud800", "label '\\ud800' is not encodable text"),
    ],
)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_char_refuses_a_label_that_decompose_refuses(capsys, tmp_path, label, message, mode):
    # the file would be written, and then refused by its reader
    f = tmp_path / "e.json"
    argv = ["char", "--type", "A2", "--kind", "E", "--itheta", "1", "--j", "1"]
    code, out, err = run_cli(capsys, *argv, "--label", label, *mode, "--out", str(f))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not f.exists()


def test_decompose_refuses_a_bool_in_itheta(capsys, tmp_path):
    # true is an int to isinstance, and would be read as index 1 and then
    # written back as "j": [true]
    f = tmp_path / "c.json"
    argv = ["char", "--type", "A2", "--kind", "nabla", "--itheta", "1", "--j", "1"]
    code, _, _ = run_cli(capsys, *argv, "--json", "--out", str(f))
    assert code == 0
    payload = json.loads(f.read_text())
    assert payload["itheta"] == [1]
    f.write_text(json.dumps({**payload, "itheta": [True]}))
    code, out, err = run_cli(capsys, "decompose", "--in", str(f), "--json")
    assert (code, out, err) == (2, "", "error: itheta must be a list of simple indices\n")


def test_a_label_from_undecodable_argv_bytes_round_trips(capsys, tmp_path):
    # the bytes b"\xff" of a command line reach argv as "\udcff"
    char_file, text_file = tmp_path / "c.json", tmp_path / "d.txt"
    argv = ["char", "--type", "A2", "--kind", "E", "--itheta", "1", "--j", "1"]
    code, _, _ = run_cli(capsys, *argv, "--label", "\udcff", "--json", "--out", str(char_file))
    assert code == 0 and '"label": "\\udcff"' in char_file.read_text()
    code, _, err = run_cli(capsys, "decompose", "--in", str(char_file), "--out", str(text_file))
    assert (code, err) == (0, "")
    assert text_file.read_bytes().endswith(b"  E(\xff, [1]) x 1\n")


def test_rewriting_an_out_path_with_shorter_text_leaves_no_stale_tail(capsys, tmp_path):
    char_file = tmp_path / "c.json"
    code, _, _ = run_cli(
        capsys, "char", "--type", "B3", "--kind", "nabla", "--itheta", "all",
        "--j", "1,2", "--json", "--out", str(char_file),
    )
    assert code == 0
    long_size = char_file.stat().st_size
    code, _, _ = run_cli(
        capsys, "char", "--type", "A2", "--kind", "E", "--itheta", "1", "--j", "1",
        "--json", "--out", str(char_file),
    )
    assert code == 0
    rs = build_root_system("A2")
    expected = character_dumps(
        rs, simple_character(rs, FormalCharacter("theta", frozenset([1])), [1])
    )
    assert len(expected) < long_size
    assert char_file.read_text(encoding="utf-8") == expected
    code, out, err = run_cli(capsys, "decompose", "--in", str(char_file), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == "A2"


def test_verify_csv_over_a_longer_file_leaves_no_stale_tail(capsys, tmp_path):
    csv_file = tmp_path / "report.csv"
    csv_file.write_text("~" * 100_000)
    code, _, _ = run_cli(
        capsys, "verify", "--types", "A1", "--checks", "biclosed", "--csv", str(csv_file)
    )
    assert code == 0
    text = csv_file.read_text(encoding="utf-8")
    assert "~" not in text and text.endswith("\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["check", "params", "passed", "counterexample", "wall_time_s"]
    assert len(rows) > 1 and all(len(r) == 5 and r[2] == "pass" for r in rows[1:])


@pytest.mark.parametrize("old_size", [0, 99, 100, 101, 100_000])
def test_out_leaves_exactly_the_new_bytes(tmp_path, old_size):
    out = tmp_path / "f.txt"
    if old_size:
        out.write_bytes(b"~" * old_size)
    cli._emit("\u03b8" * 50, str(out))  # 100 bytes of UTF-8
    assert out.read_bytes() == "\u03b8".encode() * 50


def test_out_to_devnull_keeps_the_device(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "A2", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_through_a_symlink_writes_the_target(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("~" * 10_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "roots", "--type", "B2", "--json", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["weyl_order"] == 8


def test_out_keeps_the_mode_of_a_file_and_creates_one_as_open_does(capsys, tmp_path):
    existing = tmp_path / "existing.txt"
    existing.write_text("~" * 10_000)
    existing.chmod(0o640)
    code, _, _ = run_cli(capsys, "roots", "--type", "A2", "--out", str(existing))
    assert code == 0
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    assert existing.read_text().startswith("type A2:")
    created = tmp_path / "created.txt"
    code, _, _ = run_cli(capsys, "roots", "--type", "A2", "--out", str(created))
    assert code == 0
    reference = tmp_path / "reference.txt"
    reference.write_text("")
    assert stat.S_IMODE(created.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_out_writes_utf8_under_a_non_utf8_locale(capsys, tmp_path):
    argv = ["char", "--type", "A2", "--kind", "E", "--itheta", "1", "--j", "1",
            "--label", "\u03b8"]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and "\u03b8" in expected
    out = tmp_path / "f.txt"
    out.write_text("~" * 10_000)
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-m", "catx.cli", *argv, "--out", str(out)],
        capture_output=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected.encode("utf-8")


def test_algebra_allow_large_lifts_the_size_guard(capsys, tmp_path):
    a = build_incidence_algebra(7, allow_large=True)
    f = tmp_path / "simple.json"
    f.write_text(module_dumps(interval_module(a, frozenset(), frozenset())))
    code, _, err = run_cli(capsys, "algebra", "--n", "7", "--module", str(f))
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(
        capsys, "algebra", "--n", "7", "--module", str(f), "--allow-large", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2187
    assert [(s["total_dim"], s["multiplicity"]) for s in payload["summands"]] == [(1, 1)]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "catx.cli", "roots", "--type", "A2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_importing_the_cli_loads_no_unused_modules():
    # in a fresh interpreter: the test process itself has imported these
    unused = ("dataclasses", "inspect", "csv", "datetime", "argparse", "gettext")
    proc = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys, catx.cli; print([m for m in {unused!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_exact_command_lines_never_load_argparse(tmp_path):
    # in a fresh interpreter: an exact call of each command is read by
    # catx itself, and only help (or any other argv) builds the parser
    script = """
import contextlib, io, sys
from catx.cli import main
calls = [
    ["roots", "--type", "A2", "--json"],
    ["weyl", "--type", "B2", "--elements"],
    ["char", "--type", "A2", "--kind", "nabla", "--j", "1", "--json", "--out", sys.argv[1]],
    ["decompose", "--in", sys.argv[1], "--tie-break", "2", "--json"],
    ["verify", "--types", "A1", "--checks", "biclosed", "--max-rank", "1", "--seed", "1"],
    ["algebra", "--n", "2", "--seed", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(codes, "argparse" in sys.modules, "gettext" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        main(["--help"])
    except SystemExit as exc:
        code = exc.code
print(code, out.getvalue().startswith("usage: catx"), "argparse" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] False False\n0 True True\n"
