"""The indent-2 writer of catx.chario against json.dumps(indent=2).

`_indented` is checked directly on every Python version, its memo of
shared dicts included, and `json_text` too, whichever way it was chosen
at import.
"""

import enum
import json
import random

import pytest

from catx import chario, cli
from catx.chario import _SHARED_PAD, _indented, json_text, module_dumps
from catx.incidence import build_incidence_algebra, interval_module
from catx.verify import SuiteConfig, default_types, report_dumps, run_suite


def reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def assert_written_as_json(value):
    want = reference(value)
    assert _indented(value, "", {}) + "\n" == want
    assert json_text(value) == want


@pytest.mark.parametrize("name", default_types(3))
def test_reports_of_every_check_up_to_rank_3(name):
    for check in ("biclosed", "filtration", "order-axioms"):
        report = run_suite(SuiteConfig(types=(name,), checks=(check,), seed=1))
        assert_written_as_json(report)
        assert report_dumps(report) == reference(report)


def test_algebra_report():
    assert_written_as_json(run_suite(SuiteConfig(checks=("algebra",), seed=1)))


@pytest.mark.parametrize("name", ["B4", "C4", "D4", "F4"])
def test_rank_4_full_only_filtration_reports(name):
    cfg = SuiteConfig(
        types=(name,), checks=("filtration",), itheta_mode="full-only",
        max_rank=4, seed=1,
    )
    assert_written_as_json(run_suite(cfg))


def test_failing_reports_of_the_rejected_convention():
    cfg = SuiteConfig(
        types=("A2", "B3", "C3", "G2"), checks=("filtration",),
        jprime_convention="i-minus-j", seed=1,
    )
    report = run_suite(cfg)
    assert report["overall_status"] == "fail"
    # the weights of a counterexample are written by their reprs
    texts = [
        text
        for r in report["records"] if r["counterexample"]
        for text in (r["counterexample"].get("diagnostic") or "",
                     *r["counterexample"].get("weight_diff", ()))
    ]
    assert any("[" in text and "{" in text for text in texts)
    assert_written_as_json(report)


def test_module_files():
    a = build_incidence_algebra(3)
    module = interval_module(a, frozenset({1}), frozenset({1, 2, 3}))
    assert module_dumps(module) == reference(chario.module_to_json(module))
    assert_written_as_json(chario.module_to_json(module))


def _cli_payloads(monkeypatch, capsys, tmp_path):
    """Every value the command line writes through json_text, with the
    text it wrote."""
    seen = []

    def spy(value):
        text = json_text(value)
        seen.append((value, text))
        return text

    monkeypatch.setattr(cli, "json_text", spy)
    ok_file = tmp_path / "ok.json"
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(
        {"type": "A2", "label": "theta", "itheta": [1, 2],
         "weights": [{"coset_rep": [], "v": [1], "mult": 1}]}
    ))
    module_file = tmp_path / "module.json"
    a = build_incidence_algebra(2)
    module = interval_module(a, frozenset(), frozenset({1, 2}))
    module_file.write_text(module_dumps(module))
    calls = [
        (["roots", "--type", "B3", "--json"], 0),
        (["weyl", "--type", "B3", "--elements", "--json"], 0),
        (["weyl", "--type", "G2", "--biclosed", "--json"], 0),
        (["char", "--type", "B3", "--kind", "nabla", "--j", "1,2", "--json",
          "--out", str(ok_file)], 0),
        (["decompose", "--in", str(ok_file), "--json"], 0),
        (["decompose", "--in", str(partial), "--json"], 1),
        (["algebra", "--n", "2", "--json"], 0),
        (["algebra", "--n", "2", "--module", str(module_file), "--json"], 0),
    ]
    for argv, code in calls:
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        if "--out" not in argv:
            assert out == seen[-1][1]
    return seen


def test_every_payload_of_the_command_line(monkeypatch, capsys, tmp_path):
    seen = _cli_payloads(monkeypatch, capsys, tmp_path)
    assert len(seen) == 7  # char writes through character_dumps
    for value, text in seen:
        assert text == reference(value)
        assert_written_as_json(value)
    decompose_ok, decompose_failed = (v for v, _ in seen[3:5])
    assert decompose_ok["ok"] is True and decompose_failed["ok"] is False
    assert "module file" in seen[-1][0]["decomposed"]


_ODD_TEXT = [
    "", "plain", "θé", "\U0001f600", '"quoted"', "back\\slash",
    "\x00\x01\x1f\x7f", "\t\n\r\b\f", "\ud800", "\udcff", "</script>",
]
_ODD_NUMBERS = [
    0, -1, 2**64, -(10**40), -0.0, 0.0, 1e16, 1e-7, 0.1, -2.5e300,
    float("nan"), float("inf"), float("-inf"), True, False, None,
]


def _random_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        if rng.random() < 0.5:
            return rng.choice(_ODD_NUMBERS)
        return rng.choice(_ODD_TEXT) + rng.choice(_ODD_TEXT)
    size = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.7:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    return {
        rng.choice(_ODD_TEXT) + str(k): _random_value(rng, depth - 1)
        for k in range(size)
    }


@pytest.mark.parametrize("seed", range(20))
def test_seeded_random_values(seed):
    rng = random.Random(seed)
    for _ in range(10):
        assert_written_as_json(_random_value(rng, 4))


def test_odd_scalars_and_empty_containers():
    # a tuple is written as json writes it, as a list
    containers = [[], {}, [[]], {"": {}}, [{}, []], (), (1, ("a", ()), [()])]
    for value in [*_ODD_TEXT, *_ODD_NUMBERS, *containers]:
        assert_written_as_json(value)
        assert_written_as_json([value, {"k": value}])


def _at(value, pad: str) -> str:
    """json.dumps(value, indent=2) starting on a line indented by pad."""
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


_DEEP = " " * _SHARED_PAD  # where a report's records hold their params


def _shared_values():
    """Values that hold one object more than once, each with the number
    of (dict, pad) pairs laid out when the value is written at _DEEP."""
    d = {"a": [1, 2]}
    yield {"x": d, "y": [d]}, 3  # the value, and one dict at two pads
    xs = [1, {"k": 2}]
    yield [xs, xs], 1  # one list twice at one pad, its dict once
    inner = [3, 4]
    shared = {"p": inner, "q": inner}
    # a shared list inside a shared dict, the dict at two pads, and {"r": ...}
    yield [shared, {"r": shared}, shared], 3
    t = (1, ("a",))
    yield {"a": t, "b": [t, t]}, 1  # a shared tuple: only the value is a dict
    e, f = {}, []
    yield [e, f, {"e": e, "f": f}, [e, f]], 1  # empty containers are not kept


@pytest.mark.parametrize(
    "value, laid_out",
    list(_shared_values()),
    ids=["dict-at-two-pads", "list-twice", "list-in-dict", "tuple", "empty"],
)
def test_shared_subobjects_are_written_as_json_writes_them(value, laid_out):
    assert_written_as_json(value)
    assert json_text([[[value, value]]]) == reference([[[value, value]]])
    # above _SHARED_PAD nothing is kept
    seen = {}
    assert _indented(value, "", seen) + "\n" == reference(value)
    assert seen == {}
    assert _indented(value, _DEEP, seen) == _at(value, _DEEP)
    # each shared dict is laid out once per pad it is written at
    assert len(seen) == laid_out
    assert all(len(pad) >= _SHARED_PAD for _, pad in seen)
    # and a second value at the same pad in one seen is written alike
    assert _indented([value, value], _DEEP, seen) == _at([value, value], _DEEP)


@pytest.mark.parametrize("convention", ["itheta-minus-j", "i-minus-j"])
def test_a_report_keeps_only_its_params_and_counterexamples(convention):
    # the records and the records list are not held until the call returns
    cfg = SuiteConfig(
        types=("B3",), checks=("filtration",), jprime_convention=convention, seed=1
    )
    report = run_suite(cfg)
    records = report["records"]
    seen = {}
    assert _indented(report, "", seen) + "\n" == reference(report)
    params = {id(r["params"]) for r in records}
    kept = set(params)
    for r in records:
        cx = r["counterexample"]
        if cx:
            kept.add(id(cx))
            kept.update(id(v) for v in cx.values() if type(v) is dict and v)
    assert {i for i, _ in seen} == kept
    # four records share each params dict, which is laid out once
    assert len(params) * 4 == len(records)


class _Colour(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        (1, "a", (2.5, None)),
        {1: "int key"},
        {None: 0},
        {(1, 2): 0},
        # A bare object's repr holds its address, so these two get fixed ids.
        pytest.param(object(), id="object()"),
        pytest.param([object()], id="[object()]"),
        {"k": {1, 2}},
        _Colour.RED,
        _Text("sub"),
        {_Text("k"): 1},
        b"bytes",
    ],
    ids=repr,
)
def test_other_types_match_json_or_raise_type_error(value):
    try:
        want = reference(value)
    except TypeError:
        want = None
    for write in (lambda v: _indented(v, "", {}) + "\n", json_text):
        try:
            got = write(value)
        except TypeError:
            continue
        assert got == want
