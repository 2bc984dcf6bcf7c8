"""Pins on catx's six small value classes.

`CartanType`, `FormalCharacter`, `TwistedCharacter` and `Weight` are
immutable values: memo keys, set members and dict keys.  `Decomposition`
and `SuiteConfig` are mutable records.  These tests hold what callers,
memo lookups and the report format rely on: the constructor, the repr,
equality and hash over the field tuple, immutability, and the report
fields built from a `SuiteConfig`.
"""

import copy
import pickle
import re
from datetime import datetime, timezone

import pytest

from catx.charcalc import (
    Decomposition,
    FormalCharacter,
    ModuleCharacter,
    TwistedCharacter,
    Weight,
)
from catx.rootsystem import CartanType, build_root_system
from catx.verify import CHECKS, SuiteConfig, report_to_csv, run_suite
from catx.weyl import element_from_word


def _frozen_cases():
    """(class, field names, field values) for each immutable class."""
    rs = build_root_system("A2")
    theta = FormalCharacter("theta", frozenset({1}))
    tc = TwistedCharacter(theta, element_from_word(rs, [2]))
    return [
        (CartanType, ("family", "rank"), ("B", 3)),
        (FormalCharacter, ("label", "itheta"), ("theta", frozenset({1}))),
        (TwistedCharacter, ("base", "coset_rep"), (theta, element_from_word(rs, [2]))),
        (Weight, ("tchar", "v"), (tc, element_from_word(rs, [1]))),
    ]


def test_frozen_classes_construct_positionally_and_by_keyword():
    for cls, names, values in _frozen_cases():
        a = cls(*values)
        assert tuple(getattr(a, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == a


def test_frozen_classes_compare_and_hash_by_their_field_tuple():
    for cls, _, values in _frozen_cases():
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(values)
        # equal only to the same class, never to the bare tuple
        assert a != values and not a == values
        assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert CartanType("B", 3) != CartanType("C", 3)
    assert FormalCharacter("t", frozenset({1})) != FormalCharacter("t", frozenset())
    assert FormalCharacter("t", frozenset()) != FormalCharacter("u", frozenset())


def test_frozen_classes_refuse_assignment_and_deletion():
    for cls, names, values in _frozen_cases():
        a = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, values[0])
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert tuple(getattr(a, name) for name in names) == values


def test_frozen_classes_copy_and_pickle_as_values():
    for cls, _, values in _frozen_cases():
        a = cls(*values)
        assert copy.copy(a) == a and copy.deepcopy(a) == a
    for cls, _, values in _frozen_cases()[:2]:
        a = cls(*values)
        assert pickle.loads(pickle.dumps(a)) == a


def test_reprs():
    cases = {
        cls: cls(*values) for cls, _, values in _frozen_cases()
    }
    assert repr(cases[CartanType]) == "CartanType(family='B', rank=3)"
    assert str(cases[CartanType]) == "B3"
    assert repr(cases[FormalCharacter]) == "theta|{1}"
    assert repr(cases[TwistedCharacter]) == "theta|{1}^W[2]"
    assert repr(cases[Weight]) == "(theta|{1}^W[2], W[1])"
    theta = cases[FormalCharacter]
    dec = Decomposition({(theta, frozenset({1})): 2}, ModuleCharacter(), "stuck")
    assert repr(dec) == (
        "Decomposition(factors={(theta|{1}, frozenset({1})): 2}, "
        "remainder=ModuleCharacter({}), diagnostic='stuck')"
    )
    assert repr(SuiteConfig(types=("A1",), max_rank=1)) == (
        "SuiteConfig(types=('A1',), checks=('biclosed', 'filtration', "
        "'order-axioms', 'algebra'), itheta_mode='all-subsets', max_rank=1, "
        "seed=1729, jprime_convention='itheta-minus-j', theta_label='theta', "
        "allow_large=False)"
    )


def test_decomposition_is_a_mutable_unhashable_record():
    d = Decomposition()
    assert d.factors == {} and not d.remainder and d.diagnostic is None and d.ok
    # each instance gets its own default dict and character
    other = Decomposition()
    assert other.factors is not d.factors and other.remainder is not d.remainder
    theta = FormalCharacter("t", frozenset())
    d.factors[(theta, frozenset())] = 1
    assert other.factors == {}
    d.diagnostic = "stuck"
    assert not d.ok
    assert d == Decomposition({(theta, frozenset()): 1}, ModuleCharacter(), "stuck")
    assert d == Decomposition(
        factors={(theta, frozenset()): 1}, remainder=ModuleCharacter(), diagnostic="stuck"
    )
    assert d != Decomposition({(theta, frozenset()): 1})
    assert d != ({(theta, frozenset()): 1}, ModuleCharacter(), "stuck")
    with pytest.raises(TypeError):
        hash(d)


def test_suite_config_is_a_mutable_unhashable_record():
    cfg = SuiteConfig(types=["A1"], max_rank=1)
    assert cfg.types == ("A1",) and cfg.checks == CHECKS
    positional = SuiteConfig(
        ("A1",), CHECKS, "all-subsets", 1, 1729, "itheta-minus-j", "theta", False
    )
    assert cfg == positional
    assert cfg != SuiteConfig(types=("A1",), max_rank=1, seed=7)
    cfg.seed = 7
    assert cfg == SuiteConfig(types=("A1",), max_rank=1, seed=7)
    with pytest.raises(TypeError):
        hash(cfg)
    # the default types follow max_rank
    assert SuiteConfig(max_rank=2).types == ("A1", "A2", "B2", "C2", "G2")


def test_report_config_block_and_timestamp():
    report = run_suite(SuiteConfig(types=("A1",), checks=("biclosed",), max_rank=1))
    assert list(report) == [
        "report_schema", "tool_version", "generated_at", "stabilizer_model",
        "config", "records", "overall_status",
    ]
    assert list(report["config"].items()) == [
        ("types", ["A1"]),
        ("checks", ["biclosed"]),
        ("itheta_mode", "all-subsets"),
        ("max_rank", 1),
        ("seed", 1729),
        ("jprime_convention", "itheta-minus-j"),
        ("theta_label", "theta"),
        ("allow_large", False),
    ]
    stamp = report["generated_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    age = datetime.now(timezone.utc) - datetime.fromisoformat(stamp)
    assert 0 <= age.total_seconds() < 60


def test_report_to_csv_text():
    report = {
        "records": [
            {
                "check": "biclosed",
                "params": {"type": "A1", "n_positive_roots": 1},
                "passed": True,
                "counterexample": None,
                "wall_time_s": 0.25,
            },
            {
                "check": "filtration",
                "params": {"type": "A2", "itheta": [1, 2]},
                "passed": False,
                "counterexample": {"why": 'a "quoted", text'},
                "wall_time_s": 1.5,
            },
        ]
    }
    assert report_to_csv(report) == (
        "check,params,passed,counterexample,wall_time_s\n"
        'biclosed,"{""n_positive_roots"": 1, ""type"": ""A1""}",pass,,0.25\n'
        'filtration,"{""itheta"": [1, 2], ""type"": ""A2""}",fail,'
        '"{""why"": ""a \\""quoted\\"", text""}",1.5\n'
    )
