import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catx
import catx.incidence
import catx.verify
from catx.errors import InputError, ResourceGuardError
from catx.verify import (
    ALGEBRA_DIM_MAX,
    CHECKS,
    REPORT_SCHEMA_ID,
    SuiteConfig,
    default_types,
    report_dumps,
    report_to_csv,
    run_suite,
)


def strip_run_dependent(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out.pop("generated_at")
    for rec in out["records"]:
        rec.pop("wall_time_s")
    return out


def test_default_types():
    assert default_types(1) == ("A1",)
    assert default_types(2) == ("A1", "A2", "B2", "C2", "G2")
    assert "C3" in default_types(3) and "F4" in default_types(4)


def test_suite_config_validation():
    with pytest.raises(InputError):
        SuiteConfig(checks=("nope",))
    with pytest.raises(InputError):
        SuiteConfig(checks=())
    with pytest.raises(InputError):
        SuiteConfig(itheta_mode="some")
    with pytest.raises(InputError):
        SuiteConfig(max_rank=0)
    with pytest.raises(ResourceGuardError):
        SuiteConfig(max_rank=5)
    with pytest.raises(InputError):
        SuiteConfig(types=("A4",), max_rank=3)
    cfg = SuiteConfig(max_rank=2)
    assert cfg.types == default_types(2)
    # a bool is an int to isinstance, but no rank or seed
    for bad in ({"max_rank": True}, {"seed": True}, {"max_rank": 2.0}, {"seed": "1"}):
        with pytest.raises(InputError):
            SuiteConfig(**bad)


def test_suite_config_reads_ranks_without_building_root_systems(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SuiteConfig built a root system")

    monkeypatch.setattr(catx.verify, "build_root_system", refuse)
    cfg = SuiteConfig(types=("E6", "A1"), max_rank=6, allow_large=True)
    assert cfg.types == ("E6", "A1")
    for types, message in (
        (("XY",), "cannot parse Cartan type 'XY'"),
        (("Z9",), "unknown family 'Z'"),
        (("A0",), "invalid rank 0 for family A"),
        (("A4",), "type A4 has rank 4 above max rank 3"),
    ):
        with pytest.raises(InputError, match=message):
            SuiteConfig(types=types, max_rank=3)


def test_algebra_check_builds_each_algebra_once(monkeypatch):
    built = []
    build = catx.incidence.build_incidence_algebra

    def counting(n, **kwargs):
        built.append(n)
        return build(n, **kwargs)

    # verify imports it from catx.incidence where the algebra records run
    monkeypatch.setattr(catx.incidence, "build_incidence_algebra", counting)
    records = catx.verify._algebra_records(SuiteConfig(types=("A1",), checks=("algebra",)))
    assert built == list(range(ALGEBRA_DIM_MAX + 1))
    assert len(records) == 7 + 6 + 5 + 2


def test_run_suite_a1_all_checks():
    report = run_suite(SuiteConfig(types=("A1",), max_rank=1))
    assert report["report_schema"] == REPORT_SCHEMA_ID
    assert report["tool_version"] == catx.__version__
    assert report["overall_status"] == "pass"
    assert set(report["config"]["checks"]) == set(CHECKS)
    records = report["records"]
    # 1 biclosed + (4 + 8) filtration + 4 order + 20 algebra
    assert len(records) == 37
    assert all(r["passed"] for r in records)
    assert all(r["counterexample"] is None for r in records)
    assert all(isinstance(r["wall_time_s"], float) for r in records)
    keys = [(r["check"], json.dumps(r["params"], sort_keys=True)) for r in records]
    assert keys == sorted(keys)


def test_run_suite_record_counts_rank2():
    report = run_suite(SuiteConfig(max_rank=2))
    assert len(report["records"]) == 217
    assert report["overall_status"] == "pass"


def test_full_only_mode():
    cfg = SuiteConfig(types=("A2",), checks=("filtration",), itheta_mode="full-only")
    report = run_suite(cfg)
    assert len(report["records"]) == 16
    assert all(r["params"]["itheta"] == [1, 2] for r in report["records"])


def test_rejected_convention_reported_as_failure():
    cfg = SuiteConfig(
        types=("A2",), checks=("filtration",), jprime_convention="i-minus-j"
    )
    report = run_suite(cfg)
    assert report["overall_status"] == "fail"
    failing = [r for r in report["records"] if not r["passed"]]
    assert failing
    assert all(r["counterexample"] is not None for r in failing)


def test_an_unknown_jprime_convention_is_refused_up_front():
    for checks in (("biclosed",), ("filtration",), ("biclosed", "filtration")):
        with pytest.raises(InputError, match="bogus"):
            SuiteConfig(types=("A1",), checks=checks, jprime_convention="bogus")


def test_report_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(catx.__file__).parent / "report_schema.json").read_text()
    )
    report = run_suite(SuiteConfig(types=("A1",), max_rank=1))
    jsonschema.validate(report, schema)
    bad = dict(report)
    bad.pop("overall_status")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    stale = dict(report, config=dict(report["config"], sample_triples=10000))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(stale, schema)


def test_report_deterministic_modulo_timestamps():
    cfg1 = SuiteConfig(types=("A2",), checks=("filtration", "order-axioms"))
    cfg2 = SuiteConfig(types=("A2",), checks=("filtration", "order-axioms"))
    r1 = strip_run_dependent(run_suite(cfg1))
    r2 = strip_run_dependent(run_suite(cfg2))
    assert r1 == r2


# The report families whose records must not depend on the hash seed,
# each with the exit code it must give: the full rank-3 run; the
# filtration sweep's per-subgroup slice tables and the order rows at
# rank 4; and the rejected convention, which fails on purpose, with its
# counterexamples at rank 3 and, read off the family bitsets, at rank 4.
HASH_SEED_FAMILIES = {
    "hash": (["--max-rank", "3"], 0),
    "slices": (
        ["--types", "B4,C4,D4,F4", "--checks", "filtration,order-axioms", "--max-rank", "4"],
        0,
    ),
    "rejected": (
        ["--types", "A2,B3,C3,G2", "--checks", "filtration", "--jprime-convention", "i-minus-j"],
        1,
    ),
    "rejected4": (
        ["--types", "B4,C4,D4,F4", "--checks", "filtration", "--max-rank", "4",
         "--jprime-convention", "i-minus-j"],
        1,
    ),
}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    reports = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        for name, (argv, code) in HASH_SEED_FAMILIES.items():
            out = tmp_path / f"{name}{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "catx.cli", "verify", *argv, "--seed", "1",
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (proc.returncode, proc.stderr) == (code, ""), (name, seed)
            reports[name, seed] = strip_run_dependent(json.loads(out.read_text()))
    for name in HASH_SEED_FAMILIES:
        # as texts, so that the order of keys counts too
        assert json.dumps(reports[name, "0"]) == json.dumps(reports[name, "1"]), name
    failing = [r for r in reports["rejected4", "0"]["records"] if not r["passed"]]
    assert failing and all(r["counterexample"] for r in failing)


def test_report_dumps_and_csv():
    report = run_suite(SuiteConfig(types=("A1",), checks=("biclosed",)))
    text = report_dumps(report)
    assert text.endswith("\n")
    assert json.loads(text) == report
    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "check,params,passed,counterexample,wall_time_s"
    assert len(lines) == 1 + len(report["records"])
    assert lines[1].startswith("biclosed,")
    assert ",pass," in lines[1]


def test_a_type_is_verified_once_under_its_canonical_name():
    assert SuiteConfig(types=("a2", " b3")).types == ("A2", "B3")
    for types in (("a2", "A2"), ("A2", "a2 ")):
        with pytest.raises(InputError, match="list one type twice"):
            SuiteConfig(types=types)
    report = run_suite(SuiteConfig(types=("a2",), checks=("biclosed", "filtration")))
    assert {r["params"]["type"] for r in report["records"]} == {"A2"}
    assert report["config"]["types"] == ["A2"]
    from catx.cli import main

    assert main(["verify", "--types", "a2,A2", "--checks", "biclosed,filtration"]) == 2


def memo_kinds(rs) -> dict[str, set]:
    """The keys of a root system's memo that name a builder and an
    argument, grouped by the builder's name."""
    kinds: dict[str, set] = {}
    for key in rs._weyl_memo:
        if isinstance(key, tuple):
            kinds.setdefault(key[0].__name__, set()).add(key[1])
    return kinds


def test_filtration_sweep_keeps_no_table_per_itheta(monkeypatch):
    from catx.charcalc import _descent_classes, _subgroup_bits
    from catx.cli import main
    from catx.rootsystem import CartanType, RootSystem

    # the filtration reads the slices off the per-system bitsets: the
    # descent classes and the standard subgroups, and no per-itheta table
    fresh = RootSystem(CartanType.parse("D4"))
    monkeypatch.setattr(catx.verify, "build_root_system", lambda t, **kw: fresh)
    report = run_suite(SuiteConfig(types=("D4",), checks=("filtration",), max_rank=4))
    assert report["overall_status"] == "pass"
    assert {_descent_classes, _subgroup_bits} <= fresh._weyl_memo.keys()
    assert "_weight_ids" not in memo_kinds(fresh)
    # the order check enumerates its universe from the coset factorisation
    # and keeps no per-itheta table either
    fresh = RootSystem(CartanType.parse("D4"))
    report = run_suite(
        SuiteConfig(types=("D4",), checks=("filtration", "order-axioms"), max_rank=4)
    )
    assert report["overall_status"] == "pass"
    kinds = memo_kinds(fresh)
    assert {_descent_classes, _subgroup_bits} <= fresh._weyl_memo.keys()
    assert not {"_weight_ids", "_coset_mins", "_coset_parts"} & kinds.keys()
    # the rejected convention runs on the full families: one weight list
    # per itheta mask
    fresh = RootSystem(CartanType.parse("D4"))
    run_suite(
        SuiteConfig(types=("D4",), checks=("filtration",), max_rank=4,
                    jprime_convention="i-minus-j")
    )
    assert memo_kinds(fresh).get("_weight_ids") == set(range(16))
    monkeypatch.undo()
    args = ["verify", "--types", "D4", "--checks", "filtration,order-axioms", "--max-rank", "4"]
    assert main(args) == 0


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_every_per_system_table_is_memoised_on_its_own_system(name, monkeypatch, tmp_path):
    from catx import rootsystem
    from catx.cli import main
    from catx.rootsystem import CartanType, RootSystem
    from catx.weyl import per_system, weyl_subgroup

    # every function that per_system returns runs the one memo's code
    memoised = per_system(len).__code__

    def is_table(f):
        return getattr(f, "__code__", None) is memoised

    def exercise(rs):
        monkeypatch.setattr(rootsystem, "_cached_system", lambda t, allow_large: rs)
        report = run_suite(SuiteConfig(types=(name,), max_rank=rs.rank))
        assert report["overall_status"] == "pass"
        written, compact = tmp_path / "char.json", tmp_path / "compact.json"
        for kind, itheta, j in (("M", "all", "none"), ("E", "1,3", "1"), ("nabla", "2", "2")):
            args = ["char", "--type", name, "--kind", kind, "--itheta", itheta, "--j", j]
            assert main([*args, "--json", "--out", str(written)]) == 0
            # a compact copy is not the writer's layout, so it is decoded whole
            compact.write_text(json.dumps(json.loads(written.read_text())))
            out = tmp_path / "dec.json"
            for path in (written, compact):
                assert main(["decompose", "--in", str(path), "--json", "--out", str(out)]) == 0
                assert json.loads(out.read_text())["ok"]

    # an equal system, exercised first, so that any cache that outlives a
    # call holds its objects
    other = RootSystem(CartanType.parse(name))
    exercise(other)
    before = dict(other._weyl_memo)
    fresh = RootSystem(CartanType.parse(name))
    exercise(fresh)
    memo = fresh._weyl_memo
    for key in memo:
        assert is_table(key) or (type(key) is tuple and len(key) == 2 and is_table(key[0]))
    names = {(key[0] if isinstance(key, tuple) else key).__name__ for key in memo}
    assert {"kept_masks", "_word_rank", "_descent_classes", "_subgroup_bits",
            "_weight_ids", "_supports", "_descent_counts", "_every_candidate",
            "_word_pieces", "_piece_ids"} <= names
    # an index set is one key however it is listed
    assert weyl_subgroup(fresh, [2, 1]) is weyl_subgroup(fresh, (1, 2))
    assert sum(isinstance(k, tuple) and k[0].__name__ == "_subgroup"
               and k[1] == frozenset({1, 2}) for k in memo) == 1
    # nothing the fresh system did reached the equal one's memo
    assert other._weyl_memo.keys() == before.keys()
    assert all(other._weyl_memo[k] is v for k, v in before.items())


def planted_classes(fault):
    """`charcalc._descent_classes` with one fault planted, in the class
    lists and the bitsets alike: the first (shortest) element of the
    largest class is dropped, or moved into class 0."""
    from catx import charcalc

    build = charcalc._descent_classes

    def faulty(rs):
        lists = [list(xs) for xs in build(rs)[0]]
        largest = max(range(len(lists)), key=lambda d: len(lists[d]))
        x = lists[largest].pop(0)
        if fault == "move":
            lists[0] = sorted(lists[0] + [x])
        n = len(charcalc.group_table(rs).elements)
        return lists, [charcalc._bitset(xs, n) for xs in lists]

    return faulty


@pytest.mark.parametrize("fault", ["drop", "move"])
def test_a_broken_descent_class_table_fails_the_filtration_records(fault, monkeypatch):
    from catx import charcalc

    monkeypatch.setattr(charcalc, "_descent_classes", planted_classes(fault))
    report = run_suite(SuiteConfig(checks=("filtration",), max_rank=3))
    failing: dict[str, int] = {}
    for r in report["records"]:
        if not r["passed"]:
            failing[r["check"]] = failing.get(r["check"], 0) + 1
    for check in ("filtration-counting", "costandard-decomposition", "projective-pattern"):
        assert failing.get(check), (fault, failing)
    # the multiset record reads both of its sides from the same classes,
    # so it passes by construction under the adopted convention
    assert "filtration-multiset" not in failing, (fault, failing)
    monkeypatch.undo()
    assert run_suite(SuiteConfig(checks=("filtration",), max_rank=3))["overall_status"] == "pass"


@pytest.mark.parametrize("convention", ["itheta-minus-j", "i-minus-j"])
def test_records_are_in_the_reference_order_at_rank_4(convention):
    # the sort key encodes each shared params object once; the reference
    # encodes every record's params afresh
    cfg = SuiteConfig(max_rank=4, jprime_convention=convention, seed=1)
    records = run_suite(cfg)["records"]
    assert {r["check"] for r in records} >= {
        "biclosed", "filtration-multiset", "order-transitive", "algebra-dimension"
    }
    reference = sorted(
        records, key=lambda r: (r["check"], json.dumps(r["params"], sort_keys=True))
    )
    assert records == reference
    assert [id(r) for r in records] == [id(r) for r in reference]


@pytest.mark.parametrize("convention", ["itheta-minus-j", "i-minus-j"])
def test_the_four_filtration_records_of_a_j_share_one_params_object(convention):
    cfg = SuiteConfig(
        types=("A3", "B3", "G2"), checks=("filtration",), jprime_convention=convention
    )
    by_params: dict[int, list[dict]] = {}
    for r in run_suite(cfg)["records"]:
        by_params.setdefault(id(r["params"]), []).append(r)
    keys, itheta_lists = set(), {}
    for group in by_params.values():
        assert sorted(r["check"] for r in group) == [
            "costandard-decomposition", "filtration-counting",
            "filtration-multiset", "projective-pattern",
        ]
        params = group[0]["params"]
        keys.add((params["type"], tuple(params["itheta"]), tuple(params["j"])))
        itheta_lists.setdefault(
            (params["type"], tuple(params["itheta"])), set()
        ).add(id(params["itheta"]))
    # one object per (type, itheta, J), and no two J share one
    assert len(keys) == len(by_params)
    assert len(by_params) == sum(3**r for r in (3, 3, 2))
    # and the J of one itheta share one itheta list
    assert all(len(ids) == 1 for ids in itheta_lists.values())
    assert len(itheta_lists) == sum(2**r for r in (3, 3, 2))


def test_the_order_records_share_the_params_they_are_given():
    from catx.charcalc import _order_verdict

    params = {"type": "A2", "itheta": [1]}
    refl, trans = _order_verdict([0b10, 0], params, str)
    assert refl["passed"] and trans["passed"]
    assert refl["params"] is params
    # the transitive record adds its fields to a new dict over the same
    # itheta list
    assert trans["params"] is not params
    assert trans["params"]["itheta"] is params["itheta"]
    assert trans["params"]["triples_checked"] == 0
