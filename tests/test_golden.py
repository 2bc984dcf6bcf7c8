"""Pinned digests of command-line outputs.

The outputs must stay byte-identical apart from timings whatever the
group layer computes with, and whichever way minimal polynomials are
factored.  Each group-layer digest is the sha256 of the output as written
by the permutation-only group code; each incidence digest, of the output
as written when sympy factored every minimal polynomial.
"""

import hashlib
import json
import time

import pytest

from catx.cli import main
from catx.verify import SuiteConfig, run_suite


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def without_timings(x):
    if isinstance(x, dict):
        return {
            k: without_timings(v)
            for k, v in x.items()
            if k not in ("generated_at", "wall_time_s")
        }
    if isinstance(x, list):
        return [without_timings(v) for v in x]
    return x


def test_weyl_f4_elements_digest(capsys):
    assert main(["weyl", "--type", "F4", "--elements", "--json"]) == 0
    assert (
        sha256(capsys.readouterr().out)
        == "9255d40276ad086fdd946469827f85c67a5068d7523d92413a83e93fd4993e38"
    )


def test_verify_rank2_records_digest(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--max-rank", "2", "--seed", "1", "--out", str(report)]) == 0
    records = without_timings(json.loads(report.read_text())["records"])
    assert len(records) == 217
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canon) == "57cd9295562d102f9f21b1bdb83083b51ad2d478d207431f9ecc0076a46c0bc3"


def test_verify_rank4_records_digest(tmp_path, capsys):
    # every check on every type up to rank 4: the B4, C4 and F4 order rows too
    report = tmp_path / "report.json"
    assert main(["verify", "--max-rank", "4", "--seed", "1", "--out", str(report)]) == 0
    records = without_timings(json.loads(report.read_text())["records"])
    assert len(records) == 2377
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canon) == "c9dbf605d5546cd27ef63fb4962c58b0725e7cbe42c6c601ffa7d64e82b43a3e"


def test_verify_d4_rank4_records_digest(tmp_path):
    # the rank-4 weight ids under the filtration and order checks
    report = tmp_path / "report.json"
    argv = ["verify", "--types", "D4", "--max-rank", "4"]
    argv += ["--checks", "filtration,order-axioms", "--seed", "1", "--out", str(report)]
    assert main(argv) == 0
    records = without_timings(json.loads(report.read_text())["records"])
    assert len(records) == 356
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canon) == "99cdfed2a5dfbd49635db3145544c43cdc6cffcbb20c3740f519cec5465a7b46"


@pytest.mark.parametrize(
    "cartan, digest",
    [
        ("A5", "6028618d40c473086d9ba488438d08712f3847dd6561ca316119165b6be0ad40"),
        ("D5", "7135f405778281d9ca72d40c99dd3ea89f82c1157546d1b81ea8c58a25e0cb95"),
        ("B5", "57d1b92dd6c15495fea48a73ddad5a335d922051023ef9a6f4e996730adc301f"),
    ],
)
def test_verify_rank5_records_digest(tmp_path, cartan, digest):
    # rank 5 past the order guard, under a budget: the filtration sweep
    # and the order check of every itheta
    report = tmp_path / "report.json"
    argv = ["verify", "--types", cartan, "--max-rank", "5", "--allow-large"]
    argv += ["--checks", "filtration,order-axioms", "--seed", "1", "--out", str(report)]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 30.0
    records = without_timings(json.loads(report.read_text())["records"])
    assert len(records) == 1036
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canon) == digest


def test_rejected_convention_records_digest():
    # a failing sweep: the multiset differences, the counting sides and
    # the decomposition diagnostics of the rejected convention
    cfg = SuiteConfig(
        types=("A2", "B3", "C3", "G2"),
        checks=("filtration",),
        jprime_convention="i-minus-j",
    )
    records = without_timings(run_suite(cfg)["records"])
    assert len(records) == 288
    failing = {r["check"] for r in records if not r["passed"]}
    assert failing == {
        "costandard-decomposition",
        "filtration-counting",
        "filtration-multiset",
    }
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canon) == "27d330b23b5b008938b5369e1365fd0a14d221d77b9671384aa0abda07f13134"


def rank6_filtration_digest(tmp_path, cartan, budget):
    # rank 6, under a budget: the sweep runs on the slices of the families
    # at the identity coset, |W_itheta| weights each, not |W|
    report = tmp_path / "report.json"
    argv = ["verify", "--types", cartan, "--checks", "filtration", "--max-rank", "6"]
    argv += ["--allow-large", "--seed", "1", "--out", str(report)]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < budget
    records = without_timings(json.loads(report.read_text())["records"])
    assert len(records) == 2916
    return sha256(json.dumps(records, sort_keys=True, separators=(",", ":")))


def test_verify_d6_filtration_records_digest(tmp_path):
    assert (
        rank6_filtration_digest(tmp_path, "D6", 6.0)
        == "3543c03c923accaddfdb43532f563a4c480e57e6b9b3a604d1f528eeade82050"
    )


def test_verify_e6_filtration_records_digest(tmp_path):
    assert (
        rank6_filtration_digest(tmp_path, "E6", 10.0)
        == "b03b7888dc42265e9f49f1ceb518cc7a31e59003ca2dad8c387cb9be19446772"
    )


@pytest.mark.parametrize(
    "cartan, kind, itheta, j, digest",
    [
        (
            "B3", "M", "all", "none",
            "ec1106eed35207fc9f281852f24aa2f9fc96099926f48eb995e80ea10fde5f1b",
        ),
        (
            "C4", "nabla", "1,2,4", "2,4",
            "16f7ce2779c722abd6b19a906edfa3e1c9860c5a54c571e53d3d8c5bcb0a55fc",
        ),
        (
            "D4", "E", "all", "2",
            "b37f9ed5462441219a75002507cb5fef3c176eceabf941c03b8c936a76c04a6d",
        ),
    ],
)
def test_char_decompose_round_trip_digest(tmp_path, capsys, cartan, kind, itheta, j, digest):
    path = tmp_path / "char.json"
    argv = ["char", "--type", cartan, "--kind", kind, "--itheta", itheta, "--j", j]
    assert main([*argv, "--json", "--out", str(path)]) == 0
    written = path.read_text()
    assert main(["decompose", "--in", str(path), "--json"]) == 0
    decomposed = capsys.readouterr().out
    assert json.loads(decomposed)["ok"] is True
    assert sha256(written + decomposed) == digest


@pytest.mark.parametrize(
    "n, digest",
    [
        (2, "f2e71e1a9ed39c6ef291b332fea8c9e2734741e8b6c3e727e833fe7fbeca61e9"),
        (3, "15663c8c25b6e6c337a2dd3746402d5534bc001ab52befcc7ced95404e19dabb"),
    ],
)
def test_algebra_regular_split_digest(capsys, n, digest):
    assert main(["algebra", "--n", str(n), "--json"]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_algebra_n4_regular_split_digest(capsys):
    # past the size guard, under a budget: the 81-dimensional regular
    # module splits along its support into the 16 projectives, and only
    # their one-dimensional hom spaces are solved
    t0 = time.perf_counter()
    assert main(["algebra", "--n", "4", "--allow-large", "--json"]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert (
        sha256(capsys.readouterr().out)
        == "e6785b7bb4f857b95ff710f41c918799fdf97e30ce5f26496a79fe43a32713dc"
    )
