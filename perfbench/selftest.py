"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Run from the root of a catx source tree.  Checks that one seed always
yields the same inputs, that two traced repetitions of one input give
identical work counters and report digests, that a planted wrong answer
is counted as a failure on every workload kind, and that BENCHMARK.json
names the same workloads and metrics as the code.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

# Small slices keep the self-test short; verify-r3 runs whole.
LIMITS = {"verify-r3": None, "algebra-split": 4, "char-roundtrip": 30}
SEED = 3

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def runner(root: Path, workload: str) -> run.Runner:
    work = HERE / "out" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.write_inputs(workload, SEED, work)
    return run.Runner(root, work, argparse.Namespace(workload=workload, seed=SEED))


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "catx" / "cli.py").is_file():
        print(f"error: {root} holds no catx source tree (src/catx)", file=sys.stderr)
        return 2

    for seed in (1, 2):
        a = json.dumps([inputs.algebra_cases(seed), inputs.char_queries(seed)])
        b = json.dumps([inputs.algebra_cases(seed), inputs.char_queries(seed)])
        check(a == b, f"seed {seed} yields the same inputs twice")
    check(
        inputs.char_queries(1) != inputs.char_queries(2)
        and inputs.algebra_cases(1) != inputs.algebra_cases(2),
        "different seeds yield different inputs",
    )

    for workload, limit in LIMITS.items():
        r = runner(root, workload)
        extra = () if limit is None else ("--limit", str(limit))
        first, second = (r.child(trace=1, extra=extra) for _ in range(2))
        ok = "error" not in first and "error" not in second
        check(ok and first["failed"] == 0 and second["failed"] == 0,
              f"{workload}: traced repetitions pass their oracles")
        if ok:
            check(first["counters"] == second["counters"],
                  f"{workload}: counters repeat exactly across traced runs")
            if "digest" in first:
                check(first["digest"] == second.get("digest"),
                      f"{workload}: report digests repeat exactly")
        planted = r.child(extra=(*extra, "--plant"))
        check("error" not in planted and planted["failed"] == 1,
              f"{workload}: a planted wrong answer counts as one failure")

    spec_path = root / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
              "BENCHMARK.json declares only workloads of run.py")
        check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
              "BENCHMARK.json lists the end-to-end metrics of run.py")
        check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER,
              "BENCHMARK.json lists the per-layer metrics of tracer.py")

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
