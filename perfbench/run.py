"""catx benchmark runner.

    python3 perfbench/run.py --workload verify-r3 --seed 1 --seconds 36 --trace 0

Run from the root of a catx source tree.  Inputs are generated from
``--seed``; every repetition runs in a fresh single-threaded process
(``worker.py``) that imports catx from ``src/``, so set-up and memory
are measured per process.  Repetitions of the same inputs run one at a
time until the next one would end after ``--seconds`` (at least
``MIN_REPS``).  Times are in probe units (see ``worker.py``): each is
scaled by the speed of a fixed reference loop run beside it, because a
shared machine's slow phases last longer than a run.  Each request is
taken at its median over the repetitions.  ``--trace 1``
instead makes one untraced and one traced repetition and reports the
per-layer metrics of the traced one, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, the environment, and the report
digest.  See README.md in this directory for the workloads and what
each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("verify-r3", "verify-r4-group", "algebra-split", "char-roundtrip")

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
]

SETUP_SAMPLES = 6  # import-only processes at the start of a run
SETUP_PER_REP = 2  # and after each repetition, so the samples span the run
MIN_REPS = 2
MAX_REPS = 25
CHILD_TIMEOUT_S = 150.0  # the whole run must stay well inside 180 s


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(root: Path) -> dict:
    env = {
        "catx_version": None,
        "commit": "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "kernels_backend": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (root / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if got.returncode == 0:
            env["commit"] = got.stdout.strip()
    probe = (
        "import json, catx, importlib.util as u\n"
        "b = None\n"
        "if u.find_spec('catx.kernels'):\n"
        "    import catx.kernels as k; b = k.BACKEND\n"
        "print(json.dumps([catx.__version__, b]))\n"
    )
    got = subprocess.run(
        [sys.executable, "-s", "-c", probe], capture_output=True, text=True, env=child_env(root)
    )
    if got.returncode == 0:
        env["catx_version"], env["kernels_backend"] = json.loads(got.stdout)
    return env


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # Time the import the way an installed package is used: from cached
    # bytecode, which the discarded warm-up import writes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, root: Path, work: Path, args):
        self.root, self.work, self.args = root, work, args
        self.env = child_env(root)
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.n = 0
        # Processes take turns on the CPUs this run may use: on a shared
        # machine each CPU has slow phases of its own, and the median
        # over the repetitions then spans both.
        self.cpus = sorted(os.sched_getaffinity(0))

    def child(self, *, setup_only=False, trace=0, extra=()) -> dict:
        """Run one worker process to completion; returns its result plus
        its peak RSS and lifetime."""
        self.n += 1
        tag = str(self.n)
        result = self.work / f"result-{tag}.json"
        cmd = [
            sys.executable, "-s", str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--work", str(self.work), "--result", str(result), "--tag", tag,
            "--trace", str(trace), *extra,
        ]
        if setup_only:
            cmd.append("--setup-only")
        log = open(self.work / f"log-{tag}.txt", "w")
        t0 = time.monotonic()
        with log:
            cpu = self.cpus[self.n % len(self.cpus)]
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=log, stderr=log,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            )
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        proc.send_signal(signal.SIGKILL)
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.005)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        lifetime = time.monotonic() - t0
        if proc.returncode != 0 or not result.exists():
            tail = (self.work / f"log-{tag}.txt").read_text()[-2000:]
            return {"error": f"worker exit {proc.returncode}: {tail}", "lifetime": lifetime}
        res = json.loads(result.read_text())
        res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        res["lifetime"] = lifetime
        src = str((self.root / "src").resolve())
        if not str(Path(res["catx_file"]).resolve()).startswith(src):
            res["error"] = f"catx imported from {res['catx_file']}, not from {src}"
        return res


def write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "algebra-split":
        listing = []
        for k, case in enumerate(inputs.algebra_cases(seed)):
            name = f"module-{k:02d}.json"
            (work / name).write_text(json.dumps(case["module"], indent=1) + "\n")
            listing.append({"file": name, "expected": case["expected"]})
        (work / "expected.json").write_text(json.dumps(listing, indent=1) + "\n")
    elif workload == "char-roundtrip":
        (work / "queries.json").write_text(json.dumps(inputs.char_queries(seed), indent=1) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "catx" / "cli.py").is_file():
        print(f"error: {root} holds no catx source tree (src/catx)", file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_inputs(args.workload, args.seed, work)
    env = environment(root)
    run = Runner(root, work, args)

    # Warm-up: the first import in a fresh tree compiles the bytecode.
    run.child(setup_only=True)
    setups = [run.child(setup_only=True) for _ in range(SETUP_SAMPLES)]
    t_start = time.monotonic()
    reps: list[dict] = []
    traced = None
    if args.trace:
        reps.append(run.child())
        traced = run.child(trace=1)
    else:
        while len(reps) < MAX_REPS:
            reps.append(run.child())
            setups += [run.child(setup_only=True) for _ in range(SETUP_PER_REP)]
            elapsed = time.monotonic() - t_start
            per_rep = statistics.median(r["lifetime"] for r in reps)
            if "error" in reps[-1]:
                break
            if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
                break

    workers = reps + ([traced] if traced else [])
    errors = [c["error"] for c in setups + workers if "error" in c]
    good = [r for r in reps if "error" not in r]
    # A worker that died counts as one failed operation.
    attempted = sum(r.get("attempted", 1) for r in workers)
    failed = sum(r.get("failed", 1) if "error" not in r else 1 for r in workers)
    digests = sorted({r["digest"] for r in workers if "digest" in r and "error" not in r})
    if len(digests) > 1:
        errors.append(f"report digests differ between repetitions: {digests}")
    failures = [f for r in workers if "error" not in r for f in r["failures"]]
    correct = not errors and failed == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in errors + failures[:5]:
        print("FAILED " + msg.strip().replace("\n", " | ")[:1000])
    if digests:
        print(f"report digest {digests[0]}")

    metrics = {}
    if good and not args.trace:
        # Each request's latency, in probe units, is its median over
        # the repetitions.
        queries = [statistics.median(qs) for qs in zip(*(r["query_ms"] for r in good))]
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in setups + good if "error" not in c),
            "wall_s": sum(queries) / 1000.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "query_p50_ms": percentile(queries, 0.50),
            "query_p95_ms": percentile(queries, 0.95),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"repetitions {len(good)}  setup samples {len(setups) + len(good)}  requests {len(queries)}")
        print("repetition wall_s " + " ".join(repr(r["wall_s"]) for r in good))
        print("repetition unnormalised wall_s " + " ".join(repr(r["raw_wall_s"]) for r in good))
        raw_setup = statistics.median(c["raw_setup_s"] for c in setups + good if "error" not in c)
        print(f"unnormalised setup_s {raw_setup!r} s")
    elif good and "error" not in traced:
        layers = dict(traced["layers"])
        # Layer self times are not normalised, and the traced repetition
        # runs no probes inside its requests, so compare unnormalised.
        untraced = statistics.median(r["raw_wall_s"] for r in good)
        layers["trace.overhead_s"] = traced["raw_wall_s"] - untraced
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        (work / "counters.json").write_text(json.dumps(traced["counters"], indent=1) + "\n")
        print(f"unnormalised wall_s traced {traced['raw_wall_s']!r} s  untraced {untraced!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
