"""One benchmark repetition in a fresh process.

Imports catx (timing the import as set-up), runs one workload through
the public ``catx.cli`` entry point, checks every output against an
oracle that does not rest on catx's own pass/fail flags, and writes one
JSON result.  Started by ``run.py``; run it by hand as

    PYTHONPATH=src python3 perfbench/worker.py --workload char-roundtrip \
        --work perfbench/out/char-roundtrip-s1 --seed 1 --result r.json

after ``run.py`` has written the inputs into the work directory.
"""

import sys
import time

_t0 = time.perf_counter()
import catx.cli  # noqa: E402  (the import is the set-up being timed)

SETUP_RAW_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from functools import partial  # noqa: E402
from itertools import combinations  # noqa: E402
from pathlib import Path  # noqa: E402

# Speed normalisation.  The machines this runs on are shared, and their
# slow phases (up to about 1.8x, lasting from seconds to minutes) slow
# all interpreted code alike.  So the worker runs a reference probe, a
# fixed pure-Python loop that does not touch catx, in a block of
# PROBE_BLOCK after the import and after every request, and every
# PROBE_PERIOD_S from SIGALRM while a request runs.  Each time is
# reported in probe units: the time less the probes that ran inside it,
# times REF_PROBE_S over the median duration of the probes within
# PROBE_WINDOW_S of it.  REF_PROBE_S is about what one probe takes on a
# quiet two-vCPU Xeon VM, so the figures read roughly as quiet-machine
# seconds there.  The probe mixes tuple hashing in a dict with Fraction
# arithmetic, the two kinds of work catx does most.  On verify-r3 this
# took the spread of repetition times from 19% (unnormalised) to about
# 4%; probes at the request boundaries alone left 5%, and 7-10% on its
# longest calls.
REF_PROBE_HASHES = 1600
REF_PROBE_FRACTIONS = 80
REF_PROBE_S = 0.001
PROBE_BLOCK = 5
PROBE_PERIOD_S = 0.05
PROBE_WINDOW_S = 0.1

PROBES: list[tuple[float, float]] = []  # (start, end) of every probe


def reference_probe(*_signal_args) -> None:
    """Run the reference loop once and record when it ran."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(REF_PROBE_HASHES):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key)
    x = Fraction(1, 3)
    for i in range(1, REF_PROBE_FRACTIONS):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    PROBES.append((t0, time.perf_counter()))


def probe_block() -> None:
    for _ in range(PROBE_BLOCK):
        reference_probe()


def busy(t0: float, t1: float) -> float:
    """The time from t0 to t1, less the probes inside it."""
    return t1 - t0 - sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in PROBES)


def normalised(t0: float, t1: float) -> float:
    """busy(t0, t1) in probe units."""
    near = [b - a for a, b in PROBES if t0 - PROBE_WINDOW_S <= a and b <= t1 + PROBE_WINDOW_S]
    return busy(t0, t1) * REF_PROBE_S / statistics.median(near)


# Probes run only after the import, so that nothing they import is
# loaded before catx.
probe_block()
SETUP_S = normalised(_t0, _t0 + SETUP_RAW_S)

RANK3_TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")
# workload: (types, checks, extra arguments of every call)
VERIFY = {
    "verify-r3": (RANK3_TYPES, ("biclosed", "filtration", "order-axioms", "algebra"), ()),
    "verify-r4-group": (
        RANK3_TYPES + ("A4", "B4", "C4", "D4", "F4"),
        ("biclosed", "filtration"),
        ("--max-rank", "4", "--itheta-mode", "full-only"),
    ),
}
FAILURES_KEPT = 5


def call_cli(argv):
    """Run ``catx.cli.main`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = catx.cli.main(argv)
    return rc, out.getvalue()


def report_digest(texts) -> str:
    """sha256 of the reports without their run-dependent fields."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k not in ("generated_at", "wall_time_s")}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    reports = [strip(json.loads(text)) for text in texts]
    canon = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def verify_calls(workload: str, seed: int) -> list[list[str]]:
    """The verify sweep as one call per check and type, in the order
    ``catx verify`` runs them in one call (checks outer, types inner),
    so that the caches fill the same way.  The algebra check does not
    depend on the type, so it is one call."""
    types, checks, extra = VERIFY[workload]
    return [
        ["verify", "--types", t, "--checks", check, *extra, "--seed", str(seed)]
        for check in checks
        for t in (types[:1] if check == "algebra" else types)
    ]


def run_verify(args, res):
    calls = verify_calls(args.workload, args.seed)
    paths = [Path(args.work) / f"report-{args.tag}-{k}.json" for k in range(len(calls))]
    outputs = timed(res, [partial(call_cli, [*argv, "--out", str(path)])
                          for argv, path in zip(calls, paths)], in_call=not args.trace)
    failures, texts = [], []
    for k, (argv, path, got) in enumerate(zip(calls, paths, outputs)):
        if isinstance(got, Exception):
            failures.append(f"{argv} raised {got!r}")
            continue
        if not path.exists():
            failures.append(f"{argv} exit {got[0]}, wrote no report")
            continue
        text = path.read_text()
        if args.plant and k == 0:
            text = text.replace('"passed": true', '"passed": false', 1)
        texts.append(text)
        records = json.loads(text)["records"]
        bad = [r for r in records if r["passed"] is not True]
        if got[0] != 0 or not records or bad:
            first = bad[0]["params"] if bad else None
            failures.append(f"{argv} exit {got[0]}, {len(bad)} failing records, first {first}")
    res["attempted"] = len(calls)
    res["digest"] = report_digest(texts)
    return failures


def timed(res, requests, in_call=True) -> list:
    """Run the requests (callables) one after another, with a probe
    block after each and, if in_call, probes from SIGALRM inside each;
    store their latencies in probe units, and their sum, in res.
    Returns their outputs; a raise is the output of its request."""
    outputs, spans = [], []
    signal.signal(signal.SIGALRM, reference_probe)
    probe_block()
    for request in requests:
        if in_call:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            outputs.append(request())
        except Exception:  # a raise counts as a failed operation
            outputs.append(RuntimeError(traceback.format_exc(limit=-3)))
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        spans.append((t0, t1))
        probe_block()
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    query_s = [normalised(t0, t1) for t0, t1 in spans]
    res["raw_wall_s"] = sum(busy(t0, t1) for t0, t1 in spans)
    res["wall_s"] = sum(query_s)
    res["query_ms"] = [q * 1000 for q in query_s]
    return outputs


def expected_factors(q) -> list:
    """Closed-form decomposition: E gives {J}; nabla every subset of J;
    M every superset of J inside itheta; multiplicity one each."""
    itheta, j = q["itheta"], q["j"]
    if q["kind"] == "E":
        sets = [j]
    elif q["kind"] == "nabla":
        sets = [list(c) for k in range(len(j) + 1) for c in combinations(j, k)]
    else:
        rest = [i for i in itheta if i not in j]
        sets = [sorted(j + list(c)) for k in range(len(rest) + 1) for c in combinations(rest, k)]
    return sorted((sorted(s), 1) for s in sets)


def run_char(args, res):
    queries = json.loads((Path(args.work) / "queries.json").read_text())[: args.limit]
    path = str(Path(args.work) / f"char-{args.tag}.json")

    def request(k, q):
        argv = ["char", "--type", q["type"], "--kind", q["kind"],
                "--itheta", ",".join(map(str, q["itheta"])) or "none",
                "--j", ",".join(map(str, q["j"])) or "none", "--json", "--out", path]
        rc1, _ = call_cli(argv)
        if args.plant and k == 0:
            plant_char(path)
        rc2, text = call_cli(["decompose", "--in", path, "--json"])
        return rc1, rc2, text

    outputs = timed(res, [partial(request, k, q) for k, q in enumerate(queries)],
                    in_call=not args.trace)
    failures = []
    for q, got in zip(queries, outputs):
        problem = checked(check_char, q, got)
        if problem:
            failures.append(f"{q}: {problem}")
    res["attempted"] = len(queries)
    return failures


def plant_char(path):
    """Drop one weight from the written character: a wrong answer that
    the oracle must catch."""
    data = json.loads(Path(path).read_text())
    data["weights"] = data["weights"][1:]
    Path(path).write_text(json.dumps(data))


def checked(check, expected, got):
    """Run an oracle; output too malformed to inspect is a failure too."""
    try:
        return check(expected, got)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def check_char(q, got):
    if isinstance(got, Exception):
        return f"raised {got!r}"
    rc1, rc2, text = got
    if rc1 != 0 or rc2 != 0:
        return f"exit codes {rc1}, {rc2}"
    out = json.loads(text)
    factors = sorted((f["j"], f["mult"]) for f in out["factors"])
    if out["ok"] is not True or out["remainder_total"] != 0:
        return "decomposition not ok"
    if factors != expected_factors(q):
        return f"factors {factors}"
    if any(f["label"] != "theta" for f in out["factors"]):
        return "wrong label"
    return None


def run_algebra(args, res):
    work = Path(args.work)
    cases = json.loads((work / "expected.json").read_text())[: args.limit]

    def request(k, case):
        argv = ["algebra", "--n", "3", "--module", str(work / case["file"]),
                "--seed", str(args.seed), "--json"]
        rc, text = call_cli(argv)
        if args.plant and k == 0:
            text = plant_algebra(text)
        return rc, text

    outputs = timed(res, [partial(request, k, case) for k, case in enumerate(cases)],
                    in_call=not args.trace)
    failures = []
    for case, got in zip(cases, outputs):
        problem = checked(check_algebra, case["expected"], got)
        if problem:
            failures.append(f"{case['file']}: {problem}")
    res["attempted"] = len(cases)
    return failures


def plant_algebra(text):
    """Claim one summand twice too often: a wrong answer that the
    oracle must catch."""
    out = json.loads(text)
    out["summands"][0]["multiplicity"] += 1
    return json.dumps(out)


def check_algebra(expected, got):
    """The summands must be the generated intervals with their
    multiplicities, every one certified local."""
    if isinstance(got, Exception):
        return f"raised {got!r}"
    rc, text = got
    if rc != 0:
        return f"exit code {rc}"
    out = json.loads(text)
    found: dict[str, int] = {}
    for s in out["summands"]:
        if s["is_certified_local"] is not True:
            return "summand not certified local"
        key = json.dumps(s["dims"], sort_keys=True)
        found[key] = found.get(key, 0) + s["multiplicity"]
    if sorted([k, v] for k, v in found.items()) != expected:
        return f"summands {sorted(found.items())}"
    return None


RUNNERS = {
    "verify-r3": run_verify,
    "verify-r4-group": run_verify,
    "algebra-split": run_algebra,
    "char-roundtrip": run_char,
}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--work", default=".")
    p.add_argument("--result", required=True)
    p.add_argument("--tag", default="0", help="distinguishes the files of one repetition")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help="only time the import")
    p.add_argument("--limit", type=int, default=None, help="use only the first N inputs")
    p.add_argument("--plant", action="store_true", help="plant one wrong answer (self-test)")
    args = p.parse_args()
    res = {"setup_s": SETUP_S, "raw_setup_s": SETUP_RAW_S, "catx_file": catx.cli.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing

            tracer = tracing.install()
        res["attempted"] = 1
        try:
            failures = RUNNERS[args.workload](args, res)
        except Exception:  # the repetition as a whole failed: no timings
            res["error"] = traceback.format_exc(limit=-3)
            failures = [res["error"]]
        res["failed"] = len(failures)
        res["failures"] = failures[:FAILURES_KEPT]
        if tracer is not None:
            res["layers"] = tracer.metrics()
            res["counters"] = tracer.counters()
            tracer.write_spans(Path(args.work) / f"spans-{args.tag}.json")
    Path(args.result).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
