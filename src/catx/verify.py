"""Verification sweeps with machine-readable reports.

A suite run is configured by SuiteConfig, executes a chosen set of
checks over a chosen family of types, and returns one JSON-ready report:
metadata, the exact configuration, one record per individual check with
its parameters and an explicit counterexample on failure, and an
overall status.  Records are sorted canonically; the only
run-dependent fields are the timestamp and the wall times, each the
time of the batch of records that one call produced (`_timed`).
`report_dumps` writes a report as json.dumps(indent=2) does, through
`chario.json_text`.

Records are read-only.  The four filtration records of one (type,
itheta, J) share one params object, and the records of one itheta its
itheta list, so the canonical sort encodes, and `json_text` lays out,
each shared params object once.
"""

from __future__ import annotations

import io
import json
import time

from catx import __version__, linalg
from catx.charcalc import (
    JPRIME_CONVENTIONS,
    STABILIZER_MODEL,
    FormalCharacter,
    order_axiom_records,
    verify_filtration,
)
from catx.chario import json_text
from catx.errors import InputError, ResourceGuardError
from catx.incidence import (
    IncidenceAlgebra,
    all_subsets,
    build_incidence_algebra,
    cartan_and_ext,
    heredity_chain_check,
    krull_schmidt_decompose,
    radical_series,
    regular_module,
)
from catx.rootsystem import CartanType, build_root_system
from catx.weyl import enumerate_biclosed

CHECKS = ("biclosed", "filtration", "order-axioms", "algebra")
ITHETA_MODES = ("all-subsets", "full-only")
REPORT_SCHEMA_ID = "catx-report-2"

ALGEBRA_DIM_MAX = 6
ALGEBRA_CARTAN_MAX = 5
ALGEBRA_EXT_MAX = 4
ALGEBRA_HEREDITY_MAX = 4
ALGEBRA_SPLIT_MAX = 2

# The text of json.dumps(obj, sort_keys=True), from one shared encoder
# instead of a new one per call.
_CANONICAL = json.JSONEncoder(sort_keys=True)

_TYPES_BY_RANK = {
    1: ("A1",),
    2: ("A2", "B2", "C2", "G2"),
    3: ("A3", "B3", "C3"),
    4: ("A4", "B4", "C4", "D4", "F4"),
    5: ("A5", "B5", "C5", "D5"),
    6: ("A6", "B6", "C6", "D6", "E6"),
}


def default_types(max_rank: int) -> tuple[str, ...]:
    out: list[str] = []
    for r in range(1, max_rank + 1):
        out.extend(_TYPES_BY_RANK.get(r, ()))
    return tuple(out)


class SuiteConfig:
    """What a suite run checks, and over which types.  A mutable record:
    equal as its field tuple, and unhashable."""

    __slots__ = (
        "types",
        "checks",
        "itheta_mode",
        "max_rank",
        "seed",
        "jprime_convention",
        "theta_label",
        "allow_large",
    )

    def __init__(
        self,
        types: tuple[str, ...] = (),
        checks: tuple[str, ...] = CHECKS,
        itheta_mode: str = "all-subsets",
        max_rank: int = 3,
        seed: int = 1729,
        jprime_convention: str = "itheta-minus-j",
        theta_label: str = "theta",
        allow_large: bool = False,
    ) -> None:
        self.types = tuple(types)
        self.checks = tuple(checks)
        self.itheta_mode = itheta_mode
        self.max_rank = max_rank
        self.seed = seed
        self.jprime_convention = jprime_convention
        self.theta_label = theta_label
        self.allow_large = allow_large
        unknown = set(self.checks) - set(CHECKS)
        if unknown:
            raise InputError(f"unknown checks {sorted(unknown)}; known: {list(CHECKS)}")
        if not self.checks:
            raise InputError("at least one check is required")
        if self.itheta_mode not in ITHETA_MODES:
            raise InputError(
                f"unknown itheta mode {self.itheta_mode!r}; known: {list(ITHETA_MODES)}"
            )
        if self.jprime_convention not in JPRIME_CONVENTIONS:
            raise InputError(
                f"unknown jprime convention {self.jprime_convention!r}; "
                f"known: {list(JPRIME_CONVENTIONS)}"
            )
        for name, value in (("max rank", self.max_rank), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an int, not {value!r}")
        if self.max_rank < 1:
            raise InputError("max rank must be at least 1")
        if self.max_rank > 4 and not self.allow_large:
            raise ResourceGuardError(
                f"max rank {self.max_rank} needs allow_large (guard is 4)"
            )
        if not self.types:
            self.types = default_types(self.max_rank)
        for t in self.types:
            rank = CartanType.parse(t).rank
            if rank > self.max_rank:
                raise InputError(
                    f"type {t} has rank {rank} above max rank {self.max_rank}"
                )
        names = [str(CartanType.parse(t)) for t in self.types]
        if len(set(names)) < len(names):
            raise InputError(f"types {list(self.types)} list one type twice")
        self.types = tuple(names)

    def as_dict(self) -> dict:
        """The fields by name, in the order of the report's `config` block."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"SuiteConfig({body})"


def _itheta_sets(rank: int, mode: str):
    if mode == "full-only":
        return [frozenset(range(1, rank + 1))]
    return list(all_subsets(rank))


def _timed(records: list[dict], t0: float, batch: list[dict]) -> None:
    """Attach the wall-clock seconds since t0 to every record of the
    batch.  Arguments are evaluated left to right, so a call
    `_timed(records, time.perf_counter(), produce(...))` times produce."""
    dt = round(time.perf_counter() - t0, 6)
    for rec in batch:
        rec["wall_time_s"] = dt
        records.append(rec)


def _record(check: str, params: dict, passed: bool, counterexample) -> dict:
    return {
        "check": check,
        "params": params,
        "passed": passed,
        "counterexample": None if passed else counterexample,
    }


def _biclosed_record(t: str, allow_large: bool) -> dict:
    rs = build_root_system(t, allow_large=allow_large)
    data = enumerate_biclosed(rs, allow_large=allow_large)
    order = rs.cartan_type.weyl_order()
    missing = [s for s, w in data if w is None]
    witnesses = [w for _, w in data if w is not None]
    passed = not missing and len(data) == order and len(set(witnesses)) == len(data)
    if missing:
        counterexample = {"set_without_witness": sorted(map(list, missing[0]))}
    else:
        counterexample = {"n_biclosed": len(data), "weyl_order": order}
    params = {"type": t, "n_positive_roots": len(rs.positive_roots)}
    return _record("biclosed", params, passed, counterexample)


def _theta_records(cfg: SuiteConfig) -> list[dict]:
    """The filtration and order-axiom records, whichever of the two are
    asked for, in one pass over the types and ithetas."""
    records: list[dict] = []
    for t in cfg.types:
        rs = build_root_system(t, allow_large=cfg.allow_large)
        for itheta in _itheta_sets(rs.rank, cfg.itheta_mode):
            theta = FormalCharacter(cfg.theta_label, itheta)
            if "filtration" in cfg.checks:
                _timed(
                    records,
                    time.perf_counter(),
                    verify_filtration(rs, theta, jprime_convention=cfg.jprime_convention),
                )
            if "order-axioms" in cfg.checks:
                _timed(records, time.perf_counter(), order_axiom_records(rs, theta))
    return records


def _dimension_record(a: IncidenceAlgebra) -> dict:
    series = radical_series(a)
    dim_ok = a.dim == 3**a.n
    series_ok = series[-1] == 0 and all(x > y for x, y in zip(series, series[1:]))
    return _record(
        "algebra-dimension",
        {"n": a.n},
        dim_ok and series_ok,
        {"dim": a.dim, "radical_series": series},
    )


def _cartan_record(a: IncidenceAlgebra) -> dict:
    n = a.n
    cartan, ext1 = cartan_and_ext(a)
    det = linalg.det(cartan)
    contain_ok = all(
        cartan[i][j] == (1 if y <= z else 0)
        for i, y in enumerate(a.subsets)
        for j, z in enumerate(a.subsets)
    )
    covering = {(y, y | {x}) for y in a.subsets for x in range(1, n + 1) if x not in y}
    if n == 0:
        count_ok = not ext1
    elif n <= ALGEBRA_EXT_MAX:
        count_ok = len(ext1) == n * 2 ** (n - 1)
    else:
        count_ok = True
    ext_ok = set(ext1) == covering and count_ok
    return _record(
        "algebra-cartan",
        {"n": n},
        det == 1 and contain_ok and ext_ok,
        {
            "determinant": str(det),
            "containment_matches": contain_ok,
            "ext_count": len(ext1),
        },
    )


def _heredity_record(a: IncidenceAlgebra) -> dict:
    result = heredity_chain_check(a)
    return _record(
        "algebra-heredity", {"n": a.n}, result["passed"], {"layers": result["layers"]}
    )


def _split_record(a: IncidenceAlgebra, seed: int) -> dict:
    parts = krull_schmidt_decompose(a, regular_module(a), seed=seed)
    got = sorted((m.total_dim, mult, cert) for m, mult, cert in parts)
    want = sorted((2 ** (a.n - len(y)), 1, True) for y in a.subsets)
    return _record(
        "algebra-regular-split",
        {"n": a.n, "seed": seed},
        got == want,
        {"summands": [list(x) for x in got]},
    )


def _algebra_records(cfg: SuiteConfig) -> list[dict]:
    """Per n, one incidence algebra and every algebra check on it; the
    dimension record's time includes the build."""
    records: list[dict] = []
    for n in range(ALGEBRA_DIM_MAX + 1):
        t0 = time.perf_counter()
        a = build_incidence_algebra(n)
        _timed(records, t0, [_dimension_record(a)])
        if n <= ALGEBRA_CARTAN_MAX:
            _timed(records, time.perf_counter(), [_cartan_record(a)])
        if n <= ALGEBRA_HEREDITY_MAX:
            _timed(records, time.perf_counter(), [_heredity_record(a)])
        if 1 <= n <= ALGEBRA_SPLIT_MAX:
            _timed(records, time.perf_counter(), [_split_record(a, cfg.seed)])
    return records


def _sort_key():
    """A canonical sort key for one sort: a record's check, then the
    text of its params with sorted keys, encoded once per params object
    (records share them).  The texts are kept by id, which is sound
    while every record is alive, as it is during the sort."""
    texts: dict[int, str] = {}

    def key(record: dict) -> tuple[str, str]:
        params = record["params"]
        text = texts.get(id(params))
        if text is None:
            text = texts[id(params)] = _CANONICAL.encode(params)
        return record["check"], text

    return key


def run_suite(cfg: SuiteConfig) -> dict:
    records: list[dict] = []
    if "biclosed" in cfg.checks:
        for t in cfg.types:
            _timed(records, time.perf_counter(), [_biclosed_record(t, cfg.allow_large)])
    if "filtration" in cfg.checks or "order-axioms" in cfg.checks:
        records += _theta_records(cfg)
    if "algebra" in cfg.checks:
        records += _algebra_records(cfg)
    records.sort(key=_sort_key())
    return {
        "report_schema": REPORT_SCHEMA_ID,
        "tool_version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "stabilizer_model": STABILIZER_MODEL,
        "config": cfg.as_dict() | {"types": list(cfg.types), "checks": list(cfg.checks)},
        "records": records,
        "overall_status": "pass" if all(r["passed"] for r in records) else "fail",
    }


def report_dumps(report: dict) -> str:
    return json_text(report)


def report_to_csv(report: dict) -> str:
    """Flat one-row-per-record CSV view of a report."""
    import csv  # only --csv writes one

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "params", "passed", "counterexample", "wall_time_s"])
    for rec in report["records"]:
        writer.writerow(
            [
                rec["check"],
                _CANONICAL.encode(rec["params"]),
                "pass" if rec["passed"] else "fail",
                "" if rec["counterexample"] is None
                else _CANONICAL.encode(rec["counterexample"]),
                rec["wall_time_s"],
            ]
        )
    return buf.getvalue()
