"""In-process tracer for the benchmark's traced run.

Wraps the public entry points of the catx layers from outside the
package.  Coarse entry points get one span each (name, start, end,
parent); hot leaves (group products, coset walks, the linalg
primitives, ...) are only counted, and timed in aggregate at their
outermost call, because a span per call would cost more than the work.

A wrapper is patched into every catx namespace that holds the original
object, so calls made through ``from catx.x import f`` bindings and
calls inside the defining module are both seen.

Self time of a span is its duration minus the part covered by nested
spans and by nested hot-leaf calls.  A layer's ``busy_s`` is the self
time of its spans plus the aggregate time of its hot leaves.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute) of every coarse entry point that gets a span.
SPANNED = {
    "cli": ("main",),
    "verify": ("run_suite", "report_dumps", "report_to_csv"),
    "charcalc": (
        "induced_character",
        "simple_character",
        "costandard_character",
        "simple_coset_reps",
        "decompose_character",
        "verify_filtration",
        "weight_universe",
        "order_axiom_records",
    ),
    "weyl": ("enumerate_biclosed",),
    "kernels": ("biclosed_masks",),
    "incidence": (
        "build_incidence_algebra",
        "algebra_radical",
        "cartan_and_ext",
        "cartan_determinant",
        "heredity_chain_check",
        "interval_module",
        "direct_sum",
        "regular_module",
        "hom_basis",
        "krull_schmidt_decompose",
        "is_isomorphic",
    ),
    "chario": ("character_dumps", "character_loads", "module_dumps", "module_loads"),
}

# Hot leaves: counted on every call, timed only at the outermost one.
COUNTED = {
    "weyl": (
        "WeylElement.__mul__",
        "WeylElement.inverse",
        "element_from_word",
        "enumerate_weyl",
        "weyl_subgroup",
        "longest_element",
        "min_coset_reps",
        "coset_minimize",
    ),
    "linalg": (
        "mat_mul",
        "rref",
        "rank",
        "nullspace",
        "det",
        "coords_in_span",
        "express_in_rowspace",
    ),
    "rootsystem": ("build_root_system",),
}

CHARACTER_BUILDERS = (
    "induced_character",
    "simple_character",
    "costandard_character",
    "simple_coset_reps",
)

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("charcalc.busy_s", "s", "lower"),
    ("charcalc.weight_lt.calls", "count", "lower"),
    ("charcalc.weight_lt.cache_hit_ratio", "ratio", "higher"),
    ("charcalc.order_axiom_records.busy_s", "s", "lower"),
    ("charcalc.characters.busy_s", "s", "lower"),
    ("charcalc.decompose_character.busy_s", "s", "lower"),
    ("charcalc.decompose_character.calls", "count", "lower"),
    ("weyl.busy_s", "s", "lower"),
    ("weyl.products", "count", "lower"),
    ("weyl.coset_minimize.calls", "count", "lower"),
    ("weyl.min_coset_reps.calls", "count", "lower"),
    ("weyl.enumerate_biclosed.busy_s", "s", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.biclosed_masks.busy_s", "s", "lower"),
    ("kernels.masks_swept", "count", "lower"),
    ("kernels.useful_ratio", "ratio", "higher"),
    ("incidence.busy_s", "s", "lower"),
    ("incidence.krull_schmidt_decompose.busy_s", "s", "lower"),
    ("incidence.is_isomorphic.calls", "count", "lower"),
    ("linalg.busy_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.coords_in_span.calls", "count", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("chario.busy_s", "s", "lower"),
    ("chario.bytes_written", "bytes", "lower"),
    ("chario.bytes_read", "bytes", "lower"),
    ("verify.busy_s", "s", "lower"),
    ("verify.records", "count", "higher"),
    ("cli.busy_s", "s", "lower"),
    ("rootsystem.busy_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self_s)
        self.stack: list[list] = []  # open spans: [id, cover]
        self.calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.extra = {"masks_swept": 0, "masks_kept": 0, "bytes_written": 0,
                      "bytes_read": 0, "records": 0}
        self.in_leaf = False
        self.leaf_excluded = 0.0

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        calls = self.calls
        calls[name] = 0
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            saved_leaf, saved_excl = self.in_leaf, self.leaf_excluded
            self.in_leaf = False
            parent = stack[-1][0] if stack else None
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                spans.append((frame[0], name, t0, t1, parent, dt - frame[1]))
                if stack:
                    stack[-1][1] += dt
                self.in_leaf = saved_leaf
                self.leaf_excluded = saved_excl + dt if saved_leaf else saved_excl
            if observe is not None:
                observe(self.extra, args, out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        calls, leaf_s, stack = self.calls, self.leaf_s, self.stack
        calls[name] = 0
        leaf_s[name] = 0.0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            excl0 = self.leaf_excluded
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.in_leaf = False
                own = dt - (self.leaf_excluded - excl0)
                self.leaf_excluded = excl0
                leaf_s[name] += own
                if stack:
                    stack[-1][1] += own

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        from catx import charcalc

        busy: dict[str, float] = {}
        for _, name, _, _, _, self_s in self.spans:
            busy[name] = busy.get(name, 0.0) + self_s
        for name, s in self.leaf_s.items():
            busy[name] = busy.get(name, 0.0) + s

        def layer(mod: str) -> float:
            return sum((s for name, s in busy.items() if name.split(".")[0] == mod), 0.0)

        calls = self.calls

        info = charcalc.weight_lt.cache_info()
        lt_calls = info.hits + info.misses
        swept = self.extra["masks_swept"]
        out = {
            "charcalc.busy_s": layer("charcalc"),
            "charcalc.weight_lt.calls": lt_calls,
            "charcalc.weight_lt.cache_hit_ratio": info.hits / lt_calls if lt_calls else 0.0,
            "charcalc.order_axiom_records.busy_s": busy.get("charcalc.order_axiom_records", 0.0),
            "charcalc.characters.busy_s": sum(
                busy.get(f"charcalc.{f}", 0.0) for f in CHARACTER_BUILDERS
            ),
            "charcalc.decompose_character.busy_s": busy.get("charcalc.decompose_character", 0.0),
            "charcalc.decompose_character.calls": calls.get("charcalc.decompose_character", 0),
            "weyl.busy_s": layer("weyl"),
            "weyl.products": calls.get("weyl.WeylElement.__mul__", 0),
            "weyl.coset_minimize.calls": calls.get("weyl.coset_minimize", 0),
            "weyl.min_coset_reps.calls": calls.get("weyl.min_coset_reps", 0),
            "weyl.enumerate_biclosed.busy_s": busy.get("weyl.enumerate_biclosed", 0.0),
            "kernels.busy_s": layer("kernels"),
            "kernels.biclosed_masks.busy_s": busy.get("kernels.biclosed_masks", 0.0),
            "kernels.masks_swept": swept,
            "kernels.useful_ratio": self.extra["masks_kept"] / swept if swept else 0.0,
            "incidence.busy_s": layer("incidence"),
            "incidence.krull_schmidt_decompose.busy_s": busy.get(
                "incidence.krull_schmidt_decompose", 0.0
            ),
            "incidence.is_isomorphic.calls": calls.get("incidence.is_isomorphic", 0),
            "linalg.busy_s": layer("linalg"),
            "chario.busy_s": layer("chario"),
            "chario.bytes_written": self.extra["bytes_written"],
            "chario.bytes_read": self.extra["bytes_read"],
            "verify.busy_s": layer("verify"),
            "verify.records": self.extra["records"],
            "cli.busy_s": layer("cli"),
            "rootsystem.busy_s": layer("rootsystem"),
            "trace.spans": len(self.spans),
        }
        for f in ("rref", "nullspace", "det", "rank", "coords_in_span", "mat_mul"):
            out[f"linalg.{f}.calls"] = calls.get(f"linalg.{f}", 0)
        return out

    def counters(self) -> dict:
        """Every call count, plus the derived work counters: the part of
        the trace that must repeat exactly for one input."""
        from catx import charcalc

        info = charcalc.weight_lt.cache_info()
        return {
            **{f"{k}.calls": v for k, v in sorted(self.calls.items())},
            **{k: v for k, v in sorted(self.extra.items())},
            "charcalc.weight_lt.hits": info.hits,
            "charcalc.weight_lt.misses": info.misses,
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "self_s")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _observe_masks(extra, args, out) -> None:
    extra["masks_swept"] += 1 << args[0]
    extra["masks_kept"] += len(out)


def _observe_written(extra, args, out) -> None:
    extra["bytes_written"] += len(out.encode())


def _observe_read(extra, args, out) -> None:
    # module_loads(text) and character_loads(rs, text, ...)
    extra["bytes_read"] += len(args[-1].encode())


def _observe_records(extra, args, out) -> None:
    extra["records"] += len(out["records"])


OBSERVERS = {
    "kernels.biclosed_masks": _observe_masks,
    "chario.character_dumps": _observe_written,
    "chario.module_dumps": _observe_written,
    "chario.character_loads": _observe_read,
    "chario.module_loads": _observe_read,
    "verify.run_suite": _observe_records,
}


def _catx_namespaces():
    return [m for n, m in list(sys.modules.items()) if n == "catx" or n.startswith("catx.")]


def install() -> Tracer:
    """Patch the wrappers in everywhere.  An entry point the tree does not
    have (``catx.kernels`` is due to go) is skipped and reads as 0."""
    for mod in {**SPANNED, **COUNTED}:
        try:
            importlib.import_module(f"catx.{mod}")
        except ModuleNotFoundError:
            pass
    tracer = Tracer()
    namespaces = _catx_namespaces()
    plan = [(mod, attr, True) for mod, attrs in SPANNED.items() for attr in attrs]
    plan += [(mod, attr, False) for mod, attrs in COUNTED.items() for attr in attrs]
    for mod, attr, spanned in plan:
        module = sys.modules.get(f"catx.{mod}")
        name = f"{mod}.{attr}"
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = vars(holder).get(leaf) if holder is not None else None
        if original is None:
            continue
        if spanned:
            wrapped = tracer.span(name, original, OBSERVERS.get(name))
        else:
            wrapped = tracer.counted(name, original)
        if owner:
            setattr(holder, leaf, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    return tracer
