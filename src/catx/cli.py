"""Command-line front end.

Subcommands: roots, weyl, char, decompose, verify, algebra.  Exit codes:
0 success, 1 a verification or decomposition failed, 2 invalid input.
Their options are declared once, in `COMMANDS`: a command line that
spells them out exactly is read directly, any other by argparse, which
is imported only then.  Likewise the incidence-algebra stack
(`catx.incidence`, `catx.linalg`, `fractions`) is imported by the
algebra request that first needs it, not with this module.
"""

from __future__ import annotations

import io
import json
import os
import stat
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from catx.charcalc import (
    JPRIME_CONVENTIONS,
    FormalCharacter,
    costandard_character,
    decompose_character,
    induced_character,
    simple_character,
)
from catx.chario import (
    character_dumps,
    character_loads,
    check_label,
    json_text,
    module_loads,
)
from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import build_root_system
from catx.verify import (
    CHECKS,
    ITHETA_MODES,
    SuiteConfig,
    report_dumps,
    report_to_csv,
    run_suite,
)
from catx.weyl import enumerate_biclosed, enumerate_weyl, longest_element

if TYPE_CHECKING:
    import argparse

KINDS = ("M", "E", "nabla")


def _parse_indices(text: str, rs) -> frozenset[int]:
    text = text.strip()
    if text in ("", "none"):
        return frozenset()
    if text == "all":
        return frozenset(rs.simple_indices)
    try:
        items = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"bad index list {text!r}; want comma-separated ints")
    out = frozenset(items)
    bad = out - set(rs.simple_indices)
    if bad:
        raise InputError(f"indices {sorted(bad)} out of range for {rs.cartan_type}")
    return out


def _open_in_place(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to stdout, or overwrite the file out in place.

    The file is opened without truncation, written, and only then cut to
    length, if it is a regular file (so devices, FIFOs and /dev/stdout
    work) that was longer than the text: the write starts at the top, so
    any byte past the text is the old file's.  Truncating on open makes
    ext4 start writeback on close, which stalls the next rewrite of the
    same path.  The text is encoded first, so an encoding error leaves
    the file as it was; surrogateescape restores command-line bytes that
    the locale could not decode.
    """
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8", "surrogateescape")
    try:
        with open(out, "wb", opener=_open_in_place) as f:
            f.write(data)
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                f.truncate(len(data))
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from None


def _read_in(path: str) -> str:
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            # strict UTF-8 and open()'s newline translation, as for a file,
            # not sys.stdin's error handler; a text-only stream is read as is
            raw = getattr(sys.stdin, "buffer", None)
            if raw is None:
                return sys.stdin.read()
            return io.StringIO(raw.read().decode("utf-8"), newline=None).read()
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {name}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _cmd_roots(args) -> int:
    rs = build_root_system(args.type, allow_large=args.allow_large)
    if args.json:
        payload = {
            "type": str(rs.cartan_type),
            "rank": rs.rank,
            "positive_roots": [list(r) for r in rs.positive_roots],
            "count": len(rs.positive_roots),
            "weyl_order": rs.cartan_type.weyl_order(),
        }
        _emit(json_text(payload), args.out)
        return 0
    lines = [f"type {rs.cartan_type}: {len(rs.positive_roots)} positive roots, "
             f"group order {rs.cartan_type.weyl_order()}"]
    for r in rs.positive_roots:
        lines.append(f"  {list(r)}  height {rs.root_height(r)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_weyl(args) -> int:
    rs = build_root_system(args.type, allow_large=args.allow_large)
    w0 = longest_element(rs, rs.simple_indices)
    payload = {
        "type": str(rs.cartan_type),
        "order": rs.cartan_type.weyl_order(),
        "longest_word": list(w0.word),
    }
    status = 0
    if args.elements:
        payload["elements"] = [
            list(w.word) for w in enumerate_weyl(rs, allow_large=args.allow_large)
        ]
    if args.biclosed:
        data = enumerate_biclosed(rs, allow_large=args.allow_large)
        witnessed = sum(1 for _, w in data if w is not None)
        payload["biclosed"] = {
            "count": len(data),
            "witnessed": witnessed,
            "matches_group": len(data) == payload["order"]
            and witnessed == len(data),
        }
        if not payload["biclosed"]["matches_group"]:
            status = 1
    if args.json:
        _emit(json_text(payload), args.out)
        return status
    lines = [
        f"type {payload['type']}: group order {payload['order']}, "
        f"longest word {payload['longest_word']}"
    ]
    if args.elements:
        for word in payload["elements"]:
            lines.append(f"  {word}")
    if args.biclosed:
        b = payload["biclosed"]
        lines.append(
            f"biclosed subsets: {b['count']} (witnessed {b['witnessed']}), "
            f"matches group: {b['matches_group']}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return status


def _character(args, rs, theta, j):
    if args.kind == "M":
        return induced_character(rs, theta, j)
    if args.kind == "E":
        return simple_character(rs, theta, j)
    return costandard_character(
        rs, theta, j, jprime_convention=args.jprime_convention
    )


def _cmd_char(args) -> int:
    rs = build_root_system(args.type, allow_large=args.allow_large)
    check_label(args.label)
    theta = FormalCharacter(args.label, _parse_indices(args.itheta, rs))
    j = _parse_indices(args.j, rs)
    char = _character(args, rs, theta, j)
    if args.json:
        _emit(character_dumps(rs, char, base=theta), args.out)
        return 0
    lines = [
        f"{args.kind}({theta.label}, J={sorted(j)}) over {rs.cartan_type}, "
        f"itheta={sorted(theta.itheta)}: {char.total()} weights"
    ]
    for w, mult in char.items():
        lines.append(
            f"  coset_rep {list(w.tchar.coset_rep.word)}  v {list(w.v.word)}  x {mult}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    char, _, warnings = character_loads(
        None,
        _read_in(args.infile),
        strict=args.strict,
        allow_large=args.allow_large,
        expect_type=args.type,
    )
    rs = char._rs  # the system the payload names
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    dec = decompose_character(rs, char, tie_break=args.tie_break)
    factors = sorted(
        ((theta.label, sorted(k), mult) for (theta, k), mult in dec.factors.items()),
        key=lambda x: (len(x[1]), x[1]),
    )
    if args.json:
        payload = {
            "type": str(rs.cartan_type),
            "ok": dec.ok,
            "factors": [
                {"label": label, "j": k, "mult": mult} for label, k, mult in factors
            ],
            "remainder_total": dec.remainder.total(),
            "diagnostic": dec.diagnostic,
        }
        _emit(json_text(payload), args.out)
    else:
        lines = []
        for label, k, mult in factors:
            lines.append(f"  E({label}, {k}) x {mult}")
        if not factors:
            lines.append("  (no factors)")
        if dec.ok:
            lines.insert(0, f"decomposition complete: {len(factors)} distinct factors")
        else:
            lines.insert(0, "decomposition FAILED")
            lines.append(f"  remainder: {dec.remainder.total()} weights")
            lines.append(f"  diagnostic: {dec.diagnostic}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if dec.ok else 1


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        types=tuple(x for x in args.types.split(",") if x) if args.types else (),
        checks=tuple(x for x in args.checks.split(",") if x) if args.checks else CHECKS,
        itheta_mode=args.itheta_mode,
        max_rank=args.max_rank,
        seed=args.seed,
        jprime_convention=args.jprime_convention,
        theta_label=args.theta_label,
        allow_large=args.allow_large,
    )
    report = run_suite(cfg)
    if args.out:
        _emit(report_dumps(report), args.out)
    if args.csv:
        _emit(report_to_csv(report), args.csv)
    by_check: dict[str, list[dict]] = {}
    for rec in report["records"]:
        by_check.setdefault(rec["check"], []).append(rec)
    for check in sorted(by_check):
        recs = by_check[check]
        bad = [r for r in recs if not r["passed"]]
        line = f"{check}: {len(recs)} checks, "
        line += "all pass" if not bad else f"{len(bad)} FAILED"
        print(line)
        for r in bad[:5]:
            print(f"  failed at {json.dumps(r['params'], sort_keys=True)}")
    print(f"overall: {report['overall_status']}")
    return 0 if report["overall_status"] == "pass" else 1


def _cmd_algebra(args) -> int:
    from catx import linalg
    from catx.incidence import (
        build_incidence_algebra,
        cartan_and_ext,
        heredity_chain_check,
        krull_schmidt_decompose,
        radical_series,
        regular_module,
    )

    a = build_incidence_algebra(args.n, allow_large=args.allow_large)
    series = radical_series(a)
    cartan, ext1 = cartan_and_ext(a)
    cartan_det = linalg.det(cartan)
    heredity = heredity_chain_check(a)
    if args.module:
        module = module_loads(_read_in(args.module), allow_large=args.allow_large)
        if module.algebra.n != a.n:
            raise InputError(
                f"module file is over n={module.algebra.n}, but --n says {a.n}"
            )
        source = f"module file {args.module}"
    else:
        module = regular_module(a)
        source = "regular module"
    parts = krull_schmidt_decompose(
        a, module, seed=args.seed, allow_large=args.allow_large
    )
    if args.json:
        payload = {
            "n": a.n,
            "dim": a.dim,
            "radical_series": series,
            "cartan_determinant": str(cartan_det),
            "ext1_count": len(ext1),
            "heredity_passed": heredity["passed"],
            "heredity_layers": heredity["layers"],
            "decomposed": source,
            "summands": [
                {
                    "dims": {
                        json.dumps(sorted(y), separators=(",", ":")): d
                        for y, d in m.dims.items()
                        if d
                    },
                    "total_dim": m.total_dim,
                    "multiplicity": mult,
                    "is_certified_local": cert,
                }
                for m, mult, cert in parts
            ],
        }
        _emit(json_text(payload), args.out)
        return 0
    lines = [
        f"incidence algebra on {a.n} points: dim {a.dim}",
        f"radical power dims: {series}",
        f"cartan determinant: {cartan_det}",
        f"ext^1 arrows: {len(ext1)}",
        f"heredity chain: {'pass' if heredity['passed'] else 'FAIL'}",
        f"indecomposable summands of the {source}:",
    ]
    for m, mult, cert in parts:
        dims = {tuple(sorted(y)): d for y, d in m.dims.items() if d}
        lines.append(
            f"  dim {m.total_dim} x {mult}  vertices {dims}  "
            f"local: {'certified' if cert else 'NOT CERTIFIED'}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# The command line, one entry per command: its name, help, function and
# options.  An option is its flag and the keyword arguments that
# argparse's add_argument takes for it, of which the entries use only
# action ("store_true"), dest, type, choices, default, required and help:
# `build_parser` passes them to argparse as they are, and `_parse` reads
# the same ones.
_COMMON = (
    ("--out", {"default": None, "help": "write output to this file"}),
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
    ("--allow-large", {"action": "store_true", "help": "lift resource guards"}),
)
COMMANDS = (
    ("roots", "positive roots of a type", _cmd_roots, (
        ("--type", {"required": True, "help": "Cartan type, e.g. A2 or B3"}),
        *_COMMON,
    )),
    ("weyl", "reflection group data", _cmd_weyl, (
        ("--type", {"required": True}),
        ("--elements", {"action": "store_true", "help": "list all elements"}),
        ("--biclosed", {
            "action": "store_true",
            "help": "find the two-sided-closed subsets and match them to the group",
        }),
        *_COMMON,
    )),
    ("char", "compute a module character", _cmd_char, (
        ("--type", {"required": True}),
        ("--kind", {
            "choices": KINDS,
            "required": True,
            "help": "M induced, E simple, nabla costandard",
        }),
        ("--itheta", {
            "default": "all",
            "help": "comma list of simple indices fixed by theta; 'all' or ''",
        }),
        ("--label", {"default": "theta", "help": "name for the torus character"}),
        ("--j", {"default": "", "help": "comma list, a subset of itheta"}),
        ("--jprime-convention", {
            "choices": JPRIME_CONVENTIONS,
            "default": JPRIME_CONVENTIONS[0],
            "help": "complement used for the costandard character",
        }),
        *_COMMON,
    )),
    ("decompose", "decompose a character file", _cmd_decompose, (
        ("--in", {
            "dest": "infile",
            "required": True,
            "help": "character JSON file, or - for stdin",
        }),
        ("--type", {"default": None, "help": "crosscheck the payload type"}),
        ("--strict", {
            "action": "store_true",
            "help": "reject non-canonical or duplicate input instead of fixing it",
        }),
        ("--tie-break", {
            "type": int,
            "default": 0,
            "choices": (0, 1, 2),
            "help": "which maximal label to peel when several are available",
        }),
        *_COMMON,
    )),
    ("verify", "run a verification sweep", _cmd_verify, (
        ("--types", {
            "default": None,
            "help": "comma list of Cartan types; default from --max-rank",
        }),
        ("--checks", {
            "default": None,
            "help": f"comma list from {','.join(CHECKS)}; default all",
        }),
        ("--itheta-mode", {"choices": ITHETA_MODES, "default": ITHETA_MODES[0]}),
        ("--max-rank", {"type": int, "default": 3}),
        ("--seed", {"type": int, "default": 1729}),
        ("--jprime-convention", {
            "choices": JPRIME_CONVENTIONS,
            "default": JPRIME_CONVENTIONS[0],
        }),
        ("--theta-label", {"default": "theta"}),
        ("--csv", {"default": None, "help": "also write a CSV view to this file"}),
        ("--out", {"default": None, "help": "write the JSON report to this file"}),
        ("--allow-large", {"action": "store_true"}),
    )),
    ("algebra", "incidence-algebra invariants and splitting", _cmd_algebra, (
        ("--n", {"type": int, "required": True, "help": "ground-set size"}),
        ("--module", {
            "default": None,
            "help": "module JSON file to decompose; default the regular module",
        }),
        ("--seed", {"type": int, "default": 1729}),
        *_COMMON,
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`.  argparse is imported here, not
    with the module: only a command line that `_parse` does not read
    itself needs it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="catx",
        description="Exact combinatorics of root systems, twisted characters, "
        "and the Boolean-lattice incidence algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, options in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _reading(func, options):
    """What `_parse` needs of one command's options: per flag, its dest,
    whether it is a switch, its type and its choices; the dests with
    their defaults, in parser order, then func; the required dests."""
    flags, defaults, required = {}, {}, []
    for flag, kwargs in options:
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        switch = kwargs.get("action") == "store_true"
        flags[flag] = (dest, switch, kwargs.get("type"), kwargs.get("choices"))
        defaults[dest] = kwargs.get("default", False if switch else None)
        if kwargs.get("required"):
            required.append(dest)
    defaults["func"] = func
    return flags, defaults, required


_READINGS = {name: _reading(func, options) for name, _, func, options in COMMANDS}

# Built on the first command line that `_parse` hands to argparse, and
# shared by the later ones of the process: parsing never changes it, and
# argparse looks sys.stdout and sys.stderr up when it writes.
_parser: Optional[argparse.ArgumentParser] = None


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace of argv, a command then its own flags, each spelled
    out in full, once, and every required one: a switch alone, any other
    flag with one value that passes its type and lies in its choices.
    The value must be "-" or not start with "-", as argparse reads any
    other as an option or a negative number.  The namespace holds what
    argparse's would, in its order: command, every dest, func.  None for
    any other argv."""
    reading = _READINGS.get(argv[0]) if argv else None
    if reading is None:
        return None
    flags, defaults, required = reading
    values = {}
    i, n = 1, len(argv)
    while i < n:
        option = flags.get(argv[i])
        if option is None:
            return None
        dest, switch, kind, choices = option
        if dest in values:
            return None
        if switch:
            values[dest] = True
            i += 1
            continue
        if i + 1 == n:
            return None
        value = argv[i + 1]
        if value.startswith("-") and value != "-":
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    if not all(dest in values for dest in required):
        return None
    args = {"command": argv[0], **defaults}
    args.update(values)
    return SimpleNamespace(**args)


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """build_parser().parse_args(argv): read directly by `_read` where it
    can, and by argparse otherwise (help, no or an unknown command, an
    abbreviation, --opt=value, a repeat, a bad or missing value, --,
    extras), for its own help, usage and error texts."""
    global _parser
    args = _read(argv)
    if args is None:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (InputError, ResourceGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
