"""The command line's own reading of argv against argparse's.

`catx.cli._parse` reads an exact command line itself and hands every
other one to argparse.  Over a corpus of argvs per command, both must
give what the hand-written argparse parser (`reference.build_parser`)
gives: the same namespace, in the same order, or the same exit code,
stdout and stderr.
"""

import pytest

from catx import cli
from reference import build_parser as reference_parser

# the keyword arguments of argparse's add_argument that `_read` reads
READ_KEYS = {"action", "dest", "type", "choices", "default", "required", "help"}


def sample(kwargs) -> str:
    """A value that passes the option's type and choices."""
    if kwargs.get("choices"):
        return str(kwargs["choices"][-1])
    return "2" if kwargs.get("type") is int else "A2"


def corpus(name, options) -> list[list[str]]:
    """Exact, abbreviated, --opt=value, repeated, "-"-prefixed, "-",
    empty, missing, bad and extra spellings of one command's options."""
    valued = [(f, k) for f, k in options if k.get("action") != "store_true"]
    switches = [f for f, k in options if k.get("action") == "store_true"]
    pairs = [[f, sample(k)] for f, k in valued] + [[f] for f in switches]
    minimal = [x for f, k in valued if k.get("required") for x in (f, sample(k))]
    full = [x for pair in pairs for x in pair]
    argvs = [
        [name, *minimal],
        [name, *full],
        [name, *(x for pair in reversed(pairs) for x in pair)],
        [name, *minimal, "--", "extra"],
        [name, "--", *minimal],
        [name, *minimal, "--"],
        [name, *minimal, "extra"],
        [name, *minimal, ""],
        [name, *minimal, "--bogus", "1"],
        [name, *minimal, "--bogus=1"],
        [name, *minimal, "-h"],
        [name, "-h", *minimal],
        [name, *minimal, "--help"],
        [name, *minimal, "-"],
        [name],
    ]
    for flag in switches:
        argvs += [
            [name, *minimal, flag, flag],
            [name, *minimal, flag, "yes"],
            [name, *minimal, flag[:-1]],
            [name, *minimal, flag + "=1"],
        ]
    for flag, kwargs in valued:
        rest = [x for pair in pairs if pair[0] != flag for x in pair]
        good = sample(kwargs)
        argvs += [[name, *rest, flag, value] for value in (
            "-", "", "-1", "-x", "--", "--json", " 3 ", "1.5", "x", "bogus", "a b",
        )]
        argvs += [
            [name, *rest, flag],
            [name, flag, good, *rest],
            [name, *rest, flag + "=" + good],
            [name, *rest, flag[:-1], good],
            [name, *rest, flag[:3], good],
            [name, *rest, flag, good, flag, good],
            [name, *rest, flag, good, good],
        ]
        if kwargs.get("required"):
            argvs.append([name, *rest])
    return argvs


TOP = [[], ["-h"], ["--help"], ["nope"], ["nope", "--type", "A1"], [""], ["-"],
       ["--version"], ["ro", "--type", "A1"], ["--", "roots", "--type", "A1"]]
CASES = TOP + [argv for name, _, _, options in cli.COMMANDS for argv in corpus(name, options)]


def outcome(parse, argv, capsys):
    try:
        args = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    else:
        # with each value's type: True == 1, but a switch must be True
        result = ("args", [(k, type(v), v) for k, v in vars(args).items()])
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.fixture
def fixed_width(monkeypatch):
    # argparse wraps help and usage to the terminal width it reads here
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.setenv("LINES", "40")


def test_the_option_table_uses_only_what_the_direct_reader_reads():
    for name, _, _, options in cli.COMMANDS:
        assert len({flag for flag, _ in options}) == len(options), name
        for flag, kwargs in options:
            assert flag.startswith("--") and set(kwargs) <= READ_KEYS, (name, flag)
            assert kwargs.get("action", "store_true") == "store_true", (name, flag)


@pytest.mark.parametrize("argv", [["--help"]] + [[c[0], "--help"] for c in cli.COMMANDS])
def test_help_texts_are_the_reference_parsers(argv, capsys, fixed_width):
    got = outcome(cli._parse, argv, capsys)
    assert got == outcome(reference_parser().parse_args, argv, capsys)
    assert got[0] == ("exit", 0) and got[1].startswith("usage: catx")


def test_every_argv_of_the_corpus_parses_as_the_reference_parser(capsys, fixed_width):
    reference = reference_parser()
    direct = 0
    for argv in CASES:
        got = outcome(cli._parse, argv, capsys)
        assert got == outcome(reference.parse_args, argv, capsys), argv
        if cli._read(argv) is not None:
            direct += 1
            assert got[0][0] == "args" and got[1:] == ("", ""), argv
    assert len(CASES) > 500 and direct > 60


@pytest.mark.parametrize("name", [c[0] for c in cli.COMMANDS])
def test_exact_command_lines_are_read_without_argparse(name):
    _, _, _, options = next(c for c in cli.COMMANDS if c[0] == name)
    exact = corpus(name, options)[:3]  # minimal, full, full reversed
    for argv in exact:
        args = cli._read(argv)
        assert args is not None and args.command == name, argv
        assert vars(args) == vars(reference_parser().parse_args(argv)), argv
    # argparse reads every other spelling, even where it would agree
    full = exact[1]
    flag, value = full[1], full[2]
    for argv in (
        [name, *full[1:], flag, value],  # a repeat
        [name, f"{flag}={value}", *full[3:]],
        [name, flag[:-1], value, *full[3:]],
        [name, *full[1:], "--"],
        [name, *full[1:], "-h"],
    ):
        assert cli._read(argv) is None, argv
