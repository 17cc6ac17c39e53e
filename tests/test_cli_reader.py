"""The command-line reader against the argparse parser it stands in for.

``cli._read_argv`` reads plain command lines off the command table and
declines the rest; ``cli.build_parser()`` is built by a loop over the same
table and runs only on what the reader declines.  The reference is the
hand-written parser of ``cli_oracle``, compared at test time, so the
comparison holds on every CPython whose argparse words its text its own way.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finstack.cli as cli
from cli_oracle import reference_parser
from finstack.cli import main

# the draws follow the command table; every verdict is the reference parser's
NAMES = list(cli._COMMANDS)
FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values()
                for flag, _ in [cli._JSON_OUT, *arguments] if flag.startswith("-")})
ODD = ["-h", "--help", "--", "-", "--grou", "--dim=3"]
INTS = ["3", "0", " 4", "4_0"]
VALUES = INTS + ["-1", "x", "", "E", "B", "validate", "build", "roundtrip", "compare", "dir/z2.json"]
PIECES = NAMES + ["unknown"] + FLAGS + ODD + VALUES


def reference(argv: list):
    """``vars()`` of the reference parser's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(reference_parser().parse_args(argv))
        except SystemExit:
            return None


def value(draw, keywords: dict, wild: list) -> str:
    """A value the argument's checks pass; now and then any piece, noted in ``wild``."""
    if draw(st.integers(0, 9)) == 0:
        wild.append(True)
        return draw(st.sampled_from(PIECES))
    if "choices" in keywords:
        return draw(st.sampled_from(keywords["choices"]))
    if "type" in keywords:
        return draw(st.sampled_from(INTS))
    return draw(st.sampled_from([v for v in VALUES if not v.startswith("-")]))


@st.composite
def command_lines(draw) -> tuple:
    """(argv, plain): mostly a subcommand, its positional, its required options
    and some others in any order, each with a value its checks pass; now and
    then any piece for a value, or one token inserted, repeated or replaced,
    after which it may not be plain."""
    name = draw(st.sampled_from(NAMES + ["unknown"]))
    arguments = cli._COMMANDS[name][2] if name in cli._COMMANDS else []
    argv, options, wild = [name], [], []
    for flag, keywords in [cli._JSON_OUT, *arguments]:
        if not flag.startswith("-"):
            argv.append(value(draw, keywords, wild))
        elif keywords.get("required") or draw(st.booleans()):
            options.append((flag, keywords))
    for flag, keywords in draw(st.permutations(options)):
        argv += [flag] if "action" in keywords else [flag, value(draw, keywords, wild)]
    edit = draw(st.sampled_from(["none", "none", "none", "none", "insert", "repeat", "replace"]))
    if edit == "none":
        return argv, name in cli._COMMANDS and not wild
    at = draw(st.integers(0, len(argv)))
    token = draw(st.sampled_from(argv[1:] or argv)) if edit == "repeat" else draw(st.sampled_from(PIECES))
    if edit == "replace" and at < len(argv):
        argv[at] = token
    else:
        argv.insert(at, token)
    return argv, False


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example((["nerve", "--groupoid", "-h", "--dim", "3"], False))  # argparse: -h is an option
@example((["nerve", "--groupoid", "-1", "--dim", "3"], False))  # argparse: -1 is a value
@example((["nerve", "--groupoid", "-", "--dim", "3"], False))
@example((["nerve", "--groupoid", "g", "--dim", " -1"], False))
@example((["torsor", "--groupoid", "g", "validate", "--cocycle", "c"], False))
@example((["milnor", "--groupoid", "g", "--levels", "0", "--space", "B", "--compare-nerve"], True))
def test_reader_returns_what_the_reference_returns_or_declines(line):
    argv, plain = line
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == reference(argv), argv
    assert read is not None or not plain, argv


def test_odd_but_valid_lines_run_through_argparse(capsys, tmp_path):
    """An abbreviation, ``--opt=value`` and a repeated option are declined by
    the reader and read by argparse, with the plain line's report."""
    path = tmp_path / "z2.json"
    path.write_text('{"objects": ["*"], "arrows": [{"id": "0", "src": "*", "tgt": "*"}],'
                    ' "comp": [["0", "0", "0"]], "id": {"*": "0"}, "inv": {"0": "0"}}')
    plain = ["nerve", "--groupoid", str(path), "--dim", "3"]
    assert main(plain) == 0
    expected = capsys.readouterr()
    for argv in (["nerve", "--grou", str(path), "--dim", "3"],
                 ["nerve", f"--groupoid={path}", "--dim", "3"],
                 ["nerve", "--dim", "1", "--groupoid", str(path), "--dim", "3"]):
        assert cli._read_argv(argv) is None
        assert vars(cli.build_parser().parse_args(argv)) == reference(argv) == vars(cli._read_argv(plain))
        assert main(argv) == 0
        assert capsys.readouterr() == expected


def test_help_matches_the_reference(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser().format_help() == reference_parser().format_help()
    for argv in [["--help"], *([name, "--help"] for name in NAMES)]:
        assert main(argv) == 0
        ours = capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            reference_parser().parse_args(argv)
        assert exited.value.code == 0
        assert capsys.readouterr() == ours
        assert ours.out.startswith(f"usage: finstack {argv[0] if argv[0] in NAMES else '[-h]'}")


MALFORMED = [
    [],
    ["unknown"],
    ["nerve", "--groupoid", "z2.json"],
    ["nerve", "--groupoid", "z2.json", "--dim", "-1"],
    ["nerve", "--groupoid", "z2.json", "--dim", " -1"],
    ["nerve", "--groupoid", "z2.json", "--dim", "x"],
    ["homology", "--groupoid"],
    ["milnor", "--groupoid", "z2.json", "--levels", "2", "--space", "C"],
    ["torsor", "--groupoid", "z2.json", "--cocycle", "c.json"],
    ["torsor", "glue", "--groupoid", "z2.json", "--cocycle", "c.json"],
    ["validate", "--groupoid", "z2.json", "extra"],
    ["validate", "--groupoid", "z2.json", "--zigzag"],
    ["localize", "--cat", "c.json", "--class", "k.json", "--from", "a"],
    ["morita-check", "--functor", "f.json", "--dim=-2"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_usage_errors_match_the_reference(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._read_argv(argv) is None
    code = main(argv)
    ours = capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        reference_parser().parse_args(argv)
    assert (code, ours) == (exited.value.code, capsys.readouterr())
    assert code == 2 and ours.out == "" and "error:" in ours.err
