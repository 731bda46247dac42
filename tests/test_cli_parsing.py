"""``opaq.cli.main`` parses each command with that command's own parser.

The full three-command parser (``_build_parser``) stays the reference: for
every argv below, ``main`` must give the Namespace it gives, or the same
exit code, stdout and stderr when parsing ends the program.
"""

from __future__ import annotations

import argparse
import sys

import pytest

import opaq.cli
from opaq.cli import _build_parser, main

ARGVS = [
    # A valid call of each command, with and without its options.
    ["verify", "--property", "cs", "m.json"],
    ["verify", "--property", "k-weak", "--k", "2", "--format", "json", "--state-cap", "9", "m.json"],
    ["verify", "--property=inf-strong", "m.json"],
    ["export", "--structure", "observer", "m.json"],
    ["export", "--structure", "sst", "--root", "1,4,7", "--k", "2", "--state-cap", "5", "m.json"],
    ["crosscheck"],
    ["crosscheck", "--models", "3", "--max-states", "4", "--k", "0..2", "--seed", "1",
     "--report", "r.jsonl", "--fixtures-dir", "d"],
    ["crosscheck", "--k", "3"],
    # Help at the top and for each command.
    ["-h"],
    ["--help"],
    ["verify", "-h"],
    ["export", "--help"],
    ["crosscheck", "-h"],
    ["verify", "--property", "cs", "-h", "m.json"],
    ["verify", "--he"],
    # Errors.
    [],
    ["bogus"],
    ["--bogus", "verify"],
    ["verify"],
    ["verify", "m.json"],
    ["export", "m.json"],
    ["verify", "--property", "nope", "m.json"],
    ["verify", "--property"],
    ["crosscheck", "--models", "x"],
    ["verify", "--property", "cs", "--k", "two", "m.json"],
    ["verify", "--property", "cs", "--bogus", "m.json"],
    ["verify", "--property", "cs", "m.json", "extra"],
    ["crosscheck", "stray"],
    # A removed option.
    ["crosscheck", "--models", "3", "--max-states", "4", "--k", "0..2", "--seed", "1",
     "--report", "r.jsonl", "--fixtures-dir", "d", "--no-structural"],
    ["crosscheck", "--k", "a..b"],
    # Abbreviations, negative numbers and the ``--`` separator.
    ["verify", "--prop", "cs", "m.json"],
    ["export", "--struct", "sst", "--ro", "1", "--k", "1", "m.json"],
    ["verify", "--property", "k-weak", "--k", "-1", "m.json"],
    ["verify", "--property", "cs", "--", "m.json"],
    ["verify", "--property", "cs", "--", "--m.json"],
    ["crosscheck", "--", "x"],
]


@pytest.fixture
def parsed(monkeypatch):
    """Run each command's handler as a stub that records the parsed args."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name in ("_run_verify", "_run_export", "_run_crosscheck"):
        monkeypatch.setattr(opaq.cli, name, lambda args: seen.append(args) or 0)
    return seen


def outcome(capsys, parse):
    """The Namespace *parse* returns, or (code, stdout, stderr) if it exits."""
    try:
        args = parse()
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    assert capsys.readouterr() == ("", "")
    return args


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_parses_like_the_full_parser(capsys, parsed, argv):
    expected = outcome(capsys, lambda: _build_parser().parse_args(argv))

    def parse():
        assert main(list(argv)) == 0
        return parsed.pop()

    assert outcome(capsys, parse) == expected


def test_main_reads_sys_argv(capsys, monkeypatch, parsed):
    for argv in (["verify", "--property", "cs", "m.json"], ["verify", "-h"], ["--help"]):
        expected = outcome(capsys, lambda: _build_parser().parse_args(argv))
        monkeypatch.setattr(sys, "argv", ["opaq", *argv])
        assert outcome(capsys, lambda: main() or parsed.pop()) == expected


@pytest.fixture
def parsers_built(monkeypatch, parsed):
    """How many ``argparse.ArgumentParser`` objects ``main`` constructs,
    counted from an empty cache of command parsers."""
    opaq.cli._command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", [
    ["verify", "--property", "cs", "m.json"],
    ["export", "--structure", "sst", "--root", "1", "--k", "2", "m.json"],
    ["crosscheck", "--models", "3", "--k", "0..2"],
])
def test_a_valid_command_builds_one_parser(parsers_built, argv):
    assert main(argv) == 0
    assert parsers_built == [f"opaq {argv[0]}"]


def test_an_unrecognized_argument_falls_back_to_the_full_parser(capsys, parsers_built):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--property", "cs", "--bogus", "m.json"])
    assert exc.value.code == 2
    # The command's parser, then the full parser and its three subparsers.
    assert parsers_built[:2] == ["opaq verify", "opaq"]
    assert len(parsers_built) == 5
    err = capsys.readouterr().err
    assert err.startswith("usage: opaq [-h] {verify,export,crosscheck} ...\n")
    assert err.endswith("opaq: error: unrecognized arguments: --bogus\n")


def test_a_second_call_of_a_command_builds_no_parser(parsers_built):
    argv = ["verify", "--property", "cs", "m.json"]
    assert main(argv) == 0
    assert main(argv) == 0
    assert parsers_built == ["opaq verify"]


def test_options_do_not_leak_between_calls(parsed):
    assert main(["verify", "--property", "k-weak", "--k", "2", "--format", "json", "--state-cap", "9", "m.json"]) == 0
    assert main(["verify", "--property", "cs", "m.json"]) == 0
    second = parsed.pop()
    assert (second.property, second.k, second.format, second.state_cap) == ("cs", None, "text", 2**20)


def test_a_cached_parser_formats_help_at_the_current_width(capsys, monkeypatch, parsers_built):
    assert main(["verify", "--property", "cs", "m.json"]) == 0
    monkeypatch.setenv("COLUMNS", "40")
    got = outcome(capsys, lambda: main(["verify", "-h"]))
    assert parsers_built == ["opaq verify"]
    assert got == outcome(capsys, lambda: _build_parser().parse_args(["verify", "-h"]))
    monkeypatch.setenv("COLUMNS", "80")
    assert got != outcome(capsys, lambda: _build_parser().parse_args(["verify", "-h"]))
