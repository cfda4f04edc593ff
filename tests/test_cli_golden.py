"""The CLI's observable behaviour, recorded in `cli_golden.json`: the exit
code, stdout and stderr of each argv, and the action list of each
subparser.  Any change to `cli.py` that keeps the formats and options must
reproduce them byte for byte.

The argvs cover every command with each `--emit` it offers, bad inputs
that exit 1 and 2, and each `--help`.  Help and usage text wrap at the
terminal width, so every call runs with COLUMNS=80."""

import argparse
import json
import os

import pytest

from loopalg.cli import build_parser, run

with open(os.path.join(os.path.dirname(__file__), "cli_golden.json"),
          encoding="utf-8") as _f:
    GOLDEN = json.load(_f)


@pytest.mark.parametrize(
    "want", GOLDEN["runs"],
    ids=["%03d-%s" % (i, (w["argv"] or ["none"])[0].lstrip("-"))
         for i, w in enumerate(GOLDEN["runs"])])
def test_cli_output(capsys, monkeypatch, want):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(want["argv"]))
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (
        want["code"], want["stdout"], want["stderr"])


def _actions(parser):
    """Subcommand name -> one row per action: option strings, dest,
    default, choices, required, nargs and the type's name."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [[name, [[list(a.option_strings), a.dest, a.default,
                     None if a.choices is None else list(a.choices),
                     a.required, a.nargs,
                     None if a.type is None else a.type.__name__]
                    for a in sp._actions]]
            for name, sp in sub.choices.items()]


def test_parser_actions():
    assert _actions(build_parser()) == [
        [name, rows] for name, rows in GOLDEN["actions"].items()]
