"""Byte-for-byte pins of the CLI output for every (subcommand, --format) pair.

``golden/cli_outputs.json`` maps each invocation below to its exit code and
stdout.  After checking that a change of output is intended, regenerate it
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

import binshift.cli as cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

CASES = [
    ("transform", "--family", "fibonacci", "-r", "1"),
    ("transform", "--family", "wpoly", "-r=-3/7", "-n", "5"),
    ("transform", "--family", "lucas", "-r", "1/2", "--format", "json"),
    ("transform", "--family", "wpoly", "-r", "2", "-n", "4", "--format", "json"),
    ("transform", "--inline", "1/2,3,-7/3", "-r=-3/7", "--format", "csv"),
    ("transform", "--family", "pell", "-r=-1", "-n", "12", "--format", "oeis"),
    # long second-order prefixes, int and rational (30 terms of L_k/2)
    ("transform", "--family", "pell", "-r=3", "-n", "1000", "--format", "json"),
    (
        "transform",
        "--inline",
        "1,1/2,3/2,2,7/2,11/2,9,29/2,47/2,38,123/2,199/2,161,521/2,843/2,682,"
        "2207/2,3571/2,2889,9349/2,15127/2,12238,39603/2,64079/2,51841,"
        "167761/2,271443/2,219602,710647/2,1149851/2",
        "-r=-2/5",
    ),
    ("shift-poly", "1,-1,-1", "-r", "1"),
    ("shift-poly", "1,2,3,4", "-r=-3/7"),
    ("shift-poly", "1,-3,2", "-r", "1", "--format", "json"),
    ("shift-poly", "1,0,-1/2", "-r", "1/2", "--format", "json"),
    ("table", "recurrences"),
    ("table", "segments"),
    ("table", "recurrences", "--format", "json"),
    ("table", "segments", "--format", "json"),
    ("table", "recurrences", "--format", "csv"),
    ("table", "segments", "--format", "csv"),
    ("verify", "all", "--seed", "3", "--cases", "5"),
    ("verify", "identities", "--seed", "7919", "--cases", "6", "--format", "json"),
    ("verify", "rootshift", "--seed", "7919", "--cases", "20", "--format", "json"),
    ("verify", "all", "--seed", "12345", "--cases", "20", "--length", "30"),
    ("family",),
    ("family", "--format", "json"),
    ("family", "--format", "csv"),
]


def _format_of(argv) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "plain"


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def _parser_formats() -> set[tuple[str, str]]:
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        (name, fmt)
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest == "format"
        for fmt in action.choices
    }


def test_every_format_is_pinned():
    assert {(argv[0], _format_of(argv)) for argv in CASES} == _parser_formats()
    assert set(json.loads(GOLDEN.read_text())) == {" ".join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden(argv):
    assert _run(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    pinned = {" ".join(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
