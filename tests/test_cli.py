"""End-to-end CLI behavior via in-process main() calls."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binshift.cli as cli
from binshift.cli import SCHEMAS, main
from binshift.families import SegmentRow, family_names
from binshift.verify import SUITE_NAMES, PropertyResult, SuiteReport

GOLDEN_SEGMENTS = Path(__file__).parent / "golden" / "table2_segments.csv"
# sha256 of json.dumps(SCHEMAS, sort_keys=True): the published JSON contract.
SCHEMAS_SHA256 = "7ebe7c492525e4841769ea20ad86b65a2cfc66a602994bc9694ecd94b00c660e"
# Distinct 997-digit denominators: each literal "1/..." has 999 characters.
DENOMINATORS = [f"1/{10**996 + 2 * k + 1}" for k in range(120)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchemas:
    def test_schemas_pinned(self):
        text = json.dumps(SCHEMAS, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SCHEMAS_SHA256

    def test_no_shared_nodes(self):
        # SCHEMAS is a public mutable dict: an edit to one node must not
        # change another schema through an alias.
        seen = []

        def walk(node):
            if isinstance(node, dict):
                seen.append(id(node))
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                seen.append(id(node))
                for value in node:
                    walk(value)

        walk(SCHEMAS)
        assert len(seen) == len(set(seen))


class TestTransform:
    def test_family_plain(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--family", "fibonacci", "-r", "1")
        assert code == 0 and err == ""
        assert out == "0 1 3 8 21 55 144 377 987 2584\n"

    def test_family_oeis_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "fibonacci", "-r", "1", "--format", "oeis"
        )
        assert code == 0
        assert out == "0, 1, 3, 8, 21, 55, 144, 377, 987, 2584\n"

    def test_inline_negative_shift(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--inline", "0,1,3,8,21", "-r=-1")
        assert code == 0
        assert out == "0 1 1 2 3\n"

    def test_inline_rational_shift(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--inline", "1,0,0,0", "-r", "1/2")
        assert code == 0
        assert out == "1 1/2 1/4 1/8\n"

    def test_shift_zero_default(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--inline", "5,6,7")
        assert code == 0
        assert out == "5 6 7\n"

    def test_length_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "mersenne", "-r", "1", "-n", "4"
        )
        assert code == 0
        assert out == "0 1 5 19 65\n"

    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "lucas", "-r", "1/2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["transform"])
        assert doc["source"] == "lucas"
        assert doc["shift"] == "1/2"
        assert doc["domain"] == "rat"
        # exactly integral values serialize as numbers, others exactly
        assert doc["values"][:3] == [2, 2, "9/2"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--inline", "0,1", "--format", "csv"
        )
        assert code == 0
        assert out == "n,value\n0,0\n1,1\n"

    def test_unknown_family_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--family", "tribonacci")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bad_inline_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--inline", "1,,2")
        assert code == 2 and "error:" in err

    def test_inline_too_short_for_length(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--inline", "0,1", "-n", "5")
        assert code == 2 and "error:" in err

    def test_negative_length_rejected(self, capsys):
        errors = set()
        for source in (("--family", "pell"), ("--inline", "1,2")):
            code, out, err = run_cli(capsys, "transform", *source, "-n=-1")
            assert code == 2 and out == ""
            errors.add(err)
        assert errors == {"error: length must be nonnegative\n"}

    def test_source_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "-r", "1"])
        assert exc.value.code == 2


class TestShiftPoly:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "shift-poly", "1,-1,-1", "-r", "1")
        assert code == 0
        assert out == "X^2 - 3*X + 1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "shift-poly", "1,-3,2", "-r", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["shift-poly"])
        assert doc == {
            "shift": "1",
            "input": [1, -3, 2],
            "coefficients": [1, -5, 6],
            "text": "X^2 - 5*X + 6",
        }

    def test_rational_shift(self, capsys):
        code, out, _ = run_cli(capsys, "shift-poly", "1,0", "-r", "1/2")
        assert code == 0
        assert out == "X - 1/2\n"

    def test_non_monic_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "shift-poly", "2,1", "-r", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_constant_rejected(self, capsys):
        code, _, err = run_cli(capsys, "shift-poly", "1", "-r", "1")
        assert code == 2 and "error:" in err


class TestTable:
    def test_segments_csv_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "table", "segments", "--format", "csv")
        assert code == 0
        assert out == GOLDEN_SEGMENTS.read_text()

    def test_segments_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "segments", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["table-segments"])
        assert len(doc["rows"]) == 10
        assert all(row["matches_reference"] for row in doc["rows"])

    def test_recurrences_plain(self, capsys):
        code, out, _ = run_cli(capsys, "table", "recurrences")
        assert code == 0
        assert "(2r+1)*b(n-1)" in out
        assert "(r^2+r-1)*b(n-2)" in out
        assert "MISMATCH" not in out

    def test_recurrences_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "recurrences", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["table-recurrences"])
        lucas = next(r for r in doc["rows"] if r["family"] == "lucas")
        assert lucas["init"] == [2, "1 + 2*r"]

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        fake = [SegmentRow("fibonacci", 1, (0,), (1,), False)]
        monkeypatch.setattr(cli, "table_initial_segments", lambda: fake)
        code, out, _ = run_cli(capsys, "table", "segments")
        assert code == 1
        assert "MISMATCH" in out


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "semigroup", "--cases", "10", "--seed", "5"
        )
        assert code == 0 and err == ""
        assert out.startswith("suite semigroup (seed 5, 10 cases)\n")
        assert "all 5 properties passed" in out
        assert "FAIL" not in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "rootshift", "--cases", "8")
        _, second, _ = run_cli(capsys, "verify", "rootshift", "--cases", "8")
        assert first == second

    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "identities", "--cases", "6", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["verify"])
        assert doc["ok"] is True
        assert doc["suite"] == "identities"

    def test_failure_exits_1(self, capsys, monkeypatch):
        report = SuiteReport(
            "semigroup",
            0,
            10,
            [PropertyResult("linearity", 10, False, "case 3: mismatch")],
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: report)
        code, out, _ = run_cli(capsys, "verify", "semigroup")
        assert code == 1
        assert "FAIL linearity" in out
        assert "1 of 1 properties failed" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2


class TestFamily:
    def test_plain_listing(self, capsys):
        code, out, _ = run_cli(capsys, "family")
        assert code == 0
        assert "fibonacci" in out and "A000045" in out
        assert "X^2 - X - 1" in out
        assert "wpoly" in out

    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["family"])
        assert len(doc["families"]) == 6
        wpoly = next(f for f in doc["families"] if f["name"] == "wpoly")
        assert wpoly["oeis"] is None
        assert wpoly["domain"] == "poly(x)"

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,oeis,poly,init0,init1"


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["family", "--format", "yaml"])
        assert exc.value.code == 2

    def test_bad_shift_literal(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--inline", "1,2", "-r", "x")
        assert code == 2 and "cannot parse shift" in err

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (("transform", "--inline", "1,inf"), "inf"),
            (("transform", "--inline", "1,1/0", "-r", "1"), "1/0"),
            (("shift-poly", "1,x", "-r", "1"), "x"),
        ],
    )
    def test_bad_entry_names_the_entry(self, capsys, argv, entry):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse entry {entry!r}\n"


class TestInputLimits:
    """Oversized input exits 2 at once, before any big value is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "--family", "fibonacci", "-r=1e100000000", "-n", "5"),
            ("transform", "--family", "fibonacci", "-r", "1", "-n", "100000"),
            ("verify", "semigroup", "--cases", "100000000"),
            ("verify", "semigroup", "--length", "100000000"),
            ("transform", "--inline=1,1e-100000000", "-r", "1"),
            ("transform", "--inline", ",".join(["1"] * (cli.MAX_INDEX + 2))),
            ("transform", "--family", "wpoly", "-n", str(cli.MAX_POLY_INDEX + 1)),
        ],
        ids=[
            "shift-literal",
            "transform-length",
            "verify-cases",
            "verify-length",
            "inline-literal",
            "inline-entries",
            "wpoly-length",
        ],
    )
    def test_oversized_input_exits_2(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "over the limit" in err

    def test_inputs_at_the_limits_accepted(self, capsys):
        k = cli.MAX_LITERAL_DIGITS - 5  # "1e995" is 5 characters
        code, out, _ = run_cli(capsys, "transform", "--inline", "1,1", f"-r=1e{k}")
        assert code == 0
        assert out == f"1 {10**k + 1}\n"
        code, out, _ = run_cli(
            capsys, "transform", "--family", "fibonacci", "-n", str(cli.MAX_INDEX)
        )
        assert code == 0 and len(out.split()) == cli.MAX_INDEX + 1
        n = str(cli.MAX_POLY_INDEX)
        code, out, _ = run_cli(
            capsys, "transform", "--family", "wpoly", "-n", n, "--format", "json"
        )
        assert code == 0 and len(json.loads(out)["values"]) == cli.MAX_POLY_INDEX + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "--family", "fibonacci", "-r", "100000", "-n", "1000"),
            ("shift-poly", "1,0,0,0,0,0,0,0,0,0,0", "-r=1e500"),
            ("transform", "--inline", ",".join(DENOMINATORS[:60]), "-r", "1"),
            ("transform", "--inline", ",".join(DENOMINATORS), "-r", "1"),
            ("transform", "--inline", ",".join(["1"] * (cli.MAX_INDEX + 1)), "-r=1e990"),
        ],
        ids=[
            "transform-output",
            "shift-poly-output",
            "inline-60-denominators",
            "inline-120-denominators",
            "inline-huge-shift",
        ],
    )
    def test_oversized_output_exits_2(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: bound on output digits") and "over the limit" in err

    def test_printable_outputs_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "fibonacci", "-r", "9000", "-n", "1000"
        )
        assert code == 0
        assert max(len(v) for v in out.split()) == 3954
        # The identity shift prints its input, however many denominators it has.
        inline = ",".join(DENOMINATORS[:10])
        code, out, _ = run_cli(capsys, "transform", "--inline", inline)
        assert code == 0 and out == inline.replace(",", " ") + "\n"


def _help_bytes(capsys):
    """format_help() and format_usage() of the top parser and of every
    subparser, and the stderr of one usage error."""
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *sub.choices.values()]
    texts = [text for p in parsers for text in (p.format_help(), p.format_usage())]
    with pytest.raises(SystemExit):
        main(["transform", "--format", "bad"])
    return texts, capsys.readouterr().err


def _no_terminal(fd):
    raise OSError("not a terminal")


def _terminal(columns):
    size = os.terminal_size((columns, 24))
    return lambda mp: mp.setattr(os, "get_terminal_size", lambda fd: size)


# Where the width comes from when COLUMNS gives none: no terminal, a
# 100-column one, one that reports 0 columns, and no sys.__stdout__ at all.
_TERMINALS = {
    "no-tty": lambda mp: mp.setattr(os, "get_terminal_size", _no_terminal),
    "tty-100": _terminal(100),
    "tty-0": _terminal(0),
    "stdout-None": lambda mp: mp.setattr(sys, "__stdout__", None),
}


class TestHelp:
    def test_length_help_names_both_caps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        caps = f"at most {cli.MAX_INDEX}, or {cli.MAX_POLY_INDEX} for a polynomial"
        assert caps in text

    def test_inline_help_gives_the_attached_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["transform", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(use --inline=-1,2,3 when the first entry is negative)" in text

    def test_attached_inline_takes_a_negative_first_entry(self, capsys):
        assert run_cli(capsys, "transform", "--inline=-1,2,3") == (0, "-1 2 3\n", "")

    @pytest.mark.parametrize("terminal", _TERMINALS)
    @pytest.mark.parametrize(
        "columns",
        [None, "40", "200", "0", "abc", "-3", " 60"],
        ids=["unset", "40", "200", "0", "abc", "-3", "space-60"],
    )
    def test_same_bytes_as_stock_formatter(self, capsys, monkeypatch, columns, terminal):
        """cli's formatter finds the width that argparse's stock formatter
        finds through shutil, under each COLUMNS value and terminal."""
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        _TERMINALS[terminal](monkeypatch)
        ours = _help_bytes(capsys)
        monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
        assert ours == _help_bytes(capsys)


# Literals around every parse rule and at and just over the literal cap
# ("1e995" counts 1000 digits, "1e996" 1001).
_DIGITS = cli.MAX_LITERAL_DIGITS
_LITERALS = [
    *("", "0", "-0", "1", "-1", "2", "-3/7", "1/2", "1/0", "inf", "x", "2e3", "-2e-2"),
    *(f"1e{_DIGITS - 5}", f"1e{_DIGITS - 4}", "9" * _DIGITS, "9" * (_DIGITS + 1)),
]
_LENGTHS = [-1, 0, 1, 9, cli.MAX_POLY_INDEX, cli.MAX_POLY_INDEX + 1]
_LENGTHS += [cli.MAX_INDEX, cli.MAX_INDEX + 1]


def _flag(flag, values):
    return st.sampled_from(values).map(lambda v: [f"{flag}={v}"])


def _optional(flag, values):
    return st.one_of(st.just([]), _flag(flag, values))


def _argv():
    fmt = _optional("--format", ["plain", "json", "csv", "oeis", "bad"])
    entries = st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=4).map(",".join)
    ones = st.sampled_from([cli.MAX_INDEX + 1, cli.MAX_INDEX + 2]).map(
        lambda n: ",".join(["1"] * n)
    )
    source = st.one_of(
        st.sampled_from([*family_names(), "nosuch"]).map(lambda f: ["--family", f]),
        st.one_of(entries, ones).map(lambda e: [f"--inline={e}"]),
    )
    shift = _optional("-r", _LITERALS)
    coeffs = st.builds(
        lambda lead, rest: ",".join([lead, *rest]),
        st.sampled_from(["1", "2", "0", ""]),
        st.lists(st.sampled_from(_LITERALS), max_size=3),
    )
    commands = st.one_of(
        st.tuples(
            st.just(["transform"]), source, shift, _optional("-n", _LENGTHS), fmt
        ),
        st.tuples(st.just(["shift-poly"]), coeffs.map(lambda c: [c]), shift, fmt),
        st.tuples(
            st.just(["verify"]),
            st.sampled_from([*SUITE_NAMES, "bogus"]).map(lambda s: [s]),
            _flag("--seed", [-1, 0, 7919]),
            _flag("--cases", [0, 1, 2, cli.MAX_CASES + 1]),
            _flag("-n", [0, 1, 3, cli.MAX_DEPTH + 1]),
            fmt,
        ),
        st.tuples(
            st.just(["table"]),
            st.sampled_from(["recurrences", "segments", "bogus"]).map(lambda w: [w]),
            fmt,
        ),
        st.tuples(st.just(["family"]), fmt),
        st.just((["bogus"],)),
    )
    return commands.map(lambda parts: [arg for part in parts for arg in part])


class TestArgvFuzz:
    """Any argv ends in exit 0 or 2 with at most one error line, never a traceback."""

    @settings(max_examples=150, deadline=10_000)
    @given(argv=_argv())
    def test_exit_0_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
