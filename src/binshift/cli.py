"""Command-line interface.

Subcommands:

* ``transform``: apply the shift-r binomial transform to a registered
  family or an inline comma-separated prefix.
* ``shift-poly``: shift the roots of a monic characteristic polynomial,
  i.e. compute the coefficients of P(X - r).
* ``table``: print the embedded reference tables (``recurrences`` for the
  symbolic rows, ``segments`` for the shift-1/shift-2 values), recomputed
  and checked against the embedded constants.
* ``verify``: run a seeded self-verification suite.
* ``family``: list the registered families.

Exit codes: 0 on success, 1 when a verification or table check fails,
2 on usage or input errors (argparse errors included).

Each command builds one result, the JSON document of :data:`SCHEMAS`, and
every format is a view of it: ``json`` prints it, ``plain`` prints lines
read from it, ``csv`` (for tabular data) a header and rows read from it, and
``oeis`` the last column of those rows, comma+space separated (handy for
searching sequence databases).  A JSON value's ``str()`` is the exact text
of its scalar, so all formats show the same values.  Negative shifts need
the ``-r=-1`` / ``--shift=-1/2`` form so they are not read as option names.

Input sizes are capped, and each cap is checked before any value is
built: a typo such as ``-n 100000`` or ``-r=1e100000000`` exits 2 at
once instead of computing for minutes.  See :data:`MAX_INDEX`,
:data:`MAX_POLY_INDEX`, :data:`MAX_LITERAL_DIGITS`, :data:`MAX_CASES` and
:data:`MAX_DEPTH`.
Within those caps ``transform`` and ``shift-poly`` bound the digits of
the largest integer they would print from the parsed inputs, and exit 2
before computing when the bound is over Python's int-to-str limit
(``sys.get_int_max_str_digits()``, 4300 by default).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import BinshiftError
from .exactnum import Scalar, _numerators, _rational_parts, render_scalar
from .families import (
    family_char_poly,
    family_names,
    family_prefix,
    get_family,
    recurrences_table,
    table_initial_segments,
)
from .recurrence import CharPoly, shift_characteristic
from .transform import SequencePrefix, apply_transform
from .verify import SUITE_NAMES, run_suite

__all__ = [
    "main",
    "SCHEMAS",
    "MAX_INDEX",
    "MAX_POLY_INDEX",
    "MAX_LITERAL_DIGITS",
    "MAX_CASES",
    "MAX_DEPTH",
]

# Last output index of ``transform -n``; ``--inline`` and ``shift-poly``
# lists hold at most MAX_INDEX + 1 entries.
MAX_INDEX = 1000
# Last output index of ``transform -n`` for a polynomial family: term n has
# degree n - 1, so computing the prefix costs O(n^3).
MAX_POLY_INDEX = 150
# Characters of one shift or list literal plus the size of its decimal
# exponent, so ``1e100000000`` counts as 100000011 digits.
MAX_LITERAL_DIGITS = 1000
# ``verify --cases`` and ``verify -n/--length``.
MAX_CASES = 1000
MAX_DEPTH = 200

_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)")


def _closed(**properties: dict) -> dict:
    """A JSON object schema that requires exactly ``properties``, in order."""
    return {
        "type": "object",
        "required": list(properties),
        "additionalProperties": False,
        "properties": properties,
    }


SCHEMAS: dict[str, dict] = {
    "transform": _closed(
        source={"type": "string"},
        shift={"type": "string"},
        domain={"type": "string"},
        values={
            "type": "array",
            "items": {"type": ["integer", "string"]},
            "minItems": 1,
        },
    ),
    "shift-poly": _closed(
        shift={"type": "string"},
        input={"type": "array", "items": {"type": ["integer", "string"]}},
        coefficients={
            "type": "array",
            "items": {"type": ["integer", "string"]},
            "minItems": 2,
        },
        text={"type": "string"},
    ),
    "table-segments": _closed(
        table={"const": "segments"},
        rows={
            "type": "array",
            "items": _closed(
                family={"type": "string"},
                r={"type": "integer"},
                values={"type": "array", "items": {"type": "integer"}},
                matches_reference={"type": "boolean"},
            ),
        },
    ),
    "table-recurrences": _closed(
        table={"const": "recurrences"},
        rows={
            "type": "array",
            "items": _closed(
                family={"type": "string"},
                b1={"type": "string"},
                b2={"type": "string"},
                init={"type": "array", "items": {"type": ["integer", "string"]}},
                matches_reference={"type": "boolean"},
            ),
        },
    ),
    "verify": _closed(
        suite={"type": "string"},
        seed={"type": "integer"},
        cases={"type": "integer"},
        ok={"type": "boolean"},
        properties={
            "type": "array",
            "items": _closed(
                name={"type": "string"},
                cases={"type": "integer"},
                ok={"type": "boolean"},
                failure={"type": ["string", "null"]},
            ),
        },
    ),
    "family": _closed(
        families={
            "type": "array",
            "items": _closed(
                name={"type": "string"},
                oeis={"type": ["string", "null"]},
                poly={"type": "string"},
                init={"type": "array", "items": {"type": ["integer", "string"]}},
                domain={"type": "string"},
            ),
        },
    ),
}


class _Result(namedtuple("_Result", "doc lines header rows code", defaults=((), (), 0))):
    """One command's output: its JSON document and the views read from it.

    ``lines`` is the plain view; ``header`` and ``rows`` the table that the
    csv and oeis views read; ``code`` the exit status.
    """

    __slots__ = ()


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} is {value}, over the limit of {cap}")


def _literal_size(text: str) -> int:
    size = len(text)
    exponent = _EXPONENT.search(text)
    if exponent is not None and size <= MAX_LITERAL_DIGITS:
        size += abs(int(exponent.group(1)))
    return size


def _parse_literal(text: str, what: str) -> Scalar:
    """Integer or rational literal; den-1 fractions stay integers."""
    _check_cap(f"size of literal {text[:24]!r}", _literal_size(text), MAX_LITERAL_DIGITS)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {what} {text!r}") from None
    return int(value) if value.denominator == 1 else value


def _parse_scalar_list(text: str) -> list[Scalar]:
    """Comma-separated integers/rationals; all-integer input stays integer."""
    tokens = text.split(",")
    _check_cap("list length", len(tokens), MAX_INDEX + 1)
    items: list[Scalar] = []
    for token in tokens:
        token = token.strip()
        if not token:
            raise ValueError("empty entry in comma-separated values")
        items.append(_parse_literal(token, "entry"))
    return items


def _check_output_size(values: Sequence[Scalar], r: Scalar, n: int) -> None:
    """Reject, before computing, an output integer too long to print.

    Both commands sum binomial multiples of c_k * r^(n-k), r = p/q.  With L the
    lcm of the input denominators, each output component is N / (L*q^n), and
    both N and L*q^n are at most (|p| + q)^n * L * max|numerator of c_k|, a
    Poly's numerators taken over its one denominator.
    """
    if r == 0 or n < 0:  # the identity prints its capped input; n < 0 fails later
        return
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    parts = [_numerators(v) for v in values[: n + 1]]
    common = 1
    for den in {den for _, den in parts}:
        common = math.lcm(common, den)
        if common.bit_length() > 4 * limit:  # already more digits than the limit
            break
    top = max((c.bit_length() for nums, _ in parts for c in nums), default=0)
    x = abs(r.numerator) + r.denominator
    drop = max(0, x.bit_length() - 64)  # x**n <= 2**(drop*n) * ((x >> drop) + 1)**n
    head = (x >> drop) + (1 if drop else 0)
    bits = common.bit_length() + top + drop * n + (head**n).bit_length()
    _check_cap("bound on output digits", bits * 30103 // 100000 + 1, limit)


def _json_value(v: Scalar):
    """Exactly integral values become JSON numbers, the rest exact strings."""
    ratio = _rational_parts(v)
    if ratio is not None and ratio[1] == 1:
        return ratio[0]
    return render_scalar(v)


def _cmd_transform(args: argparse.Namespace) -> _Result:
    r = _parse_literal(args.shift, "shift")
    if args.length is not None:
        if args.length < 0:
            raise ValueError("length must be nonnegative")
        _check_cap("length", args.length, MAX_INDEX)
    if args.family is not None:
        n_max = 9 if args.length is None else args.length
        if get_family(args.family).domain.kind == "poly":
            _check_cap("length of a polynomial family", n_max, MAX_POLY_INDEX)
        base = family_prefix(args.family, n_max)
    else:
        base = SequencePrefix(_parse_scalar_list(args.inline))
        n_max = len(base) - 1 if args.length is None else args.length
    _check_output_size(base.values, r, n_max)
    result = apply_transform(base, r, n_max)
    values = [_json_value(v) for v in result]
    doc = {
        "source": args.family or "inline",
        "shift": render_scalar(r),
        "domain": str(result.domain),
        "values": values,
    }
    lines = [" ".join(map(str, values))]
    return _Result(doc, lines, ["n", "value"], list(enumerate(values)))


def _cmd_shift_poly(args: argparse.Namespace) -> _Result:
    coeffs = _parse_scalar_list(args.coeffs)
    p = CharPoly(coeffs)
    r = _parse_literal(args.shift, "shift")
    _check_output_size(coeffs, r, len(coeffs) - 1)
    q = shift_characteristic(p, r)
    doc = {
        "shift": render_scalar(r),
        "input": [_json_value(c) for c in p.coeffs],
        "coefficients": [_json_value(c) for c in q.coeffs],
        "text": q.text(),
    }
    return _Result(doc, [doc["text"]])


def _cmd_table(args: argparse.Namespace) -> _Result:
    if args.which == "segments":
        rows = [
            {
                "family": row.family,
                "r": row.r,
                "values": list(row.values),
                "matches_reference": row.ok,
            }
            for row in table_initial_segments()
        ]
        header = ["family", "r", *(f"a{i}" for i in range(10))]
        table = [[row["family"], row["r"], *row["values"]] for row in rows]
        lines = [
            f"{row['family']:<11} r={row['r']}  {' '.join(map(str, row['values']))}"
            for row in rows
        ]
    else:
        rows = [
            {
                "family": row.family,
                "b1": row.b1.compact(),
                "b2": row.b2.compact(),
                "init": [_json_value(v) for v in row.init],
                "matches_reference": row.ok,
            }
            for row in recurrences_table()
        ]
        header = ["family", "b1", "b2", "init0", "init1"]
        table = [[row["family"], row["b1"], row["b2"], *row["init"]] for row in rows]
        lines = [
            f"{row['family']:<11} b_n = ({row['b1']})*b(n-1)"
            f" - ({row['b2']})*b(n-2)   init ({', '.join(map(str, row['init']))})"
            for row in rows
        ]
    ok = [row["matches_reference"] for row in rows]
    lines = [line + ("" if row_ok else "  MISMATCH") for line, row_ok in zip(lines, ok)]
    doc = {"table": args.which, "rows": rows}
    return _Result(doc, lines, header, table, 0 if all(ok) else 1)


def _cmd_verify(args: argparse.Namespace) -> _Result:
    _check_cap("cases", args.cases, MAX_CASES)
    _check_cap("length", args.length, MAX_DEPTH)
    report = run_suite(args.suite, seed=args.seed, cases=args.cases, depth=args.length)
    props = [
        {"name": p.name, "cases": p.cases, "ok": p.ok, "failure": p.failure}
        for p in report.properties
    ]
    doc = {
        "suite": report.suite,
        "seed": report.seed,
        "cases": report.requested_cases,
        "ok": report.ok,
        "properties": props,
    }
    lines = [f"suite {report.suite} (seed {report.seed}, {report.requested_cases} cases)"]
    for p in props:
        status = "ok  " if p["ok"] else "FAIL"
        failure = "" if p["ok"] else f": {p['failure']}"
        lines.append(f"  {status} {p['name']} ({p['cases']} cases){failure}")
    failed = sum(1 for p in props if not p["ok"])
    passed = f"all {len(props)} properties passed"
    lines.append(f"{failed} of {len(props)} properties failed" if failed else passed)
    return _Result(doc, lines, code=0 if report.ok else 1)


def _cmd_family(args: argparse.Namespace) -> _Result:
    families = [
        {
            "name": spec.name,
            "oeis": spec.oeis,
            "poly": family_char_poly(spec.name).text(),
            "init": [_json_value(v) for v in spec.init],
            "domain": str(spec.domain),
        }
        for spec in map(get_family, family_names())
    ]
    lines = [
        f"{f['name']:<11} {f['oeis'] or '-':<8} P(X) = {f['poly']:<22}"
        f" init ({', '.join(map(str, f['init']))})"
        for f in families
    ]
    header = ["name", "oeis", "poly", "init0", "init1"]
    table = [[f["name"], f["oeis"] or "", f["poly"], *f["init"]] for f in families]
    return _Result({"families": families}, lines, header, table)


def _emit(fmt: str, result: _Result) -> None:
    """Print one result in one format; every format reads the same values."""
    if fmt == "json":
        import json

        text = json.dumps(result.doc, indent=2) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([result.header, *result.rows])
        text = buf.getvalue()
    elif fmt == "oeis":
        text = ", ".join(str(row[-1]) for row in result.rows) + "\n"
    else:
        text = "".join(line + "\n" for line in result.lines)
    print(text, end="")


_COMMANDS = {  # name -> (handler, help, --format choices)
    "transform": (
        _cmd_transform,
        "apply the shift-r transform to a family or inline prefix",
        ("plain", "json", "csv", "oeis"),
    ),
    "shift-poly": (
        _cmd_shift_poly,
        "coefficients of P(X - r) for a monic characteristic polynomial",
        ("plain", "json"),
    ),
    "table": (_cmd_table, "print the embedded reference tables", ("plain", "json", "csv")),
    "verify": (_cmd_verify, "run a seeded self-verification suite", ("plain", "json")),
    "family": (_cmd_family, "list the registered families", ("plain", "json", "csv")),
}


class _Formatter(argparse.HelpFormatter):
    """argparse's default width, the terminal's columns - 2, found without importing shutil."""

    def __init__(self, prog: str) -> None:
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):
                columns = 80
        super().__init__(prog, width=columns - 2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binshift",
        description="Exact shift-parameterized binomial transforms of sequences.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=c[1], formatter_class=_Formatter)
        for name, c in _COMMANDS.items()
    }
    # Arguments are added in their --help order, --format last.
    source = commands["transform"].add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="registered family name")
    source.add_argument(
        "--inline",
        help="comma-separated integers/rationals"
        " (use --inline=-1,2,3 when the first entry is negative)",
    )
    commands["shift-poly"].add_argument(
        "coeffs",
        help="comma-separated descending coefficients, leading 1 (e.g. 1,-1,-1)",
    )
    for name in ("transform", "shift-poly"):
        commands[name].add_argument(
            "-r",
            "--shift",
            default="0",
            help="shift value, integer or rational (use -r=-1/2 for negatives)",
        )
    commands["transform"].add_argument(
        "-n",
        "--length",
        type=int,
        help="last output index (default: 9 for families, input length for inline;"
        f" at most {MAX_INDEX}, or {MAX_POLY_INDEX} for a polynomial family)",
    )
    commands["table"].add_argument("which", choices=("recurrences", "segments"))
    commands["verify"].add_argument("suite", choices=SUITE_NAMES)
    commands["verify"].add_argument("--seed", type=int, default=0)
    commands["verify"].add_argument(
        "--cases", type=int, default=100, help=f"cases per property (at most {MAX_CASES})"
    )
    commands["verify"].add_argument(
        "-n",
        "--length",
        type=int,
        default=20,
        help=f"index depth for enumerated identities (at most {MAX_DEPTH})",
    )
    for name, (handler, _, formats) in _COMMANDS.items():
        commands[name].add_argument("--format", choices=formats, default="plain")
        commands[name].set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        _emit(args.format, result)
    except (BinshiftError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result.code


if __name__ == "__main__":
    sys.exit(main())
