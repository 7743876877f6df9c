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

Formats: ``plain`` (whitespace separated), ``json`` (one document,
schemas in :data:`SCHEMAS`), ``csv`` where the data is tabular, and
``oeis`` (comma+space separated values, handy for searching sequence
databases).  Negative shifts need the ``-r=-1`` / ``--shift=-1/2`` form
so they are not mistaken for option names.

Input sizes are capped, and each cap is checked before any value is
built: a typo such as ``-n 100000`` or ``-r=1e100000000`` exits 2 at
once instead of computing for minutes.  See :data:`MAX_INDEX`,
:data:`MAX_LITERAL_DIGITS`, :data:`MAX_CASES` and :data:`MAX_DEPTH`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from .errors import BinshiftError
from .exactnum import Poly, Quad, Scalar, render_scalar
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
    "MAX_LITERAL_DIGITS",
    "MAX_CASES",
    "MAX_DEPTH",
]

# Last output index of ``transform -n``; ``--inline`` and ``shift-poly``
# lists hold at most MAX_INDEX + 1 entries.
MAX_INDEX = 1000
# Characters of one shift or list literal plus the size of its decimal
# exponent, so ``1e100000000`` counts as 100000011 digits.
MAX_LITERAL_DIGITS = 1000
# ``verify --cases`` and ``verify -n/--length``.
MAX_CASES = 1000
MAX_DEPTH = 200

_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)")

_SEGMENT_HEADER = ["family", "r"] + [f"a{i}" for i in range(10)]

SCHEMAS: dict[str, dict] = {
    "transform": {
        "type": "object",
        "required": ["source", "shift", "domain", "values"],
        "additionalProperties": False,
        "properties": {
            "source": {"type": "string"},
            "shift": {"type": "string"},
            "domain": {"type": "string"},
            "values": {
                "type": "array",
                "items": {"type": ["integer", "string"]},
                "minItems": 1,
            },
        },
    },
    "shift-poly": {
        "type": "object",
        "required": ["shift", "input", "coefficients", "text"],
        "additionalProperties": False,
        "properties": {
            "shift": {"type": "string"},
            "input": {"type": "array", "items": {"type": ["integer", "string"]}},
            "coefficients": {
                "type": "array",
                "items": {"type": ["integer", "string"]},
                "minItems": 2,
            },
            "text": {"type": "string"},
        },
    },
    "table-segments": {
        "type": "object",
        "required": ["table", "rows"],
        "additionalProperties": False,
        "properties": {
            "table": {"const": "segments"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["family", "r", "values", "matches_reference"],
                    "additionalProperties": False,
                    "properties": {
                        "family": {"type": "string"},
                        "r": {"type": "integer"},
                        "values": {"type": "array", "items": {"type": "integer"}},
                        "matches_reference": {"type": "boolean"},
                    },
                },
            },
        },
    },
    "table-recurrences": {
        "type": "object",
        "required": ["table", "rows"],
        "additionalProperties": False,
        "properties": {
            "table": {"const": "recurrences"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["family", "b1", "b2", "init", "matches_reference"],
                    "additionalProperties": False,
                    "properties": {
                        "family": {"type": "string"},
                        "b1": {"type": "string"},
                        "b2": {"type": "string"},
                        "init": {
                            "type": "array",
                            "items": {"type": ["integer", "string"]},
                        },
                        "matches_reference": {"type": "boolean"},
                    },
                },
            },
        },
    },
    "verify": {
        "type": "object",
        "required": ["suite", "seed", "cases", "ok", "properties"],
        "additionalProperties": False,
        "properties": {
            "suite": {"type": "string"},
            "seed": {"type": "integer"},
            "cases": {"type": "integer"},
            "ok": {"type": "boolean"},
            "properties": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "cases", "ok", "failure"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {"type": "string"},
                        "cases": {"type": "integer"},
                        "ok": {"type": "boolean"},
                        "failure": {"type": ["string", "null"]},
                    },
                },
            },
        },
    },
    "family": {
        "type": "object",
        "required": ["families"],
        "additionalProperties": False,
        "properties": {
            "families": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "oeis", "poly", "init", "domain"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {"type": "string"},
                        "oeis": {"type": ["string", "null"]},
                        "poly": {"type": "string"},
                        "init": {
                            "type": "array",
                            "items": {"type": ["integer", "string"]},
                        },
                        "domain": {"type": "string"},
                    },
                },
            },
        },
    },
}


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} is {value}, over the limit of {cap}")


def _literal_size(text: str) -> int:
    size = len(text)
    exponent = _EXPONENT.search(text)
    if exponent is not None and size <= MAX_LITERAL_DIGITS:
        size += abs(int(exponent.group(1)))
    return size


def _parse_shift(text: str) -> Scalar:
    """Integer or rational shift literal; den-1 fractions stay integers."""
    _check_cap(f"size of literal {text[:24]!r}", _literal_size(text), MAX_LITERAL_DIGITS)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse shift {text!r}") from None
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
        items.append(_parse_shift(token))
    return items


def _json_value(v: Scalar):
    """Exactly integral values become JSON numbers, the rest exact strings."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    if isinstance(v, Poly) and v.is_constant:
        return _json_value(v.constant_value())
    if isinstance(v, Quad) and v.b == 0:
        return _json_value(v.a)
    return render_scalar(v)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    print(buf.getvalue(), end="")


def _cmd_transform(args: argparse.Namespace) -> int:
    r = _parse_shift(args.shift)
    if args.length is not None:
        _check_cap("length", args.length, MAX_INDEX)
    if args.family is not None:
        get_family(args.family)
        n_max = 9 if args.length is None else args.length
        if n_max < 0:
            raise ValueError("length must be nonnegative")
        base = family_prefix(args.family, n_max)
        source = args.family
    else:
        base = SequencePrefix(_parse_scalar_list(args.inline))
        n_max = len(base) - 1 if args.length is None else args.length
        source = "inline"
    result = apply_transform(base, r, n_max)
    if args.format == "plain":
        print(" ".join(render_scalar(v) for v in result))
    elif args.format == "oeis":
        print(", ".join(render_scalar(v) for v in result))
    elif args.format == "csv":
        _print_csv(["n", "value"], [[n, render_scalar(v)] for n, v in enumerate(result)])
    else:
        _print_json(
            {
                "source": source,
                "shift": render_scalar(r),
                "domain": str(result.domain),
                "values": [_json_value(v) for v in result],
            }
        )
    return 0


def _cmd_shift_poly(args: argparse.Namespace) -> int:
    coeffs = _parse_scalar_list(args.coeffs)
    p = CharPoly(coeffs)
    r = _parse_shift(args.shift)
    q = shift_characteristic(p, r)
    if args.format == "plain":
        print(q.text())
    else:
        _print_json(
            {
                "shift": render_scalar(r),
                "input": [_json_value(c) for c in p.coeffs],
                "coefficients": [_json_value(c) for c in q.coeffs],
                "text": q.text(),
            }
        )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "segments":
        rows = table_initial_segments()
        all_ok = all(row.ok for row in rows)
        if args.format == "plain":
            for row in rows:
                values = " ".join(str(v) for v in row.values)
                marker = "" if row.ok else "  MISMATCH"
                print(f"{row.family:<11} r={row.r}  {values}{marker}")
        elif args.format == "csv":
            _print_csv(
                _SEGMENT_HEADER,
                [[row.family, row.r, *row.values] for row in rows],
            )
        else:
            _print_json(
                {
                    "table": "segments",
                    "rows": [
                        {
                            "family": row.family,
                            "r": row.r,
                            "values": list(row.values),
                            "matches_reference": row.ok,
                        }
                        for row in rows
                    ],
                }
            )
        return 0 if all_ok else 1
    rows = recurrences_table()
    all_ok = all(row.ok for row in rows)
    if args.format == "plain":
        for row in rows:
            inits = ", ".join(render_scalar(v) for v in row.init)
            marker = "" if row.ok else "  MISMATCH"
            print(
                f"{row.family:<11} b_n = ({row.b1.compact()})*b(n-1)"
                f" - ({row.b2.compact()})*b(n-2)   init ({inits}){marker}"
            )
    elif args.format == "csv":
        _print_csv(
            ["family", "b1", "b2", "init0", "init1"],
            [
                [
                    row.family,
                    row.b1.compact(),
                    row.b2.compact(),
                    render_scalar(row.init[0]),
                    render_scalar(row.init[1]),
                ]
                for row in rows
            ],
        )
    else:
        _print_json(
            {
                "table": "recurrences",
                "rows": [
                    {
                        "family": row.family,
                        "b1": row.b1.compact(),
                        "b2": row.b2.compact(),
                        "init": [_json_value(v) for v in row.init],
                        "matches_reference": row.ok,
                    }
                    for row in rows
                ],
            }
        )
    return 0 if all_ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_cap("cases", args.cases, MAX_CASES)
    _check_cap("length", args.length, MAX_DEPTH)
    report = run_suite(args.suite, seed=args.seed, cases=args.cases, depth=args.length)
    if args.format == "json":
        _print_json(
            {
                "suite": report.suite,
                "seed": report.seed,
                "cases": report.requested_cases,
                "ok": report.ok,
                "properties": [
                    {
                        "name": p.name,
                        "cases": p.cases,
                        "ok": p.ok,
                        "failure": p.failure,
                    }
                    for p in report.properties
                ],
            }
        )
    else:
        print(f"suite {report.suite} (seed {report.seed}, {report.requested_cases} cases)")
        for p in report.properties:
            if p.ok:
                print(f"  ok   {p.name} ({p.cases} cases)")
            else:
                print(f"  FAIL {p.name} ({p.cases} cases): {p.failure}")
        failed = sum(1 for p in report.properties if not p.ok)
        if failed:
            print(f"{failed} of {len(report.properties)} properties failed")
        else:
            print(f"all {len(report.properties)} properties passed")
    return 0 if report.ok else 1


def _cmd_family(args: argparse.Namespace) -> int:
    names = family_names()
    if args.format == "plain":
        for name in names:
            spec = get_family(name)
            poly = family_char_poly(name)
            inits = ", ".join(render_scalar(v) for v in spec.init)
            oeis = spec.oeis or "-"
            print(f"{name:<11} {oeis:<8} P(X) = {poly.text():<22} init ({inits})")
    elif args.format == "csv":
        rows = []
        for name in names:
            spec = get_family(name)
            rows.append(
                [
                    name,
                    spec.oeis or "",
                    family_char_poly(name).text(),
                    render_scalar(spec.init[0]),
                    render_scalar(spec.init[1]),
                ]
            )
        _print_csv(["name", "oeis", "poly", "init0", "init1"], rows)
    else:
        _print_json(
            {
                "families": [
                    {
                        "name": name,
                        "oeis": get_family(name).oeis,
                        "poly": family_char_poly(name).text(),
                        "init": [_json_value(v) for v in get_family(name).init],
                        "domain": str(get_family(name).domain),
                    }
                    for name in names
                ]
            }
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binshift",
        description="Exact shift-parameterized binomial transforms of sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser(
        "transform",
        help="apply the shift-r transform to a family or inline prefix",
    )
    src = p_tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="registered family name")
    src.add_argument("--inline", help="comma-separated integers/rationals")
    p_tr.add_argument(
        "-r",
        "--shift",
        default="0",
        help="shift value, integer or rational (use -r=-1/2 for negatives)",
    )
    p_tr.add_argument(
        "-n",
        "--length",
        type=int,
        default=None,
        help="last output index (default: 9 for families, input length for inline;"
        f" at most {MAX_INDEX})",
    )
    p_tr.add_argument(
        "--format",
        choices=("plain", "json", "csv", "oeis"),
        default="plain",
    )
    p_tr.set_defaults(handler=_cmd_transform)

    p_sp = sub.add_parser(
        "shift-poly",
        help="coefficients of P(X - r) for a monic characteristic polynomial",
    )
    p_sp.add_argument(
        "coeffs",
        help="comma-separated descending coefficients, leading 1 (e.g. 1,-1,-1)",
    )
    p_sp.add_argument(
        "-r",
        "--shift",
        default="0",
        help="shift value, integer or rational (use -r=-1/2 for negatives)",
    )
    p_sp.add_argument("--format", choices=("plain", "json"), default="plain")
    p_sp.set_defaults(handler=_cmd_shift_poly)

    p_tb = sub.add_parser("table", help="print the embedded reference tables")
    p_tb.add_argument("which", choices=("recurrences", "segments"))
    p_tb.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_tb.set_defaults(handler=_cmd_table)

    p_vf = sub.add_parser("verify", help="run a seeded self-verification suite")
    p_vf.add_argument("suite", choices=SUITE_NAMES)
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument(
        "--cases", type=int, default=100, help=f"cases per property (at most {MAX_CASES})"
    )
    p_vf.add_argument(
        "-n",
        "--length",
        type=int,
        default=20,
        help=f"index depth for enumerated identities (at most {MAX_DEPTH})",
    )
    p_vf.add_argument("--format", choices=("plain", "json"), default="plain")
    p_vf.set_defaults(handler=_cmd_verify)

    p_fam = sub.add_parser("family", help="list the registered families")
    p_fam.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_fam.set_defaults(handler=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BinshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
