"""Seeded workloads of the binshift benchmark.

A workload is a pool of operations built once from the seed and replayed
in rounds: every round runs each pool entry exactly once, in a freshly
shuffled order, so inputs (and (N, r) pairs) repeat across rounds and
every complete round has the same mix.  An op is one timed call into
binshift's public API; its check runs afterwards, outside the timed span,
and compares the output with an independent route:

* the double sum  b_n = sum_k C(n, k) r^(n-k) a_k  over plain Fractions,
* the second-order template of the paper for the classical families,
  b_n = (p + 2r) b_{n-1} - (r^2 + p r + q) b_{n-2},
* evaluation of characteristic polynomials at random rational points,
* round trips through the inverse transform,
* golden bytes and exit codes for the command line.

Quadratic and polynomial values are projected onto rationals before the
oracle runs: with a rational shift the transform acts on the a and b parts
of a + b*sqrt(d) separately, and commutes with evaluating x at a point.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import binshift as bs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SEGMENTS = ROOT / "tests" / "golden" / "table2_segments.csv"

# Children run without site hooks and without writing bytecode, against a
# bytecode cache compiled once before set-up (see run.py).
CHILD_FLAGS = ("-S", "-B")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *CHILD_FLAGS, *args],
        env=child_env(),
        capture_output=True,
        timeout=timeout,
        cwd=ROOT,
    )


@dataclass
class Op:
    """One timed call and the check of its result.

    Ops with the same ``key`` are repeats of one pool entry (or, where
    inputs are fresh every round, of one kind of call); latencies are
    summarised per key.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    key: str = ""


@dataclass
class Workload:
    name: str
    pool: list[Op]
    warmup_code: str  # one op in source form, run by the set-up probe

    def __post_init__(self):
        for i, op in enumerate(self.pool):
            op.key = f"{i}.{op.kind}"

    def round(self, rng: random.Random) -> list[Op]:
        ops = list(self.pool)
        rng.shuffle(ops)
        return ops


# --- independent reference routes ------------------------------------------

# (p, q, initial pair) of a_n = p a_{n-1} - q a_{n-2}
FAMILIES = {
    "fibonacci": (1, -1, (0, 1)),
    "lucas": (1, -1, (2, 1)),
    "pell": (2, -1, (0, 1)),
    "jacobsthal": (1, -2, (0, 1)),
    "mersenne": (3, 2, (0, 1)),
}


def family_values(name: str, n_max: int) -> list[int]:
    p, q, (a0, a1) = FAMILIES[name]
    vals = [a0, a1]
    while len(vals) <= n_max:
        vals.append(p * vals[-1] - q * vals[-2])
    return vals[: n_max + 1]


def template_route(name: str, r, n_max: int) -> list:
    """Transform of a family through the shifted second-order recurrence."""
    p, q, (a0, a1) = FAMILIES[name]
    b1, b2 = p + 2 * r, r * r + p * r + q
    vals = [a0, a1 + r * a0]
    while len(vals) <= n_max:
        vals.append(b1 * vals[-1] - b2 * vals[-2])
    return vals[: n_max + 1]


def double_sum(a: list, r, n: int):
    """b_n = sum_k C(n, k) r^(n-k) a_k over ints or Fractions."""
    acc = 0
    power = 1
    for k in range(n, -1, -1):
        acc += comb(n, k) * power * a[k]
        power *= r
    return acc


def horner(coeffs_desc: list, z):
    acc = 0
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def project(v, z: Fraction) -> list[Fraction]:
    """Rational components of a scalar: Quad -> (a, b), Poly -> value at z."""
    if isinstance(v, bs.Quad):
        return [v.a, v.b]
    if isinstance(v, bs.Poly):
        return [horner(list(reversed(v.coeffs)), z)]
    return [Fraction(v)]


def _spots(rng: random.Random, n_max: int, count: int = 2) -> list[int]:
    return sorted({n_max, *(rng.randint(0, n_max) for _ in range(count))})


def check_prefix(out, expected_len: int) -> str | None:
    if not isinstance(out, bs.SequencePrefix):
        return f"expected a SequencePrefix, got {type(out).__name__}"
    if len(out) != expected_len:
        return f"length {len(out)} != {expected_len}"
    return None


def check_double_sum(out, comps: list[list], r, spots: list[int], z) -> str | None:
    """Compare projected outputs with the double sum of each component."""
    for n in spots:
        got = project(out[n], z)
        want = [double_sum(c, r, n) for c in comps]
        if got != want:
            return f"index {n}: got {got[:2]}..., double sum gives {want[:2]}..."
    return None


def check_roundtrip(out, inputs: list, r, m: int) -> str | None:
    """The first m outputs transformed back by -r give the first m inputs."""
    m = min(m, len(out))
    back = bs.apply_transform(list(out.values[:m]), -r)
    if list(back.values) != list(inputs[:m]):
        return f"inverse round trip differs within the first {m} terms"
    return None


def _first_failure(*results) -> str | None:
    for res in results:
        if res is not None:
            return res
    return None


def _scaled(n: int, scale: float, floor: int = 4) -> int:
    return max(floor, round(n * scale))


# --- int_kernel --------------------------------------------------------------


def _int_op(kind, prefix, raw, family, r, s, rng) -> Op:
    n_max = len(raw) - 1
    if kind == "apply":
        call, shift = (lambda: bs.apply_transform(prefix, r)), r
    elif kind == "inverse":
        call, shift = (lambda: bs.inverse_transform(prefix, r)), -r
    elif kind == "compose":
        call, shift = (lambda: bs.compose_transforms(prefix, r, s)), r + s
    else:
        call, shift = (lambda: bs.iterated_binomial(prefix, r)), r
    spots = _spots(rng, n_max)

    def check(out):
        return _first_failure(
            check_prefix(out, n_max + 1),
            (
                None
                if family is None or list(out.values) == template_route(family, shift, n_max)
                else f"{family}: transform and recurrence routes differ"
            ),
            check_double_sum(out, [raw], shift, spots, None),
            check_roundtrip(out, raw, shift, 64),
        )

    return Op(f"{kind}.{'family' if family else 'random'}", call, check)


def _unroll_op(family: str, r: int, n_max: int) -> Op:
    p, q, init = FAMILIES[family]
    rec = bs.Recurrence(bs.CharPoly((1, -p, q)), init)

    def check(out):
        return _first_failure(
            check_prefix(out, n_max + 1),
            None
            if list(out.values) == template_route(family, r, n_max)
            else f"{family}: unrolled transformed recurrence differs",
        )

    return Op("unroll", lambda: bs.unroll(bs.transform_recurrence(rec, r), n_max), check)


def int_kernel(seed: int, scale: float = 1.0) -> Workload:
    """Integer prefixes, N across 300..900: the transform's native-int loop.

    Twelve strata of N share the op kinds out at random, but each stratum
    has a fixed input source and net shift (the values, the split of a
    composed shift and the size jitter come from the seed): the cost of a
    stratum grows with N, the bit size of the inputs and the net shift,
    and fixing them keeps the run-to-run spread of the latency
    percentiles small.
    """
    rng = random.Random(seed)
    kinds = ["apply", "inverse", "compose", "iterated"] * 3
    rng.shuffle(kinds)
    names = list(FAMILIES)
    pool = []
    for i, kind in enumerate(kinds):
        n_max = _scaled(325 + 50 * i + rng.randint(-5, 5), scale)
        if i % 2 == 0:
            family = names[(i // 2) % len(names)]
            raw = family_values(family, n_max)
        else:
            family = None
            raw = [rng.randint(-(2**64), 2**64) for _ in range(n_max + 1)]
        total = 1 + i % 3  # the net shift; its sign changes the output sizes
        r = {"inverse": -total, "compose": rng.randint(-3, 3)}.get(kind, total)
        prefix = bs.SequencePrefix(raw)
        pool.append(_int_op(kind, prefix, raw, family, r, total - r, rng))
    # the ROADMAP reference case, in every round
    n_ref = _scaled(800, scale)
    fib = family_values("fibonacci", n_ref)
    pool.append(_int_op("apply", bs.SequencePrefix(fib), fib, "fibonacci", 3, 0, rng))
    for i in range(6):
        pool.append(
            _unroll_op(rng.choice(names), rng.randint(-3, 3), _scaled(300 + 100 * i, scale))
        )
    return Workload(
        "int_kernel",
        pool,
        "binshift.apply_transform(binshift.family_prefix('fibonacci', 800), 3)",
    )


# --- exact_domains -----------------------------------------------------------

D_SMALL = 5
D_LARGE = 999983  # prime, so the squarefree check runs to sqrt(d)


def _domain_op(kind, prefix, comps, r, z, rng) -> Op:
    n_max = len(prefix) - 1
    inputs = list(prefix.values)
    if kind == "inverse":
        call, shift = (lambda: bs.inverse_transform(prefix, r)), -r
    else:
        call, shift = (lambda: bs.apply_transform(prefix, r)), r
    spots = _spots(rng, n_max)

    def check(out):
        return _first_failure(
            check_prefix(out, n_max + 1),
            check_double_sum(out, comps, shift, spots, z),
            check_roundtrip(out, inputs, shift, 12),
        )

    return Op(kind, call, check)


def _wpoly_coeffs(n_max: int) -> list[list[Fraction]]:
    """W_0 = 0, W_1 = 1, W_n = 3x W_{n-1} - 2 W_{n-2}, ascending coefficients."""
    vals = [[], [Fraction(1)]]
    while len(vals) <= n_max:
        prev, prev2 = vals[-1], vals[-2]
        nxt = [Fraction(0)] + [3 * c for c in prev]
        for k, c in enumerate(prev2):
            nxt[k] -= 2 * c
        vals.append(nxt)
    return vals[: n_max + 1]


def _shift_char_op(p_desc, p_raw, r, r_raw, rng) -> Op:
    """shift_characteristic, checked by P(X - r) == Q(X) at random points."""
    p = bs.CharPoly(p_desc)
    points = [(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(2)]

    def value(raw, z):
        return horner(raw, z) if isinstance(raw, list) else Fraction(raw)

    def check(out):
        if not isinstance(out, bs.CharPoly) or out.degree != p.degree:
            return "shifted polynomial has the wrong type or degree"
        for t, z in points:
            got = horner([project(c, z)[0] for c in out.coeffs], t)
            want = horner([value(c, z) for c in p_raw], t - value(r_raw, z))
            if got != want:
                return f"P(X - r) differs from Q(X) at X={t}, z={z}"
        return None

    return Op("shift_char", lambda: bs.shift_characteristic(p, r), check)


def _ogf_op(raw: list[Fraction], r: Fraction) -> Op:
    f = bs.series_from_prefix(bs.SequencePrefix(raw), bs.OGF)

    def check(out):
        if not isinstance(out, bs.TruncSeries) or out.order != len(raw) - 1:
            return "geometric substitution returned the wrong series"
        want = [double_sum(raw, r, n) for n in range(len(raw))]
        if list(out.coeffs) != want:
            return "OGF substitution differs from the double sum"
        return None

    return Op("ogf", lambda: bs.series_compose_geometric(f, r), check)


def exact_domains(seed: int, scale: float = 1.0) -> Workload:
    """Rational, quadratic and polynomial prefixes, root shifts and an OGF.

    Sizes and shifts are fixed per entry and the seed draws the values:
    Fraction and Quad costs grow steeply with N, so size jitter would
    dominate the run-to-run spread.  Sizes sit in the lower part of the
    ranges of interest so that a run repeats every entry often enough for
    a steady 90th percentile per entry.
    """
    rng = random.Random(seed)
    z = Fraction(2, 3)  # evaluation point of poly(x) values
    pool = []
    third = Fraction(1, 3)
    for i in range(3):  # a_k / 7 at r = 1/3, N in 100..200
        n_max = _scaled(100 + 50 * i, scale)
        raw = [Fraction(rng.randint(-(10**6), 10**6), 7) for _ in range(n_max + 1)]
        kind = "inverse" if i == 1 else "apply"
        r = -third if kind == "inverse" else third
        pool.append(_domain_op(kind, bs.SequencePrefix(raw), [raw], r, None, rng))
    for d, centers in ((D_SMALL, (50, 75, 100)), (D_LARGE, (25, 35))):
        for i, c in enumerate(centers):
            n_max = _scaled(c, scale)
            a = [rng.randint(-999, 999) for _ in range(n_max + 1)]
            b = [rng.randint(-999, 999) for _ in range(n_max + 1)]
            prefix = bs.SequencePrefix([bs.Quad(x, y, d) for x, y in zip(a, b)])
            kind = "inverse" if i == 1 else "apply"
            r = -1 if kind == "inverse" else 1  # net shift 1, as in the ROADMAP
            comps = [[Fraction(x) for x in a], [Fraction(y) for y in b]]
            pool.append(_domain_op(kind, prefix, comps, r, None, rng))
    for c in (30, 40):  # wpoly, N in 30..40
        n_max = _scaled(c, scale)
        coeffs = _wpoly_coeffs(n_max)
        prefix = bs.SequencePrefix([bs.Poly(cs, "x") for cs in coeffs])
        comps = [[horner(list(reversed(cs)), z) for cs in coeffs]]
        pool.append(_domain_op("apply", prefix, comps, 2, z, rng))
    # root shifts: rational and poly(x) characteristic polynomials at a
    # rational and at a symbolic shift
    for poly_coeffs in (False, True):
        degree = _scaled(12, scale, 2)
        if poly_coeffs:
            raw = [[Fraction(1)]] + [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                for _ in range(degree)
            ]
            desc = [bs.Poly(c, "x") for c in raw]
            sym_raw, var = [Fraction(rng.randint(1, 5)), Fraction(1)], "x"
        else:
            raw = [Fraction(1)] + [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)
            ]
            desc = list(raw)
            sym_raw, var = [Fraction(0), Fraction(1)], "r"
        rat = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        # raw polynomials are kept ascending; horner wants descending
        sym = bs.Poly(sym_raw, var)
        raw_desc = [list(reversed(c)) if isinstance(c, list) else c for c in raw]
        pool.append(_shift_char_op(desc, raw_desc, rat, rat, rng))
        pool.append(_shift_char_op(desc, raw_desc, sym, list(reversed(sym_raw)), rng))
    for _ in range(2):  # OGF view, N = 45
        n_max = _scaled(45, scale)
        raw = [Fraction(rng.randint(-99, 99), 1 + k % 9) for k in range(n_max + 1)]
        pool.append(_ogf_op(raw, third))
    return Workload(
        "exact_domains",
        pool,
        "binshift.apply_transform([binshift.Quad(k, 1, 5) for k in range(101)], 1)",
    )


# --- verify_small ------------------------------------------------------------

VERIFY_SUITES = ("semigroup", "rootshift", "identities", "models")


def _verify_op(suite: str, seed: int, cases: int, depth: int) -> Op:
    def check(report):
        if not isinstance(report, bs.SuiteReport):
            return "run_suite did not return a SuiteReport"
        if not report.ok:
            bad = [p.name for p in report.properties if not p.ok]
            return f"{suite} seed {seed}: failing properties {bad}"
        if bs.run_suite(suite, seed=seed, cases=cases, depth=depth) != report:
            return f"{suite} seed {seed}: a second run gave a different report"
        return None

    return Op(
        f"verify.{suite}",
        lambda: bs.run_suite(suite, seed=seed, cases=cases, depth=depth),
        check,
        key=suite,
    )


class VerifyWorkload(Workload):
    """Each round runs the four suites once, every op with a fresh seed."""

    def __init__(self, seed: int, scale: float):
        self._seeds = random.Random(seed)
        self._cases = _scaled(20, scale, 2)
        self._depth = _scaled(20, scale, 2)
        super().__init__(
            "verify_small",
            [],
            "binshift.run_suite('semigroup', seed=0, cases=20, depth=20)",
        )

    def round(self, rng: random.Random) -> list[Op]:
        suites = list(VERIFY_SUITES)
        rng.shuffle(suites)
        return [
            _verify_op(s, self._seeds.randrange(2**31), self._cases, self._depth)
            for s in suites
        ]


def verify_small(seed: int, scale: float = 1.0) -> Workload:
    """Many tiny exact objects with no shared inputs: per-call overhead."""
    return VerifyWorkload(seed, scale)


# --- cli_calls ---------------------------------------------------------------


def _cli_op(args: list[str], expect_code: int, expect_out: Callable[[bytes], "str | None"]) -> Op:
    def check(proc):
        if b"Traceback" in proc.stderr:
            return f"{' '.join(args)}: traceback on stderr"
        if proc.returncode != expect_code:
            return f"{' '.join(args)}: exit {proc.returncode}, expected {expect_code}"
        if expect_code == 2 and not proc.stderr.startswith(b"error:"):
            return f"{' '.join(args)}: no error message on stderr"
        return expect_out(proc.stdout)

    return Op(f"cli.{args[0]}", lambda: run_child(["-m", "binshift", *args]), check)


def _equals(expected: bytes) -> Callable[[bytes], "str | None"]:
    return lambda out: None if out == expected else f"stdout {out[:60]!r} != {expected[:60]!r}"


def _json_values(expected: list) -> Callable[[bytes], "str | None"]:
    def check(out):
        doc = json.loads(out)
        got = [Fraction(v) if isinstance(v, str) else v for v in doc["values"]]
        return None if got == expected else "json values differ from the double sum"

    return check


def _nothing(out: bytes) -> str | None:
    return None if out == b"" else "usage error printed to stdout"


def cli_calls(seed: int, scale: float = 1.0) -> Workload:
    """One `python -m binshift` child per op: import cost and rendering."""
    rng = random.Random(seed)
    names = list(FAMILIES)
    golden = bs.TABLE2_GOLDEN
    pool = []
    for fmt, sep in (("plain", " "), ("oeis", ", ")):
        fam, r = rng.choice(names), rng.choice((1, 2))
        text = sep.join(str(v) for v in golden[(fam, r)]) + "\n"
        args = ["transform", "--family", fam, "-r", str(r), "--format", fmt]
        pool.append(_cli_op(args, 0, _equals(text.encode())))
    fam, r, n = rng.choice(names), rng.randint(-3, 3), rng.randint(5, 30)
    want = template_route(fam, r, n)
    args = ["transform", "--family", fam, f"-r={r}", "-n", str(n), "--format", "json"]
    pool.append(_cli_op(args, 0, _json_values(want)))
    raw = [rng.randint(-50, 50) for _ in range(rng.randint(5, 15))]
    shift = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    rows = "".join(
        f"{n},{double_sum(raw, shift, n)}\n" for n in range(len(raw))
    )
    args = ["transform", f"--inline={','.join(map(str, raw))}", f"-r={shift}", "--format", "csv"]
    pool.append(_cli_op(args, 0, _equals(("n,value\n" + rows).encode())))
    pool.append(_cli_op(["shift-poly", "1,-1,-1", "-r", "1"], 0, _equals(b"X^2 - 3*X + 1\n")))
    coeffs = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
    r = rng.randint(1, 4)
    t = Fraction(rng.randint(-9, 9), 7)

    def shift_poly_json(out, coeffs=coeffs, r=r, t=t):
        q = json.loads(out)["coefficients"]
        ok = horner([Fraction(c) for c in q], t) == horner(coeffs, t - r)
        return None if ok else "shift-poly coefficients fail P(X - r) == Q(X)"

    pool.append(
        _cli_op(
            ["shift-poly", ",".join(map(str, coeffs)), "-r", str(r), "--format", "json"],
            0,
            shift_poly_json,
        )
    )
    pool.append(
        _cli_op(
            ["table", "segments", "--format", "csv"], 0, _equals(GOLDEN_SEGMENTS.read_bytes())
        )
    )
    plain = "".join(
        f"{fam:<11} r={r}  {' '.join(str(v) for v in golden[(fam, r)])}\n"
        for fam in names
        for r in (1, 2)
    )
    pool.append(_cli_op(["table", "segments"], 0, _equals(plain.encode())))

    def recurrences_json(out):
        rows = json.loads(out)["rows"]
        ok = [row["family"] for row in rows] == names and all(
            row["matches_reference"] for row in rows
        )
        return None if ok else "recurrence table rows do not match the reference"

    pool.append(_cli_op(["table", "recurrences", "--format", "json"], 0, recurrences_json))

    def segments_json(out):
        rows = json.loads(out)["rows"]
        ok = all(
            row["matches_reference"] and tuple(row["values"]) == golden[(row["family"], row["r"])]
            for row in rows
        ) and len(rows) == len(golden)
        return None if ok else "segment table json differs from TABLE2_GOLDEN"

    pool.append(_cli_op(["table", "segments", "--format", "json"], 0, segments_json))

    def first_column(expected: list[str], skip: int, what: str):
        def check(out):
            lines = out.decode().splitlines()[skip:]
            got = [line.replace(",", " ").split()[0] for line in lines]
            ok = got == expected and b"MISMATCH" not in out
            return None if ok else f"{what} rows differ"

        return check

    pool.append(
        _cli_op(["table", "recurrences"], 0, first_column(names, 0, "recurrence table"))
    )
    pool.append(
        _cli_op(
            ["table", "recurrences", "--format", "csv"],
            0,
            first_column(names, 1, "recurrence csv"),
        )
    )
    vseed = rng.randrange(10**6)

    def verify_plain(out):
        ok = out.endswith(b"all 7 properties passed\n")
        return None if ok else "verify identities did not pass all properties"

    pool.append(_cli_op(["verify", "identities", "--seed", str(vseed)], 0, verify_plain))

    def verify_json(out):
        return None if json.loads(out)["ok"] is True else "verify semigroup reported a failure"

    args = ["verify", "semigroup", "--seed", str(vseed + 1), "--cases", "5", "--format", "json"]
    pool.append(_cli_op(args, 0, verify_json))
    all_names = names + ["wpoly"]

    def family_json(out):
        ok = [f["name"] for f in json.loads(out)["families"]] == all_names
        return None if ok else "family json listing differs"

    pool.append(_cli_op(["family"], 0, first_column(all_names, 0, "family listing")))
    pool.append(
        _cli_op(["family", "--format", "csv"], 0, first_column(all_names, 1, "family csv"))
    )
    pool.append(_cli_op(["family", "--format", "json"], 0, family_json))
    pool.append(_cli_op(["transform", "--family", "nosuch"], 2, _nothing))
    return Workload("cli_calls", pool, "import binshift.cli")


WORKLOADS: dict[str, Callable[[int, float], Workload]] = {
    "int_kernel": int_kernel,
    "exact_domains": exact_domains,
    "verify_small": verify_small,
    "cli_calls": cli_calls,
}
