"""One-shot rows of the traced run: the ROADMAP baseline and CLI probes.

Each row is measured once per traced run, with tracing off.  The rows
reproduce the cases of the ROADMAP baseline so later changes can be read
against them; the CLI probes time single ``python -m binshift`` children
under the same flags as the ``cli_calls`` workload.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import time
from fractions import Fraction

import binshift as bs

from workloads import family_values, run_child

D_1E6 = 999983  # prime near 10^6
D_1E12 = 999999999989  # prime near 10^12: one squarefree check is ~10^6 divisions

# A 41-term transform at d = D_1E12 is a known defect: Quad re-runs the
# squarefree check on every arithmetic result, and the transform did not
# finish within 120 s at the baseline.  The row runs it in a child with this
# budget and reports 1 while it does not finish.
DEFECT_BUDGET_S = 5.0
DEFECT_CODE = (
    "import binshift as b\n"
    f"p = b.SequencePrefix([b.Quad(k, 1, {D_1E12}) for k in range(41)])\n"
    "b.apply_transform(p, 1)\n"
)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def child_ms(args: list[str]) -> float:
    t0 = time.perf_counter()
    proc = run_child(args)
    elapsed = (time.perf_counter() - t0) * 1000
    if proc.returncode != 0 or b"Traceback" in proc.stderr:
        raise RuntimeError(f"child {args} failed: {proc.stderr[-300:]!r}")
    return elapsed


def _median_child_ms(args: list[str], repeats: int) -> float:
    return statistics.median(child_ms(args) for _ in range(repeats))


def import_ms() -> float:
    """Cumulative import time of the binshift package from -X importtime."""
    proc = run_child(["-X", "importtime", "-c", "import binshift"])
    for line in proc.stderr.decode().splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| binshift$", line)
        if m:
            return int(m.group(1)) / 1000
    raise RuntimeError("no binshift line in -X importtime output")


def cli_rows(repeats: int = 3) -> dict[str, float]:
    """Per-layer CLI metrics: interpreter floor, import, one child per command."""
    commands = {
        "cli.transform_ms": ["transform", "--family", "pell", "-r", "2"],
        "cli.shift_poly_ms": ["shift-poly", "1,-1,-1", "-r", "1"],
        "cli.table_ms": ["table", "segments", "--format", "csv"],
        "cli.verify_ms": ["verify", "identities"],
        "cli.family_ms": ["family"],
    }
    rows = {"cli.interp_ms": _median_child_ms(["-c", "pass"], 2 * repeats)}
    rows["cli.import_ms"] = statistics.median(import_ms() for _ in range(repeats))
    for name, args in commands.items():
        rows[name] = _median_child_ms(["-m", "binshift", *args], repeats)
    bad = run_child(["-m", "binshift", "transform", "--family", "nosuch"])
    rows["cli.exit2_ok"] = float(
        bad.returncode == 2
        and bad.stderr.startswith(b"error:")
        and b"Traceback" not in bad.stderr
    )
    return rows


def baseline_rows(scale: float = 1.0) -> dict[str, float]:
    """The ROADMAP baseline cases, each timed once."""

    def n(value: int) -> int:
        return max(4, round(value * scale))

    rows = {}
    for size in (800, 1600):
        fib = bs.SequencePrefix(family_values("fibonacci", n(size)))
        rows[f"baseline.int_n{size}_r3_s"] = _timed(lambda: bs.apply_transform(fib, 3))
    for size in (400, 800):
        rat = bs.SequencePrefix([Fraction(v, 7) for v in family_values("fibonacci", n(size))])
        rows[f"baseline.rat_n{size}_s"] = _timed(
            lambda: bs.apply_transform(rat, Fraction(1, 3))
        )
    quad5 = bs.SequencePrefix([bs.Quad(v, 0, 5) for v in family_values("fibonacci", n(200))])
    rows["baseline.quad5_n200_s"] = _timed(lambda: bs.apply_transform(quad5, 1))
    wpoly = bs.family_prefix("wpoly", n(60))
    rows["baseline.wpoly_n60_s"] = _timed(lambda: bs.apply_transform(wpoly, 2))
    big = bs.SequencePrefix([bs.Quad(k, 1, D_1E6) for k in range(n(41))])
    rows["baseline.quad_d1e6_n41_s"] = _timed(lambda: bs.apply_transform(big, 1))
    x, y = bs.Quad(3, 1, D_1E12), bs.Quad(2, 5, D_1E12)
    rows["baseline.quad_d1e12_mul_s"] = _timed(lambda: x * y)
    try:
        run_child(["-c", DEFECT_CODE], timeout=DEFECT_BUDGET_S * scale)
        rows["baseline.quad_d1e12_n41_unfinished"] = 0.0
    except subprocess.TimeoutExpired:
        rows["baseline.quad_d1e12_n41_unfinished"] = 1.0
    rows["baseline.cli_family_ms"] = child_ms(["-m", "binshift", "family"])
    rows["baseline.cli_transform_ms"] = child_ms(
        ["-m", "binshift", "transform", "--family", "fibonacci", "-r", "1"]
    )
    verify_all = ["-m", "binshift", "verify", "all"]
    if scale < 1:
        verify_all += ["--cases", "2", "-n", "4"]
    rows["baseline.cli_verify_all_ms"] = child_ms(verify_all)
    rows["baseline.import_ms"] = import_ms()
    return rows
