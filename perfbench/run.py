"""Benchmark of binshift: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload int_kernel --seed 1 --seconds 10 --trace 0

Each workload is driven as a closed loop by one client in this process:
the next op starts only after the previous one and its check finished.
With ``--trace 0`` the run measures for at least ``--seconds`` seconds,
always completing the current round so every run has the same op mix,
and reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed
number of rounds twice, untraced then traced, and reports the per-layer
metrics (see tracing.py and baseline.py); end-to-end metrics never come
from a traced run.  Metric names, units and the workloads are read from
BENCHMARK.json.  The last line of stdout is one JSON object; the lines
before it repeat the figures for people, with the environment stamp.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"

SETUP_PROBES = 9  # at least this many, and one after every timed round
FLOOR_REPEATS = 7
# Nominal wall seconds of one round, checks included.  A traced run makes
# seconds / 2 worth of rounds: a fixed count, so its counters repeat
# exactly for a given seed and --seconds, and half the work keeps the
# traced run within budget.
ROUND_SECONDS = {
    "int_kernel": 1.3,
    "exact_domains": 1.5,
    "verify_small": 1.2,
    "cli_calls": 1.5,
}
MAX_REPORTED_FAILURES = 5


@dataclass
class Pass:
    """Latencies of one measured pass, kept per round as (op key, seconds)."""

    rounds: list[list[tuple[str, float]]] = field(default_factory=list)
    failed_per_round: list[int] = field(default_factory=list)
    verify_cases: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(self.failed_per_round)

    @property
    def ops_per_s(self) -> float:
        busy = sum(t for r in self.rounds for _, t in r)
        return (self.attempted - self.failed) / busy


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "binshift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "pycache": "warm: compiled before set-up; children run -S -B",
    }


def setup_probe(workload, run_child) -> float:
    """Set-up time of one fresh interpreter.

    For in-process workloads: import binshift plus one warm-up op, timed
    inside the child.  For cli_calls: the child's wall time to start the
    interpreter and import the CLI.
    """
    in_child = workload.name != "cli_calls"
    code = workload.warmup_code
    if in_child:
        code = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "import binshift\n"
            f"{code}\n"
            "print(time.perf_counter() - t0)\n"
        )
    t0 = time.perf_counter()
    proc = run_child(["-c", code])
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-300:]!r}")
    return float(proc.stdout) if in_child else wall


def measure(
    workload, seed: int, seconds: float | None, rounds: int | None, tracer=None, after_round=None
) -> Pass:
    """Closed loop over whole rounds: for ``rounds`` rounds, or until
    ``seconds`` have passed at a round boundary.  ``after_round`` runs
    between rounds, outside the timed spans."""
    order = random.Random(f"order-{seed}")
    result_pass = Pass()
    start = time.perf_counter()
    while True:
        latencies: list[tuple[str, float]] = []
        failed = 0
        for op in workload.round(order):
            if tracer is not None:
                tracer.op_id = result_pass.attempted + len(latencies)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            latencies.append((op.key, time.perf_counter() - t0))
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            cases = getattr(result, "properties", None)
            if cases is not None:
                result_pass.verify_cases += sum(p.cases for p in cases)
            if error is not None:
                failed += 1
                if result_pass.failed + failed <= MAX_REPORTED_FAILURES:
                    print(f"FAIL {error}", file=sys.stderr)
        result_pass.rounds.append(latencies)
        result_pass.failed_per_round.append(failed)
        if after_round is not None:
            t0 = time.perf_counter()
            after_round()
            start += time.perf_counter() - t0  # not part of the measured time
        if rounds is not None:
            if len(result_pass.rounds) >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return result_pass


def end_to_end(workload_name: str, setup_s: float, timed: Pass) -> dict[str, float]:
    """Throughput and latency percentiles over the sustained latency of
    each op key: the 90th percentile of that key's repeats over the rounds.

    The host's speed comes in bursts: for seconds at a time the same op
    runs up to 1.7x faster.  A high quantile over the repeats of one op
    tracks the speed the host sustains and ignores the bursts, where a
    median would follow whichever state held for most of the run.
    """
    by_key: dict[str, list[float]] = {}
    for latencies in timed.rounds:
        for key, t in latencies:
            by_key.setdefault(key, []).append(t)
    sustained = sorted(_p90(ts) for ts in by_key.values())
    ok_share = 1 - timed.failed / timed.attempted
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_calls" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": ok_share * len(sustained) / sum(sustained),
        "op_p50_ms": statistics.median(sustained) * 1000,
        "op_p90_ms": _p90(sustained) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def traced(workload_name, seed, seconds, scale, build, baseline, tracing):
    """Untraced then traced pass over the same rounds, plus one-shot rows."""
    rounds = max(1, round(seconds / 2 / ROUND_SECONDS[workload_name]))
    plain = measure(build(), seed, None, rounds)
    tracer = tracing.Tracer()
    workload = build()
    tracer.install()
    try:
        traced_pass = measure(workload, seed, None, rounds, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(TRACE_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
    metrics = tracer.metrics()
    metrics["verify.cases"] = float(traced_pass.verify_cases)
    metrics["trace.overhead_ratio"] = traced_pass.ops_per_s / plain.ops_per_s
    metrics.update(baseline.cli_rows())
    metrics.update(baseline.baseline_rows(scale))
    merged = Pass(
        plain.rounds + traced_pass.rounds,
        plain.failed_per_round + traced_pass.failed_per_round,
    )
    return metrics, merged


def sanity(workload_name: str, metrics: dict[str, float]) -> list[str]:
    """Invariants of the trace plumbing; a broken one fails the run."""
    counted = ("exactnum.quad_new", "exactnum.poly_new", "exactnum.squarefree_calls")
    problems = []
    if workload_name == "int_kernel":
        problems += [f"{c} is {metrics[c]:g} on integer inputs" for c in counted if metrics[c]]
    if workload_name == "exact_domains":
        problems += [f"{c} is 0 on quad and poly inputs" for c in counted if not metrics[c]]
    if workload_name in ("int_kernel", "exact_domains", "verify_small"):
        if metrics["transform.calls"] == 0:
            problems.append("no transform spans were recorded")
    return problems


def layer_shares(metrics: dict[str, float]) -> list[tuple[str, float]]:
    timed = {
        k: v
        for k, v in metrics.items()
        if k.endswith("_s")
        and not k.startswith(("baseline.", "cli."))
        and k not in ("transform.busy_s", "exactnum.squarefree_s")
    }
    total = sum(timed.values())
    return sorted(((k, v / total) for k, v in timed.items() if total), key=lambda kv: -kv[1])


def run(workload_name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """One benchmark run; prints the figures and returns the result object."""
    spec = json.loads(SPEC.read_text())
    compileall.compile_dir(str(SRC / "binshift"), quiet=1)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import baseline
    import tracing
    import workloads

    def build():
        return workloads.WORKLOADS[workload_name](seed, scale)

    print("env: " + " ".join(f"{k}={v!r}" for k, v in environment().items()))
    if workload_name == "cli_calls":
        floor = statistics.median(
            baseline.child_ms(["-c", "pass"]) for _ in range(FLOOR_REPEATS)
        )
        print(f"cli.interp_ms floor (python -S -B -c pass): {floor:.2f} ms")
    workload = build()
    workload.round(random.Random(f"warmup-{seed}"))[0].call()  # untimed warm-up op

    if trace:
        metrics, result = traced(workload_name, seed, seconds, scale, build, baseline, tracing)
        wanted = spec["per_layer"]
        problems = sanity(workload_name, metrics)
        for p in problems:
            print(f"FAIL sanity: {p}", file=sys.stderr)
        top = layer_shares(metrics)[:3]
        if top:
            print("largest self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        # set-up probes run between rounds, so their median spans the run
        probes = []

        def probe():
            probes.append(setup_probe(workload, workloads.run_child))

        result = measure(workload, seed, seconds, None, after_round=probe)
        while len(probes) < SETUP_PROBES:
            probe()
        problems = []
        metrics = end_to_end(workload_name, statistics.median(probes), result)
        TRACE_DIR.mkdir(exist_ok=True)
        samples = TRACE_DIR / f"latency-{workload_name}-seed{seed}.json"
        samples.write_text(json.dumps(result.rounds))
        wanted = spec["end_to_end"]

    print(
        f"workload {workload_name} seed {seed}: {result.attempted} ops in "
        f"{len(result.rounds)} rounds, closed loop, 1 client, trace={trace}"
    )
    if not trace:
        keys = len({key for r in result.rounds for key, _ in r})
        print(
            f"  (latency: {result.attempted} samples; percentiles over {keys} op keys,"
            f" each the 90th percentile of its {len(result.rounds)} rounds)"
        )
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    # a broken trace invariant counts as one more failed op
    attempted, failed = result.attempted + len(problems), result.failed + len(problems)
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "binshift" / "__init__.py").is_file():
        print(f"error: no binshift sources under {SRC}", file=sys.stderr)
        return 2
    names = {w["name"] for w in json.loads(SPEC.read_text())["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
