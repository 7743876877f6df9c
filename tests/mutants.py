"""Named mutants of the source, and a runner.

Each entry of :data:`MUTANTS` is a reviewed defect that the tests must
catch: an exact snippet of any file under ``src/binshift`` (it occurs
once), its replacement, and the pytest node ids that must fail with it.
pytest does not collect this file; ``tests/test_static.py`` checks that
every snippet occurs exactly once and every node id names a test, so a
change that moves the code must move its mutants too.

    python tests/mutants.py [name ...]

copies ``src/`` to a temporary directory, checks that the named node ids
pass on the unmutated copy, then applies one mutant at a time and runs
its node ids with that copy on ``PYTHONPATH``.  It prints each mutant as
killed or survived and exits 1 if any survives (2 if the unmutated copy
fails or a snippet is missing).  With no names it runs the whole table.
Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file snippet replacement node_ids")

ROUTE = ("tests/test_transform.py::TestRecurrenceRoute",)
SOLVED = "_taylor_shift([-1, c1, c2], p)"
PACKED = ("tests/test_exactnum.py::TestPackedColumns",)
ONE_RUN = ("tests/test_transform.py::TestOneKernelRun",)
SAME_HELP = ("tests/test_cli.py::TestHelp::test_same_bytes_as_stock_formatter",)

MUTANTS = (
    # the root-shift route
    Mutant(
        "route-checks-solve-window-only",
        "_kernels.py",
        "if t != c1 * b + c2 * a:",
        "if len(out) < 4 and t != c1 * b + c2 * a:",
        ROUTE,
    ),
    Mutant("route-P(X+p)", "_kernels.py", SOLVED, "_taylor_shift([-1, c1, c2], -p)", ROUTE),
    Mutant(
        "route-b1-minus-p-t0",
        "_kernels.py",
        "u, v = t0, t1 + p * t0",
        "u, v = t0, t1 - p * t0",
        ROUTE,
    ),
    Mutant(
        "route-last-entry-unchecked",
        "_kernels.py",
        "if t != c1 * b + c2 * a:",
        "if t != c1 * b + c2 * a and len(out) < len(column) - 1:",
        ROUTE,
    ),
    Mutant("route-d2-without-c2", "_kernels.py", SOLVED, "_taylor_shift([-1, c1, 0], p)", ROUTE),
    Mutant(
        "route-filter-sign",
        "_kernels.py",
        "- m1 * (m1 * m4 - m2 * m3)",
        "+ m1 * (m1 * m4 - m2 * m3)",
        ROUTE,
    ),
    Mutant(
        "route-registers-in-turn",
        "_kernels.py",
        "u, v = v, d1 * v + d2 * u",
        "u = v\n        v = d1 * v + d2 * u",
        ROUTE,
    ),
    # the transform's tables
    Mutant(
        "table-scale-not-reversed",
        "_kernels.py",
        "operator.mul, initial=1))[::-1]",
        "operator.mul, initial=1))",
        ("tests/test_transform.py::TestKernelSelection::test_unit_table_runs",),
    ),
    Mutant(
        "table-multiplies-back",
        "_kernels.py",
        "g = list(map(operator.floordiv, g, scale))",
        "g = list(map(operator.mul, g, scale))",
        ("tests/test_transform.py::TestKernelSelection::test_unit_table_runs",),
    ),
    Mutant(
        "difference-table-transposed",
        "_kernels.py",
        "t[k] = p * t[k] + t[k + 1]",
        "t[k] = t[k] + p * t[k + 1]",
        ("tests/test_transform.py::TestApplyTransform",),
    ),
    # the recurrence loops and the root shift
    Mutant(
        "taylor-shift-P(X+r)",
        "_kernels.py",
        "t[j] = t[j] - r * t[j - 1]",
        "t[j] = t[j] + r * t[j - 1]",
        ("tests/test_recurrence.py::TestShiftCharacteristic",),
    ),
    Mutant(
        "continued-registers-in-turn",
        "_kernels.py",
        "a, b = b, acc0 - c1 * b - c2 * a",
        "a = b\n            b = acc0 - c1 * b - c2 * a",
        ("tests/test_recurrence.py::TestRecurrenceUnroll",),
    ),
    Mutant(
        "continued-sum-sign",
        "_kernels.py",
        "acc = acc - c[k] * vals[n - k]",
        "acc = acc + c[k] * vals[n - k]",
        ("tests/test_recurrence.py::TestRecurrenceUnroll",),
    ),
    Mutant(
        "operator-sums-coefficients-reversed",
        "_kernels.py",
        "acc = acc + c[d - j] * vals[n + j]",
        "acc = acc + c[j] * vals[n + j]",
        ("tests/test_recurrence.py::TestApplyCharOperator",),
    ),
    # the series views
    Mutant(
        "over-geometric-without-r",
        "_kernels.py",
        "w.append(xs[j] + r * w[-1])",
        "w.append(xs[j] + w[-1])",
        ("tests/test_series.py::TestComposeGeometric", "tests/test_series.py::TestRiordanEntry"),
    ),
    Mutant(
        "over-geometric-prefix-sum-short",
        "_kernels.py",
        "list(accumulate(xs[: order + 1]))",
        "list(accumulate(xs[:order])) + [xs[order]]",
        ("tests/test_series.py::TestComposeGeometric",),
    ),
    Mutant(
        "horner-last-division-dropped",
        "_kernels.py",
        "return _over_geometric(acc, r, n_ord)",
        "return acc",
        ("tests/test_series.py::TestComposeGeometric",),
    ),
    Mutant(
        "binomial-rows-next-binomial",
        "_kernels.py",
        "c = c * (n - k) // (k + 1)",
        "c = c * (n - k) // (k + 2)",
        ("tests/test_series.py::TestEgfTransform",),
    ),
    Mutant(
        "geometric-column-one-division-short",
        "_kernels.py",
        "for _ in range(times):",
        "for _ in range(times - 1):",
        ("tests/test_series.py::TestRiordanEntry",),
    ),
    # the int lowering: packing the columns of a quad or poly prefix
    Mutant(
        "pack-w-one-bit-short",
        "exactnum.py",
        "w = (top * (norm + 1) ** n).bit_length() + 1",
        "w = (top * (norm + 1) ** n).bit_length()",
        PACKED,
    ),
    Mutant(
        "unpack-without-bias",
        "exactnum.py",
        "_split([v + bias for v in packed], slots, w, half)",
        "_split(packed, slots, w, 0)",
        PACKED,
    ),
    Mutant(
        "unpack-two-slots-without-bias",
        "exactnum.py",
        "hi = [(v + half) >> w for v in packed]",
        "hi = [v >> w for v in packed]",
        PACKED,
    ),
    Mutant(
        "pack-merge-order-swapped",
        "exactnum.py",
        "[x + (y << shift) for x, y in zip(lo, hi)]",
        "[y + (x << shift) for x, y in zip(lo, hi)]",
        PACKED,
    ),
    Mutant(
        "unpack-split-order-swapped",
        "exactnum.py",
        """_split([v & mask for v in biased], low, w, half) + _split(
        [v >> cut for v in biased], slots - low, w, half
    )""",
        """_split([v >> cut for v in biased], slots - low, w, half) + _split(
        [v & mask for v in biased], low, w, half
    )""",
        PACKED,
    ),
    Mutant(
        "symbolic-shift-without-e^k-scaling",
        "exactnum.py",
        "if e != 1:",
        "if e != 1 and not deg:",
        PACKED,
    ),
    Mutant(
        "shift-norm-from-leading-coefficient",
        "exactnum.py",
        "sum(map(abs, shift_nums))",
        "abs(shift_nums[-1])",
        PACKED,
    ),
    Mutant(
        "never-packed-at-rational-shift",
        "exactnum.py",
        "len(columns) == 1 or n < _PACK_MIN_N",
        "True",
        ONE_RUN,
    ),
    Mutant(
        "short-prefixes-packed",
        "exactnum.py",
        " or n < _PACK_MIN_N or len(columns) * n < _PACK_MIN_CN",
        "",
        ONE_RUN,
    ),
    Mutant("no-width-limit", "exactnum.py", "elif w > _PACK_MAX_W:", "elif False:", ONE_RUN),
    # the CLI's help width
    Mutant(
        "help-width-without-minus-2",
        "cli.py",
        "super().__init__(prog, width=columns - 2)",
        "super().__init__(prog, width=columns)",
        SAME_HELP,
    ),
    Mutant(
        "help-width-ignores-COLUMNS",
        "cli.py",
        'columns = int(os.environ["COLUMNS"])',
        "columns = 0",
        SAME_HELP,
    ),
)


def _pytest(src: Path, node_ids, cwd: Path) -> int:
    """pytest's exit code for ``node_ids`` run against the package in
    ``src``.  ``-o pythonpath=`` drops the checkout's own ``src`` from the
    path, and no bytecode is written, since a file rewritten within one
    second at the same size would reuse it."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    args = [str(ROOT / node_id) for node_id in node_ids]
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["-o", "pythonpath=", *args]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    node_ids = list(dict.fromkeys(n for m in chosen for n in m.node_ids))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if _pytest(src, node_ids, tmp) != 0:
            print("the unmutated copy fails its node ids", file=sys.stderr)
            return 2
        survived = []
        for m in chosen:
            path = src / "binshift" / m.file
            original = path.read_text()
            if original.count(m.snippet) != 1:
                print(f"{m.name}: the snippet does not occur once", file=sys.stderr)
                return 2
            path.write_text(original.replace(m.snippet, m.replacement))
            killed = _pytest(src, m.node_ids, tmp) == 1
            path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'}  {m.name}", flush=True)
            if not killed:
                survived.append(m.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
