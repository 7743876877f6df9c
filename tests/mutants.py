"""Named mutants of the source, and a runner.

Each entry of :data:`MUTANTS` is a reviewed defect that the tests must
catch: an exact snippet of any file under ``src/binshift`` (it occurs
once), its replacement, and the pytest node ids that must fail with it.
pytest does not collect this file; ``tests/test_static.py`` checks that
every snippet occurs exactly once and every node id names a test, so a
change that moves the code must move its mutants too.

    python tests/mutants.py [name or file ...]

runs the named mutants and every mutant of each named source file (a
file name under ``src/binshift``, for example ``series.py``); with no
arguments it runs the whole table.  It copies ``src/`` to a temporary
directory, checks that the chosen node ids pass on the unmutated copy,
then applies one mutant at a time and runs its node ids with that copy
on ``PYTHONPATH``.  Only pytest's exit 1 (a test failed) counts as a
kill.  Every other exit code counts as survived, and it is printed
beside the mutant, for example ``SURVIVED (pytest exit 2)`` when the
mutant breaks collection, so a survivor that never reached its tests
shows as such.  The runner prints each mutant as killed or survived and
exits 1 if any survives, 2 if the unmutated copy fails, a snippet is
missing or an argument names neither a mutant nor a file of the table.
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
UNIT = ("tests/test_transform.py::TestUnitTable",)
CHUNK_LISTS = (
    "tests/test_transform.py::TestKernelSelection::test_unit_table_lists_once_per_chunk",
)
CHUNK_SLICE = "column[max(end - _UNIT_CHUNK, 0) : end]"
CHUNK_ENDS = "range(len(column), 0, -_UNIT_CHUNK)"
QUAD = "tests/test_exactnum.py::TestQuad"
POLY = "tests/test_exactnum.py::TestPoly"
SQUAREFREE = "tests/test_exactnum.py::TestSquarefree"
INT_COLUMNS = ("tests/test_exactnum.py::TestIntColumns",)
ORACLE = ("tests/test_exactnum_oracle.py::TestAgainstFractionReference",)
MATRIX = "tests/test_models.py::TestMatrixIntPathDifferential::test_matches_scalar_route"

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
    # the unit table's chunks of lazy passes
    Mutant(
        "unit-chunk-drops-its-last-input",
        "_kernels.py",
        CHUNK_SLICE,
        "column[max(end - _UNIT_CHUNK, 0) + 1 : end]",
        UNIT,
    ),
    Mutant(
        "unit-chunks-from-the-front",
        "_kernels.py",
        CHUNK_ENDS,
        "range(_UNIT_CHUNK, len(column) + _UNIT_CHUNK, _UNIT_CHUNK)",
        UNIT,
    ),
    Mutant(
        "unit-chunk-inputs-not-reversed",
        "_kernels.py",
        f"reversed({CHUNK_SLICE})",
        CHUNK_SLICE,
        UNIT,
    ),
    Mutant(
        "unit-chunk-of-one-dropped",
        "_kernels.py",
        CHUNK_ENDS,
        "range(len(column), 1, -_UNIT_CHUNK)",
        UNIT + CHUNK_LISTS,
    ),
    Mutant(
        "unit-chunk-start-unclamped",
        "_kernels.py",
        "max(end - _UNIT_CHUNK, 0)",
        "end - _UNIT_CHUNK",
        UNIT + CHUNK_LISTS,
    ),
    Mutant(
        "unit-list-per-pass",
        "_kernels.py",
        "g = accumulate(g, initial=c)",
        "g = list(accumulate(g, initial=c))",
        CHUNK_LISTS,
    ),
    Mutant(
        "unit-list-one-chunk-early",
        "_kernels.py",
        f"""        for c in reversed({CHUNK_SLICE}):
            g = accumulate(g, initial=c)  # a pass, run when g is listed
        g = list(g)""",
        f"""        g = list(g)
        for c in reversed({CHUNK_SLICE}):
            g = accumulate(g, initial=c)""",
        CHUNK_LISTS,
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
        "riordan-power-one-off",
        "series.py",
        "r ** (n - k) * _geometric_column",
        "r ** (n - k + 1) * _geometric_column",
        ("tests/test_series.py::TestRiordanEntry::test_literals",),
    ),
    Mutant(
        "riordan-one-prefix-sum-short",
        "_kernels.py",
        "for _ in range(times):",
        "for _ in range(times - 1):",
        ("tests/test_series.py::TestRiordanEntry::test_literals",),
    ),
    Mutant(
        "riordan-shift-checked-above-the-diagonal-only",
        "series.py",
        "dom = domain_of(r)\n    if k > n:\n        return zero(dom)",
        "if k > n:\n        return zero(domain_of(r))",
        ("tests/test_series.py::TestRiordanEntry::test_float_and_bool_shifts_rejected",),
    ),
    Mutant(
        "views-shift-zero-reaches-the-table",
        "series.py",
        "if r == 0:\n        return f.promoted(target)",
        "if False:\n        return f.promoted(target)",
        ("tests/test_transform.py::TestKernelSelection::test_shift_zero_runs_no_table",),
    ),
    Mutant(
        "views-built-as-ogf",
        "series.py",
        "TruncSeries._of(f.kind, _on_ints(",
        "TruncSeries._of(OGF, _on_ints(",
        (
            "tests/test_series.py::TestEgfDifferential",
            "tests/test_series.py::TestEgfBuildsFewFractions",
        ),
    ),
    # verify's independent checks
    Mutant(
        "view-properties-without-double-sum",
        "verify.py",
        "holds = holds and out[n] == _double_sum(base, r, n)",
        "holds = holds",
        ("tests/test_verify.py::test_views_checked_by_the_double_sum",),
    ),
    Mutant(
        "naive-substitution-shift-by-plus-r",
        "verify.py",
        "base = [-rp, one_s]",
        "base = [rp, one_s]",
        (
            "tests/test_verify.py::test_each_suite_passes",
            "tests/test_view_guards.py::TestViewsDoNotCallTheKernel",
        ),
    ),
    Mutant(
        "double-sum-one-binomial-off",
        "verify.py",
        "math.comb(n, k) * r ** (n - k) * a[k]",
        "math.comb(n, k + 1) * r ** (n - k) * a[k]",
        (
            "tests/test_verify.py::test_each_suite_passes",
            "tests/test_view_guards.py::TestViewsDoNotCallTheKernel",
        ),
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
        "w = (top * (sum(map(abs, shift)) + 1) ** n).bit_length() + 1",
        "w = (top * (sum(map(abs, shift)) + 1) ** n).bit_length()",
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
        "sum(map(abs, shift))",
        "(abs(shift[-1]) if shift else 0)",
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
    Mutant("no-width-limit", "exactnum.py", "if not deg and w > _PACK_MAX_W:", "if False:", ONE_RUN),
    Mutant(
        "results-without-q^j-denominators",
        "exactnum.py",
        "repeat(q, len(columns[0]) - 1)",
        "repeat(1, len(columns[0]) - 1)",
        PACKED,
    ),
    Mutant(
        "int-columns-truncate-short-rows",
        "exactnum.py",
        "zip_longest(*rows, fillvalue=0)",
        "zip(*rows)",
        INT_COLUMNS,
    ),
    # the int-numerator core shared by Poly and Quad, and the radicand check
    Mutant(
        "quad-square-reduced-with-minus-d",
        "exactnum.py",
        "return a * c + self._tag * b * e, a * e + b * c",
        "return a * c - self._tag * b * e, a * e + b * c",
        (f"{QUAD}::test_golden_ratio_relations", f"{QUAD}::test_pow"),
    ),
    Mutant(
        "quad-times-fallback-flipped",
        "exactnum.py",
        "if len(x) < 2 or len(y) < 2:",
        "if len(x) >= 2 and len(y) >= 2:",
        (f"{QUAD}::test_pow",),
    ),
    Mutant(
        "quad-tags-joined-without-radicand-check",
        "exactnum.py",
        """    def _join_tag(self, other: "Quad") -> int:
        if self._tag != other._tag:""",
        """    def _join_tag(self, other: "Quad") -> int:
        if False:""",
        (f"{QUAD}::test_mixed_radicand_arithmetic_rejected",),
    ),
    Mutant(
        "eq-ignores-the-tag-of-irrationals",
        "exactnum.py",
        "return len(self._nums) <= 1 or self._tag == other._tag",
        "return True",
        (
            f"{QUAD}::test_rational_values_compare_across_radicands",
            f"{POLY}::test_nonconstants_need_matching_variable",
        ),
    ),
    Mutant(
        "rational-hashed-as-a-tuple",
        "exactnum.py",
        "return hash(Fraction(*ratio))",
        "return hash((self._nums, self._den))",
        (
            f"{QUAD}::test_rational_values_compare_across_radicands",
            f"{POLY}::test_constants_compare_across_variables",
        ),
    ),
    Mutant(
        "new-keeps-trailing-zeros",
        "exactnum.py",
        "if nums and not nums[-1]:",
        "if False:",
        (f"{QUAD}::test_golden_ratio_relations",),
    ),
    Mutant(
        "quad-rows-read-as-two-numerators",
        "exactnum.py",
        """    cls, tag = (Quad, dom.d) if dom.kind == "quad" else (Poly, dom.var)""",
        """    if dom.kind == "quad":
        return [Quad._new((x, y), d_n, dom.d) for x, y, d_n in zip(*columns, dens)]
    cls, tag = (Quad, dom.d) if dom.kind == "quad" else (Poly, dom.var)""",
        INT_COLUMNS,
    ),
    Mutant(
        "quad-rows-padded-to-two-numerators",
        "exactnum.py",
        "parts = [_numerators(v) for v in values]",
        """parts = [
        ((_numerators(v)[0] + (0, 0))[:2] if dom.kind == "quad" else _numerators(v)[0],
         _numerators(v)[1])
        for v in values
    ]""",
        INT_COLUMNS,
    ),
    Mutant(
        "numerators-of-a-fraction-over-1",
        "exactnum.py",
        "return ((x.numerator,) if x else ()), x.denominator",
        "return ((x.numerator,) if x else ()), 1",
        ("tests/test_exactnum.py::TestNumerators",),
    ),
    Mutant(
        "sub-adds",
        "exactnum.py",
        "return self.__add__(other, -1)",
        "return self.__add__(other, 1)",
        ORACLE,
    ),
    Mutant(
        "sum-takes-self-tag-without-join",
        "exactnum.py",
        """tag = self._tag if self._tag == other._tag else self._join_tag(other)
            b, b_den""",
        """tag = self._tag
            b, b_den""",
        (
            f"{QUAD}::test_mixed_radicand_arithmetic_rejected",
            f"{POLY}::test_nonconstants_need_matching_variable",
        ),
    ),
    Mutant(
        "power-multiplies-before-squaring",
        "exactnum.py",
        """        base = mul(base, base)
        if n & 1:
            result = mul(result, base)""",
        """        if n & 1:
            result = mul(result, base)
        base = mul(base, base)""",
        (f"{QUAD}::test_pow", f"{POLY}::test_power"),
    ),
    Mutant(
        "squarefree-calls-1-a-square",
        "exactnum.py",
        "return m == 1 or root * root != m",
        "return root * root != m",
        ORACLE,
    ),
    Mutant(
        "squarefree-misses-a-repeated-factor",
        "exactnum.py",
        """            if m % f == 0:
                return False""",
        """            if False:
                return False""",
        (f"{SQUAREFREE}::test_basic",),
    ),
    Mutant(
        "squarefree-cap-off-by-one",
        "exactnum.py",
        "if m > _MAX_RADICAND:",
        "if m >= _MAX_RADICAND:",
        (f"{SQUAREFREE}::test_radicand_cap",),
    ),
    # the core of the one-domain containers
    Mutant(
        "containers-equal-across-classes",
        "transform.py",
        "if isinstance(other, type(self)):",
        "if isinstance(other, _OneDomain):",
        ("tests/test_transform.py::TestSequencePrefix::test_value_equality_across_domains",),
    ),
    Mutant(
        "series-equality-ignores-kind",
        "series.py",
        "return self._kind == other._kind and self._values == other._values",
        "return self._values == other._values",
        ("tests/test_series.py::TestTruncSeries::test_prefix_round_trip",),
    ),
    Mutant(
        "unchecked-constructor-stores-the-list",
        "transform.py",
        "self._domain, self._values = domain, tuple(values)",
        "self._domain, self._values = domain, values",
        ("tests/test_transform.py::TestApplyTransform::test_fibonacci_shift1",),
    ),
    Mutant(
        "promoted-skips-the-promotion",
        "transform.py",
        "return type(self)(self._values, target)",
        "return self",
        (
            "tests/test_transform.py::test_prefix_promotion_round_trip",
            "tests/test_recurrence.py::TestRecurrenceLoopsDifferential::test_apply_char_operator",
        ),
    ),
    Mutant(
        "charpoly-unify-before-length-check",
        "recurrence.py",
        """        vals = list(coeffs)
        if len(vals) < 2:
            raise ValueError("characteristic polynomial needs degree at least 1")
        super().__init__(vals, domain)""",
        """        vals = list(coeffs)
        super().__init__(vals, domain)
        if len(vals) < 2:
            raise ValueError("characteristic polynomial needs degree at least 1")""",
        ("tests/test_recurrence.py::TestCharPoly::test_validation",),
    ),
    # the matrix view's one loop, u'^T (q M' + s E I)^n v' / (D_u D_v (q E)^n)
    Mutant(
        "matrix-diagonal-shift-not-scaled-by-E",
        "models.py",
        "row[i] += s * e",
        "row[i] += s",
        (MATRIX,),
    ),
    Mutant(
        "matrix-denominator-without-E",
        "models.py",
        "(q * e) ** n",
        "q ** n",
        (MATRIX,),
    ),
    Mutant(
        "matrix-off-diagonal-not-scaled-by-q",
        "models.py",
        "[[q * x for x in flat[i : i + dim]] for i in range(0, dim * dim, dim)]",
        "[[q * x if j == i // dim else x for j, x in enumerate(flat[i : i + dim])]"
        " for i in range(0, dim * dim, dim)]",
        (MATRIX,),
    ),
    Mutant(
        "matrix-quad-poly-result-undivided",
        "models.py",
        "return total * promote(Fraction(1, den), target)",
        "return promote(total, target)",
        (MATRIX,),
    ),
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


def selected(names) -> list:
    """The mutants that ``names`` picks by name or by source file, in
    table order; the whole table when ``names`` is empty."""
    return [m for m in MUTANTS if not names or {m.name, m.file} & set(names)]


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS} - {m.file for m in MUTANTS}
    if unknown:
        print(f"unknown mutants or files: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = selected(names)
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
            code = _pytest(src, m.node_ids, tmp)
            path.write_text(original)
            killed = code == 1
            verdict = "killed" if killed else f"SURVIVED (pytest exit {code})"
            print(f"{verdict}  {m.name}", flush=True)
            if not killed:
                survived.append(m.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
