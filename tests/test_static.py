"""Checks on the source itself, run without executing the library's loops.

* Layering: ``binshift._kernels`` imports only the standard library,
  ``transform`` imports neither ``recurrence`` nor ``series``, and each
  ring loop is defined once, in ``_kernels``.
* The one-domain containers share the storage, unchecked constructor,
  promotion and equality of ``transform._OneDomain``; only
  ``TruncSeries``, whose kind takes part, redefines them, and
  ``BinetForm`` its promotion, which refuses a polynomial domain.
* Only ``exactnum`` tests for a bool: every count and index goes
  through ``exactnum._count``.
* The int-numerator layout of ``Poly`` and ``Quad`` stays behind
  ``exactnum``: no other module reads ``_nums``, ``_den`` or ``_tag`` or
  calls a ``_numerators`` method; they call ``exactnum._numerators``.
* The mutant table of ``tests/mutants.py`` is in sync with the source:
  every snippet occurs exactly once and every node id names a test.
* Every annotation in the package resolves with ``typing.get_type_hints``.
"""

import ast
import importlib
import inspect
import sys
import typing
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "binshift"
LOOPS = (
    "_table",
    "_difference_table",
    "_shifted_recurrence",
    "_continued",
    "_operator_sums",
    "_taylor_shift",
    "_geometric_column",
)
CORE = {"_of", "domain", "promoted", "__eq__", "__hash__"}
LAYOUT = {"_nums", "_den", "_tag", "_numerators"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(path):
    """(level, dotted name) of every module an import statement names; a
    ``from`` import also yields each imported name under its module."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            out += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.append((node.level, base))
            out += [(node.level, f"{base}.{alias.name}".lstrip(".")) for alias in node.names]
    return out


class TestLayering:
    def test_kernels_import_only_the_stdlib(self):
        imports = _imports(SRC / "_kernels.py")
        assert imports
        for level, name in imports:
            assert level == 0, f"relative import of {name!r}"
            top = name.split(".")[0]
            assert top != "binshift" and top in sys.stdlib_module_names, name

    def test_transform_imports_neither_recurrence_nor_series(self):
        for _, name in _imports(SRC / "transform.py"):
            assert {"recurrence", "series"}.isdisjoint(name.split(".")), name

    def test_each_loop_defined_once_in_kernels(self):
        defs = {name: [] for name in LOOPS}
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.FunctionDef) and node.name in defs:
                    defs[node.name].append(path.name)
        assert defs == {name: ["_kernels.py"] for name in LOOPS}


def test_numerator_layout_read_only_in_exactnum():
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exactnum.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    ]
    assert reads == []


def test_bool_checked_only_in_exactnum():
    """Counts and indices are checked by ``exactnum._count``: no other
    module names ``bool`` in an ``isinstance`` call."""
    checks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exactnum.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(isinstance(n, ast.Name) and n.id == "bool" for a in node.args for n in ast.walk(a))
    ]
    assert checks == []


def _methods(cls_node):
    return {node.name for node in cls_node.body if isinstance(node, ast.FunctionDef)}


class TestOneDomainCore:
    def test_core_defines_the_shared_methods(self):
        (core,) = [
            node
            for node in ast.walk(_tree(SRC / "transform.py"))
            if isinstance(node, ast.ClassDef) and node.name == "_OneDomain"
        ]
        assert CORE <= _methods(core)

    def test_only_truncseries_redefines_them(self):
        redefined = {
            node.name: _methods(node) & CORE
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "_OneDomain" for b in node.bases)
        }
        assert redefined == {
            "SequencePrefix": set(),
            "CharPoly": set(),
            "Recurrence": set(),
            "TruncSeries": {"_of", "promoted", "__eq__", "__hash__"},
            "BinetForm": {"promoted"},
            "MatrixModel": set(),
        }


class TestMutantTable:
    def test_names_unique(self):
        names = [m.name for m in mutants.MUTANTS]
        assert len(names) == len(set(names))

    def test_selection_by_name_and_by_file(self):
        by_file = mutants.selected(["series.py", "riordan-one-prefix-sum-short"])
        assert [m for m in by_file if m.file != "series.py"] == [
            m for m in mutants.MUTANTS if m.name == "riordan-one-prefix-sum-short"
        ]
        assert [m for m in by_file if m.file == "series.py"] == [
            m for m in mutants.MUTANTS if m.file == "series.py"
        ]
        assert mutants.selected([]) == list(mutants.MUTANTS)

    def test_unknown_argument_exits_2(self, capsys):
        assert mutants.main(["series.py", "no-such-file.py"]) == 2
        assert capsys.readouterr().err == "unknown mutants or files: no-such-file.py\n"

    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
    def test_snippet_occurs_once(self, mutant):
        text = (SRC / mutant.file).read_text()
        assert text.count(mutant.snippet) == 1
        assert mutant.replacement != mutant.snippet

    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
    def test_node_ids_name_tests(self, mutant):
        assert mutant.node_ids
        for node_id in mutant.node_ids:
            path, *names = node_id.split("::")
            defined = {
                node.name
                for node in ast.walk(_tree(ROOT / path))
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            }
            for name in names:
                assert name.split("[")[0] in defined, node_id


def _annotated(module):
    """The functions and classes ``module`` defines, with the methods,
    properties and static or class methods of each class."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_annotations_resolve(name):
    module = importlib.import_module(
        "binshift" if name == "__init__" else f"binshift.{name}"
    )
    unresolved = []
    for obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError:
            unresolved.append(obj.__qualname__)
    assert unresolved == []
