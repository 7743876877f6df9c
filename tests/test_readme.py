"""The README's examples, run and compared with the output they show."""

import ast
import re
import shlex
from pathlib import Path

from binshift.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples(capsys):
    lines = _block("Command line", "sh").splitlines()
    checked = 0
    for line, shown in zip(lines, lines[1:]):
        if not (line.startswith("binshift ") and shown.startswith("# ")):
            continue
        code = main(shlex.split(line)[1:])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, shown[2:] + "\n", ""), line
        checked += 1
    assert checked == 4


def test_library_quickstart():
    source = _block("Library quickstart", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            shown = lines[node.end_lineno]
            assert shown.startswith("# "), text
            assert repr(eval(text, namespace)) == shown[2:], text
            checked += 1
        else:
            exec(text, namespace)
    assert checked == 6
