"""Line counts of the library's modules, ``src/costparity/*.py``.

Every line of a module, class or function docstring is a docstring
line.  Of the other lines, a blank line is blank, a line that holds only
a comment is a comment line, and the rest are code lines.  Stdlib
only; run it as

    python tools/src_lines.py

It prints the four counts and their sum, the raw line count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "costparity"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Code, docstring, comment and blank lines of one module's text."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def count_tree() -> dict[str, int]:
    """The counts summed over the modules, with ``raw``, their sum."""
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in sorted(SRC.glob("*.py")):
        for kind, k in count(path.read_text()).items():
            total[kind] += k
    total["raw"] = sum(total.values())
    return total


if __name__ == "__main__":
    print(" ".join(f"{kind} {k:,}" for kind, k in count_tree().items()))
