#!/usr/bin/env python3
"""Size of the library source: line count and settable values.

``src_lines`` is the total line count of ``src/slat/*.py`` (as ``wc -l``),
and ``test_lines`` that of ``tests/*.py``, so a cut in src that only moved
code into the tests shows.
``settable_values`` counts, over the same files, every value a caller can
set: dataclass fields that are not ``ClassVar``, defaulted positional and
keyword-only parameters of every function, and ``add_argument`` calls.

Run from anywhere: ``python scripts/src_budget.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "slat"
TESTS = ROOT / "tests"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and not _is_classvar(s.annotation)
                         for s in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            count += 1
    return count


def _texts(folder: Path) -> list[str]:
    return [f.read_text(encoding="utf-8") for f in sorted(folder.glob("*.py"))]


def main():
    texts = _texts(SRC)
    print(f"src_lines {sum(t.count(chr(10)) for t in texts)}")
    print(f"settable_values {sum(settable_values(ast.parse(t)) for t in texts)}")
    print(f"test_lines {sum(t.count(chr(10)) for t in _texts(TESTS))}")


if __name__ == "__main__":
    main()
