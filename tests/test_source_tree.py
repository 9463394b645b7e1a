"""Rules on the package source itself: only code the library runs lives in ``src``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbkernel"


def test_every_private_function_has_a_caller_in_the_package():
    """Each ``_``-prefixed, non-dunder function or method defined in the package
    is read, as a name or an attribute, by package code; an import is no caller."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((path.name, name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert ("ising_kernel.py", "_check_ray") in defined  # the scan reached the package
    assert [(file, name) for file, name in defined if name not in read] == []
