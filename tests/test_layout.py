"""Module hygiene of the package source."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "d8index"


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith("d8index")
        for alias in node.names:
            if internal and alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_a_private_name_from_another():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in _private_imports(path)]
    assert found == []


def test_every_exported_name_resolves():
    # __main__ is skipped: importing it runs the CLI
    paths = sorted(p for p in SRC.glob("*.py") if p.stem != "__main__")
    missing = []
    for path in paths:
        name = "d8index" if path.stem == "__init__" else f"d8index.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert missing == []


def _coefficient_comparisons(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if isinstance(operand, ast.Constant) and operand.value in ("F2", "Z"):
                    yield f"{path.name}:{node.lineno} compares with {operand.value!r}"


def test_slice_solvers_take_one_path_for_every_coefficient_ring():
    # an F2 slice is a Z/4-module slice with every coordinate of order 2
    found = [hit for name in ("poly.py", "linalg.py")
             for hit in _coefficient_comparisons(SRC / name)]
    assert found == []
