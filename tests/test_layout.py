"""Module hygiene of the package source, and its README example."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

import d8index
from d8index.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d8index"


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


# the public API of the package: a change to this set is an API change
PUBLIC_NAMES = set("""
AdmissibilityVerdict BoundReport CATALOG ElementParseError F2_DIAGRAM
MOD2_REDUCTION RestrictionDiagram RingElement RingHom
RingMismatchError RingPresentation YW_F2 Z_DIAGRAM admissible admissible_z
bound_report capital_pi_poly check_reduction_cube
get_ring graded_ideal_slice ideal_contains
ideal_subset index_h1_z_product index_join
index_product_spheres_f2 index_product_spheres_z index_rep_sphere_z2k
index_sphere_r4j_f2 index_sphere_r4j_z join_scheme_obstruction
lift_bound_to_full lucas_binom_mod2 min_certified_d mvz_upper pi_in_d8 pi_poly
ramos_lower restriction rho_poly slice_intersection_is_zero
span_contains_by_enumeration verify_inclusion_power_case verify_inclusion_steps verify_membership_transfer
""".split())


def test_package_exports_are_the_objects_their_modules_export():
    assert len(d8index.__all__) == len(set(d8index.__all__))
    assert set(d8index.__all__) == PUBLIC_NAMES
    modules = [importlib.import_module(f"d8index.{p.stem}")
               for p in sorted(SRC.glob("*.py"))
               if p.stem not in ("__init__", "__main__")]
    for name in d8index.__all__:
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert homes, f"{name} is in no module's __all__"
        assert all(getattr(d8index, name) is getattr(m, name) for m in homes), name


# exported names that no module under src reads, each kept on purpose
LIBRARY_ONLY = {
    "get_ring",      # the library entry point the README shows
    "admissible_z",  # the literal_inclusion reading kept on ROADMAP
}


def _names_read(path):
    """Names a module reads: loaded Names, Attributes and ImportFrom
    names.  A def or an assignment binds its name without reading it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_exported_name_is_read_by_the_package():
    """Surface that only its own tests read is deleted, not exported."""
    read = {name for path in SRC.glob("*.py") for name in _names_read(path)}
    unread = {name for path in SRC.glob("*.py")
              if path.stem not in ("__init__", "__main__")
              for name in getattr(importlib.import_module(f"d8index.{path.stem}"),
                                  "__all__", ())
              if name not in read}
    assert unread == LIBRARY_ONLY


def test_package_rejects_unknown_names_and_star_binds_all():
    with pytest.raises(AttributeError):
        d8index.no_such_name
    namespace = {}
    exec("from d8index import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(d8index.__all__)


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


def _names_reached(defs, name):
    """Every name read by the function `name` of a module, and by each
    module-level function of it that it reaches by name."""
    seen, todo, names = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        used = {node.id for node in ast.walk(defs[fn]) if isinstance(node, ast.Name)}
        names |= used
        todo += [n for n in used if n in defs]
    return names


def test_enumeration_oracle_shares_only_the_prelude_and_encoder_with_the_deciders():
    """The brute-force oracle stays independent of the elimination path.
    Its one entry point runs the deciders' prelude
    (`_membership_instance`, which encodes with `element_vector`) and
    then its own subgroup closure, and reads nothing `poly` imports from
    `linalg` and never spans with `ideal_slice_vectors`, directly or
    through another `poly` function; nor does `graded_ideal_slice`,
    which spans for the oracle."""
    tree = ast.parse((SRC / "poly.py").read_text())
    solver = {"linalg"} | {alias.asname or alias.name for node in tree.body
                           if isinstance(node, ast.ImportFrom)
                           and node.module == "linalg" for alias in node.names}
    assert len(solver) > 1  # the guard reads what poly imports today
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    assert "element_vector" in _names_reached(defs, "_membership_instance")
    oracle = _names_reached(defs, "span_contains_by_enumeration")
    assert "_membership_instance" in oracle
    assert not oracle & solver
    assert "ideal_slice_vectors" not in oracle
    assert "ideal_slice_vectors" not in _names_reached(defs, "graded_ideal_slice")


def _identifiers(tree):
    """Every name a module binds or reads: Names, attributes, arguments,
    defs and classes, imported names, and identifier strings such as the
    entries of `__all__` and `__slots__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _imported_modules(tree):
    """The package modules a module imports from, by their short names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("d8index").lstrip(".")
            if module:
                yield module
            else:  # from . import poly
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("d8index.") for alias in node.names)


def test_rings_holds_no_packed_slice():
    """`rings` is algebra only: the packed degree slice and its cache
    live in `poly`, and `rings` reaches no solver module."""
    tree = ast.parse((SRC / "rings.py").read_text())
    slice_names = {"GradedSlice", "graded_slice", "_slice", "mask4", "memo"}
    assert set(_identifiers(tree)) & slice_names == set()
    assert set(_imported_modules(tree)) & {"poly", "linalg"} == set()


def test_graded_slices_are_built_only_in_poly():
    """One module owns the packed slice format and its cache."""
    builders = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "GradedSlice" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.add(path.stem)
    assert builders == {"poly"}


def test_graded_slice_is_the_only_cache():
    """`poly.graded_slice` is the package's one memoising decorator, so
    no other module keeps per-degree state behind the slice LRU."""
    cached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", None) or getattr(target, "attr", None)
                    if name in {"lru_cache", "cache", "cached_property"}:
                        cached.append((path.stem, node.name))
    assert cached == [("poly", "graded_slice")]


def test_readme_library_example_runs():
    # a public name deleted from the package breaks this, not the reader
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block
    exec(compile(block.group(1), "README.md", "exec"), {})


def _readme_cli_examples():
    """(argv, shown output lines) for each `d8index ...` line of README's
    CLI block; the indented lines under a command are its output."""
    cli = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", cli, re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("d8index "):
            command = line.split("#", 1)[0]
            examples.append((shlex.split(command)[1:], []))
        elif line.startswith("  ") and examples:
            examples[-1][1].append(line.strip())
    return examples


def test_readme_cli_examples_print_what_they_show():
    examples = _readme_cli_examples()
    assert len(examples) == 6 and sum(bool(shown) for _, shown in examples) == 5
    for argv, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        lines = out.getvalue().splitlines()
        assert lines, argv
        if shown:  # a JSON line ending in `...}` is shown up to that point
            assert len(lines) == len(shown), argv
            for got, want in zip(lines, shown):
                if want.endswith("...}"):
                    assert got.startswith(want[:-4]), argv
                else:
                    assert got == want, argv
