"""No dead exports: every public module-level function of ``localquiver``
is exported by the package, used in it (by another module or its own), or
traced by the benchmark harness (a ``perfbench/spans.py`` ``TARGETS``
binding).  A helper that only tests call belongs in a ``tests/`` oracle.
And no private reads: no module imports or reads a ``_``-prefixed name of
another module of the package."""

import ast
import importlib.util
import pathlib

import localquiver

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "localquiver"
# public API that is neither exported nor used in the package: the session
# printer, whose callers are users and the print/parse round-trip tests
PUBLIC = {("dsl", "print_session")}


def traced_bindings() -> set[tuple[str, str]]:
    """(module, attribute) of every module binding that spans.py traces."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(owner.__name__.rpartition(".")[2], attr)
            for owner, attr, _ in spans.TARGETS if hasattr(owner, "__file__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """The names and attributes a module reads, and the names it imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_function_is_exported_used_or_traced():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set().union(*map(referenced_names, trees.values()))
    kept = traced_bindings() | PUBLIC
    dead = [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in localquiver.__all__ and node.name not in used
            and (module, node.name) not in kept]
    assert not dead, f"public functions nobody exports, calls or traces: {dead}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(tree: ast.Module) -> list[str]:
    """``from .m import _x``, and ``m._x`` for a sibling module m bound by
    ``from . import m``."""
    siblings, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                out += [f"from .{node.module} import {alias.name}"
                        for alias in node.names if is_private(alias.name)]
    out += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and is_private(node.attr)]
    return out


def test_no_module_reads_another_modules_private_names():
    reads = {path.stem: private_reads(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    reads = {module: found for module, found in reads.items() if found}
    assert not reads, f"private names read across modules: {reads}"
