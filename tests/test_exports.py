"""No dead exports: every public module-level function of ``localquiver``
is exported by the package, used in it (by another module or its own), or
traced by the benchmark harness (a ``perfbench/spans.py`` ``TARGETS``
binding).  A helper that only tests call belongs in a ``tests/`` oracle."""

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
