"""Every Python file of the package, its tests and the benchmark harness
parses as Python 3.10, the ``requires-python`` floor, so syntax from a
later version (``except*``, PEP 695 type parameters) fails here on any
interpreter and not only in a 3.10 job."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "perfbench")
               for path in (ROOT / folder).rglob("*.py"))


def test_the_floor_rejects_later_syntax():
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n",
                   "def first[T](xs: list[T]) -> T:\n    return xs[0]\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=(3, 10))


def test_every_file_parses_at_the_python_floor():
    failures = []
    for path in FILES:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert FILES and not failures, failures
