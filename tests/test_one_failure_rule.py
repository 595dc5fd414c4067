"""One failure rule: an exception fails its cell.

`runner._execute_cell` is the package's only broad handler. It turns a
cell's exception into a `failures.json` entry, and `run` then exits 1.
Nothing below it catches everything, so an error raised by a client, a
kernel or a check reaches that handler instead of being absorbed into a
result. The scan below keeps it so: a bare `except`, or one that names
`Exception` or `BaseException`, alone or in a tuple, is allowed only in
that function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedprompt"
BROAD = {"Exception", "BaseException"}


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any((isinstance(c, ast.Name) and c.id in BROAD)
               or (isinstance(c, ast.Attribute) and c.attr in BROAD) for c in caught)


def broad_handlers(source: str) -> list[tuple[str | None, int]]:
    """(enclosing module-level function, or None, line) of each handler that
    catches everything."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(owner, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    return found


@pytest.mark.parametrize("source", [
    "try:\n    f()\nexcept:\n    pass\n",
    "try:\n    f()\nexcept Exception:\n    pass\n",
    "try:\n    f()\nexcept (ValueError, BaseException) as exc:\n    pass\n",
    "try:\n    f()\nexcept builtins.Exception:\n    pass\n",
    "class C:\n    def m(self):\n        try:\n            f()\n        except Exception:\n"
    "            pass\n",
    "def g():\n    for x in y:\n        try:\n            f()\n        except Exception:\n"
    "            continue\n",
])
def test_scan_finds_a_broad_handler(source):
    assert broad_handlers(source)


def test_scan_passes_narrow_handlers():
    assert not broad_handlers("try:\n    f()\nexcept ValueError:\n    pass\n")
    assert not broad_handlers("try:\n    f()\nexcept (OSError, DataError) as exc:\n    pass\n")
    assert not broad_handlers("class _Declined(Exception):\n    pass\n")


def test_execute_cell_holds_the_only_broad_handler():
    found = [(path.relative_to(PACKAGE).as_posix(), owner)
             for path in sorted(PACKAGE.rglob("*.py"))
             for owner, _ in broad_handlers(path.read_text(encoding="utf-8"))]
    assert found == [("runner.py", "_execute_cell")]
