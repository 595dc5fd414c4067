"""The package keeps no process-level memo.

What a run's cells share is the one value `runner.run` builds before the
first cell (`evaluation.RunState`) and drops with the run. A memo such as
`functools.cache` would outlive the run instead, so none may come back.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedprompt"
MEMOS = {"cache", "lru_cache"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):  # @lru_cache(maxsize=...)
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def memo_sites(source: str) -> list[int]:
    """Lines that memoise a function: a `cache` or `lru_cache` decorator, a
    `functools.cache`/`functools.lru_cache` reference, or an import of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines += [d.lineno for d in node.decorator_list if _name(d) in MEMOS]
        elif isinstance(node, ast.Attribute) and node.attr in MEMOS \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in MEMOS]
    return sorted(set(lines))


@pytest.mark.parametrize("source", [
    "import functools\n@functools.cache\ndef f(x):\n    return x\n",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x):\n    return x\n",
    "import functools\ndef f(x):\n    return x\ng = functools.lru_cache()(f)\n",
])
def test_scan_finds_a_memo(source):
    assert memo_sites(source)


def test_scan_passes_per_instance_caches():
    assert not memo_sites("import functools\nclass A:\n    @functools.cached_property\n"
                          "    def f(self):\n        return 1\n")


def test_package_has_no_process_level_memo():
    found = {path.relative_to(PACKAGE).as_posix(): lines
             for path in sorted(PACKAGE.rglob("*.py"))
             if (lines := memo_sites(path.read_text(encoding="utf-8")))}
    assert not found, f"process-level memos (file: lines): {found}"
