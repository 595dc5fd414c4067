"""Trainers and the round loop take no class set.

A cell's class set lives in the assets it trains and scores under
(`ModelAssets.for_classes`), so no function or method of `algorithms` or
`federation` takes a `class_ids` parameter and `TrainContext` has no such
field.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedprompt"


def class_ids_sites(source: str) -> list[str]:
    """`name:line` of every function that takes a `class_ids` parameter and
    every class that declares a `class_ids` field."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "class_ids" for p in params):
                sites.append(f"{getattr(node, 'name', 'lambda')}:{node.lineno}")
        elif isinstance(node, ast.ClassDef):
            sites += [f"{node.name}:{item.lineno}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and item.target.id == "class_ids"]
    return sites


@pytest.mark.parametrize("source", [
    "def f(x, class_ids=None):\n    return x\n",
    "class T:\n    def g(self, *, class_ids):\n        return class_ids\n",
    "g = lambda class_ids: class_ids\n",
    "from dataclasses import dataclass\n@dataclass\nclass C:\n    class_ids: list | None = None\n",
])
def test_scan_finds_a_class_set(source):
    assert class_ids_sites(source)


def test_scan_passes_reading_a_class_set():
    assert not class_ids_sites("def f(ctx):\n    return ctx.assets.class_ids\n")


@pytest.mark.parametrize("module", ["algorithms.py", "federation.py"])
def test_module_takes_no_class_set(module):
    assert not class_ids_sites((PACKAGE / module).read_text(encoding="utf-8"))
