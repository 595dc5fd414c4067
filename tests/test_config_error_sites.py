"""`ConfigError` means the config: this value is bad, and here is its key.

A config value is checked once, where the config is parsed: in `config.py`,
in the `__post_init__` of the section dataclasses, in `build_run_state`
(what the data can hold), in the prototype draw that `config` rewords, and
in `runner.run`'s and `plan_cells`' argument checks. Each names the key it
rejects. The kernels take the checked values as given: bad data or numeric
input raises `DataError`, `DomainError` or `EvaluationError`, and a program
defect a builtin exception. The scan below keeps `raise ConfigError` to
those places.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedprompt"
# (module, enclosing definition) of every site outside config.py
ALLOWED = {
    ("vlm.py", "ModelConfig.__post_init__"),
    ("federation.py", "FederationConfig.__post_init__"),
    ("evaluation.py", "ScenarioSpec.__post_init__"),
    ("evaluation.py", "build_run_state"),
    ("data.py", "_near_orthogonal_prototypes"),
    ("runner.py", "run"),
    ("runner.py", "plan_cells"),
}


def _is_config_error(exc: ast.expr | None) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return ((isinstance(exc, ast.Name) and exc.id == "ConfigError")
            or (isinstance(exc, ast.Attribute) and exc.attr == "ConfigError"))


def config_error_raises(source: str) -> list[tuple[str | None, int]]:
    """(dotted name of the enclosing class and function definitions, or None
    at module level, line) of each `raise ConfigError`."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Raise) and _is_config_error(child.exc):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source,owner", [
    ("raise ConfigError('x')\n", None),
    ("def f():\n    raise ConfigError('x')\n", "f"),
    ("def f():\n    if y:\n        raise ConfigError\n", "f"),
    ("def f():\n    try:\n        g()\n    except ValueError as exc:\n"
     "        raise errors.ConfigError('x') from exc\n", "f"),
    ("class C:\n    def m(self):\n        for x in y:\n            raise ConfigError('x')\n",
     "C.m"),
    ("def f():\n    def g():\n        raise ConfigError('x')\n    return g\n", "f.g"),
])
def test_scan_finds_a_config_error_raise(source, owner):
    assert [found for found, _ in config_error_raises(source)] == [owner]


def test_scan_passes_other_raises():
    assert not config_error_raises("def f():\n    raise ValueError('x')\n")
    assert not config_error_raises("def f():\n    raise DomainError('x')\n")
    assert not config_error_raises("try:\n    f()\nexcept ConfigError:\n    raise\n")
    assert not config_error_raises("class ConfigError(FedPromptError):\n    pass\n")


def test_config_error_is_raised_only_where_config_is_checked():
    found = {(path.relative_to(PACKAGE).as_posix(), owner)
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "config.py"
             for owner, _ in config_error_raises(path.read_text(encoding="utf-8"))}
    assert found == ALLOWED
