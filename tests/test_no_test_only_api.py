"""The package defines no API that only the tests use.

A public function, class or method that no package module and no demo
names is a test helper; it belongs in the test oracles (`tests/oracle.py`,
`tests/vlm_oracle.py`, `tests/transport_oracle.py`), not in
`src/fedprompt`. The scan is by name: a definition counts as used when a
name or attribute of that spelling appears anywhere in the package or the
demos, so it can miss dead code but never flags live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedprompt"
USERS = [PACKAGE, ROOT / "demos"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each public function or class of a module, and of each
    public method or nested class of its classes."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, DEFINITIONS):
            continue
        found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, DEFINITIONS)]
    return [(name, line) for name, line in found if not name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Every bare name and attribute name the source uses (not its imports)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


SAMPLE = '''
class Payload:
    def used(self):
        return self.helper()

    def helper(self):
        return 1

    def equals(self, other):
        return True

    def __eq__(self, other):
        return True


def orphan():
    return Payload().used()


def _private():
    return 0
'''


def test_scan_finds_unreferenced_definitions():
    names = referenced_names(SAMPLE)
    unused = [name for name, _ in public_definitions(SAMPLE) if name not in names]
    assert unused == ["equals", "orphan"]


def test_every_public_definition_has_a_caller_outside_the_tests():
    names = set()
    for folder in USERS:
        for path in sorted(folder.rglob("*.py")):
            names |= referenced_names(path.read_text(encoding="utf-8"))
    unused = [f"{path.relative_to(PACKAGE).as_posix()}:{line} {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for name, line in public_definitions(path.read_text(encoding="utf-8"))
              if name not in names]
    assert not unused, f"public definitions only the tests could use: {unused}"
