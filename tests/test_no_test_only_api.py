"""The package defines no API that only the tests use.

A public function, class or method that no package module and no demo
names is a test helper; it belongs in the test oracles (`tests/oracle.py`,
`tests/vlm_oracle.py`, `tests/transport_oracle.py`), not in
`src/fedprompt`. The scan is by name: a definition counts as used when a
name or attribute of that spelling appears anywhere in the package or the
demos, so it can miss dead code but never flags live code.

The same holds for a parameter with a default: one that no call in the
package or the demos passes is a setting only the tests change, and its
default is the program's one value. A call passes a parameter when its
callee has the function's name (the class's name for an `__init__`) and
it gives that parameter by keyword or by position; a `*` argument counts
as passing every positional parameter, a `**` argument every parameter.
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


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None, int]]:
    """(callee name, parameter, call position or None for keyword-only, line) of
    each parameter with a default of every function, method and `__init__`
    (under its class's name), nested ones included."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if owner is not None and not static:
                positional = positional[1:]  # self or cls is not passed by position
            name = owner if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            found.extend((name, arg.arg, i, child.lineno)
                         for i, arg in enumerate(positional) if i >= first)
            found.extend((name, arg.arg, None, child.lineno)
                         for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None)
            visit(child, None)

    visit(ast.parse(source), None)
    return found


def calls_by_callee(source: str) -> dict[str, list[ast.Call]]:
    """The calls of a module by the name they call: a bare name or an attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) for arg in call.args) or len(call.args) > position


def unpassed_parameters(definitions: str, callers: list[str]) -> list[str]:
    """`name(parameter)` of each defaulted parameter in `definitions` that no
    call in `callers` passes."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for name, found in calls_by_callee(source).items():
            calls.setdefault(name, []).extend(found)
    return [f"{name}({parameter})" for name, parameter, position, _ in
            defaulted_parameters(definitions)
            if not any(passes(call, parameter, position) for call in calls.get(name, []))]


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


PARAMETER_SAMPLE = '''
class Trainer:
    def __init__(self, weight=1.0, window=3):
        self.weight, self.window = weight, window

    def step(self, batch, lr=0.1, *, momentum=0.9):
        return batch

    @staticmethod
    def scale(x, factor=2.0):
        return x * factor


def solve(costs, eps, iters=100, relax=1.0, *, marginal=None):
    return costs


def run(options, verbose=False, **extra):
    trainer = Trainer(0.5)
    trainer.step(1, momentum=0.5)
    Trainer.scale(3)
    solve(1, 0.1, *options)
    return report(**extra)


def report(level=0):
    def render(text, width=80):
        return text
    return render("x")
'''


def test_parameter_scan_finds_unpassed_defaults():
    # passed by position after self, by keyword, through `*` (positional
    # parameters only) and through `**`; a static method has no self
    unused = unpassed_parameters(PARAMETER_SAMPLE, [PARAMETER_SAMPLE])
    assert unused == ["Trainer(window)", "step(lr)", "scale(factor)", "solve(marginal)",
                      "run(verbose)", "render(width)"]


# The console entry point: `fedprompt` calls `main()` and takes the argv from
# sys.argv; the tests pass an explicit one.
ENTRY_POINTS = {"main(argv)"}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    callers = [path.read_text(encoding="utf-8")
               for folder in USERS for path in sorted(folder.rglob("*.py"))]
    unused = {f"{path.relative_to(PACKAGE).as_posix()}: {entry}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for entry in unpassed_parameters(path.read_text(encoding="utf-8"), callers)}
    assert unused == {f"cli.py: {entry}" for entry in ENTRY_POINTS}, \
        f"defaulted parameters only the tests pass: {sorted(unused)}"
