"""One rule makes what a run shares read-only: `vlm.read_only`.

It marks every array reachable from the objects it is given, and it is the
only code in the package that sets an array's `writeable` flag. The scan
below keeps it so; the walker in `oracle.reachable_arrays`, which follows
any object rather than the package's own classes, checks from outside that
nothing it should reach is left writeable.
"""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import small_config
from oracle import reachable_arrays
from test_config_cli import SHARED_STATE_CONFIG
from fedprompt import runner
from fedprompt.algorithms import CommunicablePayload, PromptFLTrainer
from fedprompt.config import materialize_datasets, parse_config_text
from fedprompt.evaluation import build_run_state
from fedprompt.vlm import build_assets, read_only

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedprompt"


def writeable_sites(source: str, allowed: str | None = None) -> list[int]:
    """Lines that set an array's flags: an assignment to `<x>.flags.writeable`
    or a `setflags` call, outside the module-level function named `allowed`."""
    tree = ast.parse(source)
    inside = {node.lineno for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn) if hasattr(node, "lineno")}
    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "writeable" \
                    and isinstance(target.value, ast.Attribute) and target.value.attr == "flags":
                lines.append(target.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "setflags") \
                    or (isinstance(func, ast.Name) and func.id == "setflags"):
                lines.append(node.lineno)
    return sorted(set(lines) - inside)


@pytest.mark.parametrize("source", [
    "a.flags.writeable = False\n",
    "def f(x):\n    x.ids.flags.writeable = False\n",
    "a.setflags(write=False)\n",
    "for a in arrays:\n    a.flags.writeable = True\n",
])
def test_scan_finds_a_flag_site(source):
    assert writeable_sites(source)


def test_scan_passes_reads_of_the_flag_and_the_allowed_function():
    assert not writeable_sites("ok = not a.flags.writeable\nassert a.flags.writeable\n")
    assert not writeable_sites("def read_only(a):\n    a.flags.writeable = False\n",
                               allowed="read_only")
    # a method of that name is not the module's function
    method = "class P:\n    def read_only(self):\n        self.a.flags.writeable = False\n"
    assert writeable_sites(method, allowed="read_only")


def test_read_only_is_the_only_flag_site():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        allowed = "read_only" if name == "vlm.py" else None
        if lines := writeable_sites(path.read_text(encoding="utf-8"), allowed):
            found[name] = lines
    assert not found, f"arrays marked outside vlm.read_only (file: lines): {found}"
    vlm = (PACKAGE / "vlm.py").read_text(encoding="utf-8")
    assert len(writeable_sites(vlm)) == 1  # the walk's own


def _writeable(*roots) -> list[np.ndarray]:
    return [a for a in reachable_arrays(*roots) if a.flags.writeable]


class TestReadOnly:
    def test_walks_containers_and_returns_its_first_argument(self):
        arrays = [np.zeros(2) for _ in range(4)]
        nested = {"a": [arrays[0], (arrays[1], {"b": arrays[2]})]}
        nested["self"] = nested  # a cycle ends the walk, it does not loop
        first = np.ones(1)
        assert read_only(first, nested, arrays[3]) is first
        assert not _writeable(first, nested, arrays)

    def test_leaves_other_libraries_objects_alone(self):
        class Foreign:  # defined here, not in the package
            def __init__(self):
                self.array = np.zeros(2)

        foreign = Foreign()
        read_only([foreign])
        assert foreign.array.flags.writeable


class TestSharedStateIsReadOnly:
    """Every array reachable from what a run shares, by the independent walker."""

    def test_run_state_before_and_after_a_pickle_round_trip(self, monkeypatch):
        config = parse_config_text(SHARED_STATE_CONFIG)  # cross-domain, transport methods
        built = build_run_state(config, materialize_datasets(config))
        drawn = [noise.values() for noise in built.noise.values()]  # as a pool's parent draws
        for assets in built.assets.values():
            assets.reference_features  # noqa: B018 - cached on the assets
        arrays = reachable_arrays(built)
        assert all(any(a is values for a in arrays) for values in drawn)
        shifted = [t.test.features for plan in built.plans.values() for t in plan.targets
                   if t.suffix]
        assert shifted and all(any(a is f for a in arrays) for f in shifted)  # reached too
        assert len(arrays) > 40
        assert not _writeable(built)

        state = pickle.loads(pickle.dumps(built))
        assert len(_writeable(state)) == len(arrays)  # what a spawned worker receives
        monkeypatch.setattr(runner, "_worker_state", None)
        runner._adopt_state(state)
        assert runner._worker_state is state
        assert not _writeable(state)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_assets_a_cut_and_a_broadcast_encoding(self, variant):
        cfg = small_config(variant, prompts=2)
        assets = build_assets(cfg, 5)
        assert not _writeable(assets)
        assets.reference_features  # noqa: B018 - computed and cached at first use
        cut = assets.for_classes(np.array([0, 3, 4]))
        cut.reference_features  # noqa: B018
        context = np.random.default_rng(0).normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        payload = read_only(CommunicablePayload({"context": context}))
        encoding = PromptFLTrainer().broadcast_encoding(payload, cut)
        assert len(reachable_arrays(encoding)) > len(reachable_arrays(assets))
        for shared in (assets, cut, payload, encoding):
            assert not _writeable(shared)
