"""Golden grid: all six scenarios x all nine methods under three protocols.

Each run's `results.csv`, `results.json` and `curves.jsonl` must equal the
files checked in under `tests/data/golden/<grid>/` byte for byte. The grids
are the three protocols with the attention_block encoder, plus `linear_pool`:
the `standard` protocol with the linear_pool encoder. The
expected files pin every scenario's values, including base/novel, few-shot,
cost trade-off and centralized cells, so a refactor of the cell pipeline
that changes any number fails here.

The bytes depend on the floating-point summation order of the BLAS kernels
the files were written with. `tests/data/golden/blas.json` records them:
the numpy version, the BLAS name and version, and the OpenBLAS core
(`openblas_core`, null where the library does not name one). When the
bytes differ and this machine's core differs from the recorded one, the
failure names both cores.

Before an intended change of results is committed, review its drift and
regenerate:

    PYTHONPATH=src python tests/test_golden_grid.py --diff   # print the drift only
    PYTHONPATH=src python tests/test_golden_grid.py          # print it, then rewrite

The drift report lists, per grid and file, the changed `results.csv` rows
by key (old -> new) and the changed `curves.jsonl` rows by (scenario,
method, dataset, seed, round), with the largest relative `train_loss`
drift. To see which bytes depend on the BLAS kernels, run the same
command under another OpenBLAS core, set for that process only:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden_grid.py --diff

`test_result_files_do_not_depend_on_the_blas_kernels` runs that probe on
the `linear_pool` grid for `results.csv` and `results.json`.
"""

import ctypes
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedprompt.config import parse_config_text
from fedprompt.runner import CURVES_JSONL, RESULTS_CSV, RESULTS_JSON, run

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
BLAS_JSON = GOLDEN / "blas.json"
FILES = (RESULTS_CSV, RESULTS_JSON, CURVES_JSONL)

# the client count and participation each protocol runs with
PROTOCOL_FEDERATION = {
    "standard": "num_clients = 2\nrounds = 2",
    "centralized": "rounds = 2",
    "partial": "num_clients = 4\nparticipation_fraction = 0.5\nrounds = 3\neval_every = 2",
}

# grid name -> (protocol, encoder)
GRIDS = {protocol: (protocol, "attention_block") for protocol in PROTOCOL_FEDERATION}
GRIDS["linear_pool"] = ("standard", "linear_pool")

CONFIG = """
[experiment]
scenarios = global,personalized,base_novel,fewshot,cross_domain,cost_tradeoff
methods = zsclip,promptfl,kgcoop,prograd,proda,src,cocoop,plot,fedotp
seeds = 0
[federation]
protocol = {protocol}
{federation}
batch_size = 8
[model]
d_token = 8
d_feature = 16
d_image = 16
encoder = {encoder}
token_scale = 0.1
seed = 11
local_features = 2
[data]
classes = 4
samples_per_class = 20
per_class_subsample = 6
alpha = 0.5
"""


def run_grid(grid: str, out_dir: Path):
    protocol, encoder = GRIDS[grid]
    text = CONFIG.format(protocol=protocol, federation=PROTOCOL_FEDERATION[protocol],
                         encoder=encoder)
    return run(parse_config_text(text), jobs=1, output_dir=str(out_dir))


def openblas_core() -> str | None:
    """The core whose kernels numpy's OpenBLAS runs, or None where the library
    does not name it (another BLAS, or an OpenBLAS without the symbol)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def blas_provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "openblas_core": openblas_core()}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_matches_golden_files(grid, tmp_path):
    result = run_grid(grid, tmp_path)
    assert result.failures == []
    assert len({(o.scenario, o.method) for o in result.observations}) == 53  # zsclip: no cost cell
    recorded, current = json.loads(BLAS_JSON.read_text())["openblas_core"], openblas_core()
    cores = ("" if recorded == current else
             f"; the goldens were written under the {recorded} OpenBLAS kernels, "
             f"this run used {current}")
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / grid / name).read_bytes(), name + cores


def run_child(code: str, *args: str, **env: str) -> str:
    """The last line that `code` prints, run with `args` in a new Python
    process that imports these tests and the package, with `env` added to
    its environment. OPENBLAS_CORETYPE is unset unless `env` sets it, so
    that `env` alone chooses the child's OpenBLAS core."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    tests = Path(__file__).resolve().parent
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests), str(tests.parent / "src"),
                                                          environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args], env={**environ, **env},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


CHILD = """
import sys
from test_golden_grid import openblas_core, run_grid
assert run_grid(sys.argv[1], sys.argv[2]).failures == []
print(openblas_core())
"""


def test_result_files_do_not_depend_on_the_blas_kernels(tmp_path):
    # the linear_pool grid in two processes: the default OpenBLAS core and
    # another one, chosen by OPENBLAS_CORETYPE in the second child only
    default = run_child(CHILD, "linear_pool", str(tmp_path / "default"))
    other = run_child(CHILD, "linear_pool", str(tmp_path / "other"),
                      OPENBLAS_CORETYPE="Sandybridge" if default == "Haswell" else "Haswell")
    if other == default:
        pytest.skip(f"both children ran the {default} kernels: OPENBLAS_CORETYPE cannot "
                    "switch this BLAS (it is not a DYNAMIC_ARCH OpenBLAS), so the test "
                    "shows nothing here")
    for name in (RESULTS_CSV, RESULTS_JSON):
        assert (tmp_path / "default" / name).read_bytes() == \
               (tmp_path / "other" / name).read_bytes(), f"{name}: {default} vs {other}"


def _rows(path: Path, name: str) -> dict:
    """A result file's rows by key: results.csv by (scenario, method,
    dataset, seed, metric), curves.jsonl by (scenario, method, dataset,
    seed, round)."""
    if name == RESULTS_CSV:
        return dict(line.rsplit(",", 1) for line in path.read_text().splitlines()[1:])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {",".join(str(r[k]) for k in ("scenario", "method", "dataset", "seed"))
            + f",round {r['round']}": r for r in records}


def drift_report(grid: str, new_dir: Path) -> list[str]:
    """The lines that describe how a rerun of `grid` in `new_dir` differs from its golden files."""
    lines = []
    for name in FILES:
        old_path, new_path = GOLDEN / grid / name, new_dir / name
        if old_path.exists() and old_path.read_bytes() == new_path.read_bytes():
            lines.append(f"{grid}/{name}: unchanged")
            continue
        if name == RESULTS_JSON:  # the aggregate of results.csv, reported there
            lines.append(f"{grid}/{name}: changed")
            continue
        old = _rows(old_path, name) if old_path.exists() else {}
        new = _rows(new_path, name)
        changed, drift = [], 0.0
        for key in sorted(old.keys() | new.keys()):
            before, after = old.get(key), new.get(key)
            if before == after:
                continue
            if before is None or after is None:
                changed.append(f"  {key}: {'added' if before is None else 'removed'}")
            elif name == RESULTS_CSV:
                changed.append(f"  {key}: {before} -> {after}")
            else:
                fields = sorted(k for k in before.keys() | after.keys()
                                if before.get(k) != after.get(k))
                changed.append(f"  {key}: " + ", ".join(
                    f"{k} {before.get(k)!r} -> {after.get(k)!r}" for k in fields))
                a, b = before.get("train_loss"), after.get("train_loss")
                if a is not None and b is not None and a != b:
                    drift = max(drift, abs(b - a) / max(abs(a), abs(b)))
        summary = f"{grid}/{name}: {len(changed)} row(s) changed"
        if name == CURVES_JSONL:
            summary += f", largest relative train_loss drift {drift:.3g}"
        lines.append(summary)
        lines.extend(changed)
    return lines


if __name__ == "__main__":
    write = sys.argv[1:] != ["--diff"]
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    print(f"BLAS: {json.dumps(blas_provenance(), sort_keys=True)}")
    with tempfile.TemporaryDirectory() as tmp:
        for grid in GRIDS:
            outcome = run_grid(grid, Path(tmp) / grid)
            if outcome.failures:
                sys.exit(f"{grid}: {len(outcome.failures)} cell(s) failed")
            print("\n".join(drift_report(grid, Path(tmp) / grid)))
            if write:
                for name in FILES:
                    (GOLDEN / grid / name).write_bytes((Path(tmp) / grid / name).read_bytes())
    if write:
        BLAS_JSON.write_text(json.dumps(blas_provenance(), indent=2, sort_keys=True) + "\n")
        print(f"wrote the goldens and {BLAS_JSON.name} under {GOLDEN}")
