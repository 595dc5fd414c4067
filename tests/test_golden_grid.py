"""Golden grid: all six scenarios x all nine methods under three protocols.

Each run's `results.csv`, `results.json` and `curves.jsonl` must equal the
files checked in under `tests/data/golden/<grid>/` byte for byte. The grids
are the three protocols with the attention_block encoder, plus `linear_pool`:
the `standard` protocol with the linear_pool encoder. The
expected files pin every scenario's values, including base/novel, few-shot,
cost trade-off and centralized cells, so a refactor of the cell pipeline
that changes any number fails here.

The bytes depend on the floating-point summation order of the BLAS the
files were written with; after an intended change of results, regenerate
them with `PYTHONPATH=src python tests/test_golden_grid.py`.
"""

import sys
from pathlib import Path

import pytest

from fedprompt.config import parse_config_text
from fedprompt.runner import CURVES_JSONL, RESULTS_CSV, RESULTS_JSON, run

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
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
feature_dim = 16
samples_per_class = 20
per_class_subsample = 6
alpha = 0.5
"""


def run_grid(grid: str, out_dir: Path):
    protocol, encoder = GRIDS[grid]
    text = CONFIG.format(protocol=protocol, federation=PROTOCOL_FEDERATION[protocol],
                         encoder=encoder)
    return run(parse_config_text(text), jobs=1, output_dir=str(out_dir))


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_matches_golden_files(grid, tmp_path):
    result = run_grid(grid, tmp_path)
    assert result.failures == []
    assert len({(o.scenario, o.method) for o in result.observations}) == 53  # zsclip: no cost cell
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / grid / name).read_bytes(), name


if __name__ == "__main__":
    for grid in GRIDS:
        outcome = run_grid(grid, GOLDEN / grid)
        if outcome.failures:
            sys.exit(f"{grid}: {len(outcome.failures)} cell(s) failed")
        print(f"wrote {GOLDEN / grid}")
