"""The benchmark's tracer still finds every layer boundary it wraps.

`perfbench/tracer.py` patches named functions and methods of the package
from outside. A renamed or removed site makes `install` raise, and a site
that is still there but no longer called leaves its layer empty; both
should fail here rather than only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
[experiment]
scenarios = global,cross_domain,personalized
methods = promptfl,prograd,cocoop,plot,fedotp
seeds = 0
[federation]
num_clients = 2
rounds = 1
batch_size = 8
[model]
d_token = 8
d_feature = 16
d_image = 16
local_features = 2
[data]
classes = 3
samples_per_class = 10
per_class_subsample = 4
alpha = 0.5
[scenario]
cross_targets = 1
"""

SCRIPT = """
import json, sys
import tracer
from fedprompt import cli

t = tracer.Tracer()
tracer.install(t)
rc = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
metrics = t.layer_metrics()
print(json.dumps({"rc": rc, "calls": {layer: metrics[layer + ".calls"] for layer in tracer.LAYERS}}))
"""


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    (work / "config.ini").write_text(CONFIG)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, "config.ini", "out"], cwd=work,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_tracer_installs_and_run_succeeds(traced_run):
    assert traced_run["rc"] == 0


def test_every_traced_layer_records_calls(traced_run):
    empty = sorted(layer for layer, calls in traced_run["calls"].items() if calls == 0)
    assert not empty, f"layers with no traced calls: {empty}"
