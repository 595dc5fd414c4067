"""The demos run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 01-04 take about 2.5 s together; 05_method_comparison trains every method at
# demo scale and prints `fedprompt report`'s grid, in about 3 s on two cores.
DEMOS = ["01_prompt_learning_vs_zero_shot.py", "02_data_heterogeneity.py",
         "03_optimal_transport_scoring.py", "04_communication_costs.py",
         "05_method_comparison.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
