"""All eight training methods plus the zero-shot reference on one toy
dataset, with the superiority count against the plain baseline.
"""

import tempfile

from fedprompt.config import parse_config_text
from fedprompt.evaluation import superiority_indicator
from fedprompt.runner import run

methods = ["zsclip", "promptfl", "kgcoop", "src", "prograd", "proda", "cocoop", "plot", "fedotp"]
CONFIG = f"""
[experiment]
scenarios = global
methods = {",".join(methods)}
seeds = 0,1

[federation]
protocol = standard
num_clients = 5
rounds = 10

[model]
tokens = 4
d_token = 16
d_feature = 32
d_image = 32
encoder = attention_block
token_scale = 0.05

[data]
datasets = synthetic#0,synthetic#1
classes = 6
feature_dim = 32
noise_sigma = 0.15
samples_per_class = 60
per_class_subsample = 40
alpha = 0.3
"""

with tempfile.TemporaryDirectory() as out_dir:
    table = run(parse_config_text(CONFIG), output_dir=out_dir).table

names = table.datasets("global")
print(f"{'method':10s}  " + "  ".join(f"{n:>12s}" for n in names) + "     #")
baseline = {n: table.cell("global", "promptfl", n, "alpha_g")[0] for n in names}
for method in methods:
    cells = []
    means = {}
    for n in names:
        mean, std, _ = table.cell("global", method, n, "alpha_g")
        means[n] = mean
        cells.append(f"{mean:6.1f}±{std:4.1f}")
    marker = "-" if method in ("promptfl", "zsclip") else str(
        superiority_indicator(means, baseline))
    print(f"{method:10s}  " + "  ".join(f"{c:>12s}" for c in cells) + f"     {marker}")

print("\nthe # column counts datasets where a method's mean beats the baseline")
