"""All eight training methods plus the zero-shot reference on two toy
datasets: the `fedprompt report` grid of each method's mean±std over two
seeds, with the superiority count against the plain baseline.
"""

import tempfile

from fedprompt.config import parse_config_text
from fedprompt.runner import report, run

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
noise_sigma = 0.15
samples_per_class = 60
per_class_subsample = 40
alpha = 0.3
"""

with tempfile.TemporaryDirectory() as out_dir:
    run(parse_config_text(CONFIG), output_dir=out_dir)
    print(report(out_dir))

print("the # column counts datasets where a method's mean beats the baseline 'promptfl'")
