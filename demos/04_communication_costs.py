"""Closed-form communication accounting for every method, and the
prompt-count / token-length sweeps.

Convention: chi counts scalars in both directions, per sampled client,
per round. At 512-wide tokens, 4 context tokens, 50 rounds and 10 fully
participating clients this lands exactly on the reference cost column.
"""

from dataclasses import replace

from fedprompt.algorithms import make_trainer
from fedprompt.federation import FederationConfig, communication_cost_millions
from fedprompt.vlm import ModelConfig

cfg = ModelConfig()  # d_token=512, tokens=4, meta-net 1024 -> 64 -> 512
fed = FederationConfig(protocol="standard", num_clients=10, rounds=50)

print("per-method totals at defaults (millions of scalars):")
for kind in ("promptfl", "plot", "prograd", "src", "kgcoop", "fedotp", "proda", "cocoop"):
    trainer = make_trainer(kind)
    scalars = trainer.payload_scalars(cfg)
    chi = communication_cost_millions(trainer, cfg, fed)
    print(f"  {kind:9s} payload {scalars:7d} scalars  chi {chi:7.2f}M")

print("\nprompt-count sweep (tokens fixed at 4):")
print("prompts   promptfl   fedotp   proda   cocoop")
for prompts in (1, 2, 4):
    row = [communication_cost_millions(make_trainer(k), replace(cfg, prompts=prompts), fed)
           for k in ("promptfl", "fedotp", "proda", "cocoop")]
    print(f"{prompts:7d}   {row[0]:8.2f}   {row[1]:6.2f}   {row[2]:5.2f}   {row[3]:6.2f}")

print("\ntoken-length sweep (single prompt set):")
print("tokens    promptfl   cocoop")
for tokens in (4, 8, 16):
    row = [communication_cost_millions(make_trainer(k), replace(cfg, tokens=tokens), fed)
           for k in ("promptfl", "cocoop")]
    print(f"{tokens:6d}   {row[0]:9.2f}   {row[1]:6.2f}")

print("\nderivation: 4 tokens x 512 dims = 2048 scalars per prompt set;")
print("x 50 rounds x 10 clients x 2 directions = 2.048M, printed as 2.05.")
print("The conditioned-prompt net adds 1024*64 + 64 + 64*512 + 512 = 98880")
print("scalars, giving (2048 + 98880) * 1000 = 100.928M, printed as 100.93.")
