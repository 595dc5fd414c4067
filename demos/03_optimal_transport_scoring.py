"""Entropic transport between image regions and prompt features, and the
one-sided relaxation used by the consensus/personal prompt pair.
"""

import numpy as np

from fedprompt.transport import sinkhorn_batched
from fedprompt.vlm import unit_rows

rng = np.random.default_rng(0)

print("a 2x2 matching problem: cost favours the diagonal")
cost = np.array([[0.0, 1.0], [1.0, 0.0]])
for eps in (1.0, 0.1, 0.01):
    plan = sinkhorn_batched(cost, eps=eps, iters=200)
    print(f"  eps={eps:<5} plan row0 {np.round(plan[0], 3)}  (sharper as eps shrinks)")

print("\none-sided relaxation of the column constraint:")
# every region is much closer to the first prompt
cost = np.column_stack([rng.uniform(0.0, 0.2, size=4), rng.uniform(1.5, 2.0, size=4)])
for relax in (1.0, 0.5, 0.0):
    plan = sinkhorn_batched(cost, eps=0.2, iters=200, col_relax=relax)
    print(f"  relax={relax:<4} column sums {np.round(plan.sum(axis=0), 3)} "
          f"(uniform target is [0.5, 0.5])")
print("relax=1 reproduces the balanced plan; relax=0 lets mass follow the cheap prompt")



def class_score(regions, prompts, eps):
    """Transport-aligned class logit: the negative cost of the balanced plan."""
    cost = 1.0 - regions @ prompts.T  # rows of both are unit norm
    plan = sinkhorn_batched(cost, eps=eps)
    return -(plan * cost).sum()


print("\nclass scoring by transport: regions of an image vs per-class prompts")
anchor = unit_rows(rng.normal(size=(1, 32)))[0]
regions = unit_rows(anchor[None, :] + 0.15 * rng.normal(size=(6, 32)))
aligned = unit_rows(anchor[None, :] + 0.1 * rng.normal(size=(2, 32)))
random_prompts = unit_rows(rng.normal(size=(2, 32)))
s_aligned = class_score(regions, aligned, eps=0.1)
s_random = class_score(regions, random_prompts, eps=0.1)
print(f"  aligned prompts score {s_aligned:+.3f}, random prompts score {s_random:+.3f}")
print("  (scores are negative transport costs; closer to 0 means better alignment)")
