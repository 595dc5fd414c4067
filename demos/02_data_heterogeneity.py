"""Partitioners in action: label-skewed splits, few-shot dealing,
base/novel class splits, and synthetic domain shifts.
"""

import numpy as np

from fedprompt import rngs
from fedprompt.data import (
    DomainShift,
    apply_domain_shift,
    base_novel_split,
    dirichlet_partition,
    generate_synthetic_dataset,
    kshot_iid_partition,
)

dataset = generate_synthetic_dataset(classes=10, width=64, noise_sigma=0.1, samples_per_class=8,
                                     rng=rngs.derive_rng(0, rngs.DATA))


def mean_entropy(plan, labels):
    vals = []
    for idx in plan.client_indices:
        if len(idx) == 0:
            continue
        counts = np.bincount(labels[idx]).astype(float)
        p = counts[counts > 0] / counts.sum()
        vals.append(-(p * np.log(p)).sum())
    return np.mean(vals)


print("label skew vs concentration parameter (10 clients, 8 samples/class):")
print("alpha    mean client label entropy   nonempty clients")
for alpha in (0.1, 1.0, 10.0, 100.0):
    plans = [dirichlet_partition(dataset.labels, 10, alpha, rngs.derive_rng(s, rngs.PARTITION))
             for s in range(10)]
    ent = np.mean([mean_entropy(p, dataset.labels) for p in plans])
    filled = np.mean([sum(len(ix) > 0 for ix in p.client_indices) for p in plans])
    print(f"{alpha:5.1f}    {ent:25.3f}   {filled:16.1f}")
print("smaller alpha => clients see fewer classes (lower entropy)\n")

big = generate_synthetic_dataset(classes=5, width=64, noise_sigma=0.1, samples_per_class=40,
                                 rng=rngs.derive_rng(1, rngs.DATA))
plan = kshot_iid_partition(big.labels, 4, shots=2, rng=np.random.default_rng(0))
print("2-shot dealing over 4 clients, per-client class counts:")
for cid, idx in enumerate(plan.client_indices):
    print(f"  client {cid}: {np.bincount(big.labels[idx], minlength=5)}")

base, novel = base_novel_split(10, mode="random", seed=3)
print(f"\nrandom class split (seed 3): base {base.tolist()} / novel {novel.tolist()}")
print("the same seed yields the same split for every method under comparison")

print("\ndomain shift: alignment with the source features drops as noise grows")
for sigma in (0.0, 0.1, 0.3, 0.8):
    shifted = apply_domain_shift(dataset, DomainShift(angle=0.5, noise_sigma=sigma, seed=7),
                                 np.arange(len(dataset)))
    cos = (shifted.features * dataset.features).sum(axis=1).mean()
    print(f"  noise {sigma:.1f}: mean cosine to source {cos:.3f}")
