"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracle import (
    audited_cell,
    finite_diff_gradient,
    max_abs_diff,
    one_cell,
    relative_error,
    trainer_with,
    zero_shot_accuracy,
)
from transport_oracle import sinkhorn, sinkhorn_relaxed
from vlm_oracle import prompt_gradients
from fedprompt.algorithms import (
    iterate_batches,
    make_trainer,
    project_prograd,
    sgd_momentum_step,
    TrainContext,
)
from fedprompt.config import DataConfig, ExperimentConfig, parse_config
from fedprompt.data import (
    ClientDataset,
    MasterDataset,
    base_novel_split,
    dirichlet_partition,
    generate_synthetic_dataset,
)
from fedprompt.evaluation import (
    ScenarioSpec,
    harmonic_mean,
    superiority_indicator,
    _splits,
)
from fedprompt.federation import (
    FederationConfig,
    build_clients,
    communication_cost_millions,
    run_federation,
)
from fedprompt.runner import run
from fedprompt.vlm import (
    ModelConfig,
    build_assets,
    class_tokens,
    unit_rows,
)
from fedprompt import rngs

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"


def _pass(n: int, text: str) -> None:
    print(f"\nCRITERION {n:02d} PASS - {text}")


def test_criterion_01_communication_cost_reproduction():
    start = time.monotonic()
    cfg = ModelConfig()  # d_token=512, tokens=4, meta 1024->64->512
    fed = FederationConfig(protocol="standard", num_clients=10, rounds=50,
                           participation_fraction=1.0)
    expected = {
        "promptfl": 2.05, "plot": 2.05, "prograd": 2.05, "src": 2.05, "kgcoop": 2.05,
        "fedotp": 4.10, "proda": 4.10, "cocoop": 100.93,
    }
    for kind, cost in expected.items():
        chi = communication_cost_millions(make_trainer(kind), cfg, fed)
        assert round(chi, 2) == cost, f"{kind}: {chi}"
    token_sweep = {4: 100.93, 8: 102.98, 16: 107.07}
    for tokens, cost in token_sweep.items():
        cfg_l = ModelConfig(tokens=tokens)
        chi = communication_cost_millions(make_trainer("cocoop"), cfg_l, fed)
        assert round(chi, 2) == cost, f"tokens={tokens}: {chi}"
    # 2048 scalars x 50 rounds x 10 clients x both directions
    assert communication_cost_millions(make_trainer("promptfl"), cfg, fed) == 2_048_000 / 1e6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(1, f"cost column 2.05/4.10/100.93 and token sweep reproduced in {elapsed:.3f}s")


def test_criterion_02_metric_oracles_vs_reference_values():
    start = time.monotonic()
    harmonic_pairs = {(88.2, 92.6): 90.3, (19.6, 24.7): 21.8,
                      (59.5, 68.1): 63.5, (77.2, 71.0): 73.9}
    for (a, b), printed in harmonic_pairs.items():
        assert harmonic_mean(a, b) == pytest.approx(printed, abs=0.1)
    baseline = [91.5, 57.6, 22.8, 79.2, 62.0, 84.0, 89.4, 70.1]
    fedotp = [91.8, 58.0, 21.9, 78.7, 62.8, 83.3, 89.1, 69.4]
    kgcoop = [91.8, 58.2, 23.0, 79.4, 61.7, 83.9, 89.4, 70.4]
    assert superiority_indicator(fedotp, baseline) == 3
    assert superiority_indicator(kgcoop, baseline) == 5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(2, f"harmonic means within 0.1 and superiority counts 3/5 in {elapsed:.3f}s")


def _gradient_instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield {
            "classes": int(rng.integers(2, 6)),
            "d_token": int(rng.integers(4, 17)),
            "d": int(rng.integers(8, 33)),
            "L": int(rng.integers(1, 5)),
            "batch": int(rng.integers(1, 5)),
            "seed": int(rng.integers(0, 10_000)),
            "weight": float(rng.uniform(0.1, 2.0)),
            "weight2": float(rng.uniform(0.1, 2.0)),
            "rng": np.random.default_rng(rng.integers(0, 2**32)),
        }


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    checked = 0
    for variant, seed in (("linear_pool", 101), ("attention_block", 202)):
        for inst in _gradient_instances(seed=seed, count=10):
            r = inst["rng"]
            cfg = ModelConfig(prompts=1, tokens=inst["L"], d_token=inst["d_token"],
                              d_feature=inst["d"], d_image=inst["d"], encoder=variant,
                              seed=inst["seed"], token_scale=0.2, meta_hidden=6)
            assets = build_assets(cfg, inst["classes"])
            xh = unit_rows(r.normal(size=(inst["batch"], inst["d"])))
            labels = r.integers(0, inst["classes"], size=inst["batch"])
            v1 = r.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.15
            v2 = np.concatenate([v1, r.normal(size=v1.shape) * 0.15], axis=0)
            cfg2 = ModelConfig(prompts=2, tokens=inst["L"], d_token=inst["d_token"],
                               d_feature=inst["d"], d_image=inst["d"], encoder=variant,
                               seed=inst["seed"], token_scale=0.2, meta_hidden=6)
            assets2 = build_assets(cfg2, inst["classes"])

            batch = ClientDataset(features=xh, labels=labels,
                                  master_indices=np.arange(len(labels)))
            fed = FederationConfig(rounds=10)
            ctx = TrainContext(assets=assets, round_index=0, federation=fed,
                               rng=np.random.default_rng(0))
            ctx2 = TrainContext(assets=assets2, round_index=0, federation=fed,
                                rng=np.random.default_rng(0))
            # each loss kernel through the training step that encodes its context
            cases = [
                ("ce", make_trainer("promptfl"), ctx, v1),
                ("kgcoop", trainer_with("kgcoop", lambda_kg=inst["weight"]), ctx, v1),
                ("src", trainer_with("src", mu_text=inst["weight"], mu_logit=inst["weight2"]),
                 ctx, v1),
                ("proda", trainer_with("proda", lambda_orth=inst["weight"]), ctx2, v2),
            ]
            for name, trainer, step_ctx, v0 in cases:
                def f_loss(v, trainer=trainer, step_ctx=step_ctx):
                    return trainer.grad_step({"context": v}, batch, step_ctx, None)[0]
                grads = trainer.grad_step({"context": v0}, batch, step_ctx, None)[1]["context"]
                fd = finite_diff_gradient(lambda flat: f_loss(flat.reshape(v0.shape)),
                                          v0.copy().ravel()).reshape(v0.shape)
                err = relative_error(grads, fd)
                assert err < 1e-4, f"{variant}/{name}: rel err {err}"
                checked += 1

            # conditioned-prompt path: full parameter set, field by field
            trainer = make_trainer("cocoop")
            payload = trainer.init_payload(cfg, np.random.default_rng(inst["seed"]))
            params = {k: a.copy() for k, a in payload.fields.items()}
            _, grads = trainer.grad_step(params, batch, ctx, None)
            for field in params:
                def f(flat, field=field):
                    probe = {k: (flat.reshape(params[k].shape) if k == field else params[k])
                             for k in params}
                    return trainer.grad_step(probe, batch, ctx, None)[0]
                fd = finite_diff_gradient(f, params[field].copy().ravel()).reshape(params[field].shape)
                err = relative_error(grads[field], fd)
                assert err < 1e-4, f"{variant}/cocoop.{field}: rel err {err}"
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 100
    assert elapsed < 60.0
    _pass(3, f"{checked} random instances, all analytic gradients within 1e-4 in {elapsed:.1f}s")


def test_criterion_04_fedavg_centralized_equivalence():
    seed = 3
    rng = np.random.default_rng(17)
    master = MasterDataset(features=unit_rows(rng.normal(size=(24, 12))),
                           labels=rng.integers(0, 4, size=24), class_count=4)
    cfg = ModelConfig(prompts=1, tokens=3, d_token=8, d_feature=12, d_image=12,
                      encoder="attention_block", seed=7, token_scale=0.3)
    assets = build_assets(cfg, 4)
    trainer = make_trainer("promptfl")
    fed = FederationConfig(protocol="centralized", num_clients=1, rounds=10, batch_size=8)
    clients = build_clients(master, [np.arange(24)], trainer, cfg, seed=seed)
    server = run_federation(trainer, clients, fed, assets, seed=seed)

    # independent path: plain SGD, no server, same streams and schedule
    context = trainer.init_payload(cfg, rngs.derive_rng(seed, rngs.PROMPT_INIT)).fields["context"]
    state = trainer.init_state(cfg, rngs.derive_rng(seed, rngs.CLIENT, 0))
    data = ClientDataset.from_master(master, np.arange(24))
    for t in range(fed.rounds):
        for batch in iterate_batches(data, rngs.derive_rng(seed, rngs.CLIENT, 0, t), 8):
            grads, _ = prompt_gradients(assets.encoder, context, batch, class_tokens(cfg, 4),
                                        cfg.tau)
            context = sgd_momentum_step({"context": context}, {"context": grads},
                                        state.velocities, fed.lr, fed.momentum,
                                        t, fed.rounds)["context"]
    gap = float(np.max(np.abs(server.payload.fields["context"] - context)))
    assert gap < 1e-12
    _pass(4, f"10-round federated vs standalone trajectory gap {gap:.2e} < 1e-12")


def test_criterion_05_learning_beats_zero_shot_at_desk_scale():
    start = time.monotonic()
    master = generate_synthetic_dataset(classes=10, width=64, noise_sigma=0.1,
                                        samples_per_class=200, rng=rngs.derive_rng(0, rngs.DATA))
    config = ExperimentConfig(
        model=ModelConfig(prompts=1, tokens=4, d_token=32, d_feature=64, d_image=64,
                          encoder="attention_block", seed=0, token_scale=0.05),
        federation=FederationConfig(protocol="standard", num_clients=10, rounds=30),
        data=DataConfig(alpha=0.1, per_class_subsample=140),  # the whole training pool
    )
    assets = build_assets(config.model, 10)
    gaps = []
    for seed in (0, 1, 2):
        result = one_cell(config, "global", "promptfl", master, seed)
        best = next(o.value for o in result.observations if o.metric == "alpha_g")
        _tr, _va, te = _splits(master, seed)
        zs = zero_shot_accuracy(assets, master.features[te], master.labels[te])
        assert best - zs >= 20.0, f"seed {seed}: best {best:.1f} vs zero-shot {zs:.1f}"
        gaps.append(best - zs)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _pass(5, f"gaps over zero-shot {['%.1f' % g for g in gaps]} points (>= 20) in {elapsed:.1f}s")


def test_criterion_06_heterogeneity_monotone_in_concentration():
    labels = np.repeat(np.arange(10), 8)  # 10 classes, 8 per class

    def mean_entropy(alpha, seed):
        partition = dirichlet_partition(labels, 10, alpha, rngs.derive_rng(seed, rngs.PARTITION))
        values = []
        for idx in partition.client_indices:
            if len(idx) == 0:
                continue
            counts = np.bincount(labels[idx]).astype(float)
            p = counts[counts > 0] / counts.sum()
            values.append(float(-(p * np.log(p)).sum()))
        return float(np.mean(values))

    low = [mean_entropy(0.1, s) for s in range(10)]
    high = [mean_entropy(100.0, s) for s in range(10)]
    assert np.mean(high) > np.mean(low)
    assert all(h > l for h, l in zip(high, low))  # strict even per seed here
    _pass(6, f"mean client label entropy {np.mean(low):.2f} -> {np.mean(high):.2f} "
             "strictly increases from alpha=0.1 to alpha=100")


def test_criterion_07_transport_plan_properties():
    rng = np.random.default_rng(5)
    # (uniform) marginal satisfaction and optimality vs the independent coupling
    for _ in range(25):
        m, n = rng.integers(2, 7, size=2)
        cost = rng.uniform(0, 2, size=(m, n))
        r, c = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        plan = sinkhorn(cost, eps=0.15, iters=300)
        assert np.max(np.abs(plan.sum(axis=1) - r)) < 1e-6
        assert np.max(np.abs(plan.sum(axis=0) - c)) < 1e-6
        assert (plan * cost).sum() <= (np.outer(r, c) * cost).sum() + 1e-9
    # small-regularisation 2x2 plan against brute-force enumeration
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = sinkhorn(cost, eps=0.01, iters=100)
    best_plan = None
    best_value = np.inf
    for a in np.linspace(0.0, 0.5, 5001):
        candidate = np.array([[a, 0.5 - a], [0.5 - a, a]])
        value = float((candidate * cost).sum())
        if value < best_value:
            best_value, best_plan = value, candidate
    assert np.max(np.abs(plan - best_plan)) < 1e-3
    # one-sided relaxation collapses to the balanced plan at relax=1
    cost = rng.uniform(0, 2, size=(5, 3))
    gap = np.max(np.abs(sinkhorn(cost, 0.2, 120) -
                        sinkhorn_relaxed(cost, 0.2, 120, col_relax=1.0)))
    assert gap < 1e-9
    _pass(7, "marginals within 1e-6, plan beats product coupling, 2x2 matches "
             f"enumeration, relax=1 gap {gap:.1e}")


def test_criterion_08_reduction_suite():
    rng = np.random.default_rng(20)
    cfg = ModelConfig(prompts=1, tokens=3, d_token=8, d_feature=12, d_image=12,
                      encoder="attention_block", seed=7, token_scale=0.3)
    assets = build_assets(cfg, 4)
    data = ClientDataset(features=unit_rows(rng.normal(size=(12, 12))),
                         labels=rng.integers(0, 4, size=12), master_indices=np.arange(12))

    def one_step(kind, **settings):
        trainer = trainer_with(kind, **settings)
        payload = trainer.init_payload(cfg, np.random.default_rng(9))
        state = trainer.init_state(cfg, np.random.default_rng(9))
        ctx = TrainContext(assets=assets, round_index=0, federation=FederationConfig(rounds=10),
                           rng=np.random.default_rng(4))
        out, _ = trainer.local_train(payload, state, data, ctx)
        return out

    base = one_step("promptfl")
    assert max_abs_diff(base, one_step("kgcoop", lambda_kg=0.0)) <= 1e-12
    assert max_abs_diff(base, one_step("src", mu_text=0.0, mu_logit=0.0, window=1)) <= 1e-12

    check_rng = np.random.default_rng(77)
    for _ in range(1000):
        d = check_rng.integers(2, 40)
        g_task = check_rng.normal(size=d)
        g_gen = check_rng.normal(size=d)
        out = project_prograd(g_task, g_gen, 1.0)
        assert out @ g_gen >= -1e-12
        if g_task @ g_gen >= 0:
            np.testing.assert_array_equal(out, g_task)
    _pass(8, "lambda/mu-zero trainers match the baseline within 1e-12; "
             "1000 projections never conflict beyond -1e-12")


def test_criterion_09_base_novel_protocol_integrity():
    master = generate_synthetic_dataset(classes=4, width=16, noise_sigma=0.1,
                                        samples_per_class=30, rng=rngs.derive_rng(0, rngs.DATA))
    config = ExperimentConfig(
        model=ModelConfig(prompts=1, tokens=3, d_token=8, d_feature=16, d_image=16,
                          encoder="attention_block", seed=11, token_scale=0.1),
        federation=FederationConfig(protocol="standard", num_clients=4, rounds=2, batch_size=8),
        data=DataConfig(alpha=0.5, per_class_subsample=6),
        scenario=ScenarioSpec(split_mode="random"),
    )
    audited_batches = 0
    for split_seed in range(10):
        splits = {}
        for method in ("promptfl", "kgcoop"):
            result, audit = audited_cell(config, "base_novel", method, master, split_seed)
            by_metric = {o.metric: o.value for o in result.observations}
            assert by_metric["alpha_h"] == harmonic_mean(by_metric["alpha_b"], by_metric["alpha_n"])
            _base, novel = base_novel_split(master.class_count, mode="random", seed=split_seed)
            for batch in audit:
                assert not np.isin(master.labels[batch], novel).any()
                audited_batches += 1
            splits[method] = [batch.tolist() for batch in audit]
        # seed-aligned across methods: the same split, partition and batches
        assert splits["promptfl"] == splits["kgcoop"]
    assert audited_batches > 0
    _pass(9, f"10 aligned random splits, {audited_batches} training batches audited clean, "
             "harmonic mean recomputes exactly")


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = parse_config(str(TOY_CONFIG))
    run(config, jobs=1, output_dir=str(tmp_path / "a"))
    run(config, jobs=1, output_dir=str(tmp_path / "b"))
    run(config, jobs=2, output_dir=str(tmp_path / "c"))
    ref = (tmp_path / "a" / "results.csv").read_bytes()
    assert (tmp_path / "b" / "results.csv").read_bytes() == ref
    assert (tmp_path / "c" / "results.csv").read_bytes() == ref
    ref_curves = (tmp_path / "a" / "curves.jsonl").read_bytes()
    assert (tmp_path / "b" / "curves.jsonl").read_bytes() == ref_curves
    assert (tmp_path / "c" / "curves.jsonl").read_bytes() == ref_curves
    _pass(10, "results.csv byte-identical across reruns and worker counts")
