"""Trainers, losses, the optimizer, and the reduction web between methods."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlm_oracle
from conftest import random_unit_batch, small_config
from oracle import (
    finite_diff_gradient,
    max_abs_diff,
    metanet_param_count,
    on_context,
    ot_scores_and_grads_three_operand,
    payloads_equal,
    recorded_batches,
    regions_of,
    relative_error,
    stacked_client_predictors,
    stacked_per_client_probs,
    trainer_with,
)
from fedprompt.algorithms import (
    CommunicablePayload,
    ConditionedPredictor,
    PersonalizedFedOTPTrainer,
    TrainContext,
    _reference_scores,
    cosine_lr,
    iterate_batches,
    loss_kgcoop,
    loss_proda,
    loss_src,
    make_trainer,
    metanet_forward,
    ot_scores_and_grads,
    project_prograd,
    sgd_momentum_step,
    trajectory_average,
    ce_loss_and_grads,
)
from fedprompt.data import ClientDataset, Regions, class_positions
from fedprompt.errors import DataError
from fedprompt.federation import FederationConfig
from fedprompt.numerics import softmax_ce_batch, softmax_temp
from fedprompt.vlm import (
    ModelConfig,
    build_assets,
    build_handcrafted_context,
    class_tokens,
    unit_rows,
)


def client_dataset(rng, n, d, classes):
    feats = random_unit_batch(rng, n, d)
    labels = rng.integers(0, classes, size=n)
    return ClientDataset(features=feats, labels=labels, master_indices=np.arange(n))


def make_ctx(assets, rng_seed=0, **federation):
    """A round-0 training context; `federation` sets `FederationConfig` fields
    (10 rounds unless given)."""
    return TrainContext(assets=assets, round_index=0,
                        federation=FederationConfig(**{"rounds": 10, **federation}),
                        rng=np.random.default_rng(rng_seed))


class TestSGD:
    def test_zero_gradient_zero_velocity_keeps_params(self):
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.zeros(2)}
        out = sgd_momentum_step(p, g, {}, 0.002, 0.9, t=3, total=10)
        np.testing.assert_array_equal(out["w"], p["w"])

    def test_initial_learning_rate(self):
        assert cosine_lr(0.002, 0, 50) == pytest.approx(0.002, abs=1e-15)

    def test_final_tick_freezes(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([100.0])}
        out = sgd_momentum_step(p, g, {}, 0.002, 0.0, t=10, total=10)
        np.testing.assert_allclose(out["w"], p["w"], atol=1e-15)

    def test_momentum_accumulates(self):
        velocities = {}
        p = {"w": np.array([0.0])}
        g = {"w": np.array([1.0])}
        p = sgd_momentum_step(p, g, velocities, 1.0, 0.5, t=0, total=1000000000)
        # lr at t=0 is the base rate; v=1 -> w=-1
        assert p["w"][0] == pytest.approx(-1.0, abs=1e-6)
        p = sgd_momentum_step(p, g, velocities, 1.0, 0.5, t=0, total=1000000000)
        # v = 0.5*1 + 1 = 1.5 -> w = -1 - 1.5
        assert p["w"][0] == pytest.approx(-2.5, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="could not be broadcast"):
            sgd_momentum_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, 0.002, 0.9, 0, 10)


class TestPayload:
    def test_scalar_count(self):
        p = CommunicablePayload({"a": np.zeros((2, 3)), "b": np.zeros(5)})
        assert p.scalar_count == 11

    def test_payload_sizes_at_paper_dims(self):
        cfg = ModelConfig()  # d_token=512, tokens=4, meta 1024->64->512
        sizes = {kind: make_trainer(kind).payload_scalars(cfg)
                 for kind in ("promptfl", "plot", "prograd", "src", "kgcoop",
                              "fedotp", "proda", "cocoop")}
        assert sizes["promptfl"] == 2048
        assert sizes["plot"] == sizes["prograd"] == sizes["src"] == sizes["kgcoop"] == 2048
        assert sizes["fedotp"] == 4096
        assert sizes["proda"] == 4096
        assert sizes["cocoop"] == 2048 + 98880 == 100928

    def test_fedotp_personalized_payload_half(self):
        cfg = ModelConfig()
        assert PersonalizedFedOTPTrainer().payload_scalars(cfg) == 2048


class TestMetaNet:
    def test_zero_weights_zero_bias(self):
        cfg = small_config()
        meta = {"meta_w1": np.zeros((cfg.meta_hidden, cfg.d_image)),
                "meta_b1": np.zeros(cfg.meta_hidden),
                "meta_w2": np.zeros((cfg.d_token, cfg.meta_hidden)),
                "meta_b2": np.zeros(cfg.d_token)}
        bias, _ = metanet_forward(meta, np.ones(cfg.d_image))
        np.testing.assert_array_equal(bias, np.zeros(cfg.d_token))

    def test_param_count_solution(self):
        # 1024*64 + 64 + 64*512 + 512, the meta-net sizing recovered from
        # the reference cost column
        assert metanet_param_count(ModelConfig()) == 98880


def per_image_cocoop(assets, params, xh, labels, class_ids=None):
    """Conditioned-prompt loss, logits and gradients, one image and one prompt set at
    a time through the per-sequence oracle encoder."""
    enc = assets.encoder
    tokens = class_tokens(assets.cfg, assets.class_count)
    tokens = tokens if class_ids is None else tokens[class_ids]
    context = params["context"]
    m = context.shape[0]
    rows, per_image = [], []
    for x in xh:
        z1 = np.tanh(params["meta_w1"] @ x + params["meta_b1"])
        shifted = context + (params["meta_w2"] @ z1 + params["meta_b2"])
        feats = vlm_oracle.text_features(enc, shifted, tokens)          # (m, C, d)
        rows.append(np.mean([f @ x for f in feats], axis=0))
        per_image.append((x, z1, shifted))
    logits = np.stack(rows)
    loss, dlogits, _ = softmax_ce_batch(logits, labels, assets.cfg.tau)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for b, (x, z1, shifted) in enumerate(per_image):
        dT = np.repeat(np.outer(dlogits[b] / m, x)[None], m, axis=0)
        dctx = vlm_oracle.context_grads(enc, shifted, tokens, dT)
        grads["context"] += dctx
        dbias = dctx.sum(axis=(0, 1))
        grads["meta_w2"] += np.outer(dbias, z1)
        grads["meta_b2"] += dbias
        da1 = (params["meta_w2"].T @ dbias) * (1.0 - z1 * z1)
        grads["meta_w1"] += np.outer(da1, x)
        grads["meta_b1"] += da1
    return loss, logits, grads


class TestCoCoOpBatched:
    """One encode and one backward per batch, against a per-image loop."""

    def _setup(self, variant, rng, m=2, n=5):
        cfg = small_config(variant, prompts=m, n_class_tokens=2)
        assets = build_assets(cfg, 4)
        params = make_trainer("cocoop").init_payload(cfg, rng).fields
        params["meta_b1"] = rng.normal(size=params["meta_b1"].shape) * 0.1
        params["meta_b2"] = rng.normal(size=params["meta_b2"].shape) * 0.05
        xh = random_unit_batch(rng, n, cfg.d_image)
        labels = rng.integers(0, 4, size=n)
        return assets, params, xh, labels

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("class_ids", [None, np.array([0, 2, 3])])
    def test_grad_step_matches_per_image_loop(self, variant, class_ids, rng):
        assets, params, xh, labels = self._setup(variant, rng)
        if class_ids is not None:
            labels = class_ids[labels % len(class_ids)]
        ctx = make_ctx(assets.for_classes(class_ids))
        batch = ClientDataset(features=xh, labels=labels, master_indices=np.arange(len(labels)))
        (loss, grads), = make_trainer("cocoop").batch_gradients([(params, batch, ctx, None)])
        positions = class_positions(labels, class_ids)
        expected_loss, _, expected = per_image_cocoop(assets, params, xh, positions, class_ids)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        assert grads.keys() == expected.keys()
        for name in grads:
            assert grads[name].shape == params[name].shape
            np.testing.assert_allclose(grads[name], expected[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_meta_gradients_match_finite_differences(self, variant, rng):
        assets, params, xh, labels = self._setup(variant, rng, m=1)
        trainer = make_trainer("cocoop")
        ctx = make_ctx(assets)
        batch = ClientDataset(features=xh, labels=labels, master_indices=np.arange(len(labels)))
        (_, grads), = trainer.batch_gradients([(params, batch, ctx, None)])
        for name, entries in (("meta_w1", [(0, 0), (3, 5), (17, 11)]),
                              ("meta_b2", [(0,), (4,), (7,)])):
            for entry in entries:
                def f(value, name=name, entry=entry):
                    probe = {k: v.copy() for k, v in params.items()}
                    probe[name][entry] = value[0]
                    return next(trainer.batch_gradients([(probe, batch, ctx, None)]))[0]
                fd = finite_diff_gradient(f, np.array([params[name][entry]]))[0]
                assert grads[name][entry] == pytest.approx(fd, rel=1e-4, abs=1e-9), (name, entry)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_predictor_blocks(self, variant, rng, monkeypatch):
        assets, params, xh, _ = self._setup(variant, rng, n=7)
        expected = softmax_temp(per_image_cocoop(assets, params, xh, np.zeros(7, int))[1],
                                assets.cfg.tau)
        whole = ConditionedPredictor(assets, params).probs(xh, None)
        # three images per encode call: blocks of 3, 3 and 1
        monkeypatch.setattr("fedprompt.algorithms.PAIRS_PER_BLOCK", 3 * 2 * 4)
        blocked = ConditionedPredictor(assets, params).probs(xh, None)
        np.testing.assert_allclose(whole, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked, expected, rtol=0, atol=1e-12)


class TestLossGradients:
    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_kgcoop_regularizer_gradient(self, variant, rng):
        cfg = small_config(variant)
        assets = build_assets(cfg, 4)
        v = rng.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.1
        xh = random_unit_batch(rng, 3, cfg.d_image)
        y = np.array([0, 1, 3])
        hand = assets.hand_features
        _, g = on_context(loss_kgcoop, assets, v, xh, y, cfg.tau, hand, 1.7)
        fd = finite_diff_gradient(
            lambda f: on_context(loss_kgcoop, assets, f.reshape(v.shape), xh, y, cfg.tau, hand,
                                 1.7)[0],
            v.copy().ravel()).reshape(v.shape)
        assert relative_error(g, fd) < 1e-4

    def test_kgcoop_zero_at_reference(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        xh = random_unit_batch(rng, 2, cfg.d_image)
        y = np.array([0, 1])
        hand, _ = assets.text_features(build_handcrafted_context(cfg))
        ce_loss, _ = ce_loss_and_grads(hand, xh, y, cfg.tau)
        reg_loss, _ = loss_kgcoop(hand, xh, y, cfg.tau, assets.hand_features, 5.0)
        assert reg_loss == pytest.approx(ce_loss, abs=1e-12)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_proda_gradient(self, variant, rng):
        cfg = small_config(variant, prompts=2)
        assets = build_assets(cfg, 4)
        v = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        xh = random_unit_batch(rng, 3, cfg.d_image)
        y = np.array([2, 1, 0])
        _, g = on_context(loss_proda, assets, v, xh, y, cfg.tau, 0.9)
        fd = finite_diff_gradient(
            lambda f: on_context(loss_proda, assets, f.reshape(v.shape), xh, y, cfg.tau, 0.9)[0],
            v.copy().ravel()).reshape(v.shape)
        assert relative_error(g, fd) < 1e-4

    def test_proda_identical_sets_reduce_to_single_ce(self, rng):
        # with equal prompt sets and no penalty, the ensemble CE equals the
        # single-set CE and each set receives exactly half the gradient
        cfg1 = small_config()
        cfg2 = small_config(prompts=2)
        assets1 = build_assets(cfg1, 4)
        assets2 = build_assets(cfg2, 4)
        v = rng.normal(size=(1, cfg1.tokens, cfg1.d_token)) * 0.1
        xh = random_unit_batch(rng, 3, cfg1.d_image)
        y = np.array([0, 3, 2])
        ce, g_single = on_context(ce_loss_and_grads, assets1, v, xh, y, cfg1.tau)
        dup = np.concatenate([v, v], axis=0)
        ens, g_pair = on_context(loss_proda, assets2, dup, xh, y, cfg2.tau, 0.0)
        assert ens == pytest.approx(ce, abs=1e-12)
        np.testing.assert_allclose(g_pair[0], g_single[0] / 2.0, atol=1e-15)
        np.testing.assert_allclose(g_pair[1], g_single[0] / 2.0, atol=1e-15)

    def test_proda_orthogonal_sets_no_penalty(self, rng):
        cfg = small_config(prompts=2)
        assets = build_assets(cfg, 4)
        v = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        xh = random_unit_batch(rng, 2, cfg.d_image)
        y = np.array([0, 1])
        feats, _ = assets.text_features(v)
        dots = (feats[0] * feats[1]).sum(axis=1)
        loss_on, _ = loss_proda(feats, xh, y, cfg.tau, 1.0)
        loss_off, _ = loss_proda(feats, xh, y, cfg.tau, 0.0)
        expected_penalty = float((np.maximum(dots, 0) ** 2).mean())
        assert loss_on - loss_off == pytest.approx(expected_penalty, abs=1e-12)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_src_gradient(self, variant, rng):
        cfg = small_config(variant)
        assets = build_assets(cfg, 4)
        v = rng.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.1
        xh = random_unit_batch(rng, 3, cfg.d_image)
        y = np.array([1, 2, 0])
        zero_shot = _reference_scores(assets, xh)
        refs = assets.reference_features
        _, g = on_context(loss_src, assets, v, xh, y, cfg.tau, zero_shot, refs, 0.6, 0.4)
        fd = finite_diff_gradient(
            lambda f: on_context(loss_src, assets, f.reshape(v.shape), xh, y, cfg.tau, zero_shot,
                                 refs, 0.6, 0.4)[0],
            v.copy().ravel()).reshape(v.shape)
        assert relative_error(g, fd) < 1e-4

    def test_src_zero_regularizers_at_own_reference(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        xh = random_unit_batch(rng, 2, cfg.d_image)
        y = np.array([0, 1])
        hand, _ = assets.text_features(build_handcrafted_context(cfg))
        ce_loss, _ = ce_loss_and_grads(hand, xh, y, cfg.tau)
        src_loss, _ = loss_src(hand, xh, y, cfg.tau, _reference_scores(assets, xh),
                               assets.hand_features, 3.0, 3.0)
        assert src_loss == pytest.approx(ce_loss, abs=1e-12)


class TestProjection:
    def test_no_conflict_passthrough(self):
        out = project_prograd(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_hand_projection(self):
        out = project_prograd(np.array([1.0, -1.0]), np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_zero_general_gradient(self):
        g = np.array([0.3, -0.7])
        np.testing.assert_array_equal(project_prograd(g, np.zeros(2), 1.0), g)

    def test_projected_never_conflicts_thousand_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            d = rng.integers(2, 30)
            g_task = rng.normal(size=d)
            g_gen = rng.normal(size=d)
            out = project_prograd(g_task, g_gen, 1.0)
            assert out @ g_gen >= -1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_projection_property(self, seed):
        r = np.random.default_rng(seed)
        g_task, g_gen = r.normal(size=8), r.normal(size=8)
        out = project_prograd(g_task, g_gen, 1.0)
        assert out @ g_gen >= -1e-12
        if g_task @ g_gen >= 0:
            np.testing.assert_array_equal(out, g_task)


class TestTrajectoryAverage:
    def test_window_one_is_identity(self, rng):
        ctxs = [rng.normal(size=(2, 3)) for _ in range(4)]
        np.testing.assert_array_equal(trajectory_average(ctxs, 1), ctxs[-1])

    def test_window_two_is_mean(self, rng):
        ctxs = [rng.normal(size=(2, 3)) for _ in range(3)]
        expected = (ctxs[-1] + ctxs[-2]) / 2.0
        np.testing.assert_allclose(trajectory_average(ctxs, 2), expected, atol=1e-15)


class TestTrainers:
    def test_zero_epochs_payload_bitwise_identical(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        trainer = make_trainer("promptfl")
        payload = trainer.init_payload(cfg, rng)
        state = trainer.init_state(cfg, rng)
        data = client_dataset(rng, 8, cfg.d_image, 4)
        (out, _), = trainer.local_train(payload, [(state, data, make_ctx(assets, local_epochs=0))])
        assert payloads_equal(out, payload)

    def test_loss_decreases_on_separable_data(self):
        # two well-separated classes; the first few steps should trend down
        rng = np.random.default_rng(5)
        cfg = small_config("attention_block", d_token=16, d_feature=24, d_image=24,
                           token_scale=0.05)
        assets = build_assets(cfg, 2)
        protos = unit_rows(rng.normal(size=(2, cfg.d_image)))
        feats = np.concatenate([
            unit_rows(protos[c] + 0.05 * rng.normal(size=(40, cfg.d_image))) for c in (0, 1)
        ])
        labels = np.repeat([0, 1], 40)
        data = ClientDataset(features=feats, labels=labels, master_indices=np.arange(80))
        trainer = make_trainer("promptfl")
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        state = trainer.init_state(cfg, np.random.default_rng(0))
        losses = []
        for step in range(5):
            ctx = make_ctx(assets, rng_seed=step, batch_size=80, rounds=100)
            (payload, loss), = trainer.local_train(payload, [(state, data, ctx)])
            losses.append(loss)
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_empty_dataset_rejected(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        trainer = make_trainer("promptfl")
        payload = trainer.init_payload(cfg, rng)
        state = trainer.init_state(cfg, rng)
        empty = ClientDataset(features=np.zeros((0, cfg.d_image)),
                              labels=np.zeros(0, dtype=int), master_indices=np.zeros(0, dtype=int))
        with pytest.raises(DataError):
            trainer.local_train(payload, [(state, empty, make_ctx(assets))])

    def test_batch_label_outside_the_trained_classes(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        trainer = make_trainer("promptfl")
        params = dict(trainer.init_payload(cfg, rng).fields)
        batch = ClientDataset(features=random_unit_batch(rng, 3, cfg.d_image), labels=np.array([3, 1, 0]),
                              master_indices=np.arange(3))
        with pytest.raises(DataError, match=r"label 1 is outside the class set \[0, 2, 3\]"):
            list(trainer.batch_gradients(
                [(params, batch, make_ctx(assets.for_classes(np.array([0, 2, 3]))), None)]))

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_src_averages_the_epoch_trajectory(self, variant):
        # three epochs by hand: the payload is the window-2 average of the
        # contexts after each epoch, not the last one
        rng = np.random.default_rng(31)
        cfg = small_config(variant)
        assets = build_assets(cfg, 4)
        data = client_dataset(rng, 10, cfg.d_image, 4)
        trainer = trainer_with("src", mu_text=0.5, mu_logit=0.7, window=2)
        payload = trainer.init_payload(cfg, np.random.default_rng(1))
        state = trainer.init_state(cfg, np.random.default_rng(1))
        ctx = make_ctx(assets, rng_seed=4, local_epochs=3, batch_size=4)
        with recorded_batches() as batches:
            (out, _), = trainer.local_train(payload, [(state, data, ctx)])

        context = payload.fields["context"]
        velocities = {}
        batch_rng = np.random.default_rng(4)
        refs = assets.reference_features
        trajectory = []
        for _ in range(3):
            for batch in iterate_batches(data, batch_rng, 4):
                xh = unit_rows(batch.features)
                _, grads = on_context(loss_src, assets, context, xh, batch.labels, cfg.tau,
                                      _reference_scores(assets, xh), refs, 0.5, 0.7)
                context = sgd_momentum_step({"context": context}, {"context": grads},
                                            velocities, 0.002, 0.9, 0, 10)["context"]
            trajectory.append(context)
        np.testing.assert_array_equal(out.fields["context"], trajectory_average(trajectory, 2))
        assert len(batches) == 9 and sum(len(batch) for batch in batches) == 30

    def test_src_zero_epochs_payload_bitwise_identical(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        trainer = trainer_with("src", window=2)
        payload = trainer.init_payload(cfg, rng)
        state = trainer.init_state(cfg, rng)
        data = client_dataset(rng, 8, cfg.d_image, 4)
        ctx = make_ctx(assets, local_epochs=0)
        with recorded_batches() as batches:
            (out, loss), = trainer.local_train(payload, [(state, data, ctx)])
        assert payloads_equal(out, payload)
        assert batches == [] and loss == 0.0


def _one_step_payload(kind, cfg, assets, data, seed=0, **settings):
    trainer = trainer_with(kind, **settings)
    payload = trainer.init_payload(cfg, np.random.default_rng(9))
    state = trainer.init_state(cfg, np.random.default_rng(9))
    ctx = make_ctx(assets, rng_seed=seed)
    (out, _), = trainer.local_train(payload, [(state, data, ctx)])
    return out


class TestReductionWeb:
    """Regularised methods collapse to the plain baseline when switched off."""

    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(21)
        cfg = small_config("attention_block")
        assets = build_assets(cfg, 4)
        data = client_dataset(rng, 12, cfg.d_image, 4)
        return cfg, assets, data

    def test_kgcoop_lambda_zero_equals_promptfl(self, setup):
        cfg, assets, data = setup
        base = _one_step_payload("promptfl", cfg, assets, data)
        reduced = _one_step_payload("kgcoop", cfg, assets, data, lambda_kg=0.0)
        assert max_abs_diff(base, reduced) <= 1e-12

    def test_src_mu_zero_window_one_equals_promptfl(self, setup):
        cfg, assets, data = setup
        base = _one_step_payload("promptfl", cfg, assets, data)
        reduced = _one_step_payload("src", cfg, assets, data,
                                    mu_text=0.0, mu_logit=0.0, window=1)
        assert max_abs_diff(base, reduced) <= 1e-12

    def test_prograd_at_reference_context_passes_through(self, setup):
        # at the handcrafted context the current and zero-shot predictions
        # coincide, the alignment gradient vanishes, and one update step
        # equals the plain CE step
        cfg, assets, data = setup
        for kind in ("promptfl", "prograd"):
            trainer = make_trainer(kind)
            payload = CommunicablePayload({"context": build_handcrafted_context(cfg)})
            state = trainer.init_state(cfg, np.random.default_rng(0))
            ctx = make_ctx(assets, rng_seed=3, batch_size=32)
            (out, _), = trainer.local_train(payload, [(state, data, ctx)])
            if kind == "promptfl":
                base = out
        assert max_abs_diff(base, out) <= 1e-12


class TestFedOTP:
    def test_modes_payload_fields(self):
        cfg = small_config()
        global_mode = make_trainer("fedotp")
        personal = PersonalizedFedOTPTrainer()
        assert personal.kind == global_mode.kind == "fedotp"
        assert list(global_mode.payload_shapes(cfg)) == ["context"]
        assert list(personal.payload_shapes(cfg)) == ["context_global"]
        assert global_mode.payload_scalars(cfg) == 2 * personal.payload_scalars(cfg)

    def test_personalized_keeps_local_prompt_in_state(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        trainer = PersonalizedFedOTPTrainer()
        payload = trainer.init_payload(cfg, rng)
        state = trainer.init_state(cfg, rng)
        local_before = state.local_fields["context_local"].copy()
        data = client_dataset(np.random.default_rng(3), 10, cfg.d_image, 4)
        # every row over the same three noise rows
        noise = np.random.default_rng(7).normal(size=(1, 3, cfg.d_image))
        data = replace(data, regions=Regions.of(data.features, noise, np.zeros(10, dtype=int)))
        (out, _), = trainer.local_train(payload, [(state, data, make_ctx(assets))])
        assert list(out.fields) == ["context_global"]
        assert np.any(state.local_fields["context_local"] != local_before)


class TestPerClientPredictor:
    """A personalized predictor encodes its clients while it scores, and
    scores as the stacked features of every client would."""

    CLIENTS = 30  # 20 (set, class) pairs per client: three encoder blocks of clients

    def _held(self, trainer, cfg):
        rng = np.random.default_rng(11)
        payload = trainer.init_payload(cfg, rng)
        held = [(trainer.init_state(cfg, rng), int(n))
                for n in rng.integers(1, 5, size=self.CLIENTS)]
        images = random_unit_batch(rng, sum(n for _, n in held), cfg.d_image)
        return payload, held, images, regions_of(images,
                                                 rng.normal(size=(len(images), 4, cfg.d_image)))

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_streamed_equals_stacked_features(self, variant, monkeypatch):
        from fedprompt import data

        cfg = small_config(variant, d_feature=64, d_image=64)
        assets = build_assets(cfg, 10)
        trainer = PersonalizedFedOTPTrainer()
        payload, held, images, regions = self._held(trainer, cfg)
        predictor = trainer.build_predictor(payload, assets, held)
        stacked = stacked_client_predictors(trainer, payload, assets, held)
        for streamed, whole in zip(predictor.predictors(), stacked, strict=True):
            assert streamed.features.tobytes() == whole.features.tobytes()
        expected = stacked_per_client_probs(stacked, predictor.rows, regions.build(images))
        assert predictor.probs(images, regions).tobytes() == expected.tobytes()
        # region blocks of three rows, which cut across the clients' blocks
        monkeypatch.setattr(data, "_BLOCK_BYTES", 3 * 4 * cfg.d_image * 8)
        assert predictor.probs(images, regions).tobytes() == expected.tobytes()

    def test_encodes_a_block_of_clients_at_a_time(self, monkeypatch):
        # nothing is encoded when the predictor is made; each block of clients
        # is encoded as its first client is scored
        cfg = small_config(d_feature=64, d_image=64)
        assets = build_assets(cfg, 10)
        trainer = PersonalizedFedOTPTrainer()
        payload, held, *_ = self._held(trainer, cfg)
        predictor = trainer.build_predictor(payload, assets, held)
        encoded = []
        text_features = type(assets).text_features
        monkeypatch.setattr(type(assets), "text_features",
                            lambda self, contexts, out=None: encoded.append(len(contexts))
                            or text_features(self, contexts, out))
        made = predictor.predictors()
        assert encoded == []
        next(made)
        assert encoded == [20]  # 10 clients' [consensus; local] contexts
        assert len(list(made)) == self.CLIENTS - 1 and encoded == [20, 20, 20]


class TestTransportGradientSurrogate:
    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("n_sets,col_relax", [(1, 1.0), (2, 0.5)])  # PLOT, FedOTP
    def test_plan_gradient_equals_three_operand_contraction_bitwise(self, variant, n_sets,
                                                                    col_relax):
        # weighting the plans by dlogits before contracting with the region
        # features gives the bits of the one three-operand contraction, and
        # so does the context gradient the encoder's backward pass makes of it
        cfg = small_config(variant, prompts=n_sets, d_feature=512, d_image=512)
        assets = build_assets(cfg, 5)
        rng = np.random.default_rng(n_sets)
        context = rng.normal(size=(n_sets, cfg.tokens, cfg.d_token)) * 0.3
        for batch in (1, 3, 16):
            for regions in (1, 2, 4):
                maps = unit_rows(rng.normal(size=(batch, regions, cfg.d_image)))
                labels = rng.integers(0, 5, size=batch)
                args = (maps, labels, cfg.tau, 0.1, 100, col_relax)
                feats, _ = assets.text_features(context)
                loss, dfeatures = ot_scores_and_grads(feats, *args)
                ref_loss, ref_dfeatures = ot_scores_and_grads_three_operand(feats, *args)
                assert loss == ref_loss
                assert dfeatures.tobytes() == ref_dfeatures.tobytes(), (batch, regions)

    def test_plot_gradient_matches_plan_frozen_objective(self, rng):
        # the exported gradient is exact for the objective in which the
        # transport plans are constants
        from fedprompt.transport import sinkhorn_batched
        from fedprompt.numerics import softmax_ce_batch

        cfg = small_config("linear_pool", prompts=2)
        assets = build_assets(cfg, 3)
        v = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        feats_img = random_unit_batch(rng, 2, cfg.d_image)
        maps = np.stack([
            unit_rows(f[None, :] + 0.2 * rng.normal(size=(3, cfg.d_image))) for f in feats_img
        ])
        labels = np.array([0, 2])

        loss, grads = on_context(ot_scores_and_grads, assets, v, maps, labels,
                                 cfg.tau, eps=0.2, iters=60, col_relax=1.0)

        # freeze the plans obtained at v, then vary the context
        feats0, _ = assets.text_features(v)
        prompts0 = feats0.transpose(1, 0, 2)
        costs0 = 1.0 - np.einsum("bmd,cnd->bcmn", maps, prompts0)
        plans0 = sinkhorn_batched(costs0, 0.2, 60)

        def frozen_objective(flat):
            feats_v, _ = assets.text_features(flat.reshape(v.shape))
            costs = 1.0 - np.einsum("bmd,cnd->bcmn", maps, feats_v.transpose(1, 0, 2))
            logits = -(plans0 * costs).sum(axis=(-2, -1))
            return softmax_ce_batch(logits, labels, cfg.tau)[0]

        fd = finite_diff_gradient(frozen_objective, v.copy().ravel()).reshape(v.shape)
        assert relative_error(grads, fd) < 1e-4
