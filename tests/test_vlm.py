"""Frozen encoder, class tokens, prediction head, and prompt gradients."""

from dataclasses import fields, replace

import numpy as np
import pytest

import vlm_oracle
from conftest import random_unit_batch, small_config
from oracle import cosine_similarity, finite_diff_gradient, relative_error
from test_golden_grid import openblas_core
from vlm_oracle import class_rows_digest, encoder_digest, predict, prompt_gradients
from fedprompt.data import ClientDataset
from fedprompt.errors import ConfigError, DomainError
from fedprompt.numerics import softmax_temp
from fedprompt.vlm import (
    FrozenTextEncoder,
    ModelConfig,
    build_assets,
    build_handcrafted_context,
    build_prompt_context,
    class_tokens,
    repeat_cache,
    synth_local_features,
    unit_rows,
)


class TestModelConfig:
    def test_feature_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_feature=512, d_image=1024)

    def test_defaults_match_cost_arithmetic(self):
        cfg = ModelConfig()
        assert cfg.prompts * cfg.tokens * cfg.d_token == 2048
        assert cfg.meta_hidden * cfg.d_image + cfg.meta_hidden \
            + cfg.d_token * cfg.meta_hidden + cfg.d_token == 98880

    def test_bad_encoder(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_feature=16, d_image=16, encoder="transformer")


class TestPromptContext:
    def test_param_count(self):
        cfg = ModelConfig(tokens=4, d_token=512, d_feature=16, d_image=16)
        ctx = build_prompt_context(cfg, np.random.default_rng(0), m=cfg.prompts)
        assert ctx.size == 2048

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_encode_rejects_nonfinite(self, variant, bad):
        cfg = small_config(variant)
        enc = FrozenTextEncoder(cfg)
        rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
        context = np.zeros((2, cfg.tokens, cfg.d_token))
        context[1, 2, 3] = bad
        with pytest.raises(DomainError, match="non-finite"):
            enc.encode(context, rows)

    def test_encode_of_an_overflowing_context_raises_without_a_warning(self):
        # a finite context whose attention scores overflow: the suite turns a
        # RuntimeWarning into an error, so only the encoder's own check may fire
        cfg = small_config("attention_block")
        enc = FrozenTextEncoder(cfg)
        rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
        context = 1e300 * np.random.default_rng(0).normal(size=(2, cfg.tokens, cfg.d_token))
        with pytest.raises(DomainError, match="encoded features contain non-finite entries"):
            enc.encode(context, rows)

    def test_handcrafted_deterministic(self):
        a = build_handcrafted_context(ModelConfig(seed=3, tokens=4, d_token=8))
        b = build_handcrafted_context(ModelConfig(seed=3, tokens=4, d_token=8))
        assert a.shape == (1, 4, 8)
        np.testing.assert_array_equal(a, b)

    def test_handcrafted_seeds_differ(self):
        a = build_handcrafted_context(ModelConfig(seed=1, tokens=4, d_token=8))
        b = build_handcrafted_context(ModelConfig(seed=2, tokens=4, d_token=8))
        assert np.any(a != b)

    def test_handcrafted_templates_differ(self):
        cfg = ModelConfig(seed=1, tokens=4, d_token=8)
        a = build_handcrafted_context(cfg, template=0)
        b = build_handcrafted_context(cfg, template=1)
        assert np.any(a != b)


class TestClassTokens:
    def test_deterministic_per_class(self):
        cfg = small_config()
        np.testing.assert_array_equal(class_tokens(cfg, 5), class_tokens(cfg, 5))

    def test_prefix_stable_when_extended(self):
        cfg = small_config()
        np.testing.assert_array_equal(class_tokens(cfg, 3), class_tokens(cfg, 6)[:3])


class TestEncoder:
    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_unit_norm_many_contexts(self, variant, rng):
        cfg = small_config(variant)
        enc = FrozenTextEncoder(cfg)
        rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
        for _ in range(500):  # 1000 random contexts across the two variants
            feats, _ = enc.encode(rng.normal(size=(1, cfg.tokens, cfg.d_token)), rows)
            np.testing.assert_allclose(np.linalg.norm(feats, axis=-1), 1.0, rtol=0, atol=1e-12)
        stacked, _ = enc.encode(rng.normal(size=(500, cfg.tokens, cfg.d_token)), rows)
        np.testing.assert_allclose(np.linalg.norm(stacked, axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_deterministic(self, variant, rng):
        cfg = small_config(variant)
        ctx = rng.normal(size=(2, cfg.tokens, cfg.d_token))
        dfeats = rng.normal(size=(2, 3, cfg.d_feature))
        runs = []
        for _ in range(2):  # fresh encoder and class rows each time
            enc = FrozenTextEncoder(cfg)
            rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
            feats, cache = enc.encode(ctx, rows)
            runs.append((feats, enc.backward(cache, dfeats)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_coordinate_gradient_matches_finite_differences(self, variant, rng):
        cfg = small_config(variant)
        enc = FrozenTextEncoder(cfg)
        ctx0 = rng.normal(size=(cfg.tokens, cfg.d_token)) * 0.2
        coord = 3  # one output coordinate of the class feature

        rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens).take(np.array([1]))
        _, cache = enc.encode(ctx0[None], rows)
        probe = np.zeros((1, 1, cfg.d_feature))
        probe[0, 0, coord] = 1.0
        analytic = enc.backward(cache, probe)[0]

        def f(flat):
            feats, _ = enc.encode(flat.reshape(1, cfg.tokens, cfg.d_token), rows)
            return float(feats[0, 0, coord])

        fd = finite_diff_gradient(f, ctx0.copy().ravel()).reshape(cfg.tokens, cfg.d_token)
        assert relative_error(analytic, fd) < 1e-4

    def test_stacked_gradient_matches_finite_differences(self, rng):
        # the factored attention head at 100 classes of two class rows each,
        # two contexts taken back twice through one `repeat_cache` stack
        cfg = small_config("attention_block", n_class_tokens=2)
        assets = build_assets(cfg, 100)
        contexts = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.2
        dfeatures = rng.normal(size=(2, 2, 100, cfg.d_feature))  # (copy, context, C, d_feature)
        _, cache = assets.text_features(contexts)
        analytic = assets.encoder.backward(repeat_cache(cache, 2),
                                           dfeatures.reshape(4, 100, cfg.d_feature))
        for copy, df in enumerate(dfeatures):
            def f(flat):
                feats, _ = assets.text_features(flat.reshape(contexts.shape))
                return float((feats * df).sum())

            fd = finite_diff_gradient(f, contexts.copy().ravel()).reshape(contexts.shape)
            assert relative_error(analytic[2 * copy:2 * copy + 2], fd) < 1e-4

    def test_token_width_mismatch(self):
        for variant in ("linear_pool", "attention_block"):
            cfg = small_config(variant)
            enc = FrozenTextEncoder(cfg)
            rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
            with pytest.raises(ValueError):
                enc.encode(np.zeros((1, cfg.tokens, cfg.d_token + 1)), rows)

    def test_digest_stable(self):
        cfg = small_config()
        assert encoder_digest(FrozenTextEncoder(cfg)) == \
            encoder_digest(FrozenTextEncoder(cfg))


class TestStructuredEncoder:
    """The fast path against the per-sequence oracle in `vlm_oracle`."""

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("n_class_tokens", [1, 2])
    @pytest.mark.parametrize("d_token", [8, 512])
    def test_matches_per_sequence_oracle(self, variant, n_class_tokens, d_token, rng):
        cfg = small_config(variant, tokens=4, d_token=d_token, n_class_tokens=n_class_tokens)
        assets = build_assets(cfg, 6)
        ids = np.array([4, 0, 5, 2])
        tokens = class_tokens(cfg, 6)[ids]
        # a per-context bias, as conditioned prompts add it to every context token
        bias = rng.normal(size=(8, d_token)) * 0.1
        contexts = rng.normal(size=(8, cfg.tokens, d_token)) * 0.2 + bias[:, None, :]

        feats, cache = assets.for_classes(ids).text_features(contexts)
        expected = vlm_oracle.text_features(assets.encoder, contexts, tokens)
        assert feats.shape == (8, len(ids), cfg.d_feature)
        np.testing.assert_allclose(feats, expected, rtol=0, atol=1e-12)

        dfeats = rng.normal(size=feats.shape)
        grads = assets.encoder.backward(cache, dfeats)
        expected_grads = vlm_oracle.context_grads(assets.encoder, contexts, tokens, dfeats)
        assert grads.shape == contexts.shape
        np.testing.assert_allclose(grads, expected_grads, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads.sum(axis=1), expected_grads.sum(axis=1),
                                   rtol=0, atol=1e-12)  # the bias gradient

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_class_subset_selects_rows(self, variant, rng):
        cfg = small_config(variant)
        assets = build_assets(cfg, 5)
        contexts = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.2
        full, _ = assets.text_features(contexts)
        ids = np.array([3, 1])
        subset, _ = assets.for_classes(ids).text_features(contexts)
        np.testing.assert_allclose(subset, full[:, ids], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_class_tokens", [1, 2])
    @pytest.mark.parametrize("classes", [4, 10, 100])
    def test_a_stack_encodes_each_context_as_alone(self, classes, n_class_tokens):
        # at the paper's widths, forward and backward: a context's rows of an
        # n-stack depend on no other context; under other kernels a flat
        # product's rows may round with the row count
        if openblas_core() != "SkylakeX":
            pytest.skip(f"bitwise under the SkylakeX OpenBLAS kernels only, not {openblas_core()}")
        assets = build_assets(ModelConfig(encoder="attention_block",
                                          n_class_tokens=n_class_tokens), classes)
        cfg, encoder = assets.cfg, assets.encoder
        rng = np.random.default_rng(classes + n_class_tokens)
        contexts = rng.normal(size=(64, cfg.tokens, cfg.d_token)) * cfg.init_std
        dfeatures = rng.normal(size=(64, classes, cfg.d_feature))
        alone = []
        for context, df in zip(contexts, dfeatures):
            feats, cache = assets.text_features(context[None])
            alone.append((feats.tobytes(), encoder.backward(cache, df[None]).tobytes()))
        for n in (2, 3, 8, 25, 64):
            feats, cache = assets.text_features(contexts[:n])
            grads = encoder.backward(cache, dfeatures[:n])
            assert [(f.tobytes(), g.tobytes()) for f, g in zip(feats, grads)] == alone[:n], n

    def test_context_length_mismatch(self):
        cfg = small_config("attention_block")
        enc = FrozenTextEncoder(cfg)
        rows = enc.class_rows(class_tokens(cfg, 3), cfg.tokens)
        with pytest.raises(ValueError, match="context length"):
            enc.encode(np.zeros((1, cfg.tokens + 1, cfg.d_token)), rows)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((cfg.tokens, cfg.d_token)), rows)

    def test_gradient_shape_mismatch(self, small_assets, rng):
        cfg = small_assets.cfg
        feats, cache = small_assets.text_features(rng.normal(size=(2, cfg.tokens, cfg.d_token)))
        with pytest.raises(ValueError, match="feature gradient shape"):
            small_assets.encoder.backward(cache, np.zeros(feats.shape[1:]))


class TestReferenceFeatures:
    def test_mean_of_template_features(self, small_assets):
        cfg = small_assets.cfg
        acc = np.zeros_like(small_assets.hand_features)
        for tpl in range(3):
            ctx = build_handcrafted_context(cfg, template=tpl)
            acc += vlm_oracle.text_features(small_assets.encoder, ctx,
                                            class_tokens(cfg, small_assets.class_count))[0]
        expected = acc / np.linalg.norm(acc, axis=1, keepdims=True)
        np.testing.assert_allclose(small_assets.reference_features, expected, rtol=0, atol=1e-12)


class TestPredict:
    def test_equal_similarity_symmetric(self, rng):
        x = rng.normal(size=5)
        t = rng.normal(size=5)
        probs = predict(x, [t, t], tau=0.07)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_matches_softmax_example(self):
        # craft unit text features whose cosines to x are exactly 0.5 and 0.3
        x = np.array([1.0, 0.0, 0.0])
        t1 = np.array([0.5, np.sqrt(1 - 0.25), 0.0])
        t2 = np.array([0.3, 0.0, np.sqrt(1 - 0.09)])
        probs = predict(x, [t1, t2], tau=0.1)
        np.testing.assert_allclose(probs, [0.8808, 0.1192], atol=1e-4)

    def test_permutation_equivariance(self, rng):
        x = rng.normal(size=6)
        feats = [rng.normal(size=6) for _ in range(4)]
        base = predict(x, feats, tau=0.2)
        perm = [2, 0, 3, 1]
        permuted = predict(x, [feats[i] for i in perm], tau=0.2)
        np.testing.assert_array_equal(permuted, base[perm])

    def test_empty_class_list(self):
        with pytest.raises(DomainError):
            predict(np.ones(3), [], tau=0.1)

    def test_equivalence_with_manual_composition(self, small_assets, rng):
        # scores composed by hand from cosine_similarity + softmax_temp
        cfg = small_assets.cfg
        ctx = build_prompt_context(cfg, rng, m=cfg.prompts)
        feats, _ = small_assets.text_features(ctx)
        x = rng.normal(size=cfg.d_image)
        probs = predict(x, list(feats[0]), tau=cfg.tau)
        sims = np.array([cosine_similarity(x, t) for t in feats[0]])
        np.testing.assert_array_equal(probs, softmax_temp(sims, cfg.tau))


class TestPromptGradients:
    def test_matches_finite_differences(self, small_assets, rng):
        cfg = small_assets.cfg
        ctx0 = rng.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.1
        batch = ClientDataset(features=random_unit_batch(rng, 4, cfg.d_image),
                              labels=rng.integers(0, 4, size=4),
                              master_indices=np.arange(4))
        tokens = class_tokens(cfg, small_assets.class_count)
        grads, _ = prompt_gradients(small_assets.encoder, ctx0, batch, tokens, cfg.tau)

        def f(flat):
            _, loss = prompt_gradients(small_assets.encoder,
                                       flat.reshape(1, cfg.tokens, cfg.d_token),
                                       batch, tokens, cfg.tau)
            return loss

        fd = finite_diff_gradient(f, ctx0.copy().ravel()).reshape(grads.shape)
        assert relative_error(grads, fd) < 1e-4

    def test_duplicating_batch_keeps_mean_gradient(self, small_assets, rng):
        cfg = small_assets.cfg
        ctx = rng.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.1
        tokens = class_tokens(cfg, small_assets.class_count)
        feats = random_unit_batch(rng, 3, cfg.d_image)
        labels = np.array([0, 1, 3])
        b1 = ClientDataset(features=feats, labels=labels, master_indices=np.arange(3))
        b2 = ClientDataset(features=np.tile(feats, (2, 1)), labels=np.tile(labels, 2),
                           master_indices=np.arange(6))
        g1, l1 = prompt_gradients(small_assets.encoder, ctx, b1, tokens, cfg.tau)
        g2, l2 = prompt_gradients(small_assets.encoder, ctx, b2, tokens, cfg.tau)
        np.testing.assert_allclose(g1, g2, atol=1e-15)
        assert l1 == pytest.approx(l2, abs=1e-14)

    def test_near_zero_gradient_at_confident_optimum(self, rng):
        # a single class can be predicted with probability ~1, so the CE
        # gradient through the saturated softmax nearly vanishes
        cfg = small_config("linear_pool", tau=0.01)
        assets = build_assets(cfg, 2)
        ctx = build_prompt_context(cfg, rng, m=cfg.prompts)
        feats, _ = assets.text_features(ctx)
        x = feats[0, 0]  # image aligned exactly with class-0 feature
        batch = ClientDataset(features=x[None, :], labels=np.array([0]),
                              master_indices=np.array([0]))
        grads, loss = prompt_gradients(assets.encoder, ctx, batch, class_tokens(cfg, 2), cfg.tau)
        assert loss < 1e-6
        assert np.max(np.abs(grads)) < 1e-4

    def test_empty_batch_rejected(self, small_assets, rng):
        cfg = small_assets.cfg
        ctx = build_prompt_context(cfg, rng, m=cfg.prompts)
        batch = ClientDataset(features=np.zeros((0, cfg.d_image)), labels=np.zeros(0, dtype=int),
                              master_indices=np.zeros(0, dtype=int))
        with pytest.raises(DomainError):
            prompt_gradients(small_assets.encoder, ctx, batch,
                             class_tokens(cfg, small_assets.class_count), cfg.tau)


class TestFreezing:
    def test_encoder_and_class_rows_unchanged_by_training(self, rng):
        from fedprompt.algorithms import make_trainer
        from fedprompt.data import MasterDataset
        from fedprompt.federation import FederationConfig, build_clients, run_federation

        cfg = small_config("attention_block", d_token=6, d_feature=10, d_image=10)
        assets = build_assets(cfg, 3)
        enc_digest = encoder_digest(assets.encoder)
        rows_digest = class_rows_digest(assets.class_rows)
        feats = random_unit_batch(rng, 12, cfg.d_image)
        labels = rng.integers(0, 3, size=12)
        master = MasterDataset(features=feats, labels=labels, class_count=3)
        fed = FederationConfig(protocol="standard", num_clients=2, rounds=3, batch_size=4)
        trainer = make_trainer("promptfl")
        clients = build_clients(master, [np.arange(6), np.arange(6, 12)], trainer, cfg, seed=0)
        run_federation(trainer, clients, fed, assets, seed=0)
        assert encoder_digest(assets.encoder) == enc_digest
        assert class_rows_digest(assets.class_rows) == rows_digest


class TestSharedAssets:
    """A run builds the assets of each (config, class count) once, with read-only arrays."""

    def test_equal_keys_share_one_assets(self, tmp_path, monkeypatch):
        # the cost_tradeoff sweep's prompts=1 and tokens=4 entries are the base
        # model, so global and cost_tradeoff cells use five configs in all
        from fedprompt import evaluation
        from fedprompt.config import parse_config_text
        from fedprompt.runner import run

        calls = []
        build = evaluation.build_assets
        monkeypatch.setattr(evaluation, "build_assets",
                            lambda cfg, C: calls.append((cfg, C)) or build(cfg, C))
        config = parse_config_text(
            "[experiment]\nscenarios = global,cost_tradeoff\nmethods = zsclip,promptfl\n"
            "seeds = 0,1\n[federation]\nnum_clients = 2\nrounds = 1\n"
            "[model]\nd_token = 8\nd_feature = 16\nd_image = 16\n"
            "[data]\ndatasets = synthetic,synthetic#1\nclasses = 3\n"
            "samples_per_class = 10\nper_class_subsample = 4\n")
        for name in ("first", "second"):
            assert run(config, output_dir=str(tmp_path / name)).exit_code == 0
        per_run = [(replace(config.model, **change), 3)
                   for change in ({}, {"prompts": 2}, {"prompts": 4}, {"tokens": 8},
                                  {"tokens": 16})]
        assert calls == per_run + per_run

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_every_array_is_read_only(self, variant):
        assets = build_assets(small_config(variant), 4)
        rows = assets.class_rows
        arrays = [*assets.encoder.weights.values(), assets.hand_features,
                  assets.reference_features,
                  *(a for a in (rows.head, rows.context_pos, rows.q, rows.k, rows.v_out,
                                rows.scores) if a is not None)]
        assert len(arrays) == (13 if variant == "attention_block" else 5)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0


class TestClassCut:
    """`ModelAssets.for_classes` slices the whole set's rows; it never re-encodes."""

    def test_one_class_cut_is_a_bitwise_slice(self, monkeypatch):
        cfg = ModelConfig(encoder="attention_block", d_token=8, d_feature=16, d_image=16,
                          tokens=4, seed=0)
        assets = build_assets(cfg, 10)
        reference = assets.reference_features
        templates = np.concatenate([build_handcrafted_context(cfg, template=tpl)
                                    for tpl in range(3)])
        assert assets.for_classes(None) is assets
        # the last-bit miss below is that of the SkylakeX kernels; others can round alike
        skylake = openblas_core() == "SkylakeX"
        encodes = []
        encode = FrozenTextEncoder.encode
        monkeypatch.setattr(FrozenTextEncoder, "encode",
                            lambda self, *args: encodes.append(1) or encode(self, *args))
        for c in range(10):
            cut = assets.for_classes(np.array([c]))
            assert cut.class_count == 1 and cut.class_ids.tolist() == [c]
            assert cut.hand_features.tobytes() == assets.hand_features[[c]].tobytes()
            assert cut.reference_features.tobytes() == reference[[c]].tobytes()
            assert not encodes  # the whole set's reference is cached: the cut adds no encode
            # an encoding on the cut's own rows misses the whole set's in the last bit
            hand, _ = encode(cut.encoder, build_handcrafted_context(cfg), cut.class_rows)
            again, _ = encode(cut.encoder, templates, cut.class_rows)
            if skylake:
                assert not np.array_equal(hand[0], cut.hand_features)
                assert not np.array_equal(unit_rows(again.sum(axis=0) / 3),
                                          cut.reference_features)
            rows = cut.class_rows
            for array in (cut.class_ids, cut.hand_features, cut.reference_features,
                          rows.head, rows.q, rows.k, rows.v_out, rows.scores):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_take_cuts_every_per_class_field(self, variant):
        # every array field with a row per class is cut, and the rest is shared,
        # so that a field added later cannot be missed
        rows = build_assets(small_config(variant, n_class_tokens=2), 5).class_rows
        ids = np.array([3, 0])
        cut = rows.take(ids)
        per_class = 0
        for field in fields(rows):
            whole, taken = getattr(rows, field.name), getattr(cut, field.name)
            if isinstance(whole, np.ndarray) and whole.shape[0] == rows.class_count:
                assert taken.tobytes() == whole[ids].tobytes(), field.name
                per_class += 1
            else:
                assert taken is whole, field.name
        assert cut.class_count == 2
        assert per_class == (5 if variant == "attention_block" else 1)


class TestLocalFeatures:
    def test_zero_spread_single(self, rng):
        x = rng.normal(size=8)
        out = synth_local_features(x, rng.normal(size=(1, 8)), spread=0.0)
        np.testing.assert_allclose(out[0], x / np.linalg.norm(x), atol=1e-15)

    def test_rows_unit_norm(self, rng):
        out = synth_local_features(rng.normal(size=(2, 8)), rng.normal(size=(2, 5, 8)), spread=0.3)
        assert out.shape == (2, 5, 8)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), np.ones((2, 5)), atol=1e-12)

    def test_deterministic_given_rng_state(self):
        x = np.arange(1.0, 9.0)
        a = synth_local_features(x, np.random.default_rng(5).normal(size=(4, 8)))
        b = synth_local_features(x, np.random.default_rng(5).normal(size=(4, 8)))
        np.testing.assert_array_equal(a, b)

    def test_mean_correlates_with_global(self, rng):
        x = rng.normal(size=16)
        out = synth_local_features(x, rng.normal(size=(8, 16)), spread=0.2)
        assert cosine_similarity(out.mean(axis=0), x) > 0
