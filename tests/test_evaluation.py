"""Metrics, run aggregation, and the six scenario runners."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import one_cell
from fedprompt.config import DataConfig, ExperimentConfig
from fedprompt.data import SyntheticSpec, generate_synthetic_dataset
from fedprompt.errors import DomainError, EvaluationError
from fedprompt.evaluation import (
    ScenarioSpec,
    aggregate_runs,
    build_run_state,
    harmonic_mean,
    personalized_accuracy,
    run_cell,
    superiority_indicator,
)
from fedprompt.federation import FederationConfig
from fedprompt.vlm import ModelConfig
from fedprompt import rngs


def desk_config(**fed_overrides) -> ExperimentConfig:
    fed = dict(protocol="standard", num_clients=4, rounds=3, batch_size=8)
    fed.update(fed_overrides)
    return ExperimentConfig(
        model=ModelConfig(prompts=1, tokens=3, d_token=8, d_feature=16, d_image=16,
                          encoder="attention_block", seed=11, token_scale=0.1),
        federation=FederationConfig(**fed),
        data=DataConfig(alpha=0.5, per_class_subsample=6),
    )


@pytest.fixture(scope="module")
def desk_master():
    spec = SyntheticSpec(classes=4, feature_dim=16, noise_sigma=0.1, samples_per_class=30)
    return generate_synthetic_dataset(spec, rngs.derive_rng(0, rngs.DATA))


class TestHarmonicMean:
    def test_reference_zero_shot_pairs(self):
        # base/novel accuracy pairs and their printed harmonic means
        pairs = [((88.2, 92.6), 90.3), ((19.6, 24.7), 21.8),
                 ((59.5, 68.1), 63.5), ((77.2, 71.0), 73.9)]
        for (a, b), printed in pairs:
            assert harmonic_mean(a, b) == pytest.approx(printed, abs=0.1)

    def test_equal_inputs(self):
        assert harmonic_mean(61.0, 61.0) == pytest.approx(61.0, abs=1e-12)

    def test_zero_input(self):
        assert harmonic_mean(0.0, 50.0) == 0.0
        assert harmonic_mean(50.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            harmonic_mean(-1.0, 5.0)

    @given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_ordering_chain(self, a, b):
        h = harmonic_mean(a, b)
        geometric = float(np.sqrt(a * b))
        arithmetic = (a + b) / 2.0
        assert h <= geometric + 1e-9 <= arithmetic + 1e-9
        if abs(a - b) > 1e-6:
            assert h < arithmetic


class TestSuperiority:
    # printed per-dataset means from the shared-model comparison
    BASELINE = [91.5, 57.6, 22.8, 79.2, 62.0, 84.0, 89.4, 70.1]
    FEDOTP = [91.8, 58.0, 21.9, 78.7, 62.8, 83.3, 89.1, 69.4]
    KGCOOP = [91.8, 58.2, 23.0, 79.4, 61.7, 83.9, 89.4, 70.4]

    def test_reference_counts(self):
        assert superiority_indicator(self.FEDOTP, self.BASELINE) == 3
        assert superiority_indicator(self.KGCOOP, self.BASELINE) == 5

    def test_dominating_method(self):
        base = np.arange(8, dtype=float)
        assert superiority_indicator(base + 1.0, base) == 8

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=6), rng.normal(size=6)
        shift = 17.3
        assert superiority_indicator(a, b) == superiority_indicator(a + shift, b + shift)

    def test_strict_comparison_ignores_ties(self):
        assert superiority_indicator([5.0, 6.0], [5.0, 5.0]) == 1

    def test_dict_rows(self):
        assert superiority_indicator({"x": 2.0, "y": 1.0}, {"x": 1.0, "y": 1.5}) == 1

    def test_column_mismatch(self):
        with pytest.raises(EvaluationError):
            superiority_indicator({"x": 1.0}, {"y": 1.0})
        with pytest.raises(EvaluationError):
            superiority_indicator([1.0, 2.0], [1.0])


class TestAggregateRuns:
    def test_single_run(self):
        assert aggregate_runs([91.5]) == (91.5, 0.0)

    def test_hand_arithmetic(self):
        mean, std = aggregate_runs([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert std == pytest.approx(0.8165, abs=1e-4)

    def test_constant_list(self):
        assert aggregate_runs([4.2, 4.2, 4.2])[1] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_runs([])


class TestGlobalAccuracy:
    def test_perfect_predictor(self):
        from fedprompt.evaluation import accuracy_percent
        assert accuracy_percent(np.arange(5), np.arange(5)) == 100.0

    def test_three_of_four(self):
        from fedprompt.evaluation import accuracy_percent
        assert accuracy_percent(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 3])) == 75.0

    def test_chance_level_for_random_predictor(self):
        rng = np.random.default_rng(0)
        C, n = 8, 20000
        predicted = rng.integers(0, C, size=n)
        target = rng.integers(0, C, size=n)
        from fedprompt.evaluation import accuracy_percent
        assert accuracy_percent(predicted, target) == pytest.approx(100.0 / C, abs=1.0)

    def test_empty_rejected(self):
        from fedprompt.evaluation import accuracy_percent
        with pytest.raises(EvaluationError):
            accuracy_percent(np.array([]), np.array([]))


class TestPersonalizedAccuracy:
    class _Fixed:
        def __init__(self, correct_fraction):
            self.f = correct_fraction

        def probs(self, feats, local_maps=None):
            n = feats.shape[0]
            out = np.zeros((n, 2))
            k = int(round(self.f * n))
            out[:k, 0] = 1.0  # predict class 0
            out[k:, 1] = 1.0
            return out

    def _test_set(self, n):
        from fedprompt.data import ClientDataset
        return ClientDataset(features=np.ones((n, 3)), labels=np.zeros(n, dtype=int),
                             master_indices=np.arange(n))

    def test_weighted_mean(self):
        # (100%, n=10) and (50%, n=30) -> 62.5
        out = personalized_accuracy([self._Fixed(1.0), self._Fixed(0.5)],
                                    [self._test_set(10), self._test_set(30)])
        assert out == pytest.approx(62.5, abs=1e-12)

    def test_equal_accuracy(self):
        out = personalized_accuracy([self._Fixed(0.8), self._Fixed(0.8)],
                                    [self._test_set(5), self._test_set(25)])
        assert out == pytest.approx(80.0, abs=1e-12)

    def test_single_client(self):
        assert personalized_accuracy([self._Fixed(1.0)], [self._test_set(4)]) == 100.0

    def test_empty_clients_excluded(self):
        out = personalized_accuracy([self._Fixed(1.0), self._Fixed(0.0)],
                                    [self._test_set(10), self._test_set(0)])
        assert out == 100.0

    def test_all_empty_rejected(self):
        with pytest.raises(EvaluationError):
            personalized_accuracy([self._Fixed(1.0)], [self._test_set(0)])


class TestScenarios:
    def test_global_cell_emits_accuracy_and_cost(self, desk_master):
        config = desk_config()
        spec = ScenarioSpec(kind="global")
        result = one_cell(config, spec, "promptfl", desk_master, 0)
        metrics = {o.metric for o in result.observations}
        assert metrics == {"alpha_g", "chi_millions"}
        assert len(result.curves) == config.federation.rounds

    def test_global_cell_deterministic(self, desk_master):
        # also on one shared state: a cell leaves nothing in it that changes the next
        state = build_run_state(desk_config(), {"synthetic": desk_master})
        a = run_cell(state, "global", "promptfl", "synthetic", 0)
        b = run_cell(state, "global", "promptfl", "synthetic", 0)
        assert [(o.metric, o.value) for o in a.observations] == \
               [(o.metric, o.value) for o in b.observations]

    def test_best_at_least_final(self, desk_master):
        config = desk_config()
        result = one_cell(config, ScenarioSpec(kind="global"), "promptfl", desk_master, 1)
        best = next(o.value for o in result.observations if o.metric == "alpha_g")
        finals = [r["test_accuracy"] for r in result.curves if r["test_accuracy"] is not None]
        assert best >= finals[-1]

    def test_zero_shot_method(self, desk_master):
        result = one_cell(desk_config(), ScenarioSpec(kind="global"), "zsclip", desk_master, 0)
        by_metric = {o.metric: o.value for o in result.observations}
        assert by_metric["chi_millions"] == 0.0
        assert 0.0 <= by_metric["alpha_g"] <= 100.0

    def test_personalized_cell(self, desk_master):
        config = desk_config(protocol="personalized")
        result = one_cell(config, ScenarioSpec(kind="personalized"), "promptfl", desk_master, 0)
        metrics = {o.metric for o in result.observations}
        assert metrics == {"alpha_p"}

    def test_base_novel_protocol_integrity(self, desk_master):
        config = desk_config()
        result = one_cell(config, ScenarioSpec(kind="base_novel"), "promptfl", desk_master, 0)
        by_metric = {o.metric: o.value for o in result.observations}
        assert set(by_metric) == {"alpha_b", "alpha_n", "alpha_h"}
        # emitted harmonic mean recomputes exactly from the emitted pair
        assert by_metric["alpha_h"] == harmonic_mean(by_metric["alpha_b"], by_metric["alpha_n"])
        # no training batch touched a novel-class sample
        novel = result.extras["novel_ids"]
        for batch in result.extras["audit"]:
            assert not np.isin(desk_master.labels[batch], novel).any()
        assert len(result.extras["audit"]) > 0

    def test_base_novel_split_aligned_across_methods(self, desk_master):
        config = desk_config()
        spec = ScenarioSpec(kind="base_novel")
        a = one_cell(config, spec, "promptfl", desk_master, 3)
        b = one_cell(config, spec, "kgcoop", desk_master, 3)
        np.testing.assert_array_equal(a.extras["base_ids"], b.extras["base_ids"])

    def test_fewshot_cell_counts(self, desk_master):
        config = desk_config()
        spec = ScenarioSpec(kind="fewshot", shots=1)
        result = one_cell(config, spec, "promptfl", desk_master, 0)
        assert {o.metric for o in result.observations} == {"alpha_fs_1"}

    def test_cross_domain_cell(self, desk_master):
        config = desk_config()
        spec = ScenarioSpec(kind="cross_domain", cross_targets=2)
        result = one_cell(config, spec, "promptfl", desk_master, 0)
        datasets = {o.dataset for o in result.observations}
        assert datasets == {"synthetic->shift1", "synthetic->shift2"}

    def test_only_transport_cells_get_local_maps(self, desk_master, monkeypatch):
        from fedprompt import evaluation

        seen = []
        federate, evaluate = evaluation.run_federation, evaluation.evaluate_predictor

        def recording_federation(trainer, clients, *args, **kwargs):
            seen.extend((len(c.dataset), c.dataset.local_maps) for c in clients)
            seen.extend((len(c.test_set), c.test_set.local_maps) for c in clients
                        if c.test_set is not None)
            return federate(trainer, clients, *args, **kwargs)

        def recording_evaluate(predictor, features, labels, class_ids=None, local_maps=None,
                               sizes=None):
            seen.append((len(labels), local_maps))
            return evaluate(predictor, features, labels, class_ids, local_maps, sizes)

        monkeypatch.setattr(evaluation, "run_federation", recording_federation)
        monkeypatch.setattr(evaluation, "evaluate_predictor", recording_evaluate)
        config = desk_config(rounds=1)
        M, d = config.model.local_features, desk_master.feature_dim
        for kind in ("personalized", "cross_domain"):
            spec = ScenarioSpec(kind=kind, cross_targets=2)
            for method in ("fedotp", "promptfl", "plot", "promptfl"):
                seen.clear()
                one_cell(config, spec, method, desk_master, 0)
                assert seen
                for n, maps in seen:
                    if method == "promptfl":
                        assert maps is None
                    else:
                        assert maps is not None and maps.shape == (n, M, d)

    def test_personalized_transport_cell_maps_only_scored_rows(self, desk_master, monkeypatch):
        # the per-client test sets are scored, not the scenario's test slice
        from fedprompt import evaluation
        from fedprompt.data import MasterDataset

        requested, held = [], []
        ensure = MasterDataset.ensure_local_maps
        federate = evaluation.run_federation

        def recording_maps(self, M, rows, *args):
            requested.append(sorted(np.concatenate(rows).tolist()))
            return ensure(self, M, rows, *args)

        def recording_federation(trainer, clients, *args, **kwargs):
            held.extend(c.dataset.master_indices for c in clients)
            held.extend(c.test_set.master_indices for c in clients)
            return federate(trainer, clients, *args, **kwargs)

        monkeypatch.setattr(MasterDataset, "ensure_local_maps", recording_maps)
        monkeypatch.setattr(evaluation, "run_federation", recording_federation)
        one_cell(desk_config(protocol="personalized", rounds=1), ScenarioSpec(kind="personalized"),
                 "fedotp", desk_master, 0)
        assert requested == [sorted(np.concatenate(held).tolist())]

    def test_personalized_transport_scored_in_one_stack(self, desk_master, monkeypatch):
        # one Sinkhorn solve scores every held client of a round, and the
        # accuracy is bitwise the client-by-client one
        from fedprompt import algorithms, evaluation
        from oracle import personalized_transport_accuracy

        solves, rounds = [], []
        solve, score = algorithms.sinkhorn_batched, evaluation.personalized_accuracy

        def counting_solve(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        def recording_score(predictors, test_sets, class_ids=None):
            rounds.append(len([t for t in test_sets if len(t) > 0]))
            before = len(solves)
            value = score(predictors, test_sets, class_ids)
            assert len(solves) - before == 1
            assert value == personalized_transport_accuracy(predictors, test_sets)
            return value

        monkeypatch.setattr(algorithms, "sinkhorn_batched", counting_solve)
        monkeypatch.setattr(evaluation, "personalized_accuracy", recording_score)
        config = desk_config(protocol="personalized", rounds=2)
        result = one_cell(config, ScenarioSpec(kind="personalized"), "fedotp", desk_master, 0)
        assert len(rounds) == config.federation.rounds
        assert min(rounds) >= 3  # several clients hold test data in every round
        assert [o.metric for o in result.observations] == ["alpha_p"]

    @pytest.mark.parametrize("method", ["promptfl", "plot"])
    def test_personalized_broadcast_scored_in_one_call(self, desk_master, monkeypatch, method):
        # every client scores with the broadcast payload: one predictor, one
        # probs call per evaluated round over every held test set, and the
        # accuracy is bitwise the client-by-client one
        from fedprompt import algorithms, evaluation
        from oracle import shared_predictor_accuracy

        calls, rounds = [], []
        predictor_class = algorithms.TransportPredictor if method == "plot" \
            else algorithms.CosinePredictor
        probs, score = predictor_class.probs, evaluation.personalized_accuracy

        def counting_probs(self, *args, **kwargs):
            calls.append(len(args[0]))
            return probs(self, *args, **kwargs)

        def recording_score(predictors, test_sets, class_ids=None):
            held = [t for t in test_sets if len(t) > 0]
            rounds.append(len(held))
            before = len(calls)
            value = score(predictors, test_sets, class_ids)
            assert calls[before:] == [sum(len(t) for t in held)]
            assert value == shared_predictor_accuracy(predictors, test_sets)
            return value

        monkeypatch.setattr(predictor_class, "probs", counting_probs)
        monkeypatch.setattr(evaluation, "personalized_accuracy", recording_score)
        config = desk_config(protocol="personalized", rounds=2)
        result = one_cell(config, ScenarioSpec(kind="personalized"), method, desk_master, 0)
        assert len(rounds) == config.federation.rounds
        assert min(rounds) >= 3  # several clients hold test data in every round
        assert [o.metric for o in result.observations] == ["alpha_p"]

    def test_shifted_targets_built_once_per_master(self, desk_master, monkeypatch):
        # by the run state, before any cell; every cross-domain cell reads them
        from fedprompt import evaluation

        calls = []
        shift = evaluation.apply_domain_shift
        monkeypatch.setattr(evaluation, "apply_domain_shift",
                            lambda *args: calls.append(args) or shift(*args))
        config = replace(desk_config(rounds=1), scenarios=["global", "cross_domain"],
                         methods=["zsclip", "promptfl"],
                         scenario=ScenarioSpec(cross_targets=3))
        other = replace(desk_master)
        state = build_run_state(config, {"synthetic": desk_master, "other": other})
        assert [id(args[0]) for args in calls] == [id(desk_master)] * 3 + [id(other)] * 3
        assert list(state.shifted["synthetic"]) == ["shift1", "shift2", "shift3"]
        for method in config.methods:
            run_cell(state, "cross_domain", method, "synthetic", 0)
        assert len(calls) == 6
        with pytest.raises(ValueError, match="read-only"):
            state.shifted["other"]["shift1"].features[0, 0] = 1.0

    def test_cost_tradeoff_sweep_shape(self, desk_master):
        from fedprompt.algorithms import make_trainer
        from fedprompt.federation import communication_cost_millions

        config = desk_config(rounds=2)
        spec = ScenarioSpec(kind="cost_tradeoff", prompt_sweep=(1, 2), token_sweep=(3,))
        result = one_cell(config, spec, "promptfl", desk_master, 0)
        datasets = {o.dataset for o in result.observations}
        assert datasets == {"synthetic|prompts=1", "synthetic|prompts=2", "synthetic|tokens=3"}
        chi = {o.dataset: o.value for o in result.observations if o.metric == "chi_millions"}
        # the sweep quotes the method's arithmetic cost exactly
        for prompts in (1, 2):
            expected = communication_cost_millions(
                make_trainer("promptfl"), replace(config.model, prompts=prompts), config.federation)
            assert chi[f"synthetic|prompts={prompts}"] == expected
        assert chi["synthetic|prompts=2"] == pytest.approx(2 * chi["synthetic|prompts=1"], rel=1e-12)

    def test_transport_method_cell(self, desk_master):
        config = desk_config(rounds=2)
        result = one_cell(config, ScenarioSpec(kind="global"), "plot", desk_master, 0)
        assert any(o.metric == "alpha_g" for o in result.observations)

    def test_fewshot_accuracy_nondecreasing_in_shots(self):
        # mean accuracy over seeds trends upward with the shot count,
        # within a one-point noise margin
        master = generate_synthetic_dataset(
            SyntheticSpec(classes=6, feature_dim=32, noise_sigma=0.15, samples_per_class=100),
            rngs.derive_rng(2, rngs.DATA))
        config = ExperimentConfig(
            model=ModelConfig(prompts=1, tokens=4, d_token=16, d_feature=32, d_image=32,
                              encoder="attention_block", token_scale=0.05),
            federation=FederationConfig(protocol="standard", num_clients=2, rounds=8),
            data=DataConfig(alpha=0.5))
        means = []
        for shots in (1, 4, 16):
            spec = ScenarioSpec(kind="fewshot", shots=shots)
            accs = [
                next(o.value for o in one_cell(config, spec, "promptfl", master, seed).observations)
                for seed in (0, 1, 2)
            ]
            means.append(float(np.mean(accs)))
        assert all(b >= a - 1.0 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]
