"""Metrics, run aggregation, and the six scenario runners."""

import gc
import inspect
import tracemalloc
import weakref
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import audited_cell, one_cell, regions_of, save_feature_table, uncut_slice
from fedprompt import evaluation
from fedprompt.algorithms import CosinePredictor, PerClientPredictor, TransportPredictor
from fedprompt.config import DataConfig, ExperimentConfig, materialize_datasets, parse_config_text
from fedprompt.data import (
    ClientDataset,
    MasterDataset,
    base_novel_split,
    generate_synthetic_dataset,
)
from fedprompt.errors import ConfigError, DataError, DomainError, EvaluationError
from fedprompt.evaluation import (
    ScenarioSpec,
    aggregate_runs,
    build_run_state,
    evaluate_predictor,
    harmonic_mean,
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
    return generate_synthetic_dataset(classes=4, width=16, noise_sigma=0.1, samples_per_class=30,
                                      rng=rngs.derive_rng(0, rngs.DATA))


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

    def test_column_mismatch(self):
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


class _Predicts:
    """A predictor whose top-1 prediction for row i is `predicted[i]`."""

    def __init__(self, predicted):
        self.predicted = np.asarray(predicted)

    def probs(self, feats, regions=None):
        return np.eye(self.predicted.max(initial=0) + 1)[self.predicted]


def _client(k: int, correct_fraction: float, n: int):
    """Client k's own transport predictor and the image features of its n
    class-0 rows, each its one region feature, on which it is right for the
    first `correct_fraction` and wrong after. Odd clients swap the two class
    features, so a block scored by a neighbour's predictor would count its
    wrong rows as right."""
    order = [k % 2, 1 - k % 2]  # class c's prompt feature is the unit vector e[order[c]]
    predictor = TransportPredictor(np.eye(2)[order][None], tau=1.0, eps=0.1, iters=10,
                                   col_relax=1.0)
    right = np.arange(n) < round(correct_fraction * n)
    return predictor, np.eye(2)[np.where(right, order[0], order[1])]


def _per_client_correct(fractions, rows, images: int | None = None) -> int:
    """`evaluate_predictor` over `images` (default: all the blocks' rows) class-0
    rows of the `PerClientPredictor` whose client k is `_client(k, fractions[k],
    rows[k])`."""
    clients = [_client(k, f, n) for k, (f, n) in enumerate(zip(fractions, rows))]
    features = np.concatenate([x for _, x in clients])
    regions = regions_of(features, np.zeros((len(features), 1, 2)))
    if images is not None:
        features = np.ones((images, 2))
    return evaluate_predictor(PerClientPredictor(lambda: (p for p, _ in clients), rows),
                              features, np.zeros(len(features), dtype=int), regions=regions)


def _emptied_plan(monkeypatch, clients):
    """Patch the scenario plan, drawn when the run state is built, so that the
    given clients hold no rows of the personalized target; return the recorded
    (predictor, scored rows) of each `evaluate_predictor` call."""
    plan, evaluate, calls = evaluation._scenario_plan, evaluation.evaluate_predictor, []

    def emptied(*args):
        scenario = plan(*args)
        target, rows = scenario.targets[0], scenario.client_rows
        target.test = target.test.take(np.repeat([k not in clients for k in range(len(rows))],
                                                 rows))
        scenario.client_rows = [0 if k in clients else n for k, n in enumerate(rows)]
        return scenario

    def recording(predictor, features, *args, **kwargs):
        calls.append((predictor, len(features)))
        return evaluate(predictor, features, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_scenario_plan", emptied)
    monkeypatch.setattr(evaluation, "evaluate_predictor", recording)
    return calls


class TestGlobalAccuracy:
    def test_perfect_predictor(self):
        labels = np.arange(5)
        assert evaluate_predictor(_Predicts(labels), np.ones((5, 3)), labels,
                                  regions=None) == 5

    def test_three_of_four(self):
        assert evaluate_predictor(_Predicts([0, 1, 2, 2]), np.ones((4, 3)), np.array([0, 1, 2, 3]),
                                  regions=None) == 3

    def test_chance_level_for_random_predictor(self):
        rng = np.random.default_rng(0)
        C, n = 8, 20000
        predicted = rng.integers(0, C, size=n)
        target = rng.integers(0, C, size=n)
        correct = evaluate_predictor(_Predicts(predicted), np.ones((n, 3)), target,
                                     regions=None)
        assert correct / n * 100.0 == pytest.approx(100.0 / C, abs=1.0)

    def test_accuracy_is_the_count_rounded_once(self, desk_master, monkeypatch):
        # k correct of n rows score k * 100.0 / n, the one rounding of the exact
        # percentage; k / n * 100.0 rounds twice and misses it for some k
        n = len(evaluation._splits(desk_master, 0)[2])
        assert [k for k in range(n + 1) if k / n * 100.0 != k * 100.0 / n]
        state = build_run_state(replace(desk_config(), methods=["zsclip", "promptfl"], seeds=[0]),
                                {"synthetic": desk_master})
        for k in range(n + 1):
            monkeypatch.setattr(evaluation, "evaluate_predictor", lambda *args, **kw: k)
            for method in ("zsclip", "promptfl"):
                (accuracy,) = [o.value for o in run_cell(state, "global", method, "synthetic",
                                                          0).observations if o.metric == "alpha_g"]
                assert accuracy == k * 100.0 / n, (method, k)

    def test_empty_rejected(self, desk_master, monkeypatch):
        # a target with no rows fails the run when its plan is drawn, as the
        # run state is built, before any cell or predictor runs
        plan, calls = evaluation._scenario_plan, []

        def emptied(*args):
            scenario = plan(*args)
            scenario.targets[0].test = scenario.targets[0].test.take(slice(0))
            return scenario

        monkeypatch.setattr(evaluation, "_scenario_plan", emptied)
        monkeypatch.setattr(evaluation, "evaluate_predictor", lambda *args, **kw: calls.append(1))
        for method in ("zsclip", "promptfl"):
            with pytest.raises(ConfigError, match=r"^data\.samples_per_class: dataset "
                               r"'synthetic' leaves no test rows to score for test_accuracy "
                               r"in the global scenario \(seed 0\)$"):
                one_cell(desk_config(), "global", method, desk_master, 0)
        assert calls == []


class TestPersonalizedAccuracy:
    # a personalized target's accuracy is the correct predictions over the
    # union of the clients' test rows: the test-size-weighted mean, exactly
    def test_weighted_mean(self):
        # (100%, n=10) and (50%, n=30) -> 62.5
        correct = _per_client_correct([1.0, 0.5], [10, 30])
        assert correct / 40 * 100.0 == 62.5

    def test_equal_accuracy(self):
        correct = _per_client_correct([0.8, 0.8], [5, 25])
        assert correct / 30 * 100.0 == 80.0

    def test_single_client(self):
        assert _per_client_correct([1.0], [4]) == 4

    def test_blocks_must_cover_the_rows(self):
        with pytest.raises(DataError, match="client blocks of 4 rows over 5 images"):
            _per_client_correct([1.0], [4], images=5)

    @pytest.mark.parametrize("method", ["fedotp", "cocoop"])
    def test_empty_clients_excluded(self, desk_master, monkeypatch, method):
        # a client without test rows adds no row; where clients score with
        # predictors of their own, it gets no predictor and no block
        calls = _emptied_plan(monkeypatch, clients={0})
        state = build_run_state(replace(desk_config(rounds=1), scenarios=["personalized"],
                                        methods=[method], seeds=[0]),
                                {"synthetic": desk_master})
        rows = state.plans["personalized", "synthetic", 0].client_rows
        assert rows[0] == 0 and min(rows[1:]) > 0
        run_cell(state, "personalized", method, "synthetic", 0)
        (predictor, scored), = calls
        assert scored == sum(rows)
        if method == "fedotp":
            assert predictor.rows == rows[1:] and len(list(predictor.predictors())) == 3
        else:
            assert not isinstance(predictor, PerClientPredictor)

    def test_all_empty_rejected(self, desk_master, monkeypatch):
        calls = _emptied_plan(monkeypatch, clients={0, 1, 2, 3})
        with pytest.raises(ConfigError, match="^data.samples_per_class: .* test_accuracy in "
                                              r"the personalized scenario \(seed 0\)$"):
            one_cell(desk_config(), "personalized", "fedotp", desk_master, 0)
        assert calls == []


class TestScenarios:
    def test_global_cell_emits_accuracy_and_cost(self, desk_master):
        config = desk_config()
        result = one_cell(config, "global", "promptfl", desk_master, 0)
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
        result = one_cell(config, "global", "promptfl", desk_master, 1)
        best = next(o.value for o in result.observations if o.metric == "alpha_g")
        finals = [r["test_accuracy"] for r in result.curves if r["test_accuracy"] is not None]
        assert best >= finals[-1]

    def test_curves_and_cost_derive_from_the_round_reports(self, desk_master, monkeypatch):
        servers, federate = [], evaluation.run_federation

        def recording_federation(*args, **kwargs):
            servers.append(federate(*args, **kwargs))
            return servers[-1]

        monkeypatch.setattr(evaluation, "run_federation", recording_federation)
        result = one_cell(desk_config(), "global", "promptfl", desk_master, 0)
        (server,) = servers
        moved = list(accumulate(r.download_scalars + r.upload_scalars for r in server.reports))
        assert [row["chi"] for row in result.curves] == moved
        assert [row["round"] for row in result.curves] == [r.round_index for r in server.reports]
        assert [row["train_loss"] for row in result.curves] == \
               [r.train_loss for r in server.reports]
        assert [row["test_accuracy"] for row in result.curves] == \
               [r.scores["test_accuracy"] for r in server.reports]
        chi = next(o.value for o in result.observations if o.metric == "chi_millions")
        assert chi == moved[-1] / 1e6

    def test_missing_score_fails_the_cell(self, desk_master, monkeypatch):
        # a target no round scored is an error, not a 0.0 in results.csv
        federate = evaluation.run_federation
        monkeypatch.setattr(evaluation, "run_federation", lambda *args, eval_fn, **kwargs:
                            federate(*args, eval_fn=lambda server, clients: {}, **kwargs))
        with pytest.raises(KeyError, match="test_accuracy"):
            one_cell(desk_config(), "global", "promptfl", desk_master, 0)

    def test_zero_shot_method(self, desk_master):
        result = one_cell(desk_config(), "global", "zsclip", desk_master, 0)
        by_metric = {o.metric: o.value for o in result.observations}
        assert by_metric["chi_millions"] == 0.0
        assert 0.0 <= by_metric["alpha_g"] <= 100.0

    def test_personalized_cell(self, desk_master):
        config = desk_config()
        result = one_cell(config, "personalized", "promptfl", desk_master, 0)
        metrics = {o.metric for o in result.observations}
        assert metrics == {"alpha_p"}

    def test_base_novel_protocol_integrity(self, desk_master):
        config = desk_config()
        result, audit = audited_cell(config, "base_novel", "promptfl", desk_master, 0)
        by_metric = {o.metric: o.value for o in result.observations}
        assert set(by_metric) == {"alpha_b", "alpha_n", "alpha_h"}
        # emitted harmonic mean recomputes exactly from the emitted pair
        assert by_metric["alpha_h"] == harmonic_mean(by_metric["alpha_b"], by_metric["alpha_n"])
        # no training batch touched a novel-class sample
        _base, novel = base_novel_split(desk_master.class_count, mode="random", seed=0)
        for batch in audit:
            assert not np.isin(desk_master.labels[batch], novel).any()
        assert len(audit) > 0

    def test_base_novel_split_aligned_across_methods(self, desk_master):
        # the same split and partition: both methods draw the same batches
        config = desk_config()
        _, a = audited_cell(config, "base_novel", "promptfl", desk_master, 3)
        _, b = audited_cell(config, "base_novel", "kgcoop", desk_master, 3)
        assert [batch.tolist() for batch in a] == [batch.tolist() for batch in b]
        base, _novel = base_novel_split(desk_master.class_count, mode="random", seed=3)
        assert set(desk_master.labels[np.concatenate(a)]) <= set(base.tolist())

    def test_novel_sample_in_a_client_pool_fails_the_cell(self, desk_master, monkeypatch):
        # force one novel-class sample into the first client's training pool
        plan, leaked = evaluation._scenario_plan, []

        def leaky_plan(*args):
            scenario = plan(*args)
            novel = np.flatnonzero(~np.isin(desk_master.labels, scenario.class_ids))
            scenario.clients[0] = np.append(scenario.clients[0], novel[0])
            leaked.append(desk_master.labels[novel[0]])
            return scenario

        monkeypatch.setattr(evaluation, "_scenario_plan", leaky_plan)
        # the first batch holding it fails the cell: its label has no position
        # among the trained classes
        with pytest.raises(DataError, match="is outside the class set") as failure:
            one_cell(desk_config(), "base_novel", "promptfl", desk_master, 0)
        assert str(failure.value).startswith(f"label {leaked[0]} is outside")

    def test_test_label_outside_the_class_set(self):
        predictor = CosinePredictor(np.eye(3)[None], tau=1.0)
        features, labels = np.eye(3), np.array([0, 1, 2])
        assert evaluate_predictor(predictor, features, labels, regions=None) == 3
        with pytest.raises(DataError, match=r"label 1 is outside the class set \[0, 2\]"):
            evaluate_predictor(predictor, features, labels, np.array([0, 2]), regions=None)

    def test_fewshot_cell_counts(self, desk_master):
        config = replace(desk_config(), scenario=ScenarioSpec(shots=1))
        result = one_cell(config, "fewshot", "promptfl", desk_master, 0)
        assert {o.metric for o in result.observations} == {"alpha_fs_1"}

    def test_cross_domain_cell(self, desk_master):
        config = replace(desk_config(), scenario=ScenarioSpec(cross_targets=2))
        result = one_cell(config, "cross_domain", "promptfl", desk_master, 0)
        datasets = {o.dataset for o in result.observations}
        assert datasets == {"synthetic->shift1", "synthetic->shift2"}

    def test_only_transport_cells_get_local_maps(self, desk_master, monkeypatch):
        from fedprompt import evaluation

        seen = []
        federate, evaluate = evaluation.run_federation, evaluation.evaluate_predictor

        def recording_federation(trainer, clients, *args, **kwargs):
            seen.extend((c.dataset.features, c.dataset.regions) for c in clients)
            return federate(trainer, clients, *args, **kwargs)

        def recording_evaluate(predictor, features, labels, class_ids=None, *, regions):
            seen.append((features, regions))
            return evaluate(predictor, features, labels, class_ids, regions=regions)

        monkeypatch.setattr(evaluation, "run_federation", recording_federation)
        monkeypatch.setattr(evaluation, "evaluate_predictor", recording_evaluate)
        config = replace(desk_config(rounds=1), scenario=ScenarioSpec(cross_targets=2))
        M, d = config.model.local_features, desk_master.feature_dim
        for kind in ("personalized", "cross_domain"):
            for method in ("fedotp", "promptfl", "plot", "promptfl"):
                seen.clear()
                one_cell(config, kind, method, desk_master, 0)
                assert seen
                for features, regions in seen:
                    if method == "promptfl":
                        assert regions is None
                    else:
                        assert regions.build(features).shape == (len(features), M, d)

    def test_personalized_transport_cell_maps_only_scored_rows(self, desk_master, monkeypatch):
        # the clients' test rows are scored, not the scenario's test slice
        from fedprompt.data import MasterDataset

        requested, plans = [], []
        ensure, plan = MasterDataset.ensure_local_maps, evaluation._scenario_plan

        def recording_maps(self, M, parts, *args):
            requested.append(sorted(np.concatenate([p.master_indices for p in parts]).tolist()))
            return ensure(self, M, parts, *args)

        monkeypatch.setattr(MasterDataset, "ensure_local_maps", recording_maps)
        monkeypatch.setattr(evaluation, "_scenario_plan",
                            lambda *args: plans.append(plan(*args)) or plans[-1])
        one_cell(desk_config(rounds=1), "personalized", "fedotp", desk_master, 0)
        scenario = plans[-1]
        held = [*scenario.clients, scenario.targets[0].test.master_indices]
        assert requested == [sorted(np.concatenate(held).tolist())]

    def test_kept_noise_rows_are_the_rows_transport_cells_read(self, desk_master, monkeypatch):
        # the run state keeps exactly the union, over its cells, of the rows
        # that transport cells ask maps for: no more, and a cell never misses one
        from fedprompt.data import MasterDataset

        read = []
        ensure = MasterDataset.ensure_local_maps

        def recording_maps(self, M, parts, *args):
            read.extend(part.master_indices for part in parts)
            return ensure(self, M, parts, *args)

        monkeypatch.setattr(MasterDataset, "ensure_local_maps", recording_maps)
        config = replace(desk_config(rounds=1), scenarios=["personalized", "cross_domain"],
                         methods=["fedotp"], seeds=[0, 1])
        state = build_run_state(config, {"synthetic": desk_master})
        for kind in config.scenarios:
            for seed in config.seeds:
                run_cell(state, kind, "fedotp", "synthetic", seed)
        n, d = len(desk_master), desk_master.feature_dim
        assert list(state.noise) == [(n, config.model.local_features, d)]
        union = np.flatnonzero(np.bincount(np.concatenate(read), minlength=n))
        np.testing.assert_array_equal(state.noise[(n, config.model.local_features, d)].rows.ids,
                                      union)
        assert len(union) < n  # the validation rows and the unsampled pool stay undrawn

    def _personalized_rounds(self, monkeypatch, on_score):
        """Record the client rows of the personalized plan, and call
        `on_score(predictor, features, labels, regions, rows)` around each
        `evaluate_predictor` call, which it returns the count of."""
        plans = []
        plan, evaluate = evaluation._scenario_plan, evaluation.evaluate_predictor

        def recording(predictor, features, labels, class_ids=None, *, regions):
            return on_score(lambda: evaluate(predictor, features, labels, class_ids,
                                             regions=regions),
                            predictor, features, labels, regions, plans[-1].client_rows)

        monkeypatch.setattr(evaluation, "_scenario_plan",
                            lambda *args: plans.append(plan(*args)) or plans[-1])
        monkeypatch.setattr(evaluation, "evaluate_predictor", recording)

    @pytest.mark.parametrize("method", ["fedotp"])
    def test_personalized_per_client_predictors(self, desk_master, monkeypatch, method):
        # each held client scores its own block of the target's rows with its
        # own fields stacked on, the transport blocks in one Sinkhorn solve per
        # evaluated round, and the count is the client-by-client one
        from fedprompt import algorithms
        from oracle import client_by_client_correct

        solves, rounds = [], []
        solve = algorithms.sinkhorn_batched

        def counting_solve(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        def on_score(evaluate, predictor, features, labels, regions, rows):
            assert isinstance(predictor, PerClientPredictor)
            assert predictor.rows == [n for n in rows if n]
            rounds.append(len(predictor.rows))
            before = len(solves)
            correct = evaluate()
            assert len(solves) - before == 1
            assert correct == client_by_client_correct(list(predictor.predictors()),
                                                       predictor.rows, features, labels, regions)
            accuracies.append(correct * 100.0 / len(labels))
            return correct

        accuracies = []
        monkeypatch.setattr(algorithms, "sinkhorn_batched", counting_solve)
        self._personalized_rounds(monkeypatch, on_score)
        config = desk_config(rounds=2)
        result = one_cell(config, "personalized", method, desk_master, 0)
        assert len(rounds) == config.federation.rounds
        assert min(rounds) >= 3  # several clients hold test data in every round
        (alpha_p,) = result.observations
        assert (alpha_p.metric, alpha_p.value) == ("alpha_p", max(accuracies))

    @pytest.mark.parametrize("method", ["promptfl", "plot", "cocoop"])
    def test_personalized_broadcast_scored_in_one_call(self, desk_master, monkeypatch, method):
        # every client scores with the broadcast payload (cocoop's conditions
        # it on each image, whoever holds the image): one predictor, one probs
        # call per evaluated round over every held row, and the count is the
        # client-by-client one
        from fedprompt import algorithms
        from oracle import client_by_client_correct

        calls, rounds = [], []
        predictor_class = {"promptfl": algorithms.CosinePredictor,
                           "plot": algorithms.TransportPredictor,
                           "cocoop": algorithms.ConditionedPredictor}[method]
        probs = predictor_class.probs

        def counting_probs(self, *args, **kwargs):
            calls.append(len(args[0]))
            return probs(self, *args, **kwargs)

        def on_score(evaluate, predictor, features, labels, regions, rows):
            assert isinstance(predictor, predictor_class)
            rounds.append(len([n for n in rows if n]))
            before = len(calls)
            correct = evaluate()
            assert calls[before:] == [sum(rows)]
            assert correct == client_by_client_correct([predictor] * len(rows), rows,
                                                       features, labels, regions)
            return correct

        monkeypatch.setattr(predictor_class, "probs", counting_probs)
        self._personalized_rounds(monkeypatch, on_score)
        config = desk_config(rounds=2)
        result = one_cell(config, "personalized", method, desk_master, 0)
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
        targets = state.plans["cross_domain", "synthetic", 0].targets
        assert [t.suffix for t in targets] == ["->shift1", "->shift2", "->shift3"]
        for method in config.methods:
            run_cell(state, "cross_domain", method, "synthetic", 0)
        assert len(calls) == 6
        with pytest.raises(ValueError, match="read-only"):
            state.plans["cross_domain", "other", 0].targets[0].test.features[0, 0] = 1.0

    @pytest.mark.parametrize("seeds, protocol", [([0], "standard"), ([0, 1], "standard"),
                                                 ([0, 1], "centralized")])
    def test_shifted_targets_hold_the_planned_test_rows(self, desk_master, monkeypatch, seeds,
                                                        protocol):
        # each shift is drawn once for exactly the union of the rows the
        # cross-domain plans score, under master ids, and no other row; each
        # seed's targets hold that seed's test rows of it
        shifted, shift = [], evaluation.apply_domain_shift
        monkeypatch.setattr(evaluation, "apply_domain_shift",
                            lambda *args: shifted.append(shift(*args)) or shifted[-1])
        fed = dict(num_clients=1) if protocol == "centralized" else {}
        config = replace(desk_config(rounds=1, protocol=protocol, **fed),
                         scenarios=["global", "cross_domain"], methods=["zsclip", "fedotp"],
                         seeds=seeds, scenario=ScenarioSpec(cross_targets=2))
        state = build_run_state(config, {"synthetic": desk_master})
        plans = [state.plans["cross_domain", "synthetic", seed] for seed in seeds]
        scored = [t.test.master_indices for plan in plans for t in plan.targets]
        union = np.flatnonzero(np.bincount(np.concatenate(scored), minlength=len(desk_master)))
        assert 0 < len(union) < len(desk_master)
        assert len(shifted) == 2
        for whole in shifted:
            np.testing.assert_array_equal(whole.master_indices, union)
        for seed, plan in zip(seeds, plans):
            test_rows = evaluation._splits(desk_master, seed)[2]
            assert [t.suffix for t in plan.targets] == ["->shift1", "->shift2"]
            for target, whole in zip(plan.targets, shifted):
                np.testing.assert_array_equal(target.test.master_indices, test_rows)
                at = np.searchsorted(whole.master_indices, test_rows)
                assert target.test.features.tobytes() == whole.features[at].tobytes()
                np.testing.assert_array_equal(target.test.labels, desk_master.labels[test_rows])

    def test_cross_domain_bytes_match_whole_master_targets(self, tmp_path, monkeypatch):
        # a run on targets that hold only the scored rows writes the bytes of
        # the same run on targets that shift every row of the master
        from oracle import shift_whole_master
        from fedprompt.config import parse_config_text
        from fedprompt.runner import run

        text = ("[experiment]\nscenarios = cross_domain\nmethods = zsclip,promptfl,fedotp\n"
                "seeds = 0,1\n[federation]\nnum_clients = 3\nrounds = 2\nbatch_size = 8\n"
                "[model]\nd_token = 8\nd_feature = 33\nd_image = 33\nlocal_features = 2\n"
                "[data]\nclasses = 3\nsamples_per_class = 20\n"
                "per_class_subsample = 6\nalpha = 0.5\n")
        config = parse_config_text(text)
        assert run(config, output_dir=str(tmp_path / "rows")).exit_code == 0
        monkeypatch.setattr(evaluation, "apply_domain_shift",
                            lambda master, shift, rows: ClientDataset.from_master(
                                shift_whole_master(master, shift), np.arange(len(master))))
        assert run(config, output_dir=str(tmp_path / "whole")).exit_code == 0
        for name in ("results.csv", "results.json", "curves.jsonl"):
            assert (tmp_path / "rows" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes(), name

    def test_cost_tradeoff_sweep_shape(self, desk_master, monkeypatch):
        from fedprompt.algorithms import make_trainer
        from fedprompt.federation import communication_cost_millions

        config = desk_config(rounds=2)
        monkeypatch.setattr(evaluation, "PROMPT_SWEEP", (1, 2))
        monkeypatch.setattr(evaluation, "TOKEN_SWEEP", (3,))
        result = one_cell(config, "cost_tradeoff", "promptfl", desk_master, 0)
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
        result = one_cell(config, "global", "plot", desk_master, 0)
        assert any(o.metric == "alpha_g" for o in result.observations)

    def test_fewshot_accuracy_nondecreasing_in_shots(self):
        # mean accuracy over seeds trends upward with the shot count,
        # within a one-point noise margin
        master = generate_synthetic_dataset(classes=6, width=32, noise_sigma=0.15,
                                            samples_per_class=100, rng=rngs.derive_rng(2, rngs.DATA))
        config = ExperimentConfig(
            model=ModelConfig(prompts=1, tokens=4, d_token=16, d_feature=32, d_image=32,
                              encoder="attention_block", token_scale=0.05),
            federation=FederationConfig(protocol="standard", num_clients=2, rounds=8),
            data=DataConfig(alpha=0.5))
        means = []
        for shots in (1, 4, 16):
            shot_config = replace(config, scenario=ScenarioSpec(shots=shots))
            accs = [
                next(o.value for o in one_cell(shot_config, "fewshot", "promptfl", master,
                                               seed).observations)
                for seed in (0, 1, 2)
            ]
            means.append(float(np.mean(accs)))
        assert all(b >= a - 1.0 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]


class TestOnePlanPerRun:
    """Each (scenario, dataset, seed) plan is drawn once, by `build_run_state`,
    and every method's cell of that triple reads it."""

    SCENARIOS = ["global", "personalized", "base_novel", "fewshot", "cross_domain",
                 "cost_tradeoff"]

    def _config(self, methods):
        return replace(desk_config(rounds=1), scenarios=self.SCENARIOS, methods=methods,
                       seeds=[0, 1], scenario=ScenarioSpec(cross_targets=2))

    def test_plans_drawn_once_per_run(self, desk_master, monkeypatch, tmp_path):
        from fedprompt.runner import run

        calls, plan = [], evaluation._scenario_plan
        monkeypatch.setattr(evaluation, "_scenario_plan",
                            lambda *args: calls.append(args) or plan(*args))
        monkeypatch.setattr(evaluation, "PROMPT_SWEEP", (1, 2))
        monkeypatch.setattr(evaluation, "TOKEN_SWEEP", (3,))
        config = self._config(["zsclip", "promptfl", "fedotp"])
        state = build_run_state(config, {"synthetic": desk_master, "other": replace(desk_master)})
        assert sorted(state.plans) == sorted((kind, name, seed) for kind in self.SCENARIOS
                                             for name in ("synthetic", "other")
                                             for seed in (0, 1))
        assert len(calls) == len(state.plans) == 24
        for kind, name, seed in state.plans:
            for method in config.methods:
                run_cell(state, kind, method, name, seed)
        assert len(calls) == 24  # no cell, sweep point or zero-shot cell draws again
        calls.clear()
        config = replace(config, data=replace(config.data, datasets=["synthetic", "synthetic#1"],
                                              classes=3, samples_per_class=12,
                                              per_class_subsample=4))
        assert run(config, output_dir=str(tmp_path)).exit_code == 0
        assert len(calls) == 24

    def test_zero_shot_rows_do_not_depend_on_the_trained_methods(self, desk_master):
        # in a run that trains, a zero-shot cell reads the trained plan, whose
        # personalized target holds the same test rows in client order
        states = {methods: build_run_state(self._config(list(methods)),
                                           {"synthetic": desk_master})
                  for methods in (("zsclip",), ("zsclip", "promptfl"))}
        alone, beside = states[("zsclip",)], states[("zsclip", "promptfl")]
        for kind in self.SCENARIOS:
            for seed in (0, 1):
                assert run_cell(alone, kind, "zsclip", "synthetic", seed).observations == \
                    run_cell(beside, kind, "zsclip", "synthetic", seed).observations, (kind, seed)
                assert alone.plans[kind, "synthetic", seed].clients is None  # no partition
        for seed in (0, 1):
            (held,) = alone.plans["personalized", "synthetic", seed].targets
            (reordered,) = beside.plans["personalized", "synthetic", seed].targets
            held, reordered = held.test.master_indices, reordered.test.master_indices
            assert sorted(held) == sorted(reordered)
            assert held.tolist() != reordered.tolist()

    def test_one_test_slice_per_dataset_and_seed(self, desk_master):
        # the global, fewshot and cost_tradeoff targets score the test rows in
        # id order, as does the personalized target of a run that trains nothing
        for methods in (["zsclip"], ["zsclip", "promptfl"]):
            state = build_run_state(self._config(methods), {"synthetic": desk_master})
            for seed in (0, 1):
                plans = {kind: state.plans[kind, "synthetic", seed] for kind in self.SCENARIOS}
                shared = plans["global"].targets[0].test
                assert plans["fewshot"].targets[0].test is shared
                assert plans["cost_tradeoff"].targets[0].test is shared
                assert (plans["personalized"].targets[0].test is shared) == (methods == ["zsclip"])

    def test_trained_personalized_plan_slices_only_client_order(self, desk_master, monkeypatch):
        sliced = []
        from_master = ClientDataset.from_master
        monkeypatch.setattr(ClientDataset, "from_master", staticmethod(
            lambda master, rows: sliced.append(rows) or from_master(master, rows)))
        state = build_run_state(replace(self._config(["promptfl"]), scenarios=["personalized"]),
                                {"synthetic": desk_master})
        assert len(sliced) == 2  # one per seed
        for rows, seed in zip(sliced, (0, 1)):
            (target,) = state.plans["personalized", "synthetic", seed].targets
            np.testing.assert_array_equal(target.test.master_indices, rows)

    def test_cell_the_state_did_not_plan(self, desk_master):
        state = build_run_state(replace(desk_config(), methods=["promptfl"], seeds=[0]),
                                {"synthetic": desk_master})
        for scenario, dataset, seed in [("global", "synthetic", 5), ("fewshot", "synthetic", 0),
                                        ("global", "other", 0)]:
            with pytest.raises(EvaluationError,
                               match=f"no plan for the cell {scenario}/promptfl/{dataset}/"
                                     f"seed {seed}$"):
                run_cell(state, scenario, "promptfl", dataset, seed)

    def test_plans_are_read_only(self, desk_master):
        state = build_run_state(replace(desk_config(), scenarios=["base_novel", "personalized"],
                                        methods=["promptfl"], seeds=[0]),
                                {"synthetic": desk_master})
        for plan in state.plans.values():
            for array in [*plan.clients, *(a for t in plan.targets
                                           for a in (t.test.features, t.test.master_indices))]:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            state.plans["base_novel", "synthetic", 0].class_ids[0] = 0


class TestStateKeepsTheClientRows:
    """`build_run_state` cuts each dataset to the union of its plans' client
    rows, the only rows of it that a cell reads once the plans are drawn."""

    SCENARIOS = TestOnePlanPerRun.SCENARIOS

    def _config(self, methods, **fed):
        return replace(desk_config(rounds=1, **fed), scenarios=self.SCENARIOS, methods=methods,
                       seeds=[0, 1], scenario=ScenarioSpec(cross_targets=2))

    def _datasets(self, desk_master):
        return {"synthetic": desk_master, "other": replace(desk_master, labels=desk_master.labels[::-1])}

    def test_kept_ids_are_the_union_of_the_plans_client_rows(self, desk_master):
        datasets = self._datasets(desk_master)
        state = build_run_state(self._config(["zsclip", "promptfl", "fedotp"]), datasets)
        for name, master in datasets.items():
            union = np.unique(np.concatenate(
                [rows for (_, plan_name, _), plan in state.plans.items() if plan_name == name
                 for rows in plan.clients]))
            cut = state.datasets[name]
            np.testing.assert_array_equal(cut.kept.ids, union)
            assert 0 < len(union) < len(master)
            assert cut.features.shape == (len(union), master.feature_dim)
            assert (len(cut), cut.feature_dim) == (len(master), master.feature_dim)

    def test_every_cells_client_rows_equal_the_uncut_slices(self, desk_master, monkeypatch):
        datasets = self._datasets(desk_master)
        built, build = [], evaluation.build_clients

        def recorded(master, indices, *args):
            built.append((master, indices, build(master, indices, *args)))
            return built[-1][2]

        monkeypatch.setattr(evaluation, "build_clients", recorded)
        monkeypatch.setattr(evaluation, "PROMPT_SWEEP", (1,))
        monkeypatch.setattr(evaluation, "TOKEN_SWEEP", (3,))
        state = build_run_state(self._config(["zsclip", "promptfl", "fedotp"]), datasets)
        for kind, name, seed in state.plans:
            for method in state.config.methods:
                run_cell(state, kind, method, name, seed)
        # two trained methods, two sweep points in a cost_tradeoff cell
        assert len(built) == 2 * 2 * 2 * (len(self.SCENARIOS) + 1)
        names = {id(cut): name for name, cut in state.datasets.items()}
        for master, indices, clients in built:
            for client, rows in zip(clients, indices, strict=True):
                want = uncut_slice(datasets[names[id(master)]], rows)
                assert client.dataset.features.tobytes() == want.features.tobytes()
                np.testing.assert_array_equal(client.dataset.labels, want.labels)
                np.testing.assert_array_equal(client.dataset.master_indices, rows)

    def test_zero_shot_run_keeps_no_feature_row(self, desk_master):
        state = build_run_state(self._config(["zsclip"]), {"synthetic": desk_master})
        cut = state.datasets["synthetic"]
        assert cut.features.shape == (0, desk_master.feature_dim)
        assert len(cut) == len(desk_master)
        for kind, name, seed in state.plans:
            run_cell(state, kind, "zsclip", name, seed)

    def test_centralized_seeds_keep_at_most_every_row(self, desk_master):
        config = replace(desk_config(protocol="centralized", num_clients=1), scenarios=["global"],
                         methods=["promptfl"], seeds=[0, 1, 2])
        state = build_run_state(config, {"synthetic": desk_master})
        pools = [state.plans["global", "synthetic", seed].clients[0] for seed in (0, 1, 2)]
        kept = state.datasets["synthetic"].kept.ids
        np.testing.assert_array_equal(kept, np.unique(np.concatenate(pools)))
        assert max(map(len, pools)) < len(kept) <= len(desk_master)


TABLE_CONFIG = """\
[experiment]
scenarios = personalized,cross_domain
methods = zsclip,promptfl,fedotp
seeds = 0
[federation]
protocol = partial
[model]
encoder = linear_pool
d_feature = 512
d_image = 512
[data]
datasets = {path}
"""


@pytest.fixture(scope="module")
def table_config(tmp_path_factory):
    """A config over a 2,000-row, 512-wide feature table whose plans train on
    160 of its rows."""
    path = tmp_path_factory.mktemp("table") / "features.txt"
    save_feature_table(generate_synthetic_dataset(classes=10, width=512, noise_sigma=0.1,
                                                  samples_per_class=200,
                                                  rng=rngs.derive_rng(0, rngs.DATA)), str(path))
    return parse_config_text(TABLE_CONFIG.format(path=path))


class TestParsedTableIsFreed:
    """The run state keeps its clients' feature rows, not the parsed table."""

    def test_table_dies_with_the_input_dict(self, table_config):
        datasets = materialize_datasets(table_config)
        (table,) = datasets.values()
        parsed = weakref.ref(table.features)
        state = build_run_state(table_config, datasets)
        del datasets, table
        gc.collect()
        assert parsed() is None
        (cut,) = state.datasets.values()
        assert (len(cut), cut.feature_dim, len(cut.kept.ids)) == (2000, 512, 160)

    def test_state_holds_under_a_mebibyte_of_feature_rows(self, table_config):
        # the traced bytes still allocated by the cut, against 7.8 MiB for the table
        lines, first = inspect.getsourcelines(MasterDataset.cut)
        cut_lines = range(first, first + len(lines))
        data_file = inspect.getsourcefile(MasterDataset)
        tracemalloc.start(4)
        try:
            datasets = materialize_datasets(table_config)
            table_bytes = next(iter(datasets.values())).features.nbytes
            state = build_run_state(table_config, datasets)
            del datasets
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(trace.size for trace in snapshot.traces
                   if any(frame.filename == data_file and frame.lineno in cut_lines
                          for frame in trace.traceback))
        (cut,) = state.datasets.values()
        assert cut.features.nbytes == 160 * 512 * 8 <= held < 1 << 20 < table_bytes
