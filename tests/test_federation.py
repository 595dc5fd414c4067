"""Sampling, aggregation, round orchestration, ledger arithmetic."""

import numpy as np
import pytest

from conftest import random_unit_batch, small_config
from vlm_oracle import prompt_gradients
from fedprompt.algorithms import (
    CommunicablePayload,
    iterate_batches,
    make_trainer,
    sgd_momentum_step,
)
from fedprompt.data import ClientDataset, MasterDataset
from fedprompt.errors import AggregationError, ConfigError
from fedprompt.federation import (
    CostLedger,
    FederationConfig,
    ServerState,
    build_clients,
    communication_cost_millions,
    compute_weights,
    fedavg_aggregate,
    run_federation,
    run_round,
    sample_clients,
)
from fedprompt.vlm import ModelConfig, build_assets, PromptContext
from fedprompt import rngs


def toy_master(rng, n=40, d=12, classes=4):
    return MasterDataset(features=random_unit_batch(rng, n, d),
                         labels=rng.integers(0, classes, size=n), class_count=classes)


def manual_plan(n, num_clients):
    return [np.arange(n)[i::num_clients] for i in range(num_clients)]


class TestSampling:
    def test_full_participation(self):
        out = sample_clients(7, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.arange(7))

    def test_ten_percent_of_hundred(self):
        out = sample_clients(100, 0.1, np.random.default_rng(1))
        assert len(out) == 10
        assert len(np.unique(out)) == 10
        np.testing.assert_array_equal(out, np.sort(out))

    def test_deterministic(self):
        a = sample_clients(50, 0.3, np.random.default_rng(9))
        b = sample_clients(50, 0.3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            sample_clients(100, 0.001, np.random.default_rng(0))

    def test_config_sample_size_is_the_sample_drawn(self):
        for clients, fraction in ((100, 0.1), (3, 0.5), (5, 0.5), (10, 0.25), (3, 0.2)):
            fed = FederationConfig(protocol="partial", num_clients=clients,
                                   participation_fraction=fraction)
            assert fed.sample_size == len(sample_clients(clients, fraction, np.random.default_rng(0)))

    def test_config_selecting_no_client_rejected(self):
        with pytest.raises(ConfigError, match="participation_fraction"):
            FederationConfig(protocol="partial", num_clients=3, participation_fraction=0.1)


class TestWeights:
    def test_equal_sizes_uniform(self):
        np.testing.assert_allclose(compute_weights(np.array([5, 5, 5, 5])), np.full(4, 0.25))

    def test_proportional(self):
        np.testing.assert_allclose(compute_weights(np.array([10, 30])), [0.25, 0.75])

    def test_one_empty_client(self):
        np.testing.assert_allclose(compute_weights(np.array([0, 7])), [0.0, 1.0])

    def test_all_empty_rejected(self):
        with pytest.raises(AggregationError):
            compute_weights(np.array([0, 0]))


class TestAggregate:
    def test_identity_single(self, rng):
        p = CommunicablePayload({"w": rng.normal(size=4)})
        out = fedavg_aggregate([p], np.array([1.0]))
        np.testing.assert_allclose(out.fields["w"], p.fields["w"], atol=1e-15)

    def test_weighted_mean_by_hand(self):
        a = CommunicablePayload({"w": np.array([1.0])})
        b = CommunicablePayload({"w": np.array([3.0])})
        out = fedavg_aggregate([a, b], np.array([0.25, 0.75]))
        np.testing.assert_array_equal(out.fields["w"], [2.5])

    def test_convexity_fixed_point(self, rng):
        p = CommunicablePayload({"w": rng.normal(size=6)})
        out = fedavg_aggregate([p, p, p], np.full(3, 1.0 / 3))
        np.testing.assert_allclose(out.fields["w"], p.fields["w"], atol=1e-15)

    def test_weight_sum_violation(self, rng):
        p = CommunicablePayload({"w": rng.normal(size=2)})
        with pytest.raises(AggregationError):
            fedavg_aggregate([p, p], np.array([0.6, 0.5]))

    def test_shape_mismatch(self, rng):
        a = CommunicablePayload({"w": rng.normal(size=2)})
        b = CommunicablePayload({"w": rng.normal(size=3)})
        with pytest.raises(AggregationError):
            fedavg_aggregate([a, b], np.array([0.5, 0.5]))


class TestLedger:
    def test_closed_form_promptfl_paper_dims(self):
        cfg = ModelConfig()  # 2048-scalar payload
        fed = FederationConfig(protocol="standard", num_clients=10, rounds=50)
        trainer = make_trainer("promptfl")
        chi = communication_cost_millions(trainer, cfg, fed)
        assert round(chi, 2) == 2.05
        assert CostLedger.closed_form(2048, 50, 10) == 2048 * 50 * 10 * 2

    def test_per_round_delta(self):
        # 2048 scalars x 10 clients x both directions
        assert CostLedger.closed_form(2048, 1, 10) == 40960

    def test_prompt_sweep_cost_column(self):
        fed = FederationConfig(protocol="standard", num_clients=10, rounds=50)
        trainer = make_trainer("promptfl")
        sweep = [round(communication_cost_millions(trainer, ModelConfig(prompts=m), fed), 2)
                 for m in (1, 2, 4)]
        assert sweep == [2.05, 4.10, 8.19]

    def test_live_ledger_matches_closed_form(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        master = toy_master(rng)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="standard", num_clients=4, rounds=3, batch_size=8)
        clients = build_clients(master, manual_plan(len(master), 4), trainer, cfg, seed=0)
        out = run_federation(trainer, clients, fed, assets, seed=0)
        expected = CostLedger.closed_form(trainer.payload_scalars(cfg), 3, 4)
        assert out.server.ledger.chi == expected

    def test_payload_size_constant_across_rounds(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        master = toy_master(rng)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="standard", num_clients=2, rounds=4, batch_size=8)
        clients = build_clients(master, manual_plan(len(master), 2), trainer, cfg, seed=0)
        out = run_federation(trainer, clients, fed, assets, seed=0)
        per_round = trainer.payload_scalars(cfg) * 2
        assert out.server.ledger.downloaded == [per_round] * 4
        assert out.server.ledger.uploaded == [per_round] * 4


class TestRunRound:
    def _setup(self, rng, num_clients=3, with_empty=False):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        master = toy_master(rng, n=30)
        plan = manual_plan(30, num_clients)
        if with_empty:
            plan[1] = np.array([], dtype=int)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="standard", num_clients=num_clients, rounds=5, batch_size=8)
        clients = build_clients(master, plan, trainer, cfg, seed=0)
        server = ServerState(payload=trainer.init_payload(cfg, np.random.default_rng(1)))
        return cfg, assets, trainer, fed, clients, server

    def test_empty_client_excluded_with_renormalized_weights(self, rng):
        cfg, assets, trainer, fed, clients, server = self._setup(rng, with_empty=True)
        report = run_round(server, clients, trainer, fed, assets, seed=0)
        assert report.skipped_empty == [1]
        assert sorted(report.weights) == [0, 2]
        assert sum(report.weights.values()) == pytest.approx(1.0, abs=1e-12)
        # skipped clients exchange nothing
        assert report.download_scalars == trainer.payload_scalars(cfg) * 2

    def test_failing_client_excluded(self, rng, monkeypatch):
        cfg, assets, trainer, fed, clients, server = self._setup(rng)
        original = trainer.local_train

        def flaky(payload, state, dataset, ctx):
            if len(dataset) and dataset.master_indices[0] == clients[1].dataset.master_indices[0]:
                raise RuntimeError("client crashed")
            return original(payload, state, dataset, ctx)

        monkeypatch.setattr(trainer, "local_train", flaky)
        report = run_round(server, clients, trainer, fed, assets, seed=0)
        assert report.failed == [1]
        assert sorted(report.weights) == [0, 2]
        assert sum(report.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_scheduling_independence(self):
        cfg, assets, trainer, fed, clients_a, server_a = self._setup(np.random.default_rng(8))
        _, _, _, _, clients_b, server_b = self._setup(np.random.default_rng(8))
        run_round(server_a, clients_a, trainer, fed, assets, seed=0)
        run_round(server_b, clients_b, trainer, fed, assets, seed=0, client_order=[2, 0, 1])
        assert server_a.payload.equals(server_b.payload)

    def test_aggregation_permutation_invariant(self, rng):
        payloads = [CommunicablePayload({"w": rng.normal(size=5)}) for _ in range(4)]
        weights = compute_weights(np.array([1, 2, 3, 4]))
        base = fedavg_aggregate(payloads, weights)
        again = fedavg_aggregate(payloads, weights)
        assert base.equals(again)


class TestCentralizedEquivalence:
    def test_single_client_matches_standalone_sgd(self, rng):
        # independent oracle: plain SGD over the same data, schedule, and
        # RNG streams, with no server loop at all
        cfg = small_config("attention_block")
        assets = build_assets(cfg, 4)
        master = toy_master(rng, n=24)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="centralized", num_clients=1, rounds=10, batch_size=8)
        clients = build_clients(master, [np.arange(24)], trainer, cfg, seed=3)
        outcome = run_federation(trainer, clients, fed, assets, seed=3)

        context = trainer.init_payload(cfg, rngs.derive_rng(3, rngs.PROMPT_INIT)).fields["context"]
        data = ClientDataset.from_master(master, np.arange(24))
        state = trainer.init_state(cfg, rngs.derive_rng(3, rngs.CLIENT, 0))
        for t in range(10):
            batch_rng = rngs.derive_rng(3, rngs.CLIENT, 0, t)
            for batch in iterate_batches(data, batch_rng, 8):
                grads, _ = prompt_gradients(assets.encoder, PromptContext(context), batch,
                                            assets.vocab, cfg.tau)
                context = sgd_momentum_step({"context": context}, {"context": grads},
                                            state.velocities, fed.lr, fed.momentum,
                                            t, 10)["context"]
        assert np.max(np.abs(outcome.server.payload.fields["context"] - context)) < 1e-12


class TestFedOTPTwoClients:
    def test_disjoint_clients_diverge_locally_share_globally(self, rng):
        # two clients holding disjoint label sets keep different personal
        # prompts while converging to one shared consensus prompt
        cfg = small_config("linear_pool", d_token=6, d_feature=10, d_image=10)
        assets = build_assets(cfg, 4)
        feats = random_unit_batch(rng, 24, cfg.d_image)
        labels = np.concatenate([rng.integers(0, 2, size=12), rng.integers(2, 4, size=12)])
        master = MasterDataset(features=feats, labels=labels, class_count=4)
        trainer = make_trainer("fedotp", mode="personalized")
        fed = FederationConfig(protocol="personalized", num_clients=2, rounds=3, batch_size=6)
        clients = build_clients(master, [np.arange(12), np.arange(12, 24)], trainer, cfg, seed=1)
        maps = master.ensure_local_maps(3, [c.dataset.master_indices for c in clients], {})
        for client, client_maps in zip(clients, maps):
            client.dataset.local_maps = client_maps
        run_federation(trainer, clients, fed, assets, seed=1)
        local0 = clients[0].state.local_fields["context_local"]
        local1 = clients[1].state.local_fields["context_local"]
        assert np.any(local0 != local1)
        # after aggregation both receive the identical consensus prompt
        # (the server payload broadcast next round is shared by construction)


class TestFederationConfig:
    def test_protocol_defaults(self):
        assert FederationConfig(protocol="partial").num_clients == 100
        assert FederationConfig(protocol="partial").participation_fraction == 0.1
        assert FederationConfig(protocol="standard").num_clients == 10

    def test_centralized_needs_one_client(self):
        with pytest.raises(ConfigError):
            FederationConfig(protocol="centralized", num_clients=3)

    def test_standard_full_participation(self):
        with pytest.raises(ConfigError):
            FederationConfig(protocol="standard", participation_fraction=0.5)

    @pytest.mark.parametrize("field,value,key", [
        ("eval_every", 0, "eval_every"), ("lr", 0.0, "lr"), ("lr", -0.1, "lr"),
        ("momentum", 1.0, "momentum"), ("momentum", -0.5, "momentum"),
    ])
    def test_out_of_range_values_name_key(self, field, value, key):
        with pytest.raises(ConfigError, match=f"^{key}:"):
            FederationConfig(**{field: value})
