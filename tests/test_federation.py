"""Sampling, aggregation, round orchestration, communication accounting."""

import numpy as np
import pytest

from conftest import random_unit_batch, small_config
from oracle import payloads_equal, regions_of
from vlm_oracle import prompt_gradients
from fedprompt.algorithms import (
    TRAINER_KINDS,
    CommunicablePayload,
    PersonalizedFedOTPTrainer,
    TrainContext,
    iterate_batches,
    make_trainer,
    sgd_momentum_step,
)
from fedprompt.data import ClientDataset, MasterDataset, RegionNoise
from fedprompt.errors import AggregationError, ConfigError
from fedprompt.evaluation import best_scores
from fedprompt.federation import (
    Client,
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
from fedprompt.vlm import FrozenTextEncoder, ModelConfig, build_assets, class_tokens
from fedprompt import rngs


def toy_master(rng, n=40, d=12, classes=4):
    return MasterDataset(features=random_unit_batch(rng, n, d),
                         labels=rng.integers(0, classes, size=n), class_count=classes)


def manual_plan(n, num_clients):
    return [np.arange(n)[i::num_clients] for i in range(num_clients)]


class TestSampling:
    def test_full_participation(self):
        out = sample_clients(FederationConfig(num_clients=7), np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.arange(7))

    def test_ten_percent_of_hundred(self):
        out = sample_clients(FederationConfig(protocol="partial"), np.random.default_rng(1))
        assert len(out) == 10
        assert len(np.unique(out)) == 10
        np.testing.assert_array_equal(out, np.sort(out))

    def test_deterministic(self):
        fed = FederationConfig(protocol="partial", num_clients=50, participation_fraction=0.3)
        a = sample_clients(fed, np.random.default_rng(9))
        b = sample_clients(fed, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_config_sample_size_is_the_sample_drawn(self):
        for clients, fraction in ((100, 0.1), (3, 0.5), (5, 0.5), (10, 0.25), (3, 0.2)):
            fed = FederationConfig(protocol="partial", num_clients=clients,
                                   participation_fraction=fraction)
            assert fed.sample_size == len(sample_clients(fed, np.random.default_rng(0)))

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
    """The closed-form cost, and the scalars each round report records."""

    def test_closed_form_promptfl_paper_dims(self):
        cfg = ModelConfig()  # 2048-scalar payload
        fed = FederationConfig(protocol="standard", num_clients=10, rounds=50)
        trainer = make_trainer("promptfl")
        chi = communication_cost_millions(trainer, cfg, fed)
        assert round(chi, 2) == 2.05
        assert chi == 2048 * 50 * 10 * 2 / 1e6

    def test_per_round_delta(self):
        # 2048 scalars x 10 clients x both directions
        fed = FederationConfig(protocol="standard", num_clients=10, rounds=1)
        chi = communication_cost_millions(make_trainer("promptfl"), ModelConfig(), fed)
        assert chi == 40960 / 1e6

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
        server = run_federation(trainer, clients, fed, assets, seed=0)
        moved = sum(r.download_scalars + r.upload_scalars for r in server.reports)
        assert moved / 1e6 == communication_cost_millions(trainer, cfg, fed)
        assert moved == trainer.payload_scalars(cfg) * 3 * 4 * 2

    def test_payload_size_constant_across_rounds(self, rng):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        master = toy_master(rng)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="standard", num_clients=2, rounds=4, batch_size=8)
        clients = build_clients(master, manual_plan(len(master), 2), trainer, cfg, seed=0)
        server = run_federation(trainer, clients, fed, assets, seed=0)
        per_round = trainer.payload_scalars(cfg) * 2
        assert [r.download_scalars for r in server.reports] == [per_round] * 4
        assert [r.upload_scalars for r in server.reports] == [per_round] * 4


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

    def test_failing_client_fails_the_round(self, rng, monkeypatch):
        # a client's exception is not a client to leave out: it propagates,
        # and the round keeps no report and leaves the broadcast as it was
        cfg, assets, trainer, fed, clients, server = self._setup(rng)
        broadcast = server.payload
        original = trainer.grad_step

        def flaky(params, batch, ctx, feats):
            if np.isin(batch.master_indices, clients[1].dataset.master_indices).any():
                raise RuntimeError("client crashed")
            return original(params, batch, ctx, feats)

        monkeypatch.setattr(trainer, "grad_step", flaky)
        with pytest.raises(RuntimeError, match="client crashed"):
            run_round(server, clients, trainer, fed, assets, seed=0)
        assert server.reports == [] and server.payload is broadcast

    def test_every_exit_closes_the_round(self, rng, monkeypatch):
        # no participant and a trained round each advance the round, record
        # its traffic and keep its report; a failing client fails its round,
        # which advances nothing and keeps no report
        cfg, assets, trainer, fed, clients, server = self._setup(rng)
        declared = trainer.payload_scalars(cfg)
        broadcast = server.payload
        empty = [Client(ClientDataset.from_master(toy_master(rng), []), c.state)
                 for c in clients]
        first = run_round(server, empty, trainer, fed, assets, seed=0)
        assert first.participating == [] and first.skipped_empty == [0, 1, 2]

        def crash(params, batch, ctx, feats):
            raise RuntimeError("client crashed")

        monkeypatch.setattr(trainer, "grad_step", crash)
        with pytest.raises(RuntimeError, match="client crashed"):
            run_round(server, clients, trainer, fed, assets, seed=0)
        assert server.reports == [first] and server.payload is broadcast
        monkeypatch.undo()
        second = run_round(server, clients, trainer, fed, assets, seed=0)
        assert server.reports == [first, second]
        assert [r.round_index for r in server.reports] == [0, 1]
        assert [r.download_scalars for r in server.reports] == [0, 3 * declared]
        assert [r.upload_scalars for r in server.reports] == [0, 3 * declared]

    def test_scheduling_independence(self):
        # a client's update reads nothing another client wrote in the round,
        # the broadcast's shared encoding included, so the training order
        # cannot change what any client returns
        cfg, assets, trainer, fed, clients_a, server = self._setup(np.random.default_rng(8))
        _, _, _, _, clients_b, _ = self._setup(np.random.default_rng(8))

        def train(clients, order):
            out = {}
            for cid in order:
                ctx = TrainContext(assets=assets, round_index=0, federation=fed,
                                   rng=rngs.derive_rng(0, rngs.CLIENT, cid, 0))
                out[cid], = trainer.local_train(server.payload,
                                                [(clients[cid].state, clients[cid].dataset, ctx)])
            return out

        in_order, shuffled = train(clients_a, [0, 1, 2]), train(clients_b, [2, 0, 1])
        assert server.payload.encoding.assets is assets  # every client took the one encoding
        for cid in range(3):
            assert payloads_equal(in_order[cid][0], shuffled[cid][0])
            assert in_order[cid][1] == shuffled[cid][1]

    def test_aggregation_permutation_invariant(self, rng):
        payloads = [CommunicablePayload({"w": rng.normal(size=5)}) for _ in range(4)]
        weights = compute_weights(np.array([1, 2, 3, 4]))
        base = fedavg_aggregate(payloads, weights)
        again = fedavg_aggregate(payloads, weights)
        assert payloads_equal(base, again)


# every trainer kind, and fedotp under personalized evaluation
LOCKSTEP_TRAINERS = [type(make_trainer(kind)) for kind in TRAINER_KINDS]
LOCKSTEP_TRAINERS.append(PersonalizedFedOTPTrainer)


class TestLockstepRound:
    """A round's clients step in lockstep, each wave's encoder work stacked;
    the round equals one of one client at a time."""

    # client row counts: none, one batch and two batches per pass of 4 rows
    ROWS = (0, 3, 7)

    def _clients(self, trainer, cfg):
        rng = np.random.default_rng(5)
        clients, start = [], 0
        for cid, n in enumerate(self.ROWS):
            features = random_unit_batch(rng, n, cfg.d_image)
            regions = regions_of(features, rng.normal(size=(n, 2, cfg.d_image)))
            dataset = ClientDataset(features=features, labels=rng.integers(0, 4, size=n),
                                    master_indices=np.arange(start, start + n), regions=regions)
            clients.append(Client(dataset, trainer.init_state(cfg, rngs.derive_rng(2, cid))))
            start += n
        return clients

    def _rounds(self, trainer_class, assets, lockstep: bool, rounds=2):
        """The broadcast after each round, the client losses and the clients,
        trained in lockstep by `run_round` or by `local_train` one client at a
        time."""
        cfg, trainer = assets.cfg, trainer_class()
        fed = FederationConfig(num_clients=len(self.ROWS), rounds=rounds, batch_size=4,
                               local_epochs=2)
        clients = self._clients(trainer, cfg)
        server = ServerState(payload=trainer.init_payload(cfg, np.random.default_rng(1)))
        broadcasts, losses = [], []
        for t in range(rounds):
            if lockstep:
                report = run_round(server, clients, trainer, fed, assets, seed=0)
                losses.append(report.client_losses)
            else:
                ids = [cid for cid, c in enumerate(clients) if len(c.dataset)]
                trained = [trainer.local_train(server.payload, [(
                    clients[cid].state, clients[cid].dataset,
                    TrainContext(assets=assets, round_index=t, federation=fed,
                                 rng=rngs.derive_rng(0, rngs.CLIENT, cid, t)))])[0]
                    for cid in ids]
                weights = compute_weights(np.array([len(clients[c].dataset) for c in ids]))
                server = ServerState(fedavg_aggregate([p for p, _ in trained], weights))
                losses.append({cid: loss for cid, (_, loss) in zip(ids, trained)})
            broadcasts.append(server.payload)
        return broadcasts, losses, clients

    @staticmethod
    def _config(encoder: str):
        # at width 256 the encoder's flat products round a row with the row
        # count on three of the four OpenBLAS cores unless they are padded,
        # and no padded one takes the small-matrix kernel of `SkylakeX`
        return small_config(encoder, prompts=2, d_token=256, d_feature=256, d_image=256,
                            local_features=2)

    @staticmethod
    def _bytes(broadcasts, losses, clients) -> tuple:
        """What a run of `_rounds` made, as bytes and exact floats: every
        broadcast, the client losses, and each client's own fields and
        momentum buffers."""
        states = [(name, a.tobytes()) for c in clients
                  for name, a in (*c.state.local_fields.items(), *c.state.velocities.items())]
        return [(name, a.tobytes()) for b in broadcasts for name, a in b.fields.items()], \
            losses, states

    @pytest.mark.parametrize("encoder", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("trainer_class", LOCKSTEP_TRAINERS,
                             ids=[c.__name__ for c in LOCKSTEP_TRAINERS])
    def test_equals_one_client_at_a_time(self, encoder, trainer_class, monkeypatch):
        cfg = self._config(encoder)
        backward_calls = []
        backward = FrozenTextEncoder.backward

        def counting_backward(self, cache, dfeatures):
            backward_calls.append(len(dfeatures))
            return backward(self, cache, dfeatures)

        monkeypatch.setattr(FrozenTextEncoder, "backward", counting_backward)
        assets = build_assets(cfg, 4)
        alone = self._rounds(trainer_class, assets, lockstep=False)
        calls_alone = len(backward_calls)
        stacked = self._rounds(trainer_class, assets, lockstep=True)
        # the two trained clients step together; only the second client's
        # second batch of each pass runs in a wave of its own
        assert len(backward_calls) - calls_alone < calls_alone
        # a stacked call's rows depend on no other row, on any BLAS kernel
        assert [loss.keys() for loss in stacked[1]] == [{1, 2}] * 2
        assert self._bytes(*stacked) == self._bytes(*alone)

    @pytest.mark.parametrize("encoder", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("trainer_class", LOCKSTEP_TRAINERS,
                             ids=[c.__name__ for c in LOCKSTEP_TRAINERS])
    def test_any_block_size_gives_the_same_bytes(self, encoder, trainer_class, monkeypatch):
        # `PAIRS_PER_BLOCK` bounds the (context, class) pairs of a chunk of
        # steps, and of a block of images or clients a predictor encodes; its
        # value sets the encoder calls and moves no bit of training or scores
        cfg = self._config(encoder)
        assets = build_assets(cfg, 4)
        assets.reference_features  # encoded once per assets, before any call is counted
        trainer = trainer_class()
        rng = np.random.default_rng(9)
        images = random_unit_batch(rng, 9, cfg.d_image)
        regions = regions_of(images, rng.normal(size=(9, 2, cfg.d_image)))
        calls = []
        encode, backward = FrozenTextEncoder.encode, FrozenTextEncoder.backward
        monkeypatch.setattr(FrozenTextEncoder, "encode", lambda self, contexts, rows:
                            calls.append("encode") or encode(self, contexts, rows))
        monkeypatch.setattr(FrozenTextEncoder, "backward", lambda self, cache, dfeatures:
                            calls.append("backward") or backward(self, cache, dfeatures))
        made = {}
        for pairs in (4, 37, 256):
            monkeypatch.setattr("fedprompt.algorithms.PAIRS_PER_BLOCK", pairs)
            calls.clear()
            broadcasts, losses, clients = self._rounds(trainer_class, assets, lockstep=True)
            counts = calls.count("encode"), calls.count("backward")
            # three rows a client; the three values encode 1, 2 and 3 held clients a block
            held = ([(c.state, 3) for c in clients]
                    if any(c.state.local_fields for c in clients) else None)
            probs = trainer.build_predictor(broadcasts[-1], assets, held).probs(images, regions)
            made[pairs] = counts, self._bytes(broadcasts, losses, clients), probs.tobytes()
        # per round, four waves of 2, 2, 1 and 1 steps: one chunk a wave at 256
        # pairs, one a step at 4, as each step holds 8 pairs or more; a chunk
        # makes one encoder call, or none where its steps read the broadcast's
        # encoding (made once a round), and one backward call per gradient
        shared = trainer.scores_with_broadcast
        gradients = 2 if trainer.kind == "prograd" else 1
        assert made[256][0] == (2 * 4, 2 * 4 * gradients)
        assert made[4][0] == (2 * (6 - shared), 2 * 6 * gradients)
        assert made[4][1:] == made[37][1:] == made[256][1:]


class TestRoundRecord:
    def _federation(self, rng, eval_every=1):
        cfg = small_config()
        assets = build_assets(cfg, 4)
        plan = manual_plan(30, 4)
        plan[1] = np.array([], dtype=int)
        trainer = make_trainer("promptfl")
        fed = FederationConfig(protocol="standard", num_clients=4, rounds=5, batch_size=8,
                               eval_every=eval_every)
        clients = build_clients(toy_master(rng, n=30), plan, trainer, cfg, seed=0)
        return cfg, assets, trainer, fed, clients

    def test_reports_with_an_empty_client(self, rng):
        cfg, assets, trainer, fed, clients = self._federation(rng)
        server = run_federation(trainer, clients, fed, assets, seed=0)
        declared = trainer.payload_scalars(cfg)
        assert len(server.reports) == fed.rounds
        for t, report in enumerate(server.reports):
            assert report.round_index == t and report.scores is None
            assert report.skipped_empty == [1] and report.failed == []
            assert report.sampled == sorted(report.participating + report.skipped_empty)
            assert sorted(report.weights) == sorted(report.client_losses) == [0, 2, 3]
            assert report.participating == [0, 2, 3]
            assert sum(report.weights.values()) == pytest.approx(1.0, abs=1e-12)
            assert report.download_scalars == report.upload_scalars == declared * 3
            assert report.train_loss == sum(report.client_losses.values()) / 3

    def test_a_failing_client_fails_the_federation(self, rng, monkeypatch):
        # the exception leaves `run_federation` at the first round it fails,
        # before any round is scored
        _, assets, trainer, fed, clients = self._federation(rng)
        original, scored = trainer.grad_step, []

        def flaky(params, batch, ctx, feats):
            if (np.isin(batch.master_indices, clients[2].dataset.master_indices).any()
                    and ctx.round_index == 1):
                raise RuntimeError("client crashed")
            return original(params, batch, ctx, feats)

        monkeypatch.setattr(trainer, "grad_step", flaky)
        with pytest.raises(RuntimeError, match="client crashed"):
            run_federation(trainer, clients, fed, assets, seed=0,
                           eval_fn=lambda server, clients: scored.append(1) or {})
        assert scored == [1]  # round 0 only

    def test_best_scores_skip_none_and_unevaluated_rounds(self, rng):
        _, assets, trainer, fed, clients = self._federation(rng, eval_every=2)
        scripted = iter([{"a": 10.0, "b": None, "c": None}, {"a": 30.0, "b": 5.0, "c": None},
                         {"a": 20.0, "b": None, "c": None}])
        server = run_federation(trainer, clients, fed, assets, seed=0,
                                eval_fn=lambda server, clients: next(scripted))
        # rounds 1 and 3 end an `eval_every` window, round 4 is the last
        assert [r.scores is not None for r in server.reports] == [False, True, False, True, True]
        assert best_scores(server.reports) == {"a": 30.0, "b": 5.0}


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
        server = run_federation(trainer, clients, fed, assets, seed=3)

        context = trainer.init_payload(cfg, rngs.derive_rng(3, rngs.PROMPT_INIT)).fields["context"]
        data = ClientDataset.from_master(master, np.arange(24))
        state = trainer.init_state(cfg, rngs.derive_rng(3, rngs.CLIENT, 0))
        for t in range(10):
            batch_rng = rngs.derive_rng(3, rngs.CLIENT, 0, t)
            for batch in iterate_batches(data, batch_rng, 8):
                grads, _ = prompt_gradients(assets.encoder, context, batch, class_tokens(cfg, 4),
                                            cfg.tau)
                context = sgd_momentum_step({"context": context}, {"context": grads},
                                            state.velocities, fed.lr, fed.momentum,
                                            t, 10)["context"]
        assert np.max(np.abs(server.payload.fields["context"] - context)) < 1e-12


class TestFedOTPTwoClients:
    def test_disjoint_clients_diverge_locally_share_globally(self, rng):
        # two clients holding disjoint label sets keep different personal
        # prompts while converging to one shared consensus prompt
        cfg = small_config("linear_pool", d_token=6, d_feature=10, d_image=10)
        assets = build_assets(cfg, 4)
        feats = random_unit_batch(rng, 24, cfg.d_image)
        labels = np.concatenate([rng.integers(0, 2, size=12), rng.integers(2, 4, size=12)])
        master = MasterDataset(features=feats, labels=labels, class_count=4)
        trainer = PersonalizedFedOTPTrainer()
        fed = FederationConfig(protocol="standard", num_clients=2, rounds=3, batch_size=6)
        clients = build_clients(master, [np.arange(12), np.arange(12, 24)], trainer, cfg, seed=1)
        mapped = master.ensure_local_maps(3, [c.dataset for c in clients],
                                          {(24, 3, 10): RegionNoise((24, 3, 10), np.arange(24))})
        for client, dataset in zip(clients, mapped):
            client.dataset = dataset
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
