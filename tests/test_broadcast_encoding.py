"""The broadcast payload's encoding of its own context, and the read-only
broadcast payload.

Every client of a round starts from the same payload, so its context is
encoded once under the cell's assets and the encoding is kept on the
payload; each client's first step and the round's predictors reuse it
instead of encoding the same context again.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_unit_batch, small_config
from oracle import recorded_batches, regions_of
from test_evaluation import desk_config, desk_master  # noqa: F401 - fixture
from fedprompt import algorithms, federation
from fedprompt.algorithms import (
    CommunicablePayload,
    PersonalizedFedOTPTrainer,
    PromptFLTrainer,
    TrainContext,
    make_trainer,
)
from fedprompt.data import ClientDataset, MasterDataset
from fedprompt.errors import DomainError
from fedprompt.evaluation import build_run_state, run_cell
from fedprompt.federation import (
    FederationConfig,
    ServerState,
    build_clients,
    fedavg_aggregate,
    run_round,
)
from fedprompt.vlm import ClassRows, FrozenTextEncoder, build_assets, read_only

CLASSES = 4
SUBSET = np.array([0, 2, 3])
# (test id, trainer class): all eight trainers, and fedotp under personalized evaluation
TRAINERS = [(kind, type(make_trainer(kind))) for kind in algorithms.TRAINER_KINDS]
TRAINERS.append(("fedotp-personalized", PersonalizedFedOTPTrainer))
TRAINER_IDS = [name for name, _ in TRAINERS]


def _arrays(value):
    """Every array inside an encoding's features or cache."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, ClassRows):
        for item in vars(value).values():
            yield from _arrays(item)


def _record_encodes(monkeypatch) -> list[np.ndarray]:
    contexts = []
    encode = FrozenTextEncoder.encode

    def recording_encode(self, contexts_in, rows, out=None):
        contexts.append(np.array(contexts_in))
        return encode(self, contexts_in, rows, out)

    monkeypatch.setattr(FrozenTextEncoder, "encode", recording_encode)
    return contexts


def _client_data(cfg, class_ids, seed=3, n=12):
    rng = np.random.default_rng(seed)
    labels = rng.choice(np.arange(CLASSES) if class_ids is None else class_ids, size=n)
    features = random_unit_batch(rng, n, cfg.d_image)
    return ClientDataset(features=features, labels=labels, master_indices=np.arange(n),
                         regions=regions_of(features, rng.normal(size=(n, 3, cfg.d_image))))


def _desk_state(master, method, **fed_overrides):
    """A run state of one global cell; its assets are encoded before any recording."""
    config = replace(desk_config(**fed_overrides), methods=[method])
    return build_run_state(config, {"synthetic": master})


class TestCellEncodes:
    def test_promptfl_cell_encodes_each_broadcast_once(self, desk_master, monkeypatch):
        rounds = 3
        state = _desk_state(desk_master, "promptfl", rounds=rounds, batch_size=2)
        contexts = _record_encodes(monkeypatch)
        servers = []
        original = federation.run_round

        def recording_round(server, *args, **kwargs):
            servers.append((server, server.payload.fields["context"]))
            return original(server, *args, **kwargs)

        monkeypatch.setattr(federation, "run_round", recording_round)
        result = run_cell(state, "global", "promptfl", "synthetic", 0)
        assert len(result.curves) == rounds
        # the broadcast of every round, then the final payload the last evaluation scores
        broadcasts = [context for _, context in servers]
        broadcasts.append(servers[-1][0].payload.fields["context"])
        assert len(broadcasts) == rounds + 1
        for broadcast in broadcasts:
            assert sum(np.array_equal(c, broadcast) for c in contexts) == 1
        # the other encodes are later steps of a client, each of a context of its own
        for i, context in enumerate(contexts):
            assert not any(np.array_equal(context, other) for other in contexts[i + 1:])
        assert len(contexts) > rounds + 1

    def test_cocoop_cell_encodes_only_its_conditioned_contexts(self, desk_master, monkeypatch):
        # the encoder sees the conditioned contexts as they were made, in
        # order, stacked across a wave's clients and nothing else
        state = _desk_state(desk_master, "cocoop", rounds=2, batch_size=2)
        contexts = _record_encodes(monkeypatch)
        conditioned = []
        original = algorithms.conditioned_contexts

        def recording_contexts(*args, **kwargs):
            shifted, meta_cache = original(*args, **kwargs)
            conditioned.append(shifted)
            return shifted, meta_cache

        monkeypatch.setattr(algorithms, "conditioned_contexts", recording_contexts)
        run_cell(state, "global", "cocoop", "synthetic", 0)
        assert 0 < len(contexts) < len(conditioned)
        assert np.concatenate(contexts).tobytes() == np.concatenate(conditioned).tobytes()


class TestSharedStep:
    @pytest.mark.parametrize("encoder", ["linear_pool", "attention_block"])
    @pytest.mark.parametrize("name,trainer_class", TRAINERS, ids=TRAINER_IDS)
    @pytest.mark.parametrize("class_ids", [None, SUBSET], ids=["all", "subset"])
    def test_local_train_equals_fresh_encode(self, encoder, name, trainer_class, class_ids):
        cfg = small_config(encoder, prompts=2)
        assets = build_assets(cfg, CLASSES)
        trainer = trainer_class()
        payload = trainer.init_payload(cfg, np.random.default_rng(1))
        sharing = name not in ("cocoop", "fedotp-personalized")
        assert trainer.scores_with_broadcast == sharing
        data = _client_data(cfg, class_ids)
        trained = assets.for_classes(class_ids)
        outs = []
        for share in (True, False):
            if not share:  # every step encodes its own context
                trainer.broadcast_encoding = lambda *args: None
            state = trainer.init_state(cfg, np.random.default_rng(2))
            ctx = TrainContext(assets=trained, round_index=1,
                               federation=FederationConfig(rounds=5, batch_size=5, local_epochs=2),
                               rng=np.random.default_rng(4))
            with recorded_batches() as batches:
                (out, loss), = trainer.local_train(payload, [(state, data, ctx)])
            outs.append((out, loss, state, len(batches)))
        assert (payload.encoding.assets is trained) if sharing else (payload.encoding is None)
        (out_a, loss_a, state_a, batches_a), (out_b, loss_b, state_b, batches_b) = outs
        assert batches_a == batches_b == 6
        assert loss_a == loss_b
        assert out_a.fields.keys() == out_b.fields.keys()
        for name in out_a.fields:
            assert out_a.fields[name].tobytes() == out_b.fields[name].tobytes(), name
        for name in state_a.local_fields:
            assert state_a.local_fields[name].tobytes() == state_b.local_fields[name].tobytes()


def _batch(assets, labels):
    features = random_unit_batch(np.random.default_rng(6), len(labels), assets.cfg.d_image)
    return ClientDataset(features=features, labels=labels, master_indices=np.arange(len(labels)))


def _ctx(assets):
    return TrainContext(assets=assets, round_index=0, federation=FederationConfig(rounds=5),
                        rng=np.random.default_rng(0))


class TestBroadcastEncoding:
    @pytest.fixture(params=["linear_pool", "attention_block"])
    def encoded(self, request):
        cfg = small_config(request.param, prompts=2)
        assets = build_assets(cfg, CLASSES).for_classes(SUBSET)
        context = np.random.default_rng(5).normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        payload = read_only(CommunicablePayload({"context": context}))
        return assets, payload, PromptFLTrainer().broadcast_encoding(payload, assets)

    @pytest.mark.parametrize("variant", ["linear_pool", "attention_block"])
    def test_non_finite_context_is_rejected(self, variant):
        # the encoder checks every context it encodes, the broadcast's included
        cfg = small_config(variant, prompts=2)
        assets = build_assets(cfg, CLASSES)
        context = np.random.default_rng(5).normal(size=(2, cfg.tokens, cfg.d_token)) * 0.1
        context[1, 0, 2] = np.inf
        payload = read_only(CommunicablePayload({"context": context}))
        with pytest.raises(DomainError, match="non-finite"):
            PromptFLTrainer().broadcast_encoding(payload, assets)
        assert payload.encoding is None

    def test_features_and_cache_are_read_only(self, encoded):
        _, _, shared = encoded
        arrays = list(_arrays((shared.features, shared.cache, shared.context)))
        assert len(arrays) >= 5
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared.features[0, 0, 0] = 0.0

    def test_equals_a_fresh_encode(self, encoded):
        assets, payload, shared = encoded
        features, _ = assets.text_features(payload.fields["context"])
        assert shared.features.tobytes() == features.tobytes()

    def test_backward_leaves_it_unchanged(self, encoded):
        assets, payload, shared = encoded
        context = payload.fields["context"]
        before = [a.copy() for a in _arrays((shared.features, shared.cache))]
        batch = _batch(assets, SUBSET[[0, 1, 2, 1, 0]])
        ctx = _ctx(assets)
        (loss, grads), = PromptFLTrainer().batch_gradients(
            [({"context": context.copy()}, batch, ctx, shared)])
        (fresh_loss, fresh_grads), = PromptFLTrainer().batch_gradients(
            [({"context": context}, batch, ctx, None)])
        assert loss == fresh_loss
        assert grads["context"].tobytes() == fresh_grads["context"].tobytes()
        after = list(_arrays((shared.features, shared.cache)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_mismatched_context_raises(self, encoded):
        assets, payload, shared = encoded
        other = payload.fields["context"].copy()
        other[0, 0, 0] += 1e-12
        with pytest.raises(ValueError, match="different context"):
            shared.take(other)
        with pytest.raises(ValueError, match="different context"):
            list(PromptFLTrainer().batch_gradients(
                [({"context": other}, _batch(assets, SUBSET[:2]), _ctx(assets), shared)]))

    def test_each_class_set_has_its_own_encoding(self, encoded):
        assets, payload, shared = encoded
        for ids in (None, SUBSET[:2], np.array([0, 1, 3])):
            cut = assets.whole.for_classes(ids)
            other = PromptFLTrainer().broadcast_encoding(payload, cut)
            assert other is not shared and payload.encoding is other
            features, _ = cut.text_features(payload.fields["context"])
            assert other.features.tobytes() == features.tobytes()

    def test_writing_into_the_encoded_context_raises(self, encoded):
        _, payload, shared = encoded
        # a read-only copy of the broadcast's context, which is read-only too
        assert not np.shares_memory(shared.context, payload.fields["context"])
        features, cache = shared.take(payload.fields["context"])
        assert features is shared.features and cache is shared.cache
        for context in (shared.context, payload.fields["context"]):
            with pytest.raises(ValueError, match="read-only"):
                context[0, 0, 0] += 1.0


class TestServerEncoding:
    """The encoding of the server's broadcast lives on the payload itself."""

    def test_built_once_per_payload_and_class_set(self, monkeypatch):
        cfg = small_config()
        assets = build_assets(cfg, CLASSES)
        subset_assets = assets.for_classes(SUBSET)
        trainer = make_trainer("promptfl")
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        contexts = _record_encodes(monkeypatch)
        first = trainer.broadcast_encoding(payload, assets)
        assert trainer.broadcast_encoding(payload, assets) is first
        subset = trainer.broadcast_encoding(payload, subset_assets)
        assert subset is not first
        assert trainer.broadcast_encoding(payload, subset_assets) is subset
        assert len(contexts) == 2
        assert trainer.build_predictor(payload, subset_assets, None).features is subset.features
        assert len(contexts) == 2
        # the payload keeps one encoding, so the whole set's is made again
        full = trainer.broadcast_encoding(payload, assets)
        assert full is not first and len(contexts) == 3
        assert full.features.tobytes() == first.features.tobytes()
        # a new broadcast is a new payload, with an encoding of its own
        other = trainer.init_payload(cfg, np.random.default_rng(1))
        again = trainer.broadcast_encoding(other, assets)
        assert again is not full
        assert not np.array_equal(again.features, full.features)
        assert trainer.broadcast_encoding(payload, assets) is full

    def test_other_assets_encode_again(self):
        cfg = small_config()
        trainer = make_trainer("promptfl")
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        assets, other = build_assets(cfg, CLASSES), build_assets(cfg, CLASSES)
        first = trainer.broadcast_encoding(payload, assets)
        again = trainer.broadcast_encoding(payload, other)
        assert again is not first
        assert first.assets is assets and again.assets is other

    @pytest.mark.parametrize("trainer_class", [type(make_trainer("cocoop")),
                                               PersonalizedFedOTPTrainer])
    def test_trainers_that_encode_their_own_inputs_share_none(self, trainer_class):
        cfg = small_config()
        trainer = trainer_class()
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        assert trainer.broadcast_encoding(payload, build_assets(cfg, CLASSES)) is None
        assert payload.encoding is None

    def test_new_payloads_start_with_none(self):
        cfg = small_config()
        assets = build_assets(cfg, CLASSES)
        for name, trainer_class in TRAINERS:
            assert trainer_class().init_payload(cfg, np.random.default_rng(0)).encoding is None, name
        trainer = PromptFLTrainer()
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        ctx = TrainContext(assets=assets, round_index=0, federation=FederationConfig(rounds=5),
                           rng=np.random.default_rng(4))
        (out, _), = trainer.local_train(
            payload, [(trainer.init_state(cfg, None), _client_data(cfg, None), ctx)])
        assert payload.encoding.assets is assets
        assert out.encoding is None
        assert fedavg_aggregate([payload, out], np.array([0.5, 0.5])).encoding is None

    def test_first_step_checks_the_encoded_context(self):
        cfg = small_config()
        assets = build_assets(cfg, CLASSES)
        trainer = PromptFLTrainer()
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        other = trainer.init_payload(cfg, np.random.default_rng(1))
        payload.encoding = trainer.broadcast_encoding(other, assets)
        ctx = TrainContext(assets=assets, round_index=0, federation=FederationConfig(rounds=5),
                           rng=np.random.default_rng(4))
        with pytest.raises(ValueError, match="different context"):
            trainer.local_train(
                payload, [(trainer.init_state(cfg, None), _client_data(cfg, None), ctx)])

    def test_encodings_leave_equality_and_size_alone(self):
        cfg = small_config()
        trainer = PromptFLTrainer()
        payload = trainer.init_payload(cfg, np.random.default_rng(0))
        bare = CommunicablePayload(payload.fields)
        size = payload.scalar_count
        trainer.broadcast_encoding(payload, build_assets(cfg, CLASSES))
        assert payload.encoding is not None and bare.encoding is None
        assert payload == bare
        assert payload.scalar_count == bare.scalar_count == size
        assert "encoding" not in repr(payload)


class TestReadOnlyBroadcast:
    @pytest.mark.parametrize("name,trainer_class", TRAINERS, ids=TRAINER_IDS)
    def test_init_payload_is_read_only(self, name, trainer_class):
        payload = trainer_class().init_payload(small_config(), np.random.default_rng(0))
        assert all(not a.flags.writeable for a in payload.fields.values())

    def test_aggregate_is_read_only(self):
        rng = np.random.default_rng(0)
        payloads = [CommunicablePayload({"w": rng.normal(size=3)}) for _ in range(2)]
        out = fedavg_aggregate(payloads, np.array([0.25, 0.75]))
        assert not out.fields["w"].flags.writeable

    def test_client_writing_into_the_broadcast_fails(self):
        class Scribbler(PromptFLTrainer):
            def local_train(self, payload, clients):
                payload.fields["context"][0, 0, 0] = 0.0
                return super().local_train(payload, clients)

        cfg = small_config()
        assets = build_assets(cfg, CLASSES)
        data = _client_data(cfg, None, n=12)
        master = MasterDataset(features=data.features, labels=data.labels, class_count=CLASSES)
        trainer = Scribbler()
        clients = build_clients(master, [np.arange(6), np.arange(6, 12)], trainer, cfg, seed=0)
        server = ServerState(trainer.init_payload(cfg, np.random.default_rng(1)))
        before = server.payload.fields["context"].copy()
        fed = FederationConfig(protocol="standard", num_clients=2, rounds=2, batch_size=4)
        # a program defect, not a client to leave out: the round fails
        with pytest.raises(ValueError, match="read-only"):
            run_round(server, clients, trainer, fed, assets, seed=0)
        assert np.array_equal(server.payload.fields["context"], before)
        assert server.reports == []
