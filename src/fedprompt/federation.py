"""Client sampling, FedAvg aggregation and the round loop.

Each round's `RoundReport` is its one record: clients sampled, skipped and
trained, their weights, the scalars moved each way and any scores. The
reported scores, the live cost and the curves derive from it. A client's
exception is not caught here: it fails the round, and so the cell.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .algorithms import ClientTrainState, CommunicablePayload, LocalTrainer, TrainContext
from .data import ClientDataset, MasterDataset
from .errors import AggregationError, ConfigError
from .vlm import ModelAssets, ModelConfig, read_only
from . import rngs

log = logging.getLogger(__name__)

PROTOCOLS = ("standard", "partial", "centralized")

# (num_clients, participation_fraction) each protocol uses unless given
PROTOCOL_DEFAULTS = {
    "standard": (10, 1.0),
    "partial": (100, 0.1),
    "centralized": (1, 1.0),
}


@dataclass
class FederationConfig:
    """The `[federation]` section: round schedule and optimizer settings; the
    single check of their values.

    An unset client count or participation takes the protocol's default.
    Errors name the config key; the config parser adds the `federation.` prefix.
    """

    protocol: str = "standard"
    num_clients: int | None = None
    participation_fraction: float | None = None
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 16
    lr: float = 0.002
    momentum: float = 0.9
    eval_every: int = 1

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            hint = ("; personalized evaluation is the scenario `experiment.scenarios = "
                    "personalized`" if self.protocol == "personalized" else "")
            raise ConfigError(f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}{hint}")
        clients, fraction = PROTOCOL_DEFAULTS[self.protocol]
        if self.num_clients is None:
            self.num_clients = clients
        if self.participation_fraction is None:
            self.participation_fraction = fraction
        if not (0.0 < self.participation_fraction <= 1.0):
            raise ConfigError(
                f"participation_fraction: must lie in (0, 1], got {self.participation_fraction}"
            )
        if self.num_clients < 1:
            raise ConfigError(f"num_clients: must be >= 1, got {self.num_clients}")
        if self.rounds < 1:
            raise ConfigError(f"rounds: must be >= 1, got {self.rounds}")
        if self.local_epochs < 0:
            raise ConfigError(f"local_epochs: must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr: must be positive, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum: must lie in [0, 1), got {self.momentum}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every: must be >= 1, got {self.eval_every}")
        if self.protocol == "centralized" and self.num_clients != 1:
            raise ConfigError("num_clients: the centralized protocol uses exactly one client")
        if self.protocol in ("standard", "centralized") and self.participation_fraction != 1.0:
            raise ConfigError(f"participation_fraction: the {self.protocol} protocol uses full participation")
        if self.sample_size < 1:
            raise ConfigError(f"participation_fraction: {self.participation_fraction} of "
                              f"{self.num_clients} clients rounds to no sampled client")

    @property
    def sample_size(self) -> int:
        """Clients sampled per round: the fraction of the clients, rounded half to even."""
        return int(round(self.participation_fraction * self.num_clients))


def communication_cost_millions(trainer: LocalTrainer, model_cfg: ModelConfig,
                                fed_cfg: FederationConfig) -> float:
    """Closed-form total communication in millions of scalars: the declared
    payload, sent to and back from every sampled client, every round."""
    return trainer.payload_scalars(model_cfg) * fed_cfg.rounds * fed_cfg.sample_size * 2 / 1e6


@dataclass
class Client:
    """A client's training data and state; its id is its position in the client list."""

    dataset: ClientDataset
    state: ClientTrainState


@dataclass
class RoundReport:
    """The record of one round. Client ids are positions in the client list;
    `scores` is what `eval_fn` returned after an evaluated round, else None.
    A client's exception fails the round, so every participant trained;
    `failed` is always empty and is kept only for the benchmark's tracer,
    which reads it."""

    round_index: int
    sampled: list[int]
    participating: list[int]
    skipped_empty: list[int]
    failed: list[int]
    client_losses: dict[int, float]
    weights: dict[int, float]
    download_scalars: int
    upload_scalars: int
    scores: dict[str, float] | None

    @property
    def train_loss(self) -> float | None:
        """The mean of the trained clients' losses; None if no client trained."""
        if not self.client_losses:
            return None
        return sum(self.client_losses.values()) / len(self.client_losses)


@dataclass
class ServerState:
    """The broadcast payload and the report of every round run so far."""

    payload: CommunicablePayload
    reports: list[RoundReport] = field(default_factory=list)


def sample_clients(fed_cfg: FederationConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement, sorted for deterministic aggregation."""
    if fed_cfg.sample_size >= fed_cfg.num_clients:
        return np.arange(fed_cfg.num_clients)
    return np.sort(rng.choice(fed_cfg.num_clients, size=fed_cfg.sample_size, replace=False))


def compute_weights(sizes: np.ndarray) -> np.ndarray:
    """Data-size-normalised aggregation weights."""
    sizes = np.asarray(sizes, dtype=np.float64)
    total = sizes.sum()
    if total <= 0:
        raise AggregationError("cannot weight an all-empty client sample")
    return sizes / total


def fedavg_aggregate(payloads: list[CommunicablePayload],
                     weights: np.ndarray) -> CommunicablePayload:
    """Elementwise weighted sum, accumulated in the given (id-ascending) order."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(payloads) == 0:
        raise AggregationError("nothing to aggregate")
    if len(payloads) != len(weights):
        raise AggregationError("payload/weight count mismatch")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise AggregationError(f"weights must be nonnegative and sum to 1, got sum {weights.sum()!r}")
    keys = list(payloads[0].fields)
    for p in payloads[1:]:
        if list(p.fields) != keys or any(
            p.fields[k].shape != payloads[0].fields[k].shape for k in keys
        ):
            raise AggregationError("payload shapes differ across clients")
    out = {k: np.zeros_like(payloads[0].fields[k]) for k in keys}
    for w, p in zip(weights, payloads):
        for k in keys:
            out[k] += w * p.fields[k]
    return read_only(CommunicablePayload(out))


def run_round(server: ServerState, clients: list[Client], trainer: LocalTrainer,
              fed_cfg: FederationConfig, assets: ModelAssets, seed: int) -> RoundReport:
    """One communication round: sample, broadcast, train, collect, aggregate.
    Clients train on the classes of `assets` (see `ModelAssets.for_classes`)."""
    t = len(server.reports)
    sampled = sample_clients(fed_cfg, rngs.derive_rng(seed, rngs.SAMPLING, t))
    participating = [int(c) for c in sampled if len(clients[c].dataset) > 0]
    skipped = [int(c) for c in sampled if len(clients[c].dataset) == 0]
    for cid in skipped:
        log.warning("round %d: client %d has no data, skipped", t, cid)
    report = RoundReport(
        round_index=t, sampled=[int(c) for c in sampled], participating=participating,
        skipped_empty=skipped, failed=[], client_losses={}, weights={},
        download_scalars=0, upload_scalars=0, scores=None,
    )
    if not participating:
        log.warning("round %d: no client holds data, round skipped", t)
    else:
        declared = trainer.payload_scalars(assets.cfg)
        report.download_scalars = report.upload_scalars = declared * len(participating)
        # the payload is read-only; a client's steps make new parameters. The
        # clients train in lockstep, stacked in ascending id order, which is
        # also the aggregation order
        trained = trainer.local_train(server.payload, [
            (clients[cid].state, clients[cid].dataset,
             TrainContext(assets=assets, round_index=t, federation=fed_cfg,
                          rng=rngs.derive_rng(seed, rngs.CLIENT, cid, t)))
            for cid in participating])
        payloads, losses = [], []
        for cid, (payload, loss) in zip(participating, trained):
            if payload.scalar_count != declared:
                raise AggregationError(
                    f"client {cid} returned {payload.scalar_count} scalars, declared {declared}"
                )
            payloads.append(payload)
            losses.append(loss)
        weights = compute_weights(np.array([len(clients[c].dataset) for c in participating]))
        server.payload = fedavg_aggregate(payloads, weights)
        report.client_losses = dict(zip(participating, losses))
        report.weights = {c: float(w) for c, w in zip(participating, weights)}
    server.reports.append(report)
    return report


def run_federation(trainer: LocalTrainer, clients: list[Client], fed_cfg: FederationConfig,
                   assets: ModelAssets, seed: int, eval_fn=None) -> ServerState:
    """The communication loop for one seed. Every `eval_every` rounds, and
    after the last, the round's report keeps what `eval_fn` scores."""
    server = ServerState(
        payload=trainer.init_payload(assets.cfg, rngs.derive_rng(seed, rngs.PROMPT_INIT))
    )
    for t in range(fed_cfg.rounds):
        report = run_round(server, clients, trainer, fed_cfg, assets, seed)
        if eval_fn is not None and ((t + 1) % fed_cfg.eval_every == 0 or t == fed_cfg.rounds - 1):
            report.scores = eval_fn(server, clients)
    return server


def build_clients(master: MasterDataset, client_indices: list[np.ndarray], trainer: LocalTrainer,
                  cfg: ModelConfig, seed: int) -> list[Client]:
    """Materialise per-client datasets and fresh training state from per-client
    master indices."""
    return [Client(ClientDataset.from_master(master, indices),
                   trainer.init_state(cfg, rngs.derive_rng(seed, rngs.CLIENT, cid)))
            for cid, indices in enumerate(client_indices)]
