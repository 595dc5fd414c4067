"""The cell pipeline and reported metrics.

Six evaluation scenarios (shared-model accuracy, personalized accuracy,
base/novel generalization, few-shot, cross-domain, cost trade-off) run
through one pipeline, `run_cell`; each scenario only declares a plan: its
client partition, trained classes, scored targets and when they are
scored. Every cell of a run reads one `RunState`, built by
`build_run_state` before the first cell. Also the run-aggregation and
baseline-superiority arithmetic used in reports.
"""

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .algorithms import (
    CosinePredictor,
    LocalTrainer,
    TransportPredictor,
    make_trainer,
    transport_probs,
)
from .data import (
    ClientDataset,
    DomainShift,
    MasterDataset,
    apply_domain_shift,
    balanced_subsample_indices,
    base_novel_split,
    dirichlet_partition,
    kshot_iid_partition,
    mirror_partition,
    stratified_split,
)
from .errors import ConfigError, DomainError, EvaluationError
from .federation import build_clients, communication_cost_millions, run_federation
from .vlm import ModelAssets, ModelConfig, build_assets
from . import rngs

if TYPE_CHECKING:
    from .config import ExperimentConfig

SCENARIO_KINDS = ("global", "personalized", "base_novel", "fewshot", "cross_domain", "cost_tradeoff")
ZERO_SHOT_METHOD = "zsclip"
TRANSPORT_METHODS = ("plot", "fedotp")


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

def accuracy_percent(predicted: np.ndarray, target: np.ndarray) -> float:
    if len(predicted) == 0:
        raise EvaluationError("accuracy of an empty prediction set")
    return float((np.asarray(predicted) == np.asarray(target)).mean() * 100.0)


def _positions(class_ids: np.ndarray | None, labels: np.ndarray) -> np.ndarray:
    if class_ids is None:
        return labels
    class_ids = np.asarray(class_ids)
    pos = np.searchsorted(class_ids, labels)
    clipped = np.minimum(pos, len(class_ids) - 1)
    if np.any(class_ids[clipped] != labels):
        raise EvaluationError("test labels outside the evaluated class set")
    return pos


def evaluate_predictor(predictor, features: np.ndarray, labels: np.ndarray,
                       class_ids: np.ndarray | None = None,
                       local_maps: np.ndarray | None = None,
                       sizes: list[int] | None = None) -> float | list[float]:
    """Top-1 accuracy (percent) of a predictor over a labeled feature set; with
    `sizes`, the accuracy of each consecutive block of that many rows."""
    predicted = predictor.probs(features, local_maps).argmax(axis=1)
    target = _positions(class_ids, labels)
    if sizes is None:
        return accuracy_percent(predicted, target)
    bounds = np.cumsum(sizes)[:-1]
    return [accuracy_percent(p, t)
            for p, t in zip(np.split(predicted, bounds), np.split(target, bounds))]


def personalized_accuracy(predictors, test_sets: list[ClientDataset],
                          class_ids: np.ndarray | None = None) -> float:
    """Client accuracies averaged with weights proportional to their test data.

    `predictors` holds one predictor per client, or is one predictor that
    every client shares. A shared predictor scores all the test sets in one
    call over their concatenation: a row's probabilities do not depend on
    the rows beside it. Transport predictors are scored together, in one
    Sinkhorn stack over every client's test set; other predictors are
    scored client by client.
    """
    shared = not isinstance(predictors, list)
    pairs = zip([predictors] * len(test_sets) if shared else predictors, test_sets)
    held = [(predictor, test) for predictor, test in pairs if test is not None and len(test) > 0]
    if not held:
        raise EvaluationError("every client test set is empty")
    tests = [test for _, test in held]
    if shared:
        maps = None if tests[0].local_maps is None else \
            np.concatenate([test.local_maps for test in tests])
        accs = evaluate_predictor(predictors, np.concatenate([test.features for test in tests]),
                                  np.concatenate([test.labels for test in tests]), class_ids,
                                  maps, sizes=[len(test) for test in tests])
    elif all(isinstance(predictor, TransportPredictor) for predictor, _ in held):
        probs = transport_probs([predictor for predictor, _ in held],
                                [test.local_maps for test in tests])
        accs = [accuracy_percent(p.argmax(axis=1), _positions(class_ids, test.labels))
                for p, test in zip(probs, tests)]
    else:
        accs = [evaluate_predictor(predictor, test.features, test.labels, class_ids,
                                   test.local_maps)
                for predictor, test in held]
    weights = np.array([len(test) for test in tests], dtype=np.float64)
    weights /= weights.sum()
    return float(np.dot(weights, accs))


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a+b); zero if either accuracy is zero."""
    if a < 0 or b < 0:
        raise DomainError("harmonic mean of negative accuracies")
    if a == 0.0 or b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def superiority_indicator(method_means, baseline_means) -> int:
    """Datasets on which the method's mean strictly beats the baseline's."""
    if isinstance(method_means, dict) or isinstance(baseline_means, dict):
        if set(method_means) != set(baseline_means):
            raise EvaluationError("method and baseline rows cover different datasets")
        keys = sorted(method_means)
        method_means = [method_means[k] for k in keys]
        baseline_means = [baseline_means[k] for k in keys]
    method_means = np.asarray(method_means, dtype=np.float64)
    baseline_means = np.asarray(baseline_means, dtype=np.float64)
    if method_means.shape != baseline_means.shape:
        raise EvaluationError("method and baseline rows have different lengths")
    return int((method_means > baseline_means).sum())


def aggregate_runs(values) -> tuple[float, float]:
    """(mean, population std) over per-seed values; a single run has std 0."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise EvaluationError("no runs to aggregate")
    return float(values.mean()), float(values.std())


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Observation:
    scenario: str
    method: str
    dataset: str
    seed: int
    metric: str
    value: float


@dataclass
class MetricTable:
    observations: list[Observation] = field(default_factory=list)

    def add(self, scenario: str, method: str, dataset: str, seed: int,
            metric: str, value: float) -> None:
        self.observations.append(Observation(scenario, method, dataset, seed, metric, float(value)))

    def values(self, scenario: str, method: str, dataset: str, metric: str) -> list[float]:
        rows = [o for o in self.observations
                if (o.scenario, o.method, o.dataset, o.metric) == (scenario, method, dataset, metric)]
        return [o.value for o in sorted(rows, key=lambda o: o.seed)]

    def cell(self, scenario: str, method: str, dataset: str, metric: str) -> tuple[float, float, int]:
        vals = self.values(scenario, method, dataset, metric)
        mean, std = aggregate_runs(vals)
        return mean, std, len(vals)

    def methods(self, scenario: str) -> list[str]:
        return sorted({o.method for o in self.observations if o.scenario == scenario})

    def datasets(self, scenario: str) -> list[str]:
        return sorted({o.dataset for o in self.observations if o.scenario == scenario})

    def metrics(self, scenario: str) -> list[str]:
        return sorted({o.metric for o in self.observations if o.scenario == scenario})

    def sorted_observations(self) -> list[Observation]:
        return sorted(self.observations)


# ---------------------------------------------------------------------------
# Scenario machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario and its options (the `[scenario]` section); the single
    check of the option values.

    Errors name the config key; the config parser adds the `scenario.` prefix.
    """

    kind: str = "global"
    shots: int = 1
    split_mode: str = "random"
    cross_targets: int = 2
    prompt_sweep: tuple = (1, 2, 4)
    token_sweep: tuple = (4, 8, 16)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; choose from {SCENARIO_KINDS}")
        if self.shots < 1:
            raise ConfigError(f"shots: must be >= 1, got {self.shots}")
        if self.split_mode not in ("random", "first_half"):
            raise ConfigError(f"split_mode: must be 'random' or 'first_half', got {self.split_mode!r}")
        if self.cross_targets < 1:
            raise ConfigError(f"cross_targets: must be >= 1, got {self.cross_targets}")


@dataclass
class CellResult:
    observations: list[Observation]
    curves: list[dict]
    extras: dict = field(default_factory=dict)


def _trainer_for(method: str, spec: ScenarioSpec) -> LocalTrainer:
    if method == "fedotp":
        return make_trainer(method, mode="personalized" if spec.kind == "personalized" else "global")
    return make_trainer(method)


def _splits(master: MasterDataset, seed: int):
    return stratified_split(master.labels, (0.7, 0.1, 0.2), rngs.derive_rng(seed, rngs.TVT))


def cross_domain_targets(master: MasterDataset, count: int) -> dict[str, MasterDataset]:
    """Deterministic family of increasingly shifted target domains."""
    return {f"shift{k}": apply_domain_shift(master, DomainShift(angle=0.3 + 0.2 * k,
                                                                noise_sigma=0.05 * k, seed=k))
            for k in range(1, count + 1)}


def _cell_models(spec: ScenarioSpec, method: str,
                 model: ModelConfig) -> list[tuple[str, ModelConfig]]:
    """(results column suffix, model config) of each model a cell trains and scores.

    A `cost_tradeoff` cell runs its prompt and token sweeps, and its
    zero-shot cell runs none: nothing is communicated, so there is no
    trade-off.
    """
    if spec.kind != "cost_tradeoff":
        return [("", model)]
    if method == ZERO_SHOT_METHOD:
        return []
    return ([(f"|prompts={v}", replace(model, prompts=v)) for v in spec.prompt_sweep]
            + [(f"|tokens={v}", replace(model, tokens=v)) for v in spec.token_sweep])


@dataclass(frozen=True)
class RunState:
    """What every cell of a run shares, read-only; built once by `build_run_state`."""

    config: "ExperimentConfig"                          # as parsed from the text the cells run
    datasets: dict[str, MasterDataset]                  # by results column name
    assets: dict[tuple[ModelConfig, int], ModelAssets]  # by (model config, class count)
    shifted: dict[str, dict[str, MasterDataset]]        # cross-domain targets by dataset name
    noise: dict = field(default_factory=dict)           # region noise, drawn at first use

    def freeze(self) -> "RunState":
        """Mark every array read-only (again, after the state was unpickled in a worker)."""
        shifted = [target for targets in self.shifted.values() for target in targets.values()]
        for frozen in [*self.datasets.values(), *shifted, *self.assets.values()]:
            frozen.freeze()
        return self


def build_run_state(config: "ExperimentConfig",
                    datasets: dict[str, MasterDataset]) -> RunState:
    """The run's frozen datasets, the assets of every (model config, class count)
    its cells use and, for a cross-domain run, each dataset's shifted targets."""
    keys = dict.fromkeys((cfg, master.class_count)
                         for kind in config.scenarios for method in config.methods
                         for _, cfg in _cell_models(config.scenario_spec(kind), method,
                                                    config.model)
                         for master in datasets.values())
    shifted = {}
    if "cross_domain" in config.scenarios:
        shifted = {name: cross_domain_targets(master, config.scenario.cross_targets)
                   for name, master in datasets.items()}
    return RunState(config, datasets, {key: build_assets(*key) for key in keys},
                    shifted).freeze()


@dataclass
class _Target:
    """One scored test set: results column, metric, and its per-round record key."""

    column: str
    metric: str
    key: str
    source: MasterDataset  # the full dataset the indices slice
    indices: np.ndarray
    class_ids: np.ndarray | None = None


@dataclass
class _ScenarioPlan:
    """What a scenario changes in the one cell pipeline of `run_cell`."""

    targets: list[_Target]
    clients: list[np.ndarray] | None = None       # training indices per client (trained only)
    client_tests: list[np.ndarray] | None = None  # personalized: test indices per client
    class_ids: np.ndarray | None = None           # the classes trained on (None: all)
    per_round: bool = True                        # best over evaluated rounds, else final only
    extras: dict = field(default_factory=dict)


def _scenario_plan(state: RunState, spec: ScenarioSpec, trained: bool, dataset: str,
                   column: str, seed: int) -> _ScenarioPlan:
    """The scenario's targets and, for a trained method, its client partition."""
    master = state.datasets[dataset]
    tr, _va, te = _splits(master, seed)
    config = state.config
    fed_cfg = config.federation
    pool = tr
    if spec.kind == "base_novel":
        base_ids, novel_ids = base_novel_split(master.class_count, mode=spec.split_mode, seed=seed)
        te_base = te[np.isin(master.labels[te], base_ids)]
        te_novel = te[np.isin(master.labels[te], novel_ids)]
        scenario = _ScenarioPlan(
            [_Target(column, "alpha_b", "acc::base", master, te_base, base_ids),
             _Target(column, "alpha_n", "acc::novel", master, te_novel, novel_ids)],
            class_ids=base_ids, per_round=False,
            extras={"base_ids": base_ids, "novel_ids": novel_ids},
        )
        pool = tr[np.isin(master.labels[tr], base_ids)]
    elif spec.kind == "cross_domain":
        scenario = _ScenarioPlan([_Target(f"{column}->{name}", "alpha_xd", f"acc::{name}", target, te)
                                  for name, target in state.shifted[dataset].items()])
    else:
        metric = {"personalized": "alpha_p",
                  "fewshot": f"alpha_fs_{spec.shots}"}.get(spec.kind, "alpha_g")
        scenario = _ScenarioPlan([_Target(column, metric, "test_accuracy", master, te)])
    if not trained:  # zero-shot trains nothing, so it needs (and may fail) no partition
        return scenario

    rng = rngs.derive_rng(seed, rngs.PARTITION)
    if spec.kind == "fewshot":
        raw = kshot_iid_partition(master.labels[pool], fed_cfg.num_clients, spec.shots, rng)
        scenario.clients = [pool[ix] for ix in raw.client_indices]
    elif fed_cfg.protocol == "centralized" and spec.kind in ("global", "cost_tradeoff"):
        # the one client holds the whole pool; the other scenarios subsample it below
        scenario.clients = [pool]
    else:  # balanced subsample of the pool, then a label-skewed partition
        sub = pool[balanced_subsample_indices(master.labels[pool], config.subsample_per_class(),
                                              rng)]
        raw = dirichlet_partition(master.labels[sub], fed_cfg.num_clients, config.data.alpha, rng)
        scenario.clients = [sub[ix] for ix in raw.client_indices]
        if spec.kind == "personalized":
            # per-client test pools mirror each client's training label distribution
            tests = mirror_partition(raw.class_proportions, master.labels[te],
                                     rngs.derive_rng(seed, rngs.PARTITION, 1))
            scenario.client_tests = [te[ix] for ix in tests.client_indices]
    return scenario


def run_cell(state: RunState, scenario: str, method: str, dataset: str,
             seed: int) -> CellResult:
    """One (scenario, method, dataset, seed) experiment on the run's shared state."""
    spec = state.config.scenario_spec(scenario)
    parts = [_run_plan(state, spec, method, dataset, dataset + suffix, seed, cfg)
             for suffix, cfg in _cell_models(spec, method, state.config.model)]
    if len(parts) == 1:
        return parts[0]
    return CellResult([o for part in parts for o in part.observations],
                      [row for part in parts for row in part.curves])


def _run_plan(state: RunState, spec: ScenarioSpec, method: str, dataset: str, column: str,
              seed: int, cfg: ModelConfig) -> CellResult:
    """The cell pipeline: the scenario's plan, trained and scored under one model config."""
    master = state.datasets[dataset]
    assets = state.assets[(cfg, master.class_count)]
    trained = method != ZERO_SHOT_METHOD
    scenario = _scenario_plan(state, spec, trained, dataset, column, seed)
    targets = scenario.targets
    # a trained personalized cell scores only its clients' own test sets
    tests = (None if scenario.client_tests is not None
             else [ClientDataset.from_master(t.source, t.indices) for t in targets])

    def score(make_predictor) -> dict[str, float]:
        """Accuracy per record key, with one predictor per evaluated class set."""
        predictors, scores = {}, {}
        for target, test in zip(targets, tests):
            ids = None if target.class_ids is None else target.class_ids.tobytes()
            if ids not in predictors:
                predictors[ids] = make_predictor(target.class_ids)
            scores[target.key] = evaluate_predictor(predictors[ids], test.features, test.labels,
                                                    target.class_ids, test.local_maps)
        return scores

    if not trained:
        scores = score(lambda ids: CosinePredictor(assets, assets.handcrafted.vectors, ids))
        chi = 0.0 if spec.kind == "global" else None
        return CellResult(_observations(spec, method, seed, targets, scores, chi), [],
                          scenario.extras)

    trainer = _trainer_for(method, spec)
    fed_cfg = state.config.federation
    clients = build_clients(master, scenario.clients, trainer, cfg, seed, scenario.client_tests)
    if method in TRANSPORT_METHODS:
        slices = [(master, c.dataset) for c in clients]
        if scenario.client_tests is None:
            slices += [(t.source, test) for t, test in zip(targets, tests)]
        else:  # only the client test sets are scored
            slices += [(master, c.test_set) for c in clients]
        _give_local_maps(slices, cfg.local_features, state.noise)

    def predictor(server, class_ids=None, client_state=None):
        return trainer.build_predictor(server.payload, assets, class_ids, client_state,
                                       server.encoding(trainer, assets, class_ids))

    def evaluate(server, clients, round_index=None) -> dict[str, float]:
        if scenario.client_tests is None:
            return score(lambda ids: predictor(server, ids))
        held = [c for c in clients if len(c.test_set) > 0]
        if trainer.broadcast_context(server.payload) is not None:
            # every client scores with the broadcast, so one predictor serves all
            predictors = predictor(server)
        else:
            predictors = [predictor(server, client_state=c.state) for c in held]
        return {targets[0].key: personalized_accuracy(predictors, [c.test_set for c in held])}

    audit = None if scenario.class_ids is None else []
    outcome = run_federation(trainer, clients, fed_cfg, assets, seed,
                             eval_fn=evaluate if scenario.per_round else None,
                             class_ids=scenario.class_ids, audit=audit)
    if audit is not None:
        leaked = sum(int(np.isin(master.labels[batch], scenario.class_ids, invert=True).sum())
                     for batch in audit)
        if leaked:
            raise EvaluationError(f"{leaked} samples of untrained classes leaked into "
                                  "training batches")
        scenario.extras["audit"] = audit
    scores = outcome.best if scenario.per_round else evaluate(outcome.server, clients)
    chi = None
    if spec.kind == "global":  # what actually moved (skipped empty clients exchange nothing)
        chi = outcome.server.ledger.chi_millions
    elif spec.kind == "cost_tradeoff":  # the trade-off tables quote the method's arithmetic cost
        chi = communication_cost_millions(trainer, cfg, fed_cfg)
    curves = [{"scenario": spec.kind, "method": method, "dataset": column, "seed": seed,
               "round": record["round"], "train_loss": record.get("train_loss"),
               "test_accuracy": record.get("test_accuracy"), "chi": record.get("chi")}
              for record in outcome.eval_history]
    return CellResult(_observations(spec, method, seed, targets, scores, chi), curves,
                      scenario.extras)


def _give_local_maps(slices: list[tuple[MasterDataset, ClientDataset]], M: int,
                     noise_table: dict) -> None:
    """Set the local maps of each (source, slice) pair, with one build per source."""
    by_source: dict[int, tuple[MasterDataset, list[ClientDataset]]] = {}
    for source, part in slices:
        by_source.setdefault(id(source), (source, []))[1].append(part)
    for source, parts in by_source.values():
        maps = source.ensure_local_maps(M, [part.master_indices for part in parts], noise_table)
        for part, part_maps in zip(parts, maps):
            part.local_maps = part_maps


def _observations(spec: ScenarioSpec, method: str, seed: int, targets: list[_Target],
                  scores: dict[str, float], chi: float | None) -> list[Observation]:
    rows = [(t.column, t.metric, scores.get(t.key, 0.0)) for t in targets]
    if spec.kind == "base_novel":
        rows.append((targets[0].column, "alpha_h", harmonic_mean(rows[0][2], rows[1][2])))
    if chi is not None:
        rows.append((targets[0].column, "chi_millions", chi))
    return [Observation(spec.kind, method, column, seed, metric, value)
            for column, metric, value in rows]
