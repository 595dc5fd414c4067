"""Scenario runners and reported metrics.

Six evaluation scenarios (shared-model accuracy, personalized accuracy,
base/novel generalization, few-shot, cross-domain, cost trade-off) plus
the run-aggregation and baseline-superiority arithmetic used in reports.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import CosinePredictor, LocalTrainer, make_trainer
from .data import (
    ClientDataset,
    DomainShift,
    MasterDataset,
    PartitionPlan,
    apply_domain_shift,
    balanced_subsample_indices,
    base_novel_split,
    dirichlet_partition,
    kshot_iid_partition,
    mirror_partition,
    stratified_split,
)
from .errors import ConfigError, DomainError, EvaluationError
from .federation import (
    FederationConfig,
    build_clients,
    communication_cost_millions,
    run_federation,
)
from .vlm import ModelAssets, ModelConfig, build_assets
from . import rngs

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
                       local_maps: np.ndarray | None = None) -> float:
    """Top-1 accuracy (percent) of a predictor over a labeled feature set."""
    probs = predictor.probs(features, local_maps)
    return accuracy_percent(probs.argmax(axis=1), _positions(class_ids, labels))


def personalized_accuracy(predictors: list, test_sets: list[ClientDataset],
                          class_ids: np.ndarray | None = None) -> float:
    """Client accuracies averaged with weights proportional to their test data."""
    accs, sizes = [], []
    for predictor, test in zip(predictors, test_sets):
        if test is None or len(test) == 0:
            continue
        accs.append(evaluate_predictor(predictor, test.features, test.labels,
                                       class_ids, test.local_maps))
        sizes.append(len(test))
    if not sizes:
        raise EvaluationError("every client test set is empty")
    weights = np.array(sizes, dtype=np.float64)
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
    """One scenario and its options; the single check of the option values.

    Errors name the config key; the config parser adds the `scenario.`
    section prefix.
    """

    kind: str
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
class ExperimentPlan:
    """All per-run knobs a scenario cell needs."""

    model: ModelConfig
    federation: FederationConfig
    alpha: float = 0.1
    per_class_subsample: int | None = None  # None: 16 under partial participation, else 8

    def subsample_per_class(self) -> int:
        if self.per_class_subsample is not None:
            return self.per_class_subsample
        return 16 if self.federation.protocol == "partial" else 8


@dataclass
class CellResult:
    observations: list[Observation]
    curves: list[dict]
    extras: dict = field(default_factory=dict)


def _trainer_for(method: str, spec: ScenarioSpec) -> LocalTrainer:
    if method == "fedotp":
        return make_trainer(method, mode="personalized" if spec.kind == "personalized" else "global")
    return make_trainer(method)


def _ensure_maps(master: MasterDataset, method: str, cfg: ModelConfig) -> None:
    if method in TRANSPORT_METHODS:
        master.ensure_local_maps(cfg.local_features, seed=0)


def zero_shot_accuracy(assets: ModelAssets, features: np.ndarray, labels: np.ndarray,
                       class_ids: np.ndarray | None = None) -> float:
    predictor = CosinePredictor(assets, assets.handcrafted.vectors, class_ids)
    return evaluate_predictor(predictor, features, labels, class_ids)


def _splits(master: MasterDataset, seed: int):
    return stratified_split(master.labels, (0.7, 0.1, 0.2), rngs.derive_rng(seed, rngs.TVT))


def _training_partition(master: MasterDataset, pool: np.ndarray, plan: ExperimentPlan,
                        seed: int) -> PartitionPlan:
    """Balanced subsample of the training pool, then label-skewed partition."""
    rng = rngs.derive_rng(seed, rngs.PARTITION)
    sub_rel = balanced_subsample_indices(master.labels[pool], plan.subsample_per_class(), rng)
    sub = pool[sub_rel]
    raw = dirichlet_partition(master.labels[sub], plan.federation.num_clients, plan.alpha, rng)
    return PartitionPlan(
        client_indices=[sub[ix] for ix in raw.client_indices],
        scheme=raw.scheme, params=raw.params, class_proportions=raw.class_proportions,
    )


def _centralized_partition(pool: np.ndarray) -> PartitionPlan:
    return PartitionPlan(client_indices=[np.asarray(pool)], scheme="centralized")


def _global_eval_fn(trainer, assets, test: MasterDataset):
    def eval_fn(server, clients, round_index):
        predictor = trainer.build_predictor(server.payload, assets)
        acc = evaluate_predictor(predictor, test.features, test.labels, None, test.local_maps)
        return {"test_accuracy": acc}
    return eval_fn


def _personal_eval_fn(trainer, assets):
    def eval_fn(server, clients, round_index):
        predictors, tests = [], []
        for client in clients:
            if client.test_set is None or len(client.test_set) == 0:
                continue
            predictors.append(trainer.build_predictor(server.payload, assets, state=client.state))
            tests.append(client.test_set)
        return {"test_accuracy": personalized_accuracy(predictors, tests)}
    return eval_fn


def _curves(spec, method, dataset_name, seed, outcome) -> list[dict]:
    rows = []
    for record in outcome.eval_history:
        rows.append({
            "scenario": spec.kind, "method": method, "dataset": dataset_name, "seed": seed,
            "round": record["round"],
            "train_loss": record.get("train_loss"),
            "test_accuracy": record.get("test_accuracy"),
            "chi": record.get("chi"),
        })
    return rows


def run_cell(spec: ScenarioSpec, method: str, dataset_name: str, master: MasterDataset,
             seed: int, plan: ExperimentPlan) -> CellResult:
    """One (scenario, method, dataset, seed) experiment."""
    runner = _CELL_RUNNERS[spec.kind]
    return runner(spec, method, dataset_name, master, seed, plan)


def _cell_global(spec, method, dataset_name, master, seed, plan,
                 model_cfg=None, chi_closed_form=False):
    cfg = model_cfg or plan.model
    assets = build_assets(cfg, master.class_count)
    tr, _va, te = _splits(master, seed)
    _ensure_maps(master, method, cfg)
    test = master.subset(te)  # sliced after the local maps exist
    obs: list[Observation] = []

    if method == ZERO_SHOT_METHOD:
        acc = zero_shot_accuracy(assets, test.features, test.labels)
        obs.append(Observation(spec.kind, method, dataset_name, seed, "alpha_g", acc))
        obs.append(Observation(spec.kind, method, dataset_name, seed, "chi_millions", 0.0))
        return CellResult(obs, [])

    trainer = _trainer_for(method, spec)
    fed_cfg = plan.federation
    if fed_cfg.protocol == "centralized":
        partition = _centralized_partition(tr)
    else:
        partition = _training_partition(master, tr, plan, seed)
    clients = build_clients(master, partition, trainer, cfg, fed_cfg, seed)
    outcome = run_federation(trainer, clients, fed_cfg, assets, seed,
                             eval_fn=_global_eval_fn(trainer, assets, test))
    best = outcome.best.get("test_accuracy", 0.0)
    obs.append(Observation(spec.kind, method, dataset_name, seed, "alpha_g", best))
    # the trade-off tables quote the method's arithmetic cost; elsewhere the
    # ledger reports what actually moved (skipped empty clients exchange nothing)
    chi = (communication_cost_millions(trainer, cfg, fed_cfg) if chi_closed_form
           else outcome.server.ledger.chi_millions)
    obs.append(Observation(spec.kind, method, dataset_name, seed, "chi_millions", chi))
    return CellResult(obs, _curves(spec, method, dataset_name, seed, outcome),
                      extras={"outcome": outcome})


def _cell_personalized(spec, method, dataset_name, master, seed, plan):
    cfg = plan.model
    assets = build_assets(cfg, master.class_count)
    tr, _va, te = _splits(master, seed)
    _ensure_maps(master, method, cfg)
    test = master.subset(te)
    obs: list[Observation] = []
    if method == ZERO_SHOT_METHOD:
        acc = zero_shot_accuracy(assets, test.features, test.labels)
        obs.append(Observation(spec.kind, method, dataset_name, seed, "alpha_p", acc))
        return CellResult(obs, [])

    trainer = _trainer_for(method, spec)
    fed_cfg = plan.federation
    partition = _training_partition(master, tr, plan, seed)
    # per-client test pools mirror each client's training label distribution
    test_raw = mirror_partition(partition.class_proportions, master.labels[te],
                                rngs.derive_rng(seed, rngs.PARTITION, 1))
    test_plan = PartitionPlan(
        client_indices=[te[ix] for ix in test_raw.client_indices],
        scheme=test_raw.scheme,
    )
    clients = build_clients(master, partition, trainer, cfg, fed_cfg, seed, test_plan=test_plan)
    outcome = run_federation(trainer, clients, fed_cfg, assets, seed,
                             eval_fn=_personal_eval_fn(trainer, assets))
    best = outcome.best.get("test_accuracy", 0.0)
    obs.append(Observation(spec.kind, method, dataset_name, seed, "alpha_p", best))
    return CellResult(obs, _curves(spec, method, dataset_name, seed, outcome))


def _cell_base_novel(spec, method, dataset_name, master, seed, plan):
    cfg = plan.model
    assets = build_assets(cfg, master.class_count)
    base_ids, novel_ids = base_novel_split(master.class_count, mode=spec.split_mode, seed=seed)
    tr, _va, te = _splits(master, seed)
    _ensure_maps(master, method, cfg)
    te_base = te[np.isin(master.labels[te], base_ids)]
    te_novel = te[np.isin(master.labels[te], novel_ids)]
    obs: list[Observation] = []
    extras = {"base_ids": base_ids, "novel_ids": novel_ids, "audit": []}

    def emit(alpha_b, alpha_n):
        alpha_h = harmonic_mean(alpha_b, alpha_n)
        for name, value in (("alpha_b", alpha_b), ("alpha_n", alpha_n), ("alpha_h", alpha_h)):
            obs.append(Observation(spec.kind, method, dataset_name, seed, name, value))
        return alpha_h

    if method == ZERO_SHOT_METHOD:
        alpha_b = zero_shot_accuracy(assets, master.features[te_base], master.labels[te_base], base_ids)
        alpha_n = zero_shot_accuracy(assets, master.features[te_novel], master.labels[te_novel], novel_ids)
        emit(alpha_b, alpha_n)
        return CellResult(obs, [], extras)

    trainer = _trainer_for(method, spec)
    fed_cfg = plan.federation
    pool = tr[np.isin(master.labels[tr], base_ids)]
    partition = _training_partition(master, pool, plan, seed)
    clients = build_clients(master, partition, trainer, cfg, fed_cfg, seed)
    audit: list[np.ndarray] = []
    outcome = run_federation(trainer, clients, fed_cfg, assets, seed,
                             class_ids=base_ids, audit=audit)
    extras["audit"] = audit
    leaked = sum(int(np.isin(master.labels[batch], novel_ids).sum()) for batch in audit)
    if leaked:
        raise EvaluationError(f"{leaked} novel-class samples leaked into training batches")

    def final_acc(test_idx, ids):
        predictor = trainer.build_predictor(outcome.server.payload, assets, class_ids=ids)
        subset = master.subset(test_idx)
        return evaluate_predictor(predictor, subset.features, subset.labels, ids, subset.local_maps)

    emit(final_acc(te_base, base_ids), final_acc(te_novel, novel_ids))
    return CellResult(obs, _curves(spec, method, dataset_name, seed, outcome), extras)


def _cell_fewshot(spec, method, dataset_name, master, seed, plan):
    cfg = plan.model
    assets = build_assets(cfg, master.class_count)
    tr, _va, te = _splits(master, seed)
    _ensure_maps(master, method, cfg)
    test = master.subset(te)
    metric = f"alpha_fs_{spec.shots}"
    obs: list[Observation] = []
    if method == ZERO_SHOT_METHOD:
        acc = zero_shot_accuracy(assets, test.features, test.labels)
        obs.append(Observation(spec.kind, method, dataset_name, seed, metric, acc))
        return CellResult(obs, [])

    trainer = _trainer_for(method, spec)
    fed_cfg = plan.federation
    raw = kshot_iid_partition(master.labels[tr], fed_cfg.num_clients, spec.shots,
                              rngs.derive_rng(seed, rngs.PARTITION))
    partition = PartitionPlan(client_indices=[tr[ix] for ix in raw.client_indices],
                              scheme=raw.scheme, params=raw.params)
    clients = build_clients(master, partition, trainer, cfg, fed_cfg, seed)
    outcome = run_federation(trainer, clients, fed_cfg, assets, seed,
                             eval_fn=_global_eval_fn(trainer, assets, test))
    obs.append(Observation(spec.kind, method, dataset_name, seed, metric,
                           outcome.best.get("test_accuracy", 0.0)))
    return CellResult(obs, _curves(spec, method, dataset_name, seed, outcome))


def cross_domain_targets(master: MasterDataset, count: int) -> dict[str, MasterDataset]:
    """Deterministic family of increasingly shifted target domains."""
    targets = {}
    for k in range(1, count + 1):
        shift = DomainShift(angle=0.3 + 0.2 * k, noise_sigma=0.05 * k, seed=k)
        targets[f"shift{k}"] = apply_domain_shift(master, shift)
    return targets


def _cell_cross_domain(spec, method, dataset_name, master, seed, plan):
    cfg = plan.model
    assets = build_assets(cfg, master.class_count)
    tr, _va, te = _splits(master, seed)
    _ensure_maps(master, method, cfg)
    targets = cross_domain_targets(master, spec.cross_targets)
    for target in targets.values():
        _ensure_maps(target, method, cfg)
    obs: list[Observation] = []

    def column(tgt: str) -> str:
        return f"{dataset_name}->{tgt}"

    if method == ZERO_SHOT_METHOD:
        for tgt, shifted in targets.items():
            acc = zero_shot_accuracy(assets, shifted.features[te], shifted.labels[te])
            obs.append(Observation(spec.kind, method, column(tgt), seed, "alpha_xd", acc))
        return CellResult(obs, [])

    trainer = _trainer_for(method, spec)
    fed_cfg = plan.federation
    partition = _training_partition(master, tr, plan, seed)
    clients = build_clients(master, partition, trainer, cfg, fed_cfg, seed)

    def eval_fn(server, clients_, round_index):
        metrics = {}
        predictor = trainer.build_predictor(server.payload, assets)
        for tgt, shifted in targets.items():
            test = shifted.subset(te)
            metrics[f"acc::{tgt}"] = evaluate_predictor(
                predictor, test.features, test.labels, None, test.local_maps)
        return metrics

    outcome = run_federation(trainer, clients, fed_cfg, assets, seed, eval_fn=eval_fn)
    for tgt in targets:
        obs.append(Observation(spec.kind, method, column(tgt), seed, "alpha_xd",
                               outcome.best.get(f"acc::{tgt}", 0.0)))
    return CellResult(obs, _curves(spec, method, dataset_name, seed, outcome))


def _cell_cost_tradeoff(spec, method, dataset_name, master, seed, plan):
    if method == ZERO_SHOT_METHOD:
        return CellResult([], [])
    observations: list[Observation] = []
    curves: list[dict] = []
    for sweep_name, values, make_cfg in (
        ("prompts", spec.prompt_sweep, lambda v: replace(plan.model, m=v)),
        ("tokens", spec.token_sweep, lambda v: replace(plan.model, L=v)),
    ):
        for value in values:
            cfg = make_cfg(value)
            name = f"{dataset_name}|{sweep_name}={value}"
            result = _cell_global(spec, method, name, master, seed, plan,
                                  model_cfg=cfg, chi_closed_form=True)
            observations.extend(result.observations)
            curves.extend(result.curves)
    return CellResult(observations, curves)


_CELL_RUNNERS = {
    "global": _cell_global,
    "personalized": _cell_personalized,
    "base_novel": _cell_base_novel,
    "fewshot": _cell_fewshot,
    "cross_domain": _cell_cross_domain,
    "cost_tradeoff": _cell_cost_tradeoff,
}
