"""The cell pipeline and reported metrics.

Six evaluation scenarios (shared-model accuracy, personalized accuracy,
base/novel generalization, few-shot, cross-domain, cost trade-off) run
through one pipeline, `run_cell`; each scenario only declares a plan: its
client partition, trained classes, scored targets and when they are
scored. `build_run_state` draws each (scenario, dataset, seed) plan once
into the `RunState` that every cell of a run reads. Also the
run-aggregation and baseline-superiority arithmetic used in reports.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .algorithms import (
    CosinePredictor,
    PersonalizedFedOTPTrainer,
    make_trainer,
)
from .data import (
    ClientDataset,
    DomainShift,
    MasterDataset,
    RegionNoise,
    apply_domain_shift,
    balanced_subsample_indices,
    base_novel_split,
    class_positions,
    dirichlet_partition,
    is_synthetic,
    kshot_iid_partition,
    mirror_partition,
    stratified_split,
)
from .errors import ConfigError, DataError, DomainError, EvaluationError
from .federation import RoundReport, build_clients, communication_cost_millions, run_federation
from .vlm import ModelAssets, ModelConfig, build_assets, read_only
from . import rngs

if TYPE_CHECKING:
    from .config import ExperimentConfig

SCENARIO_KINDS = ("global", "personalized", "base_novel", "fewshot", "cross_domain", "cost_tradeoff")
ZERO_SHOT_METHOD = "zsclip"
TRANSPORT_METHODS = ("plot", "fedotp")
# the prompt-set and context-length values a `cost_tradeoff` cell sweeps
PROMPT_SWEEP = (1, 2, 4)
TOKEN_SWEEP = (4, 8, 16)


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

def evaluate_predictor(predictor, features: np.ndarray, labels: np.ndarray,
                       class_ids: np.ndarray | None = None, *,
                       local_maps: np.ndarray | None) -> int:
    """The number of rows of a labeled feature set whose top-1 prediction is right."""
    predicted = predictor.probs(features, local_maps).argmax(axis=1)
    return int(np.count_nonzero(predicted == class_positions(labels, class_ids)))


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a+b); zero if either accuracy is zero."""
    if a < 0 or b < 0:
        raise DomainError("harmonic mean of negative accuracies")
    if a == 0.0 or b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def superiority_indicator(method_means, baseline_means) -> int:
    """Datasets on which the method's mean strictly beats the baseline's; both
    lists hold one mean per dataset, in the same dataset order."""
    method_means = np.asarray(method_means, dtype=np.float64)
    baseline_means = np.asarray(baseline_means, dtype=np.float64)
    if method_means.shape != baseline_means.shape:
        raise EvaluationError("method and baseline rows have different lengths")
    return int((method_means > baseline_means).sum())


def best_scores(reports: list[RoundReport]) -> dict[str, float]:
    """Each score's best value over the evaluated rounds, the earliest on a tie;
    the reported value of a scenario scored every round."""
    best: dict[str, float] = {}
    for report in reports:
        for key, value in (report.scores or {}).items():
            if value is not None and (key not in best or value > best[key]):
                best[key] = value
    return best


def aggregate_runs(values) -> tuple[float, float]:
    """(mean, population std) over per-seed values; a single run has std 0."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise EvaluationError("no runs to aggregate")
    return float(values.mean()), float(values.std())


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Observation:
    """One value of a run: a row of results.csv."""

    scenario: str
    method: str
    dataset: str
    seed: int
    metric: str
    value: float


# ---------------------------------------------------------------------------
# Scenario machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """The scenario options (the `[scenario]` section); the single check of
    their values. The scenario kind is a cell's coordinate, not an option.

    Errors name the config key; the config parser adds the `scenario.` prefix.
    """

    shots: int = 1
    split_mode: str = "random"
    cross_targets: int = 2

    def __post_init__(self):
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


def _splits(master: MasterDataset, seed: int):
    return stratified_split(master.labels, (0.7, 0.1, 0.2), rngs.derive_rng(seed, rngs.TVT))


def cross_domain_targets(master: MasterDataset, count: int,
                         rows: np.ndarray) -> dict[str, ClientDataset]:
    """Deterministic family of increasingly shifted target domains, each holding
    only the master rows `rows` (the rows a run scores) under their master ids.

    Each held row equals the same row of the whole master's shift, so the
    scores do not depend on which other rows are held.
    """
    return {f"shift{k}": apply_domain_shift(
                master, DomainShift(angle=0.3 + 0.2 * k, noise_sigma=0.05 * k, seed=k), rows)
            for k in range(1, count + 1)}


def _cell_models(kind: str, method: str, model: ModelConfig) -> list[tuple[str, ModelConfig]]:
    """(results column suffix, model config) of each model a cell trains and scores.

    A `cost_tradeoff` cell runs `PROMPT_SWEEP` and `TOKEN_SWEEP`, and its
    zero-shot cell runs none: nothing is communicated, so there is no
    trade-off.
    """
    if kind != "cost_tradeoff":
        return [("", model)]
    if method == ZERO_SHOT_METHOD:
        return []
    return ([(f"|prompts={v}", replace(model, prompts=v)) for v in PROMPT_SWEEP]
            + [(f"|tokens={v}", replace(model, tokens=v)) for v in TOKEN_SWEEP])


@dataclass
class _Target:
    """One scored test set and its per-round record key; a personalized
    target's rows are the clients' test rows, in client order."""

    suffix: str            # "" or, for a cross-domain target, "->shiftK"
    metric: str
    key: str
    test: ClientDataset    # the scored rows, of the dataset or of a shifted copy
    class_ids: np.ndarray | None = None


@dataclass
class _ScenarioPlan:
    """What a scenario changes in the one cell pipeline of `run_cell`."""

    targets: list[_Target]
    clients: list[np.ndarray] | None = None  # training indices per client (trained only)
    client_rows: list[int] | None = None     # personalized: each client's target rows
    class_ids: np.ndarray | None = None      # the classes trained on (None: all)
    per_round: bool = True                   # `best_scores` of the rounds, else final only


@dataclass(frozen=True)
class RunState:
    """What every cell of a run shares; built once by `build_run_state`, which
    marks every array reachable from it read-only (`vlm.read_only`), as a
    pool worker does again with the state it unpickles.

    `plans` holds each (scenario, dataset, seed) plan, drawn once and read by
    the cells of every method, so they all see one client partition, and
    its targets' test sets. Per-row derived data exists only for the rows the
    run reads, under master row ids:
    - each dataset's shifted copies are built for the union of its test rows
      over `experiment.seeds`, the only rows a cross-domain cell scores, and
      each cross-domain target holds its seed's rows of them;
    - `noise` holds, per (n, M, d), the rows of the region-noise stream that
      the run's transport cells read: the union of their client rows and
      target rows over every plan.

    Multi-seed and centralized runs keep more rows; a union grows toward n
    and never past it. `MasterDataset.ensure_local_maps` draws the kept
    noise values at first use, unless `runner.run` drew them before it
    started a worker pool.
    """

    config: "ExperimentConfig"                          # as parsed from the text the cells run
    datasets: dict[str, MasterDataset]                  # by results column name
    assets: dict[tuple[ModelConfig, int], ModelAssets]  # by (model config, class count)
    plans: dict[tuple[str, str, int], _ScenarioPlan]    # by (scenario, dataset, seed)
    noise: dict[tuple[int, int, int], RegionNoise] = field(default_factory=dict)


def build_run_state(config: "ExperimentConfig",
                    datasets: dict[str, MasterDataset]) -> RunState:
    """The run's frozen datasets, the assets of every (model config, class count)
    its cells use, the plan of every (scenario, dataset, seed) and, for a run
    with a transport method, the region-noise rows its cells read.

    Each dataset is split once per seed, for the cross-domain targets and the
    plans, which share one slice of its test rows in id order. A plan holds
    a client partition when the run trains a method, so one the data cannot
    hold fails the run before any cell runs."""
    keys = dict.fromkeys((cfg, master.class_count)
                         for kind in config.scenarios for method in config.methods
                         for _, cfg in _cell_models(kind, method, config.model)
                         for master in datasets.values())
    splits = {(name, seed): _splits(master, seed)
              for name, master in datasets.items() for seed in config.seeds}
    # a cross-domain cell scores each seed's test rows of its dataset's targets
    count = config.scenario.cross_targets if "cross_domain" in config.scenarios else 0
    shifted = {name: cross_domain_targets(master, count, np.concatenate(
                   [splits[name, seed][2] for seed in config.seeds]))
               for name, master in datasets.items()}
    trained = any(method != ZERO_SHOT_METHOD for method in config.methods)
    transport = any(method in TRANSPORT_METHODS for method in config.methods)
    tests: dict[tuple[str, int], ClientDataset] = {}

    def test_slice(name: str, seed: int) -> ClientDataset:
        """The dataset's test rows of the seed in id order, sliced at the first call."""
        if (name, seed) not in tests:
            tests[name, seed] = ClientDataset.from_master(datasets[name], splits[name, seed][2])
        return tests[name, seed]

    plans, read = {}, {}  # read: by (n, M, d), the region-noise rows that cells read
    for kind in config.scenarios:
        limits = ("scenario.shots and federation.num_clients" if kind == "fewshot"
                  else "data.per_class_subsample")
        for name, master in datasets.items():
            for seed in config.seeds:
                try:
                    plan = _scenario_plan(config, kind, trained, master, splits[name, seed],
                                          shifted[name], partial(test_slice, name, seed), seed)
                except DataError as exc:
                    raise ConfigError(f"{limits}: too large for dataset {name!r} in the {kind} "
                                      f"scenario (seed {seed}): {exc}") from exc
                for target in plan.targets:
                    if len(target.test) == 0:
                        key = ("data.samples_per_class" if is_synthetic(name)
                               else "data.datasets")
                        raise ConfigError(f"{key}: dataset {name!r} leaves no test rows to "
                                          f"score for {target.key} in the {kind} scenario "
                                          f"(seed {seed})")
                plans[kind, name, seed] = plan
                if transport:  # a shifted target has its master's shape
                    shape = (len(master), config.model.local_features, master.feature_dim)
                    read.setdefault(shape, []).extend(
                        [*plan.clients, *(target.test.master_indices for target in plan.targets)])
    return read_only(RunState(config, datasets, {key: build_assets(*key) for key in keys}, plans,
                              {shape: RegionNoise(shape, np.concatenate(rows))
                               for shape, rows in read.items()}))


def _scenario_plan(config: "ExperimentConfig", kind: str, trained: bool, master: MasterDataset,
                   splits: tuple[np.ndarray, np.ndarray, np.ndarray],
                   shifted: dict[str, ClientDataset], test_slice: Callable[[], ClientDataset],
                   seed: int) -> _ScenarioPlan:
    """The scenario's targets on `master`'s (train, validation, test) `splits`
    (or on `shifted`, the shifted copies of its test rows over the run's seeds,
    or on `test_slice()`, its test rows in id order, shared by the plans that
    score them so) and, for a run that trains, its client partition."""
    tr, _va, te = splits
    fed_cfg, spec = config.federation, config.scenario
    pool = tr
    if kind == "base_novel":
        base_ids, novel_ids = base_novel_split(master.class_count, mode=spec.split_mode, seed=seed)
        te_base = te[np.isin(master.labels[te], base_ids)]
        te_novel = te[np.isin(master.labels[te], novel_ids)]
        scenario = _ScenarioPlan(
            [_Target("", "alpha_b", "acc::base", ClientDataset.from_master(master, te_base),
                     base_ids),
             _Target("", "alpha_n", "acc::novel", ClientDataset.from_master(master, te_novel),
                     novel_ids)],
            class_ids=base_ids, per_round=False,
        )
        pool = tr[np.isin(master.labels[tr], base_ids)]
    elif kind == "cross_domain":
        # this seed's rows of each shifted union, which holds them in id order
        scenario = _ScenarioPlan([
            _Target(f"->{name}", "alpha_xd", f"acc::{name}",
                    union.take(np.searchsorted(union.master_indices, te)))
            for name, union in shifted.items()])
    else:  # a trained personalized plan scores the test rows in client order, set below
        metric = {"personalized": "alpha_p",
                  "fewshot": f"alpha_fs_{spec.shots}"}.get(kind, "alpha_g")
        test = None if trained and kind == "personalized" else test_slice()
        scenario = _ScenarioPlan([_Target("", metric, "test_accuracy", test)])
    if not trained:  # zero-shot trains nothing, so it needs (and may fail) no partition
        return scenario

    rng = rngs.derive_rng(seed, rngs.PARTITION)
    if kind == "fewshot":
        raw = kshot_iid_partition(master.labels[pool], fed_cfg.num_clients, spec.shots, rng)
        scenario.clients = [pool[ix] for ix in raw.client_indices]
    elif fed_cfg.protocol == "centralized" and kind in ("global", "cost_tradeoff"):
        # the one client holds the whole pool; the other scenarios subsample it below
        scenario.clients = [pool]
    else:  # balanced subsample of the pool, then a label-skewed partition
        sub = pool[balanced_subsample_indices(master.labels[pool], config.subsample_per_class(),
                                              rng)]
        raw = dirichlet_partition(master.labels[sub], fed_cfg.num_clients, config.data.alpha, rng)
        scenario.clients = [sub[ix] for ix in raw.client_indices]
        if kind == "personalized":
            # per-client test pools mirror each client's training label distribution;
            # a zero-shot cell scores the same rows, in this order
            tests = mirror_partition(raw.class_proportions, master.labels[te],
                                     rngs.derive_rng(seed, rngs.PARTITION, 1))
            scenario.targets[0].test = ClientDataset.from_master(
                master, np.concatenate([te[ix] for ix in tests.client_indices]))
            scenario.client_rows = [len(ix) for ix in tests.client_indices]
    return scenario


def run_cell(state: RunState, scenario: str, method: str, dataset: str,
             seed: int) -> CellResult:
    """One (scenario, method, dataset, seed) experiment on the run's shared state."""
    plan = state.plans.get((scenario, dataset, seed))
    if plan is None:
        raise EvaluationError(f"the run state holds no plan for the cell {scenario}/{method}/"
                              f"{dataset}/seed {seed}")
    parts = [_run_plan(state, plan, scenario, method, dataset, dataset + suffix, seed, cfg)
             for suffix, cfg in _cell_models(scenario, method, state.config.model)]
    return CellResult([o for part in parts for o in part.observations],
                      [row for part in parts for row in part.curves])


def _run_plan(state: RunState, scenario: _ScenarioPlan, kind: str, method: str, dataset: str,
              column: str, seed: int, cfg: ModelConfig) -> CellResult:
    """The cell pipeline: the scenario's plan, trained and scored under one model config."""
    master = state.datasets[dataset]
    assets = state.assets[(cfg, master.class_count)]
    targets = scenario.targets
    tests = [t.test for t in targets]
    # one cut of the assets per class set trained or scored, so that a
    # broadcast encoding made under it serves every use of that set
    cuts: dict[bytes | None, ModelAssets] = {}

    def cut(class_ids: np.ndarray | None) -> ModelAssets:
        key = None if class_ids is None else class_ids.tobytes()
        return cuts.get(key) or cuts.setdefault(key, assets.for_classes(class_ids))

    def score(make_predictor) -> dict[str, float]:
        """Accuracy (percent) per record key, with one predictor per evaluated class set."""
        predictors, scores = {}, {}
        for target, test in zip(targets, tests):
            scored = cut(target.class_ids)
            if id(scored) not in predictors:
                predictors[id(scored)] = make_predictor(scored)
            correct = evaluate_predictor(predictors[id(scored)], test.features, test.labels,
                                         scored.class_ids, local_maps=test.local_maps)
            scores[target.key] = correct * 100.0 / len(test)
        return scores

    if method == ZERO_SHOT_METHOD:
        scores = score(lambda scored: CosinePredictor(scored.hand_features[None],
                                                      scored.cfg.tau))
        chi = 0.0 if kind == "global" else None
        return CellResult(_observations(kind, method, column, seed, targets, scores, chi), [])

    trainer = (PersonalizedFedOTPTrainer() if (method, kind) == ("fedotp", "personalized")
               else make_trainer(method))
    fed_cfg = state.config.federation
    clients = build_clients(master, scenario.clients, trainer, cfg, seed)
    if method in TRANSPORT_METHODS:
        mapped = master.ensure_local_maps(cfg.local_features,
                                          [c.dataset for c in clients] + tests, state.noise)
        for client, with_maps in zip(clients, mapped):
            client.dataset = with_maps
        tests = mapped[len(clients):]

    def evaluate(server, clients) -> dict[str, float]:
        """Score the broadcast's predictor or, where clients hold fields of their
        own, each personalized client's own over that client's rows."""
        held = None
        if scenario.client_rows is not None and any(c.state.local_fields for c in clients):
            held = [(c.state, rows) for c, rows in zip(clients, scenario.client_rows) if rows]
        return score(lambda scored: trainer.build_predictor(server.payload, scored, held))

    server = run_federation(trainer, clients, fed_cfg, cut(scenario.class_ids), seed,
                            eval_fn=evaluate if scenario.per_round else None)
    scores = best_scores(server.reports) if scenario.per_round else evaluate(server, clients)
    curves, moved = [], 0
    for report in server.reports:
        moved += report.download_scalars + report.upload_scalars
        curves.append({"scenario": kind, "method": method, "dataset": column, "seed": seed,
                       "round": report.round_index, "train_loss": report.train_loss,
                       "test_accuracy": (report.scores or {}).get("test_accuracy"),
                       "chi": moved})
    chi = None
    if kind == "global":  # what actually moved (skipped empty clients exchange nothing)
        chi = moved / 1e6
    elif kind == "cost_tradeoff":  # the trade-off tables quote the method's arithmetic cost
        chi = communication_cost_millions(trainer, cfg, fed_cfg)
    return CellResult(_observations(kind, method, column, seed, targets, scores, chi), curves)


def _observations(kind: str, method: str, column: str, seed: int, targets: list[_Target],
                  scores: dict[str, float], chi: float | None) -> list[Observation]:
    rows = [(column + t.suffix, t.metric, scores[t.key]) for t in targets]
    if kind == "base_novel":
        rows.append((column, "alpha_h", harmonic_mean(rows[0][2], rows[1][2])))
    if chi is not None:
        rows.append((column, "chi_millions", chi))
    return [Observation(kind, method, column, seed, metric, float(value))
            for column, metric, value in rows]
