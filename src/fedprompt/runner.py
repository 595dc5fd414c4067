"""Experiment execution and reporting on top of the cell pipeline.

Cells are (scenario, method, dataset, seed) units. `run` builds the run's
shared state once, then runs every cell on it, in this process or in an
optional worker pool that is handed the state at start. Outputs are
written once, sorted, so bytes never depend on worker count or completion
order.
"""

import json
import math
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .config import (
    ExperimentConfig,
    check_datasets,
    dataset_display_name,
    materialize_datasets,
    parse_config_text,
    serialize_config,
)
from .errors import ConfigError, EvaluationError
from .evaluation import (
    Observation,
    RunState,
    ZERO_SHOT_METHOD,
    aggregate_runs,
    build_run_state,
    run_cell,
    superiority_indicator,
)
from .vlm import read_only

RESULTS_CSV = "results.csv"
RESULTS_HEADER = "scenario,method,dataset,seed,metric,value"
RESULTS_JSON = "results.json"
CURVES_JSONL = "curves.jsonl"
FAILURES_JSON = "failures.json"
BASELINE_METHOD = "promptfl"


@dataclass(frozen=True)
class Cell:
    scenario: str
    method: str
    dataset: str
    seed: int


@dataclass
class RunResult:
    exit_code: int
    observations: list[Observation]  # sorted
    output_dir: Path
    failures: list[dict]


def plan_cells(config: ExperimentConfig, seed_offset: int = 0) -> list[Cell]:
    seeds = [s + seed_offset for s in config.seeds]
    negative = [s for s in config.seeds if s + seed_offset < 0]
    if negative:
        raise ConfigError(f"--seed-offset {seed_offset} makes experiment.seeds entry "
                          f"{negative[0]} negative")
    return [
        Cell(scenario, method, dataset_display_name(dataset), seed)
        for scenario in config.scenarios
        for method in config.methods
        for dataset in config.data.datasets
        for seed in seeds
    ]


def _execute_cell(args: tuple[RunState, str, str, str, int]) -> tuple[dict, list, list, str | None]:
    """Run one cell on the run's state; a failure becomes a manifest entry."""
    state, scenario, method, dataset, seed = args
    cell_key = {"scenario": scenario, "method": method, "dataset": dataset, "seed": seed}
    try:
        result = run_cell(state, scenario, method, dataset, seed)
        return cell_key, result.observations, result.curves, None
    except Exception:  # noqa: BLE001 - cell failures become a manifest entry
        return cell_key, [], [], traceback.format_exc()


# a pool worker's run state, handed over once by the pool's initializer
_worker_state: RunState | None = None


def _adopt_state(state: RunState) -> None:
    global _worker_state
    _worker_state = read_only(state)  # unpickled arrays (spawn, forkserver) are writeable


def _execute_in_worker(cell: tuple[str, str, str, int]) -> tuple[dict, list, list, str | None]:
    return _execute_cell((_worker_state, *cell))


def _pool_context():
    """Fork where the platform has it: workers then inherit the run state without
    a pickle. Other start methods unpickle it once per worker."""
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def resolve_output_dir(config: ExperimentConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("FEDPROMPT_OUT")
    return Path(env) if env else Path(config.output_dir)


def run(config: ExperimentConfig, jobs: int = 1, dry_run: bool = False,
        seed_offset: int = 0, output_dir: str | None = None) -> RunResult:
    """Execute every cell, then write results.csv/results.json/curves.jsonl.

    A cell that fails becomes an entry of failures.json; an error while the
    run's state is built (a bad feature table, say) raises before any file
    is written. A dry run prints the cell plan after `check_datasets`."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    out_dir = resolve_output_dir(config, output_dir)
    cells = plan_cells(config, seed_offset)
    if dry_run:
        check_datasets(config)
        print(f"would execute {len(cells)} cells:")
        for cell in cells:
            print(f"  {cell.scenario} / {cell.method} / {cell.dataset} / seed {cell.seed}")
        print(f"would write results under {out_dir}")
        return RunResult(exit_code=0, observations=[], output_dir=out_dir, failures=[])

    keys = [(c.scenario, c.method, c.dataset, c.seed) for c in cells]
    # the cells run the config as serialized, seed offset included
    config = parse_config_text(serialize_config(
        replace(config, seeds=[s + seed_offset for s in config.seeds])))
    state = build_run_state(config, materialize_datasets(config))
    workers = min(jobs, len(keys))  # a pool starts all its workers up front
    if workers > 1:
        for noise in state.noise.values():  # drawn once: workers inherit or unpickle the values
            noise.values()
        with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context(),
                                 initializer=_adopt_state, initargs=(state,)) as pool:
            outcomes = list(pool.map(_execute_in_worker, keys))
    else:
        outcomes = [_execute_cell((state, *key)) for key in keys]

    observations: list[Observation] = []
    curves: list[dict] = []
    failures: list[dict] = []
    for cell_key, cell_observations, cell_curves, error in outcomes:
        if error is not None:
            failures.append({"cell": cell_key, "error": error})
            continue
        observations.extend(cell_observations)
        curves.extend(cell_curves)
    observations.sort()

    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale_reports(out_dir)
    _write_atomic(out_dir / RESULTS_CSV, _results_csv_text(observations))
    _write_atomic(out_dir / RESULTS_JSON,
                  json.dumps(_results_tree(observations), indent=2, sort_keys=True) + "\n")
    _write_atomic(out_dir / CURVES_JSONL, _curves_text(curves))
    if failures:
        _write_atomic(out_dir / FAILURES_JSON, json.dumps(failures, indent=2, sort_keys=True))
    else:  # a manifest left by an earlier run into this directory
        (out_dir / FAILURES_JSON).unlink(missing_ok=True)
    return RunResult(exit_code=1 if failures else 0, observations=observations,
                     output_dir=out_dir, failures=failures)


def _write_atomic(path: Path, text: str) -> None:
    """Write text beside path, then rename it over path, so readers never see half a file."""
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _remove_stale_reports(out_dir: Path, keep=()) -> None:
    """Delete the report and cost-curve files in out_dir not named in `keep`:
    they describe other results than the ones in its results.csv."""
    for stale in [*out_dir.glob("report_*.csv"), *out_dir.glob("costcurve_*.csv")]:
        if stale.name not in keep:
            stale.unlink()


def _results_csv_text(observations: list[Observation]) -> str:
    rows = [f"{o.scenario},{o.method},{o.dataset},{o.seed},{o.metric},{o.value!r}"
            for o in observations]
    return "\n".join([RESULTS_HEADER, *rows]) + "\n"


def _results_tree(observations: list[Observation]) -> dict:
    """The run's one aggregate, nested as results.json: scenario, method,
    dataset, metric -> the values by seed, their mean, population std and
    `n_runs`. Observations come sorted, so each mean sums in seed order."""
    tree: dict = {}
    for o in observations:
        cells = tree.setdefault(o.scenario, {}).setdefault(o.method, {}).setdefault(o.dataset, {})
        cells.setdefault(o.metric, {"values": {}})["values"][str(o.seed)] = o.value
    for scenario in tree.values():
        for method in scenario.values():
            for dataset in method.values():
                for metric in dataset.values():
                    metric["mean"], metric["std"] = aggregate_runs(metric["values"].values())
                    metric["n_runs"] = len(metric["values"])
    return tree


def _curves_text(curves: list[dict]) -> str:
    ordered = sorted(
        curves,
        key=lambda r: (r["scenario"], r["method"], r["dataset"], r["seed"], r["round"]),
    )
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in ordered)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_results_csv(path: Path) -> list[Observation]:
    """A results.csv's observations, sorted. A malformed row (a non-finite
    value included) or a repeated (scenario, method, dataset, seed, metric)
    key is an error naming its line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise EvaluationError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != RESULTS_HEADER:
        raise EvaluationError(f"{path}: not a results.csv file")
    observations: dict[tuple, Observation] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            scenario, method, dataset, seed, metric, value = line.split(",", 5)
            o = Observation(scenario, method, dataset, int(seed), metric, float(value))
            if not math.isfinite(o.value):
                raise ValueError(f"value {value!r} is not finite")
        except ValueError as exc:
            raise EvaluationError(f"{path}:{number}: malformed row: {exc}") from exc
        key = (scenario, method, dataset, o.seed, metric)
        if key in observations:
            raise EvaluationError(f"{path}:{number}: repeats the row of {key}")
        observations[key] = o
    return sorted(observations.values())


def _grid_lines(by_method: dict, metric: str) -> list[str]:
    """A scenario's method x dataset grid of one metric's mean±std, with the
    `#` superiority column when the baseline covers every dataset."""
    rows = {method: {dataset: cells[metric] for dataset, cells in by_dataset.items()
                     if metric in cells}
            for method, by_dataset in sorted(by_method.items())}
    rows = {method: row for method, row in rows.items() if row}
    datasets = sorted({dataset for row in rows.values() for dataset in row})
    is_cost = metric.startswith("chi")
    cell = "{mean:.4g}±{std:.2g}" if is_cost else "{mean:.1f}±{std:.1f}"
    baseline = rows.get(BASELINE_METHOD, {})
    ranked = len(rows) > 1 and not is_cost and len(baseline) == len(datasets)
    lines = [",".join(["method", *datasets, *(["#"] if ranked else [])])]
    for method, row in rows.items():
        fields = [method] + [cell.format(**row[d]) if d in row else "" for d in datasets]
        if ranked:
            if method in (BASELINE_METHOD, ZERO_SHOT_METHOD) or len(row) < len(datasets):
                fields.append("-")
            else:
                fields.append(str(superiority_indicator([row[d]["mean"] for d in datasets],
                                                        [baseline[d]["mean"] for d in datasets])))
        lines.append(",".join(fields))
    return lines


def _grid_legend(by_method: dict, metric: str, header: str) -> str:
    """What a grid's cells and its `#` column are."""
    runs = sorted({cells[metric]["n_runs"] for by_dataset in by_method.values()
                   for cells in by_dataset.values() if metric in cells})
    seeds = str(runs[0]) if len(runs) == 1 else f"{runs[0]}-{runs[-1]}"
    legend = f"mean±std over {seeds} seed(s), population std (ddof = 0)"
    if header.endswith(",#"):
        legend += f"; # = datasets where the mean strictly beats {BASELINE_METHOD}'s"
    return legend


def report(results_dir: str) -> str:
    """Write per-scenario comparison grids and cost-curve files from the
    results.csv of a run, removing those of earlier reports that this one
    does not write; return a summary."""
    results_dir = Path(results_dir)
    tree = _results_tree(load_results_csv(results_dir / RESULTS_CSV))
    files: dict[str, str] = {}  # file name -> text
    chunks: list[str] = []
    for scenario, by_method in sorted(tree.items()):
        metrics = sorted({metric for by_dataset in by_method.values()
                          for cells in by_dataset.values() for metric in cells})
        for metric in metrics:
            if scenario == "cost_tradeoff" and metric == "chi_millions":
                continue
            lines = _grid_lines(by_method, metric)
            if (not lines[0].endswith(",#") and not metric.startswith("chi")
                    and len(by_method) > 1):
                chunks.append(f"[{scenario}/{metric}] baseline '{BASELINE_METHOD}' missing; "
                              "superiority column omitted")
            files[f"report_{scenario}_{metric}.csv"] = "\n".join(lines) + "\n"
            chunks.append(f"# {scenario} / {metric}: {_grid_legend(by_method, metric, lines[0])}")
            chunks.extend(lines)
            chunks.append("")
    # (params, accuracy) of each cost_tradeoff sweep point, by method
    for method, by_dataset in sorted(tree.get("cost_tradeoff", {}).items()):
        points = sorted((cells["chi_millions"]["mean"], cells["alpha_g"]["mean"], dataset)
                        for dataset, cells in by_dataset.items()
                        if "chi_millions" in cells and "alpha_g" in cells)
        if not points:
            continue
        lines = ["params_millions,accuracy,dataset"]
        lines += [f"{chi!r},{acc!r},{dataset}" for chi, acc, dataset in points]
        files[f"costcurve_{method}.csv"] = "\n".join(lines) + "\n"
        chunks.append(f"wrote costcurve_{method}.csv ({len(points)} sweep points)")
    _remove_stale_reports(results_dir, keep=files)
    for name, text in files.items():
        _write_atomic(results_dir / name, text)
    return "\n".join(chunks)
