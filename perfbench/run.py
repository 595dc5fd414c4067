"""fedprompt benchmark: three `fedprompt run` workloads, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement is a fresh
single-process `fedprompt run --jobs 1` (or a fresh set-up process) with
BLAS held to one thread, built from the checkout's own `src/`.

--trace 0  repeats the workload until S seconds have passed (at least
           twice, so a rerun can be compared byte for byte), interleaved
           with fresh set-up processes, and reports the end-to-end
           metrics as medians.
--trace 1  alternates untraced runs and runs with the outside-in tracer
           (tracer.py) until S seconds have passed (one pair at least) and
           reports the per-layer metrics as medians over the traced runs.

Both modes check every output against the workload's plan and, at the
reference seeds, against reference.json; the last stdout line is the
JSON result and the exit code is 1 when a check fails. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# One BLAS thread: the simulator's claim is about one CPU core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_REPS = 2            # a rerun to compare byte for byte
MAX_REPS = 12
MIN_SETUPS_PER_REP = 2
SETUP_SHARE = 0.2       # after each run, set-up processes for this share of its time
HARD_LIMIT_S = 170.0    # the whole invocation, including input generation
ACCURACY_TOLERANCE = 2.5  # percentage points against reference.json (two test samples)
LOSS_RTOL = 1e-6          # per-round train loss against reference.json, relative
# Share of traced run_s that may stay in the catch-all spans (runner.run and
# evaluation.run_cell self time, plus cli.main outside runner.run). About 1%
# is measured; an unwrapped call made from those two lands there.
CATCH_ALL_SHARE = 0.05

# model dimensions the configs leave at their paper defaults
CONTEXT_SCALARS = 1 * 4 * 512     # prompts x tokens x d_token
META_HIDDEN = 64
D_TOKEN = 512
TABLE_CLASSES, TABLE_SAMPLES, TABLE_DIM = 10, 200, 512
TABLE_FILE = "features.txt"
EXPERIMENT_SEED = 0
CROSS_TARGETS = 2
SAMPLED_CLIENTS = 10              # standard: 10 of 10; partial: 10% of 100
ALL_METHODS = ("zsclip", "promptfl", "kgcoop", "prograd", "proda", "src", "cocoop", "plot",
               "fedotp")
TRAINED_EVERYWHERE = ("vlm.encode", "vlm.backward", "vlm.build_assets", "algorithms.grad_step",
                      "algorithms.sgd_momentum_step", "algorithms.build_predictor",
                      "evaluation.evaluate_predictor", "evaluation.run_cell",
                      "config.parse_config_text", "data.materialize_datasets",
                      "data.ensure_local_maps", "transport.sinkhorn_batched",
                      "federation.run_federation", "federation.build_clients",
                      "federation.run_round", "federation.fedavg_aggregate", "runner.run")


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    methods: tuple
    protocol: str
    encoder: str
    rounds: int
    table: bool           # a generated feature table instead of synthetic data
    required: tuple       # layers that must record calls

    def dataset(self, seed: int) -> str:
        return "features" if self.table else f"synthetic#{seed}"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="global_linear",
        scenarios=("global",), methods=ALL_METHODS, protocol="standard",
        encoder="linear_pool", rounds=8, table=False,
        required=TRAINED_EVERYWHERE + ("algorithms.metanet",),
    ),
    Workload(
        name="global_attention",
        scenarios=("global",), methods=ALL_METHODS, protocol="standard",
        encoder="attention_block", rounds=1, table=False,
        required=TRAINED_EVERYWHERE + ("algorithms.metanet",),
    ),
    Workload(
        name="table_partial_shift",
        scenarios=("personalized", "cross_domain"), methods=("zsclip", "promptfl", "fedotp"),
        protocol="partial", encoder="linear_pool", rounds=3, table=True,
        required=TRAINED_EVERYWHERE + ("data.apply_domain_shift",),
    ),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def config_text(w: Workload, seed: int) -> str:
    # The workload seed picks the data and the frozen encoder. The experiment
    # seed, which draws the splits, partitions and client samples, stays fixed,
    # so every workload seed trains the same number of clients and batches.
    lines = [
        "[experiment]",
        f"scenarios = {','.join(w.scenarios)}",
        f"methods = {','.join(w.methods)}",
        f"seeds = {EXPERIMENT_SEED}",
        "[federation]",
        f"protocol = {w.protocol}",
        f"rounds = {w.rounds}",
        "[model]",
        f"encoder = {w.encoder}",
        f"seed = {seed}",
    ]
    if w.table:
        lines += [f"d_feature = {TABLE_DIM}", f"d_image = {TABLE_DIM}"]
    lines += ["[data]", f"datasets = {TABLE_FILE if w.table else w.dataset(seed)}",
              "[scenario]", f"cross_targets = {CROSS_TARGETS}"]
    return "\n".join(lines) + "\n"


def write_table(path: Path, seed: int) -> None:
    """Unit rows around random unit class prototypes, one repr(float) per value.

    Generated here rather than by fedprompt.data, so a change to the
    program cannot change the benchmark's input.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(TABLE_CLASSES, TABLE_DIM))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# d={TABLE_DIM} classes={TABLE_CLASSES}\n")
        for label in range(TABLE_CLASSES):
            rows = protos[label] + 0.1 * rng.normal(size=(TABLE_SAMPLES, TABLE_DIM))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            for row in rows.tolist():
                fh.write(f"{label},0," + ",".join(map(repr, row)) + "\n")


def write_inputs(w: Workload, seed: int, work: Path) -> str:
    """Write the workload's config (and table) into `work`; return their digest."""
    (work / "config.ini").write_text(config_text(w, seed), encoding="utf-8")
    if w.table:
        write_table(work / TABLE_FILE, seed)
    digest = hashlib.sha256()
    for name in sorted(p.name for p in work.iterdir() if p.is_file()):
        digest.update(name.encode())
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def payload_scalars(method: str, d_image: int) -> int:
    """Scalars one client exchanges per direction and round, from the method definitions."""
    if method in ("proda", "fedotp"):   # two prompt sets (fedotp: global mode)
        return 2 * CONTEXT_SCALARS
    if method == "cocoop":              # context plus the two-layer conditioning net
        return (CONTEXT_SCALARS + META_HIDDEN * d_image + META_HIDDEN
                + D_TOKEN * META_HIDDEN + D_TOKEN)
    return CONTEXT_SCALARS


def planned(w: Workload, seed: int) -> dict[tuple, list[str]]:
    """Every planned cell mapped to the results.csv keys (all but the value) it must produce."""
    dataset, s = w.dataset(seed), EXPERIMENT_SEED
    plan = {}
    for scenario in w.scenarios:
        for method in w.methods:
            if scenario == "global":
                keys = [f"{scenario},{method},{dataset},{s},alpha_g",
                        f"{scenario},{method},{dataset},{s},chi_millions"]
            elif scenario == "personalized":
                keys = [f"{scenario},{method},{dataset},{s},alpha_p"]
            else:
                keys = [f"{scenario},{method},{dataset}->shift{k},{s},alpha_xd"
                        for k in range(1, CROSS_TARGETS + 1)]
            plan[(scenario, method, dataset, s)] = keys
    return plan


def rounds_expected(w: Workload) -> int:
    trained = sum(1 for m in w.methods if m != "zsclip")
    return len(w.scenarios) * trained * w.rounds


def _observation_ok(w: Workload, key: str, value: float, reference: dict | None) -> bool:
    _scenario, method, _dataset, _seed, metric = key.split(",")
    if not math.isfinite(value):
        return False
    if metric == "chi_millions":
        scalars = round(value * 1e6)
        if method == "zsclip":
            ok = value == 0.0
        else:
            per_exchange = 2 * payload_scalars(method, TABLE_DIM if w.table else 1024)
            ok = (0 < scalars <= per_exchange * SAMPLED_CLIENTS * w.rounds
                  and scalars % per_exchange == 0)
    else:
        ok = 0.0 <= value <= 100.0
    if ok and reference is not None:
        expected = reference["observations"].get(key)
        if expected is None:
            return False
        if metric == "chi_millions":
            ok = value == expected
        else:
            ok = abs(value - expected) <= ACCURACY_TOLERANCE
    return ok


def check_outputs(w: Workload, seed: int, out_dir: Path, exit_code: int | None,
                  reference: dict | None) -> dict:
    """Failed cells, wrong observations and structural problems of one run's output."""
    plan = planned(w, seed)
    n_keys = sum(len(keys) for keys in plan.values())
    verdict = {"cells": len(plan), "failed_cells": len(plan), "observations": n_keys,
               "wrong_obs": n_keys, "rounds": 0, "problems": [], "digest": None}
    problems = verdict["problems"]
    if exit_code != 0:
        problems.append(f"fedprompt run exited {exit_code}")
    csv_path, json_path, curves_path = (out_dir / n for n in
                                        ("results.csv", "results.json", "curves.jsonl"))
    if not all(p.exists() for p in (csv_path, json_path, curves_path)):
        problems.append("result files missing")
        return verdict

    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "scenario,method,dataset,seed,metric,value":
        problems.append("results.csv header is wrong")
        return verdict
    rows: dict[str, float] = {}
    for line in lines[1:]:
        try:
            key, value = line.rsplit(",", 1)
            value = float(value)
            if key.count(",") != 4:
                raise ValueError(line)
        except ValueError:
            problems.append(f"malformed results.csv row {line!r}")
            return verdict
        if key in rows:
            problems.append(f"duplicate row {line}")
        rows[key] = value
    expected_keys = {k for keys in plan.values() for k in keys}
    if set(rows) - expected_keys:
        problems.append(f"{len(set(rows) - expected_keys)} unplanned rows in results.csv")

    failed = set()
    failures_path = out_dir / "failures.json"
    if failures_path.exists():
        for entry in json.loads(failures_path.read_text(encoding="utf-8")):
            c = entry["cell"]
            failed.add((c["scenario"], c["method"], c["dataset"], c["seed"]))
    wrong = 0
    for cell, keys in plan.items():
        if any(k not in rows for k in keys):
            failed.add(cell)
        wrong += sum(1 for k in keys
                     if k not in rows or not _observation_ok(w, k, rows[k], reference))
    verdict["failed_cells"] = len(failed)
    verdict["wrong_obs"] = wrong

    # results.json must hold exactly the CSV's values, with matching n_runs and means
    tree = json.loads(json_path.read_text(encoding="utf-8"))
    groups: dict[tuple, list] = {}
    for key, value in rows.items():
        scenario, method, dataset, s, metric = key.split(",")
        groups.setdefault((scenario, method, dataset, metric), []).append((s, value))
    n_json = sum(len(entry["values"]) for sc in tree.values() for me in sc.values()
                 for ds in me.values() for entry in ds.values())
    if n_json != len(rows):
        problems.append(f"results.json holds {n_json} values, results.csv {len(rows)}")
    for (scenario, method, dataset, metric), values in groups.items():
        entry = tree.get(scenario, {}).get(method, {}).get(dataset, {}).get(metric)
        if (entry is None or entry.get("n_runs") != len(values)
                or entry["values"] != dict(values)
                or not math.isclose(entry["mean"], math.fsum(v for _, v in values) / len(values),
                                    rel_tol=1e-12, abs_tol=1e-12)):
            problems.append(f"results.json disagrees with results.csv on "
                            f"{scenario}/{method}/{dataset}/{metric}")

    # train loss per round is continuous, so it shows changes the best accuracy hides
    losses = {}
    for line in curves_path.read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        losses[f"{r['scenario']},{r['method']},{r['dataset']},{r['seed']},{r['round']}"] = (
            r["train_loss"])
    verdict["rounds"] = len(losses)
    if verdict["rounds"] != rounds_expected(w) and not failed:
        problems.append(f"curves.jsonl holds {verdict['rounds']} rounds, "
                        f"planned {rounds_expected(w)}")
    if reference is not None:
        drifted = [k for k, v in reference["train_loss"].items()
                   if k not in losses or not _same_loss(losses[k], v)]
        if drifted:
            problems.append(f"train_loss of {len(drifted)} rounds is off reference.json "
                            f"by more than {LOSS_RTOL:g} relative")
    verdict["digest"] = hashlib.sha256(b"".join(
        p.read_bytes() for p in (csv_path, json_path, curves_path))).hexdigest()
    verdict["rows"], verdict["train_loss"] = rows, losses
    return verdict


def _same_loss(value: float | None, expected: float | None) -> bool:
    if value is None or expected is None:   # a round in which no client trained
        return value is expected
    return math.isclose(value, expected, rel_tol=LOSS_RTOL, abs_tol=0.0)


def load_reference(w: Workload, seed: int, digest: str) -> tuple[dict | None, str | None]:
    """Reference observations and train losses, if the seed is a reference seed."""
    if not REFERENCE.exists():
        return None, None
    entry = json.loads(REFERENCE.read_text(encoding="utf-8")).get(w.name, {}).get(str(seed))
    if entry is None:
        return None, None
    if entry["inputs_sha256"] != digest:
        return None, "reference.json was made from other inputs than this workload generates"
    return entry, None


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def run_child(mode: str, work: Path, deadline: Deadline, problems: list[str],
              *extra: str) -> dict | None:
    """One fresh process; its JSON result, or None (with the reason in `problems`)."""
    result_path = work / f"{mode}.result.json"
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PERFBENCH_SRC"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"      # the same interpreter behaviour in every repetition
    argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, "config.ini",
            str(result_path), *extra]
    log_path = work / f"{mode}.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, deadline.left()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append(f"{mode} process ran out of time")
            return None
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        problems.append(f"{mode} process exited {code}: {tail[-1] if tail else 'no output'}")
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def checked_run(w, seed, work, deadline, reference, index, traced=False):
    out_dir = work / f"out{index}"
    extra = [str(out_dir)] + ([str(work / "spans.jsonl")] if traced else [])
    errors: list[str] = []
    result = run_child("traced" if traced else "run", work, deadline, errors, *extra)
    verdict = check_outputs(w, seed, out_dir, None if result is None else result["exit_code"],
                            reference)
    verdict["problems"] += errors
    shutil.rmtree(out_dir, ignore_errors=True)
    return result, verdict


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():   # a plain checkout; git would look in parent directories
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(w, seed, args, work, host) -> dict:
    import numpy as np

    table = work / TABLE_FILE
    return {
        "workload": w.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_name": host.get("blas_name"), "blas_version": host.get("blas_version"),
        "blas_threads": host.get("blas_threads"), "blas_thread_env": BLAS_ENV,
        "git_sha": git_sha(), "src_sha256": source_sha(),
        "table_bytes": table.stat().st_size if table.exists() else 0,
        "config": config_text(w, seed),
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _spread(values: list[float]) -> str:
    if not values:
        return "no samples"
    return (f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}: " + " ".join(f"{v:.4g}" for v in values))


def measure_untraced(w, seed, seconds, work, deadline, reference):
    budget = Deadline(seconds)
    runs, verdicts, setups, problems = [], [], [], []
    while len(runs) < MAX_REPS:
        cycle = time.monotonic()
        result, verdict = checked_run(w, seed, work, deadline, reference, len(runs))
        runs.append(result)
        verdicts.append(verdict)
        # set-up is short and noisy, so it gets many samples: a fixed share of each run
        run_s = time.monotonic() - cycle
        spent, done = 0.0, 0
        while done < MIN_SETUPS_PER_REP or spent < SETUP_SHARE * run_s:
            started = time.monotonic()
            setup = run_child("setup", work, deadline, problems)
            if setup is None:
                break
            setups.append(setup["setup_s"])
            spent += time.monotonic() - started
            done += 1
        cycle = time.monotonic() - cycle
        enough = len(runs) >= MIN_REPS and budget.left() < cycle
        if enough or deadline.left() < 1.5 * cycle:
            break
    timed = [(r, v) for r, v in zip(runs, verdicts) if r is not None]
    run_s = [r["run_s"] for r, _ in timed]
    lines = [f"run_s: {_spread(run_s)}", f"setup_s: {_spread(setups)}"]
    metrics = {
        "run_s": (statistics.median(run_s) if run_s else float("nan"), "s"),
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
        "rounds_per_s": (statistics.median(v["rounds"] / r["run_s"] for r, v in timed)
                         if timed else float("nan"), "rounds/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r, _ in timed)
                        if timed else float("nan"), "MB"),
    }
    if len(runs) < MIN_REPS:
        problems.append("no time left for a rerun")
    elif len({v["digest"] for v in verdicts}) != 1:
        problems.append("reruns of the same seed differ")
    host = timed[0][0]["host"] if timed else {}
    return metrics, verdicts, problems, lines, host


def measure_traced(w, seed, seconds, work, deadline, reference):
    """Alternating untraced and traced runs until `seconds` have passed (one pair at least)."""
    budget = Deadline(seconds)
    plains, traceds, verdicts, problems = [], [], [], []
    while True:
        pair = time.monotonic()
        index = 2 * len(plains)
        plain, plain_verdict = checked_run(w, seed, work, deadline, reference, index)
        traced, traced_verdict = checked_run(w, seed, work, deadline, reference, index + 1,
                                             traced=True)
        verdicts += [plain_verdict, traced_verdict]
        if plain is None or traced is None:   # the verdicts say why
            return {}, verdicts, problems, [], {}
        plains.append(plain)
        traceds.append(traced)
        pair = time.monotonic() - pair
        if budget.left() < pair or deadline.left() < 1.5 * pair:
            break
    if len({v["digest"] for v in verdicts}) != 1:
        problems.append("traced results.csv/results.json/curves.jsonl differ from untraced")

    layers = {name: statistics.median(t["layers"][name] for t in traceds)
              for name in traceds[0]["layers"]}
    for layer in w.required:
        if layers[f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} recorded no calls; a trace site was missed")
    # Self times sum to the traced run_s by construction, so their total
    # proves nothing. What the trace did not attribute to a layer of its own
    # is the catch-all: runner.run and run_cell self time, and cli.main
    # outside runner.run. An unwrapped call under those lands there; one
    # deeper down lands in its caller's layer and only the zero-calls check
    # catches it.
    catch_alls = []
    for t in traceds:
        own = t["layers"]
        self_total = sum(v for k, v in own.items() if k.endswith(".self_s"))
        catch_all = (own["runner.run.self_s"] + own["evaluation.run_cell.self_s"]
                     + t["run_s"] - self_total)
        catch_alls.append(catch_all)
        if catch_all > CATCH_ALL_SHARE * t["run_s"]:
            problems.append(f"{catch_all:.3f} s of a {t['run_s']:.3f} s traced run is in no "
                            f"layer of its own (more than {CATCH_ALL_SHARE:.0%})")
    metrics = {name: (layers[name], unit) for name, unit in layer_metric_units().items()
               if name in layers}
    overheads = [t["run_s"] - p["run_s"] for p, t in zip(plains, traceds)]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["trace.unattributed_s"] = (statistics.median(catch_alls), "s")
    spans = WORK_ROOT / f"{w.name}-seed{seed}.spans.jsonl"
    shutil.move(str(work / "spans.jsonl"), str(spans))
    lines = [f"untraced run_s: {_spread([p['run_s'] for p in plains])}",
             f"traced run_s: {_spread([t['run_s'] for t in traceds])}",
             f"trace.overhead_s, traced minus untraced per pair: {_spread(overheads)}",
             f"per-layer values are medians over the traced runs; spans of the last one "
             f"written to {spans}"]
    return metrics, verdicts, problems, lines, traceds[0]["host"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced mode prints, with its unit."""
    import tracer

    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for counter in tracer.COUNTERS:
        units[counter] = "count"
    units["federation.participation_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["failed_cells"] = "ratio"
    units["wrong_obs"] = "ratio"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedprompt" / "__init__.py").is_file():
        print(f"error: no fedprompt sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    w = WORKLOADS[args.workload]
    deadline = Deadline(HARD_LIMIT_S)

    work = WORK_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference, reference_problem = load_reference(w, args.seed,
                                                      write_inputs(w, args.seed, work))
        if args.trace:
            metrics, verdicts, problems, lines, host = measure_traced(
                w, args.seed, args.seconds, work, deadline, reference)
        else:
            metrics, verdicts, problems, lines, host = measure_untraced(
                w, args.seed, args.seconds, work, deadline, reference)
        if reference_problem:
            problems.append(reference_problem)
        for verdict in verdicts:
            problems.extend(verdict["problems"])
        attempted = sum(v["cells"] for v in verdicts)
        failed = sum(v["failed_cells"] for v in verdicts)
        wrong = sum(v["wrong_obs"] for v in verdicts)
        expected = sum(v["observations"] for v in verdicts)
        if args.trace:
            metrics["failed_cells"] = (failed / attempted, "ratio")
            metrics["wrong_obs"] = (wrong / expected, "ratio")
        correct = (not problems and failed == 0 and wrong == 0
                   and all(math.isfinite(v) for v, _unit in metrics.values()))
        record = {
            "provenance": provenance(w, args.seed, args, work, host),
            "reference_checked": reference is not None,
            "failed_cells": f"{failed}/{attempted}", "wrong_obs": f"{wrong}/{expected}",
            "problems": sorted(set(problems)),
            "samples": lines,
            # a metric nothing was measured for is left out, and the run is not correct
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if math.isfinite(v)},
        }
        record_path = WORK_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_cells {record['failed_cells']}, wrong_obs {record['wrong_obs']}, "
          f"reference checked: {record['reference_checked']}")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
