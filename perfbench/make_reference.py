"""Regenerate reference.json: each workload's results at the reference seeds.

    python3 perfbench/make_reference.py

Runs every workload once per reference seed on the current code and
stores its observations and per-round train losses with the digest of
the inputs they came from.
Regenerate only when a workload's inputs change on purpose, or when a
change to the program is meant to change its results (and say so).
"""

import json
import os
import shutil
import sys

import run

REFERENCE_SEEDS = range(10)


def main() -> int:
    os.environ.update(run.BLAS_ENV)
    reference = {}
    for w in run.WORKLOADS.values():
        reference[w.name] = {}
        for seed in REFERENCE_SEEDS:
            work = run.WORK_ROOT / f"reference-{w.name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                digest = run.write_inputs(w, seed, work)
                _result, verdict = run.checked_run(w, seed, work, run.Deadline(run.HARD_LIMIT_S),
                                                   None, 0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if verdict["problems"] or verdict["failed_cells"] or verdict["wrong_obs"]:
                print(f"{w.name} seed {seed}: {verdict}", file=sys.stderr)
                return 1
            reference[w.name][str(seed)] = {
                "inputs_sha256": digest,
                "observations": verdict["rows"],
                "train_loss": verdict["train_loss"],
            }
            print(f"{w.name} seed {seed}: {len(verdict['rows'])} observations, "
                  f"{len(verdict['train_loss'])} rounds", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
