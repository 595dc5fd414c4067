"""One fresh benchmark process: `setup`, `run` or `traced`.

    python3 child.py setup  CONFIG RESULT
    python3 child.py run    CONFIG RESULT OUT_DIR
    python3 child.py traced CONFIG RESULT OUT_DIR SPANS

`setup` times what every run pays before training: importing
`fedprompt`, parsing the config, materializing its datasets and building
the frozen assets. `run` times `fedprompt run --jobs 1` (every cell plus
the result-file writes) and reports the peak resident memory of this
process. `traced` is `run` with the outside-in tracer installed. Each
mode writes its measurements as JSON to RESULT. `run.py` starts this
script with PYTHONPATH naming the checkout's `src` and BLAS held to one
thread.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _check_source(fedprompt_module) -> None:
    expected = Path(os.environ["PERFBENCH_SRC"]).resolve()
    actual = Path(fedprompt_module.__file__).resolve().parent.parent
    if actual != expected:
        raise SystemExit(f"imported fedprompt from {actual}, expected {expected}")


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:   # no /proc: the thread count stays unknown
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _host() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:   # numpy before 1.25 only prints its config
        blas = {}
    return {
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def setup(config_path: str) -> dict:
    start = time.perf_counter()
    import fedprompt
    from fedprompt.config import materialize_datasets, parse_config
    from fedprompt.vlm import build_assets

    config = parse_config(config_path)
    datasets = materialize_datasets(config)
    for master in datasets.values():
        build_assets(config.model, master.class_count)
    setup_s = time.perf_counter() - start
    _check_source(fedprompt)
    return {"setup_s": setup_s}


def run(config_path: str, out_dir: str, spans_path: str | None = None) -> dict:
    import fedprompt
    from fedprompt import cli

    _check_source(fedprompt)
    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    exit_code = cli.main(["run", config_path, "--jobs", "1", "--out", out_dir])
    run_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"run_s": run_s, "exit_code": exit_code, "peak_rss_mb": peak_kb / 1024.0,
              "host": _host()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "request"]}\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def main(argv: list[str]) -> int:
    mode, config_path, result_path, *rest = argv
    if mode == "setup":
        result = setup(config_path)
    elif mode == "run":
        result = run(config_path, rest[0])
    elif mode == "traced":
        result = run(config_path, rest[0], spans_path=rest[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
