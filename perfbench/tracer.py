"""Outside-in span tracer for one `fedprompt run` process.

`install()` replaces each layer's public functions with a timing wrapper
at the place where the calling module looks the name up (the package
imports by name, so patching the defining module alone would miss every
call). Nothing under `src/` is edited. Spans are kept in memory and
turned into per-layer metrics when the run ends.

A span is [name, start_ns, end_ns, parent_index, request]; `request` is
the cell key (scenario/method/dataset/seed) of the cell being executed.
A span's self time is its duration minus the durations of its direct
children, which (single thread, strictly nested calls) never overlap.
"""

import functools
import importlib
import time
from collections import defaultdict

# (module whose global is looked up, attribute, layer name)
_FUNCTION_SITES = [
    ("cli", "run", "runner.run"),
    ("runner", "parse_config_text", "config.parse_config_text"),
    ("runner", "materialize_datasets", "data.materialize_datasets"),
    ("runner", "run_cell", "evaluation.run_cell"),
    ("evaluation", "build_assets", "vlm.build_assets"),
    ("evaluation", "apply_domain_shift", "data.apply_domain_shift"),
    ("evaluation", "run_federation", "federation.run_federation"),
    ("evaluation", "build_clients", "federation.build_clients"),
    ("evaluation", "evaluate_predictor", "evaluation.evaluate_predictor"),
    ("algorithms", "sinkhorn_batched", "transport.sinkhorn_batched"),
    ("algorithms", "metanet_forward", "algorithms.metanet"),
    ("algorithms", "metanet_backward", "algorithms.metanet"),
    ("algorithms", "sgd_momentum_step", "algorithms.sgd_momentum_step"),
    ("federation", "run_round", "federation.run_round"),
    ("federation", "fedavg_aggregate", "federation.fedavg_aggregate"),
]

# (module, class, method, layer name)
_METHOD_SITES = [
    ("vlm", "FrozenTextEncoder", "encode", "vlm.encode"),
    ("vlm", "FrozenTextEncoder", "backward", "vlm.backward"),
    ("data", "MasterDataset", "ensure_local_maps", "data.ensure_local_maps"),
]

# every layer that gets .calls and .self_s
LAYERS = sorted({site[-1] for site in _FUNCTION_SITES + _METHOD_SITES}
                | {"algorithms.grad_step", "algorithms.build_predictor"})

COUNTERS = (
    "vlm.encode.seqs", "vlm.encode.token_rows", "vlm.backward.seqs",
    "transport.sinkhorn_batched.problems", "evaluation.evaluate_predictor.samples",
    "federation.clients_sampled", "federation.clients_trained",
    "federation.clients_skipped", "federation.clients_failed", "federation.scalars_moved",
)


def _count_encode(counts, args, kwargs, result):
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    seqs = 1 if tokens.ndim == 2 else tokens.shape[0]
    counts["vlm.encode.seqs"] += seqs
    counts["vlm.encode.token_rows"] += seqs * tokens.shape[-2]


def _count_backward(counts, args, kwargs, result):
    counts["vlm.backward.seqs"] += result.shape[0]


def _count_sinkhorn(counts, args, kwargs, result):
    problems = 1
    for extent in result.shape[:-2]:
        problems *= extent
    counts["transport.sinkhorn_batched.problems"] += problems


def _count_eval(counts, args, kwargs, result):
    labels = args[2] if len(args) > 2 else kwargs["labels"]
    counts["evaluation.evaluate_predictor.samples"] += len(labels)


def _count_round(counts, args, kwargs, report):
    # from the RoundReport the round returns, never from the skip warnings
    counts["federation.clients_sampled"] += len(report.sampled)
    counts["federation.clients_trained"] += len(report.participating) - len(report.failed)
    counts["federation.clients_skipped"] += len(report.skipped_empty)
    counts["federation.clients_failed"] += len(report.failed)
    counts["federation.scalars_moved"] += report.download_scalars + report.upload_scalars


_COUNTERS_BY_LAYER = {
    "vlm.encode": _count_encode,
    "vlm.backward": _count_backward,
    "transport.sinkhorn_batched": _count_sinkhorn,
    "evaluation.evaluate_predictor": _count_eval,
    "federation.run_round": _count_round,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = _COUNTERS_BY_LAYER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """`<layer>.calls` and `<layer>.self_s` for every layer, plus work counts."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for (name, start, end, _parent, _req), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for key in COUNTERS:
            metrics[key] = self.counts[key]
        sampled = self.counts["federation.clients_sampled"]
        metrics["federation.participation_ratio"] = (
            self.counts["federation.clients_trained"] / sampled if sampled else 0.0)
        metrics["trace.spans"] = len(self.spans)
        return metrics


def _wrap_site(tracer: Tracer, owner, attribute: str, layer: str) -> None:
    # a renamed or removed site must fail the run, not go silently untraced
    if attribute not in vars(owner):
        raise RuntimeError(f"trace site {owner.__name__}.{attribute} no longer exists")
    setattr(owner, attribute, tracer.wrap(layer, vars(owner)[attribute]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported `fedprompt` package."""
    def mod(name):
        return importlib.import_module(f"fedprompt.{name}")

    for module, attribute, layer in _FUNCTION_SITES:
        _wrap_site(tracer, mod(module), attribute, layer)
    for module, cls_name, method, layer in _METHOD_SITES:
        _wrap_site(tracer, getattr(mod(module), cls_name), method, layer)

    # every trainer's own grad_step / build_predictor, base class included
    pending = [mod("algorithms").LocalTrainer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, layer in (("grad_step", "algorithms.grad_step"),
                              ("build_predictor", "algorithms.build_predictor")):
            if method in vars(cls):
                _wrap_site(tracer, cls, method, layer)

    # cell key as request id; not a span, so its own time stays with runner.run
    runner = mod("runner")
    execute_cell = vars(runner)["_execute_cell"]

    def keyed_execute_cell(args):
        _text, scenario, method, dataset, seed = args
        tracer.request = f"{scenario}/{method}/{dataset}/{seed}"
        try:
            return execute_cell(args)
        finally:
            tracer.request = None

    runner._execute_cell = keyed_execute_cell
