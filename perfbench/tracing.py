"""Traced runs: spans around pacf's calls, made by patching module attributes.

While a :class:`Tracer` is entered, each traced function is replaced by a
wrapper that records a span (name, start, end, parent, scope). A name is
patched where its caller looks it up: ``adapt`` imports ``update_all`` and
``total_loss`` by name, ``cli`` imports ``generate``, ``save_dump``,
``load_dump`` and ``evaluate_state`` by name, and ``experiment`` imports
``generate_pseudo_labels`` by name. Leaving the tracer restores every
original.

A span's scope is the nearest enclosing adaptation step, warm-up step or
evaluation, so that ``adapt.forward`` inside a step is told apart from the
same call inside an evaluation. Self time is a span's duration minus the
time of its child spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from pacf import adapt, cli, experiment, metrics, prototypes, synthbench

STEP = "adapt.step"
WARMUP_STEP = "adapt.warmup_step"
EVALUATION = "experiment.evaluate_state"
SCOPES = (STEP, WARMUP_STEP, EVALUATION)

# Self time per adaptation step. Together they cover the whole step, so they
# add up to ``adapt.step_ms``.
STEP_LAYERS = {
    "adapt.step_self_ms": STEP,
    "adapt.pseudo_labels_ms": "adapt.pseudo_labels",
    "adapt.forward_ms": "adapt.forward",
    "adapt.ce_sup_ms": "adapt.ce_sup",
    "adapt.ce_unsup_ms": "adapt.ce_unsup",
    "adapt.adversarial_ms": "adapt.adversarial",
    "adapt.pce_ms": "adapt.pce",
    "adapt.mut_ms": "adapt.mut",
    "losses.total_loss_ms": "losses.total_loss",
    "adapt.apply_gradients_ms": "adapt.apply_gradients",
    "prototypes.update_all_ms": "prototypes.update_all",
    "adapt.ema_ms": "adapt.ema",
}

# Calls per adaptation step.
STEP_CALLS = {
    "adapt.forward_calls_per_step": "adapt.forward",
    "adapt.ce_unsup_calls_per_step": "adapt.ce_unsup",
    "adapt.pce_calls_per_step": "adapt.pce",
    "adapt.mut_calls_per_step": "adapt.mut",
    "prototypes.update_all_calls_per_step": "prototypes.update_all",
}

METRIC_FUNCTIONS = ("kendall_tau", "proxy_a_distance", "spearman_rho", "intra_class_variance",
                    "mean_shift", "tp_ratio", "pca_project_2d")

# Self time per evaluation.
EVAL_LAYERS = {
    **{f"metrics.{fn}_ms": f"metrics.{fn}" for fn in METRIC_FUNCTIONS},
    "experiment.rank_consistency_scores_ms": "experiment.rank_consistency_scores",
}

# Self time per call, wherever the call happens.
CALL_LAYERS = {
    "synthbench.generate_ms": "synthbench.generate",
    "synthbench.save_dump_ms": "synthbench.save_dump",
    "synthbench.load_dump_ms": "synthbench.load_dump",
    "cli.eval_self_ms": "cli.eval",
}

# Whole duration per call, children included.
CALL_TOTALS = {
    "adapt.warmup_step_ms": WARMUP_STEP,
    "adapt.init_prototypes_ms": "adapt.init_prototypes",
    "experiment.evaluate_state_ms": EVALUATION,
}


def _step_name(args, kwargs) -> str:
    warmup = kwargs.get("warmup", args[4] if len(args) > 4 else False)
    return WARMUP_STEP if warmup else STEP


def _cli_name(args, kwargs) -> str:
    return "cli." + args[0][0]


def _count_kept(counts, scope, result, args, kwargs) -> None:
    counts[scope, "pseudo_kept"] += len(result)
    counts[scope, "pseudo_rows"] += len(np.atleast_2d(args[1]))


def _count_classes(counts, scope, result, args, kwargs) -> None:
    if len(args[1]):
        counts[scope, "classes_updated"] += len(np.unique(args[2]))


class Tracer:
    """Records spans of pacf's calls while entered; may be entered many times."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, scope]
        self.counts: Counter = Counter()  # (scope, counter) -> total
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._last_ce_parent = -1

    def _targets(self):
        """(owner, attribute, span name or name function, after-call hook)."""
        return [
            (adapt, "train_step", _step_name, None),
            (adapt, "initialize_from_warmup", "adapt.init_prototypes", None),
            (adapt, "forward", "adapt.forward", None),
            (adapt, "generate_pseudo_labels", "adapt.pseudo_labels", _count_kept),
            (adapt, "_cross_entropy_component", self._ce_name, None),
            (adapt, "_adversarial_component", "adapt.adversarial", None),
            (adapt, "_pce_component", "adapt.pce", None),
            (adapt, "_mut_component", "adapt.mut", None),
            (adapt, "total_loss", "losses.total_loss", None),
            (adapt.ModelParams, "apply_gradients", "adapt.apply_gradients", None),
            (adapt, "update_all", "prototypes.update_all", _count_classes),
            (adapt, "ema_update", "adapt.ema", None),
            (experiment, "generate_pseudo_labels", "adapt.pseudo_labels", None),
            (experiment, "rank_consistency_scores", "experiment.rank_consistency_scores", None),
            (experiment, "evaluate_state", EVALUATION, None),
            *[(metrics, fn, f"metrics.{fn}", None) for fn in METRIC_FUNCTIONS],
            (cli, "main", _cli_name, None),
            (cli, "evaluate_state", EVALUATION, None),
            (cli, "generate", "synthbench.generate", None),
            (cli, "save_dump", "synthbench.save_dump", None),
            (cli, "load_dump", "synthbench.load_dump", None),
            (synthbench, "load_dump", "synthbench.load_dump", None),
        ]

    def __enter__(self) -> "Tracer":
        for owner, attr, name, after in self._targets():
            self._patch(owner, attr, self._span(getattr(owner, attr), name, after))
        # prototype maintenance calls into mathcore: counted, not timed
        for attr in ("cosine_similarity", "l2_normalize"):
            self._patch(prototypes, attr, self._count(getattr(prototypes, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _scope(self):
        return self.spans[self._stack[-1]][4] if self._stack else None

    def _ce_name(self, args, kwargs) -> str:
        # train_step computes the supervised term first and the pseudo-label term second
        parent = self._stack[-1] if self._stack else -1
        name = "adapt.ce_unsup" if parent == self._last_ce_parent else "adapt.ce_sup"
        self._last_ce_parent = parent
        return name

    def _span(self, fn, name, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1] if stack else -1
            scope = span_name if span_name in SCOPES else self._scope()
            record = [span_name, 0.0, 0.0, parent, scope]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, scope, result, args, kwargs)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self._scope(), "mathcore_calls"] += 1
            return fn(*args, **kwargs)

        return counted


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from everything the tracer recorded."""
    spans = tracer.spans
    duration = np.array([s[2] - s[1] for s in spans])
    parents = np.array([s[3] for s in spans], dtype=np.int64)
    child = np.zeros(len(spans))
    nested = parents >= 0
    np.add.at(child, parents[nested], duration[nested])
    own = duration - child

    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for span, d, o in zip(spans, duration, own):
        for key in ((span[4], span[0]), span[0]):  # by scope and name, and by name alone
            total[key] += d
            self_time[key] += o
            calls[key] += 1

    counts = tracer.counts
    steps = calls[STEP, STEP]
    evaluations = calls[EVALUATION, EVALUATION]
    out = {"adapt.step_ms": (_per(total[STEP, STEP], steps) * 1e3, "ms")}
    for metric, span in STEP_LAYERS.items():
        out[metric] = (_per(self_time[STEP, span], steps) * 1e3, "ms")
    for metric, span in STEP_CALLS.items():
        out[metric] = (_per(calls[STEP, span], steps), "count/step")
    out["prototypes.classes_updated_per_call"] = (
        _per(counts[STEP, "classes_updated"], calls[STEP, "prototypes.update_all"]), "count/call")
    out["mathcore.calls_per_step"] = (_per(counts[STEP, "mathcore_calls"], steps), "count/step")
    out["adapt.pseudo_keep_ratio"] = (
        _per(counts[STEP, "pseudo_kept"], counts[STEP, "pseudo_rows"]), "ratio")
    for metric, span in EVAL_LAYERS.items():
        out[metric] = (_per(self_time[EVALUATION, span], evaluations) * 1e3, "ms")
    for metric, span in CALL_LAYERS.items():
        out[metric] = (_per(self_time[span], calls[span]) * 1e3, "ms")
    for metric, span in CALL_TOTALS.items():
        out[metric] = (_per(total[span], calls[span]) * 1e3, "ms")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}


def sample_counts(tracer: Tracer) -> dict[str, int]:
    """How many traced steps, evaluations and eval commands the metrics average over."""
    names = Counter(span[0] for span in tracer.spans)
    return {"steps": names[STEP], "warmup_steps": names[WARMUP_STEP],
            "evaluations": names[EVALUATION], "eval_commands": names["cli.eval"]}
