"""Layer spans and counters for the benchmark's traced runs.

The program is not instrumented for this benchmark. Instead, a traced
run replaces the public entry points of each layer with a thin wrapper,
at the place the caller looks the name up (``repro.core.distinct``
imports ``compute_pair_features`` by name, so that module's attribute is
the one patched). Each wrapped call records a :class:`Span` in memory:
name, layer, start, end, parent span and the repetition ("run") it
belongs to. :func:`layer_metrics` turns the spans of the traced
repetitions, plus the program's own ``repro.obs`` counters, into the
per-layer metrics listed in ``BENCHMARK.json``.

A layer's self time is the time its spans cover minus the part covered
by their child spans. Scalar per-(pair, path) kernels are not wrapped:
they run ~10^5-10^6 times per resolve, so the similarity layer is the
self time of ``compute_pair_features`` once its propagation, blocking
and transition-compile children are subtracted.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: Layers in pipeline order (the per-layer table prints in this order).
LAYERS = (
    "data", "reldb", "ml", "core", "paths", "similarity", "perf",
    "cluster", "ingest", "eval", "bench",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float | None
    parent: int  # index into Recorder.spans; -1 for a root span
    run: int


class Recorder:
    """In-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.notes: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, layer: str, nest: bool = True) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, layer, time.perf_counter(), None, parent, self.run)
        )
        index = len(self.spans) - 1
        if nest:
            self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        if span.end is None:
            span.end = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    def note(self, key: str, value: float) -> None:
        """Add ``value`` to a per-run tally the program has no counter for."""
        key = f"{self.run}:{key}"
        self.notes[key] = self.notes.get(key, 0.0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def call(rec: Recorder | None, name: str, layer: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when ``rec`` is tracing."""
    if rec is None:
        return fn(*args, **kwargs)
    with rec.span(name, layer):
        return fn(*args, **kwargs)


class _SpanIterator:
    """Keeps a span open from a generator's creation until it is
    exhausted or closed (``ordered_process_map`` runs the pool that way)."""

    def __init__(self, rec: Recorder, index: int, inner) -> None:
        self._rec = rec
        self._index = index
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._inner)
        except StopIteration:
            self._rec.close(self._index)
            raise

    def close(self) -> None:
        try:
            close = getattr(self._inner, "close", None)
            if close is not None:
                close()
        finally:
            self._rec.close(self._index)


def _count_pairs(rec: Recorder, args, kwargs, result) -> None:
    pairs = kwargs["pairs"] if "pairs" in kwargs else args[1]
    rec.note("core.pairs", len(pairs))


def _count_unconverged(rec: Recorder, args, kwargs, result) -> None:
    svm = args[0]
    if svm.n_epochs_ is not None and svm.n_epochs_ >= svm.max_epochs:
        rec.note("ml.svm_unconverged", 1)


# (module, attribute, span name, layer, kind, after-hook). ``kind`` is
# "call" or "iter" (a generator whose span lasts until it is closed).
BOUNDARIES = (
    ("repro.ingest.engine", "apply_delta", "reldb.apply_delta", "reldb", "call", None),
    ("repro.core.distinct", "build_training_set", "ml.trainingset", "ml", "call", None),
    ("repro.core.distinct", "cross_validate", "ml.cv", "ml", "call", None),
    ("repro.ml.svm", "LinearSVM.fit", "ml.svm_fit", "ml", "call", _count_unconverged),
    ("repro.core.distinct", "Distinct.prepare", "core.prepare", "core", "call", None),
    ("repro.core.distinct", "Distinct.cluster_prepared", "core.cluster_prepared",
     "core", "call", None),
    ("repro.core.distinct", "compute_pair_features", "core.features", "similarity",
     "call", _count_pairs),
    ("repro.ingest.engine", "compute_pair_features", "core.features", "similarity",
     "call", _count_pairs),
    ("repro.paths.profiles", "ProfileBuilder.warm", "paths.propagate", "paths",
     "call", None),
    ("repro.paths.profiles", "ProfileBuilder.matrices_for", "paths.propagate", "paths",
     "call", None),
    ("repro.paths.trie", "propagate_trie", "paths.propagate", "paths", "call", None),
    ("repro.ingest.engine", "batch_profile_matrices", "paths.propagate", "paths",
     "call", None),
    ("repro.perf.transitions", "build_transition", "perf.transition_compile", "perf",
     "call", None),
    ("repro.perf.transitions", "TransitionCache.advance", "perf.transition_compile",
     "perf", "call", None),
    ("repro.core.features", "intersecting_pair_mask", "perf.blocking", "perf",
     "call", None),
    ("repro.perf.blocking", "candidate_pairs", "perf.blocking", "perf", "call", None),
    ("repro.ingest.engine", "touched_row_mask", "perf.blocking", "perf", "call", None),
    ("repro.eval.runner", "ordered_process_map", "perf.pool", "perf", "iter", None),
    ("repro.ingest.engine", "ordered_process_map", "perf.pool", "perf", "iter", None),
    ("repro.cluster.agglomerative", "AgglomerativeClusterer.cluster", "cluster",
     "cluster", "call", None),
    ("repro.cluster.agglomerative", "AgglomerativeClusterer.resume", "cluster",
     "cluster", "call", None),
    ("repro.ingest.engine", "IngestEngine.apply", "ingest.apply", "ingest",
     "call", None),
    ("repro.ingest.engine", "IngestEngine.refresh", "ingest.refresh", "ingest",
     "call", None),
    ("repro.eval.runner", "score_resolution", "eval.score", "eval", "call", None),
    ("repro.eval.experiment", "score_resolution", "eval.score", "eval", "call", None),
)


def _wrap(rec: Recorder, name: str, layer: str, kind: str, after, fn):
    if kind == "iter":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = rec.open(name, layer, nest=False)
            try:
                inner = fn(*args, **kwargs)
            except BaseException:
                rec.close(index)
                raise
            return _SpanIterator(rec, index, iter(inner))
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, kwargs, result)
        return result
    return wrapper


def patch(target: str, attribute: str, replace) -> tuple:
    """Set ``target.attribute`` (``Class.method`` allowed) to
    ``replace(original)``; returns the undo record for :func:`unpatch`."""
    owner = importlib.import_module(target)
    *outer, leaf = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    setattr(owner, leaf, replace(original))
    return owner, leaf, original


def unpatch(undo: list[tuple]) -> None:
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)


@contextmanager
def traced(rec: Recorder):
    """Install every layer boundary wrapper for the duration."""
    undo = []
    try:
        for target, attribute, *spec in BOUNDARIES:
            undo.append(patch(target, attribute, functools.partial(_wrap, rec, *spec)))
        yield rec
    finally:
        unpatch(undo)


# -- per-layer metrics ---------------------------------------------------------

#: Inclusive-time metrics: metric name -> span name. Nested spans of the
#: same name (``warm`` -> ``propagate_trie``) count once, at the outermost.
TIMED = {
    "data.generate_s": "data.generate",
    "reldb.load_s": "reldb.load",
    "reldb.apply_delta_s": "reldb.apply_delta",
    "ml.trainingset_s": "ml.trainingset",
    "ml.cv_s": "ml.cv",
    "ml.svm_fit_s": "ml.svm_fit",
    "core.prepare_s": "core.prepare",
    "core.features_s": "core.features",
    "core.cluster_prepared_s": "core.cluster_prepared",
    "paths.propagate_s": "paths.propagate",
    "perf.transition_compile_s": "perf.transition_compile",
    "perf.blocking_s": "perf.blocking",
    "perf.pool_s": "perf.pool",
    "cluster.s": "cluster",
    "ingest.cold_start_s": "ingest.cold_start",
    "ingest.apply_s": "ingest.apply",
    "ingest.refresh_s": "ingest.refresh",
    "eval.score_s": "eval.score",
}

#: Metrics read from the program's ``repro.obs`` counter registry.
COUNTED = {
    "reldb.delta_rows": "ingest.rows_added",
    "ml.svm_fits": "svm.fits",
    "ml.svm_epochs": "svm.iterations",
    "propagation.tuples_visited": "propagation.tuples_visited",
    "perf.transitions.built": "perf.transitions.built",
    "perf.transitions.reused": "perf.transitions.reused",
    "cluster.merges": "cluster.merges",
    "cluster.merges_replayed": "cluster.merges_replayed",
}

#: Metrics tallied by the wrappers themselves.
NOTED = ("core.pairs", "ml.svm_unconverged")

#: Self time per layer; the similarity layer's is its kernels' time.
SELF = {
    layer: "similarity.kernel_s" if layer == "similarity" else f"{layer}.self_s"
    for layer in LAYERS
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    **{name: "s" for name in TIMED},
    **{name: "count" for name in COUNTED},
    **{name: "count" for name in NOTED},
    "perf.fanout_hit_ratio": "fraction",
    "perf.pairs_kept_ratio": "fraction",
    "perf.worker_busy_s": "s",
    "perf.worker_idle_frac": "fraction",
    "ingest.refs_dirty_frac": "fraction",
    "ingest.pairs_reused_frac": "fraction",
    **{name: "s" for name in SELF.values()},
    "trace.overhead_frac": "fraction",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_times(spans: list[Span], runs: set[int]) -> tuple[dict, dict]:
    """(inclusive seconds per span name, self seconds per layer) over ``runs``."""
    chosen = [i for i, s in enumerate(spans) if s.run in runs and s.end is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    for i in chosen:
        parent = spans[i].parent
        if parent >= 0:
            children.setdefault(parent, []).append((spans[i].start, spans[i].end))
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i in chosen:
        span = spans[i]
        duration = span.end - span.start
        self_time[span.layer] = self_time.get(span.layer, 0.0) + max(
            0.0, duration - _covered(children.get(i, []))
        )
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:  # outermost span of its name
            inclusive[span.name] = inclusive.get(span.name, 0.0) + duration
    return inclusive, self_time


def layer_metrics(
    rec: Recorder,
    runs: list[int],
    counters: list[dict],
    histograms: list[dict],
    extra: dict,
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics, averaged per traced repetition.

    ``counters``/``histograms`` are the ``repro.obs`` registry snapshots
    taken at the end of each traced repetition (the registry is reset at
    its start); ``extra`` carries workload-side quantities such as the
    number of references tracked, for the ingest fractions.
    """
    n = len(runs)
    inclusive, self_time = span_times(rec.spans, set(runs))

    def total(name: str) -> float:
        return sum(float(c.get(name, 0)) for c in counters)

    metrics: dict[str, float] = {}
    for metric, span_name in TIMED.items():
        metrics[metric] = inclusive.get(span_name, 0.0) / n
    for metric, counter_name in COUNTED.items():
        metrics[metric] = total(counter_name) / n
    for key in NOTED:
        metrics[key] = sum(rec.notes.get(f"{run}:{key}", 0.0) for run in runs) / n

    hits, misses = total("perf.fanout.hits"), total("perf.fanout.misses")
    metrics["perf.fanout_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    kept, pruned = total("blocking.pairs_kept"), total("blocking.pairs_pruned")
    # Without blocking every pair is kept.
    metrics["perf.pairs_kept_ratio"] = kept / (kept + pruned) if kept + pruned else 1.0
    busy = sum(h.get("perf.parallel.task_seconds", {}).get("sum", 0.0)
               for h in histograms) / n
    metrics["perf.worker_busy_s"] = busy
    pool = metrics["perf.pool_s"]
    metrics["perf.worker_idle_frac"] = (
        max(0.0, 1.0 - busy / (workers * pool)) if pool > 0 else 0.0
    )
    refs = extra.get("refs_tracked", 0) * n
    metrics["ingest.refs_dirty_frac"] = (
        total("ingest.refs_dirty") / refs if refs else 0.0
    )
    reused, recomputed = total("ingest.pairs_reused"), total("ingest.pairs_recomputed")
    metrics["ingest.pairs_reused_frac"] = (
        reused / (reused + recomputed) if reused + recomputed else 0.0
    )
    for layer, name in SELF.items():
        metrics[name] = self_time.get(layer, 0.0) / n
    return metrics


def print_table(metrics: dict[str, float], stream) -> None:
    """The per-layer table, one metric a line, grouped by layer."""
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}", file=stream)
