"""Performance layer: compiled transitions, blocking, chunking, and
parallel execution.

The DISTINCT pipeline's cost is dominated by three hot loops — probability
propagation along join paths (§2.2), all-pairs similarity (§2.3–2.4), and
the agglomerative merge loop (§4.1). This package holds the shared
machinery that accelerates them without changing results:

- :mod:`repro.perf.chunking` — pair-list slicing by gathered nonzeros,
  so the pair kernels and the blocking mask bound peak memory;
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor``-backed ordered
  map with one dispatch policy (fork-inherited payload, one item per
  future, heaviest-first by :func:`~repro.perf.parallel.name_cost` ≈
  refs² when the caller passes costs), deterministic input-ordered
  result assembly, per-worker obs-counter merging, and an in-process
  fallback (:func:`~repro.perf.parallel.should_inline`) for workloads a
  pool cannot win (disambiguation workloads scale with the number of
  ambiguous names, which is embarrassingly parallel);
- :mod:`repro.perf.transitions` — row-normalized CSR transition matrices
  compiled from exclusion-filtered join fanouts, the building block of
  the batched propagation backend (:mod:`repro.paths.batch`);
- :mod:`repro.perf.blocking` — the inverted neighbor index: lossless
  zero-overlap pair pruning over stacked support matrices.

The pair kernels themselves live in :mod:`repro.similarity.vectorized`
and every pair-feature computation of one name runs through them
(:mod:`repro.core.features`). ``benchmarks/bench_perf_kernels.py``
tracks the reference/batched/parallel trajectory in ``BENCH_perf.json``;
``benchmarks/bench_scale.py`` tracks the scale-out trajectory (tiered
worlds, serial vs parallel end to end) in ``BENCH_scale.json`` (history
in ``BENCH_history.jsonl``).
"""

from repro.perf.blocking import (
    candidate_pairs,
    intersecting_pair_mask,
    touched_row_mask,
)
from repro.perf.chunking import chunk_slices, pair_slices
from repro.perf.parallel import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    TaskOutcome,
    name_cost,
    ordered_process_map,
    should_inline,
)
from repro.perf.transitions import Transition, TransitionCache, build_transition

__all__ = [
    "DEFAULT_TASK_RETRIES",
    "RemoteTaskError",
    "TaskOutcome",
    "Transition",
    "TransitionCache",
    "build_transition",
    "candidate_pairs",
    "chunk_slices",
    "intersecting_pair_mask",
    "name_cost",
    "ordered_process_map",
    "pair_slices",
    "should_inline",
    "touched_row_mask",
]
