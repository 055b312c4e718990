"""Performance layer: memoization, chunking, and parallel execution.

The DISTINCT pipeline's cost is dominated by three hot loops — probability
propagation along join paths (§2.2), all-pairs similarity (§2.3–2.4), and
the agglomerative merge loop (§4.1). This package holds the shared
machinery that accelerates them without changing results:

- :mod:`repro.perf.memo` — the LRU-bounded join-fanout memo that lets
  prefix-shared propagation reuse per-tuple mass splits across the
  references of one name;
- :mod:`repro.perf.chunking` — pair-list slicing by gathered nonzeros,
  so the pair kernels and the blocking mask bound peak memory;
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor``-backed ordered
  map with deterministic, input-ordered result assembly, per-worker
  obs-counter merging, chunked dispatch, and an in-process fallback
  (:func:`~repro.perf.parallel.should_inline`) for workloads a pool
  cannot win (disambiguation workloads scale with the number of
  ambiguous names, which is embarrassingly parallel);
- :mod:`repro.perf.transitions` — row-normalized CSR transition matrices
  compiled from exclusion-filtered join fanouts, the building block of
  the batched propagation backend (:mod:`repro.paths.batch`);
- :mod:`repro.perf.blocking` — the inverted neighbor index: lossless
  zero-overlap pair pruning over stacked support matrices;
- :mod:`repro.perf.shm` — zero-copy payload dispatch: protocol-5
  out-of-band buffers packed into one ``multiprocessing.shared_memory``
  segment that workers map read-only (:class:`~repro.perf.shm.SharedPayload`),
  plus the pickled baseline handle benchmarks compare against;
- :mod:`repro.perf.sharding` — cost-model shard planning (LPT order,
  cost ≈ refs² per name) that the parallel map's shared queue
  work-steals from, keeping input-ordered assembly.

The pair kernels themselves live in :mod:`repro.similarity.vectorized`
and every pair-feature computation of one name runs through them
(:mod:`repro.core.features`); the ``shared_memory`` / ``shard_strategy``
switches in :class:`repro.config.DistinctConfig` tune the parallel loop.
``benchmarks/bench_perf_kernels.py`` tracks the reference/batched/parallel
trajectory in ``BENCH_perf.json``; ``benchmarks/bench_scale.py`` tracks
the scale-out trajectory (shared-memory dispatch, work-stealing shards)
in ``BENCH_scale.json`` (history in ``BENCH_history.jsonl``).
"""

from repro.perf.blocking import (
    candidate_pairs,
    intersecting_pair_mask,
    touched_row_mask,
)
from repro.perf.chunking import chunk_slices, pair_slices
from repro.perf.memo import FanoutMemo
from repro.perf.parallel import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    TaskOutcome,
    ordered_process_map,
    should_inline,
)
from repro.perf.sharding import SHARD_STRATEGIES, name_cost, plan_shards
from repro.perf.shm import (
    PayloadHandle,
    PickledPayload,
    SharedPayload,
    active_segments,
)
from repro.perf.transitions import Transition, TransitionCache, build_transition

__all__ = [
    "DEFAULT_TASK_RETRIES",
    "FanoutMemo",
    "PayloadHandle",
    "PickledPayload",
    "RemoteTaskError",
    "SHARD_STRATEGIES",
    "SharedPayload",
    "TaskOutcome",
    "Transition",
    "TransitionCache",
    "active_segments",
    "build_transition",
    "candidate_pairs",
    "chunk_slices",
    "intersecting_pair_mask",
    "name_cost",
    "ordered_process_map",
    "pair_slices",
    "plan_shards",
    "should_inline",
    "touched_row_mask",
]
