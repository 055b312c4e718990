"""Pair feature computation: per-join-path similarity vectors.

For a pair of references, the feature vector has one set-resemblance value
and one walk-probability value per join path — these are the inputs to the
§3 SVM, and (combined by Eq 1) the pair similarities the clustering stage
aggregates. ``resemblance`` and ``walk`` are (n_pairs, n_paths) arrays
aligned with ``pairs``.

:func:`compute_pair_features` picks its route from its input; there is
no option:

- pairs scored through one name's :class:`ProfileBuilder` run the fast
  route. Batched sparse propagation (:mod:`repro.paths.batch`) computes
  every reference of the batch at once as matrix products; exact
  support-overlap blocking (:mod:`repro.perf.blocking`) then drops pairs
  whose neighbor supports are disjoint on every path, where both
  measures are *exactly* zero, so the skipped rows are zero-filled and
  clustering output is unchanged; the matrix pair kernels of
  :mod:`repro.similarity.vectorized` evaluate the survivors. Blocking
  and kernels gather at most
  :data:`~repro.perf.chunking.DEFAULT_SLICE_NNZ` nonzeros per slice.
- any other profile source — the training set's per-name routing, which
  spans many rare names' builders — runs the per-reference reference
  route: one :func:`set_resemblance`/:func:`walk_probability` call per
  (pair, path) over cached :class:`~repro.paths.profiles.NeighborProfile`
  dicts. The two routes agree to floating-point reassociation tolerance.

``degradation`` is the graceful-degradation ladder: under
``"fallback"``, a fast-route failure at runtime (``MemoryError`` on an
oversized name, a SciPy sparse failure) is retried on the reference
route — slower but correct — instead of failing the run. Every fallback
increments ``resilience.degraded.features`` / ``.pairs`` and flags the
returned :class:`PairFeatures`, so silent slowdowns are impossible.
``"strict"`` (the default) propagates the error unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeadlineExceeded
from repro.obs import counter, get_logger, span
from repro.paths.joinpath import JoinPath
from repro.perf.blocking import intersecting_pair_mask
from repro.paths.profiles import ProfileBuilder
from repro.resilience import fault_check
from repro.similarity.combine import PathWeights, normalize_feature_rows
from repro.similarity.randomwalk import walk_probability
from repro.similarity.resemblance import set_resemblance
from repro.similarity.vectorized import pair_resemblance_values, pair_walk_values

log = get_logger("core.features")

DEGRADATION_POLICIES = ("strict", "fallback")

#: Pairs evaluated by the matrix kernels (reference-route pairs are
#: tracked per call by ``similarity.resemblance.calls`` / ``.walk.calls``).
_VECTORIZED_PAIRS = counter("features.vectorized.pairs")
#: Fast-route failures absorbed by ``degradation="fallback"`` (one per
#: degraded compute_pair_features call / per affected pair).
_DEGRADED = counter("resilience.degraded.features")
_DEGRADED_PAIRS = counter("resilience.degraded.pairs")


@dataclass
class PairFeatures:
    """Per-pair, per-path similarity features.

    ``pairs[k] = (row_a, row_b)``; ``resemblance[k, p]`` and ``walk[k, p]``
    are the two measures for pair ``k`` along path ``p`` (column order =
    ``paths`` order).
    """

    paths: list[JoinPath]
    pairs: list[tuple[int, int]]
    resemblance: np.ndarray
    walk: np.ndarray
    #: True when the fast route failed and the values were recomputed on
    #: the reference route (``degradation="fallback"``). Telemetry,
    #: not a result: excluded from equality so degraded and non-degraded
    #: runs of the same inputs stay comparable.
    degraded: bool = field(default=False, compare=False)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def combined(
        self, resem_weights: PathWeights, walk_weights: PathWeights
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq-1 combination: per-pair scalar (resemblance, walk) values."""
        rw = np.asarray(resem_weights.weights)
        ww = np.asarray(walk_weights.weights)
        if len(rw) != len(self.paths) or len(ww) != len(self.paths):
            raise ValueError("weight vectors must have one entry per path")
        return self.resemblance @ rw, self.walk @ ww

    def normalized(self) -> "PairFeatures":
        """Per-path max-normalized copy (used by unsupervised variants)."""
        return PairFeatures(
            paths=self.paths,
            pairs=self.pairs,
            resemblance=np.asarray(normalize_feature_rows(self.resemblance.tolist())),
            walk=np.asarray(normalize_feature_rows(self.walk.tolist())),
        )


def compute_pair_features(
    builder,
    pairs: list[tuple[int, int]],
    degradation: str = "strict",
) -> PairFeatures:
    """Compute both measures for every pair along every path of ``builder``.

    A :class:`ProfileBuilder` takes the fast route; any other object with
    ``paths`` and ``profiles_for(row)`` takes the reference route (see
    module docstring). ``degradation="fallback"`` absorbs a fast-route
    failure by
    recomputing the batch on the reference route; ``"strict"`` propagates
    it.
    """
    if degradation not in DEGRADATION_POLICIES:
        raise ValueError(
            f"degradation must be one of {DEGRADATION_POLICIES}, "
            f"got {degradation!r}"
        )
    if not isinstance(builder, ProfileBuilder):
        return _reference_pair_features(builder, pairs)
    try:
        fault_check("features.backend")
        return _batched_pair_features(builder, pairs)
    except (DeadlineExceeded, KeyboardInterrupt):
        raise  # control flow, never a degradation trigger
    except Exception as exc:
        if degradation != "fallback":
            raise
        _DEGRADED.inc()
        _DEGRADED_PAIRS.inc(len(pairs))
        log.warning(
            "fast route failed (%s: %s); degrading %d pair(s) to the "
            "reference route",
            type(exc).__name__, exc, len(pairs),
        )
        features = _reference_pair_features(builder, pairs)
        features.degraded = True
        return features


def _reference_pair_features(builder, pairs: list[tuple[int, int]]) -> PairFeatures:
    """The reference route: one kernel call per (pair, path)."""
    paths = builder.paths
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    for k, (row_a, row_b) in enumerate(pairs):
        profiles_a = builder.profiles_for(row_a)
        profiles_b = builder.profiles_for(row_b)
        for p, path in enumerate(paths):
            a = profiles_a[path]
            b = profiles_b[path]
            resem[k, p] = set_resemblance(a, b)
            walk[k, p] = walk_probability(a, b)
    return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)


def _batched_pair_features(
    builder: ProfileBuilder, pairs: list[tuple[int, int]]
) -> PairFeatures:
    """The fast route: batched profiles, exact blocking, matrix kernels.

    The batched forward matrices double as the blocking index: the keep
    mask comes straight from their patterns and only surviving pairs
    reach the kernels.
    """
    paths = builder.paths
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    if not pairs:
        return PairFeatures(paths=paths, pairs=[], resemblance=resem, walk=walk)

    rows = list(dict.fromkeys(row for pair in pairs for row in pair))
    index = {row: i for i, row in enumerate(rows)}
    idx_a = np.fromiter((index[a] for a, _ in pairs), dtype=np.int64, count=len(pairs))
    idx_b = np.fromiter((index[b] for _, b in pairs), dtype=np.int64, count=len(pairs))
    with span("features.propagate", n_refs=len(rows)):
        matrices = builder.matrices_for(rows)
    with span("features.blocking", n_pairs=len(pairs)) as sp:
        keep = intersecting_pair_mask(
            [matrices[path].forward for path in paths], idx_a, idx_b
        )
        selected = np.flatnonzero(keep)
        sp.annotate(n_kept=len(selected))
    sel_a = idx_a[selected]
    sel_b = idx_b[selected]
    with span("features.kernels", n_pairs=len(selected)):
        for p, path in enumerate(paths):
            stacked = matrices[path]
            resem[selected, p] = pair_resemblance_values(stacked.forward, sel_a, sel_b)
            walk[selected, p] = pair_walk_values(
                stacked.forward, stacked.backward, sel_a, sel_b
            )
    _VECTORIZED_PAIRS.inc(len(selected) * len(paths))
    return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)


def all_pairs(rows: list[int]) -> list[tuple[int, int]]:
    """All unordered pairs of ``rows``, in (i < j) index order."""
    return [
        (rows[i], rows[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    ]


def pair_matrix(
    rows: list[int], pairs: list[tuple[int, int]], values: np.ndarray
) -> np.ndarray:
    """Expand condensed per-pair values into a symmetric n x n matrix."""
    index = {row: i for i, row in enumerate(rows)}
    matrix = np.zeros((len(rows), len(rows)))
    for (row_a, row_b), value in zip(pairs, values):
        i, j = index[row_a], index[row_b]
        matrix[i, j] = matrix[j, i] = value
    return matrix
