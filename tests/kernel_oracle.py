"""Test oracles for the pair kernels: profiles stacked from dicts.

The pipeline stacks profiles through batched propagation
(:mod:`repro.paths.batch`); these helpers build the same matrices from
:class:`~repro.paths.profiles.NeighborProfile` dicts, so kernel tests can
feed hand-made or scalar-propagated profiles to
:mod:`repro.similarity.vectorized`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.features import all_pairs, compute_pair_features, pair_matrix
from repro.paths.profiles import NeighborProfile
from repro.resilience import FaultPlan, fault_plan
from repro.similarity.vectorized import pair_resemblance_values, pair_walk_values


def profile_matrices(
    profiles: list[NeighborProfile],
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Stack profiles into (forward, backward) CSR matrices.

    Rows follow the input order; columns are the union of the supports,
    indexed densely in sorted row-id order and shared by both matrices.
    """
    n = len(profiles)
    counts = np.array([len(p.weights) for p in profiles], dtype=np.int64)
    ids = np.array([t for p in profiles for t in p.weights], dtype=np.int64)
    values = np.array(
        [w for p in profiles for w in p.weights.values()], dtype=np.float64
    ).reshape(-1, 2)
    columns, inverse = np.unique(ids, return_inverse=True)
    rows_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((inverse, rows_idx))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    shape = (n, len(columns))
    forward = sparse.csr_matrix(
        (values[order, 0], inverse[order], indptr), shape=shape
    )
    backward = sparse.csr_matrix(
        (values[order, 1], inverse[order].copy(), indptr.copy()), shape=shape
    )
    return forward, backward


def all_pairs_matrices(
    profiles: list[NeighborProfile], slice_nnz: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric all-pairs (resemblance, walk) matrices with a zero
    diagonal, evaluated by the pair kernels over every (i < j) pair."""
    index = list(range(len(profiles)))
    pairs = all_pairs(index)
    if not pairs:
        empty = np.zeros((len(index), len(index)))
        return empty, empty.copy()
    forward, backward = profile_matrices(profiles)
    idx_a = np.array([a for a, _ in pairs])
    idx_b = np.array([b for _, b in pairs])
    budget = {} if slice_nnz is None else {"slice_nnz": slice_nnz}
    resem = pair_resemblance_values(forward, idx_a, idx_b, **budget)
    walk = pair_walk_values(forward, backward, idx_a, idx_b, **budget)
    return pair_matrix(index, pairs, resem), pair_matrix(index, pairs, walk)


class PerReference:
    """A profile source that is not a :class:`ProfileBuilder`.

    :func:`~repro.core.features.compute_pair_features` scores it on the
    per-reference reference route, exactly as it scores training pairs
    routed across many names' builders.
    """

    def __init__(self, builder) -> None:
        self.paths = builder.paths
        self.profiles_for = builder.profiles_for


def reference_features(builder, pairs):
    """``builder``'s pair features on the reference route."""
    return compute_pair_features(PerReference(builder), pairs)


def reference_route():
    """Context manager failing every fast-route batch, so a pipeline
    configured with ``degradation="fallback"`` scores all of its pairs on
    the reference route."""
    plan = FaultPlan().fail_at(
        "features.backend", times=-1, exc=MemoryError("forced reference route")
    )
    return fault_plan(plan)
