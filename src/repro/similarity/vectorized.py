"""Pair-list similarity kernels over stacked sparse profile matrices.

Both §2 measures have vectorized forms over the stacked forward profiles
``F`` (rows = references, columns = end-relation tuples) and backward
profiles ``B`` of one path:

- the directed *walk* probability of pair ``(a, b)`` is the row dot
  product ``F[a] · B[b]``, and the symmetric measure is the average of
  both directions;
- *set resemblance* (weighted Jaccard) vectorizes through the identity
  ``min(a, b) = (a + b - |a - b|) / 2``: with row masses
  ``s = |a|_1 + |b|_1`` and the L1 distance ``d = |a - b|_1`` of the
  sparse row difference, the resemblance is ``(s - d) / (s + d)``.

The kernels evaluate an explicit ``(i, j)`` list — no all-pairs grid,
no densified rows — in slices bounded by gathered nonzeros
(:func:`repro.perf.chunking.pair_slices`). Every value is computed from
its own two rows, so results do not depend on how the list is sliced.
They match the scalar reference implementations
(:func:`repro.similarity.resemblance.set_resemblance`,
:func:`repro.similarity.randomwalk.walk_probability`) to floating-point
reassociation tolerance, asserted by property tests.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.perf.chunking import DEFAULT_SLICE_NNZ, pair_slices


def pair_resemblance_values(
    forward: sparse.csr_matrix,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    *,
    slice_nnz: int = DEFAULT_SLICE_NNZ,
) -> np.ndarray:
    """Set resemblance for an explicit pair list (rows of ``forward``)."""
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    out = np.zeros(len(idx_a))
    if not len(idx_a):
        return out
    masses = np.asarray(forward.sum(axis=1)).ravel()
    for sl in pair_slices(forward, idx_a, idx_b, slice_nnz):
        diff = forward[idx_a[sl]] - forward[idx_b[sl]]
        l1 = np.asarray(abs(diff).sum(axis=1)).ravel()
        s = masses[idx_a[sl]] + masses[idx_b[sl]]
        denom = s + l1
        values = np.where(denom > 0.0, (s - l1) / np.where(denom > 0.0, denom, 1.0), 0.0)
        out[sl] = np.maximum(values, 0.0)
    return out


def pair_walk_values(
    forward: sparse.csr_matrix,
    backward: sparse.csr_matrix,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    *,
    slice_nnz: int = DEFAULT_SLICE_NNZ,
) -> np.ndarray:
    """Symmetric walk probabilities for an explicit pair list.

    The backward pattern is a subset of the forward one, so the forward
    nonzeros bound the slice's working set.
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    out = np.zeros(len(idx_a))
    if not len(idx_a):
        return out
    for sl in pair_slices(forward, idx_a, idx_b, slice_nnz):
        fwd_a = forward[idx_a[sl]]
        fwd_b = forward[idx_b[sl]]
        back_a = backward[idx_a[sl]]
        back_b = backward[idx_b[sl]]
        d_ab = np.asarray(fwd_a.multiply(back_b).sum(axis=1)).ravel()
        d_ba = np.asarray(fwd_b.multiply(back_a).sum(axis=1)).ravel()
        out[sl] = 0.5 * (d_ab + d_ba)
    return out
