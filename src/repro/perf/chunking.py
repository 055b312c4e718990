"""Slice sizing for the pair kernels and the blocking mask.

Both evaluate an explicit pair list by gathering the two rows of every
pair from sparse (references × tuples) matrices. The working set of one
slice is proportional to the nonzeros it gathers, not to the number of
pairs: a pair of ubiquitous-path profiles can carry thousands of
nonzeros where a coauthor pair carries a handful. :func:`pair_slices`
therefore cuts the pair list by a budget of gathered nonzeros, so peak
memory is bounded whatever the mix of profile sizes. Every value is
computed from its own two rows, so results do not depend on the budget.
"""

from __future__ import annotations

import numpy as np

#: Gathered nonzeros per pair-kernel / blocking-mask slice.
DEFAULT_SLICE_NNZ = 1 << 16


def chunk_slices(n: int, chunk: int) -> list[slice]:
    """Cover ``range(n)`` with consecutive slices of at most ``chunk``."""
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    return [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]


def pair_slices(
    matrix, idx_a: np.ndarray, idx_b: np.ndarray, budget: int = DEFAULT_SLICE_NNZ
) -> list[slice]:
    """Cover the pair list ``(idx_a[k], idx_b[k])`` with consecutive
    slices that gather at most ``budget`` nonzeros of the CSR ``matrix``.

    A pair heavier than the whole budget gets a slice of its own, so
    every slice holds at least one pair.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    row_nnz = np.diff(matrix.indptr)
    cumulative = np.cumsum(row_nnz[idx_a] + row_nnz[idx_b])
    slices = []
    start, n, spent = 0, len(cumulative), 0
    while start < n:
        stop = int(np.searchsorted(cumulative, spent + budget, side="right"))
        stop = max(stop, start + 1)
        slices.append(slice(start, stop))
        spent = int(cumulative[stop - 1])
        start = stop
    return slices
