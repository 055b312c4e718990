"""Row-normalized sparse transition matrices for batched propagation.

One forward propagation step (:meth:`repro.paths.propagation
.PropagationEngine._forward_step`) splits each tuple's probability mass
uniformly over its exclusion-filtered join partners. For a fixed join
step that split is a *linear* map: with ``T[i, j] = 1 / |P(i)|`` for
every partner ``j`` in the filtered partner list ``P(i)``, pushing a
whole batch of per-reference mass vectors across the step is a single
sparse matrix product ``M @ T`` instead of one Python dict walk per
reference. The backward dynamic program is the same matrix transposed
with the *reverse* step's normalization.

This module is generic (it never touches the database): callers supply
the partner list of each source row via a ``fanout`` callable — in the
pipeline that is :meth:`PropagationEngine._partners`, so exclusion
filtering is shared with the scalar engine and both backends see
byte-identical partner lists.
Per-origin exclusion (the origin tuple is not an intermediate stop) is
deliberately *not* baked in here; :mod:`repro.paths.batch` applies it as
a sparse per-reference correction on top of these origin-free matrices.

A :class:`TransitionCache` compiles each step's matrix lazily over the
rows a batch actually reaches, extending (never recompiling from
scratch per call site) when a later level reaches new rows.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy import sparse

from repro.errors import StaleCacheError
from repro.obs import counter

_BUILT = counter("perf.transitions.built")
_REUSED = counter("perf.transitions.reused")
_ROWS = counter("perf.transitions.rows")
_ROWS_DIRTY = counter("perf.ingest.rows_dirty")
_ROWS_REUSED = counter("perf.ingest.rows_reused")

#: ``fanout(row_id)`` -> the exclusion-filtered partner row ids of one
#: source row across the step being compiled.
Fanout = Callable[[int], Sequence[int]]


@dataclass
class Transition:
    """One compiled join step: the normalized matrix plus its bookkeeping.

    ``matrix[i, j] = 1 / degrees[i]`` for every partner ``j`` of source
    row ``i``; rows that were not compiled (or have no partners) are
    empty. ``degrees[i]`` is the *filtered* partner count ``|P(i)|`` —
    the denominator of the scalar mass split — and ``covered[i]`` says
    whether row ``i`` was compiled at all (``degrees`` alone cannot
    distinguish "no partners" from "never asked").
    """

    matrix: sparse.csr_matrix
    degrees: np.ndarray
    covered: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def covers(self, src_rows: np.ndarray) -> bool:
        """True when every given source row has been compiled."""
        if len(src_rows) == 0:
            return True
        return bool(self.covered[src_rows].all())


def build_transition(
    src_rows: np.ndarray, fanout: Fanout, shape: tuple[int, int]
) -> Transition:
    """Compile the normalized transition over the given source rows.

    ``src_rows`` are the row ids to compile (duplicates are fine; each
    row is compiled once); ``shape`` is ``(n_src_rows, n_dst_rows)`` over
    the *full* relation row spaces, so matrices of consecutive steps
    compose without reindexing.
    """
    n_src, _ = shape
    degrees = np.zeros(n_src, dtype=np.float64)
    covered = np.zeros(n_src, dtype=bool)
    unique_rows = np.unique(np.asarray(src_rows, dtype=np.int64))
    partner_lists = [fanout(row) for row in unique_rows.tolist()]
    counts = np.fromiter(
        (len(p) for p in partner_lists), dtype=np.int64, count=len(partner_lists)
    )
    covered[unique_rows] = True
    degrees[unique_rows] = counts.astype(np.float64)

    # Direct CSR assembly: ``unique_rows`` is sorted and the partner
    # lists are concatenated in that order, so the indptr follows from
    # the per-row counts without a COO round-trip.
    counts_full = np.zeros(n_src, dtype=np.int64)
    counts_full[unique_rows] = counts
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(counts_full, out=indptr[1:])
    total = int(counts.sum())
    indices = np.fromiter(
        (j for p in partner_lists for j in p), dtype=np.int64, count=total
    )
    weights = np.zeros(len(counts), dtype=np.float64)
    hot = counts > 0
    weights[hot] = 1.0 / counts[hot]
    data = np.repeat(weights, counts)
    matrix = sparse.csr_matrix((data, indices, indptr), shape=shape)
    matrix.sort_indices()
    _BUILT.inc()
    _ROWS.inc(len(unique_rows))
    return Transition(matrix=matrix, degrees=degrees, covered=covered)


def _decompile_rows(
    entry: Transition, dirty: np.ndarray, shape: tuple[int, int]
) -> Transition:
    """Pad ``entry`` to ``shape`` and drop the given source rows.

    The surviving rows keep their exact stored ``data``/``indices``
    slices, so a later read of a clean row is byte-identical to the
    pre-delta compile; dropped rows become uncovered and recompile
    lazily through :meth:`TransitionCache.get`'s extension path.
    """
    n_src_old = entry.shape[0]
    n_src, _ = shape
    matrix = entry.matrix
    counts = np.diff(matrix.indptr)
    keep_row = np.ones(n_src_old, dtype=bool)
    keep_row[dirty] = False
    kept_entries = np.repeat(keep_row, counts)
    counts_new = np.zeros(n_src, dtype=np.int64)
    counts_new[:n_src_old] = np.where(keep_row, counts, 0)
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(counts_new, out=indptr[1:])
    new_matrix = sparse.csr_matrix(
        (matrix.data[kept_entries], matrix.indices[kept_entries], indptr),
        shape=shape,
    )
    degrees = np.zeros(n_src, dtype=np.float64)
    degrees[:n_src_old] = np.where(keep_row, entry.degrees, 0.0)
    covered = np.zeros(n_src, dtype=bool)
    covered[:n_src_old] = entry.covered & keep_row
    return Transition(matrix=new_matrix, degrees=degrees, covered=covered)


class TransitionCache:
    """Lazily compiled transitions, keyed by an opaque step key.

    ``get`` returns a transition covering at least ``src_rows``: a cache
    hit when the stored matrix already covers them, otherwise the entry
    is *extended* — only the not-yet-covered rows have their fanouts
    fetched and compiled, and the delta is added onto the stored matrix
    (row sets are disjoint, so the sum is a plain union). One cache per
    batched propagation run — entries bake in that run's exclusions via
    the ``fanout`` callable.

    ``epoch`` pins the cache to a database epoch (None = unpinned).
    A pinned cache that outlives an :func:`repro.reldb.apply_delta` must
    be :meth:`advance`\\ d before serving again; until then reads raise
    :class:`~repro.errors.StaleCacheError` through :meth:`check_epoch`.
    """

    def __init__(self, epoch: int | None = None) -> None:
        self.epoch = epoch
        self._entries: dict[Hashable, Transition] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def check_epoch(self, db_epoch: int) -> None:
        """Raise :class:`StaleCacheError` when pinned at a different epoch."""
        if self.epoch is not None and self.epoch != db_epoch:
            raise StaleCacheError("TransitionCache", self.epoch, db_epoch)

    def advance(
        self,
        new_epoch: int,
        dirty_rows: Mapping[str, Collection[int]],
        sizes: Mapping[str, int],
    ) -> tuple[int, int]:
        """Carry compiled transitions across a delta; re-pin at ``new_epoch``.

        ``dirty_rows`` maps relation name -> source row ids whose filtered
        partner lists may have changed; ``sizes`` maps relation name ->
        post-delta row count. Every entry is padded to the new row spaces;
        dirty source rows are decompiled (their matrix rows zeroed and
        their ``covered`` flags cleared, so the next :meth:`get` recompiles
        exactly those rows through the existing extension path); all other
        compiled rows are kept verbatim. Entries whose key does not expose
        ``src_relation``/``dst_relation`` are dropped conservatively.

        Returns ``(rows_reused, rows_dirty)`` summed over entries.
        """
        total_reused = 0
        total_dirty = 0
        advanced: dict[Hashable, Transition] = {}
        for key, entry in self._entries.items():
            src_rel = getattr(key, "src_relation", None)
            dst_rel = getattr(key, "dst_relation", None)
            if src_rel is None or dst_rel is None:
                total_dirty += int(entry.covered.sum())
                continue
            n_src_old, n_dst_old = entry.shape
            n_src = int(sizes.get(src_rel, n_src_old))
            n_dst = int(sizes.get(dst_rel, n_dst_old))
            dirty = np.asarray(
                # lint: allow[determinism/unkeyed-sort] row ids are plain int
                sorted(dirty_rows.get(src_rel, ())),
                dtype=np.int64,
            )
            dirty = dirty[dirty < n_src_old]
            dirty = dirty[entry.covered[dirty]]
            advanced[key] = _decompile_rows(entry, dirty, (n_src, n_dst))
            total_dirty += len(dirty)
            total_reused += int(advanced[key].covered.sum())
        self._entries = advanced
        self.epoch = new_epoch
        _ROWS_DIRTY.inc(total_dirty)
        _ROWS_REUSED.inc(total_reused)
        return total_reused, total_dirty

    def get(
        self,
        key: Hashable,
        src_rows: np.ndarray,
        shape: tuple[int, int],
        fanout: Fanout,
    ) -> Transition:
        entry = self._entries.get(key)
        if entry is not None and entry.covers(src_rows):
            _REUSED.inc()
            return entry
        if entry is not None:
            src_rows = np.asarray(src_rows, dtype=np.int64)
            fresh = src_rows[~entry.covered[src_rows]]
            delta = build_transition(fresh, fanout, shape)
            merged = (entry.matrix + delta.matrix).tocsr()
            merged.sort_indices()
            entry = Transition(
                matrix=merged,
                degrees=entry.degrees + delta.degrees,
                covered=entry.covered | delta.covered,
            )
        else:
            entry = build_transition(src_rows, fanout, shape)
        self._entries[key] = entry
        return entry
