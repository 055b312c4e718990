"""Epoch pinning: stale caches refuse to serve, advance() re-pins.

Regression tests for the delta-ingest invalidation contract: an
epoch-pinned :class:`TransitionCache` raises :class:`StaleCacheError`
when read at a ``db.epoch`` other than the one it was built (or last
advanced) at, and ``advance()`` drops exactly the
dirty rows while keeping every clean compiled row byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.errors import StaleCacheError
from repro.perf.transitions import TransitionCache
from repro.reldb.joins import JoinStep

STEP = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")


def _fanout_from(matrix: dict[int, list[int]]):
    return lambda row: matrix.get(row, [])


class TestTransitionCacheEpoch:
    def test_stale_read_raises(self):
        cache = TransitionCache(epoch=5)
        cache.check_epoch(5)
        with pytest.raises(StaleCacheError) as err:
            cache.check_epoch(6)
        assert "TransitionCache" in str(err.value)

    def test_advance_keeps_clean_rows_byte_identical(self):
        fanouts = {0: [0, 1], 1: [1], 2: [0, 2]}
        cache = TransitionCache(epoch=1)
        before = cache.get(
            STEP, np.array([0, 1, 2]), (3, 3), _fanout_from(fanouts)
        )
        clean_bytes = before.matrix[np.array([1, 2])].toarray().tobytes()

        # The delta grows both relations and dirties source row 0.
        reused, dirty = cache.advance(2, {"Publish": [0]}, {"Publish": 5, "Authors": 4})
        assert (reused, dirty) == (2, 1)
        cache.check_epoch(2)

        # Row 0 recompiles through the extension path with its post-delta
        # fanout; rows 1 and 2 must keep their exact stored slices.
        fanouts[0] = [0, 1, 3]
        after = cache.get(
            STEP, np.array([0, 1, 2]), (5, 4), _fanout_from(fanouts)
        )
        assert after.shape == (5, 4)
        got_clean = after.matrix[np.array([1, 2])].toarray()[:, :3]
        assert got_clean.tobytes() == clean_bytes
        np.testing.assert_allclose(
            after.matrix[0].toarray().ravel(), [1 / 3, 1 / 3, 0, 1 / 3]
        )
        assert after.covered[:3].all() and not after.covered[3:].any()

    def test_advance_drops_keyless_entries(self):
        cache = TransitionCache(epoch=1)
        cache.get("opaque-key", np.array([0]), (2, 2), _fanout_from({0: [1]}))
        cache.get(STEP, np.array([0]), (2, 2), _fanout_from({0: [1]}))
        reused, dirty = cache.advance(2, {}, {"Publish": 2, "Authors": 2})
        assert len(cache) == 1  # the opaque entry is gone
        assert reused == 1 and dirty == 1

    def test_dirty_rows_beyond_old_shape_are_ignored(self):
        # Rows the delta itself added were never compiled — they are not
        # "dirty", they are simply uncovered in the padded entry.
        cache = TransitionCache(epoch=1)
        cache.get(STEP, np.array([0, 1]), (2, 2), _fanout_from({0: [0], 1: [1]}))
        reused, dirty = cache.advance(
            2, {"Publish": [1, 2, 3]}, {"Publish": 4, "Authors": 2}
        )
        assert (reused, dirty) == (1, 1)
        entry = cache._entries[STEP]
        assert entry.covered.tolist() == [True, False, False, False]


class TestSparseUnionInvariant:
    def test_extension_matches_fresh_compile(self):
        # advance + lazy recompile must equal compiling the post-delta
        # transition from scratch (the byte-identity story in miniature).
        fanouts = {0: [0, 1], 1: [2], 2: [0], 3: [3]}
        cache = TransitionCache(epoch=1)
        cache.get(STEP, np.array([0, 1, 2]), (4, 4), _fanout_from(fanouts))
        fanouts[1] = [2, 4]
        cache.advance(2, {"Publish": [1]}, {"Publish": 5, "Authors": 5})
        merged = cache.get(
            STEP, np.array([0, 1, 2, 3]), (5, 5), _fanout_from(fanouts)
        )
        fresh = TransitionCache(epoch=2).get(
            STEP, np.array([0, 1, 2, 3]), (5, 5), _fanout_from(fanouts)
        )
        assert (merged.matrix != fresh.matrix).nnz == 0
        np.testing.assert_array_equal(merged.degrees, fresh.degrees)
        np.testing.assert_array_equal(merged.covered, fresh.covered)
        assert isinstance(merged.matrix, sparse.csr_matrix)
