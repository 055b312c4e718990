"""Unit tests for :class:`repro.ingest.engine.IngestEngine`.

The byte-identity of refresh output against a cold refit is property
tested in ``tests/property/test_delta_ingest_property.py``; these tests
pin the engine's *contract*: cold resolve parity, epoch sequencing
(no double apply, no refresh without apply), clean-name short-circuits,
and the report surface.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.errors import ReproError
from repro.ingest import IngestEngine
from repro.obs import counter
from repro.perf.transitions import TransitionCache
from repro.reldb.delta import Delta

from tests.kernel_oracle import reference_route

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4


@pytest.fixture()
def warm(fitted, small_world):
    """The fitted models bound to a fresh pre-delta base, plus its split."""
    # New papers authored by the "Jim Smith" entities, so the delta is
    # guaranteed to add references of a tracked name (refs_new > 0).
    pool = [e.entity_id for e in small_world.entities if e.name == "Jim Smith"]
    grown = grow_world(small_world, 6, seed=13, author_pool=pool)
    split = split_world(grown, 6)
    distinct = Distinct.from_models(
        split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
    )
    return distinct, split


class TestColdResolve:
    def test_resolve_matches_cold_prepare(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        got = engine.resolve("Jim Smith")
        want = distinct.cluster_prepared(
            distinct.prepare("Jim Smith"), min_sim=MIN_SIM
        )
        assert got.rows == want.rows
        assert sorted(sorted(c) for c in got.clusters) == sorted(
            sorted(c) for c in want.clusters
        )
        assert got.resem_matrix.tobytes() == want.resem_matrix.tobytes()
        assert got.walk_matrix.tobytes() == want.walk_matrix.tobytes()
        # The engine's default route agrees with the reference route.
        reference = Distinct.from_models(
            distinct.db,
            distinct.resem_model_,
            distinct.walk_model_,
            replace(distinct.config, degradation="fallback"),
        )
        with reference_route():
            slow = reference.cluster_prepared(
                reference.prepare("Jim Smith"), min_sim=MIN_SIM
            )
        assert slow.features.degraded
        assert got.clusters == slow.clusters

    def test_untracked_name_rejected(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        with pytest.raises(ReproError, match="not tracked"):
            engine.resolution("Jim Smith")


class TestEpochSequencing:
    def test_refresh_without_apply_rejected(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        engine.resolve("Jim Smith")
        with pytest.raises(ReproError, match="apply"):
            engine.refresh("Jim Smith")

    def test_second_apply_with_pending_refreshes_rejected(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        engine.apply(split.delta)
        with pytest.raises(ReproError, match="pending"):
            engine.apply(Delta())

    def test_refresh_drains_pending(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        engine.apply(split.delta)
        for name in NAMES:
            engine.refresh(name)
        assert engine.pending() == []
        # Once drained, the next delta is accepted again.
        engine.apply(Delta())

    def test_empty_delta_leaves_every_name_clean(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        before = {name: engine.resolve(name) for name in NAMES}
        report = engine.ingest(Delta())
        assert report.n_rows_added == 0
        assert sorted(report.names_clean) == sorted(NAMES)
        assert report.names_refreshed == []
        totals = report.totals()
        assert totals["pairs_recomputed"] == 0 and totals["refs_dirty"] == 0
        for name in NAMES:
            got = report.resolution(name)
            assert got.rows == before[name].rows
            assert got.resem_matrix.tobytes() == before[name].resem_matrix.tobytes()


class TestIngestRowCounters:
    def test_counters_equal_transition_cache_advances(self, warm, monkeypatch):
        # perf.ingest.rows_dirty / rows_reused count compiled transition
        # source rows only: over one apply their deltas equal the summed
        # TransitionCache.advance returns across the tracked names.
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        returns = []
        advance = TransitionCache.advance

        def recording_advance(cache, *args, **kwargs):
            result = advance(cache, *args, **kwargs)
            returns.append(result)
            return result

        monkeypatch.setattr(TransitionCache, "advance", recording_advance)
        dirty = counter("perf.ingest.rows_dirty")
        reused = counter("perf.ingest.rows_reused")
        dirty_before, reused_before = dirty.value, reused.value
        engine.apply(split.delta)
        assert len(returns) == len(NAMES)
        assert dirty.value - dirty_before == sum(d for _, d in returns) > 0
        assert reused.value - reused_before == sum(r for r, _ in returns) > 0


class TestReportSurface:
    def test_resolution_unknown_name_raises(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        engine.resolve("Jim Smith")
        report = engine.ingest(Delta())
        with pytest.raises(KeyError):
            report.resolution("Nobody")

    def test_totals_account_every_refresh(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        report = engine.ingest(split.delta)
        totals = report.totals()
        assert totals["names_refreshed"] + totals["names_clean"] == len(NAMES)
        assert totals["refs_new"] > 0  # the delta added references
        assert totals["pairs_recomputed"] > 0

    def test_adopt_of_untracked_name_is_a_noop(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        engine.resolve("Jim Smith")
        report = engine.ingest(split.delta)
        stray = replace(report.refreshes[0], name="Nobody")
        engine.adopt(stray)  # must not raise, must not add state
        assert engine.names == ["Jim Smith"]
