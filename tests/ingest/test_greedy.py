"""Unit tests for the greedy assigner."""

from __future__ import annotations

import pytest

from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.ingest import Assignment, extend_resolution

MIN_SIM = 0.4


def warm_resolution(fitted, small_world, name, n_delta=4, seed=19):
    pool = [e.entity_id for e in small_world.entities if e.name == name]
    grown = grow_world(small_world, n_delta, seed=seed, author_pool=pool)
    split = split_world(grown, n_delta)
    warm = Distinct.from_models(
        split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
    )
    resolution = warm.cluster_prepared(warm.prepare(name), min_sim=MIN_SIM)
    from repro.reldb.delta import apply_delta
    from repro.core.references import extract_references

    apply_delta(warm.db, split.delta)
    refs = extract_references(warm.db, name, warm.config)
    new_rows = [r for r in refs.rows if r not in set(resolution.rows)]
    return warm, resolution, new_rows


class TestExtendResolution:
    def test_new_rows_join_without_mutating_the_input(self, fitted, small_world):
        warm, resolution, new_rows = warm_resolution(
            fitted, small_world, "Jim Smith"
        )
        assert new_rows  # the author pool guarantees fresh references
        n_before = len(resolution.rows)
        extended, assignments = extend_resolution(
            warm, resolution, new_rows, min_sim=MIN_SIM
        )
        assert len(resolution.rows) == n_before  # input untouched
        assert extended.rows == resolution.rows + new_rows
        assert [a.row for a in assignments] == new_rows
        assert extended.resem_matrix.shape == (len(extended.rows),) * 2
        for a in assignments:
            assert isinstance(a, Assignment)
            assert a.row in extended.clusters[a.cluster_index]

    def test_impossible_threshold_creates_singletons(self, fitted, small_world):
        warm, resolution, new_rows = warm_resolution(
            fitted, small_world, "Jim Smith"
        )
        extended, assignments = extend_resolution(
            warm, resolution, new_rows, min_sim=1.1
        )
        assert all(a.created_new_cluster for a in assignments)
        assert len(extended.clusters) == len(resolution.clusters) + len(new_rows)

    def test_already_resolved_row_rejected(self, fitted, small_world):
        warm, resolution, _ = warm_resolution(fitted, small_world, "Jim Smith")
        with pytest.raises(ValueError, match="already resolved"):
            extend_resolution(warm, resolution, [resolution.rows[0]])
