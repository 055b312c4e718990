"""Unit tests for :mod:`repro.ingest.runner` (the ``repro ingest`` engine).

Crash/resume byte-identity lives in the property suite; these tests pin
the parameter validation, the delta fingerprint, and the checkpoint
signature (resuming against a different delta must refuse, not mix
epochs).
"""

from __future__ import annotations

import pytest

from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.errors import CheckpointError
from repro.ingest import ingest_checkpoint, ingest_resilient
from repro.ingest.runner import INGEST_MODES, delta_fingerprint
from repro.reldb.delta import Delta

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4


def sample_delta() -> Delta:
    delta = Delta()
    delta.add("Publications", (9, "A Study", 0))
    delta.add("Publish", (9, 1))
    return delta


class TestDeltaFingerprint:
    def test_stable_and_prefixed(self):
        a, b = sample_delta(), sample_delta()
        assert delta_fingerprint(a) == delta_fingerprint(b)
        assert delta_fingerprint(a).startswith("sha256:")

    def test_row_content_changes_the_hash(self):
        other = sample_delta()
        other.add("Publish", (9, 2))
        assert delta_fingerprint(other) != delta_fingerprint(sample_delta())

    def test_row_order_changes_the_hash(self):
        # Row order within a relation fixes row ids: part of the identity.
        base, flipped = Delta(), Delta()
        base.add("Publish", (9, 1))
        base.add("Publish", (9, 2))
        flipped.add("Publish", (9, 2))
        flipped.add("Publish", (9, 1))
        assert delta_fingerprint(flipped) != delta_fingerprint(base)

    def test_relation_order_is_canonicalized(self):
        # Relation insertion order cannot change what apply_delta builds
        # (virtual tables are per relation-attribute), so it is not part
        # of the fingerprint.
        flipped = Delta()
        flipped.add("Publish", (9, 1))
        flipped.add("Publications", (9, "A Study", 0))
        assert delta_fingerprint(flipped) == delta_fingerprint(sample_delta())


class TestCheckpointSignature:
    def test_resume_with_a_different_delta_refuses(self, tmp_path):
        path = tmp_path / "ingest.ckpt.json"
        store = ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact")
        store.save([], errors=[])

        other = sample_delta()
        other.add("Publish", (9, 2))
        mismatched = ingest_checkpoint(path, NAMES, other, MIN_SIM, "exact")
        with pytest.raises(CheckpointError):
            mismatched.load()

    def test_resume_with_the_same_parameters_loads(self, tmp_path):
        path = tmp_path / "ingest.ckpt.json"
        ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact").save(
            [], errors=[]
        )
        payload = ingest_checkpoint(
            path, NAMES, sample_delta(), MIN_SIM, "exact"
        ).load()
        assert payload is not None and payload["completed"] == []

    @pytest.mark.parametrize(
        "names,min_sim,mode",
        [(NAMES[:2], MIN_SIM, "exact"), (NAMES, 0.5, "exact"), (NAMES, MIN_SIM, "greedy")],
    )
    def test_any_other_parameter_change_refuses(self, tmp_path, names, min_sim, mode):
        path = tmp_path / "ingest.ckpt.json"
        ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact").save(
            [], errors=[]
        )
        with pytest.raises(CheckpointError):
            ingest_checkpoint(path, names, sample_delta(), min_sim, mode).load()


class TestParameterValidation:
    def test_unknown_mode_rejected(self, fitted, small_world):
        split = split_world(grow_world(small_world, 2, seed=0), 2)
        with pytest.raises(ValueError, match="mode"):
            ingest_resilient(
                fitted, split.truth, NAMES, split.delta, MIN_SIM, mode="fast"
            )
        assert INGEST_MODES == ("exact", "greedy")

    def test_nonpositive_workers_rejected(self, fitted, small_world):
        split = split_world(grow_world(small_world, 2, seed=0), 2)
        with pytest.raises(ValueError, match="workers"):
            ingest_resilient(
                fitted, split.truth, NAMES, split.delta, MIN_SIM, workers=0
            )


class TestGreedyMode:
    def test_greedy_run_scores_every_name(self, fitted, small_world):
        grown = grow_world(small_world, 5, seed=17)
        split = split_world(grown, 5)
        warm = Distinct.from_models(
            split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
        )
        outcome = ingest_resilient(
            warm, split.truth, NAMES, split.delta, MIN_SIM, mode="greedy"
        )
        assert outcome.complete and not outcome.errors
        assert [r.name for r in outcome.result.names] == NAMES
        assert outcome.result.variant_key == "ingest:greedy"
        assert outcome.stats["names_refreshed"] == len(NAMES)
