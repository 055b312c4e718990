"""Property: delta ingest == cold refit, byte for byte.

Random grown worlds split into (base, delta): an :class:`IngestEngine`
that resolved every name pre-delta and then applies the delta must
produce exactly the rows, clusters, pair matrices, dendrogram merges,
and merge similarities of a cold ``prepare``/``cluster_prepared`` on
the post-delta database with the same fitted models — on the default
pair-feature route, on the reference route, and with ``workers=4`` —
plus a crash-mid-ingest + resume chaos case through the resilient
runner. Across routes (default-route ingest against a reference-route
cold refit) the clusterings are equal and the matrices agree to
floating-point reassociation tolerance.

The fitted models come from the session-scoped ``fitted`` fixture (the
full small world); each case re-binds them to a pre-delta base via
``Distinct.from_models``, which is exactly the live-service situation
delta ingest models: the models are held fixed, only the database grows.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.ingest import IngestEngine, ingest_checkpoint, ingest_resilient
from repro.resilience import ErrorCollector, FaultInjected, FaultPlan, fault_plan

from tests.kernel_oracle import reference_route

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4

#: (ingest route, cold-refit route)
ROUTES = [
    pytest.param("reference", "reference", id="scalar-reference"),
    pytest.param("default", "default", id="vectorized-default"),
    pytest.param("default", "reference", id="pruned-default-vs-reference"),
]


def snapshot(resolution):
    """Everything byte-identity compares for one resolved name."""
    clustering = resolution.clustering
    return {
        "rows": list(resolution.rows),
        "clusters": sorted(sorted(c) for c in resolution.clusters),
        "resem": resolution.resem_matrix.tobytes()
        if resolution.resem_matrix is not None
        else None,
        "walk": resolution.walk_matrix.tobytes()
        if resolution.walk_matrix is not None
        else None,
        "merges": list(clustering.dendrogram.merges) if clustering else [],
        "sims": np.asarray(clustering.merge_similarities).tobytes()
        if clustering
        else b"",
    }


def rebind(fitted, db, **config_overrides):
    """The fitted models bound to another database instance."""
    config = replace(fitted.config, **config_overrides)
    return Distinct.from_models(
        db, fitted.resem_model_, fitted.walk_model_, config
    )


def on_route(route):
    """Run a ``degradation="fallback"`` pipeline on ``route``."""
    return reference_route() if route == "reference" else nullcontext()


def ingest_vs_cold(
    fitted, world, n_delta, seed, workers=1, ingest_route="default",
    cold_route="default",
):
    """Run the engine over a grown-world split; assert equality per name."""
    grown = grow_world(world, n_delta, seed=seed)
    split = split_world(grown, n_delta)
    routes = {ingest_route, cold_route}
    overrides = {"degradation": "fallback"} if "reference" in routes else {}

    warm = rebind(fitted, split.base, **overrides)
    with on_route(ingest_route):
        engine = IngestEngine(warm, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        report = engine.ingest(split.delta, workers=workers)

    from repro.data.world import world_to_database

    post_db, _ = world_to_database(grown)
    cold = rebind(fitted, post_db, **overrides)
    for name in NAMES:
        with on_route(cold_route):
            expected = cold.cluster_prepared(cold.prepare(name), min_sim=MIN_SIM)
        got = report.resolution(name)
        context = f"{name}: seed={seed}, n_delta={n_delta}"
        if ingest_route == cold_route:
            assert snapshot(got) == snapshot(expected), (
                f"delta ingest diverged from cold refit ({context})"
            )
            continue
        assert got.rows == expected.rows, context
        assert got.clusters == expected.clusters, context
        for matrix in ("resem_matrix", "walk_matrix"):
            np.testing.assert_allclose(
                getattr(got, matrix), getattr(expected, matrix),
                rtol=0, atol=1e-12, err_msg=context,
            )
    return report


class TestByteIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        n_delta=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_split_matches_cold_refit(
        self, fitted, small_world, n_delta, seed
    ):
        ingest_vs_cold(fitted, small_world, n_delta, seed)

    @pytest.mark.parametrize("ingest_route,cold_route", ROUTES)
    def test_every_backend_matches_cold_refit(
        self, fitted, small_world, ingest_route, cold_route
    ):
        ingest_vs_cold(
            fitted,
            small_world,
            12,
            seed=5,
            ingest_route=ingest_route,
            cold_route=cold_route,
        )

    def test_parallel_ingest_matches_cold_refit(self, fitted, small_world):
        report = ingest_vs_cold(
            fitted,
            small_world,
            12,
            seed=5,
            workers=4,
        )
        assert report.names_refreshed or report.names_clean

    def test_parallel_equals_serial(self, fitted, small_world):
        grown = grow_world(small_world, 10, seed=9)
        split = split_world(grown, 10)
        snaps = []
        for workers in (1, 4):
            warm = rebind(
                fitted,
                split_world(grown, 10).base,
            )
            engine = IngestEngine(warm, min_sim=MIN_SIM)
            for name in NAMES:
                engine.resolve(name)
            report = engine.ingest(split.delta, workers=workers)
            snaps.append({n: snapshot(report.resolution(n)) for n in NAMES})
        assert snaps[0] == snaps[1]


class TestCrashMidIngestResume:
    """Chaos: a crash between names loses at most the in-flight name."""

    def test_faulted_run_resumes_byte_identical(
        self, fitted, small_world, small_db, tmp_path
    ):
        grown = grow_world(small_world, 8, seed=21)
        split = split_world(grown, 8)
        store_path = tmp_path / "ingest.ckpt.json"

        def runner(checkpoint):
            warm = rebind(
                fitted,
                split_world(grown, 8).base,
            )
            return ingest_resilient(
                warm,
                split.truth,
                NAMES,
                split.delta,
                MIN_SIM,
                checkpoint=checkpoint,
            )

        baseline = runner(None)
        assert baseline.complete and not baseline.errors

        # Crash on the second name mid-refresh; the first is checkpointed.
        store = ingest_checkpoint(store_path, NAMES, split.delta, MIN_SIM, "exact")
        plan = FaultPlan().fail_at("ingest.refresh", item=NAMES[1])
        with fault_plan(plan), pytest.raises(FaultInjected):
            runner(store)
        assert store.exists()
        payload = store.load()
        assert [e["name"] for e in payload["completed"]] == [NAMES[0]]
        assert not payload.get("complete", False)

        # Resume: the checkpointed name is loaded, the rest re-ingested.
        resumed = runner(
            ingest_checkpoint(store_path, NAMES, split.delta, MIN_SIM, "exact")
        )
        assert resumed.complete and not resumed.errors
        assert [r.name for r in resumed.result.names] == NAMES
        for got, want in zip(resumed.result.names, baseline.result.names):
            assert got.name == want.name
            assert got.scores == want.scores
            assert got.n_clusters == want.n_clusters

    def test_collect_policy_scores_the_rest(self, fitted, small_world):
        grown = grow_world(small_world, 8, seed=21)
        split = split_world(grown, 8)
        warm = rebind(
            fitted,
            split_world(grown, 8).base,
        )
        collector = ErrorCollector()
        with fault_plan(FaultPlan().fail_at("ingest.refresh", item=NAMES[1])):
            outcome = ingest_resilient(
                warm,
                split.truth,
                NAMES,
                split.delta,
                MIN_SIM,
                policy="collect",
                collector=collector,
            )
        assert collector.items() == [NAMES[1]]
        assert [r.name for r in outcome.result.names] == [NAMES[0], NAMES[2]]
