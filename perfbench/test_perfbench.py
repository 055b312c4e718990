"""Tests of the benchmark itself, on a tiny world.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workload
from perfbench.workload import Settings
from repro.core.distinct import Distinct
from repro.data.deltas import grow_world
from repro.data.generator import GeneratorConfig, generate_world
from repro.data.world import world_to_database
from repro.resilience import FaultPlan, fault_plan

ROOT = Path(__file__).resolve().parent.parent
TINY = Settings(scale=0.3, ref_share=0.15, training_pairs=15, delta_papers=6)
END_TO_END = {"setup_s", "stage_s", "quality", "ok_frac"}


def _run(name: str, trace: bool = False) -> dict:
    return workload.run(name, seed=3, seconds=0, trace=trace, settings=TINY, worlds=1)


@pytest.mark.parametrize("name", workload.WORKLOADS + workload.EXTRA_WORKLOADS)
def test_each_workload_runs_and_passes_its_checks(name):
    result = _run(name)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_parallel_clusters_hash_like_serial():
    serial = workload.one_rep("resolve", TINY, 3, None)[2]
    parallel = workload.one_rep("resolve-w2", TINY, 3, None)[2]
    assert serial.digests and parallel.digests == serial.digests
    assert parallel.values == serial.values


def test_check_flags_a_pin_mismatch_and_a_parallel_mismatch():
    outcome = workload.one_rep("resolve", TINY, 3, None)[2]
    name = next(iter(outcome.values))
    pins = {"3": {"resolve": {"values": dict(outcome.values),
                              "digests": dict(outcome.digests)}}}
    assert workload.check("resolve", [outcome], pins, None) == []
    pins["3"]["resolve"]["values"][name] += 0.01
    pins["3"]["resolve"]["digests"][name] = "0" * 16
    assert len(workload.check("resolve", [outcome], pins, None)) == 2
    reference = workload.Outcome(attempted=0, failed=0, values={}, world=3,
                                 digests={**outcome.digests, name: "1" * 16})
    assert workload.check("resolve-w2", [outcome], {}, reference)


@pytest.mark.parametrize("name,site", [
    ("resolve", "profile"),
    ("resolve-w2", "profile"),
    ("ingest", "ingest.refresh"),
])
def test_a_failing_name_is_counted_not_raised(name, site):
    with fault_plan(FaultPlan().fail_at(site, item="Rakesh Kumar", times=-1)):
        result = _run(name)
    assert result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
        1 - 1 / result["attempted"])
    assert result["correct"]  # the names that did resolve still check out


def test_ingest_equals_a_cold_refit(tmp_path):
    world = 3
    state = workload.setup_ingest(TINY, world, None, tmp_path)
    outcome = workload.stage_ingest(TINY, state)
    assert outcome.failed == 0

    generated = generate_world(GeneratorConfig(seed=world, scale=TINY.scale),
                               TINY.specs())
    grown = grow_world(generated, TINY.delta_papers, seed=world)
    cold_db, _ = world_to_database(grown)
    fitted = state.distinct
    cold = Distinct.from_models(
        cold_db, fitted.resem_model_, fitted.walk_model_, fitted.config
    )
    for name in state.names:
        ingested = state.engine.resolution(name)
        fresh = cold.resolve(name)
        assert ingested.rows == fresh.rows
        assert ingested.clusters == fresh.clusters
        for matrix in ("resem_matrix", "walk_matrix"):
            a, b = getattr(ingested, matrix), getattr(fresh, matrix)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()


def test_traced_runs_report_every_layer_metric():
    expected = set(layers.PER_LAYER_UNITS)
    fit = _run("fit", trace=True)["metrics"]
    ingest = _run("ingest", trace=True)["metrics"]
    parallel = _run("resolve-w2", trace=True)["metrics"]
    for metrics in (fit, ingest, parallel):
        assert set(metrics) == expected
    for key in ("ml.cv_s", "ml.svm_fit_s", "ml.svm_fits", "ml.svm_epochs",
                "data.generate_s", "reldb.load_s", "core.features_s"):
        assert fit[key]["value"] > 0, key
    for key in ("ingest.apply_s", "ingest.refresh_s", "reldb.apply_delta_s",
                "reldb.delta_rows", "perf.transition_compile_s", "cluster.s",
                "cluster.merges_replayed", "ingest.refs_dirty_frac",
                "paths.propagate_s", "propagation.tuples_visited", "eval.score_s"):
        assert ingest[key]["value"] > 0, key
    # Names resolve in the pool workers, whose spans stay there.
    for key in ("perf.pool_s", "perf.worker_busy_s", "ml.svm_fit_s"):
        assert parallel[key]["value"] > 0, key
    assert 0 <= parallel["perf.worker_idle_frac"]["value"] < 1


def test_self_time_subtracts_child_spans():
    rec = layers.Recorder()
    rec.spans = [
        layers.Span("core.prepare", "core", 0.0, 10.0, -1, 0),
        layers.Span("paths.propagate", "paths", 1.0, 4.0, 0, 0),
        layers.Span("paths.propagate", "paths", 2.0, 3.0, 1, 0),  # nested, same name
        layers.Span("core.features", "similarity", 5.0, 9.0, 0, 0),
        layers.Span("cluster", "cluster", 0.0, 1.0, -1, 1),  # another run
    ]
    inclusive, self_time = layers.span_times(rec.spans, {0})
    assert inclusive == {"core.prepare": 10.0, "paths.propagate": 3.0,
                         "core.features": 4.0}
    assert self_time == {"core": 3.0, "paths": 3.0, "similarity": 4.0}


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert "resolve-w2" in workload.EXTRA_WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END | {"peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER_UNITS)
    assert all(m["unit"] == layers.PER_LAYER_UNITS[m["name"]]
               for m in spec["per_layer"])


def test_pins_cover_the_default_settings():
    pins = workload.load_pins(Settings())
    assert pins, "pins.json is missing or was made with other settings"
    assert {"fit", "resolve", "ingest"} <= set(pins["5"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
