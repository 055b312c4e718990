"""Parallel per-name execution must be indistinguishable from serial.

The acceptance bar is byte-identical serialized results: ``--workers N``
may only change wall-clock time, never a single byte of the
:class:`~repro.eval.experiment.ExperimentResult` JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.core.variants import variant_by_key
from repro.eval.persistence import experiment_result_to_dict
from repro.eval.runner import run_resilient
from repro.eval.calibration import calibrate_min_sim
from repro.obs import disable_tracing, enable_tracing
from repro.resilience import ErrorCollector, FaultPlan, fault_plan


@pytest.fixture(scope="module")
def names(small_world):
    return small_world.ambiguous_names


def _result_bytes(outcome) -> str:
    return json.dumps(experiment_result_to_dict(outcome.result), sort_keys=True)


class TestParallelExperiment:
    def test_workers_4_byte_identical_to_serial(self, fitted, small_db, names):
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        serial = run_resilient(fitted, truth, names, variant, min_sim)
        parallel = run_resilient(
            fitted, truth, names, variant, min_sim, workers=4
        )
        assert _result_bytes(serial) == _result_bytes(parallel)
        assert not parallel.interrupted
        assert parallel.complete

    def test_workers_2_byte_identical_to_serial(self, fitted, small_db, names):
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        serial = run_resilient(fitted, truth, names, variant, min_sim)
        parallel = run_resilient(
            fitted, truth, names, variant, min_sim, workers=2
        )
        assert _result_bytes(serial) == _result_bytes(parallel)

    def test_unknown_name_is_collected_like_serial(self, fitted, small_db, names):
        """Dispatch costs are computed in the parent; an unknown name must
        still fail inside its worker's guard, exactly as it does serially,
        instead of escaping ``policy="collect"``."""
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        with_unknown = [names[0], "No Such Author", *names[1:]]
        runs = {}
        for workers in (1, 2):
            collector = ErrorCollector()
            outcome = run_resilient(
                fitted, truth, with_unknown, variant, min_sim,
                policy="collect", collector=collector, workers=workers,
            )
            assert collector.items() == ["No Such Author"]
            assert [r.name for r in outcome.result.names] == names
            assert outcome.complete
            runs[workers] = _result_bytes(outcome)
        assert runs[1] == runs[2]

    def test_worker_failure_follows_skip_policy(self, fitted, small_db, names):
        _, truth = small_db
        variant = variant_by_key("distinct")
        plan = FaultPlan()
        plan.fail_at("profile", item=names[0])
        collector = ErrorCollector()
        with fault_plan(plan):
            outcome = run_resilient(
                fitted,
                truth,
                names,
                variant,
                fitted.config.min_sim,
                policy="collect",
                collector=collector,
                workers=2,
            )
        assert len(collector) == 1
        assert collector.to_dicts()[0]["item"] == names[0]
        scored = [r.name for r in outcome.result.names]
        assert scored == names[1:]

    def test_rejects_nonpositive_workers(self, fitted, small_db, names):
        _, truth = small_db
        with pytest.raises(ValueError):
            run_resilient(
                fitted,
                truth,
                names,
                variant_by_key("distinct"),
                fitted.config.min_sim,
                workers=0,
            )


class TestParallelTracing:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        disable_tracing()
        yield
        disable_tracing()

    def test_worker_spans_grafted_and_results_unchanged(
        self, fitted, small_db, names
    ):
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        serial = run_resilient(fitted, truth, names, variant, min_sim)

        tracer = enable_tracing()
        parallel = run_resilient(
            fitted, truth, names, variant, min_sim, workers=4
        )
        assert _result_bytes(serial) == _result_bytes(parallel)

        (root,) = [r for r in tracer.roots if r.name == "experiment.resilient"]
        grafted = [c for c in root.children if "worker" in c.attrs]
        assert grafted, "no worker subtrees landed in the parent trace"
        assert {sp.attrs["worker"] for sp in grafted} <= set(range(4))
        assert all(sp.attrs["worker_pid"] > 0 for sp in grafted)
        # The subtrees are the real per-name pipeline spans, not stubs.
        prepared = [sp for sp in grafted if sp.find("resolve.prepare")]
        assert len(prepared) == len(names)
        traced_names = {
            sp.find("resolve.prepare").attrs["name"] for sp in prepared
        }
        assert traced_names == set(names)


class TestParallelCalibration:
    def test_workers_match_serial(self, fitted):
        serial = calibrate_min_sim(fitted, n_names=3, members=2, seed=5)
        parallel = calibrate_min_sim(fitted, n_names=3, members=2, seed=5, workers=2)
        assert serial.f1_by_min_sim == parallel.f1_by_min_sim
        assert serial.best_min_sim == parallel.best_min_sim
        assert parallel.n_scored == serial.n_scored
