"""Counter / gauge / histogram semantics and registry behavior."""

import threading

import numpy as np
import pytest

from repro.ml.svm import LinearSVM, fit_grid
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    get_metrics,
)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_global_shorthand_binds_to_global_registry(self):
        c = counter("tests.obs.shorthand")
        assert get_metrics().counter("tests.obs.shorthand") is c


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=10: {5.0, 10.0}; <=100: {99.0}; overflow: {1000.0}
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(0.5 + 1.0 + 5.0 + 10.0 + 99.0 + 1000.0)
        assert h.mean == pytest.approx(h.sum / 6)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_empty_histogram_mean(self):
        assert Histogram("h").mean == 0.0

    def test_value_exactly_on_bucket_bound_lands_in_that_bucket(self):
        # ``le`` semantics: the bound belongs to its own bucket, not the
        # next one — this is what OpenMetrics exposition assumes.
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        h.observe(2.0)
        assert h.counts == [1, 1, 0]


class TestThreadSafety:
    N_THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, fn):
        threads = [
            threading.Thread(target=fn) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_counter_incs_are_not_lost(self):
        c = Counter("c")
        self._hammer(lambda: [c.inc() for _ in range(self.PER_THREAD)])
        assert c.value == self.N_THREADS * self.PER_THREAD

    def test_concurrent_gauge_inc_dec_balances(self):
        g = Gauge("g")

        def work():
            for _ in range(self.PER_THREAD):
                g.inc(3)
                g.dec(3)

        self._hammer(work)
        assert g.value == 0

    def test_concurrent_histogram_observes_consistent(self):
        h = Histogram("h", buckets=(0.5,))
        self._hammer(lambda: [h.observe(1.0) for _ in range(self.PER_THREAD)])
        total = self.N_THREADS * self.PER_THREAD
        assert h.count == total
        assert h.counts == [0, total]
        assert h.sum == pytest.approx(float(total))


class TestRegistry:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 2}
        assert snap["histograms"]["h"] == {
            "buckets": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_reset_zeroes_in_place_preserving_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0,))
        c.inc(5)
        g.set(5)
        h.observe(0.5)
        reg.reset()
        # Pre-bound instruments (module-level in hot paths) must survive.
        assert reg.counter("c") is c
        assert c.value == 0
        assert g.value == 0
        assert h.counts == [0, 0]
        assert h.count == 0 and h.sum == 0.0
        c.inc()
        assert reg.snapshot()["counters"]["c"] == 1

    def test_reset_preserves_identity_under_a_live_sampler(self):
        # The sampler binds its instruments at import time; a registry
        # reset mid-run must zero them without orphaning those bindings.
        from repro.obs.sampler import ResourceSampler

        reg = get_metrics()
        saved = reg.snapshot()
        sampler = ResourceSampler(interval=60.0)
        try:
            sampler.sample_once()
            assert reg.counter("obs.sampler.ticks").value >= 1
            reg.reset()
            assert reg.counter("obs.sampler.ticks").value == 0
            sampler.sample_once()
            snap = reg.snapshot()
            assert snap["counters"]["obs.sampler.ticks"] == 1
            assert snap["gauges"]["obs.sampler.rss_bytes"] > 0
        finally:
            # Other tests assert on cumulative global counters; put the
            # pre-test values back (histograms stay zeroed — nothing
            # asserts on their cumulative global state).
            reg.reset()
            for name, value in saved["counters"].items():
                if value:
                    reg.counter(name).inc(value)
            for name, value in saved["gauges"].items():
                if value:
                    reg.gauge(name).set(value)


class TestPipelineCounters:
    """The instrumented hot paths feed the documented global counters."""

    def test_resolve_populates_counters(self, fitted):
        reg = get_metrics()
        before = {
            name: reg.counter(name).value
            for name in (
                "pairs.scored",
                "propagation.batch.tuples",
                "perf.transitions.built",
                "blocking.pairs_kept",
                "features.vectorized.pairs",
                "cluster.merges",
                "cluster.runs",
            )
        }
        fitted.resolve("Wei Wang")
        for name, prior in before.items():
            assert reg.counter(name).value > prior, name

    def test_fit_populates_svm_and_path_counters(self, fitted):
        # ``fitted`` already ran fit(); counters are cumulative.
        reg = get_metrics()
        assert reg.counter("svm.fits").value > 0
        assert reg.counter("svm.iterations").value > 0
        assert reg.counter("paths.enumerated").value > 0
        assert reg.counter("trainingset.pairs_built").value > 0


class TestSvmObservability:
    """Fits report convergence in their span and the svm.* counters."""

    @pytest.fixture
    def tracer(self):
        from repro.obs import disable_tracing, enable_tracing

        yield enable_tracing()
        disable_tracing()

    @staticmethod
    def problem(seed=0, n=24):
        rng = np.random.default_rng(seed)
        y = np.array([1.0, -1.0] * (n // 2))
        X = y[:, None] * 0.8 + rng.normal(size=(n, 3))
        return X, y

    @staticmethod
    def counts():
        reg = get_metrics()
        return {
            name: reg.counter(name).value
            for name in ("svm.fits", "svm.iterations", "svm.unconverged")
        }

    def delta(self, before):
        return {k: v - before[k] for k, v in self.counts().items()}

    def test_fit_span_records_convergence(self, tracer):
        X, y = self.problem()
        before = self.counts()
        capped = LinearSVM(C=100.0, tol=1e-12, max_epochs=3, strict=False).fit(X, y)
        done = LinearSVM(C=0.1, tol=1e-2, max_epochs=500).fit(X, y)
        spans = [s for s in tracer.roots if s.name == "svm.fit"]
        assert [s.attrs["converged"] for s in spans] == [False, True]
        assert (capped.converged_, done.converged_) == (False, True)
        assert spans[0].attrs["epochs"] == 3
        assert self.delta(before) == {
            "svm.fits": 2,
            "svm.iterations": 3 + done.n_epochs_,
            "svm.unconverged": 1,
        }

    def test_fit_grid_opens_one_span_and_counts_every_problem(self, tracer):
        models, problems = [], []
        for seed, (cost, epochs) in enumerate([(0.1, 500), (100.0, 2), (1.0, 500)]):
            models.append(LinearSVM(C=cost, tol=1e-2, max_epochs=epochs, strict=False))
            problems.append(self.problem(seed, n=24 + 2 * (seed % 2)))
        before = self.counts()
        fit_grid(models, problems)
        (grid,) = [s for s in tracer.roots if s.name == "svm.fit_grid"]
        assert not [s for s in tracer.roots if s.name == "svm.fit"]
        epochs = [m.n_epochs_ for m in models]
        unconverged = sum(not m.converged_ for m in models)
        assert unconverged >= 1
        assert grid.attrs == {
            "problems": 3, "n": 26, "epochs": max(epochs), "unconverged": unconverged,
        }
        assert self.delta(before) == {
            "svm.fits": 3,
            "svm.iterations": sum(epochs),
            "svm.unconverged": unconverged,
        }
