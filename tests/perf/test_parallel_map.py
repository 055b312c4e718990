"""Tests for the ordered process-pool map.

Worker functions must be module-level (they are pickled by reference into
the pool's call queue).
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import counter, disable_tracing, enable_tracing, get_metrics, span
from repro.perf import (
    RemoteTaskError,
    TaskOutcome,
    name_cost,
    ordered_process_map,
    should_inline,
)
from repro.resilience import Deadline


def _scale(payload, item):
    return payload * item


def _square(payload, item):
    return item * item


def _fail_on_three(payload, item):
    if item == 3:
        raise RuntimeError("poisoned item")
    return item


def _bump_counter(payload, item):
    counter("perf.test.bumps").inc(item)
    return item


def _sleepy(payload, item):
    time.sleep(item)
    return item


def _traced_work(payload, item):
    with span("worker.item", item=item):
        with span("worker.item.inner"):
            time.sleep(0.001)
    return item * 2


def _kill_worker_once(payload, item):
    """SIGKILL this worker on item 3, once across the whole run.

    ``payload`` is a latch path: the O_CREAT|O_EXCL claim makes exactly
    one process die even though every forked worker runs this code.
    """
    if item == 3:
        try:
            os.close(os.open(payload, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return item * 10


def _kill_worker_always(payload, item):
    """Item 3 is poisonous: it kills its worker on every dispatch."""
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 10


class TestOrderedProcessMap:
    def test_results_follow_input_order(self):
        items = [5, 1, 4, 2, 3]
        outcomes = list(ordered_process_map(_scale, 10, items, workers=2))
        assert [o.item for o in outcomes] == items
        assert [o.value for o in outcomes] == [50, 10, 40, 20, 30]
        assert all(o.ok for o in outcomes)

    def test_worker_error_is_data_not_poison(self):
        outcomes = list(ordered_process_map(_fail_on_three, None, [1, 3, 2], workers=2))
        by_item = {o.item: o for o in outcomes}
        assert by_item[1].ok and by_item[2].ok  # pool survives the failure
        failed = by_item[3]
        assert not failed.ok
        assert failed.error == {"type": "RuntimeError", "message": "poisoned item"}
        with pytest.raises(RemoteTaskError, match="poisoned item"):
            failed.unwrap()

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ordered_process_map(_scale, 1, [1], workers=0)

    def test_counter_deltas_merge_into_parent(self):
        before = get_metrics().counter("perf.test.bumps").value
        list(ordered_process_map(_bump_counter, None, [2, 3, 5], workers=2))
        after = get_metrics().counter("perf.test.bumps").value
        assert after - before == pytest.approx(10)

    def test_deadline_interrupts_remaining_items(self):
        deadline = Deadline.after(0.3)
        outcomes = list(
            ordered_process_map(
                _sleepy, None, [0.0, 1.0, 0.0, 0.0], workers=1, deadline=deadline
            )
        )
        assert outcomes[0].ok
        interrupted = [o.interrupted for o in outcomes]
        assert any(interrupted)
        # Once interrupted, every later outcome is interrupted too.
        first = interrupted.index(True)
        assert all(interrupted[first:])

    def test_early_abandonment_is_clean(self):
        results = ordered_process_map(_scale, 1, list(range(8)), workers=2)
        first = next(results)
        assert first == TaskOutcome(item=0, value=0)
        results.close()  # must not hang or raise


class TestWorkerDeathRecovery:
    def _deaths(self):
        return get_metrics().counter("perf.parallel.worker_deaths").value

    def _redispatched(self):
        return get_metrics().counter("perf.parallel.tasks_redispatched").value

    def test_single_death_recovers_with_identical_results(self, tmp_path):
        items = list(range(8))
        serial = list(
            ordered_process_map(_scale, 10, items, workers=2, inline=True)
        )
        deaths0 = self._deaths()
        latch = tmp_path / "latch"
        outcomes = list(
            ordered_process_map(_kill_worker_once, str(latch), items, workers=2)
        )
        assert self._deaths() - deaths0 == 1
        assert all(o.ok for o in outcomes)
        assert [o.item for o in outcomes] == items
        assert [o.value for o in outcomes] == [o.value for o in serial]

    def test_redispatch_counted(self, tmp_path):
        redisp0 = self._redispatched()
        list(
            ordered_process_map(
                _kill_worker_once, str(tmp_path / "latch"), list(range(8)),
                workers=2,
            )
        )
        assert self._redispatched() > redisp0

    def test_repeat_killer_surfaces_as_worker_crashed(self):
        deaths0 = self._deaths()
        outcomes = list(
            ordered_process_map(
                _kill_worker_always, None, [1, 2, 3, 4], workers=2,
                task_retries=1,
            )
        )
        by_item = {o.item: o for o in outcomes}
        assert by_item[1].ok and by_item[2].ok and by_item[4].ok
        failed = by_item[3]
        assert not failed.ok
        assert failed.error["type"] == "WorkerCrashed"
        with pytest.raises(RemoteTaskError, match="WorkerCrashed"):
            failed.unwrap()
        # First death shared with innocents, second alone on probation.
        assert self._deaths() - deaths0 == 2

    def test_zero_retries_fails_fast(self):
        outcomes = list(
            ordered_process_map(
                _kill_worker_always, None, [3], workers=1, task_retries=0
            )
        )
        assert outcomes[0].error["type"] == "WorkerCrashed"
        assert "died 1 time(s)" in outcomes[0].error["message"]

    def test_rejects_negative_task_retries(self):
        with pytest.raises(ValueError):
            ordered_process_map(_scale, 1, [1], workers=1, task_retries=-1)


class TestDispatchOrder:
    """Costs change when each item runs, never what is returned."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Record every pool's size and every submitted item, in order."""
        record = {"sizes": [], "submitted": []}

        class SpyPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                record["sizes"].append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                record["submitted"].append(args[1])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr("repro.perf.parallel.ProcessPoolExecutor", SpyPool)
        return record

    def test_heaviest_first_outcomes_in_input_order(self, spy):
        items = [10, 11, 12, 13, 14, 15]
        costs = [1.0, 9.0, 4.0, 9.0, 0.0, 25.0]
        outcomes = list(
            ordered_process_map(_scale, 2, items, workers=2, costs=costs)
        )
        # Heaviest first; equal costs keep their input order.
        assert spy["submitted"] == [15, 11, 13, 12, 10, 14]
        assert [o.item for o in outcomes] == items
        assert [o.value for o in outcomes] == [2 * i for i in items]

    def test_without_costs_dispatch_is_input_order(self, spy):
        items = [5, 1, 4, 2, 3]
        list(ordered_process_map(_scale, 10, items, workers=2))
        assert spy["submitted"] == items

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cost_order_is_byte_identical_to_serial(self, workers):
        items = list(range(30))
        costs = [name_cost((i * 13) % 9 + 1) for i in items]
        plain = [
            (t.item, t.value)
            for t in ordered_process_map(_square, None, items, workers=workers)
        ]
        heaviest_first = [
            (t.item, t.value)
            for t in ordered_process_map(
                _square, None, items, workers=workers, costs=costs
            )
        ]
        inline = [
            (t.item, t.value)
            for t in ordered_process_map(
                _square, None, items, workers=1, inline=True
            )
        ]
        assert plain == heaviest_first == inline

    def test_costs_must_match_items(self):
        with pytest.raises(ValueError, match="one entry per item"):
            ordered_process_map(_square, None, [1, 2], workers=2, costs=[1.0])

    def test_name_cost_is_quadratic_in_refs(self):
        assert name_cost(0) == 0.0
        assert name_cost(3) == 9.0
        assert name_cost(10) == 4 * name_cost(5)

    def test_pool_never_larger_than_its_items(self, spy, tmp_path):
        outcomes = list(ordered_process_map(_scale, 1, [1, 2], workers=4))
        assert [o.value for o in outcomes] == [1, 2]
        assert spy["sizes"] == [2]
        # A respawn after a worker death sizes to the items still open.
        spy["sizes"].clear()
        items = [1, 2, 3]
        outcomes = list(
            ordered_process_map(
                _kill_worker_once, str(tmp_path / "latch"), items, workers=4
            )
        )
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert spy["sizes"][0] == 3
        assert len(spy["sizes"]) == 2
        assert all(size <= len(items) for size in spy["sizes"])


class TestInlineDispatch:
    def test_inline_outcomes_identical_to_pool(self):
        items = [5, 1, 4, 2, 3]
        pooled = list(ordered_process_map(_scale, 10, items, workers=2))
        inlined = list(
            ordered_process_map(_scale, 10, items, workers=2, inline=True)
        )
        assert inlined == pooled

    def test_inline_error_as_data(self):
        outcomes = list(
            ordered_process_map(_fail_on_three, None, [1, 3, 2], workers=1, inline=True)
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        with pytest.raises(RemoteTaskError, match="poisoned item"):
            outcomes[1].unwrap()

    def test_inline_counters_count_in_process(self):
        metrics = get_metrics()
        bumps0 = metrics.counter("perf.test.bumps").value
        inlined0 = metrics.counter("perf.parallel.tasks_inlined").value
        list(ordered_process_map(_bump_counter, None, [2, 3, 5], workers=1, inline=True))
        assert metrics.counter("perf.test.bumps").value - bumps0 == pytest.approx(10)
        assert metrics.counter("perf.parallel.tasks_inlined").value - inlined0 == 3

    def test_inline_deadline_interrupts(self):
        deadline = Deadline.after(0.05)
        outcomes = list(
            ordered_process_map(
                _sleepy, None, [0.1, 0.0, 0.0], workers=1, inline=True,
                deadline=deadline,
            )
        )
        assert outcomes[0].ok
        assert outcomes[1].interrupted and outcomes[2].interrupted


class TestTraceGrafting:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        disable_tracing()
        yield
        disable_tracing()

    def test_worker_spans_grafted_into_parent_trace(self):
        tracer = enable_tracing()
        grafted0 = get_metrics().counter("perf.parallel.spans_grafted").value
        with span("driver") as parent:
            outcomes = list(
                ordered_process_map(_traced_work, None, [1, 2, 3], workers=2)
            )
        assert [o.value for o in outcomes] == [2, 4, 6]
        worker_roots = [c for c in parent.children if c.name == "worker.item"]
        assert len(worker_roots) == 3
        assert {sp.attrs["item"] for sp in worker_roots} == {1, 2, 3}
        for sp in worker_roots:
            assert sp.attrs["worker"] in (0, 1)
            assert sp.attrs["worker_pid"] > 0
            assert [c.name for c in sp.children] == ["worker.item.inner"]
            assert sp.end is not None
        assert tracer.roots == [parent]  # grafts landed under the open span
        delta = get_metrics().counter("perf.parallel.spans_grafted").value - grafted0
        assert delta == 3

    def test_results_identical_with_and_without_tracing(self):
        plain = list(ordered_process_map(_traced_work, None, [3, 1, 2], workers=2))
        enable_tracing()
        traced = list(ordered_process_map(_traced_work, None, [3, 1, 2], workers=2))
        assert traced == plain  # seconds/worker_pid are compare=False

    def test_no_grafting_when_tracing_disabled(self):
        grafted0 = get_metrics().counter("perf.parallel.spans_grafted").value
        outcomes = list(ordered_process_map(_traced_work, None, [1, 2], workers=2))
        assert [o.value for o in outcomes] == [2, 4]
        assert (
            get_metrics().counter("perf.parallel.spans_grafted").value == grafted0
        )

    def test_task_seconds_populated(self):
        enable_tracing()
        outcomes = list(ordered_process_map(_traced_work, None, [1], workers=1))
        assert outcomes[0].seconds > 0.0
        assert outcomes[0].worker_pid is not None

    def test_inline_map_keeps_spans_local(self):
        tracer = enable_tracing()
        with span("driver") as parent:
            list(
                ordered_process_map(
                    _traced_work, None, [1, 2], workers=2, inline=True
                )
            )
        names = [c.name for c in parent.children]
        assert names == ["worker.item", "worker.item"]
        # Inline spans are recorded directly, not round-tripped over the wire.
        assert all("worker" not in c.attrs for c in parent.children)
        assert tracer.roots == [parent]


class TestShouldInline:
    def test_structural_cases(self):
        assert should_inline(10, workers=1)  # nothing to parallelize
        assert should_inline(1, workers=4)
        assert should_inline(0, workers=4)

    def test_cost_threshold(self, monkeypatch):
        monkeypatch.setattr("repro.perf.parallel.os.cpu_count", lambda: 8)
        assert should_inline(10, workers=4, task_cost_hint=0.001)
        assert not should_inline(10, workers=4, task_cost_hint=1.0)
        assert not should_inline(10, workers=4, task_cost_hint=None)

    def test_single_core_host_inlines(self, monkeypatch):
        monkeypatch.setattr("repro.perf.parallel.os.cpu_count", lambda: 1)
        assert should_inline(10, workers=4, task_cost_hint=10.0)
