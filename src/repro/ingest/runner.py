"""Resilient delta-ingest runner: the engine behind ``repro ingest``.

Wraps the delta-ingest engine in the same machinery
:func:`repro.eval.runner.run_resilient` gives the experiment loop:
per-name failure policies, a wall-clock deadline, atomic per-name
checkpoints with ``--resume``, and process-pool workers — while keeping
the byte-identity contract (a resumed or parallel run assembles the
same results as an uninterrupted serial one; completed names are loaded
from the checkpoint, remaining names re-ingested exactly as a fresh run
would, because every name's cold-resolve → apply → refresh pipeline is
deterministic and independent of the other names).

The run has two phases. *Cold phase*: each not-yet-checkpointed name is
resolved on the pre-delta database, building the engine state a
long-running service would already hold. *Ingest phase*: the delta is
applied once, caches advance, and each name refreshes down the
invalidation ladder (``mode="exact"``) or through the greedy
single-reference assigner (``mode="greedy"``), then scores against the
post-delta ground truth. Checkpoints record scored names after the
ingest phase, so a crash at any point loses at most one name's work on
resume.

The checkpoint signature includes a fingerprint of the delta's rows:
resuming the store with a different delta raises
:class:`~repro.errors.CheckpointError` instead of silently mixing
epochs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.core.distinct import Distinct, NameResolution
from repro.core.references import extract_references
from repro.data.world import GroundTruth
from repro.errors import DeadlineExceeded
from repro.eval.experiment import ExperimentResult, NameResult, score_resolution
from repro.eval.persistence import name_result_from_dict, name_result_to_dict
from repro.obs import counter, get_logger, histogram, span
from repro.perf import DEFAULT_TASK_RETRIES, RemoteTaskError, ordered_process_map
from repro.reldb.delta import Delta
from repro.resilience import (
    CheckpointStore,
    Deadline,
    ErrorCollector,
    Policy,
    guard,
)

from repro.ingest.engine import IngestEngine, NameRefresh
from repro.ingest.greedy import extend_resolution

__all__ = [
    "INGEST_MODES",
    "IngestRunOutcome",
    "delta_fingerprint",
    "ingest_checkpoint",
    "ingest_resilient",
]

log = get_logger("ingest.runner")

INGEST_MODES = ("exact", "greedy")

_NAMES_INGESTED = counter("ingest.names_scored")
_NAMES_FAILED = counter("ingest.names_failed")
_NAME_SECONDS = histogram("ingest.name_seconds")


def delta_fingerprint(delta: Delta) -> str:
    """Stable content hash of a delta's rows (checkpoint signature part)."""
    canonical = json.dumps(
        {rel: [list(row) for row in rows] for rel, rows in delta.rows.items()},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ingest_checkpoint(
    path, names: list[str], delta: Delta, min_sim: float, mode: str
) -> CheckpointStore:
    """The checkpoint store for one ``ingest`` run's parameters."""
    return CheckpointStore(
        path,
        kind="ingest",
        signature={
            "names": list(names),
            "delta": delta_fingerprint(delta),
            "min_sim": min_sim,
            "mode": mode,
        },
    )


@dataclass
class IngestRunOutcome:
    """What a resilient ingest run produced, and how it ended."""

    result: ExperimentResult
    errors: ErrorCollector = field(default_factory=ErrorCollector)
    interrupted: bool = False
    n_total: int = 0
    epoch: int | None = None
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def n_completed(self) -> int:
        return len(self.result.names)

    @property
    def complete(self) -> bool:
        return not self.interrupted and self.n_completed + len(self.errors) >= self.n_total


def _ingest_name_task(payload, name: str) -> tuple[NameRefresh, NameResult]:
    """Worker body for parallel exact-mode ingest: refresh + score one name."""
    engine, truth = payload
    refresh = engine.refresh(name)
    return refresh, score_resolution(refresh.resolution, truth)


def _accumulate(stats: dict[str, int], refresh: NameRefresh) -> None:
    stats["names_refreshed" if refresh.refreshed else "names_clean"] += 1
    stats["refs_dirty"] += refresh.n_refs_dirty
    stats["refs_new"] += refresh.n_refs_new
    stats["pairs_recomputed"] += refresh.n_pairs_recomputed
    stats["pairs_reused"] += refresh.n_pairs_reused
    stats["merges_replayed"] += refresh.n_merges_replayed


def ingest_resilient(
    distinct: Distinct,
    truth: GroundTruth,
    names: list[str],
    delta: Delta,
    min_sim: float,
    mode: str = "exact",
    measure: str = "combined",
    supervised: bool = True,
    policy: Policy | str = Policy.RAISE,
    collector: ErrorCollector | None = None,
    checkpoint: CheckpointStore | None = None,
    deadline: Deadline | None = None,
    workers: int = 1,
    task_retries: int = DEFAULT_TASK_RETRIES,
) -> IngestRunOutcome:
    """Cold-resolve ``names``, apply ``delta``, refresh, and score.

    ``distinct.db`` must hold the *pre-delta* database; ``truth`` the
    *post-delta* ground truth (the delta's new references belong to
    known entities). ``mode="exact"`` walks the byte-identical ladder;
    ``mode="greedy"`` runs the approximate single-reference assigner
    (always serial — its whole point is being cheap). ``workers > 1``
    fans the exact-mode refreshes out over a fork-primed pool with
    results assembled in input order.
    """
    if mode not in INGEST_MODES:
        raise ValueError(f"mode must be one of {INGEST_MODES}, got {mode!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    policy = Policy.coerce(policy)
    collector = collector if collector is not None else ErrorCollector()
    result = ExperimentResult(variant_key=f"ingest:{mode}", min_sim=min_sim)
    stats = {
        "names_refreshed": 0, "names_clean": 0, "refs_dirty": 0, "refs_new": 0,
        "pairs_recomputed": 0, "pairs_reused": 0, "merges_replayed": 0,
    }
    outcome = IngestRunOutcome(
        result=result, errors=collector, n_total=len(names), stats=stats
    )

    done: dict[str, NameResult] = {}
    if checkpoint is not None and checkpoint.exists():
        payload = checkpoint.load()  # None: corrupt file was quarantined
        if payload is not None:
            done = {
                entry["name"]: name_result_from_dict(entry)
                for entry in payload["completed"]
            }

    def save_progress(complete: bool = False) -> None:
        if checkpoint is not None:
            checkpoint.save(
                [name_result_to_dict(r) for r in result.names],
                errors=collector.to_dicts(),
                complete=complete,
            )

    with span(
        "ingest.resilient",
        mode=mode,
        min_sim=min_sim,
        n_names=len(names),
        workers=workers,
    ) as sp:
        # -- cold phase: pre-delta state for every name still to ingest ----
        engine = IngestEngine(
            distinct, min_sim=min_sim, measure=measure, supervised=supervised
        )
        cold: dict[str, NameResolution] = {}
        for name in names:
            if name in done:
                continue
            if deadline is not None and deadline.expired():
                outcome.interrupted = True
                break
            with guard("ingest.cold", name, policy, collector):
                try:
                    cold[name] = engine.resolve(name)
                except (DeadlineExceeded, KeyboardInterrupt):
                    raise
                except Exception:
                    _NAMES_FAILED.inc()
                    raise
        if outcome.interrupted:
            sp.annotate(n_completed=0, interrupted=True)
            save_progress()
            return outcome

        # -- ingest phase: one apply, then per-name refresh + score --------
        applied = engine.apply(delta)
        outcome.epoch = applied.epoch
        pending = [n for n in names if n in cold]

        greedy_new: dict[str, list[int]] = {}
        if mode == "greedy":
            for name in pending:
                refs = extract_references(distinct.db, name, distinct.config)
                known = set(cold[name].rows)
                greedy_new[name] = [r for r in refs.rows if r not in known]

        results_iter = None
        if mode == "exact" and workers > 1:
            results_iter = ordered_process_map(
                _ingest_name_task,
                (engine, truth),
                pending,
                workers=workers,
                deadline=deadline,
                task_retries=task_retries,
            )
        try:
            for name in names:
                if name in done:
                    result.names.append(done[name])
                    continue
                if name not in cold:  # cold phase failed it under the policy
                    continue
                if deadline is not None and deadline.expired():
                    outcome.interrupted = True
                    break
                scored = None
                if results_iter is not None:
                    task = next(results_iter)
                    assert task.item == name, "parallel map yielded out of order"
                    if task.interrupted:
                        outcome.interrupted = True
                        break
                    _NAME_SECONDS.observe(task.seconds)
                    with guard("ingest.refresh", name, policy, collector):
                        if task.error is not None:
                            _NAMES_FAILED.inc()
                            raise RemoteTaskError(task.error)
                        refresh, scored = task.value
                        engine.adopt(refresh)
                        _accumulate(stats, refresh)
                else:
                    name_start = time.perf_counter()
                    with guard("ingest.refresh", name, policy, collector):
                        try:
                            if mode == "greedy":
                                extended, _ = extend_resolution(
                                    distinct,
                                    cold[name],
                                    greedy_new[name],
                                    min_sim=min_sim,
                                )
                                scored = score_resolution(extended, truth)
                                stats["refs_new"] += len(greedy_new[name])
                                stats["names_refreshed"] += 1
                            else:
                                refresh = engine.refresh(name)
                                _accumulate(stats, refresh)
                                scored = score_resolution(refresh.resolution, truth)
                        except (DeadlineExceeded, KeyboardInterrupt):
                            raise
                        except Exception:
                            _NAMES_FAILED.inc()
                            raise
                    _NAME_SECONDS.observe(time.perf_counter() - name_start)
                if scored is None:  # failed and policy skipped/collected it
                    save_progress()
                    continue
                result.names.append(scored)
                _NAMES_INGESTED.inc()
                save_progress()
        finally:
            if results_iter is not None:
                results_iter.close()
        sp.annotate(
            n_completed=outcome.n_completed,
            n_failed=len(collector),
            interrupted=outcome.interrupted,
        )
    save_progress(complete=outcome.complete)
    return outcome
