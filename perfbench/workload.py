"""One benchmark workload, run in one fresh interpreter.

``python -m perfbench.workload --workload resolve --seed 5 --seconds 20
--trace 0`` (normally started by ``perfbench/run.py``, which pins the
thread pools and measures peak RSS) prints one JSON line.

Every workload runs the program's default configuration on a world
generated from ``--seed``. A repetition is a fresh set-up (generate,
save and reload the CSV database as the CLI does, fit) followed by the
timed stage. A run cycles over :data:`WORLDS` worlds derived from the
seed (see :func:`world_seed`), visiting each at least once and
continuing until ``--seconds`` have passed; times are medians over
repetitions, quality the mean over worlds.

The world is ``generate --scale 1`` with every Table-1 entity keeping a
third of its references (see :class:`Settings`), so that a repetition
takes seconds rather than minutes.

- ``fit``: ``Distinct.fit`` with the ``repro fit`` defaults (C grid,
  3-fold CV) on ``training_pairs`` positive and negative pairs.
- ``resolve`` / ``resolve-w2``: ``run_resilient`` over the ambiguous
  names, as ``repro experiment`` runs it, with 1 or 2 workers; the
  set-up fits with fixed ``svm_C`` and reloads the saved models.
- ``ingest``: ``IngestEngine`` apply + per-name refresh (what
  ``ingest(delta)`` runs with one worker) and scoring, on an engine that
  already holds every name; its set-up includes the cold start.

Names run under ``Policy.COLLECT``: a failing name is counted in
``failed``, not raised. Outputs are checked after the run (see
:func:`check`); a failed check sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import DistinctConfig
from repro.core.distinct import Distinct
from repro.core.variants import variant_by_key
from repro.data.ambiguity import TABLE1_SPEC
from repro.data.dblp_schema import prepare_dblp_database
from repro.data.deltas import grow_world, split_world
from repro.data.generator import GeneratorConfig, generate_world
from repro.data.world import load_ground_truth, save_ground_truth, world_to_database
from repro.eval import experiment, runner
from repro.ingest.engine import IngestEngine
from repro.ml.model import PathWeightModel
from repro.obs import get_metrics
from repro.reldb.csvio import load_database, save_database
from repro.reldb.delta import load_delta, save_delta
from repro.resilience import ErrorCollector, Policy, guard

from perfbench import layers

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: temporary worlds and span dumps.
WORK = ROOT / ".perfbench"
PINS = Path(__file__).with_name("pins.json")

#: The workloads of BENCHMARK.json.
WORKLOADS = ("fit", "resolve", "ingest")
#: Runs by hand but is not in BENCHMARK.json: two workers on a shared
#: two-core host spread too much between runs to gate on (see README).
EXTRA_WORKLOADS = ("resolve-w2",)
#: Which pinned outputs a workload must reproduce.
PIN_KIND = {
    "fit": "fit", "resolve": "resolve", "resolve-w2": "resolve", "ingest": "ingest",
}
#: Worlds per run; every run repeats each at least once.
WORLDS = 4
#: A traced run pairs an untraced and a traced repetition on each of
#: its first TRACED_WORLDS worlds.
TRACED_WORLDS = 2
#: Repetitions stop once this much wall time has passed (the run must end
#: well inside its 180 s limit).
MAX_WALL_S = 120.0
#: The C the default grid picks on these worlds; set-up fits skip the grid.
SVM_C = 100.0
#: Workers of resolve-w2: both cores of the two-core reference host.
WORKERS = 2


@dataclass(frozen=True)
class Settings:
    """World and training sizes. The defaults are the benchmark's; tests
    shrink them."""

    scale: float = 1.0
    # Each Table-1 entity keeps this share of its references (at least 1).
    ref_share: float = 1 / 3
    training_pairs: int = 50
    delta_papers: int = 10

    def specs(self):
        return [
            dataclasses.replace(
                spec,
                ref_counts=tuple(
                    max(1, round(count * self.ref_share)) for count in spec.ref_counts
                ),
            )
            for spec in TABLE1_SPEC
        ]


@dataclass
class State:
    db: object
    truth: object
    names: list[str]
    delta: object = None
    distinct: Distinct | None = None
    engine: IngestEngine | None = None


@dataclass
class Outcome:
    """What one timed stage produced."""

    attempted: int
    failed: int
    values: dict[str, float]  # per name: F1; for fit: the two train accuracies
    digests: dict[str, str] = field(default_factory=dict)  # per name: clusters
    problems: list[str] = field(default_factory=list)
    refs: int = 0
    world: int = -1  # the world seed it ran on
    clusters: dict[str, list] = field(default_factory=dict)  # until verify()

    @property
    def quality(self) -> float:
        return statistics.fmean(self.values.values()) if self.values else 0.0


# -- set-up ----------------------------------------------------------------------


def build_world(
    settings: Settings, seed: int, with_delta: bool, rec, directory: Path
) -> State:
    """Generate the world, write it as ``repro generate`` does, load it back."""

    def generate() -> list[str]:
        world = generate_world(GeneratorConfig(seed=seed, scale=settings.scale),
                               settings.specs())
        delta = None
        if with_delta:
            grown = grow_world(world, settings.delta_papers, seed=seed)
            split = split_world(grown, settings.delta_papers, prepared=False)
            db, truth, delta = split.base, split.truth, split.delta
        else:
            db, truth = world_to_database(world, prepared=False)
        save_database(db, directory)
        save_ground_truth(truth, directory / "truth.json")
        if delta is not None:
            save_delta(delta, directory / "delta.json")
        return list(world.ambiguous_names)

    def load():
        db = prepare_dblp_database(load_database(directory))
        truth = load_ground_truth(directory / "truth.json")
        delta = load_delta(directory / "delta.json") if with_delta else None
        return db, truth, delta

    names = layers.call(rec, "data.generate", "data", generate)
    db, truth, delta = layers.call(rec, "reldb.load", "reldb", load)
    return State(db=db, truth=truth, names=names, delta=delta)


def fit_fixed(settings: Settings, db, directory: Path) -> Distinct:
    """``repro fit --svm-c`` then the models reloaded as ``experiment`` does."""
    pairs = settings.training_pairs
    fitted = Distinct(
        DistinctConfig(n_positive=pairs, n_negative=pairs, svm_C=SVM_C)
    ).fit(db)
    fitted.resem_model_.save(directory / "resem_model.json")
    fitted.walk_model_.save(directory / "walk_model.json")
    return Distinct.from_models(
        db,
        PathWeightModel.load(directory / "resem_model.json"),
        PathWeightModel.load(directory / "walk_model.json"),
        DistinctConfig(),
    )


def setup_fit(settings, seed, rec, directory) -> State:
    return build_world(settings, seed, False, rec, directory)


def setup_resolve(settings, seed, rec, directory) -> State:
    state = build_world(settings, seed, False, rec, directory)
    state.distinct = fit_fixed(settings, state.db, directory)
    return state


def setup_ingest(settings, seed, rec, directory) -> State:
    state = build_world(settings, seed, True, rec, directory)
    state.distinct = fit_fixed(settings, state.db, directory)
    state.engine = IngestEngine(state.distinct)

    def cold_start() -> None:
        for name in state.names:
            state.engine.resolve(name)

    layers.call(rec, "ingest.cold_start", "ingest", cold_start)
    return state


# -- timed stages ------------------------------------------------------------------


def clusters_digest(clusters) -> str:
    canonical = sorted(sorted(int(row) for row in cluster) for cluster in clusters)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:16]


def pairwise_f1(predicted, gold) -> float:
    """Pairwise F1 by explicit pair enumeration (independent of the
    program's contingency-table scorer)."""

    def pairs(clusters) -> set[tuple[int, int]]:
        out = set()
        for cluster in clusters:
            rows = sorted(cluster)
            out.update(
                (a, b) for i, a in enumerate(rows) for b in rows[i + 1:]
            )
        return out

    pred, true = pairs(predicted), pairs(gold)
    hits = len(pred & true)
    precision = hits / len(pred) if pred else 1.0
    recall = hits / len(true) if true else 1.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _with_clusters(score_resolution):
    """Make each scored name carry its clusters back from pool workers, so
    the run can hash them and rescore them independently."""

    def scored(resolution, truth):
        result = score_resolution(resolution, truth)
        result.bench_clusters = [sorted(c) for c in resolution.clusters]
        return result

    return scored


def verify(outcome: Outcome, truth) -> None:
    """Hash each name's clusters and rescore them, after the timed stage."""
    for name, clusters in outcome.clusters.items():
        outcome.digests[name] = clusters_digest(clusters)
        outcome.refs += sum(len(c) for c in clusters)
        f1 = outcome.values[name]
        expected = pairwise_f1(clusters, list(truth.clusters_for(name).values()))
        if abs(expected - f1) > 1e-12:
            outcome.problems.append(
                f"{name}: reported f1 {f1!r} != rescored {expected!r}"
            )
    outcome.clusters = {}


def stage_fit(settings: Settings, state: State) -> Outcome:
    pairs = settings.training_pairs
    config = DistinctConfig(n_positive=pairs, n_negative=pairs)
    distinct = Distinct(config).fit(state.db)
    report = distinct.fit_report_
    outcome = Outcome(
        attempted=1,
        failed=0,
        values={
            "train_acc_resem": report.train_accuracy_resem,
            "train_acc_walk": report.train_accuracy_walk,
        },
    )
    for model in (distinct.resem_model_, distinct.walk_model_):
        if not np.all(np.isfinite(model.weights)):
            outcome.problems.append(f"{model.measure}: non-finite weights")
    return outcome


def _resolve(state: State, workers: int) -> Outcome:
    collector = ErrorCollector()
    run = runner.run_resilient(
        state.distinct,
        state.truth,
        state.names,
        variant_by_key("distinct"),
        state.distinct.config.min_sim,
        policy=Policy.COLLECT,
        collector=collector,
        workers=workers,
    )
    outcome = Outcome(attempted=len(state.names), failed=len(collector), values={})
    for result in run.result.names:
        outcome.values[result.name] = result.scores.f1
        outcome.clusters[result.name] = result.bench_clusters
    return outcome


def stage_resolve(settings: Settings, state: State) -> Outcome:
    return _resolve(state, workers=1)


def stage_resolve_w2(settings: Settings, state: State) -> Outcome:
    return _resolve(state, workers=WORKERS)


def stage_ingest(settings: Settings, state: State) -> Outcome:
    engine = state.engine
    collector = ErrorCollector()
    outcome = Outcome(attempted=len(state.names), failed=0, values={})
    applied = False
    with guard("bench.ingest.apply", "delta", Policy.COLLECT, collector):
        engine.apply(state.delta)
        applied = True
    if not applied:
        outcome.failed = len(state.names)
        return outcome
    # IngestEngine.ingest(delta) with one worker is apply() then refresh()
    # per tracked name; refreshing under a guard counts a failing name.
    for name in engine.names:
        with guard("bench.ingest.refresh", name, Policy.COLLECT, collector):
            engine.refresh(name)
            resolution = engine.resolution(name)
            result = experiment.score_resolution(resolution, state.truth)
            outcome.values[name] = result.scores.f1
            outcome.clusters[name] = resolution.clusters
    outcome.failed = len(collector)
    return outcome


SETUP = {
    "fit": setup_fit,
    "resolve": setup_resolve,
    "resolve-w2": setup_resolve,
    "ingest": setup_ingest,
}
STAGE = {
    "fit": stage_fit,
    "resolve": stage_resolve,
    "resolve-w2": stage_resolve_w2,
    "ingest": stage_ingest,
}


# -- checks ------------------------------------------------------------------------


def load_pins(settings: Settings) -> dict:
    """Pinned outputs by world seed; empty unless ``pins.json`` was made
    with these settings."""
    if not PINS.exists():
        return {}
    pins = json.loads(PINS.read_text())
    if pins.get("settings") != dataclasses.asdict(settings):
        return {}
    return pins["worlds"]


def check(workload: str, outcomes: list[Outcome], pins: dict,
          reference: Outcome | None) -> list[str]:
    """Every problem found in the run's outputs (empty when correct).

    - each reported F1 equals an independent rescoring of its clusters;
    - repetitions on the same world produced the same values and clusters;
    - values and cluster hashes equal the pinned ones (F1, train accuracy)
      wherever ``pins.json`` covers the world;
    - ``resolve-w2`` clusters hash identically to a serial resolve of the
      same world (``reference``, or the pins).
    """
    problems = [p for outcome in outcomes for p in outcome.problems]
    first: dict[int, Outcome] = {}
    for outcome in outcomes:
        seen = first.setdefault(outcome.world, outcome)
        for name in outcome.values.keys() & seen.values.keys():
            if (outcome.values[name] != seen.values[name]
                    or outcome.digests.get(name) != seen.digests.get(name)):
                problems.append(f"world {outcome.world}, {name}: repetitions differ")
        want = pins.get(str(outcome.world), {}).get(PIN_KIND[workload])
        if want is not None:
            for name, value in outcome.values.items():
                if abs(value - want["values"][name]) > 1e-9:
                    problems.append(f"world {outcome.world}, {name}: {value!r} "
                                    f"!= pinned {want['values'][name]!r}")
                if outcome.digests.get(name, "") != want["digests"].get(name, ""):
                    problems.append(f"world {outcome.world}, {name}: clusters "
                                    "differ from the pinned ones")
        if reference is not None and reference.world == outcome.world:
            for name, digest in outcome.digests.items():
                if reference.digests.get(name) != digest:
                    problems.append(f"world {outcome.world}, {name}: parallel "
                                    "clusters differ from serial")
    return problems


# -- the run -----------------------------------------------------------------------


def world_seed(seed: int, index: int) -> int:
    """World ``index`` of a run: the run's seed itself, then seed + 1000,
    seed + 2000, ... (so ``--seed 5`` starts on the seed-5 world)."""
    return seed + 1000 * index


def one_rep(workload: str, settings: Settings, world: int, rec) -> tuple:
    """Set up on ``world`` and run the timed stage once; returns
    (setup seconds, stage seconds, outcome, registry snapshot)."""
    undo = []
    if workload.startswith("resolve"):
        undo.append(
            layers.patch("repro.eval.runner", "score_resolution", _with_clusters)
        )
    get_metrics().reset()
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        with layers.traced(rec) if rec is not None else nullcontext():
            t0 = time.perf_counter()
            state = layers.call(rec, "bench.setup", "bench",
                                SETUP[workload], settings, world, rec, directory)
            t1 = time.perf_counter()
            try:
                outcome = layers.call(rec, "bench.stage", "bench",
                                      STAGE[workload], settings, state)
            except Exception:
                traceback.print_exc()
                items = 1 if workload == "fit" else len(state.names)
                outcome = Outcome(attempted=items, failed=items, values={})
            t2 = time.perf_counter()
        verify(outcome, state.truth)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        layers.unpatch(undo)
    outcome.world = world
    del state
    gc.collect()
    return t1 - t0, t2 - t1, outcome, get_metrics().snapshot()


def run(workload: str, seed: int, seconds: float, trace: bool,
        settings: Settings = Settings(), worlds: int = WORLDS) -> dict:
    """Run one workload; returns the result object ``run.py`` prints.

    Repetition ``i`` uses world ``i % worlds``, so a run averages over
    ``worlds`` worlds and repeats them while time remains. A traced run
    instead pairs an untraced and a traced repetition on each of
    :data:`TRACED_WORLDS` worlds: the pairs give ``trace.overhead_frac``,
    the traced halves the per-layer metrics.
    """
    WORK.mkdir(exist_ok=True)
    rec = layers.Recorder() if trace else None
    if trace:
        worlds = min(worlds, TRACED_WORLDS)
    min_reps = 2 * worlds if trace else worlds
    setup_s: list[float] = []
    stage_s: list[float] = []
    outcomes: list[Outcome] = []
    overhead: list[float] = []
    totals: list[float] = []
    traced_runs: list[int] = []
    counters: list[dict] = []
    histograms: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    while (rep < min_reps
           or time.perf_counter() - start < min(seconds, MAX_WALL_S)
           or (trace and rep % 2 == 1)):  # finish the traced twin
        tracing = trace and rep % 2 == 1
        index = (rep // 2 if trace else rep) % worlds
        if rec is not None:
            rec.run = rep
        setup, stage, outcome, snapshot = one_rep(
            workload, settings, world_seed(seed, index), rec if tracing else None
        )
        print(f"{workload} rep {rep} (world {outcome.world}): setup {setup:.3f}s, "
              f"stage {stage:.3f}s{' traced' if tracing else ''}", file=sys.stderr)
        attempted += outcome.attempted
        failed += outcome.failed
        setup_s.append(setup)
        if outcome.failed < outcome.attempted:
            outcomes.append(outcome)
            stage_s.append(stage)
        if tracing:
            traced_runs.append(rep)
            counters.append(snapshot["counters"])
            histograms.append(snapshot["histograms"])
            # The untraced twin ran just before, on the same world.
            untraced = totals[-1]
            overhead.append((setup + stage - untraced) / untraced)
        totals.append(setup + stage)
        rep += 1

    pins = load_pins(settings)
    reference = None
    first_world = world_seed(seed, 0)
    if workload == "resolve-w2" and outcomes and str(first_world) not in pins:
        # Not pinned: resolve the first world serially, untimed, to compare.
        reference = one_rep("resolve", settings, first_world, None)[2]

    problems = check(workload, outcomes, pins, reference) if outcomes else [
        "no repetition completed"
    ]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        refs = statistics.fmean(o.refs for o in outcomes) if outcomes else 0.0
        metrics = layers.layer_metrics(
            rec, traced_runs, counters, histograms, {"refs_tracked": refs},
            WORKERS if workload == "resolve-w2" else 1,
        )
        metrics["trace.overhead_frac"] = (
            statistics.median(overhead) if overhead else 0.0
        )
        rec.write(WORK / f"trace-{workload}-seed{seed}.json")
        units = layers.PER_LAYER_UNITS
        layers.print_table(metrics, sys.stderr)
    else:
        per_world = {o.world: o.quality for o in outcomes}  # same on every visit
        metrics = {
            "setup_s": statistics.median(setup_s),
            "stage_s": statistics.median(stage_s) if stage_s else 0.0,
            "quality": statistics.fmean(per_world.values()) if per_world else 0.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {"setup_s": "s", "stage_s": "s", "quality": "fraction",
                 "ok_frac": "fraction"}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "reps": len(setup_s),
        "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
