"""Scale-out benchmark: tiered worlds, serial vs parallel end to end.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_scale.py [--tiny] [--out PATH]

The paper evaluates DISTINCT against full DBLP (§5: 616K papers / 1.29M
authorship rows); this bench grows the synthetic world toward that scale
in tiers and measures the per-name pool on the largest tier:

1. **worlds** — generated DBLP-style worlds at increasing ``scale``,
   recording tuple counts and generate/load/fit wall times (the full
   run's top tier crosses 100K database tuples);
2. **end_to_end** — the full resilient experiment over every ambiguous
   name, serial and at ``--workers`` under the pool's one dispatch
   policy (fork-inherited payload, heaviest name first). Both runs must
   produce byte-identical per-name results.

Results land in ``BENCH_scale.json``; one summary line per run is
appended to ``BENCH_history.jsonl`` with ``"bench": "scale"`` so the
regression observatory (``repro regress``) trends this bench separately
from the kernel bench. The equivalence gate (parallel identical to
serial) fails the run in both modes; the throughput gates (top tier
above 100K tuples, parallel beating serial) only in the full run — tiny
worlds are too small for stable ratios.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.core.variants import variant_by_key
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.world import world_to_database
from repro.eval.persistence import name_result_to_dict
from repro.eval.runner import run_resilient
from repro.obs import get_metrics

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"

#: Ambiguous names with skewed reference counts (150 … 15), deliberately
#: not in cost order so heaviest-first dispatch visibly reorders them.
SPEC = [
    AmbiguousNameSpec("Bin Zhu", (12, 10, 8, 6)),
    AmbiguousNameSpec("Wei Wang", tuple([15] * 10)),
    AmbiguousNameSpec("Hui Fang", (6, 5, 4)),
    AmbiguousNameSpec("Rakesh Kumar", (20, 15, 15, 10, 10)),
    AmbiguousNameSpec("Wen Gao", (9, 7, 5)),
    AmbiguousNameSpec("Lei Chen", (10, 8, 6, 6)),
]

#: World tiers swept per mode; sections run on the last (largest) tier.
FULL_SCALES = (2.0, 10.0)
TINY_SCALES = (0.1, 0.3)


def git_sha() -> str:
    """The commit this run measured, for provenance; "unknown" outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def counter_value(name: str) -> float:
    return float(get_metrics().snapshot()["counters"].get(name, 0.0))


def world_config(scale: float, seed: int) -> GeneratorConfig:
    """A tier's generator config.

    ``rare_entities`` is a *scaled* knob; at large scales the rare-token
    name pools saturate and no name stays rare (§3 training needs rare
    names), so the raw knob shrinks to keep ~120 genuinely rare entities
    at every tier.
    """
    rare = 120 if scale <= 1.0 else max(4, round(120 / scale))
    return GeneratorConfig(seed=seed, scale=scale, rare_entities=rare)


def base_config() -> DistinctConfig:
    """The scale-out pipeline configuration (a smaller training set)."""
    return DistinctConfig(n_positive=300, n_negative=300, svm_C=10.0)


# -- end-to-end section ---------------------------------------------------------


def run_experiment(
    distinct: Distinct, truth, names: list[str], workers: int
) -> tuple[float, list[dict], dict]:
    """One resilient run; returns wall, per-name result dicts, counter deltas."""
    tracked = (
        "blocking.pairs_kept",
        "blocking.pairs_pruned",
        "perf.shard.steals",
    )
    before = {k: counter_value(k) for k in tracked}
    t0 = time.perf_counter()
    outcome = run_resilient(
        distinct,
        truth,
        names,
        variant_by_key("distinct"),
        min_sim=distinct.config.min_sim,
        workers=workers,
    )
    wall = time.perf_counter() - t0
    deltas = {k: counter_value(k) - v for k, v in before.items()}
    if not outcome.complete:
        raise RuntimeError("experiment run did not complete")
    return wall, [name_result_to_dict(r) for r in outcome.result.names], deltas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small world tiers for CI smoke (same equivalence gates)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--timestamp",
        default=None,
        help="timestamp recorded in the history line (default: now, UTC); "
             "CI passes the commit timestamp for stable trend axes",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=DEFAULT_HISTORY,
        help="JSONL file to append this run's summary line to",
    )
    args = parser.parse_args(argv)

    scales = TINY_SCALES if args.tiny else FULL_SCALES
    names = [spec.name for spec in SPEC]
    config = base_config()

    # -- tiered worlds -------------------------------------------------------
    tiers = []
    distinct = truth = None
    for scale in scales:
        t0 = time.perf_counter()
        world = generate_world(world_config(scale, args.seed), SPEC)
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        db, tier_truth = world_to_database(world)
        load_s = time.perf_counter() - t0
        tuples = sum(db.relation_sizes().values())
        tier_distinct = Distinct(config)
        t0 = time.perf_counter()
        tier_distinct.fit(db)
        fit_s = time.perf_counter() - t0
        stats = world.stats()
        tiers.append(
            {
                "scale": scale,
                "tuples": tuples,
                "papers": stats["papers"],
                "authorships": stats["authorships"],
                "entities": stats["entities"],
                "generate_seconds": gen_s,
                "load_seconds": load_s,
                "fit_seconds": fit_s,
            }
        )
        distinct, truth = tier_distinct, tier_truth  # sections use the top tier
        print(
            f"tier x{scale}: {tuples} tuples ({stats['papers']} papers, "
            f"{stats['authorships']} authorships)  gen {gen_s:.1f}s  "
            f"load {load_s:.1f}s  fit {fit_s:.1f}s"
        )
    top = tiers[-1]

    # -- end to end: serial vs the default parallel dispatch ----------------
    serial_s, serial_results, _ = run_experiment(
        distinct, truth, names, workers=1
    )
    parallel_s, parallel_results, parallel_counters = run_experiment(
        distinct, truth, names, workers=args.workers
    )
    end_to_end = {
        "tuples": top["tuples"],
        "n_names": len(names),
        "n_refs": sum(sum(s.ref_counts) for s in SPEC),
        "workers": args.workers,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": serial_s / parallel_s,
        "parallel_identical": parallel_results == serial_results,
        "shard_steals": int(parallel_counters["perf.shard.steals"]),
        "mean_f1": float(np.mean([r["f1"] for r in serial_results])),
    }
    print(
        f"end to end ({top['tuples']} tuples, {end_to_end['n_refs']} refs): "
        f"serial {serial_s:.1f}s  x{args.workers} {parallel_s:.1f}s "
        f"({end_to_end['parallel_speedup']:.2f}x, "
        f"steals={end_to_end['shard_steals']}, "
        f"identical={end_to_end['parallel_identical']})"
    )

    # -- gates ---------------------------------------------------------------
    failures = []
    if not end_to_end["parallel_identical"]:
        failures.append("end_to_end: parallel results differ from serial")
    if not args.tiny:
        if top["tuples"] < 100_000:
            failures.append("worlds: largest tier below 100K tuples")
        if end_to_end["parallel_speedup"] <= 1.0:
            failures.append("end_to_end: parallel run not beating serial")
    equivalent = not failures

    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    sha = git_sha()
    report = {
        "generated_by": "benchmarks/bench_scale.py",
        "timestamp": timestamp,
        "git_sha": sha,
        "tiny": args.tiny,
        "config": {
            "scales": list(scales),
            "n_names": len(names),
            "n_refs": end_to_end["n_refs"],
            "workers": args.workers,
            "seed": args.seed,
        },
        "worlds": tiers,
        "end_to_end": end_to_end,
        "gates": {"failures": failures, "equivalent": equivalent},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    history_line = {
        "timestamp": timestamp,
        "git_sha": sha,
        "bench": "scale",
        "tiny": args.tiny,
        "config": report["config"],
        "speedups": {
            "parallel_end_to_end": end_to_end["parallel_speedup"],
        },
        "tuples": top["tuples"],
        "shard_steals": end_to_end["shard_steals"],
        "equivalent": equivalent,
    }
    with args.history.open("a") as fh:
        fh.write(json.dumps(history_line) + "\n")

    print(f"scale bench ({'tiny' if args.tiny else 'full'}) -> {args.out}")
    print(f"  history    : {timestamp} ({sha[:12]}) >> {args.history}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
