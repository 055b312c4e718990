"""Regenerate ``perfbench/pins.json``, the outputs every run is checked against.

    PYTHONPATH=src:. python -m perfbench.pin --seeds 0-19 --jobs 2

For each seed it pins worlds ``seed + 1000 * k`` (``k < WORLDS``): the
two training accuracies of ``fit``, and per-name F1 and cluster hashes
of ``resolve`` (which ``resolve-w2`` must also match) and of ``ingest``.
Pins are made with the default :class:`~perfbench.workload.Settings` and
ignored under any other. Regenerate them only for a change that is meant
to alter results, and say so.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing

from perfbench import workload


def pin_world(world: int) -> tuple[int, dict]:
    settings = workload.Settings()
    workload.WORK.mkdir(exist_ok=True)
    pinned = {}
    for kind in ("fit", "resolve", "ingest"):
        outcome = workload.one_rep(kind, settings, world, None)[2]
        if outcome.failed or outcome.problems:
            raise RuntimeError(f"world {world} {kind}: {outcome.problems or 'failed'}")
        pinned[kind] = {"values": outcome.values, "digests": outcome.digests}
    return world, pinned


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate perfbench/pins.json.")
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    worlds = [
        workload.world_seed(seed, k)
        for seed in _seeds(args.seeds)
        for k in range(workload.WORLDS)
    ]
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        pinned = dict(pool.imap_unordered(pin_world, worlds))
    payload = {
        "settings": dataclasses.asdict(workload.Settings()),
        "worlds": {str(w): pinned[w] for w in sorted(pinned)},
    }
    workload.PINS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} worlds to {workload.PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
