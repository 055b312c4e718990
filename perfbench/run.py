"""Stage-level benchmark of the default DISTINCT pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload resolve --seed 5 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one table

Each workload runs in a fresh interpreter (``python -m
perfbench.workload``) with BLAS/OpenMP pools pinned to one thread and a
fixed hash seed, so caches never carry over between workloads and only
``resolve-w2`` (run only when named) uses more than one core. This
process adds the run's peak RSS, summed over the workload process and
its pool workers.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``). The exit code is non-zero when an output check fails or
the workload cannot run at all (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The workloads of BENCHMARK.json, then one that runs only when named.
WORKLOADS = ("fit", "resolve", "ingest")
EXTRA_WORKLOADS = ("resolve-w2",)
TIMEOUT_S = 170.0
PAGE = os.sysconf("SC_PAGE_SIZE")

#: Environment of the workload interpreter.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _tree_rss(root_pid: int) -> int:
    """Resident bytes of ``root_pid`` and all of its descendants."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent_of.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
        except (OSError, ValueError, IndexError):
            continue
    return total


class _PeakSampler:
    """Polls the process tree's summed RSS until stopped."""

    def __init__(self, pid: int, interval: float = 0.25) -> None:
        self.pid = pid
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "_PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, _tree_rss(self.pid))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a fresh interpreter; None if it could not run."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "perfbench.workload", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    with _PeakSampler(proc.pid) as sampler:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{workload}: timed out after {TIMEOUT_S:.0f}s", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    reps = result.pop("reps", None)
    # The workload's own high-water RSS is exact; the sampler adds the
    # pool workers that run beside it.
    maxrss = result.pop("maxrss_bytes", 0)
    if not trace:
        peak = max(sampler.peak, maxrss)
        result["metrics"]["peak_rss_mb"] = {"value": peak / 2**20, "unit": "MiB"}
    print(f"{workload}: seed {seed}, {reps} repetitions", file=sys.stderr)
    return result


def _print_table(workload: str, result: dict) -> None:
    print(f"\n{workload}  correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Stage-level DISTINCT benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro next to perfbench/: nothing to benchmark", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        _print_table(workload, result)
        if not result["correct"]:
            status = 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
