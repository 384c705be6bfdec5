"""``reproduce-small``: every registered experiment through ``run_farm``.

Runs the whole experiment registry on the warm ``small`` scenario with
``jobs=2``, in a child process (``python -m perfbench.farm``). This is
the only workload that executes ``repro.core``, ``repro.field``,
``repro.lorawan`` and ``repro.parallel.farm``. Set-up is timed as
whole fresh processes that import the farm and the registry, resolve
``small`` and rehydrate its warm cache entry (``load_result``), as every
farm run starts; the median of :data:`SETUP_REPEATS` is reported.

``work_s`` is the suite's wall time; ``p50_ms``/``p95_ms`` are over the
farm's tasks (experiments, or units of a decomposed one), each timed
from the start of the suite to the moment its result reaches the farm
process: how long a researcher waits for half of the reports, and for
nearly all of them. ``peak_rss_mb`` is the larger of the farm process's
``VmHWM`` and its workers' ``ru_maxrss``. A :mod:`perfbench.speed`
probe runs on each CPU while the suite and the set-ups run, and each
timing is scaled to the probe's reference speed by the samples taken
during it; of the suite's timings, only the share the workers spent
computing (their CPU time over ``jobs`` × the suite's wall time) is
scaled.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.pool
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import speed
from perfbench.common import SMALL_REPORTS_DIGEST

JOBS = 2
SETUP_REPEATS = 5


def _set_up(small_entry: str):
    """What a farm process does before its first experiment: import the
    registry and the farm, resolve ``small``, rehydrate its entry."""
    from repro.experiments import registry
    from repro.experiments.snapshot import load_result
    from repro.parallel.farm import run_farm
    from repro.scenarios import resolve

    resolved = resolve("small")
    load_result(small_entry)
    return resolved, registry, run_farm


def _time_results() -> List[float]:
    """Record when each result of ``Pool.imap_unordered`` arrives."""
    arrivals: List[float] = []
    imap_unordered = multiprocessing.pool.Pool.imap_unordered

    def timed(self, *args, **kwargs):
        for item in imap_unordered(self, *args, **kwargs):
            arrivals.append(perf_counter())
            yield item

    multiprocessing.pool.Pool.imap_unordered = timed
    return arrivals


def _child(small_entry: str) -> Dict:
    from perfbench.common import read_vm_hwm_mb
    from perfbench.loadgen import quantile

    resolved, registry, run_farm = _set_up(small_entry)
    ids = registry.EXPERIMENTS.ids()
    arrivals = _time_results()
    started = perf_counter()
    outcomes = run_farm(resolved, experiment_ids=ids, jobs=JOBS)
    suite_s = perf_counter() - started
    if not arrivals:
        raise RuntimeError("run_farm returned no results through its pool")
    waits_ms = sorted((t - started) * 1e3 for t in arrivals)
    # ru_maxrss is in KiB on Linux.
    workers_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    task_wall = sum(o.wall_s for o in outcomes)
    layers = {f"experiments.{o.experiment_id}_s": o.wall_s for o in outcomes}
    layers["parallel.farm.cpu_s"] = sum(o.cpu_s for o in outcomes)
    layers["parallel.farm.idle_s"] = JOBS * suite_s - task_wall
    layers["parallel.farm.suite_s"] = suite_s
    return {
        "started": started,
        "suite_s": suite_s,
        "p50_ms": quantile(waits_ms, 0.5),
        "p95_ms": quantile(waits_ms, 0.95),
        "tasks": len(waits_ms),
        "peak_rss_mb": max(read_vm_hwm_mb(), workers_mb),
        "experiments": len(ids),
        "reports_digest": registry.reports_digest(o.report for o in outcomes),
        "scenario_digest": resolved.digest,
        "layers": layers,
    }


def run(seed: int, seconds: int, trace: bool, prep: Dict) -> Dict:
    from perfbench.common import run_child

    entry = ["--entry", prep["small_entry"]]
    cpus = os.sched_getaffinity(0)
    setups = []
    with speed.Probes(cpus) as setup_probes:
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            run_child("perfbench.farm", entry + ["--set-up-only"],
                      timeout=60)
            setups.append((started, perf_counter()))
    with speed.Probes(cpus) as probes:
        child = run_child("perfbench.farm", entry, timeout=150)
    wall = {"setup_s": statistics.median(end - start
                                         for start, end in setups),
            "work_s": child["suite_s"],
            "p50_ms": child["p50_ms"],
            "p95_ms": child["p95_ms"]}
    start = child["started"]
    # The workers' share of the suite spent computing (about 0.87): only
    # that part of it follows the CPU's speed.
    busy = min(1.0, child["layers"]["parallel.farm.cpu_s"]
               / (JOBS * child["suite_s"]))

    def scaled(seconds: float) -> float:
        return probes.scaled(start, start + seconds, busy)

    return {
        "metrics": {
            "setup_s": statistics.median(
                setup_probes.scaled(*interval) for interval in setups),
            "work_s": scaled(wall["work_s"]),
            "p50_ms": scaled(wall["p50_ms"] / 1e3) * 1e3,
            "p95_ms": scaled(wall["p95_ms"] / 1e3) * 1e3,
            "peak_rss_mb": child["peak_rss_mb"],
        },
        "wall": wall,
        "probe_s": probes.samples + setup_probes.samples,
        "layers": child["layers"] if trace else {},
        "attempted": child["experiments"],
        "checks": {
            "experiment-report digest is pinned":
                child["reports_digest"] == SMALL_REPORTS_DIGEST,
        },
        "scenario_digests": {"small": child["scenario_digest"]},
        "details": {"suite_s": child["suite_s"], "tasks": child["tasks"],
                    "busy": busy},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.farm")
    parser.add_argument("--entry", required=True)
    parser.add_argument("--set-up-only", action="store_true",
                        help="only set up (timed by the caller), then exit")
    args = parser.parse_args(argv)
    if args.set_up_only:
        _set_up(args.entry)
        print(json.dumps({}))
    else:
        print(json.dumps(_child(args.entry)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
