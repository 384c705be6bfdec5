"""``simulate-paper``: simulate the paper scenario with its chain log on.

The first step of the researcher's path to a queryable replica: resolve
the ``paper`` spec and run :meth:`SimulationEngine.run` with its
defaults (chain log on). The run happens in a child process
(``python -m perfbench.simulate``) so its ``VmHWM`` is the simulation's
own peak and not the benchmark's. Set-up is timed as whole fresh
processes that import the program, resolve the spec and build the
engine (``--set-up-only``), :data:`SETUP_REPEATS` times.

``work_s`` is the simulation's wall time; ``p50_ms``/``p95_ms`` are over
the chain's blocks, each timed from the start of the run to the end of
the day that minted it (the start of the next day's ``run_day``): how
long a researcher waits for half of the chain, and for nearly all of
it. (Over days instead, the median would fall in the network's first
months, half a second into the run, and move with the host's
sub-second jitter.)
The simulation runs pinned to one CPU while a :mod:`perfbench.speed`
probe runs on every CPU, and these three timings are scaled to the
probe's reference speed by the samples taken during each; each set-up
likewise.
``peak_rss_mb`` is the child's ``VmHWM``. Traced, the length of each
day itself (its phases plus its chain-log spill) gives
``simulation.day_ms.p50``/``.p99``. Ingesting the chain is timed
by ``serve-follow``, whose follower reads it from a chain log.

Traced, the child wraps each day-loop phase's ``run_day`` (through the
phase list handed to ``SimulationEngine(phases=)``) and
``Blockchain.evict_finalized`` (the chain-log spill).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import spans as spanlib
from perfbench import speed
from perfbench.common import PAPER_DIGEST

SETUP_REPEATS = 5
#: Share of ``sim_s`` the traced run's spans must cover.
MIN_COVERAGE = 0.95


def _set_up(tracer: Optional[spanlib.Tracer] = None):
    """What a researcher's process does before simulating: import the
    program, resolve the spec, build the engine."""
    from repro.scenarios import resolve
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.phases import default_phases

    resolved = resolve("paper")
    phases = default_phases()
    if tracer is not None:
        for phase in phases:
            tracer.wrap(phase, "run_day", f"simulation.{phase.name}")
    return resolved, SimulationEngine(resolved.config, phases=phases)


def _time_days(engine) -> List[Tuple[float, int]]:
    """Record the start of every simulated day on ``engine``, with the
    chain's length at that moment."""
    starts: List[Tuple[float, int]] = []
    run_day = engine.scheduler.run_day

    def timed(state, day):
        starts.append((perf_counter(), len(state.chain.blocks)))
        return run_day(state, day)

    engine.scheduler.run_day = timed
    return starts


def _child(trace: bool, workdir: Path) -> Dict:
    from repro.chain.blockchain import Blockchain
    from repro.experiments.snapshot import result_digest

    from perfbench.common import read_vm_hwm_mb
    from perfbench.loadgen import quantile

    tracer = spanlib.Tracer() if trace else None
    resolved, engine = _set_up(tracer)
    day_starts = _time_days(engine)

    if tracer is not None:
        tracer.wrap(Blockchain, "evict_finalized", "chain.spill")
    sim_span = tracer.begin("simulation.run") if tracer else None
    started = perf_counter()
    result = engine.run()
    sim_end = perf_counter()
    if tracer is not None:
        tracer.end(sim_span)
        tracer.restore()
    chain = result.chain
    bounds = day_starts + [(sim_end, len(chain.blocks))]
    day_ms = sorted((b[0] - a[0]) * 1e3 for a, b in zip(bounds, bounds[1:]))
    # Each block's latency: the end of the day that minted it.
    block_ms = [(end - started) * 1e3
                for (_, before), (end, after) in zip(bounds, bounds[1:])
                for _ in range(after - before)]
    out: Dict = {
        "started": started,
        "sim_s": sim_end - started,
        "block_p50_ms": quantile(block_ms, 0.5),
        "block_p95_ms": quantile(block_ms, 0.95),
        "peak_rss_mb": read_vm_hwm_mb(),
        "days": len(day_ms),
        "blocks": len(chain.blocks),
        "scenario_digest": resolved.digest,
        "chain_digest": result_digest(result),
    }
    if tracer is not None:
        layers = {
            name + "_s": total
            for name, total in spanlib.totals_under(
                tracer.spans, sim_span).items()
        }
        layers["simulation.run_s"] = out["sim_s"]
        layers["simulation.day_ms.p50"] = quantile(day_ms, 0.5)
        layers["simulation.day_ms.p99"] = quantile(day_ms, 0.99)
        layers["simulation.unattributed_s"] = spanlib.self_times(
            tracer.spans)[sim_span.id]
        layers["chain.blocks"] = float(len(chain.blocks))
        layers["chain.transactions"] = float(chain.total_transactions)
        layers["chain.log_bytes"] = float(chain.chain_log.size)
        spans_path = workdir / "spans.jsonl"
        tracer.dump(str(spans_path))
        out["layers"] = layers
        out["span_coverage"] = spanlib.coverage(sim_span, tracer.spans)
        out["spans_file"] = str(spans_path)
    return out


def run(seed: int, seconds: int, trace: bool, prep: Dict) -> Dict:
    """One pass; returns the workload record (see :mod:`perfbench.run`)."""
    from perfbench.common import new_run_dir, pinned, run_child

    workdir = new_run_dir("simulate")
    cpus = os.sched_getaffinity(0)
    setups = []
    with speed.Probes(cpus) as setup_probes:
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            run_child("perfbench.simulate", ["--set-up-only"], timeout=60)
            setups.append((started, perf_counter()))
    with pinned({min(cpus)}), speed.Probes(cpus) as probes:
        child = run_child(
            "perfbench.simulate",
            ["--workdir", str(workdir)] + (["--trace"] if trace else []),
            timeout=150,
        )
    wall = {
        "setup_s": statistics.median(end - start for start, end in setups),
        "work_s": child["sim_s"],
        "p50_ms": child["block_p50_ms"],
        "p95_ms": child["block_p95_ms"],
    }
    start = child["started"]
    checks = {
        "paper chain digest is pinned": child["chain_digest"] == PAPER_DIGEST,
    }
    if trace:
        checks["spans cover >= 95% of sim_s"] = (
            child["span_coverage"] >= MIN_COVERAGE)
    return {
        "metrics": {
            "setup_s": statistics.median(
                setup_probes.scaled(*interval) for interval in setups),
            "work_s": probes.scaled(start, start + wall["work_s"]),
            "p50_ms": probes.scaled(start, start + wall["p50_ms"] / 1e3) * 1e3,
            "p95_ms": probes.scaled(start, start + wall["p95_ms"] / 1e3) * 1e3,
            "peak_rss_mb": child["peak_rss_mb"],
        },
        "wall": wall,
        "probe_s": probes.samples + setup_probes.samples,
        "layers": child.get("layers", {}),
        # One operation per simulated day.
        "attempted": child["days"],
        "checks": checks,
        "scenario_digests": {"paper": child["scenario_digest"]},
        "details": {k: child.get(k) for k in
                    ("sim_s", "blocks", "span_coverage", "spans_file")},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.simulate")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--set-up-only", action="store_true",
                        help="only set up (timed by the caller), then exit")
    args = parser.parse_args(argv)
    if args.set_up_only:
        _set_up()
        print(json.dumps({}))
    elif args.workdir is None:
        parser.error("--workdir is required unless --set-up-only")
    else:
        print(json.dumps(_child(args.trace, args.workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
