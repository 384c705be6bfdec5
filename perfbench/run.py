"""The repository's benchmark: simulate → chain log → ingest → serve, plus
the experiment farm.

Usage (from the repository root)::

    python3 perfbench/run.py --workload simulate-paper --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``simulate-paper``, ``serve-hot``, ``serve-follow``,
``reproduce-small`` (see ``perfbench/README.md``); ``all`` runs each in
turn. The first run in a checkout builds the warm caches under
``.bench_build/perfbench``.

Output: one JSON line of provenance, checks and details per workload,
then one result line ``{"correct", "attempted", "failed", "metrics"}``
(the last line of the output). Every workload reports every metric of
``BENCHMARK.json``, each in the workload's own terms (the table in
``perfbench/README.md``); CPU-bound timings are scaled to a reference
host speed read by :mod:`perfbench.speed` probes. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the workload
runs untraced and then traced, and the metrics are the per-layer ones,
``trace_overhead.<m>`` (traced minus untraced) for each end-to-end
metric among them, and the traced pass's unscaled timings
(``wall.<m>``) and median probe time (``host.probe_ms``); a layer the
workload does not run reports 0. Every result is also appended to
``.bench_build/perfbench/history.jsonl``. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ["simulate-paper", "serve-hot", "serve-follow",
             "reproduce-small"]
#: End-to-end metrics, in ``BENCHMARK.json`` order; every workload
#: reports all of them.
END_TO_END = ["setup_s", "work_s", "p50_ms", "p95_ms", "peak_rss_mb"]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def load_spec(path: Path) -> Dict:
    """``BENCHMARK.json``, with its metric names and units validated."""
    spec = json.loads(path.read_text())
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            name, unit = metric["name"], metric["unit"]
            if not NAME.fullmatch(name) or name in seen:
                raise ValueError(f"bad or repeated metric name {name!r}")
            if not UNIT.fullmatch(unit):
                raise ValueError(f"bad unit {unit!r} for {name}")
            if metric["better"] not in ("lower", "higher"):
                raise ValueError(f"bad 'better' for {name}")
            seen.add(name)
    return spec


def _runner(workload: str):
    if workload == "simulate-paper":
        from perfbench.simulate import run
        return run
    if workload == "reproduce-small":
        from perfbench.farm import run
        return run
    from perfbench.serve import run as serve_run
    return lambda *args: serve_run(workload, *args)


def _failed_checks(record: Dict) -> int:
    return sum(1 for ok in record["checks"].values() if not ok)


def _probe_ms(record: Dict) -> float:
    """Median :mod:`perfbench.speed` probe time of one pass, in ms."""
    return statistics.median(s for _, s in record["probe_s"]) * 1e3


def measure(workload: str, seed: int, seconds: int, trace: bool,
            prep: Dict, spec: Dict) -> Dict:
    """Run one workload; returns ``{"result": ..., "record": ...}``."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    run = _runner(workload)
    passes = [run(seed, seconds, False, prep)]
    if trace:
        passes.append(run(seed, seconds, True, prep))
    base, last = passes[0], passes[-1]
    for record in passes:
        if sorted(record["metrics"]) != sorted(END_TO_END):
            raise ValueError(f"{workload} reported {sorted(record['metrics'])}")
    if trace:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = sorted(set(last["layers"]) - set(values))
        if unknown:
            raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
        values.update(last["layers"])
        for name, value in last["wall"].items():
            values[f"wall.{name}"] = value
        values["host.probe_ms"] = _probe_ms(last)
        for name in END_TO_END:
            values[f"trace_overhead.{name}"] = (
                last["metrics"][name] - base["metrics"][name]
            )
    else:
        values = dict(base["metrics"])
    checks = {"every end-to-end metric is positive": all(
        r["metrics"][name] > 0 for r in passes for name in END_TO_END)}
    for index, record in enumerate(passes):
        for name, ok in record["checks"].items():
            key = name if index == 0 else f"{name} (traced pass)"
            checks[key] = ok
    failed = sum(r.get("failed", _failed_checks(r)) for r in passes)
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(values.items())},
    }
    digests = {}
    for record in passes:
        digests.update(record["scenario_digests"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "provenance": common.provenance(digests),
        "checks": checks,
        "details": [r["details"] for r in passes],
        "untraced_metrics": base["metrics"],
        "untraced_wall": base["wall"],
        "untraced_probe_ms": _probe_ms(base),
        "prepare": {k: prep[k] for k in ("built", "seconds") if k in prep},
    }
    return {"result": result, "record": record}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="serving window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the servers and followers a workload
    # started are stopped by its ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = common.ROOT / "BENCHMARK.json"
    if not common.have_program() or not spec_path.is_file():
        print("error: run from a checkout that holds src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec(spec_path)
    seconds = args.seconds or int(spec["run_seconds"])
    common.use_checkout_paths()
    prep = common.prepare()

    workloads = (WORKLOADS if args.workload == "all"
                 else [args.workload])
    results = {}
    for workload in workloads:
        out = measure(workload, args.seed, seconds, bool(args.trace),
                      prep, spec)
        common.WORK.mkdir(parents=True, exist_ok=True)
        with open(common.HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**out["record"],
                                     "result": out["result"]}) + "\n")
        print(json.dumps(out["record"]))
        print(json.dumps(out["result"]))
        results[workload] = out["result"]
    if len(results) > 1:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
        print(json.dumps(summary))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
