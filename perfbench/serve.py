"""``serve-hot`` and ``serve-follow``: open-loop load on ``repro.serve``.

Both run ``python -m repro.serve serve`` as a subprocess (or, traced,
through :mod:`perfbench.serve_launcher`) and drive it from this process
with :class:`perfbench.loadgen.OpenLoop` over ``min(2, nproc)``
connections: first the workload's light rate (:data:`RATES_RPS`) for
``LIGHT_SHARE`` of the window, then its heavy rate for the rest,
arrival times fixed by the seed.

* ``serve-hot`` serves the warm ``paper`` store read-only over HTTP/1.1
  keep-alive. Paths follow zipf s=1.1 over ``discover_paths`` (small
  enough for the 1024-entry response cache), and a returning client
  replays the ETag it saw (``REPLAY_PROBABILITY``): cache hits, 304
  revalidation and the keep-alive write path, with SQLite nearly idle.
* ``serve-follow`` serves a store holding the first half of the chain
  while :mod:`perfbench.follower` ingests the rest; every 512-block
  commit moves the checkpoint and so invalidates every cached response.
  Reads are uniform over every hotspot page and witness list (far more
  than the cache holds), without ETags, one fresh HTTP/1.0 connection
  per request: snapshot reads, rendering and ingest under read load,
  with keep-alive out of the picture. The follower starts with the
  window, and after the window the light rate goes on until it
  reports, so the whole ingest always runs under the same offered load.

Latency is timed from each request's due time. ``p50_ms``/``p95_ms``
come from the light phase (on ``serve-follow`` with its light-rate
tail, which runs under the same ingest); ``serve.goodput_rps``
(per-layer) counts the
heavy-phase requests answered within ``LIMIT_MS`` per second (a failed
request misses it). ``work_s`` is, on ``serve-hot``, the time to crawl
every discovered path :data:`CRAWL_PASSES` times back to back over the
keep-alive connections with bodies every time (busy connections, where
a write-path stall costs every response), and on ``serve-follow`` the
follower's ingest under read load. ``peak_rss_mb`` is the server's
``VmHWM`` (and the follower's, if larger).

On ``serve-follow``, which is CPU-bound on its one CPU,
:mod:`perfbench.speed` probes run on every CPU from the follower's
start to its report, and ``work_s``, ``p50_ms`` and ``p95_ms`` are
scaled to the probe's reference speed. ``serve-hot``'s timings are set by the
keep-alive stall, not by the CPU, and stay as measured. On both,
``setup_s`` is scaled by probes that run through the set-ups.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import urllib.request
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from perfbench import loadgen
from perfbench import spans as spanlib
from perfbench import speed
from perfbench.common import (
    FOLLOW_SEED_DB,
    FOLLOW_STORE_DIGEST,
    ROOT,
    child_env,
    copy_store,
    new_run_dir,
    read_vm_hwm_mb,
)

#: (light, heavy) offered rates, req/s. Light is well under capacity;
#: heavy sits at the knee of the rate sweep in perfbench/README.md,
#: where goodput stops keeping up with the offered rate.
RATES_RPS = {"serve-hot": (60.0, 120.0), "serve-follow": (60.0, 180.0)}
#: Share of the window spent at the light rate: its p95 needs the
#: larger sample, the heavy phase's goodput settles with fewer.
LIGHT_SHARE = 0.75
#: serve-follow offers the light load for at most this long past the
#: window while it waits for the follower to report.
FOLLOW_TAIL_CAP_S = 60.0
#: Latency limit for goodput. Below the ~44 ms a Nagle/delayed-ACK
#: stall costs, so a stalled response misses it.
LIMIT_MS = 25.0
ZIPF_S = 1.1
#: Share of serve-hot requests that replay a known ETag.
REPLAY_PROBABILITY = 0.85
SETUP_REPEATS = 5
#: Share of the follower's ``ingest_s`` its traced spans must cover.
MIN_COVERAGE = 0.95
#: serve-hot's crawl: passes over the discovered paths, and how long the
#: crawl may take in all.
CRAWL_PASSES = 2
CRAWL_TIMEOUT_S = 60.0
HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro.serve`` subprocess."""

    def __init__(self, db: Path, spans: Optional[Path]) -> None:
        self.port = _free_port()
        cli = ["serve", "--db", str(db), "--host", HOST,
               "--port", str(self.port), "--quiet"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.serve", *cli]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_launcher",
                   "--spans", str(spans), "--", *cli]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro.serve did not start: {line!r}")
        # The line is printed before the accept loop starts; a SIGTERM
        # in that gap is missed by the drain, so ready means answering.
        self._wait_healthy()

    def _wait_healthy(self, timeout_s: float = 30.0) -> None:
        deadline = perf_counter() + timeout_s
        while True:
            try:
                with urllib.request.urlopen(self.base + "/healthz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            if perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("repro.serve never became healthy")
            sleep(0.01)

    @property
    def base(self) -> str:
        return f"http://{HOST}:{self.port}"

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb(self.proc.pid)

    def counters(self) -> Dict[str, float]:
        with urllib.request.urlopen(self.base + "/metrics", timeout=10) as r:
            return json.loads(r.read().decode("utf-8"))["counters"]

    def stop(self, drain: bool = True) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs or
        without ``drain``."""
        if self.proc.poll() is None:
            if drain:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20 if drain else 0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Follower:
    """The :mod:`perfbench.follower` subprocess."""

    def __init__(self, db: Path, chain: Path, spans: Optional[Path]) -> None:
        cmd = [sys.executable, "-m", "perfbench.follower",
               "--db", str(db), "--chain", str(chain)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        started = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith('{"ready"'):
            self.stop()
            raise RuntimeError(f"follower did not start: {line!r}")
        self.ready = (started, perf_counter())

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def result(self, timeout: float) -> Dict:
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(f"follower exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def follow_paths() -> List[str]:
    from repro.etl.store import EtlStore

    with EtlStore(FOLLOW_SEED_DB, create=False, read_only=True) as store:
        gateways = [row[0] for row in store.hotspot_rows()]
    return [f"/hotspot/{g}{tail}" for g in gateways
            for tail in ("", "/witnesses")]


def _checkpoint_of(db: Path) -> int:
    from repro.etl.store import EtlStore

    with EtlStore(db, create=False, read_only=True) as store:
        return store.checkpoint_height


def check_samples(samples: List[loadgen.Sample],
                  expect_checkpoint: Optional[int]) -> Dict[str, int]:
    """Count violations of the serving tier's response invariants.

    A violating sample gets an ``error``, so it also counts as failed
    (and infinitely late) in every latency figure.
    """
    counts = {"every request answered 200/304": 0,
              "ETag checkpoint equals X-Checkpoint": 0,
              "checkpoint never goes backwards on a connection": 0}
    last: Dict[int, int] = {}
    for sample in sorted(samples, key=lambda s: s.sent or s.due):
        if not sample.ok:
            counts["every request answered 200/304"] += 1
            continue
        tagged = loadgen.checkpoint_of_etag(sample.etag)
        if sample.checkpoint is None or tagged != sample.checkpoint or (
            expect_checkpoint is not None
            and sample.checkpoint != expect_checkpoint
        ):
            counts["ETag checkpoint equals X-Checkpoint"] += 1
            sample.error = "ETag checkpoint differs from X-Checkpoint"
            continue
        if sample.checkpoint < last.get(sample.slot, -1):
            counts["checkpoint never goes backwards on a connection"] += 1
            sample.error = "checkpoint went backwards"
        last[sample.slot] = sample.checkpoint
    return counts


def _server_layers(spans: List[spanlib.Span], lo: float, hi: float
                   ) -> Dict[str, float]:
    """Per-request server figures from the launcher's spans in a window."""
    kids = spanlib.children_of(spans)
    handles = [s for s in spans if s.name == "serve.handle"
               and lo <= s.start <= hi]
    waits = sorted(s.duration * 1e3 for s in spans
                   if s.name == "serve.queue_wait" and lo <= s.start <= hi)
    totals = {"etl.snapshot": 0.0, "etl.query": 0.0, "serve.cache": 0.0}
    for handle in handles:
        below: Dict[str, List[Tuple[float, float]]] = {k: [] for k in totals}
        frontier = [handle.id]
        while frontier:
            for child in kids.get(frontier.pop(), ()):
                if child.name in below:
                    below[child.name].append((child.start, child.end))
                frontier.append(child.id)
        for name, intervals in below.items():
            totals[name] += spanlib.covered(intervals)
    durations = sorted(h.duration * 1e3 for h in handles)
    n = max(len(handles), 1)
    return {
        "serve.queue_wait_ms.p50": loadgen.quantile(waits, 0.5),
        "serve.queue_wait_ms.p99": loadgen.quantile(waits, 0.99),
        "serve.handle_ms.p50": loadgen.quantile(durations, 0.5),
        "serve.handle_ms.p99": loadgen.quantile(durations, 0.99),
        "etl.snapshot_ms.mean": totals["etl.snapshot"] * 1e3 / n,
        "etl.query_ms.mean": totals["etl.query"] * 1e3 / n,
        "serve.cache_ms.mean": totals["serve.cache"] * 1e3 / n,
    }


def _generator_layers(samples: List[loadgen.Sample]) -> Dict[str, float]:
    layers = loadgen.layer_quantiles(samples)
    out = {}
    for name, values in layers.items():
        out[f"serve.{name}_ms.p50"] = loadgen.quantile(values, 0.5)
        out[f"serve.{name}_ms.p99"] = loadgen.quantile(values, 0.99)
    out["serve.responses_304"] = float(
        sum(1 for s in samples if s.ok and s.status == 304))
    return out


def _delta(after: Dict, before: Dict, key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


def _store_digest(db: Path) -> str:
    from repro.etl.store import EtlStore

    with EtlStore(db, create=False, read_only=True) as store:
        return store.content_digest()


def run(kind: str, seed: int, seconds: int, trace: bool, prep: Dict,
        rates: Optional[Tuple[float, float]] = None) -> Dict:
    follow = kind == "serve-follow"
    light_rps, heavy_rps = rates or RATES_RPS[kind]
    workdir = new_run_dir(kind)
    rng = random.Random(seed)
    own_cpus = os.sched_getaffinity(0)
    connections = min(2, len(own_cpus))
    # serve-follow runs the writer, the server and this generator on one
    # CPU, so ingest_s and every latency include the CPU the other side
    # takes. Spread over two vCPUs of a shared host, the same runs
    # measured mostly the host: ingest_s moved by a quarter between runs.
    run_cpus = {min(own_cpus)} if follow else own_cpus
    server: Optional[Server] = None
    follower: Optional[Follower] = None
    spans_file = workdir / "server-spans.jsonl" if trace else None
    follower_spans = workdir / "follower-spans.jsonl" if trace else None
    store_digest = None
    try:
        os.sched_setaffinity(0, run_cpus)  # the children inherit it
        setups = []
        with speed.Probes(own_cpus) as setup_probes:
            for attempt in range(SETUP_REPEATS):
                started = perf_counter()
                if follow:
                    db = workdir / f"etl-{attempt}.db"
                    copy_store(FOLLOW_SEED_DB, db)
                else:
                    db = Path(prep["paper_entry"]) / "etl.db"
                spans = spans_file if attempt == SETUP_REPEATS - 1 else None
                if trace and spans is None:
                    spans = workdir / f"setup-{attempt}-spans.jsonl"
                server = Server(db, spans)
                setups.append((started, perf_counter()))
                if attempt < SETUP_REPEATS - 1:
                    # It has answered /healthz only: nothing to drain,
                    # and a graceful stop takes about a second.
                    server.stop(drain=False)
                    server = None
            if follow:
                follower = Follower(
                    db, Path(prep["paper_entry"]) / "chain.jsonl",
                    follower_spans,
                )
        if follow:
            paths = follow_paths()
            picker = lambda r: r.choice(paths)  # noqa: E731
            replay = 0.0
        else:
            from repro.serve.loadgen import ZipfPaths, discover_paths

            served_checkpoint = _checkpoint_of(db)
            paths = discover_paths(server.base)
            picker = ZipfPaths(paths, ZIPF_S).sample
            replay = REPLAY_PROBABILITY

        gen = loadgen.OpenLoop(HOST, server.port, connections,
                               keep_alive=not follow)
        # Warm-up, untimed: opens the workers' replicas, fills the
        # response cache and the clients' ETags (serve-hot).
        warm = paths if not follow else paths[:: max(1, len(paths) // 16)]
        gen.run([loadgen.Planned(due=0.002 * i, path=p)
                 for i, p in enumerate(warm)])
        light_s = seconds * LIGHT_SHARE
        heavy_s = seconds - light_s
        light_plan = loadgen.arrivals(rng, light_rps, light_s, picker,
                                      replay)
        heavy_plan = loadgen.arrivals(rng, heavy_rps, heavy_s, picker,
                                      replay)
        before = server.counters()
        crawl: List[loadgen.Sample] = []
        tail: List[loadgen.Sample] = []
        # serve-follow is CPU-bound on its one CPU: probe it while the
        # follower runs. serve-hot's timings are set by the stall.
        with speed.Probes(own_cpus if follow else ()) as probes:
            if follower is not None:
                follower.go()
            window_start = perf_counter()
            light = gen.run(light_plan)
            heavy = gen.run(heavy_plan)
            window_end = perf_counter()
            if not follow:
                order = list(paths)
                rng.shuffle(order)
                started = perf_counter()
                crawl = gen.run([loadgen.Planned(due=0.0, path=p)
                                 for p in order * CRAWL_PASSES],
                                drain_s=CRAWL_TIMEOUT_S)
                crawl_s = perf_counter() - started
            if follower is not None:
                # The light load goes on past the window until the
                # follower reports, so no part of ingest_s runs unloaded.
                tail = gen.run(
                    loadgen.arrivals(rng, light_rps, FOLLOW_TAIL_CAP_S,
                                     picker),
                    stop=lambda: follower.proc.poll() is not None,
                )
        ingest_under_load = follower is not None and (
            follower.proc.poll() is not None)
        gen.close()
        after = server.counters()
        peak_mb = server.peak_rss_mb()
        server.stop()
        server = None
        if follower is not None:
            ingest = follower.result(timeout=30)
            store_digest = _store_digest(db)
    finally:
        os.sched_setaffinity(0, own_cpus)
        if server is not None:
            server.stop()
        if follower is not None:
            follower.stop()
        for path in workdir.glob("etl-*"):
            path.unlink()
        for path in workdir.glob("setup-*"):
            path.unlink()

    timed = light + heavy + tail
    samples = timed + crawl
    violations = check_samples(samples, None if follow else served_checkpoint)
    # On serve-follow the tail is offered at the light rate too, under
    # the same ingest: it widens the sample p95 rests on.
    light_stats = loadgen.summarize(light + tail)
    all_stats = loadgen.summarize(samples)
    late_p99 = loadgen.quantile(loadgen.summarize(timed).late_ms, 0.99)
    checks = {name: count == 0 for name, count in violations.items()}
    checks["generator ran on time (p99 lateness within bound)"] = (
        late_p99 <= loadgen.MAX_LATE_P99_MS
    )
    # Set-up: the median server start, plus (serve-follow) the
    # follower's chain load, each scaled by the samples taken during it.
    loads = [follower.ready] if follow else []
    wall = {
        "setup_s": statistics.median(end - start for start, end in setups)
        + sum(end - start for start, end in loads),
        "work_s": ingest["ingest_s"] if follow else crawl_s,
        "p50_ms": light_stats.p(0.5),
        "p95_ms": light_stats.p(0.95),
    }
    scale = probes.factor() if follow else 1.0
    metrics = {
        "setup_s": statistics.median(
            setup_probes.scaled(*interval) for interval in setups)
        + sum(setup_probes.scaled(*interval) for interval in loads),
        "work_s": wall["work_s"] * scale,
        "p50_ms": wall["p50_ms"] * scale,
        "p95_ms": wall["p95_ms"] * scale,
        "peak_rss_mb": peak_mb,
    }
    failed = sum(violations.values())
    attempted = len(samples)
    layers: Dict[str, float] = {}
    layers.update(_generator_layers(timed))
    layers["serve.latency_ms.p99"] = light_stats.p(0.99)
    layers["serve.goodput_rps"] = loadgen.goodput(heavy, LIMIT_MS, heavy_s)
    layers["serve.generator_late_ms.p99"] = late_p99
    layers["serve.cache.hits"] = _delta(after, before, "serve.cache.hit")
    layers["serve.cache.misses"] = _delta(after, before, "serve.cache.miss")
    layers["serve.cache.revalidated"] = _delta(after, before,
                                               "serve.cache.revalidated")
    layers["serve.shed"] = _delta(after, before, "serve.shed")
    layers["serve.handler_errors"] = _delta(after, before,
                                            "serve.handler_errors")
    if trace:
        layers.update(_server_layers(spanlib.load(str(spans_file)),
                                     window_start, window_end))
    details = {
        "requests": {"light": len(light), "heavy": len(heavy),
                     "tail": len(tail), "crawl": len(crawl)},
        "goodput_rps": layers["serve.goodput_rps"],
        "failed_requests": all_stats.failed,
        "generator_late_ms_p99": late_p99,
        "connections": connections,
        "cpus": sorted(run_cpus),
        "rates_rps": {"light": light_rps, "heavy": heavy_rps},
        "tail_s": tail[-1].due - window_end if tail else 0.0,
        "limit_ms": LIMIT_MS,
        "paths": len(paths),
        "spans_file": str(spans_file) if spans_file else None,
    }
    if follower is None:
        details["crawl_rps"] = len(crawl) / crawl_s
    else:
        attempted += 1
        metrics["peak_rss_mb"] = max(peak_mb, ingest["peak_rss_mb"])
        details["ingest_s"] = ingest["ingest_s"]
        if trace:
            details["ingest_span_coverage"] = ingest["span_coverage"]
            checks["spans cover >= 95% of ingest_s"] = (
                ingest["span_coverage"] >= MIN_COVERAGE)
        details["ingest_under_load"] = ingest_under_load
        store_ok = store_digest == FOLLOW_STORE_DIGEST
        checks["store content digest after follow is pinned"] = store_ok
        failed += 0 if store_ok else 1
        layers.update(ingest.get("layers", {}))
    return {
        "metrics": metrics,
        "wall": wall,
        "probe_s": probes.samples + setup_probes.samples,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "scenario_digests": {},
        "details": details,
    }
