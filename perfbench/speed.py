"""Host speed, read beside the work it scales.

On a shared host a CPU's speed moves with what its neighbours run: on
the 2-vCPU reference host a fixed pure-Python loop took anywhere from
1.3 to 1.9 ms, changing over seconds to minutes, and back-to-back runs
of the same simulation took 12 to 21 s. A wall time of CPU-bound work
measured there says as much about the host as about the program.

So while CPU-bound work is timed, one probe process on each CPU the
benchmark may use (:class:`Probes`) times a fixed loop every
:data:`PERIOD_S`:
one untimed pass to warm its caches, then a timed one, in thread CPU
time, so that waiting for the CPU is not counted. :func:`factor` turns
the samples into ``REFERENCE_S / median``: a timing multiplied by it is
the time the work would have taken on a host that runs the probe in
:data:`REFERENCE_S`. :meth:`Probes.scaled` scales one interval by the
samples taken during it, so a timing that covers the first third of a
run is scaled by the host's speed in that third. A slower program still
reads slower in proportion; a slower host, much less. The probe costs
each CPU about 3 % of its time, the same in every run. Both CPUs of the
reference host are probed even when the work runs on one: over eight
runs of the simulation pinned to one CPU, scaling by the samples of
both spread by 0.049 of the median, by those of its own CPU alone by
0.062, and unscaled by 0.233.

Run as ``python -m perfbench.speed --cpu N`` it is one probe process:
it pins itself to CPU ``N``, prints ``ready`` after its first sample,
samples until SIGTERM or the end of its stdin, and prints its samples
as one JSON list of ``[perf_counter at the sample's end, seconds]``
(``perf_counter`` is ``CLOCK_MONOTONIC``, one clock for every process).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter, thread_time
from typing import Iterable, List, Optional, Tuple

#: Iterations of the probe's two loops.
LOOPS = 10_000
ROWS = 2_000
#: Seconds between samples.
PERIOD_S = 0.1
#: The probe's time on a host of reference speed: a mid-range reading
#: on the 2-vCPU host the bounds were set on.
REFERENCE_S = 1.5e-3
#: An interval with fewer samples than this is scaled by all of them.
MIN_SAMPLES = 3


def _spin() -> int:
    """Integer arithmetic, then small dicts built and read back: the
    interpreter's own loop, and allocation and lookups."""
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    rows = [{"id": i, "value": i * 7 % 13, "name": str(i)}
            for i in range(ROWS)]
    for row in rows:
        total += row["value"] + len(row["name"])
    return total


def probe() -> float:
    """Thread CPU seconds of one warm pass of the probe loop."""
    _spin()
    started = thread_time()
    _spin()
    return thread_time() - started


def factor(samples: Iterable[float]) -> float:
    """``REFERENCE_S`` over the median sample: multiply a timing of
    work that ran beside the samples by it."""
    return REFERENCE_S / statistics.median(samples)


class Probes:
    """One probe process pinned to each of ``cpus``, sampling while the
    ``with`` block runs; :attr:`samples` holds them all afterwards."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        #: ``(perf_counter, seconds)`` of every sample.
        self.samples: List[Tuple[float, float]] = []
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Probes":
        from perfbench.common import ROOT, child_env

        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "perfbench.speed",
                     "--cpu", str(cpu)],
                    cwd=str(ROOT), env=child_env(), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True,
                )
                self._procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed probe on CPU {cpu} failed")
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._kill()
            return
        try:
            for proc in self._procs:
                proc.send_signal(signal.SIGTERM)
            for proc in self._procs:
                out, _ = proc.communicate(timeout=10)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"speed probe exited with {proc.returncode}")
                last = out.strip().splitlines()[-1]
                self.samples.extend((t, s) for t, s in json.loads(last))
        finally:
            self._kill()

    def factor(self, start: float = -math.inf, end: float = math.inf
               ) -> float:
        """Scale factor for work that ran from ``start`` to ``end``
        (``perf_counter`` seconds): from the samples taken then, or
        within one period of it."""
        inside = [s for t, s in self.samples
                  if start - PERIOD_S <= t <= end + PERIOD_S]
        if len(inside) < MIN_SAMPLES:
            inside = [s for _, s in self.samples]
        return factor(inside)

    def scaled(self, start: float, end: float, busy: float = 1.0) -> float:
        """``end - start``, scaled by the host's speed in between. Only
        the ``busy`` share of it, the part spent computing, is scaled;
        the rest (waiting, idle workers) does not follow the CPU."""
        return (end - start) * (1 - busy + busy * self.factor(start, end))

    def _kill(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None and not stream.closed:
                    stream.close()
        self._procs = []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.speed")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # An orphaned probe stops when its parent's end of stdin closes.
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    samples = []
    while True:
        seconds = probe()
        samples.append((perf_counter(), seconds))
        if len(samples) == 1:
            print("ready", flush=True)
        if stop.wait(PERIOD_S):
            break
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
