"""Open-loop HTTP load generator timed from each request's due time.

Arrivals follow a Poisson schedule fixed in advance from the seed, so a
slow server cannot slow the offered load down: a request that finds
every connection busy waits in the generator's queue, and that wait is
part of its latency. Each request records five instants (due, sent,
first byte, last byte, and the connect interval for fresh connections),
which gives the per-layer generator figures:

* ``queue``   — due to fully sent (waiting for a free connection);
* ``connect`` — TCP connect on a fresh connection;
* ``ttfb``    — sent to first response byte (server time);
* ``body``    — first to last byte (where a write-path stall sits);
* ``latency`` — due to last byte, the end-to-end figure.

The generator is one thread in one process driving at most a handful
of non-blocking sockets through ``selectors``. It records how late it
dispatched requests that had a free connection waiting for them: that
lateness is the generator's own error, and a run whose lateness exceeds
:data:`MAX_LATE_P99_MS` is reported invalid.
"""

from __future__ import annotations

import errno
import math
import random
import re
import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence

#: p99 of generator dispatch lateness above which a run is invalid.
MAX_LATE_P99_MS = 20.0

#: A request still unfinished this long after the schedule ends fails.
DRAIN_TIMEOUT_S = 10.0

_ETAG_CHECKPOINT = re.compile(r'W/"ck(-?\d+)-')


@dataclass(frozen=True)
class Planned:
    """One scheduled request: due offset (s), path, ETag replay flag."""

    due: float
    path: str
    replay: bool = False


@dataclass
class Sample:
    """What happened to one request (times in seconds, ``perf_counter``)."""

    planned: Planned
    due: float
    slot: int = -1
    connect_start: Optional[float] = None
    connected: Optional[float] = None
    sent: Optional[float] = None
    first_byte: Optional[float] = None
    done: Optional[float] = None
    status: Optional[int] = None
    etag: Optional[str] = None
    checkpoint: Optional[int] = None
    error: Optional[str] = None
    #: Dispatch delay when a connection was free at the due time.
    late: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status in (200, 304)

    @property
    def latency_s(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due


def arrivals(
    rng: random.Random,
    rate: float,
    duration_s: float,
    pick_path,
    replay_probability: float = 0.0,
) -> List[Planned]:
    """``rate * duration_s`` arrivals at uniformly random instants.

    This is a Poisson process conditioned on its count: exponential
    gaps, but every seed offers exactly the same number of requests, so
    run-to-run spread is not padded by the count's own variance.
    """
    count = int(round(rate * duration_s))
    dues = sorted(rng.uniform(0.0, duration_s) for _ in range(count))
    return [
        Planned(due=due, path=pick_path(rng),
                replay=rng.random() < replay_probability)
        for due in dues
    ]


def checkpoint_of_etag(etag: Optional[str]) -> Optional[int]:
    """The ingest checkpoint a serving-tier ETag embeds, if any."""
    if not etag:
        return None
    match = _ETAG_CHECKPOINT.match(etag)
    return None if match is None else int(match.group(1))


class _Conn:
    __slots__ = ("index", "sock", "sample", "out", "buf", "head_end",
                 "length", "close_delimited")

    def __init__(self, index: int) -> None:
        self.index = index
        self.sock: Optional[socket.socket] = None
        self.sample: Optional[Sample] = None
        self.out = b""
        self.buf = bytearray()
        self.head_end = -1
        self.length: Optional[int] = None
        self.close_delimited = False


class OpenLoop:
    """Replays one schedule against ``host:port``.

    ``keep_alive=True`` speaks HTTP/1.1 and reuses each connection;
    otherwise every request opens a fresh HTTP/1.0 connection. ETags
    learnt from responses are replayed in ``If-None-Match`` for planned
    requests flagged ``replay``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connections: int,
        keep_alive: bool,
    ) -> None:
        self.host = host
        self.port = port
        self.keep_alive = keep_alive
        self.etags: Dict[str, str] = {}
        self._conns = [_Conn(i) for i in range(connections)]
        self._sel = selectors.DefaultSelector()

    def close(self) -> None:
        for conn in self._conns:
            self._drop(conn)
        self._sel.close()

    # -- socket plumbing ---------------------------------------------------

    def _drop(self, conn: _Conn) -> None:
        if conn.sock is not None:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
            conn.sock = None

    def _request_bytes(self, sample: Sample) -> bytes:
        version = "HTTP/1.1" if self.keep_alive else "HTTP/1.0"
        lines = [f"GET {sample.planned.path} {version}",
                 f"Host: {self.host}:{self.port}"]
        etag = self.etags.get(sample.planned.path)
        if sample.planned.replay and etag:
            lines.append(f"If-None-Match: {etag}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def _start(self, conn: _Conn, sample: Sample, now: float) -> None:
        sample.slot = conn.index
        conn.sample = sample
        conn.out = self._request_bytes(sample)
        conn.buf = bytearray()
        conn.head_end = -1
        conn.length = None
        conn.close_delimited = False
        if conn.sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            sample.connect_start = now
            err = sock.connect_ex((self.host, self.port))
            if err not in (0, errno.EINPROGRESS):
                sock.close()
                self._fail(conn, f"connect errno {err}", now)
                return
            conn.sock = sock
            self._sel.register(sock, selectors.EVENT_WRITE, conn)
        else:
            self._sel.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _on_writable(self, conn: _Conn, now: float) -> None:
        sample = conn.sample
        if sample.connect_start is not None and sample.connected is None:
            err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self._fail(conn, f"connect errno {err}", now)
                return
            sample.connected = now
        try:
            sent = conn.sock.send(conn.out)
        except OSError as exc:
            self._fail(conn, f"send: {exc}", now)
            return
        conn.out = conn.out[sent:]
        if not conn.out:
            sample.sent = perf_counter()
            self._sel.modify(conn.sock, selectors.EVENT_READ, conn)

    def _on_readable(self, conn: _Conn, now: float) -> None:
        sample = conn.sample
        try:
            chunk = conn.sock.recv(262144)
        except OSError as exc:
            self._fail(conn, f"recv: {exc}", now)
            return
        if chunk and sample.first_byte is None:
            sample.first_byte = now
        if not chunk:
            if conn.head_end >= 0 and conn.close_delimited:
                self._complete(conn, now, reusable=False)
            else:
                self._fail(conn, "connection closed mid-response", now)
            return
        conn.buf += chunk
        if conn.head_end < 0:
            end = conn.buf.find(b"\r\n\r\n")
            if end < 0:
                return
            conn.head_end = end + 4
            self._parse_head(conn, bytes(conn.buf[:end]))
        if conn.length is not None and (
            len(conn.buf) - conn.head_end >= conn.length
        ):
            self._complete(conn, now, reusable=self.keep_alive)

    def _parse_head(self, conn: _Conn, head: bytes) -> None:
        sample = conn.sample
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        try:
            sample.status = int(parts[1])
        except (IndexError, ValueError):
            sample.status = None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            conn.length = int(headers["content-length"])
        else:
            conn.close_delimited = True
        sample.etag = headers.get("etag")
        if "x-checkpoint" in headers:
            sample.checkpoint = int(headers["x-checkpoint"])

    def _complete(self, conn: _Conn, now: float, reusable: bool) -> None:
        sample = conn.sample
        sample.done = now
        if sample.status == 200 and sample.etag:
            self.etags[sample.planned.path] = sample.etag
        conn.sample = None
        if reusable and conn.sock is not None:
            self._sel.modify(conn.sock, selectors.EVENT_READ, conn)
        else:
            self._drop(conn)

    def _fail(self, conn: _Conn, message: str, now: float) -> None:
        sample = conn.sample
        sample.error = message
        sample.done = now
        conn.sample = None
        self._drop(conn)

    # -- the loop ----------------------------------------------------------

    def run(self, plan: Sequence[Planned],
            stop: Optional[Callable[[], bool]] = None,
            drain_s: float = DRAIN_TIMEOUT_S) -> List[Sample]:
        """Replay ``plan`` (due offsets from now); returns one sample per
        request admitted.

        ``stop``, when given, is asked as each request comes due; once
        it returns true, the rest of the plan is dropped. A request
        still unfinished ``drain_s`` after the last one came due fails.
        """
        start = perf_counter()
        samples = [Sample(planned=p, due=start + p.due) for p in plan]
        pending: Deque[Sample] = deque()
        idle = deque(self._conns)
        busy = 0
        next_index = 0
        deadline = start + (plan[-1].due if plan else 0.0) + drain_s
        while next_index < len(samples) or pending or busy:
            now = perf_counter()
            if now > deadline:
                break
            while next_index < len(samples) and samples[next_index].due <= now:
                if stop is not None and stop():
                    del samples[next_index:]
                    deadline = now + DRAIN_TIMEOUT_S
                    break
                sample = samples[next_index]
                if not pending and idle:
                    sample.late = now - sample.due
                pending.append(sample)
                next_index += 1
            while pending and idle:
                conn = idle.popleft()
                self._start(conn, pending.popleft(), now)
                if conn.sample is None:  # failed at connect
                    idle.append(conn)
                else:
                    busy += 1
            if busy == 0 and not pending and next_index >= len(samples):
                break
            if next_index < len(samples):
                timeout = max(0.0, samples[next_index].due - perf_counter())
            else:
                timeout = 0.05
            for key, events in self._sel.select(timeout):
                conn: _Conn = key.data
                now = perf_counter()
                if conn.sample is None:
                    # Idle keep-alive socket readable: the server closed it.
                    self._drop(conn)
                    continue
                if events & selectors.EVENT_WRITE:
                    self._on_writable(conn, now)
                elif events & selectors.EVENT_READ:
                    self._on_readable(conn, now)
                if conn.sample is None:
                    busy -= 1
                    idle.append(conn)
        for conn in self._conns:
            if conn.sample is not None:
                self._fail(conn, "timed out", perf_counter())
        for sample in samples:
            if sample.done is None and sample.error is None:
                sample.error = "never sent"
        return samples


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class PhaseStats:
    """Latency figures of one phase of samples, in milliseconds."""

    failed: int = 0
    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)

    def p(self, q: float) -> float:
        return quantile(self.latency_ms, q)


def summarize(samples: Sequence[Sample]) -> PhaseStats:
    """Failures count as missing every latency limit (``inf``)."""
    stats = PhaseStats()
    for sample in samples:
        if sample.ok:
            stats.latency_ms.append(sample.latency_s * 1e3)
        else:
            stats.failed += 1
            stats.latency_ms.append(float("inf"))
        if sample.late is not None:
            stats.late_ms.append(sample.late * 1e3)
    stats.latency_ms.sort()
    stats.late_ms.sort()
    return stats


def goodput(samples: Sequence[Sample], limit_ms: float, seconds: float) -> float:
    """Responses completed OK within ``limit_ms`` of their due time, per s."""
    good = sum(
        1 for s in samples if s.ok and s.latency_s * 1e3 <= limit_ms
    )
    return good / seconds


def layer_quantiles(samples: Sequence[Sample]) -> Dict[str, List[float]]:
    """Sorted per-layer intervals (ms) over the successful samples."""
    layers: Dict[str, List[float]] = {
        "connect": [], "ttfb": [], "body": [], "queue": [],
    }
    for s in samples:
        if not s.ok:
            continue
        if s.connected is not None:
            layers["connect"].append((s.connected - s.connect_start) * 1e3)
        layers["queue"].append((s.sent - s.due) * 1e3)
        layers["ttfb"].append((s.first_byte - s.sent) * 1e3)
        layers["body"].append((s.done - s.first_byte) * 1e3)
    for values in layers.values():
        values.sort()
    return layers
