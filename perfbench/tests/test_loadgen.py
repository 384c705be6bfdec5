"""Due-time latency against a fake server that stalls."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from perfbench import loadgen


class StallingServer:
    """Answers every request on a connection; ``stalls`` maps the
    request index (0-based, across connections) to ``(before_headers_s,
    between_headers_and_body_s)``."""

    def __init__(self, stalls, keep_alive=True):
        self.stalls = stalls
        self.keep_alive = keep_alive
        self.count = 0
        self.lock = threading.Lock()
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self.threads = []
        self.accept = threading.Thread(target=self._accept, daemon=True)
        self.accept.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                _, buf = buf.split(b"\r\n\r\n", 1)
                with self.lock:
                    index = self.count
                    self.count += 1
                before, between = self.stalls.get(index, (0.0, 0.0))
                time.sleep(before)
                body = b'{"ok":true}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode() + b'\r\nETag: W/"ck7-abc"'
                    + b"\r\nX-Checkpoint: 7\r\n\r\n")
                time.sleep(between)
                conn.sendall(body)
                if not self.keep_alive:
                    return

    def close(self):
        self.sock.close()


@pytest.fixture
def stalling():
    servers = []

    def make(stalls, keep_alive=True):
        server = StallingServer(stalls, keep_alive)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


def test_latency_counts_the_wait_behind_a_stall(stalling):
    server = stalling({0: (0.3, 0.0)})
    gen = loadgen.OpenLoop("127.0.0.1", server.port, connections=1,
                           keep_alive=True)
    plan = [loadgen.Planned(due=d, path="/x") for d in (0.0, 0.1, 0.2)]
    samples = gen.run(plan)
    gen.close()
    assert all(s.ok for s in samples)
    # Requests 2 and 3 were due while request 1 stalled; timed from
    # their due times they carry the rest of the stall.
    assert samples[1].latency_s >= 0.3 - 0.1 - 0.01
    assert samples[2].latency_s >= 0.3 - 0.2 - 0.01
    # Timed from when they were sent, they would look fast.
    assert samples[1].done - samples[1].sent < 0.1
    assert (samples[1].sent - samples[1].due) >= 0.15
    # Requests that found a free connection were dispatched on time.
    assert samples[0].late is not None and samples[0].late < 0.05
    assert samples[1].late is None


def test_body_interval_holds_a_write_path_stall(stalling):
    server = stalling({0: (0.0, 0.2)})
    gen = loadgen.OpenLoop("127.0.0.1", server.port, connections=1,
                           keep_alive=True)
    samples = gen.run([loadgen.Planned(due=0.0, path="/x")])
    gen.close()
    layers = loadgen.layer_quantiles(samples)
    assert layers["body"][0] >= 190.0
    assert layers["ttfb"][0] < 100.0
    assert samples[0].checkpoint == 7
    assert loadgen.checkpoint_of_etag(samples[0].etag) == 7


def test_fresh_connections_record_connect_and_goodput(stalling):
    server = stalling({1: (0.1, 0.0)}, keep_alive=False)
    gen = loadgen.OpenLoop("127.0.0.1", server.port, connections=2,
                           keep_alive=False)
    samples = gen.run([loadgen.Planned(due=0.01 * i, path="/x")
                       for i in range(4)])
    gen.close()
    assert all(s.ok for s in samples)
    assert len(loadgen.layer_quantiles(samples)["connect"]) == 4
    # One request of four stalled 100 ms: it misses a 50 ms limit.
    assert loadgen.goodput(samples, limit_ms=50.0, seconds=1.0) == 3.0


def test_stop_drops_the_rest_of_the_plan(stalling):
    server = stalling({})
    gen = loadgen.OpenLoop("127.0.0.1", server.port, connections=1,
                           keep_alive=True)
    plan = [loadgen.Planned(due=0.05 * i, path="/x") for i in range(40)]
    started = time.perf_counter()
    samples = gen.run(plan, stop=lambda: time.perf_counter() - started > 0.3)
    gen.close()
    assert 4 <= len(samples) <= 8
    assert all(s.ok for s in samples)
    assert time.perf_counter() - started < 1.0


def test_failed_request_misses_every_limit():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]  # nothing listens once closed
    gen = loadgen.OpenLoop("127.0.0.1", port, connections=1,
                           keep_alive=False)
    samples = gen.run([loadgen.Planned(due=0.0, path="/x")])
    gen.close()
    stats = loadgen.summarize(samples)
    assert stats.failed == 1
    assert stats.p(0.5) == float("inf")
    assert loadgen.goodput(samples, limit_ms=1e9, seconds=1.0) == 0.0


def test_schedule_is_a_function_of_the_seed():
    from repro.serve.loadgen import ZipfPaths

    pick = ZipfPaths([f"/p{i}" for i in range(50)], 1.1).sample
    one = loadgen.arrivals(random.Random(5), 40.0, 5.0, pick, 0.3)
    two = loadgen.arrivals(random.Random(5), 40.0, 5.0, pick, 0.3)
    other = loadgen.arrivals(random.Random(6), 40.0, 5.0, pick, 0.3)
    assert one == two
    assert one != other
    assert all(a.due <= b.due for a, b in zip(one, one[1:]))
    assert len(one) == len(other) == 200
    assert 0.0 <= one[0].due and one[-1].due < 5.0


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.quantile(values, 0.5) == 50
    assert loadgen.quantile(values, 0.99) == 99
    assert loadgen.quantile([3.0], 0.99) == 3.0
    assert loadgen.quantile([], 0.5) == 0.0
