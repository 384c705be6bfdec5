"""Run ``repro.serve`` with its request path wrapped in spans.

Usage::

    python -m perfbench.serve_launcher --spans FILE -- serve --db DB ...

Everything after ``--`` goes to ``repro.serve``'s own CLI unchanged;
before handing over, the launcher wraps the server's public methods:

* ``ServeServer.process_request`` → ``finish_request``: queue wait, an
  interval recorded from the accept thread to the worker that picks the
  connection up (``serve.queue_wait``);
* ``ServeServer.finish_request``: one connection (``serve.connection``);
* ``ServeHandler.do_GET``: one request (``serve.handle``);
* ``EtlStore.read_snapshot``: the snapshot read (``etl.snapshot``);
* the ``EtlStore`` query methods (``etl.query``);
* ``ResponseCache.get`` / ``put`` (``serve.cache``).

The spans are written to ``--spans`` when the server has drained and
the CLI returns (``SIGTERM`` starts the drain).
"""

from __future__ import annotations

import argparse
import sys
import threading
from time import perf_counter
from typing import List, Optional

from perfbench.spans import Tracer

#: EtlStore methods the serving tier calls to render pages.
QUERY_METHODS = (
    "get_meta", "counts", "query_hotspot_page", "witness_events",
    "query_owner_page", "hotspot_page_rows", "hotspot_cursor_rows",
    "gateway_by_name", "search_names", "coverage_dot_rows",
)


def install(tracer: Tracer) -> None:
    from repro.etl.store import EtlStore
    from repro.serve.cache import ResponseCache
    from repro.serve.server import ServeHandler, ServeServer

    accepted = {}
    lock = threading.Lock()
    process_request = ServeServer.process_request
    finish_request = ServeServer.finish_request

    def timed_process_request(self, request, client_address):
        with lock:
            accepted[id(request)] = perf_counter()
        return process_request(self, request, client_address)

    def timed_finish_request(self, request, client_address):
        with lock:
            since = accepted.pop(id(request), None)
        if since is not None:
            tracer.record("serve.queue_wait", since, perf_counter())
        with tracer.span("serve.connection"):
            return finish_request(self, request, client_address)

    tracer.replace(ServeServer, "process_request", timed_process_request)
    tracer.replace(ServeServer, "finish_request", timed_finish_request)
    tracer.wrap(ServeHandler, "do_GET", "serve.handle")
    tracer.wrap_context(EtlStore, "read_snapshot", "etl.snapshot")
    for name in QUERY_METHODS:
        tracer.wrap(EtlStore, name, "etl.query")
    tracer.wrap(ResponseCache, "get", "serve.cache")
    tracer.wrap(ResponseCache, "put", "serve.cache")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="python -m perfbench.serve_launcher")
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])

    from repro.serve.cli import main as serve_main

    tracer = Tracer()
    install(tracer)
    try:
        return serve_main(argv[split + 1:])
    finally:
        tracer.restore()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
