"""``serve-follow``'s writer: ingest the ``paper`` chain, read back from a
chain log, into a store that already holds its first half, while the
server reads from it.

Protocol on stdio: after a trusted ``load_chain`` of the full dump,
spilled to an anonymous chain log the way a simulation leaves it, the
follower prints ``{"ready": load_s}``, waits for one line on stdin,
runs :func:`ingest_chain` (timed, and traced with ``--spans``) and
prints its record. Ingest reads every block it writes from the log, so
``chain.read_s`` is chain-log decode.

Traced, it wraps the ``BlockSequence`` slices ingest reads and each
transaction ingest opens on the store's connection.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import spans as spanlib
from perfbench.common import read_vm_hwm_mb


class _TimedConnection:
    """A store connection whose ``with`` blocks (transactions) are spans."""

    def __init__(self, connection, tracer: spanlib.Tracer) -> None:
        self._connection = connection
        self._tracer = tracer
        self._open: List[spanlib.Span] = []

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        self._open.append(self._tracer.begin("etl.txn"))
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._connection.__exit__(*exc_info)
        finally:
            self._tracer.end(self._open.pop())


def trace_ingest(tracer: spanlib.Tracer, store) -> None:
    """Wrap what ``ingest_chain`` reads (block slices) and writes (txns)."""
    from repro.chain.blockchain import BlockSequence

    tracer.wrap(BlockSequence, "__getitem__", "chain.read",
                when=lambda self, index: isinstance(index, slice))
    store.connection = _TimedConnection(store.connection, tracer)


def ingest_layers(tracer: spanlib.Tracer, root: spanlib.Span,
                  db_path: str, blocks: int) -> Dict[str, float]:
    """Per-layer figures of one traced ``ingest_chain`` call into the
    store at ``db_path``, which then holds ``blocks`` blocks."""
    reads = [s for s in tracer.spans
             if s.parent == root.id and s.name == "chain.read"]
    read_s = sum(s.duration for s in reads)
    db_bytes = sum(
        os.path.getsize(p) for p in (db_path, db_path + "-wal")
        if os.path.exists(p)
    )
    return {
        "etl.ingest_s": root.duration,
        "chain.read_s": read_s,
        "etl.write_s": root.duration - read_s,
        "etl.batches": float(len(reads)),
        "etl.db_bytes_per_block": db_bytes / max(blocks, 1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.follower")
    parser.add_argument("--db", required=True)
    parser.add_argument("--chain", required=True, help="paper chain.jsonl")
    parser.add_argument("--spans", default=None,
                        help="trace ingest and write its spans here")
    args = parser.parse_args(argv)

    from repro.chain.chainlog import ChainLog
    from repro.chain.serialize import load_chain
    from repro.etl.ingest import ingest_chain
    from repro.etl.store import EtlStore

    started = perf_counter()
    chain = load_chain(args.chain, validate=False)
    chain.attach_log(ChainLog())
    chain.evict_finalized()
    store = EtlStore(args.db, create=False)
    print(json.dumps({"ready": perf_counter() - started}), flush=True)
    if not sys.stdin.readline():
        return 1  # the caller went away before the window opened

    tracer = spanlib.Tracer() if args.spans else None
    if tracer is not None:
        trace_ingest(tracer, store)
        root = tracer.begin("etl.ingest")
    started = perf_counter()
    report = ingest_chain(chain, store)
    ingest_s = perf_counter() - started
    record = {
        "ingest_s": ingest_s,
        "blocks": report.blocks_ingested,
        "tip_height": report.tip_height,
        "peak_rss_mb": read_vm_hwm_mb(),
    }
    if tracer is not None:
        tracer.end(root)
        tracer.restore()
        record["layers"] = ingest_layers(tracer, root, args.db,
                                         len(chain.blocks))
        record["span_coverage"] = spanlib.coverage(root, tracer.spans)
        tracer.dump(args.spans)
    store.close()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
