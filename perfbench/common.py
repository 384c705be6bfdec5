"""Paths, warm caches, provenance and child-process plumbing.

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout it runs from: the warm scenario cache (``paper`` and
``small`` entries, the ``paper`` ETL store, and the half-chain seed
store ``serve-follow`` starts from), per-run scratch directories,
span files, the appended result history, and ``TMPDIR`` for the
program under test.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SCENARIO_CACHE = WORK / "scenarios"
FOLLOW_SEED_DB = WORK / "follow-seed.db"
RUNS = WORK / "runs"
#: Temporary files of the program under test (chain logs, digests).
TMP = WORK / "tmp"
HISTORY = WORK / "history.jsonl"

#: ``result_digest`` of the default ``paper`` scenario (seed 2021).
PAPER_DIGEST = (
    "06362053669c000655d2fd886f50039c2318b4599d9896db44279dd48286f6cc"
)
#: ``content_digest`` of a store holding the ``paper`` chain as replayed
#: from its dump by ``load_chain`` (serve-follow's writer input). It
#: differs from a store ingested from the simulated chain (``605df38e…``)
#: in the ``wallets`` table only: dump replay pre-funds transaction fees,
#: so nine wallets end with different DC balances than the simulated
#: ledger.
FOLLOW_STORE_DIGEST = (
    "c1f1951bc546fec8f4615c9e8bca53076f25ca29cd1f9c6567820497a2f43b5d"
)
#: ``reports_digest`` of every registered experiment on ``small``.
SMALL_REPORTS_DIGEST = (
    "ffbd983c76fcb88b56497a75e7ee4f174201600ac74a25610513c322cee2febb"
)


def have_program() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for child processes: program + benchmark importable,
    scenario cache pinned inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["REPRO_SCENARIO_CACHE"] = str(SCENARIO_CACHE)
    env["TMPDIR"] = str(TMP)
    env.pop("REPRO_TRACE", None)
    return env


def use_checkout_paths() -> None:
    """Make this process import the checkout's program and cache, and
    keep every file it and its children write inside the checkout."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_SCENARIO_CACHE"] = str(SCENARIO_CACHE)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = str(TMP)
    os.environ.pop("REPRO_TRACE", None)


def run_child(module: str, args: List[str], timeout: float) -> Dict:
    """Run ``python -m <module> <args>`` and parse its last stdout line.

    The child leads its own process group; if this process is
    interrupted or the child overruns ``timeout``, the whole group (a
    farm's pool workers too) is killed before the error propagates.
    """
    with subprocess.Popen(
        [sys.executable, "-m", module, *args],
        cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{module} exited with {proc.returncode}: {stdout[-2000:]}"
        )
    return json.loads(lines[-1])


def src_digest() -> str:
    """SHA-256 over the program's sources (identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(scenario_digests: Dict[str, str]) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "scenario_digests": scenario_digests,
    }


@contextlib.contextmanager
def _locked(path: Path) -> Iterator[None]:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def prepare() -> Dict:
    """Build the warm caches once per checkout (and per program version).

    Returns the build record: ``paper_entry`` (the ``paper`` cache
    directory), ``seconds`` and ``built``. The build runs in a child
    process so the caller's memory high-water mark stays its own.
    """
    marker = WORK / "prepared.json"
    fingerprint = src_digest()
    with _locked(WORK / "prepare.lock"):
        if marker.exists():
            try:
                record = json.loads(marker.read_text())
                if record["src"] == fingerprint:
                    return {**record, "built": False}
            except (ValueError, KeyError):
                pass
        record = run_child("perfbench.common", ["prepare"], timeout=900)
        record["src"] = fingerprint
        marker.write_text(json.dumps(record))
        return {**record, "built": True}


def _prepare_in_child() -> Dict:
    from time import perf_counter

    started = perf_counter()
    from repro.chain.serialize import load_chain
    from repro.etl.ingest import ingest_chain
    from repro.etl.store import EtlStore
    from repro.experiments.context import ensure_snapshot, get_store

    if SCENARIO_CACHE.exists():
        shutil.rmtree(SCENARIO_CACHE)
    paper = ensure_snapshot("paper")
    get_store("paper").close()
    small = ensure_snapshot("small")
    # serve-follow's starting point: a trusted load of the first half
    # of the paper dump, ingested into its own store.
    with open(paper / "chain.jsonl", encoding="utf-8") as handle:
        lines = handle.readlines()
    half = load_chain(io.StringIO("".join(lines[: len(lines) // 2])),
                      validate=False)
    fd, tmp = tempfile.mkstemp(prefix="follow-seed.", suffix=".db",
                               dir=str(WORK))
    os.close(fd)
    os.unlink(tmp)
    store = EtlStore(tmp)
    ingest_chain(half, store)
    store.connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    store.close()
    os.replace(tmp, FOLLOW_SEED_DB)
    return {"seconds": perf_counter() - started, "paper_entry": str(paper),
            "small_entry": str(small)}


def copy_store(source: Path, dest: Path) -> None:
    """Copy a quiescent SQLite store (main file plus any WAL)."""
    shutil.copyfile(source, dest)
    for suffix in ("-wal", "-shm"):
        side = Path(str(source) + suffix)
        if side.exists():
            shutil.copyfile(side, Path(str(dest) + suffix))


@contextlib.contextmanager
def pinned(cpus) -> Iterator[None]:
    """Run this process (and the children it starts) on ``cpus``."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def new_run_dir(tag: str) -> Path:
    RUNS.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=tag + "-", dir=str(RUNS)))


def read_vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of this process or ``pid``, in MB."""
    status = f"/proc/{pid or 'self'}/status"
    with open(status, "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


if __name__ == "__main__":
    if sys.argv[1:] == ["prepare"]:
        print(json.dumps(_prepare_in_child()))
    else:
        sys.exit("usage: python -m perfbench.common prepare")
