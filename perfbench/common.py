"""Shared pieces of the benchmark: the fixed graph, the ingest pipeline,
the cached serving store, summary statistics and the exact-count ledger.

The product graph is the same for every seed: ``--seed`` only drives the
request plans and the verification samples, so the exact counts (bytes per
edge, shard count, spill bytes) are properties of the commit, not of the
seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import core, generators
from repro.core import ValidationAccumulator
from repro.graphs.io import SHARD_MANIFEST, NpyShardSink
from repro.parallel import distributed_generate
from repro.store import ShardStore, compact_shards, partition_manifest

ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"

# webgraph_like(640, 3, 0.6) ⊗ triangle_constrained_pa(180): 115,200
# vertices, 1,799,160 stored edges, 28 shards of <= 65,536 edges.
FACTOR_A = {"n_vertices": 640, "edges_per_vertex": 3,
            "triad_probability": 0.6, "seed": 11}
FACTOR_B = {"n": 180, "seed": 12}
PAYLOAD = ("triangles", "trussness")
N_RANKS = 2
#: A-entries per streamed block: 120 spilled blocks per pass, enough
#: samples for the block-gap percentiles.
A_EDGES_PER_BLOCK = 32
TARGET_SHARD_EDGES = 65_536
N_SLICES = 2
#: Stored payload rows re-derived from the factors after each run.
PAYLOAD_SAMPLE = 12_000


def log(message: str) -> None:
    """Progress goes to stderr; stdout ends with the JSON result alone."""
    print(message, file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """Environment of a child interpreter: this tree's library first, and
    byte code cached under :data:`WORK`, never next to the sources.  The
    cache is always on, so start-up time does not depend on the caller's
    ``PYTHONDONTWRITEBYTECODE``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def read_line(stream, timeout: float) -> str:
    """The next line of a child's output, or "" after *timeout* seconds."""
    ready, _, _ = select.select([stream], [], [], timeout)
    return stream.readline() if ready else ""


def reap(proc: subprocess.Popen, timeout: float = 0.0) -> None:
    """Wait up to *timeout* seconds for *proc* to exit, kill it if it has
    not, and wait until it has ended."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def factors():
    return (generators.webgraph_like(**FACTOR_A),
            generators.triangle_constrained_pa(**FACTOR_B))


class TimedSink(NpyShardSink):
    """An :class:`NpyShardSink` that times its own writes.

    ``busy_s`` is the time spent inside ``write``/``finalize``; ``gaps_s``
    holds, per spilled block after a rank's first, the time since that
    rank's previous block was written -- the wait a consumer of the
    stream sees between blocks.
    """

    __slots__ = ("busy_s", "gaps_s", "_last")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.busy_s = 0.0
        self.gaps_s: List[float] = []
        self._last: Dict[int, float] = {}

    def write(self, rank, block_index, edges):
        start = time.perf_counter()
        super().write(rank, block_index, edges)
        end = time.perf_counter()
        self.busy_s += end - start
        if rank in self._last:
            self.gaps_s.append(end - self._last[rank])
        self._last[rank] = end

    def finalize(self, metadata=None):
        start = time.perf_counter()
        result = super().finalize(metadata)
        self.busy_s += time.perf_counter() - start
        return result


def dir_bytes(path: Path) -> int:
    """Bytes of the regular files directly inside *path*."""
    return sum(entry.stat().st_size for entry in path.iterdir()
               if entry.is_file())


def ingest_pass(factor_a, factor_b, work: Path) -> dict:
    """One generate -> spill -> compact -> partition pass into *work*.

    Returns the stage times, the streamed result and the exact sizes.
    """
    product_n = factor_a.n_vertices * factor_b.n_vertices
    spill, store = work / "spill", work / "store"
    start = time.perf_counter()
    sink = TimedSink(spill, name="bench", n_vertices=product_n,
                     payload_columns=PAYLOAD)
    result = distributed_generate(
        factor_a, factor_b, N_RANKS, streaming=True, sink=sink,
        payload_columns=PAYLOAD, a_edges_per_block=A_EDGES_PER_BLOCK)
    generated = time.perf_counter()
    manifest = compact_shards(spill, store,
                              target_shard_edges=TARGET_SHARD_EDGES)
    compacted = time.perf_counter()
    partition_manifest(store, n_slices=N_SLICES)
    end = time.perf_counter()
    return {
        "wall_s": end - start,
        "stream_s": generated - start,
        "compact_s": compacted - generated,
        "partition_s": end - compacted,
        "spill_s": sink.busy_s,
        "gaps_s": sink.gaps_s,
        "result": result,
        "n_edges": int(manifest["total_edges"]),
        "shards": len(manifest["shards"]),
        "spill_bytes": dir_bytes(spill),
        "store_bytes": dir_bytes(store),
    }


def check_store(factor_a, factor_b, result, store_dir: Path,
                rng: np.random.Generator) -> List[str]:
    """Ingest correctness: the streamed aggregate validates against the
    factors, the store holds every product edge, and a seeded sample of
    stored payload rows equals the closed forms recomputed from the
    factors.  Returns the failures (empty when correct)."""
    failures = []
    report = ValidationAccumulator(factor_a, factor_b,
                                   stats=result.stats).validate(result.total)
    if not report.passed:
        failures.append(f"streamed aggregate failed validation: {report}")
    nnz = core.KroneckerGraph(factor_a, factor_b).nnz
    store = ShardStore(store_dir, cache_shards=64)
    if store.total_edges != nnz:
        failures.append(f"store holds {store.total_edges} edges, "
                        f"product nnz is {nnz}")
    if store.payload_columns != PAYLOAD:
        failures.append(f"store payload columns {store.payload_columns}")
        return failures
    rows = store.edges_in_range(0, store.n_vertices, with_payload=True)
    sample = rows[np.sort(rng.choice(rows.shape[0], PAYLOAD_SAMPLE,
                                     replace=False))]
    stats = core.KroneckerTriangleStats.from_factors(factor_a, factor_b)
    truss = core.kron_truss_decomposition(factor_a, factor_b)
    src, dst = sample[:, 0], sample[:, 1]
    if not np.array_equal(sample[:, 2], stats.edge_values(src, dst)):
        failures.append("stored triangle payloads differ from the formula")
    if not np.array_equal(sample[:, 3], truss.edge_trussness_batch(src, dst)):
        failures.append("stored trussness payloads differ from the formula")
    return failures


def _source_fingerprint() -> str:
    """Hash of the library and benchmark sources, so a cached store is
    rebuilt, and the exact counts start afresh, whenever either changes."""
    digest = hashlib.sha1()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def serving_store() -> Path:
    """The compacted store the serving workloads read, built and checked
    once per source tree and reused by later runs (it is the same graph
    for every seed)."""
    base = WORK / "serving"
    marker = base / "READY"
    fingerprint = _source_fingerprint()
    if marker.exists() and marker.read_text() == fingerprint:
        return base / "store"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    log("building the serving store ...")
    factor_a, factor_b = factors()
    done = ingest_pass(factor_a, factor_b, base)
    failures = check_store(factor_a, factor_b, done["result"],
                           base / "store", np.random.default_rng(0))
    if failures:
        raise RuntimeError("serving store failed its check: "
                           + "; ".join(failures))
    shutil.rmtree(base / "spill")
    marker.write_text(fingerprint)
    return base / "store"


def store_bytes_per_edge(store_dir: Path) -> float:
    """Shard plus manifest bytes of a compacted store, per stored edge."""
    manifest = json.loads((store_dir / SHARD_MANIFEST).read_text())
    return dir_bytes(store_dir) / int(manifest["total_edges"])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ExactCounts:
    """Ledger of counts that must repeat exactly across runs of one tree.

    The first run records each count; later runs compare against it.  The
    ledger is keyed by the source fingerprint, so a changed tree starts a
    fresh one.
    """

    def __init__(self):
        self.path = WORK / "exact_counts.json"
        self.fingerprint = _source_fingerprint()
        self.failures: List[str] = []
        try:
            ledger = json.loads(self.path.read_text())
        except (OSError, ValueError):
            ledger = {}
        if ledger.get("fingerprint") != self.fingerprint:
            ledger = {"fingerprint": self.fingerprint, "counts": {}}
        self.ledger = ledger

    def check(self, key: str, value) -> None:
        counts = self.ledger["counts"]
        if key in counts and counts[key] != value:
            self.failures.append(f"exact count {key} changed: "
                                 f"{counts[key]} then {value}")
        counts.setdefault(key, value)

    def save(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.ledger, indent=1, sort_keys=True))
        tmp.replace(self.path)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}

