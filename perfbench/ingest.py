"""The ``ingest`` workload: the paper's generator path.

``webgraph_like(640, 3, 0.6) ⊗ triangle_constrained_pa(180)`` is streamed
over two in-process ranks, with the ``triangles`` and ``trussness``
payloads, into a spill of ``.npy`` blocks, compacted into 65,536-edge
shards and partitioned into two slices -- repeatedly, in whole passes, for
about ``--seconds``.  Every serving layer is idle.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from repro import core
from repro.obs import trace

from perfbench import common
from perfbench.common import log, metric

#: Fresh-process start-ups timed per run; ``setup_s`` is their median.
SETUP_SPAWNS = 11
#: Passes per run, at least (per mode in the traced run).
MIN_PASSES = 3
#: The stage times must cover this share of each pass's wall time.
MIN_COVERAGE = 0.95
#: What a fresh ingest process runs before its first block: imports and
#: building the factors.
PROBE = "from perfbench import common; common.factors(); print('ready')"


def _setup_s() -> float:
    """From spawning a fresh interpreter until it has built the factors."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=common.ROOT,
                            env=common.child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = common.read_line(proc.stdout, timeout=120)
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"setup probe printed {line!r}")
    finally:
        common.reap(proc)
    return elapsed


def _pass_checks(done: dict, nnz: int) -> List[str]:
    failures = []
    if done["n_edges"] != nnz or done["result"].n_edges != nnz:
        failures.append(f"pass stored {done['n_edges']} edges and streamed "
                        f"{done['result'].n_edges}; product nnz is {nnz}")
    staged = done["stream_s"] + done["compact_s"] + done["partition_s"]
    if "spans" in done:
        spans = done["spans"]
        staged = done["partition_s"] + sum(
            sum(_span_s(spans, name)) for name in (
                "stream.run", "compact.run_formation", "compact.merge",
                "compact.publish"))
    if staged < MIN_COVERAGE * done["wall_s"]:
        failures.append(f"stage times cover {staged / done['wall_s']:.1%} "
                        "of the pass")
    return failures


def _exact(done: dict, counts: common.ExactCounts) -> None:
    counts.check("store_bytes", done["store_bytes"])
    counts.check("store_shards", done["shards"])
    counts.check("spill_bytes", done["spill_bytes"])


def run(workload: str, seed: int, seconds: float, traced: bool,
        counts: common.ExactCounts) -> dict:
    factor_a, factor_b = common.factors()
    nnz = core.KroneckerGraph(factor_a, factor_b).nnz
    work = common.WORK / "ingest"
    setups: List[float] = []
    passes: List[dict] = []
    # The traced run alternates untraced and traced passes (ABBA order),
    # so host drift cancels out of the tracing overhead.
    modes = [False, True, True, False] if traced else [False] * MIN_PASSES
    while len(passes) < len(modes):
        mode = modes[len(passes)]
        if mode:
            recorder = trace.TraceRecorder()
            with trace.start_trace("bench.ingest", recorder) as handle:
                done = common.ingest_pass(factor_a, factor_b, work)
            done["spans"] = recorder.spans(handle.trace_id)
        else:
            done = common.ingest_pass(factor_a, factor_b, work)
        done["traced"] = mode
        log(f"pass {len(passes)}: {done['wall_s']:.3f} s, block gap p50 "
            f"{common.percentile(done['gaps_s'], 50) * 1e3:.2f} ms, p99 "
            f"{common.percentile(done['gaps_s'], 99) * 1e3:.2f} ms")
        if not passes and not traced:
            # Work-bounded: whole passes, as many as fill about *seconds*.
            modes += [False] * (round(seconds / done["wall_s"]) - len(modes))
        done["failures"] = _pass_checks(done, nnz)
        _exact(done, counts)
        if passes:
            # Only the last pass's aggregate is checked further; holding
            # every pass's would grow the peak RSS with the pass count.
            passes[-1]["result"] = None
        passes.append(done)
        if not traced:
            # Set-up is sampled between passes, so its median spans the
            # whole run rather than one moment of the host.
            setups.append(_setup_s())
    rss = common.self_peak_rss_mb()
    while len(setups) < SETUP_SPAWNS and not traced:
        setups.append(_setup_s())
    passes[-1]["failures"] += common.check_store(
        factor_a, factor_b, passes[-1]["result"], work / "store",
        np.random.default_rng(seed))
    failures = [f for p in passes for f in p["failures"]]
    failed_passes = sum(bool(p["failures"]) for p in passes)
    log(f"ingest: {len(passes)} passes of {nnz:,} edges, "
        f"{failed_passes} failed")
    result = {"attempted": len(passes), "failed": failed_passes,
              "failures": failures}
    if traced:
        result["metrics"] = _layers(passes)
        return result
    # A pass spills 118 within-rank block gaps; the percentiles are taken
    # per pass, so one preempted block in a pass cannot become the run's
    # p99, and averaged over the passes.  A shared host can switch between
    # speeds some 30% apart for seconds to minutes at a time: a mean moves
    # in proportion to the time spent slow, where a median over passes
    # jumps from one speed to the other.
    gaps_ms = [np.asarray(p["gaps_s"]) * 1e3 for p in passes]
    last = passes[-1]
    result["metrics"] = {
        "setup_s": metric(common.median(setups), "s"),
        "throughput_per_s": metric(
            nnz * len(passes) / sum(p["wall_s"] for p in passes), "1/s"),
        "p50_ms": metric(np.mean(
            [common.percentile(g, 50) for g in gaps_ms]), "ms"),
        "p99_ms": metric(np.mean(
            [common.percentile(g, 99) for g in gaps_ms]), "ms"),
        "rss_peak_mb": metric(rss, "MB"),
        "disk_bytes_per_edge": metric(
            last["store_bytes"] / last["n_edges"], "B"),
        "success_ratio": metric(1.0 - failed_passes / len(passes), "ratio"),
    }
    return result


def _span_s(spans: List[dict], name: str) -> List[float]:
    return [s["elapsed_us"] / 1e6 for s in spans if s["name"] == name]


def _layers(passes: List[dict]) -> Dict[str, dict]:
    """Per-layer metrics of the traced passes (medians over passes)."""
    traced = [p for p in passes if p["traced"]]
    per_pass: Dict[str, List[float]] = {}

    def add(name, value):
        per_pass.setdefault(name, []).append(value)

    for p in traced:
        spans = p["spans"]
        ranks = _span_s(spans, "stream.rank")
        add("parallel.generate_s", p["stream_s"] - p["spill_s"])
        add("parallel.rank_skew", max(ranks) / (sum(ranks) / len(ranks)))
        add("graphs.spill_s", p["spill_s"])
        add("store.run_formation_s",
            sum(_span_s(spans, "compact.run_formation")))
        add("store.merge_s", sum(_span_s(spans, "compact.merge")))
        add("store.publish_s", sum(_span_s(spans, "compact.publish")))
        add("store.partition_s", p["partition_s"])
    units = {"parallel.rank_skew": "ratio"}
    metrics = {name: metric(common.median(values), units.get(name, "s"))
               for name, values in per_pass.items()}
    last = passes[-1]
    metrics["graphs.spill_bytes"] = metric(last["spill_bytes"], "B")
    metrics["store.shards"] = metric(last["shards"], "count")
    nnz = last["n_edges"]
    plain = common.median([nnz / p["wall_s"] for p in passes
                           if not p["traced"]])
    with_trace = common.median([nnz / p["wall_s"] for p in traced])
    metrics["obs.trace_overhead_pct"] = metric(
        (plain / with_trace - 1.0) * 100.0, "%")
    return metrics
