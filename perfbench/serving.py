"""Serving workloads: ``lookup`` and ``scan``.

Each run starts ``repro-kron serve`` as its own process (it must not share
the load generator's interpreter lock) and drives it from this process
over two connections in a closed loop: every client waits for its reply
before sending the next request, like the validation scripts that use the
service.  The request plan is fixed by ``--seed`` alone, and the expected
answer of every request is computed beforehand from an in-process
:class:`~repro.store.ShardStore` over the same store; served answers are
compared with them (values and dtype) between passes, outside the timed
window.
"""

from __future__ import annotations

import gc
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import core
from repro.obs import trace
from repro.serve import QueryClient, protocol, shaping
from repro.store import ShardStore

from perfbench import common
from perfbench.common import log, metric

#: Connections driving the server (the host has two cores).
CONNECTIONS = 2
#: Decode threads of the server under test.
SERVER_THREADS = 2
#: Server start-ups timed per run; ``setup_s`` is their median.
SETUP_SPAWNS = 9
#: Requests sent per run, at least: p99 then has >= 10 samples above it.
MIN_REQUESTS = 1_000
#: A server keeps its last 128 traces, so the traced run fetches spans
#: after every chunk of this many requests.
TRACE_CHUNK = 96
#: The warm-up sends the first 1/WARMUP_SHARE of the plan.
WARMUP_SHARE = 10
BANNER = re.compile(r" on ([0-9.]+):(\d+) ")

#: Request kinds and their share of each plan.  The shares put p50 and p99
#: inside one latency mode each.  In ``lookup`` p50 falls among the small
#: answers and p99 among the egonets: with a 20% egonet share it is their
#: 95th percentile, made up of the repeated egonets of the most popular
#: vertices, whose cost :func:`_ranked_vertices` keeps the same for every
#: seed.  In ``scan`` both fall among the JSON range answers, the slowest
#: kind.
MIXES = {
    "lookup": {"degree": 0.40, "neighbors": 0.25, "edge_payload": 0.15,
               "egonet": 0.20},
    "scan": {"range_binary": 0.25, "edges_for_sources": 0.15,
             "range_json": 0.60},
}
PLAN_LENGTH = {"lookup": 2_600, "scan": 400}
ZIPF_EXPONENT = 1.2
RANGE_WIDTH = 128
SOURCES_PER_REQUEST = 48
#: Routed kinds whose worker calls the trace shows.  The router coalesces
#: ``degree`` and ``neighbors`` and flushes each batch outside the
#: request's trace, so their fan-out cannot be attributed to a request.
ROUTER_TRACED = ("edge_payload", "egonet")


# ----------------------------------------------------------------------
# Plans and expected answers
# ----------------------------------------------------------------------
def _ranked_vertices(store: ShardStore,
                     rng: np.random.Generator) -> np.ndarray:
    """Every vertex with a neighbour, in popularity-rank order.

    The ranking is a fixed shuffle whose vertices the seed then permutes
    among vertices of equal degree, triangle count and two-hop row count
    (the rows an egonet reads): each seed asks about other vertices (and
    so other shards), while the size of the answer, and the work behind
    it, at every rank stays the same.
    """
    n = store.n_vertices
    degrees = store.degrees(np.arange(n))
    triangles = core.kron_vertex_triangles(*common.factors())
    rows = store.edges_in_range(0, n)
    two_hop = np.bincount(rows[:, 0], weights=degrees[rows[:, 1]],
                          minlength=n).astype(np.int64)
    order = np.random.default_rng(0).permutation(np.flatnonzero(degrees > 0))
    _, cls = np.unique(np.stack([degrees[order], triangles[order],
                                 two_hop[order]], axis=1),
                       axis=0, return_inverse=True)
    cls = cls.ravel()
    slots = np.lexsort((np.arange(order.size), cls))
    members = np.lexsort((rng.random(order.size), cls))
    shuffled = order.copy()
    shuffled[slots] = order[members]
    return shuffled


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """*count* points of [0, 1), one drawn uniformly from each of *count*
    equal strata: every seed covers the distribution evenly."""
    return (np.arange(count) + rng.random(count)) / count


def _zipf_ranks(n: int, count: int) -> np.ndarray:
    """The *count* quantiles of a Zipf(:data:`ZIPF_EXPONENT`) rank in
    [0, n): the same ranks for every seed, so with
    :func:`_ranked_vertices` every plan asks for answers of the same cost."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT)
    quantiles = (np.arange(count) + 0.5) / count
    return np.minimum(np.searchsorted(cdf / cdf[-1], quantiles,
                                      side="right"), n - 1)


def make_plan(workload: str, seed: int,
              store: ShardStore) -> List[Tuple[str, tuple]]:
    """The seeded request plan: ``(kind, args)`` pairs in send order."""
    rng = np.random.default_rng(seed)
    key = "scan" if workload == "scan" else "lookup"
    counts = {kind: int(round(share * PLAN_LENGTH[key]))
              for kind, share in MIXES[key].items()}
    n = store.n_vertices
    plan = []
    if workload == "scan":
        lo_min, lo_max = n // 4, n // 2 - RANGE_WIDTH
        for kind, count in counts.items():
            los = lo_min + (_strata(rng, count)
                            * (lo_max - lo_min + 1)).astype(np.int64)
            for lo in los.tolist():
                if kind == "edges_for_sources":
                    sources = n // 4 + (_strata(rng, SOURCES_PER_REQUEST)
                                        * (n // 4)).astype(np.int64)
                    plan.append((kind, tuple(sources.tolist())))
                else:
                    plan.append((kind, (lo, lo + RANGE_WIDTH)))
    else:
        ranked = _ranked_vertices(store, rng)
        for kind, count in counts.items():
            for v in ranked[_zipf_ranks(ranked.size, count)].tolist():
                if kind == "edge_payload":
                    neighbours = store.neighbors(v)
                    plan.append((kind, (v, int(neighbours[rng.integers(
                        neighbours.size)]))))
                else:
                    plan.append((kind, (v,)))
    order = rng.permutation(len(plan))
    return [plan[i] for i in order]


def ask(source, kind: str, args: tuple):
    """One request of *kind*, against a :class:`QueryClient` or, for the
    expected answer, the in-process :class:`ShardStore`."""
    if kind == "degree":
        return source.degree(args[0])
    if kind == "neighbors":
        if isinstance(source, QueryClient):
            return source.neighbors_with_payload(args[0])
        rows = source.edges_for_sources([args[0]], with_payload=True)
        keep = rows[:, 1] != args[0]
        return rows[keep, 1], {name: rows[keep, 2 + i] for i, name
                               in enumerate(source.payload_columns)}
    if kind == "edge_payload":
        return source.edge_payload(*args)
    if kind == "egonet":
        ego, rows = source.egonet(args[0], with_payload=True)
        return ego.vertices, rows
    if kind == "edges_for_sources":
        return source.edges_for_sources(list(args), with_payload=True)
    if kind == "range_binary" and isinstance(source, QueryClient):
        return source.edges_in_range(*args, with_payload=True, binary=True)
    return source.edges_in_range(*args, with_payload=True)


def same_answer(got, want) -> bool:
    """Equal values and, for arrays, equal dtype and shape."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want))
    if isinstance(want, (tuple, list)):
        return (isinstance(got, (tuple, list)) and len(got) == len(want)
                and all(same_answer(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_answer(got[k], want[k]) for k in want))
    integers = (int, np.integer)
    return (isinstance(got, integers) and isinstance(want, integers)
            and not isinstance(got, bool) and int(got) == int(want))


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class Server:
    """One ``repro-kron serve`` process; ``setup_s`` runs from spawning it
    until its banner is printed and the first ``hello`` is answered."""

    def __init__(self, store_dir: Path, fleet: bool):
        args = [sys.executable, "-m", "repro.cli", "serve", str(store_dir),
                "--threads", str(SERVER_THREADS)]
        if fleet:
            args += ["--fleet", str(common.N_SLICES)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     text=True, cwd=common.ROOT,
                                     env=common.child_env())
        try:
            banner = common.read_line(self.proc.stdout, timeout=120)
            match = BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"server printed no banner: {banner!r}")
            self.address = f"{match.group(1)}:{match.group(2)}"
            with self.client() as client:
                client.hello()
        except BaseException:
            common.reap(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def client(self) -> QueryClient:
        return QueryClient.from_address(self.address, timeout=60.0)

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Shut the server down gracefully (killed if that fails)."""
        try:
            with self.client() as client:
                client.shutdown_server()
        finally:
            common.reap(self.proc, timeout=60)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Pass:
    """One closed-loop pass of a plan over the given connections:
    connection *i* of *k* sends ``plan[i::k]`` in order."""

    def __init__(self, clients: Sequence[QueryClient],
                 plan: Sequence[Tuple[str, tuple]],
                 recorder: Optional[trace.TraceRecorder] = None):
        self.plan = plan
        self.latencies = np.zeros(len(plan))
        self.answers: List[object] = [None] * len(plan)
        self.trace_ids: List[Optional[str]] = [None] * len(plan)
        self.failed: List[str] = []
        start = time.perf_counter()
        threads = [threading.Thread(target=self._drive,
                                    args=(client, i, len(clients), recorder))
                   for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed_s = time.perf_counter() - start

    def _drive(self, client: QueryClient, first: int, step: int,
               recorder: Optional[trace.TraceRecorder]) -> None:
        for index in range(first, len(self.plan), step):
            kind, args = self.plan[index]
            try:
                if recorder is None:
                    start = time.perf_counter()
                    self.answers[index] = ask(client, kind, args)
                else:
                    with trace.start_trace("bench." + kind,
                                           recorder) as handle:
                        start = time.perf_counter()
                        self.answers[index] = ask(client, kind, args)
                    self.trace_ids[index] = handle.trace_id
                self.latencies[index] = time.perf_counter() - start
            except Exception as exc:  # a failed request is counted, not fatal
                self.failed.append(f"{kind}{args}: {exc!r}")


def check_answers(done: Pass, expected: Dict[tuple, object]) -> int:
    """Wrong or missing answers of one pass."""
    wrong = 0
    for (kind, args), answer in zip(done.plan, done.answers):
        if not same_answer(answer, expected[(kind, args)]):
            wrong += 1
    return wrong


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@contextmanager
def _started(store_dir: Path, plan, fleet: bool = False):
    """A fresh server with connected clients, warmed on the head of the
    plan and its counters then zeroed; stopped on exit."""
    server = Server(store_dir, fleet)
    clients: List[QueryClient] = []
    clean = False
    try:
        clients = [server.client() for _ in range(CONNECTIONS)]
        Pass(clients, plan[:len(plan) // WARMUP_SHARE])
        clients[0].reset_stats()
        yield server, clients
        clean = True
    finally:
        for client in clients:
            client.close()
        if clean:
            server.stop()
        else:
            common.reap(server.proc)


def _setup_probe(store_dir: Path) -> float:
    server = Server(store_dir, fleet=False)
    server.stop()
    return server.setup_s


def run(workload: str, seed: int, seconds: float, traced: bool,
        counts: common.ExactCounts) -> dict:
    store_dir = common.serving_store()
    store = ShardStore(store_dir, cache_shards=64)
    plan = make_plan(workload, seed, store)
    expected = {}
    for kind, args in plan:
        if (kind, args) not in expected:
            expected[(kind, args)] = ask(store, kind, args)
    log(f"{workload}: plan of {len(plan)} requests, "
        f"{len(expected)} distinct")
    # The plan and its answers live for the whole run: keep the load
    # generator's garbage collector from traversing them mid-window.
    gc.collect()
    gc.freeze()
    counts.check("store_bytes", common.dir_bytes(store_dir))
    counts.check("store_shards", store.n_shards)
    if traced:
        return _traced(workload, store_dir, plan, expected, seed, counts)
    return _measured(store_dir, plan, expected, seconds)


def _measured(store_dir: Path, plan, expected, seconds: float) -> dict:
    passes: List[Pass] = []
    wrong = 0
    failures: List[str] = []
    n_passes = -(-MIN_REQUESTS // len(plan))
    with _started(store_dir, plan) as (server, clients):
        setups = [server.setup_s]
        while len(passes) < n_passes:
            done = Pass(clients, plan)
            log(f"pass {len(passes)}: {len(plan) / done.elapsed_s:.1f} "
                f"requests/s, p50 "
                f"{common.percentile(done.latencies, 50) * 1e3:.2f} ms, p99 "
                f"{common.percentile(done.latencies, 99) * 1e3:.2f} ms")
            if not passes:
                # Work-bounded: whole passes, as many as fill *seconds*.
                n_passes = max(n_passes, round(seconds / done.elapsed_s))
            # Checked between passes: the comparison is not timed.
            wrong += check_answers(done, expected)
            failures += done.failed
            done.answers = None
            passes.append(done)
            # Set-up is sampled between passes too, so its median spans
            # the whole run rather than one moment of the host.
            setups.append(_setup_probe(store_dir))
        rss = server.peak_rss_mb()
    while len(setups) < SETUP_SPAWNS:
        setups.append(_setup_probe(store_dir))
    latencies = np.concatenate([p.latencies for p in passes]) * 1e3
    attempted = len(plan) * len(passes)
    log(f"{len(passes)} passes, {attempted} requests, {len(failures)} "
        f"failed, {wrong} wrong or failed")
    for failure in failures[:5]:
        log(f"  failed: {failure}")
    return {
        "attempted": attempted,
        "failed": wrong,
        "failures": [f"{wrong} wrong or failed answers"] if wrong else [],
        "metrics": {
            "setup_s": metric(common.median(setups), "s"),
            "throughput_per_s": metric(
                attempted / sum(p.elapsed_s for p in passes), "1/s"),
            "p50_ms": metric(common.percentile(latencies, 50), "ms"),
            "p99_ms": metric(common.percentile(latencies, 99), "ms"),
            "rss_peak_mb": metric(rss, "MB"),
            "disk_bytes_per_edge": metric(
                common.store_bytes_per_edge(store_dir), "B"),
            "success_ratio": metric(1.0 - wrong / attempted, "ratio"),
        },
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _union_us(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _request_layers(client_spans: List[dict],
                    server_spans: List[dict]) -> Dict[str, float]:
    """Milliseconds one request spent per layer, from its spans."""
    mine = {s["span"] for s in client_spans if s["name"].startswith("client.")}
    client_us = sum(s["elapsed_us"] for s in client_spans
                    if s["span"] in mine)
    front = [s for s in server_spans if s["parent"] in mine]
    server_us = sum(s["elapsed_us"] for s in front)
    calls = [s for s in server_spans if s["name"] == "fleet.worker_call"]
    covered = _union_us([(s["start_us"], s["start_us"] + s["elapsed_us"])
                         for s in calls])
    return {
        "client": client_us / 1e3,
        "server": server_us / 1e3,
        "transport": (client_us - server_us) / 1e3,
        "decode": sum(s["elapsed_us"] for s in server_spans
                      if s["name"] == "store.decode") / 1e3,
        "fanout": sum(s["elapsed_us"] for s in calls) / 1e3,
        "router_self": (server_us - covered) / 1e3 if calls else 0.0,
    }


def _traced_pass(clients, plan, expected, traced: bool) -> dict:
    """One pass of *plan* in chunks of :data:`TRACE_CHUNK` requests, so the
    server's trace buffer never overflows; spans are fetched between
    chunks, outside the timed part.  Untraced passes use the same chunks,
    so the two modes differ by tracing alone."""
    recorder = trace.TraceRecorder(max_traces=2 * TRACE_CHUNK)
    elapsed, wrong, layers = 0.0, 0, []
    # A router's stats answer makes worker calls of its own; two reads in a
    # row measure how many, so the pass's own calls can be told apart.
    before = _worker_calls(clients[0])
    probe = _worker_calls(clients[0]) - before
    before += probe
    for first in range(0, len(plan), TRACE_CHUNK):
        done = Pass(clients, plan[first:first + TRACE_CHUNK],
                    recorder if traced else None)
        elapsed += done.elapsed_s
        wrong += check_answers(done, expected)
        for (kind, _), trace_id in zip(done.plan, done.trace_ids):
            if trace_id is not None:
                layers.append((kind, _request_layers(
                    recorder.spans(trace_id),
                    clients[0].trace_spans(trace_id))))
        recorder.clear()
    stats = clients[0].stats()
    clients[0].reset_stats()
    return {"throughput": len(plan) / elapsed, "wrong": wrong,
            "layers": layers, "stats": stats,
            "worker_calls": _worker_calls(stats) - before - probe}


def _worker_calls(source) -> int:
    """Router-to-worker calls so far, from a router's ``stats`` answer (0
    from a single server)."""
    stats = source.stats() if isinstance(source, QueryClient) else source
    return sum(s["calls"] for s in stats.get("fleet", {}).get("slices", ()))


def _replay_scan(store_dir: Path, plan) -> Dict[str, dict]:
    """The JSON range answers of the ``scan`` plan, replayed in process
    against a warm store: time per 1,000 rows in the store, the JSON
    shaping, the frame encode and the frame decode."""
    store = ShardStore(store_dir)
    ranges = [args for kind, args in plan if kind == "range_json"]
    for lo, hi in ranges:
        store.edges_in_range(lo, hi, with_payload=True)
    totals = {"range": 0.0, "shape": 0.0, "encode": 0.0, "decode": 0.0}
    rows = 0
    clock = time.perf_counter
    for lo, hi in ranges:
        t0 = clock()
        rows += store.edges_in_range(lo, hi, with_payload=True).shape[0]
        t1 = clock()
        shape = shaping.shape_range(store, lo, hi, with_payload=True)
        t2 = clock()
        frame = protocol.encode_frame(protocol.result_frame(shape))
        t3 = clock()
        protocol.decode_body(frame[4:])  # past the 4-byte length prefix
        t4 = clock()
        totals["range"] += t1 - t0
        totals["shape"] += (t2 - t1) - (t1 - t0)
        totals["encode"] += t3 - t2
        totals["decode"] += t4 - t3
    per_krow = {name: value * 1e9 / rows for name, value in totals.items()}
    return {
        "store.range_us_per_krow": metric(per_krow["range"], "us"),
        "shaping.rows_json_us_per_krow": metric(per_krow["shape"], "us"),
        "protocol.encode_us_per_krow": metric(per_krow["encode"], "us"),
        "protocol.decode_us_per_krow": metric(per_krow["decode"], "us"),
    }


def _by_kind(passes: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """``{kind: {layer: [ms per traced request]}}`` over traced passes."""
    by_kind: Dict[str, Dict[str, List[float]]] = {}
    for p in passes:
        for kind, layers in p["layers"]:
            for name, value in layers.items():
                by_kind.setdefault(kind, {}).setdefault(name, []).append(
                    value)
    return by_kind


def _overhead_pct(passes: List[dict]) -> float:
    """Untraced over traced throughput, as a percentage above 1."""
    plain = [p["throughput"] for p in passes if not p["layers"]]
    traced = [p["throughput"] for p in passes if p["layers"]]
    return (common.median(plain) / common.median(traced) - 1.0) * 100.0


def _traced(workload: str, store_dir: Path, plan, expected, seed: int,
            counts: common.ExactCounts) -> dict:
    with _started(store_dir, plan) as (_, clients):
        # ABBA order: host drift cancels out of the tracing overhead.
        passes = [_traced_pass(clients, plan, expected, traced)
                  for traced in (False, True, True, False)]
    failures: List[str] = []
    metrics = {"obs.trace_overhead_pct": metric(_overhead_pct(passes), "%")}
    by_kind = _by_kind(passes)
    for kind, layers in by_kind.items():
        for name, prefix in (("client", "client.rtt_ms"),
                             ("server", "server.handle_ms"),
                             ("transport", "serve.transport_ms")):
            metrics[f"{prefix}.{kind}"] = metric(
                common.median(layers[name]), "ms")
    traced_requests = sum(len(layers["decode"]) for layers in by_kind.values())
    decode_ms = sum(sum(layers["decode"]) for layers in by_kind.values())
    metrics["store.decode_ms"] = metric(
        decode_ms / traced_requests * 1e3, "ms")

    stats = passes[0]["stats"]
    coalesced = stats["server"]["coalesced"]
    for op in ("degree", "neighbors"):
        batches = coalesced[op]["batches"]
        metrics[f"server.coalesce_batch_mean.{op}"] = metric(
            coalesced[op]["requests"] / batches if batches else 0, "ratio")
    hits = stats["store"]["cache_hits"]
    reads = stats["store"]["shard_reads"]
    metrics["store.cache_hit_ratio"] = metric(hits / (hits + reads), "ratio")
    metrics["store.resident_bytes"] = metric(
        stats["store"]["resident_bytes"], "B")
    metrics["serve.binary_bytes"] = metric(
        stats["server"]["binary"]["bytes"], "B")
    metrics["store.shards"] = metric(stats["store"]["n_shards"], "count")
    if workload == "scan":
        metrics.update(_replay_scan(store_dir, plan))
    else:
        # The router has no workload of its own (its end-to-end figures
        # spread too widely across runs): its layers are measured here, on
        # the lookup plan sent through ``serve --fleet``.
        with _started(store_dir, plan, fleet=True) as (_, clients):
            routed = [_traced_pass(clients, plan, expected, True)]
            # Concurrent requests coalesce at the router, so its worker
            # calls repeat exactly only over a single connection.
            routed += [_traced_pass(clients[:1], plan, expected, False)
                       for _ in range(2)]
        metrics.update(_router_layers(routed, len(plan), seed, counts,
                                      failures))
        passes += routed

    wrong = sum(p["wrong"] for p in passes)
    if wrong:
        failures.append(f"{wrong} wrong or failed answers")
    log(f"traced: {len(passes)} passes, overhead "
        f"{metrics['obs.trace_overhead_pct']['value']:.1f}%, "
        f"{wrong} wrong or failed")
    return {"attempted": len(plan) * len(passes), "failed": wrong,
            "failures": failures, "metrics": metrics}


def _router_layers(passes: List[dict], plan_length: int, seed: int,
                   counts: common.ExactCounts,
                   failures: List[str]) -> Dict[str, dict]:
    """Router metrics from a traced pass over two connections followed by
    two untraced single-connection passes."""
    metrics = {}
    by_kind = _by_kind(passes[:1])
    for kind in ROUTER_TRACED:
        metrics[f"router.fanout_ms.{kind}"] = metric(
            common.median(by_kind[kind]["fanout"]), "ms")
        metrics[f"router.self_ms.{kind}"] = metric(
            common.median(by_kind[kind]["router_self"]), "ms")
    calls = [p["worker_calls"] for p in passes[1:]]
    if len(set(calls)) != 1:
        failures.append(f"router worker calls differ between passes: {calls}")
    counts.check(f"lookup.{seed}.worker_calls", calls[0])
    metrics["router.worker_calls_per_request"] = metric(
        calls[0] / plan_length, "ratio")
    failovers = sum(s["failovers"] for p in passes
                    for s in p["stats"]["fleet"]["slices"])
    if failovers:
        failures.append(f"{failovers} fleet failovers")
    metrics["fleet.failovers"] = metric(failovers, "count")
    return metrics
