"""Benchmark runner: one workload per process, end-to-end or traced.

Run from the root of a checkout of the repository::

    python3 reprobench/run.py --workload route-batch --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload with nothing installed and prints the
end-to-end metrics, their times scaled to one reference host speed by
``gauge.HostGauge`` (the raw ones are in the record); ``--trace 1`` runs
the same inputs once untraced, then once with span wrappers and profilers
attached, and prints the per-layer metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (fingerprint, per-op samples, digests, counters) goes to
``reprobench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

#: environment the program reads, pinned so a shell export cannot switch
#: the kernel tier, meter budgets or turn on profiling output
PINNED_ENV = {"REPRO_KERNELS": "numpy", "REPRO_BUDGET": "off", "REPRO_PROFILE": ""}

#: End-to-end metrics that only some workloads measure (``Workload.measures``).
#: Every workload prints every metric, so one that does not measure a metric
#: prints a fixed placeholder instead, listed in its record under
#: ``placeholders``: ``op_p90_ms`` repeats ``op_p50_ms`` (a time must be a
#: measured value, and only serve runs enough ops, >= 128, for ten samples
#: beyond a p90), and the four quality metrics read 1.0.
OPTIONAL = ("op_p90_ms", "congestion", "stretch_mean", "sim_latency_p99_steps", "slo_attainment")

END_TO_END = {
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "congestion": "paths/edge",
    "stretch_mean": "ratio",
    "sim_latency_p99_steps": "steps",
    "slo_attainment": "ratio",
}

PER_LAYER = {
    "cache.misses": "count",
    "cache.cold_build_s": "s",
    "engine.sequence_s": "s",
    "engine.packets": "count",
    "engine.draw_s": "s",
    "engine.rng_values": "count",
    "kernels.assemble_s": "s",
    "kernels.decycle_s": "s",
    "engine.edges": "count",
    "engine.paths_decycled": "count",
    "kernels.decycled_ratio": "ratio",
    "pathset.edge_ids_s": "s",
    "pathset.edge_ids_mb": "MB",
    "metrics.congestion_s": "s",
    "metrics.stretch_s": "s",
    "select.torus_us_per_pkt": "us/pkt",
    "select.rect_us_per_pkt": "us/pkt",
    "route.select_loop_s": "s",
    "route.packets": "count",
    "online.arrivals_s": "s",
    "online.inject_s": "s",
    "online.inject_us_per_pkt": "us/pkt",
    "online.advance_s": "s",
    "online.other_s": "s",
    "online.injected": "count",
    "online.delivered": "count",
    "online.peak_backlog": "count",
    "admission.delayed_steps": "count",
    "service.request_ms": "ms",
    "service.worker_batch_ms": "ms",
    "service.batch_size": "count",
    "service.transport_ms": "ms",
    "service.queue_depth_max": "count",
    "service.stop_s": "s",
    "service.accept_threads_left": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: profiler counters that must repeat exactly between runs of one commit
EXACT_COUNTERS = (
    "engine.packets",
    "engine.rng_values",
    "engine.edges",
    "engine.paths_decycled",
    "route.packets",
    "online.injected",
    "online.delivered",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Pin the environment and import ``repro`` from this checkout's ``src``."""
    os.environ.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    return repro


def fingerprint() -> dict:
    import numpy
    import repro
    import repro.kernels

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "kernels_backend": repro.kernels.backend(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
class Run:
    """Samples and check results of one pass-based closed loop."""

    def __init__(self, workload):
        self.w = workload
        self.walls: list[float] = []
        #: (start, end) of each timed op, aligned with ``walls``
        self.spans: list[tuple[float, float]] = []
        self.packets_done = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: input index -> (digest, quality) of its first completed run
        self.first: dict[int, tuple[str, dict]] = {}
        self.digest_mismatches = 0
        #: process-cache misses inside timed ops: cold work a set-up left undone
        self.op_cache_misses = 0

    def one(self, i: int, tracer=None, timed=True) -> None:
        from repro import cache

        self.attempted += 1
        misses = cache.stats().misses
        span = tracer.open("op", str(i)) if tracer else None
        t0 = time.perf_counter()
        try:
            out = self.w.op(i)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return
        finally:
            wall = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        if timed:
            self.walls.append(wall)
            self.spans.append((t0, t0 + wall))
            self.op_cache_misses += cache.stats().misses - misses
        try:
            ok, digest, quality = self.w.check(i, out)
        except Exception:  # noqa: BLE001 - an output the check cannot read fails the op
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return
        if i in self.first:
            if self.first[i][0] != digest:
                ok = False
                self.digest_mismatches += 1
        else:
            self.first[i] = (digest, quality)
        if not ok:
            self.failed += 1
        elif timed:
            self.packets_done += self.w.packets_of(i)

    def loop(self, seconds: float, gauge, between=None) -> None:
        """Replay the input list in order until ``seconds`` have passed
        and the list has been run at least once; ``between()`` runs after
        each op, and ``gauge`` reads the host's speed when due before it,
        both outside the op's timing."""
        n = len(self.w.inputs)
        if self.w.warmup:
            self.one(0, timed=False)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < n or time.perf_counter() < deadline:
            gauge.read_if_due()
            self.one(i % n)
            if between is not None:
                between()
            i += 1
        gauge.read()


def timed_setup(w, blocks: int, gauge) -> list[tuple[float, float, float]]:
    """``blocks`` set-up samples ``(start, end, seconds)``, each the mean
    of ``w.setup_block`` back-to-back cold set-ups; every set-up starts
    from an empty cache, and ``gauge`` reads the host's speed just before
    and just after each block."""
    from repro import cache

    samples = []
    for _ in range(blocks):
        gc.collect()
        gauge.read()
        start = time.perf_counter()
        total = 0.0
        for _ in range(w.setup_block):
            cache.invalidate()
            t0 = time.perf_counter()
            w.setup()
            total += time.perf_counter() - t0
        samples.append((start, time.perf_counter(), total / w.setup_block))
        gauge.read()
    return samples


def quality_metrics(run: Run) -> dict:
    """The four quality metrics over the whole input list (first completions)."""
    import numpy as np

    q = [run.first[i][1] for i in sorted(run.first)]
    out = {}
    if q and "congestion_sum" in q[0]:
        out["congestion"] = sum(x["congestion_sum"] for x in q) / sum(x["problems"] for x in q)
        out["stretch_mean"] = sum(x["stretch_sum"] for x in q) / sum(x["packets"] for x in q)
    if q and "latencies" in q[0]:
        lat = np.concatenate([x["latencies"] for x in q])
        out["sim_latency_p99_steps"] = float(np.percentile(lat, 99, method="inverted_cdf"))
        out["slo_attainment"] = sum(x["met_deadline"] for x in q) / sum(x["injected"] for x in q)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (the serve worker; 0 for the workloads that start none)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def hygiene_failures(hygiene: dict) -> list[str]:
    return [k for k, v in hygiene.items() if k != "accept_threads" and v]


def end_to_end(run: Run, setup_samples, scale=lambda t0, t1: 1.0) -> tuple[dict, list[str]]:
    """The end-to-end metrics, in ``END_TO_END`` order, and the names of
    those printed as placeholders (see ``OPTIONAL``).  Each time sample
    taken from ``t0`` to ``t1`` is multiplied by ``scale(t0, t1)``."""
    walls = sorted(w * scale(*span) for w, span in zip(run.walls, run.spans))
    walls = walls or [0.0]  # no op returned: the run is failed anyway
    setup_scale = scale if run.w.scale_setup else lambda t0, t1: 1.0
    measured = {
        "setup_s": statistics.median(v * setup_scale(t0, t1) for t0, t1, v in setup_samples),
        "pkts_per_s": run.packets_done / sum(walls) if sum(walls) else 0.0,
        "op_p50_ms": 1e3 * statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (run.attempted - run.failed) / run.attempted if run.attempted else 0.0,
        **quality_metrics(run),
    }
    if "op_p90_ms" in run.w.measures:
        measured["op_p90_ms"] = 1e3 * statistics.quantiles(walls, n=10)[-1]
    placeholders = [k for k in OPTIONAL if k not in run.w.measures]
    for k in placeholders:
        measured[k] = measured["op_p50_ms"] if k == "op_p90_ms" else 1.0
    # a run whose every op failed has no quality figures; it fails anyway
    return {k: measured.get(k, 0.0) for k in END_TO_END}, placeholders


def per_layer(run_untraced: Run, run_traced: Run, tracer, prof, extra: dict) -> dict:
    """Per-layer metrics of one traced pass over the input list."""
    idx = tracer.index()
    inside = idx.under({"op", "reference"})

    def total(name, tag=None):
        sel = [s for s in inside if s.name == name and (tag is None or s.tag == tag)]
        return len(sel), sum(s.dur for s in sel)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    stages = {k: v.wall_s for k, v in prof.stages.items()}
    counters = dict(prof.counters)
    n_torus, t_torus = total("select_path", "torus")
    n_rect, t_rect = total("select_path", "rect")
    n_sim, t_sim = total("simulate_online")
    online_stages = sum(stages.get(k, 0.0) for k in ("online.arrivals", "online.inject", "online.advance"))
    quality = [q for _, q in run_traced.first.values()]
    svc = extra.get("service", {})
    n_client, t_client = total("client.route")
    request_ms = per(svc.get("request_s_total", 0.0), svc.get("requests", 0), 1e3)
    packets = counters.get("engine.packets", 0)
    return {
        "cache.misses": extra["cache_misses"],
        "cache.cold_build_s": extra["cache_cold_build_s"],
        "engine.sequence_s": stages.get("engine.sequence", 0.0),
        "engine.packets": packets,
        "engine.draw_s": stages.get("engine.draw", 0.0),
        "engine.rng_values": counters.get("engine.rng_values", 0),
        "kernels.assemble_s": total("kernels.assemble_paths")[1],
        "kernels.decycle_s": total("kernels.decycle_paths")[1],
        "engine.edges": counters.get("engine.edges", 0),
        "engine.paths_decycled": counters.get("engine.paths_decycled", 0),
        "kernels.decycled_ratio": per(counters.get("engine.paths_decycled", 0), packets),
        "pathset.edge_ids_s": total("pathset.edge_ids")[1],
        "pathset.edge_ids_mb": sum(s.built_bytes for s in inside) / 2**20,
        "metrics.congestion_s": sum(idx.self_time(s) for s in inside if s.name == "metrics.congestion"),
        "metrics.stretch_s": total("metrics.stretches")[1],
        "select.torus_us_per_pkt": per(t_torus, n_torus, 1e6),
        "select.rect_us_per_pkt": per(t_rect, n_rect, 1e6),
        "route.select_loop_s": stages.get("route.select_loop", 0.0),
        "route.packets": counters.get("route.packets", 0),
        "online.arrivals_s": stages.get("online.arrivals", 0.0),
        "online.inject_s": stages.get("online.inject", 0.0),
        "online.inject_us_per_pkt": per(stages.get("online.inject", 0.0), counters.get("online.injected", 0), 1e6),
        "online.advance_s": stages.get("online.advance", 0.0),
        "online.other_s": t_sim - online_stages if n_sim else 0.0,
        "online.injected": counters.get("online.injected", 0),
        "online.delivered": counters.get("online.delivered", 0),
        "online.peak_backlog": max((q.get("peak_backlog", 0) for q in quality), default=0),
        "admission.delayed_steps": counters.get("admission.delayed_steps", 0),
        "service.request_ms": request_ms,
        "service.worker_batch_ms": per(svc.get("worker_batch_s", 0.0), svc.get("worker_batches", 0), 1e3),
        "service.batch_size": per(svc.get("batch_size_total", 0.0), svc.get("batches", 0)),
        "service.transport_ms": per(t_client, n_client, 1e3) - request_ms if n_client else 0.0,
        "service.queue_depth_max": svc.get("queue_depth_max", 0),
        "service.stop_s": extra.get("stop_s", 0.0),
        "service.accept_threads_left": extra.get("accept_threads", 0),
        "trace.overhead_ratio": per(sum(run_traced.walls), sum(run_untraced.walls)),
        "trace.unattributed_s": sum(idx.self_time(s) for s in tracer.spans if s.name == "op"),
    }


#: server-side profiler series read from ``stats`` replies: metric -> (kind, name, key)
SERVICE_SERIES = {
    "requests": ("observations", "service.request_s", "count"),
    "request_s_total": ("observations", "service.request_s", "total"),
    "batches": ("observations", "service.batch_size", "count"),
    "batch_size_total": ("observations", "service.batch_size", "total"),
    "worker_batches": ("stages", "service.worker_batch", "calls"),
    "worker_batch_s": ("stages", "service.worker_batch", "wall_s"),
}


def service_window(acc: dict, before: dict, after: dict) -> None:
    """Add to ``acc`` what the server profiled between two ``stats`` replies."""

    def read(snap, kind, name, key):
        return snap["profile"][kind].get(name, {}).get(key, 0)

    for metric, series in SERVICE_SERIES.items():
        acc[metric] = acc.get(metric, 0) + read(after, *series) - read(before, *series)
    acc["queue_depth_max"] = read(after, "observations", "service.queue_depth", "max")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from gauge import HostGauge
    from workloads import WORKLOADS, Serve

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[name]
    os.makedirs(RESULTS, exist_ok=True)
    w = cls(seed, os.path.relpath(RESULTS)) if cls is Serve else cls(seed)
    gauge = HostGauge()
    setup_samples = timed_setup(w, w.setup_blocks_before, gauge)
    w.prepare()
    gc.collect()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    run = Run(w)
    if not trace:
        if w.setup_blocks_after:
            run.loop(seconds, gauge)
            setup_samples += timed_setup(w, w.setup_blocks_after, gauge)
        else:
            run.loop(seconds, gauge, between=lambda: setup_samples.extend(timed_setup(w, 1, gauge)))
        hygiene = w.close()
        metrics, record["placeholders"] = end_to_end(run, setup_samples, gauge.scale)
        record["raw_metrics"] = end_to_end(run, setup_samples)[0]
        record["gauge_readings"] = gauge.readings
        record["op_samples"] = len(run.walls)
        record["op_walls_s"] = run.walls
    else:
        metrics, hygiene, run, record["op_walls_s"], record["counters"] = traced(w, run, seed)
    record.update(
        metrics=metrics,
        units={k: (END_TO_END if not trace else PER_LAYER)[k] for k in metrics},
        setup_block=w.setup_block,
        setup_samples_s=setup_samples,
        op_cache_misses=run.op_cache_misses,
        attempted=run.attempted,
        failed=run.failed,
        digest_mismatches=run.digest_mismatches,
        digests=[run.first[i][0] for i in sorted(run.first)],
        output_packets=sum(w.packets_of(i) for i in sorted(run.first)),
        hygiene=hygiene,
        errors=run.errors,
        fingerprint=fingerprint(),
    )
    return record


def traced(w, run: Run, seed: int):
    """Per-layer metrics: a traced cold set-up, then each input run once
    untraced and once traced, back to back, so host drift cancels in
    ``trace.overhead_ratio``."""
    from repro import cache
    from repro.obs import Profiler
    from tracing import Tracer, install

    if w.warmup:
        run.one(0, timed=False)
    tracer = Tracer()
    prof = Profiler()
    untraced_run, traced_run = Run(w), Run(w)
    untraced_run.first = traced_run.first = run.first
    serving = hasattr(w, "server_stats")
    extra = {"service": {}}
    install(tracer)
    try:
        cache.invalidate()
        misses0 = cache.stats().misses
        setup_span = tracer.open("setup")
        w.setup_lanes()
        tracer.close(setup_span)
    finally:
        tracer.uninstall()
    idx = tracer.index()
    extra["cache_misses"] = cache.stats().misses - misses0
    extra["cache_cold_build_s"] = sum(
        s.dur
        for s in idx.under({"setup"})
        if s.name == "cache.build" and not idx.has_ancestor(s, "cache.build")
    )
    for i in range(len(w.inputs)):
        untraced_run.one(i)
        before = w.server_stats() if serving else None
        install(tracer)
        w.set_profiler(prof)
        try:
            traced_run.one(i, tracer)
        finally:
            w.set_profiler(None)
            tracer.uninstall()
        if serving:
            service_window(extra["service"], before, w.server_stats())
    if serving:
        # the worker's engine is out of reach: trace the same requests in-process
        install(tracer)
        w.set_profiler(prof)
        try:
            ref = tracer.open("reference")
            w.prepare()
            tracer.close(ref)
        finally:
            w.set_profiler(None)
            tracer.uninstall()
    hygiene = w.close()
    extra["stop_s"] = getattr(w, "stop_s", 0.0)
    extra["accept_threads"] = hygiene.get("accept_threads", 0)
    metrics = per_layer(untraced_run, traced_run, tracer, prof, extra)
    tracer.write(os.path.join(RESULTS, f"spans-{w.name}-seed{seed}-{os.getpid()}.jsonl"))
    counters = prof.snapshot()["counters"]
    total = Run(w)
    for part in (run, untraced_run, traced_run):
        total.attempted += part.attempted
        total.failed += part.failed
        total.errors += part.errors
        total.digest_mismatches += part.digest_mismatches
        total.op_cache_misses += part.op_cache_misses
    total.first = run.first
    walls = {"untraced": untraced_run.walls, "traced": traced_run.walls}
    return metrics, hygiene, total, walls, {k: counters.get(k, 0) for k in EXACT_COUNTERS}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"reprobench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import procs

    procs.become_subreaper()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        killed = procs.stop_all()
    # a child that had to be killed outlived the workload's own shutdown
    record["hygiene"]["processes_killed"] = killed
    for err in record["errors"][:3]:
        print(err, file=sys.stderr)
    bad = hygiene_failures(record["hygiene"])
    correct = record["failed"] == 0 and not bad and record["digest_mismatches"] == 0
    record["correct"] = correct
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for k, v in record["metrics"].items():
        print(f"{k:<28} {v:>14.6g} {record['units'][k]}")
    if bad:
        print(f"hygiene: left behind {bad}: {record['hygiene']}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": v, "unit": record["units"][k]} for k, v in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
