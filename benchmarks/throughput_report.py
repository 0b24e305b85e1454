"""Emit BENCH_throughput.json: the PR's headline throughput numbers.

Measures, on the same inputs the pytest-benchmark suite uses:

* scalar :class:`ReferenceCacheHierarchy` vs vectorized
  :class:`CacheHierarchy` refs/sec (and their speedup, with a
  differential check that the two produce identical statistics);
* scalar :class:`ReferenceController` vs the two-phase
  :class:`MemoryController` refs/sec on one PCRAM batch, with a
  differential check that bank, rank and controller state match exactly;
* hybrid memory: the dict-backed :class:`ReferencePageMap` vs the
  slot-array :class:`PageMap` ``pool_of_batch`` refs/sec over a
  globals + heap page layout, and the per-access
  :class:`ReferenceDRAMCacheModel` vs the array :class:`DRAMCacheModel`,
  with hard differential checks (identical pools; ``==`` on the cache
  result, floats included);
* pipeline-engine ``record`` (live instrumented execution) vs ``replay``
  (cached artifact) refs/sec — the *cold* replay (v3 container mapped,
  CRC-swept, and decoded from disk) with its per-phase breakdown
  (``map`` / ``verify`` / ``decode`` / ``consume``), the *warm* replay
  (per-chunk decode memo), and a ``replay_window`` probe showing a 10%
  window decodes only the chunks it overlaps;
* experiment-suite wall-clock under the :mod:`repro.sched` scheduler,
  ``--jobs 1`` vs ``--jobs 4`` on an empty shared cache. The speedup is
  hardware-dependent: on a single-CPU runner the parallel run *loses*
  to process overhead, so the section records ``cpu_count`` alongside
  the wall-clocks and the differential check (jobs-independent results)
  is the hard assertion, not the speedup.
* ``policy_zoo`` sweep throughput: the 60-cell policy x workload x
  device x endurance-budget grid on a cold artifact cache (records the
  three workload traces) vs a warm one (replay-only; must execute zero
  workloads and reproduce the cold rows bit-identically).
* ``nvscavenger serve`` warm-path request rate: a real daemon on a
  loopback socket, one cold request to populate the cache, then timed
  sequential warm requests (``requests_per_s_warm`` — cache hit +
  digest + HTTP round trip per request). The differential check is that
  every warm response carries the cold request's exact digest.
* queue-transport wall-clock: a two-experiment slice of the suite run
  once at ``jobs=1`` and once over the filesystem work queue
  (``transport="queue"``, two leased workers, fencing epochs live),
  with the bit-identical differential check as the hard assertion, and
  the ``--jobs adaptive`` decision the queue run's journaled history
  produces afterwards (chosen pool size + human-readable reason).

Usage::

    PYTHONPATH=src python benchmarks/throughput_report.py [OUT.json]

CI uploads the resulting JSON as a build artifact so throughput is
tracked per commit.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.cachesim import (
    CacheHierarchy,
    ReferenceCacheHierarchy,
    TABLE2_CONFIG,
)
from repro.engine import PipelineEngine, RunSpec
from repro.hybrid import DRAMCacheModel, MemoryPool, PageMap
from repro.hybrid.reference import ReferenceDRAMCacheModel, ReferencePageMap
from repro.nvram import PCRAM
from repro.powersim import TABLE3_DEVICE, MemoryController
from repro.powersim.reference import ReferenceController
from repro.trace.record import RefBatch
from repro.util.rng import make_rng

N = 50_000
ROUNDS = 3
#: interleaved scalar/vectorized timing pairs of the cache section
CACHE_PAIRS = 11


def make_batch() -> RefBatch:
    rng = make_rng(3)
    return RefBatch(
        addr=rng.integers(0, 1 << 27, N, dtype=np.uint64),
        is_write=rng.random(N) < 0.3,
        size=np.full(N, 8, np.uint8),
        oid=rng.integers(0, 200, N, dtype=np.int32),
        iteration=1,
    )


def best_of(fn, rounds: int = ROUNDS) -> tuple[float, object]:
    """(best wall seconds, last return value) over *rounds* runs."""
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def cache_section() -> dict:
    batch = make_batch()

    def run(cls):
        h = cls(TABLE2_CONFIG)
        h.process_batch(batch)
        return h

    # Interleaved pairs, alternating which side runs first, and the
    # median of the per-pair ratios: a slow stretch of the host lands on
    # both sides of a pair instead of on one side's best-of.
    times: dict[type, list[float]] = {ReferenceCacheHierarchy: [],
                                      CacheHierarchy: []}
    last = {}
    for i in range(CACHE_PAIRS):
        for cls in (list(times) if i % 2 == 0 else list(times)[::-1]):
            t, last[cls] = best_of(lambda: run(cls), rounds=1)
            times[cls].append(t)
    t_scalar = np.array(times[ReferenceCacheHierarchy])
    t_vector = np.array(times[CacheHierarchy])
    h_scalar, h_vector = last[ReferenceCacheHierarchy], last[CacheHierarchy]
    identical = h_scalar.stats() == h_vector.stats()
    if not identical:
        raise SystemExit("differential check failed: stats diverge")
    return {
        "refs": N,
        "pairs": CACHE_PAIRS,
        "scalar_refs_per_s": round(N / float(np.median(t_scalar))),
        "vectorized_refs_per_s": round(N / float(np.median(t_vector))),
        "speedup": round(float(np.median(t_scalar / t_vector)), 2),
        "bit_identical_stats": identical,
    }


def _controller_state(ctl) -> tuple:
    banks = ctl.banks
    return (
        banks.open_row.tolist(), banks.busy_until.tolist(),
        banks.activations.tolist(), banks.dirty.tolist(),
        ctl.stats, [rank.activity for rank in ctl.ranks],
        ctl._now, ctl._prev_write,
    )


def power_controller_section() -> dict:
    batch = make_batch()

    def run(cls):
        ctl = cls(TABLE3_DEVICE, PCRAM)
        ctl.process_batch(batch)
        return ctl

    t_ref, ctl_ref = best_of(lambda: run(ReferenceController))
    t_vec, ctl_vec = best_of(lambda: run(MemoryController))
    identical = _controller_state(ctl_ref) == _controller_state(ctl_vec)
    if not identical:
        raise SystemExit("differential check failed: controller state diverges")
    return {
        "refs": N,
        "technology": PCRAM.name,
        "reference_refs_per_s": round(N / t_ref),
        "two_phase_refs_per_s": round(N / t_vec),
        "speedup": round(t_ref / t_vec, 2),
        "bit_identical": identical,
    }


#: (base, bytes, pool) of the page-map bench: a globals run and a heap
#: run 256 MiB above it (the layout the workloads' objects occupy), 2560
#: mapped pages in all
HYBRID_RANGES = (
    (0x40_0000, 2 << 20, MemoryPool.NVRAM),
    (0x40_0000 + (2 << 20), 1 << 20, MemoryPool.DRAM),
    (0x1040_0000, 6 << 20, MemoryPool.NVRAM),
    (0x1040_0000 + (6 << 20), 1 << 20, MemoryPool.DRAM),
)
#: DRAM-cache capacity of the hybrid bench; the batch's 128 MiB address
#: range dwarfs it, so the mix is miss-heavy (fills and writebacks)
HYBRID_DRAM_CACHE_BYTES = 1 << 20


def hybrid_section() -> dict:
    rng = make_rng(4)
    lo, hi = HYBRID_RANGES[0][0], HYBRID_RANGES[-1][0] + HYBRID_RANGES[-1][1]
    addrs = rng.integers(lo, hi, N, dtype=np.uint64)
    maps = []
    for cls in (ReferencePageMap, PageMap):
        pm = cls()
        for base, size, pool in HYBRID_RANGES:
            pm.assign_range(base, size, pool)
        maps.append(pm)
    t_ref_map, pools_ref = best_of(lambda: maps[0].pool_of_batch(addrs))
    t_map, pools = best_of(lambda: maps[1].pool_of_batch(addrs))

    batch = make_batch()

    def run_cache(cls):
        return cls(PCRAM, HYBRID_DRAM_CACHE_BYTES).run([batch])

    t_ref_cache, res_ref = best_of(lambda: run_cache(ReferenceDRAMCacheModel))
    t_cache, res = best_of(lambda: run_cache(DRAMCacheModel))
    identical = np.array_equal(pools_ref, pools) and res_ref == res
    if not identical:
        raise SystemExit("differential check failed: hybrid-memory results diverge")
    return {
        "refs": N,
        "mapped_pages": maps[1].mapped_pages,
        "pool_of_batch": {
            "reference_refs_per_s": round(N / t_ref_map),
            "array_refs_per_s": round(N / t_map),
            "speedup": round(t_ref_map / t_map, 2),
        },
        "dram_cache": {
            "capacity_bytes": HYBRID_DRAM_CACHE_BYTES,
            "technology": PCRAM.name,
            "hit_rate": round(res.hit_rate, 4),
            "reference_refs_per_s": round(N / t_ref_cache),
            "array_refs_per_s": round(N / t_cache),
            "speedup": round(t_ref_cache / t_cache, 2),
        },
        "bit_identical": identical,
    }


#: Refs per v3 chunk in the engine bench — small enough that a 10%
#: window spans only a few of the ~50 chunks the spec records.
ENGINE_CHUNK_REFS = 1_024
#: The windowed-replay bench decodes this fraction of the trace.
WINDOW_FRACTION = 0.10


def engine_section(tmp_root: str) -> dict:
    from repro.instrument.api import Probe

    spec = RunSpec(app="gtc", refs_per_iteration=10_000,
                   scale=1.0 / 256.0, n_iterations=5, seed=2)

    def run_record():
        # a fresh root per round so every round actually executes the app
        import tempfile

        eng = PipelineEngine(root=tempfile.mkdtemp(dir=tmp_root),
                             buffer_capacity=ENGINE_CHUNK_REFS)
        return eng, eng.record(spec)

    t_record, (_, art) = best_of(run_record)
    replay_root = tmp_root + "/replay-cache"
    PipelineEngine(root=replay_root,
                   buffer_capacity=ENGINE_CHUNK_REFS).record(spec)

    # replay into the no-op base Probe: the timings below then measure
    # the *engine's* phases, not a particular probe's consumption cost
    def run_cold_replay():
        # a fresh engine per round: mmap + verify + decode every time
        return PipelineEngine(root=replay_root).replay(spec, Probe())

    warm_eng = PipelineEngine(root=replay_root)
    warm_eng.replay(spec, Probe())  # populate the per-chunk decode memo

    def run_warm_replay():
        return warm_eng.replay(spec, Probe())

    t_cold, _ = best_of(run_cold_replay)
    t_warm, _ = best_of(run_warm_replay)
    refs = art.meta["refs"]

    # one fresh cold replay with its stage clocks read back: where the
    # cold path actually spends its time (map -> verify -> decode ->
    # consume; record/replay are the aggregate clocks above)
    phase_eng = PipelineEngine(root=replay_root)
    phase_eng.replay(spec, Probe())
    total_chunks = phase_eng.stats.chunks_decoded
    phases = {
        name: {
            "wall_s": round(st.wall_s, 6),
            "calls": st.calls,
            "refs_per_s": round(st.refs_per_s),
        }
        for name, st in phase_eng.stats.stages.items()
        if name in ("map", "verify", "decode", "consume")
    }

    # windowed replay: a WINDOW_FRACTION slice from the middle of the
    # stream must decode only the chunks the window overlaps
    win_eng = PipelineEngine(root=replay_root)
    window_refs = int(refs * WINDOW_FRACTION)
    win_eng.replay_window(spec, Probe(), refs // 2, window_refs)
    window_chunks = win_eng.stats.chunks_decoded
    chunk_fraction = window_chunks / total_chunks if total_chunks else 0.0
    if window_chunks and win_eng.stats.window_replays != 1:
        raise SystemExit("windowed replay did not report via engine stats")
    return {
        "refs": refs,
        "chunk_refs": ENGINE_CHUNK_REFS,
        "chunks": total_chunks,
        "live_record_refs_per_s": round(refs / t_record),
        "replay_refs_per_s": round(refs / t_cold),
        "replay_speedup_vs_record": round(t_record / t_cold, 2),
        "warm_replay_refs_per_s": round(refs / t_warm),
        "warm_replay_speedup_vs_record": round(t_record / t_warm, 2),
        "cold_replay_phases": phases,
        "replay_window": {
            "window_fraction": WINDOW_FRACTION,
            "window_refs": window_refs,
            "chunks_decoded": window_chunks,
            "chunks_decoded_fraction": round(chunk_fraction, 3),
            "chunks_verified": win_eng.stats.chunks_verified,
        },
    }


#: Suite fidelity for the scheduler benchmark — small enough to keep the
#: bench job fast, big enough that record/replay dominates process spawn.
SCHED_REFS = 4_000
SCHED_SCALE = 1.0 / 256.0
SCHED_ITERS = 4
SCHED_JOBS = 4


def _suite_run(tmp_root: str, jobs: int) -> tuple[float, list, object]:
    import tempfile

    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import run_all

    ctx = ExperimentContext(
        refs_per_iteration=SCHED_REFS, scale=SCHED_SCALE,
        n_iterations=SCHED_ITERS,
        cache_dir=tempfile.mkdtemp(dir=tmp_root),  # empty cache per run
    )
    t0 = time.perf_counter()
    results = run_all(ctx, jobs=jobs)
    return time.perf_counter() - t0, results, ctx


def scheduler_section(tmp_root: str) -> dict:
    import os

    t_seq, seq, seq_ctx = _suite_run(tmp_root, jobs=1)
    t_par, par, _ = _suite_run(tmp_root, jobs=SCHED_JOBS)
    identical = (
        [r.exp_id for r in seq] == [r.exp_id for r in par]
        and all(a.text == b.text and a.rows == b.rows and a.notes == b.notes
                for a, b in zip(seq, par))
    )
    if not identical:
        raise SystemExit(
            "differential check failed: jobs=1 and jobs="
            f"{SCHED_JOBS} suite results diverge")
    return {
        "experiments": len(seq),
        "refs_per_iteration": SCHED_REFS,
        "app_runs_jobs1": seq_ctx.engine.stats.app_runs,
        "cpu_count": os.cpu_count(),
        "jobs1_wall_s": round(t_seq, 3),
        f"jobs{SCHED_JOBS}_wall_s": round(t_par, 3),
        "speedup": round(t_seq / t_par, 2),
        "bit_identical_results": identical,
    }


#: Experiments in the queue-transport bench: a record-heavy table and a
#: figure sharing its artifacts, so the queue exercises both task kinds.
QUEUE_EXPERIMENTS = ("table1", "fig2")
QUEUE_JOBS = 2


def queue_section(tmp_root: str) -> dict:
    import tempfile

    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS, run_all
    from repro.sched.adaptive import adaptive_jobs
    from repro.sched.suite import run_suite_parallel

    exps = {k: EXPERIMENTS[k] for k in QUEUE_EXPERIMENTS}

    def ctx():
        return ExperimentContext(
            refs_per_iteration=SCHED_REFS, scale=SCHED_SCALE,
            n_iterations=SCHED_ITERS,
            cache_dir=tempfile.mkdtemp(dir=tmp_root))

    t0 = time.perf_counter()
    baseline = run_all(ctx(), experiments=exps, jobs=1)
    t_seq = time.perf_counter() - t0

    queue_ctx = ctx()
    t0 = time.perf_counter()
    results, report = run_suite_parallel(
        queue_ctx, exps, jobs=QUEUE_JOBS, transport="queue",
        lease_ttl_s=10.0, handle_signals=False)
    t_queue = time.perf_counter() - t0
    identical = (
        [r.exp_id for r in baseline] == [r.exp_id for r in results]
        and all(a.text == b.text and a.rows == b.rows and a.notes == b.notes
                for a, b in zip(baseline, results))
    )
    if not identical or report.n_failed:
        raise SystemExit(
            "differential check failed: queue-transport results diverge "
            f"from jobs=1 (n_failed={report.n_failed})")

    # what would --jobs adaptive do, given the history this run journaled?
    jobs, reason = adaptive_jobs(queue_ctx.engine.cache.root,
                                 width=len(exps))
    return {
        "experiments": list(QUEUE_EXPERIMENTS),
        "refs_per_iteration": SCHED_REFS,
        "jobs1_wall_s": round(t_seq, 3),
        f"queue_jobs{QUEUE_JOBS}_wall_s": round(t_queue, 3),
        "queue_overhead_vs_jobs1": round(t_queue / t_seq, 2),
        "bit_identical_results": identical,
        "adaptive": {"jobs": jobs, "reason": reason},
    }


def policy_zoo_section(tmp_root: str) -> dict:
    """Policy-sweep throughput: cells/sec on a cold vs warm artifact cache.

    The sweep's contract is that every cell is a pure function of a
    cached workload trace, so the warm run must execute zero workloads
    (``app_runs == 0``) and reproduce the cold run's rows bit-identically
    — that differential check is the hard assertion; the cells/sec
    numbers track how much the replay path costs.
    """
    import tempfile

    from repro.experiments import policy_zoo
    from repro.experiments.common import ExperimentContext

    cache_dir = tempfile.mkdtemp(dir=tmp_root)

    def ctx():
        return ExperimentContext(
            refs_per_iteration=SCHED_REFS, scale=SCHED_SCALE,
            n_iterations=SCHED_ITERS, apps=(), cache_dir=cache_dir)

    cold_ctx = ctx()
    t0 = time.perf_counter()
    cold = policy_zoo.run(cold_ctx)
    t_cold = time.perf_counter() - t0

    warm_ctx = ctx()
    t0 = time.perf_counter()
    warm = policy_zoo.run(warm_ctx)
    t_warm = time.perf_counter() - t0

    identical = warm.rows == cold.rows and warm.text == cold.text
    if not identical or warm_ctx.engine.stats.app_runs != 0:
        raise SystemExit(
            "differential check failed: warm policy sweep diverges from "
            f"cold (app_runs={warm_ctx.engine.stats.app_runs})")
    cells = len(cold.rows)
    return {
        "cells": cells,
        "workloads": list(policy_zoo.WORKLOADS),
        "policies": [name for name, _ in policy_zoo.POLICY_GRID],
        "refs_per_iteration": SCHED_REFS,
        "cold_wall_s": round(t_cold, 3),
        "warm_wall_s": round(t_warm, 3),
        "cells_per_s_cold": round(cells / t_cold, 1),
        "cells_per_s_warm": round(cells / t_warm, 1),
        "warm_app_runs": warm_ctx.engine.stats.app_runs,
        "bit_identical_rows": identical,
    }


#: Warm requests timed against the daemon (after one cold record).
SERVE_WARM_REQUESTS = 50


def service_section(tmp_root: str) -> dict:
    import http.client
    import os
    import signal
    import subprocess

    spec = {"app": "gtc", "refs_per_iteration": 2_000,
            "scale": 1.0 / 256.0, "n_iterations": 3}

    def post(host, port, payload):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request("POST", "/analyze", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    ready = os.path.join(tmp_root, "serve-ready")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--cache-dir", os.path.join(tmp_root, "serve-cache"),
         "--port", "0", "--ready-file", ready, "--grace", "3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(ready):
            if proc.poll() is not None:
                raise SystemExit(
                    f"serve bench daemon died:\n{proc.stdout.read()}")
            if time.monotonic() > deadline:
                raise SystemExit("serve bench daemon never became ready")
            time.sleep(0.05)
        host, port = open(ready).read().split()
        port = int(port)

        t0 = time.perf_counter()
        status, cold = post(host, port, spec)
        t_cold = time.perf_counter() - t0
        if status != 200 or not cold.get("ok"):
            raise SystemExit(f"serve bench cold request failed: {cold}")

        t0 = time.perf_counter()
        for _ in range(SERVE_WARM_REQUESTS):
            status, body = post(host, port, spec)
            if status != 200 or body["digest"] != cold["digest"]:
                raise SystemExit(
                    "differential check failed: warm response digest "
                    f"diverges from cold ({body})")
        t_warm = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    return {
        "warm_requests": SERVE_WARM_REQUESTS,
        "cold_request_s": round(t_cold, 3),
        "requests_per_s_warm": round(SERVE_WARM_REQUESTS / t_warm, 1),
        "digest_stable_across_requests": True,
    }


def main(argv: list[str] | None = None) -> int:
    import tempfile

    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "BENCH_throughput.json"
    with tempfile.TemporaryDirectory(prefix="bench-engine-") as tmp:
        report = {
            "cache_hierarchy": cache_section(),
            "power_controller": power_controller_section(),
            "hybrid": hybrid_section(),
            "engine": engine_section(tmp),
            "scheduler": scheduler_section(tmp),
            "queue": queue_section(tmp),
            "policy_zoo": policy_zoo_section(tmp),
            "service": service_section(tmp),
        }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out_path}")
    speedup = report["cache_hierarchy"]["speedup"]
    if speedup < 5.0:
        print(f"WARNING: vectorized speedup {speedup}x below the 5x target",
              file=sys.stderr)
    warm = report["engine"]["warm_replay_speedup_vs_record"]
    if warm < 5.0:
        print(f"WARNING: warm replay speedup {warm}x below the 5x target",
              file=sys.stderr)
    window = report["engine"]["replay_window"]
    if window["chunks_decoded_fraction"] > 0.15:
        print(
            f"WARNING: {WINDOW_FRACTION:.0%} window decoded "
            f"{window['chunks_decoded_fraction']:.1%} of chunks "
            f"(>15% target)", file=sys.stderr)
    sched = report["scheduler"]
    if sched["speedup"] < 2.0:
        print(
            f"WARNING: scheduler jobs={SCHED_JOBS} speedup "
            f"{sched['speedup']}x below the 2x target "
            f"(cpu_count={sched['cpu_count']}; expected on <4-core runners)",
            file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
