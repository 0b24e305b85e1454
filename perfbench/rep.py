"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD CONTEXT_SEED WORKDIR MODE OUT_JSON

MODE is ``timed`` (measure with tracing off), ``setup`` (stop after
set-up; only the set-up clock matters) or ``traced`` (install the layer
wrappers from :mod:`spans`, then measure). The result lands in OUT_JSON;
:mod:`run` launches repetitions and aggregates them. Set-up time is
measured by the launcher: from just before it starts this interpreter to
``timed_start_epoch`` below.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from run import host_steal_s  # noqa: E402
from repro.sched.events import (  # noqa: E402
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_STARTED,
)
from workloads import WORKLOADS  # noqa: E402

#: experiments whose wall the per-layer run reports by name
TIMED_EXPERIMENTS = ("table6", "policy_zoo", "resilience", "capacity",
                     "dramcache", "table1")


def _cpu_s() -> float:
    """User+sys CPU of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def _layer_metrics(rec, out, engine, t0, t1) -> dict:
    """The per-layer metrics of one traced repetition."""
    selfs = spans.self_time_by_name(rec.spans)
    counts = rec.counts

    def self_s(name):
        return selfs.get(name, 0.0)

    def count(name):
        return counts.get(name, 0)

    wall_s = (t1 - t0) / 1e9
    m = {
        "apps.execute_s": self_s("apps.execute"),
        "apps.refs": count("apps.refs"),
        "trace.append_s": self_s("trace.append"),
        "trace.close_s": self_s("trace.close"),
        "trace.chunks_written": count("trace.chunks_written"),
        "trace.bytes_written": count("trace.bytes_written"),
        "trace.fsync_count": count("trace.fsync_count"),
        "trace.fsync_s": self_s("trace.fsync"),
        "trace.read_batch_s": self_s("trace.read_batch"),
        "trace.verify_s": self_s("trace.verify"),
        "engine.record_self_s": self_s("engine.record"),
        "engine.replay_self_s": self_s("engine.replay"),
        "cachesim.process_batch_s": self_s("cachesim.process_batch"),
        "cachesim.refs_in": count("cachesim.refs_in"),
        "cachesim.refs_out": count("cachesim.refs_out"),
        "scavenger.consume_s": self_s("scavenger.consume"),
        "scavenger.analyze_self_s": self_s("scavenger.analyze"),
        "powersim.process_batch_s": self_s("powersim.process_batch"),
        "powersim.refs": count("powersim.refs"),
        "hybrid.pool_of_batch_s": self_s("hybrid.pool_of_batch"),
        "hybrid.pool_of_batch_calls": count("hybrid.pool_of_batch_calls"),
        "hybrid.dramcache_s": self_s("hybrid.dramcache"),
        "policies.evaluate_self_s": self_s("policies.evaluate"),
        "policies.cells": count("policies.cells"),
        "resilience.run_s": self_s("resilience.run"),
        "resilience.runs": count("resilience.runs"),
        "perfsim.s": self_s("perfsim"),
        "experiments.unattributed_s": self_s("experiments.run"),
        "sched.journal_appends": count("sched.journal_appends"),
        # inclusive of the journal's fsync: the time the coordinator is
        # blocked on the write-ahead log
        "sched.journal_append_s": sum(
            (s[spans.END] - s[spans.START]) / 1e9 for s in rec.spans
            if s[spans.NAME] == "sched.journal_append"),
        "bench.coverage_frac": spans.coverage(rec.spans, t0, t1),
    }
    for key in ("app_runs", "cache_hits", "replays", "chunks_verified",
                "chunks_decoded"):
        m[f"engine.{key}"] = engine[key]
    walls = {r.exp_id: r.timings.get("experiment_wall_s", 0.0)
             for r in out.get("results", ()) if getattr(r, "timings", None)}
    for exp_id in TIMED_EXPERIMENTS:
        m[f"experiments.{exp_id}_s"] = walls.get(exp_id, 0.0)
    events = [ev for _, ev in out.get("events", ())]
    finished = [ev for ev in events if ev.kind == TASK_FINISHED]
    task_s = sum(ev.wall_s or 0.0 for ev in finished)
    m["sched.tasks"] = len(finished)
    m["sched.retries"] = sum(1 for ev in events if ev.kind == TASK_RETRIED)
    m["sched.task_s"] = task_s
    m["sched.overhead_s"] = wall_s - task_s if events else 0.0
    return m


def _merge_workers(rec, out, dumps) -> list[int]:
    """Fold the scheduler into the coordinator's timeline: each task
    becomes a top-level ``sched.task`` span (start to finish event), and
    the spans its worker shipped back hang below it, so a task's self
    time is the coordinator's fork, IPC and bookkeeping around it.
    Returns the pid of every span."""
    pids = [os.getpid()] * len(rec.spans)
    started: dict[str, tuple[int, int]] = {}
    task_span: dict[int, int] = {}
    for t_ns, ev in out.get("events", ()):
        if ev.kind == TASK_STARTED:
            started[ev.task_id] = (t_ns, ev.pid)
        elif ev.kind == TASK_FINISHED and ev.task_id in started:
            t_start, pid = started.pop(ev.task_id)
            rec.add_span("sched.task", t_start, t_ns)
            pids.append(os.getpid())
            task_span[pid] = len(rec.spans) - 1
    for d in dumps:
        offset = len(rec.spans)
        for name, start, end, parent in d["spans"]:
            parent = (parent + offset if parent >= 0
                      else task_span.get(d["pid"], -1))
            rec.spans.append([name, start, end, parent])
            pids.append(d["pid"])
        rec.counts.update(d["counts"])
    return pids


def main(argv: list[str]) -> int:
    name, seed, workdir, mode, out_path = argv
    wl = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    state = wl.setup(workdir, int(seed))
    before = state["ctx"].engine.stats.snapshot()
    rec = inst = None
    span_dir = os.path.join(workdir, "spans")
    if mode == "traced":
        os.makedirs(span_dir, exist_ok=True)
        rec = spans.Recorder()
        inst = spans.install(rec, span_dir)
    gc.collect()
    steal0 = host_steal_s()
    report = {"timed_start_epoch": time.time(),
              "timed_start_steal_s": steal0}
    if mode != "setup":
        cpu0 = _cpu_s()
        t0 = time.perf_counter_ns()
        out = wl.timed(state)
        t1 = time.perf_counter_ns()
        cpu1 = _cpu_s()
        report["steal_s"] = host_steal_s() - steal0
        if inst is not None:
            inst.remove()
        engine = state["ctx"].engine.stats.delta(before)
        digests, invariants = wl.check(state, out, engine)
        report.update(
            wall_s=(t1 - t0) / 1e9,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=_peak_rss_mb(),
            digests=digests,
            invariants=invariants,
        )
        if rec is not None:
            dumps = []
            for fn in sorted(os.listdir(span_dir)):
                with open(os.path.join(span_dir, fn)) as fh:
                    dumps.append(json.load(fh))
            pids = _merge_workers(rec, out, dumps)
            report["layers"] = _layer_metrics(rec, out, engine, t0, t1)
            report["chrome"] = spans.chrome_trace(rec.spans, pids, t0)
            report["table"] = spans.self_time_table(rec.spans,
                                                    (t1 - t0) / 1e9)
    shutil.rmtree(os.path.join(workdir, "cache"), ignore_errors=True)
    shutil.rmtree(span_dir, ignore_errors=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
