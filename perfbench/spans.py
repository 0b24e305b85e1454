"""Span recorder and layer wrappers for the traced benchmark run.

Nothing under ``src/`` knows about this module. :func:`install` replaces
the coarse public entry point of every layer (one call per batch, chunk,
experiment or simulation run, never one per memory access) with a
wrapper that records a span — name, start, end, parent — and, where the
layer does countable work, a counter. Spans stay in memory; the traced
repetition writes them out at the end as Chrome trace-event JSON and a
self-time table.

Self time is a span's duration minus the duration of its direct child
spans, so each layer's ``*_s`` metric is time spent in that layer's own
code. Counters are bumped only by the outermost span of a name, so a
subclass method calling its base's wrapped method counts once.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: Span layout (lists keep the JSON dump small): name, start_ns, end_ns,
#: parent index within the same process (-1 = top level).
NAME, START, END, PARENT = range(4)


class Recorder:
    """Spans and counters of one process. Single-threaded by design: the
    wrapped entry points all run on the main thread of their process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """A top-level span observed from outside (scheduler events)."""
        self.spans.append([name, start_ns, end_ns, -1])

    def nested(self, name: str) -> bool:
        """Whether the innermost open span's parent has the same name."""
        if len(self._stack) < 2:
            return False
        return self.spans[self._stack[-2]][NAME] == name

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# wrapper installation


def _wrap(rec: Recorder, orig, name: str, count=None):
    """*orig* wrapped in a span; ``count(counts, args, kwargs, result)``
    runs after an outermost call returns."""

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = orig(*args, **kwargs)
            if count is not None and not rec.nested(name):
                count(rec.counts, args, kwargs, result)
            return result
        finally:
            rec.end(idx)

    return wrapper


def _count_calls(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_app(counts, args, kwargs, result):
    # args = (app, rt); each record builds a fresh runtime, so the
    # emitted total after the call is this execution's reference count
    counts["apps.refs"] += int(args[1].refs_emitted)


def _count_chunk(counts, args, kwargs, result):
    writer, batch = args[0], args[1]
    if len(batch):
        counts["trace.chunks_written"] += 1
        counts["trace.bytes_written"] += writer._records[-1].stored_len


def _count_cache(counts, args, kwargs, result):
    counts["cachesim.refs_out"] += len(result)
    if len(args) > 1 and hasattr(args[1], "addr"):
        counts["cachesim.refs_in"] += len(args[1])


def _count_power(counts, args, kwargs, result):
    counts["powersim.refs"] += len(args[1])


def _method_hooks():
    """(class, method, span name, counter) for every wrapped method."""
    from repro.apps.base import ModelApp
    from repro.cachesim.hierarchy import CacheHierarchy
    from repro.engine.engine import PipelineEngine
    from repro.experiments.common import ExperimentContext
    from repro.hybrid.dramcache import DRAMCacheModel, HorizontalModel
    from repro.hybrid.pagemap import PageMap
    from repro.perfsim.prefetch import PrefetchAwareModel
    from repro.perfsim.rwmodel import ReadWriteCoreModel
    from repro.perfsim.simulator import PerformanceSimulator
    from repro.powersim.system import MemorySystem
    from repro.resilience.engine import CheckpointEngine
    from repro.resilience.harness import HardenedRunner
    from repro.sched.journal import RunJournal
    from repro.trace.chunked import ChunkedTraceReader, ChunkedTraceWriter
    from repro.trace.fsio import OsFS
    import repro.workloads.families  # noqa: F401 — registers subclasses

    hooks = []
    # every model application class that defines its own __call__
    todo, seen = [ModelApp], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if "__call__" in vars(cls):
            hooks.append((cls, "__call__", "apps.execute", _count_app))
    hooks += [
        (ChunkedTraceWriter, "append", "trace.append", _count_chunk),
        (ChunkedTraceWriter, "close", "trace.close", None),
        (OsFS, "fsync", "trace.fsync", _count_calls("trace.fsync_count")),
        (OsFS, "fsync_dir", "trace.fsync", _count_calls("trace.fsync_count")),
        (ChunkedTraceReader, "read_batch", "trace.read_batch", None),
        (ChunkedTraceReader, "verify_stored", "trace.verify", None),
        (PipelineEngine, "record", "engine.record", None),
        (PipelineEngine, "replay", "engine.replay", None),
        (PipelineEngine, "replay_window", "engine.replay", None),
        (ExperimentContext, "prefetch", "engine.prefetch", None),
        (ExperimentContext, "run", "scavenger.analyze", None),
        (CacheHierarchy, "process_batch", "cachesim.process_batch",
         _count_cache),
        (CacheHierarchy, "flush", "cachesim.process_batch", _count_cache),
        (MemorySystem, "process_batch", "powersim.process_batch",
         _count_power),
        (PageMap, "pool_of_batch", "hybrid.pool_of_batch",
         _count_calls("hybrid.pool_of_batch_calls")),
        (DRAMCacheModel, "run", "hybrid.dramcache", None),
        (HorizontalModel, "run", "hybrid.dramcache", None),
        (CheckpointEngine, "run", "resilience.run",
         _count_calls("resilience.runs")),
        (HardenedRunner, "run_one", "experiments.run", None),
        (RunJournal, "append", "sched.journal_append",
         _count_calls("sched.journal_appends")),
    ]
    for cls in (PerformanceSimulator, ReadWriteCoreModel, PrefetchAwareModel):
        for attr, val in vars(cls).items():
            if inspect.isfunction(val) and not attr.startswith("_"):
                hooks.append((cls, attr, "perfsim", None))
    return hooks


def _function_hooks():
    """(defining module, function, span name, counter) for wrapped
    module-level functions; every module that imported the function by
    name gets the wrapper too."""
    import repro.engine.engine
    import repro.perfsim.prefetch
    import repro.policies.eval

    return [
        # replay delivery into the probes: cache filter, NV-SCAVENGER
        # analyzers and any other consumer (decode is a child span)
        (repro.engine.engine, "replay_events", "scavenger.consume", None),
        (repro.policies.eval, "evaluate_policy", "policies.evaluate",
         _count_calls("policies.cells")),
        (repro.perfsim.prefetch, "estimate_prefetch_coverage", "perfsim",
         None),
    ]


class Installation:
    """Wrappers put in place by :func:`install`; ``remove()`` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def install(rec: Recorder, span_dir: str | None = None) -> Installation:
    """Wrap every layer entry point. With *span_dir*, scheduler worker
    processes (forked, so they inherit the wrappers) start from an empty
    recorder and dump their spans there before returning their result."""
    import repro.experiments.runner  # noqa: F401 — load every experiment

    inst = Installation()
    for cls, attr, name, count in _method_hooks():
        inst._set(cls, attr, _wrap(rec, vars(cls)[attr], name, count))
    for mod, attr, name, count in _function_hooks():
        orig = getattr(mod, attr)
        wrapped = _wrap(rec, orig, name, count)
        for m in list(sys.modules.values()):
            if (getattr(m, "__name__", "").startswith("repro")
                    and getattr(m, attr, None) is orig):
                inst._set(m, attr, wrapped)
    if span_dir is not None:
        import repro.sched.workers as workers

        for attr in ("run_record_task", "run_experiment_task"):
            inst._set(workers, attr,
                      _worker_entry(rec, getattr(workers, attr), span_dir))
    return inst


def _worker_entry(rec: Recorder, orig, span_dir: str):
    """Scheduler task entry that ships the worker's spans back through a
    file, written before the result is queued to the coordinator."""

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec.reset()
        idx = rec.begin("sched.worker_task")
        try:
            return orig(*args, **kwargs)
        finally:
            rec.end(idx)
            rec.dump(os.path.join(
                span_dir, f"spans-{os.getpid()}-{time.time_ns()}.json"))

    return wrapper


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns (duration minus direct children)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    """Summed self seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        totals[s[NAME]] += st / 1e9
    return dict(totals)


def coverage(spans: list[list], t0_ns: int, t1_ns: int) -> float:
    """Share of ``[t0, t1]`` under at least one top-level span."""
    covered, reach = 0, t0_ns
    for lo, hi in sorted((s[START], min(s[END], t1_ns))
                         for s in spans if s[PARENT] < 0):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / max(1, t1_ns - t0_ns)


def chrome_trace(spans: list[list], pids: list[int], t0_ns: int) -> dict:
    """Chrome trace-event JSON (Perfetto and chrome://tracing open it):
    one complete ("X") event per span, one track per process."""
    events = [{
        "name": s[NAME], "cat": s[NAME].split(".", 1)[0], "ph": "X",
        "pid": pid, "tid": pid,
        "ts": (s[START] - t0_ns) / 1e3, "dur": (s[END] - s[START]) / 1e3,
    } for s, pid in zip(spans, pids)]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(spans: list[list], wall_s: float) -> str:
    """Span names ranked by self time, with call counts."""
    calls = Counter(s[NAME] for s in spans)
    totals = self_time_by_name(spans)
    lines = [f"{'span':28s} {'calls':>8s} {'self (s)':>10s} {'% wall':>7s}"]
    for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:28s} {calls[name]:8d} {secs:10.3f} "
                     f"{100.0 * secs / wall_s if wall_s else 0.0:7.1f}")
    return "\n".join(lines)
