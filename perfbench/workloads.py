"""The benchmark's three workloads and their output digests.

Each workload turns a context seed into an
:class:`~repro.experiments.common.ExperimentContext` (the program sees
nothing else), builds its state in :func:`Workload.setup`, runs the timed
operation in :func:`Workload.timed`, and reports per-operation output
digests plus per-run invariants in :func:`Workload.check`. Digests are
sha256 over a canonical JSON form, so they repeat bit-for-bit across
processes, cache states and transports.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
from collections.abc import Mapping

import numpy as np

from repro.engine.spec import VARIANT_PREFIX
from repro.experiments.common import APP_ORDER, ExperimentContext, ExperimentResult
from repro.experiments.runner import EXPERIMENTS, artifact_names, run_all
from repro.sched.events import TASK_FINISHED, TASK_RETRIED
from repro.sched.journal import DONE_MARKER, run_dir
from repro.sched.suite import build_suite_graph

#: refs per iteration, scale, iterations: the default and the test fidelity
DEFAULT_FIDELITY = dict(refs_per_iteration=30_000, scale=1.0 / 64.0,
                        n_iterations=10)
TEST_FIDELITY = dict(refs_per_iteration=4000, scale=1.0 / 256.0,
                     n_iterations=4)

#: Context seeds with committed digests; a benchmark seed n runs context
#: seed ``n % N_CONTEXT_SEEDS``.
N_CONTEXT_SEEDS = 5

#: Journal run id of the suite-journaled workload.
RUN_ID = "perfbench"


def context_seed(seed: int) -> int:
    return seed % N_CONTEXT_SEEDS


# ---------------------------------------------------------------------------
# canonical digests


def canonical(obj):
    """JSON-ready form that is identical for equal values in any process."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(obj).tobytes()).hexdigest()}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, Mapping):
        pairs = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0]))
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(x) for x in obj), key=json.dumps)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(res) -> str:
    """An experiment's rows and text (timings excluded: they are wall
    clock); a failure row digests to a marker no oracle holds."""
    if not isinstance(res, ExperimentResult):
        return f"failure:{getattr(res, 'error_type', type(res).__name__)}"
    return digest({"exp_id": res.exp_id, "title": res.title,
                   "text": res.text, "rows": res.rows, "notes": res.notes})


def app_run_digest(run) -> str:
    """One analyzed spec: the full ScavengerResult, the cache filter's
    statistics and its filtered memory trace."""
    return digest({"result": run.result,
                   "cache_stats": run.cache_probe.stats(),
                   "memory_trace": [(b.addr, b.is_write, b.size, b.oid,
                                     b.iteration) for b in run.memory_trace],
                   "instructions": run.instructions})


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload (subclasses fill in the three steps)."""

    name = ""
    fidelity = DEFAULT_FIDELITY

    def context(self, workdir: str, seed: int) -> ExperimentContext:
        return ExperimentContext(seed=seed,
                                 cache_dir=os.path.join(workdir, "cache"),
                                 **self.fidelity)

    def setup(self, workdir: str, seed: int) -> dict:
        """Everything before the timed region; returns the state."""
        return {"ctx": self.context(workdir, seed)}

    def timed(self, state: dict) -> dict:
        """The timed operation; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, state: dict, out: dict, engine: dict
              ) -> tuple[dict[str, str], list[tuple[str, bool, str]]]:
        """``(digests by operation, [(invariant, held, detail)])``;
        *engine* is the timed region's EngineStats delta."""
        raise NotImplementedError


class Characterize(Workload):
    """Record and analyze the 4 paper apps plus their 4 input variants."""

    name = "characterize"
    specs = APP_ORDER + tuple(VARIANT_PREFIX + a for a in APP_ORDER)

    def timed(self, state):
        ctx = state["ctx"]
        return {"runs": {name: ctx.run(name) for name in self.specs}}

    def check(self, state, out, engine):
        digests = {name: app_run_digest(run)
                   for name, run in out["runs"].items()}
        n = len(self.specs)
        return digests, [
            ("app_runs", engine["app_runs"] == n,
             f"app_runs={engine['app_runs']}, want {n}"),
            ("cache_hits", engine["cache_hits"] == 0,
             f"cache_hits={engine['cache_hits']}, want 0"),
        ]


def suite_specs(ctx: ExperimentContext) -> list:
    """Every spec the inline suite replays: the declared artifacts plus
    the reduced-iteration specs the locality experiment asks for."""
    specs = [ctx.spec_for(n) for n in artifact_names(EXPERIMENTS, ctx.apps)]
    specs += [dataclasses.replace(ctx.spec_for(n),
                                  n_iterations=min(3, ctx.n_iterations))
              for n in ctx.apps]
    return specs


class SuiteWarm(Workload):
    """Default-fidelity inline suite against a cache filled in set-up."""

    name = "suite-warm"

    def setup(self, workdir, seed):
        fill = self.context(workdir, seed)
        for spec in suite_specs(fill):
            fill.engine.record(spec)
        # the timed suite gets a fresh engine over the warm cache
        return {"ctx": self.context(workdir, seed)}

    def timed(self, state):
        return {"results": run_all(state["ctx"], jobs=1)}

    def check(self, state, out, engine):
        digests = {r.exp_id: result_digest(r) for r in out["results"]}
        return digests, [
            ("app_runs", engine["app_runs"] == 0,
             f"timed app_runs={engine['app_runs']}, want 0"),
        ]


class SuiteJournaled(Workload):
    """Test-fidelity suite on a fresh cache through the journaled
    scheduler: one forked worker process per task, one at a time."""

    name = "suite-journaled"
    fidelity = TEST_FIDELITY

    def setup(self, workdir, seed):
        ctx = self.context(workdir, seed)
        graph = build_suite_graph(ctx, EXPERIMENTS)
        return {"ctx": ctx, "task_ids": list(graph.order)}

    def timed(self, state):
        events = []

        def on_event(ev):
            events.append((time.perf_counter_ns(), ev))

        results = run_all(state["ctx"], jobs=1, run_id=RUN_ID,
                          on_sched_event=on_event)
        return {"results": results, "events": events}

    def check(self, state, out, engine):
        digests = {r.exp_id: result_digest(r) for r in out["results"]}
        finished: dict[str, int] = {}
        retries = 0
        for _, ev in out["events"]:
            if ev.kind == TASK_FINISHED:
                finished[ev.task_id] = finished.get(ev.task_id, 0) + 1
            elif ev.kind == TASK_RETRIED:
                retries += 1
        want = state["task_ids"]
        once = all(finished.get(t) == 1 for t in want) and \
            len(finished) == len(want)
        done = os.path.exists(os.path.join(
            run_dir(state["ctx"].engine.cache.root, RUN_ID), DONE_MARKER))
        return digests, [
            ("task_finished_once", once,
             f"{len(finished)} task(s) finished, want each of "
             f"{len(want)} exactly once"),
            ("zero_retries", retries == 0, f"{retries} retry event(s)"),
            ("done_marker", done, "journal DONE marker present"),
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Characterize(), SuiteWarm(), SuiteJournaled())}
