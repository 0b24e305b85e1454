"""Worker-side task execution for the suite scheduler.

Everything here is **spawn-safe**: the entry points are module-level
functions, and every argument crossing the process boundary is picklable
(the :class:`WorkerConfig` dataclass, run specs, experiment ids). Under
the default ``fork`` start method on POSIX nothing needs pickling at
spawn time, but the same code runs unchanged under ``spawn``
(macOS/Windows defaults) — experiment callables are resolved from the
:data:`repro.experiments.runner.EXPERIMENTS` registry by id whenever
possible so the callable itself never has to cross the boundary.

Workers coordinate exclusively through the shared on-disk
:class:`~repro.engine.artifacts.ArtifactCache`: each opens its own
:class:`~repro.engine.PipelineEngine` on ``cache_root``, and the cache's
per-key ``flock`` guarantees a spec is executed once cluster-wide — a
worker losing the record race simply replays the winner's artifact.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.engine import PipelineEngine
from repro.engine.spec import RunSpec
from repro.errors import FencedOutError
from repro.resilience.harness import (
    ExperimentBudget,
    HardenedRunner,
    RetryPolicy,
)
from repro.sched.graph import RecordTask


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the suite context."""

    cache_root: str
    refs_per_iteration: int
    scale: float
    n_iterations: int
    seed: int
    apps: tuple[str, ...]
    self_heal: bool = True
    #: in-worker experiment retries (HardenedRunner semantics)
    retries: int = 1
    reseed_stride: int = 1000
    #: per-experiment wall budget inside the worker (None = unbounded)
    budget_s: float | None = None
    #: ChaosFS fault scenario installed on the worker's cache (soak and
    #: chaos tests; None = plain OsFS)
    chaos_scenario: str | None = None
    chaos_seed: int = 0


def _apply_cache_hooks(cache, cfg: WorkerConfig, fence=None) -> None:
    """Install the per-worker cache extras a task may carry: a ChaosFS
    fault scenario (soak/chaos runs) and a queue lease's fencing token
    (validated on every lock acquisition and artifact commit)."""
    if getattr(cfg, "chaos_scenario", None):
        from repro.engine.chaos import ChaosFS

        cache.fs = ChaosFS(scenario=cfg.chaos_scenario, seed=cfg.chaos_seed)
    if fence is not None:
        cache.fence = fence


def _worker_context(cfg: WorkerConfig, seed_offset: int = 0, fence=None):
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext(
        refs_per_iteration=cfg.refs_per_iteration,
        scale=cfg.scale,
        n_iterations=cfg.n_iterations,
        seed=cfg.seed + seed_offset,
        apps=cfg.apps,
        cache_dir=cfg.cache_root,
        self_heal=cfg.self_heal,
    )
    _apply_cache_hooks(ctx.engine.cache, cfg, fence)
    return ctx


def run_record_task(spec: RunSpec, cfg: WorkerConfig, fence=None) -> dict:
    """Record *spec* into the shared cache (idempotent: a loser of the
    cross-process race gets the winner's artifact as a cache hit).

    Failures are deferred, exactly like
    :meth:`~repro.experiments.common.ExperimentContext.prefetch`: the
    error is reported in the payload, and the experiment that actually
    needs the artifact will surface it under harness isolation.
    """
    engine = PipelineEngine(root=cfg.cache_root, self_heal=cfg.self_heal)
    _apply_cache_hooks(engine.cache, cfg, fence)
    before = engine.stats.snapshot()
    t0 = time.perf_counter()
    error = ""
    try:
        engine.record(spec)
    except Exception as exc:  # noqa: BLE001 — deferred to the experiment
        error = f"{type(exc).__name__}: {exc}"
        # a fenced-out recorder must not report success-shaped payloads:
        # re-raise so the caller (queue worker) can refuse the result
        if isinstance(exc, FencedOutError):
            raise
    return {
        "stats": engine.stats.delta(before),
        "wall_s": round(time.perf_counter() - t0, 6),
        "error": error,
    }


def run_experiment_task(
    exp_id: str,
    fn: Callable | None,
    cfg: WorkerConfig,
    seed_offset: int = 0,
    fence=None,
) -> dict:
    """Run one experiment in a fresh context against the shared cache.

    ``fn=None`` resolves the callable from the experiment registry by id
    (the spawn-safe path). ``seed_offset`` is non-zero only when the
    scheduler re-runs the task after a worker crash/timeout — the same
    deterministic reseed :class:`HardenedRunner` applies to in-process
    retries, so a re-scheduled experiment is reproducible, never random.
    """
    if fn is None:
        from repro.experiments.runner import EXPERIMENTS

        fn = EXPERIMENTS[exp_id]
    ctx = _worker_context(cfg, seed_offset, fence)
    runner = HardenedRunner(
        retry=RetryPolicy(retries=cfg.retries, reseed_stride=cfg.reseed_stride),
        budget=(ExperimentBudget(wall_s=cfg.budget_s)
                if cfg.budget_s is not None else None),
        strict=False,  # strictness is enforced suite-wide by the parent
    )
    before = ctx.engine.stats.snapshot()
    t0 = time.perf_counter()
    result = runner.run_one(exp_id, fn, ctx)
    return {
        "result": result,
        "stats": ctx.engine.stats.delta(before),
        "wall_s": round(time.perf_counter() - t0, 6),
    }


def run_task(task, cfg: WorkerConfig, seed_offset: int = 0,
             fn: Callable | None = None, fence=None) -> tuple[str, dict]:
    """Run one graph task in this process, for either transport.

    Returns ``("ok", payload)`` or ``("error", info)`` where *info*
    carries ``error_type``, ``message``, ``traceback_tail`` and
    ``pid``. Dispatch goes through this module's ``run_record_task`` /
    ``run_experiment_task`` globals, so a wrapper installed on them
    reaches every worker. A :class:`~repro.errors.FencedOutError`
    propagates: a fenced-out worker must publish nothing at all.
    """
    # a fence is passed only when there is one, so stand-ins with the
    # unfenced signature keep working on the process transport
    extra = {} if fence is None else {"fence": fence}
    try:
        if isinstance(task, RecordTask):
            return "ok", run_record_task(task.spec, cfg, **extra)
        return "ok", run_experiment_task(task.exp_id, fn, cfg, seed_offset,
                                         **extra)
    except FencedOutError:
        raise
    except BaseException as exc:  # noqa: BLE001 — reported, not raised
        return "error", error_info(exc)


def error_info(exc: BaseException) -> dict:
    """The structured report of a task that blew up in its worker;
    call from inside the ``except`` block that caught *exc*."""
    tb = traceback.format_exc().strip().splitlines()
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback_tail": "\n".join(tb[-3:]),
        "pid": os.getpid(),
    }


def set_worker_signals() -> None:
    """Worker-process signal setup shared by both transports.

    Workers ignore SIGINT: a terminal Ctrl-C delivers SIGINT to the
    whole foreground process group, and if workers died on it the
    coordinator's graceful drain would have nothing left to drain. The
    coordinator alone decides when a worker stops (SIGTERM via
    ``terminate()``, then SIGKILL; the queue's STOP file), so an
    interrupted suite journals every result that was about to land
    instead of losing all of them. A forked worker inherits the
    coordinator's drain handler for SIGTERM; the default is restored so
    ``terminate()`` actually terminates instead of setting a flag in
    the child.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass


def task_process_main(task, attempt: int, seed_offset: int,
                      cfg: WorkerConfig, result_q,
                      fn: Callable | None = None) -> None:
    """Entry point of one pool worker process: run the task, queue the
    result.

    A normally-exiting worker always enqueues exactly one message —
    ``(task_id, attempt, status, body)`` from :func:`run_task`; the
    attempt number lets the parent discard late messages from a
    superseded attempt. A worker that dies without enqueuing (SIGKILL,
    segfault, machine check) is detected by the parent through process
    liveness and handled as a crash.
    """
    set_worker_signals()
    status, body = run_task(task, cfg, seed_offset, fn)
    result_q.put((task.task_id, attempt, status, body))
