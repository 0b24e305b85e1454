"""Local process-pool transport for the experiment suite.

:class:`Scheduler` is the :class:`~repro.sched.core.Coordinator` bound
to a :class:`PoolExecutor`: up to ``jobs`` worker processes, one per
task attempt (cheap under the POSIX ``fork`` start method, spawn-safe
everywhere else), results back over a single multiprocessing queue.
Worker *death* — a crash, an OOM kill, an operator ``kill -9`` — is
detected through process liveness and reported as a lost attempt, which
the coordinator retries reseeded or fails; a worker past its wall-clock
allowance is killed when the coordinator cancels it. The write-ahead
journal, the graceful SIGINT/SIGTERM drain and dependency-skip
propagation are the coordinator's, shared with the queue transport.

Correctness does not depend on the scheduler's bookkeeping: workers
coordinate through the shared artifact cache's per-key ``flock``, so
even a mis-scheduled or retried record task executes its application at
most once cluster-wide — losers of the race replay the winner's
artifact as a cache hit.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import SchedulerError
from repro.sched.core import Coordinator, SchedulerOutcome
from repro.sched.graph import RecordTask, TaskGraph
from repro.sched.workers import WorkerConfig, task_process_main

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_SCHED_START"
#: How long to keep draining the result queue after a worker exits —
#: covers the window where the message is written but not yet readable.
_EXIT_DRAIN_S = 0.5
#: How long one poll blocks on the result queue.
_POLL_S = 0.05


def default_start_method() -> str:
    """``fork`` where available (fast, pickles nothing at spawn time),
    else the platform default; override with ``REPRO_SCHED_START``."""
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def stop_process(proc) -> None:
    """Terminate *proc*, then kill it if it ignores that."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=2.0)


class Scheduler(Coordinator):
    """Runs one task graph to completion on a bounded worker pool."""

    def __init__(
        self,
        graph: TaskGraph,
        cfg: WorkerConfig,
        *,
        jobs: int,
        exp_fns: Mapping[str, Callable | None] | None = None,
        start_method: str | None = None,
        **policy,
    ) -> None:
        """*policy* takes the :class:`~repro.sched.core.Coordinator`
        keywords (retries, reseed stride, timeout, journal, resume
        seeds, drain, signals, event callback)."""
        if jobs < 1:
            raise SchedulerError(f"jobs must be >= 1, got {jobs}")
        super().__init__(graph, jobs=jobs, **policy)
        self.cfg = cfg
        #: experiment id -> callable, or None to resolve from the
        #: registry inside the worker (the spawn-safe path)
        self.exp_fns = dict(exp_fns or {})
        self.start_method = start_method or default_start_method()

    def run(self) -> SchedulerOutcome:
        return self.drive(PoolExecutor(self))


@dataclass
class _Running:
    proc: multiprocessing.Process
    attempt: int


class PoolExecutor:
    """One forked worker process per attempt, at most ``jobs`` at once;
    results come back over one multiprocessing queue."""

    def __init__(self, sched: Scheduler) -> None:
        self.sched = sched
        self.slots = sched.jobs
        self.running: dict[str, _Running] = {}
        self.result_q = None

    def start(self, sink: Coordinator) -> None:
        self.sink = sink
        self.mp_ctx = multiprocessing.get_context(self.sched.start_method)
        self.result_q = self.mp_ctx.Queue()

    def submit(self, task_id: str, attempt: int, seed_offset: int) -> None:
        task = self.sched.graph.tasks[task_id]
        fn = (None if isinstance(task, RecordTask)
              else self.sched.exp_fns.get(task.exp_id))
        proc = self.mp_ctx.Process(
            target=task_process_main,
            args=(task, attempt, seed_offset, self.sched.cfg, self.result_q,
                  fn),
            daemon=True,
        )
        proc.start()
        self.running[task_id] = _Running(proc, attempt)
        self.sink.task_started(task_id, pid=proc.pid)

    def poll(self) -> None:
        """Block on the result queue for one interval, then reap workers
        that died without a result."""
        self._read_results(timeout=_POLL_S)
        for tid, st in list(self.running.items()):
            if tid not in self.running or st.proc.is_alive():
                continue
            # the result may still be in flight: give the queue one
            # bounded grace drain before declaring a crash
            deadline = time.monotonic() + _EXIT_DRAIN_S
            while tid in self.running and time.monotonic() < deadline:
                if not self._read_results(timeout=0.05):
                    break
            if tid not in self.running:
                continue  # its message arrived after all
            self.running.pop(tid)
            st.proc.join(timeout=1.0)
            self.sink.task_lost(
                tid, f"worker died (exitcode {st.proc.exitcode}) before "
                     f"reporting a result")

    def _read_results(self, timeout: float) -> int:
        """Deliver every available result message; returns how many."""
        handled = 0
        block = timeout
        while True:
            try:
                msg = self.result_q.get(timeout=block) if block else \
                    self.result_q.get_nowait()
            except queue_mod.Empty:
                return handled
            block = 0.0  # only the first get blocks
            task_id, attempt, status, body = msg
            st = self.running.get(task_id)
            if st is None or st.attempt != attempt:
                continue  # stale: a cancelled attempt's message arrived late
            self.running.pop(task_id)
            st.proc.join(timeout=_EXIT_DRAIN_S)
            self.sink.task_finished(task_id, status, body)
            handled += 1

    def cancel(self, task_id: str, reason: str) -> None:  # noqa: ARG002
        stop_process(self.running.pop(task_id).proc)

    def shutdown(self) -> None:
        for st in self.running.values():
            stop_process(st.proc)
        self.running.clear()
        if self.result_q is not None:
            self.result_q.close()
            self.result_q.cancel_join_thread()
