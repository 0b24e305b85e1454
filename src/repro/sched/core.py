"""Transport-independent coordinator for scheduled suite runs.

Both suite transports — the local process pool
(:class:`~repro.sched.scheduler.Scheduler`) and the filesystem work
queue (:class:`~repro.sched.queue.QueueCoordinator`) — are one
:class:`Coordinator` driving a different :class:`Executor`. The
coordinator owns every policy decision, so a task's fate never depends
on the transport: the ready set, attempts and the deterministic reseed,
retry-or-fail with dependency skips, the task timeout, every
:class:`SchedEvent` and its write-ahead journal entry, resume seeds
(``seed_done`` / ``seed_payloads`` from a previous run's journal), the
graceful SIGINT/SIGTERM drain, the stall error and the final
:class:`SchedulerReport`. An executor only moves attempts: it launches
them, reports when one starts, finishes or is lost, cancels one on
request, and shuts down.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol

from repro.errors import SchedulerError
from repro.sched.events import (
    TASK_FAILED,
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_SKIPPED,
    TASK_STARTED,
    EventLog,
    SchedEvent,
    SchedulerReport,
)
from repro.sched.graph import RecordTask, TaskGraph
from repro.sched.journal import RunJournal

#: Signals that trigger the graceful stop-submitting-and-drain path.
INTERRUPT_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@dataclass
class SchedulerOutcome:
    """Everything one scheduled run produced."""

    #: task_id -> worker payload of the successful attempt
    payloads: dict[str, dict] = field(default_factory=dict)
    #: task_id -> structured failure info (every retry exhausted)
    failures: dict[str, dict] = field(default_factory=dict)
    #: task_id -> skip info (never launched; a dependency hard-failed)
    skipped: dict[str, dict] = field(default_factory=dict)
    report: SchedulerReport | None = None

    @property
    def events(self) -> list[SchedEvent]:
        return self.report.events if self.report is not None else []


class Executor(Protocol):
    """What a transport does for the :class:`Coordinator`.

    Notices flow back through the coordinator's :meth:`~Coordinator.
    task_started`, :meth:`~Coordinator.task_finished` and
    :meth:`~Coordinator.task_lost`, each for the task's current attempt
    only (an executor drops late news from a superseded attempt). A
    task's started notice precedes its finished one; a lost notice may
    come with or without a start.
    """

    #: most attempts in flight at once (None: submit every ready task)
    slots: int | None

    def start(self, sink: "Coordinator") -> None:
        """Acquire resources; later notices go to *sink*."""

    def submit(self, task_id: str, attempt: int, seed_offset: int) -> None:
        """Launch one attempt of *task_id*."""

    def poll(self) -> None:
        """Wait briefly for progress and deliver every notice found."""

    def cancel(self, task_id: str, reason: str) -> None:
        """Stop *task_id*'s attempt; the coordinator treats it as lost."""

    def shutdown(self) -> None:
        """Stop whatever still runs and release every resource."""


@dataclass
class _Flight:
    attempt: int
    #: monotonic time of the started notice (None until it arrives)
    t_started: float | None = None
    pid: int | None = None


class Coordinator:
    """Runs one task graph to completion through an :class:`Executor`."""

    def __init__(
        self,
        graph: TaskGraph,
        *,
        jobs: int,
        max_task_retries: int = 1,
        reseed_stride: int = 1000,
        task_timeout_s: float | None = None,
        on_event: Callable[[SchedEvent], None] | None = None,
        journal: RunJournal | None = None,
        seed_done: Iterable[str] = (),
        seed_payloads: Mapping[str, dict] | None = None,
        drain_grace_s: float = 10.0,
        handle_signals: bool = False,
    ) -> None:
        self.graph = graph
        #: reported pool size (the executor sets the real bound)
        self.jobs = jobs
        self.max_task_retries = max_task_retries
        self.reseed_stride = reseed_stride
        self.task_timeout_s = task_timeout_s
        self.on_event = on_event
        self.journal = journal
        self.seed_done = {t for t in seed_done if t in graph.tasks}
        self.seed_payloads = {
            tid: p for tid, p in (seed_payloads or {}).items()
            if tid in self.seed_done
        }
        self.drain_grace_s = drain_grace_s
        self.handle_signals = handle_signals

    # ------------------------------------------------------------------
    def seed_offset(self, task_id: str, attempt: int) -> int:
        if isinstance(self.graph.tasks[task_id], RecordTask):
            return 0  # the spec is the cache key; reseeding would fork it
        return attempt * self.reseed_stride

    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        if self._signum is None:
            self._signum = signum
        else:
            self._force = True

    def _install_handlers(self) -> dict:
        """Install the drain handlers; returns what to restore."""
        previous: dict = {}
        if not self.handle_signals:
            return previous
        if threading.current_thread() is not threading.main_thread():
            return previous  # signal.signal only works on the main thread
        for sig in INTERRUPT_SIGNALS:
            try:
                previous[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover — platform
                pass
        return previous

    # ------------------------------------------------------------------
    def drive(self, executor: Executor) -> SchedulerOutcome:
        """Run the graph through *executor* until every task is done,
        failed or skipped, or an interrupt drain ends."""
        #: first interrupt signal delivered (None while undisturbed)
        self._signum: int | None = None
        #: second signal: cut the grace drain short
        self._force = False
        self._draining = False
        self.log = EventLog(self.on_event)
        self.outcome = SchedulerOutcome(payloads=dict(self.seed_payloads))
        self.done: set[str] = set(self.seed_done)
        self.inflight: dict[str, _Flight] = {}
        self.attempts: dict[str, int] = {}
        t_start = time.monotonic()
        previous_handlers = self._install_handlers()
        try:
            executor.start(self)
            while len(self.done) < len(self.graph) and self._signum is None:
                self._submit_ready(executor)
                if not self.inflight and self._signum is None:
                    raise SchedulerError(self._stall_message())
                executor.poll()
                self._expire(executor)
            if self._signum is not None:
                self._drain(executor)
        finally:
            for sig, handler in previous_handlers.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            executor.shutdown()
        self.outcome.report = SchedulerReport(
            jobs=self.jobs,
            wall_s=time.monotonic() - t_start,
            n_tasks=len(self.graph),
            n_records=len(self.graph.record_tasks),
            n_experiments=len(self.graph.experiment_tasks),
            n_retries=self.log.count(TASK_RETRIED),
            n_failed=len(self.outcome.failures),
            n_skipped=len(self.outcome.skipped),
            n_resumed=len(self.seed_done),
            interrupted=self._signum is not None,
            signum=self._signum,
            task_wall_s={
                tid: float(p.get("wall_s", 0.0))
                for tid, p in self.outcome.payloads.items()
            },
            events=self.log.events,
        )
        return self.outcome

    def _submit_ready(self, executor: Executor) -> None:
        for tid in self.graph.ready(self.done, self.inflight):
            if self._signum is not None or (
                    executor.slots is not None
                    and len(self.inflight) >= executor.slots):
                break
            attempt = self.attempts.get(tid, 0)
            self.inflight[tid] = _Flight(attempt)
            executor.submit(tid, attempt, self.seed_offset(tid, attempt))

    def _stall_message(self) -> str:
        """Diagnosable stall report: every pending task with the
        dependencies it is still waiting on."""
        pending = [t for t in self.graph.order if t not in self.done]
        waits = "; ".join(
            f"{tid} waits on "
            f"[{', '.join(self.graph.unmet_deps(tid, self.done))}]"
            for tid in pending
        )
        return (
            f"scheduler stalled with {len(pending)} pending task(s): {waits}"
        )

    def _expire(self, executor: Executor) -> None:
        """Cancel every attempt past ``task_timeout_s`` since it started."""
        if self.task_timeout_s is None:
            return
        now = time.monotonic()
        for tid, fl in list(self.inflight.items()):
            if (fl.t_started is not None
                    and now - fl.t_started > self.task_timeout_s):
                reason = (f"task exceeded {self.task_timeout_s:.1f}s "
                          f"wall-clock allowance; attempt cancelled")
                executor.cancel(tid, reason)
                self.task_lost(tid, reason)

    def _drain(self, executor: Executor) -> None:
        """Stop submitting; give started tasks ``drain_grace_s`` to
        finish (journaled normally), then leave the rest to the
        executor's shutdown. A second signal skips the grace period."""
        self._draining = True
        deadline = time.monotonic() + max(0.0, self.drain_grace_s)
        while (not self._force and time.monotonic() < deadline
               and any(fl.t_started is not None
                       for fl in self.inflight.values())):
            executor.poll()
        if self.journal is not None:
            self.journal.run_interrupted(int(self._signum or 0))

    # -- notices from the executor --------------------------------------
    def task_started(self, task_id: str, pid: int | None = None,
                     detail: str = "") -> None:
        fl = self.inflight[task_id]
        fl.t_started, fl.pid = time.monotonic(), pid
        self.log.emit(TASK_STARTED, task_id, attempt=fl.attempt, pid=pid,
                      detail=detail)
        if self.journal is not None:
            self.journal.task_started(task_id, fl.attempt)

    def task_finished(self, task_id: str, status: str, body: dict) -> None:
        """The attempt returned ``("ok", payload)`` or ``("error", info)``
        (:func:`repro.sched.workers.run_task`). An error is an
        infrastructure failure: experiment errors come back as
        ``ExperimentFailure`` payloads with status ``"ok"``."""
        if status != "ok":
            self.task_lost(task_id, f"{body.get('error_type', 'Error')}: "
                                    f"{body.get('message', '')}")
            return
        fl = self.inflight.pop(task_id)
        self.done.add(task_id)
        self.outcome.payloads[task_id] = body
        self.log.emit(TASK_FINISHED, task_id, attempt=fl.attempt, pid=fl.pid,
                      wall_s=round(float(body.get("wall_s", 0.0)), 6),
                      detail=body.get("error", ""))
        if self.journal is not None:
            self.journal.task_finished(task_id, fl.attempt, body)

    def task_lost(self, task_id: str, reason: str) -> None:
        """The attempt ended without a result: retry it reseeded, or fail
        it for good and skip its dependents. During an interrupt drain
        the task just stays pending for the resumed run."""
        fl = self.inflight.pop(task_id)
        if self._draining:
            return
        attempts = self.attempts[task_id] = fl.attempt + 1
        wall = (round(time.monotonic() - fl.t_started, 6)
                if fl.t_started is not None else None)
        if attempts <= self.max_task_retries:
            self.log.emit(TASK_RETRIED, task_id, attempt=fl.attempt,
                          pid=fl.pid, wall_s=wall, detail=reason)
            return  # pending again: _submit_ready relaunches it
        self.done.add(task_id)
        self.outcome.failures[task_id] = {
            "task_id": task_id, "attempts": attempts, "reason": reason,
        }
        self.log.emit(TASK_FAILED, task_id, attempt=fl.attempt, pid=fl.pid,
                      wall_s=wall, detail=reason)
        if self.journal is not None:
            self.journal.task_failed(task_id, attempts, reason)
        self._skip_dependents(task_id, reason)

    def _skip_dependents(self, task_id: str, reason: str) -> None:
        """Everything downstream of a permanent failure that has not
        already finished is doomed — report and journal it as skipped
        instead of launching it to fail against a missing artifact."""
        for tid in self.graph.transitive_dependents(task_id):
            if tid in self.done:
                continue
            self.done.add(tid)
            self.outcome.skipped[tid] = {
                "task_id": tid, "root_cause": task_id, "reason": reason,
            }
            self.log.emit(TASK_SKIPPED, tid,
                          detail=f"dependency {task_id} failed: {reason}")
            if self.journal is not None:
                self.journal.task_skipped(tid, task_id, reason)
