"""repro.sched.core: the coordinator both suite transports share.

Driven here through an in-memory executor — no processes, no queue
files — so each policy rule is pinned in milliseconds:

* reseed offsets per attempt (record tasks 0, experiments
  ``attempt * reseed_stride``);
* retry, then permanent failure, with transitive skips naming the root
  cause;
* the exact event and journal sequence of a clean and a retried run;
* the task timeout, measured from the started notice;
* the interrupt drain: finishes journaled, no retries, ``run_interrupted``
  written, signal handlers restored;
* the stall error naming unmet dependencies.

Plus the queue side of the seam: a queue worker dispatches through the
``repro.sched.workers`` module globals, and a task a worker finishes
between two coordinator polls runs once.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.engine.spec import RunSpec
from repro.errors import SchedulerError
from repro.sched import journal as jn
from repro.sched.core import Coordinator
from repro.sched.events import (
    TASK_FAILED,
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_SKIPPED,
    TASK_STARTED,
)
from repro.sched.graph import ExperimentTask, RecordTask, TaskGraph
from repro.sched.journal import RunJournal, journal_path, read_journal
from repro.sched.queue import QueueCoordinator, QueueExecutor, QueueWorker
from repro.sched.workers import WorkerConfig

#: one fake poll's duration
TICK_S = 0.002


class FakeExecutor:
    """Plays a script per attempt, one step per poll.

    ``fates[(task_id, attempt)]`` is a list of steps: ``start``, ``ok``,
    ``error``, ``lost``, ``wait``, ``signal`` (raise SIGTERM in this
    process). An attempt with no script starts and succeeds; one whose
    script runs out stays in flight (a hang).
    """

    def __init__(self, fates=None, slots: int | None = 1) -> None:
        self.fates = fates or {}
        self.slots = slots
        self.submitted: list[tuple[str, int, int]] = []
        self.cancelled: list[str] = []
        self.live: dict[str, list[str]] = {}
        self.shut_down = False

    def start(self, sink) -> None:
        self.sink = sink

    def submit(self, task_id, attempt, seed_offset) -> None:
        self.submitted.append((task_id, attempt, seed_offset))
        self.live[task_id] = list(
            self.fates.get((task_id, attempt), ["start", "ok"]))

    def poll(self) -> None:
        time.sleep(TICK_S)
        for tid, steps in list(self.live.items()):
            if not steps:
                continue
            step = steps.pop(0)
            if step == "start":
                self.sink.task_started(tid, pid=4242)
            elif step == "ok":
                del self.live[tid]
                self.sink.task_finished(tid, "ok", {"wall_s": 0.5})
            elif step == "error":
                del self.live[tid]
                self.sink.task_finished(tid, "error", {
                    "error_type": "Boom", "message": "worker blew up"})
            elif step == "lost":
                del self.live[tid]
                self.sink.task_lost(tid, "worker vanished")
            elif step == "signal":
                signal.raise_signal(signal.SIGTERM)

    def cancel(self, task_id, reason) -> None:
        self.cancelled.append(task_id)
        del self.live[task_id]

    def shutdown(self) -> None:
        self.shut_down = True


def chain_graph() -> TaskGraph:
    """record:x -> exp:a -> exp:b -> exp:c"""
    return TaskGraph([
        RecordTask(task_id="record:x", name="x", spec=None),
        ExperimentTask(task_id="exp:a", exp_id="a", deps=("record:x",)),
        ExperimentTask(task_id="exp:b", exp_id="b", deps=("exp:a",)),
        ExperimentTask(task_id="exp:c", exp_id="c", deps=("exp:b",)),
    ])


def drive(graph, executor, tmp_path=None, **kw):
    journal = (RunJournal.open(str(tmp_path), "r", fsync=False)
               if tmp_path is not None else None)
    events = []
    outcome = Coordinator(graph, jobs=1, journal=journal,
                          on_event=events.append, **kw).drive(executor)
    kinds = None
    if journal is not None:
        journal.close()
        kinds = read_journal(journal_path(str(tmp_path), "r")).kinds()
    return outcome, [(ev.kind, ev.task_id) for ev in events], kinds


# ----------------------------------------------------------------------
class TestReseed:
    def test_offsets_per_attempt(self):
        graph = TaskGraph([
            RecordTask(task_id="record:x", name="x", spec=None),
            ExperimentTask(task_id="exp:a", exp_id="a"),
        ])
        fates = {(t, n): ["start", "lost"]
                 for t in ("record:x", "exp:a") for n in (0, 1)}
        ex = FakeExecutor(fates)
        outcome, _, _ = drive(graph, ex, max_task_retries=2,
                              reseed_stride=7)
        assert set(outcome.payloads) == {"record:x", "exp:a"}
        offsets = {}
        for tid, attempt, off in ex.submitted:
            offsets.setdefault(tid, []).append((attempt, off))
        assert offsets["record:x"] == [(0, 0), (1, 0), (2, 0)]
        assert offsets["exp:a"] == [(0, 0), (1, 7), (2, 14)]
        assert ex.shut_down


class TestRetryAndSkip:
    def test_retry_then_permanent_failure_skips_transitively(self, tmp_path):
        fates = {("exp:a", 0): ["start", "lost"],
                 ("exp:a", 1): ["start", "error"]}
        outcome, events, kinds = drive(chain_graph(), FakeExecutor(fates),
                                       tmp_path, max_task_retries=1)
        assert outcome.failures == {"exp:a": {
            "task_id": "exp:a", "attempts": 2,
            "reason": "Boom: worker blew up"}}
        assert set(outcome.skipped) == {"exp:b", "exp:c"}
        for info in outcome.skipped.values():
            assert info["root_cause"] == "exp:a"
            assert info["reason"] == "Boom: worker blew up"
        assert events == [
            (TASK_STARTED, "record:x"), (TASK_FINISHED, "record:x"),
            (TASK_STARTED, "exp:a"), (TASK_RETRIED, "exp:a"),
            (TASK_STARTED, "exp:a"), (TASK_FAILED, "exp:a"),
            (TASK_SKIPPED, "exp:b"), (TASK_SKIPPED, "exp:c"),
        ]
        assert kinds == [jn.TASK_STARTED, jn.TASK_FINISHED,
                         jn.TASK_STARTED, jn.TASK_STARTED, jn.TASK_FAILED,
                         jn.TASK_SKIPPED, jn.TASK_SKIPPED]
        rep = outcome.report
        assert (rep.n_retries, rep.n_failed, rep.n_skipped) == (1, 1, 2)

    def test_resumed_dependents_are_not_skipped(self):
        fates = {("exp:a", 0): ["start", "lost"]}
        outcome, _, _ = drive(
            chain_graph(), FakeExecutor(fates), max_task_retries=0,
            seed_done=["exp:c", "exp:gone"],
            seed_payloads={"exp:c": {"wall_s": 1.0}, "exp:b": {}})
        assert set(outcome.skipped) == {"exp:b"}
        assert outcome.payloads == {"record:x": {"wall_s": 0.5},
                                    "exp:c": {"wall_s": 1.0}}
        assert outcome.report.n_resumed == 1


class TestSequences:
    def test_clean_run(self, tmp_path):
        outcome, events, kinds = drive(chain_graph(), FakeExecutor(),
                                       tmp_path)
        order = ["record:x", "exp:a", "exp:b", "exp:c"]
        assert events == [(k, t) for t in order
                          for k in (TASK_STARTED, TASK_FINISHED)]
        assert kinds == [jn.TASK_STARTED, jn.TASK_FINISHED] * 4
        assert outcome.report.task_wall_s == {t: 0.5 for t in order}
        assert not outcome.report.interrupted

    def test_retried_run(self, tmp_path):
        fates = {("exp:b", 0): ["start", "wait", "lost"]}
        outcome, events, kinds = drive(chain_graph(), FakeExecutor(fates),
                                       tmp_path)
        assert [k for k, t in events if t == "exp:b"] == [
            TASK_STARTED, TASK_RETRIED, TASK_STARTED, TASK_FINISHED]
        assert kinds == [jn.TASK_STARTED, jn.TASK_FINISHED] * 2 + [
            jn.TASK_STARTED, jn.TASK_STARTED, jn.TASK_FINISHED,
            jn.TASK_STARTED, jn.TASK_FINISHED]
        assert outcome.report.n_retries == 1
        assert len(outcome.payloads) == 4


class TestTimeout:
    def test_measured_from_started_notice(self):
        graph = TaskGraph([ExperimentTask(task_id="exp:a", exp_id="a")])
        # queued far longer than the allowance, then quick once started
        fates = {("exp:a", 0): ["wait"] * 40 + ["start", "ok"]}
        ex = FakeExecutor(fates)
        outcome, events, _ = drive(graph, ex, task_timeout_s=0.03)
        assert ex.cancelled == []
        assert [k for k, _ in events] == [TASK_STARTED, TASK_FINISHED]

    def test_hung_attempt_cancelled_then_retried(self):
        graph = TaskGraph([ExperimentTask(task_id="exp:a", exp_id="a")])
        ex = FakeExecutor({("exp:a", 0): ["start"]})  # then hangs
        events = []
        outcome = Coordinator(graph, jobs=1, task_timeout_s=0.03,
                              on_event=events.append).drive(ex)
        assert ex.cancelled == ["exp:a"]
        assert [e.kind for e in events] == [
            TASK_STARTED, TASK_RETRIED, TASK_STARTED, TASK_FINISHED]
        retried = events[1]
        assert "wall-clock allowance" in retried.detail
        assert retried.wall_s >= 0.03
        assert "exp:a" in outcome.payloads


class TestInterruptDrain:
    def test_drain_journals_finishes_without_retrying(self, tmp_path):
        graph = TaskGraph([ExperimentTask(task_id=f"exp:{n}", exp_id=n)
                           for n in "abc"])
        fates = {("exp:a", 0): ["start", "signal", "ok"],
                 ("exp:b", 0): ["start", "wait", "lost"]}
        ex = FakeExecutor(fates, slots=2)
        before = signal.getsignal(signal.SIGTERM)
        outcome, events, kinds = drive(graph, ex, tmp_path,
                                       handle_signals=True,
                                       drain_grace_s=5.0)
        assert signal.getsignal(signal.SIGTERM) is before
        assert events == [(TASK_STARTED, "exp:a"), (TASK_STARTED, "exp:b"),
                          (TASK_FINISHED, "exp:a")]
        assert kinds == [jn.TASK_STARTED, jn.TASK_STARTED,
                         jn.TASK_FINISHED, jn.RUN_INTERRUPTED]
        # the lost attempt stays pending for the resumed run
        assert set(outcome.payloads) == {"exp:a"}
        assert not outcome.failures and not outcome.skipped
        assert [t for t, _, _ in ex.submitted] == ["exp:a", "exp:b"]
        rep = outcome.report
        assert rep.interrupted and rep.signum == signal.SIGTERM
        assert ex.shut_down

    def test_grace_expiry_leaves_hung_task_to_shutdown(self, tmp_path):
        graph = TaskGraph([ExperimentTask(task_id="exp:a", exp_id="a")])
        ex = FakeExecutor({("exp:a", 0): ["start", "signal"]})
        outcome, _, kinds = drive(graph, ex, tmp_path, handle_signals=True,
                                  drain_grace_s=0.02)
        assert kinds == [jn.TASK_STARTED, jn.RUN_INTERRUPTED]
        assert outcome.report.interrupted and not outcome.payloads
        assert ex.shut_down


class TestStall:
    def test_stall_message_names_unmet_dependencies(self):
        graph = chain_graph()
        graph.ready = lambda done, running: []
        ex = FakeExecutor()
        with pytest.raises(SchedulerError) as ei:
            Coordinator(graph, jobs=1).drive(ex)
        msg = str(ei.value)
        assert "4 pending task(s)" in msg
        assert "exp:a waits on [record:x]" in msg
        assert "record:x waits on []" in msg
        assert ex.shut_down


# ----------------------------------------------------------------------
class RecordingSink:
    """Stands in for the coordinator when an executor is driven alone."""

    def __init__(self) -> None:
        self.notices: list[tuple] = []

    def task_started(self, task_id, pid=None, detail="") -> None:
        self.notices.append(("started", task_id))

    def task_finished(self, task_id, status, body) -> None:
        self.notices.append(("finished", task_id, status))

    def task_lost(self, task_id, reason) -> None:
        self.notices.append(("lost", task_id))


@pytest.fixture
def one_record_queue(tmp_path, monkeypatch):
    """A published one-task queue whose record task is a counted stub
    patched onto ``repro.sched.workers.run_record_task``."""
    cache_root = str(tmp_path)
    spec = RunSpec(app="gtc", refs_per_iteration=1000, scale=1.0 / 256.0,
                   n_iterations=1, seed=0)
    graph = TaskGraph([RecordTask(task_id="record:gtc", name="gtc",
                                  spec=spec)])
    cfg = WorkerConfig(cache_root=cache_root, refs_per_iteration=1000,
                       scale=1.0 / 256.0, n_iterations=1, seed=0,
                       apps=("gtc",))
    coord = QueueCoordinator(graph, cfg, cache_root=cache_root, run_id="w",
                             jobs=0)
    coord.publish()
    calls = []

    def patched(spec, cfg, fence=None):
        calls.append((spec, fence.epoch))
        return {"stats": {}, "wall_s": 0.0, "error": "", "patched": True}

    monkeypatch.setattr("repro.sched.workers.run_record_task", patched)
    return coord, spec, calls


def test_queue_worker_dispatches_through_module_globals(one_record_queue):
    coord, spec, calls = one_record_queue
    coord.queue.publish_ready("record:gtc", epoch=1, attempt=0, seed_offset=0)
    worker = QueueWorker(coord.queue.cache_root, "w", worker_id="w1")
    claimed = worker.claim_next()
    assert claimed is not None
    assert worker.run_claimed(*claimed) == "ok"
    assert calls == [(spec, 1)]
    with open(coord.queue.result_path("record:gtc", 1)) as fh:
        result = json.load(fh)
    assert result["status"] == "ok"
    assert jn.decode_payload(result["payload"])["patched"] is True


def test_queue_task_finished_between_polls_runs_once(one_record_queue):
    """A worker that claims, finishes and releases its lease before the
    coordinator's next poll: the epoch is not claimable again, and the
    collect clears the ready file."""
    coord, _spec, calls = one_record_queue
    ex = QueueExecutor(coord)
    sink = RecordingSink()
    ex.start(sink)  # jobs=0: no local workers
    try:
        ex.submit("record:gtc", 0, 0)
        worker = QueueWorker(coord.queue.cache_root, "w", worker_id="w1")
        assert worker.run_claimed(*worker.claim_next()) == "ok"
        assert worker.claim_next() is None  # the epoch already has a result
        ex.poll()
    finally:
        ex.shutdown()
    assert sink.notices == [("started", "record:gtc"),
                            ("finished", "record:gtc", "ok")]
    assert os.listdir(coord.queue.tasks_dir) == []
    assert len(calls) == 1
