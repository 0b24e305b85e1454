"""Crash-consistent, filesystem-backed distributed work queue.

Any host that can see the artifact-cache filesystem can join a suite
run: the coordinator (:class:`QueueCoordinator`, behind
``run_suite_parallel(transport="queue")``) publishes the task graph and
per-task *ready files* under ``<cache-root>/runs/<run-id>/queue/``, and
worker agents (:class:`QueueWorker`, behind ``nvscavenger work``) claim
tasks, run them against the shared cache, and publish results — all
through ordinary files with the same durability discipline the cache
itself uses (tmp + fsync + atomic rename).

Layout under ``runs/<run-id>/queue/``::

    manifest.json            run header: serialized task graph, worker
                             config, lease TTL / heartbeat knobs
    tasks/<tid>.json         ready file: {task_id, epoch, attempt,
                             seed_offset} — present means claimable
    leases/<tid>.<e>.json    claim at epoch e: created with O_EXCL (the
                             atomic claim), rewritten by the holder's
                             heartbeat thread (mtime = liveness)
    fence/<tid>              durable minimum-valid fencing epoch
    results/<tid>.<e>.json   the epoch-e attempt's outcome payload
    STOP                     coordinator tells workers to exit

Lease protocol and the zombie problem:

* **claim** — ``O_EXCL``-create the epoch-named lease file; exactly one
  worker can win an epoch. The claim is validated against the fence
  *after* it lands, so a claim racing a revocation loses even though
  its ``O_EXCL`` succeeded.
* **heartbeat** — the holder atomically rewrites its lease file every
  ``heartbeat_s``; the coordinator treats a lease whose mtime is older
  than ``lease_ttl_s`` as dead. A worker on the coordinator's own host
  whose pid is gone is revoked immediately (no need to wait out the
  TTL).
* **revoke** — the coordinator bumps the task's fence file **before**
  republishing the task at ``epoch + 1``. Ordering is the whole
  protocol: once the fence moves, the old epoch's holder cannot take a
  key lock, commit an artifact, or publish a result, *no matter when it
  wakes up* — a SIGSTOPped zombie that thaws after its task was
  reassigned and finished is refused at every write path with
  :class:`~repro.errors.FencedOutError`.
* **retry** — the queue executor fences a lost attempt off, then hands
  the loss to the shared coordinator core (:mod:`repro.sched.core`),
  which retries with the deterministic reseed (``seed + attempt *
  reseed_stride``; record tasks never reseed because the spec *is*
  their cache key) or fails the task and dooms its transitive
  dependents — the same code path as the process transport.

Results stay bit-identical to a sequential ``jobs=1`` run under
arbitrary worker SIGKILLs for the same reason the process pool's do:
workers coordinate through the content-addressed cache (record tasks
are idempotent cluster-wide), results fold in deterministic graph
order, and only the coordinator-accepted epoch's payload is used.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import socket
import sys
import threading
import time
from dataclasses import asdict

from repro.engine.artifacts import QUEUE_DIR, QUEUE_LEASES_DIR
from repro.engine.locks import FencingToken, pid_alive, read_fence, write_fence
from repro.errors import FencedOutError, QueueError, SchedulerError
from repro.sched.core import Coordinator, SchedulerOutcome
from repro.sched.graph import TaskGraph
from repro.sched.journal import (
    decode_payload,
    encode_payload,
    run_dir,
)
from repro.sched.scheduler import default_start_method, stop_process
from repro.sched.workers import (
    WorkerConfig,
    error_info,
    run_task,
    set_worker_signals,
)
from repro.trace.fsio import OsFS

#: Queue sub-directories / files (leases dir name is shared with
#: ``engine gc``'s liveness probe via :mod:`repro.engine.artifacts`).
TASKS_DIR = "tasks"
LEASES_DIR = QUEUE_LEASES_DIR
FENCE_DIR = "fence"
RESULTS_DIR = "results"
MANIFEST_FILE = "manifest.json"
STOP_FILE = "STOP"

#: Exit code of a worker that was fenced out of its (only) task —
#: distinct from crash/usage codes so the fencing tests can assert the
#: zombie actually hit the fence rather than dying some other way.
EXIT_FENCED = 7

#: Default lease knobs (suite/CLI override them; tests shrink them).
DEFAULT_LEASE_TTL_S = 15.0
DEFAULT_POLL_S = 0.25


def safe_task_id(task_id: str) -> str:
    """A filesystem-safe, collision-free name for *task_id*.

    Task ids contain ``:`` (``record:cam``), which is legal on POSIX but
    hostile elsewhere; sanitize and suffix with a short content hash so
    two ids that sanitize identically still get distinct files."""
    clean = re.sub(r"[^A-Za-z0-9._-]", "_", task_id)[:80]
    return f"{clean}-{hashlib.sha256(task_id.encode()).hexdigest()[:8]}"


def _fsync_dir(path: str, fs: OsFS | None = None) -> None:
    (fs if fs is not None else OsFS()).fsync_dir(path)


def _atomic_json(path: str, payload: dict, fs: OsFS | None = None) -> None:
    """tmp + fsync + rename + dir fsync — a reader never sees a torn
    file, a crash leaves either the old content or the new."""
    fs = fs if fs is not None else OsFS()
    tmp = f"{path}.tmp.{os.getpid()}"
    with fs.open(tmp, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fs.fsync(fh)
    fs.replace(tmp, path)
    fs.fsync_dir(os.path.dirname(path))


def _read_json(path: str) -> dict | None:
    """Best-effort read of a queue file; None for missing/torn/garbage
    (atomic writes make torn content transient — the next poll sees it
    whole)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


# ----------------------------------------------------------------------
class WorkQueue:
    """Path layout + atomic file operations of one run's queue.

    Shared by the coordinator and every worker; holds no state beyond
    the paths, so any number of processes on any number of hosts can
    instantiate it against the same cache root.
    """

    def __init__(self, cache_root: str, run_id: str,
                 fs: OsFS | None = None) -> None:
        self.cache_root = os.fspath(cache_root)
        self.run_id = run_id
        self.fs = fs if fs is not None else OsFS()
        self.root = os.path.join(run_dir(self.cache_root, run_id), QUEUE_DIR)

    # -- paths ----------------------------------------------------------
    @property
    def tasks_dir(self) -> str:
        return os.path.join(self.root, TASKS_DIR)

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, LEASES_DIR)

    @property
    def fence_dir(self) -> str:
        return os.path.join(self.root, FENCE_DIR)

    @property
    def results_dir(self) -> str:
        return os.path.join(self.root, RESULTS_DIR)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)

    @property
    def stop_path(self) -> str:
        return os.path.join(self.root, STOP_FILE)

    def ready_path(self, task_id: str) -> str:
        return os.path.join(self.tasks_dir, safe_task_id(task_id) + ".json")

    def lease_path(self, task_id: str, epoch: int) -> str:
        return os.path.join(self.leases_dir,
                            f"{safe_task_id(task_id)}.{epoch}.json")

    def fence_path(self, task_id: str) -> str:
        return os.path.join(self.fence_dir, safe_task_id(task_id))

    def result_path(self, task_id: str, epoch: int) -> str:
        return os.path.join(self.results_dir,
                            f"{safe_task_id(task_id)}.{epoch}.json")

    def token(self, task_id: str, epoch: int, owner: str = "") -> FencingToken:
        return FencingToken(path=self.fence_path(task_id), epoch=epoch,
                            owner=owner)

    # -- setup ----------------------------------------------------------
    def init_dirs(self) -> None:
        for d in (self.tasks_dir, self.leases_dir, self.fence_dir,
                  self.results_dir):
            self.fs.makedirs(d)
        # fsync the whole new directory chain (queue root, run dir,
        # runs/, cache root): each level is only an entry in its parent,
        # and without these a crash could drop e.g. the results/ dir —
        # and every durably-published result in it — in one stroke
        self.fs.fsync_dir(self.root)
        level = os.path.dirname(self.root)           # runs/<run-id>
        for _ in range(2):                           # run dir, runs/
            self.fs.fsync_dir(level)
            level = os.path.dirname(level)
        self.fs.fsync_dir(self.cache_root)

    def write_manifest(self, payload: dict) -> None:
        self.init_dirs()
        _atomic_json(self.manifest_path, payload, fs=self.fs)

    def read_manifest(self) -> dict:
        if not os.path.isdir(self.root):
            raise QueueError(
                f"run {self.run_id!r} has no queue under {self.root} — "
                f"wrong --cache-dir/--run-id, or the coordinator never "
                f"published one (transport='queue')")
        manifest = _read_json(self.manifest_path)
        if manifest is None:
            raise QueueError(
                f"queue manifest missing or unreadable: {self.manifest_path}")
        for field in ("graph", "cfg", "run_id"):
            if field not in manifest:
                raise QueueError(
                    f"queue manifest {self.manifest_path} lacks "
                    f"{field!r} — written by an incompatible version?")
        return manifest

    # -- ready files ----------------------------------------------------
    def publish_ready(self, task_id: str, epoch: int, attempt: int,
                      seed_offset: int) -> None:
        _atomic_json(self.ready_path(task_id), {
            "task_id": task_id, "epoch": int(epoch),
            "attempt": int(attempt), "seed_offset": int(seed_offset),
        }, fs=self.fs)

    def clear_ready(self, task_id: str) -> None:
        try:
            os.unlink(self.ready_path(task_id))
        except OSError:
            pass

    def ready_entries(self) -> list[dict]:
        """Every parseable ready file, in sorted filename order (the
        deterministic claim order workers scan in)."""
        try:
            names = sorted(os.listdir(self.tasks_dir))
        except OSError:
            return []
        out = []
        for name in names:
            if not name.endswith(".json"):
                continue
            rec = _read_json(os.path.join(self.tasks_dir, name))
            if rec and "task_id" in rec and "epoch" in rec:
                out.append(rec)
        return out

    # -- leases ---------------------------------------------------------
    def try_claim(self, entry: dict, worker_id: str) -> dict | None:
        """Atomically claim *entry*'s task at its advertised epoch.

        Returns the lease record on success, None when someone else holds
        the epoch or the epoch is already fenced off. The fence is
        re-checked *after* the ``O_EXCL`` create lands: a revocation that
        raced us bumped the fence before republishing, so the late claim
        self-cancels instead of resurrecting a revoked epoch.
        """
        task_id, epoch = entry["task_id"], int(entry["epoch"])
        fence = self.fence_path(task_id)
        if epoch < read_fence(fence):
            return None
        rec = {
            "task_id": task_id, "epoch": epoch,
            "attempt": int(entry.get("attempt", 0)),
            "worker_id": worker_id, "pid": os.getpid(),
            "host": socket.gethostname(), "t": time.time(),
        }
        path = self.lease_path(task_id, epoch)
        try:
            fh = self.fs.open_excl(path)
        except OSError:
            return None  # FileExistsError: epoch already claimed
        try:
            with fh:
                json.dump(rec, fh, separators=(",", ":"))
                self.fs.fsync(fh)
            _fsync_dir(self.leases_dir, fs=self.fs)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if read_fence(fence) > epoch:
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return rec

    def heartbeat(self, lease: dict) -> None:
        """Refresh the holder's lease file (atomic rewrite; the file's
        mtime is the liveness signal). Epoch-named, so a zombie only
        ever touches its *own* obsolete file — never the new holder's."""
        rec = dict(lease, t=time.time())
        _atomic_json(self.lease_path(rec["task_id"], int(rec["epoch"])), rec,
                     fs=self.fs)

    def release(self, lease: dict) -> None:
        try:
            os.unlink(self.lease_path(lease["task_id"], int(lease["epoch"])))
        except OSError:
            pass

    # -- results --------------------------------------------------------
    def write_result(self, task_id: str, epoch: int, rec: dict) -> None:
        _atomic_json(self.result_path(task_id, epoch), rec, fs=self.fs)

    # -- stop -----------------------------------------------------------
    def stop(self) -> None:
        try:
            with open(self.stop_path, "w"):
                pass
        except OSError:
            pass

    def stopped(self) -> bool:
        return os.path.exists(self.stop_path)


# ----------------------------------------------------------------------
class QueueWorker:
    """One worker agent: claim ready tasks, run them, publish results.

    Runs anywhere the cache filesystem is mounted. Everything it needs —
    the task graph (specs included), fidelity knobs, lease TTL — comes
    from the queue manifest, so joining a run is just
    ``nvscavenger work --cache-dir D --run-id R``.
    """

    def __init__(
        self,
        cache_root: str,
        run_id: str,
        worker_id: str | None = None,
        poll_s: float = DEFAULT_POLL_S,
        heartbeat_s: float | None = None,
        max_tasks: int | None = None,
        chaos_scenario: str | None = None,
        chaos_seed: int | None = None,
    ) -> None:
        self.queue = WorkQueue(cache_root, run_id)
        manifest = self.queue.read_manifest()
        self.graph = TaskGraph.from_dict(manifest["graph"])
        cfg_fields = dict(manifest["cfg"])
        cfg_fields["apps"] = tuple(cfg_fields.get("apps", ()))
        if chaos_scenario is not None:
            cfg_fields["chaos_scenario"] = chaos_scenario
        if chaos_seed is not None:
            cfg_fields["chaos_seed"] = int(chaos_seed)
        self.cfg = WorkerConfig(**cfg_fields)
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.poll_s = float(poll_s)
        ttl = float(manifest.get("lease_ttl_s", DEFAULT_LEASE_TTL_S))
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, ttl / 4.0))
        self.max_tasks = max_tasks
        #: tasks completed / fenced by this worker (observability + exit
        #: code policy)
        self.completed = 0
        self.fenced = 0

    # ------------------------------------------------------------------
    def claim_next(self) -> tuple[dict, dict] | None:
        """Scan ready files in deterministic order and claim the first
        available task; returns ``(entry, lease)`` or None."""
        for entry in self.queue.ready_entries():
            if os.path.exists(self.queue.result_path(entry["task_id"],
                                                     int(entry["epoch"]))):
                continue  # ran already; the coordinator has yet to collect
            lease = self.queue.try_claim(entry, self.worker_id)
            if lease is not None:
                return entry, lease
        return None

    def _heartbeat_loop(self, lease: dict, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            try:
                self.queue.heartbeat(lease)
            except OSError:  # transient fs trouble: mtime just ages
                pass

    def run_claimed(self, entry: dict, lease: dict) -> str:
        """Execute one claimed task end-to-end; returns ``"ok"``,
        ``"error"``, or ``"fenced"``.

        The lease's fencing token is installed on the task's engine
        cache, so every lock acquisition and artifact commit the task
        performs is validated against the fence — being revoked
        mid-flight surfaces as :class:`~repro.errors.FencedOutError`
        and the worker publishes nothing.
        """
        task_id, epoch = entry["task_id"], int(entry["epoch"])
        attempt = int(entry.get("attempt", 0))
        seed_offset = int(entry.get("seed_offset", 0))
        token = self.queue.token(task_id, epoch, owner=self.worker_id)
        stop = threading.Event()
        hb = threading.Thread(target=self._heartbeat_loop,
                              args=(lease, stop), daemon=True)
        hb.start()
        t0 = time.perf_counter()
        try:
            task = self.graph.tasks.get(task_id)
            if task is None:
                raise QueueError(
                    f"queue advertised task {task_id!r} but the manifest "
                    f"graph has no such task")
            status, body = run_task(task, self.cfg, seed_offset, fence=token)
            if status == "ok":
                # the last line of defense: even a task that never
                # touched the cache must not publish a result for a
                # revoked epoch
                token.check(f"result publish for task {task_id}")
        except FencedOutError:
            status = "fenced"
            self.fenced += 1
        except QueueError as exc:
            status, body = "error", error_info(exc)
        finally:
            stop.set()
            hb.join(timeout=2.0)
        # fenced: publish nothing — the winner's epoch owns the result
        if status != "fenced":
            rec = {
                "task_id": task_id, "epoch": epoch, "attempt": attempt,
                "worker_id": self.worker_id, "status": status,
                "wall_s": round(time.perf_counter() - t0, 6),
            }
            if status == "ok":
                rec["payload"] = encode_payload(body)
                self.completed += 1
            else:
                rec["info"] = body
            self.queue.write_result(task_id, epoch, rec)
        self.queue.release(lease)
        return status

    # ------------------------------------------------------------------
    def run(self) -> int:
        """The worker main loop: claim-run-repeat until the coordinator
        writes STOP (exit 0) or ``max_tasks`` tasks ran. Exits
        :data:`EXIT_FENCED` when a bounded run (``--once``/``--max-tasks``)
        was fenced out of a task — the signal the fencing tests assert."""
        ran = 0
        while True:
            if self.queue.stopped():
                break
            if self.max_tasks is not None and ran >= self.max_tasks:
                break
            claimed = self.claim_next()
            if claimed is None:
                time.sleep(self.poll_s)
                continue
            self.run_claimed(*claimed)
            ran += 1
        if self.fenced and self.max_tasks is not None:
            return EXIT_FENCED
        return 0


def _local_worker_main(cache_root: str, run_id: str, worker_id: str,
                       poll_s: float) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    set_worker_signals()
    worker = QueueWorker(cache_root, run_id, worker_id=worker_id,
                         poll_s=poll_s)
    sys.exit(worker.run())


# ----------------------------------------------------------------------
class QueueCoordinator(Coordinator):
    """Drives one suite run over the filesystem queue.

    The :class:`~repro.sched.core.Coordinator` bound to a
    :class:`QueueExecutor`: publishes the manifest and ready files,
    optionally spawns ``jobs`` local worker processes (any number of
    remote ``nvscavenger work`` agents may join too), collects
    epoch-validated results, and revokes stale leases (heartbeat older
    than ``lease_ttl_s``, dead local pid, or past ``task_timeout_s``).
    Retry, dependency skips, journaling and the signal drain are the
    core's, so both transports produce the same
    :class:`~repro.sched.core.SchedulerOutcome` by construction.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cfg: WorkerConfig,
        *,
        cache_root: str,
        run_id: str,
        jobs: int,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float | None = None,
        poll_s: float = 0.1,
        worker_poll_s: float = DEFAULT_POLL_S,
        start_method: str | None = None,
        max_respawns: int = 64,
        stall_timeout_s: float | None = 60.0,
        **policy,
    ) -> None:
        """*policy* takes the :class:`~repro.sched.core.Coordinator`
        keywords, as for :class:`~repro.sched.scheduler.Scheduler`."""
        if jobs < 0:
            raise SchedulerError(
                f"queue transport needs jobs >= 0 (0 = no local workers, "
                f"remote agents only), got {jobs}")
        super().__init__(graph, jobs=jobs, **policy)
        self.cfg = cfg
        self.queue = WorkQueue(cache_root, run_id)
        self.run_id = run_id
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, self.lease_ttl_s / 4.0))
        self.poll_s = poll_s
        self.worker_poll_s = worker_poll_s
        self.start_method = start_method or default_start_method()
        self.max_respawns = max_respawns
        self.stall_timeout_s = stall_timeout_s

    def publish(self) -> None:
        """Write the manifest (graph + worker config + lease knobs) so
        workers anywhere can join. Idempotent."""
        cfg = asdict(self.cfg)
        cfg["apps"] = list(cfg["apps"])
        self.queue.write_manifest({
            "run_id": self.run_id,
            "fingerprint": self.graph.fingerprint(),
            "graph": self.graph.to_dict(),
            "cfg": cfg,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "reseed_stride": self.reseed_stride,
        })

    def run(self) -> SchedulerOutcome:
        self.publish()
        return self.drive(QueueExecutor(self))


class QueueExecutor:
    """Moves attempts through the queue files: ready file out, lease
    observed as the start, result file in — or a lost lease, fenced off
    before the coordinator may republish the task."""

    #: workers pull: every ready task is published at once
    slots = None

    def __init__(self, coord: QueueCoordinator) -> None:
        self.coord = coord
        self.queue = coord.queue
        self.journal = coord.journal
        self.host = socket.gethostname()
        #: task_id -> the attempt in flight: epoch, attempt, grant state
        self.published: dict[str, dict] = {}
        self.procs: list = []
        self.spawned = 0

    # -- local worker pool ---------------------------------------------
    def start(self, sink: Coordinator) -> None:
        self.sink = sink
        self.mp_ctx = multiprocessing.get_context(self.coord.start_method)
        for _ in range(self.coord.jobs):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        self.spawned += 1
        wid = f"local-{self.host}-{os.getpid()}-{self.spawned}"
        proc = self.mp_ctx.Process(
            target=_local_worker_main,
            args=(self.queue.cache_root, self.coord.run_id, wid,
                  self.coord.worker_poll_s),
            daemon=True,
        )
        proc.start()
        self.procs.append(proc)
        if self.journal is not None:
            self.journal.worker_joined(wid)

    def _respawn_budget_left(self) -> bool:
        return self.spawned < self.coord.jobs + self.coord.max_respawns

    def _maintain_pool(self) -> None:
        alive = [p for p in self.procs if p.is_alive()]
        dead = len(self.procs) - len(alive)
        self.procs[:] = alive
        for _ in range(dead):
            if len(self.procs) < self.coord.jobs and self._respawn_budget_left():
                self._spawn_worker()

    def _check_stall(self) -> None:
        if self.coord.jobs == 0 or self.coord.stall_timeout_s is None:
            return  # remote-only mode: waiting is the operator's choice
        if self.procs or self._respawn_budget_left():
            return  # _maintain_pool will respawn
        now = time.monotonic()
        unclaimed = [
            tid for tid, pub in self.published.items()
            if not pub["granted"]
            and now - pub["t_pub"] > self.coord.stall_timeout_s
        ]
        if unclaimed:
            raise SchedulerError(
                f"queue stalled: every local worker is dead, the respawn "
                f"budget ({self.coord.max_respawns}) is exhausted, and "
                f"{len(unclaimed)} published task(s) went unclaimed for "
                f"{self.coord.stall_timeout_s:.0f}s (first: {unclaimed[0]})")

    def shutdown(self) -> None:
        self.queue.stop()
        deadline = time.monotonic() + 2.0
        for p in self.procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self.procs:
            stop_process(p)

    # -- attempts --------------------------------------------------------
    def submit(self, task_id: str, attempt: int, seed_offset: int) -> None:
        # a lost attempt's fence was bumped before the coordinator heard
        # of the loss, so the retry publishes at the old epoch + 1
        epoch = max(read_fence(self.queue.fence_path(task_id)), 1)
        self.queue.publish_ready(task_id, epoch, attempt, seed_offset)
        self.published[task_id] = {
            "epoch": epoch, "attempt": attempt, "granted": False,
            "t_pub": time.monotonic(), "worker": "", "pid": None, "host": "",
        }

    def poll(self) -> None:
        self._observe_grants()
        handled = self._collect()
        self._check_leases()
        self._maintain_pool()
        self._check_stall()
        if not handled:
            time.sleep(self.coord.poll_s)

    def cancel(self, task_id: str, reason: str) -> None:
        self._revoke(task_id, reason)

    def _grant(self, tid: str, pub: dict) -> None:
        pub["granted"] = True
        self.queue.clear_ready(tid)
        if self.journal is not None:
            self.journal.lease_granted(tid, pub["worker"], pub["epoch"])
        self.sink.task_started(tid, pid=pub["pid"],
                               detail=f"lease -> {pub['worker']}")

    def _observe_grants(self) -> None:
        for tid, pub in list(self.published.items()):
            if pub["granted"]:
                continue
            rec = _read_json(self.queue.lease_path(tid, pub["epoch"]))
            if rec is None:
                continue
            pub.update(worker=str(rec.get("worker_id", "")),
                       pid=rec.get("pid"), host=str(rec.get("host", "")))
            self._grant(tid, pub)

    def _collect(self) -> int:
        handled = 0
        for tid, pub in list(self.published.items()):
            rec = _read_json(self.queue.result_path(tid, pub["epoch"]))
            if rec is None:
                continue
            handled += 1
            if rec.get("status") != "ok":
                self._fence_off(tid)
                self.sink.task_finished(tid, "error", rec.get("info") or {})
                continue
            try:
                payload = decode_payload(rec.get("payload", {}))
                if not isinstance(payload, dict):
                    raise TypeError(f"payload is {type(payload).__name__}")
            except Exception as exc:  # torn/garbled result: re-run
                self._fence_off(tid)
                self.sink.task_lost(tid,
                                    f"undecodable result payload: {exc}")
                continue
            if not pub["granted"]:
                # the worker claimed + finished between two polls;
                # backfill the start so streams stay paired
                pub["worker"] = str(rec.get("worker_id", ""))
                self._grant(tid, pub)
            del self.published[tid]
            self.sink.task_finished(tid, "ok", payload)
        return handled

    def _check_leases(self) -> None:
        now = time.time()
        for tid, pub in list(self.published.items()):
            if not pub["granted"]:
                continue
            try:
                age = now - os.stat(
                    self.queue.lease_path(tid, pub["epoch"])).st_mtime
            except OSError:
                # lease gone without a collected result: if the result
                # file exists the next _collect picks it up; otherwise
                # the worker vanished mid-release
                if os.path.exists(self.queue.result_path(tid, pub["epoch"])):
                    continue
                reason = "lease file vanished without a result"
            else:
                if age > self.coord.lease_ttl_s:
                    reason = (f"lease heartbeat stale ({age:.1f}s > "
                              f"TTL {self.coord.lease_ttl_s:.1f}s)")
                elif (pub["host"] == self.host and pub["pid"]
                        and not pid_alive(int(pub["pid"]))):
                    reason = f"worker pid {pub['pid']} died on {self.host}"
                else:
                    continue
            self._revoke(tid, reason)
            self.sink.task_lost(tid, reason)

    def _revoke(self, tid: str, reason: str) -> None:
        pub = self.published[tid]
        if self.journal is not None:
            self.journal.lease_revoked(tid, pub["worker"], pub["epoch"],
                                       reason)
        self._fence_off(tid)

    def _fence_off(self, tid: str) -> None:
        """This attempt is over without an accepted result. **Ordering
        matters**: the fence bump is durable before the coordinator can
        republish the task, so the old epoch's holder can never commit
        over its successor."""
        pub = self.published.pop(tid)
        write_fence(self.queue.fence_path(tid), pub["epoch"] + 1,
                    fs=self.queue.fs)
        self.queue.clear_ready(tid)
