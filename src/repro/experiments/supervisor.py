"""Supervised worker processes: ``run_matrix``'s process executor.

``run_matrix`` runs its cells here whenever it needs processes
(``workers > 1`` or a ``cell_timeout``), importing this module only
then.  A :class:`WorkerSupervisor` keeps a small pool of *persistent*
worker processes for the call and supervises them:

* every worker runs a heartbeat thread beside the simulation; the
  supervisor declares a worker hung when heartbeats stop for longer
  than :data:`HEARTBEAT_TIMEOUT` — catching livelocks that never trip
  a wall-clock cell timeout — and SIGKILLs + replaces it;
* worker death (crash, OOM-kill, chaos SIGKILL) is observed directly
  via pipe EOF / process sentinel and the worker is respawned; the cell
  it was running is retried with backoff up to ``retries`` times, then
  recorded as a :class:`~repro.experiments.runner.CellFailure`;
* a worker doomed by a timeout or a silent heartbeat whose cell takes
  snapshots is first asked (SIGUSR1) to checkpoint and yield, so the
  retry resumes mid-cell.

Every cell it is given is attempted up to ``retries + 1`` times; none
is ever shed.

Chaos hooks (see :mod:`repro.experiments.faults`): ``kill-worker``
SIGKILLs the worker mid-cell; ``hb-delay`` stalls only the heartbeat
thread, so the supervisor must distinguish a hung worker from a slow
one by silence alone; ``corrupt-snapshot``/``truncate-snapshot`` damage
a checkpoint before a resume attempt reads it.  The cell-start faults
(``raise``/``crash``/``hang``/``slow``) fire inside the attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional

from ..common.errors import SnapshotPreempted
from ..snapshot import preemption
from . import faults
from .runner import CellFailure, CellTask, RunPolicy, run_cell


#: Seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 0.1
#: Heartbeat silence after which a busy worker is declared hung.
HEARTBEAT_TIMEOUT = 15.0
#: Seconds a doomed worker (hung heartbeat, cell timeout) gets to honor
#: a SIGUSR1 preemption request — checkpointing at the next snapshot
#: boundary — before the SIGKILL falls.
PREEMPT_GRACE = 3.0


# ----------------------------------------------------------------------
# Worker process side


def _heartbeat_loop(conn, send_lock, interval, state) -> None:
    """Beat until told to stop; a ``hb-delay`` chaos fault stalls us."""
    while not state["stop"]:
        stall = state.pop("stall", 0.0)
        if stall:
            # Chaos: go silent. The simulation keeps running; only the
            # supervisor's view of us freezes.
            time.sleep(stall)
        try:
            with send_lock:
                conn.send(("hb",))
        except (BrokenPipeError, OSError):
            return
        time.sleep(interval)


def _tamper_snapshot(path: str, config: str, mix: str, attempt: int) -> None:
    """Apply ``corrupt-snapshot``/``truncate-snapshot`` chaos to a cell's
    on-disk checkpoint before the resume attempt reads it.

    The loader's integrity checks must refuse the damaged file and the
    cell must restart cleanly from zero — these faults prove that a torn
    or bit-rotted checkpoint can only cost time, never correctness.
    """
    if not os.path.exists(path):
        return
    for how in ("corrupt", "truncate"):
        if faults.fault_for(f"{how}-snapshot", config, mix, attempt):
            faults.damage(path, how)
            return


def _worker_main(conn, supervisor_conn, heartbeat_interval: float) -> None:
    """Persistent worker: heartbeat thread + one cell at a time."""
    # Forked workers inherit the supervisor's end of the pipe; close our
    # copy so an abruptly dead supervisor (os._exit) EOFs us — otherwise
    # our own inherited write end keeps recv() blocked forever and the
    # orphaned worker never exits.
    supervisor_conn.close()
    # SIGUSR1 from the supervisor asks us to checkpoint at the next
    # snapshot boundary and yield the cell (graceful preemption).
    preemption.install_handler()
    send_lock = threading.Lock()
    state: dict = {"stop": False}
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, send_lock, heartbeat_interval, state),
        daemon=True,
    )
    beater.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            assert message[0] == "run"
            task: CellTask = message[1]
            cell = (task.config.name, task.mix_name, task.attempt)
            preemption.clear()  # a stale request must not abort this cell
            delay = faults.fault_for("hb-delay", *cell)
            if delay is not None:
                state["stall"] = delay.seconds
            killer = faults.fault_for("kill-worker", *cell)
            if killer is not None:
                # Chaos: die like a segfault, `seconds` into the cell.
                timer = threading.Timer(
                    killer.seconds,
                    lambda: os.kill(os.getpid(), signal.SIGKILL),
                )
                timer.daemon = True
                timer.start()
            if task.snapshot is not None:
                _tamper_snapshot(task.snapshot.path, *cell)
            try:
                result = run_cell(task)
            except SnapshotPreempted as exc:
                # The checkpoint is durably on disk; the supervisor will
                # reschedule the cell to resume from it.
                reply = ("preempted", exc.path, exc.cycle)
            except Exception as exc:
                reply = (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            else:
                reply = ("result", result)
            try:
                with send_lock:
                    conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    finally:
        state["stop"] = True


# ----------------------------------------------------------------------
# Supervisor side


@dataclass
class _Worker:
    process: "multiprocessing.process.BaseProcess"
    conn: "multiprocessing.connection.Connection"
    busy: Optional[CellTask] = None
    started: float = 0.0
    last_heartbeat: float = field(default_factory=time.monotonic)


class WorkerSupervisor:
    """Runs cell tasks on up to ``workers`` supervised persistent workers.

    ``policy`` supplies the cell timeout and the retry/backoff budget.
    """

    def __init__(self, policy: RunPolicy, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if HEARTBEAT_TIMEOUT <= HEARTBEAT_INTERVAL:
            raise ValueError(
                "HEARTBEAT_TIMEOUT must exceed HEARTBEAT_INTERVAL "
                f"({HEARTBEAT_TIMEOUT} <= {HEARTBEAT_INTERVAL})"
            )
        self.policy = policy
        self.max_workers = workers
        self._ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self.stats: Dict[str, int] = {
            "workers_started": 0,
            "workers_crashed": 0,
            "workers_hung_killed": 0,
            "workers_preempted": 0,
            "cells_retried": 0,
            "cells_timed_out": 0,
            "cells_preempted": 0,
        }

    # -- pool management -------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, HEARTBEAT_INTERVAL),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        self._workers.append(worker)
        self.stats["workers_started"] += 1
        return worker

    def _discard_worker(self, worker: _Worker, kill: bool = False) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.kill()
            worker.process.join()

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (exposed for external chaos/tests)."""
        return [
            w.process.pid
            for w in self._workers
            if w.process.is_alive() and w.process.pid is not None
        ]

    def shutdown(self) -> None:
        """Stop every worker: idle ones are told to exit, busy ones —
        left over when an exception cut :meth:`run` short — are killed."""
        for worker in list(self._workers):
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._discard_worker(worker, kill=worker.busy is not None)

    # -- execution -------------------------------------------------------

    def run(
        self,
        tasks: List[CellTask],
        on_result: Callable[[CellTask, object], None],
        on_failure: Callable[[CellTask, CellFailure], None],
    ) -> None:
        """Drive ``tasks`` to completion, invoking callbacks as cells land.

        Callbacks run in this thread, between supervision steps, so they
        may journal without locking against the supervisor.
        """
        policy = self.policy
        pending: List[CellTask] = list(tasks)

        while pending or any(w.busy is not None for w in self._workers):
            now = time.monotonic()

            # Assign ready tasks to idle workers (spawning up to the cap).
            ready = sorted(
                (t for t in pending if t.ready_at <= now),
                key=lambda t: t.ready_at,
            )
            for task in ready:
                worker = next(
                    (w for w in self._workers if w.busy is None), None
                )
                if worker is None:
                    if len(self._workers) >= self.max_workers:
                        break
                    worker = self._spawn_worker()
                pending.remove(task)
                try:
                    worker.conn.send(("run", task))
                except (BrokenPipeError, OSError):
                    # Died between cells: replace it, task goes back.
                    self.stats["workers_crashed"] += 1
                    self._discard_worker(worker, kill=True)
                    pending.append(task)
                    continue
                worker.busy = task
                worker.started = now
                worker.last_heartbeat = now

            busy = [w for w in self._workers if w.busy is not None]
            if not busy:
                if not pending:
                    break
                delay = min(t.ready_at for t in pending) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, 0.5))
                continue

            # Sleep until the earliest of: message, heartbeat deadline,
            # cell timeout, or a backoff window expiring.
            deadlines = [
                w.last_heartbeat + HEARTBEAT_TIMEOUT for w in busy
            ]
            if policy.cell_timeout is not None:
                deadlines.extend(
                    w.started + policy.cell_timeout for w in busy
                )
            if pending:
                deadlines.append(min(t.ready_at for t in pending))
            timeout = max(0.0, min(deadlines) - time.monotonic())
            wait_on = [w.conn for w in busy] + [w.process.sentinel for w in busy]
            readable = _connection_wait(wait_on, timeout=timeout)

            now = time.monotonic()
            for worker in list(busy):
                if worker.conn in readable:
                    self._drain(worker, now, pending, on_result, on_failure)
                elif worker.process.sentinel in readable:
                    # Process died with nothing left in the pipe.
                    self._worker_died(worker, now, pending, on_failure)

            now = time.monotonic()
            for worker in [w for w in self._workers if w.busy is not None]:
                if now - worker.last_heartbeat >= HEARTBEAT_TIMEOUT:
                    self._worker_hung(
                        worker, now, pending, on_result, on_failure
                    )
                elif (
                    policy.cell_timeout is not None
                    and now - worker.started >= policy.cell_timeout
                ):
                    self._cell_timed_out(
                        worker, now, pending, on_result, on_failure
                    )

    # -- event handlers --------------------------------------------------

    def _succeeded(self, worker, now, on_result, result) -> None:
        task = worker.busy
        worker.busy = None
        task.elapsed += now - worker.started
        on_result(task, result)

    def _drain(self, worker, now, pending, on_result, on_failure) -> None:
        """Consume every buffered message from one worker."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._worker_died(worker, now, pending, on_failure)
                return
            kind = message[0]
            if kind == "hb":
                worker.last_heartbeat = now
            elif kind == "result":
                self._succeeded(worker, now, on_result, message[1])
            elif kind == "preempted":
                self._requeue_preempted(worker, now, pending)
            elif kind == "error":
                task = worker.busy
                worker.busy = None
                task.elapsed += now - worker.started
                self._retry_or_fail(
                    task, message[1], message[2], message[3],
                    pending, on_failure,
                )

    def _requeue_preempted(self, worker, now, pending) -> None:
        """A worker yielded its cell at a snapshot boundary.

        The checkpoint is already durable, so the cell is rescheduled to
        resume from it — nothing failed and no retry budget is burned.
        """
        task = worker.busy
        worker.busy = None
        if task is None:  # pragma: no cover - defensive
            return
        task.elapsed += now - worker.started
        task.ready_at = now
        pending.append(task)
        self.stats["cells_preempted"] += 1

    def _worker_died(self, worker, now, pending, on_failure) -> None:
        task = worker.busy
        self.stats["workers_crashed"] += 1
        # Pipe EOF can precede the exit itself: reap (bounded) before
        # reading the exit code, and leave an exiting process unkilled.
        self._discard_worker(worker)
        exitcode = worker.process.exitcode
        if task is None:
            return
        task.elapsed += now - worker.started
        self._retry_or_fail(
            task,
            "WorkerCrash",
            f"worker exited with code {exitcode} before reporting a result",
            "",
            pending,
            on_failure,
        )

    def _try_preempt(self, worker, pending, on_result) -> bool:
        """Ask a doomed worker to checkpoint before the SIGKILL falls.

        Sends SIGUSR1 and waits up to :data:`PREEMPT_GRACE` seconds for the
        worker to reach a snapshot boundary, write its checkpoint, and
        yield the cell.  Returns ``True`` when the cell was handled
        (preempted-and-requeued, or it finished in the window) so the
        caller skips the kill-and-retry path.  A worker whose simulation
        is truly wedged never answers and gets killed as before — its
        retry still resumes from the latest *periodic* snapshot.
        """
        task = worker.busy
        if task is None or task.snapshot is None:
            return False
        pid = worker.process.pid
        if pid is None or not worker.process.is_alive():
            return False
        try:
            os.kill(pid, signal.SIGUSR1)
        except (ProcessLookupError, OSError):
            return False
        deadline = time.monotonic() + PREEMPT_GRACE
        while time.monotonic() < deadline:
            try:
                if not worker.conn.poll(0.05):
                    continue
                message = worker.conn.recv()
            except (EOFError, OSError):
                return False
            now = time.monotonic()
            if message[0] == "hb":
                worker.last_heartbeat = now
            elif message[0] == "preempted":
                self._requeue_preempted(worker, now, pending)
                self.stats["workers_preempted"] += 1
                return True
            elif message[0] == "result":
                # The cell finished while we were preparing to shoot it.
                self._succeeded(worker, now, on_result, message[1])
                return True
            elif message[0] == "error":
                return False  # let the kill path classify the failure
        return False

    def _worker_hung(self, worker, now, pending, on_result, on_failure) -> None:
        task = worker.busy
        silence = now - worker.last_heartbeat
        if self._try_preempt(worker, pending, on_result):
            # Heartbeats were silent but the simulation answered the
            # preemption: recycle the worker without losing progress.
            self.stats["workers_hung_killed"] += 1
            self._discard_worker(worker, kill=True)
            return
        self.stats["workers_hung_killed"] += 1
        self._discard_worker(worker, kill=True)
        if task is None:  # pragma: no cover - busy is checked by caller
            return
        task.elapsed += now - worker.started
        self._retry_or_fail(
            task,
            "WorkerHang",
            f"no heartbeat for {silence:.1f}s "
            f"(timeout {HEARTBEAT_TIMEOUT:g}s); worker killed",
            "",
            pending,
            on_failure,
        )

    def _cell_timed_out(self, worker, now, pending, on_result, on_failure) -> None:
        task = worker.busy
        if self._try_preempt(worker, pending, on_result):
            # Checkpointed in the grace window: the retry resumes
            # mid-cell instead of paying the whole budget again.
            self.stats["cells_timed_out"] += 1
            self._discard_worker(worker, kill=True)
            return
        self.stats["cells_timed_out"] += 1
        self._discard_worker(worker, kill=True)
        task.elapsed += now - worker.started
        self._retry_or_fail(
            task,
            "CellTimeout",
            f"attempt {task.attempt} exceeded the "
            f"{self.policy.cell_timeout:g}s wall-clock budget",
            "",
            pending,
            on_failure,
        )

    def _retry_or_fail(
        self, task, error_type, message, tb, pending, on_failure
    ) -> None:
        if task.attempt <= self.policy.retries:
            delay = self.policy.backoff_delay(task.attempt)
            task.attempt += 1
            task.ready_at = time.monotonic() + delay
            self.stats["cells_retried"] += 1
            pending.append(task)
            return
        on_failure(task, task.failed(error_type, message, tb))


__all__ = [
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_TIMEOUT",
    "PREEMPT_GRACE",
    "WorkerSupervisor",
]
