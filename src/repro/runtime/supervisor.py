"""Supervised map: timeouts, retries, respawn, degradation, escalation.

:func:`supervised_map` is the library's one parallel map.  It keeps the
sweep layer's load-bearing contract -- results come back **in submission
order** and are **bit-identical** to a serial run -- and adds the four
recovery behaviors the ``full``-scale sweeps need to survive a night:

* **timeouts** -- each cell gets a wall-clock budget; a worker that blows
  it is killed (SIGTERM, then SIGKILL) and replaced;
* **retries with capped exponential backoff** -- retryable failures
  (injected faults, worker deaths, typed numeric errors) re-run the cell
  up to ``policy.retries`` times;
* **precision escalation** -- a cell whose failure is *escalatable*
  (Dinkelbach/fixed-point non-convergence, NaN/Inf instability, audit
  violation) and whose float retries are exhausted is re-run once through
  ``escalate_fn`` (by convention: the exact ``Fraction`` backend);
* **graceful degradation** -- when the pool is unrecoverable (workers die
  repeatedly without completing a single cell, or spawning fails), the
  supervisor falls back to guarded serial execution in-process rather
  than failing the sweep.

Workers are forked ``multiprocessing.Process`` loops, each with one task
pipe and one result pipe **of its own**, so the supervisor always knows
exactly which cell a dead or hung worker was holding and can requeue
precisely that cell.  Per-worker result channels are load-bearing, not a
convenience: with a single shared result queue, a worker killed in the
narrow window where its queue-feeder thread holds the shared write lock
leaves that lock acquired forever, wedging every *other* worker's ``put``
-- the whole pool stalls on one death.  Private pipes confine the damage
to the dying worker's own channel, whose in-flight cell is requeued
anyway; the supervisor closes its copy of each pipe's worker end once the
worker starts, so a worker killed mid-message reads as end-of-file and a
task sent to a dead worker fails with a broken pipe.
The supervisor sleeps in :func:`multiprocessing.connection.wait` on the
busy workers' pipes and process sentinels, so a result or a death wakes
it at once; :func:`supervised_map_async` awaits the same handles as
event-loop readers instead, over the same state machine.  Worker-side
exceptions cross the pipe as metadata (never pickled exception objects),
and an optional checkpoint journal records each completed cell durably,
in completion order, keyed by submission index.

Every map borrows its workers from a :class:`WorkerPool`: a transient one
closed on return, or one the caller keeps open across maps.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import signal
import sys
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from ..engine import Counters
from ..exceptions import (
    CellFailedError,
    DeadlineExceededError,
    RemoteCellError,
    WorkerCrashError,
    WorkerTimeoutError,
    is_escalatable,
    is_retryable,
)
from ..guard.resources import (
    apply_rlimits,
    envelope_from_policy,
    translate_resource_errors,
)
from ..obs.metrics import (
    absorb_metrics,
    begin_metrics_session,
    drain_worker_metrics,
    end_metrics_session,
)
from .checkpoint import CheckpointJournal
from .faults import (
    FaultInjector,
    clear_injector,
    current_injector,
    install_injector,
    parse_fault_spec,
)
from .policy import RuntimePolicy

__all__ = ["WorkerPool", "supervised_map", "supervised_map_async", "run_cell"]

T = TypeVar("T")
R = TypeVar("R")


# ---------------------------------------------------------------------------
# guarded single-cell execution (shared by the serial path and degradation)
# ---------------------------------------------------------------------------

def run_cell(
    fn: Callable[[T], R],
    item: T,
    index: int,
    policy: RuntimePolicy,
    counters: Counters,
    escalate_fn: Optional[Callable[[T], R]] = None,
    injector=None,
    deadline: Optional[float] = None,
) -> R:
    """Run one cell under the retry/escalation state machine, in-process.

    The serial twin of what the parallel supervisor does per cell: fire
    any index-matched faults (serially simulated), retry retryable
    failures with backoff, escalate deterministic numeric failures to
    ``escalate_fn`` once retries are exhausted, and wrap permanent
    failures in :class:`~repro.exceptions.CellFailedError`.

    ``deadline`` is an absolute ``time.monotonic()`` point past which the
    retry ladder must not continue: an attempt is not *started* (and a
    backoff is not slept) once the deadline has passed -- the cell raises
    :class:`~repro.exceptions.DeadlineExceededError` instead.  A running
    attempt cannot be preempted in-process (that is what worker kills are
    for), so the serial path enforces the budget at the attempt
    boundaries, not mid-solve.
    """
    attempt = 0
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"cell {index} deadline budget exhausted before attempt "
                f"{attempt}")
        try:
            if injector is not None:
                injector.fire("worker", index=index, attempt=attempt)
                injector.fire("cell", index=index, attempt=attempt)
            try:
                return fn(item)
            except (MemoryError, RecursionError) as exc:
                # In-process we cannot setrlimit (it would cap the host
                # run), but exhaustion still becomes the typed, retryable
                # error so the recovery ladder below applies.
                raise translate_resource_errors(exc) from exc
        except Exception as exc:
            if not is_retryable(exc):
                raise
            if attempt >= policy.retries:
                if policy.escalate and escalate_fn is not None and is_escalatable(exc):
                    counters.precision_escalations += 1
                    return escalate_fn(item)
                raise CellFailedError(index, exc) from exc
            attempt += 1
            counters.cell_retries += 1
            backoff = policy.backoff(attempt)
            if (deadline is not None
                    and time.monotonic() + backoff >= deadline):
                raise DeadlineExceededError(
                    f"cell {index} deadline budget exhausted during retry "
                    f"backoff (attempt {attempt})") from exc
            if backoff > 0:
                time.sleep(backoff)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _bind_to_parent_death() -> None:
    """Linux: arrange for the kernel to SIGKILL this worker when its
    parent dies (``PR_SET_PDEATHSIG``).

    A worker that outlives a crashed parent is worse than a leak: a
    forked child holds *every* inherited descriptor, and when the parent
    is a serving daemon that includes its listening socket -- the orphan
    keeps the port bound and silently swallows new connections into a
    backlog nothing will ever accept, wedging the restarted server.  The
    supervisor's own kill paths cover supervised shutdowns; this covers
    the parent dying in ways nothing supervises (SIGKILL, OOM, segfault).
    Best-effort and Linux-only: elsewhere the supervisor-side cleanup is
    the only line of defense.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:  # pragma: no cover - no libc/prctl on this platform
        return
    # Close the fork-to-prctl race: a parent that died in between will
    # never trigger the death signal, but it did reparent us to init.
    if os.getppid() == 1:
        os._exit(1)


class _Arm(NamedTuple):
    """One map's worker-side set-up.  A worker forked during the map takes
    it as a fork argument (so ``fn`` is never pickled); a live pooled
    worker receives it as a message when the map starts."""

    fn: Callable
    faults: Optional[str]
    envelope: Optional[tuple]


def _arm_worker(arm: _Arm, injector):
    """Start a map in this worker; returns ``(fn, injector)``.  Fault
    rules fire once per injector, so a fresh one per map is what makes a
    schedule recur map after map, as it would with a fork per map."""
    if arm.envelope is not None:
        apply_rlimits(*arm.envelope)
    if arm.faults:
        injector = install_injector(parse_fault_spec(arm.faults),
                                    in_worker=True)
    elif injector is not None:
        clear_injector()
        injector = None
    return arm.fn, injector


def _worker_main(task_conn, result_conn, arm: Optional[_Arm]) -> None:
    """Worker loop: pull ``(index, attempt, item)``, push results/failures.

    ``arm`` (or a later :class:`_Arm` message) sets the worker up for a
    map: the cell function, the resource envelope, the brute-force cap and
    the fault plan.  Each worker builds its own injector from the
    picklable spec string (worker state never crosses the process
    boundary), so index-keyed rules fire deterministically on whichever
    worker draws the matching cell.  ``None`` or a closed task pipe is the
    shutdown signal.

    The envelope is the picklable ``(max_memory_mb, max_cpu_seconds)``
    pair, applied via ``setrlimit`` before the map's first cell, so a
    memory-ballooning cell fails with a catchable ``MemoryError``
    (reported as a typed ``ResourceExhaustedError``) instead of the kernel
    OOM-killing the worker, and a CPU-runaway cell is killed by the kernel
    at the CPU budget (surfacing as a crash the supervisor requeues).

    Every result message carries the worker's metrics delta -- counters
    and spans the cell accumulated on this process's registered engine
    contexts (see :mod:`repro.obs.metrics`) -- so the supervisor can merge
    true worker-side work totals into the parent context instead of
    dropping them with the worker.  The delta is ``None`` for cells that
    touched no engine context, and stays a small flat dict otherwise,
    preserving the atomic-pipe-write size assumption.  Next to it, as the
    last slot, rides the attempt's own monotonic wall time around the cell
    function, never inside the result value.
    """
    _bind_to_parent_death()
    # Work the parent had not yet drained when it forked is the parent's
    # to report: start this worker's marks from the inherited totals.
    drain_worker_metrics()
    fn = injector = None
    if arm is not None:
        fn, injector = _arm_worker(arm, injector)
    while True:
        try:
            msg = task_conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        if isinstance(msg, _Arm):
            fn, injector = _arm_worker(msg, injector)
            continue
        index, attempt, item = msg
        started = time.monotonic()
        try:
            if injector is not None:
                injector.fire("worker", index=index, attempt=attempt)  # may _exit
                injector.fire("cell", index=index, attempt=attempt)
            value = fn(item)
            seconds = time.monotonic() - started
            result_conn.send((index, attempt, True, value, None,
                              drain_worker_metrics(), seconds))
        except BaseException as exc:  # noqa: BLE001 - must report, not die
            seconds = time.monotonic() - started
            exc = translate_resource_errors(exc)
            result_conn.send((
                index, attempt, False, None,
                {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "retryable": is_retryable(exc),
                    "escalatable": is_escalatable(exc),
                },
                # Work done before the failure is still work done -- ship
                # the partial delta so retried cells are counted honestly.
                drain_worker_metrics(),
                seconds,
            ))


def _decode_failure(meta: dict) -> RemoteCellError:
    return RemoteCellError(
        type_name=meta.get("type", "Exception"),
        message=meta.get("message", ""),
        retryable=bool(meta.get("retryable", False)),
        escalatable=bool(meta.get("escalatable", False)),
    )


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """Forked worker processes that serve supervised maps, one at a time.

    :func:`supervised_map` builds a transient pool per call and closes it
    on return.  A caller that maps again and again (the serving layer
    keeps one pool per shard) opens a pool once and lends it to each map
    with ``pool=``; its workers, and whatever they memoize, then outlive
    the map.  Each map re-arms every live worker and replaces the dead
    ones, so a cell cannot tell a pooled worker from a fresh fork: it
    sees the map's function, a fresh fault injector and a CPU budget
    counted from the map's start.  A map that sets other process-wide
    limits (rlimits, the brute-force cap) than the last one starts on
    fresh workers, since arming never restores the inherited limits.

    :meth:`close` stops every worker; the pool is also a context manager.
    """

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError(f"a worker pool needs >= 1 process, got {processes}")
        self.processes = processes
        #: wid -> (Process, task_conn, result_conn)
        self.workers: dict[int, tuple] = {}
        #: True once :meth:`open` started the full complement: a worker
        #: started after that replaces one that died or was killed.
        self.opened = False
        self._arm: Optional[_Arm] = None
        self._next_wid = 0
        self._mctx = mp.get_context("fork")

    def __enter__(self) -> "WorkerPool":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def open(self) -> "WorkerPool":
        """Start the pool's workers now, ahead of its first map."""
        self.opened = True
        for _ in range(self.processes - len(self.workers)):
            self.spawn()
        return self

    def pids(self) -> list[int]:
        """The live workers' process ids (safe to read from any thread)."""
        return [entry[0].pid for entry in list(self.workers.values())]

    def spawn(self) -> Optional[int]:
        """Fork one worker armed for the current map; ``None`` if the
        fork failed."""
        wid = self._next_wid
        self._next_wid += 1
        worker_tasks, task_conn = self._mctx.Pipe(duplex=False)
        result_conn, worker_results = self._mctx.Pipe(duplex=False)
        proc = self._mctx.Process(
            target=_worker_main,
            args=(worker_tasks, worker_results, self._arm),
            daemon=True,
        )
        try:
            proc.start()
        except OSError:
            task_conn.close()
            result_conn.close()
            return None
        finally:
            # Only the worker may hold its ends: its death must read as
            # end-of-file on result_conn and a broken pipe on task_conn.
            worker_tasks.close()
            worker_results.close()
        self.workers[wid] = (proc, task_conn, result_conn)
        return wid

    def kill(self, wid: int) -> None:
        """Stop one worker (SIGTERM, then SIGKILL) and drop its pipes."""
        proc, task_conn, result_conn = self.workers.pop(wid)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        task_conn.close()
        result_conn.close()

    def begin_map(self, arm: _Arm) -> int:
        """Arm the live workers for a new map and reap the dead ones.

        Returns how many workers the pool lacks; the supervisor starts
        them, armed through :meth:`spawn`.  A send to a worker that died
        idle fails with a broken pipe, so it is reaped here rather than
        costing the map a retry.
        """
        old = self._arm
        if old is not None and old.envelope != arm.envelope:
            # Arming sets process-wide limits but never restores the
            # inherited ones: other limits need fresh workers.
            self.close()
            self._arm = arm
            self.open()
            return self.processes - len(self.workers)
        self._arm = arm
        for wid, (proc, task_conn, _) in list(self.workers.items()):
            try:
                if proc.is_alive():
                    task_conn.send(arm)
                    continue
            except OSError:
                pass
            self.kill(wid)
        return self.processes - len(self.workers)

    def close(self) -> None:
        """Stop every worker -- no orphans, even on KeyboardInterrupt."""
        for proc, task_conn, _ in self.workers.values():
            if proc.is_alive():
                try:
                    task_conn.send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + 0.5
        for proc, _, _ in self.workers.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for wid in list(self.workers):
            self.kill(wid)


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------

class _Supervisor:
    """State of one supervised parallel map, as non-blocking steps around
    one wait.

    :meth:`_queue` seeds the results from the journal and queues the
    rest; :meth:`_arm` arms the pool for the map.  Each round then runs
    :meth:`_step_in_process` (whatever must solve in this process: queued
    escalations, then degradation once it is due), hands ready cells to
    idle workers (:meth:`_assign_ready_work`), waits on what
    :meth:`_wait_args` names -- the busy workers' result pipes and
    sentinels, for at most :meth:`_wake_timeout` -- and settles what the
    wait announced (:meth:`_collect`).  :meth:`run` drives the rounds with
    a blocking wait; :meth:`run_async` awaits the same handles as
    event-loop readers and runs the in-process step on an executor thread,
    so the loop never solves and never sleeps through a backoff.
    """

    def __init__(
        self,
        fn,
        items: Sequence,
        processes: int,
        policy: RuntimePolicy,
        counters: Counters,
        escalate_fn,
        journal: Optional[CheckpointJournal],
        key_fn,
        tracer=None,
        deadlines: Optional[list] = None,
        on_deadline=None,
        pool: Optional[WorkerPool] = None,
        timings: Optional[dict] = None,
    ) -> None:
        self.fn = fn
        self.items = list(items)
        self.policy = policy
        self.counters = counters
        self.escalate_fn = escalate_fn
        self.journal = journal
        self.key_fn = key_fn
        self.tracer = tracer
        #: Absolute time.monotonic() deadline per submission index (None =
        #: unbounded), and the hook that synthesizes an expired cell's
        #: result value.  See supervised_map(budgets=..., on_deadline=...).
        self.deadlines = deadlines
        self.on_deadline = on_deadline
        #: Submission index -> the worker's wall seconds for the attempt
        #: that produced the value (see supervised_map(timings=...)).
        self.timings = timings
        self.results: dict[int, object] = {}
        self.pending: deque[tuple[float, int, int]] = deque()  # (ready_at, idx, attempt)
        self.inflight: dict[int, tuple[int, int, float]] = {}  # wid -> (idx, attempt, deadline)
        #: Cells whose float retries ran out on an escalatable failure,
        #: waiting for escalate_fn in this process.
        self.escalations: deque[int] = deque()
        self.processes = processes
        #: The borrowed pool, or ``None`` until _queue() builds a transient one.
        self.pool = pool
        self._owns_pool = pool is None
        self._deaths_since_progress = 0
        self._degrade_due = False
        self._degraded = False

    # -- worker lifecycle -------------------------------------------------
    @property
    def workers(self) -> dict:
        return self.pool.workers

    def _spawn_worker(self) -> Optional[int]:
        return self.pool.spawn()

    def _kill_worker(self, wid: int) -> None:
        self.pool.kill(wid)
        self.inflight.pop(wid, None)

    def _respawn(self) -> None:
        """Replace a worker lost mid-map while the map still has work for
        it, or at once when the pool outlives the map (so the next map
        does not wait on the fork)."""
        if (len(self.workers) < self.pool.processes
                and not self._pool_unrecoverable()
                and (self.pending or self.inflight or not self._owns_pool)):
            if self._spawn_worker() is not None:
                self.counters.worker_respawns += 1

    def _shutdown(self) -> None:
        """Close a transient pool.  A borrowed pool keeps its idle workers
        but loses any still holding a cell of this map (the map ended on
        an error): that cell's late result must not reach the next map."""
        if self._owns_pool:
            self.pool.close()
            return
        for wid in list(self.inflight):
            self._kill_worker(wid)

    # -- completion helpers -----------------------------------------------
    def _complete(self, idx: int, value) -> None:
        self.results[idx] = value
        self._deaths_since_progress = 0
        if self.journal is not None:
            self.journal.record(self.key_fn(idx), value)

    def _cell_deadline(self, idx: int) -> Optional[float]:
        if self.deadlines is None:
            return None
        return self.deadlines[idx]

    def _expire(self, idx: int) -> None:
        """The cell's deadline budget ran out: settle it without solving.

        With an ``on_deadline`` hook the cell *completes* with the hook's
        synthesized value (the serving layer's typed error marker), so one
        expired request never fails its batch; without a hook the whole
        map raises -- a caller that passed budgets but no hook wants the
        loud failure.
        """
        self.counters.cell_deadline_expired += 1
        if self.on_deadline is not None:
            self._complete(idx, self.on_deadline(self.items[idx]))
            return
        raise DeadlineExceededError(
            f"cell {idx} deadline budget exhausted in supervised map")

    def _handle_failure(self, idx: int, attempt: int, exc: Exception) -> None:
        cd = self._cell_deadline(idx)
        if cd is not None and time.monotonic() >= cd:
            self._expire(idx)
            return
        if not is_retryable(exc):
            raise exc
        if attempt >= self.policy.retries:
            if (self.policy.escalate and self.escalate_fn is not None
                    and is_escalatable(exc)):
                self.counters.precision_escalations += 1
                self.escalations.append(idx)
                return
            raise CellFailedError(idx, exc) from exc
        self.counters.cell_retries += 1
        ready_at = time.monotonic() + self.policy.backoff(attempt + 1)
        if cd is not None and ready_at >= cd:
            # The backoff alone would outlive the budget; expire now
            # rather than queueing a retry that can never start.
            self._expire(idx)
            return
        self.pending.append((ready_at, idx, attempt + 1))

    def _requeue_infra_failure(self, wid: int, exc: Exception) -> None:
        """A worker died or hung while holding a cell: replace and requeue."""
        idx, attempt, _ = self.inflight[wid]
        self._kill_worker(wid)
        self._deaths_since_progress += 1
        self._handle_failure(idx, attempt, exc)
        self._respawn()

    def _pool_unrecoverable(self) -> bool:
        return self._deaths_since_progress > self.policy.max_pool_failures

    # -- in-process work ----------------------------------------------------
    def _step_in_process(self) -> bool:
        """Run what must solve in this process -- the queued escalations,
        then degradation once it is due -- and report whether the map is
        finished."""
        while self.escalations:
            idx = self.escalations.popleft()
            self._complete(idx, self.escalate_fn(self.items[idx]))
        if self._degrade_due:
            self._degrade_to_serial()
        return len(self.results) == len(self.items) or self._degraded

    def _degrade_to_serial(self) -> None:
        """Pool is unrecoverable: finish every outstanding cell in-process."""
        self._degraded = True
        for wid in list(self.workers):
            self._kill_worker(wid)
        outstanding = sorted(
            set(range(len(self.items)))
            - set(self.results)
        )
        injector = current_injector()
        for idx in outstanding:
            try:
                value = run_cell(
                    self.fn, self.items[idx], idx, self.policy, self.counters,
                    escalate_fn=self.escalate_fn, injector=injector,
                    deadline=self._cell_deadline(idx),
                )
            except DeadlineExceededError:
                self._expire(idx)
                continue
            self._complete(idx, value)
        self.pending.clear()
        self.inflight.clear()

    # -- drivers ------------------------------------------------------------
    def run(self) -> list:
        """The blocking driver (the sweep path)."""
        if self._queue():
            try:
                self._arm()
                while not self._step_in_process():
                    self._assign_ready_work()
                    handles, timeout = self._wait_args()
                    if handles or timeout is not None:
                        wait(handles, timeout)
                    self._collect()
            finally:
                self._shutdown()
        return self._ordered()

    async def run_async(self) -> list:
        """The event-loop driver: the same rounds as :meth:`run`, with the
        wait awaited on the running loop and the in-process step run on
        its default executor."""
        # Imported here, where a loop is already running, so the sweep
        # path and its workers do not load asyncio (about 2.7 MB of RSS
        # and 0.1 s of start-up).
        import asyncio

        if self._queue():
            loop = asyncio.get_running_loop()
            try:
                self._arm()
                while True:
                    if self.escalations or self._degrade_due:
                        finished = await loop.run_in_executor(
                            None, self._step_in_process)
                    else:
                        finished = self._step_in_process()
                    if finished:
                        break
                    self._assign_ready_work()
                    await _wait_on_loop(loop, *self._wait_args())
                    self._collect()
            finally:
                self._shutdown()
        return self._ordered()

    def _ordered(self) -> list:
        return [self.results[i] for i in range(len(self.items))]

    def _queue(self) -> bool:
        """Seed from the checkpoint journal, queue every other cell, and
        make sure there is a pool; ``False`` when nothing is left to run."""
        n = len(self.items)
        if self.journal is not None:
            for idx in range(n):
                key = self.key_fn(idx)
                if key in self.journal:
                    self.results[idx] = self.journal.get(key)
                    self.counters.checkpoint_hits += 1
        for idx in range(n):
            if idx not in self.results:
                self.pending.append((0.0, idx, 0))
        if not self.pending:
            return False
        if self.pool is None:
            self.pool = WorkerPool(max(1, min(self.processes, len(self.pending))))
        return True

    def _arm(self) -> None:
        """Arm the pool's workers for this map and start missing ones;
        degradation is due at once if not a single worker runs."""
        # In an opened pool, every worker started now replaces one that
        # died or was killed since the last map.
        replacing = self.pool.opened
        arm = _Arm(self.fn, self.policy.faults,
                   envelope_from_policy(self.policy))
        for _ in range(self.pool.begin_map(arm)):
            if self._spawn_worker() is not None and replacing:
                self.counters.worker_respawns += 1
        if not self.workers:
            self._degrade_due = True

    def _assign_ready_work(self) -> None:
        if not self.pending:
            return
        now = time.monotonic()
        for wid, (proc, task_conn, _) in list(self.workers.items()):
            # Settle any head-of-queue cells whose budget already ran out:
            # assigning them would only burn a worker on unwanted work.
            while self.pending:
                _, head_idx, _ = self.pending[0]
                head_cd = self._cell_deadline(head_idx)
                if head_cd is not None and now >= head_cd:
                    self.pending.popleft()
                    self._expire(head_idx)
                else:
                    break
            if wid in self.inflight or not self.pending:
                continue
            ready_at, idx, attempt = self.pending[0]
            if ready_at > now:
                break
            self.pending.popleft()
            deadline = (now + self.policy.timeout
                        if self.policy.timeout is not None else float("inf"))
            cd = self._cell_deadline(idx)
            if cd is not None:
                deadline = min(deadline, cd)
            try:
                task_conn.send((idx, attempt, self.items[idx]))
            except Exception:
                # Broken pipe to this worker: put the cell back, replace the
                # worker, and let the next round reassign.
                self.pending.appendleft((ready_at, idx, attempt))
                self._kill_worker(wid)
                self._deaths_since_progress += 1
                self._respawn()
                return
            self.inflight[wid] = (idx, attempt, deadline)

    def _drain_worker(self, wid: int) -> None:
        """Non-blocking drain of one worker's private result pipe."""
        entry = self.workers.get(wid)
        if entry is None:
            return
        result_conn = entry[2]
        while True:
            try:
                if not result_conn.poll():
                    return
                msg = result_conn.recv()
            except (OSError, EOFError):
                return
            idx, attempt, ok, value, failure, metrics, seconds = msg
            # Merge the worker's delta unconditionally -- even for late
            # duplicates and failed attempts, the flow solves and iterations
            # it reports were really performed.
            absorb_metrics(metrics, counters=self.counters, tracer=self.tracer)
            if self.inflight.get(wid, (None,))[0] == idx:
                del self.inflight[wid]
            if idx in self.results:
                continue  # late duplicate (e.g. finished right at its deadline)
            if ok:
                self._complete(idx, value)
                if self.timings is not None:
                    self.timings[idx] = seconds
            else:
                self._handle_failure(idx, attempt, _decode_failure(failure))

    def _wake_timeout(self) -> Optional[float]:
        """Seconds until the loop has work that no worker event announces:
        the nearest in-flight kill deadline, the head cell's deadline
        budget, or -- with a worker idle -- the head cell's retry time.
        ``None`` when only a worker event can change anything."""
        wake = [deadline for _, _, deadline in self.inflight.values()]
        if self.pending:
            ready_at, idx, _ = self.pending[0]
            if len(self.inflight) < len(self.workers):
                wake.append(ready_at)
            budget = self._cell_deadline(idx)
            if budget is not None:
                wake.append(budget)
        nearest = min(wake, default=math.inf)
        if math.isinf(nearest):
            return None
        return max(0.0, nearest - time.monotonic())

    def _wait_args(self) -> tuple[list, Optional[float]]:
        """What a round waits on: the busy workers' result pipes and
        process sentinels, for at most the wake timeout.

        Only busy workers are waited on: an idle worker has nothing to
        send, and a dead idle one would read as end-of-file forever."""
        handles = []
        for wid in self.inflight:
            proc, _, result_conn = self.workers[wid]
            handles += (result_conn, proc.sentinel)
        return handles, self._wake_timeout()

    def _collect(self) -> None:
        """After a wait: drain every worker's pipe, reap dead and overdue
        workers, and mark degradation due once the pool is unrecoverable."""
        for wid in list(self.workers):
            self._drain_worker(wid)
        self._check_deadlines_and_deaths()
        if self._pool_unrecoverable() or (not self.workers and self.pending):
            self._degrade_due = True

    def _check_deadlines_and_deaths(self) -> None:
        now = time.monotonic()
        for wid in list(self.inflight):
            if wid not in self.workers or wid not in self.inflight:
                continue
            proc = self.workers[wid][0]
            idx, attempt, deadline = self.inflight[wid]
            if not proc.is_alive():
                # Drain any result the worker managed to flush before dying.
                self._drain_worker(wid)
                if wid not in self.inflight:
                    self._kill_worker(wid)
                    self._respawn()
                    continue
                self._requeue_infra_failure(wid, WorkerCrashError(
                    f"worker died while computing cell {idx} "
                    f"(exit code {proc.exitcode})"))
            elif now > deadline:
                cd = self._cell_deadline(idx)
                if cd is not None and now >= cd:
                    # The *request's* deadline budget (not the policy
                    # timeout) is what ran out: kill the worker to stop
                    # unwanted work, settle the cell as expired, and do
                    # not count the death against pool health -- the
                    # shard did nothing wrong.
                    self._kill_worker(wid)
                    self._expire(idx)
                    self._respawn()
                    continue
                self.counters.cell_timeouts += 1
                self._requeue_infra_failure(wid, WorkerTimeoutError(
                    f"cell {idx} exceeded its {self.policy.timeout:g}s budget; "
                    f"worker killed"))


async def _wait_on_loop(loop, handles: list, timeout: Optional[float]) -> None:
    """Event-loop twin of :func:`multiprocessing.connection.wait`: return
    once any handle (a connection or a process sentinel) is readable or
    ``timeout`` seconds have passed.  The handles are loop readers only
    for the length of the wait."""
    if not handles and timeout is None:
        return
    woke = loop.create_future()

    def wake() -> None:
        if not woke.done():
            woke.set_result(None)

    fds = [h if isinstance(h, int) else h.fileno() for h in handles]
    for fd in fds:
        loop.add_reader(fd, wake)
    timer = loop.call_later(timeout, wake) if timeout is not None else None
    try:
        await woke
    finally:
        if timer is not None:
            timer.cancel()
        for fd in fds:
            loop.remove_reader(fd)


def _deadlines_from(budgets, items: list) -> Optional[list]:
    """Per-cell budgets (seconds from now, ``None`` = unbounded) as
    absolute ``time.monotonic()`` deadlines."""
    if budgets is None:
        return None
    budgets = list(budgets)
    if len(budgets) != len(items):
        raise ValueError(
            f"budgets length {len(budgets)} != items length {len(items)}")
    t0 = time.monotonic()
    return [t0 + b if b is not None else None for b in budgets]


def _end_map(counters: Counters, tracer) -> None:
    """Close a map's metrics session: fold in the work this process did
    itself (serial cells, degradation, escalation)."""
    try:
        absorb_metrics(drain_worker_metrics(), counters=counters, tracer=tracer)
    finally:
        end_metrics_session()


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: int = 0,
    policy: Optional[RuntimePolicy] = None,
    counters: Optional[Counters] = None,
    escalate_fn: Optional[Callable[[T], R]] = None,
    journal: Optional[CheckpointJournal] = None,
    key_fn: Optional[Callable[[int], str]] = None,
    tracer=None,
    budgets: Optional[Sequence[Optional[float]]] = None,
    on_deadline: Optional[Callable[[T], R]] = None,
    pool: Optional[WorkerPool] = None,
    timings: Optional[dict] = None,
) -> list[R]:
    """Fault-tolerant, order-preserving map over ``items``.

    ``processes <= 0`` runs serially in-process (cells still get the full
    retry/escalation treatment, with kill/hang faults simulated as the
    errors the supervisor would synthesize).  The items must be picklable
    for the parallel path; ``escalate_fn`` runs in the supervisor process.
    ``key_fn`` maps a submission index to a stable journal key (defaults
    to ``str(index)``).

    ``pool`` lends the map a :class:`WorkerPool` in place of the transient
    one it would build: ``processes`` is then ignored, every cell -- a
    lone one included -- runs in the pool's workers, and they stay up when
    the map returns.  ``fn`` must be picklable too, since it reaches
    already-running workers through their task pipes.

    ``budgets`` propagates per-cell *deadline budgets* (seconds of wall
    clock remaining, measured from map entry; ``None`` entries are
    unbounded).  A cell's effective kill deadline is the tighter of the
    static ``policy.timeout`` and its remaining budget, and the budget
    bounds the whole recovery ladder -- retries are not started (and
    backoffs not slept) past it.  An expired cell completes with
    ``on_deadline(item)`` when the hook is given (the serving layer's
    typed ``deadline_exceeded`` marker -- one late request never fails
    its batch), else the map raises
    :class:`~repro.exceptions.DeadlineExceededError`.  Expirations count
    under ``counters.cell_deadline_expired`` and deliberately do *not*
    count as pool failures: a client-imposed deadline says nothing about
    shard health.

    ``timings``, when given, receives for each cell a worker solved its
    submission index -> that worker's own wall seconds around the cell
    function, for the attempt that produced the value.  Cells settled in
    this process (serial, degraded, escalated, expired) leave no entry.

    Work accounting: cells that rebuild engine contexts from a spec (in
    workers *or* in this process -- the serial path, degradation, and
    escalation all run cells here) accumulate onto per-process memoized
    contexts, not onto ``counters``.  The map brackets itself with the
    :mod:`repro.obs.metrics` drain protocol: pending deltas from earlier,
    already-reported work are discarded up front (this also synchronizes
    the marks that forked workers inherit), worker deltas arrive with each
    result message, and one final drain folds the work this process itself
    performed into ``counters`` (and span deltas into ``tracer``).
    """
    policy = policy if policy is not None else RuntimePolicy()
    counters = counters if counters is not None else Counters()
    key_fn = key_fn if key_fn is not None else str
    items = list(items)
    deadlines = _deadlines_from(budgets, items)

    # Session bracket, not a bare mark-sync: when maps overlap (the serving
    # layer dispatches one per shard concurrently), only the first may
    # discard pending deltas -- a later reset would swallow a sibling map's
    # not-yet-drained work.
    begin_metrics_session()
    try:
        # A single item normally short-circuits to the serial path, but a
        # resource envelope can only be enforced inside a real worker process
        # (setrlimit is process-wide, so it must never touch the host):
        # honor the envelope even for one cell.
        serial_single = len(items) <= 1 and envelope_from_policy(policy) is None
        if pool is None and (processes <= 0 or serial_single):
            # An explicitly installed injector wins (the CLI's global
            # --inject-faults path); otherwise honor policy.faults with a
            # map-local injector, mirroring how each worker process builds
            # one from the same spec string.  Local, not installed: the
            # plan must not leak into unrelated maps in this process.
            injector = current_injector()
            if injector is None and policy.faults:
                injector = FaultInjector(
                    parse_fault_spec(policy.faults), counters=counters)
            out: list = []
            for idx, item in enumerate(items):
                if journal is not None:
                    key = key_fn(idx)
                    if key in journal:
                        counters.checkpoint_hits += 1
                        out.append(journal.get(key))
                        continue
                try:
                    value = run_cell(fn, item, idx, policy, counters,
                                     escalate_fn=escalate_fn,
                                     injector=injector,
                                     deadline=(deadlines[idx]
                                               if deadlines else None))
                except DeadlineExceededError:
                    counters.cell_deadline_expired += 1
                    if on_deadline is None:
                        raise
                    out.append(on_deadline(item))
                    continue
                if journal is not None:
                    journal.record(key_fn(idx), value)
                out.append(value)
            return out

        sup = _Supervisor(fn, items, processes, policy, counters,
                          escalate_fn, journal, key_fn, tracer=tracer,
                          deadlines=deadlines, on_deadline=on_deadline,
                          pool=pool, timings=timings)
        return sup.run()
    finally:
        _end_map(counters, tracer)


async def supervised_map_async(
    fn: Callable[[T], R],
    items: Sequence[T],
    pool: WorkerPool,
    policy: Optional[RuntimePolicy] = None,
    counters: Optional[Counters] = None,
    escalate_fn: Optional[Callable[[T], R]] = None,
    tracer=None,
    budgets: Optional[Sequence[Optional[float]]] = None,
    on_deadline: Optional[Callable[[T], R]] = None,
    timings: Optional[dict] = None,
) -> list[R]:
    """Awaitable twin of :func:`supervised_map` over a borrowed ``pool``.

    The same state machine, timeouts, retries, deadline budgets,
    escalation and degradation, with the same results and counters; only
    the driver differs.  The map waits on the running event loop, with
    the busy workers' result pipes and sentinels as loop readers, so the
    loop keeps serving while a cell solves.  Whatever must run in this
    process -- ``escalate_fn`` and serial degradation -- runs on the
    loop's default executor, and a retry's backoff is a loop timer, never
    a sleep.  There is no serial path and no journal: every cell solves in
    the pool's workers.
    """
    policy = policy if policy is not None else RuntimePolicy()
    counters = counters if counters is not None else Counters()
    items = list(items)
    deadlines = _deadlines_from(budgets, items)
    begin_metrics_session()
    try:
        sup = _Supervisor(fn, items, pool.processes, policy, counters,
                          escalate_fn, None, str, tracer=tracer,
                          deadlines=deadlines, on_deadline=on_deadline,
                          pool=pool, timings=timings)
        return await sup.run_async()
    finally:
        _end_map(counters, tracer)
