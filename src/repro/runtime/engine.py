"""Dependency-driven thread-pool execution engine (real concurrency).

:mod:`repro.runtime.scheduler` *simulates* K workers executing a task DAG;
this module *actually runs* one.  The batched numeric stages of the FMM
pipeline (each pass declares its DAG once:
:meth:`FarFieldPass.add_tasks <repro.fmm.farfield.FarFieldPass.add_tasks>`,
:meth:`NearFieldPass.add_tasks <repro.fmm.nearfield.NearFieldPass.add_tasks>`)
are NumPy matmuls and kernel evaluations that release the GIL, so a small
pool of daemon worker threads driven by a ready-queue over an explicit
:class:`TaskNode` DAG yields genuine wall-clock speedup — the data-driven
runtime-system shape of Ltaief & Yokota and Agullo et al., scaled down to
one shared-memory node.  The same declaration walked in insertion order on
the calling thread (:func:`run_in_order`) is the serial schedule; the serial
near field hands its independent chunks to :func:`run_claimed`, which the
calling thread and a process-wide helper pool run, each claiming the next.

Design rules that make parallel runs **bitwise identical** to serial ones:

* tasks never race on shared arrays — every concurrent stage either writes
  disjoint rows or computes a private *delta* that a single downstream
  merge task folds in over a **fixed order** (graph construction order,
  matching the serial loop order);
* the engine therefore needs no execution-order guarantees, and one
  scheduler loop serves every width: ``n_workers=1`` is a pool of one
  thread, not a second executor.

The engine is a *supervised* substrate (DESIGN.md §11):

* every task's exception is captured, never leaked into a worker thread;
* tasks marked ``retryable`` (idempotent: assignment writes or private
  deltas) run up to :data:`MAX_ATTEMPTS` times, re-submitted at once;
  non-idempotent tasks (ordered ``+=`` merges) fail the graph immediately;
* the solve's :class:`~repro.util.timing.Deadline` (a per-run argument
  of :meth:`ExecutionEngine.run`) aborts a run by draining the ready
  queue — in-flight tasks finish, nothing new is submitted, the pool stays
  reusable for the next graph, and the expiry propagates to the caller;
* a task failure raises :class:`GraphTaskError` (a
  :class:`GraphExecutionError`), which the solvers catch to degrade to
  the exact serial re-execution path;
* ``fault_hook`` is a test-only injection point (see
  :class:`repro.resilience.FaultPlan`) called *before* each task body, so
  an injected raise never leaves partial state and a retry is exact.

Every executed task records a real ``(label, worker, start, end)``
interval (``time.perf_counter`` seconds relative to the run start), with
the task's cost-model ``op`` and ``applications``, which feeds two
consumers: the Perfetto "real workers" trace process
(:meth:`repro.obs.Tracer.add_worker_lanes` with ``pid=REAL_PID``) and
the critical-path profiler (:mod:`repro.obs.critpath`).  For the
profiler each interval also carries its task id, its dependency edges
(parent-span links), and the instant the task became *ready* (all deps
done and it entered the ready queue), so ``start - ready`` is the queue
wait: time lost to worker scarcity rather than the DAG itself.  The
scheduler additionally samples the ready-queue depth whenever it grows,
so :attr:`EngineResult.max_ready_depth` says how much parallelism the
graph ever exposed at once.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable

from repro.util.timing import Deadline, SolveDeadlineError

__all__ = [
    "MAX_ATTEMPTS",
    "EngineResult",
    "ExecutionEngine",
    "GraphExecutionError",
    "GraphTaskError",
    "TaskFailure",
    "TaskGraphBuilder",
    "TaskInterval",
    "TaskNode",
    "claimed_lanes",
    "default_workers",
    "run_claimed",
    "run_in_order",
    "solve_in_flight",
]

#: total tries per ``retryable`` task before the graph fails
MAX_ATTEMPTS = 3


def default_workers() -> int:
    """One worker per CPU this process may run on: affinity-aware, so a
    container pinned to 2 cores of a 64-core host gets 2."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API off Linux
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------- errors


class GraphExecutionError(RuntimeError):
    """A task graph could not be completed.

    Solvers catch this to fall back to the exact serial path; it is the
    *recoverable* family — an expired :class:`~repro.util.timing.Deadline`
    is deliberate and is not a subclass.
    """


class GraphTaskError(GraphExecutionError):
    """A task failed and could not be retried (or retries were exhausted).

    ``label`` names the failing task, ``attempts`` counts how many times
    it ran, ``failures`` is the run's full :class:`TaskFailure` record
    (including earlier, successfully retried faults).  The original
    exception is chained as ``__cause__``.
    """

    def __init__(
        self, label: str, attempts: int, failures: list["TaskFailure"]
    ) -> None:
        super().__init__(
            f"task {label!r} failed after {attempts} attempt(s)"
        )
        self.label = label
        self.attempts = attempts
        self.failures = failures


@dataclass(frozen=True)
class TaskFailure:
    """One captured task fault (retried or fatal)."""

    label: str
    attempt: int  # 0-based attempt index that failed
    error: str  # repr of the captured exception
    retried: bool  # True if the engine rescheduled the task


@dataclass(slots=True)
class TaskNode:
    """One schedulable unit: a no-argument callable plus dependency edges.

    ``op``/``applications`` tag the task for §IV-D coefficient attribution
    (op names follow :meth:`InteractionLists.op_counts` conventions).
    ``retryable`` marks the task idempotent (safe to re-run after a
    failure): true for assignment/private-delta stages, false for the
    ordered in-place merges.
    """

    id: int
    fn: Callable[[], Any]
    label: str
    deps: tuple[int, ...] = ()
    op: str | None = None
    applications: int = 0
    retryable: bool = True


@dataclass(frozen=True)
class TaskInterval:
    """Measured execution record of one task.

    ``task_id``/``deps`` mirror the executed :class:`TaskNode`'s identity
    and dependency edges (parent-span links for the critical-path
    profiler); ``ready`` is the instant the task entered the ready queue,
    so ``queue_wait`` separates "waited for a free worker" from "waited
    for its dependencies".
    """

    label: str
    worker: int
    start: float  # seconds since run start
    end: float
    op: str | None = None
    applications: int = 0
    task_id: int = -1
    deps: tuple[int, ...] = ()
    ready: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def queue_wait(self) -> float:
        """Seconds between becoming ready and starting to execute."""
        return max(0.0, self.start - self.ready)


class TaskGraphBuilder:
    """Accumulates :class:`TaskNode` entries with integer handles."""

    def __init__(self) -> None:
        self.nodes: list[TaskNode] = []

    def add(
        self,
        fn: Callable[[], Any],
        *,
        label: str,
        deps: tuple[int, ...] | list[int] = (),
        op: str | None = None,
        applications: int = 0,
        retryable: bool = True,
    ) -> int:
        """Append a task; returns its id for use in later ``deps``."""
        tid = len(self.nodes)
        deps = tuple(deps)
        if deps and not 0 <= min(deps) <= max(deps) < tid:
            raise ValueError(f"task {label!r} depends on an unknown task in {deps}")
        # a pass declares ~150 tasks per solve: positional, because keywords
        # double a node's construction cost
        self.nodes.append(TaskNode(tid, fn, label, deps, op, applications, retryable))
        return tid

    def __len__(self) -> int:
        return len(self.nodes)


def run_in_order(
    graph: TaskGraphBuilder, *, tracer=None, deadline: Deadline | None = None
) -> None:
    """Run ``graph``'s tasks one after another on the calling thread, in
    insertion order — a topological order, since :meth:`TaskGraphBuilder.add`
    rejects forward dependencies.  This is the serial schedule of a
    declared pass, not a second executor: no retries, no intervals, no
    fault hook.

    Each maximal run of same-``op`` tasks shares one ``tracer`` span
    carrying their summed ``applications``; ``deadline`` is checked after
    every task, so no two checks are further apart than one task.
    """
    for op, run in groupby(graph.nodes, key=attrgetter("op")):
        run = list(run)
        span = nullcontext() if tracer is None else tracer.span(
            op, applications=sum(t.applications for t in run)
        )
        with span:
            for t in run:
                t.fn()
                if deadline is not None:
                    deadline.check(op)


@dataclass
class EngineResult:
    """Outcome of one engine run over a task graph."""

    makespan: float  # wall-clock seconds, run start to last task end
    n_workers: int
    n_tasks: int
    intervals: list[TaskInterval] = field(default_factory=list)
    retries: int = 0
    failures: list[TaskFailure] = field(default_factory=list)
    #: peak ready-queue depth observed while scheduling: how many tasks
    #: were runnable-but-unstarted at once (exposed parallelism)
    max_ready_depth: int = 0

    @property
    def busy_time(self) -> float:
        """Summed task execution seconds across all workers."""
        return sum(iv.duration for iv in self.intervals)

    @property
    def total_queue_wait(self) -> float:
        """Summed ready-to-start wait seconds across all tasks."""
        return sum(iv.queue_wait for iv in self.intervals)

    @property
    def utilization(self) -> float:
        if self.makespan <= 0.0:
            return 1.0
        return self.busy_time / (self.makespan * self.n_workers)

    def timeline(self) -> list[tuple[str, int, float, float]]:
        """``(label, worker, start, end)`` rows for trace-lane export."""
        return [(iv.label, iv.worker, iv.start, iv.end) for iv in self.intervals]


class _WorkerPool:
    """Minimal daemon-thread pool: a queue of thunks plus N loop threads.

    Replaces ``ThreadPoolExecutor`` because its threads are non-daemonic
    and joined at interpreter exit — a wedged task would hang pytest.
    Daemon threads plus a sentinel shutdown mean the interpreter can
    always exit.  Submitted thunks must not raise (the engine's
    ``execute`` wrapper captures everything); a raising thunk is dropped.
    """

    def __init__(self, n_workers: int, name: str = "repro-engine") -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._loop, daemon=True, name=f"{name}-{i}"
            )
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    def submit(self, fn: Callable[[], None]) -> None:
        self._queue.put(fn)

    def _loop(self) -> None:
        while True:
            fn = self._queue.get()
            if fn is None:
                return
            try:
                fn()
            except BaseException:
                pass  # execute() captures; never kill a worker thread

    def shutdown(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=1.0)
        self._threads = []


#: the process-wide helpers of :func:`run_claimed`, made on first need
_helpers: _WorkerPool | None = None
_helpers_lock = threading.Lock()
#: solves in flight in this process (:func:`solve_in_flight`)
_solves = 0


@contextmanager
def solve_in_flight():
    """Count one solve as in flight while the block runs (every solver's
    dispatch does): :func:`claimed_lanes` shares the usable CPUs among the
    solves in flight."""
    global _solves
    with _helpers_lock:
        _solves += 1
    try:
        yield
    finally:
        with _helpers_lock:
            _solves -= 1


def claimed_lanes() -> int:
    """The threads a :func:`run_claimed` call may use: the usable CPUs
    (:func:`default_workers`) shared among the solves in flight, at least
    one.  Two served solves on two CPUs run one lane each: three threads
    on two CPUs would make each wait for a helper's chunk behind the other
    solve's Python work, whose interpreter lock the helper needs to return.
    """
    return max(1, default_workers() // max(1, _solves))


def _helper_pool(n: int) -> _WorkerPool:
    """The shared helper pool, at least ``n`` threads wide."""
    global _helpers
    with _helpers_lock:
        old = _helpers
        if old is None or len(old._threads) < n:
            _helpers = _WorkerPool(n, name="repro-lane")
        pool = _helpers
    if old is not None and old is not pool:
        old.shutdown()  # queued thunks run before its sentinels
    return pool


class _Claims:
    """The claim counter of one :func:`run_claimed` call: ``running``
    counts the thunks claimed and not finished; the first error stops all
    further claims."""

    def __init__(self, thunks) -> None:
        self.thunks = thunks
        self.next = 0
        self.running = 0
        self.errors: dict[int, BaseException] = {}
        self.cond = threading.Condition()

    def work(self, deadline: Deadline | None = None, phase: str = "") -> None:
        """Claim, run, release, until nothing is left to claim; ``deadline``
        is checked after each thunk."""
        while True:
            with self.cond:
                if self.errors or self.next == len(self.thunks):
                    return
                i = self.next
                self.next += 1
                self.running += 1
            err = None
            try:
                self.thunks[i]()
                if deadline is not None:
                    deadline.check(phase)
            except BaseException as exc:
                err = exc
            with self.cond:
                if err is not None:
                    self.errors[i] = err
                self.running -= 1
                self.cond.notify_all()


def run_claimed(thunks, *, deadline: Deadline | None = None, phase: str = "") -> None:
    """Run the independent ``thunks`` once each on the calling thread and up
    to ``claimed_lanes() - 1`` helpers of one process-wide daemon pool:
    each takes the next unclaimed thunk.  The caller runs every thunk no
    helper has started, then waits only for those a helper claimed, so a
    helper queued behind another caller's work costs nothing.

    ``deadline`` is checked, naming ``phase``, after each thunk the caller
    runs.  Once a thunk raises (or the deadline expires) nothing more is
    claimed; when no claimed thunk is still running, the error of the first
    failed thunk in ``thunks`` order is raised as it is.  One thunk, or one
    lane, starts no thread.
    """
    run = _Claims(thunks)
    lanes = claimed_lanes()
    n_help = min(len(thunks), lanes) - 1
    if n_help > 0:
        pool = _helper_pool(default_workers() - 1)
        for _ in range(n_help):
            pool.submit(run.work)
    run.work(deadline, phase)
    with run.cond:
        run.cond.wait_for(lambda: run.running == 0)
    if run.errors:
        raise run.errors[min(run.errors)]


class ExecutionEngine:
    """Runs :class:`TaskGraphBuilder` graphs on a persistent worker pool.

    ``n_workers``, the one option, is the pool width (``None``:
    :func:`default_workers`).  The pool is created lazily on the first run
    and reused across runs (a time-stepping loop executes thousands of
    graphs; thread spawn cost must not recur per solve).  ``close()`` — or
    use as a context manager — shuts the pool down; it is idempotent and
    the engine stays usable afterwards (the next run lazily recreates the
    pool).
    """

    def __init__(self, n_workers: int | None = None) -> None:
        n = default_workers() if n_workers is None else int(n_workers)
        if n < 1:
            raise ValueError(f"n_workers must be >= 1, got {n}")
        self.n_workers = n
        self._pool: _WorkerPool | None = None
        self._lock = threading.Lock()
        #: test-only fault injection point: ``hook(label, attempt)`` is
        #: called before each task body (see resilience.FaultPlan.hook)
        self.fault_hook: Callable[[str, int], None] | None = None

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the pool down.  Idempotent and exception-safe."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> _WorkerPool:
        with self._lock:
            if self._pool is None:
                self._pool = _WorkerPool(self.n_workers)
            return self._pool

    def install_fault_plan(self, plan) -> None:
        """Arm (or with ``None`` disarm) a fault-injection plan.

        Process-level kinds (kill/stall/pipe_drop) are rejected here: a
        SIGKILL aimed at a worker *thread* would take the whole
        interpreter down — those specs belong on a
        :class:`~repro.runtime.shards.ProcessEngine`.
        """
        if plan is not None:
            from repro.resilience.faults import PROCESS_FAULT_KINDS

            bad = [s.kind for s in plan.faults if s.kind in PROCESS_FAULT_KINDS]
            if bad:
                raise ValueError(
                    f"process-level fault kinds {sorted(set(bad))} cannot be "
                    "installed on a thread engine; use ProcessEngine"
                )
        self.fault_hook = None if plan is None else plan.hook

    # ------------------------------------------------------------------ run
    def run(
        self, graph: TaskGraphBuilder, *, deadline: Deadline | None = None
    ) -> EngineResult:
        """Execute every task respecting dependencies; returns timings.

        The calling thread schedules: it submits ready tasks to the pool
        and folds completions back in.  Once ``deadline`` expires nothing
        new is started, in-flight tasks finish, and
        :class:`~repro.util.timing.SolveDeadlineError` is raised.
        """
        nodes = graph.nodes
        if not nodes:
            return EngineResult(0.0, self.n_workers, 0)
        pool = self._ensure_pool()
        indeg, dependents = _edges(nodes)
        cond = threading.Condition()
        completed: deque[tuple[int, BaseException | None]] = deque()
        failures: list[TaskFailure] = []
        intervals: list[TaskInterval] = []
        lanes: dict[int, int] = {}  # thread ident -> dense worker index
        retries = 0
        epoch = time.perf_counter()

        ready_at = [0.0] * len(nodes)  # roots are ready at the epoch

        def execute(node: TaskNode, attempt: int) -> None:
            hook = self.fault_hook
            err: BaseException | None = None
            start = time.perf_counter() - epoch
            try:
                if hook is not None:
                    hook(node.label, attempt)
                node.fn()
            except BaseException as e:  # supervised: capture, never leak
                err = e
            end = time.perf_counter() - epoch
            with cond:
                worker = lanes.setdefault(threading.get_ident(), len(lanes))
                intervals.append(
                    TaskInterval(
                        node.label,
                        worker,
                        start,
                        end,
                        None if err is not None else node.op,
                        0 if err is not None else node.applications,
                        node.id,
                        node.deps,
                        ready_at[node.id],
                    )
                )
                completed.append((node.id, err))
                cond.notify()

        attempts = [0] * len(nodes)
        pending = len(nodes)
        in_flight = 0
        ready = deque(t.id for t in nodes if indeg[t.id] == 0)
        max_depth = len(ready)
        abort: BaseException | None = None
        abort_cause: BaseException | None = None
        with cond:
            while pending > 0 and abort is None:
                while ready and abort is None:
                    tid = ready.popleft()
                    pool.submit(
                        lambda n=nodes[tid], a=attempts[tid]: execute(n, a)
                    )
                    in_flight += 1
                if in_flight == 0:
                    raise RuntimeError("task graph contains a dependency cycle")
                while not completed and abort is None:
                    timeout = None
                    if deadline is not None:
                        timeout = deadline.remaining()
                        if timeout <= 0.0:
                            done = len(nodes) - pending
                            abort = SolveDeadlineError(
                                deadline.seconds,
                                f"graph ({done}/{len(nodes)} tasks done)",
                            )
                            break
                    cond.wait(timeout)
                while completed:
                    tid, err = completed.popleft()
                    in_flight -= 1
                    if err is None:
                        pending -= 1
                        now = time.perf_counter() - epoch
                        for nxt in dependents.get(tid, ()):
                            indeg[nxt] -= 1
                            if indeg[nxt] == 0:
                                ready_at[nxt] = now
                                ready.append(nxt)
                        if len(ready) > max_depth:
                            max_depth = len(ready)
                        continue
                    node = nodes[tid]
                    can_retry = (
                        abort is None
                        and node.retryable
                        and attempts[tid] + 1 < MAX_ATTEMPTS
                    )
                    failures.append(
                        TaskFailure(node.label, attempts[tid], repr(err), can_retry)
                    )
                    if can_retry:
                        attempts[tid] += 1
                        retries += 1
                        pool.submit(lambda n=node, a=attempts[tid]: execute(n, a))
                        in_flight += 1
                    elif abort is None:
                        abort = GraphTaskError(
                            node.label, attempts[tid] + 1, failures
                        )
                        abort_cause = err
            # drain: stop feeding, let in-flight tasks finish
            while in_flight > 0:
                while not completed:
                    cond.wait()
                while completed:
                    completed.popleft()
                    in_flight -= 1
        if abort is not None:
            raise abort from abort_cause
        makespan = time.perf_counter() - epoch
        intervals.sort(key=lambda iv: (iv.worker, iv.start))
        return EngineResult(
            makespan=makespan,
            n_workers=self.n_workers,
            n_tasks=len(nodes),
            intervals=intervals,
            retries=retries,
            failures=failures,
            max_ready_depth=max_depth,
        )


def _edges(nodes: list[TaskNode]) -> tuple[list[int], dict[int, list[int]]]:
    indeg = [0] * len(nodes)
    dependents: dict[int, list[int]] = {}
    for t in nodes:
        indeg[t.id] = len(t.deps)
        for d in t.deps:
            dependents.setdefault(d, []).append(t.id)
    return indeg, dependents
