"""Discrete-event simulation of an OpenMP-style task scheduler.

Simulates K worker threads executing a :class:`~repro.runtime.tasks.TaskGraph`
with work stealing.  The model charges:

* a per-task scheduling overhead (spawn + steal handshake);
* a per-core effective FLOP rate;
* a **multi-socket cache bonus** — per-core rate grows slightly as more
  sockets' L3 capacity becomes reachable (the paper observes a small
  superlinear speedup up to 16 cores and conjectures exactly this cause);
* a **memory-bandwidth roofline** — when the aggregate byte demand of
  running tasks exceeds the machine's bandwidth, all running tasks slow
  proportionally (the paper conjectures memory saturation for the
  diminishing speedup at high thread counts).

The simulation is event-driven: between events every running task
progresses at the current effective rate; rates are recomputed whenever
the set of running tasks changes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from repro.runtime.tasks import TaskGraph

__all__ = ["CPUSpec", "ScheduleResult", "simulate_schedule"]


@dataclass(frozen=True)
class CPUSpec:
    """Multicore CPU description (defaults approximate 2x Xeon X5670)."""

    name: str = "x5670x2"
    n_cores: int = 12
    cores_per_socket: int = 6
    #: effective FLOP rate of one core on expansion code (not peak)
    core_flops: float = 2.5e9
    #: per-task scheduling cost in seconds (spawn + dequeue + steal amortized)
    task_overhead_s: float = 1.2e-6
    #: aggregate memory bandwidth in bytes/s
    mem_bandwidth: float = 2.2e10
    #: fractional per-core speed bonus per additional reachable socket's L3
    cache_bonus_per_socket: float = 0.03

    def __post_init__(self) -> None:
        if self.n_cores < 1 or self.cores_per_socket < 1:
            raise ValueError("core counts must be positive")
        if self.core_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("rates must be positive")

    def core_rate(self, n_active_cores: int) -> float:
        """Per-core FLOP rate given how many cores participate.

        More sockets in play -> more aggregate L3 -> multipole expansions
        stay resident and are reused (§VIII-C's superlinearity conjecture).
        """
        sockets = (max(1, n_active_cores) + self.cores_per_socket - 1) // self.cores_per_socket
        return self.core_flops * (1.0 + self.cache_bonus_per_socket * (sockets - 1))


@dataclass
class ScheduleResult:
    """Outcome of one simulated schedule."""

    makespan: float
    n_workers: int
    total_work: float
    busy_time: float  # summed task execution time (excl. idle)
    overhead_time: float
    #: per-task ``(task_id, worker, start, end)`` intervals in simulated
    #: seconds; populated only when ``record_timeline=True`` (tracing), so
    #: the default path stays allocation-free.  Tasks run continuously from
    #: launch to completion, so ``sum(end - start)`` equals ``busy_time``
    #: and the trace exporter and :attr:`utilization` agree by
    #: construction.
    timeline: list[tuple[int, int, float, float]] | None = None
    #: the graph and CPU scheduled, for :attr:`critical_path`
    graph: TaskGraph | None = field(default=None, repr=False, compare=False)
    spec: CPUSpec | None = field(default=None, repr=False, compare=False)

    @property
    def utilization(self) -> float:
        if self.makespan == 0:
            return 1.0
        return self.busy_time / (self.makespan * self.n_workers)

    @cached_property
    def critical_path(self) -> float:
        """The graph's longest dependency chain at one core's rate, in
        seconds — worked out on first read: a modeled step reads only the
        makespan and busy time."""
        if self.graph is None:
            return 0.0
        return self.graph.critical_path() / self.spec.core_rate(1)


def simulate_schedule(
    graph: TaskGraph,
    spec: CPUSpec,
    n_workers: int,
    *,
    record_timeline: bool = False,
) -> ScheduleResult:
    """Simulate executing ``graph`` on ``n_workers`` cores of ``spec``.

    Ready tasks are assigned to idle workers greedily (a faithful-enough
    stand-in for randomized stealing at this granularity: both keep every
    worker busy whenever ready tasks exist, which is the property the
    speedup depends on).  With ``record_timeline=True`` the result carries
    every task's ``(task_id, worker, start, end)`` interval for trace
    export.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    n = len(graph.work)
    if n == 0:
        return ScheduleResult(0.0, n_workers, 0.0, 0.0, 0.0,
                              timeline=[] if record_timeline else None)

    skel = graph.skeleton
    dependents = skel.dependents
    indeg = list(skel.indegree)
    ready: list[int] = [i for i in range(n) if indeg[i] == 0]
    ready.reverse()  # LIFO: depth-first order, like task stealing runtimes
    # amortize the spawn/steal handshake into each task's work so it is
    # paid by the executing worker, not serialized on a global clock
    overhead_flops = spec.task_overhead_s * spec.core_flops
    remaining = [w + overhead_flops for w in graph.work]
    bytes_rate = [
        (b / r) if r > 0 else 0.0 for b, r in zip(graph.nbytes, remaining)
    ]
    #: per-core FLOP rate by the number of running tasks
    core_rate = [spec.core_rate(k) for k in range(n_workers + 1)]
    bandwidth = spec.mem_bandwidth

    # The running tasks twice over: in launch order with their byte rates
    # (the roofline sums them in that order), and by remaining work.  Every
    # running task advances by the same amount and rounding is monotone, so
    # the second list stays sorted and the tasks that finish — remaining
    # work at most 1e-9 — are always a prefix of it.
    running: list[int] = []
    demands: list[float] = []
    by_left: list[int] = []
    left: list[float] = []
    clock = 0.0
    busy_time = 0.0
    overhead_time = 0.0
    per_task_overhead = spec.task_overhead_s
    done = 0

    # timeline bookkeeping exists only when requested (tracing on)
    timeline: list[tuple[int, int, float, float]] | None = None
    free_workers: list[int] = []
    task_worker: dict[int, int] = {}
    task_start: dict[int, float] = {}
    if record_timeline:
        timeline = []
        free_workers = list(range(n_workers - 1, -1, -1))

    k = 0
    while done < n:
        # launch ready tasks onto idle workers (charging spawn overhead)
        while ready and k < n_workers:
            tid = ready.pop()
            work = remaining[tid]
            at = bisect_right(left, work)
            left.insert(at, work)
            by_left.insert(at, tid)
            running.append(tid)
            demands.append(bytes_rate[tid])
            k += 1
            overhead_time += per_task_overhead
            if timeline is not None:
                task_worker[tid] = free_workers.pop()
                task_start[tid] = clock
        if not k:
            raise RuntimeError("deadlock: no running tasks but graph incomplete")
        # the FLOP rate of every running task under the roofline
        rate = core_rate[k]
        demand = sum(demands) * rate
        if demand > bandwidth:
            rate *= bandwidth / demand
        # time until the first running task completes at the current rate
        advanced = left[0]
        compute_dt = advanced / rate if rate > 0 else 0.0
        clock += compute_dt
        busy_time += compute_dt * k
        left = [w - advanced for w in left]
        j = bisect_right(left, 1e-9)
        finished = by_left[:j]
        del by_left[:j], left[:j]
        if j > 1:
            finished.sort(key=running.index)  # launch order
        k -= j
        done += j
        for tid in finished:
            at = running.index(tid)
            del running[at], demands[at]
            if timeline is not None:
                worker = task_worker.pop(tid)
                timeline.append((tid, worker, task_start.pop(tid), clock))
                free_workers.append(worker)
            for nxt in dependents[tid]:
                indeg[nxt] -= 1
                if not indeg[nxt]:
                    ready.append(nxt)

    return ScheduleResult(
        makespan=clock,
        n_workers=n_workers,
        total_work=graph.total_work,
        busy_time=busy_time,
        overhead_time=overhead_time,
        timeline=timeline,
        graph=graph,
        spec=spec,
    )
