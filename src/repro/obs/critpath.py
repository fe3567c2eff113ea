"""Critical-path profiler over measured engine task intervals.

Answers *"why was this step slow?"* from the evidence the execution
engine already records: every finished task carries its DAG identity
(``task_id``, ``deps``), its cost-model ``op`` (P2M, M2L, P2P, ...: the
stage it is grouped under), the moment it became *ready* (all
dependencies done) and the moment a worker actually started it.  From
those we derive three views:

* **critical path** — walk backward from the task that finished last;
  at each task the *critical parent* is the dependency with the latest
  end time, because that is the dependency that actually delayed it.
  The chain's task durations plus the queue waits between links account
  for the whole makespan: shrink anything off this chain and the step
  does not get faster.
* **per-stage slack** — a backward pass computing, per task, how much
  it could stretch without moving the makespan (``latest_start -
  actual_start``); aggregated by stage this says which phases are
  genuinely load-bearing (zero slack) versus hidden under others.
* **worker idle attribution** — gaps in each worker's lane classified
  as *starvation* (nothing was ready: the DAG's fault) or *imbalance*
  (work was ready but this worker sat idle: the scheduler's fault),
  plus the tail idle after a worker's last task.

The report renders as text for ``python -m repro report``, as JSON for
the ledger, and as a synthetic ``critical-path`` lane in the Perfetto
export (overlaid on the real worker lanes it was extracted from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # annotation-only: a runtime import would cycle through
    # repro.runtime -> repro.costmodel -> repro.kernels -> repro.fmm -> obs
    from repro.runtime.engine import EngineResult, TaskInterval

__all__ = [
    "CritPathReport",
    "CritPathStep",
    "StageStat",
    "WorkerIdle",
    "analyze",
    "critical_path_timeline",
]


@dataclass
class CritPathStep:
    """One link of the critical path, in execution order (``stage`` is the
    task's ``op``)."""

    label: str
    stage: str
    worker: int
    start: float
    end: float
    queue_wait: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StageStat:
    """Aggregate view of one stage (P2M, M2L, P2P, ...)."""

    stage: str
    n_tasks: int = 0
    busy: float = 0.0
    queue_wait: float = 0.0
    min_slack: float = 0.0
    on_critical_path: float = 0.0  # seconds of this stage on the path


@dataclass
class WorkerIdle:
    """Idle-time attribution for one worker lane."""

    worker: int
    busy: float = 0.0
    starved: float = 0.0  # idle with nothing ready (DAG serialization)
    imbalance: float = 0.0  # idle while ready work existed elsewhere
    tail: float = 0.0  # idle after this worker's last task


@dataclass
class CritPathReport:
    """Everything :func:`analyze` derives from one engine run."""

    makespan: float
    n_workers: int
    n_tasks: int
    utilization: float
    total_queue_wait: float
    max_ready_depth: int
    path: list[CritPathStep] = field(default_factory=list)
    stages: list[StageStat] = field(default_factory=list)
    workers: list[WorkerIdle] = field(default_factory=list)

    @property
    def path_busy(self) -> float:
        return sum(s.duration for s in self.path)

    @property
    def path_wait(self) -> float:
        return sum(s.queue_wait for s in self.path)

    @property
    def path_coverage(self) -> float:
        """Fraction of the makespan the critical chain accounts for."""
        if self.makespan <= 0.0:
            return 1.0
        return min(1.0, (self.path_busy + self.path_wait) / self.makespan)

    # ------------------------------------------------------------- export
    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "n_workers": self.n_workers,
            "n_tasks": self.n_tasks,
            "utilization": self.utilization,
            "total_queue_wait": self.total_queue_wait,
            "max_ready_depth": self.max_ready_depth,
            "path_busy": self.path_busy,
            "path_wait": self.path_wait,
            "path_coverage": self.path_coverage,
            "critical_path": [
                {
                    "label": s.label,
                    "stage": s.stage,
                    "worker": s.worker,
                    "start": s.start,
                    "end": s.end,
                    "queue_wait": s.queue_wait,
                }
                for s in self.path
            ],
            "stages": [
                {
                    "stage": st.stage,
                    "n_tasks": st.n_tasks,
                    "busy": st.busy,
                    "queue_wait": st.queue_wait,
                    "min_slack": st.min_slack,
                    "on_critical_path": st.on_critical_path,
                }
                for st in self.stages
            ],
            "workers": [
                {
                    "worker": w.worker,
                    "busy": w.busy,
                    "starved": w.starved,
                    "imbalance": w.imbalance,
                    "tail": w.tail,
                }
                for w in self.workers
            ],
        }

    def summary_for_ledger(self) -> dict[str, Any]:
        """Compact scalars for a :class:`~repro.obs.ledger.RunRecord`."""
        top = self.stages[0].stage if self.stages else ""
        return {
            "makespan": self.makespan,
            "utilization": self.utilization,
            "path_coverage": self.path_coverage,
            "path_busy": self.path_busy,
            "path_wait": self.path_wait,
            "max_ready_depth": self.max_ready_depth,
            "dominant_stage": top,
        }

    def to_text(self, *, max_links: int = 12) -> str:
        """The human ``python -m repro report`` rendering."""
        ms = 1e3
        lines: list[str] = []
        lines.append(
            "critical path: %d/%d tasks cover %.1f%% of the %.2f ms makespan "
            "(%.2f ms busy + %.2f ms queue wait), %d workers at %.0f%% utilization"
            % (
                len(self.path),
                self.n_tasks,
                100.0 * self.path_coverage,
                self.makespan * ms,
                self.path_busy * ms,
                self.path_wait * ms,
                self.n_workers,
                100.0 * self.utilization,
            )
        )
        lines.append("")
        lines.append("  critical chain (first -> last):")
        shown = self.path
        elided = 0
        if len(shown) > max_links:
            keep = max_links // 2
            elided = len(shown) - 2 * keep
            shown = shown[:keep] + shown[-keep:]
        for i, s in enumerate(shown):
            if elided and i == len(shown) // 2:
                lines.append("    ... %d links elided ..." % elided)
            wait = "  (+%.2f ms wait)" % (s.queue_wait * ms) if s.queue_wait > 1e-9 else ""
            lines.append(
                "    [%s] %-28s w%-2d %8.2f ms%s"
                % (s.stage or "-", s.label[:28], s.worker, s.duration * ms, wait)
            )
        lines.append("")
        lines.append("  per-stage slack (zero slack = load-bearing):")
        lines.append(
            "    %-8s %6s %10s %10s %10s %10s"
            % ("stage", "tasks", "busy ms", "wait ms", "slack ms", "on-path ms")
        )
        for st in self.stages:
            lines.append(
                "    %-8s %6d %10.2f %10.2f %10.2f %10.2f"
                % (
                    st.stage or "-",
                    st.n_tasks,
                    st.busy * ms,
                    st.queue_wait * ms,
                    st.min_slack * ms,
                    st.on_critical_path * ms,
                )
            )
        lines.append("")
        lines.append("  worker idle attribution:")
        lines.append(
            "    %-8s %10s %10s %12s %10s"
            % ("worker", "busy ms", "starved ms", "imbalance ms", "tail ms")
        )
        for w in self.workers:
            lines.append(
                "    w%-7d %10.2f %10.2f %12.2f %10.2f"
                % (w.worker, w.busy * ms, w.starved * ms, w.imbalance * ms, w.tail * ms)
            )
        return "\n".join(lines)


def _critical_chain(intervals: Sequence[TaskInterval]) -> list[TaskInterval]:
    """Backward walk from the last-finishing task via latest-ending deps."""
    if not intervals:
        return []
    by_id = {iv.task_id: iv for iv in intervals if iv.task_id >= 0}
    tail = max(intervals, key=lambda iv: iv.end)
    chain = [tail]
    seen = {tail.task_id}
    cur = tail
    while True:
        parents = [by_id[d] for d in cur.deps if d in by_id and d not in seen]
        if not parents:
            break
        crit = max(parents, key=lambda iv: iv.end)
        chain.append(crit)
        seen.add(crit.task_id)
        cur = crit
    chain.reverse()
    return chain


def _slack(intervals: Sequence[TaskInterval], makespan: float) -> dict[int, float]:
    """Per-task slack: how late each task could finish without moving
    the makespan, given the successors that depend on it."""
    latest_finish = {iv.task_id: makespan for iv in intervals if iv.task_id >= 0}
    by_id = {iv.task_id: iv for iv in intervals if iv.task_id >= 0}
    # process in reverse topological order: sort by start time descending
    # is a valid linearization because a dep always starts before its user
    for iv in sorted(intervals, key=lambda i: i.start, reverse=True):
        if iv.task_id < 0:
            continue
        lf = latest_finish[iv.task_id]
        latest_start = lf - iv.duration
        for dep in iv.deps:
            if dep in by_id and latest_start < latest_finish[dep]:
                latest_finish[dep] = latest_start
    return {
        tid: max(0.0, latest_finish[tid] - by_id[tid].end) for tid in by_id
    }


def _worker_idle(
    intervals: Sequence[TaskInterval], makespan: float, n_workers: int
) -> list[WorkerIdle]:
    """Classify each worker's idle gaps as starvation or imbalance.

    A gap on worker *w* overlapping a moment when some task was ready
    (its ``ready`` timestamp passed) but not yet started counts as
    imbalance; a gap with nothing ready is starvation — the DAG simply
    had no parallelism to offer.
    """
    # ready-but-unstarted windows across all tasks
    windows = sorted(
        (iv.ready, iv.start) for iv in intervals if iv.start > iv.ready + 1e-12
    )

    def ready_overlap(lo: float, hi: float) -> float:
        total = 0.0
        cover_hi = lo
        for a, b in windows:
            if a >= hi:
                break
            a, b = max(a, cover_hi), min(b, hi)
            if b > a:
                total += b - a
                cover_hi = b
        return total

    out: list[WorkerIdle] = []
    lanes: dict[int, list[TaskInterval]] = {w: [] for w in range(n_workers)}
    for iv in intervals:
        lanes.setdefault(iv.worker, []).append(iv)
    for w in sorted(lanes):
        lane = sorted(lanes[w], key=lambda i: i.start)
        stat = WorkerIdle(worker=w)
        cursor = 0.0
        for iv in lane:
            if iv.start > cursor:
                overlap = ready_overlap(cursor, iv.start)
                stat.imbalance += overlap
                stat.starved += (iv.start - cursor) - overlap
            cursor = max(cursor, iv.end)
            stat.busy += iv.duration
        if makespan > cursor:
            stat.tail += makespan - cursor
        out.append(stat)
    return out


def analyze(result: EngineResult) -> CritPathReport:
    """Full critical-path analysis of one :class:`EngineResult`."""
    intervals = result.intervals
    report = CritPathReport(
        makespan=result.makespan,
        n_workers=result.n_workers,
        n_tasks=result.n_tasks,
        utilization=result.utilization,
        total_queue_wait=result.total_queue_wait,
        max_ready_depth=result.max_ready_depth,
    )
    if not intervals:
        return report

    chain = _critical_chain(intervals)
    on_path = {iv.task_id for iv in chain}
    report.path = [
        CritPathStep(iv.label, iv.op or "", iv.worker, iv.start, iv.end, iv.queue_wait)
        for iv in chain
    ]

    slack = _slack(intervals, result.makespan)
    stats: dict[str, StageStat] = {}
    for iv in intervals:
        key = iv.op or ""
        st = stats.get(key)
        if st is None:
            st = stats[key] = StageStat(key, min_slack=float("inf"))
        st.n_tasks += 1
        st.busy += iv.duration
        st.queue_wait += iv.queue_wait
        st.min_slack = min(st.min_slack, slack.get(iv.task_id, 0.0))
        if iv.task_id in on_path:
            st.on_critical_path += iv.duration
    for st in stats.values():
        if st.min_slack == float("inf"):
            st.min_slack = 0.0
    report.stages = sorted(
        stats.values(), key=lambda s: (-s.on_critical_path, -s.busy)
    )

    report.workers = _worker_idle(intervals, result.makespan, result.n_workers)
    return report


def critical_path_timeline(
    report: CritPathReport, *, lane: int | None = None
) -> tuple[list[tuple[str, int, float, float]], dict[int, str]]:
    """The report's chain as a trace-lane timeline.

    Returns ``(timeline, lane_names)`` ready for
    :meth:`repro.obs.trace.Tracer.add_worker_lanes` with
    ``advance_cursor=False`` so the synthetic lane overlays the same
    time window as the real worker lanes.  ``lane`` defaults to one
    past the last worker index.
    """
    tid = report.n_workers if lane is None else lane
    rows = [(f"[{s.stage}] {s.label}", tid, s.start, s.end) for s in report.path]
    return rows, {tid: "critical-path"}
