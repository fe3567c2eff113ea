"""Task runtime: the simulated work-stealing scheduler (task DAG
extraction + discrete-event simulation), the *real* dependency-driven
thread-pool execution engine that runs the batched FMM pipeline
concurrently (:mod:`repro.runtime.engine`: it runs the DAGs the passes
declare, and :func:`~repro.runtime.engine.run_in_order` walks one
serially), and the sharded multi-process backend with shared-memory halo
exchange (:mod:`repro.runtime.shards`)."""

from repro.runtime.tasks import Task, TaskGraph, build_fmm_task_graph, build_treebuild_task_graph
from repro.runtime.scheduler import CPUSpec, ScheduleResult, simulate_schedule
from repro.runtime.engine import (
    EngineResult,
    ExecutionEngine,
    TaskGraphBuilder,
    TaskInterval,
    TaskNode,
    default_workers,
)
from repro.runtime.shards import ProcessEngine, ShardExecutionError, ShardRunResult

__all__ = [
    "ProcessEngine",
    "ShardExecutionError",
    "ShardRunResult",
    "Task",
    "TaskGraph",
    "build_fmm_task_graph",
    "build_treebuild_task_graph",
    "CPUSpec",
    "ScheduleResult",
    "simulate_schedule",
    "EngineResult",
    "ExecutionEngine",
    "TaskGraphBuilder",
    "TaskInterval",
    "TaskNode",
    "default_workers",
]
