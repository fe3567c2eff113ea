"""The heterogeneous executor: turns a tree configuration into the
per-step CPU/GPU times of the paper's model.

Semantics follow §III-D: the GPU kernels and the CPU tree traversal start
together from the same parallel region, so the step's **Compute Time** is
``max(CPU time, GPU time)`` (§VII-A).  The executor

* simulates the CPU far-field phase by building the *actual* task DAG of
  the *actual* tree and running it through the work-stealing scheduler
  simulator on the machine's cores;
* times the GPU near-field phase with the warp/block kernel model after
  partitioning target nodes across GPUs by interaction count (§III-C);
* derives the observed per-operation coefficients of §IV-D (CPU time is
  attributed to operations in proportion to their FLOPs; the GPU P2P
  coefficient is max kernel time over total interaction count);
* charges the load-balancing *maintenance* operations (tree rebuild,
  Enforce_S sweeps, fine-grained prediction rounds) so strategy overhead
  is accountable (Table II).

On GPU-less machines the near field joins the CPU task graph (System B /
the serial baseline of §VIII-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.flops import atomic_units
from repro.gpu.model import GPUKernelModel, KernelTiming
from repro.gpu.partition import near_field_work, partition_bounds
from repro.kernels.base import EXPANSION_OPS, Kernel
from repro.machine.spec import MachineSpec
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime.scheduler import simulate_schedule
from repro.runtime.tasks import build_fmm_task_graph, build_treebuild_task_graph
from repro.tree.cache import ListCache
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.rng import default_rng
from repro.util.timing import TimerRegistry

__all__ = ["HeterogeneousExecutor", "StepTiming"]


@dataclass
class StepTiming:
    """Modeled timings of one FMM time step."""

    cpu_time: float
    gpu_time: float
    per_gpu: list[KernelTiming] = field(default_factory=list)
    op_counts: dict[str, int] = field(default_factory=dict)
    op_flops: dict[str, float] = field(default_factory=dict)
    cpu_registry: TimerRegistry = field(default_factory=TimerRegistry)
    gpu_p2p_coefficient: float = 0.0
    gpu_efficiency: float = 1.0

    @property
    def compute_time(self) -> float:
        """§VII-A: the maximum of the CPU and GPU wall-clock times."""
        return max(self.cpu_time, self.gpu_time)

    @property
    def dominant(self) -> str:
        return "cpu" if self.cpu_time >= self.gpu_time else "gpu"


class HeterogeneousExecutor:
    """Times FMM steps and maintenance operations on a machine model."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        order: int = 4,
        kernel: Kernel | None = None,
        seed: int | None = 0,
        offload_endpoints: bool = False,
        list_cache: ListCache | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """``offload_endpoints`` enables the §VIII-E extension: P2M and L2P
        move to the GPUs ("The way forward in such an unbalanced situation
        is to move additional work to the GPU ... This can include the P2M
        expansion formation and L2P expansion evaluation")."""
        self.machine = machine
        self.order = order
        self.kernel = kernel
        self.offload_endpoints = offload_endpoints
        self.units = atomic_units(order, kernel)
        #: shared with the balance controller so observation steps and
        #: candidate evaluations on a frozen-shape tree reuse one build
        self.list_cache = list_cache if list_cache is not None else ListCache()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._rng = default_rng(seed)
        self._gpu_models = [GPUKernelModel(g) for g in machine.gpus]
        if offload_endpoints and machine.n_gpus == 0:
            raise ValueError("cannot offload P2M/L2P without GPUs")

    # ------------------------------------------------------------- stepping
    def time_step(self, tree: AdaptiveOctree, lists: InteractionLists | None = None) -> StepTiming:
        """Model the compute time of one FMM solve on the current tree."""
        tracer = self.telemetry.tracer
        if lists is None:
            lists = self.list_cache.get(tree)
        counts = lists.op_counts()
        flops = self._op_flops(tree, lists, counts)

        include_near = self.machine.n_gpus == 0
        with tracer.span("far-field", n_nodes=len(tree.nodes)):
            graph = build_fmm_task_graph(
                tree,
                lists,
                order=self.order,
                kernel=self.kernel,
                include_near_field=include_near,
                include_endpoints=not self.offload_endpoints,
            )
            sched = simulate_schedule(
                graph,
                self.machine.cpu,
                self.machine.cpu.n_cores,
                record_timeline=tracer.enabled,
            )
        if sched.timeline is not None:
            labels = graph.skeleton.labels
            tracer.add_worker_lanes(
                ((labels[tid] or tid, w, s, e) for tid, w, s, e in sched.timeline),
                makespan=sched.makespan,
            )
        noise = self._noise()
        cpu_time = sched.makespan * noise
        # §IV-D derives coefficients from per-thread busy time ("the times
        # over all threads are summed and divided by the ... operation
        # count"), so attribution uses busy core-seconds spread over the
        # cores, not the makespan — this keeps coefficients transferable
        # between trees with very different parallel slack.
        attributable = (sched.busy_time / self.machine.cpu.n_cores) * noise

        per_gpu: list[KernelTiming] = []
        gpu_time = 0.0
        gpu_coeff = 0.0
        gpu_eff = 1.0
        if self.machine.n_gpus > 0:
            with tracer.span("near-field", n_gpus=self.machine.n_gpus):
                work = near_field_work(lists)
                bounds = partition_bounds(work.interactions.tolist(), self.machine.n_gpus)
                per_gpu = [
                    m.time_work(work, lo, hi) for m, (lo, hi) in zip(self._gpu_models, bounds)
                ]
                per_gpu = [
                    KernelTiming(t.kernel_time * self._noise(), t.n_blocks, t.interactions, t.issued_body_steps)
                    for t in per_gpu
                ]
                gpu_time = max(t.kernel_time for t in per_gpu)
                if self.offload_endpoints:
                    # P2M + L2P run as extra GPU kernels, split evenly; charged
                    # at the device's effective FLOP throughput
                    endpoint_flops = flops["P2M"] + flops["L2P"]
                    gpu_time += endpoint_flops / (
                        self._gpu_flop_rate() * self.machine.n_gpus
                    )
                total_inter = sum(t.interactions for t in per_gpu)
                gpu_coeff = gpu_time / total_inter if total_inter else 0.0
                issued = sum(t.issued_body_steps for t in per_gpu)
                gpu_eff = total_inter / issued if issued else 1.0

        cpu_flops = dict(flops)
        if self.offload_endpoints:
            cpu_flops["P2M"] = 0.0
            cpu_flops["L2P"] = 0.0
        registry = self._attribute_cpu_time(attributable, counts, cpu_flops, include_near)
        if self.telemetry.enabled:
            self._record_step_metrics(registry, gpu_coeff)
        return StepTiming(
            cpu_time=cpu_time,
            gpu_time=gpu_time,
            per_gpu=per_gpu,
            op_counts=counts,
            op_flops=flops,
            cpu_registry=registry,
            gpu_p2p_coefficient=gpu_coeff,
            gpu_efficiency=gpu_eff,
        )

    # --------------------------------------------------- maintenance costing
    def time_tree_build(self, tree: AdaptiveOctree) -> float:
        """Cost of a full rebuild of ``tree`` (§III-B parallel construction)."""
        graph = build_treebuild_task_graph(tree)
        sched = simulate_schedule(graph, self.machine.cpu, self.machine.cpu.n_cores)
        return sched.makespan * self._noise()

    def time_enforce_s(self, tree: AdaptiveOctree, ops: dict[str, int]) -> float:
        """Cost of an Enforce_S sweep (visit every node, apply ops)."""
        n_nodes = len(tree.nodes)
        n_ops = ops.get("collapses", 0) + ops.get("pushdowns", 0)
        flops = 200.0 * n_nodes + 4000.0 * n_ops
        return self._cpu_parallel_time(flops) * self._noise()

    def time_prediction(self, tree: AdaptiveOctree) -> float:
        """Cost of one §IV-D time prediction (an op recount over the tree)."""
        flops = 60.0 * len(tree.effective_nodes())
        return self._cpu_parallel_time(flops) * self._noise()

    def time_surgery(self, n_operations: int) -> float:
        """Cost of applying a batch of collapse/pushdown operations."""
        return self._cpu_parallel_time(4000.0 * max(0, n_operations)) * self._noise()

    # --------------------------------------------------------------- helpers
    def _record_step_metrics(self, registry, gpu_coeff) -> None:
        """Mirror one step's observed §IV-D coefficients (the quantities the
        balancer reads) into the metrics registry as gauges; the step's
        phase times are the step log's ``cpu_time`` / ``gpu_time``."""
        m = self.telemetry.metrics
        for op, value in registry.coefficients().items():
            if value > 0.0:
                m.gauge(
                    "fmm_op_coefficient_seconds",
                    "observed per-application cost of one FMM operation (§IV-D)",
                    labels={"op": op, "device": "cpu"},
                ).set(value)
        if gpu_coeff > 0.0:
            m.gauge(
                "fmm_op_coefficient_seconds",
                "observed per-application cost of one FMM operation (§IV-D)",
                labels={"op": "P2P", "device": "gpu"},
            ).set(gpu_coeff)

    def _gpu_flop_rate(self) -> float:
        """Effective FLOPs/s of one GPU (peak interaction rate x FLOPs/pair)."""
        g = self.machine.gpus[0]
        p2p_flops = self.kernel.interaction_flops() if self.kernel else 20.0
        return g.warp_size * g.n_sms * g.clock_hz / g.body_cycles * p2p_flops

    def _cpu_parallel_time(self, flops: float) -> float:
        cpu = self.machine.cpu
        rate = cpu.core_rate(cpu.n_cores) * cpu.n_cores
        return flops / rate

    def _noise(self) -> float:
        sigma = self.machine.timing_noise
        if sigma <= 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, sigma)))

    def _op_flops(self, tree, lists, counts) -> dict[str, float]:
        # op counts are in shape-independent units (per body / shift /
        # pair), so total FLOPs are simply unit x count
        return {op: self.units[op] * counts.get(op, 0) for op in self.units}

    def _attribute_cpu_time(self, cpu_time, counts, flops, include_near) -> TimerRegistry:
        """Split the CPU wall time over operations by FLOP share (§IV-D's
        per-thread accumulation, aggregated)."""
        reg = TimerRegistry()
        ops = list(EXPANSION_OPS) + (["P2P"] if include_near else [])
        total = sum(flops[op] for op in ops)
        if total <= 0:
            return reg
        for op in ops:
            if counts.get(op, 0) > 0 and flops[op] > 0:
                reg.add(op, cpu_time * flops[op] / total, counts[op])
        return reg
