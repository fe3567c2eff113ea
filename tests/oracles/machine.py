"""The per-node modeled machine — the reference the array-built one of
:mod:`repro.runtime.tasks`, :mod:`repro.runtime.scheduler`,
:mod:`repro.gpu` and :meth:`repro.machine.HeterogeneousExecutor.time_step`
is tested against bit for bit (and the baseline
``benchmarks/test_bench_hotpaths.py`` times it against).

One :class:`Task` object per node and sweep, the critical path over a
fresh topological order, a discrete-event loop over a dict of running
tasks, one :class:`~repro.gpu.partition.NearFieldWorkItem` per target
leaf and a linear scan for the least-loaded SM: the modeled machine as it
was before it was built from arrays, unchanged.  Nothing under ``src/``
calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costmodel.flops import atomic_units
from repro.gpu.model import GPUSpec, KernelTiming
from repro.gpu.partition import NearFieldWorkItem
from repro.machine.executor import StepTiming
from repro.runtime.scheduler import CPUSpec
from repro.runtime.tasks import Task

__all__ = [
    "OracleSchedule",
    "OracleTaskGraph",
    "build_fmm_task_graph",
    "near_field_work_items",
    "partition_targets",
    "simulate_schedule",
    "time_items",
    "time_step",
]

_EXPANSION_BYTES_PER_FLOP = 0.55
_P2P_BYTES_PER_FLOP = 0.12


@dataclass
class OracleSchedule:
    makespan: float
    n_workers: int
    total_work: float
    critical_path: float
    busy_time: float
    overhead_time: float
    timeline: list[tuple[int, int, float, float]] | None = None


class OracleTaskGraph:
    def __init__(self, tasks: list[Task]) -> None:
        self.tasks = tasks

    @property
    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    def critical_path(self) -> float:
        finish = [0.0] * len(self.tasks)
        for tid in self._topo_order():
            t = self.tasks[tid]
            start = max((finish[d] for d in t.deps), default=0.0)
            finish[tid] = start + t.work
        return max(finish, default=0.0)

    def _topo_order(self) -> list[int]:
        n = len(self.tasks)
        indeg = [0] * n
        out: dict[int, list[int]] = {}
        for t in self.tasks:
            for d in t.deps:
                indeg[t.id] += 1
                out.setdefault(d, []).append(t.id)
        ready = [i for i in range(n) if indeg[i] == 0]
        order = []
        while ready:
            cur = ready.pop()
            order.append(cur)
            for nxt in out.get(cur, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != n:
            raise ValueError("task graph contains a dependency cycle")
        return order


def build_fmm_task_graph(
    tree, lists, *, order, kernel=None, include_near_field=False, include_endpoints=True
) -> OracleTaskGraph:
    units = atomic_units(order, kernel)
    if not include_endpoints:
        units = dict(units)
        units["P2M"] = 0.0
        units["L2P"] = 0.0
    nodes = tree.nodes
    eff = tree.effective_nodes()
    up_id: dict[int, int] = {}
    down_id: dict[int, int] = {}
    tasks: list[Task] = []

    def new_task(work, deps, label, nbytes):
        t = Task(id=len(tasks), work=work, deps=deps, label=label, bytes=nbytes)
        tasks.append(t)
        return t.id

    for nid in reversed(eff):
        node = nodes[nid]
        if node.is_leaf:
            work = units["P2M"] * node.count
            deps: list[int] = []
        else:
            kids = tree.effective_children(nid)
            work = units["M2M"] * len(kids)
            deps = [up_id[c] for c in kids]
        up_id[nid] = new_task(work, deps, f"up:{nid}", work * _EXPANSION_BYTES_PER_FLOP)

    for nid in eff:
        node = nodes[nid]
        deps = []
        if node.parent >= 0:
            deps.append(down_id[node.parent])
        work = 0.0
        if node.parent >= 0:
            work += units["L2L"]
        v = lists.v_list.get(nid, ())
        work += units["M2L"] * len(v)
        deps.extend(up_id[s] for s in v)
        if node.is_leaf:
            work += units["L2P"] * node.count
        nbytes = work * _EXPANSION_BYTES_PER_FLOP
        if node.is_leaf and include_near_field:
            n_src = sum(nodes[s].count for s in lists.near_sources.get(nid, ()))
            p2p_work = units["P2P"] * node.count * n_src
            work += p2p_work
            nbytes += p2p_work * _P2P_BYTES_PER_FLOP
        down_id[nid] = new_task(work, deps, f"down:{nid}", nbytes)

    return OracleTaskGraph(tasks)


def simulate_schedule(
    graph: OracleTaskGraph, spec: CPUSpec, n_workers: int, *, record_timeline=False
) -> OracleSchedule:
    n = len(graph.tasks)
    if n == 0:
        return OracleSchedule(0.0, n_workers, 0.0, 0.0, 0.0, 0.0,
                              timeline=[] if record_timeline else None)
    indeg = [0] * n
    dependents: dict[int, list[int]] = {}
    for t in graph.tasks:
        indeg[t.id] = len(t.deps)
        for d in t.deps:
            dependents.setdefault(d, []).append(t.id)
    ready: list[int] = [i for i in range(n) if indeg[i] == 0]
    ready.reverse()
    overhead_flops = spec.task_overhead_s * spec.core_flops
    remaining = [graph.tasks[i].work + overhead_flops for i in range(n)]
    bytes_rate = [
        (graph.tasks[i].bytes / remaining[i]) if remaining[i] > 0 else 0.0
        for i in range(n)
    ]
    running: dict[int, float] = {}
    idle_workers = n_workers
    clock = 0.0
    busy_time = 0.0
    overhead_time = 0.0
    per_task_overhead = spec.task_overhead_s
    done = 0
    timeline = None
    free_workers: list[int] = []
    task_worker: dict[int, int] = {}
    task_start: dict[int, float] = {}
    if record_timeline:
        timeline = []
        free_workers = list(range(n_workers - 1, -1, -1))

    def effective_rate() -> float:
        k = len(running)
        if k == 0:
            return 0.0
        rate = spec.core_rate(k)
        demand = sum(bytes_rate[tid] for tid in running) * rate
        if demand > spec.mem_bandwidth:
            rate *= spec.mem_bandwidth / demand
        return rate

    while done < n:
        while idle_workers > 0 and ready:
            tid = ready.pop()
            running[tid] = remaining[tid]
            idle_workers -= 1
            overhead_time += per_task_overhead
            if timeline is not None:
                task_worker[tid] = free_workers.pop()
                task_start[tid] = clock
        if not running:
            raise RuntimeError("deadlock: no running tasks but graph incomplete")
        rate = effective_rate()
        min_work = min(running.values())
        compute_dt = min_work / rate if rate > 0 else 0.0
        clock += compute_dt
        busy_time += compute_dt * len(running)
        advanced = min_work
        finished = []
        for tid in list(running):
            running[tid] -= advanced
            remaining[tid] = running[tid]
            if running[tid] <= 1e-9:
                finished.append(tid)
        for tid in finished:
            del running[tid]
            idle_workers += 1
            done += 1
            if timeline is not None:
                worker = task_worker.pop(tid)
                timeline.append((tid, worker, task_start.pop(tid), clock))
                free_workers.append(worker)
            for nxt in dependents.get(tid, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)

    cp = graph.critical_path() / spec.core_rate(1)
    return OracleSchedule(
        makespan=clock,
        n_workers=n_workers,
        total_work=graph.total_work,
        critical_path=cp,
        busy_time=busy_time,
        overhead_time=overhead_time,
        timeline=timeline,
    )


def near_field_work_items(lists) -> list[NearFieldWorkItem]:
    tree = lists.tree
    items = []
    for t in sorted(lists.near_sources, key=lambda nid: tree.nodes[nid].lo):
        nt = tree.nodes[t].count
        if nt == 0:
            continue
        counts = tuple(tree.nodes[s].count for s in lists.near_sources[t] if tree.nodes[s].count)
        items.append(NearFieldWorkItem(target=t, n_targets=nt, source_counts=counts))
    return items


def partition_targets(items, n_gpus: int) -> list[list[NearFieldWorkItem]]:
    parts: list[list[NearFieldWorkItem]] = [[] for _ in range(n_gpus)]
    total = sum(it.interactions for it in items)
    if total == 0:
        return parts
    share = total / n_gpus
    gpu = 0
    acc = 0
    for it in items:
        parts[gpu].append(it)
        acc += it.interactions
        if acc >= share * (gpu + 1) and gpu < n_gpus - 1:
            gpu += 1
    return parts


def _block_cycles(spec: GPUSpec, item: NearFieldWorkItem) -> list[float]:
    n_blocks = max(1, math.ceil(item.n_targets / spec.block_size))
    total_sources = item.n_sources
    load = sum(math.ceil(p_s / spec.warp_size) for p_s in item.source_counts)
    out = []
    remaining = item.n_targets
    for _ in range(n_blocks):
        in_block = min(spec.block_size, remaining)
        remaining -= in_block
        warps = max(1, math.ceil(in_block / spec.warp_size))
        out.append(warps * total_sources * spec.body_cycles + load * spec.load_cycles)
    return out


def time_items(spec: GPUSpec, items: list[NearFieldWorkItem]) -> KernelTiming:
    blocks: list[float] = []
    interactions = 0
    issued = 0.0
    for it in items:
        cyc = _block_cycles(spec, it)
        interactions += it.interactions
        warps_total = sum(
            max(1, math.ceil(min(spec.block_size, it.n_targets - b * spec.block_size) / spec.warp_size))
            for b in range(len(cyc))
        )
        issued += warps_total * spec.warp_size * it.n_sources
        blocks.extend(cyc)
    if not blocks:
        return KernelTiming(spec.launch_overhead_s, 0, 0, 0.0)
    sm_load = [0.0] * spec.n_sms
    for cyc in sorted(blocks, reverse=True):
        idx = sm_load.index(min(sm_load))
        sm_load[idx] += cyc
    kernel_time = max(sm_load) / spec.clock_hz + spec.launch_overhead_s
    return KernelTiming(kernel_time, len(blocks), interactions, issued)


def time_step(executor, tree, lists) -> StepTiming:
    """:meth:`HeterogeneousExecutor.time_step` over the per-node pieces;
    ``executor`` lends its machine, units, noise stream and attribution."""
    machine = executor.machine
    counts = lists.op_counts()
    flops = executor._op_flops(tree, lists, counts)
    include_near = machine.n_gpus == 0
    graph = build_fmm_task_graph(
        tree, lists, order=executor.order, kernel=executor.kernel,
        include_near_field=include_near,
        include_endpoints=not executor.offload_endpoints,
    )
    sched = simulate_schedule(graph, machine.cpu, machine.cpu.n_cores)
    noise = executor._noise()
    cpu_time = sched.makespan * noise
    attributable = (sched.busy_time / machine.cpu.n_cores) * noise
    per_gpu: list[KernelTiming] = []
    gpu_time = gpu_coeff = 0.0
    gpu_eff = 1.0
    if machine.n_gpus > 0:
        parts = partition_targets(near_field_work_items(lists), machine.n_gpus)
        per_gpu = [time_items(g, p) for g, p in zip(machine.gpus, parts)]
        per_gpu = [
            KernelTiming(t.kernel_time * executor._noise(), t.n_blocks, t.interactions, t.issued_body_steps)
            for t in per_gpu
        ]
        gpu_time = max(t.kernel_time for t in per_gpu)
        if executor.offload_endpoints:
            endpoint_flops = flops["P2M"] + flops["L2P"]
            gpu_time += endpoint_flops / (executor._gpu_flop_rate() * machine.n_gpus)
        total_inter = sum(t.interactions for t in per_gpu)
        gpu_coeff = gpu_time / total_inter if total_inter else 0.0
        issued = sum(t.issued_body_steps for t in per_gpu)
        gpu_eff = total_inter / issued if issued else 1.0
    cpu_flops = dict(flops)
    if executor.offload_endpoints:
        cpu_flops["P2M"] = 0.0
        cpu_flops["L2P"] = 0.0
    registry = executor._attribute_cpu_time(attributable, counts, cpu_flops, include_near)
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
