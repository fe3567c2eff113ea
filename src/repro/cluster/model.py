"""Cluster timing model: per-rank heterogeneous compute + LET exchange.

One distributed time step is modeled as

    T_step = max_over_ranks [ T_comm(r) + max(T_cpu(r), T_gpu(r)) ]

with optional communication/computation overlap (the exchange of remote
multipoles can hide behind the local upward sweep, the standard trick of
the cited distributed FMMs), in which case only the *unhidden* part of
T_comm counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.let import LocallyEssentialTree, build_let
from repro.cluster.partition import RankPartition, partition_by_morton_work
from repro.costmodel.flops import atomic_units
from repro.gpu.model import GPUKernelModel
from repro.gpu.partition import NearFieldWorkItem, partition_targets
from repro.kernels.base import Kernel
from repro.machine.spec import MachineSpec
from repro.tree.cache import ListCache
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["ClusterSpec", "ClusterStepTiming", "DistributedExecutor"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of heterogeneous nodes."""

    node: MachineSpec
    n_nodes: int
    #: interconnect point-to-point bandwidth (bytes/s) and per-message latency
    link_bandwidth: float = 5.0e9  # ~QDR InfiniBand
    link_latency_s: float = 2.0e-6
    #: fraction of the exchange hideable behind local compute
    overlap: float = 0.7

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.link_bandwidth <= 0 or self.link_latency_s < 0:
            raise ValueError("bad interconnect parameters")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")


@dataclass
class ClusterStepTiming:
    """Per-step distributed timings."""

    step_time: float
    per_rank_compute: list[float] = field(default_factory=list)
    per_rank_comm: list[float] = field(default_factory=list)
    partition_imbalance: float = 1.0
    total_comm_bytes: float = 0.0

    @property
    def comm_fraction(self) -> float:
        total = sum(c + k for c, k in zip(self.per_rank_comm, self.per_rank_compute))
        comm = sum(self.per_rank_comm)
        return comm / total if total else 0.0


class DistributedExecutor:
    """Times one FMM step across a cluster of heterogeneous nodes."""

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        order: int = 4,
        kernel: Kernel | None = None,
        list_cache: ListCache | None = None,
    ) -> None:
        self.cluster = cluster
        self.order = order
        self.kernel = kernel
        self.list_cache = list_cache if list_cache is not None else ListCache()
        self.units = atomic_units(order, kernel)
        from repro.expansions.multiindex import MultiIndexSet

        self.n_coeffs = MultiIndexSet(order).n
        self._gpu_models = [GPUKernelModel(g) for g in cluster.node.gpus]

    # ----------------------------------------------------------------- step
    def time_step(
        self,
        tree: AdaptiveOctree,
        lists: InteractionLists | None = None,
        partition: RankPartition | None = None,
    ) -> ClusterStepTiming:
        if lists is None:
            lists = self.list_cache.get(tree)
        if partition is None:
            partition = partition_by_morton_work(
                tree, lists, self.cluster.n_nodes, order=self.order, kernel=self.kernel
            )
        let = build_let(partition, n_coeffs=self.n_coeffs)

        per_compute: list[float] = []
        per_comm: list[float] = []
        for rank in range(self.cluster.n_nodes):
            cpu_t, gpu_t = self._rank_compute(tree, lists, partition, rank)
            compute = max(cpu_t, gpu_t)
            comm = self._rank_comm(tree, let, rank)
            hidden = min(comm * self.cluster.overlap, compute)
            per_compute.append(compute)
            per_comm.append(comm - hidden)
        step_time = max(
            c + k for c, k in zip(per_comm, per_compute)
        ) if per_compute else 0.0
        return ClusterStepTiming(
            step_time=step_time,
            per_rank_compute=per_compute,
            per_rank_comm=per_comm,
            partition_imbalance=partition.imbalance,
            total_comm_bytes=let.total_bytes(tree),
        )

    # ------------------------------------------------------------- per rank
    def _rank_compute(self, tree, lists, partition, rank) -> tuple[float, float]:
        """Local CPU far-field time (aggregate model) and GPU near-field
        time (warp/block model over the rank's target leaves)."""
        units = self.units
        node_spec = self.cluster.node
        leaves = partition.rank_leaves[rank]
        if not leaves:
            return 0.0, 0.0

        # CPU: aggregate work over the rank's owned nodes
        cpu_flops = 0.0
        owned_internal = set()
        for l in leaves:
            n = tree.nodes[l]
            cpu_flops += (units["P2M"] + units["L2P"]) * n.count
            cpu_flops += units["M2L"] * len(lists.v_list.get(l, ()))
            # walk owned ancestors (first-leaf convention)
            cur = n.parent
            while cur >= 0 and cur not in owned_internal:
                if partition.node_rank(cur) == rank:
                    owned_internal.add(cur)
                cur = tree.nodes[cur].parent
        for nid in owned_internal:
            kids = tree.effective_children(nid)
            cpu_flops += (units["M2M"] + units["L2L"]) * len(kids)
            cpu_flops += units["M2L"] * len(lists.v_list.get(nid, ()))
        k = node_spec.cpu.n_cores
        cpu_rate = node_spec.cpu.core_rate(k) * k
        cpu_time = cpu_flops / cpu_rate / 0.92  # a few % scheduling slack

        # GPU: near-field items of the rank's leaves, across the node's GPUs
        items = []
        for t in leaves:
            nt = tree.nodes[t].count
            if nt == 0:
                continue
            counts = tuple(
                tree.nodes[s].count for s in lists.near_sources.get(t, ()) if tree.nodes[s].count
            )
            items.append(NearFieldWorkItem(target=t, n_targets=nt, source_counts=counts))
        gpu_time = 0.0
        if node_spec.n_gpus and items:
            parts = partition_targets(items, node_spec.n_gpus)
            timings = [m.time_items(p) for m, p in zip(self._gpu_models, parts)]
            gpu_time = max(t.kernel_time for t in timings)
        elif items:
            # GPU-less nodes run the near field on the CPU
            inter = sum(it.interactions for it in items)
            cpu_time += units["P2P"] * inter / cpu_rate
        return cpu_time, gpu_time

    def _rank_comm(self, tree, let: LocallyEssentialTree, rank: int) -> float:
        nbytes = let.recv_bytes(rank, tree)
        msgs = let.recv_messages(rank)
        return nbytes / self.cluster.link_bandwidth + msgs * self.cluster.link_latency_s
