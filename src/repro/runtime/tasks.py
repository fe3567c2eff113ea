"""Task DAG extraction for the CPU (far-field) phases.

The paper parallelizes the far field with OpenMP tasks spawned along the
recursive octree traversals (§III-B): the UpSweep is head-recursive (a
parent's work runs after its children), the DownSweep tail-recursive (a
parent's work runs before its children).  We reify exactly that structure:

* one **upsweep task** per effective node — P2M at leaves, M2M at internal
  nodes — depending on the node's children's upsweep tasks;
* one **downsweep task** per effective node — L2L from the parent plus the
  node's M2L (V list) work, and L2P work at leaves — depending on the
  parent's downsweep task *and* on the upsweep tasks of the nodes whose
  multipoles it consumes;
* tree-construction DAGs (for the §III-B parallel build) mirror the
  recursive partition: a task per node, children depending on the parent
  on the way down and the lockless construction joining on the way up.

Task costs are FLOP counts from :mod:`repro.costmodel.flops`, so a
scheduler simulation converts directly into seconds via a core's
effective FLOP rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.flops import atomic_units
from repro.kernels.base import Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["Task", "TaskGraph", "build_fmm_task_graph", "build_treebuild_task_graph"]

#: effective memory traffic per FLOP.  Expansion work walks pointer-rich
#: tree data with limited reuse; P2P streams source tiles that mostly stay
#: cache-resident within a block.  These feed the scheduler's bandwidth
#: roofline (the paper conjectures memory saturation limits speedup at
#: high thread counts, §VIII-C).
_EXPANSION_BYTES_PER_FLOP = 0.55
_P2P_BYTES_PER_FLOP = 0.12


@dataclass
class Task:
    """One schedulable task: FLOPs of work plus dependency edges."""

    id: int
    work: float  # FLOPs
    deps: list[int] = field(default_factory=list)
    label: str = ""
    #: bytes touched, for the memory-bandwidth roofline
    bytes: float = 0.0


@dataclass
class TaskGraph:
    tasks: list[Task]

    @property
    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    def critical_path(self) -> float:
        """Longest dependency chain by work (lower bound on any schedule)."""
        finish = [0.0] * len(self.tasks)
        # tasks are created parents-before-children in both builders, but
        # dependencies can point either way; process in topological order.
        order = self._topo_order()
        for tid in order:
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
    tree: AdaptiveOctree,
    lists: InteractionLists,
    *,
    order: int,
    kernel: Kernel | None = None,
    include_near_field: bool = False,
    include_endpoints: bool = True,
) -> TaskGraph:
    """Task DAG of one far-field solve on the current effective tree.

    ``include_near_field`` adds each leaf's P2P work to its downsweep task
    — the GPU-less configuration (System B and the serial baseline).
    ``include_endpoints=False`` removes the per-body P2M/L2P work from the
    CPU tasks — the §VIII-E extension that offloads the expansion
    endpoints to the GPUs (the sweep *structure* remains; the leaf tasks
    turn into cheap stubs).
    """
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

    def new_task(work: float, deps: list[int], label: str, nbytes: float) -> int:
        t = Task(id=len(tasks), work=work, deps=deps, label=label, bytes=nbytes)
        tasks.append(t)
        return t.id

    # upsweep: children before parents (eff is preorder; iterate reversed)
    for nid in reversed(eff):
        node = nodes[nid]
        if node.is_leaf:
            work = units["P2M"] * node.count
            deps: list[int] = []
        else:
            kids = tree.effective_children(nid)
            work = units["M2M"] * len(kids)  # one M2M application per child
            deps = [up_id[c] for c in kids]
        up_id[nid] = new_task(work, deps, f"up:{nid}", work * _EXPANSION_BYTES_PER_FLOP)

    # downsweep: parents before children
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
            n_src = sum(
                nodes[s].count for s in lists.near_sources.get(nid, ())
            )
            p2p_work = units["P2P"] * node.count * n_src
            work += p2p_work
            nbytes += p2p_work * _P2P_BYTES_PER_FLOP
        down_id[nid] = new_task(work, deps, f"down:{nid}", nbytes)

    return TaskGraph(tasks)


def build_treebuild_task_graph(
    tree: AdaptiveOctree,
    *,
    per_body_work: float = 60.0,
    per_node_work: float = 400.0,
) -> TaskGraph:
    """Task DAG of the §III-B recursive parallel tree construction.

    Each node partitions its bodies among its children on the way down
    (work proportional to its population), then performs lockless node
    construction on the way up (constant work per node).
    """
    nodes = tree.nodes
    eff = tree.effective_nodes()
    tasks: list[Task] = []
    down: dict[int, int] = {}
    for nid in eff:
        node = nodes[nid]
        deps = [down[node.parent]] if node.parent >= 0 else []
        work = per_body_work * node.count + per_node_work
        t = Task(id=len(tasks), work=work, deps=deps, label=f"build:{nid}", bytes=24.0 * node.count)
        tasks.append(t)
        down[nid] = t.id
    return TaskGraph(tasks)
