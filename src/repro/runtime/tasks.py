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

A graph is a :class:`GraphSkeleton` — dependency edges, dependents,
topological order, labels — plus one work and one bytes list.  The FMM
graph's skeleton depends on the effective tree shape alone, so it is
memoized on the interaction lists against ``structure_generation``; a
frozen-shape step computes only the work and bytes from the node table's
counts (the per-node builder is the test oracle ``tests/oracles/machine.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.costmodel.flops import atomic_units
from repro.kernels.base import Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr, stable_argsort

__all__ = [
    "GraphSkeleton",
    "Task",
    "TaskGraph",
    "build_fmm_task_graph",
    "build_treebuild_task_graph",
]

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


class GraphSkeleton:
    """Everything of a task graph but its work: task ``i`` depends on
    ``dep_ids[dep_ptr[i]:dep_ptr[i + 1]]``; ``make_labels()`` names the
    tasks.  The rest is derived on first read."""

    def __init__(
        self, dep_ptr: np.ndarray, dep_ids: np.ndarray, make_labels: Callable[[], list[str]]
    ) -> None:
        self.dep_ptr = dep_ptr
        self.dep_ids = dep_ids
        self._make_labels = make_labels

    @classmethod
    def of(cls, deps: list[list[int]], labels: list[str]) -> "GraphSkeleton":
        lens = np.fromiter(map(len, deps), dtype=np.int64, count=len(deps))
        flat = np.fromiter(chain.from_iterable(deps), dtype=np.int64, count=int(lens.sum()))
        return cls(csr_ptr(lens), flat, lambda: labels)

    def __len__(self) -> int:
        return self.dep_ptr.size - 1

    @cached_property
    def labels(self) -> list[str]:
        return self._make_labels()

    @cached_property
    def deps(self) -> list[list[int]]:
        """Each task's dependencies."""
        return _split(self.dep_ids.tolist(), self.dep_ptr.tolist())

    @cached_property
    def indegree(self) -> list[int]:
        return np.diff(self.dep_ptr).tolist()

    @cached_property
    def dependents(self) -> list[list[int]]:
        """The tasks waiting on each task, ascending."""
        n = len(self)
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.dep_ptr))
        ptr = csr_ptr(np.bincount(self.dep_ids, minlength=n))
        waiting = owners[stable_argsort(self.dep_ids, n)]
        return _split(waiting.tolist(), ptr.tolist())

    @cached_property
    def order(self) -> list[int]:
        """A topological order (Kahn's algorithm)."""
        indeg = list(self.indegree)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order = []
        while ready:
            cur = ready.pop()
            order.append(cur)
            for nxt in self.dependents[cur]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self):
            raise ValueError("task graph contains a dependency cycle")
        return order


def _split(flat: list, ptr: list) -> list[list]:
    """``flat`` cut at ``ptr`` into one list per row."""
    return [flat[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]


class TaskGraph:
    """Tasks as a :class:`GraphSkeleton` plus per-task ``work`` (FLOPs) and
    ``nbytes`` lists.  ``TaskGraph(tasks)`` builds both from
    :class:`Task` objects; :meth:`of` pairs a shared skeleton with new work.
    """

    def __init__(self, tasks: list[Task]) -> None:
        self._tasks = list(tasks)
        self.work = [t.work for t in self._tasks]
        self.nbytes = [t.bytes for t in self._tasks]

    @classmethod
    def of(cls, skeleton: GraphSkeleton, work: list[float], nbytes: list[float]) -> "TaskGraph":
        graph = cls.__new__(cls)
        graph._tasks = None
        graph.skeleton = skeleton
        graph.work = work
        graph.nbytes = nbytes
        return graph

    @cached_property
    def skeleton(self) -> GraphSkeleton:
        return GraphSkeleton.of([t.deps for t in self._tasks], [t.label for t in self._tasks])

    @property
    def tasks(self) -> list[Task]:
        """The graph as :class:`Task` objects (built on first read)."""
        if self._tasks is None:
            skel = self.skeleton
            self._tasks = [
                Task(id=i, work=w, deps=list(d), label=lab, bytes=b)
                for i, (w, d, lab, b) in enumerate(
                    zip(self.work, skel.deps, skel.labels, self.nbytes)
                )
            ]
        return self._tasks

    @property
    def total_work(self) -> float:
        return sum(self.work)

    def critical_path(self) -> float:
        """Longest dependency chain by work (lower bound on any schedule),
        over the skeleton's topological order."""
        skel = self.skeleton
        deps, work = skel.deps, self.work
        finish = [0.0] * len(work)
        for tid in skel.order:
            finish[tid] = max([finish[d] for d in deps[tid]], default=0.0) + work[tid]
        return max(finish, default=0.0)


class _FMMSkeleton(NamedTuple):
    """The FMM graph's shape over the node table's rows: task ``n - 1 - r``
    is row ``r``'s upsweep, task ``n + r`` its downsweep."""

    graph: GraphSkeleton
    n_children: np.ndarray  # (n,) effective children per row
    n_v: np.ndarray  # (n,) V-list length per row
    has_parent: np.ndarray  # (n,) bool
    near_owner: np.ndarray  # (pairs,) target row of each near pair
    near_source: np.ndarray  # (pairs,) source row of each near pair


def _fmm_skeleton(tree: AdaptiveOctree, lists: InteractionLists) -> _FMMSkeleton:
    """One skeleton per tree shape, memoized on the lists."""
    cached, store = lists.derived_cache("fmm_task_skeleton", structural=True)
    if cached is not None:
        return cached
    tab = tree.node_table()
    n = tab.ids.size
    parent_row = tab.parent_row
    # effective children in child-list order (the preorder keeps it; a
    # stable sort by parent row groups them), as in build_interaction_lists
    nz = np.nonzero(parent_row >= 0)[0]
    kids = nz[stable_argsort(parent_row[nz], n)]
    n_children = np.bincount(parent_row[nz], minlength=n)
    v = lists.table("v_list")
    v_rows = tab.row_of[v.keys]
    n_v = np.zeros(n, dtype=np.int64)
    n_v[v_rows] = v.counts
    # every edge (task, dependency), each task's in the per-node builder's
    # order: an upsweep task (n - 1 - row) waits on its children's, in child
    # order; a downsweep task (n + row) on its parent's, then on the
    # upsweeps of its V list, in list order
    task = np.concatenate(
        (n - 1 - parent_row[kids], n + nz, n + np.repeat(v_rows, v.counts))
    )
    dep = np.concatenate((n - 1 - kids, n + parent_row[nz], n - 1 - tab.row_of[v.values]))
    order = np.argsort(task, kind="stable")
    ids = tab.ids.tolist()
    near = lists.table("near_sources")
    return store(
        _FMMSkeleton(
            graph=GraphSkeleton(
                csr_ptr(np.bincount(task, minlength=2 * n)),
                dep[order],
                lambda: [f"up:{ids[r]}" for r in range(n - 1, -1, -1)]
                + [f"down:{i}" for i in ids],
            ),
            n_children=n_children,
            n_v=n_v,
            has_parent=parent_row >= 0,
            near_owner=np.repeat(tab.row_of[near.keys], near.counts),
            near_source=tab.row_of[near.values],
        )
    )


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

    Per task, the work is the per-node builder's sum term by term, so
    every FLOP count is bit for bit the oracle's.
    """
    units = atomic_units(order, kernel)
    if not include_endpoints:
        units = dict(units)
        units["P2M"] = 0.0
        units["L2P"] = 0.0
    skel = _fmm_skeleton(tree, lists)
    tab = tree.node_table()
    counts, is_leaf = tab.counts, tab.is_leaf
    # upsweep: P2M per leaf body, one M2M per effective child
    up = np.where(is_leaf, units["P2M"] * counts, units["M2M"] * skel.n_children)
    # downsweep: L2L from the parent, M2L per V entry, L2P per leaf body
    down = np.where(skel.has_parent, units["L2L"], 0.0) + units["M2L"] * skel.n_v
    down = np.where(is_leaf, down + units["L2P"] * counts, down)
    down_bytes = down * _EXPANSION_BYTES_PER_FLOP
    if include_near_field:
        n_src = np.bincount(
            skel.near_owner, weights=counts[skel.near_source], minlength=counts.size
        ).astype(np.int64)
        p2p = units["P2P"] * counts * n_src
        down = np.where(is_leaf, down + p2p, down)
        down_bytes = np.where(is_leaf, down_bytes + p2p * _P2P_BYTES_PER_FLOP, down_bytes)
    up = up[::-1]
    work = np.concatenate((up, down)).tolist()
    nbytes = np.concatenate((up * _EXPANSION_BYTES_PER_FLOP, down_bytes)).tolist()
    return TaskGraph.of(skel.graph, work, nbytes)


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
