"""Near-field work description and the paper's multi-GPU partitioner.

§III-C: "we divide up the work so that each GPU carries out approximately
the same number of interactions.  The implementation simply walks through
the list of interaction node pairs and counts Interactions(t) for each
target node.  When the count meets or exceeds the total number of direct
interactions divided by the number of GPUs we start counting work to send
to the next GPU. ... There is no target node whose calculations are spread
out over more than one GPU."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.tree.lists import InteractionLists
from repro.util.arrays import csr_ptr, segment_positions

__all__ = [
    "NearFieldWork",
    "NearFieldWorkItem",
    "near_field_work",
    "near_field_work_items",
    "partition_bounds",
    "partition_targets",
]


@dataclass(frozen=True)
class NearFieldWorkItem:
    """One target node's direct work: its population and its source sizes."""

    target: int
    n_targets: int
    source_counts: tuple[int, ...]

    @property
    def n_sources(self) -> int:
        return sum(self.source_counts)

    @property
    def interactions(self) -> int:
        """Interactions(t) = p_t * sum_{i in IL(t)} p_i (paper §III-C)."""
        return self.n_targets * self.n_sources


@dataclass
class NearFieldWork:
    """Work items as aligned arrays: row ``i`` is one target, its
    ``source_counts[source_ptr[i]:source_ptr[i + 1]]`` its source sizes
    (empty sources included: they add no interaction and no tile)."""

    targets: np.ndarray  # (m,) node id
    n_targets: np.ndarray  # (m,) bodies in the target
    n_sources: np.ndarray  # (m,) bodies over its sources
    source_ptr: np.ndarray  # (m + 1,) CSR into source_counts
    source_counts: np.ndarray  # the sources' populations, row by row
    #: figures derived per device spec (:meth:`per_spec`)
    _by_spec: dict = field(default_factory=dict, compare=False, repr=False)

    def per_spec(self, spec, derive):
        """``derive(spec, self)``, memoized per ``spec``: every GPU of one
        kind reads the same per-row figures."""
        out = self._by_spec.get(spec)
        if out is None:
            out = self._by_spec[spec] = derive(spec, self)
        return out

    @property
    def interactions(self) -> np.ndarray:
        """Interactions(t) per row."""
        return self.n_targets * self.n_sources

    def items(self) -> list[NearFieldWorkItem]:
        """The rows as :class:`NearFieldWorkItem` objects, with their
        nonempty sources."""
        counts = self.source_counts.tolist()
        ptr = self.source_ptr.tolist()
        return [
            NearFieldWorkItem(
                target=t, n_targets=nt, source_counts=tuple(c for c in counts[lo:hi] if c)
            )
            for t, nt, lo, hi in zip(
                self.targets.tolist(), self.n_targets.tolist(), ptr[:-1], ptr[1:]
            )
        ]

    @classmethod
    def of_items(cls, items: list[NearFieldWorkItem]) -> "NearFieldWork":
        lens = np.fromiter((len(it.source_counts) for it in items), np.int64, len(items))
        return cls(
            targets=np.fromiter((it.target for it in items), np.int64, len(items)),
            n_targets=np.fromiter((it.n_targets for it in items), np.int64, len(items)),
            n_sources=np.fromiter((it.n_sources for it in items), np.int64, len(items)),
            source_ptr=csr_ptr(lens),
            source_counts=np.fromiter(
                (c for it in items for c in it.source_counts), np.int64, int(lens.sum())
            ),
        )


class _NearPairs(NamedTuple):
    """The near table's shape for the work rows: target rows in Morton
    order, each one's source rows back to back."""

    targets: np.ndarray  # (t,) node id
    target_rows: np.ndarray  # (t,) node-table row
    ptr: np.ndarray  # (t + 1,) CSR into source_rows
    source_rows: np.ndarray


def _near_pairs(lists: InteractionLists) -> _NearPairs:
    """Memoized per tree shape.  Leaves are disjoint key spans, so Morton
    order is the order of their first bodies wherever they hold any."""
    cached, store = lists.derived_cache("near_pairs", structural=True)
    if cached is not None:
        return cached
    near = lists.table("near_sources")
    tree = lists.tree
    tab = tree.node_table()
    key_lo = np.fromiter(
        (tree.nodes[t].key_lo for t in near.keys.tolist()), np.uint64, near.keys.size
    )
    order = np.argsort(key_lo, kind="stable")
    ptr = csr_ptr(near.counts)
    pos, lens = segment_positions(ptr[order], ptr[order + 1])
    return store(
        _NearPairs(
            targets=near.keys[order],
            target_rows=tab.row_of[near.keys[order]],
            ptr=csr_ptr(lens),
            source_rows=tab.row_of[near.values[pos]],
        )
    )


def near_field_work(lists: InteractionLists) -> NearFieldWork:
    """One row per nonempty target leaf, in tree (Morton) order — the
    near table's shape (memoized per tree shape) read at the node table's
    counts.

    Memoized on ``lists`` against the tree's ``generation``: per-node
    populations change under refit even when the lists stay valid, so the
    rows carry the finer-grained stamp and rebuild only when bodies moved.
    """
    cached, store = lists.derived_cache("near_field_work")
    if cached is not None:
        return cached
    pairs = _near_pairs(lists)
    cnt = lists.tree.node_table().counts
    n_targets = cnt[pairs.target_rows]
    counts = cnt[pairs.source_rows]
    total = csr_ptr(counts)
    n_sources = total[pairs.ptr[1:]] - total[pairs.ptr[:-1]]
    targets, ptr = pairs.targets, pairs.ptr
    if not n_targets.all():  # empty targets drop out
        keep = np.flatnonzero(n_targets)
        pos, lens = segment_positions(ptr[keep], ptr[keep + 1])
        targets, n_targets, n_sources = targets[keep], n_targets[keep], n_sources[keep]
        ptr, counts = csr_ptr(lens), counts[pos]
    return store(NearFieldWork(targets, n_targets, n_sources, ptr, counts))


def near_field_work_items(lists: InteractionLists) -> list[NearFieldWorkItem]:
    """:func:`near_field_work` as :class:`NearFieldWorkItem` objects,
    memoized the same way."""
    cached, store = lists.derived_cache("near_field_work_items")
    if cached is not None:
        return cached
    return store(near_field_work(lists).items())


def partition_bounds(interactions: list[int], n_gpus: int) -> list[tuple[int, int]]:
    """The paper's greedy walk over per-target interaction counts: GPU ``g``
    takes the contiguous run ``lo:hi`` of its ``(lo, hi)``.

    Each GPU receives a run of targets whose cumulative interaction count
    meets or exceeds total/n_gpus; no target is split.
    """
    if n_gpus < 1:
        raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
    total = sum(interactions)
    if total == 0:
        return [(0, 0)] * n_gpus
    share = total / n_gpus
    starts = [0]
    acc = 0
    for i, x in enumerate(interactions):
        acc += x
        if acc >= share * len(starts) and len(starts) < n_gpus:
            starts.append(i + 1)
    starts += [len(interactions)] * (n_gpus + 1 - len(starts))
    return list(zip(starts[:-1], starts[1:]))


def partition_targets(items: list[NearFieldWorkItem], n_gpus: int) -> list[list[NearFieldWorkItem]]:
    """Split work items over ``n_gpus`` by :func:`partition_bounds`."""
    bounds = partition_bounds([it.interactions for it in items], n_gpus)
    return [items[lo:hi] for lo, hi in bounds]
