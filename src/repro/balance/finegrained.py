"""FineGrainedOptimize (§VI-B).

"This function makes local changes to the tree regardless of the global S
value. ... If the CPU is running too long the procedure begins by
performing the collapse operation on multiple nodes.  If the GPU is
running too long, then the pushdown operation is performed on multiple
nodes.  After a group of nodes is collapsed or pushed down, the procedure
utilizes the time prediction ... to predict how that change will affect
the running time on the next time step ... the procedure will continue to
make further changes until the predicted time is minimized."

Candidate selection heuristics:

* CPU-bound -> collapse the *lightest* collapsible parents (parents whose
  visible children are all leaves): removing their children deletes
  expansion work while adding the least possible direct work (added P2P
  grows with the square of the parent's population).
* GPU-bound -> push down the leaves with the largest Interactions(t):
  splitting them converts the most direct work into expansion work.

Every round is applied tentatively against a flag snapshot; a round whose
*predicted* compute time is worse than the incumbent is rolled back, and
the procedure stops — "until the predicted time is minimized".  Each
round's prediction reads lists from the executor's cache, which rebuilds
them (the round changed the shape; ``list_rebuilds`` counts them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import TimePrediction, predict_times
from repro.machine.executor import HeterogeneousExecutor
from repro.tree.octree import AdaptiveOctree

__all__ = ["FineGrainedReport", "fine_grained_optimize"]

#: fraction of the leaves one round collapses or pushes down (a "group of
#: nodes", §VI-B)
FGO_BATCH_FRAC = 0.02
#: round cap: rounds stop earlier once the predicted time stops improving
FGO_MAX_ROUNDS = 12


@dataclass
class FineGrainedReport:
    """What one FineGrainedOptimize call did."""

    rounds: int = 0
    collapses: int = 0
    pushdowns: int = 0
    predictions: int = 0
    initial: TimePrediction | None = None
    final: TimePrediction | None = None
    #: modeled time spent inside the optimizer (prediction + surgery)
    lb_time: float = 0.0
    changed: bool = False
    #: list lookups this call answered by a rebuild (the cache-counter
    #: delta)
    list_rebuilds: int = 0

    @property
    def operations(self) -> int:
        return self.collapses + self.pushdowns

    def as_dict(self) -> dict:
        """Compact decision record for the run-ledger flight recorder."""
        return {
            "rounds": self.rounds,
            "collapses": self.collapses,
            "pushdowns": self.pushdowns,
            "predictions": self.predictions,
            "changed": self.changed,
            "lb_time": self.lb_time,
            "list_rebuilds": self.list_rebuilds,
            "initial_compute": self.initial.compute_time if self.initial else None,
            "final_compute": self.final.compute_time if self.final else None,
        }


def _snapshot(tree: AdaptiveOctree) -> list[tuple[bool, bool]]:
    return [(n.is_leaf, n.hidden) for n in tree.nodes]


def _restore(tree: AdaptiveOctree, snap: list[tuple[bool, bool]]) -> None:
    for node, (is_leaf, hidden) in zip(tree.nodes, snap):
        node.is_leaf = is_leaf
        node.hidden = hidden
    # the flags were flipped behind the surgery API: stamp the shape change
    # so generation-keyed list caches drop their now-stale entries
    tree.mark_structure_dirty()


def _undo_round(
    tree: AdaptiveOctree,
    applied: list[tuple[str, int]],
    snap: list[tuple[bool, bool]],
) -> None:
    """Reject a trial round by replaying exact inverse surgery ops.

    Every trial collapse is depth-1 (candidates require all-leaf
    children), so ``pushdown`` inverts it exactly, and ``collapse``
    inverts a trial pushdown.  The flag snapshot stays as a verified
    fallback: any drift from it falls back to the raw restore, which
    stamps the shape change with ``mark_structure_dirty``.
    """
    for kind, nid in reversed(applied):
        if kind == "collapse":
            tree.pushdown(nid)
        else:
            tree.collapse(nid)
    ok = [(n.is_leaf, n.hidden) for n in tree.nodes[: len(snap)]] == snap and all(
        n.hidden for n in tree.nodes[len(snap):]
    )
    if not ok:  # pragma: no cover - inverse replay is exact by construction
        _restore(tree, snap)


def _collapse_candidates(tree: AdaptiveOctree, k: int) -> list[int]:
    """Lightest parents whose visible children are all leaves."""
    cands = []
    for nid in tree.effective_nodes():
        node = tree.nodes[nid]
        if node.is_leaf or nid == 0:
            continue
        kids = tree.effective_children(nid)
        if kids and all(tree.nodes[c].is_leaf for c in kids):
            cands.append((node.count, nid))
    cands.sort()
    return [nid for _, nid in cands[:k]]


def _pushdown_candidates(tree: AdaptiveOctree, lists, k: int) -> list[int]:
    """A spatially contiguous tile of hot leaves to subdivide together.

    Subdividing a *single* cell cannot reduce the folded near field — its
    eight children are mutually adjacent and remain adjacent to every old
    neighbour.  Direct work only converts into M2L work when *neighbouring*
    cells split too, so their children become well separated.  We therefore
    take the leaf with the most direct work plus its same-level adjacent
    leaves (its leaf colleagues), which is also how whole-level transitions
    are bridged region by region ("bridge the gap between tree levels",
    §III-A).
    """
    cands = []
    for t in lists.near_sources:
        node = tree.nodes[t]
        if node.count >= 2 and node.level < tree.max_level:
            cands.append((lists.interactions_of_leaf(t), t))
    if not cands:
        return []
    cands.sort(reverse=True)
    eligible = {t for _, t in cands}
    tile: list[int] = []
    seen: set[int] = set()
    for _, seed in cands:
        if seed in seen:
            continue
        group = [seed] + [
            c
            for c in lists.colleagues.get(seed, ())
            if c != seed and c in eligible and tree.nodes[c].is_leaf
        ]
        for nid in group:
            if nid not in seen:
                tile.append(nid)
                seen.add(nid)
        if len(tile) >= max(k, len(group)):
            break
    return tile


def fine_grained_optimize(
    tree: AdaptiveOctree,
    coeffs: ObservedCoefficients,
    executor: HeterogeneousExecutor,
) -> FineGrainedReport:
    """Run FineGrainedOptimize on ``tree`` in place.

    ``executor`` provides the maintenance-cost model
    (:meth:`~repro.machine.executor.HeterogeneousExecutor.time_prediction`
    and ``time_surgery``), the list cache and the telemetry; predictions
    use the observed coefficients.  Every surgery round bumps the tree's
    structure generation, so the cached lookups rebuild exactly when
    needed.
    """
    report = FineGrainedReport()
    examined = 0
    cache = executor.list_cache
    rebuilds0 = cache.builds
    lists = cache.get(tree)
    best = predict_times(lists.op_counts(), coeffs)
    report.initial = best
    report.predictions += 1
    report.lb_time += executor.time_prediction(tree)

    n_leaves = max(1, len(tree.leaves()))
    batch = max(1, int(round(FGO_BATCH_FRAC * n_leaves)))

    for _ in range(FGO_MAX_ROUNDS):
        snap = _snapshot(tree)
        applied: list[tuple[str, int]] = []
        cpu_bound = best.cpu_time >= best.gpu_time
        if cpu_bound:
            targets = _collapse_candidates(tree, batch)
            for nid in targets:
                tree.collapse(nid)
                applied.append(("collapse", nid))
            n_ops = len(targets)
        else:
            targets = _pushdown_candidates(tree, lists, batch)
            n_ops = 0
            for nid in targets:
                if tree.nodes[nid].is_leaf and tree.nodes[nid].level < tree.max_level:
                    tree.pushdown(nid)
                    applied.append(("pushdown", nid))
                    n_ops += 1
        examined += len(targets)
        if n_ops == 0:
            break
        lists = cache.get(tree)
        pred = predict_times(lists.op_counts(), coeffs)
        report.predictions += 1
        report.lb_time += executor.time_prediction(tree) + executor.time_surgery(n_ops)
        report.rounds += 1
        if pred.compute_time < best.compute_time:
            best = pred
            report.changed = True
            if cpu_bound:
                report.collapses += n_ops
            else:
                report.pushdowns += n_ops
        else:
            _undo_round(tree, applied, snap)
            # rebuild the restored shape's lists here, so list_rebuilds
            # counts that rebuild too
            cache.get(tree)
            break

    report.final = best
    report.list_rebuilds = cache.builds - rebuilds0
    executor.telemetry.tracer.instant(
        "fine-grained-optimize",
        rounds=report.rounds,
        examined=examined,
        accepted=report.operations,
        changed=report.changed,
        list_rebuilds=report.list_rebuilds,
    )
    return report
