"""Generation-stamped memoization of interaction lists, with repair.

The balancer's outer loop (and any frozen-shape simulation step) calls
``build_interaction_lists`` on a tree whose *shape* has not changed since
the last step — ``refit`` re-sorts bodies but leaves the effective tree
intact.  :class:`ListCache` memoizes one :class:`InteractionLists` per
``(tree, folded)`` pair and validates it against the tree's
``structure_generation`` stamp, so a frozen-shape step never rebuilds
lists.

When the stamp *has* moved, the cache no longer throws the lists away
unconditionally: it asks the tree for the surgery journal covering the
gap (:meth:`AdaptiveOctree.journal_since`) and hands it to
:func:`repair_interaction_lists`, which rewrites only the rows the
journalled collapse/pushdown ops perturbed.  The full rebuild remains the
fallback for every case repair cannot justify — journal truncated, an
out-of-band structural edit (``mark_structure_dirty``, ``rebalance``),
too many ops, or an affected set so large a rebuild is cheaper.

``hits``/``builds``/``repairs`` counters make the policy observable: a
frozen-shape step must increment ``hits`` only, and a single
collapse/pushdown must increment ``repairs`` — not ``builds``.

The cache also owns the :class:`~repro.expansions.operators.OperatorStore`
of every lists it builds (``lists.operator_store``), which is what hands
translation operators from one tree to the next: they depend on the root
box, not on the tree.
"""

from __future__ import annotations

import weakref

from repro.expansions.operators import OperatorStore
from repro.tree.lists import (
    InteractionLists,
    RepairIneligible,
    build_interaction_lists,
    repair_interaction_lists,
)
from repro.tree.octree import AdaptiveOctree

__all__ = ["ListCache"]

#: histogram buckets for nodes touched per repair (affected + removed)
_REPAIR_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024)


class ListCache:
    """Memoize interaction lists keyed by tree identity + ``folded`` flag.

    The cache itself holds only *weak* references.  The lists are parked on
    the tree (``tree._cached_lists``), which makes the strong chain
    ``caller -> tree -> lists -> tree`` a self-contained cycle: when the
    caller drops the tree, the garbage collector reclaims tree and lists
    together, the weakref callback evicts the entry, and a cache that
    outlives many tree rebuilds (the simulation driver's does) never pins
    dead trees in memory.  An ``id()`` reused by a new tree can never alias
    a stale entry — the weakref's referent check catches it.

    ``repair=False`` restores the PR-5 behaviour (every shape change is a
    full rebuild); the repair benchmark uses it as its baseline.
    ``max_repair_ops`` caps how long a journal the cache will try to
    replay, and ``max_affected_frac`` is forwarded to
    :func:`repair_interaction_lists` as the affected-set size cap.
    ``operators`` is the store to stamp on the lists instead of one of the
    cache's own — a server passes its process-wide one to every request's
    cache.
    """

    def __init__(
        self,
        builder=build_interaction_lists,
        *,
        repair: bool = True,
        max_repair_ops: int = 32,
        max_affected_frac: float = 0.5,
        tracer=None,
        operators: OperatorStore | None = None,
    ) -> None:
        self._builder = builder
        self.operators = operators if operators is not None else OperatorStore()
        self._repair_enabled = repair
        self._max_repair_ops = max_repair_ops
        self._max_affected_frac = max_affected_frac
        self._tracer = tracer
        #: (id(tree), folded) -> (weakref-to-tree, structure_generation stamp)
        self._entries: dict = {}
        #: lookups answered from cache (tree shape unchanged)
        self.hits = 0
        #: lookups that (re)built lists from scratch
        self.builds = 0
        #: lookups answered by surgically repairing the cached lists
        self.repairs = 0
        #: metrics instruments, attached via :meth:`bind_metrics`
        self._m_hits = None
        self._m_builds = None
        self._m_repairs = None
        self._m_touched = None

    def bind_metrics(self, registry) -> None:
        """Mirror the counters into a :class:`repro.obs.MetricsRegistry`
        (idempotent; existing totals are not replayed — bind before the run
        starts)."""
        self._m_hits = registry.counter(
            "listcache_hits_total", "interaction-list lookups served from cache"
        )
        self._m_builds = registry.counter(
            "lists_rebuilt_total",
            "interaction-list lookups that rebuilt lists from scratch",
        )
        self._m_repairs = registry.counter(
            "lists_repaired_total",
            "interaction-list lookups answered by incremental repair",
        )
        self._m_touched = registry.histogram(
            "repair_nodes_touched",
            "nodes whose list rows one repair rewrote or removed",
            buckets=_REPAIR_BUCKETS,
        )

    def bind_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; each repair gets a span."""
        self._tracer = tracer

    # ------------------------------------------------------------------ get
    def get(self, tree: AdaptiveOctree, *, folded: bool = True) -> InteractionLists:
        """Return valid lists for ``tree``: cached, repaired, or rebuilt."""
        key = (id(tree), bool(folded))
        entry = self._entries.get(key)
        if entry is not None:
            ref, stamp = entry
            if ref() is tree:
                lists = getattr(tree, "_cached_lists", {}).get(bool(folded))
                if lists is not None:
                    if stamp == tree.structure_generation:
                        self.hits += 1
                        if self._m_hits is not None:
                            self._m_hits.inc()
                        return lists
                    repaired = self._try_repair(tree, lists, stamp)
                    if repaired is not None:
                        self._entries[key] = (ref, tree.structure_generation)
                        return repaired
        return self._rebuild(tree, key, folded)

    def _try_repair(self, tree, lists, stamp) -> InteractionLists | None:
        if not self._repair_enabled:
            return None
        journal = tree.journal_since(stamp)
        if journal is None or len(journal) > self._max_repair_ops:
            return None
        try:
            if self._tracer is not None:
                with self._tracer.span(
                    "list_repair", ops=len(journal), folded=lists.folded
                ):
                    stats = repair_interaction_lists(
                        tree,
                        lists,
                        journal,
                        max_affected_frac=self._max_affected_frac,
                    )
            else:
                stats = repair_interaction_lists(
                    tree, lists, journal, max_affected_frac=self._max_affected_frac
                )
        except RepairIneligible:
            return None
        self.repairs += 1
        if self._m_repairs is not None:
            self._m_repairs.inc()
        if self._m_touched is not None:
            self._m_touched.observe(stats.nodes_touched)
        return lists

    def _rebuild(self, tree, key, folded) -> InteractionLists:
        lists = self._builder(tree, folded=folded)
        lists.operator_store = self.operators
        self.builds += 1
        if self._m_builds is not None:
            self._m_builds.inc()
        if not hasattr(tree, "_cached_lists"):
            tree._cached_lists = {}
        tree._cached_lists[bool(folded)] = lists
        self._entries[key] = (
            weakref.ref(tree, lambda _ref, k=key: self._entries.pop(k, None)),
            tree.structure_generation,
        )
        return lists

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_counters`)."""
        for ref, _stamp in self._entries.values():
            tree = ref()
            if tree is not None and hasattr(tree, "_cached_lists"):
                tree._cached_lists.clear()
        self._entries.clear()

    def reset_counters(self) -> None:
        self.hits = 0
        self.builds = 0
        self.repairs = 0
