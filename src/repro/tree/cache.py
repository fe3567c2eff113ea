"""Generation-stamped memoization of interaction lists: hit or rebuild.

The balancer's outer loop (and any frozen-shape simulation step) calls
``build_interaction_lists`` on a tree whose *shape* has not changed since
the last step — ``refit`` re-sorts bodies but leaves the effective tree
intact.  :class:`ListCache` memoizes one :class:`InteractionLists` per
``(tree, folded)`` pair and validates it against the tree's
``structure_generation`` stamp: a lookup whose stamp matches is a hit, and
any other lookup rebuilds the lists from scratch.  There is no third path:
a rebuild at 50k Plummer bodies takes less time than patching the old
lists did (DESIGN.md §12).

``hits``/``builds`` make the policy observable: a frozen-shape step must
increment ``hits`` only, and a lookup after any shape change exactly one
``builds``.

The cache also owns the :class:`~repro.expansions.operators.OperatorStore`
of every lists it builds (``lists.operator_store``), which is what hands
translation operators from one tree to the next: they depend on the root
box, not on the tree.
"""

from __future__ import annotations

import weakref

from repro.expansions.operators import OperatorStore
from repro.tree.lists import InteractionLists, build_interaction_lists
from repro.tree.octree import AdaptiveOctree

__all__ = ["ListCache"]


def repair_interaction_lists(*_args, **_kwargs):
    """Retired; nothing calls it.  ``benchmarks/step_budget/harness.py:472``
    still wraps this name when it installs its spans, so it stays bound
    until that line goes."""
    raise NotImplementedError("list repair is retired: ListCache.get rebuilds")


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

    ``builder`` must stay the only positional default:
    ``benchmarks/step_budget/harness.py:469`` replaces ``__defaults__``
    with a 1-tuple.  ``operators`` is the store to stamp on the lists
    instead of one of the cache's own — a server passes its process-wide
    one to every request's cache.
    """

    def __init__(
        self,
        builder=build_interaction_lists,
        *,
        operators: OperatorStore | None = None,
    ) -> None:
        self._builder = builder
        self.operators = operators if operators is not None else OperatorStore()
        #: (id(tree), folded) -> (weakref-to-tree, structure_generation stamp)
        self._entries: dict = {}
        #: lookups answered from cache (tree shape unchanged)
        self.hits = 0
        #: lookups that (re)built lists from scratch
        self.builds = 0
        #: metrics instruments, attached via :meth:`bind_metrics`
        self._m_hits = None
        self._m_builds = None

    @property
    def repairs(self) -> int:
        """Always 0: read by ``benchmarks/step_budget/workloads.py:326`` and
        ``:547`` (the ``lists.cache_repairs`` metric)."""
        return 0

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

    # ------------------------------------------------------------------ get
    def get(self, tree: AdaptiveOctree, *, folded: bool = True) -> InteractionLists:
        """Return valid lists for ``tree``: cached if its shape stamp still
        matches, else rebuilt."""
        key = (id(tree), bool(folded))
        entry = self._entries.get(key)
        if entry is not None:
            ref, stamp = entry
            if ref() is tree and stamp == tree.structure_generation:
                lists = getattr(tree, "_cached_lists", {}).get(bool(folded))
                if lists is not None:
                    self.hits += 1
                    if self._m_hits is not None:
                        self._m_hits.inc()
                    return lists
        return self._rebuild(tree, key, folded)

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
