"""Process-global geometry-class operator cache shared across tenants.

The far-field sweep builds one dense operator per *geometry class*
(a parent<->child shift per ``(level, octant)``; for M2L one
octet-to-octet block per colleague direction, level-free — DESIGN.md §9).
A request's whole operator set — ~125 operators, of which at most 13 are
M2L blocks; 2.1 MB at the served size n = 2000, order 3 — costs ~14 ms to
build (geometry layer: ~15 ms over an empty cache, ~1 ms over a warm
one) and sharing it saves about that much per request.  Those operators
depend only on ``(backend, order, kind, class_key)`` **and the absolute
cell size**, so two requests over different trees share operators exactly
when their root boxes agree — and then the second builds no M2L block at
all, however different its tree.  :class:`SharedOperatorCache` therefore
hands out *scoped views* keyed by the root-box edge length: each
:class:`~repro.tree.cache.ListCache` installs
``cache.scoped(float(tree.root_box.size))`` on its interaction lists,
and all tenants whose canonical domain matches hit the same entries.

The store is a lock-protected LRU with a byte budget — operator arrays
report ``nbytes``, which is what they pin only because every operator
handed to ``put`` owns its memory (never a view into a batch) — and
exposes the hit/build/evict counters the serve status endpoint and
metrics gauges publish.  ``get``/``put`` tolerate
concurrent calls from any number of engine worker threads; a racing
double-build of the same operator is benign (both products are bitwise
identical by construction) and the second ``put`` simply refreshes the
entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["SharedOperatorCache"]


def _nbytes(op: Any) -> int:
    """Best-effort size of one cached operator (arrays or tuples of them)."""
    direct = getattr(op, "nbytes", None)
    if direct is not None:
        return int(direct)
    if isinstance(op, (tuple, list)):
        return sum(_nbytes(item) for item in op)
    return 64  # opaque object: charge a token amount so entries still count


class _ScopedView:
    """A key-prefixing facade satisfying ``OperatorCacheProtocol``.

    Installed on interaction lists by :class:`~repro.tree.cache.ListCache`;
    prepends the tree scope (root-box size) so same-shaped classes from
    differently-sized trees never collide.
    """

    __slots__ = ("_parent", "_scope")

    def __init__(self, parent: "SharedOperatorCache", scope: Hashable) -> None:
        self._parent = parent
        self._scope = scope

    def get(self, key: Hashable) -> Any | None:
        return self._parent.get((self._scope,) + tuple(key))

    def put(self, key: Hashable, op: Any) -> None:
        self._parent.put((self._scope,) + tuple(key), op)

    @property
    def evictions(self) -> int:
        return self._parent.evictions


class SharedOperatorCache:
    """Bounded process-global LRU of geometry-class operators."""

    def __init__(self, max_bytes: int = 256 << 20) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._store: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    # ------------------------------------------------ OperatorCacheProtocol
    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._store.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, op: Any) -> None:
        size = _nbytes(op)
        with self._lock:
            old = self._store.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._store[key] = (op, size)
            self._bytes += size
            self._puts += 1
            # evict coldest-first until back under budget; never evict the
            # entry just inserted (a single over-budget operator stays
            # resident until something else displaces it)
            while self._bytes > self.max_bytes and len(self._store) > 1:
                _, (_, freed) = self._store.popitem(last=False)
                self._bytes -= freed
                self._evictions += 1

    @property
    def evictions(self) -> int:
        return self._evictions

    # ----------------------------------------------------------- serve API
    def scoped(self, scope: Hashable) -> _ScopedView:
        """A view whose keys are prefixed with ``scope`` (root-box size)."""
        return _ScopedView(self, scope)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "evictions": self._evictions,
                "bytes": self._bytes,
                "entries": len(self._store),
                "max_bytes": self.max_bytes,
            }

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)
