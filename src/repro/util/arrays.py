"""Array idioms shared by the tree, list and far-field layers."""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "csr_ptr",
    "frozen_cache",
    "segment_positions",
    "stable_argsort",
    "stable_key_order",
]


def frozen_cache(fn):
    """``functools.lru_cache(maxsize=None)`` whose tables are read-only.

    The expansion tables cached this way are shared by every thread that
    solves.  Two threads missing one key at once both build it (the same
    values) and the cache keeps one; every array in the result — also
    inside tuples and lists — is made read-only, so no caller can write a
    table another thread is reading.
    """

    @functools.wraps(fn)
    def build(*args, **kwargs):
        return _freeze(fn(*args, **kwargs))

    return functools.lru_cache(maxsize=None)(build)


def _freeze(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    return value


def csr_ptr(counts: np.ndarray) -> np.ndarray:
    """CSR pointer of consecutive rows of lengths ``counts``."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64, copy=False)


def segment_positions(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``lo[k]:hi[k]`` back to back, in order; returns
    ``(positions, counts)`` — the vectorized ``concat(range(lo[k], hi[k]))``."""
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), cnt
    ends = np.cumsum(cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt, cnt)
    return np.repeat(lo, cnt) + within, cnt


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer ``keys`` known to lie in ``[0, bound)``.

    NumPy's stable sort is a radix sort for integers of 16 bits or fewer —
    O(n), 4 ms against 47 ms for the general merge sort on half a million
    keys — so keys that fit are narrowed first; larger bounds take the
    general sort.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def stable_key_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(keys, kind="stable")`` and the sorted keys, by way of the
    unstable sort.

    For 64-bit keys NumPy's stable sort is a merge sort, 4-5x slower than
    its default one.  The two differ only in the order of equal keys, which
    the stable sort leaves by index: so sort unstably, then re-sort by index
    just the runs of equal keys.  A run's members keep their positions; a
    key of ``run * n + index`` sorts all runs at once, since the runs'
    ranks only grow along the sorted order.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    tie = sorted_keys[1:] == sorted_keys[:-1]
    if not tie.any():
        return order, sorted_keys
    n = order.size
    in_run = np.zeros(n, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    starts = in_run.copy()
    starts[1:] &= ~tie
    run = (np.cumsum(starts) - 1)[in_run] * n
    ranked = order[in_run] + run
    ranked.sort()
    order[in_run] = ranked - run
    return order, sorted_keys
