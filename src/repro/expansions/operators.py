"""Every translation operator of a far-field sweep, as one immutable set.

Octree geometry is quantised (Agullo et al.; Goude & Engblom): a child sits
at ``+-h/4`` per axis from its parent, colleagues one cell apart, and both
translations are homogeneous in the cell size — halving it multiplies entry
``(a, b)`` of an operator by an exact power of two fixed by the degrees of
coefficients ``a`` and ``b``.  So the operators depend on ``(backend, order,
h_root)`` alone, whatever the tree: :class:`OperatorSet` holds 8 M2M and 8
L2L *reference* operators built at the root's child offset ``+-h_root/4``
(a deeper level's are derived by :meth:`OperatorSet.m2m_at` /
:meth:`~OperatorSet.l2l_at`, bit for bit what the back end builds at the
exact shift ``+-h_root / 2^(level+1)``) and the 13 octet-to-octet M2L
direction blocks built at the root's cell size (the level factors go onto
the octet arrays — :mod:`repro.fmm.farfield`), assembled whole in one call.

:class:`OperatorStore` keeps the most recently used sets, so a tree rebuild,
the next request of a server, or a second solver on the same domain reads
its operators instead of assembling them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["MAX_RESIDENT_SETS", "OperatorSet", "OperatorStore"]

#: colleague cell offsets ``D`` (target minus source) an M2L block exists for,
#: in the order of their key ``(D + 1) . (9, 3, 1)`` = 14..26; ``-D`` is the
#: block of ``D`` between mirrored octets
M2L_DIRECTIONS = tuple(D for D in product((-1, 0, 1), repeat=3) if D > (0, 0, 0))

#: sets an :class:`OperatorStore` keeps; one is 1.7 MB (order 3) to 32 MB
#: (order 6, complex), and ``h_root`` is whatever a client sends
MAX_RESIDENT_SETS = 8


def _m2l_cores(expansion, h_root: float) -> dict:
    """``{d: core}`` for the 316 child-cell displacements ``d`` of the +-3
    cube outside the +-1 cube, from one batched assembly — built at the
    root's cell size (``d * h_root``), whatever level the octets sit on:
    halving the cell multiplies entry ``(a, b)`` of a core by ``2^(n_a +
    n_b + 1)`` exactly, and :func:`repro.fmm.farfield.m2l_reduce` /
    :func:`~repro.fmm.farfield.m2l_expand` put those factors on the octet
    arrays instead."""
    g = np.arange(-3, 4)
    disp = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    disp = disp[np.abs(disp).max(axis=1) >= 2]
    cores = expansion.m2l_class_operators(disp * h_root)
    return dict(zip(map(tuple, disp.tolist()), cores))


def _m2l_direction_block(cores: dict, D) -> np.ndarray:
    """The ``(8w, 8w)`` octet-to-octet M2L operator of direction ``D``, the
    cell offset (target minus source, own-level cells) between two
    colleague split nodes: sub-block (source child ``j``, target child
    ``i``) is the core of the child-cell displacement ``2D + o_i - o_j``,
    or zero where those two children are adjacent (bit k of an octant is
    its side along axis k, as the tree allocates children)."""
    any_core = next(iter(cores.values()))
    w = any_core.shape[0]
    block = np.zeros((8, w, 8, w), dtype=any_core.dtype)
    for j in range(8):
        for i in range(8):
            d = tuple(2 * D[k] + (i >> k & 1) - (j >> k & 1) for k in range(3))
            if d in cores:
                block[j, :, i, :] = cores[d]
    return block.reshape(8 * w, 8 * w)


def _ldexp(op: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``op * 2**exponents`` entry by entry, exactly — through the float
    parts, because ``np.ldexp`` has no complex loop."""
    parts = op.view(np.float64).reshape(*op.shape, -1)
    return np.ldexp(parts, exponents[..., None]).view(op.dtype).reshape(op.shape)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """The 8 + 8 + 13 row-applied operators (``out_rows += in_rows @ op``)
    of one ``(backend, order, h_root)``; arrays are read-only."""

    backend: str
    order: int
    h_root: float
    rise: np.ndarray  # (n_coeffs, n_coeffs) degree of coefficient b minus that of a
    m2m: tuple  # [octant] level-1 child's multipole -> the root's
    l2l: tuple  # [octant] the root's local -> level-1 child's
    m2l: tuple  # [key - 14] direction block of ``M2L_DIRECTIONS[key - 14]``

    @classmethod
    def build(cls, expansion, h_root: float) -> "OperatorSet":
        # bit k of an octant is the child's side along axis k
        side = np.array([[o >> k & 1 for k in range(3)] for o in range(8)])
        offsets = (side - 0.5) * (h_root / 2)  # child centre minus parent centre
        cores = _m2l_cores(expansion, h_root)
        n = expansion.shift_degrees
        ops = cls(
            expansion.backend,
            expansion.order,
            float(h_root),
            n[None, :] - n[:, None],
            m2m=tuple(expansion.m2m_class_operator(-d) for d in offsets),
            l2l=tuple(expansion.l2l_class_operator(d) for d in offsets),
            m2l=tuple(_m2l_direction_block(cores, D) for D in M2L_DIRECTIONS),
        )
        for op in ops:
            op.setflags(write=False)
        return ops

    def __iter__(self):
        return iter(self.m2m + self.l2l + self.m2l)

    def __len__(self) -> int:
        return len(self.m2m) + len(self.l2l) + len(self.m2l)

    @property
    def nbytes(self) -> int:
        return sum(op.nbytes for op in self)

    def m2m_at(self, level: int, octant: int) -> np.ndarray:
        """M2M from a level-``level`` child: entry ``(a, b)`` carries the
        shift to the power ``n_b - n_a``, and the shift is ``2^(level-1)``
        times shorter than the reference one."""
        return _ldexp(self.m2m[octant], (1 - level) * self.rise)

    def l2l_at(self, level: int, octant: int) -> np.ndarray:
        """L2L to a level-``level`` child: the mirror, ``n_a - n_b``."""
        return _ldexp(self.l2l[octant], (level - 1) * self.rise)


class OperatorStore:
    """The :data:`MAX_RESIDENT_SETS` most recently used :class:`OperatorSet`
    of whoever owns it — a :class:`~repro.tree.cache.ListCache`, or a server
    process for all of its requests' caches.  Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sets: dict = {}  # least recently used first
        self.hits = 0
        self.misses = 0

    def get(self, expansion, h_root: float) -> tuple[OperatorSet, bool]:
        """``(set, built)``: the set of ``(expansion, h_root)``, and whether
        this call assembled it."""
        key = (expansion.backend, expansion.order, float(h_root))
        with self._lock:
            ops = self._sets.pop(key, None)
            if ops is not None:
                self._sets[key] = ops
                self.hits += 1
                return ops, False
            self.misses += 1
        built = OperatorSet.build(expansion, h_root)  # ~20 ms: not under the lock
        with self._lock:
            # of two racing builds of one key the first stays (same bits)
            ops = self._sets.setdefault(key, built)
            while len(self._sets) > MAX_RESIDENT_SETS:
                del self._sets[next(iter(self._sets))]
        return ops, True

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._sets),
                "bytes": sum(ops.nbytes for ops in self._sets.values()),
            }
