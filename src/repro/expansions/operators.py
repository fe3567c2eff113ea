"""Every translation operator of a far-field sweep, as one immutable set.

Octree geometry is quantised (Agullo et al.; Goude & Engblom): a child sits
at ``+-h/4`` per axis from its parent, colleagues one cell apart, and both
translations are homogeneous in the cell size — halving it multiplies entry
``(a, b)`` of an operator by an exact power of two fixed by the degrees of
coefficients ``a`` and ``b``.  So the operators depend on ``(backend, order,
h_root)`` alone, whatever the tree: :class:`OperatorSet` holds one M2M and
one L2L *stack* — the eight octants' shift operators built at the root's
child offset ``+-h_root/4``, side by side, so a tree level's shifts are one
gemm over sibling octets — and the 13 octet-to-octet M2L direction blocks
built at the root's cell size, assembled whole in one call.  A level's
factors, exact powers of two, fold into its shift stacks (made once per
set and level) and onto the rows M2L reads and writes (:mod:`repro.fmm.farfield`).

:class:`OperatorStore` keeps the most recently used sets, so a tree rebuild,
the next request of a server, or a second solver on the same domain reads
its operators instead of assembling them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
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


def _far_displacements():
    """The 316 child-cell displacements ``d`` between non-adjacent children
    of two colleague split nodes — the +-3 cube less the +-1 cube, in
    meshgrid order — and the ``(13, 8, 8)`` table placing them: entry
    ``[k, j, i]`` is the row of ``2D + o_i - o_j`` (``D`` direction ``k``,
    source child ``j``, target child ``i``; bit k of an octant is its side
    along axis k, as the tree allocates children), -1 where those two
    children are adjacent."""
    g = np.arange(-3, 4)
    disp = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    disp = disp[np.abs(disp).max(axis=1) >= 2]
    row = np.full((7, 7, 7), -1)
    row[tuple((disp + 3).T)] = np.arange(len(disp))
    side = (np.arange(8)[:, None] >> np.arange(3)) & 1
    d = 2 * np.array(M2L_DIRECTIONS)[:, None, None] + side - side[:, None]  # [k, j, i]
    return disp, row[tuple(np.moveaxis(d + 3, -1, 0))]


_FAR, _BLOCK_CORES = _far_displacements()


def _m2l_blocks(expansion, h_root: float) -> list[np.ndarray]:
    """The 13 ``(8w, 8w)`` octet-to-octet M2L operators, in
    ``M2L_DIRECTIONS`` order (``D`` the cell offset, target minus source,
    between two colleague split nodes): one batched assembly of the 316
    cores, then one gather per direction of its 64 sub-blocks.  The cores
    are built at the root's cell size (``d * h_root``), whatever level the
    octets sit on: halving the cell multiplies entry ``(a, b)`` of a core
    by ``2^(n_a + n_b + 1)`` exactly, and :func:`repro.fmm.farfield.m2l`
    puts those factors on its octet arrays instead.  Each block owns its
    memory (one array for all 13 slowed served requests by ~15%)."""
    cores = expansion.m2l_class_operators(_FAR * h_root)
    w = cores.shape[1]
    blocks = []
    for rows in _BLOCK_CORES:
        sub = cores[np.maximum(rows, 0)]  # (j, i, w, w)
        sub[rows < 0] = 0.0
        blocks.append(np.ascontiguousarray(sub.transpose(0, 2, 1, 3)).reshape(8 * w, 8 * w))
    return blocks


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """The 1 + 1 + 13 row-applied operators (``out_rows = in_rows @ op``)
    of one ``(backend, order, h_root)``; arrays are read-only.

    A shift ``+-h_root / 2^(l+1)`` (a level-``l`` child) is ``2^(l-1)``
    times shorter than the reference one, and entry ``(a, b)`` of its M2M
    operator carries the shift to the power ``n_b - n_a`` (``n`` the
    expansion's ``degrees``; L2L the mirror, ``n_a - n_b``).  So octant
    ``o``'s level-``l`` M2M operator is, bit for bit, ``m2m[o w:(o+1) w]``
    (``w`` the sweep ``width``) with row ``a`` times ``2^((l-1) n_a)`` and
    column ``b`` times ``2^((1-l) n_b)``: :meth:`shift_stacks`.
    """

    backend: str
    order: int
    h_root: float
    m2m: np.ndarray  # (8 w, w): octant o's level-1 child -> parent in rows o w ...
    l2l: np.ndarray  # (w, 8 w): parent -> octant o's level-1 child in columns o w ...
    m2l: tuple  # [key - 14] direction block of ``M2L_DIRECTIONS[key - 14]``
    degrees: np.ndarray  # (w,) the expansion's ``degrees``
    _levels: dict = field(default_factory=dict, repr=False)  # level -> shift_stacks

    def shift_stacks(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(m2m, l2l)`` of a level-``level`` child (L2L the mirror of M2M),
        made on first use and shared by every tree over this root box."""
        stacks = self._levels.get(level)
        if stacks is None:
            grow, shrink = (np.ldexp(1.0, s * (level - 1) * self.degrees) for s in (1, -1))
            stacks = (np.tile(grow, 8)[:, None] * self.m2m * shrink,
                      shrink[:, None] * self.l2l * np.tile(grow, 8))
            for op in stacks:
                op.setflags(write=False)
            self._levels[level] = stacks
        return stacks

    @classmethod
    def build(cls, expansion, h_root: float) -> "OperatorSet":
        # bit k of an octant is the child's side along axis k
        side = np.array([[o >> k & 1 for k in range(3)] for o in range(8)])
        offsets = (side - 0.5) * (h_root / 2)  # child centre minus parent centre
        ops = cls(
            expansion.backend,
            expansion.order,
            float(h_root),
            m2m=np.concatenate([expansion.m2m_class_operator(-d) for d in offsets]),
            l2l=np.concatenate([expansion.l2l_class_operator(d) for d in offsets], axis=1),
            m2l=tuple(_m2l_blocks(expansion, h_root)),
            degrees=expansion.degrees,
        )
        for op in ops:
            op.setflags(write=False)
        return ops

    def __iter__(self):
        return iter((self.m2m, self.l2l) + self.m2l)

    def __len__(self) -> int:
        return 2 + len(self.m2l)

    @property
    def nbytes(self) -> int:
        return sum(op.nbytes for op in self)


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
