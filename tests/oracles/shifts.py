"""The per-(level, octant) M2M / L2L class loop — the reference the
level-free, octet-blocked shifts of :mod:`repro.fmm.farfield` are tested
(and, in ``benchmarks/test_bench_hotpaths.py``, timed) against.

This is the loop the far-field sweep ran before a tree level's shifts
became one gemm over sibling octets (DESIGN.md §9): every non-root node is
keyed by its level and its octant in its parent, each key gets the
operator the back end builds at the exact shift ``+-h_root / 2^(l+1)``,
and the sweep is ``M[p] += M[c] @ op`` per class, deepest level first,
then ``L[c] += L[p] @ op`` per class, shallowest level first.  Nothing
under ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL

__all__ = ["l2l_locals", "m2m_multipoles", "shift_classes"]


def shift_classes(tree, expansion):
    """``[(level, child_rows, parent_rows, m2m_op, l2l_op)]``, one per
    ``(level, octant)`` key, deepest level first and octants ascending;
    rows are the tree's node-table rows, children in preorder."""
    tab = tree.node_table()
    child_rows = np.nonzero(tab.parent_row >= 0)[0]
    level = tab.level[child_rows]
    cell = tab.cell[child_rows] >> (MAX_MORTON_LEVEL - level)[:, None]
    side = cell & 1
    octant = side @ np.array([1, 2, 4])
    h = tree.root_box.size
    classes = []
    for key in sorted(set(zip((-level).tolist(), octant.tolist()))):
        sel = np.nonzero((level == -key[0]) & (octant == key[1]))[0]
        lvl = -key[0]
        d = (side[sel[0]] - 0.5) * (h / 2.0**lvl)  # child centre minus parent centre
        classes.append(
            (
                lvl,
                child_rows[sel],
                tab.parent_row[child_rows[sel]],
                expansion.m2m_class_operator(-d),
                expansion.l2l_class_operator(d),
            )
        )
    return classes


def _apply(rows, op):
    """``rows`` of ``k`` channels times ``op`` per channel."""
    nc = op.shape[0]
    return (rows.reshape(-1, nc) @ op).reshape(rows.shape)


def m2m_multipoles(classes, multipoles):
    """``multipoles`` (leaf rows filled, every other row zero) after the
    upward sweep: a copy."""
    out = multipoles.copy()
    for _lvl, crows, prows, op, _ in classes:
        out[prows] += _apply(out[crows], op)
    return out


def l2l_locals(classes, locals_):
    """``locals_`` (M2L done) after the downward sweep: a copy."""
    out = locals_.copy()
    for _lvl, crows, prows, _, op in reversed(classes):
        out[crows] += _apply(out[prows], op)
    return out
