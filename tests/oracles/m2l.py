"""The per-(level, displacement) M2L class loop — the reference the
octet-blocked, level-free M2L of :mod:`repro.fmm.farfield` is tested
(and, in ``benchmarks/test_bench_hotpaths.py``, timed) against.

This is the loop the far-field sweep ran before M2L moved onto sibling
octets (DESIGN.md §9): every V pair is keyed by its level and the integer
cell offset of its two nodes, each key gets one ``(p+1)^2``-square core
built from the *centre difference* of a representative pair, and the
sweep is ``L[t] += M[s] @ core`` per class over the sweep-width rows.
It reads the V table itself, so agreement with the shipped sweep also
checks that the V list is what the colleague pairs of split nodes imply.  Nothing under ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL

__all__ = ["displacement_classes", "m2l_locals"]


def displacement_classes(tree, lists, expansion):
    """``(keys, classes)``: one ``(src_rows, tgt_rows, core)`` per
    ``(level, displacement)`` key, ascending; pair order inside a class is
    the V table's.

    The key of a pair is ``((level * 17 + k_x + 8) * 17 + k_y + 8) * 17 +
    k_z + 8`` with ``k`` the integer cell-coordinate difference, target
    minus source, at the pair's level.
    """
    tab = tree.node_table()
    cell = tab.cell >> (MAX_MORTON_LEVEL - tab.level)[:, None]
    v = lists.table("v_list")
    trow, srow = tab.row_of[v.owners], tab.row_of[v.values]
    k = cell[trow] - cell[srow] + 8
    pair_keys = ((tab.level[trow] * 17 + k[:, 0]) * 17 + k[:, 1]) * 17 + k[:, 2]
    order = np.argsort(pair_keys, kind="stable")
    keys, starts = np.unique(pair_keys[order], return_index=True)
    srow, trow = srow[order], trow[order]
    cores = []
    if keys.size:
        cores = expansion.m2l_class_operators(
            tab.centers[trow[starts]] - tab.centers[srow[starts]]
        )
    bounds = np.append(starts, order.size)
    classes = [
        (srow[lo:hi], trow[lo:hi], core)
        for lo, hi, core in zip(bounds[:-1], bounds[1:], cores)
    ]
    return keys, classes


def m2l_locals(classes, multipoles):
    """The locals M2L leaves behind, class by class."""
    out = np.zeros_like(multipoles)
    for srows, trows, core in classes:
        out[trows] += multipoles[srows] @ core
    return out
