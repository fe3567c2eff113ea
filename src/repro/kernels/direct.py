"""Direct (all-pairs) evaluation.

``direct_evaluate`` is the brute-force field: the reference FMM accuracy
is tested against and a simulation's direct-force path, chunked over
targets so memory stays bounded at large N.  (The FMM's own P2P phase is
:mod:`repro.fmm.nearfield`.)
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

__all__ = ["direct_evaluate"]

#: Target-chunk size bounding the (chunk x n_sources) temporary.
_CHUNK = 2048


def direct_evaluate(
    kernel: Kernel,
    targets: np.ndarray,
    sources: np.ndarray,
    strengths: np.ndarray,
    *,
    gradient: bool = False,
    exclude_self: bool = False,
    chunk: int = _CHUNK,
) -> np.ndarray:
    """All-pairs field (or gradient) at every target, chunked over targets.

    ``exclude_self`` assumes targets and sources are the *same* array (in
    the same order) and removes each body's self contribution.

    Output shape is ``(n_targets, 3)`` when ``gradient`` is requested —
    every kernel's ``gradient`` returns one spatial vector per target,
    regardless of its ``value_dim`` — and ``(n_targets, value_dim)``
    otherwise.
    """
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    nt = t.shape[0]
    dim = 3 if gradient else kernel.value_dim
    out = np.zeros((nt, dim))
    fn = kernel.gradient if gradient else kernel.evaluate
    for lo in range(0, nt, chunk):
        hi = min(lo + chunk, nt)
        out[lo:hi] = fn(t[lo:hi], sources, strengths, exclude_self=False)
    if exclude_self:
        out -= kernel.self_interaction(t, strengths, gradient=gradient)
    return out

