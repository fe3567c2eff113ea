"""Deterministic random-number-generator helpers.

All stochastic code in the library accepts either an integer seed or a
``numpy.random.Generator``; :func:`default_rng` normalizes the two.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng"]


def default_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Parameters
    ----------
    seed:
        ``None`` gives nondeterministic entropy, an ``int`` gives a
        deterministic stream, and an existing ``Generator`` is passed
        through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
