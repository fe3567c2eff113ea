"""Multipole/local expansion machinery.

Two interchangeable backends implement the expansion operators of the
paper's six FMM operations:

* :mod:`repro.expansions.cartesian` — Cartesian Taylor expansions built on
  scaled derivative tensors of 1/r (Duan–Krasny recurrence); the default.
* :mod:`repro.expansions.spherical` — classical solid-harmonic expansions
  (the representation named in the paper, "retained terms in the spherical
  harmonics expansion").
"""

from repro.expansions.multiindex import MultiIndexSet
from repro.expansions.derivatives import scaled_derivative_tensors
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion

__all__ = [
    "MultiIndexSet",
    "scaled_derivative_tensors",
    "CartesianExpansion",
    "SphericalExpansion",
]
