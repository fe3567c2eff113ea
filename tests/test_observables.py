"""Tests for physics observables + the §IX-A workload-evolution claim."""

import numpy as np
import pytest

from repro.balance import BalancerConfig
from repro.distributions import compact_plummer, plummer
from repro.kernels import GravityKernel
from repro.machine import system_a
from repro.sim import Simulation, SimulationConfig
from repro.sim.observables import (
    center_of_mass,
    kinetic_energy,
    lagrangian_radii,
    potential_energy,
    total_energy,
    virial_ratio,
)


class TestObservables:
    def test_kinetic_energy_formula(self):
        from repro.distributions import ParticleSet

        ps = ParticleSet(
            np.zeros((2, 3)),
            np.array([[1.0, 0, 0], [0, 2.0, 0]]),
            np.array([2.0, 1.0]),
        )
        assert kinetic_energy(ps) == pytest.approx(0.5 * (2 * 1 + 1 * 4))

    def test_two_body_potential(self):
        from repro.distributions import ParticleSet

        ps = ParticleSet(
            np.array([[0.0, 0, 0], [2.0, 0, 0]]),
            np.zeros((2, 3)),
            np.array([3.0, 4.0]),
        )
        ker = GravityKernel(G=1.0)
        assert potential_energy(ps, ker) == pytest.approx(-3.0 * 4.0 / 2.0)

    def test_virialized_plummer_ratio_near_one(self):
        ps = plummer(3000, seed=0, total_mass=1.0)
        assert virial_ratio(ps, GravityKernel(G=1.0)) == pytest.approx(1.0, rel=0.15)

    def test_hot_start_ratio_above_one(self):
        ps = compact_plummer(1000, seed=0, total_mass=1.0, velocity_scale=1.5)
        assert virial_ratio(ps, GravityKernel(G=1.0)) > 1.5

    def test_lagrangian_radii_ordered(self):
        ps = plummer(2000, seed=1)
        radii = lagrangian_radii(ps)
        assert radii[0.1] < radii[0.5] < radii[0.9]

    def test_lagrangian_fraction_validation(self):
        ps = plummer(100, seed=0)
        with pytest.raises(ValueError):
            lagrangian_radii(ps, fractions=(0.0,))

    def test_center_of_mass_weighted(self):
        from repro.distributions import ParticleSet

        ps = ParticleSet(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            np.zeros((2, 3)),
            np.array([1.0, 3.0]),
        )
        assert center_of_mass(ps)[0] == pytest.approx(0.75)


class TestWorkloadEvolution:
    def test_hot_cluster_expands(self):
        """§IX-A: the compact, above-virial cluster must expand through
        the simulation space over the run (the workload that makes
        strategy 1 degrade)."""
        ps = compact_plummer(600, seed=2, total_mass=1.0, velocity_scale=1.8)
        r_before = lagrangian_radii(ps)[0.9]
        cfg = SimulationConfig(
            dt=1e-4,
            order=3,
            forces="direct",
            strategy="static",
            balancer=BalancerConfig(gap_threshold_frac=0.15),
        )
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3), system_a(), config=cfg)
        sim.run(60)
        r_after = lagrangian_radii(sim.particles)[0.9]
        assert r_after > 1.5 * r_before

    def test_energy_conserved_without_wall_contact(self):
        ps = plummer(400, seed=3, total_mass=1.0)
        ker = GravityKernel(G=1.0, softening=1e-2)
        e0 = total_energy(ps, ker)
        cfg = SimulationConfig(
            dt=5e-4,
            order=4,
            forces="direct",
            strategy="static",
            balancer=BalancerConfig(gap_threshold_frac=0.15),
        )
        sim = Simulation(ps, ker, system_a(), config=cfg)
        sim.balancer.S = 64
        sim.run(30)
        assert total_energy(sim.particles, ker) == pytest.approx(e0, rel=0.05)
