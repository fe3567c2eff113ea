"""Tests for the time-stepped simulation driver and integrators."""

import numpy as np
import pytest

from repro.balance import BalancerConfig
from repro.distributions import compact_plummer, plummer, uniform_cube
from repro.geometry import Box
from repro.kernels import GravityKernel
from repro.machine import system_a
from repro.sim import LeapfrogIntegrator, Simulation, SimulationConfig, reflect_into_box


class TestLeapfrog:
    def test_requires_priming(self):
        integ = LeapfrogIntegrator(0.1)
        with pytest.raises(RuntimeError):
            integ.drift_positions(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            LeapfrogIntegrator(0.0)

    def test_free_particle_constant_velocity(self):
        integ = LeapfrogIntegrator(0.5)
        pos = np.array([[0.0, 0.0, 0.0]])
        vel = np.array([[1.0, 0.0, 0.0]])
        integ.prime(np.zeros((1, 3)))
        for _ in range(4):
            pos = integ.drift_positions(pos, vel)
            integ.finish_step(vel, np.zeros((1, 3)))
        assert pos[0, 0] == pytest.approx(2.0)
        assert vel[0, 0] == pytest.approx(1.0)

    def test_kepler_two_body_energy_conservation(self):
        # circular two-body orbit: leapfrog conserves energy to high order
        G = 1.0
        ker = GravityKernel(G=G)
        m = np.array([1.0, 1.0])
        r = 1.0
        pos = np.array([[-r / 2, 0, 0], [r / 2, 0, 0]])
        v = np.sqrt(G * 1.0 / (2 * r))  # circular speed about the barycenter
        vel = np.array([[0, -v, 0], [0, v, 0]])
        dt = 1e-3

        def acc(p):
            return ker.gradient(p, p, m, exclude_self=True)

        def energy(p, vl):
            ke = 0.5 * (m[:, None] * vl**2).sum()
            pe = -G * m[0] * m[1] / np.linalg.norm(p[0] - p[1])
            return ke + pe

        integ = LeapfrogIntegrator(dt)
        integ.prime(acc(pos))
        e0 = energy(pos, vel)
        for _ in range(2000):
            pos = integ.drift_positions(pos, vel)
            integ.finish_step(vel, acc(pos))
        assert energy(pos, vel) == pytest.approx(e0, rel=1e-5)
        # still on a circle of radius ~r
        assert np.linalg.norm(pos[0] - pos[1]) == pytest.approx(r, rel=1e-3)


class TestReflection:
    def test_inside_untouched(self):
        box = Box((0, 0, 0), 2.0)
        pos = np.array([[0.5, -0.5, 0.0]])
        vel = np.array([[1.0, 1.0, 1.0]])
        n = reflect_into_box(pos, vel, box)
        assert n == 0
        assert np.allclose(vel, 1.0)

    def test_reflects_position_and_velocity(self):
        box = Box((0, 0, 0), 2.0)
        pos = np.array([[1.3, 0.0, 0.0]])
        vel = np.array([[2.0, 0.0, 0.0]])
        n = reflect_into_box(pos, vel, box)
        assert n == 1
        assert pos[0, 0] == pytest.approx(0.7)
        assert vel[0, 0] == -2.0

    def test_everything_ends_inside(self, rng):
        box = Box((0, 0, 0), 2.0)
        pos = rng.uniform(-3, 3, (100, 3))
        vel = rng.normal(size=(100, 3))
        reflect_into_box(pos, vel, box)
        assert box.contains(pos).all()


class TestSimulation:
    def _config(self, strategy="full", forces="direct"):
        return SimulationConfig(
            dt=1e-4,
            order=3,
            forces=forces,
            strategy=strategy,
            balancer=BalancerConfig(gap_threshold_frac=0.15, s_min=8, s_max=1024),
        )

    def test_runs_and_logs(self):
        ps = compact_plummer(400, seed=0, total_mass=1.0, velocity_scale=1.2)
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3),
                         system_a().with_resources(n_cores=10, n_gpus=4),
                         config=self._config())
        log = sim.run(5)
        assert len(log) == 5
        rec = log[0]
        assert rec["compute_time"] > 0
        assert rec["total_time"] >= rec["compute_time"]
        assert rec["S"] >= 8

    def test_bodies_stay_in_domain(self):
        ps = compact_plummer(300, seed=1, total_mass=1.0, velocity_scale=2.0)
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3),
                         system_a(), config=self._config())
        sim.run(10)
        assert sim.domain.contains(sim.particles.positions).all()

    def test_fmm_and_direct_forces_agree(self):
        ps1 = compact_plummer(300, seed=2, total_mass=1.0)
        ps2 = ps1.copy()
        ker = GravityKernel(G=1.0, softening=1e-3)
        mach = system_a()
        cfg_d = SimulationConfig(dt=1e-4, order=5, forces="direct", strategy="static",
                                 balancer=BalancerConfig(gap_threshold_frac=0.15))
        cfg_f = SimulationConfig(dt=1e-4, order=5, forces="fmm", strategy="static",
                                 balancer=BalancerConfig(gap_threshold_frac=0.15))
        sim_d = Simulation(ps1, ker, mach, config=cfg_d)
        sim_f = Simulation(ps2, ker, mach, config=cfg_f)
        sim_d.balancer.S = sim_f.balancer.S = 64
        for _ in range(3):
            sim_d.step()
            sim_f.step()
        # trajectories agree to FMM truncation accuracy
        err = np.max(np.abs(sim_d.particles.positions - sim_f.particles.positions))
        scale = np.max(np.abs(sim_d.particles.positions))
        assert err / scale < 1e-3

    def test_static_strategy_never_rebuilds_after_search(self):
        ps = compact_plummer(300, seed=3, total_mass=1.0, velocity_scale=1.5)
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3),
                         system_a(), config=self._config(strategy="static"))
        sim.run(15)
        states = sim.log.column("state")
        # after search ends, S must be constant
        s_vals = sim.log.column("S")
        post = [s for st, s in zip(states, s_vals) if st != "search"]
        assert len(set(post)) <= 1

    def test_one_refit_per_frozen_shape_step(self, monkeypatch):
        """The post-drift refit fits the tree to the positions the next
        step starts from, so a frozen-shape step refits once, not twice."""
        from repro.tree import AdaptiveOctree

        ps = compact_plummer(300, seed=3, total_mass=1.0, velocity_scale=1.5)
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3), system_a(),
                         config=self._config(strategy="static", forces="fmm"))
        sim.run(15)
        assert sim.balancer._frozen
        tree = sim.tree
        calls = []
        refit = AdaptiveOctree.refit

        def counted(self):
            calls.append(self)
            return refit(self)

        monkeypatch.setattr(AdaptiveOctree, "refit", counted)
        sim.run(6)
        assert sim.tree is tree  # no rebuild: the balancer is frozen
        assert len(calls) == 6

    def test_skipped_refit_is_bitwise_a_forced_one(self):
        """Skipping the pre-step refit changes no bit: the event log, the
        balancer's decisions, positions and velocities equal a run that
        refits at the top of every step, through the S search, rebuilds
        and surgery."""

        def run(force):
            ps = compact_plummer(600, seed=4, velocity_scale=1.5)
            sim = Simulation(ps, GravityKernel(G=1.0),
                             system_a().with_resources(n_cores=10, n_gpus=4),
                             config=SimulationConfig(
                                 dt=1e-4, order=3, strategy="full", n_workers=1,
                                 balancer=BalancerConfig(gap_threshold_frac=0.15)))
            if force:
                ensure = sim._ensure_tree

                def forced():
                    sim._fitted_generation = None
                    ensure()

                sim._ensure_tree = forced
            with sim:
                sim.run(18)
            return sim

        a, b = run(False), run(True)
        assert [r.fields for r in a.log] == [r.fields for r in b.log]
        assert a.balancer.decisions == b.balancer.decisions
        assert np.array_equal(a.particles.positions, b.particles.positions)
        assert np.array_equal(a.particles.velocities, b.particles.velocities)
        assert len({d["S"] for d in a.balancer.decisions}) > 1  # the search moved S

    def test_energy_sane_over_short_run(self):
        # total energy drift stays small over a short virialized run
        ps = plummer(300, seed=4, total_mass=1.0)
        ker = GravityKernel(G=1.0, softening=1e-2)
        cfg = SimulationConfig(dt=1e-3, order=4, forces="direct", strategy="static",
                               balancer=BalancerConfig(gap_threshold_frac=0.15))
        sim = Simulation(ps, ker, system_a(), config=cfg)
        sim.balancer.S = 64

        def energy():
            p = sim.particles
            v2 = np.einsum("ij,ij->i", p.velocities, p.velocities)
            ke = 0.5 * (p.strengths * v2).sum()
            phi = ker.evaluate(p.positions, p.positions, p.strengths, exclude_self=True)
            pe = 0.5 * (p.strengths * phi[:, 0]).sum()
            return ke + pe

        e0 = energy()
        sim.run(20)
        assert energy() == pytest.approx(e0, rel=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(forces="magic")
        with pytest.raises(ValueError):
            SimulationConfig(strategy="bogus")

    @pytest.mark.parametrize(
        "field",
        [{"dt": float("nan")}, {"dt": float("inf")}],
    )
    def test_non_finite_config_rejected(self, field):
        """``nan <= 0`` is False, so a bare sign check let NaN through: a
        NaN time step would poison every position."""
        (name,) = field
        with pytest.raises(ValueError, match=name):
            SimulationConfig(**field)

    def test_initial_positions_must_fit_domain(self):
        ps = uniform_cube(50, seed=0, size=10.0)
        with pytest.raises(ValueError):
            Simulation(ps, GravityKernel(), system_a(),
                       config=self._config(), domain=Box((0, 0, 0), 1.0))

    def test_summary_aggregates(self):
        ps = compact_plummer(200, seed=5, total_mass=1.0)
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3),
                         system_a(), config=self._config())
        sim.run(4)
        s = sim.summary()
        assert s["n_steps"] == 4
        assert s["total_compute"] > 0
        assert s["mean_total_per_step"] > 0
