"""Checkpoint/restore tests (DESIGN.md §11).

The headline contract: killing a run and resuming from the checkpoint
produces the **bitwise identical** trajectory to the uninterrupted run —
including the rebuilt tree shape (path-dependent after surgery), the
balancer's decision state, and the executor's timing-noise RNG stream.
"""

import json

import numpy as np
import pytest

from repro.distributions.generators import plummer
from repro.kernels.laplace import GravityKernel
from repro.machine.spec import system_a
from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    config_fingerprint,
    read_checkpoint,
    tree_from_state,
    tree_state_arrays,
)
from repro.sim.driver import Simulation, SimulationConfig
from repro.tree import AdaptiveOctree

from tests.test_property_surgery import assert_tree_invariants

KERNEL = GravityKernel(softening=1e-3)


def _machine():
    return system_a().with_resources(n_cores=6, n_gpus=2)


def _config(**overrides):
    base = dict(forces="fmm", order=2, dt=1e-4, seed=3, n_workers=2)
    base.update(overrides)
    return SimulationConfig(**base)


def _new_sim(config, n=300, seed=3):
    return Simulation(plummer(n, seed=seed), KERNEL, _machine(), config=config)


class TestKillAndResume:
    K = 3

    def test_resume_is_bitwise_identical(self, tmp_path):
        stem = str(tmp_path / "ck")
        # uninterrupted reference: 2K steps
        with _new_sim(_config()) as ref:
            ref.run(2 * self.K)
        # run A: checkpoint at K, "killed" there
        with _new_sim(_config(checkpoint_every=self.K, checkpoint_path=stem)) as a:
            a.run(self.K)
        # run B: resumed from the checkpoint, K more steps
        b = Simulation.from_checkpoint(stem, KERNEL, _machine(), config=_config())
        with b:
            b.run(self.K)
        assert b.step_index == 2 * self.K
        assert np.array_equal(b.particles.positions, ref.particles.positions)
        assert np.array_equal(b.particles.velocities, ref.particles.velocities)
        assert b.balancer.S == ref.balancer.S
        assert b.balancer.state is ref.balancer.state
        # the executor's timing-noise RNG stream continued where it left off
        assert (
            b.executor._rng.bit_generator.state
            == ref.executor._rng.bit_generator.state
        )

    def test_resume_without_config_reuses_checkpoint_shape(self, tmp_path):
        stem = str(tmp_path / "ck")
        with _new_sim(_config(checkpoint_every=2, checkpoint_path=stem)) as a:
            a.run(2)
        b = Simulation.from_checkpoint(stem, KERNEL, _machine(), config=_config())
        assert b.step_index == 2
        assert np.array_equal(b.particles.positions, a.particles.positions)

    def test_checkpoint_cadence(self, tmp_path):
        stem = str(tmp_path / "every2")
        with _new_sim(_config(checkpoint_every=2, checkpoint_path=stem)) as sim:
            sim.run(5)
        # last write happened at step 4; the manifest proves it
        manifest = json.loads((tmp_path / "every2.json").read_text())
        assert manifest["step_index"] == 4
        assert manifest["version"] == CHECKPOINT_VERSION


class TestCompatibilityGate:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        stem = str(tmp_path / "ck")
        with _new_sim(_config(checkpoint_every=1, checkpoint_path=stem)) as sim:
            sim.run(1)
        with pytest.raises(CheckpointError, match="fingerprint"):
            Simulation.from_checkpoint(
                stem, KERNEL, _machine(), config=_config(dt=2e-4)
            )

    def test_fingerprint_ignores_execution_fields(self, tmp_path):
        """Worker count / checkpoint cadence do not affect the trajectory
        (the engine gives the serial bits and the balancer reads the
        modeled step on each), so resuming with different values is
        allowed."""
        stem = str(tmp_path / "ck")
        with _new_sim(_config(checkpoint_every=1, checkpoint_path=stem)) as sim:
            sim.run(1)
        with Simulation.from_checkpoint(
            stem, KERNEL, _machine(), config=_config(n_workers=1)
        ) as b:
            assert b.step_index == 1

    def test_strict_false_overrides(self, tmp_path):
        stem = str(tmp_path / "ck")
        with _new_sim(_config(checkpoint_every=1, checkpoint_path=stem)) as sim:
            sim.run(1)
        b = Simulation.from_checkpoint(
            stem, KERNEL, _machine(), config=_config(dt=2e-4), strict=False
        )
        assert b.config.dt == 2e-4

    def test_version_mismatch_rejected(self, tmp_path):
        """A manifest of another version is refused for its format version;
        versions 1 and 2 hashed settings that are now constants or gone, so
        they must not be reported as a different configuration."""
        stem = str(tmp_path / "ck")
        with _new_sim(_config(checkpoint_every=1, checkpoint_path=stem)) as sim:
            sim.run(1)
        manifest_path = tmp_path / "ck.json"
        manifest = json.loads(manifest_path.read_text())
        for version in (1, 2, CHECKPOINT_VERSION + 1):
            manifest["version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError, match=f"format version {version},"):
                Simulation.from_checkpoint(stem, KERNEL, _machine(), config=_config())

    def test_missing_files_actionable(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "nope"))

    def test_fingerprint_sensitivity(self):
        from repro.geometry.box import Box

        m = _machine()
        box = Box((0.0, 0.0, 0.0), 2.0)
        base = config_fingerprint(_config(), KERNEL, m, 300, box)
        assert base == config_fingerprint(_config(), KERNEL, m, 300, box)
        assert base == config_fingerprint(_config(n_workers=4), KERNEL, m, 300, box)
        assert base != config_fingerprint(_config(order=3), KERNEL, m, 300, box)
        assert base != config_fingerprint(_config(), KERNEL, m, 301, box)

    def test_fingerprint_of_an_unchanged_config_is_pinned(self):
        """A checkpoint written by an earlier build resumes under
        ``strict=True`` only while the fingerprint of the same settings
        stays byte-identical; these are the values of checkpoint format
        version 3, whose hash no longer covers the settings that became
        constants (the balancer's fixed thresholds, the guardrail, the
        modeled machine's ``folded``) or left with the time-stepped served
        run (``initial_S``)."""
        from repro.geometry.box import Box

        m = _machine()
        box = Box((0.0, 0.0, 0.0), 2.0)
        assert config_fingerprint(SimulationConfig(), KERNEL, m, 300, box) == (
            "b252f29c679ea75dcf3ea1c36a9b351b032c3b27997030cd667d4689acdff846"
        )
        assert config_fingerprint(_config(), KERNEL, m, 300, box) == (
            "dbc5c3396f1ad9c3137a83797b4761ae6ac3a326ffdd71a2203e5dee2e029c4d"
        )


class TestTreeRoundTrip:
    def test_surgery_shaped_tree_survives(self):
        pts = plummer(500, seed=41).positions
        tree = AdaptiveOctree(pts, S=8)
        # make the shape path-dependent: collapse + pushdown + enforce
        internal = [
            n
            for n in tree.effective_nodes()
            if not tree.nodes[n].is_leaf and n != 0
        ]
        tree.collapse(internal[0])
        tree.enforce_s(12)
        arrays, manifest = tree_state_arrays(tree)
        clone = tree_from_state(pts, arrays, manifest)
        assert_tree_invariants(clone)
        assert len(clone.nodes) == len(tree.nodes)
        assert clone.effective_nodes() == tree.effective_nodes()
        assert clone.leaves() == tree.leaves()
        for a, b in zip(tree.nodes, clone.nodes):
            assert (a.id, a.level, a.parent, a.lo, a.hi) == (
                b.id,
                b.level,
                b.parent,
                b.lo,
                b.hi,
            )
            assert (a.is_leaf, a.hidden) == (b.is_leaf, b.hidden)
            assert (a.children or []) == (b.children or [])
        assert np.array_equal(tree.sorted_keys, clone.sorted_keys)
