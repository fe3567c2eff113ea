"""End-to-end FMM accuracy and behavior tests."""

import re

import numpy as np
import pytest

import repro.kernels

from repro.distributions import gaussian_blobs, plummer, uniform_cube
from repro.expansions import SphericalExpansion
from repro.fmm import FMMSolver, accuracy_report, relative_error
from repro.kernels import (
    GravityKernel,
    LaplaceKernel,
    RegularizedStokesletKernel,
    StokesletFMMSolver,
)
from repro.tree import build_adaptive, build_uniform


class TestAccuracy:
    def test_plummer_gravity(self, plummer_small):
        ker = GravityKernel(G=1.0)
        tree = build_adaptive(plummer_small.positions, S=30)
        res = FMMSolver(ker, order=5).solve(
            tree, plummer_small.strengths, gradient=True
        )
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=200
        )
        assert rep["potential_rel_err"] < 1e-4
        assert rep["gradient_rel_err"] < 1e-3

    def test_uniform_laplace(self, uniform_small):
        ker = LaplaceKernel()
        tree = build_adaptive(uniform_small.positions, S=40)
        res = FMMSolver(ker, order=5).solve(tree, uniform_small.strengths, gradient=True)
        rep = accuracy_report(
            ker, uniform_small.positions, uniform_small.strengths, res, sample=200
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_blobs_deep_tree(self):
        ps = gaussian_blobs(1200, seed=1, sigma_fraction=0.003)
        ker = LaplaceKernel()
        tree = build_adaptive(ps.positions, S=15)
        res = FMMSolver(ker, order=4).solve(tree, ps.strengths)
        rep = accuracy_report(ker, ps.positions, ps.strengths, res, sample=150)
        assert rep["potential_rel_err"] < 1e-3

    def test_mixed_sign_charges(self, rng):
        pts = rng.uniform(-1, 1, (1000, 3))
        q = rng.choice([-1.0, 1.0], 1000)
        ker = LaplaceKernel()
        tree = build_adaptive(pts, S=30)
        res = FMMSolver(ker, order=6).solve(tree, q)
        rep = accuracy_report(ker, pts, q, res, sample=150)
        assert rep["potential_rel_err"] < 1e-3

    def test_error_decreases_with_order(self, plummer_small):
        ker = LaplaceKernel()
        errs = []
        for p in (2, 4, 6):
            tree = build_adaptive(plummer_small.positions, S=30)
            res = FMMSolver(ker, order=p).solve(tree, plummer_small.strengths)
            rep = accuracy_report(
                ker, plummer_small.positions, plummer_small.strengths, res, sample=150
            )
            errs.append(rep["potential_rel_err"])
        assert errs[0] > errs[1] > errs[2]

    def test_uniform_tree_accuracy(self, uniform_small):
        ker = LaplaceKernel()
        tree = build_uniform(uniform_small.positions, depth=3)
        res = FMMSolver(ker, order=5).solve(tree, uniform_small.strengths)
        rep = accuracy_report(
            ker, uniform_small.positions, uniform_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_spherical_backend(self, plummer_small):
        ker = LaplaceKernel()
        tree = build_adaptive(plummer_small.positions, S=30)
        res = FMMSolver(ker, expansion=SphericalExpansion(5)).solve(
            tree, plummer_small.strengths
        )
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_softened_gravity(self, plummer_small):
        # softening only affects the near field; far field unchanged
        ker = GravityKernel(G=1.0, softening=1e-3)
        tree = build_adaptive(plummer_small.positions, S=30)
        res = FMMSolver(ker, order=5).solve(tree, plummer_small.strengths, gradient=True)
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-3


class TestStructure:
    def test_vector_kernel_rejected(self, uniform_small):
        solver = FMMSolver(RegularizedStokesletKernel())
        tree = build_adaptive(uniform_small.positions, S=40)
        with pytest.raises(ValueError, match="multipole"):
            solver.solve(tree, np.ones((uniform_small.n, 3)))

    def test_rejection_names_a_solver_that_exists(self, uniform_small):
        """A kernel without a multipole far field is pointed at a solver
        that exists: the composite one, ``StokesletFMMSolver``."""
        kernel = RegularizedStokesletKernel()
        assert not kernel.supports_multipole
        tree = build_adaptive(uniform_small.positions, S=40)
        with pytest.raises(ValueError, match=r"use StokesletFMMSolver\b") as info:
            FMMSolver(kernel).solve(tree, np.ones(uniform_small.n))
        named = re.search(r"use (\w+)", str(info.value)).group(1)
        assert getattr(repro.kernels, named) is StokesletFMMSolver

    def test_strength_length_validated(self, uniform_small):
        """Malformed strengths are rejected before any work: not even the
        interaction lists of a cold cache are built."""
        tree = build_adaptive(uniform_small.positions, S=40)
        for solver, bad in (
            (FMMSolver(LaplaceKernel()), np.ones(3)),
            (StokesletFMMSolver(), np.ones((3, 3))),
        ):
            with pytest.raises(ValueError):
                solver.solve(tree, bad)
            assert solver.list_cache.builds == 0

    def test_op_counts_present(self, uniform_small):
        tree = build_adaptive(uniform_small.positions, S=40)
        res = FMMSolver(LaplaceKernel(), order=3).solve(tree, uniform_small.strengths)
        for op in ("P2M", "M2M", "M2L", "L2L", "L2P", "P2P"):
            assert op in res.op_counts

    def test_reused_lists(self, uniform_small):
        from repro.tree import build_interaction_lists

        tree = build_adaptive(uniform_small.positions, S=40)
        lists = build_interaction_lists(tree)
        solver = FMMSolver(LaplaceKernel(), order=3)
        a = solver.solve(tree, uniform_small.strengths, lists=lists)
        b = solver.solve(tree, uniform_small.strengths)
        assert np.allclose(a.potential, b.potential)

    def test_gradient_momentum_conservation(self, plummer_small):
        ker = GravityKernel(G=1.0)
        tree = build_adaptive(plummer_small.positions, S=30)
        res = FMMSolver(ker, order=6).solve(tree, plummer_small.strengths, gradient=True)
        total_force = (plummer_small.strengths[:, None] * res.gradient).sum(axis=0)
        scale = np.abs(plummer_small.strengths[:, None] * res.gradient).sum()
        assert np.abs(total_force).max() / scale < 1e-4


class TestAfterSurgery:
    """The FMM must stay correct on trees reshaped by the balancer."""

    def test_after_collapse(self, plummer_small):
        ker = LaplaceKernel()
        tree = build_adaptive(plummer_small.positions, S=25)
        internal = [
            n
            for n in tree.effective_nodes()
            if not tree.nodes[n].is_leaf
            and all(tree.nodes[c].is_leaf for c in tree.effective_children(n))
        ]
        for nid in internal[:4]:
            tree.collapse(nid)
        res = FMMSolver(ker, order=5).solve(tree, plummer_small.strengths)
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_after_pushdown(self, plummer_small):
        ker = LaplaceKernel()
        tree = build_adaptive(plummer_small.positions, S=50)
        big = sorted(tree.leaves(), key=lambda l: -tree.nodes[l].count)[:4]
        for nid in big:
            if tree.nodes[nid].count >= 2:
                tree.pushdown(nid)
        res = FMMSolver(ker, order=5).solve(tree, plummer_small.strengths)
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_after_enforce_s(self, plummer_small):
        ker = LaplaceKernel()
        tree = build_adaptive(plummer_small.positions, S=50)
        tree.enforce_s(20)
        res = FMMSolver(ker, order=5).solve(tree, plummer_small.strengths)
        rep = accuracy_report(
            ker, plummer_small.positions, plummer_small.strengths, res, sample=150
        )
        assert rep["potential_rel_err"] < 1e-4

    def test_after_refit(self, uniform_small, rng):
        from repro.geometry import Box

        ker = LaplaceKernel()
        pts = uniform_small.positions.copy()
        tree = build_adaptive(pts, S=40, root_box=Box((0, 0, 0), 4.0))
        pts += rng.normal(0, 0.05, pts.shape)
        np.clip(pts, -1.9, 1.9, out=pts)
        tree.points = pts
        tree.refit()
        res = FMMSolver(ker, order=5).solve(tree, uniform_small.strengths)
        rep = accuracy_report(ker, pts, uniform_small.strengths, res, sample=150)
        assert rep["potential_rel_err"] < 1e-4


class TestRelativeError:
    def test_zero_exact(self):
        assert relative_error(np.array([1.0]), np.array([0.0])) == 1.0

    def test_identical(self):
        assert relative_error(np.ones(5), np.ones(5)) == 0.0
