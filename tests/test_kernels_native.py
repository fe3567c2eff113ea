"""The compiled P2P kernels against the NumPy bodies they replace, and the
loader that builds them.

Two implementations stand behind ``LaplaceKernel.pairwise``: the C loop of
``src/repro/kernels/_p2p.c`` and the NumPy body that runs where no compiler
resolves.  They are required to agree to rounding (they sum the same terms
in another order), each to keep the row contract bitwise, and both to
keep the three zero rules exactly.  The C rows sum their sources in eight
fixed lanes, so their bits cannot depend on the vector width: zero-strength
padding is bitwise invisible and the AVX2 clone of the entry points
matches the baseline body byte for byte.  The plan entry points,
``p2p_tiles`` behind ``LaplaceKernel.near_tiles`` and ``stokeslet_tiles``
behind ``RegularizedStokesletKernel.near_tiles``, read bodies by index:
nothing out of bounds may reach them (the Laplace bits against the
gather seam are held in ``tests/test_nearfield.py``; the Stokeslet
row agrees with its NumPy body to 1e-13).  The loader is required to fail
soft: whatever goes wrong, the answer is ``None`` and the solve still
answers.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fmm.nearfield import _SRC_ROUND
from repro.kernels import GravityKernel, LaplaceKernel, RegularizedStokesletKernel, _native, p2p_backend
from repro.kernels.base import Kernel
from tests.clouds import CLOUDS
from tests.test_nearfield import WANTS, _outputs, _plan_case


# ------------------------------------------------------------ native vs NumPy
@pytest.mark.parametrize("exclude_self", [False, True], ids=["all-pairs", "exclude-self"])
@pytest.mark.parametrize("softening", [0.0, 1e-3])
@pytest.mark.parametrize("want", WANTS.values(), ids=WANTS.keys())
@pytest.mark.parametrize("cloud", CLOUDS)
def test_native_agrees_with_the_numpy_body(native_p2p, monkeypatch, cloud, want, softening, exclude_self):
    pts, _ = CLOUDS[cloud](seed=3)
    q = np.random.default_rng(3).uniform(-1, 1, len(pts))
    kernel = LaplaceKernel(softening=softening)
    flags = dict(potential=want[0], gradient=want[1], exclude_self=exclude_self)
    got = kernel.pairwise(pts, pts, q, **flags)
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_library", None)
        ref = kernel.pairwise(pts, pts, q, **flags)
    assert [a is None for a in got] == [a is None for a in ref]
    for a, b in zip(_outputs(got), _outputs(ref)):
        assert a.shape == b.shape and a.flags.c_contiguous
        assert np.isfinite(a).all()
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_gravity_scales_the_native_block(native_p2p):
    rng = np.random.default_rng(0)
    t, s, q = rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, (60, 3)), rng.uniform(0.1, 1, 60)
    pot, grad = LaplaceKernel(softening=0.02).pairwise(t, s, q, gradient=True)
    gpot, ggrad = GravityKernel(G=3.0, softening=0.02).pairwise(t, s, q, gradient=True)
    assert np.array_equal(gpot, -3.0 * pot) and np.array_equal(ggrad, 3.0 * grad)


# ---------------------------------------------- the row contract, native side
@pytest.mark.parametrize("want", WANTS.values(), ids=WANTS.keys())
def test_a_rows_bits_do_not_depend_on_its_neighbours(native_p2p, want):
    """The row contract ``tests/test_nearfield.py`` holds for both bodies,
    on a block the NumPy body walks in several row tiles: a target row
    evaluated alone has the bits it has inside its block."""
    rng = np.random.default_rng(1)
    t, s, q = rng.uniform(-1, 1, (120, 3)), rng.uniform(-1, 1, (520, 3)), rng.uniform(-1, 1, 520)
    flags = dict(potential=want[0], gradient=want[1])
    kernel = LaplaceKernel(softening=1e-3)
    whole = _outputs(kernel.pairwise(t, s, q, **flags))
    for i in (0, 17, 39, 119):
        for w, a in zip(whole, _outputs(kernel.pairwise(t[i : i + 1], s, q, **flags))):
            assert np.array_equal(w[i : i + 1], a)


# ------------------------------------------------------------- the zero rules
def test_padded_slots_and_coincident_bodies_contribute_exact_zeros(p2p_impl):
    rng = np.random.default_rng(2)
    s, q = rng.uniform(-1, 1, (41, 3)), rng.uniform(-1, 1, 41)
    t = np.vstack([rng.uniform(-1, 1, (5, 3)), s[:1]])  # the last target sits on s[0]
    for kernel in (LaplaceKernel(), LaplaceKernel(softening=0.05)):
        # padded slots alone (a repeated source, zero strength): nothing at all
        pad = kernel.pairwise(t, np.repeat(s[:1], 7, axis=0), np.zeros(7), gradient=True)
        assert not pad[0].any() and not pad[1].any()
        # a coincident unsoftened pair is dropped: same bits as without it
        if not kernel.softening:
            full = kernel.pairwise(t[-1:], s, q, gradient=True)
            q0 = np.concatenate([[0.0], q[1:]])
            for a, b in zip(full, kernel.pairwise(t[-1:], s, q0, gradient=True)):
                assert np.isfinite(a).all() and np.array_equal(a, b)
        # exclude_self drops the diagonal whatever the softening
        own = kernel.pairwise(s, s, q, gradient=True, exclude_self=True)
        for i in (0, 17, 40):
            qi = q.copy()
            qi[i] = 0.0
            for a, b in zip(own, kernel.pairwise(s[i : i + 1], s, qi, gradient=True)):
                assert np.array_equal(a[i : i + 1], b)


def test_a_nan_coordinate_leaves_the_potential_and_poisons_the_gradient(p2p_impl):
    """The pair's weight is exactly 0 — potential and clean gradient axes
    are those of the other sources, bit for bit — and the poisoned axis
    multiplies it by the NaN separation, for every target: the signal the
    NaN/Inf guardrail keys on."""
    rng = np.random.default_rng(4)
    t, s, q = rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (30, 3)), rng.uniform(0.1, 1, 30)
    kernel = LaplaceKernel()
    q0 = q.copy()
    q0[4] = 0.0
    clean_pot, clean_grad = kernel.pairwise(t, s, q0, gradient=True)
    s[4, 1] = np.nan
    pot, grad = kernel.pairwise(t, s, q, gradient=True)
    assert np.array_equal(pot, clean_pot)
    assert np.array_equal(grad[:, [0, 2]], clean_grad[:, [0, 2]])
    assert np.isnan(grad[:, 1]).all()


# ------------------------------------------------ the eight lanes of p2p_row
_LANE_S = [*range(1, 18), 63, 64, 65, 520]


@pytest.mark.parametrize("S", _LANE_S)
def test_lane_boundaries_keep_the_zero_rules_and_padding_exact(native_p2p, monkeypatch, S):
    """Source ``j`` goes into lane ``j % 8`` and ``S % 8`` sources are left
    over: at every S the diagonal is dropped at every lane position, a
    coincident pair and a NaN coordinate in the last lane and in the
    remainder weigh exactly 0, and zero-strength padding — up to the last
    lane, or past it — leaves a row's bits alone."""
    rng = np.random.default_rng(S)
    s, q, t = rng.uniform(-1, 1, (S, 3)), rng.uniform(-1, 1, S), rng.uniform(-1, 1, (4, 3))
    kernel = LaplaceKernel()

    def without(j):  # the same sources with source j's strength zeroed
        qj = q.copy()
        qj[j] = 0.0
        return qj

    own = kernel.pairwise(s, s, q, gradient=True, exclude_self=True)
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_library", None)
        ref = kernel.pairwise(s, s, q, gradient=True, exclude_self=True)
    for a, b in zip(own, ref):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    for i in sorted({*range(min(S, 8)), S - 1}):
        assert _same_rows(own, np.s_[i : i + 1], kernel.pairwise(s[i : i + 1], s, without(i), gradient=True))
    for j in sorted({S - 1, S - 1 - S % 8} - {-1}):  # the last lane, the remainder
        on_j = kernel.pairwise(s[j : j + 1], s, q, gradient=True)
        assert np.isfinite(on_j[1]).all()
        assert _same_rows(on_j, np.s_[:], kernel.pairwise(s[j : j + 1], s, without(j), gradient=True))
        clean_pot, clean_grad = kernel.pairwise(t, s, without(j), gradient=True)
        bad = s.copy()
        bad[j, 1] = np.nan
        pot, grad = kernel.pairwise(t, bad, q, gradient=True)
        assert np.array_equal(pot, clean_pot) and np.array_equal(grad[:, [0, 2]], clean_grad[:, [0, 2]])
        assert np.isnan(grad[:, 1]).all()
    row = kernel.pairwise(t, s, q, gradient=True)
    for k in {1, 8 - S % 8, 9}:
        padded = kernel.pairwise(t, np.vstack([s, np.repeat(s[:1], k, axis=0)]),
                                 np.concatenate([q, np.zeros(k)]), gradient=True)
        assert _same_rows(padded, np.s_[:], row)


def _same_rows(res, rows, other):
    """``res``'s ``rows`` have the bits of ``other`` (both outputs)."""
    return all(np.array_equal(a[rows], b) for a, b in zip(res, other))


def test_the_avx2_clone_and_the_baseline_body_give_the_same_bits(native_p2p, tmp_path):
    """The shipped library's entry points are cloned per ISA; built with
    the clones compiled out, the baseline body alone gives the same bytes
    for dense blocks and for Laplace and Stokeslet plan tiles — whichever
    clone this host runs."""
    base = tmp_path / "baseline.so"
    _native._compile(_native.shutil.which("cc") or _native.shutil.which("gcc"), base, "-DP2P_NO_CLONES")
    shipped, plain = _native.library(), _native._load(base, "")
    assert plain.isa == "baseline" and shipped.isa in ("avx2", "baseline")
    rng = np.random.default_rng(7)
    t, s, q = rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, (523, 3)), rng.uniform(-1, 1, 523)
    for block in [(s, s, q, 1e-4, 1), (s, s, q, 1e-4, 0), (t, s, q, 0.0, 0)]:
        for a, b in zip(shipped.pairwise(*block, True, True), plain.pairwise(*block, True, True)):
            assert a.tobytes() == b.tobytes()
    for cloud in CLOUDS:
        pts, qq, plan = _plan_case(cloud)
        f = np.random.default_rng(8).uniform(-1, 1, (len(pts), 3))
        out = []
        for lib in (shipped, plain):
            pot, grad, u = np.zeros(len(pts)), np.zeros((len(pts), 3)), np.zeros((len(pts), 3))
            lib.near_tiles(pts, qq, plan, np.arange(plan.n_tiles), 1e-6, (1.0, -1.0), pot, grad)
            lib.stokeslet_tiles(pts, f, plan, np.arange(plan.n_tiles), 1e-4, 0.5, u, None)
            out.append(pot.tobytes() + grad.tobytes() + u.tobytes())
        assert out[0] == out[1], cloud


# --------------------------------------------------------- shapes and layouts
def test_empty_batches(native_p2p):
    kernel = LaplaceKernel()
    for T, S in [(0, 5), (4, 0), (0, 0)]:
        pot, grad = kernel.pairwise(np.ones((T, 3)), np.ones((S, 3)), np.ones(S), gradient=True)
        assert pot.shape == (T, 1) and grad.shape == (T, 3)
        assert not pot.any() and not grad.any()


def test_strided_and_float32_inputs(native_p2p):
    rng = np.random.default_rng(5)
    t, s, q = rng.uniform(-1, 1, (9, 3)), rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, 20)
    kernel = LaplaceKernel(softening=1e-2)
    ref = kernel.pairwise(t, s, q, gradient=True)
    strided = kernel.pairwise(
        np.asfortranarray(t), np.repeat(s, 2, axis=0)[::2], np.repeat(q, 2)[::2], gradient=True
    )
    assert all(np.array_equal(a, b) for a, b in zip(ref, strided))
    t32, s32, q32 = (a.astype(np.float32) for a in (t, s, q))
    for a, b in zip(kernel.pairwise(t32, s32, q32, gradient=True),
                    kernel.pairwise(*(a.astype(float) for a in (t32, s32, q32)), gradient=True)):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def test_mismatched_blocks_are_rejected_before_any_pointer_is_passed(native_p2p):
    for t, s, q in [
        (np.ones((4, 3)), np.ones((6, 3)), np.ones(5)),  # one strength short
        (np.ones((4, 2)), np.ones((6, 3)), np.ones(6)),  # planar targets
        (np.ones((2, 4, 3)), np.ones((2, 6, 3)), np.ones((2, 6))),  # a batch: gone
    ]:
        with pytest.raises(ValueError, match="blocks do not match"):
            LaplaceKernel().pairwise(t, s, q)


def test_the_compiled_path_reads_the_runs_and_never_pads(native_p2p, monkeypatch):
    """``p2p_tiles`` stages each group off its leaf runs: the plan has no
    padded source index, the gather seam over compiled blocks — which pads
    each tile — gives the same bytes out, and that seam over the NumPy body
    the same to 1e-13."""
    pts, q, plan = _plan_case("plummer")
    kernel, n = LaplaceKernel(softening=0.01), len(pts)
    out = [(np.zeros(n), np.zeros((n, 3))) for _ in range(3)]
    kernel.near_tiles(pts, q, plan, range(plan.n_tiles), *out[0])
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_library", None)
        Kernel.near_tiles(kernel, pts, q, plan, range(plan.n_tiles), *out[1])
    Kernel.near_tiles(kernel, pts, q, plan, range(plan.n_tiles), *out[2])
    assert not any("pad" in name for name in vars(plan))
    assert [a.tobytes() for a in out[0]] == [a.tobytes() for a in out[2]]
    for a, b in zip(out[0], out[1]):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_bad_plans_bodies_and_tiles_are_rejected_before_any_pointer_is_passed(native_p2p, monkeypatch):
    """``p2p_tiles`` reads bodies by index: a plan whose indices or pointers
    leave their arrays cannot be built, and a call with the wrong bodies,
    strengths, outputs or tile ids raises before the C entry is reached."""
    pts, q, plan = _plan_case("plummer")
    n = len(pts)

    def unreachable(*args):
        raise AssertionError("p2p_tiles reached")

    monkeypatch.setattr(_native, "_library", _native.library()._replace(tiles=unreachable))
    lo, hi, run_ptr = plan.src_lo, plan.src_hi, plan.run_ptr

    def runs(lo, hi):
        """Runs moved to ``lo``/``hi``, ``src_cnt`` kept their totals: only
        the run bounds are wrong."""
        cnt = np.diff(np.concatenate(([0], np.cumsum(hi - lo)))[run_ptr])
        return {"src_lo": lo, "src_hi": hi, "src_cnt": cnt}

    replace(plan, **runs(lo, hi))  # the helper alone breaks nothing

    swapped = (lo < hi) & (np.arange(lo.size) == np.argmax(lo < hi))  # one run's ends
    corrupt = [
        {"tgt_idx": np.where(plan.tgt_idx == plan.tgt_idx[0], -1, plan.tgt_idx)},
        {"self_idx": plan.self_idx + n},
        {"tgt_ptr": plan.tgt_ptr[:-1]},
        {"tile_ptr": plan.tile_ptr + 1},
        {"order": np.where(plan.order == plan.order.max(), n, plan.order)},  # past the bodies
        {"order": plan.order[:-1]},  # one entry short
        runs(lo - 1 - lo.min(), hi - 1 - lo.min()),  # a run before the first body
        runs(lo + n + 1 - hi.max(), hi + n + 1 - hi.max()),  # a run past the last
        runs(np.where(swapped, hi, lo), np.where(swapped, lo, hi)),  # a run ending first
        {"run_ptr": run_ptr[::-1]},  # not monotone
        {"run_ptr": np.minimum(run_ptr, run_ptr[-1] - 1)},  # short of the run count
        {"src_cnt": plan.src_cnt + _SRC_ROUND},  # more than the runs hold
        # the largest group one short of its runs: its staging would overflow
        {"src_cnt": plan.src_cnt - (np.arange(plan.n_groups) == np.argmax(plan.src_cnt))},
    ]
    for fields in corrupt:
        with pytest.raises(ValueError, match="out of range"):
            replace(plan, **fields)
    with pytest.raises(ValueError, match="out of range"):
        replace(plan, n_bodies=n - 1)
    kernel, pot, grad = LaplaceKernel(), np.zeros(n), np.zeros((n, 3))
    bad_calls = [
        ("strengths", (pts, q[:-1], [0], pot, grad)),
        ("strengths", (pts[:-1], q[:-1], [0], pot, grad)),
        ("tile ids", (pts, q, [plan.n_tiles], pot, grad)),
        ("tile ids", (pts, q, [-1], pot, grad)),
        ("tile ids", (pts, q, [[0]], pot, grad)),
        ("float64", (pts, q, [0], pot[:-1], grad)),
        ("float64", (pts, q, [0], pot, grad.astype(np.float32))),
        ("float64", (pts[:, :2], q, [0], pot, grad)),
        ("C-contiguous", (pts, q, [0], pot, np.zeros((3, n)).T)),
    ]
    for match, (p, qq, tiles, po, gr) in bad_calls:
        with pytest.raises(ValueError, match=match):
            kernel.near_tiles(p, qq, plan, tiles, po, gr)
    assert not pot.any() and not grad.any()


# ---------------------------------------------------- the compiled Stokeslet
def _stokeslet_case(cloud, seed=5):
    pts, _, plan = _plan_case(cloud, seed)
    return pts, np.random.default_rng(seed).uniform(-1, 1, (len(pts), 3)), plan


def _velocity(method, kernel, pts, f, plan, tiles, fill=0.0):
    """``(pot, grad)`` of ``method`` over ``tiles``, both wanted."""
    pot, grad = np.full((len(pts), 3), fill), np.full((len(pts), 3), fill)
    method(kernel, pts, f, plan, tiles, pot, grad)
    return pot, grad


@pytest.mark.parametrize("epsilon", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("cloud", [*CLOUDS, "no-sources"])
def test_native_stokeslet_agrees_with_the_numpy_fallback(native_p2p, monkeypatch, cloud, epsilon):
    """``stokeslet_tiles`` writes the velocity of the gather seam over the
    NumPy body (what runs where no compiler resolves) to 1e-13 of the
    maximum — to both outputs, alike."""
    kernel = RegularizedStokesletKernel(epsilon=epsilon, viscosity=0.7)
    pts, f, plan = _stokeslet_case(cloud)
    tiles = range(plan.n_tiles)
    pot, grad = _velocity(RegularizedStokesletKernel.near_tiles, kernel, pts, f, plan, tiles)
    assert np.isfinite(pot).all() and pot.tobytes() == grad.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_library", None)
        fallback = _velocity(RegularizedStokesletKernel.near_tiles, kernel, pts, f, plan, tiles)
    for ref in fallback:
        assert np.abs(pot - ref).max() <= 1e-13 * np.abs(ref).max()


def test_stokeslet_tiles_write_what_is_asked_and_only_their_rows(native_p2p):
    """One output or both; half the tiles, shuffled, write exactly their
    rows (the rest keep what they held); chunked calls give the bits of one
    call; no tiles writes nothing."""
    kernel = RegularizedStokesletKernel(epsilon=0.05)
    pts, f, plan = _stokeslet_case("plummer")
    n, lib = len(pts), _native.library()
    whole = _velocity(RegularizedStokesletKernel.near_tiles, kernel, pts, f, plan, range(plan.n_tiles))
    for pot, grad in [(np.zeros((n, 3)), None), (None, np.zeros((n, 3)))]:
        kernel.near_tiles(pts, f, plan, range(plan.n_tiles), pot, grad)
        assert (pot if grad is None else grad).tobytes() == whole[0].tobytes()
    tiles = np.random.default_rng(1).permutation(plan.n_tiles)[: plan.n_tiles // 2]
    rows = np.zeros(n, dtype=bool)
    for k in tiles:
        rows[plan.tgt_idx[plan.tgt_ptr[plan.tile_ptr[k]] : plan.tgt_ptr[plan.tile_ptr[k + 1]]]] = True
    part = _velocity(RegularizedStokesletKernel.near_tiles, kernel, pts, f, plan, tiles[::-1], np.nan)
    for a, b in zip(part, whole):
        assert np.array_equal(a[rows], b[rows]) and np.isnan(a[~rows]).all()
    chunked = np.zeros((n, 3))
    for chunk in np.array_split(np.arange(plan.n_tiles), 5):
        lib.stokeslet_tiles(pts, f, plan, chunk, kernel.epsilon**2, kernel._scale, chunked, None)
    assert chunked.tobytes() == whole[0].tobytes()
    untouched = _velocity(RegularizedStokesletKernel.near_tiles, kernel, pts, f, plan, [], np.nan)
    assert all(np.isnan(a).all() for a in untouched)


def test_bad_forces_are_rejected_before_any_pointer_is_passed(native_p2p, monkeypatch):
    pts, f, plan = _stokeslet_case("plummer")
    n = len(pts)

    def unreachable(*args):
        raise AssertionError("stokeslet_tiles reached")

    monkeypatch.setattr(_native, "_library", _native.library()._replace(stokeslet=unreachable))
    kernel, pot = RegularizedStokesletKernel(), np.zeros((n, 3))
    bad_calls = [
        ("float64", (f[:, 0], [0], pot)),  # (n,)
        ("float64", (f[:, :2], [0], pot)),  # (n, 2)
        ("float64", (f.astype(np.float32), [0], pot)),
        ("C-contiguous", (np.asfortranarray(f), [0], pot)),
        ("strengths", (f[:-1], [0], pot)),
        ("tile ids", (f, [plan.n_tiles], pot)),
        ("tile ids", (f, [-1], pot)),
        ("float64", (f, [0], np.zeros(n))),  # a scalar output
    ]
    for match, (ff, tiles, po) in bad_calls:
        with pytest.raises(ValueError, match=match):
            kernel.near_tiles(pts, ff, plan, tiles, po, None)
    assert not pot.any()


_WORKER = """
import sys
import numpy as np
import repro.kernels._native as n
from repro.distributions.generators import plummer
from repro.fmm.nearfield import evaluate_near_field
from repro.kernels import GravityKernel, RegularizedStokesletKernel
from repro.tree import AdaptiveOctree, build_interaction_lists
n.adopt(sys.argv[1])
lib = n._library
tree = AdaptiveOctree(plummer(300, seed=2).positions, S=16)
lists = build_interaction_lists(tree)
pot, grad = evaluate_near_field(GravityKernel(G=2.5), tree, lists, np.ones(300), gradient=True)
u, _ = evaluate_near_field(RegularizedStokesletKernel(), tree, lists, np.ones((300, 3)))
print(lib.path, lib.compiler == "", all(map(callable, lib[:6])), np.isfinite(grad).all() and np.isfinite(u).all())
"""


def test_adopt_binds_both_entry_points_in_a_worker(native_p2p):
    """What a shard worker does with the parent's library path: load that
    file — no build, no compiler query — with the three near-field entry
    points bound (the Laplace block and tiles, the Stokeslet tiles), and
    the three leaf stages' too."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    path = _native.library().path
    out = subprocess.run([sys.executable, "-c", _WORKER, path], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [path, "True", "True", "True"]


def test_ci_checks_every_entry_point():
    """The CI step that refuses a silent NumPy fallback before any gate is
    timed names every entry point of the library, and nothing else."""
    ci = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml").read_text()
    entries = set(_native.P2PLibrary._fields) - {"path", "compiler", "isa"}
    assert set(re.findall(r"\blib\.(\w+)", ci)) == entries


# ------------------------------------------------------------------ the loader
_FAKE_CC = """#!/bin/sh
[ "$1" = "--version" ] && { echo "fakecc 1.0"; exit 0; }
echo "fakecc: internal compiler error" >&2
exit 1
"""


@pytest.fixture
def unresolved(monkeypatch, tmp_path):
    """A loader that has not resolved yet, caching under ``tmp_path``."""
    monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    return tmp_path


def test_import_resolves_nothing():
    code = (
        "import repro, repro.kernels._native as n;"
        "assert n._library is n._UNRESOLVED;"
        "print(sum('_p2p' in l for l in open('/proc/self/maps')))"
    )
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc")
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_fresh_cache_is_built_once_then_reused(native_p2p, unresolved):
    lib = _native.library()
    assert lib is not None and Path(lib.path).parent == unresolved
    assert [p.name for p in unresolved.iterdir()] == [Path(lib.path).name]  # no temp left behind
    assert p2p_backend() == "native" and lib.compiler
    stamp = os.stat(lib.path).st_mtime_ns
    _native._library = _native._UNRESOLVED
    assert _native.library().path == lib.path and os.stat(lib.path).st_mtime_ns == stamp


def test_failing_compiler_falls_back_with_one_warning(unresolved, monkeypatch, tmp_path):
    cc = tmp_path / "fakecc"
    cc.write_text(_FAKE_CC)
    cc.chmod(0o755)
    monkeypatch.setattr(_native.shutil, "which", lambda name: str(cc))
    rng = np.random.default_rng(6)
    t, s, q = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (9, 3)), rng.uniform(-1, 1, 9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = LaplaceKernel().pairwise(t, s, q, gradient=True)
        again = LaplaceKernel().pairwise(t, s, q, gradient=True)
    (only,) = [str(w.message) for w in caught]
    assert "P2P" in only and "internal compiler error" in only
    assert _native._library is None and p2p_backend() == "numpy"
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert np.allclose(first[0][:, 0], (q / np.linalg.norm(t[:, None] - s[None], axis=2)).sum(1))
    assert [p.name for p in tmp_path.iterdir()] == ["fakecc"]  # nothing half-built is kept


@pytest.mark.parametrize("missing", ["compiler", "source"])
def test_no_compiler_or_no_source_is_a_silent_fallback(unresolved, monkeypatch, missing):
    if missing == "compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:  # a wheel shipped without the C file
        monkeypatch.setattr(_native, "_SOURCE", unresolved / "_p2p.c")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _native.library() is None
    assert p2p_backend() == "numpy"
    assert LaplaceKernel().evaluate(np.zeros((1, 3)), np.ones((1, 3)), np.ones(1))[0, 0] == pytest.approx(3**-0.5)


def test_someone_elses_cache_directory_is_refused(native_p2p, monkeypatch, tmp_path):
    own = _native._private_dir(tmp_path / "own")
    assert own.stat().st_mode & 0o777 == 0o700
    assert _native._private_dir(own) == own  # and again, now that it exists
    (tmp_path / "shared").mkdir()
    (tmp_path / "shared").chmod(0o777)
    (tmp_path / "link").symlink_to(own)
    for bad in ("shared", "link"):
        with pytest.raises(PermissionError):
            _native._private_dir(tmp_path / bad)
    monkeypatch.setattr(_native.os, "getuid", lambda: own.stat().st_uid + 1)
    with pytest.raises(PermissionError):
        _native._private_dir(own)
    # ... and a refused directory is a failed build, not a crash
    monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
    monkeypatch.setattr(_native, "_cache_dir", lambda: _native._private_dir(own))
    with pytest.warns(RuntimeWarning, match="not a private directory"):
        assert _native.library() is None


def test_unwritable_package_falls_back_to_a_private_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(_native.os, "access", lambda path, mode: False)
    monkeypatch.setattr(_native.tempfile, "gettempdir", lambda: str(tmp_path))
    cache = _native._cache_dir()
    assert cache.parent == tmp_path and cache.stat().st_mode & 0o777 == 0o700


_RACER = """
import sys, time
from pathlib import Path
import repro.kernels._native as n
n._cache_dir = lambda: Path(sys.argv[1])
time.sleep(max(0.0, float(sys.argv[2]) - time.time()))
lib = n.library()
import numpy as np
from repro.kernels import LaplaceKernel
print(lib.path, LaplaceKernel().evaluate(np.zeros((1, 3)), np.ones((2, 3)), np.ones(2))[0, 0].hex())
"""


def test_two_processes_racing_an_empty_cache_both_load(native_p2p, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    go = str(time.time() + 1.5)  # both are past their imports by then
    racers = [
        subprocess.Popen([sys.executable, "-c", _RACER, str(tmp_path), go], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in racers]
    assert [p.returncode for p in racers] == [0, 0], outs
    assert outs[0][0] == outs[1][0] and outs[0][0].split()[1] == (2 / np.sqrt(3.0)).hex()
    assert [p.name for p in tmp_path.iterdir()] == [Path(outs[0][0].split()[0]).name]
