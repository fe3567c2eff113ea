"""Batched near-field engine vs. a per-leaf reference loop, and the batch
contract that keeps it bitwise independent of how its work is cut.

The batched path stacks targets that share a source-leaf signature into
one dense block, stacks same-shape blocks into tiles (one kernel call
each) and fixes up self terms in bulk; the reference here walks
``near_sources`` one (target leaf, source leaf) pair at a time the way the
original solver did.  Agreement with the reference is required to near
round-off (the two paths sum the same terms in different orders);
agreement between different cuts of the same batch is required bitwise,
and so is agreement between a kernel's ``near_tiles`` (the Laplace
kernels read the plan in place in one compiled call) and the base class's
gather seam of one batched ``pairwise`` call per tile.
"""

import numpy as np
import pytest

import repro.fmm.nearfield as nearfield
import repro.kernels.base as kernels_base
from repro.distributions.generators import gaussian_blobs, plummer, uniform_cube
from repro.fmm.nearfield import build_near_field_plan, evaluate_near_field
from repro.kernels import GravityKernel, LaplaceKernel, RegularizedStokesletKernel
from repro.kernels.base import Kernel
from repro.runtime.shards import _PLAN_FIELDS as shard_plan_fields
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from tests.clouds import CLOUDS


def _reference_near_field(kernel, tree, lists, q, *, potential, gradient):
    n = tree.n_bodies
    dim = kernel.value_dim
    pot = (np.zeros(n) if dim == 1 else np.zeros((n, dim))) if potential else None
    grad = np.zeros((n, 3)) if gradient else None
    for t, sources in lists.near_sources.items():
        tb = tree.bodies(t)
        tgt = tree.points[tb]
        for s in sources:
            sb = tree.bodies(s)
            exclude = s == t
            if potential:
                block = kernel.evaluate(tgt, tree.points[sb], q[sb], exclude_self=exclude)
                pot[tb] = pot[tb] + (block[:, 0] if dim == 1 else block)
            if gradient:
                grad[tb] += kernel.gradient(tgt, tree.points[sb], q[sb], exclude_self=exclude)
    return pot, grad


def _setup(kernel_dim, n=800, S=14, seed=5):
    pts = plummer(n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=True)
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1, 1, (n,) if kernel_dim == 1 else (n, 3))
    return tree, lists, q


@pytest.mark.parametrize(
    "kernel",
    [
        LaplaceKernel(),
        LaplaceKernel(softening=0.05),
        RegularizedStokesletKernel(epsilon=0.1),
    ],
    ids=["laplace-singular", "laplace-softened", "stokeslet"],
)
def test_batched_matches_per_leaf_reference(kernel):
    tree, lists, q = _setup(kernel.value_dim)
    want_grad = kernel.value_dim == 1
    pot, grad = evaluate_near_field(
        kernel, tree, lists, q, potential=True, gradient=want_grad
    )
    ref_pot, ref_grad = _reference_near_field(
        kernel, tree, lists, q, potential=True, gradient=want_grad
    )
    scale = max(1.0, float(np.abs(ref_pot).max()))
    assert np.allclose(pot, ref_pot, rtol=0, atol=1e-12 * scale)
    if want_grad:
        gscale = max(1.0, float(np.abs(ref_grad).max()))
        assert np.allclose(grad, ref_grad, rtol=0, atol=1e-12 * gscale)


def test_plan_is_memoized_and_refit_invalidated():
    tree, lists, _ = _setup(1, n=300)
    p1 = build_near_field_plan(tree, lists)
    assert build_near_field_plan(tree, lists) is p1
    tree.refit()  # body order may change; the plan indexes bodies directly
    assert build_near_field_plan(tree, lists) is not p1


def test_plan_covers_every_near_pair_once():
    tree, lists, _ = _setup(1, n=400, S=10)
    plan = build_near_field_plan(tree, lists)
    expected = sum(
        tree.nodes[t].count * tree.nodes[s].count
        for t, src in lists.near_sources.items()
        for s in src
    )
    assert plan.total_pairs == expected
    # every body belongs to exactly one target leaf -> appears once in tgt_idx
    assert np.array_equal(np.sort(plan.tgt_idx), np.arange(tree.n_bodies))


def test_plan_refreshed_across_refit_when_counts_unchanged():
    """A refit that keeps every leaf population re-gathers the skeleton
    instead of rebuilding the plan from ``near_sources``."""
    tree, lists, q = _setup(1, n=500)
    build_near_field_plan(tree, lists)
    stats0 = lists.nearfield_plan_stats
    assert (stats0["builds"], stats0["refreshes"], stats0["hits"]) == (1, 0, 0)

    rng = np.random.default_rng(0)
    tree.points[:] += 1e-9 * rng.standard_normal(tree.points.shape)
    sg = tree.structure_generation
    tree.refit()
    assert tree.structure_generation == sg
    plan = build_near_field_plan(tree, lists)
    stats = lists.nearfield_plan_stats
    assert stats["builds"] == 1 and stats["refreshes"] == 1
    build_near_field_plan(tree, lists)
    assert stats["hits"] == 1

    # the refreshed plan must equal a from-scratch build on fresh lists
    fresh = build_near_field_plan(tree, build_interaction_lists(tree, folded=True))
    for name in _PLAN_FIELDS:
        assert np.array_equal(getattr(plan, name), getattr(fresh, name)), name
    assert plan.total_pairs == fresh.total_pairs

    # and produce the same physics as the per-leaf reference
    kernel = LaplaceKernel(softening=0.05)
    pot, grad = evaluate_near_field(kernel, tree, lists, q, potential=True, gradient=True)
    ref_pot, ref_grad = _reference_near_field(
        kernel, tree, lists, q, potential=True, gradient=True
    )
    assert np.allclose(pot, ref_pot, rtol=0, atol=1e-12 * max(1.0, np.abs(ref_pot).max()))
    assert np.allclose(grad, ref_grad, rtol=0, atol=1e-12 * max(1.0, np.abs(ref_grad).max()))


def test_plan_rebuilt_when_leaf_population_changes():
    tree, lists, _ = _setup(1, n=500)
    build_near_field_plan(tree, lists)
    # teleport one body onto a body of a *different* leaf: two populations
    # change while the tree shape can stay identical
    donor = int(tree.order[0])
    receiver = int(tree.order[-1])
    assert tree.leaf_of_body(donor) != tree.leaf_of_body(receiver)
    tree.points[donor] = tree.points[receiver]
    tree.refit()
    build_near_field_plan(tree, lists)
    stats = lists.nearfield_plan_stats
    assert stats["builds"] == 2 and stats["refreshes"] == 0


# ----------------------------------------------------------- batch contract
class PlainStokeslet(Kernel):
    """The ``(t, s, 3)`` textbook Stokeslet with no ``pairwise`` of its own:
    exercises the base class's per-block default for batches (and is the
    independent reference for the fused kernel)."""

    name = "plain-stokeslet"
    value_dim = strength_dim = 3
    epsilon, viscosity = 0.1, 1.0

    def evaluate(self, targets, sources, strengths, *, exclude_self=False):
        d = targets[:, None, :] - sources[None, :, :]
        r2 = np.einsum("tsk,tsk->ts", d, d)
        denom = (r2 + self.epsilon**2) ** 1.5
        u = np.einsum("ts,sk->tk", (r2 + 2 * self.epsilon**2) / denom, strengths)
        u += np.einsum("ts,tsk->tk", np.einsum("tsk,sk->ts", d, strengths) / denom, d)
        return u / (8.0 * np.pi * self.viscosity)

    gradient = evaluate
    self_interaction = RegularizedStokesletKernel.self_interaction


KERNELS = {
    "laplace": LaplaceKernel(),
    "laplace-softened": LaplaceKernel(softening=0.05),
    "gravity": GravityKernel(G=2.5, softening=0.01),
    "stokeslet": RegularizedStokesletKernel(epsilon=0.1),
    "stokeslet-default-path": PlainStokeslet(),
}
WANTS = {"potential": (True, False), "gradient": (False, True), "both": (True, True)}


def contract(test):
    """Parametrise over every kernel x {potential, gradient, both}."""
    test = pytest.mark.parametrize("want", WANTS.values(), ids=WANTS.keys())(test)
    return pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())(test)


def _batch(kernel, G, T, S, seed=0, order="C"):
    """A random batch with a repeated source and a target sitting on one."""
    rng = np.random.default_rng(seed)
    t, s = rng.uniform(-1, 1, (G, T, 3)), rng.uniform(-1, 1, (G, S, 3))
    q = rng.uniform(-1, 1, (G, S) if kernel.strength_dim == 1 else (G, S, 3))
    if S > 1:
        s[:, -1] = s[:, 0]
        t[:, 0] = s[:, S // 2]
    return tuple(np.asarray(a, order=order) for a in (t, s, q))


def _outputs(res):
    return [a for a in res if a is not None]


def _same_bits(res_a, res_b):
    return all(np.array_equal(a, b) for a, b in zip(_outputs(res_a), _outputs(res_b)))


# G = 1, T = 1, S below / at / above a SIMD block, a stack the kernel must
# cut itself (40 x 9 x 64 > _TILE_ELEMS) and one block it must walk by rows
_BATCH_SHAPES = [(1, 4, 24), (5, 1, 16), (6, 3, 8), (4, 7, 61), (40, 9, 64), (2, 40, 520)]


@contract
@pytest.mark.parametrize("shape", _BATCH_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_batch_bits_do_not_depend_on_the_cut(kernel, want, shape):
    """Whole, cut at every position, one group per call (3-D and plain 2-D
    form), F-ordered: the same bits."""
    flags = dict(potential=want[0], gradient=want[1])
    t, s, q = _batch(kernel, *shape)
    whole = kernel.pairwise(t, s, q, **flags)
    assert [a.shape[:2] for a in _outputs(whole)] == [shape[:2]] * sum(want)
    assert _same_bits(whole, kernel.pairwise(*_batch(kernel, *shape, order="F"), **flags))
    G = shape[0]
    for c in range(1, G):
        parts = [kernel.pairwise(t[sl], s[sl], q[sl], **flags) for sl in (slice(c), slice(c, G))]
        joined = [np.concatenate(pair) for pair in zip(*map(_outputs, parts))]
        assert _same_bits(whole, joined), f"cut at {c}"
    for g in range(G):
        alone = [a[g] for a in _outputs(whole)]
        assert _same_bits(alone, [a[0] for a in _outputs(kernel.pairwise(t[g : g + 1], s[g : g + 1], q[g : g + 1], **flags))])
        assert _same_bits(alone, kernel.pairwise(t[g], s[g], q[g], **flags))


def _term_scale(kernel, t, s, q):
    """Per-target sum of |pair terms|: what an ulp of the row sum is."""
    d = t[:, None, :] - s[None, :, :]
    eps = getattr(kernel, "softening", getattr(kernel, "epsilon", 0.0))
    r2 = np.einsum("tsk,tsk->ts", d, d) + eps**2
    with np.errstate(divide="ignore"):
        inv = np.where(r2 > 0, 1.0 / np.sqrt(r2), 0.0)
    if kernel.strength_dim == 1:
        amp = getattr(kernel, "G", 1.0) * np.abs(q)
        return (inv * amp).sum(1), (inv**2 * amp).sum(1)
    both = (3.0 * inv * np.linalg.norm(q, axis=1)).sum(1) / (8 * np.pi * kernel.viscosity)
    return both, both


@contract
@pytest.mark.parametrize("pad", [1, 7])
def test_padded_slots_add_exact_zeros(kernel, want, pad):
    flags = dict(potential=want[0], gradient=want[1])
    t, s, q = (a[0] for a in _batch(kernel, 1, 6, 41, seed=3))
    sp = np.concatenate([s, np.repeat(s[:1], pad, axis=0)])
    qp = np.concatenate([q, np.zeros((pad, *q.shape[1:]))])
    # the padded slots alone: exactly nothing, also for the target on s[0]
    tz = np.vstack([t, s[:1]])
    for out in _outputs(kernel.pairwise(tz, sp[-pad:], qp[-pad:], **flags)):
        assert not out.any()
    # beside the real sources they only regroup the row sums
    scales = [sc for sc, w in zip(_term_scale(kernel, t, s, q), want) if w]
    plain, padded = kernel.pairwise(t, s, q, **flags), kernel.pairwise(t, sp, qp, **flags)
    for a, b, scale in zip(_outputs(plain), _outputs(padded), scales):
        assert np.all(np.abs(a - b) <= 2 * np.spacing(scale)[:, None])


@pytest.mark.parametrize("budget", [1, 200, 10**9])
@pytest.mark.parametrize("name", ["gravity", "stokeslet", "stokeslet-default-path"])
def test_near_field_bits_do_not_depend_on_the_tile_budget(monkeypatch, name, budget):
    """Re-cutting every bucket (plan tiles *and* the kernel's own stacking
    and row walk) leaves the whole near field bitwise unchanged."""
    kernel = KERNELS[name]
    tree = AdaptiveOctree(uniform_cube(700, seed=2).positions, S=6)
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, (700,) if kernel.strength_dim == 1 else (700, 3))
    want = dict(potential=True, gradient=kernel.value_dim == 1)
    ref = evaluate_near_field(kernel, tree, build_interaction_lists(tree, folded=True), q, **want)
    n_ref = build_near_field_plan(tree, build_interaction_lists(tree, folded=True)).n_tiles
    monkeypatch.setattr(nearfield, "_TILE_ELEMS", budget)
    monkeypatch.setattr(kernels_base, "_TILE_ELEMS", budget)
    lists = build_interaction_lists(tree, folded=True)
    plan = build_near_field_plan(tree, lists)
    assert plan.n_tiles == {1: plan.n_groups, 10**9: n_ref}.get(budget, plan.n_tiles)
    assert budget > 200 or plan.n_tiles > n_ref
    assert _same_bits(ref, evaluate_near_field(kernel, tree, lists, q, **want))


# ------------------------------------------------------- degenerate inputs
def _coincident():
    return np.repeat(plummer(120, seed=1).positions, 3, axis=0), 10


def _fewer_than_s():
    return plummer(20, seed=2).positions, 64


def _one_octant():
    cloud = uniform_cube(300, size=0.4, center=(0.7, 0.7, 0.7), seed=3).positions
    return np.vstack([[[-1.0, -1.0, -1.0]], cloud]), 12


@pytest.mark.parametrize("name", ["laplace", "laplace-softened", "stokeslet"])
@pytest.mark.parametrize("make", [_coincident, _fewer_than_s, _one_octant])
def test_degenerate_inputs_match_per_leaf_reference(name, make):
    kernel = KERNELS[name]
    pts, S = make()
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=True)
    if make is _fewer_than_s:
        assert build_near_field_plan(tree, lists).n_groups == 1
    else:
        # ... and a leaf with no sources at all
        lists.near_sources[next(iter(lists.near_sources))] = []
        lists.drop_tables()  # a view was edited by hand: the dicts are the source now
    rng = np.random.default_rng(0)
    q = rng.uniform(-1, 1, (len(pts),) if kernel.strength_dim == 1 else (len(pts), 3))
    want = dict(potential=True, gradient=kernel.value_dim == 1)
    got = evaluate_near_field(kernel, tree, lists, q, **want)
    ref = _reference_near_field(kernel, tree, lists, q, **want)
    for a, b in zip(_outputs(got), _outputs(ref)):
        assert np.isfinite(a).all()
        assert np.allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


# ---------------------------------------------------------- plan invariants
_PLAN_FIELDS = shard_plan_fields["near"]  # every array of the plan, as shipped to shard workers


def _check_tiles(tree, lists, plan):
    """Every target body in exactly one tile, tiles of one shape within the
    budget, padding = the group's first source, real pairs as listed."""
    seen = np.concatenate([plan.tile(k)[0].ravel() for k in range(plan.n_tiles)])
    assert np.array_equal(np.sort(seen), np.arange(tree.n_bodies))
    assert plan.tile_ptr[0] == 0 and plan.tile_ptr[-1] == plan.n_groups
    assert lists.nearfield_plan_stats["tiles"] == plan.n_tiles
    for k in range(plan.n_tiles):
        t_idx, s_idx, cnt = plan.tile(k)
        assert len(t_idx) == len(s_idx) == len(cnt) >= 1
        assert len(t_idx) == 1 or t_idx.size * s_idx.shape[1] <= kernels_base._TILE_ELEMS * len(t_idx)
        assert np.all(s_idx.shape[1] - cnt < nearfield._SRC_ROUND) and np.all(cnt <= s_idx.shape[1])
        pad = np.arange(s_idx.shape[1]) >= cnt[:, None]
        assert np.array_equal(s_idx[pad], np.broadcast_to(s_idx[:, :1], s_idx.shape)[pad])
        assert plan.tile_pairs(k) == t_idx.shape[1] * int(cnt.sum())
    pairs = sum(
        tree.nodes[t].count * tree.nodes[s].count
        for t, src in lists.near_sources.items()
        for s in src
    )
    assert plan.total_pairs == pairs == sum(map(plan.group_pairs, range(plan.n_groups)))
    assert pairs == sum(map(plan.tile_pairs, range(plan.n_tiles)))


@pytest.mark.parametrize("dist,S", [(uniform_cube, 5), (plummer, 14)])
def test_plan_tiles_partition_the_targets(dist, S):
    tree = AdaptiveOctree(dist(900, seed=7).positions, S=S)
    lists = build_interaction_lists(tree, folded=True)
    plan = build_near_field_plan(tree, lists)
    assert plan.n_tiles < plan.n_groups  # something was stacked
    _check_tiles(tree, lists, plan)


def test_refreshed_and_repaired_plans_keep_the_invariants():
    tree = AdaptiveOctree(gaussian_blobs(500, seed=4).positions, S=12)
    cache = ListCache()
    lists = cache.get(tree, folded=True)
    build_near_field_plan(tree, lists)

    # refit with unchanged leaf populations: refreshed == fresh, tiles included
    tree.points[:] += 1e-9 * np.random.default_rng(0).standard_normal(tree.points.shape)
    tree.refit()
    plan = build_near_field_plan(tree, lists)
    assert lists.nearfield_plan_stats["refreshes"] == 1
    fresh = build_near_field_plan(tree, build_interaction_lists(tree, folded=True))
    for name in _PLAN_FIELDS:
        assert np.array_equal(getattr(plan, name), getattr(fresh, name)), name
    _check_tiles(tree, lists, plan)

    # surgery: the lookup rebuilds the lists, and the new plan keeps the
    # same invariants and the same physics
    leaf = max(
        (l for l in tree.leaves() if tree.nodes[l].count > 1),
        key=lambda l: tree.nodes[l].level,
    )
    tree.pushdown(leaf)
    lists = cache.get(tree, folded=True)
    assert (cache.builds, cache.hits) == (2, 0)
    _check_tiles(tree, lists, build_near_field_plan(tree, lists))
    kernel = LaplaceKernel(softening=0.05)
    q = np.random.default_rng(4).uniform(-1, 1, tree.n_bodies)
    got = evaluate_near_field(kernel, tree, lists, q, potential=True, gradient=True)
    ref = _reference_near_field(kernel, tree, lists, q, potential=True, gradient=True)
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


# ------------------------------------------- both bodies of the Laplace P2P
_LAPLACE_FAMILY = ["laplace", "laplace-softened", "gravity"]


@pytest.mark.parametrize("want", WANTS.values(), ids=WANTS.keys())
@pytest.mark.parametrize("name", _LAPLACE_FAMILY)
def test_batch_contract_under_each_p2p_body(p2p_impl, name, want):
    """The compiled loop and the NumPy fallback each keep the contract the
    back ends lean on (the unparametrised tests above run whichever body
    the loader resolved)."""
    for shape in _BATCH_SHAPES:
        test_batch_bits_do_not_depend_on_the_cut(KERNELS[name], want, shape)
    for pad in (1, 7):
        test_padded_slots_add_exact_zeros(KERNELS[name], want, pad)


def test_near_field_under_each_p2p_body(p2p_impl, monkeypatch):
    test_batched_matches_per_leaf_reference(KERNELS["laplace"])
    test_batched_matches_per_leaf_reference(KERNELS["laplace-softened"])
    for make in (_coincident, _fewer_than_s, _one_octant):
        test_degenerate_inputs_match_per_leaf_reference("laplace", make)
    test_near_field_bits_do_not_depend_on_the_tile_budget(monkeypatch, "gravity", 200)


class _PreChangeNumpy:
    """``numpy`` with ``square(d, out=)`` spelt ``multiply(d, d, out=)`` —
    the expression the NumPy bodies used before the unary ufunc."""

    calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def square(self, a, out):
        self.calls += 1
        return np.multiply(a, a, out=out)


@pytest.mark.parametrize("name", ["laplace-softened", "stokeslet"])
def test_unary_square_keeps_the_bits_of_the_numpy_bodies(monkeypatch, name):
    import repro.kernels.laplace as laplace_module
    from repro.kernels import _native

    monkeypatch.setattr(_native, "_library", None)  # the Laplace fallback is a NumPy body
    kernel = KERNELS[name]
    t, s, q = _batch(kernel, 12, 12, 130)  # a full stacked tile and a short one
    now = kernel.pairwise(t, s, q, potential=True, gradient=True)
    before = _PreChangeNumpy()
    for module in (kernels_base, laplace_module):
        monkeypatch.setattr(module, "np", before)
    assert _same_bits(now, kernel.pairwise(t, s, q, potential=True, gradient=True))
    assert before.calls == (8 if name == "laplace-softened" else 6)  # 2 tiles x (3 [+ 1])


# ------------------------------------- near_tiles: the plan read in place
_NEAR_TILES_KERNELS = {
    "laplace": LaplaceKernel(),
    "laplace-softened": LaplaceKernel(softening=0.01),
    "gravity": GravityKernel(G=2.5, softening=0.01),
}


def _plan_case(cloud, seed=5):
    """``(pts, q, plan)`` over one of ``tests/clouds.py``; ``"no-sources"``
    is the one-octant cloud with one leaf's source list emptied."""
    pts, S = CLOUDS["one-octant" if cloud == "no-sources" else cloud](seed=seed)
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=True)
    if cloud == "no-sources":
        lists.near_sources[next(iter(lists.near_sources))] = []
        lists.drop_tables()
    q = np.random.default_rng(seed).uniform(-1, 1, len(pts))
    return tree.points, q, build_near_field_plan(tree, lists)


def _near_tiles(method, kernel, pts, q, plan, tiles, want, fill=0.0):
    n = len(pts)
    pot = np.full(n, fill) if want[0] else None
    grad = np.full((n, 3), fill) if want[1] else None
    method(kernel, pts, q, plan, tiles, pot, grad)
    return pot, grad


def _bytes(res):
    return [a.tobytes() for a in _outputs(res)]


@pytest.mark.parametrize("name", _NEAR_TILES_KERNELS)
@pytest.mark.parametrize("cloud", [*CLOUDS, "no-sources"])
def test_near_tiles_equal_the_gather_seam(p2p_impl, cloud, name):
    """The kernel's own ``near_tiles`` (one compiled call for the Laplace
    family) writes the bytes of the base class's gather seam — one batched
    ``pairwise`` per tile — on every cloud, for every output wanted."""
    kernel = _NEAR_TILES_KERNELS[name]
    pts, q, plan = _plan_case(cloud)
    if cloud == "no-sources":
        assert (plan.src_ptr[1:] == plan.src_ptr[:-1]).any()
    for want in WANTS.values():
        args = (kernel, pts, q, plan, range(plan.n_tiles), want)
        got = _near_tiles(type(kernel).near_tiles, *args)
        assert _bytes(got) == _bytes(_near_tiles(Kernel.near_tiles, *args))
        assert all(np.isfinite(a).all() for a in _outputs(got))


def test_a_shuffled_tile_list_writes_exactly_its_rows(p2p_impl):
    """Half the tiles, shuffled as LPT leaves them and passed as a strided
    view: their rows get the bits of a whole-plan call, every other row
    keeps what it held — and an empty list writes nothing at all."""
    kernel = _NEAR_TILES_KERNELS["gravity"]
    pts, q, plan = _plan_case("plummer")
    tiles = np.random.default_rng(1).permutation(plan.n_tiles)[: plan.n_tiles // 2]
    rows = np.zeros(len(pts), dtype=bool)
    rows[np.concatenate([plan.tile(k)[0].ravel() for k in tiles])] = True
    both = (True, True)
    whole = _near_tiles(GravityKernel.near_tiles, kernel, pts, q, plan, range(plan.n_tiles), both)
    part = _near_tiles(GravityKernel.near_tiles, kernel, pts, q, plan, tiles[::-1], both, np.nan)
    for a, b in zip(part, whole):
        assert np.array_equal(a[rows], b[rows]) and np.isnan(a[~rows]).all()
    for empty in ([], np.empty(0, dtype=np.int64)):
        untouched = _near_tiles(GravityKernel.near_tiles, kernel, pts, q, plan, empty, both, np.nan)
        assert all(np.isnan(a).all() for a in untouched)


def test_a_refreshed_plan_evaluates_like_a_fresh_one(p2p_impl):
    tree, lists, q = _setup(1, n=500)
    build_near_field_plan(tree, lists)
    tree.points[:] += 1e-9 * np.random.default_rng(0).standard_normal(tree.points.shape)
    tree.refit()  # same leaf populations: the plan is refreshed, not rebuilt
    plan = build_near_field_plan(tree, lists)
    assert lists.nearfield_plan_stats["refreshes"] == 1
    fresh = build_near_field_plan(tree, build_interaction_lists(tree, folded=True))
    for kernel in _NEAR_TILES_KERNELS.values():
        got, want = (
            _near_tiles(type(kernel).near_tiles, kernel, tree.points, q, p, range(p.n_tiles), (True, True))
            for p in (plan, fresh)
        )
        assert _bytes(got) == _bytes(want)


def test_a_nan_coordinate_keeps_the_potential_finite_and_poisons_the_gradient(p2p_impl):
    kernel = _NEAR_TILES_KERNELS["laplace"]
    pts, q, plan = _plan_case("plummer")
    pts = pts.copy()
    bad = int(plan.src_idx[0])
    pts[bad, 1] = np.nan
    pot, grad = _near_tiles(type(kernel).near_tiles, kernel, pts, q, plan, range(plan.n_tiles), (True, True))
    assert np.isfinite(pot).all()
    # every target of a group that has the body among its sources
    hit = [g for g in range(plan.n_groups) if bad in plan.src_idx[plan.src_ptr[g] : plan.src_ptr[g + 1]]]
    targets = np.concatenate([plan.tgt_idx[plan.tgt_ptr[g] : plan.tgt_ptr[g + 1]] for g in hit])
    assert np.isnan(grad[targets, 1]).all()
