"""Versioned simulation checkpoints (``.npz`` + json sidecar).

A checkpoint stem ``foo`` produces two files:

* ``foo.npz`` — the bulk arrays: positions, velocities, strengths, the
  leapfrog's stored acceleration, and (when the tree shape is live) the
  full octree node table;
* ``foo.json`` — the manifest: format version, step index, balancer
  state + observed §IV-D coefficients, the executor's noise-RNG state,
  and a sha256 *config fingerprint*.

Bitwise-identical resume requires more than positions: the tree shape is
**path-dependent** (Enforce_S / FineGrainedOptimize surgery history), so
rebuilding from points would change FMM traversal and hence floating-point
rounding.  We therefore serialize the complete node table (key spans,
parent/child topology, hidden/leaf flags) and reconstruct the exact tree;
the modeled-timing noise RNG state is saved so balancer decisions replay
exactly; json round-trips Python floats through ``repr`` so every stored
scalar restores bit-for-bit.

The config fingerprint hashes everything that determines the trajectory —
physics config, balancer thresholds, kernel parameters, machine model,
body count, domain — and deliberately *excludes* execution knobs
(``n_workers``, checkpoint cadence and paths): those may
legitimately differ between the writing and resuming process because the
engine is bitwise-identical to the serial sweep at any worker count and
the balancer reads the same modeled step on each.  A mismatch raises
:class:`CheckpointError` unless ``strict=False``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.geometry.box import Box
from repro.tree.octree import AdaptiveOctree, OctreeNode

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointData",
    "CheckpointError",
    "balancer_state",
    "config_fingerprint",
    "read_checkpoint",
    "restore_balancer",
    "tree_from_state",
    "tree_state_arrays",
    "write_checkpoint",
]

#: bumped whenever the fingerprinted config fields change, so an older
#: checkpoint is refused for its format version rather than reported as
#: written under a different configuration
CHECKPOINT_VERSION = 3

#: config fields that do not affect the trajectory (execution-only knobs)
_EXECUTION_FIELDS = frozenset(
    {
        "n_workers",
        "checkpoint_every",
        "checkpoint_path",
        "ledger_path",
    }
)


class CheckpointError(RuntimeError):
    """Unreadable, incompatible, or version-mismatched checkpoint."""


@dataclass
class CheckpointData:
    """A loaded checkpoint: json manifest + npz arrays."""

    manifest: dict
    arrays: dict[str, np.ndarray]


# ------------------------------------------------------------- fingerprint


def _canon(obj):
    """Canonical json-able form of config/kernel/machine values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    # plain objects (kernels): class name + simple public attributes
    attrs = vars(obj) if hasattr(obj, "__dict__") else {}
    return {
        "__class__": type(obj).__name__,
        **{
            k: _canon(v)
            for k, v in sorted(attrs.items())
            if not k.startswith("_")
            and isinstance(v, (bool, int, float, str, tuple, list))
        },
    }


def config_fingerprint(config, kernel, machine, n_bodies: int, domain: Box) -> str:
    """sha256 over everything that determines the trajectory."""
    cfg = {
        f.name: _canon(getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in _EXECUTION_FIELDS
    }
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": cfg,
        "kernel": _canon(kernel),
        "machine": _canon(machine),
        "n_bodies": int(n_bodies),
        "domain": {
            "center": [float(c) for c in domain.center],
            "size": float(domain.size),
        },
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


# ------------------------------------------------------------------- tree


def tree_state_arrays(tree: AdaptiveOctree) -> tuple[dict, dict]:
    """Serialize the full node table; returns ``(arrays, manifest)``.

    The shape is path-dependent (surgery history), so every node —
    including hidden (collapsed-away) subtrees kept for reclaim — is
    recorded with its key span, topology, and flags.
    """
    nodes = tree.nodes
    children_flat: list[int] = []
    children_ptr = [0]
    for nd in nodes:
        children_flat.extend(nd.children or [])
        children_ptr.append(len(children_flat))
    arrays = {
        "tree_parent": np.array([nd.parent for nd in nodes], dtype=np.int64),
        "tree_level": np.array([nd.level for nd in nodes], dtype=np.int64),
        "tree_key_lo": np.array([nd.key_lo for nd in nodes], dtype=np.uint64),
        "tree_key_hi": np.array([nd.key_hi for nd in nodes], dtype=np.uint64),
        "tree_lo": np.array([nd.lo for nd in nodes], dtype=np.int64),
        "tree_hi": np.array([nd.hi for nd in nodes], dtype=np.int64),
        "tree_is_leaf": np.array([nd.is_leaf for nd in nodes], dtype=bool),
        "tree_hidden": np.array([nd.hidden for nd in nodes], dtype=bool),
        "tree_has_children": np.array(
            [nd.children is not None for nd in nodes], dtype=bool
        ),
        "tree_centers": np.array([nd.center for nd in nodes], dtype=float),
        "tree_sizes": np.array([nd.size for nd in nodes], dtype=float),
        "tree_children_flat": np.array(children_flat, dtype=np.int64),
        "tree_children_ptr": np.array(children_ptr, dtype=np.int64),
    }
    manifest = {
        "S": int(tree.S),
        "max_level": int(tree.max_level),
        "root_center": [float(c) for c in tree.root_box.center],
        "root_size": float(tree.root_box.size),
    }
    return arrays, manifest


def tree_from_state(
    points: np.ndarray, arrays: dict, manifest: dict
) -> AdaptiveOctree:
    """Reconstruct the exact octree serialized by :func:`tree_state_arrays`."""
    ptr = arrays["tree_children_ptr"]
    flat = arrays["tree_children_flat"]
    has_children = arrays["tree_has_children"]
    nodes: list[OctreeNode] = []
    for i in range(arrays["tree_parent"].shape[0]):
        children = None
        if has_children[i]:
            children = [int(c) for c in flat[ptr[i] : ptr[i + 1]]]
        nodes.append(
            OctreeNode(
                id=i,
                level=int(arrays["tree_level"][i]),
                center=np.array(arrays["tree_centers"][i], dtype=float),
                size=float(arrays["tree_sizes"][i]),
                parent=int(arrays["tree_parent"][i]),
                key_lo=np.uint64(arrays["tree_key_lo"][i]),
                key_hi=np.uint64(arrays["tree_key_hi"][i]),
                lo=int(arrays["tree_lo"][i]),
                hi=int(arrays["tree_hi"][i]),
                children=children,
                is_leaf=bool(arrays["tree_is_leaf"][i]),
                hidden=bool(arrays["tree_hidden"][i]),
            )
        )
    # the constructor path re-sorts the bodies (deterministic for identical
    # points/box); node lo/hi ranges were restored verbatim above
    return AdaptiveOctree.from_nodes(
        points,
        int(manifest["S"]),
        nodes,
        root_box=Box(tuple(manifest["root_center"]), float(manifest["root_size"])),
        max_level=int(manifest["max_level"]),
    )


# ---------------------------------------------------------------- balancer


def balancer_state(balancer) -> dict:
    """Capture the controller's full decision state (json-able)."""
    c = balancer.coeffs
    return {
        "state": balancer.state.value,
        "S": int(balancer.S),
        "lo": float(balancer._lo),
        "hi": float(balancer._hi),
        "search_steps": int(balancer._search_steps),
        "frozen": bool(balancer._frozen),
        "inc_entry_dominant": balancer._inc_entry_dominant,
        "best_time": balancer.best_time,
        "expect_new_best": bool(balancer._expect_new_best),
        "s_history": [[st.value, int(s)] for st, s in balancer._s_history],
        "coeffs": {
            "cpu": {k: float(v) for k, v in c.cpu.items()},
            "gpu_p2p": float(c.gpu_p2p),
            "steps_observed": int(c.steps_observed),
        },
    }


def restore_balancer(balancer, state: dict) -> None:
    """Restore what :func:`balancer_state` captured."""
    from repro.balance.states import BalancerState

    balancer.state = BalancerState(state["state"])
    balancer.S = int(state["S"])
    balancer._lo = float(state["lo"])
    balancer._hi = float(state["hi"])
    balancer._search_steps = int(state["search_steps"])
    balancer._frozen = bool(state["frozen"])
    balancer._inc_entry_dominant = state["inc_entry_dominant"]
    balancer.best_time = state["best_time"]
    balancer._expect_new_best = bool(state["expect_new_best"])
    balancer._s_history.clear()
    balancer._s_history.extend(
        (BalancerState(st), int(s)) for st, s in state["s_history"]
    )
    c = balancer.coeffs
    c.cpu = {k: float(v) for k, v in state["coeffs"]["cpu"].items()}
    c.gpu_p2p = float(state["coeffs"]["gpu_p2p"])
    c.steps_observed = int(state["coeffs"]["steps_observed"])


# -------------------------------------------------------------------- io


def write_checkpoint(sim, path: str) -> str:
    """Write ``{path}.npz`` + ``{path}.json`` from a live ``Simulation``.

    Duck-typed on the driver to avoid an import cycle; returns ``path``.
    """
    arrays: dict[str, np.ndarray] = {
        "positions": sim.particles.positions,
        "velocities": sim.particles.velocities,
        "strengths": sim.particles.strengths,
    }
    if sim.integrator._acc is not None:
        arrays["integrator_acc"] = sim.integrator._acc
    manifest = {
        "version": CHECKPOINT_VERSION,
        "step_index": int(sim.step_index),
        "needs_rebuild": bool(sim._needs_rebuild),
        "config_hash": config_fingerprint(
            sim.config, sim.kernel, sim.machine, sim.particles.n, sim.domain
        ),
        "rng_state": sim.executor._rng.bit_generator.state,
        "balancer": balancer_state(sim.balancer),
        "domain": {
            "center": [float(c) for c in sim.domain.center],
            "size": float(sim.domain.size),
        },
        "tree": None,
    }
    if sim.tree is not None and not sim._needs_rebuild:
        tree_arrays, tree_manifest = tree_state_arrays(sim.tree)
        arrays.update(tree_arrays)
        manifest["tree"] = tree_manifest
    np.savez(f"{path}.npz", **arrays)
    with open(f"{path}.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def read_checkpoint(path: str) -> CheckpointData:
    """Load and version-check a checkpoint written by :func:`write_checkpoint`."""
    try:
        with open(f"{path}.json") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(
            f"cannot read checkpoint manifest {path}.json: {e}"
        ) from e
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    try:
        with np.load(f"{path}.npz") as npz:
            arrays = {k: npz[k] for k in npz.files}
    except OSError as e:
        raise CheckpointError(
            f"cannot read checkpoint arrays {path}.npz: {e}"
        ) from e
    return CheckpointData(manifest=manifest, arrays=arrays)
