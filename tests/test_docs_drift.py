"""README.md and DESIGN.md name only things that exist.

Every repository path (``src/…``, ``tests/…``, ``benchmarks/…``,
``examples/…``; globs must match something), every ``repro.<module>``
dotted name (resolved by import + attribute walk) and every
``python -m repro <verb>`` the two documents mention is checked against
the tree, so a rename or deletion that forgets the docs fails here
instead of leaving a dangling reference for the next reader.  Names that
were deleted on purpose (``_RETIRED``) may not come back either.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.__main__ import ABLATIONS, COMMANDS

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")

_PATH = re.compile(r"(?<![\w/.-])(?:src|tests|benchmarks|examples)/[\w./*-]+")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_VERB = re.compile(r"python -m repro ([a-z][\w-]*)")


def _mentions(doc: str, pattern: re.Pattern) -> list[str]:
    text = (ROOT / doc).read_text()
    found = {m.group(pattern.groups and 1 or 0) for m in pattern.finditer(text)}
    # sentence punctuation glued to the end of a mention is not part of it
    return sorted({f.rstrip(".-") for f in found})


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_paths_exist(doc):
    missing = [
        p for p in _mentions(doc, _PATH)
        if not (any(ROOT.glob(p)) if "*" in p else (ROOT / p).exists())
    ]
    assert not missing, f"{doc} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    missing = [d for d in _mentions(doc, _DOTTED) if not _resolves(d)]
    assert not missing, f"{doc} names repro.* objects that do not resolve: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_cli_verbs_exist(doc):
    verbs = set(COMMANDS) | set(ABLATIONS) | {"list"}
    missing = [v for v in _mentions(doc, _VERB) if v not in verbs]
    assert not missing, f"{doc} names `python -m repro` verbs that do not exist: {missing}"


#: names deleted on purpose, with what replaced them; spelt in halves so a
#: repository-wide grep for the retired name stays empty.  A name matches as
#: a whole word: ``evaluate_near_tiles`` is not ``evaluate_near_tile``
_RETIRED = {
    "deadline_" + "fatal": "one Deadline per solve; expiry always propagates",
    "Graph" + "DeadlineError": "repro.util.timing.SolveDeadlineError",
    "fmm." + "multipass": "repro.fmm.farfield.laplace_far_field; the per-node "
    "oracle is tests/oracles/farfield.py",
    "fmm/" + "multipass": "src/repro/fmm/farfield.py, tests/oracles/farfield.py",
    "build_interaction_lists" + "_scalar": "repro.tree.build_interaction_lists; the "
    "per-pair oracle left src/ for tests/oracles/lists.py",
    "farfield_row" + "_cache": "repro.tree.AdaptiveOctree.node_table",
    "M2L_ROUND" + "_ROWS": "none: a shard runs M2L whole (repro.fmm.farfield.m2l), "
    "no delta scratch",
    "test_bench_m2l_" + "reduced_translation": "test_bench_m2l_octets; the "
    "per-(level, displacement) class loop left src/ for tests/oracles/m2l.py",
    "OperatorCache" + "Protocol": "repro.expansions.operators.OperatorSet: one frozen "
    "set per (backend, order, h_root), nothing to get or put per key",
    "DictOperator" + "Cache": "repro.expansions.operators.OperatorStore on the ListCache",
    "SharedOperator" + "Cache": "repro.expansions.operators.OperatorStore on the JobServer",
    "share_operator" + "_cache": "ListCache(operators=store), constructor-only",
    "opcache" + "_bytes": "no knob: the store keeps MAX_RESIDENT_SETS sets",
    "opcache" + "-mb": "no knob: the store keeps MAX_RESIDENT_SETS sets",
    "op_" + "evictions": "OperatorStore.stats(): hits, misses, entries, bytes",
    "evaluate_near_" + "tile": "repro.fmm.nearfield.evaluate_near_tiles: one "
    "Kernel.near_tiles call per tile list",
    "journal" + "_since": "none: ListCache.get rebuilds when structure_generation moved",
    "Surgery" + "Record": "none: structure_generation is the one shape stamp",
    "Repair" + "Ineligible": "none: a stale lookup always rebuilds",
    "max_repair" + "_ops": "none: ListCache's one option is operators",
    "lists_repaired" + "_total": "lists_rebuilt_total",
    "repair_nodes" + "_touched": "none: a lookup is a hit or a rebuild",
    "fgo_list_repairs" + "_total": "FineGrainedReport.list_rebuilds",
    "partial" + "_rebuilds": "farfield_geometry_stats builds / hits",
    "test_bench" + "_repair": "none: a rebuild is the only path, timed by step_budget",
    "p2m" + "_basis_from_l2p": "CartesianExpansion.p2m_sign: P2M reads the one L2P "
    "table, times an exact +-1 per column",
    "Engine" + "Config": "ExecutionEngine(n_workers): the engine's one option",
    "Retry" + "Policy": "repro.runtime.engine.MAX_ATTEMPTS, no backoff",
    "Graph" + "Cancelled": "none: a run ends by completing, failing or its deadline",
    "default" + "_shards": "repro.runtime.engine.default_workers (affinity-aware)",
    "serve_queue" + "_depth": "status()['queue_depth']",
    "serve_" + "tenants": "status()['active_tenants']",
    "serve_queued_cost" + "_seconds": "status()['queued_cost_s']",
    "serve_requests" + "_total": "status()['requests_total']",
    "serve_shed" + "_total": "status()['shed_total']",
    "serve_deadline" + "_total": "status()['deadline_total']",
    "serve_drains" + "_total": "status()['drains_total']",
    "serve_request" + "_seconds": "the serve ledger record's wall_s",
    "serve" + "-request": "none: a served request records nothing once answered",
    "shard_respawns" + "_total": "ProcessEngine.total_respawns, ledger extra.shards",
    "shard_partial_redo" + "_total": "ProcessEngine.total_partial_redos, ledger extra.shards",
    "shard_serial_fallback" + "_total": "ProcessEngine.total_serial_fallbacks, "
    "ledger extra.shards",
    "shard_" + "imbalance": "ledger extra.shards.imbalance, ShardRunResult.imbalance",
    "supervisor" + "_snapshot": "none: a served solve never owns a ProcessEngine",
    "shard_" + "supervisor": "none: a served solve never owns a ProcessEngine",
    "balancer" + "_S": "the step log's S column and the S counter track",
    "balancer_actions" + "_total": "DynamicLoadBalancer.decision_summary()['actions']",
    "balancer_oscillation" + "_total": "decision_summary()['actions']"
    "['watchdog->observation']",
    "fgo_calls" + "_total": "the fine-grained-optimize trace instant",
    "fgo_candidates_examined" + "_total": "the fine-grained-optimize trace instant",
    "fgo_operations_accepted" + "_total": "the fine-grained-optimize trace instant",
    "fgo_rounds" + "_total": "the fine-grained-optimize trace instant",
    "fmm_step_cpu" + "_seconds": "the step log's cpu_time",
    "fmm_step_gpu" + "_seconds": "the step log's gpu_time",
    "fmm_step_compute" + "_seconds": "the step log's compute_time",
    "runtime." + "graphs": "FarFieldPass.add_tasks / NearFieldPass.add_tasks: each "
    "pass declares its DAG once; the engine runs it, run_in_order walks it",
    "add_far_field" + "_tasks": "repro.fmm.farfield.FarFieldPass.add_tasks",
    "add_near_field" + "_tasks": "repro.fmm.nearfield.NearFieldPass.add_tasks",
    "tile" + "_pairs": "repro.fmm.nearfield.NearFieldPlan.tile_weights (one array)",
    "as" + "_batch": "none: Kernel.pairwise takes one (T, 3) x (S, 3) block; a "
    "stack of them is Kernel._stacked_pairwise",
    "padded" + "_sources": "NearFieldPlan.stacked_tiles: the fallback's padded index, "
    "per call, for the listed tiles only",
    "NearFieldPlan." + "tile": "NearFieldPlan.stacked_tiles",
    "p2p" + "_blocks": "p2p_block: one dense block, no batch axis",
    "batch" + " contract": "the row contract: a target row's bits depend on its own sources only",
    "dipoles": "none: every far-field pass is charges; the Stokeslet far field is "
    "four charge passes (repro.kernels.stokeslet_fmm)",
    "p2m" + "_dipole": "none: the Stokeslet far field is four charge passes",
    "p2m_dipole" + "_rows": "none: the Stokeslet far field is four charge passes",
    "p2l" + "_dipole": "none: the Stokeslet far field is four charge passes",
    "p2l_dipole" + "_rows": "none: the Stokeslet far field is four charge passes",
    "_dipole" + "_limit": "none: the Stokeslet far field is four charge passes",
    "_dipole_limit" + "_rows": "none: the Stokeslet far field is four charge passes",
    "Pass" + "Spec": "FarFieldPass(charges=, potential=, gradient=): one pass's "
    "charge channels and output flags",
    "Far" + "Pass": "none: a solve is one FarFieldPass whose charges are (n,) or "
    "(n, k) channels (repro.fmm.dispatch)",
    "solve" + "_passes": "repro.runtime.shards.ProcessEngine.solve: one far-field "
    "pass of k channels plus the near field",
    "n" + "_passes": "none: the Stokeslet far field is one pass of N_FAR_PASSES "
    "charge channels (repro.kernels.stokeslet_fmm.N_FAR_PASSES)",
    "Histo" + "gram": "none: counters and gauges only (no histogram had a writer)",
    "DEFAULT" + "_BUCKETS": "none: counters and gauges only",
    "mean_shard" + "_busy": "ShardRunResult.shard_busy",
    "OP" + "_NAMES": "repro.kernels.base.FMM_OPS",
    "_CPU" + "_OPS": "repro.kernels.base.EXPANSION_OPS",
    "_GPU" + "_OPS": "none: P2P is the one GPU op",
    "m2m" + "_at": "OperatorSet.m2m, one level-free (8 nc, nc) stack; a level's "
    "power-of-two factors go onto the rows (ShiftLevel.grow / shrink)",
    "l2l" + "_at": "OperatorSet.l2l, one level-free (nc, 8 nc) stack",
    "up" + "_classes": "FarFieldGeometry.shift_levels: one ShiftLevel per tree "
    "level; repro.fmm.farfield.m2m runs it as one gemm over octets",
    "down" + "_classes": "FarFieldGeometry.shift_levels, walked shallowest first "
    "by repro.fmm.farfield.l2l",
    "level" + "_groups": "none: a level is one ShiftLevel, one task",
    "m2m_merge" + "_level": "none: M2M assigns a level's parents in one gemm; "
    "the per-(level, octant) class loop is tests/oracles/shifts.py",
    "m2l" + "_reduce": "repro.fmm.farfield.m2l, its first step",
    "m2l" + "_expand": "repro.fmm.farfield.m2l, its last step",
    "m2l" + "_delta": "repro.fmm.farfield.m2l: every class's gemm and merge, in "
    "class order, inside one stage",
    "m2l" + "_merge": "repro.fmm.farfield.m2l: every class's gemm and merge, in "
    "class order, inside one stage",
    "m2l" + "_multipoles": "none: repro.fmm.farfield.m2l keeps its octet arrays "
    "to itself",
    "M2L_ROUND" + "_BYTES": "none: a shard runs M2L whole, no delta scratch",
    "m2l" + "_rounds": "none: a shard runs M2L whole, no delta scratch",
    "D" + "8": "none: a shard runs M2L whole, no delta scratch",
    "M" + "8": "none: M2L's octet arrays live inside repro.fmm.farfield.m2l",
    "L" + "8": "none: M2L's octet arrays live inside repro.fmm.farfield.m2l",
    "_merge" + "_sel": "none: a shard runs M2L whole, nothing is merged by row owner",
    "halo" + "_rows": "none: the measured halo is the near field's boundary bodies",
    "_halo" + "_gather": "none: the measured halo is the near field's boundary bodies",
    "m2l" + "_batch": "CartesianExpansion.m2l_class_operators; the dense per-pair "
    "M2L is tests/oracles/expansions.py::dense_m2l",
    "p2m" + "_basis": "CartesianExpansion.l2p_basis times p2m_sign",
    "_shift" + "_cache": "none: OperatorSet builds each shift operator once",
    "_m2m" + "_matrix": "CartesianExpansion.m2m_class_operator",
    "_l2l" + "_matrix": "CartesianExpansion.l2l_class_operator",
    "mis" + "_big": "none: nothing read it",
    "_M2L" + "_CHUNK": "none: the chunked dense M2L is tests/oracles/expansions.py",
    "_central" + "_difference": "none: the gradient matrices are analytic; the "
    "finite-difference check lives in tests/test_spherical_identities.py",
    "p2p" + "_pair": "Kernel.evaluate over a disjoint block",
    "p2p" + "_self": "Kernel.evaluate(points, points, q, exclude_self=True)",
    "time" + "_refit": "none: a refit is not charged to the balancer",
    "reset" + "_counters": "none: ListCache's counters only grow",
    "let" + "_bytes": "ShardRunResult.halo_bytes, the measured near-field halo; the "
    "LET model (repro.cluster.let) prices the cluster extension only",
    "obs." + "regress": "none: step_budget (BENCHMARK.json) is the one perf gate; "
    "the ledger keeps RunLedger.append / records",
    "GATED" + "_BENCHES": "none: step_budget (BENCHMARK.json) is the one perf gate",
    "check" + "_regression": "none: step_budget (BENCHMARK.json) is the one perf gate",
    "record_to" + "_ledger": "none: a bench prints its numbers and asserts its gate",
    "REPRO_REGRESS" + "_ENFORCE": "none: step_budget (BENCHMARK.json) is the one perf gate",
    "BENCH" + "_farfield.json": "none: the bench prints its numbers",
    "BENCH" + "_runtime.json": "none: the bench prints its numbers",
    "BENCH" + "_shards.json": "none: the bench prints its numbers",
    "BENCH" + "_serve.json": "none: the bench prints its numbers",
}


def _retired_in(text: str) -> dict[str, str]:
    return {
        name: why for name, why in _RETIRED.items()
        if re.search(rf"\b{re.escape(name)}(?!\w)", text)
    }


@pytest.mark.parametrize("doc", DOCS)
def test_retired_names_stay_retired(doc):
    back = _retired_in((ROOT / doc).read_text())
    assert not back, f"{doc} describes deleted API again: {back}"


def test_retired_names_stay_out_of_src():
    """The code side of the same list: no deleted name is back in ``src/``."""
    back = {
        str(path.relative_to(ROOT)): sorted(found)
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if (found := _retired_in(path.read_text()))
    }
    assert not back, f"deleted API is back in src/: {back}"
