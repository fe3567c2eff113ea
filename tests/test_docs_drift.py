"""README.md and DESIGN.md name only things that exist; CHANGES.md stays
one short headline per PR.

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
    "shard_respawns" + "_total": "ProcessEngine.total_respawns",
    "shard_partial_redo" + "_total": "ProcessEngine.total_partial_redos",
    "shard_serial_fallback" + "_total": "ProcessEngine.total_serial_fallbacks",
    "shard_" + "imbalance": "ShardRunResult.imbalance",
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
    "m2m" + "_at": "OperatorSet.shift_stacks(level): the set's (8 w, w) stack "
    "with a level's power-of-two factors folded in",
    "l2l" + "_at": "OperatorSet.l2l, one level-free (nc, 8 nc) stack",
    "up" + "_classes": "FarFieldGeometry.shift_levels: one ShiftLevel per tree "
    "level; repro.fmm.farfield.m2m runs it as one batched matmul over octets",
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
    "SimulationConfig(n" + "_shards": "none: a simulation runs serial or on "
    "n_workers threads; the shard engine is FMMSolver(engine=ProcessEngine(n))",
    "SimulationConfig.n" + "_shards": "none: the shard engine is only a solver's engine=",
    "config.n" + "_shards": "none: the shard engine is only a solver's engine=",
    "extra." + "shards": "none: a simulation never owns a ProcessEngine",
    "_record_shard" + "_telemetry": "none: a simulation never owns a ProcessEngine",
    "trace --" + "shards": "none: the trace and report verbs run serial or on --workers threads",
    "report --" + "shards": "none: the trace and report verbs run serial or on --workers threads",
    "SolveSpec." + "workers": "none: a served request always solves serially; "
    "parallelism is ServeConfig.pool_size solver threads",
    "SolveSpec." + "folded": "none: a served request always solves over folded lists",
    "spec." + "workers": "none: a served request always solves serially",
    "spec." + "folded": "none: a served request always solves over folded lists",
    "total" + "_runs": "none: ShardRunResult reports one solve; nothing summed runs",
    "total_halo" + "_bytes": "ShardRunResult.halo_bytes, per solve",
    "total_halo" + "_seconds": "ShardRunResult.halo_seconds, per solve",
    "total_idle" + "_seconds": "ShardRunResult.barrier_seconds, per solve",
    "max_shard" + "_wall": "none: a shard result reports busy and barrier time",
    "shard" + "_walls": "ShardRunResult.shard_busy and barrier_seconds",
    "phase" + "_seconds": "none: a shard records its walls, busy and barrier time only",
    "Drift" + "Tracker": "DynamicLoadBalancer.decisions: each step's prediction "
    "beside its observation, summed by decision_summary()['drift']",
    "Drift" + "Sample": "a decision record's predicted, cpu / gpu and residual",
    "Runtime" + "Sample": "none: the modeled step and the host's engine makespan "
    "time different machines",
    "observe" + "_runtime": "none: the modeled step and the host's engine makespan "
    "time different machines",
    "runtime_model" + "_residual": "none: the modeled step and the host's engine "
    "makespan time different machines",
    "real" + "_coeffs": "none: nothing read the engine-measured coefficients",
    "observe_real" + "_registry": "none: nothing read the engine-measured coefficients",
    "telemetry." + "drift": "DynamicLoadBalancer.decision_summary()['drift'], kept "
    "with telemetry off too",
    "obs." + "drift": "repro.balance.controller: the balancer's decision record",
    # test-only code: nothing a program runs read it
    "geometry." + "octant": "Box.child (bit k of an octant is the axis-k side)",
    "geometry/" + "octant": "src/repro/geometry/box.py",
    "octant" + "_offset": "none: Box.child",
    "child" + "_box": "Box.child",
    "child_octant" + "_of_points": "none: the octree classifies by Morton key",
    "boxes" + "_adjacent": "none: the list builder's integer touch test",
    "well" + "_separated": "none: the list builder's integer touch test",
    "cube" + "_containing": "none: a simulation reflects bodies into its fixed domain",
    "machine." + "calibration": "none: nothing a program runs read it",
    "machine/" + "calibration": "none: nothing a program runs read it",
    "gpu_peak" + "_interaction_rate": "none",
    "cpu_flop" + "_rate": "none",
    "cpu_interaction" + "_rate": "none",
    "expansion_floor" + "_seconds": "none",
    "estimate" + "_crossover_s": "none: the balancer's Search state finds S",
    "solve_body_cycles" + "_for_ratio": "none",
    "tree." + "diagnostics": "AdaptiveOctree.stats",
    "tree/" + "diagnostics": "AdaptiveOctree.stats",
    "tree" + "_profile": "AdaptiveOctree.stats",
    "work_profile" + "_by_level": "none",
    "gpu" + "_friendliness": "StepTiming.gpu_efficiency",
    "op_work" + "_units": "repro.costmodel.flops.atomic_units",
    "work" + "_profile": "repro.costmodel.flops.atomic_units",
    "spawn" + "_rngs": "repro.util.rng.default_rng",
    "Wall" + "Timer": "none",
    "merged" + "_with": "none",
    "to" + "_csv": "EventLog.to_jsonl, EventLog.to_table",
    "FarFieldPass." + "healthy": "repro.resilience.guardrails.check_finite",
    "NearFieldPass." + "healthy": "repro.resilience.guardrails.check_finite",
    "leaf_of" + "_body": "AdaptiveOctree.bodies over AdaptiveOctree.leaves",
    "_inv" + "_order": "none",
    "KernelTiming." + "efficiency": "interactions / issued_body_steps, as "
    "StepTiming.gpu_efficiency",
    "KernelCostProfile." + "scaled": "none",
    "Gauge." + "dec": "Gauge.set, Gauge.inc",
    "bodies_of" + "_rank": "AdaptiveOctree.bodies over RankPartition.rank_leaves",
    "drop" + "_tables": "none: the pair tables are a lists object's one source",
    "PairTable." + "from_dict": "tests/oracles/lists.py pair_table",
    # settings no program set: constants now, each at its one value in use
    "gap_threshold" + "_s": "BalancerConfig.gap_threshold_frac: the gate is "
    "0.15 x the compute time",
    "degradation" + "_tolerance": "repro.balance.controller.DEGRADATION_TOLERANCE",
    "incremental" + "_step": "repro.balance.controller.INCREMENTAL_STEP",
    "search_max" + "_steps": "repro.balance.controller.SEARCH_MAX_STEPS",
    "fgo_batch" + "_frac": "repro.balance.finegrained.FGO_BATCH_FRAC",
    "fgo_max" + "_rounds": "repro.balance.finegrained.FGO_MAX_ROUNDS",
    "watchdog" + "_enabled": "none: the watchdog always runs",
    "watchdog" + "_window": "repro.balance.controller.WATCHDOG_WINDOW",
    "watchdog" + "_flips": "repro.balance.controller.WATCHDOG_FLIPS",
    "Guardrail" + "Config": "none: check_finite runs on every FMM acceleration array",
    "SimulationConfig." + "guardrail": "none: the guardrail is always on",
    "config." + "guardrail": "none: the guardrail is always on",
    "SimulationConfig." + "folded": "none: a simulation runs folded lists",
    "config." + "folded": "none: a simulation runs folded lists",
    "executor." + "folded": "none: the modeled machine runs folded lists",
    "keep" + "_split": "none: FMMResult carries the total potential only",
    "FMMResult." + "near_potential": "none: FMMResult carries the total potential only",
    "FMMResult." + "far_potential": "none: FMMResult carries the total potential only",
    "CostModelGovernor(" + "smoothing": "repro.serve.scheduler._SMOOTHING, the "
    "weight of a served wall in the governor's seconds-per-body rates",
    "_SERVE" + "_LEAF_SIZE": "repro.costmodel.leafsize.choose_leaf_size",
    "leaf" + "_size=": "none: the governor prices a request per body, with no tree",
    # the serve governor is one learned seconds-per-body rate per kernel
    "estimate" + "_op_counts": "none: CostModelGovernor prices seconds per body x bodies",
    "_PRIOR" + "_COEFF_S": "repro.serve.scheduler._PRIOR_S_PER_BODY",
    "ObservedCoefficients(" + "smoothing": "none: a new observation replaces the "
    "coefficient, the paper's per-step re-derivation",
    "ServeClient." + "trace": "ServeClient.status and the ledger's wall_s / queue_wait_s",
    # one interaction scheme: the W/X work is always folded into P2P
    "folded" + "=": "none: the lists always fold W/X into P2P, the paper's scheme",
    "w" + "_list": "none: W is folded into near_sources by build_interaction_lists",
    "x" + "_list": "none: X is folded into near_sources by build_interaction_lists",
    "wx_lists" + "_vs_folded": "none: the CGR W/X scheme is gone; EXPERIMENTS.md "
    "keeps its last timings",
    "ablation" + "-wx": "none: the CGR W/X scheme is gone",
    "pair" + "_bodies": "none: no far-field stage reads a leaf's bodies per pair",
    "m2p" + "_scatter": "none: the far field ends at L2P",
    "p2l" + "_compute": "none: M2L is the far field's one translation",
    "m2p" + "_compute": "none: the far field ends at L2P",
    "_split" + "_recursive": "AdaptiveOctree._build_levels, level by level; the "
    "depth-first build left src/ for tests/oracles/tree.py",
    "_make" + "_child": "AdaptiveOctree._make_children(nid, existing)",
    "_m2l" + "_cores": "repro.expansions.operators._m2l_blocks: one core stack",
    "_m2l_direction" + "_block": "repro.expansions.operators._m2l_blocks: one "
    "gather per direction",
    # the near plan refreshes from a shape-keyed grouping on every refit
    "_Plan" + "Skeleton": "repro.fmm.nearfield._PlanGroups, keyed on structure_generation",
    "_row" + "_signatures": "repro.fmm.nearfield._group_targets",
    # the whole Cartesian sweep runs at the harmonic width
    "m2l" + "_reduction": "none: every Cartesian operator acts on (p+1)^2-wide "
    "rows, so M2L neither reduces nor expands",
    "shift" + "_degrees": "CartesianExpansion.degrees / SphericalExpansion.degrees",
    "m2l" + "_degrees": "CartesianExpansion.degrees / SphericalExpansion.degrees",
    # a served request is one field solve: no time-stepped run, no modelled
    # balancer, and the settings only that run set are gone
    "_STEPPED" + "_INITIAL_S": "none: repro.costmodel.leafsize.choose_leaf_size "
    "picks a served request's S",
    "spec." + "steps": "none: a served request is one field solve",
    "spec." + "dt": "none: a served request is one field solve",
    "SolveSpec." + "steps": "none: a served request is one field solve",
    "SolveSpec." + "dt": "none: a served request is one field solve",
    "SimulationConfig." + "deadline_s": "none: a simulation's solves run unbounded; "
    "a caller bounds one solve with solve(..., deadline=Deadline(s))",
    "initial" + "_S": "none: the balancer's first S is sqrt(s_min * s_max); set "
    "DynamicLoadBalancer.S before the first step, as a checkpoint restore does",
    "m2m_by" + "_slot": "none: repro.fmm.farfield.m2m sums the eight slot products "
    "on every back end",
    "op" + "_registry": "EngineResult.intervals: each carries its op and applications",
    "leaf" + "_counts": "AdaptiveOctree.node_table(): counts[is_leaf]",
    "fired" + "_kinds": "FaultPlan.fired: (kind, label, attempt) per fired fault",
}


def _retired_pattern(name: str) -> str:
    """``name`` as a whole word; an edge that is punctuation (``folded=``)
    needs no word boundary there."""
    head = r"\b" if re.match(r"\w", name) else ""
    tail = r"(?!\w)" if re.search(r"\w$", name) else ""
    return head + re.escape(name) + tail


def _retired_in(text: str) -> dict[str, str]:
    return {
        name: why for name, why in _RETIRED.items()
        if re.search(_retired_pattern(name), text)
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


def test_config_field_sets_are_pinned():
    """Every settable field is listed here: a new setting is a deliberate
    edit of this test, not a side effect."""
    import dataclasses

    from repro.balance import BalancerConfig
    from repro.serve import ServeConfig, SolveSpec
    from repro.sim.driver import SimulationConfig

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(BalancerConfig) == ["gap_threshold_frac", "s_min", "s_max", "fgo_enabled"]
    assert names(SimulationConfig) == [
        "dt", "order", "forces", "strategy", "balancer", "seed", "n_workers",
        "checkpoint_every", "checkpoint_path", "ledger_path",
    ]
    assert names(SolveSpec) == [
        "kernel", "n", "seed", "order", "backend", "deadline_s", "domain_size",
    ]
    assert names(ServeConfig) == [
        "host", "port", "pool_size", "max_tenants", "shed_budget_s",
        "ledger_path", "max_frame_bytes",
    ]


def test_changes_headlines_are_at_most_600_characters():
    """CHANGES.md keeps one headline per PR of at most 600 characters; the
    rule-4 detail goes on terse ``- `` lines under it."""
    long = [
        f"{line[:24]}... ({len(line)} chars)"
        for line in (ROOT / "CHANGES.md").read_text().splitlines()
        if re.match(r"PR \d+", line) and len(line) > 600
    ]
    assert not long, f"CHANGES.md headlines over 600 characters: {long}"
