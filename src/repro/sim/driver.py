"""Time-stepped simulation driver (§IX).

Each step mirrors the paper's §III-D timeline:

1. build/maintain the adaptive tree for the current body positions;
2. "solve" the FMM — numerically (real forces via :class:`FMMSolver` or a
   direct sum) while the heterogeneous executor models the step's CPU/GPU
   times on the machine model;
3. advance bodies (leapfrog) inside the fixed simulation domain;
4. hand the step's timing to the load balancer, which may adjust S
   (rebuild), Enforce_S, or run FineGrainedOptimize — all of whose costs
   are charged as load-balancing time.

The per-step records feed Figs. 8–9 and Table II directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.balance.config import BalancerConfig
from repro.balance.controller import DynamicLoadBalancer
from repro.costmodel.predictor import predict_times
from repro.distributions.generators import ParticleSet
from repro.fmm.evaluator import FMMSolver
from repro.geometry.box import Box, bounding_box
from repro.kernels.base import Kernel
from repro.kernels.direct import direct_evaluate
from repro.machine.executor import HeterogeneousExecutor
from repro.machine.spec import MachineSpec
from repro.obs import NULL_TELEMETRY, REAL_PID, Telemetry
from repro.obs.critpath import analyze as critpath_analyze
from repro.obs.critpath import critical_path_timeline
from repro.resilience.checkpoint import (
    CheckpointError,
    config_fingerprint,
    read_checkpoint,
    restore_balancer,
    tree_from_state,
    write_checkpoint,
)
from repro.resilience.guardrails import GuardrailConfig, check_finite
from repro.runtime.engine import EngineConfig, ExecutionEngine
from repro.sim.integrators import LeapfrogIntegrator, reflect_into_box
from repro.tree.cache import ListCache
from repro.tree.octree import AdaptiveOctree
from repro.util.records import EventLog
from repro.util.timing import Deadline, TimerRegistry

__all__ = ["Simulation", "SimulationConfig", "StepRecord"]


@dataclass(frozen=True)
class SimulationConfig:
    """Driver configuration."""

    dt: float = 1e-3
    order: int = 3
    folded: bool = True
    #: "fmm" computes forces through the FMM; "direct" uses exact summation
    #: (identical balancer behaviour, cheaper wall-clock for large sweeps)
    forces: str = "fmm"
    #: balancer strategy: "static" (1), "enforce" (2), "full" (3)
    strategy: str = "full"
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    initial_S: int | None = None
    seed: int = 0
    #: execution-engine worker threads for the numeric FMM solves:
    #: ``None`` = one per CPU (engine default), ``1`` = the exact serial
    #: path reusing today's monolithic sweeps
    n_workers: int | None = None
    #: let near-field tasks overlap the far-field sweep (the paper's
    #: ``max(T_CPU, T_GPU)`` semantics on real threads)
    overlap: bool = True
    #: Morton-range shard worker *processes* for the numeric FMM solves
    #: (``repro.runtime.shards.ProcessEngine``): ``None``/``1`` = off,
    #: ``>1`` = shard the solve across that many spawned workers over
    #: shared memory.  Mutually exclusive with ``n_workers > 1``.
    n_shards: int | None = None
    #: abort any single FMM solve that runs longer than this many wall
    #: seconds (``None`` = no deadline), on whichever back end runs it:
    #: each solve gets a fresh :class:`repro.util.timing.Deadline`, and
    #: expiry raises :class:`repro.util.timing.SolveDeadlineError` out of
    #: :meth:`Simulation.step` (DESIGN.md §11) — never a serial re-run.
    deadline_s: float | None = None
    #: opt-in NaN/Inf health checks + quarantine (DESIGN.md §11)
    guardrail: GuardrailConfig = field(default_factory=GuardrailConfig)
    #: write a checkpoint every K steps (None = disabled; must be > 0)
    checkpoint_every: int | None = None
    #: checkpoint stem; files land at ``{stem}.npz`` + ``{stem}.json``
    checkpoint_path: str = "checkpoint"
    #: append a flight-recorder RunRecord here on close (None = disabled;
    #: "auto" = the repo-root ``RUNS.jsonl`` / ``$REPRO_LEDGER``)
    ledger_path: str | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(
                f"dt must be a positive time step, got {self.dt}"
            )
        if self.order < 1:
            raise ValueError(
                f"order must be a positive expansion order, got {self.order}"
            )
        if self.forces not in ("fmm", "direct"):
            raise ValueError(f"forces must be 'fmm' or 'direct', got {self.forces!r}")
        if self.strategy not in ("static", "enforce", "full"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(
                f"n_workers must be >= 1 (use 1 for the exact serial path), "
                f"got {self.n_workers}"
            )
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError(
                f"n_shards must be >= 1 (use 1 or None for single-process), "
                f"got {self.n_shards}"
            )
        if (self.n_shards or 1) > 1 and (self.n_workers or 1) > 1:
            raise ValueError(
                "n_shards and n_workers are mutually exclusive parallel "
                "backends; set one of them to 1 (or None)"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be a positive wall-clock budget in "
                f"seconds (or None to disable), got {self.deadline_s}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 step (or None to disable), "
                f"got {self.checkpoint_every}"
            )


@dataclass
class StepRecord:
    """Convenience view of one step's log entry."""

    step: int
    compute_time: float
    lb_time: float
    total_time: float
    S: int
    state: str
    cpu_time: float
    gpu_time: float


class Simulation:
    """Drives a particle system through time with dynamic load balancing."""

    def __init__(
        self,
        particles: ParticleSet,
        kernel: Kernel,
        machine: MachineSpec,
        *,
        config: SimulationConfig | None = None,
        domain: Box | None = None,
        telemetry: Telemetry | None = None,
        list_cache: ListCache | None = None,
    ) -> None:
        self.particles = particles
        self.kernel = kernel
        self.machine = machine
        self.config = config or SimulationConfig()
        if domain is None:
            domain = _default_domain(particles)
        self.domain = domain
        if not bool(domain.contains(particles.positions).all()):
            raise ValueError("initial positions must lie inside the domain")

        #: one bundle threads through executor, balancer, and cache
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # one cache shared by the executor, solver, and the step loop: a
        # frozen-shape step (refit only) reuses its lists everywhere
        self.list_cache = list_cache if list_cache is not None else ListCache()
        if self.telemetry.enabled:
            self.list_cache.bind_metrics(self.telemetry.metrics)
        self.executor = HeterogeneousExecutor(
            machine,
            order=self.config.order,
            kernel=kernel,
            folded=self.config.folded,
            seed=self.config.seed,
            list_cache=self.list_cache,
            telemetry=self.telemetry,
        )
        self.balancer = DynamicLoadBalancer(
            self.executor,
            config=self.config.balancer,
            initial_S=self.config.initial_S,
            mode=self.config.strategy,
        )
        #: real thread-pool engine or multi-process shard engine for the
        #: numeric solves (None when the config resolves to 1 worker or
        #: forces are direct-summed)
        self.engine = None
        #: whether :attr:`engine` is the multi-process shard engine
        self._sharded = False
        if self.config.forces == "fmm":
            if (self.config.n_shards or 1) > 1:
                from repro.runtime.shards import ProcessEngine

                self._sharded = True
                self.engine = ProcessEngine(
                    n_shards=self.config.n_shards, telemetry=self.telemetry
                )
            else:
                engine_config = EngineConfig(
                    n_workers=self.config.n_workers,
                    overlap=self.config.overlap,
                )
                if engine_config.parallel:
                    self.engine = ExecutionEngine(engine_config)
        self.solver = (
            FMMSolver(
                kernel,
                order=self.config.order,
                folded=self.config.folded,
                list_cache=self.list_cache,
                telemetry=self.telemetry,
                engine=self.engine,
            )
            if self.config.forces == "fmm"
            else None
        )
        self.integrator = LeapfrogIntegrator(self.config.dt)
        self.tree: AdaptiveOctree | None = None
        self.log = EventLog()
        self.step_index = 0
        self._needs_rebuild = True
        self._closed = False
        #: critical-path report of the most recent engine run (telemetry on)
        self.last_critpath = None
        #: :class:`repro.runtime.shards.ShardRunResult` of the most recent
        #: sharded solve (multi-process runs only)
        self.last_shard_result = None
        self._ledger_written = False
        #: run-level per-op totals (modeled CPU times), fed to the ledger
        self.op_timers = TimerRegistry()
        #: numeric-quarantine trips (also exported as a metric when
        #: telemetry is enabled)
        self.quarantines = 0

    def close(self) -> None:
        """Shut down the execution engine's thread pool (if any).

        Idempotent and exception-safe: safe to call from ``finally``
        blocks and ``__exit__`` after a mid-step failure.  The simulation
        stays usable — the engine lazily recreates its pool if stepped
        again.  When the config names a ledger, the run's flight-recorder
        record is appended here (once, even across repeated closes).
        """
        self._closed = True
        if self.engine is not None:
            try:
                self.engine.close()
            except Exception:
                pass  # a failed shutdown must not mask the original error
        if self.config.ledger_path is not None and not self._ledger_written:
            self._ledger_written = True
            try:
                self.write_ledger_record()
            except Exception:
                pass  # the recorder must never take the simulation down

    def write_ledger_record(self, path: str | None = None):
        """Append this run's :class:`~repro.obs.ledger.RunRecord`.

        Captures the whole feedback loop in one line: per-op observed
        coefficients, balancer decision summary, drift residuals, engine
        utilization + critical path, and Table-II style aggregates.
        """
        from repro.obs.ledger import RunLedger, RunRecord

        target = path if path is not None else self.config.ledger_path
        if target in (None, "auto"):
            target = None  # RunLedger falls back to the default location
        tel = self.telemetry
        if self.last_critpath is None and self.solver is not None:
            # telemetry-off runs never consumed the engine result: do it now
            res = self.solver.last_engine_result
            if res is not None:
                self.last_critpath = critpath_analyze(res)
        extra = {
            "n_bodies": self.particles.n,
            "n_steps": len(self.log),
            "forces": self.config.forces,
            "strategy": self.config.strategy,
            "n_workers": self.config.n_workers,
            "n_shards": self.config.n_shards,
        }
        eng = self.engine
        if self._sharded:
            last = self.last_shard_result
            # enough to attribute shard idle time from the ledger alone:
            # idle_seconds / (runs * n_shards) is the mean per-shard wait
            extra["shards"] = {
                "runs": eng.total_runs,
                "halo_bytes": eng.total_halo_bytes,
                "halo_seconds": round(eng.total_halo_seconds, 6),
                "idle_seconds": round(eng.total_idle_seconds, 6),
                "imbalance": round(last.imbalance, 4) if last else None,
                "partition_imbalance": (
                    round(last.partition_imbalance, 4) if last else None
                ),
                # supervision history: how much this run leaned on recovery
                "respawns": eng.total_respawns,
                "partial_redos": eng.total_partial_redos,
                "serial_fallbacks": eng.total_serial_fallbacks,
            }
        record = RunRecord(
            bench="simulation",
            kind="run",
            config_hash=config_fingerprint(
                self.config, self.kernel, self.machine, self.particles.n, self.domain
            ),
            metrics={
                **self.summary(),
                "quarantines": self.quarantines,
            },
            timers={
                op: {"seconds": t.total_time, "applications": t.count}
                for op, t in self.op_timers.timers.items()
            },
            balancer={
                **self.balancer.decision_summary(),
                "coefficients": self.balancer.coeffs.as_dict(),
            },
            engine=(
                self.last_critpath.summary_for_ledger()
                if self.last_critpath is not None
                else {}
            ),
            drift=tel.drift.summary() if tel.enabled else {},
            extra=extra,
        )
        return RunLedger(target).append(record)

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- physics
    def _accelerations(self, tree: AdaptiveOctree, lists) -> np.ndarray:
        q = self.particles.strengths
        if self.solver is not None:
            budget = self.config.deadline_s
            res = self.solver.solve(
                tree, q, gradient=True, potential=False, lists=lists,
                deadline=None if budget is None else Deadline(budget),
            )
            acc = res.gradient
            if self.config.guardrail.due(self.step_index) and not check_finite(acc):
                acc = self._quarantine(acc, q)
            return acc
        return direct_evaluate(
            self.kernel, self.particles.positions, self.particles.positions, q,
            gradient=True, exclude_self=True,
        )

    def _quarantine(self, acc: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Numeric quarantine (DESIGN.md §11): repair non-finite rows.

        The FMM produced NaN/Inf accelerations for some bodies (poisoned
        coefficients, corrupted surgery state, ...).  Recovery ladder:

        1. recompute the affected rows through the direct scalar oracle
           (all sources, minus the self term) so *this* step finishes with
           correct forces;
        2. schedule a from-scratch tree rebuild for the next step (the
           current shape is no longer trusted);
        3. reset the balancer to Search — its observed best times came
           from a poisoned pipeline.
        """
        bad = np.flatnonzero(~np.isfinite(acc).all(axis=1))
        self.quarantines += 1
        pts = self.particles.positions
        repaired = direct_evaluate(
            self.kernel, pts[bad], pts, q, gradient=True, exclude_self=False,
        )
        repaired -= self.kernel.self_interaction(pts[bad], q[bad], gradient=True)
        acc = acc.copy()
        acc[bad] = repaired
        self._needs_rebuild = True
        self.balancer.reset_to_search(reason="numeric_quarantine")
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "numeric_quarantine_total",
                "steps quarantined by the NaN/Inf acceleration guardrail",
            ).inc()
            self.telemetry.tracer.instant(
                "numeric-quarantine", bodies=int(bad.size), step=self.step_index
            )
        return acc

    # -------------------------------------------------------------- stepping
    def _ensure_tree(self) -> float:
        """(Re)build or refit the tree; returns the charged maintenance time."""
        lb = 0.0
        if self.tree is None or self._needs_rebuild:
            self.tree = AdaptiveOctree(
                self.particles.positions, self.balancer.S, root_box=self.domain
            )
            self._needs_rebuild = False
        else:
            self.tree.points = self.particles.positions
            self.tree.refit()
        return lb

    def run(self, n_steps: int) -> EventLog:
        """Advance ``n_steps`` time steps; returns the cumulative log."""
        for _ in range(n_steps):
            self.step()
        return self.log

    def step(self) -> StepRecord:
        cfg = self.config
        tracer = self.telemetry.tracer
        with tracer.span("step", step=self.step_index, n=self.particles.n):
            with tracer.span("tree-build", S=self.balancer.S):
                lb_time = self._ensure_tree()
                tree = self.tree
                lists = self.list_cache.get(tree, folded=cfg.folded)

            # what the cost model expects this step to cost — recorded
            # *before* the executor observes it, so drift is honest
            predicted = None
            if self.telemetry.enabled and self.balancer.coeffs.ready:
                predicted = predict_times(lists.op_counts(), self.balancer.coeffs)

            timing = self.executor.time_step(tree, lists)
            for op, t in timing.cpu_registry.timers.items():
                self.op_timers.timer(op).add(t.total_time, t.count)

            with tracer.span("physics"):
                # physics: one leapfrog step with forces from the current tree
                acc = None
                if not self.integrator.primed:
                    acc = self._accelerations(tree, lists)
                    self.integrator.prime(acc)
                new_pos = self.integrator.drift_positions(
                    self.particles.positions, self.particles.velocities
                )
                self.particles.positions[...] = new_pos
                reflect_into_box(
                    self.particles.positions, self.particles.velocities, self.domain
                )
                # new accelerations on the moved bodies (same tree topology;
                # ranges refit)
                tree.points = self.particles.positions
                tree.refit()
                # refit kept the shape, so this lookup is a cache hit, not a
                # rebuild
                lists_after = (
                    self.list_cache.get(tree, folded=cfg.folded) if self.solver else None
                )
                acc_new = self._accelerations(tree, lists_after)
                self.integrator.finish_step(self.particles.velocities, acc_new)

            shard_res = None
            if self.solver is not None:
                shard_res = self.solver.last_shard_result
                self.solver.last_shard_result = None
            if shard_res is not None:
                self.last_shard_result = shard_res
                # feed the *observed* per-shard wall-clock back into the
                # three-state controller: mean busy vs. makespan plays the
                # role of the CPU/GPU pair, so the controller's gap metric
                # is exactly the shard imbalance and a drifting partition
                # triggers repartitioning the same way device drift does
                timing = replace(
                    timing,
                    cpu_time=shard_res.mean_shard_busy,
                    gpu_time=shard_res.max_shard_wall,
                )
                # the modeled-machine prediction is incommensurable with
                # real shard seconds; recording it would poison the
                # cost-model drift series with ~100% "residuals"
                predicted = None
                if self.telemetry.enabled:
                    self._record_shard_telemetry(shard_res)

            with tracer.span("balancer", state=self.balancer.state.value):
                outcome = self.balancer.end_of_step(tree, timing)
            lb_time += outcome.lb_time
            if outcome.rebuild_S is not None:
                self._needs_rebuild = True

            if self.telemetry.enabled:
                self._record_step_telemetry(predicted, timing)

        rec = StepRecord(
            step=self.step_index,
            compute_time=timing.compute_time,
            lb_time=lb_time,
            total_time=timing.compute_time + lb_time,
            S=self.balancer.S,
            state=outcome.state.value,
            cpu_time=timing.cpu_time,
            gpu_time=timing.gpu_time,
        )
        self.log.add(
            step=rec.step,
            compute_time=rec.compute_time,
            lb_time=rec.lb_time,
            total_time=rec.total_time,
            S=rec.S,
            state=rec.state,
            cpu_time=rec.cpu_time,
            gpu_time=rec.gpu_time,
            actions=";".join(outcome.actions),
            gpu_efficiency=timing.gpu_efficiency,
        )
        self.step_index += 1
        every = cfg.checkpoint_every
        if every is not None and self.step_index % every == 0:
            self.save_checkpoint(cfg.checkpoint_path)
        return rec

    # ---------------------------------------------------------- checkpointing
    def save_checkpoint(self, path: str) -> str:
        """Write ``{path}.npz`` + ``{path}.json`` capturing full world state.

        Enough for a bitwise-identical resume: particle arrays, the
        leapfrog's stored acceleration, the exact tree shape (surgery
        history is path-dependent), balancer state + observed
        coefficients, the executor's timing-noise RNG state, and a config
        fingerprint (see :mod:`repro.resilience.checkpoint`).
        """
        return write_checkpoint(self, path)

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        kernel: Kernel,
        machine: MachineSpec,
        *,
        config: SimulationConfig | None = None,
        telemetry: Telemetry | None = None,
        strict: bool = True,
    ) -> "Simulation":
        """Resume a checkpointed run; the continuation is bitwise identical
        to the uninterrupted trajectory.

        ``kernel``/``machine``/``config`` are re-supplied by the caller
        (code does not round-trip through a checkpoint); their fingerprint
        must match the one recorded at save time, else
        :class:`~repro.resilience.checkpoint.CheckpointError` is raised
        (``strict=False`` downgrades the mismatch to a continue-anyway).
        """
        data = read_checkpoint(path)
        man = data.manifest
        particles = ParticleSet(
            positions=data.arrays["positions"],
            velocities=data.arrays["velocities"],
            strengths=data.arrays["strengths"],
        )
        domain = Box(tuple(man["domain"]["center"]), float(man["domain"]["size"]))
        sim = cls(
            particles, kernel, machine,
            config=config, domain=domain, telemetry=telemetry,
        )
        fingerprint = config_fingerprint(
            sim.config, kernel, machine, particles.n, domain
        )
        if man["config_hash"] != fingerprint and strict:
            raise CheckpointError(
                f"checkpoint {path!r} was written under a different "
                "configuration (config/kernel/machine/body-count mismatch); "
                "resume with the original settings, or pass strict=False to "
                "continue anyway (the trajectory will diverge)"
            )
        sim.step_index = int(man["step_index"])
        sim._needs_rebuild = bool(man["needs_rebuild"])
        if "integrator_acc" in data.arrays:
            sim.integrator._acc = np.asarray(
                data.arrays["integrator_acc"], dtype=float
            )
        restore_balancer(sim.balancer, man["balancer"])
        sim.executor._rng.bit_generator.state = man["rng_state"]
        if man.get("tree") is not None:
            sim.tree = tree_from_state(
                sim.particles.positions, data.arrays, man["tree"]
            )
        return sim

    # ------------------------------------------------------------ telemetry
    def _record_step_telemetry(self, predicted, timing) -> None:
        """Feed one step into the drift tracker and headline metrics."""
        tel = self.telemetry
        tel.tracer.counter("S", self.balancer.S)
        tel.tracer.counter(
            "compute-time",
            timing.compute_time,
            cpu=timing.cpu_time,
            gpu=timing.gpu_time,
        )
        tel.metrics.counter("sim_steps_total", "time steps executed").inc()
        sample = tel.drift.observe(
            self.step_index,
            predicted=predicted,
            observed_cpu=timing.cpu_time,
            observed_gpu=timing.gpu_time,
            coeffs=self.balancer.coeffs,
        )
        if sample is not None:
            tel.tracer.counter("drift-residual", sample.residual)
        self._record_engine_telemetry(timing)

    def _record_engine_telemetry(self, timing) -> None:
        """Export the last engine run: real worker lanes next to the
        simulated scheduler's, and the runtime-model residual (simulated
        makespan vs. measured wall-clock)."""
        tel = self.telemetry
        res = self.solver.last_engine_result if self.solver is not None else None
        if res is None:
            return
        self.solver.last_engine_result = None
        report = critpath_analyze(res)
        self.last_critpath = report
        # overlay the critical chain on the same time window as the real
        # worker lanes (advance_cursor=False shares their batch base)
        rows, names = critical_path_timeline(report)
        tel.tracer.add_worker_lanes(
            rows,
            pid=REAL_PID,
            phase="critical_path",
            lane_names=names,
            advance_cursor=False,
        )
        tel.tracer.add_worker_lanes(
            res.timeline(), pid=REAL_PID, makespan=res.makespan, phase="engine"
        )
        rs = tel.drift.observe_runtime(
            self.step_index, simulated=timing.compute_time, measured=res.makespan
        )
        tel.metrics.gauge(
            "runtime_model_residual",
            "signed relative error of the simulated makespan vs the engine's "
            "measured wall-clock, (measured - simulated) / measured",
        ).set(rs.residual)
        tel.metrics.gauge(
            "runtime_engine_utilization",
            "busy-time / (makespan x workers) of the last engine run",
        ).set(res.utilization)
        self.executor.observe_real_registry(res.op_registry())

    def _record_shard_telemetry(self, res) -> None:
        """Export one sharded solve: per-shard Perfetto lanes (stage spans
        stacked per worker process) plus the busy-time imbalance gauge
        (halo traffic is in the ledger record's ``extra.shards``)."""
        tel = self.telemetry
        tel.tracer.add_worker_lanes(
            res.timeline(),
            pid=REAL_PID,
            makespan=res.wall,
            phase="shards",
            lane_names={s: f"shard-{s}" for s in range(res.n_shards)},
        )
        tel.metrics.gauge(
            "shard_imbalance",
            "max/mean shard busy time of the last sharded solve",
        ).set(res.imbalance)

    # ------------------------------------------------------------- summaries
    def summary(self) -> dict[str, float]:
        """Aggregates for Table II."""
        compute = float(np.sum(self.log.column("compute_time", 0.0)))
        lb = float(np.sum(self.log.column("lb_time", 0.0)))
        steps = max(1, len(self.log))
        return {
            "total_compute": compute,
            "total_lb": lb,
            "lb_pct_of_compute": 100.0 * lb / compute if compute else 0.0,
            "mean_total_per_step": (compute + lb) / steps,
            "n_steps": steps,
        }


def _default_domain(particles: ParticleSet) -> Box:
    """A cube 4x the initial bounding cube, centered on the bodies."""
    bb = bounding_box(particles.positions)
    return Box(bb.center, bb.size * 4.0)
