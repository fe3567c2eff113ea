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

import math
from dataclasses import dataclass, field

import numpy as np

from repro.balance.config import BalancerConfig
from repro.balance.controller import DynamicLoadBalancer
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
from repro.resilience.guardrails import check_finite
from repro.runtime.engine import ExecutionEngine, default_workers
from repro.sim.integrators import LeapfrogIntegrator, reflect_into_box
from repro.tree.cache import ListCache
from repro.tree.octree import AdaptiveOctree
from repro.util.records import EventLog
from repro.util.timing import TimerRegistry

__all__ = ["Simulation", "SimulationConfig", "StepRecord"]


@dataclass(frozen=True)
class SimulationConfig:
    """Driver configuration."""

    dt: float = 1e-3
    order: int = 3
    #: "fmm" computes forces through the FMM; "direct" uses exact summation
    #: (identical balancer behaviour, cheaper wall-clock for large sweeps)
    forces: str = "fmm"
    #: balancer strategy: "static" (1), "enforce" (2), "full" (3)
    strategy: str = "full"
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    seed: int = 0
    #: execution-engine worker threads for the numeric FMM solves:
    #: ``None`` = one per usable CPU, ``1`` = no engine: the exact serial
    #: sweeps (in order, their bits; the near-field tiles still run claimed
    #: on every usable CPU, DESIGN.md section 7)
    n_workers: int | None = None
    #: write a checkpoint every K steps (None = disabled; must be > 0)
    checkpoint_every: int | None = None
    #: checkpoint stem; files land at ``{stem}.npz`` + ``{stem}.json``
    checkpoint_path: str = "checkpoint"
    #: append a flight-recorder RunRecord here on close (None = disabled;
    #: "auto" = the repo-root ``RUNS.jsonl`` / ``$REPRO_LEDGER``)
    ledger_path: str | None = None

    def __post_init__(self) -> None:
        # ``nan <= 0`` is False: the bounds are stated so NaN fails them
        if not 0 < self.dt < math.inf:
            raise ValueError(
                f"dt must be a positive, finite time step, got {self.dt}"
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
            seed=self.config.seed,
            list_cache=self.list_cache,
            telemetry=self.telemetry,
        )
        self.balancer = DynamicLoadBalancer(
            self.executor,
            config=self.config.balancer,
            mode=self.config.strategy,
        )
        #: thread-pool engine for the numeric solves (None when the config
        #: resolves to 1 worker or forces are direct-summed)
        self.engine = None
        if self.config.forces == "fmm":
            n_workers = self.config.n_workers or default_workers()
            if n_workers > 1:
                self.engine = ExecutionEngine(n_workers)
        self.solver = (
            FMMSolver(
                kernel,
                order=self.config.order,
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
        #: ``tree.generation`` right after the last post-drift refit
        self._fitted_generation: int | None = None
        self._closed = False
        #: critical-path report of the most recent engine run (telemetry on)
        self.last_critpath = None
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
        coefficients, balancer decision summary, the prediction residuals
        of every step (telemetry on or off), engine utilization + critical
        path, and Table-II style aggregates.
        """
        from repro.obs.ledger import RunLedger, RunRecord

        target = path if path is not None else self.config.ledger_path
        if target in (None, "auto"):
            target = None  # RunLedger falls back to the default location
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
        }
        balancer = self.balancer.decision_summary()
        drift = balancer.pop("drift")
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
                **balancer,
                "coefficients": self.balancer.coeffs.as_dict(),
            },
            engine=(
                self.last_critpath.summary_for_ledger()
                if self.last_critpath is not None
                else {}
            ),
            drift=drift,
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
            res = self.solver.solve(
                tree, q, gradient=True, potential=False, lists=lists
            )
            acc = res.gradient
            if not check_finite(acc):
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
    def _ensure_tree(self) -> None:
        """(Re)build or refit the tree.

        The previous step's post-drift refit already fitted the tree to
        these positions; unless something touched the tree since (surgery,
        Enforce_S, a rebuild, a resume: each moves or drops the stamp), a
        second refit would only repeat it.
        """
        if self.tree is None or self._needs_rebuild:
            self.tree = AdaptiveOctree(
                self.particles.positions, self.balancer.S, root_box=self.domain
            )
            self._needs_rebuild = False
            self._fitted_generation = None
        elif self.tree.generation != self._fitted_generation:
            self.tree.points = self.particles.positions
            self.tree.refit()

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
                self._ensure_tree()
                tree = self.tree
                lists = self.list_cache.get(tree)

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
                self._fitted_generation = tree.generation
                # refit kept the shape, so this lookup is a cache hit, not a
                # rebuild
                lists_after = self.list_cache.get(tree) if self.solver else None
                acc_new = self._accelerations(tree, lists_after)
                self.integrator.finish_step(self.particles.velocities, acc_new)

            with tracer.span("balancer", state=self.balancer.state.value):
                outcome = self.balancer.end_of_step(tree, timing)
            if outcome.rebuild_S is not None:
                self._needs_rebuild = True

            if self.telemetry.enabled:
                self._record_telemetry(timing)

        rec = StepRecord(
            step=self.step_index,
            compute_time=timing.compute_time,
            lb_time=outcome.lb_time,
            total_time=timing.compute_time + outcome.lb_time,
            S=self.balancer.S,
            state=outcome.state.value,
            cpu_time=timing.cpu_time,
            gpu_time=timing.gpu_time,
        )
        self.log.add(
            **vars(rec),
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
        sim.balancer._decision_step = sim.step_index  # records keep step numbers
        sim.executor._rng.bit_generator.state = man["rng_state"]
        if man.get("tree") is not None:
            sim.tree = tree_from_state(
                sim.particles.positions, data.arrays, man["tree"]
            )
        return sim

    # ------------------------------------------------------------ telemetry
    def _record_telemetry(self, timing) -> None:
        """Mirror one step into the trace and metrics: its S, compute time
        and prediction residual (read off the balancer's decision record),
        then the last engine run's real worker lanes and critical path next
        to the simulated scheduler's."""
        tel = self.telemetry
        tel.tracer.counter("S", self.balancer.S)
        tel.tracer.counter(
            "compute-time",
            timing.compute_time,
            cpu=timing.cpu_time,
            gpu=timing.gpu_time,
        )
        tel.metrics.counter("sim_steps_total", "time steps executed").inc()
        residual = self.balancer.decisions[-1]["residual"]
        if residual is not None:
            tel.tracer.counter("drift-residual", residual)
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
        tel.metrics.gauge(
            "runtime_engine_utilization",
            "busy-time / (makespan x workers) of the last engine run",
        ).set(res.utilization)

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
