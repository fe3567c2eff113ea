"""``python -m repro trace`` — run a short simulation with full telemetry.

Produces three artifacts next to ``--out`` (default ``trace.json``):

* ``trace.json`` — Chrome trace-event JSON.  Open it at
  https://ui.perfetto.dev (or ``chrome://tracing``): the "repro (wall
  clock)" process shows the nested per-step spans (tree build, far field,
  near field, physics, balancer); the "simulated scheduler" process shows
  every simulated CPU worker's task lane, step after step.
* ``trace.metrics.json`` — a JSON snapshot of every counter and gauge
  (balancer transitions, ListCache hits/builds, coefficient gauges) plus
  the balancer's record as ``drift``: the run's residual summary, each
  step's predicted beside observed times, and coefficient trajectories.
* ``trace.steps.jsonl`` — the per-step simulation log as JSON Lines, one
  object per time step (the Fig. 8/9 raw columns).

The run itself is the §IX-A workload at reduced scale: a hot compact
Plummer sphere evolving under the full three-state balancer.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.balance.config import BalancerConfig
from repro.distributions.generators import compact_plummer
from repro.kernels.laplace import GravityKernel
from repro.machine.spec import system_a
from repro.obs import Telemetry
from repro.sim.driver import Simulation, SimulationConfig

__all__ = ["run", "main", "report_main"]


def run(
    *,
    n: int = 2000,
    steps: int = 30,
    dt: float = 1e-4,
    order: int = 3,
    n_cores: int = 10,
    n_gpus: int = 4,
    seed: int = 0,
    strategy: str = "full",
    forces: str = "direct",
    velocity_scale: float = 1.5,
    workers: int | None = 1,
    checkpoint_every: int | None = None,
    checkpoint: str = "checkpoint",
    resume: str | None = None,
    ledger: str | None = None,
) -> tuple[Simulation, Telemetry]:
    """Run ``steps`` time steps of the §IX-A workload with telemetry on.

    ``workers`` sets the execution-engine thread count for the numeric
    FMM solves (``--workers`` on the CLI): ``1`` is the serial path, more
    runs the real task-graph engine and adds "real workers" lanes and the
    critical path to the trace; only meaningful with ``forces="fmm"``.

    ``checkpoint_every`` (``--checkpoint-every K``) writes
    ``{checkpoint}.npz`` + ``{checkpoint}.json`` every K steps;
    ``resume`` (``--resume STEM``) restores from such a checkpoint and
    advances ``steps`` *further* steps, bitwise identical to the
    uninterrupted trajectory (DESIGN.md §11).  The resuming invocation
    must use the same physics settings (n/dt/order/seed/...) — a config
    fingerprint mismatch is rejected with an explanatory error.
    """
    if workers is not None and workers < 1:
        raise ValueError(
            f"--workers must be >= 1 (1 = exact serial path), got {workers}"
        )
    telemetry = Telemetry()
    kernel = GravityKernel(G=1.0, softening=1e-3)
    machine = system_a().with_resources(n_cores=n_cores, n_gpus=n_gpus)
    config = SimulationConfig(
        dt=dt,
        order=order,
        forces=forces,
        strategy=strategy,
        balancer=BalancerConfig(s_min=8, s_max=4096),
        seed=seed,
        n_workers=workers,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint,
        ledger_path=None if ledger in (None, "none", "off") else ledger,
    )
    if resume is not None:
        sim = Simulation.from_checkpoint(
            resume, kernel, machine, config=config, telemetry=telemetry
        )
    else:
        particles = compact_plummer(
            n, seed=seed, total_mass=1.0, velocity_scale=velocity_scale
        )
        sim = Simulation(
            particles, kernel, machine, config=config, telemetry=telemetry
        )
    with sim:
        sim.run(steps)
    return sim, telemetry


def write_artifacts(sim: Simulation, telemetry: Telemetry, out: str) -> dict[str, str]:
    """Write trace + metrics + step-log artifacts; returns their paths."""
    trace_path = Path(out)
    metrics_path = trace_path.with_suffix(".metrics.json")
    steps_path = trace_path.with_suffix(".steps.jsonl")

    telemetry.tracer.write(str(trace_path))
    snapshot = {
        "metrics": telemetry.metrics.snapshot(),
        "drift": drift_record(sim.balancer),
    }
    metrics_path.write_text(json.dumps(snapshot, indent=2), encoding="utf-8")
    steps_path.write_text(sim.log.to_jsonl() + "\n", encoding="utf-8")
    return {
        "trace": str(trace_path),
        "metrics": str(metrics_path),
        "steps": str(steps_path),
    }


def drift_record(balancer) -> dict:
    """The balancer's decision record as Figs. 8–9 read it: the run's
    residual summary, per-step predicted vs. observed times, and the
    coefficient trajectories (the rows cover the decisions the balancer
    keeps, its last 512 steps; the summary covers every step)."""
    steps, coefficients = [], {}
    for dec in balancer.decisions:
        for op, value in dec["coeffs"].items():
            if value > 0.0:
                coefficients.setdefault(op, []).append(
                    {"step": dec["step"], "value": value}
                )
        if dec["predicted"] is not None:
            steps.append(
                {
                    "step": dec["step"],
                    "predicted_cpu": dec["predicted"]["cpu"],
                    "predicted_gpu": dec["predicted"]["gpu"],
                    "observed_cpu": dec["cpu"],
                    "observed_gpu": dec["gpu"],
                    "residual": dec["residual"],
                    "imbalance": abs(dec["cpu"] - dec["gpu"]),
                }
            )
    return {
        "summary": balancer.decision_summary()["drift"],
        "steps": steps,
        "coefficients": coefficients,
    }


def main(**kwargs) -> dict[str, str]:
    out = kwargs.pop("out", "trace.json")
    kwargs.setdefault("ledger", "auto")  # the CLI records itself by default
    sim, telemetry = run(**kwargs)
    paths = write_artifacts(sim, telemetry, out)
    drift = sim.balancer.decision_summary()["drift"]
    print(f"wrote {paths['trace']} ({len(telemetry.tracer)} events)")
    print(f"wrote {paths['metrics']} ({len(telemetry.metrics)} metrics)")
    print(f"wrote {paths['steps']} ({len(sim.log)} steps)")
    print(
        "cost-model drift: "
        f"{drift['n_predicted_steps']} predicted steps, "
        f"mean |residual| {drift['mean_abs_residual']:.3%}, "
        f"max {drift['max_abs_residual']:.3%}"
    )
    print("open the trace at https://ui.perfetto.dev")
    return paths


def report_main(
    *,
    n: int = 50000,
    steps: int = 1,
    workers: int = 4,
    seed: int = 0,
    out: str | None = None,
    ledger: str | None = "none",
    **kwargs,
) -> "object":
    """``python -m repro report`` — why was this step slow?

    Runs ``steps`` instrumented FMM steps of an ``n``-body Plummer
    workload through the real thread-pool engine and prints the
    critical-path analysis of the last step: the critical chain, per-
    stage slack, and worker idle attribution (see
    :mod:`repro.obs.critpath`).  ``--out report.json`` additionally
    writes the full report as JSON; ``--ledger auto`` appends the run to
    the flight-recorder ledger.
    """
    if workers < 2:
        raise ValueError(
            f"--workers must be >= 2 for a critical path (got {workers}); "
            "the serial path has a single lane and no queue waits"
        )
    sim, telemetry = run(
        n=n, steps=steps, workers=workers, seed=seed,
        forces="fmm", ledger=ledger, **kwargs,
    )
    report = sim.last_critpath
    if report is None:  # pragma: no cover - engine always ran with workers>=2
        raise RuntimeError("no engine run was recorded; nothing to report")
    print(report.to_text())
    if out:
        Path(out).write_text(
            json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"\nwrote {out}")
    return report

