"""Cost-model drift tracking: predicted vs. observed step times (§IV-D).

The balancer's entire premise is that §IV-D's observed coefficients make
``max(T_CPU, T_GPU)`` predictable *one step ahead*.  This module records,
per step, exactly the quantities Figs. 8–9 are made of:

* the **prediction** made from the *previous* steps' coefficients applied
  to the current tree's op counts (what the balancer believed);
* the **observation** the executor actually produced;
* the signed relative **residual** of the compute time — positive means
  the model under-predicted (the workload drifted heavier than the
  coefficients knew);
* the CPU/GPU **imbalance** ``|T_CPU - T_GPU|`` the balancer is trying to
  close;
* the per-op **coefficient trajectory**, so one can see *which*
  coefficient drifted when the residual spikes;
* the **runtime-model residual** — when the real execution engine runs a
  step, the simulated scheduler's makespan vs. the engine's measured
  wall-clock makespan, i.e. how honest the machine model's worker lanes
  are against actual threads.

A tracker is passive storage plus summary math; the simulation driver
feeds it (see :meth:`repro.sim.driver.Simulation.step`) and mirrors the
headline numbers into metrics gauges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import TimePrediction
from repro.util.records import EventLog

__all__ = ["DriftSample", "DriftTracker", "RuntimeSample"]


@dataclass(frozen=True)
class DriftSample:
    """One step's predicted-vs-observed comparison."""

    step: int
    predicted_cpu: float
    predicted_gpu: float
    observed_cpu: float
    observed_gpu: float

    @property
    def predicted_compute(self) -> float:
        return max(self.predicted_cpu, self.predicted_gpu)

    @property
    def observed_compute(self) -> float:
        return max(self.observed_cpu, self.observed_gpu)

    @property
    def residual(self) -> float:
        """Signed relative error of the compute-time prediction.

        ``(observed - predicted) / observed``: +0.10 means the model
        under-predicted by 10% of the realized time.  Degenerate inputs
        are guarded: a zero observed time (nothing to normalize by) and
        NaN/Inf on either side both yield 0.0 rather than poisoning the
        summary means.
        """
        obs, pred = self.observed_compute, self.predicted_compute
        if obs == 0.0 or not math.isfinite(obs) or not math.isfinite(pred):
            return 0.0
        return (obs - pred) / obs

    @property
    def imbalance(self) -> float:
        gap = abs(self.observed_cpu - self.observed_gpu)
        return gap if math.isfinite(gap) else 0.0


@dataclass(frozen=True)
class RuntimeSample:
    """Simulated-scheduler makespan vs. the engine's measured one."""

    step: int
    simulated: float  # simulated makespan, seconds
    measured: float  # engine wall-clock makespan, seconds

    @property
    def residual(self) -> float:
        """Signed relative error, ``(measured - simulated) / measured``.

        Zero or non-finite inputs yield 0.0 (same guard rationale as
        :attr:`DriftSample.residual`)."""
        if (
            self.measured == 0.0
            or not math.isfinite(self.measured)
            or not math.isfinite(self.simulated)
        ):
            return 0.0
        return (self.measured - self.simulated) / self.measured


class DriftTracker:
    """Accumulates :class:`DriftSample` rows and coefficient trajectories."""

    def __init__(self) -> None:
        self.samples: list[DriftSample] = []
        #: op -> list of (step, coefficient) pairs, appended when observed
        self.coefficient_history: dict[str, list[tuple[int, float]]] = {}
        #: steps where no prediction existed yet (coefficients not ready)
        self.unpredicted_steps = 0
        #: simulated-vs-measured makespan rows (engine-backed steps only)
        self.runtime_samples: list[RuntimeSample] = []

    # ------------------------------------------------------------- feeding
    def observe(
        self,
        step: int,
        *,
        predicted: TimePrediction | None,
        observed_cpu: float,
        observed_gpu: float,
        coeffs: ObservedCoefficients | None = None,
    ) -> DriftSample | None:
        """Record one step.  ``predicted=None`` (warm-up steps before the
        coefficients are ready) counts the step but produces no sample."""
        if coeffs is not None:
            for op, value in coeffs.as_dict().items():
                if value > 0.0:
                    self.coefficient_history.setdefault(op, []).append((step, value))
        if predicted is None:
            self.unpredicted_steps += 1
            return None
        sample = DriftSample(
            step=step,
            predicted_cpu=predicted.cpu_time,
            predicted_gpu=predicted.gpu_time,
            observed_cpu=observed_cpu,
            observed_gpu=observed_gpu,
        )
        self.samples.append(sample)
        return sample

    def observe_runtime(
        self, step: int, *, simulated: float, measured: float
    ) -> RuntimeSample:
        """Record one engine-backed step's simulated vs. measured makespan."""
        sample = RuntimeSample(step=step, simulated=simulated, measured=measured)
        self.runtime_samples.append(sample)
        return sample

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        return len(self.samples)

    def summary(self) -> dict[str, float]:
        """Headline drift statistics over all predicted steps."""
        n = len(self.samples)
        nr = len(self.runtime_samples)
        runtime_residual = (
            sum(abs(s.residual) for s in self.runtime_samples) / nr if nr else 0.0
        )
        if n == 0:
            return {
                "n_predicted_steps": 0,
                "n_unpredicted_steps": self.unpredicted_steps,
                "mean_abs_residual": 0.0,
                "max_abs_residual": 0.0,
                "mean_residual": 0.0,
                "mean_imbalance": 0.0,
                "n_runtime_steps": nr,
                "runtime_model_residual": runtime_residual,
            }
        residuals = [s.residual for s in self.samples]
        return {
            "n_predicted_steps": n,
            "n_unpredicted_steps": self.unpredicted_steps,
            "mean_abs_residual": sum(abs(r) for r in residuals) / n,
            "max_abs_residual": max(abs(r) for r in residuals),
            "mean_residual": sum(residuals) / n,
            "mean_imbalance": sum(s.imbalance for s in self.samples) / n,
            "n_runtime_steps": nr,
            "runtime_model_residual": runtime_residual,
        }

    def to_eventlog(self) -> EventLog:
        """Per-step rows (the Fig. 8/9 raw material) as an EventLog."""
        log = EventLog()
        for s in self.samples:
            log.add(
                step=s.step,
                predicted_cpu=s.predicted_cpu,
                predicted_gpu=s.predicted_gpu,
                predicted_compute=s.predicted_compute,
                observed_cpu=s.observed_cpu,
                observed_gpu=s.observed_gpu,
                observed_compute=s.observed_compute,
                residual=s.residual,
                imbalance=s.imbalance,
            )
        return log

    def as_dict(self) -> dict:
        """JSON-able form: summary + per-step samples + trajectories."""
        return {
            "summary": self.summary(),
            "steps": [
                {
                    "step": s.step,
                    "predicted_cpu": s.predicted_cpu,
                    "predicted_gpu": s.predicted_gpu,
                    "observed_cpu": s.observed_cpu,
                    "observed_gpu": s.observed_gpu,
                    "residual": s.residual,
                    "imbalance": s.imbalance,
                }
                for s in self.samples
            ],
            "coefficients": {
                op: [{"step": st, "value": v} for st, v in series]
                for op, series in self.coefficient_history.items()
            },
            "runtime": [
                {
                    "step": s.step,
                    "simulated": s.simulated,
                    "measured": s.measured,
                    "residual": s.residual,
                }
                for s in self.runtime_samples
            ],
        }
