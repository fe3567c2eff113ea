"""Resilience subsystem (DESIGN.md §11).

Three layers over the supervised execution engine
(:mod:`repro.runtime.engine`):

* :mod:`repro.resilience.faults` — a seeded, deterministic chaos harness
  (:class:`FaultPlan`) that injects raises, delays, and NaNs into named
  engine tasks through the engine's test-only ``fault_hook``;
* :mod:`repro.resilience.guardrails` — the cheap NaN/Inf health check
  the driver runs on every FMM acceleration array;
* :mod:`repro.resilience.checkpoint` — versioned ``.npz`` + json
  simulation checkpoints with a config-compatibility hash, enabling
  bitwise-identical resume of a killed run.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointData,
    CheckpointError,
    config_fingerprint,
    read_checkpoint,
    tree_from_state,
    tree_state_arrays,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.guardrails import check_finite

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointData",
    "CheckpointError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "check_finite",
    "config_fingerprint",
    "read_checkpoint",
    "tree_from_state",
    "tree_state_arrays",
    "write_checkpoint",
]
