"""Simulation-as-a-service: the ``python -m repro serve`` subsystem.

An asyncio front end multiplexing many tenants' solve requests onto
``pool_size`` solver threads (one per pool slot) in one warm process,
with three load-bearing guarantees:

* **fairness** — per-tenant FIFO queues started round-robin
  (:mod:`repro.serve.scheduler`), and one per-request deadline whose
  clock covers queue wait, tree and list build and the sweep itself
  (:class:`repro.util.timing.Deadline`);
* **warmth** — one immutable set of translation operators per
  ``(backend, order, domain_size)``, assembled once per process and read
  by every tenant's requests
  (:class:`~repro.expansions.operators.OperatorStore`), making warm solves
  cheaper than cold ones while staying bitwise identical to direct runs;
* **honesty under load** — cost-model admission control sheds work with
  a structured 429 before it queues (priced from served walls), instead
  of letting latency collapse for everyone.

See DESIGN.md §15 and the README "Serving" quickstart.
"""

from repro.serve.client import BackgroundServer, ServeClient
from repro.serve.protocol import ProtocolError, ServeError, SolveSpec
from repro.serve.scheduler import CostModelGovernor, FairScheduler
from repro.serve.server import JobServer, ServeConfig, main, solve_direct

__all__ = [
    "BackgroundServer",
    "CostModelGovernor",
    "FairScheduler",
    "JobServer",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SolveSpec",
    "main",
    "solve_direct",
]
