"""Small shared utilities: RNG construction, timers, and event logging.

Nothing in this package knows about the FMM; it exists so that every other
subpackage can share deterministic randomness and consistent timing
conventions.
"""

from repro.util.rng import default_rng
from repro.util.timing import OpTimer, TimerRegistry
from repro.util.records import EventLog, Record

__all__ = [
    "default_rng",
    "OpTimer",
    "TimerRegistry",
    "EventLog",
    "Record",
]
