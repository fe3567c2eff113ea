"""Append-only run ledger: the repo's flight recorder across processes.

Every interesting run — a driver simulation, a ``python -m repro trace``
invocation, a served solve — appends one structured :class:`RunRecord`
as a single JSON line.  Unlike the tracer and metrics registry (which
evaporate at process exit), the ledger is durable: a later process
reads back what past runs measured and decided with
:meth:`RunLedger.records`.

Design constraints:

* **append-only JSONL** — one record per line, written with a single
  ``write()`` call so concurrent appenders (pytest workers, server
  threads) interleave at line granularity, never mid-record;
* **self-describing** — each record carries a ``schema`` version, the
  git revision, an ISO-8601 UTC timestamp, and a machine spec with the
  *affinity-aware* CPU count (``os.sched_getaffinity``: what the
  container may actually use, not what the host owns) and the P2P body
  that made the numbers (``p2p_kernel``: the compiled loop or its NumPy
  fallback, ~2x apart on the near field), because perf numbers are only
  comparable between like machines;
* **tolerant reader** — corrupt or foreign lines are skipped, not
  fatal, so a truncated file still yields its good records.

The default ledger lives at ``RUNS.jsonl`` in the repository root (or
``$REPRO_LEDGER`` when set).  It is a local file, not part of the
checkout: every run that writes it appends to it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterator

__all__ = [
    "LEDGER_ENV",
    "RunLedger",
    "RunRecord",
    "default_ledger_path",
    "git_rev",
    "machine_spec",
]

#: environment variable overriding the default ledger location
LEDGER_ENV = "REPRO_LEDGER"

#: current RunRecord schema version
SCHEMA_VERSION = 1


def machine_spec() -> dict[str, Any]:
    """A comparable description of the executing machine.

    ``cpu_available`` is the affinity-aware count — the CPUs this
    process may be scheduled on — which on pinned CI runners and cgroup
    containers is what actually bounds parallel speedup (a host
    ``os.cpu_count()`` of 64 means nothing inside a 1-CPU cgroup).
    ``p2p_kernel`` is :func:`repro.kernels.p2p_backend` — whether this
    process runs the compiled library, which holds both the near field and
    the far field's leaf stages, or their NumPy bodies — with the compiler
    that built it and ``p2p_isa``, the near-field clone the host runs
    (``"avx2"`` or ``"baseline"``), when native (the key keeps its name,
    so older ledger records still read alike).
    """
    from repro.kernels import _native
    from repro.runtime.engine import default_workers

    lib = _native.library()
    return {
        "cpu_available": default_workers(),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "p2p_kernel": _native.p2p_backend(),
        **({} if lib is None else {"p2p_compiler": lib.compiler, "p2p_isa": lib.isa}),
    }


def git_rev(cwd: str | None = None) -> str:
    """Short git revision of ``cwd`` (or CWD); ``"unknown"`` off-repo.

    Asked once per process and directory: every :class:`RunRecord` stamps
    itself with it, and a served request must not pay a ``git`` fork.
    """
    return _git_rev(os.path.abspath(cwd or os.getcwd()))


@functools.lru_cache(maxsize=None)
def _git_rev(cwd: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def default_ledger_path() -> str:
    """``$REPRO_LEDGER`` when set, else ``RUNS.jsonl`` in the repo root.

    The repo root is found by walking up from this file; when the
    package is installed outside a checkout the current directory is
    used, which is the right behaviour for ad-hoc CLI runs.
    """
    env = os.environ.get(LEDGER_ENV)
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    probe = here
    for _ in range(8):
        if os.path.isdir(os.path.join(probe, ".git")) or os.path.isfile(
            os.path.join(probe, "ROADMAP.md")
        ):
            return os.path.join(probe, "RUNS.jsonl")
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return os.path.join(os.getcwd(), "RUNS.jsonl")


@dataclass
class RunRecord:
    """One ledger entry: what a run was and what it measured.

    ``bench`` is the logical name records of the same experiment share
    (``"simulation"`` for a driver run, ``"serve"`` for a served solve);
    ``kind`` is ``"run"`` for both (older records, written by benchmark
    gates, say ``"bench"``).  All payload sections are free-form
    dicts — the ledger is a recorder, not a validator — but the driver
    and the server populate them consistently:

    * ``metrics`` — scalar results (timings in ms, speedups, rates);
    * ``timers`` — per-op wall totals from the
      :class:`~repro.util.timing.TimerRegistry`;
    * ``balancer`` — state transitions, S decisions, action counts;
    * ``engine`` — utilization, queue wait, ready-queue depth;
    * ``drift`` — cost-model residual summaries;
    * ``extra`` — anything else (config knobs, shard and serve detail).
    """

    bench: str
    kind: str = "run"
    ts: str = ""
    git_rev: str = ""
    config_hash: str = ""
    machine: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    timers: dict[str, Any] = field(default_factory=dict)
    balancer: dict[str, Any] = field(default_factory=dict)
    engine: dict[str, Any] = field(default_factory=dict)
    drift: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def stamp(self) -> "RunRecord":
        """Fill timestamp / git revision / machine spec when unset."""
        if not self.ts:
            self.ts = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if not self.git_rev:
            self.git_rev = git_rev()
        if not self.machine:
            self.machine = machine_spec()
        return self

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        kept = {k: v for k, v in data.items() if k in known}
        extra_keys = {k: v for k, v in data.items() if k not in known}
        rec = cls(**kept)
        if extra_keys:
            # forward-compat: unknown top-level fields ride in `extra`
            rec.extra = {**rec.extra, **extra_keys}
        return rec


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path or default_ledger_path()

    # ---------------------------------------------------------------- write
    def append(self, record: RunRecord) -> RunRecord:
        """Stamp and persist one record; returns it for chaining."""
        record.stamp()
        line = record.to_json()
        parent = os.path.dirname(os.path.abspath(self.path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return record

    # ----------------------------------------------------------------- read
    def _iter_lines(self) -> Iterator[str]:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line

    def records(self) -> list[RunRecord]:
        """All parseable records in file (= chronological append) order."""
        out: list[RunRecord] = []
        for line in self._iter_lines():
            try:
                data = json.loads(line)
            except ValueError:
                continue  # torn write / foreign line: skip, don't fail
            if isinstance(data, dict) and data.get("bench"):
                try:
                    out.append(RunRecord.from_dict(data))
                except TypeError:
                    continue
        return out

    def __len__(self) -> int:
        return len(self.records())
