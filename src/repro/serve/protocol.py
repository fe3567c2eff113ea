"""Wire protocol of the simulation job server (JSON lines over TCP).

One request per line, one response per line, both UTF-8 JSON objects; a
connection may pipeline any number of requests and responses carry the
request ``id`` so a client can match them up.  The same dict shapes also
travel the in-process path (:meth:`repro.serve.server.JobServer.handle_request`),
so tests exercise the full protocol without sockets.

Request::

    {"id": 7, "kind": "solve" | "status",
     "tenant": "alice", "spec": {...SolveSpec fields...}}

Response::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": 429, "kind": "shed",
                                     "message": "...", "details": {...}}}

The error object is the structured 4xx/5xx surface the ISSUE calls for:
``code`` follows HTTP semantics (400 bad request, 408 deadline, 429
shed / tenant limit, 499 cancelled, 500 internal, 503 shutting down).

Arrays cross the wire as ``{"__ndarray__": {dtype, shape, data}}`` with
the raw little-endian bytes base64-encoded — *bitwise* faithful, which
is what lets the served-vs-direct identity tests assert
``np.array_equal`` down to the last ULP.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

__all__ = [
    "FrameTooLargeError",
    "ProtocolError",
    "ServeError",
    "SolveSpec",
    "decode_payload",
    "encode_payload",
    "read_message",
    "write_message",
]

#: request kinds the server dispatches
KINDS = ("solve", "status")

_KERNELS = ("laplace", "stokeslet")
_BACKENDS = ("cartesian", "spherical")


class ServeError(Exception):
    """A structured request failure (the 4xx/5xx family).

    Carried back to the client verbatim: ``code`` (HTTP-ish integer),
    ``kind`` (stable machine-readable slug, e.g. ``"shed"``), a
    human-readable ``message``, and free-form ``details``.
    """

    def __init__(
        self, code: int, kind: str, message: str, details: dict | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.message = message
        self.details = dict(details or {})

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "kind": self.kind,
            "message": self.message,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ServeError":
        return cls(
            int(d.get("code", 500)),
            str(d.get("kind", "internal")),
            str(d.get("message", "")),
            d.get("details") or {},
        )


class ProtocolError(ServeError):
    """A malformed request line (always code 400)."""

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(400, "bad-request", message, details)


class FrameTooLargeError(ServeError):
    """A request frame past ``max_frame_bytes`` (code 400).

    Raised by the server's bounded frame reader *instead of* buffering a
    hostile or buggy client's unbounded line into memory.  The reader
    drains the oversized line before raising, so the connection stays
    usable and the client receives this as a structured 400 with kind
    ``"frame-too-large"`` rather than a dropped socket.
    """

    def __init__(self, frame_bytes: int, max_frame_bytes: int) -> None:
        super().__init__(
            400,
            "frame-too-large",
            f"request frame exceeds max_frame_bytes={max_frame_bytes} "
            f"(received at least {frame_bytes} bytes with no newline)",
            details={
                "frame_bytes": int(frame_bytes),
                "max_frame_bytes": int(max_frame_bytes),
            },
        )


def _require_positive_finite(name: str, value: float) -> None:
    # ``json.loads`` yields NaN and Infinity, and ``nan <= 0`` is False
    if not 0 < value < math.inf:
        raise ProtocolError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SolveSpec:
    """What one solve request asks for.

    The workload is generated server-side from ``(n, seed)`` — a compact
    Plummer sphere in a canonical cubic domain of edge ``domain_size``
    centred on the origin — so a request is a few hundred bytes, results
    are exactly reproducible, and every tenant whose ``domain_size``
    agrees reads the same process-wide set of translation operators
    (they depend on the root cell size, not on the tree; see
    :class:`repro.expansions.operators.OperatorStore`).

    A request is one field solve: potential + gradient for
    ``kernel="laplace"`` (:class:`repro.fmm.evaluator.FMMSolver`),
    velocities for ``kernel="stokeslet"`` (the composite solver: one
    far-field pass of four charge channels).

    ``deadline_s`` is the per-request wall-clock budget: its clock runs
    from enqueue through tree build, lists, operator geometry and every
    stage of the sweep; expiry returns a
    structured 408 whose ``details.phase`` names the stage that noticed,
    and the server stays healthy.  A deadline does not change *how* the
    request is solved.

    A served request always runs the exact serial sweep (no engine; its
    near-field chunks are claimed by the solver thread and the process-wide
    helpers on the CPUs no other solve in flight holds): the server's
    parallelism is *across* requests, one solver thread per pool slot.  A spec therefore names no back end — ``workers`` or ``shards``
    is an unknown field, which :meth:`from_dict` rejects with a 400 — and
    no time stepping: ``steps`` and ``dt`` are unknown fields too.
    """

    kernel: str = "laplace"
    n: int = 1000
    seed: int = 0
    order: int = 3
    backend: str = "cartesian"
    deadline_s: float | None = None
    domain_size: float = 1.0

    def validate(self) -> "SolveSpec":
        """Eager one-line errors for every rejectable field."""
        if self.kernel not in _KERNELS:
            raise ProtocolError(
                f"kernel must be one of {_KERNELS}, got {self.kernel!r}"
            )
        if self.backend not in _BACKENDS:
            raise ProtocolError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if not 1 <= int(self.n) <= 1_000_000:
            raise ProtocolError(f"n must be in [1, 1000000], got {self.n}")
        if not 1 <= int(self.order) <= 10:
            raise ProtocolError(f"order must be in [1, 10], got {self.order}")
        if self.deadline_s is not None:
            _require_positive_finite("deadline_s", self.deadline_s)
        _require_positive_finite("domain_size", self.domain_size)
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "SolveSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ProtocolError(
                f"unknown spec field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        try:
            spec = cls(**d)
        except TypeError as exc:
            raise ProtocolError(f"bad spec: {exc}") from exc
        return spec.validate()

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# --------------------------------------------------------------- array codec


def _encode_array(a: np.ndarray) -> dict[str, Any]:
    a = np.ascontiguousarray(a)
    return {
        "__ndarray__": {
            "dtype": a.dtype.str,  # includes byte order, e.g. "<f8"
            "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii"),
        }
    }


def _decode_array(d: dict[str, Any]) -> np.ndarray:
    meta = d["__ndarray__"]
    raw = base64.b64decode(meta["data"])
    return np.frombuffer(raw, dtype=np.dtype(meta["dtype"])).reshape(
        meta["shape"]
    ).copy()


def encode_payload(obj: Any) -> Any:
    """Recursively replace ndarrays with their wire form."""
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: encode_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_payload(v) for v in obj]
    return obj


def decode_payload(obj: Any) -> Any:
    """Inverse of :func:`encode_payload` (bitwise round trip)."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return _decode_array(obj)
        return {k: decode_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(v) for v in obj]
    return obj


# ------------------------------------------------------------- line framing


def write_message(obj: dict) -> bytes:
    """One protocol message as a newline-terminated JSON byte string."""
    return (json.dumps(encode_payload(obj), separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def read_message(line: bytes | str) -> dict:
    """Parse one protocol line; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return decode_payload(obj)


def parse_request(obj: dict) -> tuple[Any, str, str, SolveSpec | None]:
    """Validate one request dict -> ``(id, kind, tenant, spec|None)``."""
    rid = obj.get("id")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ProtocolError(f"kind must be one of {KINDS}, got {kind!r}")
    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
    spec = None
    if kind == "solve":
        raw = obj.get("spec", {})
        if not isinstance(raw, dict):
            raise ProtocolError(f"spec must be an object, got {type(raw).__name__}")
        spec = SolveSpec.from_dict(raw)
    return rid, kind, tenant, spec
