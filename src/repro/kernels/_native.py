"""Build-on-first-use loader of the compiled P2P kernel (``_p2p.c``).

The library has two entry points over one row loop: ``p2p_blocks``
(:meth:`P2PLibrary.pairwise`, dense ``(G, T, 3)`` x ``(G, S, 3)`` blocks)
and ``p2p_tiles`` (:meth:`P2PLibrary.near_tiles`, near-field tiles read
from the plan's index arrays in place and written to the body rows by
index).  Neither is handed a pointer before its shapes and indices are
checked here.

:func:`library` compiles the C source beside this file the first time a
Laplace block is evaluated — never at import — at most once per (source,
flags, compiler version) into a cache: ``__pycache__`` beside the source
when that is writable, else a 0700 per-user directory whose ownership is
checked before anything in it is loaded.  The build lands in a temporary
directory and is renamed into place, so two processes racing the first
compile both end with a loadable file.  No compiler, no source (a wheel
shipped without it) or a failed build resolve to ``None``, and
:class:`~repro.kernels.laplace.LaplaceKernel` runs its NumPy bodies.

There is no switch: the answer is resolved once per process and kept in
``_library`` (tests patch that attribute).  A shard worker does not resolve
— it :func:`adopt`\\ s the path its parent pickled into the plan, or
``None``, so a session's processes always run the same code.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from ctypes import CDLL, c_double, c_int, c_long, c_void_p
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("_p2p.c")
#: ``-ffp-contract=off``: the bits are those of the source's operations on
#: every target.  No ``-march``: the loop is sqrt + divide bound (<= 5%).
_FLAGS = ("-O3", "-fopenmp-simd", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC")
_UNRESOLVED = object()
_library = _UNRESOLVED  # P2PLibrary | None once resolved
_lock = threading.Lock()


class P2PLibrary(NamedTuple):
    blocks: object  # the ``p2p_blocks`` entry point
    tiles: object  # the ``p2p_tiles`` entry point
    path: str
    compiler: str  # first line of ``cc --version`` ("" in a worker)

    def pairwise(self, t, s, q, eps2, diagonal, potential, gradient):
        """``(pot (G, T, 1) | None, grad (G, T, 3) | None)`` of float64
        ``(G, T, 3)`` x ``(G, S, 3)`` blocks with ``(G, S)`` strengths."""
        t, s, q = (np.ascontiguousarray(a, dtype=float) for a in (t, s, q))
        n_groups, nt, ns = *t.shape[:2], s.shape[1]
        if (t.shape, s.shape, q.shape) != ((n_groups, nt, 3), (n_groups, ns, 3), (n_groups, ns)):
            raise ValueError(f"blocks do not match: {t.shape} x {s.shape}, strengths {q.shape}")
        pot = np.zeros((n_groups, nt, 1)) if potential else None
        grad = np.zeros((n_groups, nt, 3)) if gradient else None
        ptr = [None if a is None else a.ctypes.data for a in (t, s, q, pot, grad)]
        if self.blocks(n_groups, nt, ns, *ptr[:3], eps2, diagonal, *ptr[3:]):
            raise MemoryError("p2p_blocks could not allocate its staging buffer")
        return pot, grad

    def near_tiles(self, pts, q, plan, tiles, eps2, scales, pot, grad):
        """Tiles ``tiles`` of the near-field ``plan`` in one call: ``pot[t] =
        scales[0] * p``, ``grad[t] = scales[1] * g`` for each of their
        targets ``t``, in place.  ``plan`` checks the bodies and tile ids."""
        tiles = plan.checked_tiles(pts, q, tiles)
        pts = np.ascontiguousarray(pts, dtype=float)
        q = np.ascontiguousarray(q, dtype=float).reshape(-1)
        n = plan.n_bodies
        for a, shape in ((pts, (n, 3)), (q, (n,)), (pot, (n,)), (grad, (n, 3))):
            if a is not None and (a.shape, a.dtype) != (shape, np.float64):
                raise ValueError(f"expected a float64 {shape} array, got {a.dtype} {a.shape}")
        for out in (pot, grad):
            if out is not None and not (out.flags.c_contiguous and out.flags.writeable):
                raise ValueError("outputs must be writeable C-contiguous arrays")
        index = (plan.tile_ptr, plan.tgt_idx, plan.tgt_ptr,
                 plan.src_idx, plan.src_ptr, plan.src_cnt)  # p2p_tiles' order
        ptr = [None if a is None else a.ctypes.data for a in (tiles, *index, pts, q, pot, grad)]
        if self.tiles(tiles.size, *ptr[:9], eps2, *scales, *ptr[9:]):
            raise MemoryError("p2p_tiles could not allocate its staging buffer")


def library() -> P2PLibrary | None:
    """The process's compiled kernel, built or loaded on the first call."""
    global _library
    with _lock:
        if _library is _UNRESOLVED:
            _library = _build()
    return _library


def p2p_backend() -> str:
    """Which body evaluates Laplace blocks in this process: ``"native"`` (the
    compiled loop) or ``"numpy"``.  Resolves the loader like a first block."""
    return "numpy" if library() is None else "native"


def adopt(path: str | None) -> None:
    """Worker side: use exactly the parent's library file, or NumPy."""
    global _library
    _library = _load(path, "") if path else None


def _load(path, compiler: str) -> P2PLibrary:
    dll = CDLL(str(path))  # CDLL, not PyDLL: the GIL is dropped for each call
    dll.p2p_blocks.argtypes = [c_long] * 3 + [c_void_p] * 3 + [c_double, c_int] + [c_void_p] * 2
    dll.p2p_tiles.argtypes = [c_long] + [c_void_p] * 9 + [c_double] * 3 + [c_void_p] * 2
    dll.p2p_blocks.restype = dll.p2p_tiles.restype = c_int
    return P2PLibrary(dll.p2p_blocks, dll.p2p_tiles, str(path), compiler)


def _cache_dir() -> Path:
    beside = _SOURCE.parent / "__pycache__"
    if os.access(beside if beside.is_dir() else beside.parent, os.W_OK):
        beside.mkdir(exist_ok=True)
        return beside
    return _private_dir(Path(tempfile.gettempdir()) / f"repro-p2p-{os.getuid()}")


def _private_dir(path: Path) -> Path:
    """``path`` as a directory only this user can write, or PermissionError."""
    path.mkdir(mode=0o700, exist_ok=True)
    st = path.lstat()
    if path.is_symlink() or st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not a private directory of this user")
    return path


def _build() -> P2PLibrary | None:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None or not _SOURCE.is_file():
        return None
    try:
        version = _run(cc, "--version").stdout.partition("\n")[0]
        text = _SOURCE.read_bytes() + " ".join((*_FLAGS, version)).encode()
        lib = _cache_dir() / f"_p2p-{hashlib.sha256(text).hexdigest()[:16]}.so"
        if not lib.exists():
            with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
                _run(cc, *_FLAGS, str(_SOURCE), "-o", f"{tmp}/p2p.so", "-lm")
                os.replace(f"{tmp}/p2p.so", lib)
        return _load(lib, version)
    except (OSError, subprocess.SubprocessError) as exc:
        why = f"{exc} {getattr(exc, 'stderr', None) or ''}".strip()[:400]
        warnings.warn(f"no compiled P2P kernel, the NumPy body runs instead: {why}", RuntimeWarning)
        return None


def _run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
