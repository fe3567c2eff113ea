"""Build-on-first-use loader of the compiled library (``_p2p.c``).

One library runs the near field and the far field's leaf stages.  The
near field has three entry points over two row loops: ``p2p_block``
(:meth:`P2PLibrary.pairwise`, one dense ``(T, 3)`` x ``(S, 3)`` Laplace
block), ``p2p_tiles`` (:meth:`P2PLibrary.near_tiles`) and
``stokeslet_tiles`` (:meth:`P2PLibrary.stokeslet_tiles`), near-field
tiles read from the plan's index arrays and leaf runs in place and written
to the body rows by index — Laplace strengths and Stokeslet forces staged
by one routine.  The far field has three, behind the stage functions of
:mod:`repro.fmm.farfield`: ``leaf_p2m`` (:meth:`P2PLibrary.leaf_p2m`),
``leaf_l2p`` (:meth:`P2PLibrary.leaf_l2p`) and ``add_rows``
(:meth:`P2PLibrary.add_rows`), each bitwise the NumPy body it replaces.
None is handed a pointer before its shapes, dtypes, layouts and indices
are checked here (:func:`_ptr`), and every array it reads stays
referenced until it returns.

:func:`library` compiles the C source beside this file the first time a
near-field block or tile or a real far-field leaf stage runs — never at
import — at most once per (source, flags, compiler version) into a cache:
``__pycache__`` beside the source when that is writable, else a 0700
per-user directory whose ownership is checked before anything in it is
loaded.  The build lands in a temporary directory and is renamed into
place, so two processes racing the first compile both end with a loadable
file.  No compiler, no source (a wheel shipped without it) or a failed
build resolve to ``None``, and the NumPy bodies run instead.

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
from ctypes import CDLL, c_char_p, c_double, c_int, c_long, c_void_p
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("_p2p.c")
#: ``-ffp-contract=off``: the bits are those of the source's operations on
#: every target.  ``-fno-trapping-math`` (no result bit changes) lets the
#: vectorizer if-convert the zero rules' compare.  No ``-march``: the source
#: clones its near-field entry points for AVX2, picked per host at load.
_FLAGS = ("-O3", "-fopenmp-simd", "-fno-math-errno", "-fno-trapping-math", "-ffp-contract=off",
          "-shared", "-fPIC")
_UNRESOLVED = object()
_library = _UNRESOLVED  # P2PLibrary | None once resolved
_lock = threading.Lock()


class P2PLibrary(NamedTuple):
    block: object  # the ``p2p_block`` entry point
    tiles: object  # the ``p2p_tiles`` entry point
    stokeslet: object  # the ``stokeslet_tiles`` entry point
    p2m: object  # the ``leaf_p2m`` entry point
    l2p: object  # the ``leaf_l2p`` entry point
    add: object  # the ``add_rows`` entry point
    path: str
    compiler: str  # first line of ``cc --version`` ("" in a worker)
    isa: str  # the near-field clone this host runs: "avx2" or "baseline"

    def pairwise(self, t, s, q, eps2, diagonal, potential, gradient):
        """``(pot (T, 1) | None, grad (T, 3) | None)`` of float64 ``(T, 3)``
        targets x ``(S, 3)`` sources with ``(S,)`` strengths."""
        t, s, q = (np.ascontiguousarray(a, dtype=float) for a in (t, s, q))
        nt, ns = len(t), len(s)
        if (t.shape, s.shape, q.shape) != ((nt, 3), (ns, 3), (ns,)):
            raise ValueError(f"blocks do not match: {t.shape} x {s.shape}, strengths {q.shape}")
        pot = np.zeros((nt, 1)) if potential else None
        grad = np.zeros((nt, 3)) if gradient else None
        ptr = [None if a is None else a.ctypes.data for a in (t, s, q, pot, grad)]
        if self.block(nt, ns, *ptr[:3], eps2, diagonal, *ptr[3:]):
            raise MemoryError("p2p_block could not allocate its staging buffer")
        return pot, grad

    def near_tiles(self, pts, q, plan, tiles, eps2, scales, pot, grad):
        """Tiles ``tiles`` of the near-field ``plan`` in one Laplace call:
        ``pot[t] = scales[0] * p``, ``grad[t] = scales[1] * g`` for each of
        their targets ``t``, in place.  ``plan`` checks the bodies and tile
        ids."""
        q = np.ascontiguousarray(q, dtype=float).reshape(-1)
        self._tiles(self.tiles, 1, pts, q, plan, tiles, eps2, scales, (pot, grad))

    def stokeslet_tiles(self, pts, f, plan, tiles, eps2, scale, pot, grad):
        """Tiles ``tiles`` of ``plan`` in one regularized Stokeslet call:
        ``pot[t] = grad[t] = scale * u`` (either may be ``None``) for each
        of their targets ``t``, in place.  The forces ``f`` are used as they
        are: a float64 ``(n, 3)`` C-contiguous array, else ValueError."""
        self._tiles(self.stokeslet, 3, pts, f, plan, tiles, eps2, (scale, scale), (pot, grad))

    def _tiles(self, entry, dim, pts, q, plan, tiles, eps2, scales, outs):
        """Check everything ``entry`` reads by pointer — strengths ``q`` and
        ``pot`` are ``(n,)`` for ``dim`` 1, ``(n, dim)`` else — then call
        it."""
        tiles = plan.checked_tiles(pts, q, tiles)
        pts = np.ascontiguousarray(pts, dtype=float)
        n = plan.n_bodies
        index = (tiles, plan.tile_ptr, plan.tgt_idx, plan.tgt_ptr, plan.order,
                 plan.src_lo, plan.src_hi, plan.run_ptr, plan.src_cnt)  # the entry's order
        row = (n,) if dim == 1 else (n, dim)
        bodies = [_ptr(pts, (n, 3)), _ptr(q, row)]
        outs = [_ptr(outs[0], row, out=True), _ptr(outs[1], (n, 3), out=True)]
        if entry(tiles.size, *(a.ctypes.data for a in index), *bodies, eps2, *scales, *outs):
            raise MemoryError("the near-field tiles could not allocate their staging buffer")

    def leaf_p2m(self, plan, rows, q, basis, sign, out):
        """``out[rows[g]]`` = the P2M row of leaf ``g`` of ``plan``, channel
        ``c`` at columns ``c * nc``: charges ``q[:, c]`` x the column-major
        L2P ``basis`` x the exact +-1 ``sign`` of each column, summed in
        ``np.add.reduceat``'s order."""
        m, nc = np.shape(basis)
        nq = np.shape(out)[-1] // nc
        nl, bodies = len(plan.ptr) - 1, _plan_ptrs(plan, m, len(q))
        args = (_ptr(rows, (nl,), np.int64, bound=len(out)), m, nc, nq,
                _ptr(basis, (m, nc), order="F"), _ptr(sign, (nc,)), _ptr(q, (len(q), nq)))
        if self.p2m(nl, *bodies, *args, _ptr(out, (len(out), nq * nc), out=True)):
            raise MemoryError("leaf_p2m could not allocate its staging buffer")

    def leaf_l2p(self, plan, basis, rows, L, pot, ids, gk, grad):
        """For every body ``b`` of leaf ``g`` of ``plan`` and channel ``c``,
        in place: ``pot[b, c] = basis[b] . L[rows[g]]`` and ``grad[b, c, k]
        = basis[b] . gk[k][ids[g]]``, channel ``c`` of each row (``None``
        outputs skipped), in ``einsum``'s order, in one pass per channel."""
        m, nc = np.shape(basis)
        nq = np.shape(L)[-1] // nc
        n = len(pot if pot is not None else grad)
        bodies = _plan_ptrs(plan, m, n)
        nl, nk = len(plan.ptr) - 1, len(gk[0]) if gk else 0
        tables = [_ptr(g, (nk, nq * nc)) for g in gk] + [None] * (3 - len(gk))
        potential = (_ptr(rows, (nl,), np.int64, bound=len(L)), _ptr(L, (len(L), nq * nc)),
                     _ptr(pot, (n, nq), out=True))
        ids = _ptr(ids if gk else None, (nl,), np.int64, bound=nk)
        self.l2p(*bodies, m, nc, nq, _ptr(basis, (m, nc), order="F"), *potential, ids, *tables,
                 _ptr(grad, (n, nq, 3), out=True))

    def add_rows(self, dst, idx, src):
        """``dst[idx] += src``, a row at a time (``idx`` without repeats)."""
        k, w = len(idx), np.shape(dst)[-1]
        self.add(k, w, _ptr(idx, (k,), np.int64, bound=len(dst)), _ptr(src, (k, w)),
                 _ptr(dst, (len(dst), w), out=True))


def _ptr(a, shape, dtype=np.float64, *, order="C", bound=None, out=False):
    """The address of ``a`` — ``None`` for ``None`` — once it is a ``dtype``
    array of ``shape``, ``order``-contiguous (and writeable for an ``out``),
    with every entry in ``[0, bound)`` when ``bound`` is given: else
    ValueError.  The caller keeps ``a`` referenced across the C call."""
    if a is None:
        return None
    if not isinstance(a, np.ndarray) or a.shape != shape or a.dtype != dtype:
        got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
        raise ValueError(f"expected a {np.dtype(dtype)} {shape} array, got {got}")
    flags = a.flags
    if not (flags.c_contiguous if order == "C" else flags.f_contiguous) or (out and not flags.writeable):
        raise ValueError(f"expected a {'writeable ' * out}{order}-contiguous array")
    if bound is not None and a.size and not (a.min() >= 0 and a.max() < bound):
        raise ValueError(f"index out of range: not in [0, {bound})")
    return a.ctypes.data


def _plan_ptrs(plan, m, n):
    """``plan``'s CSR pointer and body ids, once the pointer cuts exactly
    ``m`` rows and every body id is below ``n``."""
    ptr = plan.ptr
    _ptr(ptr, (len(ptr),), np.int64)
    if not len(ptr) or ptr[0] != 0 or ptr[-1] != m or (ptr[1:] < ptr[:-1]).any():
        raise ValueError(f"plan pointer out of range: it must cut [0, {m}) in order")
    return ptr.ctypes.data, _ptr(plan.body_idx, (m,), np.int64, bound=n)


def library() -> P2PLibrary | None:
    """The process's compiled library, built or loaded on the first call."""
    global _library
    with _lock:
        if _library is _UNRESOLVED:
            _library = _build()
    return _library


def p2p_backend() -> str:
    """Which bodies evaluate near-field blocks and tiles and the far
    field's real leaf stages in this process: ``"native"`` (the compiled
    library) or ``"numpy"``.  Resolves the loader like a first block."""
    return "numpy" if library() is None else "native"


def adopt(path: str | None) -> None:
    """Worker side: use exactly the parent's library file, or NumPy."""
    global _library
    _library = _load(path, "") if path else None


def _load(path, compiler: str) -> P2PLibrary:
    dll = CDLL(str(path))  # CDLL, not PyDLL: the GIL is dropped for each call
    dll.p2p_block.argtypes = [c_long] * 2 + [c_void_p] * 3 + [c_double, c_int] + [c_void_p] * 2
    dll.p2p_tiles.argtypes = dll.stokeslet_tiles.argtypes = (
        [c_long] + [c_void_p] * 11 + [c_double] * 3 + [c_void_p] * 2)
    dll.leaf_p2m.argtypes = [c_long] + [c_void_p] * 3 + [c_long] * 3 + [c_void_p] * 4
    dll.leaf_l2p.argtypes = [c_void_p] * 2 + [c_long] * 3 + [c_void_p] * 9
    dll.add_rows.argtypes = [c_long] * 2 + [c_void_p] * 3
    dll.p2p_block.restype = dll.p2p_tiles.restype = dll.stokeslet_tiles.restype = c_int
    dll.leaf_p2m.restype = c_int
    dll.leaf_l2p.restype = dll.add_rows.restype = None
    dll.p2p_isa.restype = c_char_p
    return P2PLibrary(dll.p2p_block, dll.p2p_tiles, dll.stokeslet_tiles, dll.leaf_p2m,
                      dll.leaf_l2p, dll.add_rows, str(path), compiler, dll.p2p_isa().decode())


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
                _compile(cc, f"{tmp}/p2p.so")
                os.replace(f"{tmp}/p2p.so", lib)
        return _load(lib, version)
    except (OSError, subprocess.SubprocessError) as exc:
        why = str(exc)  # a failed build spells its whole command: the compiler's words go first
        if isinstance(exc, subprocess.CalledProcessError):
            why = f"{(exc.stderr or '').strip()} (exit status {exc.returncode})"
        warnings.warn(f"no compiled P2P kernel, the NumPy body runs instead: {why[:400]}", RuntimeWarning)
        return None


def _compile(cc, out, *extra):
    """Build the source into ``out`` with ``_FLAGS`` and ``extra`` after them."""
    _run(cc, *_FLAGS, *extra, str(_SOURCE), "-o", str(out), "-lm")


def _run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
