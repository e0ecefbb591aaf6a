"""Runtime loader and dispatch for the compiled distribution kernels.

The hot per-row primitives — convolve, max and truncate — have a C
implementation in ``_native.c`` that replicates the numpy operation
order of the python reference bit for bit.  This module owns the
build/load lifecycle and exposes one thin wrapper per kernel; each
wrapper returns the result on success or ``None`` when the caller must
run the python path (native disabled, build unavailable, or the kernel
declined an input it cannot reproduce exactly — the reference then
raises the reference error).

:func:`replay_tape` is the one entry that is not a single op: it runs a
cell's whole lowered fold tape (:mod:`repro.makespan.foldplan`) through
the same convolve and max routines in one C call, writing into the
cell's slot arena.  It stops early when a step needs more arena (the
caller grows it and resumes) or declines (the caller finishes the cell
on the python kernels, which meet that step as the per-op path does).

Build strategy: compiled on first use with the system C compiler into a
shared object cached under ``~/.cache/repro-native`` (override with
``REPRO_NATIVE_CACHE``), keyed by a hash of the source, ABI and
compiler flags so stale objects are never reused, and loaded through
:mod:`ctypes`.  No python headers, no
build step at install time — a checkout plus any of ``cc``/``gcc``/
``clang`` is enough, and a missing compiler degrades to the pure-python
kernels with a one-line warning on stderr (never an exception).

Switches, in precedence order:

* :func:`set_enabled` — programmatic/CLI switch (``--no-native``); also
  mirrors into ``REPRO_NATIVE`` so spawned workers inherit it;
* ``REPRO_NATIVE=0`` (or ``false``/``off``/``no``) — environment kill
  switch, honoured before any build is attempted;
* build failure — automatic fallback, reported via :func:`status`.

Profiling: when a :mod:`repro.makespan.profile` collector is active,
each wrapper records ``native_<op>`` rows it served and
``native_miss_<op>`` rows that fell back, so ``--profile`` and
BENCH_kernel.json show exactly how much work the compiled path
absorbed; the fold replay records the convolve and max steps its tape
calls ran as ``native_convolve`` and ``native_max`` rows.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.makespan import profile as _profile

__all__ = [
    "available",
    "enabled",
    "set_enabled",
    "status",
    "convolve_dists",
    "max_dists",
    "truncate_dist",
    "replay_tape",
    "OPS",
]

#: Kernel ops the native library implements (status/`repro kernels`).
OPS = ("convolve", "max", "truncate")

#: Bump together with REPRO_NATIVE_ABI in ``_native.c``.
_ABI = 2

#: Stop statuses of :func:`replay_tape` (``TAPE_*`` in ``_native.c``).
TAPE_DONE = 0
TAPE_GROW = 1
TAPE_DECLINE = 2

#: Compiler flags of the shared object.  ``-ffp-contract=off`` keeps the
#: compiler from fusing ``a*b+c`` into an FMA (default on FMA-capable
#: targets such as aarch64), which would round differently from numpy.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE = Path(__file__).with_name("_native.c")
_OFF_VALUES = ("0", "false", "off", "no")

_lib: Optional[ctypes.CDLL] = None
_attempted = False
_build_error: Optional[str] = None
_warned = False
_compiler: Optional[str] = None
_so_path: Optional[Path] = None
_disabled_runtime = False

#: Cached dispatch decision for the hot path.  ``None`` = not yet
#: resolved; resolved on first kernel call (which may trigger the
#: build) and invalidated by :func:`set_enabled`.  The environment is
#: therefore read at first use — flip it mid-process through
#: :func:`set_enabled`, which also mirrors into ``REPRO_NATIVE`` for
#: spawned workers.
_ok: Optional[bool] = None

# Hot function handles, bound once after a successful load.
_c_conv = None
_c_max = None
_c_trunc = None
_c_tape = None


def _env_off() -> bool:
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in _OFF_VALUES


def _warn_once() -> None:
    global _warned
    if not _warned:
        _warned = True
        print(
            f"repro: native kernels unavailable ({_build_error}); "
            "falling back to the pure-python kernels (bit-identical, slower)",
            file=sys.stderr,
        )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _find_compiler() -> Optional[str]:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _declare(lib: ctypes.CDLL) -> None:
    ll = ctypes.c_longlong
    ptr = ctypes.c_void_p
    lib.repro_native_abi.argtypes = []
    lib.repro_native_abi.restype = ll
    lib.repro_convolve_adaptive.argtypes = [
        ptr, ptr, ll, ptr, ptr, ll, ll, ptr, ptr
    ]
    lib.repro_convolve_adaptive.restype = ll
    lib.repro_max_with_adaptive.argtypes = [
        ptr, ptr, ll, ptr, ptr, ll, ll, ptr, ptr
    ]
    lib.repro_max_with_adaptive.restype = ll
    lib.repro_truncate_adaptive.argtypes = [ptr, ptr, ll, ll, ptr, ptr]
    lib.repro_truncate_adaptive.restype = ll
    lib.repro_replay_tape.argtypes = [
        ptr, ll, ptr, ptr, ptr, ptr, ll, ll, ptr, ptr
    ]
    lib.repro_replay_tape.restype = ll


def _object_tag() -> str:
    """Cache key of the shared object: source, ABI and compiler flags,
    so an object built from other sources or flags is never loaded."""
    flags = " ".join(_CFLAGS).encode()
    key = _SOURCE.read_bytes() + b"|abi=%d|" % _ABI + flags
    return hashlib.sha256(key).hexdigest()[:16]


def _build_and_load() -> Optional[ctypes.CDLL]:
    """Compile (if not cached) and load the shared object, or explain why
    not in ``_build_error``."""
    global _build_error, _compiler, _so_path
    if not _SOURCE.exists():
        _build_error = f"kernel source missing: {_SOURCE}"
        return None
    cache = _cache_dir()
    so_path = cache / f"_repro_native_{_object_tag()}.so"
    if not so_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            _build_error = "no C compiler found (tried $CC, cc, gcc, clang)"
            return None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            # Build to a private temp name, then atomically publish —
            # concurrent workers race benignly to the same final path.
            fd, tmp = tempfile.mkstemp(
                suffix=".so", prefix="_repro_native_", dir=str(cache)
            )
            os.close(fd)
            cmd = [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                os.unlink(tmp)
                detail = (proc.stderr or proc.stdout or "").strip()
                detail = detail.splitlines()[0] if detail else "unknown error"
                _build_error = f"{compiler} failed: {detail}"
                return None
            os.replace(tmp, so_path)
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _build_error = f"build failed: {exc}"
            return None
        _compiler = compiler
    try:
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        abi = int(lib.repro_native_abi())
        if abi != _ABI:
            _build_error = f"ABI mismatch: built {abi}, expected {_ABI}"
            return None
    except Exception as exc:  # noqa: BLE001
        _build_error = f"load failed: {exc}"
        return None
    _so_path = so_path
    return lib


def _get_lib() -> Optional[ctypes.CDLL]:
    global _lib, _attempted
    global _c_conv, _c_max, _c_trunc, _c_tape
    if not _attempted:
        _attempted = True
        _lib = _build_and_load()
        if _lib is None:
            _warn_once()
        else:
            _c_conv = _lib.repro_convolve_adaptive
            _c_max = _lib.repro_max_with_adaptive
            _c_trunc = _lib.repro_truncate_adaptive
            _c_tape = _lib.repro_replay_tape
    return _lib


def available() -> bool:
    """Whether the compiled library can be (or has been) loaded.

    Triggers the one-time build on first call; ignores the enable
    switches so status surfaces can report "available but disabled".
    """
    return _get_lib() is not None


def enabled() -> bool:
    """Whether kernel dispatch will actually use the compiled library."""
    if _disabled_runtime or _env_off():
        return False
    return _get_lib() is not None


def set_enabled(flag: bool) -> None:
    """Programmatic switch (the CLI's ``--no-native``).

    Mirrored into ``REPRO_NATIVE`` so worker processes spawned after the
    call (process pools, subprocess backends) inherit the choice.
    """
    global _disabled_runtime, _ok
    _disabled_runtime = not flag
    _ok = None
    os.environ["REPRO_NATIVE"] = "1" if flag else "0"


def _fast_ok() -> bool:
    """Cached ``enabled()`` for the per-op hot path."""
    global _ok
    ok = _ok
    if ok is None:
        ok = enabled()
        _ok = ok
    return ok


def build_error() -> Optional[str]:
    """The one-line reason the native build is unavailable, if it is."""
    return _build_error


def status() -> Dict[str, object]:
    """JSON-friendly report for ``/status`` and ``repro kernels``."""
    avail = available()
    live = enabled()
    if _disabled_runtime:
        disabled_by: Optional[str] = "flag"
    elif _env_off():
        disabled_by = "env"
    elif not avail:
        disabled_by = "build"
    else:
        disabled_by = None
    return {
        "backend": "native" if live else "python",
        "available": avail,
        "enabled": live,
        "disabled_by": disabled_by,
        "build_error": _build_error,
        "compiler": _compiler,
        "cached_object": str(_so_path) if _so_path else None,
        "abi": _ABI,
        "ops": {op: ("native" if live else "python") for op in OPS},
    }


def _reset_for_tests() -> None:
    """Forget build state so tests can exercise failure paths."""
    global _lib, _attempted, _build_error, _warned, _compiler, _so_path
    global _disabled_runtime, _ok
    global _c_conv, _c_max, _c_trunc, _c_tape
    _lib = None
    _attempted = False
    _build_error = None
    _warned = False
    _compiler = None
    _so_path = None
    _disabled_runtime = False
    _ok = None
    _c_conv = _c_max = _c_trunc = _c_tape = None


# --------------------------------------------------------------------- #
# kernel wrappers
# --------------------------------------------------------------------- #
#
# Each wrapper returns a wrapped distribution, or None when the python
# path must run.  A None from the *kernel* (status < 0) means the input
# needs reference handling (error raising, NaN ordering, negative bins)
# — the python path then reproduces it exactly.
#
# The dispatch sites pass whole DiscreteDistribution objects so the
# wrappers can reuse the data addresses cached on each instance
# (resolving ``.ctypes.data`` costs ~2us per array on slow-attribute
# interpreters — it would rival the kernel itself on small supports).
# Canonical distributions hold freshly-created contiguous float64
# arrays by construction, so no per-call dtype/layout probing is
# needed; results built here pre-seed their own address cache for free.

_dist_cls = None


def _wrap_dist(v: np.ndarray, p: np.ndarray, addrs) -> object:
    global _dist_cls
    cls = _dist_cls
    if cls is None:
        from repro.makespan.distribution import DiscreteDistribution

        cls = _dist_cls = DiscreteDistribution
    dist = cls._wrap(v, p)
    dist._addrs = addrs
    return dist


def _addrs_of(dist) -> Tuple[int, int]:
    addrs = dist._addrs
    if addrs is None:
        addrs = (dist.values.ctypes.data, dist.probs.ctypes.data)
        dist._addrs = addrs
    return addrs


def convolve_dists(a, b, max_atoms: int):
    """Native ``a + b`` returning a wrapped distribution, or ``None``."""
    prof = _profile.ACTIVE
    if not _fast_ok():
        if prof is not None:
            prof.record("native_miss_convolve", 1, 0, 0.0)
        return None
    na = a.values.size
    nb = b.values.size
    cap = min(na * nb, int(max_atoms))
    out_v = np.empty(cap)
    out_p = np.empty(cap)
    va, pa = _addrs_of(a)
    vb, pb = _addrs_of(b)
    ov = out_v.ctypes.data
    op = out_p.ctypes.data
    t0 = time.perf_counter() if prof is not None else 0.0
    n = _c_conv(va, pa, na, vb, pb, nb, int(max_atoms), ov, op)
    if n < 0:
        if prof is not None:
            prof.record("native_miss_convolve", 1, 0, 0.0)
        return None
    if prof is not None:
        prof.record("native_convolve", 1, 0, time.perf_counter() - t0)
    return _wrap_dist(out_v[:n], out_p[:n], (ov, op))


def max_dists(a, b, max_atoms: int):
    """Native ``max(a, b)`` returning a wrapped distribution, or ``None``."""
    prof = _profile.ACTIVE
    if not _fast_ok():
        if prof is not None:
            prof.record("native_miss_max", 1, 0, 0.0)
        return None
    na = a.values.size
    nb = b.values.size
    cap = min(na + nb, int(max_atoms))
    out_v = np.empty(cap)
    out_p = np.empty(cap)
    va, pa = _addrs_of(a)
    vb, pb = _addrs_of(b)
    ov = out_v.ctypes.data
    op = out_p.ctypes.data
    t0 = time.perf_counter() if prof is not None else 0.0
    n = _c_max(va, pa, na, vb, pb, nb, int(max_atoms), ov, op)
    if n < 0:
        if prof is not None:
            prof.record("native_miss_max", 1, 0, 0.0)
        return None
    if prof is not None:
        prof.record("native_max", 1, 0, time.perf_counter() - t0)
    return _wrap_dist(out_v[:n], out_p[:n], (ov, op))


def truncate_dist(dist, max_atoms: int):
    """Native truncate returning a wrapped distribution, or ``None``."""
    prof = _profile.ACTIVE
    if not _fast_ok():
        if prof is not None:
            prof.record("native_miss_truncate", 1, 0, 0.0)
        return None
    out_v = np.empty(int(max_atoms))
    out_p = np.empty(int(max_atoms))
    va, pa = _addrs_of(dist)
    ov = out_v.ctypes.data
    op = out_p.ctypes.data
    t0 = time.perf_counter() if prof is not None else 0.0
    n = _c_trunc(va, pa, dist.values.size, int(max_atoms), ov, op)
    if n < 0:
        if prof is not None:
            prof.record("native_miss_truncate", 1, 0, 0.0)
        return None
    if prof is not None:
        prof.record("native_truncate", 1, 0, time.perf_counter() - t0)
    return _wrap_dist(out_v[:n], out_p[:n], (ov, op))


def replay_tape(tape, off, length, values, probs, max_atoms, cursor, ran):
    """Replay a lowered fold tape into a cell's slot arena in one call.

    ``tape`` is the int32 ``(kind, a, b, out)`` quadruples of
    :mod:`repro.makespan.foldplan`; ``off`` and ``length`` (int64) place
    each slot in the ``values``/``probs`` planes (float64, equal size),
    ``length`` 0 marking an unfilled slot; ``cursor`` (int64) is the step
    to start at, the atoms in use and, after :data:`TAPE_GROW`, the atoms
    needed; ``ran`` (int64) counts the convolve and max steps run.
    Returns :data:`TAPE_DONE`, :data:`TAPE_GROW` or :data:`TAPE_DECLINE`
    with ``cursor[0]`` at the step it stopped on (see
    ``repro_replay_tape`` in ``_native.c``).  Call only while
    :func:`enabled`.
    """
    if tape.size and int(tape.max()) >= length.size:
        raise ValueError("tape names a slot the arena does not hold")
    return _c_tape(
        tape.ctypes.data,
        tape.size // 4,
        off.ctypes.data,
        length.ctypes.data,
        values.ctypes.data,
        probs.ctypes.data,
        values.size,
        int(max_atoms),
        cursor.ctypes.data,
        ran.ctypes.data,
    )
