"""Runtime loader and dispatch for the compiled distribution kernels.

The hot per-row primitives — adaptive convolve, adaptive max, adaptive
truncate and the rectangular row binning — have a C implementation in
``_native.c`` that replicates the numpy operation order of the python
reference bit for bit.  This module owns the build/load lifecycle and
exposes one thin wrapper per kernel; each wrapper returns the result
on success or ``None`` when the caller must run the python path
(native disabled, build unavailable, or the kernel declined an input it
cannot reproduce exactly — the reference then raises the reference
error).

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
absorbed.
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
    "rect_bin_rows",
    "convolve_dists",
    "max_dists",
    "truncate_dist",
    "OPS",
]

#: Kernel ops the native library implements (status/`repro kernels`).
OPS = ("convolve", "max", "truncate", "rect_bin")

#: Bump together with REPRO_NATIVE_ABI in ``_native.c``.
_ABI = 1

#: Compiler flags of the shared object.  ``-ffp-contract=off`` keeps the
#: compiler from fusing ``a*b+c`` into an FMA (default on FMA-capable
#: targets such as aarch64), which would round differently from numpy.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE = Path(__file__).with_name("_native.c")
_OFF_VALUES = ("0", "false", "off", "no")
_F64 = np.dtype(np.float64)

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
_c_rect = None


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
    lib.repro_rect_bin_rows.argtypes = [ptr, ptr, ll, ll, ll, ptr, ptr]
    lib.repro_rect_bin_rows.restype = ll


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
    global _c_conv, _c_max, _c_trunc, _c_rect
    if not _attempted:
        _attempted = True
        _lib = _build_and_load()
        if _lib is None:
            _warn_once()
        else:
            _c_conv = _lib.repro_convolve_adaptive
            _c_max = _lib.repro_max_with_adaptive
            _c_trunc = _lib.repro_truncate_adaptive
            _c_rect = _lib.repro_rect_bin_rows
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
    global _c_conv, _c_max, _c_trunc, _c_rect
    _lib = None
    _attempted = False
    _build_error = None
    _warned = False
    _compiler = None
    _so_path = None
    _disabled_runtime = False
    _ok = None
    _c_conv = _c_max = _c_trunc = _c_rect = None


# --------------------------------------------------------------------- #
# kernel wrappers
# --------------------------------------------------------------------- #
#
# Each wrapper returns its result (the binned arrays here, a wrapped
# distribution below), or None when the python path must run.  A None
# from the *kernel* (status < 0) means the input needs reference
# handling (error raising, NaN ordering, negative bins) — the python
# path then reproduces it exactly.


def rect_bin_rows(
    values: np.ndarray, probs: np.ndarray, max_atoms: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Native fixed-width binning of ``(c, n)`` rows to ``max_atoms``."""
    prof = _profile.ACTIVE
    c = values.shape[0]
    if (
        not _fast_ok()
        or values.dtype != _F64
        or probs.dtype != _F64
        or not values.flags.c_contiguous
        or not probs.flags.c_contiguous
    ):
        if prof is not None:
            prof.record("native_miss_rect_bin", c, 0, 0.0)
        return None
    n = values.shape[1]
    out_v = np.empty((c, int(max_atoms)))
    out_p = np.empty((c, int(max_atoms)))
    t0 = time.perf_counter() if prof is not None else 0.0
    rc = _c_rect(
        values.ctypes.data, probs.ctypes.data, c, n,
        int(max_atoms), out_v.ctypes.data, out_p.ctypes.data,
    )
    if rc < 0:
        if prof is not None:
            prof.record("native_miss_rect_bin", c, 0, 0.0)
        return None
    if prof is not None:
        prof.record("native_rect_bin", c, 0, time.perf_counter() - t0)
    return out_v, out_p


# --------------------------------------------------------------------- #
# distribution-level fast paths
# --------------------------------------------------------------------- #
#
# The scalar dispatch sites pass whole DiscreteDistribution objects so
# the wrappers can reuse the data addresses cached on each instance
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
    """Native adaptive truncate returning a wrapped distribution."""
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
