"""Runtime loader and dispatch for the compiled distribution kernels.

The hot per-row primitives — convolve, max and truncate — have a C
implementation in ``_native.c`` that replicates the numpy operation
order of the python reference bit for bit.  This module owns the
build/load lifecycle and exposes one thin wrapper per kernel; each
wrapper returns the result on success or ``None`` when the caller must
run the python path (native disabled, build unavailable, or the kernel
declined an input it cannot reproduce exactly — the reference then
raises the reference error).

:func:`replay_tape` is the one entry that is not a single op: it
evaluates one cell's fold root on demand over a compiled step table
(:mod:`repro.makespan.foldplan`), running the root's unfilled closure
through the same convolve and max routines in one C call and writing
into the cell's slot arena.  It stops early when a step needs more
arena (the caller grows it and calls again from the root) or declines
(the caller finishes the cell on the python kernels, which meet that
step as the per-op path does).

:func:`normal_fold` prices every cell of a Sculli template
(:func:`~repro.makespan.normal.normal_batch`) in one C call that folds
Clark's max over the DAG with libm's scalar ``erf`` and ``exp``.  The
python fold, the scalar one of :func:`~repro.makespan.normal.normal`,
calls ``math.erf`` and ``math.exp``, so at first use a fixed probe set
checks the library's ``erf`` and ``exp`` against them bit for bit; on
any difference the op declines for the process (:func:`status` reports
it as ``"python"``) and ``normal_batch`` runs the scalar fold once per
cell.

:func:`k_best_paths` runs PathApprox's k-best path DP
(:func:`~repro.makespan.pathapprox._k_best_paths_cells`) for every cell
of a budget round in one C call and returns each path's rank-space mask
words.  A cell declines where numpy's order is not a function of the
values alone: equal values among the first ``k + 1`` candidates of a
node that truncates (numpy keeps those in ``argpartition``'s order,
which depends on the CPU), or a NaN.  The numpy DP then prices just the
declined rows.

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
absorbed; the fold replay records the convolve and max steps its
:func:`replay_tape` calls ran as ``native_convolve`` and ``native_max``
rows, :func:`normal_fold` the cells it priced (or passed back) as
``native_normal`` (``native_miss_normal``) rows, and :func:`k_best_paths`
the cells it enumerated (or passed back) as ``native_kbest``
(``native_miss_kbest``) rows, one per cell and budget round.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

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
    "normal_fold",
    "k_best_paths",
    "OPS",
]

#: Kernel ops the native library implements (status/`repro kernels`).
OPS = ("convolve", "max", "truncate", "normal", "kbest")

#: Bump together with REPRO_NATIVE_ABI in ``_native.c``.
_ABI = 5

#: Stop statuses of :func:`replay_tape` (``TAPE_*`` in ``_native.c``).
TAPE_DONE = 0
TAPE_GROW = 1
TAPE_DECLINE = 2

#: Compiler flags of the shared object.  ``-ffp-contract=off`` keeps the
#: compiler from fusing ``a*b+c`` into an FMA (default on FMA-capable
#: targets such as aarch64), which would round differently from numpy.
#: No ``-O`` level reassociates floating-point operations (that takes
#: ``-ffast-math`` or ``-fassociative-math``), so ``-O3`` computes the
#: same bits as ``-O2``; on GCC 12 its ``-fsplit-paths`` alone runs the
#: convolve's merge loops about 1.4x faster.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

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
_c_normal = None
_c_kbest = None

#: Whether the library's ``erf`` and ``exp`` matched python's on the
#: probe set (``None`` until the first :func:`normal_fold` or
#: :func:`status` asks, once per loaded library).
_libm_ok: Optional[bool] = None


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
        ptr, ll, ll, ptr, ptr, ptr, ptr, ll, ll, ptr, ptr
    ]
    lib.repro_replay_tape.restype = ll
    dbl = ctypes.c_double
    lib.repro_normal_fold.argtypes = [
        ptr, ptr, ll, ptr, ll, ptr, ptr, ll, dbl, dbl, ptr
    ]
    lib.repro_normal_fold.restype = ll
    lib.repro_k_best_paths.argtypes = [
        ptr, ptr, ll, ptr, ll, ptr, ptr, ll, ll, ll, ptr, ptr
    ]
    lib.repro_k_best_paths.restype = ll
    lib.repro_libm_probe.argtypes = [ptr, ll, ptr, ptr]
    lib.repro_libm_probe.restype = None


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
    global _c_conv, _c_max, _c_trunc, _c_tape, _c_normal, _c_kbest
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
            _c_normal = _lib.repro_normal_fold
            _c_kbest = _lib.repro_k_best_paths
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


def _probe_points() -> List[float]:
    """The fixed arguments at which the library's ``erf`` and ``exp``
    must equal ``math.erf`` and ``math.exp``: signed zeros, subnormals,
    the infinities and NaN, a grid over [-8, 8] where ``erf`` is not
    yet saturated, and geometric grids of both signs from 1e-6 to 700
    and on to -750, where ``exp`` of the fold's ``-alpha**2/2``
    underflows (``math.exp`` still returns a finite double at 700).
    Plain python, so the probe touches no numpy code the process would
    not otherwise run."""
    spread = [1e-6 * 7e8 ** (k / 400.0) for k in range(401)]
    return (
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.inf, -math.inf, math.nan]
        + [-8.0 + k / 32.0 for k in range(513)]
        + spread
        + [-v for v in spread]
        + [-600.0 * 1.25 ** (k / 100.0) for k in range(101)]
    )


def _same(got: float, ref: float) -> bool:
    """Equal under ``float.hex``: equal with the same sign, or both NaN."""
    if got != got:
        return ref != ref
    return got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


def _libm_matches() -> bool:
    """Probe the loaded library's ``erf`` and ``exp`` (once per load)."""
    global _libm_ok
    ok = _libm_ok
    if ok is None:
        points = _probe_points()
        x = np.array(points)
        got_erf = np.empty_like(x)
        got_exp = np.empty_like(x)
        _lib.repro_libm_probe(
            x.ctypes.data, x.size, got_erf.ctypes.data, got_exp.ctypes.data
        )
        ok = all(
            _same(e, math.erf(v)) and _same(g, math.exp(v))
            for e, g, v in zip(got_erf.tolist(), got_exp.tolist(), points)
        )
        _libm_ok = ok
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
        "ops": {
            op: (
                "native"
                if live and (op != "normal" or _libm_matches())
                else "python"
            )
            for op in OPS
        },
    }


def _reset_for_tests() -> None:
    """Forget build state so tests can exercise failure paths."""
    global _lib, _attempted, _build_error, _warned, _compiler, _so_path
    global _disabled_runtime, _ok, _libm_ok
    global _c_conv, _c_max, _c_trunc, _c_tape, _c_normal, _c_kbest
    _lib = None
    _attempted = False
    _build_error = None
    _warned = False
    _compiler = None
    _so_path = None
    _disabled_runtime = False
    _ok = None
    _libm_ok = None
    _c_conv = _c_max = _c_trunc = _c_tape = _c_normal = _c_kbest = None


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


def replay_tape(table, root, off, length, values, probs, max_atoms, cursor, ran):
    """Evaluate slot ``root`` of one cell over a fold's step table.

    ``table`` is the int32 ``(kind, a, b)`` triple of every slot of
    :mod:`repro.makespan.foldplan`'s step table (kind 0 convolve, 1 max;
    the leaf slots come first and are never computed); ``off`` and
    ``length`` (int64, at least one entry per slot) place each slot in
    the ``values``/``probs`` planes (float64, equal size), ``length`` 0
    marking an unfilled slot; ``cursor`` (int64) holds the atoms in use
    and, after :data:`TAPE_GROW`, the atoms needed; ``ran`` (int64)
    counts the convolve and max steps run.  Only the root's unfilled
    closure runs, depth first with ``a`` before ``b``.  Returns
    :data:`TAPE_DONE`, :data:`TAPE_GROW` (grow the planes and call
    again) or :data:`TAPE_DECLINE` (see ``repro_replay_tape`` in
    ``_native.c``).  Call only while :func:`enabled`.
    """
    nslots = table.size // 3
    if length.size < nslots or off.size < nslots:
        raise ValueError("the step table has slots the arena does not hold")
    return _c_tape(
        table.ctypes.data,
        nslots,
        int(root),
        off.ctypes.data,
        length.ctypes.data,
        values.ctypes.data,
        probs.ctypes.data,
        values.size,
        int(max_atoms),
        cursor.ctypes.data,
        ran.ctypes.data,
    )


def _csr(preds) -> Tuple[np.ndarray, np.ndarray]:
    """Predecessor lists as int32 CSR: node ``v``'s predecessors are
    ``flat[ptr[v]:ptr[v + 1]]``."""
    counts = np.fromiter(map(len, preds), dtype=np.int32, count=len(preds))
    ptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=ptr[1:])
    flat = np.fromiter(
        (q for ps in preds for q in ps), dtype=np.int32, count=int(ptr[-1])
    )
    return ptr, flat


def normal_fold(template, sqrt2: float, inv_sqrt2pi: float):
    """Sculli's estimate of every cell of ``template`` in one C call,
    or ``None`` when the python fold must run.

    ``template`` is a non-empty
    :class:`~repro.makespan.paramdag.ParamDAG`; ``sqrt2`` and
    ``inv_sqrt2pi`` are :mod:`repro.makespan.normal`'s constants.  The C
    fold walks the nodes in order, Clark-maxes each node's predecessors
    in list order and then the sinks, as the scalar fold of
    :func:`~repro.makespan.normal.normal` does; it declines when
    kernels are off, when the library's ``erf``/``exp`` failed the probe,
    or on a malformed structure (a predecessor that is not an earlier
    node).  Records the cells as ``native_normal`` rows, or as
    ``native_miss_normal`` rows when it declines.
    """
    prof = _profile.ACTIVE
    cells = template.n_cells
    if not (_fast_ok() and _libm_matches()):
        if prof is not None:
            prof.record("native_miss_normal", cells, 0, 0.0)
        return None
    t0 = time.perf_counter() if prof is not None else 0.0
    ptr, flat = _csr(template.preds)
    sinks = np.array(template.sinks(), dtype=np.int32)
    means = np.ascontiguousarray(template.means, dtype=float)
    variances = np.ascontiguousarray(template.variances, dtype=float)
    out = np.empty(cells)
    status = _c_normal(
        ptr.ctypes.data, flat.ctypes.data, ptr.size - 1, sinks.ctypes.data,
        sinks.size, means.ctypes.data, variances.ctypes.data, cells,
        sqrt2, inv_sqrt2pi, out.ctypes.data,
    )
    if status < 0:
        if prof is not None:
            prof.record("native_miss_normal", cells, 0, 0.0)
        return None
    if prof is not None:
        prof.record("native_normal", cells, 0, time.perf_counter() - t0)
    return out


#: Paths per cell the first :func:`k_best_paths` call makes room for
#: (MONTAGE's budget rounds ask for 32 to 512); a DAG that fills a larger
#: budget takes a second call with room for all of them.
_KBEST_PATHS = 4096


def k_best_paths(preds, sinks, means, k: int, var_rank):
    """The k-best path DP of every cell in one C call, or ``None`` when
    the numpy DP must run for all of them.

    Arguments are those of
    :func:`~repro.makespan.pathapprox._k_best_paths_cells`: ``means``
    and ``var_rank`` have one row per cell.  Returns ``(masks, served)``:
    ``masks[w, c, j]`` is word ``w`` (63 bits) of cell ``c``'s path
    ``j`` in rank space, as the numpy DP builds it, and ``served[c]`` is
    false for a cell the C declined (its rows of ``masks`` are
    unwritten): equal values among the first ``k + 1`` candidates of a
    node that truncates, or a NaN.  Returns ``None`` when kernels are
    off, ``k < 1`` or the structure is malformed (a predecessor that is
    not an earlier node, a sink or rank out of range, no sink, or rows
    that do not match the nodes).  Records the served cells as
    ``native_kbest`` rows and the others as ``native_miss_kbest``.
    """
    prof = _profile.ACTIVE
    cells = len(means)
    if not _fast_ok():
        if prof is not None:
            prof.record("native_miss_kbest", cells, 0, 0.0)
        return None
    t0 = time.perf_counter() if prof is not None else 0.0
    ptr, flat = _csr(preds)
    n = ptr.size - 1
    sink_arr = np.array(sinks, dtype=np.int32)
    means = np.ascontiguousarray(means, dtype=float)
    ranks = np.ascontiguousarray(var_rank, dtype=np.int64)
    served = np.zeros(cells, dtype=np.uint8)
    kk = -1
    if means.shape == ranks.shape == (cells, n) and k >= 1:
        # ctypes would wrap a budget past a long long; no mask buffer
        # holds that many paths, so the clamp changes no answer.
        k = min(k, 2**63 - 1)
        kcap = min(k, _KBEST_PATHS)
        while True:
            masks = np.empty((-(-n // 63), cells, kcap), dtype=np.int64)
            kk = _c_kbest(
                ptr.ctypes.data, flat.ctypes.data, n, sink_arr.ctypes.data,
                sink_arr.size, means.ctypes.data, ranks.ctypes.data, cells, k,
                kcap, masks.ctypes.data, served.ctypes.data,
            )
            if kk <= kcap:
                break
            kcap = kk
    if kk < 0:
        if prof is not None:
            prof.record("native_miss_kbest", cells, 0, 0.0)
        return None
    ok = served.astype(bool)
    if prof is not None:
        hit = int(np.count_nonzero(ok))
        if hit:
            prof.record("native_kbest", hit, 0, time.perf_counter() - t0)
        if hit < cells:
            prof.record("native_miss_kbest", cells - hit, 0, 0.0)
    return masks[:, :, :kk], ok
