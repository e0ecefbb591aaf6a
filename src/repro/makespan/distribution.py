"""Discrete distribution algebra for makespan evaluation.

Dodin's method and the path-based approximation manipulate distributions
of sums and maxima of independent 2-state variables.  Exact supports grow
exponentially under convolution, so :class:`DiscreteDistribution` keeps at
most ``max_atoms`` support points, merging excess atoms by cumulative-
probability binning.  Binning preserves the mean *exactly* (each bin's
value is its conditional mean) and distorts the CDF by at most one bin of
probability mass — the property tests pin both facts down.

Two truncation modes are supported:

* ``"adaptive"`` (default, the bit-exactness reference): equal
  *probability* bins whose edges depend on the data — accurate, but the
  resulting atom counts are data-dependent, so this mode runs through
  the scalar (and native) kernels only;
* ``"rect"`` (rectangular, opt-in): equal *value-width* bins over the
  support range, always producing exactly ``max_atoms`` atoms from an
  over-budget support (and padding an under-budget one with zero-mass
  atoms on explicit :meth:`truncate` calls).  Deterministic bin edges,
  exact mean preservation, variance reduced by at most ``width²/4``;
  rows may carry zero-mass duplicate atoms (tolerated everywhere, the
  equal-value merge is skipped by design so widths stay shape-stable).

Kernel calls report to :mod:`repro.makespan.profile` when a collector is
active; the inactive hook is a single attribute load.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import native as _native
from repro.makespan import profile as _profile

__all__ = [
    "DiscreteDistribution",
    "DEFAULT_MAX_ATOMS",
    "MODE_ADAPTIVE",
    "MODE_RECT",
    "TRUNCATE_MODES",
    "two_state_rows",
]

DEFAULT_MAX_ATOMS = 512

#: Data-dependent equal-probability binning (the reference semantics).
MODE_ADAPTIVE = "adaptive"
#: Fixed-width value binning with shape-stable atom counts.
MODE_RECT = "rect"
TRUNCATE_MODES = (MODE_ADAPTIVE, MODE_RECT)


def check_mode(mode: str) -> None:
    """Reject unknown truncation modes with a uniform error."""
    if mode not in TRUNCATE_MODES:
        raise EvaluationError(
            f"unknown truncate mode {mode!r}; choose from {TRUNCATE_MODES}"
        )


def _rect_bin_rows(
    values: np.ndarray, probs: np.ndarray, max_atoms: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-width binning of sorted, normalised rows to ``max_atoms``.

    The single rectangular kernel behind every rect-mode op (the scalar
    kernels feed one-row views).  Dispatches to the compiled kernel
    when :mod:`repro.makespan.native` is enabled; the numpy body below
    is the bit-exactness reference and the fallback.
    """
    out = _native.rect_bin_rows(values, probs, max_atoms)
    if out is not None:
        return out
    return _rect_bin_rows_py(values, probs, max_atoms)


def _rect_bin_rows_py(
    values: np.ndarray, probs: np.ndarray, max_atoms: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pure-numpy rectangular binning (the reference implementation).

    Bin edges are deterministic functions of each row's support range:
    ``max_atoms`` equal-width bins spanning ``[values[0], values[-1]]``.
    Massy bins take their conditional mean (so the mean is preserved
    exactly up to summation rounding); empty bins take their centre with
    zero mass — every output row has exactly ``max_atoms`` atoms.
    """
    c = values.shape[0]
    lo = values[:, 0]
    span = values[:, -1] - lo
    # A zero span (all atoms equal) degenerates to a point mass in bin 0.
    safe_span = np.where(span > 0.0, span, 1.0)
    scaled = (values - lo[:, None]) / safe_span[:, None] * max_atoms
    bins = np.minimum(scaled.astype(int), max_atoms - 1)
    # Scatter-add via flattened bincount (much faster than np.add.at);
    # row-major traversal accumulates each bin in left-to-right atom
    # order, the order the compiled kernel reproduces.
    flat = (bins + np.arange(c)[:, None] * max_atoms).ravel()
    size = c * max_atoms
    masses = np.bincount(flat, weights=probs.ravel(), minlength=size).reshape(
        c, max_atoms
    )
    weighted = np.bincount(
        flat, weights=(probs * values).ravel(), minlength=size
    ).reshape(c, max_atoms)
    width = span / max_atoms
    centers = lo[:, None] + (np.arange(max_atoms) + 0.5) * width[:, None]
    has_mass = masses > 0
    out_values = np.where(
        has_mass, weighted / np.where(has_mass, masses, 1.0), centers
    )
    totals = masses.sum(axis=1)
    return out_values, masses / totals[:, None]


class DiscreteDistribution:
    """A finite discrete distribution with sorted support.

    Immutable; all operators return new instances.  Probabilities are
    renormalised on construction to guard against floating-point drift.
    """

    __slots__ = ("values", "probs", "_addrs")

    def __init__(
        self, values: Iterable[float], probs: Iterable[float], _sorted: bool = False
    ) -> None:
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
        p = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise EvaluationError(
                f"values/probs must be equal-length 1-D arrays, got "
                f"{v.shape} and {p.shape}"
            )
        if np.any(p < -1e-12):
            raise EvaluationError("negative probability atom")
        if not _sorted:
            order = np.argsort(v, kind="stable")
            v = v[order]
            p = p[order]
        # Merge exactly-equal support points.  The support is sorted, so
        # the group index is a cumsum over run starts — same mapping as
        # ``np.unique(..., return_inverse=True)`` without its redundant
        # re-sort.  The ``np.add.at`` scatter is kept deliberately: its
        # strictly sequential accumulation is the bit-exact reference
        # order (a reduceat would sum pairwise and drift in the last
        # bits on long runs).
        if v.size > 1 and (v[1:] == v[:-1]).any():
            starts = np.empty(v.size, dtype=bool)
            starts[0] = True
            starts[1:] = v[1:] != v[:-1]
            inverse = np.cumsum(starts) - 1
            uniq = v[starts]
            merged = np.zeros_like(uniq)
            np.add.at(merged, inverse, p)
            v, p = uniq, merged
        total = float(p.sum())
        if not np.isfinite(total) or total <= 0:
            raise EvaluationError(f"probabilities sum to {total}")
        self.values = v
        self.probs = p / total
        # Lazily-filled (values.ctypes.data, probs.ctypes.data) cache for
        # the native kernels; never pickled (addresses are process-local).
        self._addrs = None

    def __getstate__(self):
        return (self.values, self.probs)

    def __setstate__(self, state):
        self.values, self.probs = state
        self._addrs = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def point(cls, value: float) -> "DiscreteDistribution":
        """The Dirac distribution at ``value``."""
        return cls._wrap(np.array([value]), np.array([1.0]))

    @classmethod
    def _wrap(cls, values: np.ndarray, probs: np.ndarray) -> "DiscreteDistribution":
        """Wrap arrays already in canonical form (sorted support, equal
        values merged, probabilities normalised) without re-validating.

        Internal fast path for code that produces canonical arrays by
        construction — the native kernel wrappers, the rect kernels and
        :func:`two_state_rows`; going through ``__init__`` would re-run
        the sort/merge/normalise pipeline and must yield the identical
        arrays.
        Rectangular-mode rows relax "merged" to "sorted": they may carry
        zero-mass duplicate atoms, which every consumer tolerates.
        """
        dist = cls.__new__(cls)
        dist.values = values
        dist.probs = probs
        dist._addrs = None
        return dist

    @classmethod
    def two_state(
        cls, base: float, long: float, p: float
    ) -> "DiscreteDistribution":
        """``base`` w.p. ``1-p``, ``long`` w.p. ``p`` (Equation (1))."""
        if p <= 0.0:
            return cls.point(base)
        if p >= 1.0:
            return cls.point(long)
        if long == base:
            return cls.point(base)
        return cls(
            np.array([base, long]), np.array([1.0 - p, p]), _sorted=base <= long
        )

    # ------------------------------------------------------------------ #
    # moments / cdf
    # ------------------------------------------------------------------ #

    @property
    def n_atoms(self) -> int:
        """Number of support points."""
        return int(self.values.size)

    def mean(self) -> float:
        """Expected value."""
        return float(self.values @ self.probs)

    def variance(self) -> float:
        """Variance."""
        m = self.mean()
        return float(((self.values - m) ** 2) @ self.probs)

    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""
        return float(self.probs[: int(np.searchsorted(self.values, x, "right"))].sum())

    def quantile(self, q: float) -> float:
        """Smallest support point with cumulative probability >= ``q``."""
        if not (0.0 <= q <= 1.0):
            raise EvaluationError(f"quantile level {q} outside [0, 1]")
        cum = np.cumsum(self.probs)
        idx = int(np.searchsorted(cum, q, "left"))
        return float(self.values[min(idx, self.values.size - 1)])

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def shift(self, offset: float) -> "DiscreteDistribution":
        """Distribution of ``X + offset``."""
        return DiscreteDistribution(self.values + offset, self.probs, _sorted=True)

    def convolve(
        self,
        other: "DiscreteDistribution",
        max_atoms: int = DEFAULT_MAX_ATOMS,
        mode: str = MODE_ADAPTIVE,
    ) -> "DiscreteDistribution":
        """Distribution of ``X + Y`` for independent ``X``, ``Y``."""
        prof = _profile.ACTIVE
        if prof is None:
            return self._convolve(other, max_atoms, mode)
        t0 = time.perf_counter()
        out = self._convolve(other, max_atoms, mode)
        prof.record("convolve", 1, 1, time.perf_counter() - t0)
        return out

    def _convolve(
        self, other: "DiscreteDistribution", max_atoms: int, mode: str
    ) -> "DiscreteDistribution":
        if mode == MODE_ADAPTIVE:
            native_out = _native.convolve_dists(self, other, max_atoms)
            if native_out is not None:
                return native_out
        v = np.add.outer(self.values, other.values).ravel()
        p = np.multiply.outer(self.probs, other.probs).ravel()
        if mode == MODE_ADAPTIVE:
            return DiscreteDistribution(v, p)._truncate(max_atoms, mode)
        check_mode(mode)
        order = np.argsort(v, kind="stable")
        v = v[order]
        p = p[order]
        total = float(p.sum())
        if not np.isfinite(total) or total <= 0:
            raise EvaluationError(f"probabilities sum to {total}")
        p = p / total
        if v.size <= max_atoms:
            return DiscreteDistribution._wrap(v, p)
        values, probs = _rect_bin_rows(v[None, :], p[None, :], max_atoms)
        return DiscreteDistribution._wrap(values[0], probs[0])

    def max_with(
        self,
        other: "DiscreteDistribution",
        max_atoms: int = DEFAULT_MAX_ATOMS,
        mode: str = MODE_ADAPTIVE,
    ) -> "DiscreteDistribution":
        """Distribution of ``max(X, Y)`` for independent ``X``, ``Y``.

        The CDF of the max is the product of the CDFs on the union of the
        supports (rectangular mode keeps the *concatenated* supports —
        duplicates carry zero incremental mass — so the output width is
        a shape-stable function of the input widths).
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._max_with(other, max_atoms, mode)
        t0 = time.perf_counter()
        out = self._max_with(other, max_atoms, mode)
        prof.record("max", 1, 1, time.perf_counter() - t0)
        return out

    def _max_with(
        self, other: "DiscreteDistribution", max_atoms: int, mode: str
    ) -> "DiscreteDistribution":
        if mode == MODE_ADAPTIVE:
            native_out = _native.max_dists(self, other, max_atoms)
            if native_out is not None:
                return native_out
            grid = np.union1d(self.values, other.values)
        else:
            check_mode(mode)
            grid = np.sort(np.concatenate([self.values, other.values]))
        idx1 = np.searchsorted(self.values, grid, "right")
        f1 = np.cumsum(self.probs)[idx1 - 1]
        # searchsorted-1 is -1 for grid points below the support minimum;
        # CDF there is 0.
        f1 = np.where(idx1 == 0, 0.0, f1)
        idx2 = np.searchsorted(other.values, grid, "right")
        f2 = np.cumsum(other.probs)[idx2 - 1]
        f2 = np.where(idx2 == 0, 0.0, f2)
        f = f1 * f2
        probs = np.empty_like(f)
        probs[0] = f[0]
        probs[1:] = f[1:] - f[:-1]
        if mode == MODE_RECT:
            total = float(probs.sum())
            if not np.isfinite(total) or total <= 0:
                raise EvaluationError(f"probabilities sum to {total}")
            probs = probs / total
            if grid.size <= max_atoms:
                return DiscreteDistribution._wrap(grid, probs)
            values, probs = _rect_bin_rows(
                grid[None, :], probs[None, :], max_atoms
            )
            return DiscreteDistribution._wrap(values[0], probs[0])
        keep = probs > 0
        if not np.any(keep):  # numerically degenerate; keep the top atom
            keep[-1] = True
            probs[-1] = 1.0
        # The kept grid is strictly increasing (union grid) and the kept
        # probabilities are positive, so the canonicalising constructor
        # would only renormalise — do exactly that and skip its scans.
        v = grid[keep]
        p = probs[keep]
        total = float(p.sum())
        if not np.isfinite(total) or total <= 0:
            raise EvaluationError(f"probabilities sum to {total}")
        return DiscreteDistribution._wrap(v, p / total)._truncate(max_atoms, mode)

    def truncate(
        self, max_atoms: int = DEFAULT_MAX_ATOMS, mode: str = MODE_ADAPTIVE
    ) -> "DiscreteDistribution":
        """Reduce the support to ``max_atoms`` points, preserving the mean.

        ``"adaptive"`` (default) groups atoms into equal-probability
        bins, each replaced by its conditional mean; at most
        ``max_atoms`` data-dependent atoms come out.  ``"rect"`` bins by
        equal value width and always returns **exactly** ``max_atoms``
        atoms — an under-budget support is padded with zero-mass copies
        of its top atom, which makes the call idempotent at fixed width.
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._truncate(max_atoms, mode)
        t0 = time.perf_counter()
        out = self._truncate(max_atoms, mode)
        prof.record("truncate", 1, 1, time.perf_counter() - t0)
        return out

    def _truncate(self, max_atoms: int, mode: str) -> "DiscreteDistribution":
        if max_atoms < 1:
            raise EvaluationError(f"max_atoms must be >= 1, got {max_atoms}")
        if mode != MODE_ADAPTIVE:
            check_mode(mode)
            return self._truncate_rect(max_atoms)
        if self.n_atoms <= max_atoms:
            return self
        native_out = _native.truncate_dist(self, max_atoms)
        if native_out is not None:
            return native_out
        cum = np.cumsum(self.probs)
        # bin index of each atom by cumulative probability
        bins = np.minimum(
            (cum - self.probs * 0.5) * max_atoms, max_atoms - 1e-9
        ).astype(int)
        # Guarantee monotone bins (cumulative rounding can repeat).
        bins = np.maximum.accumulate(bins)
        # The sequential ``np.add.at`` scatter is the bit-exact reference
        # accumulation order (reduceat sums pairwise and drifts in the
        # last bits on long runs — pinned by the batch parity tests).
        masses = np.zeros(int(bins[-1]) + 1)
        np.add.at(masses, bins, self.probs)
        weighted = np.zeros_like(masses)
        np.add.at(weighted, bins, self.probs * self.values)
        keep = masses > 0
        v = weighted[keep] / masses[keep]
        p = masses[keep]
        # Conditional means of consecutive bins over a strictly
        # increasing canonical support are strictly increasing (each
        # mean lies between its bin's extremes, and adjacent bins'
        # extremes don't interleave), so the canonicalising re-sort and
        # merge in __init__ are the identity — skip them.  The guard
        # routes any floating-point tie back through the full
        # constructor, which is the reference for that case.
        if v.size > 1 and bool((v[1:] <= v[:-1]).any()):
            return DiscreteDistribution(v, p)
        total = float(p.sum())
        return DiscreteDistribution._wrap(v, p / total)

    def _truncate_rect(self, max_atoms: int) -> "DiscreteDistribution":
        n = self.n_atoms
        if n == max_atoms:
            return self
        if n < max_atoms:
            pad = max_atoms - n
            return DiscreteDistribution._wrap(
                np.concatenate([self.values, np.full(pad, self.values[-1])]),
                np.concatenate([self.probs, np.zeros(pad)]),
            )
        values, probs = _rect_bin_rows(
            self.values[None, :], self.probs[None, :], max_atoms
        )
        return DiscreteDistribution._wrap(values[0], probs[0])

    def __repr__(self) -> str:
        return (
            f"DiscreteDistribution(atoms={self.n_atoms}, mean={self.mean():.6g}, "
            f"std={self.variance() ** 0.5:.3g})"
        )


def two_state_rows(
    base: np.ndarray, long: np.ndarray, p: np.ndarray
) -> List[DiscreteDistribution]:
    """Per-cell 2-state laws for one node, built in one vectorised pass.

    Equivalent to ``[DiscreteDistribution.two_state(base[c], long[c],
    p[c]) for c in cells]`` atom for atom.  The generic cells (``0 < p <
    1`` and ``long > base``) share one numpy construction, normalised
    like the scalar constructor (a length-2 row sum is ``(1 - p) + p``
    either way); every other cell goes through the scalar constructor.
    """
    base = np.asarray(base, dtype=float)
    long = np.asarray(long, dtype=float)
    p = np.asarray(p, dtype=float)
    generic = (p > 0.0) & (p < 1.0) & (long > base)
    rows: List[DiscreteDistribution] = [None] * base.size  # type: ignore[list-item]
    cells = np.flatnonzero(generic)
    values = np.stack([base[cells], long[cells]], axis=1)
    probs = np.stack([1.0 - p[cells], p[cells]], axis=1)
    probs /= probs.sum(axis=1)[:, None]
    for c, v, q in zip(cells, values, probs):
        rows[c] = DiscreteDistribution._wrap(v, q)
    for c in np.flatnonzero(~generic):
        rows[c] = DiscreteDistribution.two_state(
            float(base[c]), float(long[c]), float(p[c])
        )
    return rows
