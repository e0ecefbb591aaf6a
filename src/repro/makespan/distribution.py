"""Discrete distribution algebra for makespan evaluation.

Dodin's method and the path-based approximation manipulate distributions
of sums and maxima of independent 2-state variables.  Exact supports grow
exponentially under convolution, so :class:`DiscreteDistribution` keeps at
most ``max_atoms`` support points, merging excess atoms by cumulative-
probability binning: equal *probability* bins whose edges depend on the
data, each replaced by its conditional mean.  Binning preserves the mean
*exactly* and distorts the CDF by at most one bin of probability mass —
the property tests pin both facts down.

Kernel calls report to :mod:`repro.makespan.profile` when a collector is
active; the inactive hook is a single attribute load.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import native as _native
from repro.makespan import profile as _profile

__all__ = [
    "DiscreteDistribution",
    "DEFAULT_MAX_ATOMS",
    "TwoStateRows",
    "two_state_rows",
]

DEFAULT_MAX_ATOMS = 512


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
        construction — the native kernel wrappers, the python max and
        truncate kernels and :func:`two_state_rows`; going through ``__init__`` would
        re-run the sort/merge/normalise pipeline and must yield the
        identical arrays.
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
        self, other: "DiscreteDistribution", max_atoms: int = DEFAULT_MAX_ATOMS
    ) -> "DiscreteDistribution":
        """Distribution of ``X + Y`` for independent ``X``, ``Y``."""
        prof = _profile.ACTIVE
        if prof is None:
            return self._convolve(other, max_atoms)
        t0 = time.perf_counter()
        out = self._convolve(other, max_atoms)
        prof.record("convolve", 1, 1, time.perf_counter() - t0)
        return out

    def _convolve(
        self, other: "DiscreteDistribution", max_atoms: int
    ) -> "DiscreteDistribution":
        native_out = _native.convolve_dists(self, other, max_atoms)
        if native_out is not None:
            return native_out
        v = np.add.outer(self.values, other.values).ravel()
        p = np.multiply.outer(self.probs, other.probs).ravel()
        return DiscreteDistribution(v, p)._truncate(max_atoms)

    def max_with(
        self, other: "DiscreteDistribution", max_atoms: int = DEFAULT_MAX_ATOMS
    ) -> "DiscreteDistribution":
        """Distribution of ``max(X, Y)`` for independent ``X``, ``Y``.

        The CDF of the max is the product of the CDFs on the union of the
        supports.
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._max_with(other, max_atoms)
        t0 = time.perf_counter()
        out = self._max_with(other, max_atoms)
        prof.record("max", 1, 1, time.perf_counter() - t0)
        return out

    def _max_with(
        self, other: "DiscreteDistribution", max_atoms: int
    ) -> "DiscreteDistribution":
        native_out = _native.max_dists(self, other, max_atoms)
        if native_out is not None:
            return native_out
        grid = np.union1d(self.values, other.values)
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
        return DiscreteDistribution._wrap(v, p / total)._truncate(max_atoms)

    def truncate(self, max_atoms: int = DEFAULT_MAX_ATOMS) -> "DiscreteDistribution":
        """Reduce the support to ``max_atoms`` points, preserving the mean.

        Atoms are grouped into equal-probability bins, each replaced by
        its conditional mean; at most ``max_atoms`` data-dependent atoms
        come out.
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._truncate(max_atoms)
        t0 = time.perf_counter()
        out = self._truncate(max_atoms)
        prof.record("truncate", 1, 1, time.perf_counter() - t0)
        return out

    def _truncate(self, max_atoms: int) -> "DiscreteDistribution":
        if max_atoms < 1:
            raise EvaluationError(f"max_atoms must be >= 1, got {max_atoms}")
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

    def __repr__(self) -> str:
        return (
            f"DiscreteDistribution(atoms={self.n_atoms}, mean={self.mean():.6g}, "
            f"std={self.variance() ** 0.5:.3g})"
        )


class TwoStateRows:
    """2-state laws over an axis of entries (cells, or cells by nodes),
    held as atom planes.

    Entry ``i``'s law is the first ``size[i]`` atoms (one or two) of
    ``values[i]`` and ``probs[i]``, where ``i`` is a cell or a ``(cell,
    node)`` pair.  Indexing an entry wraps them as a
    :class:`DiscreteDistribution` (views of the planes); assigning an
    entry writes a law of at most two atoms into the planes.  A consumer
    that only copies atoms, such as the fold replay's arenas, reads the
    planes and builds no distribution.
    """

    __slots__ = ("values", "probs", "size")

    def __init__(
        self, values: np.ndarray, probs: np.ndarray, size: np.ndarray
    ) -> None:
        self.values = values
        self.probs = probs
        self.size = size

    def __len__(self) -> int:
        return len(self.size)

    def __getitem__(self, i) -> DiscreteDistribution:
        k = int(self.size[i])
        return DiscreteDistribution._wrap(self.values[i][:k], self.probs[i][:k])

    def __setitem__(self, i, law: DiscreteDistribution) -> None:
        k = law.values.size
        if k > 2:
            raise ValueError(f"a 2-state row holds at most 2 atoms, got {k}")
        self.values[i][:k] = law.values
        self.probs[i][:k] = law.probs
        self.size[i] = k

    def __iter__(self) -> Iterator[DiscreteDistribution]:
        return (self[c] for c in range(len(self)))


def two_state_rows(
    base: np.ndarray, long: np.ndarray, p: np.ndarray
) -> TwoStateRows:
    """2-state laws for every entry of equal-shape parameter arrays
    (one node's cells, or a template's ``(cells, n)`` planes), built in
    one vectorised pass.

    Equivalent to ``DiscreteDistribution.two_state(base[i], long[i],
    p[i])`` for every entry ``i``, atom for atom.  The generic entries
    (``0 < p < 1`` and ``long > base``) share one numpy construction,
    normalised like the scalar constructor (a length-2 row sum is ``(1 -
    p) + p`` either way); every other entry goes through the scalar
    constructor.
    """
    base = np.asarray(base, dtype=float)
    long = np.asarray(long, dtype=float)
    p = np.asarray(p, dtype=float)
    generic = (p > 0.0) & (p < 1.0) & (long > base)
    probs = np.stack([1.0 - p, p], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs /= probs.sum(axis=-1)[..., None]
    rows = TwoStateRows(
        np.stack([base, long], axis=-1),
        probs,
        np.full(base.shape, 2, dtype=np.int64),
    )
    for i in zip(*np.nonzero(~generic)):
        rows[i] = DiscreteDistribution.two_state(
            float(base[i]), float(long[i]), float(p[i])
        )
    return rows
