"""Vectorised :class:`DiscreteDistribution` kernels with a leading cell axis.

A sweep group prices the same DAG structure under many parameter cells,
so the rectangular-mode distribution algebra gets a batched
counterpart: :class:`BatchDistribution` holds ``n_cells`` independent
distributions as ``(n_cells, n_atoms)`` arrays and implements
convolution, maximum and fixed-width truncation over the whole stack at
once — one NumPy pass instead of ``n_cells`` Python-level kernel calls.

**The bit-identity contract.**  Every batched operation produces, for
each row, *exactly* the atoms the scalar
:class:`~repro.makespan.distribution.DiscreteDistribution` operation
would produce for that cell in ``"rect"`` mode — same values, same
probabilities, bit for bit.  Every per-row reduction (stable argsort,
cumulative sums, row sums of equal length, the shared
:func:`~repro.makespan.distribution._rect_bin_rows` binning) performs
the same floating-point operations in the same order as its scalar
counterpart.  Rect atom counts are shape-stable functions of the input
widths (no equal-value merges, no dropped zero-mass atoms, fixed-width
binning), so every result is again a :class:`BatchDistribution`.

The default ``"adaptive"`` mode has no batched kernels: its atom counts
are data-dependent, and batched versions that finalised ragged rows
through the scalar kernel lost to plain scalar loops at every measured
width.  Adaptive work runs through the scalar (and native) kernels.

Kernel calls report rows processed to :mod:`repro.makespan.profile`
when a collector is active.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import profile as _profile
from repro.makespan.distribution import (
    DEFAULT_MAX_ATOMS,
    MODE_RECT,
    DiscreteDistribution,
    _rect_bin_rows,
)

__all__ = ["BatchDistribution", "two_state_rows"]


def two_state_rows(
    base: np.ndarray, long: np.ndarray, p: np.ndarray
) -> List[DiscreteDistribution]:
    """Per-cell 2-state laws for one node, built in one vectorised pass.

    Equivalent to ``[DiscreteDistribution.two_state(base[c], long[c],
    p[c]) for c in cells]`` atom for atom.  Degenerate cells (``p <= 0``,
    ``p >= 1`` or ``long == base`` — single-atom laws) are built through
    the scalar constructor; the generic 2-atom cells share one batched
    construction.
    """
    base = np.asarray(base, dtype=float)
    long = np.asarray(long, dtype=float)
    p = np.asarray(p, dtype=float)
    degenerate = (p <= 0.0) | (p >= 1.0) | (long == base)
    rows: List[DiscreteDistribution] = [None] * base.size  # type: ignore[list-item]
    if not degenerate.all():
        ok = ~degenerate
        batch = BatchDistribution.two_state(base[ok], long[ok], p[ok])
        for slot, row in zip(np.flatnonzero(ok), batch.rows()):
            rows[slot] = row
    for c in np.flatnonzero(degenerate):
        rows[c] = DiscreteDistribution.two_state(
            float(base[c]), float(long[c]), float(p[c])
        )
    return rows


class BatchDistribution:
    """``n_cells`` independent finite distributions, one per row.

    Rows are canonical (sorted support, equal values merged,
    probabilities normalised) — exactly the invariant of the scalar
    class, enforced per row.  Rows produced by the kernels relax
    "merged" to "sorted": they may carry zero-mass duplicate atoms.
    Instances are immutable; all operators return new objects.
    """

    __slots__ = ("values", "probs")

    def __init__(
        self, values: np.ndarray, probs: np.ndarray, _canonical: bool = False
    ) -> None:
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 2 or values.shape != probs.shape or values.size == 0:
            raise EvaluationError(
                f"values/probs must be equal-shape (n_cells, n_atoms) "
                f"arrays, got {values.shape} and {probs.shape}"
            )
        if _canonical:
            self.values = values
            self.probs = probs
            return
        # Canonicalise per row through the scalar constructor (the
        # reference semantics); uniform widths are re-stacked.
        rows = [
            DiscreteDistribution(values[i], probs[i])
            for i in range(values.shape[0])
        ]
        width = rows[0].n_atoms
        if any(r.n_atoms != width for r in rows):
            raise EvaluationError(
                "rows canonicalise to different atom counts; build ragged "
                "batches with BatchDistribution.stack or keep them as lists"
            )
        self.values = np.array([r.values for r in rows])
        self.probs = np.array([r.probs for r in rows])

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def stack(cls, dists: Sequence[DiscreteDistribution]) -> "BatchDistribution":
        """Stack scalar distributions of equal atom count into a batch."""
        dists = list(dists)
        if not dists:
            raise EvaluationError("stack needs at least one distribution")
        width = dists[0].n_atoms
        if any(d.n_atoms != width for d in dists):
            raise EvaluationError(
                f"cannot stack distributions with differing atom counts "
                f"{sorted({d.n_atoms for d in dists})}"
            )
        return cls(
            np.array([d.values for d in dists]),
            np.array([d.probs for d in dists]),
            _canonical=True,
        )

    @classmethod
    def point(cls, value: float, n_cells: int) -> "BatchDistribution":
        """``n_cells`` copies of the Dirac distribution at ``value``."""
        if n_cells < 1:
            raise EvaluationError(f"n_cells must be >= 1, got {n_cells}")
        return cls(
            np.full((n_cells, 1), float(value)),
            np.ones((n_cells, 1)),
            _canonical=True,
        )

    @classmethod
    def two_state(
        cls, base: np.ndarray, long: np.ndarray, p: np.ndarray
    ) -> "BatchDistribution":
        """Per-cell 2-state laws (Equation (1)); generic cells only.

        Every cell must satisfy ``0 < p < 1`` and ``long > base`` (the
        uniform 2-atom case); route mixed batches through
        :func:`two_state_rows`, which handles degenerate cells.
        """
        base = np.asarray(base, dtype=float)
        long = np.asarray(long, dtype=float)
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0.0) | (p >= 1.0) | (long <= base)):
            raise EvaluationError(
                "batched two_state requires 0 < p < 1 and long > base in "
                "every cell; use two_state_rows for degenerate cells"
            )
        values = np.stack([base, long], axis=1)
        probs = np.stack([1.0 - p, p], axis=1)
        # Same normalisation as the scalar path: a length-2 sum is the
        # sequential (1-p) + p in both layouts.
        totals = probs.sum(axis=1)
        return cls(values, probs / totals[:, None], _canonical=True)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Number of stacked distributions."""
        return int(self.values.shape[0])

    @property
    def n_atoms(self) -> int:
        """Shared number of support points per row."""
        return int(self.values.shape[1])

    def row(self, i: int) -> DiscreteDistribution:
        """Cell ``i`` as a scalar distribution (shares the row arrays)."""
        return DiscreteDistribution._wrap(self.values[i], self.probs[i])

    def rows(self) -> List[DiscreteDistribution]:
        """All cells as scalar distributions, in order."""
        return [self.row(i) for i in range(self.n_cells)]

    def mean(self) -> np.ndarray:
        """Per-cell expected values.

        Computed row by row with the scalar ``values @ probs`` dot so
        each entry is bit-identical to ``self.row(i).mean()`` (a fused
        batched reduction could associate the sum differently).
        """
        return np.array(
            [float(self.values[i] @ self.probs[i]) for i in range(self.n_cells)]
        )

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def shift(self, offset) -> "BatchDistribution":
        """Per-cell distribution of ``X + offset`` (scalar or per-cell)."""
        offset = np.asarray(offset, dtype=float)
        if offset.ndim == 1:
            offset = offset[:, None]
        return BatchDistribution(
            self.values + offset, self.probs, _canonical=True
        )

    def convolve(
        self, other: "BatchDistribution", max_atoms: int = DEFAULT_MAX_ATOMS
    ) -> "BatchDistribution":
        """Per-cell ``X + Y`` for independent stacks (rect mode)."""
        self._check_cells(other)
        prof = _profile.ACTIVE
        if prof is None:
            return self._convolve(other, max_atoms)
        t0 = time.perf_counter()
        out = self._convolve(other, max_atoms)
        prof.record(
            "batch_convolve", self.n_cells, 0, time.perf_counter() - t0
        )
        return out

    def _convolve(
        self, other: "BatchDistribution", max_atoms: int
    ) -> "BatchDistribution":
        c = self.n_cells
        values = (self.values[:, :, None] + other.values[:, None, :]).reshape(c, -1)
        probs = (self.probs[:, :, None] * other.probs[:, None, :]).reshape(c, -1)
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        probs = np.take_along_axis(probs, order, axis=1)
        return self._rect_finalise(other, values, probs, max_atoms, "_convolve")

    def max_with(
        self, other: "BatchDistribution", max_atoms: int = DEFAULT_MAX_ATOMS
    ) -> "BatchDistribution":
        """Per-cell ``max(X, Y)`` for independent stacks (rect mode).

        A CDF product over the sorted concatenated supports — constant
        width, so the rows never go ragged.
        """
        self._check_cells(other)
        prof = _profile.ACTIVE
        if prof is None:
            return self._max_with(other, max_atoms)
        t0 = time.perf_counter()
        out = self._max_with(other, max_atoms)
        prof.record("batch_max", self.n_cells, 0, time.perf_counter() - t0)
        return out

    def _max_with(
        self, other: "BatchDistribution", max_atoms: int
    ) -> "BatchDistribution":
        c, a1 = self.values.shape
        concat = np.concatenate([self.values, other.values], axis=1)
        order = np.argsort(concat, axis=1, kind="stable")
        both = np.take_along_axis(concat, order, axis=1)
        w = both.shape[1]
        # searchsorted(..., "right") without the per-row loop: the rank
        # counts (cumsum of operand origin) are exact at the *last*
        # position of each equal-value run — the stable sort puts all
        # a-copies of a value before its b-copies, so the run end has
        # every copy ≤ it — and searchsorted depends only on the value,
        # so every position reads its run end's count.
        is_end = np.empty((c, w), dtype=bool)
        is_end[:, -1] = True
        is_end[:, :-1] = both[:, 1:] != both[:, :-1]
        origin_a = order < a1
        idx1 = np.cumsum(origin_a, axis=1)
        idx2 = np.cumsum(~origin_a, axis=1)
        if not is_end.all():
            pos = np.arange(w)
            marked = np.where(is_end, pos[None, :], w)
            end_idx = np.minimum.accumulate(marked[:, ::-1], axis=1)[:, ::-1]
            idx1 = np.take_along_axis(idx1, end_idx, axis=1)
            idx2 = np.take_along_axis(idx2, end_idx, axis=1)
        f1 = np.take_along_axis(
            np.cumsum(self.probs, axis=1), np.maximum(idx1 - 1, 0), axis=1
        )
        f1 = np.where(idx1 == 0, 0.0, f1)
        f2 = np.take_along_axis(
            np.cumsum(other.probs, axis=1), np.maximum(idx2 - 1, 0), axis=1
        )
        f2 = np.where(idx2 == 0, 0.0, f2)
        f = f1 * f2
        probs = np.empty_like(f)
        probs[:, 0] = f[:, 0]
        probs[:, 1:] = f[:, 1:] - f[:, :-1]
        return self._rect_finalise(other, both, probs, max_atoms, "_max_with")

    def _rect_finalise(
        self,
        other: "BatchDistribution",
        values: np.ndarray,
        probs: np.ndarray,
        max_atoms: int,
        op: str,
    ) -> "BatchDistribution":
        """Normalise sorted rows and apply rectangular binning.

        Shape-stable by construction: every row keeps the same width.
        Rows with a non-positive or non-finite mass total re-raise
        through the scalar kernel (same error, same message).
        """
        totals = probs.sum(axis=1)
        bad = ~(np.isfinite(totals) & (totals > 0))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            getattr(self.row(i), op)(other.row(i), max_atoms, MODE_RECT)
            raise EvaluationError(  # pragma: no cover — scalar raises first
                f"probabilities sum to {totals[i]}"
            )
        probs = probs / totals[:, None]
        if values.shape[1] > max_atoms:
            values, probs = _rect_bin_rows(values, probs, max_atoms)
        return BatchDistribution(values, probs, _canonical=True)

    def truncate(self, max_atoms: int = DEFAULT_MAX_ATOMS) -> "BatchDistribution":
        """Per-cell fixed-width truncation to exactly ``max_atoms`` points.

        Bins by equal value width; an under-budget stack is padded with
        zero-mass copies of each row's top atom, so the result always has
        exactly ``max_atoms`` columns.
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._truncate(max_atoms)
        t0 = time.perf_counter()
        out = self._truncate(max_atoms)
        prof.record(
            "batch_truncate", self.n_cells, 0, time.perf_counter() - t0
        )
        return out

    def _truncate(self, max_atoms: int) -> "BatchDistribution":
        if max_atoms < 1:
            raise EvaluationError(f"max_atoms must be >= 1, got {max_atoms}")
        n = self.n_atoms
        if n == max_atoms:
            return self
        if n < max_atoms:
            pad = max_atoms - n
            return BatchDistribution(
                np.concatenate(
                    [self.values, np.repeat(self.values[:, -1:], pad, axis=1)],
                    axis=1,
                ),
                np.concatenate(
                    [self.probs, np.zeros((self.n_cells, pad))], axis=1
                ),
                _canonical=True,
            )
        values, probs = _rect_bin_rows(self.values, self.probs, max_atoms)
        return BatchDistribution(values, probs, _canonical=True)

    def _check_cells(self, other: "BatchDistribution") -> None:
        if self.n_cells != other.n_cells:
            raise EvaluationError(
                f"batch cell counts disagree: {self.n_cells} vs {other.n_cells}"
            )

    def __repr__(self) -> str:
        return (
            f"BatchDistribution(cells={self.n_cells}, atoms={self.n_atoms})"
        )

