"""Algorithm 2: optimal checkpoint positions in a superchain.

The dynamic program minimises the expected time to execute tasks
``T_a..T_b`` with a mandatory checkpoint after ``T_b`` (which removes
crossover dependencies, §IV-A):

.. math::

   ETime(j) = \\min\\Big(T(a, j),\\; \\min_{a \\le i < j}
   \\{ETime(i) + T(i{+}1, j)\\}\\Big)

where ``T(i, j)`` is the first-order expected time of segment ``[i..j]``
(Equation (2), provided by
:class:`repro.checkpoint.segments.SuperchainCostModel`).  Since each entry
scans ``O(n)`` predecessors over an ``O(n²)`` precomputed cost table, the
total cost is ``O(n²)``, matching the paper's bound.

The paper's pseudo-code backtracks with a sentinel ``last_ckpt = 0``; we
use ``-1`` ("no earlier checkpoint") to keep 0 a valid position.

:func:`dp_from_table` runs the recursion on one table, entry by entry;
:func:`dp_columns` runs it on many padded tables at once, one column per
step, and picks exactly what the scalar scan picks.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.checkpoint.segments import SuperchainCostModel
from repro.errors import CheckpointError

__all__ = ["optimal_checkpoint_positions", "dp_from_table", "dp_columns"]


def dp_from_table(table: np.ndarray) -> Tuple[List[int], float]:
    """Run the DP on a precomputed ``T(i, j)`` table.

    Returns ``(positions, expected_time)`` where ``positions`` are the
    0-based indices *after which* a checkpoint is taken, in increasing
    order; the last index ``n-1`` is always included.
    """
    n = table.shape[0]
    if n == 0:
        return [], 0.0
    if table.shape != (n, n):
        raise CheckpointError(f"cost table must be square, got {table.shape}")

    rows = np.asarray(table, dtype=float).tolist()
    etime: List[float] = []
    last: List[int] = []
    for j in range(n):
        best = rows[0][j]
        arg = -1
        for i in range(j):
            cand = etime[i] + rows[i + 1][j]
            if cand < best:
                best = cand
                arg = i
        etime.append(best)
        last.append(arg)

    positions: List[int] = []
    j = n - 1
    while j >= 0:
        positions.append(j)
        j = last[j]
    positions.reverse()
    return positions, etime[n - 1]


#: Table entries :func:`dp_columns` asks for per block of columns.
BLOCK = 1 << 14


def dp_columns(
    columns: Callable[[int, int], np.ndarray], lengths: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the DP on many tables at once, one column per step.

    Row ``r`` is a table of ``1 <= lengths[r] <= width`` positions;
    ``columns(lo, hi)`` gives ``T(i, j)`` of every row for all ``i`` and
    ``lo <= j < hi`` as a ``(rows, width, hi - lo)`` array, asked for in
    blocks of about :data:`BLOCK` entries (entries outside a row's table
    are never read back).  Returns ``(cuts, etime)``: ``cuts[r, k]``
    marks the positions :func:`dp_from_table` returns for row ``r``, and
    ``etime[r]`` its ``ETime(n - 1)``, bit for bit.

    Column ``j``'s candidates are ``T(0, j)`` then ``ETime(i) + T(i + 1,
    j)``.  The scalar scan keeps a candidate only if it is strictly below
    the best so far, so ``argmin`` must pick the first minimum, and a NaN
    inner candidate must never win: it is masked to ``+inf``, which
    cannot beat the first candidate.  A NaN first candidate stays, and
    ``argmin`` returns it, so ``ETime(j)`` stays NaN with no earlier
    checkpoint.
    """
    rows = len(lengths)
    index = np.arange(rows)
    etime = np.empty((rows, width))
    last = np.empty((rows, width), dtype=np.intp)
    cand = np.empty((rows, width))
    step = max(1, BLOCK // max(1, rows * width))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, width, step):
            block = columns(lo, min(lo + step, width))
            for j in range(lo, min(lo + step, width)):
                column = cand[:, : j + 1]
                column[:, 0] = block[:, 0, j - lo]
                inner = column[:, 1:]
                np.add(etime[:, :j], block[:, 1 : j + 1, j - lo], out=inner)
                np.fmin(inner, np.inf, out=inner)
                arg = column.argmin(axis=1)
                etime[:, j] = column[index, arg]
                last[:, j] = arg - 1
    cuts = np.zeros((rows, width), dtype=bool)
    at = np.asarray(lengths, dtype=np.intp) - 1
    final = etime[index, at]
    while (at >= 0).any():
        alive = at >= 0
        cuts[index[alive], at[alive]] = True
        at = np.where(alive, last[index, np.maximum(at, 0)], -1)
    return cuts, final


def optimal_checkpoint_positions(
    cost: SuperchainCostModel,
) -> Tuple[List[int], float]:
    """Optimal checkpoint positions for one superchain (Algorithm 2).

    Returns the 0-based positions after which to checkpoint (always
    including the final task) and the superchain's optimal expected time
    ``ETime(b)``.
    """
    table = cost.expected_time_table()
    return dp_from_table(table)
