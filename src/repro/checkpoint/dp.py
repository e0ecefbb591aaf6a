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
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.checkpoint.segments import SuperchainCostModel
from repro.errors import CheckpointError

__all__ = ["optimal_checkpoint_positions", "dp_from_table"]


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
