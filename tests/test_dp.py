"""Tests for Algorithm 2 (checkpoint DP) and the Toueg-Babaoğlu oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.dp import (
    dp_columns,
    dp_from_table,
    optimal_checkpoint_positions,
)
from repro.checkpoint.segments import SuperchainCostModel
from repro.checkpoint.toueg_babaoglu import toueg_babaoglu_chain
from repro.errors import CheckpointError
from repro.makespan.two_state import first_order_expected_time
from repro.platform import Platform
from repro.scheduling.schedule import Superchain
from repro.util.rng import as_rng
from tests.conftest import make_chain, make_fig4_workflow


def brute_force(table: np.ndarray):
    """Minimum over all checkpoint-position subsets (last always taken)."""
    n = table.shape[0]
    best = None
    best_positions = None
    for r in range(n):
        for mids in combinations(range(n - 1), r):
            positions = list(mids) + [n - 1]
            start = 0
            total = 0.0
            for end in positions:
                total += table[start, end]
                start = end + 1
            if best is None or total < best - 1e-12:
                best = total
                best_positions = positions
    return best_positions, best


class TestDpFromTable:
    def test_empty(self):
        assert dp_from_table(np.zeros((0, 0))) == ([], 0.0)

    def test_single(self):
        table = np.array([[7.0]])
        assert dp_from_table(table) == ([0], 7.0)

    def test_always_checkpoints_last(self):
        table = np.full((4, 4), 1.0)
        positions, _ = dp_from_table(table)
        assert positions[-1] == 3

    def test_rejects_non_square(self):
        with pytest.raises(CheckpointError):
            dp_from_table(np.zeros((2, 3)))

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, seed):
        rng = as_rng(seed)
        # random superadditive-ish cost table (upper triangular used only)
        table = np.zeros((n, n))
        base = rng.uniform(0.5, 3.0, size=n)
        overhead = rng.uniform(0.0, 2.0, size=n)
        lam = rng.uniform(0.0, 0.05)
        for i in range(n):
            for j in range(i, n):
                span = overhead[i] + float(base[i : j + 1].sum()) + overhead[j]
                table[i, j] = first_order_expected_time(span, lam)
        positions, value = dp_from_table(table)
        bf_positions, bf_value = brute_force(table)
        assert value == pytest.approx(bf_value)
        assert positions[-1] == n - 1
        # segmentation induced by DP positions must reach the DP value
        start, total = 0, 0.0
        for end in positions:
            total += table[start, end]
            start = end + 1
        assert total == pytest.approx(value)


class TestOptimalCheckpointPositions:
    def make_model(self, wf, tasks, lam, bw=1e6):
        sc = Superchain(0, 0, tuple(tasks))
        return SuperchainCostModel(wf, sc, Platform(1, failure_rate=lam, bandwidth=bw))

    def test_fig4_brute_force(self):
        wf = make_fig4_workflow()
        m = self.make_model(wf, ["T1", "T2", "T3", "T4", "T5", "T6"], lam=1e-3)
        positions, value = optimal_checkpoint_positions(m)
        bf_positions, bf_value = brute_force(m.expected_time_table())
        assert value == pytest.approx(bf_value)
        assert positions[-1] == 5

    def test_zero_failure_rate_few_checkpoints(self):
        """With λ=0 checkpoints only cost; a single segment is optimal."""
        wf = make_chain(6)
        m = self.make_model(wf, wf.task_ids, lam=0.0)
        positions, value = optimal_checkpoint_positions(m)
        assert positions == [5]
        assert value == pytest.approx(m.span(0, 5))

    def test_high_failure_rate_many_checkpoints(self):
        """With large λ and cheap checkpoints, checkpoint every task."""
        wf = make_chain(6, weight=100.0, size=1.0)  # 1-byte files ~ free I/O
        m = self.make_model(wf, wf.task_ids, lam=5e-3)
        positions, _ = optimal_checkpoint_positions(m)
        assert positions == [0, 1, 2, 3, 4, 5]

    def test_dp_never_worse_than_ckpt_all(self):
        wf = make_chain(8, weight=10.0, size=5e6)
        for lam in (0.0, 1e-5, 1e-3):
            m = self.make_model(wf, wf.task_ids, lam=lam)
            _, value = optimal_checkpoint_positions(m)
            all_value = sum(m.expected_time(k, k) for k in range(8))
            assert value <= all_value + 1e-9

    def test_dp_never_worse_than_no_mid_checkpoint(self):
        wf = make_chain(8, weight=10.0, size=5e6)
        for lam in (0.0, 1e-4):
            m = self.make_model(wf, wf.task_ids, lam=lam)
            _, value = optimal_checkpoint_positions(m)
            assert value <= m.expected_time(0, 7) + 1e-9


class TestTouegBabaoglu:
    def test_input_validation(self):
        with pytest.raises(CheckpointError):
            toueg_babaoglu_chain([1.0], [0.1], [], 0.0)

    def test_empty(self):
        assert toueg_babaoglu_chain([], [], [], 1e-3) == ([], 0.0)

    def test_matches_general_dp_on_chains(self):
        """On a pure chain the general superchain DP must equal TB exactly."""
        for seed in range(5):
            rng = as_rng(seed)
            n = int(rng.integers(2, 10))
            wf = make_chain(n, weight=float(rng.uniform(5, 50)), size=float(rng.uniform(1e5, 1e7)))
            lam = float(rng.uniform(1e-6, 1e-3))
            sc = Superchain(0, 0, tuple(wf.task_ids))
            plat = Platform(1, failure_rate=lam, bandwidth=1e6)
            m = SuperchainCostModel(wf, sc, plat)
            positions, value = optimal_checkpoint_positions(m)

            # chain model: in-cost = input edge file; out-cost = output edge
            sizes = []
            for i in range(1, n):
                sizes.append(wf.file_size(f"f_T{i}_T{i+1}") / 1e6)
            in_costs = [wf.file_size("input") / 1e6] + sizes
            out_costs = sizes + [wf.file_size("result") / 1e6]
            weights = [wf.weight(t) for t in wf.task_ids]
            tb_positions, tb_value = toueg_babaoglu_chain(
                weights, in_costs, out_costs, lam
            )
            assert value == pytest.approx(tb_value)
            assert positions == tb_positions

    def test_known_small_case(self):
        # two tasks, free I/O, λ=0: one segment, value = total weight
        positions, value = toueg_babaoglu_chain(
            [5.0, 5.0], [0.0, 0.0], [0.0, 0.0], 0.0
        )
        assert positions == [1]
        assert value == pytest.approx(10.0)


def run_columns(tables):
    """:func:`dp_columns` over equal-size tables, as (positions, ETime)."""
    tables = np.asarray(tables, dtype=float)
    lengths = np.full(len(tables), tables.shape[1])
    cuts, etime = dp_columns(
        lambda lo, hi: tables[:, :, lo:hi], lengths, tables.shape[1]
    )
    return [
        (np.flatnonzero(row).tolist(), float(e)) for row, e in zip(cuts, etime)
    ]


NAN = float("nan")


class TestDpColumnsRules:
    """The batched recursion picks what the scalar scan's strict ``<``
    picks."""

    def test_first_minimum_wins(self):
        """Candidates ``ETime(0) + T(1, 2)`` and ``ETime(1) + T(2, 2)``
        tie at 2, below ``T(0, 2)``: the earlier one wins, and a tie with
        the first candidate keeps ``T(0, j)``."""
        tables = [
            [[1, 1, 10], [NAN, 1, 1], [NAN, NAN, 1]],
            [[1, 2, 3], [NAN, 1, 2], [NAN, NAN, 1]],
        ]
        assert run_columns(tables) == [([0, 2], 2.0), ([2], 3.0)]
        for table, got in zip(tables, run_columns(tables)):
            assert got == dp_from_table(np.array(table, dtype=float))

    def test_nan_candidate_never_wins(self):
        """A NaN inner candidate is passed over for a later smaller one;
        a NaN first candidate keeps ``ETime`` NaN and no earlier
        checkpoint, whatever the inner candidates."""
        tables = [
            [[1, 1, 5], [NAN, 1, NAN], [NAN, NAN, 1]],
            [[1, 1, NAN], [NAN, 1, 0], [NAN, NAN, 0]],
        ]
        (inner, first) = run_columns(tables)
        assert inner == ([1, 2], 2.0)
        assert first[0] == [2] and math.isnan(first[1])
        for table, (positions, etime) in zip(tables, run_columns(tables)):
            want_positions, want = dp_from_table(np.array(table, dtype=float))
            assert positions == want_positions
            assert etime.hex() == want.hex()
