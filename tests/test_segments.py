"""Tests for the superchain segment cost model (R/W/C of §IV-B)."""

import numpy as np
import pytest

from repro.checkpoint.segments import (
    GroupCosts,
    ScheduleIncidence,
    SuperchainCostModel,
)
from repro.errors import CheckpointError
from repro.makespan.two_state import first_order_expected_time
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule, Superchain
from tests.conftest import add_data_edge, make_chain, make_fig4_workflow

BW = 1e6  # 1 MB/s so sizes in MB == seconds


def model(wf, tasks, lam=0.0, save_final=True):
    sc = Superchain(0, 0, tuple(tasks))
    plat = Platform(1, failure_rate=lam, bandwidth=BW)
    return SuperchainCostModel(wf, sc, plat, save_final_outputs=save_final)


class TestChainCosts:
    def test_compute(self, chain5):
        m = model(chain5, chain5.task_ids)
        assert m.compute(0, 4) == pytest.approx(50.0)
        assert m.compute(1, 2) == pytest.approx(20.0)

    def test_read_first_segment_reads_workflow_input(self, chain5):
        m = model(chain5, chain5.task_ids)
        assert m.read_cost(0, 0) == pytest.approx(1.0)  # 1 MB input file

    def test_read_inside_segment_free(self, chain5):
        m = model(chain5, chain5.task_ids)
        # segment [0..4]: only the workflow input crosses the boundary
        assert m.read_cost(0, 4) == pytest.approx(1.0)

    def test_ckpt_last_segment_saves_result(self, chain5):
        m = model(chain5, chain5.task_ids)
        assert m.ckpt_cost(4, 4) == pytest.approx(1.0)  # 'result' file

    def test_ckpt_final_optional(self, chain5):
        m = model(chain5, chain5.task_ids, save_final=False)
        assert m.ckpt_cost(4, 4) == pytest.approx(0.0)

    def test_middle_segment(self, chain5):
        m = model(chain5, chain5.task_ids)
        # segment [1..2]: reads f_T1_T2, checkpoints f_T3_T4
        assert m.read_cost(1, 2) == pytest.approx(1.0)
        assert m.ckpt_cost(1, 2) == pytest.approx(1.0)

    def test_span(self, chain5):
        m = model(chain5, chain5.task_ids)
        assert m.span(1, 2) == pytest.approx(22.0)

    def test_invalid_slice(self, chain5):
        m = model(chain5, chain5.task_ids)
        with pytest.raises(CheckpointError):
            m.compute(3, 1)
        with pytest.raises(CheckpointError):
            m.read_cost(0, 5)


class TestFig4Semantics:
    """Pin down the paper's Figure 4 extended-checkpoint example.

    Linearisation T1 T2 T3 T4 T5 T6, checkpoints after T2 and T4 (and the
    final T6).  The checkpoint after T4 must also save T3's output for T5
    (T3 is un-checkpointed with a yet-to-be-executed successor).
    """

    def setup_method(self):
        self.wf = make_fig4_workflow()
        self.order = ["T1", "T2", "T3", "T4", "T5", "T6"]
        self.m = model(self.wf, self.order)

    def test_ckpt_after_t2_saves_both_outputs(self):
        # segment [0..1] = {T1, T2}: T2's outputs for T3 and T4 both live
        assert self.m.ckpt_cost(0, 1) == pytest.approx(2.0)

    def test_ckpt_after_t4_includes_t3_output(self):
        # segment [2..3] = {T3, T4}: saves T3->T5 and T4->T5
        assert self.m.ckpt_cost(2, 3) == pytest.approx(2.0)

    def test_read_for_t5_segment(self):
        # segment [4..4] = {T5}: reads T3->T5 and T4->T5 from storage
        assert self.m.read_cost(4, 4) == pytest.approx(2.0)

    def test_read_t3_t4_segment_reads_t2_outputs(self):
        assert self.m.read_cost(2, 3) == pytest.approx(2.0)

    def test_whole_chain_single_segment(self):
        # everything in memory: read nothing (no workflow inputs), save T6
        assert self.m.read_cost(0, 5) == pytest.approx(0.0)
        assert self.m.ckpt_cost(0, 5) == pytest.approx(1.0)


class TestDeduplication:
    def test_shared_output_saved_once(self):
        """§VI-A: a file consumed by two successors is checkpointed once."""
        wf = Workflow("shared")
        for t in ("a", "b", "c"):
            wf.add_task(t, 1.0)
        wf.add_file("f", 3e6, producer="a")
        wf.add_input("b", "f")
        wf.add_input("c", "f")
        m = model(wf, ["a", "b", "c"])
        assert m.ckpt_cost(0, 0) == pytest.approx(3.0)  # once, not twice

    def test_shared_input_read_once(self):
        wf = Workflow("sharedr")
        for t in ("a", "b", "c"):
            wf.add_task(t, 1.0)
        wf.add_file("f", 5e6, producer="a")
        wf.add_input("b", "f")
        wf.add_input("c", "f")
        m = model(wf, ["a", "b", "c"])
        # segment [1..2] reads f once even though b and c both consume it
        assert m.read_cost(1, 2) == pytest.approx(5.0)

    def test_partially_consumed_shared_file_still_saved(self):
        wf = Workflow("partial")
        for t in ("a", "b", "c"):
            wf.add_task(t, 1.0)
        wf.add_file("f", 2e6, producer="a")
        wf.add_input("b", "f")
        wf.add_input("c", "f")
        m = model(wf, ["a", "b", "c"])
        # segment [0..1] contains consumer b, but c is outside -> still saved
        assert m.ckpt_cost(0, 1) == pytest.approx(2.0)


class TestTables:
    def test_span_table_matches_pairwise(self, fig4_workflow):
        order = ["T1", "T2", "T3", "T4", "T5", "T6"]
        m = model(fig4_workflow, order)
        table = m.span_table()
        for i in range(6):
            for j in range(i, 6):
                assert table[i, j] == pytest.approx(m.span(i, j)), (i, j)
        assert np.isnan(table[3, 1])

    def test_expected_time_table_formula(self, fig4_workflow):
        order = ["T1", "T2", "T3", "T4", "T5", "T6"]
        lam = 1e-4
        m = model(fig4_workflow, order, lam=lam)
        table = m.expected_time_table()
        for i in range(6):
            for j in range(i, 6):
                assert table[i, j] == pytest.approx(
                    first_order_expected_time(m.span(i, j), lam)
                )

    def test_expected_equals_span_when_reliable(self, chain5):
        m = model(chain5, chain5.task_ids, lam=0.0)
        spans = m.span_table()
        expected = m.expected_time_table()
        mask = ~np.isnan(spans)
        assert np.allclose(spans[mask], expected[mask])

    def test_cross_superchain_read(self, fig2_workflow):
        # superchain {T2,T5,T6,T10} must read T1's output from storage
        m = model(fig2_workflow, ["T2", "T5", "T6", "T10"])
        assert m.read_cost(0, 0) == pytest.approx(1.0)
        # and checkpoint T10's output for T13 (outside)
        assert m.ckpt_cost(3, 3) == pytest.approx(1.0)


def group_costs(wf, schedule, save_final=True):
    """One CCR row of the batched path's costs at bandwidth ``BW``."""
    incidence = ScheduleIncidence(wf, schedule)
    costs = GroupCosts(
        incidence,
        [[wf.file_size(f) for f in incidence.files]],
        BW,
        save_final,
        [0],
        [0.0],
    )
    return costs, *costs.span_tables()


def one_chain(wf, tasks):
    schedule = Schedule(1)
    schedule.add_superchain(0, tasks)
    return schedule


def slice_costs(costs, reads, i, j):
    got = costs.slice_costs(
        reads, *(np.array([v]) for v in (0, 0, i, j))
    )
    return tuple(float(v[0]) for v in got)


class TestGroupCostsRules:
    """The array program keeps the scalar loops' summation rules."""

    def test_running_sums_go_left_to_right(self):
        """Ten reads and ten checkpoints of 2**53 then nine 1s: a left to
        right sum drops every 1 (ties round to even), numpy's pairwise
        ``np.sum`` keeps some, and the arrays match the loop."""
        wf = Workflow("sums")
        wf.add_task("A", 1.0)
        wf.add_task("B", 1.0)
        sizes = [2.0**53] + [1.0] * 9
        for k, size in enumerate(sizes):
            wf.add_file(f"in{k}", size, producer=None)
            wf.add_input("A", f"in{k}")
            wf.add_file(f"out{k}", size, producer="A")
            wf.add_input("B", f"out{k}")
        sequential = 0.0
        for size in sizes:
            sequential += size
        assert sequential != float(np.sum(sizes))
        tasks = ("A", "B")
        costs, spans, reads = group_costs(wf, one_chain(wf, tasks))
        m = model(wf, tasks)
        read_cost, _compute, ckpt_cost = slice_costs(costs, reads, 0, 0)
        assert read_cost == m.read_cost(0, 0) == sequential / BW
        assert ckpt_cost == m.ckpt_cost(0, 0) == sequential / BW
        assert spans[0, 0].tobytes() == m.span_table().tobytes()

    def test_skipped_ops_leave_sums_unchanged(self):
        """A repeated read, the read of a file produced inside the slice
        and an output nobody outside needs add nothing: slice ``[0..1]``
        reads and checkpoints exactly what ``[0..0]`` and the model do."""
        wf = Workflow("skips")
        for t in ("A", "B", "C"):
            wf.add_task(t, 1.0)
        wf.add_file("dup", 3e6, producer=None)
        wf.add_file("in", 0.1e6, producer=None)
        wf.add_file("mid", 7e6, producer="A")
        wf.add_file("near", 5e6, producer="A")
        for task, files in (("A", ("dup", "in")), ("B", ("dup", "mid", "near")),
                            ("C", ("mid",))):
            for f in files:
                wf.add_input(task, f)
        tasks = ("A", "B", "C")
        costs, spans, reads = group_costs(wf, one_chain(wf, tasks))
        m = model(wf, tasks)
        first = slice_costs(costs, reads, 0, 0)
        both = slice_costs(costs, reads, 0, 1)
        assert both[0] == first[0] == m.read_cost(0, 1)
        assert both[2] == m.ckpt_cost(0, 1) == 7.0  # "near" retired
        assert spans[0, 0].tobytes() == m.span_table().tobytes()

    @pytest.mark.parametrize("save_final", [True, False])
    def test_read_cost_is_the_tables_read_sum(self, fig4_workflow, save_final):
        """``R`` of every slice is the span table's own read sum: a
        producer precedes its consumers, so both skip the same files."""
        tasks = ("T1", "T2", "T3", "T4", "T5", "T6")
        costs, spans, reads = group_costs(
            fig4_workflow, one_chain(fig4_workflow, tasks), save_final
        )
        m = model(fig4_workflow, tasks, save_final=save_final)
        for i in range(6):
            for j in range(i, 6):
                got = slice_costs(costs, reads, i, j)
                assert got[0] == reads[0, 0, i, j] / BW == m.read_cost(i, j)
                assert got[1:] == (m.compute(i, j), m.ckpt_cost(i, j))
