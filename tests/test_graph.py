"""Tests for the Workflow data model (repro.mspg.graph)."""

import pytest

from repro.errors import (
    CycleError,
    UnknownFileError,
    UnknownTaskError,
    WorkflowError,
)
from repro.mspg.graph import Task, Workflow
from tests.conftest import add_data_edge, make_chain


class TestTask:
    def test_valid(self):
        t = Task("a", 1.5, "cat")
        assert t.weight == 1.5 and t.category == "cat"

    def test_negative_weight(self):
        with pytest.raises(WorkflowError):
            Task("a", -1.0)

    def test_nan_weight(self):
        for weight in (float("nan"), float("inf")):
            with pytest.raises(WorkflowError, match="finite"):
                Task("a", weight)

    def test_empty_id(self):
        with pytest.raises(WorkflowError):
            Task("", 1.0)


class TestConstruction:
    def test_duplicate_task(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        with pytest.raises(WorkflowError):
            wf.add_task("a", 2.0)

    def test_duplicate_file(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_file("f", 10.0, producer="a")
        with pytest.raises(WorkflowError):
            wf.add_file("f", 20.0)

    def test_unknown_producer(self):
        wf = Workflow()
        with pytest.raises(UnknownTaskError):
            wf.add_file("f", 1.0, producer="ghost")

    def test_unknown_file_input(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        with pytest.raises(UnknownFileError):
            wf.add_input("a", "ghost")

    def test_self_consumption_rejected(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_file("f", 1.0, producer="a")
        with pytest.raises(WorkflowError):
            wf.add_input("a", "f")

    def test_self_control_edge_rejected(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        with pytest.raises(WorkflowError):
            wf.add_control_edge("a", "a")

    def test_negative_file_size_rejected(self):
        wf = Workflow()
        for size in (-5.0, float("nan"), float("inf")):
            with pytest.raises(WorkflowError, match="finite"):
                wf.add_file("f", size)


class TestAccessors:
    def test_weights(self, chain5):
        assert chain5.total_weight == pytest.approx(50.0)
        assert chain5.mean_weight == pytest.approx(10.0)

    def test_mean_weight_empty_raises(self):
        with pytest.raises(WorkflowError):
            Workflow().mean_weight

    def test_edges_derived_from_files(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_task("b", 1.0)
        add_data_edge(wf, "a", "b")
        assert wf.has_edge("a", "b")
        assert wf.succs("a") == frozenset({"b"})
        assert wf.preds("b") == frozenset({"a"})

    def test_edge_files(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_task("b", 1.0)
        f = add_data_edge(wf, "a", "b")
        assert wf.edge_files("a", "b") == frozenset({f})
        assert wf.edge_files("b", "a") == frozenset()

    def test_control_edge_has_no_files(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_task("b", 1.0)
        wf.add_control_edge("a", "b")
        assert wf.has_edge("a", "b")
        assert wf.is_control_edge("a", "b")
        assert wf.edge_files("a", "b") == frozenset()

    def test_shared_file_two_consumers_one_edge_each(self):
        wf = Workflow()
        for t in ("a", "b", "c"):
            wf.add_task(t, 1.0)
        wf.add_file("f", 7.0, producer="a")
        wf.add_input("b", "f")
        wf.add_input("c", "f")
        assert wf.succs("a") == frozenset({"b", "c"})
        assert wf.total_file_bytes == pytest.approx(7.0)  # counted once

    def test_workflow_inputs_outputs(self, chain5):
        assert chain5.workflow_inputs() == ["input"]
        assert chain5.workflow_outputs() == ["result"]

    def test_sources_sinks(self, fig2_workflow):
        assert fig2_workflow.sources() == ["T1"]
        assert fig2_workflow.sinks() == ["T13"]

    def test_n_edges(self, fig2_workflow):
        assert fig2_workflow.n_edges == 22

    def test_contains_len_repr(self, chain5):
        assert "T1" in chain5
        assert "nope" not in chain5
        assert len(chain5) == 5
        assert "chain-5" in repr(chain5)


class TestOrdersAndValidation:
    def test_topological_order_valid(self, fig2_workflow):
        order = fig2_workflow.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in fig2_workflow.edges():
            assert pos[u] < pos[v]

    def test_random_topological_order_seeded(self, fig2_workflow):
        a = fig2_workflow.random_topological_order(3)
        b = fig2_workflow.random_topological_order(3)
        assert a == b

    def test_cycle_detected(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        wf.add_task("b", 1.0)
        wf.add_control_edge("a", "b")
        wf.add_control_edge("b", "a")
        with pytest.raises(CycleError):
            wf.validate()

    def test_validate_ok(self, fig2_workflow):
        fig2_workflow.validate()


class TestTransforms:
    def test_copy_independent(self, chain5):
        cp = chain5.copy()
        cp.add_task("extra", 1.0)
        assert "extra" not in chain5
        assert chain5.n_tasks == 5 and cp.n_tasks == 6

    def test_scale_file_sizes(self, chain5):
        scaled = chain5.scale_file_sizes(2.0)
        assert scaled.total_file_bytes == pytest.approx(
            2.0 * chain5.total_file_bytes
        )
        # weights untouched
        assert scaled.total_weight == chain5.total_weight

    def test_scale_zero(self, chain5):
        assert chain5.scale_file_sizes(0.0).total_file_bytes == 0.0

    def test_scale_negative_rejected(self, chain5):
        for factor in (-1.0, float("nan"), float("inf")):
            with pytest.raises(WorkflowError, match="finite"):
                chain5.scale_file_sizes(factor)
