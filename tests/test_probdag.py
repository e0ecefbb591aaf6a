"""Tests for the ProbDAG container and its longest-path kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.makespan.probdag import ProbDAG
from repro.makespan.two_state import TwoStateTask

from conftest import fuzz_examples


def diamond():
    dag = ProbDAG()
    dag.add("a", 1.0, 1.5, 0.1)
    dag.add("b", 2.0, 3.0, 0.1, preds=["a"])
    dag.add("c", 5.0, 7.5, 0.1, preds=["a"])
    dag.add("d", 1.0, 1.5, 0.1, preds=["b", "c"])
    return dag


class TestConstruction:
    def test_duplicate_name(self):
        dag = ProbDAG()
        dag.add("a", 1, 1, 0)
        with pytest.raises(EvaluationError):
            dag.add("a", 1, 1, 0)

    def test_missing_pred(self):
        dag = ProbDAG()
        with pytest.raises(EvaluationError):
            dag.add("b", 1, 1, 0, preds=["a"])

    def test_bad_durations(self):
        dag = ProbDAG()
        with pytest.raises(EvaluationError):
            dag.add("a", 2.0, 1.0, 0.0)  # long < base
        with pytest.raises(EvaluationError):
            dag.add("b", 1.0, 2.0, 2.0)  # bad p

    def test_add_task(self):
        dag = ProbDAG()
        dag.add_task(TwoStateTask("a", 1.0, 2.0, 0.5))
        assert dag.names == ["a"]

    def test_accessors(self):
        dag = diamond()
        assert dag.n == 4 and dag.n_edges == 4
        assert dag.index("c") == 2
        assert dag.sources() == [0]
        assert dag.sinks() == [3]
        assert dag.task(1).name == "b"
        assert len(dag.tasks()) == 4
        with pytest.raises(EvaluationError):
            dag.index("ghost")


class TestKernels:
    def test_deterministic_makespan(self):
        dag = diamond()
        # longest path a -> c -> d = 1 + 5 + 1
        assert dag.deterministic_makespan() == pytest.approx(7.0)

    def test_makespans_matrix(self):
        dag = diamond()
        base = dag.base
        two = np.vstack([base, base * 2])
        out = dag.makespans(two)
        assert out[0] == pytest.approx(7.0)
        assert out[1] == pytest.approx(14.0)

    def test_makespans_wrong_width(self):
        dag = diamond()
        with pytest.raises(EvaluationError):
            dag.makespans(np.zeros((1, 3)))

    def test_empty_dag(self):
        dag = ProbDAG()
        assert dag.makespans(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]

    def test_completion_times(self):
        dag = diamond()
        ct = dag.completion_times()
        assert ct[dag.index("a")] == pytest.approx(1.0)
        assert ct[dag.index("d")] == pytest.approx(7.0)

    def test_tail_times(self):
        dag = diamond()
        tails = dag.tail_times()
        assert tails[dag.index("a")] == pytest.approx(7.0)
        assert tails[dag.index("d")] == pytest.approx(1.0)
        assert tails[dag.index("b")] == pytest.approx(3.0)

    def test_top_plus_tail_identity(self):
        """completion(v) + tail(v) - dur(v) = longest path through v."""
        dag = diamond()
        ct = dag.completion_times()
        tails = dag.tail_times()
        through = ct + tails - dag.base
        assert through.max() == pytest.approx(dag.deterministic_makespan())

    def test_disconnected_components(self):
        dag = ProbDAG()
        dag.add("a", 3.0, 3.0, 0.0)
        dag.add("b", 5.0, 5.0, 0.0)
        assert dag.deterministic_makespan() == pytest.approx(5.0)


@st.composite
def longest_path_case(draw):
    """A DAG whose nodes each join up to 6 earlier nodes, and a
    ``(rows, n)`` duration matrix drawn from a small pool with zero
    (tied path lengths) and 1e308 (two on a path overflow to inf), and
    from floats up to 1e3."""
    dag = ProbDAG()
    for v in range(draw(st.integers(0, 24))):
        preds = draw(
            st.lists(st.integers(0, v - 1), unique=True, max_size=min(6, v))
        ) if v else []
        dag.add(f"t{v}", 1.0, 1.0, 0.0, preds=[f"t{q}" for q in preds])
    rows = draw(st.integers(1, 6))
    values = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.5, 1e308]), st.floats(0.0, 1e3)
        ),
        min_size=rows * dag.n,
        max_size=rows * dag.n,
    ))
    return dag, np.array(values).reshape(rows, dag.n)


class TestLongestPathKernel:
    """The longest-path kernel against the scalar per-scenario walk."""

    @given(longest_path_case())
    @example((ProbDAG(), np.zeros((3, 0))))
    @example((diamond(), np.array([[1.0, 0.0, 0.0, 2.5]])))
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_makespans_equal_the_completion_walk(self, case):
        """Each row's makespan is the largest of its scalar completion
        times, under ``float.hex``: one row alone, rows stacked, and the
        empty DAG (no node, makespan 0)."""
        dag, durations = case
        with np.errstate(over="ignore"):
            got = dag.makespans(durations)
            ref = [
                max(dag.completion_times(row), default=0.0)
                for row in durations
            ]
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in ref]
