"""Tests for building the 2-state segment macro-DAG."""

import math

import numpy as np
import pytest

import repro.checkpoint.strategies as strategies
from repro.checkpoint.plan import Segment
from repro.checkpoint.segments import GroupCosts, ScheduleIncidence
from repro.checkpoint.strategies import (
    ckpt_all_plan,
    ckpt_some_plan,
    plan_group,
)
from repro.errors import CheckpointError, EvaluationError
from repro.generators import cybershake, genome, ligo, montage, sipht
from repro.makespan.paramdag import ParamDAG
from repro.makespan.segment_dag import (
    SegmentDagSkeleton,
    build_segment_dag,
    segment_name,
)
from repro.makespan.two_state import first_order_expected_time
from repro.platform import Platform, lambda_from_pfail
from repro.scheduling.allocate import schedule_workflow
from tests.conftest import make_chain, make_fig2_workflow


def pipeline(wf, p=4, pfail=1e-3, seed=3):
    lam = lambda_from_pfail(pfail, wf.mean_weight)
    plat = Platform(p, failure_rate=lam, bandwidth=1e8)
    sched, _ = schedule_workflow(wf, p, seed=seed)
    return plat, sched


class TestBuild:
    def test_node_per_segment(self, fig2_workflow):
        plat, sched = pipeline(fig2_workflow)
        plan = ckpt_some_plan(fig2_workflow, sched, plat)
        dag = build_segment_dag(fig2_workflow, sched, plan, plat)
        assert dag.n == plan.n_segments
        assert set(dag.names) == {segment_name(i) for i in range(plan.n_segments)}

    def test_two_state_weights_match_equation_1(self, fig2_workflow):
        plat, sched = pipeline(fig2_workflow)
        plan = ckpt_some_plan(fig2_workflow, sched, plat)
        dag = build_segment_dag(fig2_workflow, sched, plan, plat)
        for seg in plan.segments:
            i = dag.index(segment_name(seg.index))
            t = dag.task(i)
            assert t.base == pytest.approx(seg.span)
            assert t.long == pytest.approx(1.5 * seg.span)
            assert t.p == pytest.approx(
                min(plat.failure_rate * seg.span, 1 - 1e-12)
            )

    def test_reliable_platform_deterministic(self, fig2_workflow):
        plat, sched = pipeline(fig2_workflow, pfail=0.0)
        plan = ckpt_all_plan(fig2_workflow, sched, plat)
        dag = build_segment_dag(fig2_workflow, sched, plan, plat)
        assert all(t.p == 0.0 for t in dag.tasks())

    def test_plan_workflow_mismatch_rejected(self, fig2_workflow, chain5):
        plat, sched = pipeline(fig2_workflow)
        plan = ckpt_some_plan(fig2_workflow, sched, plat)
        with pytest.raises(EvaluationError):
            build_segment_dag(chain5, sched, plan, plat)

    @pytest.mark.parametrize("gen", [montage, genome, ligo])
    def test_families_acyclic_and_complete(self, gen):
        wf = gen(50, seed=5)
        plat, sched = pipeline(wf)
        for plan in (
            ckpt_some_plan(wf, sched, plat),
            ckpt_all_plan(wf, sched, plat),
        ):
            dag = build_segment_dag(wf, sched, plan, plat)
            assert dag.n == plan.n_segments
            # construction order is topological by ProbDAG invariant;
            # makespan must be at least the heaviest segment
            heaviest = max(s.span for s in plan.segments)
            assert dag.deterministic_makespan() >= heaviest


class TestSemantics:
    def test_chain_single_processor_sums(self):
        wf = make_chain(4, weight=10.0, size=1e6)
        plat, sched = pipeline(wf, p=1, pfail=0.0)
        plan = ckpt_all_plan(wf, sched, plat)
        dag = build_segment_dag(wf, sched, plan, plat)
        # serialized singleton segments: makespan = sum of spans
        assert dag.deterministic_makespan() == pytest.approx(
            sum(s.span for s in plan.segments)
        )

    def test_failure_free_makespan_includes_io(self):
        wf = make_chain(3, weight=10.0, size=1e8)  # 1 second per file at 1e8
        plat, sched = pipeline(wf, p=1, pfail=0.0)
        plan = ckpt_all_plan(wf, sched, plat)
        dag = build_segment_dag(wf, sched, plan, plat)
        # 3 tasks * 10s + per-task read+write: T1 reads input + writes f12;
        # T2 reads f12 writes f23; T3 reads f23 writes result: 6 file ops
        assert dag.deterministic_makespan() == pytest.approx(30.0 + 6.0)

    def test_extra_edges_lifted(self, fig2_workflow):
        plat, sched = pipeline(fig2_workflow)
        plan = ckpt_all_plan(fig2_workflow, sched, plat)
        base = build_segment_dag(fig2_workflow, sched, plan, plat)
        extra = build_segment_dag(
            fig2_workflow, sched, plan, plat, extra_edges=[("T5", "T7")]
        )
        assert extra.n_edges >= base.n_edges

    def test_expected_makespan_sane(self, fig2_workflow):
        from repro.makespan.api import expected_makespan

        plat, sched = pipeline(fig2_workflow, pfail=1e-2)
        plan = ckpt_some_plan(fig2_workflow, sched, plat)
        dag = build_segment_dag(fig2_workflow, sched, plan, plat)
        em = expected_makespan(dag, "pathapprox")
        det = dag.deterministic_makespan()
        assert det <= em <= 1.5 * det + 1e-9


def plan_cuts(plan, sched):
    """A plan's cut vector: per superchain, each segment's last position."""
    cuts = []
    for sc in sched.superchains:
        positions, end = [], -1
        for seg in plan.segments_of_superchain(sc.index):
            end += len(seg)
            positions.append(end)
        cuts.append(tuple(positions))
    return tuple(cuts)


def group_plans(wf, sched, plat):
    """One cell's plans through the batched path's group entry."""
    incidence = ScheduleIncidence(wf, sched)
    costs = GroupCosts(
        incidence,
        [[wf.file_size(f) for f in incidence.files]],
        plat.bandwidth,
        True,
        [0],
        [plat.failure_rate],
    )
    return plan_group(costs)


class TestCutSkeleton:
    """The batched path's skeleton, built from a cut vector, against the
    per-cell oracle's DAG of the equivalent plan."""

    @pytest.mark.parametrize(
        "gen", [montage, genome, ligo, cybershake, sipht],
        ids=lambda g: g.__name__,
    )
    @pytest.mark.parametrize(
        "strategy, builder",
        [("ckpt_some", ckpt_some_plan), ("ckpt_all", ckpt_all_plan)],
        ids=["some", "all"],
    )
    def test_equals_the_plans_dag(self, gen, strategy, builder):
        """Names, order, preds and succs equal :func:`build_segment_dag`'s
        for the plan, the cut vector equals the plan's cuts, and the
        rows gathered from the group's priced slices equal the DAG's
        2-state laws."""
        wf = gen(50, seed=5)
        plat, sched = pipeline(wf, pfail=1e-2)
        plan = builder(wf, sched, plat)
        dag = build_segment_dag(wf, sched, plan, plat)
        plans = group_plans(wf, sched, plat)
        cuts = plans.some[0] if strategy == "ckpt_some" else plans.all
        assert cuts == plan_cuts(plan, sched)
        skeleton = SegmentDagSkeleton(wf, sched, cuts)
        assert skeleton.names == dag.names
        assert skeleton.order == [int(name[3:]) for name in dag.names]
        assert skeleton.preds == dag.preds
        assert skeleton.succs == dag.succs
        got = skeleton.template(plans, [0])
        ref = ParamDAG.from_dags([dag])
        for plane in ("base", "long", "p"):
            assert getattr(got, plane).tobytes() == getattr(ref, plane).tobytes()

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["read", "compute", "ckpt"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
    def test_bad_cost_raises_the_segments_error(self, monkeypatch, field, bad):
        """A negative or NaN segment cost on the cut path raises the
        :class:`CheckpointError` a :class:`Segment` with that cost
        raises, for the first bad slice in skeleton order."""
        wf = genome(30, seed=5)
        plat, sched = pipeline(wf)
        real = GroupCosts.slice_costs
        planted = {}

        def plant(self, reads, *slices):
            costs = list(real(self, reads, *slices))
            # A distinct bad value per slice names the one that raised.
            costs[field] = bad - np.arange(len(costs[field]), dtype=float)
            keys = zip(*(s.tolist() for s in slices[1:]))
            planted.update(zip(keys, costs[field].tolist()))
            return tuple(costs)

        monkeypatch.setattr(GroupCosts, "slice_costs", plant)
        plans = group_plans(wf, sched, plat)
        skeleton = SegmentDagSkeleton(wf, sched, plans.all)
        with pytest.raises(CheckpointError) as cut_path:
            skeleton.template(plans, [0])
        segment_costs = [1.0, 1.0, 1.0]
        segment_costs[field] = planted[skeleton.slices[0]]
        with pytest.raises(CheckpointError) as oracle:
            Segment(0, 0, 0, ("t",), *segment_costs)
        assert str(cut_path.value) == str(oracle.value)

    def test_uncovering_positions_raise_the_plans_error(self, monkeypatch):
        """Algorithm 2 positions that do not cover a superchain raise the
        coverage error of the plan builders on the cut path too."""
        wf = genome(30, seed=5)
        plat, sched = pipeline(wf)

        def first_task_only(columns, lengths, width):
            cuts = np.zeros((len(lengths), width), dtype=bool)
            cuts[:, 0] = True
            return cuts, np.zeros(len(lengths))

        monkeypatch.setattr(strategies, "dp_columns", first_task_only)
        monkeypatch.setattr(
            strategies, "optimal_checkpoint_positions", lambda cost: ([0], 0.0)
        )
        with pytest.raises(CheckpointError) as oracle:
            ckpt_some_plan(wf, sched, plat)
        with pytest.raises(CheckpointError) as cut_path:
            group_plans(wf, sched, plat)
        assert "do not cover superchain" in str(oracle.value)
        assert str(cut_path.value) == str(oracle.value)
