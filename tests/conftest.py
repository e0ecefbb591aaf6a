"""Shared fixtures: the paper's example graphs, small builders and the
route to the per-cell oracle."""

from __future__ import annotations

import contextlib
import inspect
import os

import pytest

from repro.engine.pipeline import Pipeline
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.util.rng import stable_seed


def fuzz_examples(count: int) -> int:
    """Hypothesis ``max_examples`` for a fuzz test: ``count`` times
    ``REPRO_FUZZ_SCALE`` (default 1).  Tier-1 runs the bounded slice;
    a long run (CI's ``fuzz-long`` job sets 10) draws more of the
    domain with no edit to the tests."""
    return count * int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


def add_data_edge(wf: Workflow, u: str, v: str, size: float = 1e6) -> str:
    """Add a one-file dependency ``u -> v``; returns the file name."""
    name = f"f_{u}_{v}"
    wf.add_file(name, size, producer=u)
    wf.add_input(v, name)
    return name


def make_chain(n: int, weight: float = 10.0, size: float = 1e6) -> Workflow:
    """A linear chain ``T1 -> T2 -> ... -> Tn`` with one file per edge."""
    wf = Workflow(f"chain-{n}")
    for i in range(1, n + 1):
        wf.add_task(f"T{i}", weight)
    for i in range(1, n):
        add_data_edge(wf, f"T{i}", f"T{i+1}", size)
    # workflow input for the head, terminal output for the tail
    wf.add_file("input", size, producer=None)
    wf.add_input("T1", "input")
    wf.add_file("result", size, producer=f"T{n}")
    return wf


def make_fig2_workflow() -> Workflow:
    """The paper's Figure 2 M-SPG (13 tasks, fork-join of fork-joins)."""
    wf = Workflow("fig2")
    for i in range(1, 14):
        wf.add_task(f"T{i}", float(i))
    for u, v in [
        ("T1", "T2"), ("T1", "T3"), ("T1", "T4"),
        ("T2", "T5"), ("T2", "T6"),
        ("T3", "T7"), ("T3", "T8"), ("T3", "T9"),
        ("T4", "T7"), ("T4", "T8"), ("T4", "T9"),
        ("T5", "T10"), ("T6", "T10"),
        ("T7", "T11"), ("T7", "T12"),
        ("T8", "T11"), ("T8", "T12"),
        ("T9", "T11"), ("T9", "T12"),
        ("T10", "T13"), ("T11", "T13"), ("T12", "T13"),
    ]:
        add_data_edge(wf, u, v)
    return wf


def make_fig4_workflow() -> Workflow:
    """The paper's Figure 4 M-SPG: T1;T2;(T3||T4);T5;T6 with T4 -> T5 only.

    Structure: T1 -> T2, T2 -> {T3, T4}, {T3, T4} -> T5, T5 -> T6.
    Used to pin down the extended checkpoint semantics of §IV-A.
    """
    wf = Workflow("fig4")
    for i in range(1, 7):
        wf.add_task(f"T{i}", 10.0)
    add_data_edge(wf, "T1", "T2")
    add_data_edge(wf, "T2", "T3")
    add_data_edge(wf, "T2", "T4")
    add_data_edge(wf, "T3", "T5")
    add_data_edge(wf, "T4", "T5")
    add_data_edge(wf, "T5", "T6")
    wf.add_file("final", 1e6, producer="T6")
    return wf


def group_dags(family: str, processors: int, pfails, ccrs, method_dag="all"):
    """Per-cell segment DAGs of one real (workflow, processors) group."""
    pipe = Pipeline()
    wf = pipe.prepare(family, 50, stable_seed(2017, family, 50))
    tree = pipe.mspg_tree(wf)
    schedule = pipe.schedule_for(
        wf, processors, seed=stable_seed(2017, family, 50, processors), tree=tree
    )
    dags = []
    for pfail in pfails:
        for ccr in ccrs:
            platform = pipe.platform_for(wf, processors, pfail, 100e6)
            scaled = pipe.scale(wf, platform, ccr)
            plan_some, plan_all = pipe.plans(scaled, schedule, platform, True)
            plan = plan_all if method_dag == "all" else plan_some
            dags.append(pipe.segment_dag(scaled, schedule, plan, platform))
    return dags


def tied_path_template() -> ParamDAG:
    """Six layers of two nodes, each joined to both nodes of the layer
    before, then a sink: a variable node (base 10, long 20, p 0.5) and a
    fixed one (base = long = 15) per layer, so all 64 paths have mean 90
    and differ in variance; the second cell scales every weight by 0.8,
    keeping the ties exact.  Every node of the k-best DP that truncates
    ties."""
    dags = []
    for scale in (1.0, 0.8):
        dag = ProbDAG()
        prev = []
        for depth in range(6):
            dag.add(f"a{depth}", 10 * scale, 20 * scale, 0.5, preds=prev)
            dag.add(f"b{depth}", 15 * scale, 15 * scale, 0.0, preds=prev)
            prev = [f"a{depth}", f"b{depth}"]
        dag.add("sink", 0.0, 0.0, 0.0, preds=prev)
        dags.append(dag)
    return ParamDAG.from_dags(dags)


@pytest.fixture
def fig2_workflow() -> Workflow:
    return make_fig2_workflow()


@pytest.fixture
def fig4_workflow() -> Workflow:
    return make_fig4_workflow()


@pytest.fixture
def chain5() -> Workflow:
    return make_chain(5)


@pytest.fixture
def platform5() -> Platform:
    return Platform(processors=5, failure_rate=1e-5, bandwidth=1e8)


@pytest.fixture
def reliable_platform() -> Platform:
    return Platform(processors=4, failure_rate=0.0, bandwidth=1e8)


@contextlib.contextmanager
def oracle_route(*methods: str):
    """Price the named methods through the per-cell oracle while active.

    Patches :meth:`repro.engine.Pipeline.evaluate_cells` so that a chunk
    whose method is one of ``methods`` runs cell by cell through
    :meth:`~repro.engine.Pipeline.evaluate_cell` — a fresh cost model,
    segment DAG and scalar evaluator per cell, seeds intact: the
    bit-exactness oracle the batched route is compared against.  Other
    methods keep the batched route.  The patch lives in this process's
    class, so a pool worker forked while it is active inherits it:
    compute out-of-process results before entering.
    """
    batched = Pipeline.evaluate_cells
    signature = inspect.signature(batched)

    def evaluate_cells(self, *args, **kwargs):
        call = signature.bind(self, *args, **kwargs)
        call.apply_defaults()
        fields = dict(call.arguments)
        if fields["method"] not in methods:
            return batched(self, *args, **kwargs)
        del fields["self"]
        cells = fields.pop("cells")
        processors = fields.pop("processors")
        bandwidth = fields.pop("bandwidth")
        return [
            self.evaluate_cell(
                platform=self.platform_for(
                    fields["workflow"], processors, pfail, bandwidth
                ),
                pfail=pfail,
                ccr=ccr,
                eval_seed=eval_seed,
                **fields,
            )
            for pfail, ccr, eval_seed in cells
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Pipeline, "evaluate_cells", evaluate_cells)
        yield


@pytest.fixture
def per_cell():
    """``per_cell("pathapprox")``: :func:`oracle_route` for the rest of
    the test."""
    with contextlib.ExitStack() as stack:
        yield lambda *methods: stack.enter_context(oracle_route(*methods))
