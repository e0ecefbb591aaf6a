"""Shared fixtures: the paper's example graphs and small builders."""

from __future__ import annotations

import pytest

from repro.makespan.api import EVALUATORS
from repro.makespan.evaluator import FunctionEvaluator
from repro.mspg.graph import Workflow
from repro.platform import Platform


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


@pytest.fixture
def per_cell(monkeypatch):
    """Route methods through the per-cell oracle for the rest of a test.

    ``per_cell("pathapprox")`` re-registers the method as a plain
    :class:`FunctionEvaluator` of its scalar entry point, without
    ``supports_batch``, so the engine prices every cell through
    :meth:`repro.engine.Pipeline.evaluate_cell` — the bit-exactness
    oracle the batched path is compared against.  Stochastic methods
    stay ``deterministic=False``, so they still receive per-cell seeds.
    """

    def route(*methods: str) -> None:
        for method in methods:
            batched = EVALUATORS[method]
            monkeypatch.setitem(
                EVALUATORS,
                method,
                FunctionEvaluator(
                    batched.evaluate,
                    name=method,
                    deterministic=batched.deterministic,
                ),
            )

    return route
