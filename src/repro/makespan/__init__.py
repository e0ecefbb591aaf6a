"""Expected-makespan machinery for 2-state probabilistic DAGs.

The paper's pipeline (§II-B/C): once every superchain is cut into
checkpointed segments, each segment becomes a macro-task whose duration is
the 2-state random variable of Equation (1); the resulting *segment DAG*
is evaluated with one of four estimators (§VI-B):

* :func:`repro.makespan.montecarlo.montecarlo` — sampling ground truth;
* :func:`repro.makespan.dodin.dodin` — series-parallel reduction;
* :func:`repro.makespan.normal.normal` — Sculli's normal approximation;
* :func:`repro.makespan.pathapprox.pathapprox` — longest-path / failure
  scenario approximation (the paper's method of choice);

plus :func:`repro.makespan.exact.exact` (brute-force enumeration, small
DAGs only) and the Theorem 1 estimator for CKPTNONE
(:mod:`repro.makespan.ckptnone`).

Evaluators are registered behind the
:class:`~repro.makespan.evaluator.Evaluator` protocol (declared option
schemas, a ``deterministic`` capability) and the layer is **batch
native**: a :class:`~repro.makespan.paramdag.ParamDAG` carries one DAG
structure template plus per-cell 2-state parameter arrays,
:func:`~repro.makespan.distribution.two_state_rows` builds every
(cell, node) 2-state law of a template in one vectorised pass, and
:func:`~repro.makespan.api.expected_makespans` prices a whole parameter
grid per evaluator call — bit-identical to evaluating each cell alone,
for every evaluator (one without a vectorised batch loops over the
template's cells).
"""

from repro.makespan.two_state import (
    TwoStateTask,
    first_order_expected_time,
    two_state_from_span,
)
from repro.makespan.probdag import ProbDAG
from repro.makespan.paramdag import ParamDAG
from repro.makespan.distribution import two_state_rows
from repro.makespan.segment_dag import build_segment_dag
from repro.makespan.montecarlo import montecarlo, montecarlo_batch
from repro.makespan.dodin import dodin
from repro.makespan.normal import normal, normal_batch
from repro.makespan.pathapprox import pathapprox, pathapprox_batch
from repro.makespan.exact import exact
from repro.makespan.ckptnone import ckptnone_expected_makespan, failure_free_makespan
from repro.makespan.evaluator import (
    Evaluator,
    EvaluatorOption,
    EvaluatorRegistry,
    FunctionEvaluator,
)
from repro.makespan.api import (
    EVALUATORS,
    expected_makespan,
    expected_makespans,
    get_evaluator,
)

__all__ = [
    "TwoStateTask",
    "first_order_expected_time",
    "two_state_from_span",
    "ProbDAG",
    "ParamDAG",
    "two_state_rows",
    "build_segment_dag",
    "montecarlo",
    "montecarlo_batch",
    "dodin",
    "normal",
    "normal_batch",
    "pathapprox",
    "pathapprox_batch",
    "exact",
    "ckptnone_expected_makespan",
    "failure_free_makespan",
    "Evaluator",
    "EvaluatorOption",
    "EvaluatorRegistry",
    "FunctionEvaluator",
    "EVALUATORS",
    "expected_makespan",
    "expected_makespans",
    "get_evaluator",
]
