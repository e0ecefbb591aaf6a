"""Evaluator dispatch: one entry point for the four §VI-B methods + exact.

The registry (:data:`EVALUATORS`) maps the paper's method names to
:class:`~repro.makespan.evaluator.Evaluator` instances carrying a
declared option schema and capability flags; :func:`expected_makespan`
prices one DAG, :func:`expected_makespans` prices a whole parameterised
grid through the evaluator's batch entry point (bit-identical to the
per-cell path — the engine's batched sweep stage relies on it).
Options are validated at call time against the evaluator *currently*
registered, so replacing an entry never leaves stale validation behind
(the old ``inspect``-keyed cache did exactly that, and grew without
bound besides).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import profile as _profile
from repro.makespan.dodin import dodin
from repro.makespan.evaluator import (
    Evaluator,
    EvaluatorOption,
    EvaluatorRegistry,
    FunctionEvaluator,
)
from repro.makespan.exact import exact
from repro.makespan.montecarlo import montecarlo, montecarlo_batch
from repro.makespan.normal import normal, normal_batch
from repro.makespan.paramdag import ParamDAG
from repro.makespan.pathapprox import pathapprox, pathapprox_batch
from repro.makespan.probdag import ProbDAG

__all__ = [
    "EVALUATORS",
    "get_evaluator",
    "expected_makespan",
    "expected_makespans",
]

#: Evaluator registry, keyed by the paper's method names.  Mutable:
#: assign an :class:`Evaluator` (or a plain ``fn(dag, **opts)``, wrapped
#: on assignment) to extend or replace a method.
EVALUATORS = EvaluatorRegistry()

EVALUATORS.register(
    FunctionEvaluator(
        montecarlo,
        name="montecarlo",
        summary="sampling ground truth (vectorised trials)",
        deterministic=False,
        # The batch entry point accepts one seed per cell (the engine
        # threads each cell's eval_seed through), so batched sampling
        # is bit-identical to the per-cell loop under any seed policy.
        supports_batch=True,
        batch_fn=montecarlo_batch,
        option_docs={
            "trials": "number of sampled scenarios",
            "seed": "RNG seed (None = fresh entropy; batch: one per cell)",
            "antithetic": "draw (U, 1-U) pairs for variance reduction",
            "batch": "trials per vectorised block (memory bound)",
        },
    )
)
EVALUATORS.register(
    FunctionEvaluator(
        dodin,
        name="dodin",
        summary="series-parallel reduction with node duplication",
        deterministic=True,
        supports_batch=True,  # structure-driven; batches via the cell loop
        option_docs={
            "max_atoms": "support budget per discrete distribution",
            "node_budget_factor": "duplication growth bound (x n + 64)",
        },
    )
)
EVALUATORS.register(
    FunctionEvaluator(
        normal,
        name="normal",
        summary="Sculli's normal approximation (Clark's moment fold)",
        deterministic=True,
        supports_batch=True,
        batch_fn=normal_batch,
    )
)
EVALUATORS.register(
    FunctionEvaluator(
        pathapprox,
        name="pathapprox",
        summary="longest-path approximation (the paper's choice)",
        deterministic=True,
        supports_batch=True,
        batch_fn=pathapprox_batch,
        option_docs={
            "k": "path budget (None = adaptive doubling)",
            "max_atoms": "support budget per discrete distribution",
            "factor_common": "factor tasks shared by whole path groups",
            "rtol": "relative tolerance of the adaptive schedule",
            "truncate_mode": "kernel truncation: 'adaptive' (reference) "
            "or 'rect' (fixed-width binning)",
        },
    )
)
EVALUATORS.register(
    FunctionEvaluator(
        exact,
        name="exact",
        summary="exhaustive scenario enumeration (small DAGs only)",
        deterministic=True,
        supports_batch=True,
        option_docs={
            "limit": "refuse DAGs with more than this many nodes",
            "batch": "scenarios per vectorised block",
        },
    )
)


def get_evaluator(method: str) -> Evaluator:
    """The registered evaluator for ``method``.

    Raises :class:`~repro.errors.EvaluationError` for unknown methods.
    A plain callable found in the registry slot (tests may swap the
    whole mapping out) is wrapped on the fly, deriving its schema from
    the *current* function — there is deliberately no cache to go stale.
    """
    try:
        found = EVALUATORS[method]
    except KeyError:
        raise EvaluationError(
            f"unknown evaluation method {method!r}; choose from "
            f"{sorted(EVALUATORS)}"
        ) from None
    if isinstance(found, Evaluator):
        return found
    return FunctionEvaluator(found, name=method)


def expected_makespan(dag: ProbDAG, method: str = "pathapprox", **kwargs) -> float:
    """Expected makespan of a 2-state DAG with the named method.

    ``method`` is one of ``montecarlo``, ``dodin``, ``normal``,
    ``pathapprox`` (default, the paper's choice) or ``exact``; extra
    keyword arguments are forwarded (e.g. ``trials=``/``seed=`` for Monte
    Carlo, ``k=`` for PathApprox).  Keywords outside the evaluator's
    declared option schema raise
    :class:`~repro.errors.EvaluationError` naming the method and its
    accepted options.
    """
    evaluator = get_evaluator(method)
    evaluator.validate_options(kwargs)
    return evaluator.evaluate(dag, **kwargs)


def expected_makespans(
    template: ParamDAG, method: str = "pathapprox", **kwargs: Any
) -> np.ndarray:
    """Expected makespans of every cell of a parameterised DAG template.

    Dispatches to the evaluator's batch entry point; the result is
    bit-identical to evaluating each ``template.cell(i)`` through
    :func:`expected_makespan` (stochastic evaluators accept one seed
    per cell — Monte Carlo's ``seed=[...]``).  Raises for evaluators
    that do not support batching.
    """
    evaluator = get_evaluator(method)
    if not evaluator.supports_batch:
        raise EvaluationError(
            f"method {method!r} does not support batched evaluation; "
            f"evaluate its cells one at a time"
        )
    evaluator.validate_options(kwargs)
    prof = _profile.ACTIVE
    if prof is None:
        return evaluator.evaluate_batch(template, **kwargs)
    t0 = time.perf_counter()
    values = evaluator.evaluate_batch(template, **kwargs)
    prof.record(
        "dispatch", 1, template.n_cells, time.perf_counter() - t0
    )
    return values

