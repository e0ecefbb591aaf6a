"""Differential test from workflow to record.

The batched engine path (:meth:`repro.engine.Pipeline.evaluate_cells`:
shared span tables, one segment-DAG skeleton per segmentation, batched
evaluators) must reproduce the per-cell oracle
(:meth:`~repro.engine.Pipeline.evaluate_cell`: a fresh cost model,
segment DAG and scalar evaluator per cell) byte for byte, on random
M-SPG workflows with adversarial parameters: shared and zero-size
files, equal task weights (ties in Algorithm 2), a pfail of 0 or near 1,
a CCR of 0 or large.  When one side raises, the other must raise the
same error type.  Monte Carlo runs under both eval-seed policies, and a
sample of the engine cases runs on a process pool.

The slices here are bounded and derandomized so tier-1 stays fast and
reproducible; set ``REPRO_FUZZ_SCALE`` (``conftest.fuzz_examples``) for
a long run.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.checkpoint.dp as dp_mod
from repro.checkpoint.dp import dp_columns, dp_from_table
from repro.checkpoint.segments import (
    GroupCosts,
    ScheduleIncidence,
    SuperchainCostModel,
)
from repro.engine import Pipeline, ProcessPoolBackend, SweepSpec, run_specs
from repro.errors import ExperimentError
from repro.generators.random_mspg import random_tree, workflow_from_tree
from repro.workloads import FileSource

from conftest import fuzz_examples, oracle_route

PFAILS = (0.0, 1e-4, 1e-2, 0.5, 0.999)
CCRS = (0.0, 1e-3, 1.0, 50.0)
METHODS = ("pathapprox", "normal", "dodin")


@st.composite
def workflows(draw, zeros=(0.0,)):
    """A random M-SPG workflow of 1-40 tasks with adversarial sizes; a
    zero size is drawn from ``zeros`` (pass ``(0.0, -0.0)`` for signed
    zeros)."""
    ntasks = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    shared = draw(st.sampled_from((0.0, 1.0)))
    zero_frac = draw(st.sampled_from((0.0, 0.25, 0.75, 1.0)))
    equal_weights = draw(st.booleans())
    zero = draw(st.sampled_from(zeros)) if len(zeros) > 1 else zeros[0]
    rng = np.random.default_rng(seed)

    def size(r):
        return zero if r.random() < zero_frac else float(r.lognormal(13.0, 1.0))

    return workflow_from_tree(
        random_tree(ntasks, rng),
        seed=rng,
        weight_sampler=(lambda r: 5.0) if equal_weights else None,
        size_sampler=size,
        shared_output_prob=shared,
    )


def subsets(values, max_size):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


def outcome(spec, backend=None):
    """The sweep's records with every float as ``float.hex``, or the
    type of the error it raised."""
    (result,) = run_specs([spec], backend=backend, return_exceptions=True)
    if isinstance(result, Exception):
        return type(result)
    return [
        tuple(
            v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(record)
        )
        for record in result
    ]


def oracle_outcome(spec):
    """:func:`outcome` with the spec's method routed through the
    per-cell oracle."""
    with oracle_route(spec.method):
        return outcome(spec)


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(jobs=2)
    yield backend
    backend.close()


class TestEngineDifferential:
    @settings(
        max_examples=fuzz_examples(200),
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wf=workflows(),
        processors=subsets(range(1, 6), 2),
        pfails=subsets(PFAILS, 2),
        ccrs=subsets(CCRS, 2),
        save_final_outputs=st.booleans(),
        method=st.sampled_from(METHODS),
    )
    def test_batched_records_equal_per_cell_oracle(
        self, wf, processors, pfails, ccrs, save_final_outputs, method
    ):
        spec = SweepSpec.from_source(
            FileSource(wf),
            processors=processors,
            pfails=pfails,
            ccrs=ccrs,
            method=method,
            save_final_outputs=save_final_outputs,
            seed_policy="stable",
        )
        assert outcome(spec) == oracle_outcome(spec)

    @settings(
        max_examples=fuzz_examples(20),
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wf=workflows(),
        processors=subsets(range(1, 6), 2),
        pfails=subsets(PFAILS, 2),
        ccrs=subsets(CCRS, 2),
        save_final_outputs=st.booleans(),
        method=st.sampled_from(METHODS),
    )
    def test_process_pool_records_equal_per_cell_oracle(
        self, pool, wf, processors, pfails, ccrs, save_final_outputs, method
    ):
        """The engine property with the batched side on a second backend.
        The pool side runs first: a worker forked while the oracle route
        is patched in would price with the oracle too."""
        spec = SweepSpec.from_source(
            FileSource(wf),
            processors=processors,
            pfails=pfails,
            ccrs=ccrs,
            method=method,
            save_final_outputs=save_final_outputs,
            seed_policy="stable",
        )
        pooled = outcome(spec, backend=pool)
        assert pooled == oracle_outcome(spec)

    @settings(
        max_examples=fuzz_examples(100),
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wf=workflows(),
        processors=subsets(range(1, 6), 2),
        pfails=subsets(PFAILS, 2),
        ccrs=subsets(CCRS, 2),
        eval_seed_policy=st.sampled_from(("content", "positional")),
    )
    def test_monte_carlo_records_equal_per_cell_oracle(
        self, wf, processors, pfails, ccrs, eval_seed_policy
    ):
        """Sampling seeds thread through the batch call cell by cell."""
        spec = SweepSpec.from_source(
            FileSource(wf),
            processors=processors,
            pfails=pfails,
            ccrs=ccrs,
            method="montecarlo",
            evaluator_options={"trials": 300},
            eval_seed_policy=eval_seed_policy,
            seed_policy="stable",
        )
        assert outcome(spec) == oracle_outcome(spec)


#: Table entries for the DP: small values so that sums tie exactly, both
#: zeros, both infinities and NaN.
DP_VALUES = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan)


@st.composite
def dp_tables(draw):
    """Up to 6 padded T tables of 1-9 positions, one per row."""
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 9))
    lengths = draw(st.lists(st.integers(1, width), min_size=rows, max_size=rows))
    values = draw(
        st.lists(
            st.sampled_from(DP_VALUES),
            min_size=rows * width * width,
            max_size=rows * width * width,
        )
    )
    tables = np.array(values).reshape(rows, width, width)
    return np.array(lengths, dtype=np.intp), tables


def hexes(*columns):
    return [tuple(float(v).hex() for v in row) for row in zip(*columns)]


class TestArrayProgramDifferential:
    """The batched path's array program (span tables, slice costs and
    Algorithm 2 over many rows) against the per-cell cost model and the
    scalar DP, float by float."""

    @settings(
        max_examples=fuzz_examples(60),
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wf=workflows(zeros=(0.0, -0.0)),
        processors=st.integers(1, 5),
        ccrs=subsets(CCRS, 2),
        save_final_outputs=st.booleans(),
    )
    def test_span_tables_and_slice_costs_equal_the_cost_model(
        self, wf, processors, ccrs, save_final_outputs
    ):
        """Every chain's span table equals
        :meth:`SuperchainCostModel.span_table` byte for byte, and every
        slice's ``(R, W, C)`` equals ``read_cost`` / ``compute`` /
        ``ckpt_cost`` under ``float.hex``, at each CCR."""
        pipe = Pipeline()
        schedule = pipe.schedule_for(wf, processors, seed=7)
        platform = pipe.platform_for(wf, processors, 1e-2)
        scaled = []
        for ccr in ccrs:
            try:
                scaled.append(pipe.scale(wf, platform, ccr))
            except ExperimentError:  # no file data to rescale
                scaled.append(wf)
        incidence = ScheduleIncidence(wf, schedule)
        costs = GroupCosts(
            incidence,
            [[w.file_size(f) for f in incidence.files] for w in scaled],
            platform.bandwidth,
            save_final_outputs,
            [0],
            [platform.failure_rate],
        )
        spans, reads = costs.span_tables()
        for row, w in enumerate(scaled):
            for chain, sc in enumerate(schedule.superchains):
                model = SuperchainCostModel(w, sc, platform, save_final_outputs)
                n = len(sc.tasks)
                table = spans[row, chain, :n, :n]
                assert table.tobytes() == model.span_table().tobytes()
                start, end = np.triu_indices(n)
                got = costs.slice_costs(
                    reads, np.full(len(start), row), np.full(len(start), chain),
                    start, end,
                )
                pairs = list(zip(start.tolist(), end.tolist()))
                assert hexes(*got) == hexes(
                    [model.read_cost(i, j) for i, j in pairs],
                    [model.compute(i, j) for i, j in pairs],
                    [model.ckpt_cost(i, j) for i, j in pairs],
                )

    @settings(
        max_examples=fuzz_examples(300),
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(drawn=dp_tables(), block=st.sampled_from((1, 20, dp_mod.BLOCK)))
    def test_dp_columns_equals_dp_from_table(self, drawn, block):
        """Positions and ``ETime`` bits of every row equal
        :func:`dp_from_table`'s, through exact ties, NaN first and inner
        candidates, infinities and signed zeros, whatever the column
        blocks."""
        lengths, tables = drawn
        with mock.patch.object(dp_mod, "BLOCK", block):
            cuts, etime = dp_columns(
                lambda lo, hi: tables[:, :, lo:hi], lengths, tables.shape[1]
            )
        for row, n in enumerate(lengths.tolist()):
            positions, want = dp_from_table(tables[row, :n, :n])
            assert np.flatnonzero(cuts[row]).tolist() == positions
            assert float(etime[row]).hex() == want.hex()
