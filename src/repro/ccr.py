"""Communication-to-Computation Ratio machinery (§VI-A).

The paper defines the CCR of a workflow as *the time needed to store all
the files handled by the workflow (input, output and intermediate files)
divided by the time needed to perform all its computations on a single
processor*.  Rather than varying storage bandwidth (whose absolute value
would mean different things for different workflows), the experiments
scale all file sizes by a common factor to reach each target CCR — we do
exactly the same.

This lives at the top level (rather than under :mod:`repro.experiments`)
because CCR rescaling is a pipeline-stage transformation used by the
:mod:`repro.engine` as well as by the experiment harness;
:mod:`repro.experiments.ccr` re-exports it for backward compatibility.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.mspg.graph import Workflow, require_scale_factor
from repro.platform import Platform

__all__ = ["ccr_of", "ccr_scale_factor", "scale_to_ccr"]


def ccr_of(workflow: Workflow, platform: Platform) -> float:
    """CCR of a workflow on a platform (total store time / total compute)."""
    compute = workflow.total_weight
    if compute <= 0:
        raise ExperimentError("CCR undefined for a zero-compute workflow")
    return platform.io_seconds(workflow.total_file_bytes) / compute


def ccr_scale_factor(
    workflow: Workflow, platform: Platform, target_ccr: float
) -> float:
    """The factor :func:`scale_to_ccr` multiplies every file size by.

    A batched sweep prices each CCR's file sizes as the unscaled sizes
    times this factor, without a rescaled copy; both routes raise the
    same errors for a negative CCR, a workflow with no file data and a
    factor that is not a finite number >= 0.
    """
    if target_ccr < 0:
        raise ExperimentError(f"target CCR must be >= 0, got {target_ccr}")
    current = ccr_of(workflow, platform)
    if current == 0:
        raise ExperimentError(
            "cannot rescale a workflow with no file data to a positive CCR"
        )
    return require_scale_factor(target_ccr / current)


def scale_to_ccr(
    workflow: Workflow, platform: Platform, target_ccr: float
) -> Workflow:
    """A copy of the workflow whose file sizes realise ``target_ccr``."""
    return workflow.scale_file_sizes(
        ccr_scale_factor(workflow, platform, target_ccr)
    )
