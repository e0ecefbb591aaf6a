"""Pipeline engine: staged execution, artifact cache, parallel sweeps.

The engine is the architectural seam between the paper's algorithms and
everything that runs them at scale:

* :mod:`repro.engine.pipeline` — :func:`repro.api.run_strategies`
  decomposed into explicit stages (prepare → mspgify → allocate → plan →
  build-DAG → evaluate) over a keyed :class:`ArtifactCache`, so sweeps
  reuse the M-SPG tree and schedule across the pfail/CCR axes;
* :mod:`repro.engine.sweep` — a deterministic grid executor with
  pluggable execution-backend fan-out, ``SeedSequence``-spawned
  per-cell child seeds (serial and parallel runs produce identical
  records), chunking, and a progress callback; cells are priced through
  the makespan layer's batched evaluation entry point (one DAG template
  per strategy and structure group, bit-identical to per-cell
  evaluation, which survives only as the test oracle) and
  :func:`run_specs` is the batch entry point (several sweeps whose
  chunks share one dispatch) that :mod:`repro.service` dispatches
  coalesced request batches through;
* :mod:`repro.engine.backends` — the execution backends themselves:
  one ``submit(task) → future`` protocol, four implementations
  (in-process serial, process pool, fresh-interpreter subprocesses,
  remote ``repro worker`` fleet over a lease/complete work queue) and
  the one shared dispatch loop that owns broken-executor restart and
  profile-snapshot merging.  Records are bit-identical across all of
  them;
* :mod:`repro.engine.records` — the typed result-record schema with
  JSONL/CSV serialisation (both directions), shared by the experiments
  harness, the CLI, the benchmarks and the service result store.

The experiments harness (:func:`repro.experiments.figures.run_figure`),
the facade (:func:`repro.api.run_strategies`) and the CLI ``sweep``/
``figure`` sub-commands are all thin layers over this package.
"""

from repro.engine.backends import (
    BACKENDS,
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
    ProcessPoolBackend,
    RemoteWorkerBackend,
    SerialBackend,
    SubprocessBackend,
    get_backend,
    run_tasks,
)
from repro.engine.pipeline import (
    COMPUTE_ONLY_STAGES,
    STAGES,
    STORED_STAGES,
    ArtifactCache,
    Pipeline,
    StageStats,
)
from repro.engine.records import (
    CellResult,
    record_from_dict,
    record_to_dict,
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
)
from repro.engine.sweep import (
    SweepSpec,
    cell_eval_seed,
    cell_wf_seed,
    run_specs,
    run_sweep,
)

__all__ = [
    "BACKENDS",
    "BackendTask",
    "BackendUnavailable",
    "BrokenBackendError",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "RemoteWorkerBackend",
    "SerialBackend",
    "SubprocessBackend",
    "get_backend",
    "run_tasks",
    "COMPUTE_ONLY_STAGES",
    "STAGES",
    "STORED_STAGES",
    "ArtifactCache",
    "Pipeline",
    "StageStats",
    "CellResult",
    "record_from_dict",
    "record_to_dict",
    "records_from_csv",
    "records_from_jsonl",
    "records_to_csv",
    "records_to_jsonl",
    "SweepSpec",
    "cell_eval_seed",
    "cell_wf_seed",
    "run_specs",
    "run_sweep",
]
