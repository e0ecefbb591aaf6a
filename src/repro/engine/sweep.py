"""Grid sweep executor: staged pipeline × pluggable backend fan-out.

A sweep is declared as a :class:`SweepSpec` — one workflow family (or
an external workflow file wrapped in a
:class:`~repro.workloads.FileSource`, see :meth:`SweepSpec.from_source`),
a set of sizes, per-size processor counts, and pfail/CCR axes — and
executed by :func:`run_sweep`; :func:`run_specs` executes several at
once.  Both take one route from spec to record:

* each grid is decomposed into *groups*, one per (size, processors)
  pair, iterated size-major (the historical ``run_figure`` order), and
  groups may be split into *chunks* of contiguous cells;
* every seed is derived **up front in the parent process**, so records
  are bit-identical whatever ``jobs``, chunking or backend is used.
  Two seed policies exist: ``"stable"`` reproduces the historical
  :func:`repro.util.rng.stable_seed` derivation (the paper figures), and
  ``"spawn"`` derives child seeds through
  :class:`numpy.random.SeedSequence` spawning (the recommended scheme
  for independent parallel streams);
* every chunk is one ``_run_chunk_task`` unit, driven through the
  shared dispatch loop (:func:`repro.engine.backends.run_tasks`) on an
  :mod:`execution backend <repro.engine.backends>`.  With ``jobs == 1``
  that backend is a :class:`~repro.engine.backends.SerialBackend` on
  the caller's :class:`~repro.engine.pipeline.Pipeline`, so the M-SPG
  tree is built once per workflow and the schedule once per (workflow,
  processors) pair; with ``jobs > 1`` it is a process pool, and an
  explicit ``backend=`` picks any other (fresh-interpreter
  subprocesses, a remote ``repro worker`` fleet), which receive each
  unit as JSON data through this module's codec (:func:`unit_to_json`
  and its inverses), never as code;
* each chunk's cells — a single-cell chunk or a coalesced service spec
  included — are priced through
  :meth:`~repro.engine.pipeline.Pipeline.evaluate_cells`: one call of
  the makespan layer's batched entry point per checkpoint strategy and
  structure group, bit-identical to per-cell evaluation.  Stochastic
  evaluators (Monte Carlo) receive their per-cell sampling seeds
  through the batch call, so records are seed-for-seed identical to
  the per-cell oracle under either eval-seed policy.

Results are always returned in grid order, one
:class:`~repro.engine.records.CellResult` per cell.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import errors as _errors
from repro.engine.backends import (
    BackendTask,
    BackendUnavailable,
    ExecutionBackend,
    SerialBackend,
    get_backend,
    run_tasks,
)
from repro.engine.pipeline import Pipeline
from repro.engine.records import CellResult, record_from_dict
from repro.errors import BackendError, ExperimentError, ReproError
from repro.generators.serialization import workflow_from_json, workflow_to_json
from repro.makespan import profile as _profile
from repro.makespan.api import EVALUATORS
from repro.scheduling.linearize import LINEARIZERS
from repro.util.rng import stable_seed
from repro.workloads import FamilySource, FileSource, WorkflowSource
from repro.util.validation import (
    bandwidth_error,
    ccr_error,
    pfail_error,
    require_float,
    require_integer,
    seed_error,
)

__all__ = [
    "SweepSpec",
    "cell_wf_seed",
    "cell_eval_seed",
    "run_sweep",
    "run_specs",
    "unit_to_json",
    "unit_from_json",
    "run_unit",
    "result_from_json",
    "error_to_json",
    "error_from_json",
]

#: Allowed seed-derivation policies.
SEED_POLICIES = ("spawn", "stable")

#: Allowed evaluation-seed policies.  ``"positional"`` derives each
#: cell's sampling seed from its position in the declared grid (the
#: historical behaviour, shared by both :data:`SEED_POLICIES`);
#: ``"content"`` derives it from what the cell *is* via
#: :func:`cell_eval_seed`, making stochastic records independent of the
#: grid they were computed in.
EVAL_SEED_POLICIES = ("positional", "content")


def _axis(values: Any, convert: Callable[[Any, str], Any], name: str) -> tuple:
    """A grid axis as a tuple of ``convert``-ed values; a string is
    refused rather than read one character per value."""
    if isinstance(values, (str, bytes)):
        raise TypeError(f"{name} values must be a list, got {values!r}")
    return tuple(convert(v, name) for v in values)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one parameter-grid sweep.

    Construction is the one place a cell's fields are checked: every
    entry point — the CLI, the unit codec and the service, whose
    :class:`~repro.service.fingerprint.EvalRequest` validates as its
    1×1 spec — refuses the same input with the same
    :class:`~repro.errors.ExperimentError` message.  String fields must
    be strings and ``save_final_outputs`` a bool; the numeric fields
    coerce as ``int()``/``float()`` do, but a bool, or an integer field
    with a fractional part, is refused; ``method`` must be registered in
    :data:`~repro.makespan.api.EVALUATORS` and ``linearizer`` known;
    evaluator options need string names and finite JSON-scalar values.
    """

    family: str
    sizes: Tuple[int, ...]
    processors: Mapping[int, Tuple[int, ...]]
    pfails: Tuple[float, ...]
    ccrs: Tuple[float, ...]
    seed: int = 2017
    method: str = "pathapprox"
    bandwidth: float = 100e6
    linearizer: str = "random"
    save_final_outputs: bool = True
    seed_policy: str = "spawn"
    #: How per-cell *evaluation* (sampling) seeds are derived.  The
    #: default ``"positional"`` reproduces the historical grid-position
    #: derivation bit for bit (paper figures and all pre-existing
    #: records); ``"content"`` derives each cell's seed from the cell's
    #: own content via :func:`cell_eval_seed`, so a cell's record no
    #: longer depends on the shape of the grid that computed it.  Only
    #: stochastic methods (Monte Carlo) consume evaluation seeds —
    #: closed-form records are identical under both policies.
    eval_seed_policy: str = "positional"
    name: str = "sweep"
    #: Extra evaluator keywords (``trials=`` for Monte Carlo, ``k=`` for
    #: PathApprox, ...).  Accepts a mapping; stored as a sorted tuple of
    #: (name, value) pairs so specs stay hashable and picklable.
    evaluator_options: Tuple[Tuple[str, Any], ...] = ()
    #: External workflow source (``None`` = generate ``family``
    #: instances).  Set through :meth:`from_source`; when present,
    #: ``family`` must be the source's ``spec_family`` and ``sizes`` its
    #: actual task count, so records and seed derivations stay
    #: content-addressed.
    source: Optional[FileSource] = None

    def __post_init__(self) -> None:
        for name, kind in (
            ("family", str), ("method", str), ("linearizer", str),
            ("seed_policy", str), ("eval_seed_policy", str), ("name", str),
            ("save_final_outputs", bool),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ExperimentError(
                    f"{name} must be a {kind.__name__}, got {value!r}"
                )
        try:
            object.__setattr__(
                self, "sizes", _axis(self.sizes, require_integer, "size")
            )
            object.__setattr__(
                self, "pfails", _axis(self.pfails, require_float, "pfail")
            )
            object.__setattr__(
                self, "ccrs", _axis(self.ccrs, require_float, "CCR")
            )
            object.__setattr__(
                self,
                "processors",
                {
                    require_integer(k, "size"): _axis(
                        v, require_integer, "processor count"
                    )
                    for k, v in dict(self.processors).items()
                },
            )
            object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
            object.__setattr__(
                self, "bandwidth", require_float(self.bandwidth, "bandwidth")
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ExperimentError(
                f"bad numeric sweep field: {exc}"
            ) from None
        try:
            options = tuple(sorted(dict(self.evaluator_options).items()))
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"evaluator_options must be a mapping with string keys: "
                f"{exc}"
            ) from None
        # Option values must be JSON scalars: records, unit messages and
        # service fingerprints carry them as strict JSON, and the
        # service's coalesce key needs them hashable.
        for key, value in options:
            if not isinstance(key, str):
                raise ExperimentError(
                    f"evaluator option names must be strings, got {key!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ExperimentError(
                    f"evaluator option {key!r} must be finite, got {value}"
                )
            if value is not None and not isinstance(
                value, (str, int, float, bool)
            ):
                raise ExperimentError(
                    f"evaluator option {key!r} must be a JSON scalar "
                    f"(str/int/float/bool/None), got {type(value).__name__}"
                )
        object.__setattr__(self, "evaluator_options", options)
        for label, value, known in (
            ("method", self.method, EVALUATORS),
            ("linearizer", self.linearizer, LINEARIZERS),
            ("seed policy", self.seed_policy, SEED_POLICIES),
            ("eval-seed policy", self.eval_seed_policy, EVAL_SEED_POLICIES),
        ):
            if value not in known:
                raise ExperimentError(
                    f"unknown {label} {value!r}; choose from {sorted(known)}"
                )
        if not self.sizes or not self.pfails or not self.ccrs:
            raise ExperimentError(
                "sweep grid is empty (sizes, pfails and ccrs must be "
                "non-empty)"
            )
        for msg in (
            *(pfail_error(pfail) for pfail in self.pfails),
            *(ccr_error(ccr) for ccr in self.ccrs),
            bandwidth_error(self.bandwidth),
            seed_error(self.seed),
        ):
            if msg is not None:
                raise ExperimentError(msg)
        for ntasks in self.sizes:
            if ntasks < 1:
                raise ExperimentError(f"sizes must be >= 1, got {ntasks}")
            if not self.processors.get(ntasks):
                raise ExperimentError(
                    f"no processor counts configured for size {ntasks}"
                )
            if min(self.processors[ntasks]) < 1:
                raise ExperimentError(
                    f"processor counts must be >= 1, got "
                    f"{self.processors[ntasks]} for size {ntasks}"
                )
        if self.source is not None:
            if not isinstance(self.source, FileSource):
                raise ExperimentError(
                    f"spec source must be a FileSource, got "
                    f"{type(self.source).__name__}"
                )
            if self.family != self.source.spec_family:
                raise ExperimentError(
                    f"family {self.family!r} does not match the source's "
                    f"content-derived family {self.source.spec_family!r}"
                )
            if self.sizes != (self.source.workflow.n_tasks,):
                raise ExperimentError(
                    f"a file-sourced spec's sizes must be the workflow's "
                    f"actual task count ({self.source.workflow.n_tasks},), "
                    f"got {self.sizes}"
                )

    @classmethod
    def from_source(
        cls,
        source: FileSource,
        processors: Sequence[int],
        pfails: Sequence[float],
        ccrs: Sequence[float],
        **kwargs: Any,
    ) -> "SweepSpec":
        """Spec over one external workflow: the size axis is the file's
        task count, ``processors`` is a flat list of counts, and the
        family string is the source's content-derived ``file:<hash12>``."""
        ntasks = source.workflow.n_tasks
        kwargs.setdefault("name", f"sweep[{source.spec_family}]")
        return cls(
            family=source.spec_family,
            sizes=(ntasks,),
            processors={ntasks: tuple(processors)},
            pfails=tuple(pfails),
            ccrs=tuple(ccrs),
            source=source,
            **kwargs,
        )

    @property
    def resolved_source(self) -> WorkflowSource:
        """The spec's workflow source (family generation by default)."""
        return (
            self.source if self.source is not None else FamilySource(self.family)
        )

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        per_group = len(self.pfails) * len(self.ccrs)
        return sum(
            len(self.processors[n]) for n in self.sizes
        ) * per_group

    @classmethod
    def from_figure(cls, figure) -> "SweepSpec":
        """Adapt a :class:`repro.experiments.figures.FigureSpec`.

        Uses the ``"stable"`` seed policy so figure numbers are identical
        to the historical serial loops.  Duck-typed to avoid an import
        cycle with the experiments package.
        """
        try:
            processors = {
                int(n): tuple(figure.processors[n]) for n in figure.sizes
            }
        except KeyError as exc:
            raise ExperimentError(
                f"no processor counts configured for size {exc.args[0]}"
            ) from None
        return cls(
            family=figure.family,
            sizes=tuple(figure.sizes),
            processors=processors,
            pfails=tuple(figure.pfails),
            ccrs=tuple(figure.ccrs),
            seed=figure.seed,
            method=figure.method,
            bandwidth=figure.bandwidth,
            seed_policy="stable",
            name=figure.name,
        )


@dataclass(frozen=True)
class _Chunk:
    """One unit of executor work: contiguous cells of one grid group."""

    order: Tuple[int, int]  # (group index, chunk index) — flatten order
    ntasks: int
    processors: int
    wf_seed: int
    sched_seed: int
    cells: Tuple[Tuple[float, float, int], ...]  # (pfail, ccr, eval_seed)


def _seq_to_seed(seq: np.random.SeedSequence) -> int:
    """Deterministic 63-bit int seed from a spawned SeedSequence."""
    return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))


def cell_wf_seed(
    seed: int, seed_policy: str, family: str, ntasks: int
) -> int:
    """Workflow seed a 1×1 grid (the per-cell contract) derives.

    ``"stable"`` hashes (seed, family, ntasks) position-independently;
    ``"spawn"`` takes the index-0 spawns of the SeedSequence tree, which
    is what a single-cell grid resolves to.  The service store's
    backfill uses this to verify record provenance: a record whose
    stored seed disagrees was computed under different workflow seeds
    (wrong root seed/policy, or a non-initial position of a spawn grid).
    """
    if seed_policy not in SEED_POLICIES:
        raise ExperimentError(
            f"unknown seed policy {seed_policy!r}; "
            f"choose from {list(SEED_POLICIES)}"
        )
    if seed_policy == "spawn":
        if seed < 0:
            raise ExperimentError(
                "the spawn seed policy requires a non-negative root "
                f"seed (SeedSequence spawning), got {seed}"
            )
        root = np.random.SeedSequence(seed)
        return _seq_to_seed(root.spawn(1)[0].spawn(2)[0])
    return stable_seed(seed, family, ntasks)


def cell_eval_seed(
    wf_seed: int,
    processors: int,
    pfail: float,
    ccr: float,
    method: str,
    evaluator_options: Mapping[str, Any] = (),
) -> int:
    """Content-derived evaluation (sampling) seed of one cell.

    The ``"content"`` eval-seed policy's defining contract, mirroring
    :func:`cell_wf_seed`: the seed is a :func:`repro.util.rng.stable_seed`
    hash of what the cell *is* — its workflow seed (which already pins
    root seed, family and size under either seed policy), processor
    count, (pfail, CCR) coordinates, evaluation method and canonical
    evaluator options — never of where the cell sits in a grid.  Two
    grids of any shape therefore sample identical streams for identical
    cells, which is what lets Monte Carlo requests ride request
    coalescing, batched evaluation and the durable result store.

    Floats are hashed through their exact ``repr`` and options through
    their canonical sorted-pair form, matching the canonicalisation
    :class:`SweepSpec` and the service fingerprint already apply.
    """
    try:
        options = tuple(sorted(dict(evaluator_options).items()))
    except (TypeError, ValueError) as exc:
        raise ExperimentError(
            f"evaluator_options must be a mapping with string keys: {exc}"
        ) from None
    return stable_seed(
        "eval",
        int(wf_seed),
        int(processors),
        repr(float(pfail)),
        repr(float(ccr)),
        str(method),
        repr(options),
    )


def _derive_chunks(
    spec: SweepSpec, chunk_cells: Optional[int]
) -> List[_Chunk]:
    """The deterministic execution plan: all seeds resolved, grid order.

    Group seeds come either from ``stable_seed`` hashing (order
    independent by construction) or from a ``SeedSequence.spawn`` tree
    rooted at ``spec.seed`` and expanded in grid order — both computed
    here, before any fan-out, so serial and parallel runs see identical
    numbers.
    """
    cell_axes = [(pf, cc) for pf in spec.pfails for cc in spec.ccrs]
    n_cells_per_group = len(cell_axes)
    groups: List[_Chunk] = []

    if spec.seed_policy == "spawn":
        root = np.random.SeedSequence(spec.seed)
        size_seqs = root.spawn(len(spec.sizes))
    else:
        size_seqs = [None] * len(spec.sizes)

    group_index = 0
    for ntasks, size_seq in zip(spec.sizes, size_seqs):
        procs = spec.processors[ntasks]
        if spec.seed_policy == "spawn":
            kids = size_seq.spawn(1 + len(procs))
            wf_seed = _seq_to_seed(kids[0])
            proc_seqs = kids[1:]
        else:
            wf_seed = stable_seed(spec.seed, spec.family, ntasks)
            proc_seqs = [None] * len(procs)
        for p, proc_seq in zip(procs, proc_seqs):
            if spec.seed_policy == "spawn":
                kids2 = proc_seq.spawn(1 + n_cells_per_group)
                sched_seed = _seq_to_seed(kids2[0])
                eval_seeds = [_seq_to_seed(s) for s in kids2[1:]]
            else:
                sched_seed = stable_seed(spec.seed, spec.family, ntasks, p)
                eval_seeds = [
                    stable_seed(spec.seed, spec.family, ntasks, p, "cell", i)
                    for i in range(n_cells_per_group)
                ]
            if spec.eval_seed_policy == "content":
                # Content policy replaces only the *evaluation* seeds;
                # the workflow/schedule derivations above (including the
                # spawn tree's shape) are untouched, so closed-form
                # records are bit-identical under either policy.
                eval_seeds = [
                    cell_eval_seed(
                        wf_seed, p, pf, cc, spec.method,
                        dict(spec.evaluator_options),
                    )
                    for pf, cc in cell_axes
                ]
            cells = tuple(
                (pf, cc, ev)
                for (pf, cc), ev in zip(cell_axes, eval_seeds)
            )
            groups.append(
                _Chunk(
                    order=(group_index, 0),
                    ntasks=ntasks,
                    processors=p,
                    wf_seed=wf_seed,
                    sched_seed=sched_seed,
                    cells=cells,
                )
            )
            group_index += 1

    return _split(groups, chunk_cells)


def _split(groups: List[_Chunk], chunk_cells: Optional[int]) -> List[_Chunk]:
    """Each group's cells in chunks of at most ``chunk_cells``.

    Finer chunks balance a concurrent backend's load at the cost of
    re-amortising the invariant stages once per chunk instead of once
    per group; ``None`` or a non-positive size keeps whole groups.
    """
    if chunk_cells is None or chunk_cells <= 0:
        return groups
    return [
        replace(g, order=(g.order[0], j), cells=g.cells[j : j + chunk_cells])
        for g in groups
        for j in range(0, len(g.cells), chunk_cells)
    ]


def _progress_message(spec: SweepSpec, cell: CellResult) -> str:
    return (
        f"{spec.name} n={cell.ntasks_requested} p={cell.processors} "
        f"pfail={cell.pfail} ccr={cell.ccr:.2e}: "
        f"all/some={cell.ratio_all:.3f} none/some={cell.ratio_none:.3f}"
    )


def _chunk_schedule(
    spec: SweepSpec, chunk: _Chunk, pipeline: Pipeline
) -> Tuple[Any, Any]:
    """The chunk's (workflow, schedule), through the pipeline cache."""
    workflow = pipeline.prepare_source(
        spec.resolved_source, chunk.ntasks, chunk.wf_seed
    )
    tree = pipeline.mspg_tree(workflow)
    schedule = pipeline.schedule_for(
        workflow,
        chunk.processors,
        seed=chunk.sched_seed,
        linearizer=spec.linearizer,
        tree=tree,
    )
    return workflow, schedule


def _run_chunk(
    spec: SweepSpec, chunk: _Chunk, pipeline: Pipeline
) -> List[CellResult]:
    """Execute one chunk's cells through the staged pipeline.

    The invariant stages come from the pipeline cache; the cells are
    priced by :meth:`~repro.engine.pipeline.Pipeline.evaluate_cells`,
    which batches each strategy × structure group into one evaluator
    call (whatever the chunk's size or eval-seed policy).
    """
    workflow, schedule = _chunk_schedule(spec, chunk, pipeline)
    return pipeline.evaluate_cells(
        family=spec.family,
        ntasks_requested=chunk.ntasks,
        workflow=workflow,
        schedule=schedule,
        processors=chunk.processors,
        cells=chunk.cells,
        method=spec.method,
        seed=chunk.wf_seed,
        bandwidth=spec.bandwidth,
        save_final_outputs=spec.save_final_outputs,
        evaluator_options=dict(spec.evaluator_options),
    )


def _run_chunk_task(
    spec: SweepSpec,
    chunk: _Chunk,
    profile: bool = False,
    pipeline: Optional[Pipeline] = None,
) -> Tuple[List[CellResult], Optional[Dict[str, Any]]]:
    """The one backend work unit: price one chunk, ship the records.

    Follows the :mod:`repro.engine.backends` task contract — returns
    ``(records, profile_snapshot)``.  The snapshot is ``None`` unless
    ``profile`` is set: an out-of-process backend's parent collector
    does not cross the process boundary, so the worker enables a
    private one and ships the counters back for
    :meth:`~repro.makespan.profile.KernelProfile.merge`.  ``pipeline``
    is the in-process :class:`~repro.engine.backends.SerialBackend`'s
    shared pipeline; out-of-process executions build a private one per
    chunk.
    """
    pipe = pipeline if pipeline is not None else Pipeline()
    if not profile:
        return _run_chunk(spec, chunk, pipe), None
    prof = _profile.enable()
    try:
        records = _run_chunk(spec, chunk, pipe)
        return records, prof.snapshot()
    finally:
        _profile.disable()


# ----------------------------------------------------------------------
# The JSON unit codec: the one wire form of a _run_chunk_task call,
# shared by the subprocess runner (stdin/stdout) and the remote work
# queue (/work/lease, /work/complete, /work/fail).  Messages are data:
# nothing in one names code to run, and every decoder answers what it
# cannot check with a BackendError.  A unit's spec is checked by
# SweepSpec itself, types included, so a unit is refused exactly where
# the same spec built in-process would be.
#
#   unit    {"spec": {SweepSpec fields}, "chunk": {_Chunk fields},
#            "profile": bool}
#   result  {"records": [CellResult fields, ...], "profile": snapshot}
#   error   {"type": "EvaluationError", "message": "..."}

#: What a malformed message may raise while it is rebuilt.
_DECODE_ERRORS = (
    ReproError, KeyError, TypeError, ValueError, OverflowError, AttributeError,
)

#: :mod:`repro.errors` classes an error message may name.
_ERROR_TYPES = {name: getattr(_errors, name) for name in _errors.__all__}


def unit_to_json(task: BackendTask, profile: bool) -> Dict[str, Any]:
    """The JSON unit of one backend task: ``{spec, chunk, profile}``.

    Only :func:`_run_chunk_task` calls have a wire form; any other task
    raises :class:`~repro.errors.BackendError`.  A file source travels
    as its ``repro-workflow-v1`` body next to its content hash.
    """
    if task.fn is not _run_chunk_task:
        raise BackendError(
            f"only sweep chunk units can leave the process, not "
            f"{getattr(task.fn, '__qualname__', task.fn)!r}"
        )
    spec, chunk = task.args
    body = {f.name: getattr(spec, f.name) for f in fields(SweepSpec)}
    body["processors"] = list(spec.processors.items())  # int keys survive
    if spec.source is not None:
        body["source"] = {
            "hash": spec.source.content_hash,
            "workflow": workflow_to_json(spec.source.workflow),
        }
    unit = {"spec": body, "chunk": asdict(chunk), "profile": bool(profile)}
    try:
        # The round trip turns tuples into lists: the unit held by a
        # work queue is exactly the one a worker receives.
        return json.loads(json.dumps(unit))
    except (TypeError, ValueError) as exc:
        raise BackendError(f"sweep unit has no JSON form: {exc}") from None


def unit_from_json(unit: Any) -> Tuple[SweepSpec, _Chunk, bool]:
    """Rebuild ``(spec, chunk, profile)`` from a JSON unit.

    The spec takes exactly :class:`SweepSpec`'s fields and passes its
    construction checks again (the one validator of a cell's fields);
    a file source's body must hash to its stated content hash, and the
    chunk's cells must lie on the spec's grid.  Anything else raises
    :class:`~repro.errors.BackendError`.
    """
    try:
        body = dict(unit["spec"])
        if set(body) != {f.name for f in fields(SweepSpec)}:
            raise ValueError(f"spec fields {sorted(body)}")
        if body["source"] is not None:
            source = FileSource(workflow_from_json(body["source"]["workflow"]))
            if source.content_hash != body["source"]["hash"]:
                raise ValueError("workflow body does not match its hash")
            body["source"] = source
        spec = SweepSpec(**body)
        raw = unit["chunk"]
        group, index = raw["order"]
        chunk = _Chunk(
            order=(
                require_integer(group, "order"),
                require_integer(index, "order"),
            ),
            ntasks=require_integer(raw["ntasks"], "size"),
            processors=require_integer(raw["processors"], "processor count"),
            wf_seed=require_integer(raw["wf_seed"], "seed"),
            sched_seed=require_integer(raw["sched_seed"], "seed"),
            cells=tuple(
                (float(pfail), float(ccr), require_integer(seed, "seed"))
                for pfail, ccr, seed in raw["cells"]
            ),
        )
        profile = unit["profile"]
    except _DECODE_ERRORS as exc:
        raise BackendError(f"malformed work unit: {exc!r}") from None
    if (
        not isinstance(profile, bool)
        or not chunk.cells
        or chunk.processors not in spec.processors.get(chunk.ntasks, ())
        or any(
            pfail not in spec.pfails or ccr not in spec.ccrs
            for pfail, ccr, _ in chunk.cells
        )
    ):
        raise BackendError("malformed work unit: chunk is off its spec's grid")
    return spec, chunk, profile


def run_unit(unit: Any) -> Dict[str, Any]:
    """Execute one JSON unit in this process; returns its JSON result.

    Raises what the task raises, and
    :class:`~repro.errors.BackendError` for a unit that does not decode.
    """
    spec, chunk, profile = unit_from_json(unit)
    records, snapshot = _run_chunk_task(spec, chunk, profile=profile)
    return {"records": [asdict(r) for r in records], "profile": snapshot}


def result_from_json(
    result: Any, unit: Mapping[str, Any]
) -> Tuple[List[CellResult], Optional[Dict[str, Any]]]:
    """Rebuild a unit's ``(records, profile_snapshot)`` from its JSON
    result, checked against the unit's cells.

    The records must be one per cell, in cell order, each carrying its
    cell's family, size, processor count, pfail, CCR and workflow seed;
    the snapshot keeps only the op counters
    :meth:`~repro.makespan.profile.KernelProfile.merge` reads.  Anything
    else raises :class:`~repro.errors.BackendError`.
    """
    spec, chunk = unit["spec"], unit["chunk"]
    try:
        records = [record_from_dict(r) for r in result["records"]]
        snapshot = result["profile"]
        if snapshot is not None:
            snapshot = {
                "ops": {
                    str(op): {
                        "calls": require_integer(e["calls"], "calls"),
                        "rows": require_integer(e["rows"], "rows"),
                        "scalar_rows": require_integer(
                            e["scalar_rows"], "rows"
                        ),
                        "wall_s": float(e["wall_s"]),
                    }
                    for op, e in dict(snapshot["ops"]).items()
                }
            }
    except _DECODE_ERRORS as exc:
        raise BackendError(f"malformed work unit result: {exc!r}") from None
    cells = [
        (spec["family"], chunk["ntasks"], chunk["processors"], pfail, ccr,
         chunk["wf_seed"])
        for pfail, ccr, _ in chunk["cells"]
    ]
    got = [
        (r.family, r.ntasks_requested, r.processors, r.pfail, r.ccr, r.seed)
        for r in records
    ]
    if got != cells:
        raise BackendError(
            f"work unit result does not match its unit: {len(got)} "
            f"record(s) for {len(cells)} cell(s), or a record off its cell"
        )
    return records, snapshot


def error_to_json(exc: BaseException) -> Dict[str, str]:
    """The JSON error of a failed unit: ``{type, message}``."""
    return {"type": type(exc).__name__, "message": str(exc)}


def error_from_json(error: Any) -> ReproError:
    """The :mod:`repro.errors` exception a JSON error names; any other
    type becomes a :class:`~repro.errors.BackendError` that keeps the
    type's name.  A malformed error raises the BackendError instead."""
    try:
        kind, message = error["type"], error["message"]
    except _DECODE_ERRORS as exc:
        raise BackendError(f"malformed work unit error: {exc!r}") from None
    if not isinstance(kind, str) or not isinstance(message, str):
        raise BackendError(
            "malformed work unit error: type and message must be strings"
        )
    cls = _ERROR_TYPES.get(kind)
    if cls is None:
        return BackendError(f"{kind}: {message}")
    return cls(message)


def _dispatch(
    specs: Sequence[SweepSpec],
    jobs: int,
    progress: Optional[Callable[[str], None]],
    chunk_cells: Optional[int],
    pipeline: Optional[Pipeline],
    backend: Union[None, str, ExecutionBackend],
    return_exceptions: bool,
) -> List[Any]:
    """The one route from specs to records, shared by :func:`run_sweep`
    and :func:`run_specs`; one record list (or error) per spec.

    Every spec's chunks, and so every seed, are derived here in the
    parent; each chunk becomes one :func:`_run_chunk_task` unit driven
    through :func:`~repro.engine.backends.run_tasks`, and each spec's
    records are reassembled in grid order.  With ``return_exceptions``
    a spec's slot holds its own first error in grid order and the other
    specs' records are kept.
    """
    out: List[Any] = [[] for _ in specs]
    groups: Dict[int, List[_Chunk]] = {}
    for i, spec in enumerate(specs):
        try:
            groups[i] = _derive_chunks(spec, None)
        except Exception as exc:
            if not return_exceptions:
                raise
            out[i] = exc

    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    if backend is None:
        backend = "serial" if jobs == 1 else "process"
    owns = isinstance(backend, str)
    if owns:
        # A backend built here is closed by the dispatch loop; an
        # instance belongs to the caller (the service threads one
        # long-lived remote fleet through every batch).
        try:
            backend = (
                SerialBackend(pipeline)
                if backend == "serial"
                else get_backend(backend, jobs=jobs)
            )
        except BackendUnavailable:
            # No executor support in this environment (restricted
            # sandbox): run in-process, which produces identical records.
            backend = SerialBackend(pipeline)

    if chunk_cells is None and backend.max_inflight != 1:
        # Auto-chunk so a concurrent backend has a few chunks per worker
        # even when the batch has fewer (size, processors) groups than
        # workers.  (A one-at-a-time backend keeps group granularity —
        # splitting would only re-amortise the invariant stages.)
        target = 2 * max(jobs, 2)
        if sum(map(len, groups.values())) < target:
            cells = sum(len(g.cells) for gs in groups.values() for g in gs)
            chunk_cells = max(1, math.ceil(cells / target))
    tasks = [
        BackendTask(
            fn=_run_chunk_task, args=(specs[i], chunk), key=(i, *chunk.order)
        )
        for i, gs in groups.items()
        for chunk in _split(gs, chunk_cells)
    ]

    def on_result(key: Tuple[int, int, int], recs: List[CellResult]) -> None:
        if progress is not None:
            for rec in recs:
                progress(_progress_message(specs[key[0]], rec))

    results = run_tasks(
        backend,
        tasks,
        on_result=on_result,
        on_note=progress,
        return_exceptions=return_exceptions,
        owns_backend=owns,
    )
    for task in tasks:
        i, value = task.key[0], results[task.key]
        if isinstance(out[i], list):
            if isinstance(value, BaseException):
                out[i] = value
            else:
                out[i].extend(value)
    return out


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    chunk_cells: Optional[int] = None,
    pipeline: Optional[Pipeline] = None,
    backend: Union[None, str, ExecutionBackend] = None,
) -> List[CellResult]:
    """Execute a sweep; returns one record per cell, in grid order.

    Parameters
    ----------
    jobs:
        ``1`` (default) runs in-process over one shared pipeline —
        maximal artifact reuse.  ``> 1`` fans chunks out over an
        execution backend sized to that many workers; ``0``/negative
        means "all cores".  Records are identical for every value.
    progress:
        Callback receiving one formatted line per completed cell.
    chunk_cells:
        Split each (size, processors) group into chunks of at most this
        many cells for finer pool balancing.  Default: one chunk per
        group when serial (maximal reuse of the invariant stages); on a
        concurrent backend with fewer groups than workers, groups are
        split automatically so every worker has work.  Chunking never
        changes the records, only the work distribution.
    pipeline:
        Existing pipeline (and artifact cache) to reuse for in-process
        execution; ignored by out-of-process backends.
    backend:
        Where chunks execute: ``None`` (default) runs in-process when
        ``jobs == 1`` and on a process pool otherwise; a name from
        :data:`repro.engine.backends.BACKENDS` (``"serial"``,
        ``"process"``, ``"subprocess"``, ``"remote"``) or a ready
        :class:`~repro.engine.backends.ExecutionBackend` instance
        forces that backend regardless of ``jobs``.  Every seed is
        derived here in the parent before submission, so records are
        bit-identical across all backends.
    """
    (records,) = _dispatch(
        [spec], jobs, progress, chunk_cells, pipeline, backend, False
    )
    return records


def run_specs(
    specs: Sequence[SweepSpec],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    pipeline: Optional[Pipeline] = None,
    return_exceptions: bool = False,
    backend: Union[None, str, ExecutionBackend] = None,
) -> List[Any]:
    """Batch entry point: execute several sweeps; one record list per spec.

    This is the hook the service scheduler dispatches coalesced request
    batches through.  It takes :func:`run_sweep`'s route over the whole
    batch: every spec's chunks are units of one dispatch, so on a
    concurrent backend (``jobs > 1`` — ``0``/negative means "all
    cores" — or an explicit ``backend=``) the chunks of all specs fan
    out together, and in-process execution (``jobs == 1``) threads one
    shared :class:`~repro.engine.pipeline.Pipeline` through every spec,
    so specs that share a (workflow, processors) pair — e.g. the same
    grid group split across batches — reuse the cached M-SPG tree and
    schedule.  Records are identical for every ``jobs`` value and every
    backend.

    With ``return_exceptions=True`` a spec whose execution raises yields
    its exception object in that slot instead of aborting the whole
    batch (:func:`asyncio.gather` semantics) — the service scheduler
    uses this to fail only the requests belonging to a bad spec while
    the co-batched specs' results are kept.
    """
    specs = list(specs)
    if not specs:
        return []
    return _dispatch(
        specs, jobs, progress, None, pipeline, backend, return_exceptions
    )
