"""Grid sweep executor: staged pipeline × (optional) process-pool fan-out.

A sweep is declared as a :class:`SweepSpec` — one workflow family (or
an external workflow file wrapped in a
:class:`~repro.workloads.FileSource`, see :meth:`SweepSpec.from_source`),
a set of sizes, per-size processor counts, and pfail/CCR axes — and
executed by :func:`run_sweep`.  The execution plan is deterministic:

* the grid is decomposed into *groups*, one per (size, processors) pair,
  iterated size-major (the historical ``run_figure`` order);
* every seed is derived **up front in the parent process**, so records
  are bit-identical whatever ``jobs`` or chunking is used.  Two seed
  policies exist: ``"stable"`` reproduces the historical
  :func:`repro.util.rng.stable_seed` derivation (the paper figures), and
  ``"spawn"`` derives child seeds through
  :class:`numpy.random.SeedSequence` spawning (the recommended scheme
  for independent parallel streams);
* with ``jobs == 1`` the groups run in-process over one shared
  :class:`~repro.engine.pipeline.Pipeline`, so the M-SPG tree is built
  once per workflow and the schedule once per (workflow, processors)
  pair;
* with ``jobs > 1`` — or an explicit ``backend=`` — chunks fan out
  over a pluggable :mod:`execution backend <repro.engine.backends>`
  (process pool by default; serial reference, fresh-interpreter
  subprocesses and a remote ``repro worker`` fleet are the others),
  each worker amortising the invariant stages over its chunk with a
  private pipeline.  All backends run through one shared dispatch
  loop (:func:`repro.engine.backends.run_tasks`), which owns the
  broken-executor serial restart and the profile-snapshot merge;
* each chunk's cells — a single-cell chunk or a coalesced service spec
  included — are priced through
  :meth:`~repro.engine.pipeline.Pipeline.evaluate_cells`: one call of
  the makespan layer's batched entry point per checkpoint strategy and
  structure group, bit-identical to per-cell evaluation.  Stochastic
  evaluators (Monte Carlo) receive their per-cell sampling seeds
  through the batch call, so records are seed-for-seed identical to
  the per-cell path under either eval-seed policy; evaluators that do
  not declare ``supports_batch`` run through the per-cell path, which
  is otherwise kept only as the bit-exactness oracle.

Results are always returned in grid order, one
:class:`~repro.engine.records.CellResult` per cell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
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

from repro.engine.backends import (
    BackendTask,
    BackendUnavailable,
    ExecutionBackend,
    get_backend,
    run_tasks,
)
from repro.engine.pipeline import Pipeline
from repro.engine.records import CellResult
from repro.errors import ExperimentError
from repro.makespan import profile as _profile
from repro.util.rng import stable_seed
from repro.workloads import FamilySource, FileSource, WorkflowSource
from repro.util.validation import (
    bandwidth_error,
    ccr_error,
    pfail_error,
    seed_error,
)

__all__ = [
    "SweepSpec",
    "cell_wf_seed",
    "cell_eval_seed",
    "run_sweep",
    "run_specs",
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


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one parameter-grid sweep."""

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
        try:
            object.__setattr__(
                self, "sizes", tuple(int(n) for n in self.sizes)
            )
            object.__setattr__(
                self, "pfails", tuple(float(p) for p in self.pfails)
            )
            object.__setattr__(
                self, "ccrs", tuple(float(c) for c in self.ccrs)
            )
            object.__setattr__(
                self,
                "processors",
                {int(k): tuple(v) for k, v in dict(self.processors).items()},
            )
            object.__setattr__(self, "seed", int(self.seed))
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ExperimentError(
                f"bad numeric sweep field: {exc}"
            ) from None
        try:
            object.__setattr__(
                self,
                "evaluator_options",
                tuple(sorted(dict(self.evaluator_options).items())),
            )
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"evaluator_options must be a mapping with string keys: "
                f"{exc}"
            ) from None
        if self.seed_policy not in SEED_POLICIES:
            raise ExperimentError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"choose from {list(SEED_POLICIES)}"
            )
        if self.eval_seed_policy not in EVAL_SEED_POLICIES:
            raise ExperimentError(
                f"unknown eval-seed policy {self.eval_seed_policy!r}; "
                f"choose from {list(EVAL_SEED_POLICIES)}"
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
            if not self.processors.get(ntasks):
                raise ExperimentError(
                    f"no processor counts configured for size {ntasks}"
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

    if chunk_cells is None or chunk_cells <= 0:
        return groups
    # Split each group's cell list into chunks of at most ``chunk_cells``
    # for finer load balancing (at the cost of re-amortising the
    # invariant stages once per chunk instead of once per group).
    chunks: List[_Chunk] = []
    for g in groups:
        for j in range(0, len(g.cells), chunk_cells):
            chunks.append(
                replace(
                    g,
                    order=(g.order[0], j),
                    cells=g.cells[j : j + chunk_cells],
                )
            )
    return chunks


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
    spec: SweepSpec,
    chunk: _Chunk,
    pipeline: Pipeline,
    progress: Optional[Callable[[str], None]] = None,
) -> List[CellResult]:
    """Execute one chunk's cells through the staged pipeline.

    The invariant stages come from the pipeline cache; the cells are
    priced by :meth:`~repro.engine.pipeline.Pipeline.evaluate_cells`,
    which batches each strategy × structure group into one evaluator
    call (whatever the chunk's size or eval-seed policy).
    """
    workflow, schedule = _chunk_schedule(spec, chunk, pipeline)
    records = pipeline.evaluate_cells(
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
    if progress is not None:
        for record in records:
            progress(_progress_message(spec, record))
    return records


def _run_chunk_task(
    spec: SweepSpec,
    chunk: _Chunk,
    profile: bool = False,
    pipeline: Optional[Pipeline] = None,
) -> Tuple[List[CellResult], Optional[Dict[str, Any]]]:
    """Backend work-unit entry point: price one chunk, ship the records.

    Follows the :mod:`repro.engine.backends` task contract — returns
    ``(records, profile_snapshot)``.  The snapshot is ``None`` unless
    ``profile`` is set: an out-of-process backend's parent collector
    does not cross the process boundary, so the worker enables a
    private one and ships the counters back for
    :meth:`~repro.makespan.profile.KernelProfile.merge`.  ``pipeline``
    lets an in-process backend (serial reference, broken-executor
    restart) share one pipeline across tasks; out-of-process executions
    build a private one per chunk.
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


def _resolve_backend(
    backend: Union[None, str, ExecutionBackend], jobs: int
) -> Tuple[ExecutionBackend, bool]:
    """Turn a ``backend=`` argument into ``(instance, owns_backend)``.

    ``None`` means the historical default — a process pool sized by
    ``jobs``.  A string goes through
    :func:`repro.engine.backends.get_backend`; an instance is used as
    is (and not closed: the caller owns its lifecycle — this is how the
    service threads one long-lived remote fleet through every batch).
    Raises :class:`~repro.engine.backends.BackendUnavailable` when the
    environment cannot host the backend; callers fall back to the
    serial in-process path, which produces identical records.
    """
    if backend is None:
        backend = "process"
    if isinstance(backend, str):
        return get_backend(backend, jobs=jobs), True
    return backend, False


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
        execution; ignored on the backend fan-out path.
    backend:
        Where chunks execute: ``None`` (default) keeps the historical
        behaviour — in-process when ``jobs == 1``, a process pool
        otherwise; a name from :data:`repro.engine.backends.BACKENDS`
        (``"serial"``, ``"process"``, ``"subprocess"``, ``"remote"``)
        or a ready :class:`~repro.engine.backends.ExecutionBackend`
        instance forces that backend regardless of ``jobs``.  Every
        seed is derived here in the parent before submission, so
        records are bit-identical across all backends.
    """
    if not spec.sizes or not spec.pfails or not spec.ccrs:
        raise ExperimentError(
            "sweep grid is empty (sizes, pfails and ccrs must be non-empty)"
        )
    chunks = _derive_chunks(spec, chunk_cells)
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1

    if backend is None and jobs == 1:
        pipe = pipeline if pipeline is not None else Pipeline()
        return [
            rec for ch in chunks for rec in _run_chunk(spec, ch, pipe, progress)
        ]

    try:
        exec_backend, owns = _resolve_backend(backend, jobs)
    except BackendUnavailable:
        # No executor support in this environment (restricted sandbox):
        # fall back to the serial path, which produces identical records.
        return run_sweep(spec, jobs=1, progress=progress, pipeline=pipeline)

    if chunk_cells is None and exec_backend.max_inflight != 1:
        # Auto-chunk so a concurrent backend has a few chunks per worker
        # even when the grid has fewer (size, processors) groups than
        # workers.  (A one-at-a-time backend keeps group granularity —
        # splitting would only re-amortise the invariant stages.)
        per_group = len(spec.pfails) * len(spec.ccrs)
        n_groups = len(chunks)
        target = 2 * max(jobs, 2)
        if n_groups < target:
            chunk_cells = max(1, math.ceil(per_group * n_groups / target))
            chunks = _derive_chunks(spec, chunk_cells)

    def on_result(order: Tuple[int, int], recs: List[CellResult]) -> None:
        if progress is not None:
            for rec in recs:
                progress(_progress_message(spec, rec))

    results = run_tasks(
        exec_backend,
        [
            BackendTask(fn=_run_chunk_task, args=(spec, ch), key=ch.order)
            for ch in chunks
        ],
        on_result=on_result,
        on_note=progress,
        owns_backend=owns,
    )
    return [rec for order in sorted(results) for rec in results[order]]


def _run_spec_task(
    spec: SweepSpec,
    profile: bool = False,
    pipeline: Optional[Pipeline] = None,
) -> Tuple[List[CellResult], Optional[Dict[str, Any]]]:
    """Backend work-unit entry point for :func:`run_specs`: one serial
    sweep per unit.

    Returns ``(records, profile_snapshot)`` exactly like
    :func:`_run_chunk_task` — out-of-process workers profile themselves
    when the parent holds an active collector, and an in-process
    backend threads its shared ``pipeline`` through the sweep.
    """
    if not profile:
        return run_sweep(spec, jobs=1, pipeline=pipeline), None
    prof = _profile.enable()
    try:
        records = run_sweep(spec, jobs=1, pipeline=pipeline)
        return records, prof.snapshot()
    finally:
        _profile.disable()


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
    batches through.  Serial execution (``jobs == 1``) threads one shared
    :class:`~repro.engine.pipeline.Pipeline` through every spec, so specs
    that share a (workflow, processors) pair — e.g. the same grid group
    split across batches — reuse the cached M-SPG tree and schedule
    instead of recomputing them.  With ``jobs > 1`` — or an explicit
    ``backend=``, which takes the same names and instances as
    :func:`run_sweep` — whole specs fan out over an execution backend
    (``0``/negative means "all cores"); a single spec falls through to
    :func:`run_sweep`'s own cell-level fan-out.  Records are identical
    for every ``jobs`` value and every backend.

    With ``return_exceptions=True`` a spec whose execution raises yields
    its exception object in that slot instead of aborting the whole
    batch (:func:`asyncio.gather` semantics) — the service scheduler
    uses this to fail only the requests belonging to a bad spec while
    the co-batched specs' results are kept.  Every spec is priced
    through :func:`run_sweep`, so the coalesced service batches ride the
    same batched evaluation entry point as declared sweeps.
    """
    specs = list(specs)
    if not specs:
        return []
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1

    def one(
        spec: SweepSpec, pipe: Optional[Pipeline], n: int
    ) -> Any:
        try:
            return run_sweep(
                spec, jobs=n, progress=progress, pipeline=pipe,
                backend=backend,
            )
        except Exception as exc:
            if not return_exceptions:
                raise
            return exc

    if len(specs) == 1:
        return [one(specs[0], pipeline, jobs)]
    if backend is None and jobs == 1:
        pipe = pipeline if pipeline is not None else Pipeline()
        return [one(s, pipe, 1) for s in specs]
    try:
        exec_backend, owns = _resolve_backend(
            backend, min(jobs, len(specs))
        )
    except BackendUnavailable:
        return run_specs(
            specs, jobs=1, progress=progress, pipeline=pipeline,
            return_exceptions=return_exceptions,
        )

    def on_result(i: int, recs: List[CellResult]) -> None:
        if progress is not None:
            for rec in recs:
                progress(_progress_message(specs[i], rec))

    out = run_tasks(
        exec_backend,
        [
            BackendTask(fn=_run_spec_task, args=(s,), key=i)
            for i, s in enumerate(specs)
        ],
        on_result=on_result,
        on_note=progress,
        return_exceptions=return_exceptions,
        owns_backend=owns,
    )
    return [out[i] for i in range(len(specs))]
