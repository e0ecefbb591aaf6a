"""Staged execution of the paper pipeline with a keyed artifact cache.

:func:`repro.api.run_strategies` bundles six conceptual stages into one
call::

    prepare -> mspgify -> allocate -> plan -> build_dag -> evaluate

A parameter sweep (pfail × CCR, the shape of the paper's Figures 5-7)
only varies the inputs of the *late* stages: the M-SPG tree depends on
workflow structure alone, and the schedule ignores storage costs, so
both are invariant across the pfail/CCR axes.  :class:`Pipeline` makes
each stage an explicit method whose result lands in an
:class:`ArtifactCache` keyed by exactly the inputs it depends on — a
sweep reuses the tree and schedule instead of recomputing them per cell.
Next to each schedule the cache keeps its compiled file ops
(:class:`~repro.checkpoint.segments.ScheduleIncidence`), the structure
Algorithm 2's cost tables are priced from, and its failure-free
makespan ``W_par``.

:meth:`Pipeline.evaluate_cells` prices a whole (workflow, processors)
group and shares what only part of a cell's inputs determine, for the
length of the call:

* CCR rescaling touches file sizes only, so each distinct CCR's sizes
  are the unscaled sizes times its factor, with no rescaled workflow
  copy; one :meth:`Pipeline.plan` call then prices every CCR's
  span tables ``X(i, j)`` (Eq. (2) uses λ only through
  ``T = X(1 + λX/2)``, so they serve every pfail), runs Algorithm 2 over
  all cells and superchains at once, and prices each slice a plan cuts;
  plans are cut vectors, the checkpoint positions of each superchain,
  without segment or plan objects;
* every distinct (strategy, cut vector) gets one segment-DAG skeleton
  whose rows are gathered from those priced slices, and is priced by
  one batched evaluator call;
* the CKPTNONE estimator (Theorem 1) contains no I/O term, so it is
  applied to ``W_par`` per failure rate.

:meth:`Pipeline.evaluate_cell` runs the same stages one cell at a time
from the per-cell cost model, segment DAG and evaluator — the
bit-exactness oracle of the batched path.

Per-stage hit/miss counters (:meth:`ArtifactCache.stats`) make the reuse
observable; the call-count tests pin the "once per (workflow,
processors) pair" contract down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ccr import ccr_scale_factor, scale_to_ccr
from repro.checkpoint.plan import CheckpointPlan
from repro.checkpoint.segments import GroupCosts, ScheduleIncidence
from repro.checkpoint.strategies import STRATEGIES, Cuts, GroupPlans, plan_group
from repro.engine.records import CellResult
from repro.errors import ExperimentError
from repro.generators import generate
from repro.makespan.api import (
    expected_makespan,
    expected_makespans,
    get_evaluator,
)
from repro.makespan.ckptnone import (
    ckptnone_expected_makespan,
    failure_free_makespan,
    theorem1_makespan,
)
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.makespan.segment_dag import SegmentDagSkeleton, build_segment_dag
from repro.mspg.expr import MSPG
from repro.mspg.graph import Workflow
from repro.mspg.transform import mspgify
from repro.platform import Platform, lambda_from_pfail
from repro.scheduling.allocate import allocate
from repro.scheduling.schedule import Schedule
from repro.util.rng import SeedLike

__all__ = [
    "STAGES",
    "StageStats",
    "ArtifactCache",
    "Pipeline",
]

#: Stage names, in pipeline order.
STAGES: Tuple[str, ...] = (
    "prepare",
    "mspgify",
    "allocate",
    "plan",
    "build_dag",
    "evaluate",
)

#: Stages whose results are **counted but never stored**.  Their cache
#: keys would be unique per cell (checkpoint plans and segment DAGs
#: depend on the CCR-scaled workflow *and* the pfail-specific platform;
#: evaluations additionally on method/options), so storing them would
#: pay key construction and unbounded memory for a guaranteed 0% hit
#: rate — a long sweep measured exactly that: 0 hits / 168 misses per
#: stage before they were reclassified.  Their ``misses`` counter is
#: work-done telemetry (one computation each), not a cache outcome, and
#: :meth:`ArtifactCache.hit_rate` excludes them.  CCR rescaling is
#: compute-only too (not even counted): a long-lived pipeline that stored
#: one rescaled workflow per distinct CCR grew without bound.  What the
#: pfail axis can share — the rescaled file sizes, their span tables and
#: segment costs, the CKPTALL plan — lives for one
#: :meth:`Pipeline.evaluate_cells` call instead.
COMPUTE_ONLY_STAGES: Tuple[str, ...] = ("plan", "build_dag", "evaluate")

#: Stages that actually store artifacts — the denominator of
#: :meth:`ArtifactCache.hit_rate`.
STORED_STAGES: Tuple[str, ...] = tuple(
    s for s in STAGES if s not in COMPUTE_ONLY_STAGES
)


def _takes_seed(evaluator) -> bool:
    """Whether ``evaluator`` takes a sampling seed: it is stochastic and
    accepts a ``seed`` option (Monte Carlo).  Closed-form estimators
    take none."""
    return not evaluator.deterministic and (
        evaluator.accepts_any_option or "seed" in evaluator.option_names()
    )


@dataclass
class StageStats:
    """Cache hit/miss counters for one pipeline stage."""

    hits: int = 0
    misses: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses


class ArtifactCache:
    """Keyed artifact store with per-stage hit/miss accounting.

    Keys are arbitrary hashables chosen by the :class:`Pipeline` to cover
    exactly the inputs a stage result depends on.  Stages whose results
    are never reused (checkpoint plans, segment DAGs — their keys are
    unique per cell) are counted but not stored, so a long sweep does not
    hold every intermediate alive.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, Hashable], Any] = {}
        self._stats: Dict[str, StageStats] = {s: StageStats() for s in STAGES}

    def get_or_compute(
        self, stage: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Cached artifact for ``(stage, key)``, computing it on first use."""
        full = (stage, key)
        stats = self._stats[stage]
        if full in self._store:
            stats.hits += 1
            return self._store[full]
        stats.misses += 1
        value = compute()
        self._store[full] = value
        return value

    def count_compute(self, stage: str) -> None:
        """Record a computation for a :data:`COMPUTE_ONLY_STAGES` stage.

        The stage's ``misses`` counter doubles as its work-done tally;
        nothing is stored, so these stages never hit and are excluded
        from :meth:`hit_rate`.
        """
        self._stats[stage].misses += 1

    def stats(self) -> Dict[str, StageStats]:
        """Per-stage counters (live objects — read, don't mutate)."""
        return dict(self._stats)

    def hit_rate(self) -> float:
        """Aggregate hit rate over :data:`STORED_STAGES` only.

        Compute-only stages are excluded: they never store, so counting
        their misses would dilute the rate with outcomes the cache was
        never asked to avoid.
        """
        calls = sum(self._stats[s].calls for s in STORED_STAGES)
        hits = sum(self._stats[s].hits for s in STORED_STAGES)
        return hits / calls if calls else 0.0

    def clear(self) -> None:
        """Drop all artifacts; counters are reset too."""
        self._store.clear()
        for s in STAGES:
            self._stats[s] = StageStats()

    def __len__(self) -> int:
        return len(self._store)


class Pipeline:
    """The staged paper pipeline over one shared :class:`ArtifactCache`.

    Thread one instance through every cell of a sweep and the invariant
    stages (workflow generation, ``mspgify``, ``allocate``, CCR scaling,
    the CKPTNONE estimate) are computed once per distinct input instead
    of once per cell.  A fresh instance reproduces the historical
    one-shot behaviour exactly — every stage is a deterministic function
    of its key, so caching never changes results.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        # Identity tokens for unhashable pipeline objects (workflows,
        # schedules).  The strong reference keeps id() stable for the
        # lifetime of the pipeline.
        self._tokens: Dict[int, Tuple[Any, int]] = {}
        self._token_counter = itertools.count()

    def _token(self, obj: Any) -> int:
        entry = self._tokens.get(id(obj))
        if entry is None or entry[0] is not obj:
            entry = (obj, next(self._token_counter))
            self._tokens[id(obj)] = entry
        return entry[1]

    def clear(self) -> None:
        """Drop all cached artifacts *and* the identity-token references.

        Use this (not ``pipeline.cache.clear()`` alone) to bound memory
        in a long-lived pipeline: the token map holds strong references
        to every workflow/schedule ever used as a cache key.
        """
        self.cache.clear()
        self._tokens.clear()

    # ------------------------------------------------------------------
    # Stage 1 — prepare: workflow generation, platform, CCR rescaling.

    def prepare(self, family: str, ntasks: int, seed: int) -> Workflow:
        """Generate (or fetch) the workflow instance for a grid group."""
        return self.cache.get_or_compute(
            "prepare",
            ("workflow", family, ntasks, seed),
            lambda: generate(family, ntasks, seed),
        )

    def prepare_source(self, source, ntasks: int, seed: int) -> Workflow:
        """Workflow instance from a :class:`~repro.workloads.WorkflowSource`.

        The cache key tail is the source's own
        :meth:`~repro.workloads.WorkflowSource.cache_key`: family
        sources key on (family, ntasks, seed) — exactly the
        :meth:`prepare` key, so family sweeps share its entries — while
        file sources key on their canonical content hash alone, sharing
        one cached workflow (and downstream tree/schedule artifacts)
        across every spec over the same content.
        """
        return self.cache.get_or_compute(
            "prepare",
            ("workflow", *source.cache_key(ntasks, seed)),
            lambda: source.resolve(ntasks, seed),
        )

    def platform_for(
        self,
        workflow: Workflow,
        processors: int,
        pfail: float,
        bandwidth: float = 100e6,
    ) -> Platform:
        """Platform with λ chosen so an average task fails with ``pfail``."""
        key = ("platform", self._token(workflow), processors, pfail, bandwidth)
        return self.cache.get_or_compute(
            "prepare",
            key,
            lambda: Platform(
                processors,
                failure_rate=lambda_from_pfail(pfail, workflow.mean_weight),
                bandwidth=bandwidth,
            ),
        )

    def scale(
        self, workflow: Workflow, platform: Platform, ccr: Optional[float]
    ) -> Workflow:
        """CCR-rescaled copy of ``workflow`` (computed, never stored).

        Only the platform's bandwidth enters, so one copy serves every
        pfail.  The per-cell oracle runs on it; :meth:`evaluate_cells`
        needs only the copy's file sizes and multiplies the unscaled
        ones by the same factor instead (:func:`ccr_scale_factor`).
        """
        if ccr is None:
            return workflow
        return scale_to_ccr(workflow, platform, ccr)

    # ------------------------------------------------------------------
    # Stage 2 — mspgify: structure only, invariant across the whole sweep.

    def mspg_tree(self, workflow: Workflow) -> MSPG:
        """The workflow's M-SPG tree (computed once per workflow)."""
        return self.cache.get_or_compute(
            "mspgify", self._token(workflow), lambda: mspgify(workflow).tree
        )

    # ------------------------------------------------------------------
    # Stage 3 — allocate: one schedule per (workflow, processors, seed).

    def schedule_for(
        self,
        workflow: Workflow,
        processors: int,
        seed: SeedLike = None,
        linearizer: str = "random",
        tree: Optional[MSPG] = None,
    ) -> Schedule:
        """Superchain schedule, cached per (workflow, processors, seed).

        Only int seeds key a cache entry: ``None`` means "fresh random
        schedule" and a Generator/SeedSequence is stateful — replaying
        either from a cache would change the caller's semantics.
        """
        if not isinstance(seed, int):
            self.cache.count_compute("allocate")
            return allocate(
                workflow,
                tree if tree is not None else self.mspg_tree(workflow),
                processors,
                seed=seed,
                linearizer=linearizer,
            )
        key = (self._token(workflow), processors, seed, linearizer)
        return self.cache.get_or_compute(
            "allocate",
            key,
            lambda: allocate(
                workflow,
                tree if tree is not None else self.mspg_tree(workflow),
                processors,
                seed=seed,
                linearizer=linearizer,
            ),
        )

    def incidence(
        self, workflow: Workflow, schedule: Schedule
    ) -> ScheduleIncidence:
        """The schedule's compiled file incidence, cached next to it.

        Structure and task weights only, so it is shared by every CCR
        and pfail of the (workflow, schedule) pair.
        """
        key = ("incidence", self._token(workflow), self._token(schedule))
        return self.cache.get_or_compute(
            "allocate", key, lambda: ScheduleIncidence(workflow, schedule)
        )

    # ------------------------------------------------------------------
    # Stage 4 — plan: checkpoint placement (per cell; counted, not stored).

    def plan(
        self,
        workflow: Workflow,
        schedule: Schedule,
        platform: Platform,
        strategy: str = "some",
        save_final_outputs: bool = True,
        costs: Optional[GroupCosts] = None,
    ) -> Union[CheckpointPlan, GroupPlans]:
        """One strategy's checkpoint plan on the (scaled) workflow.

        Without ``costs``, fresh per-superchain cost models build the
        plan as a :class:`CheckpointPlan` (the per-cell oracle).  With
        ``costs`` — the schedule's compiled ops at every CCR's file sizes
        and every cell's failure rate of a batched group — one array
        program plans the whole group under both strategies and returns
        a :class:`GroupPlans`: per cell, each strategy's cut vector
        (:data:`~repro.checkpoint.strategies.Cuts`), and the spans of
        every slice they cut (the batched path); ``strategy`` is still
        checked, and ``platform`` is not read.  Both routes cut every
        superchain at the same positions.
        """
        names = {"some": "ckpt_some", "all": "ckpt_all"}
        try:
            name = names[strategy]
        except KeyError:
            raise ExperimentError(
                f"unknown checkpoint strategy {strategy!r}; "
                f"choose from {sorted(names)}"
            ) from None
        self.cache.count_compute("plan")
        if costs is not None:
            return plan_group(costs)
        return STRATEGIES[name](
            workflow, schedule, platform, save_final_outputs=save_final_outputs
        )

    def plans(
        self,
        workflow: Workflow,
        schedule: Schedule,
        platform: Platform,
        save_final_outputs: bool = True,
    ) -> Tuple[CheckpointPlan, CheckpointPlan]:
        """(CKPTSOME, CKPTALL) plans for one cell."""
        return (
            self.plan(workflow, schedule, platform, "some", save_final_outputs),
            self.plan(workflow, schedule, platform, "all", save_final_outputs),
        )

    # ------------------------------------------------------------------
    # Stage 5 — build_dag: segment DAG construction (per cell).

    def segment_dag(
        self,
        workflow: Workflow,
        schedule: Schedule,
        plan: Union[CheckpointPlan, Cuts],
        platform: Platform,
        cells: Optional[Tuple[GroupPlans, Sequence[int]]] = None,
    ) -> Union[ProbDAG, ParamDAG]:
        """2-state probabilistic segment DAG for one plan.

        Without ``cells``, the per-cell oracle's :class:`ProbDAG` of the
        :class:`CheckpointPlan` ``plan``.  With ``cells`` — a group's
        :class:`GroupPlans` and the indices of its cells whose plans all
        have the cut vector ``plan`` — the DAG's structure is built once
        from the cuts and returned as one :class:`ParamDAG` with a row
        per cell, gathered from the spans the group's plans priced (the
        batched path).
        """
        self.cache.count_compute("build_dag")
        if cells is not None:
            plans, indices = cells
            return SegmentDagSkeleton(workflow, schedule, plan).template(
                plans, indices
            )
        return build_segment_dag(workflow, schedule, plan, platform)

    # ------------------------------------------------------------------
    # Stage 6 — evaluate: expected makespans.

    def evaluate(
        self,
        dag: ProbDAG,
        method: str = "pathapprox",
        eval_seed: Optional[int] = None,
        **options: Any,
    ) -> float:
        """Expected makespan of a segment DAG with the named method.

        ``eval_seed`` is forwarded only to stochastic methods — those
        whose registered evaluator declares ``deterministic=False`` and
        accepts a ``seed`` option (Monte Carlo); the closed-form
        estimators take no seed.  Extra keyword ``options`` go straight
        to the evaluator (``trials=`` for Monte Carlo, ``k=`` for
        PathApprox, ...); an explicit ``seed`` option overrides
        ``eval_seed``.
        """
        self.cache.count_compute("evaluate")
        if (
            eval_seed is not None
            and "seed" not in options
            and _takes_seed(get_evaluator(method))
        ):
            options = {**options, "seed": eval_seed}
        return expected_makespan(dag, method, **options)

    def evaluate_none(
        self,
        workflow: Workflow,
        schedule: Schedule,
        platform: Platform,
        cacheable: bool = True,
    ) -> float:
        """CKPTNONE's Theorem 1 estimate, from a cached ``W_par``.

        The estimator contains no I/O term, and its failure-free makespan
        ``W_par`` depends on the workflow's weights and the schedule
        alone — not on the CCR-rescaled file sizes or λ — so ``workflow``
        is the unscaled one, and ``W_par`` is computed once per
        (workflow, schedule) and Theorem 1 applied to it per platform.

        Pass ``cacheable=False`` for throwaway schedules (e.g. built
        with ``seed=None``): caching would pin every such schedule in
        the token map without any chance of a future hit.
        """
        if not cacheable:
            self.cache.count_compute("evaluate")
            return ckptnone_expected_makespan(workflow, schedule, platform)
        wpar = self.cache.get_or_compute(
            "evaluate",
            ("wpar", self._token(workflow), self._token(schedule)),
            lambda: failure_free_makespan(workflow, schedule),
        )
        return theorem1_makespan(wpar, schedule, platform)

    # ------------------------------------------------------------------
    # Cell-level composition (stages 4-6 over one prepared group).

    def evaluate_cell(
        self,
        family: str,
        ntasks_requested: int,
        workflow: Workflow,
        schedule: Schedule,
        platform: Platform,
        pfail: float,
        ccr: float,
        method: str = "pathapprox",
        seed: int = 0,
        eval_seed: Optional[int] = None,
        save_final_outputs: bool = True,
        evaluator_options: Optional[Mapping[str, Any]] = None,
    ) -> CellResult:
        """Run the per-cell stages (scale → plan → DAG → evaluate)."""
        scaled = self.scale(workflow, platform, ccr)
        plan_some, plan_all = self.plans(
            scaled, schedule, platform, save_final_outputs
        )
        options = dict(evaluator_options) if evaluator_options else {}
        dag_some = self.segment_dag(scaled, schedule, plan_some, platform)
        dag_all = self.segment_dag(scaled, schedule, plan_all, platform)
        em_some = self.evaluate(dag_some, method, eval_seed, **options)
        em_all = self.evaluate(dag_all, method, eval_seed, **options)
        em_none = self.evaluate_none(workflow, schedule, platform)
        return CellResult(
            family=family,
            ntasks_requested=ntasks_requested,
            ntasks=workflow.n_tasks,
            processors=platform.processors,
            pfail=pfail,
            ccr=ccr,
            em_some=em_some,
            em_all=em_all,
            em_none=em_none,
            checkpoints_some=plan_some.n_segments,
            checkpoints_all=plan_all.n_segments,
            superchains=len(schedule.superchains),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Batched cell evaluation (stages 4-6 over a whole grid group).

    def evaluate_cells(
        self,
        family: str,
        ntasks_requested: int,
        workflow: Workflow,
        schedule: Schedule,
        processors: int,
        cells: Sequence[Tuple[float, float, Optional[int]]],
        method: str = "pathapprox",
        seed: int = 0,
        bandwidth: float = 100e6,
        save_final_outputs: bool = True,
        evaluator_options: Optional[Mapping[str, Any]] = None,
    ) -> list:
        """Run stages 4-6 for every ``(pfail, ccr, eval_seed)`` cell of
        one prepared (workflow, processors) group, batching evaluation.

        Each distinct CCR's file sizes are priced once, as the unscaled
        sizes times its factor; one :meth:`plan` call then plans every
        cell under both strategies as cut vectors, pricing each CCR's
        span tables once for every pfail and each slice a plan cuts once
        (:class:`GroupPlans`).  Each distinct (strategy, cut vector) then
        gets one segment-DAG skeleton and one :func:`expected_makespans`
        dispatch over its cells, whatever the evaluator.  None of this outlives the call.  Records are
        bit-identical to :meth:`evaluate_cell`'s (the per-cell oracle):
        stochastic evaluators (Monte Carlo) receive the cells'
        ``eval_seed`` streams one per cell, and an evaluator without a
        vectorised batch prices the template cell by cell.
        """
        evaluator = get_evaluator(method)
        options = dict(evaluator_options) if evaluator_options else {}
        incidence = self.incidence(workflow, schedule)
        platforms = [
            self.platform_for(workflow, processors, pfail, bandwidth)
            for pfail, _ccr, _eval_seed in cells
        ]
        # The factor scale_to_ccr would apply, without its copy.
        unscaled = [workflow.file_size(f) for f in incidence.files]
        rows: Dict[float, int] = {}
        sizes: List[List[float]] = []
        for (_pfail, ccr, _eval_seed), platform in zip(cells, platforms):
            if ccr not in rows:
                rows[ccr] = len(sizes)
                factor = ccr_scale_factor(workflow, platform, ccr)
                sizes.append([size * factor for size in unscaled])
        ccr_rows = [rows[ccr] for _pfail, ccr, _eval_seed in cells]
        costs = GroupCosts(
            incidence,
            sizes,
            bandwidth,
            save_final_outputs,
            ccr_rows,
            [platform.failure_rate for platform in platforms],
        )
        plans = self.plan(
            workflow, schedule, platforms[0], "some", save_final_outputs, costs
        )
        em_none = [
            self.evaluate_none(workflow, schedule, platform)
            for platform in platforms
        ]
        # The cells' eval-seed stream, as evaluate() injects it per cell.
        eval_seeds = (
            [eval_seed for _pfail, _ccr, eval_seed in cells]
            if _takes_seed(evaluator)
            else None
        )
        em_some = self._evaluate_plans(
            workflow, schedule, plans, plans.some, platforms, method, options,
            eval_seeds,
        )
        em_all = self._evaluate_plans(
            workflow, schedule, plans, [plans.all] * len(cells), platforms,
            method, options, eval_seeds,
        )
        checkpoints_all = sum(map(len, plans.all))
        return [
            CellResult(
                family=family,
                ntasks_requested=ntasks_requested,
                ntasks=workflow.n_tasks,
                processors=processors,
                pfail=pfail,
                ccr=ccr,
                em_some=em_some[i],
                em_all=em_all[i],
                em_none=em_none[i],
                checkpoints_some=sum(map(len, plans.some[i])),
                checkpoints_all=checkpoints_all,
                superchains=len(schedule.superchains),
                seed=seed,
            )
            for i, (pfail, ccr, _eval_seed) in enumerate(cells)
        ]

    def _evaluate_plans(
        self,
        workflow: Workflow,
        schedule: Schedule,
        plans: GroupPlans,
        cuts: Sequence[Cuts],
        platforms: Sequence[Platform],
        method: str,
        options: Mapping[str, Any],
        eval_seeds: Optional[Sequence[Optional[int]]],
    ) -> List[float]:
        """Expected makespans of one strategy's plans, one per cell of
        ``plans``, whose cut vectors are ``cuts``.

        Cells are grouped by cut vector (which fixes the DAG's
        structure); each group becomes one template, its rows gathered
        from the cells' priced slices, in a single
        :func:`expected_makespans` call, bit-identical to per-cell
        evaluation — the batch contract every evaluator is pinned to.
        ``eval_seeds`` (one per cell) is forwarded as the batch ``seed``
        option in the group's cell order, mirroring the injection
        :meth:`evaluate` performs per cell for stochastic methods.
        """
        groups: Dict[Cuts, List[int]] = {}
        for i, cut in enumerate(cuts):
            groups.setdefault(cut, []).append(i)
        out: List[float] = [0.0] * len(cuts)
        for cut, indices in groups.items():
            template = self.segment_dag(
                workflow,
                schedule,
                cut,
                platforms[indices[0]],
                cells=(plans, indices),
            )
            group_options = dict(options)
            if eval_seeds is not None and "seed" not in group_options:
                group_options["seed"] = [eval_seeds[i] for i in indices]
            self.cache.count_compute("evaluate")
            values = expected_makespans(template, method, **group_options)
            for i, value in zip(indices, values):
                out[i] = float(value)
        return out
