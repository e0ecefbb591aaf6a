"""Tests for the pipeline engine: artifact cache, staged pipeline,
sweep executor parity/determinism, and the record schema."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import repro.engine.pipeline as pipeline_mod
import repro.engine.sweep as sweep_mod
from repro.api import run_strategies
from repro.checkpoint.segments import GroupCosts, SuperchainCostModel
from repro.engine import (
    ArtifactCache,
    CellResult,
    Pipeline,
    SweepSpec,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)
from repro.engine.sweep import _derive_chunks, run_specs
from repro.errors import ExperimentError
from repro.experiments.claims import sweep_and_check
from repro.experiments.figures import run_cell
from repro.generators import generate
from repro.makespan.api import EVALUATORS
from repro.makespan.segment_dag import SegmentDagSkeleton
from repro.mspg.graph import Workflow
from repro.service import BatchScheduler
from repro.service.fingerprint import requests_from_spec
from repro.service.scheduler import plan_batches
from repro.util.rng import stable_seed
from repro.workloads import FileSource

from conftest import make_chain, oracle_route


#: ``em_none`` of ``TestCallCounts.grid()`` per (processors, pfail), as
#: ``float.hex``, recorded when each (schedule, pfail) computed its own
#: W_par.
EM_NONE_HEX = [
    (3, 0.0001, "0x1.1592c42451432p+10"),
    (3, 0.001, "0x1.1e94c13b5d506p+10"),
    (3, 0.01, "0x1.791b935115146p+10"),
    (5, 0.0001, "0x1.645ae0f549be5p+9"),
    (5, 0.001, "0x1.70b891ad873a9p+9"),
    (5, 0.01, "0x1.ecff4164dcc54p+9"),
]


def small_spec(**overrides):
    kwargs = dict(
        family="genome",
        sizes=(50,),
        processors={50: (3, 5)},
        pfails=(0.01, 0.001),
        ccrs=(1e-3, 1e-2),
        seed=11,
        seed_policy="stable",
        name="unit",
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            v = cache.get_or_compute("mspgify", ("k",), lambda: calls.append(1) or 42)
        assert v == 42 and len(calls) == 1
        stats = cache.stats()["mspgify"]
        assert (stats.misses, stats.hits, stats.calls) == (1, 2, 3)

    def test_distinct_keys_distinct_artifacts(self):
        cache = ArtifactCache()
        a = cache.get_or_compute("prepare", 1, lambda: object())
        b = cache.get_or_compute("prepare", 2, lambda: object())
        assert a is not b
        assert len(cache) == 2

    def test_clear_resets(self):
        cache = ArtifactCache()
        cache.get_or_compute("allocate", 1, lambda: "x")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["allocate"].calls == 0


class TestPipelineStages:
    def test_tree_cached_per_workflow(self):
        pipe = Pipeline()
        wf = generate("montage", 50, 3)
        t1 = pipe.mspg_tree(wf)
        t2 = pipe.mspg_tree(wf)
        assert t1 is t2
        assert pipe.cache.stats()["mspgify"].misses == 1
        assert pipe.cache.stats()["mspgify"].hits == 1

    def test_schedule_cached_for_int_seed(self):
        pipe = Pipeline()
        wf = generate("montage", 50, 3)
        s1 = pipe.schedule_for(wf, 5, seed=7)
        s2 = pipe.schedule_for(wf, 5, seed=7)
        s3 = pipe.schedule_for(wf, 5, seed=8)
        assert s1 is s2 and s1 is not s3
        assert pipe.cache.stats()["allocate"].misses == 2

    def test_schedule_not_cached_for_none_seed(self):
        pipe = Pipeline()
        wf = generate("montage", 50, 3)
        s1 = pipe.schedule_for(wf, 5, seed=None)
        s2 = pipe.schedule_for(wf, 5, seed=None)
        assert s1 is not s2
        assert pipe.cache.stats()["allocate"].misses == 2

    def test_scaled_workflow_shared_across_pfail_axis(self, monkeypatch):
        """One batched call prices each distinct CCR's file sizes once,
        as the unscaled sizes times the CCR factor, without a rescaled
        workflow copy; one plan call shares them with every pfail, and
        none of them is stored."""
        pipe = Pipeline()
        wf = generate("montage", 50, 3)
        schedule = pipe.schedule_for(wf, 5, seed=7)
        real_plan = Pipeline.plan
        copies = []
        planned = []  # the group costs of each plan call

        def recording_copy(self, name=None):
            copies.append(self)
            return real_copy(self, name)

        def recording_plan(self, workflow, schedule, platform, strategy,
                           *args):
            planned.append(args[-1])
            return real_plan(self, workflow, schedule, platform, strategy,
                             *args)

        real_copy = Workflow.copy
        monkeypatch.setattr(Workflow, "copy", recording_copy)
        monkeypatch.setattr(Pipeline, "plan", recording_plan)
        cells = [
            (pfail, ccr, None)
            for pfail in (0.01, 0.001, 0.0001)
            for ccr in (0.1, 1.0)
        ]
        entries = len(pipe.cache)
        pipe.evaluate_cells("montage", 50, wf, schedule, 5, cells,
                            method="normal")
        # No copy, and one plan call for the group whose CCR rows are
        # the rescaled copies' sizes, bit for bit, shared by every pfail.
        assert copies == []
        (costs,) = planned
        files = costs.incidence.files
        platform = pipe.platform_for(wf, 5, 0.01, 100e6)
        assert [[x.hex() for x in row] for row in costs.sizes.tolist()] == [
            [pipe.scale(wf, platform, ccr).file_size(f).hex() for f in files]
            for ccr in (0.1, 1.0)
        ]
        assert costs.ccr.tolist() == [0, 1] * 3
        assert len(set(costs.rates.tolist())) == 3
        # Stored: three platforms, the incidence and one W_par.
        assert len(pipe.cache) == entries + 3 + 1 + 1

    def test_cache_flat_over_distinct_ccrs(self):
        """A long-lived pipeline (the service keeps one) must not grow
        with the number of distinct CCRs it has priced."""
        pipe = Pipeline()
        source = FileSource(generate("genome", 30, 4))
        sizes = []
        for ccr in np.geomspace(1e-3, 1.0, 50):
            spec = SweepSpec.from_source(
                source, processors=(3,), pfails=(0.01,), ccrs=(float(ccr),),
                method="normal", seed_policy="stable",
            )
            run_sweep(spec, pipeline=pipe)
            sizes.append(len(pipe.cache))
        assert sizes[-1] == sizes[0]

    def test_clear_releases_tokens_and_artifacts(self):
        pipe = Pipeline()
        wf = generate("montage", 50, 3)
        pipe.mspg_tree(wf)
        assert len(pipe.cache) == 1 and pipe._tokens
        pipe.clear()
        assert len(pipe.cache) == 0 and not pipe._tokens
        pipe.mspg_tree(wf)
        assert pipe.cache.stats()["mspgify"].misses == 1

    def test_unknown_plan_strategy(self):
        pipe = Pipeline()
        with pytest.raises(ExperimentError):
            pipe.plan(None, None, None, strategy="nope")


class TestSweepParity:
    def test_records_equal_per_cell_run_cell(self):
        spec = small_spec()
        records = run_sweep(spec)
        expected = [
            run_cell(spec.family, n, p, pfail, ccr, seed=spec.seed)
            for n in spec.sizes
            for p in spec.processors[n]
            for pfail in spec.pfails
            for ccr in spec.ccrs
        ]
        assert records == expected

    def test_records_equal_per_cell_run_strategies(self):
        spec = small_spec()
        records = run_sweep(spec)
        i = 0
        for n in spec.sizes:
            wf = generate(spec.family, n, stable_seed(spec.seed, spec.family, n))
            for p in spec.processors[n]:
                sched_seed = stable_seed(spec.seed, spec.family, n, p)
                for pfail in spec.pfails:
                    for ccr in spec.ccrs:
                        outcome = run_strategies(
                            wf, p, pfail=pfail, ccr=ccr, seed=sched_seed
                        )
                        rec = records[i]
                        assert rec.em_some == outcome.em_some
                        assert rec.em_all == outcome.em_all
                        assert rec.em_none == outcome.em_none
                        i += 1
        assert i == len(records)


class TestSweepDeterminism:
    @pytest.mark.parametrize("policy", ["stable", "spawn"])
    def test_parallel_equals_serial(self, policy):
        spec = small_spec(seed_policy=policy)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial == parallel

    def test_chunking_does_not_change_records(self):
        spec = small_spec(seed_policy="spawn")
        assert run_sweep(spec) == run_sweep(spec, chunk_cells=1)

    def test_spawn_policy_differs_from_stable(self):
        a = run_sweep(small_spec(seed_policy="stable"))
        b = run_sweep(small_spec(seed_policy="spawn"))
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_grid_order(self):
        records = run_sweep(small_spec())
        keys = [(r.processors, r.pfail, r.ccr) for r in records]
        expected = [
            (p, pfail, ccr)
            for p in (3, 5)
            for pfail in (0.01, 0.001)
            for ccr in (1e-3, 1e-2)
        ]
        assert keys == expected

    @pytest.mark.parametrize("family", ["genome", "montage", "ligo"])
    def test_cross_process_hash_seed_independence(self, family, tmp_path):
        """Records must not depend on the per-process PYTHONHASHSEED.

        Guards the OrderedFrozenSet / ordered-wcc fixes: set-of-string
        iteration order used to leak into linearisation and M-SPG
        construction, making results differ between interpreter runs."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.engine import SweepSpec, run_sweep, records_to_jsonl\n"
            f"spec = SweepSpec(family={family!r}, sizes=(50,),"
            " processors={50: (3,)}, pfails=(0.01,), ccrs=(0.01,),"
            " seed=7, seed_policy='stable')\n"
            "import sys; sys.stdout.write(records_to_jsonl(run_sweep(spec)))\n"
        )
        outputs = []
        for hash_seed in ("1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_progress_called_once_per_cell(self):
        messages = []
        records = run_sweep(small_spec(), progress=messages.append)
        assert len(messages) == len(records) == 8
        assert messages[0].startswith("unit n=50 p=3")


class TestCallCounts:
    def test_mspgify_and_allocate_once_per_pair(self, monkeypatch):
        """A (pfail × ccr) sweep runs the invariant stages once per
        (workflow, processors) pair, not once per cell."""
        spec = small_spec(pfails=(0.01, 0.001), ccrs=(1e-3, 1e-2, 1e-1))
        counts = {"mspgify": 0, "allocate": 0}
        real_mspgify = pipeline_mod.mspgify
        real_allocate = pipeline_mod.allocate

        def counting_mspgify(*args, **kwargs):
            counts["mspgify"] += 1
            return real_mspgify(*args, **kwargs)

        def counting_allocate(*args, **kwargs):
            counts["allocate"] += 1
            return real_allocate(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "mspgify", counting_mspgify)
        monkeypatch.setattr(pipeline_mod, "allocate", counting_allocate)
        records = run_sweep(spec, jobs=1)
        assert len(records) == 2 * 2 * 3  # p × pfail × ccr
        # One workflow, two processor counts: the tree is built once,
        # the schedule once per (workflow, processors) pair.
        assert counts["mspgify"] == 1
        assert counts["allocate"] == 2

    def grid(self):
        return small_spec(
            pfails=(0.01, 0.001, 0.0001), ccrs=(1e-3, 1e-2, 1e-1)
        )

    def test_incidence_compiled_once_per_schedule(self, monkeypatch):
        built = []
        real = pipeline_mod.ScheduleIncidence

        def counting(workflow, schedule):
            built.append(schedule)
            return real(workflow, schedule)

        monkeypatch.setattr(pipeline_mod, "ScheduleIncidence", counting)
        assert len(run_sweep(self.grid())) == 2 * 3 * 3
        assert len(built) == 2 and built[0] is not built[1]

    def test_span_tables_once_per_ccr_and_superchain(
        self, monkeypatch, per_cell
    ):
        """Eq. (2) uses λ only through T = X(1 + λX/2): the batched path
        prices each CCR's span tables once for all three pfails, in one
        call per group, a third of what the per-cell oracle builds."""
        spec = self.grid()
        counts = {"calls": 0, "batched": 0, "oracle": 0}
        real_group = GroupCosts.span_tables
        real_model = SuperchainCostModel.span_table

        def group_tables(self):
            counts["calls"] += 1
            counts["batched"] += len(self.sizes) * len(self.incidence.lengths)
            return real_group(self)

        def model_table(self):
            counts["oracle"] += 1
            return real_model(self)

        monkeypatch.setattr(GroupCosts, "span_tables", group_tables)
        monkeypatch.setattr(SuperchainCostModel, "span_table", model_table)
        records = run_sweep(spec)
        per_group = {r.processors: r.superchains for r in records}
        superchains = sum(per_group.values())
        assert counts == {
            "calls": len(per_group), "batched": 3 * superchains, "oracle": 0
        }
        per_cell(spec.method)
        assert run_sweep(spec) == records
        assert counts["oracle"] == 3 * counts["batched"]

    def test_one_skeleton_per_strategy_and_segmentation(self, monkeypatch):
        """The batched path plans each group in one call, holds each plan
        as its cut vector and builds one segment-DAG skeleton per
        distinct (strategy, cuts)."""
        segmentations = set()
        real_plan = Pipeline.plan
        groups = []

        def recording_plan(self, workflow, schedule, platform, strategy,
                           *args, **kwargs):
            plans = real_plan(
                self, workflow, schedule, platform, strategy, *args, **kwargs
            )
            groups.append(platform.processors)
            for strategy, cuts in [("all", plans.all)] + [
                ("some", cuts) for cuts in plans.some
            ]:
                assert len(cuts) == len(schedule.superchains)
                segmentations.add((platform.processors, strategy, cuts))
            return plans

        skeletons = []
        real_init = SegmentDagSkeleton.__init__

        def counting_init(self, workflow, schedule, cuts):
            skeletons.append(cuts)
            real_init(self, workflow, schedule, cuts)

        monkeypatch.setattr(Pipeline, "plan", recording_plan)
        monkeypatch.setattr(SegmentDagSkeleton, "__init__", counting_init)
        run_sweep(self.grid())
        assert groups == [3, 5]
        # Both strategies and both processor counts contribute, and
        # CKPTALL cuts every CCR the same way.
        assert {(p, s) for p, s, _ in segmentations} == {
            (p, s) for p in (3, 5) for s in ("some", "all")
        }
        assert len(skeletons) == len(segmentations)

    def test_wpar_once_per_schedule(self, monkeypatch):
        """Theorem 1's W_par ignores file sizes and λ, so it is computed
        once per (workflow, schedule) and CKPTNONE is applied to it per
        λ, with the values the per-schedule estimate gave."""
        schedules = []
        real = pipeline_mod.failure_free_makespan

        def counting(workflow, schedule):
            schedules.append(schedule)
            return real(workflow, schedule)

        monkeypatch.setattr(pipeline_mod, "failure_free_makespan", counting)
        records = run_sweep(self.grid())
        assert len(schedules) == 2 and schedules[0] is not schedules[1]
        assert sorted({(r.processors, r.pfail, r.em_none.hex())
                       for r in records}) == EM_NONE_HEX

    @pytest.fixture
    def chunk_calls(self, monkeypatch):
        """Every chunk priced from here on, in call order; the per-cell
        oracle ``Pipeline.evaluate_cell`` must not run at all."""
        calls = []
        real = sweep_mod._run_chunk_task

        def counting(spec, chunk, profile=False, pipeline=None):
            calls.append(chunk)
            return real(spec, chunk, profile=profile, pipeline=pipeline)

        def oracle(*args, **kwargs):
            raise AssertionError("the per-cell oracle ran")

        monkeypatch.setattr(sweep_mod, "_run_chunk_task", counting)
        monkeypatch.setattr(Pipeline, "evaluate_cell", oracle)
        return calls

    @pytest.mark.parametrize("chunk_cells", [None, 1])
    def test_run_sweep_runs_one_task_per_chunk(self, chunk_calls, chunk_cells):
        spec = self.grid()
        records = run_sweep(spec, chunk_cells=chunk_cells)
        assert chunk_calls == _derive_chunks(spec, chunk_cells)
        assert len(records) == spec.n_cells

    def test_run_specs_runs_one_task_per_chunk(self, chunk_calls):
        specs = [
            small_spec(pfails=(0.01,)),
            small_spec(family="montage", processors={50: (4,)}),
            self.grid(),
        ]
        results = run_specs(specs)
        assert chunk_calls == [
            chunk for spec in specs for chunk in _derive_chunks(spec, None)
        ]
        assert [len(r) for r in results] == [s.n_cells for s in specs]

    def test_scheduler_runs_one_task_per_chunk(self, chunk_calls):
        scheduler = BatchScheduler()
        requests = requests_from_spec(self.grid())
        outcomes = scheduler.evaluate_many(requests)
        batches = plan_batches(requests, scheduler.registry)
        assert len(chunk_calls) == sum(
            len(_derive_chunks(spec, None)) for spec, _ in batches
        )
        assert sum(len(c.cells) for c in chunk_calls) == len(outcomes)

    def test_plain_callable_is_priced_through_the_batch_entry(
        self, monkeypatch, chunk_calls
    ):
        dispatched = []
        real = pipeline_mod.expected_makespans

        def counting(template, method, **options):
            dispatched.append(template.n_cells)
            return real(template, method, **options)

        monkeypatch.setattr(pipeline_mod, "expected_makespans", counting)
        monkeypatch.setitem(
            EVALUATORS, "probe", lambda dag: float(dag.base.sum())
        )
        spec = small_spec(method="probe")
        records = run_sweep(spec)
        # Two strategies: every cell is priced twice, all in batches.
        assert sum(dispatched) == 2 * len(records) == 2 * spec.n_cells
        assert all(r.em_some > 0 for r in records)

    @pytest.mark.parametrize("seed_policy", ["stable", "spawn"])
    @pytest.mark.parametrize("family", ["montage", "genome", "ligo"])
    def test_digest_evaluator_same_records_on_both_routes(
        self, monkeypatch, family, seed_policy
    ):
        """A method whose value hashes every name, edge and parameter
        of its DAG returns byte-identical records through the batched
        route and through the per-cell oracle: the two routes build
        the same DAGs."""

        def digest(dag):
            parts = [
                (
                    name,
                    tuple(dag.preds[i]),
                    float(dag.base[i]).hex(),
                    float(dag.long[i]).hex(),
                    float(dag.p[i]).hex(),
                )
                for i, name in enumerate(dag.names)
            ]
            blob = hashlib.sha256(repr(parts).encode()).digest()
            return 1.0 + int.from_bytes(blob[:6], "big") / 2**48

        monkeypatch.setitem(EVALUATORS, "digest", digest)
        spec = SweepSpec(
            family=family,
            sizes=(30,),
            processors={30: (3, 5)},
            pfails=(0.01, 0.0001),
            ccrs=(1e-3, 1.0),
            seed=2017,
            method="digest",
            seed_policy=seed_policy,
        )
        batched = records_to_jsonl(run_sweep(spec))
        with oracle_route("digest"):
            assert records_to_jsonl(run_sweep(spec)) == batched

    def test_ckptnone_cached_across_ccr_axis(self):
        spec = small_spec(processors={50: (3,)})
        records = run_sweep(spec)
        by_pfail = {}
        for r in records:
            by_pfail.setdefault(r.pfail, set()).add(r.em_none)
        # CKPTNONE has no I/O term: one value per pfail across the CCR axis.
        assert all(len(v) == 1 for v in by_pfail.values())

    @pytest.mark.parametrize("method", ["normal", "pathapprox"])
    def test_huge_weights_price_quietly(self, method):
        """Rescaling a chain of 1e307-weight tasks to a CCR overflows its
        file sizes, and so its spans, to inf: both routes read inf, and
        the batched route's arrays raise no RuntimeWarning."""
        spec = SweepSpec.from_source(
            FileSource(make_chain(4, weight=1e307)),
            processors=(1,),
            pfails=(1e-2,),
            ccrs=(1e-3,),
            method=method,
            seed_policy="stable",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_sweep(spec)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert records[0].em_some == records[0].em_all == math.inf
        with oracle_route(method):
            assert run_sweep(spec) == records


class TestSweepSpecValidation:
    def test_missing_processor_config(self):
        with pytest.raises(ExperimentError):
            small_spec(sizes=(42,))

    @pytest.mark.parametrize(
        "bad",
        [
            {"method": "bogus"},
            {"linearizer": "nope"},
            {"save_final_outputs": "false"},
            {"save_final_outputs": 1},
            {"family": 5},
            {"name": None},
            {"evaluator_options": {"k": [1]}},
            {"evaluator_options": {"rtol": float("inf")}},
            {"evaluator_options": {1: "x"}},
        ],
    )
    def test_wrong_types_and_unknown_names_rejected(self, bad):
        """SweepSpec is the one validator of a cell's fields: a wrong
        type or an unregistered name is refused here, never inside a
        dispatched sweep."""
        with pytest.raises(ExperimentError):
            small_spec(**bad)

    def test_empty_processor_tuple(self):
        with pytest.raises(ExperimentError):
            small_spec(processors={50: ()})

    def test_bad_seed_policy(self):
        with pytest.raises(ExperimentError):
            small_spec(seed_policy="nope")

    def test_empty_grid(self):
        with pytest.raises(ExperimentError):
            run_sweep(small_spec(ccrs=()))

    @pytest.mark.parametrize(
        "bad",
        [
            {"ccrs": (float("nan"),)},
            {"ccrs": (float("inf"),)},
            {"ccrs": (-1.0,)},
            {"pfails": (float("nan"),)},
            {"pfails": (1.0,)},
            {"pfails": (-0.1,)},
            {"bandwidth": 0.0},
            {"bandwidth": float("nan")},
            {"seed": -1, "seed_policy": "spawn"},
            {"seed": -1},  # stable too: engine and service must agree
            {"seed": "abc"},
            {"pfails": (None,)},
            {"bandwidth": "x"},
            {"evaluator_options": 5},
            {"evaluator_options": {1: "a", "b": 2}},  # unsortable keys
            {"processors": {50: (2.5,)}},
            {"processors": {50: (0,)}},
            {"processors": {50: (True,)}},
            {"sizes": (0,), "processors": {0: (3,)}},
            {"seed": 11.5},
            {"pfails": (False,)},
            {"ccrs": (True,)},
            {"bandwidth": True},
            {"ccrs": "1"},
        ],
    )
    def test_non_finite_or_out_of_range_values_rejected(self, bad):
        with pytest.raises(ExperimentError):
            small_spec(**bad)

    def test_integral_values_coerce_as_int_does(self):
        spec = small_spec(processors={50.0: ("3", 5.0)}, seed=11.0)
        assert spec.processors == {50: (3, 5)} and spec.seed == 11
        assert all(type(p) is int for p in spec.processors[50])


class TestCellWfSeed:
    @pytest.mark.parametrize("policy", ["stable", "spawn"])
    def test_matches_one_by_one_grid_derivation(self, policy):
        """cell_wf_seed must stay in lockstep with _derive_chunks' seed
        tree — the service store's backfill provenance check depends on
        it (a silent desync would mis-verify records)."""
        from repro.engine import cell_wf_seed

        spec = small_spec(
            processors={50: (3,)},
            pfails=(0.01,),
            ccrs=(1e-3,),
            seed_policy=policy,
        )
        (record,) = run_sweep(spec)
        assert record.seed == cell_wf_seed(spec.seed, policy, "genome", 50)

    def test_spawn_requires_non_negative_seed(self):
        from repro.engine import cell_wf_seed

        with pytest.raises(ExperimentError):
            cell_wf_seed(-1, "spawn", "genome", 50)
        with pytest.raises(ExperimentError):
            cell_wf_seed(11, "nope", "genome", 50)


class TestRunSpecs:
    def test_return_exceptions_isolates_failing_spec(self):
        from repro.errors import ReproError

        good = small_spec(
            processors={50: (3,)}, pfails=(0.01,), ccrs=(1e-3,)
        )
        bad = small_spec(
            family="not-a-family",
            processors={50: (3,)},
            pfails=(0.01,),
            ccrs=(1e-3,),
        )
        from repro.engine import run_specs

        results = run_specs([good, bad], return_exceptions=True)
        assert results[0] == run_sweep(good)
        assert isinstance(results[1], ReproError)
        # default semantics unchanged: the batch raises
        with pytest.raises(ReproError):
            run_specs([good, bad])

    def test_n_cells(self):
        assert small_spec().n_cells == 2 * 2 * 2

    def test_chunk_plan_covers_grid(self):
        spec = small_spec()
        chunks = _derive_chunks(spec, 1)
        assert sum(len(c.cells) for c in chunks) == spec.n_cells


class TestRecords:
    def make_records(self):
        return run_sweep(small_spec(processors={50: (3,)}, pfails=(0.01,)))

    def test_jsonl_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "records.jsonl"
        text = records_to_jsonl(records, path)
        assert path.read_text() == text
        assert records_from_jsonl(text) == records
        assert records_from_jsonl(path) == records
        # a str path round-trips like the Path it names
        assert records_from_jsonl(str(path)) == records
        assert records_from_jsonl("") == []

    def test_jsonl_contains_derived_columns(self):
        (record,) = self.make_records()[:1]
        line = records_to_jsonl([record]).strip()
        assert '"ratio_all"' in line and '"ratio_none"' in line

    def test_csv_matches_results_to_csv(self):
        from repro.experiments.results import results_to_csv

        records = self.make_records()
        assert records_to_csv(records) == results_to_csv(records)
        header = records_to_csv(records).splitlines()[0]
        assert header.startswith("family,") and "ratio_none" in header


class TestFacadeCacheSharing:
    def test_ccr_axis_reuses_tree_and_schedule(self):
        pipe = Pipeline()
        wf = generate("montage", 50, 5)
        for ccr in (1e-3, 1e-2, 1e-1):
            run_strategies(wf, 5, pfail=0.001, ccr=ccr, seed=7, pipeline=pipe)
        stats = pipe.cache.stats()
        assert stats["mspgify"].misses == 1
        assert stats["allocate"].misses == 1

    def test_shared_pipeline_reuses_schedule(self):
        pipe = Pipeline()
        wf = generate("genome", 50, 5)
        a = run_strategies(wf, 5, pfail=0.001, seed=9, pipeline=pipe)
        b = run_strategies(wf, 5, pfail=0.001, seed=9, pipeline=pipe)
        assert a.em_some == b.em_some
        stats = pipe.cache.stats()
        assert stats["mspgify"].misses == 1 and stats["mspgify"].hits >= 1
        assert stats["allocate"].misses == 1 and stats["allocate"].hits >= 1


class TestFacadeMemory:
    def test_seed_none_does_not_pin_schedules(self):
        pipe = Pipeline()
        wf = generate("genome", 50, 5)
        run_strategies(wf, 3, pfail=0.001, seed=None, pipeline=pipe)
        tokens_after_one = len(pipe._tokens)
        for _ in range(3):
            run_strategies(wf, 3, pfail=0.001, seed=None, pipeline=pipe)
        # Fresh random schedules must not accumulate in the token map.
        assert len(pipe._tokens) == tokens_after_one


class TestSweepAndCheck:
    def test_returns_cells_and_claims(self):
        spec = small_spec(ccrs=(1e-3, 1e-2, 1e-1))
        cells, claims = sweep_and_check(spec)
        assert len(cells) == spec.n_cells
        assert {c.claim for c in claims} == {"C1", "C2", "C3", "C4", "C5", "C6"}
