"""Content-seeded Monte Carlo: the cell_eval_seed contract, the batched
sampling core, policy-conditional service dispatch, store schema v3
migration, the durable source registry, and the antithetic stderr fix."""

import hashlib
import json
import sqlite3
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

from repro.engine.pipeline import Pipeline
from repro.engine.sweep import (
    EVAL_SEED_POLICIES,
    SweepSpec,
    cell_eval_seed,
    run_sweep,
)
from repro.errors import EvaluationError, ExperimentError, ServiceError
from repro.makespan.api import expected_makespan, expected_makespans
from repro.makespan.montecarlo import (
    MonteCarloResult,
    montecarlo,
    montecarlo_batch,
    montecarlo_result,
    sample_makespans,
)
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.service.client import ServiceClient
from repro.service.fingerprint import (
    EvalRequest,
    fingerprint,
    grid_sensitive,
    request_from_dict,
    request_to_dict,
    request_to_spec,
    requests_from_spec,
)
from repro.service.scheduler import BatchScheduler, plan_batches
from repro.service.server import ReproService
from repro.service.store import SCHEMA_VERSION, ResultStore
from repro.workloads import FileSource

from tests.test_workloads import small_workflow


def mc_spec(**kw):
    kw.setdefault("family", "montage")
    kw.setdefault("sizes", (30,))
    kw.setdefault("processors", {30: (3,)})
    kw.setdefault("pfails", (0.01, 0.001))
    kw.setdefault("ccrs", (0.01, 0.1))
    kw.setdefault("seed", 2017)
    kw.setdefault("method", "montecarlo")
    kw.setdefault("seed_policy", "stable")
    kw.setdefault("evaluator_options", {"trials": 200})
    return SweepSpec(**kw)


def mc_request(pfail=0.01, ccr=0.01, **kw):
    kw.setdefault("family", "montage")
    kw.setdefault("ntasks", 20)
    kw.setdefault("processors", 3)
    kw.setdefault("method", "montecarlo")
    kw.setdefault("evaluator_options", {"trials": 200})
    return EvalRequest(pfail=pfail, ccr=ccr, **kw)


def chain_dag(weights, p=0.1):
    dag = ProbDAG()
    prev = []
    for i, w in enumerate(weights):
        dag.add(f"t{i}", w, 2.0 * w, p, preds=prev)
        prev = [f"t{i}"]
    return dag


# ----------------------------------------------------------------------
# The cell_eval_seed contract.


class TestCellEvalSeed:
    def test_deterministic(self):
        a = cell_eval_seed(7, 3, 0.01, 0.1, "montecarlo", {"trials": 5})
        b = cell_eval_seed(7, 3, 0.01, 0.1, "montecarlo", {"trials": 5})
        assert a == b and isinstance(a, int) and a >= 0

    def test_sensitive_to_every_component(self):
        base = cell_eval_seed(7, 3, 0.01, 0.1, "montecarlo", {"trials": 5})
        variants = [
            cell_eval_seed(8, 3, 0.01, 0.1, "montecarlo", {"trials": 5}),
            cell_eval_seed(7, 4, 0.01, 0.1, "montecarlo", {"trials": 5}),
            cell_eval_seed(7, 3, 0.02, 0.1, "montecarlo", {"trials": 5}),
            cell_eval_seed(7, 3, 0.01, 0.2, "montecarlo", {"trials": 5}),
            cell_eval_seed(7, 3, 0.01, 0.1, "other", {"trials": 5}),
            cell_eval_seed(7, 3, 0.01, 0.1, "montecarlo", {"trials": 6}),
            cell_eval_seed(7, 3, 0.01, 0.1, "montecarlo", {}),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_option_order_is_canonicalised(self):
        a = cell_eval_seed(
            1, 2, 0.1, 0.1, "montecarlo", {"trials": 5, "batch": 4}
        )
        b = cell_eval_seed(
            1, 2, 0.1, 0.1, "montecarlo", {"batch": 4, "trials": 5}
        )
        assert a == b

    def test_bad_options_rejected(self):
        with pytest.raises(ExperimentError, match="evaluator_options"):
            cell_eval_seed(1, 2, 0.1, 0.1, "montecarlo", [1, 2])

    def test_spec_policy_validated(self):
        with pytest.raises(ExperimentError, match="eval-seed policy"):
            mc_spec(eval_seed_policy="nope")
        assert "content" in EVAL_SEED_POLICIES
        assert "positional" in EVAL_SEED_POLICIES


# ----------------------------------------------------------------------
# Golden positional records: byte-identical to PR 4 HEAD.


#: (pfail, ccr, em_some, em_all, em_none) captured at PR 4 HEAD with
#: the exact mc_spec() grid below.  The eval_seed_policy default must
#: keep reproducing these bit for bit — a drift here means the default
#: derivation silently changed.
GOLDEN_STABLE_MC = [
    (0.01, 0.01, 974.8303317239059, 977.5115081942594, 1295.9095186489658),
    (0.01, 0.1, 1074.7689945638565, 1132.608004146611, 1295.9095186489658),
    (0.001, 0.01, 941.2792876009412, 943.6503697982016, 962.5582637066819),
    (0.001, 0.1, 1028.3168941635465, 1090.4349565324696, 962.5582637066819),
]
GOLDEN_SPAWN_MC = [
    (0.01, 0.01, 1000.3970695959488, 1001.3755277281562, 1326.4974633001682),
    (0.01, 0.1, 1092.8871198635168, 1158.2772148613944, 1326.4974633001682),
    (0.001, 0.01, 961.7349279607346, 967.7312727397449, 985.5342817584512),
    (0.001, 0.1, 1050.5213520707987, 1115.564251168014, 985.5342817584512),
]
GOLDEN_STABLE_PATHAPPROX = [
    (0.01, 0.01, 978.3898177412837, 981.9062869878024, 1295.9095186489658),
    (0.01, 0.1, 1072.3409195976394, 1131.5791640033278, 1295.9095186489658),
    (0.001, 0.01, 940.0070865001451, 945.8052788669025, 962.5582637066819),
    (0.001, 0.1, 1029.003485405427, 1091.260521127265, 962.5582637066819),
]


class TestPositionalGoldenRecords:
    @pytest.mark.parametrize(
        "policy,method,opts,golden",
        [
            ("stable", "montecarlo", {"trials": 500}, GOLDEN_STABLE_MC),
            ("spawn", "montecarlo", {"trials": 500}, GOLDEN_SPAWN_MC),
            ("stable", "pathapprox", {}, GOLDEN_STABLE_PATHAPPROX),
        ],
    )
    def test_default_policy_matches_pr4_head(
        self, policy, method, opts, golden
    ):
        spec = mc_spec(
            seed_policy=policy, method=method, evaluator_options=opts
        )
        assert spec.eval_seed_policy == "positional"  # the pinned default
        records = run_sweep(spec, jobs=1)
        got = [
            (r.pfail, r.ccr, r.em_some, r.em_all, r.em_none) for r in records
        ]
        assert got == [tuple(row) for row in golden]


# ----------------------------------------------------------------------
# Batched Monte Carlo: bit-identity and the content policy.


class TestMonteCarloBatch:
    @pytest.mark.parametrize("family", ["montage", "genome", "ligo"])
    def test_bit_identical_to_per_cell_under_content_policy(
        self, family, per_cell
    ):
        spec = mc_spec(family=family, eval_seed_policy="content")
        batched = run_sweep(spec, jobs=1)
        per_cell("montecarlo")
        assert batched == run_sweep(spec, jobs=1)

    def test_bit_identical_under_positional_policy_too(self, per_cell):
        spec = mc_spec()
        batched = run_sweep(spec, jobs=1)
        per_cell("montecarlo")
        assert batched == run_sweep(spec, jobs=1)

    def test_antithetic_odd_trials_bit_identical(self, per_cell):
        spec = mc_spec(
            eval_seed_policy="content",
            evaluator_options={"trials": 201, "antithetic": True},
        )
        batched = run_sweep(spec, jobs=1)
        per_cell("montecarlo")
        assert batched == run_sweep(spec, jobs=1)

    def test_content_records_are_grid_position_independent(self):
        spec = mc_spec(eval_seed_policy="content")
        grid = run_sweep(spec, jobs=1)
        for record in grid:
            (alone,) = run_sweep(
                replace(spec, pfails=(record.pfail,), ccrs=(record.ccr,)),
                jobs=1,
            )
            assert alone == record

    def test_positional_records_are_not(self):
        spec = mc_spec()
        grid = run_sweep(spec, jobs=1)
        moved = run_sweep(
            replace(spec, pfails=(spec.pfails[0],), ccrs=(spec.ccrs[1],)),
            jobs=1,
        )[0]
        original = next(
            r
            for r in grid
            if r.pfail == spec.pfails[0] and r.ccr == spec.ccrs[1]
        )
        assert moved != original

    def test_policies_sample_different_streams(self):
        positional = run_sweep(mc_spec(), jobs=1)
        content = run_sweep(mc_spec(eval_seed_policy="content"), jobs=1)
        assert positional != content

    def test_direct_batch_matches_per_cell_seeds(self):
        template = ParamDAG.from_dags(
            [chain_dag([1.0, 2.0, 3.0]), chain_dag([2.0, 1.0, 4.0])]
        )
        values = montecarlo_batch(template, trials=400, seed=[5, 6])
        for i, seed in enumerate((5, 6)):
            assert values[i] == montecarlo(
                template.cell(i), trials=400, seed=seed
            )

    def test_direct_batch_scalar_seed(self):
        template = ParamDAG.from_dags(
            [chain_dag([1.0, 2.0]), chain_dag([3.0, 4.0])]
        )
        values = montecarlo_batch(template, trials=300, seed=9)
        for i in range(2):
            assert values[i] == montecarlo(template.cell(i), trials=300, seed=9)

    def test_direct_batch_generator_seed_falls_back_to_the_loop(self):
        template = ParamDAG.from_dags(
            [chain_dag([1.0, 2.0]), chain_dag([3.0, 4.0])]
        )
        a = montecarlo_batch(
            template, trials=100, seed=np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        b = [
            montecarlo(template.cell(i), trials=100, seed=rng)
            for i in range(2)
        ]
        assert a.tolist() == b

    def test_cell_chunking_is_bit_identical(self, monkeypatch):
        import sys

        # (The package re-exports the function under the module's name,
        # so fetch the module itself from sys.modules.)
        mc = sys.modules["repro.makespan.montecarlo"]

        template = ParamDAG.from_dags(
            [chain_dag([float(i + 1), 2.0]) for i in range(5)]
        )
        seeds = list(range(5))
        reference = montecarlo_batch(template, trials=300, seed=seeds)
        monkeypatch.setattr(mc, "MC_BATCH_MAX_BYTES", 1)  # one cell per chunk
        chunked = montecarlo_batch(template, trials=300, seed=seeds)
        assert chunked.tolist() == reference.tolist()

    def test_trial_batching_is_bit_identical(self):
        template = ParamDAG.from_dags([chain_dag([1.0, 2.0, 3.0])] * 2)
        a = montecarlo_batch(template, trials=1500, seed=[1, 2], batch=256)
        b = [
            montecarlo(template.cell(i), trials=1500, seed=s, batch=256)
            for i, s in enumerate((1, 2))
        ]
        assert a.tolist() == b

    def test_trials_validated(self):
        template = ParamDAG.from_dags([chain_dag([1.0])])
        with pytest.raises(EvaluationError, match="trials"):
            montecarlo_batch(template, trials=0)

    def test_expected_makespans_dispatches_montecarlo(self):
        template = ParamDAG.from_dags([chain_dag([1.0]), chain_dag([2.0])])
        values = expected_makespans(
            template, "montecarlo", trials=50, seed=[1, 2]
        )
        assert values.shape == (2,)
        assert values[0] == expected_makespan(
            template.cell(0), "montecarlo", trials=50, seed=1
        )

    def test_default_batch_loop_slices_per_cell_seeds(self):
        # The per-cell seed convention is part of the Evaluator batch
        # protocol: a custom stochastic evaluator without a vectorised
        # batch_fn must get seeds[i] per cell from the default loop,
        # not the whole list as one entropy pool.
        from repro.makespan.evaluator import FunctionEvaluator

        def noisy(dag, seed=None):
            return float(np.random.default_rng(seed).random()) + dag.base.sum()

        ev = FunctionEvaluator(noisy, name="noisy", deterministic=False)
        template = ParamDAG.from_dags(
            [chain_dag([1.0]), chain_dag([2.0])]
        )
        values = ev.evaluate_batch(template, seed=[3, 4])
        assert values.tolist() == [
            noisy(template.cell(0), seed=3),
            noisy(template.cell(1), seed=4),
        ]
        with pytest.raises(EvaluationError, match="seeds"):
            ev.evaluate_batch(template, seed=[3])


# ----------------------------------------------------------------------
# Antithetic stderr: variance over pair averages.


class TestAntitheticStderr:
    def test_old_stderr_overstates_the_antithetic_error(self):
        # A near-linear DAG: antithetic pairs are strongly negatively
        # correlated, so the pair-average variance is far below half the
        # raw variance — the old sqrt(var/trials) formula (raw-sample
        # variance over correlated draws) overstates the actual error.
        dag = chain_dag([3.0, 5.0, 2.0, 7.0], p=0.3)
        res = montecarlo_result(dag, trials=4000, seed=11, antithetic=True)
        old_stderr = sqrt(res.variance / res.trials)
        assert res.stderr < 0.8 * old_stderr

    def test_even_trials_is_the_pair_average_formula(self):
        dag = chain_dag([3.0, 5.0, 2.0], p=0.25)
        samples = sample_makespans(dag, 2000, seed=4, antithetic=True)
        res = montecarlo_result(dag, trials=2000, seed=4, antithetic=True)
        pair_avg = 0.5 * (samples[0::2] + samples[1::2])
        assert res.stderr == pytest.approx(
            sqrt(pair_avg.var(ddof=1) / len(pair_avg)), rel=1e-12
        )
        assert res.variance == pytest.approx(samples.var(ddof=1), rel=1e-12)

    def test_odd_trials_handles_the_lone_final_draw(self):
        dag = chain_dag([3.0, 5.0, 2.0], p=0.25)
        trials = 2001
        samples = sample_makespans(dag, trials, seed=4, antithetic=True)
        res = montecarlo_result(dag, trials=trials, seed=4, antithetic=True)
        m = trials // 2
        pair_avg = 0.5 * (samples[0 : 2 * m : 2] + samples[1 : 2 * m : 2])
        expected = sqrt(
            4.0 * m * pair_avg.var(ddof=1) / trials**2
            + samples.var(ddof=1) / trials**2
        )
        assert res.stderr == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(res.stderr)

    def test_degenerate_trial_counts(self):
        dag = chain_dag([3.0], p=0.25)
        assert montecarlo_result(
            dag, trials=1, seed=0, antithetic=True
        ).stderr == 0.0
        # Two trials = one pair: no pair-average variance to estimate.
        assert (
            montecarlo_result(dag, trials=2, seed=0, antithetic=True).stderr
            == 0.0
        )

    def test_plain_stderr_unchanged(self):
        dag = chain_dag([3.0, 5.0], p=0.25)
        res = montecarlo_result(dag, trials=500, seed=1)
        assert res.stderr == pytest.approx(
            sqrt(res.variance / res.trials), rel=1e-15
        )


# ----------------------------------------------------------------------
# Service: policy-conditional coalescing, store hits, fingerprints.


class TestServicePolicy:
    def test_fingerprint_covers_the_policy(self):
        a = mc_request()
        b = mc_request(eval_seed_policy="content")
        assert fingerprint(a) != fingerprint(b)
        assert a.coalesce_key != b.coalesce_key

    def test_grid_sensitivity_is_policy_conditional(self):
        assert grid_sensitive("montecarlo", "positional")
        assert not grid_sensitive("montecarlo", "content")
        assert not grid_sensitive("pathapprox", "positional")
        assert mc_request().grid_sensitive
        assert not mc_request(eval_seed_policy="content").grid_sensitive

    def test_policy_validated_and_round_tripped(self):
        with pytest.raises(ServiceError, match="eval-seed policy"):
            mc_request(eval_seed_policy="nope")
        r = mc_request(eval_seed_policy="content")
        assert request_from_dict(request_to_dict(r)) == r
        # Old payloads (no eval_seed_policy key) default to positional.
        payload = request_to_dict(mc_request())
        del payload["eval_seed_policy"]
        assert request_from_dict(payload).eval_seed_policy == "positional"

    def test_spec_round_trip_carries_the_policy(self):
        r = mc_request(eval_seed_policy="content")
        spec = request_to_spec(r)
        assert spec.eval_seed_policy == "content"
        assert requests_from_spec(spec) == [r]

    def test_positional_mc_still_dispatched_per_cell(self):
        requests = [mc_request(ccr=1e-3), mc_request(ccr=1e-2)]
        batches = plan_batches(requests)
        assert len(batches) == 2
        assert all(spec.n_cells == 1 for spec, _ in batches)

    def test_content_mc_coalesces(self):
        requests = [
            mc_request(ccr=1e-3, eval_seed_policy="content"),
            mc_request(ccr=1e-2, eval_seed_policy="content"),
        ]
        ((spec, cells),) = plan_batches(requests)
        assert spec.n_cells == 2
        assert spec.eval_seed_policy == "content"
        assert cells == requests

    def test_mixed_policies_never_share_a_batch(self):
        batches = plan_batches(
            [mc_request(ccr=1e-3), mc_request(ccr=1e-3, eval_seed_policy="content")]
        )
        assert len(batches) == 2

    def test_coalesced_content_batch_store_hit_and_bit_identity(self):
        store = ResultStore(":memory:")
        sched = BatchScheduler(store)
        requests = [
            mc_request(ccr=1e-3, eval_seed_policy="content"),
            mc_request(ccr=1e-2, eval_seed_policy="content"),
        ]
        outcomes = sched.evaluate_many(requests)
        assert sched.stats.batches == 1  # one coalesced spec
        assert sched.stats.computed_cells == 2
        assert not any(o.cached for o in outcomes)
        # Bit-identical to the defining per-cell 1×1 contract *and* to
        # a declared run_sweep of the same cells under the same policy.
        for request, outcome in zip(requests, outcomes):
            (expected,) = run_sweep(request_to_spec(request))
            assert outcome.record == expected
        declared = run_sweep(
            SweepSpec(
                family="montage",
                sizes=(20,),
                processors={20: (3,)},
                pfails=(0.01,),
                ccrs=(1e-3, 1e-2),
                seed=2017,
                method="montecarlo",
                seed_policy="stable",
                eval_seed_policy="content",
                evaluator_options={"trials": 200},
            )
        )
        assert [o.record for o in outcomes] == declared
        # Resubmission is a pure store hit.
        again = sched.evaluate_many(requests)
        assert all(o.cached for o in again)
        assert [o.record for o in again] == [o.record for o in outcomes]
        assert sched.stats.computed_cells == 2  # nothing recomputed

    def test_backfill_accepts_content_policy_mc(self):
        spec = SweepSpec(
            family="montage",
            sizes=(20,),
            processors={20: (3,)},
            pfails=(0.01,),
            ccrs=(1e-3, 1e-2),
            seed=2017,
            method="montecarlo",
            seed_policy="stable",
            eval_seed_policy="content",
            evaluator_options={"trials": 200},
        )
        records = run_sweep(spec)
        store = ResultStore(":memory:")
        added = store.backfill(
            records,
            seed=2017,
            seed_policy="stable",
            method="montecarlo",
            eval_seed_policy="content",
            evaluator_options=(("trials", 200),),
        )
        assert added == 2
        # The backfilled rows answer real requests.
        for request in requests_from_spec(spec):
            assert store.get(request) is not None

    def test_backfill_still_refuses_positional_mc(self):
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="positional"):
            store.backfill(
                [], seed=7, seed_policy="stable", method="montecarlo"
            )
        with pytest.raises(ServiceError, match="eval-seed policy"):
            store.backfill(
                [],
                seed=7,
                seed_policy="stable",
                eval_seed_policy="nope",
            )


# ----------------------------------------------------------------------
# Store schema v3 migration.


class TestStoreV2Migration:
    @staticmethod
    def v2_fingerprint(request: EvalRequest) -> str:
        """What a PR-4 build would have written for this request."""
        payload = request_to_dict(request)
        del payload["eval_seed_policy"]
        payload["_v"] = 2
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def rewrite_as_v2(self, path, requests):
        conn = sqlite3.connect(path)
        for request in requests:
            payload = request_to_dict(request)
            del payload["eval_seed_policy"]
            conn.execute(
                "UPDATE results SET fingerprint = ?, request_json = ? "
                "WHERE fingerprint = ?",
                (
                    self.v2_fingerprint(request),
                    json.dumps(payload, sort_keys=True),
                    fingerprint(request),
                ),
            )
        conn.execute("UPDATE meta SET value = '2' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()

    def test_v2_rows_rewritten_under_v3_fingerprints(self, tmp_path):
        path = tmp_path / "v2.db"
        closed = EvalRequest(
            family="montage", ntasks=20, processors=2, pfail=0.01, ccr=0.01
        )
        mc = mc_request()
        with ResultStore(path) as store:
            (closed_rec,) = run_sweep(request_to_spec(closed))
            (mc_rec,) = run_sweep(request_to_spec(mc))
            store.put(closed, closed_rec)
            store.put(mc, mc_rec)
        self.rewrite_as_v2(path, [closed, mc])
        with ResultStore(path) as store:
            # Both rows survive under v3 digests — including the
            # positional Monte Carlo row, now explicitly tagged.
            assert store.get(closed) == closed_rec
            assert store.get(mc) == mc_rec
            assert store.get(self.v2_fingerprint(closed)) is None
            # A content-policy twin is a different fingerprint: the
            # legacy positional row can never answer it.
            assert store.peek(mc_request(eval_seed_policy="content")) is None
            assert len(store) == 2
        conn = sqlite3.connect(path)
        (version,) = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        conn.close()
        assert int(version) == SCHEMA_VERSION == 3

    def test_migrated_requests_carry_the_legacy_policy_tag(self, tmp_path):
        path = tmp_path / "v2tag.db"
        mc = mc_request()
        with ResultStore(path) as store:
            (record,) = run_sweep(request_to_spec(mc))
            store.put(mc, record)
        self.rewrite_as_v2(path, [mc])
        with ResultStore(path) as store:
            ((fp, request, _, _),) = store.entries()
            assert request.eval_seed_policy == "positional"
            assert fp == fingerprint(mc)


# ----------------------------------------------------------------------
# Durable source registry.


class TestDurableSources:
    def test_save_and_load_round_trip(self, tmp_path):
        path = tmp_path / "src.db"
        source = FileSource(small_workflow(), label="small.dax")
        with ResultStore(path) as store:
            assert store.save_source(source) == source.content_hash
            assert store.save_source(source) == source.content_hash  # upsert
            assert store.source_count() == 1
        with ResultStore(path) as store:
            (loaded,) = store.load_sources()
            assert loaded == source
            assert loaded.label == "small.dax"
            assert loaded.workflow.n_tasks == source.workflow.n_tasks

    def test_only_file_sources_persist(self):
        from repro.workloads import FamilySource

        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="file sources"):
            store.save_source(FamilySource("montage"))

    def test_corrupted_row_refused(self, tmp_path):
        path = tmp_path / "bad.db"
        source = FileSource(small_workflow())
        with ResultStore(path) as store:
            store.save_source(source)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE sources SET content_hash = ?",
            ("0" * 64,),
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            with pytest.raises(ServiceError, match="edited or corrupted"):
                store.load_sources()

    def test_zero_weight_row_refused(self, tmp_path):
        """A stored workflow no cell can price (every task weighs 0, so
        lambda is undefined) is refused on load like a corrupted row,
        by a ServiceError naming its hash."""
        from repro.generators.serialization import workflow_to_json
        from repro.workloads import workflow_hash

        workflow = small_workflow(weight=0.0)
        content_hash = workflow_hash(workflow)
        path = tmp_path / "zero.db"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO sources VALUES (?, ?, ?, ?)",
            (content_hash, json.dumps(workflow_to_json(workflow)), None, 0.0),
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            with pytest.raises(
                ServiceError, match=f"{content_hash[:12]}.*positive total"
            ):
                store.load_sources()

    def test_service_restart_keeps_sources(self, tmp_path):
        path = tmp_path / "svc.db"
        wf = small_workflow()
        with ReproService(store=path, linger=0.0) as service:
            client = ServiceClient(service.url)
            content_hash = client.register(wf, label="ext.json")
            reply = client.sweep(
                workflow=content_hash,
                processors=[2],
                pfails=[0.01],
                ccrs=[0.01],
            )
            assert reply.computed == 1
        # Fresh service over the same store: no re-registration needed.
        with ReproService(store=path, linger=0.0) as service:
            client = ServiceClient(service.url)
            sources = client.sources()
            assert [s["workflow"] for s in sources] == [content_hash]
            assert sources[0]["label"] == "ext.json"
            reply = client.sweep(
                workflow=content_hash,
                processors=[2],
                pfails=[0.01],
                ccrs=[0.01],
            )
            assert reply.cached == 1 and reply.computed == 0

    def test_server_default_eval_seed_policy_applies(self, tmp_path):
        with ReproService(
            store=tmp_path / "pol.db", linger=0.0, eval_seed_policy="content"
        ) as service:
            client = ServiceClient(service.url)
            assert client.status()["eval_seed_policy"] == "content"
            reply = client.evaluate(
                family="montage",
                ntasks=20,
                processors=3,
                pfail=0.01,
                ccr=0.01,
                method="montecarlo",
                evaluator_options={"trials": 200},
            )
            # The default made the request content-policy: its record
            # equals the content-policy 1×1 contract.
            (expected,) = run_sweep(
                request_to_spec(mc_request(eval_seed_policy="content"))
            )
            assert reply.record == expected
            # An explicit payload policy wins over the server default.
            positional = client.evaluate(request=mc_request())
            (expected_pos,) = run_sweep(request_to_spec(mc_request()))
            assert positional.record == expected_pos

    def test_bad_server_policy_rejected(self):
        with pytest.raises(ServiceError, match="eval-seed policy"):
            ReproService(eval_seed_policy="nope")


# ----------------------------------------------------------------------
# CLI surface.


class TestCli:
    def test_parser_accepts_the_policy_everywhere(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["sweep", "--family", "montage", "--eval-seed-policy", "content"],
            ["serve", "--eval-seed-policy", "content"],
            ["evaluate", "--family", "montage", "--eval-seed-policy", "content"],
            ["submit", "--family", "montage", "--eval-seed-policy", "content"],
        ):
            assert parser.parse_args(argv).eval_seed_policy == "content"

    def test_sweep_content_policy_matches_engine(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine.records import records_from_jsonl

        out = tmp_path / "mc.jsonl"
        code = main(
            [
                "sweep",
                "--family", "montage",
                "--sizes", "20",
                "--processors", "3",
                "--pfails", "0.01",
                "--ccrs", "0.01", "0.1",
                "--seed", "2017",
                "--method", "montecarlo",
                "--seed-policy", "stable",
                "--eval-seed-policy", "content",
                "--quiet",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        expected = run_sweep(
            mc_spec(
                sizes=(20,),
                processors={20: (3,)},
                pfails=(0.01,),
                ccrs=(0.01, 0.1),
                eval_seed_policy="content",
                evaluator_options={},
            )
        )
        assert records_from_jsonl(out) == expected

    def test_submit_local_content_mc_hits_the_store(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "submit",
            "--local",
            "--store", str(tmp_path / "cli.db"),
            "--family", "montage",
            "--ntasks", "20",
            "--processors", "3",
            "--method", "montecarlo",
            "--mc-trials", "200",
            "--eval-seed-policy", "content",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[computed]" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[store hit]" in second

    def test_submit_without_flag_follows_the_server_default(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        with ReproService(
            store=tmp_path / "srv.db", linger=0.0, eval_seed_policy="content"
        ) as service:
            argv = [
                "submit",
                "--url", service.url,
                "--family", "montage",
                "--ntasks", "20",
                "--processors", "3",
                "--pfail", "0.01",
                "--ccr", "0.01",
                "--method", "montecarlo",
                "--mc-trials", "200",
            ]
            assert main(argv) == 0
            out = capsys.readouterr().out
            # The server's content default applied: the fingerprint is
            # the content-policy one, not the positional fallback.
            assert fingerprint(mc_request(eval_seed_policy="content")) in out
            # An explicit flag still wins over the server default.
            assert main(argv + ["--eval-seed-policy", "positional"]) == 0
            out = capsys.readouterr().out
            assert fingerprint(mc_request()) in out

    def test_mc_trials_requires_montecarlo(self, capsys):
        from repro.cli import main

        code = main(
            [
                "submit",
                "--local",
                "--family", "montage",
                "--mc-trials", "50",
            ]
        )
        assert code == 2
        assert "--mc-trials" in capsys.readouterr().err

    def test_evaluate_content_policy_is_deterministic(self, capsys):
        from repro.cli import main

        argv = [
            "evaluate",
            "--family", "montage",
            "--ntasks", "20",
            "--processors", "3",
            "--method", "montecarlo",
            "--eval-seed-policy", "content",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "E[makespan]" in first
