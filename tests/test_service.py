"""Tests for the evaluation service core: fingerprints, the durable
result store, and the coalescing batch scheduler."""

import json

import pytest

import repro.engine.pipeline as pipeline_mod
from repro.api import run_strategies
from repro.engine import SweepSpec, run_sweep
from repro.errors import ReproError, ServiceError
from repro.experiments.figures import run_cell
from repro.generators import generate
from repro.service import (
    BatchScheduler,
    EvalRequest,
    ResultStore,
    fingerprint,
    plan_batches,
    request_from_dict,
    request_to_dict,
    request_to_spec,
    requests_from_spec,
)
from repro.util.rng import stable_seed


def req(**overrides) -> EvalRequest:
    kwargs = dict(
        family="genome",
        ntasks=30,
        processors=3,
        pfail=0.001,
        ccr=0.01,
        seed=11,
    )
    kwargs.update(overrides)
    return EvalRequest(**kwargs)


class TestFingerprint:
    def test_deterministic_and_hex(self):
        assert fingerprint(req()) == fingerprint(req())
        assert len(fingerprint(req())) == 64
        int(fingerprint(req()), 16)  # valid hex

    @pytest.mark.parametrize(
        "change",
        [
            {"family": "montage"},
            {"ntasks": 31},
            {"processors": 4},
            {"pfail": 0.01},
            {"ccr": 0.1},
            {"seed": 12},
            {"method": "dodin"},
            {"bandwidth": 200e6},
            {"linearizer": "minlive"},
            {"save_final_outputs": False},
            {"seed_policy": "spawn"},
            {"evaluator_options": {"k": 3}},
        ],
    )
    def test_every_field_changes_the_fingerprint(self, change):
        assert fingerprint(req()) != fingerprint(req(**change))

    def test_evaluator_options_canonicalised(self):
        a = req(method="montecarlo", evaluator_options={"trials": 10, "seed": 1})
        b = req(
            method="montecarlo",
            evaluator_options=(("seed", 1), ("trials", 10)),
        )
        assert a.evaluator_options == b.evaluator_options
        assert fingerprint(a) == fingerprint(b)

    def test_dict_round_trip(self):
        r = req(evaluator_options={"k": 2})
        assert request_from_dict(request_to_dict(r)) == r

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown request field"):
            request_from_dict({"family": "genome", "ntask": 30})

    @pytest.mark.parametrize(
        "bad",
        [
            {"ntasks": 0},
            {"processors": 0},
            {"pfail": -0.1},
            {"pfail": 1.0},
            {"pfail": float("nan")},
            {"ccr": -1.0},
            {"ccr": float("nan")},
            {"ccr": float("inf")},
            {"bandwidth": 0.0},
            {"bandwidth": -1.0},
            {"bandwidth": float("nan")},
            {"seed": -1},
            {"seed": "abc"},
            {"seed": float("nan")},
            {"ntasks": "abc"},
            {"method": "nope"},
            {"seed_policy": "nope"},
            # int() would truncate these to a different cell.
            {"processors": 2.5},
            {"ntasks": 30.9},
            {"seed": 1.5},
            {"processors": True},
        ],
    )
    def test_invalid_requests_rejected(self, bad):
        with pytest.raises(ServiceError):
            req(**bad)

    @pytest.mark.parametrize(
        "options",
        [
            {"trials": [1, 2]},  # unhashable, not a JSON scalar
            {"k": {"nested": 1}},
            {"k": float("nan")},
            {1: "x"},  # non-string key
            [["a"]],  # not key/value shaped
        ],
    )
    def test_non_scalar_evaluator_options_rejected(self, options):
        """Bad option values must fail at construction, not later inside
        batch planning where they would poison an unrelated batch."""
        with pytest.raises(ServiceError):
            req(evaluator_options=options)


class TestRequestContract:
    """A request's defining 1×1 sweep equals the direct entry points."""

    def test_matches_run_cell(self):
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        assert record == run_cell(
            r.family, r.ntasks, r.processors, r.pfail, r.ccr, seed=r.seed
        )

    def test_matches_run_strategies(self):
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        wf = generate(r.family, r.ntasks, stable_seed(r.seed, r.family, r.ntasks))
        outcome = run_strategies(
            wf,
            r.processors,
            pfail=r.pfail,
            ccr=r.ccr,
            seed=stable_seed(r.seed, r.family, r.ntasks, r.processors),
        )
        assert record.em_some == outcome.em_some
        assert record.em_all == outcome.em_all
        assert record.em_none == outcome.em_none

    def test_spawn_policy_follows_the_per_cell_contract(self):
        r = req(seed_policy="spawn")
        (expected,) = run_sweep(request_to_spec(r))
        outcome = BatchScheduler(ResultStore(":memory:")).evaluate(r)
        assert outcome.record == expected

    def test_montecarlo_follows_the_per_cell_contract(self):
        """Monte Carlo cells are answered per the 1×1 contract: the
        sampling stream is the cell's own, not a larger grid's
        positional one — so results are reproducible per cell and
        independent of which batch computed them."""
        from repro.service import BatchScheduler, ResultStore

        r = req(method="montecarlo", evaluator_options={"trials": 2000})
        (expected,) = run_sweep(request_to_spec(r))
        outcome = BatchScheduler(ResultStore(":memory:")).evaluate(r)
        assert outcome.record == expected
        # submitted alongside a sibling cell, the answer is unchanged
        sibling = req(
            method="montecarlo", evaluator_options={"trials": 2000}, ccr=0.1
        )
        outcomes = BatchScheduler(ResultStore(":memory:")).evaluate_many(
            [r, sibling]
        )
        assert outcomes[0].record == expected

    def test_spec_cells_round_trip(self):
        spec = SweepSpec(
            family="genome",
            sizes=(30,),
            processors={30: (3, 5)},
            pfails=(0.01, 0.001),
            ccrs=(1e-3, 1e-2),
            seed=11,
            seed_policy="stable",
        )
        requests = requests_from_spec(spec)
        assert len(requests) == spec.n_cells
        # grid order: processors-major, then pfail, then ccr
        assert [r.processors for r in requests[:4]] == [3, 3, 3, 3]
        assert all(request_to_spec(r).n_cells == 1 for r in requests)


class TestResultStore:
    def test_put_get_and_counters(self):
        store = ResultStore(":memory:")
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        assert store.get(r) is None
        fp = store.put(r, record)
        assert store.get(fp) == record
        assert store.get(r) == record
        stats = store.stats()
        assert (stats.entries, stats.hits, stats.misses) == (1, 2, 1)
        assert store.hit_count(fp) == 2
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        with ResultStore(path) as store:
            store.put(r, record)
        with ResultStore(path) as store:
            assert store.get(r) == record
            assert len(store) == 1

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "store.db"
        with ResultStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
            store._conn.commit()
        with pytest.raises(ServiceError, match="schema version"):
            ResultStore(path)

    def test_export_import_round_trip(self, tmp_path):
        src = ResultStore(":memory:")
        requests = [req(), req(ccr=0.1)]
        for r in requests:
            (record,) = run_sweep(request_to_spec(r))
            src.put(r, record)
        src.get(requests[0])  # bump a persistent hit counter
        path = tmp_path / "dump.jsonl"
        src.export_jsonl(path)

        dst = ResultStore(":memory:")
        assert dst.import_jsonl(path) == 2
        assert dst.import_jsonl(path) == 0  # idempotent
        for r in requests:
            assert dst.peek(r) == src.peek(r)
        assert dst.hit_count(fingerprint(requests[0])) == 1

    def test_import_rejects_tampered_fingerprint(self, tmp_path):
        src = ResultStore(":memory:")
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        src.put(r, record)
        text = src.export_jsonl().replace(fingerprint(r), "0" * 64)
        with pytest.raises(ServiceError, match="fingerprint mismatch"):
            ResultStore(":memory:").import_jsonl(text)

    def test_failed_import_is_atomic(self, tmp_path):
        """A mid-file error must leave nothing behind — not even rows
        from earlier lines, and not as a pending transaction that a
        later unrelated write would commit."""
        src = ResultStore(":memory:")
        good, other = req(), req(ccr=0.1)
        for r in (good, other):
            (record,) = run_sweep(request_to_spec(r))
            src.put(r, record)
        lines = src.export_jsonl().splitlines()
        lines[1] = lines[1].replace(fingerprint(other), "0" * 64)
        path = tmp_path / "dst.db"
        dst = ResultStore(path)
        with pytest.raises(ServiceError, match="fingerprint mismatch"):
            dst.import_jsonl("\n".join(lines))
        assert len(dst) == 0
        # an unrelated write must not commit leaked import rows
        (record,) = run_sweep(request_to_spec(req(ccr=0.2)))
        dst.put(req(ccr=0.2), record)
        dst.close()
        with ResultStore(path) as reopened:
            assert len(reopened) == 1
            assert good not in reopened

    @pytest.mark.parametrize(
        "field, value",
        [("save_final_outputs", "false"), ("linearizer", "heavy"),
         ("pfail", False)],
    )
    def test_import_refuses_a_request_that_no_longer_validates(
        self, tmp_path, field, value
    ):
        """Older builds stored requests the cell validator refuses (a
        string for a bool, an unknown linearizer, a bool for a number):
        such a dump line is refused by number, and atomically."""
        src = ResultStore(":memory:")
        (record,) = run_sweep(request_to_spec(req()))
        for r in (req(), req(ccr=0.1)):
            src.put(r, record)
        lines = [json.loads(line) for line in src.export_jsonl().splitlines()]
        lines[1]["request"][field] = value
        dst = ResultStore(tmp_path / "dst.db")
        with pytest.raises(ServiceError, match="dump line 2: request refused"):
            dst.import_jsonl("\n".join(json.dumps(line) for line in lines))
        assert len(dst) == 0
        dst.close()

    def test_backfill_from_sweep_jsonl(self, tmp_path):
        from repro.engine import records_to_jsonl

        spec = SweepSpec(
            family="genome",
            sizes=(30,),
            processors={30: (3,)},
            pfails=(0.001,),
            ccrs=(1e-3, 1e-2),
            seed=11,
            seed_policy="stable",
        )
        records = run_sweep(spec)
        path = tmp_path / "sweep.jsonl"
        records_to_jsonl(records, path)

        store = ResultStore(":memory:")
        added = store.backfill_jsonl(path, seed=spec.seed, seed_policy="stable")
        assert added == len(records)
        # Backfilled entries answer live requests without computation.
        scheduler = BatchScheduler(store)
        outcome = scheduler.evaluate(
            req(ntasks=30, processors=3, pfail=0.001, ccr=1e-3, seed=11)
        )
        assert outcome.cached
        assert outcome.record == records[0]
        assert scheduler.stats.computed_cells == 0

    def test_backfill_requires_seed_and_policy(self):
        """seed/seed_policy have no defaults: a silently wrong policy
        would key records under fingerprints of a different computation."""
        store = ResultStore(":memory:")
        with pytest.raises(TypeError):
            store.backfill([])
        with pytest.raises(TypeError):
            store.backfill([], seed=7)

    def test_backfill_refuses_grid_sensitive_methods(self):
        # Positional policy (the default): Monte Carlo records depend
        # on the source grid's shape, so backfill must refuse them.
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="montecarlo"):
            store.backfill(
                [], seed=7, seed_policy="stable", method="montecarlo"
            )

    def test_backfill_rejects_unknown_policy_even_for_empty_records(self):
        """A typo'd policy must not look like a successful no-op."""
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="seed policy"):
            store.backfill([], seed=7, seed_policy="spwan")

    def test_backfill_refuses_spawn_policy_records(self):
        """Spawn derives workflow *and schedule* seeds from the source
        grid's positional SeedSequence spawns, and records do not carry
        their schedule seed — so a cell filtered out of a multi-size or
        multi-processor spawn grid is indistinguishable from a
        contract-conforming one while holding different numbers.  Spawn
        backfill is therefore refused outright."""
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="spawn"):
            store.backfill([], seed=11, seed_policy="spawn")
        spec = SweepSpec(
            family="genome",
            sizes=(30,),
            processors={30: (3,)},
            pfails=(0.001,),
            ccrs=(0.01,),
            seed=11,
            seed_policy="spawn",
        )
        with pytest.raises(ServiceError, match="spawn"):
            store.backfill(run_sweep(spec), seed=11, seed_policy="spawn")
        assert len(store) == 0

    def test_backfill_verifies_record_seed_provenance(self):
        """Each record's stored workflow seed must match the per-cell
        contract derivation for the claimed root seed — a wrong root
        would file records under fingerprints of a different
        computation."""
        spec = SweepSpec(
            family="genome",
            sizes=(30,),
            processors={30: (3,)},
            pfails=(0.001,),
            ccrs=(0.01,),
            seed=11,
            seed_policy="stable",
        )
        records = run_sweep(spec)
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="workflow seed"):
            store.backfill(records, seed=12, seed_policy="stable")
        assert len(store) == 0
        assert store.backfill(records, seed=11, seed_policy="stable") == 1

    def test_hit_counter_batching_flushes_on_read_and_close(self, tmp_path):
        path = tmp_path / "store.db"
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        with ResultStore(path) as store:
            store.put(r, record)
            for _ in range(3):
                assert store.get(r) == record
            assert store.hit_count(r) == 3  # read point flushes
            store.get(r)
        # close() flushed the last pending delta
        with ResultStore(path) as reopened:
            assert reopened.hit_count(r) == 4

    def test_clear(self):
        store = ResultStore(":memory:")
        r = req()
        (record,) = run_sweep(request_to_spec(r))
        store.put(r, record)
        store.clear()
        assert len(store) == 0
        assert store.stats().hits == 0


class TestPlanBatches:
    def make(self, pfail, ccr, **overrides):
        return req(pfail=pfail, ccr=ccr, **overrides)

    def test_exact_cover_no_extra_cells(self):
        requests = [
            self.make(0.01, 1e-3),
            self.make(0.01, 1e-2),
            self.make(0.001, 1e-1),  # ragged: different CCR set per pfail
        ]
        batches = plan_batches(requests)
        cells = [
            (spec.pfails[0], ccr) for spec, _ in batches for ccr in spec.ccrs
        ]
        assert sorted(cells) == sorted((r.pfail, r.ccr) for r in requests)
        assert sum(spec.n_cells for spec, _ in batches) == len(requests)

    def test_grouping_by_processors(self):
        requests = [
            self.make(0.01, 1e-3),
            self.make(0.01, 1e-2),
            self.make(0.01, 1e-3, processors=5),
        ]
        batches = plan_batches(requests)
        assert len(batches) == 2  # one per (workflow, processors) pair
        sizes = sorted(spec.n_cells for spec, _ in batches)
        assert sizes == [1, 2]

    def test_montecarlo_never_coalesced(self):
        # Default (positional) policy: sampling seeds are positional,
        # so each cell must be its own 1×1 spec.  (Content-policy
        # coalescing is covered in test_mc_content.py.)
        requests = [
            self.make(0.01, 1e-3, method="montecarlo"),
            self.make(0.01, 1e-2, method="montecarlo"),
        ]
        batches = plan_batches(requests)
        assert len(batches) == 2
        assert all(spec.n_cells == 1 for spec, _ in batches)

    def test_cell_requests_align_with_grid_order(self):
        requests = [self.make(0.01, 1e-2), self.make(0.01, 1e-3)]
        ((spec, cells),) = plan_batches(requests)
        assert spec.ccrs == (1e-2, 1e-3)  # submission order preserved
        assert [c.ccr for c in cells] == [1e-2, 1e-3]


class TestBatchScheduler:
    def grid_requests(self, **overrides):
        return [
            req(processors=p, pfail=pfail, ccr=ccr, **overrides)
            for p in (3, 5)
            for pfail in (0.01, 0.001)
            for ccr in (1e-3, 1e-2)
        ]

    def test_results_bit_identical_to_run_sweep(self):
        spec = SweepSpec(
            family="genome",
            sizes=(30,),
            processors={30: (3, 5)},
            pfails=(0.01, 0.001),
            ccrs=(1e-3, 1e-2),
            seed=11,
            seed_policy="stable",
        )
        scheduler = BatchScheduler(ResultStore(":memory:"))
        outcomes = scheduler.evaluate_many(requests_from_spec(spec))
        assert [o.record for o in outcomes] == run_sweep(spec)

    def test_repeat_served_from_store_without_recomputation(self):
        store = ResultStore(":memory:")
        scheduler = BatchScheduler(store)
        r = req()
        first = scheduler.evaluate(r)
        assert not first.cached
        computed_after_first = scheduler.stats.computed_cells
        second = scheduler.evaluate(r)
        assert second.cached
        assert second.record == first.record
        assert scheduler.stats.computed_cells == computed_after_first
        assert store.hit_count(first.fingerprint) == 1

    def test_duplicates_within_batch_computed_once(self):
        scheduler = BatchScheduler(ResultStore(":memory:"))
        outcomes = scheduler.evaluate_many([req(), req(), req()])
        assert scheduler.stats.computed_cells == 1
        assert scheduler.stats.deduped == 2
        assert outcomes[0].record == outcomes[1].record == outcomes[2].record

    def test_coalesced_batch_invokes_invariant_stages_once_per_pair(
        self, monkeypatch
    ):
        """Acceptance: N requests sharing (workflow, processors) run
        mspgify once per workflow and allocate once per pair."""
        counts = {"mspgify": 0, "allocate": 0}
        real_mspgify = pipeline_mod.mspgify
        real_allocate = pipeline_mod.allocate
        monkeypatch.setattr(
            pipeline_mod,
            "mspgify",
            lambda *a, **k: counts.__setitem__("mspgify", counts["mspgify"] + 1)
            or real_mspgify(*a, **k),
        )
        monkeypatch.setattr(
            pipeline_mod,
            "allocate",
            lambda *a, **k: counts.__setitem__("allocate", counts["allocate"] + 1)
            or real_allocate(*a, **k),
        )
        scheduler = BatchScheduler(ResultStore(":memory:"))
        requests = self.grid_requests()  # 2 pairs × 2 pfails × 2 ccrs
        outcomes = scheduler.evaluate_many(requests)
        assert len(outcomes) == 8
        assert counts["mspgify"] == 1  # one workflow
        assert counts["allocate"] == 2  # one per (workflow, processors)

    def test_works_without_store(self):
        scheduler = BatchScheduler(store=None)
        a = scheduler.evaluate(req())
        b = scheduler.evaluate(req())
        assert a.record == b.record
        assert not b.cached  # nothing persists without a store

    def test_batch_size_stats_track_dispatches(self):
        scheduler = BatchScheduler(ResultStore(":memory:"))
        requests = self.grid_requests()  # 2 pairs × 2 pfails → 4 specs
        scheduler.evaluate_many(requests)
        stats = scheduler.stats
        assert stats.last_batch_sizes == (2, 2, 2, 2)
        assert stats.batch_size_max == 2
        assert stats.batch_size_mean == pytest.approx(2.0)
        # a later single-cell dispatch shrinks the last sizes, not max
        scheduler.evaluate(req(pfail=0.005))
        assert scheduler.stats.last_batch_sizes == (1,)
        assert scheduler.stats.batch_size_max == 2

    def test_batch_eval_off_is_bit_identical(self, per_cell):
        requests = self.grid_requests()
        batched = BatchScheduler(ResultStore(":memory:")).evaluate_many(requests)
        per_cell(requests[0].method)
        reference = BatchScheduler(ResultStore(":memory:")).evaluate_many(
            requests
        )
        assert [o.record for o in batched] == [o.record for o in reference]

    def test_background_worker_coalesces_duplicates(self):
        scheduler = BatchScheduler(ResultStore(":memory:"), linger=0.05)
        scheduler.start()
        try:
            futures = [scheduler.submit(req()) for _ in range(3)]
            # identical fingerprints share one future
            assert futures[0] is futures[1] is futures[2]
            outcome = futures[0].result(timeout=60)
            assert not outcome.cached
            assert scheduler.stats.computed_cells == 1
            # a later submit is a store hit, resolved without the linger
            fast = scheduler.submit(req())
            assert fast.done()
            assert fast.result().cached
        finally:
            scheduler.stop()

    def test_submit_requires_running_worker(self):
        scheduler = BatchScheduler(ResultStore(":memory:"))
        with pytest.raises(ServiceError, match="not running"):
            scheduler.submit(req())

    def test_failure_isolated_to_owning_spec(self):
        """A failing request must not lose the results of unrelated
        requests batched with it: the good spec's records are computed
        and stored even though the bad one raises."""
        store = ResultStore(":memory:")
        scheduler = BatchScheduler(store)
        good = req()
        bad = req(family="not-a-family")
        with pytest.raises(ReproError):
            scheduler.evaluate_many([good, bad])
        assert store.peek(good) is not None
        assert scheduler.stats.computed_cells == 1
        # the good record is now a store hit
        outcome = scheduler.evaluate(good)
        assert outcome.cached

    def test_worker_rejects_only_the_failing_request(self):
        """Concurrent requests coalesced into one linger window: the bad
        one's future gets the exception, the good one still resolves."""
        scheduler = BatchScheduler(ResultStore(":memory:"), linger=0.2)
        scheduler.start()
        try:
            good = scheduler.submit(req())
            bad = scheduler.submit(req(family="not-a-family"))
            outcome = good.result(timeout=60)
            assert outcome.record is not None
            with pytest.raises(ReproError):
                bad.result(timeout=60)
        finally:
            scheduler.stop()

    def test_worker_propagates_errors(self, monkeypatch):
        scheduler = BatchScheduler(ResultStore(":memory:"), linger=0.0)
        scheduler.start()
        try:
            monkeypatch.setattr(
                "repro.service.scheduler.run_specs",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            future = scheduler.submit(req(ccr=0.999))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=60)
        finally:
            scheduler.stop()
