"""Tests for the workflow-source layer (repro.workloads) and its
threading through the engine, the service and the store."""

import json
import sqlite3

import pytest

from repro.engine.pipeline import Pipeline
from repro.engine.sweep import SweepSpec, run_sweep
from repro.errors import (
    ExperimentError,
    SerializationError,
    ServiceError,
    WorkflowError,
)
from repro.generators import generate, write_dax
from repro.generators.serialization import save_workflow, workflow_to_json
from repro.mspg.graph import Workflow
from repro.service.fingerprint import (
    EvalRequest,
    fingerprint,
    request_from_dict,
    request_to_dict,
    request_to_spec,
    requests_from_spec,
)
from repro.service.scheduler import BatchScheduler
from repro.service.server import ReproService, sweep_spec_from_payload
from repro.service.client import ServiceClient
from repro.service.store import SCHEMA_VERSION, ResultStore
from repro.workloads import (
    FamilySource,
    FileSource,
    SourceRegistry,
    file_family,
    load_source,
    workflow_hash,
)
from tests.conftest import add_data_edge


def small_workflow(name="ext", weight=7.0) -> Workflow:
    wf = Workflow(name)
    for t in ("a", "b", "c", "d"):
        wf.add_task(t, weight)
    add_data_edge(wf, "a", "b")
    add_data_edge(wf, "a", "c")
    add_data_edge(wf, "b", "d")
    add_data_edge(wf, "c", "d")
    wf.add_file("in", 1e6, producer=None)
    wf.add_input("a", "in")
    wf.add_file("out", 1e6, producer="d")
    return wf


def source_spec(source, **kw):
    kw.setdefault("processors", (2,))
    kw.setdefault("pfails", (0.01,))
    kw.setdefault("ccrs", (0.01, 0.1))
    return SweepSpec.from_source(source, **kw)


class TestWorkflowHash:
    def test_deterministic_and_name_independent(self):
        a = small_workflow("one")
        b = small_workflow("two")
        assert workflow_hash(a) == workflow_hash(b)

    def test_sensitive_to_weights_files_edges(self):
        base = workflow_hash(small_workflow())
        assert workflow_hash(small_workflow(weight=8.0)) != base
        heavier = small_workflow()
        heavier.add_file("extra", 5.0, producer="d")
        assert workflow_hash(heavier) != base
        edged = small_workflow()
        edged.add_control_edge("b", "c")
        assert workflow_hash(edged) != base

    def test_order_independent(self, tmp_path):
        # The same content serialised through DAX (element order per the
        # writer) hashes like the in-memory construction.
        wf = small_workflow()
        path = tmp_path / "wf.dax"
        write_dax(wf, path)
        assert workflow_hash(wf) == load_source(path).content_hash


class TestFileSource:
    def test_from_dax_and_json_agree(self, tmp_path):
        wf = generate("montage", 20, seed=3)
        write_dax(wf, tmp_path / "wf.dax")
        save_workflow(wf, tmp_path / "wf.json")
        dax = load_source(tmp_path / "wf.dax")
        js = load_source(tmp_path / "wf.json")
        assert dax.content_hash == js.content_hash == workflow_hash(wf)
        assert dax.spec_family == file_family(dax.content_hash)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "wf.yaml"
        path.write_text("tasks: []")
        with pytest.raises(SerializationError, match="supported formats"):
            load_source(path)

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            FileSource(Workflow("empty"))

    def test_zero_total_weight_rejected(self):
        """λ = −ln(1−pfail)/w̄ needs w̄ > 0: a workflow whose tasks all
        weigh 0 is refused where it becomes a source."""
        with pytest.raises(WorkflowError, match="positive total task weight"):
            FileSource(small_workflow(weight=0.0))

    def test_family_source_cache_key_matches_prepare(self):
        # FamilySource keys the artifact cache exactly as
        # Pipeline.prepare always has, so family sweeps share entries.
        pipe = Pipeline()
        wf1 = pipe.prepare("montage", 20, 5)
        wf2 = pipe.prepare_source(FamilySource("montage"), 20, 5)
        assert wf1 is wf2

    def test_file_source_cached_by_content(self):
        pipe = Pipeline()
        src = FileSource(small_workflow())
        wf1 = pipe.prepare_source(src, 4, 111)
        # Different seed/size, same content: one cached instance.
        wf2 = pipe.prepare_source(FileSource(small_workflow()), 4, 999)
        assert wf1 is wf2


class TestSourceRegistry:
    def test_register_idempotent(self):
        reg = SourceRegistry()
        src = FileSource(small_workflow())
        h1 = reg.register(src)
        h2 = reg.register(FileSource(small_workflow()))
        assert h1 == h2 and len(reg) == 1
        assert reg.get(h1) is src
        assert reg.require(h1).content_hash == h1

    def test_require_unknown_lists_registered(self):
        reg = SourceRegistry()
        reg.register(FileSource(small_workflow()))
        with pytest.raises(ServiceError, match="registered sources"):
            reg.require("0" * 64)

    def test_only_file_sources(self):
        with pytest.raises(ServiceError):
            SourceRegistry().register(FamilySource("montage"))


class TestSweepSpecSource:
    def test_from_source_shape(self):
        src = FileSource(small_workflow())
        spec = source_spec(src, processors=(2, 3))
        assert spec.family == src.spec_family
        assert spec.sizes == (4,)
        assert spec.processors == {4: (2, 3)}
        assert spec.n_cells == 4

    def test_family_and_sizes_must_match_source(self):
        src = FileSource(small_workflow())
        with pytest.raises(ExperimentError, match="content-derived"):
            SweepSpec(
                family="montage",
                sizes=(4,),
                processors={4: (2,)},
                pfails=(0.01,),
                ccrs=(0.01,),
                source=src,
            )
        with pytest.raises(ExperimentError, match="actual task count"):
            SweepSpec(
                family=src.spec_family,
                sizes=(9,),
                processors={9: (2,)},
                pfails=(0.01,),
                ccrs=(0.01,),
                source=src,
            )

    def test_sweep_identical_across_jobs_and_batch_eval(self, per_cell):
        spec = source_spec(FileSource(small_workflow()), processors=(2, 3))
        reference = run_sweep(spec)
        assert run_sweep(spec, jobs=2) == reference
        assert run_sweep(spec, jobs=3, chunk_cells=1) == reference
        assert [r.family for r in reference] == [spec.family] * 4
        per_cell(spec.method)
        assert run_sweep(spec) == reference

    def test_sweep_amortizes_over_shared_content(self):
        # Two specs over the same content on one pipeline: the workflow
        # is prepared once and mspgify runs once.
        pipe = Pipeline()
        spec_a = source_spec(FileSource(small_workflow()))
        spec_b = source_spec(
            FileSource(small_workflow()), pfails=(0.001,), ccrs=(0.05,)
        )
        run_sweep(spec_a, pipeline=pipe)
        run_sweep(spec_b, pipeline=pipe)
        stats = pipe.cache.stats()
        assert stats["mspgify"].misses == 1
        assert stats["mspgify"].hits >= 1

    def test_monte_carlo_file_source_per_cell(self, per_cell):
        # Monte Carlo records for file sources are identical whether
        # the batch entry point runs or not (per-cell seeds thread
        # through the batch call).
        spec = source_spec(
            FileSource(small_workflow()),
            method="montecarlo",
            evaluator_options={"trials": 200},
        )
        batched = run_sweep(spec)
        per_cell("montecarlo")
        assert batched == run_sweep(spec)


class TestEvalRequestWorkflow:
    def make_request(self, src, **kw):
        kw.setdefault("ntasks", src.workflow.n_tasks)
        kw.setdefault("processors", 2)
        kw.setdefault("pfail", 0.01)
        kw.setdefault("ccr", 0.01)
        return EvalRequest(family="", workflow=src.content_hash, **kw)

    def test_family_derived_from_hash(self):
        src = FileSource(small_workflow())
        r = self.make_request(src)
        assert r.family == file_family(src.content_hash)
        with pytest.raises(ServiceError, match="contradicts"):
            EvalRequest(
                family="montage",
                ntasks=4,
                processors=2,
                pfail=0.01,
                ccr=0.01,
                workflow=src.content_hash,
            )

    def test_bad_hash_rejected(self):
        for bad in ("abc", "Z" * 64, 123):
            with pytest.raises(ServiceError):
                EvalRequest(
                    family="",
                    ntasks=4,
                    processors=2,
                    pfail=0.01,
                    ccr=0.01,
                    workflow=bad,
                )

    def test_family_or_workflow_required(self):
        with pytest.raises(ServiceError, match="either a family"):
            EvalRequest(family="", ntasks=4, processors=2, pfail=0.01, ccr=0.01)

    def test_fingerprint_distinguishes_sources(self):
        src = FileSource(small_workflow())
        file_req = self.make_request(src)
        fam_req = EvalRequest(
            family=file_req.family,
            ntasks=file_req.ntasks,
            processors=2,
            pfail=0.01,
            ccr=0.01,
        )
        assert fingerprint(file_req) != fingerprint(fam_req)

    def test_round_trip_and_family_optional_in_dict(self):
        src = FileSource(small_workflow())
        r = self.make_request(src)
        assert request_from_dict(request_to_dict(r)) == r
        payload = request_to_dict(r)
        del payload["family"]
        assert request_from_dict(payload) == r

    def test_request_to_spec_needs_registry(self):
        src = FileSource(small_workflow())
        r = self.make_request(src)
        with pytest.raises(ServiceError, match="no source registry"):
            request_to_spec(r)
        reg = SourceRegistry()
        with pytest.raises(ServiceError, match="unknown workflow source"):
            request_to_spec(r, reg)
        reg.register(src)
        spec = request_to_spec(r, reg)
        assert spec.source is src and spec.n_cells == 1

    def test_request_to_spec_checks_ntasks(self):
        src = FileSource(small_workflow())
        reg = SourceRegistry()
        reg.register(src)
        r = self.make_request(src, ntasks=9)
        with pytest.raises(ServiceError, match="contradicts workflow source"):
            request_to_spec(r, reg)

    def test_requests_from_spec_carry_hash(self):
        src = FileSource(small_workflow())
        spec = source_spec(src)
        requests = requests_from_spec(spec)
        assert len(requests) == 2
        assert all(r.workflow == src.content_hash for r in requests)


class TestSchedulerSources:
    def test_scheduler_serves_file_requests(self):
        src = FileSource(small_workflow())
        store = ResultStore(":memory:")
        sched = BatchScheduler(store)
        sched.registry.register(src)
        spec = source_spec(src, seed_policy="stable")
        expected = run_sweep(spec)
        requests = requests_from_spec(spec)
        outcomes = sched.evaluate_many(requests)
        assert [o.record for o in outcomes] == expected
        assert not any(o.cached for o in outcomes)
        again = sched.evaluate_many(requests)
        assert all(o.cached for o in again)
        assert [o.record for o in again] == expected

    def test_unknown_hash_fails_only_its_request(self):
        store = ResultStore(":memory:")
        sched = BatchScheduler(store)
        good = EvalRequest(
            family="montage", ntasks=20, processors=2, pfail=0.01, ccr=0.01
        )
        bad = EvalRequest(
            family="",
            ntasks=4,
            processors=2,
            pfail=0.01,
            ccr=0.01,
            workflow="0" * 64,
        )
        with pytest.raises(ServiceError, match="unknown workflow source"):
            sched.evaluate_many([good, bad])
        # A pre-screen failure is not a store hit.
        assert sched.stats.store_hits == 0
        # The good request's record was computed and stored despite the
        # co-batched failure.
        assert sched.evaluate(good).cached
        assert sched.stats.store_hits == 1


class TestStoreMigration:
    @staticmethod
    def v1_fingerprint(request: EvalRequest) -> str:
        """What a PR-3 build would have written for this request."""
        import hashlib

        payload = request_to_dict(request)
        del payload["workflow"]
        del payload["eval_seed_policy"]  # v3 field: absent from v1 payloads
        payload["_v"] = 1
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def test_v1_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "v1.db"
        r = EvalRequest(
            family="montage", ntasks=20, processors=2, pfail=0.01, ccr=0.01
        )
        with ResultStore(path) as store:
            (record,) = run_sweep(request_to_spec(r))
            store.put(r, record)
        # Rewrite the store as a v1 build would have left it: v1
        # fingerprints and request payloads without the workflow field.
        conn = sqlite3.connect(path)
        payload = request_to_dict(r)
        del payload["workflow"]
        del payload["eval_seed_policy"]
        conn.execute(
            "UPDATE results SET fingerprint = ?, request_json = ?",
            (self.v1_fingerprint(r), json.dumps(payload, sort_keys=True)),
        )
        conn.execute(
            "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            # Migration rewrote the row under the v2 fingerprint.
            assert store.get(r) == record
            assert store.get(self.v1_fingerprint(r)) is None
            assert len(store) == 1
        # And the version marker is bumped, so reopening skips it.
        conn = sqlite3.connect(path)
        (version,) = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        conn.close()
        assert int(version) == SCHEMA_VERSION

    def test_migration_drops_stale_antithetic_montecarlo(self, tmp_path):
        # This build fixed antithetic pairing, so a v1 antithetic MC
        # record's defining computation now yields different numbers:
        # the migration must drop it instead of serving it as a stale
        # hit.  Plain MC records migrate untouched.
        path = tmp_path / "v1mc.db"
        anti = EvalRequest(
            family="montage",
            ntasks=20,
            processors=2,
            pfail=0.01,
            ccr=0.01,
            method="montecarlo",
            evaluator_options={"trials": 101, "antithetic": True},
        )
        plain = EvalRequest(
            family="montage",
            ntasks=20,
            processors=2,
            pfail=0.01,
            ccr=0.01,
            method="montecarlo",
            evaluator_options={"trials": 101},
        )
        with ResultStore(path) as store:
            (anti_rec,) = run_sweep(request_to_spec(anti))
            (plain_rec,) = run_sweep(request_to_spec(plain))
            store.put(anti, anti_rec)
            store.put(plain, plain_rec)
        conn = sqlite3.connect(path)
        for r in (anti, plain):
            payload = request_to_dict(r)
            del payload["workflow"]
            del payload["eval_seed_policy"]
            conn.execute(
                "UPDATE results SET fingerprint = ?, request_json = ? "
                "WHERE fingerprint = ?",
                (
                    TestStoreMigration.v1_fingerprint(r),
                    json.dumps(payload, sort_keys=True),
                    fingerprint(r),
                ),
            )
        conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert store.get(anti) is None
            assert store.get(plain) == plain_rec
            assert len(store) == 1

    def test_future_schema_still_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError, match="schema version"):
            ResultStore(path)


class TestStoreBackfillSources:
    def test_backfill_file_records(self, tmp_path):
        src = FileSource(small_workflow())
        spec = source_spec(src, seed_policy="stable")
        records = run_sweep(spec)
        store = ResultStore(":memory:")
        added = store.backfill(
            records,
            seed=spec.seed,
            seed_policy="stable",
            workflow=src.content_hash,
        )
        assert added == len(records)
        for req, record in zip(requests_from_spec(spec), records):
            assert store.get(req) == record

    def test_backfill_wrong_hash_refused(self):
        src = FileSource(small_workflow())
        other = FileSource(small_workflow(weight=9.0))
        records = run_sweep(source_spec(src, seed_policy="stable"))
        store = ResultStore(":memory:")
        with pytest.raises(ServiceError, match="contradicts"):
            store.backfill(
                records,
                seed=2017,
                seed_policy="stable",
                workflow=other.content_hash,
            )


class TestServiceSources:
    def test_register_sweep_evaluate_end_to_end(self):
        wf = small_workflow()
        src = FileSource(wf)
        spec = source_spec(src, seed_policy="stable")
        expected = run_sweep(spec)
        with ReproService(port=0, linger=0.01) as svc:
            client = ServiceClient(svc.url)
            h = client.register(wf, label="small.dax")
            assert h == src.content_hash
            # Idempotent re-registration.
            assert client.register(wf) == h
            (listed,) = client.sources()
            assert listed["workflow"] == h
            assert listed["ntasks"] == 4
            reply = client.sweep(spec)
            assert reply.records == expected
            assert reply.computed == len(expected)
            again = client.sweep(spec)
            assert again.cached == len(expected)
            assert again.records == expected
            single = client.evaluate(
                workflow=h,
                ntasks=4,
                processors=2,
                pfail=0.01,
                ccr=0.01,
            )
            assert single.cached and single.record == expected[0]
            assert client.status()["sources"] == 1

    def test_sweep_payload_with_workflow_hash(self):
        src = FileSource(small_workflow())
        reg = SourceRegistry()
        reg.register(src)
        spec = sweep_spec_from_payload(
            {
                "workflow": src.content_hash,
                "processors": [2, 3],
                "pfails": [0.01],
                "ccrs": [0.01, 0.1],
            },
            reg,
        )
        assert spec.source is src
        assert spec.sizes == (4,)
        assert spec.processors == {4: (2, 3)}

    def test_sweep_payload_unknown_hash(self):
        with pytest.raises(ServiceError, match="unknown workflow source"):
            sweep_spec_from_payload(
                {
                    "workflow": "0" * 64,
                    "processors": [2],
                    "pfails": [0.01],
                    "ccrs": [0.01],
                },
                SourceRegistry(),
            )

    def test_register_integer_too_large_for_a_float_is_400(self):
        body = workflow_to_json(small_workflow())
        body["tasks"][0]["weight"] = 10**400
        with ReproService(port=0, linger=0.0) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError, match="too large for a float"):
                client._request("/register", {"workflow": body})

    def test_register_zero_weight_workflow_is_400(self):
        with ReproService(port=0, linger=0.0) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError, match="positive total task weight"):
                client.register(small_workflow(weight=0.0))
            assert len(svc.registry) == 0
            assert svc.store.source_count() == 0

    def test_register_bad_payload_is_400(self):
        with ReproService(port=0, linger=0.01) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError, match="workflow"):
                client._request("/register", {"nope": 1})
            # Bodies of the wrong shape (missing keys, wrong types) are
            # 400s naming the field, not "internal error" or a coercion.
            with pytest.raises(ServiceError, match="'tasks' must be a list"):
                client._request(
                    "/register",
                    {"workflow": {"schema": "repro-workflow-v1"}},
                )
            for task in (
                {"id": "a"},  # no weight
                {"id": "a", "weight": None},
                {"id": "a", "weight": True},
            ):
                with pytest.raises(ServiceError, match="weight must be a number"):
                    client._request(
                        "/register",
                        {
                            "workflow": {
                                "schema": "repro-workflow-v1",
                                "tasks": [task],
                                "files": [],
                            }
                        },
                    )
            body = workflow_to_json(small_workflow())
            consumed_by_b = next(
                f for f in body["files"] if f["consumers"] == ["b"]
            )
            consumed_by_b["consumers"] = "b"  # read as ["b"] once
            with pytest.raises(ServiceError, match="list of strings"):
                client._request("/register", {"workflow": body})
            assert len(svc.registry) == 0

    def test_store_hit_survives_restart_with_reregistration(self, tmp_path):
        wf = small_workflow()
        store_path = tmp_path / "svc.db"
        with ReproService(port=0, store=store_path, linger=0.01) as svc:
            client = ServiceClient(svc.url)
            h = client.register(wf)
            first = client.evaluate(
                workflow=h, ntasks=4, processors=2, pfail=0.01, ccr=0.01
            )
            assert not first.cached
        with ReproService(port=0, store=store_path, linger=0.01) as svc:
            client = ServiceClient(svc.url)
            # The registry is in-memory, but a store hit needs no
            # source at all — and re-registering yields the same hash.
            again = client.evaluate(
                workflow=client.register(wf),
                ntasks=4,
                processors=2,
                pfail=0.01,
                ccr=0.01,
            )
            assert again.cached and again.record == first.record
            assert svc.store.hit_count(fingerprint(EvalRequest(
                family="",
                ntasks=4,
                processors=2,
                pfail=0.01,
                ccr=0.01,
                workflow=h,
            ))) >= 1


class TestExampleDax:
    def test_checked_in_example_sweeps(self, per_cell):
        src = load_source("examples/diamond.dax")
        assert src.workflow.n_tasks == 8
        spec = source_spec(src, processors=(2, 3))
        reference = run_sweep(spec)
        assert run_sweep(spec, jobs=2) == reference
        assert all(r.family == src.spec_family for r in reference)
        per_cell(spec.method)
        assert run_sweep(spec) == reference
