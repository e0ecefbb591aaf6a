"""End-to-end tests for the service HTTP server + client on an
ephemeral port, including store persistence across a restart."""

import http.client
import json
import statistics
import time

import pytest

from repro.engine import SweepSpec, run_sweep
from repro.errors import ExperimentError, ServiceError
from repro.experiments.figures import run_cell
from repro.service import ReproService, ServiceClient

CELL = dict(family="genome", ntasks=30, processors=3, pfail=1e-3, ccr=0.01)


@pytest.fixture()
def service(tmp_path):
    with ReproService(port=0, store=tmp_path / "store.db", linger=0.0) as svc:
        client = ServiceClient(svc.url)
        client.wait_ready()
        yield svc, client


class TestEvaluate:
    def test_repeat_is_store_hit_with_identical_record(self, service):
        svc, client = service
        first = client.evaluate(**CELL)
        assert not first.cached
        second = client.evaluate(**CELL)
        assert second.cached
        assert second.record == first.record
        # the persistent hit counter incremented
        assert svc.store.hit_count(second.fingerprint) >= 1
        # and the warm answer skipped computation entirely
        assert svc.scheduler.stats.computed_cells == 1

    def test_matches_direct_run_cell(self, service):
        _, client = service
        reply = client.evaluate(**CELL, seed=2017)
        expected = run_cell(
            CELL["family"],
            CELL["ntasks"],
            CELL["processors"],
            CELL["pfail"],
            CELL["ccr"],
            seed=2017,
        )
        assert reply.record == expected

    def test_keep_alive_store_hits_answer_promptly(self, service):
        # Headers and body go out in separate writes; without
        # TCP_NODELAY, Nagle holds the body until the client's delayed
        # ACK, about 40 ms per reply on a keep-alive connection.
        svc, client = service
        client.evaluate(**CELL)
        host, port = svc.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        body = json.dumps(CELL)
        times = []
        try:
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/evaluate", body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = json.loads(conn.getresponse().read())
                times.append(time.perf_counter() - t0)
                assert reply["cached"] is True
        finally:
            conn.close()
        assert statistics.median(times) < 0.020

    def test_bad_request_is_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="pfail"):
            client.evaluate(**{**CELL, "pfail": -1.0})
        with pytest.raises(ServiceError, match="unknown request field"):
            client.evaluate(**{**CELL, "bogus": 1})
        # a 400 validation reply, not a 500, for malformed numerics —
        # including the Infinity literal json.loads accepts
        with pytest.raises(ServiceError, match="numeric"):
            client.evaluate(**{**CELL, "seed": "abc"})
        with pytest.raises(ServiceError, match="seed"):
            client.evaluate(**{**CELL, "seed": -1})
        with pytest.raises(ServiceError, match="numeric"):
            client.evaluate(**{**CELL, "ntasks": float("inf")})

    @pytest.mark.parametrize(
        "bad",
        [
            {"sizes": [float("inf")]},
            {"pfails": 5},  # not iterable
            {"pfails": [None]},
            {"bandwidth": "x"},
            {"seed": "abc"},
            {"evaluator_options": [["a"]]},  # not a mapping
        ],
    )
    def test_malformed_payload_is_client_error_not_500(self, service, bad):
        _, client = service
        base = dict(
            family="genome",
            sizes=[30],
            processors=[3],
            pfails=[0.01],
            ccrs=[0.01],
        )
        with pytest.raises(ServiceError) as exc:
            client.sweep(**{**base, **bad})
        assert "internal error" not in str(exc.value)

    def test_unknown_family_is_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError):
            client.evaluate(**{**CELL, "family": "not-a-family"})


def raw_request(svc, method, path, payload=None):
    """(status, JSON body) of one request, bypassing the client."""
    conn = http.client.HTTPConnection(*svc.address, timeout=30)
    try:
        conn.request(
            method, path,
            body=None if payload is None else json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


#: One broken cell rule per case, as a request field and as a sweep
#: field.  Before requests validated as their 1×1 spec, the first three
#: were answered as the true record, 0.0 and 1.0, and the linearizer
#: failed only after dispatch.
BAD_CELLS = {
    "str-bool": ({"save_final_outputs": "false"}, {"save_final_outputs": "false"}),
    "bool-pfail": ({"pfail": False}, {"pfails": [False]}),
    "bool-bandwidth": ({"bandwidth": True}, {"bandwidth": True}),
    "unknown-linearizer": ({"linearizer": "nope"}, {"linearizer": "nope"}),
    "unknown-method": ({"method": "bogus"}, {"method": "bogus"}),
}


class TestOneCellValidator:
    """A request validates as its 1×1 SweepSpec: /evaluate, /sweep and
    SweepSpec itself refuse the same input with the same message, and
    nothing reaches the scheduler."""

    @pytest.mark.parametrize("case", sorted(BAD_CELLS))
    def test_every_entry_point_refuses_with_the_spec_message(
        self, service, case
    ):
        svc, _ = service
        cell_field, sweep_field = BAD_CELLS[case]
        grid = dict(family="genome", sizes=[30], processors=[3],
                    pfails=[1e-3], ccrs=[0.01])
        with pytest.raises(ExperimentError) as spec_exc:
            SweepSpec(**{**grid, "processors": {30: [3]}, **sweep_field})
        message = str(spec_exc.value)
        for path, payload in (
            ("/evaluate", {**CELL, **cell_field}),
            ("/sweep", {**grid, **sweep_field}),
        ):
            status, body = raw_request(svc, "POST", path, payload)
            assert (status, body) == (400, {"error": message}), path
        assert svc.scheduler.stats.submitted == 0
        assert svc.store.stats().entries == 0
        assert raw_request(svc, "GET", "/status")[0] == 200


class TestSweep:
    SPEC = SweepSpec(
        family="genome",
        sizes=(30,),
        processors={30: (3, 5)},
        pfails=(0.01, 0.001),
        ccrs=(1e-3, 1e-2),
        seed=11,
        seed_policy="stable",
    )

    def test_records_in_grid_order_match_run_sweep(self, service):
        _, client = service
        reply = client.sweep(self.SPEC)
        assert reply.records == run_sweep(self.SPEC)
        assert reply.computed == self.SPEC.n_cells
        assert reply.note is None  # stable policy: bit-identity holds

    def test_repeat_sweep_all_cached(self, service):
        _, client = service
        client.sweep(self.SPEC)
        reply = client.sweep(self.SPEC)
        assert reply.cached == self.SPEC.n_cells
        assert reply.computed == 0
        assert reply.records == run_sweep(self.SPEC)

    def test_missing_field_is_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="missing field"):
            client.sweep(family="genome", sizes=[30], pfails=[0.01], ccrs=[0.01])

    def test_multi_group_spawn_sweep_carries_note(self, service):
        """run_sweep derives spawn seeds positionally across (size,
        processors) groups, so a multi-group spawn reply flags that it
        is *not* bit-identical to the monolithic sweep."""
        _, client = service
        reply = client.sweep(
            family="genome",
            sizes=[30],
            processors=[3, 5],
            pfails=[0.001],
            ccrs=[0.01],
            seed=11,
            seed_policy="spawn",
        )
        assert reply.note is not None and "spawn" in reply.note
        # single-group spawn grids keep the bit-identity, hence no note
        single = client.sweep(
            family="genome",
            sizes=[30],
            processors=[3],
            pfails=[0.001],
            ccrs=[0.01],
            seed=11,
            seed_policy="spawn",
        )
        assert single.note is None


class TestStatusAndCache:
    def test_status_counters(self, service):
        _, client = service
        client.evaluate(**CELL)
        client.evaluate(**CELL)
        status = client.status()
        assert status["store"]["entries"] == 1
        assert status["scheduler"]["computed_cells"] == 1
        assert status["scheduler"]["store_hits"] == 1
        assert status["uptime_s"] > 0
        # batched-evaluation visibility: the dispatched batch sizes
        assert status["scheduler"]["batch_size_max"] == 1
        assert status["scheduler"]["last_batch_sizes"] == [1]
        assert status["scheduler"]["batch_size_mean"] == pytest.approx(1.0)

    def test_cache_detail_and_clear(self, service):
        _, client = service
        client.evaluate(**CELL)
        detail = client.cache_stats()
        assert detail["entries"] == 1
        assert detail["schema_version"] >= 1
        assert client.clear_cache() == {"cleared": True}
        assert client.cache_stats()["entries"] == 0
        # cleared: the same request computes again
        assert not client.evaluate(**CELL).cached

    def test_unknown_path_404(self, service):
        svc, _ = service
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(svc.url + "/nope")
        assert exc.value.code == 404


class TestPersistence:
    def test_store_survives_service_restart(self, tmp_path):
        path = tmp_path / "store.db"
        with ReproService(port=0, store=path, linger=0.0) as svc:
            client = ServiceClient(svc.url)
            client.wait_ready()
            first = client.evaluate(**CELL)
            assert not first.cached
        with ReproService(port=0, store=path, linger=0.0) as svc:
            client = ServiceClient(svc.url)
            client.wait_ready()
            replay = client.evaluate(**CELL)
            assert replay.cached
            assert replay.record == first.record
            # no computation happened in the second service's lifetime
            assert svc.scheduler.stats.computed_cells == 0


class TestClientTransport:
    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()


class TestLifecycle:
    def test_close_without_start_does_not_hang(self, tmp_path):
        """shutdown() blocks forever unless a serve loop ran; close() on
        a constructed-but-never-started service must still return (the
        teardown path of a failed startup)."""
        import threading

        svc = ReproService(port=0, store=tmp_path / "store.db")
        t = threading.Thread(target=svc.close, daemon=True)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive()

    def test_close_after_start_is_idempotent(self, tmp_path):
        svc = ReproService(port=0, store=tmp_path / "store.db").start()
        svc.close()
        svc.close()  # second close must not raise or block

    def test_close_bounded_when_interrupted_before_serve_loop(self, tmp_path):
        """An exception delivered between `_serving = True` and the
        serve loop's first iteration (Ctrl-C in the blocking path) must
        not deadlock close() — shutdown() is waited with a timeout."""
        import threading

        svc = ReproService(port=0, store=tmp_path / "store.db")
        svc._serving = True  # simulate the pre-loop interrupt window
        t = threading.Thread(target=svc.close, daemon=True)
        t.start()
        t.join(timeout=30.0)
        assert not t.is_alive()
