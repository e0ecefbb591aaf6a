#!/usr/bin/env python
"""Quickstart: the remote worker fleet, end to end.

Starts an evaluation service with ``backend="remote"`` — the service
stops computing anything itself and instead queues JSON work units (a
sweep spec and a chunk of its cells: data, never code) that
``repro worker URL`` processes lease over HTTP.  The script starts two
worker loops against the service, submits a sweep (every record must
match the in-process engine bit for bit), re-submits it (the durable
store must answer without the fleet seeing a single unit), then lets a
worker vanish mid-unit and shows the queue requeueing its unit to the
survivor once the lease expires.

This doubles as the CI smoke test: it asserts every claim it prints.

Run:  python examples/worker_fleet_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro.engine import SweepSpec, run_sweep
from repro.engine.backends import RemoteWorkerBackend
from repro.engine.backends.remote import _post_json
from repro.engine.backends.worker import WorkerLoop
from repro.service import ReproService, ServiceClient

SPEC = SweepSpec(
    family="genome",
    sizes=(30,),
    processors={30: (3, 5)},
    pfails=(1e-3,),
    ccrs=(0.01, 0.1),
    seed_policy="stable",
    name="fleet-quickstart",
)


def main() -> None:
    store_path = Path(tempfile.mkdtemp(prefix="repro-fleet-")) / "results.db"
    reference = run_sweep(SPEC, jobs=1)

    with ReproService(
        port=0, store=store_path, linger=0.01, backend="remote"
    ) as service:
        workers = [
            WorkerLoop(service.url, worker_id=f"fleet-w{i}", poll_interval=0.05)
            .start()
            for i in range(2)
        ]
        client = ServiceClient(service.url)
        client.wait_ready()
        print(f"service at {service.url} (backend=remote, 2 workers)")

        reply = client.sweep(SPEC)
        assert reply.records == reference, "fleet records diverge from engine"
        assert reply.computed == len(reference)
        queue_stats = service.work_queue.stats()
        assert queue_stats["completed"] >= 1, "no unit reached the fleet"
        print(f"fleet sweep : {len(reply.records)} cells, bit-identical to "
              f"run_sweep ({queue_stats['completed']} units completed)")

        status = client.status()
        assert status["backend"] == "remote"
        assert set(status["workers"]) == {"fleet-w0", "fleet-w1"}
        print(f"status      : workers={sorted(status['workers'])}")

        completed_before = queue_stats["completed"]
        replay = client.sweep(SPEC)
        assert replay.cached == len(reference), "re-submit must hit the store"
        assert service.work_queue.stats()["completed"] == completed_before, (
            "a store-answered sweep must not enqueue fleet work"
        )
        print("re-submit   : answered by the store, fleet saw nothing")

        for worker in workers:
            worker.stop()

    # Killed-worker requeue, against a standalone coordinator so the
    # lease timing is under this script's control.
    backend = RemoteWorkerBackend(lease_timeout=1.0, worker_grace=60.0)
    survivor = None
    try:
        import threading

        records_box = {}
        done = threading.Event()

        def sweep_thread() -> None:
            records_box["records"] = run_sweep(SPEC, backend=backend)
            done.set()

        threading.Thread(target=sweep_thread, daemon=True).start()

        # A doomed "worker" leases one unit and vanishes mid-unit.
        leased = None
        deadline = time.monotonic() + 30
        while leased is None and time.monotonic() < deadline:
            reply = _post_json(
                backend.coordinator_url + "/work/lease", {"worker": "doomed"}
            )
            leased = reply.get("unit")
            if leased is None:
                time.sleep(0.05)
        assert leased is not None, "no unit was ever enqueued"

        survivor = WorkerLoop(
            backend.coordinator_url, worker_id="survivor", poll_interval=0.05
        ).start()
        assert done.wait(timeout=120), "sweep never finished after the kill"
        assert records_box["records"] == reference, "requeued records diverge"
        assert backend.queue.stats()["requeued"] >= 1, "no lease was requeued"
        print("worker kill : lease expired, unit requeued to the survivor, "
              "records still bit-identical")
    finally:
        if survivor is not None:
            survivor.stop()
        backend.close()

    print("OK")


if __name__ == "__main__":
    main()
