"""Durable result store: fingerprint-keyed SQLite with JSONL round trips.

The store is what makes the evaluation service *persistent*: every
computed :class:`~repro.engine.records.CellResult` is written under its
request :func:`~repro.service.fingerprint.fingerprint`, so a repeated
request — in this process or any later one — is served without
recomputation.  The schema is versioned (:data:`SCHEMA_VERSION` in a
``meta`` table; opening a store written by an incompatible version
raises :class:`~repro.errors.ServiceError` instead of silently
misreading rows).

Three interchange paths exist:

* :meth:`ResultStore.export_jsonl` / :meth:`ResultStore.import_jsonl` —
  lossless store dumps (fingerprint + request + record + hit counter per
  line), fingerprints verified on import;
* :meth:`ResultStore.backfill` /  :meth:`ResultStore.backfill_jsonl` —
  ingest *plain sweep records* (e.g. the JSONL written by ``repro sweep
  --out``) given the sweep's non-axis context (root seed, method, ...),
  parsing via :func:`repro.engine.records.records_from_jsonl`.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.records import (
    CellResult,
    record_from_dict,
    record_to_dict,
    records_from_jsonl,
)
from repro.errors import ServiceError
from repro.service.fingerprint import (
    EvalRequest,
    fingerprint,
    request_from_dict,
    request_to_dict,
)

__all__ = ["SCHEMA_VERSION", "StoreStats", "ResultStore"]

#: Bump on any change to the table layout or the stored JSON shapes.
#: v2: requests carry a ``workflow`` content-hash field (external
#: workflow sources).  v3: requests carry an ``eval_seed_policy`` field
#: (content-seeded Monte Carlo), fingerprints are the v3 digests, and a
#: ``sources`` table persists registered external workflow sources next
#: to the results.  v1/v2 stores are migrated in place on open (see
#: :meth:`ResultStore._migrate_v1` / :meth:`ResultStore._migrate_v2`).
SCHEMA_VERSION = 3

#: Flush the in-memory persistent-hit-counter deltas to SQLite once this
#: many accumulate (they also flush on every read of the counters and on
#: close).  Keeps the warm hit path free of per-request disk commits.
HIT_FLUSH_THRESHOLD = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    fingerprint  TEXT PRIMARY KEY,
    request_json TEXT NOT NULL,
    record_json  TEXT NOT NULL,
    created_at   REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS sources (
    content_hash  TEXT PRIMARY KEY,
    workflow_json TEXT NOT NULL,
    label         TEXT,
    created_at    REAL NOT NULL
);
"""


@dataclass(frozen=True)
class StoreStats:
    """Store counters: persistent size/hits plus this-session traffic."""

    entries: int
    hits: int  #: store hits in this session
    misses: int  #: store misses in this session
    total_hits: int  #: hit counter summed over the store's whole life

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Session hit rate in [0, 1] (0.0 when no request was made)."""
        return self.hits / self.requests if self.requests else 0.0


class ResultStore:
    """Fingerprint-keyed durable cell-result store (SQLite).

    ``path`` may be a filesystem path (created on first use) or
    ``":memory:"`` for an ephemeral in-process store.  All operations
    are serialised behind one lock, so a store instance may be shared by
    the scheduler worker and the HTTP handler threads.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        # Persistent hit counters are flushed in batches so the warm
        # read path stays free of synchronous SQLite commits.
        self._pending_hits: Dict[str, int] = {}
        with self._lock:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                self._conn.commit()
            elif int(row[0]) == 1:
                self._migrate_v1()
            elif int(row[0]) == 2:
                self._migrate_v2()
            elif int(row[0]) != SCHEMA_VERSION:
                self._conn.close()
                raise ServiceError(
                    f"store {self.path!r} has schema version {row[0]}, "
                    f"this build reads version {SCHEMA_VERSION}; "
                    "export/backfill it with a matching build"
                )

    def _migrate_v1(self) -> None:
        """Rewrite a v1 store's rows under the current fingerprint schema.

        v1 predates external workflow sources and eval-seed policies, so
        every stored request is family-sourced and positional; rebuilding
        it from its stored field dict yields the same request with
        ``workflow=None`` and ``eval_seed_policy="positional"``, whose
        current fingerprint (the canonical payload grew those keys)
        replaces the old digest.  The mapping is injective — two v1
        rows never collapse — and atomic: any failure rolls the store
        back to its untouched v1 state.

        One record class is dropped rather than carried forward:
        antithetic Monte Carlo cells.  The same build that bumped the
        schema fixed ``sample_makespans(antithetic=True)`` pairing, so
        a v1 antithetic record's defining computation now yields
        different numbers — migrating it would serve stale pre-fix
        estimates as hits forever.  (Plain Monte Carlo and every
        closed-form method are untouched by the fix and migrate as-is.)
        """
        rows = self._conn.execute(
            "SELECT fingerprint, request_json FROM results"
        ).fetchall()
        try:
            for old_fp, request_json in rows:
                request = request_from_dict(json.loads(request_json))
                if request.method == "montecarlo" and dict(
                    request.evaluator_options
                ).get("antithetic"):
                    self._conn.execute(
                        "DELETE FROM results WHERE fingerprint = ?",
                        (old_fp,),
                    )
                    continue
                new_fp = fingerprint(request)
                self._conn.execute(
                    "UPDATE results SET fingerprint = ?, request_json = ? "
                    "WHERE fingerprint = ?",
                    (
                        new_fp,
                        json.dumps(request_to_dict(request), sort_keys=True),
                        old_fp,
                    ),
                )
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            self._conn.close()
            raise

    def _migrate_v2(self) -> None:
        """Rewrite a v2 store's rows under the v3 fingerprint schema.

        v2 predates eval-seed policies, so every stored request was
        computed under the ``"positional"`` derivation; rebuilding it
        from its stored field dict tags it with that policy explicitly,
        and its v3 fingerprint replaces the old digest.  **Every row is
        kept** — including positional Monte Carlo rows, whose records
        stay valid answers to positional-policy requests — but because
        the v3 digest covers the policy, a legacy positional row can
        never be served to a content-policy request.  Injective and
        atomic, like :meth:`_migrate_v1`.
        """
        rows = self._conn.execute(
            "SELECT fingerprint, request_json FROM results"
        ).fetchall()
        try:
            for old_fp, request_json in rows:
                request = request_from_dict(json.loads(request_json))
                self._conn.execute(
                    "UPDATE results SET fingerprint = ?, request_json = ? "
                    "WHERE fingerprint = ?",
                    (
                        fingerprint(request),
                        json.dumps(request_to_dict(request), sort_keys=True),
                        old_fp,
                    ),
                )
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            self._conn.close()
            raise

    # ------------------------------------------------------------------
    # Core keyed access.

    @staticmethod
    def _fingerprint_of(key: Union[str, EvalRequest]) -> str:
        return key if isinstance(key, str) else fingerprint(key)

    def get(
        self, key: Union[str, EvalRequest], count_miss: bool = True
    ) -> Optional[CellResult]:
        """Stored record for a request/fingerprint, or ``None``.

        A hit bumps both the session counter and the row's persistent
        hit counter (the latter is batched — see
        :data:`HIT_FLUSH_THRESHOLD` — so warm reads do not pay a disk
        commit each); a miss bumps the session miss counter unless
        ``count_miss=False`` (used by the scheduler's fast path, whose
        misses are re-looked-up — and counted — at dispatch time).
        """
        fp = self._fingerprint_of(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT record_json FROM results WHERE fingerprint = ?", (fp,)
            ).fetchone()
            if row is None:
                if count_miss:
                    self._misses += 1
                return None
            self._hits += 1
            self._pending_hits[fp] = self._pending_hits.get(fp, 0) + 1
            if sum(self._pending_hits.values()) >= HIT_FLUSH_THRESHOLD:
                self._flush_hits()
        return record_from_dict(json.loads(row[0]))

    def _flush_hits(self) -> None:
        """Write the accumulated hit-counter deltas (lock held)."""
        if not self._pending_hits:
            return
        self._conn.executemany(
            "UPDATE results SET hits = hits + ? WHERE fingerprint = ?",
            [(n, fp) for fp, n in self._pending_hits.items()],
        )
        self._conn.commit()
        self._pending_hits.clear()

    def peek(self, key: Union[str, EvalRequest]) -> Optional[CellResult]:
        """Like :meth:`get` but without touching any counter."""
        fp = self._fingerprint_of(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT record_json FROM results WHERE fingerprint = ?", (fp,)
            ).fetchone()
        return None if row is None else record_from_dict(json.loads(row[0]))

    def put(
        self,
        request: EvalRequest,
        record: CellResult,
        fp: Optional[str] = None,
    ) -> str:
        """Store (upsert) one record under its request fingerprint."""
        fp = fp if fp is not None else fingerprint(request)
        with self._lock:
            self._conn.execute(
                "INSERT INTO results "
                "(fingerprint, request_json, record_json, created_at, hits) "
                "VALUES (?, ?, ?, ?, 0) "
                "ON CONFLICT(fingerprint) DO UPDATE SET "
                "request_json = excluded.request_json, "
                "record_json = excluded.record_json",
                (
                    fp,
                    json.dumps(request_to_dict(request), sort_keys=True),
                    json.dumps(record_to_dict(record), sort_keys=True),
                    time.time(),
                ),
            )
            self._conn.commit()
        return fp

    def hit_count(self, key: Union[str, EvalRequest]) -> int:
        """The persistent hit counter of one entry (0 when absent)."""
        fp = self._fingerprint_of(key)
        with self._lock:
            self._flush_hits()
            row = self._conn.execute(
                "SELECT hits FROM results WHERE fingerprint = ?", (fp,)
            ).fetchone()
        return int(row[0]) if row is not None else 0

    def __contains__(self, key: Union[str, EvalRequest]) -> bool:
        fp = self._fingerprint_of(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fp,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(n)

    def stats(self) -> StoreStats:
        with self._lock:
            self._flush_hits()
            (n,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
            (total,) = self._conn.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
            return StoreStats(
                entries=int(n),
                hits=self._hits,
                misses=self._misses,
                total_hits=int(total),
            )

    def clear(self) -> None:
        """Drop all entries; session counters are reset too."""
        with self._lock:
            self._pending_hits.clear()
            self._conn.execute("DELETE FROM results")
            self._conn.commit()
            self._hits = 0
            self._misses = 0

    def close(self) -> None:
        with self._lock:
            self._flush_hits()
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # JSONL interchange.

    def export_jsonl(self, path: Optional[Union[str, Path]] = None) -> str:
        """Dump the store as JSON Lines (returned; written if ``path``).

        One object per entry: ``{"fingerprint", "request", "record",
        "hits", "created_at"}`` — lossless, re-ingestable with
        :meth:`import_jsonl`.
        """
        with self._lock:
            self._flush_hits()
            rows = self._conn.execute(
                "SELECT fingerprint, request_json, record_json, hits, "
                "created_at FROM results ORDER BY created_at, fingerprint"
            ).fetchall()
        lines = [
            json.dumps(
                {
                    "fingerprint": fp,
                    "request": json.loads(req),
                    "record": json.loads(rec),
                    "hits": hits,
                    "created_at": created,
                },
                sort_keys=True,
            )
            for fp, req, rec, hits, created in rows
        ]
        text = "".join(line + "\n" for line in lines)
        if path is not None:
            Path(path).write_text(text)
        return text

    def import_jsonl(self, source: Union[str, Path]) -> int:
        """Ingest an :meth:`export_jsonl` dump; returns entries added.

        Each line's request must validate, and its fingerprint is
        recomputed from the request and must match (a mismatch means
        the dump was edited or written by an incompatible fingerprint
        schema); either failure is a :class:`~repro.errors.ServiceError`
        naming the line.  Existing entries are left untouched.  The
        import is atomic: on any error the store is rolled back to its
        prior state.
        """
        if isinstance(source, Path):
            text = source.read_text()
        elif source.strip() and not source.lstrip().startswith("{"):
            text = Path(source).read_text()
        else:
            text = source
        added = 0
        with self._lock:
            try:
                for number, line in enumerate(text.splitlines(), start=1):
                    line = line.strip()
                    if not line:
                        continue
                    payload = json.loads(line)
                    try:
                        request = request_from_dict(payload["request"])
                    except ServiceError as exc:
                        raise ServiceError(
                            f"dump line {number}: request refused: {exc}"
                        ) from None
                    fp = fingerprint(request)
                    if fp != payload["fingerprint"]:
                        raise ServiceError(
                            f"fingerprint mismatch on import: line {number} "
                            f"says {payload['fingerprint'][:12]}…, request "
                            f"hashes to {fp[:12]}…"
                        )
                    record = record_from_dict(payload["record"])
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO results "
                        "(fingerprint, request_json, record_json, created_at, "
                        "hits) VALUES (?, ?, ?, ?, ?)",
                        (
                            fp,
                            json.dumps(request_to_dict(request), sort_keys=True),
                            json.dumps(record_to_dict(record), sort_keys=True),
                            float(payload.get("created_at", time.time())),
                            int(payload.get("hits", 0)),
                        ),
                    )
                    added += cur.rowcount
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return added

    # ------------------------------------------------------------------
    # Backfill from plain sweep records.

    def backfill(
        self,
        records: Iterable[CellResult],
        *,
        seed: int,
        seed_policy: str,
        method: str = "pathapprox",
        bandwidth: float = 100e6,
        linearizer: str = "random",
        save_final_outputs: bool = True,
        eval_seed_policy: str = "positional",
        evaluator_options: Tuple[Tuple[str, Any], ...] = (),
        workflow: Optional[str] = None,
    ) -> int:
        """Key plain sweep records by their reconstructed requests.

        A :class:`CellResult` carries its grid axes (family, size,
        processors, pfail, CCR) but not the sweep's root seed or
        evaluation settings — the caller supplies those (they are the
        arguments the sweep was run with).  ``workflow`` is the content
        hash of the external workflow a file-sourced sweep (``repro
        sweep --dax``) ran over; the records' family strings must then
        be the hash-derived ``file:<hash12>`` (checked per record by
        :class:`~repro.service.fingerprint.EvalRequest`), which guards
        against filing one workflow's records under another's hash.  ``seed`` and ``seed_policy``
        are deliberately required: a wrong policy would file the records
        under fingerprints whose defining computation used different
        workflow/schedule seeds, silently serving wrong numbers as hits
        (``repro sweep`` defaults to ``spawn``, ``repro submit`` to
        ``stable``).  Two record classes are refused because their
        correctness under the per-cell 1×1 fingerprint contract cannot
        be established from record data:

        * *positional-policy* grid-sensitive methods (Monte Carlo with
          ``eval_seed_policy="positional"``) — their sampling stream
          depends on the cell's position in the source grid.  Under
          ``eval_seed_policy="content"`` the stream is
          :func:`repro.engine.sweep.cell_eval_seed` of the cell's own
          content — identical in any grid — so content-policy Monte
          Carlo records backfill like every closed-form method, subject
          to the same workflow-seed verification below;
        * all ``seed_policy="spawn"`` records — spawn derives workflow
          *and schedule* seeds from the source grid's positional
          SeedSequence spawns.  A record stores its workflow seed (so a
          wrong size position is detectable) but not its schedule seed,
          so a cell taken from a non-initial processor position of a
          spawn grid is indistinguishable from a contract-conforming
          one while carrying different numbers.  ``"stable"`` seeds are
          position-independent, making stable-policy sweeps the safe —
          and only accepted — backfill source.

        Every accepted record's stored workflow seed is additionally
        verified against :func:`repro.engine.sweep.cell_wf_seed` for the
        claimed ``seed``/``seed_policy``, refusing records computed
        under a different root seed or policy.  Existing entries are
        never overwritten; returns the number of entries added.  Atomic:
        on any error the store is rolled back to its prior state.
        """
        from repro.engine.sweep import EVAL_SEED_POLICIES, SEED_POLICIES
        from repro.service.fingerprint import grid_sensitive

        if eval_seed_policy not in EVAL_SEED_POLICIES:
            raise ServiceError(
                f"unknown eval-seed policy {eval_seed_policy!r}; "
                f"choose from {list(EVAL_SEED_POLICIES)}"
            )
        if grid_sensitive(method, eval_seed_policy):
            raise ServiceError(
                f"cannot backfill positional-policy {method!r} records: "
                "their values depend on the source grid's shape, not "
                "just the cell (the per-cell 1×1 contract does not "
                "hold); sweeps run with eval_seed_policy='content' use "
                "position-independent sampling seeds and can be "
                "backfilled"
            )
        if seed_policy not in SEED_POLICIES:
            raise ServiceError(
                f"unknown seed policy {seed_policy!r}; "
                f"choose from {list(SEED_POLICIES)}"
            )
        if seed_policy == "spawn":
            raise ServiceError(
                "cannot backfill spawn-policy records: spawn derives "
                "workflow/schedule seeds from positional SeedSequence "
                "spawns of the source grid, and records do not carry "
                "their schedule seed, so conformance to the per-cell "
                "1×1 fingerprint contract cannot be verified; re-run "
                "the sweep with seed_policy='stable' (the "
                "position-independent derivation) to backfill it"
            )
        from repro.engine.sweep import cell_wf_seed

        expected_seeds: Dict[Tuple[str, int], int] = {}
        added = 0
        with self._lock:
            try:
                for record in records:
                    cell = (record.family, record.ntasks_requested)
                    if cell not in expected_seeds:
                        expected_seeds[cell] = cell_wf_seed(
                            seed, seed_policy, *cell
                        )
                    if record.seed != expected_seeds[cell]:
                        raise ServiceError(
                            f"record for {record.family} "
                            f"n={record.ntasks_requested} "
                            f"p={record.processors} carries workflow seed "
                            f"{record.seed}, but the per-cell contract "
                            f"derives {expected_seeds[cell]} from root "
                            f"seed {seed} under policy {seed_policy!r}: "
                            "the record was computed with different "
                            "seeds (wrong root seed or policy, or a "
                            "non-initial position of a spawn grid) and "
                            "would be served as a wrong hit"
                        )
                    request = EvalRequest(
                        family=record.family,
                        ntasks=record.ntasks_requested,
                        processors=record.processors,
                        pfail=record.pfail,
                        ccr=record.ccr,
                        seed=seed,
                        method=method,
                        bandwidth=bandwidth,
                        linearizer=linearizer,
                        save_final_outputs=save_final_outputs,
                        seed_policy=seed_policy,
                        eval_seed_policy=eval_seed_policy,
                        evaluator_options=evaluator_options,
                        workflow=workflow,
                    )
                    fp = fingerprint(request)
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO results "
                        "(fingerprint, request_json, record_json, created_at, "
                        "hits) VALUES (?, ?, ?, ?, 0)",
                        (
                            fp,
                            json.dumps(request_to_dict(request), sort_keys=True),
                            json.dumps(record_to_dict(record), sort_keys=True),
                            time.time(),
                        ),
                    )
                    added += cur.rowcount
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return added

    def backfill_jsonl(self, source: Union[str, Path], **context: Any) -> int:
        """:meth:`backfill` from a records JSONL file/text (the format
        written by ``repro sweep --out`` /
        :func:`repro.engine.records.records_to_jsonl`)."""
        return self.backfill(records_from_jsonl(source), **context)

    # ------------------------------------------------------------------
    # Durable external workflow sources.

    def save_source(self, source: Any) -> str:
        """Persist one :class:`~repro.workloads.FileSource` (upsert).

        The row is keyed by the canonical content hash and stores the
        ``repro-workflow-v1`` JSON serialisation, so a service reopening
        the store can rehydrate its
        :class:`~repro.workloads.SourceRegistry` and keep answering
        ``/sweep``-by-hash requests without a re-upload.  Returns the
        content hash.
        """
        from repro.generators.serialization import workflow_to_json
        from repro.workloads import FileSource

        if not isinstance(source, FileSource):
            raise ServiceError(
                f"only file sources can be persisted, got "
                f"{type(source).__name__}"
            )
        with self._lock:
            self._conn.execute(
                "INSERT INTO sources "
                "(content_hash, workflow_json, label, created_at) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(content_hash) DO UPDATE SET "
                "workflow_json = excluded.workflow_json, "
                "label = excluded.label",
                (
                    source.content_hash,
                    json.dumps(
                        workflow_to_json(source.workflow), sort_keys=True
                    ),
                    source.label,
                    time.time(),
                ),
            )
            self._conn.commit()
        return source.content_hash

    def load_sources(self) -> List[Any]:
        """All persisted file sources, oldest first.

        Each row's workflow is deserialised, checked as a
        :class:`~repro.workloads.FileSource` (non-empty, positive total
        weight) and its content hash re-derived on load; a row that
        fails, or whose stored hash no longer matches its content (an
        edited or corrupted store), is refused with a
        :class:`~repro.errors.ServiceError` naming it rather than
        silently served under the wrong address.
        """
        from repro.generators.serialization import workflow_from_json
        from repro.workloads import FileSource

        with self._lock:
            rows = self._conn.execute(
                "SELECT content_hash, workflow_json, label FROM sources "
                "ORDER BY created_at, content_hash"
            ).fetchall()
        sources = []
        for content_hash, workflow_json, label in rows:
            try:
                source = FileSource(
                    workflow_from_json(json.loads(workflow_json)), label=label
                )
            except Exception as exc:  # noqa: BLE001 — map to ServiceError
                raise ServiceError(
                    f"stored workflow source {content_hash[:12]!r} is not "
                    f"a valid source: {exc!r}"
                ) from None
            if source.content_hash != content_hash:
                raise ServiceError(
                    f"stored workflow source {content_hash[:12]!r} hashes "
                    f"to {source.content_hash[:12]!r}: the store row was "
                    "edited or corrupted"
                )
            sources.append(source)
        return sources

    def source_count(self) -> int:
        """Number of persisted workflow sources."""
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM sources"
            ).fetchone()
        return int(n)

    def entries(self) -> List[Tuple[str, EvalRequest, CellResult, int]]:
        """All (fingerprint, request, record, hits) rows — small stores
        only; meant for tests and inspection tooling."""
        with self._lock:
            self._flush_hits()
            rows = self._conn.execute(
                "SELECT fingerprint, request_json, record_json, hits "
                "FROM results ORDER BY created_at, fingerprint"
            ).fetchall()
        return [
            (
                fp,
                request_from_dict(json.loads(req)),
                record_from_dict(json.loads(rec)),
                int(hits),
            )
            for fp, req, rec, hits in rows
        ]
