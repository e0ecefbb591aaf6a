"""Workflow sources: where a sweep's workflow instances come from.

The paper's evaluation is confined to the synthetic PWG families, but
the harness round-trips Pegasus DAX v3 documents — the format real
production workflows ship in — and a sweep should be able to price one
of those just like a generated instance.  This module makes the origin
of a workflow a first-class object:

* :class:`FamilySource` — today's ``(family, ntasks, seed)`` generation
  through :func:`repro.generators.generate`; semantics (and cache keys,
  hence records) are bit-identical to the pre-source engine;
* :class:`FileSource` — a fixed external workflow loaded from a
  ``.dax``/``.xml`` (Pegasus DAX v3) or ``.json`` (native schema) file,
  identified by a **canonical content hash** of its tasks, weights,
  files and edges.  Two files with the same content — whatever their
  path, element order or workflow name — share one hash, so the
  engine's :class:`~repro.engine.pipeline.ArtifactCache` and the
  service's request fingerprints stay bit-safe;
* :class:`SourceRegistry` — a small thread-safe hash → source map the
  evaluation service loads file sources into (``POST /register``), so
  HTTP requests can name a workflow by content hash alone.

A :class:`~repro.engine.sweep.SweepSpec` carries an optional source
(:meth:`SweepSpec.from_source <repro.engine.sweep.SweepSpec.from_source>`),
and :class:`~repro.service.fingerprint.EvalRequest` gains a ``workflow``
field holding the content hash; everything below the source — schedule
seeding, checkpoint planning, batched evaluation — is source-agnostic.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SerializationError, ServiceError, WorkflowError
from repro.mspg.graph import Workflow

__all__ = [
    "WorkflowSource",
    "FamilySource",
    "FileSource",
    "SourceRegistry",
    "workflow_hash",
    "file_family",
    "load_source",
    "SOURCE_SUFFIXES",
]

#: Recognised workflow-file suffixes and the format each selects.
SOURCE_SUFFIXES = {
    ".dax": "dax",
    ".xml": "dax",
    ".json": "json",
}


def workflow_hash(workflow: Workflow) -> str:
    """Canonical SHA-256 content hash (hex) of a workflow.

    Covers exactly what evaluation depends on: tasks (id, weight),
    files (name, size, producer, consumers) and control edges — all
    sorted, floats in exact ``repr`` — and deliberately *not* the
    workflow's display name, task categories (reporting labels the
    algorithms ignore, and DAX serialisation rewrites empty ones) or
    the element order of the file it came from, so re-serialised or
    re-ordered copies of the same workflow share one hash.
    """
    payload = {
        "tasks": sorted((t.id, repr(t.weight)) for t in workflow.tasks()),
        "files": sorted(
            (
                name,
                repr(workflow.file_size(name)),
                workflow.producer(name) or "",
                tuple(sorted(workflow.consumers(name))),
            )
            for name in workflow.file_names
        ),
        "control_edges": sorted(workflow.control_edges()),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def file_family(content_hash: str) -> str:
    """The ``family`` string a file source occupies in specs/records.

    Content-derived (``file:<hash12>``), so file-sourced records are
    self-describing and the stable seed derivation — which hashes the
    family string — is deterministic for a given workflow content.
    """
    return f"file:{content_hash[:12]}"


class WorkflowSource:
    """Where a sweep's workflow instances come from.

    Implementations provide:

    * :meth:`resolve` — materialise the workflow for one grid group;
    * :meth:`cache_key` — the :class:`~repro.engine.pipeline.ArtifactCache`
      key tail covering exactly what the result depends on;
    * :attr:`spec_family` — the ``family`` string specs and records carry.
    """

    def resolve(self, ntasks: int, seed: int) -> Workflow:
        raise NotImplementedError

    def cache_key(self, ntasks: int, seed: int) -> Tuple:
        raise NotImplementedError

    @property
    def spec_family(self) -> str:
        raise NotImplementedError


class FamilySource(WorkflowSource):
    """Synthetic generation through the :data:`~repro.generators.FAMILIES`
    registry — the engine's historical behaviour, cache keys included."""

    def __init__(self, family: str) -> None:
        self.family = str(family)

    def resolve(self, ntasks: int, seed: int) -> Workflow:
        from repro.generators import generate

        return generate(self.family, ntasks, seed)

    def cache_key(self, ntasks: int, seed: int) -> Tuple:
        # Identical to the pre-source Pipeline.prepare key, so family
        # sweeps hit the same cache entries (and records) as before.
        return (self.family, ntasks, seed)

    @property
    def spec_family(self) -> str:
        return self.family

    def __repr__(self) -> str:
        return f"FamilySource({self.family!r})"


class FileSource(WorkflowSource):
    """A fixed external workflow, identified by its content hash.

    ``ntasks``/``seed`` are ignored by :meth:`resolve` (the instance is
    the file's content, not a draw), and the cache key is the hash alone
    — every spec over the same content shares one cached workflow,
    M-SPG tree and (per processor count) schedule.
    """

    def __init__(self, workflow: Workflow, label: Optional[str] = None) -> None:
        if workflow.n_tasks < 1:
            raise WorkflowError("a file source needs a non-empty workflow")
        if not workflow.total_weight > 0:
            # λ = −ln(1−pfail)/w̄ needs a positive mean task weight, so
            # no cell of such a workflow can be priced.
            raise WorkflowError(
                "a file source needs a positive total task weight, got "
                f"{workflow.total_weight!r}"
            )
        self.workflow = workflow
        self.content_hash = workflow_hash(workflow)
        self.label = label if label is not None else workflow.name

    @classmethod
    def from_path(cls, path: Union[str, Path]) -> "FileSource":
        """Load a workflow file by suffix (``.dax``/``.xml`` or ``.json``)."""
        return cls(load_workflow_file(path), label=Path(str(path)).name)

    def resolve(self, ntasks: int, seed: int) -> Workflow:
        return self.workflow

    def cache_key(self, ntasks: int, seed: int) -> Tuple:
        return ("file", self.content_hash)

    @property
    def spec_family(self) -> str:
        return file_family(self.content_hash)

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (what ``GET /sources`` lists per entry)."""
        return {
            "workflow": self.content_hash,
            "family": self.spec_family,
            "ntasks": self.workflow.n_tasks,
            "label": self.label,
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FileSource)
            and self.content_hash == other.content_hash
        )

    def __hash__(self) -> int:
        return hash(("FileSource", self.content_hash))

    def __repr__(self) -> str:
        return (
            f"FileSource({self.label!r}, tasks={self.workflow.n_tasks}, "
            f"hash={self.content_hash[:12]})"
        )


def load_workflow_file(path: Union[str, Path]) -> Workflow:
    """Read a workflow from a ``.dax``/``.xml`` or ``.json`` file.

    Unrecognised suffixes raise :class:`SerializationError` naming the
    supported formats (the CLI surfaces this as an exit-2 message).
    """
    from repro.generators.dax import read_dax
    from repro.generators.serialization import load_workflow

    suffix = Path(str(path)).suffix.lower()
    fmt = SOURCE_SUFFIXES.get(suffix)
    if fmt is None:
        supported = ", ".join(sorted(SOURCE_SUFFIXES))
        raise SerializationError(
            f"unsupported workflow file suffix {suffix!r} for {path}; "
            f"supported formats: {supported} "
            "(.dax/.xml = Pegasus DAX v3, .json = native schema)"
        )
    return read_dax(path) if fmt == "dax" else load_workflow(path)


def load_source(path: Union[str, Path]) -> FileSource:
    """:class:`FileSource` for a workflow file (see :func:`load_workflow_file`)."""
    return FileSource.from_path(path)


class SourceRegistry:
    """Thread-safe content-hash → :class:`FileSource` map.

    The evaluation service keeps one: ``POST /register`` loads a source
    in, after which requests can name the workflow by hash alone.
    Registration is idempotent — re-registering the same content is a
    no-op returning the same hash — so clients re-register freely after
    a service restart and previously stored fingerprints keep matching.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, FileSource] = {}
        self._lock = threading.Lock()

    def register(self, source: FileSource) -> str:
        """Add a source; returns its content hash (idempotent)."""
        if not isinstance(source, FileSource):
            raise ServiceError(
                f"only file sources can be registered, got "
                f"{type(source).__name__}"
            )
        with self._lock:
            self._sources.setdefault(source.content_hash, source)
        return source.content_hash

    def get(self, content_hash: str) -> Optional[FileSource]:
        with self._lock:
            return self._sources.get(content_hash)

    def require(self, content_hash: str) -> FileSource:
        """The registered source for a hash, or a :class:`ServiceError`
        naming what *is* registered."""
        source = self.get(content_hash)
        if source is None:
            known = [h[:12] for h in self.hashes()] or ["<none>"]
            raise ServiceError(
                f"unknown workflow source {content_hash[:12]!r}; "
                f"registered sources: {', '.join(known)} "
                "(register the workflow first — POST /register, or "
                "'repro submit --dax FILE' does it for you)"
            )
        return source

    def hashes(self) -> List[str]:
        with self._lock:
            return sorted(self._sources)

    def describe(self) -> List[Dict[str, object]]:
        """JSON-ready listing of every registered source."""
        with self._lock:
            sources = list(self._sources.values())
        return sorted(
            (s.describe() for s in sources),
            key=lambda d: str(d["workflow"]),
        )

    def __contains__(self, content_hash: object) -> bool:
        with self._lock:
            return content_hash in self._sources

    def __len__(self) -> int:
        with self._lock:
            return len(self._sources)
