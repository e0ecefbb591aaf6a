"""Native JSON (de)serialisation of workflows.

A lossless, human-inspectable alternative to DAX for storing generated
instances alongside experiment results.  The schema is a direct dump of
the :class:`~repro.mspg.graph.Workflow` registries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import SerializationError
from repro.mspg.graph import Workflow

__all__ = ["workflow_to_json", "workflow_from_json", "save_workflow", "load_workflow"]

_SCHEMA = "repro-workflow-v1"


def workflow_to_json(workflow: Workflow) -> Dict[str, Any]:
    """Serialise a workflow to a JSON-compatible dict."""
    return {
        "schema": _SCHEMA,
        "name": workflow.name,
        "tasks": [
            {"id": t.id, "weight": t.weight, "category": t.category}
            for t in workflow.tasks()
        ],
        "files": [
            {
                "name": f,
                "size": workflow.file_size(f),
                "producer": workflow.producer(f),
                "consumers": sorted(workflow.consumers(f)),
            }
            for f in workflow.file_names
        ],
        "control_edges": [list(e) for e in workflow.control_edges()],
    }


def _string(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise SerializationError(
            f"{what} must be a string, got {type(value).__name__}"
        )
    return value


def _number(value: Any, what: str) -> float:
    """``value`` as a float; bools, non-numbers and integers too large
    for a float are refused (the range checks stay with the graph)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(
            f"{what} must be a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError:
        raise SerializationError(f"{what} is too large for a float") from None


def _objects(data: Dict[str, Any], key: str) -> List[Dict[str, Any]]:
    entries = data.get(key)
    if not isinstance(entries, list):
        got = type(entries).__name__ if key in data else "nothing"
        raise SerializationError(f"workflow {key!r} must be a list, got {got}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SerializationError(
                f"each of the workflow's {key!r} must be an object, got "
                f"{type(entry).__name__}"
            )
    return entries


def workflow_from_json(data: Any) -> Workflow:
    """Deserialise a workflow from :func:`workflow_to_json` output.

    Every field's JSON type is checked here, where a body enters:
    anything that is not the schema's shape raises
    :class:`~repro.errors.SerializationError`, and the graph's own rules
    (finite non-negative weights, known ids, no cycles) raise
    :class:`~repro.errors.WorkflowError` from the graph.
    """
    if not isinstance(data, dict):
        raise SerializationError(
            f"a workflow must be a JSON object, got {type(data).__name__}"
        )
    if data.get("schema") != _SCHEMA:
        raise SerializationError(
            f"unexpected schema {data.get('schema')!r}; expected {_SCHEMA!r}"
        )
    wf = Workflow(_string(data.get("name", "workflow"), "workflow name"))
    for t in _objects(data, "tasks"):
        task_id = _string(t.get("id"), "task id")
        wf.add_task(
            task_id,
            _number(t.get("weight"), f"task {task_id!r} weight"),
            category=_string(t.get("category", ""), f"task {task_id!r} category"),
        )
    for f in _objects(data, "files"):
        name = _string(f.get("name"), "file name")
        producer = f.get("producer")
        wf.add_file(
            name,
            _number(f.get("size"), f"file {name!r} size"),
            producer=None
            if producer is None
            else _string(producer, f"file {name!r} producer"),
        )
        consumers = f.get("consumers", [])
        if not isinstance(consumers, list) or not all(
            isinstance(c, str) for c in consumers
        ):
            raise SerializationError(
                f"file {name!r} consumers must be a list of strings"
            )
        for consumer in consumers:
            wf.add_input(consumer, name)
    edges = data.get("control_edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise SerializationError(
            "workflow 'control_edges' must be a list of [source, target] pairs"
        )
    for u, v in edges:
        wf.add_control_edge(
            _string(u, "control edge source"), _string(v, "control edge target")
        )
    wf.validate()
    return wf


def save_workflow(workflow: Workflow, path: Union[str, Path]) -> None:
    """Write a workflow to a JSON file."""
    Path(path).write_text(json.dumps(workflow_to_json(workflow), indent=1))


def load_workflow(path: Union[str, Path]) -> Workflow:
    """Read a workflow from a JSON file."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON, depth
        raise SerializationError(f"cannot parse {path}: {exc}") from exc
    return workflow_from_json(data)
