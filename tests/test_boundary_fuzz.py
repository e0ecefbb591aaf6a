"""Boundary fuzz of the request, sweep and workflow parsers.

Each example starts from a valid ``/evaluate`` payload, ``/sweep``
payload or ``repro-workflow-v1`` body and replaces one field with a
value from the edge of the input domain: zero, a negative number,
``1e308``, an integer too large for a float, NaN or ±inf; a bool, a numeric or a non-numeric string; a
list, a dict or ``null``; or a deeply nested value — or adds an unknown
key.  The properties:

* :func:`request_from_dict` and :func:`sweep_spec_from_payload` either
  return an object whose every field has its declared type and lies in
  its domain, or raise a :class:`~repro.errors.ReproError`;
* ``FileSource(workflow_from_json(body))`` either accepts a body whose
  fields have the schema's JSON types (no bool read as a number, no
  string read as a list) and yields finite weights and sizes with a
  positive total weight, or raises a
  :class:`~repro.errors.ReproError`, which ``/register`` answers with a
  400;
* over HTTP, refused draws get a 400 with an ``error`` field from
  ``/evaluate``, ``/sweep`` and ``/register``, never a 500.

The slices are derandomized and bounded so tier-1 stays fast; the HTTP
slice sends only refused draws, so nothing computes.
"""

import copy
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.engine.sweep import EVAL_SEED_POLICIES, SEED_POLICIES
from repro.errors import ReproError, SerializationError
from repro.generators.serialization import workflow_from_json, workflow_to_json
from repro.makespan.api import EVALUATORS
from repro.scheduling.linearize import LINEARIZERS
from repro.service import ReproService, fingerprint, request_from_dict
from repro.service.fingerprint import request_to_dict
from repro.service.server import sweep_spec_from_payload
from repro.util.validation import (
    bandwidth_error,
    ccr_error,
    pfail_error,
    seed_error,
)
from repro.workloads import FileSource, SourceRegistry
from tests.test_service_http import raw_request
from tests.test_workloads import small_workflow

REQUEST = {"family": "genome", "ntasks": 30, "processors": 3, "pfail": 1e-3,
           "ccr": 0.01}
SWEEP = {"family": "genome", "sizes": [30], "processors": [3],
         "pfails": [1e-3], "ccrs": [0.01]}
REQUEST_FIELDS = sorted(request_to_dict(request_from_dict(REQUEST)))
SWEEP_FIELDS = sorted(
    {*SWEEP, "seed", "method", "bandwidth", "linearizer",
     "save_final_outputs", "seed_policy", "eval_seed_policy",
     "evaluator_options", "name", "workflow"}
)
WORKFLOW = workflow_to_json(small_workflow())

DEEP = 0
for _ in range(60):
    DEEP = [DEEP]

#: The edge of the input domain, one field at a time.
EDGE = st.one_of(
    st.sampled_from([
        0, -1, -0.5, 1e308, 10**400, math.nan, math.inf, -math.inf,
        True, False, "3", "0.01", "nope", "", None, [], {}, DEEP,
    ]),
    st.lists(st.one_of(st.integers(-2, 40), st.booleans()), max_size=3),
    st.dictionaries(st.sampled_from(["k", "trials", "1"]),
                    st.one_of(st.integers(-2, 5), st.floats()), max_size=2),
    st.integers(-(2**70), 2**70),
    st.floats(),
)

#: Bodies the reader once coerced or crashed on, one edit each.
REFUSED_WORKFLOWS = {
    "missing-tasks": lambda body: body.pop("tasks"),
    "files-not-a-list": lambda body: body.update(files={}),
    "task-not-an-object": lambda body: body["tasks"].append("e"),
    "missing-weight": lambda body: body["tasks"][0].pop("weight"),
    "missing-size": lambda body: body["files"][0].pop("size"),
    "bool-weight": lambda body: body["tasks"][0].update(weight=True),
    "string-weight": lambda body: body["tasks"][0].update(weight="7"),
    "bool-size": lambda body: body["files"][0].update(size=False),
    "size-too-large": lambda body: body["files"][0].update(size=10**400),
    "string-consumers": lambda body: next(
        f for f in body["files"] if f["consumers"] == ["b"]
    ).update(consumers="b"),
    "control-edges-not-pairs": lambda body: body.update(control_edges=[["a"]]),
}


def _refused_body(name):
    body = copy.deepcopy(WORKFLOW)
    REFUSED_WORKFLOWS[name](body)
    return body


def fuzz(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.filter_too_much,
        ],
    )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_options(options):
    assert isinstance(options, tuple)
    for key, value in options:
        assert isinstance(key, str)
        assert value is None or isinstance(value, (str, int, float, bool))
        assert not isinstance(value, float) or math.isfinite(value)


def _check_cell(method, linearizer, save_final_outputs, seed_policy,
                eval_seed_policy, seed, bandwidth, options):
    assert method in EVALUATORS and linearizer in LINEARIZERS
    assert isinstance(save_final_outputs, bool)
    assert seed_policy in SEED_POLICIES
    assert eval_seed_policy in EVAL_SEED_POLICIES
    assert _is_int(seed) and seed_error(seed) is None
    assert type(bandwidth) is float and bandwidth_error(bandwidth) is None
    _check_options(options)


def _check_request(r):
    assert isinstance(r.family, str) and r.family
    assert r.workflow is None or (
        isinstance(r.workflow, str) and len(r.workflow) == 64
    )
    assert _is_int(r.ntasks) and r.ntasks >= 1
    assert _is_int(r.processors) and r.processors >= 1
    assert type(r.pfail) is float and pfail_error(r.pfail) is None
    assert type(r.ccr) is float and ccr_error(r.ccr) is None
    _check_cell(r.method, r.linearizer, r.save_final_outputs, r.seed_policy,
                r.eval_seed_policy, r.seed, r.bandwidth, r.evaluator_options)


def _check_spec(spec):
    assert isinstance(spec.family, str) and isinstance(spec.name, str)
    assert spec.sizes and all(_is_int(n) and n >= 1 for n in spec.sizes)
    for n in spec.sizes:
        counts = spec.processors[n]
        assert counts and all(_is_int(p) and p >= 1 for p in counts)
    assert all(type(p) is float and pfail_error(p) is None
               for p in spec.pfails)
    assert all(type(c) is float and ccr_error(c) is None for c in spec.ccrs)
    _check_cell(spec.method, spec.linearizer, spec.save_final_outputs,
                spec.seed_policy, spec.eval_seed_policy, spec.seed,
                spec.bandwidth, spec.evaluator_options)


def _parse_request(payload):
    """The request, or ``None`` when refused with a ReproError."""
    try:
        return request_from_dict(payload)
    except ReproError:
        return None


def _parse_sweep(payload):
    try:
        return sweep_spec_from_payload(payload, SourceRegistry())
    except ReproError:
        return None


def _edit_workflow(data, where, value):
    """The workflow body with one field replaced (``data`` draws which
    task or file when the field is per element)."""
    body = copy.deepcopy(WORKFLOW)
    kind, key = where
    if kind == "top":
        body[key] = value
    else:
        items = body[kind]
        items[data.draw(st.integers(0, len(items) - 1))][key] = value
    return body


def _load_workflow(body):
    """The source, or ``None`` when refused as /register refuses it."""
    try:
        return FileSource(workflow_from_json(body))
    except ReproError:
        return None


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_body_types(body):
    """An accepted body has the schema's JSON types throughout."""
    assert isinstance(body["tasks"], list) and isinstance(body["files"], list)
    for task in body["tasks"]:
        assert isinstance(task["id"], str) and _is_number(task["weight"])
    for f in body["files"]:
        assert isinstance(f["name"], str) and _is_number(f["size"])
        assert f.get("producer") is None or isinstance(f["producer"], str)
        consumers = f.get("consumers", [])
        assert isinstance(consumers, list)
        assert all(isinstance(c, str) for c in consumers)
    for edge in body.get("control_edges", []):
        assert len(edge) == 2 and all(isinstance(t, str) for t in edge)


WORKFLOW_FIELDS = [
    ("tasks", "weight"), ("tasks", "id"), ("files", "size"),
    ("files", "name"), ("files", "producer"), ("files", "consumers"),
    ("top", "tasks"), ("top", "files"), ("top", "control_edges"),
    ("top", "schema"), ("top", "unknown"),
]


class TestParsers:
    @fuzz(400)
    @given(field=st.sampled_from(REQUEST_FIELDS + ["unknown"]), value=EDGE)
    def test_request_is_in_domain_or_refused(self, field, value):
        request = _parse_request({**REQUEST, field: value})
        if request is None:
            return
        assert field != "unknown"
        _check_request(request)
        assert request_from_dict(request_to_dict(request)) == request
        assert len(fingerprint(request)) == 64

    @fuzz(400)
    @given(field=st.sampled_from(SWEEP_FIELDS + ["unknown"]), value=EDGE)
    def test_sweep_is_in_domain_or_refused(self, field, value):
        spec = _parse_sweep({**SWEEP, field: value})
        if spec is None:
            return
        assert field != "unknown"
        _check_spec(spec)

    @fuzz(300)
    @given(data=st.data(), where=st.sampled_from(WORKFLOW_FIELDS), value=EDGE)
    def test_workflow_is_in_domain_or_refused(self, data, where, value):
        body = _edit_workflow(data, where, value)
        source = _load_workflow(body)
        if source is None:
            return
        _check_body_types(body)
        wf = source.workflow
        assert all(math.isfinite(t.weight) and t.weight >= 0
                   for t in wf.tasks())
        assert all(math.isfinite(wf.file_size(f)) and wf.file_size(f) >= 0
                   for f in wf.file_names)
        assert wf.total_weight > 0

    @pytest.mark.parametrize("name", sorted(REFUSED_WORKFLOWS))
    def test_refused_workflow_bodies(self, name):
        with pytest.raises(SerializationError):
            workflow_from_json(_refused_body(name))


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = tmp_path_factory.mktemp("fuzz") / "store.db"
    with ReproService(port=0, store=store, linger=0.0) as svc:
        yield svc


class TestHttpBoundary:
    """Refused draws only: each must be a 400 with an error, not a 500."""

    @fuzz(8)
    @given(field=st.sampled_from(REQUEST_FIELDS + ["unknown"]), value=EDGE)
    def test_evaluate(self, service, field, value):
        payload = {**REQUEST, field: value}
        assume(_parse_request(payload) is None)
        status, body = raw_request(service, "POST", "/evaluate", payload)
        assert status == 400 and body["error"]

    @fuzz(6)
    @given(field=st.sampled_from(SWEEP_FIELDS + ["unknown"]), value=EDGE)
    def test_sweep(self, service, field, value):
        payload = {**SWEEP, field: value}
        assume(_parse_sweep(payload) is None)
        status, body = raw_request(service, "POST", "/sweep", payload)
        assert status == 400 and body["error"]

    @fuzz(6)
    @given(data=st.data(), where=st.sampled_from(WORKFLOW_FIELDS), value=EDGE)
    def test_register(self, service, data, where, value):
        body = _edit_workflow(data, where, value)
        assume(_load_workflow(body) is None)
        status, reply = raw_request(
            service, "POST", "/register", {"workflow": body}
        )
        assert status == 400 and reply["error"]

    @pytest.mark.parametrize("name", sorted(REFUSED_WORKFLOWS))
    def test_register_refused_workflow_bodies(self, service, name):
        status, reply = raw_request(
            service, "POST", "/register", {"workflow": _refused_body(name)}
        )
        assert status == 400 and reply["error"]

    def test_service_untouched(self, service):
        assert service.scheduler.stats.submitted == 0
        assert len(service.registry) == 0
        assert raw_request(service, "GET", "/status")[0] == 200
