"""Canonical request fingerprinting for the evaluation service.

An :class:`EvalRequest` names one experiment cell — the workflow
(either a (family, size, seed) generation triple or the content hash of
a registered external workflow file), the platform (processors, pfail,
bandwidth), the CCR target, and the evaluation method with its options.
Its :func:`fingerprint` is a SHA-256 digest of the canonical JSON
payload, used as the durable-store key and the request-coalescing
identity: two requests with the same fingerprint are the same
computation.

**The execution contract.**  A request is *defined* to produce the
record of the 1×1 grid sweep containing only its cell::

    run_sweep(request_to_spec(request))[0]

Under the default ``"stable"`` seed policy that is bit-identical to
:func:`repro.experiments.figures.run_cell` (and hence to
:func:`repro.api.run_strategies` with the derived workflow/schedule
seeds) for every closed-form method.  The contract is what makes
coalescing safe: cell results of closed-form methods do not depend on
which batch computed them.  Monte Carlo obeys the contract too when the
request's ``eval_seed_policy`` is ``"content"`` — its sampling seed is
then :func:`repro.engine.sweep.cell_eval_seed` of the cell's own
content, identical in any grid — and such requests coalesce like any
other method.  Under the legacy ``"positional"`` policy the sampling
stream is derived from the cell's position in its grid, so the
scheduler falls back to per-cell 1×1 dispatch for those requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.engine.records import CellResult
from repro.engine.sweep import SweepSpec
from repro.errors import ExperimentError, ServiceError
from repro.workloads import FileSource, SourceRegistry, file_family

__all__ = [
    "EvalRequest",
    "GRID_SENSITIVE_METHODS",
    "grid_sensitive",
    "fingerprint",
    "request_to_dict",
    "request_from_dict",
    "request_to_spec",
    "requests_from_spec",
    "request_for_record",
]

#: Stochastic methods whose *positional* sampling seeds are derived per
#: grid index.  Grid sensitivity is policy-conditional: under the
#: ``"content"`` eval-seed policy these methods derive their seeds from
#: cell content (see :func:`repro.engine.sweep.cell_eval_seed`) and are
#: coalesced, stored and backfilled like every closed-form method; only
#: under the legacy ``"positional"`` policy does the scheduler keep
#: dispatching them as per-cell 1×1 specs (see :func:`grid_sensitive`).
GRID_SENSITIVE_METHODS = frozenset({"montecarlo"})


def grid_sensitive(method: str, eval_seed_policy: str) -> bool:
    """Whether a cell's result depends on the shape of the batch grid.

    True only for :data:`GRID_SENSITIVE_METHODS` under the
    ``"positional"`` eval-seed policy; the ``"content"`` policy makes
    their sampling seeds position-independent.
    """
    return method in GRID_SENSITIVE_METHODS and eval_seed_policy != "content"


#: Fingerprint schema tag — bump when the canonical payload changes shape
#: so old digests can never alias new ones.  v2 added the ``workflow``
#: field (external workflow sources addressed by content hash); v3 added
#: ``eval_seed_policy`` (content-seeded Monte Carlo) — positional-policy
#: rows from older stores are rewritten under v3 digests carrying their
#: legacy policy explicitly, so they can never answer a content-policy
#: request.  Opening a v1/v2 store migrates its rows (see
#: :mod:`repro.service.store`).
FINGERPRINT_VERSION = 3

#: Shape of a workflow content hash (see :func:`repro.workloads.workflow_hash`).
_HASH_HEX_LEN = 64
_HASH_CHARS = frozenset("0123456789abcdef")


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation-service request (= one experiment cell).

    ``seed`` is the *root* experiment seed; the workflow and schedule
    seeds are derived from it per ``seed_policy``, exactly as
    :class:`~repro.engine.sweep.SweepSpec` does.  ``evaluator_options``
    accepts a mapping and is canonicalised to a sorted tuple of pairs.

    Validation: a request checks only its own rules (the shape of a
    ``workflow`` hash, its agreement with ``family``, and that one of
    the two is given).  Every other field is a cell field, checked by
    building the request's 1×1 :class:`~repro.engine.sweep.SweepSpec`:
    its :class:`~repro.errors.ExperimentError` comes back as a
    :class:`~repro.errors.ServiceError` with the same message, and the
    request keeps the spec's normalised values, so an accepted request
    fingerprints exactly as before.

    ``workflow`` names an external workflow by canonical content hash
    (:func:`repro.workloads.workflow_hash`) instead of generating a
    ``family`` instance; the family string is then content-derived
    (``file:<hash12>``, filled in automatically) and ``ntasks`` must be
    the file's actual task count (checked against the registered source
    at dispatch time).
    """

    family: str
    ntasks: int
    processors: int
    pfail: float
    ccr: float
    seed: int = 2017
    method: str = "pathapprox"
    bandwidth: float = 100e6
    linearizer: str = "random"
    save_final_outputs: bool = True
    seed_policy: str = "stable"
    #: Evaluation-seed derivation (see
    #: :data:`repro.engine.sweep.EVAL_SEED_POLICIES`): ``"positional"``
    #: (legacy grid-position seeds; grid-sensitive methods are then
    #: dispatched per cell) or ``"content"`` (position-independent
    #: :func:`~repro.engine.sweep.cell_eval_seed` streams; every method
    #: coalesces and stores alike).
    eval_seed_policy: str = "positional"
    evaluator_options: Tuple[Tuple[str, Any], ...] = ()
    #: Content hash of an external workflow (``None`` = family-sourced).
    workflow: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workflow is not None:
            if (
                not isinstance(self.workflow, str)
                or len(self.workflow) != _HASH_HEX_LEN
                or not set(self.workflow) <= _HASH_CHARS
            ):
                raise ServiceError(
                    f"workflow must be a {_HASH_HEX_LEN}-char lowercase hex "
                    f"content hash (see repro.workloads.workflow_hash), "
                    f"got {self.workflow!r}"
                )
            derived = file_family(self.workflow)
            if self.family not in ("", derived):
                raise ServiceError(
                    f"family {self.family!r} contradicts the workflow "
                    f"content hash (its family string is {derived!r}); "
                    "omit family for file-sourced requests"
                )
            object.__setattr__(self, "family", derived)
        elif not self.family:
            raise ServiceError(
                "a request needs either a family or a workflow content hash"
            )
        # Every other rule is the cell's, checked once by SweepSpec: the
        # request is valid iff its 1×1 spec is, and takes the spec's
        # normalised values.  (No source: the hash is resolved at
        # dispatch, against the service's registry.)
        try:
            spec = _cell_spec(self)
        except ExperimentError as exc:
            raise ServiceError(str(exc)) from None
        (ntasks,) = spec.sizes
        for name, value in (
            ("ntasks", ntasks),
            ("processors", spec.processors[ntasks][0]),
            ("pfail", spec.pfails[0]),
            ("ccr", spec.ccrs[0]),
            ("seed", spec.seed),
            ("bandwidth", spec.bandwidth),
            ("evaluator_options", spec.evaluator_options),
        ):
            object.__setattr__(self, name, value)

    @property
    def coalesce_key(self) -> Tuple[Any, ...]:
        """Everything but the (pfail, CCR) axes — requests sharing this
        key share a workflow instance and a schedule, so the scheduler
        batches them into common :class:`SweepSpec` grids."""
        return (
            self.family,
            self.workflow,
            self.ntasks,
            self.processors,
            self.seed,
            self.method,
            self.bandwidth,
            self.linearizer,
            self.save_final_outputs,
            self.seed_policy,
            self.eval_seed_policy,
            self.evaluator_options,
        )

    @property
    def grid_sensitive(self) -> bool:
        """Whether the result depends on the batch grid shape.  Only
        positional-policy sampling methods qualify (their seeds are
        derived per grid index); such requests are always dispatched as
        per-cell 1×1 grids.  Content-policy requests never are."""
        return grid_sensitive(self.method, self.eval_seed_policy)


def request_to_dict(request: EvalRequest) -> Dict[str, Any]:
    """JSON-ready field dict (evaluator options as a plain mapping)."""
    out: Dict[str, Any] = {
        f.name: getattr(request, f.name) for f in fields(EvalRequest)
    }
    out["evaluator_options"] = dict(request.evaluator_options)
    return out


def request_from_dict(payload: Mapping[str, Any]) -> EvalRequest:
    """Rebuild a request from a field mapping; unknown keys are an error
    (a mistyped field silently defaulting would corrupt fingerprints).

    ``family`` may be omitted when a ``workflow`` content hash is given
    (it is content-derived in that case, see :class:`EvalRequest`).
    """
    names = {f.name for f in fields(EvalRequest)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ServiceError(
            f"unknown request field(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {sorted(names)}"
        )
    payload = dict(payload)
    if payload.get("workflow") is not None:
        payload.setdefault("family", "")
    try:
        return EvalRequest(**payload)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"bad request payload: {exc}") from None


def fingerprint(request: EvalRequest) -> str:
    """Canonical SHA-256 fingerprint (hex) of one request.

    The digest covers every field through the canonical JSON payload
    (sorted keys, exact float repr), prefixed with the fingerprint
    schema version.
    """
    payload = request_to_dict(request)
    payload["_v"] = FINGERPRINT_VERSION
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def request_to_spec(
    request: EvalRequest, registry: Optional[SourceRegistry] = None
) -> SweepSpec:
    """The request's defining 1×1 grid (see the module docstring).

    Requests naming an external workflow by content hash need a
    ``registry`` holding the source; an unknown hash (or a ``ntasks``
    that contradicts the file's task count) raises
    :class:`~repro.errors.ServiceError`.
    """
    source = None
    if request.workflow is not None:
        if registry is None:
            raise ServiceError(
                f"request names workflow source "
                f"{request.workflow[:12]!r} but no source registry is "
                "available"
            )
        source = registry.require(request.workflow)
        if request.ntasks != source.workflow.n_tasks:
            raise ServiceError(
                f"request ntasks={request.ntasks} contradicts workflow "
                f"source {request.workflow[:12]!r} "
                f"({source.workflow.n_tasks} tasks)"
            )
    return _cell_spec(request, source)


def _cell_spec(
    request: EvalRequest, source: Optional[FileSource] = None
) -> SweepSpec:
    """The :class:`SweepSpec` whose grid is exactly the request's cell.

    :class:`EvalRequest` validates by building it from its raw fields,
    so the processor map goes in as (size, counts) pairs, which the
    spec checks even when the size is unhashable.
    """
    return SweepSpec(
        family=request.family,
        sizes=(request.ntasks,),
        processors=((request.ntasks, (request.processors,)),),
        pfails=(request.pfail,),
        ccrs=(request.ccr,),
        seed=request.seed,
        method=request.method,
        bandwidth=request.bandwidth,
        linearizer=request.linearizer,
        save_final_outputs=request.save_final_outputs,
        seed_policy=request.seed_policy,
        eval_seed_policy=request.eval_seed_policy,
        evaluator_options=request.evaluator_options,
        source=source,
        name=f"cell[{request.family}]",
    )


def requests_from_spec(spec: SweepSpec) -> List[EvalRequest]:
    """Expand a sweep grid into per-cell requests, in grid order.

    The inverse view of coalescing: the service's ``/sweep`` endpoint
    and the store's sweep backfill both reduce a grid to its cells so
    every cell is individually addressable by fingerprint.
    """
    return [
        EvalRequest(
            family=spec.family,
            ntasks=ntasks,
            processors=p,
            pfail=pfail,
            ccr=ccr,
            seed=spec.seed,
            method=spec.method,
            bandwidth=spec.bandwidth,
            linearizer=spec.linearizer,
            save_final_outputs=spec.save_final_outputs,
            seed_policy=spec.seed_policy,
            eval_seed_policy=spec.eval_seed_policy,
            evaluator_options=spec.evaluator_options,
            workflow=(
                spec.source.content_hash if spec.source is not None else None
            ),
        )
        for ntasks in spec.sizes
        for p in spec.processors[ntasks]
        for pfail in spec.pfails
        for ccr in spec.ccrs
    ]


def request_for_record(
    template: EvalRequest, record: CellResult
) -> EvalRequest:
    """The request whose cell a sweep ``record`` answers, given a
    ``template`` carrying the sweep's non-axis fields (seed, method, ...).

    Used by the store's backfill to key historical sweep records.
    """
    return replace(
        template,
        family=record.family,
        ntasks=record.ntasks_requested,
        processors=record.processors,
        pfail=record.pfail,
        ccr=record.ccr,
    )
