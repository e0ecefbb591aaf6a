"""First-class evaluator protocol and registry for the makespan layer.

Every expected-makespan method is wrapped in an :class:`Evaluator` that
*declares* what the dispatch layer previously had to discover by
introspection:

* an **option schema** — the keyword options the method accepts, with
  defaults and one-line docs (``repro methods`` renders it; the
  dispatcher validates against it at call time);
* a **capability** — ``deterministic`` (closed-form methods whose
  result is a pure function of the DAG) vs stochastic (Monte Carlo,
  whose result depends on a sampling seed);
* a **batch entry point** — :meth:`Evaluator.evaluate_batch` takes a
  :class:`~repro.makespan.paramdag.ParamDAG` (one DAG template plus
  per-cell 2-state parameter arrays) and returns one expected makespan
  per cell.  The batch contract is strict: results must be
  **bit-identical** to evaluating each materialised cell through
  :meth:`Evaluator.evaluate`.  The default implementation simply loops
  over cells, which satisfies the contract trivially, so every
  evaluator — a plain callable included — is priced through it;
  vectorised overrides (PathApprox, Sculli's normal, Monte Carlo) keep
  it by construction and are pinned by the parity tests.

The registry (:class:`EvaluatorRegistry`) replaces the bare
string→function dict *and* the old ``inspect``-keyed option cache.  The
cache grew without bound and — worse — kept validating against a stale
signature when an entry was monkeypatched mid-process.  Here a plain
callable assigned into the registry is wrapped immediately (its schema
derived from its signature *at assignment time*), and the dispatcher
validates each call against the evaluator's currently declared schema,
so replacing an entry can never leave stale validation behind.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import EvaluationError

__all__ = [
    "EvaluatorOption",
    "Evaluator",
    "FunctionEvaluator",
    "EvaluatorRegistry",
]

#: Sentinel for options without a default (caller must pass a value).
_REQUIRED = object()


@dataclass(frozen=True)
class EvaluatorOption:
    """One declared keyword option of an evaluator."""

    name: str
    default: Any = None
    doc: str = ""

    def describe(self) -> str:
        """``name=default`` rendering for tables and error messages."""
        if self.default is _REQUIRED:
            return self.name
        return f"{self.name}={self.default!r}"


class Evaluator:
    """Base class for expected-makespan evaluators.

    Subclasses (or :class:`FunctionEvaluator` instances) provide
    :meth:`evaluate`; everything else — option validation, the
    capability flag, the batch entry point — has sensible defaults.
    Instances are callable so legacy ``EVALUATORS[name](dag, ...)`` call
    sites keep working unchanged.
    """

    #: Registry key (the paper's method name).
    name: str = ""
    #: One-line description for ``repro methods``.
    summary: str = ""
    #: Declared keyword options (the schema the dispatcher validates).
    options: Tuple[EvaluatorOption, ...] = ()
    #: Closed-form (pure function of the DAG) vs sampling-based.
    deterministic: bool = True
    #: Accepts arbitrary keywords (``**kwargs`` legacy wrappers only).
    accepts_any_option: bool = False

    # ------------------------------------------------------------------

    def evaluate(self, dag, **options: Any) -> float:
        """Expected makespan of one 2-state DAG."""
        raise NotImplementedError

    def evaluate_batch(self, template, **options: Any) -> np.ndarray:
        """Expected makespan of every cell of a parameterised DAG.

        ``template`` is a :class:`~repro.makespan.paramdag.ParamDAG`;
        the result is a float array of length ``template.n_cells``,
        bit-identical to ``[self.evaluate(template.cell(i), **options)]``.
        The default implementation *is* that loop; vectorised overrides
        must preserve it exactly.

        **The per-cell seed convention.**  For stochastic evaluators a
        sequence-valued ``seed`` option means *one seed per cell* (the
        engine threads each sweep cell's ``eval_seed`` this way); the
        per-cell reference above then uses ``seed=seeds[i]`` for cell
        ``i``.  The default loop slices accordingly — and rejects a
        sequence whose length disagrees with the cell count rather than
        letting ``default_rng`` swallow the whole list as one entropy
        pool per cell, which would silently collapse every cell onto a
        single stream.  Vectorised overrides (``montecarlo_batch``)
        follow the same convention.
        """
        seeds = options.get("seed")
        per_cell_seeds = isinstance(seeds, (list, tuple, np.ndarray))
        if per_cell_seeds and len(seeds) != template.n_cells:
            raise EvaluationError(
                f"evaluator {self.name!r} got {len(seeds)} seeds for "
                f"{template.n_cells} cells (pass one seed per cell, or "
                "a scalar)"
            )
        out = []
        for i in range(template.n_cells):
            cell_options = options
            if per_cell_seeds:
                cell_options = {**options, "seed": seeds[i]}
            out.append(self.evaluate(template.cell(i), **cell_options))
        return np.array(out, dtype=float)

    # ------------------------------------------------------------------

    def option_names(self) -> Tuple[str, ...]:
        """Names of the declared options."""
        return tuple(opt.name for opt in self.options)

    def validate_options(self, options: Mapping[str, Any]) -> None:
        """Reject keywords outside the declared schema.

        Runs at call time against the *current* declaration, so a
        replaced registry entry is validated against its own schema,
        never a cached predecessor's.
        """
        if self.accepts_any_option or not options:
            return
        accepted = set(self.option_names())
        unknown = sorted(set(options) - accepted)
        if unknown:
            raise EvaluationError(
                f"unknown option(s) {', '.join(map(repr, unknown))} for "
                f"method {self.name!r}; accepted options: "
                f"{sorted(accepted) if accepted else 'none'}"
            )

    def __call__(self, dag, **options: Any) -> float:
        return self.evaluate(dag, **options)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        kind = "deterministic" if self.deterministic else "stochastic"
        return f"<Evaluator {self.name!r} ({kind})>"


def _options_from_signature(fn: Callable[..., float]) -> Tuple[Tuple[EvaluatorOption, ...], bool]:
    """Derive ``(options, accepts_any)`` from a function signature.

    The first parameter is the DAG; ``**kwargs`` means "accepts
    anything" (no schema to validate).  Derivation happens once, when
    the function is wrapped — never cached across reassignments.
    """
    params = list(inspect.signature(fn).parameters.values())
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return (), True
    options = tuple(
        EvaluatorOption(
            name=p.name,
            default=_REQUIRED if p.default is p.empty else p.default,
        )
        for p in params[1:]  # params[0] is the DAG
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )
    return options, False


class FunctionEvaluator(Evaluator):
    """Adapter turning a plain ``fn(dag, **options) -> float`` into an
    :class:`Evaluator`, with the option schema read off its signature
    at wrap time and an optional vectorised batch implementation."""

    def __init__(
        self,
        fn: Callable[..., float],
        name: Optional[str] = None,
        summary: str = "",
        deterministic: bool = True,
        batch_fn: Optional[Callable[..., np.ndarray]] = None,
        option_docs: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._fn = fn
        self._batch_fn = batch_fn
        self.name = name if name is not None else getattr(fn, "__name__", "?")
        doc = summary or (inspect.getdoc(fn) or "").split("\n", 1)[0]
        self.summary = doc
        options, accepts_any = _options_from_signature(fn)
        if option_docs:
            options = tuple(
                EvaluatorOption(o.name, o.default, option_docs.get(o.name, o.doc))
                for o in options
            )
        self.options = options
        self.accepts_any_option = accepts_any
        self.deterministic = deterministic

    def evaluate(self, dag, **options: Any) -> float:
        return self._fn(dag, **options)

    def evaluate_batch(self, template, **options: Any) -> np.ndarray:
        if self._batch_fn is not None:
            return self._batch_fn(template, **options)
        return super().evaluate_batch(template, **options)


class EvaluatorRegistry(MutableMapping):
    """Mutable name→:class:`Evaluator` mapping with a registration API.

    Plain callables assigned via ``registry[name] = fn`` are wrapped in
    a :class:`FunctionEvaluator` *at assignment time* — the schema is
    derived from the new function's signature then and there, so
    monkeypatching an entry mid-process can never validate against a
    stale signature (the failure mode of the old ``inspect`` cache).
    A wrapped plain callable batches through the default cell loop, so
    the engine prices it exactly as it would one cell at a time.
    """

    def __init__(self) -> None:
        self._evaluators: Dict[str, Evaluator] = {}

    def register(
        self, evaluator: Evaluator, *, replace: bool = False
    ) -> Evaluator:
        """Add an evaluator under its declared name; returns it."""
        if not evaluator.name:
            raise EvaluationError("evaluator has no name to register under")
        if not replace and evaluator.name in self._evaluators:
            raise EvaluationError(
                f"evaluator {evaluator.name!r} is already registered "
                f"(pass replace=True to override)"
            )
        self._evaluators[evaluator.name] = evaluator
        return evaluator

    def get_evaluator(self, method: str) -> Evaluator:
        """The evaluator for ``method``, or a uniform EvaluationError."""
        try:
            return self._evaluators[method]
        except KeyError:
            raise EvaluationError(
                f"unknown evaluation method {method!r}; choose from "
                f"{sorted(self._evaluators)}"
            ) from None

    # -- MutableMapping interface --------------------------------------

    def __getitem__(self, name: str) -> Evaluator:
        return self._evaluators[name]

    def __setitem__(self, name: str, value: Any) -> None:
        if isinstance(value, Evaluator):
            if value.name != name:
                raise EvaluationError(
                    f"evaluator declares name {value.name!r}; cannot "
                    f"register it as {name!r}"
                )
            self._evaluators[name] = value
            return
        if not callable(value):
            raise EvaluationError(
                f"registry values must be Evaluator instances or "
                f"callables, got {type(value).__name__}"
            )
        self._evaluators[name] = FunctionEvaluator(value, name=name)

    def __delitem__(self, name: str) -> None:
        del self._evaluators[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._evaluators)

    def __len__(self) -> int:
        return len(self._evaluators)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"EvaluatorRegistry({sorted(self._evaluators)})"
