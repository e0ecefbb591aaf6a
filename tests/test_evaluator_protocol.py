"""Tests for the Evaluator protocol, registry and call-time validation."""

import http.client
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import EvaluationError
from repro.makespan.api import (
    EVALUATORS,
    expected_makespan,
    expected_makespans,
    get_evaluator,
)
from repro.makespan.evaluator import (
    Evaluator,
    EvaluatorOption,
    EvaluatorRegistry,
    FunctionEvaluator,
)
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.service import ReproService


def chain_dag(weights):
    dag = ProbDAG()
    prev = []
    for i, w in enumerate(weights):
        dag.add(f"t{i}", w, 1.5 * w, 0.1, preds=prev)
        prev = [f"t{i}"]
    return dag


class TestDeclaredSchemas:
    def test_builtin_capabilities(self):
        assert EVALUATORS["montecarlo"].deterministic is False
        for name in ("pathapprox", "normal", "dodin", "exact"):
            assert EVALUATORS[name].deterministic is True

    def test_builtin_option_schemas(self):
        assert EVALUATORS["pathapprox"].option_names() == (
            "k",
            "max_atoms",
            "factor_common",
            "rtol",
        )
        assert EVALUATORS["normal"].option_names() == ()
        assert "trials" in EVALUATORS["montecarlo"].option_names()

    def test_options_carry_defaults_and_docs(self):
        by_name = {o.name: o for o in EVALUATORS["pathapprox"].options}
        assert by_name["k"].default is None
        assert by_name["max_atoms"].default == 512
        assert by_name["k"].doc  # declared, not inspected

    def test_evaluators_are_callable(self):
        dag = chain_dag([1.0, 2.0])
        assert EVALUATORS["pathapprox"](dag, k=4) > 0


class TestRegistry:
    def test_register_rejects_duplicates(self):
        registry = EvaluatorRegistry()
        ev = FunctionEvaluator(lambda dag: 1.0, name="one")
        registry.register(ev)
        with pytest.raises(EvaluationError):
            registry.register(FunctionEvaluator(lambda dag: 2.0, name="one"))
        registry.register(
            FunctionEvaluator(lambda dag: 2.0, name="one"), replace=True
        )
        assert registry["one"].evaluate(None) == 2.0

    def test_setitem_wraps_plain_callables(self):
        registry = EvaluatorRegistry()
        registry["f"] = lambda dag, alpha=1.0: alpha
        assert isinstance(registry["f"], Evaluator)
        assert registry["f"].option_names() == ("alpha",)

    def test_setitem_rejects_name_mismatch_and_non_callables(self):
        registry = EvaluatorRegistry()
        with pytest.raises(EvaluationError):
            registry["a"] = FunctionEvaluator(lambda dag: 0.0, name="b")
        with pytest.raises(EvaluationError):
            registry["a"] = 42

    def test_mapping_protocol(self):
        registry = EvaluatorRegistry()
        registry["x"] = lambda dag: 0.0
        assert set(registry) == {"x"} and len(registry) == 1 and "x" in registry
        del registry["x"]
        assert "x" not in registry


class TestCallTimeValidation:
    """The satellite fix: no function-keyed cache, no stale schemas."""

    def test_monkeypatched_entry_validates_against_new_schema(self, monkeypatch):
        dag = chain_dag([1.0])
        # Prime any would-be cache with the real pathapprox schema.
        assert expected_makespan(dag, "pathapprox", k=4) > 0
        calls = {}

        def fake(dag, gamma=2.0):
            calls["gamma"] = gamma
            return 123.0

        monkeypatch.setitem(EVALUATORS, "pathapprox", fake)
        # New schema applies immediately: its own option is accepted...
        assert expected_makespan(dag, "pathapprox", gamma=7.0) == 123.0
        assert calls["gamma"] == 7.0
        # ...and the replaced evaluator's option is rejected, naming the
        # current accepted set.
        with pytest.raises(EvaluationError) as exc:
            expected_makespan(dag, "pathapprox", k=4)
        assert "gamma" in str(exc.value)

    def test_swapping_back_restores_the_original_schema(self, monkeypatch):
        dag = chain_dag([1.0])
        monkeypatch.setitem(EVALUATORS, "pathapprox", lambda dag: 0.0)
        with pytest.raises(EvaluationError):
            expected_makespan(dag, "pathapprox", k=4)
        # monkeypatch teardown restores the real evaluator lazily; do it
        # explicitly here to assert within the test body.
        monkeypatch.undo()
        assert expected_makespan(dag, "pathapprox", k=4) > 0

    def test_kwargs_functions_skip_validation(self):
        registry = EvaluatorRegistry()
        registry["loose"] = lambda dag, **kw: float(len(kw))
        ev = registry["loose"]
        assert ev.accepts_any_option is True
        ev.validate_options({"anything": 1})  # no error

    def test_get_evaluator_unknown_method(self):
        with pytest.raises(EvaluationError) as exc:
            get_evaluator("nope")
        assert "unknown evaluation method" in str(exc.value)

    def test_truncate_mode_is_rejected_everywhere(self, tmp_path, capsys):
        """PathApprox has one truncation scheme: a ``truncate_mode``
        option is an unknown option in the library, a 400 from the
        service, and an unrecognised flag (exit 2) on the CLI."""
        message = (
            "unknown option(s) 'truncate_mode' for method 'pathapprox'; "
            "accepted options: ['factor_common', 'k', 'max_atoms', 'rtol']"
        )
        with pytest.raises(EvaluationError) as exc:
            expected_makespan(
                chain_dag([1.0, 2.0]), "pathapprox", truncate_mode="rect"
            )
        assert str(exc.value) == message

        request = dict(
            family="genome", ntasks=30, processors=3, pfail=1e-3, ccr=0.01,
            evaluator_options={"truncate_mode": "rect"},
        )
        with ReproService(port=0, store=tmp_path / "store.db", linger=0.0) as svc:
            conn = http.client.HTTPConnection(*svc.address, timeout=30)
            try:
                conn.request(
                    "POST", "/evaluate", body=json.dumps(request),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                assert reply.status == 400
                assert json.loads(reply.read())["error"] == message
            finally:
                conn.close()

        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--family", "genome", "--sizes", "50",
                "--processors", "3", "--pfails", "0.01", "--ccrs", "0.01",
                "--quiet", "--truncate-mode", "rect",
            ])
        assert exc.value.code == 2
        assert "--truncate-mode" in capsys.readouterr().err


class TestBatchDispatch:
    def test_expected_makespans_matches_per_cell(self):
        dags = [chain_dag([1.0, 2.0, 3.0]) for _ in range(3)]
        template = ParamDAG.from_dags(dags)
        batched = expected_makespans(template, "normal")
        assert isinstance(batched, np.ndarray) and batched.shape == (3,)
        for i, value in enumerate(batched):
            assert float(value) == expected_makespan(template.cell(i), "normal")

    def test_montecarlo_batches_with_per_cell_seeds(self):
        template = ParamDAG.from_dags(
            [chain_dag([1.0, 2.0]), chain_dag([3.0, 4.0])]
        )
        batched = expected_makespans(
            template, "montecarlo", trials=500, seed=[11, 12]
        )
        for i, seed in enumerate((11, 12)):
            assert float(batched[i]) == expected_makespan(
                template.cell(i), "montecarlo", trials=500, seed=seed
            )

    def test_montecarlo_batch_seed_count_must_match(self):
        template = ParamDAG.from_dags([chain_dag([1.0]), chain_dag([2.0])])
        with pytest.raises(EvaluationError, match="seeds"):
            expected_makespans(template, "montecarlo", trials=10, seed=[1])

    def test_batch_options_validated(self):
        template = ParamDAG.from_dags([chain_dag([1.0])])
        with pytest.raises(EvaluationError):
            expected_makespans(template, "pathapprox", nope=1)

    def test_default_batch_is_the_cell_loop(self):
        seen = []

        class Probe(Evaluator):
            name = "probe"
            options = (EvaluatorOption("bump", 0.0),)

            def evaluate(self, dag, bump=0.0):
                seen.append(dag.n)
                return dag.base.sum() + bump

        template = ParamDAG.from_dags(
            [chain_dag([1.0, 2.0]), chain_dag([3.0, 4.0])]
        )
        values = Probe().evaluate_batch(template, bump=1.0)
        assert seen == [2, 2]
        assert values.tolist() == [4.0, 8.0]
