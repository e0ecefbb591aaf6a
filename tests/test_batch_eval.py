"""Tests for the batched evaluation core: node laws, templates, parity.

Four layers of the batch contract are pinned here:

* **node laws** — :func:`two_state_rows` builds each cell's 2-state law
  atom for atom like the scalar constructor, degenerate cells included;
* **binning** — the multi-row rect binning kernel keeps the truncation
  invariants on every row and equals the scalar truncation;
* **templates** — :class:`ParamDAG` materialises cells bit-identical to
  the DAGs it was stacked from, and rejects parameters outside the
  2-state domain;
* **evaluators / engine** — batched sweeps produce ``CellResult``
  records bit-identical to the per-cell oracle for every closed-form
  method on real workflow grids (single-cell grids included), while
  Monte Carlo keeps its per-cell grid-positional sampling seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Pipeline, SweepSpec, run_sweep
from repro.errors import EvaluationError
from repro.experiments.figures import run_cell
from repro.makespan.api import expected_makespan, expected_makespans
from repro.makespan.distribution import (
    MODE_RECT,
    DiscreteDistribution,
    _rect_bin_rows,
    two_state_rows,
)
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.util.rng import stable_seed


class TestBatchConstruction:
    def test_two_state_rows_handles_degenerate_cells(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        long = np.array([1.5, 2.0, 4.5, 6.0])
        p = np.array([0.2, 0.5, 0.0, 1.0])
        rows = two_state_rows(base, long, p)
        for row, (b, l, q) in zip(rows, zip(base, long, p)):
            ref = DiscreteDistribution.two_state(float(b), float(l), float(q))
            assert row.values.tolist() == ref.values.tolist()
            assert row.probs.tolist() == ref.probs.tolist()


class TestBatchTruncate:
    @given(st.integers(0, 10_000), st.integers(2, 48))
    @settings(max_examples=25, deadline=None)
    def test_moment_preserving_binning_invariants(self, seed, atoms):
        """The rect truncation invariants, per row of a multi-row call to
        the binning kernel: exactly ``atoms`` points come out, the mean
        is preserved (conditional bin means), no mass moves by more than
        one bin width, and each row equals the scalar truncation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(atoms + 1, 200))
        originals = [
            DiscreteDistribution(
                rng.uniform(0, 1000, n), rng.uniform(1e-6, 1.0, n)
            )
            for _ in range(3)
        ]
        values, probs = _rect_bin_rows(
            np.stack([d.values for d in originals]),
            np.stack([d.probs for d in originals]),
            atoms,
        )
        for original, v, p in zip(originals, values, probs):
            truncated = DiscreteDistribution._wrap(v, p)
            scalar = original.truncate(atoms, MODE_RECT)
            assert truncated.values.tolist() == scalar.values.tolist()
            assert truncated.probs.tolist() == scalar.probs.tolist()
            assert truncated.n_atoms == atoms
            assert truncated.mean() == pytest.approx(original.mean(), rel=1e-9)
            width = (original.values[-1] - original.values[0]) / atoms
            for x in rng.uniform(0, 1000, 3):
                assert original.cdf(x - width) <= truncated.cdf(x) + 1e-9
                assert truncated.cdf(x) <= original.cdf(x + width) + 1e-9


class TestParamDAG:
    def make_dags(self, n_cells=3, n=5, seed=0):
        rng = np.random.default_rng(seed)
        dags = []
        for _ in range(n_cells):
            dag = ProbDAG()
            for i in range(n):
                base = float(rng.uniform(1, 10))
                dag.add(
                    f"t{i}",
                    base,
                    1.5 * base,
                    float(rng.uniform(0.01, 0.5)),
                    preds=[f"t{j}" for j in range(i) if (i + j) % 2],
                )
            dags.append(dag)
        return dags

    def test_cells_roundtrip_bit_identical(self):
        dags = self.make_dags()
        template = ParamDAG.from_dags(dags)
        assert template.n_cells == len(dags) and template.n == dags[0].n
        for original, cell in zip(dags, template.cells()):
            assert cell.names == original.names
            assert cell.preds == original.preds
            assert cell._base == original._base
            assert cell._long == original._long
            assert cell._p == original._p

    def test_means_variances_match_tasks(self):
        dags = self.make_dags(seed=1)
        template = ParamDAG.from_dags(dags)
        for c, dag in enumerate(dags):
            for i in range(dag.n):
                task = dag.task(i)
                assert float(template.means[c, i]) == task.mean
                assert float(template.variances[c, i]) == task.variance

    def test_structure_mismatch_rejected(self):
        a = ProbDAG()
        a.add("x", 1.0, 1.5, 0.1)
        b = ProbDAG()
        b.add("y", 1.0, 1.5, 0.1)
        with pytest.raises(EvaluationError):
            ParamDAG.from_dags([a, b])

    def test_cell_index_bounds(self):
        template = ParamDAG.from_dags(self.make_dags(n_cells=2))
        with pytest.raises(EvaluationError):
            template.cell(2)

    def test_from_dags_needs_cells(self):
        with pytest.raises(EvaluationError):
            ParamDAG.from_dags([])

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("p", 1.5, r"p=1.5 outside \[0, 1\]"),
            ("p", -0.5, r"p=-0.5 outside \[0, 1\]"),
            ("p", float("nan"), r"p=nan outside \[0, 1\]"),
            ("base", -1.0, r"need 0 <= base <= long, got \(-1.0, 3.0\)"),
            ("long", 1.0, r"need 0 <= base <= long, got \(2.0, 1.0\)"),
        ],
        ids=["p-above-1", "p-negative", "p-nan", "base-negative", "long-below-base"],
    )
    def test_out_of_domain_parameters_rejected(self, field, value, message):
        """Every constructor checks the domain ProbDAG.add enforces, so
        the batch path can never price a cell the per-cell path
        refuses (a diamond whose cell 1 has one bad node 'b')."""
        dag = ProbDAG()
        dag.add("a", 1.0, 1.5, 0.1)
        dag.add("b", 2.0, 3.0, 0.2, preds=["a"])
        dag.add("c", 1.0, 1.5, 0.3, preds=["a"])
        dag.add("d", 1.0, 1.5, 0.1, preds=["b", "c"])
        arrays = {
            "base": np.tile(dag.base, (2, 1)),
            "long": np.tile(dag.long, (2, 1)),
            "p": np.tile(dag.p, (2, 1)),
        }
        arrays[field][1, 1] = value
        with pytest.raises(EvaluationError, match=rf"cell 1, node 'b': {message}"):
            ParamDAG.from_template(dag, **arrays)


def group_dags(family: str, processors: int, pfails, ccrs, method_dag="all"):
    """Per-cell segment DAGs of one real (workflow, processors) group."""
    pipe = Pipeline()
    wf = pipe.prepare(family, 50, stable_seed(2017, family, 50))
    tree = pipe.mspg_tree(wf)
    schedule = pipe.schedule_for(
        wf, processors, seed=stable_seed(2017, family, 50, processors), tree=tree
    )
    dags = []
    for pfail in pfails:
        for ccr in ccrs:
            platform = pipe.platform_for(wf, processors, pfail, 100e6)
            scaled = pipe.scale(wf, platform, ccr)
            plan_some, plan_all = pipe.plans(scaled, schedule, platform, True)
            plan = plan_all if method_dag == "all" else plan_some
            dags.append(pipe.segment_dag(scaled, schedule, plan, platform))
    return dags


class TestEvaluatorBatchParity:
    """Acceptance: batched == per-cell, bit for bit, on real grids."""

    @pytest.mark.parametrize("family", ["montage", "genome", "ligo"])
    @pytest.mark.parametrize("method", ["pathapprox", "normal"])
    def test_vectorised_methods_bit_identical(self, family, method):
        dags = group_dags(family, 5, (0.01, 0.001), (1e-3, 1e-1))
        groups = {}
        for i, dag in enumerate(dags):
            groups.setdefault(ParamDAG.structure_key(dag), []).append(i)
        for indices in groups.values():
            template = ParamDAG.from_dags([dags[i] for i in indices])
            batched = expected_makespans(template, method)
            for value, i in zip(batched, indices):
                assert float(value) == expected_makespan(dags[i], method)

    def test_dodin_batch_bit_identical(self):
        dags = group_dags("montage", 3, (0.01,), (1e-2, 1e-1))
        template = ParamDAG.from_dags(dags)
        batched = expected_makespans(template, "dodin")
        for value, dag in zip(batched, dags):
            assert float(value) == expected_makespan(dag, "dodin")

    def test_pathapprox_batch_explicit_k_and_options(self):
        dags = group_dags("genome", 5, (0.01,), (1e-2, 1e-1))
        template = ParamDAG.from_dags(dags)
        for options in ({"k": 8}, {"max_atoms": 64}, {"factor_common": False}):
            batched = expected_makespans(template, "pathapprox", **options)
            for value, dag in zip(batched, dags):
                assert float(value) == expected_makespan(
                    dag, "pathapprox", **options
                )

    def test_empty_template(self):
        template = ParamDAG.from_dags([ProbDAG()])
        assert expected_makespans(template, "pathapprox").tolist() == [0.0]
        assert expected_makespans(template, "normal").tolist() == [0.0]

    @pytest.mark.parametrize("bad_k", [0, -1])
    def test_invalid_k_raises_like_the_scalar_path(self, bad_k):
        dags = group_dags("genome", 5, (0.01,), (1e-2,))
        template = ParamDAG.from_dags(dags)
        with pytest.raises(EvaluationError, match="k must be >= 1"):
            expected_makespans(template, "pathapprox", k=bad_k)
        with pytest.raises(EvaluationError, match="k must be >= 1"):
            expected_makespan(dags[0], "pathapprox", k=bad_k)


class TestEngineBatchParity:
    """Engine-level acceptance: batched sweeps are bit-identical."""

    def spec(self, method, **overrides):
        kwargs = dict(
            family="montage",
            sizes=(50,),
            processors={50: (3, 5)},
            pfails=(0.01, 0.001),
            ccrs=(1e-3, 1e-2, 1e-1),
            seed=2017,
            method=method,
            seed_policy="stable",
            name=f"batch-parity-{method}",
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def assert_matches_oracle(self, spec, per_cell):
        batched = run_sweep(spec, jobs=1)
        per_cell(spec.method)
        assert batched == run_sweep(spec, jobs=1)
        return batched

    @pytest.mark.parametrize("method", ["pathapprox", "normal", "dodin"])
    def test_closed_form_records_bit_identical(self, method, per_cell):
        self.assert_matches_oracle(self.spec(method), per_cell)

    def test_spawn_policy_records_bit_identical(self, per_cell):
        self.assert_matches_oracle(
            self.spec("pathapprox", seed_policy="spawn"), per_cell
        )

    def test_degenerate_pfail_zero_bit_identical(self, per_cell):
        # pfail=0 makes every 2-state law a single-atom point mass — the
        # batched node-law pass must fall back per degenerate cell.
        self.assert_matches_oracle(
            self.spec("pathapprox", pfails=(0.0, 0.01)), per_cell
        )

    def test_montecarlo_keeps_positional_seeds(self, per_cell):
        """Monte Carlo's default (positional) eval seeds survive
        batching: the batch entry point threads the same per-cell seed
        streams as the oracle, so both agree exactly — and genuinely
        depend on the seeds."""
        batched = self.assert_matches_oracle(
            self.spec("montecarlo", evaluator_options={"trials": 200}),
            per_cell,
        )
        # Contrast: an explicit shared seed changes the records, proving
        # the grid-positional eval seeds above were actually in use.
        pinned = run_sweep(
            self.spec(
                "montecarlo", evaluator_options={"trials": 200, "seed": 1}
            ),
            jobs=1,
        )
        assert pinned != batched

    def test_evaluator_options_thread_through_batch(self, per_cell):
        default_k = run_sweep(self.spec("pathapprox"), jobs=1)
        batched = self.assert_matches_oracle(
            self.spec("pathapprox", evaluator_options={"k": 6}), per_cell
        )
        # The option matters: default-k records differ.
        assert batched != default_k

    @pytest.mark.parametrize(
        "method,options,policy",
        [
            ("pathapprox", {}, "positional"),
            ("pathapprox", {"truncate_mode": "rect"}, "positional"),
            ("normal", {}, "positional"),
            ("montecarlo", {"trials": 200}, "content"),
        ],
        ids=["pathapprox", "pathapprox-rect", "normal", "montecarlo-content"],
    )
    def test_single_cell_spec_matches_the_oracle(
        self, method, options, policy, per_cell
    ):
        """A 1×1 grid — the service's per-request spec — is priced by
        the batch path too, and must equal the per-cell oracle."""
        spec = self.spec(
            method,
            processors={50: (3,)},
            pfails=(0.01,),
            ccrs=(0.1,),
            evaluator_options=options,
            eval_seed_policy=policy,
        )
        (batched,) = self.assert_matches_oracle(spec, per_cell)
        if not options:
            assert batched == run_cell(
                "montage", 50, 3, 0.01, 0.1, seed=2017, method=method
            )
