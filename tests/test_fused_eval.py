"""Tests for what the single batched evaluation path owes its callers.

Three layers are pinned here:

* **engine** — batched sweeps produce ``CellResult`` records
  byte-identical to the per-cell oracle on real workflow grids, for
  pathapprox, normal, and Monte Carlo under both eval-seed policies,
  chunked or not, with one dispatch per checkpoint strategy and
  structure group;
* **run_specs** — a batch of specs keeps per-spec error isolation, mixed
  methods, and a method routed through the per-cell oracle;
* **observability** — kernel-profile snapshots merge, including the
  ones ``jobs=2`` workers ship back.
"""

import pytest

from repro.engine import SweepSpec, run_specs, run_sweep
from repro.errors import EvaluationError
from repro.makespan import profile as kernel_profile


@pytest.fixture(autouse=True)
def no_leaked_profile():
    yield
    kernel_profile.disable()


class TestEngineFusedParity:
    """Batched records are byte-identical to the per-cell oracle's."""

    def spec(self, family, method, **overrides):
        kwargs = dict(
            family=family,
            sizes=(50,),
            processors={50: (3, 5)},
            pfails=(0.01, 0.001),
            ccrs=(1e-3, 1e-1, 1.0),
            seed=2017,
            method=method,
            seed_policy="stable",
            name=f"fused-parity-{family}-{method}",
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def assert_matches_oracle(self, spec, per_cell):
        batched = run_sweep(spec, jobs=1)
        per_cell(spec.method)
        assert batched == run_sweep(spec, jobs=1)

    @pytest.mark.parametrize("family", ["montage", "genome", "ligo"])
    def test_pathapprox_adaptive(self, family, per_cell):
        self.assert_matches_oracle(self.spec(family, "pathapprox"), per_cell)

    def test_normal(self, per_cell):
        self.assert_matches_oracle(self.spec("montage", "normal"), per_cell)

    def test_montecarlo_content_seeds(self, per_cell):
        self.assert_matches_oracle(
            self.spec(
                "montage", "montecarlo",
                evaluator_options={"trials": 200},
                eval_seed_policy="content",
            ),
            per_cell,
        )

    def test_montecarlo_positional_seeds(self, per_cell):
        self.assert_matches_oracle(
            self.spec(
                "montage", "montecarlo",
                evaluator_options={"trials": 200},
            ),
            per_cell,
        )

    def test_chunked_fused_identical(self):
        # Splitting a group into chunks (down to single cells) must not
        # change the records.
        spec = self.spec("montage", "pathapprox")
        whole = run_sweep(spec, jobs=1)
        assert run_sweep(spec, jobs=1, chunk_cells=2) == whole
        assert run_sweep(spec, jobs=1, chunk_cells=1) == whole

    def test_explicit_k_fused_identical(self, per_cell):
        self.assert_matches_oracle(
            self.spec("genome", "pathapprox", evaluator_options={"k": 4}),
            per_cell,
        )


class TestRunSpecsFused:
    def spec(self, family, method="pathapprox", **overrides):
        kwargs = dict(
            family=family,
            sizes=(30,),
            processors={30: (3,)},
            pfails=(0.01,),
            ccrs=(0.01, 0.1, 1.0),
            seed=2017,
            method=method,
            seed_policy="stable",
            name=f"specs-fused-{family}-{method}",
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_mixed_methods_dispatch_per_method(self):
        specs = [self.spec("montage"), self.spec("montage", method="normal")]
        assert run_specs(specs, jobs=1) == [
            run_sweep(spec, jobs=1) for spec in specs
        ]

    def test_error_isolation(self):
        # A spec that fails validation at dispatch time lands its
        # exception in its own slot; the co-batched spec's records
        # survive untouched.
        good = self.spec("montage")
        bad = self.spec("genome", evaluator_options={"k": -3})
        results = run_specs([bad, good], jobs=1, return_exceptions=True)
        assert isinstance(results[0], EvaluationError)
        assert results[1] == run_sweep(good, jobs=1)

    def test_error_raises_without_flag(self):
        bad = self.spec("genome", evaluator_options={"k": -3})
        with pytest.raises(EvaluationError):
            run_specs([bad, self.spec("montage")], jobs=1)

    def test_non_batch_method_falls_back(self, per_cell):
        # A method routed through the per-cell oracle is priced cell by
        # cell inside the batch, next to a batched spec and a spec that
        # fails on its own at evaluation.
        good = [self.spec("genome"), self.spec("montage", method="normal")]
        expected = [run_sweep(spec, jobs=1) for spec in good]
        bad = self.spec("montage", evaluator_options={"k": -3})
        per_cell("normal")
        results = run_specs([bad, *good], jobs=1, return_exceptions=True)
        assert isinstance(results[0], EvaluationError)
        assert results[1:] == expected


class TestDispatchShape:
    def test_one_dispatch_per_group(self):
        # One expected_makespans call per checkpoint strategy and
        # structure group: a single-cell chunk makes exactly two, and
        # the cells of a whole grid group share theirs.
        spec = SweepSpec(
            family="montage", sizes=(30,), processors={30: (3, 5)},
            pfails=(0.01,), ccrs=(0.01, 0.1, 1.0), seed=2017,
            seed_policy="stable",
        )
        prof = kernel_profile.enable()
        run_sweep(spec, jobs=1, chunk_cells=1)
        assert prof.dispatches() == 2 * spec.n_cells
        prof = kernel_profile.enable()
        run_sweep(spec, jobs=1)
        assert 2 * len(spec.processors[30]) <= prof.dispatches()
        assert prof.dispatches() < 2 * spec.n_cells


class TestProfileMerge:
    def test_merge_folds_counters(self):
        a = kernel_profile.KernelProfile()
        a.record("dispatch", rows=2, scalar_rows=10, wall=0.5)
        a.record("pool_exec", rows=8)
        b = kernel_profile.KernelProfile()
        b.record("dispatch", rows=3, scalar_rows=20, wall=0.25)
        b.record("pool_exec", rows=4)
        b.record("pool_exec", rows=4)
        a.merge(b.snapshot())
        assert a.dispatches() == 2
        assert a.counters["dispatch"]["rows"] == 5
        assert a.counters["dispatch"]["scalar_rows"] == 30
        assert a.counters["dispatch"]["wall_s"] == pytest.approx(0.75)
        assert a.counters["pool_exec"]["calls"] == 3
        assert a.pool_width_mean() == pytest.approx(16 / 3)

    def test_merge_into_empty(self):
        b = kernel_profile.KernelProfile()
        b.record("convolve", rows=7)
        a = kernel_profile.KernelProfile()
        a.merge(b.snapshot())
        assert a.counters["convolve"]["calls"] == 1
        assert a.counters["convolve"]["rows"] == 7

    def test_snapshot_carries_dispatch_fields(self):
        prof = kernel_profile.KernelProfile()
        prof.record("dispatch", rows=4, scalar_rows=84)
        prof.record("pool_exec", rows=42)
        snap = prof.snapshot()
        assert snap["dispatches"] == 1
        assert snap["pool_width_mean"] == 42.0

    def test_parallel_sweep_merges_worker_profiles(self):
        spec = SweepSpec(
            family="montage", sizes=(30,), processors={30: (3, 5)},
            pfails=(0.01,), ccrs=(0.01, 0.1, 1.0), seed=2017,
            seed_policy="stable",
        )
        prof = kernel_profile.enable()
        records = run_sweep(spec, jobs=2)
        # Workers profiled themselves and shipped snapshots back (the
        # serial fallback records directly); either way the parent
        # collector saw every dispatch.
        assert prof.dispatches() >= 2
        assert records == run_sweep(spec, jobs=1)
