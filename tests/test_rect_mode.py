"""Rectangular truncation mode: properties, engine, isolation.

Three layers of the ``truncate_mode="rect"`` contract are pinned here:

* **scalar properties** — fixed output width, exact mean preservation,
  no mass moved by more than one bin width, variance contraction,
  deterministic bin edges, zero-mass padding and idempotence at fixed
  width;
* **engine / claims** — rect sweeps are deterministic and the paper's
  C1–C6 claims hold on a real grid evaluated under rect;
* **service isolation** — rect records live under their own
  fingerprints and can never answer default-mode requests.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SweepSpec, run_sweep
from repro.errors import EvaluationError
from repro.experiments.claims import check_all_claims, render_claims
from repro.experiments.figures import PAPER_FIGURES
from repro.makespan.distribution import (
    MODE_RECT,
    DiscreteDistribution,
    _rect_bin_rows,
)
from repro.service import EvalRequest, ResultStore, fingerprint, request_to_spec


def random_dist(seed: int, n: int) -> DiscreteDistribution:
    rng = np.random.default_rng(seed)
    return DiscreteDistribution(
        rng.uniform(0.0, 1000.0, n), rng.uniform(1e-6, 1.0, n)
    )


class TestRectProperties:
    @given(st.integers(0, 10_000), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_exact_width_and_mean(self, seed, atoms):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        d = random_dist(seed, n)
        t = d.truncate(atoms, MODE_RECT)
        # Rect always returns *exactly* the budget, padded or binned.
        assert t.n_atoms == atoms
        assert t.mean() == pytest.approx(d.mean(), rel=1e-9)
        # Binning moves no mass by more than one bin width.
        width = (d.values[-1] - d.values[0]) / atoms
        for x in rng.uniform(0, 1000, 3):
            assert d.cdf(x - width) <= t.cdf(x) + 1e-9
            assert t.cdf(x) <= d.cdf(x + width) + 1e-9

    def test_variance_never_increases(self):
        # Binning replaces atoms by conditional means — a contraction.
        for seed in range(10):
            d = random_dist(seed, 200)
            t = d.truncate(16, MODE_RECT)
            assert t.variance() <= d.variance() + 1e-9

    def test_zero_mass_padding(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        t = d.truncate(8, MODE_RECT)
        assert t.n_atoms == 8
        assert np.array_equal(t.values[:3], d.values)
        assert np.array_equal(t.probs[:3], d.probs)
        # Pads are zero-mass copies of the top atom: mean/CDF unchanged.
        assert np.all(t.values[3:] == 3.0)
        assert np.all(t.probs[3:] == 0.0)
        assert t.mean() == d.mean()

    def test_idempotent_at_fixed_width(self):
        for n in (3, 16, 250):
            d = random_dist(n, n)
            t = d.truncate(16, MODE_RECT)
            again = t.truncate(16, MODE_RECT)
            assert again is t  # already at width: a no-op, not a re-bin

    def test_deterministic_bin_edges(self):
        """The kernel matches a plain-python reference bit for bit.

        Bin edges are a deterministic function of each row's support
        range only: ``max_atoms`` equal-width bins over [min, max],
        massy bins at their conditional mean, empty bins at their
        centre with zero mass.
        """
        d = random_dist(7, 100)
        k = 12
        values, probs = _rect_bin_rows(d.values[None, :], d.probs[None, :], k)
        lo, hi = d.values[0], d.values[-1]
        span = hi - lo
        masses = np.zeros(k)
        weighted = np.zeros(k)
        for v, p in zip(d.values, d.probs):
            b = min(int((v - lo) / span * k), k - 1)
            masses[b] += p
            weighted[b] += p * v
        expect_v = np.where(
            masses > 0,
            weighted / np.where(masses > 0, masses, 1.0),
            lo + (np.arange(k) + 0.5) * span / k,
        )
        assert np.array_equal(values[0], expect_v)
        assert np.array_equal(probs[0], masses / masses.sum())

    def test_degenerate_single_value_support(self):
        d = DiscreteDistribution([5.0, 5.0, 5.0], [0.1, 0.2, 0.7])
        t = d.truncate(4, MODE_RECT)
        assert t.n_atoms == 4
        assert t.mean() == 5.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError, match="unknown truncate mode"):
            DiscreteDistribution.point(1.0).truncate(4, "boxcar")


class TestRectEngine:
    def spec(self):
        return SweepSpec(
            family="montage",
            sizes=(50,),
            processors={50: (3,)},
            pfails=(0.01,),
            ccrs=(1e-2, 1e-1),
            seed=2017,
            seed_policy="stable",
            evaluator_options=(("truncate_mode", "rect"),),
            name="rect-test",
        )

    def test_rect_sweep_deterministic(self):
        spec = self.spec()
        first = run_sweep(spec, jobs=1)
        second = run_sweep(spec, jobs=1)
        assert first == second
        assert all(r.em_some > 0 for r in first)

    def test_rect_differs_from_default_but_stays_close(self):
        rect_spec = self.spec()
        default_spec = dataclasses.replace(rect_spec, evaluator_options=())
        rect = run_sweep(rect_spec, jobs=1)
        default = run_sweep(default_spec, jobs=1)
        # Different binning, so not bit-identical — but the same
        # estimator, so the numbers agree to a few percent.
        for a, b in zip(rect, default):
            assert a.em_some == pytest.approx(b.em_some, rel=0.05)
            assert a.em_all == pytest.approx(b.em_all, rel=0.05)
            assert a.em_none == pytest.approx(b.em_none, rel=0.05)

    def test_claims_hold_under_rect(self):
        """C1–C6 on the CI-sized fig5 grid, evaluated in rect mode."""
        spec = SweepSpec.from_figure(
            PAPER_FIGURES["fig5"].shrink(
                sizes=[50], pfails=[0.01, 0.001], ccr_points=3,
                processors_per_size=2,
            )
        )
        spec = dataclasses.replace(
            spec, evaluator_options=(("truncate_mode", "rect"),)
        )
        results = check_all_claims(run_sweep(spec, jobs=1))
        broken = [r for r in results if not r.holds]
        assert not broken, render_claims(broken)


class TestRectFingerprintIsolation:
    def req(self, **overrides) -> EvalRequest:
        kwargs = dict(
            family="genome",
            ntasks=30,
            processors=3,
            pfail=0.001,
            ccr=0.01,
            seed=11,
        )
        kwargs.update(overrides)
        return EvalRequest(**kwargs)

    def test_truncate_mode_changes_the_fingerprint(self):
        rect = self.req(evaluator_options={"truncate_mode": "rect"})
        assert fingerprint(rect) != fingerprint(self.req())

    def test_rect_records_never_answer_default_requests(self):
        store = ResultStore(":memory:")
        rect = self.req(evaluator_options={"truncate_mode": "rect"})
        (record,) = run_sweep(request_to_spec(rect))
        store.put(rect, record)
        assert store.get(rect) == record
        assert store.get(self.req()) is None
