"""Tests for CCR computation and rescaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccr import ccr_scale_factor
from repro.engine import Pipeline
from repro.errors import ExperimentError, ReproError
from repro.experiments.ccr import ccr_of, scale_to_ccr
from repro.generators import genome, ligo, montage
from repro.mspg.graph import Workflow
from repro.platform import Platform
from tests.conftest import make_chain


class TestCcrOf:
    def test_chain(self):
        wf = make_chain(5, weight=10.0, size=1e6)  # 6 files x 1MB
        plat = Platform(1, bandwidth=1e6)
        assert ccr_of(wf, plat) == pytest.approx(6.0 / 50.0)

    def test_zero_compute_rejected(self):
        wf = Workflow()
        wf.add_task("a", 0.0)
        with pytest.raises(ExperimentError):
            ccr_of(wf, Platform(1))

    def test_bandwidth_dependence(self):
        wf = make_chain(3)
        fast = ccr_of(wf, Platform(1, bandwidth=1e9))
        slow = ccr_of(wf, Platform(1, bandwidth=1e6))
        assert slow == pytest.approx(1000 * fast)

    def test_file_dedup_in_ccr(self):
        """A shared file counts once in the CCR numerator (§VI-A)."""
        wf = Workflow()
        for t in ("a", "b", "c"):
            wf.add_task(t, 10.0)
        wf.add_file("f", 1e6, producer="a")
        wf.add_input("b", "f")
        wf.add_input("c", "f")
        assert ccr_of(wf, Platform(1, bandwidth=1e6)) == pytest.approx(1.0 / 30.0)


class TestScaleToCcr:
    @pytest.mark.parametrize("gen", [montage, genome, ligo])
    @pytest.mark.parametrize("target", [1e-4, 1e-2, 1.0])
    def test_hits_target(self, gen, target):
        wf = gen(50, seed=0)
        plat = Platform(4)
        scaled = scale_to_ccr(wf, plat, target)
        assert ccr_of(scaled, plat) == pytest.approx(target, rel=1e-9)

    def test_weights_untouched(self):
        wf = montage(50, seed=0)
        plat = Platform(4)
        scaled = scale_to_ccr(wf, plat, 0.5)
        assert scaled.total_weight == pytest.approx(wf.total_weight)

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            scale_to_ccr(make_chain(2), Platform(1), -0.1)

    def test_zero_data_rejected(self):
        wf = Workflow()
        wf.add_task("a", 1.0)
        with pytest.raises(ExperimentError):
            scale_to_ccr(wf, Platform(1), 0.1)

    @given(st.floats(1e-5, 10.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, target, seed):
        wf = genome(50, seed=seed)
        plat = Platform(2)
        assert ccr_of(scale_to_ccr(wf, plat, target), plat) == pytest.approx(
            target, rel=1e-9
        )


class TestCcrScaleFactor:
    """The batched sweep prices each CCR's file sizes as the unscaled
    sizes times :func:`ccr_scale_factor`; the per-cell route rescales a
    copy by the same factor, behind the same checks."""

    def test_sizes_equal_the_rescaled_copys(self):
        wf = montage(50, seed=0)
        plat = Platform(4)
        for target in (0.0, 1e-3, 0.37, 1.0):
            factor = ccr_scale_factor(wf, plat, target)
            scaled = scale_to_ccr(wf, plat, target)
            assert [(wf.file_size(f) * factor).hex() for f in wf.file_names] == [
                scaled.file_size(f).hex() for f in wf.file_names
            ]

    @pytest.mark.parametrize(
        "size, target, message",
        [
            (1e6, -0.1, "target CCR must be >= 0"),
            (0.0, 0.1, "no file data"),
            # The CCR of 1e-300-byte files is subnormal: the factor
            # overflows to inf.
            (1e-300, 1.0, "scale factor must be a finite number >= 0"),
        ],
        ids=["negative", "no-data", "non-finite"],
    )
    def test_both_routes_raise_alike(self, size, target, message):
        wf = make_chain(2, size=size)
        pipe = Pipeline()
        schedule = pipe.schedule_for(wf, 1, seed=0)
        platform = pipe.platform_for(wf, 1, 0.01, 100e6)
        with pytest.raises(ReproError, match=message) as per_cell:
            pipe.evaluate_cell(
                "chain", 2, wf, schedule, platform, 0.01, target,
                method="normal",
            )
        with pytest.raises(ReproError) as batched:
            pipe.evaluate_cells(
                "chain", 2, wf, schedule, 1, [(0.01, target, None)],
                method="normal",
            )
        assert type(batched.value) is type(per_cell.value)
        assert str(batched.value) == str(per_cell.value)
