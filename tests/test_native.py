"""Tests for the compiled distribution kernels (repro.makespan.native).

Four contracts are pinned here:

* **bit-identity** — every native primitive (adaptive convolve / max /
  truncate and the shared rect row binning) returns atom-for-atom the
  arrays the pure-python numpy reference produces, across ragged
  sizes, duplicate supports, infinite atoms, zero-mass pads and
  degenerate pfail=0 cells; inputs the compiled kernel declines fall
  back to the reference (including its error behaviour).  A hypothesis
  differential fuzz drives the same edge cases through every primitive
  at operand widths around ``max_atoms``.
* **golden records** — six baseline family grids sweep to records
  byte-identical to PR 9 HEAD (values pinned as hex float literals),
  with the native kernels on and off.
* **graceful degradation** — a failed build warns once on stderr,
  names the fallback, and leaves every operation serving from the
  python path; ``repro kernels`` and ``native.status()`` report which
  backend is live and why.
* **CLI surface** — ``repro kernels`` renders the per-op table and
  ``repro store export`` / ``repro store import`` round-trip a result
  store through JSONL.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import SweepSpec, run_sweep
from repro.makespan import native
from repro.makespan import profile as kernel_profile
from repro.makespan.distribution import (
    MODE_ADAPTIVE,
    MODE_RECT,
    DiscreteDistribution,
    _rect_bin_rows,
    _rect_bin_rows_py,
)

HAVE_NATIVE = native.available()

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C compiler available in this environment"
)


@pytest.fixture(autouse=True)
def restore_native_state():
    """Snapshot the runtime switch and env around every test."""
    env = os.environ.get("REPRO_NATIVE")
    yield
    native._reset_for_tests()
    if env is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = env


def both_backends(fn):
    """Run ``fn`` natively and on the python path; return both results.

    Exceptions are part of the contract: both paths must raise the
    same error text or both succeed.
    """
    native.set_enabled(True)
    try:
        got = fn()
        got_err = None
    except Exception as exc:  # noqa: BLE001 — compared, not hidden
        got, got_err = None, str(exc)
    native.set_enabled(False)
    try:
        ref = fn()
        ref_err = None
    except Exception as exc:  # noqa: BLE001
        ref, ref_err = None, str(exc)
    assert got_err == ref_err
    return got, ref


def assert_dist_equal(got: DiscreteDistribution, ref: DiscreteDistribution):
    assert np.array_equal(got.values, ref.values, equal_nan=True)
    assert np.array_equal(got.probs, ref.probs)


def random_dist(rng, n, inf_atom=False):
    v = rng.normal(50.0, 20.0, n)
    if inf_atom and n > 1:
        v[int(rng.integers(0, n))] = np.inf
    return DiscreteDistribution(v, rng.random(n) + 1e-9)


class TestBitIdentity:
    """Native results equal the numpy reference, atom for atom."""

    @pytest.mark.parametrize("na,nb", [(1, 1), (1, 40), (33, 7), (64, 64)])
    @pytest.mark.parametrize("max_atoms", [1, 2, 16, 64])
    @pytest.mark.parametrize("op", ["convolve", "max"])
    def test_binary_ops_ragged(self, op, na, nb, max_atoms):
        rng = np.random.default_rng(hash((op, na, nb, max_atoms)) % 2**32)
        a = random_dist(rng, na)
        b = random_dist(rng, nb)
        fn = getattr(a, "convolve" if op == "convolve" else "max_with")
        got, ref = both_backends(lambda: fn(b, max_atoms, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)

    @pytest.mark.parametrize("n,max_atoms", [(5, 4), (100, 16), (700, 64)])
    def test_truncate(self, n, max_atoms):
        rng = np.random.default_rng(n * 1000 + max_atoms)
        d = random_dist(rng, n)
        got, ref = both_backends(lambda: d.truncate(max_atoms, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)

    @pytest.mark.parametrize("op", ["convolve", "max", "truncate"])
    def test_infinite_atoms(self, op):
        """±inf supports: served when exact, reference when NaN-prone."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            a = random_dist(rng, 20, inf_atom=True)
            b = random_dist(rng, 15, inf_atom=trial % 2 == 0)
            if op == "truncate":
                got, ref = both_backends(lambda: a.truncate(8, MODE_ADAPTIVE))
            else:
                fn = getattr(a, "convolve" if op == "convolve" else "max_with")
                got, ref = both_backends(lambda: fn(b, 8, MODE_ADAPTIVE))
            if ref is not None:
                assert_dist_equal(got, ref)

    def test_duplicate_supports(self):
        """Exactly-equal sums exercise the canonicalising tie path."""
        a = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        b = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 0.25, 0.25])
        got, ref = both_backends(lambda: a.convolve(b, 64, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)
        got, ref = both_backends(lambda: a.max_with(b, 64, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)

    def test_point_masses(self):
        """Degenerate pfail=0 cells collapse to point distributions."""
        p = DiscreteDistribution.point(5.0)
        q = DiscreteDistribution.point(3.0)
        got, ref = both_backends(lambda: p.convolve(q, 4, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)
        assert got.values.tolist() == [8.0]
        got, ref = both_backends(lambda: p.max_with(q, 4, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)
        assert got.values.tolist() == [5.0]

    def test_two_state_pfail_zero(self):
        """pfail=0 two-state laws are Dirac; the algebra must keep them."""
        d = DiscreteDistribution.two_state(10.0, 30.0, 0.0)
        got, ref = both_backends(lambda: d.convolve(d, 8, MODE_ADAPTIVE))
        assert_dist_equal(got, ref)

    @pytest.mark.parametrize("c,n,max_atoms", [(1, 20, 8), (5, 77, 16), (3, 500, 64)])
    def test_rect_bin_rows(self, c, n, max_atoms):
        rng = np.random.default_rng(c * n)
        values = np.sort(rng.normal(50.0, 20.0, (c, n)), axis=1)
        probs = rng.random((c, n))
        probs /= probs.sum(axis=1, keepdims=True)
        native.set_enabled(True)
        gv, gp = _rect_bin_rows(values, probs, max_atoms)
        rv, rp = _rect_bin_rows_py(values, probs, max_atoms)
        # Empty bins divide 0/0 → NaN centres in both implementations.
        assert np.array_equal(gv, rv, equal_nan=True)
        assert np.array_equal(gp, rp)

    def test_rect_mode_truncate_with_zero_mass_pads(self):
        """Rect rows carry zero-mass pad atoms; binning must keep parity."""
        base = DiscreteDistribution(
            np.arange(1.0, 41.0), np.r_[np.full(30, 1 / 30.0), np.zeros(10)]
        )
        got, ref = both_backends(lambda: base.truncate(8, MODE_RECT))
        assert_dist_equal(got, ref)

    @needs_native
    def test_native_actually_served(self):
        """With a compiler present the adaptive ops really go native."""
        rng = np.random.default_rng(3)
        a = random_dist(rng, 30)
        b = random_dist(rng, 30)
        native.set_enabled(True)
        prof = kernel_profile.enable()
        try:
            a.convolve(b, 16, MODE_ADAPTIVE)
            a.max_with(b, 16, MODE_ADAPTIVE)
            snap = prof.snapshot()
        finally:
            kernel_profile.disable()
        assert snap["native_rows"] >= 2
        assert snap["native_miss_rows"] == 0
        assert snap["native_ratio"] == 1.0


#: Finite atom values: a small integer pool (duplicate supports,
#: exactly tied sums) and arbitrary reals.
FUZZ_VALUES = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
#: Atom masses: zero-mass atoms mixed with positive ones.
FUZZ_MASSES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def fuzz_case(draw):
    """``(a, b, max_atoms)``: operands whose widths sit at and around
    ``max_atoms`` (width 1 is a point mass; twice the budget forces the
    truncation branch even after duplicate atoms merge)."""
    max_atoms = draw(st.integers(1, 24))
    widths = st.sampled_from(
        sorted(
            {1, 2, max(1, max_atoms - 1), max_atoms, max_atoms + 1,
             2 * max_atoms + 1}
        )
    )

    def dist():
        n = draw(widths)
        values = draw(st.lists(FUZZ_VALUES, min_size=n, max_size=n))
        if draw(st.integers(0, 3)) == 0:  # a quarter carry a ±inf atom
            values[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([np.inf, -np.inf])
            )
        masses = draw(st.lists(FUZZ_MASSES, min_size=n, max_size=n))
        masses[0] = masses[0] or 1.0  # some atom must carry mass
        return DiscreteDistribution(values, masses)

    return dist(), dist(), max_atoms


def assert_same_outcome(got, ref):
    """Both paths raised (``both_backends`` compared the errors) or both
    returned the same atoms."""
    if ref is None:
        assert got is None
        return
    assert_dist_equal(got, ref)


@needs_native
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # reference on ±inf
class TestNativeDifferentialFuzz:
    """Every native primitive against the python oracle on drawn inputs:
    duplicate supports, ±inf atoms, zero-mass atoms, point masses and
    widths near ``max_atoms``.  The compiled path must reproduce the
    reference exactly or decline (then the reference raises its own
    error on both sides)."""

    @given(fuzz_case())
    @settings(max_examples=150, deadline=None)
    def test_convolve(self, case):
        a, b, max_atoms = case
        assert_same_outcome(
            *both_backends(lambda: a.convolve(b, max_atoms, MODE_ADAPTIVE))
        )

    @given(fuzz_case())
    @settings(max_examples=150, deadline=None)
    def test_max_with(self, case):
        a, b, max_atoms = case
        assert_same_outcome(
            *both_backends(lambda: a.max_with(b, max_atoms, MODE_ADAPTIVE))
        )

    @given(fuzz_case())
    @settings(max_examples=150, deadline=None)
    def test_truncate(self, case):
        a, _b, max_atoms = case
        assert_same_outcome(
            *both_backends(lambda: a.truncate(max_atoms, MODE_ADAPTIVE))
        )

    @given(fuzz_case())
    @settings(max_examples=100, deadline=None)
    def test_rect_binning(self, case):
        """Rect convolve, max and truncate all bin through the native
        row kernel; padded rect rows add zero-mass duplicate atoms."""
        a, b, max_atoms = case

        def padded():
            return a.truncate(max_atoms + 2, MODE_RECT)

        for op in (
            lambda: a.convolve(b, max_atoms, MODE_RECT),
            lambda: a.max_with(b, max_atoms, MODE_RECT),
            lambda: a.truncate(max_atoms, MODE_RECT),
            lambda: padded().convolve(b, max_atoms, MODE_RECT),
            lambda: padded().max_with(b, max_atoms, MODE_RECT),
        ):
            assert_same_outcome(*both_backends(op))


#: Six baseline grids, golden em_some/em_all/em_none pinned from PR 9
#: HEAD (commit a053fa4) as hex float literals — byte-identity, not
#: approximate agreement.  Two cells per grid: ccr 0.01 and 0.1.
GOLDEN_GRIDS = {
    ("montage", 30, 3, 0.01): [
        ("0x1.e931e58c391b6p+9", "0x1.eaf4013646b37p+9", "0x1.43fa358db51a4p+10"),
        ("0x1.0c15d1a06e9b5p+10", "0x1.1ae51105e5541p+10", "0x1.43fa358db51a4p+10"),
    ],
    ("genome", 30, 3, 0.01): [
        ("0x1.5902b85227983p+9", "0x1.5b0ed3ae73001p+9", "0x1.9d97152da2525p+9"),
        ("0x1.72a5881805ec6p+9", "0x1.8d82c6def7dbcp+9", "0x1.9d97152da2525p+9"),
    ],
    ("ligo", 30, 3, 0.01): [
        ("0x1.a8f7713a2b15ep+11", "0x1.aae3abf79e204p+11", "0x1.0097a64567131p+12"),
        ("0x1.c7e0d1b81c055p+11", "0x1.f079b8fba00e2p+11", "0x1.0097a64567131p+12"),
    ],
    ("cybershake", 30, 3, 0.01): [
        ("0x1.c6121f5e2b4e1p+8", "0x1.c4b54605b3144p+8", "0x1.fce399eaae93fp+8"),
        ("0x1.0e48030e3051dp+9", "0x1.4c716026262dcp+9", "0x1.fce399eaae93fp+8"),
    ],
    ("sipht", 30, 3, 0.01): [
        ("0x1.024694f23aec7p+12", "0x1.024694f23aec7p+12", "0x1.402b4912d0c6cp+12"),
        ("0x1.24a98721244f7p+12", "0x1.c248383ddf115p+12", "0x1.402b4912d0c6cp+12"),
    ],
    ("montage", 50, 5, 0.001): [
        ("0x1.11cf6229f75d0p+10", "0x1.12c66e1e84effp+10", "0x1.29d009506dc76p+10"),
        ("0x1.314299f14d6a4p+10", "0x1.3aff26395d60fp+10", "0x1.29d009506dc76p+10"),
    ],
}


class TestGoldenRecords:
    """Default-mode sweeps stay byte-identical to PR 9 HEAD."""

    @pytest.mark.parametrize(
        "family,size,procs,pfail", sorted(GOLDEN_GRIDS), ids=lambda v: str(v)
    )
    @pytest.mark.parametrize("use_native", [True, False], ids=["native", "python"])
    def test_grid(self, family, size, procs, pfail, use_native):
        native.set_enabled(use_native)
        spec = SweepSpec(
            family=family,
            sizes=(size,),
            processors={size: (procs,)},
            pfails=(pfail,),
            ccrs=(0.01, 0.1),
            seed=2017,
            seed_policy="stable",
            name=f"golden-{family}-{size}",
        )
        records = run_sweep(spec, jobs=1)
        golden = GOLDEN_GRIDS[(family, size, procs, pfail)]
        assert len(records) == len(golden)
        for record, (em_some, em_all, em_none) in zip(records, golden):
            assert record.em_some == float.fromhex(em_some)
            assert record.em_all == float.fromhex(em_all)
            assert record.em_none == float.fromhex(em_none)


class TestGracefulDegradation:
    """No compiler → one stderr warning, python fallback, same results."""

    def _break_build(self, monkeypatch, tmp_path):
        native._reset_for_tests()
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_find_compiler", lambda: None)

    def test_build_failure_warns_once_and_falls_back(
        self, monkeypatch, tmp_path, capsys
    ):
        self._break_build(monkeypatch, tmp_path)
        assert native.available() is False
        assert native.enabled() is False
        a = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        out = a.convolve(a, 4, MODE_ADAPTIVE)
        assert out.mean() == pytest.approx(3.0)
        err = capsys.readouterr().err
        warnings = [
            line
            for line in err.splitlines()
            if "native kernels unavailable" in line
        ]
        assert len(warnings) == 1
        assert "falling back to the pure-python kernels" in warnings[0]
        # The warning names the reason, one line, once.
        assert "no C compiler found" in warnings[0]
        a.convolve(a, 4, MODE_ADAPTIVE)
        assert "unavailable" not in capsys.readouterr().err

    def test_status_reports_build_failure(self, monkeypatch, tmp_path):
        self._break_build(monkeypatch, tmp_path)
        status = native.status()
        assert status["backend"] == "python"
        assert status["available"] is False
        assert status["disabled_by"] == "build"
        assert status["build_error"]
        assert all(v == "python" for v in status["ops"].values())

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native._reset_for_tests()
        assert native.enabled() is False
        assert native.status()["disabled_by"] == "env"

    @needs_native
    def test_runtime_switch_round_trip(self):
        native.set_enabled(False)
        assert native.status()["disabled_by"] == "flag"
        assert os.environ["REPRO_NATIVE"] == "0"
        native.set_enabled(True)
        assert native.enabled() is True
        assert native.status()["backend"] == "native"


class TestBuildFlags:
    """Floating-point contraction is pinned off, and the flags key the
    cached object."""

    def test_tag_follows_the_flags(self, monkeypatch):
        tag = native._object_tag()
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-O3",))
        assert native._object_tag() != tag

    def test_compile_command_disables_contraction(self, monkeypatch, tmp_path):
        native._reset_for_tests()
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_find_compiler", lambda: "cc")
        commands = []

        def fake_run(cmd, **kwargs):
            commands.append(cmd)
            return subprocess.CompletedProcess(cmd, 1, "", "refused")

        monkeypatch.setattr(native.subprocess, "run", fake_run)
        assert native.available() is False
        (cmd,) = commands
        assert "-ffp-contract=off" in cmd


class TestDistributionStateContract:
    """The pointer cache never leaks across pickling."""

    @needs_native
    def test_pickle_drops_address_cache(self):
        rng = np.random.default_rng(5)
        native.set_enabled(True)
        d = random_dist(rng, 20).convolve(random_dist(rng, 20), 16, MODE_ADAPTIVE)
        assert d._addrs is not None  # native outputs pre-seed the cache
        clone = pickle.loads(pickle.dumps(d))
        assert clone._addrs is None
        assert_dist_equal(clone, d)

    def test_constructed_dists_start_unresolved(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        assert d._addrs is None


class TestKernelsCli:
    def test_table(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "distribution kernel backends" in out
        for op in ("convolve", "max", "truncate", "rect_bin"):
            assert op in out
        assert "backend:" in out

    def test_json(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] in ("native", "python")
        assert set(payload["ops"]) == {"convolve", "max", "truncate", "rect_bin"}

    def test_reflects_env_off(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native._reset_for_tests()
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "disabled by: env" in out


class TestStoreCli:
    def _fill_store(self, path):
        argv = [
            "submit", "--local", "--store", str(path),
            "--family", "genome", "--ntasks", "20", "--processors", "3",
        ]
        assert main(argv) == 0

    def test_export_import_round_trip(self, tmp_path, capsys):
        src = tmp_path / "src.db"
        dst = tmp_path / "dst.db"
        dump = tmp_path / "dump.jsonl"
        self._fill_store(src)
        capsys.readouterr()
        assert main(["store", "export", "--store", str(src), "--out", str(dump)]) == 0
        assert "exported 1 entries" in capsys.readouterr().out
        assert main(["store", "import", str(dump), "--store", str(dst)]) == 0
        assert "imported 1 new entries" in capsys.readouterr().out
        # Re-import is idempotent: fingerprints dedupe.
        assert main(["store", "import", str(dump), "--store", str(dst)]) == 0
        assert "imported 0 new entries" in capsys.readouterr().out
        from repro.service.store import ResultStore

        with ResultStore(src) as a, ResultStore(dst) as b:
            assert a.export_jsonl() == b.export_jsonl()

    def test_export_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "src.db"
        self._fill_store(src)
        capsys.readouterr()
        assert main(["store", "export", "--store", str(src)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        import json

        payload = json.loads(line)
        assert {"fingerprint", "request", "record"} <= set(payload)

    def test_export_missing_store(self, tmp_path, capsys):
        assert main(["store", "export", "--store", str(tmp_path / "no.db")]) == 2
        assert "no store at" in capsys.readouterr().err

    def test_import_missing_dump(self, tmp_path, capsys):
        assert main(["store", "import", str(tmp_path / "no.jsonl")]) == 2
        assert "no dump at" in capsys.readouterr().err

    def test_import_rejects_tampered_dump(self, tmp_path, capsys):
        src = tmp_path / "src.db"
        dump = tmp_path / "dump.jsonl"
        self._fill_store(src)
        capsys.readouterr()
        assert main(["store", "export", "--store", str(src), "--out", str(dump)]) == 0
        text = dump.read_text().replace('"ccr": 0.01', '"ccr": 0.02')
        dump.write_text(text)
        assert main(["store", "import", str(dump), "--store", str(tmp_path / "d.db")]) == 2
        assert "import failed" in capsys.readouterr().err


class TestSweepNoNativeFlag:
    def test_records_identical_and_env_mirrored(self, tmp_path, capsys):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        base = [
            "sweep", "--family", "genome", "--sizes", "20",
            "--processors", "3", "--pfails", "0.01",
            "--ccrs", "0.05", "--quiet",
        ]
        assert main(base + ["--out", str(on)]) == 0
        assert main(base + ["--no-native", "--out", str(off)]) == 0
        assert on.read_text() == off.read_text()
        assert os.environ["REPRO_NATIVE"] == "0"
