"""Tests for the compiled distribution kernels (repro.makespan.native).

Five contracts are pinned here:

* **bit-identity** — every native primitive (convolve / max /
  truncate) returns atom-for-atom the arrays the pure-python numpy
  reference produces, across ragged sizes, duplicate supports,
  infinite atoms and degenerate pfail=0 cells; inputs the compiled kernel declines fall
  back to the reference (including its error behaviour).  A hypothesis
  differential fuzz drives the same edge cases through every primitive
  at operand widths around ``max_atoms``.
* **golden records** — six baseline family grids sweep to records
  byte-identical to PR 9 HEAD (values pinned as hex float literals),
  with the native kernels on and off.
* **fold replay** — the C tape replay prices random templates exactly
  as the python loop does; a cell whose step declines finishes on that
  loop, arenas grow mid-tape, and the kernel counters match the loop's
  op for op.
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
from repro.errors import EvaluationError
from repro.makespan import foldplan, native
from repro.makespan import profile as kernel_profile
from repro.makespan.distribution import DiscreteDistribution
from repro.makespan.paramdag import ParamDAG
from repro.makespan.pathapprox import pathapprox_batch

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
        got, ref = both_backends(lambda: fn(b, max_atoms))
        assert_dist_equal(got, ref)

    @pytest.mark.parametrize("n,max_atoms", [(5, 4), (100, 16), (700, 64)])
    def test_truncate(self, n, max_atoms):
        rng = np.random.default_rng(n * 1000 + max_atoms)
        d = random_dist(rng, n)
        got, ref = both_backends(lambda: d.truncate(max_atoms))
        assert_dist_equal(got, ref)

    @pytest.mark.parametrize("op", ["convolve", "max", "truncate"])
    def test_infinite_atoms(self, op):
        """±inf supports: served when exact, reference when NaN-prone."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            a = random_dist(rng, 20, inf_atom=True)
            b = random_dist(rng, 15, inf_atom=trial % 2 == 0)
            if op == "truncate":
                got, ref = both_backends(lambda: a.truncate(8))
            else:
                fn = getattr(a, "convolve" if op == "convolve" else "max_with")
                got, ref = both_backends(lambda: fn(b, 8))
            if ref is not None:
                assert_dist_equal(got, ref)

    def test_duplicate_supports(self):
        """Exactly-equal sums exercise the canonicalising tie path."""
        a = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        b = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 0.25, 0.25])
        got, ref = both_backends(lambda: a.convolve(b, 64))
        assert_dist_equal(got, ref)
        got, ref = both_backends(lambda: a.max_with(b, 64))
        assert_dist_equal(got, ref)

    def test_point_masses(self):
        """Degenerate pfail=0 cells collapse to point distributions."""
        p = DiscreteDistribution.point(5.0)
        q = DiscreteDistribution.point(3.0)
        got, ref = both_backends(lambda: p.convolve(q, 4))
        assert_dist_equal(got, ref)
        assert got.values.tolist() == [8.0]
        got, ref = both_backends(lambda: p.max_with(q, 4))
        assert_dist_equal(got, ref)
        assert got.values.tolist() == [5.0]

    def test_two_state_pfail_zero(self):
        """pfail=0 two-state laws are Dirac; the algebra must keep them."""
        d = DiscreteDistribution.two_state(10.0, 30.0, 0.0)
        got, ref = both_backends(lambda: d.convolve(d, 8))
        assert_dist_equal(got, ref)

    @needs_native
    def test_native_actually_served(self):
        """With a compiler present the kernel ops really go native."""
        rng = np.random.default_rng(3)
        a = random_dist(rng, 30)
        b = random_dist(rng, 30)
        native.set_enabled(True)
        prof = kernel_profile.enable()
        try:
            a.convolve(b, 16)
            a.max_with(b, 16)
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


@st.composite
def replay_case(draw):
    """``(template, k, max_atoms)``: a layered DAG whose nodes each join
    one or more nodes of the layer before (shared nodes, overlapping
    paths), over cells whose laws include ``p`` of 0 and 1 and
    ``long == base``, with an atom budget small enough to truncate."""
    preds = []
    prev = []
    for _depth in range(draw(st.integers(1, 4))):
        layer = []
        for _ in range(draw(st.integers(1, 3))):
            joined = draw(st.lists(st.sampled_from(prev), unique=True,
                                   min_size=1, max_size=len(prev))) if prev else []
            layer.append(len(preds))
            preds.append(sorted(joined))
        prev = layer
    n = len(preds)
    succs = [[v for v in range(n) if u in preds[v]] for u in range(n)]
    n_cells = draw(st.integers(1, 3))

    def matrix(elements):
        return np.array(
            draw(st.lists(elements, min_size=n * n_cells, max_size=n * n_cells))
        ).reshape(n_cells, n)

    base = matrix(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]),
                            st.floats(0.5, 50.0)))
    stretch = matrix(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    p = matrix(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
    template = ParamDAG(
        [f"t{v}" for v in range(n)], preds, succs, base, base * stretch, p
    )
    return template, draw(st.integers(1, 6)), draw(st.integers(1, 6))


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
        assert_same_outcome(*both_backends(lambda: a.convolve(b, max_atoms)))

    @given(fuzz_case())
    @settings(max_examples=150, deadline=None)
    def test_max_with(self, case):
        a, b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.max_with(b, max_atoms)))

    @given(fuzz_case())
    @settings(max_examples=150, deadline=None)
    def test_truncate(self, case):
        a, _b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.truncate(max_atoms)))

    @given(replay_case())
    @settings(max_examples=60, deadline=None)
    def test_fold_replay(self, case):
        """The C tape replay against the python loop, adaptive and with
        a pinned path budget."""
        template, k, max_atoms = case
        for budget in (None, k):
            got, ref = both_backends(
                lambda: pathapprox_batch(template, k=budget, max_atoms=max_atoms)
            )
            assert [v.hex() for v in got] == [v.hex() for v in ref]


def replay_template(n_cells=4, seed=0):
    """Four layers of two nodes, each joined to both nodes of the layer
    before (16 paths, so the first budget holds every node)."""
    preds = [[]] * 2 + [[2 * d, 2 * d + 1] for d in range(3) for _ in range(2)]
    succs = [[v for v in range(8) if u in preds[v]] for u in range(8)]
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 10.0, (n_cells, 8))
    return ParamDAG(
        [f"t{v}" for v in range(8)], preds, succs, base,
        base * rng.uniform(1.2, 3.0, (n_cells, 8)),
        rng.uniform(0.05, 0.5, (n_cells, 8)),
    )


@needs_native
class TestNativeReplay:
    """The C replay's exits: a declined step, a full arena, and the
    kernel counters the replay reports."""

    #: The cell and node whose law is replaced by a planted one.
    CELL, NODE = 2, 5

    @pytest.mark.parametrize(
        "values, probs",
        [([1.0, np.nan], [0.5, 0.5]), ([1.0], [0.0])],
        ids=["nan-atom-value", "zero-mass-error"],
    )
    def test_declined_cell_finishes_on_the_python_loop(
        self, monkeypatch, values, probs
    ):
        """No valid template reaches a native decline, so one cell gets
        a law the C kernels refuse: a NaN atom (the python loop prices
        it) or no mass at all (the python loop raises).  That cell ends
        as the python loop ends it; the others keep their native
        values."""
        template = replay_template()
        native.set_enabled(True)
        clean = pathapprox_batch(template)
        real = foldplan.two_state_rows
        calls = []

        def planted(base, long, p):
            rows = real(base, long, p)
            if len(calls) % template.n == self.NODE:
                rows[self.CELL] = DiscreteDistribution._wrap(
                    np.array(values), np.array(probs)
                )
            calls.append(1)
            return rows

        monkeypatch.setattr(foldplan, "two_state_rows", planted)
        prof = kernel_profile.enable()
        try:
            pathapprox_batch(template)
        except EvaluationError as exc:
            assert "probabilities sum to" in str(exc)
        finally:
            kernel_profile.disable()
        # Per-op kernel calls happen only on the python loop, which a
        # native run reaches only through the declined cell.
        assert prof.counters["native_miss_convolve"]["rows"] >= 1
        assert prof.counters["native_convolve"]["rows"] >= 1
        got, ref = both_backends(lambda: pathapprox_batch(template))
        if ref is None:  # both raised the same error (both_backends)
            return
        assert got[self.CELL].hex() == ref[self.CELL].hex()
        others = [c for c in range(template.n_cells) if c != self.CELL]
        assert [got[c].hex() for c in others] == [clean[c].hex() for c in others]

    def test_every_arena_grows_mid_tape(self, monkeypatch):
        """Arenas that start at their leaf laws' size grow on their first
        step and resume there; the results still equal the python
        loop's."""
        template = replay_template(n_cells=5, seed=1)
        monkeypatch.setattr(foldplan, "_ARENA_ATOMS", 1)
        real = native.replay_tape
        grown = set()

        def counted(tape, off, length, values, probs, max_atoms, cursor, ran):
            status = real(tape, off, length, values, probs, max_atoms, cursor, ran)
            if status == native.TAPE_GROW:
                grown.add(id(cursor))
            return status

        monkeypatch.setattr(native, "replay_tape", counted)
        got, ref = both_backends(lambda: pathapprox_batch(template))
        assert [v.hex() for v in got] == [v.hex() for v in ref]
        assert len(grown) == template.n_cells

    def test_counters_match_the_python_loop(self):
        """Each tape step is one native row, as each python-loop step is
        one kernel call; the replay passes record the same width."""
        spec = SweepSpec(
            family="montage", sizes=(30,), processors={30: (3,)},
            pfails=(0.01,), ccrs=(0.01, 0.1), seed=2017,
            seed_policy="stable",
        )

        def counters(flag):
            native.set_enabled(flag)
            prof = kernel_profile.enable()
            try:
                run_sweep(spec, jobs=1)
            finally:
                kernel_profile.disable()
            return prof.counters

        on, off = counters(True), counters(False)
        assert on["native_convolve"]["rows"] == off["convolve"]["calls"] > 0
        assert on["native_max"]["rows"] == off["max"]["calls"] > 0
        assert on["pool_exec"] == off["pool_exec"]
        assert not any(op.startswith("native_miss_") for op in on)


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
        out = a.convolve(a, 4)
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
        a.convolve(a, 4)
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
        d = random_dist(rng, 20).convolve(random_dist(rng, 20), 16)
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
        for op in ("convolve", "max", "truncate"):
            assert op in out
        assert "backend:" in out

    def test_json(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] in ("native", "python")
        assert set(payload["ops"]) == {"convolve", "max", "truncate"}

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
