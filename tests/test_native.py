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
* **Clark fold** — the C fold of Sculli's method prices drawn
  templates exactly as the scalar fold does, run per cell over the
  template's rows and over each materialised cell, and a library whose
  ``erf``/``exp`` fail the load-time probe declines the op for the
  process (the scalar fold then runs);
* **k-best DP** — the C path enumeration returns the masks of the numpy
  DP and of the scalar ``k_longest_paths`` on drawn templates, serves
  every cell whose path lengths are distinct, declines a cell whose
  truncating node ties (numpy then prices it) and declines a malformed
  call before it writes anything;
* **fold replay** — the C demand replay over a call's step table
  prices random and wide templates exactly as the python loop does; a
  cell whose step declines finishes on that loop, arenas grow mid-walk,
  a malformed table declines, every step is compiled and run once
  across budget rounds, the kernel counters match the loop's op for op,
  and a call leaves no cyclic garbage.
* **graceful degradation** — a failed build warns once on stderr,
  names the fallback, and leaves every operation serving from the
  python path; ``repro kernels`` and ``native.status()`` report which
  backend is live and why.
* **CLI surface** — ``repro kernels`` renders the per-op table and
  ``repro store export`` / ``repro store import`` round-trip a result
  store through JSONL.
"""

import gc
import math
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
from repro.makespan.api import expected_makespans
from repro.makespan.distribution import DiscreteDistribution
from repro.makespan.normal import normal, normal_batch
from repro.makespan.paramdag import ParamDAG
from repro.makespan.pathapprox import (
    _k_best_paths_cells,
    k_longest_paths,
    pathapprox,
    pathapprox_batch,
)

from conftest import fuzz_examples, group_dags, tied_path_template

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


def priced_laws(fn):
    """``fn()``'s result, and the atoms of every law whose mean it took
    (PathApprox takes one per cell and budget round: the fold's root),
    as a sorted list of hex strings."""
    laws = []
    real = DiscreteDistribution.mean

    def mean(law):
        atoms = np.concatenate((law.values, law.probs)).tolist()
        laws.append(" ".join(x.hex() for x in atoms))
        return real(law)

    DiscreteDistribution.mean = mean
    try:
        out = fn()
    finally:
        DiscreteDistribution.mean = real
    return out, sorted(laws)


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
    """``(template, k, max_atoms)``: a DAG of up to four layers whose
    nodes each join one or more nodes of any earlier layer (shared
    nodes, overlapping paths, and skip edges, so a path can be a subset
    of another and a fold group can hold a path equal to its common
    nodes), over cells whose laws include ``p`` of 0 and 1 and ``long ==
    base``, with an atom budget small enough to truncate."""
    preds = []
    for _depth in range(draw(st.integers(1, 4))):
        earlier = range(len(preds))
        for _ in range(draw(st.integers(1, 3))):
            joined = draw(st.lists(st.sampled_from(earlier), unique=True,
                                   min_size=1)) if earlier else []
            preds.append(sorted(joined))
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


@st.composite
def column_case(draw):
    """``(a, b, max_atoms)`` with more atoms in ``a`` than in ``b``: the
    convolve's column layout.  Atoms sit on a coarse grid (exactly tied
    sums across rows and columns), and one operand may sit near up to
    1e16, where an ulp exceeds the grid step, so sums of distinct atoms
    also tie by rounding.  Masses differ, so the order in which tied
    atoms merge shows in the last bits."""
    nb = draw(st.integers(1, 6))
    na = draw(st.integers(nb + 1, 40))
    step = draw(st.sampled_from([1.0, 0.5, 0.25, 3.0]))
    offset = draw(st.sampled_from([0.0, 1e6, 2.0**52, 1e15, 1e16]))

    def dist(n, shift):
        grid = draw(st.lists(st.integers(-48, 48), min_size=n, max_size=n,
                             unique=True))
        masses = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
        return DiscreteDistribution([shift + step * x for x in grid], masses)

    big_first = draw(st.booleans())
    a = dist(na, offset if big_first else 0.0)
    b = dist(nb, 0.0 if big_first else offset)
    return a, b, draw(st.integers(1, 2 * na * nb))


@st.composite
def normal_case(draw):
    """A layered template whose nodes each join up to 8 nodes of earlier
    layers, in drawn order, over cells whose durations include zero
    variance (``p`` of 0 or 1, ``long == base``: a pair of them takes
    Clark's degenerate branch), equal means (a small pool of bases) and
    magnitudes up to 1e300 (``v1 * v2`` overflows, and ``0.0 * inf``
    gives NaN)."""
    preds = []
    for _depth in range(draw(st.integers(1, 5))):
        earlier = list(range(len(preds)))
        for _ in range(draw(st.integers(1, 4))):
            preds.append(
                draw(st.lists(st.sampled_from(earlier), unique=True,
                              max_size=min(8, len(earlier))))
                if earlier else []
            )
    n = len(preds)
    succs = [[v for v in range(n) if u in preds[v]] for u in range(n)]
    n_cells = draw(st.integers(1, 4))

    def matrix(elements):
        return np.array(
            draw(st.lists(elements, min_size=n * n_cells, max_size=n * n_cells))
        ).reshape(n_cells, n)

    base = matrix(st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 1e-200, 1e150, 1e300]),
        st.floats(0.0, 1e3),
    ))
    stretch = matrix(st.sampled_from([1.0, 1.5, 3.0]))
    p = matrix(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
    return ParamDAG(
        [f"t{v}" for v in range(n)], preds, succs, base, base * stretch, p
    )


#: How a cell's means are drawn: a small pool with zero (tied path
#: lengths), floats from a drawn seed (distinct path lengths, also at
#: 1e300), or floats near the top of the double range (any two sum to
#: inf, so path lengths tie at inf).
KBEST_MODES = ("pool", "floats", "huge")


def means_template(preds, means):
    """A template whose node ``v`` of cell ``c`` has mean
    ``means[c, v]`` exactly: ``base == long`` and ``p`` 0."""
    n = len(preds)
    succs = [[v for v in range(n) if u in preds[v]] for u in range(n)]
    return ParamDAG(
        [f"t{v}" for v in range(n)], preds, succs, means, means,
        np.zeros_like(means),
    )


@st.composite
def kbest_case(draw):
    """``(template, k, var_rank, modes)``: a chain of 0, 58 or 120 nodes
    (path masks of one to three 63-bit words) followed by layers whose
    nodes each join up to 20 earlier nodes in drawn order (or none: a
    later source), over 1–4 cells whose means are drawn per cell by one
    of :data:`KBEST_MODES`, with a random rank permutation per cell and
    a budget from 1 to past the path count."""
    chain = draw(st.sampled_from([0, 58, 120]))
    preds = [[v - 1] if v else [] for v in range(chain)]
    for _depth in range(draw(st.integers(1, 5))):
        earlier = list(range(len(preds)))
        for _ in range(draw(st.integers(1, 6))):
            preds.append(
                draw(st.lists(st.sampled_from(earlier), unique=True,
                              max_size=min(20, len(earlier))))
                if earlier else []
            )
    n = len(preds)
    modes = draw(
        st.lists(st.sampled_from(KBEST_MODES), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for mode in modes:
        if mode == "pool":
            rows.append(rng.choice([0.0, 1.0, 2.0, 3.0], n))
        elif mode == "floats":
            scale = draw(st.sampled_from([1.0, 1e300]))
            rows.append(rng.uniform(0.5, 1.0, n) * scale)
        else:
            rows.append(rng.uniform(0.5, 1.0, n) * 1.7e308)
    var_rank = np.array([rng.permutation(n) for _ in modes], dtype=np.int64)
    k = draw(st.one_of(st.integers(1, 40), st.sampled_from([100, 600])))
    return means_template(preds, np.array(rows)), k, var_rank, modes


def scalar_masks(template, k, var_rank):
    """Per cell, the scalar ``k_longest_paths`` as rank-space masks."""
    return [
        [
            sum(1 << int(var_rank[c, v]) for v in path)
            for path in k_longest_paths(template.cell(c), k)
        ]
        for c in range(template.n_cells)
    ]


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
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_convolve(self, case):
        a, b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.convolve(b, max_atoms)))

    @given(fuzz_case())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_max_with(self, case):
        a, b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.max_with(b, max_atoms)))

    @given(fuzz_case())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_truncate(self, case):
        a, _b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.truncate(max_atoms)))

    @given(column_case())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_convolve_column_ties(self, case):
        """The column layout (more atoms in the first operand) merges
        tied sums in flat-index order, as numpy's stable argsort does."""
        a, b, max_atoms = case
        assert_same_outcome(*both_backends(lambda: a.convolve(b, max_atoms)))

    @given(normal_case())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_normal_fold(self, template):
        """The C Clark fold, the scalar fold over the template's rows
        (native off) and the scalar estimator of each materialised cell
        agree under ``float.hex``."""
        native.set_enabled(True)
        prof = kernel_profile.enable()
        try:
            got = normal_batch(template)
        finally:
            kernel_profile.disable()
        assert prof.counters["native_normal"]["rows"] == template.n_cells
        native.set_enabled(False)
        ref = normal_batch(template)
        scalar = [normal(template.cell(c)) for c in range(template.n_cells)]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]
        assert [v.hex() for v in ref.tolist()] == [v.hex() for v in scalar]

    @given(kbest_case())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_k_best(self, case):
        """The C k-best DP, the numpy DP (native off) and each cell's
        scalar ``k_longest_paths`` give the same rank masks, and every
        cell drawn with distinct float means is served by the C (its
        ``native_kbest`` row), so no case passes by declining."""
        template, k, var_rank, modes = case
        args = (template.preds, template.sinks(), template.means, k, var_rank)
        native.set_enabled(True)
        prof = kernel_profile.enable()
        try:
            got = _k_best_paths_cells(*args)
        finally:
            kernel_profile.disable()
        _masks, served = native.k_best_paths(*args)
        hits = prof.counters.get("native_kbest", {"rows": 0})["rows"]
        assert hits == np.count_nonzero(served)
        floats = [c for c, mode in enumerate(modes) if mode == "floats"]
        assert served[floats].all()
        native.set_enabled(False)
        ref = _k_best_paths_cells(*args)
        assert got == ref
        assert ref == scalar_masks(template, k, var_rank)

    @given(replay_case())
    @settings(max_examples=fuzz_examples(60), deadline=None)
    def test_fold_replay(self, case):
        """The C tape replay against the python loop, and both against
        the per-cell scalar estimator (its own path enumeration and
        recursive fold, no compile), adaptive and with a pinned path
        budget: the estimates under ``float.hex``, and the root law of
        every cell and round atom for atom (an extra or missing step
        moves a law's last bits far more often than its mean's)."""
        template, k, max_atoms = case
        for budget in (None, k):
            (got, got_laws), (ref, ref_laws) = both_backends(
                lambda: priced_laws(
                    lambda: pathapprox_batch(
                        template, k=budget, max_atoms=max_atoms
                    )
                )
            )
            scalar, scalar_laws = priced_laws(
                lambda: [
                    pathapprox(template.cell(c), k=budget, max_atoms=max_atoms)
                    for c in range(template.n_cells)
                ]
            )
            assert [v.hex() for v in got] == [v.hex() for v in ref]
            assert [v.hex() for v in ref] == [v.hex() for v in scalar]
            assert got_laws == ref_laws == scalar_laws


def layered_template(widths, n_cells, seed):
    """Layers of the given widths, each node joined to every node of the
    layer before; random 2-state laws per cell."""
    preds, prev = [], []
    for width in widths:
        layer = list(range(len(preds), len(preds) + width))
        preds += [list(prev) for _ in layer]
        prev = layer
    n = len(preds)
    succs = [[v for v in range(n) if u in preds[v]] for u in range(n)]
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 10.0, (n_cells, n))
    return ParamDAG(
        [f"t{v}" for v in range(n)], preds, succs, base,
        base * rng.uniform(1.2, 3.0, (n_cells, n)),
        rng.uniform(0.05, 0.5, (n_cells, n)),
    )


def replay_template(n_cells=4, seed=0):
    """Four layers of two nodes, each joined to both nodes of the layer
    before (16 paths, so the first budget holds every node)."""
    return layered_template([2] * 4, n_cells, seed)


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
            rows[self.CELL, self.NODE] = DiscreteDistribution._wrap(
                np.array(values), np.array(probs)
            )
            calls.append(base.shape)
            return rows

        monkeypatch.setattr(foldplan, "two_state_rows", planted)
        prof = kernel_profile.enable()
        try:
            pathapprox_batch(template)
        except EvaluationError as exc:
            assert "probabilities sum to" in str(exc)
        finally:
            kernel_profile.disable()
        # One builder pass over the template's (cells, n) planes.
        assert calls == [(template.n_cells, template.n)]
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
        step and the walk resumes from the root; the results still equal
        the python loop's."""
        template = replay_template(n_cells=5, seed=1)
        monkeypatch.setattr(foldplan, "_ARENA_ATOMS", 1)
        real = native.replay_tape
        grown = set()

        def counted(table, root, off, length, values, probs, max_atoms,
                    cursor, ran):
            status = real(table, root, off, length, values, probs,
                          max_atoms, cursor, ran)
            if status == native.TAPE_GROW:
                grown.add(id(cursor))
            return status

        monkeypatch.setattr(native, "replay_tape", counted)
        got, ref = both_backends(lambda: pathapprox_batch(template))
        assert [v.hex() for v in got] == [v.hex() for v in ref]
        assert len(grown) == template.n_cells

    def test_rows_equal_the_tables_steps(self, monkeypatch):
        """One cell over three budget rounds (seven layers of two nodes:
        128 paths against budgets of 32, 64 and 128) shares one step
        table, and no step is compiled or run twice across the rounds:
        the native rows, and the python loop's kernel calls, equal the
        table's convolve and max slots; each later round adds fewer
        slots than its fold compiled alone; and compiling a round's
        paths again adds nothing and returns that round's root."""
        template = layered_template([2] * 7, n_cells=1, seed=3)
        leaves = template.n + 1
        rounds, sizes = [], []
        real_compile = foldplan.compile_fold_plan
        real_execute = foldplan.execute_plans

        def compile_fold_plan(order, paths):
            root = real_compile(order, paths)
            rounds.append((order, list(paths), root))
            return root

        def execute_plans(work, table, max_atoms):
            sizes.append((table, len(table.steps) // 3))
            return real_execute(work, table, max_atoms)

        monkeypatch.setattr(foldplan, "compile_fold_plan", compile_fold_plan)
        monkeypatch.setattr(foldplan, "execute_plans", execute_plans)

        def counters(flag):
            native.set_enabled(flag)
            rounds.clear()
            sizes.clear()
            prof = kernel_profile.enable()
            try:
                pathapprox_batch(template)
            finally:
                kernel_profile.disable()
            return prof.counters

        on = counters(True)
        assert len(rounds) == 3 and len({id(t) for t, _ in sizes}) == 1
        table = sizes[0][0]
        kinds = table.steps[3 * leaves :: 3]
        assert on["native_convolve"]["rows"] == kinds.count(0) > 0
        assert on["native_max"]["rows"] == kinds.count(1) > 0
        added = np.diff([leaves] + [size for _t, size in sizes])
        for (order, paths, _root), new in list(zip(rounds, added))[1:]:
            alone = foldplan._StepTable(template.n)
            real_compile(foldplan._Order(alone, order.node), paths)
            assert 0 < new < len(alone.steps) // 3 - leaves
        total = len(table.steps)
        for order, paths, root in rounds:
            assert real_compile(order, paths) == root
        assert len(table.steps) == total
        off = counters(False)
        assert off["convolve"]["calls"] == kinds.count(0)
        assert off["max"]["calls"] == kinds.count(1)

    @pytest.mark.parametrize(
        "steps, root",
        [
            ([(0, 0, 4), (0, 3, 1)], 4),  # slot 3 reads the later slot 4
            ([(0, 3, 1)], 3),  # slot 3 reads itself
            ([(0, -1, 1)], 3),  # a negative operand
            ([(2, 1, 2)], 3),  # no such kind
            ([(0, 1, 2)], 4),  # the root is past the table
            ([(0, 1, 2)], -1),
        ],
        ids=["later", "self", "negative", "kind", "root-past", "root-negative"],
    )
    def test_malformed_table_declines(self, steps, root):
        """A step whose operand does not index an earlier slot, an
        unknown kind or a root outside the table declines before any
        kernel runs, so a cycle cannot grow the walk's stack."""
        native.set_enabled(True)
        assert native.enabled()  # loads the library
        leaves = [
            DiscreteDistribution.point(0.0),
            DiscreteDistribution([1.0, 2.0], [0.5, 0.5]),
            DiscreteDistribution([3.0, 5.0], [0.25, 0.75]),
        ]
        arena = foldplan._Arena(
            [d.values.size for d in leaves],
            np.concatenate([d.values for d in leaves]),
            np.concatenate([d.probs for d in leaves]),
        )
        table = np.array([-1] * 9 + [x for step in steps for x in step],
                         dtype=np.int32)
        ran = np.zeros(2, dtype=np.int64)
        assert not arena.replay(table, root, 8, ran)
        assert ran.tolist() == [0, 0]
        assert arena.length[3:].tolist() == [0] * (arena.length.size - 3)

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


class TestStepTable:
    """The step table's call-scoped state and its rank-space masks."""

    @pytest.mark.parametrize(
        "use_native",
        [pytest.param(True, marks=needs_native), False],
        ids=["native", "python"],
    )
    def test_no_cyclic_garbage(self, use_native):
        """The compile memos, step table and slot stores are plain
        objects without reference cycles: a call leaves nothing for the
        cycle collector (an 18-node, 4-cell template)."""
        native.set_enabled(use_native)
        template = layered_template([2] * 9, n_cells=4, seed=0)
        pathapprox_batch(template)  # imports and the native build
        gc.collect()
        gc.disable()
        try:
            pathapprox_batch(template)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_two_slots_share_a_triple(self, monkeypatch):
        """The table is hash-consed: a repeated ``(kind, a, b)`` gets the
        slot of its first emit, so no op runs twice on the same operands
        (seven layers of two nodes, one cell, three budget rounds; an
        unshared table repeats 18 of its 136 non-leaf triples)."""
        template = layered_template([2] * 7, n_cells=1, seed=3)
        tables = []
        real = foldplan.execute_plans

        def execute_plans(work, table, max_atoms):
            tables.append(table)
            return real(work, table, max_atoms)

        monkeypatch.setattr(foldplan, "execute_plans", execute_plans)
        pathapprox_batch(template)
        (table,) = {id(t): t for t in tables}.values()
        steps = table.steps[3 * (template.n + 1):]
        triples = [tuple(steps[i : i + 3]) for i in range(0, len(steps), 3)]
        assert len(triples) > 100
        assert len(set(triples)) == len(triples)
        assert table.slots == {
            t: template.n + 1 + s for s, t in enumerate(triples)
        }

    @needs_native
    @pytest.mark.parametrize(
        "widths",
        [
            [1] * 6 + [3] + [1] * 12 + [3] + [1] * 12 + [3] + [1] * 12
            + [3] + [1] * 16,
            [1] * 12 + [3] + [1] * 30 + [3] + [1] * 30 + [3] + [1] * 30
            + [3] + [1] * 26,
        ],
        ids=["70-nodes", "140-nodes"],
    )
    @pytest.mark.parametrize("k", [None, 20], ids=["adaptive", "k20"])
    def test_wide_templates_span_mask_words(self, widths, k):
        """70 and 140 nodes: path masks of two and three 63-bit words,
        81 paths of three budget rounds.  Native on, native off and the
        per-cell scalar estimator agree under ``float.hex``."""
        template = layered_template(widths, n_cells=2, seed=len(widths))
        assert template.n == sum(widths) in (70, 140)
        got, ref = both_backends(lambda: pathapprox_batch(template, k=k))
        scalar = [pathapprox(template.cell(c), k=k) for c in range(2)]
        assert [v.hex() for v in got] == [v.hex() for v in ref]
        assert [v.hex() for v in ref] == [v.hex() for v in scalar]


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


#: A GENOME-300 grid priced by Clark's normal method, pinned from commit
#: 9aa6afa (before the C Clark fold and the cut-vector plans) as hex
#: float literals: CCRs 1e-3 and 1e-2, whose CKPTSOME plans (89 and 71
#: segments) cut the schedule differently from CKPTALL's 297.
GOLDEN_NORMAL = [
    ("0x1.07c2057acf6c8p+10", "0x1.0885c3dcccb7dp+10", "0x1.32f3300c0460ap+10",
     89, 297),
    ("0x1.0f88d61b85d6cp+10", "0x1.1475452a37a99p+10", "0x1.32f3300c0460ap+10",
     71, 297),
]


class TestGoldenNormalRecords:
    """A Normal sweep stays byte-identical to the pinned records."""

    @pytest.mark.parametrize("use_native", [True, False], ids=["native", "python"])
    def test_grid(self, use_native):
        native.set_enabled(use_native)
        spec = SweepSpec(
            family="genome",
            sizes=(300,),
            processors={300: (18,)},
            pfails=(1e-3,),
            ccrs=(1e-3, 1e-2),
            seed=2017,
            method="normal",
            seed_policy="stable",
            name="golden-normal",
        )
        records = run_sweep(spec, jobs=1)
        assert [
            (r.em_some.hex(), r.em_all.hex(), r.em_none.hex(),
             r.checkpoints_some, r.checkpoints_all)
            for r in records
        ] == [
            (float.fromhex(s).hex(), float.fromhex(a).hex(),
             float.fromhex(n).hex(), cs, ca)
            for s, a, n, cs, ca in GOLDEN_NORMAL
        ]


@needs_native
class TestNativeNormalFold:
    """A pinned case of the C Clark fold, and its load-time check of
    libm's ``erf`` and ``exp``."""

    def test_second_moment_rounding(self):
        """Sinks ``c`` (the max of sources ``a`` and ``b``) and ``d``: the
        last bit of ``c``'s ready variance reaches the estimate through
        the sinks' fold.  Re-associating the second moment's
        ``(m1 + m2) * a * pdf`` as ``(m1 + m2) * (a * pdf)`` in the C fold
        moves that bit (a drawn counterexample; the fuzz meets such a
        template in roughly one draw in two hundred)."""
        template = ParamDAG(
            ["a", "b", "c", "d"], [[], [], [0, 1], []], [[2], [2], [], []],
            np.array([[18.0, 19.7, 8.9, 15.5]]),
            np.array([[36.0, 59.1, 13.4, 46.5]]),
            np.array([[0.1, 0.2, 0.5, 0.25]]),
        )
        got, ref = both_backends(lambda: normal_batch(template))
        assert got[0].hex() == ref[0].hex() == normal(template.cell(0)).hex()

    def test_probe_mismatch_declines_the_fold(self, monkeypatch):
        """An ``erf`` one ulp off python's at every probe point makes the
        probe fail: the fold's op reports ``"python"`` for the process
        (the other ops stay native), a Normal sweep's cells are recorded
        as ``native_miss_normal`` rows, and its records still equal the
        pinned ones."""
        native._reset_for_tests()
        native.set_enabled(True)
        real_erf = math.erf
        with monkeypatch.context() as patch:
            patch.setattr(
                math, "erf", lambda x: math.nextafter(real_erf(x), math.inf)
            )
            ops = native.status()["ops"]
        assert ops == {
            "convolve": "native", "max": "native", "truncate": "native",
            "normal": "python", "kbest": "native",
        }
        prof = kernel_profile.enable()
        try:
            TestGoldenNormalRecords().test_grid(use_native=True)
        finally:
            kernel_profile.disable()
        assert "native_normal" not in prof.counters
        assert prof.counters["native_miss_normal"]["rows"] == 4
        assert native.status()["ops"]["normal"] == "python"


#: A diamond (0 -> 1, 0 -> 2, {1, 2} -> 3) over two cells, as the C
#: k-best entry's arguments.
DIAMOND = dict(
    preds=[[], [0], [0], [1, 2]],
    sinks=[3],
    means=np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 5.0, 1.0, 1.0]]),
    var_rank=np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int64),
    k=2,
)


def raw_kbest(preds, sinks, means, var_rank, k, kcap=4):
    """The C k-best entry on sentinel-filled buffers: ``(status, masks,
    served)``."""
    ptr, flat = native._csr(preds)
    sinks = np.array(sinks, dtype=np.int32)
    means = np.ascontiguousarray(means, dtype=float)
    var_rank = np.ascontiguousarray(var_rank, dtype=np.int64)
    cells, n = means.shape
    masks = np.full((-(-n // 63), cells, kcap), 7, dtype=np.int64)
    served = np.full(cells, 9, dtype=np.uint8)
    status = native._c_kbest(
        ptr.ctypes.data, flat.ctypes.data, n, sinks.ctypes.data, sinks.size,
        means.ctypes.data, var_rank.ctypes.data, cells, k, kcap,
        masks.ctypes.data, served.ctypes.data,
    )
    return status, masks, served


@needs_native
class TestNativeKBest:
    """Pinned cases of the C k-best DP: what it serves, what it declines,
    and that a decline writes nothing."""

    @pytest.mark.parametrize("k", [3, 10, 20])
    def test_tied_template_declines_every_cell(self, k):
        """Every node of the tied template that truncates ties, so each
        cell declines and numpy prices it: the estimates still equal the
        per-cell ``pathapprox``."""
        template = tied_path_template()
        native.set_enabled(True)
        prof = kernel_profile.enable()
        try:
            batched = expected_makespans(template, "pathapprox", k=k)
        finally:
            kernel_profile.disable()
        assert "native_kbest" not in prof.counters
        assert prof.counters["native_miss_kbest"]["rows"] == template.n_cells
        scalar = [pathapprox(template.cell(c), k=k) for c in range(2)]
        assert [float(v).hex() for v in batched] == [v.hex() for v in scalar]

    def test_montage_template_is_served(self):
        """A real MONTAGE-50 CKPTALL template has no tied path lengths:
        the C serves every cell at every budget of the adaptive
        schedule, with the numpy DP's masks."""
        template = ParamDAG.from_dags(
            group_dags("montage", 5, (0.01,), (1e-3, 1e-2, 1e-1))
        )
        var_rank = np.argsort(
            np.argsort(template.variances, axis=1, kind="stable"), axis=1
        )
        args = (template.preds, template.sinks(), template.means)
        native.set_enabled(True)
        for k in (32, 64, 128, 256, 512):
            _masks, served = native.k_best_paths(*args, k, var_rank)
            assert served.all()
            native.set_enabled(False)
            ref = _k_best_paths_cells(*args, k, var_rank)
            native.set_enabled(True)
            assert _k_best_paths_cells(*args, k, var_rank) == ref
        prof = kernel_profile.enable()
        try:
            pathapprox_batch(template)
        finally:
            kernel_profile.disable()
        assert "native_miss_kbest" not in prof.counters
        assert prof.counters["native_kbest"]["rows"] >= template.n_cells

    @pytest.mark.parametrize(
        "change",
        [
            {"preds": [[], [0], [0], [3, 2]]},  # node 3 reads itself
            {"preds": [[], [2], [0], [1, 2]]},  # node 1 reads a later node
            {"preds": [[], [-1], [0], [1, 2]]},
            {"sinks": [4]},
            {"sinks": [-1]},
            {"sinks": []},
            {"k": 0},
            {"var_rank": np.array([[0, 1, 2, 4], [3, 2, 1, 0]])},
        ],
        ids=["pred-self", "pred-later", "pred-negative", "sink-past",
             "sink-negative", "no-sink", "k-zero", "rank-past"],
    )
    def test_malformed_call_declines_before_any_write(self, change):
        """A malformed structure or budget declines the whole call with
        the buffers untouched, and the wrapper leaves every cell to
        numpy."""
        native.set_enabled(True)
        assert native.enabled()  # loads the library
        args = {**DIAMOND, **change}
        status, masks, served = raw_kbest(**args)
        assert status == -1
        assert (masks == 7).all() and (served == 9).all()
        prof = kernel_profile.enable()
        try:
            assert native.k_best_paths(
                args["preds"], args["sinks"], args["means"], args["k"],
                args["var_rank"],
            ) is None
        finally:
            kernel_profile.disable()
        assert prof.counters["native_miss_kbest"]["rows"] == 2

    def test_nan_mean_declines_its_cell(self):
        """A NaN mean declines its cell before its mask rows are written;
        the other cell is served, and numpy prices the NaN row as it does
        with kernels off."""
        native.set_enabled(True)
        assert native.enabled()
        means = DIAMOND["means"].copy()
        means[1, 2] = np.nan
        args = {**DIAMOND, "means": means}
        status, masks, served = raw_kbest(**args)
        assert status == 2
        assert served.tolist() == [1, 0]
        assert (masks[:, 1] == 7).all()
        # Cell 0: paths 0-2-3 (length 8) then 0-1-3 (7), as rank masks.
        assert masks[0, 0, :2].tolist() == [0b1101, 0b1011]
        call = (args["preds"], args["sinks"], means, 2, args["var_rank"])
        got = _k_best_paths_cells(*call)
        native.set_enabled(False)
        assert got == _k_best_paths_cells(*call)

    def test_large_budget_takes_a_second_call(self, monkeypatch):
        """A budget the first call has no room for is answered by a
        second call sized by the first's path count."""
        template = layered_template([4, 4, 4], n_cells=3, seed=2)
        var_rank = np.tile(np.arange(template.n), (3, 1))
        args = (template.preds, template.sinks(), template.means, 50, var_rank)
        monkeypatch.setattr(native, "_KBEST_PATHS", 8)
        native.set_enabled(True)
        assert native.enabled()  # loads the library
        calls = []
        real = native._c_kbest

        def counted(*argv):
            calls.append(argv[9])  # kcap
            return real(*argv)

        monkeypatch.setattr(native, "_c_kbest", counted)
        got = _k_best_paths_cells(*args)
        assert calls == [8, 50]
        native.set_enabled(False)
        assert got == _k_best_paths_cells(*args)


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
    """Floating-point contraction is pinned off beside the optimisation
    level, and the flags key the cached object."""

    def test_tag_follows_the_flags(self, monkeypatch):
        tag = native._object_tag()
        planted = "-fno-split-paths"
        assert planted not in native._CFLAGS
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + (planted,))
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
        # One optimisation level, -O3: neither it nor -O2 reassociates
        # floating-point operations, and its -fsplit-paths speeds up
        # the convolve's merge loops.
        assert [flag for flag in cmd if flag.startswith("-O")] == ["-O3"]


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
        for op in ("convolve", "max", "truncate", "normal", "kbest"):
            assert op in out
        assert "backend:" in out

    def test_json(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] in ("native", "python")
        assert set(payload["ops"]) == {
            "convolve", "max", "truncate", "normal", "kbest"
        }

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
