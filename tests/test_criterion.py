import inspect
import itertools
import math
import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from rhoest import (CandidateSet, Cauchy, ContractViolationError, DensityFamily,
                    Exponential, Gaussian, Histogram, Laplace, PathologicalGaussian,
                    Penalty, ProductDensity, RhoFit, Sample, SimplexPoint, Uniform,
                    build_gaussian_location_grid, build_histogram_family,
                    criterion, densities, errors, kernel_constants, psi,
                    rho_estimate, t_mix, t_statistic, upsilon, upsilon_all)

K2 = kernel_constants("psi2")
KERNELS = [kernel_constants("psi1"), K2]


def discrete_density(masses):
    """Mass vector on the points {0, 1, 2} as a unit-width histogram."""
    return Histogram((-0.5, 0.5, 1.5, 2.5), tuple(masses))


def oracle_psi(kernel, num, den):
    """Reference psi(sqrt(num/den)) through the explicit ratio conventions."""
    if num == den:
        return 0.0
    if den == 0.0:
        return 1.0
    if num == 0.0:
        return -1.0
    x = math.sqrt(num / den)
    if kernel.id == "psi1":
        return (x - 1.0) / math.sqrt(x * x + 1.0)
    return (x - 1.0) / (x + 1.0)


def oracle_rho(points, families, pen_values, kernel):
    """Naive double-loop reimplementation of the criterion scan."""
    n = len(points)
    size = len(families)
    T = [[sum(oracle_psi(kernel, families[k].pdf(np.array([points[i]]))[0],
                         families[j].pdf(np.array([points[i]]))[0])
              for i in range(n))
          for k in range(size)] for j in range(size)]
    ups = [max(T[j][k] - pen_values[k] for k in range(size)) + pen_values[j]
           for j in range(size)]
    chosen = min(range(size), key=lambda j: (ups[j], j))
    return chosen, ups


class TestTStatistic:
    def test_self_comparison_zero(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=5)
        X = Sample(np.random.default_rng(0).normal(0, 1, 5))
        assert t_statistic(X, q, q, K2) == 0.0

    def test_zero_density_convention(self):
        q = ProductDensity(iid=discrete_density((1.0, 0.0, 0.0)), n=1)
        qp = ProductDensity(iid=discrete_density((0.0, 1.0, 0.0)), n=1)
        X = Sample(np.array([1.0]))       # q = 0 < q' there
        assert t_statistic(X, q, qp, K2) == 1.0
        assert t_statistic(X, qp, q, K2) == -1.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(1)
        q = ProductDensity(iid=Gaussian(0, 1), n=20)
        qp = ProductDensity(iid=Gaussian(0.7, 1.3), n=20)
        X = Sample(rng.normal(0, 2, 20))
        assert t_statistic(X, q, qp, K2) + t_statistic(X, qp, q, K2) == 0.0

    def test_bounded_by_n(self):
        rng = np.random.default_rng(2)
        q = ProductDensity(iid=Gaussian(-3, 0.2), n=15)
        qp = ProductDensity(iid=Gaussian(3, 0.2), n=15)
        X = Sample(rng.normal(3, 0.2, 15))
        assert abs(t_statistic(X, q, qp, K2)) <= 15.0


class TestUpsilon:
    def test_singleton_family(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=4)
        fam = DensityFamily([q])
        X = Sample(np.array([0.1, -0.2, 0.3, 0.0]))
        assert upsilon(X, q, fam, None, K2) == 0.0

    def test_nonnegative_without_penalty(self):
        rng = np.random.default_rng(3)
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1), n=10)
                             for m in (-1.0, 0.0, 1.0)])
        X = Sample(rng.normal(0, 1, 10))
        for q in fam.entries:
            assert upsilon(X, q, fam, None, K2) >= 0.0

    def test_matches_naive_oracle_on_histograms(self):
        dens = [discrete_density(m) for m in
                ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.25, 0.25, 0.5))]
        fam = DensityFamily([ProductDensity(iid=d, n=2) for d in dens])
        pen = Penalty({0: 0.3, 2: 1.1})
        points = [0.0, 2.0]
        X = Sample(np.array(points))
        _, oracle_ups = oracle_rho(points, dens, [0.3, 0.0, 1.1], K2)
        got = upsilon_all(X, fam, pen, K2)
        assert np.allclose(got, oracle_ups, atol=1e-12)


    def test_nan_density_values_rejected(self):
        class NaNRightHalf(Gaussian):
            def pdf(self, x):
                return np.where(np.asarray(x) > 0.0, np.nan, super().pdf(x))

        fam = DensityFamily([ProductDensity(iid=Gaussian(0.0, 1.0), n=3),
                             ProductDensity(iid=NaNRightHalf(0.5, 1.0), n=3)])
        X = Sample(np.array([-1.0, 0.5, 1.0]))
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon_all(X, fam, None, K2)
        with pytest.raises(ContractViolationError, match="square roots"):
            rho_estimate(X, fam)


class TestPenalty:
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_or_nan_rejected(self, value):
        with pytest.raises(ContractViolationError, match="nonnegative"):
            Penalty({0: value})

    @pytest.mark.parametrize("key", [2, 99, -1, "0"])
    def test_index_outside_family_rejected(self, key):
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1.0), n=3)
                             for m in (0.0, 1.0)])
        X = Sample(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ContractViolationError, match="penalty index"):
            rho_estimate(X, fam, Penalty({key: 1.0}))

    @pytest.mark.parametrize("key", [True, False, np.True_, 1.0, np.float64(0.0),
                                     None, (0,)])
    def test_non_integer_index_rejected(self, key):
        # A bool index would set every entry as a numpy mask, a float one
        # would raise IndexError.
        with pytest.raises(ContractViolationError, match="penalty index"):
            Penalty({key: 1.0})

    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j])
    def test_non_real_value_rejected(self, value):
        with pytest.raises(ContractViolationError, match="nonnegative"):
            Penalty({0: value})

    def test_integer_and_real_types_accepted(self):
        pen = Penalty({np.int64(0): np.float64(0.5), 1: 2, np.int32(2): math.inf})
        assert pen.vector(3).tolist() == [0.5, 2.0, math.inf]
        assert Penalty({1: 0.0}).vector(3).tolist() == [0.0, 0.0, 0.0]

    def test_every_entry_infinite_rejected(self):
        """With no finite penalty no criterion value is a number: the call is
        rejected, not left to fail RhoFit's invariant.  One infinite entry
        stays legal, and its criterion value is inf."""
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1.0), n=3)
                             for m in (0.0, 1.0)])
        X = Sample(np.array([0.0, 0.5, 1.0]))
        pen = Penalty({0: math.inf, 1: math.inf})
        for call in (lambda: upsilon(X, fam[0], fam, pen, K2),
                     lambda: upsilon_all(X, fam, pen, K2),
                     lambda: rho_estimate(X, fam, pen)):
            with pytest.raises(ContractViolationError, match="every penalty"):
                call()
        fit = rho_estimate(X, fam, Penalty({0: math.inf}))
        assert fit.trace[0] == math.inf and fit.chosen_index == 1
        assert upsilon(X, fam[0], fam, Penalty({0: math.inf}), K2) == math.inf


class FixedValues:
    """A family entry whose density values at every sample are given."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.n = len(self.values)

    def coord_values(self, X):
        return self.values.copy()

    def key(self):
        return ("fixed", id(self))


class TestRootsCheckedOncePerCall:
    """A NaN root raises wherever it sits, although the roots are checked
    once per call rather than once per block.  Column 1 holds a zero and an
    infinite density, so it is repaired; column 3 is regular."""

    VALUES = np.array([[0.3, 0.0, 0.5, 0.2, 0.7, 0.4],
                       [0.1, np.inf, 0.6, 0.3, 0.5, 0.2],
                       [0.9, 0.4, 0.2, 0.8, 0.1, 0.6],
                       [0.2, 0.3, 0.7, 0.4, 0.3, 0.5]])
    X = Sample(np.zeros(6))

    def values_with_nan(self, row, col):
        values = self.VALUES.copy()
        values[row, col] = math.nan
        return values

    @pytest.mark.parametrize("col", [1, 3])
    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("kernel", [kernel_constants("psi1"), K2],
                             ids=lambda k: k.id)
    def test_upsilon_all(self, kernel, row, col):
        fam = DensityFamily([FixedValues(r) for r in self.values_with_nan(row, col)])
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon_all(self.X, fam, None, kernel)

    @pytest.mark.parametrize("col", [1, 3])
    def test_upsilon_den_and_num_rows(self, col):
        values = self.values_with_nan(3, col)
        fam = DensityFamily([FixedValues(r) for r in values])
        clean = DensityFamily([FixedValues(r) for r in self.VALUES])
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon(self.X, fam[3], clean, None, K2)  # den row
        with pytest.raises(ContractViolationError, match="square roots"):
            upsilon(self.X, clean[0], fam, None, K2)  # last num row

    @pytest.mark.parametrize("col", [1, 3])
    def test_t_statistic_den_and_num(self, col):
        bad = FixedValues(self.values_with_nan(0, col)[0])
        good = FixedValues(self.VALUES[2])
        for q, qp in ((bad, good), (good, bad)):
            with pytest.raises(ContractViolationError, match="square roots"):
                t_statistic(self.X, q, qp, K2)

    @pytest.mark.parametrize("col", [0, 3])
    def test_t_mix_den_and_num(self, col):
        X = Sample(np.linspace(-1.0, 1.0, 6))
        cs = CandidateSet([ProductDensity(iid=Gaussian(m, 1.0), n=6)
                           for m in (0.0, 0.5)], X)
        cs.values[1, col] = math.nan
        alpha, beta = SimplexPoint((0.5, 0.5)), SimplexPoint((1.0, 0.0))
        for a, b in ((alpha, beta), (beta, alpha)):
            with pytest.raises(ContractViolationError, match="square roots"):
                t_mix(cs, a, b, K2)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    @pytest.mark.parametrize("col", [1, 3])
    def test_criterion_rows_den_num_and_last_row(self, bad, col):
        S = np.sqrt(self.VALUES)
        for row in range(len(S)):
            B = S.copy()
            B[row, col] = bad
            for den, num in ((B, B), (B, S), (S, B), (B[row:row + 1], S)):
                with pytest.raises(ContractViolationError, match="square roots"):
                    criterion._criterion_rows(den, num, 0.0, K2)


class TestCallBoundary:
    """The criterion's entry points take a PsiKernel and a Penalty or None."""

    X = Sample(np.array([-0.3, 0.2, 0.9]))
    FAM = DensityFamily([ProductDensity(iid=Gaussian(m, 1.0), n=3) for m in (0.0, 0.5)])

    @pytest.mark.parametrize("kernel_id", [["psi2"], ("psi2",), None, 2, b"psi2",
                                           "psi3", 10**5000], ids=lambda v: type(v).__name__)
    def test_kernel_constants_rejects_what_names_no_kernel(self, kernel_id):
        with pytest.raises(ContractViolationError, match="unknown kernel"):
            kernel_constants(kernel_id)

    @pytest.mark.parametrize("kernel", ["psi2", None, K2.id, K2.__dict__])
    def test_kernel_must_be_a_psi_kernel(self, kernel):
        X, fam = self.X, self.FAM
        calls = [lambda: t_statistic(X, fam[0], fam[1], kernel),
                 lambda: upsilon(X, fam[0], fam, None, kernel),
                 lambda: upsilon_all(X, fam, None, kernel)]
        if kernel is not None:  # rho_estimate's default kernel
            calls.append(lambda: rho_estimate(X, fam, kernel=kernel))
        for call in calls:
            with pytest.raises(ContractViolationError, match="kernel must be a PsiKernel"):
                call()

    @pytest.mark.parametrize("pen", [{0: 1.0}, [1.0, 0.0], np.zeros(2), 0.0])
    def test_penalty_must_be_a_penalty_or_none(self, pen):
        X, fam = self.X, self.FAM
        for call in (lambda: upsilon(X, fam[0], fam, pen, K2),
                     lambda: upsilon_all(X, fam, pen, K2),
                     lambda: rho_estimate(X, fam, pen=pen)):
            with pytest.raises(ContractViolationError, match="pen must be a Penalty"):
                call()

    def test_penalty_and_default_kernel_accepted(self):
        fit = rho_estimate(self.X, self.FAM, Penalty({1: 0.5}))
        assert fit.trace == tuple(upsilon_all(self.X, self.FAM, Penalty({1: 0.5}), K2))


class TestRhoEstimate:
    def test_singleton(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=3)
        fit = rho_estimate(Sample(np.array([0.0, 1.0, -1.0])), DensityFamily([q]))
        assert fit.chosen_index == 0
        assert fit.upsilon_at_chosen == 0.0

    def test_default_slack(self):
        q = ProductDensity(iid=Gaussian(0, 1), n=3)
        fit = rho_estimate(Sample(np.array([0.0, 1.0, -1.0])), DensityFamily([q]))
        assert fit.slack == pytest.approx(K2.kappa / 25.0, rel=1e-15)

    def test_tie_break_smallest_index(self):
        d = Gaussian(0, 1)
        fam = DensityFamily([ProductDensity(iid=d, n=3),
                             ProductDensity(iid=d, n=3)])
        fit = rho_estimate(Sample(np.array([0.0, 0.5, -0.5])), fam)
        assert fit.chosen_index == 0
        assert fit.admissible_set == (0, 1)

    def test_invariants_enforced(self):
        with pytest.raises(ContractViolationError):
            RhoFit(chosen_index=0, upsilon_at_chosen=5.0, upsilon_min=0.0,
                   admissible_set=(0,), slack=1.0, trace=(5.0,))

    def test_gaussian_grid_recovery(self):
        hits = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(100 + rep)
            X = Sample(rng.normal(0, 1, 200))
            fam = DensityFamily([ProductDensity(iid=Gaussian(t, 1), n=200)
                                 for t in np.arange(-2.0, 2.01, 0.1)])
            fit = rho_estimate(X, fam)
            theta_hat = -2.0 + 0.1 * fit.chosen_index
            hits += abs(theta_hat) <= 0.3
        assert hits / reps >= 0.95

    def test_exhaustive_oracle_small_cases(self):
        # a lighter version of the exhaustive acceptance check
        masses = [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
                  (1 / 3, 1 / 3, 1 / 3)]
        dens = [discrete_density(m) for m in masses]
        for fam_idx in itertools.combinations(range(4), 3):
            sub = [dens[i] for i in fam_idx]
            for points in itertools.product([0.0, 1.0, 2.0], repeat=2):
                fam = DensityFamily([ProductDensity(iid=d, n=2) for d in sub])
                fit = rho_estimate(Sample(np.array(points)), fam, Penalty(), K2,
                                   slack=0.0)
                chosen, ups = oracle_rho(list(points), sub,
                                         [0.0] * len(sub), K2)
                assert np.allclose(fit.trace, ups, atol=1e-12)
                assert fit.chosen_index == chosen


class TestSharedBlocks:
    """The blocks of one criterion call shared out over threads.  A 24-entry
    family at n = 16 with blocks of 64 psi values reaches the square
    criterion's float32 screen: 46 screen blocks, which call no psi_pair,
    then 12 blocks of exact pairs, which do."""

    S = np.sqrt(np.random.default_rng(7).uniform(0.01, 2.0, (24, 16)))

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 64)

    @staticmethod
    def spy(monkeypatch, on_block):
        """Two shares: the caller and one worker.  Every block runs
        ``on_block(worker)`` first, and each share's first block waits (up
        to 10 s) until the other share has taken one too, so both take part."""
        monkeypatch.setattr(criterion, "_cpus", lambda: 2)
        caller, started = threading.get_ident(), set()
        both_in = threading.Barrier(2, timeout=10)
        original = criterion.psi_pair

        def psi_pair(*args, **kwargs):
            worker = threading.get_ident() != caller
            if worker not in started:
                started.add(worker)
                both_in.wait()
            on_block(worker)
            return original(*args, **kwargs)

        monkeypatch.setattr(criterion, "psi_pair", psi_pair)
        return original

    def test_caller_errstate_reaches_worker(self, monkeypatch):
        seen = []
        self.spy(monkeypatch, lambda worker: seen.append((worker, np.geterr()["over"])))
        with np.errstate(over="raise"):
            criterion._criterion_rows(self.S, self.S, 0.0, K2)
        assert {worker for worker, _ in seen} == {False, True}
        assert {over for _, over in seen} == {"raise"}

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_error_reaches_caller_after_every_share_stopped(self, monkeypatch, raiser):
        want = criterion._criterion_rows(self.S, self.S, 0.0, K2).tobytes()
        calls, raised = [], threading.Event()

        def on_block(worker):
            # The raiser fails its first block; the other share finishes the
            # block it holds once that has happened.
            calls.append(worker)
            if worker == (raiser == "worker"):
                raised.set()
                raise FloatingPointError("overflow in a block")
            raised.wait(10)
            time.sleep(0.02)

        original = self.spy(monkeypatch, on_block)
        with pytest.raises(FloatingPointError, match="overflow in a block"):
            criterion._criterion_rows(self.S, self.S, 0.0, K2)
        made = len(calls)
        time.sleep(0.05)
        assert len(calls) == made < 10  # every share stopped before the last block
        monkeypatch.setattr(criterion, "psi_pair", original)
        assert criterion._criterion_rows(self.S, self.S, 0.0, K2).tobytes() == want

    def test_more_shares_than_cpus_switching_every_microsecond(self, monkeypatch):
        """Six shares, with the interpreter switching threads as often as it
        can, still compute every block exactly once and give the same bits:
        in a call on part of T, in a screened square call (its float32 blocks
        and its exact pairs), and in a square call of identical entries,
        whose screen keeps every pair j < k for the certificate."""
        original, screen_sums, blocks = criterion.psi_pair, psi.PsiKernel.screen_sums, []

        def psi_pair(*args, **kwargs):
            blocks.append(("float64", args[1].shape, args[2].shape))
            return original(*args, **kwargs)

        def float32_block(kernel, u, v, work, sums):
            blocks.append(("float32", u.shape, v.shape))
            return screen_sums(kernel, u, v, work, sums)

        monkeypatch.setattr(criterion, "psi_pair", psi_pair)
        monkeypatch.setattr(psi.PsiKernel, "screen_sums", float32_block)
        same = np.repeat(self.S[:1], len(self.S), axis=0)
        calls = [(self.S, self.S), (self.S[:8], self.S[2:]), (same, same)]
        monkeypatch.setattr(criterion, "_cpus", lambda: 1)
        want = [criterion._criterion_rows(den, num, 0.0, K2).tobytes()
                for den, num in calls]
        one = sorted(blocks)
        assert {kind for kind, *_ in one} == {"float32", "float64"}
        monkeypatch.setattr(criterion, "_cpus", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                del blocks[:]
                assert [criterion._criterion_rows(den, num, 0.0, K2).tobytes()
                        for den, num in calls] == want
                assert sorted(blocks) == one
        finally:
            sys.setswitchinterval(interval)

    def test_single_block_calls_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 2**16)
        monkeypatch.setattr(criterion, "_cpus", lambda: 4)

        def no_pool(size):
            raise AssertionError("a single-block call asked for worker threads")

        monkeypatch.setattr(criterion, "_workers", no_pool)
        before = threading.active_count()
        n = 500
        X = Sample(np.random.default_rng(8).normal(0.0, 1.0, n))
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1.0), n=n)
                             for m in np.linspace(-1.0, 1.0, 6)])
        t_statistic(X, fam[0], fam[1], K2)
        cs = CandidateSet(fam.entries, X)
        t_mix(cs, SimplexPoint((0.5, 0.5, 0, 0, 0, 0)),
              SimplexPoint((0, 0, 0, 0, 0.5, 0.5)), K2)
        rho_estimate(X, fam)
        assert threading.active_count() == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(criterion, "_cpus", lambda: 2)
        X = Sample(np.zeros(16))
        fam = DensityFamily([FixedValues(row) for row in self.S ** 2])
        want = upsilon_all(X, fam, None, K2).tobytes()
        assert criterion._pool is not None
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=lambda: send.send_bytes(upsilon_all(X, fam, None, K2).tobytes()))
        child.start()
        try:
            assert recv.poll(60), "the forked child hung"
            assert recv.recv_bytes() == want
            child.join(60)
            assert child.exitcode == 0
        finally:
            child.kill()
            child.join(60)


@pytest.mark.parametrize("J, K, pairs, square", [
    (1, 1, 1, True), (7, 7, 1, True), (24, 24, 8, True), (24, 24, 64, True),
    (24, 24, 1000, True), (5, 13, 4, False), (13, 5, 64, False), (1, 9, 2, False)])
def test_every_plan_covers_each_entry_once(J, K, pairs, square):
    """A plan's blocks hold at most ``pairs`` pairs each and are disjoint; they
    cover all of T, or for a square call every entry on or above the diagonal."""
    count = np.zeros((J, K), dtype=int)
    for r, h, c, w in criterion._plan(J, K, pairs, square):
        assert 0 < h * w <= pairs
        count[r:r + h, c:c + w] += 1
    assert count.max() == 1
    assert np.all(np.triu(count) == np.triu(np.ones((J, K), dtype=int))
                  if square else count == 1)


class TestScreen:
    """The square criterion's float32 screen and float64 certificate, which
    every square call with a float32 column takes, against the unscreened
    engine: the rectangular call on a copy of the roots.  Small blocks make
    a 24-entry family at n = 16 a call of many blocks, shared out over
    threads (J * J * n >= 32 * _BLOCK_ELEMENTS) for blocks of up to 288
    values."""

    S = TestSharedBlocks.S  # 24 distinct rows of roots in [0.1, 1.42]

    @staticmethod
    def phases(monkeypatch):
        """The (step name, blocks, step's closure) of every block run that
        follows.  The block pass's closure holds its float32 column count
        ``m``, the certificate's its pairs ``a`` and ``b``."""
        runs, original = [], criterion._run

        def run(blocks, step, work):
            runs.append((step.__name__, list(blocks),
                         inspect.getclosurevars(step).nonlocals))
            return original(blocks, step, work)

        monkeypatch.setattr(criterion, "_run", run)
        return runs

    @staticmethod
    def plain(S, pen, kernel):
        """The rows of the unscreened engine: the rectangular call on a copy."""
        return criterion._criterion_rows(S, S.copy(), pen, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    @pytest.mark.parametrize("block", [1, 16, 64, 192])
    def test_screened_call_writes_each_entry_once(self, kernel, block, monkeypatch):
        """The screen's blocks cover the upper triangle once, the exact pairs
        are distinct pairs j < k, summed u = S[k] against v = S[j] as the
        plain blocks sum them, and the certificate's blocks split them."""
        S, pen = self.S, np.linspace(0.0, 0.2, len(self.S))
        want = self.plain(S, pen, kernel)
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", block)
        runs, pairs, original = self.phases(monkeypatch), [], criterion.psi_pair

        def rows(a):
            return [int(np.flatnonzero((S == row).all(axis=1))[0]) for row in a]

        def psi_pair(kernel, u, v, **kwargs):
            if u.ndim == 2:  # the certificate's gathered (pairs, n) rows
                pairs.extend(zip(rows(v), rows(u)))
            return original(kernel, u, v, **kwargs)

        monkeypatch.setattr(criterion, "psi_pair", psi_pair)
        assert criterion._criterion_rows(S, S, pen, kernel).tobytes() == want.tobytes()
        assert [name for name, *_ in runs] == ["block_step", "certify_step"]
        assert runs[0][2]["m"] == S.shape[1]  # every column in the float32 range
        count = np.zeros((len(S), len(S)), dtype=int)
        for r, h, c, w in runs[0][1]:
            count[r:r + h, c:c + w] += 1
        assert count.max() == 1 and np.all(np.triu(count) == np.triu(np.ones_like(count)))
        ranges = runs[1][1]
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == len(pairs) == len(set(pairs)) > 0
        assert all(j < k for j, k in pairs)
        # Few pairs: about one per row.
        assert len(pairs) <= len(S)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    def test_identical_entries_certify_every_pair_once(self, kernel, monkeypatch):
        """Every entry of T is 0, so every pair is kept: the certificate sums
        each pair j < k exactly once, and the call keeps the unscreened
        call's bits with no floating-point warning."""
        n, J = 16, 12
        fam = DensityFamily([ProductDensity(iid=Gaussian(0.0, 1.0), n=n)] * J)
        X = Sample(np.linspace(-9.0, 9.0, n))  # roots from 0.63 down to 1e-9
        pen = Penalty({3: 0.25})
        pvec = pen.vector(J)
        want = self.plain(fam.sqrt_value_matrix(X), pvec, kernel) + pvec
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 32)
        runs = self.phases(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = upsilon_all(X, fam, pen, kernel)
        assert got.tobytes() == want.tobytes()
        assert [name for name, *_ in runs] == ["block_step", "certify_step"]
        assert runs[0][2]["m"] == n  # every column screened in float32
        _, ranges, closure = runs[1]
        pairs = list(zip(closure["a"].tolist(), closure["b"].tolist()))
        assert sorted(pairs) == list(itertools.combinations(range(J), 2))
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == len(pairs)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    def test_every_square_call_is_screened_at_any_size(self, kernel, monkeypatch):
        """At the real block size a square call with float32 columns is
        screened and certified, from 2 entries at n = 5 to demo-mle's 161 at
        n = 100, with the unscreened engine's bits; a rectangular call is
        never screened."""
        rng = np.random.default_rng(7)
        runs = self.phases(monkeypatch)
        for J, n in ((2, 5), (10, 50), (41, 500), (161, 100)):
            S = rng.uniform(0.1, 1.4, (J, n))
            pen = rng.uniform(0.0, 0.5, J)
            got = criterion._criterion_rows(S, S, pen, kernel)
            assert [(name, closure.get("m")) for name, _, closure in runs] == [
                ("block_step", n), ("certify_step", None)]
            del runs[:]
            assert got.tobytes() == self.plain(S, pen, kernel).tobytes()
            criterion._criterion_rows(S[:1], S, pen, kernel)
            assert [(name, closure["m"]) for name, _, closure in runs] == [
                ("block_step", 0)] * 2
            del runs[:]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    def test_square_call_with_no_float32_column_is_the_plain_pass(self, kernel,
                                                                  monkeypatch):
        """Every column holds a root of 2**-100, outside both kernels'
        float32 ranges: the square call is the float64 pass and its mirror,
        bitwise the rectangular call's T."""
        S = self.S.copy()
        S[np.arange(16) % len(S), np.arange(16)] = 2.0 ** -100
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 64)  # bands of few rows
        runs = self.phases(monkeypatch)
        got = criterion._criterion_rows(S, S, 0.0, kernel)
        want = self.plain(S, 0.0, kernel)
        assert [(name, closure["m"]) for name, _, closure in runs] == [
            ("block_step", 0)] * 2
        square, rectangular = (closure["T"] for _, _, closure in runs)
        assert square.tobytes() == rectangular.tobytes()
        assert got.tobytes() == want.tobytes()

    def test_small_calls_start_no_thread(self, monkeypatch):
        """With four CPUs, a call below 32 * _BLOCK_ELEMENTS = 2**21 pair
        values asks for no worker thread, however many blocks it has:
        bench's 41 entries at n = 500 square and not, a square call just
        below the limit, and 40 rows against demo-mle's 161 entries."""
        assert 32 * criterion._BLOCK_ELEMENTS == 2**21
        monkeypatch.setattr(criterion, "_cpus", lambda: 4)

        def no_pool(size):
            raise AssertionError("a call below 2**21 pair values asked for worker threads")

        monkeypatch.setattr(criterion, "_workers", no_pool)
        runs = self.phases(monkeypatch)
        rng = np.random.default_rng(8)
        for J, n in ((41, 500), (144, 101), (161, 100)):
            S = rng.uniform(0.1, 1.4, (J, n))
            calls = [(S[:40], S)] if J == 161 else [(S, S), (S, S.copy())]
            for den, num in calls:
                assert len(den) * len(num) * n < 2**21
                criterion._criterion_rows(den, num, 0.0, K2)
        assert all(len(blocks) > 1 for name, blocks, _ in runs if name == "block_step")

    @pytest.mark.parametrize("square", [True, False], ids=["square", "rectangular"])
    def test_large_calls_share_out(self, square, monkeypatch):
        """From 2**21 pair values on, a call shares its blocks out: demo-mle's
        161 entries at n = 100, and 128 at n = 128, exactly 2**21."""
        monkeypatch.setattr(criterion, "_cpus", lambda: 4)
        asked, workers = [], criterion._workers

        def spy(size):
            asked.append(size)
            return workers(size)

        monkeypatch.setattr(criterion, "_workers", spy)
        rng = np.random.default_rng(9)
        for J, n in ((161, 100), (128, 128)):
            S = rng.uniform(0.1, 1.4, (J, n))
            criterion._criterion_rows(S, S if square else S.copy(), 0.0, K2)
            assert asked and set(asked) == {3}
            del asked[:]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    def test_columns_outside_the_screen_range_are_summed_in_float64(self, kernel,
                                                                   monkeypatch):
        """Columns with a root outside the float32 range (a settled 2**-100
        beside a zero, a scaled 2**-600) join the screen's float64 sums; a
        column of zeros and one of infinities take float32 stand-ins."""
        S = self.S.copy()
        S[3, 1], S[5, 1] = 2.0 ** -100, 0.0
        S[7, 4] = 2.0 ** -600
        S[:, 6], S[:, 9] = 0.0, np.inf
        S[2, 11] = 2.0 ** 40
        pen = np.linspace(0.0, 0.5, len(S))
        want = self.plain(S, pen, kernel)
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 64)
        seen, original = [], criterion.psi_pair

        def psi_pair(kernel, u, v, **kwargs):
            seen.append((u.shape[-1], kwargs["scaled"].tolist()))
            return original(kernel, u, v, **kwargs)

        monkeypatch.setattr(criterion, "psi_pair", psi_pair)
        runs = self.phases(monkeypatch)
        got = criterion._criterion_rows(S, S, pen, kernel)
        assert got.tobytes() == want.tobytes()
        # psi2's range holds 2**40; psi1's does not.
        double = [1, 4, 11] if kernel.id == "psi1" else [1, 4]
        assert runs[0][0] == "block_step" and runs[0][2]["m"] == 16 - len(double)
        assert (len(double), [double.index(4)]) in seen
        assert (16, [4]) in seen  # the certificate's pairs span every column

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
    def test_stand_ins_raise_no_floating_point_exception(self, kernel, monkeypatch):
        """A column holding 0, inf, 2**59 and 2**-59: under a caller's
        np.errstate(all="raise"), in the caller and its worker, the screened
        call raises nothing and keeps the plain call's bits.  psi2 screens
        the column in float32, where 0's stand-in over 2**59 underflows."""
        S = self.S.copy()
        S[:, 0] = np.resize([0.0, np.inf, 2.0 ** 59, 2.0 ** -59], len(S))
        pen = np.linspace(0.0, 0.5, len(S))
        want = self.plain(S, pen, kernel)
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(criterion, "_cpus", lambda: 2)
        runs = self.phases(monkeypatch)
        with np.errstate(all="raise"):
            got = criterion._criterion_rows(S, S, pen, kernel)
        assert got.tobytes() == want.tobytes()
        # psi1's float32 range ends at 2**30, psi2's at 2**60.
        assert runs[0][2]["m"] == (15 if kernel.id == "psi1" else 16)


def bench_like_roots():
    """The bench estimator's grid (N = 41) on 5% Cauchy draws with outliers
    at +-1000, where every Gaussian's root underflows to 0."""
    rng = np.random.default_rng(11)
    x = np.where(rng.random(500) < 0.05, 10.0 * rng.standard_cauchy(500),
                 rng.standard_normal(500))
    x[:2] = -1000.0, 1000.0
    return build_gaussian_location_grid(-1.0, 1.0, 0.05, 1.0, 500).family, x


def demo_mle_like_roots():
    """demo-mle's singular family: a theta grid plus the sample points, each
    spiking to +inf at its own point once theta >= 2.7."""
    x = np.concatenate([np.random.default_rng(5).normal(0.0, 1.0, 97),
                        [2.75, 3.1, 3.6]])
    thetas = np.unique(np.concatenate([np.arange(-30, 31) / 10.0, x]))
    return DensityFamily([ProductDensity(iid=PathologicalGaussian(float(t)), n=100)
                          for t in thetas]), x


def histogram_union_roots():
    """The union of histograms with 2, 3 and 4 pieces on [-3, 3], at points
    drawn off the breakpoints, many of them outside [-3, 3]."""
    n = 300
    x = np.random.default_rng(2).normal(0.0, 2.0, n)
    union = {e.key(): e for k in (2, 3, 4) for e in build_histogram_family(
        [np.linspace(-3.0, 3.0, k + 1)], k, n).family.entries}
    return DensityFamily(union.values()), x


@pytest.mark.parametrize("case", [bench_like_roots, demo_mle_like_roots,
                                  histogram_union_roots])
def test_zero_and_infinite_roots_settle_before_the_blocks(case, monkeypatch):
    """With psi2, every zero and infinite root of these families settles once
    per call, so no block's psi_pair computes a column again."""
    fam, x = case()
    S = fam.sqrt_value_matrix(Sample(x))
    assert np.any(S == 0.0) or np.any(S == np.inf)
    assert odd_columns(K2, S, S).size
    scaled, original = [], criterion.psi_pair

    def psi_pair(*args, **kwargs):
        scaled.append(kwargs["scaled"].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(criterion, "psi_pair", psi_pair)
    want = upsilon_all(Sample(x), fam, None, K2)
    assert scaled and not any(scaled)
    # With every odd column scaled, the same bits.
    monkeypatch.setattr(criterion, "psi_pair", original)
    monkeypatch.setattr(criterion, "_settle", lambda kernel, u, v, dtype=np.float64:
                        (u, v, odd_columns(kernel, u, v, dtype)))
    assert upsilon_all(Sample(x), fam, None, K2).tobytes() == want.tobytes()


def odd_columns(kernel, u, v, dtype=np.float64):
    """The columns of (J, n) roots u and v with a root outside the exact range
    of the kernel's row in ``psi._ROOTS``: 0, inf, tiny or huge."""
    lo, hi = psi._ROOTS[kernel.id, dtype][:2]
    return np.flatnonzero(((u < lo) | (u > hi)).any(axis=0)
                          | ((v < lo) | (v > hi)).any(axis=0))


# Sample points for the column families: Cauchy-like tails, and points at
# which singular Gaussians spike, finitely at 0.5 and 1.5 and to +inf from
# about 2.7 on.
COLUMN_POINTS = np.array([-40.0, -3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 1.5, 2.75,
                          3.1, 5.0, 40.0])


def column_cases():
    """(kind, columns) per kind, the columns drawn once from a fixed stream."""
    rng = np.random.default_rng(24)
    m = 30
    loc = rng.uniform(-4.0, 4.0, m)
    scale = rng.uniform(0.05, 3.0, m)
    thetas = np.unique(np.concatenate([np.arange(-30, 31) / 10.0, COLUMN_POINTS]))
    return {
        "gaussian": (Gaussian, {"mean": loc, "sd": scale}),
        "cauchy": (Cauchy, {"loc": loc, "scale": scale}),
        "laplace": (Laplace, {"loc": loc, "scale": scale}),
        "exponential": (Exponential, {"rate": scale, "shift": loc}),
        "pathological": (PathologicalGaussian, {"theta": thetas}),
    }


def listed_family(kind, n, columns, labels=None):
    """The same family built the way the builders did before columns: one
    checked entry per element, from Python floats."""
    rows = zip(*(columns[name].tolist() for name in kind.rules))
    return DensityFamily([ProductDensity(iid=kind(*row), n=n) for row in rows],
                         labels=labels)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestColumnFamily:
    """``DensityFamily.iid`` against the family built from a list."""

    X = Sample(COLUMN_POINTS)

    @pytest.mark.parametrize("case", list(column_cases()))
    @pytest.mark.parametrize("block", [16, 2**16])
    def test_matches_the_listed_family_bitwise(self, case, block, monkeypatch):
        monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", block)
        kind, columns = column_cases()[case]
        labels = [f"entry {i}" for i in range(len(columns[next(iter(columns))]))]
        fam = DensityFamily.iid(kind, self.X.n, labels=labels, **columns)
        twin = listed_family(kind, self.X.n, columns, labels)
        S = fam.sqrt_value_matrix(self.X)
        assert same_bits(S, twin.sqrt_value_matrix(self.X))
        assert same_bits(S, np.sqrt(np.stack([e.coord_values(self.X)
                                              for e in twin.entries])))
        if case == "pathological":  # each positive point spikes its own entry
            spikes = [S[np.flatnonzero(columns["theta"] == x)[0], j]
                      for j, x in enumerate(COLUMN_POINTS) if x > 0]
            assert min(spikes) > np.sqrt(Gaussian(0.0, 1.0).pdf(0.0))
            assert np.isinf(spikes).any() and np.isfinite(spikes).any()
        for kernel in (kernel_constants("psi1"), K2):
            got = rho_estimate(self.X, fam, kernel=kernel)
            want = rho_estimate(self.X, twin, kernel=kernel)
            assert same_bits(got.trace, want.trace)
            assert (got.chosen_index, got.admissible_set) == (
                want.chosen_index, want.admissible_set)
        assert [e.key() for e in fam.entries] == [e.key() for e in twin.entries]
        assert fam.labels == twin.labels == labels
        assert (len(fam), fam.n) == (len(twin), twin.n)

    def test_len_n_and_criterion_build_no_entry(self, monkeypatch):
        made = []
        real = Gaussian.__post_init__
        monkeypatch.setattr(Gaussian, "__post_init__",
                            lambda self: made.append(self) or real(self))
        fam = DensityFamily.iid(Gaussian, self.X.n, mean=np.linspace(-1.0, 1.0, 5),
                                sd=np.full(5, 0.5))
        assert (len(fam), fam.n) == (5, self.X.n)
        fam.sqrt_value_matrix(self.X)
        rho_estimate(self.X, fam)
        assert made == []
        first = fam[2]
        assert len(made) == 5 and fam.entries[2] is first
        assert fam.entries is fam.entries and len(made) == 5
        assert first.marginal == Gaussian(0.0, 0.5) and type(first.marginal.mean) is float

    def test_upsilon_without_penalties_builds_no_entry(self, monkeypatch):
        """upsilon looks up the candidate's own penalty among the entries only
        when some penalty is not +0.0."""
        made = []
        real = Gaussian.__post_init__
        monkeypatch.setattr(Gaussian, "__post_init__",
                            lambda self: made.append(self) or real(self))
        columns = {"mean": np.linspace(-1.0, 1.0, 5), "sd": np.full(5, 0.5)}
        fam = DensityFamily.iid(Gaussian, self.X.n, **columns)
        q = ProductDensity(iid=Gaussian(0.0, 0.5), n=self.X.n)
        pen = Penalty({2: 0.5})
        want = upsilon(self.X, q, listed_family(Gaussian, self.X.n, columns), pen, K2)
        made.clear()
        got = [upsilon(self.X, q, fam, p, K2) for p in (None, Penalty(), Penalty({1: 0.0}))]
        assert made == [] and got[1:] == got[:2]
        # q is entry 2: its own penalty is found among the entries, made now.
        assert upsilon(self.X, q, fam, pen, K2) == want
        assert len(made) == 5

    def test_columns_are_copied(self):
        mean = np.array([0.0, 1.0])
        fam = DensityFamily.iid(Gaussian, 3, mean=mean, sd=np.ones(2))
        mean[0] = 5.0
        assert fam[0].marginal.mean == 0.0
        assert same_bits(fam.sqrt_value_matrix(Sample(np.zeros(3)))[0],
                         np.sqrt(Gaussian(0.0, 1.0).pdf(np.zeros(3))))

    @pytest.mark.parametrize("kind, name, bad", [
        (Gaussian, "mean", math.nan), (Gaussian, "mean", math.inf),
        (Gaussian, "sd", math.nan), (Gaussian, "sd", math.inf),
        (Gaussian, "sd", 0.0), (Gaussian, "sd", -1.0),
        (Cauchy, "loc", -math.inf), (Cauchy, "scale", -0.5),
        (Laplace, "loc", math.nan), (Laplace, "scale", 0.0),
        (Exponential, "rate", -2.0), (Exponential, "shift", math.inf),
        (PathologicalGaussian, "theta", math.nan),
        (PathologicalGaussian, "theta", math.inf),
    ])
    def test_bad_value_is_named(self, kind, name, bad):
        columns = {p: np.ones(3) for p in kind.rules}
        columns[name] = np.array([1.0, bad, 1.0])
        with pytest.raises(ContractViolationError, match=rf"^{name} must be"):
            DensityFamily.iid(kind, 3, **columns)
        with pytest.raises(ContractViolationError, match=rf"^{name} must be"):
            kind(**{p: c[1] for p, c in columns.items()})

    @pytest.mark.parametrize("where", [0, 80, 160], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind, name, bad", [
        (Gaussian, "mean", math.nan), (Gaussian, "mean", math.inf),
        (Gaussian, "mean", -math.inf), (Gaussian, "sd", math.nan),
        (Gaussian, "sd", math.inf), (Gaussian, "sd", 0.0), (Gaussian, "sd", -0.0),
        (Gaussian, "sd", -1.5), (Exponential, "rate", -math.inf),
        (PathologicalGaussian, "theta", math.nan),
    ])
    def test_bad_value_raises_the_per_element_message(self, kind, name, bad, where):
        """A column checked by its ends raises, wherever the bad value lies,
        the message of the rule on every element in turn: the first bad one's."""
        def loop_message(column):
            for v in column.tolist():
                try:
                    kind.rules[name](name, v)
                except ContractViolationError as exc:
                    return str(exc)

        columns = {p: np.linspace(0.5, 2.0, 161) for p in kind.rules}
        columns[name][where] = bad
        # A NaN after the bad value, or before it when it is last.
        for other in (None, 0 if where == 160 else 160):
            if other is not None:
                columns[name][other] = math.nan
            with pytest.raises(ContractViolationError) as got:
                DensityFamily.iid(kind, 3, **columns)
            assert str(got.value) == loop_message(columns[name])

    def test_good_column_runs_each_rule_at_most_twice(self, monkeypatch):
        calls = []
        for name, rule in Gaussian.rules.items():
            monkeypatch.setitem(Gaussian.rules, name, lambda name, v, rule=rule:
                                calls.append(name) or rule(name, v))
        DensityFamily.iid(Gaussian, 3, mean=np.linspace(-3.0, 3.0, 161),
                          sd=np.linspace(0.1, 2.0, 161))
        assert 0 < calls.count("mean") <= 2 and 0 < calls.count("sd") <= 2

    def test_stackable_rules_accept_intervals(self):
        """DensityFamily.iid checks a column by its ends, which is sound for
        rules that accept an interval and refuse NaN."""
        for kind in densities._STACKABLE:
            assert set(kind.rules.values()) <= {errors._finite, errors._scale}, kind

    @pytest.mark.parametrize("kind, columns", [
        (Uniform, {"a": np.zeros(2), "b": np.ones(2)}),
        (Histogram, {"breaks": np.zeros(2), "heights": np.ones(2)}),
        ("gaussian", {"mean": np.zeros(2), "sd": np.ones(2)}),
    ], ids=["uniform", "histogram", "not-a-class"])
    def test_kind_with_a_check_or_no_stack_is_refused(self, kind, columns):
        with pytest.raises(ContractViolationError, match="stackable kind"):
            DensityFamily.iid(kind, 3, **columns)

    @pytest.mark.parametrize("call", [
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros(2)),
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros(2), sd=np.ones(2),
                                  loc=np.zeros(2)),
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros(2), sd=np.ones(3)),
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros(0), sd=np.ones(0)),
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros(2, dtype=int),
                                  sd=np.ones(2)),
        lambda: DensityFamily.iid(Gaussian, 3, mean=np.zeros((2, 1)),
                                  sd=np.ones(2)),
        lambda: DensityFamily.iid(Gaussian, 0, mean=np.zeros(2), sd=np.ones(2)),
        lambda: DensityFamily.iid(Gaussian, 3, labels=["a"], mean=np.zeros(2),
                                  sd=np.ones(2)),
    ], ids=["missing", "unknown", "lengths", "empty", "int-dtype", "2-d", "n",
            "labels"])
    def test_malformed_columns_are_rejected(self, call):
        with pytest.raises(ContractViolationError):
            call()
