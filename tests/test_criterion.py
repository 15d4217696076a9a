import itertools
import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from rhoest import (CandidateSet, ContractViolationError, DensityFamily,
                    Gaussian, Histogram, PathologicalGaussian, Penalty,
                    ProductDensity, RhoFit, Sample, SimplexPoint,
                    build_gaussian_location_grid, build_histogram_family,
                    criterion, kernel_constants, psi, rho_estimate, t_mix,
                    t_statistic, upsilon, upsilon_all)

K2 = kernel_constants("psi2")


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
    family at n = 16 with blocks of 64 psi values makes 78 blocks."""

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
        assert len(calls) == made < 10  # every share stopped, long before block 78
        monkeypatch.setattr(criterion, "psi_pair", original)
        assert criterion._criterion_rows(self.S, self.S, 0.0, K2).tobytes() == want

    def test_more_shares_than_cpus_switching_every_microsecond(self, monkeypatch):
        """Six shares, with the interpreter switching threads as often as it
        can, still compute every block exactly once and give the same bits."""
        original, blocks = criterion.psi_pair, []

        def psi_pair(*args, **kwargs):
            blocks.append((args[1].shape, args[2].shape))
            return original(*args, **kwargs)

        monkeypatch.setattr(criterion, "psi_pair", psi_pair)
        calls = [(self.S, self.S), (self.S[:5], self.S[2:])]
        monkeypatch.setattr(criterion, "_cpus", lambda: 1)
        want = [criterion._criterion_rows(den, num, 0.0, K2).tobytes()
                for den, num in calls]
        one = sorted(blocks)
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
    assert psi._odd_columns(S, S).size
    scaled, original = [], criterion.psi_pair

    def psi_pair(*args, **kwargs):
        scaled.append(kwargs["scaled"].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(criterion, "psi_pair", psi_pair)
    want = upsilon_all(Sample(x), fam, None, K2)
    assert scaled and not any(scaled)
    # With every odd column scaled, the same bits.
    monkeypatch.setattr(criterion, "psi_pair", original)
    monkeypatch.setattr(criterion, "_settle",
                        lambda kernel, u, v: (u, v, psi._odd_columns(u, v)))
    assert upsilon_all(Sample(x), fam, None, K2).tobytes() == want.tobytes()
