"""Exact invariants of psi and the criterion, checked against a dense T.

The dense T built here is the (N, N, n) broadcast the criterion engine
avoids: T[j, k] = sum_i psi(sqrt q_k(x_i), sqrt q_j(x_i)), with psi from
:func:`psi_pair_oracle`, an independent full-pass implementation of the 0/inf
conventions.  Every comparison is exact equality, because the engine sums
each entry in the same index order.
"""

import inspect
import itertools
import math
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rhoest import (Cauchy, ContractViolationError, Density1D, DensityFamily,
                    Exponential, Gaussian, Histogram, Laplace, PathologicalGaussian,
                    Penalty, ProductDensity, Sample, Tabulated, Uniform,
                    kernel_constants, psi_pair, rho_estimate, t_statistic, upsilon,
                    upsilon_all)
from rhoest import criterion, densities, psi
from rhoest.models import build_gaussian_location_grid

KERNELS = [kernel_constants("psi1"), kernel_constants("psi2")]
PROPERTY = settings(max_examples=60, deadline=None)

sqrt_values = st.one_of(
    st.sampled_from([0.0, np.inf, 1.0, 5e-324, 1e300]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
# Square roots of float64 densities: 0, inf, or at least sqrt(5e-324).
density_sqrts = st.floats(min_value=0.0, allow_nan=False).map(np.sqrt)


# Roots where the psi1 ratio stops being exact, plus the 0 and inf cases.
special_roots = st.sampled_from([0.0, 5e-324, 2.3e-162, 1e-161, 1e-160, 1e-157,
                                 1e-150, 1.0, 1e150, 1e154, 1e160, 1.7e308,
                                 np.inf])
any_roots = st.one_of(special_roots, st.floats(min_value=0.0, allow_nan=False))
# Half zeros and infinities, so most broadcast blocks have several entries
# that psi_pair's fix-up sets.
block_roots = st.one_of(st.sampled_from([0.0, np.inf]), any_roots)


def psi_pair_oracle(kernel, num_sqrt, den_sqrt):
    """psi on (u, v) with every 0/inf convention applied by a full np.where pass.

    Every positive finite pair is taken on both roots scaled by the power of
    two that brings the larger into [0.5, 1).  Scaling changes no bit where
    the unscaled ratio neither under- nor overflows, so this reference does
    not depend on where psi_pair starts to scale.
    """
    u = np.asarray(num_sqrt, dtype=float)
    v = np.asarray(den_sqrt, dtype=float)

    def ratio(a, b):
        if kernel.id == "psi1":
            return (a - b) / np.sqrt(a * a + b * b)
        return (a - b) / (a + b)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = np.frexp(np.maximum(u, v))[1]
        vals = ratio(np.ldexp(u, -e), np.ldexp(v, -e))
    vals = np.where(u == v, 0.0, vals)
    vals = np.where((u > v) & ((v == 0.0) | np.isinf(u)), 1.0, vals)
    vals = np.where((v > u) & ((u == 0.0) | np.isinf(v)), -1.0, vals)
    return float(vals) if vals.ndim == 0 else vals


def dense_t(S, kernel):
    return psi_pair_oracle(kernel, S[np.newaxis, :, :],
                           S[:, np.newaxis, :]).sum(axis=2)


def square_path_t(S, kernel):
    """T as the all-candidates (upper triangle plus mirror) path computes it.

    Column k is read off as the row maxima under a penalty that is 0 at k
    and +inf elsewhere.
    """
    T = np.empty((len(S), len(S)))
    for k in range(len(S)):
        pen = np.full(len(S), np.inf)
        pen[k] = 0.0
        T[:, k] = criterion._criterion_rows(S, S, pen, kernel)
    return T


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def root_operands(draw):
    """(u, v) as Python floats, equal-length vectors, broadcasting blocks, or
    arrays of mixed ranks: 0-d against an array, a last axis of 1, fewer axes."""
    kind = draw(st.sampled_from(["scalar", "vector", "broadcast", "mixed"]))
    if kind == "scalar":
        return draw(any_roots), draw(any_roots)
    n = draw(st.integers(1, 8))
    if kind == "vector":
        return (draw(hnp.arrays(float, n, elements=any_roots)),
                draw(hnp.arrays(float, n, elements=any_roots)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if kind == "broadcast":
        return (draw(hnp.arrays(float, (1, cols, n), elements=block_roots)),
                draw(hnp.arrays(float, (rows, 1, n), elements=block_roots)))
    full = (rows, cols, n)

    def operand():
        # The trailing axes of (rows, cols, n), each kept or shrunk to 1.
        dims = full[3 - draw(st.integers(0, 3)):]
        shape = tuple(d if draw(st.booleans()) else 1 for d in dims)
        return draw(hnp.arrays(float, shape, elements=block_roots))

    return operand(), operand()


@st.composite
def root_matrices(draw):
    """(den, num) root matrices of (J, n) and (K, n) from ``block_roots``,
    with some columns set to 0 or inf in both, as where every density of a
    grid vanishes at an outlier."""
    n = draw(st.integers(1, 9))
    den = draw(hnp.arrays(float, (draw(st.integers(1, 7)), n), elements=block_roots))
    num = draw(hnp.arrays(float, (draw(st.integers(1, 7)), n), elements=block_roots))
    for col in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        fill = draw(st.sampled_from([0.0, np.inf]))
        den[:, col] = fill
        num[:, col] = fill
    return den, num


# Both kernels' exact ranges (psi1 [2**-450, 2**450], psi2 [2**-540, 2**940])
# with the binade past each end, the stand-ins that settle 0 and inf, and
# roots 2**50 from a stand-in, where it would no longer give exactly +-1.
RANGE_ENDS = [2.0 ** -450, 2.0 ** -451, 2.0 ** 450, 2.0 ** 451, 2.0 ** -540,
              2.0 ** -541, 2.0 ** 940, 2.0 ** 941]
STAND_INS = [2.0 ** -511, 2.0 ** 511, 2.0 ** -600, 2.0 ** 1000]
NEAR_STAND_INS = [2.0 ** -461, 2.0 ** 461, 2.0 ** -550, 2.0 ** 950]
EDGES = RANGE_ENDS + STAND_INS + NEAR_STAND_INS
edge_roots = st.one_of(st.sampled_from([0.0, np.inf, *EDGES]), any_roots)


@st.composite
def settle_matrices(draw):
    """(den, num) root matrices whose columns are all 0, all inf, a mix of
    0, inf and range-end or stand-in roots, or drawn from ``block_roots``."""
    n = draw(st.integers(1, 8))
    J, K = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    den, num = np.empty((J, n)), np.empty((K, n))
    for col in range(n):
        kind = draw(st.sampled_from(["zero", "inf", "mixed", "any"]))
        if kind in ("zero", "inf"):
            den[:, col] = num[:, col] = 0.0 if kind == "zero" else np.inf
            continue
        roots = edge_roots if kind == "mixed" else block_roots
        den[:, col] = draw(hnp.arrays(float, J, elements=roots))
        num[:, col] = draw(hnp.arrays(float, K, elements=roots))
    return den, num


def range_end_examples(test):
    """An example per range end, per root one binade past it, per stand-in
    and per root near one, each beside a zero (low roots) or an infinity
    (high roots)."""
    for end in EDGES:
        odd = 0.0 if end < 1.0 else np.inf
        mats = np.array([[odd, 1.0]]), np.array([[end, 0.5], [odd, 2.0]])
        test = example(mats=mats, block=1)(test)
    return test


@st.composite
def sample_and_family(draw, max_size=6):
    """A sample plus distinct entries with zero and infinite density values."""
    points = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                           min_size=1, max_size=25))
    n = len(points)
    marginal = st.one_of(
        st.builds(Gaussian, st.floats(-3.0, 3.0), st.floats(0.3, 3.0)),
        st.builds(lambda a, w: Uniform(a, a + w), st.floats(-4.0, 3.0),
                  st.floats(0.1, 4.0)),
        st.builds(PathologicalGaussian, st.sampled_from(points)))
    marginals = draw(st.lists(marginal, min_size=1, max_size=max_size,
                              unique_by=lambda d: d.key()))
    fam = DensityFamily([ProductDensity(iid=d, n=n) for d in marginals])
    pen = draw(st.lists(st.floats(0.0, 5.0), min_size=len(fam),
                        max_size=len(fam)))
    return Sample(np.array(points)), fam, Penalty(dict(enumerate(pen)))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
class TestExactInvariants:
    @PROPERTY
    @given(u=st.lists(sqrt_values, min_size=1, max_size=20), data=st.data())
    def test_psi_pair_antisymmetric(self, kernel, u, data):
        v = data.draw(st.lists(sqrt_values, min_size=len(u), max_size=len(u)))
        u, v = np.array(u), np.array(v)
        assert np.array_equal(psi_pair(kernel, u, v), -psi_pair(kernel, v, u))

    @settings(max_examples=300, deadline=None)
    @given(operands=root_operands())
    def test_psi_pair_matches_oracle_bitwise(self, kernel, operands):
        for u, v in (operands, operands[::-1]):
            got, want = psi_pair(kernel, u, v), psi_pair_oracle(kernel, u, v)
            assert type(got) is type(want)
            assert same_bits(got, want)

    @PROPERTY
    @given(u=st.lists(density_sqrts, min_size=1, max_size=20), data=st.data())
    def test_psi_pair_bounded_on_density_square_roots(self, kernel, u, data):
        v = data.draw(st.lists(density_sqrts, min_size=len(u), max_size=len(u)))
        assert np.all(np.abs(psi_pair(kernel, np.array(u), np.array(v))) <= 1.0)

    @PROPERTY
    @given(case=sample_and_family())
    def test_t_antisymmetric_with_zero_diagonal(self, kernel, case):
        X, fam, _pen = case
        T = np.array([[t_statistic(X, fam[j], fam[k], kernel)
                       for k in range(len(fam))] for j in range(len(fam))])
        assert np.array_equal(T, -T.T)
        assert np.all(np.diag(T) == 0.0)

    @PROPERTY
    @given(case=sample_and_family())
    def test_t_statistic_matches_dense(self, kernel, case):
        X, fam, _pen = case
        T = dense_t(fam.sqrt_value_matrix(X), kernel)
        for j in range(len(fam)):
            for k in range(len(fam)):
                assert t_statistic(X, fam[j], fam[k], kernel) == T[j, k]

    @PROPERTY
    @given(case=sample_and_family())
    def test_upsilon_matches_upsilon_all_and_dense(self, kernel, case):
        X, fam, pen = case
        ups = upsilon_all(X, fam, pen, kernel)
        pvec = pen.vector(len(fam))
        T = dense_t(fam.sqrt_value_matrix(X), kernel)
        assert np.array_equal(ups, np.max(T - pvec, axis=1) + pvec)
        for j in range(len(fam)):
            assert upsilon(X, fam[j], fam, pen, kernel) == ups[j]

    @PROPERTY
    @given(case=sample_and_family(), data=st.data())
    def test_upsilon_all_permutation_invariant(self, kernel, case, data):
        X, fam, pen = case
        perm = data.draw(st.permutations(range(len(fam))))
        pvec = pen.vector(len(fam))
        shuffled = DensityFamily([fam[i] for i in perm])
        shuffled_pen = Penalty({new: pvec[old] for new, old in enumerate(perm)})
        ups = upsilon_all(X, fam, pen, kernel)
        assert np.array_equal(upsilon_all(X, shuffled, shuffled_pen, kernel),
                              ups[list(perm)])

    @settings(max_examples=200, deadline=None)
    @given(mats=root_matrices(), block=st.integers(1, 4096))
    @example(mats=(np.array([[1e-300, 1e-310]]), np.array([[1e-310, 1e-300]])),
             block=1)
    def test_criterion_rows_match_oracle_bitwise(self, kernel, mats, block):
        den, num = mats
        pen = np.linspace(0.0, 1.0, len(num))
        with mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
            T = psi_pair_oracle(kernel, num[np.newaxis, :, :],
                                den[:, np.newaxis, :]).sum(axis=2)
            T_square = dense_t(num, kernel)
            assert same_bits(criterion._criterion_rows(den, num, pen, kernel),
                             np.max(T - pen, axis=1))
            assert same_bits(criterion._criterion_rows(num, num, pen, kernel),
                             np.max(T_square - pen, axis=1))
            assert same_bits(square_path_t(num, kernel), T_square)

    @settings(max_examples=200, deadline=None)
    @given(mats=settle_matrices(), block=st.integers(1, 64))
    @range_end_examples
    def test_settled_columns_match_oracle_bitwise(self, kernel, mats, block):
        """psi_pair and the criterion, square and not, both ways round; a
        floating-point warning would fail the test (the tests make them errors)."""
        for den, num in (mats, mats[::-1]):
            pen = np.linspace(0.0, 1.0, len(num))
            want = psi_pair_oracle(kernel, num[np.newaxis, :, :], den[:, np.newaxis, :])
            assert same_bits(psi_pair(kernel, num[np.newaxis, :, :],
                                      den[:, np.newaxis, :]), want)
            with mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
                assert same_bits(criterion._criterion_rows(den, num, pen, kernel),
                                 np.max(want.sum(axis=2) - pen, axis=1))
                assert same_bits(criterion._criterion_rows(num, num, pen, kernel),
                                 np.max(dense_t(num, kernel) - pen, axis=1))

    def test_settled_and_scaled_columns(self, kernel):
        """Zeros and infinities beside roots of the exact range settle, and
        beside a root one binade past it, or equal to a stand-in, they scale."""
        lo, hi, zero, inf = psi._ROOTS[kernel.id, np.float64]
        u = np.array([[0.0, np.inf, 0.0, 0.0, np.inf, np.inf, 0.0, 0.0, np.inf, 1.0],
                      [0.0, np.inf, lo, lo / 2, hi, hi * 2, zero, 0.0, inf, 2.0]])
        v = np.array([[0.0, np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, np.inf, 1.0, 1.0]])
        su, sv, scaled = psi._settle(kernel, u, v)
        assert scaled.tolist() == [3, 5, 6, 8]
        # The settled columns hold stand-ins, the scaled ones their own roots.
        assert su[:, [0, 2]].tolist() == [[zero, zero], [zero, lo]]
        assert sv[0, [1, 7]].tolist() == [inf, inf]
        assert same_bits(su[:, scaled], u[:, scaled])
        assert same_bits(psi_pair(kernel, u, v), psi_pair_oracle(kernel, u, v))
        assert same_bits(psi_pair(kernel, su, sv, scaled=scaled),
                         psi_pair_oracle(kernel, u, v))

    @pytest.mark.parametrize("operand", ["0-d", "(h, 1)"])
    def test_broadcast_operand_beside_odd_columns(self, kernel, operand):
        """A 0-d operand, or an (h, 1) one, against a matrix with columns of
        0, inf, 2**-500, 2**500, both of them, and roots a binade past the
        kernel's exact range beside 0 and inf: psi_pair broadcasts the two
        and gives the oracle's bits, both ways round, with no warning."""
        lo, hi = psi._ROOTS[kernel.id, np.float64][:2]
        odd = [0.0, np.inf, 2.0 ** -500, 2.0 ** 500, lo / 2.0, hi * 2.0]
        columns = [[0.0] * 6, [np.inf] * 6, [2.0 ** -500] * 6, [2.0 ** 500] * 6,
                   [2.0 ** -500, 2.0 ** 500] * 3, [lo / 2.0, 0.0] * 3,
                   [hi * 2.0, np.inf] * 3, [0.0, np.inf, 1.0] * 2,
                   [0.5, 1.0, 2.0] * 2]
        M = np.array(columns).T
        if operand == "0-d":
            others = [np.array(x) for x in odd + [1.0]]
        else:
            others = [np.array(odd)[:, np.newaxis], np.array(odd[::-1])[:, np.newaxis]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a in others:
                for u, v in ((a, M), (M, a)):
                    assert same_bits(psi_pair(kernel, u, v), psi_pair_oracle(kernel, u, v))

    def test_several_blocks_match_dense(self, kernel):
        n = 700
        fam = build_gaussian_location_grid(-2.0, 1.9, 0.1, 1.0, n).family
        X = Sample(np.random.default_rng(3).standard_cauchy(n))
        assert len(fam) ** 2 * n > 2 * criterion._BLOCK_ELEMENTS
        pvec = np.linspace(0.0, 2.0, len(fam))
        T = dense_t(fam.sqrt_value_matrix(X), kernel)
        ups = upsilon_all(X, fam, Penalty(dict(enumerate(pvec))), kernel)
        assert np.array_equal(ups, np.max(T - pvec, axis=1) + pvec)


def zeros_and_infinities_case():
    """Uniforms vanish off their supports; PathologicalGaussians with centres
    2.5 and 3 are infinite there, and both centres are sample points.  The
    two Uniforms far off the sample vanish at every point, so their T
    entries are zero sums."""
    points = np.array([-2.5, -1.0, -0.2, 0.0, 0.4, 0.9, 1.5, 2.5, 3.0, 6.0, -7.0])
    marginals = ([Uniform(a, a + w) for a, w in ((-3.0, 2.5), (-1.0, 2.0),
                                                 (0.0, 4.0), (-1.0, 2.0 + 1e-9),
                                                 (50.0, 1.0), (60.0, 1.0))]
                 + [PathologicalGaussian(c) for c in (0.9, 2.5, 3.0)]
                 + [Gaussian(m, 1.0) for m in np.linspace(-2.0, 2.0, 13)])
    return points, marginals


def tiny_roots_case():
    """Gaussian densities near 1e-314 at x = 38, whose square roots lie below
    1e-150, facing Uniform entries that vanish there: zero against a root
    whose square underflows, where the psi1 ratio alone need not give +-1."""
    points = np.array([-1.0, 0.0, 0.5, 37.9, 38.0, 38.2, 38.6])
    marginals = ([Uniform(-2.0, 2.0), Uniform(-2.0, 38.1), Uniform(0.0, 39.0)]
                 + [Gaussian(m, 1.0) for m in np.linspace(-0.5, 0.5, 9)])
    return points, marginals


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
@pytest.mark.parametrize("block", [1, 64, 4096])
@pytest.mark.parametrize("case", [zeros_and_infinities_case, tiny_roots_case])
def test_triangle_blocks_match_dense(kernel, block, case, monkeypatch):
    monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", block)
    points, marginals = case()
    fam = DensityFamily([ProductDensity(iid=d, n=len(points)) for d in marginals])
    X = Sample(points)
    S = fam.sqrt_value_matrix(X)
    T = dense_t(S, kernel)
    pvec = np.linspace(0.0, 3.0, len(fam))
    ups = upsilon_all(X, fam, Penalty(dict(enumerate(pvec))), kernel)
    assert np.array_equal(ups, np.max(T - pvec, axis=1) + pvec)
    T_square = square_path_t(S, kernel)
    assert same_bits(T_square, T)
    assert same_bits(np.diag(T_square), np.zeros(len(fam)))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
@pytest.mark.parametrize("block", [1, 64, 4096])
@pytest.mark.parametrize("case", [zeros_and_infinities_case, tiny_roots_case])
def test_shared_blocks_match_one_thread_bitwise(kernel, block, case, monkeypatch):
    """One, two or three shares of the blocks give the same bits, square and
    not, on families with zero, infinite and tiny roots."""
    monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", block)
    points, marginals = case()
    fam = DensityFamily([ProductDensity(iid=d, n=len(points)) for d in marginals])
    S = fam.sqrt_value_matrix(Sample(points))
    pen = np.linspace(0.0, 3.0, len(S))
    calls = [(S, S), (S[:5], S), (S, S[3:]), (S[-1:], S[:1])]

    def rows(cpus):
        monkeypatch.setattr(criterion, "_cpus", lambda: cpus)
        return [criterion._criterion_rows(den, num, pen[:len(num)], kernel).tobytes()
                for den, num in calls]

    one = rows(1)
    assert rows(2) == one
    assert rows(3) == one


# ---------------------------------------------------------------------------
# The square criterion's float32 screen and float64 certificate
# ---------------------------------------------------------------------------

# The float32 screen's range ends (psi1 [2**-30, 2**30], psi2 [2**-60,
# 2**60]), the binade past each, its stand-ins, and roots outside both
# kernels' exact ranges, which the criterion rescales.
SCREEN_EDGES = [2.0 ** -30, 2.0 ** 30, 2.0 ** -31, 2.0 ** 31, 2.0 ** -60,
                2.0 ** 60, 2.0 ** -61, 2.0 ** 61, 2.0 ** -62, 2.0 ** 62,
                2.0 ** -120, 2.0 ** 120]
SCALED_ROOTS = [5e-324, 2.0 ** -600, 2.0 ** 1000]
screen_roots = st.one_of(
    st.sampled_from([0.0, np.inf, *SCREEN_EDGES, *SCALED_ROOTS]),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-64, 64)))


@st.composite
def screen_case(draw):
    """(S, pen): the roots of a square criterion call and its penalties.

    The rows are Gaussian location-grid roots exp(-(x - theta)**2 / 4) at
    drawn points, so that rows have close rivals.  Some columns are then all
    0, all inf, or redrawn from ``screen_roots``; some rows repeat others
    (ties); the rows are shuffled.  The penalties are none, drawn, or partly
    infinite.
    """
    # Besides small n, widths whose float32 columns can fill the screen's
    # runs of psi._CHUNK = 16 but one, exactly, or leave one over.
    J = draw(st.integers(2, 24))
    n = draw(st.one_of(st.integers(1, 10), st.sampled_from([15, 16, 17, 31, 32, 33])))
    thetas = draw(hnp.arrays(float, (J, 1), elements=st.floats(-2.0, 2.0)))
    x = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    S = np.exp(-(x - thetas) ** 2 / 4.0)
    for col in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        kind = draw(st.sampled_from(["zero", "inf", "edges"]))
        S[:, col] = (draw(hnp.arrays(float, J, elements=screen_roots)) if kind == "edges"
                     else 0.0 if kind == "zero" else np.inf)
    for _ in range(draw(st.integers(0, 3))):
        S[draw(st.integers(0, J - 1))] = S[draw(st.integers(0, J - 1))]
    S = S[draw(st.permutations(range(J)))]
    pen = draw(st.one_of(st.just(0.0), hnp.arrays(float, J, elements=st.one_of(
        st.floats(0.0, 2.0), st.just(np.inf)))))
    return S, pen


def screened_call(S, pen, kernel, block):
    """The rows of the square call on S with blocks of ``block`` values, and
    T as its screen left it (None when nothing was screened).

    ``_BLOCK_ELEMENTS`` is ``block`` or, where the screen's gate
    J * J * n >= 32 * _BLOCK_ELEMENTS needs it, the largest smaller value
    that passes the gate: 0, one pair per block, when J * J * n < 32."""
    screens, run = [], criterion._run
    block = min(block, len(S) * S.size // 32)

    def spy(blocks, step, work):
        run(blocks, step, work)
        if inspect.getclosurevars(step).nonlocals.get("m"):  # float32 columns
            screens.append(inspect.getclosurevars(step).nonlocals["T"].copy())

    with mock.patch.object(criterion, "_run", spy), \
            mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
        rows = criterion._criterion_rows(S, S, pen, kernel)
    return rows, (screens[0] if screens else None)


def single_columns(S, kernel):
    """How many columns the screen sums in float32."""
    lo, hi = psi._ROOTS[kernel.id, np.float32][:2]
    return int((((S >= lo) & (S <= hi)) | (S == 0.0) | (S == np.inf)).all(axis=0).sum())


GRID_EXAMPLE = (np.exp(-(np.linspace(-3.0, 3.0, 9) - np.linspace(-2.0, 2.0, 17)[:, None])
                       ** 2 / 4.0), 0.0)
# Two groups of identical rows, at theta = -1 and +1 on a sample symmetric
# about 0, and two infinite penalties: 65 of the 66 pairs j < k tie within
# the screen's margin, and the certificate sums them all.
TIE_EXAMPLE = (np.repeat(GRID_EXAMPLE[0][[4, 12]], [7, 5], axis=0),
               np.where(np.isin(np.arange(12), [1, 9]), np.inf, 0.0))


def stand_in_example(n):
    """A 17-row grid case of n columns, the first all 0 and the second all
    inf, so that all n are float32 columns beside stand-ins."""
    S = np.exp(-(np.linspace(-3.0, 3.0, n) - np.linspace(-2.0, 2.0, 17)[:, None]) ** 2 / 4.0)
    S[:, :2] = 0.0, np.inf
    return S, 0.0


def padded(m):
    """m', the m float32 columns padded to whole runs of psi._CHUNK."""
    return -(-m // psi._CHUNK) * psi._CHUNK


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
class TestScreen:
    @settings(max_examples=150, deadline=None)
    @given(case=screen_case(), data=st.data())
    @example(case=GRID_EXAMPLE, data=None)
    @example(case=TIE_EXAMPLE, data=None)
    def test_screened_rows_match_the_plain_engine_bitwise(self, kernel, case, data):
        """Forced by small blocks, a screened call gives the plain engine's
        rows, the sign of zero included, and the dense T's."""
        S, pen = case
        block = 1 if data is None else data.draw(st.integers(1, S.size // 2))
        got, screen = screened_call(S, pen, kernel, block)
        assert (screen is None) == (single_columns(S, kernel) == 0)
        with mock.patch.object(criterion, "_BLOCK_ELEMENTS", S.size):  # below the gate
            want = criterion._criterion_rows(S, S, pen, kernel)
        assert same_bits(got, want)
        assert same_bits(got, np.max(dense_t(S, kernel) - pen, axis=1))

    @settings(max_examples=150, deadline=None)
    @given(case=screen_case(), data=st.data())
    @example(case=GRID_EXAMPLE, data=None)
    @example(case=stand_in_example(17), data=None)
    @example(case=stand_in_example(31), data=None)
    @example(case=stand_in_example(32), data=None)
    def test_screen_within_its_error_bound(self, kernel, case, data):
        """|screen - T| <= E = 5 m' 2**-21 + n' (n' + 8) 2**-51 on every
        entry on and above the diagonal, with m the float32 columns, m'
        them padded to whole runs and n' = m' + n - m."""
        S, _ = case
        J, n = S.shape
        block = 1 if data is None else data.draw(st.integers(1, S.size // 2))
        _, screen = screened_call(S, 0.0, kernel, block)
        single = single_columns(S, kernel)
        if screen is None:
            assert single == 0
            return
        mp = padded(single)
        bound = mp * 5 * 2.0 ** -21 + (mp + n - single) * (mp + n - single + 8) * 2.0 ** -51
        upper = np.triu_indices(J)
        assert np.all(np.abs(screen[upper] - dense_t(S, kernel)[upper]) <= bound)
        assert same_bits(np.diag(screen), np.zeros(J))

    @pytest.mark.parametrize("m", [1, 15, 16, 17, 2000])
    def test_screen_sums_within_their_share_of_the_bound(self, kernel, m):
        """On a block of 3 rows and 7 challengers, over m float32 columns
        beside stand-ins and a workspace left full of NaN, screen_sums is
        within 5 m' 2**-21 of the float64 sums of psi on the same float32
        roots, and exactly +0.0 on pairs of equal rows."""
        rng = np.random.default_rng(m)
        roots = np.exp(-rng.uniform(0.0, 8.0, (12, m)))
        roots[4, :] = roots[3, :]
        roots[5, ::2] = psi._ROOTS[kernel.id, np.float32][2:][rng.integers(0, 2)]
        ops = kernel.screen_operands(roots)
        mp = padded(m)
        assert ops.shape == (1 + (kernel.id == "psi1"), 12, mp)
        assert same_bits(ops[0, :, :m], roots.astype(np.float32))
        assert np.all(ops[..., m:] == 1.0)
        r, h, c, w = 2, 3, 1, 7
        work = np.full((2, h, w, mp), np.nan, np.float32)
        sums = np.full((h, w), np.nan)
        with np.errstate(under="ignore"):
            kernel.screen_sums(ops[:, np.newaxis, c:c + w], ops[:, r:r + h, np.newaxis],
                               work, sums)
        u = ops[0, :, :m].astype(float)
        want = psi_pair_oracle(kernel, u[np.newaxis, c:c + w],
                               u[r:r + h, np.newaxis]).sum(axis=2)
        assert np.all(np.abs(sums - want) <= mp * 5 * 2.0 ** -21)
        equal = (u[r:r + h, np.newaxis] == u[np.newaxis, c:c + w]).all(axis=2)
        assert equal.sum() == 5  # rows 2, 3 and 4 each, and rows 3 and 4 both ways
        assert same_bits(sums[equal], np.zeros(5))

    def test_margin_holds_against_screen_errors_of_nine_tenths_of_e(self, kernel):
        """Near ties on a location grid whose step puts neighbours E / 2
        apart, all 40 columns in float32: every screened sum above the
        diagonal is moved by 0.9 E, each row's exact maximum down and its
        other entries up (a mirrored entry moves the other way), and the
        diagonal is left exact.  Every row's exact maximum is then its entry
        for the last row, whose own screen drops the rows far from it, and
        such a row screens its maximum 1.3 E below the runner-up; yet every
        row keeps the plain engine's bits."""
        x = np.linspace(-2.5, 3.5, 40)
        mp = padded(len(x))
        bound = mp * 5 * 2.0 ** -21 + mp * (mp + 8) * 2.0 ** -51

        def grid(step):
            return np.exp(-(x - step * np.arange(24)[:, np.newaxis]) ** 2 / 4.0)

        S = grid(0.5 * bound * 1e-6 / dense_t(grid(1e-6), kernel)[0, 1])
        J, n = S.shape
        assert single_columns(S, kernel) == n
        exact = dense_t(S, kernel)
        best = np.argmax(exact, axis=1)
        assert np.all(best == J - 1)
        j, k = np.triu_indices(J, 1)
        # Moving (j, k), j < k, moves the mirrored (k, j) the other way.
        push = np.zeros((J, J))
        push[j, k] = np.where((best[j] != k) | (best[k] == j), 0.9, -0.9) * bound
        ops, operands, sums_of = [], psi.PsiKernel.screen_operands, psi.PsiKernel.screen_sums

        def screen_operands(self, roots):
            ops.append(operands(self, roots))
            return ops[-1]

        def screen_sums(self, u, v, work, sums):
            sums_of(self, u, v, work, sums)
            row = ops[0].strides[1]
            r = (v.ctypes.data - ops[0].ctypes.data) // row
            c = (u.ctypes.data - ops[0].ctypes.data) // row
            sums += push[r:r + sums.shape[0], c:c + sums.shape[1]]

        with mock.patch.object(psi.PsiKernel, "screen_operands", screen_operands), \
                mock.patch.object(psi.PsiKernel, "screen_sums", screen_sums):
            got, screen = screened_call(S, 0.0, kernel, 1)
        upper = np.triu_indices(J)
        assert np.all(np.abs(screen[upper] - exact[upper]) <= bound)
        assert np.abs(screen - exact).max() > 0.85 * bound
        assert same_bits(np.diag(screen), np.zeros(J))
        assert np.any(np.argmax(screen, axis=1) != best)
        with mock.patch.object(criterion, "_BLOCK_ELEMENTS", S.size):  # below the gate
            want = criterion._criterion_rows(S, S, 0.0, kernel)
        assert same_bits(got, want)
        assert same_bits(got, np.max(exact, axis=1))

    def test_near_tie_that_the_screen_orders_wrongly(self, kernel):
        """Penalties that leave row 0 two challengers whose exact values lie
        half their screening errors apart, in the order the screen reverses:
        the row still gets its exact maximum."""
        S = GRID_EXAMPLE[0]
        _, screen = screened_call(S, 0.0, kernel, 1)
        exact = dense_t(S, kernel)
        err = screen[0] - exact[0]
        k1, k2 = 1 + np.argsort(err[1:])[[0, -1]]
        assert err[k1] < err[k2]
        # Exactly k1 wins by (err[k2] - err[k1]) / 2; the screen says k2 does.
        pen = np.full(len(S), np.inf)
        pen[k2] = 20.0
        pen[k1] = 20.0 + exact[0, k1] - exact[0, k2] - (err[k2] - err[k1]) / 2.0
        assert exact[0, k1] - pen[k1] > exact[0, k2] - pen[k2]
        assert screen[0, k1] - pen[k1] < screen[0, k2] - pen[k2]
        got, _ = screened_call(S, pen, kernel, 1)
        assert same_bits(got, np.max(exact - pen, axis=1))
        assert got[0] == exact[0, k1] - pen[k1]


# Quadrature nodes reach psi_pair as Python floats or np.float64 roots.
# Below about 1e-162 psi1's u*u + v*v underflows to 0 (1e-200 with 5e-324).
# Operand types that take psi_pair's scalar path: 0-d arrays as well as floats.
SCALAR_TYPES = list(itertools.product((float, np.float64, np.asarray), repeat=2))
node_roots = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 1e-160, 1e-150, 1.0, 1e150,
                     1e160, 1.7e308, np.inf]),
    st.floats(min_value=0.0, allow_nan=False))
bad_roots = st.one_of(st.just(math.nan),
                      st.floats(max_value=0.0, exclude_max=True))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
class TestScalarPsiPair:
    @settings(max_examples=300, deadline=None)
    @given(u=node_roots, v=node_roots)
    def test_float_operands_keep_the_array_bits(self, kernel, u, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a, b in ((u, v), (v, u)):
                want = psi_pair(kernel, np.array([a]), np.array([b]))[0]
                for ta, tb in SCALAR_TYPES:
                    got = psi_pair(kernel, ta(a), tb(b))
                    assert type(got) is float
                    assert same_bits(got, want), (ta, tb, a, b)

    def test_integer_operands_take_the_scalar_path(self, kernel):
        for a, b in ((2, 1), (np.int64(0), 3), (4, np.asarray(4))):
            got = psi_pair(kernel, a, b)
            assert type(got) is float
            assert same_bits(got, psi_pair(kernel, float(a), float(b)))

    @PROPERTY
    @given(good=node_roots, bad=bad_roots)
    def test_float_operands_reject_nan_and_negative_roots(self, kernel, good, bad):
        for (ta, tb), (a, b) in itertools.product(SCALAR_TYPES,
                                                  ((good, bad), (bad, good))):
            with pytest.raises(ContractViolationError, match="square roots"):
                psi_pair(kernel, ta(a), tb(b))

    def test_float_operands_at_the_exact_range_ends(self, kernel):
        """Roots at both kernels' float64 range ends, one binade past each,
        and in psi1's band (2**450, 2**500] and its mirror [2**-500, 2**-450),
        where the scalar path rescales psi1's pairs and keeps psi2's: every
        pair of them, beside 0, inf and ordinary roots, gives the array
        path's bits and the oracle's."""
        ends = [e for lo, hi, _, _ in (psi._ROOTS[k.id, np.float64] for k in KERNELS)
                for e in (lo, lo / 2.0, hi, hi * 2.0)]
        band = [2.0 ** 451, 1.5 * 2.0 ** 475, 2.0 ** 500, 2.0 ** -451,
                1.5 * 2.0 ** -475, 2.0 ** -500]
        roots = ends + band + [0.0, 0.5, 1.0, 3.0, np.inf]
        u, v = (np.array(pair) for pair in zip(*itertools.product(roots, repeat=2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want = psi_pair(kernel, u, v)
            got = [psi_pair(kernel, a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert same_bits(want, psi_pair_oracle(kernel, u, v))
        assert same_bits(got, want)


def test_psi1_bounded_below_density_square_roots():
    assert abs(psi_pair(kernel_constants("psi1"), 2e-242, 5e-324)) <= 1.0


# ---------------------------------------------------------------------------
# The stacked sqrt-value matrix against one coord_values call per entry
# ---------------------------------------------------------------------------

# Sample points that parameters below take exactly: x == theta, support ends.
# 2.759**2 != 2.759 * 2.759: Python's float ** is libm's pow, numpy squares.
STACK_POINTS = (-1.5, -0.25, 0.0, 0.5, 1.0, 2.0, 2.759, 30.0)


class ValuesEntry:
    """A family entry that is no ProductDensity; it counts its calls."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n = len(self.values)
        self.calls = 0

    def coord_values(self, X):
        self.calls += 1
        return self.values.copy()

    def key(self):
        return ("values", id(self))


def marginals_of_every_kind(points):
    """Densities of every stackable kind plus a histogram, with int and float
    parameters, extreme scales, parameters at sample points, an exponential
    of rate 1e3, singular Gaussians with a spike at a sample point, at
    theta <= 0 and overflowing (theta = 30), and ints past 2**53, which
    every kind computes with in float64 (float64 rounds 2**53 + 1, and the
    uniform's b - a and theta * theta show it; 10**200 squared overflows)."""
    at = st.sampled_from(points)
    number = st.one_of(st.integers(-5, 5), st.floats(-5.0, 5.0), at)
    scale = st.one_of(st.integers(1, 3), st.floats(0.05, 20.0),
                      st.sampled_from([5e-324, 1e-300, 1e300]))
    return st.one_of(
        st.builds(Gaussian, number, scale),
        st.builds(Cauchy, number, scale),
        st.builds(Laplace, number, scale),
        st.lists(at, min_size=2, max_size=2, unique=True).filter(
            lambda ab: 1.0 / abs(ab[1] - ab[0]) < math.inf).map(
            lambda ab: Uniform(*sorted(ab))),
        st.builds(Exponential, st.one_of(scale, st.just(1e3)), number),
        st.builds(PathologicalGaussian, st.one_of(number, at)),
        st.just(Histogram((-1.0, 0.0, 2.0), (0.5, 0.25))),
        st.builds(Gaussian, st.sampled_from([2**53 + 1, -(2**60) - 1]), scale),
        st.just(Uniform(-1, 2**53 + 1)),
        st.builds(PathologicalGaussian, st.sampled_from([2**53 + 1, 10**200])))


@st.composite
def stacked_family(draw):
    """A sample and a family that interleaves kinds, with a non-i.i.d.
    product and an entry that is no ProductDensity at drawn places."""
    extra = draw(st.lists(st.floats(-50.0, 50.0), max_size=6))
    points = list(STACK_POINTS) + extra
    n = len(points)
    kinds = marginals_of_every_kind(points)
    entries = [ProductDensity(iid=d, n=n)
               for d in draw(st.lists(kinds, min_size=1, max_size=14))]
    if draw(st.booleans()):
        coords = draw(st.lists(kinds, min_size=n, max_size=n))
        entries.insert(draw(st.integers(0, len(entries))),
                       ProductDensity(coords=coords))
    duck = None
    if draw(st.booleans()):
        duck = ValuesEntry(draw(st.lists(st.floats(0.0, 1e300),
                                         min_size=n, max_size=n)))
        entries.insert(draw(st.integers(0, len(entries))), duck)
    return Sample(np.array(points)), DensityFamily(entries), duck


@pytest.mark.parametrize("block", [1, 64, 2**16])
@settings(max_examples=80, deadline=None)
@given(case=stacked_family())
@example(case=(Sample(np.array(STACK_POINTS)), DensityFamily(
    [ProductDensity(iid=d, n=len(STACK_POINTS)) for d in (
        Gaussian(0.5, 1.0), PathologicalGaussian(30.0), Uniform(-0.25, 1.0),
        Gaussian(0, 5e-324), PathologicalGaussian(1.0), Exponential(1e3, 0.0),
        Histogram((-1.0, 0.0, 2.0), (0.5, 0.25)), PathologicalGaussian(-1.5),
        Gaussian(2**53 + 1, 1), Cauchy(-1.5, 2), PathologicalGaussian(2.759),
        Uniform(-1, 2**53 + 1), Uniform(0, 1), PathologicalGaussian(2**53 + 1),
        PathologicalGaussian(10**200))]), None))
def test_stacked_sqrt_values_match_one_call_per_entry(block, case):
    X, fam, duck = case
    with np.errstate(all="ignore"):
        want = np.sqrt(np.stack([e.coord_values(X) for e in fam.entries]))
        if duck is not None:
            duck.calls = 0
        with mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
            got = fam.sqrt_value_matrix(X)
    assert same_bits(got, want)
    assert duck is None or duck.calls == 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_non_iid_coord_values_match_one_call_per_coordinate(data):
    points = list(STACK_POINTS) + data.draw(st.lists(st.floats(-50.0, 50.0),
                                                     max_size=6))
    kinds = marginals_of_every_kind(points)
    coords = data.draw(st.lists(kinds, min_size=len(points), max_size=len(points)))
    X = Sample(np.array(points))
    with np.errstate(all="ignore"):
        want = [np.asarray(d.pdf(X.points[i:i + 1]))[0] for i, d in enumerate(coords)]
        got = ProductDensity(coords=coords).coord_values(X)
    assert same_bits(got, want)


def test_kinds_with_ints_past_2_53_stack_with_the_entry_bits():
    # float64 holds these ints exactly or rounds them, and every kind
    # computes in float64, so an int stacks like the float it rounds to.
    ds = [Uniform(-2**1022, 2**1022), Uniform(-1, 2**53 + 1),
          PathologicalGaussian(2**600), PathologicalGaussian(10**200),
          PathologicalGaussian(2**53 + 1), Gaussian(2**60 + 1, 1), Gaussian(0, 1)]
    stacks, others = densities._stacks(ds)
    assert others == []
    assert [(idx, kind) for idx, kind, _ in stacks] == [
        ([0, 1], Uniform), ([2, 3, 4], PathologicalGaussian), ([5, 6], Gaussian)]
    X = Sample(np.array([0.0, 1.0, 2.0**53, 2.0**60, 1e200, 2.0**600]))
    fam = DensityFamily([ProductDensity(iid=d, n=X.n) for d in ds])
    with np.errstate(all="ignore"):
        want = np.sqrt(np.stack([e.coord_values(X) for e in fam.entries]))
        assert same_bits(fam.sqrt_value_matrix(X), want)


def test_one_pdf_call_per_kind_and_block(monkeypatch):
    # 50 points and blocks of 256 values: 5 entries per block, so 12
    # Gaussians take 3 calls, 5 Cauchys 1, and the histogram its own.
    monkeypatch.setattr(criterion, "_BLOCK_ELEMENTS", 256)
    calls = []

    def counted(kind):
        pdf = kind.pdf

        def spy(self, x):  # the kind and the shape of its first parameter
            first = getattr(self, next(iter(self.rules)))
            calls.append((kind.__name__, np.shape(first)))
            return pdf(self, x)
        return spy

    for kind in (Gaussian, Cauchy, Histogram):
        monkeypatch.setattr(kind, "pdf", counted(kind))
    X = Sample(np.linspace(-2.0, 2.0, 50))
    marginals = [Gaussian(0.1 * i, 1.0) for i in range(12)]
    for i, c in enumerate([Cauchy(0.2 * i, 1.0) for i in range(5)]):
        marginals.insert(3 * i + 1, c)
    marginals.insert(7, Histogram((-2.0, 0.0, 2.0), (0.25, 0.25)))
    fam = DensityFamily([ProductDensity(iid=d, n=X.n) for d in marginals])
    fam.sqrt_value_matrix(X)
    assert sorted(calls) == sorted([("Gaussian", (5, 1)), ("Gaussian", (5, 1)),
                                    ("Gaussian", (2, 1)), ("Cauchy", (5, 1)),
                                    ("Histogram", (3,))])


# ---------------------------------------------------------------------------
# Invariance under the dominating measure and the version of a density
# ---------------------------------------------------------------------------

def normal_exponents(S, e):
    """The exponents ``e``, one per column of S, clipped so that every finite
    nonzero root of column i times 2**e[i] is normal.  A column whose roots
    span more binades than that (a subnormal beside 2**1000) gets the
    largest exponent that keeps it finite, which loses no bit either."""
    finite = (S > 0.0) & (S < np.inf)
    k = np.frexp(S)[1]  # a finite nonzero root lies in [2**(k - 1), 2**k)
    low = np.where(finite, -1021 - k, -2000).max(axis=0)
    high = np.where(finite, 1024 - k, 2000).min(axis=0)
    return np.clip(e, low, high)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
class TestDominatingMeasure:
    @settings(max_examples=150, deadline=None)
    @given(case=screen_case(), data=st.data())
    def test_criterion_rows_keep_their_bits(self, kernel, case, data):
        """Every density at x_i times 4**e_i, its root times 2**e_i: the rows
        of a screened and a plain square call, and of a call on fewer rows,
        keep their bits.  The exponents reach every binade of normal roots,
        so columns move in and out of the exact and float32 ranges."""
        S, pen = case
        e = data.draw(hnp.arrays(np.int64, S.shape[1], elements=st.integers(-1100, 1100)))
        e = normal_exponents(S, e)
        moved = np.ldexp(S, e)
        assert same_bits(np.ldexp(moved, -e), S)  # no root lost a bit
        block = data.draw(st.integers(1, S.size // 2))
        rows = data.draw(st.integers(1, len(S)))

        def calls(M):
            with mock.patch.object(criterion, "_BLOCK_ELEMENTS", S.size):
                plain = criterion._criterion_rows(M, M, pen, kernel)
                fewer = criterion._criterion_rows(M[:rows], M, pen, kernel)
            return screened_call(M, pen, kernel, block)[0], plain, fewer

        for got, want in zip(calls(moved), calls(S)):
            assert got.tobytes() == want.tobytes()


def same_fits(X, families, pen, kernel, block):
    """The families' sqrt-value matrices have the same bits; so then do
    ``upsilon_all``'s values, and ``rho_estimate`` makes the same RhoFit."""
    S = families[0].sqrt_value_matrix(X)
    for fam in families[1:]:
        assert same_bits(fam.sqrt_value_matrix(X), S)
    with mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
        ups = [upsilon_all(X, fam, pen, kernel).tobytes() for fam in families]
        fits = [rho_estimate(X, fam, pen, kernel) for fam in families]
    assert all(u == ups[0] for u in ups)
    assert all(fit == fits[0] for fit in fits)


def drawn_penalty(data, size):
    values = data.draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    return Penalty(dict(enumerate(values)))


# A block of one value screens every call of two or more entries; 2**16
# leaves these small calls plain.
SCREENED_OR_PLAIN = pytest.mark.parametrize("block", [1, 2**16],
                                            ids=["screened", "plain"])


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
@SCREENED_OR_PLAIN
class TestVersionOfADensity:
    @PROPERTY
    @given(data=st.data())
    def test_uniform_histogram_and_flat_tabulated(self, kernel, block, data):
        """Uniform(a, b), the one-piece histogram and the flat tabulated
        density on [a, b], beside Gaussians, at points that include a and b."""
        ends = data.draw(st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 4.0)).map(
                lambda aw: (aw[0], aw[0] + aw[1])),
            min_size=1, max_size=4, unique=True))
        points = [x for ab in ends for x in ab]
        points += data.draw(st.lists(st.floats(-8.0, 8.0), max_size=12))
        X = Sample(np.array(points))
        versions = [
            [Uniform(a, b) for a, b in ends],
            [Histogram((a, b), (1.0 / (b - a),)) for a, b in ends],
            [Tabulated((a, b), (1.0 / (b - a),) * 2) for a, b in ends]]
        others = [Gaussian(m, 1.0) for m in data.draw(
            st.lists(st.floats(-3.0, 3.0), max_size=3, unique=True))]
        families = [DensityFamily([ProductDensity(iid=d, n=X.n)
                                   for d in version + others])
                    for version in versions]
        same_fits(X, families, drawn_penalty(data, len(families[0])), kernel, block)

    @PROPERTY
    @given(data=st.data())
    def test_iid_product_and_its_coordinates(self, kernel, block, data):
        """ProductDensity(iid=m, n=n) and ProductDensity(coords=[m] * n), for
        densities of every kind that the family stacks, and histograms."""
        points = list(STACK_POINTS) + data.draw(st.lists(st.floats(-50.0, 50.0),
                                                         max_size=6))
        X = Sample(np.array(points))
        marginals = data.draw(st.lists(marginals_of_every_kind(points),
                                       min_size=1, max_size=5,
                                       unique_by=lambda d: d.key()))
        families = [DensityFamily([ProductDensity(iid=m, n=X.n) for m in marginals]),
                    DensityFamily([ProductDensity(coords=[m] * X.n) for m in marginals])]
        with np.errstate(all="ignore"):  # as the stacked-values tests above
            same_fits(X, families, drawn_penalty(data, len(marginals)), kernel, block)

    @PROPERTY
    @given(data=st.data())
    def test_singular_gaussian_off_its_spike(self, kernel, block, data):
        """PathologicalGaussian(theta) and Gaussian(theta, 1) on a sample
        without the point theta, beside Gaussians of other sds."""
        thetas = data.draw(st.lists(st.one_of(
            st.floats(-5.0, 5.0), st.integers(-5, 5),
            st.sampled_from([30.0, 200.0, 1e300, -1.7e308])),
            min_size=1, max_size=4, unique=True))
        points = data.draw(st.lists(st.one_of(
            st.floats(-8.0, 8.0), st.sampled_from([1e200, -1e200, 1.7e308])),
            min_size=1, max_size=15).filter(
            lambda xs: not set(xs) & set(map(float, thetas))))
        X = Sample(np.array(points))
        others = [Gaussian(0.5, 2.0), Gaussian(-1.0, 0.5)]
        families = [DensityFamily([ProductDensity(iid=d, n=X.n)
                                   for d in [kind(t) for t in thetas] + others])
                    for kind in (PathologicalGaussian, lambda t: Gaussian(t, 1.0))]
        same_fits(X, families, drawn_penalty(data, len(families[0])), kernel, block)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.id)
@SCREENED_OR_PLAIN
class TestSpikeOnASamplePoint:
    @PROPERTY
    @given(data=st.data())
    def test_upsilon_moves_by_at_most_two_per_spike(self, kernel, block, data):
        """The paper's point against the MLE: s entries Gaussian(theta, 1),
        each centred on its own sample point theta >= 0.5, become
        PathologicalGaussian(theta), which spikes there (to +inf from theta
        of about 2.36).  That changes s roots, in s columns; |psi| <= 1, so
        each T entry moves by at most 2 per column and each criterion value
        by at most 2s.  An entry admissible before is then within slack + 4s
        of the new minimum.  Both bounds carry the rounding term written out
        below, and the penalties and slack are drawn."""
        points = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=14,
                                    unique=True).map(lambda xs: xs + [0.75, 3.0]).filter(
            lambda xs: len(set(xs)) == len(xs)))
        X = Sample(np.array(points))
        thetas = data.draw(st.lists(st.sampled_from([x for x in points if x >= 0.5]),
                                    min_size=1, unique=True))
        others = [Gaussian(m, sd) for m, sd in data.draw(st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.5, 2.0)), max_size=5))]
        before, after = (DensityFamily([ProductDensity(iid=d, n=X.n) for d in
                                        [kind(t) for t in thetas] + others])
                         for kind in (lambda t: Gaussian(t, 1.0), PathologicalGaussian))
        s, n = len(thetas), X.n
        moved = before.sqrt_value_matrix(X) != after.sqrt_value_matrix(X)
        assert moved.sum() == moved.any(axis=0).sum() == s  # s roots, in s columns
        pen = drawn_penalty(data, len(before))
        slack = data.draw(st.floats(0.0, 2.0))
        with mock.patch.object(criterion, "_BLOCK_ELEMENTS", block):
            old, new = (rho_estimate(X, fam, pen, kernel, slack) for fam in (before, after))
        # Each computed criterion value is within delta of its exact value:
        # n (n + 8) u for T (the bound E's float64 part), then u (n + P) for
        # subtracting a penalty and u (n + 2P) for adding one, u = 2**-53.
        P = max(pen.values.values())
        delta = (n * (n + 8) + 2 * n + 3 * P) * 2.0 ** -53
        moves = np.abs(np.subtract(new.trace, old.trace))
        assert np.all(moves <= 2 * s + 2 * delta)
        # The admissibility threshold min + slack is rounded once more.
        threshold = (new.upsilon_min + slack + 4 * s + 4 * delta
                     + (abs(old.upsilon_min) + slack) * 2.0 ** -52)
        assert all(new.trace[j] <= threshold for j in old.admissible_set)


@dataclass(frozen=True, eq=False)
class FormulaOnly(Density1D):
    """A kind that defines its formula alone and records the points it gets."""

    kind = "formula-only"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "seen", [])

    def _pdf(self, x):
        self.seen.append(x)
        return np.exp(-x * x * 1e300)  # x * x overflows at 1e200


def test_subclass_defining_only_the_formula_gets_a_float_or_a_float64_array():
    d = FormulaOnly()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        node = 1e200
        assert d.pdf(node) == 0.0
        assert d.seen.pop() is node
        for x in ([1e200, 0.5], [1, 2], (0.0,), np.float64(1e200),
                  np.array([0.5], dtype=np.float32), 7):
            values = d.pdf(x)
            seen = d.seen.pop()
            assert type(seen) is np.ndarray and seen.dtype == np.float64
            assert seen.tolist() == np.asarray(x, dtype=float).tolist()
            assert np.shape(values) == seen.shape
