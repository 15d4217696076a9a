"""Exact invariants of psi and the criterion, checked against a dense T.

The dense T built here is the (N, N, n) broadcast the criterion engine
avoids: T[j, k] = sum_i psi(sqrt q_k(x_i), sqrt q_j(x_i)), with psi from
:func:`psi_pair_oracle`, an independent full-pass implementation of the 0/inf
conventions.  Every comparison is exact equality, because the engine sums
each entry in the same index order.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rhoest import (ContractViolationError, DensityFamily, Gaussian,
                    PathologicalGaussian, Penalty, ProductDensity, Sample,
                    Uniform, kernel_constants, psi_pair, t_statistic, upsilon,
                    upsilon_all)
from rhoest import criterion
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


def test_psi1_bounded_below_density_square_roots():
    assert abs(psi_pair(kernel_constants("psi1"), 2e-242, 5e-324)) <= 1.0
