"""Exact invariants of psi and the criterion, checked against a dense T.

The dense T built here is the (N, N, n) broadcast the criterion engine
avoids: T[j, k] = sum_i psi_pair(sqrt q_k(x_i), sqrt q_j(x_i)).  Every
comparison is exact equality, because the engine sums each row in the same
index order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhoest import (DensityFamily, Gaussian, PathologicalGaussian, Penalty,
                    ProductDensity, Sample, Uniform, kernel_constants,
                    psi_pair, t_statistic, upsilon, upsilon_all)
from rhoest import criterion
from rhoest.models import build_gaussian_location_grid

KERNELS = [kernel_constants("psi1"), kernel_constants("psi2")]
PROPERTY = settings(max_examples=60, deadline=None)

sqrt_values = st.one_of(
    st.sampled_from([0.0, np.inf, 1.0, 5e-324, 1e300]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
# Square roots of float64 densities: 0, inf, or at least sqrt(5e-324).
density_sqrts = st.floats(min_value=0.0, allow_nan=False).map(np.sqrt)


def dense_t(S, kernel):
    return psi_pair(kernel, S[np.newaxis, :, :], S[:, np.newaxis, :]).sum(axis=2)


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

    def test_several_blocks_match_dense(self, kernel):
        n = 700
        fam = build_gaussian_location_grid(-2.0, 1.9, 0.1, 1.0, n).family
        X = Sample(np.random.default_rng(3).standard_cauchy(n))
        rows_per_block = criterion._BLOCK_ELEMENTS // (len(fam) * n)
        assert (len(fam), -(-len(fam) // rows_per_block)) == (40, 2)
        pvec = np.linspace(0.0, 2.0, len(fam))
        T = dense_t(fam.sqrt_value_matrix(X), kernel)
        ups = upsilon_all(X, fam, Penalty(dict(enumerate(pvec))), kernel)
        assert np.array_equal(ups, np.max(T - pvec, axis=1) + pvec)


@pytest.mark.xfail(strict=True, reason=(
    "psi1 squares u and v, and below about 1e-162 both squares underflow to "
    "0; no square root of a positive float64 density is that small"))
def test_psi1_bounded_below_density_square_roots():
    assert abs(psi_pair(kernel_constants("psi1"), 2e-242, 5e-324)) <= 1.0
