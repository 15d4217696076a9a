import math

import numpy as np
import pytest

from rhoest import (ContractViolationError, DensityFamily, Gaussian,
                    ProductDensity, QuadratureSpec, build_exp_family_grid,
                    build_gaussian_location_grid, build_histogram_family,
                    dimension_bound_entropy, dimension_bound_finite,
                    dimension_bound_vc, eta_bar_finite, integrate_1d,
                    kernel_constants)
from rhoest import criterion, models
from rhoest.models import _theta_labels

QUAD = QuadratureSpec(abs_tol=1e-9)
K2 = kernel_constants("psi2")


class TestDimensionBounds:
    def test_finite_singleton(self):
        assert dimension_bound_finite(1) == pytest.approx(9 * math.log(2), rel=1e-15)
        assert dimension_bound_finite(1) >= 1.0

    def test_finite_eight(self):
        assert dimension_bound_finite(8) == pytest.approx(9 * math.log(16), rel=1e-15)

    def test_finite_monotone(self):
        vals = [dimension_bound_finite(c) for c in range(1, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vc_log_term_vanishes_at_v_equals_n(self):
        assert dimension_bound_vc(12, 12, 1.0) == pytest.approx(2.0)  # n/6 cap

    def test_vc_plug_in(self):
        assert dimension_bound_vc(3, 300, 1.0) == \
            pytest.approx(3 * (1 + math.log(100)), rel=1e-12)

    def test_vc_cap(self):
        assert dimension_bound_vc(3, 12, 100.0) == 2.0

    def test_vc_monotone_below_cap(self):
        vals = [dimension_bound_vc(v, 10000, 1.0) for v in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vc_clamp_warns(self):
        with pytest.warns(UserWarning):
            assert dimension_bound_vc(50, 30, 1.0) == 5.0

    def test_entropy_values(self):
        assert dimension_bound_entropy(0.0) == 18.0
        assert dimension_bound_entropy(2.0 / math.log(2)) == pytest.approx(18.0)
        assert dimension_bound_entropy(10.0) == \
            pytest.approx(18 * 5 * math.log(2), rel=1e-12)

    def test_entropy_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            dimension_bound_entropy(-1.0)


class TestEtaBar:
    def test_singleton_family_closed_form(self):
        fam = DensityFamily([ProductDensity(iid=Gaussian(0, 1), n=1)])
        x0 = math.sqrt(2) * (math.sqrt(1 + K2.beta / K2.a2) + 1)
        expected = x0 * math.sqrt(math.log(2))
        assert eta_bar_finite(fam, K2, quad=QUAD) == pytest.approx(expected, abs=1e-9)

    def test_cap(self):
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1), n=1)
                             for m in np.linspace(-1, 1, 6)])
        assert eta_bar_finite(fam, K2, quad=QUAD) <= \
            3 * math.sqrt(math.log(2 * len(fam))) + 1e-12

    def test_monotone_in_center_pool(self):
        fam = DensityFamily([ProductDensity(iid=Gaussian(m, 1), n=1)
                             for m in (-2.0, 2.0)])
        small = DensityFamily([fam.entries[0]])
        eta_small = eta_bar_finite(fam, K2, center_pool=small, quad=QUAD)
        eta_full = eta_bar_finite(fam, K2, center_pool=fam, quad=QUAD)
        assert eta_full >= eta_small - 1e-12


class TestGaussianGrid:
    def test_cardinality(self):
        desc = build_gaussian_location_grid(-1, 1, 1.0, 1.0, n=10)
        assert len(desc.family) == 3

    def test_entries_normalized(self):
        desc = build_gaussian_location_grid(-1, 1, 0.5, 1.0, n=10)
        for entry in desc.family.entries:
            total = integrate_1d(entry.marginal.pdf, -40, 40, QUAD)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_dim_bound_formula(self):
        n = 500
        desc = build_gaussian_location_grid(-2, 2, 0.01, 1.0, n=n)
        expected = min(3 * (1 + math.log(n / 3)), n / 6)
        assert desc.dim_bound == pytest.approx(expected, rel=1e-12)
        assert desc.dim_bound == dimension_bound_vc(3, n) < n / 6

    def test_bad_grid(self):
        with pytest.raises(ContractViolationError):
            build_gaussian_location_grid(1, -1, 0.5, 1.0, n=10)

    def test_labels_keep_the_g_format_where_it_is_distinct(self):
        desc = build_gaussian_location_grid(-1, 1, 0.25, 1.0, n=10)
        assert desc.family.labels == [
            "theta=-1", "theta=-0.75", "theta=-0.5", "theta=-0.25", "theta=0",
            "theta=0.25", "theta=0.5", "theta=0.75", "theta=1"]

    def test_labels_distinct_on_a_fine_grid(self):
        # At :g's six digits every point prints as theta=1000.
        desc = build_gaussian_location_grid(1000.0, 1000.000001, 1e-7, 1.0, n=10)
        labels = desc.family.labels
        assert len(set(labels)) == len(labels) == len(desc.family) >= 10
        assert labels[:2] == ["theta=1000", "theta=1000.0000001"]
        assert labels[4] == "theta=1000.0000004"

    def test_labels_use_up_to_17_digits(self):
        assert _theta_labels([1.0, math.nextafter(1.0, 2.0)]) == [
            "theta=1", "theta=1.0000000000000002"]
        assert _theta_labels([0.5, 0.5]) == ["theta=0.5", "theta=0.5"]


class TestHistogramFamily:
    def test_single_piece_is_uniform(self):
        desc = build_histogram_family([(0.0, 1.0)], k=1, n=5, mass_steps=1)
        assert len(desc.family) == 1
        h = desc.family[0].marginal
        assert h.pdf(np.array([0.5]))[0] == 1.0

    def test_two_piece_enumeration_normalized(self):
        desc = build_histogram_family([(0.0, 0.5, 1.0)], k=2, n=5, mass_steps=5)
        assert len(desc.family) == 6   # simplex lattice over 2 cells, 5 steps
        for entry in desc.family.entries:
            h = entry.marginal
            mass = sum(ht * (b2 - b1) for ht, b1, b2 in
                       zip(h.heights, h.breaks[:-1], h.breaks[1:]))
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_vc_metadata(self):
        # VC index 2k + 1 = 7; at n = 1000 the n/6 cap does not bind.
        desc = build_histogram_family([(0.0, 0.25, 0.5, 1.0)], k=3, n=1000)
        assert desc.dim_bound == dimension_bound_vc(7, 1000) < 1000 / 6

    def test_too_many_pieces(self):
        with pytest.raises(ContractViolationError):
            build_histogram_family([(0.0, 0.5, 1.0)], k=1, n=5)

    def test_enumeration_order_and_labels(self):
        desc = build_histogram_family([(0.0, 1.0, 2.0)], k=2, n=5, mass_steps=2)
        assert desc.family.labels == [
            "breaks=(0.0, 1.0, 2.0) masses=(1.0, 0.0)",
            "breaks=(0.0, 1.0, 2.0) masses=(0.5, 0.5)",
            "breaks=(0.0, 1.0, 2.0) masses=(0.0, 1.0)",
        ]

    def test_repeated_grid_is_enumerated_once(self):
        # (0, 1, 2) and (0.0, 1.0, 2.0) are one grid; its lattice rows are
        # distinct histograms, so each point is one entry.
        desc = build_histogram_family([(0.0, 1.0, 2.0), (0, 1, 2)], k=2, n=5,
                                      mass_steps=2)
        assert desc.family.labels == [
            "breaks=(0.0, 1.0, 2.0) masses=(1.0, 0.0)",
            "breaks=(0.0, 1.0, 2.0) masses=(0.5, 0.5)",
            "breaks=(0.0, 1.0, 2.0) masses=(0.0, 1.0)",
        ]

    @pytest.mark.parametrize("grids, steps", [
        ([(-3.0, -1.0, 1.0, 3.0)], 400),  # comb(402, 2) = 80,601 points
        ([(0.0, 1.0, 2.0)] * 2, 40_000),  # 40,001 points, the grid counted once
        ([(0.0, 1.0, 2.0), (0.0, 1.0)], 2**16),  # 65,537 points and 1
        ([(0.0, 1.0, 2.0)], 8192),  # 8,193 points: one more than a family holds
        ([(0.0, 1.0, 2.0), (0.0, 1.0)], 8191),  # 8,192 points and 1
    ])
    def test_oversized_family_rejected_before_enumerating(self, grids, steps,
                                                          monkeypatch):
        """More lattice points over all distinct grids together than a
        family may hold entries (8192) is rejected before any lattice is
        enumerated."""
        calls = []
        monkeypatch.setattr(models, "simplex_grid_array",
                            lambda *args: calls.append(args))
        with pytest.raises(ContractViolationError, match="more than 8192 lattice points"):
            build_histogram_family(grids, k=3, n=5, mass_steps=steps)
        assert calls == []

    def test_family_of_max_grid_points_is_enumerated(self):
        """Exactly as many lattice points as a family may hold pass the
        check, a repeated grid counting once, and each one is an entry."""
        desc = build_histogram_family([(0.0, 1.0, 2.0)] * 2, k=2, n=5,
                                      mass_steps=criterion._MAX_FAMILY - 1)
        assert len(desc.family) == criterion._MAX_FAMILY == 8192
        assert desc.family.labels[-1] == "breaks=(0.0, 1.0, 2.0) masses=(0.0, 1.0)"

    @pytest.mark.parametrize("hi, step, size", [
        (8191.0, 1.0, 8192), (8192.0, 1.0, None), (4095.5, 0.5, 8192), (4096.0, 0.5, None)])
    def test_grid_holds_at_most_a_family_of_points(self, hi, step, size):
        # Each grid point is one family entry, so a grid of more points than
        # a family may hold is refused before any entry is made.
        if size is None:
            with pytest.raises(ContractViolationError, match="makes more than 8192 points"):
                models._check_grid(0.0, hi, step)
        else:
            assert len(models._check_grid(0.0, hi, step)) == size

    @pytest.mark.parametrize("grids, steps", [([(0.0,)], 4), ([(0.0, 1.0)], 0)])
    def test_degenerate_lattice_rejected(self, grids, steps):
        with pytest.raises(ContractViolationError):
            build_histogram_family(grids, k=2, n=5, mass_steps=steps)


class TestExpFamilyGrid:
    def test_flat_coefficient_is_uniform(self):
        desc = build_exp_family_grid(("x",), [(0.0,)], 0.0, 1.0, n=5)
        d = desc.family[0].marginal
        assert np.allclose(d.pdf(np.linspace(0.1, 0.9, 9)), 1.0, atol=1e-9)

    def test_gaussian_member(self):
        desc = build_exp_family_grid(("x", "x**2"), [(0.0, -0.5)],
                                     float("-inf"), float("inf"), n=5)
        d = desc.family[0].marginal
        g = Gaussian(0, 1)
        x = np.linspace(-3, 3, 31)
        assert np.allclose(d.pdf(x), g.pdf(x), atol=1e-9)

    def test_vc_metadata(self):
        # VC index J + 2 = 4; at n = 500 the n/6 cap does not bind.
        desc = build_exp_family_grid(("x", "x**2"), [(0.0, -0.5)],
                                     -5.0, 5.0, n=500)
        assert desc.dim_bound == dimension_bound_vc(4, 500) < 500 / 6

    def test_divergent_coefficients_rejected(self):
        with pytest.warns(UserWarning):
            desc = build_exp_family_grid(("x",), [(-1.0,), (1.0,)],
                                         0.0, float("inf"), n=5)
        assert len(desc.family) == 1

    def test_all_divergent_is_error(self):
        with pytest.raises(ContractViolationError):
            build_exp_family_grid(("x",), [(1.0,)], 0.0, float("inf"), n=5)


class TestDescriptor:
    def test_dim_bound_floor(self):
        desc = build_gaussian_location_grid(-1, 1, 1.0, 1.0, n=10)
        assert desc.dim_bound >= 1.0
