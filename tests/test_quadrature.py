"""QUADPACK's front in rhoest.quadrature against scipy.integrate.quad.

The front loads scipy's compiled QUADPACK module on its own and calls the
routine that ``scipy.integrate.quad`` calls, with the same arguments, so
every value, error estimate and evaluation count must agree bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from rhoest import (ContractViolationError, Gaussian, Laplace, QuadratureSpec,
                    integrate_1d, quadrature)
from rhoest.errors import QuadratureError


def same_bits(a, b):
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def laplace_times_gaussian(x):
    return Laplace(0.3, 1.0).pdf(x) * Gaussian(0.0, 1.0).pdf(x)


CONVERGING = {
    "(0, 1)": (lambda x: math.exp(-x * x), 0.0, 1.0),
    "(0, inf)": (lambda x: math.exp(-x), 0.0, math.inf),
    "(-inf, 0.3)": (lambda x: 1.0 / (1.0 + x * x), -math.inf, 0.3),
    "(-inf, inf)": (lambda x: math.exp(-0.5 * x * x), -math.inf, math.inf),
    # integrate_1d's two segments of a product with a kink at 0.3
    "laplace-gaussian left": (laplace_times_gaussian, -math.inf, 0.3),
    "laplace-gaussian right": (laplace_times_gaussian, 0.3, math.inf),
}

# Integrands on which QUADPACK stops with ier 1, 2, 4 and 5.
FAILING = {
    1: (lambda x: math.cos(200.0 * x), 0.0, 3.0, 1e-10, 5),
    2: (lambda x: x * x, 0.0, 1.0, 1e-300, 50),
    4: (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-300, 50),
    5: (lambda x: math.cos(50.0 / (x + 1e-3)), 0.0, 1.0, 1e-300, 60),
}


def both(fn, a, b, **kw):
    """(front's result, scipy's result) of one full-output quad call."""
    return (quadrature.integrate.quad(fn, a, b, full_output=1, **kw),
            scipy_integrate.quad(fn, a, b, full_output=1, **kw))


@pytest.mark.parametrize("case", sorted(CONVERGING))
def test_front_matches_scipy_quad_bitwise(case):
    fn, a, b = CONVERGING[case]
    ours, theirs = both(fn, a, b, epsabs=5e-11, epsrel=0.0, limit=50)
    assert len(ours) == len(theirs) == 3
    assert same_bits(ours[0], theirs[0]) and same_bits(ours[1], theirs[1])
    assert ours[2]["neval"] == theirs[2]["neval"] > 0


@pytest.mark.parametrize("ier", sorted(FAILING))
def test_front_gives_quadpacks_reason_as_scipy_words_it(ier):
    fn, a, b, tol, limit = FAILING[ier]
    ours, theirs = both(fn, a, b, epsabs=tol, epsrel=0.0, limit=limit)
    assert len(ours) == len(theirs) == 4
    assert same_bits(ours[0], theirs[0]) and same_bits(ours[1], theirs[1])
    assert ours[2]["neval"] == theirs[2]["neval"]
    assert ours[3] == " ".join(theirs[3].split())


def test_front_refusal_of_its_input_is_a_quadrature_error():
    # QUADPACK's ier 6: scipy raises a bare ValueError here.
    with pytest.raises(QuadratureError, match="rejected its input"):
        quadrature.integrate.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=0.0)


def test_tolerance_that_rounds_to_zero_per_segment(monkeypatch):
    calls = []
    monkeypatch.setattr(quadrature.integrate, "quad",
                        lambda *a, **k: calls.append(a) or (0.0, 0.0, {}))
    with pytest.raises(QuadratureError,
                       match=r"tolerance 5e-324 shared by 2 segments"):
        integrate_1d(lambda x: math.exp(-x), 0.0, 2.0,
                     QuadratureSpec(abs_tol=5e-324), points=(1.0,))
    assert calls == []


def test_smallest_tolerance_on_one_segment_reaches_quadpack():
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_1d(lambda x: math.exp(-x), 0.0, 2.0,
                     QuadratureSpec(abs_tol=5e-324, max_subdivisions=50))


@pytest.mark.parametrize("lo, hi, points, name", [
    (0.0, math.nan, (), "hi"), (math.nan, 1.0, (), "lo"), (math.nan, math.nan, (), "lo"),
    (0.0, 1.0, (0.5, math.nan), r"points\[1\]"),
    (1.0, 0.0, (np.float64(math.nan),), r"points\[0\]"),
], ids=["hi", "lo", "both", "kink", "kink-of-empty-range"])
def test_nan_bound_or_kink_is_rejected(lo, hi, points, name):
    with pytest.raises(ContractViolationError, match=rf"^{name} must be a number, got "):
        integrate_1d(math.exp, lo, hi, points=points)
