"""Adaptive 1-D integration with an explicit failure contract.

Thin wrapper around QUADPACK (Piessens et al., 1983): integrands are split
at known kink locations, and the subdivision budget escalates geometrically
until the requested absolute tolerance is met or the budget is exhausted.
Density integrals reach it through ``densities.integrate_on_supports``,
which chooses the range and the kinks.

QUADPACK is scipy's compiled ``scipy/integrate/_quadpack`` module, loaded
from its file alone: importing the ``scipy.integrate`` package would also
load scipy.optimize, linalg, sparse and special, about 800 modules and
50 MB, for two routines.  The rho-estimator, selection and Monte Carlo
paths never integrate, so the module attribute ``integrate`` is bound on
first access (PEP 562 ``__getattr__``) instead of at import, to a front
whose ``quad`` calls those routines as ``scipy.integrate.quad`` does, value
for value.  :func:`integrate_1d` reaches QUADPACK through that attribute, so
a replacement bound there is honoured: the benchmark tracer
(perfbench/tracing.py) swaps in a stand-in that counts ``quad`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (Checked, QuadratureError, _callable, _count, _each, _instance, _number,
                     _scale)

__all__ = ["QuadratureSpec", "integrate_1d"]


@dataclass(frozen=True)
class QuadratureSpec(Checked):
    """Absolute error tolerance and subdivision budget of :func:`integrate_1d`."""

    abs_tol: float = 1e-9
    max_subdivisions: int = 2**20
    rules = {"abs_tol": _scale, "max_subdivisions": _count}


# The defaults of ``quad`` and ``spec`` arguments; check_assumption and
# build_exp_family_grid take the finer one.
DEFAULT_QUAD, FINE_QUAD = QuadratureSpec(), QuadratureSpec(abs_tol=1e-10)


def __getattr__(name):
    """Load QUADPACK on the first access of ``integrate``.

    The compiled module is found by path in scipy's installed package, which
    ``find_spec`` locates without importing it, and is loaded under the name
    ``rhoest._quadpack``.  It imports scipy's light top-level package and
    callback helpers itself, but no ``scipy.integrate`` module is loaded.
    """
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import find_spec, module_from_spec, spec_from_loader
    from pathlib import Path

    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("QUADPACK needs scipy, which is not installed")
    files = (Path(where, "integrate", f"_quadpack{suffix}")
             for where in scipy.submodule_search_locations
             for suffix in EXTENSION_SUFFIXES)
    path = next((str(f) for f in files if f.is_file()), None)
    if path is None:
        raise ImportError("scipy's compiled QUADPACK module was not found")
    loader = ExtensionFileLoader(f"{__package__}._quadpack", path)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    global integrate
    integrate = _Quadpack(module)
    return integrate


# QUADPACK's reasons for ier 1-5 and 7, in scipy.integrate.quad's words with
# each run of whitespace made one space.
_REASONS = {
    1: "The maximum number of subdivisions ({limit}) has been achieved. If "
       "increasing the limit yields no improvement it is advised to analyze the "
       "integrand in order to determine the difficulties. If the position of a "
       "local difficulty can be determined (singularity, discontinuity) one will "
       "probably gain from splitting up the interval and calling the integrator "
       "on the subranges. Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents the "
       "requested tolerance from being achieved. The error may be underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the "
       "integration interval.",
    4: "The algorithm does not converge. Roundoff error is detected in the "
       "extrapolation table. It is assumed that the requested tolerance cannot "
       "be achieved, and that the returned result (if full_output = 1) is the "
       "best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    7: "Abnormal termination of the routine. The estimates for result and "
       "error are less reliable. It is assumed that the requested accuracy has "
       "not been achieved.",
}


class _Quadpack:
    """``scipy.integrate.quad`` without weights or break points, for a < b."""

    def __init__(self, module):
        self._qagse, self._qagie = module._qagse, module._qagie

    def quad(self, func, a, b, args=(), full_output=0, epsabs=1.49e-8,
             epsrel=1.49e-8, limit=50):
        """``(value, error[, info])`` from the QUADPACK call that scipy's
        ``quad`` makes, followed by QUADPACK's reason when ier is not 0; no
        warning is emitted.  ier 6, QUADPACK's refusal of its input, raises
        :class:`QuadratureError`."""
        # scipy's mapping of an infinite range to QAGIE's (bound, inf) pair
        if b == math.inf:
            routine, ends = self._qagie, ((0.0, 2) if a == -math.inf else (a, 1))
        elif a == -math.inf:
            routine, ends = self._qagie, (b, -1)
        else:
            routine, ends = self._qagse, (a, b)
        *out, ier = routine(func, *ends, args, full_output, epsabs, epsrel, limit)
        if ier == 6:
            raise QuadratureError(
                f"QUADPACK rejected its input over ({a}, {b}): epsabs={epsabs!r}, "
                f"epsrel={epsrel!r}, limit={limit!r}")
        if ier == 0:
            return tuple(out)
        return (*out, _REASONS[ier].format(limit=limit))


def _segments(lo, hi, points):
    cuts = sorted({p for p in points if lo < p < hi})
    edges = [lo, *cuts, hi]
    return list(zip(edges[:-1], edges[1:]))


def integrate_1d(fn, lo, hi, spec=None, points=()):
    """Integrate ``fn`` over ``(lo, hi)``.

    ``points`` lists interior locations where the integrand is known to be
    non-smooth; the range is split there before handing each segment to the
    adaptive routine.  Raises :class:`QuadratureError`, with QUADPACK's own
    reason when it gives one, when the estimated absolute error stays above
    ``spec.abs_tol`` at the full subdivision budget, and at once when the
    value or its error estimate is NaN.  QUADPACK's warnings are not emitted.
    The tolerance is shared equally by the segments; a share that rounds to
    0.0 raises :class:`QuadratureError` before any QUADPACK call.  A bound
    or a kink that is no number, NaN too, raises :class:`ContractViolationError`.
    """
    _callable("fn", fn)
    spec = _instance("spec", spec, QuadratureSpec, DEFAULT_QUAD)
    lo, hi, points = _number("lo", lo), _number("hi", hi), _each("points", points, _number)
    if hi <= lo:
        return 0.0
    quadpack = globals().get("integrate") or __getattr__("integrate")
    segs = _segments(lo, hi, points)
    per_seg_tol = spec.abs_tol / len(segs)
    if per_seg_tol == 0.0:
        raise QuadratureError(
            f"tolerance {spec.abs_tol!r} shared by {len(segs)} segments rounds "
            f"to 0.0 per segment")
    total = 0.0
    for a, b in segs:
        limit = min(50, spec.max_subdivisions)
        while True:
            with np.errstate(all="ignore"):
                val, err, _, *message = quadpack.quad(
                    fn, a, b, epsabs=per_seg_tol, epsrel=0.0, limit=limit,
                    full_output=1)
            nan = math.isnan(val + err)  # more subdivisions cannot repair a NaN
            if not nan and (err <= per_seg_tol
                            or err <= spec.abs_tol * max(1.0, abs(val))):
                break
            if nan or limit >= spec.max_subdivisions:
                reason = f": {message[0]}" if message else ""
                raise QuadratureError(
                    f"integral over ({a}, {b}) did not converge: "
                    f"error estimate {err:.3e} > tolerance {per_seg_tol:.3e} "
                    f"at {limit} subdivisions{reason}")
            limit = min(limit * 10, spec.max_subdivisions)
        total += val
    return total
