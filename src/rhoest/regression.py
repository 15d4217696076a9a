"""Random-design regression through translation models r(y - g(w)).

Each model pairs one candidate error density r with a finite family F of
regression functions.  Each (r, g) is one family entry, keyed by r and the
``RegressionFunction`` object g (not its label), and evaluated only at the
observed (w, y) pairs, so the design distribution is never modeled.  The
loss between regression functions is the design-averaged Hellinger distance
between the translated error densities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .criterion import DensityFamily, RhoFit
from .densities import Density1D, Sample, _density, hellinger_sq, shifted
from .errors import (Checked, ContractViolationError, _count, _each, _instance,
                     _nonnegative, _of, _scale, _vector)
from .models import ModelDescriptor, dimension_bound_vc
from .psi import PsiKernel
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .selection import ModelCollection, select

__all__ = ["RegressionFunction", "RegressionModel", "RegressionFit",
           "build_regression_family", "fit_regression", "d_s_loss",
           "check_identifiability"]

# A single-mode translation family of pair densities built on a function
# class with VC-subgraph index V stays VC-subgraph with index <= 9.41 V.
PAIR_VC_FACTOR = 9.41


@dataclass(frozen=True)
class RegressionFunction:
    """A labelled, vectorized map w -> g(w).

    g(w) must be numbers that broadcast to the shape of w, so a scalar is
    a constant g.  NaN (and None, which numpy reads as NaN) is refused;
    infinite values pass: a slope so steep that g(w) overflows to inf gives
    density 0 there.
    """

    fn: callable
    label: str

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        return _values_at(f"regression function {self.label!r}", self.fn, w)


def _values_at(name, g, w):
    """g(w) as a float array with no NaN that broadcasts to the shape of
    ``w``, or a :class:`ContractViolationError` naming g as ``name``."""
    try:
        values = g(w)
    except ContractViolationError as exc:  # a RegressionFunction's own check
        raise ContractViolationError(f"{name}: {exc}") from None
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ContractViolationError(
            f"{name} maps w to {type(values).__name__} values, not numbers") from None
    try:
        np.broadcast_to(values, w.shape)
    except ValueError:
        raise ContractViolationError(
            f"{name} maps w of shape {w.shape} to shape {values.shape}") from None
    if np.isnan(values).any():
        raise ContractViolationError(f"{name} maps w to NaN (or None) values")
    return values


@dataclass(frozen=True)
class RegressionModel(Checked):
    """One error density r with a finite menu of regression functions."""

    error_density: Density1D
    functions: tuple
    vc_index_f: int
    delta_weight: float = 0.0
    mode_multiplier: float = 1.0   # c(r) > 1 for declared multi-modal r
    rules = {"error_density": _density,
             "functions": lambda name, v: _each(name, v, _of(RegressionFunction), least=1),
             "vc_index_f": _count, "delta_weight": _nonnegative,
             "mode_multiplier": _scale}

    def _check(self):
        if self.mode_multiplier != 1.0:
            warnings.warn("multi-modal error density: VC metadata scaled by the "
                          "user-supplied mode multiplier", stacklevel=4)


@dataclass(frozen=True)
class _TranslationEntry:
    """The family entry r(y - g(w)) for a sample of n (w, y) pairs."""

    error_density: Density1D
    g: RegressionFunction
    n: int

    def coord_values(self, X: Sample) -> np.ndarray:
        if X.kind != "pair" or X.n != self.n:
            raise ContractViolationError(f"regression expects {self.n} (w, y) pairs")
        w, y = X.points[:, 0], X.points[:, 1]
        return np.asarray(self.error_density.pdf(y - self.g(w)), dtype=float)

    def key(self):
        return ("translation", self.error_density.key(), self.g)


@dataclass(frozen=True)
class RegressionFit:
    f_hat: RegressionFunction
    s_hat: Density1D
    fit: RhoFit
    selected_models: tuple


def build_regression_family(models, n: int, kernel: PsiKernel | None = None,
                            c1: float = 1.0) -> ModelCollection:
    """Assemble the weighted collection of translation models under ``kernel``."""
    descriptors = []
    for model in _each("models", models, _of(RegressionModel), least=1):
        entries = [_TranslationEntry(model.error_density, g, n)
                   for g in model.functions]
        labels = [f"r={model.error_density.kind} g={g.label}"
                  for g in model.functions]
        vc_pair = PAIR_VC_FACTOR * model.mode_multiplier * model.vc_index_f
        descriptors.append(ModelDescriptor(
            family=DensityFamily(entries, labels=labels),
            dim_bound=dimension_bound_vc(min(vc_pair, n), n, c1),
            delta_weight=model.delta_weight,
        ))
    return ModelCollection(descriptors, kernel)


def fit_regression(X: Sample, coll: ModelCollection,
                   slack_multiplier: float = 1.0) -> RegressionFit:
    """Penalized fit over all (r, g) pairs; the chosen one is (s_hat, f_hat)."""
    result = select(X, coll, slack_multiplier)
    fit = result["fit"]
    chosen = coll.union_family[fit.chosen_index]
    return RegressionFit(
        f_hat=chosen.g,
        s_hat=chosen.error_density,
        fit=fit,
        selected_models=tuple(result["selected_models"]),
    )


def d_s_loss(s: Density1D, g, gp, w_sample, quad: QuadratureSpec | None = None) -> float:
    """Squared regression loss: design-averaged h^2 between translated errors.

    The empirical design points, finite numbers, stand in for the (unknown)
    design distribution.  By translation invariance only the shift
    g(w) - gp(w) matters at each design point.  g and gp are callables, such as
    :class:`RegressionFunction`, whose values must be numbers, not NaN, that
    broadcast to the shape of w, as a :class:`RegressionFunction`'s must.
    An infinite shift moves the error density off any overlap, a loss of
    h^2 = 1 there; g and gp infinite with the same sign leave no shift, and
    raise :class:`ContractViolationError`.
    """
    _density("s", s)
    w = np.array(_vector("w_sample", w_sample))
    quad = _instance("quad", quad, QuadratureSpec, DEFAULT_QUAD)
    if w.size == 0:
        raise ContractViolationError("need at least one design point")
    g_w, gp_w = _values_at("g", g, w), _values_at("gp", gp, w)
    with np.errstate(invalid="ignore"):  # inf - inf, refused below
        shifts = np.broadcast_to(g_w - gp_w, w.shape)
    if np.isnan(shifts).any():
        raise ContractViolationError(
            "g - gp is NaN at a design point, where g and gp are infinite "
            "with the same sign")
    vals = [0.0 if c == 0.0 else 1.0 if math.isinf(c)
            else hellinger_sq(shifted(s, c), s, quad) for c in shifts.flat]
    return float(np.mean(vals))


def check_identifiability(candidates_r, shift_grid, quad=None) -> dict:
    """Estimate the translation-identifiability constant for each pair.

    A(r, r') compares h(R, R') to the best shifted match
    min over the grid of h(R_a, R'); identical densities report A = 1 by
    convention.  Pairs whose estimate exceeds the ceiling of 50 are flagged.
    """
    quad = _instance("quad", quad, QuadratureSpec, DEFAULT_QUAD)
    shift_grid = sorted(_vector("shift_grid", shift_grid))
    if not shift_grid or any(abs(a + b) > 1e-12 for a, b in
                             zip(shift_grid, reversed(shift_grid))):
        raise ContractViolationError("shift grid must be finite and symmetric about 0")
    ceiling = 50.0
    pairs = {}
    flagged = []
    rs = _each("candidates_r", candidates_r, _density)
    for i, r in enumerate(rs):
        for j, rp in enumerate(rs):
            if j <= i:
                continue
            h_direct = math.sqrt(max(0.0, hellinger_sq(r, rp, quad)))
            if h_direct == 0.0:
                ratio = 1.0
            else:
                h_best = min(
                    math.sqrt(max(0.0, hellinger_sq(shifted(r, a), rp, quad)))
                    for a in shift_grid)
                ratio = float("inf") if h_best == 0.0 else h_direct / h_best
            pairs[(i, j)] = ratio
            if ratio > ceiling:
                flagged.append((i, j))
    return {
        "pairs": pairs,
        "max_ratio": max(pairs.values()) if pairs else 1.0,
        "flagged": flagged,
        "ceiling": ceiling,
    }
