"""Penalized estimation over a weighted collection of models.

The collection's families are merged into one union family; each entry's
penalty is kappa times the smallest [dim_bound / 4.7 + weight] among the
models containing it, and the estimator of :mod:`rhoest.criterion` runs on
the union.  Model selection reads off which models contain the chosen entry.
"""

from __future__ import annotations

import math

from .criterion import DensityFamily, Penalty, rho_estimate
from .errors import (ContractViolationError, _count, _each, _finite, _index, _instance,
                     _nonnegative, _of, _scale)
from .models import ModelDescriptor
from .psi import DEFAULT_KERNEL, PsiKernel

__all__ = ["ModelCollection", "penalty_for", "select", "risk_bound_report",
           "uniform_weights"]

_WEIGHT_TOL = 1e-12
PENALTY_DIM_DIVISOR = 4.7


def uniform_weights(n_models: int) -> float:
    """log(#models): the uniform prior saturating the weight budget."""
    return math.log(_count("n_models", n_models))


class ModelCollection:
    """Weighted models sharing one sample shape and one kernel."""

    def __init__(self, models, kernel: PsiKernel | None = None):
        models = _each("models", models, _of(ModelDescriptor), least=1)
        budget = sum(math.exp(-m.delta_weight) for m in models)
        if budget > 1.0 + _WEIGHT_TOL:
            raise ContractViolationError(
                f"sum of exp(-weight) = {budget} exceeds 1")
        ns = {m.family.n for m in models}
        if len(ns) != 1:
            raise ContractViolationError("models disagree on sample shape")
        self.models = models
        self.kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
        self._build_union()

    def _build_union(self):
        entries, labels, membership = [], [], []
        index_of = {}
        for m_idx, model in enumerate(self.models):
            for e_idx, entry in enumerate(model.family.entries):
                key = entry.key()
                if key in index_of:
                    membership[index_of[key]].append(m_idx)
                else:
                    index_of[key] = len(entries)
                    entries.append(entry)
                    labels.append(model.family.labels[e_idx])
                    membership.append([m_idx])
        self.union_family = DensityFamily(entries, labels=labels)
        self.membership = [tuple(m) for m in membership]

    def complexity(self, m_idx: int) -> float:
        model = self.models[m_idx]
        return model.dim_bound / PENALTY_DIM_DIVISOR + model.delta_weight

    def penalty(self) -> Penalty:
        values = {i: penalty_for(self, i) for i in range(len(self.union_family))}
        return Penalty(values)


def penalty_for(coll: ModelCollection, entry_index: int) -> float:
    """kappa * min over containing models of [dim_bound/4.7 + weight]."""
    _instance("coll", coll, ModelCollection)
    containing = coll.membership[_index("entry_index", entry_index, len(coll.membership))]
    return coll.kernel.kappa * min(coll.complexity(m) for m in containing)


def select(X, coll: ModelCollection, slack_multiplier: float = 1.0) -> dict:
    """Penalized fit over the union family plus the induced model choice.

    ``selected_models`` lists every model containing the chosen entry, in
    increasing complexity order (smallest-complexity selection rule).
    """
    _instance("coll", coll, ModelCollection)
    slack_multiplier = _nonnegative("slack_multiplier",
                                    _finite("slack_multiplier", slack_multiplier))
    fit = rho_estimate(X, coll.union_family, coll.penalty(), coll.kernel,
                       slack=slack_multiplier * coll.kernel.kappa / 25.0)
    containing = list(coll.membership[fit.chosen_index])
    containing.sort(key=lambda m: (coll.complexity(m), m))
    return {"fit": fit, "selected_models": containing}


def risk_bound_report(coll: ModelCollection, m_idx: int, xi: float) -> float:
    """Deterministic part of the oracle risk bound for one model.

    (4 kappa / a1) * (dim_bound/4.7 + weight + 1.5 + xi); the caller adds
    gamma times the (usually unknowable) squared bias when a truth density
    is available.
    """
    _instance("coll", coll, ModelCollection)
    m_idx = _index("m_idx", m_idx, len(coll.models))
    _scale("xi", xi)
    k = coll.kernel
    return (4.0 * k.kappa / k.a1) * (coll.complexity(m_idx) + 1.5 + xi)
