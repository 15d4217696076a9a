"""Pairwise statistic, selection criterion and the rho-estimator.

Only finite, explicitly represented families are handled here; continuous
models must be discretized by the builders in :mod:`rhoest.models`.  Every
criterion value comes from one reduction, :func:`_criterion_rows`: for each
candidate row it sums psi over the sample in index order and takes the
largest penalized sum over the challengers.  Candidate rows are processed a
block at a time, so memory stays bounded whatever the family size and the
values do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import ProductDensity, Sample
from .errors import ContractViolationError
from .psi import PsiKernel, psi_pair

__all__ = ["DensityFamily", "Penalty", "RhoFit", "t_statistic", "upsilon",
           "upsilon_all", "rho_estimate"]


class DensityFamily:
    """A finite indexed family of product densities (one model representation)."""

    def __init__(self, entries, labels=None, vc_index=None):
        entries = list(entries)
        if not entries:
            raise ContractViolationError("family must contain at least one entry")
        ns = {e.n for e in entries}
        if len(ns) != 1:
            raise ContractViolationError("entries disagree on coordinate count")
        self.entries = entries
        self.labels = list(labels) if labels is not None else [e.label for e in entries]
        if len(self.labels) != len(entries):
            raise ContractViolationError("labels and entries differ in length")
        self.vc_index = vc_index

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i) -> ProductDensity:
        return self.entries[i]

    @property
    def n(self):
        return self.entries[0].n

    def sqrt_value_matrix(self, X: Sample) -> np.ndarray:
        """(|family|, n) matrix of sqrt density values at the sample."""
        return np.sqrt(np.stack([e.coord_values(X) for e in self.entries]))


@dataclass(frozen=True)
class Penalty:
    """Per-entry nonnegative penalties, default all-zero."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(v < 0 for v in self.values.values()):
            raise ContractViolationError("penalties must be nonnegative")

    def vector(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        for idx, val in self.values.items():
            out[idx] = val
        return out


@dataclass(frozen=True)
class RhoFit:
    chosen_index: int
    upsilon_at_chosen: float
    upsilon_min: float
    admissible_set: tuple
    slack: float
    trace: tuple

    def __post_init__(self):
        if self.upsilon_at_chosen > self.upsilon_min + self.slack + 1e-12:
            raise ContractViolationError("chosen entry exceeds admissible slack")
        if self.chosen_index not in self.admissible_set:
            raise ContractViolationError("chosen index not admissible")

    def to_json(self):
        return {
            "chosen_index": self.chosen_index,
            "upsilon_at_chosen": self.upsilon_at_chosen,
            "upsilon_min": self.upsilon_min,
            "admissible_set": list(self.admissible_set),
            "slack": self.slack,
            "trace": list(self.trace),
        }


# Elements of the (rows, challengers, n) psi block built per step.
_BLOCK_ELEMENTS = 2**20


def _criterion_rows(den_sqrt: np.ndarray, num_sqrt: np.ndarray, num_pen,
                    kernel: PsiKernel) -> np.ndarray:
    """max_k [sum_i psi_pair(num_sqrt[k, i], den_sqrt[j, i]) - num_pen[k]] per row j.

    ``den_sqrt`` is (J, n) and ``num_sqrt`` is (K, n); ``num_pen`` is a (K,)
    vector or a scalar.  Each row's sum runs over the last, contiguous axis,
    exactly as for a single pair.
    """
    step = max(1, _BLOCK_ELEMENTS // num_sqrt.size)
    out = np.empty(len(den_sqrt))
    for lo in range(0, len(den_sqrt), step):
        t = psi_pair(kernel, num_sqrt[np.newaxis, :, :],
                     den_sqrt[lo:lo + step, np.newaxis, :]).sum(axis=2)
        out[lo:lo + step] = np.max(t - num_pen, axis=1)
    return out


def t_statistic(X: Sample, q: ProductDensity, qp: ProductDensity,
                kernel: PsiKernel) -> float:
    """sum_i psi(sqrt(q'_i(x_i) / q_i(x_i))), with the zero-density conventions."""
    u = np.sqrt(qp.coord_values(X))[np.newaxis, :]
    v = np.sqrt(q.coord_values(X))[np.newaxis, :]
    return float(_criterion_rows(v, u, 0.0, kernel)[0])


def upsilon(X: Sample, q: ProductDensity, fam: DensityFamily,
            pen: Penalty | None, kernel: PsiKernel) -> float:
    """max over challengers of [T - pen(challenger)] + pen(candidate)."""
    pvec = (pen or Penalty()).vector(len(fam))
    own = next((pvec[idx] for idx, entry in enumerate(fam.entries)
                if entry.key() == q.key()), 0.0)
    v = np.sqrt(q.coord_values(X))[np.newaxis, :]
    return float(_criterion_rows(v, fam.sqrt_value_matrix(X), pvec, kernel)[0] + own)


def upsilon_all(X: Sample, fam: DensityFamily, pen: Penalty | None,
                kernel: PsiKernel) -> np.ndarray:
    """Criterion value for every entry of the family at once."""
    pvec = (pen or Penalty()).vector(len(fam))
    S = fam.sqrt_value_matrix(X)
    return _criterion_rows(S, S, pvec, kernel) + pvec


def rho_estimate(X: Sample, fam: DensityFamily, pen: Penalty | None = None,
                 kernel: PsiKernel | None = None,
                 slack: float | None = None) -> RhoFit:
    """Near-minimize the criterion over a finite family.

    ``slack`` defaults to kappa/25 for the kernel; entries within slack of
    the minimum form the admissible set, and the returned index is the
    admissible entry with the smallest criterion value (ties broken by
    smallest index, for reproducibility).
    """
    if kernel is None:
        from .psi import kernel_constants
        kernel = kernel_constants()
    if slack is None:
        slack = kernel.kappa / 25.0
    ups = upsilon_all(X, fam, pen, kernel)
    u_min = float(np.min(ups))
    admissible = tuple(int(i) for i in np.flatnonzero(ups <= u_min + slack))
    chosen = int(np.argmin(ups))
    return RhoFit(
        chosen_index=chosen,
        upsilon_at_chosen=float(ups[chosen]),
        upsilon_min=u_min,
        admissible_set=admissible,
        slack=float(slack),
        trace=tuple(float(u) for u in ups),
    )
