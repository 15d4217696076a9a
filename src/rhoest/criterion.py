"""Pairwise statistic, selection criterion and the rho-estimator.

Only finite, explicitly represented families are handled here; continuous
models must be discretized by the builders in :mod:`rhoest.models`.  Every
criterion value comes from one reduction, :func:`_criterion_rows`: for each
candidate row it sums psi over the sample in index order and takes the
largest penalized sum over the challengers.  The pairwise sums are computed a
cache-sized block at a time, so memory stays bounded whatever the family size
and no value depends on the block shape.  Across the whole family
(:func:`upsilon_all`) the statistic is antisymmetric, T(q, q') = -T(q', q),
so only its upper triangle is computed and the lower one is mirrored.
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
        if not all(v >= 0 for v in self.values.values()):  # NaN fails v >= 0
            raise ContractViolationError("penalties must be nonnegative numbers")

    def vector(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        for idx, val in self.values.items():
            if idx not in range(size):
                raise ContractViolationError(
                    f"penalty index {idx!r} is outside the family of size {size}")
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


# psi values per block: small enough that a block's temporaries stay in cache.
_BLOCK_ELEMENTS = 2**15


def _criterion_rows(den_sqrt: np.ndarray, num_sqrt: np.ndarray, num_pen,
                    kernel: PsiKernel) -> np.ndarray:
    """max_k [T[j, k] - num_pen[k]] for every row j.

    T[j, k] = sum_i psi_pair(num_sqrt[k, i], den_sqrt[j, i]); ``den_sqrt`` is
    (J, n), ``num_sqrt`` is (K, n) and ``num_pen`` is a (K,) vector or a
    scalar.  T is filled a block of (rows, challengers) at a time, each block
    holding about ``_BLOCK_ELEMENTS`` psi values.  Every entry sums over the
    last, contiguous axis, exactly as for a single pair, so no value depends
    on the block shape.

    When both arguments are the same matrix (the all-candidates criterion), T
    is antisymmetric: the blocks of a row band start at the band's first
    row, and the strict lower triangle is mirrored from the upper one.  psi
    is exactly antisymmetric and negating a sum is exact, so a mirrored entry
    is bitwise the direct sum.  Mirroring computes 0.0 - t, not -t, because
    psi of equal roots is +0.0 both ways, so a zero sum is too.  Only a zero
    sum of -0.0 terms, which needs roots near the float64 overflow limit,
    mirrors to a zero of the other sign.
    """
    square = den_sqrt is num_sqrt
    J, K = len(den_sqrt), len(num_sqrt)
    pairs = max(1, _BLOCK_ELEMENTS // num_sqrt.shape[1])
    cols = min(K, pairs)
    rows = max(1, pairs // cols)
    T = np.empty((J, K))
    for lo in range(0, J, rows):
        for c in range(lo if square else 0, K, cols):
            T[lo:lo + rows, c:c + cols] = psi_pair(
                kernel, num_sqrt[np.newaxis, c:c + cols, :],
                den_sqrt[lo:lo + rows, np.newaxis, :]).sum(axis=2)
    if square:
        lower = np.tril_indices(J, -1)
        T[lower] = 0.0 - T.T[lower]
    return np.max(T - num_pen, axis=1)


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
