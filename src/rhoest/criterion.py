"""Pairwise statistic, selection criterion and the rho-estimator.

Only finite, explicitly represented families are handled here; continuous
models must be discretized by the builders in :mod:`rhoest.models`.  Every
criterion value comes from one reduction, :func:`_criterion_rows`: for each
candidate row it sums psi over the sample in index order and takes the
largest penalized sum over the challengers.  The pairwise sums are computed a
cache-sized block at a time, so memory stays bounded whatever the family size
and no value depends on the block shape, and the blocks of one call are
shared out over the CPUs the process may run on, with the bits of one
thread.  Across the whole family (:func:`upsilon_all`) the statistic is
antisymmetric, T(q, q') = -T(q', q), so only its upper triangle is computed
and the lower one is mirrored.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, field

import numpy as np

from .densities import ProductDensity, Sample
from .errors import Checked, ContractViolationError, _count, _finite, _nonnegative
from .psi import PsiKernel, _odd_columns, kernel_constants, psi_pair

__all__ = ["DensityFamily", "Penalty", "RhoFit", "t_statistic", "upsilon",
           "upsilon_all", "rho_estimate"]


class DensityFamily:
    """A finite indexed family of densities of n observations.

    Each entry has ``n``, ``coord_values(X)`` and ``key()``; labels default to None.
    """

    def __init__(self, entries, labels=None):
        entries = list(entries)
        if not entries:
            raise ContractViolationError("family must contain at least one entry")
        ns = {e.n for e in entries}
        if len(ns) != 1:
            raise ContractViolationError("entries disagree on coordinate count")
        self.entries = entries
        self.labels = list(labels) if labels is not None else [None] * len(entries)
        if len(self.labels) != len(entries):
            raise ContractViolationError("labels and entries differ in length")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i) -> ProductDensity:
        return self.entries[i]

    @property
    def n(self):
        return self.entries[0].n

    def sqrt_value_matrix(self, X: Sample) -> np.ndarray:
        """(|family|, n) matrix of sqrt density values at the sample."""
        values = np.stack([e.coord_values(X) for e in self.entries])
        return np.sqrt(values, out=values)


@dataclass(frozen=True)
class Penalty(Checked):
    """Per-entry nonnegative penalties, default all-zero."""

    values: dict = field(default_factory=dict)

    def _check(self):
        for idx, val in self.values.items():
            # A bool index would act as a numpy mask; a float one raises IndexError.
            _count("penalty index", idx, least=0)
            _nonnegative(f"penalty {idx!r}", val)

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


# psi values per block.  The two workspace rows (1 MiB together) fit in a
# 2 MiB L2 cache; on a 2-vCPU Xeon, 2**16 beat 2**15 on the bench, demo-mle
# and fit benchmark ops.
_BLOCK_ELEMENTS = 2**16

# The worker threads' ThreadPoolExecutor and its size, made on the first call
# with more than one block and CPU (concurrent.futures is imported then), and
# dropped in a forked child, which has none of the parent's threads.
_pool, _pool_size = None, 0


def _drop_pool():
    global _pool, _pool_size
    _pool, _pool_size = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(size: int):
    """A thread pool of at least ``size`` workers."""
    global _pool, _pool_size
    if _pool_size < size:
        from concurrent.futures import ThreadPoolExecutor
        _pool, _pool_size = ThreadPoolExecutor(size, "rhoest-psi"), size
    return _pool


def _criterion_rows(den_sqrt: np.ndarray, num_sqrt: np.ndarray, num_pen,
                    kernel: PsiKernel) -> np.ndarray:
    """max_k [T[j, k] - num_pen[k]] for every row j.

    T[j, k] = sum_i psi_pair(num_sqrt[k, i], den_sqrt[j, i]); ``den_sqrt`` is
    (J, n), ``num_sqrt`` is (K, n) and ``num_pen`` is a (K,) vector or a
    scalar.  T is filled a block of (rows, challengers) at a time, each block
    holding at most ``_BLOCK_ELEMENTS`` psi values, or one pair's n when n is
    larger.  Every entry sums over the last, contiguous axis, exactly as for
    a single pair, so no value depends on the block shape.

    The roots are checked once per call: :func:`psi._odd_columns` rejects NaN
    and negative roots and finds the odd columns, the sample indices where
    some root is 0, inf, tiny or huge.  Every block's :func:`psi_pair`
    computes only those columns again, on rescaled roots, and writes its psi
    values into a ``(2, block)`` workspace.  The workspaces, one per share
    (below), are allocated once per call, and each is no larger than the
    biggest block the call can make, so a call on a single pair allocates 2n
    values, not ``2 * _BLOCK_ELEMENTS``.

    The blocks are shared out over the CPUs the process may run on
    (``os.sched_getaffinity``, so ``taskset`` restricts them).  The calling
    thread and, when there are two blocks or more and more than one CPU, one
    pooled worker thread per further CPU run the same loop, each pulling
    blocks from one shared iterator into its own workspace and writing
    disjoint slices of T.  numpy's arithmetic and sums release the GIL, so
    the shares run in parallel.  A block is computed the same way whichever
    thread takes it, so T is bitwise the one-thread result.  A worker runs
    in a copy of the caller's context, so the caller's ``np.errstate``
    holds there too.  If a share raises, the others stop after their
    current block, and the first exception is raised once every share has
    stopped.  A call with one block, or on one CPU, starts no thread.

    When both arguments are the same matrix (the all-candidates criterion), T
    is antisymmetric: the blocks of a row band start at the band's first
    row, and the strict lower triangle is mirrored from the upper one.  A
    band starting at row ``lo`` spans at most K - lo challengers, so its
    height is ``pairs // min(cols, K - lo)``: the bands grow taller towards
    the bottom of the triangle.  psi is exactly antisymmetric and negating a
    sum is exact, so a mirrored entry is bitwise the direct sum.  Mirroring
    computes 0.0 - t, not -t, because psi of equal roots is +0.0 both ways,
    so a zero sum is too.  Only a zero sum of -0.0 terms, which needs roots
    near the float64 overflow limit, mirrors to a zero of the other sign.
    """
    square = den_sqrt is num_sqrt
    (J, n), K = den_sqrt.shape, len(num_sqrt)
    odd = _odd_columns(num_sqrt, den_sqrt)
    pairs = max(1, _BLOCK_ELEMENTS // n)
    cols = min(K, pairs)
    blocks = []
    lo = 0
    while lo < J:
        first = lo if square else 0
        rows = pairs // min(cols, K - first)
        blocks.extend((lo, min(rows, J - lo), c, min(cols, K - c))
                      for c in range(first, K, cols))
        lo += rows
    T = np.empty((J, K))

    def share(work):
        # The loop of the calling thread and of every worker: next() on the
        # one list iterator hands each block to exactly one share.
        try:
            for r, h, c, w in pending:
                if errors:
                    return
                T[r:r + h, c:c + w] = psi_pair(
                    kernel, num_sqrt[np.newaxis, c:c + w, :],
                    den_sqrt[r:r + h, np.newaxis, :],
                    out=work[:, :h * w * n].reshape(2, h, w, n), odd=odd).sum(axis=2)
        except BaseException as exc:  # raised below, once every share has stopped
            errors.append(exc)

    pending, errors = iter(blocks), []
    workers = min(_cpus(), len(blocks)) - 1 if len(blocks) > 1 else 0
    work = np.empty((workers + 1, 2, min(pairs, J * cols) * n))
    shares = [_workers(workers).submit(contextvars.copy_context().run, share, work[i])
              for i in range(1, workers + 1)]
    share(work[0])
    for future in shares:
        future.result()
    if errors:
        raise errors[0]
    if square:
        lower = np.tril_indices(J, -1)
        T[lower] = 0.0 - T.T[lower]
    return (T - num_pen).max(axis=1)


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
        kernel = kernel_constants()
    slack = (kernel.kappa / 25.0 if slack is None
             else _nonnegative("slack", _finite("slack", slack)))
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
