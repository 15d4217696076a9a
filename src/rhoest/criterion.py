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
and the lower one is mirrored.  Every call fills its entries in one block
pass; on a large family that pass sums most sample columns in float32, a
screen under a proven rounding bound, and one certificate then sums again in
float64 only the entries that can be a row's maximum, in place, so every
criterion value keeps the bits of the full float64 computation.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, field

import numpy as np

from .densities import _STACKABLE, ProductDensity, Sample, _stacked, _stacks
from .errors import (Checked, ContractViolationError, _count, _each, _finite, _index,
                     _instance, _items, _nonnegative, _of, _shown)
from .psi import DEFAULT_KERNEL, PsiKernel, _settle, psi_pair

__all__ = ["DensityFamily", "Penalty", "RhoFit", "t_statistic", "upsilon",
           "upsilon_all", "rho_estimate"]


# Most entries of a family: upsilon_all's N x N float64 matrix of pairwise
# statistics is then 512 MiB.
_MAX_FAMILY = 2**13


def _check_size(size: int) -> None:
    """Reject a family of no entry or of more than ``_MAX_FAMILY``."""
    if not size:
        raise ContractViolationError("family must contain at least one entry")
    if size > _MAX_FAMILY:
        raise ContractViolationError(
            f"family of {size} entries is too large for the criterion, which "
            f"compares every pair: at most {_MAX_FAMILY} entries")


def _entry(name, v):
    """The rule of a family entry: an object with ``n``, ``coord_values(X)``
    and ``key()``, as a :class:`ProductDensity` or a regression entry has."""
    if not (hasattr(v, "n") and hasattr(v, "coord_values") and hasattr(v, "key")):
        raise ContractViolationError(f"{name} must be a family entry, got {type(v).__name__}")
    return v


class DensityFamily:
    """A finite indexed family of densities of n observations.

    Each entry has ``n``, ``coord_values(X)`` and ``key()``; labels default to None.
    A family holds 1 to ``_MAX_FAMILY`` (8192) entries, since the criterion
    compares every pair; both constructors check the count before they
    build any parameter column.

    The family holds its i.i.d. entries of a stackable kind (see
    :class:`~rhoest.densities.Density1D`) as parameter columns, one float64
    vector per parameter and kind, sorted out once, when it is built.
    :meth:`iid` builds a family from such columns alone: its entries are
    made by the kind's own constructor on first access to ``entries`` (or
    to an entry), and ``len``, ``n`` and :meth:`sqrt_value_matrix` never
    make them.
    """

    def __init__(self, entries, labels=None):
        entries = list(_each("entries", entries, _entry, least=1))
        _check_size(len(entries))
        ns = {e.n for e in entries}
        if len(ns) != 1:
            raise ContractViolationError("entries disagree on coordinate count")
        # A non-i.i.d. product's marginal is None.
        self._stacks, self._others = _stacks(
            [e.marginal if type(e) is ProductDensity else None for e in entries])
        self._entries, self._size, self._n = entries, len(entries), ns.pop()
        self._set_labels(labels)

    @classmethod
    def iid(cls, kind, n, labels=None, **columns):
        """The family of i.i.d. products of ``n`` coordinates whose marginals
        have the parameters in ``columns``: one 1-D float64 array per
        parameter of ``kind``, entry i taking element i of each.

        ``kind`` is a stackable density class whose parameters have no
        condition tying them together (no ``_check``; so not
        :class:`~rhoest.densities.Uniform`).  Each parameter's rule runs on
        the column's least and greatest elements; every such rule accepts an
        interval and refuses NaN, which both ends then are, so a column whose
        ends pass is good throughout.  Only when an end fails does the rule
        run on every element, as a Python float, so a bad value raises the
        :class:`ContractViolationError` that the kind's constructor would,
        naming the first bad element.
        """
        if kind not in _STACKABLE or kind._check is not Checked._check:
            raise ContractViolationError(
                f"DensityFamily.iid takes a stackable kind with no cross-parameter "
                f"check, got {getattr(kind, '__name__', kind)!r}")
        if set(columns) != set(kind.rules):
            raise ContractViolationError(
                f"{kind.__name__} columns must be {list(kind.rules)}, got {list(columns)}")
        stacked = []
        for name, rule in kind.rules.items():
            column = np.array(columns[name])
            if column.dtype != np.float64 or column.ndim != 1:
                raise ContractViolationError(
                    f"{name} must be a 1-D float64 array, got {column.dtype} "
                    f"of shape {column.shape}")
            _check_size(len(column))
            try:
                rule(name, column.min().item())
                rule(name, column.max().item())
            except ContractViolationError:
                for v in column.tolist():
                    rule(name, v)
            column.setflags(write=False)
            stacked.append(column)
        size = {len(c) for c in stacked}
        if len(size) != 1:
            raise ContractViolationError(f"{kind.__name__} columns differ in length")
        fam = cls.__new__(cls)
        fam._size, fam._n = size.pop(), _count("n", n)
        fam._stacks, fam._others = [(np.arange(fam._size), kind, stacked)], []
        fam._entries = None
        fam._set_labels(labels)
        return fam

    def _set_labels(self, labels):
        self.labels = [None] * self._size if labels is None else list(_items("labels", labels))
        if len(self.labels) != self._size:
            raise ContractViolationError("labels and entries differ in length")

    @property
    def entries(self) -> list:
        """The entries; a family built by :meth:`iid` makes them here, once."""
        if self._entries is None:
            (_, kind, columns), = self._stacks
            self._entries = [
                ProductDensity(iid=kind(**dict(zip(kind.rules, row))), n=self._n)
                for row in zip(*(c.tolist() for c in columns))]
        return self._entries

    def __len__(self):
        return self._size

    def __getitem__(self, i) -> ProductDensity:
        return self.entries[i]

    @property
    def n(self):
        return self._n

    def sqrt_value_matrix(self, X: Sample) -> np.ndarray:
        """(|family|, n) matrix of sqrt density values at the sample.

        Each kind's parameter columns are cut, in entry order, into blocks
        of at most ``max(1, _BLOCK_ELEMENTS // n)`` entries.  A block is one
        marginal whose parameters are (rows, 1) columns, and the
        ``coord_values`` of its i.i.d. product, one ``pdf`` call, gives the
        block's rows.  Every other entry gives its own row through its own
        ``coord_values``.  The ``pdf`` of a stackable kind is elementwise,
        so every value has the bits of the entry's own call.
        """
        values = np.empty((self._size, self._n))
        rows = max(1, _BLOCK_ELEMENTS // self._n)
        for idx, kind, columns in self._stacks:
            for lo in range(0, len(idx), rows):
                stack = _stacked(kind, [c[lo:lo + rows, np.newaxis] for c in columns])
                values[idx[lo:lo + rows]] = ProductDensity(
                    iid=stack, n=self._n).coord_values(X)
        for i in self._others:
            values[i] = self._entries[i].coord_values(X)
        return np.sqrt(values, out=values)


@dataclass(frozen=True)
class Penalty(Checked):
    """Per-entry nonnegative penalties, default all-zero.

    An entry may be +inf, which makes its criterion value inf, but at least
    one entry of the family must be finite: the criterion subtracts every
    challenger's penalty, and with none finite no value is a number.
    """

    values: dict = field(default_factory=dict)
    rules = {"values": _of(dict)}

    def _check(self):
        for idx, val in self.values.items():
            # A bool index would act as a numpy mask; a float one raises IndexError.
            _count("penalty index", idx, least=0)
            _nonnegative(f"penalty {_shown(idx)}", val)

    def vector(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        for idx, val in self.values.items():
            out[_index("penalty index", idx, size)] = val
        if not np.isfinite(out).any():
            raise ContractViolationError(
                f"every penalty of the family of size {size} is infinite")
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


def _plan(J: int, K: int, pairs: int, square: bool) -> list:
    """(row, rows, column, columns) blocks of at most ``pairs`` pairs each,
    which together cover every entry of a (J, K) matrix T once, or for a
    square call every entry on or above the diagonal once.

    A square call's blocks of a row band start at the band's first row.  A
    band starting at row ``lo`` spans at most K - lo challengers, so its
    height is ``pairs // min(cols, K - lo)``: the bands grow taller towards
    the bottom of the triangle.  The entries left of the diagonal inside a
    band are computed too, and the mirror overwrites them.
    """
    cols = min(K, pairs)
    blocks, lo = [], 0
    while lo < J:
        first = lo if square else 0
        rows = pairs // min(cols, K - first)
        blocks.extend((lo, min(rows, J - lo), c, min(cols, K - c))
                      for c in range(first, K, cols))
        lo += rows
    return blocks


def _run(blocks: list, step, work: np.ndarray) -> None:
    """``step(block, workspace)`` on every block, shared out over threads.

    ``work`` holds one workspace row per share.  The calling thread and, when
    there are two blocks or more and two rows or more, one pooled worker
    thread per further row run the same loop, each pulling blocks from one
    shared list iterator, so that next() hands each block to exactly one
    share.  A worker runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there too.  If a share raises, the others stop
    after their current block, and the first exception is raised once every
    share has stopped.
    """
    pending, errors = iter(blocks), []

    def share(row):
        try:
            for block in pending:
                if errors:
                    return
                step(block, row)
        except BaseException as exc:  # raised below, once every share has stopped
            errors.append(exc)

    workers = min(len(work), len(blocks)) - 1
    shares = [_workers(workers).submit(contextvars.copy_context().run, share, work[i])
              for i in range(1, workers + 1)]
    share(work[0])
    for future in shares:
        future.result()
    if errors:
        raise errors[0]


def _criterion_rows(den_sqrt: np.ndarray, num_sqrt: np.ndarray, num_pen,
                    kernel: PsiKernel) -> np.ndarray:
    """max_k [T[j, k] - num_pen[k]] for every row j.

    T[j, k] = sum_i psi_pair(num_sqrt[k, i], den_sqrt[j, i]); ``den_sqrt`` is
    (J, n), ``num_sqrt`` is (K, n) and ``num_pen`` is a (K,) vector or a
    scalar.  T is filled in one block pass: a block of (rows, challengers)
    at a time (see :func:`_plan`), each entry summed over the last,
    contiguous axis, exactly as for a single pair, so no value depends on
    the block shape.

    The roots are checked once per call by :func:`psi._settle`, against the
    kernel's float64 row of ``psi._ROOTS``.  It rejects NaN and negative
    roots and sorts the odd columns, the sample indices where some root is
    outside the row's exact range ([2**-450, 2**450] for psi1,
    [2**-540, 2**940] for psi2), into settled and scaled ones.  A settled
    column holds no finite nonzero root outside that range, and in a copy of
    the roots made once per call its zeros and infinities become the row's
    stand-in roots, on which the plain ratio gives exactly the sign rule's
    -1, +1 or +0.0.  Every block's :func:`psi_pair` then computes only the
    scaled columns again, on rescaled roots.

    A block sums m *single* columns in float32, padded to m' >= m, and
    d = n - m *double* ones in float64; m > 0 only in a screened call
    (below), and every other call is the pass with m = m' = 0.  A pair takes
    weight = m' + 2d float64 workspace slots (a single column's two float32
    values fill one, a double column's two float64 values two), and a
    block at most ``pairs = 2 *
    _BLOCK_ELEMENTS // weight`` pairs, or one pair when weight is larger:
    with m = 0, ``_BLOCK_ELEMENTS // n`` pairs of n psi values, in a
    ``(2, block)`` workspace.  The
    workspaces, one per share, are allocated once per call, and each is no
    larger than the biggest block the call can make, so a call on a single
    pair allocates 2n values, not ``2 * _BLOCK_ELEMENTS``.  A block with
    m = 0 sums straight from ``np.add.reduce`` into its slice of T, so a
    zero sum keeps its sign.

    The blocks are shared out by :func:`_run` over the CPUs the process may
    run on (``os.sched_getaffinity``, so ``taskset`` restricts them), each
    share writing disjoint entries of T.  numpy's arithmetic and sums
    release the GIL, so the shares run in parallel.  A block is computed the
    same way whichever thread takes it, so T is bitwise the one-thread
    result.  A call with one block, or on one CPU, starts no thread.

    When both arguments are the same matrix (the all-candidates criterion),
    T is antisymmetric: only the blocks on and above the diagonal are
    computed, and one masked ``np.copyto`` of 0.0 - T.T mirrors the strict
    lower triangle.  psi is exactly antisymmetric and negating a sum is
    exact, so a mirrored entry is bitwise the direct sum.  Mirroring computes
    0.0 - t, not -t, because psi of equal roots is +0.0 both ways, so a zero
    sum is too.  Only a zero sum of -0.0 terms, which needs roots near the
    float64 overflow limit, mirrors to a zero of the other sign.  The
    penalties are then subtracted from T in place, and a call with m = 0
    returns the row maxima.

    A square call of J * J * n >= 32 * ``_BLOCK_ELEMENTS`` (2**21) pair
    values needs only each row's maximum, and computes few entries exactly.
    The gate counts pair values: the screen saves a share of each one, while
    its fixed cost, a second settle, the float32 copy, the keep mask and the
    certificate's gathers, grows with J * n + J * J.  On captured inputs,
    with both CPUs of a 2-vCPU Xeon and BLAS on one thread, a screened call
    took 1.07-1.13 times the plain pass's time on bench's 41 entries at
    n = 500 under psi2 (0.84M pair values) and 0.73-0.90 times on
    demo-mle's 161 at n = 100 (2.6M).  The same
    :func:`psi._settle`, against the kernel's float32 row ([2**-30, 2**30]
    for psi1, whose squares stay normal, and [2**-60, 2**60] for psi2),
    splits the sample columns: its scaled columns are the double ones, and
    the others, whose roots are all 0, inf or inside that range, are
    single.  :meth:`PsiKernel.screen_operands` makes, once per call, a
    float32 copy of the single columns, padded with columns of 1.0 to
    m' = 16 ceil(m / 16) (and, for psi1, their float32 squares, N * m' * 4
    bytes more), whose zeros and infinities are the row's stand-ins
    (2**-62 and 2**62 for psi1, 2**-120 and 2**120 for psi2).  On a
    stand-in, psi1's screened value is exactly the sign rule's
    -1, +1 or +0.0, as on float64's stand-ins, and psi2's is too or lies
    within 2**-59 of -1.

    1. *Screen.*  The block pass sums psi over the m' padded single
       columns in float32, by :meth:`PsiKernel.screen_sums`: psi1 as
       (u - v) / sqrt(u*u + v*v) on the squares made once, in four float32
       passes, and psi2 as 2 sum(t) - m' with t = u / (u + v), in two
       float32 passes.  Each sums its terms sixteen at a time in float32,
       by one BLAS matrix-vector product, and the m' / 16 run sums in
       float64; psi2 then maps each float64 sum once.  A pad adds psi1's
       +0.0, or psi2's 1/2 that its share of m' cancels.  A term t
       underflows to its exact limit 0 where a zero's stand-in meets a
       large root, so the pass runs under ``np.errstate(under="ignore")``,
       whatever the caller's errstate, and raises no floating-point
       exception.  The block pass adds the float64 psi_pair sums of the
       double columns, among them the ones that psi_pair rescales.  The
       screen is mirrored and penalized as above.  On and above the
       diagonal it is within E (below) of T.
    2. *Certify.*  Row j keeps challenger k when its screened value is
       within the margin 2E + 2**-50 (n + 1 + P) of the row's screened
       maximum, with P the largest finite penalty.  Every pair {j, k},
       j < k, that either row keeps is summed again by the float64
       psi_pair over all n columns, its two rows gathered into the same
       workspaces: the same contiguous sum in the same orientation as above.
       Its exact value t is written in place over the penalized screen, as
       t - pen[k] at (j, k) and (0.0 - t) - pen[j] at (k, j).  However many
       pairs are kept (every one, in a family of identical entries), only
       they are summed.

    The in-place argument.  A dropped entry's screened value is below its
    row's screened maximum by more than the margin.  That maximum's entry
    is kept, and its exact value, now in T, is within E plus a penalty's
    rounding of the maximum.  So every dropped entry stays strictly below
    the row's exact maximum, and the row maximum of T is the one the full
    computation gives.  The diagonal needs no exact sum: psi1 of equal
    roots is +0.0 in float32 as in float64, and so is any sum of such
    values; each psi2 term of equal roots is exactly 0.5, so each run sums
    to exactly 8 in any order, the run sums to exactly m' / 2, and
    2 sum(t) - m' is +0.0 too.  So the diagonal's screened value is already
    the exact +0.0 - pen[j].

    The error bound E.  Let u = 2**-53 and psi_i the exact psi at the
    float64 roots of column i.  Rounding a root to float32 is a relative
    error of at most 2**-24, so log(u_i / v_i) moves by at most 2**-23
    (slightly more), and psi moves by at most |dpsi/dlog x| <= 1/2 (psi2)
    or 1/sqrt(2) (psi1) times that.  psi1's 6 float32 operations (the
    square made once per call among them) add a relative error of about
    6 * 2**-24 to a value of at most 1, so each psi1 term is within
    7.5 * 2**-24 of psi_i.  psi2's term t = u / (u + v) = (1 + psi) / 2
    lies in [0, 1] and moves by half as much as psi, 2**-25, at the float32
    roots; its 2 float32 operations add a relative error of about
    2 * 2**-24.  So t is within 2**-23 + 2**-25 of (1 + psi_i) / 2.  A term
    that underflows errs by at most 2**-126 more, whether it is rounded to
    a subnormal or flushed to zero, and a pad's term is exact.

    A sum of k values, in any order, errs by at most
    gamma_(k-1) = (k - 1) u' / (1 - (k - 1) u') times the sum of their
    magnitudes, with u' the unit roundoff (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 4.2).  So the float32 sum of
    a run of 16 terms of magnitude at most 1, in whatever order BLAS adds
    them, errs by under 15.001 * 2**-24 per column, a pad included.  Hence
    psi1's run sums are within 22.6 * 2**-24 per column of the sum of the
    psi_i, and psi2's run sums, doubled (which is exact) and less m',
    within 2 (2**-23 + 2**-25 + 15.001 * 2**-24) < 35.01 * 2**-24: for both
    kernels, within 5 * 2**-21 = 40 * 2**-24 per padded column.

    Each float64 value, in T or in the screen's other columns, is within
    8u of psi_i: 16 n u at most over both.  T's float64 sum adds at most
    n**2 u, and the screen's sum of its d double columns d**2 u.  Its
    float64 sum of the m' / 16 run sums, each at most 16 (and a little) in
    magnitude, adds m'**2 u / 16 for psi1; for psi2, whose sum is doubled
    and then less m', it adds m'**2 u / 8 for the doubled sum and m' u for
    the subtraction.  Adding the screen's two sums adds n u.  With
    n' = m' + d >= n, so that m'**2 / 8 + d**2 <= n'**2, the sums add at
    most 2 n'**2 u + 2 n' u in all, inside the 4 n'**2 u + 16 n' u that E
    leaves beside the 16 n' u of the values.  Hence, with m single columns
    padded to m',

        |screen - T| <= E = 5 m' 2**-21 + n' (n' + 8) 2**-51,

    about a hundred times the error seen.  Penalizing rounds each value
    again, by at most u (n + 1 + P) for screen and T alike, and so does the
    threshold, which the margin's 2**-50 (n + 1 + P) covers.  So every
    entry dropped is strictly below its row's maximum, penalized and exact,
    and every entry equal to it is computed exactly: each row maximum, the
    sign of a zero included, is bitwise the full computation's.
    """
    square = den_sqrt is num_sqrt
    (J, n), K = den_sqrt.shape, len(num_sqrt)
    roots = num_sqrt
    num_sqrt, den_sqrt, scaled = _settle(kernel, num_sqrt, den_sqrt)
    # The block pass sums the m float32 columns of ops32 and the d float64
    # columns of num64 and den64; only a screened call has m > 0.
    num64, den64, scaled64, ops32, m = num_sqrt, den_sqrt, scaled, None, 0
    if square and J * J * n >= 32 * _BLOCK_ELEMENTS:
        single, _, double = _settle(kernel, roots, roots, np.float32)
        m = n - double.size
        if m:
            if double.size:
                single = np.delete(single, double, axis=1)
                num64 = den64 = np.take(den_sqrt, double, axis=1)
                scaled64 = np.searchsorted(double, scaled)  # the scaled columns among them
            ops32 = kernel.screen_operands(single)
        del single
    d = n - m
    mp = ops32.shape[-1] if m else 0  # m' >= m: the single columns padded
    weight = mp + 2 * d  # float64 workspace slots per pair
    pairs = max(1, 2 * _BLOCK_ELEMENTS // weight)
    blocks = _plan(J, K, pairs, square)
    slots = min(pairs, J * min(K, pairs)) * weight
    if m:
        slots = max(slots, 4 * n)  # a certified pair's two rows and psi values
    # Zeros, since the mirror below reads the whole transpose: a bit
    # pattern left in fresh memory could be a signaling NaN, which warns.
    T = np.zeros((J, K))
    work = np.empty((min(_cpus(), len(blocks)), slots))

    def block_step(block, work):
        r, h, c, w = block
        sums = T[r:r + h, c:c + w]
        if m:
            kernel.screen_sums(ops32[:, np.newaxis, c:c + w], ops32[:, r:r + h, np.newaxis],
                               work[:h * w * mp].view(np.float32).reshape(2, h, w, mp), sums)
        if d:
            vals = psi_pair(kernel, num64[np.newaxis, c:c + w], den64[r:r + h, np.newaxis],
                            out=work[h * w * mp:h * w * weight].reshape(2, h, w, d),
                            scaled=scaled64)
            if m:
                sums += np.add.reduce(vals, axis=2)
            else:  # straight into T, so a -0.0 sum keeps its sign
                np.add.reduce(vals, axis=2, out=sums)

    # psi2's float32 terms underflow to 0 on stand-ins (PsiKernel.screen_sums).
    with np.errstate(under="ignore"):
        _run(blocks, block_step, work)
    del ops32, num64, den64
    if square:
        np.copyto(T, 0.0 - T.T, where=np.tri(J, k=-1, dtype=bool))
    np.subtract(T, num_pen, out=T)
    if not m:
        return T.max(axis=1)

    pen = np.broadcast_to(np.asarray(num_pen, dtype=float), K)
    bound = mp * 5 * 2.0 ** -21 + (mp + d) * (mp + d + 8) * 2.0 ** -51
    margin = 2.0 * bound + 2.0 ** -50 * (n + 1 + pen[np.isfinite(pen)].max(initial=0.0))
    keep = T >= (T.max(axis=1) - margin)[:, np.newaxis]
    a, b = np.nonzero(np.triu(keep | keep.T, 1))
    del keep
    exact, per = np.empty(len(a)), slots // (4 * n)

    def certify_step(block, work):
        lo, hi = block
        p = (hi - lo) * n
        u, v = work[:p].reshape(-1, n), work[p:2 * p].reshape(-1, n)
        np.take(num_sqrt, b[lo:hi], axis=0, out=u, mode="clip")
        np.take(den_sqrt, a[lo:hi], axis=0, out=v, mode="clip")
        np.add.reduce(psi_pair(kernel, u, v, scaled=scaled,
                               out=work[2 * p:4 * p].reshape(2, -1, n)),
                      axis=1, out=exact[lo:hi])

    _run([(lo, min(lo + per, len(a))) for lo in range(0, len(a), per)],
         certify_step, work)
    T[a, b] = exact - pen[b]
    T[b, a] = (0.0 - exact) - pen[a]
    return T.max(axis=1)


_NO_PENALTY = Penalty()  # the penalty of a pen of None: zero for every entry


def t_statistic(X: Sample, q: ProductDensity, qp: ProductDensity,
                kernel: PsiKernel) -> float:
    """sum_i psi(sqrt(q'_i(x_i) / q_i(x_i))), with the zero-density conventions."""
    _instance("X", X, Sample)
    _entry("q", q)
    _entry("qp", qp)
    _instance("kernel", kernel, PsiKernel)
    u = np.sqrt(qp.coord_values(X))[np.newaxis, :]
    v = np.sqrt(q.coord_values(X))[np.newaxis, :]
    return float(_criterion_rows(v, u, 0.0, kernel)[0])


def upsilon(X: Sample, q: ProductDensity, fam: DensityFamily,
            pen: Penalty | None, kernel: PsiKernel) -> float:
    """max over challengers of [T - pen(challenger)] + pen(candidate)."""
    _instance("X", X, Sample)
    _entry("q", q)
    _instance("fam", fam, DensityFamily)
    _instance("kernel", kernel, PsiKernel)
    pvec = _instance("pen", pen, Penalty, _NO_PENALTY).vector(len(fam))
    # When every penalty is +0.0 (by its bits, so a -0.0 is still looked
    # up), so is q's own, and an iid family is spared making its entries.
    own = 0.0 if not pvec.view(np.int64).any() else next(
        (pvec[idx] for idx, entry in enumerate(fam.entries) if entry.key() == q.key()), 0.0)
    v = np.sqrt(q.coord_values(X))[np.newaxis, :]
    return float(_criterion_rows(v, fam.sqrt_value_matrix(X), pvec, kernel)[0] + own)


def upsilon_all(X: Sample, fam: DensityFamily, pen: Penalty | None,
                kernel: PsiKernel) -> np.ndarray:
    """Criterion value for every entry of the family at once.

    The family holds at most ``_MAX_FAMILY`` (8192) entries, a limit that
    :class:`DensityFamily` checks when the family is built.
    """
    _instance("X", X, Sample)
    _instance("fam", fam, DensityFamily)
    _instance("kernel", kernel, PsiKernel)
    pvec = _instance("pen", pen, Penalty, _NO_PENALTY).vector(len(fam))
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
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)
    slack = (kernel.kappa / 25.0 if slack is None
             else _nonnegative("slack", _finite("slack", slack)))
    ups = upsilon_all(X, fam, pen, kernel)
    u_min = float(np.min(ups))
    admissible = tuple(np.flatnonzero(ups <= u_min + slack).tolist())
    chosen = int(np.argmin(ups))
    return RhoFit(
        chosen_index=chosen,
        upsilon_at_chosen=float(ups[chosen]),
        upsilon_min=u_min,
        admissible_set=admissible,
        slack=float(slack),
        trace=tuple(ups.tolist()),
    )
