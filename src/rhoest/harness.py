"""Monte Carlo experiment engine: scenarios, risk reports and export.

Scenarios describe how data are generated (clean i.i.d., Bernoulli
contamination, or coordinate outliers).  Replicates are independent; each
gets its own counter-based Philox stream keyed by (seed, replicate index),
so results never depend on execution order and are bit-reproducible across
platforms.  Replicate-level fit failures are excluded and counted, never
fatal.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .criterion import DensityFamily, rho_estimate
from .densities import (Density1D, PathologicalGaussian, ProductDensity,
                        Sample, hellinger_sq, integrate_on_supports)
from .errors import ContractViolationError, RhoestError
from .psi import PsiKernel, kernel_constants
from .quadrature import QuadratureSpec

__all__ = ["Scenario", "RiskReport", "simulate", "mc_risk",
           "contamination_bias", "mle_counterexample", "export"]

OUTLIER_WIDTH = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Data-generating description for one Monte Carlo study.

    ``kind`` is one of "iid", "contaminated" or "outliers".  The truth is the
    i.i.d. marginal (the contamination center for "contaminated", the clean
    marginal for "outliers").  Outliers replace the coordinates listed in
    ``outlier_indices`` by draws from width-1e-9 uniforms around the matching
    ``outlier_points``, which keeps near-Dirac corruption inside the dominated
    framework.
    """

    truth: Density1D
    n: int
    replications: int
    seed: int
    kind: str = "iid"
    contaminant: Density1D | None = None
    eps: float = 0.0
    outlier_indices: tuple = ()
    outlier_points: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.replications < 1:
            raise ContractViolationError("need n >= 1 and replications >= 1")
        if self.kind == "iid":
            pass
        elif self.kind == "contaminated":
            if self.contaminant is None:
                raise ContractViolationError("contaminated scenario needs a contaminant")
            if not 0.0 <= self.eps <= 1.0:
                raise ContractViolationError("eps must lie in [0, 1]")
        elif self.kind == "outliers":
            idx = tuple(int(j) for j in self.outlier_indices)
            pts = tuple(float(x) for x in self.outlier_points)
            if len(idx) != len(pts):
                raise ContractViolationError("one point per outlier index required")
            if len(set(idx)) != len(idx) or any(not 0 <= j < self.n for j in idx):
                raise ContractViolationError("outlier indices must be distinct, in [0, n)")
            if len(idx) >= self.n:
                raise ContractViolationError("need fewer outliers than observations")
            object.__setattr__(self, "outlier_indices", idx)
            object.__setattr__(self, "outlier_points", pts)
        else:
            raise ContractViolationError(f"unknown scenario kind {self.kind!r}")


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The Philox stream owned by one replicate."""
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                                                     replicate]))


def _draw(scenario: Scenario, rng: np.random.Generator) -> Sample:
    base = np.asarray(scenario.truth.sample(rng, scenario.n), dtype=float)
    if scenario.kind == "contaminated" and scenario.eps > 0.0:
        # Both sources are always drawn so the stream layout is independent
        # of eps; a per-observation Bernoulli picks between them.
        alt = np.asarray(scenario.contaminant.sample(rng, scenario.n), dtype=float)
        mask = rng.uniform(0.0, 1.0, scenario.n) < scenario.eps
        base = np.where(mask, alt, base)
    elif scenario.kind == "outliers":
        for j, x in zip(scenario.outlier_indices, scenario.outlier_points):
            base[j] = rng.uniform(x - OUTLIER_WIDTH / 2, x + OUTLIER_WIDTH / 2)
    return Sample(base)


def simulate(scenario: Scenario) -> list:
    """All replicate samples of a scenario, in replicate order."""
    return [_draw(scenario, replicate_rng(scenario.seed, r))
            for r in range(scenario.replications)]


@dataclass(frozen=True)
class RiskReport:
    """Summary of per-replicate squared Hellinger losses."""

    mean_h2: float
    median_h2: float
    stderr: float
    per_replicate: tuple
    bound_reference: float | None = None
    failures: int = 0

    def to_json(self):
        return {
            "mean_h2": self.mean_h2,
            "median_h2": self.median_h2,
            "stderr": self.stderr,
            "per_replicate": list(self.per_replicate),
            "bound_reference": self.bound_reference,
            "failures": self.failures,
        }


def _summarize(losses, failures, bound_reference) -> RiskReport:
    if losses:
        mean = statistics.fmean(losses)
        med = statistics.median(losses)
        sd = statistics.stdev(losses) if len(losses) > 1 else 0.0
        err = sd / math.sqrt(len(losses))
    else:
        mean = med = err = float("nan")
    return RiskReport(mean_h2=mean, median_h2=med, stderr=err,
                      per_replicate=tuple(losses),
                      bound_reference=bound_reference, failures=failures)


def mc_risk(scenario: Scenario, estimator, truth_for_loss: Density1D,
            quad: QuadratureSpec | None = None,
            bound_reference: float | None = None) -> RiskReport:
    """Replicate loop: simulate, fit, score h^2 against the loss reference.

    ``estimator`` maps a Sample to an estimated 1-D density.  Replicates
    whose fit raises a package or arithmetic error are dropped from the
    statistics and counted in ``failures``; any other exception propagates.
    """
    losses = []
    failures = 0
    for r in range(scenario.replications):
        sample = _draw(scenario, replicate_rng(scenario.seed, r))
        try:
            estimate = estimator(sample)
            losses.append(float(hellinger_sq(truth_for_loss, estimate, quad)))
        except (RhoestError, ArithmeticError):
            failures += 1
    return _summarize(losses, failures, bound_reference)


def contamination_bias(center: Density1D, contaminant: Density1D, eps: float,
                       quad: QuadratureSpec | None = None) -> float:
    """h^2 between (1-eps) center + eps contaminant and the center.

    Bounded by eps whatever the contaminating distribution; the analytic
    check behind the contamination scenarios.
    """
    if not 0.0 <= eps <= 1.0:
        raise ContractViolationError("eps must lie in [0, 1]")
    if eps == 0.0:
        return 0.0

    def integrand(x):
        c = center.pdf(x)
        mix = (1.0 - eps) * c + eps * contaminant.pdf(x)
        return np.sqrt(mix * c)

    # The integrand vanishes wherever the center does.
    rho = integrate_on_supports(integrand, (center,), (contaminant,), quad)
    return 1.0 - min(max(rho, 0.0), 1.0)


def mle_counterexample(theta: float, n: int, reps: int, seed: int,
                       grid_step: float = 0.1, grid_halfwidth: float = 3.0,
                       kernel: PsiKernel | None = None) -> dict:
    """Likelihood blow-up demonstration on the singular Gaussian representation.

    Per replicate of i.i.d. N(theta, 1): check the event that the sample
    maximum dominates (X_(n) >= sqrt(log 4n) > |mean| and the mean is not a
    sample point); maximize the singular log-likelihood over a theta grid
    augmented with the sample points and the sample mean; and fit the
    bounded-criterion estimator over the same singular family.  The
    likelihood maximizer lands on X_(n) whenever the event holds, while the
    bounded criterion ignores the Lebesgue-null spikes.  ``p_event`` is
    1 - Phi(sqrt(log 4n))^n, the probability that the maximum clears the
    threshold; it neglects the chance that |mean| reaches it.
    """
    if n < 3 or reps < 1:
        raise ContractViolationError("need n >= 3 and reps >= 1")
    kernel = kernel or kernel_constants()
    grid = np.arange(theta - grid_halfwidth, theta + grid_halfwidth + grid_step / 2,
                     grid_step)

    events = 0
    mle_at_max = 0
    rho_errors = []
    threshold = math.sqrt(math.log(4.0 * n))
    for r in range(reps):
        rng = replicate_rng(seed, r)
        x = rng.normal(theta, 1.0, n)
        x_bar = float(np.mean(x))
        x_max = float(np.max(x))
        omega = (x_bar not in set(x.tolist())
                 and x_max >= threshold > abs(x_bar))
        if omega:
            events += 1

        # Singular log-likelihood, exact on every candidate theta'.
        cands = np.unique(np.concatenate([grid, x, [x_bar]]))
        ll = cands * (n * x_bar) - n * cands**2 / 2.0
        spikes = np.zeros_like(cands)
        pos_sample = x[x > 0]
        if pos_sample.size:
            idx = np.searchsorted(cands, pos_sample)
            spikes[idx] += 0.5 * pos_sample**2 * np.exp(np.minimum(
                pos_sample**2, 700.0))
        ll = ll + spikes
        mle = float(cands[np.argmax(ll)])
        if omega and mle == x_max:
            mle_at_max += 1

        fam_thetas = np.unique(np.concatenate([grid, x]))
        fam = DensityFamily([ProductDensity(iid=PathologicalGaussian(float(t)), n=n)
                             for t in fam_thetas])
        fit = rho_estimate(Sample(x), fam, kernel=kernel)
        rho_errors.append(abs(float(fam_thetas[fit.chosen_index]) - theta))

    phi = 0.5 * (1.0 + math.erf(threshold / math.sqrt(2.0)))
    return {
        "freq_event": events / reps,
        "p_event": 1.0 - phi**n,
        "freq_mle_at_max": (mle_at_max / events) if events else float("nan"),
        "rho_errors": rho_errors,
        "rho_median_error": statistics.median(rho_errors),
        "n": n,
        "theta": theta,
        "reps": reps,
    }


def _format_float(x) -> str:
    if x is None:
        return ""
    return "%.17g" % float(x)


def export(report: RiskReport, fmt: str, path: str) -> None:
    """Write a report; CSV carries the per-replicate losses, JSON everything.

    Output is byte-stable for identical reports: 17-significant-digit,
    point-decimal numbers and LF line endings.
    """
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replicate", "h2"])
        for i, h2 in enumerate(report.per_replicate):
            writer.writerow([i, _format_float(h2)])
        text = buf.getvalue()
    else:
        raise ContractViolationError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
