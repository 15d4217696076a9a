"""Monte Carlo experiment engine: scenarios, risk reports and export.

Scenarios describe how data are generated (clean i.i.d., Bernoulli
contamination, or coordinate outliers).  Replicates are independent; each
gets its own counter-based Philox stream keyed by (seed, replicate index),
so results never depend on execution order and are bit-reproducible across
platforms.  Replicate-level fit failures are excluded and counted, never
fatal.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .criterion import DensityFamily, rho_estimate
from .densities import (Density1D, PathologicalGaussian, Sample, _density,
                        _spike_log, hellinger_sq, integrate_on_supports)
from .errors import (Checked, ContractViolationError, RhoestError, _count,
                     _finite, _instance, _integer, _number, _scale, _vector)
from .models import _check_grid
from .psi import DEFAULT_KERNEL, PsiKernel
from .quadrature import DEFAULT_QUAD, QuadratureSpec

__all__ = ["Scenario", "RiskReport", "simulate", "mc_risk",
           "contamination_bias", "mle_counterexample", "export"]

OUTLIER_WIDTH = 1e-9


@dataclass(frozen=True)
class Scenario(Checked):
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
    rules = {"truth": _density, "n": _count, "replications": _count,
             "seed": _integer, "eps": _finite,
             "outlier_indices": _vector, "outlier_points": _vector}

    def _check(self):
        if self.contaminant is not None:
            _density("contaminant", self.contaminant)
        if self.kind == "contaminated":
            if self.contaminant is None:
                raise ContractViolationError("contaminated scenario needs a contaminant")
            if not 0.0 <= self.eps <= 1.0:
                raise ContractViolationError("eps must lie in [0, 1]")
        elif self.kind == "outliers":
            idx = self.outlier_indices
            if not all(j.is_integer() for j in idx):
                raise ContractViolationError(f"outlier indices must be integers: {idx}")
            idx = tuple(int(j) for j in idx)
            if len(idx) != len(self.outlier_points):
                raise ContractViolationError("one point per outlier index required")
            if len(set(idx)) != len(idx) or any(not 0 <= j < self.n for j in idx):
                raise ContractViolationError("outlier indices must be distinct, in [0, n)")
            if len(idx) >= self.n:
                raise ContractViolationError("need fewer outliers than observations")
            object.__setattr__(self, "outlier_indices", idx)
        elif self.kind != "iid":
            raise ContractViolationError(f"unknown scenario kind {self.kind!r}")


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The Philox stream owned by one replicate; seeds count modulo 2**64."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    _instance("scenario", scenario, Scenario)
    return [_draw(scenario, replicate_rng(scenario.seed, r))
            for r in range(scenario.replications)]


@dataclass(frozen=True)
class RiskReport:
    """Summary of per-replicate squared Hellinger losses; the three
    statistics are None when every replicate failed."""

    mean_h2: float | None
    median_h2: float | None
    stderr: float | None
    per_replicate: tuple
    failures: int = 0

    def to_json(self):
        return {
            "mean_h2": self.mean_h2,
            "median_h2": self.median_h2,
            "stderr": self.stderr,
            "per_replicate": list(self.per_replicate),
            "failures": self.failures,
        }


def mc_risk(scenario: Scenario, estimator, truth_for_loss: Density1D,
            quad: QuadratureSpec | None = None) -> RiskReport:
    """Replicate loop: simulate, fit, score h^2 against the loss reference.

    ``estimator`` maps a Sample to an estimated 1-D density.  Replicates
    whose fit raises a package or arithmetic error are dropped from the
    statistics and counted in ``failures``; any other exception propagates.
    """
    _instance("scenario", scenario, Scenario)
    _density("truth_for_loss", truth_for_loss)
    quad = _instance("quad", quad, QuadratureSpec, DEFAULT_QUAD)
    losses = []
    failures = 0
    for r in range(scenario.replications):
        sample = _draw(scenario, replicate_rng(scenario.seed, r))
        try:
            estimate = estimator(sample)
        except (RhoestError, ArithmeticError):
            failures += 1
            continue
        # Checked outside the try, as the arguments were: a non-density
        # estimate is the caller's error, not a failed replicate.
        _density("estimate", estimate)
        try:
            losses.append(float(hellinger_sq(truth_for_loss, estimate, quad)))
        except (RhoestError, ArithmeticError):
            failures += 1
    if not losses:
        return RiskReport(None, None, None, (), failures)
    err = statistics.stdev(losses) / math.sqrt(len(losses)) if len(losses) > 1 else 0.0
    return RiskReport(mean_h2=statistics.fmean(losses), median_h2=statistics.median(losses),
                      stderr=err, per_replicate=tuple(losses), failures=failures)


def contamination_bias(center: Density1D, contaminant: Density1D, eps: float,
                       quad: QuadratureSpec | None = None) -> float:
    """h^2 between (1-eps) center + eps contaminant and the center.

    Bounded by eps whatever the contaminating distribution; the analytic
    check behind the contamination scenarios.
    """
    _density("center", center)
    _density("contaminant", contaminant)
    quad = _instance("quad", quad, QuadratureSpec, DEFAULT_QUAD)
    if not 0.0 <= _number("eps", eps) <= 1.0:
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
                       grid_step: float = 0.1,
                       kernel: PsiKernel | None = None) -> dict:
    """Likelihood blow-up demonstration on the singular Gaussian representation.

    Per replicate of i.i.d. N(theta, 1): check the event that the sample
    maximum dominates (X_(n) - theta >= sqrt(log 4n) > |mean - theta| and the
    mean is not a sample point); maximize the singular log-likelihood over a
    grid of theta +- 3 at ``grid_step``, augmented with the sample points and
    the sample mean; and fit the bounded-criterion estimator over the same
    singular family.  That family, the grid and the sample points, is one
    column of thetas (:meth:`DensityFamily.iid`), so a replicate builds no
    density object per entry.  The likelihood maximizer lands on X_(n) whenever the event
    holds, while the bounded criterion ignores the Lebesgue-null spikes.
    Spikes that overflow to +inf (at sample points beyond about 188) tie,
    and the largest point among them wins, as it does in exact arithmetic;
    a regular log-likelihood part that overflows raises FloatingPointError.
    ``p_event`` is 1 - Phi(sqrt(log 4n))^n, the probability at any theta that
    the maximum clears the threshold; it neglects the chance that
    |mean - theta| reaches it.  ``freq_mle_at_max`` is None when no
    replicate meets the event.
    """
    _count("n", n, least=3)
    _count("reps", reps)
    seed = _integer("seed", seed)
    grid = _check_grid(_finite("theta", theta) - 3.0, theta + 3.0,
                       _scale("grid_step", grid_step))
    kernel = _instance("kernel", kernel, PsiKernel, DEFAULT_KERNEL)

    events = 0
    mle_at_max = 0
    rho_errors = []
    threshold = math.sqrt(math.log(4.0 * n))
    for r in range(reps):
        rng = replicate_rng(seed, r)
        x = rng.normal(theta, 1.0, n)
        # Singular log-likelihood, exact on every candidate theta'.  Its
        # regular part must be finite.
        with np.errstate(over="raise", invalid="raise"):
            x_bar = float(np.mean(x))
            cands = np.unique(np.concatenate([grid, x, [x_bar]]))
            ll = cands * (n * x_bar) - n * cands**2 / 2.0
        x_max = float(np.max(x))
        omega = (x_bar not in set(x.tolist())
                 and x_max - theta >= threshold > abs(x_bar - theta))
        if omega:
            events += 1

        spikes = np.zeros_like(cands)
        pos_sample = x[x > 0]
        if pos_sample.size:
            idx = np.searchsorted(cands, pos_sample)
            spikes[idx] += _spike_log(pos_sample)
        ll = ll + spikes
        # The spike grows with x, so of tied infinite spikes the last wins.
        mle = float(cands[len(ll) - 1 - np.argmax(ll[::-1])])
        if omega and mle == x_max:
            mle_at_max += 1

        fam_thetas = np.unique(np.concatenate([grid, x]))
        fam = DensityFamily.iid(PathologicalGaussian, n, theta=fam_thetas)
        fit = rho_estimate(Sample(x), fam, kernel=kernel)
        rho_errors.append(abs(float(fam_thetas[fit.chosen_index]) - theta))

    phi = 0.5 * (1.0 + math.erf(threshold / math.sqrt(2.0)))
    return {
        "freq_event": events / reps,
        "p_event": 1.0 - phi**n,
        "freq_mle_at_max": (mle_at_max / events) if events else None,
        "rho_errors": rho_errors,
        "rho_median_error": statistics.median(rho_errors),
        "n": n,
        "theta": theta,
        "reps": reps,
    }


def _json_text(payload: dict) -> str:
    """Strict JSON, where a NaN or infinity raises FloatingPointError."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # the out-of-range floats: NaN and +-inf
        raise FloatingPointError(f"non-finite number in the result: {exc}") from exc


def _csv_text(per_replicate) -> str:
    """``replicate,h2`` rows, the losses to 17 significant digits."""
    return "replicate,h2\n" + "".join(f"{i},{h2:.17g}\n"
                                      for i, h2 in enumerate(per_replicate))


def export(report: RiskReport, fmt: str, path: str) -> None:
    """Write a report; CSV carries the per-replicate losses, JSON everything.

    Output is byte-stable for identical reports: 17-significant-digit,
    point-decimal numbers and LF line endings.  A NaN or infinity in a JSON
    report raises FloatingPointError.
    """
    _instance("report", report, RiskReport)
    if not (isinstance(path, str) or hasattr(path, "__fspath__")):  # open() takes an int fd
        raise ContractViolationError(f"path must be a str or PathLike, got {type(path).__name__}")
    if fmt == "json":
        text = _json_text(report.to_json())
    elif fmt == "csv":
        text = _csv_text(report.per_replicate)
    else:
        raise ContractViolationError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
