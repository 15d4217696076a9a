"""Acceptance suite: one test per headline property, one PASS/FAIL line each.

These are the binding checks for the package: analytic identities at tight
tolerances, agreement with independent brute-force oracles, and trend-level
Monte Carlo reproductions of the robustness phenomena.  Each test prints a
single summary line and asserts both the property and its runtime budget.
"""

import itertools
import math
import statistics
import time

import numpy as np

from rhoest import (CandidateSet, DensityFamily, Gaussian, Cauchy, Histogram,
                    Penalty, ProductDensity, QuadratureSpec,
                    RegressionFunction, RegressionModel, Sample,
                    build_regression_family, check_assumption,
                    dimension_bound_entropy, dimension_bound_finite,
                    dimension_bound_vc, eval_psi, fit_regression,
                    hellinger_sq, kernel_constants, mixture_upsilon,
                    mle_counterexample, rho_estimate, saddle_point, t_mix)
from rhoest.harness import replicate_rng

K1 = kernel_constants("psi1")
K2 = kernel_constants("psi2")


def report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num:2d}] {name}: {status} "
          f"({elapsed:.1f}s / {budget:.0f}s budget) {detail}")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"acceptance {num} over budget: {elapsed:.1f}s"


def test_01_psi_identities():
    t0 = time.time()
    x = np.logspace(-8, 8, 10_000)
    ok = True
    detail = ""
    for k in (K1, K2):
        v = eval_psi(k, x)
        anti = np.max(np.abs(v + eval_psi(k, 1.0 / x)))
        if anti > 1e-12:
            ok, detail = False, f"{k.id} antisymmetry residual {anti:.2e}"
        if eval_psi(k, 1.0) != 0.0:
            ok, detail = False, f"{k.id} psi(1) != 0"
        if np.any(np.abs(v) > 1.0):
            ok, detail = False, f"{k.id} exceeds [-1, 1]"
        if np.any(np.diff(v) < 0.0):
            ok, detail = False, f"{k.id} not monotone"
    report(1, "psi identities", ok, time.time() - t0, 1.0, detail)


def test_02_assumption_certification():
    t0 = time.time()
    quad = QuadratureSpec(abs_tol=1e-6)
    failures = []
    for k in (K1, K2):
        rng = np.random.default_rng(20260823)
        for i in range(500):
            q, qp, r = (Gaussian(rng.uniform(-3, 3), rng.uniform(0.5, 2))
                        for _ in range(3))
            rep = check_assumption(k, q, qp, r, quad)
            if not rep["pass"]:
                failures.append((k.id, i, rep))
    report(2, "expectation/variance inequality certification",
           not failures, time.time() - t0, 120.0,
           f"{len(failures)} failing triples of 1000")


def test_03_criterion_exhaustive_oracle():
    t0 = time.time()

    def oracle_psi(num, den):
        if num == den:
            return 0.0
        if den == 0.0:
            return 1.0
        if num == 0.0:
            return -1.0
        x = math.sqrt(num / den)
        return (x - 1.0) / (x + 1.0)

    masses = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)]
    dens = [Histogram((-0.5, 0.5, 1.5, 2.5), m) for m in masses]
    pdf_table = [[d.pdf(np.array([float(p)]))[0] for p in range(3)]
                 for d in dens]
    products = {(i, n): ProductDensity(iid=dens[i], n=n)
                for i in range(6) for n in range(1, 5)}

    checked = 0
    mismatches = 0
    for size in range(1, 7):
        for fam_idx in itertools.combinations(range(6), size):
            for n in range(1, 5):
                fam = DensityFamily([products[i, n] for i in fam_idx])
                for points in itertools.product(range(3), repeat=n):
                    X = Sample(np.array(points, dtype=float))
                    fit = rho_estimate(X, fam, Penalty(), K2)
                    T = [[sum(oracle_psi(pdf_table[k][p], pdf_table[j][p])
                              for p in points)
                          for k in fam_idx] for j in fam_idx]
                    ups = [max(row) for row in T]
                    chosen = min(range(size), key=lambda j: (ups[j], j))
                    checked += 1
                    if (fit.chosen_index != chosen
                            or np.max(np.abs(np.array(fit.trace)
                                             - np.array(ups))) > 1e-12):
                        mismatches += 1
    report(3, "criterion vs exhaustive discrete oracle", mismatches == 0,
           time.time() - t0, 120.0,
           f"{checked} enumerated cases, {mismatches} mismatches")


def test_04_hellinger_closed_form_vs_quadrature():
    t0 = time.time()
    quad = QuadratureSpec(abs_tol=1e-10)
    worst = 0.0
    for delta in np.arange(0.0, 6.001, 0.25):
        closed = 1.0 - math.exp(-delta**2 / 8.0)
        numeric = hellinger_sq(Gaussian(0, 1), Gaussian(delta, 1), quad,
                               method="quadrature")
        worst = max(worst, abs(numeric - closed))
    report(4, "Gaussian Hellinger closed form vs quadrature", worst <= 1e-8,
           time.time() - t0, 30.0, f"max residual {worst:.2e}")


def test_05_saddle_point_certified():
    t0 = time.time()
    rng = np.random.default_rng(77)
    bad = []
    for case in range(50):
        N = int(rng.integers(2, 5))
        n = int(rng.integers(5, 21))
        X = Sample(rng.normal(0, 1.5, n))
        means = rng.uniform(-2, 2, N)
        sds = rng.uniform(0.7, 1.5, N)
        cs = CandidateSet([ProductDensity(iid=Gaussian(m, s), n=n)
                           for m, s in zip(means, sds)], X)
        out = saddle_point(cs, K2, eps=1e-4)
        alpha = out["alpha_star"]
        if not (out["converged"] and out["certificate"] < 1e-4):
            bad.append((case, "certificate", out["certificate"]))
            continue
        # two-sided eps-saddle on a coarse grid, via exact antisymmetry
        from rhoest import simplex_grid
        two_sided = all(
            t_mix(cs, alpha, g, K2) <= 1e-4 + 1e-9
            and t_mix(cs, g, alpha, K2) >= -(1e-4 + 1e-9)
            for g in simplex_grid(N, 10))
        if not two_sided:
            bad.append((case, "two-sided"))
            continue
        ups = mixture_upsilon(cs, alpha, grid_steps=100, kernel=K2)
        if ups > out["certificate"] + 1e-3:
            bad.append((case, "upsilon", ups))
    report(5, "saddle-point certificates on random candidate sets",
           not bad, time.time() - t0, 120.0, f"failures: {bad[:3]}")


def _gaussian_grid_fit(X, thetas):
    fam = DensityFamily([ProductDensity(iid=Gaussian(t, 1), n=X.n)
                         for t in thetas])
    fit = rho_estimate(X, fam, kernel=K2)
    return float(thetas[fit.chosen_index])


def test_06_consistency_trend():
    t0 = time.time()
    thetas = np.arange(-1.0, 1.001, 0.05)
    medians = {}
    for n in (200, 2000):
        losses = []
        for rep in range(200):
            rng = replicate_rng(606, rep)
            X = Sample(rng.normal(0.0, 1.0, n))
            theta_hat = _gaussian_grid_fit(X, thetas)
            losses.append(n * (1.0 - math.exp(-theta_hat**2 / 8.0)))
        medians[n] = statistics.median(losses)
    ok = medians[2000] <= medians[200]
    report(6, "risk trend: median n*h2 non-increasing in n", ok,
           time.time() - t0, 300.0,
           f"median n*h2: n=200 -> {medians[200]:.3f}, "
           f"n=2000 -> {medians[2000]:.3f}")


def test_07_contamination_robustness():
    t0 = time.time()
    thetas = np.arange(-1.0, 1.001, 0.05)
    n, reps, eps = 500, 200, 0.05
    contaminant = Cauchy(0.0, 10.0)
    clean_losses, rho_losses, plugin_losses = [], [], []
    for rep in range(reps):
        rng = replicate_rng(707, rep)
        base = rng.normal(0.0, 1.0, n)
        alt = contaminant.sample(rng, n)
        mask = rng.uniform(0.0, 1.0, n) < eps
        x = np.where(mask, alt, base)

        theta_clean = _gaussian_grid_fit(Sample(base), thetas)
        clean_losses.append(1.0 - math.exp(-theta_clean**2 / 8.0))

        theta_rho = _gaussian_grid_fit(Sample(x), thetas)
        rho_losses.append(1.0 - math.exp(-theta_rho**2 / 8.0))

        mean_hat = float(np.mean(x))
        plugin_losses.append(1.0 - math.exp(-mean_hat**2 / 8.0))

    med_clean = statistics.median(clean_losses)
    med_rho = statistics.median(rho_losses)
    bias_ok = med_rho <= 2.0 * med_clean + 0.05
    wins = sum(r < p for r, p in zip(rho_losses, plugin_losses))
    paired_ok = wins / reps >= 0.80
    report(7, "contamination robustness vs mean plug-in",
           bias_ok and paired_ok, time.time() - t0, 300.0,
           f"median h2 clean {med_clean:.4f}, contaminated {med_rho:.4f}, "
           f"wins {wins}/{reps}")


def test_08_mle_counterexample():
    t0 = time.time()
    out = mle_counterexample(theta=0.0, n=100, reps=200, seed=808,
                             grid_step=0.1)
    ok = (out["freq_event"] >= 0.9
          and out["freq_mle_at_max"] == 1.0
          and out["rho_median_error"] <= 0.3)
    report(8, "likelihood blow-up vs bounded criterion", ok,
           time.time() - t0, 180.0,
           f"event freq {out['freq_event']:.2f} (P(event) = {out['p_event']:.3f}), "
           f"mle at max {out['freq_mle_at_max']:.2f}, "
           f"rho median error {out['rho_median_error']:.3f}")


def test_09_bound_calculators():
    t0 = time.time()
    ok = (dimension_bound_finite(1) == 9.0 * math.log(2.0)
          and dimension_bound_entropy(0.0) == 18.0
          and dimension_bound_vc(3, 12, 100.0) == 12.0 / 6.0
          and dimension_bound_vc(3, 300, 1.0)
          == min(3 * (1 + math.log(100.0)), 50.0))
    report(9, "dimension bound arithmetic", ok, time.time() - t0, 5.0)


def test_10_regression():
    t0 = time.time()
    thetas = np.arange(0.0, 2.001, 0.25)

    # linear truth with Gaussian errors: slope recovered within one grid step
    slope_hits = 0
    for rep in range(100):
        rng = replicate_rng(1010, rep)
        w = rng.uniform(-2.0, 2.0, 300)
        y = w + rng.normal(0.0, 1.0, 300)
        X = Sample(np.column_stack([w, y]), kind="pair")
        functions = [RegressionFunction(lambda v, _t=float(t): _t * v,
                                        label=f"theta={t:g}") for t in thetas]
        model = RegressionModel(Gaussian(0, 1), functions, vc_index_f=3)
        coll = build_regression_family([model], 300)
        fit = fit_regression(X, coll)
        theta_hat = float(fit.f_hat.label.split("=")[1])
        slope_hits += abs(theta_hat - 1.0) <= 0.25

    # heavy-tailed truth: the Cauchy error model wins over the Gaussian one
    cauchy_hits = 0
    for rep in range(100):
        rng = replicate_rng(1011, rep)
        w = rng.uniform(-2.0, 2.0, 500)
        y = w + Cauchy(0.0, 1.0).sample(rng, 500)
        X = Sample(np.column_stack([w, y]), kind="pair")
        functions = [RegressionFunction(lambda v, _t=float(t): _t * v,
                                        label=f"theta={t:g}") for t in thetas]
        models = [
            RegressionModel(Gaussian(0, 1), functions, vc_index_f=3,
                            delta_weight=math.log(2.0)),
            RegressionModel(Cauchy(0, 1), functions, vc_index_f=3,
                            delta_weight=math.log(2.0)),
        ]
        coll = build_regression_family(models, 500)
        fit = fit_regression(X, coll)
        cauchy_hits += isinstance(fit.s_hat, Cauchy)

    ok = slope_hits >= 90 and cauchy_hits >= 90
    report(10, "regression slope and error-model recovery", ok,
           time.time() - t0, 300.0,
           f"slope hits {slope_hits}/100, cauchy hits {cauchy_hits}/100")
