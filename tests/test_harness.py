import json
import math

import numpy as np
import pytest

from rhoest import (Cauchy, ContractViolationError, Gaussian, ProductDensity,
                    QuadratureSpec, RiskReport, Sample, Scenario, Uniform,
                    contamination_bias, export, hellinger_sq, mc_risk,
                    mle_counterexample, product_hellinger_sq, simulate)

QUAD = QuadratureSpec(abs_tol=1e-9)


def iid_scenario(reps=3, n=20, seed=1):
    return Scenario(truth=Gaussian(0, 1), n=n, replications=reps, seed=seed)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            Scenario(truth=Gaussian(0, 1), n=0, replications=1, seed=0)
        with pytest.raises(ContractViolationError):
            Scenario(truth=Gaussian(0, 1), n=5, replications=1, seed=0,
                     kind="contaminated", eps=0.1)   # missing contaminant
        with pytest.raises(ContractViolationError):
            Scenario(truth=Gaussian(0, 1), n=2, replications=1, seed=0,
                     kind="outliers", outlier_indices=(0, 1),
                     outlier_points=(5.0, 5.0))      # |J| == n

    def test_outlier_index_bounds(self):
        with pytest.raises(ContractViolationError):
            Scenario(truth=Gaussian(0, 1), n=5, replications=1, seed=0,
                     kind="outliers", outlier_indices=(7,), outlier_points=(1.0,))


class TestSimulate:
    def test_deterministic(self):
        a = simulate(iid_scenario())
        b = simulate(iid_scenario())
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.points, s2.points)

    def test_replicates_differ(self):
        a, b, c = simulate(iid_scenario())
        assert not np.array_equal(a.points, b.points)
        assert not np.array_equal(b.points, c.points)

    def test_eps_zero_is_clean(self):
        clean = Scenario(truth=Gaussian(0, 1), n=15, replications=2, seed=9)
        mixed = Scenario(truth=Gaussian(0, 1), n=15, replications=2, seed=9,
                         kind="contaminated", contaminant=Cauchy(0, 10), eps=0.0)
        for s1, s2 in zip(simulate(clean), simulate(mixed)):
            assert np.array_equal(s1.points, s2.points)

    def test_eps_one_is_pure_contaminant(self):
        sc = Scenario(truth=Gaussian(0, 1), n=2000, replications=1, seed=9,
                      kind="contaminated", contaminant=Uniform(50, 51), eps=1.0)
        pts = simulate(sc)[0].points
        assert np.all((pts >= 50) & (pts <= 51))

    def test_outliers_replaced(self):
        sc = Scenario(truth=Gaussian(0, 1), n=10, replications=1, seed=4,
                      kind="outliers", outlier_indices=(2, 7),
                      outlier_points=(100.0, -50.0))
        pts = simulate(sc)[0].points
        assert abs(pts[2] - 100.0) < 1e-8
        assert abs(pts[7] + 50.0) < 1e-8
        assert np.all(np.abs(np.delete(pts, [2, 7])) < 10)


class TestContaminationBias:
    def test_bounded_by_eps(self):
        for eps in (0.0, 0.05, 0.3):
            h2 = contamination_bias(Gaussian(0, 1), Cauchy(0, 10), eps, QUAD)
            assert h2 <= eps + 1e-8
            assert h2 >= 0.0

    def test_arbitrary_contaminant(self):
        h2 = contamination_bias(Gaussian(0, 1), Uniform(100, 101), 0.1, QUAD)
        assert h2 <= 0.1 + 1e-8

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_bounded_center_riemann_oracle(self, eps):
        # The integrand vanishes off the center's support [0, 1].
        center, contaminant = Uniform(0, 1), Cauchy(0.5, 0.2)
        x = np.linspace(0.0, 1.0, 400001)
        c = center.pdf(x)
        mix = (1.0 - eps) * c + eps * contaminant.pdf(x)
        oracle = 1.0 - np.trapezoid(np.sqrt(mix * c), x)
        assert contamination_bias(center, contaminant, eps, QUAD) == \
            pytest.approx(oracle, abs=1e-9)


class TestOutlierAccounting:
    def test_product_inequality(self):
        # outlier coordinates swap in near-Dirac marginals; the averaged
        # product distance stays within |J|/n of the clean distance
        n, J = 8, 2
        p, q = Gaussian(0, 1), Gaussian(1, 1)
        spike = Uniform(100.0, 100.0 + 1e-9)
        coords = [spike if i < J else p for i in range(n)]
        P = ProductDensity(coords=coords)
        Q = ProductDensity(iid=q, n=n)
        avg = product_hellinger_sq(P, Q, QUAD) / n
        h2 = hellinger_sq(p, q, QUAD)
        lo = (1 - J / n) * h2
        hi = lo + J / n
        assert lo - 1e-9 <= avg <= hi + 1e-9


class TestMcRisk:
    def test_truth_inside_singleton_model(self):
        report = mc_risk(iid_scenario(reps=4),
                         estimator=lambda s: Gaussian(0, 1),
                         truth_for_loss=Gaussian(0, 1))
        assert report.per_replicate == (0.0, 0.0, 0.0, 0.0)
        assert report.mean_h2 == 0.0
        assert report.failures == 0

    def test_failures_excluded_and_counted(self):
        calls = {"k": 0}

        def flaky(sample):
            calls["k"] += 1
            if calls["k"] % 2 == 0:
                raise ContractViolationError("boom")
            return Gaussian(0, 1)

        report = mc_risk(iid_scenario(reps=4), flaky, Gaussian(0, 1))
        assert report.failures == 2
        assert len(report.per_replicate) == 2

    def test_programming_errors_propagate(self):
        def broken(sample):
            raise TypeError("not a fit failure")

        with pytest.raises(TypeError, match="not a fit failure"):
            mc_risk(iid_scenario(reps=2), broken, Gaussian(0, 1))

    def test_statistics_consistent(self):
        rng = np.random.default_rng(0)

        def mean_plugin(sample):
            return Gaussian(float(np.mean(sample.points)), 1.0)

        report = mc_risk(iid_scenario(reps=10, n=50), mean_plugin, Gaussian(0, 1))
        per = np.array(report.per_replicate)
        assert report.mean_h2 == pytest.approx(per.mean(), rel=1e-12)
        assert report.median_h2 == pytest.approx(np.median(per), rel=1e-12)
        assert report.stderr == pytest.approx(per.std(ddof=1) / math.sqrt(10),
                                              rel=1e-12)


class TestMleCounterexample:
    def test_event_probability(self):
        from scipy.stats import norm
        rep = mle_counterexample(0.0, 100, 1, seed=0)
        expected = 1.0 - norm.cdf(math.sqrt(math.log(400.0))) ** 100
        assert rep["p_event"] == pytest.approx(expected, rel=1e-12)
        assert rep["p_event"] == pytest.approx(0.514, abs=1e-3)

    def test_small_run(self):
        rep = mle_counterexample(0.0, 50, 8, seed=3)
        assert 0.0 <= rep["freq_event"] <= 1.0
        if rep["freq_event"] > 0:
            assert rep["freq_mle_at_max"] == 1.0
        assert len(rep["rho_errors"]) == 8

    def test_requires_n_at_least_3(self):
        with pytest.raises(ContractViolationError):
            mle_counterexample(0.0, 2, 5, seed=0)


class TestExport:
    def test_empty_report_header_only_csv(self, tmp_path):
        report = RiskReport(float("nan"), float("nan"), float("nan"), ())
        path = tmp_path / "out.csv"
        export(report, "csv", str(path))
        assert path.read_text() == "replicate,h2\n"

    def test_csv_formatting(self, tmp_path):
        report = RiskReport(0.5, 0.5, 0.0, (1 / 3,))
        path = tmp_path / "out.csv"
        export(report, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0.33333333333333331"

    def test_json_round_trip(self, tmp_path):
        report = RiskReport(0.25, 0.2, 0.01, (0.1, 0.4), bound_reference=3.5,
                            failures=1)
        path = tmp_path / "out.json"
        export(report, "json", str(path))
        back = json.loads(path.read_text())
        assert RiskReport(
            mean_h2=back["mean_h2"], median_h2=back["median_h2"],
            stderr=back["stderr"], per_replicate=tuple(back["per_replicate"]),
            bound_reference=back["bound_reference"], failures=back["failures"],
        ) == report

    def test_deterministic_bytes(self, tmp_path):
        report = RiskReport(0.25, 0.2, 0.01, (0.1, 0.4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export(report, "json", str(p1))
        export(report, "json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ContractViolationError):
            export(RiskReport(0, 0, 0, ()), "xml", str(tmp_path / "x"))
