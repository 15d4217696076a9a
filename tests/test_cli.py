import json

import numpy as np
import pytest

from rhoest import SolverError, aggregation, cli, criterion, models
from rhoest.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gaussian_sample():
    rng = np.random.default_rng(0)
    return rng.normal(0.0, 1.0, 60).tolist()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def run(capsys, argv):
    """(exit code, stdout parsed as strict JSON, or None when empty)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_reject_constant) if out else None)


class TestFit:
    def test_basic(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "gaussian_location_grid", "theta_min": -1,
                       "theta_max": 1, "step": 0.25, "sd": 1.0},
        })
        code, out = run(capsys, ["fit", "--config", cfg])
        assert code == 0
        assert out["chosen_label"].startswith("theta=")
        assert out["upsilon_at_chosen"] <= out["upsilon_min"] + out["slack"]

    def test_explicit_family(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "explicit", "densities": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "cauchy", "params": {"loc": 5.0, "scale": 1.0}},
            ]},
        })
        code, out = run(capsys, ["fit", "--config", cfg])
        assert code == 0
        assert out["chosen_index"] == 0

    def test_family_over_the_criterion_cap_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        # 40,001 grid points would be 40,001 entries, whose N x N criterion
        # matrix would take 12.8 GB: the grid is refused before any entry is
        # made, and no density is evaluated.
        def never(*args, **kwargs):
            raise AssertionError("an over-cap family was built")

        monkeypatch.setattr(criterion.DensityFamily, "iid", never)
        monkeypatch.setattr(criterion.DensityFamily, "sqrt_value_matrix", never)
        cfg = write_config(tmp_path, "c.json", {
            "sample": [-0.4, 0.1, 0.3, 0.9, 1.2],
            "family": {"type": "gaussian_location_grid", "theta_min": -4,
                       "theta_max": 4, "step": 0.0002}})
        assert main(["fit", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: grid step 0.0002 on [-4.0, 4.0] makes more than 8192 points\n")

    def test_bench_grid_over_the_criterion_cap_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        # The same 40,001-point grid as bench's estimator is refused before
        # its family is built, and before any replicate is drawn or fitted.
        fits = []
        monkeypatch.setattr(cli, "rho_estimate", lambda *a, **k: fits.append(a))
        monkeypatch.setattr(criterion.DensityFamily, "iid", lambda *a, **k: fits.append(a))
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "iid", "n": 5, "replications": 2,
                         "truth": {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}}},
            "estimator": {"type": "rho_gaussian_grid", "theta_min": -4,
                          "theta_max": 4, "step": 0.0002}})
        assert main(["bench", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: grid step 0.0002 on [-4.0, 4.0] makes more than 8192 points\n")
        assert fits == []

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy", "laplace",
                                      "pathological-gaussian"])
    def test_far_sample_points_fit_without_warning(self, tmp_path, capsys, kind):
        # The densities underflow to 0.0 at +-1e200 through an overflow of
        # z * z or x - loc, which must not warn (warnings are errors here);
        # the singular Gaussian at theta = 1e300 is 0.0 at every point.
        params = {"gaussian": {"mean": 0.0, "sd": 1.0},
                  "pathological-gaussian": {"theta": 1e300}}.get(
                      kind, {"loc": 0.0, "scale": 1.0})
        cfg = write_config(tmp_path, "c.json", {
            "sample": [-0.4, 1e200, 0.3, -1e200, 1.7e308, -1.7e308, 0.9],
            "family": {"type": "explicit", "densities": [
                {"kind": kind, "params": params},
                {"kind": "gaussian", "params": {"mean": 1.0, "sd": 2.0}}]}})
        code, out = run(capsys, ["fit", "--config", cfg])
        assert code == 0 and len(out["trace"]) == 2

    def test_out_file(self, tmp_path, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "gaussian_location_grid", "theta_min": -1,
                       "theta_max": 1, "step": 0.5},
        })
        dest = tmp_path / "fit.json"
        assert main(["fit", "--config", cfg, "--out", str(dest)]) == 0
        assert "chosen_index" in json.loads(dest.read_text())


class TestSelect:
    def test_two_models(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "models": [
                {"family": {"type": "gaussian_location_grid", "theta_min": -1,
                            "theta_max": 1, "step": 0.5}},
                {"family": {"type": "gaussian_location_grid", "theta_min": -1,
                            "theta_max": 1, "step": 0.25}},
            ],
        })
        code, out = run(capsys, ["select", "--config", cfg])
        assert code == 0
        assert out["selected_models"]

    def test_union_over_the_criterion_cap_exits_2(self, tmp_path, capsys):
        # Three grids of 3201 points each: none is over the cap, their
        # union of 9603 entries is.
        cfg = write_config(tmp_path, "c.json", {
            "sample": [-0.4, 0.1, 0.3, 0.9, 1.2],
            "models": [{"family": {"type": "gaussian_location_grid", "theta_min": -4,
                                   "theta_max": 4, "step": 0.0025, "sd": sd}}
                       for sd in (0.8, 1.0, 1.25)]})
        assert main(["select", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "family of 9603 entries is too large" in err

    def test_negative_delta_rejected(self, tmp_path, capsys, gaussian_sample):
        # exp(1e-13) passes the weight budget's 1e-12 tolerance, so only the
        # descriptor's own rule stands between this weight and the penalty.
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "models": [{"family": GRID, "delta": -1e-13}]})
        assert main(["select", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "delta_weight must be a nonnegative number" in err


class TestAggregate:
    def test_two_candidates(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "gaussian", "params": {"mean": 2.0, "sd": 1.0}},
            ],
        })
        code, out = run(capsys, ["aggregate", "--config", cfg])
        assert code == 0
        assert out["converged"]
        assert abs(sum(out["alpha_star"]) - 1.0) < 1e-9


class TestRegress:
    def test_linear_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        w = rng.uniform(-2, 2, 150)
        y = w + rng.normal(0, 1, 150)
        cfg = write_config(tmp_path, "c.json", {
            "sample": np.column_stack([w, y]).tolist(),
            "error_models": [{"kind": "gaussian",
                              "params": {"mean": 0.0, "sd": 1.0}}],
            "function_family": {"theta_grid": {"min": 0.0, "max": 2.0,
                                               "step": 0.25}},
        })
        code, out = run(capsys, ["regress", "--config", cfg])
        assert code == 0
        assert out["g_id"] in ("theta=0.75", "theta=1", "theta=1.25")

    def test_slopes_of_a_fine_grid_print_distinct_labels(self, tmp_path, capsys):
        # At :g's six digits all eleven slopes print as theta=1000.  The
        # design spreads w so far that neighbouring slopes are 10 to 20 error
        # sds apart.
        slope = 1000.0 + 4 * 1e-7
        rng = np.random.default_rng(7)
        w = rng.uniform(1e8, 2e8, 200)
        y = slope * w + rng.normal(0, 1, 200)
        cfg = write_config(tmp_path, "c.json", {
            "sample": np.column_stack([w, y]).tolist(),
            "error_models": [{"kind": "gaussian",
                              "params": {"mean": 0.0, "sd": 1.0}}],
            "function_family": {"theta_grid": {"min": 1000.0, "max": 1000.000001,
                                               "step": 1e-7}},
        })
        code, out = run(capsys, ["regress", "--config", cfg])
        assert code == 0
        assert out["g_id"] == "theta=1000.0000004"

    def test_grid_stops_at_its_max(self, tmp_path, capsys):
        # 1 / 0.3846 = 2.6 steps; a grid that rounded them up took 1.1538,
        # the slope nearest the data's 1.2.
        cfg = write_config(tmp_path, "c.json", {
            "sample": [[-1, -1.2], [-0.5, -0.6], [0, 0], [0.5, 0.6], [1, 1.2]],
            "error_models": [{"kind": "gaussian",
                              "params": {"mean": 0.0, "sd": 1.0}}],
            "function_family": {"theta_grid": {"min": 0, "max": 1,
                                               "step": 0.3846}},
        })
        code, out = run(capsys, ["regress", "--config", cfg])
        assert code == 0
        assert out["g_id"] == "theta=0.7692"


class TestBench:
    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "iid",
                         "truth": {"kind": "gaussian",
                                   "params": {"mean": 0.0, "sd": 1.0}},
                         "n": 40, "replications": 3},
            "estimator": {"type": "rho_gaussian_grid", "theta_min": -1,
                          "theta_max": 1, "step": 0.5},
        })
        code, out = run(capsys, ["bench", "--config", cfg, "--seed", "7"])
        assert code == 0
        assert len(out["per_replicate"]) == 3
        assert out["failures"] == 0

    @pytest.mark.parametrize("psi, expected", [
        ("psi1", [0.0012492190754190835, 0.019801326693244636,
                  0.011186955388766906, 0.0012492190754190835,
                  0.011186955388766906]),
        ("psi2", [0.0012492190754190835, 0.019801326693244636,
                  0.011186955388766906, 0.0, 0.011186955388766906]),
    ])
    def test_grid_built_once_with_unchanged_losses(self, tmp_path, capsys,
                                                    monkeypatch, psi, expected):
        # expected: the losses when the grid was rebuilt for every replicate
        builds = []
        real_build = cli.build_gaussian_location_grid
        monkeypatch.setattr(cli, "build_gaussian_location_grid",
                            lambda *a, **k: builds.append(a) or real_build(*a, **k))
        gaussian = {"kind": "gaussian", "params": {"mean": 0.1, "sd": 1.0}}
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "contaminated", "truth": gaussian,
                         "contaminant": {"kind": "cauchy",
                                         "params": {"loc": 0.0, "scale": 10.0}},
                         "eps": 0.1, "n": 60, "replications": 5},
            "estimator": {"type": "rho_gaussian_grid", "theta_min": -1,
                          "theta_max": 1, "step": 0.1},
            "truth_for_loss": gaussian,
        })
        code, out = run(capsys, ["bench", "--config", cfg, "--seed", "11",
                                 "--psi", psi])
        assert code == 0
        assert out["per_replicate"] == expected
        assert len(builds) == 1 and builds[0][4] == 60

    @pytest.mark.parametrize("truth, code", [
        ({"kind": "tabulated",
          "params": {"grid": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]}}, 0),
        ({"kind": "exp-family",
          "params": {"basis": ["x"], "coeffs": [-1.0], "log_norm": 0.0, "lo": 0}}, 2),
    ], ids=["tabulated", "exp-family"])
    def test_truth_samples_exactly_or_exits_2(self, tmp_path, capsys, truth, code):
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "iid", "truth": truth, "n": 20, "replications": 2},
            "estimator": {"type": "rho_gaussian_grid", "theta_min": -1,
                          "theta_max": 1, "step": 0.5},
        })
        assert main(["bench", "--config", cfg, "--seed", "5"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "'exp-family' has no exact sampler" in err
        else:
            assert json.loads(out)["failures"] == 0

    def test_bad_grid_rejected_before_replicates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "iid",
                         "truth": {"kind": "gaussian",
                                   "params": {"mean": 0.0, "sd": 1.0}},
                         "n": 40, "replications": 3},
            "estimator": {"type": "rho_gaussian_grid", "theta_min": 1,
                          "theta_max": -1, "step": 0.5},
        })
        assert main(["bench", "--config", cfg]) == 2
        assert "theta_min < theta_max" in capsys.readouterr().err

    def test_csv_out_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {"kind": "iid",
                         "truth": {"kind": "gaussian",
                                   "params": {"mean": 0.0, "sd": 1.0}},
                         "n": 30, "replications": 2},
            "estimator": {"type": "gaussian_mle_plugin"},
        })
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--config", cfg, "--seed", "3",
                     "--format", "csv", "--out", str(a)]) == 0
        assert main(["bench", "--config", cfg, "--seed", "3",
                     "--format", "csv", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "replicate,h2"


class TestBounds:
    def test_all_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"finite": 1, "vc": {"v": 3, "n": 300},
                            "entropy": 0})
        code, out = run(capsys, ["bounds", "--config", cfg])
        assert code == 0
        assert out["entropy"] == 18.0
        assert out["finite"] == pytest.approx(9 * np.log(2))


class TestDemoMle:
    def test_small(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"n": 40, "reps": 4})
        code, out = run(capsys, ["demo-mle", "--config", cfg, "--seed", "2"])
        assert code == 0
        assert len(out["rho_errors"]) == 4

    def test_far_theta(self, tmp_path, capsys):
        # Near x = 40 the density is finite, in one exponent, and the
        # spikes of the singular family are infinite.
        cfg = write_config(tmp_path, "c.json", {"theta": 40, "n": 5, "reps": 1})
        code, out = run(capsys, ["demo-mle", "--config", cfg, "--seed", "1"])
        assert code == 0
        assert out["theta"] == 40.0 and len(out["rho_errors"]) == 1

    def test_no_event_gives_null(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"theta": 0, "n": 5, "reps": 1})
        code, out = run(capsys, ["demo-mle", "--config", cfg, "--seed", "3"])
        assert code == 0
        assert out["freq_event"] == 0.0 and out["freq_mle_at_max"] is None


class TestExitCodes:
    @pytest.mark.parametrize("command", ["fit", "select", "aggregate", "regress",
                                         "bounds", "demo-mle"])
    def test_csv_is_for_bench_only(self, tmp_path, capsys, command):
        dest = tmp_path / "out.csv"
        assert main([command, "--format", "csv", "--out", str(dest)]) == 2
        assert "for bench" in capsys.readouterr().err and not dest.exists()

    def test_bench_csv_needs_out(self, capsys):
        assert main(["bench", "--format", "csv"]) == 2

    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "mle_counterexample",
                            lambda **kwargs: {"x": float("inf")})
        dest = tmp_path / "out.json"
        assert main(["demo-mle", "--out", str(dest)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not dest.exists()
        assert err.startswith("numerical failure: non-finite number")

    def test_missing_config(self, capsys):
        assert main(["fit", "--config", "/nonexistent/x.json"]) == 2

    def test_config_required(self, capsys):
        assert main(["fit"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constant(self, tmp_path, capsys, token):
        path = tmp_path / "c.json"
        path.write_text('{"sample": [0.0, 1.0], "family": {"type": '
                        '"gaussian_location_grid", "theta_min": -1, '
                        f'"theta_max": 1, "step": {token}}}}}')
        assert main(["fit", "--config", str(path)]) == 2
        assert f"non-finite number {token}" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["1e999", "-1e999"])
    @pytest.mark.parametrize("shape", ["scalar", "pair"])
    def test_fit_rejects_infinite_sample_point(self, tmp_path, capsys,
                                               point, shape):
        pts = (f"[0.1, {point}, -0.3]" if shape == "scalar"
               else f"[[0.1, 0.2], [{point}, 0.5]]")
        path = tmp_path / "c.json"
        path.write_text(f'{{"sample": {pts}, "family": {{"type": '
                        '"gaussian_location_grid", "theta_min": -1, '
                        '"theta_max": 1, "step": 0.5}}')
        assert main(["fit", "--config", str(path)]) == 2
        assert f"overflows a float: {point}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["99", "-1", "abc"])
    def test_fit_rejects_bad_penalty_key(self, tmp_path, capsys,
                                         gaussian_sample, key):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "gaussian_location_grid", "theta_min": -1,
                       "theta_max": 1, "step": 0.5},
            "penalty": {key: 1.0},
        })
        assert main(["fit", "--config", cfg]) == 2
        assert "penalty" in capsys.readouterr().err

    def test_fit_rejects_unknown_density_parameter(self, tmp_path, capsys,
                                                   gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "explicit", "densities": [
                {"kind": "gaussian", "params": {"mean": 0, "sd": 1, "bogus": 2}},
            ]},
        })
        assert main(["fit", "--config", cfg]) == 2
        assert "bad density spec" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["-1e400", "-1" + "0" * 400],
                             ids=["float", "integer"])
    def test_fit_rejects_overflowing_number(self, tmp_path, capsys, number):
        path = tmp_path / "c.json"
        path.write_text('{"sample": [0.0, 1.0], "family": {"type": '
                        f'"gaussian_location_grid", "theta_min": {number}, '
                        '"theta_max": 1, "step": 0.5}}')
        assert main(["fit", "--config", str(path)]) == 2
        assert "overflows a float" in capsys.readouterr().err

    def test_unknown_family_type(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample, "family": {"type": "mystery"}})
        assert main(["fit", "--config", cfg]) == 2

    def test_bad_kappa_multiplier(self, tmp_path, capsys, gaussian_sample):
        assert main(["fit", "--kappa-multiplier", "-1"]) == 2
        fit = write_config(tmp_path, "fit.json",
                           {"sample": gaussian_sample, "family": GRID})
        bench = write_config(tmp_path, "bench.json", {
            "scenario": SCENARIO, "estimator": {**GRID, "type": "rho_gaussian_grid"}})
        for command, cfg in (("fit", fit), ("bench", bench)):
            for value in ("nan", "inf"):
                assert main([command, "--config", cfg,
                             "--kappa-multiplier", value]) == 2
                out, err = capsys.readouterr()
                assert out == "" and "error: --kappa-multiplier must be" in err
        assert main(["fit", "--config", fit, "--c1", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: --c1 must be" in err

    def test_decreasing_tabulated_grid_rejected(self, tmp_path, capsys,
                                                gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "tabulated", "params": {"grid": [3.0, -3.0],
                                                 "values": [0.2, 0.2]}},
            ],
        })
        assert main(["aggregate", "--config", cfg]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_reversed_exp_family_support_rejected(self, tmp_path, capsys,
                                                  gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "exp-family", "params": {
                    "basis": ["x"], "coeffs": [0.0], "log_norm": 0.0,
                    "lo": 1.0, "hi": -1.0}},
            ],
        })
        assert main(["aggregate", "--config", cfg]) == 2
        assert "lo < hi" in capsys.readouterr().err

    def test_line_search_failure_is_numerical_failure(self, tmp_path, capsys,
                                                      gaussian_sample,
                                                      monkeypatch):
        def fail(*args):
            raise SolverError("line-search derivative is nan")

        monkeypatch.setattr(aggregation, "_line_search", fail)
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "gaussian", "params": {"mean": 2.0, "sd": 1.0}},
            ],
        })
        assert main(["aggregate", "--config", cfg]) == 3
        assert "numerical failure: line-search" in capsys.readouterr().err

    def test_degenerate_aggregation_is_numerical_failure(self, tmp_path,
                                                         capsys,
                                                         gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
            ],
        })
        assert main(["aggregate", "--config", cfg]) == 3

    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        # The regular log-likelihood overflows: in the sample mean at 1e308,
        # in theta' * n * mean at 1e155.  It raises FloatingPointError, an
        # ArithmeticError like every numerical failure, before any numpy
        # warning (an error under this suite's filters).
        for theta in (1e155, 1e308):
            cfg = write_config(tmp_path, "c.json", {"theta": theta, "n": 5, "reps": 1})
            assert main(["demo-mle", "--config", cfg]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("numerical failure:")
            assert len(err.splitlines()) == 1


GRID = {"type": "gaussian_location_grid", "theta_min": -1, "theta_max": 1,
        "step": 0.5}
TWO_GAUSSIANS = [{"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                 {"kind": "gaussian", "params": {"mean": 2.0, "sd": 1.0}}]
SCENARIO = {"kind": "iid", "n": 40, "replications": 2,
            "truth": {"kind": "gaussian", "params": {"mean": 0.0, "sd": 1.0}}}
REGRESS = {"error_models": TWO_GAUSSIANS[:1],
           "function_family": {"theta_grid": {"min": 0.0, "max": 1.0, "step": 0.5}}}


class TestConfigNumbers:
    """Every numeric config value is a finite number, and an integer where one
    is counted; anything else is a configuration error (exit 2)."""

    @pytest.mark.parametrize("command, config, key", [
        ("fit", {"family": {**GRID, "theta_min": "a"}}, "theta_min"),
        ("fit", {"family": {**GRID, "sd": [1.0]}}, "sd"),
        ("fit", {"family": GRID, "penalty": {"0": "1.5"}}, "'0'"),
        ("select", {"models": [{"family": GRID, "delta": "x"}]}, "delta"),
        ("aggregate", {"candidates": TWO_GAUSSIANS, "eps": "x"}, "eps"),
        ("aggregate", {"candidates": TWO_GAUSSIANS, "max_outer": "abc"}, "max_outer"),
        ("aggregate", {"candidates": TWO_GAUSSIANS, "max_outer": 2.5}, "max_outer"),
        ("regress", {**REGRESS, "function_family": {"theta_grid": {
            "min": 0.0, "max": True, "step": 0.5}}}, "max"),
        ("bench", {"scenario": {**SCENARIO, "replications": 2.7},
                   "estimator": {"type": "gaussian_mle_plugin"}}, "replications"),
        ("bench", {"scenario": {**SCENARIO, "eps": "0.1"},
                   "estimator": {"type": "gaussian_mle_plugin"}}, "eps"),
        ("bench", {"scenario": SCENARIO, "estimator": {
            "type": "rho_gaussian_grid", "theta_min": -1, "theta_max": "1",
            "step": 0.5}}, "theta_max"),
        ("bench", {"scenario": SCENARIO, "estimator": {
            "type": "gaussian_mle_plugin", "sd": None}}, "sd"),
        ("bounds", {"finite": "3"}, "finite"),
        ("bounds", {"vc": {"v": 3, "n": 300.5}}, "n"),
        ("bounds", {"entropy": {}}, "entropy"),
        ("demo-mle", {"n": "ten"}, "n"),
        ("demo-mle", {"reps": 2.7}, "reps"),
        ("demo-mle", {"theta": "0", "n": 20, "reps": 2}, "theta"),
        ("demo-mle", {"grid_step": False, "n": 20, "reps": 2}, "grid_step"),
        ("demo-mle", {"n": 2, "reps": 2}, "n must be an integer >= 3"),
        ("bounds", {"vc": {"v": 3, "n": 0}}, "n must be an integer >= 1"),
        ("bounds", {"finite": 0}, "cardinality must be an integer >= 1"),
        ("fit", {"family": {"type": "histogram", "breakpoint_grids": [[0, 1]],
                            "k": 0}}, "k must be an integer >= 1"),
    ])
    def test_bad_number_is_config_error(self, tmp_path, capsys, gaussian_sample,
                                        command, config, key):
        if command in ("fit", "select", "aggregate"):
            config = {"sample": gaussian_sample, **config}
        if command == "regress":
            config = {"sample": [[0.0, 0.1], [1.0, 0.9], [2.0, 2.2]], **config}
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("command, config, message", [
        ("regress", {**REGRESS, "function_family": {"theta_grid": {
            "min": 0.0, "max": 1.0, "step": 0}}}, "step must be > 0"),
        ("regress", {**REGRESS, "function_family": {"theta_grid": {
            "min": 0.0, "max": 1.0, "step": -0.5}}}, "step must be > 0"),
        ("regress", {**REGRESS, "function_family": {"theta_grid": {
            "min": 0.0, "max": 1.0, "step": 1e-300}}}, "more than 8192 points"),
        ("fit", {"family": {**GRID, "step": 0}}, "step must be > 0"),
        ("fit", {"family": {**GRID, "step": 1e-300}}, "more than 8192 points"),
        ("bench", {"scenario": SCENARIO, "estimator": {
            "type": "rho_gaussian_grid", "theta_min": -1e308, "theta_max": 1e308,
            "step": 1.0}}, "more than 8192 points"),
        ("demo-mle", {"n": 5, "reps": 2, "grid_step": 0},
         "grid_step must be positive"),
        ("demo-mle", {"n": 5, "reps": 2, "grid_step": 1e-300},
         "more than 8192 points"),
    ])
    def test_bad_grid_step_is_config_error(self, tmp_path, capsys,
                                           gaussian_sample, command, config,
                                           message):
        if command == "fit":
            config = {"sample": gaussian_sample, **config}
        if command == "regress":
            config = {"sample": [[0.0, 0.1], [1.0, 0.9], [2.0, 2.2]], **config}
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_integral_float_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"n": 20.0, "reps": 2.0})
        code, out = run(capsys, ["demo-mle", "--config", cfg])
        assert code == 0
        assert out["reps"] == 2

    @pytest.mark.parametrize("max_outer", [0, -1])
    def test_aggregate_rejects_no_outer_steps(self, tmp_path, capsys,
                                              gaussian_sample, max_outer):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample, "candidates": TWO_GAUSSIANS,
            "max_outer": max_outer})
        assert main(["aggregate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "max_outer must be an integer >= 1" in err


class TestConfigShapes:
    """A section that should be a JSON object or list, and every density or
    scenario parameter, is checked where it is read: a wrong type is a
    configuration error (exit 2), never a traceback."""

    @pytest.mark.parametrize("command, config", [
        ("bounds", {"vc": 3}),
        ("regress", {**REGRESS, "function_family": {"theta_grid": 5}}),
        ("regress", {**REGRESS, "function_family": 5}),
        ("fit", {"family": 5}),
        ("select", {"models": [5]}),
        ("select", {"models": {"family": GRID}}),
        ("aggregate", {"candidates": 5}),
        ("bench", {"scenario": 5, "estimator": {"type": "gaussian_mle_plugin"}}),
        ("fit", {"family": {"type": "explicit", "densities": 5}}),
        ("fit", {"family": {"type": "exp_family", "basis": "x",
                            "coefficient_grid": [[0.0]], "lo": 0, "hi": 1}}),
        ("fit", {"sample": ["x"], "family": GRID}),
        ("fit", {"sample": [[0.0, 1.0], [2.0]], "family": GRID}),
    ])
    def test_wrong_section_type_is_config_error(self, tmp_path, capsys,
                                                gaussian_sample, command, config):
        if command in ("fit", "select", "aggregate"):
            config = {"sample": gaussian_sample, **config}
        if command == "regress":
            config = {"sample": [[0.0, 0.1], [1.0, 0.9], [2.0, 2.2]], **config}
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, config", [
        ("fit", {"family": GRID}),
        ("select", {"models": [{"family": GRID}]}),
        ("aggregate", {"candidates": TWO_GAUSSIANS}),
    ])
    def test_pair_sample_for_a_1d_family_is_config_error(self, tmp_path, capsys,
                                                         command, config):
        cfg = write_config(tmp_path, "c.json", {
            "sample": [[0.1, 0.2], [0.3, -0.4], [1.0, 0.5]], **config})
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "scalar sample" in err

    @pytest.mark.parametrize("payload", ["[1, 2]", "5", '"fit"'])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, payload):
        path = tmp_path / "c.json"
        path.write_text(payload)
        assert main(["bounds", "--config", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("candidate", [
        {"kind": "histogram", "params": {"breaks": [0, 1], "heights": ["x"]}},
        {"kind": "histogram", "params": {"breaks": ["0", "1"], "heights": [1]}},
        {"kind": "exp-family", "params": {"basis": ["x"], "coeffs": [0.0],
                                          "log_norm": 0.0, "lo": "a", "hi": "b"}},
        {"kind": "exp-family", "params": {"basis": ["x"], "coeffs": ["x"],
                                          "log_norm": 0.0, "lo": 0, "hi": 1}},
        {"kind": "exp-family", "params": {"basis": ["x+"], "coeffs": [0.0],
                                          "log_norm": 0.0, "lo": 0, "hi": 1}},
        {"kind": "exp-family", "params": {"basis": ["x(1)"], "coeffs": [0.0],
                                          "log_norm": 0.0, "lo": 0, "hi": 1}},
        {"kind": "gaussian", "params": {"mean": True, "sd": 1.0}},
        {"kind": "cauchy", "params": {"loc": 0.0, "scale": True}},
        {"kind": "tabulated", "params": {"grid": [0, 1], "values": [1, "x"]}},
        {"kind": "uniform", "params": {"a": False, "b": 1}},
    ], ids=["string-height", "string-breaks", "string-ends", "string-coeff",
            "basis-syntax", "basis-call", "bool-mean", "bool-scale", "string-value",
            "bool-end"])
    def test_newly_rejected_density_parameter(self, tmp_path, capsys,
                                              gaussian_sample, candidate):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "candidates": [TWO_GAUSSIANS[0], candidate]})
        assert main(["aggregate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: bad density spec")

    HISTOGRAM = {"type": "histogram", "breakpoint_grids": [[-3, 0, 3]], "k": 2}

    def test_histogram_family_fits(self, tmp_path, capsys, gaussian_sample):
        cfg = write_config(tmp_path, "c.json", {"sample": gaussian_sample,
                                                "family": self.HISTOGRAM})
        code, out = run(capsys, ["fit", "--config", cfg])
        assert code == 0
        assert out["chosen_label"].startswith("breaks=(-3.0, 0.0, 3.0)")

    @pytest.mark.parametrize("change, key", [
        ({"k": "a"}, "'k'"),
        ({"mass_steps": 2.5}, "'mass_steps'"),
        ({"breakpoint_grids": [["a", 1]]}, "breakpoint_grids row"),
    ], ids=["string-k", "fractional-mass-steps", "string-breakpoint"])
    def test_histogram_family_inputs(self, tmp_path, capsys, gaussian_sample,
                                     change, key):
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample, "family": {**self.HISTOGRAM, **change}})
        assert main(["fit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_oversized_histogram_family_exits_2(self, tmp_path, capsys,
                                               gaussian_sample, monkeypatch):
        """127 mass steps over 3 pieces make 8,256 lattice points, each one a
        family entry: exit 2 with one error line, before any histogram is made."""
        def never(*args, **kwargs):
            raise AssertionError("a histogram of an over-cap family was made")

        monkeypatch.setattr(models, "Histogram", never)
        cfg = write_config(tmp_path, "c.json", {
            "sample": gaussian_sample,
            "family": {"type": "histogram", "k": 3,
                       "breakpoint_grids": [[-3, -1, 1, 3]], "mass_steps": 127}})
        assert main(["fit", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: histogram family at mass_steps = 127 makes more than 8192 lattice points\n"

    @pytest.mark.parametrize("outliers", [
        {"outlier_indices": [1.5], "outlier_points": [3.0]},
        {"outlier_indices": ["a"], "outlier_points": [3.0]},
        {"outlier_indices": 5, "outlier_points": [3.0]},
        {"outlier_indices": [1], "outlier_points": ["a"]},
    ], ids=["fractional-index", "string-index", "scalar-indices", "string-point"])
    def test_bench_rejects_bad_outlier_lists(self, tmp_path, capsys, outliers):
        cfg = write_config(tmp_path, "c.json", {
            "scenario": {**SCENARIO, "kind": "outliers", **outliers},
            "estimator": {"type": "gaussian_mle_plugin"}})
        assert main(["bench", "--config", cfg]) == 2
        assert "outlier" in capsys.readouterr().err


HISTOGRAMS = {"sample": [-4.2, -2.5, -0.7, 0.4, 1.1, 2.9, 3.6, 5.0],
              "models": [{"family": {"type": "histogram", "k": 2,
                                     "breakpoint_grids": [[-3, 0, 3]]}},
                         {"family": {"type": "histogram", "k": 3,
                                     "breakpoint_grids": [[-3, -1, 1, 3]]}}]}
SCREEN_SAMPLE = np.random.default_rng(26).normal(0.5, 1.0, 1000)
SCREEN_SAMPLE[:8] = -1000.0, 1000.0, -12.0, 12.5, -15.0, 15.5, -40.0, 40.0

# Runs whose criterion meets zero or infinite roots, which it settles into
# stand-in roots and runs without np.errstate: each must exit 0 with strict
# JSON and no RuntimeWarning (an error under this suite's filters).
# name -> (command and options, config, check on the output)
EDGE_RUNS = {
    # Every kind that the sqrt-value matrix evaluates in one pdf call per
    # kind, interleaved with a histogram, which it evaluates entry by entry;
    # the uniform misses two sample points and the singular Gaussian is
    # centred on one.
    "fit-explicit": (["fit"], {"sample": [-0.4, 0.1, 0.3, 0.9, 1.2], "family": {
        "type": "explicit", "densities": [
            {"kind": "gaussian", "params": {"mean": 0, "sd": 1}},
            {"kind": "histogram", "params": {"breaks": [-1, 0, 1, 2],
                                             "heights": [0.25, 0.5, 0.25]}},
            {"kind": "cauchy", "params": {"loc": 0.5, "scale": 1.0}},
            {"kind": "laplace", "params": {"loc": 0.3, "scale": 0.5}},
            {"kind": "uniform", "params": {"a": 0, "b": 1}},
            {"kind": "exponential", "params": {"rate": 2.0, "shift": -1}},
            {"kind": "pathological-gaussian", "params": {"theta": 0.9}},
            {"kind": "gaussian", "params": {"mean": 0.5, "sd": 0.5}}]}},
        lambda out: len(out["trace"]) == 8),
    # 140 entries at n = 1000 reach the float32 screen, and every pair ties:
    # the certificate sums all 9730 pairs j < k.
    "fit-identical": (["fit"], {"sample": SCREEN_SAMPLE.tolist(), "family": {
        "type": "explicit", "densities": [TWO_GAUSSIANS[0]] * 140}},
        lambda out: len(out["trace"]) == 140 and len(set(out["trace"])) == 1),
    # Outliers at +-1000 make sample columns where every grid density is 0.
    "bench-outliers": (["bench", "--seed", "1"], {
        "scenario": {**SCENARIO, "kind": "outliers", "n": 30, "replications": 3,
                     "outlier_indices": [0, 1], "outlier_points": [-1000.0, 1000.0]},
        "estimator": {**GRID, "type": "rho_gaussian_grid", "step": 0.25}},
        lambda out: out["failures"] == 0 and len(out["per_replicate"]) == 3),
    # Histogram models vanish at the sample points outside their breakpoints
    # and in their empty pieces.
    **{f"select-histograms-{psi}": (["select", "--psi", psi], HISTOGRAMS,
                                    lambda out: out["selected_models"])
       for psi in ("psi1", "psi2")},
    # At n = 5, seed 1, the singular family meets infinite densities.
    **{f"demo-mle-{psi}": (["demo-mle", "--seed", "1", "--psi", psi],
                           {"theta": 0.0, "n": 5, "reps": 20},
                           lambda out: len(out["rho_errors"]) == 20)
       for psi in ("psi1", "psi2")},
}


@pytest.mark.parametrize("name", sorted(EDGE_RUNS))
def test_edge_run_exits_0(tmp_path, capsys, name):
    args, config, check = EDGE_RUNS[name]
    code, out = run(capsys, [*args, "--config", write_config(tmp_path, "c.json", config)])
    assert code == 0 and check(out)


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
