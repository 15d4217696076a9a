import json

import numpy as np
import pytest

from rhoest import SolverError, aggregation, cli
from rhoest.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gaussian_sample():
    rng = np.random.default_rng(0)
    return rng.normal(0.0, 1.0, 60).tolist()


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


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


class TestExitCodes:
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

    def test_bad_kappa_multiplier(self, tmp_path, capsys):
        assert main(["fit", "--kappa-multiplier", "-1"]) == 2

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


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
