import importlib.util
import os
import pathlib
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from homfilt.cli import main, read_csv


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SIM_CFG = {
    "model": {
        "family": "ou_benchmark",
        "epsilon": 0.25,
        "horizon": 1.0,
        "dt": 1e-3,
        "x0": [0.5],
        "z0": [0.5],
    },
}


class TestSimulate:
    def test_row_count_and_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--seed", 3, "--out", out, "simulate"]) == 0
        manifest, header, rows = read_csv(str(out / "signal.csv"))
        assert len(rows) == 1001
        assert header == ["time", "x0", "z0"]
        assert manifest["subcommand"] == "simulate"
        _, _, obs = read_csv(str(out / "observations.csv"))
        assert len(obs) == 1000

    def test_zero_dynamics_constant_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"family": "linear", "epsilon": 1.0, "horizon": 0.5,
                      "dt": 0.01, "x0": [2.0], "z0": [0.0],
                      "params": {"a": 0.0, "q": 1e-30, "h": 0.0}}})
        out = tmp_path / "out"
        assert run(["--config", cfg, "--seed", 1, "--out", out, "simulate"]) == 0
        _, _, rows = read_csv(str(out / "signal.csv"))
        assert np.allclose(rows[:, 1], 2.0, atol=1e-12)

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--config", cfg, "--seed", 9, "--out", out,
                        "simulate"]) == 0
            outs.append((out / "signal.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_family_param_in_scientific_notation(self, tmp_path, monkeypatch):
        # PyYAML reads 5e-1 (no dot) as a string; params read it as 0.5, as
        # every other real key does.  The manifest records the config path,
        # so both runs read the same relative path.
        monkeypatch.chdir(tmp_path)
        signals = []
        for value in ("0.5", "5e-1"):
            (tmp_path / "config.yaml").write_text(
                "model:\n  family: ou_benchmark\n"
                f"  params: {{c_b: {value}}}\n  horizon: 0.1\n  dt: 0.01\n")
            assert run(["--config", "./config.yaml", "--seed", 2, "--out", value,
                        "simulate"]) == 0
            signals.append((tmp_path / value / "signal.csv").read_bytes())
        assert signals[0] == signals[1]


class TestHomogenize:
    def test_z_independent_table_matches_analytic(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"family": "linear",
                      "params": {"a": -1.0, "q": 0.49, "h": 1.0}},
            "averager": {"burn_in": 0.5, "sample_horizon": 3.0, "dt": 1e-2,
                         "replicates": 2,
                         "grid": {"lows": [-1.0], "highs": [1.0],
                                  "counts": [3]}}})
        out = tmp_path / "out"
        assert run(["--config", cfg, "--seed", 4, "--out", out,
                    "homogenize"]) == 0
        from homfilt.averaging import load_tabulated
        hm = load_tabulated(str(out / "homogenized_table.txt"))
        for x in (-1.0, 0.0, 1.0):
            node = np.array([x])
            assert np.allclose(hm.drift_avg(node), [-x], atol=1e-12)
            assert np.allclose(hm.diffsq_avg(node), [[0.49]], atol=1e-12)

    def test_reload_bit_exact(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"family": "ou_benchmark"},
            "averager": {"burn_in": 0.5, "sample_horizon": 3.0, "dt": 1e-2,
                         "replicates": 2,
                         "grid": {"lows": [-1.0], "highs": [1.0],
                                  "counts": [3]}}})
        out = tmp_path / "out"
        assert run(["--config", cfg, "--seed", 4, "--out", out,
                    "homogenize"]) == 0
        from homfilt.averaging import load_tabulated
        path = str(out / "homogenized_table.txt")
        h1 = load_tabulated(path)
        h2 = load_tabulated(path)
        probes = np.linspace(-1, 1, 11)[:, None]
        assert np.array_equal(h1.drift_avg(probes), h2.drift_avg(probes))


class TestFilter:
    def make_inputs(self, tmp_path, h_zero=False):
        params = {"a": -1.0, "c_b": 0.5, "h_x": 0.0, "c_h": 0.0} if h_zero else {}
        sim_cfg = {
            "model": {"family": "ou_benchmark", "epsilon": 0.25,
                      "horizon": 1.0, "dt": 0.01, "x0": [0.5], "z0": [0.5],
                      "params": params},
            "filter": {"n_particles": 500, "mode": "both",
                       "init_mean": 0.5, "init_std": 0.3},
        }
        cfg = write_config(tmp_path, sim_cfg)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--seed", 8, "--out", out, "simulate"]) == 0
        sim_cfg["filter"]["observations"] = str(out / "observations.csv")
        return write_config(tmp_path, sim_cfg, "filter.yaml"), out

    def test_runs_and_emits_distance(self, tmp_path):
        cfg, out = self.make_inputs(tmp_path)
        assert run(["--config", cfg, "--seed", 8, "--out", out, "filter"]) == 0
        _, header, rows = read_csv(str(out / "filter_full.csv"))
        assert header == ["time", "mean0", "ess", "resampled"]
        assert rows.shape == (100, len(header))
        assert os.path.exists(out / "filter_homogenized.csv")
        dist_lines = (out / "filter_distance.txt").read_text().splitlines()
        val = float(dist_lines[-1].split("=")[1])
        assert 0.0 <= val <= 1.0

    def test_deterministic(self, tmp_path):
        cfg, out = self.make_inputs(tmp_path)
        contents = []
        for name in ("r1", "r2"):
            sub = tmp_path / name
            assert run(["--config", cfg, "--seed", 8, "--out", sub,
                        "filter"]) == 0
            contents.append((sub / "filter_full.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_uninformative_observations_match_prior(self, tmp_path):
        # h == 0: the filtered mean is a plain Monte Carlo estimate of the
        # prior mean of the slow state.
        cfg, out = self.make_inputs(tmp_path, h_zero=True)
        assert run(["--config", cfg, "--seed", 8, "--out", out, "filter"]) == 0
        _, _, rows = read_csv(str(out / "filter_homogenized.csv"))
        # Averaged drift is -0.5 x; prior mean at t=1 is 0.5 e^{-0.5}.
        expect = 0.5 * np.exp(-0.5)
        se = 0.3 / np.sqrt(500)  # ensemble-mean scale
        assert abs(rows[-1, 1] - expect) < 3 * se + 0.02

    def test_single_particle_echoes_trajectory(self, tmp_path):
        cfg_path, out = self.make_inputs(tmp_path)
        import yaml as _y
        with open(cfg_path) as f:
            cfg = _y.safe_load(f)
        cfg["filter"]["n_particles"] = 1
        cfg["filter"]["mode"] = "homogenized"
        cfg["filter"]["init_std"] = 0.0
        cfg2 = write_config(tmp_path, cfg, "single.yaml")
        assert run(["--config", cfg2, "--seed", 8, "--out", out, "filter"]) == 0
        _, _, rows = read_csv(str(out / "filter_homogenized.csv"))
        assert np.all(rows[:, 2] == 1.0)  # ESS stays 1 for one particle

    def test_builds_the_family_once(self, tmp_path, monkeypatch):
        # Mode both without a table: one build gives both filters their model.
        from homfilt import catalog
        cfg, out = self.make_inputs(tmp_path)
        family = catalog._FAMILIES["ou_benchmark"]
        calls = []
        monkeypatch.setitem(catalog._FAMILIES, "ou_benchmark",
                            lambda **params: calls.append(params) or family(**params))
        assert run(["--config", cfg, "--seed", 8, "--out", out, "filter"]) == 0
        assert len(calls) == 1

    def test_same_bytes_with_one_and_two_cpus(self, tmp_path, monkeypatch):
        # With two CPUs the reduced filter runs in a forked worker.
        cfg, _ = self.make_inputs(tmp_path)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            assert run(["--config", cfg, "--seed", 8, "--out", out, "filter"]) == 0
            assert_no_child_left()
            outputs.append({name: (out / name).read_bytes() for name in (
                "filter_full.csv", "filter_homogenized.csv", "filter_distance.txt")})
        assert outputs[0] == outputs[1]

    def test_table_needs_no_model_section(self, tmp_path):
        obs, table = TestErrors._table(tmp_path, TestErrors._BLOCKS)
        cfg = write_config(tmp_path, {"filter": {
            "mode": "homogenized", "n_particles": 8, "observations": str(obs),
            "table": str(table)}})
        assert run(["--config", cfg, "--out", tmp_path, "filter"]) == 0
        _, _, rows = read_csv(str(tmp_path / "filter_homogenized.csv"))
        assert rows.shape == (2, 4)


class TestStudy:
    def test_small_study_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 3,
                      "horizon": 0.5, "n_particles": 32, "dt": 0.02,
                      "bootstrap_samples": 20}})
        reports = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(["--config", cfg, "--seed", 77, "--out", out,
                        "study"]) == 0
            reports.append(((out / "report.txt").read_bytes(),
                            (out / "report.csv").read_bytes()))
        assert reports[0] == reports[1]
        text = reports[0][0].decode()
        assert "slope=" in text and "basis_version=gauss-v1" in text
        # slope_ci depends on the bootstrap size, so the report records it.
        assert "\nbootstrap_samples=20\n" in text

    def test_family_param_in_scientific_notation(self, tmp_path):
        reports = []
        for value in ("0.5", "5e-1"):
            (tmp_path / "config.yaml").write_text(
                f"model:\n  family: ou_benchmark\n  params: {{c_b: {value}}}\n"
                "study: {epsilons: [0.5, 0.25, 0.125], replications: 2, horizon: 0.1,"
                " n_particles: 8, dt: 0.02, bootstrap_samples: 20}\n")
            out = tmp_path / value
            assert run(["--config", tmp_path / "config.yaml", "--seed", 1, "--out", out,
                        "study"]) == 0
            reports.append((out / "report.txt").read_text())
        assert "\nparam_c_b=0.5\n" in reports[1]
        assert reports[0] == reports[1]


class TestErrors:
    def test_unknown_family_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"family": "nope", "horizon": 1.0, "dt": 0.1}})
        assert run(["--config", cfg, "--out", tmp_path, "simulate"]) == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run(["--out", tmp_path, "simulate"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "homogenize", "filter", "study"])
    @pytest.mark.parametrize("text", [b"model: [\n", b"model:\n  family: \xff\xfe\n"],
                             ids=["yaml", "encoding"])
    def test_unparsable_config_is_usage_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.yaml"
        path.write_bytes(text)
        assert run(["--config", path, "--out", tmp_path, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot parse config {path}: ")
        assert err.count("\n") == 1

    def test_missing_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"family": "linear"}})
        assert run(["--config", cfg, "--out", tmp_path, "simulate"]) == 2

    def _usage_error(self, tmp_path, capsys, cfg, command):
        path = write_config(tmp_path, cfg)
        assert run(["--config", path, "--out", tmp_path, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        return err

    @staticmethod
    def _every_section(tmp_path):
        """A small config that every subcommand runs, and its observations."""
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        return {"model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01},
                "filter": {"observations": str(obs), "n_particles": 8},
                "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                          "horizon": 0.1, "n_particles": 8, "dt": 0.02,
                          "bootstrap_samples": 20},
                "averager": {"replicates": 2, "sample_horizon": 0.2, "burn_in": 0.1,
                             "dt": 0.1,
                             "grid": {"lows": [-2.0], "highs": [2.0], "counts": [3]}}}

    def test_bad_study_config_is_usage_error(self, tmp_path, capsys):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25], "replications": 2, "horizon": 0.1,
                      "n_particles": 8, "dt": 0.02}}, "study")

    def test_unknown_family_param_is_usage_error(self, tmp_path, capsys):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "params": {"bogus": 1.0},
                      "horizon": 1.0, "dt": 0.1}}, "simulate")

    def test_zero_epsilon_is_usage_error(self, tmp_path, capsys):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "epsilon": 0,
                      "horizon": 1.0, "dt": 0.1}}, "simulate")

    @pytest.mark.parametrize("horizon, dt", [(0.001, 0.01), (1.0, 0.0), (1.0, -0.1),
                                             (1.0, 0.3)])
    def test_bad_simulate_grid_is_usage_error(self, tmp_path, capsys, horizon, dt):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "horizon": horizon, "dt": dt}},
            "simulate")
        assert not (tmp_path / "signal.csv").exists()

    @pytest.mark.parametrize("state", [{"x0": [0.1, 0.2]}, {"z0": []}, {"x0": ["abc"]}])
    def test_bad_initial_state_is_usage_error(self, tmp_path, capsys, state):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01, **state}},
            "simulate")
        assert not (tmp_path / "signal.csv").exists()

    def test_study_horizon_shorter_than_dt_is_usage_error(self, tmp_path, capsys):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.01, "n_particles": 8, "dt": 0.02}}, "study")

    @pytest.mark.parametrize("averager", [
        {"burn_in": 5.0, "sample_horizon": 2.0},
        {"grid": {"lows": [2.0], "highs": [-2.0], "counts": [3]}},
        {"grid": {"lows": [-2.0], "highs": [2.0], "counts": [3],
                  "interpolation": "cubic"}},
        {"grid": {"lows": [-2.0, -2.0], "highs": [2.0, 2.0], "counts": [3, 3]}},
        {"burn_in": 0.5, "sample_horizon": 1.0, "dt": 2.0},
        {"burn_in": 0.25, "sample_horizon": 1.0, "dt": 0.1},
        {"burn_in": 0.5, "sample_horizon": 1.05, "dt": 0.1},
    ])
    def test_bad_averager_config_is_usage_error(self, tmp_path, capsys, averager):
        averager = {"grid": {"lows": [-2.0], "highs": [2.0], "counts": [3]},
                    **averager}
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "sinusoidal", "epsilon": 0.1},
            "averager": averager}, "homogenize")

    @pytest.mark.parametrize("bad", [{"n_particles": 0}, {"resample_threshold": 2},
                                     {"basis_count": 0}])
    def test_bad_filter_config_is_usage_error(self, tmp_path, capsys, bad):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "filter": {"observations": str(obs), **bad}}, "filter")
        assert not (tmp_path / "filter_full.csv").exists()

    # The basis is used only in mode both, but its count is checked in every mode.
    @pytest.mark.parametrize("mode", ["full", "homogenized", "both"])
    def test_bad_basis_count_is_usage_error_in_every_mode(self, tmp_path, capsys, mode):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        err = self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "filter": {"mode": mode, "observations": str(obs), "basis_count": 0}}, "filter")
        assert err.startswith("usage error: bad [filter] config: ")
        assert not list(tmp_path.glob("filter_*"))

    # Warnings as errors: a parameter checked after its first use would warn
    # (sqrt of a negative q) on top of the one-line message.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, params", [
        ("linear", {"q": -1.0}), ("ou_benchmark", {"relax": -1.0}),
        ("linear", {"q": float("nan")}), ("ou_benchmark", {"sigma0": float("nan")}),
        ("ou_benchmark", {"relax": float("inf")})])
    def test_bad_family_value_is_usage_error(self, tmp_path, capsys, family, params):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": family, "params": params},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.1, "n_particles": 8, "dt": 0.02}}, "study")

    @pytest.mark.parametrize("bad", [{"n_particles": 0}, {"basis_count": 0},
                                     {"resample_threshold": 0},
                                     {"resample_threshold": 1.5}])
    def test_bad_study_filter_or_basis_is_usage_error(self, tmp_path, capsys, bad):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.1, "n_particles": 8, "dt": 0.02, **bad}}, "study")
        assert not (tmp_path / "report.txt").exists()

    # A non-finite initial law or state, or a negative initial std, is a usage
    # error, not a numeric failure of the run it would start.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section, bad, command, output", [
        ("study", {"init_std": float("nan")}, "study", "report.txt"),
        ("filter", {"init_mean": float("nan")}, "filter", "filter_full.csv"),
        ("filter", {"init_std": float("inf"), "mode": "homogenized"}, "filter",
         "filter_homogenized.csv"),
        ("model", {"x0": [float("nan")]}, "simulate", "signal.csv"),
        ("model", {"z0": [float("inf")]}, "simulate", "signal.csv"),
        ("study", {"init_std": -0.5}, "study", "report.txt"),
        ("filter", {"init_std": -0.5}, "filter", "filter_full.csv"),
    ])
    def test_non_finite_initial_law_is_usage_error(self, tmp_path, capsys, section, bad,
                                                   command, output):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        cfg = {"model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01},
               "filter": {"observations": str(obs), "n_particles": 8},
               "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                         "horizon": 0.1, "n_particles": 8, "dt": 0.02}}
        cfg[section].update(bad)
        self._usage_error(tmp_path, capsys, cfg, command)
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("section, bad, command", [
        ("filter", {"init_mean": "abc"}, "filter"),
        ("filter", {"n_particles": [8]}, "filter"),
        ("study", {"basis_count": [4]}, "study"),
        ("averager", {"replicates": [4]}, "homogenize"),
        ("model", {"params": [1]}, "simulate"),
        ("model", {"horizon": "abc"}, "simulate"),
        ("model", {"params": {"c_b": "abc"}}, "simulate"),
        ("model", {"params": {"c_b": "abc"}}, "homogenize"),
        ("model", {"params": {"c_b": "abc"}}, "study"),
        ("model", {"params": {1: 0.5}}, "study"),
    ])
    def test_wrong_config_type_is_usage_error(self, tmp_path, capsys, section, bad,
                                              command):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        cfg = {"model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01},
               "filter": {"observations": str(obs)},
               "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                         "horizon": 0.1, "n_particles": 8, "dt": 0.02},
               "averager": {"grid": {"lows": [-2.0], "highs": [2.0], "counts": [3]}}}
        cfg[section].update(bad)
        self._usage_error(tmp_path, capsys, cfg, command)

    # A count that is not a whole number, or is a bool, is refused rather
    # than cut down to an int.
    @pytest.mark.parametrize("section, bad, command, output", [
        ("study", {"replications": 2.9}, "study", "report.txt"),
        ("study", {"n_particles": 16.7}, "study", "report.txt"),
        ("averager", {"replicates": 4.5}, "homogenize", "homogenized_table.txt"),
        ("averager.grid", {"counts": [5.7]}, "homogenize", "homogenized_table.txt"),
        ("filter", {"n_particles": 16.9}, "filter", "filter_full.csv"),
        ("filter", {"basis_count": True}, "filter", "filter_full.csv"),
    ])
    def test_non_whole_count_is_usage_error(self, tmp_path, capsys, section, bad,
                                            command, output):
        cfg = self._every_section(tmp_path)
        (cfg["averager"]["grid"] if section == "averager.grid" else cfg[section]).update(bad)
        err = self._usage_error(tmp_path, capsys, cfg, command)
        assert "expected a whole number" in err
        assert not (tmp_path / output).exists()

    # A bool is refused where a real number belongs rather than read as 1.0.
    @pytest.mark.parametrize("section, bad, command, output", [
        ("model", {"horizon": True}, "simulate", "signal.csv"),
        ("model", {"horizon": 2.0, "dt": True}, "simulate", "signal.csv"),
        ("model", {"epsilon": True}, "simulate", "signal.csv"),
        ("model", {"params": {"c_b": True}}, "simulate", "signal.csv"),
        ("filter", {"resample_threshold": True}, "filter", "filter_full.csv"),
        ("filter", {"init_mean": True}, "filter", "filter_full.csv"),
        ("filter", {"init_std": True}, "filter", "filter_full.csv"),
        ("study", {"resample_threshold": True}, "study", "report.txt"),
    ])
    def test_bool_as_real_is_usage_error(self, tmp_path, capsys, section, bad, command,
                                         output):
        cfg = self._every_section(tmp_path)
        cfg[section].update(bad)
        err = self._usage_error(tmp_path, capsys, cfg, command)
        assert "got True" in err
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("command", ["simulate", "homogenize", "filter", "study"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, self._every_section(tmp_path))
        out = tmp_path / "out"
        assert run(["--config", path, "--seed", -1, "--out", out, command]) == 2
        assert capsys.readouterr().err == "usage error: --seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, command", [
        ("model", "epsilom", "simulate"),
        ("averager", "replicate", "homogenize"),
        ("averager.grid", "count", "homogenize"),
        ("filter", "n_particle", "filter"),
        ("study", "resample_treshold", "study"),
    ])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, section, key,
                                               command):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        cfg = {"model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01},
               "filter": {"observations": str(obs), "n_particles": 8},
               "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                         "horizon": 0.1, "n_particles": 8, "dt": 0.02},
               "averager": {"replicates": 2, "sample_horizon": 0.1, "burn_in": 0.1,
                            "grid": {"lows": [-2.0], "highs": [2.0], "counts": [3]}}}
        sec = cfg["averager"]["grid"] if section == "averager.grid" else cfg[section]
        sec[key] = 0.9
        err = self._usage_error(tmp_path, capsys, cfg, command)
        assert err == f"usage error: unknown key {key!r} in config section [{section}]\n"

    def test_unknown_config_section_is_usage_error(self, tmp_path, capsys):
        err = self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "horizon": 0.1, "dt": 0.01},
            "output": {"dir": "out"}}, "simulate")
        assert err == "usage error: unknown config section [output]\n"

    # A model whose slow state overflows within two steps.  Warnings as
    # errors: numpy's overflow warnings would add lines to the message.
    _OVERFLOW = {"family": "ou_benchmark", "params": {"a": 1.0e200}, "x0": [1.0],
                 "horizon": 0.1, "dt": 0.01}

    def _numeric_failure(self, tmp_path, capsys, cfg, command):
        path = write_config(tmp_path, cfg)
        assert run(["--config", path, "--out", tmp_path, command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        return err

    @pytest.mark.filterwarnings("error")
    def test_simulate_blow_up_is_numeric_failure(self, tmp_path, capsys):
        err = self._numeric_failure(tmp_path, capsys, {"model": self._OVERFLOW},
                                    "simulate")
        assert err == "numeric failure: numerical blow-up at step 1\n"
        assert not (tmp_path / "signal.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_table_is_numeric_failure(self, tmp_path, capsys):
        # The averaged drift a x + c_b z overflows at the outer nodes; filter
        # would refuse that table, so homogenize writes none.
        err = self._numeric_failure(tmp_path, capsys, {
            "model": {"family": "ou_benchmark", "params": {"a": 1.0e308}},
            "averager": {"burn_in": 0.1, "sample_horizon": 0.2, "dt": 0.1,
                         "replicates": 2,
                         "grid": {"lows": [-2.0], "highs": [2.0], "counts": [3]}}},
            "homogenize")
        assert err == "numeric failure: block [b] node 0 at x=[-2.0]: non-finite value\n"
        assert not (tmp_path / "homogenized_table.txt").exists()

    @pytest.mark.filterwarnings("error")
    def test_study_blow_up_is_numeric_failure(self, tmp_path, capsys):
        self._numeric_failure(tmp_path, capsys, {
            "model": self._OVERFLOW,
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.1, "n_particles": 8, "dt": 0.02}}, "study")
        assert not (tmp_path / "report.txt").exists()
        assert_no_child_left()

    @pytest.mark.filterwarnings("error")
    def test_filter_blow_up_is_numeric_failure(self, tmp_path, capsys):
        # A read-out that ignores the state, so the particles overflow before
        # their weights can collapse.
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n" + "".join(f"{0.01 * i!r},0.1\n" for i in range(1, 11)))
        model = dict(self._OVERFLOW, params={"a": 1.0e200, "h_x": 0.0, "c_h": 0.0})
        err = self._numeric_failure(tmp_path, capsys, {
            "model": model,
            "filter": {"mode": "full", "observations": str(obs), "n_particles": 8}},
            "filter")
        assert err.startswith("numeric failure: numerical blow-up at step ")
        assert not (tmp_path / "filter_full.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_forked_filter_blow_up_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # The table's drift grows like 1e300 x, so the reduced filter, which
        # runs in the forked worker, overflows at its second step while the
        # full filter runs on.  Its CSV is written first, as when the two
        # filters ran one after the other.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        obs, table = self._table(tmp_path, dict(self._BLOCKS, **{"[b]": ("-1e300", "1e300")}))
        err = self._numeric_failure(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "filter": {"mode": "both", "observations": str(obs), "table": str(table),
                       "n_particles": 8}}, "filter")
        assert err == "numeric failure: numerical blow-up at step 1\n"
        assert (tmp_path / "filter_full.csv").exists()
        assert not (tmp_path / "filter_homogenized.csv").exists()
        assert_no_child_left()

    def test_killed_worker_is_io_error(self, tmp_path, capsys, monkeypatch):
        from homfilt import cli
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:  # never kill the test process itself
                raise AssertionError("the reduced filter ran in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "run_homogenized_filter", die)
        obs, table = self._table(tmp_path, self._BLOCKS)
        path = write_config(tmp_path, {
            "model": {"family": "ou_benchmark"},
            "filter": {"mode": "both", "observations": str(obs), "table": str(table),
                       "n_particles": 8}})
        assert run(["--config", path, "--out", tmp_path, "filter"]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"io error: worker process \d+ was killed by signal 9\n", err)
        assert_no_child_left()

    def _io_error(self, tmp_path, capsys, filter_sec, bad_path):
        path = write_config(tmp_path, {"model": {"family": "ou_benchmark"},
                                       "filter": filter_sec})
        assert run(["--config", path, "--out", tmp_path, "filter"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"io error: {bad_path}: ") and err.count("\n") == 1
        return err

    def test_non_numeric_observations_is_io_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,oops\n")
        self._io_error(tmp_path, capsys, {"observations": str(obs)}, obs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_observations_is_io_error(self, tmp_path, capsys, value):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"time,dy0\n0.01,0.3\n0.02,{value}\n")
        err = self._io_error(tmp_path, capsys, {"observations": str(obs)}, obs)
        assert err.endswith(": non-finite value in data row 2\n")
        assert not (tmp_path / "filter_full.csv").exists()

    @pytest.mark.parametrize("rows", ["0.0,0.3\n0.0,-0.1\n", "-0.01,0.3\n-0.02,-0.1\n",
                                      "0.02,0.3\n0.01,-0.1\n"])
    def test_non_increasing_observation_times_is_io_error(self, tmp_path, capsys, rows):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n" + rows)
        self._io_error(tmp_path, capsys, {"observations": str(obs)}, obs)
        assert not (tmp_path / "filter_full.csv").exists()

    def test_non_uniform_observation_times_is_io_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.03,-0.1\n")
        self._io_error(tmp_path, capsys, {"observations": str(obs), "n_particles": 8},
                       obs)

    # Per block: the rows of a 2-node table of a 1-D slow state, and one row
    # of a table of a 2-D slow state.
    _BLOCKS = {"[b]": ("0.0", "0.0"), "[a]": ("1.0", "1.0"), "[h]": ("0.0", "0.0"),
               "[b_se]": ("0.0", "0.0"), "[a_se]": ("0.0", "0.0"), "[h_se]": ("0.0", "0.0")}
    _ROWS_2D = {"[b]": "0.0 0.0", "[a]": "1.0 0.0 0.0 1.0", "[h]": "0.0",
                "[b_se]": "0.0 0.0", "[a_se]": "0.0 0.0 0.0 0.0", "[h_se]": "0.0"}

    @staticmethod
    def _table(tmp_path, blocks, dim_slow=1, axes=("-1.0 1.0 2",)):
        """A table file with the given header and blocks, and observations
        to filter with it."""
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        table = tmp_path / "table.txt"
        table.write_text("\n".join([
            "# homfilt tabulated homogenized model v1", f"dim_slow={dim_slow}",
            "dim_obs=1", "interpolation=multilinear", "root_seed=0", "burn_in=1.0",
            "sample_horizon=2.0", "dt=0.01", "replicates=2"]
            + [f"axis={axis}" for axis in axes]
            + [line for key, rows in blocks.items() for line in (key,) + rows]))
        return obs, table

    def test_malformed_table_is_io_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0\n0.01,0.3\n0.02,-0.1\n")
        table = tmp_path / "table.txt"
        table.write_text("# homfilt tabulated homogenized model v1\ndim_slow=one\n")
        self._io_error(tmp_path, capsys, {"mode": "homogenized",
                                          "observations": str(obs),
                                          "table": str(table)}, table)

    def test_not_psd_table_is_io_error(self, tmp_path, capsys):
        obs, table = self._table(tmp_path, {**self._BLOCKS, "[a]": ("1.0", "-1.0")})
        err = self._io_error(tmp_path, capsys, {"mode": "homogenized",
                                                "observations": str(obs),
                                                "table": str(table)}, table)
        assert ": not a tabulated model file: node 1 at x=[1.0]: eigenvalue -1 " in err

    @pytest.mark.parametrize("block, bad", [("[a]", ("1.0", "nan")),
                                            ("[b]", ("0.0",))])
    def test_malformed_table_block_is_io_error(self, tmp_path, capsys, block, bad):
        # A non-finite value, or a block that is one row short of the grid.
        obs, table = self._table(tmp_path, {**self._BLOCKS, block: bad})
        err = self._io_error(tmp_path, capsys, {"mode": "homogenized",
                                                "observations": str(obs),
                                                "table": str(table)}, table)
        assert {"[a]": "block [a] node 1 at x=[1.0]: non-finite value",
                "[b]": "block [b] has 1 rows, not one for each node 0..1"}[block] in err

    def test_table_whose_dim_slow_is_not_its_axis_count_is_io_error(self, tmp_path,
                                                                    capsys):
        # Rows that fit dim_slow=2, on a grid of one axis.
        blocks = {key: (row,) * 2 for key, row in self._ROWS_2D.items()}
        obs, table = self._table(tmp_path, blocks, dim_slow=2)
        err = self._io_error(tmp_path, capsys, {"mode": "homogenized",
                                                "observations": str(obs),
                                                "table": str(table)}, table)
        assert err.endswith(": dim_slow=2, but 1 axis lines\n")
        assert not (tmp_path / "filter_homogenized.csv").exists()

    def test_observations_of_another_dimension_is_io_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,dy0,dy1\n0.01,0.3,0.1\n0.02,-0.1,0.2\n")
        err = self._io_error(tmp_path, capsys, {"observations": str(obs),
                                                "n_particles": 8}, obs)
        assert err.endswith(": observations of dimension 2, "
                            "but the full model's read-out has 1\n")
        assert not (tmp_path / "filter_full.csv").exists()

    def test_table_of_another_dimension_is_io_error(self, tmp_path, capsys):
        # A 2 x 2 grid of a 2-D slow state, read against the 1-D ou_benchmark.
        blocks = {key: (row,) * 4 for key, row in self._ROWS_2D.items()}
        obs, table = self._table(tmp_path, blocks, 2, ("-1.0 1.0 2",) * 2)
        err = self._io_error(tmp_path, capsys, {"mode": "both", "observations": str(obs),
                                                "n_particles": 8, "table": str(table)},
                             table)
        assert err.endswith(": the table's slow state has dimension 2, the model's 1\n")
        assert not (tmp_path / "filter_full.csv").exists()

    @pytest.mark.parametrize("bad", [{"dt": 0.0}, {"dt": -0.02},
                                     {"bootstrap_samples": -1},
                                     {"bootstrap_samples": 0}, {"dt": 0.03}])
    def test_bad_study_grid_or_bootstrap_is_usage_error(self, tmp_path, capsys, bad):
        self._usage_error(tmp_path, capsys, {
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.1, "n_particles": 8, "dt": 0.02, **bad}}, "study")
        assert not (tmp_path / "report.txt").exists()


def test_readme_key_table_names_the_config_keys():
    # README's table of config keys, section by section, against the keys
    # the CLI accepts, most of which it takes from the config classes' fields.
    from homfilt import cli
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("| Section | Key | Default | Read by |")[1]
    documented, section = {}, None
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        first, keys = line.split("|")[1:3]
        section = first.strip().strip("`") or section
        documented.setdefault(section, set()).update(re.findall(r"`(\w+)`", keys))
    assert documented == cli._KEYS


def _exit_code(code, cwd=None):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          timeout=120).returncode


def _exits_without_scipy(code, cwd=None):
    return _exit_code(code + "\nsys.exit('scipy' in sys.modules)", cwd) == 0


def test_readme_example_runs(tmp_path):
    # The quick example calls the library API, so running it catches drift
    # between the API and its documentation.
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    (code,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert _exit_code(code, cwd=tmp_path) == 0


def test_cli_import_leaves_scipy_unloaded():
    # Importing scipy costs more start-up time and memory than the rest of
    # homfilt, and no subcommand needs it.
    assert _exits_without_scipy("import sys, homfilt.cli")


def test_cli_import_leaves_thread_pool_unloaded():
    # Workers are forked by hand, so no subcommand pays for importing a pool
    # package at start-up.
    assert _exit_code("import sys, homfilt.cli\n"
                      "sys.exit(any(name in sys.modules for name in "
                      "('concurrent.futures', 'multiprocessing')))") == 0


def test_tabulated_model_leaves_scipy_unloaded(tmp_path):
    write_config(tmp_path, {
        "model": {"family": "sinusoidal", "epsilon": 0.1, "horizon": 0.2,
                  "dt": 0.01},
        "averager": {"burn_in": 0.5, "sample_horizon": 2.0, "dt": 1e-2,
                     "replicates": 4,
                     "grid": {"lows": [-2.0], "highs": [2.0], "counts": [5]}},
        "filter": {"mode": "both", "n_particles": 64,
                   "observations": "observations.csv",
                   "table": "homogenized_table.txt"}})
    code = ("import sys\nfrom homfilt.cli import main\n"
            "for command in ('simulate', 'homogenize', 'filter'):\n"
            "    assert main(['--config', 'config.yaml', command]) == 0")
    assert _exits_without_scipy(code, cwd=tmp_path)


def _perfbench_workloads():
    # Read-only: the module's functions write only where they are told to.
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_configs_pass_the_key_check(tmp_path):
    # perfbench writes its configs with its own code; a key the CLI rejects
    # would fail every benchmark call.
    from homfilt import cli
    workloads = _perfbench_workloads()
    for write in (workloads._sweep_config, workloads._track_config):
        cfg = cli._load_config(write(str(tmp_path)))
        for name in cfg:
            cli._section(cfg, name)
        if "averager" in cfg:
            cli._section(cfg["averager"], "averager.grid", "grid")


def test_benchmark_output_checks_pass(tmp_path):
    # Each workload's set-up and timed call on its own config with 64
    # particles, checked by the benchmark's own code: a CLI output change
    # that the benchmark would count as failed operations fails here first.
    from homfilt.errors import NonErgodicWarning
    for name, wl in _perfbench_workloads().WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        config = wl.write_config(str(work))
        doc = yaml.safe_load(pathlib.Path(config).read_text())
        for section in ("study", "filter"):
            if section in doc:
                doc[section]["n_particles"] = 64
        pathlib.Path(config).write_text(yaml.safe_dump(doc))
        out = work / "call0"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for argv in wl.setup_argvs(str(work), config, 0):
                assert main(argv) == 0
            out.mkdir()
            assert main(wl.op_argv(config, "0", str(out))) == 0
        warned = sum(issubclass(w.category, NonErgodicWarning) for w in caught)
        check = wl.check_call(str(out), str(work), warned)
        assert check.failed == 0, (name, check.notes)
        if name == "track":
            ok, detail = wl.check_run(str(work), [str(out)])
            assert ok, detail
