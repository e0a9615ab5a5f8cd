"""The batched (replication x particle) filter path against fixed outputs and
against its own one-replication runs."""

import hashlib

import numpy as np
import pytest
import yaml

from homfilt import catalog
from homfilt.cli import main
from homfilt.errors import BlowUpError
from homfilt.filtering import (FilterConfig, run_full_filter,
                               run_full_filter_batch, run_homogenized_filter,
                               run_homogenized_filter_batch)
from homfilt.measures import default_basis
from homfilt.models import simulate_multiscale, simulate_observations
from homfilt.study import StudyConfig, run_replication, run_study


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the outputs of the per-replication implementation that the
# batched path replaced, at the same configs and seeds.
STUDY_SHA256 = {
    "report.txt": "a183685b96c922034e93afdce68645fde62e417340d58e9e68a911d2021adb6b",
    "report.csv": "d2007edf0b6a54cff0bb5165281207da358b51277caf50d27f484c66e06d7463",
}
FILTER_SHA256 = {
    "filter_full.csv": "f7ecc65e732e3499e086412d502c2b237fc3da77bff0c10840df614d69948d86",
    "filter_homogenized.csv":
        "37b5f216a3e759b26e351aac0a62868f849e7b1380e5f94d601fd7920d384d71",
    "filter_distance.txt":
        "4ef0fdabb029b750c45ff90bb80636c0a67f2e02c3bdbfbdaa7b43a943135157",
}


class TestPinnedOutputs:
    def test_study_reports(self, tmp_path):
        # The criterion-8 study of the acceptance suite.
        cfg = tmp_path / "study.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": {"family": "ou_benchmark",
                      "params": {"c_b": 0.5, "c_h": 2.0, "sigma0": 0.5}},
            "study": {"epsilons": [0.5, 0.25, 0.125, 0.0625], "replications": 5,
                      "horizon": 1.0, "n_particles": 256, "dt": 0.02,
                      "bootstrap_samples": 200}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--seed", "0", "--threads", "2",
                     "--out", str(out), "study"]) == 0
        assert {f: sha256(out / f) for f in STUDY_SHA256} == STUDY_SHA256

    def test_filter_outputs(self, tmp_path, monkeypatch):
        # The manifest records the config path, so it is fixed and relative.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "filter.yaml").write_text(yaml.safe_dump({
            "model": {"family": "sinusoidal", "epsilon": 0.1, "horizon": 0.5,
                      "dt": 0.01},
            "filter": {"mode": "both", "n_particles": 256,
                       "observations": "./sim/observations.csv"}}))
        assert main(["--config", "./filter.yaml", "--seed", "5", "--out", "./sim",
                     "simulate"]) == 0
        assert main(["--config", "./filter.yaml", "--seed", "5", "--out", "./filt",
                     "filter"]) == 0
        got = {f: sha256(tmp_path / "filt" / f) for f in FILTER_SHA256}
        assert got == FILTER_SHA256


def test_study_distances_equal_lone_replications():
    cfg = StudyConfig(epsilons=(0.5, 0.25, 0.125), replications=4, horizon=0.4,
                      n_particles=64, dt=0.02, root_seed=11, bootstrap_samples=20)
    report = run_study(cfg)
    hm = catalog.make_analytic_homogenized(cfg.family)
    basis = default_basis(cfg.basis_count, 1)
    assert report.failures == (0, 0, 0)
    for ei, eps in enumerate(cfg.epsilons):
        model = catalog.make_model(cfg.family, epsilon=eps)
        lone = tuple(run_replication(model, hm, cfg, basis, ei, rep)
                     for rep in range(cfg.replications))
        assert report.distances[ei] == lone


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["full", "homogenized"])
def test_failed_replication_leaves_the_other_untouched(kind):
    model = catalog.make_model("ou_benchmark", epsilon=0.25)
    hm = catalog.make_analytic_homogenized("ou_benchmark")
    truth = simulate_multiscale(model, np.array([0.2]), np.array([0.2]), 0.3, 0.02,
                                rng=np.random.default_rng(1))
    obs = simulate_observations(truth, model, rng=np.random.default_rng(2))
    cfg = FilterConfig(n_particles=128, dt=0.02)
    poisoned = [np.random.default_rng(3)]   # init puts a NaN into this stream's run

    def init(rng, count):
        x = 0.5 * rng.standard_normal((count, 1))
        if rng is poisoned[0]:
            x[5, 0] = np.nan
        return (x, x + rng.standard_normal((count, 1))) if kind == "full" else x

    batch_fn, lone_fn, target = {
        "full": (run_full_filter_batch, run_full_filter, model),
        "homogenized": (run_homogenized_filter_batch, run_homogenized_filter, hm),
    }[kind]
    batch = batch_fn(target, [obs, obs], init, cfg,
                     [poisoned[0], np.random.default_rng(4)])
    assert isinstance(batch.errors[0], BlowUpError)
    assert batch.errors[1] is None
    lone = lone_fn(target, obs, init, cfg, np.random.default_rng(4),
                   keep_history=False)[-1]
    assert np.array_equal(batch.ensemble(1).states, lone.states)
    assert np.array_equal(batch.ensemble(1).weights, lone.weights)
    poisoned[0] = np.random.default_rng(3)
    with pytest.raises(BlowUpError):
        lone_fn(target, obs, init, cfg, poisoned[0])
