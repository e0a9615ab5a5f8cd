"""The batched (replication x particle) filters against fixed outputs and
against their own one-replication runs."""

import hashlib
import pathlib
import re

import numpy as np
import pytest
import yaml

from homfilt import catalog
from homfilt.cli import main
from homfilt.errors import BlowUpError
from homfilt.filtering import (gaussian_prior, run_full_filter,
                               run_homogenized_filter)
from homfilt.measures import default_basis
from homfilt.models import ObservationPath, simulate_multiscale, simulate_observations
from homfilt.rng import StreamBatch
from homfilt.study import StudyConfig, run_replication, run_study


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the outputs of the per-replication implementation that the
# batched path replaced, at the same configs and seeds.  filter_full.csv is
# that file without its surplus z-mean field, which sat under the "ess"
# header.  report.txt is that file plus the line "bootstrap_samples=200" in
# its config block.
STUDY_SHA256 = {
    "report.txt": "a89d9151c413b695c92f1c9d0124f62fb8926b600b79d79af758f58128dc0cba",
    "report.csv": "d2007edf0b6a54cff0bb5165281207da358b51277caf50d27f484c66e06d7463",
}
FILTER_SHA256 = {
    "filter_full.csv": "12d3b4c6f509d69aed85d768128fae33faae8deebc423415faed08e29c2c933f",
    "filter_homogenized.csv":
        "37b5f216a3e759b26e351aac0a62868f849e7b1380e5f94d601fd7920d384d71",
    "filter_distance.txt":
        "4ef0fdabb029b750c45ff90bb80636c0a67f2e02c3bdbfbdaa7b43a943135157",
}
# The simulate call that feeds the filter outputs above; pins the unbatched
# path of simulate_observations.
SIMULATE_SHA256 = {
    "signal.csv": "1c9042df654b61f55f6c3e9cef8dffd750de19e640cc8d27399efd60b0aadc38",
    "observations.csv":
        "1078e3a5bcd38fcfd39695fc0dab12aef468678aa02fc4f4fb30354f4516a030",
}
# A small grid-wide averaging run; pins the per-node streams.
TABLE_SHA256 = "ec50644736bab0a0b27068a37b36152f7757732aaa8a9e2f28f3cc475f2e5a60"


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
        assert main(["--config", str(cfg), "--seed", "0",
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
        simulated = {f: sha256(tmp_path / "sim" / f) for f in SIMULATE_SHA256}
        assert simulated == SIMULATE_SHA256
        assert main(["--config", "./filter.yaml", "--seed", "5", "--out", "./filt",
                     "filter"]) == 0
        got = {f: sha256(tmp_path / "filt" / f) for f in FILTER_SHA256}
        assert got == FILTER_SHA256

    def test_homogenized_table(self, tmp_path):
        cfg = tmp_path / "homogenize.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": {"family": "sinusoidal", "epsilon": 0.1},
            "averager": {"burn_in": 0.5, "sample_horizon": 2.0, "dt": 0.01,
                         "replicates": 4,
                         "grid": {"lows": [-1.0], "highs": [1.0], "counts": [3]}}}))
        assert main(["--config", str(cfg), "--seed", "3", "--out", str(tmp_path),
                     "homogenize"]) == 0
        assert sha256(tmp_path / "homogenized_table.txt") == TABLE_SHA256


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
    xs, zs = simulate_multiscale(model, np.array([[0.2]]), np.array([[0.2]]), 0.3, 0.02,
                                 rng=np.random.default_rng(1))
    obs = simulate_observations(xs, zs, model, 0.02, rng=np.random.default_rng(2))
    run, target, n = {"full": (run_full_filter, model, 1),
                      "homogenized": (run_homogenized_filter, hm, 0)}[kind]
    # Stream 3's row starts with a NaN particle; stream 4's is clean.
    pair_rngs = [np.random.default_rng(3), np.random.default_rng(4)]
    states = gaussian_prior(StreamBatch(pair_rngs), (2, 128), 0.0, 0.5, 1, n)
    states[0, 5] = np.nan
    pair = ObservationPath(obs.times, np.repeat(obs.increments, 2, axis=1))
    batch = run(target, pair, states, 0.5, pair_rngs)
    assert isinstance(batch.errors[0], BlowUpError)
    assert batch.errors[1] is None
    lone_rngs = [np.random.default_rng(4)]
    lone = run(target, obs, gaussian_prior(lone_rngs[0], (1, 128), 0.0, 0.5, 1, n), 0.5,
               lone_rngs)
    assert lone.errors == [None]
    assert np.array_equal(batch.states[1], lone.states[0])
    assert np.array_equal(batch.weights[1], lone.weights[0])
    for record in ("means", "ess", "resampled"):
        assert np.array_equal(getattr(batch, record)[:, 1], getattr(lone, record)[:, 0])
    poisoned = [np.random.default_rng(3)]
    states = gaussian_prior(poisoned[0], (1, 128), 0.0, 0.5, 1, n)
    states[0, 5] = np.nan
    lone_poisoned = run(target, obs, states, 0.5, poisoned)
    assert isinstance(lone_poisoned.errors[0], BlowUpError)


def test_no_unseeded_generator_in_the_package():
    # Every stream derives from a root seed; an unseeded default_rng() would
    # make a run irreproducible.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt"
    unseeded = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
                for no, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"default_rng\(\s*\)", line)]
    assert unseeded == []
