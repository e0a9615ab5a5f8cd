"""The batched (replication x particle) filters against fixed outputs and
against their own one-replication runs."""

import hashlib
import pathlib
import re

import numpy as np
import pytest
import yaml

from homfilt import catalog
from homfilt.averaging import StationaryAverager, TabulationGrid, build_homogenized
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


# sha256 of the outputs at these configs and seeds with the exact-draw
# scheme: every catalog family's OU fast block takes one exact draw of its
# S Euler substeps per slow step, in the truth and in the full filter, and
# of its one substep per averager step in the tables (models.fast_step),
# report.txt's slope interval resamples with one index matrix per epsilon and
# refits each sample with the report's weighted slope fit, and each
# observation increment scales by the grid step dt that the filters use.
STUDY_SHA256 = {
    "report.txt": "c062003e393a28cee59eba043d7d9c385c4966362bee5b58ad5e0ba9c481cb2c",
    "report.csv": "789029102687f65e5c3844b0fb7dcb4b4acfdc6f24990fb69c3ce73ec443f6ca",
}
FILTER_SHA256 = {
    "filter_full.csv": "e67fe4bc5aa3d0cb099fec2d9d23ccabd450783ed66762a1cfb55bf185b28d6d",
    "filter_homogenized.csv":
        "d467b21b437c37c9722dd2738bba1d7ccb8692918e36372e0c8cb094bbca9202",
    "filter_distance.txt":
        "bb237c8e0c4226ab76297041c2a9cd4a10ef851c56a2afdbacc42d3406835cc6",
}
# The simulate call that feeds the filter outputs above; pins the unbatched
# path of simulate_observations.
SIMULATE_SHA256 = {
    "signal.csv": "545c11f357b2a14410b5e7b992ac2ac0f2201082643e4afdc64bc449dcbc64a4",
    "observations.csv":
        "1589c2e2f6f9241a8de8ca43fb1141714b59c6ed21e03fbeadf099c9b5146b1a",
}
# Simulate, homogenize on a five-node grid and filter with that table, at a
# threshold that resamples mid-path; pins the tabulated reduced filter.
TABULATED_FILTER_SHA256 = {
    "filter_full.csv": "695bd7e81cf14f6c12ca13903841e321ceeb0774835b9d4215c1234c145b1dd6",
    "filter_homogenized.csv":
        "cf49c5301d447bb24cdb62fb5644f73c5042b385a0d0907139ffd6716094b324",
    "filter_distance.txt":
        "72fdc79012682077395276d0306c95670d53491ed4b941039372f5f6e0e09741",
}
# A small grid-wide averaging run; pins the per-node streams.
TABLE_SHA256 = "fb542c45d6c580614ecefee41eb6c564872b495c1c3e78f77563d0342867f24b"


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

    def test_tabulated_filter_outputs(self, tmp_path, monkeypatch):
        # The reduced filter on a table: simulate, homogenize, then filter.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "filter.yaml").write_text(yaml.safe_dump({
            "model": {"family": "sinusoidal", "epsilon": 0.1, "horizon": 0.5,
                      "dt": 0.01},
            "averager": {"burn_in": 0.5, "sample_horizon": 2.0, "dt": 0.01,
                         "replicates": 4,
                         "grid": {"lows": [-2.0], "highs": [2.0], "counts": [5]}},
            "filter": {"mode": "both", "n_particles": 256, "resample_threshold": 0.95,
                       "observations": "./sim/observations.csv",
                       "table": "./sim/homogenized_table.txt"}}))
        for command in ("simulate", "homogenize", "filter"):
            out = "./filt" if command == "filter" else "./sim"
            assert main(["--config", "./filter.yaml", "--seed", "5", "--out", out,
                         command]) == 0
        got = {f: sha256(tmp_path / "filt" / f) for f in TABULATED_FILTER_SHA256}
        assert got == TABULATED_FILTER_SHA256
        # Some step resamples, so the particles' carried values are gathered.
        lines = (tmp_path / "filt" / "filter_homogenized.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert "1" in [row[rows[0].index("resampled")] for row in rows[1:]]

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
@pytest.mark.parametrize("kind", ["full", "homogenized", "tabulated"])
def test_failed_replication_leaves_the_other_untouched(kind):
    model = catalog.make_model("ou_benchmark", epsilon=0.25)
    hm = catalog.make_analytic_homogenized("ou_benchmark")
    if kind == "tabulated":
        # The NaN particle's carried coefficients are NaN too.
        hm = build_homogenized(model, TabulationGrid((-2.0,), (2.0,), (9,)),
                               StationaryAverager(0.5, 2.0, 0.01, 4), root_seed=0)
    xs, zs = simulate_multiscale(model, np.array([[0.2]]), np.array([[0.2]]), 0.3, 0.02,
                                 rng=np.random.default_rng(1))
    obs = simulate_observations(xs, zs, model, 0.02, rng=np.random.default_rng(2))
    run, target, n = ((run_full_filter, model, 1) if kind == "full"
                      else (run_homogenized_filter, hm, 0))
    # Stream 3's row starts with a NaN particle; stream 4's is clean and,
    # at this threshold, resamples.
    threshold = 0.95
    pair_rngs = [np.random.default_rng(3), np.random.default_rng(4)]
    states = gaussian_prior(StreamBatch(pair_rngs), (2, 128), 0.0, 0.5, 1, n)
    states[0, 5] = np.nan
    pair = ObservationPath(obs.times, np.repeat(obs.increments, 2, axis=1))
    batch = run(target, pair, states, threshold, pair_rngs)
    assert isinstance(batch.errors[0], BlowUpError)
    assert batch.errors[1] is None
    assert batch.resampled[:, 1].any()
    lone_rngs = [np.random.default_rng(4)]
    lone = run(target, obs, gaussian_prior(lone_rngs[0], (1, 128), 0.0, 0.5, 1, n),
               threshold, lone_rngs)
    assert lone.errors == [None]
    assert np.array_equal(batch.states[1], lone.states[0])
    assert np.array_equal(batch.weights[1], lone.weights[0])
    for record in ("means", "ess", "resampled"):
        assert np.array_equal(getattr(batch, record)[:, 1], getattr(lone, record)[:, 0])
    poisoned = [np.random.default_rng(3)]
    states = gaussian_prior(poisoned[0], (1, 128), 0.0, 0.5, 1, n)
    states[0, 5] = np.nan
    lone_poisoned = run(target, obs, states, threshold, poisoned)
    assert isinstance(lone_poisoned.errors[0], BlowUpError)


def test_no_unseeded_generator_in_the_package():
    # Every stream derives from a root seed; an unseeded default_rng() would
    # make a run irreproducible.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt"
    unseeded = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
                for no, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"default_rng\(\s*\)", line)]
    assert unseeded == []


def test_only_filtering_reads_the_cpu_count():
    # run_forked alone splits work over the usable CPUs; a second reader would
    # split it again, as the study's row chunks once did.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt"
    readers = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
               if path.name != "filtering.py"
               for no, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\b(sched_getaffinity|cpu_count)\b", line)]
    assert readers == []


def test_only_filtering_bounds_the_particles_per_block():
    # filtering.row_blocks alone cuts rows into blocks of CHUNK_PARTICLES
    # particles; a second bound or block rule elsewhere would drift from it.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt"
    bounds = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
              if path.name != "filtering.py"
              for no, line in enumerate(path.read_text().splitlines(), 1)
              if re.search(r"\bCHUNK_PARTICLES\b|//\s*[\w.]*n_particles\b", line)]
    assert bounds == []


def test_only_models_reads_the_fast_block():
    # models.fast_step alone moves z with x frozen; a module that read the fast
    # coefficients itself would be a second way to step the fast block.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt"
    readers = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
               if path.name != "models.py"
               for no, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\.(drift_fast|diff_fast|fast_ou)\b", line)]
    assert readers == []
