import os
from dataclasses import fields

import numpy as np
import pytest
import yaml

from homfilt import catalog, filtering, schema, study
from homfilt.cli import main
from homfilt.errors import BlowUpError, HomfiltError, StudyAbortError
from homfilt.filtering import run_forked, run_full_filter, run_homogenized_filter
from homfilt.measures import EmpiricalMeasure, default_basis, metric_d
from homfilt.models import ObservationPath, blow_up_steps
from homfilt.study import (StudyConfig, _bootstrap_slope_ci, fit_loglog_slope,
                           replication_paths, report_csv, report_text,
                           run_replication, run_replications, run_study, summarize)

from conftest import linear_gaussian


def small_config(**overrides):
    kw = dict(epsilons=(0.5, 0.25, 0.125), replications=4, horizon=0.5,
              n_particles=64, dt=0.02, root_seed=42, bootstrap_samples=50)
    kw.update(overrides)
    return StudyConfig(**kw)


class TestSlopeFit:
    def test_exact_sqrt_power_law(self):
        eps = (0.5, 0.25, 0.125, 0.0625)
        slope, intercept = fit_loglog_slope(eps, [0.3 * np.sqrt(e) for e in eps])
        assert abs(slope - 0.5) < 1e-12
        assert abs(intercept - np.log(0.3)) < 1e-12

    def test_constant_distances(self):
        eps = (0.5, 0.25, 0.125)
        slope, _ = fit_loglog_slope(eps, [0.2, 0.2, 0.2])
        assert abs(slope) < 1e-12

    def test_general_exponent(self):
        eps = (0.9, 0.5, 0.21, 0.07)
        slope, _ = fit_loglog_slope(eps, [1.7 * e ** 0.73 for e in eps])
        assert abs(slope - 0.73) < 1e-12

    def test_inverse_variance_weighting_used(self):
        # Corrupt one point but give it near-zero weight via a huge SE; the
        # fit should stay close to the clean slope.
        eps = np.array([0.5, 0.25, 0.125, 0.0625])
        means = 0.3 * np.sqrt(eps)
        means[-1] *= 3.0
        ses = np.array([1e-4, 1e-4, 1e-4, 10.0]) * means
        slope, _ = fit_loglog_slope(eps, means, ses)
        assert abs(slope - 0.5) < 1e-3

    def test_stack_of_rows_gives_each_rows_own_fit(self):
        eps = (0.5, 0.25, 0.125, 0.0625)
        rng = np.random.default_rng(3)
        means = rng.uniform(0.1, 1.0, (50, 4))
        ses = rng.uniform(0.01, 0.1, (50, 4))
        ses[::7, 2] = 0.0  # these rows fall back to ordinary least squares
        slopes, intercepts = fit_loglog_slope(eps, means, ses)
        rows = [fit_loglog_slope(eps, m, s) for m, s in zip(means, ses)]
        assert all(type(v) is float for row in rows for v in row)
        assert np.array([r[0] for r in rows]).tobytes() == slopes.tobytes()
        assert np.array([r[1] for r in rows]).tobytes() == intercepts.tobytes()


def sweep(cfg, distance):
    """Per epsilon of ``cfg``, ``distance(eps, ei, ri)`` for each replication;
    an entry is the HomfiltError that ``distance`` raised, if it raised one."""
    def entry(eps, ei, ri):
        try:
            return distance(eps, ei, ri)
        except HomfiltError as exc:
            return exc
    return [[entry(eps, ei, ri) for ri in range(cfg.replications)]
            for ei, eps in enumerate(cfg.epsilons)]


class TestRunStudySynthetic:
    def test_sqrt_injector_recovers_half(self):
        cfg = small_config()
        report = summarize(cfg, sweep(cfg, lambda eps, ei, ri: 0.3 * np.sqrt(eps)))
        assert abs(report.slope - 0.5) < 1e-12

    def test_constant_injector_gives_zero_slope(self):
        cfg = small_config()
        report = summarize(cfg, sweep(cfg, lambda eps, ei, ri: 0.2))
        assert abs(report.slope) < 1e-12

    def test_abort_on_failures(self):
        def flaky(eps, ei, ri):
            if ri % 2 == 0:  # 50% failure rate
                raise HomfiltError("forced failure")
            return 0.1

        cfg = small_config()
        with pytest.raises(StudyAbortError):
            summarize(cfg, sweep(cfg, flaky))

    def test_tolerated_failures_are_counted(self):
        def flaky(eps, ei, ri):
            if ei == 0 and ri == 0:
                raise HomfiltError("forced failure")
            return 0.1 * np.sqrt(eps) + 0.01 * ri

        cfg = small_config(replications=8)
        report = summarize(cfg, sweep(cfg, flaky))
        assert report.failures == (1, 0, 0)
        assert tuple(map(len, report.distances)) == (7, 8, 8)
        table = report_text(report).splitlines()[-3:]
        assert [line.split()[3:] for line in table] == [["7", "1"], ["8", "0"], ["8", "0"]]

    def test_report_csv_keeps_replication_index_after_failure(self):
        def flaky(eps, ei, ri):
            if ri == 1:
                raise HomfiltError("forced failure")
            return eps + 0.01 * ri

        cfg = small_config(replications=6)
        report = summarize(cfg, sweep(cfg, flaky))
        assert report.failures == (1, 1, 1)
        rows = report_csv(report).splitlines()
        assert rows[1:3] == [f"0.5,0,{0.5!r}", f"0.5,2,{0.5 + 0.02!r}"]
        assert report.replications[0] == (0, 2, 3, 4, 5)

    def test_report_serialization_deterministic(self):
        cfg = small_config()
        fn = lambda eps, ei, ri: 0.1 * np.sqrt(eps) + 0.003 * ri
        r1 = summarize(cfg, sweep(cfg, fn))
        r2 = summarize(cfg, sweep(cfg, fn))
        assert report_text(r1) == report_text(r2)
        assert report_csv(r1) == report_csv(r2)
        assert "epsilon,replication,distance" in report_csv(r1)

    def test_report_records_every_setting(self):
        # One config line per StudyConfig field, in field order, with one
        # param_<key> line per family parameter in place of family_params;
        # the lines give back the config.
        cfg = small_config(family_params={"sigma0": 0.5, "c_b": 0.25})
        text = report_text(summarize(cfg, sweep(cfg, lambda eps, ei, ri: 0.1 * eps)))
        block = text.split("\nbasis_version=")[0].splitlines()[1:]
        values = dict(line.split("=", 1) for line in block)
        scalars = [f for f in fields(StudyConfig) if f.type is not dict]
        assert list(values) == [f.name for f in scalars] + ["param_c_b", "param_sigma0"]
        rebuilt = {f.name: schema.parse(f.type, values[f.name].split()
                                        if schema.item_kind(f.type) else values[f.name])
                   for f in scalars}
        params = {k.removeprefix("param_"): float(v) for k, v in values.items()
                  if k.startswith("param_")}
        assert StudyConfig(**rebuilt, family_params=params) == cfg

    def test_abort_reads_no_later_epsilon(self):
        # run_study hands summarize a generator that runs each epsilon's
        # replications when it is read; an aborting epsilon ends the sweep.
        cfg = small_config(epsilons=(0.5, 0.25, 0.125, 0.0625))
        read = []

        def results():
            for ei in range(len(cfg.epsilons)):
                read.append(ei)
                yield [HomfiltError("forced failure")] * 4 if ei == 1 else [0.1] * 4

        with pytest.raises(StudyAbortError, match="epsilon=0.25"):
            summarize(cfg, results())
        assert read == [0, 1]

    @pytest.mark.parametrize("entries", [[[0.1] * 4, [0.1] * 3, [0.1] * 4],
                                         [[0.1] * 4, [0.1] * 5, [0.1] * 4]])
    def test_rejects_wrong_replication_count(self, entries):
        with pytest.raises(ValueError, match="epsilon=0.25"):
            summarize(small_config(), entries)

    @pytest.mark.parametrize("n_eps", [2, 4])
    def test_rejects_wrong_epsilon_count(self, n_eps):
        with pytest.raises(ValueError):
            summarize(small_config(), [[0.1] * 4] * n_eps)


class TestRunReplication:
    def test_deterministic(self):
        cfg = small_config()
        model = catalog.make_model("ou_benchmark", epsilon=0.25)
        hm = catalog.make_analytic_homogenized("ou_benchmark")
        basis = default_basis(cfg.basis_count, 1)
        d1 = run_replication(model, hm, cfg, basis, 1, 2)
        d2 = run_replication(model, hm, cfg, basis, 1, 2)
        assert d1 == d2

    @pytest.mark.parametrize("chunk_particles, widths", [
        (64, [1, 2, 2]),  # two rows of 32 particles per batch
        (16, [1] * 5),    # one row holds more than the bound
    ])
    def test_batches_are_bounded_and_rows_equal_lone_runs(self, monkeypatch,
                                                          chunk_particles, widths):
        cfg = small_config(replications=5, n_particles=32)
        model = catalog.make_model("ou_benchmark", epsilon=0.25)
        hm = catalog.make_analytic_homogenized("ou_benchmark")
        basis = default_basis(cfg.basis_count, 1)
        lone = [run_replication(model, hm, cfg, basis, 1, rep) for rep in range(5)]
        seen = []

        def counted(run):
            def wrapper(target, obs, states, *args):
                seen.append((run.__name__, len(states)))
                return run(target, obs, states, *args)
            return wrapper

        monkeypatch.setattr(filtering, "CHUNK_PARTICLES", chunk_particles)
        monkeypatch.setattr(study, "run_full_filter", counted(run_full_filter))
        monkeypatch.setattr(study, "run_homogenized_filter",
                            counted(run_homogenized_filter))
        assert run_replications(model, hm, cfg, basis, 1, range(5)) == lone
        assert seen == [(run, width) for width in widths
                        for run in ("run_full_filter", "run_homogenized_filter")]
        bound = max(chunk_particles, cfg.n_particles)
        assert all(width * cfg.n_particles <= bound for _, width in seen)

    def test_self_comparison_bounded_by_particle_noise(self):
        # Model whose coefficients are already z-independent and equal to
        # their averages: only particle noise separates the two filters.
        cfg = small_config(n_particles=4096, horizon=0.5, dt=0.02)
        model = catalog.make_model("ou_benchmark", epsilon=0.25, **linear_gaussian())
        hm = catalog.make_analytic_homogenized("ou_benchmark", **linear_gaussian())
        basis = default_basis(cfg.basis_count, 1)
        d = run_replication(model, hm, cfg, basis, 0, 0)
        assert d <= 0.05

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_truth_blow_up_fails_every_replication(self):
        # The truth overflows in every replication; each entry is the truth's
        # BlowUpError, at the step blow_up_steps finds on the same streams,
        # whatever the filters ran into.
        params = {"a": 1.0e200}
        cfg = small_config(family_params=params)
        model = catalog.make_model("ou_benchmark", epsilon=0.25, **params)
        hm = catalog.make_analytic_homogenized("ou_benchmark", **params)
        reps = range(cfg.replications)
        results = run_replications(model, hm, cfg, default_basis(cfg.basis_count, 1),
                                   1, reps)
        steps = blow_up_steps(*replication_paths(model, cfg, 1, reps)[:2])
        assert (steps >= 0).all()
        assert all(type(r) is BlowUpError for r in results)
        assert [r.step for r in results] == steps.tolist()
        with pytest.raises(BlowUpError) as raised:
            run_replication(model, hm, cfg, default_basis(cfg.basis_count, 1), 1, 0)
        assert raised.value.step == steps[0]

    def test_zero_steps_identical_delta_inits(self):
        # Point-mass initial ensembles and no observation steps: both
        # marginals are the same delta measure, so the distance is 0.
        model = catalog.make_model("ou_benchmark", epsilon=0.5)
        hm = catalog.make_analytic_homogenized("ou_benchmark")
        obs = ObservationPath(times=np.array([0.0]), increments=np.zeros((0, 1, 1)))
        full = run_full_filter(model, obs, np.full((1, 16, 2), 0.3), 0.5,
                               [np.random.default_rng(0)])
        homog = run_homogenized_filter(hm, obs, np.full((1, 16, 1), 0.3), 0.5,
                                       [np.random.default_rng(1)])
        basis = default_basis(16, 1)
        assert metric_d(EmpiricalMeasure(full.states[0, :, :1], full.weights[0]),
                        EmpiricalMeasure(homog.states[0], homog.weights[0]),
                        basis) == 0.0


class TestBootstrapSlopeCI:
    def test_interval_holds_the_true_slope(self):
        cfg = small_config(epsilons=(0.5, 0.25, 0.125, 0.0625), replications=40,
                           bootstrap_samples=1000)
        # xi is centred per epsilon, so the mean distances lie on 0.3 sqrt(eps).
        xi = np.random.default_rng(5).standard_normal((len(cfg.epsilons), 40))
        xi -= xi.mean(axis=1, keepdims=True)
        distances = [list(0.3 * np.sqrt(eps) * (1 + 0.2 * row))
                     for eps, row in zip(cfg.epsilons, xi)]
        lo, hi = _bootstrap_slope_ci(cfg, distances)
        assert lo < 0.5 < hi < lo + 0.2

    def test_interval_is_that_of_the_weighted_fit(self):
        # Three tight levels on 0.3 sqrt(eps) and a smallest epsilon 3x high
        # with a wide log-spread: the weighted slope stays near 1/2, and so
        # must its interval, far from the unweighted slope near 0.
        cfg = small_config(epsilons=(0.5, 0.25, 0.125, 0.0625), replications=40,
                           bootstrap_samples=1000)
        xi = np.random.default_rng(5).standard_normal((len(cfg.epsilons), 40))
        xi -= xi.mean(axis=1, keepdims=True)
        distances = [list(0.3 * np.sqrt(eps) * (1 + 0.01 * row))
                     for eps, row in zip(cfg.epsilons[:3], xi[:3])]
        spread = np.exp(0.9 * xi[3])
        distances.append(list(0.9 * np.sqrt(cfg.epsilons[3]) * spread / spread.mean()))
        means = [np.mean(d) for d in distances]
        ses = [np.std(d, ddof=1) / np.sqrt(len(d)) for d in distances]
        slope, _ = fit_loglog_slope(cfg.epsilons, means, ses)
        lo, hi = _bootstrap_slope_ci(cfg, distances)
        assert lo < slope < hi < lo + 0.1

    def test_epsilon_of_zero_distances_gives_no_interval(self):
        cfg = small_config()
        distances = [[0.3, 0.2, 0.25, 0.3], [0.0] * 4, [0.1, 0.15, 0.1, 0.12]]
        lo, hi = _bootstrap_slope_ci(cfg, distances)
        assert np.isnan(lo) and np.isnan(hi)


class TestRunStudyEndToEnd:
    def test_small_real_study_runs(self):
        cfg = small_config(replications=3, n_particles=32)
        report = run_study(cfg)
        assert len(report.mean_distances) == 3
        assert all(d > 0 for d in report.mean_distances)
        assert np.isfinite(report.slope)
        assert report.slope_ci[0] <= report.slope_ci[1]

    @pytest.mark.parametrize("cpus, chunk_particles, sizes", [
        (1, filtering.CHUNK_PARTICLES, [5]),
        (3, filtering.CHUNK_PARTICLES, [1, 2, 2]),
        (1, 64, [1, 2, 2]),      # two rows of 32 particles per chunk
        (8, filtering.CHUNK_PARTICLES, [1] * 5),
    ])
    def test_report_does_not_depend_on_chunking(self, monkeypatch, cpus,
                                                chunk_particles, sizes):
        cfg = small_config(replications=5, n_particles=32)
        default = run_study(cfg)
        handed, groups, widths = [], [], []

        def counted(model, obs, states, *args):
            widths.append(len(states))
            return run_full_filter(model, obs, states, *args)

        # Recorded where run_study hands its rows over; each group sends the
        # widths of its batches back beside its results, as a forked worker's
        # appends would never reach this process.
        def recorded(fn, items):
            def traced(group):
                start = len(widths)
                return [(fn(group), widths[start:])]

            handed.append((fn.args[-1], items))
            out = run_forked(traced, items)
            groups.append([batch_widths for _, batch_widths in out])
            return [entry for results, _ in out for entry in results]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(filtering, "CHUNK_PARTICLES", chunk_particles)
        monkeypatch.setattr(study, "run_full_filter", counted)
        monkeypatch.setattr(study, "run_forked", recorded)
        assert run_study(cfg) == default
        assert handed == [(ei, range(cfg.replications)) for ei in range(len(cfg.epsilons))]
        for batches in groups:
            assert len(batches) == min(cpus, cfg.replications)
            assert sum(batches, []) == sizes

    def test_abort_starts_no_later_epsilon(self, monkeypatch):
        cfg = small_config(epsilons=(0.5, 0.25, 0.125, 0.0625))
        started = []

        def fake(model, hmodel, cfg, basis, eps_index, rep_indices):
            return [HomfiltError("forced failure") if eps_index == 1 else 0.1
                    for _ in rep_indices]

        def recorded(fn, items):
            started.append(fn.args[-1])
            return run_forked(fn, items)

        monkeypatch.setattr(study, "run_replications", fake)
        monkeypatch.setattr(study, "run_forked", recorded)
        with pytest.raises(StudyAbortError, match="epsilon=0.25"):
            run_study(cfg)
        assert started == [0, 1]

    @pytest.mark.filterwarnings("error")
    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        # A forked worker inherits the caller's numpy errstate, and under
        # "error" a numpy warning in it would come back as the exception;
        # every replication overflows, so the study aborts quietly.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with np.errstate(all="ignore"), pytest.raises(StudyAbortError):
            run_study(small_config(family_params={"a": 1.0e200}))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(epsilons=(0.5, 0.25))  # too few for a slope
        with pytest.raises(ValueError):
            small_config(epsilons=(0.25, 0.5, 0.125))  # not decreasing

    @pytest.mark.parametrize("bad", [
        {"resample_threshold": 1.5}, {"resample_threshold": 0.0},
        {"resample_threshold": float("nan")}, {"init_mean": float("nan")},
        {"init_mean": float("inf")}, {"init_std": float("nan")}, {"init_std": -0.5},
        {"init_std": float("inf")}])
    def test_bad_filter_settings_are_refused_before_any_fork(self, monkeypatch, tmp_path,
                                                            capsys, bad):
        forked = []
        monkeypatch.setattr(study, "run_forked", lambda fn, items: forked.append(items))
        with pytest.raises(ValueError):
            small_config(**bad)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "model": {"family": "ou_benchmark"},
            "study": {"epsilons": [0.5, 0.25, 0.125], "replications": 2,
                      "horizon": 0.1, "n_particles": 8, "dt": 0.02, **bad}}))
        assert main(["--config", str(config), "--out", str(tmp_path), "study"]) == 2
        assert capsys.readouterr().err.startswith("usage error: bad [study] config: ")
        assert forked == []
