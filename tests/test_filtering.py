import dataclasses
import itertools
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homfilt import catalog, filtering
from homfilt.averaging import HomogenizedModel, TabulationGrid, _tabulated_model
from homfilt.errors import BlowUpError, UsageError, WeightCollapseError
from homfilt.filtering import (ParticleEnsemble, ess, gaussian_prior,
                               kalman_reference, run_forked, run_full_filter,
                               run_homogenized_filter, systematic_resample,
                               weight_update)
from homfilt.models import (MultiscaleModel, ObservationPath, simulate_multiscale,
                            simulate_observations)
from homfilt.rng import StreamBatch


def ensemble(states, weights):
    return ParticleEnsemble(states=np.asarray(states, dtype=float),
                            weights=np.asarray(weights, dtype=float))


class TestWeightUpdate:
    def test_uninformative_observation(self):
        ens = ensemble([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
        out = weight_update(ens, np.array([0.5]), np.zeros((3, 1)), 0.01)
        assert np.allclose(out.weights, ens.weights, atol=1e-15)

    def test_two_particle_oracle(self):
        # Multipliers {exp(1*0.1 - 0.5*0.01), 1} = {exp(0.095), 1}.
        ens = ensemble([[0.0], [1.0]], [0.5, 0.5])
        out = weight_update(ens, np.array([0.1]),
                            np.array([[1.0], [0.0]]), 0.01)
        expect = np.exp(0.095) / (np.exp(0.095) + 1.0)
        assert abs(out.weights[0] - expect) < 1e-14
        assert abs(expect - 0.5237) < 1e-4

    def test_single_particle(self):
        ens = ensemble([[3.0]], [1.0])
        out = weight_update(ens, np.array([7.0]), np.array([[2.0]]), 0.1)
        assert out.weights[0] == 1.0

    def test_collapse_raises(self):
        ens = ensemble([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(WeightCollapseError):
            weight_update(ens, np.array([np.inf]),
                          np.array([[-1.0], [-2.0]]), 0.01)

    def test_permutation_equivariance(self, rng):
        n = 16
        states = rng.standard_normal((n, 2))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        hv = rng.standard_normal((n, 1))
        dy = np.array([0.3])
        perm = rng.permutation(n)
        a = weight_update(ensemble(states, w), dy, hv, 0.05).weights[perm]
        b = weight_update(ensemble(states[perm], w[perm]), dy, hv[perm], 0.05).weights
        assert np.allclose(a, b, atol=1e-15)

    @given(st.integers(min_value=2, max_value=64), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_weights_stay_normalized(self, n, seed):
        r = np.random.default_rng(seed)
        w = r.uniform(0.0, 1.0, n) + 1e-12
        w /= w.sum()
        out = weight_update(ensemble(r.standard_normal((n, 1)), w),
                            r.standard_normal(1), r.standard_normal((n, 1)), 0.01)
        assert np.all(out.weights >= 0)
        assert abs(out.weights.sum() - 1.0) <= 1e-12


class TestEss:
    def test_uniform(self):
        assert ess(np.full(10, 0.1)) == pytest.approx(10.0)

    def test_degenerate(self):
        assert ess(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_half(self):
        assert ess(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0)

    @given(st.integers(min_value=1, max_value=100), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, n, seed):
        r = np.random.default_rng(seed)
        w = r.uniform(0.0, 1.0, n) + 1e-9
        w /= w.sum()
        assert 1.0 - 1e-9 <= ess(w) <= n + 1e-9

    def test_rows_equal_lone_vectors(self):
        # The filters take every row's ESS in one call; each must be the
        # value of that row alone, bit for bit.
        r = np.random.default_rng(9)
        w = r.uniform(0.0, 1.0, (25, 2048))
        w /= w.sum(axis=1, keepdims=True)
        assert ess(w).shape == (25,)
        assert ([float(v).hex() for v in ess(w)]
                == [float(ess(row)).hex() for row in w])


class TestSystematicResample:
    def test_degenerate_weight(self, rng):
        ens = ensemble([[1.0], [2.0], [3.0]], [0.0, 1.0, 0.0])
        out = systematic_resample(ens, rng)
        assert np.all(out.atoms == 2.0)
        assert np.allclose(out.weights, 1.0 / 3.0)

    def test_uniform_weights_keep_everyone(self, rng):
        n = 8
        ens = ensemble(np.arange(n)[:, None], np.full(n, 1.0 / n))
        out = systematic_resample(ens, rng)
        assert sorted(out.atoms[:, 0]) == list(range(n))

    def test_three_one_split_for_every_uniform(self):
        # Weights (0.75, 0.25, 0, 0) with N=4: stratum enumeration forces
        # counts (3, 1) regardless of the uniform draw.
        ens4 = ensemble([[10.0], [20.0], [30.0], [40.0]], [0.75, 0.25, 0.0, 0.0])
        for u in (0.01, 0.3, 0.6, 0.99):
            out = systematic_resample(ens4, _FixedUniformRng(u))
            counts = np.bincount((out.atoms[:, 0] == 20.0).astype(int), minlength=2)
            assert counts[0] == 3 and counts[1] == 1

    def test_unbiasedness(self):
        r = np.random.default_rng(2024)
        n = 16
        w = r.uniform(0.2, 1.0, n)
        w /= w.sum()
        ens = ensemble(np.arange(n)[:, None], w)
        trials = 10000
        counts = np.zeros(n)
        for _ in range(trials):
            out = systematic_resample(ens, r)
            counts += np.bincount(out.atoms[:, 0].astype(int), minlength=n)
        freq = counts / trials
        se = np.sqrt(n * w * (1 - w) / trials)  # binomial scale per particle
        assert np.all(np.abs(freq - n * w) <= 4 * se + 1e-9)


class _FixedUniformRng:
    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestRunFullFilter:
    def test_no_information_matches_prior(self):
        # h == 0: the filter is a plain Monte Carlo sample of the signal law.
        model = catalog.make_model("linear", epsilon=1.0, a=-1.0, q=0.25, h=0.0)
        dt, horizon = 0.01, 1.0
        times = np.arange(int(horizon / dt) + 1) * dt
        obs = ObservationPath(
            times=times,
            increments=np.random.default_rng(0).standard_normal(
                (len(times) - 1, 1, 1)) * np.sqrt(dt))
        n_particles = 4000
        start = np.zeros((1, n_particles, 2))
        start[..., 0] = 1.0
        batch = run_full_filter(model, obs, start, 0.5, [np.random.default_rng(3)])
        states, w = batch.states[0], batch.weights[0]
        mean = (w @ states)[0]
        # E[X(1)] = e^{-1}; Monte Carlo spread of the ensemble mean.
        sd = np.sqrt(np.cov(states[:, 0], aweights=w))
        assert abs(mean - np.exp(-1.0)) < 3 * sd / np.sqrt(n_particles) + 3e-3

    def test_single_particle_is_one_trajectory(self):
        model = catalog.make_model("linear", epsilon=1.0)
        dt = 0.01
        times = np.arange(11) * dt
        obs = ObservationPath(times=times,
                              increments=np.zeros((10, 1, 1)))
        batch = run_full_filter(model, obs, np.zeros((1, 1, 2)), 0.5,
                                [np.random.default_rng(4)])
        assert batch.weights[0, 0] == 1.0
        # With N = 1 an ESS of 1 at every step means every weight was 1.
        assert batch.ess.shape == (10, 1)
        assert np.all(batch.ess[:, 0] == 1.0)

    def test_grid_mismatch(self):
        # The filters take their step from the grid, so it must be uniform.
        with pytest.raises(ValueError, match="observation grid is not uniform"):
            ObservationPath(times=np.array([0.0, 0.1, 0.25]),
                            increments=np.zeros((2, 1, 1)))

    def test_tracks_kalman_reference(self):
        # Linear-Gaussian model: the particle posterior mean should follow
        # the exact discrete Kalman recursion.
        a, q, h = -1.0, 1.0, 1.0
        model = catalog.make_model("linear", a=a, q=q, h=h)
        dt, horizon = 0.01, 2.0
        r_truth = np.random.default_rng(10)
        xs, zs = simulate_multiscale(model, np.array([[0.5]]), np.array([[0.0]]),
                                     horizon, dt, rng=r_truth)
        obs = simulate_observations(xs, zs, model, dt, rng=np.random.default_rng(11))
        prior_mean, prior_var = 0.5, 0.25
        rngs = [np.random.default_rng(12)]
        x = prior_mean + np.sqrt(prior_var) * rngs[0].standard_normal((1, 4000, 1))
        batch = run_full_filter(model, obs, np.concatenate([x, np.zeros_like(x)], -1),
                                0.5, rngs)
        kal_means, _ = kalman_reference(a, q, h, obs, prior_mean, prior_var)
        err = np.abs(batch.means[:, 0, 0] - kal_means[1:, 0]).mean()
        assert err < 0.05  # ~3x the particle-noise scale at N=4000


class TestRunHomogenizedFilter:
    def test_frozen_dynamics_keeps_point_mass(self):
        hm = catalog.make_analytic_homogenized("linear", a=0.0, q=1e-30, h=0.0)
        times = np.arange(6) * 0.1
        obs = ObservationPath(times=times, increments=np.zeros((5, 1, 1)))
        final = run_homogenized_filter(hm, obs, np.full((1, 32, 1), 2.5), 0.5,
                                       [np.random.default_rng(5)])
        assert np.allclose(final.states[0], 2.5, atol=1e-12)
        assert np.allclose(final.weights[0], 1.0 / 32)

    def test_matches_full_filter_at_small_epsilon(self):
        # At epsilon = 0.01 the reduced filter's posterior mean should agree
        # with the full filter's slow marginal up to combined particle noise.
        eps = 0.01
        model = catalog.make_model("ou_benchmark", epsilon=eps)
        hm = catalog.make_analytic_homogenized("ou_benchmark")
        dt, horizon = 0.01, 1.0
        xs, zs = simulate_multiscale(model, np.array([[0.2]]), np.array([[0.2]]),
                                     horizon, dt, rng=np.random.default_rng(20))
        obs = simulate_observations(xs, zs, model, dt, rng=np.random.default_rng(21))
        n_particles = 4000
        r_full, r_homog = [np.random.default_rng(22)], [np.random.default_rng(23)]
        full = run_full_filter(
            model, obs, gaussian_prior(r_full[0], (1, n_particles), 0.2, 0.3, 1, 1),
            0.5, r_full)
        homog = run_homogenized_filter(
            hm, obs, gaussian_prior(r_homog[0], (1, n_particles), 0.2, 0.3, 1, 0),
            0.5, r_homog)
        mf = (full.weights[0] @ full.states[0])[0]
        mh = (homog.weights[0] @ homog.states[0])[0]
        sf = np.sqrt(np.cov(full.states[0, :, 0], aweights=full.weights[0]))
        assert abs(mf - mh) < 3 * (sf / np.sqrt(n_particles)) + 0.05

    def test_reads_a_table_once_per_step(self, monkeypatch):
        # On a table the filter reads the model only through coefficients,
        # once for the initial cloud and then once per step, and equals bit
        # for bit the filter on a model whose coefficients are its field queries.
        grid = TabulationGrid((-3.0,), (3.0,), (7,))
        nodes = grid.nodes()
        hm = _tabulated_model({"grid": grid, "b": -nodes + 0.3 * np.sin(3 * nodes),
                               "a": 0.25 + 0.1 * nodes[:, :, None] ** 2,
                               "h": nodes + np.cos(nodes)})
        fields = HomogenizedModel(1, hm.drift_avg, hm.diffsq_avg, hm.diff_avg,
                                  hm.obs_avg)

        def refuse(x):
            raise AssertionError("a field query on the table")

        tabulated = dataclasses.replace(hm, drift_avg=refuse, diffsq_avg=refuse,
                                        diff_avg=refuse, obs_avg=refuse)
        shapes = []
        coefficients = HomogenizedModel.coefficients
        monkeypatch.setattr(HomogenizedModel, "coefficients",
                            lambda self, x: shapes.append(x.shape) or coefficients(self, x))
        obs = ObservationPath(times=np.arange(9) * 0.1,
                              increments=np.random.default_rng(0).normal(0, 0.3, (8, 2, 1)))
        states = gaussian_prior(np.random.default_rng(1), (2, 32), 0.0, 1.0, 1, 0)
        got = run_homogenized_filter(tabulated, obs, states, 0.9,
                                     [np.random.default_rng(r) for r in (2, 3)])
        assert shapes == [(2, 32, 1)] * 9
        want = run_homogenized_filter(fields, obs, states, 0.9,
                                      [np.random.default_rng(r) for r in (2, 3)])
        assert got.resampled.any()
        for record in ("states", "weights", "means", "ess", "resampled"):
            assert np.array_equal(getattr(got, record), getattr(want, record))

    def test_carries_coefficients_that_alias_or_broadcast(self):
        # A closed-form coefficient may return its argument or a read-only
        # broadcast; resampling the carried values must not write through them.
        def model(drift, diff):
            return HomogenizedModel(1, drift, None, diff, lambda x: 2.0 * x)

        aliased = model(lambda x: x,
                        lambda x: np.broadcast_to(0.5, x.shape[:-1] + (1, 1)))
        fresh = model(lambda x: x.copy(), lambda x: np.full(x.shape[:-1] + (1, 1), 0.5))
        obs = ObservationPath(times=np.arange(6) * 0.1,
                              increments=np.full((5, 1, 1), 0.3))
        states = gaussian_prior(np.random.default_rng(1), (1, 16), 0.0, 1.0, 1, 0)
        got, want = (run_homogenized_filter(hm, obs, states, 1.0,
                                            [np.random.default_rng(2)])
                     for hm in (aliased, fresh))
        assert got.resampled.all()
        assert np.array_equal(got.states, want.states)


def _filter(kind):
    """A filter on the ``linear`` family, its model and its state dimension."""
    return {"full": (run_full_filter, catalog.make_model("linear"), 2),
            "homogenized": (run_homogenized_filter,
                            catalog.make_analytic_homogenized("linear"), 1)}[kind]


@pytest.mark.parametrize("kind", ["full", "homogenized"])
@pytest.mark.parametrize("n_obs, n_rngs", [(1, 2), (2, 1)])
def test_replication_count_must_match_generators(kind, n_obs, n_rngs):
    obs = ObservationPath(times=np.arange(4) * 0.1, increments=np.zeros((3, n_obs, 1)))
    run, target, dim = _filter(kind)
    with pytest.raises(ValueError):
        run(target, obs, np.zeros((n_rngs, 4, dim)), 0.5,
            [np.random.default_rng(r) for r in range(n_rngs)])


@pytest.mark.parametrize("kind", ["full", "homogenized"])
@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("shape", ["no particles", "one column short",
                                   "one column over", "no replication axis"])
def test_cloud_of_another_shape_is_rejected(kind, steps, shape):
    obs = ObservationPath(times=np.arange(steps + 1) * 0.1,
                          increments=np.zeros((steps, 1, 1)))
    run, target, dim = _filter(kind)
    states = np.zeros({"no particles": (1, 0, dim), "one column short": (1, 4, dim - 1),
                       "one column over": (1, 4, dim + 1),
                       "no replication axis": (4, dim)}[shape])
    with pytest.raises(ValueError, match="cloud of shape"):
        run(target, obs, states, 0.5, [np.random.default_rng(0)])


@pytest.mark.parametrize("kind", ["full", "homogenized"])
def test_cloud_rows_must_match_generators(kind):
    # One generator too few or too many for a 2-row cloud: refused before a
    # single draw, not at the first draw or by dropping the extra generator.
    obs = ObservationPath(times=np.arange(4) * 0.1, increments=np.zeros((3, 2, 1)))
    run, target, dim = _filter(kind)
    for n_rngs in (1, 3):
        rngs = [np.random.default_rng(r) for r in range(n_rngs)]
        before = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match=f"{n_rngs} generators for 2 replications"):
            run(target, obs, np.zeros((2, 4, dim)), 0.5, rngs)
        assert [rng.bit_generator.state for rng in rngs] == before


def test_initial_draws_are_independent_arrays():
    # m == n, and x and z are separate draws: a zero-step path hands the
    # cloud back column for column.
    model = catalog.make_model("ou_benchmark")
    obs = ObservationPath(times=np.array([0.0]), increments=np.zeros((0, 1, 1)))
    rng = np.random.default_rng(0)
    states = np.concatenate([rng.standard_normal((1, 8, 1)),
                             rng.standard_normal((1, 8, 1))], axis=-1)
    final = run_full_filter(model, obs, states, 0.5, [np.random.default_rng(0)])
    assert not np.array_equal(final.states[0, :, 0], final.states[0, :, 1])


@pytest.mark.parametrize("kind", ["full", "homogenized"])
@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_resample_threshold_outside_unit_interval_is_usage_error(kind, threshold):
    obs = ObservationPath(times=np.arange(4) * 0.1, increments=np.zeros((3, 1, 1)))
    run, target, dim = _filter(kind)
    with pytest.raises(UsageError, match="resample_threshold"):
        run(target, obs, np.zeros((1, 4, dim)), threshold, [np.random.default_rng(0)])


@pytest.mark.parametrize("kind", ["full", "homogenized"])
@pytest.mark.parametrize("steps", [0, 5])
def test_callers_cloud_is_left_unchanged(kind, steps):
    # A threshold of 1 resamples at every step that has unequal weights.
    obs = ObservationPath(times=np.arange(steps + 1) * 0.1,
                          increments=np.full((steps, 1, 1), 0.3))
    run, target, dim = _filter(kind)
    states = gaussian_prior(np.random.default_rng(1), (1, 16), 0.0, 1.0, 1, dim - 1)
    before = states.copy()
    batch = run(target, obs, states, 1.0, [np.random.default_rng(2)])
    assert np.array_equal(states, before)
    assert not np.shares_memory(batch.states, states)
    if steps == 0:
        assert np.array_equal(batch.states, states)
    else:
        assert batch.resampled[:, 0].any()


def _ramp(kind, read_outs):
    """A filter whose particles move by exactly dt per step, at unit drift and
    with no noise, until they stand above 0.25, where their drift is
    infinite; each read-out call is appended to ``read_outs``."""
    def drift(x, *_):
        return np.where(x > 0.25, np.inf, 1.0)

    def still(x, *_):
        return np.zeros(x.shape[:-1] + (1, 1))

    def read_out(x, *_):
        read_outs.append(x.shape)
        return 0.5 * x

    if kind == "full":
        return run_full_filter, MultiscaleModel(
            dim_slow=1, dim_fast=1, drift_slow=drift, diff_slow=still, obs_fn=read_out,
            fast_ou=(1.0, lambda x: x, 1.0)), 2
    return run_homogenized_filter, HomogenizedModel(1, drift, None, still, read_out), 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["full", "homogenized"])
def test_rows_that_fail_mid_run(kind):
    read_outs = []
    run, target, dim = _ramp(kind, read_outs)
    steps, n = 8, 16
    # Row 0 stands above 0.25 from step 3 on, so that step's move blows up;
    # rows 1 and 2 stay near -10, and row 1's weights collapse in step 5.
    cloud = np.empty((3, n, dim))
    cloud[0] = np.linspace(0.0, 0.01, n)[:, None]
    cloud[1:] = np.linspace(-10.5, -9.5, n)[:, None]
    increments = np.random.default_rng(0).normal(0.0, 0.3, (steps, 3, 1))
    increments[5, 1] = np.nan
    times = np.arange(steps + 1) * 0.1

    def rows(r):
        obs = ObservationPath(times, increments[:, r])
        return run(target, obs, cloud[r], 0.9, [np.random.default_rng(i) for i in r])

    batch = rows([0, 1, 2])
    assert isinstance(batch.errors[0], BlowUpError) and batch.errors[0].step == 3
    assert isinstance(batch.errors[1], WeightCollapseError)
    assert batch.errors[2] is None
    assert batch.resampled[:, 2].any()
    lone = rows([2])
    assert np.array_equal(batch.states[2], lone.states[0])
    assert np.array_equal(batch.weights[2], lone.weights[0])
    for record in ("means", "ess", "resampled"):
        assert np.array_equal(getattr(batch, record)[:, 2], getattr(lone, record)[:, 0])
    # Without the healthy row, the loop stops in step 5, once both rows failed.
    read_outs.clear()
    pair = rows([0, 1])
    assert [type(e) for e in pair.errors] == [BlowUpError, WeightCollapseError]
    assert pair.errors[0].step == 3
    assert len(read_outs) == 6 + (kind == "homogenized")  # the first cloud's read-out
    assert np.isnan(pair.means[5:]).all() and np.isnan(pair.ess[5:]).all()
    assert not pair.resampled[5:].any()
    assert np.isfinite(pair.means[:5, 1]).all() and np.isfinite(pair.ess[:5, 1]).all()


def _record_block_widths(monkeypatch, bound):
    """Lower ``CHUNK_PARTICLES`` to ``bound`` and record the rows of every
    move the two filters' step functions make, one entry per step."""
    widths = []

    def recorded(move, cloud_arg):
        def traced(*args):
            widths.append(len(args[cloud_arg]))
            return move(*args)
        return traced

    monkeypatch.setattr(filtering, "CHUNK_PARTICLES", bound)
    monkeypatch.setattr(filtering, "multiscale_step",
                        recorded(filtering.multiscale_step, 1))
    monkeypatch.setattr(filtering, "euler_maruyama", recorded(filtering.euler_maruyama, 0))
    return widths


@pytest.mark.parametrize("kind", ["full", "homogenized"])
@pytest.mark.parametrize("n, widths", [
    (16, [1, 2, 2]),  # two rows of 16 particles per block of 40
    (48, [1] * 5),    # one row holds more than the bound, and runs alone
])
def test_blocks_are_bounded_and_rows_equal_lone_runs(monkeypatch, kind, n, widths):
    run, target, dim = _filter(kind)
    steps, bound = 6, 40
    increments = np.random.default_rng(0).normal(0.0, 0.3, (steps, 5, 1))
    cloud = gaussian_prior(StreamBatch([np.random.default_rng(10 + r) for r in range(5)]),
                           (5, n), 0.0, 1.0, 1, dim - 1)

    def rows(r):
        obs = ObservationPath(np.arange(steps + 1) * 0.1, increments[:, r])
        return run(target, obs, cloud[r], 0.9, [np.random.default_rng(20 + i) for i in r])

    lone = [rows([r]) for r in range(5)]
    seen = _record_block_widths(monkeypatch, bound)
    batch = rows(list(range(5)))
    assert seen == [width for width in widths for _ in range(steps)]
    assert all(width * n <= max(bound, n) for width in seen)
    assert batch.resampled.any()
    assert batch.errors == [one.errors[0] for one in lone] == [None] * 5
    for r, one in enumerate(lone):
        assert np.array_equal(batch.states[r], one.states[0])
        assert np.array_equal(batch.weights[r], one.weights[0])
        for record in ("means", "ess", "resampled"):
            assert np.array_equal(getattr(batch, record)[:, r], getattr(one, record)[:, 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["full", "homogenized"])
def test_row_that_blows_up_in_a_later_block(monkeypatch, kind):
    run, target, dim = _ramp(kind, [])
    steps, n = 8, 16
    # Blocks of two 16-particle rows: [0], [1, 2], [3, 4].  Row 2 stands
    # above 0.25 from step 3 on, so that step's move blows up; the other
    # rows stay near -10.
    cloud = np.empty((5, n, dim))
    cloud[:] = np.linspace(-10.5, -9.5, n)[:, None]
    cloud[2] = np.linspace(0.0, 0.01, n)[:, None]
    increments = np.random.default_rng(0).normal(0.0, 0.3, (steps, 5, 1))

    def rows(r):
        obs = ObservationPath(np.arange(steps + 1) * 0.1, increments[:, r])
        return run(target, obs, cloud[r], 0.9, [np.random.default_rng(i) for i in r])

    lone = [rows([r]) for r in range(5)]
    seen = _record_block_widths(monkeypatch, 40)
    batch = rows(list(range(5)))
    assert seen == [1] * steps + [2] * steps + [2] * steps
    assert isinstance(batch.errors[2], BlowUpError)
    assert batch.errors[2].step == lone[2].errors[0].step == 3
    assert batch.errors[:2] == batch.errors[3:] == [None, None]
    for r in (0, 1, 3, 4):
        assert np.array_equal(batch.states[r], lone[r].states[0])
        for record in ("means", "ess", "resampled"):
            assert np.array_equal(getattr(batch, record)[:, r], getattr(lone[r], record)[:, 0])


class TestGaussianPrior:
    def test_draws_x_then_z_near_x(self):
        rng, again = np.random.default_rng(7), np.random.default_rng(7)
        states = gaussian_prior(rng, (3, 5), 1.0, 0.5, 2, 1)
        assert states.shape == (3, 5, 3)
        x = 1.0 + 0.5 * again.standard_normal((3, 5, 2))
        z = x[..., :1] + again.standard_normal((3, 5, 1))
        assert np.array_equal(states, np.concatenate([x, z], axis=-1))

    def test_reduced_cloud_is_the_x_of_the_full_one(self):
        full = gaussian_prior(np.random.default_rng(8), (2, 6), 0.3, 0.2, 1, 1)
        slow = gaussian_prior(np.random.default_rng(8), (2, 6), 0.3, 0.2, 1, 0)
        assert np.array_equal(slow, full[..., :1])

    @pytest.mark.parametrize("mean, std", [(float("nan"), 0.5), (0.0, float("inf")),
                                           (float("-inf"), 0.5)])
    def test_non_finite_law_is_usage_error(self, mean, std):
        with pytest.raises(UsageError, match="finite"):
            gaussian_prior(np.random.default_rng(0), (1, 4), mean, std, 1, 1)


class TestKalmanReference:
    def make_obs(self, dt, horizon, increments=None):
        times = np.arange(int(round(horizon / dt)) + 1) * dt
        if increments is None:
            increments = np.zeros((len(times) - 1, 1, 1))
        return ObservationPath(times=times, increments=increments)

    def test_no_observation_is_pure_prediction(self):
        obs = self.make_obs(0.1, 1.0)
        _, variances = kalman_reference(-1.0, 1.0, 0.0, obs, 1.0, 0.5)
        var = 0.5
        for v in variances[1:]:
            var = 0.81 * var + 0.1
            assert abs(v - var) < 1e-12

    def test_riccati_steady_state(self):
        obs = self.make_obs(1e-3, 20.0)
        _, variances = kalman_reference(-1.0, 1.0, 1.0, obs, 0.0, 1.0)
        assert abs(variances[-1] - (np.sqrt(2.0) - 1.0)) < 1e-3

    def test_deterministic_mean_zero_variance(self):
        obs = self.make_obs(0.01, 1.0)
        means, variances = kalman_reference(-1.0, 1e-12, 0.0, obs, 1.0, 0.0)
        assert abs(means[-1, 0] - np.exp(-1.0)) < 5e-3
        assert variances[-1] < 1e-9

    def test_parameter_validation(self):
        obs = self.make_obs(0.1, 0.5)
        with pytest.raises(UsageError):
            kalman_reference(-1.0, 0.0, 1.0, obs, 0.0, 1.0)

    def test_rejects_vector_observations(self):
        obs = self.make_obs(0.1, 0.5, np.zeros((5, 1, 2)))
        with pytest.raises(ValueError):
            kalman_reference(-1.0, 1.0, 1.0, obs, 0.0, 1.0)

    def test_batch_equals_lone_replications(self):
        obs = self.make_obs(0.01, 0.5, 0.1 * np.random.default_rng(6).standard_normal(
            (50, 3, 1)))
        means, variances = kalman_reference(-1.0, 1.0, 2.0, obs, 0.5, 0.25)
        assert means.shape == (51, 3) and variances.shape == (51,)
        for r in range(3):
            lone = kalman_reference(-1.0, 1.0, 2.0,
                                    ObservationPath(obs.times, obs.increments[:, r:r + 1]),
                                    0.5, 0.25)
            assert np.array_equal(means[:, r], lone[0][:, 0])
            assert np.array_equal(variances, lone[1])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def call_each(tasks):
    return [task() for task in tasks]


def with_pid(items):
    return [(i, os.getpid()) for i in items]


class TestRunForked:
    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        def use(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        use(2)
        yield use
        assert_no_child_left()

    @pytest.mark.parametrize("count, groups", [(1, [5]), (2, [2, 3]), (3, [1, 2, 2]),
                                               (8, [1] * 5)])
    def test_results_in_task_order_one_process_per_cpu(self, cpus, count, groups):
        cpus(count)
        out = run_forked(with_pid, range(5))
        assert [i for i, _ in out] == list(range(5))
        pids = [pid for _, pid in out]
        assert pids[0] == os.getpid() and os.getpid() not in pids[groups[0]:]
        assert [pids.count(pid) for pid in dict.fromkeys(pids)] == groups

    def test_items_split_evenly_in_contiguous_groups(self, cpus):
        cpus(3)
        out = run_forked(with_pid, range(100))
        assert [i for i, _ in out] == list(range(100))
        pids = [pid for _, pid in out]
        assert pids[0] == os.getpid() and os.getpid() not in pids[33:]
        # One run of items per process, so each group is contiguous.
        assert [len(list(run)) for _, run in itertools.groupby(pids)] == [33, 33, 34]
        assert len(set(pids)) == 3

    def test_no_tasks(self):
        called = []
        assert run_forked(called.append, []) == []
        assert called == []

    def test_result_larger_than_a_pipe_buffer(self):
        big = np.arange(1 << 16, dtype=float)  # 512 KiB
        first, second = run_forked(call_each, [lambda: big, lambda: big + 1])
        assert np.array_equal(first, big) and np.array_equal(second, big + 1)

    def test_child_keeps_the_callers_errstate(self):
        with np.errstate(over="raise"):
            tasks = [lambda: np.geterr()["over"]] * 2
            assert run_forked(call_each, tasks) == ["raise", "raise"]

    def test_childs_homfilt_error_is_raised_with_its_attributes(self):
        def blow_up():
            raise BlowUpError(7, "node 2 at x=[0.5]: numerical blow-up")

        with pytest.raises(BlowUpError) as info:
            run_forked(call_each, [lambda: 1, blow_up])
        assert info.value.step == 7
        assert str(info.value) == "node 2 at x=[0.5]: numerical blow-up"

    def test_childs_other_exception_is_raised(self):
        with pytest.raises(KeyError, match="missing"):
            run_forked(call_each, [lambda: 1, lambda: {}["missing"]])

    def test_first_exception_in_task_order_wins(self):
        def fail(exc):
            raise exc

        with pytest.raises(UsageError, match="first"):
            run_forked(call_each, [lambda: fail(UsageError("first")),
                                   lambda: fail(KeyError("second"))])

    def test_child_killed_by_a_signal_is_an_error(self):
        parent = os.getpid()

        def die():
            if os.getpid() == parent:  # never kill the test process itself
                raise AssertionError("the task ran in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match=f"killed by signal {signal.SIGKILL:d}"):
            run_forked(call_each, [lambda: 1, die])

    def test_children_are_reaped_when_the_callers_task_raises(self, tmp_path):
        done = tmp_path / "done"

        def finish():
            done.write_text("yes")
            return 2

        def fail():
            raise UsageError("caller failed")

        with pytest.raises(UsageError, match="caller failed"):
            run_forked(call_each, [fail, finish])
        assert done.read_text() == "yes"

    def test_unpicklable_result_is_an_error(self):
        with pytest.raises(ChildProcessError, match="cannot send its outcome"):
            run_forked(call_each, [lambda: 1, lambda: (lambda: None)])

    def test_failed_fork_closes_its_pipe_and_reaps_the_others(self, cpus, monkeypatch):
        cpus(3)
        fork, forks = os.fork, []

        def second_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError("fork refused at a process limit")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="process limit"):
            run_forked(call_each, [lambda: 1, lambda: 2, lambda: 3])
        assert len(forks) == 2
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()
