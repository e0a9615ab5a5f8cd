import numpy as np
import pytest

from homfilt import catalog
from homfilt.errors import BlowUpError, ModelShapeError
from homfilt.models import (MultiscaleModel, ObservationPath, SignalPath,
                            multiscale_step, simulate_frozen_fast,
                            simulate_multiscale, simulate_observations)
from homfilt.rng import StreamBatch

from conftest import const_mat


def make_model(b=None, sigma=0.0, f=None, g=0.0, h=None, epsilon=1.0):
    return MultiscaleModel(
        dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1, dim_noise_fast=1,
        drift_slow=b or (lambda x, z: np.zeros_like(x)),
        diff_slow=const_mat(sigma),
        drift_fast=f or (lambda x, z: np.zeros_like(z)),
        diff_fast=const_mat(g),
        obs_fn=h or (lambda x, z: np.zeros_like(x)),
        epsilon=epsilon)


class TestSimulateMultiscale:
    def test_zero_dynamics_constant_path(self, rng):
        model = make_model()
        path = simulate_multiscale(model, np.array([1.5]), np.array([-2.0]),
                                   1.0, 0.1, rng=rng)
        assert np.all(path.slow_states == 1.5)
        assert np.all(path.fast_states == -2.0)

    def test_linear_ode_oracle(self, rng):
        # dX = -X dt with no noise: X(1) = e^{-1}
        model = make_model(b=lambda x, z: -x)
        path = simulate_multiscale(model, np.array([1.0]), np.array([0.0]),
                                   1.0, 1e-3, rng=rng)
        assert abs(path.slow_states[-1, 0] - np.exp(-1.0)) < 2e-3

    def test_fast_ou_stationary_variance(self):
        # Frozen slow state; fast OU with unit stationary variance.
        model = make_model(f=lambda x, z: -(z - x), g=np.sqrt(2.0), epsilon=0.01)
        path = simulate_multiscale(model, np.array([0.0]), np.array([0.0]),
                                   1.0, 1e-3, rng=np.random.default_rng(2))
        late = path.fast_states[path.times >= 0.5, 0]
        assert abs(late.var() - 1.0) < 0.1

    def test_determinism(self):
        model = make_model(b=lambda x, z: -x, sigma=0.3,
                           f=lambda x, z: -(z - x), g=1.0)
        p1 = simulate_multiscale(model, np.array([1.0]), np.array([0.0]), 1.0,
                                 0.01, rng=np.random.default_rng(7))
        p2 = simulate_multiscale(model, np.array([1.0]), np.array([0.0]), 1.0,
                                 0.01, rng=np.random.default_rng(7))
        assert np.array_equal(p1.slow_states, p2.slow_states)
        assert np.array_equal(p1.fast_states, p2.fast_states)

    def test_weak_order_improves_with_dt(self):
        # E[X(1)] = e^{-1} for dX = -X dt + dV; Euler bias shrinks with dt.
        model = make_model(b=lambda x, z: -x, sigma=1.0)
        biases = []
        for dt in (0.2, 0.05):
            rng = np.random.default_rng(42)
            n_rep = 20000
            x = np.full((n_rep, 1), 1.0)
            z = np.zeros((n_rep, 1))
            for _ in range(int(round(1.0 / dt))):
                x, z = multiscale_step(model, x, z, dt, 1, rng)
            biases.append(abs(x.mean() - np.exp(-1.0)))
        assert biases[1] < biases[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_detected(self):
        model = make_model(b=lambda x, z: x ** 3)
        args = (model, np.array([10.0]), np.array([0.0]), 5.0, 0.5)
        with pytest.raises(BlowUpError) as raised:
            simulate_multiscale(*args, rng=np.random.default_rng(12345))
        # The study's rule on the unchecked path: state k + 1 comes out of step k.
        path = simulate_multiscale(*args, rng=np.random.default_rng(12345),
                                   check_finite=False)
        blown = ~(np.isfinite(path.slow_states).all(axis=1)
                  & np.isfinite(path.fast_states).all(axis=1))
        assert blown.any()
        assert raised.value.step == int(np.argmax(blown)) - 1

    def test_shape_error_at_registration(self):
        with pytest.raises(ModelShapeError):
            MultiscaleModel(
                dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1,
                dim_noise_fast=1,
                drift_slow=lambda x, z: np.zeros(x.shape[:-1] + (2,)),  # wrong m
                diff_slow=const_mat(0.0),
                drift_fast=lambda x, z: np.zeros_like(z),
                diff_fast=const_mat(0.0),
                obs_fn=lambda x, z: np.zeros_like(x))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ModelShapeError):
            make_model(epsilon=1.5)


class TestSimulateFrozenFast:
    def test_zero_dynamics(self, rng):
        model = make_model()
        path = simulate_frozen_fast(model, np.array([0.0]), np.array([3.0]),
                                    1.0, 0.1, rng=rng)
        assert np.all(path == 3.0)

    def test_exponential_decay_to_x(self, rng):
        model = make_model(f=lambda x, z: -(z - x))
        x = np.array([0.4])
        path = simulate_frozen_fast(model, x, x + 1.0, 1.0, 1e-3, rng=rng)
        assert abs(path[-1, 0] - (0.4 + np.exp(-1.0))) < 2e-3

    def test_long_run_mean_is_x(self, rng):
        model = make_model(f=lambda x, z: -(z - x), g=np.sqrt(2.0))
        x = np.array([0.7])
        path = simulate_frozen_fast(model, x, np.zeros((16, 1)), 50.0, 1e-2,
                                    rng=rng)
        rep_means = path[1000:, :, 0].mean(axis=0)
        se = rep_means.std(ddof=1) / np.sqrt(len(rep_means))
        assert abs(rep_means.mean() - 0.7) < 3 * se

    def test_law_invariant_to_initial_condition(self):
        model = make_model(f=lambda x, z: -(z - x), g=np.sqrt(2.0))
        x = np.array([0.0])
        means = []
        for z0 in (0.0, 5.0):
            path = simulate_frozen_fast(model, x, np.full((16, 1), z0), 60.0,
                                        1e-2, rng=np.random.default_rng(int(z0)))
            means.append(path[2000:, :, 0].mean())
        assert abs(means[0] - means[1]) < 0.2


class TestSimulateObservations:
    def test_pure_noise_variance(self, rng):
        model = make_model()
        dt = 0.01
        times = np.arange(100001) * dt
        path = SignalPath(times=times,
                          slow_states=np.zeros((100001, 1)),
                          fast_states=np.zeros((100001, 1)))
        obs = simulate_observations(path, model, rng=rng)
        assert abs(obs.increments.var() - dt) < 0.05 * dt

    def test_noise_free_constant_read_out(self):
        model = make_model(h=lambda x, z: np.ones_like(x))
        times = np.arange(11) * 0.01
        path = SignalPath(times=times, slow_states=np.zeros((11, 1)),
                          fast_states=np.zeros((11, 1)))
        obs = simulate_observations(path, model, rng=_ZeroRng())
        assert np.allclose(obs.increments, 0.01, rtol=0, atol=1e-15)

    def test_noise_free_linear_read_out(self):
        model = make_model(h=lambda x, z: x)
        times = np.arange(11) * 0.01
        path = SignalPath(times=times, slow_states=np.full((11, 1), 2.0),
                          fast_states=np.zeros((11, 1)))
        obs = simulate_observations(path, model, rng=_ZeroRng())
        assert obs.increments.shape == (10, 1, 1)  # a lone path is one replication
        assert np.allclose(obs.increments, 0.02, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", ["ou_benchmark", "sinusoidal"])
    def test_batch_rows_equal_lone_calls(self, family):
        model = catalog.make_model(family, epsilon=0.25)
        start = np.linspace(-0.5, 0.5, 3)[:, None]
        truth = simulate_multiscale(model, start, start, 0.2, 0.02,
                                    rng=np.random.default_rng(7))
        gens = [np.random.default_rng(100 + r) for r in range(3)]
        batch = simulate_observations(truth, model, rng=StreamBatch(gens))
        assert batch.increments.shape == (10, 3, 1)
        for r in range(3):
            path = SignalPath(truth.times, truth.slow_states[:, r],
                              truth.fast_states[:, r])
            lone = simulate_observations(path, model, rng=np.random.default_rng(100 + r))
            assert batch.increments[:, r].tobytes() == lone.increments.tobytes()


class TestObservationPath:
    @pytest.mark.parametrize("times", [[0.0, 0.0, 0.1], [0.0, -0.01, -0.02],
                                       [0.1, 0.2, 0.3]])
    def test_times_start_at_zero_and_increase(self, times):
        with pytest.raises(ValueError):
            ObservationPath(times=np.array(times), increments=np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("shape", [(2, 1), (2, 1, 1, 1), (3, 1, 1)])
    def test_increments_are_one_per_step_as_t_r_d(self, shape):
        with pytest.raises(ValueError):
            ObservationPath(times=np.array([0.0, 0.1, 0.2]), increments=np.zeros(shape))


class _ZeroRng:
    """Deterministic override: all Gaussian draws are zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)
