import numpy as np
import pytest

from homfilt import catalog
from homfilt.errors import ModelShapeError
from homfilt.models import (MultiscaleModel, ObservationPath, blow_up_steps,
                            fast_step, multiscale_step, simulate_frozen_fast,
                            simulate_multiscale, simulate_observations, step_count)
from homfilt.rng import StreamBatch

from conftest import const_mat


def make_model(b=None, sigma=0.0, f=None, g=0.0, h=None, epsilon=1.0):
    return MultiscaleModel(
        dim_slow=1, dim_fast=1,
        drift_slow=b or (lambda x, z: np.zeros_like(x)),
        diff_slow=const_mat(sigma),
        drift_fast=f or (lambda x, z: np.zeros_like(z)),
        diff_fast=const_mat(g),
        obs_fn=h or (lambda x, z: np.zeros_like(x)),
        epsilon=epsilon)


class TestSimulateMultiscale:
    def test_zero_dynamics_constant_path(self, rng):
        model = make_model()
        xs, zs = simulate_multiscale(model, np.array([1.5]), np.array([-2.0]),
                                     1.0, 0.1, rng=rng)
        assert xs.shape == zs.shape == (11, 1)
        assert np.all(xs == 1.5)
        assert np.all(zs == -2.0)

    def test_linear_ode_oracle(self, rng):
        # dX = -X dt with no noise: X(1) = e^{-1}
        model = make_model(b=lambda x, z: -x)
        xs, _ = simulate_multiscale(model, np.array([1.0]), np.array([0.0]),
                                    1.0, 1e-3, rng=rng)
        assert abs(xs[-1, 0] - np.exp(-1.0)) < 2e-3

    def test_fast_ou_stationary_variance(self):
        # Frozen slow state; fast OU with unit stationary variance.
        model = make_model(f=lambda x, z: -(z - x), g=np.sqrt(2.0), epsilon=0.01)
        _, zs = simulate_multiscale(model, np.array([0.0]), np.array([0.0]),
                                    1.0, 1e-3, rng=np.random.default_rng(2))
        late = zs[np.arange(len(zs)) * 1e-3 >= 0.5, 0]
        assert abs(late.var() - 1.0) < 0.1

    def test_determinism(self):
        model = make_model(b=lambda x, z: -x, sigma=0.3,
                           f=lambda x, z: -(z - x), g=1.0)
        p1 = simulate_multiscale(model, np.array([1.0]), np.array([0.0]), 1.0,
                                 0.01, rng=np.random.default_rng(7))
        p2 = simulate_multiscale(model, np.array([1.0]), np.array([0.0]), 1.0,
                                 0.01, rng=np.random.default_rng(7))
        assert np.array_equal(p1[0], p2[0])
        assert np.array_equal(p1[1], p2[1])

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self):
        model = make_model(b=lambda x, z: x ** 3)
        x0, z0 = np.array([10.0]), np.array([0.0])
        xs, zs = simulate_multiscale(model, x0, z0, 5.0, 0.5,
                                     rng=np.random.default_rng(12345))
        step = int(blow_up_steps(xs, zs))
        assert step >= 0
        # A hand-run loop on the same generator: state k + 1 comes out of step k.
        rng, x, z = np.random.default_rng(12345), x0, z0
        for k in range(10):
            x, z = multiscale_step(model, x, z, 0.5, model.default_substeps(), rng)
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                break
        assert step == k

    def test_blow_up_steps_of_a_batch(self):
        xs = np.zeros((5, 3, 1))
        zs = np.zeros((5, 3, 2))
        xs[2, 0] = np.inf
        zs[4, 1, 1] = np.nan
        assert blow_up_steps(xs, zs).tolist() == [1, 3, -1]

    def test_shape_error_at_registration(self):
        with pytest.raises(ModelShapeError):
            MultiscaleModel(
                dim_slow=1, dim_fast=1,
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


class TestStepCount:
    @pytest.mark.parametrize("span, dt, n", [(1.0, 0.1, 10), (0.3, 0.02, 15),
                                             (20.0, 1e-3, 20000), (0.5, 0.5, 1)])
    def test_whole_number_of_steps(self, span, dt, n):
        assert step_count(span, dt) == n

    @pytest.mark.parametrize("span, dt", [(1.0, 0.3), (0.25, 0.1), (0.001, 0.01),
                                          (1.0, 0.0), (1.0, -0.1), (np.inf, 0.1),
                                          (np.nan, 0.1), (1.0, np.nan),
                                          (1.0e300, 1.0e-300)])
    def test_rejects_a_partial_or_empty_grid(self, span, dt):
        with pytest.raises(ValueError):
            step_count(span, dt)

    def test_simulators_reject_a_partial_last_step(self, rng):
        model, start = make_model(), np.zeros(1)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            simulate_multiscale(model, start, start, 1.0, 0.3, rng=rng)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            simulate_frozen_fast(model, start, start, 1.0, 0.3, rng=rng)


class TestSimulateObservations:
    def test_pure_noise_variance(self, rng):
        model = make_model()
        dt = 0.01
        states = np.zeros((100001, 1))
        obs = simulate_observations(states, states, model, dt, rng=rng)
        assert abs(obs.increments.var() - dt) < 0.05 * dt

    def test_noise_free_constant_read_out(self):
        model = make_model(h=lambda x, z: np.ones_like(x))
        states = np.zeros((11, 1))
        obs = simulate_observations(states, states, model, 0.01, rng=_ZeroRng())
        assert np.array_equal(obs.times, np.arange(11) * 0.01)
        assert np.allclose(obs.increments, 0.01, rtol=0, atol=1e-15)

    def test_a_lone_state_is_refused(self, rng):
        with pytest.raises(ValueError, match="at least one step"):
            simulate_observations(np.zeros((1, 1)), np.zeros((1, 1)), make_model(), 0.01,
                                  rng=rng)

    def test_noise_free_linear_read_out(self):
        model = make_model(h=lambda x, z: x)
        obs = simulate_observations(np.full((11, 1), 2.0), np.zeros((11, 1)), model,
                                    0.01, rng=_ZeroRng())
        assert obs.increments.shape == (10, 1, 1)  # a lone path is one replication
        assert np.allclose(obs.increments, 0.02, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", ["ou_benchmark", "sinusoidal"])
    def test_batch_rows_equal_lone_calls(self, family):
        model = catalog.make_model(family, epsilon=0.25)
        start = np.linspace(-0.5, 0.5, 3)[:, None]
        xs, zs = simulate_multiscale(model, start, start, 0.2, 0.02,
                                     rng=np.random.default_rng(7))
        gens = [np.random.default_rng(100 + r) for r in range(3)]
        batch = simulate_observations(xs, zs, model, 0.02, rng=StreamBatch(gens))
        assert batch.increments.shape == (10, 3, 1)
        for r in range(3):
            lone = simulate_observations(xs[:, r], zs[:, r], model, 0.02,
                                         rng=np.random.default_rng(100 + r))
            assert batch.increments[:, r].tobytes() == lone.increments.tobytes()
        with pytest.raises(ValueError, match="leading axis 2 != 3 streams"):
            StreamBatch(gens).standard_normal((2, 1))


class TestObservationPath:
    @pytest.mark.parametrize("times", [[0.0, 0.0, 0.1], [0.0, -0.01, -0.02],
                                       [0.1, 0.2, 0.3], []])
    def test_times_start_at_zero_and_increase(self, times):
        with pytest.raises(ValueError):
            ObservationPath(times=np.array(times), increments=np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("shape", [(2, 1), (2, 1, 1, 1), (3, 1, 1)])
    def test_increments_are_one_per_step_as_t_r_d(self, shape):
        with pytest.raises(ValueError):
            ObservationPath(times=np.array([0.0, 0.1, 0.2]), increments=np.zeros(shape))


class _ZeroRng:
    """Deterministic override: all Gaussian draws are zero, and each shape
    asked for is kept in ``shapes``."""

    def __init__(self):
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return np.zeros(shape)


class _ConstantRng:
    """Deterministic override: every Gaussian draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def _euler_chain(model, x, h, substeps):
    """The S-fold Euler recursion of a diagonal affine fast block with x frozen,
    run on the law of each coordinate of z: z_S = coef z_0 + offset + N(0, var),
    read from the model's ``drift_fast`` and ``diff_fast``, not from ``fast_ou``."""
    zero = np.zeros(model.dim_fast)
    f0 = model.drift_fast(x, zero)
    slope = model.drift_fast(x, zero + 1.0) - f0
    g = np.diagonal(model.diff_fast(x, zero))
    coef, offset, var = 1.0, 0.0, 0.0
    for _ in range(substeps):
        a = 1.0 + slope * h
        coef, offset, var = a * coef, a * offset + f0 * h, a * a * var + g * g * h
    return coef, offset, var


def _law_model(name, epsilon):
    """A catalog family, or a hand-built OU block given as fast_ou: ``linear``,
    a linear-Gaussian slow block beside the unit OU block (1, 0, 1) that x does
    not drive, or ``ou_2d``, an n = 2 block."""
    if name == "linear":
        return MultiscaleModel(
            dim_slow=1, dim_fast=1, drift_slow=lambda x, z: -x, diff_slow=const_mat(1.0),
            obs_fn=lambda x, z: x, fast_ou=(1.0, np.zeros_like, 1.0), epsilon=epsilon)
    if name != "ou_2d":
        return catalog.make_model(name, epsilon)
    return MultiscaleModel(
        dim_slow=1, dim_fast=2, drift_slow=lambda x, z: -x + z[..., :1],
        diff_slow=const_mat(0.5), obs_fn=lambda x, z: z,
        fast_ou=(1.3, lambda x: np.concatenate([x, 0.5 - 2.0 * x], -1), 0.8),
        epsilon=epsilon)


class TestExactFastStep:
    X = np.array([0.3])

    @pytest.mark.parametrize("family", sorted(catalog._FAMILIES) + ["linear", "ou_2d"])
    @pytest.mark.parametrize("epsilon", [1 / 2, 1 / 16, 1 / 64, 0.05])
    @pytest.mark.parametrize("dt", [0.01, 0.02])
    def test_law_equals_the_euler_chains(self, family, epsilon, dt):
        model = _law_model(family, epsilon)
        assert model.fast_ou is not None
        substeps = model.default_substeps()
        coef, offset, var = _euler_chain(model, self.X, dt / substeps / epsilon, substeps)

        def end_state(z0, xi):
            _, z = multiscale_step(model, self.X, np.full(model.dim_fast, z0), dt,
                                   substeps, _ConstantRng(xi))
            return z

        self._check_law(end_state, coef, offset, var)

    # S = 1 at an averager's step, as _frozen_sums and simulate_frozen_fast take it.
    @pytest.mark.parametrize("family", sorted(catalog._FAMILIES) + ["linear", "ou_2d"])
    @pytest.mark.parametrize("h", [1e-3, 1e-2])
    def test_one_substep_law_equals_one_euler_step(self, family, h):
        model = _law_model(family, 1.0)
        coef, offset, var = _euler_chain(model, self.X, h, 1)

        def end_state(z0, xi):
            return fast_step(model, self.X, np.full(model.dim_fast, z0), h, 1,
                             _ConstantRng(xi))

        self._check_law(end_state, coef, offset, var)

    @staticmethod
    def _check_law(end_state, coef, offset, var):
        np.testing.assert_allclose(end_state(0.0, 0.0), offset, rtol=1e-12, atol=0)
        np.testing.assert_allclose(end_state(1.0, 0.0) - end_state(0.0, 0.0), coef,
                                   rtol=1e-12)
        np.testing.assert_allclose((end_state(0.0, 1.0) - end_state(0.0, 0.0)) ** 2,
                                   var, rtol=1e-12)

    @pytest.mark.parametrize("family", sorted(catalog._FAMILIES) + ["linear"])
    def test_draws_have_the_euler_chains_law(self, family):
        model = _law_model(family, 1 / 16)
        n, dt, z0 = 200_000, 0.02, 1.0
        substeps = model.default_substeps()
        coef, offset, var = _euler_chain(model, self.X, dt / substeps / model.epsilon,
                                         substeps)
        _, z = multiscale_step(model, np.full((n, 1), self.X), np.full((n, 1), z0), dt,
                               substeps, np.random.default_rng(8))
        mean = coef * z0 + offset
        assert abs(z.mean() - mean) < 5 * np.sqrt(var / n)
        assert abs(z.var(ddof=1) - var) < 5 * var * np.sqrt(2.0 / (n - 1))

    def test_model_without_the_triple_substeps_bit_for_bit(self):
        def f(x, z):
            return np.sin(x) - z - 0.3 * z ** 3
        model = make_model(b=lambda x, z: -x + z, sigma=0.4, f=f, g=0.7, epsilon=0.1)
        assert model.fast_ou is None
        dt, substeps = 0.02, 10
        x0, z0 = np.full((5, 1), 0.2), np.linspace(-1.0, 1.0, 5)[:, None]
        x, z = multiscale_step(model, x0, z0, dt, substeps, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        h = dt / substeps / model.epsilon
        hand_z = z0
        for _ in range(substeps):
            xi = rng.standard_normal((5, 1))
            hand_z = hand_z + f(x0, hand_z) * h + (0.7 * xi) * np.sqrt(h)
        xi = rng.standard_normal((5, 1))
        hand_x = x0 + (-x0 + hand_z) * dt + (0.4 * xi) * np.sqrt(dt)
        assert np.array_equal(z, hand_z)
        assert np.array_equal(x, hand_x)

    def test_model_without_the_triple_composes_one_substep_calls(self):
        # S substeps in one call draw and step as S calls of one substep.
        model = make_model(f=lambda x, z: np.sin(x) - z - 0.3 * z ** 3, g=0.7)
        x, z0 = np.full((5, 1), 0.2), np.linspace(-1.0, 1.0, 5)[:, None]
        z = fast_step(model, x, z0, 0.01, 7, np.random.default_rng(5))
        rng, one_by_one = np.random.default_rng(5), z0
        for _ in range(7):
            one_by_one = fast_step(model, x, one_by_one, 0.01, 1, rng)
        assert np.array_equal(z, one_by_one)


def _ou(**fields):
    """A scalar model with the OU fast block (1, x, 1), as changed by ``fields``."""
    return MultiscaleModel(**{
        "dim_slow": 1, "dim_fast": 1, "drift_slow": lambda x, z: np.zeros_like(x),
        "diff_slow": const_mat(0.0), "obs_fn": lambda x, z: np.zeros_like(x),
        "fast_ou": (1.0, lambda x: x, 1.0), **fields})


class TestModelForm:
    def test_widths_are_read_off_the_coefficients(self):
        model = MultiscaleModel(
            dim_slow=2, dim_fast=2, drift_slow=lambda x, z: -x + z,
            diff_slow=const_mat(0.3, rows=2, cols=3),
            obs_fn=lambda x, z: np.concatenate([x, z], -1),
            fast_ou=(1.0, lambda x: x, 0.5), epsilon=0.25)
        assert (model.dim_obs, model.dim_noise_slow, model.dim_noise_fast) == (4, 3, 2)
        assert model.diff_fast(np.zeros(2), np.zeros(2)).tolist() == [[0.5, 0.0],
                                                                      [0.0, 0.5]]
        start = np.full((5, 2), 0.1)
        rng = _ZeroRng()
        x, z = multiscale_step(model, start, start, 0.02, 4, rng)
        assert x.shape == z.shape == (5, 2)
        assert rng.shapes == [(5, 2), (5, 3)]
        rng = _ZeroRng()
        obs = simulate_observations(np.stack([start, x]), np.stack([start, z]), model,
                                    0.02, rng)
        assert obs.increments.shape == (1, 5, 4)
        assert rng.shapes == [(5, 1, 4)]

    @pytest.mark.parametrize("fields", [
        {"drift_fast": lambda x, z: -(z - x), "diff_fast": const_mat(1.0)},
        {"fast_ou": None},
        {"fast_ou": None, "drift_fast": lambda x, z: -(z - x)},
        {"diff_slow": const_mat(0.0, cols=0)},
        {"obs_fn": lambda x, z: x[..., :0]},
        {"fast_ou": (1.0, lambda x: np.concatenate([x, x], -1), 1.0)},
        {"dim_slow": 0, "diff_slow": lambda x, z: np.zeros(x.shape + (1,)),
         "obs_fn": lambda x, z: z, "fast_ou": (1.0, lambda x: np.zeros(1), 1.0)},
    ], ids=["both_forms", "neither_form", "drift_fast_alone", "zero_width_diff_slow",
            "zero_width_obs_fn", "mu_width", "no_slow_state"])
    def test_ill_formed_model_is_refused(self, fields):
        with pytest.raises(ModelShapeError):
            _ou(**fields)
