"""Two-timescale signal/observation model and Euler-Maruyama simulation.

A model couples a slow diffusion in R^m to a fast diffusion in R^n whose drift
is scaled by 1/epsilon and diffusion by 1/sqrt(epsilon).  Observations are
noisy time integrals of a read-out function of the joint state.

Coefficient functions must broadcast over a leading batch axis: drifts map
``(..., m), (..., n) -> (..., m)`` (resp. ``(..., n)``), diffusions return
``(..., m, k)`` (resp. ``(..., n, l)``), and the read-out returns ``(..., d)``.
This lets particle filters propagate whole ensembles with one call.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, ModelShapeError

Coeff = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MultiscaleModel:
    """Slow/fast signal model with observation read-out.

    dX = b(X,Z) dt + sigma(X,Z) dV
    dZ = (1/eps) f(X,Z) dt + (1/sqrt(eps)) g(X,Z) dW
    dY = h(X,Z) dt + dB
    """

    dim_slow: int
    dim_fast: int
    dim_obs: int
    dim_noise_slow: int
    dim_noise_fast: int
    drift_slow: Coeff   # b
    diff_slow: Coeff    # sigma
    drift_fast: Coeff   # f
    diff_fast: Coeff    # g
    obs_fn: Coeff       # h
    epsilon: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ModelShapeError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        for name, v in (("dim_slow", self.dim_slow), ("dim_fast", self.dim_fast),
                        ("dim_obs", self.dim_obs), ("dim_noise_slow", self.dim_noise_slow),
                        ("dim_noise_fast", self.dim_noise_fast)):
            if int(v) < 1:
                raise ModelShapeError(f"{name} must be a positive integer, got {v}")
        self._check_shapes()

    def _check_shapes(self):
        m, n = self.dim_slow, self.dim_fast
        probes = [(np.zeros(m), np.zeros(n)),
                  (np.zeros((2, m)), np.zeros((2, n)))]
        expected = {
            "drift_slow": (m,), "diff_slow": (m, self.dim_noise_slow),
            "drift_fast": (n,), "diff_fast": (n, self.dim_noise_fast),
            "obs_fn": (self.dim_obs,),
        }
        for x, z in probes:
            batch = x.shape[:-1]
            for name, tail in expected.items():
                out = np.asarray(getattr(self, name)(x, z))
                if out.shape != batch + tail:
                    raise ModelShapeError(
                        f"{name} returned shape {out.shape}, expected {batch + tail}")

    def with_epsilon(self, epsilon: float) -> "MultiscaleModel":
        return MultiscaleModel(
            self.dim_slow, self.dim_fast, self.dim_obs,
            self.dim_noise_slow, self.dim_noise_fast,
            self.drift_slow, self.diff_slow, self.drift_fast, self.diff_fast,
            self.obs_fn, epsilon)

    def default_substeps(self) -> int:
        """Fast substep count keeping the 1/eps drift stable: ceil(1/eps)."""
        return int(np.ceil(1.0 / self.epsilon))


@dataclass(frozen=True)
class SignalPath:
    """Joint trajectory of the slow and fast components on the slow time grid."""

    times: np.ndarray        # (T+1,), strictly increasing, times[0] = 0
    slow_states: np.ndarray  # (T+1, m)
    fast_states: np.ndarray  # (T+1, n)

    def __post_init__(self):
        t = np.asarray(self.times)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and be strictly increasing")
        if len(t) != len(self.slow_states) or len(t) != len(self.fast_states):
            raise ValueError("times and state sequences must have equal length")


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments over each step of a time grid."""

    times: np.ndarray       # (T+1,)
    increments: np.ndarray  # (T, d)

    def __post_init__(self):
        if len(self.increments) != len(self.times) - 1:
            raise ValueError("need exactly one increment per grid step")

    @property
    def dt(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))


def _check_finite(arr: np.ndarray, step: int):
    if not np.all(np.isfinite(arr)):
        raise BlowUpError(step)


def multiscale_step(model: MultiscaleModel, x: np.ndarray, z: np.ndarray,
                    dt: float, substeps: int, rng: np.random.Generator,
                    step_index: int = 0, check_finite: bool = True
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One slow step of size ``dt``: fast substeps with x frozen, then the slow update.

    Lie splitting: z is advanced through ``substeps`` Euler substeps with drift
    scaled by 1/eps and diffusion by 1/sqrt(eps), after which x takes a single
    Euler step using the updated z.  Works on single states or batches.

    Each update adds to the current state, and a non-finite value plus
    anything stays non-finite, so one check after the slow update catches a
    blow-up in any substep and raises BlowUpError(step_index).  A caller that
    handles failures row by row passes ``check_finite=False``.
    """
    eps = model.epsilon
    dt_f = dt / substeps
    batch = x.shape[:-1]
    for _ in range(substeps):
        xi = rng.standard_normal(batch + (model.dim_noise_fast,))
        gz = model.diff_fast(x, z)
        z = (z + model.drift_fast(x, z) * (dt_f / eps)
             + np.einsum("...nl,...l->...n", gz, xi) * np.sqrt(dt_f / eps))
    xi = rng.standard_normal(batch + (model.dim_noise_slow,))
    sx = model.diff_slow(x, z)
    x = (x + model.drift_slow(x, z) * dt
         + np.einsum("...mk,...k->...m", sx, xi) * np.sqrt(dt))
    if check_finite:
        _check_finite(z, step_index)
        _check_finite(x, step_index)
    return x, z


def simulate_multiscale(model: MultiscaleModel, x0: np.ndarray, z0: np.ndarray,
                        horizon: float, dt_slow: float,
                        substeps_fast: Optional[int] = None,
                        rng: Optional[np.random.Generator] = None,
                        check_finite: bool = True) -> SignalPath:
    """Euler-Maruyama path of the joint system, sampled on the slow grid.

    ``x0`` and ``z0`` may carry a leading batch axis of independent paths;
    the states then have shape ``(T+1, batch, m)`` and ``(T+1, batch, n)``.
    ``check_finite`` is passed on to ``multiscale_step``.
    """
    if rng is None:
        rng = np.random.default_rng()
    if substeps_fast is None:
        substeps_fast = model.default_substeps()
    if dt_slow > horizon:
        raise ValueError("dt_slow must not exceed the horizon")
    n_steps = int(round(horizon / dt_slow))
    times = np.arange(n_steps + 1) * dt_slow
    x = np.asarray(x0, dtype=float)
    z = np.asarray(z0, dtype=float)
    xs = np.empty((n_steps + 1,) + x.shape[:-1] + (model.dim_slow,))
    zs = np.empty((n_steps + 1,) + z.shape[:-1] + (model.dim_fast,))
    xs[0], zs[0] = x, z
    for i in range(n_steps):
        x, z = multiscale_step(model, x, z, dt_slow, substeps_fast, rng,
                               step_index=i, check_finite=check_finite)
        xs[i + 1], zs[i + 1] = x, z
    return SignalPath(times=times, slow_states=xs, fast_states=zs)


def simulate_frozen_fast(model: MultiscaleModel, x: np.ndarray, z0: np.ndarray,
                         horizon: float, dt: float,
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Path of the frozen-x fast process dZ = f(x,Z) dt + g(x,Z) dW at natural speed.

    No epsilon scaling is applied: the rescaled process is the same up to a
    deterministic time change, and only time averages of it are ever used.
    ``z0`` may carry a leading batch axis for independent replicates; the
    returned array then has shape ``(T+1, batch, n)``.
    """
    if rng is None:
        rng = np.random.default_rng()
    if dt > horizon:
        raise ValueError("dt must not exceed the horizon")
    n_steps = int(round(horizon / dt))
    z = np.asarray(z0, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), z.shape[:-1] + (model.dim_slow,))
    out = np.empty((n_steps + 1,) + z.shape)
    out[0] = z
    sq = np.sqrt(dt)
    for i in range(n_steps):
        xi = rng.standard_normal(z.shape[:-1] + (model.dim_noise_fast,))
        gz = model.diff_fast(x, z)
        z = z + model.drift_fast(x, z) * dt + np.einsum("...nl,...l->...n", gz, xi) * sq
        _check_finite(z, i)
        out[i + 1] = z
    return out


def simulate_observations(signal: SignalPath, model: MultiscaleModel,
                          rng: Optional[np.random.Generator] = None) -> ObservationPath:
    """Increments dY_i = h(x_i, z_i) dt_i + sqrt(dt_i) xi_i along a signal path."""
    if rng is None:
        rng = np.random.default_rng()
    times = np.asarray(signal.times)
    if len(times) < 2:
        raise ValueError("signal path must contain at least one step")
    dts = np.diff(times)
    h = model.obs_fn(signal.slow_states[:-1], signal.fast_states[:-1])
    xi = rng.standard_normal((len(dts), model.dim_obs))
    inc = h * dts[:, None] + xi * np.sqrt(dts)[:, None]
    return ObservationPath(times=times, increments=inc)
