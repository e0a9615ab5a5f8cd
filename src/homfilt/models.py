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
from typing import Callable

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

    def default_substeps(self) -> int:
        """Fast substep count keeping the 1/eps drift stable: ceil(1/eps)."""
        return int(np.ceil(1.0 / self.epsilon))


def _check_times(times) -> np.ndarray:
    t = np.asarray(times)
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("times must start at 0 and be strictly increasing")
    return t


@dataclass(frozen=True)
class SignalPath:
    """Joint trajectory of the slow and fast components on the slow time grid."""

    times: np.ndarray        # (T+1,), strictly increasing, times[0] = 0
    slow_states: np.ndarray  # (T+1, m), or (T+1, R, m) for R replications
    fast_states: np.ndarray  # (T+1, n), or (T+1, R, n)

    def __post_init__(self):
        t = _check_times(self.times)
        if len(t) != len(self.slow_states) or len(t) != len(self.fast_states):
            raise ValueError("times and state sequences must have equal length")


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments of R replications over each step of a time grid."""

    times: np.ndarray       # (T+1,), strictly increasing, times[0] = 0
    increments: np.ndarray  # (T, R, d)

    def __post_init__(self):
        steps = len(_check_times(self.times)) - 1
        if np.ndim(self.increments) != 3 or len(self.increments) != steps:
            raise ValueError(f"increments of shape {np.shape(self.increments)} are not "
                             f"laid out as (T, R, d) with one row per step, T = {steps}")


def euler_maruyama(y: np.ndarray, drift: np.ndarray, diff: np.ndarray,
                   xi: np.ndarray, h: float) -> np.ndarray:
    """One Euler-Maruyama step of size ``h``, with ``diff`` of shape
    ``(..., dim, k)`` acting on standard normals ``xi`` of shape ``(..., k)``."""
    return y + drift * h + np.einsum("...ik,...k->...i", diff, xi) * np.sqrt(h)


def multiscale_step(model: MultiscaleModel, x: np.ndarray, z: np.ndarray,
                    dt: float, substeps: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One slow step of size ``dt``: fast substeps with x frozen, then the slow update.

    Lie splitting: z is advanced through ``substeps`` Euler substeps with drift
    scaled by 1/eps and diffusion by 1/sqrt(eps), after which x takes a single
    Euler step using the updated z.  Works on single states or batches.
    """
    h_fast = dt / substeps / model.epsilon
    batch = x.shape[:-1]
    for _ in range(substeps):
        xi = rng.standard_normal(batch + (model.dim_noise_fast,))
        z = euler_maruyama(z, model.drift_fast(x, z), model.diff_fast(x, z), xi, h_fast)
    xi = rng.standard_normal(batch + (model.dim_noise_slow,))
    x = euler_maruyama(x, model.drift_slow(x, z), model.diff_slow(x, z), xi, dt)
    return x, z


def simulate_multiscale(model: MultiscaleModel, x0: np.ndarray, z0: np.ndarray,
                        horizon: float, dt_slow: float, rng: np.random.Generator,
                        check_finite: bool = True) -> SignalPath:
    """Euler-Maruyama path of the joint system, sampled on the slow grid, with
    ``model.default_substeps()`` fast substeps per slow step.

    ``x0`` and ``z0`` may carry a leading batch axis of independent paths;
    the states then have shape ``(T+1, batch, m)`` and ``(T+1, batch, n)``.
    With ``check_finite``, a non-finite state after slow step i raises BlowUpError(i);
    a non-finite value stays non-finite, so this also catches any substep's blow-up.
    """
    if dt_slow > horizon:
        raise ValueError("dt_slow must not exceed the horizon")
    n_steps = int(round(horizon / dt_slow))
    substeps = model.default_substeps()
    times = np.arange(n_steps + 1) * dt_slow
    x = np.asarray(x0, dtype=float)
    z = np.asarray(z0, dtype=float)
    xs = np.empty((n_steps + 1,) + x.shape[:-1] + (model.dim_slow,))
    zs = np.empty((n_steps + 1,) + z.shape[:-1] + (model.dim_fast,))
    xs[0], zs[0] = x, z
    for i in range(n_steps):
        x, z = multiscale_step(model, x, z, dt_slow, substeps, rng)
        if check_finite and not (np.isfinite(z).all() and np.isfinite(x).all()):
            raise BlowUpError(i)
        xs[i + 1], zs[i + 1] = x, z
    return SignalPath(times=times, slow_states=xs, fast_states=zs)


def simulate_frozen_fast(model: MultiscaleModel, x: np.ndarray, z0: np.ndarray,
                         horizon: float, dt: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Path of the frozen-x fast process dZ = f(x,Z) dt + g(x,Z) dW at natural speed.

    No epsilon scaling is applied: the rescaled process is the same up to a
    deterministic time change, and only time averages of it are ever used.
    ``z0`` may carry a leading batch axis for independent replicates; the
    returned array then has shape ``(T+1, batch, n)``.
    """
    if dt > horizon:
        raise ValueError("dt must not exceed the horizon")
    n_steps = int(round(horizon / dt))
    z = np.asarray(z0, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), z.shape[:-1] + (model.dim_slow,))
    out = np.empty((n_steps + 1,) + z.shape)
    out[0] = z
    for i in range(n_steps):
        xi = rng.standard_normal(z.shape[:-1] + (model.dim_noise_fast,))
        z = euler_maruyama(z, model.drift_fast(x, z), model.diff_fast(x, z), xi, dt)
        if not np.isfinite(z).all():
            raise BlowUpError(i)
        out[i + 1] = z
    return out


def simulate_observations(signal: SignalPath, model: MultiscaleModel,
                          rng: np.random.Generator) -> ObservationPath:
    """Increments dY_i = h(x_i, z_i) dt_i + sqrt(dt_i) xi_i along a signal path.

    States of shape ``(T+1, R, ·)`` give increments of shape ``(T, R, d)``, and a
    lone path ``(T+1, ·)`` gives ``(T, 1, d)``.  Through a ``StreamBatch``, row r
    draws the noise that a lone call with generator r draws.
    """
    times = np.asarray(signal.times)
    if len(times) < 2:
        raise ValueError("signal path must contain at least one step")
    dts = np.diff(times)[:, None, None]
    h = model.obs_fn(signal.slow_states[:-1], signal.fast_states[:-1])
    h = h.reshape(len(dts), -1, model.dim_obs)
    xi = np.moveaxis(rng.standard_normal((h.shape[1], len(dts), model.dim_obs)), 1, 0)
    return ObservationPath(times=times, increments=h * dts + xi * np.sqrt(dts))
