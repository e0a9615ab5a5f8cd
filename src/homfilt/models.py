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

from .errors import ModelShapeError

Coeff = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MultiscaleModel:
    """Slow/fast signal model with observation read-out.

    dX = b(X,Z) dt + sigma(X,Z) dV
    dZ = (1/eps) f(X,Z) dt + (1/sqrt(eps)) g(X,Z) dW
    dY = h(X,Z) dt + dB

    The fast block is given either as ``drift_fast`` and ``diff_fast`` or as
    ``fast_ou``, the triple (theta, mu, g) of an Ornstein-Uhlenbeck block
    f(x, z) = -theta (z - mu(x)), g(x, z) = g I with scalars theta and g and
    ``mu`` mapping ``(..., m) -> (..., n)``.  The model then sets ``drift_fast``
    and ``diff_fast`` itself, and ``fast_step`` draws the fast substeps' end
    state in one go.
    """

    dim_slow: int
    dim_fast: int
    drift_slow: Coeff   # b
    diff_slow: Coeff    # sigma
    obs_fn: Coeff       # h
    drift_fast: Optional[Coeff] = None   # f
    diff_fast: Optional[Coeff] = None    # g
    epsilon: float = 1.0
    fast_ou: Optional[tuple] = None  # (theta, mu, g)
    dim_obs: int = field(init=False)         # d, read off obs_fn
    dim_noise_slow: int = field(init=False)  # k, read off diff_slow
    dim_noise_fast: int = field(init=False)  # l, read off diff_fast

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ModelShapeError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if min(self.dim_slow, self.dim_fast) < 1:
            raise ModelShapeError(f"dim_slow={self.dim_slow} and "
                                  f"dim_fast={self.dim_fast} must be positive integers")
        given = (self.drift_fast is not None, self.diff_fast is not None)
        if self.fast_ou is not None and not any(given):
            theta, mu, g = self.fast_ou
            scale = g * np.eye(self.dim_fast)
            object.__setattr__(self, "drift_fast", lambda x, z: -theta * (z - mu(x)))
            object.__setattr__(self, "diff_fast", lambda x, z: np.broadcast_to(
                scale, z.shape[:-1] + scale.shape))
        elif self.fast_ou is not None or not all(given):
            raise ModelShapeError("give either fast_ou or drift_fast and diff_fast")
        self._check_shapes()

    def _check_shapes(self):
        m, n = self.dim_slow, self.dim_fast
        x, z = np.zeros(m), np.zeros(n)
        for name, width in (("obs_fn", "dim_obs"), ("diff_slow", "dim_noise_slow"),
                            ("diff_fast", "dim_noise_fast")):
            shape = np.shape(getattr(self, name)(x, z))
            if not shape or shape[-1] < 1:
                raise ModelShapeError(f"{name} returned shape {shape}, of no width")
            object.__setattr__(self, width, shape[-1])
        expected = {"drift_slow": (m,), "diff_slow": (m, self.dim_noise_slow),
                    "drift_fast": (n,), "diff_fast": (n, self.dim_noise_fast),
                    "obs_fn": (self.dim_obs,)}
        for x, z in ((x, z), (np.full((2, m), 0.5), np.full((2, n), -0.5))):
            batch = x.shape[:-1]
            for name, tail in expected.items():
                out = np.asarray(getattr(self, name)(x, z))
                if out.shape != batch + tail:
                    raise ModelShapeError(
                        f"{name} returned shape {out.shape}, expected {batch + tail}")

    def default_substeps(self) -> int:
        """Fast substep count keeping the 1/eps drift stable: ceil(1/eps)."""
        return int(np.ceil(1.0 / self.epsilon))


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments of R replications over each step of a time grid."""

    times: np.ndarray       # (T+1,), uniform, strictly increasing, times[0] = 0
    increments: np.ndarray  # (T, R, d)

    def __post_init__(self):
        times = np.asarray(self.times)
        steps = np.diff(times)
        if times[0] != 0.0 or np.any(steps <= 0):
            raise ValueError("times must start at 0 and be strictly increasing")
        if not np.allclose(steps, steps[:1], rtol=1e-9, atol=1e-12):
            raise ValueError("observation grid is not uniform")
        if np.ndim(self.increments) != 3 or len(self.increments) != len(steps):
            raise ValueError(f"increments of shape {np.shape(self.increments)} are not "
                             "laid out as (T, R, d) with one row per step, "
                             f"T = {len(steps)}")

    @property
    def dt(self):
        """The grid's step, or None for a path with no steps."""
        return float(self.times[1]) if len(self.times) > 1 else None


def euler_maruyama(y: np.ndarray, drift: np.ndarray, diff: np.ndarray,
                   xi: np.ndarray, h: float) -> np.ndarray:
    """One Euler-Maruyama step of size ``h``, with ``drift`` of the shape of
    ``y`` and ``diff`` of shape ``(..., dim, k)`` acting on standard normals
    ``xi`` of shape ``(..., k)``; the step is a new array."""
    out = drift * h
    np.add(y, out, out=out)
    noise = np.einsum("...ik,...k->...i", diff, xi)
    noise *= np.sqrt(h)
    out += noise
    return out


def fast_step(model: MultiscaleModel, x: np.ndarray, z: np.ndarray, h: float,
              substeps: int, rng: np.random.Generator) -> np.ndarray:
    """z after ``substeps`` Euler substeps of size ``h`` of dZ = f(x,Z) dt +
    g(x,Z) dW with x frozen; a caller scales the block by 1/eps through ``h``.
    With ``model.fast_ou`` = (theta, mu, g) they compose in closed form, and z
    takes one draw of their end state: with a = 1 - theta h, z_S = a^S z +
    (1 - a^S) mu(x) + g sqrt(h sum_{j<S} a^{2j}) xi.
    """
    noise_shape = x.shape[:-1] + (model.dim_noise_fast,)
    if model.fast_ou is None:
        for _ in range(substeps):
            xi = rng.standard_normal(noise_shape)
            z = euler_maruyama(z, model.drift_fast(x, z), model.diff_fast(x, z), xi, h)
        return z
    theta, mu, g = model.fast_ou
    decay = (1.0 - theta * h) ** substeps
    # sum_{j<S} a^{2j} = (1 - a^{2S}) / (1 - a^2), with 1 - a^2 written without
    # cancellation; it is S when a^2 = 1.
    shrink = theta * h * (2.0 - theta * h)
    terms = (1.0 - decay * decay) / shrink if shrink else substeps
    z_new = rng.standard_normal(noise_shape)
    z_new *= g * np.sqrt(h * terms)
    z_new += decay * z
    z_new += (1.0 - decay) * mu(x)
    return z_new


def multiscale_step(model: MultiscaleModel, x: np.ndarray, z: np.ndarray,
                    dt: float, substeps: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One slow step of size ``dt``: fast substeps with x frozen, then the slow update.

    Lie splitting: ``fast_step`` takes z through ``substeps`` substeps of size
    dt / substeps / eps, after which x takes a single Euler step using the
    updated z and a slow normal drawn after the fast ones.  Works on batches too.
    """
    z = fast_step(model, x, z, dt / substeps / model.epsilon, substeps, rng)
    xi = rng.standard_normal(x.shape[:-1] + (model.dim_noise_slow,))
    x = euler_maruyama(x, model.drift_slow(x, z), model.diff_slow(x, z), xi, dt)
    return x, z


def step_count(span: float, dt: float) -> int:
    """The number of steps of size ``dt`` that make up ``span``.

    Raises ValueError unless 0 < dt <= span < inf and span / dt is a whole
    number to within 1e-9 (relative), so no grid is silently cut short.
    """
    if not 0.0 < dt <= span < np.inf:
        raise ValueError(f"need 0 < dt <= span < inf, got dt={dt:g}, span={span:g}")
    n = int(round(span / dt))
    if abs(span / dt - n) > 1e-9 * n:
        raise ValueError(f"span={span:g} is not a whole number of steps of dt={dt:g}")
    return n


def simulate_multiscale(model: MultiscaleModel, x0: np.ndarray, z0: np.ndarray,
                        horizon: float, dt_slow: float, rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama path of the joint system, sampled on the slow grid, with
    ``model.default_substeps()`` fast substeps per slow step.

    Returns the states ``xs (T+1, m)`` and ``zs (T+1, n)``; ``x0`` and ``z0``
    may carry a leading batch axis of independent paths, which gives
    ``(T+1, batch, m)`` and ``(T+1, batch, n)``.  A path that blows up runs on
    with non-finite states; ``blow_up_steps`` finds them.
    """
    n_steps = step_count(horizon, dt_slow)
    substeps = model.default_substeps()
    x = np.asarray(x0, dtype=float)
    z = np.asarray(z0, dtype=float)
    xs = np.empty((n_steps + 1,) + x.shape[:-1] + (model.dim_slow,))
    zs = np.empty((n_steps + 1,) + z.shape[:-1] + (model.dim_fast,))
    xs[0], zs[0] = x, z
    for i in range(n_steps):
        x, z = multiscale_step(model, x, z, dt_slow, substeps, rng)
        xs[i + 1], zs[i + 1] = x, z
    return xs, zs


def blow_up_steps(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Per path of ``simulate_multiscale`` states ``(T+1, R, ·)``, or ``(T+1, ·)``
    for a lone path, the step whose output is the first non-finite state, or -1;
    state k + 1 comes out of step k.  A non-finite value stays non-finite, so
    this also catches a blow-up inside a step's fast substeps."""
    blown = ~(np.isfinite(xs[1:]).all(axis=-1) & np.isfinite(zs[1:]).all(axis=-1))
    return np.where(blown.any(axis=0), np.argmax(blown, axis=0), -1)


def simulate_frozen_fast(model: MultiscaleModel, x: np.ndarray, z0: np.ndarray,
                         horizon: float, dt: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Path of the frozen-x fast process dZ = f(x,Z) dt + g(x,Z) dW at natural speed.

    Each step is one ``fast_step`` substep of size ``dt``, with no epsilon scaling:
    the rescaled process is the same up to a deterministic time change, and only
    time averages of it are ever used.  ``z0`` may carry a leading batch axis for
    independent replicates; the returned array then has shape ``(T+1, batch, n)``.
    """
    n_steps = step_count(horizon, dt)
    z = np.asarray(z0, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), z.shape[:-1] + (model.dim_slow,))
    out = np.empty((n_steps + 1,) + z.shape)
    out[0] = z
    for i in range(n_steps):
        z = fast_step(model, x, z, dt, 1, rng)
        out[i + 1] = z
    return out


def simulate_observations(xs: np.ndarray, zs: np.ndarray, model: MultiscaleModel,
                          dt: float, rng: np.random.Generator) -> ObservationPath:
    """Increments dY_i = h(x_i, z_i) dt + sqrt(dt) xi_i along states ``xs``, ``zs``
    on the grid of step ``dt`` that starts at 0.

    States of shape ``(T+1, R, ·)`` give increments of shape ``(T, R, d)``, and a
    lone path ``(T+1, ·)`` gives ``(T, 1, d)``.  Through a ``StreamBatch``, row r
    draws the noise that a lone call with generator r draws.
    """
    if len(xs) < 2:
        raise ValueError("signal path must contain at least one step")
    h = model.obs_fn(xs[:-1], zs[:-1]).reshape(len(xs) - 1, -1, model.dim_obs)
    xi = np.moveaxis(rng.standard_normal((h.shape[1], len(h), model.dim_obs)), 1, 0)
    return ObservationPath(times=np.arange(len(xs)) * dt,
                           increments=h * dt + xi * np.sqrt(dt))
