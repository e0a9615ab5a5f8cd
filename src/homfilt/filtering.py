"""Weighted-particle filters for the full and reduced models, plus a Kalman reference.

Both filters are bootstrap filters: particles move through the prior dynamics
and are reweighted by the one-step discrete Girsanov factor
exp(h * dY - 0.5 |h|^2 dt), with systematic resampling when the effective
sample size drops below a threshold fraction.  The reduced filter runs on the
slow coordinates only but consumes the same observation increments as the full
filter -- that pairing is the whole point of the construction.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .averaging import HomogenizedModel
from .errors import BlowUpError, UsageError, WeightCollapseError
from .models import (MultiscaleModel, ObservationPath, euler_maruyama,
                     multiscale_step)
from .rng import StreamBatch


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted particle cloud at a fixed time."""

    states: np.ndarray   # (N, dim)
    weights: np.ndarray  # (N,), nonnegative, summing to 1

    def __post_init__(self):
        if len(self.states) != len(self.weights) or len(self.states) < 1:
            raise ValueError("states and weights must have equal length >= 1")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    def mean(self) -> np.ndarray:
        return self.weights @ self.states


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int
    resample_threshold: float = 0.5

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise ValueError("resample_threshold must lie in (0, 1]")


def gaussian_init_joint(mean: float, std: float, m: int, n: int) -> Callable:
    """Initial sampler for the full filter: x ~ N(mean, std^2) per coordinate,
    and z one standard normal away from x's first coordinate, near the frozen
    stationary law.  ``init(rng, shape)`` returns x of shape ``shape + (m,)``
    and z of shape ``shape + (n,)``, drawn in that order."""
    def init(rng, shape):
        x = mean + std * rng.standard_normal(shape + (m,))
        return x, x[..., :1] + rng.standard_normal(shape + (n,))
    return init


def gaussian_init_slow(mean: float, std: float, m: int) -> Callable:
    """Initial sampler for the reduced filter: the x draws of ``gaussian_init_joint``."""
    def init(rng, shape):
        return mean + std * rng.standard_normal(shape + (m,))
    return init


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray        # (m,)
    covariance: np.ndarray  # (m, m), symmetric PSD


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_i^2) of normalized weights."""
    w = np.asarray(weights)
    return 1.0 / float(w @ w)


def _reweight(weights: np.ndarray, obs_values: np.ndarray, obs_increments: np.ndarray,
              dt: float) -> tuple:
    """Girsanov reweighting of R weight rows at once.

    weights (R, N), obs_values (R, N, d), obs_increments (R, d).  Returns the
    renormalized weights and each row's largest log-weight; a row whose
    largest log-weight is not finite has collapsed, and its weights are NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = (np.log(weights) + (obs_values @ obs_increments[:, :, None])[..., 0]
                - 0.5 * np.einsum("...d,...d->...", obs_values, obs_values) * dt)
        mx = logw.max(axis=1)
        w = np.exp(logw - mx[:, None])
        w /= w.sum(axis=1, keepdims=True)
    return w, mx


def weight_update(ensemble: ParticleEnsemble, obs_increment: np.ndarray,
                  obs_values: np.ndarray, dt: float) -> ParticleEnsemble:
    """Multiply weights by the discrete Girsanov factor and renormalize.

    obs_values[i] is the (averaged) read-out evaluated at particle i; the
    factor is exp(obs_values[i] . dY - 0.5 |obs_values[i]|^2 dt).  Weights are
    accumulated in log space with max-subtraction to avoid underflow.
    """
    dy = np.atleast_1d(np.asarray(obs_increment, dtype=float))
    hv = np.asarray(obs_values, dtype=float)
    if hv.ndim == 1:
        hv = hv[:, None]
    w, mx = _reweight(ensemble.weights[None], hv[None], dy[None], dt)
    if not np.isfinite(mx[0]):
        raise WeightCollapseError(float(mx[0]))
    return ParticleEnsemble(states=ensemble.states, weights=w[0])


def _systematic_indices(weights: np.ndarray, u: float, n: int) -> np.ndarray:
    """Offspring indices of ``n`` systematic draws at offset ``u`` in [0, 1)."""
    positions = (u + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, len(weights) - 1)  # cumsum rounding at 1.0


def systematic_resample(ensemble: ParticleEnsemble,
                        rng: np.random.Generator) -> ParticleEnsemble:
    """Systematic (single-uniform stratified) resampling to uniform weights.

    Offspring counts are determined by one uniform draw; the expected count of
    particle i is exactly N * w_i.
    """
    n = len(ensemble.weights)
    idx = _systematic_indices(ensemble.weights, rng.uniform(), n)
    return ParticleEnsemble(states=ensemble.states[idx], weights=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class FilterBatch:
    """Filters of R replications run together, at their final time.

    ``errors[r]`` is None, or the HomfiltError that stopped replication r,
    whose final states are meaningless.
    """

    states: np.ndarray   # (R, N, dim)
    weights: np.ndarray  # (R, N)
    errors: list

    def ensemble(self, r: int) -> ParticleEnsemble:
        return ParticleEnsemble(states=self.states[r], weights=self.weights[r])


def _fail(errors: list, rows: np.ndarray, make: Callable):
    """Record ``make(r)`` as the error of each listed row that has none yet."""
    for r in np.flatnonzero(rows):
        if errors[r] is None:
            errors[r] = make(r)


def _run_filter(propagate: Callable, read_out: Callable, obs: ObservationPath,
                init_states: np.ndarray, cfg: FilterConfig, rngs: StreamBatch,
                summary_sink: Optional[Callable]) -> FilterBatch:
    """The filter loop, over R replications held as (R, N, dim) states and (R, N) weights.

    ``obs`` holds R replications on a uniform grid (``ObservationPath``
    checks it), and each step is ``propagate(states, rngs, dt)`` with that
    grid's step, ``times[1]``.  Row r draws only
    from ``rngs[r]``, in the order a lone run of it draws, and every
    operation acts row by row, so each row equals its own R = 1 run bit for
    bit.  A row that goes non-finite or whose weights collapse
    gets its error recorded and runs on as NaN without touching other rows;
    the loop stops once every row has failed.  Only the final states are
    kept, so memory does not grow with the horizon.
    """
    n = cfg.n_particles
    n_rows = len(init_states)
    increments = np.asarray(obs.increments, dtype=float)
    if increments.shape[1] != n_rows:
        raise ValueError(f"observation increments of shape {increments.shape} "
                         f"do not hold {n_rows} replications")
    dt = float(obs.times[1]) if len(increments) else None  # a zero-step path needs none
    states = init_states
    w = np.full((n_rows, n), 1.0 / n)
    errors = [None] * n_rows
    for i in range(len(increments)):
        states = propagate(states, rngs, dt)
        _fail(errors, ~np.isfinite(states).reshape(n_rows, -1).all(axis=1),
              lambda r: BlowUpError(i))
        if None not in errors:
            break
        w, mx = _reweight(w, read_out(states), increments[i], dt)
        _fail(errors, ~np.isfinite(mx), lambda r: WeightCollapseError(float(mx[r])))
        if None not in errors:
            break
        e = np.array([ess(row) for row in w])
        resampled = e < cfg.resample_threshold * n
        for r in np.flatnonzero(resampled):
            states[r] = states[r, _systematic_indices(w[r], rngs[r].uniform(), n)]
            w[r] = 1.0 / n
        if summary_sink is not None:
            summary_sink(float(obs.times[i + 1]), states, w, e, resampled)
    return FilterBatch(states=states, weights=w, errors=errors)


def run_full_filter(model: MultiscaleModel, obs: ObservationPath,
                    init_sampler: Callable, cfg: FilterConfig,
                    rngs: Sequence[np.random.Generator],
                    summary_sink: Optional[Callable] = None) -> FilterBatch:
    """Bootstrap filters over the joint (slow, fast) state, one per replication
    of an observation batch with (T, R, d) increments on a uniform grid, whose
    step the filters take.

    The filters start from ``init_sampler(StreamBatch(rngs), (R, N))``, which
    must return x (R, N, m) and z (R, N, n_fast); row r draws from ``rngs[r]``
    only, then and at every later step.
    ``summary_sink(t, states, weights, ess, resampled)`` sees every step.
    """
    streams = StreamBatch(rngs)
    substeps = model.default_substeps()
    m = model.dim_slow
    init = np.concatenate(init_sampler(streams, (len(rngs), cfg.n_particles)),
                          axis=-1, dtype=float)

    def propagate(states, streams, dt):
        x, z = multiscale_step(model, states[..., :m], states[..., m:], dt,
                               substeps, streams)
        return np.concatenate([x, z], axis=-1)

    def read_out(states):
        return model.obs_fn(states[..., :m], states[..., m:])

    return _run_filter(propagate, read_out, obs, init, cfg, streams, summary_sink)


def run_homogenized_filter(hmodel: HomogenizedModel, obs: ObservationPath,
                           init_sampler: Callable, cfg: FilterConfig,
                           rngs: Sequence[np.random.Generator],
                           summary_sink: Optional[Callable] = None) -> FilterBatch:
    """Bootstrap filters over the slow state only, one per replication of the
    full model's observation batch, as in ``run_full_filter``.

    ``init_sampler(StreamBatch(rngs), (R, N))`` must return x (R, N, m).
    """
    streams = StreamBatch(rngs)

    def propagate(x, streams, dt):
        xi = streams.standard_normal(x.shape)
        return euler_maruyama(x, hmodel.drift_avg(x), hmodel.diff_avg(x), xi, dt)

    init = np.array(init_sampler(streams, (len(rngs), cfg.n_particles)), dtype=float)
    return _run_filter(propagate, hmodel.obs_avg, obs, init, cfg, streams,
                       summary_sink)


def kalman_reference(a_lin: float, q: float, h_lin: float, r: float,
                     obs: ObservationPath, prior: KalmanState) -> List[KalmanState]:
    """Discrete Kalman recursion for the Euler-discretized scalar linear model.

    Model: dX = a_lin X dt + sqrt(q) dV, with each observation increment
    treated as a reading of h_lin * X * dt corrupted by noise of variance
    r * dt.  ``obs`` holds one replication, increments of shape (T, 1, 1).
    Returns the prior followed by the state after each increment.
    """
    if q <= 0 or r <= 0:
        raise UsageError("q and r must be positive")
    if obs.increments.shape[1:] != (1, 1):
        raise ValueError(f"increments {obs.increments.shape} are not one scalar path")
    mean = float(np.asarray(prior.mean).reshape(()))
    var = float(np.asarray(prior.covariance).reshape(()))
    out = [prior]
    for i, dy in enumerate(obs.increments[:, 0, 0]):
        dt = float(obs.times[i + 1] - obs.times[i])
        mean = (1.0 + a_lin * dt) * mean
        var = (1.0 + a_lin * dt) ** 2 * var + q * dt
        hh = h_lin * dt
        s = hh * hh * var + r * dt
        gain = var * hh / s
        mean = mean + gain * (dy - hh * mean)
        var = (1.0 - gain * hh) * var
        out.append(KalmanState(mean=np.array([mean]), covariance=np.array([[var]])))
    return out
