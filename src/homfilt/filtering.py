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
from .errors import (BlowUpError, GridMismatchError, UsageError,
                     WeightCollapseError)
from .models import MultiscaleModel, ObservationPath, multiscale_step
from .rng import StreamBatch


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted particle cloud at a fixed time."""

    states: np.ndarray   # (N, dim)
    weights: np.ndarray  # (N,), nonnegative, summing to 1
    time: float = 0.0

    def __post_init__(self):
        if len(self.states) != len(self.weights) or len(self.states) < 1:
            raise ValueError("states and weights must have equal length >= 1")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def n_particles(self) -> int:
        return len(self.weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.states


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int
    dt: float
    resample_threshold: float = 0.5
    substeps_fast: Optional[int] = None  # full filter only; default ceil(1/eps)

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise ValueError("resample_threshold must lie in (0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray        # (m,)
    covariance: np.ndarray  # (m, m), symmetric PSD
    time: float = 0.0


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
    return ParticleEnsemble(states=ensemble.states, weights=w[0], time=ensemble.time)


def _systematic_indices(weights: np.ndarray, u: float, n: int) -> np.ndarray:
    """Offspring indices of ``n`` systematic draws at offset ``u`` in [0, 1)."""
    positions = (u + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, len(weights) - 1)  # cumsum rounding at 1.0


def systematic_resample(ensemble: ParticleEnsemble, rng: np.random.Generator,
                        n_out: Optional[int] = None) -> ParticleEnsemble:
    """Systematic (single-uniform stratified) resampling to uniform weights.

    Offspring counts are determined by one uniform draw; the expected count of
    particle i is exactly n_out * w_i (n_out defaults to the ensemble size).
    """
    n = n_out or ensemble.n_particles
    idx = _systematic_indices(ensemble.weights, rng.uniform(), n)
    return ParticleEnsemble(states=ensemble.states[idx],
                            weights=np.full(n, 1.0 / n),
                            time=ensemble.time)


@dataclass(frozen=True)
class FilterBatch:
    """Filters of R replications run together.

    ``history`` holds ``(states (R, N, dim), weights (R, N), time)`` at time 0
    and after every observation step, or at time 0 and the final time only
    when the run kept no history.  ``errors[r]`` is None, or the HomfiltError
    that stopped replication r, whose later states are meaningless.
    """

    history: list
    errors: list

    def ensemble(self, r: int, k: int = -1) -> ParticleEnsemble:
        states, weights, t = self.history[k]
        return ParticleEnsemble(states=states[r], weights=weights[r], time=t)


def _stack_obs(obs: Sequence[ObservationPath], dt: float) -> tuple:
    """Shared time grid and (R, T, d) increments of R observation paths."""
    for o in obs:
        steps = o.dt
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise GridMismatchError(
                f"observation step {steps[0]:g} does not match filter dt {dt:g}")
    return obs[0].times, np.stack([np.asarray(o.increments, dtype=float) for o in obs])


def _fail(errors: list, rows: np.ndarray, make: Callable):
    """Record ``make(r)`` as the error of each listed row that has none yet."""
    for r in np.flatnonzero(rows):
        if errors[r] is None:
            errors[r] = make(r)


def _run_filter(propagate: Callable, read_out: Callable, times: np.ndarray,
                increments: np.ndarray, init_states: np.ndarray, cfg: FilterConfig,
                rngs: StreamBatch, keep_history: bool,
                summary_sink: Optional[Callable]) -> FilterBatch:
    """The filter loop, over R replications held as (R, N, dim) states and (R, N) weights.

    Row r draws only from ``rngs[r]``, in the order a lone run of it draws,
    and every operation acts row by row, so each row equals its own R = 1
    run bit for bit.  A row that goes non-finite or whose weights collapse
    gets its error recorded and runs on as NaN without touching other rows;
    the loop stops once every row has failed.
    """
    n = cfg.n_particles
    n_rows = len(init_states)
    states, t = init_states, 0.0
    w = np.full((n_rows, n), 1.0 / n)
    errors = [None] * n_rows
    history = [(states, w, t)]
    for i in range(increments.shape[1]):
        t = float(times[i + 1])
        states = propagate(states, rngs, i)
        _fail(errors, ~np.isfinite(states).reshape(n_rows, -1).all(axis=1),
              lambda r: BlowUpError(i))
        if None not in errors:
            break
        w, mx = _reweight(w, read_out(states), increments[:, i], cfg.dt)
        _fail(errors, ~np.isfinite(mx), lambda r: WeightCollapseError(float(mx[r])))
        if None not in errors:
            break
        e = np.array([ess(row) for row in w])
        resampled = e < cfg.resample_threshold * n
        for r in np.flatnonzero(resampled):
            states[r] = states[r, _systematic_indices(w[r], rngs[r].uniform(), n)]
            w[r] = 1.0 / n
        if summary_sink is not None:
            summary_sink(t, states, w, e, resampled)
        if keep_history:
            history.append((states, w, t))
    if not keep_history:
        history = [history[0], (states, w, t)]
    return FilterBatch(history=history, errors=errors)


def run_full_filter_batch(model: MultiscaleModel, obs: Sequence[ObservationPath],
                          init_sampler: Callable, cfg: FilterConfig,
                          rngs: Sequence[np.random.Generator],
                          keep_history: bool = False,
                          summary_sink: Optional[Callable] = None) -> FilterBatch:
    """Bootstrap filters over the joint (slow, fast) state, one per observation path.

    Replication r starts from ``init_sampler(rngs[r], N)``, which must return
    arrays x (N, m) and z (N, n_fast), and then draws only from ``rngs[r]``.
    ``summary_sink(t, states, weights, ess, resampled)`` sees every step.
    """
    times, increments = _stack_obs(obs, cfg.dt)
    substeps = cfg.substeps_fast or model.default_substeps()
    m = model.dim_slow
    init = np.stack([np.concatenate([np.asarray(x, dtype=float),
                                     np.asarray(z, dtype=float)], axis=1)
                     for x, z in (init_sampler(g, cfg.n_particles) for g in rngs)])

    def propagate(states, streams, step):
        x, z = multiscale_step(model, states[..., :m], states[..., m:], cfg.dt,
                               substeps, streams, step_index=step, check_finite=False)
        return np.concatenate([x, z], axis=-1)

    def read_out(states):
        return model.obs_fn(states[..., :m], states[..., m:])

    return _run_filter(propagate, read_out, times, increments, init, cfg,
                       StreamBatch(rngs), keep_history, summary_sink)


def run_homogenized_filter_batch(hmodel: HomogenizedModel,
                                 obs: Sequence[ObservationPath],
                                 init_sampler: Callable, cfg: FilterConfig,
                                 rngs: Sequence[np.random.Generator],
                                 keep_history: bool = False,
                                 summary_sink: Optional[Callable] = None
                                 ) -> FilterBatch:
    """Bootstrap filters over the slow state only, one per observation path.

    ``init_sampler(rngs[r], N)`` must return an array x (N, m).
    """
    times, increments = _stack_obs(obs, cfg.dt)
    sq = np.sqrt(cfg.dt)

    def propagate(x, streams, step):
        xi = streams.standard_normal(x.shape)
        return (x + hmodel.drift_avg(x) * cfg.dt
                + np.einsum("...mk,...k->...m", hmodel.diff_avg(x), xi) * sq)

    init = np.stack([np.asarray(init_sampler(g, cfg.n_particles), dtype=float)
                     for g in rngs])
    return _run_filter(propagate, hmodel.obs_avg, times, increments, init, cfg,
                       StreamBatch(rngs), keep_history, summary_sink)


def _lone(batch: FilterBatch) -> List[ParticleEnsemble]:
    """The ensembles of a one-replication batch; raises the error that stopped it."""
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return [batch.ensemble(0, k) for k in range(len(batch.history))]


def _lone_sink(summary_sink: Optional[Callable]) -> Optional[Callable]:
    """Adapts ``summary_sink(t, mean, ess, resampled)`` to a one-row batch."""
    if summary_sink is None:
        return None
    return lambda t, states, w, e, resampled: summary_sink(
        t, w[0] @ states[0], float(e[0]), bool(resampled[0]))


def run_full_filter(model: MultiscaleModel, obs: ObservationPath,
                    init_sampler: Callable, cfg: FilterConfig,
                    rng: np.random.Generator, keep_history: bool = True,
                    summary_sink: Optional[Callable] = None) -> List[ParticleEnsemble]:
    """Bootstrap filter over the joint (slow, fast) state.

    init_sampler(rng, n) must return arrays x (n, m) and z (n, n_fast).
    Returns the initial ensemble followed by the ensemble after every
    observation step (just initial and final when keep_history is False).
    """
    return _lone(run_full_filter_batch(model, [obs], init_sampler, cfg, [rng],
                                       keep_history, _lone_sink(summary_sink)))


def run_homogenized_filter(hmodel: HomogenizedModel, obs: ObservationPath,
                           init_sampler: Callable, cfg: FilterConfig,
                           rng: np.random.Generator, keep_history: bool = True,
                           summary_sink: Optional[Callable] = None
                           ) -> List[ParticleEnsemble]:
    """Bootstrap filter over the slow state only, driven by the full observations.

    init_sampler(rng, n) must return an array x (n, m).
    """
    return _lone(run_homogenized_filter_batch(hmodel, [obs], init_sampler, cfg,
                                              [rng], keep_history,
                                              _lone_sink(summary_sink)))


def kalman_reference(a_lin: float, q: float, h_lin: float, r: float,
                     obs: ObservationPath, prior: KalmanState) -> List[KalmanState]:
    """Discrete Kalman recursion for the Euler-discretized scalar linear model.

    Model: dX = a_lin X dt + sqrt(q) dV, with each observation increment
    treated as a reading of h_lin * X * dt corrupted by noise of variance
    r * dt.  Returns the prior followed by the state after each increment.
    """
    if q <= 0 or r <= 0:
        raise UsageError("q and r must be positive")
    mean = float(np.asarray(prior.mean).reshape(()))
    var = float(np.asarray(prior.covariance).reshape(()))
    out = [prior]
    for i, dy in enumerate(np.asarray(obs.increments).reshape(-1)):
        dt = float(obs.times[i + 1] - obs.times[i])
        mean = (1.0 + a_lin * dt) * mean
        var = (1.0 + a_lin * dt) ** 2 * var + q * dt
        hh = h_lin * dt
        s = hh * hh * var + r * dt
        gain = var * hh / s
        mean = mean + gain * (dy - hh * mean)
        var = (1.0 - gain * hh) * var
        out.append(KalmanState(mean=np.array([mean]),
                               covariance=np.array([[var]]),
                               time=float(obs.times[i + 1])))
    return out
