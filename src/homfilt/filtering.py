"""Weighted-particle filters for the full and reduced models, plus the Kalman filter.

Both filters are bootstrap filters: particles move through the prior dynamics
and are reweighted by the one-step discrete Girsanov factor
exp(h * dY - 0.5 |h|^2 dt), with systematic resampling when the effective
sample size drops below a threshold fraction.  The reduced filter runs on the
slow coordinates only but consumes the same observation increments as the full
filter -- that pairing is the whole point of the construction.  Independent
filter runs go side by side in forked processes through ``run_forked``.
"""

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .averaging import HomogenizedModel, matrix_sqrt_psd
from .errors import BlowUpError, UsageError, WeightCollapseError
from .measures import EmpiricalMeasure
from .models import (MultiscaleModel, ObservationPath, euler_maruyama,
                     multiscale_step)
from .rng import StreamBatch


RESAMPLE_THRESHOLD = 0.5  # default: resample once the ESS falls below half of N
# Particles per block of filter rows, unless one row holds more: a (rows, N)
# float64 array of a block is at most 128 KiB.
CHUNK_PARTICLES = 16384


def gaussian_prior(rng, shape: tuple, mean: float, std: float, m: int,
                   n: int) -> np.ndarray:
    """The initial law of the truth and of both filters, as one ``shape +
    (m + n,)`` array: x ~ N(mean, std^2) per coordinate, then z one standard
    normal away from x's first coordinate, near the frozen stationary law.
    x is drawn before z; the reduced filter passes n = 0."""
    if not (np.isfinite(mean) and np.isfinite(std) and std >= 0):
        raise UsageError(f"init_mean must be finite and init_std finite and >= 0, "
                         f"got {mean!r} and {std!r}")
    x = mean + std * rng.standard_normal(shape + (m,))
    return np.concatenate([x, x[..., :1] + rng.standard_normal(shape + (n,))], axis=-1)


def ess(weights: np.ndarray):
    """Effective sample size 1 / sum(w_i^2) of normalized weights, over the
    last axis: a float for one weight vector, an (R,) array for (R, N) rows."""
    w = np.asarray(weights)
    return 1.0 / (w[..., None, :] @ w[..., :, None])[..., 0, 0]


def _reweight(weights: np.ndarray, obs_values: np.ndarray, obs_increments: np.ndarray,
              dt: float) -> tuple:
    """Girsanov reweighting of R weight rows at once.

    weights (R, N), obs_values (R, N, d), obs_increments (R, d).  Returns the
    renormalized weights and each row's largest log-weight; a row whose
    largest log-weight is not finite has collapsed, and its weights are NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(weights)
        logw += np.einsum("rnd,rd->rn", obs_values, obs_increments)
        square = np.einsum("...d,...d->...", obs_values, obs_values)
        square *= 0.5
        square *= dt
        logw -= square
        mx = logw.max(axis=1)
        logw -= mx[:, None]
        w = np.exp(logw, out=logw)
        w /= w.sum(axis=1, keepdims=True)
    return w, mx


def ParticleEnsemble(states: np.ndarray, weights: np.ndarray) -> EmpiricalMeasure:
    """One weighted particle cloud, built by keyword as ``states`` and ``weights``."""
    return EmpiricalMeasure(states, weights)


def weight_update(ensemble: EmpiricalMeasure, obs_increment: np.ndarray,
                  obs_values: np.ndarray, dt: float) -> EmpiricalMeasure:
    """Multiply one cloud's weights by the discrete Girsanov factor and renormalize.

    obs_values[i] is the (averaged) read-out evaluated at particle i; the
    factor is exp(obs_values[i] . dY - 0.5 |obs_values[i]|^2 dt).  Weights are
    accumulated in log space with max-subtraction to avoid underflow.
    """
    dy = np.atleast_1d(np.asarray(obs_increment, dtype=float))
    hv = np.asarray(obs_values, dtype=float).reshape(len(ensemble.weights), -1)
    w, mx = _reweight(ensemble.weights[None], hv[None], dy[None], dt)
    if not np.isfinite(mx[0]):
        raise WeightCollapseError(float(mx[0]))
    return EmpiricalMeasure(ensemble.atoms, w[0])


def _systematic_indices(weights: np.ndarray, u: float, n: int) -> np.ndarray:
    """Offspring indices of ``n`` systematic draws at offset ``u`` in [0, 1)."""
    positions = (u + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, len(weights) - 1)  # cumsum rounding at 1.0


def systematic_resample(ensemble: EmpiricalMeasure,
                        rng: np.random.Generator) -> EmpiricalMeasure:
    """Systematic (single-uniform stratified) resampling of one cloud to uniform weights.

    Offspring counts are determined by one uniform draw; the expected count of
    particle i is exactly N * w_i.
    """
    n = len(ensemble.weights)
    idx = _systematic_indices(ensemble.weights, rng.uniform(), n)
    return EmpiricalMeasure(ensemble.atoms[idx], np.full(n, 1.0 / n))


@dataclass(frozen=True)
class FilterBatch:
    """Filters of R replications run together: final clouds and a per-step record.

    ``errors[r]`` is None, or the HomfiltError that stopped replication r,
    whose final states and record from its failure on are meaningless.
    Steps after a row's block stopped early are NaN in ``means`` and
    ``ess`` and False in ``resampled``.
    """

    states: np.ndarray     # (R, N, dim)
    weights: np.ndarray    # (R, N)
    errors: list
    means: np.ndarray      # (T, R, dim), weighted mean after the step's resampling
    ess: np.ndarray        # (T, R), effective sample size before resampling
    resampled: np.ndarray  # (T, R), bool


def _gather(arrays: tuple, r: int, idx: np.ndarray):
    """Replace row r of each (R, N, ...) array by its particles ``idx``; a
    function, so that no loop variable holds an array into the next move."""
    for a in arrays:
        a[r] = a[r, idx]


def _fail(errors: list, rows: np.ndarray, make: Callable):
    """Record ``make(r)`` as the error of each listed row that has none yet."""
    for r in np.flatnonzero(rows):
        if errors[r] is None:
            errors[r] = make(r)


def row_blocks(n_rows: int, n_particles: int) -> list:
    """Slices that cut rows ``0 .. n_rows`` into near-even contiguous blocks
    of at most ``CHUNK_PARTICLES`` particles of ``n_particles`` per row, or of
    one row where a row holds more; no rows give one empty block."""
    n_blocks = max(1, -(-n_rows // max(1, CHUNK_PARTICLES // n_particles)))
    ends = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _run_filter(step: Callable, obs: ObservationPath, states: np.ndarray, dim: int,
                resample_threshold: float,
                rngs: Sequence[np.random.Generator]) -> FilterBatch:
    """The filter loop, over R replications held as (R, N, dim) states and (R, N) weights.

    ``states`` is an (R, N, dim) cloud with N >= 1, ``obs`` holds R
    replications on a uniform grid (``ObservationPath`` checks it) and
    ``rngs`` one generator per row; all three are checked before any draw.
    The cloud is copied once into the FilterBatch returned, so the caller's
    is never changed and a zero-step path hands the copy back.  The rows run
    in the blocks of ``row_blocks``; a block writes its rows of the record
    at each step, and its final states, weights and errors when it ends.
    Each step is ``step(states, carried, rngs, dt)``, which returns the
    moved states, their (R, N, d) read-out and the tuple of (R, N, ...)
    arrays carried beside the states into the next step; the first step gets
    an empty tuple.  Resampling gathers the states and copies of the carried
    arrays with the same indices.  A row that goes non-finite or whose
    weights collapse gets its error recorded and runs on as NaN without
    touching other rows; a block stops once all its rows have failed.  Of
    each step only the record is kept, so memory grows with the horizon only
    as the (T, R, d) observations do, and never with N.  Row r draws only
    from ``rngs[r]``, in the order a lone run of it draws, and every
    operation acts row by row, so each row equals its own R = 1 run bit for
    bit, whatever the blocks.
    """
    if not (0.0 < resample_threshold <= 1.0):
        raise UsageError("resample_threshold must lie in (0, 1]")
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1] < 1 or states.shape[2] != dim:
        raise ValueError(f"a cloud of shape {states.shape} is not (R, N >= 1, {dim})")
    increments = np.asarray(obs.increments, dtype=float)
    if increments.shape[1] != len(states):
        raise ValueError(f"observation increments of shape {increments.shape} "
                         f"do not hold {len(states)} replications")
    rngs = list(rngs)
    if len(rngs) != len(states):
        raise ValueError(f"{len(rngs)} generators for {len(states)} replications")
    n_rows, n = states.shape[:2]
    batch = FilterBatch(states=np.array(states), weights=np.full((n_rows, n), 1.0 / n),
                        errors=[None] * n_rows,
                        means=np.full((len(increments), n_rows, dim), np.nan),
                        ess=np.full((len(increments), n_rows), np.nan),
                        resampled=np.zeros((len(increments), n_rows), dtype=bool))
    for rows in row_blocks(n_rows, n):
        # Views of the block's rows, but for the list of errors, written back below.
        x, w, errors = batch.states[rows], batch.weights[rows], batch.errors[rows]
        means, ess_steps, resampled = (batch.means[:, rows], batch.ess[:, rows],
                                       batch.resampled[:, rows])
        streams, carried = StreamBatch(rngs[rows]), ()
        for i in range(len(increments)):
            x, obs_values, carried = step(x, carried, streams, obs.dt)
            if not np.isfinite(x).all():
                _fail(errors, ~np.isfinite(x).reshape(len(x), -1).all(axis=1),
                      lambda r: BlowUpError(i))
                if None not in errors:
                    break
            w, mx = _reweight(w, obs_values, increments[i, rows], obs.dt)
            del obs_values  # not held through the next move, which sets the peak memory
            if not np.isfinite(mx).all():
                _fail(errors, ~np.isfinite(mx), lambda r: WeightCollapseError(float(mx[r])))
                if None not in errors:
                    break
            ess_steps[i] = ess(w)
            resampled[i] = ess_steps[i] < resample_threshold * n
            resample = np.flatnonzero(resampled[i])
            if resample.size:
                # A closed-form coefficient may return its argument or a read-only
                # broadcast, so the gathers write into copies of the carried arrays.
                carried = tuple(np.array(a) for a in carried)
            for r in resample:
                _gather((x, *carried), r, _systematic_indices(w[r], streams[r].uniform(), n))
                w[r] = 1.0 / n
            means[i] = (w[:, None, :] @ x)[:, 0]
        batch.states[rows], batch.weights[rows], batch.errors[rows] = x, w, errors
    return batch


def run_full_filter(model: MultiscaleModel, obs: ObservationPath, states: np.ndarray,
                    resample_threshold: float,
                    rngs: Sequence[np.random.Generator]) -> FilterBatch:
    """Bootstrap filters over the joint (slow, fast) state, one per replication
    of an observation batch with (T, R, d) increments on a uniform grid, whose
    step the filters take.

    The filters start from the cloud ``states (R, N, m + n_fast)``, x first,
    with equal weights; row r draws from ``rngs[r]`` only.
    """
    substeps = model.default_substeps()
    m = model.dim_slow

    def step(states, carried, streams, dt):
        states = np.concatenate(multiscale_step(model, states[..., :m], states[..., m:],
                                                dt, substeps, streams), axis=-1)
        return states, model.obs_fn(states[..., :m], states[..., m:]), ()

    return _run_filter(step, obs, states, m + model.dim_fast, resample_threshold, rngs)


def run_homogenized_filter(hmodel: HomogenizedModel, obs: ObservationPath,
                           states: np.ndarray, resample_threshold: float,
                           rngs: Sequence[np.random.Generator]) -> FilterBatch:
    """Bootstrap filters over the slow state only, one per replication of the
    full model's observation batch, from the cloud ``states (R, N, m)``, as in
    ``run_full_filter``.

    Each particle carries its averaged drift and diffusion: one
    ``hmodel.coefficients`` call per step gives the read-out that weights the
    moved cloud and the coefficients of its next move.
    """
    def step(x, carried, streams, dt):
        b, sigma = carried or hmodel.coefficients(x)[:2]
        x = euler_maruyama(x, b, sigma, streams.standard_normal(x.shape), dt)
        b, sigma, h = hmodel.coefficients(x)
        return x, h, (b, sigma)

    return _run_filter(step, obs, states, hmodel.dim_slow, resample_threshold, rngs)


def kalman_filter(A, Q, H, obs: ObservationPath, prior_mean, prior_cov) -> tuple:
    """Discrete Kalman recursion of the linear-Gaussian chain s' = A s + w,
    w ~ N(0, Q), over every replication of an observation batch at once.

    Each increment of ``obs``, (T, R, d) on a uniform grid of step ``dt``, is
    read as H s' + dB with dB ~ N(0, dt I): as in the particle filters, a
    step predicts, then updates at the propagated state.  A and Q are k x k,
    H is d x k and ``prior_mean`` broadcasts to (R, k).  Returns the means
    (T+1, R, k) and the covariances (T+1, k, k), which do not depend on the
    observations; row 0 is the prior.
    """
    A, Q, H, cov = (np.atleast_2d(np.asarray(v, dtype=float))
                    for v in (A, Q, H, prior_cov))
    increments = np.asarray(obs.increments, dtype=float)
    k, d = len(A), increments.shape[2]
    if not A.shape == Q.shape == cov.shape == (k, k):
        raise ValueError(f"A {A.shape}, Q {Q.shape} and the prior covariance "
                         f"{cov.shape} are not all k x k")
    if H.shape != (d, k):
        raise ValueError(f"H {H.shape} is not {d} x {k} for increments {increments.shape}")
    for square in (Q, cov):
        matrix_sqrt_psd(square)  # refuses one that is not symmetric PSD
    means = np.empty((len(increments) + 1, increments.shape[1], k))
    covs = np.empty((len(increments) + 1, k, k))
    means[0], covs[0] = prior_mean, cov
    for i, dy in enumerate(increments):
        mean = means[i] @ A.T
        cov = A @ covs[i] @ A.T + Q
        gain = np.linalg.solve(H @ cov @ H.T + obs.dt * np.eye(d), H @ cov).T  # (k, d)
        means[i + 1] = mean + (dy - mean @ H.T) @ gain.T
        covs[i + 1] = cov - gain @ H @ cov
    return means, covs


def run_forked(fn: Callable[[Sequence], list], items: Sequence) -> list:
    """``fn(items)``, with the items split into contiguous groups, one per
    usable CPU while items last, and the lists ``fn(group)`` joined in item
    order; no items give ``[]`` without a call of ``fn``.

    This is the one place that reads the usable CPUs.  The calling process
    runs the first group.  Each other group runs in a child made by
    ``os.fork``, which inherits the caller's state, numpy's errstate
    included, and pickles its results, or the exception that stopped it,
    into a pipe before it ends with ``os._exit``.  The caller reads every
    pipe to its end before it reaps the child, so a result larger than the
    pipe's buffer cannot block, and it reaps every child also when its own
    group raises.  A fork that fails closes its pipe and raises once the
    children already made are reaped.  The first exception in item order is
    raised in the caller, with its type and attributes; a child that ends
    without a result, such as one killed by a signal, raises
    ChildProcessError.
    """
    n_groups = min(len(os.sched_getaffinity(0)), len(items))
    if not n_groups:
        return []
    groups = [items[len(items) * i // n_groups:len(items) * (i + 1) // n_groups]
              for i in range(n_groups)]
    children = []
    try:
        for group in groups[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # e.g. at a process limit
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, group, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = list(fn(groups[0]))
    finally:
        ends = [_reap(pid, read_fd) for pid, read_fd in children]
    for pid, code, data in ends:
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"worker process {pid} {how}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.extend(value)
    return results


def _run_child(fn: Callable[[Sequence], list], group: Sequence, write_fd: int):
    """Run ``fn(group)`` in a forked child, send (ok, results or exception)
    through ``write_fd`` and end the process, without returning to the caller."""
    code = 1
    try:
        try:
            payload = True, list(fn(group))
        except BaseException as exc:  # handed to the parent, which raises it
            payload = False, exc
        try:
            data = pickle.dumps(payload)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, ChildProcessError(
                f"worker process {os.getpid()}: cannot send its outcome: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read_fd: int) -> tuple:
    """A child's pid, exit code (minus the signal that killed it) and the
    bytes it sent, read to the end before the child is waited for."""
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data
