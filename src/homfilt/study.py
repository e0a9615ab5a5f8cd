"""Epsilon-sweep experiment measuring the rate at which the reduced filter
approaches the slow marginal of the full filter.

For each epsilon and replication: simulate a truth trajectory and observation
path from the full model, run the full and reduced particle filters on the
*same* observations, and evaluate the test-function metric between the full
filter's slow marginal and the reduced filter at the final time.  The per-
epsilon mean distances are then fitted with a log-log line; the theory
predicts slope 1/2 up to particle noise.
"""

import io
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Dict, Iterable, List, Sequence

import numpy as np

from . import catalog, measures, rng as rngmod, schema
from .averaging import HomogenizedModel
from .errors import BlowUpError, HomfiltError, StudyAbortError
from .filtering import (RESAMPLE_THRESHOLD, gaussian_prior, run_forked, run_full_filter,
                        run_homogenized_filter)
from .measures import EmpiricalMeasure, default_basis, metric_d, TestFunctionBasis
from .models import (MultiscaleModel, ObservationPath, blow_up_steps,
                     simulate_multiscale, simulate_observations, step_count)

MAX_FAILURE_FRACTION = 0.2  # of one epsilon's replications, before the study aborts


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    """Settings of an epsilon sweep, in the order of report.txt's config block."""

    family: str = "ou_benchmark"
    epsilons: tuple[float, ...]      # strictly decreasing, in (0, 1]
    replications: int
    horizon: float
    n_particles: int
    dt: float
    resample_threshold: float = RESAMPLE_THRESHOLD
    basis_count: int = 16
    init_mean: float = 0.0
    init_std: float = 0.5
    bootstrap_samples: int = 1000
    root_seed: int
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = tuple(self.epsilons)
        if len(eps) < 3:
            raise ValueError("need at least 3 epsilons for a slope fit")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise ValueError("epsilons must lie in (0, 1]")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        step_count(self.horizon, self.dt)
        if self.bootstrap_samples < 1:
            raise ValueError("bootstrap_samples must be positive")
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must lie in (0, 1]")
        if not (np.isfinite(self.init_mean) and np.isfinite(self.init_std)
                and self.init_std >= 0):
            raise ValueError(f"init_mean must be finite and init_std finite and >= 0, "
                             f"got {self.init_mean!r} and {self.init_std!r}")
        default_basis(self.basis_count, 1)  # checks basis_count


@dataclass(frozen=True)
class ConvergenceReport:
    epsilons: tuple
    mean_distances: tuple
    standard_errors: tuple
    failures: tuple               # failed replications per epsilon
    slope: float
    intercept: float
    slope_ci: tuple               # (lo, hi), bootstrap percentile interval
    config: dict                  # flat snapshot of the study configuration
    distances: tuple              # per epsilon: tuple of per-replication distances
    replications: tuple           # per epsilon: the replication index of each distance


def _streams(cfg: StudyConfig, eps_index: int, rep_indices: Sequence[int], role: int):
    """The streams of replications ``rep_indices`` in one role: the only code that
    builds the key (root_seed, eps_index, rep, role), so no two rows or roles share."""
    return rngmod.StreamBatch(rngmod.stream(cfg.root_seed, eps_index, rep, role)
                              for rep in rep_indices)


def replication_paths(model: MultiscaleModel, cfg: StudyConfig, eps_index: int,
                      rep_indices: Sequence[int]) -> tuple:
    """The truth ``xs (T+1, R, m)``, ``zs (T+1, R, n)`` and observations of
    replications ``rep_indices``, from states drawn by ``gaussian_prior``."""
    streams = partial(_streams, cfg, eps_index, rep_indices)
    m = model.dim_slow
    s0 = gaussian_prior(streams(rngmod.ROLE_INIT), (len(rep_indices),), cfg.init_mean,
                        cfg.init_std, m, model.dim_fast)
    xs, zs = simulate_multiscale(model, s0[:, :m], s0[:, m:], cfg.horizon, cfg.dt,
                                 rng=streams(rngmod.ROLE_TRUTH))
    return xs, zs, simulate_observations(xs, zs, model, cfg.dt,
                                         rng=streams(rngmod.ROLE_OBS))


def replication_filters(model: MultiscaleModel, hmodel: HomogenizedModel,
                        cfg: StudyConfig, eps_index: int, rep_indices: Sequence[int],
                        obs: ObservationPath) -> tuple:
    """The full and the reduced filter's ``FilterBatch`` on ``obs``, each from a
    cloud drawn by ``gaussian_prior``."""
    def run(run_filter, target, role, n_fast):
        rngs = _streams(cfg, eps_index, rep_indices, role)
        cloud = gaussian_prior(rngs, (len(rep_indices), cfg.n_particles), cfg.init_mean,
                               cfg.init_std, model.dim_slow, n_fast)
        return run_filter(target, obs, cloud, cfg.resample_threshold, rngs.generators)

    return (run(run_full_filter, model, rngmod.ROLE_FULL_FILTER, model.dim_fast),
            run(run_homogenized_filter, hmodel, rngmod.ROLE_HOMOG_FILTER, 0))


def run_replications(model: MultiscaleModel, hmodel: HomogenizedModel,
                     cfg: StudyConfig, basis: TestFunctionBasis, eps_index: int,
                     rep_indices: Sequence[int]) -> list:
    """Samples of the metric between the two filters at the final time, for
    replications at one epsilon, in the order of ``rep_indices``: their
    ``replication_paths``, ``replication_filters`` and one ``metric_d`` call.

    Only the filters cut the rows into blocks, which bound a step's memory;
    the rows' priors and final clouds, about 48 R N bytes for R rows of N
    particles in one slow and one fast coordinate, are held until the metric.
    Each row draws from its own streams in the order a lone run would, so entry
    r equals the replication's own run bit for bit.  Entry r is the distance,
    or the HomfiltError that stopped replication r.
    """
    xs, zs, obs = replication_paths(model, cfg, eps_index, rep_indices)
    full, homog = replication_filters(model, hmodel, cfg, eps_index, rep_indices, obs)
    # A failed row's distance may be NaN; its error stands in for it.
    distances = metric_d(EmpiricalMeasure(full.states[..., :model.dim_slow], full.weights),
                         EmpiricalMeasure(homog.states, homog.weights), basis)
    return [BlowUpError(int(b)) if b >= 0 else e_full or e_homog or float(dist)
            for b, e_full, e_homog, dist in zip(blow_up_steps(xs, zs), full.errors,
                                                homog.errors, distances)]


def run_replication(model: MultiscaleModel, hmodel: HomogenizedModel,
                    cfg: StudyConfig, basis: TestFunctionBasis,
                    eps_index: int, rep_index: int) -> float:
    """One sample of the metric between the two filters at the final time:
    ``run_replications`` for one replication, raising its error if it failed.
    """
    (result,) = run_replications(model, hmodel, cfg, basis, eps_index, [rep_index])
    if isinstance(result, HomfiltError):
        raise result
    return result


def fit_loglog_slope(epsilons, mean_distances, standard_errors=None) -> tuple:
    """Slope and intercept of log(mean distance) vs log(epsilon), per row of
    per-epsilon means and standard errors (one row, or a stack of rows).

    A row is weighted by the inverse variances of its log means, (mean/se)^2,
    or fitted by ordinary least squares if it has a zero standard error (e.g.
    exact synthetic distances) or none are given.  One row gives floats.
    """
    le = np.log(np.asarray(epsilons, dtype=float))
    mean = np.asarray(mean_distances, dtype=float)
    se = np.asarray(0 * mean if standard_errors is None else standard_errors, dtype=float)
    weighted = (se > 0).all(axis=-1, keepdims=True)
    w = np.where(weighted, mean / np.where(weighted, se, 1.0), 1.0) ** 2
    w = w / w.sum(axis=-1, keepdims=True)
    lm = np.log(mean)
    xb = (w * le).sum(axis=-1, keepdims=True)
    yb = (w * lm).sum(axis=-1, keepdims=True)
    slope = (w * (le - xb) * (lm - yb)).sum(axis=-1) / (w * (le - xb) ** 2).sum(axis=-1)
    intercept = yb[..., 0] - slope * xb[..., 0]
    return (float(slope), float(intercept)) if slope.ndim == 0 else (slope, intercept)


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    """Run the full epsilon sweep and fit the convergence rate.

    The reduced filter runs on the family's analytic homogenized model.  Each
    epsilon hands its row range to ``run_forked``, which splits it into one
    contiguous group per usable CPU, run by the caller and forked children,
    and ``run_replications`` runs each group whole; only the filters cut its
    rows into cache-sized blocks.  Every row draws only from its own streams,
    so the report depends on neither split.  No epsilon runs after one whose
    failures abort the study.
    """
    def level(ei, eps):
        model, hmodel = catalog.make_views(cfg.family, eps, **cfg.family_params)
        basis = default_basis(cfg.basis_count, model.dim_slow)
        return run_forked(partial(run_replications, model, hmodel, cfg, basis, ei),
                          range(cfg.replications))

    return summarize(cfg, (level(ei, eps) for ei, eps in enumerate(cfg.epsilons)))


def summarize(cfg: StudyConfig, results: Iterable[Sequence]) -> ConvergenceReport:
    """The convergence report of a sweep's results.

    ``results`` holds, for each epsilon of ``cfg`` in order, one entry per
    replication: its distance, or the HomfiltError that stopped it.  It is
    read one epsilon at a time, and not past the first epsilon whose
    failures exceed ``MAX_FAILURE_FRACTION``, which raises StudyAbortError.
    """
    distances: List[List[float]] = []
    replications: List[List[int]] = []
    failures: List[int] = []
    for eps, entries in zip(cfg.epsilons, results, strict=True):
        if len(entries) != cfg.replications:
            raise ValueError(f"{len(entries)} results, not {cfg.replications}, "
                             f"at epsilon={eps:g}")
        kept = [rep for rep, r in enumerate(entries) if not isinstance(r, HomfiltError)]
        n_failed = cfg.replications - len(kept)
        if n_failed > MAX_FAILURE_FRACTION * cfg.replications:
            raise StudyAbortError(
                f"{n_failed}/{cfg.replications} replications failed at "
                f"epsilon={eps:g} (limit {MAX_FAILURE_FRACTION:.0%})")
        distances.append([entries[rep] for rep in kept])
        replications.append(kept)
        failures.append(n_failed)

    means, ses = np.array([_mean_and_se(np.asarray(d)) for d in distances]).T
    slope, intercept = fit_loglog_slope(cfg.epsilons, means, ses)
    slope_ci = _bootstrap_slope_ci(cfg, distances)
    return ConvergenceReport(
        epsilons=tuple(cfg.epsilons),
        mean_distances=tuple(float(v) for v in means),
        standard_errors=tuple(float(v) for v in ses),
        failures=tuple(failures),
        slope=slope, intercept=intercept, slope_ci=slope_ci, config=_config_snapshot(cfg),
        distances=tuple(tuple(float(v) for v in d) for d in distances),
        replications=tuple(tuple(reps) for reps in replications))


def _mean_and_se(d: np.ndarray) -> tuple:
    """Mean and standard error (ddof 1, or 0 for one value) over the last axis."""
    n = d.shape[-1]
    se = d.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(d.shape[:-1])
    return d.mean(axis=-1), se


def _bootstrap_slope_ci(cfg: StudyConfig, distances: List[List[float]]) -> tuple:
    """Percentile interval for ``fit_loglog_slope``'s slope over resamples of
    each epsilon's replications, one index matrix per epsilon, each refitted
    from its means and standard errors; a sample with a mean <= 0 is dropped."""
    rng = rngmod.stream(cfg.root_seed, rngmod.ROLE_BOOTSTRAP)
    draws = (d[rng.integers(0, len(d), (cfg.bootstrap_samples, len(d)))]
             for d in map(np.asarray, distances))
    means, ses = np.stack([_mean_and_se(s) for s in draws], axis=-1)
    kept = (means > 0).all(axis=1)
    slopes, _ = fit_loglog_slope(cfg.epsilons, means[kept], ses[kept])
    lo, hi = np.percentile(slopes, [2.5, 97.5]) if len(slopes) else (np.nan, np.nan)
    return (float(lo), float(hi))


def _config_snapshot(cfg: StudyConfig) -> Dict[str, str]:
    """Each field of ``cfg`` as text, in field order; the family parameters
    take one ``param_<key>`` entry each, in key order."""
    snap = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is dict:
            snap.update((f"param_{k}", repr(float(value[k]))) for k in sorted(value))
        else:
            snap[f.name] = schema.fmt(f.type, value)
    return snap


def report_text(report: ConvergenceReport) -> str:
    """Human-readable report: key=value header plus a per-epsilon table."""
    buf = io.StringIO()
    buf.write("# homfilt convergence report v1\n")
    for k, v in report.config.items():
        buf.write(f"{k}={v}\n")
    buf.write(f"basis_version={measures.ENUMERATION_VERSION}\n")
    buf.write(f"slope={report.slope!r}\n")
    buf.write(f"intercept={report.intercept!r}\n")
    buf.write(f"slope_ci_lo={report.slope_ci[0]!r}\n")
    buf.write(f"slope_ci_hi={report.slope_ci[1]!r}\n")
    buf.write("epsilon mean_distance standard_error count failures\n")
    for i, eps in enumerate(report.epsilons):
        buf.write(f"{eps!r} {report.mean_distances[i]!r} "
                  f"{report.standard_errors[i]!r} {len(report.distances[i])} "
                  f"{report.failures[i]}\n")
    return buf.getvalue()


def report_csv(report: ConvergenceReport) -> str:
    """Flat per-replication distances: epsilon, replication, distance."""
    lines = ["epsilon,replication,distance"]
    for eps, reps, dists in zip(report.epsilons, report.replications, report.distances):
        for rep, dist in zip(reps, dists):
            lines.append(f"{eps!r},{rep},{dist!r}")
    return "\n".join(lines) + "\n"
