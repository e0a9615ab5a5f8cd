"""The particle filters and the √ε rate against exact Kalman filters.

On ``ou_benchmark`` the whole discretized model is linear-Gaussian: one
``multiscale_step`` is s' = A s + w, w ~ N(0, Q), on s = (x, z), and each
observation increment reads H s' + dB.  ``endpoint_scheme`` writes down
(A, Q, H) of that step, so ``kalman_filter`` gives the exact full filter and,
with the averaged coefficients, the exact reduced filter.
"""

import numpy as np

from homfilt import catalog
from homfilt.filtering import kalman_filter
from homfilt.measures import default_basis
from homfilt.study import (StudyConfig, fit_loglog_slope, replication_filters,
                           replication_paths)

# Criterion 7's model and initial law: x ~ N(0, 0.5^2), z = x + N(0, 1).
PARAMS = dict(a=-1.0, c_b=0.5, sigma0=0.5, h_x=1.0, c_h=2.0, relax=1.0)
EPSILONS = (0.5, 0.25, 0.125, 0.0625)
DT, HORIZON, INIT_STD = 0.02, 1.0, 0.5
PRIOR_COV = np.array([[0.25, 0.25], [0.25, 1.25]])


def study_config(**overrides):
    """Criterion 7's study settings, with ``overrides``: the stages of
    ``run_replications`` draw the study's own streams from it."""
    kw = dict(epsilons=EPSILONS, replications=100, horizon=HORIZON, n_particles=2048,
              dt=DT, root_seed=0, init_std=INIT_STD, family_params=PARAMS)
    return StudyConfig(**kw | overrides)


def endpoint_scheme(epsilon, dt, a, c_b, sigma0, h_x, c_h, relax):
    """(A, Q, H) of one ``multiscale_step`` of ``ou_benchmark`` on (x, z): the
    exact draw of S = ceil(1/eps) fast substeps of size h = dt/(S eps) with x
    frozen, then the slow Euler step at the new z."""
    substeps = int(np.ceil(1.0 / epsilon))
    h = dt / (substeps * epsilon)
    alpha = 1.0 - relax * h
    decay = alpha ** substeps
    v = 2.0 * relax * h * sum(alpha ** (2 * j) for j in range(substeps))
    A = np.array([[1.0 + a * dt + c_b * dt * (1.0 - decay), c_b * dt * decay],
                  [1.0 - decay, decay]])
    Q = np.array([[c_b ** 2 * dt ** 2 * v + sigma0 ** 2 * dt, c_b * dt * v],
                  [c_b * dt * v, v]])
    return A, Q, dt * np.array([[h_x, c_h]])


def reduced_scheme(dt, a, c_b, sigma0, h_x, c_h, relax):
    """(A, Q, H) of the averaged model's Euler step, dX = (a + c_b) X dt +
    sigma0 dV read as (h_x + c_h) X dt + dB."""
    return 1.0 + (a + c_b) * dt, sigma0 ** 2 * dt, (h_x + c_h) * dt


def gaussian_integrals(mean, var, basis):
    """Each basis function's integral against N(mean, var), on a last axis:
    the integral of exp(-q (x - c)^2) is (1 + 2 q var)^(-1/2) exp(-q (mean -
    c)^2 / (1 + 2 q var))."""
    q, c = basis.widths, basis.centers[:, 0]
    spread = 1.0 + 2.0 * q * var
    return np.exp(-q * (np.asarray(mean)[..., None] - c) ** 2 / spread) / np.sqrt(spread)


def gaussian_distance(mean_1, var_1, mean_2, var_2, basis):
    """``metric_d`` between N(mean_1, var_1) and N(mean_2, var_2), in closed form."""
    gaps = np.abs(gaussian_integrals(mean_1, var_1, basis)
                  - gaussian_integrals(mean_2, var_2, basis))
    return gaps @ (0.5 ** np.arange(1, basis.count + 1))


def test_gaussian_integrals_match_quadrature():
    basis = default_basis(16, 1)
    x = np.linspace(-15.0, 15.0, 30_001)
    for mean, var in ((0.3, 0.04), (-1.2, 0.7)):
        density = np.exp(-(x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        bumps = np.exp(-basis.widths[:, None] * (x - basis.centers[:, :1]) ** 2)
        quadrature = (bumps * density).sum(axis=1) * (x[1] - x[0])
        np.testing.assert_allclose(gaussian_integrals(mean, var, basis), quadrature,
                                   rtol=0, atol=1e-10)


def test_filters_on_a_coupled_model_match_the_exact_kalman_filters():
    """Criterion 4's statistic, on criterion 7's model at eps = 1/4, where the
    slow state reads z: for each of x and z of the full filter, and for the
    reduced filter, the mean over replications of each one's time-averaged
    (particle - Kalman) mean lies within 3 SE of 0; so does the mean
    difference of each entry of the full filter's final covariance."""
    epsilon, reps, cfg = 0.25, range(40), study_config(n_particles=8192)
    model, hm = catalog.make_views("ou_benchmark", epsilon, **PARAMS)
    _, _, obs = replication_paths(model, cfg, 0, reps)
    full, reduced = replication_filters(model, hm, cfg, 0, reps, obs)
    joint, joint_covs = kalman_filter(*endpoint_scheme(epsilon, DT, **PARAMS), obs, 0.0,
                                      PRIOR_COV)
    slow, _ = kalman_filter(*reduced_scheme(DT, **PARAMS), obs, 0.0, INIT_STD ** 2)
    spread = full.states - full.means[-1][:, None]
    final_covs = np.einsum("rn,rni,rnj->rij", full.weights, spread, spread)
    cov_gaps = final_covs - joint_covs[-1]
    for name, diffs in (
            ("x", (full.means[..., 0] - joint[1:, :, 0]).mean(axis=0)),
            ("z", (full.means[..., 1] - joint[1:, :, 1]).mean(axis=0)),
            ("reduced x", (reduced.means[..., 0] - slow[1:, :, 0]).mean(axis=0)),
            ("final var x", cov_gaps[:, 0, 0]), ("final cov xz", cov_gaps[:, 0, 1]),
            ("final var z", cov_gaps[:, 1, 1])):
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3 * se, f"{name}: {diffs.mean():.2e}, se {se:.2e}"


def test_exact_filters_converge_at_rate_sqrt_epsilon():
    """The distance between the exact full filter's x-marginal and the exact
    reduced filter at the final time, averaged over 400 study paths per eps,
    falls with slope in [0.3, 0.7] over criterion 7's epsilons."""
    basis = default_basis(16, 1)
    reps = range(400)
    reduced = reduced_scheme(DT, **PARAMS)
    for root in (0, 1):
        means, ses = [], []
        for ei, epsilon in enumerate(EPSILONS):
            model = catalog.make_model("ou_benchmark", epsilon, **PARAMS)
            _, _, obs = replication_paths(model, study_config(root_seed=root), ei, reps)
            joint, joint_covs = kalman_filter(*endpoint_scheme(epsilon, DT, **PARAMS), obs,
                                              0.0, PRIOR_COV)
            slow, slow_covs = kalman_filter(*reduced, obs, 0.0, INIT_STD ** 2)
            d = gaussian_distance(joint[-1, :, 0], joint_covs[-1, 0, 0],
                                  slow[-1, :, 0], slow_covs[-1, 0, 0], basis)
            means.append(d.mean())
            ses.append(d.std(ddof=1) / np.sqrt(len(d)))
        slope, _ = fit_loglog_slope(EPSILONS, means, ses)
        assert 0.3 <= slope <= 0.7, f"root {root}: slope {slope:.3f}, means {means}"


LADDER = (0.5, 1.0 / 64, 1.0 / 512)
MUTANTS = {f"{scale} {term}": PARAMS | {term: scale * PARAMS[term]}
           for term in ("c_b", "c_h") for scale in (0.95, 1.05)}


def test_exact_ladder_rejects_wrong_reduced_models():
    """At dt 0.0025, on 100 study paths per eps, the exact distance from the
    joint Kalman filter's x-marginal to the reduced Kalman filter of the right
    averaged model keeps falling down to eps = 1/512, by more than 3 SE per
    rung, while a reduced model with c_b's or c_h's term 5% off sits more
    than 5 SE of the paired differences above it at eps = 1/512."""
    dt, basis, reps = 0.0025, default_basis(16, 1), range(100)
    cfg = study_config(epsilons=LADDER, dt=dt)
    models = {"right": PARAMS} | MUTANTS
    ladder = []
    for ei, epsilon in enumerate(LADDER):
        model = catalog.make_model("ou_benchmark", epsilon, **PARAMS)
        _, _, obs = replication_paths(model, cfg, ei, reps)
        joint, joint_covs = kalman_filter(*endpoint_scheme(epsilon, dt, **PARAMS), obs,
                                          0.0, PRIOR_COV)
        rung = {}
        for name, params in models.items():
            slow, slow_covs = kalman_filter(*reduced_scheme(dt, **params), obs, 0.0,
                                            INIT_STD ** 2)
            rung[name] = gaussian_distance(joint[-1, :, 0], joint_covs[-1, 0, 0],
                                           slow[-1, :, 0], slow_covs[-1, 0, 0], basis)
        ladder.append(rung)

    def mean_and_se(d):
        return d.mean(), d.std(ddof=1) / np.sqrt(len(d))

    right = [mean_and_se(rung["right"]) for rung in ladder]
    for (mean_1, se_1), (mean_2, se_2) in zip(right, right[1:]):
        assert mean_1 - mean_2 > 3 * np.hypot(se_1, se_2), f"right model: {right}"
    for name in MUTANTS:
        gap, se = mean_and_se(ladder[-1][name] - ladder[-1]["right"])
        assert gap > 5 * se, f"{name}: {gap:.2e} above the right model, se {se:.2e}"
