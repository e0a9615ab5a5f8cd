"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Every test exercises the public API end to end at a pinned seed and prints a
single ``[acceptance] criterion N (...): PASS`` line (visible under
``pytest -s`` or on failure).  Tolerances are fixed here, not tuned per run.
"""

import time

import numpy as np
import pytest
import yaml

from homfilt import catalog
from homfilt.averaging import StationaryAverager, _estimates, _frozen_sums, matrix_sqrt_psd
from homfilt.cli import main as cli_main
from homfilt.filtering import (ParticleEnsemble, kalman_filter, run_full_filter,
                               systematic_resample)
from homfilt.measures import EmpiricalMeasure, default_basis, metric_d
from homfilt.models import simulate_multiscale, simulate_observations
from homfilt.rng import StreamBatch, stream
from homfilt.study import StudyConfig, run_study

from conftest import linear_gaussian


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {verdict}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_averaging_oracle():
    """Stationary averages of z and z^2 for the fast OU process match x, x^2+1."""
    t0 = time.time()
    model = catalog.make_model("ou_benchmark")
    cfg = StationaryAverager()
    nodes = np.array([[-1.0], [0.5], [1.0]])
    # One time loop over the three nodes; node i draws from stream(2026, i).
    sums, count, first_bad = _frozen_sums(
        model, nodes, [lambda xb, zb: zb[..., 0], lambda xb, zb: zb[..., 0] ** 2],
        cfg, [stream(2026, i) for i in range(len(nodes))])
    (e1, s1), (e2, s2) = _estimates(sums, count, cfg, nodes)
    rows = [(x, float(e1[i]), float(s1[i]), float(e2[i]), float(s2[i]))
            for i, (x,) in enumerate(nodes.tolist())]
    elapsed = time.time() - t0
    ok = elapsed < 60.0 and (first_bad < 0).all()
    detail = [f"elapsed={elapsed:.1f}s", f"first_bad={first_bad.tolist()}"]
    for x, e1, s1, e2, s2 in rows:
        ok &= abs(e1 - x) <= 3 * s1 and s1 < 0.02
        ok &= abs(e2 - (x * x + 1.0)) <= 3 * s2 and s2 < 0.02
        detail.append(f"x={x}: z={e1:.4f}+-{s1:.4f}, z^2={e2:.4f}+-{s2:.4f}")
    report(1, "averaging oracle", ok, "; ".join(detail))


def test_criterion_2_psd_square_root():
    """S @ S recovers A for random PSD matrices; tiny negatives are clipped."""
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        b = rng.standard_normal((m, m))
        a = b @ b.T
        s = matrix_sqrt_psd(a)
        rel = np.linalg.norm(s @ s - a) / (1.0 + np.linalg.norm(a))
        worst = max(worst, rel)
        ok &= rel <= 1e-9
    # Clipping path: eigenvalues in [-1e-11, 0) must round up to zero.
    for _ in range(100):
        m = int(rng.integers(1, 6))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        vals = -rng.uniform(1e-12, 1e-11, m)
        a = (q * vals) @ q.T
        a = 0.5 * (a + a.T)
        s = matrix_sqrt_psd(a)
        ok &= np.all(np.isfinite(s)) and np.linalg.norm(s) <= 1e-5
    report(2, "PSD square root", ok, f"worst relative residual {worst:.2e}")


def test_criterion_3_kalman_steady_state():
    """Kalman variance converges to the Riccati root sqrt(2) - 1."""
    a, q, h, dt, horizon = -1.0, 1.0, 1.0, 1e-3, 20.0
    model = catalog.make_model("ou_benchmark", **linear_gaussian(a, q, h))
    rng = stream(11, 0)
    xs, zs = simulate_multiscale(model, np.zeros(1), np.zeros(1), horizon, dt, rng=rng)
    obs = simulate_observations(xs, zs, model, dt, rng=stream(11, 1))
    _, covs = kalman_filter(1 + a * dt, q * dt, h * dt, obs, 0.0, 1.0)
    var = float(covs[-1, 0, 0])
    target = np.sqrt(2.0) - 1.0
    ok = abs(var - target) <= 1e-3
    report(3, "Kalman steady state", ok, f"var={var:.6f}, target={target:.6f}")


def test_criterion_4_filter_matches_kalman():
    """Particle posterior mean is statistically indistinguishable from Kalman.

    The signed per-replication time-averaged difference is averaged over 50
    independent replications and compared with 3x its Monte Carlo standard
    error; the sign carries the information (absolute differences never
    average to zero at finite particle counts).  The 50 filters go to one
    ``run_full_filter`` call, which runs them in cache-sized blocks of rows,
    replication r drawing from its own stream, and one Kalman call follows
    all 50 observation paths.
    """
    t0 = time.time()
    a, q, h = -1.0, 1.0, 1.0
    model = catalog.make_model("ou_benchmark", **linear_gaussian(a, q, h))
    dt, horizon = 0.01, 2.0
    prior_mean, prior_var = 0.5, 0.25
    reps = range(50)
    xs, zs = simulate_multiscale(model, np.full((len(reps), 1), prior_mean),
                                 np.zeros((len(reps), 1)), horizon, dt,
                                 rng=StreamBatch([stream(7, rep, 0) for rep in reps]))
    obs = simulate_observations(xs, zs, model, dt,
                                rng=StreamBatch([stream(7, rep, 1) for rep in reps]))
    rngs = [stream(7, rep, 2) for rep in reps]
    x0 = prior_mean + np.sqrt(prior_var) * StreamBatch(rngs).standard_normal(
        (len(reps), 8192, 1))
    batch = run_full_filter(model, obs, np.concatenate([x0, np.zeros_like(x0)], -1),
                            0.5, rngs)
    kalman_means, _ = kalman_filter(1 + a * dt, q * dt, h * dt, obs, prior_mean,
                                    prior_var)
    # (steps, replications) -> the time-averaged difference of each replication
    diffs = (batch.means[:, :, 0] - kalman_means[1:, :, 0]).mean(axis=0)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    elapsed = time.time() - t0
    ok = abs(diffs.mean()) <= 3 * se and elapsed < 300.0
    report(4, "filter vs Kalman", ok,
           f"mean diff {diffs.mean():.2e}, se {se:.2e}, elapsed {elapsed:.0f}s")


def _random_measure(rng, dim, n_atoms=32):
    atoms = rng.normal(scale=2.0, size=(n_atoms, dim))
    w = rng.uniform(0.1, 1.0, n_atoms)
    return EmpiricalMeasure(atoms=atoms, weights=w / w.sum())


def test_criterion_5_metric_axioms():
    """Symmetry, triangle inequality, range and truncation tail of metric_d."""
    rng = np.random.default_rng(5)
    ok = True
    for trial in range(1000):
        dim = 1 + trial % 2
        k = 8 + trial % 9                      # truncation depths 8..16
        basis = default_basis(k, dim)
        basis_next = default_basis(k + 1, dim)
        mu, nu, rho = (_random_measure(rng, dim) for _ in range(3))
        d_mn = metric_d(mu, nu, basis)
        ok &= d_mn == metric_d(nu, mu, basis)                       # symmetry
        ok &= 0.0 <= d_mn <= 1.0                                    # range
        ok &= (d_mn <= metric_d(mu, rho, basis)
               + metric_d(rho, nu, basis) + 1e-12)                  # triangle
        ok &= metric_d(mu, nu, basis_next) - d_mn <= 2.0 ** (-k)    # tail
    report(5, "metric axioms", ok)


def test_criterion_6_resampling_unbiasedness():
    """Systematic resampling keeps offspring frequencies proportional to weight."""
    rng = np.random.default_rng(64)
    n = 64
    w = rng.uniform(0.2, 1.0, n)
    w /= w.sum()
    ens = ParticleEnsemble(states=np.arange(n, dtype=float)[:, None], weights=w)
    trials = 10_000
    counts = np.zeros(n)
    for _ in range(trials):
        out = systematic_resample(ens, rng)
        counts += np.bincount(out.atoms[:, 0].astype(int), minlength=n)
    freq = counts / trials
    se = np.sqrt(n * w * (1.0 - w) / trials)
    ok = np.all(np.abs(freq - n * w) <= 4 * se + 1e-9)
    report(6, "resampling unbiasedness", ok,
           f"max deviation {np.abs(freq - n * w).max():.4f}")


def test_criterion_7_convergence_rate():
    """Reduced-filter error shrinks like sqrt(epsilon) on the OU benchmark."""
    t0 = time.time()
    cfg = StudyConfig(
        epsilons=(0.5, 0.25, 0.125, 0.0625),
        replications=100, horizon=1.0, n_particles=2048, dt=0.02,
        root_seed=0, family="ou_benchmark",
        family_params=dict(c_b=0.5, c_h=2.0, sigma0=0.5),
        init_mean=0.0, init_std=0.5)
    rep = run_study(cfg)
    elapsed = time.time() - t0
    ok = 0.3 <= rep.slope <= 0.7 and elapsed < 1800.0
    means, ses = rep.mean_distances, rep.standard_errors
    for i in range(len(means) - 1):
        combined = np.hypot(ses[i], ses[i + 1])
        ok &= means[i + 1] <= means[i] + 2 * combined
    report(7, "convergence rate", ok,
           f"slope={rep.slope:.3f}, means={[f'{m:.4f}' for m in means]}, "
           f"elapsed {elapsed:.0f}s")


def test_criterion_8_study_determinism(tmp_path):
    """Two study runs with the same root seed emit byte-identical reports."""
    cfg_path = tmp_path / "study.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "model": {"family": "ou_benchmark",
                  "params": {"c_b": 0.5, "c_h": 2.0, "sigma0": 0.5}},
        "study": {"epsilons": [0.5, 0.25, 0.125, 0.0625], "replications": 5,
                  "horizon": 1.0, "n_particles": 256, "dt": 0.02,
                  "bootstrap_samples": 200}}))
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        out.mkdir()
        code = cli_main(["--config", str(cfg_path), "--seed", "0",
                         "--out", str(out), "study"])
        assert code == 0
        outputs.append(((out / "report.txt").read_bytes(),
                        (out / "report.csv").read_bytes()))
    ok = outputs[0] == outputs[1] and len(outputs[0][0]) > 0
    report(8, "study determinism", ok)
