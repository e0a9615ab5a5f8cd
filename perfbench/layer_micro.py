"""Standalone timings of single layer calls on pinned inputs.

Each case is one call of a public homfilt function, timed alone, `SAMPLES`
times after `WARMUP` untimed calls; the result is its p50 and p90 in
microseconds.  These are tighter than the end-to-end numbers, so a change
to one layer can show there first.
"""

import time

import numpy as np

SAMPLES = 200
WARMUP = 10
N = 2048


def _cases():
    from homfilt import catalog
    from homfilt.averaging import (StationaryAverager, TabulationGrid,
                                   build_homogenized)
    from homfilt.filtering import (ParticleEnsemble, systematic_resample,
                                   weight_update)
    from homfilt.measures import EmpiricalMeasure, default_basis, metric_d
    from homfilt.models import multiscale_step

    gen = np.random.default_rng(1112_2986)
    x = gen.standard_normal((N, 1))
    z = x + gen.standard_normal((N, 1))
    w = gen.random(N)
    w /= w.sum()
    step_rng = np.random.default_rng(1)
    resample_rng = np.random.default_rng(2)
    model = catalog.make_ou_benchmark(epsilon=1 / 16, c_b=0.5, c_h=2.0, sigma0=0.5)
    ens = ParticleEnsemble(states=np.hstack([x, z]), weights=w)
    hv = model.obs_fn(x, z)
    dy = np.array([0.01])
    basis = default_basis(16, 1)
    mu = EmpiricalMeasure(atoms=x, weights=w)
    nu = EmpiricalMeasure(atoms=z, weights=np.full(N, 1.0 / N))
    # A tabulated model on the 17-node grid; the averager is kept tiny
    # because only the interpolator's query cost is timed.
    hm = build_homogenized(
        catalog.make_sinusoidal(epsilon=0.05),
        TabulationGrid(lows=(-2.0,), highs=(2.0,), counts=(17,)),
        StationaryAverager(burn_in=0.01, sample_horizon=0.02, dt=0.01, replicates=2),
        root_seed=0)
    return {
        # epsilon 1/16: 16 fast substeps per slow step
        "models.micro.multiscale_step_us":
            lambda: multiscale_step(model, x, z, 0.02, 16, step_rng),
        "filtering.micro.weight_update_us": lambda: weight_update(ens, dy, hv, 0.02),
        "filtering.micro.systematic_resample_us":
            lambda: systematic_resample(ens, resample_rng),
        "measures.micro.metric_d_us": lambda: metric_d(mu, nu, basis),
        "averaging.micro.interp_query_us": lambda: hm.drift_avg(x),
    }


def micro_metrics():
    """p50 and p90 of each case, in microseconds, plus the sample count."""
    out = {}
    for name, call in _cases().items():
        for _ in range(WARMUP):
            call()
        times = np.empty(SAMPLES)
        for i in range(SAMPLES):
            t0 = time.perf_counter()
            call()
            times[i] = time.perf_counter() - t0
        times *= 1e6
        out[f"{name}.p50"] = (float(np.percentile(times, 50)), "us")
        out[f"{name}.p90"] = (float(np.percentile(times, 90)), "us")
    out["micro.samples"] = (SAMPLES, "count")
    return out
