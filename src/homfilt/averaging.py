"""Invariant-measure averaging of the fast dynamics and the reduced model.

The fast process frozen at a slow state x is ergodic with a unique stationary
law; averaging the slow-drift, squared-diffusion and read-out coefficients
against that law yields the reduced model (averaged drift, averaged squared
diffusion and its PSD square root, averaged read-out).  Averages are estimated
by long-run time averaging over independent replicates, either at the nodes of
a tabulation grid or supplied analytically for families where they are known.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotPSDError, NotSymmetricError, HomfiltError, NonErgodicWarning
from .models import MultiscaleModel
from . import rng as rngmod

TOL_PSD = 1e-10

NODE_STREAM = 7  # namespace tag for per-node rng derivation


@dataclass(frozen=True)
class StationaryAverager:
    """Settings for time-average estimation of stationary expectations.

    Defaults are sized for unit-rate mixing: 64 replicates of 590 sampled
    time units give error bars below 0.02 for order-one integrands.
    """

    burn_in: float = 10.0
    sample_horizon: float = 600.0
    dt: float = 1e-3
    replicates: int = 64

    def __post_init__(self):
        if not (0 < self.burn_in < self.sample_horizon):
            raise ValueError("need 0 < burn_in < sample_horizon")
        if self.dt <= 0 or self.replicates < 1:
            raise ValueError("dt must be positive and replicates >= 1")


def _frozen_time_averages(model: MultiscaleModel, x: np.ndarray,
                          thetas: Sequence[Callable], cfg: StationaryAverager,
                          rng: np.random.Generator):
    """Time averages of several integrands along one shared frozen-x path.

    Returns one (estimate, standard_error) pair per integrand; the standard
    error is the across-replicate spread of the per-replicate time averages.
    """
    from .models import simulate_frozen_fast

    x = np.asarray(x, dtype=float)
    z0 = rng.standard_normal((cfg.replicates, model.dim_fast))
    path = simulate_frozen_fast(model, x, z0, cfg.sample_horizon, cfg.dt, rng)
    i0 = int(round(cfg.burn_in / cfg.dt))
    zs = path[i0:]                            # (T, replicates, n)
    xb = np.broadcast_to(x, zs.shape[:-1] + (model.dim_slow,))
    results = []
    for theta in thetas:
        vals = np.asarray(theta(xb, zs), dtype=float)
        rep_means = vals.mean(axis=0)         # (replicates,) + tail
        est = rep_means.mean(axis=0)
        if cfg.replicates > 1:
            se = rep_means.std(axis=0, ddof=1) / np.sqrt(cfg.replicates)
            spread = np.abs(rep_means - est).max(axis=0)
            # 10x the per-replicate scatter: unreachable for any ergodic
            # process at these replicate counts, a red flag otherwise.
            if np.any(spread > 10.0 * np.sqrt(cfg.replicates) * se + 1e-300):
                warnings.warn("replicate disagreement exceeds 10x pooled standard "
                              f"error at x={x.tolist()}", NonErgodicWarning)
        else:
            se = np.zeros_like(est)
        results.append((est, se))
    return results


def estimate_stationary_average(model: MultiscaleModel, x: np.ndarray,
                                theta: Callable, cfg: StationaryAverager,
                                rng: np.random.Generator):
    """Estimate the stationary expectation of theta(x, Z) for the frozen fast process.

    theta must broadcast like a model coefficient; scalar-, vector- and
    matrix-valued integrands are all supported.
    """
    return _frozen_time_averages(model, x, [theta], cfg, rng)[0]


def matrix_sqrt_psd(a: np.ndarray, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clipping tiny negatives.

    Raises NotSymmetricError / NotPSDError if the input violates its contract.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    asym = np.abs(a - a.T).max()
    if asym > 1e-10:
        raise NotSymmetricError(f"asymmetry {asym:.3g} exceeds 1e-10")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    if w.min() < -tol_psd:
        raise NotPSDError(f"eigenvalue {w.min():.3g} below -{tol_psd:g}")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class TabulationGrid:
    """Rectangular grid over the slow-state space."""

    lows: tuple
    highs: tuple
    counts: tuple
    interpolation: str = "multilinear"  # or "nearest"

    def __post_init__(self):
        if len(self.lows) != len(self.highs) or len(self.lows) != len(self.counts):
            raise ValueError("lows, highs and counts must have equal length")
        for lo, hi, c in zip(self.lows, self.highs, self.counts):
            if not lo < hi:
                raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
            if c < 2:
                raise ValueError("need at least 2 nodes per dimension")
        if self.interpolation not in ("multilinear", "nearest"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")

    @property
    def ndim(self) -> int:
        return len(self.lows)

    def axes(self) -> list:
        return [np.linspace(lo, hi, c)
                for lo, hi, c in zip(self.lows, self.highs, self.counts)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (prod(counts), ndim), row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class HomogenizedModel:
    """Reduced slow-only model: averaged drift, squared diffusion and read-out.

    All functions broadcast over a leading batch axis like MultiscaleModel
    coefficients: drift_avg (..., m) -> (..., m), diffsq_avg -> (..., m, m),
    diff_avg -> (..., m, m), obs_avg -> (..., d).
    """

    dim_slow: int
    dim_obs: int
    drift_avg: Callable    # averaged b
    diffsq_avg: Callable   # averaged sigma sigma^T
    diff_avg: Callable     # PSD square root of diffsq_avg
    obs_avg: Callable      # averaged h
    provenance: str = "analytic"
    grid: Optional[TabulationGrid] = None
    table: Optional[dict] = None  # node arrays, present when tabulated


def _interpolator(grid: TabulationGrid, node_values: np.ndarray):
    # Imported here: importing scipy costs more start-up time and memory than
    # the rest of homfilt, and only tabulated models need it.
    from scipy.interpolate import RegularGridInterpolator

    method = "linear" if grid.interpolation == "multilinear" else "nearest"
    shape = tuple(grid.counts) + node_values.shape[1:]
    itp = RegularGridInterpolator(grid.axes(), node_values.reshape(shape),
                                  method=method, bounds_error=False, fill_value=None)
    tail = node_values.shape[1:]

    def query(x):
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        out = itp(x.reshape(-1, grid.ndim))
        return out.reshape(batch + tail)

    return query


def build_homogenized(model: MultiscaleModel, grid: TabulationGrid,
                      cfg: StationaryAverager, root_seed: int) -> HomogenizedModel:
    """Tabulate the averaged coefficients on a grid and wrap them as a model.

    Each node owns an independent random stream derived from root_seed and the
    node index, so node estimates are reproducible and order-independent.
    """
    if grid.ndim != model.dim_slow:
        raise ValueError("grid dimension must equal the slow dimension")

    def theta_b(x, z):
        return model.drift_slow(x, z)

    def theta_a(x, z):
        s = model.diff_slow(x, z)
        return np.einsum("...mk,...jk->...mj", s, s)

    def theta_h(x, z):
        return model.obs_fn(x, z)

    nodes = grid.nodes()
    m, d = model.dim_slow, model.dim_obs
    nb = np.empty((len(nodes), m))
    na = np.empty((len(nodes), m, m))
    nh = np.empty((len(nodes), d))
    ns = np.empty((len(nodes), m, m))
    nb_se = np.empty_like(nb)
    na_se = np.empty_like(na)
    nh_se = np.empty_like(nh)
    for i, x in enumerate(nodes):
        stream = rngmod.stream(root_seed, NODE_STREAM, i)
        try:
            (b, b_se), (a, a_se), (h, h_se) = _frozen_time_averages(
                model, x, [theta_b, theta_a, theta_h], cfg, stream)
            ns[i] = matrix_sqrt_psd(0.5 * (a + np.swapaxes(a, -1, -2)))
        except HomfiltError as exc:
            raise type(exc)(f"node {i} at x={x.tolist()}: {exc}") from exc
        nb[i], na[i], nh[i] = b, 0.5 * (a + np.swapaxes(a, -1, -2)), h
        nb_se[i], na_se[i], nh_se[i] = b_se, a_se, h_se

    table = {"b": nb, "a": na, "h": nh, "sigma": ns,
             "b_se": nb_se, "a_se": na_se, "h_se": nh_se,
             "root_seed": root_seed, "averager": cfg}
    return HomogenizedModel(
        dim_slow=m, dim_obs=d,
        drift_avg=_interpolator(grid, nb),
        diffsq_avg=_interpolator(grid, na),
        diff_avg=_interpolator(grid, ns),
        obs_avg=_interpolator(grid, nh),
        provenance="tabulated", grid=grid, table=table)


# ---------------------------------------------------------------------------
# Text serialization of tabulated models (self-describing, reload bit-exact).
# ---------------------------------------------------------------------------

def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def save_tabulated(hm: HomogenizedModel, path: str):
    if hm.provenance != "tabulated" or hm.table is None or hm.grid is None:
        raise ValueError("only tabulated models can be serialized")
    g, t = hm.grid, hm.table
    cfg = t["averager"]
    lines = ["# homfilt tabulated homogenized model v1",
             f"dim_slow={hm.dim_slow}",
             f"dim_obs={hm.dim_obs}",
             f"interpolation={g.interpolation}",
             f"root_seed={t['root_seed']}",
             f"burn_in={cfg.burn_in!r}",
             f"sample_horizon={cfg.sample_horizon!r}",
             f"dt={cfg.dt!r}",
             f"replicates={cfg.replicates}"]
    for lo, hi, c in zip(g.lows, g.highs, g.counts):
        lines.append(f"axis={lo!r} {hi!r} {c}")
    for key in ("b", "a", "h", "b_se", "a_se", "h_se"):
        lines.append(f"[{key}]")
        for row in t[key]:
            lines.append(_fmt_row(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tabulated(path: str) -> HomogenizedModel:
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    if not raw or not raw[0].startswith("# homfilt tabulated"):
        raise ValueError(f"{path}: not a tabulated model file")
    header = {}
    axes = []
    i = 1
    while i < len(raw) and not raw[i].startswith("["):
        key, val = raw[i].split("=", 1)
        if key == "axis":
            lo, hi, c = val.split()
            axes.append((float(lo), float(hi), int(c)))
        else:
            header[key] = val
        i += 1
    grid = TabulationGrid(lows=tuple(a[0] for a in axes),
                          highs=tuple(a[1] for a in axes),
                          counts=tuple(a[2] for a in axes),
                          interpolation=header["interpolation"])
    m, d = int(header["dim_slow"]), int(header["dim_obs"])
    n_nodes = int(np.prod(grid.counts))
    blocks = {}
    while i < len(raw):
        key = raw[i].strip("[]")
        rows = [np.fromstring(raw[j], sep=" ") for j in range(i + 1, i + 1 + n_nodes)]
        blocks[key] = np.array(rows)
        i += 1 + n_nodes
    nb = blocks["b"].reshape(n_nodes, m)
    na = blocks["a"].reshape(n_nodes, m, m)
    nh = blocks["h"].reshape(n_nodes, d)
    ns = np.array([matrix_sqrt_psd(a) for a in na])
    cfg = StationaryAverager(burn_in=float(header["burn_in"]),
                             sample_horizon=float(header["sample_horizon"]),
                             dt=float(header["dt"]),
                             replicates=int(header["replicates"]))
    table = {"b": nb, "a": na, "h": nh, "sigma": ns,
             "b_se": blocks["b_se"].reshape(n_nodes, m),
             "a_se": blocks["a_se"].reshape(n_nodes, m, m),
             "h_se": blocks["h_se"].reshape(n_nodes, d),
             "root_seed": int(header["root_seed"]), "averager": cfg}
    return HomogenizedModel(
        dim_slow=m, dim_obs=d,
        drift_avg=_interpolator(grid, nb),
        diffsq_avg=_interpolator(grid, na),
        diff_avg=_interpolator(grid, ns),
        obs_avg=_interpolator(grid, nh),
        provenance="tabulated", grid=grid, table=table)
