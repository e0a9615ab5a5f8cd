"""Invariant-measure averaging of the fast dynamics and the reduced model.

The fast process frozen at a slow state x is ergodic with a unique stationary
law; averaging the slow-drift, squared-diffusion and read-out coefficients
against that law yields the reduced model (averaged drift, averaged squared
diffusion and its PSD square root, averaged read-out).  Averages are estimated
by long-run time averaging over independent replicates, either at the nodes of
a tabulation grid or supplied analytically for families where they are known.
"""

import itertools
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BlowUpError, HomfiltError, NonErgodicWarning, NotPSDError,
                     NotSymmetricError, UsageError)
from .models import MultiscaleModel, fast_step, step_count
from . import rng as rngmod, schema

TOL_PSD = 1e-10

TABLE_KEYS = ("b", "a", "h", "b_se", "a_se", "h_se")  # node arrays, in file order


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
        if not self.burn_in < self.sample_horizon:
            raise ValueError("need burn_in < sample_horizon")
        if self.replicates < 1:
            raise ValueError("need replicates >= 1")
        step_count(self.burn_in, self.dt)
        step_count(self.sample_horizon, self.dt)


def _frozen_sums(model: MultiscaleModel, nodes: np.ndarray,
                 thetas: Sequence[Callable], cfg: StationaryAverager,
                 streams: Sequence[np.random.Generator]) -> tuple:
    """Per-replicate time sums of several integrands along frozen-x paths.

    One time loop serves every node: z has shape (nodes, replicates, n) and
    takes one ``fast_step`` substep of size ``cfg.dt`` per step.  Node i
    draws only from ``streams[i]``, first its replicates' initial z and then
    what ``simulate_frozen_fast`` would draw from that z, so its sums do not
    depend on the other nodes.  Memory does not grow with the horizon.  Returns
    the sums, one array of shape (nodes, replicates) + tail per integrand, and
    the number of sampled states.  A table needs every node, so the loop stops
    at the first step at which any node's z is not finite and raises
    BlowUpError for the lowest-index node that is non-finite at that step.
    """
    noise = rngmod.StreamBatch(streams)
    z = noise.standard_normal((len(nodes), cfg.replicates, model.dim_fast))
    x = np.broadcast_to(nodes[:, None, :], z.shape[:-1] + (model.dim_slow,))
    n_steps = step_count(cfg.sample_horizon, cfg.dt)
    i0 = step_count(cfg.burn_in, cfg.dt)
    sums = [np.zeros(np.shape(theta(x, z))) for theta in thetas]
    for i in range(n_steps):
        z = fast_step(model, x, z, cfg.dt, 1, noise)
        if not np.isfinite(z).all():
            k = np.argmin(np.isfinite(z).all(axis=(1, 2)))  # lowest-index failed node
            raise BlowUpError(i, f"node {k} at x={nodes[k].tolist()}: "
                              f"numerical blow-up at step {i}")
        if i + 1 >= i0:
            for acc, theta in zip(sums, thetas):
                acc += np.asarray(theta(x, z), dtype=float)
    return sums, n_steps + 1 - i0


def _estimates(sums: Sequence[np.ndarray], count: int, cfg: StationaryAverager,
               nodes: np.ndarray) -> list:
    """One (estimates, standard_errors) pair per integrand from ``_frozen_sums``.

    Each (nodes, replicates) + tail array of sums gives (nodes,) + tail
    estimates and standard errors; the standard error is the across-replicate
    spread of the per-replicate time averages.  A node whose replicates
    disagree warns once per integrand, in node order.
    """
    results, flagged = [], []
    for acc in sums:
        rep_means = acc / count               # (nodes, replicates) + tail
        est = rep_means.mean(axis=1)
        if cfg.replicates > 1:
            se = rep_means.std(axis=1, ddof=1) / np.sqrt(cfg.replicates)
            spread = np.abs(rep_means - est[:, None]).max(axis=1)
            # This is spread > 10 s, s the sample SD of the replicate means, and
            # Samuelson's inequality (spread <= s (R - 1) / sqrt(R)) keeps it from
            # firing at R <= 101 replicates (default 64), even if z never mixes.
            bad = spread > 10.0 * np.sqrt(cfg.replicates) * se + 1e-300
            flagged.append(bad.reshape(len(nodes), -1).any(axis=1))
        else:
            se = np.zeros_like(est)
        results.append((est, se))
    for i, x in enumerate(nodes):
        for bad in flagged:
            if bad[i]:
                warnings.warn("replicate disagreement exceeds 10x pooled standard "
                              f"error at x={x.tolist()}", NonErgodicWarning)
    return results


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
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
    if w.min() < -TOL_PSD:
        raise NotPSDError(f"eigenvalue {w.min():.3g} below -{TOL_PSD:g}")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class TabulationGrid:
    """Rectangular grid over the slow-state space."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    counts: tuple[int, ...]
    interpolation: str = "multilinear"  # or "nearest"

    def __post_init__(self):
        if len(self.lows) != len(self.highs) or len(self.lows) != len(self.counts):
            raise ValueError("lows, highs and counts must have equal length")
        for lo, hi, c in zip(self.lows, self.highs, self.counts):
            if not (lo < hi and np.isfinite(hi - lo)):
                raise ValueError(f"need lo < hi, hi - lo finite; got [{lo}, {hi}]")
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


# The grid fields that hold one value per axis: a table file's axis= lines.
_PER_AXIS = [f for f in fields(TabulationGrid) if schema.item_kind(f.type)]


@dataclass(frozen=True)
class HomogenizedModel:
    """Reduced slow-only model: averaged drift, squared diffusion and read-out.

    All functions broadcast over a leading batch axis like MultiscaleModel
    coefficients: drift_avg (..., m) -> (..., m), diffsq_avg -> (..., m, m),
    diff_avg -> (..., m, m), obs_avg -> (..., d).  A tabulated model holds
    its grid, node arrays and provenance in ``table``.
    """

    dim_slow: int
    drift_avg: Callable    # averaged b
    diffsq_avg: Callable   # averaged sigma sigma^T
    diff_avg: Callable     # PSD square root of diffsq_avg
    obs_avg: Callable      # averaged h
    table: Optional[dict] = None  # grid and node arrays, present when tabulated

    @cached_property
    def dim_obs(self) -> int:
        """d, read off obs_avg at the zero slow state."""
        return np.shape(self.obs_avg(np.zeros(self.dim_slow)))[-1]

    @cached_property
    def _stacked(self):
        """One interpolator over the table's node rows [b | sigma | h]."""
        t = self.table
        return _interpolator(t["grid"], np.concatenate(
            [t["b"], t["sigma"].reshape(len(t["b"]), -1), t["h"]], axis=1))

    def coefficients(self, x) -> tuple:
        """(drift_avg(x), diff_avg(x), obs_avg(x)); a table answers all three
        with one interpolator query."""
        if self.table is None:
            return self.drift_avg(x), self.diff_avg(x), self.obs_avg(x)
        m = self.dim_slow
        values = self._stacked(x)
        return (values[..., :m],
                values[..., m:m + m * m].reshape(values.shape[:-1] + (m, m)),
                values[..., m + m * m:])


def _interpolator(grid: TabulationGrid, node_values: np.ndarray):
    """Interpolate node values over the grid, extrapolating from the edge cells.

    Multilinear interpolation sums the corners of each point's cell; nearest
    takes the closer node along each axis.  The node values are held as one
    contiguous (values per node, nodes) array.  A point's cell along an axis
    is the number of interior nodes at or below it, from one search, and
    each corner is one gather along the node axis.  The arithmetic is that
    of scipy's ``RegularGridInterpolator(bounds_error=False,
    fill_value=None)``, so the results equal scipy's bit for bit.  A NaN
    coordinate gives NaN.
    """
    axes = grid.axes()
    interiors = [axis[1:-1] for axis in axes]
    widths = [np.diff(axis) for axis in axes]
    strides = np.cumprod((1,) + tuple(grid.counts[:0:-1]))[::-1].tolist()  # row-major
    tail = node_values.shape[1:]
    values = np.ascontiguousarray(node_values.reshape(len(node_values), -1).T)

    def query(x):
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        pts = x.reshape(-1, grid.ndim)
        cell, fracs = None, []
        for axis, interior, width, count, p in zip(axes, interiors, widths, grid.counts,
                                                   pts.T):
            i = np.searchsorted(interior, p, side="right")  # in [0, count - 2]
            cell = i if cell is None else cell * count + i  # row-major
            fracs.append((p - axis[i]) / width[i])
        if grid.interpolation == "nearest":
            out = values.take(cell + sum(np.where(y <= 0.5, 0, stride)
                                         for y, stride in zip(fracs, strides)), axis=1)
        else:
            sides = [(1 - y, y) for y in fracs]
            out = np.zeros((len(values), len(pts)))  # the sum starts from 0.0
            for corner in itertools.product((0, 1), repeat=grid.ndim):
                offset = sum(c * stride for c, stride in zip(corner, strides))
                term = values.take(cell + offset, axis=1)
                term *= reduce(np.multiply, [side[c] for c, side in zip(corner, sides)])
                out += term
        nan = np.isnan(pts).any(axis=-1)
        if nan.any():
            out[:, nan] = np.nan
        return out.T.reshape(batch + tail)

    return query


def _tabulated_model(table: dict) -> HomogenizedModel:
    """Wrap a table of node arrays on ``table["grid"]`` as a model, adding the
    PSD root ``sigma`` of each node's ``a``.  Built and loaded tables both pass
    here, so both refuse a non-finite value; a failure names its node."""
    grid = table["grid"]
    sigma = np.empty_like(table["a"])
    for i, x in enumerate(grid.nodes()):
        bad = [k for k in TABLE_KEYS if k in table and not np.isfinite(table[k][i]).all()]
        if bad:
            raise HomfiltError(f"block [{bad[0]}] node {i} at x={x.tolist()}: "
                               "non-finite value")
        try:
            sigma[i] = matrix_sqrt_psd(table["a"][i])
        except HomfiltError as exc:
            raise type(exc)(f"node {i} at x={x.tolist()}: {exc}") from exc
    table = {**table, "sigma": sigma}
    return HomogenizedModel(
        dim_slow=table["b"].shape[1], drift_avg=_interpolator(grid, table["b"]),
        diffsq_avg=_interpolator(grid, table["a"]), diff_avg=_interpolator(grid, sigma),
        obs_avg=_interpolator(grid, table["h"]), table=table)


def build_homogenized(model: MultiscaleModel, grid: TabulationGrid,
                      cfg: StationaryAverager, root_seed: int) -> HomogenizedModel:
    """Tabulate the averaged coefficients on a grid and wrap them as a model.

    Each node owns an independent random stream derived from root_seed and the
    node index, so node estimates are reproducible and order-independent.
    All nodes share one time loop, which stops at the first step at which
    any node's fast state is not finite: the BlowUpError names that step and
    the lowest-index node that failed at it.
    """
    if grid.ndim != model.dim_slow:
        raise UsageError(f"grid has {grid.ndim} axes, the model {model.dim_slow} "
                         "slow coordinates")

    def theta_a(x, z):
        s = model.diff_slow(x, z)
        return np.einsum("...mk,...jk->...mj", s, s)

    nodes = grid.nodes()
    streams = [rngmod.stream(root_seed, rngmod.NODE_STREAM, i) for i in range(len(nodes))]
    sums, count = _frozen_sums(
        model, nodes, [model.drift_slow, theta_a, model.obs_fn], cfg, streams)
    (b, b_se), (a, a_se), (h, h_se) = _estimates(sums, count, cfg, nodes)
    table = {"b": b, "a": 0.5 * (a + np.swapaxes(a, -1, -2)), "h": h,
             "b_se": b_se, "a_se": a_se, "h_se": h_se,
             "grid": grid, "root_seed": root_seed, "averager": cfg}
    return _tabulated_model(table)


# ---------------------------------------------------------------------------
# Text serialization of tabulated models (self-describing, reload bit-exact).
# ---------------------------------------------------------------------------

def _header_lines(obj) -> list:
    """``name=value`` for each field of ``obj`` but those of one value per axis."""
    return [f"{f.name}={schema.fmt(f.type, getattr(obj, f.name))}"
            for f in fields(obj) if f not in _PER_AXIS]


def save_tabulated(hm: HomogenizedModel, path: str):
    if hm.table is None:
        raise ValueError("only tabulated models can be serialized")
    t, g = hm.table, hm.table["grid"]
    lines = ["# homfilt tabulated homogenized model v1",
             f"dim_slow={hm.dim_slow}",
             f"dim_obs={hm.dim_obs}",
             *_header_lines(g),
             f"root_seed={t['root_seed']}",
             *_header_lines(t["averager"])]
    for values in zip(*(getattr(g, f.name) for f in _PER_AXIS)):
        lines.append("axis=" + " ".join(schema.fmt(schema.item_kind(f.type), v)
                                        for f, v in zip(_PER_AXIS, values)))
    for key in TABLE_KEYS:
        lines.append(f"[{key}]")
        for row in t[key]:
            lines.append(schema.fmt(tuple[float, ...], np.ravel(row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tabulated(path: str) -> HomogenizedModel:
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not raw or not raw[0].startswith("# homfilt tabulated"):
        raise ValueError("no '# homfilt tabulated' header line")
    header = {}
    axes = []
    i = 1
    while i < len(raw) and not raw[i].startswith("["):
        key, val = raw[i].split("=", 1)
        if key == "axis":
            axes.append(val.split())
            if len(axes[-1]) != len(_PER_AXIS):
                raise ValueError(f"axis={val} does not hold {len(_PER_AXIS)} values")
        else:
            header[key] = val
        i += 1
    grid = schema.build(TabulationGrid, {
        **{f.name: header[f.name] for f in fields(TabulationGrid) if f not in _PER_AXIS},
        **{f.name: [axis[j] for axis in axes] for j, f in enumerate(_PER_AXIS)}})
    m, d = int(header["dim_slow"]), int(header["dim_obs"])
    if grid.ndim != m:
        raise ValueError(f"dim_slow={m}, but {grid.ndim} axis lines")
    nodes = grid.nodes()
    blocks = {}
    for line in raw[i:]:
        if line.startswith("["):
            blocks[line.strip("[]")] = rows = []
        else:
            rows.append([float(v) for v in line.split()])
    for key in TABLE_KEYS:
        rows = blocks.get(key, [])  # a missing block is named as one of no rows
        if len(rows) != len(nodes):
            raise ValueError(f"block [{key}] has {len(rows)} rows, not one for each "
                             f"node 0..{len(nodes) - 1}")
        blocks[key] = np.array(rows)
    cfg = schema.build(StationaryAverager,
                       {f.name: header[f.name] for f in fields(StationaryAverager)})
    shapes = {"b": (m,), "a": (m, m), "h": (d,)}  # per node, for a key and its _se
    table = {key: blocks[key].reshape((len(nodes),) + shapes[key[0]])
             for key in TABLE_KEYS}
    table.update(grid=grid, root_seed=int(header["root_seed"]), averager=cfg)
    return _tabulated_model(table)
