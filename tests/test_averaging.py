import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from homfilt import catalog, rng as rngmod
from homfilt.averaging import (HomogenizedModel, StationaryAverager,
                               TabulationGrid, _estimates, _frozen_sums,
                               _interpolator, _tabulated_model, build_homogenized,
                               load_tabulated,
                               matrix_sqrt_psd, save_tabulated)
from homfilt.errors import BlowUpError, NonErgodicWarning, NotPSDError, NotSymmetricError
from homfilt.models import MultiscaleModel, simulate_frozen_fast

from conftest import const_mat

# Fast settings for unit tests; the acceptance suite uses the defaults.
FAST_CFG = StationaryAverager(burn_in=2.0, sample_horizon=32.0, dt=1e-3,
                              replicates=6)


def ou_model(diff_slow=None, drift_slow=None, obs_fn=None):
    """Fast OU block relaxing to x: frozen stationary law N(x, 1)."""
    return MultiscaleModel(
        dim_slow=1, dim_fast=1,
        drift_slow=drift_slow or (lambda x, z: -x + 0.5 * z),
        diff_slow=diff_slow or const_mat(1.0),
        drift_fast=lambda x, z: -(z - x),
        diff_fast=const_mat(np.sqrt(2.0)),
        obs_fn=obs_fn or (lambda x, z: x))


def lone_average(model, x, theta, cfg, rng):
    """(estimate, standard error) of one integrand at one node x, drawn from rng."""
    nodes = np.asarray(x, dtype=float)[None]
    sums, count, first_bad = _frozen_sums(model, nodes, [theta], cfg, [rng])
    if first_bad[0] >= 0:
        raise BlowUpError(int(first_bad[0]))
    ((est, se),) = _estimates(sums, count, cfg, nodes)
    return est[0], se[0]


def cubic_model():
    """A fast block given without fast_ou, so every path takes Euler steps:
    drift -(z - x) - 0.1 z^3 and constant diffusion 0.8."""
    return MultiscaleModel(
        dim_slow=1, dim_fast=1, drift_slow=lambda x, z: -x + 0.5 * z,
        diff_slow=const_mat(1.0), drift_fast=lambda x, z: -(z - x) - 0.1 * z ** 3,
        diff_fast=const_mat(0.8), obs_fn=lambda x, z: x + z)


# sha256 of cubic_model()'s frozen-x outputs below; they pin the Euler path's
# bytes and the order in which each generator draws its normals.
FROZEN_SUMS_SHA256 = "ab96e7f8d97fc0c9441bf2335fc350ceabdff4b2164229db966a0b7cc0bd5a81"
FROZEN_PATH_SHA256 = "7d3f4b96f99143fe3907337b98ddcbb91ce45d8cf4717e7e6cded71b366f6560"


def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


class TestEulerFastBlockPinned:
    def test_frozen_sums(self):
        model = cubic_model()
        nodes = np.array([[-1.0], [0.0], [1.5]])
        cfg = StationaryAverager(burn_in=1.0, sample_horizon=50.0, dt=1e-2,
                                 replicates=5)
        sums, count, first_bad = _frozen_sums(
            model, nodes, [lambda x, z: z[..., 0], lambda x, z: z[..., 0] ** 2,
                           model.obs_fn],
            cfg, [rngmod.stream(17, rngmod.NODE_STREAM, i) for i in range(3)])
        assert (count, first_bad.tolist()) == (4901, [-1, -1, -1])
        assert digest(*sums) == FROZEN_SUMS_SHA256

    def test_frozen_path(self):
        path = simulate_frozen_fast(cubic_model(), np.array([0.4]),
                                    np.linspace(-2.0, 2.0, 3)[:, None], 2.0, 1e-2,
                                    rng=np.random.default_rng(18))
        assert path.shape == (201, 3, 1)
        assert digest(path) == FROZEN_PATH_SHA256


class TestEstimateStationaryAverage:
    def test_constant_integrand(self, rng):
        est, se = lone_average(
            ou_model(), np.array([0.3]), lambda x, z: np.ones(z.shape[:-1]),
            FAST_CFG, rng)
        assert est == 1.0
        assert se == 0.0

    def test_ou_first_moment(self, rng):
        est, se = lone_average(
            ou_model(), np.array([0.7]), lambda x, z: z[..., 0], FAST_CFG, rng)
        assert abs(est - 0.7) < 3 * se

    def test_ou_second_moment(self, rng):
        est, se = lone_average(
            ou_model(), np.array([0.5]), lambda x, z: z[..., 0] ** 2,
            FAST_CFG, rng)
        assert abs(est - 1.25) < 3 * se

    def test_z_independent_integrand_zero_se(self, rng):
        est, se = lone_average(
            ou_model(), np.array([2.0]), lambda x, z: x[..., 0], FAST_CFG, rng)
        assert est == 2.0
        assert se == 0.0

    def test_se_shrinks_with_horizon(self):
        # Doubling the sampling time should shrink the error bar roughly
        # like 1/sqrt(time); allow a factor-2 band around that.
        ses = []
        for horizon in (32.0, 62.0):
            cfg = StationaryAverager(burn_in=2.0, sample_horizon=horizon,
                                     dt=1e-3, replicates=8)
            _, se = lone_average(
                ou_model(), np.array([0.0]), lambda x, z: z[..., 0], cfg,
                np.random.default_rng(99))
            ses.append(se)
        ratio = ses[1] / ses[0]
        assert 1.0 / (2 * np.sqrt(2)) < ratio < 2.0 / np.sqrt(2)


def test_estimates_reduce_each_node_and_warn_in_node_order():
    # Node arrays give each node's own reductions; a lone outlier among 200
    # replicates trips the disagreement check, once per node and integrand.
    rng = np.random.default_rng(3)
    nodes = np.array([[0.0], [1.0], [2.0]])
    sums = [rng.standard_normal((3, 200)), rng.standard_normal((3, 200, 2))]
    sums[0][1, 0] = sums[1][1, 0, 1] = sums[1][2, 5, 0] = 1e6
    cfg = StationaryAverager(replicates=200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _estimates(sums, 7, cfg, nodes)
    assert [str(w.message)[-7:] for w in caught] == ["x=[1.0]", "x=[1.0]", "x=[2.0]"]
    assert all(w.category is NonErgodicWarning for w in caught)
    for acc, (est, se) in zip(sums, results):
        for i in range(3):
            rep_means = acc[i] / 7
            assert np.array_equal(est[i], rep_means.mean(axis=0))
            assert np.array_equal(se[i], rep_means.std(axis=0, ddof=1) / np.sqrt(200))


class TestMatrixSqrtPsd:
    def test_identity(self):
        assert np.array_equal(matrix_sqrt_psd(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_two_by_two_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = matrix_sqrt_psd(a)
        # Eigendecomposition oracle: (sqrt(3)+1)/2 diagonal, (sqrt(3)-1)/2 off.
        expect = np.array([[(np.sqrt(3) + 1) / 2, (np.sqrt(3) - 1) / 2],
                           [(np.sqrt(3) - 1) / 2, (np.sqrt(3) + 1) / 2]])
        assert np.allclose(s, expect, atol=1e-12)
        assert np.abs(s @ s - a).max() < 1e-10

    def test_clipping_path(self):
        a = np.diag([1.0, -5e-11])
        s = matrix_sqrt_psd(a)
        assert s[1, 1] == 0.0
        assert np.abs(s @ s - np.diag([1.0, 0.0])).max() < 1e-10

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            matrix_sqrt_psd(np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(NotSymmetricError, match="square matrix, got shape"):
            matrix_sqrt_psd(np.zeros((2, 3)))

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            matrix_sqrt_psd(np.diag([1.0, -1e-3]))


class TestBuildHomogenized:
    def test_constant_diffusion_exact(self):
        model = ou_model(diff_slow=const_mat(1.0))
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=5)
        for node in hm.table["grid"].nodes():
            assert np.allclose(hm.diffsq_avg(node), [[1.0]], atol=1e-12)
            assert np.allclose(hm.diff_avg(node), [[1.0]], atol=1e-12)

    def test_linear_drift_average(self):
        # b(x,z) = -x + 0.5 z averages to -0.5 x under N(x, 1).
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=6)
        t = hm.table
        for i, node in enumerate(grid.nodes()):
            se = max(t["b_se"][i, 0], 1e-12)
            assert abs(t["b"][i, 0] - (-0.5 * node[0])) < 3 * se

    def test_z_squared_diffusion_average(self):
        # sigma^2 = 1 + z^2 averages to 2 + x^2.
        def diff(x, z):
            return np.sqrt(1.0 + z[..., :1] ** 2)[..., None]

        model = ou_model(diff_slow=diff)
        grid = TabulationGrid(lows=(0.0,), highs=(1.0,), counts=(2,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=7)
        t = hm.table
        se = t["a_se"][1, 0, 0]
        assert abs(t["a"][1, 0, 0] - 3.0) < 3 * se

    def test_sigma_reproduces_a_at_nodes(self):
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=8)
        for a, s in zip(hm.table["a"], hm.table["sigma"]):
            assert np.abs(s @ s - a).max() < 1e-8

    def test_multilinear_interpolation_exact_on_linear_data(self):
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=9)
        nodes = grid.nodes()
        mid = 0.5 * (nodes[0] + nodes[1])
        expect = 0.5 * (hm.drift_avg(nodes[0]) + hm.drift_avg(nodes[1]))
        assert np.allclose(hm.drift_avg(mid), expect, atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        hm = build_homogenized(model, grid, FAST_CFG, root_seed=10)
        path = str(tmp_path / "table.txt")
        save_tabulated(hm, path)
        hm2 = load_tabulated(path)
        assert (hm2.table["grid"], hm2.table["averager"]) == (grid, FAST_CFG)
        probes = np.linspace(-1.2, 1.2, 7)[:, None]
        assert np.array_equal(hm.drift_avg(probes), hm2.drift_avg(probes))
        assert np.array_equal(hm.diffsq_avg(probes), hm2.diffsq_avg(probes))
        assert np.array_equal(hm.diff_avg(probes), hm2.diff_avg(probes))
        assert np.array_equal(hm.obs_avg(probes), hm2.obs_avg(probes))
        with pytest.raises(ValueError, match="only tabulated models"):
            save_tabulated(catalog.make_analytic_homogenized("ou_benchmark"), path)

    def test_determinism(self):
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(2,))
        h1 = build_homogenized(model, grid, FAST_CFG, root_seed=11)
        h2 = build_homogenized(model, grid, FAST_CFG, root_seed=11)
        assert np.array_equal(h1.table["b"], h2.table["b"])
        assert np.array_equal(h1.table["a"], h2.table["a"])

    def test_grid_loop_equals_lone_nodes(self):
        # One time loop over all nodes gives each node's lone estimate.
        model = ou_model(diff_slow=lambda x, z: np.sqrt(1.0 + z[..., :1] ** 2)[..., None],
                         obs_fn=lambda x, z: x + np.sin(z))
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(4,))
        cfg = StationaryAverager(burn_in=1.0, sample_horizon=8.0, dt=1e-2,
                                 replicates=6)
        hm = build_homogenized(model, grid, cfg, root_seed=12)
        thetas = {"b": model.drift_slow, "h": model.obs_fn,
                  "a": lambda x, z: model.diff_slow(x, z) ** 2}
        for i, node in enumerate(grid.nodes()):
            for key, theta in thetas.items():
                est, se = lone_average(
                    model, node, theta, cfg, rngmod.stream(12, rngmod.NODE_STREAM, i))
                assert np.array_equal(hm.table[key][i], est)
                assert np.array_equal(hm.table[key + "_se"][i], se)

    def test_memory_does_not_grow_with_horizon(self):
        model = ou_model()
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(3,))
        peaks = []
        for horizon in (10.0, 40.0):
            cfg = StationaryAverager(burn_in=1.0, sample_horizon=horizon,
                                     dt=1e-2, replicates=64)
            tracemalloc.start()
            build_homogenized(model, grid, cfg, root_seed=13)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_blow_up_names_lowest_failed_node(self):
        # The fast process explodes for x > 0.2, sooner at larger x; node 3
        # fails after node 4, yet is the one reported, at its own step.
        model = MultiscaleModel(
            dim_slow=1, dim_fast=1,
            drift_slow=lambda x, z: -x, diff_slow=const_mat(1.0),
            drift_fast=lambda x, z: -z + np.maximum(x - 0.2, 0.0) * z ** 3,
            diff_fast=const_mat(1.0), obs_fn=lambda x, z: x)
        grid = TabulationGrid(lows=(-1.0,), highs=(1.0,), counts=(5,))
        cfg = StationaryAverager(burn_in=0.5, sample_horizon=5.0, dt=1e-2,
                                 replicates=4)
        lone = {}
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                build_homogenized(model, grid, cfg, root_seed=1)
            for i, x in ((3, 0.5), (4, 1.0)):
                with pytest.raises(BlowUpError) as exc:
                    lone_average(model, np.array([x]), model.obs_fn, cfg,
                                 rngmod.stream(1, rngmod.NODE_STREAM, i))
                lone[i] = exc.value.step
        assert lone[4] < lone[3]
        assert str(info.value).startswith("node 3 at x=[0.5]: ")
        assert info.value.step == lone[3]


INTERP_CASES = list(itertools.product((1, 2, 3), ((2,), (2, 2)),
                                      ("multilinear", "nearest")))


@pytest.mark.parametrize("ndim,tail,method", INTERP_CASES)
def test_interpolator_matches_scipy_bit_for_bit(ndim, tail, method):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(ndim)
    counts = tuple(int(c) for c in rng.integers(2, 6, ndim))
    lows = rng.uniform(-3.0, 0.0, ndim)
    highs = lows + rng.uniform(0.5, 4.0, ndim)
    grid = TabulationGrid(tuple(lows), tuple(highs), counts, method)
    values = rng.standard_normal((int(np.prod(counts)),) + tail)
    values.flat[0] = -0.0
    ref = interpolate.RegularGridInterpolator(
        grid.axes(), values.reshape(counts + tail),
        method="linear" if method == "multilinear" else "nearest",
        bounds_error=False, fill_value=None)
    # Interior and out-of-range points, the nodes, the corners, -0.0 and NaN.
    pts = np.concatenate([rng.uniform(lows - 1.0, highs + 1.0, (300, ndim)),
                          grid.nodes(), [lows], [highs], np.full((1, ndim), -0.0)])
    pts[3, 0] = np.nan
    pts[7] = np.nan
    got = _interpolator(grid, values)(pts[:, None, :])
    want = ref(pts).reshape(got.shape)
    assert got.shape == (len(pts), 1) + tail
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[3]).all()


def _reference_point(axes, rows, method, point):
    """One point's interpolated node values, in plain Python floats.

    The cell is found by scanning each axis, and a multilinear value sums
    the corners' weighted rows from 0.0, in itertools.product order."""
    if any(p != p for p in point):
        return [float("nan")] * len(rows[0])
    cells, fracs = [], []
    for axis, p in zip(axes, point):
        i = 0
        while i < len(axis) - 2 and axis[i + 1] <= p:
            i += 1
        cells.append(i)
        fracs.append((p - axis[i]) / (axis[i + 1] - axis[i]))

    def row(index):  # the row of a node, numbered in row-major order
        k = 0
        for axis, j in zip(axes, index):
            k = k * len(axis) + j
        return rows[k]

    if method == "nearest":
        return row([i + (y > 0.5) for i, y in zip(cells, fracs)])
    out = [0.0] * len(rows[0])
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = 1.0
        for c, y in zip(corner, fracs):
            weight *= y if c else 1 - y
        out = [o + v * weight for o, v in zip(out, row([i + c for i, c in zip(cells, corner)]))]
    return out


@pytest.mark.parametrize("ndim,tail,method", INTERP_CASES)
def test_interpolator_matches_a_plain_python_reference(ndim, tail, method):
    # The grid, values and points of the scipy comparison, which needs scipy.
    rng = np.random.default_rng(ndim)
    counts = tuple(int(c) for c in rng.integers(2, 6, ndim))
    lows = rng.uniform(-3.0, 0.0, ndim)
    highs = lows + rng.uniform(0.5, 4.0, ndim)
    grid = TabulationGrid(tuple(lows), tuple(highs), counts, method)
    values = rng.standard_normal((int(np.prod(counts)),) + tail)
    values.flat[0] = -0.0
    pts = np.concatenate([rng.uniform(lows - 1.0, highs + 1.0, (300, ndim)),
                          grid.nodes(), [lows], [highs], np.full((1, ndim), -0.0)])
    pts[3, 0] = np.nan
    pts[7] = np.nan
    axes = [axis.tolist() for axis in grid.axes()]
    # All -0.0: a multilinear sum from 0.0 gives +0.0, a nearest node -0.0.
    for node_values in (values, np.full_like(values, -0.0)):
        got = _interpolator(grid, node_values)(pts[:, None, :])
        rows = node_values.reshape(len(node_values), -1).tolist()
        want = np.array([_reference_point(axes, rows, method, p) for p in pts.tolist()])
        assert got.shape == (len(pts), 1) + tail
        assert got.tobytes() == want.reshape(got.shape).tobytes()


@pytest.mark.parametrize("method", ["multilinear", "nearest"])
def test_coefficients_equal_the_three_field_queries(method):
    # m = 2 slow coordinates and d = 3 read-outs on a 3 x 4 grid.
    rng = np.random.default_rng(0)
    grid = TabulationGrid((-1.0, 0.0), (1.0, 2.0), (3, 4), method)
    roots = rng.standard_normal((12, 2, 2))
    hm = _tabulated_model({"grid": grid, "b": rng.standard_normal((12, 2)),
                           "a": roots @ np.swapaxes(roots, 1, 2),
                           "h": rng.standard_normal((12, 3))})
    x = rng.uniform(-2.0, 3.0, (5, 7, 2))
    x[1, 2, 0] = np.nan
    b, sigma, h = hm.coefficients(x)
    assert (b.shape, sigma.shape, h.shape) == ((5, 7, 2), (5, 7, 2, 2), (5, 7, 3))
    for got, field in zip((b, sigma, h), (hm.drift_avg, hm.diff_avg, hm.obs_avg)):
        assert got.tobytes() == np.ascontiguousarray(field(x)).tobytes()
    assert np.isnan(h[1, 2]).all()


def test_closed_form_coefficients_are_the_fields():
    def const(value):
        return lambda x: np.full(x.shape[:-1] + (1, 1), value)

    hm = HomogenizedModel(dim_slow=1, drift_avg=lambda x: -x,
                          diffsq_avg=const(0.25), diff_avg=const(0.5),
                          obs_avg=lambda x: 2.0 * x)
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3, 1)
    b, sigma, h = hm.coefficients(x)
    assert np.array_equal(b, -x) and np.array_equal(h, 2.0 * x)
    assert np.array_equal(sigma, np.full((2, 3, 1, 1), 0.5))


def test_reads_the_read_out_width_off_obs_avg():
    from homfilt import catalog
    grid = TabulationGrid((-1.0, 0.0), (1.0, 2.0), (3, 4))
    rng = np.random.default_rng(0)
    tabulated = _tabulated_model({"grid": grid, "b": rng.standard_normal((12, 2)),
                                  "a": np.broadcast_to(np.eye(2), (12, 2, 2)),
                                  "h": rng.standard_normal((12, 3))})
    by_hand = HomogenizedModel(dim_slow=2, drift_avg=lambda x: -x, diffsq_avg=None,
                               diff_avg=None, obs_avg=lambda x: x[..., :1] * np.ones(3))
    assert catalog.make_analytic_homogenized("sinusoidal").dim_obs == 1
    assert (tabulated.dim_obs, by_hand.dim_obs) == (3, 3)
