import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homfilt.measures import EmpiricalMeasure, default_basis, metric_d


def measure(atoms, weights=None):
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    if weights is None:
        weights = np.full(len(atoms), 1.0 / len(atoms))
    return EmpiricalMeasure(atoms=atoms, weights=np.asarray(weights, dtype=float))


def random_measure(rng, n, dim=1):
    w = rng.uniform(0.05, 1.0, n)
    return measure(rng.standard_normal((n, dim)), w / w.sum())


class TestDefaultBasis:
    def test_first_function_is_centered_unit_gaussian(self):
        basis = default_basis(1, 1)
        assert basis.widths[0] == 1.0
        assert np.array_equal(basis.centers[0], [0.0])
        x = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(basis.evaluate(0, x), np.exp(-x[:, 0] ** 2))

    def test_value_one_at_own_center(self):
        basis = default_basis(12, 2)
        for i in range(basis.count):
            assert basis.evaluate(i, basis.centers[i]) == 1.0

    def test_functions_pairwise_distinct(self):
        basis = default_basis(16, 1)
        grid = np.linspace(-4, 4, 81)[:, None]
        vals = np.array([basis.evaluate(i, grid) for i in range(16)])
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.abs(vals[i] - vals[j]).max() > 0

    def test_range_in_unit_interval(self, rng):
        basis = default_basis(16, 3)
        x = 5 * rng.standard_normal((100, 3))
        for i in range(basis.count):
            v = basis.evaluate(i, x)
            # (0, 1] in exact arithmetic; floats may underflow to 0 far out.
            assert np.all(v >= 0) and np.all(v <= 1)

    def test_deterministic_enumeration(self):
        a, b = default_basis(16, 2), default_basis(16, 2)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)

    @pytest.mark.parametrize("dim, pinned", [
        (1, [(1.0, (0,)), (0.5, (0,)), (1.0, (-1,)), (2.0, (0,)), (0.5, (-1,)),
             (1.0, (1,)), (0.25, (0,)), (2.0, (-1,)), (0.5, (1,)), (1.0, (-2,)),
             (4.0, (0,)), (0.25, (-1,)), (2.0, (1,)), (0.5, (-2,)), (1.0, (2,)),
             (0.125, (0,))]),
        (2, [(1.0, (0, 0)), (0.5, (0, 0)), (1.0, (-1, -1)), (2.0, (0, 0)),
             (0.5, (-1, -1)), (1.0, (-1, 0)), (0.25, (0, 0)), (2.0, (-1, -1)),
             (0.5, (-1, 0)), (1.0, (-1, 1)), (4.0, (0, 0)), (0.25, (-1, -1))]),
    ])
    def test_enumeration_is_pinned(self, dim, pinned):
        # The gauss-v1 (width, center) pairs; metric_d values depend on them.
        basis = default_basis(len(pinned), dim)
        assert basis.widths.tolist() == [q for q, _ in pinned]
        assert basis.centers.tolist() == [list(c) for _, c in pinned]


class TestMetricD:
    def test_identical_measures(self, rng):
        mu = random_measure(rng, 10)
        basis = default_basis(16, 1)
        assert metric_d(mu, mu, basis) == 0.0

    def test_two_delta_oracle(self):
        basis = default_basis(1, 1)
        val = metric_d(measure([0.0]), measure([1.0]), basis)
        assert val == pytest.approx(abs(1.0 - np.exp(-1.0)) / 2.0)
        assert abs(val - 0.31606) < 1e-4

    def test_two_atom_oracle(self):
        # exp(-x^2) integrates to (1 + e^-1)/2 against the atoms {0, 1}, to 1
        # against a point mass at 0.
        basis = default_basis(1, 1)
        val = metric_d(measure([0.0, 1.0]), measure([0.0]), basis)
        assert val == pytest.approx(abs((1.0 + np.exp(-1.0)) / 2.0 - 1.0) / 2.0)
        assert abs(val - 0.15803) < 1e-4

    def test_dimension_mismatch(self):
        basis = default_basis(4, 1)
        with pytest.raises(ValueError):
            metric_d(measure([0.0]), measure(np.zeros((1, 2))), basis)

    @pytest.mark.parametrize("count", [1024, 1100])
    def test_weights_past_2_to_the_1023_do_not_overflow(self, rng, count):
        # 2^-(i + 1) is 2^-1024 at i = 1023, where 2^(i + 1) is out of range,
        # and so small that the terms past it leave the sum unchanged.
        mu, nu = random_measure(rng, 10), random_measure(rng, 10)
        assert metric_d(mu, nu, default_basis(count, 1)) == metric_d(
            mu, nu, default_basis(1023, 1))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, seed):
        r = np.random.default_rng(seed)
        basis = default_basis(8, 1)
        mu, nu, la = (random_measure(r, int(r.integers(1, 12))) for _ in range(3))
        d_mn = metric_d(mu, nu, basis)
        d_nm = metric_d(nu, mu, basis)
        d_ml = metric_d(mu, la, basis)
        d_ln = metric_d(la, nu, basis)
        assert d_mn == d_nm
        assert 0.0 <= d_mn <= 1.0
        assert d_mn <= d_ml + d_ln + 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_truncation_monotone_with_bounded_tail(self, seed):
        r = np.random.default_rng(seed)
        mu = random_measure(r, 6)
        nu = random_measure(r, 6)
        prev = 0.0
        for k in range(1, 13):
            cur = metric_d(mu, nu, default_basis(k, 1))
            assert cur >= prev - 1e-15
            assert cur - prev <= 2.0 ** (-(k - 1)) if k > 1 else True
            prev = cur


def batch(rng, shape, dim):
    """Measures of ``shape + (N,)`` weights on ``dim``-dimensional atoms."""
    w = rng.uniform(0.05, 1.0, shape)
    return EmpiricalMeasure(atoms=rng.standard_normal(shape + (dim,)),
                            weights=w / w.sum(axis=-1, keepdims=True))


class TestBatches:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_equals_each_row_bit_for_bit(self, rng, dim):
        basis = default_basis(16, dim)
        mu, nu = batch(rng, (5, 64), dim), batch(rng, (5, 64), dim)
        got = metric_d(mu, nu, basis)
        rows = [metric_d(measure(mu.atoms[r], mu.weights[r]),
                         measure(nu.atoms[r], nu.weights[r]), basis) for r in range(5)]
        assert got.shape == (5,)
        assert got.tobytes() == np.array(rows).tobytes()

    def test_a_nan_row_leaves_the_others_alone(self, rng):
        basis = default_basis(16, 1)
        mu, nu = batch(rng, (4, 32), 1), batch(rng, (4, 32), 1)
        want = metric_d(mu, nu, basis)
        atoms, weights = mu.atoms.copy(), mu.weights.copy()
        atoms[2, 5], weights[2] = np.nan, np.nan
        got = metric_d(EmpiricalMeasure(atoms, weights), nu, basis)
        assert np.isnan(got[2])
        assert np.delete(got, 2).tobytes() == np.delete(want, 2).tobytes()

    def test_a_single_pair_gives_a_float(self, rng):
        dist = metric_d(batch(rng, (16,), 1), batch(rng, (16,), 1), default_basis(8, 1))
        assert type(dist) is float and float(repr(dist)) == dist

    def test_refuses_leading_shapes_that_differ(self):
        with pytest.raises(ValueError, match="leading shapes"):
            EmpiricalMeasure(np.zeros((2, 3, 1)), np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="leading shapes"):
            EmpiricalMeasure(np.zeros((3, 1)), np.full(2, 0.5))

    def test_refuses_a_row_that_does_not_sum_to_one(self):
        weights = np.full((3, 4), 0.25)
        weights[1, 0] = 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalMeasure(np.zeros((3, 4, 1)), weights)
