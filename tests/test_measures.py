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
