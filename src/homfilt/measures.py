"""Empirical measures, the Gaussian test-function family, and the metric on laws.

The distance between two probability measures is a weighted series of
differences of integrals against a countable family of Gaussian bumps
exp(-q |x - c|^2); the family separates points and determines weak
convergence, and the 2^-i weights make the (truncated) series a metric with
values in [0, 1] and an explicit tail bound 2^-K.

Enumeration contract (version "gauss-v1"): basis function i is built from the
diagonal pairing of a center sequence and a width sequence.  Walk diagonals
t = 0, 1, 2, ...; on diagonal t take (center index s, width index t - s) for
s = 0..t.  Centers are the integer lattice points of Z^m sorted by
(sup-norm ring, then lexicographic order); widths are q = 1, 1/2, 2, 1/4, 4,
1/8, 8, ...  The first function is therefore always exp(-|x|^2).  This order
is part of the external contract: distances are only comparable between runs
using the same enumeration version.
"""

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

ENUMERATION_VERSION = "gauss-v1"


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finite weighted atom measures on R^m, one per leading index: a single
    measure has atoms (N, m), a batch of R has atoms (R, N, m)."""

    atoms: np.ndarray    # (..., N, m)
    weights: np.ndarray  # (..., N), nonnegative, each row summing to 1

    def __post_init__(self):
        if np.shape(self.atoms)[:-1] != np.shape(self.weights):
            raise ValueError(f"atoms {np.shape(self.atoms)} and weights "
                             f"{np.shape(self.weights)} must have equal leading shapes")
        # A NaN row passes: it marks a failed filter, whose error is reported instead.
        if np.any(np.abs(self.weights.sum(axis=-1) - 1.0) > 1e-12):
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return np.shape(self.atoms)[-1]


def _lattice_centers(dim: int, count: int) -> List[Tuple[int, ...]]:
    """First ``count`` points of Z^dim by (sup-norm ring, lexicographic) order."""
    out = []
    for radius in itertools.count():
        ring = [p for p in itertools.product(range(-radius, radius + 1), repeat=dim)
                if max(abs(c) for c in p) == radius]
        out.extend(sorted(ring))
        if len(out) >= count:
            return out[:count]


def _width_sequence(count: int) -> List[float]:
    """q = 1, 1/2, 2, 1/4, 4, ...; powers of two, so exact as floats."""
    out = [1.0]
    p = 1
    while len(out) < count:
        out.append(2.0 ** -p)
        out.append(2.0 ** p)
        p += 1
    return out[:count]


@dataclass(frozen=True)
class TestFunctionBasis:
    """Finite prefix of the Gaussian bump family, in the documented order.

    Function i is exp(-widths[i] |x - centers[i]|^2).
    """

    dim: int
    centers: np.ndarray  # (K, m), integer lattice points as floats
    widths: np.ndarray   # (K,)

    @property
    def count(self) -> int:
        return len(self.widths)

    def evaluate(self, i: int, x: np.ndarray) -> np.ndarray:
        """phi_i at a batch of points x (..., m); values lie in (0, 1]."""
        diff = np.asarray(x, dtype=float) - self.centers[i]
        return np.exp(-(self.widths[i] * np.einsum("...m,...m->...", diff, diff)))


def default_basis(count: int, dim: int) -> TestFunctionBasis:
    """The first ``count`` functions of the documented enumeration."""
    if count < 1:
        raise ValueError("count must be at least 1")
    diagonals = ((s, t - s) for t in itertools.count() for s in range(t + 1))
    ci, qi = np.array(list(itertools.islice(diagonals, count))).T
    centers = np.array(_lattice_centers(dim, ci.max() + 1), dtype=float)
    widths = np.array(_width_sequence(qi.max() + 1))
    return TestFunctionBasis(dim=dim, centers=centers[ci], widths=widths[qi])


def _integral(measure: EmpiricalMeasure, values: np.ndarray):
    """Each row's sum of weights times ``values (..., N)``, as one batched product."""
    return (measure.weights[..., None, :] @ values[..., :, None])[..., 0, 0]


def metric_d(mu: EmpiricalMeasure, nu: EmpiricalMeasure, basis: TestFunctionBasis):
    """Truncated weighted series sum_i |mu(phi_i) - nu(phi_i)| / 2^i.

    Symmetric, satisfies the triangle inequality, takes values in [0, 1);
    truncation at K functions undershoots the full series by at most 2^-K.
    Batches of measures give one distance per leading index, each equal bit
    for bit to its own pair's; a single pair gives a float.
    """
    if mu.dim != nu.dim or mu.dim != basis.dim:
        raise ValueError(f"dimension mismatch: mu {mu.dim}, nu {nu.dim}, "
                         f"basis {basis.dim}")
    total = 0.0
    for i in range(basis.count):
        mu_i = _integral(mu, basis.evaluate(i, mu.atoms))
        nu_i = _integral(nu, basis.evaluate(i, nu.atoms))
        total += abs(mu_i - nu_i) / 2.0 ** (i + 1)
    return total if np.ndim(total) else float(total)
