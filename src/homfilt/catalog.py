"""Built-in coefficient families.

Three scalar (m = n = d = 1) families cover the test and study workloads:

* ``linear``      -- fully z-independent linear-Gaussian model, used to
                     validate the particle filters against the Kalman recursion.
* ``ou_benchmark``-- fast Ornstein-Uhlenbeck block relaxing towards the slow
                     state (frozen stationary law N(x, 1)), with linear
                     slow-drift and read-out coupling to z.  All averaged
                     coefficients are known in closed form.
* ``sinusoidal``  -- same fast block with sinusoidal coupling sin(z) in the
                     slow drift and read-out; averages against N(x, 1) are
                     sin(x) exp(-1/2), also closed form.

User-defined coefficient functions are a code-level extension point: construct
a MultiscaleModel directly.
"""

import numpy as np

from .averaging import HomogenizedModel
from .errors import UsageError
from .models import MultiscaleModel


def _const_mat(value):
    def coeff(x, z):
        out = np.empty(x.shape[:-1] + (1, 1))
        out[...] = value
        return out
    return coeff


def make_linear(epsilon: float = 1.0, a: float = -1.0, q: float = 1.0,
                h: float = 1.0) -> MultiscaleModel:
    """Scalar linear-Gaussian model dX = a X dt + sqrt(q) dV, dY = h X dt + dB.

    The fast block is an inert unit OU process that nothing depends on.
    """
    if q <= 0:
        raise UsageError("q must be positive")
    sq = np.sqrt(q)
    return MultiscaleModel(
        dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1, dim_noise_fast=1,
        drift_slow=lambda x, z: a * x,
        diff_slow=_const_mat(sq),
        drift_fast=lambda x, z: -z,
        diff_fast=_const_mat(1.0),
        obs_fn=lambda x, z: h * x,
        epsilon=epsilon)


def _const_hmat(value):
    def coeff(x):
        out = np.empty(x.shape[:-1] + (1, 1))
        out[...] = value
        return out
    return coeff


def linear_homogenized(a: float = -1.0, q: float = 1.0,
                       h: float = 1.0) -> HomogenizedModel:
    """Averaged model of ``linear`` (identical: nothing depends on z)."""
    return HomogenizedModel(
        dim_slow=1, dim_obs=1,
        drift_avg=lambda x: a * x,
        diffsq_avg=_const_hmat(q),
        diff_avg=_const_hmat(np.sqrt(q)),
        obs_avg=lambda x: h * x,
        provenance="analytic")


def make_ou_benchmark(epsilon: float = 1.0, a: float = -1.0, c_b: float = 0.5,
                      sigma0: float = 0.5, h_x: float = 1.0,
                      c_h: float = 0.5, relax: float = 1.0) -> MultiscaleModel:
    """Fast OU block relaxing to the slow state with linear couplings.

    Fast: dZ = -relax (Z - X)/eps dt + sqrt(2 relax / eps) dW, frozen
    stationary law N(x, 1).  Slow drift a x + c_b z, constant slow diffusion
    sigma0, read-out h_x x + c_h z.
    """
    g = np.sqrt(2.0 * relax)
    return MultiscaleModel(
        dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1, dim_noise_fast=1,
        drift_slow=lambda x, z: a * x + c_b * z,
        diff_slow=_const_mat(sigma0),
        drift_fast=lambda x, z: -relax * (z - x),
        diff_fast=_const_mat(g),
        obs_fn=lambda x, z: h_x * x + c_h * z,
        epsilon=epsilon)


def ou_benchmark_homogenized(a: float = -1.0, c_b: float = 0.5,
                             sigma0: float = 0.5, h_x: float = 1.0,
                             c_h: float = 0.5, relax: float = 1.0) -> HomogenizedModel:
    """Closed-form averages of ``ou_benchmark`` against N(x, 1)."""
    return HomogenizedModel(
        dim_slow=1, dim_obs=1,
        drift_avg=lambda x: (a + c_b) * x,
        diffsq_avg=_const_hmat(sigma0 ** 2),
        diff_avg=_const_hmat(sigma0),
        obs_avg=lambda x: (h_x + c_h) * x,
        provenance="analytic")


def make_sinusoidal(epsilon: float = 1.0, a: float = -1.0, amp_b: float = 1.0,
                    sigma0: float = 0.5, h_x: float = 1.0,
                    amp_h: float = 1.0, relax: float = 1.0) -> MultiscaleModel:
    """Fast OU block with sinusoidal coupling in slow drift and read-out."""
    g = np.sqrt(2.0 * relax)
    return MultiscaleModel(
        dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1, dim_noise_fast=1,
        drift_slow=lambda x, z: a * x + amp_b * np.sin(z),
        diff_slow=_const_mat(sigma0),
        drift_fast=lambda x, z: -relax * (z - x),
        diff_fast=_const_mat(g),
        obs_fn=lambda x, z: h_x * x + amp_h * np.sin(z),
        epsilon=epsilon)


def sinusoidal_homogenized(a: float = -1.0, amp_b: float = 1.0,
                           sigma0: float = 0.5, h_x: float = 1.0,
                           amp_h: float = 1.0, relax: float = 1.0) -> HomogenizedModel:
    """Closed-form averages: E[sin(Z)] under N(x, 1) is sin(x) exp(-1/2)."""
    damp = np.exp(-0.5)
    return HomogenizedModel(
        dim_slow=1, dim_obs=1,
        drift_avg=lambda x: a * x + amp_b * damp * np.sin(x),
        diffsq_avg=_const_hmat(sigma0 ** 2),
        diff_avg=_const_hmat(sigma0),
        obs_avg=lambda x: h_x * x + amp_h * damp * np.sin(x),
        provenance="analytic")


_FAMILIES = {
    "linear": (make_linear, linear_homogenized),
    "ou_benchmark": (make_ou_benchmark, ou_benchmark_homogenized),
    "sinusoidal": (make_sinusoidal, sinusoidal_homogenized),
}


def family_names() -> list:
    return sorted(_FAMILIES)


def _build(name: str, which: int, **params):
    if name not in _FAMILIES:
        raise UsageError(f"unknown model family {name!r}; "
                         f"known: {', '.join(family_names())}")
    try:
        return _FAMILIES[name][which](**params)
    except TypeError as exc:  # an unknown or ill-typed family parameter
        raise UsageError(f"model family {name!r}: {exc}") from exc


def make_model(name: str, epsilon: float = 1.0, **params) -> MultiscaleModel:
    """Instantiate a catalog family by name."""
    return _build(name, 0, epsilon=epsilon, **params)


def make_analytic_homogenized(name: str, **params) -> HomogenizedModel:
    """Closed-form averaged model for a catalog family (epsilon-independent)."""
    return _build(name, 1, **params)
