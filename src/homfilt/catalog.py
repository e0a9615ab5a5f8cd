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

Each family is one function of its own parameters, which gives both the full
model's coefficients and its closed-form averaged model, so the two views
take and check the same parameter list.  User-defined coefficient functions
are a code-level extension point: construct a MultiscaleModel directly.
"""

import numpy as np

from .averaging import HomogenizedModel
from .errors import UsageError
from .models import MultiscaleModel


def _const_mat(value):
    """Constant 1x1 matrix coefficient of (x, z), or of x alone in a reduced model."""
    def coeff(x, *_):
        out = np.empty(x.shape[:-1] + (1, 1))
        out[...] = value
        return out
    return coeff


def _scalar(sigma0, g, drift_slow, drift_fast, obs_fn, drift_avg, obs_avg):
    """Full coefficients and averaged model of a scalar family with constant
    slow diffusion sigma0 and fast diffusion g; sigma0 is its own average."""
    sigma = _const_mat(sigma0)
    coefficients = dict(
        dim_slow=1, dim_fast=1, dim_obs=1, dim_noise_slow=1, dim_noise_fast=1,
        drift_slow=drift_slow, diff_slow=sigma, drift_fast=drift_fast,
        diff_fast=_const_mat(g), obs_fn=obs_fn)
    averaged = HomogenizedModel(
        dim_slow=1, dim_obs=1, drift_avg=drift_avg,
        diffsq_avg=_const_mat(sigma0 ** 2), diff_avg=sigma, obs_avg=obs_avg)
    return coefficients, averaged


def _linear(a=-1.0, q=1.0, h=1.0):
    """Scalar linear-Gaussian model dX = a X dt + sqrt(q) dV, dY = h X dt + dB.

    The fast block is an inert unit OU process that nothing depends on, so
    the averaged model is the slow block itself.
    """
    if q <= 0:
        raise UsageError("q must be positive")
    return _scalar(np.sqrt(q), 1.0,
                   drift_slow=lambda x, z: a * x,
                   drift_fast=lambda x, z: -z,
                   obs_fn=lambda x, z: h * x,
                   drift_avg=lambda x: a * x,
                   obs_avg=lambda x: h * x)


def _ou_benchmark(a=-1.0, c_b=0.5, sigma0=0.5, h_x=1.0, c_h=0.5, relax=1.0):
    """Fast OU block relaxing to the slow state with linear couplings.

    Fast: dZ = -relax (Z - X)/eps dt + sqrt(2 relax / eps) dW, frozen
    stationary law N(x, 1).  Slow drift a x + c_b z, constant slow diffusion
    sigma0, read-out h_x x + c_h z; their averages are (a + c_b) x and
    (h_x + c_h) x.
    """
    if relax <= 0:
        raise UsageError("relax must be positive")
    return _scalar(sigma0, np.sqrt(2.0 * relax),
                   drift_slow=lambda x, z: a * x + c_b * z,
                   drift_fast=lambda x, z: -relax * (z - x),
                   obs_fn=lambda x, z: h_x * x + c_h * z,
                   drift_avg=lambda x: (a + c_b) * x,
                   obs_avg=lambda x: (h_x + c_h) * x)


def _sinusoidal(a=-1.0, amp_b=1.0, sigma0=0.5, h_x=1.0, amp_h=1.0, relax=1.0):
    """``ou_benchmark``'s fast block with sinusoidal coupling in slow drift and
    read-out; E[sin(Z)] under N(x, 1) is sin(x) exp(-1/2)."""
    if relax <= 0:
        raise UsageError("relax must be positive")
    damp = np.exp(-0.5)
    return _scalar(sigma0, np.sqrt(2.0 * relax),
                   drift_slow=lambda x, z: a * x + amp_b * np.sin(z),
                   drift_fast=lambda x, z: -relax * (z - x),
                   obs_fn=lambda x, z: h_x * x + amp_h * np.sin(z),
                   drift_avg=lambda x: a * x + amp_b * damp * np.sin(x),
                   obs_avg=lambda x: h_x * x + amp_h * damp * np.sin(x))


_FAMILIES = {"linear": _linear, "ou_benchmark": _ou_benchmark,
             "sinusoidal": _sinusoidal}


def _build(name: str, epsilon: float, **params):
    """The family's full model at ``epsilon`` and its closed-form averaged
    model; building both checks the parameters once for either view."""
    if name not in _FAMILIES:
        raise UsageError(f"unknown model family {name!r}; "
                         f"known: {', '.join(sorted(_FAMILIES))}")
    try:
        coefficients, averaged = _FAMILIES[name](**params)
        return MultiscaleModel(**coefficients, epsilon=epsilon), averaged
    except TypeError as exc:  # an unknown or ill-typed family parameter
        raise UsageError(f"model family {name!r}: {exc}") from exc


def make_model(name: str, epsilon: float = 1.0, **params) -> MultiscaleModel:
    """Instantiate a catalog family by name."""
    return _build(name, epsilon, **params)[0]


def make_analytic_homogenized(name: str, **params) -> HomogenizedModel:
    """Closed-form averaged model for a catalog family (epsilon-independent)."""
    return _build(name, 1.0, **params)[1]


def make_ou_benchmark(epsilon: float = 1.0, **params) -> MultiscaleModel:
    """``make_model("ou_benchmark", ...)``, kept because perfbench/layer_micro.py
    calls it by name."""
    return make_model("ou_benchmark", epsilon, **params)


def make_sinusoidal(epsilon: float = 1.0, **params) -> MultiscaleModel:
    """``make_model("sinusoidal", ...)``, kept because perfbench/layer_micro.py
    calls it by name."""
    return make_model("sinusoidal", epsilon, **params)
