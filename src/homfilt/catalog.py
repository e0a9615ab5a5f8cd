"""Built-in coefficient families.

Two scalar (m = n = d = 1) families cover the test and study workloads:

* ``ou_benchmark``-- fast Ornstein-Uhlenbeck block relaxing towards the slow
                     state (frozen stationary law N(x, 1)), with linear
                     slow-drift and read-out coupling to z.  All averaged
                     coefficients are known in closed form.  With c_b = c_h
                     = 0 the slow state never reads z: the linear-Gaussian
                     model dX = a X dt + sigma0 dV, dY = h_x X dt + dB, on
                     which the filters are checked against the Kalman
                     recursion.
* ``sinusoidal``  -- same fast block with sinusoidal coupling sin(z) in the
                     slow drift and read-out; averages against N(x, 1) are
                     sin(x) exp(-1/2), also closed form.

Each family is one function of its own parameters, which gives both the full
model's coefficients and its closed-form averaged model, so the two views
take and check the same parameter list.  User-defined coefficient functions
are a code-level extension point: construct a MultiscaleModel directly.
"""

import numbers

import numpy as np

from . import schema
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


def _scalar(sigma0, relax, drift_slow, obs_fn, drift_avg, obs_avg):
    """Full coefficients and averaged model of a scalar family with constant
    slow diffusion sigma0 and the OU fast block dZ = -relax (Z - X)/eps dt +
    sqrt(2 relax / eps) dW; sigma0 is its own average.  The model reads its fast
    coefficients and its exact fast step off the one triple in ``fast_ou``."""
    if relax <= 0:
        raise UsageError("relax must be positive")
    sigma, fast_ou = _const_mat(sigma0), (relax, lambda x: x, np.sqrt(2.0 * relax))
    coefficients = dict(dim_slow=1, dim_fast=1, drift_slow=drift_slow, diff_slow=sigma,
                        obs_fn=obs_fn, fast_ou=fast_ou)
    averaged = HomogenizedModel(dim_slow=1, drift_avg=drift_avg,
                                diffsq_avg=_const_mat(sigma0 ** 2), diff_avg=sigma,
                                obs_avg=obs_avg)
    return coefficients, averaged


def _ou_benchmark(a=-1.0, c_b=0.5, sigma0=0.5, h_x=1.0, c_h=0.5, relax=1.0):
    """Fast OU block relaxing to the slow state with linear couplings.

    Fast: dZ = -relax (Z - X)/eps dt + sqrt(2 relax / eps) dW, frozen
    stationary law N(x, 1).  Slow drift a x + c_b z, constant slow diffusion
    sigma0, read-out h_x x + c_h z; their averages are (a + c_b) x and
    (h_x + c_h) x.
    """
    return _scalar(sigma0, relax, drift_slow=lambda x, z: a * x + c_b * z,
                   obs_fn=lambda x, z: h_x * x + c_h * z,
                   drift_avg=lambda x: (a + c_b) * x,
                   obs_avg=lambda x: (h_x + c_h) * x)


def _sinusoidal(a=-1.0, amp_b=1.0, sigma0=0.5, h_x=1.0, amp_h=1.0, relax=1.0):
    """``ou_benchmark``'s fast block with sinusoidal coupling in slow drift and
    read-out; E[sin(Z)] under N(x, 1) is sin(x) exp(-1/2)."""
    damp = np.exp(-0.5)
    return _scalar(sigma0, relax, drift_slow=lambda x, z: a * x + amp_b * np.sin(z),
                   obs_fn=lambda x, z: h_x * x + amp_h * np.sin(z),
                   drift_avg=lambda x: a * x + amp_b * damp * np.sin(x),
                   obs_avg=lambda x: h_x * x + amp_h * damp * np.sin(x))


_FAMILIES = {"ou_benchmark": _ou_benchmark, "sinusoidal": _sinusoidal}


def make_views(name: str, epsilon: float, **params) -> tuple:
    """The family's full model at ``epsilon`` and its closed-form averaged
    model; building both checks the parameters once for either view."""
    if name not in _FAMILIES:
        raise UsageError(f"unknown model family {name!r}; "
                         f"known: {', '.join(sorted(_FAMILIES))}")
    for key, value in params.items():
        try:
            finite = isinstance(value, numbers.Real) and np.isfinite(schema.real(value))
        except ValueError:  # a bool
            finite = False
        if not finite:
            raise UsageError(f"model family {name!r}: {key} must be a finite "
                             f"number, got {value!r}")
    try:
        coefficients, averaged = _FAMILIES[name](**params)
        return MultiscaleModel(**coefficients, epsilon=epsilon), averaged
    except TypeError as exc:  # an unknown or ill-typed family parameter
        raise UsageError(f"model family {name!r}: {exc}") from exc


def make_model(name: str, epsilon: float = 1.0, **params) -> MultiscaleModel:
    """Instantiate a catalog family by name."""
    return make_views(name, epsilon, **params)[0]


def make_analytic_homogenized(name: str, **params) -> HomogenizedModel:
    """Closed-form averaged model for a catalog family (epsilon-independent)."""
    return make_views(name, 1.0, **params)[1]


def make_ou_benchmark(epsilon: float = 1.0, **params) -> MultiscaleModel:
    """``make_model("ou_benchmark", ...)``, kept because perfbench/layer_micro.py
    calls it by name."""
    return make_model("ou_benchmark", epsilon, **params)


def make_sinusoidal(epsilon: float = 1.0, **params) -> MultiscaleModel:
    """``make_model("sinusoidal", ...)``, kept because perfbench/layer_micro.py
    calls it by name."""
    return make_model("sinusoidal", epsilon, **params)
