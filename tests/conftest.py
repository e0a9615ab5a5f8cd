import numpy as np
import pytest


def const_mat(value, rows=1, cols=1):
    def coeff(x, z):
        out = np.empty(x.shape[:-1] + (rows, cols))
        out[...] = value
        return out
    return coeff


def linear_gaussian(a=-1.0, q=1.0, h=1.0):
    """``ou_benchmark`` parameters of the scalar linear-Gaussian model
    dX = a X dt + sqrt(q) dV, dY = h X dt + dB: no coupling to z.  Its Euler
    chain on a grid of step dt is ``kalman_filter``'s (A, Q, H) = (1 + a dt,
    q dt, h dt)."""
    return dict(a=a, c_b=0.0, sigma0=float(np.sqrt(q)), h_x=h, c_h=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
