import numpy as np
import pytest

from homfilt import filtering


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


def record_block_widths(monkeypatch, bound):
    """Lower ``CHUNK_PARTICLES`` to ``bound`` and record the rows of every
    move the two filters' step functions make, one entry per step."""
    widths = []

    def recorded(move, cloud_arg):
        def traced(*args):
            widths.append(len(args[cloud_arg]))
            return move(*args)
        return traced

    monkeypatch.setattr(filtering, "CHUNK_PARTICLES", bound)
    monkeypatch.setattr(filtering, "multiscale_step",
                        recorded(filtering.multiscale_step, 1))
    monkeypatch.setattr(filtering, "euler_maruyama", recorded(filtering.euler_maruyama, 0))
    return widths


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
