"""Shared test inputs."""

import numpy as np
import pytest

import milacsim.network as network
from milacsim import SvdFactors


@pytest.fixture
def repair_channel():
    """A 4x4 channel whose transmit synthesis must phase-repair at 4 streams.

    h = diag(4, 3, 2, 1) v^H with v = diag(1, 1, 1, j) O and O real orthogonal
    whose largest entry in every column lies above its last row, so the
    ordered v keeps a purely imaginary last row: Re v, the imaginary part of
    the transmit unitary j v at s = n, is singular.
    """
    o = np.linalg.qr(np.array([[3, -2, -2, 1], [2, 3, -1, 1], [-1, -2, 3, 1], [2, 3, 1, 1]], float))[0]
    assert (np.abs(o[:3]).max(axis=0) > np.abs(o[3]) + 0.2).all()
    return np.diag([4.0, 3.0, 2.0, 1.0]) @ (np.diag([1, 1, 1, 1j]) @ o).conj().T


@pytest.fixture
def unrepairable_factors():
    """8x8 factors whose transmit side is singular at every sixteenth turn, at 8 streams.

    u = I and v = diag(e^{j(pi/2 - pi k/8)}), k = 0..7: the common phase
    e^{j pi m/8} (m = 0 unrotated) turns entry m of v purely imaginary, so
    Re v, the imaginary part of the transmit unitary j v at s = n, is
    singular unrotated and at each of those phases.
    """
    k = np.arange(8)
    return SvdFactors(u=np.eye(8), sigma=np.arange(8.0, 0.0, -1.0), v=np.diag(np.exp(1j * (np.pi / 2 - np.pi * k / 8))))


@pytest.fixture
def diagonal_channel():
    """The n x n channel diag(sigma_k e^{j(pi/2 - pi k/8)}), sigma = n..1, as a function of n.

    Its ordered factors are v = I and u = h / sigma, whose first column is
    purely imaginary: the receive side must phase-repair at s = n.
    """
    def channel(n):
        k = np.arange(n)
        return np.diag(np.arange(n, 0.0, -1.0) * np.exp(1j * (np.pi / 2 - np.pi * k / 8)))

    return channel


@pytest.fixture
def certificate_agrees():
    """A check on a stack of Woodbury cores K (leading axis), n and outside as
    network._regular_core takes them: the core solve's verdicts are the
    singular values', its K^-1 is np.linalg.solve's, and its certificate
    accepts only cores they accept.  The check returns what it accepted."""
    def check(k, n, outside):
        exact = network._regular_core(k, n, outside)
        kinv, judged = network._judged_inverse(k, n, outside)
        assert judged.tolist() == exact.tolist()
        if kinv is None:  # the stacked solve raised: an exact zero pivot, which no certificate decides
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(k, np.eye(k.shape[-1])[None])
            return np.zeros(exact.shape, bool)
        assert kinv.tobytes() == np.linalg.solve(k, np.eye(k.shape[-1])[None]).tobytes()
        certified = network._certified_regular(k, kinv, n, outside)
        assert not (certified & ~exact).any()
        return certified

    return check
