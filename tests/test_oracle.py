"""A 60-digit oracle for the rating chain.

For small links the capacity is computed again in 60-digit arithmetic
(mpmath): the singular values by mpmath.svd_c, and the water-filling by its
own active-set loop in that precision, not by water_filling.  The closed-form
design reaches that capacity, so run_trial's analog rate, digital rate and
capacity must all lie within ORACLE_REL_TOL of it.  The cases are every
stream count of seven small shapes, three draws each (the last one real), at
-10 to 30 dB.
"""

from functools import cache

import numpy as np
import pytest

from milacsim import ChannelEnsembleSpec, SystemConfig, rayleigh_channel, run_trial, snr_db_to_tx_power

mpmath = pytest.importorskip("mpmath")

# Largest relative error of each quantity against the oracle.  Over the 72
# cases below the worst readings were 5.7e-16 (capacity), 9.6e-16 (digital
# rate) and 9.6e-16 (analog rate); over 2,400 points of a wider probe (20
# draws per shape, half of them real) 7.7e-16, 1.5e-15 and 8.7e-16.  Each
# bound leaves a factor of 5 to 7 over the worst of both.
ORACLE_REL_TOL = {"capacity": 5e-15, "digital_rate": 1e-14, "milac_rate": 5e-15}

_DPS = 60
# The matched circuits' two-sided insertion factor: amplitude 1/2 at the source and at the load.
_QUARTER = 4
_NOISE_POWER = 1.0
_POWERS = tuple(snr_db_to_tx_power(snr_db, _NOISE_POWER) for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0))
# (n_rx, n_tx), each at every stream count from 1 to min(n_rx, n_tx).
_SHAPES = [(2, 2), (3, 3), (4, 4), (6, 6), (4, 6), (6, 3), (5, 2)]
_CASES = [(n_rx, n_tx, s) for n_rx, n_tx in _SHAPES for s in range(1, min(n_rx, n_tx) + 1)]
_DRAWS = 3


@cache
def _channels(n_rx, n_tx) -> np.ndarray:
    ensemble = ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=_DRAWS, master_seed=100 * n_rx + n_tx)
    h = rayleigh_channel(ensemble, range(_DRAWS))
    h[-1] = h[-1].real
    return h


@cache
def _singular_values(n_rx, n_tx) -> tuple:
    """Each draw's singular values at 60 digits, descending."""
    with mpmath.workdps(_DPS):
        return tuple(
            tuple(sorted(mpmath.svd_c(mpmath.matrix(h.tolist()), compute_uv=False), reverse=True))
            for h in _channels(n_rx, n_tx)
        )


def _oracle_capacity(sigma, power):
    """Water-filling capacity over the eigenvalues sigma^2, at the working precision.

    With floors a_i = 4 N / (P lam_i), ascending, the active set is the
    largest m whose level mu = (1 + a_1 + ... + a_m) / m exceeds a_m, and the
    capacity is the sum of log2(mu / a_i) over it.
    """
    floors = [_QUARTER * _NOISE_POWER / (mpmath.mpf(power) * x**2) for x in sigma]
    for m in range(len(floors), 0, -1):
        level = (1 + mpmath.fsum(floors[:m])) / m
        if level > floors[m - 1]:
            return mpmath.fsum(mpmath.log(level / a, 2) for a in floors[:m])
    raise AssertionError("m = 1 always qualifies")


@pytest.mark.parametrize("n_rx, n_tx, s", _CASES, ids=[f"{n_rx}x{n_tx}-s{s}" for n_rx, n_tx, s in _CASES])
def test_run_trial_agrees_with_a_60_digit_oracle(n_rx, n_tx, s):
    report = run_trial(_channels(n_rx, n_tx), SystemConfig(s, n_tx, n_rx, _POWERS, _NOISE_POWER))
    with mpmath.workdps(_DPS):
        for t, sigma in enumerate(_singular_values(n_rx, n_tx)):
            for k, power in enumerate(_POWERS):
                capacity = _oracle_capacity(sigma[:s], power)
                for name, bound in ORACLE_REL_TOL.items():
                    error = abs(mpmath.mpf(getattr(report, name)[t, k]) - capacity) / capacity
                    assert error <= bound, (name, t, k, float(error))
