"""Metamorphic invariants: exact relations between two runs of the rating chain.

The closed form implies them for any channel, so each relates run_trial on a
channel to run_trial on a transformed copy, over fixed Rayleigh draws on both
SVD routes and at -10 to 30 dB:

* (a) scale: (c H, c^2 N) with c = 2^+-40 at the same transmit powers leaves
  the effective SNR P c^2 sigma^2 / (c^2 N) unchanged; scaling by a power of
  two is exact and the chain's arithmetic is homogeneous in it, so all three
  rates are bit-identical;
* (b) reverse link: the networks are reciprocal, so H^T with n_tx and n_rx
  swapped has the same singular values and the same rates;
* (c) phases and permutation: diag(e^{j phi}) H Pi is H with unitary factors
  on both sides, so it too has the same rates.

(b) and (c) change the arithmetic, so they hold to INVARIANCE_REL_TOL.
"""

import numpy as np
import pytest

from milacsim import ChannelEnsembleSpec, SystemConfig, rayleigh_channel, run_trial, snr_db_to_tx_power

# Largest relative change of any rate or capacity under (b) and (c).  Over
# 600 draws (100 of each shape below, both transforms) the worst reading was
# 2.0e-15 for the analog and digital rates and 2.2e-15 for the capacity, so
# this leaves a factor of about 4.5.
INVARIANCE_REL_TOL = 1e-14

_POWERS = tuple(snr_db_to_tx_power(snr_db, 1.0) for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0))

# (n_rx, n_tx, streams): 64 x 64 and 128 x 128 take the top-s SVD route, the others the economy SVD.
_SHAPES = [(8, 8, 2), (4, 8, 3), (64, 64, 4), (128, 128, 8), (8, 64, 2), (64, 8, 2)]
_IDS = [f"{n_rx}x{n_tx}-s{s}" for n_rx, n_tx, s in _SHAPES]
_DRAWS = 3


def _config(n_rx, n_tx, s, noise_power=1.0):
    return SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=_POWERS, noise_power=noise_power)


def _channels(n_rx, n_tx):
    ensemble = ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=_DRAWS, master_seed=n_rx * n_tx)
    return rayleigh_channel(ensemble, range(_DRAWS))


def _rates(report):
    return {"milac_rate": report.milac_rate, "digital_rate": report.digital_rate, "capacity": report.capacity}


@pytest.mark.parametrize("n_rx, n_tx, s", _SHAPES, ids=_IDS)
@pytest.mark.parametrize("k", [40, -40])
def test_scaling_the_channel_and_the_noise_together_changes_no_bit(n_rx, n_tx, s, k):
    h = _channels(n_rx, n_tx)
    base = _rates(run_trial(h, _config(n_rx, n_tx, s)))
    scaled = _rates(run_trial(np.ldexp(1.0, k) * h, _config(n_rx, n_tx, s, noise_power=np.ldexp(1.0, 2 * k))))
    for name, rates in base.items():
        assert scaled[name].tobytes() == rates.tobytes(), name


def _assert_same_rates(mine, theirs):
    for name, rates in theirs.items():
        assert (np.abs(mine[name] - rates) <= INVARIANCE_REL_TOL * rates).all(), name


@pytest.mark.parametrize("n_rx, n_tx, s", _SHAPES, ids=_IDS)
def test_the_reverse_link_has_the_same_rates(n_rx, n_tx, s):
    h = _channels(n_rx, n_tx)
    base = _rates(run_trial(h, _config(n_rx, n_tx, s)))
    reverse = _rates(run_trial(h.swapaxes(-1, -2), _config(n_tx, n_rx, s)))
    _assert_same_rates(reverse, base)


@pytest.mark.parametrize("n_rx, n_tx, s", _SHAPES, ids=_IDS)
def test_row_phases_and_a_column_permutation_keep_the_rates(n_rx, n_tx, s):
    h = _channels(n_rx, n_tx)
    base = _rates(run_trial(h, _config(n_rx, n_tx, s)))
    rng = np.random.default_rng(n_rx + n_tx)
    phases = np.exp(2j * np.pi * rng.random((_DRAWS, n_rx, 1)))
    moved = _rates(run_trial(phases * h[..., rng.permutation(n_tx)], _config(n_rx, n_tx, s)))
    _assert_same_rates(moved, base)
