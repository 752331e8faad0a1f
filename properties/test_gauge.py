"""Hypothesis search of gauge channels: j^k R, and diagonal phases on multiples of pi/2.

A real channel R turned by j^k, or by unimodular row and column phases on
multiples of pi/2 with a small common offset, has singular vectors that are
real or purely imaginary up to those phases, so at s = n the imaginary part
of a side's unitary can be of the size of rounding error or of the offset.
This search draws links up to 8 x 8, any stream count, R the real part of a
Rayleigh draw of any master seed, and offsets from 1e-10 to 1e-6, and checks
each design against the 1e-9 gate through run_trial.  Below the 1e-8 floor of
network.DEFAULT_IMAG_SV_REL it also checks the dense susceptance_tx/_rx of the
design's unitaries; above it the dense path can miss the gate on an accepted
side (the xfail of tests/test_gauge_channels.py).  It lies outside the tier-1
testpaths and runs from the root of the checkout, which python -m puts on the
path for the import of tests.test_gauge_channels:

    PYTHONPATH=src python -m pytest -q properties

The search is derandomized, so a failure reproduces; hypothesis prints the
failing example.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from milacsim import ChannelEnsembleSpec, SystemConfig, rayleigh_channel, run_trial
from tests.test_gauge_channels import POWERS, _assert_at_capacity, _dense_rates


@st.composite
def _links(draw):
    n_rx, n_tx = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    s = draw(st.integers(1, min(n_rx, n_tx)))
    seed = draw(st.integers(0, 2**64 - 1))
    r = rayleigh_channel(ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=1, master_seed=seed), 0).real
    if draw(st.booleans()):
        return 1j ** draw(st.integers(0, 3)) * r, s, 0.0
    offset = 10.0 ** draw(st.floats(-10.0, -6.0))
    m = np.array(draw(st.lists(st.integers(0, 3), min_size=n_rx, max_size=n_rx)))
    l = np.array(draw(st.lists(st.integers(0, 3), min_size=n_tx, max_size=n_tx)))
    if draw(st.booleans()):
        # Odd rows and even columns: an offset j R up to signs.
        m, l = m | 1, l & ~1
    rows, cols = np.exp(1j * (np.pi / 2 * m + offset)), np.exp(1j * np.pi / 2 * l)
    return rows[:, None] * r * cols, s, offset


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(link=_links())
def test_gauge_channels_reach_capacity(link):
    h, s, offset = link
    n_rx, n_tx = h.shape
    report = run_trial(h[None], SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=POWERS, noise_power=1.0))
    _assert_at_capacity(report.milac_rate, report.capacity)
    _assert_at_capacity(report.digital_rate, report.capacity)
    if offset < 1e-8:
        _assert_at_capacity(_dense_rates(h[None], report, s), report.capacity)
