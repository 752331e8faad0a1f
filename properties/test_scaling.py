"""Hypothesis search of metamorphic invariance (a): scaling changes no bit.

(c H, c^2 N) with c = 2^k at the same transmit powers leaves the effective SNR
P c^2 sigma^2 / (c^2 N) unchanged, and scaling by a power of two is exact, so
run_trial's analog rate, digital rate and capacity keep every bit.  Tier-1's
tests/test_metamorphic.py checks six fixed shapes; this search draws any link
up to 8 x 8, any stream count, Rayleigh draws of any master seed (or their
real parts) and k in [-40, 40], where no product overflows, with that file's
configuration and rate helpers.  It lies outside the tier-1 testpaths and runs
in about 5 s from the root of the checkout, which python -m puts on the path
for the import of tests.test_metamorphic:

    PYTHONPATH=src python -m pytest -q properties

The search is derandomized, so a failure reproduces; hypothesis prints the
failing example.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from milacsim import ChannelEnsembleSpec, rayleigh_channel, run_trial
from tests.test_metamorphic import _config, _rates


@st.composite
def _links(draw):
    n_rx, n_tx = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return n_rx, n_tx, draw(st.integers(1, min(n_rx, n_tx))), draw(st.integers(0, 2**64 - 1)), draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(link=_links(), k=st.integers(-40, 40))
def test_scaling_the_channel_and_the_noise_together_changes_no_bit(link, k):
    n_rx, n_tx, s, seed, real = link
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=1, master_seed=seed), 0)
    if real:
        h = h.real
    base = _rates(run_trial(h, _config(n_rx, n_tx, s)))
    scaled = _rates(run_trial(np.ldexp(1.0, k) * h, _config(n_rx, n_tx, s, noise_power=np.ldexp(1.0, 2 * k))))
    for name, rates in base.items():
        assert scaled[name].tobytes() == rates.tobytes(), name
