"""Random channel ensembles with counter-based, order-independent trial streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import TrialIndexError, _check_integers

_UINT64_SPAN = 2**64


@dataclass(frozen=True)
class ChannelEnsembleSpec:
    """A reproducible ensemble of i.i.d. Rayleigh-fading channel matrices.

    Attributes:
        n_rx: receive antenna count (matrix rows).
        n_tx: transmit antenna count (matrix columns).
        n_trials: number of trials in the ensemble.
        master_seed: 64-bit master seed; each trial derives its own substream.
    """

    n_rx: int
    n_tx: int
    n_trials: int
    master_seed: int

    def __post_init__(self):
        _check_integers(n_rx=self.n_rx, n_tx=self.n_tx, n_trials=self.n_trials, master_seed=self.master_seed)
        if self.n_rx < 1 or self.n_tx < 1:
            raise ValueError("antenna counts must be at least 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not 0 <= self.master_seed < _UINT64_SPAN:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


def rayleigh_channel(spec: ChannelEnsembleSpec, trial_index: int) -> np.ndarray:
    """One i.i.d. Rayleigh-fading channel matrix of the ensemble.

    Entries are circularly symmetric complex Gaussian with unit variance,
    (a + jb) / sqrt(2) with a, b standard normal.  The normal pairs come
    from a Box-Muller transform of uniforms drawn from a counter-based
    generator keyed by (master_seed, trial_index), so every trial has its
    own substream: trials can be generated in any order, in parallel, and
    independently of n_trials.

    Args:
        spec: ensemble description.
        trial_index: trial to generate, in [0, spec.n_trials).

    Returns:
        Complex (n_rx x n_tx) channel matrix.

    Raises:
        TrialIndexError: if trial_index lies outside the ensemble.
        ValueError: if trial_index is not an integer.
    """
    _check_integers(trial_index=trial_index)
    if not 0 <= trial_index < spec.n_trials:
        raise TrialIndexError(
            f"trial_index {trial_index} outside [0, {spec.n_trials})"
        )
    key = np.array([spec.master_seed, trial_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    n = spec.n_rx * spec.n_tx
    u1 = gen.random(n)
    u2 = gen.random(n)
    # Box-Muller: radius sqrt(-2 ln(1 - u1)) and angle 2 pi u2 give a standard
    # normal pair (a, b); (a + jb)/sqrt(2) collapses to the form below.
    entries = np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)
    return entries.reshape(spec.n_rx, spec.n_tx)
