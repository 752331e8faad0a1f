"""Random channel ensembles with counter-based, order-independent trial streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import TrialIndexError, _check_integers, _check_seed

# The state of a Philox generator at the start of its stream (counter 0, empty buffer).
_PHILOX_START = np.random.Philox(key=0).state

# Seeds the generator each call builds without reading OS entropy; every
# trial resets its state, so the seed never reaches a draw.
_SEEDS = np.random.SeedSequence(0)


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
        _check_seed(self.master_seed)


def rayleigh_channel(spec: ChannelEnsembleSpec, trial_index: int | range) -> np.ndarray:
    """One i.i.d. Rayleigh-fading channel matrix of the ensemble, or the stack of a range of them.

    Entries are circularly symmetric complex Gaussian with unit variance,
    (a + jb) / sqrt(2) with a, b standard normal.  The normal pairs come
    from a Box-Muller transform of uniforms drawn from a counter-based
    generator keyed by (master_seed, trial_index), so every trial has its
    own substream: trials can be generated in any order, in parallel, and
    independently of n_trials.  A range of trials draws each trial's
    uniforms from its own substream, one generator reset to each key in
    turn, and transforms the whole stack at once: entry t of the stack is
    bit for bit the channel of trial_index[t] alone.

    Args:
        spec: ensemble description.
        trial_index: trial to generate, in [0, spec.n_trials), or a range of
            such trials.

    Returns:
        Complex (n_rx x n_tx) channel matrix; for a range of T trials, the
        (T, n_rx, n_tx) stack.

    Raises:
        TrialIndexError: if a trial index lies outside the ensemble.
        ValueError: if trial_index is neither an integer nor a range.
    """
    stacked = isinstance(trial_index, range)
    if not stacked:
        _check_integers(trial_index=trial_index)
    indices = trial_index if stacked else range(trial_index, trial_index + 1)
    # A range's indices lie between its ends.
    if not all(0 <= i < spec.n_trials for i in ((indices[0], indices[-1]) if indices else ())):
        raise TrialIndexError(f"trial_index {trial_index} outside [0, {spec.n_trials})")
    n = spec.n_rx * spec.n_tx
    # Uniforms u1 then u2 of each trial, in one draw from its substream.
    u = np.empty((len(indices), 2 * n))
    gen = np.random.Generator(np.random.Philox(_SEEDS))
    for row, index in zip(u, indices):
        # The start of this trial's substream.
        key = np.array([spec.master_seed, index], dtype=np.uint64)
        gen.bit_generator.state = {**_PHILOX_START, "state": {**_PHILOX_START["state"], "key": key}}
        gen.random(out=row)
    # Box-Muller: radius sqrt(-2 ln(1 - u1)) and angle 2 pi u2 give a standard
    # normal pair (a, b); (a + jb)/sqrt(2) collapses to the form below.
    entries = np.sqrt(-np.log1p(-u[:, :n])) * np.exp(2j * np.pi * u[:, n:])
    return entries.reshape((len(indices), spec.n_rx, spec.n_tx) if stacked else (spec.n_rx, spec.n_tx))
