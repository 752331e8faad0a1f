"""Tests for the reproducible Rayleigh channel ensemble."""

import numpy as np
import pytest

from milacsim import ChannelEnsembleSpec, TrialIndexError, channel, rayleigh_channel


def test_same_seed_and_trial_are_bit_identical():
    spec = ChannelEnsembleSpec(n_rx=4, n_tx=6, n_trials=10, master_seed=42)
    a = rayleigh_channel(spec, 3)
    b = rayleigh_channel(spec, 3)
    assert a.dtype == np.complex128
    assert a.shape == (4, 6)
    assert np.array_equal(a, b)


def test_distinct_trials_differ():
    spec = ChannelEnsembleSpec(n_rx=3, n_tx=3, n_trials=5, master_seed=0)
    mats = [rayleigh_channel(spec, t) for t in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(mats[i], mats[j])


def test_distinct_master_seeds_differ():
    a = rayleigh_channel(ChannelEnsembleSpec(2, 2, 1, master_seed=1), 0)
    b = rayleigh_channel(ChannelEnsembleSpec(2, 2, 1, master_seed=2), 0)
    assert not np.array_equal(a, b)


def test_trials_do_not_depend_on_ensemble_size():
    # Trial 3 must be the same matrix whether the ensemble nominally holds
    # 10 or 1000 trials: draws are keyed per trial, not streamed.
    small = ChannelEnsembleSpec(n_rx=4, n_tx=4, n_trials=10, master_seed=7)
    large = ChannelEnsembleSpec(n_rx=4, n_tx=4, n_trials=1000, master_seed=7)
    assert np.array_equal(rayleigh_channel(small, 3), rayleigh_channel(large, 3))


def test_unit_entry_variance():
    # 10^5 entries: the sample mean of |h|^2 concentrates to 1 within 1 percent.
    spec = ChannelEnsembleSpec(n_rx=100, n_tx=100, n_trials=10, master_seed=2024)
    samples = np.concatenate(
        [np.abs(rayleigh_channel(spec, t)) ** 2 for t in range(10)], axis=None
    )
    assert samples.size == 100_000
    assert abs(samples.mean() - 1.0) < 0.01


def test_component_variances_are_half_each():
    spec = ChannelEnsembleSpec(n_rx=200, n_tx=250, n_trials=1, master_seed=5)
    h = rayleigh_channel(spec, 0)
    assert abs(np.var(h.real) - 0.5) < 0.01
    assert abs(np.var(h.imag) - 0.5) < 0.01
    assert abs(h.real.mean()) < 0.01
    assert abs(h.imag.mean()) < 0.01


@pytest.mark.parametrize(
    "n_rx, n_tx, n_trials, master_seed, trials",
    [
        (8, 8, 5, 1, range(5)),
        (128, 128, 1, 3, range(1)),
        (3, 5, 7, 2**64 - 1, range(2, 6)),
        # The ensemble's last index, alone in its range.
        (4, 4, 2**62, 9, range(2**62 - 1, 2**62)),
    ],
    ids=["8x8x5", "128x128x1", "3x5", "last_index"],
)
def test_a_range_of_trials_is_the_stack_of_its_trials_bit_for_bit(n_rx, n_tx, n_trials, master_seed, trials):
    spec = ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=n_trials, master_seed=master_seed)
    stack = rayleigh_channel(spec, trials)
    assert stack.shape == (len(trials), n_rx, n_tx) and stack.dtype == np.complex128
    assert stack.tobytes() == np.stack([rayleigh_channel(spec, t) for t in trials]).tobytes()


@pytest.mark.parametrize("n_rx, n_tx", [(8, 9), (3, 4), (64, 65)])
def test_a_trial_is_the_start_of_its_keys_philox_stream(monkeypatch, n_rx, n_tx):
    # Each trial resets the generator to the start of its key's stream, so
    # neither the generator's seed nor the trials drawn before reach a draw.
    spec = ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=6, master_seed=77)
    n = n_rx * n_tx
    expected = []
    for t in range(6):
        u = np.random.Generator(np.random.Philox(key=np.array([77, t], dtype=np.uint64))).random(2 * n)
        expected.append((np.sqrt(-np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:])).reshape(n_rx, n_tx))
        assert rayleigh_channel(spec, t).tobytes() == expected[t].tobytes()
    monkeypatch.setattr(channel, "_SEEDS", np.random.SeedSequence(12345))
    assert rayleigh_channel(spec, range(6)).tobytes() == np.stack(expected).tobytes()
    assert rayleigh_channel(spec, 5).tobytes() == expected[5].tobytes()


def test_trial_index_bounds():
    spec = ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=3, master_seed=0)
    with pytest.raises(TrialIndexError):
        rayleigh_channel(spec, 3)
    with pytest.raises(TrialIndexError):
        rayleigh_channel(spec, -1)
    # A range must lie inside the ensemble at both ends.
    for trials in (range(2, 4), range(3, 5), range(-1, 2)):
        with pytest.raises(TrialIndexError):
            rayleigh_channel(spec, trials)
    assert rayleigh_channel(spec, range(0, 3)).shape == (3, 2, 2)


def test_a_trial_index_must_be_an_integer_or_a_range():
    spec = ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=3, master_seed=0)
    for bad in (1.0, [0, 1]):
        with pytest.raises(ValueError, match="trial_index must be an integer"):
            rayleigh_channel(spec, bad)


def test_trial_index_error_is_an_index_error():
    spec = ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=1, master_seed=0)
    with pytest.raises(IndexError):
        rayleigh_channel(spec, 5)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(n_rx=0, n_tx=2, n_trials=1, master_seed=0)
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=0, master_seed=0)
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=1, master_seed=-1)
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=1, master_seed=2**64)
    # Largest valid seed is accepted.
    ChannelEnsembleSpec(n_rx=2, n_tx=2, n_trials=1, master_seed=2**64 - 1)
