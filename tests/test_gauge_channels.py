"""Gauge channels: j^k R, and diagonal phases on multiples of pi/2 slightly off.

A real channel R turned by j^k, or by unimodular row and column phases on
multiples of pi/2, keeps R's singular values, and its singular vectors are
real or purely imaginary up to those phases.  At s = n on a side, the
imaginary part of that side's unitary is then exactly singular, or of the
size of rounding error, or of the size of the phase offset.  Its singular
values are judged on the unitary's scale, so none of these is accepted as a
well-conditioned matrix of rounding noise: each design meets the 1e-9 gate
through run_trial, and through the dense susceptance_tx/_rx of its unitaries.
"""

import numpy as np
import pytest

from milacsim import (
    AdmittanceMatrix,
    PortPartition,
    SingularImaginaryPartError,
    SystemConfig,
    milac_rate,
    run_trial,
    susceptance_rx,
    susceptance_tx,
    transfer_block_from_admittance,
)

SHAPES = [(1, 1), (2, 2), (4, 4), (6, 6), (3, 5), (5, 3), (2, 6), (7, 3)]
LINKS = [(n_rx, n_tx, s) for n_rx, n_tx in SHAPES for s in range(1, min(n_rx, n_tx) + 1)]
OFFSETS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
POWERS = (0.1, 10.0, 1000.0)


def gauge_channels(n_rx, n_tx, offsets=OFFSETS):
    """j^k R for k = 0..3, then for each offset two channels diag(rows) R diag(cols):
    rows e^{j (pi/2 m_i + offset)} with every m_i odd and cols e^{j pi/2 l_k}
    with every l_k even (an offset j R up to signs), and then m and l of any parity."""
    rng = np.random.default_rng([n_rx, n_tx])
    r = rng.standard_normal((n_rx, n_tx))
    channels = [1j**k * r for k in range(4)]
    for offset in offsets:
        for odd_rows, even_cols in ((1, 0), (rng.integers(0, 2, n_rx), rng.integers(0, 2, n_tx))):
            m = 2 * rng.integers(0, 2, n_rx) + odd_rows
            l = 2 * rng.integers(0, 2, n_tx) + even_cols
            rows = np.exp(1j * (np.pi / 2 * m + offset))
            cols = np.exp(1j * np.pi / 2 * l)
            channels.append(rows[:, None] * r * cols)
    return np.stack(channels)


def _config(n_rx, n_tx, s):
    return SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=POWERS, noise_power=1.0)


def _assert_at_capacity(rates, capacity):
    assert (np.abs(rates - capacity) <= 1e-9 * capacity).all(), np.abs(rates - capacity).max(axis=-1)


def _dense_rates(h, report, s):
    """Analog rates through the dense susceptance_tx/_rx of each design's unitaries."""
    n_rx, n_tx = h.shape[-2:]
    design = report.design
    f, g = [], []
    for v, u in zip(design.tx.unitary(), design.rx.unitary()):
        b_tx, b_rx = susceptance_tx(v, s).b, susceptance_rx(u, s).b
        f.append(transfer_block_from_admittance(AdmittanceMatrix(1j * b_tx), PortPartition(s, n_tx)))
        g.append(transfer_block_from_admittance(AdmittanceMatrix(1j * b_rx), PortPartition(n_rx, s)))
    return milac_rate(np.stack(g), h, np.stack(f), design.allocation, POWERS, 1.0)[0]


@pytest.mark.parametrize("n_rx, n_tx, s", LINKS)
def test_gauge_channels_reach_capacity_through_run_trial(n_rx, n_tx, s):
    h = gauge_channels(n_rx, n_tx)
    report = run_trial(h, _config(n_rx, n_tx, s))
    _assert_at_capacity(report.milac_rate, report.capacity)
    _assert_at_capacity(report.digital_rate, report.capacity)


@pytest.mark.parametrize("n_rx, n_tx, s", LINKS)
def test_gauge_channels_reach_capacity_through_the_dense_synthesis(n_rx, n_tx, s):
    # Offsets below the floor: each side is rotated unless its imaginary part
    # is well conditioned (test_the_dense_synthesis_misses_the_gate_just_above_the_floor).
    h = gauge_channels(n_rx, n_tx, offsets=(1e-10, 1e-9))
    report = run_trial(h, _config(n_rx, n_tx, s))
    _assert_at_capacity(_dense_rates(h, report, s), report.capacity)


@pytest.mark.xfail(strict=True, reason="the dense synthesis loses the gate on sides accepted with "
                   "sigma_min(Im V) a few times the floor, where run_trial's factored path keeps it")
def test_the_dense_synthesis_misses_the_gate_just_above_the_floor():
    h = gauge_channels(8, 8, offsets=(2e-8,))
    report = run_trial(h, _config(8, 8, 7))
    _assert_at_capacity(report.milac_rate, report.capacity)
    _assert_at_capacity(_dense_rates(h, report, 7), report.capacity)


@pytest.mark.parametrize("n, s", [(1, 1), (4, 1), (4, 2), (4, 4), (7, 7)])
def test_the_dense_synthesis_rejects_an_imaginary_part_of_rounding_size(n, s):
    # susceptance_tx of j^k e^{j offset} O, O real orthogonal: Im is sin(offset) (+-O)
    # for even k, rejected (exactly zero at offset 0), and cos(offset) (+-O) for odd k.
    o = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    for k in range(4):
        for offset in (0.0, 1e-10, 1e-9):
            v = 1j**k * np.exp(1j * offset) * o
            for synthesize, q in ((susceptance_tx, v), (susceptance_rx, np.conj(v))):
                if k % 2:
                    synthesize(q, s)
                else:
                    with pytest.raises(SingularImaginaryPartError):
                        synthesize(q, s)
