"""Tests for SVD handling, water-filling, rate formulas, and the full designs."""

from dataclasses import replace

import numpy as np
import pytest

import milacsim.beamforming as beamforming
import milacsim.network as network
from milacsim import (
    AdmittanceMatrix,
    AllZeroEigenvaluesError,
    DimensionMismatchError,
    NonFiniteInputError,
    PhaseSearchExhaustedError,
    PortPartition,
    PowerAllocation,
    RateFormMismatchError,
    SingularImaginaryPartError,
    SvdFactors,
    SystemConfig,
    ZeroCombinerRowError,
    admittance_to_scattering,
    capacity_closed_form,
    design_milac,
    digital_design_and_rate,
    ensure_invertible_imag,
    milac_rate,
    scattering_to_admittance,
    susceptance_rx,
    susceptance_tx,
    svd_ordered,
    transfer_block_from_admittance,
    water_filling,
)


def random_channel(n_rx, n_tx, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2)


# ---------------------------------------------------------------------------
# svd_ordered


def test_svd_of_identity():
    factors = svd_ordered(np.eye(2))
    assert np.array_equal(factors.u, np.eye(2))
    assert np.array_equal(factors.v, np.eye(2))
    assert np.array_equal(factors.sigma, np.ones(2))


def test_svd_keeps_zero_singular_values():
    factors = svd_ordered(np.diag([3.0, 0.0]))
    assert np.array_equal(factors.sigma, np.array([3.0, 0.0]))


@pytest.mark.parametrize("n_rx, n_tx", [(4, 6), (6, 4)])
def test_svd_is_economy_and_reconstructs_the_channel(n_rx, n_tx):
    for seed in range(10):
        h = random_channel(n_rx, n_tx, seed)
        factors = svd_ordered(h)
        k = min(n_rx, n_tx)
        assert factors.u.shape == (n_rx, k)
        assert factors.v.shape == (n_tx, k)
        assert factors.sigma.shape == (k,)
        err = np.linalg.norm(factors.reconstruct() - h)
        assert err <= 1e-10 * np.linalg.norm(h)


def test_svd_phase_convention_pivot_real_positive():
    # Every column of v carries the pivot convention; the columns of u are
    # slaved to v's rotations through the reconstruction.
    for seed in range(10):
        h = random_channel(3, 5, seed)
        factors = svd_ordered(h)
        for col in factors.v.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)


def test_svd_is_deterministic():
    h = random_channel(4, 4, 9)
    a = svd_ordered(h)
    b = svd_ordered(h)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_svd_descending_order():
    factors = svd_ordered(random_channel(6, 6, 3))
    assert np.all(np.diff(factors.sigma) <= 0)


def test_svd_rejects_nonfinite():
    h = np.ones((2, 2), dtype=complex)
    h[0, 1] = np.nan
    with pytest.raises(NonFiniteInputError):
        svd_ordered(h)
    h[0, 1] = np.inf
    with pytest.raises(NonFiniteInputError):
        svd_ordered(h)


def test_svd_factors_validate_ordering():
    with pytest.raises(ValueError):
        SvdFactors(u=np.eye(2), sigma=np.array([1.0, 2.0]), v=np.eye(2))
    with pytest.raises(DimensionMismatchError):
        SvdFactors(u=np.eye(2), sigma=np.array([1.0]), v=np.eye(2))
    # Economy factors only: k = min(n_rx, n_tx) columns on both sides.
    with pytest.raises(DimensionMismatchError):
        SvdFactors(u=np.eye(2), sigma=np.ones(2), v=np.eye(3))
    # NaN compares false, so it must not slip past the order checks.
    for sigma in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            SvdFactors(u=np.eye(2), sigma=np.array(sigma), v=np.eye(2))


# ---------------------------------------------------------------------------
# ensure_invertible_imag


def _config(n_streams, n_tx, n_rx):
    return SystemConfig(n_streams=n_streams, n_tx=n_tx, n_rx=n_rx, tx_power=1.0, noise_power=1.0)


def test_design_keeps_the_svd_factors_when_they_synthesize(monkeypatch):
    def repair(*args, **kwargs):
        raise AssertionError("a Rayleigh channel needs no phase repair")

    monkeypatch.setattr(beamforming, "ensure_invertible_imag", repair)
    h = random_channel(5, 5, 7)
    design = design_milac(h, _config(3, 5, 5), rng_seed=0)
    factors = svd_ordered(h)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(design.factors, name), getattr(factors, name))


def test_ensure_repairs_real_factors_without_changing_the_channel():
    h = np.eye(2)
    factors = svd_ordered(h)
    repaired, tx, rx = ensure_invertible_imag(factors, _config(1, 2, 2), rng_seed=0)
    assert repaired is not factors
    assert np.linalg.norm(repaired.reconstruct() - h) <= 1e-10
    # Paired columns share one common phase per column.
    assert np.allclose(np.abs(repaired.v), np.abs(factors.v), atol=1e-15)
    assert not np.allclose(repaired.v, factors.v)
    # The networks returned are those of the repaired factors: the dense
    # syntheses of the unitaries they realize, whose leading columns are j v_bar and j u_bar.
    v, u = tx.unitary(), rx.unitary()
    assert np.abs(v[:, :1] - 1j * repaired.v[:, :1]).max() <= 1e-15
    assert np.abs(u[:, :1] - 1j * repaired.u[:, :1]).max() <= 1e-15
    assert np.abs(tx.dense().b - susceptance_tx(v, 1).b).max() <= 1e-12 * network.DEFAULT_REF_ADMITTANCE
    assert np.abs(rx.dense().b - susceptance_rx(u, 1).b).max() <= 1e-12 * network.DEFAULT_REF_ADMITTANCE


def test_ensure_single_attempt_succeeds_on_almost_all_real_channels(monkeypatch):
    # One random draw of the repair should synthesize essentially every time.
    monkeypatch.setattr(beamforming, "DEFAULT_PHASE_ATTEMPTS", 1)
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        factors = svd_ordered(rng.standard_normal((8, 8)))
        try:
            ensure_invertible_imag(factors, _config(4, 8, 8), rng_seed=seed)
        except PhaseSearchExhaustedError:
            failures += 1
    assert failures <= 1


def test_ensure_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(beamforming, "DEFAULT_PHASE_ATTEMPTS", 0)
    factors = svd_ordered(np.eye(2))
    with pytest.raises(PhaseSearchExhaustedError):
        ensure_invertible_imag(factors, _config(1, 2, 2), rng_seed=0)


def test_ensure_is_deterministic_in_the_seed():
    factors = svd_ordered(np.eye(3))
    a, _, _ = ensure_invertible_imag(factors, _config(2, 3, 3), rng_seed=42)
    b, _, _ = ensure_invertible_imag(factors, _config(2, 3, 3), rng_seed=42)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.u, b.u)


def test_design_repairs_a_channel_with_a_singular_real_part(monkeypatch, repair_channel):
    # At s = n the transmit unitary is j v_bar, and Re v_bar of this channel is singular.
    repairs = []
    ensure = beamforming.ensure_invertible_imag

    def counted(*args, **kwargs):
        repairs.append(1)
        return ensure(*args, **kwargs)

    monkeypatch.setattr(beamforming, "ensure_invertible_imag", counted)
    with pytest.raises(SingularImaginaryPartError):
        network._synthesize_factored(svd_ordered(repair_channel).v, 1.0, False)
    design = design_milac(repair_channel, _config(4, 4, 4), rng_seed=0)
    assert len(repairs) == 1
    assert np.abs(design.factors.reconstruct() - repair_channel).max() <= 1e-12


def test_synthesis_and_repair_share_one_threshold(monkeypatch):
    # At a relative threshold of 1 no matrix is invertible, for both callers.
    h = random_channel(4, 4, 3)
    factors = svd_ordered(h)
    susceptance_tx(factors.v, 2)
    design_milac(h, _config(2, 4, 4), rng_seed=0)
    monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", 1.0)
    with pytest.raises(SingularImaginaryPartError):
        susceptance_tx(factors.v, 2)
    with pytest.raises(PhaseSearchExhaustedError):
        design_milac(h, _config(2, 4, 4), rng_seed=0)


# ---------------------------------------------------------------------------
# water_filling


def test_water_filling_uniform_eigenvalues_split_evenly():
    # Floors are 4*1/(4*2) = 0.5 exactly, so every fraction is exactly 1/4.
    alloc = water_filling(np.full(4, 2.0), total_power=4.0, noise_power=1.0)
    assert np.array_equal(alloc.p, np.full(4, 0.25))


def test_water_filling_single_stream_gets_everything():
    alloc = water_filling(np.array([0.37]), total_power=1.0, noise_power=1.0)
    assert np.array_equal(alloc.p, np.array([1.0]))


def _grid_rate(lam, p1, total_power, noise_power):
    p = np.array([p1, 1.0 - p1])
    return np.sum(np.log2(1.0 + total_power * p * lam / (4.0 * noise_power)))


@pytest.mark.parametrize(
    "lam,snr",
    [
        (np.array([4.0, 1.0]), 1.0),  # boundary optimum: everything on the strong mode
        (np.array([4.0, 1.0]), 10.0),  # interior optimum
        (np.array([2.5, 2.0]), 0.3),
    ],
)
def test_water_filling_two_streams_matches_dense_grid(lam, snr):
    # Oracle: brute-force search over a million-point grid on p1.
    total_power, noise_power = snr, 1.0
    alloc = water_filling(lam, total_power, noise_power)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    rates = np.log2(1.0 + total_power * grid * lam[0] / (4.0 * noise_power)) + np.log2(
        1.0 + total_power * (1.0 - grid) * lam[1] / (4.0 * noise_power)
    )
    best = grid[int(np.argmax(rates))]
    assert abs(alloc.p[0] - best) <= 1.5e-6
    assert _grid_rate(lam, alloc.p[0], total_power, noise_power) >= rates.max() - 1e-12


def test_water_filling_sums_to_one_and_satisfies_kkt():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lam = 0.1 + rng.random(n) * 10.0
        total_power = float(0.5 + rng.random() * 20.0)
        alloc = water_filling(lam, total_power, 1.0)
        assert abs(alloc.p.sum() - 1.0) <= 1e-12
        floors = 4.0 / (total_power * lam)
        active = alloc.p > 0
        # Active streams sit exactly at the water level; inactive floors are above it.
        assert np.abs(alloc.p[active] + floors[active] - alloc.water_level).max() <= 1e-12
        if np.any(~active):
            assert floors[~active].min() >= alloc.water_level - 1e-12


def test_water_filling_never_beaten_by_random_allocations():
    rng = np.random.default_rng(123)
    lam = np.array([5.0, 2.0, 0.7, 0.1])
    total_power, noise_power = 3.0, 1.0
    alloc = water_filling(lam, total_power, noise_power)
    best = capacity_closed_form(lam, alloc, total_power, noise_power)
    for _ in range(300):
        q = rng.dirichlet(np.ones(4))
        rate = capacity_closed_form(lam, PowerAllocation(p=q, water_level=np.nan), total_power, noise_power)
        assert rate <= best + 1e-12


def test_water_filling_zero_modes_get_zero_power():
    alloc = water_filling(np.array([4.0, 0.0]), total_power=1.0, noise_power=1.0)
    assert alloc.p[1] == 0.0
    assert abs(alloc.p.sum() - 1.0) <= 1e-12


def test_water_filling_weak_channel_floors_beyond_2_pow_53():
    # Floors near 4e299: 1 + a_min == a_min, yet the stronger mode takes all power.
    alloc = water_filling(np.array([9.7e-300, 5.7e-300]), 1.0, 1.0)
    assert np.array_equal(alloc.p, [1.0, 0.0])
    assert np.isfinite(alloc.water_level)


def test_water_filling_rejects_degenerate_inputs():
    with pytest.raises(AllZeroEigenvaluesError):
        water_filling(np.zeros(3), 1.0, 1.0)
    # Floors that overflow leave no finite water level either.
    with pytest.raises(AllZeroEigenvaluesError):
        water_filling(np.array([1e-310, 0.0]), 1.0, 1.0)
    # One point of a power vector whose floors all overflow fails the call.
    with pytest.raises(AllZeroEigenvaluesError):
        water_filling(np.array([1e-300, 1e-301]), np.array([1.0, 1e-10]), 1.0)
    with pytest.raises(ValueError):
        water_filling(np.array([-1.0, 2.0]), 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        water_filling(np.zeros(0), 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        water_filling(np.array([2.0, 1.0]), np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        water_filling(np.array([1.0]), 0.0, 1.0)


@pytest.mark.parametrize("noise_power", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("rating", ["water_filling", "capacity", "milac_rate", "digital"])
def test_rating_functions_reject_a_noise_power_that_is_not_positive_and_finite(rating, noise_power):
    h = random_channel(3, 3, 5)
    config = _config(2, 3, 3)
    f, g, alloc = _circuit_blocks(h, config, seed=0)
    lam = svd_ordered(h).sigma[:2] ** 2
    call = {
        "water_filling": lambda: water_filling(lam, 1.0, noise_power),
        "capacity": lambda: capacity_closed_form(lam, alloc, 1.0, noise_power),
        "milac_rate": lambda: milac_rate(g, h, f, alloc, 1.0, noise_power),
        "digital": lambda: digital_design_and_rate(h, design_milac(h, config, rng_seed=0), 1.0, noise_power),
    }[rating]
    with pytest.raises(ValueError, match="noise_power must be positive and finite"):
        call()


_NOT_NORMAL = (0.0, -1.0, np.nan, np.inf, 1e-320)

# Entry point -> (field its error names, values that break the field's rule).
_INPUT_RULES = {
    "water_filling": ("total_power", _NOT_NORMAL),
    "capacity_closed_form": ("total_power", _NOT_NORMAL),
    "milac_rate": ("total_power", _NOT_NORMAL),
    "digital_design_and_rate": ("total_power", _NOT_NORMAL),
    "admittance_to_scattering": ("ref_admittance", _NOT_NORMAL),
    "scattering_to_admittance": ("ref_admittance", _NOT_NORMAL),
    "transfer_block_from_admittance": ("ref_admittance", _NOT_NORMAL),
    "susceptance_tx": ("ref_admittance", _NOT_NORMAL),
    "susceptance_rx": ("ref_admittance", _NOT_NORMAL),
    "PortPartition.n_inputs": ("n_inputs", (2.5,)),
    "PortPartition.n_outputs": ("n_outputs", (2.5,)),
    "susceptance_tx.n_streams": ("n_streams", (2.5,)),
    "susceptance_rx.n_streams": ("n_streams", (2.5,)),
    "design_milac": ("rng_seed", (2.5, -1)),
    "ensure_invertible_imag": ("rng_seed", (1.5, -1)),
}


@pytest.mark.parametrize(
    "entry, value", [(entry, value) for entry, (_, values) in _INPUT_RULES.items() for value in values]
)
def test_entry_points_reject_values_that_break_the_input_rules(entry, value):
    # A Rayleigh channel: the seed is checked although no phase repair runs.
    h = random_channel(3, 3, 5)
    config = _config(2, 3, 3)
    design = design_milac(h, config, rng_seed=0)
    f, g, alloc = _circuit_blocks(h, config, seed=0)
    lam = design.factors.sigma[:2] ** 2
    v, u = design.factors.v, design.factors.u
    y = AdmittanceMatrix(1j * design.b_tx.b)
    call = {
        "water_filling": lambda x: water_filling(lam, x, 1.0),
        "capacity_closed_form": lambda x: capacity_closed_form(lam, alloc, x, 1.0),
        "milac_rate": lambda x: milac_rate(g, h, f, alloc, x, 1.0),
        "digital_design_and_rate": lambda x: digital_design_and_rate(h, design, x, 1.0),
        "admittance_to_scattering": lambda x: admittance_to_scattering(y, x),
        "scattering_to_admittance": lambda x: scattering_to_admittance(admittance_to_scattering(y), x),
        "transfer_block_from_admittance": lambda x: transfer_block_from_admittance(y, PortPartition(2, 3), x),
        "susceptance_tx": lambda x: susceptance_tx(v, 2, x),
        "susceptance_rx": lambda x: susceptance_rx(u, 2, x),
        "PortPartition.n_inputs": lambda x: PortPartition(x, 3),
        "PortPartition.n_outputs": lambda x: PortPartition(2, x),
        "susceptance_tx.n_streams": lambda x: susceptance_tx(v, x),
        "susceptance_rx.n_streams": lambda x: susceptance_rx(u, x),
        "design_milac": lambda x: design_milac(h, config, x),
        "ensure_invertible_imag": lambda x: ensure_invertible_imag(design.factors, config, x),
    }[entry]
    field = _INPUT_RULES[entry][0]
    with pytest.raises(ValueError, match=f"{field} must be"):
        call(value)


# ---------------------------------------------------------------------------
# capacity_closed_form


def test_capacity_single_mode_unit_snr():
    # total_power * p * lam / (4 * noise) = 4*1*1/(4*1) = 1, so exactly one bit.
    alloc = PowerAllocation(p=np.array([1.0]), water_level=1.0)
    assert capacity_closed_form(np.array([1.0]), alloc, 4.0, 1.0) == 1.0


def test_capacity_shape_mismatch_rejected():
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=1.0)
    with pytest.raises(DimensionMismatchError):
        capacity_closed_form(np.array([1.0]), alloc, 1.0, 1.0)


# ---------------------------------------------------------------------------
# milac_rate


def test_milac_rate_hand_computed_diagonal_case():
    g = np.array([[1.0, 0.0], [0.0, 2.0]])
    h = np.diag([3.0, 5.0])
    f = np.eye(2)
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=np.nan)
    rate, sinr = milac_rate(g, h, f, alloc, total_power=2.0, noise_power=0.5)
    # Stream 1: 2*0.5*9 / (1*0.5) = 18; stream 2: 2*0.5*100 / (4*0.5) = 50.
    assert np.allclose(sinr, [18.0, 50.0], rtol=1e-14)
    assert abs(rate - (np.log2(19.0) + np.log2(51.0))) <= 1e-13


def test_milac_rate_hand_computed_with_interference():
    g = np.eye(2)
    h = np.array([[1.0, 0.5], [0.0, 1.0]])
    f = np.eye(2)
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=np.nan)
    rate, sinr = milac_rate(g, h, f, alloc, total_power=2.0, noise_power=1.0)
    # Stream 1 sees 2*0.5*0.25 = 0.25 of interference on top of unit noise.
    assert np.allclose(sinr, [1.0 / 1.25, 1.0], rtol=1e-14)
    assert abs(rate - (np.log2(1.8) + 1.0)) <= 1e-13


def test_milac_rate_invariant_to_combiner_row_scaling():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    h = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    f = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    alloc = PowerAllocation(p=np.array([0.2, 0.5, 0.3]), water_level=np.nan)
    rate, _ = milac_rate(g, h, f, alloc, 2.0, 0.1)
    g_scaled = g.copy()
    g_scaled[1, :] *= 10.0
    rate_scaled, _ = milac_rate(g_scaled, h, f, alloc, 2.0, 0.1)
    assert abs(rate - rate_scaled) <= 1e-12 * max(1.0, abs(rate))


def test_milac_rate_rejects_zero_combiner_row():
    g = np.array([[1.0, 0.0], [0.0, 0.0]])
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=np.nan)
    with pytest.raises(ZeroCombinerRowError):
        milac_rate(g, np.eye(2), np.eye(2), alloc, 1.0, 1.0)


def test_milac_rate_form_disagreement_raises_milac_error(monkeypatch):
    # A negative tolerance fails even forms that agree exactly, so the check
    # must raise a MilacError (an assert would vanish under python -O).
    monkeypatch.setattr(beamforming, "RATE_FORM_CHECK_TOL", -1.0)
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=np.nan)
    with pytest.raises(RateFormMismatchError, match="rate forms disagree"):
        milac_rate(np.eye(2), np.eye(2), np.eye(2), alloc, 1.0, 1.0)


def test_milac_rate_validates_shapes():
    alloc = PowerAllocation(p=np.array([0.5, 0.5]), water_level=np.nan)
    with pytest.raises(DimensionMismatchError):
        milac_rate(np.eye(3), np.eye(3), np.eye(3)[:, :2], alloc, 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        milac_rate(np.eye(2), np.eye(3), np.eye(2), alloc, 1.0, 1.0)


def _circuit_blocks(h, config, seed):
    """Precoder/combiner transfer blocks realized through admittance solves."""
    b_tx, b_rx, alloc = design_milac(h, config, rng_seed=seed)
    f = transfer_block_from_admittance(
        AdmittanceMatrix(1j * b_tx.b),
        PortPartition(config.n_streams, config.n_tx),
        config.ref_admittance,
    )
    g = transfer_block_from_admittance(
        AdmittanceMatrix(1j * b_rx.b),
        PortPartition(config.n_rx, config.n_streams),
        config.ref_admittance,
    )
    return f, g, alloc


def test_optimal_design_diagonalizes_the_channel():
    # The cascade combiner @ channel @ precoder must equal diag(sigma) / 4,
    # and each combiner row must carry power exactly 1/4.
    for seed in range(5):
        h = random_channel(4, 4, 40 + seed)
        config = SystemConfig(n_streams=4, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
        f, g, _ = _circuit_blocks(h, config, seed)
        sigma = svd_ordered(h).sigma
        effective = g @ h @ f
        scale = sigma[0]
        assert np.abs(np.diag(effective) - sigma / 4.0).max() <= 1e-10 * scale
        off = effective - np.diag(np.diag(effective))
        assert np.abs(off).max() <= 1e-10 * scale
        row_power = np.sum(np.abs(g) ** 2, axis=1)
        assert np.abs(row_power - 0.25).max() <= 1e-10


# ---------------------------------------------------------------------------
# design_milac end to end


def test_design_scaled_identity_single_stream():
    h = 2.0 * np.eye(2)
    for snr in (0.5, 1.0, 8.0):
        config = SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=snr, noise_power=1.0)
        f, g, alloc = _circuit_blocks(h, config, seed=0)
        rate, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        # lam = 4, so the rate collapses to log2(1 + tx_power / noise_power).
        assert abs(rate - np.log2(1.0 + snr)) <= 1e-9


def test_design_matches_capacity_on_random_small_channels():
    for seed in range(20):
        h = random_channel(2, 2, 900 + seed)
        config = SystemConfig(n_streams=2, n_tx=2, n_rx=2, tx_power=4.0, noise_power=1.0)
        f, g, alloc = _circuit_blocks(h, config, seed)
        rate, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        lam = svd_ordered(h).sigma[:2] ** 2
        cap = capacity_closed_form(lam, alloc, config.tx_power, config.noise_power)
        assert abs(rate - cap) <= 1e-9 * max(1.0, cap)


def test_design_survives_rank_deficient_channel():
    # Rank-one channel asked for two streams: the dead mode gets zero power
    # and the rate stays finite and equal to the single-mode value.
    rng = np.random.default_rng(77)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = np.outer(a, b)
    config = SystemConfig(n_streams=2, n_tx=3, n_rx=3, tx_power=2.0, noise_power=1.0)
    f, g, alloc = _circuit_blocks(h, config, seed=1)
    assert alloc.p[1] == 0.0
    rate, sinr = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
    assert np.isfinite(rate)
    assert sinr[1] <= 1e-20
    lam = svd_ordered(h).sigma[:2] ** 2
    cap = capacity_closed_form(lam, alloc, config.tx_power, config.noise_power)
    assert abs(rate - cap) <= 1e-9 * max(1.0, cap)


def test_design_unpacks_as_b_tx_b_rx_allocation():
    h = random_channel(4, 3, 12)
    config = SystemConfig(n_streams=2, n_tx=3, n_rx=4, tx_power=1.0, noise_power=1.0)
    design = design_milac(h, config, rng_seed=0)
    b_tx, b_rx, alloc = design
    assert b_tx is design.b_tx and b_rx is design.b_rx and alloc is design.allocation
    assert np.array_equal(design.factors.sigma, svd_ordered(h).sigma)


def test_design_rejects_mismatched_channel_shape():
    config = SystemConfig(n_streams=1, n_tx=3, n_rx=2, tx_power=1.0, noise_power=1.0)
    with pytest.raises(DimensionMismatchError):
        design_milac(np.eye(3), config, rng_seed=0)


def test_design_rate_monotone_in_transmit_power():
    h = random_channel(4, 4, 55)
    rates = []
    for power in (0.1, 1.0, 10.0, 100.0):
        config = SystemConfig(n_streams=2, n_tx=4, n_rx=4, tx_power=power, noise_power=1.0)
        f, g, alloc = _circuit_blocks(h, config, seed=2)
        rate, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        rates.append(rate)
    assert np.all(np.diff(rates) > 0)


def test_design_rate_invariant_to_phase_repair_seed():
    # Real channels force the phase repair; the achieved rate must not depend
    # on which rotation the search happens to pick.
    rng = np.random.default_rng(8)
    h = rng.standard_normal((4, 4))
    config = SystemConfig(n_streams=2, n_tx=4, n_rx=4, tx_power=5.0, noise_power=1.0)
    rates = []
    for seed in (0, 12345):
        f, g, alloc = _circuit_blocks(h, config, seed)
        rate, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        rates.append(rate)
    assert abs(rates[0] - rates[1]) <= 1e-9 * max(1.0, abs(rates[0]))


# ---------------------------------------------------------------------------
# digital benchmark


def test_digital_single_stream_closed_form():
    h = np.diag([3.0, 1.0]).astype(complex)
    config = SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=2.0, noise_power=0.5)
    w, rate = digital_design_and_rate(
        h, design_milac(h, config, rng_seed=0), config.tx_power, config.noise_power
    )
    assert w.shape == (2, 1)
    assert abs(rate - np.log2(1.0 + 2.0 * 9.0 / (4.0 * 0.5))) <= 1e-12


def test_digital_rejects_a_design_for_another_config():
    # A 3x3 design rated on a 4x3 channel, or at two powers with one allocation.
    h = random_channel(3, 3, 5)
    config = SystemConfig(n_streams=1, n_tx=3, n_rx=3, tx_power=1.0, noise_power=1.0)
    design = design_milac(h, config, rng_seed=0)
    with pytest.raises(DimensionMismatchError):
        digital_design_and_rate(random_channel(4, 3, 5), design, 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        digital_design_and_rate(h, design, np.array([1.0, 2.0]), 1.0)


def test_digital_scaled_unitary_uses_uniform_allocation():
    h = 2.0 * np.eye(4)
    config = SystemConfig(n_streams=4, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
    w, rate = digital_design_and_rate(
        h, design_milac(h, config, rng_seed=0), config.tx_power, config.noise_power
    )
    expected = 4.0 * np.log2(1.0 + 1.0 * 4.0 / (4.0 * 1.0 * 4.0))
    assert abs(rate - expected) <= 1e-12
    col_power = np.sum(np.abs(w) ** 2, axis=0)
    assert np.abs(col_power - 0.25).max() <= 1e-12


def test_digital_precoder_spends_unit_power():
    for seed in range(10):
        h = random_channel(5, 6, 300 + seed)
        config = SystemConfig(n_streams=3, n_tx=6, n_rx=5, tx_power=2.0, noise_power=1.0)
        w, _ = digital_design_and_rate(
            h, design_milac(h, config, rng_seed=seed), config.tx_power, config.noise_power
        )
        assert abs(np.linalg.norm(w) ** 2 - 1.0) <= 1e-12


def test_digital_rate_equals_eigenvalue_capacity():
    for seed in range(20):
        h = random_channel(4, 4, 600 + seed)
        config = SystemConfig(n_streams=3, n_tx=4, n_rx=4, tx_power=6.0, noise_power=1.0)
        _, rate = digital_design_and_rate(
            h, design_milac(h, config, rng_seed=seed), config.tx_power, config.noise_power
        )
        factors = svd_ordered(h)
        lam = factors.sigma[:3] ** 2
        alloc = water_filling(lam, config.tx_power, config.noise_power)
        cap = capacity_closed_form(lam, alloc, config.tx_power, config.noise_power)
        assert abs(rate - cap) <= 1e-9 * max(1.0, cap)


def test_analog_and_digital_rates_agree():
    for seed in range(10):
        h = random_channel(3, 3, 80 + seed)
        config = SystemConfig(n_streams=2, n_tx=3, n_rx=3, tx_power=3.0, noise_power=1.0)
        f, g, alloc = _circuit_blocks(h, config, seed)
        analog, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        _, digital = digital_design_and_rate(
            h, design_milac(h, config, rng_seed=seed), config.tx_power, config.noise_power
        )
        assert abs(analog - digital) <= 1e-9 * max(1.0, digital)


@pytest.mark.parametrize("scale, streams_on_at_100_db", [(1.0, 3), (1e-150, 1)])
def test_rating_a_vector_of_powers_equals_rating_each_power_alone(scale, streams_on_at_100_db):
    # One call over 29 powers from -40 to 100 dB rates each point bit for bit
    # as a one-point call does, including points that switch streams off.
    h = scale * random_channel(4, 4, 21)
    config = SystemConfig(n_streams=3, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
    f, g, _ = _circuit_blocks(h, config, seed=0)
    design = design_milac(h, config, rng_seed=0)
    lam = design.factors.sigma[:3] ** 2
    powers = 10.0 ** (np.linspace(-40.0, 100.0, 29) / 10.0)
    batch = water_filling(lam, powers, 1.0)
    assert np.count_nonzero(batch.p[0]) == 1
    assert np.count_nonzero(batch.p[-1]) == streams_on_at_100_db
    rates, sinr = milac_rate(g, h, f, batch, powers, 1.0)
    capacities = capacity_closed_form(lam, batch, powers, 1.0)
    _, digital = digital_design_and_rate(h, replace(design, allocation=batch), powers, 1.0)
    for k, power in enumerate(powers):
        alone = water_filling(lam, power, 1.0)
        assert np.array_equal(batch.p[k], alone.p) and batch.water_level[k] == alone.water_level
        rate, sinr_alone = milac_rate(g, h, f, alone, power, 1.0)
        assert rates[k] == rate and np.array_equal(sinr[k], sinr_alone)
        assert capacities[k] == capacity_closed_form(lam, alone, power, 1.0)
        assert digital[k] == digital_design_and_rate(h, replace(design, allocation=alone), power, 1.0)[1]
        assert abs(rate - capacities[k]) <= 1e-9 * capacities[k]


def test_rating_rejects_an_allocation_without_one_row_per_power():
    alloc = water_filling(np.array([2.0, 1.0]), np.array([1.0, 2.0, 4.0]), 1.0)
    with pytest.raises(DimensionMismatchError):
        capacity_closed_form(np.array([2.0, 1.0]), alloc, np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DimensionMismatchError):
        milac_rate(np.eye(2), np.eye(2), np.eye(2), alloc, 1.0, 1.0)


# ---------------------------------------------------------------------------
# config validation


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_streams=3, n_tx=2, n_rx=4, tx_power=1.0, noise_power=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=0.0, noise_power=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=1.0, noise_power=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(n_streams=0, n_tx=2, n_rx=2, tx_power=1.0, noise_power=1.0)
    with pytest.raises(ValueError, match="tx_power must be positive and finite"):
        SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=1e-310, noise_power=1.0)


def test_system_config_takes_a_vector_of_powers():
    config = SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=np.array([0.5, 2.0]), noise_power=1.0)
    # Stored as a tuple of floats, so the frozen record stays hashable.
    assert config.tx_power == (0.5, 2.0) and hash(config) == hash(replace(config, tx_power=(0.5, 2.0)))
    scalar = SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=np.float64(3.0), noise_power=1.0)
    assert scalar.tx_power == 3.0 and type(scalar.tx_power) is float
    for bad in ((), np.ones((2, 2))):
        with pytest.raises(ValueError, match="tx_power must be one power or a nonempty vector"):
            SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=bad, noise_power=1.0)
    for bad in ((1.0, np.nan), (1e-310, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="tx_power must be positive and finite"):
            SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=bad, noise_power=1.0)


def test_power_allocation_rejects_negative():
    with pytest.raises(ValueError):
        PowerAllocation(p=np.array([0.5, -0.1]), water_level=1.0)
