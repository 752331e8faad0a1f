"""Tests for SVD handling, water-filling, rate formulas, and the full designs."""

import warnings
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
    PortPartition,
    PowerAllocation,
    RateFormMismatchError,
    SingularImaginaryPartError,
    SvdFactors,
    SweepSpec,
    SystemConfig,
    ZeroCombinerRowError,
    admittance_to_scattering,
    capacity_closed_form,
    design_milac,
    digital_design_and_rate,
    ensure_invertible_imag,
    milac_rate,
    run_trial,
    scattering_to_admittance,
    snr_db_to_tx_power,
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
    with pytest.raises(DimensionMismatchError, match="must be matrices"):
        SvdFactors(u=np.ones(2), sigma=np.ones(1), v=np.eye(2)[:, :1])
    # Leading triplets only: the same 1 <= s <= k = min(n_rx, n_tx) columns on both sides.
    with pytest.raises(DimensionMismatchError):
        SvdFactors(u=np.eye(2), sigma=np.ones(2), v=np.eye(3))
    for s in (0, 3):
        with pytest.raises(DimensionMismatchError):
            SvdFactors(u=np.eye(3)[:2, :s], sigma=np.ones(s), v=np.eye(3)[:, :s])
    assert SvdFactors(u=np.eye(3)[:2, :1], sigma=np.ones(1), v=np.eye(3)[:, :1]).u.shape == (2, 1)
    # NaN compares false, so it must not slip past the order checks.
    for sigma in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            SvdFactors(u=np.eye(2), sigma=np.array(sigma), v=np.eye(2))


@pytest.mark.parametrize("kind", ["rayleigh", "real", "stacked"])
@pytest.mark.parametrize("n, s", [(64, 4), (6, 3)], ids=["top-s", "economy"])
def test_unchecked_records_hold_what_the_checked_constructors_hold(kind, n, s):
    # svd_ordered and water_filling hold their results without the
    # constructors' checks; the records must hold, bit for bit and dtype for
    # dtype, what SvdFactors(...) and PowerAllocation(...) would hold, and
    # design_milac's allocation on its config's checked powers must be the
    # public water_filling's.
    rng = np.random.default_rng(35)
    shape = (3, n, n) if kind == "stacked" else (n, n)
    h = rng.standard_normal(shape) + (0.0 if kind == "real" else 1j * rng.standard_normal(shape))
    factors = svd_ordered(h, s)
    checked = SvdFactors(u=factors.u, sigma=factors.sigma, v=factors.v)
    for name in ("u", "sigma", "v"):
        held, want = getattr(factors, name), getattr(checked, name)
        assert held.dtype == want.dtype and held.shape == want.shape and held.tobytes() == want.tobytes(), name
    for power in (10.0, (0.01, 10.0, 1e4)):
        allocation = water_filling(factors.sigma**2, power, 2.0)
        checked = PowerAllocation(p=allocation.p, water_level=allocation.water_level)
        assert allocation.p.dtype == checked.p.dtype and allocation.p.tobytes() == checked.p.tobytes()
        assert type(allocation.water_level) is type(checked.water_level)
        assert np.asarray(allocation.water_level).tobytes() == np.asarray(checked.water_level).tobytes()
        config = SystemConfig(n_streams=s, n_tx=n, n_rx=n, tx_power=power, noise_power=2.0)
        designed = design_milac(h, config).allocation
        assert designed.p.tobytes() == allocation.p.tobytes()
        assert np.asarray(designed.water_level).tobytes() == np.asarray(allocation.water_level).tobytes()


@pytest.mark.parametrize("value", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_the_checked_entry_points_still_reject_what_they_rejected(value):
    # Holding records unchecked inside the chain leaves every public check in
    # place: a NaN, a negative or an inf entry is rejected with the same error
    # type as before, by both constructors and by water_filling on each input.
    with pytest.raises(ValueError, match="singular values must be nonnegative, finite and descending"):
        SvdFactors(u=np.eye(2), sigma=np.array([2.0, value]), v=np.eye(2))
    with pytest.raises(ValueError, match="stream powers must be nonnegative and finite"):
        PowerAllocation(p=np.array([0.5, value]), water_level=1.0)
    with pytest.raises(ValueError, match="eigenvalues must be nonnegative and finite"):
        water_filling([2.0, value], 1.0, 1.0)
    with pytest.raises(ValueError, match="total_power must be positive and finite"):
        water_filling([2.0, 1.0], value, 1.0)
    with pytest.raises(ValueError, match="total_power must be positive and finite"):
        water_filling([2.0, 1.0], [1.0, value], 1.0)
    with pytest.raises(ValueError, match="noise_power must be positive and finite"):
        water_filling([2.0, 1.0], 1.0, value)
    if value != -1.0:
        h = random_channel(64, 64, 3)
        h[5, 7] = value
        for s in (4, 8):  # the top-s route and the economy SVD
            with pytest.raises(NonFiniteInputError):
                svd_ordered(h, s)


def test_water_filling_gives_a_zero_eigenvalue_of_either_sign_no_power():
    # Every zero eigenvalue has an infinite floor, -0.0 as well as +0.0: the
    # allocations are equal bit for bit, and that stream gets no power.
    for power in (2.0, (0.5, 2.0)):
        plus, minus = (water_filling([3.0, zero, 1.0], power, 1.0) for zero in (0.0, -0.0))
        assert plus.p.tobytes() == minus.p.tobytes() and (plus.p[..., 1] == 0.0).all()
        assert np.asarray(plus.water_level).tobytes() == np.asarray(minus.water_level).tobytes()


def test_the_unchecked_records_keep_the_rules_where_arithmetic_overflows():
    # A result the checked constructor rejected comes from overflow, not from
    # an input: a sigma_1 past the double range still raises its ValueError.
    with np.errstate(over="ignore"):
        for s in (2, 4):  # the economy SVD and the top-s route
            with pytest.raises(ValueError, match="singular values must be nonnegative, finite and descending"):
                svd_ordered(np.full((64, 64), 1e307, dtype=complex), s)


def test_water_filling_allocates_floors_whose_running_sum_would_overflow():
    # Floors [4, 1e308, 1e308] at P = N = 1: only the first stream is active,
    # and the excesses above the active set are capped before their running
    # sum, so nothing overflows and no warning is raised, alone or in a stack.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = water_filling([1.0, 4e-308, 4e-308], 1.0, 1.0)
        stacked = water_filling([[1.0, 4e-308, 4e-308]], [1.0, 2.0], 1.0)
    assert alone.p.tolist() == [1.0, 0.0, 0.0] and alone.water_level == 5.0
    assert stacked.p.tolist() == [[[1.0, 0.0, 0.0]] * 2] and stacked.water_level.tolist() == [[5.0, 3.0]]


def test_svd_ordered_cuts_the_economy_svd_to_n_streams():
    h = random_channel(5, 7, 2)
    full, cut = svd_ordered(h), svd_ordered(h, n_streams=2)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[..., :2])
    for bad in (0, 6):
        with pytest.raises(ValueError, match="n_streams"):
            svd_ordered(h, n_streams=bad)
    with pytest.raises(ValueError, match="n_streams must be an integer"):
        svd_ordered(h, n_streams=2.5)
    with pytest.raises(DimensionMismatchError, match="must be 2-D"):
        svd_ordered(h[0])


# ---------------------------------------------------------------------------
# The top-s SVD route

# -40 to 100 dB in 10 dB steps at unit noise.
_WIDE_SNR_POWERS = tuple(snr_db_to_tx_power(snr, 1.0) for snr in range(-40, 101, 10))


def _assert_rates_reach_capacity(h, s):
    config = SystemConfig(n_streams=s, n_tx=h.shape[-1], n_rx=h.shape[-2], tx_power=_WIDE_SNR_POWERS, noise_power=1.0)
    report = run_trial(h, config)
    for rate in (report.milac_rate, report.digital_rate):
        assert (np.abs(rate - report.capacity) <= 1e-9 * report.capacity).all()


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_the_top_s_route_rejects_a_nonfinite_channel(monkeypatch, part, value, stacked):
    # The max that sets each channel's power-of-two scale is the route's only
    # finiteness test; it must see both parts of every channel of a stack.
    h = np.stack([random_channel(64, 64, 9), random_channel(64, 64, 10)]) if stacked else random_channel(64, 64, 9)
    parts = h.view(float).reshape(h.shape + (2,))
    parts[(-1, 5, 7) if stacked else (5, 7)][0 if part == "real" else 1] = value
    assert beamforming._takes_top_s(64, 64, 4)
    economy = _economy_spy(monkeypatch)
    with pytest.raises(NonFiniteInputError, match="NaN or infinite"):
        svd_ordered(h, n_streams=4)
    assert economy == []


def _economy_spy(monkeypatch) -> list:
    """Record each matrix (stack) that svd_ordered hands to the economy SVD."""
    calls, economy = [], beamforming._economy_triplets
    monkeypatch.setattr(beamforming, "_economy_triplets", lambda h, s: calls.append(h) or economy(h, s))
    return calls


def _economy_route(monkeypatch, h, s) -> SvdFactors:
    """svd_ordered(h, s) with the size rule sending every link to the economy SVD."""
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_takes_top_s", lambda n_rx, n_tx, n_streams: False)
        return svd_ordered(h, n_streams=s)


def _assert_same_factors(mine: SvdFactors, theirs: SvdFactors):
    for name in ("u", "sigma", "v"):
        assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes(), name


def test_the_route_rule_takes_top_s_only_on_large_links_with_few_streams():
    top_s = beamforming._takes_top_s
    assert top_s(64, 64, 4) and top_s(128, 128, 8) and top_s(64, 1024, 4) and top_s(1024, 64, 4)
    assert not (top_s(63, 63, 1) or top_s(64, 64, 5) or top_s(128, 128, 9) or top_s(8, 1024, 1))
    # Without n_streams, svd_ordered takes all k triplets: the economy SVD.
    assert not top_s(512, 512, 512)


def _haar(n, seed):
    from scipy.stats import unitary_group

    return unitary_group.rvs(n, random_state=seed)


# Exactly clustered spectra: draws 0-3, and the draws on which zheevr (RANGE =
# 'I') returned fewer than 8 eigenpairs with scipy 1.17's OpenBLAS.
_CLUSTERED = {
    "3 Haar_128": (lambda seed: 3.0 * _haar(128, seed), (0, 1, 2, 3, 33)),
    "kron(I_2, 2 Haar_64)": (lambda seed: np.kron(np.eye(2), 2.0 * _haar(64, seed)), (0, 1, 2, 3, 12, 26, 32, 49, 54, 79)),
    "kron(I_4, Haar_32)": (lambda seed: np.kron(np.eye(4), _haar(32, seed)), (13, 24, 33, 41, 66)),
}


@pytest.mark.parametrize("name", list(_CLUSTERED))
def test_clustered_spectra_take_the_gram_route_without_fallback(monkeypatch, name):
    draw, seeds = _CLUSTERED[name]
    h = np.stack([draw(seed) for seed in seeds])
    fallbacks = _economy_spy(monkeypatch)
    factors = svd_ordered(h, n_streams=8)
    residual = np.abs(h @ factors.v - factors.u * factors.sigma[:, None, :]).max(axis=(-2, -1))
    assert (residual <= beamforming.TOP_S_CHECK_TOL * factors.sigma[:, 0]).all()
    _assert_rates_reach_capacity(h, 8)
    assert fallbacks == []


def _spoil_second_call(monkeypatch, name, spoil):
    """Patch beamforming's LAPACK handle `name` so that its second call (trial 1
    of a stack) returns what `spoil` makes of its outputs; return the call log."""
    routine, calls = getattr(beamforming, name), []

    def spoiled(*args, **kwargs):
        out = routine(*args, **kwargs)
        calls.append(out[0])
        return spoil(*out) if len(calls) == 2 else out

    monkeypatch.setattr(beamforming, name, spoiled)
    return calls


@pytest.mark.parametrize("spoil", ["NaN triplet", "too few eigenpairs", "dstemr error"])
def test_a_failed_top_s_check_takes_the_economy_svd_for_its_trial_alone(monkeypatch, spoil):
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 64, 64)) + 1j * rng.standard_normal((3, 64, 64))
    clean = svd_ordered(h, n_streams=4)
    economy_1 = _economy_route(monkeypatch, h[1], 4)
    if spoil == "NaN triplet":
        # As for a channel of rank below s: NaN where sigma_s is zero.
        gram_triplets = beamforming._gram_triplets

        def spoiled(h, s):
            u, sigma, v = gram_triplets(h, s)
            u[1] = np.nan
            return u, sigma, v

        monkeypatch.setattr(beamforming, "_gram_triplets", spoiled)
    elif spoil == "too few eigenpairs":
        # As zheevr did on exact clusters: m < s pairs, reported without an error.
        calls = _spoil_second_call(monkeypatch, "_STEMR", lambda m, w, z, info: (m - 2, w, z, info))
    else:
        calls = _spoil_second_call(monkeypatch, "_STEMR", lambda m, w, z, info: (m, w, z, 1))
    fallbacks = _economy_spy(monkeypatch)
    factors = svd_ordered(h, n_streams=4)
    assert len(fallbacks) == 1 and np.array_equal(fallbacks[0], h[1])
    if spoil != "NaN triplet":
        assert len(calls) == 3
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(factors, name)[1], getattr(economy_1, name)), name
        for t in (0, 2):
            assert np.array_equal(getattr(factors, name)[t], getattr(clean, name)[t]), (t, name)


@pytest.mark.parametrize("n_rx, n_tx", [(128, 64), (64, 128)], ids=["tall", "wide"])
@pytest.mark.parametrize("spoil", ["NaN in u", "NaN in v", "u times 1 + 1e-9"])
def test_a_spoiled_top_s_triplet_takes_the_economy_svd_for_its_trial_alone(monkeypatch, n_rx, n_tx, spoil):
    # Only the residual of the eigenvector side is formed; a NaN on either
    # side, or u off by 1e-9 in norm, still fails the check of its trial.
    rng = np.random.default_rng(n_rx)
    h = rng.standard_normal((3, n_rx, n_tx)) + 1j * rng.standard_normal((3, n_rx, n_tx))
    assert beamforming._takes_top_s(n_rx, n_tx, 4)
    clean = svd_ordered(h, n_streams=4)
    economy_1 = _economy_route(monkeypatch, h[1], 4)
    gram_triplets = beamforming._gram_triplets

    def spoiled(h, s):
        u, sigma, v = gram_triplets(h, s)
        if spoil == "u times 1 + 1e-9":
            u[1] *= 1 + 1e-9
        else:
            (u if spoil == "NaN in u" else v)[1, 5, 2] = np.nan
        return u, sigma, v

    monkeypatch.setattr(beamforming, "_gram_triplets", spoiled)
    fallbacks = _economy_spy(monkeypatch)
    factors = svd_ordered(h, n_streams=4)
    assert len(fallbacks) == 1 and np.array_equal(fallbacks[0], h[1])
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(factors, name)[1], getattr(economy_1, name)), name
        for t in (0, 2):
            assert np.array_equal(getattr(factors, name)[t], getattr(clean, name)[t]), (t, name)


def test_a_triplet_that_only_the_adjoint_residual_rejects_takes_the_economy_svd(monkeypatch):
    # Gram eigenvalues 3, 2, 1, then 0.01: v = (e_1 + e_3)/sqrt(2) is a unit
    # Rayleigh-quotient vector with |H v| = sqrt(2), so u = H v / sqrt(2)
    # passes H v = u sigma and both orthonormality tests, yet H^H u = (3 e_1 +
    # e_3)/2 is not v sigma = e_1 + e_3.
    h = np.diag(np.sqrt([3.0, 2.0, 1.0] + [0.01] * 61)).astype(complex)
    v = np.zeros((64, 1), dtype=complex)
    v[[0, 2], 0] = 1 / np.sqrt(2)
    sigma = np.array([np.sqrt(2)])
    u = h @ v / sigma
    tol = beamforming.TOP_S_CHECK_TOL
    assert np.abs(h @ v - u * sigma).max() <= tol * sigma[0]
    for x in (u, v):
        assert np.abs(x.conj().T @ x - 1).max() <= tol
    assert np.abs(h.conj().T @ u - v * sigma).max() > 0.1 * sigma[0]

    monkeypatch.setattr(beamforming, "_gram_triplets", lambda h, s: (u.copy(), sigma.copy(), v.copy()))
    fallbacks = _economy_spy(monkeypatch)
    factors = svd_ordered(h, n_streams=1)
    assert len(fallbacks) == 1 and np.array_equal(fallbacks[0], h)
    _assert_same_factors(factors, _economy_route(monkeypatch, h, 1))
    assert factors.sigma[0] == np.sqrt(3.0)


def _route_cases():
    rng = np.random.default_rng(16)

    def cn(n_rx, n_tx):
        return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2)

    return {
        "64x64": (cn(64, 64), 4),
        "128x128": (cn(128, 128), 8),
        "wide 64x1024": (cn(64, 1024), 4),
        "tall 1024x64": (cn(1024, 64), 4),
        "real 128x128": (rng.standard_normal((128, 128)), 8),
        "rank 3 at s=8": (cn(128, 3) @ cn(3, 128), 8),
        "scale 1e-150": (1e-150 * cn(128, 128), 8),
        "scale 1e150": (1e150 * cn(128, 128), 8),
    }


_ROUTE_CASES = _route_cases()


@pytest.mark.parametrize("name", list(_ROUTE_CASES))
def test_top_s_factors_agree_with_the_economy_factors(monkeypatch, name):
    h, s = _ROUTE_CASES[name]
    assert beamforming._takes_top_s(*h.shape, s)
    fallbacks = _economy_spy(monkeypatch)
    top = svd_ordered(h, n_streams=s)
    economy = _economy_route(monkeypatch, h, s)
    if name == "rank 3 at s=8":
        # sigma_4..8 are zero: the Gram route cannot give orthonormal u there.
        assert len(fallbacks) == 2 and np.array_equal(fallbacks[0], h)
        _assert_same_factors(top, economy)
        return
    assert len(fallbacks) == 1
    sigma_1 = economy.sigma[0]
    assert np.abs(top.sigma - economy.sigma).max() <= 1e-14 * sigma_1
    for col in top.v.T:
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)
    assert np.abs(h @ top.v - top.u * top.sigma).max() <= beamforming.TOP_S_CHECK_TOL * sigma_1
    assert np.abs(h.conj().T @ top.u - top.v * top.sigma).max() <= beamforming.TOP_S_CHECK_TOL * sigma_1


@pytest.mark.parametrize("n, s, draws, seed", [(64, 4, 120, 5), (128, 8, 30, 17)])
def test_top_s_singular_values_agree_with_the_economy_svd_on_many_draws(monkeypatch, n, s, draws, seed):
    # The column norms of H z keep sigma within 1e-14 sigma_1 of the economy
    # SVD's.  The square roots of dstemr's eigenvalues do not: each seed holds
    # a draw where they miss by 5.4e-14 (64) and 2.6e-14 sigma_1 (128) with
    # scipy 1.17's OpenBLAS.
    rng = np.random.default_rng([n, seed])
    h = (rng.standard_normal((draws, n, n)) + 1j * rng.standard_normal((draws, n, n))) / np.sqrt(2)
    fallbacks = _economy_spy(monkeypatch)
    top = svd_ordered(h, n_streams=s)
    sigma = np.linalg.svd(h, compute_uv=False)[:, :s]
    assert (np.abs(top.sigma - sigma).max(axis=-1) <= 1e-14 * sigma[:, 0]).all()
    for scale in (2.0**400, 2.0**-400):
        assert svd_ordered(scale * h, n_streams=s).sigma.tobytes() == (scale * top.sigma).tobytes()
    assert fallbacks == []


@pytest.mark.parametrize("name", ["128x128", "wide 64x1024", "tall 1024x64", "real 128x128"])
def test_a_power_of_two_scale_leaves_the_gram_vectors_bit_for_bit(monkeypatch, name):
    h, s = _ROUTE_CASES[name]
    fallbacks = _economy_spy(monkeypatch)
    base = svd_ordered(h, n_streams=s)
    for scale in (2.0**400, 2.0**-400):
        scaled = svd_ordered(scale * h, n_streams=s)
        assert scaled.u.tobytes() == base.u.tobytes() and scaled.v.tobytes() == base.v.tobytes()
        assert scaled.sigma.tobytes() == (scale * base.sigma).tobytes()
    assert fallbacks == []


@pytest.mark.parametrize("name", [name for name in _ROUTE_CASES if name != "scale 1e150"])
def test_top_s_designs_reach_capacity_from_minus_40_to_100_db(name):
    # At scale 1e150 no float64 design meets the gate on either route: the
    # effective SNR reaches 1e300 (the envelope's open large-scale corner).
    h, s = _ROUTE_CASES[name]
    _assert_rates_reach_capacity(h, s)


def test_a_top_s_stack_is_designed_as_each_trial_alone():
    rng = np.random.default_rng(64)
    h = rng.standard_normal((4, 64, 64)) + 1j * rng.standard_normal((4, 64, 64))
    config = _config(4, 64, 64)
    assert beamforming._takes_top_s(64, 64, 4)
    stacked = design_milac(h, config)
    for t in range(4):
        alone = design_milac(h[t], config)
        for part, names in (("factors", ("u", "sigma", "v")), ("allocation", ("p",)),
                            ("tx", ("a", "core", "z")), ("rx", ("a", "core", "z"))):
            for name in names:
                mine, theirs = getattr(getattr(stacked, part), name), getattr(getattr(alone, part), name)
                assert np.array_equal(mine[t], theirs), (part, name)


# ---------------------------------------------------------------------------
# Phase repair in the synthesis

NETWORK_PARTS = ("a", "core", "z", "theta")


def _config(n_streams, n_tx, n_rx, tx_power=1.0):
    return SystemConfig(n_streams=n_streams, n_tx=n_tx, n_rx=n_rx, tx_power=tx_power, noise_power=1.0)


def _assert_reaches_capacity(h, config):
    report = run_trial(h, config)
    for rate in (report.milac_rate, report.digital_rate):
        assert np.abs(rate - report.capacity).max() <= 1e-9 * np.min(report.capacity)
    return report


def _imag_ratio(net):
    """sigma_min / sigma_max of the imaginary part of the dense unitary a network realizes."""
    sv = np.linalg.svd(net.unitary().imag, compute_uv=False)
    return sv[-1] / sv[0]


def test_design_keeps_the_svd_factors_when_they_synthesize():
    h = random_channel(5, 5, 7)
    design = design_milac(h, _config(3, 5, 5))
    factors = svd_ordered(h, n_streams=3)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(design.factors, name), getattr(factors, name))
    assert design.tx.theta == design.rx.theta == 0


@pytest.mark.parametrize(
    "n, s, draws, top_s",
    [(8, 4, 100, False), (8, 8, 100, False), (64, 4, 20, False), (64, 4, 20, True), (64, 64, 10, False),
     (128, 8, 10, False), (128, 8, 10, True)],
    ids=["8x8-s4", "8x8-s8", "64x64-s4-economy", "64x64-s4-top-s", "64x64-s64", "128x128-s8-economy",
         "128x128-s8-top-s"],
)
def test_a_real_channel_never_runs_phase_repair(monkeypatch, n, s, draws, top_s):
    # A real channel has real singular vectors, so each side's completion Q is
    # real and the network's unitary jQ has Im{jQ} = Re Q = Q, which is
    # orthogonal: the synthesis accepts every draw at theta = 0 on either SVD route.
    if top_s:
        assert beamforming._takes_top_s(n, n, s)
    else:
        monkeypatch.setattr(beamforming, "_takes_top_s", lambda n_rx, n_tx, n_streams: False)
    economy = _economy_spy(monkeypatch)
    h = np.random.default_rng([n, s]).standard_normal((draws, n, n))
    design = design_milac(h, _config(s, n, n))
    assert len(economy) == (0 if top_s else 1)
    assert not design.factors.u.imag.any() and not design.factors.v.imag.any()
    assert not design.tx.theta.any() and not design.rx.theta.any()


def test_the_kept_ensure_invertible_imag_is_the_synthesis(repair_channel):
    # Kept for perfbench's tracing: the factors as given, and the networks of _synthesize_both.
    factors = svd_ordered(repair_channel)
    config = _config(4, 4, 4)
    kept, tx, rx = ensure_invertible_imag(factors, config)
    assert kept is factors
    for mine, theirs in zip((tx, rx), beamforming._synthesize_both(factors, config)):
        for name in NETWORK_PARTS:
            assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name


@pytest.mark.parametrize("ignored", [(), (0,), (2**64 - 1,)], ids=["omitted", "zero", "2**64-1"])
def test_design_repairs_a_channel_with_a_singular_real_part(repair_channel, ignored):
    # At s = n the transmit unitary is j v_bar, and Re v_bar of this channel is
    # singular; theta* = pi/4 makes the imaginary part of e^{j theta*} j v_bar
    # perfectly conditioned.  The factors are not rotated.
    factors = svd_ordered(repair_channel)
    config = _config(4, 4, 4)
    # A third argument is ignored: the design depends on the channel alone.
    design = design_milac(repair_channel, config, *ignored)
    assert abs(design.tx.theta - np.pi / 4) <= 1e-15 and design.rx.theta == 0
    assert _imag_ratio(design.tx) >= 1.0 - 1e-12
    for name in ("u", "sigma", "v"):
        assert getattr(design.factors, name).tobytes() == getattr(factors, name).tobytes(), name
    # The realized blocks carry each side's phase: e^{j theta} j v_bar / 2 and its receive mirror.
    phase = np.exp(1j * design.tx.theta)
    assert np.abs(design.f - 0.5j * phase * factors.v).max() <= 1e-15
    assert np.abs(design.g - (-0.5j) * factors.u.conj().T).max() <= 1e-15
    rate, _ = milac_rate(design.g, repair_channel, design.f, design.allocation, 1.0, 1.0)
    capacity = capacity_closed_form(factors.sigma**2, design.allocation, 1.0, 1.0)
    assert abs(rate - capacity) <= 1e-9 * capacity


def test_factors_singular_at_every_sixteenth_turn_are_repaired_on_either_side(unrepairable_factors):
    # Re v is singular at each common phase e^{j pi m/8}; theta* = -3 pi/16 lies
    # between them, above its bound sin(pi/18) for r = 8.  As receive factors
    # (u = conj(v)) the receive synthesis sees the same columns.
    factors = unrepairable_factors
    config = _config(8, 8, 8, tx_power=(0.1, 1.0, 100.0))
    swapped = SvdFactors(u=np.conj(factors.v), sigma=factors.sigma, v=factors.u)
    tx, rx = beamforming._synthesize_both(factors, config)
    swapped_tx, swapped_rx = beamforming._synthesize_both(swapped, config)
    assert abs(tx.theta + 3 * np.pi / 16) <= 1e-14 and rx.theta == swapped_tx.theta == 0
    assert swapped_rx.theta == tx.theta
    for net in (tx, swapped_rx):
        assert _imag_ratio(net) >= np.sin(np.pi / 18)
    for h in (factors.reconstruct(), swapped.reconstruct()):
        design = _assert_reaches_capacity(h, config).design
        assert (design.tx.theta != 0) != (design.rx.theta != 0)


def test_a_diagonal_channel_designs_and_reaches_capacity(diagonal_channel):
    # diag(sigma_k e^{j(pi/2 - pi k/8)}), sigma = 8..1: every column of u is a
    # phase times a unit vector, and u_0's is purely imaginary, so Re u_bar is
    # singular at s = n; the receive side is rotated.  -10 to 30 dB.
    powers = tuple(snr_db_to_tx_power(snr_db, 1.0) for snr_db in range(-10, 31, 10))
    report = _assert_reaches_capacity(diagonal_channel(8), _config(8, 8, 8, tx_power=powers))
    assert report.design.tx.theta == 0 and report.design.rx.theta != 0
    assert _imag_ratio(report.design.rx) >= np.sin(np.pi / 18)


def _rung_two_factors():
    """8x8 factors whose transmit side is rejected at theta = 0 and repaired at 8 streams.

    As unrepairable_factors, with v = diag(e^{j(pi/2 - pi k/8)}), but k = 0, 1
    and then 1/2.
    """
    k = np.array([0.0, 1.0] + [0.5] * 6)
    return SvdFactors(u=np.eye(8), sigma=np.arange(8.0, 0.0, -1.0), v=np.diag(np.exp(1j * (np.pi / 2 - np.pi * k / 8))))


@pytest.mark.parametrize("shape, s", [((4, 4), 2), ((8, 8), 8)])
def test_a_stacked_synthesis_repairs_each_trial_as_alone(shape, s):
    singles = [svd_ordered(random_channel(*shape, seed), n_streams=s) for seed in (1, 2)]
    if s == 8:
        singles.insert(1, _rung_two_factors())
    stack = SvdFactors(*(np.stack([getattr(f, name) for f in singles]) for name in ("u", "sigma", "v")))
    config = _config(s, shape[1], shape[0])
    tx, rx = beamforming._synthesize_both(stack, config)
    assert (tx.theta != 0).tolist() == ([False, True, False] if s == 8 else [False, False])
    for t, single in enumerate(singles):
        for mine, theirs in zip((tx, rx), beamforming._synthesize_both(single, config)):
            for name in NETWORK_PARTS:
                assert getattr(mine, name)[t].tobytes() == np.asarray(getattr(theirs, name)).tobytes(), (t, name)


def test_a_repair_leaves_the_other_trials_of_its_chunk_bit_for_bit(repair_channel):
    # A stack of 16 trials of 4 x 4 links, then the same stack with trial 5
    # replaced by the repair channel: the other trials' networks keep every bit.
    rng = np.random.default_rng(22)
    h = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
    repaired = h.copy()
    repaired[5] = repair_channel
    config = _config(4, 4, 4)
    plain, mixed = design_milac(h, config), design_milac(repaired, config)
    assert not plain.tx.theta.any() and (mixed.tx.theta != 0).tolist() == [t == 5 for t in range(16)]
    others = np.arange(16) != 5
    for side in ("tx", "rx"):
        for name in NETWORK_PARTS:
            mine, theirs = getattr(getattr(mixed, side), name), getattr(getattr(plain, side), name)
            assert mine[others].tobytes() == theirs[others].tobytes(), (side, name)


def test_the_rotation_guard_shares_the_synthesis_threshold(monkeypatch):
    # At a relative threshold of 1 no matrix is invertible, for the dense
    # synthesis and for the rotated core alike.
    h = random_channel(4, 4, 3)
    factors = svd_ordered(h)
    susceptance_tx(factors.v, 2)
    design_milac(h, _config(2, 4, 4))
    monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", 1.0)
    with pytest.raises(SingularImaginaryPartError):
        susceptance_tx(factors.v, 2)
    with pytest.raises(SingularImaginaryPartError, match="after the closed-form rotation"):
        design_milac(h, _config(2, 4, 4))


def _spy_syntheses(monkeypatch):
    """Record the receive flag of every synthesis beamforming makes."""
    flags = []
    synthesize = network._synthesize_factored

    def spy(q_bar, y0, receive):
        flags.append(receive)
        return synthesize(q_bar, y0, receive)

    monkeypatch.setattr(beamforming, "_synthesize_factored", spy)
    return flags


def _assert_sides_equal_two_calls(tx, rx, factors, s):
    # The one-side calls: v_bar on the transmit side, conj(u_bar) on the receive side.
    y0 = network.DEFAULT_REF_ADMITTANCE
    alone_tx = network._synthesize_factored(factors.v[..., :s], y0, receive=False)
    alone_rx = network._synthesize_factored(np.conj(factors.u[..., :s]), y0, receive=True)
    for mine, alone in ((tx, alone_tx), (rx, alone_rx)):
        assert mine.receive is alone.receive
        for name in NETWORK_PARTS:
            assert np.array_equal(getattr(mine, name), getattr(alone, name)), name
            assert np.shape(getattr(mine, name)) == np.shape(getattr(alone, name)), name


@pytest.mark.parametrize("trials", [None, 1, 5, 16], ids=["single", "T1", "T5", "T16"])
@pytest.mark.parametrize("s", [3, 8], ids=["s3", "s8"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_square_link_synthesizes_both_sides_in_one_call_equal_to_two(monkeypatch, trials, s, real):
    rng = np.random.default_rng(7 * (trials or 0) + s)
    shape = (8, 8) if trials is None else (trials, 8, 8)
    h = rng.standard_normal(shape) + (0.0 if real else 1j) * rng.standard_normal(shape)
    factors = svd_ordered(h)
    flags = _spy_syntheses(monkeypatch)
    tx, rx = beamforming._synthesize_both(factors, _config(s, 8, 8))
    assert flags == [(False, True)]
    _assert_sides_equal_two_calls(tx, rx, factors, s)


def test_a_stack_with_a_repaired_trial_keeps_both_sides_equal_to_two_calls(monkeypatch, repair_channel):
    # design_milac synthesizes the stack once, the repaired trial included.
    rng = np.random.default_rng(5)
    h = np.stack([rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), repair_channel])
    flags = _spy_syntheses(monkeypatch)
    design = design_milac(h, _config(4, 4, 4))
    assert flags == [(False, True)]
    assert (design.tx.theta != 0).tolist() == [False, True]
    _assert_sides_equal_two_calls(design.tx, design.rx, design.factors, 4)
    # Both sides share the synthesis's stack.
    assert design.tx.core.base is design.rx.core.base is not None


@pytest.mark.parametrize(
    "shape, s", [((3, 6, 6), 2), ((6, 6), 6), ((2, 4, 9), 3), ((9, 4), 2), ((2, 9, 4), 4)],
    ids=["square_stack", "square", "wide_stack", "tall", "tall_stack"],
)
def test_the_designs_f_and_g_are_the_networks_transfer_blocks_bit_for_bit(monkeypatch, shape, s):
    # The design hands both networks to one _transfer_blocks call, built once.
    # A square link solves both sides' cores in one stacked call; any other
    # shape makes one call per side.  Within the lemma's bound no core is
    # inverted in full.  Either way f and g are what each network's own solve gives.
    h = np.random.default_rng(len(shape) * shape[-1]).standard_normal(shape) * (1.0 + 1.0j)
    h = h + np.random.default_rng(7).standard_normal(shape)
    design = design_milac(h, _config(s, shape[-1], shape[-2]))
    calls, inversions, solves = [], [], []
    blocks, inv, solve = network._transfer_blocks, np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(network, "_transfer_blocks", lambda *nets: calls.append(len(nets)) or blocks(*nets))
    monkeypatch.setattr(np.linalg, "inv", lambda c: inversions.append(len(c)) or inv(c))
    monkeypatch.setattr(np.linalg, "solve", lambda c, b: solves.append(len(c)) or solve(c, b))
    f, g = design.f, design.g
    assert design.f is f and design.g is g
    assert calls == [2]
    assert inversions == []
    assert solves == ([2] if shape[-1] == shape[-2] else [1, 1])
    assert f.tobytes() == blocks(design.tx)[0].tobytes()
    assert g.tobytes() == blocks(design.rx)[0].tobytes()
    assert f.shape == shape[:-2] + (shape[-1], s) and g.shape == shape[:-2] + (s, shape[-2])


def test_a_wide_link_synthesizes_each_side_in_its_own_call(monkeypatch):
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
    flags = _spy_syntheses(monkeypatch)
    factors = svd_ordered(h)
    tx, rx = beamforming._synthesize_both(factors, _config(2, 7, 5))
    assert flags == [False, True]
    _assert_sides_equal_two_calls(tx, rx, factors, 2)


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
        "digital": lambda: digital_design_and_rate(h, design_milac(h, config), 1.0, noise_power),
    }[rating]
    with pytest.raises(ValueError, match="noise_power must be positive and finite"):
        call()


_NOT_NORMAL = (0.0, -1.0, np.nan, np.inf, 1e-320)
# Powers with no double form: beyond the double range, a dict, complex values
# (numpy would drop a complex array's imaginary part) and a ragged list.
_BEYOND_DOUBLE = 10**400
_NOT_DOUBLES = (_BEYOND_DOUBLE, [1.0, _BEYOND_DOUBLE], {"p": 1.0}, 1 + 1j, np.array([1.0 + 1.0j]), [[1.0], [1.0, 2.0]])
# Entries appended to a vector of doubles: a negative, NaN or infinite one,
# and ones with no double form (np.append makes an object array of a dict).
_BAD_ENTRIES = (-1.0, np.nan, np.inf, _BEYOND_DOUBLE, {"p": 1.0}, 1 + 1j, np.array([1.0, "x"], dtype=object))

# Entry point -> (field its error names, values that break the field's rule).
_INPUT_RULES = {
    "water_filling": ("total_power", _NOT_NORMAL + _NOT_DOUBLES),
    "capacity_closed_form": ("total_power", _NOT_NORMAL + _NOT_DOUBLES),
    "milac_rate": ("total_power", _NOT_NORMAL + _NOT_DOUBLES),
    "digital_design_and_rate": ("total_power", _NOT_NORMAL + _NOT_DOUBLES),
    "SystemConfig.tx_power": ("tx_power", _NOT_NORMAL + _NOT_DOUBLES),
    # A sweep's point vectors must be vectors: not a scalar, None or a matrix.
    "SweepSpec.snr_points_db": ("snr_points_db", (3.0, None, np.zeros((2, 2)), {"p": 1.0}, 1 + 1j)),
    "SweepSpec.antenna_points": ("antenna_points", (8, None, np.int64(8))),
    "admittance_to_scattering": ("ref_admittance", _NOT_NORMAL),
    "scattering_to_admittance": ("ref_admittance", _NOT_NORMAL),
    "transfer_block_from_admittance": ("ref_admittance", _NOT_NORMAL),
    "susceptance_tx": ("ref_admittance", _NOT_NORMAL),
    "susceptance_rx": ("ref_admittance", _NOT_NORMAL),
    "SystemConfig.ref_admittance": ("ref_admittance", _NOT_NORMAL),
    "water_filling.eigenvalues": ("eigenvalues", _BAD_ENTRIES),
    "capacity_closed_form.eigenvalues": ("eigenvalues", _BAD_ENTRIES),
    "PowerAllocation.p": ("stream powers", _BAD_ENTRIES),
    # True is an int to Python, but no count.
    "PortPartition.n_inputs": ("n_inputs", (2.5, True)),
    "PortPartition.n_outputs": ("n_outputs", (2.5, True)),
    "susceptance_tx.n_streams": ("n_streams", (2.5, True)),
    "susceptance_rx.n_streams": ("n_streams", (2.5, True)),
    "svd_ordered.n_streams": ("n_streams", (2.5, True)),
    # An array with a NaN or inf entry is a NonFiniteInputError naming it.
    "milac_rate.g": ("combiner g", (np.nan, np.inf)),
    "milac_rate.h": ("channel matrix", (np.nan, np.inf)),
    "milac_rate.f": ("precoder f", (np.nan, np.inf)),
    "digital_design_and_rate.h": ("channel matrix", (np.nan, np.inf)),
}
_ARRAYS = ("combiner g", "channel matrix", "precoder f")


def _spoiled(x, value):
    x = x.copy()
    x[0, 1] = value
    return x


@pytest.mark.parametrize(
    "entry, value",
    [(entry, value) for entry, (_, values) in _INPUT_RULES.items() for value in values],
    # 10**400 by name, not by its 401 digits.
    ids=lambda value: "beyond-double" if value is _BEYOND_DOUBLE else None,
)
def test_entry_points_reject_values_that_break_the_input_rules(entry, value):
    h = random_channel(3, 3, 5)
    config = _config(2, 3, 3)
    design = design_milac(h, config)
    f, g, alloc = _circuit_blocks(h, config, seed=0)
    lam = design.factors.sigma[:2] ** 2
    # The dense syntheses take square unitaries: the economy factors of the square channel.
    economy = svd_ordered(h)
    v, u = economy.v, economy.u
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
        "SystemConfig.ref_admittance": lambda x: SystemConfig(2, 3, 3, 1.0, 1.0, ref_admittance=x),
        "SystemConfig.tx_power": lambda x: SystemConfig(2, 3, 3, x, 1.0),
        "SweepSpec.snr_points_db": lambda x: SweepSpec("snr_sweep", snr_points_db=x, antenna_points=(4,), n_streams=2),
        "SweepSpec.antenna_points": lambda x: SweepSpec("snr_sweep", snr_points_db=(0.0,), antenna_points=x, n_streams=2),
        "water_filling.eigenvalues": lambda x: water_filling(np.append(lam, x), 1.0, 1.0),
        "capacity_closed_form.eigenvalues": lambda x: capacity_closed_form(np.append(lam[:1], x), alloc, 1.0, 1.0),
        "PowerAllocation.p": lambda x: PowerAllocation(np.append([0.5], x), 1.0),
        "PortPartition.n_inputs": lambda x: PortPartition(x, 3),
        "PortPartition.n_outputs": lambda x: PortPartition(2, x),
        "susceptance_tx.n_streams": lambda x: susceptance_tx(v, x),
        "susceptance_rx.n_streams": lambda x: susceptance_rx(u, x),
        "svd_ordered.n_streams": lambda x: svd_ordered(h, x),
        "milac_rate.g": lambda x: milac_rate(_spoiled(g, x), h, f, alloc, 1.0, 1.0),
        "milac_rate.h": lambda x: milac_rate(g, _spoiled(h, x), f, alloc, 1.0, 1.0),
        "milac_rate.f": lambda x: milac_rate(g, h, _spoiled(f, x), alloc, 1.0, 1.0),
        # At 3 streams eigvalsh raises LinAlgError on a NaN Gram form; at 2 it returns NaN.
        "digital_design_and_rate.h": lambda x: digital_design_and_rate(
            _spoiled(h, x), design_milac(h, _config(3, 3, 3)), 1.0, 1.0
        ),
    }[entry]
    field = _INPUT_RULES[entry][0]
    if field in _ARRAYS:
        error, rule = NonFiniteInputError, "contains NaN or infinite entries"
    else:
        error, rule = ValueError, "must be"
    with pytest.raises(error, match=f"{field} {rule}"):
        call(value)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", _NOT_NORMAL)
@pytest.mark.parametrize("entry", ["water_filling", "capacity_closed_form", "milac_rate", "digital_design_and_rate"])
def test_a_power_vector_is_rejected_wherever_its_bad_power_sits(entry, value, position):
    h = random_channel(3, 3, 5)
    design = design_milac(h, SystemConfig(n_streams=2, n_tx=3, n_rx=3, tx_power=(1.0, 2.0, 4.0), noise_power=1.0))
    f, g, alloc = design.f, design.g, design.allocation
    lam = design.factors.sigma[:2] ** 2
    powers = np.array([1.0, 2.0, 4.0])
    powers[position] = value
    call = {
        "water_filling": lambda: water_filling(lam, powers, 1.0),
        "capacity_closed_form": lambda: capacity_closed_form(lam, alloc, powers, 1.0),
        "milac_rate": lambda: milac_rate(g, h, f, alloc, powers, 1.0),
        "digital_design_and_rate": lambda: digital_design_and_rate(h, design, powers, 1.0),
    }[entry]
    with pytest.raises(ValueError, match="total_power must be"):
        call()


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
    with pytest.raises(DimensionMismatchError, match="must be matrices"):
        milac_rate(np.ones(2), np.eye(2), np.eye(2), alloc, 1.0, 1.0)


def _circuit_blocks(h, config, seed):
    """Precoder/combiner transfer blocks realized through admittance solves."""
    b_tx, b_rx, alloc = design_milac(h, config)
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
    design = design_milac(h, config)
    b_tx, b_rx, alloc = design
    assert b_tx is design.b_tx and b_rx is design.b_rx and alloc is design.allocation
    assert np.array_equal(design.factors.sigma, svd_ordered(h, n_streams=2).sigma)


def test_design_rejects_mismatched_channel_shape():
    config = SystemConfig(n_streams=1, n_tx=3, n_rx=2, tx_power=1.0, noise_power=1.0)
    with pytest.raises(DimensionMismatchError):
        design_milac(np.eye(3), config)


def test_design_rate_monotone_in_transmit_power():
    h = random_channel(4, 4, 55)
    rates = []
    for power in (0.1, 1.0, 10.0, 100.0):
        config = SystemConfig(n_streams=2, n_tx=4, n_rx=4, tx_power=power, noise_power=1.0)
        f, g, alloc = _circuit_blocks(h, config, seed=2)
        rate, _ = milac_rate(g, h, f, alloc, config.tx_power, config.noise_power)
        rates.append(rate)
    assert np.all(np.diff(rates) > 0)


# ---------------------------------------------------------------------------
# digital benchmark


def test_digital_single_stream_closed_form():
    h = np.diag([3.0, 1.0]).astype(complex)
    config = SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=2.0, noise_power=0.5)
    w, rate = digital_design_and_rate(
        h, design_milac(h, config), config.tx_power, config.noise_power
    )
    assert w.shape == (2, 1)
    assert abs(rate - np.log2(1.0 + 2.0 * 9.0 / (4.0 * 0.5))) <= 1e-12


def test_digital_rejects_a_design_for_another_config():
    # A 3x3 design rated on a 4x3 channel, or at two powers with one allocation.
    h = random_channel(3, 3, 5)
    config = SystemConfig(n_streams=1, n_tx=3, n_rx=3, tx_power=1.0, noise_power=1.0)
    design = design_milac(h, config)
    with pytest.raises(DimensionMismatchError):
        digital_design_and_rate(random_channel(4, 3, 5), design, 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        digital_design_and_rate(h, design, np.array([1.0, 2.0]), 1.0)


def test_digital_scaled_unitary_uses_uniform_allocation():
    h = 2.0 * np.eye(4)
    config = SystemConfig(n_streams=4, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
    w, rate = digital_design_and_rate(
        h, design_milac(h, config), config.tx_power, config.noise_power
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
            h, design_milac(h, config), config.tx_power, config.noise_power
        )
        assert abs(np.linalg.norm(w) ** 2 - 1.0) <= 1e-12


def test_digital_rate_equals_eigenvalue_capacity():
    for seed in range(20):
        h = random_channel(4, 4, 600 + seed)
        config = SystemConfig(n_streams=3, n_tx=4, n_rx=4, tx_power=6.0, noise_power=1.0)
        _, rate = digital_design_and_rate(
            h, design_milac(h, config), config.tx_power, config.noise_power
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
            h, design_milac(h, config), config.tx_power, config.noise_power
        )
        assert abs(analog - digital) <= 1e-9 * max(1.0, digital)


@pytest.mark.parametrize("scale, streams_on_at_100_db", [(1.0, 3), (1e-150, 1)])
def test_rating_a_vector_of_powers_equals_rating_each_power_alone(scale, streams_on_at_100_db):
    # One call over 29 powers from -40 to 100 dB rates each point bit for bit
    # as a one-point call does, including points that switch streams off.
    h = scale * random_channel(4, 4, 21)
    config = SystemConfig(n_streams=3, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
    f, g, _ = _circuit_blocks(h, config, seed=0)
    design = design_milac(h, config)
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


@pytest.mark.parametrize("n, s", [(64, 4), (8, 2)], ids=["top-s", "economy"])
def test_digital_rate_of_a_stack_at_each_power_is_its_own_call_and_its_log_det(n, s):
    # 3 channels x 5 powers from 0 to 20 dB in one call: each (trial, power) is
    # bit for bit its single-channel, single-power call, and its rate is the
    # log-det of I + c H W W^H H^H.
    powers = tuple(snr_db_to_tx_power(snr_db, 1.0) for snr_db in range(0, 21, 5))
    stack = np.stack([random_channel(n, n, 900 + t) for t in range(3)])
    w, rates = digital_design_and_rate(stack, design_milac(stack, _config(s, n, n, powers)), powers, 1.0)
    assert w.shape == (3, 5, n, s) and rates.shape == (3, 5)
    for t, h in enumerate(stack):
        for k, power in enumerate(powers):
            w_alone, rate = digital_design_and_rate(h, design_milac(h, _config(s, n, n, power)), power, 1.0)
            assert rates[t, k] == rate and w[t, k].tobytes() == w_alone.tobytes()
            hw = h @ w_alone
            _, log_det = np.linalg.slogdet(np.eye(n) + power / 4.0 * hw @ hw.conj().T)
            assert abs(rate - log_det / np.log(2.0)) <= 1e-12 * rate


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
    # A bad power first, in the middle or last; the vector's extremes decide,
    # and numpy's min and max pass a NaN through where Python's would drop it.
    for value in (0.0, np.nan, np.inf, 1e-310):
        for at in range(3):
            bad = [1.0, 2.0, 3.0]
            bad[at] = value
            with pytest.raises(ValueError, match="tx_power must be positive and finite"):
                SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=bad, noise_power=1.0)


def test_power_allocation_rejects_negative():
    with pytest.raises(ValueError):
        PowerAllocation(p=np.array([0.5, -0.1]), water_level=1.0)
    with pytest.raises(DimensionMismatchError, match="must be a vector"):
        PowerAllocation(p=np.array(1.0), water_level=1.0)
