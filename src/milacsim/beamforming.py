"""Closed-form globally optimal beamforming designs for point-to-point MIMO links.

Given a channel matrix H with singular value decomposition H = U S V^H,
the transmit network realizes the leading right singular vectors (scaled
by j/2) and the receive network the conjugated leading left singular
vectors (scaled by -j/2), so that the cascade diagonalizes the channel.
Only those s columns are fixed; each side's unitary is completed from
them by one Householder QR, so a design costs O(n^2 s) at n antennas.
Power is then water-filled over the per-stream channel eigenvalues.  The
resulting link rate equals the water-filling capacity of the matched
digital benchmark, which is also computed here in closed form.

The factor 4 that appears in the rate expressions is the two-sided
insertion loss of source and load voltage division (amplitude 1/2 at
each side); it cancels out of none of the formulas and is kept explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    AllZeroEigenvaluesError,
    DimensionMismatchError,
    NonFiniteInputError,
    PhaseSearchExhaustedError,
    RateFormMismatchError,
    SingularImaginaryPartError,
    ZeroCombinerRowError,
    _check_integers,
    _check_positive_finite,
)
from .network import (
    DEFAULT_REF_ADMITTANCE,
    SusceptanceMatrix,
    _FactoredSusceptance,
    _synthesize_factored,
    # The dense reference syntheses stay reachable here: perfbench traces them by this module.
    susceptance_rx,  # noqa: F401
    susceptance_tx,  # noqa: F401
)

# Two-sided matched source/load voltage division factor in the rate formulas.
DEFAULT_QUARTER_FACTOR = 4.0

# Attempt budget of the random phase search in ensure_invertible_imag; the
# only repair budget, so an exhausted search fails the trial.
DEFAULT_PHASE_ATTEMPTS = 32

# Internal consistency tolerance between the raw and row-normalized rate forms.
RATE_FORM_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one point-to-point link.

    Attributes:
        n_streams: number of spatial streams (symbol ports per side).
        n_tx: transmit antenna count.
        n_rx: receive antenna count.
        tx_power: total transmit power constraint, linear scale: one power
            (stored as a float), or a nonempty vector of K powers (stored as
            a tuple) at which one design is rated.
        noise_power: per-antenna noise power, linear scale.
        ref_admittance: reference admittance of the beamforming networks.
    """

    n_streams: int
    n_tx: int
    n_rx: int
    tx_power: float | tuple[float, ...]
    noise_power: float
    ref_admittance: float = DEFAULT_REF_ADMITTANCE

    def __post_init__(self):
        _check_integers(n_streams=self.n_streams, n_tx=self.n_tx, n_rx=self.n_rx)
        if self.n_streams < 1 or self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("stream and antenna counts must be at least 1")
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ValueError(
                f"n_streams={self.n_streams} exceeds min(n_tx, n_rx)="
                f"{min(self.n_tx, self.n_rx)}"
            )
        _check_positive_finite(noise_power=self.noise_power, ref_admittance=self.ref_admittance)
        if np.ndim(self.tx_power) > 1 or np.size(self.tx_power) == 0:
            raise ValueError("tx_power must be one power or a nonempty vector of powers")
        powers = tuple(float(p) for p in np.ravel(self.tx_power))
        for power in powers:
            _check_positive_finite(tx_power=power)
        object.__setattr__(self, "tx_power", powers if np.ndim(self.tx_power) else powers[0])


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Economy singular value decomposition H = u diag(sigma) v^H (ordered).

    With k = min(n_rx, n_tx), u is n_rx x k, v is n_tx x k and sigma holds
    the k singular values in descending order.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=float)
        if u.ndim != 2 or v.ndim != 2 or sigma.ndim != 1:
            raise DimensionMismatchError("u and v must be matrices and sigma a vector")
        k = min(u.shape[0], v.shape[0])
        if not u.shape[1] == v.shape[1] == sigma.shape[0] == k:
            raise DimensionMismatchError(
                f"u {u.shape}, sigma {sigma.shape} and v {v.shape} are not an economy SVD"
            )
        # NaN fails the first test, so no check passes vacuously.
        if not ((sigma >= 0) & (sigma < np.inf)).all() or np.any(np.diff(sigma) > 0):
            raise ValueError("singular values must be nonnegative, finite and descending")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the channel matrix from the factors."""
        return (self.u * self.sigma) @ self.v.conj().T


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-stream power fractions (summing to one) and the water level.

    At one transmit power p is a vector and water_level a float; at K powers
    p is (K, n_streams) and water_level holds the K levels.
    """

    p: np.ndarray
    water_level: float | np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim not in (1, 2):
            raise DimensionMismatchError("power allocation must be a vector, or one vector per power")
        if not ((p >= 0) & (p < np.inf)).all():
            raise ValueError("stream powers must be nonnegative and finite")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class Design:
    """Closed-form design of one link, built from a single SVD of its channel.

    Attributes:
        factors: ordered economy SVD after phase repair; its leading columns
            are the singular vectors both networks realize and the digital
            precoder uses.
        allocation: water-filling fractions over the leading eigenvalues.
        tx: transmit network in factored form; it realizes V = j Q', the
            Householder completion of v_bar, and tx.unitary() is the dense V.
        rx: receive network in factored form; rx.unitary() is the dense U,
            whose leading columns are j u_bar.
        b_tx, b_rx: the dense susceptance matrices, built from tx and rx in
            O(n^2 s) on first access.
    """

    factors: SvdFactors
    allocation: PowerAllocation
    tx: _FactoredSusceptance
    rx: _FactoredSusceptance

    @cached_property
    def b_tx(self) -> SusceptanceMatrix:
        return self.tx.dense()

    @cached_property
    def b_rx(self) -> SusceptanceMatrix:
        return self.rx.dense()

    def __iter__(self):
        # perfbench's drive_link unpacks (b_tx, b_rx, allocation); drop once it reads attributes.
        return iter((self.b_tx, self.b_rx, self.allocation))


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-trial record of the analog rate, digital benchmark, and capacity,
    with the design and its circuit-realized precoder f and combiner g.  At K
    transmit powers the rates are K-vectors and per_stream_sinr is (K, n_streams).
    """

    milac_rate: float
    digital_rate: float
    capacity: float
    per_stream_sinr: np.ndarray
    design: Design
    f: np.ndarray
    g: np.ndarray


def svd_ordered(h) -> SvdFactors:
    """Economy SVD with descending singular values and a fixed phase convention.

    Each column of v is rotated so that its largest-modulus entry is real
    and positive; the paired column of u gets the same rotation, which
    leaves the reconstruction u diag(sigma) v^H unchanged.

    Raises:
        NonFiniteInputError: if h contains NaN or infinite entries.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise DimensionMismatchError(f"channel matrix must be 2-D, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise NonFiniteInputError("channel matrix contains NaN or infinite entries")
    u, sigma, vh = np.linalg.svd(h, full_matrices=False)
    v = vh.conj().T
    entries = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mags = np.abs(entries)
    phases = np.where(mags > 0, entries / np.where(mags > 0, mags, 1.0), 1.0).conj()
    return SvdFactors(u=u * phases, sigma=sigma, v=v * phases)


def _check_seed(rng_seed) -> None:
    """Raise ValueError naming rng_seed unless it is a nonnegative integer."""
    _check_integers(rng_seed=rng_seed)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be nonnegative, got {rng_seed}")


def ensure_invertible_imag(factors: SvdFactors, config: SystemConfig, rng_seed) -> tuple:
    """Phase-rotate SVD factors until both susceptance syntheses succeed.

    Returns (rotated factors, tx, rx) of the first seeded draw that
    synthesizes, with the factored networks of design_milac; the synthesis
    is the only invertibility test, and design_milac calls this only after
    it rejected the factors themselves.  A draw applies random common phases
    to the paired columns of u and v, which preserves the reconstruction.

    Args:
        factors: decomposition to repair.
        config: link parameters of the synthesis.
        rng_seed: nonnegative integer seed for the deterministic phase draws.

    Raises:
        PhaseSearchExhaustedError: if none of DEFAULT_PHASE_ATTEMPTS draws does.
        ValueError: if rng_seed is not a nonnegative integer.
    """
    _check_seed(rng_seed)
    rng = np.random.default_rng(rng_seed)
    for _ in range(DEFAULT_PHASE_ATTEMPTS):
        phase = np.exp(2j * np.pi * rng.random(factors.sigma.shape[0]))
        rotated = SvdFactors(u=factors.u * phase, sigma=factors.sigma, v=factors.v * phase)
        try:
            return (rotated, *_synthesize_both(rotated, config))
        except SingularImaginaryPartError:
            pass
    raise PhaseSearchExhaustedError(
        f"no phase rotation made Im{{v}} and Im{{u}} invertible "
        f"within {DEFAULT_PHASE_ATTEMPTS} attempts"
    )


def water_filling(eigenvalues, total_power, noise_power: float) -> PowerAllocation:
    """Water-filling power fractions over per-stream channel eigenvalues.

    With q = DEFAULT_QUARTER_FACTOR, the insertion factor of the matched
    circuits, solves max sum_s log2(1 + total_power * p_s * lam_s / (q *
    noise_power)) subject to sum p_s = 1, p_s >= 0, by the exact sort-based
    active-set method: with floors a_s = q * noise_power / (total_power *
    lam_s), the water level is mu = (1 + sum of active floors) / |active
    set|, and p_s = max(0, mu - a_s).

    Args:
        eigenvalues: nonnegative per-stream channel eigenvalues.
        total_power: total transmit power, linear scale; a vector of K powers
            gives one allocation per power, each computed exactly as alone.
        noise_power: noise power, linear scale.

    Returns:
        PowerAllocation with fractions summing to one (per power).

    Raises:
        AllZeroEigenvaluesError: if, at some power, every eigenvalue is zero
            or so small that its floor overflows.
        ValueError: if a power or noise_power is not a positive, finite and
            normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise DimensionMismatchError("eigenvalues must form a nonempty vector")
    if not ((lam >= 0) & (lam < np.inf)).all():
        raise ValueError("eigenvalues must be nonnegative and finite")
    power = np.asarray(total_power, dtype=float)
    if power.ndim > 1:
        raise DimensionMismatchError("total_power must be a scalar or a vector of powers")
    for each in power.ravel().tolist():
        _check_positive_finite(total_power=each)
    with np.errstate(divide="ignore", over="ignore"):
        floors = np.where(lam > 0, DEFAULT_QUARTER_FACTOR * noise_power / (power[..., None] * lam), np.inf)
    a_min = floors.min(axis=-1, keepdims=True)
    if not (a_min < np.inf).all():
        raise AllZeroEigenvaluesError("all channel eigenvalues are zero or too weak to water-fill")
    # Search on the floors above the lowest one: on weak channels a_min can
    # exceed 2**53, where 1 + a_min == a_min would disqualify every candidate.
    excess = floors - a_min
    sorted_excess = np.sort(excess, axis=-1)
    # Level of the m smallest floors, m = 1..n; an infinite floor never qualifies.
    levels = (1.0 + np.cumsum(sorted_excess, axis=-1)) / np.arange(1, lam.shape[0] + 1)
    # The active set is the largest qualifying m; m = 1 always qualifies
    # (level 1 > excess 0).
    qualifies = levels > sorted_excess
    m = lam.shape[0] - np.argmax(qualifies[..., ::-1], axis=-1, keepdims=True)
    level = np.take_along_axis(levels, m - 1, axis=-1)
    p = np.maximum(0.0, level - excess)
    return PowerAllocation(p=p, water_level=_per_power((a_min + level)[..., 0]))


def _per_power(values):
    """A float for a single power, else the array of per-power values."""
    return float(values) if np.ndim(values) == 0 else values


def _power_axis(allocation: PowerAllocation, total_power) -> np.ndarray:
    """total_power with a trailing stream axis, one power per row of allocation.p;
    each power must be a positive, finite and normal double."""
    power = np.asarray(total_power, dtype=float)
    if power.shape != allocation.p.shape[:-1]:
        raise DimensionMismatchError(
            f"allocation {allocation.p.shape} does not hold one row per power {power.shape}"
        )
    for each in power.ravel().tolist():
        _check_positive_finite(total_power=each)
    return power[..., None]


def capacity_closed_form(
    eigenvalues, allocation: PowerAllocation, total_power, noise_power: float
) -> float | np.ndarray:
    """Closed-form rate sum_s log2(1 + total_power p_s lam_s / (q noise_power)).

    q = DEFAULT_QUARTER_FACTOR is the matched-circuit insertion factor; with
    the water-filling allocation this is the capacity of the link.  A float
    for one power; for a vector of K powers (allocation.p of shape
    (K, n_streams)) the K rates.

    Raises:
        ValueError: if a power or noise_power is not a positive, finite and
            normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    lam = np.asarray(eigenvalues, dtype=float)
    p = allocation.p
    if lam.shape != p.shape[-1:]:
        raise DimensionMismatchError(
            f"eigenvalues {lam.shape} and allocation {p.shape} differ in length"
        )
    snr = _power_axis(allocation, total_power) * p * lam / (DEFAULT_QUARTER_FACTOR * noise_power)
    return _per_power(np.log1p(snr).sum(axis=-1) / np.log(2.0))


def milac_rate(
    g,
    h,
    f,
    allocation: PowerAllocation,
    total_power,
    noise_power: float,
) -> tuple:
    """Achievable rate of an analog design through its effective channel G H F.

    Per stream s, with E = G H F,

        sinr_s = P p_s |E[s,s]|^2 /
                 (P sum_{t != s} p_t |E[s,t]|^2 + ||G[s,:]||^2 noise_power)

    and the rate is sum_s log2(1 + sinr_s).  The same value is recomputed
    with every row of G normalized to unit norm (noise scaling absorbed into
    the row) and both forms are required to agree, which guards the
    implementation against inconsistent normalization.

    E, the row powers and the normalized E do not depend on the power, so a
    vector of K powers (allocation.p of shape (K, n_streams)) is rated from
    one E, each point exactly as alone.

    Args:
        g: receive combining block (n_streams x n_rx).
        h: channel matrix (n_rx x n_tx).
        f: transmit precoding block (n_tx x n_streams).
        allocation: per-stream power fractions.
        total_power: total transmit power, linear scale, or a vector of K.
        noise_power: per-antenna noise power, linear scale.

    Returns:
        Tuple of (rate in bits per channel use, per-stream SINR vector); at K
        powers, the K rates and the (K, n_streams) SINRs.

    Raises:
        ZeroCombinerRowError: if a row of g is identically zero.
        DimensionMismatchError: if the operand shapes are inconsistent.
        RateFormMismatchError: if the raw and row-normalized rates of a point
            disagree beyond RATE_FORM_CHECK_TOL; the message gives the first
            such point's two rates.
        ValueError: if a power or noise_power is not a positive, finite and
            normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    p = allocation.p
    n_streams = p.shape[-1]
    if g.shape[0] != n_streams or f.shape[1] != n_streams:
        raise DimensionMismatchError("g rows and f columns must match the stream count")
    if g.shape[1] != h.shape[0] or h.shape[1] != f.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes g {g.shape}, h {h.shape}, f {f.shape}"
        )
    power = _power_axis(allocation, total_power)
    row_power = np.sum(np.abs(g) ** 2, axis=1)
    if (row_power == 0.0).any():
        raise ZeroCombinerRowError("a combining row of g is identically zero")

    effective = g @ h @ f
    sinr = _per_stream_sinr(effective, row_power, p, power, noise_power)
    rate = np.log1p(sinr).sum(axis=-1) / np.log(2.0)

    # Row-normalized form: divide each combining row by its norm, which scales
    # the noise identically; the rate must not change.
    normalized = effective / np.sqrt(row_power)[:, None]
    sinr_norm = _per_stream_sinr(normalized, np.ones(n_streams), p, power, noise_power)
    rate_norm = np.log1p(sinr_norm).sum(axis=-1) / np.log(2.0)
    agree = np.abs(rate - rate_norm) <= RATE_FORM_CHECK_TOL * np.maximum(1.0, np.abs(rate))
    if not agree.all():
        k = np.argmin(np.ravel(agree))
        raise RateFormMismatchError(
            f"rate forms disagree: {float(np.ravel(rate)[k])!r} vs {float(np.ravel(rate_norm)[k])!r}"
        )
    return _per_power(rate), sinr


def _per_stream_sinr(effective, row_power, p, power, noise_power) -> np.ndarray:
    """SINR of each stream (last axis) for an effective channel and combining
    row powers, at the powers `power` (one per row of p, trailing axis 1)."""
    abs_sq = np.abs(effective) ** 2
    signal = power * p * abs_sq.diagonal()
    # Sum the interference over t != s directly: subtracting the signal from
    # the full row sum cancels it at high SNR.  The denominator is then at
    # least row_power * noise_power > 0.
    cross = abs_sq.copy()
    np.fill_diagonal(cross, 0.0)
    interference = power * (p[..., None, :] * cross).sum(axis=-1)
    return signal / (interference + row_power * noise_power)


def design_milac(h, config: SystemConfig, rng_seed) -> Design:
    """Globally optimal transmit/receive susceptance design for a channel.

    Pipeline: ordered economy SVD of the channel, closed-form susceptance
    synthesis on each side, and water-filling over the leading n_streams
    eigenvalues.  Each side's unitary is the Householder completion of its
    leading singular vectors times j, and its network is kept in factored
    form, so a design costs O(n^2 s) rather than O(n^3).  Only when the
    synthesis rejects Im{V} or Im{U} as singular are the factors
    phase-repaired, keeping the networks of the accepted draw.
    Only the water-filling depends on the power: at K powers (a vector
    config.tx_power) one call allocates all K, each row as at that power alone.

    Args:
        h: channel matrix (n_rx x n_tx) matching config.
        config: link parameters.
        rng_seed: nonnegative integer seed of the phase repair's random search.

    Returns:
        Design holding the repaired factors, the power allocation (one row
        per power at K powers) and both networks; it unpacks as (b_tx, b_rx,
        allocation), which builds the dense susceptance matrices.

    Raises:
        ValueError: if rng_seed is not a nonnegative integer, checked whether
            or not the repair runs.
    """
    _check_seed(rng_seed)
    h = np.asarray(h, dtype=complex)
    if h.shape != (config.n_rx, config.n_tx):
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match config ({config.n_rx}, {config.n_tx})"
        )
    factors = svd_ordered(h)
    try:
        tx, rx = _synthesize_both(factors, config)
    except SingularImaginaryPartError:
        factors, tx, rx = ensure_invertible_imag(factors, config, rng_seed)
    lam = factors.sigma[: config.n_streams] ** 2
    allocation = water_filling(lam, config.tx_power, config.noise_power)
    return Design(factors, allocation, tx, rx)


def _synthesize_both(factors: SvdFactors, config: SystemConfig):
    """Factored transmit and receive networks of the factors' leading columns."""
    s, y0 = config.n_streams, config.ref_admittance
    tx = _synthesize_factored(factors.v[:, :s], y0, receive=False)
    rx = _synthesize_factored(np.conj(factors.u[:, :s]), y0, receive=True)
    return tx, rx


def digital_design_and_rate(h, design: Design, total_power, noise_power: float) -> tuple:
    """Optimal fully digital precoder on a design's factors and its achievable rate.

    The precoder is W = v_bar diag(sqrt(p)) with v_bar the leading n_streams
    columns of design.factors.v and p the design's water-filling fractions,
    so ||W||_F^2 = 1.  Phase repair rotates the columns of v but leaves the
    singular values, and hence p and the rate, unchanged.  The rate is

        log2 det(I + total_power / (DEFAULT_QUARTER_FACTOR * noise_power) * H W W^H H^H)

    evaluated on the n_streams x n_streams Gram form as a sum of log1p over
    its eigenvalues, which keeps the digits of weak channels where
    I + Gram rounds to I.  For a vector of K powers (design.allocation.p of
    shape (K, n_streams)) the K Gram forms are diagonalized in one stacked call.

    Returns:
        Tuple (precoder W of shape (n_tx, n_streams), rate in bits per
        channel use); at K powers, the (K, n_tx, n_streams) precoders and the
        K rates.

    Raises:
        DimensionMismatchError: if h is not the design's channel shape, or the
            allocation does not hold one row per power.
        ValueError: if a power or noise_power is not a positive, finite and
            normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    h = np.asarray(h, dtype=complex)
    factors = design.factors
    if h.shape != (factors.u.shape[0], factors.v.shape[0]):
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match the design's "
            f"({factors.u.shape[0]}, {factors.v.shape[0]})"
        )
    p = design.allocation.p
    power = _power_axis(design.allocation, total_power)
    v_bar = factors.v[:, : p.shape[-1]]
    scale = np.sqrt(p)[..., None, :]
    w = v_bar * scale
    a = (h @ v_bar) * scale
    # Power before noise, as in capacity_closed_form: power / noise_power can overflow.
    gram = power[..., None] * (a.conj().swapaxes(-1, -2) @ a) / (DEFAULT_QUARTER_FACTOR * noise_power)
    # Round-off can leave a Gram eigenvalue slightly negative.
    eig = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return w, _per_power(np.log1p(eig).sum(axis=-1) / np.log(2.0))
