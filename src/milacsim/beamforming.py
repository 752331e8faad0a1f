"""Closed-form globally optimal beamforming designs for point-to-point MIMO links.

Given a channel matrix H with singular value decomposition H = U S V^H,
the transmit network realizes the leading right singular vectors (scaled
by 1/2) and the receive network the conjugated leading left singular
vectors, so that the cascade diagonalizes the channel.  Power is then
water-filled over the per-stream channel eigenvalues.  The resulting
link rate equals the water-filling capacity of the matched digital
benchmark, which is also computed here in closed form.

The factor 4 that appears in the rate expressions is the two-sided
insertion loss of source and load voltage division (amplitude 1/2 at
each side); it cancels out of none of the formulas and is kept explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AllZeroEigenvaluesError,
    DimensionMismatchError,
    NonFiniteInputError,
    PhaseSearchExhaustedError,
    RateFormMismatchError,
    SingularImaginaryPartError,
    ZeroCombinerRowError,
)
from .network import (
    DEFAULT_REF_ADMITTANCE,
    SusceptanceMatrix,
    _imag_part_inverse,
    susceptance_rx,
    susceptance_tx,
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
        tx_power: total transmit power constraint, linear scale.
        noise_power: per-antenna noise power, linear scale.
        ref_admittance: reference admittance of the beamforming networks.
    """

    n_streams: int
    n_tx: int
    n_rx: int
    tx_power: float
    noise_power: float
    ref_admittance: float = DEFAULT_REF_ADMITTANCE

    def __post_init__(self):
        if self.n_streams < 1 or self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("stream and antenna counts must be at least 1")
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ValueError(
                f"n_streams={self.n_streams} exceeds min(n_tx, n_rx)="
                f"{min(self.n_tx, self.n_rx)}"
            )
        _check_positive_finite(self, "tx_power", "noise_power", "ref_admittance")


def _check_positive_finite(record, *names: str) -> None:
    """Raise ValueError naming the first of record's fields that is not positive and finite."""
    for name in names:
        value = getattr(record, name)
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Full singular value decomposition H = u diag(sigma) v^H (ordered).

    u is n_rx x n_rx, v is n_tx x n_tx, sigma holds min(n_rx, n_tx)
    singular values in descending order.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatchError("u must be square")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatchError("v must be square")
        if sigma.ndim != 1 or sigma.shape[0] != min(u.shape[0], v.shape[0]):
            raise DimensionMismatchError("sigma must hold min(n_rx, n_tx) values")
        if np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
            raise ValueError("singular values must be nonnegative and descending")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the channel matrix from the factors."""
        k = self.sigma.shape[0]
        return (self.u[:, :k] * self.sigma) @ self.v[:, :k].conj().T


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-stream power fractions (summing to one) and the water level."""

    p: np.ndarray
    water_level: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise DimensionMismatchError("power allocation must be a vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("stream powers must be nonnegative and finite")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class Design:
    """Closed-form design of one link, built from a single SVD of its channel.

    Attributes:
        factors: ordered SVD after phase repair; its leading columns are the
            singular vectors both networks realize and the digital precoder uses.
        allocation: water-filling fractions over the leading eigenvalues.
        b_tx: transmit susceptance matrix.
        b_rx: receive susceptance matrix.
    """

    factors: SvdFactors
    allocation: PowerAllocation
    b_tx: SusceptanceMatrix
    b_rx: SusceptanceMatrix

    def __iter__(self):
        # perfbench's drive_link unpacks (b_tx, b_rx, allocation); drop once it reads attributes.
        return iter((self.b_tx, self.b_rx, self.allocation))


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-trial record of the analog rate, digital benchmark, and capacity,
    with the design and its circuit-realized precoder f and combiner g."""

    milac_rate: float
    digital_rate: float
    capacity: float
    per_stream_sinr: np.ndarray
    design: Design
    f: np.ndarray
    g: np.ndarray


def svd_ordered(h) -> SvdFactors:
    """Full SVD with descending singular values and a fixed phase convention.

    Each column of v is rotated so that its largest-modulus entry is real
    and positive; the paired column of u gets the same rotation, which
    leaves the reconstruction u diag(sigma) v^H unchanged.  Trailing
    null-space columns of u are phase-fixed independently by the same rule.

    Raises:
        NonFiniteInputError: if h contains NaN or infinite entries.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise DimensionMismatchError(f"channel matrix must be 2-D, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise NonFiniteInputError("channel matrix contains NaN or infinite entries")
    u, sigma, vh = np.linalg.svd(h, full_matrices=True)
    v = vh.conj().T
    k = sigma.shape[0]
    v, phases = _phase_fix_columns(v)
    u[:, :k] = u[:, :k] * phases[:k].conj()
    if u.shape[1] > k:
        u_tail, _ = _phase_fix_columns(u[:, k:])
        u = np.hstack([u[:, :k], u_tail])
    return SvdFactors(u=u, sigma=sigma, v=v)


def _phase_fix_columns(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column so its largest-modulus entry is real positive."""
    pivots = np.argmax(np.abs(q), axis=0)
    cols = np.arange(q.shape[1])
    entries = q[pivots, cols]
    mags = np.abs(entries)
    phases = np.where(mags > 0, entries / np.where(mags > 0, mags, 1.0), 1.0)
    return q * phases.conj(), phases


def ensure_invertible_imag(factors: SvdFactors, rng_seed) -> SvdFactors:
    """Phase-rotate SVD factors until Im{v} and Im{u} are safely invertible.

    The susceptance synthesis needs the imaginary parts of both unitary
    factors to be invertible at network.DEFAULT_IMAG_SV_REL.  Factors that
    already pass are returned unchanged.  Otherwise random common phases are
    applied to the paired columns of u and v (preserving the reconstruction)
    plus independent phases to trailing null-space columns, retrying with
    fresh draws up to DEFAULT_PHASE_ATTEMPTS times.

    Args:
        factors: decomposition to repair.
        rng_seed: seed for the deterministic phase draws.

    Raises:
        PhaseSearchExhaustedError: if no draw passes.
    """

    def ok(m: np.ndarray) -> bool:
        # The synthesis's own test, so a factor passes here iff it synthesizes.
        try:
            _imag_part_inverse(m, "ensure_invertible_imag")
        except SingularImaginaryPartError:
            return False
        return True

    if ok(factors.v.imag) and ok(factors.u.imag):
        return factors

    rng = np.random.default_rng(rng_seed)
    k = factors.sigma.shape[0]
    n_t = factors.v.shape[0]
    n_r = factors.u.shape[0]
    for _ in range(DEFAULT_PHASE_ATTEMPTS):
        phase_v = np.exp(2j * np.pi * rng.random(n_t))
        tail = np.exp(2j * np.pi * rng.random(n_r - k)) if n_r > k else np.empty(0, complex)
        phase_u = np.concatenate([phase_v[:k], tail])
        v = factors.v * phase_v
        u = factors.u * phase_u
        if ok(v.imag) and ok(u.imag):
            return SvdFactors(u=u, sigma=factors.sigma, v=v)
    raise PhaseSearchExhaustedError(
        f"no phase rotation made Im{{v}} and Im{{u}} invertible "
        f"within {DEFAULT_PHASE_ATTEMPTS} attempts"
    )


def water_filling(eigenvalues, total_power: float, noise_power: float) -> PowerAllocation:
    """Water-filling power fractions over per-stream channel eigenvalues.

    With q = DEFAULT_QUARTER_FACTOR, the insertion factor of the matched
    circuits, solves max sum_s log2(1 + total_power * p_s * lam_s / (q *
    noise_power)) subject to sum p_s = 1, p_s >= 0, by the exact sort-based
    active-set method: with floors a_s = q * noise_power / (total_power *
    lam_s), the water level is mu = (1 + sum of active floors) / |active
    set|, and p_s = max(0, mu - a_s).

    Args:
        eigenvalues: nonnegative per-stream channel eigenvalues.
        total_power: total transmit power, linear scale.
        noise_power: noise power, linear scale.

    Returns:
        PowerAllocation with fractions summing to one.

    Raises:
        AllZeroEigenvaluesError: if every eigenvalue is zero, or so small
            that its floor overflows.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise DimensionMismatchError("eigenvalues must form a nonempty vector")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be nonnegative and finite")
    if total_power <= 0 or noise_power <= 0:
        raise ValueError("powers must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        floors = np.where(lam > 0, DEFAULT_QUARTER_FACTOR * noise_power / (total_power * lam), np.inf)
    if not np.any(np.isfinite(floors)):
        raise AllZeroEigenvaluesError("all channel eigenvalues are zero or too weak to water-fill")
    # Search on the floors above the lowest one: on weak channels a_min can
    # exceed 2**53, where 1 + a_min == a_min would disqualify every candidate.
    a_min = floors.min()
    excess = floors - a_min
    sorted_excess = np.sort(excess)
    n_finite = int(np.sum(np.isfinite(sorted_excess)))
    csum = np.cumsum(sorted_excess[:n_finite])
    for m in range(n_finite, 0, -1):
        level = (1.0 + csum[m - 1]) / m
        # m = 1 always qualifies: level 1 > excess 0.
        if level > sorted_excess[m - 1]:
            break
    p = np.maximum(0.0, level - excess)
    return PowerAllocation(p=p, water_level=float(a_min + level))


def capacity_closed_form(
    eigenvalues, allocation: PowerAllocation, total_power: float, noise_power: float
) -> float:
    """Closed-form rate sum_s log2(1 + total_power p_s lam_s / (q noise_power)).

    q = DEFAULT_QUARTER_FACTOR is the matched-circuit insertion factor; with
    the water-filling allocation this is the capacity of the link.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    p = allocation.p
    if lam.shape != p.shape:
        raise DimensionMismatchError(
            f"eigenvalues {lam.shape} and allocation {p.shape} differ in length"
        )
    snr = total_power * p * lam / (DEFAULT_QUARTER_FACTOR * noise_power)
    return float(np.sum(np.log1p(snr)) / np.log(2.0))


def milac_rate(
    g,
    h,
    f,
    allocation: PowerAllocation,
    total_power: float,
    noise_power: float,
) -> tuple[float, np.ndarray]:
    """Achievable rate of an analog design through its effective channel G H F.

    Per stream s, with E = G H F,

        sinr_s = P p_s |E[s,s]|^2 /
                 (P sum_{t != s} p_t |E[s,t]|^2 + ||G[s,:]||^2 noise_power)

    and the rate is sum_s log2(1 + sinr_s).  The same value is recomputed
    with every row of G normalized to unit norm (noise scaling absorbed into
    the row) and both forms are required to agree, which guards the
    implementation against inconsistent normalization.

    Args:
        g: receive combining block (n_streams x n_rx).
        h: channel matrix (n_rx x n_tx).
        f: transmit precoding block (n_tx x n_streams).
        allocation: per-stream power fractions.
        total_power: total transmit power, linear scale.
        noise_power: per-antenna noise power, linear scale.

    Returns:
        Tuple of (rate in bits per channel use, per-stream SINR vector).

    Raises:
        ZeroCombinerRowError: if a row of g is identically zero.
        DimensionMismatchError: if the operand shapes are inconsistent.
        RateFormMismatchError: if the raw and row-normalized rates disagree
            beyond RATE_FORM_CHECK_TOL.
    """
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    p = allocation.p
    n_streams = p.shape[0]
    if g.shape[0] != n_streams or f.shape[1] != n_streams:
        raise DimensionMismatchError("g rows and f columns must match the stream count")
    if g.shape[1] != h.shape[0] or h.shape[1] != f.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes g {g.shape}, h {h.shape}, f {f.shape}"
        )
    row_power = np.sum(np.abs(g) ** 2, axis=1)
    if np.any(row_power == 0.0):
        raise ZeroCombinerRowError("a combining row of g is identically zero")

    effective = g @ h @ f
    sinr = _per_stream_sinr(effective, row_power, p, total_power, noise_power)
    rate = float(np.sum(np.log1p(sinr)) / np.log(2.0))

    # Row-normalized form: divide each combining row by its norm, which scales
    # the noise identically; the rate must not change.
    normalized = effective / np.sqrt(row_power)[:, None]
    sinr_norm = _per_stream_sinr(normalized, np.ones(n_streams), p, total_power, noise_power)
    rate_norm = float(np.sum(np.log1p(sinr_norm)) / np.log(2.0))
    if not abs(rate - rate_norm) <= RATE_FORM_CHECK_TOL * max(1.0, abs(rate)):
        raise RateFormMismatchError(f"rate forms disagree: {rate!r} vs {rate_norm!r}")
    return rate, sinr


def _per_stream_sinr(effective, row_power, p, total_power, noise_power) -> np.ndarray:
    """SINR vector for an effective channel and combining row powers."""
    abs_sq = np.abs(effective) ** 2
    signal = total_power * p * np.diag(abs_sq)
    interference = total_power * (abs_sq @ p) - signal
    denom = interference + row_power * noise_power
    # Guard the exactly-diagonalized zero-noise corner against 0/0; the floor
    # lies below every denominator a positive normal noise power gives.
    denom = np.maximum(denom, np.finfo(float).tiny)
    return signal / denom


def design_milac(h, config: SystemConfig, rng_seed) -> Design:
    """Globally optimal transmit/receive susceptance design for a channel.

    Pipeline: ordered SVD of the channel, closed-form susceptance synthesis
    on each side, and water-filling over the leading n_streams eigenvalues.
    Only when the synthesis rejects Im{v} or Im{u} as singular are the
    factors phase-repaired and synthesized again.

    Args:
        h: channel matrix (n_rx x n_tx) matching config.
        config: link parameters.
        rng_seed: seed for the deterministic phase repair.

    Returns:
        Design holding the repaired factors, the power allocation and both
        susceptance matrices; it unpacks as (b_tx, b_rx, allocation).
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (config.n_rx, config.n_tx):
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match config ({config.n_rx}, {config.n_tx})"
        )
    factors = svd_ordered(h)
    try:
        b_tx, b_rx = _synthesize_both(factors, config)
    except SingularImaginaryPartError:
        factors = ensure_invertible_imag(factors, rng_seed)
        b_tx, b_rx = _synthesize_both(factors, config)
    lam = factors.sigma[: config.n_streams] ** 2
    allocation = water_filling(lam, config.tx_power, config.noise_power)
    return Design(factors, allocation, b_tx, b_rx)


def _synthesize_both(factors: SvdFactors, config: SystemConfig):
    """Transmit and receive susceptance matrices of the factors' leading columns."""
    b_tx = susceptance_tx(factors.v, config.n_streams, config.ref_admittance)
    b_rx = susceptance_rx(factors.u, config.n_streams, config.ref_admittance)
    return b_tx, b_rx


def digital_design_and_rate(h, config: SystemConfig, design: Design) -> tuple[np.ndarray, float]:
    """Optimal fully digital precoder on a design's factors and its achievable rate.

    The precoder is W = v_bar diag(sqrt(p)) with v_bar the leading n_streams
    columns of design.factors.v and p the design's water-filling fractions,
    so ||W||_F^2 = 1.  Phase repair rotates the columns of v but leaves the
    singular values, and hence p and the rate, unchanged.  The rate is

        log2 det(I + total_power / (DEFAULT_QUARTER_FACTOR * noise_power) * H W W^H H^H)

    evaluated on the n_streams x n_streams Gram form as a sum of log1p over
    its eigenvalues, which keeps the digits of weak channels where
    I + Gram rounds to I.

    Returns:
        Tuple (precoder W of shape (n_tx, n_streams), rate in bits per
        channel use).
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (config.n_rx, config.n_tx):
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match config ({config.n_rx}, {config.n_tx})"
        )
    if design.factors.v.shape[0] != config.n_tx or design.allocation.p.shape[0] != config.n_streams:
        raise DimensionMismatchError("design does not match config")
    w = design.factors.v[:, : config.n_streams] * np.sqrt(design.allocation.p)
    a = h @ w
    scale = config.tx_power / (DEFAULT_QUARTER_FACTOR * config.noise_power)
    # Round-off can leave a Gram eigenvalue slightly negative.
    eig = np.maximum(np.linalg.eigvalsh(scale * (a.conj().T @ a)), 0.0)
    rate = float(np.sum(np.log1p(eig)) / np.log(2.0))
    return w, rate
