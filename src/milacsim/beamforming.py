"""Closed-form globally optimal beamforming designs for point-to-point MIMO links.

Given a channel matrix H with singular value decomposition H = U S V^H,
the transmit network realizes the leading right singular vectors (scaled
by j/2) and the receive network the conjugated leading left singular
vectors (scaled by -j/2), so that the cascade diagonalizes the channel.
Only those s columns are fixed; each side's unitary is completed from
them on their own real subspace of dimension r <= 3s, by one real QR of a
basis and one QR of an r x s block, so beyond the channel's SVD a design
costs O(n s^2) at n antennas.
Power is then water-filled over the per-stream channel eigenvalues.  The
resulting link rate equals the water-filling capacity of the matched
digital benchmark, which is also computed here in closed form.

The factor 4 that appears in the rate expressions is the two-sided
insertion loss of source and load voltage division (amplitude 1/2 at
each side); it cancels out of none of the formulas and is kept explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg

from .exceptions import (
    AllZeroEigenvaluesError,
    DimensionMismatchError,
    PhaseSearchExhaustedError,  # noqa: F401  kept for perfbench until ROADMAP item 1
    RateFormMismatchError,
    ZeroCombinerRowError,
    _as_doubles,
    _check_finite,
    _check_integers,
    _check_positive_finite,
    _held,
)
from . import network
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

# Internal consistency tolerance between the raw and row-normalized rate forms.
RATE_FORM_CHECK_TOL = 1e-12

# Every rate in bits divides a sum of natural logarithms by this.
_LN2 = np.log(2.0)

# The top-s SVD route serves links of at least TOP_S_MIN_ANTENNAS antennas per
# side with at most 1/TOP_S_STREAM_RATIO as many streams.  One BLAS thread,
# top-s time over economy time: about 0.55 at 64 x 64 with s = 4, 0.44 at
# 128 x 128 with s = 8 and 0.21-0.28 at 64 x 1024 and 1024 x 64 with s = 4.
TOP_S_MIN_ANTENNAS = 64
TOP_S_STREAM_RATIO = 16

# Largest accepted max-abs entry of H v - u diag(sigma) or H^H u - v diag(sigma),
# relative to sigma_1, and of u^H u - I and v^H v - I, for top-s triplets.
# Rayleigh channels up to 1024 x 64 and exactly clustered spectra read about
# 3e-15 at most; u^H u - I grows as eps (sigma_1/sigma_s)^2.
TOP_S_CHECK_TOL = 1e-12


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
        powers = _as_doubles(self.tx_power, "tx_power")
        if powers.ndim > 1 or powers.size == 0:
            raise ValueError("tx_power must be one power or a nonempty vector of powers")
        _check_powers(powers, "tx_power")
        object.__setattr__(self, "tx_power", tuple(powers.tolist()) if powers.ndim else powers.item())


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Leading singular triplets of H, ordered: H v = u diag(sigma), u^H u = v^H v = I.

    u is n_rx x s, v is n_tx x s and sigma holds the s leading singular values
    in descending order, for any 1 <= s <= k = min(n_rx, n_tx); s = k is the
    economy SVD.  The factors of a stack of channels carry its leading trial axes.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=float)
        if u.ndim < 2 or v.ndim != u.ndim or sigma.ndim != u.ndim - 1:
            raise DimensionMismatchError("u and v must be matrices and sigma a vector, or stacks of them")
        k = min(u.shape[-2], v.shape[-2])
        trials_agree = u.shape[:-2] == v.shape[:-2] == sigma.shape[:-1]
        if not 1 <= u.shape[-1] == v.shape[-1] == sigma.shape[-1] <= k or not trials_agree:
            raise DimensionMismatchError(
                f"u {u.shape}, sigma {sigma.shape} and v {v.shape} are not the leading triplets of an SVD"
            )
        # NaN fails the first test, so no check passes vacuously.
        if not ((sigma >= 0) & (sigma < np.inf)).all() or np.any(np.diff(sigma, axis=-1) > 0):
            raise ValueError("singular values must be nonnegative, finite and descending")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)

    def reconstruct(self) -> np.ndarray:
        """u diag(sigma) v^H: the channel itself when s is at least its rank (as
        the economy SVD's s = k always is), else its best rank-s approximation."""
        return (self.u * self.sigma[..., None, :]) @ self.v.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-stream power fractions (summing to one) and the water level.

    At one transmit power p is a vector and water_level a float; at K powers
    p is (K, n_streams) and water_level holds the K levels.  A stack of
    channels puts its trial axes first: p is (T, n_streams) or (T, K, n_streams).
    """

    p: np.ndarray
    water_level: float | np.ndarray

    def __post_init__(self):
        p = _as_doubles(self.p, "stream powers")
        if p.ndim < 1:
            raise DimensionMismatchError("power allocation must be a vector, or one vector per power and trial")
        if not ((p >= 0) & (p < np.inf)).all():
            raise ValueError("stream powers must be nonnegative and finite")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class Design:
    """Closed-form design of one link, built from a single SVD of its channel.

    Attributes:
        factors: the n_streams leading singular triplets (svd_ordered), whose
            vectors both networks realize, up to each network's common phase
            e^{j theta}, and the digital precoder uses.
        allocation: water-filling fractions over the leading eigenvalues.
        tx: transmit network in factored form; it realizes V = j e^{j theta} Q',
            Q' the unitary completion of v_bar (network._completion), with
            tx.theta = 0 unless the synthesis repaired Im V, and tx.unitary()
            is the dense V.
        rx: receive network in factored form; rx.unitary() is the dense U,
            whose leading columns are j e^{-j theta} u_bar with rx.theta.
        b_tx, b_rx: the dense susceptance matrices, built from tx and rx in
            O(n^2 s) on first access (of a single link's design).
        f, g: the circuit-realized precoder (n_tx x s) and combiner (s x n_rx),
            the transfer blocks of tx and rx (network._transfer_blocks), built
            in O(n s^2) on first access; a square link's two circuit solves are
            one call.

    The design of a stack of T channels holds T of each, along a leading axis.
    """

    factors: SvdFactors
    allocation: PowerAllocation
    tx: _FactoredSusceptance
    rx: _FactoredSusceptance

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return network._transfer_blocks(self.tx, self.rx)

    @property
    def f(self) -> np.ndarray:
        return self._blocks[0]

    @property
    def g(self) -> np.ndarray:
        return self._blocks[1]

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
    with the design whose circuit blocks design.f and design.g were rated.  At
    K transmit powers the rates are K-vectors and per_stream_sinr is (K, n_streams).
    A stack of T channels adds a leading trial axis to every array.
    """

    milac_rate: float
    digital_rate: float
    capacity: float
    per_stream_sinr: np.ndarray
    design: Design


def _takes_top_s(n_rx: int, n_tx: int, n_streams: int) -> bool:
    """Whether the size rule sends n_rx x n_tx links with n_streams streams to the top-s route."""
    k = min(n_rx, n_tx)
    return k >= TOP_S_MIN_ANTENNAS and TOP_S_STREAM_RATIO * n_streams <= k


def svd_route(n_rx: int, n_tx: int, n_streams: int) -> str:
    """The SVD route svd_ordered takes on n_rx x n_tx links with n_streams streams,
    with the routine it calls.  A top-s trial whose triplets fail their check
    still takes the economy SVD."""
    if _takes_top_s(n_rx, n_tx, n_streams):
        return "top-s (zhetrd + dstemr of the Gram matrix)"
    return "economy (numpy.linalg.svd)"


def svd_ordered(h, n_streams=None) -> SvdFactors:
    """The n_streams leading singular triplets, descending, with a fixed phase convention.

    Each column of v is rotated so that its largest-modulus entry is real
    and positive; the paired column of u gets the same rotation, which
    leaves u diag(sigma) v^H unchanged.  Without n_streams the factors hold
    all k = min(n_rx, n_tx) triplets, the economy SVD.

    The route depends on the shape and n_streams alone (svd_route).  On large
    links with few streams, only the s = n_streams leading triplets of each
    channel are computed, from the s largest eigenpairs of its smaller Gram
    matrix (_gram_triplets), and each result is checked in O(n_rx n_tx s):
    max |H^H u - v diag(sigma)| when n_tx <= n_rx, else max |H v - u
    diag(sigma)| (the other residual is zero by construction), within
    TOP_S_CHECK_TOL sigma_1, and max |u^H u - I|, |v^H v - I| within
    TOP_S_CHECK_TOL.  A trial that fails the check takes the economy SVD
    alone: one whose rank is below s, or whose spread sigma_1/sigma_s exceeds
    about 60 (the error of u^H u grows as eps (sigma_1/sigma_s)^2).  Elsewhere
    the economy SVD of a stack of channels (leading trial axes) is one call,
    cut to s triplets.

    Raises:
        NonFiniteInputError: if h contains NaN or infinite entries.
        ValueError: if n_streams is not an integer from 1 to k.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2:
        raise DimensionMismatchError(f"channel matrix must be 2-D, or a stack of them, got shape {h.shape}")
    n_rx, n_tx = h.shape[-2:]
    s = min(n_rx, n_tx) if n_streams is None else n_streams
    _check_integers(n_streams=s)
    if not 1 <= s <= min(n_rx, n_tx):
        raise ValueError(f"n_streams={s} is not from 1 to min(n_rx, n_tx)={min(n_rx, n_tx)}")
    if not _takes_top_s(n_rx, n_tx, s):
        _check_finite(("channel matrix", h))
        u, sigma, v = _economy_triplets(h, s)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u, sigma, v = _gram_triplets(h, s)  # rejects a non-finite h
            # NaN fails each test, so a garbage triplet cannot pass.  The
            # residual of the side _gram_triplets builds from the other is zero
            # by construction, so only the other one is the test: the adjoint
            # u^H H - diag(sigma) v^H (conjugated) when v is the eigenvector
            # side (n_tx <= n_rx), else H v - u diag(sigma).
            uh, vh = u.conj().swapaxes(-1, -2), v.conj().swapaxes(-1, -2)
            if n_tx <= n_rx:
                residual = uh @ h
                residual -= sigma[..., :, None] * vh
            else:
                residual = h @ v
                residual -= u * sigma[..., None, :]
            ok = np.abs(residual).max(axis=(-2, -1)) <= TOP_S_CHECK_TOL * sigma[..., 0]
            for xh, x in ((uh, u), (vh, v)):
                gram = xh @ x
                gram.reshape(gram.shape[:-2] + (s * s,))[..., :: s + 1] -= 1.0  # x^H x - I
                ok &= np.abs(gram).max(axis=(-2, -1)) <= TOP_S_CHECK_TOL
        if not ok.all():
            for t in np.ndindex(ok.shape):
                if not ok[t]:
                    u[t], sigma[t], v[t] = _economy_triplets(h[t], s)
    # Every rule of SvdFactors holds by construction, but for a sigma_1 past
    # the double range, which a finite channel near it can have.
    if not (sigma[..., 0] < np.inf).all():
        raise ValueError("singular values must be nonnegative, finite and descending")
    # The largest-modulus entry of each column of v, one row per (trial, column):
    # at least 1/sqrt(n_tx) in modulus, as every column is a unit vector.
    cols = v.swapaxes(-1, -2).reshape(-1, v.shape[-2])
    mags = np.abs(cols)
    top = np.arange(len(cols)), mags.argmax(axis=-1)
    phases = np.conjugate(cols[top] / mags[top]).reshape(v.shape[:-2] + (1, s))
    return _held(SvdFactors, u=u * phases, sigma=sigma, v=v * phases)


def _economy_triplets(h: np.ndarray, s: int) -> tuple:
    """(u, sigma, v) of the s leading triplets of h's economy SVD (stacked over leading axes)."""
    u, sigma, vh = np.linalg.svd(h, full_matrices=False)
    return u[..., :s], sigma[..., :s], vh[..., :s, :].conj().swapaxes(-1, -2)


_HERK = scipy.linalg.get_blas_funcs("herk", dtype=complex)
_HETRD, _HETRD_LWORK, _UNMQR = scipy.linalg.get_lapack_funcs(("hetrd", "hetrd_lwork", "unmqr"), dtype=complex)
_STEMR = scipy.linalg.get_lapack_funcs("stemr", dtype=float)


@cache
def _hetrd_lwork(k: int) -> int:
    """zhetrd's optimal workspace for a k x k matrix, queried once per k."""
    work, _ = _HETRD_LWORK(k, lower=1)
    return int(work.real)


def _gram_triplets(h: np.ndarray, s: int) -> tuple:
    """(u, sigma, v) of the s leading singular triplets of each matrix of a stack
    h (leading axes), from the s largest eigenpairs of its smaller Gram matrix.

    Each matrix is first scaled by an exact power of two, so that its largest
    real or imaginary part lies in [1/2, 1): the Gram matrix then neither
    overflows nor underflows, and h and 2^k h give the same vectors bit for
    bit.  The Gram matrix (zherk) is reduced to real tridiagonal form once
    (zhetrd), MRRR (dstemr) gives that form's s largest eigenpairs, and the
    reduction's reflectors carry the vectors z back (zunmqr).  For
    n_tx <= n_rx the z are v, else u.  The product y of the scaled channel (or
    its adjoint) with z has the other side's vectors as its normalized
    columns, and sigma as its column norms: the square roots of z's Rayleigh
    quotients, accurate to about eps sigma_1, where the square roots of
    dstemr's eigenvalues are not.  Nothing here is checked: a trial for which
    dstemr returns fewer than s pairs, or any routine an error, holds NaN, and
    one of rank below s holds NaN or vectors that are not orthonormal.  The
    caller silences the divide by a zero norm that such a trial makes.

    Raises:
        NonFiniteInputError: if h contains NaN or infinite entries (the max
            that sets the scale is then not finite).
    """
    h = np.ascontiguousarray(h, dtype=complex)
    parts = h.view(float)
    top = np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))
    _check_finite(("channel matrix", top))
    _, e = np.frexp(top)
    a = np.ldexp(parts, -e[..., None, None]).view(complex)
    tall = h.shape[-1] <= h.shape[-2]
    k = min(h.shape[-2:])
    lwork = _hetrd_lwork(k)
    z = np.empty(h.shape[:-2] + (k, s), dtype=complex)
    off_diagonal = np.empty(k)  # dstemr's e has one spare entry, its workspace
    # One channel at a time, through flat views of the stacks.
    for at, zt in zip(a.reshape((-1,) + a.shape[-2:]), z.reshape(-1, k, s)):
        # a is row-major, so a^T is column-major and zherk reads it without a
        # copy: a^T conj(a) = conj(a^H a) (trans=0), or conj(a a^H) (trans=2).
        # The eigenvectors of that lower triangle are the conjugated z.
        gram = _HERK(1.0, at.T, trans=0 if tall else 2, lower=1)
        c, d, off_diagonal[:-1], tau, info_t = _HETRD(gram, lower=1, lwork=lwork, overwrite_a=1)
        m, _, w, info_m = _STEMR(d, off_diagonal, 2, 0.0, 0.0, k - s + 1, k)  # by index, ascending
        # zunmtr for the lower triangle, which SciPy does not wrap: the k - 1
        # reflectors lie below c's diagonal and act on rows 1.. of w.  A flat
        # view from c's second entry hands them to zunmqr with leading
        # dimension k, without a copy.  The minimal workspace (unblocked code)
        # is also the faster one for s columns.
        reflectors = c.ravel(order="F")[1 : 1 + k * (k - 1)].reshape((k, k - 1), order="F")
        rows = w[1:, s - 1 :: -1].astype(complex, order="F")
        rows, _, info_q = _UNMQR(b"L", b"N", reflectors, tau, rows, s, overwrite_c=1)
        zt[0] = w[0, s - 1 :: -1]
        np.conjugate(rows, out=zt[1:])
        if m != s or info_t != 0 or info_m != 0 or info_q != 0:
            zt[...] = np.nan
    if tall:
        y = a @ z
    else:
        y = (z.conj().swapaxes(-1, -2) @ a).conj().swapaxes(-1, -2)
    # The column norms, formed as np.linalg.norm(y, axis=-2) forms them, in one buffer.
    squares = y.conj()
    squares *= y
    root = np.sqrt(np.add.reduce(squares.real, axis=-2))
    # On an exact cluster the norms can come out of order; reorder only there.
    if (root[..., 1:] > root[..., :-1]).any():
        order = np.argsort(-root, axis=-1, kind="stable")
        root = np.take_along_axis(root, order, axis=-1)
        y, z = (np.take_along_axis(x, order[..., None, :], axis=-1) for x in (y, z))
    x = y / root[..., None, :]  # a zero norm divides by zero, which the caller silences
    sigma = np.ldexp(root, e[..., None])
    return (x, sigma, z) if tall else (z, sigma, x)


def ensure_invertible_imag(factors: SvdFactors, config: SystemConfig) -> tuple:
    """(factors, tx, rx) of _synthesize_both, which repairs each rejected side itself.

    Kept for perfbench until ROADMAP item 1: its tracing wraps this name.
    design_milac does not call it.
    """
    return (factors, *_synthesize_both(factors, config))


def water_filling(eigenvalues, total_power, noise_power: float, *, _config_powers: bool = False) -> PowerAllocation:
    """Water-filling power fractions over per-stream channel eigenvalues.

    With q = DEFAULT_QUARTER_FACTOR, the insertion factor of the matched
    circuits, solves max sum_s log2(1 + total_power * p_s * lam_s / (q *
    noise_power)) subject to sum p_s = 1, p_s >= 0, by the exact sort-based
    active-set method: with floors a_s = q * noise_power / (total_power *
    lam_s), the water level is mu = (1 + sum of active floors) / |active
    set|, and p_s = max(0, mu - a_s).

    Args:
        eigenvalues: nonnegative per-stream channel eigenvalues; a stack of
            them (leading trial axes) is water-filled row by row.
        total_power: total transmit power, linear scale; a vector of K powers
            gives one allocation per power, each computed exactly as alone.
        noise_power: noise power, linear scale.
        _config_powers: total_power and noise_power are a SystemConfig's,
            which checked them; design_milac passes them so.

    Returns:
        PowerAllocation with fractions summing to one (per trial and power),
        the power axis after the trial axes.

    Raises:
        AllZeroEigenvaluesError: if, for some trial and power, every
            eigenvalue is zero or so small that its floor overflows.
        ValueError: if an eigenvalue is negative or not finite, or a power or
            noise_power is not a positive, finite and normal double.
    """
    if not _config_powers:
        _check_positive_finite(noise_power=noise_power)
    lam = _as_doubles(eigenvalues, "eigenvalues")
    if lam.ndim < 1 or lam.shape[-1] < 1:
        raise DimensionMismatchError("eigenvalues must form a nonempty vector, or a stack of them")
    _check_spectrum(lam)
    if _config_powers:
        power = np.asarray(total_power, dtype=float)
    else:
        power = _as_doubles(total_power, "total_power")
        if power.ndim > 1:
            raise DimensionMismatchError("total_power must be a scalar or a vector of powers")
        _check_powers(power)
    n = lam.shape[-1]
    power = power[..., None]
    lam = _at_each_power(lam, power)
    with np.errstate(divide="ignore", over="ignore"):
        # A zero eigenvalue, of either sign, has the floor +inf.
        floors = DEFAULT_QUARTER_FACTOR * noise_power / np.abs(power * lam)
    a_min = floors.min(axis=-1, keepdims=True)
    if not (a_min < np.inf).all():
        raise AllZeroEigenvaluesError("all channel eigenvalues are zero or too weak to water-fill")
    # Search on the floors above the lowest one: on weak channels a_min can
    # exceed 2**53, where 1 + a_min == a_min would disqualify every candidate.
    excess = floors - a_min
    sorted_excess = np.sort(excess, axis=-1)
    # The active set's excesses are below 1 (its levels fall from level 1 at
    # m = 1), so capping the rest at n + 1 keeps every qualifying level and
    # lets no running sum overflow.  A capped excess never qualifies: the
    # smallest excess is 0, so its level is at most (1 + (m - 1)(n + 1)) / m,
    # below n + 1.
    np.minimum(sorted_excess, n + 1.0, out=sorted_excess)
    # Level of the m smallest floors, m = 1..n.
    levels = sorted_excess.cumsum(axis=-1)
    levels += 1.0
    levels /= np.arange(1, n + 1)
    # The active set is the largest qualifying m; m = 1 always qualifies
    # (level 1 > excess 0).
    last = (n - 1) - (levels > sorted_excess)[..., ::-1].argmax(axis=-1, keepdims=True)
    level = levels[last] if levels.ndim == 1 else np.take_along_axis(levels, last, axis=-1)
    # 0 <= p <= level <= 1 by construction.
    p = np.maximum(0.0, level - excess)
    return _held(PowerAllocation, p=p, water_level=_per_power((a_min + level)[..., 0]))


def _check_spectrum(lam: np.ndarray) -> None:
    """Raise ValueError unless every eigenvalue is nonnegative and finite (NaN fails)."""
    if lam.size and not (lam.min() >= 0 and lam.max() < np.inf):
        raise ValueError("eigenvalues must be nonnegative and finite")


def _per_power(values):
    """A float for a single power (of a single channel), else the array of values."""
    return float(values) if values.ndim == 0 else values


def _check_powers(power: np.ndarray, name: str = "total_power") -> None:
    """Raise ValueError naming `name` unless every power is a positive, finite
    and normal double; its extremes decide, and numpy's min and max pass a NaN
    through to both."""
    if power.ndim == 0:
        _check_positive_finite(**{name: power.item()})
    elif power.size:
        _check_positive_finite(**{name: power.min()})
        _check_positive_finite(**{name: power.max()})


def _power_axis(allocation: PowerAllocation, total_power, trials: tuple = ()) -> np.ndarray:
    """total_power with a trailing stream axis, one power per row of allocation.p
    after its trial axes; each power must be a positive, finite and normal double."""
    power = _as_doubles(total_power, "total_power")
    if trials + power.shape != allocation.p.shape[:-1]:
        raise DimensionMismatchError(
            f"allocation {allocation.p.shape} does not hold one row per power {power.shape}"
            + (f" and trial {trials}" if trials else "")
        )
    _check_powers(power)
    return power[..., None]


def _at_each_power(x: np.ndarray, power: np.ndarray, tail: int = 1) -> np.ndarray:
    """Per-trial x with a power axis before its last `tail` axes when there are
    K powers (power as _power_axis returns it), so that it broadcasts against p."""
    return x[(..., None) + (slice(None),) * tail] if power.ndim > 1 else x


def capacity_closed_form(
    eigenvalues, allocation: PowerAllocation, total_power, noise_power: float
) -> float | np.ndarray:
    """Closed-form rate sum_s log2(1 + total_power p_s lam_s / (q noise_power)).

    q = DEFAULT_QUARTER_FACTOR is the matched-circuit insertion factor; with
    the water-filling allocation this is the capacity of the link.  A float
    for one power; for a vector of K powers (allocation.p of shape
    (K, n_streams)) the K rates.  Stacked eigenvalues (leading trial axes,
    matched by allocation.p) give the rates of each trial.

    Raises:
        ValueError: if an eigenvalue is negative or not finite, or a power or
            noise_power is not a positive, finite and normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    lam = _as_doubles(eigenvalues, "eigenvalues")
    _check_spectrum(lam)
    p = allocation.p
    if lam.shape[-1:] != p.shape[-1:]:
        raise DimensionMismatchError(
            f"eigenvalues {lam.shape} and allocation {p.shape} differ in length"
        )
    power = _power_axis(allocation, total_power, lam.shape[:-1])
    snr = power * p * _at_each_power(lam, power) / (DEFAULT_QUARTER_FACTOR * noise_power)
    return _per_power(np.log1p(snr).sum(axis=-1) / _LN2)


@np.errstate(invalid="ignore")  # a NaN or inf input is named where the rate forms disagree
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
    one E, each point exactly as alone.  Stacked g, h and f (leading trial
    axes, matched by allocation.p) rate each trial exactly as alone.

    Args:
        g: receive combining block (n_streams x n_rx).
        h: channel matrix (n_rx x n_tx).
        f: transmit precoding block (n_tx x n_streams).
        allocation: per-stream power fractions.
        total_power: total transmit power, linear scale, or a vector of K.
        noise_power: per-antenna noise power, linear scale.

    Returns:
        Tuple of (rate in bits per channel use, per-stream SINR vector); at K
        powers, the K rates and the (K, n_streams) SINRs; trial axes lead.

    Raises:
        ZeroCombinerRowError: if a row of g is identically zero.
        DimensionMismatchError: if the operand shapes are inconsistent.
        NonFiniteInputError: if g, h or f contains NaN or infinite entries.
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
    if min(g.ndim, h.ndim, f.ndim) < 2:
        raise DimensionMismatchError(f"g {g.shape}, h {h.shape} and f {f.shape} must be matrices")
    if g.shape[-2] != n_streams or f.shape[-1] != n_streams:
        raise DimensionMismatchError("g rows and f columns must match the stream count")
    if g.shape[-1] != h.shape[-2] or h.shape[-1] != f.shape[-2]:
        raise DimensionMismatchError(
            f"incompatible shapes g {g.shape}, h {h.shape}, f {f.shape}"
        )
    power = _power_axis(allocation, total_power, h.shape[:-2])
    squared = np.abs(g)
    squared *= squared
    row_power = squared.sum(axis=-1)
    if not row_power.all():
        raise ZeroCombinerRowError("a combining row of g is identically zero")

    # Both forms on one leading axis, rated in one pass: the raw E with each
    # stream's noise row_power * noise_power, and the row-normalized form,
    # each combining row divided by its norm, which scales the noise
    # identically (to noise_power on every unit row); the rate must not change.
    effective = np.empty((2,) + h.shape[:-2] + (n_streams, n_streams), dtype=complex)
    np.matmul(g @ h, f, out=effective[0])
    np.divide(effective[0], np.sqrt(row_power)[..., None], out=effective[1])
    row_power = _at_each_power(row_power, power)
    noise = np.empty((2,) + row_power.shape)
    np.multiply(row_power, noise_power, out=noise[0])
    noise[1] = noise_power
    sinr = _per_stream_sinr(effective, power * p, p, power, noise)
    rate, rate_norm = np.log1p(sinr).sum(axis=-1) / _LN2
    agree = np.abs(rate - rate_norm) <= RATE_FORM_CHECK_TOL * np.maximum(1.0, np.abs(rate))
    if not agree.all():
        _check_finite(("combiner g", g), ("channel matrix", h), ("precoder f", f))
        k = np.argmin(np.ravel(agree))
        raise RateFormMismatchError(
            f"rate forms disagree: {float(np.ravel(rate)[k])!r} vs {float(np.ravel(rate_norm)[k])!r}"
        )
    return _per_power(rate), sinr[0]


def _per_stream_sinr(effective, powered, p, power, noise) -> np.ndarray:
    """SINR of each stream (last axis) for an effective channel at the powers
    `power` (as _power_axis returns them), with powered = power * p and noise
    the noise power of each stream's combining row (broadcast like the
    SINRs); extra leading axes of effective and noise rate several channels
    at once."""
    abs_sq = np.abs(effective)
    abs_sq *= abs_sq
    signal = powered * _at_each_power(abs_sq.diagonal(axis1=-2, axis2=-1), power)
    # Sum the interference over t != s directly: subtracting the signal from
    # the full row sum cancels it at high SNR.  The denominator is then at
    # least the noise > 0.  The diagonal, zeroed through a flat view, leaves
    # the cross terms.
    n = abs_sq.shape[-1]
    abs_sq.reshape(abs_sq.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0
    interference = power * (p[..., None, :] * _at_each_power(abs_sq, power, tail=2)).sum(axis=-1)
    return signal / (interference + noise)


def design_milac(h, config: SystemConfig, _seed=None) -> Design:
    """Globally optimal transmit/receive susceptance design for a channel.

    Pipeline: the n_streams leading singular triplets of the channel
    (svd_ordered: only those, from the Gram matrix's eigenpairs, on large
    links with few streams; else cut from the economy SVD), closed-form
    susceptance synthesis on each side, and water-filling over their
    n_streams eigenvalues.  Each side's unitary is the unitary
    completion of its leading singular vectors times j, and its network is
    kept in factored form, so beyond the SVD a design costs O(n s^2) rather
    than O(n^3).  A side whose Im{V} or Im{U} the synthesis rejects as
    singular is rotated there by one closed-form common phase (phase
    repair); the factors are never rotated.
    Only the water-filling depends on the power: at K powers (a vector
    config.tx_power) one call allocates all K, each row as at that power alone.

    A stack of T channels (T, n_rx, n_tx) is designed in one pass, each
    trial exactly as alone.

    Args:
        h: channel matrix (n_rx x n_tx) matching config, or a stack of T.
        config: link parameters.
        _seed: ignored.  perfbench passes a third positional argument; it is
            kept only for that until ROADMAP item 1, like Design.__iter__.

    Returns:
        Design holding the n_streams triplets, the power allocation
        (one row per power at K powers) and both networks; it unpacks as (b_tx,
        b_rx, allocation), which builds the dense susceptance matrices.  A stack's
        design holds every array with a leading trial axis.

    Raises:
        DimensionMismatchError: if h is neither a channel of the config's
            shape nor a nonempty stack of them.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2:] != (config.n_rx, config.n_tx) or len(h) == 0:
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match config ({config.n_rx}, {config.n_tx}), "
            "nor is it a nonempty stack of such channels"
        )
    factors = svd_ordered(h, n_streams=config.n_streams)
    tx, rx = _synthesize_both(factors, config)
    allocation = water_filling(factors.sigma**2, config.tx_power, config.noise_power, _config_powers=True)
    return Design(factors, allocation, tx, rx)


def _synthesize_both(factors: SvdFactors, config: SystemConfig):
    """Factored transmit and receive networks of the factors' leading columns.
    The sides of a square link, v_bar and conj(u_bar), are one stacked synthesis."""
    s, y0 = config.n_streams, config.ref_admittance
    v_bar, u_bar = factors.v[..., :s], factors.u[..., :s]
    if v_bar.shape == u_bar.shape:
        sides = np.empty((2,) + v_bar.shape, dtype=complex)
        sides[0] = v_bar
        np.conjugate(u_bar, out=sides[1])
        return _synthesize_factored(sides, y0, receive=(False, True))
    return _synthesize_factored(v_bar, y0, receive=False), _synthesize_factored(np.conj(u_bar), y0, receive=True)


@np.errstate(invalid="ignore")  # a NaN or inf in h is named where the Gram forms show it
def digital_design_and_rate(h, design: Design, total_power, noise_power: float) -> tuple:
    """Optimal fully digital precoder on a design's factors and its achievable rate.

    The precoder is W = v_bar diag(sqrt(p)) with v_bar the leading n_streams
    columns of design.factors.v and p the design's water-filling fractions,
    so ||W||_F^2 = 1.  The rate is

        log2 det(I + total_power / (DEFAULT_QUARTER_FACTOR * noise_power) * H W W^H H^H)

    evaluated on the n_streams x n_streams Gram form as a sum of log1p over
    its eigenvalues, which keeps the digits of weak channels where
    I + Gram rounds to I.  The form M = (H v_bar)^H H v_bar is built once per
    channel, and each power's Gram form scales its rows and columns by
    sqrt(p).  For a vector of K powers (design.allocation.p of shape
    (K, n_streams)) the K Gram forms are diagonalized in one stacked call,
    and so are those of a stack of channels with its stacked design.

    Returns:
        Tuple (precoder W of shape (n_tx, n_streams), rate in bits per
        channel use); at K powers, the (K, n_tx, n_streams) precoders and the
        K rates; trial axes lead.

    Raises:
        DimensionMismatchError: if h is not the design's channel shape, or the
            allocation does not hold one row per power.
        NonFiniteInputError: if h contains NaN or infinite entries.
        ValueError: if a power or noise_power is not a positive, finite and
            normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    h = np.asarray(h, dtype=complex)
    factors = design.factors
    if h.shape != factors.u.shape[:-1] + factors.v.shape[-2:-1]:
        raise DimensionMismatchError(
            f"channel shape {h.shape} does not match the design's "
            f"{factors.u.shape[:-1] + factors.v.shape[-2:-1]}"
        )
    p = design.allocation.p
    power = _power_axis(design.allocation, total_power, h.shape[:-2])
    v_bar = factors.v[..., : p.shape[-1]]
    sqrt_p = np.sqrt(p)
    w = _at_each_power(v_bar, power, tail=2) * sqrt_p[..., None, :]
    hv = h @ v_bar
    m = _at_each_power(hv.conj().swapaxes(-1, -2) @ hv, power, tail=2)
    scaled = sqrt_p[..., :, None] * m * sqrt_p[..., None, :]
    # Power before noise, as in capacity_closed_form: power / noise_power can overflow.
    gram = power[..., None] * scaled / (DEFAULT_QUARTER_FACTOR * noise_power)
    if not np.isfinite(gram).all():  # checked before eigvalsh, which fails on it from s = 3 on
        _check_finite(("channel matrix", h))
    # Round-off can leave a Gram eigenvalue slightly negative.
    eig = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return w, _per_power(np.log1p(eig).sum(axis=-1) / _LN2)
