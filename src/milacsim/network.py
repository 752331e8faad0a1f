"""Multiport network descriptions and conversions for analog beamforming circuits.

A beamforming circuit is modelled as an N-port network of tunable
susceptances.  Three equivalent descriptions are used throughout:

* the admittance matrix Y (complex, N x N),
* the scattering matrix S relative to a real reference admittance y0,
* for lossless reciprocal networks, the real symmetric susceptance
  matrix B with Y = jB.

The conversions are the standard ones,

    S = (y0 I + Y)^-1 (y0 I - Y),        Y = y0 (2 (S + I)^-1 - I),

and the input-to-output transfer block of a network driven by matched
sources and terminated in matched loads is a sub-block of (Y/y0 + I)^-1,
equivalently of (S + I)/2.  Every function that takes y0 raises a ValueError
naming ref_admittance unless it is a positive, finite and normal double.

Port convention: on the transmit side the signal (symbol) ports come
first and the antenna ports last; on the receive side the antenna ports
come first and the symbol ports last.  In both cases the ports driven by
sources are the "inputs" of a PortPartition and the ports feeding loads
are the "outputs", so a single slicing rule covers both sides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionMismatchError,
    NotUnitaryInputError,
    SingularImaginaryPartError,
    SingularMatrixError,
    _check_finite,
    _check_integers,
    _check_positive_finite,
    _held,
)

# Reference admittance of a 50 ohm system, in siemens.
DEFAULT_REF_ADMITTANCE = 1.0 / 50.0

# Condition-number cap above which a linear solve is treated as singular.
DEFAULT_COND_CAP = 1e12

# Max-abs tolerance for unitarity / symmetry checks of scattering matrices.
DEFAULT_UNITARY_TOL = 1e-10

# Relative symmetry tolerance accepted when constructing a SusceptanceMatrix.
DEFAULT_SYMMETRY_TOL = 1e-9

# Im{V} counts as singular when its smallest singular value is at most this
# floor.  Im{V} is a block of a unitary, so its spectral norm is at most 1;
# a larger norm, which only a matrix from elsewhere has, scales the floor.
DEFAULT_IMAG_SV_REL = 1e-8

_EPS = np.finfo(float).eps


def _as_square_complex(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return np.array(a, dtype=complex)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Admittance parameters of an n-port network (complex, square)."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(_as_square_complex(self.y, "admittance matrix")))

    @property
    def n_ports(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Scattering parameters of an n-port network (complex, square).

    For a lossless reciprocal network the matrix is unitary and symmetric;
    use check_lossless_reciprocal to verify both properties.
    """

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(_as_square_complex(self.theta, "scattering matrix")))

    @property
    def n_ports(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True, eq=False)
class SusceptanceMatrix:
    """Real symmetric susceptance matrix B of a lossless reciprocal network (Y = jB)."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DimensionMismatchError(f"susceptance matrix must be square, got shape {b.shape}")
        if np.iscomplexobj(b):
            if np.abs(b.imag).max(initial=0.0) != 0.0:
                raise ValueError("susceptance matrix must be real valued")
            b = b.real
        b = np.array(b, dtype=float)
        scale = np.abs(b).max(initial=0.0)
        # A NaN or inf entry makes the max non-finite.
        if not np.isfinite(scale):
            raise ValueError("susceptance matrix contains non-finite entries")
        asym = np.abs(b - b.T).max(initial=0.0)
        if asym > DEFAULT_SYMMETRY_TOL * max(scale, 1.0):
            raise ValueError(f"susceptance matrix asymmetry {asym:.3e} exceeds tolerance")
        object.__setattr__(self, "b", _frozen(b))

    @property
    def n_ports(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class PortPartition:
    """Split of a network's ports into source-driven inputs and load-terminated outputs.

    On the transmit side the inputs are the symbol ports (first) and the
    outputs are the antenna ports (last); on the receive side the inputs are
    the antenna ports (first) and the outputs the symbol ports (last).
    """

    n_inputs: int
    n_outputs: int

    def __post_init__(self):
        _check_integers(n_inputs=self.n_inputs, n_outputs=self.n_outputs)
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("port partition needs at least one input and one output port")

    @property
    def n_ports(self) -> int:
        return self.n_inputs + self.n_outputs


@dataclass(frozen=True)
class LosslessReciprocalReport:
    """Residuals of the lossless (unitary) and reciprocal (symmetric) checks."""

    unitarity: float
    asymmetry: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.unitarity <= self.tol and self.asymmetry <= self.tol


_GETRF, _GECON, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=complex)


def _lu_checked(a: np.ndarray, context: str, source: tuple | None = None, kappa_bound: float = np.inf) -> tuple:
    """LU factors of a, rejected when its condition number may exceed DEFAULT_COND_CAP.

    kappa_bound is a proven upper bound of kappa_1(a) = ||a||_1 ||a^-1||_1,
    or inf.  Within the cap it accepts the LU without an estimate: gecon's
    figure is a lower bound of kappa_1, so gecon would accept it too.  Any
    other a is judged by gecon's estimate, which a NaN or inf entry fails
    (its 1-norm is not finite).  source is the (name, array) pair a is built
    from; when a is rejected and that array holds NaN or inf, a
    NonFiniteInputError names it.  A complex column-major a is factored in
    place.
    """
    a = np.asarray(a, dtype=complex)
    if kappa_bound <= DEFAULT_COND_CAP:
        return _GETRF(a, overwrite_a=1)[:2]
    # Column sums taken row by row, as over a row-major array, whatever a's layout.
    anorm = np.abs(a, order="C").sum(axis=0).max()
    # An exactly singular factor (info > 0) fails the rcond check below; no argument can be illegal.
    lu, piv, _ = _GETRF(a, overwrite_a=1)
    rcond, _ = _GECON(lu, anorm)
    if not np.isfinite(rcond) or rcond * DEFAULT_COND_CAP < 1.0:
        if source is not None:
            _check_finite(source)
        est = np.inf if rcond == 0 else 1.0 / rcond
        raise SingularMatrixError(
            f"{context}: condition estimate {est:.3e} exceeds cap {DEFAULT_COND_CAP:.3e}"
        )
    return lu, piv


@np.errstate(over="ignore")  # a huge entry makes the bound inf, which fails any cap
def _lossless_kappa_bound(rows: np.ndarray, m: int) -> float:
    """A bound of kappa_1(A) for every m x m matrix A = I + S of a stack, S
    skew-Hermitian, from rows of A's real and imaginary parts: each row holds
    one column of an A, or all of an A's entries.  The bound is m times the
    largest 2-norm of a row (a NaN entry makes it NaN).

    The lemma: Re x^H A x = ||x||^2 for every x, so ||A x|| >= ||x||,
    sigma_min(A) >= 1, ||A^-1||_1 <= sqrt(m) ||A^-1||_2 <= sqrt(m), and
    kappa_1(A) <= sqrt(m) ||A||_1 <= m max_j ||a_j||_2 <= m ||A||_F.
    """
    # A single row (1-D) is one dot; a stack of rows is one batched product.
    largest = rows @ rows if rows.ndim == 1 else (rows[..., None, :] @ rows[..., :, None]).max()
    return m * math.sqrt(largest)


def _solve_checked(a: np.ndarray, rhs: np.ndarray, context: str, source: tuple | None = None) -> np.ndarray:
    """LU solve of a x = rhs that rejects matrices beyond DEFAULT_COND_CAP; see _lu_checked."""
    return _GETRS(*_lu_checked(a, context, source), rhs)[0]


@functools.lru_cache(maxsize=8)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only mask of the strict lower triangle of an n x n matrix."""
    return _frozen(np.tri(n, k=-1, dtype=bool))


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    return _frozen(np.eye(n))


@functools.lru_cache(maxsize=16)
def _unit_columns(n: int, m: int, k: int) -> np.ndarray:
    """Read-only column-major complex np.eye(n, m, k)."""
    return _frozen(np.eye(n, m, k, dtype=complex, order="F"))


def _mirror_upper(b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact symmetrization: reflect the upper triangle onto the lower one.

    Every entry is the upper one plus 0.0, so a -0.0 becomes +0.0; b is not
    written unless it is out.
    """
    out = np.add(b, 0.0, out=out)
    np.copyto(out, out.T, where=_strict_lower(b.shape[0]))
    return out


def admittance_to_scattering(y: AdmittanceMatrix, y0: float = DEFAULT_REF_ADMITTANCE) -> ScatteringMatrix:
    """Convert admittance parameters to scattering parameters.

    Args:
        y: admittance matrix of the network.
        y0: reference admittance in siemens.

    Returns:
        ScatteringMatrix with theta = (y0 I + Y)^-1 (y0 I - Y).

    Raises:
        SingularMatrixError: if y0 I + Y is singular or its condition
            estimate exceeds DEFAULT_COND_CAP.
        NonFiniteInputError: if Y contains NaN or infinite entries.
    """
    _check_positive_finite(ref_admittance=y0)
    eye = np.eye(y.n_ports)
    theta = _solve_checked(y0 * eye + y.y, y0 * eye - y.y, "admittance_to_scattering", ("admittance matrix", y.y))
    return ScatteringMatrix(theta)


def scattering_to_admittance(theta: ScatteringMatrix, y0: float = DEFAULT_REF_ADMITTANCE) -> AdmittanceMatrix:
    """Convert scattering parameters back to admittance parameters.

    Computes Y = y0 (2 (S + I)^-1 - I), the inverse of
    admittance_to_scattering.

    Raises:
        SingularMatrixError: if S + I is singular (an eigenvalue of S is -1),
            which corresponds to a network with no admittance description.
        NonFiniteInputError: if S contains NaN or infinite entries.
    """
    _check_positive_finite(ref_admittance=y0)
    eye = np.eye(theta.n_ports)
    inv = _solve_checked(theta.theta + eye, eye, "scattering_to_admittance", ("scattering matrix", theta.theta))
    return AdmittanceMatrix(y0 * (2.0 * inv - eye))


def transfer_block_from_admittance(
    y: AdmittanceMatrix, partition: PortPartition, y0: float = DEFAULT_REF_ADMITTANCE
) -> np.ndarray:
    """Input-to-output voltage transfer block of a terminated network.

    With every port fed through (inputs) or loaded by (outputs) the reference
    admittance, the transfer from input-port source amplitudes to output-port
    voltages is the lower-left block of (Y/y0 + I)^-1: rows at the output
    ports, columns at the input ports.  The solve takes min(n_inputs,
    n_outputs) right-hand sides: with fewer outputs it solves the transposed
    system against the output columns on the same LU, since (A^-1)^T =
    (A^T)^-1 for any A.

    A lossless network, Y + Y^H = 0 exactly (Y = jB with B real symmetric,
    as every design gives), needs no condition estimate.  Rounding maps x
    and -x to opposite values, so Y/y0 as computed is skew-Hermitian too and
    A = Y/y0 + I is I plus a skew-Hermitian matrix, whose kappa_1(A) is at
    most n ||A||_F (the lemma of _lossless_kappa_bound).  Within
    DEFAULT_COND_CAP the LU is accepted without gecon (_lu_checked).  A
    lossy or non-finite network, or one past that bound, meets gecon's
    estimate as any matrix does.

    Args:
        y: admittance matrix of the full network.
        partition: port split; inputs come first in the port ordering.
        y0: reference admittance in siemens.

    Returns:
        Complex (n_outputs x n_inputs) transfer block.

    Raises:
        SingularMatrixError: if Y/y0 + I is singular or its condition
            estimate exceeds DEFAULT_COND_CAP.
        NonFiniteInputError: if Y contains NaN or infinite entries.
    """
    _check_positive_finite(ref_admittance=y0)
    if partition.n_ports != y.n_ports:
        raise DimensionMismatchError(
            f"partition covers {partition.n_ports} ports, network has {y.n_ports}"
        )
    n, n_in = y.n_ports, partition.n_inputs
    # A column-major copy of Y, whatever y.y's layout, so that getrf factors
    # it in place and its flat column-major view is a view.  That view lists
    # Y^T row by row, so against Y's own rows it gives y_ij + conj(y_ji) for
    # every (i, j), in one contiguous pass: Y + Y^H = 0 exactly, the
    # certificate (a NaN or inf entry fails it: inf - inf is NaN).
    a = np.array(y.y, order="F")
    entries = a.reshape(-1, order="F")
    with np.errstate(invalid="ignore", over="ignore"):
        lossless = not (y.y.reshape(-1) + entries.conj()).any()
        # Y / y0 + I in place, bit for bit as numpy's complex division by y0
        # and the sum with np.eye(n) give it: that division multiplies by
        # 1 / y0, and the sum's + 0.0 turns every -0.0 into +0.0.  An inf
        # entry makes a NaN here, which the LU check names.
        a *= 1.0 / y0
        a += 0.0
        entries[:: n + 1] += 1.0
        # One row of all of A's entries: n ||A||_F.
        kappa_bound = _lossless_kappa_bound(entries.view(float), n) if lossless else np.inf
    lu, piv = _lu_checked(a, "transfer_block_from_admittance", ("admittance matrix", y.y), kappa_bound)
    # The unit columns of the inputs, or of the outputs for the transposed
    # solve; getrs solves on its own copy of them.
    if n_in <= partition.n_outputs:
        return _GETRS(lu, piv, _unit_columns(n, n_in, 0))[0][n_in:]
    return _GETRS(lu, piv, _unit_columns(n, partition.n_outputs, -n_in), trans=1)[0][:n_in].T


def transfer_block_from_scattering(theta: ScatteringMatrix, partition: PortPartition) -> np.ndarray:
    """Transfer block computed from scattering parameters: (1/2) S[outputs, inputs].

    Equivalent to transfer_block_from_admittance on the corresponding
    admittance matrix, but with no linear solve involved.
    """
    if partition.n_ports != theta.n_ports:
        raise DimensionMismatchError(
            f"partition covers {partition.n_ports} ports, network has {theta.n_ports}"
        )
    return 0.5 * np.array(theta.theta[partition.n_inputs :, : partition.n_inputs])


def check_lossless_reciprocal(
    theta: ScatteringMatrix, tol: float = DEFAULT_UNITARY_TOL
) -> LosslessReciprocalReport:
    """Measure how far a scattering matrix is from lossless and reciprocal.

    Returns:
        LosslessReciprocalReport with unitarity = max |S^H S - I| and
        asymmetry = max |S - S^T|; the report passes iff both residuals
        are within tol.
    """
    t = theta.theta
    eye = np.eye(theta.n_ports)
    unitarity = float(np.abs(t.conj().T @ t - eye).max(initial=0.0))
    asymmetry = float(np.abs(t - t.T).max(initial=0.0))
    return LosslessReciprocalReport(unitarity=unitarity, asymmetry=asymmetry, tol=tol)


def _check_unitary(q: np.ndarray, context: str) -> None:
    resid = np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0)
    # NaN fails `<=`, so a NaN input is rejected.
    if not resid <= DEFAULT_UNITARY_TOL:
        raise NotUnitaryInputError(
            f"{context}: unitarity residual {resid:.3e} exceeds {DEFAULT_UNITARY_TOL:.3e}"
        )


def _port_slices(n_antennas: int, n_streams: int, receive: bool) -> tuple[slice, slice]:
    """Symbol-port and antenna-port slices; the receive side puts the symbol ports last."""
    if receive:
        return slice(n_antennas, None), slice(0, n_antennas)
    return slice(0, n_streams), slice(n_streams, None)


def _complete_scattering(q_bar, q_tilde, receive: bool) -> ScatteringMatrix:
    """Scattering completion of [q_bar, q_tilde]; see complete_scattering_tx and _rx."""
    caller = "complete_scattering_rx" if receive else "complete_scattering_tx"
    q_bar = np.asarray(q_bar, dtype=complex)
    q_tilde = np.asarray(q_tilde, dtype=complex)
    if receive:
        q_bar, q_tilde = np.conj(q_bar), np.conj(q_tilde)
    if q_bar.ndim != 2 or q_tilde.ndim != 2 or q_bar.shape[0] != q_tilde.shape[0]:
        raise DimensionMismatchError(f"{caller}: the two column blocks must share their row count")
    n = q_bar.shape[0]
    n_s = q_bar.shape[1]
    if n_s < 1 or n_s + q_tilde.shape[1] != n:
        raise DimensionMismatchError(
            f"{caller}: column blocks ({n_s} + {q_tilde.shape[1]}) must fill a square {n} x {n} matrix"
        )
    _check_unitary(np.hstack([q_bar, q_tilde]), caller)
    sym, ant = _port_slices(n, n_s, receive)
    theta = np.zeros((n + n_s, n + n_s), dtype=complex)
    theta[sym, ant] = q_bar.T
    theta[ant, sym] = q_bar
    theta[ant, ant] = -(q_tilde @ q_tilde.T)
    return ScatteringMatrix(_mirror_upper(theta))


def complete_scattering_tx(v_bar, v_tilde) -> ScatteringMatrix:
    """Lossless reciprocal scattering completion for the transmit-side network.

    Given the split [v_bar, v_tilde] of a unitary matrix into the columns to
    be realized as the symbol-to-antenna transfer (v_bar) and the remaining
    orthonormal columns (v_tilde), builds the scattering matrix

        [[0,      v_bar^T        ],
         [v_bar,  -v_tilde v_tilde^T]]

    which is unitary, exactly symmetric, and realizes v_bar / 2 as its
    input-to-output transfer block.

    Args:
        v_bar: complex (n_antennas x n_streams) column block.
        v_tilde: complex (n_antennas x (n_antennas - n_streams)) completion
            columns; may have zero columns when n_streams == n_antennas.

    Raises:
        NotUnitaryInputError: if the stacked matrix is not unitary within
            DEFAULT_UNITARY_TOL (max-abs residual of Q^H Q - I).
        DimensionMismatchError: if the blocks do not stack to a square matrix.
    """
    return _complete_scattering(v_bar, v_tilde, receive=False)


def complete_scattering_rx(u_bar, u_tilde) -> ScatteringMatrix:
    """Lossless reciprocal scattering completion for the receive-side network.

    The transmit completion of [conj(u_bar), conj(u_tilde)] with the symbol
    ports placed last: unitary, exactly symmetric, and realizing u_bar^H / 2
    as its antenna-to-symbol transfer block.  Arguments and errors are those
    of complete_scattering_tx.
    """
    return _complete_scattering(u_bar, u_tilde, receive=True)


def _imag_part_inverse(m: np.ndarray, context: str) -> np.ndarray:
    """Invert the imaginary part of a unitary factor, rejecting near-singular cases.

    An exact zero pivot rejects M; otherwise its singular values decide
    (_regular_by_values).  This dense reference takes no certificate: the
    factored synthesis it is compared against does.
    """
    try:
        minv = np.linalg.solve(m, np.eye(m.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularImaginaryPartError(f"{context}: imaginary part has an exact zero pivot") from exc
    sv = np.linalg.svd(m, compute_uv=False)
    if not _regular_by_values(sv[0], sv[-1]):
        raise SingularImaginaryPartError(
            f"{context}: imaginary part has sigma_min = {sv[-1]:.3e} <= "
            f"{DEFAULT_IMAG_SV_REL:.1e} * max(sigma_max, 1), sigma_max = {sv[0]:.3e}"
        )
    return minv


def _regular_by_values(sv_max, sv_min):
    """Whether a matrix with these extreme singular values counts as regular:
    sigma_min > floor max(sigma_max, 1), with floor = DEFAULT_IMAG_SV_REL read
    at call time (elementwise over stacked values; NaN fails).  The imaginary
    part of a unitary has sigma_max <= 1, so it is judged on the unitary's own
    scale, not on its own: one whose entries are all rounding noise fails."""
    return sv_min > DEFAULT_IMAG_SV_REL * np.maximum(sv_max, 1.0)


@np.errstate(all="ignore")  # a figure that overflows or is NaN certifies nothing
def _certified_regular(k: np.ndarray, x: np.ndarray, n: int, outside) -> np.ndarray:
    """Per real r x r matrix K of a stack, whether its approximate inverse X
    proves _regular_core's verdict "regular", without K's singular values;
    False leaves K undecided.

    With rho >= ||K X - I||_F, rho < 1: ||K X - I||_2 <= rho, so sigma_min(K)
    ||X||_2 >= sigma_min(K X) >= 1 - rho and sigma_min(K) >= (1 - rho) /
    ||X||_F; and sigma_max(K) <= ||K||_F.  rho is the computed residual plus
    gamma ||K||_F ||X||_F, gamma = (r + 2) eps, which bounds the rounding of
    K X.  K counts as regular when that lower bound, and outside when r < n
    (as in _regular_core), clears (DEFAULT_IMAG_SV_REL + 4 gamma) max(||K||_F,
    1): the 4 gamma on the unitary's scale covers the rounding of the norms
    and of the exact verdict's own singular values, so it accepts K too.
    """
    r = k.shape[-1]
    gamma = (r + 2) * _EPS
    # K X - I, X and K, stacked so that one call takes the three Frobenius norms.
    parts = np.empty((3,) + k.shape)
    np.matmul(k, x, out=parts[0])
    parts[0].reshape(k.shape[:-2] + (r * r,))[..., :: r + 1] -= 1.0
    parts[1] = x
    parts[2] = k
    residual, x_norm, k_norm = np.sqrt(np.einsum("...ij,...ij->...", parts, parts))
    lower = (1.0 - residual - gamma * k_norm * x_norm) / x_norm
    if r < n:
        lower = np.minimum(lower, outside)
    return lower > (DEFAULT_IMAG_SV_REL + 4.0 * gamma) * np.maximum(k_norm, 1.0)


def _synthesize_susceptance(q, n_streams: int, y0: float, receive: bool) -> SusceptanceMatrix:
    """Closed-form susceptance synthesis; see susceptance_tx and susceptance_rx."""
    caller = "susceptance_rx" if receive else "susceptance_tx"
    q = _as_square_complex(q, "unitary factor")
    _check_finite((f"{caller}: unitary factor", q))
    if receive:
        np.conjugate(q, out=q)
    n = q.shape[0]
    _check_integers(n_streams=n_streams)
    if not 1 <= n_streams <= n:
        raise DimensionMismatchError(f"{caller}: n_streams {n_streams} out of range for {n} antennas")
    _check_positive_finite(ref_admittance=y0)
    minv = _imag_part_inverse(q.imag, caller)
    r = q.real
    return _assemble_susceptance((minv @ r)[:n_streams, :n_streams], -minv[:n_streams], r @ minv, y0, receive)


def _assemble_susceptance(bss, bsa, baa, y0: float, receive: bool) -> SusceptanceMatrix:
    """y0 [[bss, bsa], [bsa^T, baa]] in the side's port order, mirrored to exact symmetry.

    The buffer the blocks are assembled in is scaled and mirrored in place
    and then held by the SusceptanceMatrix: exactly symmetric, it needs the
    finite-entry check alone.
    """
    n, s = baa.shape[0], bss.shape[0]
    sym, ant = _port_slices(n, s, receive)
    b = np.empty((n + s, n + s))
    b[sym, sym] = bss
    b[sym, ant] = bsa
    b[ant, sym] = bsa.T
    b[ant, ant] = baa
    b *= y0
    _mirror_upper(b, out=b)
    if not np.isfinite(b).all():
        raise ValueError("susceptance matrix contains non-finite entries")
    return _held(SusceptanceMatrix, b=_frozen(b))


def susceptance_tx(v, n_streams: int, y0: float = DEFAULT_REF_ADMITTANCE) -> SusceptanceMatrix:
    """Susceptance matrix of the transmit-side network realizing v_bar / 2.

    Closed-form synthesis from a unitary matrix v whose first n_streams
    columns are the target symbol-to-antenna transfer (up to the factor 1/2).
    Writing R = Re{v} and M = Im{v}, the susceptance matrix is

        y0 * [[ (M^-1 R)[:s, :s],  -(M^-1)[:s, :] ],
              [ -(M^-1)[:s, :]^T,   R M^-1        ]]

    with s = n_streams.  The result is exactly symmetric by construction.

    Args:
        v: complex unitary (n_antennas x n_antennas) matrix.
        n_streams: number of symbol ports (first columns of v realized).
        y0: reference admittance in siemens.

    Raises:
        NonFiniteInputError: if v contains NaN or infinite entries.
        SingularImaginaryPartError: if Im{v} is singular at DEFAULT_IMAG_SV_REL;
            rotate the columns of v by nonreal phases and retry.
    """
    return _synthesize_susceptance(v, n_streams, y0, receive=False)


def susceptance_rx(u, n_streams: int, y0: float = DEFAULT_REF_ADMITTANCE) -> SusceptanceMatrix:
    """Susceptance matrix of the receive-side network realizing u_bar^H / 2.

    The network is reciprocal, so it is the transmit synthesis of conj(u)
    with the antenna ports first and the symbol ports last.  Arguments and
    errors are those of susceptance_tx.
    """
    return _synthesize_susceptance(u, n_streams, y0, receive=True)


def _completion(q_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary completion Q' = I + a (z - I) a^T of orthonormal columns q_bar, with Q'[:, :s] = q_bar.

    Every column of q_bar lies in range(a) of the real orthonormal basis
    a = blockdiag(I_s, b), b spanning [Re q_bar[s:], Im q_bar[s:]]: a has
    r = s + min(n - s, 2s) <= min(n, 3s) columns, and q_hat = a^T q_bar is
    r x s with orthonormal columns.  One complete Householder QR of q_hat
    gives an r x r unitary whose R is diagonal with entries +-1 up to
    rounding, so its leading columns are replaced by q_hat itself: that is
    z, and Q' acts as z on range(a) and as the identity off it.  Its
    reflectors are those of the n x s Householder QR of q_bar, restricted to
    range(a).  A real q_bar gives a real z.  A stack of q_bar (leading axes)
    gives stacks of a and z, each from one stacked call.
    """
    n, s = q_bar.shape[-2:]
    low = q_bar[..., s:, :]
    # [Re, Im] q_bar[s:] = b t, so b^T q_bar[s:] = t[:, :s] + j t[:, s:].
    b, t = np.linalg.qr(np.concatenate([low.real, low.imag], axis=-1), mode="reduced")
    r = s + b.shape[-1]
    a = np.zeros(q_bar.shape[:-2] + (n, r))
    a[..., :s, :s] = _identity(s)
    a[..., s:, s:] = b
    q_hat = np.empty(q_bar.shape[:-2] + (r, s), dtype=complex)
    q_hat[..., :s, :] = q_bar[..., :s, :]
    q_hat.real[..., s:, :] = t[..., :s]
    q_hat.imag[..., s:, :] = t[..., s:]
    z = np.linalg.qr(q_hat, mode="complete")[0]
    z[..., :s] = q_hat
    return a, z


@dataclass(frozen=True, eq=False)
class _FactoredSusceptance:
    """One side's susceptance network, kept as a small core on an orthonormal basis.

    In the transmit port order (symbols, then antennas) B / y0 = E core E^T
    with E = blockdiag(I_s, a), plus the antenna shunt -tan(theta) (I - a a^T)
    when theta is nonzero: a is n x r with orthonormal columns and core is real
    symmetric (s + r) x (s + r).  The receive network puts its antenna ports
    first.  The network realizes the unitary completion e^{j theta} Q',
    Q' = I + a (z - I) a^T with z the r x r unitary of _completion; see
    _synthesize_factored.  Stacked a, core, z and theta (leading axes) hold
    one network per trial; dense() takes a single network.
    """

    a: np.ndarray
    core: np.ndarray
    z: np.ndarray
    y0: float
    receive: bool
    theta: np.ndarray

    def dense(self) -> SusceptanceMatrix:
        """The full susceptance matrix, in O(n^2 s)."""
        a, core = self.a, self.core
        if a.ndim != 2:
            raise DimensionMismatchError(f"a stack of {a.shape[:-2]} networks has no single susceptance matrix")
        s = core.shape[0] - a.shape[1]
        bsa = core[:s, s:] @ a.T
        baa = a @ core[s:, s:] @ a.T
        if self.theta:
            baa -= np.tan(self.theta) * (np.eye(len(a)) - a @ a.T)
        return _assemble_susceptance(core[:s, :s], bsa, baa, self.y0, self.receive)

    def unitary(self) -> np.ndarray:
        """The dense V (U on the receive side) whose susceptance_tx (susceptance_rx) is this network."""
        a = self.a
        q = np.eye(a.shape[-2]) + a @ (self.z - np.eye(a.shape[-1])) @ a.swapaxes(-1, -2)
        theta = np.asarray(self.theta)[..., None, None]
        # Not a multiply by 1 at theta = 0, which can flip a signed zero.
        q = np.where(theta == 0, q, np.exp(1j * theta) * q)
        return 1j * (np.conj(q) if self.receive else q)


def _transfer_blocks(*networks: _FactoredSusceptance) -> tuple:
    """transfer_block_from_admittance of each network's dense form, in O(n s^2).

    N = I + jB/y0 maps the range of E onto itself, where it acts as the
    m-port core C = I + j core, m = s + r; the symbol columns of N^-1 are
    E C^-1 [I_s; 0].  Cores that share one shape, as both sides of a square
    link do, are solved in one stacked call; otherwise each network is
    solved on its own.  N is symmetric, so the receive block (symbol rows,
    antenna columns) is the transpose of the antenna rows of the symbol
    columns.

    The lemma: core is exactly symmetric (the synthesis averages it with its
    transpose) and 1j * core has real part +-0, so C is I plus a
    skew-Hermitian matrix and kappa_1(C) <= sqrt(m) ||C||_1 <= m max_j
    ||c_j||_2 (_lossless_kappa_bound, over C's columns).  Within
    DEFAULT_COND_CAP only the s columns [I_s; 0] are solved; numpy's inv is
    gesv against I, so they hold its bits.  Its proven range at the default
    floors: an accepted side has ||K^-1||_2 < 1 / DEFAULT_IMAG_SV_REL = 1e8,
    a rotated one ||K^-1||_2 <= 1 / sin(pi / (2 (r + 1))), and each block of
    core is K^-1 or rows of it, times at most a block of Im W (norm <= 1),
    so ||core||_2 <= 3e8 and the bound is at most m ||C||_2 <= m (1 + 3e8):
    within the cap of 1e12 for m <= 3,333, so for every link with n <= 1,666
    antennas or s <= 833.  Past the bound (a NaN or huge core, or a cap set
    lower) the group is inverted in full and
    a network (each matrix of a stack) is rejected unless its exact kappa_1
    = ||C||_1 ||C^-1||_1 is at most DEFAULT_COND_CAP (a NaN fails), checked
    in order, so the error names the first side past the cap.  gecon's
    figure, which _solve_checked judges, is a lower bound of kappa_1, so
    every core it rejects is rejected here too.
    """
    shared = len({net.core.shape for net in networks}) == 1
    blocks = []
    for group in [networks] if shared else [(net,) for net in networks]:
        m = group[0].core.shape[-1]
        c = _identity(m) + 1j * np.stack([net.core for net in group])
        # C is symmetric, so its rows are its columns.
        if _lossless_kappa_bound(c.view(float), m) <= DEFAULT_COND_CAP:
            # The symbol columns of C^-1: numpy's inv is gesv against I, so these are its bits.
            s = max(m - net.a.shape[-1] for net in group)
            cols = np.linalg.solve(c, _unit_columns(m, s, 0)[(None,) * (c.ndim - 2)])
        else:
            cols = np.linalg.inv(c)
            kappa = np.linalg.norm(c, 1, axis=(-2, -1)) * np.linalg.norm(cols, 1, axis=(-2, -1))
            for net, net_kappa in zip(group, kappa):
                if not (net_kappa <= DEFAULT_COND_CAP).all():
                    side = "susceptance_rx" if net.receive else "susceptance_tx"
                    raise SingularMatrixError(
                        f"{side} circuit: condition number {np.max(net_kappa):.3e} exceeds cap {DEFAULT_COND_CAP:.3e}"
                    )
        for net, net_cols in zip(group, cols):
            s = m - net.a.shape[-1]
            x = net.a @ net_cols[..., s:, :s]
            blocks.append(x.swapaxes(-1, -2) if net.receive else x)
    return tuple(blocks)


def _synthesize_factored(q_bar, y0: float, receive):
    """Factored synthesis of the network realizing orthonormal columns q_bar.

    The network is susceptance_tx(V, s, y0) with V = j e^{j theta} Q', Q' the
    completion I + a (z - I) a^T of q_bar = v_bar (_completion); on the
    receive side q_bar = conj(u_bar), and it is susceptance_rx(U, s, y0) with
    conj(U) = -j e^{j theta} Q', so U[:, :s] = j e^{-j theta} u_bar.  No rate
    depends on theta.  Q' is the identity off range(a) and the r x r unitary
    z on it, so with W = e^{j theta} z and c = cos theta, Im V is +-X =
    +-Re(e^{j theta} Q') = +-(c (I - a a^T) + a K a^T), K = Re W.  By
    Woodbury X^-1 a = a K^-1 puts every block of B on the basis a, but for
    the antenna shunt -tan(theta) (I - a a^T), and X has the singular values
    of K and, when r < n, n - r of c: they decide, in O(n s^2) and without
    the dense n x n matrix.

    Every side is judged at theta = 0, where W = z; a side that passes keeps
    theta = 0.  The stacked solve that inverts the cores decides first
    (_judged_inverse): K^-1 certifies sigma_min(K) > DEFAULT_IMAG_SV_REL
    max(sigma_max(K), 1) through the residual rho = ||K K^-1 - I||_F < 1,
    sigma_min(K) >= (1 - rho) / ||K^-1||_F and sigma_max(K) <= ||K||_F, with
    c when r < n (_certified_regular); K's singular values (_regular_core)
    decide only the sides it leaves undecided, so every verdict is theirs.
    A rejected side takes theta* (_rotation), which bounds every singular
    value of X below by sin(pi / (2 (r + 1))) >= sin(pi / (6 s + 2)); a
    stack whose first solve raises (an exactly singular core) is repaired
    too.  Then the whole final stack is solved and judged once more, as a
    guard whose K^-1 the cores take: K = Re W and, when r < n, cos theta
    must clear the floor.  Each core is solved on its own within the stack,
    so an accepted side meets the guard with its first bits (cos 0 = 1) and
    no side's repair moves another side's bits.

    A stack of q_bar (leading axes) is synthesized in one pass, and so are
    both sides of a link: with a tuple of per-side receive flags the leading
    axis of q_bar holds the sides, which differ only in the sign of core's
    symbol-antenna block, and the result is the tuple of their networks.

    Raises:
        SingularImaginaryPartError: if the guard rejects a core or its solve
            raises, which only a DEFAULT_IMAG_SV_REL above the bound, or a
            verdict that accepts an exactly singular core, allows.
    """
    n, s = q_bar.shape[-2:]
    trials = q_bar.shape[:-2]
    a, z = _completion(q_bar)
    r = a.shape[-1]
    theta = np.zeros(trials)
    w = z
    kinv, regular = _judged_inverse(z.real, n, 1.0)
    if kinv is None or not regular.all():
        rejected = ~regular
        theta[rejected] = _rotation(z[rejected])
        w = z.copy()
        w[rejected] *= np.exp(1j * theta[rejected])[:, None, None]
        kinv, regular = _judged_inverse(w.real, n, np.cos(theta))
        if kinv is None or not regular.all():
            raise SingularImaginaryPartError(
                f"imaginary part has sigma_min <= {DEFAULT_IMAG_SV_REL:.1e} * max(sigma_max, 1) "
                "after the closed-form rotation"
            )
    # With Y = Im(e^{j theta} Q'), which acts on range(a) as G = Im W, the
    # side's (Im, Re) pair (M, R) is (X, -Y), or (-X, Y) on the receive side:
    # M^-1 R = -X^-1 Y and R M^-1 = -Y X^-1 either way, and only the
    # symbol-antenna block -M^-1[:s] changes sign.  Its coordinates are
    # (X^-1 a)[:s] = (a K^-1)[:s] = K^-1[:s], as a[:s] = [I_s, 0].
    top = kinv[..., :s, :]
    negated = -w.imag
    core = np.empty(trials + (s + r, s + r))
    core[..., :s, :s] = top @ negated[..., :, :s]
    np.multiply(_side_signs(receive, top.ndim), top, out=core[..., :s, s:])
    core[..., s:, :s] = core[..., :s, s:].swapaxes(-1, -2)
    core[..., s:, s:] = negated @ kinv
    # Symmetric in exact arithmetic; averaged with its transpose, exactly.
    core = core + core.swapaxes(-1, -2)
    core *= 0.5
    if np.ndim(receive):
        return tuple([_FactoredSusceptance(a[i], core[i], z[i], y0, side, theta[i]) for i, side in enumerate(receive)])
    return _FactoredSusceptance(a, core, z, y0, receive, theta)


@functools.lru_cache(maxsize=8)
def _side_signs(receive, ndim: int) -> np.ndarray:
    """Read-only -1 for a transmit side and +1 for a receive side (exact
    factors), shaped to scale a stack of ndim-axis blocks, sides first."""
    return _frozen(np.where(receive, 1.0, -1.0).reshape((-1,) + (1,) * (ndim - 1)))


def _regular_core(k: np.ndarray, n: int, outside) -> np.ndarray:
    """Per core K of a stack, whether X = a K a^T + outside (I - a a^T) is regular
    (_regular_by_values): it has K's singular values and, when r < n, outside,
    a cosine in (0, 1], which can lower sigma_min but cannot raise the floor."""
    sv = np.linalg.svd(k, compute_uv=False)
    sv_min = sv[..., -1] if k.shape[-1] == n else np.minimum(sv[..., -1], outside)
    return _regular_by_values(sv[..., 0], sv_min)


def _judged_inverse(k: np.ndarray, n: int, outside) -> tuple:
    """(K^-1, _regular_core's verdict) of a stack of cores K, from one solve.

    The solve's K^-1 certifies each core it can (_certified_regular), and
    _regular_core decides the rest; a stack whose solve raises (an exactly
    singular or a NaN core) is decided by _regular_core alone, with None for
    K^-1.  outside is a scalar or one value per core.
    """
    # b gets k's number of axes: numpy 1.x solves a b with one axis fewer as a stack of vectors.
    try:
        kinv = np.linalg.solve(k, _identity(k.shape[-1])[(None,) * (k.ndim - 2)])
    except np.linalg.LinAlgError:
        return None, _regular_core(k, n, outside)
    regular = np.asarray(_certified_regular(k, kinv, n, outside))
    if not regular.all():
        undecided = ~regular
        regular[undecided] = _regular_core(k[undecided], n, outside if np.ndim(outside) == 0 else outside[undecided])
    return kinv, regular


def _rotation(z: np.ndarray) -> np.ndarray:
    """The angle theta* in (-pi/2, pi/2) of each r x r unitary Z of a stack.

    Re(e^{j theta} Z) has the singular values |cos(theta + psi_i / 2)|, where
    e^{j psi_i} are the eigenvalues of the symmetric unitary Z^T Z, and the
    complement of range(a) adds psi = 0.  With c the midpoint of the largest
    circular gap of {0, psi_1, ..., psi_r}, 2 theta* = pi - c moves that gap's
    middle to pi: every angle stays at least pi / (r + 1) from pi, so every
    singular value is at least sin(pi / (2 (r + 1))), cos(theta*) included.
    """
    psi = np.angle(np.linalg.eigvals(z.swapaxes(-1, -2) @ z))
    points = np.sort(np.concatenate([np.zeros(psi.shape[:-1] + (1,)), psi], axis=-1), axis=-1)
    gaps = np.diff(points, axis=-1, append=points[..., :1] + 2 * np.pi)
    middle = np.take_along_axis(points + gaps / 2, gaps.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return np.angle(-np.exp(-1j * middle)) / 2


def dump_matrix_csv(matrix, path) -> None:
    """Write a matrix to CSV with each entry as a re,im pair of columns."""
    # Each row's interleaved re, im doubles through one format string.
    pairs = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=complex))).view(float)
    line = ",".join(["%.17e"] * pairs.shape[-1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line % tuple(row) for row in pairs.tolist())
