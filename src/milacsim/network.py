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

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionMismatchError,
    NotUnitaryInputError,
    SingularImaginaryPartError,
    SingularMatrixError,
    _check_integers,
    _check_positive_finite,
)

# Reference admittance of a 50 ohm system, in siemens.
DEFAULT_REF_ADMITTANCE = 1.0 / 50.0

# Condition-number cap above which a linear solve is treated as singular.
DEFAULT_COND_CAP = 1e12

# Max-abs tolerance for unitarity / symmetry checks of scattering matrices.
DEFAULT_UNITARY_TOL = 1e-10

# Relative symmetry tolerance accepted when constructing a SusceptanceMatrix.
DEFAULT_SYMMETRY_TOL = 1e-9

# Im{V} counts as singular when its smallest singular value falls below
# this fraction of its spectral norm.
DEFAULT_IMAG_SV_REL = 1e-8


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
        if not np.all(np.isfinite(b)):
            raise ValueError("susceptance matrix contains non-finite entries")
        scale = np.abs(b).max(initial=0.0)
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


def _solve_checked(a: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """LU solve of a x = rhs that rejects matrices beyond DEFAULT_COND_CAP."""
    a = np.ascontiguousarray(a, dtype=complex)
    anorm = np.linalg.norm(a, 1)
    try:
        with warnings.catch_warnings():
            # An exactly singular factor is reported through the rcond check
            # below; the interim warning would only add noise.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    except (ValueError, scipy.linalg.LinAlgError) as exc:
        raise SingularMatrixError(f"{context}: LU factorization failed ({exc})") from exc
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm)
    if not np.isfinite(rcond) or rcond * DEFAULT_COND_CAP < 1.0:
        est = np.inf if rcond == 0 else 1.0 / rcond
        raise SingularMatrixError(
            f"{context}: condition estimate {est:.3e} exceeds cap {DEFAULT_COND_CAP:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def _mirror_upper(b: np.ndarray) -> np.ndarray:
    """Exact symmetrization: reflect the upper triangle onto the lower one."""
    return np.triu(b) + np.triu(b, 1).T


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
    """
    _check_positive_finite(ref_admittance=y0)
    eye = np.eye(y.n_ports)
    theta = _solve_checked(y0 * eye + y.y, y0 * eye - y.y, "admittance_to_scattering")
    return ScatteringMatrix(theta)


def scattering_to_admittance(theta: ScatteringMatrix, y0: float = DEFAULT_REF_ADMITTANCE) -> AdmittanceMatrix:
    """Convert scattering parameters back to admittance parameters.

    Computes Y = y0 (2 (S + I)^-1 - I), the inverse of
    admittance_to_scattering.

    Raises:
        SingularMatrixError: if S + I is singular (an eigenvalue of S is -1),
            which corresponds to a network with no admittance description.
    """
    _check_positive_finite(ref_admittance=y0)
    eye = np.eye(theta.n_ports)
    inv = _solve_checked(theta.theta + eye, eye, "scattering_to_admittance")
    return AdmittanceMatrix(y0 * (2.0 * inv - eye))


def transfer_block_from_admittance(
    y: AdmittanceMatrix, partition: PortPartition, y0: float = DEFAULT_REF_ADMITTANCE
) -> np.ndarray:
    """Input-to-output voltage transfer block of a terminated network.

    With every port fed through (inputs) or loaded by (outputs) the reference
    admittance, the transfer from input-port source amplitudes to output-port
    voltages is the lower-left block of (Y/y0 + I)^-1: rows at the output
    ports, columns at the input ports.

    Args:
        y: admittance matrix of the full network.
        partition: port split; inputs come first in the port ordering.
        y0: reference admittance in siemens.

    Returns:
        Complex (n_outputs x n_inputs) transfer block.
    """
    _check_positive_finite(ref_admittance=y0)
    if partition.n_ports != y.n_ports:
        raise DimensionMismatchError(
            f"partition covers {partition.n_ports} ports, network has {y.n_ports}"
        )
    n = y.n_ports
    rhs = np.eye(n)[:, : partition.n_inputs]
    x = _solve_checked(y.y / y0 + np.eye(n), rhs, "transfer_block_from_admittance")
    return np.array(x[partition.n_inputs :, :])


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
    if resid > DEFAULT_UNITARY_TOL:
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

    M is singular when sigma_min <= rel_tol * sigma_max, with rel_tol =
    DEFAULT_IMAG_SV_REL read at call time.  The explicit inverse gives
    kappa_1 exactly and kappa_2 <= n kappa_1, so n rel_tol kappa_1 < 1
    proves M regular without an SVD (a NaN bound fails it), and an exact zero
    pivot rejects it; the singular values decide only when neither does.
    """
    n = m.shape[0]
    rel_tol = DEFAULT_IMAG_SV_REL
    try:
        minv = np.linalg.solve(m, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularImaginaryPartError(f"{context}: imaginary part has an exact zero pivot") from exc
    if n * rel_tol * np.linalg.norm(m, 1) * np.linalg.norm(minv, 1) < 1.0:
        return minv
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= rel_tol * sv[0]:
        raise SingularImaginaryPartError(
            f"{context}: smallest singular value {sv[-1]:.3e} is below "
            f"{rel_tol:.1e} of the spectral norm {sv[0]:.3e}"
        )
    return minv


def _synthesize_susceptance(q, n_streams: int, y0: float, receive: bool) -> SusceptanceMatrix:
    """Closed-form susceptance synthesis; see susceptance_tx and susceptance_rx."""
    caller = "susceptance_rx" if receive else "susceptance_tx"
    q = _as_square_complex(q, "unitary factor")
    if receive:
        np.conjugate(q, out=q)
    n = q.shape[0]
    _check_integers(n_streams=n_streams)
    if not 1 <= n_streams <= n:
        raise DimensionMismatchError(f"{caller}: n_streams {n_streams} out of range for {n} antennas")
    _check_positive_finite(ref_admittance=y0)
    minv = _imag_part_inverse(q.imag, caller)
    r = q.real
    sym, ant = _port_slices(n, n_streams, receive)
    b = np.empty((n + n_streams, n + n_streams))
    b[sym, sym] = (minv @ r)[:n_streams, :n_streams]
    b[sym, ant] = -minv[:n_streams, :]
    b[ant, sym] = -minv[:n_streams, :].T
    b[ant, ant] = r @ minv
    return SusceptanceMatrix(_mirror_upper(y0 * b))


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


def dump_matrix_csv(matrix, path) -> None:
    """Write a matrix to CSV with each entry as a re,im pair of columns."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(f"{z.real:.17e},{z.imag:.17e}" for z in row))
            fh.write("\n")
