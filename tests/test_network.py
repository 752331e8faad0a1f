"""Tests for multiport network conversions, completions, and susceptance synthesis."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

from milacsim import (
    AdmittanceMatrix,
    DimensionMismatchError,
    NonFiniteInputError,
    NotUnitaryInputError,
    PortPartition,
    ScatteringMatrix,
    SingularImaginaryPartError,
    SingularMatrixError,
    SusceptanceMatrix,
    admittance_to_scattering,
    check_lossless_reciprocal,
    complete_scattering_rx,
    complete_scattering_tx,
    dump_matrix_csv,
    scattering_to_admittance,
    susceptance_rx,
    susceptance_tx,
    transfer_block_from_admittance,
    transfer_block_from_scattering,
)
import milacsim.network as network
from milacsim import SystemConfig, design_milac, svd_ordered
from milacsim.network import DEFAULT_IMAG_SV_REL, _imag_part_inverse, _solve_checked

Y0 = 1.0 / 50.0


def random_unitary(n, seed):
    return unitary_group.rvs(n, random_state=np.random.default_rng(seed))


def rotated_unitary(n, seed):
    """Random unitary with random column phases, so Im is well-conditioned."""
    rng = np.random.default_rng(seed)
    return unitary_group.rvs(n, random_state=rng) * np.exp(2j * np.pi * rng.random(n))


# ---------------------------------------------------------------------------
# admittance_to_scattering


def test_zero_admittance_reflects_fully():
    theta = admittance_to_scattering(AdmittanceMatrix(np.zeros((2, 2))), Y0)
    assert np.array_equal(theta.theta, np.eye(2))


def test_matched_admittance_absorbs_fully():
    theta = admittance_to_scattering(AdmittanceMatrix(Y0 * np.eye(3)), Y0)
    assert np.abs(theta.theta).max() == 0.0


@pytest.mark.parametrize("b1_scale", [-1.0, 0.5, 3.0])
def test_single_port_susceptance_reflects_with_unit_modulus(b1_scale):
    # Oracle: direct scalar evaluation of (y0 - jb) / (y0 + jb).
    b1 = b1_scale * Y0
    expected = (Y0 - 1j * b1) / (Y0 + 1j * b1)
    theta = admittance_to_scattering(AdmittanceMatrix(np.array([[1j * b1]])), Y0)
    assert abs(theta.theta[0, 0] - expected) < 1e-15
    assert abs(abs(theta.theta[0, 0]) - 1.0) < 1e-15


def test_singular_admittance_rejected():
    # Y = -y0 I makes y0 I + Y exactly zero.
    with pytest.raises(SingularMatrixError):
        admittance_to_scattering(AdmittanceMatrix(-Y0 * np.eye(2)), Y0)


# ---------------------------------------------------------------------------
# scattering_to_admittance


def test_identity_scattering_gives_zero_admittance():
    y = scattering_to_admittance(ScatteringMatrix(np.eye(2)), Y0)
    assert np.abs(y.y).max() == 0.0


def test_zero_scattering_gives_matched_admittance():
    y = scattering_to_admittance(ScatteringMatrix(np.zeros((2, 2))), Y0)
    assert np.allclose(y.y, Y0 * np.eye(2), atol=1e-18)


def test_eigenvalue_minus_one_rejected():
    with pytest.raises(SingularMatrixError):
        scattering_to_admittance(ScatteringMatrix(-np.eye(2)), Y0)


def test_lossless_reciprocal_scattering_gives_imaginary_admittance():
    # Q Q^T is unitary and symmetric for any unitary Q; the resulting
    # admittance must be purely imaginary (susceptive network).
    for seed in range(20):
        q = random_unitary(4, seed)
        y = scattering_to_admittance(ScatteringMatrix(q @ q.T), Y0)
        assert np.abs(y.y.real).max() <= 1e-10 * Y0


def test_round_trip_admittance_scattering():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        y = AdmittanceMatrix(Y0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        back = scattering_to_admittance(admittance_to_scattering(y, Y0), Y0)
        assert np.linalg.norm(back.y - y.y) <= 1e-10 * np.linalg.norm(y.y)


# ---------------------------------------------------------------------------
# transfer blocks


def test_transfer_block_of_zero_admittance_is_zero():
    block = transfer_block_from_admittance(AdmittanceMatrix(np.zeros((5, 5))), PortPartition(2, 3), Y0)
    assert block.shape == (3, 2)
    assert np.abs(block).max() == 0.0


def test_transfer_block_admittance_matches_scattering_path():
    # Consistency: converting the completion to admittance and extracting the
    # block must match half the scattering block.
    for seed in range(10):
        n_t, n_s = 5, 2
        v = random_unitary(n_t, seed)
        theta = complete_scattering_tx(v[:, :n_s], v[:, n_s:])
        y = scattering_to_admittance(theta, Y0)
        part = PortPartition(n_s, n_t)
        from_y = transfer_block_from_admittance(y, part, Y0)
        from_s = transfer_block_from_scattering(theta, part)
        assert np.abs(from_y - from_s).max() < 1e-12


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
def test_transfer_block_with_fewer_outputs_equals_the_all_inputs_solve(symmetric):
    # With fewer outputs the block comes from the transposed solve against the
    # output columns; it must match the block of the inverse's input columns.
    rng = np.random.default_rng(3)
    for n_in, n_out in ((6, 2), (9, 1), (3, 3), (2, 5)):
        n = n_in + n_out
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = AdmittanceMatrix(Y0 * (a + a.T if symmetric else a))
        block = transfer_block_from_admittance(y, PortPartition(n_in, n_out), Y0)
        full = np.linalg.solve(y.y / Y0 + np.eye(n), np.eye(n))[n_in:, :n_in]
        assert block.shape == (n_out, n_in)
        assert np.abs(block - full).max() <= 1e-13 * max(1.0, np.abs(full).max())


def test_checked_solve_is_scipy_lu_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (6, 10, 136):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rhs = np.eye(n)[:, : n // 2]
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), rhs)
        assert np.array_equal(_solve_checked(a, rhs, "test"), expected)
    with pytest.raises(SingularMatrixError, match="test: condition estimate inf"):
        _solve_checked(np.zeros((3, 3)), np.eye(3), "test")


def _with_signed_zeros(y, rng):
    """y with about a third of its real and of its imaginary parts set to +0.0 or -0.0."""
    y = np.array(y, dtype=complex)
    for part in (y.real, y.imag):
        zeros = rng.random(part.shape) < 0.35
        part[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return y


@pytest.mark.parametrize("n_in, n_out", [(2, 5), (5, 2), (3, 3)], ids=["fewer-inputs", "fewer-outputs", "square"])
def test_transfer_block_keeps_the_bits_of_the_division_and_identity_solve(n_in, n_out):
    # The block forms Y / y0 + I by one multiply and solves against unit columns
    # built directly; its bits must be those of dividing by y0, adding np.eye(n)
    # and solving against np.eye(n)'s columns, signed zeros included.  Every
    # second case couples no input to an output, so its block is all zeros, and
    # every third is a design's Y = jB form.  Y is given row-major, column-major,
    # as a transposed view and as a strided view, since an admittance keeps its
    # input's memory layout.
    rng = np.random.default_rng(23)
    n = n_in + n_out
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=complex)
    for case in range(24):
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if case % 3 == 1:
            y = 1j * (y.real + y.real.T)
        if case % 2:
            y[:n_in, n_in:] = y[n_in:, :n_in] = 0.0
        y = _with_signed_zeros(y, rng)
        for y0 in (Y0, 1.0, 3.0):
            lu, piv, _ = getrf(y / y0 + np.eye(n))
            if n_in <= n_out:
                expected = getrs(lu, piv, np.eye(n)[:, :n_in])[0][n_in:]
            else:
                expected = getrs(lu, piv, np.eye(n)[:, n_in:], trans=1)[0][:n_in].T
            strided = np.zeros((2 * n, 2 * n), dtype=complex)
            strided[::2, ::2] = y
            for layout in (y, np.asfortranarray(y), y.T.copy().T, strided[::2, ::2]):
                block = transfer_block_from_admittance(AdmittanceMatrix(layout), PortPartition(n_in, n_out), y0)
                assert block.shape == expected.shape == (n_out, n_in)
                assert block.tobytes() == expected.tobytes()


def _reference_solve(y, n_in, y0):
    """The parent path's block, gecon figure and sqrt(n) ||A||_1 for A = Y / y0 + I:
    getrf on a row-major copy, gecon on its 1-norm summed row by row, getrs."""
    n = len(y)
    a = y / y0 + np.eye(n)
    getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=complex)
    lu, piv, _ = getrf(a)
    rcond = gecon(lu, np.abs(a).sum(axis=0).max())[0]
    if n_in <= n - n_in:
        block = getrs(lu, piv, np.eye(n)[:, :n_in])[0][n_in:]
    else:
        block = getrs(lu, piv, np.eye(n)[:, n_in:], trans=1)[0][:n_in].T
    return block, 1.0 / rcond, np.sqrt(n) * np.linalg.norm(a, 1)


def _lossless_admittances(repair_channel):
    """(name, Y, n_in, n_out): both dense networks of designs from 4 to 128 ports,
    the phase-repaired transmit side (with its antenna shunt term) included, and
    1j (G + G^T) scaled from 1e-3 to 1e9."""
    rng = np.random.default_rng(30)
    links = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), s)
        for n, s in ((2, 2), (3, 1), (8, 2), (30, 4), (60, 4), (120, 8))
    ]
    links.append((repair_channel, 4))
    cases = []
    for h, s in links:
        n = len(h)
        design = design_milac(h, SystemConfig(n_streams=s, n_tx=n, n_rx=n, tx_power=10.0, noise_power=1.0))
        cases.append((f"tx {n + s} ports", 1j * design.b_tx.b, s, n))
        cases.append((f"rx {n + s} ports", 1j * design.b_rx.b, n, s))
    assert design.tx.theta != 0, "the repair channel's transmit side must carry the shunt term"
    for scale in (1e-3, 1.0, 1e3, 1e6, 1e9):
        g = rng.standard_normal((12, 12))
        cases.append((f"1j (G + G^T) x {scale:g}", 1j * scale * (g + g.T), 5, 7))
    return cases


def test_a_lossless_admittance_keeps_its_bits_and_its_gecon_decision(monkeypatch, repair_channel):
    # The certificate skips gecon only where gecon would accept: with the cap
    # just below and just above both sqrt(n) ||A||_1 and gecon's figure, the
    # solve accepts exactly when the parent's getrf + gecon did, and every
    # accepted block keeps the bytes of the getrf/getrs reference.
    default_cap = network.DEFAULT_COND_CAP
    for name, y, n_in, n_out in _lossless_admittances(repair_channel):
        block, estimate, bound = _reference_solve(y, n_in, Y0)
        partition = PortPartition(n_in, n_out)
        monkeypatch.setattr(network, "DEFAULT_COND_CAP", default_cap)
        assert transfer_block_from_admittance(AdmittanceMatrix(y), partition, Y0).tobytes() == block.tobytes(), name
        for figure in (bound, estimate):
            for cap in (figure * (1.0 - 1e-9), figure * (1.0 + 1e-9)):
                monkeypatch.setattr(network, "DEFAULT_COND_CAP", cap)
                accepted = estimate <= cap
                try:
                    out = transfer_block_from_admittance(AdmittanceMatrix(y), partition, Y0)
                except SingularMatrixError:
                    assert not accepted, (name, cap)
                else:
                    assert accepted and out.tobytes() == block.tobytes(), (name, cap)


def test_gecon_runs_only_where_the_lossless_certificate_does_not_hold(monkeypatch, repair_channel):
    calls = []
    gecon = network._GECON
    monkeypatch.setattr(network, "_GECON", lambda *args: calls.append(args) or gecon(*args))
    for name, y, n_in, n_out in _lossless_admittances(repair_channel)[:-5]:
        transfer_block_from_admittance(AdmittanceMatrix(y), PortPartition(n_in, n_out), Y0)
        assert calls == [], name
    # At this seed each matrix's 1-norm summed column by column (pairwise)
    # differs in its last bit from the sum taken row by row.
    rng = np.random.default_rng(33)
    g = rng.standard_normal((40, 40))
    lossless = 1j * (g + g.T)
    # A lossy network (positive conductances on the diagonal), a nonreciprocal
    # one (Y + Y^H = j (G - G^T)) and a lossless one past the bound each meet
    # gecon once, on the parent's LU and its 1-norm summed row by row.
    for y in (lossless + np.diag(rng.random(40) + 0.1), 1j * g, 1e12 * lossless):
        calls.clear()
        try:
            transfer_block_from_admittance(AdmittanceMatrix(y), PortPartition(4, 36), Y0)
        except SingularMatrixError:
            pass
        assert len(calls) == 1
        a = y / Y0 + np.eye(40)
        lu, anorm = calls[0]
        assert lu.tobytes() == scipy.linalg.lu_factor(a)[0].tobytes() and anorm == np.abs(a).sum(axis=0).max()
    # A NaN or inf fails the test, a symmetric imaginary inf included, and is named as before.
    for value in (np.nan, np.inf, complex(0.0, np.inf)):
        y = lossless.copy()
        y[1, 4] = y[4, 1] = value
        calls.clear()
        with pytest.raises(NonFiniteInputError, match="^admittance matrix contains NaN or infinite entries$"):
            transfer_block_from_admittance(AdmittanceMatrix(y), PortPartition(4, 36), Y0)
        assert len(calls) == 1


def test_the_lossless_certificate_accepts_what_the_transposed_sum_accepts(monkeypatch):
    # The certificate adds Y's rows to the conjugated rows of a column-major
    # copy of Y, which lists Y^T: entry for entry the sum y_ij + conj(y_ji) of
    # (Y + Y^H).any().  gecon must run exactly where that form is nonzero, the
    # block keep the reference bytes, and a NaN or inf still be named; a
    # column-major Y must decide the same.
    calls = []
    gecon = network._GECON
    monkeypatch.setattr(network, "_GECON", lambda *args: calls.append(args) or gecon(*args))
    rng = np.random.default_rng(34)
    n = 12
    g = rng.standard_normal((n, n))
    b = g + g.T
    skew = np.triu(g, 1) - np.triu(g, 1).T
    signed_zeros = 1j * b
    signed_zeros.real = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
    off_imag = 1j * b
    off_imag[2, 5] = complex(0.0, np.nextafter(b[2, 5], np.inf))
    off_real = skew + 1j * b
    off_real[7, 3] = complex(np.nextafter(skew[7, 3], -np.inf), b[7, 3])
    cases = [
        ("Y = jB with signed zeros in Re Y", signed_zeros, True),
        ("lossless Y with a nonzero skew-symmetric real part", skew + 1j * b, True),
        ("Im Y one ulp from symmetric", off_imag, False),
        ("Re Y one ulp from skew-symmetric", off_real, False),
    ]
    assert (signed_zeros.real == 0.0).all() and np.signbit(signed_zeros.real).any() and skew.any()
    for name, y, lossless in cases:
        assert (not (y + y.conj().T).any()) == lossless, name
        block = _reference_solve(y, 4, Y0)[0]
        for layout in (y, np.asfortranarray(y)):
            calls.clear()
            out = transfer_block_from_admittance(AdmittanceMatrix(layout), PortPartition(4, n - 4), Y0)
            assert out.tobytes() == block.tobytes() and len(calls) == (0 if lossless else 1), name
    for value in (np.nan, np.inf, complex(0.0, np.inf), complex(np.inf, 0.0)):
        for _, y, _ in cases:
            bad = y.copy()
            bad[1, 4] = bad[4, 1] = value
            calls.clear()
            with pytest.raises(NonFiniteInputError, match="^admittance matrix contains NaN or infinite entries$"):
                transfer_block_from_admittance(AdmittanceMatrix(bad), PortPartition(4, n - 4), Y0)
            assert len(calls) == 1


@pytest.mark.parametrize("receive", [False, True], ids=["tx", "rx"])
def test_assembled_susceptance_keeps_the_bits_of_the_scaled_mirror(receive):
    # One buffer is scaled, zero-signed and mirrored in place: the bits of
    # np.triu(y0 B) + np.triu(y0 B, 1).T, held read-only without a copy; a
    # non-finite entry of the upper triangle is still named.
    rng = np.random.default_rng(32)
    for n, s in ((1, 1), (5, 2), (64, 4)):
        bss, bsa, baa = (_with_signed_zeros(rng.standard_normal(shape), rng).real for shape in ((s, s), (s, n), (n, n)))
        sym, ant = network._port_slices(n, s, receive)
        full = np.empty((n + s, n + s))
        full[sym, sym], full[sym, ant], full[ant, sym], full[ant, ant] = bss, bsa, bsa.T, baa
        scaled = Y0 * full
        out = network._assemble_susceptance(bss, bsa, baa, Y0, receive)
        assert isinstance(out, SusceptanceMatrix) and not out.b.flags.writeable
        assert out.b.tobytes() == (np.triu(scaled) + np.triu(scaled, 1).T).tobytes()
        for value in (np.nan, np.inf):
            bad = baa.copy()
            bad[0, -1] = value
            with pytest.raises(ValueError, match="^susceptance matrix contains non-finite entries$"):
                network._assemble_susceptance(bss, bsa, bad, Y0, receive)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("n_in, n_out", [(2, 5), (5, 2)], ids=["fewer-inputs", "fewer-outputs"])
def test_a_non_finite_admittance_or_scattering_matrix_is_named(value, part, n_in, n_out):
    # Each solve rejects the matrix at its condition check and names the input;
    # no RuntimeWarning escapes on the way.
    rng = np.random.default_rng(42)
    n = n_in + n_out
    for i, j in ((0, 0), (0, n - 1), (n - 1, 0), (n_in, n_in - 1), (n - 1, n - 1)):
        m = Y0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        getattr(m, part)[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInputError, match="^admittance matrix contains NaN or infinite entries$"):
                transfer_block_from_admittance(AdmittanceMatrix(m), PortPartition(n_in, n_out), Y0)
            with pytest.raises(NonFiniteInputError, match="^admittance matrix contains NaN or infinite entries$"):
                admittance_to_scattering(AdmittanceMatrix(m), Y0)
            with pytest.raises(NonFiniteInputError, match="^scattering matrix contains NaN or infinite entries$"):
                scattering_to_admittance(ScatteringMatrix(m), Y0)


def test_transfer_block_partition_must_cover_ports():
    with pytest.raises(DimensionMismatchError):
        transfer_block_from_admittance(AdmittanceMatrix(np.zeros((4, 4))), PortPartition(2, 3), Y0)
    with pytest.raises(DimensionMismatchError):
        transfer_block_from_scattering(ScatteringMatrix(np.eye(4)), PortPartition(2, 3))


def test_transfer_block_from_identity_scattering_is_zero():
    block = transfer_block_from_scattering(ScatteringMatrix(np.eye(6)), PortPartition(2, 4))
    assert np.abs(block).max() == 0.0


def test_completion_blocks_are_exactly_half_the_targets():
    for seed in range(10):
        n, n_s = 6, 2
        v = random_unitary(n, seed)
        u = random_unitary(n, seed + 100)
        theta_tx = complete_scattering_tx(v[:, :n_s], v[:, n_s:])
        theta_rx = complete_scattering_rx(u[:, :n_s], u[:, n_s:])
        f = transfer_block_from_scattering(theta_tx, PortPartition(n_s, n))
        g = transfer_block_from_scattering(theta_rx, PortPartition(n, n_s))
        assert np.array_equal(f, v[:, :n_s] / 2.0)
        assert np.array_equal(g, u[:, :n_s].conj().T / 2.0)


# ---------------------------------------------------------------------------
# check_lossless_reciprocal


def test_identity_is_lossless_reciprocal():
    report = check_lossless_reciprocal(ScatteringMatrix(np.eye(3)), 1e-10)
    assert report.unitarity == 0.0
    assert report.asymmetry == 0.0
    assert report.passed


def test_diagonal_phases_are_lossless_reciprocal():
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))
    report = check_lossless_reciprocal(ScatteringMatrix(np.diag(phases)), 1e-10)
    assert report.unitarity < 1e-15
    assert report.asymmetry == 0.0
    assert report.passed


def test_half_identity_fails_unitarity_by_three_quarters():
    report = check_lossless_reciprocal(ScatteringMatrix(0.5 * np.eye(2)), 1e-10)
    assert abs(report.unitarity - 0.75) < 1e-15
    assert not report.passed


def test_nonsymmetric_unitary_fails_reciprocity():
    # A permutation is unitary but not symmetric.
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    report = check_lossless_reciprocal(ScatteringMatrix(perm), 1e-10)
    assert report.unitarity == 0.0
    assert report.asymmetry == 1.0
    assert not report.passed


# ---------------------------------------------------------------------------
# scattering completions


def test_complete_tx_with_empty_tail():
    v = random_unitary(3, 5)
    theta = complete_scattering_tx(v, np.zeros((3, 0)))
    n = 3
    assert theta.n_ports == 2 * n
    assert np.abs(theta.theta[n:, n:]).max() == 0.0
    assert np.array_equal(theta.theta[n:, :n], v)
    assert np.array_equal(theta.theta[:n, n:], v.T)


def test_complete_tx_identity_substitution():
    theta = complete_scattering_tx(np.eye(2)[:, :1], np.eye(2)[:, 1:])
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
    assert np.array_equal(theta.theta, expected)


def test_complete_rx_identity_substitution():
    theta = complete_scattering_rx(np.eye(2)[:, :1], np.eye(2)[:, 1:])
    expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    assert np.array_equal(theta.theta, expected)


def test_complete_rx_with_empty_tail():
    u = random_unitary(3, 6)
    theta = complete_scattering_rx(u, np.zeros((3, 0)))
    n = 3
    assert np.abs(theta.theta[:n, :n]).max() == 0.0
    assert np.array_equal(theta.theta[:n, n:], np.conj(u))
    assert np.array_equal(theta.theta[n:, :n], np.conj(u).T)


def test_completions_are_unitary_and_exactly_symmetric():
    for seed in range(100):
        v = random_unitary(6, seed)
        u = random_unitary(6, 10_000 + seed)
        rep_tx = check_lossless_reciprocal(complete_scattering_tx(v[:, :2], v[:, 2:]), 1e-12)
        rep_rx = check_lossless_reciprocal(complete_scattering_rx(u[:, :2], u[:, 2:]), 1e-12)
        assert rep_tx.unitarity <= 1e-12
        assert rep_rx.unitarity <= 1e-12
        assert rep_tx.asymmetry == 0.0
        assert rep_rx.asymmetry == 0.0


def test_completion_rejects_non_unitary_input():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotUnitaryInputError):
        complete_scattering_tx(bad[:, :1], bad[:, 1:])
    with pytest.raises(NotUnitaryInputError):
        complete_scattering_rx(bad[:, :1], bad[:, 1:])


@pytest.mark.parametrize("dtype", [float, complex])
def test_mirror_upper_keeps_the_bits_of_the_triangle_sum(dtype):
    # One copy with the strict lower triangle overwritten must give the bits of
    # np.triu(b) + np.triu(b, 1).T: -0.0 turns into +0.0, NaN and inf pass
    # through, and b itself is not written.
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    for n in (1, 2, 5, 68):
        b = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex else 0.0)
        for part in (b.real, b.imag) if dtype is complex else (b,):
            marked = rng.random((n, n)) < 0.3
            part[marked] = rng.choice(special, size=marked.sum())
        before = b.tobytes()
        out = network._mirror_upper(b)
        assert out.dtype == b.dtype and out.tobytes() == (np.triu(b) + np.triu(b, 1).T).tobytes()
        assert b.tobytes() == before


@pytest.mark.parametrize("complete", [complete_scattering_tx, complete_scattering_rx])
def test_completion_rejects_a_nan_input(complete):
    # A NaN residual fails the unitarity check instead of passing it.
    v = np.eye(3, dtype=complex)
    v[0, 0] = np.nan
    with pytest.raises(NotUnitaryInputError):
        complete(v[:, :1], v[:, 1:])


def test_completion_rejects_bad_shapes():
    v = random_unitary(4, 0)
    with pytest.raises(DimensionMismatchError):
        complete_scattering_tx(v[:, :2], v[:, 2:3])  # columns do not fill the square
    with pytest.raises(DimensionMismatchError, match="share their row count"):
        complete_scattering_tx(v[:, :2], v[:3, 2:])


# ---------------------------------------------------------------------------
# susceptance synthesis


def test_susceptance_tx_rejects_real_unitary():
    with pytest.raises(SingularImaginaryPartError):
        susceptance_tx(np.eye(2), 1, Y0)


def test_susceptance_rx_rejects_real_unitary():
    with pytest.raises(SingularImaginaryPartError):
        susceptance_rx(np.eye(2), 1, Y0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)],
                         ids=["nan", "inf", "-inf", "nan-imag", "inf-imag"])
@pytest.mark.parametrize("synthesize", [susceptance_tx, susceptance_rx])
def test_a_non_finite_unitary_factor_is_named(value, synthesize):
    v = rotated_unitary(4, 2)
    v[3, 1] = value
    with pytest.raises(NonFiniteInputError, match=f"^{synthesize.__name__}: unitary factor contains NaN or infinite"):
        synthesize(v, 2, Y0)


def _small_one_norm_matrix(n, kappa, rng):
    """Singular pairs (e1, w) on top and (w, e1) at the bottom, w = (0, 1, ..., 1)/sqrt(n - 1),
    so that kappa_1 is about kappa_2 / (n - 1): a 1-norm condition estimate makes such a
    matrix look better conditioned than it is."""
    w = np.r_[0.0, np.ones(n - 1)] / np.sqrt(n - 1)
    q = [np.linalg.qr(np.column_stack([np.eye(n)[:, 0], w, rng.standard_normal((n, n - 2))]))[0]
         for _ in range(2)]
    u = np.column_stack([q[0][:, 0], q[0][:, 2:], q[0][:, 1]])
    v = np.column_stack([q[1][:, 1], q[1][:, 2:], q[1][:, 0]])
    sigma = np.r_[1.0, np.full(n - 2, kappa ** -0.5), 1.0 / kappa]
    return (u * sigma) @ v.T


def test_imag_part_inverse_decides_as_the_singular_value_test(monkeypatch):
    # Singular iff sigma_min <= DEFAULT_IMAG_SV_REL max(sigma_max, 1), whichever
    # way it is decided; an accepted inverse is np.linalg.solve's, bit for bit.
    rng = np.random.default_rng(17)
    kappas = [1e4, 1e6, 0.99e8, 0.999e8, 1.001e8, 1.01e8, 1e10, 1e12]
    cases = [np.array([[0.0]]), np.array([[-0.25]])]
    for n in (2, 8, 64, 129):
        for kappa in kappas:
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cases.append((q1 * np.geomspace(1.0, 1.0 / kappa, n)) @ q2.T)
            if n > 2:
                cases.append(_small_one_norm_matrix(n, kappa, rng))
    svd = np.linalg.svd
    svd_calls = []

    def counted_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    certified = []
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(network, "_certified_regular", lambda *args: certified.append(1))
    for m in cases:
        sv = svd(m, compute_uv=False)
        singular = sv[0] == 0.0 or sv[-1] <= DEFAULT_IMAG_SV_REL * max(sv[0], 1.0)
        del svd_calls[:]
        if singular:
            with pytest.raises(SingularImaginaryPartError):
                _imag_part_inverse(m, "test")
        else:
            minv = _imag_part_inverse(m, "test")
            assert np.array_equal(minv, np.linalg.solve(m, np.eye(m.shape[0])))
        # Only the zero matrix has an exact zero pivot, which rejects it without
        # an SVD; every other M runs its SVD, as the reference takes no certificate.
        assert svd_calls == [1] * bool(m.any())
    assert not certified


def _dense_x(a, z):
    """The dense n x n X = Re Q' = I + a (Re z - I) a^T of a completion."""
    return np.eye(a.shape[0]) + a @ (z.real - np.eye(a.shape[1])) @ a.T


def _dense_verdict(q_bar):
    """Whether Im V of q_bar's completion passes the dense test: an exact zero
    pivot of K = Re z rejects it, then the singular values of the dense X
    decide, against the floor scaled by max(sigma_max, 1)."""
    a, z = network._completion(q_bar)
    try:
        np.linalg.solve(z.real, np.eye(a.shape[1]))
    except np.linalg.LinAlgError:
        return False
    sv = scipy.linalg.svdvals(_dense_x(a, z))
    return not sv[-1] <= network.DEFAULT_IMAG_SV_REL * max(sv[0], 1.0)


def _synthesis_inputs(repair_channel):
    """Both sides' leading singular vectors of square and wide links, real,
    complex and rank-1, and of a channel whose transmit side needs repair."""
    rng = np.random.default_rng(23)
    cases = [(svd_ordered(repair_channel), 4)]
    for n_rx, n_tx, s in ((6, 6, 3), (5, 5, 5), (16, 16, 4), (4, 64, 4), (64, 4, 2), (8, 256, 8)):
        h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        cases += [(svd_ordered(h), s), (svd_ordered(h.real), s), (svd_ordered(np.outer(h[:, 0], h[0])), s)]
    return [q for factors, s in cases for q in (factors.v[:, :s], np.conj(factors.u[:, :s]))]


@pytest.mark.parametrize("receive", [False, True], ids=["tx", "rx"])
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-3, 0.2])
def test_the_core_singular_values_decide_as_the_dense_matrix(monkeypatch, repair_channel, rel_tol, receive):
    # The verdict from K's singular values is the one from the dense X's, on either side.
    monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", rel_tol)
    verdicts = []
    for q_bar in _synthesis_inputs(repair_channel):
        # A rejected side is rotated, and only a rejected one.
        verdicts.append(network._synthesize_factored(q_bar, Y0, receive=receive).theta == 0)
        assert verdicts[-1] == _dense_verdict(q_bar)
    # The repair channel's transmit side is rejected at every threshold, and
    # at 0.2 the singular values reject several more.
    assert not verdicts[0]
    assert (verdicts.count(False) == 1) == (rel_tol < 0.2) and verdicts.count(True) > 1


@pytest.mark.parametrize("n_rx, n_tx, s, real", [(8, 8, 2, False), (64, 64, 4, False), (5, 5, 5, False),
                                              (6, 6, 3, False), (4, 64, 4, False), (64, 4, 2, False),
                                              (8, 8, 3, True)],
                         ids=["8x8", "64x64", "s=n", "n-s<2s", "wide", "tall", "real"])
def test_the_completion_is_a_unitary_on_an_orthonormal_basis_that_keeps_q_bar(n_rx, n_tx, s, real):
    rng = np.random.default_rng([n_rx, n_tx, s])
    h = rng.standard_normal((n_rx, n_tx)) + (0 if real else 1j * rng.standard_normal((n_rx, n_tx)))
    factors = svd_ordered(h, n_streams=s)
    for q_bar in (factors.v[:, :s], np.conj(factors.u[:, :s])):
        a, z = network._completion(q_bar)
        n, r = a.shape
        assert r == s + min(n - s, 2 * s) and z.shape == (r, r)
        assert np.abs(z.conj().T @ z - np.eye(r)).max() <= 1e-14
        assert np.abs(a.T @ a - np.eye(r)).max() <= 1e-14
        assert np.array_equal(a[:s], np.eye(s, r))
        completion = np.eye(n) + a @ (z - np.eye(r)) @ a.T
        assert np.abs(completion[:, :s] - q_bar).max() <= 1e-14
        # A real q_bar gives a real z, so its side never needs the repair.
        assert not z.imag.any() if real else z.imag.any()


def test_the_dense_matrix_has_the_core_singular_values_and_ones(repair_channel):
    # X = a K a^T + (I - a a^T), K = Re z: sigma(X) is sigma(K) and n - r ones.
    for q_bar in _synthesis_inputs(repair_channel):
        a, z = network._completion(q_bar)
        n, r = a.shape
        core = np.linalg.svd(z.real, compute_uv=False)
        dense = np.linalg.svd(_dense_x(a, z), compute_uv=False)
        assert np.abs(np.sort(dense) - np.sort(np.r_[core, np.ones(n - r)])).max() <= 1e-13


def test_the_verdict_counts_the_singular_values_outside_the_core(monkeypatch):
    # K = I/2 is perfectly conditioned alone, but X = a K a^T + c (I - a a^T)
    # is judged on the unitary's scale: sigma_min(X) against the floor, whatever
    # sigma_max.  At n = 4, sigma_min is 1/2 for c = 1 (theta = 0) and
    # c = 1/2, and 1/4 for c = 1/4; at n = 2 there is no complement and
    # sigma_min = 1/2 for any c.
    k = np.stack([0.5 * np.eye(2)] * 2)
    for rel_tol, regular in ((0.24, True), (0.26, True), (0.49, True), (0.51, False)):
        monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", rel_tol)
        assert network._regular_core(k, 4, 1.0).tolist() == [regular] * 2
        assert network._regular_core(k, 4, np.array([0.25, 0.5])).tolist() == [regular and rel_tol < 0.25, regular]
        assert network._regular_core(k, 2, 1e-9).tolist() == [regular] * 2
    # sigma_max above 1, which no imaginary part of a unitary has, scales the floor.
    monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", 0.3)
    assert network._regular_core(np.diag([4.0, 1.0]), 2, 1.0).tolist() is False
    assert network._regular_core(np.diag([2.0, 1.0]), 2, 1.0).tolist() is True


@pytest.mark.parametrize("floor", [1e-8, 1e-3])
@pytest.mark.parametrize("r", [2, 6, 24])
def test_the_core_certificate_agrees_with_the_singular_values_at_the_floor(monkeypatch, certificate_agrees, floor, r):
    # Cores K = P diag(sigma) Q^T with sigma_min at (1 -+ 1e-6) floor and
    # ||K||_F < 1 ("tight"), or with every sigma at (1 -+ 1e-6) sqrt(r) floor
    # ("flat"), where (1 - rho) / ||K^-1||_F meets the floor; and both at twice
    # those values.  Below the floor the certificate never decides, at twice
    # it always does, and in between the singular values decide what it leaves.
    # A last core has sigma_max = 4, which scales the floor: sigma_min = 3
    # floor is rejected, though (1 - rho) / ||K^-1||_F clears the floor itself.
    monkeypatch.setattr(network, "DEFAULT_IMAG_SV_REL", floor)
    rng = np.random.default_rng(r)
    profiles = []
    for factor in (1.0 - 1e-6, 1.0 + 1e-6, 2.0):
        profiles += [np.r_[np.full(r - 1, 0.9 / np.sqrt(r)), factor * floor], np.full(r, factor * np.sqrt(r) * floor)]
    cores = []
    for sigma in profiles + [np.r_[np.full(r - 1, 4.0), 3.0 * floor]]:
        p, q = (np.linalg.qr(rng.standard_normal((r, r)))[0] for _ in range(2))
        cores.append((p * sigma) @ q.T)
    k = np.stack(cores)
    sv = np.linalg.svd(k, compute_uv=False)
    assert (sv[:, -1] > floor * np.maximum(sv[:, 0], 1.0)).tolist() == [False] + [True] * 5 + [False]
    certified = certificate_agrees(k, r, 1.0)
    assert not certified[:2].any() and certified[4:6].all()
    # The bound holds for any X, not only the solve's: half or twice K^-1
    # leaves the residual -I/2 or I and certifies no core the singular values reject.
    exact = network._regular_core(k, r, 1.0)
    for scale in (0.5, 2.0):
        assert not (network._certified_regular(k, scale * np.linalg.inv(k), r, 1.0) & ~exact).any()
    # With r < n the outside cosine counts too: at the floor it rejects every core.
    for outside in (1.0, floor, np.full(7, 2.0 * floor)):
        certificate_agrees(k, r + 2, outside)
    assert not network._certified_regular(k, network._judged_inverse(k, r + 2, floor)[0], r + 2, floor).any()


def test_the_core_certificate_agrees_on_the_repair_channels(
    certificate_agrees, repair_channel, diagonal_channel, unrepairable_factors
):
    # Every rejected side is judged by the singular values and rotated; the
    # rotated cores, judged again as the guard with their cosines, agree too.
    sides = [np.asarray(unrepairable_factors.v), np.conj(unrepairable_factors.u)]
    for h, s in ((repair_channel, 4), (diagonal_channel(8), 8), (diagonal_channel(16), 16), (diagonal_channel(16), 8)):
        factors = svd_ordered(h, s)
        sides += [factors.v[:, :s], np.conj(factors.u[:, :s])]
    rejected = 0
    for q_bar in sides:
        a, z = network._completion(q_bar)
        n, r = a.shape
        k = z.real[None]
        certified = certificate_agrees(k, n, 1.0)
        if network._regular_core(k, n, 1.0)[0]:
            continue
        rejected += 1
        assert not certified[0]
        theta = network._rotation(z[None])
        certificate_agrees((np.exp(1j * theta)[:, None, None] * z).real, n, np.cos(theta))
    assert rejected >= 5


def test_an_exactly_singular_core_leaves_its_stack_to_the_singular_values(monkeypatch, repair_channel):
    # A purely imaginary q_bar has a zero column in K = Re z: the stacked solve
    # raises, the singular values judge the whole stack, and every side gets
    # the bits it gets alone.
    q = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 2)))[0]
    rayleigh = svd_ordered(np.random.default_rng(5).standard_normal((6, 6)) * (1 + 1j), 2).v[:, :2]
    stack = np.stack([rayleigh, 1j * q, rayleigh])
    judged, solves = [], []
    regular, solve = network._regular_core, np.linalg.solve
    with pytest.raises(np.linalg.LinAlgError):
        solve(network._completion(stack)[1].real, np.eye(6)[None])
    monkeypatch.setattr(network, "_regular_core", lambda k, n, c: judged.append(len(k)) or regular(k, n, c))
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(len(args[0])) or solve(*args))
    stacked = network._synthesize_factored(stack, Y0, receive=False)
    # Two core solves: the first judgment, which raises, and the guard over the final stack.
    assert solves == [3, 3] and judged == [3] and (stacked.theta != 0).tolist() == [False, True, False]
    for t, q_bar in enumerate(stack):
        alone = network._synthesize_factored(q_bar, Y0, receive=False)
        for name in ("a", "core", "z", "theta"):
            assert getattr(stacked, name)[t].tobytes() == np.asarray(getattr(alone, name)).tobytes()


def test_a_verdict_that_accepts_an_exactly_singular_core_meets_the_guard(monkeypatch):
    # With every core accepted, an exactly singular one (a zero column in
    # K = Re z) keeps theta = 0, and the guard's solve over the final stack
    # raises the synthesis's own error, alone or in a stack.
    q = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 2)))[0]
    rayleigh = svd_ordered(np.random.default_rng(5).standard_normal((6, 6)) * (1 + 1j), 2).v[:, :2]
    monkeypatch.setattr(network, "_regular_core", lambda k, n, c: np.ones(k.shape[:-2], bool))
    for q_bar in (1j * q, np.stack([rayleigh, 1j * q])):
        with pytest.raises(SingularImaginaryPartError, match="after the closed-form rotation"):
            network._synthesize_factored(q_bar, Y0, receive=False)


@pytest.mark.parametrize("position", [0, 1])
def test_a_nan_side_still_fails_the_singular_values(position):
    # A NaN q_bar makes a NaN core, which no certificate accepts: the singular
    # values meet it, alone or in a stack, and raise as before.
    q_bar = svd_ordered(np.random.default_rng(6).standard_normal((5, 5)) * (1 - 1j), 2).v[:, :2]
    stack = np.stack([q_bar, q_bar])
    stack[position, 1, 0] = np.nan
    for q in (stack, stack[position]):
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            network._synthesize_factored(q, Y0, receive=False)


def test_a_stacked_synthesis_gives_each_matrix_what_it_gets_alone(repair_channel):
    # Stacks of the same shape, one with the repair channel's rejected side.
    inputs = _synthesis_inputs(repair_channel)
    for shape in {q.shape for q in inputs}:
        same = np.stack([q for q in inputs if q.shape == shape])
        stacked = network._synthesize_factored(same, Y0, receive=True)
        for t, q_bar in enumerate(same):
            alone = network._synthesize_factored(q_bar, Y0, receive=True)
            for name in ("a", "core", "z", "theta"):
                assert getattr(stacked, name)[t].tobytes() == np.asarray(getattr(alone, name)).tobytes()
    assert (network._synthesize_factored(np.stack(inputs[:2]), Y0, receive=False).theta != 0).tolist() == [True, False]


@pytest.mark.parametrize("n_rx, n_tx, s, shunts", [(9, 7, 3, 0), (12, 12, 2, 2), (5, 8, 1, 2), (8, 8, 8, 0)])
def test_a_rotated_network_is_the_dense_synthesis_of_its_rotated_unitary(monkeypatch, n_rx, n_tx, s, shunts):
    # Every side is rejected at theta = 0 here and rotated by theta*; on sides
    # with r < n the antenna block carries the shunt -tan(theta*) (I - a a^T).
    # No core is certified, so the exact verdict decides each one, once per
    # judgment: each synthesis judges first and then guards, so the verdict's
    # odd calls are first judgments, which reject, and its even calls guards.
    regular, calls = network._regular_core, []

    def first_judgments_reject(k, n, c):
        calls.append(c)
        return regular(k, n, c) & (len(calls) % 2 == 0)

    monkeypatch.setattr(network, "_certified_regular", lambda k, *_: np.zeros(k.shape[:-2], bool))
    monkeypatch.setattr(network, "_regular_core", first_judgments_reject)
    rng = np.random.default_rng(n_rx * n_tx + s)
    h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    design = design_milac(h, SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=1.0, noise_power=1.0))
    shunted = 0
    for net, block, partition, dense in ((design.tx, design.f, PortPartition(s, n_tx), susceptance_tx),
                                         (design.rx, design.g, PortPartition(n_rx, s), susceptance_rx)):
        n, r = net.a.shape
        shunted += r < n and net.theta != 0
        q = net.unitary()
        assert np.abs(net.dense().b - dense(q, s, Y0).b).max() <= 1e-13 * Y0
        reference = transfer_block_from_admittance(AdmittanceMatrix(1j * net.dense().b), partition, Y0)
        assert np.abs(block - reference).max() <= 1e-14
        assert np.abs(block - (q[:, :s].conj().T if net.receive else q[:, :s]) / 2).max() <= 1e-14
        sv = np.linalg.svd(q.imag, compute_uv=False)
        assert sv[-1] / sv[0] >= np.sin(np.pi / (2 * (r + 1)))
    assert shunted == shunts


@pytest.mark.parametrize("n, s", [(8, 2), (64, 8), (128, 8)])
def test_the_stacked_circuit_solve_is_the_checked_lu_solve_bit_for_bit(n, s):
    # Each transfer block of a stack equals a @ (the checked getrf/getrs solve
    # of its core against [I_s; 0]), antenna rows, transposed on the receive side.
    rng = np.random.default_rng(n)
    h = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    design = design_milac(h, SystemConfig(n_streams=s, n_tx=n, n_rx=n, tx_power=1.0, noise_power=1.0))
    for net, block in ((design.tx, design.f), (design.rx, design.g)):
        eye = np.eye(net.core.shape[-1])
        for t in range(3):
            x = net.a[t] @ _solve_checked(eye + 1j * net.core[t], eye[:, :s], "test")[s:, :]
            assert np.array_equal(block[t], x.T if net.receive else x)


def _factored_stack(cores, receive):
    """Networks on a random orthonormal basis of 8 antennas, with these (s + r)-port cores at s = 2."""
    r = cores.shape[-1] - 2
    a = np.linalg.qr(np.random.default_rng(1).standard_normal((8, r)))[0]
    trials = cores.shape[:-2]
    return network._FactoredSusceptance(
        np.broadcast_to(a, trials + a.shape), cores, np.zeros(trials + (r, r), complex), Y0, receive, np.zeros(trials)
    )


@pytest.mark.parametrize("receive", [False, True], ids=["tx", "rx"])
def test_the_circuit_solve_rejects_a_core_beyond_the_cap_or_holding_a_nan(receive):
    # I + j c x x^T has eigenvalues 1 and 1 + j c |x|^2, so its kappa_1 grows
    # with c; one such core, or one NaN entry, rejects the whole stack.  A
    # core whose squared entries overflow is rejected with no warning.
    x = np.random.default_rng(2).standard_normal(6)
    side = "susceptance_rx circuit" if receive else "susceptance_tx circuit"
    fine = np.stack([np.outer(x, x)] * 3)
    network._transfer_blocks(_factored_stack(fine, receive))
    scaled, holed, huge = fine.copy(), fine.copy(), fine.copy()
    scaled[1] *= 1e13
    holed[1, 0, 0] = np.nan
    huge[1] *= 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match=side + ": condition number"):
            network._transfer_blocks(_factored_stack(huge, receive))
    for cores in (scaled, holed):
        with pytest.raises(SingularMatrixError, match=side + ": condition number"):
            network._transfer_blocks(_factored_stack(cores, receive))
        # The other side's cores have the same shape, as on a square link (one
        # stacked solve), or one port fewer (one solve per side).  Only the
        # side past the cap is named, whichever of the two it is.
        for other in (fine, fine[:, :-1, :-1]):
            tx, rx = _factored_stack(other, False), _factored_stack(other, True)
            if receive:
                rx = _factored_stack(cores, True)
            else:
                tx = _factored_stack(cores, False)
            with pytest.raises(SingularMatrixError, match=side + ": condition number"):
                network._transfer_blocks(tx, rx)


def test_the_exact_condition_number_bounds_the_lu_estimate(monkeypatch):
    # gecon estimates ||C^-1||_1 from below, so a cap just under its figure,
    # which _solve_checked rejects, rejects the core here too.
    rng = np.random.default_rng(6)
    for scale in (0.1, 1.0, 30.0, 1e3):
        for _ in range(5):
            g = rng.standard_normal((8, 8))
            c = np.eye(8) + 1j * scale * (g + g.T)
            lu, _, _ = network._GETRF(c)
            estimate = 1.0 / network._GECON(lu, np.linalg.norm(c, 1))[0]
            exact = np.linalg.norm(c, 1) * np.linalg.norm(np.linalg.inv(c), 1)
            assert exact >= estimate * (1.0 - 1e-9)
            monkeypatch.setattr(network, "DEFAULT_COND_CAP", estimate * (1.0 - 1e-9))
            with pytest.raises(SingularMatrixError):
                _solve_checked(c, np.eye(8)[:, :2], "test")
            with pytest.raises(SingularMatrixError):
                network._transfer_blocks(_factored_stack(scale * (g + g.T), False))


@pytest.mark.parametrize("n_rx, n_tx, s", [(8, 8, 2), (6, 6, 6), (5, 9, 3), (9, 5, 2), (64, 64, 4), (128, 128, 8)])
def test_past_the_lemmas_bound_the_circuit_solve_inverts_in_full_with_the_same_bits(monkeypatch, n_rx, n_tx, s):
    # Within sqrt(m) ||C||_1 <= DEFAULT_COND_CAP only C's symbol columns are
    # solved.  A cap below that bound sends each core to the full inverse and
    # its exact kappa_1, which the parent took for every core: the blocks keep
    # their bytes, and a cap below kappa_1 raises the same text as before.
    rng = np.random.default_rng(n_rx * n_tx + s)
    h = rng.standard_normal((2, n_rx, n_tx)) + 1j * rng.standard_normal((2, n_rx, n_tx))
    design = design_milac(h, SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=1.0, noise_power=1.0))
    inversions, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda c: inversions.append(len(c)) or inv(c))
    blocks = network._transfer_blocks(design.tx, design.rx)
    assert [b.tobytes() for b in blocks] == [design.f.tobytes(), design.g.tobytes()] and not inversions
    c = [np.eye(net.core.shape[-1]) + 1j * net.core for net in (design.tx, design.rx)]
    bound = max(network._lossless_kappa_bound(x.view(float), x.shape[-1]) for x in c)
    kappa = [np.linalg.norm(x, 1, axis=(-2, -1)) * np.linalg.norm(inv(x), 1, axis=(-2, -1)) for x in c]
    assert max(np.max(k) for k in kappa) <= bound <= 1e12
    monkeypatch.setattr(network, "DEFAULT_COND_CAP", bound * (1.0 - 1e-12))
    exact = network._transfer_blocks(design.tx, design.rx)
    assert [b.tobytes() for b in exact] == [b.tobytes() for b in blocks] and inversions
    worst = {"susceptance_tx": float(np.max(kappa[0])), "susceptance_rx": float(np.max(kappa[1]))}
    for cap in (0.999 * worst["susceptance_tx"], 0.999 * worst["susceptance_rx"]):
        monkeypatch.setattr(network, "DEFAULT_COND_CAP", cap)
        # The first side past the cap is named, with its worst kappa_1.
        side = next(side for side, k in worst.items() if k > cap)
        message = f"{side} circuit: condition number {worst[side]:.3e} exceeds cap {cap:.3e}"
        with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
            network._transfer_blocks(design.tx, design.rx)


def test_designing_a_wide_link_holds_no_dense_antenna_square_matrix():
    # The 1024-antenna side is judged by the singular values of its Woodbury
    # core, so the design's peak stays below one 1024 x 1024 float64.
    import tracemalloc

    rng = np.random.default_rng(3)
    h = rng.standard_normal((8, 1024)) + 1j * rng.standard_normal((8, 1024))
    config = SystemConfig(n_streams=8, n_tx=1024, n_rx=8, tx_power=1.0, noise_power=1.0)
    design_milac(h, config)
    tracemalloc.start()
    try:
        design_milac(h, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 8


def test_susceptance_tx_imaginary_identity_substitution():
    b = susceptance_tx(1j * np.eye(2), 1, Y0)
    expected = Y0 * np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
    assert np.array_equal(b.b, expected)


def test_susceptance_rx_imaginary_identity_substitution():
    b = susceptance_rx(1j * np.eye(2), 1, Y0)
    expected = Y0 * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert np.array_equal(b.b, expected)


def _susceptance_oracle(theta: ScatteringMatrix, y0: float) -> np.ndarray:
    """Independent oracle: B = -j y0 (2 (S + I)^-1 - I), evaluated directly."""
    n = theta.n_ports
    inv = np.linalg.solve(theta.theta + np.eye(n), np.eye(n))
    return np.real(-1j * y0 * (2.0 * inv - np.eye(n)))


def test_susceptance_tx_matches_scattering_oracle():
    for seed in range(25):
        n_t, n_s = 8, 4
        v = rotated_unitary(n_t, seed)
        b = susceptance_tx(v, n_s, Y0)
        oracle = _susceptance_oracle(complete_scattering_tx(v[:, :n_s], v[:, n_s:]), Y0)
        assert np.abs(b.b - oracle).max() <= 1e-9


def test_susceptance_rx_matches_scattering_oracle():
    for seed in range(25):
        n_r, n_s = 8, 4
        u = rotated_unitary(n_r, seed)
        b = susceptance_rx(u, n_s, Y0)
        oracle = _susceptance_oracle(complete_scattering_rx(u[:, :n_s], u[:, n_s:]), Y0)
        assert np.abs(b.b - oracle).max() <= 1e-9


def test_susceptance_is_bit_exactly_symmetric():
    for seed in range(20):
        n, n_s = 7, 3
        b_tx = susceptance_tx(rotated_unitary(n, seed), n_s, Y0)
        b_rx = susceptance_rx(rotated_unitary(n, 500 + seed), n_s, Y0)
        assert np.array_equal(b_tx.b, b_tx.b.T)
        assert np.array_equal(b_rx.b, b_rx.b.T)
        assert not np.iscomplexobj(b_tx.b)
        assert not np.iscomplexobj(b_rx.b)


def test_circuit_oracle_susceptance_realizes_half_target():
    # Flagship chain: susceptance -> admittance -> terminated transfer block
    # must reproduce half the leading columns of the unitary factor.
    for seed in range(20):
        n_t, n_s = 9, 3
        v = rotated_unitary(n_t, seed)
        b = susceptance_tx(v, n_s, Y0)
        f = transfer_block_from_admittance(
            AdmittanceMatrix(1j * b.b), PortPartition(n_s, n_t), Y0
        )
        assert np.abs(f - v[:, :n_s] / 2.0).max() <= 1e-8

        u = rotated_unitary(n_t, 7_000 + seed)
        b_rx = susceptance_rx(u, n_s, Y0)
        g = transfer_block_from_admittance(
            AdmittanceMatrix(1j * b_rx.b), PortPartition(n_t, n_s), Y0
        )
        assert np.abs(g - u[:, :n_s].conj().T / 2.0).max() <= 1e-8


def _reference_susceptance_rx(u, n_s, y0):
    """Receive synthesis written out block by block, with the antenna ports first."""
    n = u.shape[0]
    minv = np.linalg.solve(u.imag, np.eye(n))
    r = u.real
    b = np.empty((n + n_s, n + n_s))
    b[:n, :n] = -(r @ minv)
    b[:n, n:] = minv[:n_s, :].T
    b[n:, :n] = minv[:n_s, :]
    b[n:, n:] = -(minv @ r)[:n_s, :n_s]
    b = y0 * b
    return np.triu(b) + np.triu(b, 1).T


def _reference_scattering_rx(u_bar, u_tilde):
    """Receive completion written out block by block, with the antenna ports first."""
    n, n_s = u_bar.shape
    theta = np.zeros((n + n_s, n + n_s), dtype=complex)
    theta[:n, :n] = -(np.conj(u_tilde) @ np.conj(u_tilde).T)
    theta[:n, n:] = np.conj(u_bar)
    theta[n:, :n] = np.conj(u_bar).T
    return np.triu(theta) + np.triu(theta, 1).T


def test_receive_side_equals_its_block_reference_exactly():
    # The receive network is derived from the transmit synthesis on conj(u);
    # it must reproduce the explicit receive formulas bit for bit.
    rng = np.random.default_rng(2024)
    for n in range(1, 33):
        u = unitary_group.rvs(n, random_state=rng) if n > 1 else np.ones((1, 1))
        u = u * np.exp(2j * np.pi * rng.random(n))
        for n_s in range(1, n + 1):
            b = susceptance_rx(u, n_s, Y0)
            assert np.array_equal(b.b, _reference_susceptance_rx(u, n_s, Y0)), (n, n_s)
            theta = complete_scattering_rx(u[:, :n_s], u[:, n_s:])
            assert np.array_equal(theta.theta, _reference_scattering_rx(u[:, :n_s], u[:, n_s:])), (n, n_s)


def test_susceptance_stream_count_validated():
    v = rotated_unitary(4, 1)
    with pytest.raises(DimensionMismatchError):
        susceptance_tx(v, 5, Y0)
    with pytest.raises(DimensionMismatchError):
        susceptance_rx(v, 0, Y0)


# ---------------------------------------------------------------------------
# types and dumps


def test_admittance_requires_square():
    with pytest.raises(DimensionMismatchError):
        AdmittanceMatrix(np.zeros((2, 3)))


def test_susceptance_type_takes_a_real_square_matrix():
    with pytest.raises(DimensionMismatchError, match="must be square"):
        SusceptanceMatrix(np.zeros((2, 3)))
    # A complex array passes only with every imaginary part exactly zero.
    b = SusceptanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]], dtype=complex))
    assert b.b.dtype == float and b.n_ports == 2
    with pytest.raises(ValueError, match="must be real valued"):
        SusceptanceMatrix(np.array([[1.0, 2.0], [2.0, 1e-300j]]))


def test_susceptance_type_rejects_asymmetric():
    with pytest.raises(ValueError):
        SusceptanceMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_susceptance_type_rejects_nonfinite():
    with pytest.raises(ValueError):
        SusceptanceMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_susceptance_type_messages_name_a_non_finite_entry_before_an_asymmetry(value):
    b = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match=r"^susceptance matrix asymmetry 5\.000e-01 exceeds tolerance$"):
        SusceptanceMatrix(b)
    b[1, 1] = value
    with pytest.raises(ValueError, match="^susceptance matrix contains non-finite entries$"):
        SusceptanceMatrix(b)
    # The imaginary part is judged first.
    with pytest.raises(ValueError, match="^susceptance matrix must be real valued$"):
        SusceptanceMatrix(b + 1j)


def test_port_partition_validates_counts():
    with pytest.raises(ValueError):
        PortPartition(0, 3)
    assert PortPartition(2, 3).n_ports == 5


def test_matrix_values_are_immutable():
    y = AdmittanceMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        y.y[0, 0] = 1.0


def test_dump_matrix_csv_re_im_pairs(tmp_path):
    m = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25j]])
    path = tmp_path / "m.csv"
    dump_matrix_csv(m, path)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 2
    first = [float(tok) for tok in rows[0].split(",")]
    assert first == [1.0, 2.0, -0.5, 0.0]
    second = [float(tok) for tok in rows[1].split(",")]
    assert second == [0.0, 0.0, 0.0, 3.25]
