"""Acceptance gate: end-to-end checks of the package's headline guarantees.

Each test covers one numbered criterion and prints a single
"[criterion N] PASS/FAIL: ..." line with the measured worst residuals
before asserting.
"""

import time

import numpy as np
from scipy.stats import unitary_group

from milacsim import (
    AdmittanceMatrix,
    ChannelEnsembleSpec,
    PortPartition,
    PowerAllocation,
    SweepSpec,
    SystemConfig,
    admittance_to_scattering,
    capacity_closed_form,
    check_lossless_reciprocal,
    complete_scattering_rx,
    complete_scattering_tx,
    design_milac,
    rayleigh_channel,
    run_sweep,
    run_trial,
    scattering_to_admittance,
    snr_db_to_tx_power,
    susceptance_rx,
    susceptance_tx,
    transfer_block_from_admittance,
    water_filling,
)
from milacsim.cli import main as cli_main

Y0 = 1.0 / 50.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _worst(*residuals) -> float:
    """Largest residual; unlike max(), np.max keeps a NaN, so the check fails on it."""
    return float(np.max(residuals))


def _well_rotated_unitary(n: int, seed: int, min_rel: float = 1e-3) -> np.ndarray:
    """Random unitary whose imaginary part is comfortably invertible."""
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        q = unitary_group.rvs(n, random_state=rng) * np.exp(2j * np.pi * rng.random(n))
        sv = np.linalg.svd(q.imag, compute_uv=False)
        if sv[-1] > min_rel * sv[0]:
            return q
    raise AssertionError("could not draw a well-rotated unitary")


def test_criterion_1_analog_and_digital_rates_equal_capacity():
    # 100 Rayleigh trials per combination of stream count, antenna count, and
    # SNR; per trial both the circuit-realized analog rate and the digital
    # benchmark must sit on the closed-form capacity to 1e-9 relative.
    start = time.perf_counter()
    worst_analog = 0.0
    worst_digital = 0.0
    n_trials = 100
    total = 0
    for n_streams in (4, 8):
        for n in (64, 128):
            ensemble = ChannelEnsembleSpec(
                n_rx=n, n_tx=n, n_trials=n_trials, master_seed=2026
            )
            for snr_db in (-10.0, 0.0):
                config = SystemConfig(
                    n_streams=n_streams,
                    n_tx=n,
                    n_rx=n,
                    tx_power=snr_db_to_tx_power(snr_db, 1.0),
                    noise_power=1.0,
                )
                for trial in range(n_trials):
                    h = rayleigh_channel(ensemble, trial)
                    report = run_trial(h, config)
                    worst_analog = _worst(
                        worst_analog,
                        abs(report.milac_rate - report.capacity) / report.capacity,
                    )
                    worst_digital = _worst(
                        worst_digital,
                        abs(report.digital_rate - report.capacity) / report.capacity,
                    )
                    total += 1
    elapsed = time.perf_counter() - start
    ok = worst_analog <= 1e-9 and worst_digital <= 1e-9 and elapsed < 120.0
    _report(
        1,
        ok,
        f"worst analog gap {worst_analog:.3e}, worst digital gap {worst_digital:.3e} "
        f"(tol 1e-09) over {total} trials in {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_2_synthesized_networks_realize_half_the_targets():
    # 50 random unitary targets, up to 16 antennas: driving the synthesized
    # susceptance networks through the terminated-circuit solve must
    # reproduce the target columns scaled by 1/2, entrywise to 1e-8.
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 17))
        n_s = int(rng.integers(1, n + 1))
        v = _well_rotated_unitary(n, seed=case)
        u = _well_rotated_unitary(n, seed=1_000 + case)
        f = transfer_block_from_admittance(
            AdmittanceMatrix(1j * susceptance_tx(v, n_s, Y0).b), PortPartition(n_s, n), Y0
        )
        g = transfer_block_from_admittance(
            AdmittanceMatrix(1j * susceptance_rx(u, n_s, Y0).b), PortPartition(n, n_s), Y0
        )
        worst = _worst(worst, np.abs(f - v[:, :n_s] / 2.0).max())
        worst = _worst(worst, np.abs(g - u[:, :n_s].conj().T / 2.0).max())
    _report(2, worst <= 1e-8, f"worst entrywise residual {worst:.3e} (tol 1e-08), 50 cases")


def test_criterion_3_designs_are_lossless_and_reciprocal():
    # 100 random instances up to 64 antennas: scattering completions are
    # unitary within 1e-10 and exactly symmetric; susceptance matrices are
    # real, exactly symmetric, and consistent with the completion's
    # admittance within 1e-9 relative to the reference admittance.
    rng = np.random.default_rng(33)
    worst_unitarity = 0.0
    worst_asymmetry = 0.0
    worst_b_gap = 0.0
    for case in range(100):
        n = int(rng.integers(2, 65))
        n_s = int(rng.integers(1, min(n, 8) + 1))
        v = _well_rotated_unitary(n, seed=5_000 + case)
        if case % 2:
            theta = complete_scattering_rx(v[:, :n_s], v[:, n_s:])
        else:
            theta = complete_scattering_tx(v[:, :n_s], v[:, n_s:])
        rep = check_lossless_reciprocal(theta, 1e-10)
        worst_unitarity = _worst(worst_unitarity, rep.unitarity)
        worst_asymmetry = _worst(worst_asymmetry, rep.asymmetry)

        b = (susceptance_rx if case % 2 else susceptance_tx)(v, n_s, Y0)
        assert not np.iscomplexobj(b.b)
        assert np.array_equal(b.b, b.b.T)
        y = scattering_to_admittance(theta, Y0)
        gap = _worst(
            np.abs(b.b - y.y.imag).max() / Y0,
            np.abs(y.y.real).max() / Y0,
        )
        worst_b_gap = _worst(worst_b_gap, gap)
    ok = worst_unitarity <= 1e-10 and worst_asymmetry == 0.0 and worst_b_gap <= 1e-9
    _report(
        3,
        ok,
        f"worst unitarity {worst_unitarity:.3e} (tol 1e-10), "
        f"worst asymmetry {worst_asymmetry:.1e} (exact), "
        f"worst susceptance gap {worst_b_gap:.3e} (tol 1e-09), 100 cases",
    )


def test_criterion_4_optimal_cascade_diagonalizes_the_channel():
    # Optimal designs must turn the channel into a diagonal effective matrix
    # holding a quarter of each singular value.
    worst = 0.0
    for case in range(25):
        rng = np.random.default_rng(400 + case)
        n = int(rng.integers(2, 17))
        n_s = int(rng.integers(1, min(n, 4) + 1))
        h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        config = SystemConfig(n_streams=n_s, n_tx=n, n_rx=n, tx_power=1.0, noise_power=1.0)
        b_tx, b_rx, _ = design_milac(h, config)
        f = transfer_block_from_admittance(AdmittanceMatrix(1j * b_tx.b), PortPartition(n_s, n), Y0)
        g = transfer_block_from_admittance(AdmittanceMatrix(1j * b_rx.b), PortPartition(n, n_s), Y0)
        sigma = np.linalg.svd(h, compute_uv=False)
        effective = g @ h @ f
        resid = effective - np.diag(sigma[:n_s]) / 4.0
        worst = _worst(worst, np.abs(resid).max() / sigma[0])
    _report(4, worst <= 1e-10, f"worst diagonalization residual {worst:.3e} (tol 1e-10), 25 cases")


def test_criterion_5_water_filling_is_globally_optimal():
    # The allocation must sum to one exactly, never lose to random simplex
    # points, and agree with a dense grid search in the two-stream case.
    rng = np.random.default_rng(55)
    worst_sum = 0.0
    worst_loss = 0.0
    for _ in range(50):
        n_s = int(rng.integers(1, 9))
        lam = 0.2 + 19.8 * rng.random(n_s)
        total_power = float(0.5 + 9.5 * rng.random())
        alloc = water_filling(lam, total_power, 1.0)
        worst_sum = _worst(worst_sum, abs(float(alloc.p.sum()) - 1.0))
        best = capacity_closed_form(lam, alloc, total_power, 1.0)
        others = rng.dirichlet(np.ones(n_s), size=1000)
        rates = np.sum(np.log2(1.0 + total_power * others * lam / 4.0), axis=1)
        worst_loss = _worst(worst_loss, float(rates.max()) - best)

    worst_grid = 0.0
    grid = np.linspace(0.0, 1.0, 1_000_001)
    for case in range(10):
        rng_case = np.random.default_rng(5_500 + case)
        lam = 0.2 + 19.8 * rng_case.random(2)
        total_power = float(0.5 + 9.5 * rng_case.random())
        alloc = water_filling(lam, total_power, 1.0)
        rates = np.log2(1.0 + total_power * grid * lam[0] / 4.0) + np.log2(
            1.0 + total_power * (1.0 - grid) * lam[1] / 4.0
        )
        worst_grid = _worst(worst_grid, abs(alloc.p[0] - grid[int(np.argmax(rates))]))
    ok = worst_sum <= 1e-12 and worst_loss <= 1e-12 and worst_grid <= 1e-6
    _report(
        5,
        ok,
        f"worst sum error {worst_sum:.3e} (tol 1e-12), worst loss to 1000-point "
        f"simplex sampling {worst_loss:.3e} (tol 1e-12), worst grid deviation "
        f"{worst_grid:.3e} (tol 1e-06)",
    )


def test_criterion_6_mean_rate_grows_with_snr_and_antennas():
    ok = True
    details = []
    for n_streams in (4, 8):
        snr_spec = SweepSpec(
            mode="snr_sweep",
            snr_points_db=tuple(float(x) for x in np.arange(-10.0, 20.1, 2.0)),
            antenna_points=(64,),
            n_streams=n_streams,
            n_trials=8,
            master_seed=60 + n_streams,
        )
        rates = [row.mean_milac_rate for row in run_sweep(snr_spec).rows]
        snr_ok = bool(np.all(np.diff(rates) > 0))
        ant_spec = SweepSpec(
            mode="antenna_sweep",
            snr_points_db=(0.0,),
            antenna_points=(16, 32, 64, 128),
            n_streams=n_streams,
            n_trials=8,
            master_seed=70 + n_streams,
        )
        ant_rates = [row.mean_milac_rate for row in run_sweep(ant_spec).rows]
        ant_ok = bool(np.all(np.diff(ant_rates) > 0))
        ok = ok and snr_ok and ant_ok
        details.append(
            f"streams={n_streams}: snr strictly increasing={snr_ok} "
            f"(16 points), antennas strictly increasing={ant_ok} (4 points)"
        )
    _report(6, ok, "; ".join(details))


def test_criterion_7_cli_sweeps_are_reproducible(tmp_path, capsys):
    args = [
        "sweep-snr",
        "--streams", "2",
        "--antennas", "8",
        "--trials", "4",
        "--seed", "7",
        "--snr-min", "-5",
        "--snr-max", "5",
        "--snr-step", "5",
    ]
    paths = {name: tmp_path / f"{name}.csv" for name in ("first", "second", "parallel")}
    assert cli_main(args + ["--workers", "1", "--out", str(paths["first"])]) == 0
    assert cli_main(args + ["--workers", "1", "--out", str(paths["second"])]) == 0
    assert cli_main(args + ["--workers", "2", "--out", str(paths["parallel"])]) == 0
    capsys.readouterr()
    repeat_ok = paths["first"].read_bytes() == paths["second"].read_bytes()
    parallel_ok = paths["first"].read_bytes() == paths["parallel"].read_bytes()
    _report(
        7,
        repeat_ok and parallel_ok,
        f"repeat run byte-identical={repeat_ok}, "
        f"serial vs 2-worker byte-identical={parallel_ok}",
    )


def test_criterion_8_admittance_scattering_round_trip():
    # 200 random admittance matrices, redrawn while the conversion matrix is
    # poorly conditioned so the instances stay in the well-conditioned regime
    # the guarantee is stated for.
    rng = np.random.default_rng(88)
    worst = 0.0
    cases = 0
    while cases < 200:
        n = int(rng.integers(1, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(np.eye(n) + a) > 1e4:
            continue
        y = AdmittanceMatrix(Y0 * a)
        back = scattering_to_admittance(admittance_to_scattering(y, Y0), Y0)
        worst = _worst(worst, float(np.linalg.norm(back.y - y.y) / np.linalg.norm(y.y)))
        cases += 1
    _report(8, worst <= 1e-10, f"worst relative round-trip error {worst:.3e} (tol 1e-10), 200 cases")
