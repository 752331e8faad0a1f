"""Tests for the simulation harness: per-trial runs, sweeps, CSV output, verification."""

import dataclasses
import inspect
import os
from operator import attrgetter
import subprocess
import sys

import numpy as np
import pytest

import milacsim.beamforming as beamforming
import milacsim.cli as cli
import milacsim.harness as harness
import milacsim.network as network
from milacsim import (
    AdmittanceMatrix,
    CSV_HEADER,
    ChannelEnsembleSpec,
    DimensionMismatchError,
    PortPartition,
    SvdFactors,
    SweepResult,
    SweepRow,
    SweepSpec,
    SystemConfig,
    rayleigh_channel,
    run_sweep,
    run_trial,
    run_verification,
    snr_db_to_tx_power,
    transfer_block_from_admittance,
    write_csv,
    write_manifest,
)


def test_snr_db_to_tx_power():
    assert snr_db_to_tx_power(0.0, 1.0) == 1.0
    assert abs(snr_db_to_tx_power(10.0, 1.0) - 10.0) <= 1e-12
    assert abs(snr_db_to_tx_power(-10.0, 2.0) - 0.2) <= 1e-12
    assert abs(snr_db_to_tx_power(3.0, 1.0) - 10.0 ** 0.3) <= 1e-12
    for snr_db in (3090.0, -3200.0):
        with pytest.raises(ValueError, match=f"SNR {snr_db!r} dB"):
            snr_db_to_tx_power(snr_db, 1.0)


def test_run_trial_report_is_self_consistent():
    spec = ChannelEnsembleSpec(n_rx=8, n_tx=8, n_trials=1, master_seed=3)
    h = rayleigh_channel(spec, 0)
    config = SystemConfig(n_streams=4, n_tx=8, n_rx=8, tx_power=2.0, noise_power=1.0)
    report = run_trial(h, config)
    assert report.per_stream_sinr.shape == (4,)
    assert np.all(report.per_stream_sinr >= 0)
    assert abs(report.design.allocation.p.sum() - 1.0) <= 1e-12
    # The closed-form capacity is reproduced by both implemented designs.
    assert abs(report.milac_rate - report.capacity) <= 1e-9 * max(1.0, report.capacity)
    assert abs(report.digital_rate - report.capacity) <= 1e-9 * max(1.0, report.capacity)
    # Rate equals the sum of per-stream contributions.
    from_sinr = float(np.sum(np.log2(1.0 + report.per_stream_sinr)))
    assert abs(report.milac_rate - from_sinr) <= 1e-12 * max(1.0, from_sinr)


def test_run_trial_takes_one_svd_and_one_water_filling(monkeypatch):
    calls = {"svd_ordered": 0, "water_filling": 0}

    def counted(name):
        inner = getattr(beamforming, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(beamforming, name, counted(name))
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=6, n_tx=6, n_trials=1, master_seed=4), 0)
    config = SystemConfig(n_streams=3, n_tx=6, n_rx=6, tx_power=2.0, noise_power=1.0)
    run_trial(h, config)
    assert calls == {"svd_ordered": 1, "water_filling": 1}


@pytest.mark.parametrize(
    "n_rx, master_seed, real",
    [
        # On a Rayleigh channel Im{V} and Im{U} are accepted from their
        # Woodbury cores alone: one solve each, which certifies the core.
        (6, 4, False),
        # A real channel's completion is real orthogonal, so Im{V} = Re Q' is
        # accepted as well and no phase repair runs.
        (5, 2, True),
    ],
    ids=["rayleigh", "real"],
)
def test_run_trial_takes_two_svds_and_one_solve_per_side(monkeypatch, n_rx, master_seed, real):
    # SVDs are told apart by their operand: the complex channel, or a real
    # r x r Woodbury core with r <= min(n, 3s), which the core's own solve
    # certifies instead.  Solves are counted by operand stack size, one of the
    # core and one of the circuit per side: a square link's two sides share
    # one (2, r, r) operand, a 5 x 6 link makes one call per side.
    svds = {"channel_full": 0, "channel_values": 0, "core_values": 0, "other": 0}
    solves = []
    svd, solve = np.linalg.svd, np.linalg.solve
    n_tx, s = 6, 3

    def counted_svd(a, *args, **kwargs):
        values = "values" if not kwargs.get("compute_uv", True) else "full"
        if np.iscomplexobj(a) and a.shape == (n_rx, n_tx):
            svds[f"channel_{values}"] += 1
        elif values == "values" and not np.iscomplexobj(a) and a.shape[-2] == a.shape[-1] <= 3 * s:
            svds["core_values"] += int(np.prod(a.shape[:-2]))
        else:
            svds["other"] += 1
        return svd(a, *args, **kwargs)

    def counted_solve(a, *args, **kwargs):
        solves.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=1, master_seed=master_seed), 0)
    config = SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=2.0, noise_power=1.0)
    run_trial(h.real if real else h, config)
    assert svds == {"channel_full": 1, "channel_values": 1, "core_values": 0, "other": 0}
    assert sum(solves) == 4
    assert len(solves) == (2 if n_rx == n_tx else 4)


def test_run_trial_repairs_only_a_singular_imaginary_part_and_reaches_capacity(repair_channel):
    # A real channel's completion has Im{V} = Re Q' orthogonal, so it needs no
    # repair; a channel whose Re v_bar is singular at s = n does, on its transmit side.
    real = rayleigh_channel(ChannelEnsembleSpec(n_rx=5, n_tx=6, n_trials=1, master_seed=2), 0).real
    cases = [(real, SystemConfig(n_streams=3, n_tx=6, n_rx=5, tx_power=4.0, noise_power=1.0), False),
             (repair_channel, SystemConfig(n_streams=4, n_tx=4, n_rx=4, tx_power=4.0, noise_power=1.0), True)]
    for h, config, repaired in cases:
        report = run_trial(h, config)
        assert (report.design.tx.theta != 0) == repaired and report.design.rx.theta == 0
        for rate in (report.milac_rate, report.digital_rate):
            assert abs(rate - report.capacity) <= 1e-9 * report.capacity


def test_a_channel_singular_at_every_sixteenth_turn_takes_one_svd_and_reaches_capacity(
    monkeypatch, unrepairable_factors
):
    svds = []
    svd_ordered = beamforming.svd_ordered

    def counted(*args, **kwargs):
        svds.append(1)
        return svd_ordered(*args, **kwargs)

    monkeypatch.setattr(beamforming, "svd_ordered", counted)
    config = SystemConfig(n_streams=8, n_tx=8, n_rx=8, tx_power=(0.1, 10.0, 1000.0), noise_power=1.0)
    report = run_trial(unrepairable_factors.reconstruct(), config)
    assert len(svds) == 1
    assert report.design.rx.theta != 0
    for rate in (report.milac_rate, report.digital_rate):
        assert np.abs(rate - report.capacity).max() <= 1e-9 * report.capacity.min()


def test_run_trial_on_a_weak_channel_reaches_capacity():
    # Entries near 1e-150 put every water-filling floor far beyond 2**53, and
    # I + Gram rounds to I in the digital log-det.
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=4, n_tx=4, n_trials=1, master_seed=1), 0)
    cases = [(scale, 4, snr_db_to_tx_power(snr_db, 1.0), 1.0)
             for scale in (1e-150, 1e-100) for snr_db in (-40.0, 0.0, 100.0)]
    # P / N beyond the largest double: the digital Gram takes the power before the noise.
    cases += [(1e-150, n_streams, power, noise)
              for n_streams in (2, 3) for power, noise in ((1e160, 1e-150), (1e10, 1e-300))]
    for scale, n_streams, tx_power, noise_power in cases:
        config = SystemConfig(n_streams=n_streams, n_tx=4, n_rx=4, tx_power=tx_power, noise_power=noise_power)
        report = run_trial(scale * h, config)
        assert abs(report.milac_rate - report.capacity) <= 1e-9 * report.capacity
        assert abs(report.digital_rate - report.capacity) <= 1e-9 * report.capacity


def _channel(kind, n_rx, n_tx, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    if kind == "real":
        return h.real
    if kind == "rank-1":
        return np.outer(h[:, 0], h[0])
    return h


@pytest.mark.parametrize("streams", ["one", "all"])
@pytest.mark.parametrize(
    "kind, n_rx, n_tx",
    [("complex", 6, 6), ("complex", 4, 64), ("complex", 64, 4), ("real", 6, 6), ("real", 4, 64),
     ("rank-1", 6, 6), ("rank-1", 5, 7)],
)
def test_run_trial_blocks_equal_the_dense_circuit_solves(kind, n_rx, n_tx, streams):
    # The factored circuit solves read off the same blocks as the dense
    # reference solve of the materialized networks, and those blocks are half
    # the realized leading columns: j v_bar / 2 and (j u_bar)^H / 2.
    h = _channel(kind, n_rx, n_tx, seed=n_rx * n_tx)
    n_streams = 1 if streams == "one" else min(n_rx, n_tx)
    config = SystemConfig(n_streams=n_streams, n_tx=n_tx, n_rx=n_rx, tx_power=(1.0, 100.0), noise_power=1.0)
    report = run_trial(h, config)
    design, y0 = report.design, config.ref_admittance
    f = transfer_block_from_admittance(AdmittanceMatrix(1j * design.b_tx.b), PortPartition(n_streams, n_tx), y0)
    g = transfer_block_from_admittance(AdmittanceMatrix(1j * design.b_rx.b), PortPartition(n_rx, n_streams), y0)
    assert np.abs(design.f - f).max() <= 1e-12 and np.abs(design.g - g).max() <= 1e-12
    v, u = design.tx.unitary(), design.rx.unitary()
    assert np.abs(v[:, :n_streams] - 1j * design.factors.v[:, :n_streams]).max() <= 1e-14
    assert np.abs(u[:, :n_streams] - 1j * design.factors.u[:, :n_streams]).max() <= 1e-14
    assert np.abs(design.f - v[:, :n_streams] / 2).max() <= 1e-12
    assert np.abs(design.g - u[:, :n_streams].conj().T / 2).max() <= 1e-12


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_wide_link_runs_factored_and_reaches_capacity(monkeypatch, real):
    # 8 x 512 with 8 streams: no dense network is formed, no circuit is solved
    # densely and no side is rotated, yet both rates reach the capacity.
    calls = []

    def forbidden(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"run_trial called {name}")
        return spy

    for owner in (harness, network):
        monkeypatch.setattr(owner, "transfer_block_from_admittance", forbidden("transfer_block_from_admittance"))
    monkeypatch.setattr(network._FactoredSusceptance, "dense", forbidden("dense"))
    h = _channel("real" if real else "complex", 8, 512, seed=5)
    powers = tuple(snr_db_to_tx_power(snr_db, 1.0) for snr_db in (-10.0, 10.0, 30.0))
    config = SystemConfig(n_streams=8, n_tx=512, n_rx=8, tx_power=powers, noise_power=1.0)
    report = run_trial(h, config)
    for rate in (report.milac_rate, report.digital_rate):
        assert np.abs(rate - report.capacity).max() <= 1e-9 * report.capacity.min()
    assert calls == []
    assert report.design.tx.theta == report.design.rx.theta == 0


@pytest.mark.parametrize("n, n_streams, snr_db", [(8, 2, 20.0), (64, 8, 60.0), (64, 8, 100.0)])
def test_perturbing_the_precoder_lowers_the_rate(n, n_streams, snr_db):
    # The rate check is not vacuous: a precoder 1e-6 off the design, with its
    # column norms kept, leaks interference that the rate must show.
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=1, master_seed=11), 0)
    config = SystemConfig(
        n_streams=n_streams, n_tx=n, n_rx=n, tx_power=snr_db_to_tx_power(snr_db, 1.0), noise_power=1.0
    )
    report = run_trial(h, config)
    rng = np.random.default_rng(5)
    norms = np.linalg.norm(report.design.f, axis=0)
    delta = rng.standard_normal(report.design.f.shape) + 1j * rng.standard_normal(report.design.f.shape)
    f = report.design.f + 1e-6 * norms * delta / np.linalg.norm(delta, axis=0)
    f *= norms / np.linalg.norm(f, axis=0)
    rate, _ = beamforming.milac_rate(
        report.design.g, h, f, report.design.allocation, config.tx_power, config.noise_power
    )
    assert rate < report.milac_rate


def test_run_trial_at_k_powers_equals_run_trial_at_each_power():
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=6, n_tx=6, n_trials=1, master_seed=4), 0)
    powers = (0.1, 2.0, 50.0)
    config = SystemConfig(n_streams=3, n_tx=6, n_rx=6, tx_power=powers, noise_power=1.0)
    report = run_trial(h, config)
    assert config.tx_power == powers and report.per_stream_sinr.shape == (3, 3)
    for k, power in enumerate(powers):
        single = run_trial(h, SystemConfig(n_streams=3, n_tx=6, n_rx=6, tx_power=power, noise_power=1.0))
        assert (report.milac_rate[k], report.digital_rate[k], report.capacity[k]) == (
            single.milac_rate, single.digital_rate, single.capacity
        )
        assert np.array_equal(report.per_stream_sinr[k], single.per_stream_sinr)
        assert np.array_equal(report.design.allocation.p[k], single.design.allocation.p)
        assert report.design.allocation.water_level[k] == single.design.allocation.water_level
        # One design serves every power: the factors, networks and blocks are the scalar run's.
        assert np.array_equal(report.design.factors.v, single.design.factors.v)
        assert np.array_equal(report.design.b_tx.b, single.design.b_tx.b)
        assert np.array_equal(report.design.f, single.design.f)
        assert np.array_equal(report.design.g, single.design.g)
    # Low power water-fills fewer streams than high power.
    p = report.design.allocation.p
    assert np.count_nonzero(p[0]) < np.count_nonzero(p[2])


def _small_snr_spec(**overrides):
    base = dict(
        mode="snr_sweep",
        snr_points_db=(-10.0, 0.0, 10.0),
        antenna_points=(8,),
        n_streams=2,
        n_trials=4,
        master_seed=11,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_snr_sweep_rows_and_monotonicity():
    result = run_sweep(_small_snr_spec(), workers=1)
    assert result.mode == "snr_sweep"
    assert [row.sweep_value for row in result.rows] == [-10.0, 0.0, 10.0]
    rates = [row.mean_milac_rate for row in result.rows]
    assert rates[0] < rates[1] < rates[2]
    for row in result.rows:
        assert row.n_trials == 4
        assert row.max_rel_gap <= 1e-9
        assert abs(row.mean_milac_rate - row.mean_capacity) <= 1e-9 * max(1.0, row.mean_capacity)
        assert abs(row.mean_digital_rate - row.mean_capacity) <= 1e-9 * max(1.0, row.mean_capacity)


def test_antenna_sweep_rows_and_monotonicity():
    spec = SweepSpec(
        mode="antenna_sweep",
        snr_points_db=(0.0,),
        antenna_points=(4, 8, 16),
        n_streams=2,
        n_trials=4,
        master_seed=5,
    )
    result = run_sweep(spec, workers=1)
    assert [row.sweep_value for row in result.rows] == [4.0, 8.0, 16.0]
    rates = [row.mean_milac_rate for row in result.rows]
    assert rates[0] < rates[1] < rates[2]
    for row in result.rows:
        assert row.max_rel_gap <= 1e-9


def test_sweep_is_deterministic():
    a = run_sweep(_small_snr_spec(), workers=1)
    b = run_sweep(_small_snr_spec(), workers=1)
    assert a == b


def test_parallel_matches_serial_bit_for_bit():
    serial = run_sweep(_small_snr_spec(), workers=1)
    parallel = run_sweep(_small_snr_spec(), workers=3)
    assert serial == parallel


def test_workers_env_var_is_honored(monkeypatch):
    monkeypatch.setenv("MILACSIM_WORKERS", "2")
    result = run_sweep(_small_snr_spec())
    assert result == run_sweep(_small_snr_spec(), workers=1)


def test_noise_template_changes_only_the_scale():
    spec = _small_snr_spec(snr_points_db=(0.0,))
    base = run_sweep(spec, workers=1)
    scaled = run_sweep(_small_snr_spec(snr_points_db=(0.0,), noise_power=4.0), workers=1)
    # Identical SNR grid: tx power scales with the noise, rates are unchanged.
    assert scaled.rows[0].mean_milac_rate == pytest.approx(
        base.rows[0].mean_milac_rate, rel=1e-12
    )


def test_run_sweep_rejects_verify_mode():
    with pytest.raises(ValueError):
        SweepSpec(
            mode="verify",
            snr_points_db=(0.0,),
            antenna_points=(4,),
            n_streams=2,
            n_trials=1,
        )


def test_max_rel_gap_is_the_worst_analog_or_digital_gap_per_row():
    spec = _small_snr_spec()
    result = run_sweep(spec, workers=1)
    n = spec.antenna_points[0]
    ensemble = ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=spec.n_trials, master_seed=spec.master_seed)
    digital_decides = 0
    for row, snr_db in zip(result.rows, spec.snr_points_db):
        config = SystemConfig(
            n_streams=spec.n_streams,
            n_tx=n,
            n_rx=n,
            tx_power=snr_db_to_tx_power(snr_db, 1.0),
            noise_power=1.0,
        )
        analog_gaps, digital_gaps = [], []
        for t in range(spec.n_trials):
            report = run_trial(rayleigh_channel(ensemble, t), config)
            analog_gaps.append(abs(report.milac_rate - report.capacity) / report.capacity)
            digital_gaps.append(abs(report.digital_rate - report.capacity) / report.capacity)
        assert row.max_rel_gap == max(analog_gaps + digital_gaps)
        digital_decides += max(digital_gaps) > max(analog_gaps)
    # The seeds are such that the digital gap is the worst in some row.
    assert digital_decides >= 1


def _rows_from_run_trial(spec):
    """Sweep rows rebuilt from one run_trial per (sweep point, trial), summed as run_sweep sums."""
    if spec.mode == "snr_sweep":
        points = [(s, spec.antenna_points[0], s) for s in spec.snr_points_db]
    else:
        points = [(float(n), n, spec.snr_points_db[0]) for n in spec.antenna_points]
    rows = []
    for sweep_value, n, snr_db in points:
        ensemble = ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=spec.n_trials, master_seed=spec.master_seed)
        config = SystemConfig(
            n_streams=spec.n_streams, n_tx=n, n_rx=n,
            tx_power=snr_db_to_tx_power(snr_db, spec.noise_power), noise_power=spec.noise_power,
        )
        reports = [
            run_trial(rayleigh_channel(ensemble, t), config)
            for t in range(spec.n_trials)
        ]
        columns = [
            np.array([getattr(r, name) for r in reports])
            for name in ("milac_rate", "digital_rate", "capacity")
        ]
        gaps = [abs(x - r.capacity) / r.capacity for r in reports for x in (r.milac_rate, r.digital_rate)]
        rows.append(
            SweepRow(
                sweep_value=sweep_value,
                mean_milac_rate=float(np.sum(columns[0]) / spec.n_trials),
                mean_digital_rate=float(np.sum(columns[1]) / spec.n_trials),
                mean_capacity=float(np.sum(columns[2]) / spec.n_trials),
                max_rel_gap=max(gaps),
                n_trials=spec.n_trials,
            )
        )
    return tuple(rows)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        _small_snr_spec(n_trials=5),
        SweepSpec(mode="antenna_sweep", snr_points_db=(3.0,), antenna_points=(3, 5), n_streams=2,
                  n_trials=3, master_seed=8),
        # Past 128 values numpy's pairwise summation splits a sum into blocks.
        _small_snr_spec(snr_points_db=(0.0, 10.0), antenna_points=(2,), n_streams=1, n_trials=130, master_seed=9),
    ],
    ids=["snr", "antennas", "past_128_trials"],
)
def test_sweep_rows_equal_rows_rebuilt_from_run_trial_bit_for_bit(spec, workers):
    # One design per channel rates every SNR point exactly as a fresh run_trial does.
    assert run_sweep(spec, workers=workers).rows == _rows_from_run_trial(spec)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_of_one_chunk_and_a_remainder_equals_rows_rebuilt_from_run_trial(workers):
    # A full chunk of 16 trials of a 32x32 link and a remainder of 3, however the pool splits them.
    spec = _small_snr_spec(antenna_points=(32,), n_trials=harness.chunk_size(32, 32) + 3, master_seed=21)
    assert run_sweep(spec, workers=workers).rows == _rows_from_run_trial(spec)


def test_sweep_rows_do_not_depend_on_the_chunk_size_or_the_worker_count(monkeypatch):
    # 40 trials of a 4x4 link in chunks of 1, of 17 (17 + 17 + 6) and of 1,024 (one chunk, no pool).
    spec = _small_snr_spec(antenna_points=(4,), n_trials=40, master_seed=23)
    rows = set()
    for entries, size in ((16, 1), (16 * 17, 17), (128 * 128, 1024)):
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", entries)
        assert harness.chunk_size(4, 4) == size
        for workers in (1, 2):
            result = run_sweep(spec, workers=workers)
            assert result.workers == (1 if size >= spec.n_trials else workers)
            rows.add(result.rows)
    assert rows == {_rows_from_run_trial(spec)}


def test_chunks_depend_only_on_the_link_shape():
    # As many trials as CHUNK_ENTRIES channel entries hold, and at least one; never a worker count.
    assert list(inspect.signature(harness.chunk_size).parameters) == ["n_rx", "n_tx"]
    assert harness.chunk_size(1, 1) == harness.CHUNK_ENTRIES == 128 * 128
    assert (harness.chunk_size(4, 4), harness.chunk_size(8, 8), harness.chunk_size(32, 32)) == (1024, 256, 16)
    assert harness.chunk_size(128, 128) == harness.chunk_size(8, 2048) == harness.chunk_size(512, 512) == 1
    assert harness.chunk_size(64, 64) == harness.CHUNK_ENTRIES // 4096
    for n_rx, n_tx in ((1, 1), (3, 5), (40, 40), (90, 90), (8, 2048)):
        size = harness.chunk_size(n_rx, n_tx)
        assert size >= 1 and harness.CHUNK_ENTRIES < (size + 1) * n_rx * n_tx
        assert size == 1 or size * n_rx * n_tx <= harness.CHUNK_ENTRIES


def _stack_with_a_repair(channel):
    """Two Rayleigh channels around `channel`, whose design must phase-repair at s = n."""
    n = len(channel)
    ensemble = ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=2, master_seed=6)
    channels = [rayleigh_channel(ensemble, 0), channel, rayleigh_channel(ensemble, 1)]
    config = SystemConfig(n_streams=n, n_tx=n, n_rx=n, tx_power=(0.5, 4.0, 400.0), noise_power=1.0)
    return channels, config


def test_a_stacked_trial_gets_what_it_gets_alone_and_a_rejected_trial_is_repaired_in_the_stack(repair_channel):
    channels, config = _stack_with_a_repair(repair_channel)
    stacked = run_trial(np.stack(channels), config)
    # Only the rejected trial's transmit side is rotated; no trial's factors are.
    assert (stacked.design.tx.theta != 0).tolist() == [False, True, False]
    assert not stacked.design.rx.theta.any()
    unrotated = beamforming.svd_ordered(np.stack(channels))
    for name in ("u", "sigma", "v"):
        assert getattr(stacked.design.factors, name).tobytes() == getattr(unrotated, name).tobytes(), name
    # The repaired design reproduces.
    again = run_trial(np.stack(channels), config)
    for name in ("milac_rate", "digital_rate", "capacity", "design.f", "design.g", "design.tx.core"):
        assert attrgetter(name)(again).tobytes() == attrgetter(name)(stacked).tobytes(), name
    # Only a single network has one dense susceptance matrix.
    with pytest.raises(DimensionMismatchError):
        stacked.design.b_tx
    for t, h in enumerate(channels):
        alone = run_trial(h, config)
        for name in ("milac_rate", "digital_rate", "capacity", "per_stream_sinr", "design.f", "design.g"):
            assert np.array_equal(attrgetter(name)(stacked)[t], attrgetter(name)(alone)), name
        design, single = stacked.design, alone.design
        for mine, theirs in [
            (design.factors.u, single.factors.u), (design.factors.sigma, single.factors.sigma),
            (design.factors.v, single.factors.v), (design.allocation.p, single.allocation.p),
            (design.allocation.water_level, single.allocation.water_level),
            *((getattr(getattr(design, side), name), getattr(getattr(single, side), name))
              for side in ("tx", "rx") for name in ("a", "core", "z", "theta")),
        ]:
            assert np.array_equal(mine[t], theirs)
        for rate in (alone.milac_rate, alone.digital_rate):
            assert np.abs(rate - alone.capacity).max() <= 1e-9 * alone.capacity.min()


def test_a_channel_singular_at_every_sixteenth_turn_designs_in_its_chunk_and_the_cli_exits_zero(
    monkeypatch, unrepairable_factors, tmp_path
):
    unrepairable = unrepairable_factors.reconstruct()
    channels, config = _stack_with_a_repair(unrepairable)
    report = run_trial(np.stack(channels), config)
    for rate in (report.milac_rate, report.digital_rate):
        assert (np.abs(rate - report.capacity) <= 1e-9 * report.capacity).all()
    # The same chunk through the CLI: trial 1 of a 3-trial sweep draws that channel.
    # The chunk draws its trials in one call.
    draw = harness.rayleigh_channel
    monkeypatch.setattr(
        harness, "rayleigh_channel",
        lambda ensemble, trials: np.stack([unrepairable if t == 1 else draw(ensemble, t) for t in trials]),
    )
    out = tmp_path / "sweep.csv"
    argv = ["sweep-snr", "--antennas", "8", "--streams", "8", "--trials", "3", "--workers", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    gaps = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
    assert gaps and max(gaps) <= 1e-9


def test_a_stack_is_nonempty():
    channels = np.stack([_channel("complex", 3, 3, seed) for seed in range(2)])
    config = SystemConfig(n_streams=2, n_tx=3, n_rx=3, tx_power=1.0, noise_power=1.0)
    # Neither an empty stack nor a stack of stacks is a channel stack.
    for bad in (channels[:0], channels[None]):
        with pytest.raises(DimensionMismatchError, match="nonempty stack"):
            run_trial(bad, config)


def test_run_trial_ignores_a_third_argument(repair_channel):
    # Kept for callers that still pass a repair seed: neither a seed, nor the
    # per-channel seed lists a stack once needed, changes a bit of the report.
    channels, config = _stack_with_a_repair(repair_channel)
    for h in (np.stack(channels), repair_channel):
        plain = run_trial(h, config)
        for ignored in (0, 2**64 - 1, [0], [0, 1.5]):
            report = run_trial(h, config, ignored)
            for name in ("milac_rate", "digital_rate", "capacity", "design.f", "design.g"):
                assert attrgetter(name)(report).tobytes() == attrgetter(name)(plain).tobytes(), name
            assert report.design.factors.v.tobytes() == plain.design.factors.v.tobytes()


def test_snr_sweep_designs_each_channel_once(monkeypatch):
    # A task rates a chunk of channels in one stacked pass, so the work per
    # channel is counted from the stack each spy sees: the number of matrices
    # (or eigenvalue rows) in the argument that carries the trial axis.
    work = dict.fromkeys(
        ("svd_ordered", "synthesis", "transfer_block", "dense_transfer_block", "svd_values", "core_svd_values",
         "other_svd_values", "water_filling", "milac_rate", "capacity", "digital"),
        0,
    )
    calls = dict.fromkeys(work, 0)

    def stack_size(x, core_ndim):
        return int(np.prod(np.shape(x)[: np.ndim(x) - core_ndim]))

    def counted(owner, attr, key, size):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            work[key] += size(*args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        # Values-only SVDs of a channel (8 x 8, complex) or of a real Woodbury
        # core of at most 3s = 6 columns; any other operand is counted apart.
        if not kwargs.get("compute_uv", True):
            if np.iscomplexobj(a):
                key = "svd_values" if np.shape(a)[-2:] == (8, 8) else "other_svd_values"
            else:
                key = "core_svd_values" if np.shape(a)[-1] <= 6 else "other_svd_values"
            calls[key] += 1
            work[key] += stack_size(a, 2)
        return svd(a, *args, **kwargs)

    counted(beamforming, "svd_ordered", "svd_ordered", lambda h: stack_size(h, 2))
    counted(beamforming, "_synthesize_factored", "synthesis", lambda q_bar, *_: stack_size(q_bar, 2))
    counted(network, "_transfer_blocks", "transfer_block", lambda *nets: sum(stack_size(net.a, 2) for net in nets))
    counted(harness, "transfer_block_from_admittance", "dense_transfer_block", lambda y, *_: 1)
    # The harness may do no water-filling of its own; any call through its name counts too.
    for owner in (beamforming, harness):
        counted(owner, "water_filling", "water_filling", lambda lam, *_: stack_size(lam, 1))
    counted(harness, "milac_rate", "milac_rate", lambda g, h, *_: stack_size(h, 2))
    counted(harness, "capacity_closed_form", "capacity", lambda lam, *_: stack_size(lam, 1))
    counted(harness, "digital_design_and_rate", "digital", lambda h, *_: stack_size(h, 2))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    # Two chunks: a full one and a remainder of 3.
    n_trials = harness.chunk_size(8, 8) + 3
    run_sweep(_small_snr_spec(snr_points_db=(-10.0, 0.0, 10.0, 20.0), n_trials=n_trials), workers=1)
    # Per channel: one SVD, one synthesis (whose core solve certifies the
    # core, so no core spectrum) and one circuit solve per side, one capacity
    # spectrum, and each rating function takes all four SNR points in one
    # call; design_milac water-fills them all in one.
    assert work == {
        "svd_ordered": n_trials,
        "synthesis": 2 * n_trials,
        "transfer_block": 2 * n_trials,
        "dense_transfer_block": 0,
        "svd_values": n_trials,
        "core_svd_values": 0,
        "other_svd_values": 0,
        "water_filling": n_trials,
        "milac_rate": n_trials,
        "capacity": n_trials,
        "digital": n_trials,
    }
    # ... in one stacked call per chunk; both sides of a square link share one
    # synthesis and one circuit solve.
    assert calls == {**dict.fromkeys(work, 2), "core_svd_values": 0, "other_svd_values": 0, "dense_transfer_block": 0}


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(mode="bogus", snr_points_db=(0.0,), antenna_points=(4,), n_streams=1)
    with pytest.raises(ValueError):
        SweepSpec(mode="snr_sweep", snr_points_db=(), antenna_points=(4,), n_streams=1)
    with pytest.raises(ValueError):
        SweepSpec(mode="snr_sweep", snr_points_db=(0.0, 0.0), antenna_points=(4,), n_streams=1)
    with pytest.raises(ValueError):
        SweepSpec(mode="snr_sweep", snr_points_db=(5.0, 0.0), antenna_points=(4,), n_streams=1)
    with pytest.raises(ValueError, match="antenna_points must be strictly ascending"):
        SweepSpec(mode="antenna_sweep", snr_points_db=(0.0,), antenna_points=(8, 4), n_streams=1)
    with pytest.raises(ValueError):
        SweepSpec(mode="snr_sweep", snr_points_db=(0.0,), antenna_points=(4,), n_streams=8)
    with pytest.raises(ValueError):
        SweepSpec(mode="snr_sweep", snr_points_db=(0.0,), antenna_points=(4,), n_streams=1, n_trials=0)
    # The fixed axis holds one point; a second one was silently dropped.
    two_by_two = dict(snr_points_db=(0.0, 10.0), antenna_points=(4, 8), n_streams=2, n_trials=2)
    with pytest.raises(ValueError, match="antenna_points must hold one point"):
        SweepSpec(mode="snr_sweep", **two_by_two)
    with pytest.raises(ValueError, match="snr_points_db must hold one point"):
        SweepSpec(mode="antenna_sweep", **two_by_two)


def test_a_sweep_builds_each_link_config_once(monkeypatch):
    # The spec builds (and so checks) every antenna count's config, and run_sweep reuses them.
    built = []
    link_config = harness._link_config
    monkeypatch.setattr(harness, "_link_config", lambda spec, n, snr: built.append(n) or link_config(spec, n, snr))
    spec = SweepSpec(mode="antenna_sweep", snr_points_db=(10.0,), antenna_points=(2, 4), n_streams=1, n_trials=2)
    run_sweep(spec, workers=1)
    assert built == [2, 4]
    assert spec.configs == tuple(link_config(spec, n, (10.0,)) for n in (2, 4))


_ENSEMBLE = dict(n_rx=2, n_tx=2, n_trials=4, master_seed=0)


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize(
    "field, build",
    [
        ("n_streams", lambda v: SystemConfig(n_streams=v, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)),
        ("n_tx", lambda v: SystemConfig(n_streams=1, n_tx=v, n_rx=4, tx_power=1.0, noise_power=1.0)),
        ("n_rx", lambda v: SystemConfig(n_streams=1, n_tx=4, n_rx=v, tx_power=1.0, noise_power=1.0)),
        ("n_trials", lambda v: _small_snr_spec(n_trials=v)),
        ("master_seed", lambda v: _small_snr_spec(master_seed=v)),
        ("antenna_points", lambda v: _small_snr_spec(antenna_points=(v,), n_streams=1)),
        *[(name, lambda v, name=name: ChannelEnsembleSpec(**{**_ENSEMBLE, name: v}))
          for name in ("n_rx", "n_tx", "n_trials", "master_seed")],
        ("trial_index", lambda v: rayleigh_channel(ChannelEnsembleSpec(**_ENSEMBLE), v)),
        ("n_cases", lambda v: run_verification(0, v)),
        ("master_seed", lambda v: run_verification(v, 1)),
        ("workers", lambda v: harness.resolve_workers(v)),
    ],
    ids=["config.n_streams", "config.n_tx", "config.n_rx",
         "sweep.n_trials", "sweep.master_seed", "sweep.antenna_points",
         "ensemble.n_rx", "ensemble.n_tx", "ensemble.n_trials", "ensemble.master_seed",
         "trial_index", "verify.n_cases", "verify.master_seed", "sweep.workers"],
)
def test_counts_and_seeds_must_be_integers(field, build, value):
    # 2.0 would be usable but is rejected all the same: a count or seed is never
    # rounded or parsed.  True is an int to Python, but no count.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        build(value)
    build(np.int64(1))  # numpy integers are integers


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, 1e-310])
def test_sweep_spec_rejects_a_bad_noise_power(value):
    with pytest.raises(ValueError, match="noise_power must be positive and finite"):
        _small_snr_spec(noise_power=value)


@pytest.mark.parametrize(
    "value", [None, "1.0", 1.0 + 0j, [1.0], np.ones(2)], ids=["None", "str", "complex", "list", "array"]
)
@pytest.mark.parametrize("entry", ["SystemConfig", "SweepSpec", "water_filling", "milac_rate", "snr_db_to_tx_power"])
def test_a_noise_power_that_is_no_real_number_is_a_value_error_naming_it(entry, value):
    # An unordered value (TypeError) or an array of several (ambiguous truth)
    # breaks the comparison itself; the rule still names the field.
    h = rayleigh_channel(ChannelEnsembleSpec(**_ENSEMBLE), 0)
    design = beamforming.design_milac(h, SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=1.0, noise_power=1.0))
    call = {
        "SystemConfig": lambda: SystemConfig(n_streams=1, n_tx=2, n_rx=2, tx_power=1.0, noise_power=value),
        "SweepSpec": lambda: _small_snr_spec(noise_power=value),
        "water_filling": lambda: beamforming.water_filling(np.array([2.0, 1.0]), 1.0, value),
        "milac_rate": lambda: beamforming.milac_rate(design.g, h, design.f, design.allocation, 1.0, value),
        "snr_db_to_tx_power": lambda: snr_db_to_tx_power(0.0, value),
    }[entry]
    with pytest.raises(ValueError, match="noise_power must be positive and finite"):
        call()


# ---------------------------------------------------------------------------
# CSV and manifest


def test_write_csv_empty_result_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(SweepResult(mode="snr_sweep", rows=()), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_write_csv_row_count_and_round_trip(tmp_path):
    rows = tuple(
        SweepRow(
            sweep_value=float(i),
            mean_milac_rate=np.pi * (i + 1),
            mean_digital_rate=np.e * (i + 1),
            mean_capacity=np.sqrt(2) * (i + 1),
            max_rel_gap=1.23e-12 * (i + 1),
            n_trials=7,
        )
        for i in range(5)
    )
    path = tmp_path / "five.csv"
    write_csv(SweepResult(mode="snr_sweep", rows=rows), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0] == CSV_HEADER
    # Parsing the text back must reproduce every float bit for bit.
    for line, row in zip(lines[1:], rows):
        toks = line.split(",")
        assert float(toks[0]) == row.sweep_value
        assert float(toks[1]) == row.mean_milac_rate
        assert float(toks[2]) == row.mean_digital_rate
        assert float(toks[3]) == row.mean_capacity
        assert float(toks[4]) == row.max_rel_gap
        assert int(toks[5]) == row.n_trials


def test_sweep_csv_end_to_end(tmp_path):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_small_snr_spec(), workers=1)
    write_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + len(result.rows)


def _economy_svd_ordered(h, n_streams=None):
    """The reference economy route: svd_ordered as it was before the top-s route,
    which phase-fixed all k economy triplets, and the design then read n_streams."""
    u, sigma, vh = np.linalg.svd(np.asarray(h, dtype=complex), full_matrices=False)
    v = vh.conj().swapaxes(-1, -2)
    entries = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)[..., 0, :]
    mags = np.abs(entries)
    phases = np.where(mags > 0, entries / np.where(mags > 0, mags, 1.0), 1.0).conj()[..., None, :]
    s = n_streams or sigma.shape[-1]
    return SvdFactors(u=(u * phases)[..., :s], sigma=sigma[..., :s], v=(v * phases)[..., :s])


def test_a_large_sweep_whose_top_s_checks_all_fail_writes_the_economy_routes_bytes(monkeypatch, tmp_path):
    # 128 x 128 links with 8 streams take the top-s route; NaN triplets fail
    # every check, so each trial takes the economy SVD alone.
    assert beamforming._takes_top_s(128, 128, 8)
    argv = ["sweep-snr", "--antennas", "128", "--streams", "8", "--trials", "2", "--workers", "1", "--out"]

    def nan_triplets(h, s):
        trials, (n_rx, n_tx) = h.shape[:-2], h.shape[-2:]
        return (np.full(trials + (n_rx, s), np.nan + 0j), np.full(trials + (s,), np.nan),
                np.full(trials + (n_tx, s), np.nan + 0j))

    monkeypatch.setattr(beamforming, "_gram_triplets", nan_triplets)
    assert cli.main(argv + [str(tmp_path / "fallback.csv")]) == 0
    route = "svd_route = 128: top-s (zhetrd + dstemr of the Gram matrix)\n"
    assert route in (tmp_path / "fallback.csv.manifest.txt").read_text()
    monkeypatch.setattr(beamforming, "svd_ordered", _economy_svd_ordered)
    assert cli.main(argv + [str(tmp_path / "reference.csv")]) == 0
    assert (tmp_path / "fallback.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_manifest_records_the_run(tmp_path, monkeypatch):
    import scipy

    def entries(spec, workers=1):
        path = tmp_path / "manifest.txt"
        write_manifest(spec, path, csv_path="sweep.csv", workers=workers)
        return dict(line.split(" = ", 1) for line in path.read_text().strip().split("\n") if " = " in line)

    written = entries(_small_snr_spec())
    assert written["mode"] == "snr_sweep"
    assert written["master_seed"] == "11"
    assert written["n_trials"] == "4"
    assert written["csv"] == "sweep.csv"
    assert "package_version" in written
    # The environment that produced the CSV: library versions and the worker count used.
    assert written["numpy_version"] == np.__version__
    assert written["scipy_version"] == scipy.__version__
    assert written["workers"] == "1"
    assert entries(_small_snr_spec(), workers=3)["workers"] == "3"
    # The BLAS each library was built with, as its build configuration records it.
    built = [package.__config__.CONFIG["Build Dependencies"]["blas"] for package in (np, scipy)]
    numpy_blas, scipy_blas = (f"{blas['name']} {blas['version']}" for blas in built)
    assert written["blas"] == f"numpy: {numpy_blas}, scipy: {scipy_blas}"
    monkeypatch.setattr(scipy, "__config__", None)
    assert entries(_small_snr_spec())["blas"] == f"numpy: {numpy_blas}, scipy: unknown"
    # The SVD route of each antenna count, with the routine it calls.
    assert written["svd_route"] == "8: economy (numpy.linalg.svd)"
    spec = _small_snr_spec(mode="antenna_sweep", snr_points_db=(0.0,), antenna_points=(8, 64), n_streams=4)
    top_s = "top-s (zhetrd + dstemr of the Gram matrix)"
    assert entries(spec)["svd_route"] == f"8: economy (numpy.linalg.svd), 64: {top_s}"


# ---------------------------------------------------------------------------
# verification suite


def test_run_verification_all_checks_pass():
    rows = run_verification(master_seed=0, n_cases=5)
    assert len(rows) >= 5
    for row in rows:
        assert row.passed, f"{row.name}: worst {row.worst:.3e} vs tol {row.tol:.3e}"
        assert row.worst <= row.tol
        assert row.cases >= 1


def test_run_verification_is_deterministic():
    a = run_verification(master_seed=9, n_cases=3)
    b = run_verification(master_seed=9, n_cases=3)
    assert a == b


def test_verify_takes_the_largest_64_bit_seed():
    assert all(row.passed for row in run_verification(2**64 - 1, 1))


def _nan_transfer_block(theta, partition):
    return np.full((partition.n_outputs, partition.n_inputs), np.nan)


def _nan_analog_rate(h, config):
    return dataclasses.replace(run_trial(h, config), milac_rate=np.nan)


@pytest.mark.parametrize(
    "target, replacement, failing",
    [
        ("transfer_block_from_scattering", _nan_transfer_block,
         "completion realizes half the target columns"),
        ("run_trial", _nan_analog_rate, "analog and digital rates achieve closed-form capacity"),
    ],
    ids=["transfer_block", "milac_rate"],
)
def test_a_nan_residual_fails_its_verification_row(monkeypatch, target, replacement, failing):
    monkeypatch.setattr(harness, target, replacement)
    rows = {row.name: row for row in run_verification(master_seed=0, n_cases=3)}
    assert np.isnan(rows[failing].worst) and not rows[failing].passed
    assert all(row.passed for name, row in rows.items() if name != failing)


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # A fresh interpreter: this process has scipy.stats from other test modules.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = "import sys, milacsim; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
