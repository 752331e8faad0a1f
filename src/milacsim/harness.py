"""Monte-Carlo sweep harness: per-trial evaluation, aggregation, CSV output.

Trials are embarrassingly parallel: each trial's channel comes from a
counter-based substream keyed by the master seed and its index, and its
design (any phase repair included) from the channel alone, so results do
not depend on execution order or worker count.  A task is a chunk of
trials of one antenna count: a fixed range of trial indices, as many as
128 x 128 channel entries hold and at least one (chunk_size), set by the
link's shape alone and never by the worker count.  A task draws its chunk's
channels in one call, designs each once and rates it at every SNR point of
its config, all in one stacked pass that gives each trial exactly what
run_trial gives it alone.  Aggregation sums per-trial values in trial
order with pairwise summation, so serial and parallel runs are byte-identical.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from .beamforming import (
    PowerAllocation,
    RateReport,
    SystemConfig,
    capacity_closed_form,
    design_milac,
    digital_design_and_rate,
    milac_rate,
    svd_route,
    water_filling,
)
from .channel import ChannelEnsembleSpec, rayleigh_channel
from .exceptions import _as_complex, _as_doubles, _check_integers, _check_positive_finite, _check_seed
from .network import (
    DEFAULT_REF_ADMITTANCE,
    AdmittanceMatrix,
    PortPartition,
    ScatteringMatrix,
    admittance_to_scattering,
    check_lossless_reciprocal,
    complete_scattering_rx,
    complete_scattering_tx,
    scattering_to_admittance,
    susceptance_rx,
    susceptance_tx,
    transfer_block_from_admittance,
    transfer_block_from_scattering,
)

SWEEP_MODES = ("snr_sweep", "antenna_sweep")

WORKERS_ENV_VAR = "MILACSIM_WORKERS"

CSV_HEADER = "sweep_value,mean_milac_rate,mean_digital_rate,mean_capacity,max_rel_gap,n_trials"

# A sweep task stacks the trials whose channels fit in this many entries (one 128 x 128 link).
CHUNK_ENTRIES = 128 * 128


@dataclass(frozen=True)
class SweepSpec:
    """Description of one Monte-Carlo sweep.

    For an SNR sweep snr_points_db supplies the x-axis and antenna_points
    holds the one fixed antenna count; for an antenna sweep antenna_points
    supplies the x-axis and snr_points_db holds the one fixed SNR.  Both point
    vectors must be strictly ascending, and the fixed one must hold exactly
    one point.  Every trial uses noise_power; each SNR must give a normal
    transmit power.  The counts, the seed and both powers are checked by
    building the link configs, the smallest antenna count's first, and its
    ensemble; configs keeps one per antenna count, at all the SNR points.
    """

    mode: str
    snr_points_db: tuple[float, ...]
    antenna_points: tuple[int, ...]
    n_streams: int
    n_trials: int = 100
    master_seed: int = 0
    noise_power: float = 1.0
    configs: tuple[SystemConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be one of {SWEEP_MODES}, got {self.mode!r}")
        snr = _as_doubles(self.snr_points_db, "snr_points_db")
        if snr.ndim != 1:
            raise ValueError(f"snr_points_db must be a vector of SNRs in dB, got {snr.ndim} dimensions")
        snr = tuple(snr.tolist())
        try:
            ant = tuple(self.antenna_points)
        except TypeError:
            raise ValueError(f"antenna_points must be a vector of antenna counts, got {self.antenna_points!r}") from None
        for n in ant:
            _check_integers(antenna_points=n)
        ant = tuple(int(x) for x in ant)
        if len(snr) == 0 or len(ant) == 0:
            raise ValueError("sweep point vectors must be nonempty")
        if any(b <= a for a, b in zip(snr, snr[1:])):
            raise ValueError("snr_points_db must be strictly ascending")
        if any(b <= a for a, b in zip(ant, ant[1:])):
            raise ValueError("antenna_points must be strictly ascending")
        fixed, points = ("antenna_points", ant) if self.mode == "snr_sweep" else ("snr_points_db", snr)
        if len(points) != 1:
            raise ValueError(f"{fixed} must hold one point in {self.mode}, got {len(points)}")
        object.__setattr__(self, "configs", tuple(_link_config(self, n, snr) for n in ant))
        ChannelEnsembleSpec(n_rx=ant[0], n_tx=ant[0], n_trials=self.n_trials, master_seed=self.master_seed)
        object.__setattr__(self, "snr_points_db", snr)
        object.__setattr__(self, "antenna_points", ant)


@dataclass(frozen=True)
class SweepRow:
    """Aggregated statistics of one sweep point."""

    sweep_value: float
    mean_milac_rate: float
    mean_digital_rate: float
    mean_capacity: float
    max_rel_gap: float
    n_trials: int


@dataclass(frozen=True)
class SweepResult:
    """All rows of a finished sweep, in sweep-point order, and the number of
    processes that ran its tasks (1 when it ran them in this process)."""

    mode: str
    rows: tuple[SweepRow, ...]
    workers: int = 1


def snr_db_to_tx_power(snr_db: float, noise_power: float) -> float:
    """Linear transmit power for a target SNR in dB at a given noise power.

    Raises ValueError naming noise_power if it is not a positive, finite and
    normal double, and naming the SNR if the power is not a normal double.
    """
    _check_positive_finite(noise_power=noise_power)
    try:
        power = noise_power * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = np.inf
    if not sys.float_info.min <= power <= sys.float_info.max:
        raise ValueError(f"SNR {snr_db!r} dB gives transmit power {power!r}, not a normal double")
    return power


def run_trial(h, config: SystemConfig, _seed=None) -> RateReport:
    """Design, realize, and rate one channel, or a stack of them, through the full circuit path.

    The networks come from the channel's SVD alone, so one ordered SVD, one
    synthesis and one circuit solve per side and one capacity spectrum serve
    every transmit power of the config.  Only water-filling, the rates and
    the digital benchmark depend on the power, and each takes all of the
    config's powers in one vectorized call.  The analog rate is evaluated on
    the transfer blocks of the synthesized circuits, the design's f and g:
    each side's factored network is driven with s right-hand sides in
    O(n s^2), equal to transfer_block_from_admittance of its dense
    susceptance matrix, which is never formed here.  A stack of T channels
    runs the same chain once on (T, ...) stacks, and each trial gets exactly
    what it gets alone.

    Args:
        h: channel matrix (n_rx x n_tx), or a stack of T (T, n_rx, n_tx).
        config: link parameters; a vector tx_power rates the link at each power.
        _seed: ignored, as by design_milac, and kept only for perfbench's
            positional seed until ROADMAP item 1.

    Returns:
        RateReport with float rates at one power, K-vectors at K powers; a
        stack adds a leading trial axis to each.
    """
    design = design_milac(h, config)
    # The capacity takes its own spectrum, so it checks the design independently.
    lam = np.linalg.svd(_as_complex(h, "channel matrix"), compute_uv=False)[..., : config.n_streams] ** 2
    # f first: when both circuits are past the cap, the transmit side is the one named.
    f = design.f
    rate, sinr = milac_rate(design.g, h, f, design.allocation, config.tx_power, config.noise_power)
    capacity = capacity_closed_form(lam, design.allocation, config.tx_power, config.noise_power)
    _, digital = digital_design_and_rate(h, design, config.tx_power, config.noise_power)
    return RateReport(milac_rate=rate, digital_rate=digital, capacity=capacity, per_stream_sinr=sinr, design=design)


def _link_config(spec: SweepSpec, n_antennas: int, snr_points_db) -> SystemConfig:
    """Config of a sweep's n_antennas x n_antennas links at all of snr_points_db."""
    return SystemConfig(
        n_streams=spec.n_streams,
        n_tx=n_antennas,
        n_rx=n_antennas,
        tx_power=tuple(snr_db_to_tx_power(snr_db, spec.noise_power) for snr_db in snr_points_db),
        noise_power=spec.noise_power,
    )


def chunk_size(n_rx: int, n_tx: int) -> int:
    """Trials per sweep task on n_rx x n_tx links: as many as CHUNK_ENTRIES
    channel entries hold (256 of an 8 x 8 link), and at least one."""
    return max(1, CHUNK_ENTRIES // (n_rx * n_tx))


def _sweep_task(task: tuple) -> np.ndarray:
    """One chunk of channels (config, trial range) rated at each of the config's SNR points; pickles for pools.

    Returns the (trial, point, 3) array of analog rate, digital rate and capacity.
    """
    spec, config, trials = task
    ensemble = ChannelEnsembleSpec(
        n_rx=config.n_rx, n_tx=config.n_tx, n_trials=spec.n_trials, master_seed=spec.master_seed
    )
    report = run_trial(rayleigh_channel(ensemble, trials), config)
    return np.stack([report.milac_rate, report.digital_rate, report.capacity], axis=-1)


def resolve_workers(workers) -> int:
    """The worker count of a sweep: workers, else the MILACSIM_WORKERS
    environment variable, else the CPU count; ValueError naming the source
    unless it is an integer of at least 1."""
    name = "workers"
    if workers is None:
        name, workers = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR, "").strip() or os.cpu_count() or 1
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {workers!r}") from None
    _check_integers(workers=workers)
    if workers < 1:
        raise ValueError(f"{name} must be at least 1, got {workers}")
    return workers


def run_sweep(spec: SweepSpec, workers=None) -> SweepResult:
    """Run a sweep and aggregate per-point means over the trial ensemble.

    Each task is a chunk of trials of one antenna count, a fixed range of
    chunk_size(n, n) trial indices (the last one holds the remainder), rated
    in one stacked pass; a sweep of one task runs here, with no pool.

    Args:
        spec: sweep description (mode, points, trials, seed and noise power).
        workers: process count; defaults to the MILACSIM_WORKERS environment
            variable or, failing that, the available CPU count.  Results are
            identical for any worker count.

    Returns:
        SweepResult with one row per sweep point, in point order, and the
        process count used: 1 when one worker or one task runs in this
        process, else the resolved worker count.
    """
    axis = spec.snr_points_db if spec.mode == "snr_sweep" else spec.antenna_points
    sweep_values = [float(x) for x in axis]

    # One config per antenna count, at all its SNR points: each chunk of its trials is one task.
    tasks = []
    for config in spec.configs:
        size = chunk_size(config.n_rx, config.n_tx)
        tasks += [(spec, config, range(t, min(t + size, spec.n_trials))) for t in range(0, spec.n_trials, size)]
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(tasks) == 1:
        n_workers = 1
        outcomes = [_sweep_task(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks, chunksize=chunk))

    # (config, trial, point, 3) -> C-contiguous (sweep point, column, trial): each
    # row's sums run over a contiguous trial axis with numpy's pairwise summation.
    values = np.concatenate(outcomes).reshape(len(spec.configs), spec.n_trials, -1, 3)
    values = np.ascontiguousarray(values.transpose(0, 2, 3, 1)).reshape(len(sweep_values), 3, spec.n_trials)
    means = values.sum(axis=-1) / spec.n_trials
    # Worst of the analog and digital gaps to capacity over each row's trials.
    gaps = (np.abs(values[:, :2] - values[:, 2:]) / values[:, 2:]).max(axis=(1, 2))
    rows = [
        SweepRow(
            sweep_value=sweep_value,
            mean_milac_rate=milac,
            mean_digital_rate=digital,
            mean_capacity=capacity,
            max_rel_gap=gap,
            n_trials=spec.n_trials,
        )
        for sweep_value, (milac, digital, capacity), gap in zip(sweep_values, means.tolist(), gaps.tolist())
    ]
    return SweepResult(mode=spec.mode, rows=tuple(rows), workers=n_workers)


def write_csv(result: SweepResult, path) -> None:
    """Write sweep rows as CSV with full double-precision scientific notation."""
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(
            f"{row.sweep_value:.17e},{row.mean_milac_rate:.17e},{row.mean_digital_rate:.17e},"
            f"{row.mean_capacity:.17e},{row.max_rel_gap:.17e},{row.n_trials}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _blas(package) -> str:
    """Name and version of the BLAS a package was built with, from its build
    configuration; "unknown" where the package does not record it."""
    try:
        blas = package.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def write_manifest(spec: SweepSpec, path, csv_path, workers: int) -> None:
    """Record the sweep description, seed, SVD route, package, numpy and scipy
    versions, the BLAS each was built with and the worker count (the sweep's
    SweepResult.workers) next to a CSV.

    The two SVD routes give the same rates to 1e-9 but differ in their last
    bits, so svd_route names the one each antenna count takes (svd_route()).
    """
    from . import __version__

    lines = [
        f"mode = {spec.mode}",
        "snr_points_db = " + ",".join(repr(x) for x in spec.snr_points_db),
        "antenna_points = " + ",".join(str(x) for x in spec.antenna_points),
        f"n_streams = {spec.n_streams}",
        f"n_trials = {spec.n_trials}",
        f"master_seed = {spec.master_seed}",
        f"noise_power = {spec.noise_power!r}",
        "svd_route = " + ", ".join(f"{c.n_rx}: {svd_route(c.n_rx, c.n_tx, c.n_streams)}" for c in spec.configs),
        f"csv = {csv_path}",
        f"package_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"scipy_version = {scipy.__version__}",
        f"blas = numpy: {_blas(np)}, scipy: {_blas(scipy)}",
        f"workers = {workers}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


@dataclass(frozen=True)
class VerificationRow:
    """Outcome of one randomized invariant check."""

    name: str
    cases: int
    worst: float
    tol: float
    passed: bool


def run_verification(master_seed: int = 0, n_cases: int = 25) -> tuple[VerificationRow, ...]:
    """Randomized end-to-end invariant suite over n_cases instances per check.

    Every check draws fresh seeded instances from one generator, measures
    its worst residual, and compares it against the tolerance the library
    promises; a NaN residual makes its check fail.  Returns one row per
    check; the suite passes iff every row passes.

    Raises:
        ValueError: if master_seed or n_cases is not an integer, master_seed
            does not fit in an unsigned 64-bit integer, or n_cases is below
            1, which would leave every check vacuous.
    """
    # Imported here: scipy.stats costs most of the package's import time.
    from scipy.stats import unitary_group

    _check_integers(master_seed=master_seed, n_cases=n_cases)
    _check_seed(master_seed)
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    rng = np.random.default_rng(master_seed)
    y0 = DEFAULT_REF_ADMITTANCE

    def sizes(n_max=8):
        n = int(rng.integers(2, n_max + 1))
        return n, int(rng.integers(1, n + 1))

    def haar(n, rotate=False):
        # A Haar unitary, optionally with random column phases.
        q = unitary_group.rvs(n, random_state=rng)
        return q * np.exp(2j * np.pi * rng.random(n)) if rotate else q

    # Each case draws one instance from rng and returns its residual (or residuals);
    # the draws run in table order, so a seed gives the same instances.
    def round_trip():
        n = int(rng.integers(2, 9))
        y = AdmittanceMatrix(y0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        back = scattering_to_admittance(admittance_to_scattering(y, y0), y0)
        return np.linalg.norm(back.y - y.y) / np.linalg.norm(y.y)

    def imaginary_admittance():
        q = haar(int(rng.integers(2, 9)))
        return np.abs(scattering_to_admittance(ScatteringMatrix(q @ q.T), y0).y.real).max() / y0

    def completions():
        n, n_s = sizes()
        v, u = haar(n), haar(n)
        rep_tx = check_lossless_reciprocal(complete_scattering_tx(v[:, :n_s], v[:, n_s:]))
        rep_rx = check_lossless_reciprocal(complete_scattering_rx(u[:, :n_s], u[:, n_s:]))
        return [rep_tx.unitarity, rep_tx.asymmetry, rep_rx.unitarity, rep_rx.asymmetry]

    def completion_block():
        n, n_s = sizes()
        v = haar(n)
        theta = complete_scattering_tx(v[:, :n_s], v[:, n_s:])
        return np.abs(transfer_block_from_scattering(theta, PortPartition(n_s, n)) - v[:, :n_s] / 2).max()

    def susceptance_admittance():
        n, n_s = sizes()
        v, u = haar(n, rotate=True), haar(n, rotate=True)
        y_tx = scattering_to_admittance(complete_scattering_tx(v[:, :n_s], v[:, n_s:]), y0)
        y_rx = scattering_to_admittance(complete_scattering_rx(u[:, :n_s], u[:, n_s:]), y0)
        return [
            np.abs(susceptance_tx(v, n_s, y0).b - (-1j * y_tx.y).real).max() / y0,
            np.abs(susceptance_rx(u, n_s, y0).b - (-1j * y_rx.y).real).max() / y0,
        ]

    def susceptance_block():
        n, n_s = sizes()
        v = haar(n, rotate=True)
        y = AdmittanceMatrix(1j * susceptance_tx(v, n_s, y0).b)
        return np.abs(transfer_block_from_admittance(y, PortPartition(n_s, n), y0) - v[:, :n_s] / 2).max()

    def water_filling_sum():
        n_s = int(rng.integers(1, 9))
        lam = rng.random(n_s) * 10.0
        lam[int(rng.integers(0, n_s))] = lam.max() + 0.1
        return abs(float(np.sum(water_filling(lam, 10.0 ** rng.uniform(-1, 2), 1.0).p)) - 1.0)

    def water_filling_gain():
        # Rate gain of 100 random simplex allocations over water-filling.
        n_s = int(rng.integers(2, 9))
        a = rng.standard_normal((n_s, n_s)) + 1j * rng.standard_normal((n_s, n_s))
        lam = np.linalg.svd(a, compute_uv=False)[:n_s] ** 2
        total_power = 10.0 ** rng.uniform(-1, 2)
        best = capacity_closed_form(lam, water_filling(lam, total_power, 1.0), total_power, 1.0)
        return [
            capacity_closed_form(lam, PowerAllocation(rng.dirichlet(np.ones(n_s)), np.nan), total_power, 1.0)
            - best
            for _ in range(100)
        ]

    def full_chain():
        n, n_s = sizes(n_max=6)
        ensemble = ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=1, master_seed=int(rng.integers(0, 2**63)))
        power = snr_db_to_tx_power(float(rng.uniform(-10, 20)), 1.0)
        config = SystemConfig(n_streams=n_s, n_tx=n, n_rx=n, tx_power=power, noise_power=1.0)
        report = run_trial(rayleigh_channel(ensemble, 0), config)
        capacity = report.capacity
        return [abs(rate - capacity) / capacity for rate in (report.milac_rate, report.digital_rate)]

    checks = (
        ("admittance/scattering round trip (relative)", 1e-10, round_trip),
        ("lossless reciprocal scattering gives imaginary admittance", 1e-10, imaginary_admittance),
        ("scattering completions unitary and symmetric", 1e-10, completions),
        ("completion realizes half the target columns", 0.0, completion_block),
        ("susceptance matches scattering-derived admittance", 1e-9, susceptance_admittance),
        ("susceptance network realizes the target transfer block", 1e-8, susceptance_block),
        ("water-filling fractions sum to one", 1e-12, water_filling_sum),
        ("water-filling never beaten by random allocations", 1e-12, water_filling_gain),
        ("analog and digital rates achieve closed-form capacity", 1e-9, full_chain),
    )
    rows = []
    for name, tol, case in checks:
        # np.max keeps a NaN, so it fails `worst <= tol`; the 0.0 floors the gains of water-filling.
        worst = float(np.max([0.0] + [np.max(case()) for _ in range(n_cases)]))
        rows.append(VerificationRow(name=name, cases=n_cases, worst=worst, tol=tol, passed=worst <= tol))
    return tuple(rows)
