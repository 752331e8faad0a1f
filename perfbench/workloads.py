"""The three workloads, their correctness checks and their per-layer summary.

Every call into milacsim goes through a module attribute looked up at call
time (``cli.main``, ``bf.design_milac``, ...), so a ``Tracer`` that wraps
those attributes sees the benchmark's calls as well as the program's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import time
import traceback

import numpy as np
import scipy.linalg

import milacsim.beamforming as bf
import milacsim.channel as channel
import milacsim.cli as cli
import milacsim.harness as harness
import milacsim.network as net
from spans import Tracer, median_ms, self_times

# Relative agreement the library promises between its rates and the capacity.
RATE_TOL = 1e-9

# The reference probe: fixed numpy work that does not touch milacsim.
_probe_rng = np.random.default_rng(20250605)
_PROBE_MATRIX = _probe_rng.standard_normal((64, 64)) + 1j * _probe_rng.standard_normal((64, 64))


def reference_probe() -> tuple[float, float]:
    """Wall and CPU seconds the fixed probe takes now: three SVDs and solves of a 64x64 matrix.

    LAPACK work of the program's own sizes tracks the host's speed changes;
    in trials on a shared 2-vCPU host, small or pure-Python probes did not.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(3):
        np.linalg.svd(_PROBE_MATRIX)
        np.linalg.solve(_PROBE_MATRIX, _PROBE_MATRIX)
    return time.perf_counter() - t0, time.process_time() - c0


def ratios_to_probes(values, probes) -> list[float]:
    """Each sample's value over the mean of the probes either side of it.

    ``probes`` brackets the samples: probe i ran just before sample i and
    probe i + 1 just after it.
    """
    if len(probes) != len(values) + 1:
        raise ValueError("need one probe before each sample and one after the last")
    return [v / ((a + b) / 2) for v, a, b in zip(values, probes, probes[1:])]


def cpu_seconds(*who) -> float:
    """User plus sys CPU of this process and its waited-for children (or of ``who``)."""
    total = 0.0
    for w in who or (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(w)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest max-RSS of this process or any waited-for child, in MB (1e6 bytes)."""
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def derived_seed(seed: int, index: int) -> int:
    """64-bit seed number ``index`` drawn from ``seed``: a CLI call's, or a link's phase-repair seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# --------------------------------------------------------------------------
# Sweeps through the CLI


def sweep_failures(exit_code: int, csv_text: str, n_points: int, n_trials: int) -> tuple[int, list[str]]:
    """Trials a finished ``sweep-*`` call must count as failed, and why.

    A nonzero exit fails every trial.  Otherwise a row fails all its trials
    when its analog gap (``max_rel_gap``) or its digital-vs-capacity gap of
    the means exceeds RATE_TOL, or when it does not parse; missing rows fail
    their trials too.
    """
    if exit_code != 0:
        return n_points * n_trials, [f"exit code {exit_code}"]
    lines = csv_text.splitlines()
    if not lines or lines[0] != harness.CSV_HEADER:
        return n_points * n_trials, ["CSV header missing or wrong"]
    failed, reasons = 0, []
    rows = lines[1:]
    for row in rows:
        try:
            _, _, digital, capacity, gap, trials = row.split(",")
            digital, capacity, gap, trials = float(digital), float(capacity), float(gap), int(trials)
        except ValueError:
            failed += n_trials
            reasons.append(f"unparsable row {row!r}")
            continue
        digital_gap = abs(digital - capacity) / capacity
        if not (gap <= RATE_TOL and digital_gap <= RATE_TOL):
            failed += trials
            reasons.append(f"row {row!r}: analog gap {gap:.3e}, digital gap {digital_gap:.3e}")
    if len(rows) < n_points:
        failed += (n_points - len(rows)) * n_trials
        reasons.append(f"{n_points - len(rows)} rows missing")
    return failed, reasons


class SweepRunner:
    """Runs one ``milacsim sweep-snr`` call at a time and checks its output.

    Call ``index`` passes the CLI the seed ``derived_seed(seed, index)``: the
    CLI draws a trial's channel once for all SNR points, so a single seed
    would time the same few channels over and over.
    """

    def __init__(self, spec: dict, seed: int, out_dir: str):
        self.cli_args = list(spec["cli"])
        self.seed = seed
        self.n_trials = int(self.cli_args[self.cli_args.index("--trials") + 1])
        self.n_points = spec["rows"]
        self.out_dir = out_dir
        self.hashes: dict[int, str] = {}  # CSV digest per call index
        self.reasons: list[str] = []

    @property
    def trials_per_call(self) -> int:
        return self.n_points * self.n_trials

    def call(self, workers: int, tag: str, index: int = 0) -> dict:
        """One CLI call; returns wall, CPU, failed trials and the CSV digest."""
        out = os.path.join(self.out_dir, f"{tag}.csv")
        argv = self.cli_args + ["--seed", str(derived_seed(self.seed, index)), "--workers", str(workers), "--out", out]
        sink = io.StringIO()
        cpu0, child0 = cpu_seconds(), cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:  # an uncaught error is the CLI exiting nonzero
            code = 1
            self.reasons.append(traceback.format_exc(limit=-3))
        wall = time.perf_counter() - t0
        cpu, child = cpu_seconds() - cpu0, cpu_seconds(resource.RUSAGE_CHILDREN) - child0
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        failed, reasons = sweep_failures(code, data.decode("utf-8", "replace"), self.n_points, self.n_trials)
        digest = hashlib.sha256(data).hexdigest()
        if self.hashes.setdefault(index, digest) != digest:
            # Same seed, different bytes: the whole call counts as failed.
            failed = self.trials_per_call
            reasons.append(f"CSV of {tag} ({argv}) differs from an earlier call with the same seed")
        self.reasons.extend(reasons)
        return {"wall": wall, "cpu": cpu, "child_cpu": child, "failed": failed, "sha256": digest}


# --------------------------------------------------------------------------
# One link at a time through the library


def make_channel(spec: dict, seed: int, index: int) -> np.ndarray:
    """Channel of link ``index``: Rayleigh, or real-valued for every ``real_every``-th."""
    n = spec["antennas"]
    if index % spec["real_every"] == spec["real_every"] - 1:
        return np.random.default_rng([seed, index]).standard_normal((n, n))
    ensemble = channel.ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=2**62, master_seed=seed)
    return channel.rayleigh_channel(ensemble, index)


def link_config(spec: dict) -> bf.SystemConfig:
    n = spec["antennas"]
    return bf.SystemConfig(
        n_streams=spec["streams"],
        n_tx=n,
        n_rx=n,
        tx_power=harness.snr_db_to_tx_power(spec["snr_db"], 1.0),
        noise_power=1.0,
    )


def drive_link(h, config: bf.SystemConfig, rng_seed: int):
    """The README quick-start chain: design, drive both circuits, rate the link."""
    b_tx, b_rx, allocation = bf.design_milac(h, config, rng_seed)
    y0 = config.ref_admittance
    f = net.transfer_block_from_admittance(
        net.AdmittanceMatrix(1j * b_tx.b), net.PortPartition(config.n_streams, config.n_tx), y0
    )
    g = net.transfer_block_from_admittance(
        net.AdmittanceMatrix(1j * b_rx.b), net.PortPartition(config.n_rx, config.n_streams), y0
    )
    rate, _ = bf.milac_rate(g, h, f, allocation, config.tx_power, config.noise_power)
    return rate, allocation


def check_link(h, config, rng_seed, rate, allocation, with_run_trial: bool) -> list[str]:
    """Problems with one link's rate; empty when it is correct.

    The capacity comes from an independent ``scipy.linalg.svdvals``.  With
    ``with_run_trial`` the link is also run through ``harness.run_trial``,
    which must give the same analog rate and a matching digital rate.
    """
    lam = scipy.linalg.svdvals(np.asarray(h, dtype=complex))[: config.n_streams] ** 2
    capacity = bf.capacity_closed_form(lam, allocation, config.tx_power, config.noise_power)
    gaps = {"analog": abs(rate - capacity) / capacity}
    if with_run_trial:
        report = harness.run_trial(h, config, rng_seed)
        gaps["run_trial analog"] = abs(report.milac_rate - rate) / capacity
        gaps["run_trial digital"] = abs(report.digital_rate - capacity) / capacity
        gaps["run_trial capacity"] = abs(report.capacity - capacity) / capacity
    return [f"{k} gap {v:.3e}" for k, v in gaps.items() if not v <= RATE_TOL]


class LinkRunner:
    """Closed loop, one client: the next link starts when the previous one is rated."""

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.config = link_config(spec)
        self.reasons: list[str] = []

    def run(self, indices, tracer: Tracer | None = None) -> dict:
        """Time each link of ``indices``; checks run outside the timed span."""
        latencies, cpu, failed = [], 0.0, 0
        for i in indices:
            h = make_channel(self.spec, self.seed, i)
            rng_seed = derived_seed(self.seed, i)
            if tracer is not None:
                tracer.trial = i
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                rate, allocation = drive_link(h, self.config, rng_seed)
                error = None
            except Exception as exc:  # a failed link is counted, not fatal
                error = f"link {i}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            cpu += cpu_seconds() - cpu0
            if tracer is not None:
                tracer.trial = None
            latencies.append(t1 - t0)
            if error is None:
                try:
                    problems = check_link(
                        h, self.config, rng_seed, rate, allocation,
                        with_run_trial=i % self.spec["run_trial_every"] == 0,
                    )
                except Exception as exc:  # a check that cannot run is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if problems:
                    error = f"link {i}: " + "; ".join(problems)
            if error is not None:
                failed += 1
                self.reasons.append(error)
        return {"latencies": latencies, "cpu": cpu, "failed": failed}


# --------------------------------------------------------------------------
# Tracing: which functions, under which names


def _svd_name(args, kwargs) -> str:
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return "lapack.svd_full" if compute_uv else "lapack.svd_values"


def _repaired(args, kwargs, result) -> dict:
    factors = kwargs.get("factors", args[0] if args else None)
    return {"repaired": result is not factors}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the layer functions at the names their callers look up."""
    import numpy.linalg

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "run_sweep", "harness.run_sweep", ends_trials=True)
    w(cli, "write_csv", "cli.write_csv")
    w(cli, "write_manifest", "cli.write_manifest")
    w(harness, "rayleigh_channel", "channel.rayleigh_channel", starts_trial=True)
    w(harness, "run_trial", "harness.run_trial")
    for owner in (harness, bf):
        w(owner, "design_milac", "beamforming.design_milac")
        w(owner, "milac_rate", "beamforming.milac_rate")
        w(owner, "capacity_closed_form", "beamforming.capacity_closed_form")
    w(harness, "digital_design_and_rate", "beamforming.digital_design_and_rate")
    w(harness, "transfer_block_from_admittance", "network.transfer_block_from_admittance")
    w(net, "transfer_block_from_admittance", "network.transfer_block_from_admittance")
    w(channel, "rayleigh_channel", "channel.rayleigh_channel")
    w(bf, "svd_ordered", "beamforming.svd_ordered")
    w(bf, "ensure_invertible_imag", "beamforming.ensure_invertible_imag", note=_repaired)
    w(bf, "water_filling", "beamforming.water_filling")
    w(bf, "susceptance_tx", "network.susceptance_tx")
    w(bf, "susceptance_rx", "network.susceptance_rx")
    w(numpy.linalg, "svd", _svd_name)
    w(numpy.linalg, "solve", "lapack.solve")
    w(scipy.linalg, "lu_factor", "lapack.lu")


TIMED = (
    "channel.rayleigh_channel",
    "beamforming.svd_ordered",
    "beamforming.ensure_invertible_imag",
    "beamforming.water_filling",
    "beamforming.capacity_closed_form",
    "beamforming.design_milac",
    "beamforming.digital_design_and_rate",
    "beamforming.milac_rate",
    "network.susceptance_tx",
    "network.susceptance_rx",
    "network.transfer_block_from_admittance",
    "harness.run_trial",
    "cli.write_csv",
    "cli.write_manifest",
)
COUNTED = ("lapack.svd_full", "lapack.svd_values", "lapack.lu", "lapack.solve")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers from one traced run's spans.

    ``<f>.ms`` is the median inclusive time per call; ``<f>.calls_per_trial``
    counts only calls made inside a trial (the CLI's own calls are outside).  A layer the workload never calls
    reads 0.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    trials = {s.trial for s in spans if s.trial is not None}
    n_trials = max(1, len(trials))

    def per_trial(name):
        return sum(1 for s in by_name.get(name, ()) if s.trial is not None) / n_trials

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    metrics = {}
    for name in TIMED:
        metrics[f"{name}.ms"] = median_ms(s.duration for s in by_name.get(name, ()))
        if not name.startswith("cli."):
            metrics[f"{name}.calls_per_trial"] = per_trial(name)
    for name in COUNTED:
        metrics[f"{name}.calls_per_trial"] = per_trial(name)
    ensure = [s for s in by_name.get("beamforming.ensure_invertible_imag", ()) if s.trial is not None]
    metrics["beamforming.ensure_invertible_imag.repair_share"] = (
        sum(1 for s in ensure if s.repaired) / len(ensure) if ensure else 0.0
    )
    metrics["harness.retries_per_trial"] = (
        sum(1 for s in by_name.get("harness.run_trial", ()) if s.error == "PhaseSearchExhaustedError")
        / n_trials
    )
    sweep_self = 0.0
    if "harness.run_sweep" in by_name:
        sweep_self = total("harness.run_sweep") - total("harness.run_trial") - total("channel.rayleigh_channel")
    metrics["harness.self_ms_per_trial"] = sweep_self / n_trials * 1e3
    own = self_times(spans)
    metrics["cli.main.self_ms"] = median_ms(own[s.id] for s in by_name.get("cli.main", ()))
    return metrics


def warmup(spec: dict) -> None:
    """One trial at the workload's size, as a fresh interpreter's first work."""
    n, s = spec["warmup"]["antennas"], spec["warmup"]["streams"]
    h = channel.rayleigh_channel(channel.ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=1, master_seed=0), 0)
    config = bf.SystemConfig(n_streams=s, n_tx=n, n_rx=n, tx_power=1.0, noise_power=1.0)
    harness.run_trial(h, config, 0)
