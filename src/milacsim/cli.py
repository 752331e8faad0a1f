"""Command-line interface: rate sweeps, invariant verification, design inspection.

Exit codes: 0 on success, 1 on validation errors (bad flags, bad config
values, inconsistent dimensions), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .beamforming import SystemConfig
from .channel import ChannelEnsembleSpec, rayleigh_channel
from .exceptions import MilacError
from .harness import (
    SweepSpec,
    WORKERS_ENV_VAR,
    run_sweep,
    run_trial,
    run_verification,
    snr_db_to_tx_power,
    write_csv,
    write_manifest,
)
from .network import complete_scattering_rx, complete_scattering_tx, dump_matrix_csv


class _CliError(Exception):
    """Validation problem that should terminate with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2 by default; route through the
        # validation path so bad flags exit with status 1 instead.
        raise _CliError(f"{self.prog}: {message}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _CliError(f"expected a comma-separated list of integers, got {text!r}") from exc


# Every flag's value type and help text.  Config-file values go through the
# same type as the command-line flag.
_FLAGS = {
    "streams": (int, "spatial stream count"),
    "antennas": (int, "antenna count per side"),
    "antenna_points": (_parse_int_list, "comma-separated antenna counts"),
    "tx_antennas": (int, "transmit antenna count"),
    "rx_antennas": (int, "receive antenna count"),
    "trials": (int, "Monte-Carlo trials per sweep point"),
    "cases": (int, "instances per check"),
    "seed": (int, "64-bit master seed"),
    "snr_min": (float, "sweep start in dB"),
    "snr_max": (float, "sweep end in dB, inclusive"),
    "snr_step": (float, "sweep step in dB"),
    "snr_db": (float, "SNR in dB"),
    "noise_power": (float, "noise power in watts, linear"),
    "z0": (float, "reference impedance in ohms"),
    "workers": (int, f"worker process count (default ${WORKERS_ENV_VAR} or the CPU count)"),
    "out": (str, "output CSV path; a .manifest.txt is written next to it"),
    "out_dir": (str, "directory for the CSV files"),
}

# Marks a flag that has no default and must be given.
_REQUIRED = object()

_SWEEP_FLAGS = {
    "streams": _REQUIRED,
    "trials": 100,
    "seed": 0,
    "out": _REQUIRED,
    "noise_power": 1.0,
    "workers": None,
}

def _flag_help(name: str, default) -> str:
    text = _FLAGS[name][1]
    if default is _REQUIRED:
        return f"{text} (required)"
    if default is None:
        return text
    if isinstance(default, tuple):
        default = ",".join(str(x) for x in default)
    return f"{text} (default {default})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls in the process."""
    parser = _Parser(
        prog="milacsim",
        description="Sweeps and design tools for lossless reciprocal analog beamforming networks.",
        epilog=f"Default worker count comes from ${WORKERS_ENV_VAR} or the CPU count.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (summary, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, default in defaults.items():
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=_FLAGS[name][0],
                default=argparse.SUPPRESS,
                help=_flag_help(name, default),
            )
        p.add_argument(
            "--config",
            default=argparse.SUPPRESS,
            help="key = value config file; command-line flags override it",
        )
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Layer built-in defaults, config-file values, then explicit flags."""
    explicit = vars(args).copy()
    explicit.pop("command", None)
    defaults = _COMMANDS[command][1]
    merged = {key: value for key, value in defaults.items() if value is not _REQUIRED}
    config_path = explicit.pop("config", None)
    if config_path:
        for key, raw in _load_config(config_path).items():
            if key not in defaults:
                raise _CliError(f"config key {key!r} is not a flag of {command}")
            try:
                merged[key] = _FLAGS[key][0](raw)
            except (ValueError, TypeError) as exc:
                raise _CliError(f"config key {key!r}: cannot parse {raw!r}") from exc
    merged.update(explicit)
    for key in defaults:
        if key not in merged:
            raise _CliError(f"missing required flag --{key.replace('_', '-')}")
    return merged


def _print_sweep(result, out_path: str) -> None:
    # The whole table in one write.
    lines = [f"{'sweep_value':>12} {'milac':>12} {'digital':>12} {'capacity':>12} {'max_rel_gap':>12}"]
    lines += [
        f"{row.sweep_value:>12.4f} {row.mean_milac_rate:>12.6f} {row.mean_digital_rate:>12.6f} "
        f"{row.mean_capacity:>12.6f} {row.max_rel_gap:>12.3e}"
        for row in result.rows
    ]
    lines.append(f"wrote {out_path} and {out_path}.manifest.txt")
    print("\n".join(lines))


def _ref_admittance(opts: dict) -> float:
    z0 = opts["z0"]
    if not (z0 > 0 and sys.float_info.min <= 1.0 / z0 < np.inf):
        raise _CliError(
            f"--z0 must be positive and finite with a finite reciprocal that is not subnormal, got {z0!r}"
        )
    return 1.0 / z0


def _run_sweep_command(opts: dict, mode: str, snr_points_db, antenna_points) -> int:
    spec = SweepSpec(
        mode=mode,
        snr_points_db=snr_points_db,
        antenna_points=antenna_points,
        n_streams=opts["streams"],
        n_trials=opts["trials"],
        master_seed=opts["seed"],
        noise_power=opts["noise_power"],
    )
    result = run_sweep(spec, workers=opts["workers"])
    out = opts["out"]
    write_csv(result, out)
    write_manifest(spec, out + ".manifest.txt", out, result.workers)
    _print_sweep(result, out)
    return 0


def _cmd_sweep_snr(opts: dict) -> int:
    for key in ("snr_min", "snr_max", "snr_step"):
        if not np.isfinite(opts[key]):
            raise _CliError(f"--{key.replace('_', '-')} must be finite, got {opts[key]!r}")
    start, stop, step = opts["snr_min"], opts["snr_max"], opts["snr_step"]
    if step <= 0:
        raise _CliError("--snr-step must be positive")
    if stop < start:
        raise _CliError("--snr-max must not be below --snr-min")
    points = tuple(float(x) for x in np.arange(start, stop + step / 2, step))
    return _run_sweep_command(opts, "snr_sweep", points, (opts["antennas"],))


def _cmd_sweep_antennas(opts: dict) -> int:
    return _run_sweep_command(opts, "antenna_sweep", (opts["snr_db"],), opts["antenna_points"])


def _cmd_verify(opts: dict) -> int:
    rows = run_verification(master_seed=opts["seed"], n_cases=opts["cases"])
    width = max(len(r.name) for r in rows)
    print(f"{'check':<{width}} {'cases':>6} {'worst':>12} {'tol':>10} status")
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}} {r.cases:>6} {r.worst:>12.3e} {r.tol:>10.1e} {status}")
    if all(r.passed for r in rows):
        print("all checks passed")
        return 0
    print("some checks FAILED")
    return 2


def _cmd_design_dump(opts: dict) -> int:
    config = SystemConfig(
        n_streams=opts["streams"],
        n_tx=opts["tx_antennas"],
        n_rx=opts["rx_antennas"],
        tx_power=snr_db_to_tx_power(opts["snr_db"], opts["noise_power"]),
        noise_power=opts["noise_power"],
        ref_admittance=_ref_admittance(opts),
    )
    ensemble = ChannelEnsembleSpec(
        n_rx=config.n_rx, n_tx=config.n_tx, n_trials=1, master_seed=opts["seed"]
    )
    h = rayleigh_channel(ensemble, 0)
    report = run_trial(h, config)
    design = report.design
    n_s = config.n_streams
    # The dense unitaries the networks realize: j times the unitary
    # completions of the leading singular vectors, each side times its phase.
    v, u = design.tx.unitary(), design.rx.unitary()
    theta_tx = complete_scattering_tx(v[:, :n_s], v[:, n_s:])
    theta_rx = complete_scattering_rx(u[:, :n_s], u[:, n_s:])

    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    dump_matrix_csv(design.b_tx.b, os.path.join(out_dir, "susceptance_tx.csv"))
    dump_matrix_csv(design.b_rx.b, os.path.join(out_dir, "susceptance_rx.csv"))
    dump_matrix_csv(theta_tx.theta, os.path.join(out_dir, "scattering_tx.csv"))
    dump_matrix_csv(theta_rx.theta, os.path.join(out_dir, "scattering_rx.csv"))
    dump_matrix_csv(design.f, os.path.join(out_dir, "precoder_block.csv"))
    dump_matrix_csv(design.g, os.path.join(out_dir, "combiner_block.csv"))
    with open(os.path.join(out_dir, "allocation.csv"), "w", encoding="utf-8") as fh:
        fh.write("stream,power_fraction\n")
        for s, p in enumerate(design.allocation.p):
            fh.write(f"{s},{p:.17e}\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            "\n".join(
                [
                    f"streams = {config.n_streams}",
                    f"tx_antennas = {config.n_tx}",
                    f"rx_antennas = {config.n_rx}",
                    f"snr_db = {opts['snr_db']!r}",
                    f"noise_power = {config.noise_power!r}",
                    f"master_seed = {opts['seed']}",
                    f"ref_admittance = {config.ref_admittance!r}",
                    f"water_level = {design.allocation.water_level:.17e}",
                    f"milac_rate_bits = {report.milac_rate:.17e}",
                    f"capacity_bits = {report.capacity:.17e}",
                ]
            )
            + "\n"
        )
    print(
        f"wrote design files to {out_dir} "
        f"(rate {report.milac_rate:.6f} bits, capacity {report.capacity:.6f} bits)"
    )
    return 0


# Per subcommand: its help line, the default of each flag it takes (_REQUIRED
# for a flag that must be given, None where the handler resolves it), and its
# handler, which returns the exit code.
_COMMANDS = {
    "sweep-snr": (
        "mean rate versus SNR at a fixed antenna count",
        {**_SWEEP_FLAGS, "antennas": _REQUIRED, "snr_min": -10.0, "snr_max": 20.0, "snr_step": 2.0},
        _cmd_sweep_snr,
    ),
    "sweep-antennas": (
        "mean rate versus antenna count at a fixed SNR",
        {**_SWEEP_FLAGS, "antenna_points": (16, 32, 64, 128), "snr_db": 0.0},
        _cmd_sweep_antennas,
    ),
    "verify": (
        "run the randomized invariant suite and print a pass/fail table",
        {"seed": 0, "cases": 25},
        _cmd_verify,
    ),
    "design-dump": (
        "write one seeded design (matrices and allocation) as CSV files",
        {
            "streams": 2,
            "tx_antennas": 4,
            "rx_antennas": 4,
            "snr_db": 0.0,
            "seed": 0,
            "noise_power": 1.0,
            "z0": 50.0,
            "out_dir": _REQUIRED,
        },
        _cmd_design_dump,
    ),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            print("milacsim: a command is required", file=sys.stderr)
            return 1
        opts = _merge_options(args.command, args)
        return _COMMANDS[args.command][2](opts)
    except SystemExit as exc:
        # argparse exits directly for --help; propagate its status.
        return int(exc.code or 0)
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MilacError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
