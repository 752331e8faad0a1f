"""In-process tests of the command-line interface (exit codes, files, config layering)."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import milacsim.cli as cli
import milacsim.harness as harness
from milacsim import ChannelEnsembleSpec, SystemConfig, rayleigh_channel, run_trial
from milacsim.cli import build_parser, main


def _sweep_args(out, extra=()):
    return [
        "sweep-snr",
        "--streams", "2",
        "--antennas", "4",
        "--trials", "2",
        "--seed", "3",
        "--snr-min", "-5",
        "--snr-max", "5",
        "--snr-step", "5",
        "--workers", "1",
        "--out", str(out),
        *extra,
    ]


# ---------------------------------------------------------------------------
# exit codes and argument validation


def test_help_exits_zero_and_documents_flags(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "sweep-snr" in out
    assert "verify" in out
    assert main(["sweep-snr", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--snr-min" in out
    assert "dB" in out
    # No rate depends on the reference impedance, so only design-dump takes it.
    assert "--z0" not in out
    assert main(["design-dump", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--z0" in out
    assert "ohms" in out


@pytest.mark.parametrize(
    "command, expected",
    [
        (
            "sweep-snr",
            [
                "--streams STREAMS spatial stream count (required)",
                "--trials TRIALS Monte-Carlo trials per sweep point (default 100)",
                "--seed SEED 64-bit master seed (default 0)",
                "--out OUT output CSV path; a .manifest.txt is written next to it (required)",
                "--noise-power NOISE_POWER noise power in watts, linear (default 1.0)",
                "--workers WORKERS worker process count (default $MILACSIM_WORKERS or the CPU count)",
                "--antennas ANTENNAS antenna count per side (required)",
                "--snr-min SNR_MIN sweep start in dB (default -10.0)",
                "--snr-max SNR_MAX sweep end in dB, inclusive (default 20.0)",
                "--snr-step SNR_STEP sweep step in dB (default 2.0)",
                "--config CONFIG",
            ],
        ),
        (
            "sweep-antennas",
            [
                "--streams STREAMS spatial stream count (required)",
                "--trials TRIALS Monte-Carlo trials per sweep point (default 100)",
                "--seed SEED 64-bit master seed (default 0)",
                "--out OUT output CSV path; a .manifest.txt is written next to it (required)",
                "--noise-power NOISE_POWER noise power in watts, linear (default 1.0)",
                "--workers WORKERS worker process count (default $MILACSIM_WORKERS or the CPU count)",
                "--antenna-points ANTENNA_POINTS comma-separated antenna counts (default 16,32,64,128)",
                "--snr-db SNR_DB SNR in dB (default 0.0)",
                "--config CONFIG",
            ],
        ),
        (
            "verify",
            [
                "--seed SEED 64-bit master seed (default 0)",
                "--cases CASES instances per check (default 25)",
                "--config CONFIG",
            ],
        ),
        (
            "design-dump",
            [
                "--streams STREAMS spatial stream count (default 2)",
                "--tx-antennas TX_ANTENNAS transmit antenna count (default 4)",
                "--rx-antennas RX_ANTENNAS receive antenna count (default 4)",
                "--snr-db SNR_DB SNR in dB (default 0.0)",
                "--seed SEED 64-bit master seed (default 0)",
                "--noise-power NOISE_POWER noise power in watts, linear (default 1.0)",
                "--z0 Z0 reference impedance in ohms (default 50.0)",
                "--out-dir OUT_DIR directory for the CSV files (required)",
                "--config CONFIG",
            ],
        ),
    ],
)
def test_help_lists_every_flag_with_its_default(command, expected, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for entry in expected:
        assert entry in text
    # ... and no other flag.
    assert set(re.findall(r"--[a-z0-9-]+", text)) == {entry.split()[0] for entry in expected} | {"--help"}


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["sweep-snr", "--streams", "2", "--antennas", "4"]) == 1
    err = capsys.readouterr().err
    assert "missing required flag --out" in err


def test_unknown_flag_exits_one(capsys):
    assert main(["sweep-snr", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep-snr", "--antennas", "4", "--trials", "1", "--workers", "1"],
        ["sweep-antennas", "--antenna-points", "4,8", "--trials", "1", "--workers", "1"],
        ["design-dump", "--tx-antennas", "4", "--rx-antennas", "6"],
    ],
    ids=lambda args: args[0],
)
def test_streams_exceeding_antennas_exits_one(tmp_path, capsys, args):
    # The sweep spec and the link config reject the stream count; the CLI
    # maps their ValueError to exit 1.
    if args[0] == "design-dump":
        out = ["--out-dir", str(tmp_path / "d")]
    else:
        out = ["--out", str(tmp_path / "r.csv")]
    assert main([*args, "--streams", "9", *out]) == 1
    assert "n_streams=9 exceeds" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("z0", ["0", "-50"])
def test_non_positive_z0_exits_one(tmp_path, capsys, z0):
    assert main(["design-dump", "--z0", z0, "--out-dir", str(tmp_path / "d")]) == 1
    assert "--z0 must be positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("z0", ["1e-320", "inf", "1e308"])
def test_z0_without_a_finite_nonzero_reciprocal_exits_one_naming_the_flag(tmp_path, capsys, z0):
    # 1/1e-320 overflows to inf, 1/inf is 0 and 1/1e308 is subnormal: none is a
    # reference admittance.
    assert main(["design-dump", "--out-dir", str(tmp_path / "d"), "--z0", z0]) == 1
    assert "--z0 must be positive and finite with a finite reciprocal" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["sweep-snr", "sweep-antennas", "design-dump"])
def test_snr_beyond_the_largest_power_exits_one_naming_it(tmp_path, capsys, monkeypatch, command):
    # 10**309 overflows a double; a sweep must fail before it starts a pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    sweep = ["--streams", "2", "--trials", "2", "--workers", "2", "--out", str(tmp_path / "r.csv")]
    args = {
        "sweep-snr": ["sweep-snr", "--antennas", "4", "--snr-min", "3090", "--snr-max", "3090", *sweep],
        "sweep-antennas": ["sweep-antennas", "--antenna-points", "4", "--snr-db", "3090", *sweep],
        "design-dump": ["design-dump", "--snr-db", "3090", "--out-dir", str(tmp_path / "d")],
    }[command]
    assert main(args) == 1
    assert "SNR 3090.0 dB" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "value, message", [("abc", "must be an integer"), ("0", "must be at least 1")], ids=["abc", "0"]
)
def test_bad_workers_env_var_exits_one_naming_it(tmp_path, capsys, monkeypatch, value, message):
    monkeypatch.setenv("MILACSIM_WORKERS", value)
    args = ["sweep-snr", "--antennas", "4", "--streams", "2", "--trials", "1", "--out", str(tmp_path / "r.csv")]
    assert main(args) == 1
    assert f"MILACSIM_WORKERS {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bad_snr_grid_exits_one(tmp_path, capsys):
    assert main(_sweep_args(tmp_path / "r.csv", extra=["--snr-step", "0"])) == 1
    assert main(_sweep_args(tmp_path / "r.csv", extra=["--snr-min", "9", "--snr-max", "1"])) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--snr-min", "--snr-max", "--snr-step"])
def test_a_non_finite_snr_grid_flag_exits_one_naming_the_flag(tmp_path, capsys, flag, value):
    assert main(_sweep_args(tmp_path / "r.csv", extra=[f"{flag}={value}"])) == 1
    assert f"error: {flag} must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_non_integer_antenna_point_exits_one(tmp_path, capsys):
    args = ["sweep-antennas", "--antenna-points", "4,x", "--trials", "1", "--out", str(tmp_path / "r.csv")]
    assert main(args) == 1
    assert "expected a comma-separated list of integers, got '4,x'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_parser_program_name():
    assert build_parser().prog == "milacsim"


def test_repeated_calls_in_one_process_are_independent(tmp_path, capsys):
    # The parser is built once per process; no call's flags or defaults leak into the next.
    wide, plain = tmp_path / "wide", tmp_path / "plain"
    assert main(["design-dump", "--streams", "3", "--tx-antennas", "6", "--rx-antennas", "5",
                 "--out-dir", str(wide)]) == 0
    assert main(["design-dump", "--out-dir", str(plain)]) == 0
    assert "streams = 3" in (wide / "summary.txt").read_text()
    assert (plain / "summary.txt").read_text().startswith("streams = 2\ntx_antennas = 4\nrx_antennas = 4\n")
    assert main(["--help"]) == 0
    assert main(_sweep_args(tmp_path / "in_process.csv")) == 0
    capsys.readouterr()
    # The same sweep from a fresh interpreter.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    fresh = _sweep_args(tmp_path / "fresh.csv")
    subprocess.run([sys.executable, "-m", "milacsim.cli", *fresh], env={**os.environ, "PYTHONPATH": src},
                   capture_output=True, check=True)
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweep-snr end to end


def test_sweep_snr_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main(_sweep_args(out)) == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + SNR points -5, 0, 5
    manifest = (tmp_path / "rates.csv.manifest.txt").read_text()
    assert "master_seed = 3" in manifest
    assert "n_trials = 2" in manifest
    assert "\nworkers = 1\n" in manifest
    # Every data row keeps the analog/digital/capacity agreement tight.
    for line in lines[1:]:
        toks = [float(t) for t in line.split(",")[:5]]
        assert toks[4] <= 1e-9


@pytest.mark.parametrize("trials, workers", [(17, 2), (1, 1)], ids=["two_tasks", "one_task"])
def test_the_manifest_records_the_worker_count_from_the_environment(tmp_path, capsys, monkeypatch, trials, workers):
    # 17 trials at 32x32 are two tasks (16 + 1), run by a pool of 2; a single
    # task runs in this process, and the manifest says 1.
    monkeypatch.setenv("MILACSIM_WORKERS", "2")
    args = ["sweep-snr", "--antennas", "32", "--streams", "2", "--trials", str(trials), "--out", str(tmp_path / "r.csv")]
    assert main(args) == 0
    assert f"\nworkers = {workers}\n" in (tmp_path / "r.csv.manifest.txt").read_text()


def test_sweep_at_a_tiny_noise_power_keeps_both_rate_forms_in_agreement(tmp_path, capsys):
    # The smallest normal powers keep the raw and row-normalized rate forms in agreement.
    out = tmp_path / "tiny.csv"
    args = ["sweep-snr", "--antennas", "4", "--streams", "2", "--trials", "1", "--workers", "1",
            "--snr-min", "0", "--snr-max", "0", "--noise-power", "1e-300", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    (row,) = out.read_text().strip().split("\n")[1:]
    assert float(row.split(",")[4]) <= 1e-9


def test_subnormal_noise_power_exits_one_naming_the_field(tmp_path, capsys):
    out = tmp_path / "sub.csv"
    args = ["sweep-snr", "--antennas", "4", "--streams", "2", "--trials", "1", "--workers", "1",
            "--snr-min", "0", "--snr-max", "0", "--noise-power", "1e-310", "--out", str(out)]
    assert main(args) == 1
    assert "noise_power must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["0", "1e-310", "nan"])
def test_design_dump_names_a_bad_noise_power_not_the_snr(tmp_path, capsys, noise):
    assert main(["design-dump", "--noise-power", noise, "--out-dir", str(tmp_path / "d")]) == 1
    assert "noise_power must be positive and finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_high_snr_sweep_at_64_antennas_keeps_every_rate_within_1e9(tmp_path, capsys):
    # Interference summed off the diagonal, not as a row sum minus the signal,
    # keeps both rate forms in agreement up to 100 dB.
    out = tmp_path / "high.csv"
    args = ["sweep-snr", "--antennas", "64", "--streams", "8", "--trials", "2", "--workers", "1",
            "--snr-min", "40", "--snr-max", "100", "--snr-step", "20", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    assert max(float(row.split(",")[4]) for row in rows) <= 1e-9


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["sweep-snr", "sweep-antennas"])
def test_a_sweep_given_z0_exits_one_and_writes_nothing(tmp_path, capsys, command, source):
    # No rate depends on the reference admittance, so a sweep takes no --z0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z0 = 50\n")
    extra = ["--z0", "50"] if source == "flag" else ["--config", str(cfg)]
    points = ["--antennas", "4"] if command == "sweep-snr" else ["--antenna-points", "4"]
    args = [command, "--streams", "2", *points, "--trials", "1", "--workers", "1", "--out", str(tmp_path / "r.csv")]
    assert main([*args, *extra]) == 1
    err = capsys.readouterr().err
    if source == "flag":
        assert "unrecognized arguments: --z0 50" in err
    else:
        assert f"config key 'z0' is not a flag of {command}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_sweep_snr_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_sweep_args(a)) == 0
    assert main(_sweep_args(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_snr_parallel_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(_sweep_args(serial)) == 0
    args = _sweep_args(parallel)
    args[args.index("--workers") + 1] = "2"
    assert main(args) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_antennas_end_to_end(tmp_path, capsys):
    out = tmp_path / "ant.csv"
    code = main(
        [
            "sweep-antennas",
            "--streams", "2",
            "--antenna-points", "2,4",
            "--trials", "2",
            "--snr-db", "0",
            "--workers", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [2.0, 4.0]


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "trials = 2\n"
        "seed = 3\n"
        "snr-min = -5\n"
        "snr-max = 5\n"
        "snr-step = 5  # dB\n"
        "workers = 1\n"
    )
    from_cfg = tmp_path / "cfg.csv"
    explicit = tmp_path / "explicit.csv"
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(from_cfg), "--config", str(cfg)]
    )
    assert code == 0
    assert main(_sweep_args(explicit)) == 0
    capsys.readouterr()
    assert from_cfg.read_bytes() == explicit.read_bytes()


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 2\nseed = 3\nsnr-min = 0\nsnr-max = 0\nsnr-step = 1\nworkers = 1\n")
    out = tmp_path / "o.csv"
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(out), "--config", str(cfg), "--trials", "1"]
    )
    assert code == 0
    capsys.readouterr()
    manifest = (tmp_path / "o.csv.manifest.txt").read_text()
    assert "n_trials = 1" in manifest  # flag wins over the config value 2


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 5\n")
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]
    )
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err


def test_malformed_config_line_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]
    )
    assert code == 1
    capsys.readouterr()


def test_unparsable_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = lots\n")
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]
    )
    assert code == 1
    capsys.readouterr()


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(
        ["sweep-snr", "--streams", "2", "--antennas", "4",
         "--out", str(tmp_path / "x.csv"), "--config", str(tmp_path / "nope.cfg")]
    )
    assert code == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_exits_zero_when_all_pass(capsys):
    assert main(["verify", "--seed", "1", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_a_failing_verify_check_exits_two(monkeypatch, capsys):
    rows = (
        harness.VerificationRow(name="passes", cases=3, worst=0.0, tol=1e-9, passed=True),
        harness.VerificationRow(name="fails", cases=3, worst=np.nan, tol=1e-9, passed=False),
    )
    monkeypatch.setattr(cli, "run_verification", lambda master_seed, n_cases: rows)
    assert main(["verify", "--cases", "3"]) == 2
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out
    assert "some checks FAILED" in out and "all checks passed" not in out


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"], ids=["-1", "2**64"])
@pytest.mark.parametrize("command", ["sweep-snr", "sweep-antennas", "verify", "design-dump"])
def test_a_seed_outside_64_bits_exits_one_naming_the_field(tmp_path, capsys, command, seed):
    out = ["--out-dir", str(tmp_path / "d")] if command == "design-dump" else ["--out", str(tmp_path / "r.csv")]
    args = {
        "sweep-snr": ["sweep-snr", "--streams", "2", "--antennas", "4", "--trials", "1", "--workers", "1", *out],
        "sweep-antennas": ["sweep-antennas", "--streams", "2", "--antenna-points", "4", "--trials", "1",
                           "--workers", "1", *out],
        "verify": ["verify", "--cases", "1"],
        "design-dump": ["design-dump", *out],
    }[command]
    assert main([*args, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert "master_seed must fit in an unsigned 64-bit integer" in captured.err
    assert "all checks passed" not in captured.out
    assert not any(tmp_path.iterdir())


def test_verify_rejects_zero_cases(capsys):
    assert main(["verify", "--cases", "0"]) == 1
    captured = capsys.readouterr()
    assert "n_cases must be at least 1" in captured.err
    assert "all checks passed" not in captured.out


def test_verify_config_rejects_workers(tmp_path, capsys):
    # verify has no --workers flag, so its config file may not set one.
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("cases = 1\nworkers = 1\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "'workers' is not a flag of verify" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# design-dump


def test_design_dump_writes_all_files(tmp_path, capsys):
    out_dir = tmp_path / "design"
    code = main(
        ["design-dump", "--streams", "2", "--tx-antennas", "4", "--rx-antennas", "4",
         "--seed", "5", "--out-dir", str(out_dir)]
    )
    assert code == 0
    capsys.readouterr()
    expected = {
        "susceptance_tx.csv",
        "susceptance_rx.csv",
        "scattering_tx.csv",
        "scattering_rx.csv",
        "precoder_block.csv",
        "combiner_block.csv",
        "allocation.csv",
        "summary.txt",
    }
    assert expected.issubset({p.name for p in out_dir.iterdir()})

    alloc_lines = (out_dir / "allocation.csv").read_text().strip().split("\n")
    assert alloc_lines[0] == "stream,power_fraction"
    fractions = [float(line.split(",")[1]) for line in alloc_lines[1:]]
    assert len(fractions) == 2
    assert abs(sum(fractions) - 1.0) <= 1e-12

    summary = (out_dir / "summary.txt").read_text()
    assert "water_level" in summary
    assert "milac_rate_bits" in summary

    # Susceptance dump is real valued: every imaginary column is exactly zero.
    first_row = (out_dir / "susceptance_tx.csv").read_text().split("\n")[0]
    values = [float(t) for t in first_row.split(",")]
    assert len(values) == 2 * 6  # (antennas + streams) entries, re/im pairs
    assert all(v == 0.0 for v in values[1::2])


def test_design_dump_summary_reports_the_run_trial_rate(tmp_path, capsys):
    out_dir = tmp_path / "design"
    assert main(["design-dump", "--seed", "5", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    summary = dict(
        line.split(" = ") for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=4, n_tx=4, n_trials=1, master_seed=5), 0)
    config = SystemConfig(n_streams=2, n_tx=4, n_rx=4, tx_power=1.0, noise_power=1.0)
    report = run_trial(h, config)
    assert float(summary["milac_rate_bits"]) == report.milac_rate
    assert float(summary["capacity_bits"]) == report.capacity


def test_design_dump_records_the_reference_admittance_that_scales_its_susceptances(tmp_path, capsys):
    # y0 scales B and nothing else: halving z0 doubles both susceptance files
    # bit for bit and leaves the other five matrix and allocation files as
    # they were; summary.txt records the value and changes in that line alone.
    link = ["--tx-antennas", "7", "--rx-antennas", "5", "--streams", "3"]
    default, half = tmp_path / "default", tmp_path / "half"
    assert main(["design-dump", *link, "--out-dir", str(default)]) == 0
    assert main(["design-dump", *link, "--z0", "25", "--out-dir", str(half)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in default.iterdir())
    assert names == sorted(p.name for p in half.iterdir()) and len(names) == 8
    susceptances = ["susceptance_rx.csv", "susceptance_tx.csv"]
    unchanged = set(names) - set(susceptances) - {"summary.txt"}
    assert len(unchanged) == 5
    for name in unchanged:
        assert (default / name).read_bytes() == (half / name).read_bytes(), name
    for name in susceptances:
        b, b_half = (np.loadtxt(d / name, delimiter=",", ndmin=2) for d in (default, half))
        assert b.shape[0] == (10 if name == "susceptance_tx.csv" else 8)
        assert (2.0 * b).tobytes() == b_half.tobytes(), name
    lines, half_lines = ((d / "summary.txt").read_text().splitlines() for d in (default, half))
    changed = [(a, b) for a, b in zip(lines, half_lines) if a != b]
    assert len(lines) == len(half_lines)
    assert changed == [("ref_admittance = 0.02", "ref_admittance = 0.04")]


def test_design_dump_records_the_noise_power(tmp_path, capsys):
    # The noise power moves the water-filling, never a network: the six matrix
    # files keep every byte, and summary.txt records the value.  At the same
    # SNR the rates move at most in their last bits.
    default, noisy = tmp_path / "default", tmp_path / "noisy"
    assert main(["design-dump", "--out-dir", str(default)]) == 0
    assert main(["design-dump", "--noise-power", "3", "--out-dir", str(noisy)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in default.iterdir())
    assert names == sorted(p.name for p in noisy.iterdir()) and len(names) == 8
    matrices = [name for name in names if name not in ("allocation.csv", "summary.txt")]
    assert len(matrices) == 6
    for name in matrices:
        assert (default / name).read_bytes() == (noisy / name).read_bytes(), name
    assert (default / "allocation.csv").read_bytes() != (noisy / "allocation.csv").read_bytes()
    lines, noisy_lines = ((d / "summary.txt").read_text().splitlines() for d in (default, noisy))
    assert len(lines) == len(noisy_lines)
    changed = [(a.split(" = ")[0], a, b) for a, b in zip(lines, noisy_lines) if a != b]
    assert [key for key, _, _ in changed][:1] == ["noise_power"]
    assert changed[0][1:] == ("noise_power = 1.0", "noise_power = 3.0")
    for key, line, noisy_line in changed[1:]:
        assert key in ("milac_rate_bits", "capacity_bits")
        rate, noisy_rate = (float(x.split(" = ")[1]) for x in (line, noisy_line))
        assert abs(rate - noisy_rate) <= 1e-14 * rate
