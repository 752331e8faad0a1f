"""Tests of the benchmark's own logic.  Run with: python3 -m pytest perfbench"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def fake_clock():
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99), (999, 90), (100, 90), (99, 50), (20, 50), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert (p is None and expected is None) or float(p) == expected
    if p is not None:
        values = list(range(n))
        assert sum(v > run.percentile(values, p) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99) == 990
    assert run.percentile(values, 50) == 500
    assert run.percentile([5.0], 99) == 5.0


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "a.inner", 1.5, 2.0, 1, None),
        Span(3, "b", 2.0, 5.0, 0, None),  # overlaps a: covered time counts once
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 1.5, 2: 0.5, 3: 3.0}


def test_tracer_nests_spans_and_derives_self_time():
    ns = SimpleNamespace()
    ns.leaf = lambda: "leaf"
    ns.mid = lambda: ns.leaf() + ns.leaf()
    ns.top = lambda: ns.mid()
    with Tracer(clock=fake_clock()) as tracer:
        for attr in ("top", "mid", "leaf"):
            tracer.wrap(ns, attr, attr)
        assert ns.top() == "leafleaf"
    top, mid, leaf1, leaf2 = tracer.spans
    assert (top.parent, mid.parent, leaf1.parent, leaf2.parent) == (None, top.id, mid.id, mid.id)
    # Clock ticks: top 0..7, mid 1..6, leaves 2..3 and 4..5.
    own = self_times(tracer.spans)
    assert own[top.id] == 7 - 5
    assert own[mid.id] == 5 - 2
    assert own[leaf1.id] == 1


# --- wrappers are removed ----------------------------------------------------


def test_wrappers_are_removed_even_when_the_run_raises():
    ns = SimpleNamespace(f=lambda: 1 / 0)
    original = ns.f
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(ns, "f", "f")
            assert ns.f is not original
            ns.f()
    assert ns.f is original
    assert tracer.spans[0].error == "ZeroDivisionError"


def test_install_tracing_restores_every_program_function():
    import numpy.linalg

    owners = (wl.cli, wl.harness, wl.bf, wl.net, wl.channel, numpy.linalg, scipy.linalg)
    before = [dict(vars(m)) for m in owners]
    with Tracer() as tracer:
        wl.install_tracing(tracer)
        assert numpy.linalg.svd is not before[5]["svd"]
    after = [dict(vars(m)) for m in owners]
    for b, a in zip(before, after):
        assert all(a[k] is v for k, v in b.items())


def test_traced_sweep_counts_lapack_calls_and_writes_the_same_csv(tmp_path):
    spec = {"rows": 3, "cli": ["sweep-snr", "--antennas", "6", "--streams", "2", "--trials", "2",
                               "--snr-min", "0", "--snr-max", "4"]}
    runner = wl.SweepRunner(spec, seed=3, out_dir=str(tmp_path))
    plain = runner.call(1, "plain")
    with Tracer() as tracer:
        wl.install_tracing(tracer)
        traced = runner.call(1, "traced")
    assert plain["sha256"] == traced["sha256"] and traced["failed"] == 0
    m = wl.layer_metrics(tracer.spans)
    assert (m["lapack.svd_full.calls_per_trial"], m["lapack.svd_values.calls_per_trial"],
            m["lapack.lu.calls_per_trial"], m["lapack.solve.calls_per_trial"]) == (2, 5, 2, 2)
    assert m["harness.run_trial.calls_per_trial"] == 1
    assert m["cli.main.self_ms"] > 0 and m["harness.self_ms_per_trial"] > 0
    assert m["beamforming.ensure_invertible_imag.repair_share"] == 0


def test_layer_metrics_of_a_bypassed_layer_read_zero():
    spans = [Span(0, "beamforming.design_milac", 0.0, 0.002, None, 0)]
    m = wl.layer_metrics(spans)
    assert m["beamforming.design_milac.ms"] == 2.0
    assert m["beamforming.design_milac.calls_per_trial"] == 1
    assert m["cli.write_csv.ms"] == 0 and m["harness.self_ms_per_trial"] == 0


def test_retries_count_phase_search_exhaustion_per_trial():
    spans = [
        Span(0, "harness.run_trial", 0, 1, None, 0, error="PhaseSearchExhaustedError"),
        Span(1, "harness.run_trial", 1, 2, None, 0),
        Span(2, "harness.run_trial", 2, 3, None, 1),
    ]
    assert wl.layer_metrics(spans)["harness.retries_per_trial"] == 0.5


# --- failure counting --------------------------------------------------------


def csv_text(*rows):
    return "\n".join([wl.harness.CSV_HEADER, *rows]) + "\n"


GOOD = "0.0,1.0,1.0,1.0,1.0e-15,10"


def test_clean_sweep_has_no_failures():
    assert wl.sweep_failures(0, csv_text(GOOD, GOOD), n_points=2, n_trials=10) == (0, [])


def test_nonzero_exit_fails_every_trial():
    failed, reasons = wl.sweep_failures(2, csv_text(GOOD, GOOD), n_points=2, n_trials=10)
    assert failed == 20 and reasons == ["exit code 2"]


@pytest.mark.parametrize(
    "bad_row",
    [
        "2.0,1.0,1.0,1.0,2.0e-9,10",  # analog gap over the tolerance
        "2.0,1.0,1.000001,1.0,0.0,10",  # digital mean off the capacity
        "2.0,1.0,1.0,1.0,nan,10",  # a NaN gap never passes
        "2.0,garbage",
    ],
)
def test_a_bad_row_fails_its_trials(bad_row):
    failed, reasons = wl.sweep_failures(0, csv_text(GOOD, bad_row), n_points=2, n_trials=10)
    assert failed == 10 and len(reasons) == 1


def test_missing_rows_and_missing_header_fail():
    assert wl.sweep_failures(0, csv_text(GOOD), n_points=3, n_trials=10)[0] == 20
    assert wl.sweep_failures(0, "", n_points=3, n_trials=10)[0] == 30


ONE_POINT = {"rows": 1, "cli": ["sweep-snr", "--antennas", "4", "--streams", "1", "--trials", "2",
                                 "--snr-min", "0", "--snr-max", "0"]}


def test_an_uncaught_program_error_fails_every_trial(tmp_path, monkeypatch):
    def crash(argv):
        raise AssertionError("rate forms disagree")

    monkeypatch.setattr(wl.cli, "main", crash)
    runner = wl.SweepRunner(ONE_POINT, seed=1, out_dir=str(tmp_path))
    assert runner.call(1, "a")["failed"] == 2
    assert "AssertionError" in runner.reasons[0]


def test_changed_csv_for_the_same_seed_fails_the_call(tmp_path):
    runner = wl.SweepRunner(ONE_POINT, seed=1, out_dir=str(tmp_path))
    assert runner.call(1, "a")["failed"] == 0
    assert runner.call(1, "b", index=1)["failed"] == 0  # another seed, other bytes
    runner.seed = 2
    assert runner.call(1, "c")["failed"] == runner.trials_per_call == 2


def test_links_count_raises_and_wrong_rates(monkeypatch):
    spec = {"antennas": 4, "streams": 2, "snr_db": 10.0, "real_every": 4, "run_trial_every": 2}
    real_drive = wl.drive_link

    def drive(h, config, rng_seed):
        if rng_seed == wl.derived_seed(7, 1):
            raise wl.bf.PhaseSearchExhaustedError("forced")
        rate, allocation = real_drive(h, config, rng_seed)
        return (rate * (1 + 1e-6) if rng_seed == wl.derived_seed(7, 2) else rate), allocation

    def check(h, config, rng_seed, *rest, **kwargs):
        if rng_seed == wl.derived_seed(7, 3):
            raise ValueError("forced")
        return real_check(h, config, rng_seed, *rest, **kwargs)

    real_check = wl.check_link
    monkeypatch.setattr(wl, "drive_link", drive)
    monkeypatch.setattr(wl, "check_link", check)
    runner = wl.LinkRunner(spec, seed=7)
    result = runner.run(range(8))
    assert result["failed"] == 3 and len(result["latencies"]) == 8
    assert "PhaseSearchExhaustedError" in runner.reasons[0]
    assert "analog gap" in runner.reasons[1]
    assert "check raised ValueError" in runner.reasons[2]


def test_every_fourth_link_is_real_valued():
    spec = {"antennas": 4, "real_every": 4}
    kinds = [np.iscomplexobj(wl.make_channel(spec, 5, i)) for i in range(8)]
    assert kinds == [True, True, True, False] * 2


# --- probe units -----------------------------------------------------------


def test_each_sample_is_divided_by_the_probes_around_it():
    # The host slows down around samples 1 and 2: probes 1 to 3 read the
    # slowdown, and each sample's ratio to the mean probe around it holds.
    walls = [2.0, 4.0, 4.0, 2.0]
    probes = [1.0, 1.0, 3.0, 1.0, 1.0]
    assert wl.ratios_to_probes(walls, probes) == [2.0, 2.0, 2.0, 2.0]


def test_probes_must_bracket_every_sample():
    with pytest.raises(ValueError):
        wl.ratios_to_probes([1.0, 1.0], [1.0, 1.0])


def test_reference_probe_reads_wall_and_cpu_seconds():
    wall, cpu = wl.reference_probe()
    assert 0 < wall < 1 and 0 < cpu < 1


def fake_part(hashes, failed=0, setup_s=1.0, ratio=2.0):
    hashes = dict(enumerate(hashes))
    return {"trials_per_sample": 4, "attempted": 8, "failed": failed, "reasons": ["r"] * failed,
            "hashes": hashes, "walls": [1.0, 1.0], "probe_walls": [0.5, 0.5, 0.5], "latencies": [],
            "wall_ratios": [ratio, ratio], "cpu_ratios": [ratio, ratio], "peak_rss_mb": 100.0 + failed,
            "setup_s": setup_s, "import_s": setup_s / 2, "env": {}}


def test_parts_merge_into_medians_per_trial():
    parts = [fake_part(["a"], setup_s=s, ratio=r) for s, r in ((1.0, 2.0), (3.0, 4.0), (2.0, 2.0))]
    metrics, attempted, failed, _, _ = run.merge_parts(parts)
    assert (attempted, failed) == (24, 0)
    assert metrics["wall_per_trial"] == metrics["cpu_per_trial"] == 2.0 / 4
    assert metrics["setup_s"] == 2.0 and metrics["setup.import_s"] == 1.0


def test_failures_of_parts_add_up_and_differing_csvs_fail_the_run():
    metrics, attempted, failed, reasons, _ = run.merge_parts([fake_part(["a", "b"], failed=3), fake_part(["a"])])
    assert (attempted, failed, len(reasons)) == (16, 3, 3) and metrics["peak_rss_mb"] == 103.0
    _, attempted, failed, reasons, _ = run.merge_parts([fake_part(["a"]), fake_part(["b"])])
    assert failed == attempted == 16 and "differ" in reasons[-1]
