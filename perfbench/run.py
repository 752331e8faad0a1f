"""milacsim benchmark: sweep throughput, per-link design latency, per-stage traced costs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-n8-serial --seed 1 --seconds 20 --trace 0

Workloads are described in ``perfbench/workloads.json`` (arguments,
environment, seed use, size, and the layers each should and should not
move).  ``--trace 0`` times the workload untraced for ``--seconds`` and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs it
once more with every layer function wrapped and prints the per-layer
metrics.  Every output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 0
only when every check passed.  The program is imported from ``src/`` of the
checkout and nowhere else.

A timed run is PARTS fresh interpreters in turn, each timing its share of
``--seconds``; an interpreter's own speed differs by several percent from
one process to the next (memory layout), which one process per run would
turn into run-to-run spread.  Each part imports milacsim and runs one
warm-up trial, and the time from its start to that point is a set-up
sample.  Then it alternates samples (one CLI call of a sweep, one batch of
links) with a reference probe: fixed numpy work that does not use
milacsim.  Shared hosts switch between a fast speed and one up to twice
as slow, for seconds to minutes at a time, and that moves the probe and the
program alike.  So the throughput and CPU metrics are each sample's time
divided by the probe time around it (wall by wall, CPU by CPU), per trial,
as the median over the run: the program's cost in units of the probe.  Raw
throughput, link latency percentiles and the probe time are printed beside
them as comment lines.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
OUT = HERE / "_out"

PARTS = 4  # fresh interpreters per timed run
RUN_LIMIT_S = 170  # a timed run's parts must end within this
MIN_CALLS = 5  # timed CLI calls per part, even past its share of --seconds
MIN_LINKS = 1000  # timed links per run, so a p99 has 10 samples beyond it
LINK_BATCH = 16  # links per sample: 12 Rayleigh and 4 real-valued channels
PART_LINKS = 10**9  # link indices of part k start at k * PART_LINKS
WARM_LINKS = 20
TRACE_LINKS = 200
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MILACSIM_WORKERS")


TAIL_CANDIDATES = (Fraction(999, 10), Fraction(99), Fraction(90), Fraction(50))


def tail_percentile(n_samples: int):
    """Highest candidate percentile with at least 10 samples beyond it, or None.

    The samples beyond percentile p are the n - ceil(p n / 100) largest.
    """
    for p in TAIL_CANDIDATES:
        if n_samples - math.ceil(p * n_samples / 100) >= 10:
            return p
    return None


def percentile(values, p) -> float:
    """Nearest-rank percentile: the ceil(p n / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(Fraction(p) * len(ordered) / 100)) - 1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, help=argparse.SUPPRESS)  # set only by a timed run for its parts
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def apply_env(spec: dict) -> None:
    """Set (or, for null, remove) the workload's variables before numpy loads."""
    for key, value in spec["env"].items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def import_program() -> None:
    """Import milacsim from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import milacsim

    where = Path(milacsim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"milacsim was imported from {where}, not from {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def openblas_threads() -> dict:
    """Live thread count of every loaded OpenBLAS library, read through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = {"symbol": symbol, "threads": fn()}
                break
    return found


def environment(workers: int, pool_workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_threads(),
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
        "workers": workers,
        "pool_workers": pool_workers,
    }


def timed_samples(wl, take_sample, seconds: float, min_samples: int):
    """Samples for ``seconds`` (and at least ``min_samples``), with a probe before, between and after.

    Samples and probes run on one CPU: the vCPUs of a shared host change
    speed independently of each other.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        samples, probes = [], [wl.reference_probe()]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(samples) < min_samples:
            samples.append(take_sample())
            probes.append(wl.reference_probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return samples, probes


def timed_part(wl, spec, args, workers: int, pool_workers: int, import_s: float, out_dir: Path) -> dict:
    """One fresh interpreter's share of a timed run: set-up, then samples between probes."""
    wl.warmup(spec)
    ready_at = time.monotonic()
    seconds = args.seconds / PARTS
    latencies, hashes = [], {}
    if spec["kind"] == "sweep":
        # No warm-up call: the metrics are medians over calls, which a slow
        # first call cannot move.
        runner = wl.SweepRunner(spec, args.seed, out_dir)
        per_sample = runner.trials_per_call
        indices = itertools.count()
        calls, probes = timed_samples(wl, lambda: runner.call(workers, "timed", next(indices)), seconds, MIN_CALLS)
        walls, cpus = [c["wall"] for c in calls], [c["cpu"] for c in calls]
        attempted, failed = per_sample * len(calls), sum(c["failed"] for c in calls)
        hashes = runner.hashes
    else:
        runner = wl.LinkRunner(spec, args.seed)
        first = args.part * PART_LINKS
        results = [runner.run(range(first, first + WARM_LINKS))]
        starts = itertools.count(first + WARM_LINKS, LINK_BATCH)

        def batch():
            start = next(starts)
            return runner.run(range(start, start + LINK_BATCH))

        batches, probes = timed_samples(wl, batch, seconds, -(-MIN_LINKS // (PARTS * LINK_BATCH)))
        results += batches
        per_sample = LINK_BATCH
        walls, cpus = [sum(b["latencies"]) for b in batches], [b["cpu"] for b in batches]
        latencies = [lat for b in batches for lat in b["latencies"]]
        attempted = sum(len(r["latencies"]) for r in results)
        failed = sum(r["failed"] for r in results)
    probe_walls, probe_cpus = zip(*probes)
    return {
        "ready_at": ready_at,
        "import_s": import_s,
        "trials_per_sample": per_sample,
        "wall_ratios": wl.ratios_to_probes(walls, probe_walls),
        "cpu_ratios": wl.ratios_to_probes(cpus, probe_cpus),
        "walls": walls,
        "probe_walls": probe_walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "reasons": runner.reasons,
        "hashes": hashes,
        "peak_rss_mb": wl.peak_rss_mb(),
        "env": environment(workers, pool_workers),
    }


def timed_run(args) -> tuple[dict, int, int, list, dict] | None:
    """Run the PARTS parts in turn and merge them; None when a part could not run."""
    started = time.monotonic()
    parts = []
    for k in range(PARTS):
        t0 = time.monotonic()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0", "--part", str(k)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            print(f"error: part {k} did not end within the run's {RUN_LIMIT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"error: part {k} exited with {proc.returncode}:\n{proc.stderr.strip()}", file=sys.stderr)
            return None
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        part["setup_s"] = part["ready_at"] - t0
        parts.append(part)
    return merge_parts(parts)


def merge_parts(parts: list[dict]) -> tuple[dict, int, int, list, dict]:
    """One timed run's metrics, trial counts, failure reasons and environment from its parts."""
    per_sample = parts[0]["trials_per_sample"]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    reasons = [r for p in parts for r in p["reasons"]]
    digests: dict[str, set] = {}
    for p in parts:  # JSON keys: call indices as strings
        for index, digest in p["hashes"].items():
            digests.setdefault(str(index), set()).add(digest)
    if any(len(d) > 1 for d in digests.values()):
        failed = attempted
        reasons.append("CSV bytes differ between fresh interpreters given the same seed")
    walls = [w for p in parts for w in p["walls"]]
    probe_walls = [w for p in parts for w in p["probe_walls"]]
    metrics = {
        "wall_per_trial": statistics.median(r for p in parts for r in p["wall_ratios"]) / per_sample,
        "cpu_per_trial": statistics.median(r for p in parts for r in p["cpu_ratios"]) / per_sample,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "setup.import_s": statistics.median(p["import_s"] for p in parts),
        "raw_trials_per_s": per_sample * len(walls) / sum(walls),
        "probe_ms": statistics.median(probe_walls) * 1e3,
    }
    print(f"# {len(parts)} parts, {len(walls)} samples of {per_sample} trials; raw trials_per_s = "
          f"{metrics['raw_trials_per_s']:.4g}; probe median {metrics['probe_ms']:.3f} ms, range "
          f"{min(probe_walls) * 1e3:.3f}-{max(probe_walls) * 1e3:.3f} ms; set-up per part "
          + ", ".join(f"{p['setup_s']:.3f}" for p in parts) + " s")
    latencies = [lat for p in parts for lat in p["latencies"]]
    if latencies:
        tail = tail_percentile(len(latencies))
        print(f"# {len(latencies)} timed links: link_p50_ms = {statistics.median(latencies) * 1e3:.4f}, "
              f"link_p{float(tail):g}_ms = {percentile(latencies, tail) * 1e3:.4f}")
    return metrics, attempted, failed, reasons, parts[0]["env"]


def traced_sweep(wl, spec, seed, pool_workers, out_dir):
    runner = wl.SweepRunner(spec, seed, out_dir)
    # The pool call is traced for its worker share and must write the
    # serial call's bytes; it is not timed, since a pool on a shared host
    # waits for every core to be fast at once.
    calls = [runner.call(1, "warmup")]
    serial = runner.call(1, "serial")
    pooled = runner.call(pool_workers, "pool") if pool_workers > 1 else serial
    with Tracer() as tracer:
        wl.install_tracing(tracer)
        traced = runner.call(1, "traced")
    calls += [serial, traced] + ([pooled] if pooled is not serial else [])
    tracer.write_jsonl(out_dir / "spans.jsonl")
    metrics = wl.layer_metrics(tracer.spans)
    worker_cpu = pooled["child_cpu"] if pool_workers > 1 else pooled["cpu"]
    metrics["harness.worker_cpu_share"] = worker_cpu / (pooled["wall"] * pool_workers)
    metrics["trace.overhead"] = traced["wall"] / serial["wall"]
    print(f"# traced run: {len(tracer.spans)} spans, CSV sha256 {traced['sha256']}")
    attempted = runner.trials_per_call * len(calls)
    failed = sum(c["failed"] for c in calls)
    return metrics, attempted, failed, runner.reasons


def traced_links(wl, spec, seed, out_dir):
    runner = wl.LinkRunner(spec, seed)
    results = [runner.run(range(WARM_LINKS))]
    links = range(WARM_LINKS, WARM_LINKS + TRACE_LINKS)
    plain = runner.run(links)
    with Tracer() as tracer:
        wl.install_tracing(tracer)
        traced = runner.run(links, tracer=tracer)
    results += [plain, traced]
    tracer.write_jsonl(out_dir / "spans.jsonl")
    metrics = wl.layer_metrics(tracer.spans)
    metrics["harness.worker_cpu_share"] = plain["cpu"] / sum(plain["latencies"])
    metrics["trace.overhead"] = sum(traced["latencies"]) / sum(plain["latencies"])
    print(f"# traced run: {len(tracer.spans)} spans over {TRACE_LINKS} links")
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    return metrics, attempted, failed, runner.reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    apply_env(spec)
    workers = int(spec.get("workers", 1))
    pool_workers = nproc() if spec.get("pool_workers") == "nproc" else workers
    out_dir = OUT / args.workload
    load_start = loadavg()

    if args.trace == 0 and args.part is None:
        # Parent of the parts: it never imports the program itself.
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        merged = timed_run(args)
        if merged is None:
            return 2
        metrics, attempted, failed, reasons, env = merged
    else:
        t0 = time.perf_counter()
        try:
            import_program()
        except ImportError as exc:
            print(f"error: cannot import milacsim from {SRC}: {exc}", file=sys.stderr)
            return 2
        import_s = time.perf_counter() - t0
        import workloads as wl

        if args.part is not None:
            part_dir = out_dir / f"part{args.part}"
            part_dir.mkdir(parents=True, exist_ok=True)
            print(json.dumps(timed_part(wl, spec, args, workers, pool_workers, import_s, part_dir)))
            return 0
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if spec["kind"] == "sweep":
            metrics, attempted, failed, reasons = traced_sweep(wl, spec, args.seed, pool_workers, out_dir)
        else:
            metrics, attempted, failed, reasons = traced_links(wl, spec, args.seed, out_dir)
        metrics["setup.import_s"] = import_s
        env = environment(workers, pool_workers)
    env.update(loadavg_start=load_start, loadavg_end=loadavg())

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for reason in reasons[:20]:
        print(f"# FAILED: {reason}")
    print(f"# failed_share = {failed / attempted:.6g} ({failed} of {attempted} trials)")
    result_metrics = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print("# env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    (out_dir / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                    "all_metrics": metrics, "failures": reasons, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
