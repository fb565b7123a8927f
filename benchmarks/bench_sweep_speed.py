"""Sweep-engine speed trajectory: serial vs parallel vs warm cache.

Measures the same job list three ways — serial cold, parallel cold, and
a warm re-run against a freshly-populated cache — asserts all three
produce identical results, and appends the timings to
``benchmarks/results/BENCH_sweep.json`` so speedups can be tracked
across commits.

Hard speedup assertions are gated on the machine: parallel fan-out
cannot beat serial with fewer cores than workers, so on such a host
the parallel speedup is neither recorded (the entry carries
``parallel_speedup_na`` instead) nor checked; the >=2x parallel check
applies when ``os.cpu_count() >= 4``.  The warm-cache check
(>=5x) holds everywhere — a cache hit is a JSON read, not a
simulation.
"""

import json
import os
import tempfile
import time

from benchmarks.conftest import RESULTS_DIR
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, WorkloadRef, run_jobs
from repro.resilience.integrity import atomic_write_text

BENCH_PATH = RESULTS_DIR / "BENCH_sweep.json"
BENCH_SCHEMA = "repro.bench_sweep/v1"

#: Large enough that pool startup is amortized, small enough to keep
#: the benchmark suite quick (~0.5s serial on one core).
SIZES = (512, 1024, 2048, 4096)

#: Worker processes for the parallel leg.
JOBS = 4


def _specs():
    return [
        JobSpec(WorkloadRef("atomic_sum", (n,)), arch)
        for n in SIZES
        for arch in (ArchSpec.baseline(), ArchSpec.make_dab())
    ]


def _digests(results):
    return [r.extra["output_digest"] for r in results]


def _append_run(entry):
    doc = {"schema": BENCH_SCHEMA, "runs": []}
    if BENCH_PATH.exists():
        try:
            prev = json.loads(BENCH_PATH.read_text())
            if prev.get("schema") == BENCH_SCHEMA:
                doc = prev
        except ValueError:
            pass  # corrupt history: start a fresh trajectory
    doc["runs"].append(entry)
    # write-temp-then-rename: a crash mid-emit must never leave a torn
    # BENCH file that loses the whole accumulated trajectory.
    atomic_write_text(BENCH_PATH,
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # Mirror into the run database for the campaign dashboard (the JSON
    # stays canonical; a db hiccup must never fail the benchmark).
    try:
        from repro.campaign.rundb import RunDB

        with RunDB(RESULTS_DIR / "runs.db") as db:
            db.record_bench("sweep", len(doc["runs"]) - 1, entry)
    except Exception as e:  # noqa: BLE001 - telemetry only
        print(f"warning: run-db append skipped ({e})")


def test_sweep_speed(benchmark):
    specs = _specs()
    cpus = os.cpu_count() or 1

    t0 = time.perf_counter()
    serial = run_jobs(specs, jobs=1, cache=False)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_jobs(specs, jobs=JOBS, cache=False)
    t_parallel = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        cold = run_jobs(specs, jobs=1, cache=True, cache_dir=cache_dir)
        t_cold_cached = time.perf_counter() - t0

        # benchmark times the headline number: the warm re-run.
        t0 = time.perf_counter()
        warm = benchmark.pedantic(
            run_jobs, args=(specs,),
            kwargs=dict(jobs=1, cache=True, cache_dir=cache_dir),
            rounds=1, iterations=1, warmup_rounds=0,
        )
        t_warm = time.perf_counter() - t0

    assert _digests(parallel) == _digests(serial)
    assert _digests(cold) == _digests(serial)
    assert _digests(warm) == _digests(serial)
    assert all(r.extra.get("cache_hit") for r in warm)
    assert not any(r.extra.get("cache_hit") for r in cold)

    parallel_speedup = t_serial / t_parallel
    warm_speedup = t_serial / t_warm
    entry = {
        "cpu_count": cpus,
        "jobs": JOBS,
        "num_specs": len(specs),
        "serial_s": round(t_serial, 3),
        "parallel_s": round(t_parallel, 3),
        "cold_cached_s": round(t_cold_cached, 3),
        "warm_s": round(t_warm, 3),
        "warm_speedup": round(warm_speedup, 2),
    }
    if cpus >= JOBS:
        entry["parallel_speedup"] = round(parallel_speedup, 2)
    else:
        # Fewer CPUs than workers: the ratio measures oversubscription,
        # not the sweep engine, so it is not recorded as data.
        entry["parallel_speedup_na"] = "cpu_count < jobs"
    _append_run(entry)
    print(f"\nsweep speed: serial={t_serial:.2f}s parallel={t_parallel:.2f}s "
          f"warm={t_warm:.3f}s (x{warm_speedup:.0f}) on {cpus} CPU(s)")

    assert warm_speedup >= 5, entry
    if cpus >= JOBS:
        assert parallel_speedup >= 2, entry
