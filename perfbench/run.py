"""The repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload dab_titan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the simulator is imported from the
checkout's ``src``.  The last line of standard output is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``): the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it holds the
details: host metadata, exact simulated-machine counters, the
workload-specific timings and any check failures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dab_titan", "base_titan", "campaign_store")

#: Settings that would switch engines or redirect the stores.
_ENV_OVERRIDES = ("REPRO_NO_FASTPATH", "REPRO_SWEEP_JOBS",
                  "REPRO_SWEEP_CACHE", "REPRO_SWEEP_CACHE_DIR")


def _import_simulator():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    return repro


def _git_sha():
    """HEAD's sha when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_metadata(cal_samples):
    import numpy

    import common

    from repro.harness.sweep import code_fingerprint

    return {
        "git_sha": _git_sha(),
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "calibration_loops": common.CAL_LOOPS,
        "calibration_s": common.median(cal_samples),
    }


def _declared(trace):
    """(name -> unit) of the metrics this mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = _declared(args.trace)
    for name in _ENV_OVERRIDES:
        os.environ.pop(name, None)
    _import_simulator()
    import spans
    import store
    import titan

    expected = json.loads((HERE / "expected.json").read_text())
    tracer = spans.Tracer() if args.trace else None
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "campaign_store":
            work.mkdir(parents=True)
            run = store.StoreRun(args.seed, expected["campaign_store"], work)
        else:
            run = titan.TitanRun(args.workload, args.seed,
                                 expected["titan"])
        if tracer is None:
            metrics, detail = run.measure(args.seconds)
        else:
            metrics, detail = run.measure_traced(args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # absent, or another run still uses it

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    detail.update(workload=args.workload, run_seed=args.seed,
                  trace=args.trace, host=host_metadata(run.cal_samples),
                  errors=run.errors,
                  fail_frac=run.failed / max(run.attempted, 1))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
