"""Statistics, seeds and simulated-machine counters shared by workloads."""

from __future__ import annotations

import resource
import statistics
import time

#: The eleven Fig 15 stall buckets of ``metrics_dict()['stalls']``.
STALL_BUCKETS = ("issued", "empty", "mem", "barrier", "inorder", "token",
                 "round", "buffer_full", "flush", "batch", "other")

#: Tail rule: the highest percentile with at least this many samples
#: above it.
TAIL_BEYOND = 10

#: Calibration loop length, and the seconds it takes on the host the
#: benchmark was defined on (2-vCPU x86_64 VM, CPython 3.11).
CAL_LOOPS = 100_000
CAL_NOMINAL_S = 0.010


def calibrate(samples):
    """Time one fixed pure-Python loop, append it to ``samples`` and
    return it: a yardstick of host speed taken beside the work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    dt = time.perf_counter() - t0
    samples.append(dt)
    return dt


def nominal(seconds, cal):
    """``seconds`` measured beside calibration loops that took ``cal``
    seconds each, in seconds of the nominal host (``CAL_NOMINAL_S``).

    A shared host drifts in speed by tens of percent over minutes; the
    calibration loop drifts with it, so the ratio is far steadier than
    either number alone.
    """
    return seconds * CAL_NOMINAL_S / cal


def jitter_seeds(seed):
    """The run's seed list: two simulator jitter seeds per ``--seed``."""
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    return [2 * seed + 1, 2 * seed + 2]


def median(values):
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values):
    """Highest percentile that has ``TAIL_BEYOND`` samples above it.

    With fewer than ``2 * TAIL_BEYOND + 1`` samples that percentile
    would sit at or below the median, so the maximum is reported.
    """
    ordered = sorted(values)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def tail_rule(n):
    """Which sample :func:`tail` reports, for the run's details."""
    if n <= 2 * TAIL_BEYOND:
        return f"max of {n} samples"
    return (f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} samples "
            f"({TAIL_BEYOND} above it)")


def peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_counters(doc):
    """Exact simulated-machine counters of one ``metrics_dict()``."""
    stalls = doc["stalls"]
    if set(stalls) != set(STALL_BUCKETS):
        raise ValueError(f"stall buckets changed: {list(stalls)}")
    out = {f"sim.stalls.{b}": int(stalls[b]) for b in STALL_BUCKETS}
    for key in ("count", "entries", "fused_atomics"):
        out[f"core.flush.{key}"] = int(doc["flush"][key])
    for key in ("packets", "queue_delay"):
        out[f"interconnect.network.{key}"] = int(doc["icnt"][key])
    return out


def sum_counters(docs):
    total = {}
    for counters in docs:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total
