"""Property: engine equivalence survives arbitrary timing fault plans.

The event-driven engine's calendar bookkeeping must reproduce the
polling loop's behaviour under *any* seeded timing perturbation — not
just the handful of hand-picked plans in the integration tests.  Random
fault configs stress the wake-memo invalidation paths (DRAM bursts,
interconnect spikes, delivery reorders, partition stalls all reschedule
warp wake-ups).
"""

import json
import os

from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultConfig, FaultPlan
from repro.harness.runner import ArchSpec, run_workload
from repro.obs import ObsConfig
from repro.workloads.microbench import (
    build_atomic_sum,
    build_histogram,
    build_mc_barrier,
    build_order_sensitive,
)

configs = st.builds(
    FaultConfig,
    dram_burst_prob=st.floats(0.0, 0.5),
    dram_burst_len=st.integers(1, 32),
    dram_burst_extra=st.integers(0, 300),
    icnt_spike_prob=st.floats(0.0, 0.5),
    icnt_spike_max=st.integers(0, 300),
    reorder_prob=st.floats(0.0, 0.4),
    reorder_max_delay=st.integers(0, 64),
    stall_windows=st.integers(0, 4),
    stall_len=st.integers(0, 150),
)

ARCHES = [
    ArchSpec.baseline(),
    ArchSpec.make_dab(DABConfig(buffer_entries=64, scheduler="gwat",
                                fusion=True, coalescing=True), "dab"),
    ArchSpec.make_gpudet(),
]


def _run(arch, plan, fastpath):
    prev = os.environ.get("REPRO_NO_FASTPATH")
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        res = run_workload(lambda: build_atomic_sum(1024), arch,
                           gpu_config=GPUConfig.small(), seed=1,
                           faults=plan)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = prev
    md = res.metrics_dict()
    md.pop("host_profile", None)
    return {
        "metrics": md,
        "mem_digest": res.mem_digest,
        "cycles": res.cycles,
        "stalls": res.stalls.as_dict(),
    }


@given(seed=st.integers(0, 2**31), cfg=configs,
       arch_idx=st.integers(0, len(ARCHES) - 1))
@settings(max_examples=12, deadline=None)
def test_engines_agree_under_random_fault_plans(seed, cfg, arch_idx):
    plan = FaultPlan(seed, cfg)
    arch = ARCHES[arch_idx]
    assert _run(arch, plan, True) == _run(arch, plan, False)


# --- Fastpath equivalence across the full draw space -------------------
#
# The fault-plan property above pins one workload; this one draws the
# whole tuple (workload, arch, seed, fault plan) and additionally
# compares trace digests and the reduction-commit stream.  The workload
# pool is chosen to hit the fast engine's hard edges on the tiny config
# (2 SMs x 8 warp slots):
#
# * ``atomic_sum``/``histogram`` launch far more CTAs than the machine
#   holds, so CTAs retire and are replaced mid-kernel (hardware slots
#   are rebound while their scheduler row stays hot);
# * ``mc_barrier`` makes barrier arrival order commit-relevant (the
#   immediate-release path is the one a stale dirty-flag snapshot
#   breaks);
# * ``order_sensitive`` is the floating-point order probe — any
#   scheduling divergence between the engines shows up in its digest.

WORKLOADS = [
    lambda: build_atomic_sum(n=2048, cta_dim=128),
    lambda: build_histogram(n=1024, bins=8, cta_dim=128),
    lambda: build_mc_barrier(n=128),
    lambda: build_order_sensitive(n=512, cta_dim=128),
]


def _run_full(widx, arch, seed, plan, fastpath):
    prev = os.environ.get("REPRO_NO_FASTPATH")
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        res = run_workload(WORKLOADS[widx], arch,
                           gpu_config=GPUConfig.tiny(), seed=seed,
                           faults=plan,
                           obs=ObsConfig(metrics=True, trace=True),
                           record_state=True)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = prev
    md = res.metrics_dict()
    md.pop("host_profile", None)
    commits = json.loads(md["extra"]["red_commits"])
    return {
        "metrics": md,
        "mem_digest": res.mem_digest,
        "cycles": res.cycles,
        "trace_digest": md["trace"]["digest"],
        "commit_multiset": sorted(map(str, commits)),
    }


@given(widx=st.integers(0, len(WORKLOADS) - 1),
       arch_idx=st.integers(0, len(ARCHES) - 1),
       seed=st.integers(1, 2**31),
       fault_seed=st.one_of(st.none(), st.integers(0, 2**31)))
@settings(max_examples=10, deadline=None)
def test_soa_fastpath_equivalent_across_draws(widx, arch_idx, seed,
                                              fault_seed):
    plan = None if fault_seed is None else FaultPlan.sample(fault_seed)
    arch = ARCHES[arch_idx]
    fast = _run_full(widx, arch, seed, plan, True)
    poll = _run_full(widx, arch, seed, plan, False)
    assert fast == poll
