"""Event-driven issue engine vs per-cycle polling reference.

The fastpath (default) and the polling loop (``REPRO_NO_FASTPATH=1``)
must be observationally indistinguishable: identical memory digests,
cycle counts, metrics (including the Fig 15 stall breakdown and the
trace digest), no matter the architecture, workload, or fault plan.
"""

import os

import pytest

from repro.config import GPUConfig
from repro.core.dab import BufferLevel, DABConfig
from repro.core.schedulers import DONE_STATUS
from repro.faults import FaultConfig, FaultPlan
from repro.gpudet.gpudet import GPUDetConfig
from repro.arch.warp import Warp
from repro.harness.runner import ArchSpec, run_workload
from repro.obs import ObsConfig
from repro.sim.gpu import GPU
from repro.sim.sm import SM
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv
from repro.workloads.microbench import build_atomic_sum, build_histogram


def _run(factory, arch, fastpath, **kw):
    """One run under an explicit engine; restores the env afterwards."""
    prev = os.environ.get("REPRO_NO_FASTPATH")
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        return run_workload(factory, arch,
                            gpu_config=GPUConfig.small(), seed=1, **kw)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = prev


def _comparable(res):
    md = res.metrics_dict()
    md.pop("host_profile", None)
    return {
        "metrics": md,
        "mem_digest": res.mem_digest,
        "cycles": res.cycles,
        "stalls": res.stalls.as_dict(),
        "output_digest": res.extra["output_digest"],
    }


def _assert_engines_agree(factory, arch, **kw):
    fast = _comparable(_run(factory, arch, fastpath=True, **kw))
    poll = _comparable(_run(factory, arch, fastpath=False, **kw))
    assert fast == poll
    return fast


ARCHES = [
    pytest.param(ArchSpec.baseline(), id="baseline"),
    pytest.param(ArchSpec.make_dab(
        DABConfig(buffer_entries=64, scheduler="gwat", fusion=True,
                  coalescing=True), "dab"), id="dab"),
    pytest.param(ArchSpec.make_gpudet(), id="gpudet"),
]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_with_observability(arch):
    # Full observability: the comparison covers the trace digest and
    # every registered metric, including gpu.run.epochs.
    out = _assert_engines_agree(
        lambda: build_histogram(4096, bins=32), arch,
        obs=ObsConfig(metrics=True, trace=True),
    )
    assert "trace" in out["metrics"]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_under_faults(arch):
    plan = FaultPlan(11, FaultConfig(
        dram_burst_prob=0.2, dram_burst_len=6, dram_burst_extra=40,
        icnt_spike_prob=0.1, icnt_spike_max=20, reorder_prob=0.05,
        reorder_max_delay=12, stall_windows=2, stall_len=200,
    ))
    _assert_engines_agree(
        lambda: build_atomic_sum(2048), arch,
        faults=plan, invariants=True,
    )


@pytest.mark.parametrize("level", [BufferLevel.SCHEDULER, BufferLevel.WARP],
                         ids=["sched", "warp"])
@pytest.mark.parametrize("policy", ["srr", "gtrr", "gtar", "gwat"])
@pytest.mark.parametrize("workload", [
    pytest.param(lambda: build_histogram(4096, bins=32), id="histogram"),
    pytest.param(lambda: build_conv("cnv2_1"), id="cnv2_1"),
])
def test_engines_identical_for_every_dab_policy(workload, policy, level):
    # Each policy reads the status records differently (GTRR/GTAR
    # rounds, GWAT's token), and warp-level buffers gate per slot.
    arch = ArchSpec.make_dab(
        DABConfig(buffer_entries=64, scheduler=policy, buffer_level=level),
        f"dab-{policy}-{level.value}")
    _assert_engines_agree(workload, arch)


def test_engines_identical_on_graph_workload():
    # Barriers + data-dependent control flow: exercises the barrier
    # release paths and their calendar touches.
    _assert_engines_agree(
        lambda: build_bc(graph="1k", scale=32),
        ArchSpec.make_dab(DABConfig(buffer_entries=64, scheduler="gwat",
                                    fusion=True, coalescing=True), "dab"),
        obs=ObsConfig(metrics=True, trace=True),
    )


def test_stall_windows_book_identically():
    # A small buffer forces buffer_full and flush stall windows on top
    # of the mem windows.  Each bucket the polling loop fills
    # cycle-by-cycle must come out identical from the bulk accounting.
    arch = ArchSpec.make_dab(DABConfig(buffer_entries=32, scheduler="gwat"),
                             "dab-tiny")
    out = _assert_engines_agree(lambda: build_bc(graph="1k", scale=32), arch)
    stalls = out["stalls"]
    assert stalls["mem"] > 0
    assert stalls["buffer_full"] > 0
    assert stalls["flush"] > 0
    assert stalls["issued"] > 0


def test_barrier_windows_book_identically():
    # Convolution hits whole-scheduler barrier waits on the baseline;
    # the fastpath books those windows with the "barrier" reason.
    out = _assert_engines_agree(lambda: build_conv("cnv2_1"),
                                ArchSpec.baseline())
    assert out["stalls"]["barrier"] > 0
    assert out["stalls"]["mem"] > 0


def test_gpudet_quantum_stalls_identical():
    out = _assert_engines_agree(
        lambda: build_atomic_sum(2048),
        ArchSpec.make_gpudet(GPUDetConfig(quantum_instrs=20)),
    )
    assert out["stalls"]["mem"] > 0


def test_epochs_gauge_matches_across_engines():
    # Both engines count one epoch per issue-phase execution; the gauge
    # is part of the metrics comparison above, but pin it explicitly.
    fast = _run(lambda: build_histogram(2048, bins=16), ArchSpec.baseline(),
                fastpath=True, obs=ObsConfig(metrics=True))
    poll = _run(lambda: build_histogram(2048, bins=16), ArchSpec.baseline(),
                fastpath=False, obs=ObsConfig(metrics=True))
    key = "gpu.run.epochs"
    f = fast.metrics_dict()["metrics"][key]
    p = poll.metrics_dict()["metrics"][key]
    assert f == p
    assert f["value"] > 0


def _capture_gpus(monkeypatch):
    """Collect every GPU that finishes a run (for post-run inspection)."""
    gpus = []
    orig = GPU._collect_result

    def collect(self, *args, **kw):
        gpus.append(self)
        return orig(self, *args, **kw)

    monkeypatch.setattr(GPU, "_collect_result", collect)
    return gpus


def test_polling_engine_leaves_wake_heap_empty(monkeypatch):
    # Only the fast engine pops the per-warp wake heap, so the polling
    # oracle must never push onto it: bound warps would leave one dead
    # entry per eligibility transition behind.
    gpus = _capture_gpus(monkeypatch)
    res = _run(lambda: build_bc(graph="1k", scale=32), ArchSpec.baseline(),
               fastpath=False)
    assert res.instructions > 0
    assert gpus
    assert all(gpu.agenda.warp_wake == [] for gpu in gpus)


@pytest.mark.parametrize("arch", ARCHES)
def test_wake_heap_matches_scan(monkeypatch, arch):
    # Every fast-forward's heap peek must equal a full rescan of the
    # object graph.  The histogram grid is two waves deep on the
    # small preset, so CTAs retire mid-kernel and their hardware slots
    # are reused: stale (rc, uid, warp) entries of retired warps must
    # be discarded, never mistaken for the new occupant's wake.
    orig = GPU._earliest_warp_wake_fast
    peeks = []

    def checked(self):
        got = orig(self)
        self._wake_dirty = True  # force a rescan, not the memo
        assert got == self._earliest_warp_wake(), self.cycle
        peeks.append(got)
        return got

    monkeypatch.setattr(GPU, "_earliest_warp_wake_fast", checked)
    unbinds = []
    orig_unbind = Warp.unbind_agenda

    def unbind(self):
        unbinds.append(self.uid)
        orig_unbind(self)

    monkeypatch.setattr(Warp, "unbind_agenda", unbind)
    _run(lambda: build_histogram(8192, bins=32, cta_dim=64), arch,
         fastpath=True)
    assert unbinds, "config must reuse hardware slots mid-kernel"
    assert any(p is not None for p in peeks)


def _assert_live_lists_match_slots(sm):
    for s, table in enumerate(sm.sched_slots):
        statuses = sm._status_lists[s]
        live = sm._live_lists[s]
        assert [r.warp for r in live] == [
            w for w in table if w is not None and not w.done]
        assert all(r is statuses[r.warp.hw_slot] for r in live)
        for w, status in zip(table, statuses):
            if w is None:
                assert status is None
            elif w.done:
                assert status is DONE_STATUS
            else:
                assert status is not DONE_STATUS and status.warp is w


@pytest.mark.parametrize("arch", ARCHES)
def test_live_lists_match_slot_tables(monkeypatch, arch):
    # The fast engine examines only each scheduler's live list, which
    # try_place_cta and _handle_exit maintain.  Check it against the
    # slot tables around every SM visit, on a grid two waves deep so
    # exited slots are reused by the next wave.
    gpus = _capture_gpus(monkeypatch)
    orig = SM.issue_cycle_fast
    visits = []

    def checked(self, now, epoch):
        _assert_live_lists_match_slots(self)
        issued = orig(self, now, epoch)
        _assert_live_lists_match_slots(self)
        visits.append(issued)
        return issued

    monkeypatch.setattr(SM, "issue_cycle_fast", checked)
    _run(lambda: build_histogram(8192, bins=32, cta_dim=64), arch,
         fastpath=True)
    assert any(visits)
    assert any(sm.ctas_placed > sm._ctas_per_wave
               for gpu in gpus for sm in gpu.sms), "slots must be reused"
