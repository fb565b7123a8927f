"""Integration tests for the GPUDet baseline (quanta, modes, costs)."""

import numpy as np
import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.harness.sweep import WorkloadRef
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource
from repro.workloads import Workload
from tests.integration.conftest import run_sum


class TestModes:
    def test_mode_cycles_sum_to_total(self):
        res, _, _ = run_sum(n=512, gpudet=GPUDetConfig())
        total = sum(res.gpudet_mode_cycles.values())
        assert total == pytest.approx(res.cycles, abs=2)

    def test_atomic_heavy_workload_is_serial_dominated(self):
        # The Fig 3 shape: atomics force serial mode to dominate.
        res, _, _ = run_sum(n=1024, gpudet=GPUDetConfig(),
                            config=GPUConfig.small())
        modes = res.gpudet_mode_cycles
        assert modes["serial"] > modes["commit"]
        assert modes["serial"] > 0.2 * res.cycles

    def test_store_only_kernel_never_enters_serial(self):
        mem = GlobalMemory()
        b = mem.alloc("out", 64, "f32")
        prog = assemble("""
            mov.s32 r_t, %gtid
            shl.s32 r_o, r_t, 2
            add.s32 r_a, c_out, r_o
            cvt.f32.s32 r_v, r_t
            st.global.f32 [r_a], r_v
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, gpudet=GPUDetConfig(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("st", prog, grid_dim=2, cta_dim=32,
                          params={"c_out": b}))
        res = gpu.run()
        # stores still committed correctly
        assert (mem.buffer("out") == np.arange(64, dtype=np.float32)).all()

    def test_gpudet_slower_than_baseline_on_atomics(self):
        base, _, _ = run_sum(n=1024, config=GPUConfig.small())
        det, _, _ = run_sum(n=1024, gpudet=GPUDetConfig(),
                            config=GPUConfig.small())
        assert det.cycles > base.cycles

    def test_smaller_quantum_means_more_commits(self):
        r_small, _, _ = run_sum(n=512, gpudet=GPUDetConfig(quantum_instrs=8))
        r_big, _, _ = run_sum(n=512, gpudet=GPUDetConfig(quantum_instrs=500))
        assert r_small.cycles >= r_big.cycles


class TestStoreBufferSemantics:
    def test_loads_see_own_stores_within_quantum(self):
        mem = GlobalMemory()
        b = mem.alloc("buf", 32, "f32")
        b_out = mem.alloc("out", 32, "f32")
        prog = assemble("""
            mov.s32 r_t, %gtid
            shl.s32 r_o, r_t, 2
            add.s32 r_a, c_buf, r_o
            mov.f32 r_v, 7.5
            st.global.f32 [r_a], r_v
            ld.global.f32 r_w, [r_a]
            add.s32 r_b, c_out, r_o
            st.global.f32 [r_b], r_w
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, gpudet=GPUDetConfig(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("rw", prog, grid_dim=1, cta_dim=32,
                          params={"c_buf": b, "c_out": b_out}))
        gpu.run()
        assert (mem.buffer("out") == np.float32(7.5)).all()

    def test_stores_commit_at_quantum_boundary(self):
        res, value, data = run_sum(n=256, gpudet=GPUDetConfig())
        ref = float(np.sum(data.astype(np.float64)))
        assert value == pytest.approx(ref, rel=1e-2, abs=1e-2)

    def test_returning_atomics_work_in_serial_mode(self):
        mem = GlobalMemory()
        b = mem.alloc("ctr", 1, "s32")
        b_out = mem.alloc("out", 32, "s32")
        prog = assemble("""
            atom.global.add.s32 r_old, [c_ctr], 1
            mov.s32 r_t, %gtid
            shl.s32 r_o, r_t, 2
            add.s32 r_a, c_out, r_o
            st.global.s32 [r_a], r_old
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, gpudet=GPUDetConfig(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("ticket", prog, grid_dim=1, cta_dim=32,
                          params={"c_ctr": b, "c_out": b_out}))
        gpu.run()
        # every lane got a unique ticket 0..31
        assert sorted(mem.buffer("out")) == list(range(32))
        assert mem.buffer("ctr")[0] == 32

    def test_barrier_releases_after_commit(self):
        mem = GlobalMemory()
        b = mem.alloc("buf", 64, "f32")
        b_out = mem.alloc("res", 64, "f32")
        prog = assemble("""
            mov.s32 r_t, %tid
            shl.s32 r_o, r_t, 2
            add.s32 r_a, c_buf, r_o
            cvt.f32.s32 r_v, r_t
            st.global.f32 [r_a], r_v
            bar.sync
            mov.s32 r_u, 63
            sub.s32 r_u, r_u, r_t
            shl.s32 r_uo, r_u, 2
            add.s32 r_ua, c_buf, r_uo
            ld.global.f32 r_w, [r_ua]
            add.s32 r_ra, c_res, r_o
            st.global.f32 [r_ra], r_w
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, gpudet=GPUDetConfig(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("bar", prog, grid_dim=1, cta_dim=64,
                          params={"c_buf": b, "c_res": b_out}))
        gpu.run()
        expect = np.arange(63, -1, -1, dtype=np.float32)
        # cross-warp visibility through the commit: exact values
        assert (mem.buffer("res") == expect).all()


# Each thread runs ``ctaid % 3 + 1`` rounds of load / own-store /
# barrier / reload / scatter-reduce, so CTAs retire at different quanta.
_WAVES_PROG = assemble("""
    mov.s32 r_i, %gtid
    shl.s32 r_off, r_i, 2
    add.s32 r_in, c_in, r_off
    add.s32 r_sc, c_scratch, r_off
    rem.s32 r_n, %ctaid, 3
    add.s32 r_n, r_n, 1
    mov.s32 r_k, 0
LOOP:
    ld.global.f32 r_v, [r_in]
    st.global.f32 [r_sc], r_v
    bar.sync
    ld.global.f32 r_w, [r_sc]
    add.s32 r_t, r_i, r_k
    rem.s32 r_t, r_t, c_m
    shl.s32 r_toff, r_t, 2
    add.s32 r_ta, c_out, r_toff
    red.global.add.f32 [r_ta], r_w
    add.s32 r_k, r_k, 1
    setp.lt.s32 p_more, r_k, r_n
@p_more bra LOOP
    exit
""")


def build_waves():
    """Two launches on the ``small`` preset (2 CTAs per SM, 16 per wave).

    The first launch has 24 CTAs: a full wave, then 8 that refill SMs
    as first-wave CTAs retire, leaving some SMs idle for the tail.  The
    second launch (10 CTAs) refills idle SMs after those quanta.
    """
    cta_dim, m = 256, 64
    n = 24 * cta_dim
    rng = np.random.default_rng(5)
    mem = GlobalMemory()
    params = {
        "c_in": mem.alloc("in", n, "f32",
                          init=(rng.standard_normal(n) * 10).astype(np.float32)),
        "c_scratch": mem.alloc("scratch", n, "f32"),
        "c_out": mem.alloc("out", m, "f32"),
        "c_m": m,
    }
    kernels = [Kernel("waves", _WAVES_PROG, grid_dim=g, cta_dim=cta_dim,
                      params=params) for g in (24, 10)]
    return Workload(name="waves", mem=mem, kernels=kernels,
                    outputs=["out", "scratch"])


#: Recorded before the GPUDet sweeps skipped idle SMs (both engines).
BC_1K_TITAN_V = {
    "cycles": 98581,
    "modes": {"parallel": 42142, "commit": 1839, "serial": 54600},
    "stalls": {"issued": 2471, "empty": 0, "mem": 2814, "barrier": 0,
               "inorder": 0, "token": 0, "round": 0, "buffer_full": 0,
               "flush": 0, "batch": 0, "other": 0},
    "digest": "e5c4ead29e6f0afbf9e9457e7fa632370c6c926f209bb587c2bcecd2be50c9ee",
}
WAVES_SMALL = {
    "cycles": 42831,
    "modes": {"parallel": 14225, "commit": 9096, "serial": 19510},
    "stalls": {"issued": 8072, "empty": 0, "mem": 90173, "barrier": 10915,
               "inorder": 0, "token": 0, "round": 0, "buffer_full": 0,
               "flush": 0, "batch": 0, "other": 0},
    "digest": "4a51f746bf8604362daa291d4a05d1f0b1a51f1f11d61c71747403a7a2661084",
}


def _timing(res):
    return {
        "cycles": res.cycles,
        "modes": dict(res.gpudet_mode_cycles),
        "stalls": res.stalls.as_dict(),
        "digest": res.extra["output_digest"],
    }


class TestPinnedTiming:
    """Exact GPUDet timing on machines that are mostly idle.

    Both engines share the GPUDet controller, so the engine-equivalence
    tests cannot catch a controller sweep that wrongly skips an occupied
    SM.  These values were recorded before the sweeps learned to skip
    idle SMs; any change to them is a behaviour change.
    """

    # A skipped waiter never wakes; the cycle cap turns that hang into
    # a SimulationError.

    def test_bc_1k_on_titan_v(self):
        # One warp on one of 80 SMs, ~230 quanta.
        res = run_workload(WorkloadRef("bc", ("1k", 32), {}),
                           ArchSpec.make_gpudet(), GPUConfig.titan_v(),
                           seed=3, max_cycles=2 * BC_1K_TITAN_V["cycles"])
        assert _timing(res) == BC_1K_TITAN_V

    def test_two_waves_on_small(self):
        res = run_workload(build_waves, ArchSpec.make_gpudet(),
                           GPUConfig.small(), seed=1,
                           max_cycles=2 * WAVES_SMALL["cycles"])
        assert _timing(res) == WAVES_SMALL
