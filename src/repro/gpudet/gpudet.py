"""GPUDet controller: quanta, store buffers, commit and serial modes.

Execution model (paper Section III-C):

* **Parallel mode** — warps run normally up to ``quantum_instrs``
  instructions.  Global stores append to the warp's store buffer; the
  warp's own loads see its buffered stores (others don't).  A warp ends
  its quantum early when it reaches an atomic (which may not execute in
  parallel mode), a barrier, or exit.
* **Commit mode** — once every live warp has ended its quantum and all
  in-flight memory settles, all store buffers are made globally visible
  in deterministic warp-uid order, with timing from the Z-buffer model.
* **Serial mode** — warps that stopped at an atomic execute that one
  atomic instruction one warp at a time in warp-uid order, each paying
  a full round trip; this is the serialization that makes GPUDet slow
  on atomic-intensive workloads (Fig 3).

Barriers and fences release at the start of the next parallel mode (the
commit made the pre-barrier stores visible).  Mode cycle totals feed the
Fig 3 execution-mode breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.arch.isa import OpClass
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.memory.globalmem import GlobalMemory
from repro.memory.store_buffer import StoreBuffer
from repro.gpudet.zbuffer import zbuffer_commit_cycles

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.gpu import GPU
    from repro.sim.sm import SM


@dataclass(frozen=True)
class GPUDetConfig:
    quantum_instrs: int = 200
    zbuffer_startup: int = 64
    commit_per_entry: int = 1
    #: cycles between consecutive serially-issued warps (issue overhead;
    #: their memory latencies overlap because serial mode only serializes
    #: *issue* order: "issuing warps serially in a set order", III-C)
    serial_issue_gap: int = 8
    #: one drain round trip at the end of serial mode
    serial_round_trip: int = 2 * 20 + 120  # icnt both ways + L2 access

    def __post_init__(self) -> None:
        if self.quantum_instrs < 1:
            raise ValueError("quantum must be >= 1 instruction")


class StoreBufferView:
    """Memory view a warp uses in parallel mode: own stores are visible."""

    def __init__(self, mem: GlobalMemory, sb: StoreBuffer):
        self._mem = mem
        self._sb = sb

    def load_many(self, addrs) -> np.ndarray:
        # One gather, then overlay the warp's own buffered stores; every
        # buffered address was validated by store_many.
        out = self._mem.load_many(addrs)
        if not self._sb.empty:
            for k, a in enumerate(addrs):
                v = self._sb.load(int(a))
                if v is not None:
                    out[k] = v
        return out

    def store_many(self, addrs, values) -> None:
        for a, v in zip(addrs, values):
            a = int(a)
            # Reject a bad address at the store, as GlobalMemory.store
            # does, not quanta later when the commit writes it.
            self._mem.locate(a)
            self._sb.store(a, v)


class _WarpState:
    """One warp's GPUDet state: store buffer, its view, quantum use and
    the reason its quantum ended (None while it may still issue)."""

    __slots__ = ("warp", "sb", "view", "used", "reason")

    def __init__(self, warp: Warp, mem: GlobalMemory):
        self.warp = warp
        self.sb = StoreBuffer()
        self.view = StoreBufferView(mem, self.sb)
        self.used = 0
        self.reason: Optional[str] = None


PARALLEL, COMMIT, SERIAL = "parallel", "commit", "serial"


class GPUDetController:
    def __init__(self, gpu: "GPU", config: GPUDetConfig):
        self.gpu = gpu
        self.config = config
        self.mode = PARALLEL
        self.mode_cycles: Dict[str, int] = {PARALLEL: 0, COMMIT: 0, SERIAL: 0}
        self._mode_started = 0
        #: warp uid -> state, for live warps and for exited warps whose
        #: stores the next commit has yet to drain.
        self._warps: Dict[int, _WarpState] = {}
        self._quanta = 0

    # ------------------------------------------------------------------
    def begin_kernel(self, kernel: Kernel) -> None:
        pass  # state is per-warp and created lazily

    def on_cta_placed(self, cta: CTA, sm: "SM") -> None:
        pass

    def _state_for(self, warp: Warp) -> _WarpState:
        st = self._warps.get(warp.uid)
        if st is None:
            st = self._warps[warp.uid] = _WarpState(warp, self.gpu.mem)
        return st

    def mem_view(self, warp: Warp) -> StoreBufferView:
        return self._state_for(warp).view

    # ------------------------------------------------------------------
    # Issue gating & accounting.
    # ------------------------------------------------------------------
    def can_issue(self, warp: Warp) -> bool:
        if self.mode != PARALLEL:
            return False
        st = self._state_for(warp)
        if st.reason is not None:
            return False
        if warp.next_is_atomic():
            # Atomics may not execute in parallel mode: end the quantum.
            st.reason = "atomic"
            self.gpu._gpudet_dirty = True  # tick() reads the reasons
            return False
        return True

    def after_step(self, now: int, warp: Warp, result) -> None:
        st = self._state_for(warp)
        self.gpu._gpudet_dirty = True  # any step can end the quantum
        st.used += 1
        if result.exited:
            st.reason = "exit"
        elif result.barrier or result.fence:
            st.reason = "barrier"
        elif st.used >= self.config.quantum_instrs:
            st.reason = "budget"

    # ------------------------------------------------------------------
    # Quantum state machine.
    #
    # GPU-wide sweeps visit only SMs with live warps.  That is exact: an
    # SM with no live warps has no barrier or fence waiters (a waiter is
    # a live warp) and no open stall window (a scheduler's last live
    # warp leaves by issuing its exit); placing a CTA touches the
    # schedulers it fills; and serial mode steps only atomics, so it
    # never exits a warp.  DESIGN.md §12 has the full argument.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> bool:
        if self.mode != PARALLEL:
            return False
        # Lazy scan with early-out: most calls find a warp mid-quantum
        # (reason still None) within the first few slots, so building
        # the full live-warp list up front is wasted work on the hot
        # path.  A warp without a record has not been examined yet, so
        # its quantum is still open.
        warps = self._warps
        any_live = False
        barrier_blocked = False
        for sm in self.gpu.sms:
            if not sm.live_count:
                continue  # every placed warp has exited
            for table in sm.sched_slots:
                for w in table:
                    if w is None or w.done:
                        continue
                    any_live = True
                    if w.at_barrier:
                        # Its quantum ended with 'barrier', but its
                        # in-flight memory still blocks the commit.
                        if w.outstanding_loads or w.outstanding_atoms:
                            barrier_blocked = True
                        continue
                    st = warps.get(w.uid)
                    if st is None or st.reason is None:
                        return False
                    if w.outstanding_loads or w.outstanding_atoms:
                        return False
        if not any_live:
            # Kernel drain: final commit of any leftover stores.
            if not self.drained():
                self._enter_commit(now)
                return True
            return False
        if barrier_blocked:
            return False
        self._enter_commit(now)
        return True

    def _enter_commit(self, now: int) -> None:
        self.mode_cycles[PARALLEL] += now - self._mode_started
        self.mode = COMMIT
        self._mode_started = now
        self._quanta += 1

        # Deterministic commit: warp-uid order; Z-buffer resolves
        # same-address conflicts by the same order (later uid wins).
        # An exited warp's state goes once its stores are out.
        num_parts = len(self.gpu.partitions)
        per_part = [0] * num_parts
        warps = self._warps
        for uid in sorted(warps):
            st = warps[uid]
            if not st.sb.empty:
                for addr, value in st.sb.drain():
                    self.gpu.mem.store(addr, value)
                    per_part[self.gpu.addr_map.partition_of(addr)] += 1
            if st.reason == "exit":
                del warps[uid]
        cycles = zbuffer_commit_cycles(
            per_part,
            startup=self.config.zbuffer_startup,
            per_entry=self.config.commit_per_entry,
        )
        self.gpu.schedule(now + max(1, cycles), self._commit_done, None)

    def _commit_done(self, now: int, _args) -> None:
        self.mode_cycles[COMMIT] += now - self._mode_started
        self.mode = SERIAL
        self._mode_started = now
        self.gpu._wake_dirty = True  # serial steps advance warp state
        self.gpu._gpudet_dirty = True
        self.gpu._touch_all_sms()  # serial warps step on any SM
        t = now

        # Serial mode: warps stopped at an atomic run it one warp at a
        # time, in warp-uid order.  Only a live warp's quantum ends with
        # 'atomic' (the warp cannot step again until serial mode).
        warps = self._warps
        pending = [warps[uid] for uid in sorted(warps)
                   if warps[uid].reason == "atomic"]
        last_done = now
        for st in pending:
            w = st.warp
            if not w.next_is_atomic():
                continue  # guarded off since
            sm = self.gpu.sms[w.sm_id]
            result = w.step(self.gpu.mem)
            sm.instructions += 1
            sm.atomics += 1
            st.used += 1
            spec = result.mem
            t += self.config.serial_issue_gap
            if spec is not None:
                # Warps *issue* serially; per-partition ROPs serialize
                # the actual operations (rop._free), and the memory
                # latencies of consecutive warps overlap.
                for op in spec.red_ops:
                    p = self.gpu.addr_map.partition_of(op.addr)
                    _old, done = self.gpu.partitions[p].service_atomic(t, op)
                    last_done = max(last_done, done)
                for lane, op in spec.atom_ops:
                    p = self.gpu.addr_map.partition_of(op.addr)
                    old, done = self.gpu.partitions[p].service_atomic(t, op)
                    last_done = max(last_done, done)
                    if spec.atom_dst is not None:
                        w.write_atom_result(spec.atom_dst, lane, old)
        if pending:
            last_done += self.config.serial_round_trip
        self.gpu.schedule(max(t, last_done, now + 1), self._serial_done, None)

    def _serial_done(self, now: int, _args) -> None:
        self.mode_cycles[SERIAL] += now - self._mode_started
        self.mode = PARALLEL
        self._mode_started = now
        self.gpu._wake_dirty = True  # barrier releases below
        self.gpu._gpudet_dirty = True  # new quantum may end immediately
        self.gpu._touch_all_sms()  # every live warp may issue again
        # New quantum: reset budgets and reasons; release arrived barriers
        # (their stores are now committed and visible).  No warp has
        # exited since the commit dropped the exited warps' state.
        for st in self._warps.values():
            st.used = 0
            st.reason = None
        self._release_barriers(now)

    def _release_barriers(self, now: int) -> None:
        for sm in self.gpu.sms:
            if not sm.live_count:
                continue  # no live warp, so no waiter
            done = []
            for cta in sm._barrier_ctas:  # noqa: SLF001
                warps = [w for w in sm.all_warps() if w.cta is cta and not w.done]
                if warps and all(w.at_barrier for w in warps):
                    for w in warps:
                        w.at_barrier = False
                        w.ready_cycle = max(w.ready_cycle, now + 1)
                    done.append(cta)
            for cta in done:
                sm._barrier_ctas.remove(cta)  # noqa: SLF001
            for w in sm._fence_warps:  # noqa: SLF001
                w.at_barrier = False
                w.ready_cycle = max(w.ready_cycle, now + 1)
            sm._fence_warps = []  # noqa: SLF001

    # ------------------------------------------------------------------
    def drained(self) -> bool:
        return self.mode == PARALLEL and all(
            st.sb.empty for st in self._warps.values()
        )

    def finalize(self, now: int) -> None:
        self.mode_cycles[self.mode] += now - self._mode_started
        self._mode_started = now
