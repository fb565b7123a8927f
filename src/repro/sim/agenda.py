"""The fast engine's issue agenda (DESIGN §16).

The event-driven issue engine examines a scheduler only when its
dirty bit is set or its wake time has arrived, and fast-forwards idle
stretches to the earliest time-driven warp wake.  This module holds the
calendars that make those decisions incremental: per-scheduler dirty
bits and wake times, the SM-visit agenda, two lazy min-heaps, and the
O(1) DAB-buffer occupancy counters the flush trigger reads.

Everything here is plain Python (lists, a set, heaps, ints): these are
read and written one scalar at a time on the hottest path, and exact
Python ints keep any numpy dtype off the stall-accounting and trigger
surfaces.  Warp timing state itself lives only on the
:class:`~repro.arch.warp.Warp` objects; the agenda just remembers which
of them to look at.

Rows are ``r = sm_id * schedulers_per_sm + scheduler_id``.  ``NEVER``
is the wake-calendar sentinel for "no time-driven wake": far enough in
the future never to be reached (the cycle limit is ~2e8).
"""

from __future__ import annotations

import heapq
from typing import List

#: Wake-calendar sentinel: "this scheduler never wakes by time alone".
NEVER = 1 << 62


class IssueAgenda:
    """Fast-engine calendars: which SMs to visit and when warps wake."""

    def __init__(self, num_sms: int, schedulers_per_sm: int):
        self.schedulers_per_sm = schedulers_per_sm
        rows = num_sms * schedulers_per_sm

        # -- per-scheduler calendars (SM-owned) ------------------------
        self.sched_dirty: List[bool] = [True] * rows
        self.sched_wake: List[int] = [NEVER] * rows

        # -- per-SM state ----------------------------------------------
        self.sm_release_dirty: List[bool] = [True] * num_sms
        #: SM ids with a dirty scheduler or pending release poll; fed by
        #: SM._touch/touch_all and drained by the issue phase.
        self.visit_dirty = set(range(num_sms))

        # -- DAB buffer counters (maintained by bound AtomicBuffers) ---
        #: the flush trigger and kernel-drain checks read these instead
        #: of walking every buffer every cycle.
        self.buf_nonempty_count = 0
        self.buf_full_count = 0

        #: lazy min-heap of (wake_cycle, row) pushed when a scheduler
        #: freezes with a time-driven wake; entries are validated
        #: against sched_wake at pop time (stale ones are discarded).
        self.wake_heap: List = []
        #: lazy min-heap of (ready_cycle, uid, warp) per-warp wake
        #: candidates, pushed by the Warp setters on every eligibility
        #: transition (see Warp.ready_cycle.setter) and validated
        #: against the warp's own fields at peek time.  The unique uid
        #: keeps tuple comparison from ever reaching the warp.
        self.warp_wake: List = []

    # ------------------------------------------------------------------
    def push_wake(self, row: int, wake: int) -> None:
        """Register a scheduler freeze with a time-driven wake."""
        heapq.heappush(self.wake_heap, (wake, row))

    def pop_due(self, now: int) -> None:
        """Move schedulers whose wake time has arrived onto the agenda.

        An entry is live only if the row's current freeze still carries
        the recorded wake; anything else (re-frozen, woken by an event,
        gone idle) was superseded and is dropped.
        """
        heap = self.wake_heap
        if not heap:
            return
        wakes = self.sched_wake
        vd = self.visit_dirty
        s = self.schedulers_per_sm
        while heap and heap[0][0] <= now:
            w, row = heapq.heappop(heap)
            if wakes[row] == w:
                vd.add(row // s)

    def earliest_wake_heap(self, now: int):
        """Min future ``ready_cycle`` among eligible warps, or None.

        Heap twin of ``GPU._earliest_warp_wake`` for sparse occupancy:
        pops entries that can never match again (wake time reached, the
        warp's ready cycle moved on, or the warp is done or blocked) and
        returns the first entry its warp still corroborates.
        Completeness: every eligibility transition of a bound warp
        pushes (Warp setters + bind_agenda), so each currently-eligible
        warp with a future wake has a live entry.
        """
        heap = self.warp_wake
        while heap:
            rc, _uid, w = heap[0]
            if (rc > now and w.ready_cycle == rc and not w.at_barrier
                    and w.outstanding_loads == 0
                    and w.outstanding_atoms == 0 and not w.done):
                return rc
            heapq.heappop(heap)
        return None
