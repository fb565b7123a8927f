"""Per-layer host-time spans, recorded from wrappers the benchmark installs.

Each layer is a set of public methods (or module functions) of one
simulator module.  :class:`Tracer` replaces them with wrappers that
append one span per call to column arrays kept in memory: name, start,
end, parent span and cell id, plus whether the call was nested inside
another call of the same layer and, for a few methods, a yes/no outcome
(issued, fired, accepted, hit).  Uninstalling restores the originals.

Wrappers live on the classes, so every object the simulator builds
while they are installed calls through them; a traced pass builds its
GPUs after :meth:`Tracer.install`.

From the spans, :meth:`Tracer.layer_metrics` derives per layer:

* ``<layer>.s``      inclusive seconds of the layer's outermost calls;
* ``<layer>.self_s`` seconds inside the layer minus its child spans;
* ``<layer>.calls``  number of outermost calls into the layer;

and the outcome ratios named in :data:`RATIOS`.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


def _issued(r):
    return r[0] is not None


def _not_none(r):
    return r is not None


def _layers():
    """(layer, owner, attribute, outcome) for every wrapped callable.

    Imported lazily: the simulator is importable only once ``run.py``
    has put the checkout's ``src`` on the path.
    """
    from repro.arch.warp import Warp
    from repro.campaign import html
    from repro.campaign.rundb import RunDB
    from repro.core import schedulers
    from repro.core.atomic_buffer import AtomicBuffer
    from repro.core.flush import FlushController
    from repro.gpudet.gpudet import GPUDetController
    from repro.harness.sweep import ResultCache, WorkloadRef
    from repro.interconnect.network import Network
    from repro.memory.cache import SectorCache
    from repro.memory.globalmem import GlobalMemory
    from repro.memory.partition import MemoryPartition
    from repro.resilience import integrity
    from repro.sim.dispatcher import CTADispatcher
    from repro.sim.gpu import GPU
    from repro.sim.sm import SM

    policies = [c for c in vars(schedulers).values()
                if isinstance(c, type)
                and issubclass(c, schedulers.SchedulerPolicy)
                and "select" in vars(c)
                and c is not schedulers.SchedulerPolicy]
    table = [
        ("workloads.build", WorkloadRef, "__call__", None),
        ("sim.gpu.init", GPU, "__init__", None),
        ("sim.gpu.run", GPU, "run", None),
        ("sim.sm.issue_cycle_fast", SM, "issue_cycle_fast", None),
        ("sim.sm.drain_dab_buffers", SM, "drain_dab_buffers", None),
        ("sim.dispatcher.place", CTADispatcher, "place", None),
        ("core.flush.maybe_trigger", FlushController, "maybe_trigger", bool),
        ("arch.warp.step", Warp, "step", None),
        ("memory.cache.access", SectorCache, "access", bool),
        ("interconnect.network.send", Network, "send", None),
        ("campaign.rundb.record_run", RunDB, "record_run", None),
        ("campaign.html.render_report", html, "render_report", None),
        ("harness.sweep.cache_get", ResultCache, "get", _not_none),
        ("harness.sweep.cache_put", ResultCache, "put", None),
        ("resilience.integrity.seal", integrity, "seal", None),
        ("resilience.integrity.verify", integrity, "verify", None),
    ]
    table += [("core.schedulers.select", cls, "select", _issued)
              for cls in policies]
    table += [("core.atomic_buffer", AtomicBuffer, name,
               bool if name == "can_accept" else None)
              for name in ("can_accept", "slots_needed", "insert", "drain",
                           "mark_full")]
    table += [("memory.globalmem", GlobalMemory, name, None)
              for name in ("load", "store", "load_many", "store_many",
                           "apply_atomic")]
    table += [("memory.partition.service", MemoryPartition, name, None)
              for name in ("service_request", "service_atomic",
                           "retire_dram")]
    table += [("memory.partition.flush", MemoryPartition, name, None)
              for name in ("begin_flush_round", "receive_flush_entry",
                           "apply_flush_ops")]
    table += [("gpudet.gpudet", GPUDetController, name, None)
              for name in ("begin_kernel", "on_cta_placed", "mem_view",
                           "can_issue", "after_step", "tick", "finalize")]
    return table


#: ratio metric -> (layer, attribute whose outcomes it averages).
RATIOS = {
    "core.schedulers.select.issue_ratio": ("core.schedulers.select", "select"),
    "core.flush.maybe_trigger.fire_ratio": ("core.flush.maybe_trigger",
                                            "maybe_trigger"),
    "core.atomic_buffer.accept_ratio": ("core.atomic_buffer", "can_accept"),
    "memory.cache.access.hit_ratio": ("memory.cache.access", "access"),
    "harness.sweep.hit_ratio": ("harness.sweep.cache_get", "get"),
}

#: count metric -> (layer, attribute): calls of one method of a layer.
METHOD_CALLS = {
    "gpudet.tick.calls": ("gpudet.gpudet", "tick"),
}


class Tracer:
    """Span recorder plus the wrapper table that feeds it."""

    def __init__(self) -> None:
        self.table = _layers()
        self.layers = sorted({row[0] for row in self.table})
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        # span columns (one entry per wrapped call)
        self.sid = array("i")      # index into self.table
        self.parent = array("i")   # parent span index, -1 at the top
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # 1 inside another call of its layer
        self.outcome = array("b")  # 1 / 0, or -1 when not judged
        self.cell_id = 0
        self._stack = [-1]
        self._depth = [0] * len(self.layers)
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for sid, (layer, owner, attr, judge) in enumerate(self.table):
            original = vars(owner)[attr]
            wrapper = self._wrap(original, sid, self._layer_id[layer], judge)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if not isinstance(owner, type):
                self._rebind(getattr(owner, attr), original)
            setattr(owner, attr, original)
        self._saved = []

    @staticmethod
    def _rebind(old, new) -> None:
        """Point every ``from x import f`` copy of a module function at
        ``new`` (e.g. ``repro.campaign.render_report``)."""
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)

    def _wrap(self, fn, sid, lid, judge):
        sids, parents, cells = self.sid, self.parent, self.cell
        starts, ends = self.start, self.end
        nesteds, outcomes = self.nested, self.outcome
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            d = depth[lid]
            sids.append(sid)
            parents.append(stack[-1])
            cells.append(tracer.cell_id)
            nesteds.append(1 if d else 0)
            outcomes.append(-1)
            ends.append(0.0)
            stack.append(i)
            depth[lid] = d + 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[lid] = d
                stack.pop()
            if judge is not None:
                outcomes[i] = 1 if judge(result) else 0
            return result

        return traced

    # -- reduction ----------------------------------------------------
    @property
    def spans(self) -> int:
        return len(self.start)

    def layer_metrics(self, units: int) -> dict:
        """Per-layer totals over every recorded span, divided by
        ``units`` (the number of traced passes)."""
        sid = np.frombuffer(self.sid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        outcome = np.frombuffer(self.outcome, dtype=np.int8)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        layer_of = np.array([self._layer_id[row[0]] for row in self.table],
                            dtype=np.int32)
        lid = layer_of[sid] if len(sid) else np.zeros(0, dtype=np.int32)

        out = {}
        for i, layer in enumerate(self.layers):
            in_layer = lid == i
            outer = in_layer & ~nested
            out[f"{layer}.s"] = float(dur[outer].sum()) / units
            out[f"{layer}.self_s"] = float(self_time[in_layer].sum()) / units
            out[f"{layer}.calls"] = int(outer.sum()) / units
        for metric, (layer, attr) in RATIOS.items():
            mask = self._method_mask(sid, layer, attr) & (outcome >= 0)
            n = int(mask.sum())
            out[metric] = float(outcome[mask].sum()) / n if n else 0.0
        for metric, (layer, attr) in METHOD_CALLS.items():
            out[metric] = int(self._method_mask(sid, layer, attr).sum()) / units
        return out

    def _method_mask(self, sid, layer, attr):
        ids = [i for i, row in enumerate(self.table)
               if row[0] == layer and row[2] == attr]
        return np.isin(sid, ids)
