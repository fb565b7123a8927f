"""``dab_titan`` and ``base_titan``: the Fig 10 quick kernels at paper scale.

Each pass builds every cell of one jitter seed (the five kernels under
each of the workload's architectures on ``GPUConfig.titan_v``, 80 SMs)
and then drives them one after another in this process; passes
alternate over the run's seed list and repeat back to back until the
run's seconds are used (a closed loop with one client).  Set-up (the
workload images and the GPUs) is timed apart from the drive, and
outputs are checked after the drive, outside every timing.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import common

#: Fig 10 quick kernels (``repro experiment fig10 --quick``), as sweep
#: registry references: (name, factory, args, kwargs).
KERNELS = [
    ("BC 1k", "bc", ("1k", 32), {}),
    ("BC FA", "bc", ("FA", 32), {}),
    ("PRK coA", "pagerank", ("coA", 2048), {"iterations": 1}),
    ("cnv2_1", "conv", ("cnv2_1",), {}),
    ("cnv2_2", "conv", ("cnv2_2",), {}),
]

#: Float outputs of the non-deterministic baseline may differ from the
#: deterministic GPUDet result by float32 reassociation only.
BASELINE_RTOL = 1e-4
BASELINE_ATOL = 1e-6

#: Set-up repetitions made before the timed section (each pass adds one
#: more set-up sample).
SETUP_REPEATS = 10


def _archs(workload):
    from repro.core.dab import DABConfig
    from repro.harness.runner import ArchSpec

    if workload == "dab_titan":
        # Fig 10's DAB configuration: GWAT, 64-entry buffers, fusion and
        # coalescing.
        return [("DAB", ArchSpec.make_dab(
            DABConfig(buffer_entries=64, scheduler="gwat", fusion=True,
                      coalescing=True), "DAB"))]
    return [("baseline", ArchSpec.baseline()),
            ("GPUDet", ArchSpec.make_gpudet())]


class Cell:
    """One (architecture, kernel, jitter seed) simulation."""

    def __init__(self, arch_name, arch, kernel, ref, seed):
        self.arch_name = arch_name
        self.arch = arch
        self.kernel = kernel
        self.ref = ref
        self.seed = seed

    @property
    def key(self):
        return (self.arch_name, self.kernel, self.seed)

    def build(self):
        """Fresh workload image and GPU, exactly as ``run_workload``
        builds them."""
        from repro.config import GPUConfig
        from repro.sim.gpu import GPU
        from repro.sim.nondet import JitterSource

        workload = self.ref()
        gpu = GPU(
            GPUConfig.titan_v(), workload.mem,
            dab=self.arch.dab if self.arch.kind == "dab" else None,
            gpudet=self.arch.gpudet if self.arch.kind == "gpudet" else None,
            jitter=JitterSource(self.seed, dram_max=16, icnt_max=6),
        )
        return workload, gpu


class Outcome:
    """What one driven cell produced."""

    def __init__(self, cell, workload, gpu, result):
        self.cell = cell
        self.instructions = int(result.instructions)
        self.cycles = int(result.cycles)
        self.sim_wall_s = gpu.sim_wall_s
        self.digest = workload.output_digest()
        self.outputs = {name: workload.mem.buffer(name).copy()
                        for name in workload.outputs}
        self.counters = common.sim_counters(result.metrics_dict())


def cells(workload, seed):
    from repro.harness.sweep import WorkloadRef

    return [Cell(aname, arch, kname, WorkloadRef(factory, args, kwargs), seed)
            for aname, arch in _archs(workload)
            for kname, factory, args, kwargs in KERNELS]


class Pass:
    """One pass: drive seconds, the mean calibration loop measured beside
    it, and its outcomes in cell order (None = the cell raised)."""

    def __init__(self, wall, cal, done):
        self.wall = wall
        self.cal = cal
        self.done = done

    @property
    def ok(self):
        return [o for o in self.done if o is not None]


class TitanRun:
    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seeds = common.jitter_seeds(seed)
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first = {}          # cell key -> first Outcome seen
        self.setup_samples = []   # nominal-host seconds
        self.cal_samples = []     # every calibration loop of the run

    # -- one pass ------------------------------------------------------
    def run_pass(self, seed, tracer=None):
        """Build every cell of ``seed``, then drive them one by one with a
        calibration loop after each."""
        todo = cells(self.workload, seed)
        if tracer is not None:
            tracer.cell_id = -1  # set-up spans belong to no cell
        gc.collect()
        t0 = time.perf_counter()
        built = [cell.build() for cell in todo]
        setup = time.perf_counter() - t0
        outcomes = []
        wall = cal = 0.0
        for i, (cell, (workload, gpu)) in enumerate(zip(todo, built)):
            if tracer is not None:
                tracer.cell_id = i
            t0 = time.perf_counter()
            try:
                result = workload.drive(gpu)
            except Exception as exc:  # counted as a failed cell
                outcomes.append(exc)
            else:
                outcomes.append((cell, workload, gpu, result))
            wall += time.perf_counter() - t0
            cal += common.calibrate(self.cal_samples)
        cal /= len(todo)
        self.setup_samples.append(common.nominal(setup, cal))
        done = []
        for cell, item in zip(todo, outcomes):
            self.attempted += 1
            if isinstance(item, Exception):
                self._fail(cell, f"raised {type(item).__name__}: {item}")
                done.append(None)
                continue
            out = Outcome(*item)
            self._check(out)
            done.append(out)
        self._check_baseline(done)
        return Pass(wall, cal, done)

    # -- output checks -------------------------------------------------
    def _fail(self, cell, why):
        self.failed += 1
        self.errors.append(f"{cell.arch_name}/{cell.kernel}/seed {cell.seed}: "
                           f"{why}")

    def _check(self, out):
        cell = out.cell
        want_instr = self.expected["instructions"][cell.kernel]
        if out.instructions != want_instr:
            self._fail(cell, f"retired {out.instructions} warp-instructions, "
                             f"expected {want_instr}")
        digests = self.expected["output_digest"].get(cell.arch_name)
        if digests is not None and out.digest != digests[cell.kernel]:
            self._fail(cell, f"output digest {out.digest[:16]} != recorded "
                             f"{digests[cell.kernel][:16]}")
        first = self._first.setdefault(cell.key, out)
        if (out.cycles, out.digest) != (first.cycles, first.digest):
            self._fail(cell, "same seed, different cycles or output")

    def _check_baseline(self, done):
        """Baseline outputs equal GPUDet's up to float reassociation."""
        ref = {o.cell.kernel: o for o in done
               if o is not None and o.cell.arch_name == "GPUDet"}
        for out in done:
            if out is None or out.cell.arch_name != "baseline":
                continue
            det = ref.get(out.cell.kernel)
            if det is None:
                continue
            for name, got in out.outputs.items():
                want = det.outputs[name]
                if np.issubdtype(got.dtype, np.integer):
                    same = np.array_equal(got, want)
                else:
                    same = np.allclose(got, want, rtol=BASELINE_RTOL,
                                       atol=BASELINE_ATOL)
                if not same:
                    self._fail(out.cell, f"output {name!r} differs from "
                                         f"GPUDet beyond float tolerance")

    # -- the run ---------------------------------------------------------
    def warm_up(self):
        """One small cell per architecture (imports, numpy first calls
        and lazy set-up are paid here), then the set-up repeats."""
        for cell in cells(self.workload, self.seeds[0]):
            if cell.kernel == KERNELS[0][0]:
                workload, gpu = cell.build()
                workload.drive(gpu)
        for _ in range(SETUP_REPEATS):
            todo = cells(self.workload, self.seeds[0])
            gc.collect()
            t0 = time.perf_counter()
            built = [cell.build() for cell in todo]
            setup = time.perf_counter() - t0
            del built
            cal = common.calibrate(self.cal_samples)
            self.setup_samples.append(common.nominal(setup, cal))

    def measure(self, seconds):
        """Untraced passes until ``seconds`` have passed (at least one
        pass per seed); returns the end-to-end metrics and details.

        Host-time metrics are in nominal-host seconds: each pass is scaled
        by the calibration loops measured beside it (``common.nominal``).
        """
        self.warm_up()
        passes = []
        t_start = time.perf_counter()
        while (len(passes) < len(self.seeds)
               or time.perf_counter() - t_start < seconds):
            seed = self.seeds[len(passes) % len(self.seeds)]
            passes.append(self.run_pass(seed))
        walls = [common.nominal(p.wall, p.cal) for p in passes]
        engine = [(common.nominal(sum(o.sim_wall_s for o in p.ok), p.cal), p)
                  for p in passes if p.ok]
        once = list(self._first.values())
        metrics = {
            "setup_s": common.median(self.setup_samples),
            "wall_s": common.median(walls),
            "wall_s_tail": common.tail(walls),
            "instr_per_s": common.median(
                sum(o.instructions for o in p.ok) / t for t, p in engine),
            "cycles_per_s": common.median(
                sum(o.cycles for o in p.ok) / t for t, p in engine),
            "sim_cycles": sum(o.cycles for o in once),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        detail = {
            "seeds": self.seeds,
            "raw": {
                "wall_s": common.median(p.wall for p in passes),
                "instr_per_s": common.median(
                    sum(o.instructions for o in p.ok)
                    / sum(o.sim_wall_s for o in p.ok) for _, p in engine),
            },
            "passes": len(passes),
            "pass_wall_s": [round(p.wall, 6) for p in passes],
            "pass_cal_s": [round(p.cal, 6) for p in passes],
            "wall_s_tail_rule": common.tail_rule(len(walls)),
            "counters": common.sum_counters(o.counters for o in once),
            "cells": self._cell_table(passes),
        }
        return metrics, detail

    def measure_traced(self, seconds, tracer):
        """Rounds of (untraced, traced) pass pairs, one pair per seed,
        until ``seconds`` have passed; per-layer metrics are per round,
        in raw host seconds."""
        self.warm_up()
        plain, traced = [], []
        rounds = 0
        t_start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - t_start < seconds:
            for seed in self.seeds:
                plain.append(self.run_pass(seed))
                tracer.install()
                try:
                    traced.append(self.run_pass(seed, tracer))
                finally:
                    tracer.uninstall()
            rounds += 1
        metrics = tracer.layer_metrics(units=rounds)
        metrics["trace.overhead_frac"] = (
            sum(p.wall for p in traced) / sum(p.wall for p in plain) - 1.0)
        metrics["sim.instructions"] = sum(
            o.instructions for p in traced for o in p.ok) / rounds
        metrics.update(common.sum_counters(
            o.counters for o in self._first.values()))
        detail = {
            "seeds": self.seeds,
            "rounds": rounds,
            "spans": tracer.spans,
            "step_calls_equal_instructions": (
                metrics["arch.warp.step.calls"] == metrics["sim.instructions"]),
        }
        return metrics, detail

    @staticmethod
    def _cell_table(passes):
        """Per cell: instructions, cycles and median engine seconds (raw
        host seconds)."""
        rows = {}
        for p in passes:
            for o in p.ok:
                row = rows.setdefault(
                    f"{o.cell.arch_name}/{o.cell.kernel}/{o.cell.seed}",
                    {"instructions": o.instructions, "cycles": o.cycles,
                     "sim_wall_s": []})
                row["sim_wall_s"].append(o.sim_wall_s)
        for row in rows.values():
            t = common.median(row.pop("sim_wall_s"))
            row["sim_wall_s_p50"] = round(t, 6)
            row["instr_per_s"] = round(row["instructions"] / t, 2)
        return rows
