"""``campaign_store``: ``repro campaign run`` plus ``repro report`` on the
default stores (result cache on, run db on, no journal).

The three pinned quick campaigns under ``campaigns/`` (36 jobs at the
``small`` preset, 4 SMs) first run cold into a fresh cache and run db:
30 jobs simulate, 6 are cache hits on cells an earlier figure already
ran, and every store is written.  Then warm passes repeat back to back
until the run's seconds are used (a closed loop with one client).  A
warm pass is what a user re-running the campaigns does: three
``campaign run`` calls, each opening the db, reading every job from the
cache and appending its row, then one ``render_report``.  Each warm pass
starts from a copy of the cold db, so every pass appends to and renders
the same 36 rows whatever the host speed.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
CAMPAIGNS = ("fig10_quick", "fig12_capacity", "fig13_fusion")
JOBS = 36
#: Warm passes in an untraced run at least, so the tail has samples.
MIN_WARM = 2 * common.TAIL_BEYOND + 1
#: Warm passes in each section of a traced run.
TRACED_WARM = 10
SETUP_REPEATS = 10


def load_campaigns(seed):
    """Parse the pinned campaign files with their seeds set to ``seed``."""
    import yaml
    from repro.campaign.spec import parse_campaign

    camps = []
    for name in CAMPAIGNS:
        doc = yaml.safe_load((HERE / "campaigns" / f"{name}.yaml")
                             .read_text(encoding="utf-8"))
        doc["defaults"]["seeds"] = [seed]
        if any("seeds" in fig for fig in doc["figures"]):
            raise ValueError(f"{name}: a figure overrides the seed list")
        camps.append(parse_campaign(doc, name_hint=name))
    if sum(c.total_jobs for c in camps) != JOBS:
        raise ValueError("pinned campaigns no longer hold 36 jobs")
    return camps


@contextmanager
def _measurement_hooks(run):
    """Two hooks the benchmark puts on the store path for one run.

    * Run dbs open with ``PRAGMA synchronous = OFF``.  The program
      fsyncs each appended row; on a shared host fsync latency swings by
      half within minutes and would drown the code's own cost, so the
      benchmark measures the store code, not the disk.
    * A calibration loop follows every simulated job, so cold-pass
      engine time is scaled job by job (``common.nominal``).
    """
    from repro.campaign.rundb import RunDB
    from repro.harness import sweep

    init, execute = RunDB.__init__, sweep._execute_spec

    def unsynced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._conn.execute("PRAGMA synchronous = OFF")

    def calibrated_execute(spec, obs=None):
        result = execute(spec, obs)
        run.job_cal.append(common.calibrate(run.cal_samples))
        return result

    RunDB.__init__ = unsynced_init
    sweep._execute_spec = calibrated_execute
    try:
        yield
    finally:
        RunDB.__init__ = init
        sweep._execute_spec = execute


def _strip_provenance(doc):
    """A metrics doc without the cache-hit flag a replay adds."""
    extra = dict(doc.get("extra", {}))
    extra.pop("cache_hit", None)
    return json.dumps({**doc, "extra": extra}, sort_keys=True,
                      separators=(",", ":"))


class StoreRun:
    def __init__(self, seed, expected, work):
        self.seed = common.jitter_seeds(seed)[0]
        self.expected = expected
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_samples = []   # nominal-host seconds
        self.cal_samples = []     # every calibration loop of the run
        self.job_cal = []         # loops after the cold pass's jobs
        self.camps = None
        self._html = None

    # -- phases ----------------------------------------------------------
    def set_up(self):
        """Load the specs, hash the code and open a db, several times."""
        from repro.campaign.rundb import RunDB
        from repro.harness.sweep import code_fingerprint

        path = self.work / "setup.db"
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            camps = load_campaigns(self.seed)
            code_fingerprint.cache_clear()
            code_fingerprint()
            RunDB(path).close()
            setup = time.perf_counter() - t0
            path.unlink()
            cal = common.calibrate(self.cal_samples)
            self.setup_samples.append(common.nominal(setup, cal))
        self.camps = camps

    def warm_up(self, section):
        """One small job and one report render before any timing."""
        from repro.campaign import html
        from repro.campaign.rundb import RunDB
        from repro.harness.sweep import _execute_spec

        _execute_spec(self.camps[0].figures[0].jobs[0].spec)
        with RunDB(section / "warmup.db") as db:
            html.render_report(db)

    def cold_pass(self, section):
        """Returns the pass's seconds without the calibration loops that
        followed its jobs (those are left in ``self.job_cal``)."""
        from repro.campaign.runner import run_campaign

        gc.collect()
        self.job_cal = []
        t0 = time.perf_counter()
        for camp in self.camps:
            run_campaign(camp, db_path=section / "cold.db", jobs=1,
                         cache=True, cache_dir=str(section / "cache"))
        return time.perf_counter() - t0 - sum(self.job_cal)

    def warm_pass(self, section):
        """Returns (replay seconds, report seconds, calibration loop)."""
        from repro.campaign import html
        from repro.campaign.rundb import RunDB
        from repro.campaign.runner import run_campaign

        db_path = section / "warm.db"
        shutil.copyfile(section / "cold.db", db_path)
        gc.collect()
        t0 = time.perf_counter()
        for camp in self.camps:
            run_campaign(camp, db_path=db_path, jobs=1, cache=True,
                         cache_dir=str(section / "cache"))
        t1 = time.perf_counter()
        with RunDB(db_path) as db:
            page = html.render_report(db)
        t2 = time.perf_counter()
        cal = common.calibrate(self.cal_samples)
        self._check_warm(section, page)
        return t1 - t0, t2 - t1, cal

    # -- output checks -------------------------------------------------
    def _rows(self, path):
        from repro.campaign.rundb import RunDB

        with RunDB(path) as db:
            return db.runs()

    def _fail(self, what, why):
        self.failed += 1
        self.errors.append(f"{what}: {why}")

    def check_cold(self, section):
        """Every job recorded, retiring the recorded instruction count,
        deterministic archs giving the recorded output digest."""
        rows = self._rows(section / "cold.db")
        self.attempted += JOBS
        if len(rows) != JOBS:
            self._fail("cold pass", f"{len(rows)} rows, expected {JOBS}")
        for row in rows:
            key = f"{row.campaign}/{row.figure}/{row.workload}/{row.arch}"
            want = self.expected["jobs"].get(key)
            if want is None:
                self._fail(key, "no recorded job of this name")
            elif row.quarantined:
                self._fail(key, "quarantined")
            elif row.instructions != want["instructions"]:
                self._fail(key, f"retired {row.instructions} "
                                f"warp-instructions, expected "
                                f"{want['instructions']}")
            elif ("output_digest" in want
                  and row.output_digest != want["output_digest"]):
                self._fail(key, "output digest differs from the recorded one")
        return rows

    def _check_warm(self, section, page):
        rows = self._rows(section / "warm.db")
        self.attempted += JOBS + 1
        cold, warm = rows[:JOBS], rows[JOBS:]
        if len(warm) != JOBS:
            self._fail("warm pass", f"{len(warm)} rows appended, "
                                    f"expected {JOBS}")
        for c, w in zip(cold, warm):
            if not w.cache_hit or (_strip_provenance(w.metrics)
                                   != _strip_provenance(c.metrics)):
                self._fail(f"{w.campaign}/{w.figure}/{w.workload}/{w.arch}",
                           "warm metrics doc differs from the cold one")
        if self._html is None:
            self._html = page
        elif page != self._html:
            self._fail("report", "render differs between warm passes")

    # -- the run ---------------------------------------------------------
    def _section(self, name):
        path = self.work / name
        path.mkdir()
        return path

    def measure(self, seconds):
        """Cold pass, then warm passes until ``seconds`` have passed.

        Host-time metrics are in nominal-host seconds: each pass is scaled
        by the calibration loops measured beside it (``common.nominal``).
        """
        with _measurement_hooks(self):
            self.set_up()
            section = self._section("run")
            self.warm_up(section)
            t_start = time.perf_counter()
            cold_s = self.cold_pass(section)
            rows = self.check_cold(section)
            warm = []
            while (len(warm) < MIN_WARM
                   or time.perf_counter() - t_start < seconds):
                warm.append(self.warm_pass(section))
        passes = [common.nominal(r + p, c) for r, p, c in warm]
        replay = [common.nominal(r, c) for r, _, c in warm]
        sims = [row for row in rows if not row.cache_hit]
        if len(sims) != len(self.job_cal):
            raise RuntimeError("simulated rows and jobs run do not match")
        engine = [row.metrics["host_profile"]["sim_wall_s"] for row in sims]
        nominal_engine = sum(common.nominal(t, c)
                             for t, c in zip(engine, self.job_cal))
        metrics = {
            "setup_s": common.median(self.setup_samples),
            "wall_s": common.median(passes),
            "wall_s_tail": common.tail(passes),
            "instr_per_s": sum(row.instructions for row in sims)
            / nominal_engine,
            "cycles_per_s": sum(row.cycles for row in sims) / nominal_engine,
            "sim_cycles": sum(row.cycles for row in sims),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        detail = {
            "seed": self.seed,
            "raw": {
                "wall_s": common.median(r + p for r, p, _ in warm),
                "instr_per_s": (sum(row.instructions for row in sims)
                                / sum(engine)),
            },
            "jobs": JOBS,
            "jobs_simulated": len(sims),
            "cold_campaign_s": common.nominal(
                cold_s, common.median(self.job_cal)),
            "replay_s_p50": common.median(replay),
            "replay_s_tail": common.tail(replay),
            "replay_samples": len(replay),
            "replay_s_tail_rule": common.tail_rule(len(replay)),
            "report_s": common.median(common.nominal(p, c)
                                      for _, p, c in warm),
            "counters": self._counters(sims),
        }
        return metrics, detail

    def measure_traced(self, seconds, tracer):
        """An untraced section, then the same section traced: a cold pass
        and ``TRACED_WARM`` warm passes each (fixed work, so per-layer
        totals compare across runs; ``seconds`` is not used).  Per-layer
        metrics are in raw host seconds."""
        def section(name, tracer=None):
            path = self._section(name)
            wall = self.cold_pass(path)
            rows = self.check_cold(path)
            for k in range(TRACED_WARM):
                if tracer is not None:
                    tracer.cell_id = k + 1
                replay, report, _ = self.warm_pass(path)
                wall += replay + report
            return wall, rows

        with _measurement_hooks(self):
            self.set_up()
            self.warm_up(self._section("warmup"))
            plain_wall, rows = section("plain")
            tracer.install()
            try:
                traced_wall, _ = section("traced", tracer)
            finally:
                tracer.uninstall()
        metrics = tracer.layer_metrics(units=1)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        sims = [row for row in rows if not row.cache_hit]
        metrics["sim.instructions"] = sum(row.instructions for row in sims)
        metrics.update(self._counters(sims))
        detail = {
            "seed": self.seed,
            "traced_warm_passes": TRACED_WARM,
            "spans": tracer.spans,
            "step_calls_equal_instructions": (
                metrics["arch.warp.step.calls"] == metrics["sim.instructions"]),
        }
        return metrics, detail

    @staticmethod
    def _counters(rows):
        return common.sum_counters(common.sim_counters(row.metrics)
                                   for row in rows)
