"""Record the outputs the benchmark checks against into ``expected.json``.

    python3 perfbench/record_expected.py

Run from the root of a checkout, only after a change that is meant to
alter simulated results (say why in CHANGES.md).  Records, for every
kernel, the warp-instruction count every architecture must retire, and
the output digest of each deterministic architecture (DAB, GPUDet),
which must not depend on the jitter seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import store  # noqa: E402
import titan  # noqa: E402


def record_titan():
    instructions, digests = {}, {}
    for workload in ("dab_titan", "base_titan"):
        for cell in titan.cells(workload, seed=1):
            wl, gpu = cell.build()
            out = titan.Outcome(cell, wl, gpu, wl.drive(gpu))
            if instructions.setdefault(cell.kernel,
                                       out.instructions) != out.instructions:
                raise SystemExit(f"{cell.kernel}: architectures retire "
                                 f"different instruction counts")
            if cell.arch_name != "baseline":
                digests.setdefault(cell.arch_name, {})[cell.kernel] = out.digest
    return {"instructions": instructions, "output_digest": digests}


def record_campaign_store():
    from repro.harness.sweep import _execute_spec

    jobs = {}
    for camp in store.load_campaigns(seed=1):
        for fig in camp.figures:
            for job in fig.jobs:
                result = _execute_spec(job.spec)
                entry = {"instructions": int(result.instructions)}
                if job.spec.arch.kind != "baseline":
                    entry["output_digest"] = result.extra["output_digest"]
                jobs[f"{camp.name}/{fig.name}/{job.workload}/{job.arch}"] = entry
    return {"jobs": jobs}


def main():
    doc = {"titan": record_titan(), "campaign_store": record_campaign_store()}
    (HERE / "expected.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
