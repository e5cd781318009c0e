#!/usr/bin/env python3
"""Write digests.json: the normalized report.json digest of every scenario job.

    python3 levibench/record_digests.py

Run once on the commit whose reports are the reference; ``cli.report_drift``
in a traced run counts the reports that differ from these digests.
"""

import json

import run


def main() -> int:
    wl = run.load_levicheck()
    digests = {}
    for workload, job_list in wl.jobs_for("full").items():
        for job in job_list:
            if job.config is None:
                continue
            outdir = run.OUT / "digests" / workload
            reason, _ = wl.run_job(job, 0, outdir, {})
            if reason is not None:
                raise SystemExit(f"{job.name}: {reason}")
            digests[job.name] = wl.normalized_digest(outdir / job.name / "report.json", 0)
    with open(run.BENCH_DIR / "digests.json", "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
