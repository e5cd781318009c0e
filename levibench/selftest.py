#!/usr/bin/env python3
"""Self-test of the benchmark at smoke sizes.

    python3 levibench/selftest.py

For every workload named in BENCHMARK.json, at the tiny scale:

- a ``--trace 0`` run prints exactly the end-to-end metrics, each with its
  unit, and no job fails;
- two ``--trace 1`` runs with different seeds print exactly the per-layer
  metrics, each with its unit, and their computed counts repeat exactly.

Then one pass with two injected wrong verdicts must count both as failed.
Exits 1 at the first check that does not hold.
"""

import json
import random
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
COMPUTED_UNITS = ("count", "B")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def bench_run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [
            sys.executable,
            str(run.BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
    )
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def check_metrics(workload: str, trace: int, expected: dict, result: dict, lines: list) -> None:
    where = f"{workload} --trace {trace}"
    check(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{where}: {result['failed']} jobs failed")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(got == expected, f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, unit in expected.items():
        printed = any(
            line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines
        )
        check(printed, f"{where}: {name} not printed with unit {unit}")


def check_injected_fault() -> None:
    wl = run.load_levicheck()
    job_list = wl.jobs_for("tiny")["disc-caps"]
    scenario = next(job for job in job_list if job.config is not None)
    library = next(job for job in job_list if job.kind is not None)
    scenario.expect_passed = not scenario.expect_passed
    key = next(iter(library.expect_counts))
    library.expect_counts[key] += 1
    _, failures, _ = run.run_pass(
        wl, job_list, random.Random(0), 0, run.OUT / "selftest-fault", wl.prepare(job_list)
    )
    share = len(failures) / len(job_list)
    check(len(failures) == 2, f"injected wrong verdicts gave failed_share {share}: {failures}")
    print(f"ok injected wrong verdicts: failed_share {share:.2f}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section, seeds in ((0, "end_to_end", (1,)), (1, "per_layer", (1, 2))):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            runs = [bench_run(workload, seed, trace) for seed in seeds]
            for result, lines in runs:
                check_metrics(workload, trace, expected, result, lines)
            counts = [
                {n: m["value"] for n, m in result["metrics"].items() if m["unit"] in COMPUTED_UNITS}
                for result, _ in runs
            ]
            check(
                all(c == counts[0] for c in counts),
                f"{workload}: computed counts differ across seeds {seeds}",
            )
        print(f"ok {workload}")
    check_injected_fault()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
