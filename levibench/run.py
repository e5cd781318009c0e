#!/usr/bin/env python3
"""levicheck benchmark: run one workload and print its metrics.

    python3 levibench/run.py --workload grid3 --seed 1 --seconds 25 --trace 0

Run from the root of a levicheck checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One process runs one
workload as a closed loop: one job at a time, passes over the workload's
jobs repeat until ``--seconds`` have passed (at least one pass), and the
seed fixes the job order of every pass.  Each job's verdict is checked;
a job that fails or raises is counted and the pass goes on.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import levicheck and fill its lazy caches), ``wall_s``
(median pass time, tracing off) and ``peak_rss_mb`` (this process).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py``, including the tracing overhead; the
spans go to ``levibench/_out/spans-<workload>-seed<n>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread: levicheck's numerics barely touch BLAS, and idle BLAS
# threads spinning on a 2-core machine only add noise.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
WORKLOADS = ("grid3", "disc-caps", "cantor-measure")
SETUP_SPAWNS = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import levicheck, workloads; workloads.fill_lazy_caches()"
)


class CheckoutError(Exception):
    """The working tree holds no levicheck sources to benchmark."""


def require_sources() -> None:
    if not (SRC / "levicheck" / "cli.py").is_file():
        raise CheckoutError(f"no levicheck sources under {SRC}")


def load_levicheck():
    """Import levicheck from this checkout's src/; returns the workload module."""
    require_sources()
    package = SRC / "levicheck"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import levicheck

    if Path(levicheck.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"levicheck imported from {levicheck.__file__}, not {package}")
    import workloads

    workloads.fill_lazy_caches()
    return workloads


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median wall time of a fresh interpreter's import and lazy set-up."""
    times = []
    for _ in range(spawns):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)], check=True
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_pass(wl, job_list, rng, seed, outdir, inputs, tracer=None, digests=None):
    """One pass over the jobs in seeded order; returns (wall_s, failures, drift)."""
    failures = []
    drift = 0
    order = list(job_list)
    rng.shuffle(order)
    start = perf_counter()
    for job in order:
        span = tracer.job_span(job.name) if tracer else nullcontext()
        with span:
            try:
                reason, drifted = wl.run_job(job, seed, outdir, inputs, digests)
            except Exception as exc:  # a raising job is a failed job; the pass goes on
                reason, drifted = f"{type(exc).__name__}: {exc}", None
        if reason is not None:
            failures.append(f"{job.name}: {reason}")
        drift += bool(drifted)
    return perf_counter() - start, failures, drift


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _median(values):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(workload, seed, seconds, trace, scale="full"):
    """Run the workload; returns (result dict, human-readable lines)."""
    require_sources()
    setup_s = None if trace else measure_setup()
    wl = load_levicheck()
    job_list = wl.jobs_for(scale)[workload]
    inputs = wl.prepare(job_list)
    outdir = OUT / (workload if scale == "full" else f"{scale}-{workload}")
    rng = random.Random(seed)
    failures = []
    attempted = 0
    walls = []
    lines = []

    if not trace:
        deadline = perf_counter() + seconds
        while True:
            wall, failed, _ = run_pass(wl, job_list, rng, seed, outdir, inputs)
            walls.append(wall)
            failures += failed
            attempted += len(job_list)
            if perf_counter() >= deadline:
                break
        q1, q3 = _quartiles(walls)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        lines.append(
            f"{workload}: wall_s median {metrics['wall_s']['value']:.4f} s, "
            f"q1 {q1:.4f} s, q3 {q3:.4f} s, n = {len(walls)} passes of {len(job_list)} jobs"
        )
        lines.append(
            f"{workload}: setup_s {setup_s:.4f} s (median of {SETUP_SPAWNS} interpreters), "
            f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB"
        )
    else:
        from tracing import Tracer, per_layer_metrics

        tracer = Tracer()
        digests = None
        if scale == "full":
            digests = json.loads((BENCH_DIR / "digests.json").read_text())
        traced_walls = []
        per_pass = []
        chunks = []
        deadline = perf_counter() + seconds
        while True:
            wall, failed, _ = run_pass(wl, job_list, rng, seed, outdir, inputs)
            walls.append(wall)
            failures += failed
            tracer.clear()
            with tracer.installed([wl]):
                wall, failed, drift = run_pass(
                    wl, job_list, rng, seed, outdir, inputs, tracer, digests
                )
            traced_walls.append(wall)
            failures += failed
            attempted += 2 * len(job_list)
            layer = tracer.pass_metrics()
            layer["cli.jobs_failed"] = len(failed)
            layer["cli.report_drift"] = drift
            per_pass.append(layer)
            chunks.append(tracer.arrays())
            if perf_counter() >= deadline:
                break
        values = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]}
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.traced_wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()
        }
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{outdir.name}-seed{seed}.npz"
        tracer.write(spans_path, chunks)
        lines.append(
            f"{workload}: {len(traced_walls)} traced and {len(walls)} untraced passes, "
            f"tracing overhead {values['trace.overhead_s']:.4f} s per pass, spans in {spans_path}"
        )

    failed = len(failures)
    lines += [f"failed job ({failures.count(f)}x): {f}" for f in dict.fromkeys(failures)]
    lines.append(f"{workload}: failed_share {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: self-test smoke sizes"
    )
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
