"""Benchmark for the ditto package: three workloads, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload ladder_train --seed 0 --seconds 50 --trace 0

`--trace 0` times whole passes of the workload and prints the end-to-end
metrics; `--trace 1` times untraced passes for half the budget and traced
passes for the other half, and prints the per-layer metrics.  The last line
of standard output is one JSON object: {correct, attempted, failed,
metrics}.  The line before it carries provenance, output digests and
per-pass times; the same record is written under `.bench_out/`.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"  # result records and raw spans, kept after the run

# set-up samples per untraced run, spread over its measuring window;
# setup_s is their median
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 150


def load_ditto():
    """Import ditto from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ditto" / "__init__.py").is_file():
        raise SystemExit(f"error: no ditto package under {src}")
    sys.path.insert(0, str(src))
    import ditto

    if Path(ditto.__file__).resolve().parent != (src / "ditto").resolve():
        raise SystemExit(f"error: imported ditto from {ditto.__file__}, not {src}")
    return ditto


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


def run_passes(workload, seconds: float, warmup: int, tracer=None, between=None):
    """Whole passes until the budget is spent (at least one).  A pass is
    started only if the mean pass so far says it ends within the budget.
    With a tracer, only `execute` is traced, never the output checks.
    `between(elapsed)` is called before each pass, untimed but within the budget."""
    for _ in range(warmup):
        workload.verify(workload.execute())
    walls, results = [], []
    began = time.perf_counter()
    while True:
        if between is not None:
            between(time.perf_counter() - began)
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            outputs = workload.execute()
            walls.append(time.perf_counter() - t0)
        results.append(workload.verify(outputs))
        spent = time.perf_counter() - began
        if spent + statistics.fmean(walls) > seconds:
            return walls, results


def setup_sample(args) -> float:
    """Wall time of a fresh process that starts, imports and sets up only.

    `Popen.wait()` without a timeout blocks in waitpid, so the sample is not
    rounded to subprocess's 50 ms polling step; a timer kills a hung child."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise SystemExit(f"error: set-up process exited with {code}")
    return time.perf_counter() - t0


def untraced_run(workload, args, record):
    """End-to-end metrics from timed passes.  Set-up samples are taken
    between passes, one whenever the next is due on an even spacing over the
    budget, and the rest after the last pass: a slow spell of the host then
    touches a few samples, not all of them."""
    setup = []

    def sample_when_due(elapsed: float) -> None:
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(setup_sample(args))

    walls, results = run_passes(workload, args.seconds, workload.warmup,
                                between=sample_when_due)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))
    record.update(setup_s_samples=setup, pass_s=walls)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, results


def traced_run(workload, args, record):
    """Per-layer metrics: untraced passes for half the budget, then traced ones."""
    from tracer import Tracer, layer_metrics

    walls, results = run_passes(workload, args.seconds / 2, workload.warmup)
    tracer = Tracer()
    traced_walls, traced = run_passes(workload, args.seconds / 2, 0, tracer)
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    record.update(pass_s=walls, traced_pass_s=traced_walls)

    metrics = layer_metrics(tracer.spans(), tracer.counts, len(traced))
    wall = statistics.median(walls)
    gains = [r.gain_pp for r in results if r.gain_pp is not None]
    metrics.update({
        "trace_overhead_frac": statistics.median(traced_walls) / wall - 1.0,
        "steps_per_s": results[0].steps / wall,
        "ditto_gain_pp": gains[0] if gains else 0.0,
        "experiment.runs_attempted": statistics.fmean(r.runs for r in traced),
        "experiment.runs_failed": statistics.fmean(r.failed if r.runs else 0 for r in traced),
    })
    return metrics, results + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder_train", "grid_runall", "ladder_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (setup_s sample)")
    args = parser.parse_args(argv)

    # one process, one BLAS thread: the numbers measure the program, not the
    # scheduler; must be set before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    load_ditto()
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        if args.setup_only:
            return 0
        record = {"workload": args.workload, "trace": args.trace,
                  "provenance": provenance(args.seed)}
        OUT.mkdir(exist_ok=True)
        if args.trace:
            metrics, results = traced_run(workload, args, record)
        else:
            metrics, results = untraced_run(workload, args, record)
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        if args.trace:
            metrics["failed_frac"] = failed / attempted
        else:
            metrics["ok_frac"] = 1.0 - failed / attempted

        digests = sorted({r.digest for r in results})
        errors = [e for r in results for e in r.errors]
        if len(digests) != 1:
            errors.append(f"passes disagree on the output digest: {digests}")
        record.update(digests=digests, errors=errors[:20],
                      ditto_gain_pp=next((r.gain_pp for r in results
                                          if r.gain_pp is not None), None))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in sorted(metrics)},
        }
        record["result"] = result
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n")
        print(json.dumps({k: v for k, v in record.items() if k != "result"}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
