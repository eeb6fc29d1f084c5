"""Benchmark runner for the weinstein stack.

    python3 perfbench/run.py --workload {battery,analysis,operators} \
        --seed N --seconds S --trace {0,1} [--profile {default,tiny}]

Runs from the root of a checkout and imports ``weinstein`` from its
``src``.  One process runs one workload as a closed loop with one client:
set-up (repeated, median reported), an untimed warm-up item where the
workload asks for one, then items until ``--seconds`` have passed and the
workload's minimum item count (at least one full round of its item mix)
is done.  With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
times one set-up and one round untraced, then the same set-up and round
traced, and prints per-layer metrics and the tracing overhead.  The last
line of standard output is the JSON result; the lines before it give the
metrics by name and unit, the check tally and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: untraced set-ups per run; the first also absorbs process warm-up
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("battery", "analysis", "operators"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("default", "tiny"), default="default",
                    help="problem sizes; 'tiny' is for the smoke test only")
    return ap.parse_args(argv)


def _environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _round(workload):
    """Run one round of items; returns (seconds, attempted, failed)."""
    t0 = time.perf_counter()
    attempted = failed = 0
    for i in range(workload.round_items):
        a, f = _safe_item(workload, i)
        attempted += a
        failed += f
    return time.perf_counter() - t0, attempted, failed


def _safe_item(workload, i):
    """An item that raises counts as one attempted, failed check."""
    try:
        return workload.item(i)
    except Exception as e:  # noqa: BLE001 - a failed item is a measured outcome
        print(f"item {i} raised {type(e).__name__}: {e}", file=sys.stderr)
        return 1, 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(workload):
    """Untimed first item: the first call of a process runs slower (BLAS
    threads, allocator thresholds); returns (attempted, failed)."""
    return _safe_item(workload, 0) if workload.warm_up else (0, 0)


def run_untraced(workload, seconds: float):
    setups = [_timed(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    latencies = []
    attempted, failed = _warm_up(workload)
    t0 = time.perf_counter()
    while len(latencies) < workload.min_items or time.perf_counter() - t0 < seconds:
        dt, (a, f) = _timed(_safe_item, workload, len(latencies))
        latencies.append(dt)
        attempted += a
        failed += f
    elapsed = time.perf_counter() - t0
    r = workload.round_items
    rounds = [sum(latencies[k:k + r]) for k in range(0, len(latencies) - r + 1, r)]
    metrics = {
        "wall_s": (statistics.median(rounds), "s"),
        "items_per_s": (len(latencies) / elapsed, "1/s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = {"items": len(latencies), "setup_samples": [round(s, 4) for s in setups],
             "item_samples": [round(s, 4) for s in latencies]}
    return metrics, attempted, failed, notes


def run_traced(workload, trace_path: Path):
    from perfbench.tracing import Tracer, layer_metrics
    workload.setup()                       # cold: imports, BLAS start-up
    s0, _ = _timed(workload.setup)
    aw, fw = _warm_up(workload)
    r0, a0, f0 = _round(workload)
    tracer = Tracer()
    tracer.install()
    try:
        s1, _ = _timed(workload.setup)
        r1, a1, f1 = _round(workload)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer.summary(), (s1 - s0) + (r1 - r0))
    notes = {"untraced_s": round(s0 + r0, 4), "traced_s": round(s1 + r1, 4),
             "spans_file": str(trace_path.relative_to(ROOT))}
    return metrics, aw + a0 + a1, fw + f0 + f1, notes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "weinstein" / "__init__.py").is_file():
        print(f"no weinstein sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # must precede the first numpy import: OpenBLAS reads it when loaded
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path[:0] = [str(src), str(ROOT)]
    import weinstein
    if Path(weinstein.__file__).resolve().parent != (src / "weinstein").resolve():
        print(f"imported weinstein from {weinstein.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    out_root = ROOT / ".perfbench_out"
    work_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.profile, args.seed, work_dir)
    try:
        if args.trace:
            trace_path = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, notes = run_traced(workload, trace_path)
        else:
            metrics, attempted, failed, notes = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if getattr(workload, "report_sha256", None):
        notes["report_rows"] = workload.rows
        notes["report_sha256"] = workload.report_sha256
    notes["process_s"] = round(time.perf_counter() - t_start, 3)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} failed / {attempted} checks)")
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, "profile": args.profile, **notes}))
    print("env " + json.dumps(_environment(nproc)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
