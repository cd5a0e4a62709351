"""Runs one workload for a fixed time and prints its metrics.

The load is a closed loop with a single caller: the next operation starts
when the previous one has returned, and no operation starts that would
not end within --seconds at the pace of the previous one (at least one
always runs).  With --trace 1 untraced and traced operations alternate;
the traced ones feed the per-layer metrics and the pair gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from .layers import LAYER_METRICS, layer_metrics, targets
from .stats import Tally, median, summarize
from .tracing import Instrumentation, SpanRecorder
from .workloads import WORKLOADS

SETUP_REPEATS = 3

# name -> unit; every workload reports all of them with --trace 0.  The
# median step is left to the record: this box's speed flips between two
# levels for seconds at a time, and the step median jumps with the mix.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="seed the workload's inputs are made from")
    p.add_argument("--seconds", type=float, required=True, help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def derive_seeds(seed):
    """Independent sub-seeds for data, optimizer, chain and checks."""
    data, fit, chain, check = np.random.SeedSequence(seed).generate_state(4) % (2**31)
    return {"data": int(data), "fit": int(fit), "chain": int(chain), "check": int(check)}


def _git_sha(root):
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _source_digest(root):
    h = hashlib.sha256()
    src = root / "src" / "epifield"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".csv")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root, seed):
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def measure(workload, seconds, trace, tally):
    """Closed loop of operations.

    Returns (untraced records, traced records, recorder, the wrap targets
    that no longer exist).  Failed operations leave no record.
    """
    rec = SpanRecorder() if trace else None
    plain, traced, missing = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        out = workload.operation(tally)
        if out is not None:
            plain.append(out)
        if trace:
            rec.run += 1
            with Instrumentation(targets(rec)) as inst:
                out = workload.operation(tally, rec)
            missing = inst.missing
            if out is not None:
                traced.append(out)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return plain, traced, rec, missing


def _collect(records, key):
    return [r[key] for r in records if key in r]


def run(argv, import_s, root):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    seeds = derive_seeds(args.seed)
    bench_dir = root / "bench"
    (bench_dir / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=bench_dir / "_work"))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(workdir, seeds)
            setup_times.append(time.perf_counter() - t)
        tally = Tally()
        workload.verify(tally)
        plain, traced, rec, missing = measure(workload, args.seconds, bool(args.trace), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print(f"no operation of {workload.name} succeeded: {tally.failures}", file=sys.stderr)
        return 1
    plain_s = _collect(plain, "op_s")
    steps = [s for r in plain for s in r["steps_ms"]]
    step = summarize(steps)
    setup_s = import_s + median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = {r["digest"] for r in plain + traced}
    record_metrics = {
        "setup_s": setup_s,
        "error_rate": tally.error_rate,
        "peak_rss_mb": peak_rss_mb,
    }
    for key in ("fit_s", "fit_h_default", "mcmc_draws_per_s", "param_rel_err", "crps_mean"):
        if _collect(plain, key):
            record_metrics[key] = median(_collect(plain, key))
    if "fit_s" in record_metrics:
        record_metrics.update(adam_iter_ms_p50=step["p50"], adam_iter_ms_p90=step["p90"])
    else:
        record_metrics["pipeline_s"] = median(plain_s)
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "provenance": provenance(root, args.seed),
        "operations": {"untraced": len(plain), "traced": len(traced)},
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "steps": step,
        "metrics": record_metrics,
        "output_digest": hashlib.sha256(sorted(digests)[0].encode()).hexdigest()[:16],
        "output_digest_stable": len(digests) == 1,
        "failures": tally.failures,
    }

    if args.trace:
        overhead = median(_collect(traced, "op_s")) / median(plain_s) - 1.0
        values, layer_sum_frac = layer_metrics(rec, len(traced), overhead)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()}
        record["layer_sum_frac"] = layer_sum_frac
        record["untraced_boundaries"] = missing
        out_dir = bench_dir / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        rec.write(spans_path)
        record["spans"] = {"count": len(rec.spans), "path": str(spans_path.relative_to(root))}
    else:
        values = {
            "setup_s": setup_s,
            "op_s": median(plain_s),
            "step_ms_p90": step["p90"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
