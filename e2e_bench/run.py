"""End-to-end benchmark of the Tensaurus reproduction, with a traced run.

Usage, from the repository root::

    python3 e2e_bench/run.py --workload fleet-steady --seed 1 --seconds 20 --trace 0

Runs whole passes of one workload (``fleet-steady``, ``fleet-faults``,
``cp-als`` or ``tune-search``) until ``--seconds`` is spent, with a fresh
set-up before each pass, and reports medians over passes. ``--trace 0``
times untraced passes and reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced passes: traced passes run with wrappers
around each layer's entry points (see layers.py) and yield the per-layer
metrics and a self-time table. Both modes check every pass: the
workload's digest and its virtual/simulated values must repeat exactly,
and the first pass gets the workload's own correctness checks. The last
line of output is one JSON object; the exit code is 1 on any failed check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from names import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SPAN_DIR = HERE / ".spans"
#: a run does at least this many passes, so digests can be compared
MIN_PASSES = 2
#: set-ups timed before each pass (the last one feeds the pass), so the
#: samples behind setup_s spread over the run like the passes do
SETUPS_PER_PASS = 4
#: set-up is repeated after the passes until this many samples exist;
#: setup_s is their median
SETUP_SAMPLES = 15

def cap_blas_threads() -> None:
    """At most one BLAS/OpenMP thread per usable core (before numpy loads)."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > int(cores):
            os.environ[var] = cores


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, str(ROOT_DIR / "src"))
    try:
        from layers import Probe, layer_table
        from spans import ROOT, SpanRecorder, current, installed
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    watched = Probe().entry_points
    originals = current(watched)
    workload.prepare(args.seed)

    errors = []
    setups, untraced, traced, pass_totals = [], [], [], []
    summaries = []
    layer_runs = []
    last_recorder = None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        tracing = bool(args.trace) and len(summaries) % 2 == 1
        for _ in range(SETUPS_PER_PASS):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        if tracing:
            probe, recorder = Probe(), SpanRecorder()
            with installed(recorder, probe.entry_points):
                with recorder.span(ROOT):
                    t0 = time.perf_counter()
                    result = workload.run(state)
                    host_s = time.perf_counter() - t0
            traced.append(host_s)
            layer_runs.append(probe.metrics(recorder.spans))
            last_recorder = recorder
        else:
            if any(a is not b for a, b in zip(current(watched), originals)):
                raise RuntimeError("an untraced pass found a wrapper installed")
            t0 = time.perf_counter()
            result = workload.run(state)
            host_s = time.perf_counter() - t0
            untraced.append(host_s)
        summary = workload.summarize(state, result)
        if not summaries:
            errors += workload.check(state, result)
        elif summary.digest != summaries[0].digest:
            errors.append(f"pass {len(summaries)}: digest differs from pass 0")
        elif summary.exact != summaries[0].exact:
            errors.append(f"pass {len(summaries)}: exact values differ")
        summaries.append(summary)
        pass_totals.append(SETUPS_PER_PASS * setups[-1] + host_s)
        if (
            len(summaries) >= MIN_PASSES
            and time.perf_counter() + statistics.median(pass_totals) > deadline
        ):
            break
        del state, result
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)

    first = summaries[0]
    attempted = sum(s.attempted for s in summaries)
    failed = sum(s.failed for s in summaries)
    pass_s = statistics.median(untraced)
    host_name, host_value = workload.host_metric(pass_s, first)
    named = {
        host_name: host_value,
        **first.exact,
        "failed_frac": first.failed / first.attempted,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(untraced)} untraced + {len(traced)} traced")
    print("  untraced pass host s: " + " ".join(f"{t:.3f}" for t in untraced))
    if traced:
        print("  traced pass host s:   " + " ".join(f"{t:.3f}" for t in traced))
    print(f"  digest {first.digest}")
    for key, value in named.items():
        unit = PER_LAYER[key] if key in PER_LAYER else END_TO_END[key]
        print(f"  {key:<18} {value:>14.6g} {unit}")

    if args.trace:
        layer = {
            key: statistics.median(run[key] for run in layer_runs)
            for key in layer_runs[0]
        }
        layer.update(first.layer)
        layer.update(named)
        layer["trace.overhead_frac"] = (
            statistics.median(traced) / pass_s - 1.0
        )
        metrics = {
            key: {"value": float(layer.get(key, 0.0)), "unit": unit}
            for key, unit in PER_LAYER.items()
        }
        for row in layer_table(layer):
            print("  " + row)
        print(f"  trace.overhead_frac {layer['trace.overhead_frac']:+.4f}")
        SPAN_DIR.mkdir(exist_ok=True)
        last_recorder.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss_mb,
            "goodput_frac": first.exact["goodput_frac"],
        }
        metrics = {
            key: {"value": float(values[key]), "unit": unit}
            for key, unit in END_TO_END.items()
        }
        for key in ("setup_s", "pass_s", "peak_rss_mb"):
            print(f"  {key:<18} {values[key]:>14.6g} {END_TO_END[key]}")

    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
