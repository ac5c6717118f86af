"""Seeded end-to-end and per-layer benchmark for prolim.

    python3 perfbench/run.py --workload cycle-rank --seed 1 --seconds 50 --trace 0

Runs one workload in one process as a closed loop with one client.  An
operation is one `prolim.cli.main([...])` call with stdout captured (for
split-lab, one coset topology through the splitting verifier), so it covers
JSON document to canonical report.  Whole passes over the workload's fixed
mix, each in its own seeded order, repeat until the next one would end more
than half a pass past --seconds of wall time.  Outputs are checked after
each pass, outside the timed region.

The host's speed can switch between levels about 1.5x apart for seconds to
minutes at a time, so each operation's latency is its fastest over the
passes: an operation counts as slow only if every one of its runs met a
slow spell.  ops_per_s, op_ms_p50 and op_ms_p90 are taken over these
per-operation latencies.

--trace 0 prints the end-to-end metrics.  --trace 1 times one untraced and
one traced pass, and fresh `python -m prolim.cli` starts, and prints the
per-layer metrics; the spans are written to .bench_out/.  The last line of
stdout is the result object; the line before it names the kernel module
that ran.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 9
COLD_STARTS = 9
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT_S = 60


def setup(workload, workdir):
    """Import prolim afresh and write the inputs; returns the seconds taken.

    Each repetition writes into a new directory: rewriting the files of an
    earlier one truncates them, which on ext4 forces erratic flushes.
    """
    os.makedirs(workdir)
    gc.collect()
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n.split(".")[0] == "prolim"]:
        del sys.modules[name]
    importlib.import_module("prolim.cli")
    workload.prepare(workdir)
    return time.perf_counter() - t0


def run_pass(ops, latencies, tracer=None):
    """Time every op once; records {key: seconds} in latencies and returns
    the pass outputs {key: (rc, stdout)}."""
    outputs = {}
    op_span = tracer.name_id("op") if tracer else None
    for op_id, (key, fn) in enumerate(ops):
        if tracer:
            tracer.op_id = op_id
            span = tracer.open(op_span)
        t0 = time.perf_counter()
        result = fn()
        latencies[key] = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        outputs[key] = result
    return outputs


def measure(workload, seconds, between_passes):
    """Whole passes until the next would end more than half a pass past
    --seconds of wall time, checks included.  between_passes(elapsed) runs
    after each pass and may set the workload up again.

    Returns each op's fastest latency over the passes {key: seconds}, and
    the ops attempted and failed.
    """
    best = {}
    attempted = failed = 0
    order = random.Random(f"{workload.name}/{workload.seed}/passes")
    start = time.perf_counter()
    last = 0.0
    while not attempted or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        ops = list(workload.ops)
        order.shuffle(ops)
        latencies = {}
        outputs = run_pass(ops, latencies)
        attempted += len(ops)
        failed += len(workload.failures(outputs))
        for key, dt in latencies.items():
            best[key] = min(dt, best.get(key, dt))
        between_passes(time.perf_counter() - start)
        last = time.perf_counter() - t0
    return best, attempted, failed


def cli_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv):
    return subprocess.run(
        argv, cwd=ROOT, env=cli_env(), capture_output=True, timeout=SUBPROCESS_TIMEOUT_S
    )


def cold_starts(workload):
    """Median wall ms of fresh `python -m prolim.cli` runs, one at a time,
    and whether each printed what the in-process call prints."""
    argv = [sys.executable, "-m", "prolim.cli", *workload.cold_argv]
    rc, expected = workloads.run_cli(workload.cold_argv)
    ok = rc == 0 and workload.cold_ok(expected)
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = run_subprocess(argv)
        times.append((time.perf_counter() - t0) * 1000)
        ok = ok and proc.returncode == 0 and proc.stdout == expected
    return statistics.median(times), ok


def import_split(workload):
    """Median (prolim ms, sympy ms) from `python -X importtime` cold runs."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = run_subprocess(
            [sys.executable, "-X", "importtime", "-m", "prolim.cli", *workload.cold_argv]
        )
        runs.append(tracing.import_times(proc.stderr.decode()))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, seconds, workdir, first_setup_s):
    """The set-ups after the first are spread over the run between passes,
    so that their median, like the op latencies, does not hang on the
    machine's speed in one second."""
    setups = [first_setup_s]

    def resetup():
        setups.append(setup(workload, os.path.join(workdir, str(len(setups)))))

    def between_passes(elapsed):
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            resetup()

    best, attempted, failed = measure(workload, seconds, between_passes)
    while len(setups) < SETUP_REPEATS:
        resetup()
    problems = workload.extra_failures()
    latencies = list(best.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms_p90": (percentile(latencies, 90) * 1000, "ms"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, problems, metrics


def per_layer(workload, out_dir):
    untraced = {}
    outputs = run_pass(workload.ops, untraced)
    failed = len(workload.failures(outputs))
    tracer = tracing.Tracer()
    layers = {
        layer: sys.modules["prolim._backend"].kernel
        if layer == "kernel"
        else sys.modules[f"prolim.{layer}"]
        for layer in tracing.LAYERS
    }
    traced = {}
    undo = tracing.install(tracer, layers)
    try:
        traced_outputs = run_pass(workload.ops, traced, tracer)
    finally:
        tracing.uninstall(undo)
    failed += sum(traced_outputs[k] != v for k, v in outputs.items())
    ops = len(workload.ops)
    metrics = tracing.layer_metrics(tracer, ops)
    cold_ms, cold_ok = cold_starts(workload)
    prolim_ms, sympy_ms = import_split(workload)
    metrics["cli_cold_ms"] = (cold_ms, "ms")
    metrics["cli.import_prolim_ms"] = (prolim_ms, "ms")
    metrics["cli.import_sympy_ms"] = (sympy_ms, "ms")
    metrics["trace.untraced_ops_per_s"] = (ops / sum(untraced.values()), "ops/s")
    metrics["trace.traced_ops_per_s"] = (ops / sum(traced.values()), "ops/s")
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}"))
    problems = workload.extra_failures() + ([] if cold_ok else ["cold-start output differs"])
    return 2 * ops, failed, problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "prolim", "__init__.py")):
        print(f"error: no prolim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    first_setup_s = setup(workload, os.path.join(workdir, "0"))
    for _key, fn in workload.warmup:
        fn()

    if args.trace:
        attempted, failed, problems, metrics = per_layer(workload, out_dir)
    else:
        attempted, failed, problems, metrics = end_to_end(
            workload, args.seconds, workdir, first_setup_s
        )
    # delete the inputs now, so the next run's set-up does not wait on this
    # run's file deletions
    shutil.rmtree(workdir)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    prolim = sys.modules["prolim"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": prolim.BACKEND,
        "kernel_module": sys.modules["prolim._backend"].kernel.__name__,
        "ops_per_pass": len(workload.ops),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, **result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
