"""Paired end-to-end benchmark of two commits, written to BENCH_<tag>.json.

    python3 benchmarks/bench.py --base 6b05e9c --tag kernel-constants \\
        --pairs 3 --seconds 20 --workload cycle-rank --workload fixtures-cli

Exports the base commit and HEAD (the head side) with
`git archive` into fresh directories and runs `perfbench/run.py --trace 0`
from each export, with PYTHONDONTWRITEBYTECODE=1: `setup_s` includes
compiling the package, so it depends on which `.pyc` files lie on disk,
and a fresh export without bytecode is the same start for both sides.
Each export runs its own copy of the benchmark.  For every workload and
seed the two sides run in N pairs, alternating which side goes first, so
a slow spell of the host does not fall on one side only.

The file records the machine, the Python version, both commits, the
seeds, the run length, every raw run, and per workload and seed the
median and quartiles of each end-to-end metric per side, plus how many
pairs the head won on it (ties count for neither side).  The metric
names and their better direction come from the head's BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit, dest):
    """Write the tree of `commit` into the new directory `dest`."""
    proc = subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if proc.wait():
        raise RuntimeError(f"git archive {commit} failed")


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or the machine type."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_once(checkout, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run; returns its result object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    """(q1, median, q3) of the values, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, metrics):
    """Per workload and seed: each side's median and quartiles of every
    metric, and the pairs the head won on it.

    `runs` are raw run records with workload, seed, pair, side and metrics;
    `metrics` maps a metric name to "higher" or "lower" (which is better).
    """
    groups = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for key, pairs in sorted(groups.items()):
        complete = [p for _i, p in sorted(pairs.items()) if all(s in p for s in SIDES)]
        entry = {"pairs": len(complete)}
        for name, better in metrics.items():
            row = {}
            for side in SIDES:
                q1, med, q3 = quartiles([p[side]["metrics"][name] for p in complete])
                row[side] = {"median": med, "q1": q1, "q3": q3}
            sign = 1 if better == "higher" else -1
            row["head_wins"] = sum(
                sign * (p["head"]["metrics"][name] - p["base"]["metrics"][name]) > 0
                for p in complete
            )
            entry[name] = row
        entry["all_correct"] = all(p[s]["correct"] for p in complete for s in SIDES)
        out[key] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    seeds = args.seed or [1]

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    work = tempfile.mkdtemp(prefix="prolim-bench-")
    runs = []
    try:
        checkouts = {}
        for side in SIDES:
            checkouts[side] = os.path.join(work, side)
            export(commits[side], checkouts[side])
        with open(os.path.join(checkouts["head"], "BENCHMARK.json")) as fh:
            metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        for workload in args.workload:
            for seed in seeds:
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for position, side in enumerate(order):
                        run = run_once(checkouts[side], workload, seed, args.seconds)
                        run.update(
                            workload=workload, seed=seed, pair=pair, side=side, first=position == 0
                        )
                        runs.append(run)
                        m = run["metrics"]
                        print(
                            f"{workload} seed {seed} pair {pair} {side}: "
                            f"ops_per_s {m['ops_per_s']:.1f} correct {run['correct']}",
                            file=sys.stderr,
                        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "tag": args.tag,
        "machine": {
            "platform": platform.platform(),
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "commits": commits,
        "seeds": seeds,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    path = os.path.join(ROOT, "benchmarks", f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
