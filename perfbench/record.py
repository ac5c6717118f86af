"""Record what the current commit produces into perfbench/expected/.

    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted: the benchmark checks
every later commit against these files.  It records
  * fixtures-cli: the operation list (every golden-backed report, plus
    surjectivize, kernels, sample and dense on each fixture where they exit
    0, plus split-demo) with a digest for each basis-independent report;
  * cycle-rank and tower-depth: exit codes of every operation and digests
    of the classify, ml and kk-classify reports, for the default and the
    held-out seed;
  * split-lab: the topology and section totals and the split-demo digest.
"""

import json
import os
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_COMMANDS = (
    ("surjectivize", []),
    ("kernels", []),
    ("sample", ["--level", "2"]),
    ("dense", ["--budget", "2", "--cap", "64"]),
)
SPLIT_DEMOS = ("mixed", "discrete-z4", "indiscrete-z2")
DIGESTED = ("classify", "ml", "kk-classify")


def _format(value, depth):
    """JSON with the members of the outer `depth` levels on lines of their own."""
    if depth == 0 or not isinstance(value, (dict, list)) or not value:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}:{_format(v, depth - 1)}" for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n}"
    return "[\n" + ",\n".join(_format(v, depth - 1) for v in value) + "\n]"


def write(name, data, depth):
    with open(os.path.join(workloads.EXPECTED_DIR, f"{name}.json"), "w") as fh:
        fh.write(_format(data, depth) + "\n")


def fixtures_cli():
    fixtures = os.path.join(ROOT, "fixtures")
    ops = []
    for golden in sorted(os.listdir(os.path.join(fixtures, "golden"))):
        stem = golden[: -len(".json")]
        cmd = "kk-classify" if stem.startswith("kk-classify-") else stem.split("-", 1)[0]
        fx = stem[len(cmd) + 1 :]
        ops.append({"command": cmd, "fixture": fx, "args": [], "exit": 0, "golden": golden})
    for fname in sorted(os.listdir(fixtures)):
        if not fname.endswith(".json"):
            continue
        fx = fname[: -len(".json")]
        for cmd, args in FIXTURE_COMMANDS:
            rc, out = workloads.run_cli([cmd, os.path.join(fixtures, fname), *args])
            if rc != 0:
                continue
            entry = {"command": cmd, "fixture": fx, "args": args, "exit": 0}
            if cmd != "surjectivize":
                entry["sha256"] = workloads.digest(out)
            ops.append(entry)
    for demo in SPLIT_DEMOS:
        rc, out = workloads.run_cli(["split-demo", demo])
        ops.append(
            {"command": "split-demo", "args": [demo], "exit": rc, "sha256": workloads.digest(out)}
        )
    write("fixtures-cli", {"ops": ops}, 2)


def generated(cls, workdir):
    seeds = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        wl = cls(ROOT, seed)
        wl.prepare(workdir)
        rec = {}
        for key, fn in wl.ops:
            rc, out = fn()
            rec[key] = {"exit": rc}
            if key.split(" ")[0] in DIGESTED:
                rec[key]["sha256"] = workloads.digest(out)
        seeds[str(seed)] = rec
    write(cls.name, {"seeds": seeds}, 3)


def split_lab(workdir):
    wl = workloads.SplitLab(ROOT, workloads.DEFAULT_SEED)
    wl.prepare(workdir)
    sections = 0
    for key, fn in wl.ops:
        rc, out = fn()
        if rc != 0 or not json.loads(out)["all_ok"]:
            raise SystemExit(f"{key}: splitting check failed")
        sections += json.loads(out)["sections"]
    _rc, demo = workloads.run_cli(["split-demo", "mixed"])
    write(
        "split-lab",
        {
            "totals": {"topologies": len(wl.ops), "sections": sections},
            "cold_sha256": workloads.digest(demo),
        },
        1,
    )


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import prolim.cli  # noqa: F401  (run_cli finds it in sys.modules)

    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_record") as workdir:
        fixtures_cli()
        split_lab(workdir)
        generated(workloads.CycleRank, workdir)
        generated(workloads.TowerDepth, workdir)


if __name__ == "__main__":
    main()
