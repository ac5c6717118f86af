"""Tests of the benchmark itself: self-time arithmetic, generator
determinism, and that a one-byte change to a report counts as a failure."""

import os
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import prolim.cli  # noqa: E402,F401  (run_cli looks it up in sys.modules)

ROOT = os.path.dirname(HERE)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 4] > a1 [2, 3];  op > b [5, 9];  a second op [10, 12]
    parent = array("i", [-1, 0, 1, 0, -1])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 10.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 12.0])
    assert list(tracing.self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_totals_sum_self_time_per_name():
    t = tracing.Tracer()
    names = ["op", "kernel.mat_mul", "kernel.mat_mul", "fgab.direct_sum"]
    for n in names:
        t.name.append(t.name_id(n))
    t.parent.extend([-1, 0, 0, 0])
    t.op.extend([0, 0, 0, 0])
    t.start.extend([0.0, 1.0, 3.0, 6.0])
    t.end.extend([10.0, 2.0, 5.0, 7.0])
    assert t.totals() == {
        "op": (1, 6.0),
        "kernel.mat_mul": (2, 3.0),
        "fgab.direct_sum": (1, 1.0),
    }


def test_import_times_parse_top_level_prolim_and_sympy():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   prolim._backend",
            "import time:       300 |        400 | prolim",
            "import time:       200 |       2000 | prolim.fgab",
            "import time:      5000 |     300000 | sympy",
        ]
    )
    assert tracing.import_times(stderr) == (2.4, 300.0)


def test_generators_are_deterministic_per_seed():
    for make in (generate.cycle_documents, generate.tower_documents):
        a = [generate.dump(d) for d in make(5)]
        assert a == [generate.dump(d) for d in make(5)]
        assert a != [generate.dump(d) for d in make(6)]
    docs = generate.cycle_documents(5)
    following = {p["name"].split("+")[0]: p["name"].split("+")[1] for p in generate.paired(docs)}
    assert sorted(following) == sorted(following.values()) == sorted(d["name"] for d in docs)
    assert all(generate.cell_of(a) == generate.cell_of(b) for a, b in following.items())
    assert len(generate.split_lab_inputs(16)) == 215


def _flip(data):
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]


def _fails(workload, key, result):
    workload._verified.clear()
    return workload.failures({key: result}) == [key]


def test_one_byte_change_counts_as_failure(tmp_path):
    fx = workloads.FixturesCli(ROOT, workloads.DEFAULT_SEED)
    fx.prepare(str(tmp_path))
    ops = dict(fx.ops)
    for key in ("classify const-z", "kernels const-z", "split-demo mixed"):
        rc, out = ops[key]()
        assert not _fails(fx, key, (rc, out))
        assert _fails(fx, key, (rc, _flip(out)))

    cyc = workloads.CycleRank(ROOT, workloads.DEFAULT_SEED)
    cyc.prepare(str(tmp_path))
    key = next(k for k, _fn in cyc.ops if k.startswith("classify cycle-r4-p1-"))
    rc, out = dict(cyc.ops)[key]()
    assert cyc.recorded[key]["sha256"] == workloads.digest(out)
    assert not _fails(cyc, key, (rc, out))
    assert _fails(cyc, key, (rc, _flip(out)))
