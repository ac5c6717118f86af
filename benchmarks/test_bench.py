"""The summary arithmetic of benchmarks/bench.py on synthetic runs; no
benchmark is run."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402


def run(workload, seed, pair, side, ops, p50, correct=True):
    return {
        "workload": workload,
        "seed": seed,
        "pair": pair,
        "side": side,
        "correct": correct,
        "metrics": {"ops_per_s": ops, "op_ms_p50": p50},
    }


METRICS = {"ops_per_s": "higher", "op_ms_p50": "lower"}


def test_quartiles_of_one_and_of_five_values():
    assert bench.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)


def test_summary_medians_quartiles_and_wins_per_workload_and_seed():
    runs = [
        run("w", 1, 0, "base", 100, 2.0),
        run("w", 1, 0, "head", 120, 1.5),
        run("w", 1, 1, "head", 90, 2.5),
        run("w", 1, 1, "base", 110, 2.5),
        run("w", 1, 2, "base", 105, 1.9),
        run("w", 1, 2, "head", 130, 1.4),
        run("w", 2, 0, "base", 50, 4.0),
        run("w", 2, 0, "head", 50, 3.0, correct=False),
    ]
    out = bench.summarize(runs, METRICS)
    assert sorted(out) == ["w seed 1", "w seed 2"]
    one = out["w seed 1"]
    assert one["pairs"] == 3
    assert one["ops_per_s"]["base"] == {"median": 105, "q1": 102.5, "q3": 107.5}
    assert one["ops_per_s"]["head"] == {"median": 120, "q1": 105.0, "q3": 125.0}
    # higher is better for throughput, lower for latency; a tie wins nothing
    assert one["ops_per_s"]["head_wins"] == 2
    assert one["op_ms_p50"]["head_wins"] == 2
    assert one["all_correct"] is True
    two = out["w seed 2"]
    assert two["ops_per_s"]["head_wins"] == 0
    assert two["op_ms_p50"]["head_wins"] == 1
    assert two["all_correct"] is False


def test_summary_skips_a_pair_missing_one_side():
    runs = [
        run("w", 1, 0, "base", 100, 2.0),
        run("w", 1, 0, "head", 120, 1.5),
        run("w", 1, 1, "base", 10, 9.0),
    ]
    out = bench.summarize(runs, METRICS)["w seed 1"]
    assert out["pairs"] == 1
    assert out["ops_per_s"]["base"]["median"] == 100
