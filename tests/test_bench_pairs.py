"""tools/bench_pairs.py's summary of alternating benchmark pairs, on a
fixture summed by hand and on the runs of a committed BENCH_*.json file;
no benchmark is run."""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(pair, side, ops, setup, attempted, failed=0, correct=True):
    return {"workload": "fvcheck", "pair": pair, "seed": 50 + pair,
            "side": side, "first": "parent" if pair % 2 == 0 else "change",
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops},
                                   "setup_s": {"value": setup}}}}


FIXTURE = [
    run(0, "parent", 100.0, 1.0, 10), run(0, "change", 120.0, 1.0, 12),
    run(1, "change", 105.0, 1.5, 11, failed=1),
    run(1, "parent", 110.0, 2.0, 11),
    run(2, "parent", 90.0, 3.0, 9), run(2, "change", 130.0, 3.5, 13,
                                        correct=False),
]


def test_summary_of_a_fixture_summed_by_hand():
    summary = bench_pairs.summarize(
        FIXTURE, {"ops_per_s": "higher", "setup_s": "lower"})
    assert summary["pairs"] == 3
    assert summary["seeds"] == [50, 51, 52]
    assert summary["failed_ops"] == {"parent": 0, "change": 1}
    assert summary["attempted_ops"] == {"parent": 30, "change": 36}
    assert summary["all_correct"] is False
    # inclusive quartiles of three values: the midpoints around the median
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert ops["change"] == {"median": 120.0, "q1": 112.5, "q3": 125.0}
    assert ops["median_change"] == pytest.approx(0.2, rel=1e-15)
    assert ops["change_better_pairs"] == 2  # 120 > 100 and 130 > 90
    assert (ops["median_gap"], ops["parent_iqr"]) == (20.0, 10.0)
    # lower is better; the tie of pair 0 is not a win
    setup = summary["setup_s"]
    assert setup["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert setup["change"] == {"median": 1.5, "q1": 1.25, "q3": 2.5}
    assert setup["median_change"] == -0.25
    assert setup["change_better_pairs"] == 1
    assert (setup["median_gap"], setup["parent_iqr"]) == (0.5, 1.0)


def test_summary_reproduces_a_committed_bench_file():
    with open(os.path.join(ROOT, "BENCH_integer_polynomial.json")) as fh:
        doc = json.load(fh)
    better = bench_pairs.better_directions(bench_pairs.benchmark_spec(ROOT))
    for workload, expected in doc["summary"].items():
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        assert bench_pairs.summarize(runs, better) == expected, workload


def test_a_checkout_with_bytecode_under_src_is_refused(tmp_path):
    # bytecode outside src/ is not the package's, and is allowed
    (tmp_path / "src" / "barwaves").mkdir(parents=True)
    (tmp_path / "bench" / "__pycache__").mkdir(parents=True)
    assert bench_pairs.bytecode_dirs(str(tmp_path)) == []
    stale = tmp_path / "src" / "barwaves" / "__pycache__"
    stale.mkdir()
    assert bench_pairs.bytecode_dirs(str(tmp_path)) == [str(stale)]
    # refused before bench/run.py is started: the checkout has none
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match=re.escape(str(stale))):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload",
                          "atlas", "--pairs", "2", "--seed", "1",
                          "--out", str(out)])
    assert not out.exists()
