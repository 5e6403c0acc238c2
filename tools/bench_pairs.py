"""Run bench/run.py in two checkouts alternately and summarize the pairs.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N
        --seed S --out FILE

PARENT and CHANGE are directories that each hold a copy of the repository
(at least src/, bench/ and BENCHMARK.json).  Pair i runs both sides on the
seed S + i, the parent first on even pairs and the change first on odd
ones, so that a drift of the host's speed over the batch falls on both
sides alike.  Each run is

    python3 bench/run.py --workload W --seed S+i --seconds SECONDS --trace 0

in its checkout, and its last line of output, a JSON object, is kept.
SECONDS is the run_seconds of CHANGE's BENCHMARK.json, and the summary
covers the end-to-end metrics declared there.

A checkout whose src/ holds a __pycache__ directory is refused before
the first run: imports from stale bytecode skip the compile that setup_s
times on a host that writes none.  Each run gets
PYTHONDONTWRITEBYTECODE=1, so the batch writes no bytecode itself.

FILE gets the keys `runs`, one entry per run, and `summary`, one entry per
workload, as in the committed BENCH_*.json files.  When FILE exists, its
runs of other workloads are kept and its other keys are left as they are,
so one FILE can collect several workloads, one invocation each.  A run
that exits nonzero stops the batch with its output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list) -> dict:
    """Median, q1 and q3, by statistics.quantiles' inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def benchmark_spec(checkout: str) -> dict:
    """The BENCHMARK.json of checkout."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def better_directions(spec: dict) -> dict:
    """The end-to-end metrics of a BENCHMARK.json, each mapped to the
    direction in which it improves ("higher" or "lower")."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarize(runs: list, better: dict) -> dict:
    """The summary of one workload's runs, each a dict with the keys pair,
    seed, side ("parent" or "change") and result (the JSON line of
    bench/run.py), over the metrics of better (better_directions).  Per
    metric: both sides' quartiles, the change of the median over the
    parent's, the number of pairs in which the change reads better (ties
    count as not better), the distance between the two medians and the
    parent's interquartile range."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    sides = ("parent", "change")
    out = {
        "pairs": len(pairs),
        "seeds": [by[p, "parent"]["seed"] for p in pairs],
        "failed_ops": {s: sum(by[p, s]["result"]["failed"] for p in pairs)
                       for s in sides},
        "attempted_ops": {s: sum(by[p, s]["result"]["attempted"]
                                 for p in pairs) for s in sides},
        "all_correct": all(r["result"]["correct"] for r in runs),
    }
    for name, direction in better.items():
        values = {s: [by[p, s]["result"]["metrics"][name]["value"]
                      for p in pairs] for s in sides}
        stats = {s: quartiles(values[s]) for s in sides}
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {
            **stats,
            "median_change": (stats["change"]["median"]
                              / stats["parent"]["median"] - 1.0),
            "change_better_pairs": sum(
                sign * (c - p) > 0.0
                for p, c in zip(values["parent"], values["change"])),
            "median_gap": abs(stats["change"]["median"]
                              - stats["parent"]["median"]),
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def bytecode_dirs(checkout: str) -> list:
    """The __pycache__ directories under checkout's src/, sorted."""
    return sorted(os.path.join(top, d)
                  for top, dirs, _ in os.walk(os.path.join(checkout, "src"))
                  for d in dirs if d == "__pycache__")


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """One bench/run.py run in checkout, writing no bytecode; its last
    line of output, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stdout}"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    for checkout in (args.parent, args.change):
        stale = bytecode_dirs(checkout)
        if stale:
            raise SystemExit(f"stale bytecode in {stale[0]}: remove it")

    spec = benchmark_spec(args.change)
    seconds = spec["run_seconds"]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        first = "parent" if pair % 2 == 0 else "change"
        order = (first, "change" if first == "parent" else "parent")
        for side in order:
            result = run_once(checkouts[side], args.workload, seed,
                              seconds)
            runs.append({"workload": args.workload, "pair": pair,
                         "seed": seed, "side": side, "first": first,
                         "result": result})
            ops = result["metrics"]["ops_per_s"]["value"]
            print(f"{args.workload} pair {pair} seed {seed} {side}: "
                  f"{ops:.2f} ops/s", flush=True)

    doc["runs"] = [r for r in doc.get("runs", [])
                   if r["workload"] != args.workload] + runs
    summary = doc.get("summary", {})
    summary[args.workload] = summarize(runs, better_directions(spec))
    doc["summary"] = dict(sorted(summary.items()))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
