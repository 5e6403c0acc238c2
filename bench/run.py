"""Seeded benchmark of the barwaves package; run from the repository root.

    python3 bench/run.py --workload box --seed 1 --seconds 12 --trace 0

Workloads: box, wide, atlas, fvcheck (see README.md).  With --trace 0 the
run times each operation from outside and reports the end-to-end metrics;
with --trace 1 it wraps the package's layer functions and reports the
per-layer metrics instead.  Every output is checked against computations
made apart from the package.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fresh interpreters timed per run for setup_s, after one untimed warm-up
#: that writes the bytecode caches; the median is reported.
SETUP_PROBES = 5

#: The shared host changes speed by up to half for minutes at a time, and
#: pure-Python code slows by nearly the same factor.  Every time is
#: therefore scaled by REF_SECONDS over the time the reference kernel takes
#: at that moment, measured at least every REF_INTERVAL seconds between
#: operations.  REF_SECONDS is the kernel's time on a 2.1 GHz Xeon core in
#: its fast periods, so scaled times read as wall-clock times there.
REF_SECONDS = 1.6e-4
REF_INTERVAL = 0.05

#: Starting an interpreter and importing compiled modules is slowed by the
#: host differently from running Python code, so set-up time is scaled by a
#: fresh interpreter that imports these standard modules instead, which take
#: REF_IMPORT_SECONDS on the same host in its fast periods.
REF_IMPORTS = ("decimal", "json", "email.parser", "http.client",
               "xml.etree.ElementTree", "sqlite3", "argparse", "unittest",
               "asyncio")
REF_IMPORT_SECONDS = 0.1

#: A run stops after this many wall-clock seconds even when it has not yet
#: collected enough samples for its tail percentile, so that it always ends
#: well within 180 s.
MAX_TIMED_SECONDS = 100.0


def reference_kernel() -> float:
    """Fixed pure-Python float arithmetic and calls, like the package's
    scalar code and independent of it."""
    acc = 0.0
    for i in range(1000):
        x = i * 1e-3
        acc += math.sqrt(1.0 + x * x) / (1.0 + abs(math.sin(x)))
    return acc


def host_factor() -> float:
    """REF_SECONDS over the fastest of three timings of the reference
    kernel; taking the fastest skips interrupts."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t0)
    return REF_SECONDS / best


class HostSpeed:
    """Factor that scales a wall time measured now to the reference speed:
    the median of the last few kernel timings, which damps the noise of a
    single timing and follows a change of host speed within a quarter of a
    second."""

    def __init__(self):
        self._recent = collections.deque(
            (host_factor() for _ in range(5)), maxlen=5)
        self.factor = statistics.median(self._recent)
        self._at = perf_counter()

    def refresh(self) -> None:
        if perf_counter() - self._at >= REF_INTERVAL:
            self._recent.append(host_factor())
            self.factor = statistics.median(self._recent)
            self._at = perf_counter()


def _probe_seconds(code: str) -> float:
    """Wall time from starting a fresh interpreter that runs `code` until it
    reports that it is ready."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, "-c", code + "; print('ready', flush=True)"],
            stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise SystemExit(f"set-up probe failed with code {proc.returncode}")
    return t1 - t0


def setup_seconds(modules: tuple[str, ...]) -> float:
    """Median time from starting a fresh interpreter until the modules a
    workload calls are imported, at the reference speed.  Each probe is
    followed by one that imports REF_IMPORTS instead and scales it."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            + "; ".join(f"import {m}" for m in modules))
    reference = "; ".join(f"import {m}" for m in REF_IMPORTS)
    samples = []
    for i in range(SETUP_PROBES + 1):
        own = _probe_seconds(code)
        scale = REF_IMPORT_SECONDS / _probe_seconds(reference)
        if i:
            samples.append(own * scale)
    return statistics.median(samples)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def run_ops(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Attempt whole rounds until `seconds` have passed at the reference
    speed and enough samples exist for the tail percentile; check every
    output outside its timing."""
    latencies: list[float] = []
    busy = raw_busy = 0.0
    attempted = 0
    failures: dict[str, int] = {}
    unexpected: list[str] = []
    speed = HostSpeed()
    start = last = perf_counter()
    elapsed = 0.0  # at the reference speed, so every run does similar work
    for items in workload.rounds(seed):
        for item in items:
            attempted += 1
            speed.refresh()
            now = perf_counter()
            elapsed += (now - last) * speed.factor
            last = now
            frame = tracer.begin_op() if tracer else None
            t0 = perf_counter()
            try:
                output = workload.op(item)
                error = None
            except Exception as exc:  # an op boundary: record and go on
                error = exc
            raw = perf_counter() - t0
            if tracer:
                tracer.end_op(frame)
            dt = raw * speed.factor
            busy += dt
            raw_busy += raw
            if error is not None:
                if workload.known_fault(error):
                    kind = f"known fault: {type(error).__name__}"
                else:
                    kind = f"error: {type(error).__name__}"
                    unexpected.append(f"{kind}: {error} on {item!r}")
            else:
                problem = workload.check(item, output)
                if problem is None:
                    latencies.append(dt)
                    continue
                kind = "wrong output"
                unexpected.append(f"{kind}: {problem} on {item!r}")
            failures[kind] = failures.get(kind, 0) + 1
        if perf_counter() - start >= MAX_TIMED_SECONDS or (
                elapsed >= seconds
                and len(latencies) >= workload.min_samples):
            break
    latencies.sort()
    return {"attempted": attempted, "failures": failures,
            "unexpected": unexpected, "latencies": latencies, "busy": busy,
            "host_slowdown": raw_busy / busy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("box", "wide", "atlas", "fvcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    package = os.path.join(SRC, "barwaves", "__init__.py")
    if not os.path.isfile(package):
        print(f"barwaves sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import barwaves
    if os.path.abspath(barwaves.__file__) != package:
        print(f"imported barwaves from {barwaves.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS, atlas_path

    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    # One core for the run and its set-up probes, so that the reference
    # kernel measures the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            with tracing.traced() as tracer:
                result = run_ops(workload, args.seed, args.seconds, tracer)
            trace_path = os.path.join(
                HERE, "out", f"trace-{args.workload}-{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload,
                                      "seed": args.seed})
            metrics = {name: {"value": value, "unit": tracing.unit(name)}
                       for name, value in tracer.metrics().items()}
            print(f"trace written to {os.path.relpath(trace_path)}"
                  f"; absent layers: {tracer.absent or 'none'}")
        else:
            setup = setup_seconds(workload.imports)
            result = run_ops(workload, args.seed, args.seconds)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if os.path.exists(atlas_path()):
            os.remove(atlas_path())

    lat = result["latencies"]
    if not lat:
        print("no operation succeeded", file=sys.stderr)
        return 1
    p50_ms = 1e3 * statistics.median(lat)
    tail_ms = 1e3 * percentile(lat, workload.tail)
    if not args.trace:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": len(lat) / result["busy"], "unit": "1/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    failed = sum(result["failures"].values())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops, {failed} failed {result['failures']}; "
          f"p50 {p50_ms:.4f} ms, p{workload.tail:g} {tail_ms:.4f} ms "
          f"over {len(lat)} samples at the reference speed; the host ran "
          f"{result['host_slowdown']:.3f} times slower on average")
    for line in result["unexpected"][:5]:
        print(line)
    print(json.dumps({"correct": not result["unexpected"],
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
