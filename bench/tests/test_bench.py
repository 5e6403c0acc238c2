"""Tests of the benchmark's own code: its oracles, its inputs and its tracer.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import itertools
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import barwaves  # noqa: E402
from barwaves import State  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def first_rounds(name, seed, count=3):
    return list(itertools.islice(WORKLOADS[name].rounds(seed), count))


def shift_shock_speeds(pattern, delta):
    waves = tuple(
        dataclasses.replace(w, speed_head=w.speed_head + delta,
                            speed_tail=w.speed_tail + delta)
        if w.kind == "shock" else w
        for w in pattern.waves)
    return dataclasses.replace(pattern, waves=waves)


def test_jump_check_catches_shifted_shock_speed():
    caught = 0
    for m, U_l, U_r in itertools.chain.from_iterable(first_rounds("box", 7, 20)):
        pattern = barwaves.solve(m, U_l, U_r)
        assert oracles.check_pattern(m, U_l, U_r, pattern) is None
        if not pattern.shocks():
            continue
        problem = oracles.check_pattern(m, U_l, U_r,
                                        shift_shock_speeds(pattern, 1e-3))
        assert problem is not None and "jump residual" in problem
        caught += 1
    assert caught >= 10


def test_cubic_thresholds_match_the_closed_form():
    t_star, t_star_star = oracles.cubic_thresholds(barwaves.PRESETS["cubic"], -1.0)
    assert t_star == 1.0
    assert t_star_star == pytest.approx(1.4056827779280219, rel=1e-14)


def test_atlas_check_catches_swapped_case_label(tmp_path):
    (a, b), = next(WORKLOADS["atlas"].rounds(3))
    path = workloads.run_atlas(a, b, str(tmp_path / "atlas.csv"))
    assert WORKLOADS["atlas"].check((a, b), path) is None

    lines = open(path, encoding="utf-8").read().splitlines()
    cubic = barwaves.PRESETS["cubic"]
    rows = {}
    for i, line in enumerate(lines[1:-1], start=1):
        T_l, T_r, label, _ = line.split(",")
        if oracles.zero_velocity_type(cubic, float(T_l), float(T_r)):
            rows.setdefault(label, i)
    i, j = rows["III"], rows["IV"]
    fields_i, fields_j = lines[i].split(","), lines[j].split(",")
    fields_i[2], fields_j[2] = fields_j[2], fields_i[2]
    lines[i], lines[j] = ",".join(fields_i), ",".join(fields_j)
    (tmp_path / "atlas.csv").write_text("\n".join(lines) + "\n")
    problem = WORKLOADS["atlas"].check((a, b), path)
    assert problem is not None and "expected" in problem


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproduces_identical_inputs(name):
    assert first_rounds(name, 11) == first_rounds(name, 11)
    assert first_rounds(name, 11) != first_rounds(name, 12)


def test_wide_pool_does_not_depend_on_the_seed():
    (one,), (other,) = first_rounds("wide", 1, 1), first_rounds("wide", 2, 1)
    assert sorted(map(repr, one)) == sorted(map(repr, other))


def test_wide_failures_are_the_named_residual_fault():
    wide = WORKLOADS["wide"]
    for item in workloads.wide_pool():
        try:
            pattern = wide.op(item)
        except Exception as exc:
            assert wide.known_fault(exc), f"{exc!r} on {item}"
        else:
            assert wide.check(item, pattern) is None, item


def module_bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "barwaves" or name.startswith("barwaves.")
            for attr, value in vars(module).items()}


def test_traced_run_restores_every_rebound_attribute():
    before = module_bindings()
    with tracing.traced() as tracer:
        assert barwaves.solve is not before[("barwaves", "solve")]
        barwaves.solve(barwaves.PRESETS["cubic"], State(-1.0, 0.0),
                       State(1.6, 0.0))
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.metrics()["riemann.solve.calls_per_op"] == 1.0


def test_traced_run_restores_after_an_error():
    before = module_bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced():
            raise RuntimeError("op failed")
    after = module_bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reports_a_missing_layer_as_absent(monkeypatch):
    monkeypatch.delattr(barwaves.verify, "l1_distance")
    with tracing.traced() as tracer:
        frame = tracer.begin_op()
        barwaves.solve(barwaves.PRESETS["quintic"], State(0.5, 1.0),
                       State(-2.0, 0.0))
        tracer.end_op(frame)
    assert tracer.absent == ["verify.l1_distance"]
    metrics = tracer.metrics()
    assert metrics["verify.l1_distance.ms_per_op"] == 0.0
    assert metrics["riemann.solve.calls_per_op"] == 1.0


def test_traced_cache_counts_survive_a_cache_clear():
    m = barwaves.PRESETS["quintic"]
    with tracing.traced() as tracer:
        for _ in range(2):
            barwaves.tangent_point.cache_clear()
            frame = tracer.begin_op()
            barwaves.solve(m, State(-0.75, 0.0), State(1.25, 0.5))
            tracer.end_op(frame)
    metrics = tracer.metrics()
    assert metrics["material.tangent_point.solves_per_op"] >= 1.0
    assert 0.0 < metrics["material.tangent_point.hit_ratio"] < 1.0
