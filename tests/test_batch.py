"""solve_many against scalar solve, lane by lane: the same labels, cases and
errors, and middle states within 1e-13 of the pattern's scale."""

import math
import random
import re

import numpy as np
import pytest

from barwaves import (
    BACKWARD,
    Material,
    NoBracket,
    NonMonotone,
    PRESETS,
    State,
    backward_v,
    batch,
    forward_v,
    riemann,
    solve,
    solve_many,
    tangent_point,
)
from barwaves.riemann import BOUNDARY_TOL

CUBIC = PRESETS["cubic"]
QUINTIC = PRESETS["quintic"]
NEAR_HYPERBOLIC = Material(1.0, -0.999, 1.0, 1.0, 1.0)


def scalar_outcome(m, U_l, U_r):
    """(T_bar, v_bar, region label, case, T scale, v scale) of scalar solve,
    or the error it raises.  The middle state is where the backward wave
    ends; the scales are the pattern's largest stress and velocity jump."""
    try:
        p = solve(m, U_l, U_r)
    except ArithmeticError as exc:
        return exc
    if not p.waves:
        mid = U_l
    elif p.waves[0].family == BACKWARD:
        mid = [w for w in p.waves if w.family == BACKWARD][-1].right
    else:
        mid = p.waves[0].left
    states = [U_l, U_r, mid, *p.middle_states]
    T_scale = max(abs(s.T) for s in states)
    v_scale = max(abs(a.v - b.v) for a in states for b in states)
    return (mid.T, mid.v, p.region_label, p.zero_velocity_case, T_scale,
            v_scale)


def assert_parity(m, problems):
    """Every lane of one solve_many call against its own scalar solve."""
    T_l, v_l, T_r, v_r = np.array(problems, dtype=float).T
    sol = solve_many(m, T_l, v_l, T_r, v_r)
    for i, (a, b, c, d) in enumerate(problems):
        want = scalar_outcome(m, State(a, b), State(c, d))
        got = sol.error[i]
        where = f"lane {i}: {(a, b, c, d)}"
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), where
            continue
        assert got is None, where
        T_bar, v_bar, label, case, T_scale, v_scale = want
        assert sol.region_label[i] == label, where
        assert sol.zero_velocity_case[i] == case, where
        assert abs(sol.T_bar[i] - T_bar) <= 1e-13 * T_scale, where
        assert abs(sol.v_bar[i] - v_bar) <= 1e-13 * v_scale, where
    return sol


def log_uniform(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)


def test_box_sweep_matches_solve():
    # the seed-2024 acceptance sweep, each problem also mirrored and negated
    rng = random.Random(2024)
    by_material = {CUBIC: [], QUINTIC: []}
    for i in range(1000):
        m = (CUBIC, QUINTIC)[i % 2]
        T_l, v_l = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
        T_r, v_r = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
        by_material[m] += [(T_l, v_l, T_r, v_r), (-T_r, v_r, -T_l, v_l),
                           (-T_l, -v_l, -T_r, -v_r)]
    for m, problems in by_material.items():
        assert_parity(m, problems)


@pytest.mark.parametrize("m", [CUBIC, QUINTIC, NEAR_HYPERBOLIC],
                         ids=["cubic", "quintic", "near-hyperbolic"])
def test_log_uniform_pool_matches_solve(m):
    rng = random.Random(5)
    problems = [tuple(log_uniform(rng, -6.0, 3.0) for _ in range(4))
                for _ in range(400)]
    assert_parity(m, problems)


@pytest.mark.parametrize("n", [1.5, 3.5])
def test_zero_velocity_grid_matches_solve(n):
    m = Material(1.3, -0.4, 0.7, n, 0.5)
    stresses = np.linspace(-2.0, 2.0, 17).tolist()
    problems = [(a, 0.0, 1.5 * b, 0.0) for a in stresses for b in stresses]
    sol = assert_parity(m, problems)
    assert {"I", "II", "III", "IV", "V", "XI", "XII"} <= set(
        sol.zero_velocity_case.tolist())


@pytest.mark.parametrize("m", [CUBIC, QUINTIC], ids=["cubic", "quintic"])
def test_right_states_on_the_dividing_curves_match_solve(m):
    problems = []
    for T_l in (-2.3, -0.6, 0.0, 0.4, 1.7):
        U_l = State(T_l, 0.3)
        starts = [U_l]
        if T_l != 0.0:
            # the forward curves from the zero-stress and tangency points
            Tt = tangent_point(m, T_l)
            starts += [State(T, backward_v(m, U_l, T)) for T in (0.0, Tt)]
        for T in (-2.9, -1.1, -0.2, 0.7, 2.6):
            on = [backward_v(m, U_l, T)]
            on += [forward_v(m, U, T) for U in starts]
            # and just inside or outside the boundary tolerance
            problems += [(T_l, 0.3, T, v + f * BOUNDARY_TOL * abs(v - 0.3))
                         for v in on for f in (0.0, -0.6, 0.9, 1.5)]
        problems += [(T_l, 0.3, 0.0, v) for v in (-1.2, 0.3, 2.5)]
    sol = assert_parity(m, problems)
    labels = set(sol.region_label.tolist())
    assert {"on-W1", "on-W2", "on-W2F", "on-W2E", "on-W2B", "on-W2C",
            "on-T0"} <= labels


@pytest.mark.parametrize("m", [CUBIC, QUINTIC], ids=["cubic", "quintic"])
def test_near_equal_stresses_match_solve(m):
    # narrow waves, where the middle stress lies within roundoff of a data
    # stress and the snap to T_l or T_r decides it
    rng = random.Random(3)
    problems = []
    for _ in range(300):
        T_l = log_uniform(rng, -6.0, 3.0)
        T_r = T_l * (1.0 + log_uniform(rng, -15.0, -9.0))
        v_r = rng.choice((0.0, log_uniform(rng, -16.0, -9.0) * abs(T_l)))
        problems.append((T_l, 0.0, T_r, v_r))
    assert_parity(m, problems)


def test_overflowing_lane_fails_alone():
    problems = [(-1e80, 0.0, 1.0, 0.0), (-0.8, 0.7, 1.1, -0.4),
                (1e80, 0.0, -1.0, 0.0), (0.5, 0.0, -1.5, 0.0)]
    sol = assert_parity(QUINTIC, problems)
    assert isinstance(sol.error[0], NoBracket)
    assert "overflow" in str(sol.error[0])
    assert sol.error[1] is None and sol.error[3] is None
    assert math.isnan(sol.T_bar[0]) and sol.region_label[0] is None
    # the other lanes are the same with or without the failing ones
    alone = solve_many(QUINTIC, [-0.8, 0.5], [0.7, 0.0], [1.1, -1.5],
                       [-0.4, 0.0])
    assert alone.T_bar.tolist() == sol.T_bar[[1, 3]].tolist()
    assert alone.v_bar.tolist() == sol.v_bar[[1, 3]].tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_names_the_element(bad):
    with pytest.raises(ValueError, match=r"v_r\[2\]="):
        solve_many(CUBIC, [0.1, 0.2, 0.3], 0.0, 1.0, [0.0, 0.0, bad])
    with pytest.raises(ValueError, match=r"T_l\[1, 0\]="):
        solve_many(CUBIC, [[0.1], [bad]], 0.0, [1.0, 2.0], 0.0)


def test_broadcast_shape_trivial_and_linear_lanes():
    sol = solve_many(CUBIC, [[-1.0], [0.5]], 0.0, [-1.0, 2.0], 0.0)
    assert sol.T_bar.shape == sol.error.shape == (2, 2)
    assert sol.region_label[0, 0] == "trivial"
    assert sol.zero_velocity_case[0, 0] is None
    assert (sol.T_bar[0, 0], sol.v_bar[0, 0]) == (-1.0, 0.0)
    assert_parity(PRESETS["linear"], [(-1.0, 0.5, 2.0, -0.3),
                                      (0.4, 0.0, 0.4, 0.0)])


# off every dividing curve: the bracket search and the root finder run
OFF_CURVE = ((-1.0, 0.3, 1.2, -2.0), (0.4, 0.0, 0.4, 0.0))
STATES = f"between {State(-1.0, 0.3)} and {State(1.2, -2.0)}"


def test_missed_gate_is_the_lanes_error(monkeypatch):
    # root finders that return the low end of their bracket, on both paths
    monkeypatch.setattr(riemann, "_newton_bisect", lambda *args: args[2])
    with pytest.raises(NoBracket) as scalar:
        solve(CUBIC, State(-1.0, 0.3), State(1.2, -2.0))
    monkeypatch.setattr(batch, "_newton_bisect_many",
                        lambda fn, dfn, lo, *args: lo)
    sol = solve_many(CUBIC, *zip(*OFF_CURVE))
    assert type(sol.error[0]) is NoBracket
    pattern = (r"middle-stress residual (\S+) " + re.escape(STATES)
               + " misses the tolerance")
    got = re.fullmatch(pattern, str(sol.error[0]))
    want = re.fullmatch(pattern, str(scalar.value))
    assert got and want
    assert float(got[1]) == pytest.approx(float(want[1]), rel=1e-14)
    assert sol.error[1] is None and sol.region_label[1] == "trivial"


def test_non_monotone_samples_are_the_lanes_error(monkeypatch):
    # a wiggle of opposite sign on the two curves (s = 1 backward, -1
    # forward here) that does not cancel in the residual
    curve_v = batch._Curves.v
    monkeypatch.setattr(batch._Curves, "v", lambda self, m, idx, T: curve_v(
        self, m, idx, T) - self.s[idx] * np.sin(40.0 * T))
    sol = solve_many(CUBIC, *zip(*OFF_CURVE))
    assert type(sol.error[0]) is NonMonotone
    assert str(sol.error[0]) == ("sampled residuals are not monotone in "
                                 f"the middle stress {STATES}")
    assert sol.error[1] is None


def test_unbracketed_lane_is_the_lanes_error(monkeypatch):
    monkeypatch.setattr(batch, "_bracket_many", lambda fn, lo, hi, f_lo,
                        f_hi, step: (lo, hi, f_lo, f_hi,
                                     np.zeros(lo.size, bool)))
    sol = solve_many(CUBIC, *zip(*OFF_CURVE))
    assert type(sol.error[0]) is NoBracket
    assert str(sol.error[0]) == f"no bracket for the middle stress {STATES}"
