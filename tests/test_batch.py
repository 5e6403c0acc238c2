"""solve_many against scalar solve, lane by lane: the same labels, cases and
errors, and middle states within 1e-13 of the pattern's scale.  Also both
paths pinned bit for bit, their exact scaling under power-of-two changes of
units, and the work their middle-stress root finders do."""

import hashlib
import math
import os
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
from barwaves.cli import _grid, main
from barwaves.riemann import BOUNDARY_TOL
from barwaves.wave_curves import WaveCurve

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


@pytest.mark.parametrize("m", [QUINTIC, Material(1.0, -0.5, 1.0, 3.5, 1.0)],
                         ids=["quintic", "n=3.5"])
def test_data_up_to_1e250_fail_alike(m):
    # beyond about 1e150 a product overflows to inf without raising; both
    # paths stop at the first non-finite residual with the overflow error
    rng = random.Random(7)
    problems = [tuple(log_uniform(rng, -9.0, 250.0) for _ in range(4))
                for _ in range(600)]
    sol = assert_parity(m, problems)
    failed = [e for e in sol.error if e is not None]
    assert 0 < len(failed) < len(problems)
    assert all(isinstance(e, NoBracket) for e in failed)


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


# ---------------------------------------------------------------------------
# both paths pinned bit for bit

#: Materials of the pinned pools.  Their integer n keeps numpy's power and
#: math's in agreement, so the digests hold on either path's kernels.
PINNED = {"cubic": CUBIC, "quintic": QUINTIC,
          "near-hyperbolic": NEAR_HYPERBOLIC}


def pinned_pool(seed):
    """A fixed pool of problems: the acceptance box, log-uniform magnitudes
    1e-6..1e3, narrow waves, and a 41x41 zero-velocity grid as
    `barwaves atlas --res 41` lays it out."""
    rng = random.Random(seed)
    pool = [(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0),
             rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
            for _ in range(200)]
    pool += [tuple(log_uniform(rng, -6.0, 3.0) for _ in range(4))
             for _ in range(200)]
    for _ in range(100):
        T_l = log_uniform(rng, -6.0, 3.0)
        pool.append((T_l, 0.0, T_l * (1.0 + log_uniform(rng, -15.0, -9.0)),
                     rng.choice((0.0, -0.0, 1e-12 * T_l))))
    stresses = _grid(-2.0, 2.0, 41)
    pool += [(a, 0.0, b, 0.0) for a in stresses for b in stresses]
    return pool


def solve_digest(m, pool):
    """SHA-256 of every scalar solve's waves, labels and case, or its
    error."""
    h = hashlib.sha256()
    for a, b, c, d in pool:
        try:
            p = solve(m, State(a, b), State(c, d))
            text = repr((p.waves, p.region_label, p.zero_velocity_case))
        except ArithmeticError as exc:
            text = f"{type(exc).__name__}: {exc}"
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def solve_many_digest(m, pool):
    """SHA-256 of one solve_many call on the pool: T_bar and v_bar as
    little-endian float64, then every lane's labels, case and error."""
    sol = solve_many(m, *np.array(pool, dtype=float).T)
    h = hashlib.sha256(np.concatenate([sol.T_bar, sol.v_bar])
                       .astype("<f8").tobytes())
    for label, case, error in zip(sol.region_label, sol.zero_velocity_case,
                                  sol.error):
        text = repr((label, case, error and
                     f"{type(error).__name__}: {error}"))
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def pinned_solve_digests():
    """{label: SHA-256} from tests/solve.sha256."""
    path = os.path.join(os.path.dirname(__file__), "solve.sha256")
    with open(path, encoding="utf-8") as fh:
        return {line[66:].strip(): line[:64] for line in fh}


def test_scalar_solve_output_is_pinned_at_a_non_integer_n():
    # the scalar path only: at non-integer n numpy's power may round an
    # element differently from math's, so the lanes agree to roundoff
    m = Material(1.0, -0.5, 1.0, 1.5, 1.0)
    assert solve_digest(m, pinned_pool(3)) == pinned_solve_digests()[
        "solve n=1.5"]


@pytest.mark.parametrize("path,digest", [("solve", solve_digest),
                                         ("solve_many", solve_many_digest)])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_solve_output_is_pinned(path, digest, name):
    pool = pinned_pool(sorted(PINNED).index(name))
    assert digest(PINNED[name], pool) == pinned_solve_digests()[
        f"{path} {name}"]


# ---------------------------------------------------------------------------
# exact scaling: with T = c*S, v = V*w and speeds X times those of the unit
# material (1, r, 1, n, 1), where c = gamma**-0.5, V = c*sqrt(alpha/rho) and
# X = (rho*alpha)**-0.5, a solve is the unit solve in scaled units


def count_roundoff_stops(monkeypatch):
    """Residuals that the root finders see as zero although they are not,
    counted on both paths."""
    stopped = riemann._stopped_residual
    stops = [0]

    def counted(g, v_back, v_fwd):
        seen = stopped(g, v_back, v_fwd)
        stops[0] += int(np.sum((seen == 0.0) & (g != 0.0)))
        return seen

    monkeypatch.setattr(riemann, "_stopped_residual", counted)
    monkeypatch.setattr(batch, "_stopped_residual", counted)
    return stops


@pytest.mark.parametrize("r,n", [(-0.5, 1.0), (-0.5, 2.0), (-0.9, 1.5),
                                 (-0.2, 3.5)])
def test_power_of_two_units_scale_the_solution_exactly(monkeypatch, r, n):
    # with c, V and X powers of two every operation scales without
    # rounding, the roundoff stop of the middle-stress search included
    stops = count_roundoff_stops(monkeypatch)
    rng = random.Random(11)
    box = [(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0),
            rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
           for _ in range(20)]
    wide = [tuple(log_uniform(rng, -4.0, 2.0) for _ in range(4))
            for _ in range(20)]
    zero_velocity = [(a, 0.0, c, 0.0) for a, _, c, _ in box]
    # a common velocity far above the jumps: the residual's roundoff is
    # then that of the velocities, and the roundoff stop ends the search
    shifted = [(a, b + 1e3, c, d + 1e3) for a, b, c, d in box]
    unit = Material(1.0, r, 1.0, n, 1.0)
    before = stops[0]
    solve_many(unit, *np.array(shifted).T)
    assert stops[0] > before
    before = stops[0]
    for a, b, c, d in shifted:
        solve(unit, State(a, b), State(c, d))
    assert stops[0] > before

    problems = box + wide + zero_velocity + shifted
    unit_lanes = solve_many(unit, *np.array(problems).T)
    unit_patterns = [solve(unit, State(a, b), State(c, d))
                     for a, b, c, d in problems]
    for p, j, q in ((1, -3, 2), (-2, 5, 0), (3, 1, -4)):
        alpha = 4.0 ** p
        m = Material(alpha, r * alpha, 4.0 ** j, n, 4.0 ** q)
        c, V, X = 2.0 ** -j, 2.0 ** (p - q - j), 2.0 ** (-p - q)
        scaled = [(c * a, V * b, c * d, V * e) for a, b, d, e in problems]
        lanes = solve_many(m, *np.array(scaled).T)
        assert lanes.T_bar.tolist() == (c * unit_lanes.T_bar).tolist()
        assert lanes.v_bar.tolist() == (V * unit_lanes.v_bar).tolist()
        assert lanes.region_label.tolist() == unit_lanes.region_label.tolist()
        assert (lanes.zero_velocity_case.tolist()
                == unit_lanes.zero_velocity_case.tolist())
        for (a, b, d, e), base in zip(scaled, unit_patterns):
            got = solve(m, State(a, b), State(d, e))
            where = (r, n, p, j, q, a, b, d, e)
            assert got.region_label == base.region_label, where
            assert got.zero_velocity_case == base.zero_velocity_case, where
            assert [(s.T, s.v) for s in got.middle_states] == [
                (c * s.T, V * s.v) for s in base.middle_states], where
            assert [(w.speed_head, w.speed_tail) for w in got.waves] == [
                (X * w.speed_head, X * w.speed_tail)
                for w in base.waves], where


# ---------------------------------------------------------------------------
# work counts of the whole middle-stress search (dividing samples, bracket
# widening, the Hermite start, rtsafe and a final sample at the root), as
# upper bounds at the counts measured when rtsafe got the Hermite start


def count_lane_rounds(monkeypatch):
    """[residual rounds, slope rounds] of solve_many: each call of the
    residual the root finders see (after the dividing samples) is a round,
    and each slope call of both curves, stacked or not, is a round."""
    rounds = [0, 0]
    stopped, slope = batch._stopped_residual, batch._Curves.slope

    def counted_residual(*args):
        rounds[0] += 1
        return stopped(*args)

    def counted_slope(self, *args):
        # one call per curve of the pair: half a round
        rounds[1] += 0.5
        return slope(self, *args)

    monkeypatch.setattr(batch, "_stopped_residual", counted_residual)
    monkeypatch.setattr(batch._Curves, "slope", counted_slope)
    return rounds


def count_curve_evaluations(monkeypatch):
    """[residual evaluations, slope evaluations] of scalar solves: each
    residual reads WaveCurve.v and each slope WaveCurve.slope, once per
    curve of the pair."""
    counts = [0, 0]
    v, slope = WaveCurve.v, WaveCurve.slope

    def counted_v(self, T):
        counts[0] += 0.5
        return v(self, T)

    def counted_slope(self, T):
        counts[1] += 0.5
        return slope(self, T)

    monkeypatch.setattr(WaveCurve, "v", counted_v)
    monkeypatch.setattr(WaveCurve, "slope", counted_slope)
    return counts


def test_default_atlas_takes_at_most_five_lane_rounds(monkeypatch, tmp_path):
    # the lane search runs until its slowest lane stops; the cubic atlas
    # needs no tangency solve, so every round is the middle stress's
    rounds = count_lane_rounds(monkeypatch)
    assert main(["atlas", "--material", "cubic",
                 "--out", str(tmp_path / "atlas.csv")]) == 0
    assert rounds[0] <= 5 and rounds[1] <= 5


def test_scalar_middle_stress_evaluations_on_a_box_pool(monkeypatch):
    counts = count_curve_evaluations(monkeypatch)
    rng = random.Random(2024)
    most = 0.0
    for i in range(400):
        m = (CUBIC, QUINTIC)[i % 2]
        U_l = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        U_r = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        before = counts[0]
        solve(m, U_l, U_r)
        most = max(most, counts[0] - before)
    assert counts[0] <= 3141
    assert counts[1] <= 1960
    assert most <= 10
