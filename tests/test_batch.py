"""solve_many against scalar solve, lane by lane: the same labels, cases and
errors, and middle states within 1e-13 of the pattern's scale.  Also both
paths pinned bit for bit, their exact scaling (and that of the tangency,
thresholds, driving force and fans under them) under power-of-two changes
of units, and the work their middle-stress root finders do."""

import hashlib
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    NoBracket,
    NonMonotone,
    PRESETS,
    RootNotBracketed,
    State,
    Thresholds,
    batch,
    driving_force,
    profile,
    rarefaction_integral,
    riemann,
    sampler,
    solve,
    solve_linear,
    solve_many,
    tangent_point,
    thresholds,
)
from barwaves.cli import _grid, main
from barwaves.riemann import BOUNDARY_TOL
from barwaves.wave_curves import WaveCurve
from conftest import (
    REGION_CASES,
    errors_on_both_paths,
    fault_root_finders,
    inject,
    place,
    wiggle_curves,
)

CUBIC = PRESETS["cubic"]
QUINTIC = PRESETS["quintic"]
NEAR_HYPERBOLIC = Material(1.0, -0.999, 1.0, 1.0, 1.0)


def scalar_outcome(m, U_l, U_r):
    """(T_bar, v_bar, region label, case, T scale, v scale) of scalar solve,
    or the typed error it raises; any other error fails the test.  The
    middle state is where the backward wave ends; the scales are the
    pattern's largest stress and velocity jump."""
    try:
        p = solve(m, U_l, U_r)
    except (NoBracket, NonMonotone, RootNotBracketed) as exc:
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


def test_lanes_reach_every_region():
    # one right state in each of the 30 regions, in one call
    problems, want = [], []
    for U_l, cases in REGION_CASES.items():
        for label, T_mid, T_r in cases:
            U_r = place(CUBIC, U_l, T_mid, T_r)
            problems.append((U_l.T, U_l.v, U_r.T, U_r.v))
            want.append(label)
    sol = assert_parity(CUBIC, problems)
    assert sol.region_label.tolist() == want
    assert len(set(want)) == 30


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
        back = WaveCurve(m, U_l, BACKWARD)
        starts = [U_l]
        if T_l != 0.0:
            # the forward curves from the zero-stress and tangency points
            Tt = tangent_point(m, T_l)
            starts += [State(T, back.v(T)) for T in (0.0, Tt)]
        for T in (-2.9, -1.1, -0.2, 0.7, 2.6):
            # each forward curve is the one ending at (T, 0), shifted
            fwd = WaveCurve(m, State(T, 0.0), FORWARD)
            on = [back.v(T)] + [U.v - fwd.v(U.T) for U in starts]
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


def test_extreme_materials_solve_or_fail_typed_alike():
    # alpha and gamma log-uniform over 1e-30..1e30, rho over 1e-300..1e300
    # and data over 1e-23..1e23: every problem solves or raises a typed
    # error, alike on both paths
    rng = random.Random(26)
    for _ in range(40):
        alpha = 10.0 ** rng.uniform(-30.0, 30.0)
        m = Material(alpha, rng.uniform(-1.0, 0.0) * alpha,
                     10.0 ** rng.uniform(-30.0, 30.0),
                     rng.choice((0.5, 1.0, 1.5, 2.0, 3.5, 8.0)),
                     10.0 ** rng.uniform(-300.0, 300.0))
        assert_parity(m, [tuple(log_uniform(rng, -23.0, 23.0)
                                for _ in range(4)) for _ in range(25)])


def test_flat_seed_slope_takes_the_step_cap():
    # at rho = 1e308 the shock slope's product overflows and reads 0 at
    # the seed, where a Newton step divided by it
    m = Material(1.0, -0.5, 1.0, 1.0, 1e308)
    sol = assert_parity(m, [(-7.831779474195463, -6.629300083610611e-34,
                             -8.424729512545245, -1.3094716185227136e-122)])
    assert sol.region_label[0] == "A10"


def test_tiny_rho_wave_speeds_solve_alike():
    # found by the extreme-material sweep above at random.Random(100):
    # rho*strain_prime underflows to 0 here, so solve's wave speeds take
    # the roots apart
    m = Material(1.714299675934326e-30, -1.1867288832854454e-30,
                 5024390.090506056, 3.5, 8.383455695210854e-296)
    assert_parity(m, [(-7.276433153883162e-22, -1.0476873851579382e-20,
                       1.1723180540927944e-21, -1.1245143589596658e+16)])


@pytest.mark.parametrize("n", [2.0, 1.5, 3.5])
def test_scalar_tangency_overflows_exactly_where_the_lanes_flag(n):
    # where _excess's product reads inf at the anchor, rtsafe on floats
    # would return a wrong tangency (quintic: 0.3229 of the anchor at 1e62,
    # where the ratio is 0.60583), so the scalar takes the lanes' test
    m = Material(1.0, -0.5, 1.0, n, 1.0)
    anchors = -np.logspace(0.0, 160.0, 8001)
    with np.errstate(all="ignore"):
        _, flagged = batch._tangency(m, anchors)

    def raises(A):
        try:
            tangent_point(m, A)
        except OverflowError:
            return True
        return False

    assert 1000 < np.count_nonzero(flagged) < 7000
    assert [raises(A) for A in anchors.tolist()] == flagged.tolist()


def test_a_call_whose_every_lane_overflows_reports_each_error():
    sol = assert_parity(QUINTIC, [(-1e80, 0.0, 1.0, 0.0)])
    assert isinstance(sol.error[0], NoBracket)
    assert "overflow" in str(sol.error[0])


def lane_outcome(sol, i):
    """Lane i of a solve_many result, NaN-safe for comparison."""
    return (sol.T_bar[i].tobytes(), sol.v_bar[i].tobytes(),
            sol.region_label[i], sol.zero_velocity_case[i],
            repr(sol.error[i]))


@pytest.mark.parametrize("m", [QUINTIC, Material(1.0, -0.5, 1.0, 1.5, 1.0)],
                         ids=["quintic", "n=1.5"])
def test_a_lane_alone_equals_its_lane_in_a_large_call(m):
    # a lane's result must not depend on the rest of its call; a dot
    # product's rounding, for one, depends on the number of rows
    rng = random.Random(13)
    problems = [(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
                for _ in range(150)]
    problems += [tuple(log_uniform(rng, -3.0, 2.0) for _ in range(4))
                 for _ in range(100)]
    problems += [(rng.uniform(-3.0, 3.0), 0.0, rng.uniform(-3.0, 3.0), 0.0)
                 for _ in range(50)]
    rng.shuffle(problems)
    sol = solve_many(m, *np.array(problems).T)
    for i, problem in enumerate(problems):
        alone = solve_many(m, *np.array([problem]).T)
        assert lane_outcome(alone, 0) == lane_outcome(sol, i), problem


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
    # linear lanes at magnitudes 1e-9..1e9 take solve_linear's middle state
    # bit for bit: both paths evaluate riemann._linear_middle
    rng = random.Random(25)
    for m in (PRESETS["linear"], Material.linear(2.5, -0.3, 7.0),
              Material.linear(1e-3, -0.9e-3, 1e3)):
        problems = [[log_uniform(rng, -9.0, 9.0) for _ in range(4)]
                    for _ in range(300)]
        sol = solve_many(m, *np.array(problems).T)
        for i, (T_l, v_l, T_r, v_r) in enumerate(problems):
            wave = solve_linear(m, State(T_l, v_l), State(T_r, v_r)).waves[0]
            mid = wave.right if wave.family == BACKWARD else wave.left
            assert sol.region_label[i] == "linear"
            assert (sol.T_bar[i].tobytes(), sol.v_bar[i].tobytes()) == (
                np.float64(mid.T).tobytes(), np.float64(mid.v).tobytes())


# Faults written once and injected into both paths (conftest): off every
# dividing curve the root finder runs, and from a seed on one side of
# the root the bracket search widens.
OFF_CURVE = (State(-1.0, 0.3), State(1.2, -2.0))
ONE_SIDED = (State(-1.0, 0.3), State(1.2, -6.0))


def test_missed_gate_is_the_lanes_error(monkeypatch):
    # a root finder that returns the low end of its bracket
    fault_root_finders(monkeypatch, lambda root, lo, hi: lo)
    scalar, lane = errors_on_both_paths(CUBIC, *OFF_CURVE)
    pattern = (r"middle-stress residual (\S+) "
               + re.escape(f"between {OFF_CURVE[0]} and {OFF_CURVE[1]}")
               + " misses the tolerance")
    got = re.fullmatch(pattern, str(lane))
    want = re.fullmatch(pattern, str(scalar))
    assert got and want
    assert float(got[1]) == pytest.approx(float(want[1]), rel=1e-14)


def test_non_monotone_samples_are_the_lanes_error(monkeypatch):
    # a wiggle of opposite sign on the two curves (s = 1 backward, -1
    # forward here) that does not cancel in the residual
    wiggle_curves(monkeypatch)
    scalar, lane = errors_on_both_paths(CUBIC, *OFF_CURVE)
    assert str(lane) == str(scalar) == (
        "sampled residuals are not monotone in the middle stress between "
        f"{OFF_CURVE[0]} and {OFF_CURVE[1]}")


def test_unbracketed_lane_is_the_lanes_error(monkeypatch):
    # a bracket search that meets NaN at its first doubling
    inject(monkeypatch, riemann, "_widen", lambda widen: lambda *args: (
        2 + 0 * widen(*args)[0], *widen(*args)[1:]))
    scalar, lane = errors_on_both_paths(CUBIC, *ONE_SIDED)
    assert str(lane) == str(scalar) == (
        f"no bracket for the middle stress between {ONE_SIDED[0]} and "
        f"{ONE_SIDED[1]}")


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


def test_quintic_lanes_equal_solve_bit_for_bit():
    # the integer-n law, the tangency and the fan are + - * / and sqrt
    # alone, which numpy's loops round as math does (IEEE 754), so every
    # quintic lane equals its scalar solve; the power forms differed on
    # 225 of these 6543 problems where numpy's SIMD routines round apart
    for seed in range(3):
        pool = pinned_pool(seed)
        sol = solve_many(QUINTIC, *np.array(pool, dtype=float).T)
        for i, (a, b, c, d) in enumerate(pool):
            want = scalar_outcome(QUINTIC, State(a, b), State(c, d))
            where = f"lane {i} of pool {seed}: {(a, b, c, d)}"
            if isinstance(want, Exception):
                assert repr(sol.error[i]) == repr(want), where
                continue
            assert sol.error[i] is None, where
            assert (float(sol.T_bar[i]), float(sol.v_bar[i]),
                    sol.region_label[i], sol.zero_velocity_case[i]) == (
                        want[:4]), where


#: The tests of quintic output bit for bit, the FV ones included.
QUINTIC_PINS = [
    "tests/test_batch.py::test_solve_output_is_pinned"
    "[quintic-solve-solve_digest]",
    "tests/test_batch.py::test_solve_output_is_pinned"
    "[quintic-solve_many-solve_many_digest]",
    "tests/test_batch.py::test_quintic_lanes_equal_solve_bit_for_bit",
    "tests/test_cli.py::test_profile_bytes_are_pinned"
    "[profile --material quintic --tl -1 --tr 0.8 --vr -3 --count 401]",
    "tests/test_verify.py::test_fv_reference_output_is_pinned"
    "[oracle-1 cells=200]",
    "tests/test_verify.py::test_fv_reference_output_is_pinned"
    "[oracle-4 cells=200]",
]


def test_quintic_pins_hold_without_numpy_simd_routines():
    # numpy computes arcsinh, expm1, log1p and power by its own AVX-512
    # routines where the host has them, and they round apart from libm's;
    # switched off in a child process, they stand in for a host without
    # AVX-512.  The quintic output takes none of them: its pins hold
    # either way (the cubic fans keep numpy's arcsinh, and n = 1.5 its
    # power)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *QUINTIC_PINS], cwd=root, env=env, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(QUINTIC_PINS)} passed" in run.stdout, run.stdout


# ---------------------------------------------------------------------------
# exact scaling: with T = c*S, v = V*w and speeds X times those of the unit
# material (1, r, 1, n, 1), where c = gamma**-0.5, V = c*sqrt(alpha/rho) and
# X = (rho*alpha)**-0.5, a solve is the unit solve in scaled units


#: the unit materials (1, r, 1, n, 1), and the scalings (p, j, q) to alpha =
#: 4**p, gamma = 4**j and rho = 4**q, so c = 2**-j, V = 2**(p - q - j) and
#: X = 2**(-p - q)
SCALED_MATERIALS = [(-0.5, 1.0), (-0.5, 2.0), (-0.9, 1.5), (-0.2, 3.5)]
SCALINGS = ((1, -3, 2), (-2, 5, 0), (3, 1, -4))


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


@pytest.mark.parametrize("r,n", SCALED_MATERIALS)
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
    unit_profiles = [profile(p, -4.0, 4.0, 201) for p in unit_patterns[:20]]
    for p, j, q in SCALINGS:
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
        for i, ((a, b, d, e), base) in enumerate(zip(scaled, unit_patterns)):
            got = solve(m, State(a, b), State(d, e))
            where = (r, n, p, j, q, a, b, d, e)
            assert got.region_label == base.region_label, where
            assert got.zero_velocity_case == base.zero_velocity_case, where
            assert [(s.T, s.v) for s in got.middle_states] == [
                (c * s.T, V * s.v) for s in base.middle_states], where
            assert [(w.speed_head, w.speed_tail) for w in got.waves] == [
                (X * w.speed_head, X * w.speed_tail)
                for w in base.waves], where
            if i < len(unit_profiles):
                # the sampler's fans read knots that scale with c
                want = unit_profiles[i]
                prof = profile(got, -4.0 * X, 4.0 * X, 201)
                assert prof.xi.tolist() == (X * want.xi).tolist(), where
                assert prof.T.tolist() == (c * want.T).tolist(), where
                assert prof.v.tolist() == (V * want.v).tolist(), where


@pytest.mark.parametrize("r,n", SCALED_MATERIALS)
def test_power_of_two_units_scale_the_material_layers_exactly(r, n):
    # the layers under the solve, under the changes of units above: the
    # tangency stress and both thresholds scale with c, the strain with
    # alpha*c, so the driving force with alpha*c**2, and a fan with V
    rng = random.Random(12)
    pairs = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
             for _ in range(100)]
    pairs += [(log_uniform(rng, -4.0, 2.0), log_uniform(rng, -4.0, 2.0))
              for _ in range(100)]
    unit = Material(1.0, r, 1.0, n, 1.0)
    base = [(tangent_point(unit, a), thresholds(unit, a),
             driving_force(unit, a, b), rarefaction_integral(unit, a, b))
            for a, b in pairs]
    for p, j, q in SCALINGS:
        alpha = 4.0 ** p
        m = Material(alpha, r * alpha, 4.0 ** j, n, 4.0 ** q)
        c, V = 2.0 ** -j, 2.0 ** (p - q - j)
        for (a, b), (Tt, th, D, fan) in zip(pairs, base):
            where = (r, n, p, j, q, a, b)
            assert tangent_point(m, c * a) == c * Tt, where
            assert thresholds(m, c * a) == Thresholds(
                c * th.T_star, c * th.T_star_star), where
            assert driving_force(m, c * a, c * b) == alpha * c * c * D, where
            assert rarefaction_integral(m, c * a, c * b) == V * fan, where


# ---------------------------------------------------------------------------
# work counts of the whole middle-stress search (dividing samples, bracket
# widening, the Hermite start, rtsafe and a final sample at the root), as
# upper bounds at the counts measured when rtsafe got the Hermite start


def count_lane_rounds(monkeypatch):
    """[residual rounds, slope rounds] of solve_many: each call of the
    residual the root finders see (after the dividing samples) is a round,
    and each slope call, which takes both curves of every lane, stacked or
    not, is a round."""
    rounds = [0, 0]
    stopped, slope = batch._stopped_residual, batch._Curves.slope

    def counted_residual(*args):
        rounds[0] += 1
        return stopped(*args)

    def counted_slope(self, *args):
        rounds[1] += 1
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


def test_default_atlas_evaluates_both_curves_in_one_call(monkeypatch,
                                                       tmp_path):
    # one _Curves call per residual or slope round takes both families:
    # the dividing samples, the bracket, the Hermite start and rtsafe
    calls = [0, 0]
    v, slope = batch._Curves.v, batch._Curves.slope

    def counted_v(self, *args):
        calls[0] += 1
        return v(self, *args)

    def counted_slope(self, *args):
        calls[1] += 1
        return slope(self, *args)

    monkeypatch.setattr(batch._Curves, "v", counted_v)
    monkeypatch.setattr(batch._Curves, "slope", counted_slope)
    assert main(["atlas", "--material", "cubic",
                 "--out", str(tmp_path / "atlas.csv")]) == 0
    assert calls[0] <= 7 and calls[1] <= 5


def test_lane_rtsafe_work_on_an_n3_grid_and_profile(monkeypatch):
    # (calls, lanes evaluated) of fn and dfn in every lane rtsafe, batch's
    # and sampler's: integer n runs on + - * / and sqrt alone, so the
    # counts hold on every host
    sizes = {"fn": [], "dfn": []}
    rtsafe = batch._newton_bisect_many

    def counted(fn, dfn, *ends):
        def fn_lanes(pos, x):
            sizes["fn"].append(pos.size)
            return fn(pos, x)

        def dfn_lanes(pos, x):
            sizes["dfn"].append(pos.size)
            return dfn(pos, x)

        return rtsafe(fn_lanes, dfn_lanes, *ends)

    def work():
        done = {name: (len(v), sum(v)) for name, v in sizes.items()}
        for v in sizes.values():
            v.clear()
        return done

    for module in (batch, sampler):
        monkeypatch.setattr(module, "_newton_bisect_many", counted)
    m = Material(1.0, -0.5, 1.0, 3.0, 1.0)
    T_l, T_r = np.meshgrid(np.linspace(-3.0, 3.0, 21),
                           np.linspace(-3.0, 3.0, 21))
    solve_many(m, T_l.ravel(), 0.0, T_r.ravel(), 0.0)
    assert work() == {"fn": (11, 6030), "dfn": (13, 6881)}
    profile(solve(m, State(-1.0, 0.0), State(1.5, 0.0)), -3.0, 3.0, 2001)
    assert work() == {"fn": (5, 340), "dfn": (6, 376)}


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
