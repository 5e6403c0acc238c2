import math
import random

import mpmath
import numpy as np
import pytest

from barwaves import (
    BACKWARD,
    PRESETS,
    RAREFACTION,
    Material,
    State,
    profile,
    rarefaction_integral,
    sample,
    solve,
    wave_speed,
)
from barwaves import sampler
from barwaves.cli import continuity_probe
from barwaves.verify import fv_reference


@pytest.fixture()
def case_one(cubic):
    return solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))


def test_constant_states_outside_wave_range(cubic, case_one):
    first = case_one.waves[0].speed_head
    last = case_one.waves[-1].speed_tail
    assert sample(case_one, first - 1.0) == case_one.left_state
    assert sample(case_one, last + 1.0) == case_one.right_state


def test_empty_pattern_profile_is_constant(cubic):
    p = solve(cubic, State(0.4, 1.0), State(0.4, 1.0))
    prof = profile(p, -1.0, 1.0, 5)
    assert len(prof.xi) == 5
    assert all(prof.T == 0.4) and all(prof.v == 1.0)


def test_fan_inversion_residual(cubic, case_one):
    fan = case_one.waves[0]
    assert fan.kind == RAREFACTION
    for frac in (0.1, 0.35, 0.5, 0.77, 0.93):
        xi = fan.speed_head + frac * (fan.speed_tail - fan.speed_head)
        s = sample(case_one, xi)
        assert abs(wave_speed(cubic, s.T, fan.family) - xi) < 1e-12


def test_fan_edges_reproduce_end_states(cubic, case_one):
    fan = case_one.waves[0]
    at_head = sample(case_one, fan.speed_head)
    at_tail = sample(case_one, fan.speed_tail)
    assert at_head.T == pytest.approx(fan.left.T, abs=1e-10)
    assert at_head.v == pytest.approx(fan.left.v, abs=1e-10)
    assert at_tail.T == pytest.approx(fan.right.T, abs=1e-10)
    assert at_tail.v == pytest.approx(fan.right.v, abs=1e-10)


def test_fan_monotone_in_similarity_coordinate(cubic):
    p = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))  # has a backward fan
    fan = next(w for w in p.waves if w.kind == RAREFACTION)
    xs = [fan.speed_head + (fan.speed_tail - fan.speed_head) * i / 50
          for i in range(51)]
    Ts = [sample(p, x).T for x in xs]
    diffs = [b - a for a, b in zip(Ts, Ts[1:])]
    assert all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)


def test_shock_position_returns_right_limit(cubic, case_one):
    shock = case_one.waves[-1]
    s = sample(case_one, shock.speed_head)
    assert s == shock.right
    just_left = sample(case_one, shock.speed_head - 1e-9)
    assert just_left.T == pytest.approx(shock.left.T, abs=1e-6)


def test_case_one_profile_has_single_jump(cubic, case_one):
    shock = case_one.waves[-1]
    jump = abs(shock.right.T - shock.left.T)
    prof = profile(case_one, -2.0, 2.0, 201)
    idx = prof.xi.tolist().index(shock.speed_head)
    assert prof.T[idx] - prof.T[idx - 1] == pytest.approx(-jump, abs=1e-4)


def test_profile_grid_and_edges(cubic, case_one):
    prof = profile(case_one, -2.0, 2.0, 101)
    edges = {w.speed_head for w in case_one.waves}
    edges |= {w.speed_tail for w in case_one.waves}
    assert len(prof.xi) == 101 + len(edges)
    assert all(b > a for a, b in zip(prof.xi, prof.xi[1:]))
    for e in edges:
        assert e in prof.xi
    assert State(prof.T[0], prof.v[0]) == case_one.left_state
    assert State(prof.T[-1], prof.v[-1]) == case_one.right_state


def test_profile_keeps_its_grid_on_a_narrow_window(cubic):
    # the merge tolerance is relative to the span: an absolute floor of
    # 1e-14 merged this 401-point grid of spacing 2.5e-15 to 88 points
    p = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))
    prof = profile(p, 0.1, 0.1 + 1e-12, 401)
    assert len(prof.xi) >= 401
    assert np.all(np.diff(prof.xi) > 0.0)


def test_profile_argument_validation(cubic, case_one):
    with pytest.raises(ValueError):
        profile(case_one, 1.0, -1.0, 10)
    with pytest.raises(ValueError):
        profile(case_one, -1.0, 1.0, 1)


@pytest.mark.parametrize("xi_min,xi_max,name", [
    (-1.0, math.inf, "xi_max"),
    (-math.inf, 1.0, "xi_min"),
    (math.nan, 1.0, "xi_min"),
    (-1.0, math.nan, "xi_max"),
])
def test_profile_rejects_non_finite_bounds(case_one, xi_min, xi_max, name):
    with pytest.raises(ValueError, match=name):
        profile(case_one, xi_min, xi_max, 11)


@pytest.mark.parametrize("real", [float, np.float64])
def test_profile_rejects_an_overflowing_span(case_one, real):
    with pytest.raises(ValueError, match="span"):
        profile(case_one, real(-1e308), real(1e308), 11)


@pytest.mark.parametrize("count", [2.5, math.nan, 2.0, "11", 0, -3])
def test_profile_requires_an_integer_count_of_two_or_more(case_one, count):
    with pytest.raises(ValueError, match="count"):
        profile(case_one, -1.0, 1.0, count)


def test_profile_fields_are_read_only_float_arrays(cubic, case_one):
    fv = fv_reference(cubic, State(-0.5, 0.0), State(-1.0, 0.0),
                      cells=64, cfl=0.5, t_end=0.3)
    for prof in (profile(case_one, -2.0, 2.0, 11), fv):
        fields = (prof.xi, prof.T, prof.v)
        assert len({a.shape for a in fields}) == 1
        for a in fields:
            assert isinstance(a, np.ndarray)
            assert a.ndim == 1 and a.dtype == np.float64
            assert not a.flags.writeable
        assert np.all(np.diff(prof.xi) > 0.0)
    # the finite-volume fields own their data, not the step's buffer
    assert all(a.base is None for a in (fv.xi, fv.T, fv.v))


def test_sampling_linear_contacts(linear):
    p = solve(linear, State(1.0, 0.0), State(0.2, 0.0))
    c = p.waves[1].speed_head
    mid = p.middle_states[0]
    assert sample(p, 0.0) == mid
    assert sample(p, c) == p.right_state  # right limit at the jump
    assert sample(p, c - 1e-12) == mid


def test_composite_sampling_is_a_function_of_xi(cubic):
    # composite forward wave: fan tail and degenerate shock share one ray
    p = solve(cubic, State(-1.0, 0.0), State(0.8, -2.9))
    fan = next(w for w in p.waves
               if w.kind == RAREFACTION and w.family != BACKWARD)
    shock = p.waves[-1]
    assert shock.speed_head == pytest.approx(fan.speed_tail, rel=1e-12)
    at_ray = sample(p, shock.speed_head)
    assert at_ray == shock.right


def test_sample_at_infinity_gives_the_end_states(case_one):
    assert sample(case_one, -math.inf) == case_one.left_state
    assert sample(case_one, math.inf) == case_one.right_state


def test_sample_rejects_nan(case_one):
    with pytest.raises(ValueError, match="xi"):
        sample(case_one, math.nan)


# ---------------------------------------------------------------------------
# fan points on lanes, against the constitutive functions


def _fan_problems():
    """Seeded problems with at least one fan, on four materials: outward
    backward fans, inward forward fans, composites and T_l = 0."""
    rng = random.Random(2024)
    mats = [PRESETS["cubic"], PRESETS["quintic"],
            Material(1.0, -0.5, 1.0, 1.5, 1.0),
            Material(1.0, -0.5, 1.0, 3.5, 1.0)]
    problems = []
    while len(problems) < 60:
        m = mats[len(problems) % len(mats)]
        T_l = 0.0 if rng.random() < 0.1 else rng.uniform(-2.0, 2.0)
        U_l = State(T_l, rng.choice((0.0, rng.uniform(-2.0, 2.0))))
        U_r = State(rng.uniform(-2.0, 2.0),
                    rng.choice((0.0, rng.uniform(-2.0, 2.0))))
        p = solve(m, U_l, U_r)
        if any(w.kind == RAREFACTION for w in p.waves):
            problems.append(p)
    return problems


FAN_PATTERNS = _fan_problems()


def _scales(p):
    """Largest stress, and largest velocity or velocity jump, of p."""
    ends = [s for w in p.waves for s in (w.left, w.right)]
    return (max(abs(s.T) for s in ends),
            max([abs(s.v) for s in ends]
                + [abs(w.right.v - w.left.v) for w in p.waves]))


@pytest.mark.parametrize("p", FAN_PATTERNS)
def test_profile_fan_points_sit_on_their_characteristic(p):
    m = p.material
    speeds = [s for w in p.waves for s in (w.speed_head, w.speed_tail)]
    prof = profile(p, min(speeds) - 0.5, max(speeds) + 0.5, 4001)
    _, v_scale = _scales(p)
    fans = [w for w in p.waves if w.kind == RAREFACTION]
    checked = 0
    for fan in fans:
        sigma = -1.0 if fan.family == BACKWARD else 1.0
        for xi, T, v in zip(prof.xi.tolist(), prof.T.tolist(),
                            prof.v.tolist()):
            if not fan.speed_head < xi < fan.speed_tail:
                continue
            checked += 1
            assert abs(wave_speed(m, T, fan.family) - xi) <= 1e-13 * abs(xi)
            v_fan = fan.left.v - sigma * rarefaction_integral(m, fan.left.T, T)
            assert abs(v - v_fan) <= 1e-14 * v_scale
    spacing = (prof.xi[-1] - prof.xi[0]) / 4000
    assert checked or all(w.speed_tail - w.speed_head < 2.0 * spacing
                          for w in fans)


@pytest.mark.parametrize("p", FAN_PATTERNS[:12])
def test_sample_is_the_profile_at_one_point(p):
    # constant states are exact; fan states agree to roundoff (numpy may
    # round a lane of one differently from a longer one)
    speeds = [s for w in p.waves for s in (w.speed_head, w.speed_tail)]
    prof = profile(p, min(speeds) - 0.5, max(speeds) + 0.5, 301)
    T_scale, v_scale = _scales(p)
    fans = [w for w in p.waves if w.kind == RAREFACTION]
    for xi, T, v in zip(prof.xi.tolist(), prof.T.tolist(), prof.v.tolist()):
        one = sample(p, xi)
        if any(w.speed_head < xi < w.speed_tail for w in fans):
            assert abs(one.T - T) <= 1e-14 * T_scale
            assert abs(one.v - v) <= 1e-14 * v_scale
        else:
            assert one.T == T and one.v == v


def test_continuity_probe_is_unchanged(cubic):
    # the value of the point-by-point sampler this lane sampler replaced
    assert continuity_probe(cubic) == pytest.approx(2.000000000279556e-06,
                                                    rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# the n = 1 fan state in closed form


def test_n1_and_n2_fan_states_take_no_rtsafe(monkeypatch):
    # the cubic and quintic fan states are closed-form; at n = 1.5 the
    # sampler takes one lane rtsafe per fan of the call (the fvcheck data:
    # one forward fan)
    calls = []
    rtsafe = sampler._newton_bisect_many

    def counted(*args):
        calls.append(args[2].size)
        return rtsafe(*args)

    monkeypatch.setattr(sampler, "_newton_bisect_many", counted)
    for m, want in ((PRESETS["cubic"], []), (PRESETS["quintic"], []),
                    (Material(1.0, -0.5, 1.0, 1.5, 1.0), [1, 13])):
        calls.clear()
        p = solve(m, State(-1.3, 0.0), State(0.9, 0.0))
        fan = next(w for w in p.waves if w.kind == RAREFACTION)
        sample(p, 0.5 * (fan.speed_head + fan.speed_tail))
        profile(p, -3.0, 3.0, 4001)
        assert calls == want, m


def seeded_fans(m, seed, zero_end):
    """Eight fans with distinct edges of seeded zero-velocity solutions on
    m, with data stresses up to 2/sqrt(gamma); with zero_end, every fan
    has an end at T = 0."""
    rng = random.Random(seed)
    scale = 2.0 / math.sqrt(m.gamma)
    fans = []
    while len(fans) < 8:
        T_l = rng.uniform(-scale, scale)
        T_r = 0.0 if zero_end else rng.uniform(-scale, scale)
        if zero_end and rng.random() < 0.5:
            T_l, T_r = T_r, T_l
        p = solve(m, State(T_l, 0.0), State(T_r, 0.0))
        fans += [(p, w) for w in p.waves if w.kind == RAREFACTION
                 and w.speed_head < w.speed_tail
                 and (not zero_end or 0.0 in (w.left.T, w.right.T))]
    return fans[:8]


def fan_stress_errors(m, fans):
    """Worst error of the closed-form fan stress and of lane rtsafe (the
    sampler's route for other n) against 50-digit mpmath, at 200 rays per
    fan of an n = 1 or n = 2 material: relative, and relative over the
    condition number S/(u*dS/du) of the stress as a function of the ray,
    where u = T**2 and S = strain_prime = a0 + a1*u + a2*u**2."""
    worst = {"closed": [0.0, 0.0], "rtsafe": [0.0, 0.0]}
    with mpmath.workdps(50):
        alpha, gamma = mpmath.mpf(m.alpha), mpmath.mpf(m.gamma)
        a0 = alpha + mpmath.mpf(m.beta)
        a1 = 1.5 * m.n * alpha * gamma
        a2 = 1.25 * (m.n - 1) * alpha * gamma ** 2
        for p, w in fans:
            xi = np.linspace(w.speed_head, w.speed_tail, 202)[1:-1]
            xi = xi[(w.speed_head < xi) & (xi < w.speed_tail)]
            sigma = -1.0 if w.family == BACKWARD else 1.0
            sign = math.copysign(1.0, w.left.T + w.right.T)
            with np.errstate(divide="ignore", invalid="ignore"):
                got = {"closed": sampler._closed_fan_stress(
                           m, w.left.T, w.right.T, xi),
                       "rtsafe": sampler._fan_stress(
                           m, w.left.T, w.right.T, sigma, xi)}
            for i, x in enumerate(xi.tolist()):
                X = mpmath.mpf(x)
                rise = 1 / (m.rho * X * X) - a0
                u = 2 * rise / (a1 + mpmath.sqrt(a1 * a1 + 4 * a2 * rise))
                want = sign * mpmath.sqrt(u)
                cond = (a0 + rise) / (u * (a1 + 2 * a2 * u))
                for name, T in got.items():
                    rel = float(abs((T[i] - want) / want))
                    worst[name][0] = max(worst[name][0], rel)
                    worst[name][1] = max(worst[name][1], float(rel / cond))
    return worst


@pytest.mark.parametrize("m", [
    PRESETS["cubic"],
    Material(1.0, -0.999, 1.0, 1.0, 1.0),
    Material(4.0, -2.0, 4.0 ** -3, 1.0, 4.0 ** 2),
], ids=["cubic", "near-hyperbolic", "power-of-two-scaled"])
@pytest.mark.parametrize("zero_end", [False, True], ids=["", "zero-end"])
def test_n1_fan_stress_is_as_accurate_as_rtsafe(m, zero_end):
    # toward T = 0 the condition number grows without bound and every
    # method loses digits, so the error over it is the measure that stays
    # bounded; the closed form is within one ulp there
    worst = fan_stress_errors(m, seeded_fans(m, 7, zero_end))
    assert worst["closed"][0] <= worst["rtsafe"][0]
    assert worst["closed"][1] <= worst["rtsafe"][1]
    assert worst["closed"][1] <= math.ulp(1.0)


@pytest.mark.parametrize("m", [
    PRESETS["quintic"],
    Material(1.0, -0.999, 1.0, 2.0, 1.0),
], ids=["quintic", "near-hyperbolic"])
@pytest.mark.parametrize("zero_end", [False, True], ids=["", "zero-end"])
def test_n2_fan_stress_is_as_accurate_as_rtsafe(m, zero_end):
    # lane rtsafe inherits the cancellation of strain_prime = beta +
    # alpha*(...) near alpha + beta = 0; the closed form takes alpha +
    # beta once.  The root of the quadratic adds roundings that the
    # condition number does not scale, so its bound is two ulps, not one
    worst = fan_stress_errors(m, seeded_fans(m, 7, zero_end))
    assert worst["closed"][0] <= worst["rtsafe"][0]
    assert worst["closed"][1] <= worst["rtsafe"][1]
    assert worst["closed"][1] <= 2.0 * math.ulp(1.0)


def test_rtsafe_fan_stress_is_accurate_near_hyperbolicity_loss():
    # n = 3 keeps lane rtsafe, on strain_prime = (alpha + beta) +
    # alpha*w*P(w), which takes alpha + beta once; the power form's
    # beta + alpha*q**(n - 1)*(...) cancelled near alpha + beta = 0 and
    # read 446 ulps over the condition number here (851 on zero-end fans)
    m = Material(1.0, -0.999, 1.0, 3.0, 1.0)
    for zero_end in (False, True):
        worst = 0.0
        with mpmath.workdps(50):
            alpha, beta, gamma, n, rho = map(
                mpmath.mpf, (m.alpha, m.beta, m.gamma, m.n, m.rho))

            def slope_and_rise(u):
                # strain_prime and d(strain_prime)/du in u = T**2
                q = 1 + gamma * u / 2
                c = (1 + 2 * n) * gamma / 2
                return (beta + alpha * q ** (n - 1) * (1 + c * u),
                        alpha * q ** (n - 2) * ((n - 1) * gamma / 2
                                                * (1 + c * u) + q * c))

            for p, w in seeded_fans(m, 7, zero_end):
                xi = np.linspace(w.speed_head, w.speed_tail, 202)[1:-1]
                xi = xi[(w.speed_head < xi) & (xi < w.speed_tail)]
                sigma = -1.0 if w.family == BACKWARD else 1.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = sampler._fan_stress(m, w.left.T, w.right.T, sigma,
                                              xi)
                for T, x in zip(got.tolist(), xi.tolist()):
                    target = 1 / (rho * mpmath.mpf(x) ** 2)
                    # Newton in 50 digits from the float stress
                    u = mpmath.mpf(T) ** 2
                    for _ in range(6):
                        S, dS = slope_and_rise(u)
                        u -= (S - target) / dS
                    S, dS = slope_and_rise(u)
                    assert abs(S - target) <= 1e-40 * target
                    rel = abs(abs(T) / mpmath.sqrt(u) - 1)
                    worst = max(worst, float(rel * u * dS / S))
        assert worst <= 2.0 * math.ulp(1.0), zero_end


def fan_edges_checked(n):
    """Fans of seeded materials of exponent n checked eight ulps from each
    edge: their sampled stresses stay within the fan and are finite."""
    rng = random.Random(1)
    checked = 0
    for _ in range(3000):
        alpha = 10.0 ** rng.uniform(-3.0, 3.0)
        m = Material(alpha, -alpha * rng.uniform(0.01, 0.999),
                     10.0 ** rng.uniform(-3.0, 3.0), n,
                     10.0 ** rng.uniform(-3.0, 3.0))
        scale = 2.0 / math.sqrt(m.gamma)
        T_l = rng.uniform(-scale, scale)
        T_r = rng.choice((0.0, rng.uniform(-scale, scale)))
        p = solve(m, State(T_l, 0.0), State(T_r, 0.0))
        for w in p.waves:
            if w.kind != RAREFACTION or not w.speed_head < w.speed_tail:
                continue
            xi = []
            for edge, inward in ((w.speed_head, w.speed_tail),
                                 (w.speed_tail, w.speed_head)):
                for _ in range(8):
                    edge = math.nextafter(edge, inward)
                    xi.append(edge)
            T, v = sampler._sample_lanes(p, np.array(xi))
            lo, hi = sorted((w.left.T, w.right.T))
            assert np.all((lo <= T) & (T <= hi) & np.isfinite(v)), w
            checked += 1
    return checked


def test_n1_fan_states_next_to_the_edges_stay_within_the_fan():
    # within a few ulps of an edge the radicand can round below 0 (at a
    # T = 0 end) and the root past the end stress, on constants that are
    # not powers of two
    assert fan_edges_checked(1.0) > 2000


def test_n2_fan_states_next_to_the_edges_stay_within_the_fan():
    assert fan_edges_checked(2.0) > 2000
