import json
import math
import random
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    MaterialError,
    PRESETS,
    RootNotBracketed,
    driving_force,
    invert_strain,
    load_material,
    rarefaction_integral,
    strain,
    strain_prime,
    strain_second,
    tangent_point,
    wave_speed,
)
from barwaves import material
from barwaves.batch import _NODES, _WEIGHTS
from barwaves.material import (
    _GL_RULE,
    _FanTable,
    _excess,
    _fan_panel,
    _horner,
    _quintic_tangency_start,
)
from barwaves.verify import residual_slope_rows, strain_residual_slope
from conftest import cubic_fan_integral, driving_force_integral, make_material

stress = st.floats(-5.0, 5.0)
#: |T| log-uniform over 1e-300..1e50, either sign
wide_stress = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-300.0, 50.0),
                        st.sampled_from((-1.0, 1.0)))


# ---------------------------------------------------------------------------
# constitutive functions


def test_strain_zero(cubic, quintic):
    assert strain(cubic, 0.0) == 0.0
    assert strain(quintic, 0.0) == 0.0


def test_strain_cubic_hand_value(cubic):
    # beta*T + alpha*(1 + gamma*T^2/2)^n * T = -1 + 2*2 at T = 1
    assert strain(cubic, 1.0) == pytest.approx(3.0, abs=1e-15)


@given(T=stress)
@settings(deadline=None)
def test_strain_odd(cubic, quintic, T):
    for m in (cubic, quintic):
        assert strain(m, -T) == pytest.approx(-strain(m, T), abs=1e-14)


def test_strain_prime_at_zero(cubic, quintic):
    assert strain_prime(cubic, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert strain_prime(quintic, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_strain_prime_cubic_hand_value(cubic):
    assert strain_prime(cubic, 1.0) == pytest.approx(7.0, abs=1e-14)


def test_strain_prime_matches_finite_difference(cubic, quintic):
    # centered difference with the cube-root-of-eps step
    for m in (cubic, quintic):
        for k in range(-12, 13):
            T = math.copysign(10.0 ** (abs(k) / 4.0 - 2.0), k) if k else 0.0
            h = 6e-6 * max(1.0, abs(T))
            fd = (strain(m, T + h) - strain(m, T - h)) / (2.0 * h)
            assert fd == pytest.approx(strain_prime(m, T), rel=1e-8)


@given(T=stress)
@settings(deadline=None)
def test_strain_prime_positive_and_even(cubic, quintic, T):
    for m in (cubic, quintic):
        assert strain_prime(m, T) > 0.0
        assert strain_prime(m, -T) == pytest.approx(strain_prime(m, T),
                                                    rel=1e-14)


def residual_slope_stresses(m):
    """Stresses of both signs, log-spaced over 1e-8..1e3, and those where
    q = 1 + gamma*T**2/2 runs through 1..100 in 2001 even steps: there
    numpy's power with an array exponent rounds differently from its
    Python-float exponent (on 166 of the quintic preset's 4002 values), so
    an array of n in strain_residual_slope fails the test below."""
    mags = np.logspace(-8.0, 3.0, 221)
    if not m.linear_mode:
        q = np.linspace(1.0, 100.0, 2001)
        mags = np.concatenate((mags, np.sqrt(2.0 * (q - 1.0) / m.gamma)))
    return np.concatenate(([0.0], mags, -mags))


@pytest.mark.parametrize("m", [
    *PRESETS.values(),
    # constants that are not powers of two, so that no product is exact
    *(Material(1.3, -0.7, 0.9, n, 1.0) for n in (0.5, 1.5, 3.0, 3.5, 20.0)),
    Material(1.0, -0.999, 1.0, 1.0, 1.0),
], ids=[*PRESETS, "n=0.5", "n=1.5", "n=3", "n=3.5", "n=20", "near-hyperbolic"])
def test_strain_residual_slope_is_strain_and_strain_prime_bit_for_bit(m):
    # the array pass and the two kernels evaluated on the same array: a
    # fix to one formula must land in both (numpy's power can differ from
    # math's by an ulp, so Python-float calls are not compared)
    T = residual_slope_stresses(m)
    r, slope, tmp = np.empty((3, T.size))
    k = residual_slope_rows(m, T.size)
    for eps in (np.zeros(T.size), strain(m, T[::-1])):
        strain_residual_slope(m, T, eps, r, slope, tmp, k)
        assert r.tobytes() == (strain(m, T) - eps).tobytes()
        assert slope.tobytes() == strain_prime(m, T).tobytes()
    # the powers of exponent 1 and 0 that the pass skips keep inf and NaN
    # too: stresses whose q overflows, and non-finite ones
    T = np.array([1e200, -1e200, math.inf, -math.inf, math.nan])
    r, slope, tmp = np.empty((3, T.size))
    k = residual_slope_rows(m, T.size)
    with np.errstate(over="ignore", invalid="ignore"):
        strain_residual_slope(m, T, np.zeros(T.size), r, slope, tmp, k)
        assert r.tobytes() == strain(m, T).tobytes()
        assert slope.tobytes() == strain_prime(m, T).tobytes()


@pytest.mark.parametrize("m", [
    PRESETS["cubic"], PRESETS["quintic"], Material(1.0, -0.999, 1.0, 1.0, 1.0),
    *(Material(1.3, -0.7, 0.9, n, 1.0) for n in (0.5, 1.5, 3.0, 3.5)),
], ids=["cubic", "quintic", "near-hyperbolic", "n=0.5", "n=1.5", "n=3",
        "n=3.5"])
def test_fan_panel_is_the_rule_on_strain_prime_bit_for_bit(m):
    # _fan_panel writes strain_prime out inline on constants taken once
    # per fan table: a fix to one formula must land in both
    k = _FanTable(m).k
    ends = [0.0] + np.logspace(-8.0, 3.0, 45).tolist()
    for i, x in enumerate(ends):
        for end in ends[i + 1:]:
            h = 0.5 * (end - x)
            panel = 0.0
            for t, w in _GL_RULE:
                panel += w * math.sqrt(strain_prime(m, x + h + h * t))
            assert repr(_fan_panel(k, x, end)) == repr(h * panel), (x, end)


@pytest.mark.parametrize("m", [
    PRESETS["cubic"], PRESETS["quintic"], Material(1.0, -0.999, 1.0, 1.0, 1.0),
    *(Material(1.3, -0.7, 0.9, n, 1.0) for n in (1.0, 2.0, 3.0)),
], ids=["cubic", "quintic", "near-hyperbolic", "n=1", "n=2", "n=3"])
def test_excess_is_the_horner_form_bit_for_bit(m):
    # _excess writes out the one- and two-term R and P of n = 1 and n = 2:
    # the same operations as _horner on the law's table, on floats and on
    # numpy lanes
    mags = np.logspace(-8.0, 3.0, 221)
    T = np.concatenate((mags, -mags))
    R, P = m.law[2], m.law[3]

    def horner_form(T):
        u = 0.5 * m.gamma * T * T
        return T * u * _horner(R, u), u * _horner(P, u)

    lanes = _excess(m, T, np)
    assert [x.tobytes() for x in lanes] == [
        x.tobytes() for x in horner_form(T)]
    for t in T.tolist():
        assert repr(_excess(m, t)) == repr(horner_form(t)), t


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    # the rule is written out to keep numpy.polynomial out of the import
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert _NODES.tobytes() == nodes.tobytes()
    assert _WEIGHTS.tobytes() == weights.tobytes()
    assert _GL_RULE == tuple(zip(nodes.tolist(), weights.tolist()))


def test_strain_second_zero_at_origin(cubic, quintic):
    assert strain_second(cubic, 0.0) == 0.0
    assert strain_second(quintic, 0.0) == 0.0


def test_strain_second_cubic_hand_value(cubic):
    # strain'' = 12*T for the cubic material
    assert strain_second(cubic, 0.5) == pytest.approx(6.0, abs=1e-14)
    assert strain_second(cubic, -1.3) == pytest.approx(-15.6, rel=1e-14)


@given(T=st.floats(0.01, 5.0))
@settings(deadline=None)
def test_strain_second_sign_structure(cubic, quintic, T):
    for m in (cubic, quintic):
        assert strain_second(m, T) > 0.0
        assert strain_second(m, -T) < 0.0


# ---------------------------------------------------------------------------
# characteristic speeds


def test_wave_speed_at_zero(cubic, quintic):
    for m in (cubic, quintic):
        expect = 1.0 / math.sqrt(m.rho * (m.alpha + m.beta))
        assert wave_speed(m, 0.0, FORWARD) == pytest.approx(expect, rel=1e-15)


def test_wave_speed_cubic_hand_value(cubic):
    assert wave_speed(cubic, 1.0, FORWARD) == pytest.approx(
        1.0 / math.sqrt(7.0), rel=1e-15)


@given(T=stress)
@settings(deadline=None)
def test_wave_speed_symmetry(cubic, T):
    assert wave_speed(cubic, T, BACKWARD) == -wave_speed(cubic, T, FORWARD)
    assert wave_speed(cubic, T, BACKWARD) < 0.0 < wave_speed(cubic, T, FORWARD)


def test_backward_speed_monotonicity(cubic, quintic):
    # decreasing on T < 0, nondecreasing on T >= 0
    for m in (cubic, quintic):
        grid = [-3.0 + 6.0 * i / 1000 for i in range(1001)]
        lam = [wave_speed(m, T, BACKWARD) for T in grid]
        for T_a, T_b, l_a, l_b in zip(grid, grid[1:], lam, lam[1:]):
            if T_b <= 0.0:
                assert l_b < l_a
            elif T_a >= 0.0:
                assert l_b >= l_a


# ---------------------------------------------------------------------------
# fan integral


def test_rarefaction_integral_empty(cubic):
    assert rarefaction_integral(cubic, 0.7, 0.7) == 0.0


def test_rarefaction_integral_closed_form(cubic):
    assert rarefaction_integral(cubic, 0.0, 1.0) == pytest.approx(
        cubic_fan_integral(0.0, 1.0), abs=1e-12)
    assert rarefaction_integral(cubic, -2.0, 1.5) == pytest.approx(
        cubic_fan_integral(-2.0, 1.5), abs=1e-11)


def test_rarefaction_integral_antisymmetric(cubic):
    a, b = -0.8, 1.7
    assert rarefaction_integral(cubic, b, a) == pytest.approx(
        -rarefaction_integral(cubic, a, b), abs=1e-13)


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0))
@settings(deadline=None, max_examples=60)
def test_rarefaction_integral_additive(cubic, quintic, a, b, c):
    for m in (cubic, quintic):
        whole = rarefaction_integral(m, a, c)
        split = rarefaction_integral(m, a, b) + rarefaction_integral(m, b, c)
        assert split == pytest.approx(whole, abs=1e-11)


@pytest.mark.parametrize("T", [1e-8, 1e-160, 1e-310, 5e-324])
def test_rarefaction_integral_linear_limit_at_tiny_stress(cubic, quintic, T):
    # near T = 0 the integrand is sqrt((alpha+beta)/rho) up to O(T**2)
    for m in (cubic, quintic):
        slope = math.sqrt((m.alpha + m.beta) / m.rho)
        for a, b in ((0.0, T), (-T, 0.0), (T, 3.0 * T), (-T, T)):
            assert rarefaction_integral(m, a, b) == pytest.approx(
                slope * (b - a), rel=1e-12)
            assert rarefaction_integral(m, b, a) == -rarefaction_integral(
                m, a, b)


#: Materials for the high-precision oracles: both presets, near-hyperbolic
#: (alpha + beta = 1e-3) with n = 1 and n = 2, small and large n, stiff gamma.
ORACLE_MATERIALS = {
    "cubic": PRESETS["cubic"],
    "quintic": PRESETS["quintic"],
    "near-hyperbolic-n1": make_material(1.0, -0.999, 1.0, 1.0, 1.0),
    "near-hyperbolic-n2": make_material(1.0, -0.999, 1.0, 2.0, 1.0),
    "n0.5": make_material(1.0, -0.5, 1.0, 0.5, 1.3),
    "n3.5": make_material(1.0, -0.5, 1.0, 3.5, 0.7),
    "gamma100": make_material(1.0, -0.5, 100.0, 2.0, 1.0),
    "n20": make_material(1.0, -0.5, 1.0, 20.0, 1.0),
}


def mp_strain_prime(m, T):
    """strain_prime at 40 digits, differentiated by hand from strain."""
    alpha, beta, gamma, n = (mpmath.mpf(x) for x in (m.alpha, m.beta,
                                                      m.gamma, m.n))
    T = mpmath.mpf(T)
    q = 1 + gamma * T * T / 2
    return beta + alpha * (q ** n + n * gamma * T * T * q ** (n - 1))


def mp_strain(m, T):
    alpha, beta, gamma, n = (mpmath.mpf(x) for x in (m.alpha, m.beta,
                                                      m.gamma, m.n))
    T = mpmath.mpf(T)
    return beta * T + alpha * (1 + gamma * T * T / 2) ** n * T


def mp_fan(m, T_a, T_b):
    """Fan integral from 40-digit tanh-sinh quadrature of the even integrand
    over [0, |T|], split on a geometric grid so that each piece stays clear
    of the complex zeros of strain_prime near 0."""
    with mpmath.workdps(40):
        def G(T):
            u = abs(T)
            cuts = [mpmath.mpf(0)] + [mpmath.mpf(u) / 8 ** k
                                      for k in range(7, -1, -1)]
            val = mpmath.quad(
                lambda t: mpmath.sqrt(mp_strain_prime(m, t) / m.rho), cuts)
            return math.copysign(1.0, T) * val
        return float(G(T_b) - G(T_a))


def random_fans(rng, count):
    for i in range(count):
        a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        b = math.copysign(10.0 ** rng.uniform(-6.0, 3.0), a)
        if i % 3 == 0:
            b = -b  # cross-zero fan
        yield a, b


@pytest.mark.parametrize("name", sorted(ORACLE_MATERIALS))
def test_rarefaction_integral_matches_40_digit_quadrature(name):
    m = ORACLE_MATERIALS[name]
    rng = random.Random(name)
    for T_a, T_b in random_fans(rng, 9):
        exact = mp_fan(m, T_a, T_b)
        got = rarefaction_integral(m, T_a, T_b)
        assert abs(got - exact) <= 1e-13 * abs(exact), (T_a, T_b)


@pytest.mark.xfail(strict=True, reason="the 16-node rule misses 1e-13 at "
                   "n = 20 across the first knot: 4.4e-13 relative here")
def test_rarefaction_integral_at_n_20_across_the_first_knot():
    # the worst of 150 random fans at n = 20; the nine fans of the test
    # above read at most 5.4e-14
    m = ORACLE_MATERIALS["n20"]
    T_a, T_b = -0.8091585473393924, 1.8935007617962712e-06
    exact = mp_fan(m, T_a, T_b)
    got = rarefaction_integral(m, T_a, T_b)
    assert abs(got - exact) <= 1e-13 * abs(exact)


# ---------------------------------------------------------------------------
# tangency


def test_tangent_point_cubic_closed_form():
    # for any cubic-strain material the tangency sits at -T_anchor/2
    mats = [PRESETS["cubic"], make_material(1.0, -0.9, 3.0, 1.0, 2.0)]
    for m in mats:
        for T_l in (0.1, 1.0, 5.0):
            for s in (1.0, -1.0):
                anchor = s * T_l
                assert tangent_point(m, anchor) == pytest.approx(
                    -anchor / 2.0, rel=1e-10)


def test_tangent_point_odd(quintic):
    for T in (0.3, 1.1, 2.7):
        assert tangent_point(quintic, -T) == pytest.approx(
            -tangent_point(quintic, T), rel=1e-12)


def test_tangent_point_residual(quintic):
    for anchor in (-2.3, -0.7, 0.4, 1.9):
        t = tangent_point(quintic, anchor)
        chord = (strain(quintic, t) - strain(quintic, anchor)) / (t - anchor)
        scale = max(1.0, abs(strain_prime(quintic, t)))
        assert abs(chord - strain_prime(quintic, t)) < 1e-12 * scale
        assert t * anchor < 0.0
        assert abs(t) < abs(anchor)


def mp_tangency_residual(m, anchor, T):
    """Chord slope minus tangent slope, times (T - anchor), at 40 digits."""
    with mpmath.workdps(40):
        T = mpmath.mpf(T)
        return (mp_strain(m, T) - mp_strain(m, anchor)
                - mp_strain_prime(m, T) * (T - anchor))


@pytest.mark.parametrize("name", sorted(
    k for k, m in ORACLE_MATERIALS.items() if m.n != 1.0))
def test_tangent_point_matches_bisection_with_one_sign_change(name):
    m = ORACLE_MATERIALS[name]
    rng = random.Random(name)
    for _ in range(6):
        anchor = -10.0 ** rng.uniform(-6.0, 3.0)
        A = -anchor
        # the tangency equation changes sign exactly once inside (0, A)
        signs = [mp_tangency_residual(m, anchor, A * i / 200) > 0
                 for i in range(1, 200)]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        lo, hi = 0.0, A
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mp_tangency_residual(m, anchor, mid) > 0:
                lo = mid
            else:
                hi = mid
        got = tangent_point(m, anchor)
        assert abs(got - lo) <= 1e-13 * A, (anchor, got, lo)
        assert tangent_point(m, A) == -got


def test_quintic_tangency_start_is_one_body_for_floats_and_lanes(quintic):
    # + - * / only: math on floats and numpy on lanes give the same bits,
    # from the cubic switch to beyond the overflow edge, where gamma*B*B
    # overflows (silently on floats)
    rng = random.Random(11)
    B = [10.0 ** rng.uniform(-16.0, 160.0) for _ in range(2000)]
    with np.errstate(over="ignore"):
        lanes = _quintic_tangency_start(quintic, np.array(B))
    assert lanes.tolist() == [_quintic_tangency_start(quintic, b) for b in B]


def test_quintic_tangent_point_takes_one_residual_evaluation(monkeypatch,
                                                             quintic):
    # the residual at the closed-form start is within its roundoff, so
    # rtsafe returns the start with no step: one residual evaluation and
    # no slope per call, on the box and up to the overflow edge; rtsafe
    # from [0, A] took 5.31 residual evaluations per call on these anchors
    calls = {"residual": 0, "slope": 0}
    for name in calls:
        kernel = getattr(material, f"_tangency_{name}")

        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(material, f"_tangency_{name}", counted)
    rng = random.Random(3)
    for _ in range(200):
        tangent_point(quintic, -rng.uniform(0.01, 3.0))
    assert calls == {"residual": 200, "slope": 0}
    for _ in range(600):
        tangent_point(quintic, -(10.0 ** rng.uniform(-15.5, 61.5)))
    assert calls == {"residual": 800, "slope": 0}


def test_quintic_tangency_start_is_checked_not_trusted(monkeypatch,
                                                       quintic):
    # a start 1e-12 off the root is outside the residual's roundoff, so
    # rtsafe polishes it back to within the roundoff of the residual, a
    # few ulps of the accepted start
    rng = random.Random(4)
    anchors = [rng.uniform(0.01, 3.0) for _ in range(50)]
    want = [tangent_point(quintic, -A) for A in anchors]
    start = material._quintic_tangency_start
    monkeypatch.setattr(material, "_quintic_tangency_start",
                        lambda m, B: start(m, B) * (1.0 + 1e-12))
    slopes = [0]
    slope = material._tangency_slope

    def counted(*args):
        slopes[0] += 1
        return slope(*args)

    monkeypatch.setattr(material, "_tangency_slope", counted)
    for A, T in zip(anchors, want):
        assert abs(tangent_point(quintic, -A) - T) <= 4.0 * math.ulp(T)
    assert slopes[0] >= len(anchors)


def test_tangent_point_requires_nonzero_anchor(cubic):
    with pytest.raises(ValueError):
        tangent_point(cubic, 0.0)


def test_tangent_point_linear_material_fails(linear):
    with pytest.raises(RootNotBracketed):
        tangent_point(linear, -1.0)


# ---------------------------------------------------------------------------
# driving force


def test_driving_force_zero_cases(cubic, quintic):
    for m in (cubic, quintic):
        assert driving_force(m, 0.7, 0.7) == pytest.approx(0.0, abs=1e-14)
        assert driving_force(m, -1.2, 1.2) == pytest.approx(0.0, abs=1e-12)
        assert driving_force_integral(m, -1.2, 1.2) == pytest.approx(
            0.0, abs=1e-12)


def test_driving_force_cubic_hand_value(cubic):
    # trapezoid minus integral of T + 2*T^3 over [-1, 2]:
    # (18 - 3)/2 * 3 - 9 = 13.5
    assert driving_force(cubic, -1.0, 2.0) == pytest.approx(13.5, rel=1e-14)
    assert driving_force_integral(cubic, -1.0, 2.0) == pytest.approx(
        13.5, rel=1e-12)
    assert driving_force(cubic, -1.0, 2.0) > 0.0


@given(T_l=st.floats(-3.0, 3.0), T_r=st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=80)
@example(T_l=6.103515625e-05, T_r=0.0)
# opposite data: the oracle's quad reported roundoff before it split at 0
@example(T_l=2.947371888598332, T_r=-2.947371888598332)
def test_driving_force_matches_integral_and_sign(cubic, quintic, T_l, T_r):
    for m in (cubic, quintic):
        closed = driving_force(m, T_l, T_r)
        integral = driving_force_integral(m, T_l, T_r)
        assert closed == pytest.approx(integral,
                                       rel=1e-10, abs=1e-12)
        sign = T_r * T_r - T_l * T_l
        if abs(sign) > 1e-9:
            assert math.copysign(1.0, closed) == math.copysign(1.0, sign)


def mp_driving_force(m, T_l, T_r):
    """Trapezoid of the strain minus its exact integral, at 120 digits: the
    antiderivative carries the constant alpha/((n+1)*gamma), so a force of
    1e-52 between stresses near 1e-8 needs about 70 of them."""
    with mpmath.workdps(120):
        alpha, beta, gamma, n = (mpmath.mpf(x) for x in (m.alpha, m.beta,
                                                          m.gamma, m.n))

        def E(T):
            return (beta * T * T / 2 + alpha * (1 + gamma * T * T / 2)
                    ** (n + 1) / ((n + 1) * gamma))

        a, b = mpmath.mpf(T_l), mpmath.mpf(T_r)
        return float((mp_strain(m, a) + mp_strain(m, b)) * (b - a) / 2
                     - (E(b) - E(a)))


@pytest.mark.parametrize("name", sorted(ORACLE_MATERIALS))
def test_driving_force_matches_high_precision(name):
    m = ORACLE_MATERIALS[name]
    rng = random.Random(name)
    pairs = [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 3.0)
                   for _ in range(2)) for _ in range(12)]
    # jumps between nearly equal magnitudes, where the halves of the
    # integral would cancel, and to zero, where the closed form
    # F(T_l, T_r) - F(T_r, T_l) lost the sign
    pairs += [(T, f * T) for T in (3e-8, 0.7, 450.0)
              for f in (-1.0 - 1e-9, -1.0 + 1e-6, 1.0 + 1e-7)]
    pairs += [(1e-4, 0.0), (0.0, 1e-4)]
    for T_l, T_r in pairs:
        exact = mp_driving_force(m, T_l, T_r)
        got = driving_force(m, T_l, T_r)
        assert abs(got - exact) <= 1e-13 * abs(exact), (T_l, T_r)


def test_driving_force_linear_mode_vanishes(linear):
    assert driving_force(linear, -0.4, 1.9) == 0.0
    assert driving_force_integral(linear, -0.4, 1.9) == pytest.approx(
        0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# strain inversion


def test_invert_strain_basics(cubic):
    assert invert_strain(cubic, 0.0) == 0.0
    assert invert_strain(cubic, 3.0) == pytest.approx(1.0, rel=1e-13)


@given(T=st.one_of(stress, wide_stress))
@settings(deadline=None)
@example(T=1e5)
@example(T=1e16)
@example(T=1e18)
def test_invert_strain_round_trip(cubic, quintic, T):
    for m in (cubic, quintic):
        assert invert_strain(m, strain(m, T)) == pytest.approx(
            T, abs=1e-12, rel=1e-12)


@given(T=wide_stress)
@settings(deadline=None)
@example(T=1e-300)
@example(T=-5e-200)
def test_invert_strain_round_trip_is_relative_at_every_magnitude(
        cubic, quintic, T):
    # the absolute bound above passes any result for |T| below 1e-12
    for m in (cubic, quintic):
        assert abs(invert_strain(m, strain(m, T)) - T) <= 4e-15 * abs(T)


# ---------------------------------------------------------------------------
# material validation and loading


@pytest.mark.parametrize("kwargs,needle", [
    (dict(alpha=0.0, beta=-0.5, gamma=1.0, n=1.0, rho=1.0), "alpha > 0"),
    (dict(alpha=1.0, beta=0.0, gamma=1.0, n=1.0, rho=1.0), "beta < 0"),
    (dict(alpha=1.0, beta=-0.5, gamma=0.0, n=1.0, rho=1.0), "gamma > 0"),
    (dict(alpha=1.0, beta=-0.5, gamma=-1.0, n=1.0, rho=1.0), "gamma > 0"),
    (dict(alpha=1.0, beta=-0.5, gamma=1.0, n=0.0, rho=1.0), "n > 0"),
    (dict(alpha=1.0, beta=-0.5, gamma=1.0, n=1.0, rho=0.0), "rho > 0"),
    (dict(alpha=1.0, beta=-1.5, gamma=1.0, n=1.0, rho=1.0), "hyperbolicity"),
])
def test_material_invariants(kwargs, needle):
    with pytest.raises(MaterialError, match=needle):
        Material(**kwargs)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "n", "rho"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_material_rejects_non_finite_constants(name, bad):
    kwargs = dict(alpha=1.0, beta=-0.5, gamma=1.0, n=1.0, rho=1.0)
    kwargs[name] = bad
    with pytest.raises(MaterialError, match=f"finite {name}"):
        Material(**kwargs)


def test_linear_mode_constructor():
    m = Material.linear(1.0, -0.25, 2.0)
    assert m.linear_mode and m.gamma == 0.0
    assert strain(m, 2.0) == pytest.approx(1.5, abs=1e-15)
    with pytest.raises(MaterialError, match="gamma = 0"):
        Material(1.0, -0.25, 0.5, 1.0, 1.0, linear_mode=True)


def test_material_json_round_trip(tmp_path):
    doc = {"alpha": 1.5, "beta": -0.25, "gamma": 0.8, "n": 2.5, "rho": 1.2}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(doc))
    m = Material.from_json(str(path))
    assert m == Material(1.5, -0.25, 0.8, 2.5, 1.2)
    assert not m.linear_mode
    doc["linear_mode"] = True
    doc["gamma"] = 0.0
    path.write_text(json.dumps(doc))
    assert Material.from_json(str(path)).linear_mode


def test_load_material_presets():
    assert load_material("cubic") is PRESETS["cubic"]
    with pytest.raises(MaterialError):
        Material.from_dict({"alpha": 1.0})


# ---------------------------------------------------------------------------
# kernels shared by the scalar solve and the lanes of solve_many

KERNEL_MATERIALS = {"cubic": PRESETS["cubic"], "quintic": PRESETS["quintic"],
                    "near-hyperbolic": Material(1.0, -0.999, 1.0, 1.0, 1.0)}


def kernel_stresses(count):
    mags = np.logspace(-8.0, 3.0, count)
    return np.concatenate(([0.0], mags, -mags))


#: numpy's arithmetic with math's elementary functions, element by element.
#: numpy's own expm1, log1p and asinh may round an array element
#: differently from math's (see barwaves.material); with these, an array
#: call of a shared kernel must give the bits of its float calls.
MATH_ON_LANES = types.SimpleNamespace(**{
    name: np.vectorize(getattr(math, name), otypes=[float])
    for name in ("sqrt", "expm1", "log1p", "asinh")})


def assert_float_calls_match_array_call(kernel, m, *args, xp=MATH_ON_LANES):
    """kernel(m, *args, xp=math) element by element against one array call
    kernel(m, *args, xp=xp), bit for bit (each result may be a tuple)."""
    got = kernel(m, *args, xp=xp)
    got = got if isinstance(got, tuple) else (got,)
    for i, row in enumerate(zip(*(a.tolist() for a in args))):
        want = kernel(m, *row, xp=math)
        want = want if isinstance(want, tuple) else (want,)
        assert np.array(want).tobytes() == np.array(
            [g[i] for g in got]).tobytes(), (row, want)


@pytest.mark.parametrize("name", sorted(KERNEL_MATERIALS))
def test_shared_kernels_give_the_same_bits_on_floats_and_arrays(name):
    from barwaves.material import (
        _cubic_constants,
        _cubic_fan,
        _cubic_root,
        _excess,
        _tangency_residual,
    )
    from barwaves.wave_curves import _jump_v, _shock_slope, _w
    m = KERNEL_MATERIALS[name]
    T = kernel_stresses(221)
    # every ordered pair of a coarser grid
    a, b = (x.ravel() for x in np.meshgrid(kernel_stresses(23),
                                            kernel_stresses(23)))
    e_a = strain(m, a)
    # square roots are correctly rounded and integer n keeps numpy's power
    # at math's bits, so these three hold with numpy itself
    for xp in (MATH_ON_LANES, np):
        assert_float_calls_match_array_call(_w, m, T, xp=xp)
        assert_float_calls_match_array_call(_jump_v, m, a, e_a, b, xp=xp)
        assert_float_calls_match_array_call(_shock_slope, m, a, e_a, b,
                                            xp=xp)
    assert_float_calls_match_array_call(_excess, m, T)
    B = np.abs(a[a != 0.0])
    r_B = _excess(m, -B, np)[0]
    assert_float_calls_match_array_call(
        _tangency_residual, m, B, r_B, np.abs(b[a != 0.0]))
    if m.n == 1.0:
        # the lanes take the fans on one side of zero
        same = (a * b > 0.0) & (np.abs(a) <= np.abs(b))
        k = _cubic_constants(m)
        assert_float_calls_match_array_call(_cubic_root, k, T)
        assert_float_calls_match_array_call(
            _cubic_fan, k, a[same], _cubic_root(k, a[same], np), b[same])


def search_values(rng, count, special):
    """count floats: signed magnitudes log-uniform over 1e-8..1e3 and a
    share of the special values, in random order."""
    values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 3.0)
              for _ in range(count)]
    values[:len(special) * 3] = list(special) * 3
    rng.shuffle(values)
    return np.array(values)


def rows_of(xp, *rows):
    """rows as the middle-stress search passes them: a list on floats,
    stacked on arrays."""
    return list(rows) if xp is math else np.stack(rows)


@pytest.mark.parametrize("name", sorted(KERNEL_MATERIALS))
def test_search_bodies_give_the_same_bits_on_floats_and_arrays(name):
    # the decisions of the middle-stress search, each one body for the
    # scalar solve and the lanes: +, -, *, / and comparisons only (and
    # integer n), so numpy gives math's bits
    from barwaves import riemann
    m = KERNEL_MATERIALS[name]
    rng = random.Random(13)
    n = 400

    def draw(*extra):
        return search_values(rng, n, (0.0, -0.0, 1.0, -1.0) + extra)

    def draw_any(*extra):
        return draw(math.inf, -math.inf, *extra)

    # the lanes run under np.errstate(all='ignore'), as solve_many does
    with np.errstate(all="ignore"):
        assert_float_calls_match_array_call(
            lambda m, *args, xp: riemann._widen(*args), m, draw_any(),
            draw_any(math.nan), draw_any(), draw_any(math.nan),
            np.abs(draw_any()), xp=np)
        assert_float_calls_match_array_call(
            lambda m, *args, xp: riemann._ordered(*args, xp=xp), m,
            draw_any(), draw_any(), draw_any(), draw_any(), xp=np)
        assert_float_calls_match_array_call(
            riemann._seed_step, m, draw_any(), draw_any(), draw_any(),
            draw_any(math.nan), xp=np)
        assert_float_calls_match_array_call(
            lambda m, *args, xp: riemann._narrow(*args, xp=xp), m, draw(),
            draw_any(), draw(), draw_any(), draw(), draw_any(math.nan),
            xp=np)

        def seed(m, v_l, v_r, *args, xp):
            rows = [rows_of(xp, *args[k:k + 4]) for k in range(0, 16, 4)]
            return riemann._seed(v_l, v_r, *rows, xp=xp)

        # four dividing stresses, the residuals there, some of them within
        # the boundary tolerance, and both curves' velocities
        g = [draw() * rng.choice((1.0, 1e-12)) for _ in range(4)]
        assert_float_calls_match_array_call(
            seed, m, draw(), draw(), *(draw() for _ in range(4)), *g,
            *(draw() for _ in range(8)), xp=np)

        def verdict(m, *args, xp):
            return riemann._verdict(m, *args[:10], rows_of(xp, *args[10:]),
                                    xp=xp)

        # roots within SNAP_TOL of T_l and of T_r = T_l*(1 + 1e-13*...),
        # and residuals rising by stress, or falling on about half the
        # problems
        T_l = draw()
        T_r = T_l * (1.0 + 1e-13 * draw())
        root = np.where(draw() > 0.0, T_l, T_r) * (1.0 + 1e-12 * draw())
        ordered = np.sort([draw() for _ in range(5)], axis=0) * np.sign(
            draw(1.0))
        assert_float_calls_match_array_call(
            verdict, m, T_l, draw(), T_r, draw(), root, draw() * 1e-12,
            draw(), draw(), draw(), draw(), *ordered, xp=np)


def quantized(x):
    """x on a 2**-26 grid less 0.3: a staircase of slope 1, never zero."""
    return (x + 1e8) - 1e8 - 0.3


def adjacent_bracket(points, root):
    """True if root and a float next to it were evaluated with opposite
    signs: the bracket collapsed on the root."""
    return any(math.nextafter(root, to) in points
               and points[root] * points[math.nextafter(root, to)] < 0.0
               for to in (-math.inf, math.inf))


#: The exits of _newton_bisect and _newton_bisect_many, one row each:
#: (exit, fn, dfn, lo, hi, test of the evaluated points {x: fn(x)} and the
#: root that shows the row took that exit).
ROOT_FINDER_EXITS = [
    ("exact zero", lambda x: x - 0.5, lambda x: 1.0, 0.0, 1.0,
     lambda pts, root: pts.get(root) == 0.0),
    # its last two Newton steps are 2.8 and 0.6 ulps long
    ("Newton step within two ulps", lambda x: x * x - 13.0,
     lambda x: 2.0 * x, 0.0, 14.0,
     lambda pts, root: root not in pts and 0.0 not in pts.values()),
    ("rounding keeps a Newton step from shrinking |f|", quantized,
     lambda x: 1.0, 0.0, 1.0,
     lambda pts, root: len(pts) == 2 and abs(list(pts.values())[-1])
     >= abs(pts[root])),
    ("collapsed bracket", lambda x: x * x - 2.0, lambda x: math.nan, 0.0,
     2.0, adjacent_bracket),
    ("200 steps", lambda x: x - 1e-300, lambda x: math.nan, 0.0, 1e300,
     lambda pts, root: len(pts) == 200),
]


@pytest.mark.parametrize("row", ROOT_FINDER_EXITS,
                         ids=[row[0] for row in ROOT_FINDER_EXITS])
def test_both_root_finders_take_each_exit_alike(row):
    from barwaves.batch import _newton_bisect_many
    from barwaves.material import _newton_bisect
    _, fn, dfn, lo, hi, took_exit = row
    scalar, lanes = {}, []

    def recorded(x):
        scalar[x] = fn(x)
        return scalar[x]

    root = _newton_bisect(recorded, dfn, lo, hi, fn(lo), fn(hi))
    assert took_exit(scalar, root)

    def lane_fn(pos, x):
        lanes.extend(x.tolist())
        return np.array([fn(v) for v in x.tolist()])

    with np.errstate(divide="ignore"):
        got = _newton_bisect_many(
            lane_fn, lambda pos, x: np.array([dfn(v) for v in x.tolist()]),
            np.array([lo]), np.array([hi]), np.array([fn(lo)]),
            np.array([fn(hi)]))
    assert got.tolist() == [root]
    assert lanes == list(scalar)


def test_lane_root_finder_runs_every_exit_at_once_and_stops_at_nan():
    from barwaves.batch import _newton_bisect_many
    from barwaves.material import _newton_bisect
    rows = [(fn, dfn, lo, hi) for _, fn, dfn, lo, hi, _ in ROOT_FINDER_EXITS]
    # a lane whose value turns NaN stops at its last finite point: from
    # x = 1, the step bisects to 0.5, where this function is undefined
    rows.append((lambda x: x - 0.2 if x > 0.5 else math.nan,
                 lambda x: 1.0, 0.0, 1.0))
    lo, hi = (np.array([r[i] for r in rows]) for i in (2, 3))
    f_lo, f_hi = (np.array([r[0](x) for r, x in zip(rows, ends)])
                  for ends in (lo, hi))
    # each lane's calls, in order: (0 for fn or 1 for dfn, x)
    points = [[] for _ in rows]

    def lanes(i):
        def call(pos, x):
            for p, v in zip(pos.tolist(), x.tolist()):
                points[p].append((i, v))
            return np.array([rows[p][i](v) for p, v in zip(pos, x.tolist())])
        return call

    with np.errstate(divide="ignore", invalid="ignore"):
        got = _newton_bisect_many(lanes(0), lanes(1), lo, hi, f_lo, f_hi)
    want = []
    for lane, (fn, dfn, a, b) in zip(points, rows):
        calls = []

        def recorded(i, g):
            return lambda x: calls.append((i, x)) or g(x)

        want.append(_newton_bisect(recorded(0, fn), recorded(1, dfn), a, b,
                                   fn(a), fn(b)))
        # a lane runs its scalar run's calls, up to its first NaN value
        nan = [k for k, (i, x) in enumerate(calls) if i == 0
               and math.isnan(fn(x))]
        assert lane == calls[:nan[0] + 1 if nan else None]
    assert got.tolist() == want[:-1] + [1.0]
