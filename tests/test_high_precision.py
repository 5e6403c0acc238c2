"""Both wave curves against 50-digit mpmath values on every branch.

The oracle follows the branch lists of the paper for each family
separately: the backward curve through U_l and the forward curve through
U_0, each parameterized by its terminal stress.  It shares no code with
the library: its fan integrals are tanh-sinh quadrature on panels graded
away from zero, and its tangency stresses come from bisection.
"""

import math
import random
import struct
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    PRESETS,
    RootNotBracketed,
    State,
    strain,
    tangent_point,
    thresholds,
)
from barwaves.batch import _curve_pair, _tangency
from barwaves.material import _CUBIC_TO_ROUNDOFF
from barwaves.wave_curves import WaveCurve

SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6)
BOUND = 1e-13


class Oracle:
    """Wave curves of `m` in 50-digit arithmetic."""

    def __init__(self, m):
        self.alpha, self.beta, self.gamma, self.n, self.rho = (
            mpmath.mpf(x) for x in (m.alpha, m.beta, m.gamma, m.n, m.rho))
        # the complex zeros of strain_prime lie about this far from 0
        self.knee = mpmath.sqrt((self.alpha + self.beta)
                                / (self.alpha * self.gamma))

    def strain(self, T):
        q = 1 + self.gamma * T * T / 2
        return self.beta * T + self.alpha * q ** self.n * T

    def strain_prime(self, T):
        q = 1 + self.gamma * T * T / 2
        return self.beta + self.alpha * q ** (self.n - 1) * (
            1 + (1 + 2 * self.n) * self.gamma * T * T / 2)

    def w(self, T):
        return mpmath.sqrt(self.strain_prime(T) / self.rho)

    def fan(self, a, b):
        """Integral of w from a to b, on panels whose length stays below
        their distance from the singularities near 0."""
        lo, hi = min(a, b), max(a, b)
        cuts = [0] if lo < 0 < hi else []
        x = self.knee
        while x < max(-lo, hi):
            cuts += [x, -x]
            x *= 4
        points = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
        total = mpmath.quad(self.w, points)
        return total if b >= a else -total

    def jump(self, a, b):
        """|velocity jump| across a shock between stresses a and b."""
        return mpmath.sqrt((b - a) * (self.strain(b) - self.strain(a))
                           / self.rho)

    @lru_cache(maxsize=None)
    def tangency(self, a):
        """The stress Tt of the other sign with strain_prime(Tt) equal to
        the chord slope from a to Tt; |Tt| < |a|."""
        def excess(T):
            return (self.strain_prime(T) * (T - a)
                    - (self.strain(T) - self.strain(a)))
        return self._bisect(excess, 0, -a)

    def tangent_from(self, T_0):
        """The stress T of the other sign whose tangency stress is T_0."""
        def excess(T):
            return (self.strain(T) - self.strain(T_0)
                    - self.strain_prime(T_0) * (T - T_0))
        return self._bisect(excess, -T_0, -4 * T_0)

    def second_threshold(self, T_l):
        """T** of the left stress T_l: beyond the tangency stress Tt, the
        stress T with (T - Tt)*(strain(T) - strain(Tt)) equal to
        (Tt - T_l)**2*strain_prime(Tt)."""
        if T_l > 0:
            return -self.second_threshold(-T_l)
        Tt = self.tangency(T_l)
        rhs = (Tt - T_l) ** 2 * self.strain_prime(Tt)
        return self._bisect(
            lambda T: (T - Tt) * (self.strain(T) - self.strain(Tt)) - rhs,
            Tt, -4 * T_l)

    @staticmethod
    def _bisect(fn, a, b):
        f_a = fn(a)
        assert f_a * fn(b) < 0
        for _ in range(190):
            mid = (a + b) / 2
            f_mid = fn(mid)
            if (f_mid < 0) == (f_a < 0):
                a, f_a = mid, f_mid
            else:
                b = mid
        return (a + b) / 2

    def backward(self, T_l, T):
        """Velocity change along the backward curve from T_l to T."""
        if T_l > 0:
            return -self.backward(-T_l, -T)
        Tt = self.tangency(T_l) if T_l < 0 else mpmath.mpf(0)
        if T <= T_l:
            return self.fan(T_l, T)
        if T <= Tt:
            return self.jump(T_l, T)
        return (Tt - T_l) * self.w(Tt) + self.fan(Tt, T)

    def forward(self, T_0, T):
        """Velocity change along the forward curve from T_0 to T."""
        if T_0 > 0:
            return -self.forward(-T_0, -T)
        if T <= T_0:
            return self.jump(T_0, T)
        if T <= 0:
            return -self.fan(T_0, T)
        Tj = self.tangency(T)
        if Tj > T_0:
            # the fan to the tangency stress, then the degenerate shock
            return -self.fan(T_0, Tj) - (T - Tj) * self.w(Tj)
        return -self.jump(T_0, T)  # the fan is swallowed


def branch_cases(m, oracle, S):
    """(name, family, anchor stress, terminal stress): every branch of both
    curves, the two tangencies and the zero-stress anchor."""
    Tt = tangent_point(m, -S)
    with mpmath.workdps(50):
        T_deg = float(oracle.tangent_from(mpmath.mpf(-S)))
    return [
        ("backward fan", "b", -S, -2.0 * S),
        ("backward shock", "b", -S, -0.5 * S),
        ("backward cross-zero shock", "b", -S, 0.5 * Tt),
        ("backward degenerate shock", "b", -S, Tt),
        ("backward composite", "b", -S, 2.0 * S),
        ("backward mirrored composite", "b", S, -2.0 * S),
        ("backward zero anchor", "b", 0.0, S),
        ("backward zero anchor", "b", 0.0, -S),
        ("forward shock", "f", -S, -2.0 * S),
        ("forward fan", "f", -S, -0.5 * S),
        ("forward composite", "f", -S, 0.5 * S),
        ("forward degenerate shock", "f", -S, T_deg),
        ("forward cross-zero shock, fan swallowed", "f", -S, 3.0 * S),
        ("forward mirrored composite", "f", S, -0.5 * S),
        ("forward zero anchor", "f", 0.0, S),
        ("forward zero anchor", "f", 0.0, -S),
    ]


def worst_error(m):
    oracle = Oracle(m)
    worst = (0.0, None)
    with mpmath.workdps(50):
        for S in SCALES:
            for name, family, T_0, T in branch_cases(m, oracle, S):
                if family == "b":
                    got = WaveCurve(m, State(T_0, 0.0), BACKWARD).v(T)
                    want = oracle.backward(mpmath.mpf(T_0), mpmath.mpf(T))
                else:
                    # the forward curve from (T_0, 0) to stress T is
                    # the one ending at (T, 0), shifted by its v at T_0
                    got = -WaveCurve(m, State(T, 0.0), FORWARD).v(T_0)
                    want = oracle.forward(mpmath.mpf(T_0), mpmath.mpf(T))
                err = float(abs((got - want) / want))
                if err > worst[0]:
                    worst = (err, (name, T_0, T))
    return worst


def test_oracle_takes_every_forward_branch():
    # the forward cases above land on the branches they are named for
    cubic = Oracle(PRESETS["cubic"])
    with mpmath.workdps(50):
        T_0 = mpmath.mpf(-1)
        assert cubic.tangency(mpmath.mpf(0.5)) > T_0        # composite
        assert cubic.tangency(mpmath.mpf(3.0)) < T_0        # swallowed
        assert cubic.tangent_from(T_0) == pytest.approx(2.0, rel=1e-40)


MATERIALS = {
    "cubic": PRESETS["cubic"],
    "quintic": PRESETS["quintic"],
    "n=1.5": Material(1.0, -0.5, 1.0, 1.5, 1.0),
    "n=3.5": Material(1.0, -0.5, 1.0, 3.5, 2.0),
}


@pytest.mark.parametrize("name", MATERIALS)
def test_wave_curves_match_high_precision(name):
    err, where = worst_error(MATERIALS[name])
    assert err <= BOUND, f"{err:.2e} at {where}"


#: n = 2 materials of the tangency gate: the preset, one near
#: hyperbolicity loss and one whose constants are not powers of two.
N2_MATERIALS = {
    "quintic": PRESETS["quintic"],
    "near-hyperbolic": Material(1.0, -0.999, 1.0, 2.0, 1.0),
    "scaled": Material(3.0, -1.0, 1e-4, 2.0, 2.0),
}


def float_bisect(ok, lo, hi):
    """The largest float x in [lo, hi) with ok(x), given ok(lo) and not
    ok(hi), for a predicate that holds up to a point and fails beyond."""
    i, j = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (lo, hi))
    while j - i > 1:
        mid = (i + j) // 2
        if ok(struct.unpack("<d", struct.pack("<q", mid))[0]):
            i = mid
        else:
            j = mid
    return struct.unpack("<d", struct.pack("<q", i))[0]


@pytest.mark.parametrize("name", N2_MATERIALS)
def test_n2_tangency_matches_high_precision_up_to_the_overflow_edge(name):
    # tangent_point and the lanes' _tangency, the closed-form start
    # accepted within the residual's roundoff, over |A| from the first
    # anchor past the cubic switch to the last whose tangency does not
    # overflow.  The worst error reads 1.9e-16; rtsafe's polish of the
    # start on the expm1/log1p residual read 1.4e-14 at |A| near 1e56
    m = N2_MATERIALS[name]

    def cubic_to_roundoff(A):
        return 0.5 * m.gamma * A * A <= _CUBIC_TO_ROUNDOFF

    def finite(A):
        try:
            tangent_point(m, -A)
        except OverflowError:
            return False
        return True

    low = math.nextafter(float_bisect(cubic_to_roundoff, 0.0, 1.0), 1.0)
    edge = float_bisect(finite, 1.0, 1e300)
    rng = random.Random(name)
    anchors = [low, edge] + [
        math.exp(rng.uniform(math.log(low), math.log(edge)))
        for _ in range(598)]
    with np.errstate(all="ignore"):
        lanes, overflow = _tangency(m, -np.array(anchors))
    assert not overflow.any()
    oracle = Oracle(m)
    with mpmath.workdps(50):
        for A, lane in zip(anchors, lanes.tolist()):
            want = oracle.tangency(-mpmath.mpf(A))
            assert abs(tangent_point(m, -A) / want - 1) <= math.ulp(1.0), A
            assert abs(lane / want - 1) <= math.ulp(1.0), A


def test_shock_slope_survives_an_overflowing_product():
    # at rho = 1e308, rho*(y - A)*de overflows to inf, and a slope taken
    # from its root read 0.0 on both curves where it is about 1e-154
    m = Material(1.0, -0.5, 1.0, 1.0, 1e308)
    U_l = State(-7.831779474195463, -6.629300083610611e-34)
    U_r = State(-8.424729512545245, -1.3094716185227136e-122)
    T = 3.9158897370977317
    curves, _ = _curve_pair(m, *(np.array([x]) for x in (
        U_l.T, U_l.v, U_r.T, U_r.v)))
    with np.errstate(all="ignore"):
        lanes = curves.slope(m, np.array([0, 1]), np.array([T, T]))
    oracle = Oracle(m)
    for U, family, lane in zip((U_l, U_r), (BACKWARD, FORWARD), lanes):
        curve = WaveCurve(m, U, family)
        assert m.rho * (curve.s * T - curve.A) * (
            strain(m, curve.s * T) - curve.e_A) == math.inf
        with mpmath.workdps(50):
            A, y = mpmath.mpf(curve.A), mpmath.mpf(curve.s * T)
            de = oracle.strain(y) - oracle.strain(A)
            want = ((de + (y - A) * oracle.strain_prime(y))
                    / (2 * mpmath.sqrt(oracle.rho * (y - A) * de)))
            assert abs(curve.slope(T) / want - 1) <= 1e-14
            assert abs(lane / want - 1) <= 1e-14


def test_near_hyperbolic_wave_curves_match_high_precision():
    # the power form summed beta*T and alpha*q**n*T, which cancel down to
    # (alpha + beta)*T, and read 1.6e-13 relative on shocks here; the
    # integer-n polynomial takes alpha + beta once
    m = Material(1.0, -0.999, 1.0, 1.0, 1.0)
    err, where = worst_error(m)
    assert err <= BOUND, f"{err:.2e} at {where}"


def test_thresholds_match_high_precision_where_the_strain_overflows():
    # on extreme materials, the returns whose bracket end 4*|T_l|
    # overflows the strain: where it overflows before the root, rtsafe
    # converged to the overflow point, and thresholds raises there instead
    rng = random.Random(4)
    checked = 0
    for _ in range(4000):
        alpha = 10.0 ** rng.uniform(-30.0, 30.0)
        m = Material(alpha, -alpha * rng.uniform(1e-6, 1.0),
                     10.0 ** rng.uniform(-30.0, 30.0), rng.uniform(0.05, 20.0),
                     10.0 ** rng.uniform(-300.0, 300.0))
        T_l = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)
        try:
            got = thresholds(m, T_l).T_star_star
        except RootNotBracketed:
            continue
        try:
            if math.isfinite(strain(m, 4.0 * abs(T_l))):
                continue
        except OverflowError:
            pass
        with mpmath.workdps(50):
            want = Oracle(m).second_threshold(mpmath.mpf(T_l))
            assert abs((got - want) / want) <= 1e-13, (m, T_l)
        checked += 1
    assert checked == 4
