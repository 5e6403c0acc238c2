"""Backward and forward elementary wave curves in the (T, v) phase plane.

A state U = (T, v) holds the Cauchy stress and the particle velocity.  The
backward family carries the negative characteristic speed, the forward
family the positive one.  Because the strain curve changes convexity at
T = 0, each family's wave curve through a state is pieced together from
several branches.  With w = sqrt(strain_prime/rho):

Backward curve through U_l = (T_l, v_l), parameterized by terminal stress T
(for T_l < 0; the T_l > 0 case is the exact mirror under (T, v) -> (-T, -v),
and for T_l = 0 the whole curve is a rarefaction both ways):

  * T < T_l            rarefaction, v = v_l + integral of w from T_l to T
  * T_l < T <= Tt      shock, v = v_l + sqrt((T - T_l)(de)/rho); at T = Tt
                       the chord is tangent to the strain curve and the
                       shock is degenerate (its speed equals the backward
                       characteristic speed of its right state)
  * T > Tt             composite: the degenerate shock to (Tt, vt) followed
                       by a rarefaction from Tt to T

Tt is the tangency stress of T_l (see material.tangent_point); the junction
realizes the maximally dissipative kinetics and makes the two branches meet
with second-order contact.

Forward curve through U_0 = (T_0, v_0), terminal stress T (for T_0 < 0;
mirrored for T_0 > 0; a pure shock both ways for T_0 = 0):

  * T < T_0            classical shock, v = v_0 + sqrt((T - T_0)(de)/rho)
  * T_0 < T <= 0       rarefaction, v = v_0 - integral of w
  * T > 0              let Tj be the tangency stress of T (Tj < 0):
                       - if Tj > T_0: composite, rarefaction from T_0 to Tj
                         then a degenerate shock from (Tj, vj) to (T, v)
                         whose speed equals the forward characteristic
                         speed at Tj (the fan edge), so the pair is ordered
                         in the similarity variable;
                       - otherwise the fan is swallowed and the leg is a
                         single cross-zero shock from (T_0, v_0) to (T, v),
                         which then satisfies the strict Lax inequalities.

Along the backward curve v is strictly increasing in T; along the forward
curve strictly decreasing.  Both curves are twice continuously
differentiable, which the solver's root finding relies on.  The composite
branches are taken to extend for arbitrarily large terminal stress: every
formula above stays well-defined, the fan speed keeps growing
monotonically, and no further convexity change exists to interrupt them.

Within one solve there are only two tangency stresses: Tt of T_l on the
backward curve, and Tj of T_r on the forward curves, all of which end at
T_r.  A solve therefore builds one curve pair, a BackwardCurve anchored at
U_l and a ForwardCurve ending at T_r.  Each is sign-normalised once and
holds its tangency stress (one tangent_point call, closed form for n = 1)
and its degenerate shock's velocity jump; the residual of the middle
stress, its slope and the legs of the solution all read from the pair.
Nothing is cached between solves.  The module-level functions evaluate a
curve once.

A curve is never modified once built; concurrent use is unrestricted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .material import (
    BACKWARD,
    FORWARD,
    Material,
    rarefaction_integral,
    strain,
    strain_prime,
    tangent_point,
    wave_speed,
)

RAREFACTION = "rarefaction"
SHOCK = "shock"


@dataclass(frozen=True)
class State:
    T: float
    v: float


@dataclass(frozen=True)
class CurveLeg:
    kind: str            # RAREFACTION or SHOCK
    family: str          # BACKWARD or FORWARD
    start: State
    end: State
    degenerate: str = ""  # "", "left", "right" or "both"


def shock_speed(m: Material, T_a: float, T_b: float, family: str) -> float:
    """Propagation speed of a jump between stresses T_a and T_b, from the
    jump conditions: s**2 = (T_b - T_a) / (rho * (strain_b - strain_a)),
    signed by family.  Zero-width jumps fall back to the characteristic
    speed (the degenerate limit)."""
    if abs(T_b - T_a) <= 1e-14 * max(1.0, abs(T_a), abs(T_b)):
        # the chord slope cancels catastrophically; use the tangent limit
        return wave_speed(m, T_a, family)
    slope = (strain(m, T_b) - strain(m, T_a)) / (T_b - T_a)
    c = 1.0 / math.sqrt(m.rho * slope)
    return -c if family == BACKWARD else c


def _jump_v(m: Material, T_a: float, T_b: float) -> float:
    """|velocity jump| across a shock between T_a and T_b."""
    prod = (T_b - T_a) * (strain(m, T_b) - strain(m, T_a))
    return math.sqrt(max(prod, 0.0) / m.rho)


def _w(m: Material, T: float) -> float:
    """sqrt(strain_prime/rho) = 1/(rho*|characteristic speed|): the fan
    integrand."""
    return math.sqrt(strain_prime(m, T) / m.rho)


# ---------------------------------------------------------------------------
# the curve pair of one solve


class BackwardCurve:
    """The backward wave curve through U_l, as a function of its terminal
    stress T.  Built once, with the mirror (T, v) -> (-T, -v) that makes
    the anchor A = s*T_l <= 0 and the constants of the composite branch:
    the tangency stress Tt of A and the velocity jump vt = (Tt - A)*w(Tt)
    of the degenerate shock to it.  For T_l = 0 the curve is a rarefaction
    both ways, which Tt = vt = 0 reproduces."""

    __slots__ = ("m", "U_l", "s", "A", "Tt", "vt")

    def __init__(self, m: Material, U_l: State):
        self.m, self.U_l = m, U_l
        self.s = -1.0 if U_l.T > 0.0 else 1.0
        self.A = A = self.s * U_l.T
        if A == 0.0:
            self.Tt = self.vt = 0.0
        else:
            self.Tt = Tt = tangent_point(m, A)
            self.vt = (Tt - A) * _w(m, Tt)

    @property
    def tangency(self) -> float:
        """The tangency stress of T_l (unmirrored)."""
        return self.s * self.Tt

    def v(self, T: float) -> float:
        """Velocity at terminal stress T."""
        m, A, Tt, y = self.m, self.A, self.Tt, self.s * T
        if y <= A:
            d = rarefaction_integral(m, A, y)
        elif y <= Tt:
            d = _jump_v(m, A, y)
        else:
            d = self.vt + rarefaction_integral(m, Tt, y)
        return self.U_l.v + self.s * d

    def slope(self, T: float) -> float:
        """dv/dT; strictly positive."""
        m, A, y = self.m, self.A, self.s * T
        if A < y <= self.Tt:
            de = strain(m, y) - strain(m, A)
            denom = 2.0 * math.sqrt(max(m.rho * (y - A) * de, 0.0))
            if denom > 0.0:
                return (de + (y - A) * strain_prime(m, y)) / denom
            # a shock of roundoff width: its characteristic limit
        return _w(m, y)

    def legs(self, end: State) -> list[CurveLeg]:
        """Legs (0, 1 or 2) from U_l to `end`, a point of the curve.  A
        composite's junction is U_l plus the degenerate shock's jump."""
        U_l, A, Tt, y = self.U_l, self.A, self.Tt, self.s * end.T
        if end.T == U_l.T:
            return []
        if y < A or A == 0.0:
            return [CurveLeg(RAREFACTION, BACKWARD, U_l, end)]
        if y < Tt:
            return [CurveLeg(SHOCK, BACKWARD, U_l, end)]
        if y == Tt:
            return [CurveLeg(SHOCK, BACKWARD, U_l, end, degenerate="right")]
        junction = State(self.s * Tt, U_l.v + self.s * self.vt)
        return [CurveLeg(SHOCK, BACKWARD, U_l, junction, degenerate="right"),
                CurveLeg(RAREFACTION, BACKWARD, junction, end)]


class ForwardCurve:
    """The forward wave curves that end at stress T_r, as a function of
    their start stress T_0: delta(T_0) is the velocity change from T_0 to
    T_r.  Built once, with the mirror that makes R = s*T_r >= 0 and the
    constants of the composite branch: the tangency stress Tj of R and the
    velocity jump vj = (R - Tj)*w(Tj) of the degenerate shock from it.  For
    T_r = 0 the composite is a bare fan, which Tj = vj = 0 reproduces."""

    __slots__ = ("m", "s", "R", "Tj", "vj")

    def __init__(self, m: Material, T_r: float):
        self.m = m
        self.s = -1.0 if T_r < 0.0 else 1.0
        self.R = R = self.s * T_r
        if R == 0.0:
            self.Tj = self.vj = 0.0
        else:
            self.Tj = Tj = tangent_point(m, R)
            self.vj = (R - Tj) * _w(m, Tj)

    def delta(self, T_0: float) -> float:
        """Velocity change from T_0 to T_r: a fan for |T_0| beyond T_r on
        its side, a shock (classical, or cross-zero once the fan is
        swallowed) down to the tangency stress, a composite below it."""
        m, R, Tj, x = self.m, self.R, self.Tj, self.s * T_0
        if x > R:
            d = -rarefaction_integral(m, x, R)
        elif x >= Tj:
            d = -_jump_v(m, x, R)
        else:
            d = -rarefaction_integral(m, x, Tj) - self.vj
        return self.s * d

    def slope(self, T_0: float) -> float:
        """d(delta)/dT_0; strictly positive (the solver's Newton steps use
        it)."""
        m, R, x = self.m, self.R, self.s * T_0
        if self.Tj <= x < R:
            # differentiate -sqrt((R - x) * de / rho) in x
            de = strain(m, R) - strain(m, x)
            dP = -de - (R - x) * strain_prime(m, x)
            denom = 2.0 * math.sqrt(max((R - x) * de, 0.0) * m.rho)
            if denom != 0.0:
                return -dP / denom
        return _w(m, x)

    def legs(self, start: State, U_r: State) -> list[CurveLeg]:
        """Legs (0, 1 or 2) from `start` to U_r (U_r.T = T_r), built back
        from U_r: a composite's junction is U_r minus the degenerate
        shock's velocity jump, so every leg's jump comes from its own outer
        state."""
        R, Tj, x = self.R, self.Tj, self.s * start.T
        if start.T == U_r.T:
            return []
        if x > R:
            return [CurveLeg(RAREFACTION, FORWARD, start, U_r)]
        if x > Tj:
            return [CurveLeg(SHOCK, FORWARD, start, U_r)]
        if x == Tj:
            return [CurveLeg(SHOCK, FORWARD, start, U_r, degenerate="left")]
        if R == 0.0:
            return [CurveLeg(RAREFACTION, FORWARD, start, U_r)]
        junction = State(self.s * Tj, U_r.v + self.s * self.vj)
        return [CurveLeg(RAREFACTION, FORWARD, start, junction),
                CurveLeg(SHOCK, FORWARD, junction, U_r, degenerate="left")]


# ---------------------------------------------------------------------------
# single evaluations


def backward_v(m: Material, U_l: State, T: float) -> float:
    """Velocity on the backward wave curve through U_l at terminal stress T."""
    return BackwardCurve(m, U_l).v(T)


def decompose_backward(m: Material, U_l: State, T: float) -> list[CurveLeg]:
    """Explicit leg sequence (0, 1 or 2 legs) realizing backward_v."""
    curve = BackwardCurve(m, U_l)
    return curve.legs(State(T, curve.v(T)))


def forward_delta(m: Material, T_0: float, T: float) -> float:
    """Velocity change along the forward wave curve from stress T_0 to T."""
    return ForwardCurve(m, T).delta(T_0)


def forward_v(m: Material, U_0: State, T: float) -> float:
    """Velocity on the forward wave curve through U_0 at terminal stress T."""
    return U_0.v + forward_delta(m, U_0.T, T)


def decompose_forward(m: Material, U_0: State, T: float) -> list[CurveLeg]:
    """Explicit leg sequence (0, 1 or 2 legs) realizing forward_v."""
    curve = ForwardCurve(m, T)
    return curve.legs(U_0, State(T, U_0.v + curve.delta(U_0.T)))
