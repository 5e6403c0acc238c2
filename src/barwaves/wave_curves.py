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

All functions are pure; concurrent use is unrestricted.
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


# ---------------------------------------------------------------------------
# backward family


def _backward_delta_neg(m: Material, T_l: float, T: float) -> float:
    # velocity change along the backward curve from (T_l, .), T_l < 0
    if T == T_l:
        return 0.0
    if T < T_l:
        return rarefaction_integral(m, T_l, T)
    Tt = tangent_point(m, T_l)
    if T <= Tt:
        return _jump_v(m, T_l, T)
    vt = (Tt - T_l) * math.sqrt(strain_prime(m, Tt) / m.rho)
    return vt + rarefaction_integral(m, Tt, T)


def _backward_dv_neg(m: Material, T_l: float, T: float) -> float:
    if T <= T_l:
        return math.sqrt(strain_prime(m, T) / m.rho)
    Tt = tangent_point(m, T_l)
    if T <= Tt:
        de = strain(m, T) - strain(m, T_l)
        denom = 2.0 * math.sqrt(max(m.rho * (T - T_l) * de, 0.0))
        if denom > 0.0:
            return (de + (T - T_l) * strain_prime(m, T)) / denom
        # a shock of roundoff width: its characteristic limit
    return math.sqrt(strain_prime(m, T) / m.rho)


def backward_v(m: Material, U_l: State, T: float) -> float:
    """Velocity on the backward wave curve through U_l at terminal stress T."""
    if U_l.T > 0.0:
        return -backward_v(m, State(-U_l.T, -U_l.v), -T)
    if U_l.T == 0.0:
        return U_l.v + rarefaction_integral(m, 0.0, T)
    return U_l.v + _backward_delta_neg(m, U_l.T, T)


def backward_dv(m: Material, U_l: State, T: float) -> float:
    """d(backward_v)/dT; strictly positive."""
    if U_l.T > 0.0:
        return _backward_dv_neg(m, -U_l.T, -T)
    if U_l.T == 0.0:
        return math.sqrt(strain_prime(m, T) / m.rho)
    return _backward_dv_neg(m, U_l.T, T)


def decompose_backward(m: Material, U_l: State, T: float) -> list[CurveLeg]:
    """Explicit leg sequence (0, 1 or 2 legs) realizing backward_v."""
    if U_l.T > 0.0:
        return [_mirror_leg(leg)
                for leg in decompose_backward(m, State(-U_l.T, -U_l.v), -T)]
    if T == U_l.T:
        return []
    end = State(T, backward_v(m, U_l, T))
    if U_l.T == 0.0 or T < U_l.T:
        return [CurveLeg(RAREFACTION, BACKWARD, U_l, end)]
    Tt = tangent_point(m, U_l.T)
    if T < Tt:
        return [CurveLeg(SHOCK, BACKWARD, U_l, end)]
    if T == Tt:
        return [CurveLeg(SHOCK, BACKWARD, U_l, end, degenerate="right")]
    junction = State(Tt, backward_v(m, U_l, Tt))
    return [CurveLeg(SHOCK, BACKWARD, U_l, junction, degenerate="right"),
            CurveLeg(RAREFACTION, BACKWARD, junction, end)]


# ---------------------------------------------------------------------------
# forward family


def forward_delta(m: Material, T_0: float, T: float) -> float:
    """Velocity change along the forward wave curve from stress T_0 to T."""
    if T_0 > 0.0:
        return -forward_delta(m, -T_0, -T)
    if T == T_0:
        return 0.0
    if T_0 == 0.0:
        return -math.copysign(1.0, T) * math.sqrt(
            max(T * strain(m, T), 0.0) / m.rho)
    if T < T_0:
        return _jump_v(m, T_0, T)
    if T <= 0.0:
        return -rarefaction_integral(m, T_0, T)
    Tj = tangent_point(m, T)
    if Tj > T_0:
        return (-rarefaction_integral(m, T_0, Tj)
                - (T - Tj) * math.sqrt(strain_prime(m, Tj) / m.rho))
    return -_jump_v(m, T_0, T)


def forward_delta_dstart(m: Material, T_0: float, T: float) -> float:
    """Partial derivative of forward_delta with respect to T_0 at fixed T;
    strictly positive (the solver's Newton steps use it)."""
    if T_0 > 0.0:
        return forward_delta_dstart(m, -T_0, -T)
    if T == T_0:
        return math.sqrt(strain_prime(m, T_0) / m.rho)
    if T_0 < 0.0 and T_0 < T <= 0.0:
        return math.sqrt(strain_prime(m, T_0) / m.rho)
    if T_0 < 0.0 < T:
        Tj = tangent_point(m, T)
        if Tj > T_0:
            return math.sqrt(strain_prime(m, T_0) / m.rho)
    # shock branches (same-side or cross-zero): differentiate
    # (+-)sqrt((T - T_0) * de / rho) in T_0
    de = strain(m, T) - strain(m, T_0)
    dP = -de - (T - T_0) * strain_prime(m, T_0)
    P = (T - T_0) * de
    denom = 2.0 * math.sqrt(max(P, 0.0) * m.rho)
    if denom == 0.0:
        return math.sqrt(strain_prime(m, T_0) / m.rho)
    return dP / denom if T < T_0 else -dP / denom


def forward_v(m: Material, U_0: State, T: float) -> float:
    """Velocity on the forward wave curve through U_0 at terminal stress T."""
    return U_0.v + forward_delta(m, U_0.T, T)


def decompose_forward(m: Material, U_0: State, T: float) -> list[CurveLeg]:
    """Explicit leg sequence (0, 1 or 2 legs) realizing forward_v."""
    if U_0.T > 0.0:
        return [_mirror_leg(leg)
                for leg in decompose_forward(m, State(-U_0.T, -U_0.v), -T)]
    if T == U_0.T:
        return []
    end = State(T, forward_v(m, U_0, T))
    if U_0.T == 0.0 or T < U_0.T:
        return [CurveLeg(SHOCK, FORWARD, U_0, end)]
    if T <= 0.0:
        return [CurveLeg(RAREFACTION, FORWARD, U_0, end)]
    Tj = tangent_point(m, T)
    if Tj > U_0.T:
        junction = State(Tj, forward_v(m, U_0, Tj))
        return [CurveLeg(RAREFACTION, FORWARD, U_0, junction),
                CurveLeg(SHOCK, FORWARD, junction, end, degenerate="left")]
    if Tj == U_0.T:
        return [CurveLeg(SHOCK, FORWARD, U_0, end, degenerate="left")]
    return [CurveLeg(SHOCK, FORWARD, U_0, end)]


def _mirror_leg(leg: CurveLeg) -> CurveLeg:
    return CurveLeg(leg.kind, leg.family,
                    State(-leg.start.T, -leg.start.v),
                    State(-leg.end.T, -leg.end.v),
                    degenerate=leg.degenerate)
