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

Forward curves, by reflection: the system is invariant under x -> -x with
T -> -T and v kept, which turns a forward wave from (T, v) to U_r into a
backward wave from (-T_r, v_r) to (-T, v).  So the states from which a
forward wave reaches U_r are the backward curve through (-T_r, v_r) read at
-T, and each backward branch has a forward twin: a rarefaction, a shock up
to the tangency stress of T_r (degenerate at its left state there; a
cross-zero shock once the fan is swallowed), and beyond it a fan followed
by that degenerate shock.

Along the backward curve v is strictly increasing in T; along the forward
curve strictly decreasing.  Both curves are twice continuously
differentiable, which the solver's root finding relies on.  The composite
branches are taken to extend for arbitrarily large terminal stress: every
formula above stays well-defined, the fan speed keeps growing
monotonically, and no further convexity change exists to interrupt them.

Within one solve there are only two tangency stresses: that of T_l on the
backward curve and that of T_r on the forward curves, all of which end at
U_r.  A solve therefore builds one curve pair, WaveCurve(m, U_l, BACKWARD)
and WaveCurve(m, U_r, FORWARD).  Each is sign-normalised once and holds its
anchor's strain, its tangency stress (one tangent_point call, closed form
for n = 1), its degenerate shock's velocity jump and the call's fan table;
the residual of the middle stress, its slope and the waves of the solution
(WaveCurve.legs, with their speeds) all read from the pair.  A fan, from A
or from Tt, is computed when it is read (material._fan), and a
shock-branch velocity or slope evaluates the strain once, at its end.  For
n != 1 both curves read one fan table (material._FanTable), which the
backward curve creates and the forward curve takes: a fan sums its head
panel on its first read, each panel between two knots is summed once per
solve, and a residual adds one tail panel.  A curve therefore serves one
thread, but nothing is cached between solves: each builds its own pair and
table, and a curve built alone takes its own table.  A linear material has
no tangency: its curve is one line through the anchor, crossed by a
contact.

WaveCurve is the curve API.  A curve is built through one state and read
at a stress T: v gives the velocity there, slope |dv/dT|, legs the waves
to the curve's state at T, and tangency the stress at which its shock
branch ends.  A forward curve is anchored at the state it ends at, as
solve anchors it at U_r; the forward curves that end at one stress differ
only by a shift of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .material import (
    BACKWARD,
    FORWARD,
    Material,
    _fan,
    _fan_table,
    _slope_speed,
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
class Wave:
    kind: str            # RAREFACTION or SHOCK
    family: str          # BACKWARD or FORWARD
    left: State
    right: State
    speed_head: float
    speed_tail: float    # equal to speed_head for shocks
    degenerate: str = ""  # "", "left", "right" or "both"


def shock_speed(m: Material, T_a: float, T_b: float, family: str) -> float:
    """Propagation speed of a jump between stresses T_a and T_b, from the
    jump conditions: s**2 = (T_b - T_a) / (rho * (strain_b - strain_a)),
    signed by family.  Zero-width jumps, and jumps whose chord slope is
    not positive, fall back to the characteristic speed (the degenerate
    limit); an unknown family raises wave_speed's ValueError."""
    if abs(T_b - T_a) > 1e-14 * max(1.0, abs(T_a), abs(T_b)):
        slope = (strain(m, T_b) - strain(m, T_a)) / (T_b - T_a)
        if slope > 0.0 and family in (BACKWARD, FORWARD):
            c = _slope_speed(m, slope)
            return -c if family == BACKWARD else c
    # a zero-width jump, a strain difference that cancels to 0 or below,
    # or an unknown family, which wave_speed rejects: the tangent limit
    return wave_speed(m, T_a, family)


def _jump_v(m: Material, T_a, e_a, T_b, xp=math):
    """|velocity jump| across a shock between T_a and T_b, given
    e_a = strain(m, T_a)."""
    prod = (T_b - T_a) * (strain(m, T_b) - e_a)
    return xp.sqrt(prod * (prod > 0.0) / m.rho)


def _w(m: Material, T, xp=math):
    """sqrt(strain_prime/rho) = 1/(rho*|characteristic speed|): the fan
    integrand."""
    return xp.sqrt(strain_prime(m, T) / m.rho)


def _shock_slope(m: Material, A, e_A, y, xp=math):
    """|dv/dT| of the shock branch from A to y, given e_A = strain(m, A),
    as a numerator and a denominator; the denominator is not positive for
    a shock of roundoff width, whose slope is its characteristic limit
    _w(m, y).  Where rho*(y - A)*de overflows, the root of the
    denominator is taken factor by factor (y > A on the shock branch), as
    _slope_speed takes its roots apart where its product underflows.  One
    body for floats and numpy lanes."""
    de = strain(m, y) - e_A
    prod = m.rho * (y - A) * de
    num = de + (y - A) * strain_prime(m, y)
    if xp is math:
        return num, 2.0 * (
            math.sqrt(prod * (prod > 0.0)) if prod < math.inf
            else math.sqrt(m.rho) * math.sqrt(y - A) * math.sqrt(de))
    root = xp.sqrt(prod * (prod > 0.0))
    finite = prod < math.inf
    if not finite.all():
        # lanes off the shock branch take discarded roots of magnitudes
        root = xp.where(finite, root, math.sqrt(m.rho) * xp.sqrt(
            xp.abs(y - A)) * xp.sqrt(xp.abs(de)))
    return num, 2.0 * root


# ---------------------------------------------------------------------------
# the curve pair of one solve


class WaveCurve:
    """The wave curve of one family anchored at U, as a function of the
    stress T at its other end: the backward curve from U to T, or the
    forward curves from T to U, which are the backward curve through
    (-U.T, U.v) reflected in space.  Built once, with the mirror
    (T, v) -> (-T, -v) that makes the anchor A = s*U.T <= 0, with the
    constants of its branches: the anchor strain e_A = strain(A) of the
    shock branch, the tangency stress Tt of A and the velocity jump
    vt = (Tt - A)*w(Tt) of the degenerate shock to it, and its fan table
    (material._fan_table), which a solve's forward curve takes from its
    backward curve and from which the fans from A and from Tt are read.
    The family sets the sign k of the velocity change (k = s backward, -s
    forward).  For U.T = 0 the curve is a rarefaction both ways, which
    Tt = vt = 0 reproduces.  A linear material has no tangency: Tt = A
    leaves no shock branch, its fans are one line through U, and its legs
    are one contact, a shock degenerate at "both" states."""

    __slots__ = ("m", "U", "family", "s", "k", "A", "e_A", "Tt", "vt",
                 "table")

    def __init__(self, m: Material, U: State, family: str, table=None):
        self.m, self.U, self.family = m, U, family
        self.s = -1.0 if U.T > 0.0 else 1.0
        self.k = self.s if family == BACKWARD else -self.s
        self.A = A = self.s * U.T
        if A == 0.0:
            self.Tt = self.vt = 0.0
        elif m.linear_mode:
            self.Tt, self.vt = A, 0.0
        else:
            self.Tt = Tt = tangent_point(m, A)
            self.vt = (Tt - A) * _w(m, Tt)
        self.e_A = strain(m, A)
        self.table = _fan_table(m) if table is None else table

    @property
    def tangency(self) -> float:
        """The tangency stress of U.T (unmirrored); U.T itself for a
        linear material, which has none."""
        return self.s * self.Tt

    def v(self, T: float) -> float:
        """Velocity at stress T."""
        m, A, Tt, y = self.m, self.A, self.Tt, self.s * T
        if y <= A:
            d = _fan(m, self.table, A, y)
        elif y <= Tt:
            d = _jump_v(m, A, self.e_A, y)
        else:
            d = self.vt + _fan(m, self.table, Tt, y)
        return self.U.v + self.k * d

    def slope(self, T: float) -> float:
        """|dv/dT|; strictly positive (v increases along the backward
        curve and decreases along the forward one)."""
        m, A, y = self.m, self.A, self.s * T
        if A < y <= self.Tt:
            num, denom = _shock_slope(m, A, self.e_A, y)
            if denom > 0.0:
                return num / denom
            # rare: logging is imported here, not on every start
            import logging
            logging.getLogger(__name__).debug(
                "shock from %r to %r has roundoff width: its slope is the "
                "characteristic limit", self.U.T, T)
        return _w(m, y)

    def legs(self, end: State) -> list[Wave]:
        """Waves (0, 1 or 2) between U and `end`, a point of the curve: from
        U to `end` backward, from `end` to U forward.  Both are built from
        U, so a composite's junction is U plus the degenerate shock's jump
        and every wave's jump comes from its own outer state.  A fan takes
        the characteristic speeds at its ends; a shock degenerate at one
        state takes the characteristic speed there, so it shares its ray
        with the attached fan edge bit for bit, a contact (degenerate at
        both) the characteristic speed of the line, and any other shock
        the speed of its jump."""
        m, family = self.m, self.family
        U, A, Tt, y = self.U, self.A, self.Tt, self.s * end.T
        if end.T == U.T:
            return []
        if m.linear_mode:
            legs = [(SHOCK, U, end, "both")]
        elif y < A or A == 0.0:
            legs = [(RAREFACTION, U, end, "")]
        elif y < Tt:
            legs = [(SHOCK, U, end, "")]
        elif y == Tt:
            legs = [(SHOCK, U, end, "right")]
        else:
            junction = State(self.s * Tt, U.v + self.k * self.vt)
            legs = [(SHOCK, U, junction, "right"),
                    (RAREFACTION, junction, end, "")]
        if family == FORWARD:
            # reflected in space: each leg runs the other way, and a shock
            # degenerate at its right state becomes one degenerate at its
            # left
            legs = [(kind, b, a, degenerate.replace("right", "left"))
                    for kind, a, b, degenerate in reversed(legs)]
        waves = []
        for kind, left, right, degenerate in legs:
            if kind == RAREFACTION:
                head = wave_speed(m, left.T, family)
                tail = wave_speed(m, right.T, family)
            elif degenerate:
                at = right if degenerate == "right" else left
                head = tail = wave_speed(m, at.T, family)
            else:
                head = tail = shock_speed(m, left.T, right.T, family)
            waves.append(Wave(kind, family, left, right, head, tail,
                              degenerate))
        return waves
