"""Exact solver for the two-state initial value problem of the bar.

The self-similar solution is a backward elementary wave from the left state
to a middle state, followed by a forward elementary wave to the right state.
Velocity is strictly increasing along the backward curve and strictly
decreasing along every forward curve, so the predicted right-state velocity
is strictly increasing in the middle stress and a bracketed root finder
pins the middle state; the sampled residuals are checked for monotonicity
on every call instead of assuming it.  The root finder sees the residual as
exactly zero within its roundoff, RESIDUAL_ROUNDOFF*eps*(|v_back| +
|v_fwd|), and stops there; the gate RESIDUAL_GATE, which the true residual
must pass, is more than 5000 times wider.  The residual is C^2, so rtsafe
starts from one sample at the root of the cubic Hermite interpolant of the
bracket ends (_hermite_start), which narrows its bracket.  The start lives
here, not in _newton_bisect, which also solves the tangency, the
threshold, the fan state and the inverse strain: the tangency residual has
slope 0 at its bracket end 0, where an end's cubic is no guide.

Region labels: the phase plane around a left state with T_l < 0 splits into
twelve regions A1..A12 (B1..B12 for T_l > 0, C1..C6 for T_l = 0) according
to the kind of each wave and the sign of the middle stress.  Each dividing
curve is the set of right states with one middle stress (T_r on W1, T_l on
W2, 0 on W2F/W2E, the tangency stress of T_l on W2B/W2C), so the residual
there is the distance from it: within BOUNDARY_TOL of the velocity jumps it
gives a boundary label (on-T0 is relative to the data stresses), and these
samples seed the bracket.  Other labels come from the constructed pattern.

For the experiment with both initial velocities zero, the solution type
I..XII is read off the solved waves (see ``_zero_velocity_case``);
``thresholds`` solves the stress thresholds for ``barwaves thresholds``.

``batch.solve_many`` runs the same solve on numpy lanes (``barwaves
atlas`` uses it).  The tolerances, the residual the root finders see
(_stopped_residual), rtsafe's start (_hermite_start), the region table, the
zero-velocity type and the error of a failed middle-stress search
(_middle_stress_error) are defined here once and serve both paths: on
narrow shocks the root lands wherever the residual reaches its noise, so
the paths agree only if they take the same iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoBracket, NonMonotone, RootNotBracketed
from .material import (
    BACKWARD,
    FORWARD,
    Material,
    _knee_stress,
    _newton_bisect,
    _slope_speed,
    strain,
    strain_prime,
    tangent_point,
    wave_speed,
)
from .wave_curves import (
    RAREFACTION,
    SHOCK,
    CurveLeg,
    State,
    WaveCurve,
    _w,
    shock_speed,
)

#: Distance, relative to the velocity jumps of the problem, below which a
#: right state counts as lying on a dividing curve of the phase plane.
BOUNDARY_TOL = 1e-9

#: Largest middle-stress residual accepted at the root, and the largest
#: decrease between neighbouring residual samples, relative to the
#: velocity scale of the solve.
RESIDUAL_GATE = 1e-11
MONOTONE_SLACK = 1e-8

#: The root finders take a middle-stress residual g = v_back - v_fwd as
#: exactly zero once |g| <= RESIDUAL_ROUNDOFF*eps*(|v_back| + |v_fwd|),
#: the roundoff of the subtraction: further steps would bisect noise.  Both
#: velocities are within twice the scale of the gate, so such a root has
#: |g| <= 8*eps*scale, about 1.8e-15*scale, far inside RESIDUAL_GATE.
RESIDUAL_ROUNDOFF = 2.0
_ROUNDOFF = RESIDUAL_ROUNDOFF * math.ulp(1.0)

#: Distance, relative to the data stresses, within which a middle stress
#: snaps to T_l or T_r.
SNAP_TOL = 1e-12


@dataclass(frozen=True)
class Wave:
    kind: str            # RAREFACTION or SHOCK
    family: str          # BACKWARD or FORWARD
    left: State
    right: State
    speed_head: float
    speed_tail: float    # equal to speed_head for shocks
    degenerate: str = ""


@dataclass(frozen=True)
class Thresholds:
    """Stress thresholds separating the zero-velocity solution types.

    For T_l < 0: 0 < T_star < T_star_star, and T_star equals -T_l exactly
    (the odd strain makes T*strain(T) even).  Mirrored for T_l > 0.
    """
    T_star: float
    T_star_star: float


@dataclass(frozen=True)
class WavePattern:
    material: Material
    left_state: State
    waves: tuple[Wave, ...]
    middle_states: tuple[State, ...]
    region_label: str
    zero_velocity_case: str | None = None

    @property
    def right_state(self) -> State:
        if self.waves:
            return self.waves[-1].right
        return self.left_state

    def shocks(self) -> list[Wave]:
        return [w for w in self.waves if w.kind == SHOCK]


def _wave_from_leg(m: Material, leg: CurveLeg) -> Wave:
    if leg.kind == SHOCK:
        # a degenerate shock travels with the characteristic at its tangency
        # state, so it shares its ray with the attached fan edge bit for bit
        if leg.degenerate == "left":
            s = wave_speed(m, leg.start.T, leg.family)
        elif leg.degenerate == "right":
            s = wave_speed(m, leg.end.T, leg.family)
        else:
            s = shock_speed(m, leg.start.T, leg.end.T, leg.family)
        return Wave(SHOCK, leg.family, leg.start, leg.end, s, s,
                    leg.degenerate)
    head = wave_speed(m, leg.start.T, leg.family)
    tail = wave_speed(m, leg.end.T, leg.family)
    return Wave(RAREFACTION, leg.family, leg.start, leg.end, head, tail,
                leg.degenerate)


def _bracket(fn, lo: float, hi: float, f_lo: float, f_hi: float,
             step: float):
    """Widen [lo, hi], where the increasing fn takes f_lo and f_hi, until fn
    changes sign in it: the end on the wrong side becomes the other end and
    moves out by `step`, which doubles each time.  Returns (lo, hi, f_lo,
    f_hi), or None after 2100 doublings, which cross the float range."""
    for _ in range(2100):
        if f_lo <= 0.0 <= f_hi:
            return lo, hi, f_lo, f_hi
        if f_lo > 0.0:
            hi, f_hi = lo, f_lo
            lo -= step
            f_lo = fn(lo)
        else:
            lo, f_lo = hi, f_hi
            hi += step
            f_hi = fn(hi)
        step *= 2.0
    return None


def _stopped_residual(g, v_back, v_fwd):
    """The residual g = v_back - v_fwd as the root finders see it: exactly
    zero within its roundoff (RESIDUAL_ROUNDOFF), which ends rtsafe and
    the bracket search there.  One body for floats and numpy lanes; a NaN
    stays NaN.  |v_back + v_fwd| stands for |v_back| + |v_fwd|: the two
    round alike when the velocities share a sign, and otherwise |g| is
    their sum and stays unless it is 0."""
    return g * (abs(g) > _ROUNDOFF * abs(v_back + v_fwd))


#: Newton steps on the cubic of _hermite_start, from the secant root.  They
#: reach the root at roundoff on a cubic near its chord, as those of the
#: middle-stress brackets mostly are; more steps save no residual samples
#: on the benchmark pools, and a point short of the root is still a sample
#: inside the bracket.
_HERMITE_STEPS = 4


def _hermite_start(lo, hi, f_lo, f_hi, d_lo, d_hi, xp=math):
    """Where rtsafe starts in the bracket [lo, hi] of the increasing
    residual, given its values f_lo < 0 < f_hi and slopes d_lo, d_hi at
    the ends: the root of the cubic Hermite interpolant of the ends.  The
    residual is C^2, so the root is the first sample of a search that
    costs fewer evaluations than one from an end.

    The cubic is taken in t = (x - lo)/(hi - lo), whose coefficients are
    the values and the slopes times the width: a power-of-two change of
    units scales all of them alike and leaves t unchanged bit for bit.
    _HERMITE_STEPS Newton steps from the secant root find its root; a zero
    derivative is taken as 1, so no step divides by zero.  Where an
    end slope is not positive and finite, an end value is 0 or the point
    is not strictly inside (lo, hi), the start is rtsafe's own, the end
    with the smaller |f|.  One body for floats and numpy lanes."""
    h = hi - lo
    m_lo, m_hi = h * d_lo, h * d_hi
    rise = f_hi - f_lo
    # p(t) = f_lo + t*(m_lo + t*(c2 + t*c3)) and its derivative
    c2 = 3.0 * rise - 2.0 * m_lo - m_hi
    c3 = m_lo + m_hi - 2.0 * rise
    dc2, dc3 = 2.0 * c2, 3.0 * c3
    t = -f_lo / (rise + (rise == 0.0))
    for _ in range(_HERMITE_STEPS):
        dp = m_lo + t * (dc2 + t * dc3)
        t = t - (f_lo + t * (m_lo + t * (c2 + t * c3))) / (dp + (dp == 0.0))
    x = lo + t * h
    usable = ((0.0 < d_lo) & (d_lo < math.inf) & (0.0 < d_hi)
              & (d_hi < math.inf) & (f_lo != 0.0) & (f_hi != 0.0)
              & (lo < x) & (x < hi))
    if xp is math:
        return x if usable else (lo if -f_lo < f_hi else hi)
    return xp.where(usable, x, xp.where(-f_lo < f_hi, lo, hi))


def _find_middle_stress(m: Material, U_l: State, U_r: State,
                        back: WaveCurve,
                        fwd: WaveCurve) -> tuple[float, float, str]:
    """Middle stress of the solution, the backward curve's velocity there
    and the boundary label of U_r ('' off the dividing curves).  Each
    dividing curve holds the right states whose middle stress is one
    dividing stress T_d, so the residual g(T_d) is the velocity distance of
    U_r from it.  One sample of g at each T_d decides the label and its
    tolerance, brackets the root and joins the monotonicity check.

    The root finders see the residual zeroed within its roundoff
    (_stopped_residual), so rtsafe stops at its exact-zero exit instead of
    bisecting noise; the samples keep the true residual, which the labels,
    the bracket seed, the monotonicity check, the gate and the snap read."""
    # (residual, back.v, fwd.v) at every evaluated stress
    samples: dict[float, tuple[float, float, float]] = {}

    def sample(T_bar: float) -> tuple[float, float, float]:
        v_back = back.v(T_bar)
        v_fwd = fwd.v(T_bar)
        val = v_back - v_fwd
        if not math.isfinite(val):
            # a product overflows to inf without raising, unlike math's
            # powers: the solve stops at its first non-finite residual
            raise OverflowError("wave-curve velocity")
        samples[T_bar] = found = (val, v_back, v_fwd)
        return found

    def g(T_bar: float) -> float:
        return _stopped_residual(*sample(T_bar))

    def dg(T_bar: float) -> float:
        return back.slope(T_bar) + fwd.slope(T_bar)

    # W1, W2 and, for T_l != 0, the forward curves from the zero-stress and
    # the tangency points of the backward curve, in order of precedence
    dividing = [(U_r.T, "on-W1"), (U_l.T, "on-W2")]
    if U_l.T < 0.0:
        dividing += [(0.0, "on-W2F"), (back.tangency, "on-W2B")]
    elif U_l.T > 0.0:
        dividing += [(0.0, "on-W2E"), (back.tangency, "on-W2C")]
    for T_d, _ in dividing:
        sample(T_d)
    # the velocity jumps from U_l to U_r and along both curves through U_l
    # to T_r, not velocities: a common shift of v (Galilean invariance) must
    # leave the solution's shape unchanged
    tol = BOUNDARY_TOL * max(abs(U_r.v - U_l.v),
                             abs(samples[U_r.T][1] - U_l.v),
                             abs(samples[U_l.T][2] - U_r.v))
    if tol == math.inf:
        raise OverflowError("wave-curve velocity")
    for T_d, label in dividing:
        if abs(samples[T_d][0]) <= tol:
            return T_d, samples[T_d][1], label

    # g is strictly increasing and unbounded both ways: the samples bracket
    # the root, or the search widens from the outermost one by the Newton
    # step there, at most the stress scale of the data and of the strain's
    # knee, beyond which g steepens and the Newton step overshoots.
    lo = max((T for T, p in samples.items() if p[0] < 0.0), default=None)
    hi = min((T for T, p in samples.items() if p[0] > 0.0), default=None)
    step = 0.0
    if lo is None or hi is None:
        lo = hi = hi if lo is None else lo
        cap = max(abs(U_l.T), abs(U_r.T), _knee_stress(m))
        newton = abs(samples[lo][0]) / dg(lo)
        step = newton if 0.0 < newton < cap else cap
    found = _bracket(g, lo, hi, samples[lo][0], samples[hi][0], step)
    if found is None:
        raise _middle_stress_error("bracket", U_l, U_r)
    # one sample at the root of the bracket's cubic Hermite interpolant
    # narrows the bracket that rtsafe gets (not in _newton_bisect: see the
    # module docstring)
    lo, hi, f_lo, f_hi = found
    x = _hermite_start(lo, hi, f_lo, f_hi, dg(lo), dg(hi))
    if lo < x < hi:
        f_x = g(x)
        if f_x < 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    root = _newton_bisect(g, dg, lo, hi, f_lo, f_hi)
    if root not in samples:
        # the last Newton step was within two ulps, so never evaluated
        g(root)

    # Judge residuals against the velocity scale of the data and of both
    # wave curves at the root, with no absolute floor: it holds at every
    # magnitude.  Two terms bound the roundoff of the residual: |v_l| and
    # |v_r| under a common velocity shift, and T*w(T) at the larger data
    # stress T for a narrow shock from it, whose strain difference cancels.
    final, v_back, v_fwd = samples[root]
    T_big = max(abs(U_l.T), abs(U_r.T))
    scale = max(abs(U_l.v), abs(U_r.v), abs(v_back - U_l.v),
                abs(v_fwd - U_r.v), T_big * _w(m, T_big))
    ordered = sorted(samples.items())
    for (_, a), (_, b) in zip(ordered, ordered[1:]):
        if b[0] < a[0] - MONOTONE_SLACK * scale:
            raise _middle_stress_error("monotone", U_l, U_r)
    if abs(final) > RESIDUAL_GATE * scale:
        raise _middle_stress_error(final, U_l, U_r)
    snap = SNAP_TOL * max(abs(U_l.T), abs(U_r.T))
    for T_d in (U_l.T, U_r.T):
        if abs(root - T_d) <= snap:
            # rare: logging is imported here, not on every start
            import logging
            logging.getLogger(__name__).debug(
                "middle stress %r snaps to the data stress %r", root, T_d)
            return T_d, samples[T_d][1], ""
    return root, v_back, ""


def _middle_stress_error(kind, U_l: State, U_r: State) -> Exception:
    """The error of a middle-stress search from U_l to U_r that failed:
    kind is 'overflow', 'bracket', 'monotone', or the final residual that
    missed the gate."""
    if kind == "overflow":
        return NoBracket(
            f"wave-curve velocities overflow between {U_l} and {U_r}")
    if kind == "bracket":
        return NoBracket(
            f"no bracket for the middle stress between {U_l} and {U_r}")
    if kind == "monotone":
        return NonMonotone("sampled residuals are not monotone in the "
                           f"middle stress between {U_l} and {U_r}")
    return NoBracket(f"middle-stress residual {kind} between {U_l} "
                     f"and {U_r} misses the tolerance")


def _leg_summary(legs: list[CurveLeg]) -> str:
    """Collapse a leg list to 'R', 'S', 'SR', 'X' or ''.

    'X' marks a forward leg that crosses zero stress: either a composite
    (fan plus degenerate shock) or the single shock left after the fan is
    swallowed.  Geometrically both live in the same phase-plane band.
    """
    if not legs:
        return ""
    if len(legs) == 2:
        if legs[0].kind == SHOCK:
            return "SR"
        return "X"
    leg = legs[0]
    if leg.kind == RAREFACTION:
        return "R"
    if leg.family == FORWARD and leg.start.T * leg.end.T < 0.0:
        return "X"
    return "S"


_REGION_MAPS = {
    # (backward summary, forward summary) -> label, possibly split on the
    # sign of the middle stress.
    "A": {("R", "S"): "A1", ("R", "R"): "A2", ("R", "X"): "A3",
          ("S", "S"): ("A4", "A9"), ("S", "R"): ("A5", "A8"),
          ("S", "X"): ("A6", "A7"),
          ("SR", "S"): "A12", ("SR", "R"): "A11", ("SR", "X"): "A10"},
    "B": {("SR", "S"): "B1", ("SR", "R"): "B2", ("SR", "X"): "B3",
          ("S", "S"): ("B4", "B9"), ("S", "R"): ("B5", "B8"),
          ("S", "X"): ("B6", "B7"),
          ("R", "S"): "B12", ("R", "R"): "B11", ("R", "X"): "B10"},
    "C": {("R", "S"): ("C6", "C1"), ("R", "R"): ("C5", "C2"),
          ("R", "X"): ("C3", "C4")},
}


def _region_label(U_l: State, U_r: State, T_bar: float,
                  back: list[CurveLeg], fwd: list[CurveLeg]) -> str:
    """Label of U_r off the dividing curves, which _find_middle_stress
    labels from its residual samples: on-T0 or the region of the legs."""
    if abs(U_r.T) <= BOUNDARY_TOL * max(abs(U_l.T), abs(U_r.T)):
        return "on-T0"

    system = "A" if U_l.T < 0.0 else ("B" if U_l.T > 0.0 else "C")
    key = (_leg_summary(back), _leg_summary(fwd))
    entry = _REGION_MAPS[system].get(key)
    if entry is None:
        return "unclassified"
    if isinstance(entry, tuple):
        return entry[0] if T_bar < 0.0 else entry[1]
    return entry


def thresholds(m: Material, T_l: float) -> Thresholds:
    """Zero-velocity stress thresholds for a left stress of the given sign.

    T_star solves T*strain(T) = T_l*strain(T_l) on the opposite side of
    zero, so it equals -T_l exactly; T_star_star solves the equal-velocity
    condition (T - Tt)(strain(T) - strain(Tt)) = (Tt - T_l)**2 *
    strain_prime(Tt) beyond the tangency stress Tt of T_l.  `solve` does
    not call this: it reads the solution type off its waves.
    """
    if not math.isfinite(T_l):
        raise ValueError(f"thresholds require a finite left stress, got {T_l}")
    if T_l == 0.0:
        raise ValueError("thresholds require a nonzero left stress")

    # Solve the mirror image with left stress -|T_l| for t = T/|T_l|, with
    # each factor of the condition divided by |T_l| so that no product
    # underflows for tiny left stresses; the thresholds are -T_l*(1, t).
    A = abs(T_l)
    try:
        Tt = tangent_point(m, -A)
        t_t = Tt / A
        eps_t = strain(m, Tt)
        rhs = (t_t + 1.0) ** 2 * strain_prime(m, Tt)

        def k(t):
            return (t - t_t) * ((strain(m, A * t) - eps_t) / A) - rhs

        def dk(t):
            return (strain(m, A * t) - eps_t) / A + (t - t_t) * strain_prime(
                m, A * t)

        # k(t_t) = -rhs < 0 and k grows without bound beyond t_t
        found = _bracket(k, t_t, 4.0, -rhs, k(4.0), 4.0)
        if found is None:
            raise RootNotBracketed("bracket search failed for the "
                                   f"equal-velocity threshold of {T_l}")
        return Thresholds(-T_l, -T_l * _newton_bisect(k, dk, *found))
    except OverflowError as exc:
        raise RootNotBracketed(
            f"constitutive functions overflow at left stress {T_l}") from exc


#: Solution types of zero-velocity data with T_l > 0, by the type of the
#: negated data (T_l < 0).
_NEGATED_CASE = {"I": "VI", "II": "VII", "III": "VIII", "IV": "IX", "V": "X"}


def _zero_velocity_case(T_l: float, T_r: float, T_bar: float,
                        composite: bool) -> str:
    """Solution type I..XII of data with both velocities zero and T_l !=
    T_r.  For T_l < 0, T_r against T_l and 0 gives I and II; for T_r > 0
    the middle stress T_bar is negative in III, and V differs from IV only
    in its `composite` backward wave (shock then fan).  Types VI..X
    (T_l > 0) are I..V of the negated data."""
    if T_l == 0.0:
        return "XI" if T_r < 0.0 else "XII"
    if T_l > 0.0:
        return _NEGATED_CASE[_zero_velocity_case(-T_l, -T_r, -T_bar,
                                                 composite)]
    if T_r < T_l:
        return "I"
    if T_r <= 0.0:
        return "II"
    if T_bar < 0.0:
        return "III"
    return "V" if composite else "IV"


def solve(m: Material, U_l: State, U_r: State) -> WavePattern:
    """Unique admissible self-similar solution joining U_l to U_r."""
    for name, x in (("T_l", U_l.T), ("v_l", U_l.v), ("T_r", U_r.T),
                    ("v_r", U_r.v)):
        if not math.isfinite(x):
            raise ValueError(f"solve requires finite states, got {name}={x}")
    if U_l == U_r:
        return WavePattern(m, U_l, (), (), "trivial")
    if m.linear_mode:
        return solve_linear(m, U_l, U_r)

    try:
        back = WaveCurve(m, U_l, BACKWARD)
        fwd = WaveCurve(m, U_r, FORWARD)
        T_bar, v_bar, label = _find_middle_stress(m, U_l, U_r, back, fwd)
        middle = State(T_bar, v_bar)
        back_legs = back.legs(middle)
        fwd_legs = fwd.legs(middle)
        waves = tuple(_wave_from_leg(m, leg) for leg in back_legs + fwd_legs)
    except OverflowError as exc:
        raise _middle_stress_error("overflow", U_l, U_r) from exc
    middles = tuple(w.right for w in waves[:-1])
    label = label or _region_label(U_l, U_r, T_bar, back_legs, fwd_legs)
    case = None
    if U_l.v == 0.0 and U_r.v == 0.0:
        # a composite is the only two-leg backward wave
        case = _zero_velocity_case(U_l.T, U_r.T, T_bar, len(back_legs) == 2)
    return WavePattern(m, U_l, waves, middles, label, case)


def solve_linear(m: Material, U_l: State, U_r: State) -> WavePattern:
    """Closed-form two-contact solution for a linear-mode material."""
    if not m.linear_mode:
        raise ValueError("solve_linear requires a linear_mode material")
    if U_l == U_r:
        return WavePattern(m, U_l, (), (), "trivial")
    k = m.alpha + m.beta
    c = _slope_speed(m, k)
    T_mid = 0.5 * (U_r.T + U_l.T) + 0.5 * math.sqrt(m.rho / k) * (U_r.v - U_l.v)
    v_mid = 0.5 * (U_r.v + U_l.v) + 0.5 * math.sqrt(k / m.rho) * (U_r.T - U_l.T)
    mid = State(T_mid, v_mid)
    waves = []
    if mid != U_l:
        waves.append(Wave(SHOCK, BACKWARD, U_l, mid, -c, -c, "both"))
    if mid != U_r:
        waves.append(Wave(SHOCK, FORWARD, mid, U_r, c, c, "both"))
    middles = tuple(w.right for w in waves[:-1])
    return WavePattern(m, U_l, tuple(waves), middles, "linear")
