"""Exact solver for the two-state initial value problem of the bar.

The self-similar solution is a backward elementary wave from the left state
to a middle state, followed by a forward elementary wave to the right state.
``solve`` finds the middle state on the curve pair of wave_curves and takes
the finished waves, speeds included, from the pair (WaveCurve.legs).
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
gives a boundary label (_boundary_index), and these samples seed the
bracket.  Elsewhere the legs of each curve to the middle stress reduce
to a code (_summary), and the two codes and the signs of T_l and of the
middle stress pick the region (_region_index, which also gives on-T0).

For the experiment with both initial velocities zero, the solution type
I..XII is read off the solution (see ``_zero_velocity_index``);
``thresholds`` solves the stress thresholds for ``barwaves thresholds``.

``batch.solve_many`` runs the same solve on numpy lanes (``barwaves
atlas`` uses it).  Every decision of the middle-stress search but the
rtsafe step is defined here once, as one body for floats and lanes that
selects with material._where, and serves both paths; only the loops
differ, the scalar one branching where the lane ones compact their live
lanes (the bracket search) or retire them by mask (rtsafe).  These are
the tolerances, what the dividing samples decide (the boundary tolerance
and row and the bracket seed, _seed) and the first step from a one-sided
seed (_seed_step), one doubling of the bracket search (_widen) and the
bracket it ends with (_ordered), the residual the root finders see
(_stopped_residual), rtsafe's start (_hermite_start) and the narrowing
there (material._narrow, which the tangency shares), the judgement of the
root (_verdict: scale, monotonicity, gate and snap) and the error of a
failed search (_middle_stress_error).
So are the classification (_boundary_index, _summary, _region_index and
the tables _LABELS and _REGIONS built from _REGION_MAPS), the zero-velocity
type and the linear middle state (_linear_middle).  rtsafe is
material._newton_bisect on floats and batch._newton_bisect_many on lanes,
with the same steps and exits, in two loops: one body for both made
scalar solves slower (material._newton_bisect gives the measurement).  On
narrow shocks the root lands wherever the residual reaches its noise, so
the paths agree only if they take the same iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import NoBracket, NonMonotone, RootNotBracketed
from .material import (
    BACKWARD,
    FORWARD,
    Material,
    _knee_stress,
    _narrow,
    _newton_bisect,
    _slope_speed,
    _where,
    strain,
    strain_prime,
    tangent_point,
)
from .wave_curves import SHOCK, State, Wave, WaveCurve, _w

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


def _largest(values, xp=math):
    """The largest of values, element by element on numpy lanes."""
    return max(values) if xp is math else reduce(xp.maximum, values)


#: Doublings of the bracket search, on floats (_find_middle_stress) and on
#: lanes (batch._middle_stress), after which it fails: they cross the float
#: range.
_DOUBLINGS = 2100


def _widen(lo, f_lo, hi, f_hi, step):
    """One doubling of the bracket search for the root of an increasing
    function, from its inner end lo and its outer end hi, where it takes
    f_lo and f_hi: outward is up for f_lo <= 0 and down otherwise, and the
    search stays on that side, so f_lo is on the far side of the root.
    Returns a code (1 where f_hi has reached the root's side, so that lo
    and hi bracket it, 2 where f_hi is NaN, else 0), the next outer end
    `step` further out and the next step, twice this one.  One body for
    floats and numpy lanes."""
    s = 1.0 - 2.0 * (f_lo > 0.0)
    return (s * f_hi >= 0.0) + 2 * (f_hi != f_hi), hi + s * step, 2.0 * step


def _ordered(lo, f_lo, hi, f_hi, xp=math):
    """The bracket that a search widened to, as (lo, hi, f_lo, f_hi) with
    lo < hi: the function is increasing, so its values order as its ends
    do.  One body for floats and numpy lanes."""
    lower, upper = (min, max) if xp is math else (xp.minimum, xp.maximum)
    return lower(lo, hi), upper(lo, hi), lower(f_lo, f_hi), upper(f_lo, f_hi)


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


#: Failures of a middle-stress search, as _seed and _verdict report them
#: and _middle_stress_error words them.
_OVERFLOW, _NO_BRACKET, _NON_MONOTONE, _MISSED_GATE = 1, 2, 3, 4


def _seed(v_l, v_r, dividing, g, v_back, v_fwd, xp=math):
    """What the samples at the dividing stresses (the rows of
    _find_middle_stress: a list on floats, stacked rows on numpy lanes)
    decide: a failure code (_OVERFLOW where the boundary tolerance is not
    finite), the first row whose |g| is within that tolerance (-1 for
    none), and the bracket seed (lo, hi, f_lo, f_hi): the largest
    dividing stress where g < 0 and the smallest where g > 0, or the one
    of them there is as both ends.

    The tolerance is BOUNDARY_TOL of the velocity jumps from U_l to U_r
    and along both curves through U_l to T_r, not of velocities: a common
    shift of v (Galilean invariance) must leave the solution's shape
    unchanged.  One body for floats and numpy lanes."""
    tol = BOUNDARY_TOL * _largest(
        (abs(v_r - v_l), abs(v_back[0] - v_l), abs(v_fwd[1] - v_r)), xp)
    row = -1
    lo, hi, f_lo, f_hi = -math.inf, math.inf, math.nan, math.nan
    for k, (T, r) in enumerate(zip(dividing, g)):
        row = row + (row < 0) * (abs(r) <= tol) * (k + 1)
        lo, f_lo = _where((r < 0.0) & (T > lo), (T, r), (lo, f_lo), xp)
        hi, f_hi = _where((r > 0.0) & (T < hi), (T, r), (hi, f_hi), xp)
    # samples on one side only: the outermost one is both ends
    lo, f_lo = _where(f_lo != f_lo, (hi, f_hi), (lo, f_lo), xp)
    hi, f_hi = _where(f_hi != f_hi, (lo, f_lo), (hi, f_hi), xp)
    return _OVERFLOW * (tol == math.inf), row, lo, hi, f_lo, f_hi


def _seed_step(m: Material, T_l, T_r, f, d, xp=math):
    """The first step of the bracket search from a seed lo = hi, where the
    residual is f and its slope d: the Newton step |f|/d, if it is
    positive and below the cap, the stress scale of the data and of the
    strain's knee (_knee_stress), beyond which g steepens and the Newton
    step overshoots; else the cap, also where the slope is not positive.
    One body for floats and numpy lanes."""
    cap = _largest((abs(T_l), abs(T_r), _knee_stress(m)), xp)
    newton = abs(f) / (d + (d == 0.0))
    return _where((0.0 < d) & (0.0 < newton) & (newton < cap), newton, cap,
                  xp)


def _verdict(m: Material, T_l, v_l, T_r, v_r, root, g, v_back, v_fwd,
             v_l_back, v_r_back, ordered, xp=math):
    """Judge the root of a middle-stress search, where the residual is g
    and the curves' velocities v_back and v_fwd, given the backward
    velocities at T_l and T_r and the residuals of every sample `ordered`
    by stress (rows on lanes).  Returns (failure, snap, T_bar, v_bar):
    failure is _OVERFLOW where the velocity scale is not finite, else
    _NON_MONOTONE where a residual falls by more than MONOTONE_SLACK of it
    from its neighbour, else _MISSED_GATE where |g| exceeds RESIDUAL_GATE
    of it, else 0; snap names the data stress within SNAP_TOL of the
    larger one that the root snaps to (1 for T_l, else 2 for T_r, else 0),
    and (T_bar, v_bar) is the middle state there.

    The scale is that of the data and of both wave curves at the root,
    with no absolute floor: it holds at every magnitude.  Two terms bound
    the roundoff of the residual: |v_l| and |v_r| under a common velocity
    shift, and T*w(T) at the larger data stress T for a narrow shock from
    it, whose strain difference cancels.  One body for floats and numpy
    lanes."""
    T_big = _largest((abs(T_l), abs(T_r)), xp)
    stress = T_big * _w(m, T_big, xp)
    scale = _largest((abs(v_l), abs(v_r), abs(v_back - v_l),
                      abs(v_fwd - v_r), stress), xp)
    slack = MONOTONE_SLACK * scale
    wiggle = False
    for a, b in zip(ordered, ordered[1:]):
        wiggle = wiggle | (b < a - slack)
    finite = abs(stress) < math.inf
    failure = (1 - finite) * _OVERFLOW + finite * (
        wiggle * _NON_MONOTONE
        + (1 - wiggle) * (abs(g) > RESIDUAL_GATE * scale) * _MISSED_GATE)
    near_l = abs(root - T_l) <= SNAP_TOL * T_big
    snap = near_l + 2 * (1 - near_l) * (abs(root - T_r) <= SNAP_TOL * T_big)
    return (failure, snap, *_where(
        snap > 0, _where(snap == 2, (T_r, v_r_back), (T_l, v_l_back), xp),
        (root, v_back), xp))


def _find_middle_stress(m: Material, U_l: State, U_r: State,
                        back: WaveCurve,
                        fwd: WaveCurve) -> tuple[float, float, int]:
    """Middle stress of the solution, the backward curve's velocity there
    and the code in _LABELS of the boundary label of U_r (-1 off the
    dividing curves).  Each dividing curve holds the right states whose
    middle stress is one dividing stress T_d, so the residual g(T_d) is
    the velocity distance of U_r from it.  One sample of g at each T_d
    decides the label and its tolerance, brackets the root and joins the
    monotonicity check (_seed).  g is strictly increasing and unbounded
    both ways: the samples bracket the root, or the search widens from
    the outermost one (_seed_step, _widen).  One sample at the root of
    the bracket's cubic Hermite interpolant narrows the bracket that
    rtsafe gets (_hermite_start; not in _newton_bisect: see the module
    docstring), and _verdict judges the root.

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
    dividing = [U_r.T, U_l.T] + ([0.0, back.tangency] if U_l.T else [])
    rows = list(map(sample, dividing))
    failure, row, lo, hi, f_lo, f_hi = _seed(U_l.v, U_r.v, dividing,
                                             *zip(*rows))
    if failure:
        raise _middle_stress_error(failure, U_l, U_r)
    if row >= 0:
        return dividing[row], rows[row][1], _boundary_index(row, U_l.T)
    if lo == hi:
        # widen from the seed, one _widen at a time, until the outer end
        # crosses the root: a NaN or _DOUBLINGS doublings end it unfound
        step = _seed_step(m, U_l.T, U_r.T, f_lo, dg(lo))
        for _ in range(_DOUBLINGS):
            found, T, step = _widen(lo, f_lo, hi, f_hi, step)
            if found:
                break
            lo, f_lo, hi, f_hi = hi, f_hi, T, g(T)
        if found != 1:
            raise _middle_stress_error(_NO_BRACKET, U_l, U_r)
        lo, hi, f_lo, f_hi = _ordered(lo, f_lo, hi, f_hi)
    x = _hermite_start(lo, hi, f_lo, f_hi, dg(lo), dg(hi))
    if lo < x < hi:
        lo, f_lo, hi, f_hi = _narrow(lo, f_lo, hi, f_hi, x, g(x))
    root = _newton_bisect(g, dg, lo, hi, f_lo, f_hi)
    if root not in samples:
        # the last Newton step was within two ulps, so never evaluated
        g(root)

    failure, snap, T_bar, v_bar = _verdict(
        m, U_l.T, U_l.v, U_r.T, U_r.v, root, *samples[root],
        samples[U_l.T][1], samples[U_r.T][1],
        [p[0] for _, p in sorted(samples.items())])
    if failure:
        raise _middle_stress_error(failure, U_l, U_r, samples[root][0])
    if snap:
        # rare: logging is imported here, not on every start
        import logging
        logging.getLogger(__name__).debug(
            "middle stress %r snaps to the data stress %r", root, T_bar)
    return T_bar, v_bar, -1


def _middle_stress_error(failure, U_l: State, U_r: State,
                         residual=math.nan) -> Exception:
    """The error of a middle-stress search from U_l to U_r that failed:
    failure is _OVERFLOW, _NO_BRACKET, _NON_MONOTONE or _MISSED_GATE, the
    last with the final residual that missed the gate."""
    if failure == _OVERFLOW:
        return NoBracket(
            f"wave-curve velocities overflow between {U_l} and {U_r}")
    if failure == _NO_BRACKET:
        return NoBracket(
            f"no bracket for the middle stress between {U_l} and {U_r}")
    if failure == _NON_MONOTONE:
        return NonMonotone("sampled residuals are not monotone in the "
                           f"middle stress between {U_l} and {U_r}")
    return NoBracket(f"middle-stress residual {residual} between {U_l} "
                     f"and {U_r} misses the tolerance")


# The classification of a solved problem.  Each function is one body for
# floats and numpy lanes, with comparisons multiplied by integers, never
# added to each other, as in _zero_velocity_index.

#: Codes of the legs of a wave curve from its anchor to the middle stress
#: (_summary): none, one fan, one shock, a shock then a fan, and a forward
#: wave across zero stress, a composite or the shock left after its fan is
#: swallowed: both live in the same phase-plane band.
_EMPTY, _R, _S, _SR, _X = range(5)

_REGION_MAPS = {
    # (backward code, forward code) -> label, possibly split on the sign
    # of the middle stress.
    "A": {(_R, _S): "A1", (_R, _R): "A2", (_R, _X): "A3",
          (_S, _S): ("A4", "A9"), (_S, _R): ("A5", "A8"),
          (_S, _X): ("A6", "A7"),
          (_SR, _S): "A12", (_SR, _R): "A11", (_SR, _X): "A10"},
    "B": {(_SR, _S): "B1", (_SR, _R): "B2", (_SR, _X): "B3",
          (_S, _S): ("B4", "B9"), (_S, _R): ("B5", "B8"),
          (_S, _X): ("B6", "B7"),
          (_R, _S): "B12", (_R, _R): "B11", (_R, _X): "B10"},
    "C": {(_R, _S): ("C6", "C1"), (_R, _R): ("C5", "C2"),
          (_R, _X): ("C3", "C4")},
}


def _region_tables():
    """_LABELS: the boundary labels, on-T0, unclassified, then both labels
    of each region.  _REGIONS: on-T0, then the label code of each (system,
    backward code, forward code, middle stress >= 0)."""
    labels = ["on-W1", "on-W2", "on-W2F", "on-W2B", "on-W2E", "on-W2C",
              "on-T0", "unclassified"]
    regions = [labels.index("unclassified")] * (3 * 5 * 5 * 2)
    for system, entries in enumerate(_REGION_MAPS.values()):
        for (back, fwd), entry in entries.items():
            at = 2 * (5 * (5 * system + back) + fwd)
            regions[at:at + 2] = len(labels), len(labels) + 1
            labels += entry if isinstance(entry, tuple) else (entry, entry)
    return tuple(labels), (labels.index("on-T0"), *regions)


_LABELS, _REGIONS = _region_tables()


def _boundary_index(row, T_l):
    """Code in _LABELS of dividing row `row` of _find_middle_stress: W1, W2,
    then W2F and W2B for T_l < 0, else W2E and W2C."""
    return row + 2 * (row > 1) * (T_l >= 0.0)


def _summary(A, s, Tt, T_bar, T_anchor, single, double):
    """Code of the legs from T_anchor to T_bar of the curve with mirror s,
    anchor A = s*T_anchor and tangency stress Tt, as WaveCurve.legs builds
    them: none, one fan (s*T_bar < A or A = 0), one shock up to Tt, else
    `double`.  A lone shock is _S, or `single` where it crosses zero: the
    backward curve passes _S and _SR, the forward curves _X and _X."""
    y = s * T_bar
    shock = _S + (T_bar * T_anchor < 0.0) * (single - _S)
    return (T_bar != T_anchor) * (_R + (y > A) * (A != 0.0) * (
        shock - _R + (y > Tt) * (double - shock)))


def _region_index(T_l, T_r, T_bar, back, fwd):
    """Index into _REGIONS of U_r off the dividing curves, given its leg
    codes: on-T0 where |T_r| <= BOUNDARY_TOL*|T_l| (the same test as
    against max(|T_l|, |T_r|)), else the region of the codes and the sign
    of T_bar."""
    system = (T_l > 0.0) + 2 * (T_l == 0.0)
    return (abs(T_r) > BOUNDARY_TOL * abs(T_l)) * (
        1 + 2 * (5 * (5 * system + back) + fwd) + (T_bar >= 0.0))


def thresholds(m: Material, T_l: float) -> Thresholds:
    """Zero-velocity stress thresholds for a left stress of the given sign.

    T_star solves T*strain(T) = T_l*strain(T_l) on the opposite side of
    zero, so it equals -T_l exactly; T_star_star solves the equal-velocity
    condition (T - Tt)(strain(T) - strain(Tt)) = (Tt - T_l)**2 *
    strain_prime(Tt) beyond the tangency stress Tt of T_l.  `solve` does
    not call this: it reads the solution type off its waves.  Raises
    RootNotBracketed where the constitutive functions overflow at the
    tangency, at T_l (so that no T_star_star can be computed), at the
    bracket end 4*|T_l| or just beyond the root found: where the strain
    overflows inside the bracket, the condition reads inf beyond that
    point, and rtsafe converges to the point instead of the root.
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

        # k(t_t) = -rhs < 0 and k(4) > 0: strain is convex beyond 0, so
        # k(t) >= strain_prime(Tt)*(t - 2*t_t - 1)*(t + 1), which is
        # 5*(3 - 2*t_t)*strain_prime(Tt) > 0 at t = 4, as t_t < 1
        k_4 = k(4.0)
        if not (abs(strain(m, A)) < math.inf and k_4 >= 0.0):
            # the strain overflows at T_l, and so at T** beyond it, or to
            # inf - inf (NaN) at t = 4
            raise OverflowError("strain")
        t = _newton_bisect(k, dk, t_t, 4.0, -rhs, k_4)
        # the strain increases on t > 0, so finite just beyond the root
        # means finite at it
        if not strain(m, A * math.nextafter(t, math.inf)) < math.inf:
            raise OverflowError("strain")
        return Thresholds(-T_l, -T_l * t)
    except OverflowError as exc:
        raise RootNotBracketed(
            f"constitutive functions overflow at left stress {T_l}") from exc


#: The solution types of zero-velocity data, numbered from 0 as
#: _zero_velocity_index gives them.
_ZERO_VELOCITY_CASES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII",
                        "IX", "X", "XI", "XII")


def _zero_velocity_index(T_l, T_r, T_bar, composite):
    """Index into _ZERO_VELOCITY_CASES of the solution type of data with
    both velocities zero and T_l != T_r, on floats or numpy lanes alike.
    For T_l < 0, T_r against T_l and 0 gives I and II; for T_r > 0 the
    middle stress T_bar is negative in III, and V differs from IV only in
    its `composite` backward wave (shock then fan).  Types VI..X (T_l > 0)
    are I..V of the negated data; T_l = 0 gives XI for T_r < 0, else XII.
    Each comparison is multiplied by or added to an integer, never to
    another comparison, as numpy's bool + bool is a logical or."""
    s = 1.0 - 2.0 * (T_l > 0.0)
    x_l, x_r, x_bar = s * T_l, s * T_r, s * T_bar
    negative = (x_r >= x_l) * (1 + (x_r > 0.0) * (
        1 + (x_bar >= 0.0) * (1 + composite)))
    return ((T_l != 0.0) * (negative + 5 * (T_l > 0.0))
            + (T_l == 0.0) * (10 + (T_r >= 0.0)))


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
        fwd = WaveCurve(m, U_r, FORWARD, back.table)
        T_bar, v_bar, label = _find_middle_stress(m, U_l, U_r, back, fwd)
        middle = State(T_bar, v_bar)
        waves = tuple(back.legs(middle) + fwd.legs(middle))
    except OverflowError as exc:
        raise _middle_stress_error(_OVERFLOW, U_l, U_r) from exc
    middles = tuple(w.right for w in waves[:-1])
    b = _summary(back.A, back.s, back.Tt, T_bar, U_l.T, _S, _SR)
    if label < 0:
        f = _summary(fwd.A, fwd.s, fwd.Tt, T_bar, U_r.T, _X, _X)
        label = _REGIONS[_region_index(U_l.T, U_r.T, T_bar, b, f)]
    case = None
    if U_l.v == 0.0 and U_r.v == 0.0:
        case = _ZERO_VELOCITY_CASES[_zero_velocity_index(
            U_l.T, U_r.T, T_bar, b == _SR)]
    return WavePattern(m, U_l, waves, middles, _LABELS[label], case)


def _linear_middle(m: Material, T_l, v_l, T_r, v_r):
    """The middle state (T, v) of the two contacts of a linear-mode
    material, in closed form; one body for floats and numpy lanes."""
    k = m.alpha + m.beta
    return (0.5 * (T_r + T_l) + 0.5 * math.sqrt(m.rho / k) * (v_r - v_l),
            0.5 * (v_r + v_l) + 0.5 * math.sqrt(k / m.rho) * (T_r - T_l))


def solve_linear(m: Material, U_l: State, U_r: State) -> WavePattern:
    """Closed-form two-contact solution for a linear-mode material."""
    if not m.linear_mode:
        raise ValueError("solve_linear requires a linear_mode material")
    if U_l == U_r:
        return WavePattern(m, U_l, (), (), "trivial")
    c = _slope_speed(m, m.alpha + m.beta)
    mid = State(*_linear_middle(m, U_l.T, U_l.v, U_r.T, U_r.v))
    waves = []
    if mid != U_l:
        waves.append(Wave(SHOCK, BACKWARD, U_l, mid, -c, -c, "both"))
    if mid != U_r:
        waves.append(Wave(SHOCK, FORWARD, mid, U_r, c, c, "both"))
    middles = tuple(w.right for w in waves[:-1])
    return WavePattern(m, U_l, tuple(waves), middles, "linear")

