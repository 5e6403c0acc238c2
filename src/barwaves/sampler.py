"""Evaluate a wave pattern as a function of the similarity variable xi = x/t.

Constant states fill the gaps between waves; inside a rarefaction fan the
stress solves wave_speed(T) = xi, which is invertible because every fan
lies inside a single convexity region of the strain curve.  At a shock
position exactly, the right limit is returned.

Every point is evaluated on numpy lanes by one routine, ``_sample_lanes``,
which fills float arrays of T and v: ``sample`` is a call with one point,
and ``profile`` inverts all of its fan points at once.  For n = 1 and
n = 2, strain_prime is a polynomial of degree 1 or 2 in T**2 and the fan
state is in closed form (_closed_fan_stress), as the tangency of both is
(material.tangent_point: exact for n = 1, a closed form checked by one
residual for n = 2); otherwise the lane root finder solves it.  The lane
root finder and the lane fan integral are ``batch``'s, the ones
``solve_many`` uses; the fans of one call read one fan table, whose
constants are the n = 1 fan integral's for n = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .batch import _fan_lanes, _newton_bisect_many
from .material import (
    Material,
    _fan_table,
    _horner,
    _slope_speed,
    strain_prime,
    strain_second,
)
from .riemann import WavePattern
from .wave_curves import BACKWARD, SHOCK, State, Wave


@dataclass(frozen=True, eq=False)
class Profile:
    """Sampled similarity profile: float64 arrays of one length, xi
    strictly increasing, and the stress T and velocity v at each xi.
    Construction makes the three arrays it is given read-only, in place."""
    xi: np.ndarray
    T: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for array in (self.xi, self.T, self.v):
            array.flags.writeable = False


def _sample_lanes(pattern: WavePattern,
                  xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stresses and velocities of the pattern at the similarity coordinates
    xi, as float arrays (T, v).

    Each point belongs to the first wave, in wave order, that stops it: a
    shock stops the points at or before its ray and gives the right limit
    on the ray itself; a fan stops the points before its tail ray, giving
    its left state on the head ray and the inverted fan state inside.  The
    tail ray belongs to whatever follows, so a degenerate shock attached
    there owns it (right-limit convention).  Points before a wave's head
    take the state ahead of it, and points past every wave the right
    state.
    """
    fans = _fan_table(pattern.material)
    T = np.full(xi.shape, pattern.right_state.T, dtype=float)
    v = np.full(xi.shape, pattern.right_state.v, dtype=float)
    todo = np.ones(xi.shape, bool)
    current = pattern.left_state
    for wave in pattern.waves:
        head = wave.speed_head
        if wave.kind == SHOCK:
            stop = todo & (xi <= head)
            on_head = wave.right
        else:
            stop = todo & (xi < wave.speed_tail)
            on_head = wave.left
        todo &= ~stop
        T[stop], v[stop] = current.T, current.v
        at_head = stop & (xi == head)
        T[at_head], v[at_head] = on_head.T, on_head.v
        inside = np.flatnonzero(stop & (xi > head))
        if inside.size:
            T[inside], v[inside] = _fan_states(pattern, wave, xi[inside], fans)
        current = wave.right
    return T, v


def _fan_states(pattern: WavePattern, wave: Wave, xi: np.ndarray,
                fans) -> tuple[np.ndarray, np.ndarray]:
    """(T, v) inside a fan at rays xi strictly between its edges, its fan
    integrals read from the call's fan table (material._fan_table): the
    stress in closed form for n = 1 and n = 2 (_closed_fan_stress), by
    lane rtsafe otherwise (_fan_stress)."""
    m = pattern.material
    a, b = wave.left.T, wave.right.T
    sigma = -1.0 if wave.family == BACKWARD else 1.0
    # the lane code, as in solve_many, computes branches outside their
    # masks (a zero slope at T = 0, a fan of zero width) and discards them
    with np.errstate(divide="ignore", invalid="ignore"):
        T = (_closed_fan_stress(m, a, b, xi) if m.n in (1.0, 2.0)
             else _fan_stress(m, a, b, sigma, xi))
        # _fan_lanes takes fans running outward from zero stress; a fan
        # that runs inward is the negated outward one
        d = (_fan_lanes(m, fans, a, T) if abs(a) <= abs(b)
             else -_fan_lanes(m, fans, T, a))
    return T, wave.left.v - sigma * d


def _closed_fan_stress(m: Material, a: float, b: float,
                       xi: np.ndarray) -> np.ndarray:
    """The stress of the fan from a to b at rays xi for n = 1 or n = 2.

    There strain_prime = a0 + alpha*w*P(w) on the table's P
    (material._integer_law), with a0 = alpha + beta and w = gamma*u/2 in
    u = T**2: P = p1 for n = 1 and p2*w + p1 for n = 2.  So strain_prime
    = a0 + a1*u*(1 + c2*u) with a1 = alpha*p1*gamma/2, c2 = p2*gamma/(2*p1)
    for n = 2 and c2 = 0 for n = 1.  It equals 1/(rho*xi**2) on the ray, a
    quadratic whose root u >= 0 is -2*c0/(1 + sqrt(1 - 4*c2*c0)) with c0 =
    (a0 - 1/(rho*xi**2))/a1 <= 0: no cancellation and no power of gamma,
    and for n = 1 exactly -c0, the root of the linear equation.  For
    n = 2 one Newton step on rho*xi**2*strain_prime - 1, on the table's
    polynomial in u, takes the roundings of the quadratic's root out; the
    step's residual takes no quotient, and its difference is exact near
    the root.  T = +-sqrt(u), signed like the fan's stresses (a fan lies
    on one side of zero) and kept within its ends.  Its error is the
    roundoff of c0 (or of the residual) times the condition number
    strain_prime/(u*d(strain_prime)/du) of the stress as a function of the
    ray, which grows without bound toward T = 0, where every method loses
    digits."""
    lo, hi = min(a, b), max(a, b)
    half_gamma, a0, _, P = m.law[:4]
    a1 = m.alpha * P[-1] * half_gamma
    c2 = P[0] * half_gamma / P[1] if len(P) == 2 else 0.0
    c0 = (a0 - 1.0 / (m.rho * xi * xi)) / a1
    u = -2.0 * c0 / (1.0 + np.sqrt(1.0 - 4.0 * c2 * c0))
    if len(P) == 2:
        w = half_gamma * u
        rho_xi = m.rho * xi
        u = u - ((rho_xi * (xi * (a0 + m.alpha * w * _horner(P, w))) - 1.0)
                 / (rho_xi * (xi * a1 * (1.0 + 2.0 * c2 * u))))
    return np.clip(math.copysign(1.0, a + b) * np.sqrt(np.maximum(u, 0.0)),
                   lo, hi)


def _fan_stress(m: Material, a: float, b: float, sigma: float,
                xi: np.ndarray) -> np.ndarray:
    """The stress of the fan from a to b of direction sigma at rays xi, by
    lane rtsafe on wave_speed(T) = xi, for any material."""
    # wave_speed = sigma/sqrt(rho*strain_prime) is strictly monotone from
    # speed_head (at a) to speed_tail (at b) along the fan, whichever way T
    # runs; k orients it to increase with T.
    k = math.copysign(1.0, b - a)

    def f(pos, T):
        return k * (sigma * _slope_speed(m, strain_prime(m, T), np) - xi[pos])

    def df(pos, T):
        s1 = strain_prime(m, T)
        return (-0.5 * k * sigma * strain_second(m, T)
                / (s1 * np.sqrt(m.rho * s1)))

    everyone = np.arange(xi.size)
    lo, hi = np.repeat([[min(a, b)], [max(a, b)]], xi.size, axis=1)
    return _newton_bisect_many(f, df, lo, hi, f(everyone, lo),
                               f(everyone, hi))


def sample(pattern: WavePattern, xi: float) -> State:
    """State of the pattern at similarity coordinate xi, +-inf included."""
    if math.isnan(xi):
        raise ValueError("sample requires an xi that is not NaN")
    T, v = _sample_lanes(pattern, np.array([xi], dtype=float))
    return State(float(T[0]), float(v[0]))


def profile(pattern: WavePattern, xi_min: float, xi_max: float,
            count: int) -> Profile:
    """Uniform grid of `count` samples plus the exact wave-edge
    coordinates, so every jump sits between adjacent grid points."""
    for name, value in (("xi_min", xi_min), ("xi_max", xi_max)):
        if not math.isfinite(value):
            raise ValueError(f"profile requires a finite {name}, got {value}")
    span = float(xi_max) - float(xi_min)  # overflows to inf, not a warning
    if not 0.0 < span < math.inf:
        raise ValueError(f"profile requires xi_min < xi_max with a finite "
                         f"span, got {xi_min}, {xi_max}")
    if not isinstance(count, numbers.Integral) or count < 2:
        raise ValueError(f"profile requires an integer count >= 2, "
                         f"got {count!r}")
    edges = [edge for wave in pattern.waves
             for edge in (wave.speed_head, wave.speed_tail)
             if xi_min <= edge <= xi_max]
    pts = np.sort(np.concatenate(
        [xi_min + span * np.arange(count) / (count - 1), edges]))
    # a point within the tolerance of the last point kept is dropped; only
    # points that close to their neighbour need the look back at it.  The
    # tolerance is relative to the span alone: an absolute floor would
    # merge the grid of a narrow window
    tol = 1e-14 * span
    keep = np.diff(pts, prepend=-np.inf) > tol
    for i in np.flatnonzero(~keep).tolist():
        keep[i] = pts[i] - pts[:i][keep[:i]][-1] > tol
    merged = pts[keep]
    return Profile(merged, *_sample_lanes(pattern, merged))
