"""Evaluate a wave pattern as a function of the similarity variable xi = x/t.

Constant states fill the gaps between waves; inside a rarefaction fan the
stress solves wave_speed(T) = xi, which is invertible because every fan
lies inside a single convexity region of the strain curve.  At a shock
position exactly, the right limit is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .material import (
    _newton_bisect,
    rarefaction_integral,
    strain_prime,
    strain_second,
    wave_speed,
)
from .riemann import Wave, WavePattern
from .wave_curves import BACKWARD, SHOCK, State


@dataclass(frozen=True)
class Profile:
    """Sampled (xi, T, v) series; xi strictly increasing."""
    xi: tuple[float, ...]
    states: tuple[State, ...]

    def column(self, name: str) -> list[float]:
        if name == "xi":
            return list(self.xi)
        if name == "T":
            return [s.T for s in self.states]
        if name == "v":
            return [s.v for s in self.states]
        raise KeyError(name)


def _invert_fan(pattern: WavePattern, wave: Wave, xi: float) -> State:
    m = pattern.material
    a, b = wave.left.T, wave.right.T
    # wave_speed = sigma/sqrt(rho*strain_prime) is strictly monotone from
    # speed_head (at a) to speed_tail (at b) along the fan, whichever way T
    # runs; k orients it to increase with T.
    sigma = -1.0 if wave.family == BACKWARD else 1.0
    k = math.copysign(1.0, b - a)

    def f(T: float) -> float:
        return k * (wave_speed(m, T, wave.family) - xi)

    def df(T: float) -> float:
        s1 = strain_prime(m, T)
        return (-0.5 * k * sigma * strain_second(m, T)
                / (s1 * math.sqrt(m.rho * s1)))

    lo, hi = min(a, b), max(a, b)
    T = _newton_bisect(f, df, lo, hi, f(lo), f(hi))
    return State(T, wave.left.v - sigma * rarefaction_integral(m, a, T))


def sample(pattern: WavePattern, xi: float) -> State:
    """State of the pattern at similarity coordinate xi."""
    current = pattern.left_state
    for wave in pattern.waves:
        if xi < wave.speed_head:
            return current
        if wave.kind == SHOCK:
            if xi == wave.speed_head:
                return wave.right  # right limit at the jump
        elif xi < wave.speed_tail:
            # the tail ray belongs to whatever follows: a degenerate shock
            # attached there owns it (right-limit convention)
            if xi == wave.speed_head:
                return wave.left
            return _invert_fan(pattern, wave, xi)
        current = wave.right
    return current


def profile(pattern: WavePattern, xi_min: float, xi_max: float,
            count: int) -> Profile:
    """Uniform grid of `count` samples plus the exact wave-edge
    coordinates, so every jump sits between adjacent grid points."""
    if not xi_min < xi_max:
        raise ValueError("profile requires xi_min < xi_max")
    if count < 2:
        raise ValueError("profile requires count >= 2")
    span = xi_max - xi_min
    pts = [xi_min + span * i / (count - 1) for i in range(count)]
    for wave in pattern.waves:
        for edge in (wave.speed_head, wave.speed_tail):
            if xi_min <= edge <= xi_max:
                pts.append(edge)
    pts.sort()
    merged: list[float] = []
    for x in pts:
        if not merged or x - merged[-1] > 1e-14 * max(1.0, span):
            merged.append(x)
    states = tuple(sample(pattern, x) for x in merged)
    return Profile(tuple(merged), states)
