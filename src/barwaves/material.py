"""Constitutive model of the bar and the pointwise quantities derived from it.

The linearized strain is a monotone but non-convex function of the Cauchy
stress T:

    strain(T) = beta*T + alpha*(1 + gamma*T**2/2)**n * T

with alpha > 0, beta < 0, gamma > 0, n > 0 and alpha + beta > 0.  The last
inequality keeps the equations of motion strictly hyperbolic.  strain is odd
and strictly increasing, concave on T < 0 and convex on T > 0; the change of
convexity at T = 0 is what produces composite (rarefaction + shock) waves.

Everything here is a pure function of an immutable Material, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from numpy.polynomial.legendre import leggauss

from .errors import MaterialError, RootNotBracketed

BACKWARD = "backward"
FORWARD = "forward"

#: Gauss-Legendre nodes and weights on [-1, 1] (Golub & Welsch 1969) for the
#: fan integral, as plain floats: the rule runs in pure Python.  Sixteen
#: nodes per graded panel reach ~1e-15 relative against 40-digit quadrature
#: for 0.5 <= n <= 3.5 and stresses from 1e-6 to 1e3.
_GL_NODES, _GL_WEIGHTS = (tuple(float(x) for x in a) for a in leggauss(16))


@dataclass(frozen=True)
class Material:
    """Constitutive constants plus the mass density.

    Use :meth:`linear` to build the gamma = 0 material used to validate the
    solver against the closed-form linear solution; the ordinary constructor
    rejects gamma = 0.
    """

    alpha: float
    beta: float
    gamma: float
    n: float
    rho: float
    linear_mode: bool = False

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "n", "rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MaterialError(f"material requires a finite {name}, "
                                    f"got {value}")
        if not self.alpha > 0.0:
            raise MaterialError("material requires alpha > 0")
        if not self.beta < 0.0:
            raise MaterialError("material requires beta < 0")
        if self.linear_mode:
            if self.gamma != 0.0:
                raise MaterialError("linear_mode requires gamma = 0")
        elif not self.gamma > 0.0:
            raise MaterialError("material requires gamma > 0")
        if not self.n > 0.0:
            raise MaterialError("material requires n > 0")
        if not self.rho > 0.0:
            raise MaterialError("material requires rho > 0")
        if not self.alpha + self.beta > 0.0:
            raise MaterialError(
                "material requires alpha + beta > 0 (hyperbolicity)")

    @classmethod
    def linear(cls, alpha: float, beta: float, rho: float) -> "Material":
        """Material with strain = (alpha + beta)*T, for linear validation."""
        return cls(alpha, beta, 0.0, 1.0, rho, linear_mode=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Material":
        try:
            alpha = float(doc["alpha"])
            beta = float(doc["beta"])
            gamma = float(doc["gamma"])
            n = float(doc["n"])
            rho = float(doc["rho"])
        except KeyError as exc:
            raise MaterialError(f"material document missing key {exc}") from exc
        linear_mode = bool(doc.get("linear_mode", False))
        return cls(alpha, beta, gamma, n, rho, linear_mode=linear_mode)

    @classmethod
    def from_json(cls, path: str) -> "Material":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "n": self.n,
            "rho": self.rho,
            "linear_mode": self.linear_mode,
        }


#: Shipped presets.  "cubic" admits closed-form tangency (strain is an exact
#: cubic), which the test fixtures rely on.
PRESETS = {
    "cubic": Material(alpha=2.0, beta=-1.0, gamma=2.0, n=1.0, rho=1.0),
    "quintic": Material(alpha=1.0, beta=-0.5, gamma=1.0, n=2.0, rho=1.0),
    "linear": Material.linear(alpha=1.0, beta=-0.5, rho=1.0),
}


def load_material(source: str) -> Material:
    """Resolve a preset name or a JSON file path to a Material."""
    if source in PRESETS:
        return PRESETS[source]
    return Material.from_json(source)


def strain(m: Material, T):
    """Strain at stress T.  Odd and strictly increasing; array friendly."""
    return m.beta * T + m.alpha * (1.0 + 0.5 * m.gamma * T * T) ** m.n * T


def strain_prime(m: Material, T):
    """d(strain)/dT.  Even, strictly positive, minimized at T = 0."""
    q = 1.0 + 0.5 * m.gamma * T * T
    return m.beta + m.alpha * q ** (m.n - 1.0) * (
        1.0 + 0.5 * (1.0 + 2.0 * m.n) * m.gamma * T * T)


def strain_second(m: Material, T):
    """d2(strain)/dT2.  Odd with sign(strain_second(T)) = sign(T)."""
    q = 1.0 + 0.5 * m.gamma * T * T
    return (m.alpha * m.n * m.gamma * T
            * (3.0 + 0.5 * (1.0 + 2.0 * m.n) * m.gamma * T * T)
            * q ** (m.n - 2.0))


def wave_speed(m: Material, T: float, family: str) -> float:
    """Characteristic speed at stress T: negative for the backward family,
    positive for the forward family."""
    c = 1.0 / math.sqrt(m.rho * strain_prime(m, T))
    if family == BACKWARD:
        return -c
    if family == FORWARD:
        return c
    raise ValueError(f"unknown family {family!r}")


def rarefaction_integral(m: Material, T_a: float, T_b: float) -> float:
    """Velocity change across a fan: integral of sqrt(strain_prime/rho)
    from T_a to T_b.

    The integrand is even, so the integral is an odd antiderivative G(|T|)
    signed by T, evaluated without cancellation: in closed form for n = 1,
    by the fixed-node rule of _even_fan otherwise.
    """
    if T_a == T_b:
        return 0.0
    if m.linear_mode:
        return (T_b - T_a) * math.sqrt((m.alpha + m.beta) / m.rho)
    if m.n == 1.0:
        return _cubic_fan(m, T_a, T_b)
    u_a, u_b = abs(T_a), abs(T_b)
    if min(T_a, T_b) < 0.0 < max(T_a, T_b):
        return math.copysign(_even_fan(m, 0.0, u_a) + _even_fan(m, 0.0, u_b),
                             T_b)
    sign = math.copysign(1.0, T_a if T_a != 0.0 else T_b)
    if u_a <= u_b:
        return sign * _even_fan(m, u_a, u_b)
    return -sign * _even_fan(m, u_b, u_a)


def _cubic_fan(m: Material, T_a: float, T_b: float) -> float:
    # strain_prime = a + b*T**2 for n = 1, whose antiderivative of the root
    # is T*s(T)/2 + a/(2*sqrt(b))*asinh(sqrt(b/a)*T), s = sqrt(a + b*T**2).
    a = m.alpha + m.beta
    b = 1.5 * m.alpha * m.gamma
    rb = math.sqrt(b)
    s_a = math.sqrt(a + b * T_a * T_a)
    s_b = math.sqrt(a + b * T_b * T_b)
    if min(T_a, T_b) < 0.0 < max(T_a, T_b):
        # opposite signs: both differences add magnitudes
        k = math.sqrt(b / a)
        lin = T_b * s_b - T_a * s_a
        arc = math.asinh(k * T_b) - math.asinh(k * T_a)
    else:
        # same side: rewrite each difference as (T_b - T_a)*(T_b + T_a)
        # over a sum of like-signed terms; grouping the sum with its
        # quotient keeps tiny stresses from underflowing
        d, p = T_b - T_a, T_b + T_a
        lin = d * (p / (T_b * s_b + T_a * s_a)) * (
            a + b * (T_a * T_a + T_b * T_b))
        arc = math.asinh(rb * d * (p / (T_b * s_a + T_a * s_b)))
    return (0.5 * lin + 0.5 * a / rb * arc) / math.sqrt(m.rho)


def _even_fan(m: Material, u_0: float, u_1: float) -> float:
    """Integral of sqrt(strain_prime/rho) over [u_0, u_1], 0 <= u_0 <= u_1.

    Gauss-Legendre on panels graded away from 0: a panel starting at x is
    at most 2*x + c long, where c = sqrt((alpha+beta)/(alpha*gamma)) is the
    order of the distance of the complex zeros of strain_prime from 0, so
    every panel stays a fixed ratio away from the integrand's singularities.
    """
    c = math.sqrt((m.alpha + m.beta) / (m.alpha * m.gamma))
    total = 0.0
    x = u_0
    while x < u_1:
        end = min(u_1, 3.0 * x + c)
        h = 0.5 * (end - x)
        mid = x + h
        panel = 0.0
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            panel += w * math.sqrt(strain_prime(m, mid + h * t))
        total += h * panel
        x = end
    return total / math.sqrt(m.rho)


@lru_cache(maxsize=200_000)
def tangent_point(m: Material, T_anchor: float) -> float:
    """Stress on the other convexity branch where the chord from
    (T_anchor, strain(T_anchor)) is tangent to the strain curve.

    For T_anchor < 0 the result is positive, mirrored for T_anchor > 0;
    since strain_prime is even and U-shaped, |result| < |T_anchor| always.
    For a cubic strain (n = 1) the root is exactly -T_anchor/2.
    """
    if T_anchor == 0.0:
        raise ValueError("tangent_point requires a nonzero anchor stress")
    if m.linear_mode:
        raise RootNotBracketed(
            "tangency is undefined for a linear material (no convexity change)")
    if T_anchor > 0.0:
        return -tangent_point(m, -T_anchor)
    A = -T_anchor
    if m.n == 1.0 or 0.5 * m.gamma * A * A <= 1e-32:
        # a cubic strain, exactly or to roundoff (the correction is
        # O(gamma*T_anchor**2) relative)
        return 0.5 * A

    # strain = (alpha+beta)*T + alpha*r(T) with r(T) = (q**n - 1)*T and
    # q = 1 + gamma*T**2/2; the linear part drops out of the tangency
    # condition, which leaves no cancellation for small stresses.
    def r(T):
        u = 0.5 * m.gamma * T * T
        excess = math.expm1(m.n * math.log1p(u))
        return excess * T, excess + 2.0 * m.n * u * (1.0 + u) ** (m.n - 1.0)

    r_a = r(T_anchor)[0]
    # g = (chord slope - tangent slope)*(T - T_anchor)/alpha is strictly
    # decreasing on T > 0, positive at 0 and negative at A.
    lo, hi = 0.0, A
    T = 0.5 * A
    for _ in range(100):
        r_T, dr_T = r(T)
        g = r_T - r_a - dr_T * (T + A)
        if g > 0.0:
            lo = T
        elif g < 0.0:
            hi = T
        else:
            return T
        dg = -strain_second(m, T) * (T + A) / m.alpha
        T_new = T - g / dg
        if not lo < T_new < hi:
            T_new = 0.5 * (lo + hi)
        if abs(T_new - T) <= 4.0 * math.ulp(T):
            return T_new
        T = T_new
    return T


def driving_force(m: Material, T_l: float, T_r: float) -> float:
    """Configurational force per unit area across a stress jump T_l -> T_r,
    in closed form.  Its product with the jump speed is the dissipation
    rate, and sign(driving_force) = sign(T_r**2 - T_l**2)."""
    if m.linear_mode:
        return 0.0
    g, n = m.gamma, m.n

    def F(x, y):
        return (1.0 + 0.5 * g * x * x) ** n * (
            1.0 - 0.5 * n * g * x * x + 0.5 * (n + 1.0) * g * x * y)

    return m.alpha / ((n + 1.0) * g) * (F(T_l, T_r) - F(T_r, T_l))


def invert_strain(m: Material, eps: float) -> float:
    """The unique stress T with strain(T) = eps (strain is monotone)."""
    if eps == 0.0:
        return 0.0
    if eps < 0.0:
        return -invert_strain(m, -eps)
    # strain(T) >= (alpha+beta)*T on T >= 0 brackets the root from above.
    lo, hi = 0.0, eps / (m.alpha + m.beta)
    T = min(hi, eps / strain_prime(m, 0.5 * hi))
    tol = 1e-15 * max(1.0, eps)
    for _ in range(200):
        f = strain(m, T) - eps
        if abs(f) <= tol:
            return T
        if f > 0.0:
            hi = T
        else:
            lo = T
        step = f / strain_prime(m, T)
        T_new = T - step
        if not lo < T_new < hi:
            T_new = 0.5 * (lo + hi)
        if T_new == T:
            return T
        T = T_new
    return T
