"""Constitutive model of the bar and the pointwise quantities derived from it.

The linearized strain is a monotone but non-convex function of the Cauchy
stress T:

    strain(T) = beta*T + alpha*(1 + gamma*T**2/2)**n * T

with alpha > 0, beta < 0, gamma > 0, n > 0 and alpha + beta > 0.  The last
inequality keeps the equations of motion strictly hyperbolic.  strain is odd
and strictly increasing, concave on T < 0 and convex on T > 0; the change of
convexity at T = 0 is what produces composite (rarefaction + shock) waves.

Everything here is a pure function of an immutable Material, except that
a fan of _fan_from grows its own panel sums (one fan per thread), so
concurrent use is safe.  _fan_from gives a wave curve its fans for every
material: the closed forms for n = 1 and linear_mode, otherwise a walk of
16-node panels that takes strain_prime's constants, the knee stress and
sqrt(rho) once and evaluates the integrand inline.  The module imports no
numpy, and neither does the scalar solve built on it.

Kernels that the scalar solve and the lanes of ``batch.solve_many`` both
evaluate have one body each, written against a namespace argument ``xp``:
``math`` for floats, ``numpy`` for arrays, which the lane callers pass in.
The arithmetic is the same, but numpy's array loops for ``expm1``,
``log1p``, ``asinh`` and ``power`` (often at non-integer n, rarely at
integer n) may round an element differently from ``math`` in the last
bit, so the lanes agree with the scalar path to roundoff.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import MaterialError, RootNotBracketed

BACKWARD = "backward"
FORWARD = "forward"

#: The (node, weight) pairs of the 16-node Gauss-Legendre rule on [-1, 1]
#: (Golub & Welsch 1969) with node > 0, to 17 digits: the values of numpy's
#: leggauss(16), which is symmetric bit for bit, written out so that import
#: loads no numpy.
_GL_HALF = (
    (0.095012509837637441, 0.18945061045506864),
    (0.28160355077925892, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.61787624440264377, 0.14959598881657671),
    (0.755404408355003, 0.12462897125553407),
    (0.86563120238783176, 0.095158511682492605),
    (0.9445750230732326, 0.062253523938647456),
    (0.98940093499164994, 0.027152459411754176),
)
#: The whole rule in ascending node order, as plain floats: it runs in pure
#: Python.  Sixteen nodes per graded panel reach ~1e-15 relative against
#: 40-digit quadrature for the fan integral with 0.5 <= n <= 3.5 and
#: stresses from 1e-6 to 1e3.
_GL_RULE = tuple((-t, w) for t, w in reversed(_GL_HALF)) + _GL_HALF

#: gamma*T**2/2 at or below which the strain is cubic to roundoff, so the
#: tangency takes its n = 1 closed form.
_CUBIC_TO_ROUNDOFF = 1e-32


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


def _slope_speed(m: Material, slope, xp=math):
    """1/sqrt(rho*slope): the forward speed at slope = strain_prime(T)."""
    return 1.0 / xp.sqrt(m.rho * slope)


def wave_speed(m: Material, T: float, family: str) -> float:
    """Characteristic speed at stress T: negative for the backward family,
    positive for the forward family."""
    c = _slope_speed(m, strain_prime(m, T))
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
    otherwise by a fresh walk of _even_fan, which a wave curve keeps.
    """
    if T_a == T_b:
        return 0.0
    if m.linear_mode:
        return (T_b - T_a) * math.sqrt((m.alpha + m.beta) / m.rho)
    if m.n == 1.0:
        k = _cubic_constants(m)
        return _cubic_fan(k, T_a, _cubic_root(k, T_a), T_b)
    u_a, u_b = abs(T_a), abs(T_b)
    if min(T_a, T_b) < 0.0 < max(T_a, T_b):
        fan = _even_fan(m, 0.0)
        return math.copysign(fan(u_a) + fan(u_b), T_b)
    sign = math.copysign(1.0, T_a if T_a != 0.0 else T_b)
    if u_a <= u_b:
        return sign * _even_fan(m, u_a)(u_b)
    return -sign * _even_fan(m, u_b)(u_a)


def _cubic_constants(m: Material) -> tuple:
    """The constants of the n = 1 fan as _cubic_fan takes them:
    strain_prime = a + b*T**2 with a = alpha + beta and b =
    1.5*alpha*gamma, then sqrt(b), 0.5*a/sqrt(b) and sqrt(rho)."""
    a = m.alpha + m.beta
    b = 1.5 * m.alpha * m.gamma
    rb = math.sqrt(b)
    return a, b, rb, 0.5 * a / rb, math.sqrt(m.rho)


def _cubic_root(k: tuple, T, xp=math):
    """s(T) = sqrt(a + b*T**2), the root of strain_prime for n = 1, on the
    constants k of _cubic_constants."""
    return xp.sqrt(k[0] + k[1] * T * T)


def _cubic_fan(k: tuple, T_a, s_a, T_b, xp=math):
    """n = 1 closed form of rarefaction_integral, on the constants k of
    _cubic_constants and s_a = _cubic_root(k, T_a), which a wave curve
    takes once per fan.  Lanes (xp = numpy) take stresses on one side of
    zero only."""
    # the antiderivative of the root s(T) is
    # T*s(T)/2 + a/(2*sqrt(b))*asinh(sqrt(b/a)*T)
    a, b, rb, half_a_rb, root_rho = k
    s_b = _cubic_root(k, T_b, xp)
    if xp is math and (T_a < 0.0 < T_b or T_b < 0.0 < T_a):
        # opposite signs: both differences add magnitudes
        c = math.sqrt(b / a)
        lin = T_b * s_b - T_a * s_a
        arc = math.asinh(c * T_b) - math.asinh(c * T_a)
    else:
        # same side: rewrite each difference as (T_b - T_a)*(T_b + T_a)
        # over a sum of like-signed terms; grouping the sum with its
        # quotient keeps tiny stresses from underflowing
        d, p = T_b - T_a, T_b + T_a
        lin = d * (p / (T_b * s_b + T_a * s_a)) * (
            a + b * (T_a * T_a + T_b * T_b))
        arc = xp.asinh(rb * d * (p / (T_b * s_a + T_a * s_b)))
    return (0.5 * lin + half_a_rb * arc) / root_rho


def _fan_from(m: Material, T_0: float):
    """rarefaction_integral(m, T_0, T) on the fans outward from T_0 (the
    wave curves'), for every material: the closed forms for n = 1, on
    constants taken once per fan, and linear_mode, and otherwise one
    _even_fan walk that all calls share."""
    if m.linear_mode:
        return lambda T: rarefaction_integral(m, T_0, T)
    if m.n == 1.0:
        k = _cubic_constants(m)
        s_0 = _cubic_root(k, T_0)
        return lambda T: 0.0 if T == T_0 else _cubic_fan(k, T_0, s_0, T)
    fan = _even_fan(m, abs(T_0))
    return lambda T: 0.0 if T == T_0 else math.copysign(fan(abs(T)), T)


def _even_fan(m: Material, u_0: float):
    """Integral of sqrt(strain_prime/rho) over [u_0, u], 0 <= u_0 <= u, as a
    function of u: _fan_panel over the panels of _panel_ends, keeping the
    running totals of the full panels, so an end adds the panels past them
    and one partial panel, in a fresh walk's order (that of _panels) and so
    to its value bit for bit.  The integrand's constants, the knee stress
    and sqrt(rho) are taken once per walk."""
    k, root_rho = _fan_constants(m), math.sqrt(m.rho)
    ends = _panel_ends(m, u_0)
    end = next(ends)
    starts, totals = [u_0], [0.0]

    def fan(u: float) -> float:
        nonlocal end
        while end < u:
            totals.append(totals[-1] + _fan_panel(k, starts[-1], end))
            starts.append(end)
            end = next(ends)
        i = bisect_left(starts, u) - 1
        total = totals[i] + _fan_panel(k, starts[i], u) if i >= 0 else 0.0
        return total / root_rho
    return fan


def _fan_constants(m: Material) -> tuple:
    """The constants of strain_prime as _fan_panel takes them: gamma/2,
    (1 + 2n)*gamma/2, n - 1, alpha and beta, each rounded as there."""
    return (0.5 * m.gamma, 0.5 * (1.0 + 2.0 * m.n) * m.gamma, m.n - 1.0,
            m.alpha, m.beta)


def _fan_panel(k: tuple, x: float, end: float) -> float:
    """The rule of _graded on the panel [x, end] for the integrand
    sqrt(strain_prime), written out, with strain_prime's operations inline
    in its order on the constants k of _fan_constants, so that each node
    has strain_prime's value bit for bit."""
    half_gamma, c, n_1, alpha, beta = k
    sqrt = math.sqrt
    h = 0.5 * (end - x)
    mid = x + h
    panel = 0.0
    for t, w in _GL_RULE:
        T = mid + h * t
        panel += w * sqrt(beta + alpha * (1.0 + half_gamma * T * T) ** n_1
                          * (1.0 + c * T * T))
    return h * panel


def _knee_stress(m: Material) -> float:
    """c = sqrt((alpha+beta)/(alpha*gamma)): strain_prime stays near
    alpha + beta for |T| << c and grows like |T|**(2n) beyond, and c is the
    order of the distance of the complex zeros of strain_prime from 0."""
    return math.sqrt((m.alpha + m.beta) / (m.alpha * m.gamma))


def _panel_ends(m: Material, u_0: float):
    """The ends of the panels from u_0 >= 0 outward, without bound, graded
    away from 0: a panel starting at x ends at 3*x + c, where
    c = _knee_stress(m), so every panel stays a fixed ratio away from the
    singularities of the constitutive functions."""
    c = _knee_stress(m)
    x = u_0
    while True:
        x = 3.0 * x + c
        yield x


def _panels(m: Material, u_0: float, u_1: float):
    """(start, end) of the panels of [u_0, u_1], 0 <= u_0 <= u_1: those of
    _panel_ends, the last one cut at u_1."""
    x = u_0
    for end in _panel_ends(m, u_0):
        if x >= u_1:
            return
        yield x, min(u_1, end)
        x = end


def _graded(m: Material, fn, u_0: float, u_1: float) -> float:
    """Integral of fn(u) over [u_0, u_1], 0 <= u_0 <= u_1: Gauss-Legendre
    on the graded panels of _panels."""
    total = 0.0
    for x, end in _panels(m, u_0, u_1):
        h = 0.5 * (end - x)
        panel = 0.0
        for t, w in _GL_RULE:
            panel += w * fn(x + h + h * t)
        total += h * panel
    return total


def _newton_bisect(fn, dfn, lo: float, hi: float, f_lo: float,
                   f_hi: float) -> float:
    """Root of an increasing function inside [lo, hi], f_lo <= 0 <= f_hi.

    Safeguarded Newton ("rtsafe", Press et al., Numerical Recipes 9.4):
    Newton steps with the analytic derivative dfn, replaced by bisection
    when the slope is not positive and finite, or when a step leaves the
    bracket or fails to halve the one before the last.  Its exits, shared
    with batch._newton_bisect_many, are the table ROOT_FINDER_EXITS of
    tests/test_material.py; none involves a residual tolerance, so the root
    is resolved to full precision at every magnitude, or to where fn
    returns an exact zero (riemann._stopped_residual zeroes roundoff).  It
    is the package's only scalar root finder.
    """
    x, f = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
    step_old = step = hi - lo
    for _ in range(200):
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        d = dfn(x)
        newton = f / d if 0.0 < d < math.inf else math.inf
        if abs(newton) <= 2.0 * math.ulp(x):
            return x - newton
        if lo < x - newton < hi and abs(newton) <= 0.5 * abs(step_old):
            step_old, step = step, newton
            x_new = x - newton
            f_new = fn(x_new)
            if (f_new > 0.0) == (f > 0.0) and abs(f_new) >= abs(f):
                # a step toward the root that stays on its side must
                # shrink |f| of an increasing function; only rounding
                # keeps it from doing so
                return x
        else:
            step_old, step = step, 0.5 * (hi - lo)
            x_new = lo + step
            if x_new == lo or x_new == hi:
                return x_new
            f_new = fn(x_new)
        x, f = x_new, f_new
    return x


def _excess(m: Material, T, xp=math):
    """r(T) = (q**n - 1)*T with q = 1 + gamma*T**2/2, and r'(T): strain
    less its linear part is alpha*r(T).  The expm1/log1p form leaves no
    cancellation for small stresses."""
    u = 0.5 * m.gamma * T * T
    excess = xp.expm1(m.n * xp.log1p(u))
    return excess * T, excess + 2.0 * m.n * u * (1.0 + u) ** (m.n - 1.0)


def _tangency_residual(m: Material, B, r_B, T, xp=math):
    """The tangency condition of the anchor -B < 0 with the linear part
    removed, k = (tangent slope - chord slope)*(T + B)/alpha, given
    r_B = r(-B) of _excess.  It is strictly increasing on 0 < T < B,
    negative at 0 and positive at B."""
    r_T, dr_T = _excess(m, T, xp)
    return dr_T * (T + B) + r_B - r_T


def _tangency_slope(m: Material, B, T):
    """d/dT of _tangency_residual."""
    return strain_second(m, T) * (T + B) / m.alpha


def tangent_point(m: Material, T_anchor: float) -> float:
    """Stress on the other convexity branch where the chord from
    (T_anchor, strain(T_anchor)) is tangent to the strain curve.

    For T_anchor < 0 the result is positive, mirrored for T_anchor > 0;
    since strain_prime is even and U-shaped, |result| < |T_anchor| always.
    For a cubic strain (n = 1) the root is exactly -T_anchor/2; otherwise
    each call solves the tangency condition afresh (nothing is cached: a
    solve needs at most two tangency stresses, which its wave curves keep).
    """
    if T_anchor == 0.0:
        raise ValueError("tangent_point requires a nonzero anchor stress")
    if m.linear_mode:
        raise RootNotBracketed(
            "tangency is undefined for a linear material (no convexity change)")
    # solve the mirror image with anchor -A < 0, whose root lies in (0, A)
    A = abs(T_anchor)
    sign = -1.0 if T_anchor > 0.0 else 1.0
    if m.n == 1.0 or 0.5 * m.gamma * A * A <= _CUBIC_TO_ROUNDOFF:
        # a cubic strain, exactly or to roundoff (the correction is
        # O(gamma*T_anchor**2) relative)
        return sign * (0.5 * A)

    r_a, dr_a = _excess(m, -A)
    return sign * _newton_bisect(
        lambda T: _tangency_residual(m, A, r_a, T),
        lambda T: _tangency_slope(m, A, T), 0.0, A, r_a,
        2.0 * (r_a + A * dr_a))


def driving_force(m: Material, T_l: float, T_r: float) -> float:
    """Configurational force per unit area across a stress jump T_l -> T_r.
    Its product with the jump speed is the dissipation rate, and
    sign(driving_force) = sign(T_r**2 - T_l**2).

    It equals the trapezoid of the strain minus its integral,
    (1/2) * integral from T_l to T_r of (T - T_l)*(T_r - T)*strain_second(T),
    evaluated on |T| with the oddness of strain_second so that every part
    of the integrand has the sign of the result: no cancellation, at any
    magnitude.  With k = min(|T_l|, |T_r|) and D = ||T_r| - |T_l||, the
    part beyond k is taken in s = |T| - k over [0, D].  For data of
    opposite signs, the two halves over |T| < k combine into the weight
    2*(|T_r| - |T_l|)*|T|.
    """
    if m.linear_mode:
        return 0.0
    a, b = abs(T_l), abs(T_r)
    k, D = min(a, b), abs(b - a)
    cross = min(T_l, T_r) < 0.0 < max(T_l, T_r)
    e = 2.0 * k if cross else 0.0
    total = _graded(
        m, lambda s: (s + e) * (D - s) * strain_second(m, k + s), 0.0, D)
    if cross:
        total += 2.0 * D * _graded(
            m, lambda u: u * strain_second(m, u), 0.0, k)
    return math.copysign(0.5 * total, b - a)


def invert_strain(m: Material, eps: float) -> float:
    """The unique stress T with strain(T) = eps (strain is monotone)."""
    if eps == 0.0:
        return 0.0
    if eps < 0.0:
        return -invert_strain(m, -eps)
    # On T >= 0, strain(T) >= (alpha+beta)*T*q**n with q = 1 + gamma*T**2/2,
    # and q**n >= max(1, gamma*T**2/2)**n: both bounds hold the root from
    # above.  Taken in logs and doubled, they neither overflow nor cut it.
    log_hi = math.log(eps) - math.log(m.alpha + m.beta)
    if not m.linear_mode:
        log_hi = min(log_hi, (log_hi + m.n * math.log(2.0 / m.gamma))
                     / (2.0 * m.n + 1.0))
    hi = 2.0 * math.exp(log_hi)
    return _newton_bisect(lambda T: strain(m, T) - eps,
                          lambda T: strain_prime(m, T),
                          0.0, hi, -eps, strain(m, hi) - eps)
