"""Constitutive model of the bar and the pointwise quantities derived from it.

The linearized strain is a monotone but non-convex function of the Cauchy
stress T:

    strain(T) = beta*T + alpha*(1 + gamma*T**2/2)**n * T

with alpha > 0, beta < 0, gamma > 0, n > 0 and alpha + beta > 0.  The last
inequality keeps the equations of motion strictly hyperbolic.  strain is odd
and strictly increasing, concave on T < 0 and convex on T > 0; the change of
convexity at T = 0 is what produces composite (rarefaction + shock) waves.

Everything here is a pure function of an immutable Material, except a
_FanTable, which one call creates and grows (one table per thread), so
concurrent use is safe.  The material alone places the knots of the
16-node fan panels; a table sums each panel between two knots once, and
every n != 1 fan of its call is a head panel, a difference of two prefix
sums and a tail panel.  _fan computes a wave curve's fan when the curve
reads it, for every material: the closed forms for n = 1 and linear_mode,
otherwise a fan of the table that the curve's solve shares.  The module
imports no numpy, and neither does the scalar solve built on it.

For integer n the constitutive law is a table of Horner polynomials in
w = gamma*T**2/2, built once per Material (_integer_law), which every
constitutive kernel reads: strain, strain_prime and strain_second, the
tangency's _excess, the fan panels and the n = 1 fan's constants.  Real n
keeps the power forms.

Kernels that the scalar solve and the lanes of ``batch.solve_many`` both
evaluate have one body each, written against a namespace argument ``xp``:
``math`` for floats, ``numpy`` for arrays, which the lane callers pass in.
The integer-n law takes + and * alone, and the tangency and the fans add
- / and sqrt, which numpy rounds as ``math`` does (IEEE 754), so for
integer n >= 2 the lanes equal the scalar path bit for bit on every host.
The n = 1 fans keep numpy's ``asinh``, and real n its ``expm1``,
``log1p`` and ``power``, whose array loops (numpy's own SIMD routines on
hosts with AVX-512) may round an element differently from ``math`` in the
last bit; there the lanes agree with the scalar path to roundoff.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

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
#: Python.  Against 40-digit quadrature of the fan integral, over 150
#: random fans per n with stresses from 1e-6 to 1e3, sixteen nodes per
#: graded panel reach 6e-16 relative for 0.5 <= n <= 3.5, 3.4e-15 at
#: n = 8 and 4.4e-13 at n = 20, where the integrand grows like |T|**(2n)
#: across the first knot panels faster than the rule resolves.
_GL_RULE = tuple((-t, w) for t, w in reversed(_GL_HALF)) + _GL_HALF

#: gamma*T**2/2 at or below which the strain is cubic to roundoff, so the
#: tangency takes its n = 1 closed form.
_CUBIC_TO_ROUNDOFF = 1e-32

#: The largest integer n whose law coefficients (_integer_law) are all
#: integers that a float holds exactly; beyond it n takes the power forms.
_LAW_MAX_N = 45


def _integer_law(m) -> tuple | None:
    """The coefficient table of the constitutive law of an integer n >= 1
    outside linear_mode, or None: real n, and n beyond _LAW_MAX_N, keep the
    power forms.

    With w = gamma*T**2/2 and q = 1 + w, the binomial theorem makes
    r(T) = (q**n - 1)*T = T*w*R(w), and its derivatives are r'(T) = w*P(w)
    and r''(T) = gamma*T*S(w), where R, P and S have the coefficients
    C(n, k), (2k + 1)*C(n, k) and k*(2k + 1)*C(n, k) of w**(k - 1),
    k = 1..n.  So strain = T*((alpha + beta) + alpha*w*R(w)), strain_prime
    = (alpha + beta) + alpha*w*P(w) and strain_second = alpha*gamma*T*S(w):
    sums of positive terms, a few ulps off with no cancellation (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 5), by + and *
    alone, which IEEE 754 rounds alike on every host.  w, not T**2, keeps
    powers of gamma, which overflow at extreme gamma, out of the table.

    The table is (gamma/2, alpha + beta, R, P, S), each polynomial a tuple
    of its coefficients, highest power first, as _horner takes them; R's
    leading coefficient C(n, n) is 1."""
    if m.linear_mode or m.n != math.floor(m.n) or m.n > _LAW_MAX_N:
        return None
    n = int(m.n)
    ks = range(n, 0, -1)
    R = tuple(float(math.comb(n, k)) for k in ks)
    P = tuple(float((2 * k + 1) * math.comb(n, k)) for k in ks)
    S = tuple(float(k * (2 * k + 1) * math.comb(n, k)) for k in ks)
    return 0.5 * m.gamma, m.alpha + m.beta, R, P, S


def _horner(c: tuple, w):
    """The polynomial with the coefficients c, highest power first, at w,
    by Horner's rule, for floats and numpy arrays alike.  strain,
    strain_prime and _fan_panel, the scalar solve's hot kernels, write out
    the one- and two-term polynomials of n = 1 and n = 2 with the same
    operations: a call costs them about a third of their time."""
    h = c[0]
    for x in c[1:]:
        h = h * w + x
    return h


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
    #: The coefficient table of the integer-n law (_integer_law), or None.
    law: tuple | None = field(default=None, init=False, compare=False,
                              repr=False)

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
        object.__setattr__(self, "law", _integer_law(self))

    @classmethod
    def linear(cls, alpha: float, beta: float, rho: float) -> "Material":
        """Material with strain = (alpha + beta)*T, for linear validation."""
        return cls(alpha, beta, 0.0, 1.0, rho, linear_mode=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Material":
        """The material of a JSON object with the keys alpha, beta, gamma,
        n and rho, and optionally linear_mode, a JSON boolean."""
        if not isinstance(doc, dict):
            raise MaterialError("material document is not a JSON object")
        values = []
        for key in ("alpha", "beta", "gamma", "n", "rho"):
            if key not in doc:
                raise MaterialError(f"material document missing key {key!r}")
            try:
                # float() would read true and "1" as 1.0
                if isinstance(doc[key], (bool, str)):
                    raise TypeError(key)
                values.append(float(doc[key]))
            except (TypeError, OverflowError) as exc:
                raise MaterialError(
                    f"material {key} is not a float: {doc[key]!r}") from exc
        linear_mode = doc.get("linear_mode", False)
        if not isinstance(linear_mode, bool):
            raise MaterialError(
                f"material linear_mode is not a boolean: {linear_mode!r}")
        return cls(*values, linear_mode=linear_mode)

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
    """Strain at stress T.  Odd and strictly increasing; array friendly.
    For integer n the polynomial of _integer_law, else the power form."""
    law = m.law
    if law is None:
        return m.beta * T + m.alpha * (1.0 + 0.5 * m.gamma * T * T) ** m.n * T
    w = law[0] * T * T
    R = law[2]
    return T * (law[1] + m.alpha * w * (
        R[0] if len(R) == 1 else R[0] * w + R[1] if len(R) == 2
        else _horner(R, w)))


def strain_prime(m: Material, T):
    """d(strain)/dT.  Even, strictly positive, minimized at T = 0."""
    law = m.law
    if law is None:
        q = 1.0 + 0.5 * m.gamma * T * T
        return m.beta + m.alpha * q ** (m.n - 1.0) * (
            1.0 + 0.5 * (1.0 + 2.0 * m.n) * m.gamma * T * T)
    w = law[0] * T * T
    P = law[3]
    return law[1] + m.alpha * w * (
        P[0] if len(P) == 1 else P[0] * w + P[1] if len(P) == 2
        else _horner(P, w))


def strain_second(m: Material, T):
    """d2(strain)/dT2.  Odd with sign(strain_second(T)) = sign(T)."""
    law = m.law
    if law is None:
        q = 1.0 + 0.5 * m.gamma * T * T
        return (m.alpha * m.n * m.gamma * T
                * (3.0 + 0.5 * (1.0 + 2.0 * m.n) * m.gamma * T * T)
                * q ** (m.n - 2.0))
    return m.alpha * (m.gamma * T * _horner(law[4], law[0] * T * T))


#: The smallest normal float.
_NORMAL_MIN = 2.0 ** -1022


def _slope_speed(m: Material, slope, xp=math):
    """1/sqrt(rho*slope): the forward speed at slope = strain_prime(T).
    Where rho*slope is below the smallest normal float, it has lost digits
    (at tiny rho it underflows to 0), so the roots are taken apart there:
    1/(sqrt(rho)*sqrt(slope)).  One body for floats and numpy lanes."""
    prod = m.rho * slope
    if xp is math:
        return 1.0 / (math.sqrt(prod) if prod >= _NORMAL_MIN
                      else math.sqrt(m.rho) * math.sqrt(slope))
    return 1.0 / xp.where(prod >= _NORMAL_MIN, xp.sqrt(prod),
                          math.sqrt(m.rho) * xp.sqrt(slope))


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
    signed by T, evaluated without cancellation as the fans of the wave
    curves (_fan), which run outward from a stress T_0: from the end
    nearer zero, or from zero itself for ends of opposite signs, whose two
    fans then add magnitudes.  Each call takes a fan table of its own.
    """
    if T_a == T_b:
        return 0.0
    if m.linear_mode:
        return _fan(m, None, T_a, T_b)
    T_0 = (0.0 if min(T_a, T_b) < 0.0 < max(T_a, T_b)
           else min(T_a, T_b, key=abs))
    table = _fan_table(m)
    return _fan(m, table, T_0, T_b) - _fan(m, table, T_0, T_a)


def _cubic_constants(m: Material) -> tuple:
    """The constants of the n = 1 fan as _cubic_fan takes them:
    strain_prime = a + b*T**2 with a = alpha + beta and b = alpha*P*gamma/2
    on the table's P = 3 (_integer_law), then sqrt(b), 0.5*a/sqrt(b) and
    sqrt(rho)."""
    a, _, P = m.law[1:4]
    b = m.alpha * P[0] * (0.5 * m.gamma)
    rb = math.sqrt(b)
    return a, b, rb, 0.5 * a / rb, math.sqrt(m.rho)


def _cubic_root(k: tuple, T, xp=math):
    """s(T) = sqrt(a + b*T**2), the root of strain_prime for n = 1, on the
    constants k of _cubic_constants."""
    return xp.sqrt(k[0] + k[1] * T * T)


def _cubic_fan(k: tuple, T_a, s_a, T_b, xp=math):
    """n = 1 closed form of rarefaction_integral for stresses on one side
    of zero (T_a*T_b >= 0), on the constants k of _cubic_constants and
    s_a = _cubic_root(k, T_a)."""
    # the antiderivative of the root s(T) is
    # T*s(T)/2 + a/(2*sqrt(b))*asinh(sqrt(b/a)*T); rewrite each difference
    # as (T_b - T_a)*(T_b + T_a) over a sum of like-signed terms; grouping
    # the sum with its quotient keeps tiny stresses from underflowing
    a, b, rb, half_a_rb, root_rho = k
    s_b = _cubic_root(k, T_b, xp)
    d, p = T_b - T_a, T_b + T_a
    lin = d * (p / (T_b * s_b + T_a * s_a)) * (
        a + b * (T_a * T_a + T_b * T_b))
    arc = xp.asinh(rb * d * (p / (T_b * s_a + T_a * s_b)))
    return (0.5 * lin + half_a_rb * arc) / root_rho


def _fan(m: Material, table, T_0: float, T: float) -> float:
    """rarefaction_integral(m, T_0, T) on a fan outward from T_0 (a wave
    curve's), for every material, on the call's table (_fan_table),
    computed when it is read: the closed forms for linear_mode and n = 1,
    and otherwise a fan of the table."""
    if m.linear_mode:
        return (T - T_0) * math.sqrt((m.alpha + m.beta) / m.rho)
    if T == T_0:
        return 0.0
    if m.n == 1.0:
        return _cubic_fan(table, T_0, _cubic_root(table, T_0), T)
    return math.copysign(table.fan(abs(T_0), abs(T)), T)


def _fan_table(m: Material) -> "_FanTable | tuple | None":
    """What the fans of m read within one call: a new _FanTable, for
    n = 1 the constants of _cubic_constants, taken once per call, and None
    for linear_mode."""
    if m.linear_mode:
        return None
    return _cubic_constants(m) if m.n == 1.0 else _FanTable(m)


class _FanTable:
    """The fans of one material within one call: a solve (both curves),
    a solve_many, profile or sample call, or a rarefaction_integral.

    The material alone sets the knots, k_0 = 0 and k_{j+1} = 3*k_j + c of
    _panel_ends.  `sums` holds the prefix sums P_j of _fan_panel over the
    knot panels up to k_j, grown on demand up to the largest stress read.
    A fan from u_0 to u >= u_0, with k_i the first knot >= u_0 and k_j the
    last knot <= u, is (head + (P_j - P_i)) + tail, with the head panel
    [u_0, k_i], which `heads` keeps from the fan's first read, and the tail
    panel [k_j, u]; with no knot between its ends it is the single panel
    [u_0, u].  So each knot panel is summed once per table, a fan never
    read sums nothing, and a fan's value depends on the material and its
    two ends alone, not on the table or on what the table read before.
    batch._fan_lanes reads the same knots and sums on lanes.  A table
    serves one thread and lives in its call: nothing outlives it.
    """

    __slots__ = ("k", "root_rho", "ends", "knots", "sums", "heads")

    def __init__(self, m: Material):
        # strain_prime's constants as _fan_panel takes them, each rounded
        # as there: for integer n gamma/2, alpha + beta and the table's P
        # (_integer_law), with alpha; otherwise gamma/2, (1 + 2n)*gamma/2,
        # n - 1, alpha and beta
        self.k = ((*m.law[:2], m.law[3], m.alpha) if m.law is not None
                  else (0.5 * m.gamma, 0.5 * (1.0 + 2.0 * m.n) * m.gamma,
                        m.n - 1.0, m.alpha, m.beta))
        self.root_rho, self.ends = math.sqrt(m.rho), _panel_ends(m)
        self.knots, self.sums, self.heads = [0.0], [0.0], {}

    def reach(self, u: float) -> int:
        """The index of the last knot <= u, with the knots grown past u.
        An infinite or NaN u takes the last knot there is, so its tail,
        and its fan, is NaN."""
        knots = self.knots
        while knots[-1] <= u < math.inf:
            knots.append(next(self.ends))
        return bisect_right(knots, u) - 1

    def prefix(self, j: int) -> float:
        """P_j, with the sums grown up to it."""
        knots, sums = self.knots, self.sums
        for i in range(len(sums), j + 1):
            sums.append(sums[-1] + _fan_panel(self.k, knots[i - 1], knots[i]))
        return sums[j]

    def fan(self, u_0: float, u: float) -> float:
        """The integral of sqrt(strain_prime/rho) over [u_0, u],
        0 <= u_0 <= u.  A fan across one knot only (i = j) reads no sums:
        P_j - P_i is 0 there."""
        j = self.reach(u)
        k, knots = self.k, self.knots
        i = bisect_left(knots, u_0)
        if i > j:
            return _fan_panel(k, u_0, u) / self.root_rho
        head = self.heads.get(u_0)
        if head is None:
            head = self.heads[u_0] = _fan_panel(k, u_0, knots[i])
        inner = self.prefix(j) - self.sums[i] if i < j else 0.0
        return ((head + inner) + _fan_panel(k, knots[j], u)) / self.root_rho


def _fan_panel(k: tuple, x: float, end: float) -> float:
    """The rule of _graded on the panel [x, end] for the integrand
    sqrt(strain_prime), written out, with strain_prime's operations inline
    in its order on the constants k of _FanTable, so that each node
    has strain_prime's value bit for bit; a two-term P (n = 2) is written
    out there as in _horner."""
    sqrt = math.sqrt
    h = 0.5 * (end - x)
    mid = x + h
    panel = 0.0
    if len(k) == 5:
        half_gamma, c, n_1, alpha, beta = k
        for t, w in _GL_RULE:
            T = mid + h * t
            panel += w * sqrt(beta + alpha * (1.0 + half_gamma * T * T) ** n_1
                              * (1.0 + c * T * T))
        return h * panel
    half_gamma, a, P, alpha = k
    if len(P) == 2:
        p0, p1 = P
        for t, wt in _GL_RULE:
            T = mid + h * t
            w = half_gamma * T * T
            panel += wt * sqrt(a + alpha * w * (p0 * w + p1))
        return h * panel
    for t, wt in _GL_RULE:
        T = mid + h * t
        w = half_gamma * T * T
        panel += wt * sqrt(a + alpha * w * _horner(P, w))
    return h * panel


def _knee_stress(m: Material) -> float:
    """c = sqrt((alpha+beta)/(alpha*gamma)): strain_prime stays near
    alpha + beta for |T| << c and grows like |T|**(2n) beyond, and c is the
    order of the distance of the complex zeros of strain_prime from 0."""
    return math.sqrt((m.alpha + m.beta) / (m.alpha * m.gamma))


def _panel_ends(m: Material):
    """The knots after 0, without bound, graded away from 0: a panel
    starting at x ends at 3*x + c, where c = _knee_stress(m), so every
    panel stays a fixed ratio away from the singularities of the
    constitutive functions."""
    c = _knee_stress(m)
    x = 0.0
    while True:
        x = 3.0 * x + c
        yield x


def _graded(m: Material, fn, u: float) -> float:
    """Integral of fn over [0, u]: Gauss-Legendre on the panels between
    the knots of _panel_ends, the last one cut at u."""
    total = x = 0.0
    for end in _panel_ends(m):
        if x >= u:
            return total
        h = 0.5 * (min(u, end) - x)
        panel = 0.0
        for t, w in _GL_RULE:
            panel += w * fn(x + h + h * t)
        total += h * panel
        x = end


#: Steps of rtsafe, on floats (_newton_bisect) and on lanes
#: (batch._newton_bisect_many), after which it returns its last point.
_RTSAFE_STEPS = 200


def _newton_bisect(fn, dfn, lo: float, hi: float, f_lo: float,
                   f_hi: float) -> float:
    """Root of an increasing function inside [lo, hi], f_lo <= 0 <= f_hi.

    Safeguarded Newton ("rtsafe", Press et al., Numerical Recipes 9.4):
    Newton steps with the analytic derivative dfn, replaced by bisection
    when the slope is not positive and finite, or when a step leaves the
    bracket or fails to halve the one before the last.  Its exits are
    those of batch._newton_bisect_many, the table ROOT_FINDER_EXITS of
    tests/test_material.py, which runs every exit through both; none
    involves a residual tolerance, so the root is resolved to full
    precision at every magnitude, or to where fn returns an exact zero
    (riemann._stopped_residual zeroes roundoff).  It is the package's only
    scalar root finder.

    The step is written here for floats and there for lanes, the one part
    of the middle-stress search that is not one body.  One body, the lane
    loop's masks on floats with its selections through _where, takes
    every exit and selection at every step: at about 2.7 steps per box
    solve it made scalar solves about 7% slower on a 2-core x86-64 VM
    (about 2 us per step), and lane calls no faster.
    """
    x, f = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
    step_old = step = hi - lo
    for _ in range(_RTSAFE_STEPS):
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
    less its linear part is alpha*r(T).  For integer n the polynomials of
    _integer_law; otherwise the expm1/log1p form, which leaves no
    cancellation for small stresses.  The one- and two-term R and P of
    n = 1 and n = 2 are written out, as in strain."""
    u = 0.5 * m.gamma * T * T
    law = m.law
    if law is not None:
        R, P = law[2], law[3]
        if len(R) == 1:
            return T * u * R[0], u * P[0]
        if len(R) == 2:
            return T * u * (R[0] * u + R[1]), u * (P[0] * u + P[1])
        return T * u * _horner(R, u), u * _horner(P, u)
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


#: Newton steps of _quintic_tangency_start.  From its first guess they
#: reach the root at roundoff (one ulp of t) for every anchor.
_TANGENCY_STEPS = 4


def _where(c, a, b, xp=math):
    """a where c, else b: xp.where on numpy lanes, element by element where
    a and b are tuples of values; a if c else b on floats.  The bodies that
    floats and lanes share select with it."""
    if xp is math:
        return a if c else b
    if isinstance(a, tuple):
        return tuple(xp.where(c, x, y) for x, y in zip(a, b))
    return xp.where(c, a, b)


def _narrow(lo, f_lo, hi, f_hi, x, f_x, xp=math):
    """The bracket [lo, hi] of the increasing residual, where it takes f_lo
    and f_hi, narrowed at x inside it, where it takes f_x: the end on
    f_x's side moves to x.  Returns (lo, f_lo, hi, f_hi); one body for
    floats and numpy lanes."""
    return _where(f_x < 0.0, (x, f_x, hi, f_hi), (lo, f_lo, x, f_x), xp)


def _quintic_tangency_start(m: Material, B):
    """The tangency stress of the anchor -B for n = 2, to roundoff.

    There strain = (alpha+beta)*T + alpha*gamma*T**3 + (alpha*gamma**2/4)*T**5,
    and the tangency residual with its double root at -B divided out is,
    in t = T/B, P(t) = k*(1 - 2t) + t**2*(3 - 4t) with k = 1 + 4/(gamma*B**2).
    P falls strictly on (0, 1) and is concave beyond t = 1/4, and its one
    root lies in [1/2, 0.61).  At t_0 = 1/2 + 1/(8k), P = -3d**2 - 4d**3 < 0
    with d = 1/(8k), so Newton's steps from t_0 fall monotonically to the
    root.  Only + - * / are used: floats and numpy lanes get the same bits."""
    k = 1.0 + 4.0 / (m.gamma * B * B)
    t = 0.5 + 0.125 / k
    for _ in range(_TANGENCY_STEPS):
        t = t - ((k * (1.0 - 2.0 * t) + t * t * (3.0 - 4.0 * t))
                 / (6.0 * t * (1.0 - 2.0 * t) - 2.0 * k))
    return B * t


#: The roundoff of the tangency residual at its root, in units of |r(-B)|:
#: its three terms, each a few roundings off, sum to between 2*|r(-B)| and
#: 4*|r(-B)| there (r'(T)*(T + B) = r(T) - r(-B) and 0 < r(T) < |r(-B)|).
_TANGENCY_ROUNDOFF = 8.0 * math.ulp(1.0)


def _tangency_bracket(m: Material, B, r_B, f_hi, xp=math):
    """(lo, f_lo, hi, f_hi): the bracket of the tangency of the anchor
    -B < 0 and its residuals, given r_B = r(-B) of _excess and the
    residual f_hi = 2*(r_B + B*r'(-B)) at B.  It is [0, B]; for n = 2 it
    is narrowed at _quintic_tangency_start's point, whose residual is
    taken there, so the start is checked, not trusted.  A residual within
    its roundoff (_TANGENCY_ROUNDOFF) reads as 0 there, at which rtsafe
    returns the start with no step: a step could only move it within that
    roundoff, which spans several ulps of the root at large anchors.
    Otherwise rtsafe polishes it.  One body for floats and numpy lanes."""
    lo, f_lo, hi = 0.0 * B, r_B, B   # 0.0*B: a zero float or lane row
    if m.n != 2.0:
        return lo, f_lo, hi, f_hi
    x = _quintic_tangency_start(m, B)
    f_x = _tangency_residual(m, B, r_B, x, xp)
    f_x = _where(abs(f_x) <= _TANGENCY_ROUNDOFF * -r_B, 0.0 * f_x, f_x, xp)
    return _narrow(lo, f_lo, hi, f_hi, x, f_x, xp)


def tangent_point(m: Material, T_anchor: float) -> float:
    """Stress on the other convexity branch where the chord from
    (T_anchor, strain(T_anchor)) is tangent to the strain curve.

    For T_anchor < 0 the result is positive, mirrored for T_anchor > 0;
    since strain_prime is even and U-shaped, |result| < |T_anchor| always.
    For a cubic strain (n = 1) the root is exactly -T_anchor/2.  Otherwise
    each call solves the tangency condition afresh by rtsafe (nothing is
    cached: a solve needs at most two tangency stresses, which its wave
    curves keep); for n = 2 it is the closed-form root of
    _quintic_tangency_start, taken as it is where its residual is within
    the residual's roundoff and polished by rtsafe otherwise
    (_tangency_bracket).  Raises
    OverflowError where the constitutive functions overflow at the
    anchor: where the residual at the bracket end |T_anchor| is not
    finite (so neither are r or r' of _excess there, or the residual's
    terms near the root may overflow), the test of batch._tangency, or
    where math raises it.
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
    f_hi = 2.0 * (r_a + A * dr_a)
    if not math.isfinite(f_hi):
        raise OverflowError(
            f"the tangency of the anchor stress {T_anchor} overflows")
    lo, f_lo, hi, f_hi = _tangency_bracket(m, A, r_a, f_hi)
    return sign * _newton_bisect(
        partial(_tangency_residual, m, A, r_a), partial(_tangency_slope, m, A),
        lo, hi, f_lo, f_hi)


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
        m, lambda s: (s + e) * (D - s) * strain_second(m, k + s), D)
    if cross:
        total += 2.0 * D * _graded(m, lambda u: u * strain_second(m, u), k)
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
