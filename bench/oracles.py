"""Output checks computed apart from the barwaves package.

Every check here follows from the paper's constitutive law, the jump
conditions of the equations of motion and the zero-velocity classification;
none calls the package's own verification helpers or compares against a
stored copy of its output.  Each check returns ``None`` when the output is
right and a one-line description of the first defect otherwise.

Constitutive law, from the material constants alone:

    strain(T) = beta*T + alpha*(1 + gamma*T**2/2)**n * T

Jump conditions of ``rho*v_t = T_x`` and ``strain(T)_t = v_x`` across a
discontinuity of speed s:

    s*rho*[v] + [T] = 0,        s*[strain] + [v] = 0.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Relative tolerance of the jump, endpoint and speed-ordering checks.  The
#: solver targets velocity residuals near 1e-12 of the data scale, so this
#: leaves three orders of margin while a 1e-3 speed error stays visible.
REL_TOL = 1e-9

#: Points of an atlas sweep this close (relative to the stress scale) to a
#: classification threshold are skipped: a roundoff-level difference in a
#: threshold may move them across it legitimately.
THRESHOLD_GAP = 1e-9

#: L1 distance allowed between the first-order finite-volume solution and the
#: exact profile, per unit of jump size |[T]| + |[v]|, measured over a xi
#: window of unit width.  The Lax-Friedrichs scheme smears each wave over a
#: width that shrinks like sqrt(dx); at 400 cells the largest ratio over 300
#: seeded released-bar problems was 0.095, while a wrong wave pattern moves
#: whole plateaus and gives ratios of order one.
FV_L1_PER_JUMP = 0.25

#: Relative closure allowed for the discrete conservation tallies.
CONSERVATION_TOL = 1e-11

ALL_CASES = ("I", "II", "III", "IV", "V", "VI",
             "VII", "VIII", "IX", "X", "XI", "XII")


def strain(c, T):
    """Strain at stress T for material constants c (alpha, beta, gamma, n)."""
    return c.beta * T + c.alpha * (1.0 + 0.5 * c.gamma * T * T) ** c.n * T


def strain_antiderivative(c, T):
    """An antiderivative of strain in T."""
    return (0.5 * c.beta * T * T + c.alpha / (c.gamma * (c.n + 1.0))
            * (1.0 + 0.5 * c.gamma * T * T) ** (c.n + 1.0))


def strain_prime(c, T):
    """d(strain)/dT, differentiated by hand from :func:`strain`."""
    q = 1.0 + 0.5 * c.gamma * T * T
    return c.beta + c.alpha * (q ** c.n + c.n * c.gamma * T * T * q ** (c.n - 1.0))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


# ---------------------------------------------------------------------------
# box and wide: one exact solution


def check_pattern(c, U_l, U_r, pattern) -> str | None:
    """Check a solved pattern against the data it was solved for.

    ``c`` carries the material constants and rho; ``U_l``/``U_r`` and every
    state in the pattern have fields T and v; every wave has kind, left,
    right, speed_head, speed_tail and degenerate.  Checks: the waves chain
    from U_l to U_r; every shock satisfies both jump conditions; every
    non-degenerate shock dissipates; the wave speeds are ordered.
    Tolerances are relative to the scale of the problem.
    """
    waves = pattern.waves
    states = [U_l, U_r] + [s for w in waves for s in (w.left, w.right)]
    # Every state of the pattern is reached through the largest velocity
    # changes in it, so the errors of any one state scale with the largest
    # stress, strain and velocity of the whole pattern, not with its own.
    T_scale = max(abs(s.T) for s in states)
    v_scale = max(abs(s.v) for s in states)
    e_scale = max(abs(strain(c, s.T)) for s in states)
    if not waves:
        return None if (U_l.T, U_l.v) == (U_r.T, U_r.v) else \
            "no waves for distinct states"
    first, last = waves[0].left, waves[-1].right
    if not (_close(first.T, U_l.T, T_scale) and _close(first.v, U_l.v, v_scale)):
        return f"pattern starts at {first}, not at {U_l}"
    if not (_close(last.T, U_r.T, T_scale) and _close(last.v, U_r.v, v_scale)):
        return f"pattern ends at {last}, not at {U_r}"
    for a, b in zip(waves, waves[1:]):
        if not (_close(a.right.T, b.left.T, T_scale)
                and _close(a.right.v, b.left.v, v_scale)):
            return f"waves do not connect: {a.right} then {b.left}"

    speed_scale = max(max(abs(w.speed_head), abs(w.speed_tail)) for w in waves)
    prev_tail = -math.inf
    for w in waves:
        if w.speed_head > w.speed_tail + REL_TOL * speed_scale:
            return f"{w.kind} head speed {w.speed_head} above tail {w.speed_tail}"
        if prev_tail > w.speed_head + REL_TOL * speed_scale:
            return f"wave speeds out of order: {prev_tail} then {w.speed_head}"
        prev_tail = w.speed_tail
        if w.kind == "shock":
            problem = check_shock(c, w, T_scale, v_scale, e_scale)
            if problem:
                return problem
    return None


def check_shock(c, w, T_scale: float, v_scale: float,
                e_scale: float) -> str | None:
    """Jump conditions, judged against the scales of the whole pattern, and,
    unless the shock is degenerate, a nonnegative dissipation rate."""
    s = w.speed_head
    T_a, T_b = w.left.T, w.right.T
    e_a, e_b = strain(c, T_a), strain(c, T_b)
    dT, dv, de = T_b - T_a, w.right.v - w.left.v, e_b - e_a
    momentum = s * c.rho * dv + dT
    if abs(momentum) > REL_TOL * (abs(s) * c.rho * v_scale + T_scale):
        return f"momentum jump residual {momentum:.3e} at shock {w.left}->{w.right}"
    compat = s * de + dv
    if abs(compat) > REL_TOL * (abs(s) * e_scale + v_scale):
        return f"strain jump residual {compat:.3e} at shock {w.left}->{w.right}"
    if w.degenerate:
        return None
    # Driving force: area between the chord and the strain curve.
    chord = 0.5 * (e_a + e_b) * dT
    curve = strain_antiderivative(c, T_b) - strain_antiderivative(c, T_a)
    rate = s * (chord - curve)
    rate_scale = abs(s) * (abs(chord) + abs(strain_antiderivative(c, T_a))
                           + abs(strain_antiderivative(c, T_b)))
    if rate < -REL_TOL * rate_scale:
        return f"negative dissipation rate {rate:.3e} at shock {w.left}->{w.right}"
    return None


# ---------------------------------------------------------------------------
# atlas: zero-velocity classification of the cubic preset


def cubic_thresholds(c, T_l: float) -> tuple[float, float]:
    """(T*, T**) for a nonzero left stress of a cubic material (n = 1).

    T* = -T_l.  T** is the real root beyond the tangency stress Tt = -T_l/2
    of (T - Tt)(strain(T) - strain(Tt)) - (Tt - T_l)**2 * strain'(Tt), a
    polynomial because strain is a cubic.  Mirrored for T_l > 0.
    """
    if c.n != 1.0:
        raise ValueError("the closed-form thresholds need a cubic strain")
    if T_l > 0.0:
        t1, t2 = cubic_thresholds(c, -T_l)
        return -t1, -t2
    lin, cub = c.alpha + c.beta, 0.5 * c.alpha * c.gamma
    Tt = -0.5 * T_l
    eps = np.polynomial.Polynomial([0.0, lin, 0.0, cub])
    rhs = (Tt - T_l) ** 2 * strain_prime(c, Tt)
    poly = np.polynomial.Polynomial([-Tt, 1.0]) * (eps - eps(Tt)) - rhs
    roots = np.roots(poly.coef[::-1])
    real = [r.real for r in roots
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > Tt]
    if len(real) != 1:
        raise ArithmeticError(f"expected one real root beyond {Tt}, got {roots}")
    root = real[0]
    dpoly = poly.deriv()
    for _ in range(2):
        root -= poly(root) / dpoly(root)
    return -T_l, float(root)


def zero_velocity_type(c, T_l: float, T_r: float) -> str | None:
    """Solution type I..XII, or None when (T_l, T_r) sits within
    THRESHOLD_GAP of a dividing value and is skipped."""
    gap = THRESHOLD_GAP * max(1.0, abs(T_l), abs(T_r))
    if T_l == 0.0:
        if abs(T_r) <= gap:
            return None
        return "XI" if T_r < 0.0 else "XII"
    if abs(T_r - T_l) <= gap:
        return None
    if T_r != 0.0 and abs(T_r) <= gap:
        return None
    t_star, t_star_star = cubic_thresholds(c, T_l)
    if abs(T_r - t_star) <= gap or abs(T_r - t_star_star) <= gap:
        return None
    if T_l < 0.0:
        if T_r < T_l:
            return "I"
        if T_r <= 0.0:
            return "II"
        if T_r < t_star:
            return "III"
        return "IV" if T_r <= t_star_star else "V"
    if T_r > T_l:
        return "VI"
    if T_r >= 0.0:
        return "VII"
    if T_r > t_star:
        return "VIII"
    return "IX" if T_r >= t_star_star else "X"


def check_atlas_csv(c, text: str, tl_grid, tr_grid) -> str | None:
    """Check an atlas sweep: one row per grid point in row-major order, each
    case label equal to the independently computed type (points near a
    threshold skipped), and a trailer that lists all twelve types."""
    lines = text.splitlines()
    if not lines or lines[0] != "T_l,T_r,case_label,region_label":
        return "atlas output lacks its header"
    if not lines[-1].startswith("# distinct_case_labels="):
        return "atlas output lacks its trailer"
    rows = list(csv.reader(lines[1:-1]))
    expected_points = [(tl, tr) for tl in tl_grid for tr in tr_grid]
    if len(rows) != len(expected_points):
        return f"atlas has {len(rows)} rows, expected {len(expected_points)}"
    seen = set()
    for row, (tl, tr) in zip(rows, expected_points):
        T_l, T_r, label = float(row[0]), float(row[1]), row[2]
        if not (math.isclose(T_l, tl, rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(T_r, tr, rel_tol=1e-12, abs_tol=1e-12)):
            return f"atlas row ({T_l}, {T_r}) is not grid point ({tl}, {tr})"
        if T_l == T_r:
            if label != "-":
                return f"atlas labels the trivial point {T_l} as {label}"
            continue
        seen.add(label)
        want = zero_velocity_type(c, T_l, T_r)
        if want is not None and label != want:
            return f"atlas labels ({T_l}, {T_r}) {label}, expected {want}"
    count, _, listed = lines[-1].partition("=")[2].partition(":")
    listed_types = listed.split(",") if listed else []
    if set(listed_types) != seen or int(count) != len(listed_types):
        return f"atlas trailer {lines[-1]!r} disagrees with its rows"
    if sorted(listed_types) != sorted(ALL_CASES):
        return f"atlas trailer lists {listed_types}, not all twelve types"
    return None


# ---------------------------------------------------------------------------
# fvcheck: finite-volume reference against the exact profile


def check_fv(c, U_l, U_r, distance: float, tallies: dict,
             xi_width: float, cells: int) -> str | None:
    """L1 distance bounded by the jump size, and conservation tallies that
    close to roundoff: dx*(final sum - initial sum) + boundary flux = 0 for
    both strain and momentum."""
    jump = abs(U_r.T - U_l.T) + abs(U_r.v - U_l.v)
    bound = FV_L1_PER_JUMP * jump * xi_width
    if not distance <= bound:
        return f"L1 distance {distance:.4e} above {bound:.4e}"
    dx = tallies["dx"]
    e_mag = max(abs(strain(c, U_l.T)), abs(strain(c, U_r.T)))
    m_mag = c.rho * max(abs(U_l.v), abs(U_r.v))
    for name, mag in (("eps", e_mag), ("mom", m_mag)):
        closure = (dx * (tallies[f"sum_{name}"] - tallies[f"sum0_{name}"])
                   + tallies[f"flux_{name}"])
        scale = cells * dx * mag + abs(tallies[f"flux_{name}"])
        if abs(closure) > CONSERVATION_TOL * scale:
            return f"{name} conservation closes to {closure:.3e}, not roundoff"
    return None
