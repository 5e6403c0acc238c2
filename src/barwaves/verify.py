"""Independent admissibility and correctness checks.

Everything here deliberately avoids the wave-curve formulas: jump residuals
come straight from the jump conditions, the entropy checks sample chord
speeds, and the reference scheme integrates the conservation form of the
equations of motion on a grid.  In the (T, v) variables the system is not
conservative, so the scheme evolves (strain, momentum density), where

    d(strain)/dt - d(v)/dx = 0,      d(rho v)/dt - d(T)/dx = 0,

and recovers stress by inverting the strain curve pointwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace

import numpy as np

from .material import (
    Material,
    _slope_speed,
    driving_force,
    invert_strain,
    strain,
    wave_speed,
)
from .riemann import WavePattern
from .sampler import Profile
from .wave_curves import BACKWARD, FORWARD, State, Wave


def _shock_scale(w: Wave) -> float:
    return max(1.0, abs(w.left.T), abs(w.right.T),
               abs(w.left.v), abs(w.right.v))


def check_rh(pattern: WavePattern) -> float:
    """Largest normalized jump-condition residual over the pattern's shocks:
    max of |s*rho*[v] + [T]| and |s*[strain] + [v]|.  0 for shock-free
    patterns."""
    m = pattern.material
    worst = 0.0
    for w in pattern.shocks():
        s = w.speed_head
        dT = w.right.T - w.left.T
        dv = w.right.v - w.left.v
        de = strain(m, w.right.T) - strain(m, w.left.T)
        r = max(abs(s * m.rho * dv + dT), abs(s * de + dv))
        worst = max(worst, r / _shock_scale(w))
    return worst


#: The roundoff bound of the dissipation slack s*(T_r - T_l)*(T_r + T_l),
#: in units of eps*|s|*|T_r - T_l|*(|T_l| + |T_r|): a few roundings of the
#: sum and the two products, doubled.
_SLACK_ROUNDOFF = 8.0 * math.ulp(1.0)


def check_dissipation(pattern: WavePattern) -> float:
    """Minimum dissipation slack s*(T_r - T_l)*(T_r + T_l) over shocks
    (+inf for shock-free patterns, which are vacuously admissible).  Also
    recomputes the dissipation rate as driving_force * speed and raises if
    the two expressions disagree in sign, either both beyond 1e-12 or, at
    any scale, with a nonzero rate and a slack beyond its roundoff,
    8*eps*|s|*|T_r - T_l|*(|T_l| + |T_r|).

    Contact discontinuities (degenerate on both sides, linear materials
    only) carry no dissipation and are skipped.
    """
    m = pattern.material
    slack_min = math.inf
    for w in pattern.shocks():
        if w.degenerate == "both":
            continue
        s = w.speed_head
        slack = s * (w.right.T - w.left.T) * (w.right.T + w.left.T)
        rate = driving_force(m, w.left.T, w.right.T) * s
        roundoff = (_SLACK_ROUNDOFF * abs(s) * abs(w.right.T - w.left.T)
                    * (abs(w.left.T) + abs(w.right.T)))
        if ((abs(slack) > 1e-12 and abs(rate) > 1e-12 and slack * rate < 0.0)
                or (rate != 0.0 and abs(slack) > roundoff
                    and (slack < 0.0) != (rate < 0.0))):
            raise AssertionError(
                f"dissipation sign mismatch: slack={slack}, rate={rate}")
        slack_min = min(slack_min, slack)
    return slack_min


def check_lax(m: Material, shock: Wave) -> bool:
    """Characteristic-speed inequalities for one shock:
    lambda(left) >= s >= lambda(right) in the shock's own family, with a
    margin of 1e-12 of the largest of the three speeds (equality is exactly
    the degenerate case)."""
    lam_l = wave_speed(m, shock.left.T, shock.family)
    lam_r = wave_speed(m, shock.right.T, shock.family)
    s = shock.speed_head
    tol = 1e-12 * max(abs(s), abs(lam_l), abs(lam_r))
    return lam_l >= s - tol and s >= lam_r - tol


def check_liu(m: Material, shock: Wave) -> float:
    """Minimum margin s(U_l, U) - s(U_l, U_r) over the 64 stresses
    T_a + (T_b - T_a)*i/65, i = 1..64, strictly between the shock's end
    stresses T_a and T_b, with signed speeds.  The admissible shock is the
    slowest signed speed over all partial chords from its left state, so
    the margin should be >= 0 up to roundoff.  The chord speeds are
    material._slope_speed's, which takes the roots apart where rho*slope
    is below the smallest normal float (at tiny rho)."""
    sign = -1.0 if shock.family == BACKWARD else 1.0
    T_a, T_b = shock.left.T, shock.right.T
    eps_a = strain(m, T_a)
    s_full = shock.speed_head
    margin = math.inf
    for i in range(1, 65):
        T = T_a + (T_b - T_a) * i / 65
        slope = (strain(m, T) - eps_a) / (T - T_a)
        s_part = sign * _slope_speed(m, slope)
        margin = min(margin, s_part - s_full)
    return margin


def speeds_ordered(pattern: WavePattern) -> bool:
    """Waves sorted by speed with non-overlapping ranges, up to 1e-12."""
    prev_tail = -math.inf
    for w in pattern.waves:
        if w.speed_head > w.speed_tail + 1e-12:
            return False
        if prev_tail > w.speed_head + 1e-12:
            return False
        prev_tail = w.speed_tail
    return True


# ---------------------------------------------------------------------------
# symmetries: a pattern against the solution of transformed data

#: What the space reflection swaps: the families and the degenerate sides.
_MIRROR = {BACKWARD: FORWARD, FORWARD: BACKWARD, "left": "right",
           "right": "left"}


def _mirrored(w: Wave) -> Wave:
    """w under x -> -x combined with (T, v) -> (-T, v): stresses negated,
    velocities kept, family, ends and degenerate sides swapped, speeds
    negated and swapped."""
    return Wave(w.kind, _MIRROR[w.family], State(-w.right.T, w.right.v),
                State(-w.left.T, w.left.v), -w.speed_tail, -w.speed_head,
                _MIRROR.get(w.degenerate, w.degenerate))


def _negated(w: Wave) -> Wave:
    """w under (T, v) -> (-T, -v): states negated, all else kept."""
    return replace(w, left=State(-w.left.T, -w.left.v),
                   right=State(-w.right.T, -w.right.v))


def _deviation(p: WavePattern, images) -> float:
    """Largest mismatch between the waves of p and their expected images,
    in order: inf where the counts, a kind, a family or a degenerate side
    differ, else the largest difference of an end state or a speed."""
    if len(p.waves) != len(images):
        return math.inf
    dev = 0.0
    for w, x in zip(p.waves, images):
        if (w.kind, w.family, w.degenerate) != (x.kind, x.family,
                                                x.degenerate):
            return math.inf
        dev = max(dev,
                  abs(w.left.T - x.left.T), abs(w.left.v - x.left.v),
                  abs(w.right.T - x.right.T), abs(w.right.v - x.right.v),
                  abs(w.speed_head - x.speed_head),
                  abs(w.speed_tail - x.speed_tail))
    return dev


def mirror_deviation(p: WavePattern, q: WavePattern) -> float:
    """Largest mismatch between pattern p and the space-reflected pattern q,
    where q solves the data (-T_r, v_r), (-T_l, v_l).

    The system is invariant under x -> -x combined with the constitutive
    oddness (T, v) -> (-T, -v); the composition negates stresses, keeps
    velocities, swaps families, negates speeds and reverses the wave order.
    (Negating the velocities as well is *not* a symmetry: it already
    contradicts the closed-form linear solution.)
    """
    return _deviation(p, [_mirrored(w) for w in reversed(q.waves)])


def negation_deviation(p: WavePattern, q: WavePattern) -> float:
    """Largest mismatch between p and q where q solves the pointwise-negated
    data (-T_l, -v_l), (-T_r, -v_r); oddness of the strain makes this a
    symmetry that negates states and keeps families, speeds and order."""
    return _deviation(p, list(map(_negated, q.waves)))


# ---------------------------------------------------------------------------
# finite-volume reference


def residual_slope_rows(m: Material, size: int) -> tuple:
    """The constant operands k of strain_residual_slope for arrays of
    `size` elements, views of one array, built once per fv_reference
    call.  The second row is all ones for every material.

    For a material with the coefficient table of material._integer_law:
    rows holding 0.5*gamma, 1, alpha and alpha + beta; the row of R's
    second coefficient (None for n = 1, whose R is its leading 1) and a
    tuple of the rows of its later ones; the row of P's leading
    coefficient and a tuple of the rows of its later ones; and a work row.
    Otherwise rows holding 0.5*gamma, 1, alpha, beta and
    0.5*(1 + 2n)*gamma, in that order."""
    if m.law is None:
        return tuple(np.repeat(
            [[0.5 * m.gamma], [1.0], [m.alpha], [m.beta],
             [0.5 * (1.0 + 2.0 * m.n) * m.gamma]], size, axis=1))
    half_gamma, a, R, P = m.law[:4]
    rows = list(np.repeat([[c] for c in (
        half_gamma, 1.0, m.alpha, a, *R[1:], *P, 0.0)], size, axis=1))
    r_rows, (p_lead, *p_rows, work) = rows[4:3 + len(R)], rows[3 + len(R):]
    return (*rows[:4], r_rows[0] if r_rows else None, tuple(r_rows[1:]),
            p_lead, tuple(p_rows), work)


def strain_residual_slope(m: Material, T, eps, r, slope, tmp, k) -> None:
    """Write strain(T) - eps into r and strain_prime(T) into slope, for
    float arrays T and eps, caller buffers r, slope and tmp of their shape
    that alias neither, and the rows k = residual_slope_rows(m, T.size);
    no temporary array is made.

    The operations are those of strain and strain_prime, in the same order,
    so both results match them bit for bit.  For integer n they are the
    Horner polynomials of material._integer_law: w = gamma*T**2/2 is held
    in slope and alpha*w in tmp, both read by the strain and the slope.
    R's leading coefficient, 1, is not multiplied (1*w is w bit for bit),
    so a pass makes 8 numpy calls for n = 1 and 12 for n = 2.

    Otherwise q = 1 + gamma*T**2/2 is computed once and held in slope until
    its last use; the constants come from the rows k, by the dispatch rule
    of fv_reference, but the exponents n and n - 1 stay Python floats:
    numpy's power rounds differently with an array exponent (power(q, 2.0)
    is q*q, an array of 2.0 is not).  16 calls."""
    multiply, add = np.multiply, np.add
    if m.law is not None:
        half_gamma, _, alpha, a, r_second, r_rows, p_lead, p_rows, work = k
        w = multiply(T, half_gamma, slope)
        multiply(w, T, w)
        aw = multiply(w, alpha, tmp)
        # T*(a + alpha*w*R(w)), R = 1 for n = 1
        h = aw
        if r_second is not None:
            h = add(w, r_second, r)
            for c in r_rows:
                multiply(h, w, h)
                add(h, c, h)
            multiply(h, aw, h)
        add(h, a, r)
        multiply(r, T, r)
        np.subtract(r, eps, r)
        # a + alpha*w*P(w), w still in slope
        h = p_lead
        for c in p_rows:
            h = multiply(h, w, work)
            add(h, c, h)
        multiply(aw, h, slope)
        add(slope, a, slope)
        return
    half_gamma, one, alpha, beta, c = k
    q = multiply(T, half_gamma, slope)
    multiply(q, T, q)
    add(q, one, q)
    np.power(q, m.n, r)
    multiply(r, alpha, r)
    multiply(r, T, r)
    multiply(T, beta, tmp)
    add(tmp, r, r)
    np.subtract(r, eps, r)
    np.power(q, m.n - 1.0, slope)
    multiply(slope, alpha, slope)
    multiply(T, c, tmp)
    multiply(tmp, T, tmp)
    add(tmp, one, tmp)
    multiply(slope, tmp, slope)
    add(slope, beta, slope)


def cubic_inverse_rows(m: Material, size: int) -> tuple | None:
    """The constant operands of cubic_inverse for arrays of `size`
    elements, views of one array, or None unless m is an n = 1 material
    outside linear_mode.  There strain(T) = a*T + c*T**3 with a = alpha +
    beta > 0 and c = alpha*gamma/2 > 0, and with p = a/c the rows hold
    K1 = (3/(2p))*sqrt(3/p)/c, 3 and K2 = 2*sqrt(p/3)."""
    if m.n != 1.0 or m.linear_mode:
        return None
    c = 0.5 * m.alpha * m.gamma
    p = (m.alpha + m.beta) / c
    return tuple(np.repeat(
        [[1.5 / p * math.sqrt(3.0 / p) / c], [3.0],
         [2.0 * math.sqrt(p / 3.0)]], size, axis=1))


def cubic_inverse(eps, T, rows) -> None:
    """Write into T the real root of the n = 1 strain, a*T + c*T**3 = eps,
    in closed form: T = K2*sinh(asinh(K1*eps)/3), the one real root of a
    depressed cubic with p > 0, on the rows of cubic_inverse_rows.  Five
    in-place ufunc calls; relative error a few ulps at unit scale, growing
    with asinh(K1*|eps|) through sinh's argument.  Where K1*|eps| exceeds
    the largest float, T overflows to +-inf (with a RuntimeWarning), and
    _invert_strain_grid restarts those cells from the cube root."""
    K1, three, K2 = rows
    np.multiply(eps, K1, T)
    np.arcsinh(T, T)
    np.divide(T, three, T)
    np.sinh(T, T)
    np.multiply(T, K2, T)


def _invert_strain_grid(m: Material, eps: np.ndarray, T: np.ndarray,
                        r: np.ndarray, slope: np.ndarray, k: tuple,
                        cubic: tuple | None, rel: np.ndarray, tol: np.ndarray,
                        work: np.ndarray, ok: np.ndarray):
    """Vectorized Newton for strain(T) = eps, in place, started either from
    the closed form or warm.  With the rows cubic = cubic_inverse_rows(m,
    T.size) of an n = 1 material, T is overwritten by cubic_inverse and one
    strain_residual_slope pass takes its residual and slope; if some cell
    is then outside the stopping rule, the cells where the closed form
    overflowed restart from cbrt(eps)/cbrt(c), c = alpha*gamma/2, which
    is exact to rounding there (the linear term is below 1e-200 of the
    cubic one), with one more pass before any update; otherwise
    (cubic is None) T is the warm start, r = strain(T) - eps its residual
    and slope = strain_prime(T).  T, r and slope are overwritten with their
    values at the stress found.  Each update T -= r/slope is followed by
    one strain_residual_slope pass, with its rows k (whose second is all
    ones).  Stops when |r| <= 1e-13*max(1, |eps|) in every cell, where rel
    holds the 1e-13, so the closed form is only checked, not trusted;
    cells still outside after 60 updates are inverted one by one by the
    scalar invert_strain (the rescue).  tol, work (float) and ok (bool) are
    buffers of eps's size.  Returns T, r, slope, the number of Newton
    updates and the number of cells rescued."""
    if cubic is not None:
        cubic_inverse(eps, T, cubic)
        strain_residual_slope(m, T, eps, r, slope, work, k)
    absolute, less_equal, count_nonzero, divide, subtract = (
        np.abs, np.less_equal, np.count_nonzero, np.divide, np.subtract)
    absolute(eps, tol)
    # maximum, unlike the other ufuncs, deprecates a positional out
    np.maximum(tol, k[1], out=tol)
    np.multiply(tol, rel, tol)
    updates, restart = 0, cubic is not None
    # all() by count_nonzero, which skips the reduction machinery
    while count_nonzero(less_equal(absolute(r, work), tol, ok)) < T.size:
        if restart:
            restart = False
            over = np.flatnonzero(~np.isfinite(T))
            if over.size:
                c = 0.5 * m.alpha * m.gamma
                T[over] = np.cbrt(eps[over]) / np.cbrt(c)
                strain_residual_slope(m, T, eps, r, slope, work, k)
                continue
        if updates == 60:
            # ~ok, not work > tol: a cell whose residual is NaN is stuck
            # too
            stuck = np.flatnonzero(~ok)
            for i in stuck:
                # a strain that overflowed leaves its stress NaN, which
                # invert_strain would refuse
                e = float(eps[i])
                T[i] = invert_strain(m, e) if math.isfinite(e) else math.nan
            strain_residual_slope(m, T, eps, r, slope, work, k)
            return T, r, slope, updates, stuck.size
        divide(r, slope, work)
        subtract(T, work, T)
        strain_residual_slope(m, T, eps, r, slope, work, k)
        updates += 1
    return T, r, slope, updates, 0


def _hull_max_speed(m: Material, T_lo: float, T_hi: float) -> float:
    """Largest characteristic speed over the stress hull [T_lo, T_hi];
    strain_prime is even and minimized at 0, so the maximum sits at the
    hull point nearest zero."""
    return wave_speed(m, min(max(0.0, T_lo), T_hi), FORWARD)


def fv_reference(m: Material, U_l: State, U_r: State, cells: int,
                 cfl: float, t_end: float,
                 tallies: dict | None = None) -> Profile:
    """First-order global Lax-Friedrichs solution at t_end, as a profile in
    xi = x/t_end.

    Deliberately crude but independent of the exact solver: conservative in
    (strain, momentum), outflow ghost cells.  The half-width covers the
    fastest wave plus the scheme's diffusion length, so the smeared wave
    feet stay away from the boundary.  The dissipation speed starts at the
    hull maximum plus 5% headroom; velocity data can lift the middle stress
    outside the hull, so whenever a step's largest characteristic speed
    exceeds it, the following steps use that speed plus 5%.  It never
    shrinks, so data within the hull runs at the initial speed throughout.

    Each step recovers the stress by _invert_strain_grid.  For an n = 1
    material it is the closed-form root of the cubic strain
    (cubic_inverse), checked by one strain_residual_slope pass against
    the stopping rule, so no Newton update runs in practice.  For other n
    and for linear_mode it is Newton's method warm-started at the previous
    stress: the residual strain(T) - eps and the slope strain_prime(T) of
    the last update are kept across steps, and the step moves eps by -d,
    so the next residual starts at r + d.  Either way the slope gives the
    step's largest characteristic speed, and, outside the rescue, each
    strain_residual_slope pass is the step's only evaluation of the
    constitutive law.  The step runs in arrays allocated once per call,
    with the operations of the textbook formulas in their order, so its
    results do not depend on the buffering.

    numpy's per-call dispatch, not the arithmetic, sets the step's time, so
    every elementwise call takes array operands and a positional out (about
    twice as fast as a Python-float operand): the step's constants are
    arrays of their partners' shapes, made once per call, and the boundary
    fluxes are summed in Python floats read off the edge columns (the same
    IEEE operations).  The exceptions are np.maximum, which deprecates a
    positional out, and the exponents of strain_residual_slope for real n.
    For integer n the pass is the Horner polynomials of the material's
    law, on rows built once per call (residual_slope_rows), and it makes
    no Python slice and no call whose result is known bit for bit: 8
    numpy calls for n = 1 and 12 for n = 2, where the power form took 13
    and 15.  The ufuncs a hot function calls are bound to locals when it
    starts, from the module's np, so each call skips two lookups.

    numpy runs a call on contiguous operands as one loop, and a strided
    2-row view as one loop per row, about twice as slow at this size.  So
    the flux half of the step works on the conserved rows (eps, mom) and
    on the flux rows (mom, T) as flat 1-D views of W, which holds them
    contiguously, and every neighbour operand is a 1-D slice: the fluxes
    F and the interface fluxes fhat have 2*(cells + 2) and
    2*(cells + 2) - 1 entries.  One interface straddles the two rows,
    between the right ghost of eps and the left ghost of mom: its flux is
    computed and never read, and its share of d lands only on those two
    ghost cells, which the outflow copy rewrites before they are read
    again.  Its jump, a momentum less a strain, can overflow only where
    one of those ghosts exceeds half the largest float; the edge states
    fill half a row each, so on such data the sum of that row taken at
    the start overflows already.  The outflow copy, ghost columns from
    edge columns, is the one call left on strided operands, once per
    step.  The scales -2*rho and -2 give the physical fluxes halved, so
    the sum of two neighbours is their average.  Halving commutes with rounding, so the sum equals
    0.5*(F_lo + F_hi) bit for bit except where a halved flux is subnormal
    (a bit may be lost) or where F_lo + F_hi exceeds the largest float
    (the sum of the halves stays finite).

    When a dict is passed as `tallies`, the accumulated boundary fluxes and
    the initial/final conserved sums are stored in it (keys flux_eps,
    flux_mom, sum0_eps, sum0_mom, sum_eps, sum_mom, dx), letting callers
    check discrete conservation exactly.  Three work counts join them:
    `steps`, the number of time steps; `newton_steps`, the Newton updates
    summed over every cell's inversion in every step (the scalar rescue of
    a cell is not counted); and `rescued`, the number of cell inversions
    the scalar invert_strain made.  Each step that rescues cells logs one
    DEBUG line on the `barwaves.verify` logger.  Where the strain
    overflows, the rescue leaves NaN stresses, and fv_reference raises
    OverflowError there, naming the data; a step without a rescue makes
    no such check.
    """
    for name, value in (("U_l", U_l), ("U_r", U_r)):
        if not (math.isfinite(value.T) and math.isfinite(value.v)):
            raise ValueError(f"fv_reference requires a finite {name}, "
                             f"got {value}")
    if not isinstance(cells, numbers.Integral) or cells < 50:
        raise ValueError(f"fv_reference requires an integer cells >= 50, "
                         f"got {cells!r}")
    cells = int(cells)
    if not 0.0 < cfl <= 0.9:
        raise ValueError(f"fv_reference requires 0 < cfl <= 0.9, got {cfl}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"fv_reference requires a finite t_end > 0, "
                         f"got {t_end}")

    T_lo = min(U_l.T, U_r.T)
    T_hi = max(U_l.T, U_r.T)
    a_hull = _hull_max_speed(m, T_lo, T_hi)
    a = 1.05 * a_hull  # headroom for startup over/undershoots
    L = 1.2 * t_end * a_hull
    # pad by the diffusion length so the smeared feet never hit the edges
    dx0 = 2.0 * L / cells
    L += 8.0 * math.sqrt(a_hull * dx0 * t_end)
    dx = 2.0 * L / cells
    x = -L + dx * (np.arange(cells) + 0.5)

    # strain, momentum and stress, with one ghost cell at each end; the
    # first two rows are the conserved variables
    W = np.empty((3, cells + 2))
    eps, mom, T = W[0, 1:-1], W[1, 1:-1], W[2, 1:-1]
    T[:] = np.where(x < 0.0, U_l.T, U_r.T)
    mom[:] = np.where(x < 0.0, m.rho * U_l.v, m.rho * U_r.v)
    # the residual strain(T) - eps and strain_prime(T), kept across steps,
    # the closed form's rows (None unless n = 1) and the inversion's
    # buffers; the first pass writes strain(T) - 0 = strain(T) into eps
    k = residual_slope_rows(m, cells)
    cubic = cubic_inverse_rows(m, cells)
    r = np.zeros(cells)
    slope, tol, work = np.empty((3, cells))
    ok = np.empty(cells, dtype=bool)
    strain_residual_slope(m, T, r, eps, slope, work, k)
    sum0_eps = float(np.sum(eps))
    sum0_mom = float(np.sum(mom))
    # flat views of the row pairs (eps, mom) and (mom, T); fhat gets one
    # slot more than its interfaces, for the 2-row view of its ends
    size = 2 * (cells + 2)
    U, W_flux = W[:2].reshape(-1), W[1:].reshape(-1)
    F = np.empty(size)
    fhat_rows = np.empty(size)
    fhat = fhat_rows[:-1]
    jump = np.empty(size - 1)
    d = np.empty(size - 2)
    # the constant operands, of their partners' shapes: the stopping
    # rule's 1e-13; the scales -2*rho and -2 of the halved physical fluxes
    # f(strain)/2 = -v/2 and f(momentum)/2 = -T/2; and 0.5*a and dt/dx,
    # refilled when a or dt changes
    rel = np.full(cells, 1e-13)
    flux_scale = np.repeat([-2.0 * m.rho, -2.0], cells + 2)
    half_a = np.full(size - 1, 0.5 * a)
    dt_dx = np.empty(size - 2)
    dt_set = None
    # views of the step's operands, taken once: the ghost columns 0 and
    # cells + 1 with the edge columns 1 and cells they copy, the left and
    # right neighbours of each interface, the boundary fluxes and the
    # strain row's share of d
    ghosts, edges = W[:, ::cells + 1], W[:, 1:cells + 1:cells - 1]
    F_lo, F_hi = F[:-1], F[1:]
    U_lo, U_hi, U_in = U[:-1], U[1:], U[1:-1]
    fhat_lo, fhat_hi = fhat[:-1], fhat[1:]
    fhat_ends, r_shift = fhat_rows.reshape(2, -1)[:, ::cells], d[:cells]
    copyto, add, subtract, multiply, divide = (
        np.copyto, np.add, np.subtract, np.multiply, np.divide)
    flux_eps = flux_mom = 0.0
    steps = newton_steps = rescued = 0

    t = 0.0
    while t < t_end:
        dt = min(cfl * dx / a, t_end - t)
        if dt != dt_set:
            dt_set = dt
            dt_dx.fill(dt / dx)
        copyto(ghosts, edges)  # outflow
        divide(W_flux, flux_scale, F)
        # interface fluxes with global dissipation speed a, the 0.5 of the
        # average taken by the scales:
        # fhat = 0.5*(F_lo + F_hi) - 0.5*a*(U_hi - U_lo)
        add(F_lo, F_hi, fhat)
        subtract(U_hi, U_lo, jump)
        multiply(jump, half_a, jump)
        subtract(fhat, jump, fhat)
        # d = (dt/dx)*(fhat_hi - fhat_lo)
        subtract(fhat_hi, fhat_lo, d)
        multiply(d, dt_dx, d)
        subtract(U_in, d, U_in)
        (lo_eps, hi_eps), (lo_mom, hi_mom) = fhat_ends.tolist()
        flux_eps += dt * (hi_eps - lo_eps)
        flux_mom += dt * (hi_mom - lo_mom)
        # eps moved by -d[:cells], so a kept residual moves by +d[:cells];
        # the closed form takes a fresh one
        if cubic is None:
            add(r, r_shift, r)
        # T, r and slope are updated in place; T stays the stress row of W
        *_, updates, stuck = _invert_strain_grid(m, eps, T, r, slope, k,
                                                 cubic, rel, tol, work, ok)
        speed_now = _slope_speed(m, float(slope.min()))
        if speed_now > a:
            a = 1.05 * speed_now
            half_a.fill(0.5 * a)
        t += dt
        steps += 1
        newton_steps += updates * cells
        if stuck:
            if not np.isfinite(T).all():
                # the rescue leaves NaN where the strain overflowed
                raise OverflowError(f"fv_reference: the strain overflows "
                                    f"between {U_l} and {U_r}")
            rescued += stuck
            # imported here: the rescue is rare, and logging costs import
            # time on every start
            import logging
            logging.getLogger(__name__).debug(
                "fv_reference step %d: the scalar rescue inverted %d of %d "
                "cells", steps, stuck, cells)

    if tallies is not None:
        tallies.update(flux_eps=flux_eps, flux_mom=flux_mom,
                       sum0_eps=sum0_eps, sum0_mom=sum0_mom,
                       sum_eps=float(np.sum(eps)), sum_mom=float(np.sum(mom)),
                       dx=dx, steps=steps, newton_steps=newton_steps,
                       rescued=rescued)

    return Profile(x / t_end, T.copy(), mom / m.rho)  # T is a row of W


def l1_distance(a: Profile, b: Profile) -> float:
    """Trapezoidal L1 distance in (T, v) jointly over the overlapping xi
    range, after resampling both profiles onto the union grid (which makes
    the result symmetric in its arguments)."""
    lo = max(a.xi[0], b.xi[0])
    hi = min(a.xi[-1], b.xi[-1])
    if not lo < hi:
        raise ValueError("profiles do not overlap")
    grid = np.union1d(a.xi, b.xi)
    grid = grid[(grid >= lo) & (grid <= hi)]
    Ta = np.interp(grid, a.xi, a.T)
    Tb = np.interp(grid, b.xi, b.T)
    va = np.interp(grid, a.xi, a.v)
    vb = np.interp(grid, b.xi, b.v)
    integrand = np.abs(Ta - Tb) + np.abs(va - vb)
    return float(np.trapezoid(integrand, grid))
