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
import random
from dataclasses import replace

import numpy as np

from .material import (
    Material,
    _slope_speed,
    driving_force,
    invert_strain,
    residual_slope_rows,
    strain,
    strain_residual_slope,
    wave_speed,
)
from .riemann import Wave, WavePattern, solve
from .sampler import Profile, _sample_lanes, profile
from .wave_curves import BACKWARD, FORWARD, SHOCK, State, backward_v


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


def check_dissipation(pattern: WavePattern) -> float:
    """Minimum dissipation slack s*(T_r - T_l)*(T_r + T_l) over shocks
    (+inf for shock-free patterns, which are vacuously admissible).  Also
    recomputes the dissipation rate as driving_force * speed and raises if
    the two expressions disagree in sign beyond 1e-12.

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
        if abs(slack) > 1e-12 and abs(rate) > 1e-12 and slack * rate < 0.0:
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


def check_liu(m: Material, shock: Wave, samples: int = 64) -> float:
    """Minimum margin s(U_l, U) - s(U_l, U_r) over `samples` stresses U
    strictly between the shock's end states, with signed speeds.  The
    admissible shock is the slowest signed speed over all partial chords
    from its left state, so the margin should be >= 0 up to roundoff."""
    sign = -1.0 if shock.family == BACKWARD else 1.0
    T_a, T_b = shock.left.T, shock.right.T
    eps_a = strain(m, T_a)
    s_full = shock.speed_head
    margin = math.inf
    for i in range(1, samples + 1):
        T = T_a + (T_b - T_a) * i / (samples + 1)
        slope = (strain(m, T) - eps_a) / (T - T_a)
        s_part = sign / math.sqrt(m.rho * slope)
        margin = min(margin, s_part - s_full)
    return margin


# ---------------------------------------------------------------------------
# finite-volume reference


def _invert_strain_grid(m: Material, eps: np.ndarray, T: np.ndarray,
                        r: np.ndarray, slope: np.ndarray, k: tuple,
                        rel: np.ndarray, tol: np.ndarray, work: np.ndarray,
                        ok: np.ndarray):
    """Vectorized Newton for strain(T) = eps, in place: T is the warm
    start, r = strain(T) - eps its residual and slope = strain_prime(T),
    and all three are overwritten with their values at the stress found.
    Each update T -= r/slope is followed by one strain_residual_slope pass,
    with its rows k (whose second is all ones).  Stops when
    |r| <= 1e-13*max(1, |eps|) in every cell, where rel holds the 1e-13;
    cells still outside after 60 updates are inverted one by one by the
    scalar invert_strain (the rescue).  tol, work (float) and ok (bool) are
    buffers of eps's size.  Returns T, r, slope, the number of Newton
    updates and the number of cells rescued."""
    np.abs(eps, tol)
    # maximum, unlike the other ufuncs, deprecates a positional out
    np.maximum(tol, k[1], out=tol)
    np.multiply(tol, rel, tol)
    updates = 0
    # all() by count_nonzero, which skips the reduction machinery
    while np.count_nonzero(np.less_equal(np.abs(r, work), tol, ok)) < T.size:
        if updates == 60:
            stuck = np.flatnonzero(work > tol)
            for i in stuck:
                T[i] = invert_strain(m, float(eps[i]))
            strain_residual_slope(m, T, eps, r, slope, work, k)
            return T, r, slope, updates, stuck.size
        np.divide(r, slope, work)
        np.subtract(T, work, T)
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

    Each step recovers the stress by Newton's method warm-started at the
    previous stress (_invert_strain_grid).  The residual strain(T) - eps
    and the slope strain_prime(T) of the last update are kept across
    steps: the step moves eps by -d, so the next residual starts at r + d,
    and the slope gives both the next first Newton step and the step's
    largest characteristic speed.  So, outside the rescue, each Newton
    update makes one strain_residual_slope pass and nothing else evaluates
    the constitutive law.  The step runs in arrays allocated once per call,
    with the operations of the textbook formulas in their order, so its
    results do not depend on the buffering.

    numpy's per-call dispatch, not the arithmetic, sets the step's time, so
    every elementwise call takes array operands and a positional out (about
    twice as fast as a Python-float operand): the step's constants are
    arrays of their partners' shapes, made once per call, and the boundary
    fluxes are summed in Python floats read off the edge columns (the same
    IEEE operations).  The exceptions are np.maximum, which deprecates a
    positional out, and the exponents of strain_residual_slope.

    When a dict is passed as `tallies`, the accumulated boundary fluxes and
    the initial/final conserved sums are stored in it (keys flux_eps,
    flux_mom, sum0_eps, sum0_mom, sum_eps, sum_mom, dx), letting callers
    check discrete conservation exactly.  Three work counts join them:
    `steps`, the number of time steps; `newton_steps`, the Newton updates
    summed over every cell's inversion in every step (the scalar rescue of
    a cell is not counted); and `rescued`, the number of cell inversions
    the scalar invert_strain made.  Each step that rescues cells logs one
    DEBUG line on the `barwaves.verify` logger.
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
    U = W[:2]
    eps, mom, T = W[0, 1:-1], W[1, 1:-1], W[2, 1:-1]
    T[:] = np.where(x < 0.0, U_l.T, U_r.T)
    mom[:] = np.where(x < 0.0, m.rho * U_l.v, m.rho * U_r.v)
    # the residual strain(T) - eps and strain_prime(T), kept across steps,
    # and the inversion's buffers; the first pass writes strain(T) - 0 =
    # strain(T) into eps
    k = residual_slope_rows(m, cells)
    r = np.zeros(cells)
    slope, tol, work = np.empty((3, cells))
    ok = np.empty(cells, dtype=bool)
    strain_residual_slope(m, T, r, eps, slope, work, k)
    sum0_eps = float(np.sum(eps))
    sum0_mom = float(np.sum(mom))
    F = np.empty((2, cells + 2))
    fhat = np.empty((2, cells + 1))
    jump = np.empty((2, cells + 1))
    d = np.empty((2, cells))
    # the constant operands, of their partners' shapes: the stopping
    # rule's 1e-13; the scales -rho and -1 of the physical fluxes
    # f(strain) = -v and f(momentum) = -T; the 0.5 of the flux average;
    # and 0.5*a and dt/dx, refilled when a or dt changes
    rel = np.full(cells, 1e-13)
    flux_scale = np.repeat([[-m.rho], [-1.0]], cells + 2, axis=1)
    half = np.full((2, cells + 1), 0.5)
    half_a = np.full((2, cells + 1), 0.5 * a)
    dt_dx = np.empty((2, cells))
    dt_set = None
    # views of the step's operands, taken once: the ghost columns 0 and
    # cells + 1 with the edge columns 1 and cells they copy, the left and
    # right neighbours of each interface, and the boundary fluxes
    ghosts, edges = W[:, ::cells + 1], W[:, 1:cells + 1:cells - 1]
    F_lo, F_hi = F[:, :-1], F[:, 1:]
    U_lo, U_hi = U[:, :-1], U[:, 1:]
    fhat_lo, fhat_hi = fhat[:, :-1], fhat[:, 1:]
    U_in, W_flux, r_shift = U[:, 1:-1], W[1:], d[0]
    fhat_ends = fhat[:, ::cells]
    flux_eps = flux_mom = 0.0
    steps = newton_steps = rescued = 0

    t = 0.0
    while t < t_end:
        dt = min(cfl * dx / a, t_end - t)
        if dt != dt_set:
            dt_set = dt
            dt_dx.fill(dt / dx)
        np.copyto(ghosts, edges)  # outflow
        np.divide(W_flux, flux_scale, F)
        # interface fluxes with global dissipation speed a:
        # fhat = 0.5*(F_lo + F_hi) - 0.5*a*(U_hi - U_lo)
        np.add(F_lo, F_hi, fhat)
        np.multiply(fhat, half, fhat)
        np.subtract(U_hi, U_lo, jump)
        np.multiply(jump, half_a, jump)
        np.subtract(fhat, jump, fhat)
        # d = (dt/dx)*(fhat_hi - fhat_lo)
        np.subtract(fhat_hi, fhat_lo, d)
        np.multiply(d, dt_dx, d)
        np.subtract(U_in, d, U_in)
        (lo_eps, hi_eps), (lo_mom, hi_mom) = fhat_ends.tolist()
        flux_eps += dt * (hi_eps - lo_eps)
        flux_mom += dt * (hi_mom - lo_mom)
        # eps moved by -d[0], so the kept residual moves by +d[0]
        np.add(r, r_shift, r)
        # T, r and slope are updated in place; T stays the stress row of W
        *_, updates, stuck = _invert_strain_grid(m, eps, T, r, slope, k,
                                                 rel, tol, work, ok)
        speed_now = _slope_speed(m, float(slope.min()))
        if speed_now > a:
            a = 1.05 * speed_now
            half_a.fill(0.5 * a)
        t += dt
        steps += 1
        newton_steps += updates * cells
        if stuck:
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

    prof = Profile(x / t_end, T.copy(), mom / m.rho)  # T is a row of W
    for field in (prof.xi, prof.T, prof.v):
        field.flags.writeable = False
    return prof


# ---------------------------------------------------------------------------
# randomized invariant suite (shared by the CLI and the acceptance tests)

#: Zero-velocity data on the cubic preset exercising a fan+shock, a
#: two-shock and a composite-backward solution; used by the refinement study.
CANONICAL_CASES = (
    ("fan+shock", -0.5, -1.0),
    ("two-shock", -0.5, 0.65),
    ("composite-backward", -0.5, 1.0),
)

#: Small linear-mode jump for the closed-form convergence check.
CANONICAL_LINEAR = (0.06, -0.06)


_DEGENERATE_MIRROR = {"": "", "both": "both", "left": "right",
                      "right": "left"}


def mirror_deviation(p: WavePattern, q: WavePattern) -> float:
    """Largest mismatch between pattern p and the space-reflected pattern q,
    where q solves the data (-T_r, v_r), (-T_l, v_l).

    The system is invariant under x -> -x combined with the constitutive
    oddness (T, v) -> (-T, -v); the composition negates stresses, keeps
    velocities, swaps families, negates speeds and reverses the wave order.
    (Negating the velocities as well is *not* a symmetry: it already
    contradicts the closed-form linear solution.)
    """
    if len(p.waves) != len(q.waves):
        return math.inf
    dev = 0.0
    for w, wm in zip(p.waves, reversed(q.waves)):
        if (w.kind != wm.kind or w.family == wm.family
                or wm.degenerate != _DEGENERATE_MIRROR[w.degenerate]):
            return math.inf
        dev = max(dev,
                  abs(w.left.T + wm.right.T), abs(w.left.v - wm.right.v),
                  abs(w.right.T + wm.left.T), abs(w.right.v - wm.left.v),
                  abs(w.speed_head + wm.speed_tail),
                  abs(w.speed_tail + wm.speed_head))
    return dev


def negation_deviation(p: WavePattern, q: WavePattern) -> float:
    """Largest mismatch between p and q where q solves the pointwise-negated
    data (-T_l, -v_l), (-T_r, -v_r); oddness of the strain makes this a
    symmetry that negates states and keeps families, speeds and order."""
    if len(p.waves) != len(q.waves):
        return math.inf
    dev = 0.0
    for w, wn in zip(p.waves, q.waves):
        if (w.kind != wn.kind or w.family != wn.family
                or w.degenerate != wn.degenerate):
            return math.inf
        dev = max(dev,
                  abs(w.left.T + wn.left.T), abs(w.left.v + wn.left.v),
                  abs(w.right.T + wn.right.T), abs(w.right.v + wn.right.v),
                  abs(w.speed_head - wn.speed_head),
                  abs(w.speed_tail - wn.speed_tail))
    return dev


def speeds_ordered(pattern: WavePattern, tol: float = 1e-12) -> bool:
    """Waves sorted by speed with non-overlapping ranges."""
    prev_tail = -math.inf
    for w in pattern.waves:
        if w.speed_head > w.speed_tail + tol:
            return False
        if prev_tail > w.speed_head + tol:
            return False
        prev_tail = w.speed_tail
    return True


def _corrupt_speeds(pattern: WavePattern) -> WavePattern:
    waves = tuple(
        replace(w, speed_head=w.speed_head + 1e-3,
                speed_tail=w.speed_tail + 1e-3)
        if w.kind == SHOCK else w
        for w in pattern.waves)
    return replace(pattern, waves=waves)


def run_invariant_suite(materials, seed: int, trials: int,
                        inject: bool = False) -> list[tuple[str, bool, str]]:
    """Randomized admissibility/symmetry suite over `trials` problems with
    stresses in [-3, 3] and velocities in [-5, 5], drawn round-robin from
    `materials`.  Returns (check name, passed, detail) rows.  With
    `inject`, shock speeds are perturbed by 1e-3 before the jump-condition
    check, which must then fail (sensitivity control)."""
    rng = random.Random(seed)
    worst_rh = 0.0
    worst_slack = math.inf
    worst_liu = math.inf
    worst_mirror = 0.0
    worst_negation = 0.0
    ordered = True
    lax_ok = True
    for i in range(trials):
        m = materials[i % len(materials)]
        U_l = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        U_r = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        pattern = solve(m, U_l, U_r)
        checked = _corrupt_speeds(pattern) if inject else pattern
        worst_rh = max(worst_rh, check_rh(checked))
        worst_slack = min(worst_slack, check_dissipation(pattern))
        ordered = ordered and speeds_ordered(pattern)
        for w in pattern.shocks():
            if not w.degenerate:
                worst_liu = min(worst_liu, check_liu(m, w))
                lax_ok = lax_ok and check_lax(m, w)
        mirrored = solve(m, State(-U_r.T, U_r.v), State(-U_l.T, U_l.v))
        worst_mirror = max(worst_mirror, mirror_deviation(pattern, mirrored))
        negated = solve(m, State(-U_l.T, -U_l.v), State(-U_r.T, -U_r.v))
        worst_negation = max(worst_negation,
                             negation_deviation(pattern, negated))

    rows = [
        ("rh-residual", worst_rh < 1e-9, f"max={worst_rh:.3e}"),
        ("dissipation-slack", worst_slack >= -1e-12, f"min={worst_slack:.3e}"),
        ("liu-margin", worst_liu >= -1e-10, f"min={worst_liu:.3e}"),
        ("lax-inequalities", lax_ok, "classical shocks"),
        ("speed-ordering", ordered, "non-overlapping wave fans"),
        ("mirror-symmetry", worst_mirror < 1e-10, f"max={worst_mirror:.3e}"),
        ("negation-symmetry", worst_negation < 1e-10,
         f"max={worst_negation:.3e}"),
    ]
    if trials == 0:
        rows = [(name, True, "vacuous (0 trials)") for name, _, _ in rows]
    return rows


def continuity_probe(m: Material, step: float = 1e-6) -> float:
    """Largest profile change when the right state crosses the backward
    wave curve by +-step in velocity; O(step) for a continuous solver."""
    U_l = State(-1.0, 0.0)
    T_r = 0.3
    v_on = backward_v(m, U_l, T_r)
    lo = solve(m, U_l, State(T_r, v_on - step))
    hi = solve(m, U_l, State(T_r, v_on + step))
    edges = np.array([s for w in lo.waves + hi.waves
                      for s in (w.speed_head, w.speed_tail)])
    xi = -3.0 + 6.0 * np.arange(201) / 200
    xi = xi[(np.abs(xi[:, None] - edges) >= 1e-3).all(axis=1)]
    diff = np.subtract(_sample_lanes(lo, xi), _sample_lanes(hi, xi))
    return float(np.max(np.abs(diff), initial=0.0))


def refinement_study(m: Material, T_l: float, T_r: float,
                     cells_list, cfl: float, t_end: float) -> list[float]:
    """L1 distances between the reference scheme and the exact solution at
    each resolution."""
    U_l, U_r = State(T_l, 0.0), State(T_r, 0.0)
    pattern = solve(m, U_l, U_r)
    dists = []
    for cells in cells_list:
        fv = fv_reference(m, U_l, U_r, cells, cfl, t_end)
        exact = profile(pattern, fv.xi[0], fv.xi[-1], 4001)
        dists.append(l1_distance(exact, fv))
    return dists


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
