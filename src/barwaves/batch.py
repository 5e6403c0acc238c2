"""Batched ``riemann.solve``: many problems of one material in one call,
each problem a lane of numpy arrays.

``solve_many`` runs the steps of ``solve`` on every lane at once: the
curve pair with its tangency stresses, the residual at the four dividing
stresses (boundary labels, their tolerance and the bracket seed), the
widening of ``riemann._bracket``, the sample at ``riemann._hermite_start``
that narrows the bracket, masked rtsafe, the final-residual gate,
the monotonicity check and the snap, then the region label from the leg
summaries and the zero-velocity type.  As in ``solve``, the bracket search
and rtsafe see the residual zeroed within its roundoff
(``riemann._stopped_residual``), so a lane stops once its residual is
noise and no straggler keeps the others' rounds going.

What this module keeps is the control flow on lanes: masks where the
scalar path branches, a failed lane that stops alone, and the numpy twins
of two scalar routines, which ``sampler`` shares: the lane fans
``_fan_lanes`` on ``material``'s panels and rule, and the lane root finder
``_newton_bisect_many``.  The formulas are shared.  The tangency condition
and the n = 1 fan are ``material``'s; the shock jump, the fan integrand
and the shock-branch slope are ``wave_curves``'; tolerances, tables, the
zero-velocity type and the error of a failed search are ``riemann``'s.
Each kernel is called with ``xp = numpy``, so a lane agrees with
``solve`` to the last-bit roundings that ``material`` describes.

It returns the middle state and the labels of each lane, not its waves; a
lane that fails carries the error ``solve`` raises for it, and the other
lanes still solve.  Where the scalar path meets a power or expm1 that
overflows, ``math`` raises; a product that overflows, which takes data
beyond about 1e150, gives inf without raising.  Either way ``solve``
reports the overflow ``NoBracket`` at its first non-finite residual, and
so does a lane, where numpy returns inf instead of raising.

A batch of one costs far more than a scalar ``solve`` (numpy's per-call
overhead), so single problems stay on the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .material import (
    BACKWARD,
    Material,
    _CUBIC_TO_ROUNDOFF,
    _GL_RULE,
    _cubic_constants,
    _cubic_fan,
    _cubic_root,
    _excess,
    _knee_stress,
    _tangency_residual,
    _tangency_slope,
    strain,
    strain_prime,
)
from .riemann import (
    BOUNDARY_TOL,
    MONOTONE_SLACK,
    RESIDUAL_GATE,
    SNAP_TOL,
    _REGION_MAPS,
    _hermite_start,
    _middle_stress_error,
    _stopped_residual,
    _zero_velocity_case,
    solve_linear,
)
from .wave_curves import State, _jump_v, _shock_slope, _w

#: material's Gauss-Legendre rule as arrays, for the lane fans
_NODES = np.array([t for t, _ in _GL_RULE])
_WEIGHTS = np.array([w for _, w in _GL_RULE])

# leg summaries (riemann._leg_summary) as codes, and the region of each
# (system, backward, forward, middle stress >= 0)
_SUMMARIES = ("", "R", "S", "SR", "X")
_EMPTY, _R, _S, _SR, _X = range(len(_SUMMARIES))
_REGIONS = np.full((3, 5, 5, 2), "unclassified", dtype=object)
for _i, _system in enumerate("ABC"):
    for (_b, _f), _entry in _REGION_MAPS[_system].items():
        _REGIONS[_i, _SUMMARIES.index(_b), _SUMMARIES.index(_f)] = (
            _entry if isinstance(_entry, tuple) else (_entry, _entry))


@dataclass(frozen=True)
class Solutions:
    """Struct-of-arrays result of ``solve_many``; every field has the
    broadcast shape of its inputs.

    ``T_bar``, ``v_bar``: the middle state, where the backward wave ends
    (the data state for a trivial problem, NaN where the solve failed).
    ``region_label``: as ``WavePattern.region_label``; None where failed.
    ``zero_velocity_case``: as ``WavePattern.zero_velocity_case``.
    ``error``: None, or the exception ``solve`` raises for that element.
    """
    T_bar: np.ndarray
    v_bar: np.ndarray
    region_label: np.ndarray
    zero_velocity_case: np.ndarray
    error: np.ndarray


def solve_many(m: Material, T_l, v_l, T_r, v_r) -> Solutions:
    """Middle states and labels of the problems (T_l, v_l) -> (T_r, v_r),
    with numpy broadcasting over the four inputs."""
    data = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                 for x in (T_l, v_l, T_r, v_r)))
    shape = data[0].shape
    T_l, v_l, T_r, v_r = (np.ravel(x) for x in data)
    for name, x in zip(("T_l", "v_l", "T_r", "v_r"), (T_l, v_l, T_r, v_r)):
        bad = ~np.isfinite(x)
        if bad.any():
            first = int(np.argmax(bad))
            if shape:
                at = ", ".join(map(str, np.unravel_index(first, shape)))
                name = f"{name}[{at}]"
            raise ValueError(f"solve_many requires finite states, got "
                             f"{name}={x[first]}")

    n = T_l.size
    out = Solutions(np.full(n, np.nan), np.full(n, np.nan),
                    *(np.full(n, None, dtype=object) for _ in range(3)))
    trivial = (T_l == T_r) & (v_l == v_r)
    out.T_bar[trivial] = T_l[trivial]
    out.v_bar[trivial] = v_l[trivial]
    out.region_label[trivial] = "trivial"
    lanes = np.flatnonzero(~trivial)
    if m.linear_mode:
        for i in lanes:
            U_l, U_r = _states(T_l, v_l, T_r, v_r, i)
            wave = solve_linear(m, U_l, U_r).waves[0]
            mid = wave.right if wave.family == BACKWARD else wave.left
            out.T_bar[i], out.v_bar[i] = mid.T, mid.v
            out.region_label[i] = "linear"
    elif lanes.size:
        with np.errstate(all="ignore"):
            _solve_lanes(m, T_l[lanes], v_l[lanes], T_r[lanes], v_r[lanes],
                         out, lanes)
    return Solutions(*(getattr(out, f.name).reshape(shape)
                       for f in fields(Solutions)))


def _states(T_l, v_l, T_r, v_r, i) -> tuple[State, State]:
    return (State(float(T_l[i]), float(v_l[i])),
            State(float(T_r[i]), float(v_r[i])))


# ---------------------------------------------------------------------------
# the solve on lanes


def _solve_lanes(m, T_l, v_l, T_r, v_r, out: Solutions, lanes) -> None:
    """Fill `out` at `lanes` (non-trivial problems of a nonlinear
    material): the curve pair, the middle stress, then the labels."""
    back, fwd, overflow = _curve_pair(m, T_l, v_l, T_r, v_r)
    failures = {int(j): "overflow" for j in np.flatnonzero(overflow)}
    solved = np.flatnonzero(~overflow)
    T_bar, v_bar, label, failed = _middle_stress(
        m, T_l[solved], v_l[solved], T_r[solved], v_r[solved],
        back.take(solved), fwd.take(solved))
    failures.update((int(solved[j]), kind) for j, kind in failed.items())
    keep = np.ones(solved.size, bool)
    keep[list(failed)] = False
    solved, T_bar, v_bar, label = (
        a[keep] for a in (solved, T_bar, v_bar, label))
    for j, kind in failures.items():
        out.error[lanes[j]] = _middle_stress_error(
            kind, *_states(T_l, v_l, T_r, v_r, j))

    T_l, v_l, T_r, v_r = T_l[solved], v_l[solved], T_r[solved], v_r[solved]
    back, fwd = back.take(solved), fwd.take(solved)
    b_code = _summary(back, T_bar, T_l, single=_S, double=_SR)
    f_code = _summary(fwd, T_bar, T_r, single=np.where(T_bar * T_r < 0.0,
                                                       _X, _S), double=_X)
    system = np.where(T_l < 0.0, 0, np.where(T_l > 0.0, 1, 2))
    region = _REGIONS[system, b_code, f_code, (~(T_bar < 0.0)).astype(int)]
    on_t0 = np.abs(T_r) <= BOUNDARY_TOL * np.maximum(np.abs(T_l),
                                                      np.abs(T_r))
    region = np.where(on_t0, "on-T0", region)
    label = np.where(label == "", region, label)

    dest = lanes[solved]
    out.T_bar[dest], out.v_bar[dest] = T_bar, v_bar
    out.region_label[dest] = label
    # a composite is the only two-leg backward wave
    zero = np.flatnonzero((v_l == 0.0) & (v_r == 0.0))
    out.zero_velocity_case[dest[zero]] = list(map(
        _zero_velocity_case, T_l[zero].tolist(), T_r[zero].tolist(),
        T_bar[zero].tolist(), (b_code[zero] == _SR).tolist()))


def _summary(c: "_Curves", T_bar, T_anchor, single, double):
    """Leg-summary codes of curve c from its anchor stress to T_bar, as
    WaveCurve.legs builds them: none, one fan, one shock (`single`) or a
    shock joined to a fan (`double`)."""
    y = c.s * T_bar
    return np.where(T_bar == T_anchor, _EMPTY,
                    np.where((y < c.A) | (c.A == 0.0), _R,
                             np.where(y <= c.Tt, single, double)))


def _middle_stress(m, T_l, v_l, T_r, v_r, back, fwd):
    """riemann._find_middle_stress on lanes: (T_bar, v_bar, label, failed),
    with failed a dict from lane to the kind of failure ('overflow',
    'bracket', 'monotone', or the residual that missed the gate)."""
    n = T_l.size
    rec: list[tuple[np.ndarray, ...]] = []   # (T, g, back.v, fwd.v) rounds
    overflow = np.zeros(n, bool)

    def g(idx, T):
        v_back = back.v(m, idx, T)
        v_fwd = fwd.v(m, idx, T)
        val = v_back - v_fwd
        rows = (zip(T, val, v_back, v_fwd) if np.ndim(T) == 2
                else [(T, val, v_back, v_fwd)])
        for row in rows:
            full = [np.full(n, np.nan) for _ in range(4)]
            for a, b in zip(full, row):
                a[idx] = b
            rec.append(tuple(full))
        finite = np.isfinite(val)
        lane_finite = finite if val.ndim == 1 else finite.all(axis=0)
        overflow[idx[~lane_finite]] = True
        # an overflowed lane stops the root finders; it reports the overflow
        return np.where(finite, val, np.nan), v_back, v_fwd

    def stopped(idx, T):
        # what the root finders see: zero within the residual's roundoff
        return _stopped_residual(*g(idx, T))

    def dg(idx, T):
        return back.slope(m, idx, T) + fwd.slope(m, idx, T)

    everyone = np.arange(n)
    # W1, W2 and, for T_l != 0, the forward curves from the zero-stress and
    # the tangency points of the backward curve, in order of precedence
    dividing = np.stack([T_r, T_l, np.zeros(n), back.s * back.Tt])
    res, vb, vf = g(everyone, dividing)
    tol = BOUNDARY_TOL * np.maximum.reduce(
        [np.abs(v_r - v_l), np.abs(vb[0] - v_l), np.abs(vf[1] - v_r)])
    overflow |= tol == np.inf
    # for T_l = 0 the last two rows repeat the second (all at stress 0),
    # so they never come first
    hit = np.abs(res) <= tol
    first = np.argmax(hit, axis=0)
    labelled = hit.any(axis=0) & ~overflow
    names = np.array([["on-W1"] * n, ["on-W2"] * n,
                      np.where(T_l < 0.0, "on-W2F", "on-W2E"),
                      np.where(T_l < 0.0, "on-W2B", "on-W2C")], dtype=object)
    T_bar = np.full(n, np.nan)
    v_bar = np.full(n, np.nan)
    label = np.full(n, "", dtype=object)
    at = np.flatnonzero(labelled)
    T_bar[at] = dividing[first[at], at]
    v_bar[at] = vb[first[at], at]
    label[at] = names[first[at], at]

    # the samples bracket the root, or the search widens from the outermost
    # one by the Newton step there, capped as in _find_middle_stress
    rest = np.flatnonzero(~labelled & ~overflow)
    r, D = res[:, rest], dividing[:, rest]
    has_lo, has_hi = (r < 0.0).any(axis=0), (r > 0.0).any(axis=0)
    i_lo = np.argmax(np.where(r < 0.0, D, -np.inf), axis=0)
    i_hi = np.argmin(np.where(r > 0.0, D, np.inf), axis=0)
    i_lo, i_hi = np.where(has_lo, i_lo, i_hi), np.where(has_hi, i_hi, i_lo)
    cols = np.arange(rest.size)
    lo, f_lo = D[i_lo, cols], r[i_lo, cols]
    hi, f_hi = D[i_hi, cols], r[i_hi, cols]
    step = np.zeros(rest.size)
    one = np.flatnonzero(~(has_lo & has_hi))
    if one.size:
        cap = np.maximum(np.maximum(np.abs(T_l[rest[one]]),
                                    np.abs(T_r[rest[one]])), _knee_stress(m))
        newton = np.abs(f_lo[one]) / dg(rest[one], lo[one])
        step[one] = np.where((0.0 < newton) & (newton < cap), newton, cap)
    lo, hi, f_lo, f_hi, found = _bracket_many(
        lambda pos, T: stopped(rest[pos], T), lo, hi, f_lo, f_hi, step)
    failed: dict[int, object] = {
        int(i): "bracket" for i in rest[~found & ~overflow[rest]]}

    go = np.flatnonzero(found & ~overflow[rest])
    lanes, lo, hi, f_lo, f_hi = rest[go], lo[go], hi[go], f_lo[go], f_hi[go]
    if lanes.size:
        # the Hermite start narrows each bracket as in _find_middle_stress,
        # outside _newton_bisect_many, with the slopes at both ends from
        # one call
        d = dg(lanes, np.stack([lo, hi]))
        x = _hermite_start(lo, hi, f_lo, f_hi, d[0], d[1], np)
        inner = np.flatnonzero((lo < x) & (x < hi))
        if inner.size:
            x = x[inner]
            f_x = stopped(lanes[inner], x)
            below = f_x < 0.0
            lo[inner[below]], f_lo[inner[below]] = x[below], f_x[below]
            hi[inner[~below]], f_hi[inner[~below]] = x[~below], f_x[~below]
        root = _newton_bisect_many(
            lambda pos, T: stopped(lanes[pos], T),
            lambda pos, T: dg(lanes[pos], T), lo, hi, f_lo, f_hi)
        Ts = np.stack([t[0][lanes] for t in rec])
        unseen = ~(Ts == root).any(axis=0)
        if unseen.any():
            # the last Newton step was within two ulps, so never evaluated
            g(lanes[unseen], root[unseen])
        _judge(m, T_l, v_l, T_r, v_r, lanes, root, rec, vb, overflow,
               T_bar, v_bar, failed)
    for i in np.flatnonzero(overflow):
        failed[int(i)] = "overflow"
    return T_bar, v_bar, label, failed


def _judge(m, T_l, v_l, T_r, v_r, lanes, root, rec, vb, overflow,
           T_bar, v_bar, failed) -> None:
    """The end of _find_middle_stress on the rtsafe lanes: the residual
    scale, the monotonicity check, the gate and the snap."""
    Ts, gs, v_back, v_fwd = (np.stack([t[k][lanes] for t in rec])
                             for k in range(4))
    # the latest sample at the root, as the scalar path's dict keeps it
    at_root = Ts == root
    last = len(rec) - 1 - np.argmax(at_root[::-1], axis=0)
    cols = np.arange(lanes.size)
    final, vb_root, vf_root = (a[last, cols] for a in (gs, v_back, v_fwd))
    T_big = np.maximum(np.abs(T_l[lanes]), np.abs(T_r[lanes]))
    stress_term = T_big * _w(m, T_big, np)
    overflow[lanes[~np.isfinite(stress_term)]] = True
    scale = np.maximum.reduce([
        np.abs(v_l[lanes]), np.abs(v_r[lanes]),
        np.abs(vb_root - v_l[lanes]), np.abs(vf_root - v_r[lanes]),
        stress_term])
    order = np.argsort(Ts, axis=0)
    ordered = np.take_along_axis(gs, order, axis=0)
    wiggle = (ordered[1:] < ordered[:-1] - MONOTONE_SLACK * scale).any(axis=0)
    missed = np.abs(final) > RESIDUAL_GATE * scale
    for j in np.flatnonzero(wiggle):
        failed[int(lanes[j])] = "monotone"
    for j in np.flatnonzero(missed & ~wiggle):
        failed[int(lanes[j])] = float(final[j])

    T_bar[lanes], v_bar[lanes] = root, vb_root
    snap = SNAP_TOL * T_big
    # T_r and T_l are the first two dividing samples
    for row, T_d in ((1, T_l[lanes]), (0, T_r[lanes])):
        near = np.abs(root - T_d) <= snap
        hit = lanes[near]
        T_bar[hit] = T_d[near]
        v_bar[hit] = vb[row, hit]
        root = np.where(near, np.nan, root)


# ---------------------------------------------------------------------------
# the curve pair


class _Curves:
    """WaveCurve's constants on lanes: the mirror s, the velocity sign k,
    the anchor A = s*U.T <= 0 and its strain e_A, its tangency stress Tt,
    the degenerate shock's jump vt and the anchor velocity, and for n = 1
    the roots s_A and s_Tt that the fans from A and Tt take
    (material._cubic_root; None for other n)."""

    __slots__ = ("s", "k", "A", "e_A", "Tt", "vt", "v0", "s_A", "s_Tt")

    def __init__(self, s, k, A, e_A, Tt, vt, v0, s_A, s_Tt):
        self.s, self.k, self.A, self.e_A, self.Tt, self.vt, self.v0 = (
            s, k, A, e_A, Tt, vt, v0)
        self.s_A, self.s_Tt = s_A, s_Tt

    def take(self, idx) -> "_Curves":
        return _Curves(*(None if (a := getattr(self, name)) is None
                         else a[idx] for name in self.__slots__))

    def v(self, m: Material, idx, T):
        """WaveCurve.v of lanes idx at stresses T (one row per lane, or
        several rows)."""
        A, Tt = self.A[idx], self.Tt[idx]
        y = self.s[idx] * T
        from_A = y <= A
        s_a = (None if self.s_A is None
               else np.where(from_A, self.s_A[idx], self.s_Tt[idx]))
        fan = _fan_lanes(m, np.where(from_A, A, Tt), y, s_a)
        shock = _jump_v(m, A, self.e_A[idx], y, np)
        d = np.where(y <= A, fan, np.where(y <= Tt, shock,
                                           self.vt[idx] + fan))
        return self.v0[idx] + self.k[idx] * d

    def slope(self, m: Material, idx, T):
        """WaveCurve.slope of lanes idx at stresses T."""
        A = self.A[idx]
        y = self.s[idx] * T
        num, denom = _shock_slope(m, A, self.e_A[idx], y, np)
        shock = (A < y) & (y <= self.Tt[idx]) & (denom > 0.0)
        return np.where(shock, num / denom, _w(m, y, np))


def _curve_pair(m, T_l, v_l, T_r, v_r):
    """The backward curves through U_l and the forward curves ending at U_r,
    with one tangency solve for both, and the lanes whose constants
    overflow."""
    n = T_l.size
    T = np.concatenate([T_l, T_r])
    s = np.where(T > 0.0, -1.0, 1.0)
    A = s * T
    Tt, overflow = _tangency(m, A)
    vt = np.where(A == 0.0, 0.0, (Tt - A) * _w(m, Tt, np))
    overflow |= ~np.isfinite(vt)
    k = np.concatenate([s[:n], -s[n:]])
    e_A = strain(m, A)
    roots = [None, None]
    if m.n == 1.0:
        c = _cubic_constants(m)
        roots = [_cubic_root(c, A, np), _cubic_root(c, Tt, np)]
    back = _Curves(s[:n], k[:n], A[:n], e_A[:n], Tt[:n], vt[:n], v_l,
                   *(r if r is None else r[:n] for r in roots))
    fwd = _Curves(s[n:], k[n:], A[n:], e_A[n:], Tt[n:], vt[n:], v_r,
                  *(r if r is None else r[n:] for r in roots))
    return back, fwd, overflow[:n] | overflow[n:]


def _tangency(m, A):
    """tangent_point(m, A) for anchors A <= 0 (0 where A = 0), and the
    anchors where the constitutive functions overflow."""
    B = -A
    Tt = 0.5 * B
    overflow = np.zeros(A.size, bool)
    if m.n == 1.0:
        return Tt, overflow
    lanes = np.flatnonzero(0.5 * m.gamma * B * B > _CUBIC_TO_ROUNDOFF)
    B = B[lanes]
    r_B, dr_B = _excess(m, -B, np)
    f_hi = 2.0 * (r_B + B * dr_B)
    bad = ~(np.isfinite(r_B) & np.isfinite(dr_B))
    overflow[lanes[bad]] = True
    good = np.flatnonzero(~bad)
    B, r_B = B[good], r_B[good]
    Tt[lanes[good]] = _newton_bisect_many(
        lambda pos, T: _tangency_residual(m, B[pos], r_B[pos], T, np),
        lambda pos, T: _tangency_slope(m, B[pos], T),
        np.zeros(good.size), B, r_B, f_hi[good])
    return Tt, overflow


def _fan_lanes(m: Material, T_a, T_b, s_a=None):
    """rarefaction_integral on lanes, for fans that run outward from T_a on
    one side of zero (T_a*T_b >= 0, |T_a| <= |T_b|), the only ones the
    wave curves build.  For n = 1, s_a is material._cubic_root at T_a,
    which a curve keeps; it is taken here when not given."""
    T_a, T_b = np.broadcast_arrays(T_a, T_b)
    if m.n == 1.0:
        k = _cubic_constants(m)
        if s_a is None:
            s_a = _cubic_root(k, T_a, np)
        d = _cubic_fan(k, T_a, s_a, T_b, np)
    else:
        side = np.copysign(1.0, np.where(T_a != 0.0, T_a, T_b))
        d = side * _even_fan_lanes(m, np.abs(T_a).ravel(),
                                   np.abs(T_b).ravel()).reshape(T_a.shape)
    return np.where(T_a == T_b, 0.0, d)


def _even_fan_lanes(m: Material, u_0, u_1):
    """material._even_fan on lanes: the 16-node rule on the panels of
    material._panels, each lane's panel sum taken as a dot product."""
    c = _knee_stress(m)
    total = np.zeros(u_0.size)
    x = u_0.copy()
    live = np.flatnonzero(x < u_1)
    while live.size:
        start, stop = x[live], u_1[live]
        end = np.minimum(stop, 3.0 * start + c)
        h = 0.5 * (end - start)
        nodes = (start + h)[:, None] + h[:, None] * _NODES
        total[live] += h * (np.sqrt(strain_prime(m, nodes)) @ _WEIGHTS)
        x[live] = end
        live = live[end < stop]
    return total / math.sqrt(m.rho)


# ---------------------------------------------------------------------------
# masked root finding


def _bracket_many(fn, lo, hi, f_lo, f_hi, step):
    """riemann._bracket on lanes: fn(pos, T) evaluates lanes pos.  Returns
    (lo, hi, f_lo, f_hi, found); a lane whose value is NaN stops unfound,
    for its caller to report."""
    lo, hi, f_lo, f_hi, step = (a.copy() for a in (lo, hi, f_lo, f_hi, step))
    found = np.zeros(lo.size, bool)
    live = np.arange(lo.size)
    for _ in range(2100):
        inside = (f_lo[live] <= 0.0) & (0.0 <= f_hi[live])
        found[live[inside]] = True
        live = live[~inside]
        if not live.size:
            break
        a, b, f_a, f_b, s = (x[live] for x in (lo, hi, f_lo, f_hi, step))
        down = f_a > 0.0
        T = np.where(down, a - s, b + s)
        f = fn(live, T)
        lo[live], f_lo[live] = np.where(down, T, b), np.where(down, f, f_b)
        hi[live], f_hi[live] = np.where(down, a, T), np.where(down, f_a, f)
        step[live] = 2.0 * s
        live = live[~np.isnan(f)]
    return lo, hi, f_lo, f_hi, found


def _newton_bisect_many(fn, dfn, lo, hi, f_lo, f_hi):
    """material._newton_bisect on lanes, with its steps and exits per lane
    (the table ROOT_FINDER_EXITS of tests/test_material.py).  fn(pos, x)
    and dfn(pos, x) evaluate the lanes pos.  A lane whose value is NaN
    stops where it is, for its caller to report."""
    first = -f_lo < f_hi
    x = np.where(first, lo, hi)
    f = np.where(first, f_lo, f_hi)
    lo, hi = lo.copy(), hi.copy()
    step_old = step = hi - lo
    root = x.copy()
    live = np.arange(x.size)
    for _ in range(200):
        done = f == 0.0
        root[live[done]] = x[done]
        keep = ~done
        live, x, f, lo, hi, step_old, step = (
            a[keep] for a in (live, x, f, lo, hi, step_old, step))
        if not live.size:
            break
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        d = dfn(live, x)
        newton = np.where((0.0 < d) & (d < np.inf), f / d, np.inf)
        close = np.abs(newton) <= 2.0 * np.spacing(np.abs(x))
        root[live[close]] = (x - newton)[close]
        use = ((lo < x - newton) & (x - newton < hi)
               & (np.abs(newton) <= 0.5 * np.abs(step_old)))
        step_new = np.where(use, newton, 0.5 * (hi - lo))
        x_new = np.where(use, x - newton, lo + step_new)
        collapsed = ~close & ~use & ((x_new == lo) | (x_new == hi))
        root[live[collapsed]] = x_new[collapsed]
        go = ~close & ~collapsed
        f_new = np.full(x.size, np.nan)
        if go.any():
            f_new[go] = fn(live[go], x_new[go])
        stalled = go & (np.isnan(f_new) | (
            use & ((f_new > 0.0) == (f > 0.0)) & (np.abs(f_new) >= np.abs(f))))
        root[live[stalled]] = x[stalled]
        keep = go & ~stalled
        root[live[keep]] = x_new[keep]
        live, x, f, lo, hi, step_old, step = (
            a[keep] for a in (live, x_new, f_new, lo, hi, step, step_new))
    return root
