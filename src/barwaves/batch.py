"""Batched ``riemann.solve``: many problems of one material in one call,
each problem a lane of numpy arrays.

``solve_many`` runs the steps of ``solve`` on every lane at once: the
curve pair with its tangency stresses, the residual at the four dividing
stresses, then the middle-stress search through the bodies that
``solve`` runs on floats: ``riemann._seed`` (boundary labels, their
tolerance and the bracket seed), ``riemann._seed_step``,
``riemann._widen`` and ``riemann._ordered`` (the bracket search),
``riemann._hermite_start`` and ``riemann._narrow`` (the sample that
narrows the bracket) and ``riemann._verdict`` (scale, monotonicity, gate
and snap), with rtsafe in ``_newton_bisect_many``, then the labels.  As
in ``solve``, the bracket search and rtsafe see the residual zeroed
within its roundoff (``riemann._stopped_residual``), so a lane stops
once its residual is noise and no straggler keeps the others' rounds
going.  Both curves of every lane are rows of one ``_Curves``: a
residual or slope round is one curve call.

This module keeps the control flow on lanes (where the scalar path
branches, the bracket search compacts its live lanes and rtsafe retires
each lane by mask, and a failed lane stops alone) and the lane fans
``_fan_lanes``, which read the knots and prefix sums of the call's
``material._FanTable`` and sum only a head and a tail panel per lane;
``sampler`` shares them and the rtsafe loop ``_newton_bisect_many``,
whose steps and exits are those of ``material._newton_bisect`` (see there
for why the two loops stay two).  The formulas are shared:
``material``'s tangency condition and bracket (with the n = 2 start)
and n = 1 fan; ``wave_curves``' shock jump, fan integrand and
shock-branch slope; ``riemann``'s tolerances, search, classification
(its labels and tables) and error of a failed search, so a lane's labels
are those of ``solve`` by construction.  Each
body is called with ``xp = numpy``, so a lane agrees with ``solve`` to
the last-bit roundings that ``material`` describes and does not depend
on the other lanes of its call.

It returns the middle state and the labels of each lane, not its waves; a
failed lane carries the error ``solve`` raises for it.  Where the scalar
path meets a power or expm1 that overflows (real n), ``math`` raises; a
product that overflows, which takes data beyond about 1e150 (and every
overflow of the integer-n law), gives inf without raising.  Either way
``solve`` reports the overflow ``NoBracket`` at its first non-finite
residual, and so does a lane, where numpy returns inf.

A batch of one costs far more than a scalar ``solve`` (numpy's per-call
overhead), so single problems stay on the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import riemann
from .material import (
    Material,
    _CUBIC_TO_ROUNDOFF,
    _GL_RULE,
    _RTSAFE_STEPS,
    _cubic_fan,
    _cubic_root,
    _excess,
    _fan_table,
    _narrow,
    _tangency_bracket,
    _tangency_residual,
    _tangency_slope,
    strain,
    strain_prime,
)
from .riemann import (
    _DOUBLINGS,
    _NO_BRACKET,
    _OVERFLOW,
    _S,
    _SR,
    _X,
    _boundary_index,
    _hermite_start,
    _linear_middle,
    _middle_stress_error,
    _ordered,
    _region_index,
    _seed,
    _seed_step,
    _stopped_residual,
    _summary,
    _verdict,
    _widen,
    _zero_velocity_index,
)
from .wave_curves import State, _jump_v, _shock_slope, _w

#: material's Gauss-Legendre rule as columns, for the lane fans
_NODES, _WEIGHTS = np.array(_GL_RULE).T[:, :, None]

# riemann's tables for lanes; a solved lane's label travels as its code
_LABELS = np.array(riemann._LABELS, dtype=object)
_REGIONS = np.array(riemann._REGIONS)
_CASES = np.array(riemann._ZERO_VELOCITY_CASES, dtype=object)


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
    with np.errstate(all="ignore"):
        if m.linear_mode:
            out.T_bar[lanes], out.v_bar[lanes] = _linear_middle(
                m, T_l[lanes], v_l[lanes], T_r[lanes], v_r[lanes])
            out.region_label[lanes] = "linear"
        elif lanes.size:
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
    curves, overflow = _curve_pair(m, T_l, v_l, T_r, v_r)
    solved = np.flatnonzero(~overflow)
    curves = curves.take(np.concatenate([solved, solved + T_l.size]))
    failure, residual = overflow * _OVERFLOW, np.full(T_l.size, np.nan)
    T_bar, v_bar, label, failure[solved], residual[solved] = _middle_stress(
        m, T_l[solved], v_l[solved], T_r[solved], v_r[solved], curves)
    for j in np.flatnonzero(failure):
        out.error[lanes[j]] = _middle_stress_error(
            failure[j], *_states(T_l, v_l, T_r, v_r, j), float(residual[j]))
    # the solved lanes' rows in curves: backward, then forward
    back = np.flatnonzero(failure[solved] == 0)
    fwd = back + solved.size
    solved, T_bar, v_bar, label = (
        a[back] for a in (solved, T_bar, v_bar, label))

    T_l, v_l, T_r, v_r = T_l[solved], v_l[solved], T_r[solved], v_r[solved]
    b_code = _summary(curves.A[back], curves.s[back], curves.Tt[back], T_bar,
                      T_l, _S, _SR)
    f_code = _summary(curves.A[fwd], curves.s[fwd], curves.Tt[fwd], T_bar,
                      T_r, _X, _X)
    label = np.where(label < 0, _REGIONS[_region_index(
        T_l, T_r, T_bar, b_code, f_code)], label)

    dest = lanes[solved]
    out.T_bar[dest], out.v_bar[dest] = T_bar, v_bar
    out.region_label[dest] = _LABELS[label]
    zero = np.flatnonzero((v_l == 0.0) & (v_r == 0.0))
    out.zero_velocity_case[dest[zero]] = _CASES[_zero_velocity_index(
        T_l[zero], T_r[zero], T_bar[zero], b_code[zero] == _SR)]


def _middle_stress(m, T_l, v_l, T_r, v_r, c):
    """riemann._find_middle_stress on lanes, through the same bodies
    (riemann's _seed, _seed_step, _widen, _ordered, _hermite_start,
    _narrow and _verdict) and _newton_bisect_many: (T_bar, v_bar, label,
    failure, residual), with label the code in _LABELS of a boundary label
    or -1, and failure (0 where solved) and the final residual what
    riemann._middle_stress_error takes.  Lane i has its backward and
    forward curves in rows i and i + n of c."""
    n = T_l.size
    rec: list[np.ndarray] = []   # (T, g) of every sample
    overflow = np.zeros(n, bool)

    def pair(fn, idx, T):
        x = fn(m, np.concatenate([idx, idx + n]), np.concatenate([T, T], -1))
        return x[..., :idx.size], x[..., idx.size:]

    def g(idx, T):
        v_back, v_fwd = pair(c.v, idx, T)
        val = v_back - v_fwd
        full = np.full(np.shape(T)[:-1] + (2, n), np.nan)
        full[..., idx] = np.stack([T, val], axis=-2)
        rec.extend(full if full.ndim == 3 else [full])
        finite = np.isfinite(val)
        overflow[idx] |= ~(finite if val.ndim == 1 else finite.all(axis=0))
        # an overflowed lane stops the root finders; it reports the overflow
        return np.where(finite, val, np.nan), v_back, v_fwd

    def stopped(idx, T):
        # what the root finders see: zero within the residual's roundoff
        return _stopped_residual(*g(idx, T))

    def dg(idx, T):
        return np.add(*pair(c.slope, idx, T))

    # W1, W2, W2F/W2E and W2B/W2C in order of precedence; for T_l = 0 the
    # last two rows repeat the second (all at stress 0), so never come first
    dividing = np.stack([T_r, T_l, np.zeros(n), c.s[:n] * c.Tt[:n]])
    res, vb, vf = g(np.arange(n), dividing)
    failure, row, lo, hi, f_lo, f_hi = _seed(v_l, v_r, dividing, res, vb, vf,
                                             np)
    overflow |= failure > 0
    residual = np.full(n, np.nan)
    T_bar, v_bar = dividing[row, np.arange(n)], vb[row, np.arange(n)]
    label = _boundary_index(row, T_l)

    # the samples bracket the root, or the search widens from the one seed
    rest = np.flatnonzero((row < 0) & ~overflow)
    lo, hi, f_lo, f_hi = (a[rest] for a in (lo, hi, f_lo, f_hi))
    found = (lo != hi) * 1
    live = np.flatnonzero(lo == hi)
    step = np.zeros(rest.size)
    if live.size:
        step[live] = _seed_step(m, T_l[rest[live]], T_r[rest[live]],
                                f_lo[live], dg(rest[live], lo[live]), np)
    for _ in range(_DOUBLINGS):
        found[live], T, step[live] = _widen(lo[live], f_lo[live], hi[live],
                                            f_hi[live], step[live])
        go = found[live] == 0
        live, T = live[go], T[go]
        if not live.size:
            break
        lo[live], f_lo[live], hi[live] = hi[live], f_hi[live], T
        f_hi[live] = stopped(rest[live], T)
    # a seeded bracket is ordered already, and _ordered returns it as it is
    lo, hi, f_lo, f_hi = _ordered(lo, f_lo, hi, f_hi, np)
    failure[rest[found != 1]] = _NO_BRACKET

    go = np.flatnonzero((found == 1) & ~overflow[rest])
    lanes, lo, hi, f_lo, f_hi = rest[go], lo[go], hi[go], f_lo[go], f_hi[go]
    if lanes.size:
        # the Hermite start narrows each bracket as in _find_middle_stress,
        # with the slopes at both ends from one call
        d = dg(lanes, np.stack([lo, hi]))
        x = _hermite_start(lo, hi, f_lo, f_hi, d[0], d[1], np)
        inner = np.flatnonzero((lo < x) & (x < hi))
        if inner.size:
            x = x[inner]
            lo[inner], f_lo[inner], hi[inner], f_hi[inner] = _narrow(
                lo[inner], f_lo[inner], hi[inner], f_hi[inner], x,
                stopped(lanes[inner], x), np)
        root = _newton_bisect_many(
            lambda pos, T: stopped(lanes[pos], T),
            lambda pos, T: dg(lanes[pos], T), lo, hi, f_lo, f_hi)
        # g depends on the stress alone, so a root that rtsafe sampled reads
        # the bits of that sample, as the scalar path's dict keeps them; its
        # second record is an equal neighbour in the monotonicity scan
        final, vb_root, vf_root = g(lanes, root)
        Ts, gs = np.stack(rec)[:, :, lanes].transpose(1, 0, 2)
        # T_r and T_l are the first two dividing samples
        failure[lanes], _, T_bar[lanes], v_bar[lanes] = _verdict(
            m, T_l[lanes], v_l[lanes], T_r[lanes], v_r[lanes], root, final,
            vb_root, vf_root, vb[1, lanes], vb[0, lanes],
            np.take_along_axis(gs, np.argsort(Ts, axis=0), axis=0), np)
        residual[lanes] = final
    failure[overflow] = _OVERFLOW
    return T_bar, v_bar, label, failure, residual


# ---------------------------------------------------------------------------
# the curve pair


class _Curves:
    """WaveCurve's constants on lanes of either family: the call's fan
    table (material._fan_table), then per lane the mirror s, the velocity
    sign k, the anchor A = s*U.T <= 0 and its strain e_A, its tangency
    stress Tt, the degenerate shock's jump vt and the anchor velocity.  As
    on WaveCurve, a fan is computed from the table when it is read."""

    __slots__ = ("table", "s", "k", "A", "e_A", "Tt", "vt", "v0")

    def __init__(self, *values):
        for name, a in zip(self.__slots__, values):
            setattr(self, name, a)

    def take(self, idx) -> "_Curves":
        return _Curves(self.table,
                       *(getattr(self, n)[idx] for n in self.__slots__[1:]))

    def v(self, m: Material, idx, T):
        """WaveCurve.v of lanes idx at stresses T (one row per lane, or
        several rows)."""
        A, Tt = self.A[idx], self.Tt[idx]
        y = self.s[idx] * T
        fan = _fan_lanes(m, self.table, np.where(y <= A, A, Tt), y)
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
    """The backward curves through U_l (rows [0, n)) and the forward curves
    ending at U_r (rows [n, 2n)) as one _Curves, with one tangency solve
    for both, and the lanes whose constants overflow."""
    n = T_l.size
    T = np.concatenate([T_l, T_r])
    s = np.where(T > 0.0, -1.0, 1.0)
    A = s * T
    Tt, overflow = _tangency(m, A)
    vt = np.where(A == 0.0, 0.0, (Tt - A) * _w(m, Tt, np))
    overflow |= ~np.isfinite(vt)
    k = np.concatenate([s[:n], -s[n:]])
    v0 = np.concatenate([v_l, v_r])
    return (_Curves(_fan_table(m), s, k, A, strain(m, A), Tt, vt, v0),
            overflow[:n] | overflow[n:])


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
    bad = ~np.isfinite(f_hi)
    overflow[lanes[bad]] = True
    good = np.flatnonzero(~bad)
    B, r_B = B[good], r_B[good]
    lo, f_lo, hi, f_hi = _tangency_bracket(m, B, r_B, f_hi[good], np)
    Tt[lanes[good]] = _newton_bisect_many(
        lambda pos, T: _tangency_residual(m, B[pos], r_B[pos], T, np),
        lambda pos, T: _tangency_slope(m, B[pos], T), lo, hi, f_lo, f_hi)
    return Tt, overflow


def _fan_lanes(m: Material, table, T_a, T_b):
    """rarefaction_integral on lanes, for fans that run outward from T_a on
    one side of zero (T_a*T_b >= 0, |T_a| <= |T_b|), the only ones the
    wave curves build, on the call's table (material._fan_table).  For
    n = 1 the table is the fan's constants and each lane is material._fan's
    closed form.  Otherwise each lane is the fan of material._FanTable on
    it: one block of 16 rows holds the head (or single) panel of every
    lane and the tail panel of every lane that crosses a knot, and numpy
    adds the rows of a block of two columns or more in _fan_panel's order,
    so a lane takes the scalar fan's operations."""
    T_a, T_b = np.broadcast_arrays(T_a, T_b)
    if m.n == 1.0:
        d = _cubic_fan(table, T_a, _cubic_root(table, T_a, np), T_b, np)
    else:
        u_0, u = np.abs(T_a).ravel(), np.abs(T_b).ravel()
        # only the lanes whose fan runs outward are summed: the curves
        # discard the others, which are 0 here
        live = np.flatnonzero(u_0 < u)
        u_0, u = u_0[live], u[live]
        # grow the table past every finite end (the anchors are finite);
        # an infinite end reads the last knot and is NaN, as there
        table.prefix(table.reach(float(np.max(
            np.where(u < np.inf, u, u_0), initial=0.0))))
        knots, P = np.array(table.knots), np.array(table.sums)
        i = np.searchsorted(knots, u_0)
        j = np.searchsorted(knots[:P.size], u, "right") - 1
        # the tails of the lanes across a knot; a lone lane takes its tail
        # even without one, of zero width, as numpy sums a lone column
        # pairwise
        cross = np.flatnonzero((i <= j) | (u.size == 1))
        start = np.concatenate([u_0, np.where(i <= j, knots[j], u)[cross]])
        end = np.concatenate([np.minimum(knots[i], u), u[cross]])
        h = 0.5 * (end - start)
        nodes = (start + h) + h * _NODES
        panel = h * np.add.reduce(_WEIGHTS * np.sqrt(strain_prime(m, nodes)))
        total = np.zeros(T_a.size)
        total[live] = panel[:u.size] + (P[j] - P[np.minimum(i, j)])
        total[live[cross]] += panel[u.size:]
        # a live fan ends on its side of zero
        d = np.copysign(total.reshape(T_a.shape) / table.root_rho, T_b)
    return np.where(T_a == T_b, 0.0, d)


# ---------------------------------------------------------------------------
# masked root finding


def _on_lanes(fn, lanes, x):
    """fn(pos, x[pos]) at the positions pos where lanes is True, and NaN at
    the others."""
    out = np.full(x.size, np.nan)
    pos = np.flatnonzero(lanes)
    if pos.size:
        out[pos] = fn(pos, x[pos])
    return out


def _newton_bisect_many(fn, dfn, lo, hi, f_lo, f_hi):
    """material._newton_bisect on lanes, with its steps and exits per lane
    (the table ROOT_FINDER_EXITS of tests/test_material.py runs every exit
    through both).  fn(pos, x) and dfn(pos, x) evaluate the lanes pos.  A
    lane whose value is NaN stops where it is, for its caller to report.

    Every lane keeps its place: each step takes the float loop's exits,
    in its order, as masks, evaluates fn and dfn on the live lanes only
    (_on_lanes) and freezes x where a lane retires, at the point the float
    loop returns, so x holds every lane's root when the last lane retires
    or the steps run out."""
    x, f = np.where(-f_lo < f_hi, [lo, f_lo], [hi, f_hi])
    live, step_old, step = True, hi - lo, hi - lo
    for _ in range(_RTSAFE_STEPS):
        live &= f != 0.0
        if not live.any():
            break
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        d = _on_lanes(dfn, live, x)
        newton = np.where((0.0 < d) & (d < np.inf), f / d, np.inf)
        close = live & (np.abs(newton) <= 2.0 * np.spacing(np.abs(x)))
        use = ((lo < x - newton) & (x - newton < hi)
               & (np.abs(newton) <= 0.5 * np.abs(step_old)))
        step_old, step = step, np.where(use, newton, 0.5 * (hi - lo))
        x_new = np.where(use, x - newton, lo + step)
        collapsed = live & ~close & ~use & ((x_new == lo) | (x_new == hi))
        go = live & ~close & ~collapsed
        f_new = _on_lanes(fn, go, x_new)
        # a NaN value, or a Newton step that does not shrink |f|, stops a
        # lane at x
        live = go & ~np.isnan(f_new) & ~(
            use & ((f_new > 0.0) == (f > 0.0)) & (np.abs(f_new) >= np.abs(f)))
        x, f = np.where(close, x - newton,
                        np.where(live | collapsed, x_new, x)), f_new
    return x
