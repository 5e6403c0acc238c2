import ast
import hashlib
import logging
import math
import os
import random
import warnings

import numpy as np
import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    PRESETS,
    Material,
    SHOCK,
    State,
    Wave,
    check_dissipation,
    check_lax,
    check_liu,
    check_rh,
    fv_reference,
    invert_strain,
    l1_distance,
    shock_speed,
    solve,
    strain,
    strain_prime,
    tangent_point,
    wave_speed,
)
from barwaves import verify
from barwaves.cli import (
    CANONICAL_LINEAR,
    refinement_study,
    run_invariant_suite,
)
from barwaves.riemann import WavePattern
from barwaves.sampler import Profile, profile
from barwaves.verify import (
    _hull_max_speed,
    mirror_deviation,
    negation_deviation,
)
from barwaves.wave_curves import _jump_v


def single_shock_pattern(m, T_a, v_a, T_b, family):
    """Pattern holding one manufactured jump (no admissibility filtering)."""
    s = shock_speed(m, T_a, T_b, family)
    dv = _jump_v(m, T_a, strain(m, T_a), T_b)
    # velocity jump sign from the jump conditions: dv = -s * d(strain)
    de = strain(m, T_b) - strain(m, T_a)
    v_b = v_a - s * de
    w = Wave(SHOCK, family, State(T_a, v_a), State(T_b, v_b), s, s)
    return WavePattern(m, State(T_a, v_a), (w,), (), "manufactured")


# ---------------------------------------------------------------------------
# jump-condition residuals


def test_rh_empty_pattern_is_zero(cubic):
    p = solve(cubic, State(0.1, 0.1), State(0.1, 0.1))
    assert check_rh(p) == 0.0


def test_rh_on_constructed_case(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    assert check_rh(p) < 1e-12


def test_rh_detects_corrupted_speed(cubic):
    from dataclasses import replace
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    bad = tuple(replace(w, speed_head=w.speed_head + 1e-3,
                        speed_tail=w.speed_tail + 1e-3)
                if w.kind == SHOCK else w for w in p.waves)
    assert check_rh(replace(p, waves=bad)) > 1e-4


def test_dissipation_sentinel_for_shock_free(cubic):
    p = solve(cubic, State(0.1, 0.1), State(0.1, 0.1))
    assert check_dissipation(p) == math.inf


def test_dissipation_of_manufactured_inadmissible_jump(cubic):
    # a single backward jump past the opposite-sign equal-magnitude stress
    # dissipates negatively (the configuration ruled out thermodynamically)
    p = single_shock_pattern(cubic, -1.0, 0.0, 2.0, BACKWARD)
    assert check_dissipation(p) < 0.0


def test_dissipation_cross_check_runs_at_small_scale(monkeypatch, cubic):
    # at stresses of 1e-5 both the slack and the rate lie below 1e-12, so
    # only the check relative to the slack's roundoff sees a sign mismatch
    p = solve(cubic, State(-1e-5, 0.0), State(1.6e-5, 0.0))
    assert check_dissipation(p) >= 0.0
    force = verify.driving_force
    monkeypatch.setattr(verify, "driving_force",
                        lambda m, T_l, T_r: -force(m, T_l, T_r))
    with pytest.raises(AssertionError, match="sign mismatch"):
        check_dissipation(p)


def test_dissipation_nonnegative_on_solver_output(cubic, quintic):
    rng = random.Random(17)
    for _ in range(60):
        m = cubic if rng.random() < 0.5 else quintic
        p = solve(m, State(rng.uniform(-3, 3), rng.uniform(-5, 5)),
                  State(rng.uniform(-3, 3), rng.uniform(-5, 5)))
        assert check_dissipation(p) >= -1e-12


# ---------------------------------------------------------------------------
# entropy conditions


def test_lax_strict_for_classical_forward_shock(cubic):
    p = solve(cubic, State(-1.0, 0.0), State(-2.0, math.sqrt(15.0)))
    w = p.waves[0]
    assert check_lax(cubic, w)
    assert wave_speed(cubic, w.left.T, FORWARD) > w.speed_head
    assert w.speed_head > wave_speed(cubic, w.right.T, FORWARD)


def test_lax_equality_for_degenerate_backward_shock(cubic):
    p = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))
    lead = p.waves[0]
    assert lead.degenerate == "right"
    assert check_lax(cubic, lead)
    assert lead.speed_head == pytest.approx(
        wave_speed(cubic, lead.right.T, BACKWARD), rel=1e-12)


def test_lax_margin_is_relative_to_the_speeds(quintic):
    # at stresses of 1e6 the quintic's speeds are about 2.7e-13, so a
    # margin of 1e-12 in absolute terms accepted any speed below it
    from dataclasses import replace
    p = solve(quintic, State(-1e6, 0.0), State(-2e6, 0.0))
    shock = next(w for w in p.shocks() if not w.degenerate)
    assert abs(shock.speed_head) < 1e-12
    assert check_lax(quintic, shock)
    s = 3.0 * shock.speed_head
    assert not check_lax(quintic, replace(shock, speed_head=s, speed_tail=s))


def test_liu_margin_nonnegative_on_solver_output(cubic):
    rng = random.Random(23)
    for _ in range(40):
        p = solve(cubic, State(rng.uniform(-3, 3), rng.uniform(-4, 4)),
                  State(rng.uniform(-3, 3), rng.uniform(-4, 4)))
        for w in p.shocks():
            if not w.degenerate:
                assert check_liu(cubic, w) >= -1e-10


def test_liu_rejects_overextended_backward_shock(cubic):
    # a single backward jump beyond the tangency stress: faster partial
    # chords exist, so the margin turns negative
    assert tangent_point(cubic, -1.0) < 1.5
    p = single_shock_pattern(cubic, -1.0, 0.0, 1.5, BACKWARD)
    assert check_liu(cubic, p.waves[0]) < -1e-3


def test_oracles_return_finite_margins_at_tiny_rho():
    # rho*slope underflows to 0 on every chord here; check_liu divided by
    # its root and raised ZeroDivisionError on both shocks
    m = Material(1.714299675934326e-30, -1.1867288832854454e-30,
                 5024390.090506056, 3.5, 8.383455695210854e-296)
    p = solve(m, State(-7.276433153883162e-22, -1.0476873851579382e-20),
              State(1.1723180540927944e-21, -1.1245143589596658e+16))
    assert p.region_label == "A9" and len(p.shocks()) == 2
    assert math.isfinite(check_rh(p))
    assert math.isfinite(check_dissipation(p))
    for w in p.shocks():
        assert check_lax(m, w)
        margin = check_liu(m, w)
        assert math.isfinite(margin)
        assert margin >= -1e-12 * abs(w.speed_head)


# ---------------------------------------------------------------------------
# finite-volume reference


def test_fv_preserves_constant_state(cubic):
    U = State(-0.7, 0.4)
    prof = fv_reference(cubic, U, U, cells=64, cfl=0.5, t_end=0.3)
    assert np.all(np.abs(prof.T + 0.7) <= 1e-13)
    assert np.all(np.abs(prof.v - 0.4) <= 1e-13)


def test_fv_argument_validation(cubic):
    U = State(0.0, 0.0)
    V = State(1.0, 0.0)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=10, cfl=0.5, t_end=0.1)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=100, cfl=1.5, t_end=0.1)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=100, cfl=0.5, t_end=0.0)


@pytest.mark.parametrize("cells", [math.nan, 100.5, math.inf, 49])
def test_fv_rejects_cells_that_are_not_an_integer_of_50_or_more(cubic,
                                                                 cells):
    with pytest.raises(ValueError, match=r"integer cells >= 50, got "):
        fv_reference(cubic, State(-0.5, 0.0), State(1.0, 0.0), cells,
                     cfl=0.45, t_end=0.5)


def test_fv_accepts_numpy_integer_cells(cubic):
    U_l, U_r = State(-0.5, 0.0), State(1.0, 0.0)
    want = fv_reference(cubic, U_l, U_r, 60, cfl=0.45, t_end=0.5)
    got = fv_reference(cubic, U_l, U_r, np.int64(60), cfl=0.45, t_end=0.5)
    for name in ("xi", "T", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("arg", ["U_l", "U_r", "cfl", "t_end"])
def test_fv_rejects_non_finite_arguments(cubic, arg):
    good = dict(U_l=State(-0.5, 0.0), U_r=State(1.0, 0.0), cfl=0.45,
                t_end=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        if arg in ("U_l", "U_r"):
            values = [State(bad, 0.0), State(0.0, bad)]
        else:
            values = [bad]
        for value in values:
            with pytest.raises(ValueError, match=arg):
                fv_reference(cubic, cells=100, **{**good, arg: value})


def test_fv_is_conservative(cubic):
    U_l, U_r = State(-0.5, 0.3), State(-1.0, -0.2)
    tallies = {}
    fv_reference(cubic, U_l, U_r, cells=200, cfl=0.45, t_end=0.4,
                 tallies=tallies)
    # discrete integrals change exactly by the accumulated boundary fluxes
    drift_eps = (tallies["sum_eps"] - tallies["sum0_eps"]) * tallies["dx"]
    drift_mom = (tallies["sum_mom"] - tallies["sum0_mom"]) * tallies["dx"]
    assert drift_eps == pytest.approx(-tallies["flux_eps"], abs=1e-12)
    assert drift_mom == pytest.approx(-tallies["flux_mom"], abs=1e-12)
    # and no wave reached the boundary, so those fluxes are the constant
    # far-field values
    t_end = 0.4
    assert tallies["flux_eps"] == pytest.approx(
        t_end * ((-U_r.v) - (-U_l.v)), abs=1e-11)
    assert tallies["flux_mom"] == pytest.approx(
        t_end * ((-U_r.T) - (-U_l.T)), abs=1e-11)


def stepwise_fv(m, U_l, U_r, cells, cfl, t_end):
    """Oracle: the Lax-Friedrichs reference stepped as it was before the
    residual and slope were kept across steps, with ghost cells by
    concatenation and every inversion started from a fresh residual.
    Returns xi, T, v and the Newton updates summed over the cells."""
    a_hull = _hull_max_speed(m, min(U_l.T, U_r.T), max(U_l.T, U_r.T))
    a = 1.05 * a_hull
    L = 1.2 * t_end * a_hull
    dx0 = 2.0 * L / cells
    L += 8.0 * math.sqrt(a_hull * dx0 * t_end)
    dx = 2.0 * L / cells
    x = -L + dx * (np.arange(cells) + 0.5)
    T = np.where(x < 0.0, U_l.T, U_r.T).astype(float)
    eps = strain(m, T)
    mom = np.where(x < 0.0, m.rho * U_l.v, m.rho * U_r.v).astype(float)
    t = 0.0
    updates = 0
    while t < t_end:
        dt = min(cfl * dx / a, t_end - t)
        cons = []
        for q, f in ((eps, -mom / m.rho), (mom, -T)):
            q_e = np.concatenate(([q[0]], q, [q[-1]]))
            f_e = np.concatenate(([f[0]], f, [f[-1]]))
            fhat = 0.5 * (f_e[:-1] + f_e[1:]) - 0.5 * a * (q_e[1:] - q_e[:-1])
            cons.append(q - (dt / dx) * (fhat[1:] - fhat[:-1]))
        eps, mom = cons
        tol = 1e-13 * np.maximum(1.0, np.abs(eps))
        for _ in range(60):
            res = strain(m, T) - eps
            if np.all(np.abs(res) <= tol):
                break
            T = T - res / strain_prime(m, T)
            updates += cells
        for i in np.flatnonzero(np.abs(strain(m, T) - eps) > tol):
            T[i] = invert_strain(m, float(eps[i]))
        speed = 1.0 / math.sqrt(m.rho * float(np.min(strain_prime(m, T))))
        if speed > a:
            a = 1.05 * speed
        t += dt
    return x / t_end, T, mom / m.rho, updates


#: Released-bar data on three materials, and data with velocities whose
#: waves outrun the initial dissipation speed (FV_VELOCITY_CASES below).
FV_ORACLE_CASES = [
    (PRESETS["cubic"], State(-0.5, 0.0), State(1.0, 0.0)),
    (PRESETS["quintic"], State(-1.7, 0.0), State(0.9, 0.0)),
    (Material(1.0, -0.5, 1.0, 1.5, 1.0), State(1.2, 0.0), State(-1.9, 0.0)),
    (PRESETS["cubic"], State(1.6535680686637617, 1.8792531073524623),
     State(1.8791860179858797, -1.5545507594924324)),
    (PRESETS["quintic"], State(-1.5829000079415456, -1.8434488056123577),
     State(-1.7072263246706059, 1.4646734294662882)),
]


@pytest.mark.parametrize("m,U_l,U_r", FV_ORACLE_CASES)
def test_fv_matches_the_stepwise_oracle(m, U_l, U_r):
    tallies = {}
    fv = fv_reference(m, U_l, U_r, cells=200, cfl=0.45, t_end=0.5,
                      tallies=tallies)
    xi, T, v, updates = stepwise_fv(m, U_l, U_r, cells=200, cfl=0.45,
                                    t_end=0.5)
    scale = max(abs(U_l.T), abs(U_r.T), abs(U_l.v), abs(U_r.v))
    assert np.array_equal(fv.xi, xi)
    assert np.max(np.abs(fv.T - T)) <= 1e-12 * scale
    assert np.max(np.abs(fv.v - v)) <= 1e-12 * scale
    if m.n == 1.0:
        # the closed form leaves Newton nothing to do
        assert tallies["newton_steps"] == 0
        assert tallies["rescued"] == 0
    else:
        # the kept residual starts each inversion where a fresh one would
        assert tallies["newton_steps"] == updates


def record_fresh_residuals(monkeypatch) -> list:
    """Wrap the per-step inversion so that each step appends its largest
    residual strain(T) - eps, evaluated afresh at the stresses returned,
    over the stopping tolerance 1e-13*max(1, |eps|)."""
    ratios = []
    invert = verify._invert_strain_grid

    def checked(m, eps, T, r, slope, *rows_and_buffers):
        out = invert(m, eps, T, r, slope, *rows_and_buffers)
        res = strain(m, out[0]) - eps
        ratios.append(np.max(np.abs(res)
                             / (1e-13 * np.maximum(1.0, np.abs(eps)))))
        return out

    monkeypatch.setattr(verify, "_invert_strain_grid", checked)
    return ratios


@pytest.mark.parametrize("m,U_l,U_r", FV_ORACLE_CASES)
def test_fv_stresses_meet_the_stopping_rule_afresh(monkeypatch, m, U_l,
                                                    U_r):
    ratios = record_fresh_residuals(monkeypatch)
    tallies = {}
    fv_reference(m, U_l, U_r, cells=200, cfl=0.45, t_end=0.5,
                 tallies=tallies)
    assert max(ratios) <= 1.0
    assert tallies["steps"] == len(ratios) > 0
    assert tallies["rescued"] == 0
    if m.n == 1.0:
        # the closed form alone meets the rule
        assert tallies["newton_steps"] == 0
    else:
        # every step of these data moves the waves, so every warm-started
        # inversion updates
        assert tallies["newton_steps"] % 200 == 0
        assert tallies["newton_steps"] >= 200 * len(ratios)


@pytest.mark.parametrize("m,U_l,U_r", FV_ORACLE_CASES)
def test_fv_conservation_closes(m, U_l, U_r):
    # the closure check of the benchmark's oracle (bench/oracles.check_fv)
    cells = 200
    tallies = {}
    fv_reference(m, U_l, U_r, cells, cfl=0.45, t_end=0.5, tallies=tallies)
    dx = tallies["dx"]
    mags = {"eps": max(abs(strain(m, U_l.T)), abs(strain(m, U_r.T))),
            "mom": m.rho * max(abs(U_l.v), abs(U_r.v))}
    for name, mag in mags.items():
        flux = tallies[f"flux_{name}"]
        closure = dx * (tallies[f"sum_{name}"] - tallies[f"sum0_{name}"]) + flux
        assert abs(closure) <= 1e-11 * (cells * dx * mag + abs(flux))


#: Tally keys packed into the pinned digests, in order.
FV_DIGEST_KEYS = ("flux_eps", "flux_mom", "sum0_eps", "sum0_mom", "sum_eps",
                  "sum_mom", "dx", "steps", "newton_steps")

#: (label in tests/fv_reference.sha256, material, U_l, U_r, cells)
FV_DIGEST_CASES = [
    (f"oracle-{i} cells=200", m, U_l, U_r, 200)
    for i, (m, U_l, U_r) in enumerate(FV_ORACLE_CASES)
] + [("canonical-linear cells=400", PRESETS["linear"],
      State(CANONICAL_LINEAR[0], 0.0), State(CANONICAL_LINEAR[1], 0.0), 400)]


def pinned_fv_digests():
    """{label: SHA-256} from tests/fv_reference.sha256."""
    path = os.path.join(os.path.dirname(__file__), "fv_reference.sha256")
    with open(path, encoding="utf-8") as fh:
        return {line[66:].strip(): line[:64] for line in fh}


def test_fv_digests_cover_every_pinned_case():
    assert sorted(pinned_fv_digests()) == sorted(
        label for label, *_ in FV_DIGEST_CASES)


@pytest.mark.parametrize("label,m,U_l,U_r,cells", FV_DIGEST_CASES,
                         ids=[case[0] for case in FV_DIGEST_CASES])
def test_fv_reference_output_is_pinned(label, m, U_l, U_r, cells):
    # xi, T and v and the tallies, bit for bit as little-endian float64
    tallies = {}
    fv = fv_reference(m, U_l, U_r, cells, cfl=0.45, t_end=0.5,
                      tallies=tallies)
    packed = np.concatenate([fv.xi, fv.T, fv.v,
                             [float(tallies[k]) for k in FV_DIGEST_KEYS]])
    digest = hashlib.sha256(packed.astype("<f8").tobytes()).hexdigest()
    assert digest == pinned_fv_digests()[label]


class CountingNumpy:
    """numpy, counting the calls of its functions made through it, and
    apart the calls among them that take an ndarray operand that is not
    C-contiguous."""

    def __init__(self):
        self.calls = 0
        self.strided = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            self.strided += any(
                isinstance(x, np.ndarray) and not x.flags.c_contiguous
                for x in (*args, *kwargs.values()))
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name,calls,steps,passes,per_pass", [
    ("cubic", 7225, 257, 258, 8),
    ("quintic", 21790, 257, 1039, 12),
], ids=["cubic", "quintic"])
def test_fv_numpy_calls_are_pinned(monkeypatch, name, calls, steps, passes,
                                   per_pass):
    # the benchmark's released-bar grid: numpy's dispatch sets the step's
    # time, so each call counts.  A residual pass is the integer-n law's
    # Horner polynomials (16 calls for the power form of real n): 28.1
    # calls per step for the cubic preset, one pass per step, and for the
    # quintic 84.8, 4.04 passes per step.  The flux half of the step runs
    # on flat contiguous rows: only the outflow copy of the ghost columns
    # takes strided operands, once per step
    counting = CountingNumpy()
    monkeypatch.setattr(verify, "np", counting)
    in_passes = [0, 0]
    residual_slope = verify.strain_residual_slope

    def counted_pass(*args):
        before = counting.calls
        residual_slope(*args)
        in_passes[0] += 1
        in_passes[1] += counting.calls - before

    monkeypatch.setattr(verify, "strain_residual_slope", counted_pass)
    tallies = {}
    fv_reference(PRESETS[name], State(-1.3, 0.0), State(0.9, 0.0), 400,
                 cfl=0.45, t_end=0.5, tallies=tallies)
    assert (counting.calls, tallies["steps"]) == (calls, steps)
    assert counting.strided == steps
    assert in_passes == [passes, per_pass * passes]


def test_fv_rescues_cells_newton_leaves_unconverged(monkeypatch, caplog,
                                                    quintic):
    # a slope ten times too steep shrinks the residual by only 0.9 per
    # update, so 60 updates leave cells for the scalar inversion (on a
    # material with n != 1: the n = 1 closed form runs no update)
    residual_slope = verify.strain_residual_slope

    def steep(m, T, eps, r, slope, tmp, k):
        residual_slope(m, T, eps, r, slope, tmp, k)
        slope *= 10.0

    monkeypatch.setattr(verify, "strain_residual_slope", steep)
    rescued = []
    invert = verify.invert_strain

    def counted(m, eps):
        rescued.append(eps)
        return invert(m, eps)

    monkeypatch.setattr(verify, "invert_strain", counted)
    ratios = record_fresh_residuals(monkeypatch)
    tallies = {}
    caplog.set_level(logging.DEBUG, logger="barwaves.verify")
    fv_reference(quintic, State(-0.5, 0.0), State(1.0, 0.0), cells=60,
                 cfl=0.45, t_end=0.1, tallies=tallies)
    assert rescued
    assert tallies["newton_steps"] == 60 * 60 * tallies["steps"]
    assert max(ratios) <= 1.0
    assert tallies["rescued"] == len(rescued)
    # one DEBUG line per rescuing step, carrying that step's count
    steps_logged = [rec.args[0] for rec in caplog.records]
    assert steps_logged == sorted(set(steps_logged))
    assert sum(rec.args[1] for rec in caplog.records) == len(rescued)


#: n = 1 materials for the closed-form inverse: the cubic preset, near
#: hyperbolicity loss (alpha + beta = 1e-3), far from it and a stiff gamma.
CUBIC_INVERSE_MATERIALS = [
    PRESETS["cubic"],
    Material(1.0, -0.999, 1.0, 1.0, 1.0),
    Material(1.0, -0.01, 1.0, 1.0, 1.0),
    Material(2.0, -1.0, 1e4, 1.0, 1.0),
]


@pytest.mark.parametrize("m", CUBIC_INVERSE_MATERIALS)
def test_cubic_inverse_matches_60_digits_and_the_stopping_rule(m):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2311)
    size = 200
    eps = np.array([rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
                    for _ in range(size)])
    rows = verify.cubic_inverse_rows(m, size)
    T = np.empty(size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify.cubic_inverse(eps, T, rows)
        # the whole inversion, with its Newton guard, on the same strains
        k = verify.residual_slope_rows(m, size)
        T_grid, r, slope, tol, work = np.empty((5, size))
        *_, stuck = verify._invert_strain_grid(
            m, eps, T_grid, r, slope, k, rows, np.full(size, 1e-13), tol,
            work, np.empty(size, dtype=bool))
    ulp = math.ulp(1.0)
    with mpmath.workdps(60):
        a = mpmath.mpf(m.alpha) + mpmath.mpf(m.beta)
        c = mpmath.mpf(m.alpha) * mpmath.mpf(m.gamma) / 2
        K1 = 1.5 / (a / c) * mpmath.sqrt(3 * c / a) / c
        for e, t in zip(eps.tolist(), T.tolist()):
            # Newton at 60 digits; the cubic is increasing, so its one root
            # is reached from any start, here in four updates
            exact = mpmath.mpf(t)
            for _ in range(4):
                exact -= (a * exact + c * exact ** 3 - e) / (
                    a + 3 * c * exact ** 2)
            assert abs(a * exact + c * exact ** 3 - e) <= 1e-55 * abs(e)
            rel = float(abs((t - exact) / exact))
            # sinh turns the absolute roundoff of its argument z into a
            # relative error of T
            z = float(mpmath.asinh(K1 * abs(e)) / 3)
            assert rel <= 4.0 * ulp * (1.0 + z)
            if abs(e) <= 1e3:
                assert rel <= 1e-15
            # invert_strain is as good as the float strain it inverts, whose
            # terms cancel by (|beta| + alpha*q)/strain_prime
            inv = invert_strain(m, e)
            q = 1.0 + 0.5 * m.gamma * inv * inv
            cond = (abs(m.beta) + m.alpha * q) / strain_prime(m, inv)
            assert abs(t - inv) <= 4.0 * ulp * abs(inv) * (1.0 + z + cond)
    rule = 1e-13 * np.maximum(1.0, np.abs(eps))
    alone = np.abs(eps) <= 1e100
    assert np.all(np.abs(strain(m, T[alone]) - eps[alone]) <= rule[alone])
    assert stuck == 0
    assert np.all(np.abs(strain(m, T_grid) - eps) <= rule)


def test_fv_restarts_cells_whose_closed_form_overflows():
    # near hyperbolicity loss K1 is about 1.8e18, so K1*eps overflows for
    # these strains: the closed form is inf there, and those cells restart
    # from the cube root, which is exact to rounding, so none reaches
    # the rescue and no Newton update runs
    m = Material(1.0, -(1.0 - 1e-12), 1.0, 1.0, 1.0)
    U_l, U_r = State(1e97, 0.0), State(-1e97, 0.0)
    tallies = {}
    with np.errstate(over="ignore", invalid="ignore"):
        fv = fv_reference(m, U_l, U_r, cells=60, cfl=0.45, t_end=0.5,
                          tallies=tallies)
    assert (tallies["rescued"], tallies["newton_steps"]) == (0, 0)
    assert np.all(np.isfinite(fv.T))
    eps = strain(m, fv.T)
    assert np.all(np.abs(eps) <= abs(strain(m, U_l.T)))
    # each stress meets the stopping rule, |strain(T) - eps| <= 1e-13*|eps|
    # in every cell, so the strains sum to the scheme's within 60 of it
    assert abs(float(np.sum(eps)) - tallies["sum_eps"]) <= 60e-13 * np.max(
        np.abs(eps))


#: Data with |T|, |v| <= 2 (drawn from seed 1) whose middle stress lies
#: outside the stress hull of the data, so a wave outruns the scheme's
#: initial dissipation speed.
FV_VELOCITY_CASES = [
    ("quintic", State(0.15391518295137718, 0.49395781119002047),
     State(0.44980985913090255, -0.16741279960110234)),
    ("quintic", State(-0.7744535186670163, 1.4340576254262372),
     State(-0.7585454905874638, 1.7571537285411298)),
    ("quintic", State(-1.5829000079415456, -1.8434488056123577),
     State(-1.7072263246706059, 1.4646734294662882)),
    ("cubic", State(1.6535680686637617, 1.8792531073524623),
     State(1.8791860179858797, -1.5545507594924324)),
]


@pytest.mark.parametrize("name,U_l,U_r", FV_VELOCITY_CASES)
def test_fv_with_velocity_outruns_the_hull_speed_and_refines(name, U_l, U_r):
    m = PRESETS[name]
    pattern = solve(m, U_l, U_r)
    fastest = max(abs(s) for w in pattern.waves
                  for s in (w.speed_head, w.speed_tail))
    assert fastest > 1.05 * _hull_max_speed(m, min(U_l.T, U_r.T),
                                            max(U_l.T, U_r.T))
    dists = []
    for cells in (400, 1600):
        fv = fv_reference(m, U_l, U_r, cells, cfl=0.45, t_end=0.5)
        exact = profile(pattern, fv.xi[0], fv.xi[-1], 4001)
        dists.append(l1_distance(exact, fv))
    assert dists[1] < dists[0]


#: The names of the exact solver, its wave curves and its sampler: the
#: results the oracles check, so verify.py must not name them.
SOLVER_NAMES = {"solve", "solve_many", "WaveCurve", "profile", "sample",
                "_sample_lanes"}


def test_oracles_name_no_exact_solver():
    with open(verify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.arg):
            named.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.alias):
            named.update((node.name, node.asname))
            modules.add(node.name)
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert named & SOLVER_NAMES == set()
    assert [n for n in named if n and n.startswith("decompose_")] == []
    # an import of batch reads "batch" as a module, an alias or a dotted tail
    assert not any(str(mod).rpartition(".")[2] == "batch" for mod in modules)


def test_fv_converges_on_linear_material(linear):
    d = refinement_study(linear, *CANONICAL_LINEAR, cells_list=(100, 200, 400))
    assert d[0] > d[1] > d[2]
    assert d[-1] < 0.05


def test_fv_refines_toward_exact_fan_shock_solution(cubic):
    d = refinement_study(cubic, -0.5, -1.0, cells_list=(100, 200, 400))
    assert d[0] > d[1] > d[2]


def test_fv_confirms_tangency_composite(cubic):
    # The composite forward wave truncates its fan at the tangency stress
    # of the terminal state and jumps there (degenerate shock).  Had the
    # fan instead continued to zero stress with a trailing jump, the rays
    # between the degenerate shock and the zero-stress characteristic
    # would carry fan states of *negative* stress.  The reference scheme
    # shows the terminal stress there, confirming the truncation.
    import numpy as np

    U_l = State(-1.0, 0.0)
    T_r = 0.8
    from barwaves import WaveCurve
    U_r = State(T_r, U_l.v - WaveCurve(cubic, State(T_r, 0.0), FORWARD).v(
        U_l.T))
    p = solve(cubic, U_l, U_r)
    fan, shock = p.waves
    assert shock.degenerate == "left"
    zero_ray = wave_speed(cubic, 0.0, FORWARD)
    assert shock.speed_head < zero_ray  # the disputed ray interval exists
    fv = fv_reference(cubic, U_l, U_r, cells=800, cfl=0.45, t_end=0.5)
    window = (fv.xi > shock.speed_head + 0.05) & (fv.xi < zero_ray - 0.02)
    assert window.any()
    assert np.all(np.abs(fv.T[window] - T_r) < 0.02)
    # and the L1 distance to this construction refines monotonically
    dists = []
    for cells in (200, 400, 800):
        fvc = fv_reference(cubic, U_l, U_r, cells, 0.45, 0.5)
        exact = profile(p, fvc.xi[0], fvc.xi[-1], 3001)
        dists.append(l1_distance(exact, fvc))
    assert dists[0] > dists[1] > dists[2]


# ---------------------------------------------------------------------------
# profile distance


def test_l1_identical_profiles(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    prof = profile(p, -2.0, 2.0, 101)
    assert l1_distance(prof, prof) == 0.0


def test_l1_rectangle_area():
    xi, zero = np.array([0.0, 1.0, 2.0]), np.zeros(3)
    a = Profile(xi, np.full(3, 1.0), zero)
    b = Profile(xi, np.full(3, 1.5), zero)
    assert l1_distance(a, b) == pytest.approx(1.0, abs=1e-14)


def test_l1_symmetric_under_swap(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    a = profile(p, -2.0, 2.0, 57)
    b = fv_reference(cubic, State(-0.5, 0.0), State(-1.0, 0.0),
                     cells=80, cfl=0.5, t_end=0.5)
    assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), abs=1e-14)


def test_l1_requires_overlap():
    zero = np.zeros(2)
    a = Profile(np.array([0.0, 1.0]), zero, zero)
    b = Profile(np.array([2.0, 3.0]), zero, zero)
    with pytest.raises(ValueError):
        l1_distance(a, b)


# ---------------------------------------------------------------------------
# suite plumbing


def test_invariant_suite_rows(cubic, quintic):
    rows = run_invariant_suite([cubic, quintic], seed=9, trials=40)
    assert all(ok for _, ok, _ in rows)
    names = [name for name, _, _ in rows]
    assert "rh-residual" in names and "mirror-symmetry" in names


def test_invariant_suite_on_extreme_materials():
    from barwaves import Material
    stiff = Material(3.0, -2.5, 3.0, 3.0, 2.0)
    nearly_degenerate = Material(0.6, -0.55, 0.4, 0.6, 0.7)  # alpha+beta=0.05
    rows = run_invariant_suite([stiff, nearly_degenerate], seed=4, trials=100)
    assert all(ok for _, ok, _ in rows), rows


def test_invariant_suite_vacuous_with_zero_trials(cubic):
    rows = run_invariant_suite([cubic], seed=0, trials=0)
    assert all(ok for _, ok, _ in rows)


def test_invariant_suite_inject_fails_rh(cubic):
    rows = run_invariant_suite([cubic], seed=9, trials=10, inject=True)
    by_name = {name: ok for name, ok, _ in rows}
    assert not by_name["rh-residual"]
    assert by_name["mirror-symmetry"]


def test_mirror_and_negation_deviation_detect_mismatch(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    q = solve(cubic, State(-0.5, 0.0), State(-0.9, 0.0))
    assert mirror_deviation(p, p) == math.inf  # families do not swap
    assert negation_deviation(p, q) > 1e-3
