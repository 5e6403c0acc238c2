"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import math
import random

import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    PRESETS,
    RAREFACTION,
    SHOCK,
    State,
    backward_v,
    driving_force,
    invert_strain,
    sample,
    solve,
    strain,
    strain_prime,
    tangent_point,
    thresholds,
    wave_speed,
)
from barwaves.cli import (
    CANONICAL_CASES,
    CANONICAL_LINEAR,
    _grid,
    refinement_study,
    run_invariant_suite,
)
from conftest import driving_force_integral

CUBIC = PRESETS["cubic"]
QUINTIC = PRESETS["quintic"]
LINEAR = PRESETS["linear"]

CASE_LABELS = {"I", "II", "III", "IV", "V", "VI",
               "VII", "VIII", "IX", "X", "XI", "XII"}
C_SYSTEM = {"C1", "C2", "C3", "C4", "C5", "C6"}


def report(num, name):
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


@pytest.fixture(scope="module")
def invariant_rows():
    # criteria 5 and 6 share one 1000-problem sweep
    return dict(
        (name, (ok, detail)) for name, ok, detail in
        run_invariant_suite([CUBIC, QUINTIC], seed=2024, trials=1000))


def test_criterion_01_twelve_pattern_atlas():
    tl_grid = _grid(-2.0, 2.0, 81)
    tr_grid = _grid(-3.0, 3.0, 81)
    cases = set()
    zero_row_regions = set()
    for T_l in tl_grid:
        for T_r in tr_grid:
            if abs(T_l - T_r) <= 1e-13:
                continue
            p = solve(CUBIC, State(T_l, 0.0), State(T_r, 0.0))
            cases.add(p.zero_velocity_case)
            if T_l == 0.0:
                zero_row_regions.add(p.region_label)
    assert cases == CASE_LABELS, f"got {sorted(cases)}"
    # the zero-left-stress restriction classifies in the six-label system
    # (boundary rows aside), never in the twelve-label ones
    interior = {r for r in zero_row_regions if not r.startswith("on-")}
    assert interior <= C_SYSTEM
    assert not any(r[0] in "AB" for r in zero_row_regions)
    assert len(C_SYSTEM) == 6
    report(1, "twelve-pattern atlas, six-label zero-stress system")


def test_criterion_02_linear_closed_form():
    rng = random.Random(7)
    k = LINEAR.alpha + LINEAR.beta
    c = 1.0 / math.sqrt(LINEAR.rho * k)
    checked = 0
    while checked < 100:
        U_l = State(rng.uniform(-3, 3), rng.uniform(-3, 3))
        U_r = State(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if U_l == U_r:
            continue
        p = solve(LINEAR, U_l, U_r)
        T_m = 0.5 * (U_r.T + U_l.T) + 0.5 * math.sqrt(
            LINEAR.rho / k) * (U_r.v - U_l.v)
        v_m = 0.5 * (U_r.v + U_l.v) + 0.5 * math.sqrt(
            k / LINEAR.rho) * (U_r.T - U_l.T)
        mid = p.middle_states[0]
        assert abs(mid.T - T_m) < 1e-12
        assert abs(mid.v - v_m) < 1e-12
        assert abs(p.waves[0].speed_head + c) < 1e-12
        assert abs(p.waves[1].speed_head - c) < 1e-12
        checked += 1
    report(2, "linear-mode solutions match the closed form (100 data sets)")


def test_criterion_03_tangency_closed_form():
    mats = [CUBIC, Material(1.0, -0.9, 3.0, 1.0, 2.0),
            Material(0.7, -0.2, 0.5, 1.0, 0.8)]
    for m in mats:
        for T_l in (0.1, 1.0, 5.0, -0.1, -1.0, -5.0):
            got = tangent_point(m, T_l)
            assert abs(got + T_l / 2.0) <= 1e-10 * abs(T_l / 2.0)
    report(3, "cubic-strain tangency equals -T_l/2 (rel 1e-10)")


def test_criterion_04_threshold_identity():
    rng = random.Random(99)
    for _ in range(50):
        alpha = rng.uniform(0.5, 3.0)
        beta = -rng.uniform(0.05, 0.9) * alpha
        m = Material(alpha, beta, rng.uniform(0.3, 3.0),
                     rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0))
        T_l = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        th = thresholds(m, T_l)
        assert abs(th.T_star + T_l) < 1e-12
        # strictly beyond the first threshold, on the same side
        assert abs(th.T_star_star) > abs(th.T_star)
        assert th.T_star_star * th.T_star > 0.0
        # residual of the equal-velocity condition
        Tt = tangent_point(m, T_l)
        lhs = (th.T_star_star - Tt) * (strain(m, th.T_star_star)
                                       - strain(m, Tt))
        rhs = (Tt - T_l) * (strain(m, Tt) - strain(m, T_l))
        assert abs(lhs - rhs) < 1e-10
    report(4, "threshold identity T*=-T_l and residual (50 materials)")


def test_criterion_05_admissibility_suite(invariant_rows):
    for name in ("rh-residual", "dissipation-slack", "liu-margin",
                 "lax-inequalities", "speed-ordering"):
        ok, detail = invariant_rows[name]
        assert ok, f"{name}: {detail}"
    report(5, "1000-problem admissibility suite (RH, dissipation, Liu, "
              "ordering)")


def test_criterion_06_mirror_symmetry(invariant_rows):
    ok, detail = invariant_rows["mirror-symmetry"]
    assert ok, detail
    ok, detail = invariant_rows["negation-symmetry"]
    assert ok, detail
    report(6, "mirror and negation symmetry on the same 1000 problems")


def test_criterion_07_second_order_contact():
    U_l = State(-1.0, 0.0)
    Tt = tangent_point(CUBIC, -1.0)
    h = 1e-4 * max(1.0, abs(Tt))

    def f(T):
        return backward_v(CUBIC, U_l, T)

    def d1(x, step):
        return (-11.0 * f(x) + 18.0 * f(x + step) - 9.0 * f(x + 2 * step)
                + 2.0 * f(x + 3 * step)) / (6.0 * step)

    def d2(x, step):
        return (2.0 * f(x) - 5.0 * f(x + step) + 4.0 * f(x + 2 * step)
                - f(x + 3 * step)) / (step * step)

    first_gap = abs(d1(Tt, h) - d1(Tt, -h)) / abs(d1(Tt, h))
    second_gap = abs(d2(Tt, h) - d2(Tt, -h)) / abs(d2(Tt, h))
    assert first_gap < 1e-6
    assert second_gap < 1e-6
    report(7, "second-order contact of the backward curve at the tangency")


def test_criterion_08_fv_cross_check():
    cells = (200, 400, 800, 1600)
    for name, T_l, T_r in CANONICAL_CASES:
        dists = refinement_study(CUBIC, T_l, T_r, cells)
        assert all(b < a for a, b in zip(dists, dists[1:])), (name, dists)
        assert dists[-1] < 0.05, (name, dists)
    lin = refinement_study(LINEAR, *CANONICAL_LINEAR, cells_list=cells)
    assert all(b < a for a, b in zip(lin, lin[1:]))
    assert lin[-1] < 0.01, lin
    report(8, "finite-volume refinement agrees with the exact solutions")


def test_criterion_09_driving_force_consistency():
    rng = random.Random(41)
    for i in range(500):
        m = CUBIC if i % 2 == 0 else QUINTIC
        T_l = rng.uniform(-3.0, 3.0)
        T_r = rng.uniform(-3.0, 3.0)
        closed = driving_force(m, T_l, T_r)
        integral = driving_force_integral(m, T_l, T_r)
        assert abs(closed - integral) <= 1e-10 * max(1.0, abs(integral))
        sign = T_r * T_r - T_l * T_l
        if abs(sign) > 1e-9:
            assert math.copysign(1.0, closed) == math.copysign(1.0, sign)
        # zero crossings exactly where the stress magnitudes agree
        assert driving_force(m, T_l, T_l) == 0.0
        assert abs(driving_force(m, T_l, -T_l)) < 1e-12
    report(9, "driving force: closed form vs quadrature (500 pairs)")


def test_criterion_10_round_trips():
    for m in (CUBIC, QUINTIC):
        for i in range(201):
            T = -5.0 + 10.0 * i / 200
            back = invert_strain(m, strain(m, T))
            assert abs(back - T) <= 1e-12 * max(1.0, abs(T))
    # fan inversion residual at sampled interior points of every fan
    patterns = [
        solve(CUBIC, State(-0.5, 0.0), State(-1.0, 0.0)),
        solve(CUBIC, State(-1.0, 0.0), State(1.6, 0.0)),
        solve(CUBIC, State(-1.0, 0.0), State(0.8, -2.9)),
        solve(QUINTIC, State(0.0, 0.0), State(0.0, 3.0)),
    ]
    fans = 0
    for p in patterns:
        for w in p.waves:
            if w.kind != RAREFACTION:
                continue
            fans += 1
            for j in range(1, 32):
                xi = w.speed_head + (w.speed_tail - w.speed_head) * j / 32
                s = sample(p, xi)
                assert abs(wave_speed(p.material, s.T, w.family) - xi) < 1e-12
    assert fans >= 4
    report(10, "strain-inversion and fan-inversion round trips")
