import math
import random

import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    PRESETS,
    SHOCK,
    State,
    Wave,
    check_dissipation,
    check_lax,
    check_liu,
    check_rh,
    fv_reference,
    l1_distance,
    shock_speed,
    solve,
    strain,
    tangent_point,
    wave_speed,
)
from barwaves import verify
from barwaves.riemann import WavePattern
from barwaves.sampler import Profile, profile
from barwaves.verify import (
    CANONICAL_LINEAR,
    _hull_max_speed,
    mirror_deviation,
    negation_deviation,
    refinement_study,
    run_invariant_suite,
)
from barwaves.wave_curves import _jump_v


def single_shock_pattern(m, T_a, v_a, T_b, family):
    """Pattern holding one manufactured jump (no admissibility filtering)."""
    s = shock_speed(m, T_a, T_b, family)
    dv = _jump_v(m, T_a, T_b)
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


# ---------------------------------------------------------------------------
# finite-volume reference


def test_fv_preserves_constant_state(cubic):
    U = State(-0.7, 0.4)
    prof = fv_reference(cubic, U, U, cells=64, cfl=0.5, t_end=0.3)
    assert all(s.T == pytest.approx(-0.7, abs=1e-13) for s in prof.states)
    assert all(s.v == pytest.approx(0.4, abs=1e-13) for s in prof.states)


def test_fv_argument_validation(cubic):
    U = State(0.0, 0.0)
    V = State(1.0, 0.0)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=10, cfl=0.5, t_end=0.1)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=100, cfl=1.5, t_end=0.1)
    with pytest.raises(ValueError):
        fv_reference(cubic, U, V, cells=100, cfl=0.5, t_end=0.0)


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
def test_fv_with_velocity_outruns_the_hull_speed_and_refines(
        monkeypatch, name, U_l, U_r):
    m = PRESETS[name]
    pattern = solve(m, U_l, U_r)
    fastest = max(abs(s) for w in pattern.waves
                  for s in (w.speed_head, w.speed_tail))
    assert fastest > 1.05 * _hull_max_speed(m, min(U_l.T, U_r.T),
                                            max(U_l.T, U_r.T))

    def no_exact_solver(*args):
        raise AssertionError("the reference called the exact solver")

    monkeypatch.setattr(verify, "solve", no_exact_solver)
    dists = []
    for cells in (400, 1600):
        fv = fv_reference(m, U_l, U_r, cells, cfl=0.45, t_end=0.5)
        exact = profile(pattern, fv.xi[0], fv.xi[-1], 4001)
        dists.append(l1_distance(exact, fv))
    assert dists[1] < dists[0]


def test_fv_converges_on_linear_material(linear):
    d = refinement_study(linear, *CANONICAL_LINEAR, cells_list=(100, 200, 400),
                         cfl=0.45, t_end=0.5)
    assert d[0] > d[1] > d[2]
    assert d[-1] < 0.05


def test_fv_refines_toward_exact_fan_shock_solution(cubic):
    d = refinement_study(cubic, -0.5, -1.0, cells_list=(100, 200, 400),
                         cfl=0.45, t_end=0.5)
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
    from barwaves import forward_v
    U_r = State(T_r, forward_v(cubic, U_l, T_r))
    p = solve(cubic, U_l, U_r)
    fan, shock = p.waves
    assert shock.degenerate == "left"
    zero_ray = wave_speed(cubic, 0.0, FORWARD)
    assert shock.speed_head < zero_ray  # the disputed ray interval exists
    fv = fv_reference(cubic, U_l, U_r, cells=800, cfl=0.45, t_end=0.5)
    xi = np.asarray(fv.xi)
    T = np.asarray([s.T for s in fv.states])
    window = (xi > shock.speed_head + 0.05) & (xi < zero_ray - 0.02)
    assert window.any()
    assert np.all(np.abs(T[window] - T_r) < 0.02)
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
    a = Profile((0.0, 1.0, 2.0), (State(1.0, 0.0),) * 3)
    b = Profile((0.0, 1.0, 2.0), (State(1.5, 0.0),) * 3)
    assert l1_distance(a, b) == pytest.approx(1.0, abs=1e-14)


def test_l1_symmetric_under_swap(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(-1.0, 0.0))
    a = profile(p, -2.0, 2.0, 57)
    b = fv_reference(cubic, State(-0.5, 0.0), State(-1.0, 0.0),
                     cells=80, cfl=0.5, t_end=0.5)
    assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), abs=1e-14)


def test_l1_requires_overlap():
    a = Profile((0.0, 1.0), (State(0.0, 0.0),) * 2)
    b = Profile((2.0, 3.0), (State(0.0, 0.0),) * 2)
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
