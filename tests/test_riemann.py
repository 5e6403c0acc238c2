import logging
import math
import random
import re

import pytest

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    NoBracket,
    NonMonotone,
    PRESETS,
    RAREFACTION,
    RootNotBracketed,
    SHOCK,
    State,
    backward_v,
    forward_v,
    rarefaction_integral,
    solve,
    solve_linear,
    solve_many,
    strain,
    strain_prime,
    tangent_point,
    thresholds,
    wave_speed,
)
import barwaves
from barwaves import material, riemann
from barwaves.material import _newton_bisect
from barwaves.cli import continuity_probe
from barwaves.verify import check_lax, check_rh, speeds_ordered
from barwaves.wave_curves import WaveCurve
from conftest import (
    A_CASES,
    B_CASES,
    C_CASES,
    ROUNDED_JUMP,
    cubic_fan_integral,
    errors_on_both_paths,
    fault_root_finders,
    inject,
    place,
    wiggle_curves,
)


def middle_stress(pattern):
    backward = [w for w in pattern.waves if w.family == BACKWARD]
    if backward:
        return backward[-1].right.T
    return pattern.left_state.T


def assert_chained(pattern):
    for w, w_next in zip(pattern.waves, pattern.waves[1:]):
        assert w.right == w_next.left
    assert pattern.middle_states == tuple(
        w.right for w in pattern.waves[:-1])
    assert speeds_ordered(pattern)


# ---------------------------------------------------------------------------
# basic solves


def test_equal_states_short_circuit(cubic):
    p = solve(cubic, State(0.3, -1.0), State(0.3, -1.0))
    assert p.waves == ()
    assert p.region_label == "trivial"


def test_single_forward_shock(cubic):
    U_l = State(-1.0, 0.0)
    U_r = State(-2.0, math.sqrt(15.0))
    p = solve(cubic, U_l, U_r)
    assert [w.kind for w in p.waves] == [SHOCK]
    assert p.waves[0].family == FORWARD
    assert p.waves[0].speed_head == pytest.approx(1.0 / math.sqrt(15.0),
                                                  rel=1e-12)
    assert p.region_label == "on-W2"
    assert_chained(p)


def test_single_backward_wave_on_curve(cubic):
    U_l = State(-1.0, 0.0)
    T_r = 1.2
    U_r = State(T_r, backward_v(cubic, U_l, T_r))
    p = solve(cubic, U_l, U_r)
    assert all(w.family == BACKWARD for w in p.waves)
    assert [w.kind for w in p.waves] == [SHOCK, RAREFACTION]
    assert p.region_label == "on-W1"
    assert_chained(p)


def test_degenerate_input_same_stress(cubic):
    # T_l = T_r with different velocities is a legal problem
    p = solve(cubic, State(1.0, 0.0), State(1.0, 2.0))
    assert len(p.waves) == 2
    assert {w.family for w in p.waves} == {BACKWARD, FORWARD}
    assert p.right_state.v == pytest.approx(2.0, abs=1e-11)
    assert_chained(p)


def test_solver_is_deterministic(cubic):
    a = solve(cubic, State(-0.9, 0.3), State(1.1, -2.2))
    b = solve(cubic, State(-0.9, 0.3), State(1.1, -2.2))
    assert a.waves == b.waves
    assert a.middle_states == b.middle_states
    assert a.region_label == b.region_label


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["T_l", "v_l", "T_r", "v_r"])
def test_non_finite_state_is_rejected_by_name(cubic, field, bad):
    values = dict(T_l=-1.0, v_l=0.0, T_r=1.0, v_r=0.0)
    values[field] = bad
    with pytest.raises(ValueError, match=f"{field}="):
        solve(cubic, State(values["T_l"], values["v_l"]),
              State(values["T_r"], values["v_r"]))


# Wide-magnitude data whose roundoff-level residual failed a tolerance of
# 1e-11*max(1, |v_l|, |v_r|): the velocity jumps across the waves reach
# 1e4..1e8, far beyond the data velocities.
WIDE_CASES = [
    ("cubic", State(373.4276696042438, 0.013557686496180794),
     State(0.8569062739358501, -0.002839270015331959)),
    ("quintic", State(77.61214386803783, -0.0008829782322669264),
     State(-784.2906164406229, -0.0006267466876654476)),
    ("quintic", State(-299.17782775523455, -0.12495052758894433),
     State(-535.6915037856523, 71.74723825046313)),
    ("near-hyperbolic", State(-844.2865473672682, 0.15339541584982855),
     State(24.237944609506386, 0.2755183891137422)),
    # middle stresses of order 1e20: beyond 2**53 a unit offset from T_l
    # rounds away, so the bracket search must take its steps from the data
    ("cubic", State(-1e20, 0.0), State(-2e20, 0.0)),
    ("quintic", State(-1e20, 0.0), State(3e20, 0.0)),
    # a middle velocity of 1.75e8 ahead of a final degenerate shock that
    # jumps by 0.16: forward legs started from that velocity carried its
    # rounding error into the right state (check_rh 1.1e-8)
    ("quintic", State(-978.0301512129712, 0.005936805620052567),
     State(0.25089392119498716, -0.001069518604520935)),
]


@pytest.mark.parametrize("name,U_l,U_r", WIDE_CASES)
def test_wide_magnitude_solves_meet_scaled_residual(name, U_l, U_r):
    m = (Material(1.0, -0.999, 1.0, 1.0, 1.0) if name == "near-hyperbolic"
         else PRESETS[name])
    p = solve(m, U_l, U_r)
    assert_chained(p)
    assert p.right_state.T == U_r.T
    jumps = max(abs(w.right.v - w.left.v) for w in p.waves)
    assert abs(p.right_state.v - U_r.v) <= 1e-11 * max(1.0, jumps)
    if p.waves[-1].family == FORWARD:
        assert p.right_state == U_r
    assert check_rh(p) < 1e-9


def seed_2024_sweep():
    """The acceptance sweep's problems (run_invariant_suite with seed 2024
    and 1000 trials), each also mirrored and negated."""
    rng = random.Random(2024)
    for i in range(1000):
        m = PRESETS[("cubic", "quintic")[i % 2]]
        U_l = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        U_r = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        yield m, U_l, U_r
        yield m, State(-U_r.T, U_r.v), State(-U_l.T, U_l.v)
        yield m, State(-U_l.T, -U_l.v), State(-U_r.T, -U_r.v)


def test_forward_legs_end_exactly_at_the_right_state():
    # the forward legs are built back from U_r, so no rounding of the
    # middle velocity reaches the right state
    ending_forward = 0
    for m, U_l, U_r in seed_2024_sweep():
        p = solve(m, U_l, U_r)
        if p.waves[-1].family == FORWARD:
            assert p.right_state == U_r, (m, U_l, U_r)
            ending_forward += 1
    assert ending_forward > 2500


def count_calls(monkeypatch, module, name):
    """Calls of module.name, counted through every barwaves module that
    imported it by name."""
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    inject(monkeypatch, module, name, counting)
    return calls


@pytest.mark.parametrize("name", ["cubic", "quintic"])
def test_a_solve_makes_at_most_two_tangency_calls(monkeypatch, name):
    # a solve needs the tangency stresses of T_l and T_r, each once; for
    # n = 1 both are closed form
    m = PRESETS[name]
    tangencies = count_calls(monkeypatch, material, "tangent_point")
    newton = []
    root_finder = material._newton_bisect

    def counted_newton(*args):
        newton.append(args)
        return root_finder(*args)

    # only tangent_point (and invert_strain) read material's binding
    monkeypatch.setattr(material, "_newton_bisect", counted_newton)
    rng = random.Random(8)
    for i in range(200):
        v_max = 0.0 if i % 2 else 5.0
        U_l = State(rng.uniform(-3.0, 3.0), rng.uniform(-v_max, v_max))
        U_r = State(rng.uniform(-3.0, 3.0), rng.uniform(-v_max, v_max))
        calls_before, newton_before = len(tangencies), len(newton)
        solve(m, U_l, U_r)
        assert len(tangencies) - calls_before <= 2
        assert len(newton) - newton_before <= (0 if m.n == 1.0 else 2)
    assert len(tangencies) > 300
    assert (len(newton) > 0) == (m.n != 1.0)


def test_quintic_box_solves_take_pinned_rtsafe_steps(monkeypatch):
    # each rtsafe step takes one slope.  On the benchmark's box (|T| <= 3,
    # |v| <= 5) the tangency's closed-form start is accepted within the
    # residual's roundoff and takes no step, where rtsafe from [0, A] took
    # 6.2 and the polish of the start about one: 15.04 steps per solve
    # went to 4.55 and then to the middle stress's 2.61
    steps = {"tangency": 0, "middle": 0}
    root_finder = material._newton_bisect

    def counting(key):
        def counted(fn, dfn, *args):
            def slope(x):
                steps[key] += 1
                return dfn(x)
            return root_finder(fn, slope, *args)
        return counted

    monkeypatch.setattr(material, "_newton_bisect", counting("tangency"))
    monkeypatch.setattr(riemann, "_newton_bisect", counting("middle"))
    rng = random.Random(2024)
    for _ in range(1000):
        solve(PRESETS["quintic"],
              State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)),
              State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)))
    assert steps == {"tangency": 0, "middle": 2608}


def assert_names_both_states(error, U_l, U_r):
    text = str(error)
    assert str(U_l) in text and str(U_r) in text, text


# Faults written once and injected into both paths (conftest): off every
# dividing curve the root finder runs, and from a seed on one side of the
# root the bracket search widens.
OFF_CURVE = (State(-1.0, 0.3), State(1.2, -2.0))
ONE_SIDED = (State(-1.0, 0.3), State(1.2, -6.0))


def test_no_bracket_error_names_both_states(monkeypatch, cubic):
    inject(monkeypatch, riemann, "_widen", lambda widen: lambda *args: (
        2 + 0 * widen(*args)[0], *widen(*args)[1:]))
    scalar, lane = errors_on_both_paths(cubic, *ONE_SIDED)
    assert isinstance(scalar, NoBracket)
    assert str(scalar).startswith("no bracket for the middle stress")
    assert str(lane) == str(scalar)
    assert_names_both_states(scalar, *ONE_SIDED)


def test_missed_residual_error_names_both_states(monkeypatch, cubic):
    # root finders that return the low end of their bracket
    fault_root_finders(monkeypatch, lambda root, lo, hi: lo)
    scalar, lane = errors_on_both_paths(cubic, *OFF_CURVE)
    for text in (str(scalar), str(lane)):
        # bench/workloads.is_residual_fault matches both ends of the message
        assert text.startswith("middle-stress residual")
        assert text.endswith("misses the tolerance")
    assert isinstance(scalar, NoBracket)
    assert_names_both_states(scalar, *OFF_CURVE)


def test_middle_stress_gate_is_relative_at_small_scale(monkeypatch, cubic):
    # a root finder that stops 0.4% of the middle stress past the root: at
    # velocity scale 1e-10 the residual there is 8e-13, which a gate with
    # an absolute floor of 1.0 took for converged.  The error is set by the
    # root, not by the bracket, which the Hermite start narrows.
    U_l, U_r = State(-4e-10, 3e-10), State(7e-10, -2e-10)
    assert solve(cubic, U_l, U_r).region_label == "A6"
    fault_root_finders(monkeypatch,
                       lambda root, lo, hi: root + 4e-3 * abs(root))
    for error in errors_on_both_paths(cubic, U_l, U_r):
        assert str(error).endswith("misses the tolerance")


@pytest.mark.parametrize("U_l,U_r", [
    # an atlas cell one grid step off the diagonal
    (State(0.7517251515951946, 0.0), State(0.7517207169533848, 0.0)),
    (State(-1033.4145599850692, 0.0), State(-1033.4145582930532, -0.0)),
])
def test_narrow_shock_residual_is_judged_at_the_stress_scale(cubic, U_l, U_r):
    # the strain difference across a narrow shock cancels, so its velocity
    # jump carries roundoff of the order eps*T*w(T) at the data stress: far
    # above 1e-11 of the tiny jumps, and at T = 1e3 above 1e-11 absolute
    p = solve(cubic, U_l, U_r)
    assert p.right_state == U_r
    assert_chained(p)


def test_a_shock_whose_strain_difference_rounds_to_0_on_both_paths():
    # its chord slope is 0, so its speed is the characteristic limit, and
    # the lanes, which take no shock speed, give the same label
    m, U_l, U_r = ROUNDED_JUMP
    p = solve(m, U_l, U_r)
    [shock] = p.waves
    assert (shock.kind, shock.family, p.region_label) == (
        SHOCK, BACKWARD, "on-W1")
    assert check_rh(p) < 1e-14 and check_lax(m, shock)
    sol = solve_many(m, U_l.T, U_l.v, U_r.T, U_r.v)
    assert (sol.region_label, sol.error) == ("on-W1", None)


def test_snap_to_a_data_stress_logs_both_stresses(cubic, caplog):
    # near-equal stresses: the root lies within SNAP_TOL of T_l, off the
    # dividing curves, and snaps to it
    caplog.set_level(logging.DEBUG, logger="barwaves.riemann")
    U_l, U_r = State(-1.0, 0.0), State(-1.0 * (1.0 + 1e-13), 0.0)
    p = solve(cubic, U_l, U_r)
    [record] = caplog.records
    root, T_d = record.args
    assert record.levelno == logging.DEBUG and T_d == U_l.T != root
    assert abs(root - T_d) <= riemann.SNAP_TOL * abs(U_r.T)
    assert p.middle_states == () and p.right_state == U_r


def test_solve_off_the_snap_logs_nothing(cubic, caplog):
    caplog.set_level(logging.DEBUG, logger="barwaves")
    solve(cubic, *OFF_CURVE)
    assert caplog.records == []


def test_non_monotone_error_names_both_states(monkeypatch, cubic):
    # the wiggle makes the residual fall from T = 0 to the tangency stress
    # 0.5, so the four dividing samples alone expose it, wherever the root
    # finder samples
    wiggle_curves(monkeypatch)
    scalar, lane = errors_on_both_paths(cubic, *OFF_CURVE)
    assert isinstance(scalar, NonMonotone)
    assert str(scalar).startswith("sampled residuals")
    assert str(lane) == str(scalar)
    assert_names_both_states(scalar, *OFF_CURVE)


def test_overflow_inside_the_middle_stress_solve_is_typed(quintic):
    # the root lies where the quintic strain overflows: the solve stops at
    # the first bracket probe whose residual is not finite
    U_l = State(-31.185142757827975, -7.485358560459473e+245)
    U_r = State(2.8086719315782842e+25, 5.736544277669744e+66)
    with pytest.raises(NoBracket, match=re.escape(f"overflow between {U_l} "
                                                  f"and {U_r}")):
        solve(quintic, U_l, U_r)


def test_infinite_curve_velocities_stop_the_bracket_search(quintic):
    # a bracket probe at T = -1.12e77 meets a backward velocity of -inf and
    # a forward one of +inf: products overflow to inf without raising.  The
    # search took that residual as a bracket end and returned an A3 pattern
    # whose fan ended at v = -inf.
    U_l = State(-6.507205222389178e+36, -1.1115996510032625e+178)
    U_r = State(1.106474216449548e+46, -3.2146656808712292e+240)
    with pytest.raises(NoBracket, match=re.escape(
            f"wave-curve velocities overflow between {U_l} and {U_r}")):
        solve(quintic, U_l, U_r)


def test_tiny_data_is_not_taken_for_a_point_on_a_wave_curve():
    # both velocities are 0 while the backward curve through U_l reaches
    # 3.5e-10 at T_r: an absolute on-curve tolerance of 1e-9 took U_r for a
    # point on it and returned that velocity as the right state
    m = Material(1.0, -0.999, 1.0, 2.0, 1.0)
    U_l = State(2.0895667501753925e-09, 0.0)
    U_r = State(1.3037929629910263e-08, 0.0)
    p = solve(m, U_l, U_r)
    assert p.region_label == "B12"
    assert p.zero_velocity_case == "VI"
    assert p.right_state.T == U_r.T
    jumps = max(abs(w.right.v - w.left.v) for w in p.waves)
    assert abs(p.right_state.v) <= 1e-11 * jumps
    assert_chained(p)


@pytest.mark.parametrize("name,U_l,T_r,dv", [
    ("cubic", State(-1.0, 0.0), -1.0001, 0.0),
    ("cubic", State(-1.0, 0.0), -1.0001, "on-W1"),
    ("cubic", State(0.5, 1e-4), 0.5001, -2e-4),
    ("quintic", State(-0.3, 0.0), 0.3, 0.0),
    ("quintic", State(2.0, -1e-3), 1.999, "on-W2"),
])
@pytest.mark.parametrize("V", [1e6, -1e6])
def test_common_velocity_shift_only_shifts_the_solution(name, U_l, T_r,
                                                        dv, V):
    # the system is Galilean in v, so an on-curve tolerance taken from
    # velocities instead of velocity jumps would take U_r for a point on a
    # wave curve once |v| dwarfs the jumps
    m = PRESETS[name]
    if dv == "on-W1":
        dv = backward_v(m, U_l, T_r) - U_l.v
    elif dv == "on-W2":
        dv = forward_v(m, U_l, T_r) - U_l.v
    U_r = State(T_r, U_l.v + dv)
    p = solve(m, U_l, U_r)
    q = solve(m, State(U_l.T, U_l.v + V), State(U_r.T, U_r.v + V))
    assert q.region_label == p.region_label
    assert q.zero_velocity_case is None
    assert q.right_state.T == U_r.T
    assert q.right_state.v == pytest.approx(U_r.v + V, abs=1e-9)
    assert [(w.kind, w.family) for w in q.waves] == [
        (w.kind, w.family) for w in p.waves]
    for w, w0 in zip(q.waves, p.waves):
        # a few ulps of V, against velocity jumps of 1e-4 and more
        for s, s0 in ((w.left, w0.left), (w.right, w0.right)):
            assert s.T == pytest.approx(s0.T, abs=1e-9)
            assert s.v - V == pytest.approx(s0.v, abs=1e-9)
        assert w.speed_head == pytest.approx(w0.speed_head, rel=1e-6)
        assert w.speed_tail == pytest.approx(w0.speed_tail, rel=1e-6)
    assert_chained(q)


@pytest.mark.parametrize("name,T_l", [("quintic", -1e60),
                                       ("cubic", -1e100),
                                       ("quintic", -1e80),
                                       ("quintic", 1e80)])
def test_overflowing_curve_velocities_raise_a_typed_error(name, T_l):
    # the backward curve reaches T_r = 1 at an infinite velocity; an
    # on-curve tolerance scaled by it must not accept that as a solution.
    # At |T_l| = 1e80 the quintic strain and tangency overflow a float.
    U_l, U_r = State(T_l, 0.0), State(1.0, 0.0)
    with pytest.raises(NoBracket, match=re.escape(f"overflow between {U_l} "
                                                  f"and {U_r}")):
        solve(PRESETS[name], U_l, U_r)


@pytest.mark.parametrize("T_l", [-1e80, 1e80])
def test_constitutive_overflow_in_thresholds_is_a_typed_error(quintic, T_l):
    with pytest.raises(RootNotBracketed, match=re.escape(f"{T_l}")):
        thresholds(quintic, T_l)


def test_tiny_magnitude_solve_is_resolved_to_its_own_scale(quintic):
    # a residual target of 1e-12*max(1, |v|) is absolute at this scale and
    # passes velocity errors of 5e-7 relative to the data; the root finder
    # must resolve the middle stress relative to the data instead
    U_l, U_r = State(-3e-5, 2e-6), State(4e-5, -1e-6)
    p = solve(quintic, U_l, U_r)
    assert abs(p.right_state.v - U_r.v) <= 1e-12 * 3e-6
    T_mid = middle_stress(p)
    v_mid = backward_v(quintic, U_l, T_mid)
    assert forward_v(quintic, State(T_mid, v_mid), U_r.T) == pytest.approx(
        U_r.v, rel=1e-12)


def test_newton_bisect_resolves_roots_at_any_magnitude():
    for root in (1e-200, -3e-9, 0.75, 2e150):
        def fn(x):
            return x - root

        def dfn(x):
            return 1.0
        lo, hi = -2.0 * abs(root), 2.0 * abs(root)
        assert _newton_bisect(fn, dfn, lo, hi, fn(lo), fn(hi)) == root
    # a curved function whose Newton iterates approach from one side
    got = _newton_bisect(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x,
                         0.0, 4.0, -2.0, 62.0)
    assert got == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16)


@pytest.mark.parametrize("slope", [math.inf, math.nan, 0.0, -1.0])
def test_newton_bisect_bisects_on_a_slope_that_is_not_positive_finite(slope):
    # an overflowed slope gives a zero Newton step, which must not be taken
    # for convergence at the bracket end
    got = _newton_bisect(lambda x: x - 0.3, lambda x: slope, 0.0, 1.0,
                         -0.3, 0.7)
    assert abs(got - 0.3) <= math.ulp(0.3)


def hermite_cubic(x, root):
    """An increasing cubic with its root at root, curved like the
    middle-stress residual over a bracket, and its slope."""
    u = x - root
    return u * (1.0 + u * (0.2 + 0.1 * u)), 1.0 + u * (0.4 + 0.3 * u)


def hermite_start_at(lo, hi, root, xp=math):
    (f_lo, d_lo), (f_hi, d_hi) = (hermite_cubic(lo, root),
                                  hermite_cubic(hi, root))
    return riemann._hermite_start(lo, hi, f_lo, f_hi, d_lo, d_hi, xp)


def test_hermite_start_is_the_root_of_a_cubic_residual():
    # a cubic is its own Hermite interpolant: the start is its root
    cases = [(lo, hi, lo + (hi - lo) * k / 10)
             for lo, hi in ((-1.0, 2.0), (-3.0, 0.5), (0.25, 0.75))
             for k in range(1, 10)]
    for lo, hi, root in cases:
        assert abs(hermite_start_at(lo, hi, root) - root) <= math.ulp(
            hi - lo), (lo, hi, root)
    # the lanes take the same steps, bit for bit
    import numpy as np
    lo, hi, root = (np.array(a) for a in zip(*cases))
    assert hermite_start_at(lo, hi, root, np).tolist() == [
        hermite_start_at(*case) for case in cases]


def test_hermite_start_scales_exactly_with_power_of_two_units():
    # stresses times 1/4 and residuals times 8: slopes times 32
    (f_lo, d_lo), (f_hi, d_hi) = (hermite_cubic(-1.0, 0.3),
                                  hermite_cubic(2.0, 0.3))
    x = riemann._hermite_start(-1.0, 2.0, f_lo, f_hi, d_lo, d_hi)
    assert riemann._hermite_start(-0.25, 0.5, 8.0 * f_lo, 8.0 * f_hi,
                                  32.0 * d_lo, 32.0 * d_hi) == 0.25 * x


@pytest.mark.parametrize("slope", [math.inf, math.nan, 0.0, -1.0])
def test_hermite_start_falls_back_on_a_slope_that_is_not_positive_finite(
        slope):
    # rtsafe's own start: the end with the smaller |f|
    assert riemann._hermite_start(0.0, 1.0, -0.3, 0.7, slope, 1.0) == 0.0
    assert riemann._hermite_start(0.0, 1.0, -0.8, 0.2, 1.0, slope) == 1.0


def test_hermite_start_falls_back_at_a_zero_end_value():
    assert riemann._hermite_start(0.0, 1.0, 0.0, 0.7, 1.0, 1.0) == 0.0
    assert riemann._hermite_start(0.0, 1.0, -0.7, 0.0, 1.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_equals_negated_left_stress(cubic, quintic):
    for m in (cubic, quintic):
        for T_l in (-2.0, -0.7, -0.05):
            th = thresholds(m, T_l)
            assert th.T_star == pytest.approx(-T_l, abs=1e-12, rel=1e-12)
            assert th.T_star_star > th.T_star > 0.0


def test_threshold_mirrored(cubic):
    th = thresholds(cubic, 1.0)
    assert th.T_star == pytest.approx(-1.0, abs=1e-12)
    assert th.T_star_star < th.T_star < 0.0


def test_threshold_cubic_value_and_residual(cubic):
    th = thresholds(cubic, -1.0)
    assert th.T_star_star == pytest.approx(1.406, abs=5e-4)
    Tt = tangent_point(cubic, -1.0)
    lhs = (th.T_star_star - Tt) * (strain(cubic, th.T_star_star)
                                   - strain(cubic, Tt))
    rhs = (Tt + 1.0) ** 2 * strain_prime(cubic, Tt)
    assert abs(lhs - rhs) < 1e-10


def test_threshold_first_is_exactly_minus_left_stress(quintic):
    for T_l in (-2.7, -0.3, 1.9):
        assert thresholds(quintic, T_l).T_star == -T_l


@pytest.mark.parametrize("T_l", [-1e-50, -1e-170, 1e-170])
def test_thresholds_at_tiny_left_stress(cubic, T_l):
    # at tiny stresses the strain is linear, where T* = |T_l| and
    # T** = 2*|T_l| (tangency at -T_l/2, equal velocities beyond it)
    th = thresholds(cubic, T_l)
    assert th.T_star == -T_l
    assert th.T_star_star / abs(T_l) == pytest.approx(
        -math.copysign(2.0, T_l), rel=1e-12)


def test_solve_zero_velocity_with_tiny_left_stress(cubic):
    p = solve(cubic, State(-1e-130, 0.0), State(1.0, 0.0))
    assert p.zero_velocity_case == "V"
    assert p.right_state.T == 1.0
    assert abs(p.right_state.v) <= 1e-12
    assert_chained(p)


def test_every_returned_second_threshold_lies_beyond_the_first():
    # where the strain or the tangency overflows, no T** can be computed:
    # thresholds raises there instead of returning |T**| <= |T*|
    rng = random.Random(27)
    returned = raised = 0
    for _ in range(2000):
        alpha = 10.0 ** rng.uniform(-30.0, 30.0)
        m = Material(alpha, -alpha * rng.uniform(1e-6, 1.0),
                     10.0 ** rng.uniform(-30.0, 30.0), rng.uniform(0.05, 20.0),
                     10.0 ** rng.uniform(-300.0, 300.0))
        T_l = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)
        try:
            th = thresholds(m, T_l)
        except RootNotBracketed:
            raised += 1
            continue
        returned += 1
        assert th.T_star == -T_l
        assert abs(th.T_star_star) > abs(th.T_star), (m, T_l, th)
        assert math.copysign(1.0, th.T_star_star) == -math.copysign(1.0, T_l)
    assert returned > 1000 and raised > 500


@pytest.mark.parametrize("m,T_l", [
    # T**/|T_l| read -1.1775, 1.0047 and -1.0559 where 50-digit mpmath
    # gives -1.3073, 1.1680 and -1.0831: the strain overflows between T_l
    # and the root, and rtsafe converged to the overflow point
    (Material(6.871000203587529e+29, -4.904734422212335e+29,
              2.6403338727684858e-12, 0.9769440662068365,
              5.614031965045691e+126), 1.2959300168452668e+98),
    (Material(5.255771923835004e+19, -3.8860399793662756e+18,
              45606114.61486401, 3.9617524311366763, 2.410002747181548e-205),
     -1.1626026069874911e+29),
    (Material(1.9552984455657587e+19, -3.249253336203773e+18,
              4.750416265325514e-18, 12.915778874362058,
              4.0120237854000135e-278), 1.6967682276942076e+19),
])
def test_thresholds_raise_where_the_strain_overflows_before_the_root(m, T_l):
    with pytest.raises(RootNotBracketed, match=re.escape(f"{T_l}")):
        thresholds(m, T_l)


def test_threshold_requires_nonzero(cubic):
    with pytest.raises(ValueError):
        thresholds(cubic, 0.0)


# ---------------------------------------------------------------------------
# linear closed form


def test_linear_middle_state_zero_velocity(linear):
    p = solve(linear, State(1.0, 0.0), State(0.2, 0.0))
    k = linear.alpha + linear.beta
    mid = p.middle_states[0]
    assert mid.T == pytest.approx(0.6, abs=1e-14)
    assert mid.v == pytest.approx(0.5 * math.sqrt(k) * (0.2 - 1.0), abs=1e-14)
    c = 1.0 / math.sqrt(k)
    assert p.waves[0].speed_head == pytest.approx(-c, abs=1e-14)
    assert p.waves[1].speed_head == pytest.approx(c, abs=1e-14)
    assert all(w.degenerate == "both" for w in p.waves)


def test_linear_unit_impedance_example():
    m = Material.linear(1.5, -0.5, 1.0)  # alpha + beta = 1, rho = 1
    p = solve(m, State(1.0, 0.0), State(0.0, 0.0))
    mid = p.middle_states[0]
    assert mid == State(0.5, -0.5)
    assert p.waves[0].speed_head == -1.0
    assert p.waves[1].speed_head == 1.0


def test_linear_random_data_matches_formula(linear):
    rng = random.Random(3)
    k = linear.alpha + linear.beta
    for _ in range(25):
        U_l = State(rng.uniform(-2, 2), rng.uniform(-2, 2))
        U_r = State(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if U_l == U_r:
            continue
        p = solve(linear, U_l, U_r)
        T_m = 0.5 * (U_r.T + U_l.T) + 0.5 * math.sqrt(
            linear.rho / k) * (U_r.v - U_l.v)
        v_m = 0.5 * (U_r.v + U_l.v) + 0.5 * math.sqrt(
            k / linear.rho) * (U_r.T - U_l.T)
        mid = p.middle_states[0]
        assert mid.T == pytest.approx(T_m, abs=1e-12)
        assert mid.v == pytest.approx(v_m, abs=1e-12)


def test_solve_linear_requires_linear_mode(cubic):
    with pytest.raises(ValueError):
        solve_linear(cubic, State(0.0, 0.0), State(1.0, 0.0))


# ---------------------------------------------------------------------------
# zero-velocity experiment


def test_case_one_structure_and_intermediate_state(cubic):
    T_l, T_r = -0.5, -1.0
    p = solve(cubic, State(T_l, 0.0), State(T_r, 0.0))
    assert p.zero_velocity_case == "I"
    assert [(w.kind, w.family) for w in p.waves] == [
        (RAREFACTION, BACKWARD), (SHOCK, FORWARD)]
    mid = p.middle_states[0]
    # the middle state solves: v = integral of sqrt(strain') from T_l, and
    # v + sqrt((T - T_r)(strain(T) - strain(T_r))) = 0
    assert mid.v == pytest.approx(cubic_fan_integral(T_l, mid.T), abs=1e-10)
    jump = math.sqrt((mid.T - T_r) * (strain(cubic, mid.T)
                                      - strain(cubic, T_r)))
    assert mid.v + jump == pytest.approx(0.0, abs=1e-10)
    # forward shock speed: 1/sqrt(rho * d(strain)/dT chord)
    chord = (strain(cubic, T_r) - strain(cubic, mid.T)) / (T_r - mid.T)
    assert p.waves[1].speed_head == pytest.approx(1.0 / math.sqrt(chord),
                                                  rel=1e-12)
    assert_chained(p)


def test_case_four_is_two_shocks(cubic):
    p = solve(cubic, State(-0.5, 0.0), State(0.65, 0.0))
    assert p.zero_velocity_case == "IV"
    assert [(w.kind, w.family) for w in p.waves] == [
        (SHOCK, BACKWARD), (SHOCK, FORWARD)]
    assert 0.0 < middle_stress(p) <= tangent_point(cubic, -0.5)


def test_case_five_has_degenerate_backward_composite(cubic):
    p = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))
    assert p.zero_velocity_case == "V"
    assert [(w.kind, w.family) for w in p.waves] == [
        (SHOCK, BACKWARD), (RAREFACTION, BACKWARD), (SHOCK, FORWARD)]
    lead = p.waves[0]
    assert lead.degenerate == "right"
    assert lead.right.T == pytest.approx(0.5, rel=1e-12)
    assert lead.speed_head == pytest.approx(
        wave_speed(cubic, 0.5, BACKWARD), rel=1e-12)
    assert_chained(p)


@pytest.mark.parametrize("m_name,U_l,U_r", [
    ("cubic", State(-1.0, 0.0), State(1.6, 0.0)),      # backward composite
    ("cubic", State(-1.0, 0.0), State(0.8, -2.9)),     # forward composite
    ("quintic", State(-1.2, 0.0), State(2.0, 0.0)),
    ("quintic", State(1.1, 0.0), State(-2.4, 0.0)),    # mirrored
    ("quintic", State(-1.5, 0.0), State(0.9, -2.0)),
])
def test_degenerate_shock_shares_the_fan_ray_exactly(m_name, U_l, U_r):
    m = PRESETS[m_name]
    p = solve(m, U_l, U_r)
    tied = 0
    for a, b in zip(p.waves, p.waves[1:]):
        if a.kind == RAREFACTION and b.degenerate == "left":
            assert b.speed_head == a.speed_tail
            tied += 1
        if a.degenerate == "right" and b.kind == RAREFACTION:
            assert a.speed_tail == b.speed_head
            tied += 1
    for w in p.shocks():
        if w.degenerate == "left":
            assert w.speed_head == wave_speed(m, w.left.T, w.family)
        elif w.degenerate == "right":
            assert w.speed_head == wave_speed(m, w.right.T, w.family)
    assert tied >= 1


def test_zero_velocity_case_bands(cubic):
    def case(T_l, T_r):
        return solve(cubic, State(T_l, 0.0),
                     State(T_r, 0.0)).zero_velocity_case

    for T_r, label in [(-2.0, "I"), (-0.5, "II"), (0.5, "III"),
                       (1.2, "IV"), (1.5, "V")]:
        assert case(-1.0, T_r) == label
    for T_r, label in [(2.0, "VI"), (0.5, "VII"), (-0.7, "VIII"),
                       (-1.2, "IX"), (-2.0, "X")]:
        assert case(1.0, T_r) == label
    assert case(0.0, -1.0) == "XI"
    assert case(0.0, 1.0) == "XII"
    assert case(-1.0, -1.0) is None



def branching_zero_velocity_case(T_l, T_r, T_bar, composite):
    """The solution type as the paper's table reads, branch by branch."""
    if T_l == 0.0:
        return "XI" if T_r < 0.0 else "XII"
    if T_l > 0.0:
        negated = branching_zero_velocity_case(-T_l, -T_r, -T_bar, composite)
        return {"I": "VI", "II": "VII", "III": "VIII", "IV": "IX",
                "V": "X"}[negated]
    if T_r < T_l:
        return "I"
    if T_r <= 0.0:
        return "II"
    if T_bar < 0.0:
        return "III"
    return "V" if composite else "IV"


def leg_summary(legs):
    """The code of the legs of a wave curve, branch by branch."""
    if not legs:
        return riemann._EMPTY
    if len(legs) == 2:
        return riemann._SR if legs[0].kind == SHOCK else riemann._X
    leg = legs[0]
    if leg.kind == RAREFACTION:
        return riemann._R
    if leg.family == FORWARD and leg.left.T * leg.right.T < 0.0:
        return riemann._X
    return riemann._S


def branching_region_label(T_l, T_r, T_bar, back, fwd):
    """The label off the dividing curves, as the region table reads."""
    if abs(T_r) <= riemann.BOUNDARY_TOL * max(abs(T_l), abs(T_r)):
        return "on-T0"
    system = "A" if T_l < 0.0 else ("B" if T_l > 0.0 else "C")
    entry = riemann._REGION_MAPS[system].get((back, fwd))
    if entry is None:
        return "unclassified"
    if isinstance(entry, tuple):
        return entry[0] if T_bar < 0.0 else entry[1]
    return entry


def assert_on_floats_and_lanes(fn, rows, read, want):
    """fn on each row and on all rows as numpy lanes, read into labels."""
    import numpy as np
    assert [read(fn(*row)) for row in rows] == want
    lanes = fn(*(np.array(a) for a in zip(*rows)))
    assert [read(i) for i in lanes] == want


def test_zero_velocity_index_on_floats_and_lanes_follows_the_table():
    # and so do the other classifiers that the scalar solve and the lanes
    # share: the boundary label, the leg summary and the region
    values = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)
    rows = [(a, b, c, composite) for a in values for b in values
            for c in values for composite in (False, True)]
    want = [branching_zero_velocity_case(*row) for row in rows]
    assert set(want) == set(riemann._ZERO_VELOCITY_CASES)
    assert_on_floats_and_lanes(riemann._zero_velocity_index, rows,
                               riemann._ZERO_VELOCITY_CASES.__getitem__,
                               want)

    rows = [(row, T_l) for row in range(4) for T_l in values]
    want = [["on-W1", "on-W2", "on-W2F", "on-W2B"][row] if T_l < 0.0
            else ["on-W1", "on-W2", "on-W2E", "on-W2C"][row]
            for row, T_l in rows]
    assert_on_floats_and_lanes(riemann._boundary_index, rows,
                               riemann._LABELS.__getitem__, want)

    # the middle stress at the anchor, on both sides of zero, across it,
    # at the tangency stress (y == Tt) and past it
    rows, want = [], []
    for m in (PRESETS["cubic"], PRESETS["quintic"]):
        for family, codes in ((BACKWARD, (riemann._S, riemann._SR)),
                              (FORWARD, (riemann._X, riemann._X))):
            for T_a in (-1.0, -0.0, 0.0, 0.5, 1.0):
                curve = WaveCurve(m, State(T_a, 0.0), family)
                for T_bar in (*values, 0.3, -0.3, T_a, curve.tangency):
                    rows.append((curve.A, curve.s, curve.Tt, T_bar, T_a,
                                 *codes))
                    want.append(leg_summary(curve.legs(
                        State(T_bar, curve.v(T_bar)))))
    assert set(want) == set(range(5))
    assert_on_floats_and_lanes(riemann._summary, rows, int, want)

    # on-T0 within BOUNDARY_TOL of T_r = 0, and every pair of leg codes
    # on both sides of zero middle stress
    rows = [(T_l, T_r, T_bar, back, fwd)
            for T_l in (-1.0, -0.0, 0.0, 1.0)
            for T_r in (-1.0, -1e-9, -0.0, 0.0, 2e-9, 1.0)
            for T_bar in (-1.0, -0.0, 0.0, 1.0)
            for back in range(5) for fwd in range(5)]
    want = [branching_region_label(*row) for row in rows]
    assert_on_floats_and_lanes(
        riemann._region_index, rows,
        lambda i: riemann._LABELS[riemann._REGIONS[i]], want)
    assert set(want) == set(riemann._LABELS[riemann._LABELS.index("on-T0"):])

#: Default atlas cells (cubic at --res 81, quintic at --res 41) whose right
#: stress lies within an ulp of the first threshold -T_l and whose middle
#: stress is zero: type IV (IX mirrored), as their waves are.
ON_THE_FIRST_THRESHOLD = [
    ("cubic", -1.8, 1.7999999999999998, "on-W2F", "IV"),
    ("cubic", -1.3500000000000001, 1.3499999999999996, "on-W2F", "IV"),
    ("cubic", -1.05, 1.0499999999999998, "on-W2F", "IV"),
    ("cubic", -0.30000000000000004, 0.29999999999999982, "on-W2F", "IV"),
    ("cubic", 1.2000000000000002, -1.2, "on-W2E", "IX"),
    ("cubic", 1.9500000000000002, -1.95, "on-W2E", "IX"),
    ("quintic", -1.8, 1.7999999999999998, "on-W2F", "IV"),
    ("quintic", -0.30000000000000004, 0.29999999999999982, "on-W2F", "IV"),
    ("quintic", 1.2000000000000002, -1.2, "on-W2E", "IX"),
]


@pytest.mark.parametrize("name,T_l,T_r,label,case", ON_THE_FIRST_THRESHOLD)
def test_zero_middle_stress_is_past_the_first_threshold(name, T_l, T_r,
                                                        label, case):
    # the type is read off the middle stress, not off T_r against -T_l
    m = PRESETS[name]
    p = solve(m, State(T_l, 0.0), State(T_r, 0.0))
    assert (p.region_label, p.zero_velocity_case) == (label, case)
    assert p.waves[0].right.T == 0.0
    sol = solve_many(m, T_l, 0.0, T_r, 0.0)
    assert (sol.region_label, sol.zero_velocity_case) == (label, case)
    assert sol.T_bar == 0.0


def test_nonzero_velocity_has_no_case_label(cubic):
    p = solve(cubic, State(-1.0, 0.1), State(1.0, 0.0))
    assert p.zero_velocity_case is None


def test_public_names_resolve():
    missing = [name for name in barwaves.__all__
               if not hasattr(barwaves, name)]
    assert not missing


N_MATERIALS = {
    "cubic": PRESETS["cubic"],
    "quintic": PRESETS["quintic"],
    "n0.5": Material(1.3, -0.4, 0.7, 0.5, 0.5),
    "n1.5": Material(1.3, -0.4, 0.7, 1.5, 0.5),
    "n3.5": Material(1.3, -0.4, 0.7, 3.5, 0.5),
    "near-hyperbolic": Material(1.0, -0.999, 1.0, 1.0, 1.0),
}


def backward_is_composite(p):
    kinds = [w.kind for w in p.waves if w.family == BACKWARD]
    return kinds == [SHOCK, RAREFACTION]


@pytest.mark.parametrize("m_name,T_l,T_r", [
    ("cubic", -3.8076186995778967, 5.00156954931507),
    ("cubic", 0.12368246175624581, -0.23687969797622757),
    ("quintic", -0.9121040271546975, 1.2581368318882726),
    ("n3.5", -0.1397209768759371, 0.2662193679398469),
    ("near-hyperbolic", 0.24188866023101632, -0.31771911009178544),
])
def test_tangency_dividing_curve_is_case_four_or_nine(m_name, T_l, T_r):
    # on the curve through the tangency state the middle stress is the
    # tangency stress itself: the backward wave is one degenerate shock,
    # with no fan, which is type IV (IX mirrored) and not V (X)
    p = solve(N_MATERIALS[m_name], State(T_l, 0.0), State(T_r, 0.0))
    assert p.region_label == ("on-W2B" if T_l < 0.0 else "on-W2C")
    assert p.zero_velocity_case == ("IV" if T_l < 0.0 else "IX")
    backward = [w for w in p.waves if w.family == BACKWARD]
    assert [(w.kind, w.degenerate) for w in backward] == [(SHOCK, "right")]


def test_case_five_or_ten_exactly_when_backward_wave_is_composite():
    # half the right stresses lie within 1e-8 (relative) of T**, where the
    # middle stress is at or next to the tangency stress
    rng = random.Random(808)
    seen = set()
    for m in N_MATERIALS.values():
        for _ in range(150):
            T_l = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 2.0)
            T_r = -T_l * rng.uniform(-2.0, 4.0)
            if rng.random() < 0.5:
                T_r = thresholds(m, T_l).T_star_star * (
                    1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(
                        -16.0, -8.0))
            p = solve(m, State(T_l, 0.0), State(T_r, 0.0))
            composite = backward_is_composite(p)
            assert (p.zero_velocity_case in ("V", "X")) == composite
            seen.add(composite)
    assert seen == {True, False}


def reference_case(m, T_l, T_r):
    """Zero-velocity solution type from the thresholds alone."""
    if T_l == 0.0:
        return "XI" if T_r < 0.0 else "XII"
    th = thresholds(m, T_l)
    # T_l > 0 mirrors the bands of T_l < 0: compare the stresses times s
    s = -1.0 if T_l > 0.0 else 1.0
    t = s * T_r
    hits = [t < s * T_l, t <= 0.0, t < s * th.T_star,
            t <= s * th.T_star_star, True]
    names = (["I", "II", "III", "IV", "V"] if s > 0.0
             else ["VI", "VII", "VIII", "IX", "X"])
    return names[hits.index(True)]


def test_solve_case_matches_the_threshold_reference():
    rng = random.Random(4242)
    seen = set()
    for m in N_MATERIALS.values():
        for i in range(80):
            T_l = 0.0 if i % 20 == 0 else (
                rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 3.0))
            if T_l == 0.0:
                dividing = [0.0]
                T_r = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 3.0)
            else:
                th = thresholds(m, T_l)
                dividing = [T_l, 0.0, th.T_star, th.T_star_star]
                T_r = -T_l * rng.uniform(-2.0, 1.2 * th.T_star_star / -T_l)
            scale = max(abs(T_l), abs(T_r))
            if any(abs(T_r - T_d) <= 1e-6 * scale for T_d in dividing):
                continue
            p = solve(m, State(T_l, 0.0), State(T_r, 0.0))
            assert p.zero_velocity_case == reference_case(m, T_l, T_r), (
                m, T_l, T_r)
            seen.add(p.zero_velocity_case)
    assert seen == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX",
                    "X", "XI", "XII"}


# ---------------------------------------------------------------------------
# region labels


@pytest.mark.parametrize("label,T_mid,T_r", A_CASES)
def test_region_labels_negative_left_stress(cubic, label, T_mid, T_r):
    U_l = State(-1.0, 0.0)
    U_r = place(cubic, U_l, T_mid, T_r)
    p = solve(cubic, U_l, U_r)
    assert p.region_label == label
    assert middle_stress(p) == pytest.approx(T_mid, abs=1e-9)


def test_region_band_above_backward_curve(cubic):
    # a right state just above the composite branch of the backward curve
    # lands in the backward-composite band
    U_l = State(-1.0, 0.0)
    U_r = State(1.2, backward_v(cubic, U_l, 1.2) + 1e-3)
    p = solve(cubic, U_l, U_r)
    assert p.region_label in ("A10", "A11", "A12")
    assert p.region_label == "A11"  # short forward fan back down in stress


def test_rarefaction_wave_speeds_are_edge_characteristics(cubic):
    p = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))
    for w in p.waves:
        if w.kind == RAREFACTION:
            assert w.speed_head == wave_speed(cubic, w.left.T, w.family)
            assert w.speed_tail == wave_speed(cubic, w.right.T, w.family)


def test_region_label_swallowed_fan_is_composite_band(cubic):
    # far up the composite band the fan is swallowed but the band label
    # stays geometric
    U_l = State(-1.0, 0.0)
    U_r = place(cubic, U_l, -0.5, 1.4)  # tangency of 1.4 is -0.7 < -0.5
    p = solve(cubic, U_l, U_r)
    assert p.region_label == "A6"
    assert [w.kind for w in p.waves] == [SHOCK, SHOCK]


@pytest.mark.parametrize("label,T_mid,T_r", B_CASES)
def test_region_labels_positive_left_stress(cubic, label, T_mid, T_r):
    U_l = State(1.0, 0.0)
    U_r = place(cubic, U_l, T_mid, T_r)
    assert solve(cubic, U_l, U_r).region_label == label


def test_region_labels_zero_left_stress(cubic):
    U_l = State(0.0, 0.1)
    seen = set()
    for label, T_mid, T_r in C_CASES:
        U_r = place(cubic, U_l, T_mid, T_r)
        got = solve(cubic, U_l, U_r).region_label
        assert got == label
        seen.add(got)
    assert len(seen) == 6


def test_zero_left_stress_never_gets_ab_labels(cubic):
    rng = random.Random(11)
    for _ in range(40):
        U_l = State(0.0, rng.uniform(-2, 2))
        U_r = State(rng.uniform(-2, 2), rng.uniform(-2, 2))
        label = solve(cubic, U_l, U_r).region_label
        assert label[0] not in ("A", "B")


def test_boundary_labels(cubic):
    U_l = State(-1.0, 0.0)
    Tt = tangent_point(cubic, -1.0)
    B = State(Tt, backward_v(cubic, U_l, Tt))
    F = State(0.0, backward_v(cubic, U_l, 0.0))
    assert solve(cubic, U_l, State(
        0.7, backward_v(cubic, U_l, 0.7))).region_label == "on-W1"
    assert solve(cubic, U_l, State(
        -1.8, forward_v(cubic, U_l, -1.8))).region_label == "on-W2"
    assert solve(cubic, U_l, State(
        1.3, forward_v(cubic, B, 1.3))).region_label == "on-W2B"
    assert solve(cubic, U_l, State(
        0.9, forward_v(cubic, F, 0.9))).region_label == "on-W2F"
    assert solve(cubic, U_l, State(
        0.0, backward_v(cubic, U_l, 0.0) + 0.9)).region_label == "on-T0"
    mirrored_l = State(1.0, 0.0)
    E = State(0.0, backward_v(cubic, mirrored_l, 0.0))
    assert solve(cubic, mirrored_l, State(
        -0.9, forward_v(cubic, E, -0.9))).region_label == "on-W2E"
    Tc = tangent_point(cubic, 1.0)
    C = State(Tc, backward_v(cubic, mirrored_l, Tc))
    assert solve(cubic, mirrored_l, State(
        -1.3, forward_v(cubic, C, -1.3))).region_label == "on-W2C"
    # T_l = 0: only W1, W2 and the zero-stress line divide the plane
    Z = State(0.0, 0.5)
    for T_r in (1.2, -0.8):
        assert solve(cubic, Z, State(
            T_r, backward_v(cubic, Z, T_r))).region_label == "on-W1"
        assert solve(cubic, Z, State(
            T_r, forward_v(cubic, Z, T_r))).region_label == "on-W2"
    assert solve(cubic, Z, State(0.0, 1.5)).region_label == "on-T0"


@pytest.mark.parametrize("name", ["cubic", "quintic"])
@pytest.mark.parametrize("T_l", [-2.3, -0.6, 0.4, 1.7])
def test_right_state_on_the_tangency_curve_leaves_no_roundoff_fan(name, T_l):
    # U_r on the forward curve from the tangency point (Tt, v_t) of the
    # backward curve (W2B for T_l < 0, W2C for T_l > 0) has middle stress
    # Tt: the backward wave is one degenerate shock ending there.  A root
    # found an ulp beyond Tt instead adds a fan of roundoff width.
    m = PRESETS[name]
    U_l = State(T_l, 0.3)
    Tt = tangent_point(m, T_l)
    tangency = State(Tt, backward_v(m, U_l, Tt))
    for T_r in (-2.9, -1.1, -0.35, 0.05, 0.8, 2.6):
        p = solve(m, U_l, State(T_r, forward_v(m, tangency, T_r)))
        assert p.region_label == ("on-W2B" if T_l < 0.0 else "on-W2C")
        for w in p.waves:
            if w.kind == RAREFACTION:
                assert abs(w.right.T - w.left.T) > 1e-12 * max(
                    abs(w.left.T), abs(w.right.T))
        back = [w for w in p.waves if w.family == BACKWARD]
        assert [(w.kind, w.degenerate, w.right.T) for w in back] == [
            (SHOCK, "right", Tt)]
        assert_chained(p)


def test_patterns_pass_verification_batch(cubic, quintic):
    rng = random.Random(5)
    from barwaves import check_dissipation, check_rh
    for _ in range(100):
        m = cubic if rng.random() < 0.5 else quintic
        U_l = State(rng.uniform(-3, 3), rng.uniform(-5, 5))
        U_r = State(rng.uniform(-3, 3), rng.uniform(-5, 5))
        p = solve(m, U_l, U_r)
        assert_chained(p)
        assert p.right_state.T == U_r.T
        assert p.right_state.v == pytest.approx(
            U_r.v, abs=1e-11 * max(1.0, abs(U_l.v), abs(U_r.v)))
        assert check_rh(p) < 1e-9
        assert check_dissipation(p) >= -1e-12


def test_consistency_with_decompositions(cubic):
    # a right state placed on the forward curve of a backward-curve point
    # reproduces exactly that two-step decomposition
    U_l = State(-1.0, 0.0)
    T_mid, T_r = -0.6, 0.45
    U_r = place(cubic, U_l, T_mid, T_r)
    p = solve(cubic, U_l, U_r)
    assert [(w.kind, w.family) for w in p.waves] == [
        (SHOCK, BACKWARD), (RAREFACTION, FORWARD), (SHOCK, FORWARD)]
    assert p.waves[-1].degenerate == "left"
    assert middle_stress(p) == pytest.approx(T_mid, abs=1e-10)


def test_continuity_across_region_boundary(cubic):
    assert continuity_probe(cubic) <= 1e-2


def test_continuity_across_more_boundaries(cubic):
    # crossing the zero-stress line and the tangency-point curve changes
    # the sampled profile only at the order of the perturbation
    from barwaves import sample

    step = 1e-6
    U_l = State(-1.0, 0.0)
    Tt = tangent_point(cubic, -1.0)
    B = State(Tt, backward_v(cubic, U_l, Tt))
    probes = [
        (State(step, 1.2), State(-step, 1.2)),          # zero-stress line
        (State(1.3, forward_v(cubic, B, 1.3) - step),   # tangency curve
         State(1.3, forward_v(cubic, B, 1.3) + step)),
    ]
    for U_a, U_b in probes:
        p_a = solve(cubic, U_l, U_a)
        p_b = solve(cubic, U_l, U_b)
        edges = [s for w in p_a.waves + p_b.waves
                 for s in (w.speed_head, w.speed_tail)]
        worst = 0.0
        for i in range(201):
            xi = -3.0 + 6.0 * i / 200
            if any(abs(xi - e) < 1e-3 for e in edges):
                continue
            a, b = sample(p_a, xi), sample(p_b, xi)
            worst = max(worst, abs(a.T - b.T), abs(a.v - b.v))
        assert worst <= 1e-2
