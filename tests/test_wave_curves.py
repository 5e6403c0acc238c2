import itertools
import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    RAREFACTION,
    SHOCK,
    State,
    shock_speed,
    solve,
    solve_linear,
    strain,
    strain_prime,
    strain_second,
    tangent_point,
    wave_speed,
)
from barwaves import material, wave_curves
from barwaves.material import (
    _fan,
    _fan_table,
    _panel_ends,
    rarefaction_integral,
)
from barwaves.wave_curves import WaveCurve, _w
from conftest import ROUNDED_JUMP, cubic_fan_integral, make_material

stress = st.floats(-3.0, 3.0)


# ---------------------------------------------------------------------------
# backward curve values


def test_backward_passes_through_anchor(cubic):
    U = State(-1.0, 0.4)
    assert WaveCurve(cubic, U, BACKWARD).v(-1.0) == 0.4


def test_backward_value_at_tangency(cubic):
    # degenerate-shock endpoint: v = (Tt - T_l) * sqrt(strain_prime(Tt))
    curve = WaveCurve(cubic, State(-1.0, 0.0), BACKWARD)
    expect = 1.5 * math.sqrt(2.5)
    assert curve.v(0.5) == pytest.approx(expect, rel=1e-12)


def test_backward_rarefaction_value(cubic):
    curve = WaveCurve(cubic, State(-1.0, 0.0), BACKWARD)
    assert curve.v(-2.0) == pytest.approx(
        cubic_fan_integral(-1.0, -2.0), abs=1e-11)
    assert curve.v(-2.0) < 0.0


def test_backward_composite_value(cubic):
    # shock to the tangency stress, then fan onward
    curve = WaveCurve(cubic, State(-1.0, 0.0), BACKWARD)
    expect = 1.5 * math.sqrt(2.5) + cubic_fan_integral(0.5, 1.2)
    assert curve.v(1.2) == pytest.approx(expect, abs=1e-11)


def test_backward_positive_anchor_mirror(cubic):
    # the T_l > 0 curve is the negation of the mirrored T_l < 0 curve
    curve = WaveCurve(cubic, State(1.0, 0.25), BACKWARD)
    mirrored = WaveCurve(cubic, State(-1.0, -0.25), BACKWARD)
    for T in (-2.0, -0.5, 0.2, 0.9, 1.7):
        assert curve.v(T) == -mirrored.v(-T)


@pytest.mark.parametrize("anchor", [State(-1.0, 0.0), State(0.0, 0.3),
                                    State(0.7, -0.2)])
def test_backward_strictly_increasing(cubic, anchor):
    curve = WaveCurve(cubic, anchor, BACKWARD)
    vals = [curve.v(-2.5 + 5.0 * i / 1000) for i in range(1001)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# forward curve values: a curve anchored at the right state of its wave,
# read at the left stress


def test_forward_passes_through_anchor(cubic):
    U = State(0.3, -0.7)
    assert WaveCurve(cubic, U, FORWARD).v(0.3) == -0.7


def test_forward_classical_shock_value(cubic):
    # strain(-2) = -18, strain(-1) = -3: jump = sqrt((-1)(-15)) = sqrt(15)
    curve = WaveCurve(cubic, State(-2.0, 0.0), FORWARD)
    assert curve.v(-1.0) == pytest.approx(-math.sqrt(15.0), rel=1e-14)


def test_forward_shock_from_zero_stress(cubic):
    to_plus = WaveCurve(cubic, State(1.0, 0.0), FORWARD)
    to_minus = WaveCurve(cubic, State(-1.0, 0.0), FORWARD)
    assert to_plus.v(0.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert to_minus.v(0.0) == pytest.approx(-math.sqrt(3.0), rel=1e-14)


def test_forward_composite_value(cubic):
    # fan from -1 to the tangency stress of 0.8, then the degenerate jump
    curve = WaveCurve(cubic, State(0.8, 0.0), FORWARD)
    Tj = -0.4
    expect = (cubic_fan_integral(-1.0, Tj)
              + (0.8 - Tj) * math.sqrt(1.0 + 6.0 * Tj * Tj))
    assert curve.v(-1.0) == pytest.approx(expect, abs=1e-11)


def test_forward_swallowed_fan_is_single_shock(cubic):
    # tangency stress of 3.0 is -1.5 < -1, so the leg is one cross-zero jump
    curve = WaveCurve(cubic, State(3.0, 0.0), FORWARD)
    expect = math.sqrt((3.0 + 1.0) * (57.0 + 3.0))
    assert curve.v(-1.0) == pytest.approx(expect, rel=1e-14)
    legs = curve.legs(State(-1.0, curve.v(-1.0)))
    assert [leg.kind for leg in legs] == [SHOCK]
    assert legs[0].degenerate == ""


@pytest.mark.parametrize("anchor", [State(-1.0, 0.0), State(0.0, 0.3),
                                    State(0.7, -0.2)])
def test_forward_strictly_decreasing(cubic, anchor):
    curve = WaveCurve(cubic, anchor, FORWARD)
    vals = [curve.v(-2.5 + 5.0 * i / 1000) for i in range(1001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@given(T_l=stress, v_l=st.floats(-2.0, 2.0), T=stress)
@settings(deadline=None, max_examples=60)
def test_curves_odd_under_negation(cubic, T_l, v_l, T):
    U, U_neg = State(T_l, v_l), State(-T_l, -v_l)
    for family in (BACKWARD, FORWARD):
        assert WaveCurve(cubic, U_neg, family).v(-T) == pytest.approx(
            -WaveCurve(cubic, U, family).v(T), abs=1e-12)


# ---------------------------------------------------------------------------
# decompositions: the legs of a curve from its anchor to one of its points


def test_decompose_empty_at_anchor(cubic):
    U = State(-1.0, 0.0)
    assert WaveCurve(cubic, U, BACKWARD).legs(U) == []
    assert WaveCurve(cubic, U, FORWARD).legs(U) == []


def test_decompose_backward_composite(cubic):
    curve = WaveCurve(cubic, State(-1.0, 0.0), BACKWARD)
    legs = curve.legs(State(1.2, curve.v(1.2)))
    assert [leg.kind for leg in legs] == [SHOCK, RAREFACTION]
    shock, fan = legs
    assert shock.degenerate == "right"
    assert shock.right.T == pytest.approx(0.5, rel=1e-12)
    assert shock.right.v == pytest.approx(1.5 * math.sqrt(2.5), rel=1e-12)
    assert fan.left == shock.right
    assert fan.right.T == 1.2
    assert fan.right.v == pytest.approx(curve.v(1.2), abs=1e-14)
    # degeneracy: the jump speed equals the backward speed at the junction
    s = shock_speed(cubic, shock.left.T, shock.right.T, BACKWARD)
    assert s == pytest.approx(wave_speed(cubic, 0.5, BACKWARD), rel=1e-12)


def test_decompose_backward_single_shock_owns_tangency(cubic):
    curve = WaveCurve(cubic, State(-1.0, 0.0), BACKWARD)
    legs = curve.legs(State(0.5, curve.v(0.5)))
    assert [leg.kind for leg in legs] == [SHOCK]
    assert legs[0].degenerate == "right"
    legs = curve.legs(State(0.49, curve.v(0.49)))
    assert [leg.kind for leg in legs] == [SHOCK]
    assert legs[0].degenerate == ""


def test_decompose_forward_composite(cubic):
    curve = WaveCurve(cubic, State(0.8, 0.0), FORWARD)
    U = State(-1.0, curve.v(-1.0))
    legs = curve.legs(U)
    assert [leg.kind for leg in legs] == [RAREFACTION, SHOCK]
    fan, shock = legs
    assert shock.degenerate == "left"
    assert fan.left == U
    assert fan.right.T == pytest.approx(tangent_point(cubic, 0.8), rel=1e-12)
    assert fan.right.v - U.v == pytest.approx(
        -cubic_fan_integral(-1.0, -0.4), abs=1e-11)
    # the jump is tangent on its left: speed equals the fan-edge speed
    s = shock_speed(cubic, shock.left.T, shock.right.T, FORWARD)
    assert s == pytest.approx(wave_speed(cubic, shock.left.T, FORWARD),
                              rel=1e-10)
    assert shock.right == curve.U


def test_decompose_forward_mirrored_composite(cubic):
    curve = WaveCurve(cubic, State(-0.8, 0.0), FORWARD)
    legs = curve.legs(State(1.0, curve.v(1.0)))
    assert [leg.kind for leg in legs] == [RAREFACTION, SHOCK]
    assert legs[1].degenerate == "left"
    assert legs[0].right.T == pytest.approx(0.4, rel=1e-12)


def test_rarefaction_legs_have_increasing_speed(cubic):
    # (family, anchor, stress of the other end)
    cases = [
        (BACKWARD, State(-1.0, 0.0), -2.2),
        (BACKWARD, State(-1.0, 0.0), 1.5),
        (BACKWARD, State(0.0, 0.0), 1.0),
        (FORWARD, State(-0.3, 0.0), -1.0),
        (FORWARD, State(0.9, 0.0), -1.0),
        (FORWARD, State(-1.0, 0.0), 1.2),
    ]
    for family, U, T in cases:
        curve = WaveCurve(cubic, U, family)
        for leg in curve.legs(State(T, curve.v(T))):
            if leg.kind == RAREFACTION:
                head = wave_speed(cubic, leg.left.T, leg.family)
                tail = wave_speed(cubic, leg.right.T, leg.family)
                assert (leg.speed_head, leg.speed_tail) == (head, tail)
                assert head < tail


def test_shock_legs_satisfy_jump_conditions_and_dissipation(cubic, quintic):
    import random
    rng = random.Random(7)
    for _ in range(200):
        m = cubic if rng.random() < 0.5 else quintic
        U = State(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        T = rng.uniform(-2.5, 2.5)
        family = BACKWARD if rng.random() < 0.5 else FORWARD
        curve = WaveCurve(m, U, family)
        for leg in curve.legs(State(T, curve.v(T))):
            if leg.kind != SHOCK:
                continue
            s = shock_speed(m, leg.left.T, leg.right.T, leg.family)
            # a shock degenerate at one state travels with the
            # characteristic there, any other with its jump
            at = {"left": leg.left, "right": leg.right}.get(leg.degenerate)
            own = s if at is None else wave_speed(m, at.T, leg.family)
            assert leg.speed_head == leg.speed_tail == own
            dT = leg.right.T - leg.left.T
            dv = leg.right.v - leg.left.v
            de = strain(m, leg.right.T) - strain(m, leg.left.T)
            scale = max(1.0, abs(leg.left.T), abs(leg.right.T),
                        abs(leg.left.v), abs(leg.right.v))
            assert abs(s * m.rho * dv + dT) < 1e-10 * scale
            assert abs(s * de + dv) < 1e-10 * scale
            assert s * dT * (leg.right.T + leg.left.T) >= -1e-12


# ---------------------------------------------------------------------------
# smoothness of the curves


def one_sided_first(f, x, h):
    return (-11.0 * f(x) + 18.0 * f(x + h) - 9.0 * f(x + 2 * h)
            + 2.0 * f(x + 3 * h)) / (6.0 * h)


def one_sided_second(f, x, h):
    return (2.0 * f(x) - 5.0 * f(x + h) + 4.0 * f(x + 2 * h)
            - f(x + 3 * h)) / (h * h)


def test_second_order_contact_at_anchor(cubic):
    # shock and fan branches meet twice-differentiably at the anchor state
    U = State(-1.0, 0.0)
    f = WaveCurve(cubic, U, BACKWARD).v
    h = 1e-4
    d1_s = one_sided_first(f, -1.0, h)
    d1_r = one_sided_first(f, -1.0, -h)
    d2_s = one_sided_second(f, -1.0, h)
    d2_r = one_sided_second(f, -1.0, -h)
    assert d1_s == pytest.approx(d1_r, rel=1e-6)
    assert d2_s == pytest.approx(d2_r, rel=1e-6)
    assert d1_s == pytest.approx(math.sqrt(strain_prime(cubic, -1.0)),
                                 rel=1e-6)


def test_second_order_contact_at_backward_junction(cubic):
    # one-sided derivatives agree across the tangency junction, and match
    # the analytic fan-side values
    U = State(-1.0, 0.0)
    Tt = tangent_point(cubic, -1.0)
    f = WaveCurve(cubic, U, BACKWARD).v
    h = 1e-4 * max(1.0, abs(Tt))
    d1_gap = abs(one_sided_first(f, Tt, h) - one_sided_first(f, Tt, -h))
    d2_gap = abs(one_sided_second(f, Tt, h) - one_sided_second(f, Tt, -h))
    d1 = math.sqrt(strain_prime(cubic, Tt))
    d2 = strain_second(cubic, Tt) / (2.0 * math.sqrt(strain_prime(cubic, Tt)))
    assert d1_gap < 1e-6 * abs(d1)
    assert d2_gap < 1e-6 * abs(d2)
    assert one_sided_first(f, Tt, h) == pytest.approx(d1, rel=1e-6)
    assert one_sided_second(f, Tt, h) == pytest.approx(d2, rel=1e-5)


def test_second_order_contact_at_mirrored_junction(cubic):
    # same property at the negative tangency stress of a positive anchor
    U = State(1.0, 0.0)
    Tt = tangent_point(cubic, 1.0)
    assert Tt == pytest.approx(-0.5, rel=1e-12)
    f = WaveCurve(cubic, U, BACKWARD).v
    h = 1e-4 * max(1.0, abs(Tt))
    d1_gap = abs(one_sided_first(f, Tt, h) - one_sided_first(f, Tt, -h))
    d2_gap = abs(one_sided_second(f, Tt, h) - one_sided_second(f, Tt, -h))
    d1 = math.sqrt(strain_prime(cubic, Tt))
    d2 = strain_second(cubic, Tt) / (2.0 * math.sqrt(strain_prime(cubic, Tt)))
    assert d1_gap < 1e-6 * abs(d1)
    assert d2_gap < 1e-6 * abs(d2)


def test_forward_curve_smooth_across_zero_stress(cubic):
    # the composite construction keeps the forward curve C^1 through T = 0:
    # the velocity reached from (-1, 0) at stress T, read on the forward
    # curve that ends at (T, 0)
    f = lambda T: -WaveCurve(cubic, State(T, 0.0), FORWARD).v(-1.0)
    h = 1e-5
    left = (f(0.0) - f(-h)) / h
    right = (f(h) - f(0.0)) / h
    assert left == pytest.approx(right, rel=1e-4)


# ---------------------------------------------------------------------------
# shock speed helper


def test_shock_speed_signs_and_degenerate_width(cubic):
    assert shock_speed(cubic, -1.0, -2.0, FORWARD) == pytest.approx(
        1.0 / math.sqrt(15.0), rel=1e-14)
    assert shock_speed(cubic, -1.0, -2.0, BACKWARD) == pytest.approx(
        -1.0 / math.sqrt(15.0), rel=1e-14)
    assert shock_speed(cubic, 0.7, 0.7, FORWARD) == wave_speed(
        cubic, 0.7, FORWARD)
    # a jump of nonzero width whose strain difference rounds to 0 takes
    # the same limit
    m, left, right = ROUNDED_JUMP
    assert left.T != right.T and strain(m, left.T) == strain(m, right.T)
    for family in (BACKWARD, FORWARD):
        assert shock_speed(m, left.T, right.T, family) == wave_speed(
            m, left.T, family)


# ---------------------------------------------------------------------------
# the fans a curve keeps within a solve

#: Materials with n != 1, whose fans are summed by panels: the quintic
#: preset, constants that are not powers of two, and near-hyperbolic.
PANEL_MATERIALS = {
    "quintic": make_material(1.0, -0.5, 1.0, 2.0, 1.0),
    **{f"n={n}": make_material(1.3, -0.7, 0.9, n, 1.1)
       for n in (0.5, 1.5, 3.5)},
    "near-hyperbolic-n2": make_material(1.0, -0.999, 1.0, 2.0, 1.0),
}


def knots(m, count):
    """The first `count` knots after 0 of the material's fan table."""
    return list(itertools.islice(_panel_ends(m), count))


#: Anchors on a knot, as (sign, index of the knot after 0).
KNOT_ANCHORS = {"-k1": (-1.0, 0), "k2": (1.0, 1)}


def fan_ends(m, curve, rng):
    """(fan index, mirrored end y) on both fans of the curve: the start,
    the first four knots past it, each exactly and one ulp either side,
    and random stresses beyond."""
    ends = []
    for i, (start, sign) in enumerate(((curve.A, -1.0), (curve.Tt, 1.0))):
        past = [k for k in knots(m, 16) if k > abs(start)][:4]
        ys = [start] + [sign * u for k in past
                        for u in (math.nextafter(k, 0.0), k,
                                  math.nextafter(k, math.inf))]
        ys += [sign * (abs(start) + rng.uniform(0.0, 50.0 * past[-1]))
               for _ in range(8)]
        if start == 0.0:
            ys += [0.0, -0.0] if i == 0 else [5e-324]
        ends += [(i, y) for y in ys if i == 1 or y <= curve.A]
    return ends


def same_float(a, b):
    return repr(a) == repr(b)


@pytest.mark.parametrize("name", sorted(PANEL_MATERIALS))
@pytest.mark.parametrize("T_0", [-1.7, 0.37, 2.3, 0.0, -0.0, *KNOT_ANCHORS])
@pytest.mark.parametrize("family", [BACKWARD, FORWARD])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled",
                                   "repeated"])
def test_curve_fans_equal_a_fresh_walk_in_any_order(name, T_0, family,
                                                    order):
    # a curve's fans read a table that the other curve of its solve also
    # grows in between; every end still gets the value of a fresh table,
    # rarefaction_integral's, bit for bit, and so does the curve
    m = PANEL_MATERIALS[name]
    if T_0 in KNOT_ANCHORS:
        sign, j = KNOT_ANCHORS[T_0]
        T_0 = sign * knots(m, j + 1)[j]
    rng = random.Random(f"{name}{T_0!r}{family}{order}")
    U = State(T_0, 0.25)
    ends = fan_ends(m, WaveCurve(m, U, family), rng)
    if order == "ascending":
        ends.sort(key=lambda e: abs(e[1]))
    elif order == "descending":
        ends.sort(key=lambda e: -abs(e[1]))
    else:
        ends *= 2 if order == "repeated" else 1
        rng.shuffle(ends)
    table = _fan_table(m)
    curve = WaveCurve(m, U, family, table)
    other = WaveCurve(m, State(0.8 - 0.6 * T_0, -0.5),
                      FORWARD if family == BACKWARD else BACKWARD, table)
    starts = (curve.A, curve.Tt)
    for i, y in ends:
        got = _fan(m, table, starts[i], y)
        assert same_float(got, rarefaction_integral(m, starts[i], y)), (i, y)
        if i == 0 or y > curve.Tt:  # the curve's shock owns y = Tt
            d = got if i == 0 else curve.vt + got
            assert same_float(curve.v(curve.s * y), U.v + curve.k * d)
        other.v(rng.uniform(-60.0, 60.0))


@pytest.mark.parametrize("m", [make_material(2.0, -1.0, 2.0, 1.0, 1.0),
                               Material.linear(1.3, -0.7, 1.1)],
                         ids=["cubic", "linear"])
@pytest.mark.parametrize("T_0", [-1.7, 0.37, 0.0])
def test_closed_form_curves_keep_their_fans_too(m, T_0):
    # n = 1 and linear materials have fans of the same shape, in closed
    # form: rarefaction_integral's value bit for bit (a linear curve's
    # second fan starts at its anchor and crosses zero)
    curve = WaveCurve(m, State(T_0, 0.25), BACKWARD)
    for i, start in enumerate((curve.A, curve.Tt)):
        for y in (start, 2.0 * start - 0.5, start + 0.5, -3.0, 3.0):
            if (y <= start) if i == 0 else (y >= start):
                assert same_float(_fan(m, curve.table, start, y),
                                  rarefaction_integral(m, start, y)), (i, y)


@pytest.mark.parametrize("m", [make_material(2.0, -1.0, 2.0, 1.0, 1.0),
                               *PANEL_MATERIALS.values()],
                         ids=["cubic", *PANEL_MATERIALS])
@pytest.mark.parametrize("family", [BACKWARD, FORWARD])
def test_a_curve_computes_no_fan_before_it_reads_one(monkeypatch, m,
                                                     family):
    # building a curve and reading its shock branch compute no fan: no
    # n = 1 root and no head panel; the first read of the fan from A then
    # computes one root at A (and the end's) or one head panel
    roots = []
    original = material._cubic_root
    monkeypatch.setattr(material, "_cubic_root", lambda k, T, xp=math: (
        roots.append(T) or original(k, T, xp)))
    curve = WaveCurve(m, State(-1.2, 0.25), family)
    curve.v(curve.s * 0.5 * (curve.A + curve.Tt))
    heads = getattr(curve.table, "heads", {})
    assert roots == [] and heads == {}
    y = 10.0 * curve.A  # past a knot, so that a table keeps the head
    curve.v(curve.s * y)
    if m.n == 1.0:
        assert roots == [curve.A, y]
    else:
        assert roots == [] and list(heads) == [-curve.A]


@pytest.mark.parametrize("m", [make_material(2.0, -1.0, 2.0, 1.0, 1.0),
                               *PANEL_MATERIALS.values()],
                         ids=["cubic", *PANEL_MATERIALS])
@pytest.mark.parametrize("T_0", [-1.2, 0.9])
@pytest.mark.parametrize("family", [BACKWARD, FORWARD])
def test_a_shock_branch_evaluates_the_strain_once_at_its_end(
        monkeypatch, m, T_0, family):
    # the curve holds its anchor's strain: building it evaluates the strain
    # at the anchor once, and each v or slope on the shock branch once, at
    # the end stress
    calls = []
    original = wave_curves.strain
    monkeypatch.setattr(wave_curves, "strain",
                        lambda m, T: calls.append(T) or original(m, T))
    curve = WaveCurve(m, State(T_0, 0.25), family)
    assert calls == [curve.A]
    A, Tt = curve.A, curve.Tt
    for y in [A + (Tt - A) * i / 8 for i in range(1, 8)] + [Tt]:
        for read in (curve.v, curve.slope):
            del calls[:]
            read(curve.s * y)
            assert calls == [y], (read.__name__, y)


def test_a_solve_sums_each_knot_panel_and_each_head_once(monkeypatch):
    # both curves of a solve read one table: each knot panel is summed
    # once, into the prefix sums, each fan sums its head at most once and
    # a fan never read sums nothing; the table lives in the call, so an
    # identical solve sums the same panels again
    m = PANEL_MATERIALS["quintic"]
    calls = []
    panel = material._fan_panel
    monkeypatch.setattr(material, "_fan_panel", lambda k, x, end: calls.append(
        (x, end)) or panel(k, x, end))
    ks = [0.0] + knots(m, 30)
    knot_panels = set(zip(ks, ks[1:]))
    # the backward fans of the last two problems start at zero, and in the
    # last one all four do and both curves read past the second knot
    for U_l, U_r in ((State(-1.0, 0.0), State(0.8, -3.0)),
                     (State(1.2, 0.5), State(-0.4, 0.3)),
                     (State(-5.0, 60.0), State(3.0, -60.0)),
                     (State(0.0, 0.0), State(1.2, -0.5)),
                     (State(0.0, 40.0), State(0.0, -40.0))):
        del calls[:]
        solve(m, U_l, U_r)
        first = calls[:]
        summed = [c for c in first if c in knot_panels]
        assert len(set(summed)) == len(summed), (U_l, U_r)
        heads = [x for x, end in first if x not in ks and end in ks]
        assert len(set(heads)) == len(heads), (U_l, U_r)
        del calls[:]
        solve(m, U_l, U_r)
        assert calls == first, (U_l, U_r)
    assert len(summed) >= 2

    del calls[:]
    table = _fan_table(m)
    back = WaveCurve(m, State(-0.3, 0.0), BACKWARD, table)
    WaveCurve(m, State(1.1, 0.2), FORWARD, table)
    assert calls == []
    for y in (-0.5, -2.0, -7.0, -40.0, -3.0):
        back.v(y)
    assert {x for x, end in calls if x not in ks} == {0.3}


def test_a_call_takes_the_cubic_fan_constants_once(monkeypatch, cubic):
    # for n = 1 the call's table is the fan's constants: a solve (four
    # fans on two curves), a solve_many, a profile and a
    # rarefaction_integral each take them once
    from barwaves import profile, solve_many
    calls = []
    constants = material._cubic_constants
    monkeypatch.setattr(material, "_cubic_constants",
                        lambda m: calls.append(m) or constants(m))
    pattern = solve(cubic, State(-1.0, 0.0), State(1.6, 0.0))
    assert calls == [cubic]
    solve_many(cubic, [-1.0, 0.5, 0.0], 0.0, [1.6, -2.0, 1.2], 0.0)
    profile(pattern, -2.0, 2.0, 41)
    material.rarefaction_integral(cubic, -0.5, 0.7)
    assert calls == [cubic] * 4


def test_shock_of_roundoff_width_logs_its_characteristic_slope(quintic,
                                                              caplog):
    # one ulp of stress across which the strain rounds to one value: the
    # chord has no width, so the slope is the characteristic limit
    A = -0.48965630792596443
    y = math.nextafter(A, math.inf)
    assert strain(quintic, y) == strain(quintic, A)
    caplog.set_level(logging.DEBUG, logger="barwaves.wave_curves")
    assert WaveCurve(quintic, State(A, 0.0), BACKWARD).slope(y) == _w(
        quintic, y)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.args == (A, y)


# ---------------------------------------------------------------------------
# linear materials: one line through the anchor, with no tangency

linear_materials = st.builds(
    lambda a, b, rho: Material.linear(a, -b * a, rho),
    st.floats(0.1, 10.0), st.floats(0.01, 0.99), st.floats(0.1, 10.0))


@given(m=linear_materials, T_l=stress, v_l=stress, T_r=stress, v_r=stress)
@settings(deadline=None)
def test_linear_curves_meet_at_solve_linears_middle_state(m, T_l, v_l, T_r,
                                                         v_r):
    U_l, U_r = State(T_l, v_l), State(T_r, v_r)
    if U_l == U_r:
        return
    p = solve_linear(m, U_l, U_r)
    mid = p.waves[0].right if p.waves[0].family == BACKWARD else (
        p.waves[0].left)
    # the data's velocity scale: rounding in solve_linear is relative to it
    scale = max(abs(v_l), abs(v_r), math.sqrt((m.alpha + m.beta) / m.rho)
                * max(abs(T_l), abs(T_r)))
    back, fwd = WaveCurve(m, U_l, BACKWARD), WaveCurve(m, U_r, FORWARD)
    assert back.v(mid.T) == pytest.approx(mid.v, abs=1e-14 * scale)
    assert fwd.v(mid.T) == pytest.approx(mid.v, abs=1e-14 * scale)
    # the legs are solve_linear's waves: per family, one shock degenerate
    # at both states, between the same states
    legs = (back.legs(State(mid.T, back.v(mid.T)))
            + fwd.legs(State(mid.T, fwd.v(mid.T))))
    waves = {w.family: w for w in p.waves if w.left.T != w.right.T}
    assert [leg.family for leg in legs] == list(waves)
    for leg in legs:
        w = waves[leg.family]
        assert (leg.kind, leg.degenerate) == (w.kind, w.degenerate) == (
            SHOCK, "both")
        for a, b in ((leg.left, w.left), (leg.right, w.right)):
            assert a.T == b.T
            assert a.v == pytest.approx(b.v, abs=1e-14 * scale)


def test_linear_curve_at_a_nonzero_anchor(linear):
    U = State(-1.0, 0.0)
    c = math.sqrt(linear.alpha + linear.beta)
    back = WaveCurve(linear, U, BACKWARD)
    assert back.v(0.4) == pytest.approx(1.4 * c, rel=1e-15)
    [shock] = back.legs(State(0.4, back.v(0.4)))
    assert (shock.kind, shock.family, shock.degenerate) == (
        SHOCK, BACKWARD, "both")
    # the forward wave from U to stress 0.4, on the curve that ends at
    # (0.4, 0)
    fwd = WaveCurve(linear, State(0.4, 0.0), FORWARD)
    assert fwd.v(-1.0) == pytest.approx(1.4 * c, rel=1e-15)
    left = State(-1.0, fwd.v(-1.0))
    [shock] = fwd.legs(left)
    assert (shock.kind, shock.family, shock.degenerate) == (
        SHOCK, FORWARD, "both")
    assert shock.left == left
