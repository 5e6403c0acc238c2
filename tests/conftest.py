"""Shared fixtures and independent oracles for the test suite.

The cubic preset (alpha=2, beta=-1, gamma=2, n=1, rho=1) has
strain = T + 2*T**3, so most quantities admit elementary closed forms that
are computed here independently of the library's quadrature/root-finding
paths and frozen into the tests.
"""

import math
import sys

import pytest
from scipy.integrate import quad

from barwaves import (
    BACKWARD,
    FORWARD,
    Material,
    PRESETS,
    State,
    WaveCurve,
    strain,
)


@pytest.fixture(scope="session")
def cubic():
    return PRESETS["cubic"]


@pytest.fixture(scope="session")
def quintic():
    return PRESETS["quintic"]


@pytest.fixture(scope="session")
def linear():
    return PRESETS["linear"]


#: A near-hyperbolic real-n material and data that one backward shock
#: joins, across which the strain difference rounds to 0: the jump has
#: nonzero width and a chord slope of 0.
ROUNDED_JUMP = (
    Material(0.8730054183393812, -0.8730031969670576, 0.001982273592506877,
             0.5, 8.158871979040935),
    State(-0.003820687034826381, -42.425430608315075),
    State(-0.0038206870347873957, -42.425430608315075))


def cubic_strain(T):
    return T + 2.0 * T ** 3


def cubic_strain_prime(T):
    return 1.0 + 6.0 * T * T


def cubic_fan_antiderivative(T):
    """Exact antiderivative of sqrt(1 + 6*tau**2) (rho = 1)."""
    r = math.sqrt(6.0)
    return 0.5 * T * math.sqrt(1.0 + 6.0 * T * T) + math.asinh(r * T) / (2.0 * r)


def cubic_fan_integral(a, b):
    """Closed-form velocity change across a cubic-material fan."""
    return cubic_fan_antiderivative(b) - cubic_fan_antiderivative(a)


def make_material(alpha, beta, gamma, n, rho):
    return Material(alpha=alpha, beta=beta, gamma=gamma, n=n, rho=rho)


def driving_force_integral(m, T_l, T_r):
    """Quadrature form of the driving force: area between the chord and the
    strain curve, by adaptive quadrature.  Independent of the closed form
    in barwaves.driving_force; used as its oracle.  Data of opposite signs
    are split at 0, so that each piece has a one-signed integrand: across
    0 the odd strain cancels, and quad reports roundoff on such data."""
    if T_l == T_r:
        return 0.0
    cuts = [T_r, T_l]
    if min(T_l, T_r) < 0.0 < max(T_l, T_r):
        cuts.insert(1, 0.0)
    val = sum(quad(lambda y: strain(m, y), a, b,
                   epsabs=1e-12, epsrel=1e-12, limit=200)[0]
              for a, b in zip(cuts, cuts[1:]))
    return val + 0.5 * (strain(m, T_r) + strain(m, T_l)) * (T_r - T_l)


# ---------------------------------------------------------------------------
# one right state in every region of the phase plane (cubic preset)


def place(m, U_l, T_mid, T_r):
    """Right state reached through middle stress T_mid: the forward curve
    that ends at (T_r, 0), shifted to pass through the middle state."""
    v_mid = WaveCurve(m, U_l, BACKWARD).v(T_mid)
    return State(T_r, v_mid - WaveCurve(m, State(T_r, 0.0), FORWARD).v(T_mid))


#: (label, T_mid, T_r) from U_l = (-1, 0), (1, 0) and (0, 0.1): a right
#: state in each region, reached through the middle stress T_mid (place).
A_CASES = [
    ("A1", -1.5, -2.0), ("A2", -1.5, -1.2), ("A3", -1.5, 0.5),
    ("A4", -0.5, -0.8), ("A5", -0.5, -0.2), ("A6", -0.5, 0.3),
    ("A7", 0.2, -0.1), ("A8", 0.2, 0.1), ("A9", 0.2, 0.8),
    ("A10", 0.8, -0.5), ("A11", 0.8, 0.3), ("A12", 0.8, 1.5),
]
B_CASES = [
    ("B7", 0.5, -0.3), ("B4", -0.2, -0.8), ("B12", 1.5, 2.0),
    ("B1", -0.8, -1.2), ("B10", 1.5, -0.5),
]
# the point of Ak negated, from (1, 0), lies in B(13 - k)
B_CASES += [case for case in ((f"B{13 - int(label[1:])}", -T_mid, -T_r)
                              for label, T_mid, T_r in A_CASES)
            if case not in B_CASES]
C_CASES = [("C1", 0.5, 1.0), ("C2", 0.5, 0.2), ("C3", -0.5, 0.3),
           ("C4", 0.5, -0.3), ("C5", -0.5, -0.2), ("C6", -0.5, -1.0)]
REGION_CASES = {State(-1.0, 0.0): A_CASES, State(1.0, 0.0): B_CASES,
                State(0.0, 0.1): C_CASES}


def inject(monkeypatch, module, name, fault):
    """Replace module.name by fault(module.name) in every barwaves module
    that imported it by name: one fault in a body that the scalar solve
    and the lanes of solve_many share reaches both paths."""
    original = getattr(module, name)
    faulty = fault(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "barwaves" or mod_name.startswith("barwaves."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, faulty)


def fault_root_finders(monkeypatch, fault):
    """Make the middle-stress search's rtsafe, on floats in riemann and on
    lanes in batch, return fault(root, lo, hi) for the root it finds in
    [lo, hi]: one fault, written once for floats and arrays, reaches both
    paths."""
    from barwaves import batch, riemann
    for module, name in ((riemann, "_newton_bisect"),
                         (batch, "_newton_bisect_many")):
        finder = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda fn, dfn, lo, hi, *ends, finder=finder: (
                fault(finder(fn, dfn, lo, hi, *ends), lo, hi)))


def wiggle_curves(monkeypatch):
    """Add s*sin(40*T) to the velocity of every wave curve of mirror s, on
    riemann's WaveCurve and on batch's lane curves: a wiggle of opposite
    sign on a backward curve through T_l < 0 and a forward curve to
    T_r > 0, which does not cancel in their residual."""
    import numpy as np
    from barwaves import batch
    from barwaves.wave_curves import WaveCurve
    curve_v, lanes_v = WaveCurve.v, batch._Curves.v
    monkeypatch.setattr(WaveCurve, "v", lambda self, T: (
        curve_v(self, T) - self.s * math.sin(40.0 * T)))
    monkeypatch.setattr(batch._Curves, "v", lambda self, m, idx, T: (
        lanes_v(self, m, idx, T) - self.s[idx] * np.sin(40.0 * T)))


def errors_on_both_paths(m, U_l, U_r):
    """The error solve raises from U_l to U_r and the one solve_many
    reports for that lane beside a trivial one, which it must solve."""
    from barwaves import solve, solve_many
    from barwaves.errors import NoBracket, NonMonotone
    with pytest.raises((NoBracket, NonMonotone)) as scalar:
        solve(m, U_l, U_r)
    sol = solve_many(m, [U_l.T, 0.4], [U_l.v, 0.0], [U_r.T, 0.4],
                     [U_r.v, 0.0])
    assert sol.error[1] is None and sol.region_label[1] == "trivial"
    assert type(sol.error[0]) is type(scalar.value)
    return scalar.value, sol.error[0]
