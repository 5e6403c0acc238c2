"""Shared fixtures and independent oracles for the test suite.

The cubic preset (alpha=2, beta=-1, gamma=2, n=1, rho=1) has
strain = T + 2*T**3, so most quantities admit elementary closed forms that
are computed here independently of the library's quadrature/root-finding
paths and frozen into the tests.
"""

import math

import pytest
from scipy.integrate import quad

from barwaves import Material, PRESETS, State, backward_v, forward_v, strain


@pytest.fixture(scope="session")
def cubic():
    return PRESETS["cubic"]


@pytest.fixture(scope="session")
def quintic():
    return PRESETS["quintic"]


@pytest.fixture(scope="session")
def linear():
    return PRESETS["linear"]


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
    """Right state reached through middle stress T_mid."""
    v = forward_v(m, State(T_mid, backward_v(m, U_l, T_mid)), T_r)
    return State(T_r, v)


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
