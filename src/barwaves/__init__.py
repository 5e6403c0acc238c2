"""Exact Riemann solver for stress waves in elastic bars whose linearized
strain is a monotone, non-convex function of the Cauchy stress.

The scalar solver (errors, material, wave_curves, riemann) runs on the
standard library; the names from batch, sampler and verify load numpy on
first use."""

import importlib

from .errors import (
    MaterialError,
    NoBracket,
    NonMonotone,
    RootNotBracketed,
)
from .material import (
    BACKWARD,
    FORWARD,
    Material,
    PRESETS,
    driving_force,
    invert_strain,
    load_material,
    rarefaction_integral,
    strain,
    strain_prime,
    strain_second,
    tangent_point,
    wave_speed,
)
from .riemann import (
    Thresholds,
    WavePattern,
    solve,
    solve_linear,
    thresholds,
)
from .wave_curves import (
    RAREFACTION,
    SHOCK,
    State,
    Wave,
    backward_v,
    decompose_backward,
    decompose_forward,
    forward_v,
    shock_speed,
)

__all__ = [
    "BACKWARD", "FORWARD", "RAREFACTION", "SHOCK",
    "Material", "PRESETS", "State", "Wave", "WavePattern",
    "Thresholds", "Profile",
    "MaterialError", "RootNotBracketed", "NoBracket", "NonMonotone",
    "strain", "strain_prime", "strain_second", "wave_speed",
    "rarefaction_integral", "tangent_point", "driving_force",
    "invert_strain", "load_material",
    "backward_v", "forward_v", "decompose_backward", "decompose_forward",
    "shock_speed",
    "solve", "solve_linear", "solve_many", "thresholds",
    "sample", "profile",
    "check_rh", "check_dissipation", "check_lax", "check_liu",
    "fv_reference", "l1_distance",
]

__version__ = "0.1.0"

#: The module of each name that loads numpy (PEP 562).  Every access reads
#: its attribute there and stores nothing here, so a rebinding is seen.
_LAZY = {
    "solve_many": "batch",
    **dict.fromkeys(("Profile", "profile", "sample"), "sampler"),
    **dict.fromkeys(("check_rh", "check_dissipation", "check_lax",
                     "check_liu", "fv_reference", "l1_distance"), "verify"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
