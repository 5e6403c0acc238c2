"""Exact Riemann solver for stress waves in elastic bars whose linearized
strain is a monotone, non-convex function of the Cauchy stress."""

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
    Wave,
    WavePattern,
    solve,
    solve_linear,
    thresholds,
)
from .sampler import Profile, profile, sample
from .verify import (
    check_dissipation,
    check_lax,
    check_liu,
    check_rh,
    fv_reference,
    l1_distance,
)
from .wave_curves import (
    RAREFACTION,
    SHOCK,
    CurveLeg,
    State,
    backward_v,
    decompose_backward,
    decompose_forward,
    forward_v,
    shock_speed,
)

__all__ = [
    "BACKWARD", "FORWARD", "RAREFACTION", "SHOCK",
    "Material", "PRESETS", "State", "CurveLeg", "Wave", "WavePattern",
    "Thresholds", "Profile",
    "MaterialError", "RootNotBracketed", "NoBracket", "NonMonotone",
    "strain", "strain_prime", "strain_second", "wave_speed",
    "rarefaction_integral", "tangent_point", "driving_force",
    "invert_strain", "load_material",
    "backward_v", "forward_v", "decompose_backward", "decompose_forward",
    "shock_speed",
    "solve", "solve_linear", "thresholds",
    "sample", "profile",
    "check_rh", "check_dissipation", "check_lax", "check_liu",
    "fv_reference", "l1_distance",
]

__version__ = "0.1.0"
