"""The package's layers: the scalar solver imports no numpy, and the names
of the numpy layers load their module on first use."""

import os
import subprocess
import sys
import textwrap

import barwaves
import barwaves.sampler

#: The package names that live in a numpy module, and that module.
LAZY_NAMES = {
    "solve_many": "batch",
    "Profile": "sampler", "profile": "sampler", "sample": "sampler",
    "check_rh": "verify", "check_dissipation": "verify",
    "check_lax": "verify", "check_liu": "verify",
    "fv_reference": "verify", "l1_distance": "verify",
}

#: The package's public names: the solver, its wave curves and kernels,
#: the sampler and the oracles.
PUBLIC_NAMES = {
    "BACKWARD", "FORWARD", "RAREFACTION", "SHOCK",
    "Material", "PRESETS", "State", "Wave", "WaveCurve", "WavePattern",
    "Thresholds", "Profile",
    "MaterialError", "RootNotBracketed", "NoBracket", "NonMonotone",
    "strain", "strain_prime", "strain_second", "wave_speed",
    "rarefaction_integral", "tangent_point", "driving_force",
    "invert_strain", "load_material", "shock_speed",
    "solve", "solve_linear", "solve_many", "thresholds",
    "sample", "profile",
    "check_rh", "check_dissipation", "check_lax", "check_liu",
    "fv_reference", "l1_distance",
}

SCALAR_RUN = textwrap.dedent("""
    import importlib, sys
    had_logging = "logging" in sys.modules
    import barwaves as bw
    from barwaves import BACKWARD, FORWARD, Material, State

    def read(m, U, family, T):
        curve = bw.WaveCurve(m, U, family)
        curve.legs(State(T, curve.v(T)))
        curve.slope(T)
        curve.tangency

    for m in (bw.load_material("cubic"), bw.load_material("quintic")):
        U_l, U_r = State(-1.0, 0.0), State(1.6, 0.5)
        bw.solve(m, U_l, U_r)
        bw.thresholds(m, -1.0)
        bw.tangent_point(m, -1.0)
        bw.driving_force(m, -1.0, 0.5)
        bw.invert_strain(m, 2.0)
        bw.rarefaction_integral(m, -1.0, 0.3)
        for T in (-1.3, 0.4, 2.0):
            read(m, U_l, BACKWARD, T)
            read(m, U_r, FORWARD, T)
        bw.shock_speed(m, -1.0, 0.4, BACKWARD)
        bw.wave_speed(m, 0.4, FORWARD)
    lin = Material.linear(1.0, -0.5, 1.0)
    bw.solve(lin, State(-1.0, 0.0), State(1.0, 0.5))
    bw.solve_linear(lin, State(-1.0, 0.0), State(1.0, 0.5))
    bw.rarefaction_integral(lin, -1.0, 0.3)
    for U in (State(0.0, 0.0), State(-1.0, 0.0)):
        read(lin, U, BACKWARD, 0.4)
        read(lin, U, FORWARD, 0.4)
    bw.shock_speed(lin, -1.0, 0.4, FORWARD)
    bw.wave_speed(lin, 0.4, BACKWARD)

    loaded = {"numpy", "barwaves.batch", "barwaves.sampler",
              "barwaves.verify"} & set(sys.modules)
    assert not loaded, f"the scalar solver loaded {sorted(loaded)}"
    assert had_logging or "logging" not in sys.modules

    for name, module in LAZY_NAMES.items():
        owner = importlib.import_module("barwaves." + module)
        assert getattr(bw, name) is getattr(owner, name), name
    missing = set(bw.__all__) - set(dir(bw))
    assert not missing, f"dir(barwaves) misses {sorted(missing)}"
    star = {}
    exec("from barwaves import *", star)
    unbound = set(bw.__all__) - set(star)
    assert not unbound, f"import * misses {sorted(unbound)}"
    try:
        bw.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError("barwaves.no_such_name did not raise")
""")


def test_scalar_solver_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(barwaves.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"LAZY_NAMES = {LAZY_NAMES!r}\n{SCALAR_RUN}"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_public_names_are_pinned():
    assert set(barwaves.__all__) == PUBLIC_NAMES
    assert len(barwaves.__all__) == len(PUBLIC_NAMES)


def test_lazy_name_reads_its_module_on_every_access(monkeypatch):
    original = barwaves.sampler.profile

    def patched(*args):
        return None

    with monkeypatch.context() as mp:
        mp.setattr(barwaves.sampler, "profile", patched)
        assert barwaves.profile is patched
    assert barwaves.profile is original
    assert "profile" not in vars(barwaves)
