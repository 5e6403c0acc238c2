"""Command-line front end.

Subcommands: solve | profile | atlas | verify | thresholds.
Exit codes: 0 success, 1 verification failure, 2 invalid material,
invalid arguments or an unwritable --out, 3 solver failure.

All floats are written with 17 significant digits so CSV/JSON fixtures are
round-trip exact and byte-stable on one platform.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import stat
import sys
from dataclasses import asdict, replace

import numpy as np

from .batch import solve_many
from .errors import MaterialError, NoBracket, NonMonotone, RootNotBracketed
from .material import BACKWARD, Material, PRESETS, load_material, tangent_point
from .riemann import (
    _ZERO_VELOCITY_CASES,
    State,
    WavePattern,
    solve,
    thresholds,
)
from .wave_curves import SHOCK, WaveCurve


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonify(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _jsonify(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            inner + json.dumps(str(k)) + ": " + _jsonify(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


#: --out is written in place: no O_TRUNC.  Truncating an output whose
#: blocks are on disk waits for the disk to free them, and ext4's
#: auto_da_alloc puts them there when a truncated file is closed.  The
#: price: a crash can leave old and new bytes mixed (README, CLI).
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(text: str, out: str | None) -> None:
    """text on stdout, or the UTF-8 bytes of text in the file out from
    offset 0.  A regular file longer than the bytes written is cut to
    their length, also when the write fails part-way; a device or pipe is
    never truncated or sought.  An OSError names out."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        data = text.encode("utf-8")
        fd = os.open(out, _OUT_FLAGS, 0o666)
        try:
            written = 0
            try:
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode) and st.st_size > written:
                    os.ftruncate(fd, written)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, out) from exc
        finally:
            os.close(fd)


def _pattern_doc(m: Material, pattern: WavePattern) -> dict:
    from .verify import check_dissipation, check_rh
    return {
        "material": m.to_dict(),
        "left": asdict(pattern.left_state),
        "right": asdict(pattern.right_state),
        "region_label": pattern.region_label,
        "zero_velocity_case": pattern.zero_velocity_case,
        "middle_states": [asdict(s) for s in pattern.middle_states],
        "waves": [asdict(w) for w in pattern.waves],
        "verification": {
            "rh_residual": check_rh(pattern),
            "dissipation_slack": check_dissipation(pattern),
        },
    }


def cmd_solve(args, m: Material) -> int:
    pattern = solve(m, State(args.tl, args.vl), State(args.tr, args.vr))
    _write(_jsonify(_pattern_doc(m, pattern)) + "\n", args.out)
    return 0


def cmd_profile(args, m: Material) -> int:
    from .sampler import profile
    pattern = solve(m, State(args.tl, args.vl), State(args.tr, args.vr))
    prof = profile(pattern, args.xi_min, args.xi_max, args.count)
    lines = ["xi,T,v"]
    for xi, T, v in zip(prof.xi.tolist(), prof.T.tolist(), prof.v.tolist()):
        lines.append(f"{_fmt(xi)},{_fmt(T)},{_fmt(v)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _grid(lo: float, hi: float, n: int) -> list[float]:
    span = hi - lo
    pts = [lo + span * i / (n - 1) for i in range(n)]
    # snap roundoff-level values, relative to the span, to an exact zero:
    # the zero-stress row uses a different (six-label) region system and
    # must not be missed
    return [0.0 if abs(p) <= 1e-9 * abs(span) else p for p in pts]


def cmd_atlas(args, m: Material) -> int:
    if args.res < 2:
        raise ValueError("atlas requires --res >= 2")
    tl = _grid(args.tl_min, args.tl_max, args.res)
    tr = _grid(args.tr_min, args.tr_max, args.res)
    # the cells in row-major order: T_l by row, T_r by column
    T_l, T_r = np.repeat(tl, args.res), np.tile(tr, args.res)
    # equal stresses up to the roundoff of the cell's own stresses
    trivial = np.abs(T_l - T_r) <= 1e-13 * np.maximum(np.abs(T_l),
                                                       np.abs(T_r))
    sol = solve_many(m, T_l[~trivial], 0.0, T_r[~trivial], 0.0)
    # the first failed cell in row-major order, as a cell-by-cell sweep;
    # an error is true, None is not
    failed = np.flatnonzero(sol.error)
    if failed.size:
        raise sol.error[failed[0]]
    case, region = ["-"] * T_l.size, ["-"] * T_l.size
    for i, c, r in zip(np.flatnonzero(~trivial).tolist(),
                       sol.zero_velocity_case.tolist(),
                       sol.region_label.tolist()):
        case[i], region[i] = c or "-", r
    distinct = set(case) - {"-"}
    ordered = [c for c in _ZERO_VELOCITY_CASES if c in distinct]
    # each grid value is formatted once
    tl_text, tr_text = [_fmt(x) for x in tl], [_fmt(x) for x in tr]
    cells = (f"{a},{b}" for a in tl_text for b in tr_text)
    lines = ["T_l,T_r,case_label,region_label"]
    lines += [f"{cell},{c},{r}" for cell, c, r in zip(cells, case, region)]
    lines.append(f"# distinct_case_labels={len(ordered)}:{','.join(ordered)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_thresholds(args, m: Material) -> int:
    # thresholds first: it raises the typed error where tangent_point
    # would overflow
    th = asdict(thresholds(m, args.tl))
    doc = {"material": m.to_dict(), "T_l": args.tl,
           "tangent_stress": tangent_point(m, args.tl), **th}
    _write(_jsonify(doc) + "\n", args.out)
    return 0


# The verification suite of `barwaves verify`, with every bound it passes
# or fails on.  It drives the solver and checks what it returns with the
# oracles of verify, which never call the solver themselves.

#: Zero-velocity data for the refinement study, solved on the material the
#: suite is given: on the cubic preset a fan+shock, a two-shock and a
#: composite-backward solution.
CANONICAL_CASES = (
    ("fan+shock", -0.5, -1.0),
    ("two-shock", -0.5, 0.65),
    ("composite-backward", -0.5, 1.0),
)

#: Small linear-mode jump for the closed-form convergence check.
CANONICAL_LINEAR = (0.06, -0.06)


def _corrupt_speeds(pattern: WavePattern) -> WavePattern:
    return replace(pattern, waves=tuple(
        replace(w, speed_head=w.speed_head + 1e-3,
                speed_tail=w.speed_tail + 1e-3) if w.kind == SHOCK else w
        for w in pattern.waves))


def run_invariant_suite(materials, seed: int, trials: int,
                        inject: bool = False) -> list[tuple[str, bool, str]]:
    """Randomized admissibility/symmetry suite over `trials` problems with
    stresses in [-3, 3] and velocities in [-5, 5], drawn round-robin from
    `materials`.  Returns (check name, passed, detail) rows.  With
    `inject`, shock speeds are perturbed by 1e-3 before the jump-condition
    check, which must then fail (sensitivity control)."""
    from .verify import (check_dissipation, check_lax, check_liu, check_rh,
                         mirror_deviation, negation_deviation, speeds_ordered)
    rng = random.Random(seed)
    worst_rh = worst_mirror = worst_negation = 0.0
    worst_slack = worst_liu = math.inf
    ordered = lax_ok = True
    for i in range(trials):
        m = materials[i % len(materials)]
        U_l = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        U_r = State(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        pattern = solve(m, U_l, U_r)
        checked = _corrupt_speeds(pattern) if inject else pattern
        worst_rh = max(worst_rh, check_rh(checked))
        worst_slack = min(worst_slack, check_dissipation(pattern))
        ordered = ordered and speeds_ordered(pattern)
        for w in pattern.shocks():
            if not w.degenerate:
                worst_liu = min(worst_liu, check_liu(m, w))
                lax_ok = lax_ok and check_lax(m, w)
        mirrored = solve(m, State(-U_r.T, U_r.v), State(-U_l.T, U_l.v))
        worst_mirror = max(worst_mirror, mirror_deviation(pattern, mirrored))
        negated = solve(m, State(-U_l.T, -U_l.v), State(-U_r.T, -U_r.v))
        worst_negation = max(worst_negation,
                             negation_deviation(pattern, negated))

    rows = [
        ("rh-residual", worst_rh < 1e-9, f"max={worst_rh:.3e}"),
        ("dissipation-slack", worst_slack >= -1e-12, f"min={worst_slack:.3e}"),
        ("liu-margin", worst_liu >= -1e-10, f"min={worst_liu:.3e}"),
        ("lax-inequalities", lax_ok, "classical shocks"),
        ("speed-ordering", ordered, "non-overlapping wave fans"),
        ("mirror-symmetry", worst_mirror < 1e-10, f"max={worst_mirror:.3e}"),
        ("negation-symmetry", worst_negation < 1e-10,
         f"max={worst_negation:.3e}"),
    ]
    if trials == 0:
        rows = [(name, True, "vacuous (0 trials)") for name, _, _ in rows]
    return rows


def continuity_probe(m: Material) -> float:
    """Largest profile change when the right state crosses the backward
    wave curve by +-1e-6 in velocity; O(1e-6) for a continuous solver."""
    from .sampler import _sample_lanes
    U_l = State(-1.0, 0.0)
    T_r = 0.3
    v_on = WaveCurve(m, U_l, BACKWARD).v(T_r)
    lo = solve(m, U_l, State(T_r, v_on - 1e-6))
    hi = solve(m, U_l, State(T_r, v_on + 1e-6))
    edges = np.array([s for w in lo.waves + hi.waves
                      for s in (w.speed_head, w.speed_tail)])
    xi = -3.0 + 6.0 * np.arange(201) / 200
    xi = xi[(np.abs(xi[:, None] - edges) >= 1e-3).all(axis=1)]
    diff = np.subtract(_sample_lanes(lo, xi), _sample_lanes(hi, xi))
    return float(np.max(np.abs(diff), initial=0.0))


def refinement_study(m: Material, T_l: float, T_r: float,
                     cells_list) -> list[float]:
    """L1 distances between the reference scheme, at CFL number 0.45 and
    t_end = 0.5, and the exact solution at each resolution."""
    from . import sampler, verify
    U_l, U_r = State(T_l, 0.0), State(T_r, 0.0)
    pattern = solve(m, U_l, U_r)
    dists = []
    for cells in cells_list:
        fv = verify.fv_reference(m, U_l, U_r, cells, 0.45, 0.5)
        exact = sampler.profile(pattern, fv.xi[0], fv.xi[-1], 4001)
        dists.append(verify.l1_distance(exact, fv))
    return dists


def refinement_converges(m: Material, dists) -> bool:
    """Whether the L1 distances of a refinement study, at resolutions that
    double, fall monotonically and end below 0.1.  A linear material
    passes instead when each doubling leaves at most 0.75 of the distance:
    Lax-Friedrichs smears a linear contact like sqrt(dx), a ratio of
    2**-0.5, and leaves linear distances above 0.1 at the suite's 800
    cells."""
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    if m.linear_mode:
        return monotone and all(b <= 0.75 * a
                                for a, b in zip(dists, dists[1:]))
    return monotone and dists[-1] < 0.1


def cmd_verify(args, m: Material) -> int:
    if args.trials < 0:
        raise ValueError("verify requires --trials >= 0")
    rows = run_invariant_suite([m], args.seed, args.trials,
                               inject=args.inject)

    cont = continuity_probe(m)
    rows.append(("continuity", cont <= 1e-2, f"max={cont:.3e} at step 1e-6"))

    cells = (200, 400, 800)
    for name, T_l, T_r in CANONICAL_CASES:
        dists = refinement_study(m, T_l, T_r, cells)
        detail = " -> ".join(f"{d:.4f}" for d in dists)
        rows.append((f"fv-refinement[{name}]",
                     refinement_converges(m, dists), detail))
    dists = refinement_study(PRESETS["linear"], *CANONICAL_LINEAR, cells)
    rows.append(("fv-linear-closed-form", dists[-1] < 0.05,
                 " -> ".join(f"{d:.4f}" for d in dists)))

    width = max(len(r[0]) for r in rows) + 2
    for name, ok, detail in rows:
        print(f"{name:<{width}}{'PASS' if ok else 'FAIL':<6}{detail}")
    failing = [name for name, ok, _ in rows if not ok]
    if failing:
        print(f"FAILED: {failing[0]}")
        return 1
    print("all checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser, subparsers included, that reads -1e-3, -1E+80 or
    -.5e2 as a value, not an option (argparse's pattern stops at -1.5)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


_STATE = (("--tl", dict(type=float, required=True, help="left stress")),
          ("--vl", dict(type=float, default=0.0, help="left velocity")),
          ("--tr", dict(type=float, required=True, help="right stress")),
          ("--vr", dict(type=float, default=0.0, help="right velocity")))
_OUT = ("--out", dict(default=None))

#: Each subcommand's help line and the options that follow --material, as
#: (flag, keyword arguments of add_argument).
_COMMANDS = {
    "solve": ("solve one Riemann problem (JSON out)", (*_STATE, _OUT)),
    "profile": ("sampled similarity profile (CSV out)", (
        *_STATE, ("--xi-min", dict(type=float, default=-3.0)),
        ("--xi-max", dict(type=float, default=3.0)),
        ("--count", dict(type=int, default=401)), _OUT)),
    "atlas": ("zero-velocity solution-type sweep (CSV out)", (
        ("--tl-min", dict(type=float, default=-2.0)),
        ("--tl-max", dict(type=float, default=2.0)),
        ("--tr-min", dict(type=float, default=-3.0)),
        ("--tr-max", dict(type=float, default=3.0)),
        ("--res", dict(type=int, default=81)), _OUT)),
    "verify": ("run the verification suite", (
        ("--seed", dict(type=int, default=0)),
        ("--trials", dict(type=int, default=200)),
        ("--inject", dict(action="store_true",
                          help="corrupt shock speeds first (sensitivity "
                               "control; the jump-condition check must then "
                               "fail)")))),
    "thresholds": ("zero-velocity stress thresholds (JSON out)", (
        ("--tl", dict(type=float, required=True)), _OUT)),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand, each with its help line, and the
    options and handler (cmd_<name>) of the one named first in argv only,
    the one a call runs; top-level help, usage and errors name them all.
    The handler is looked up in the module when the parser is built, so a
    cmd_<name> rebound there is the one called."""
    parser = _Parser(
        prog="barwaves",
        description="Exact Riemann solver for elastic bars with a "
                    "non-convex strain-stress law")
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (text, options) in _COMMANDS.items():
        # a subparser that this call cannot reach needs no -h either
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            p.add_argument("--material", required=True, help=f"preset "
                           f"({', '.join(PRESETS)}) or JSON file path")
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        m = load_material(args.material)
    except MaterialError as exc:
        print(f"invalid material: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load material: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, m)
    except (NoBracket, NonMonotone, RootNotBracketed) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
