"""Command-line front end.

Subcommands: solve | profile | atlas | verify | thresholds.
Exit codes: 0 success, 1 verification failure, 2 invalid material,
3 solver failure.

All floats are written with 17 significant digits so CSV/JSON fixtures are
round-trip exact and byte-stable on one platform.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .batch import solve_many
from .errors import MaterialError, NoBracket, NonMonotone, RootNotBracketed
from .material import Material, PRESETS, load_material, tangent_point
from .riemann import (
    State,
    WavePattern,
    solve,
    thresholds,
)
from .sampler import profile
from .verify import (
    CANONICAL_CASES,
    CANONICAL_LINEAR,
    check_dissipation,
    check_rh,
    continuity_probe,
    refinement_study,
    run_invariant_suite,
)

_CASE_ORDER = ("I", "II", "III", "IV", "V", "VI",
               "VII", "VIII", "IX", "X", "XI", "XII")


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


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _state_doc(s: State) -> dict:
    return {"T": s.T, "v": s.v}


def _pattern_doc(m: Material, pattern: WavePattern) -> dict:
    slack = check_dissipation(pattern)
    return {
        "material": m.to_dict(),
        "left": _state_doc(pattern.left_state),
        "right": _state_doc(pattern.right_state),
        "region_label": pattern.region_label,
        "zero_velocity_case": pattern.zero_velocity_case,
        "middle_states": [_state_doc(s) for s in pattern.middle_states],
        "waves": [{
            "kind": w.kind,
            "family": w.family,
            "left": _state_doc(w.left),
            "right": _state_doc(w.right),
            "speed_head": w.speed_head,
            "speed_tail": w.speed_tail,
            "degenerate": w.degenerate,
        } for w in pattern.waves],
        "verification": {
            "rh_residual": check_rh(pattern),
            "dissipation_slack": slack if math.isfinite(slack) else None,
        },
    }


def cmd_solve(args, m: Material) -> int:
    pattern = solve(m, State(args.tl, args.vl), State(args.tr, args.vr))
    _write(_jsonify(_pattern_doc(m, pattern)) + "\n", args.out)
    return 0


def cmd_profile(args, m: Material) -> int:
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
    # the first failed cell in row-major order, as a cell-by-cell sweep
    for error in sol.error:
        if error is not None:
            raise error
    case = np.full(T_l.size, "-", dtype=object)
    region = np.full(T_l.size, "-", dtype=object)
    case[~trivial] = [c or "-" for c in sol.zero_velocity_case]
    region[~trivial] = sol.region_label
    distinct = set(case) - {"-"}
    ordered = [c for c in _CASE_ORDER if c in distinct]
    ordered += sorted(c for c in distinct if c not in _CASE_ORDER)
    # each grid value is formatted once
    tl_text, tr_text = [_fmt(x) for x in tl], [_fmt(x) for x in tr]
    cells = (f"{a},{b}" for a in tl_text for b in tr_text)
    lines = ["T_l,T_r,case_label,region_label"]
    lines += [f"{cell},{c},{r}" for cell, c, r in zip(cells, case, region)]
    lines.append(f"# distinct_case_labels={len(ordered)}:{','.join(ordered)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_thresholds(args, m: Material) -> int:
    th = thresholds(m, args.tl)
    doc = {
        "material": m.to_dict(),
        "T_l": args.tl,
        "tangent_stress": tangent_point(m, args.tl),
        "T_star": th.T_star,
        "T_star_star": th.T_star_star,
    }
    _write(_jsonify(doc) + "\n", args.out)
    return 0


def cmd_verify(args, m: Material) -> int:
    rows = run_invariant_suite([m], args.seed, args.trials,
                               inject=args.inject)

    cont = continuity_probe(m)
    rows.append(("continuity", cont <= 1e-2, f"max={cont:.3e} at step 1e-6"))

    cells = (200, 400, 800)
    for name, T_l, T_r in CANONICAL_CASES:
        dists = refinement_study(m, T_l, T_r, cells, cfl=0.45, t_end=0.5)
        monotone = all(b < a for a, b in zip(dists, dists[1:]))
        detail = " -> ".join(f"{d:.4f}" for d in dists)
        rows.append((f"fv-refinement[{name}]", monotone and dists[-1] < 0.1,
                     detail))
    lin = PRESETS["linear"]
    dists = refinement_study(lin, *CANONICAL_LINEAR, cells_list=cells,
                             cfl=0.45, t_end=0.5)
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


def _add_material_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--material", required=True,
                   help=f"preset ({', '.join(PRESETS)}) or JSON file path")


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tl", type=float, required=True, help="left stress")
    p.add_argument("--vl", type=float, default=0.0, help="left velocity")
    p.add_argument("--tr", type=float, required=True, help="right stress")
    p.add_argument("--vr", type=float, default=0.0, help="right velocity")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="barwaves",
        description="Exact Riemann solver for elastic bars with a "
                    "non-convex strain-stress law")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one Riemann problem (JSON out)")
    _add_material_arg(p)
    _add_state_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile", help="sampled similarity profile (CSV out)")
    _add_material_arg(p)
    _add_state_args(p)
    p.add_argument("--xi-min", type=float, default=-3.0)
    p.add_argument("--xi-max", type=float, default=3.0)
    p.add_argument("--count", type=int, default=401)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("atlas",
                       help="zero-velocity solution-type sweep (CSV out)")
    _add_material_arg(p)
    p.add_argument("--tl-min", type=float, default=-2.0)
    p.add_argument("--tl-max", type=float, default=2.0)
    p.add_argument("--tr-min", type=float, default=-3.0)
    p.add_argument("--tr-max", type=float, default=3.0)
    p.add_argument("--res", type=int, default=81)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_material_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--inject", action="store_true",
                   help="corrupt shock speeds first (sensitivity control; "
                        "the jump-condition check must then fail)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thresholds",
                       help="zero-velocity stress thresholds (JSON out)")
    _add_material_arg(p)
    p.add_argument("--tl", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_thresholds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
