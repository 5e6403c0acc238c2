import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from barwaves import NoBracket, PRESETS, State, riemann
from barwaves.cli import main


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_solve_json_document(capsys, tmp_path):
    out_path = tmp_path / "solve.json"
    rc = main(["solve", "--material", "cubic", "--tl", "-1", "--vl", "0",
               "--tr", "-2", "--vr", "3.872983346207417",
               "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["material"]["alpha"] == 2
    assert doc["region_label"] == "on-W2"
    assert len(doc["waves"]) == 1
    wave = doc["waves"][0]
    assert wave["kind"] == "shock" and wave["family"] == "forward"
    assert wave["speed_head"] == pytest.approx(1.0 / math.sqrt(15.0),
                                               rel=1e-12)
    assert doc["verification"]["rh_residual"] < 1e-9
    assert doc["verification"]["dissipation_slack"] > 0.0


def test_solve_identical_states(capsys):
    rc, out = run(capsys, "solve", "--material", "cubic",
                  "--tl", "1", "--tr", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["waves"] == []
    assert doc["verification"]["dissipation_slack"] is None


def test_solve_zero_velocity_case_in_json(capsys):
    rc, out = run(capsys, "solve", "--material", "cubic",
                  "--tl", "-1", "--tr", "1.6")
    assert rc == 0
    assert json.loads(out)["zero_velocity_case"] == "V"


def test_invalid_material_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"alpha": 1.0, "beta": -1.5, "gamma": 1.0, "n": 1.0, "rho": 1.0}))
    rc = main(["solve", "--material", str(bad), "--tl", "0", "--tr", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "hyperbolicity" in err


def test_solver_failure_exits_3(capsys):
    # tangency (and hence thresholds) are undefined for a linear material
    rc = main(["thresholds", "--material", "linear", "--tl", "-1"])
    assert rc == 3


@pytest.mark.parametrize("args", [["solve", "--tr", "1"], ["thresholds"]])
def test_constitutive_overflow_exits_3(capsys, args):
    # the quintic strain and its tangency overflow a float at this stress;
    # exit 1 is reserved for verification failures
    rc = main([args[0], "--material", "quintic", "--tl=-1e80", *args[1:]])
    err = capsys.readouterr().err
    assert rc == 3
    assert "solver failure" in err and "-1e+80" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_stress_exits_2(capsys, value):
    rc = main(["solve", "--material", "cubic", "--tl", value, "--tr", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "T_l" in err


def test_import_leaves_scipy_unloaded():
    import barwaves
    src = os.path.dirname(os.path.dirname(os.path.abspath(barwaves.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, barwaves, barwaves.cli; "
            "print(sorted(k for k in sys.modules "
            "if k == 'scipy' or k.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_profile_csv(capsys, tmp_path):
    out_path = tmp_path / "prof.csv"
    rc = main(["profile", "--material", "cubic", "--tl", "-0.5",
               "--tr", "-1.0", "--xi-min", "-2", "--xi-max", "2",
               "--count", "101", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "xi,T,v"
    # fan head/tail plus the shock: three inserted edges
    assert len(lines) - 1 == 101 + 3
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-0.5, abs=1e-12)


def test_profile_constant_data_two_lines(capsys):
    rc, out = run(capsys, "profile", "--material", "cubic",
                  "--tl", "0.3", "--vl", "1", "--tr", "0.3", "--vr", "1",
                  "--count", "2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + two rows
    for row in lines[1:]:
        xi, T, v = row.split(",")
        assert float(T) == 0.3 and float(v) == 1.0


def test_profile_infinite_bound_exits_2(capsys):
    rc = main(["profile", "--material", "cubic", "--tl", "-0.5",
               "--tr", "-1.0", "--xi-max", "inf"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid arguments" in err and "xi_max" in err


def test_atlas_small_grid(capsys, tmp_path):
    out_path = tmp_path / "atlas.csv"
    rc = main(["atlas", "--material", "cubic", "--res", "9",
               "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "T_l,T_r,case_label,region_label"
    assert lines[-1].startswith("# distinct_case_labels=")
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 81
    cases = {r[2] for r in rows}
    allowed = {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX",
               "X", "XI", "XII", "-"}
    assert cases <= allowed
    # diagonal flagged
    diag = [r for r in rows if r[0] == r[1]]
    assert diag and all(r[2] == "-" for r in diag)


def test_atlas_rows_match_individual_solves(capsys, tmp_path):
    out_path = tmp_path / "atlas.csv"
    main(["atlas", "--material", "cubic", "--res", "5",
          "--tl-min", "-1", "--tl-max", "1", "--tr-min", "-2",
          "--tr-max", "2", "--out", str(out_path)])
    rows = [line.split(",") for line
            in out_path.read_text().strip().split("\n")[1:-1]]
    for T_l, T_r, case, region in rows[:8]:
        if case == "-":
            continue
        rc, out = run(capsys, "solve", "--material", "cubic",
                      "--tl", T_l, "--tr", T_r)
        doc = json.loads(out)
        assert doc["zero_velocity_case"] == case
        assert doc["region_label"] == region


def test_atlas_at_small_scale_matches_individual_solves(tmp_path):
    # neither the zero snap of the grid nor the trivial-cell test may use
    # an absolute floor: at this scale they made every row 0,0,-,-
    out_path = tmp_path / "atlas.csv"
    assert main(["atlas", "--material", "cubic", "--res", "3",
                 "--tl-min=-1e-12", "--tl-max=1e-12", "--tr-min=-2e-12",
                 "--tr-max=2e-12", "--out", str(out_path)]) == 0
    rows = [line.split(",") for line
            in out_path.read_text().strip().split("\n")[1:-1]]
    assert len(rows) == 9
    for T_l, T_r, case, region in rows:
        if float(T_l) == float(T_r):
            assert (case, region) == ("-", "-")
            continue
        pattern = riemann.solve(PRESETS["cubic"], State(float(T_l), 0.0),
                                State(float(T_r), 0.0))
        assert (case, region) == (pattern.zero_velocity_case,
                                  pattern.region_label)
    assert sum(r[2] == "-" for r in rows) == 1


def test_atlas_reports_the_first_failed_cell(capsys):
    # cells with |T_l| = 1e80 overflow the quintic strain; the sweep raises
    # what a cell-by-cell solve meets first in row-major order
    args = ["--tl-min=-1e80", "--tl-max=1e80", "--tr-min=-1",
            "--tr-max=1", "--res", "3"]
    first = None
    for T_l in (-1e80, 0.0, 1e80):
        for T_r in (-1.0, 0.0, 1.0):
            try:
                riemann.solve(PRESETS["quintic"], State(T_l, 0.0),
                              State(T_r, 0.0))
            except NoBracket as exc:
                first = first or str(exc)
    assert first is not None
    rc = main(["atlas", "--material", "quintic", *args])
    assert rc == 3
    assert capsys.readouterr().err == f"solver failure: {first}\n"


def test_atlas_solves_no_thresholds(monkeypatch, tmp_path):
    # the solution type is read off the solved waves; an atlas that
    # solved T** per cell again would call thresholds
    def forbidden(*args, **kwargs):
        raise AssertionError("thresholds called on the solve path")

    monkeypatch.setattr(riemann, "thresholds", forbidden)
    rc = main(["atlas", "--material", "quintic", "--res", "9",
               "--out", str(tmp_path / "atlas.csv")])
    assert rc == 0


def test_atlas_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["atlas", "--material", "cubic", "--res", "7"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def pinned_digests(name):
    """(arguments, SHA-256) pairs from tests/<name>.sha256."""
    path = os.path.join(os.path.dirname(__file__), f"{name}.sha256")
    with open(path, encoding="utf-8") as fh:
        return [(line[66:].split(), line[:64]) for line in fh]


@pytest.mark.parametrize("args,digest", pinned_digests("atlas"))
def test_default_atlas_bytes_are_pinned(tmp_path, args, digest):
    # the default cubic and quintic sweeps, byte for byte
    out_path = tmp_path / "atlas.csv"
    assert main(args + ["--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", pinned_digests("profile"))
def test_profile_bytes_are_pinned(tmp_path, args, digest):
    # cubic and quintic patterns with a backward fan and a forward
    # composite (fan and degenerate shock on one ray), byte for byte
    out_path = tmp_path / "profile.csv"
    assert main(args + ["--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_solve_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--material", "quintic", "--tl", "-0.8", "--vl", "0.7",
            "--tr", "1.1", "--vr", "-0.4"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_quick_pass(capsys):
    rc, out = run(capsys, "verify", "--material", "cubic",
                  "--seed", "1", "--trials", "20")
    assert rc == 0
    assert "all checks passed" in out
    assert "rh-residual" in out and "fv-refinement" in out


def test_verify_zero_trials_vacuous(capsys):
    rc, out = run(capsys, "verify", "--material", "cubic", "--trials", "0")
    assert rc == 0


def test_verify_inject_fails(capsys):
    rc, out = run(capsys, "verify", "--material", "cubic",
                  "--seed", "1", "--trials", "5", "--inject")
    assert rc == 1
    assert "FAILED: rh-residual" in out


def test_thresholds_json(capsys):
    rc, out = run(capsys, "thresholds", "--material", "cubic", "--tl", "-1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["T_star"] == pytest.approx(1.0, abs=1e-12)
    assert doc["T_star_star"] == pytest.approx(1.4057, abs=1e-3)
    assert doc["tangent_stress"] == pytest.approx(0.5, rel=1e-10)


def test_float_formatting_round_trips(capsys):
    rc, out = run(capsys, "solve", "--material", "quintic",
                  "--tl", "-0.7", "--vl", "0.123456789012345678",
                  "--tr", "0.9", "--vr", "-0.25")
    doc = json.loads(out)
    # 17 significant digits reproduce the double exactly
    assert doc["left"]["v"] == 0.123456789012345678
