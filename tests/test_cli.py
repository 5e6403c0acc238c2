import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from barwaves import NoBracket, PRESETS, State, cli, riemann
from barwaves.cli import main
from conftest import ROUNDED_JUMP


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


def test_solve_a_shock_whose_strain_difference_rounds_to_0(capsys, tmp_path):
    # a material file and data whose shock has a chord slope of 0: a
    # solution, not a traceback
    m, U_l, U_r = ROUNDED_JUMP
    path = tmp_path / "near_hyperbolic.json"
    path.write_text(json.dumps(m.to_dict()))
    rc, out = run(capsys, "solve", "--material", str(path), f"--tl={U_l.T!r}",
                  f"--vl={U_l.v!r}", f"--tr={U_r.T!r}", f"--vr={U_r.v!r}")
    assert rc == 0
    assert json.loads(out)["region_label"] == "on-W1"


def test_invalid_material_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"alpha": 1.0, "beta": -1.5, "gamma": 1.0, "n": 1.0, "rho": 1.0}))
    rc = main(["solve", "--material", str(bad), "--tl", "0", "--tr", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "hyperbolicity" in err
    # malformed documents are invalid too, not a traceback (exit 1) or a
    # material built from a misread field, such as a JSON boolean or string
    # read as a number (on the cubic preset's constants, which are valid)
    linear = {"alpha": 1.0, "beta": -0.5, "gamma": 0.0, "n": 1.0, "rho": 1.0}
    cubic = {"alpha": 2.0, "beta": -1.0, "gamma": 2.0, "n": 1.0, "rho": 1.0}
    for doc in ([1, 2], {**linear, "alpha": None}, {**linear, "n": 10**400},
                {**linear, "linear_mode": "false"}, {**cubic, "alpha": True},
                {**cubic, "gamma": "1"}):
        bad.write_text(json.dumps(doc))
        rc = main(["solve", "--material", str(bad), "--tl", "-1", "--tr",
                   "1"])
        out, err = capsys.readouterr()
        assert rc == 2 and not out, doc
        assert err.startswith("invalid material: "), doc


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


#: Float options given a negative number in exponent form as their own
#: token, which argparse's pattern alone takes for an option.
EXPONENT_FORM = [
    ["solve", "--material", "cubic", "--tl", "-1e-3", "--vl", "0",
     "--tr", "1", "--vr", "0"],
    ["profile", "--material", "cubic", "--tl", "-.5e2", "--tr", "1",
     "--xi-min", "-1E+1", "--count", "5"],
    ["atlas", "--material", "cubic", "--tl-min", "-1E+0", "--tr-min",
     "-2e0", "--res", "3"],
    ["thresholds", "--material", "cubic", "--tl", "-1E+80"],
]


@pytest.mark.parametrize("args", EXPONENT_FORM,
                         ids=[args[0] for args in EXPONENT_FORM])
def test_negative_exponent_form_is_an_option_value(capsys, args):
    rc, out = run(capsys, *args)
    assert rc == 0
    # the same values written --opt=value
    joined = []
    for arg in args:
        if arg[0] == "-" and arg[1] != "-" and joined[-1].startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(args)
    assert run(capsys, *joined) == (rc, out)


def test_negative_infinity_token_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--material", "cubic", "--tl", "-inf", "--tr", "1"])
    assert exc_info.value.code == 2
    assert "--tl: expected one argument" in capsys.readouterr().err
    rc = main(["solve", "--material", "cubic", "--tl=-inf", "--tr", "1"])
    assert rc == 2 and "T_l" in capsys.readouterr().err


def modules_after(imports, *names):
    """The modules among names, or under them, that a fresh interpreter
    has loaded after the import statement `imports`."""
    import barwaves
    src = os.path.dirname(os.path.dirname(os.path.abspath(barwaves.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (f"import sys; {imports}; print(sorted(k for k in sys.modules "
            f"if any(k == n or k.startswith(n + '.') for n in {names})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    return out.strip()


def test_import_leaves_scipy_unloaded():
    assert modules_after("import barwaves, barwaves.cli", "scipy") == "[]"


def test_cli_import_leaves_verify_and_sampler_unloaded():
    # atlas and thresholds use neither; solve, profile and verify import
    # what they use when they run
    assert modules_after("import barwaves.cli", "barwaves.verify",
                         "barwaves.sampler") == "[]"


def pinned_cli_text():
    """Help, usage and error text of the CLI at COLUMNS=80, recorded from
    the parser that built every subcommand's options on every call."""
    path = os.path.join(os.path.dirname(__file__), "cli_text.json")
    with open(path, encoding="utf-8") as fh:
        return [pytest.param(args, want, id=args or "no-arguments")
                for args, want in json.load(fh).items()]


@pytest.mark.parametrize("args,want", pinned_cli_text())
def test_help_usage_and_errors_are_pinned(capsys, monkeypatch, args, want):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main(args.split())
    out, err = capsys.readouterr()
    assert (exc_info.value.code, out, err) == (want["exit"], want["stdout"],
                                               want["stderr"])


def test_atlas_builds_only_its_own_options(monkeypatch, tmp_path):
    # a call adds options to the subcommand it runs, and to no other
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(parser, *args, **kwargs):
        added.append((parser.prog, args[0]))
        return add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["atlas", "--material", "cubic", "--res", "3",
                 "--out", str(tmp_path / "atlas.csv")]) == 0
    assert added == [("barwaves", "-h"), ("barwaves atlas", "-h")] + [
        ("barwaves atlas", flag) for flag in (
            "--material", "--tl-min", "--tl-max", "--tr-min", "--tr-max",
            "--res", "--out")]


def test_a_rebound_handler_is_the_one_called(monkeypatch):
    # bench/tracing.py rebinds barwaves.cli.cmd_atlas by name to time it
    calls = []

    def fake(args, m):
        calls.append((args.res, m))
        return 7

    monkeypatch.setattr(cli, "cmd_atlas", fake)
    assert main(["atlas", "--material", "cubic"]) == 7
    assert calls == [(81, PRESETS["cubic"])]


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


def test_atlas_whose_every_cell_overflows_exits_3(capsys):
    # no cell survives the curve constants, yet each reports its error
    rc = main(["atlas", "--material", "quintic", "--tl-min", "1e80",
               "--tl-max", "2e80", "--tr-min", "1e80", "--tr-max", "2e80",
               "--res", "2"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "solver failure: wave-curve velocities overflow between "
        f"{State(1e80, 0.0)} and {State(2e80, 0.0)}\n")


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
    """(arguments, SHA-256) pairs from tests/<name>.sha256, each with its
    arguments as its test id, so that a re-recorded digest keeps the
    test's name."""
    path = os.path.join(os.path.dirname(__file__), f"{name}.sha256")
    with open(path, encoding="utf-8") as fh:
        return [pytest.param(line[66:].split(), line[:64],
                             id=line[66:].strip()) for line in fh]


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


#: One small call of each subcommand that writes --out.
WRITERS = {
    "solve": ["solve", "--material", "cubic", "--tl", "-1", "--tr", "1.6"],
    "profile": ["profile", "--material", "cubic", "--tl", "-0.5", "--tr",
                "-1", "--count", "9"],
    "atlas": ["atlas", "--material", "cubic", "--res", "3"],
    "thresholds": ["thresholds", "--material", "cubic", "--tl", "-1"],
}


def stdout_bytes(capsys, args):
    rc, out = run(capsys, *args)
    assert rc == 0
    return out.encode("utf-8")


@pytest.mark.parametrize("name", WRITERS)
def test_out_over_a_longer_or_shorter_file_holds_the_stdout_bytes(
        capsys, tmp_path, name):
    want = stdout_bytes(capsys, WRITERS[name])
    path = tmp_path / "out"
    for old in (b"x" * (3 * len(want) + 5), b"y" * (len(want) // 2), b""):
        path.write_bytes(old)
        inode = path.stat().st_ino
        assert main(WRITERS[name] + ["--out", str(path)]) == 0
        assert path.read_bytes() == want
        # written in place, not replaced
        assert path.stat().st_ino == inode


@pytest.mark.parametrize("name", WRITERS)
def test_out_dash_writes_the_bytes_of_out_file(capsys, tmp_path, name):
    path = tmp_path / "out"
    assert main(WRITERS[name] + ["--out", str(path)]) == 0
    want = path.read_bytes()
    assert want.endswith(b"\n")
    assert stdout_bytes(capsys, WRITERS[name] + ["--out", "-"]) == want


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    want = stdout_bytes(capsys, WRITERS["atlas"])
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"z" * 5000)
    link.symlink_to(target)
    assert main(WRITERS["atlas"] + ["--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == want


def test_out_keeps_the_mode_bits_of_an_existing_file(tmp_path):
    path = tmp_path / "atlas.csv"
    path.write_bytes(b"old")
    path.chmod(0o604)
    assert main(WRITERS["atlas"] + ["--out", str(path)]) == 0
    assert path.stat().st_mode & 0o7777 == 0o604


def test_out_to_the_null_device_exits_0(capsys):
    # a device is neither truncated nor sought
    assert main(WRITERS["atlas"] + ["--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_out_to_dev_stdout_into_a_pipe_yields_the_stdout_bytes(capsys):
    import barwaves
    want = stdout_bytes(capsys, WRITERS["atlas"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(barwaves.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "barwaves.cli", *WRITERS["atlas"],
         "--out", "/dev/stdout"], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")


def test_a_write_failing_part_way_leaves_the_bytes_written_and_exits_2(
        capsys, monkeypatch, tmp_path):
    path = tmp_path / "atlas.csv"
    path.write_bytes(b"x" * 10000)
    os_write = os.write
    calls = []

    def short_then_full(fd, data):
        # the first call writes 40 bytes, the second finds the disk full
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return os_write(fd, data[:40])

    monkeypatch.setattr(os, "write", short_then_full)
    rc = main(WRITERS["atlas"] + ["--out", str(path)])
    monkeypatch.undo()
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert err == (f"cannot write output: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}: {str(path)!r}\n")
    assert calls[1] == calls[0] - 40
    assert path.read_bytes() == stdout_bytes(capsys, WRITERS["atlas"])[:40]


@pytest.mark.parametrize("name", ["solve", "atlas"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_out_exits_2_naming_the_path(capsys, tmp_path, name,
                                                    where):
    path = tmp_path / "missing" / "out" if where == "missing directory" \
        else tmp_path
    rc = main(WRITERS[name] + ["--out", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert repr(str(path)) in err


#: The stdout of `barwaves verify --material cubic --seed 1 --trials 20`,
#: byte for byte.
VERIFY_CUBIC_SEED_1 = (
    "rh-residual                        PASS  max=3.255e-16\n"
    "dissipation-slack                  PASS  min=5.623e-04\n"
    "liu-margin                         PASS  min=8.834e-05\n"
    "lax-inequalities                   PASS  classical shocks\n"
    "speed-ordering                     PASS  non-overlapping wave fans\n"
    "mirror-symmetry                    PASS  max=1.776e-15\n"
    "negation-symmetry                  PASS  max=3.553e-15\n"
    "continuity                         PASS  max=2.000e-06 at step 1e-6\n"
    "fv-refinement[fan+shock]           PASS  0.0829 -> 0.0497 -> 0.0291\n"
    "fv-refinement[two-shock]           PASS  0.1359 -> 0.0646 -> 0.0295\n"
    "fv-refinement[composite-backward]  PASS  0.2632 -> 0.1470 -> 0.0788\n"
    "fv-linear-closed-form              PASS  0.0263 -> 0.0174 -> 0.0117\n"
    "all checks passed\n"
)


def test_verify_quick_pass(capsys):
    rc, out = run(capsys, "verify", "--material", "cubic",
                  "--seed", "1", "--trials", "20")
    assert rc == 0
    assert "all checks passed" in out
    assert "rh-residual" in out and "fv-refinement" in out
    assert out == VERIFY_CUBIC_SEED_1


def test_verify_zero_trials_vacuous(capsys):
    rc, out = run(capsys, "verify", "--material", "cubic", "--trials", "0")
    assert rc == 0


def test_verify_negative_trials_exits_2(capsys):
    rc = main(["verify", "--material", "cubic", "--trials", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert err == "invalid arguments: verify requires --trials >= 0\n"


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
