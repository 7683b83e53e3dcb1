import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stokeslab import cli
from stokeslab.corpus import random_smooth_field
from stokeslab.exterior import (
    annulus_dipole, bogovskii_apply, shell_potential, solenoidal_extension,
)
from stokeslab.grid import (
    Grid, curl, gradient, gradient_magnitude, integrate, load_field, save_field,
)
from stokeslab.periodic import periodicity_check, picard_solve, single_mode_force


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def loads(text):
    """Strict JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(autouse=True)
def strict_json_files(monkeypatch):
    """Every JSON file the CLI writes parses as strict JSON."""
    write = cli._write_json

    def checked(path, obj):
        write(path, obj)
        with open(path) as fh:
            loads(fh.read())

    monkeypatch.setattr(cli, "_write_json", checked)


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return status, loads(out)


def test_admissible_range_command(tmp_path, capsys):
    status, out = run_cli(
        capsys, "admissible-range", "--q", "3", "--n", "3", "--out", str(tmp_path)
    )
    assert status == 0
    assert out == {"lo": -1.0, "hi": 2.0}


def test_check_weight_finite(tmp_path, capsys):
    status, out = run_cli(
        capsys, "check-weight", "--alpha", "2", "--q", "2", "--n", "3",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out["verdict"] == "finite"
    report = loads((tmp_path / "aq_report.json").read_text())
    assert report["verdict"] == "finite"


def test_aq_report_json(tmp_path, capsys):
    status, out = run_cli(capsys, "check-weight", "--alpha", "0.5", "--q", "2",
                          "--out", str(tmp_path))
    assert status == 0
    doc = loads((tmp_path / "aq_report.json").read_text())
    assert set(doc) == {"q", "weight", "sup", "samples", "verdict"}
    assert doc["q"] == 2.0 and doc["verdict"] == out["verdict"]
    assert doc["weight"] == {"form": "inhomogeneous", "s": 0.5}
    assert doc["sup"] == out["sup_estimate"]
    assert {"center", "side", "product", "refinement_jump"} <= set(doc["samples"][0])


def test_check_weight_overflow_is_null(tmp_path, capsys):
    status, out = run_cli(capsys, "check-weight", "--alpha", "1000", "--out", str(tmp_path))
    assert status == 0
    assert out == {"sup_estimate": None, "verdict": "diverging"}
    doc = loads((tmp_path / "aq_report.json").read_text())
    assert doc["sup"] is None
    assert None in [s["product"] for s in doc["samples"]]


def test_feasibility_command(tmp_path, capsys):
    status, out = run_cli(
        capsys, "feasibility", "--n", "5", "--q1", "4", "--q2", "3",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out["lo"] == pytest.approx(1.0 / 3.0)
    assert out["hi"] == pytest.approx(25.0 / 24.0)


def test_decay_command_writes_csv(tmp_path, capsys):
    status, out = run_cli(
        capsys, "decay", "--p", "2", "--q", "6", "--s", "0", "--s0", "0",
        "--tmax", "16", "--points", "5", "--N", "32", "--out", str(tmp_path),
    )
    assert status == 0
    assert out["bound_compliance"] <= 1.05
    with open(tmp_path / "decay.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "predicted_envelope", "ratio"]
    manifest = loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "decay"
    assert "config_sha256" in manifest and "wall_time_s" in manifest
    assert manifest["prng"].startswith("numpy.random")


def test_solve_periodic_zero_amplitude(tmp_path, capsys):
    status, out = run_cli(
        capsys, "solve-periodic", "--eps", "0", "--N", "16", "--M", "8",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out["converged"] is True
    assert out["residual"] == 0.0
    assert os.path.exists(tmp_path / "node_000.field")


def test_run_chain_periodicity_and_report(tmp_path, capsys):
    rundir = tmp_path / "run"
    status, _ = run_cli(
        capsys, "solve-periodic", "--eps", "0.01", "--N", "16", "--M", "8",
        "--tol", "1e-8", "--out", str(rundir),
    )
    assert status == 0
    status, out = run_cli(
        capsys, "periodicity-check", "--run", str(rundir), "--steps", "64",
        "--out", str(tmp_path / "chk"),
    )
    assert status == 0
    assert out["defect"] <= 1e-4
    status, rep = run_cli(
        capsys, "weighted-report", "--run", str(rundir), "--q1", "2",
        "--q2", "2", "--s", "1", "--out", str(tmp_path / "rep"),
    )
    assert status == 0
    assert rep["applicable"] is True
    assert rep["ratio"] > 0


def test_linear_single_mode_run_keeps_its_model_and_force(tmp_path, capsys):
    # the run directory's solution carries the force and the model of the
    # solve, so the check re-simulates exactly what the solver solved
    rundir = tmp_path / "run"
    status, _ = run_cli(capsys, "solve-periodic", "--force", "single-mode", "--linear", "1",
                        "--N", "16", "--M", "8", "--out", str(rundir))
    assert status == 0
    sol = cli._load_run("periodicity-check", str(rundir))
    options = cli._COMMANDS["solve-periodic"][2]
    T, eps = options["T"][1], options["eps"][1]          # the defaults
    grid = Grid(3, 16, 16.0)
    assert sol.linear_only is True
    assert (sol.force.T, sol.force.amplitude) == (T, eps)
    assert np.array_equal(sol.force.profile(grid).data,
                          single_mode_force(T).profile(grid).data)
    status, out = run_cli(capsys, "periodicity-check", "--run", str(rundir), "--steps", "64",
                          "--out", str(tmp_path / "chk"))
    assert status == 0
    expected = periodicity_check(picard_solve(single_mode_force(T, eps), grid, M=8,
                                              linear_only=True), steps=64)
    assert out == {"defect": expected}


def _floats(value):
    """Every float and null in a JSON value, nested lists and objects included."""
    if value is None or isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _floats(v)]
    return []


@pytest.mark.parametrize(
    "argv",
    [["maximal", "--N", "16"],
     ["frac-integral", "--N", "16", "--L", "5"],
     ["bogovskii-test", "--N", "32", "--L", "4", "--R", "1"],
     ["extend", "--N", "32", "--L", "5", "--R", "0.5"],
     ["feasibility", "--n", "3", "--scan", "1", "--step", "0.05"],
     ["solve-periodic", "--force", "single-mode", "--linear", "1", "--N", "16", "--M", "8"],
     ["check-weight", "--q", "1.01"]],
    ids=lambda argv: argv[0],
)
def test_command_success_paths(argv, tmp_path, capsys):
    status, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status == 0
    assert all(x is not None and math.isfinite(x) for x in _floats(out))
    assert loads((tmp_path / "result.json").read_text()) == out
    cfg = loads((tmp_path / "manifest.json").read_text())["config"]
    for path in tmp_path.glob("*.field"):
        g = load_field(path).grid
        assert (g.n, g.N, g.L) == (3, cfg["N"], cfg["L"])
    if argv[0] == "bogovskii-test":
        assert out["support_exact"] is True
    if argv[0] == "extend":
        assert out["far_field_exact"] is True


@pytest.mark.parametrize("component", [0, 1, 2])
def test_support_flag_reads_every_component(component, tmp_path, capsys, monkeypatch):
    # B is nonzero outside the annulus at one cube corner in one component only
    def stray(f, R):
        B = bogovskii_apply(f, R)
        B.data[component, 0, 0, 0] = 1e-3
        return B

    monkeypatch.setattr(cli, "bogovskii_apply", stray)
    status, out = run_cli(capsys, "bogovskii-test", "--N", "32", "--L", "4", "--R", "1",
                          "--out", str(tmp_path))
    assert status == 0 and out["support_exact"] is False


@pytest.mark.parametrize("component", [0, 1, 2])
def test_far_field_flag_reads_every_component(component, tmp_path, capsys, monkeypatch):
    # v0 differs from u0 at one cube corner, in the far field, in one component only
    def moved(u0, R):
        v0, info = solenoidal_extension(u0, R)
        v0.data[component, 0, 0, 0] += 1e-3
        return v0, info

    monkeypatch.setattr(cli, "solenoidal_extension", moved)
    status, out = run_cli(capsys, "extend", "--N", "32", "--L", "5", "--R", "0.5",
                          "--out", str(tmp_path))
    assert status == 0 and out["far_field_exact"] is False


@pytest.mark.parametrize("N, L", [(48, 6.1), (96, 5.0)])
def test_maximal_dominates_on_non_dyadic_grids(N, L, tmp_path, capsys):
    # on non-dyadic grids h d is not exact, and the balls must stay centrally symmetric
    status, out = run_cli(capsys, "maximal", "--N", str(N), "--L", str(L),
                          "--out", str(tmp_path))
    assert status == 0
    assert out["dominates_input"] is True and out["mollifier_dominated"] is True


def test_extend_input_is_the_curl_of_the_shell_potential(tmp_path, capsys):
    status, _ = run_cli(capsys, "extend", "--N", "32", "--L", "8", "--out", str(tmp_path))
    assert status == 0
    expected = curl(shell_potential(Grid(3, 32, 8.0), 1.0))
    assert np.array_equal(load_field(tmp_path / "input.field").data, expected.data)


@pytest.mark.parametrize("N", [64, 128])
def test_bogovskii_w12_by_parseval_is_the_gradient_magnitude_norm(N, tmp_path, capsys):
    # w12 comes from one forward transform of B; the real-space norms of B
    # and of its gradient magnitude give the same number to rounding
    status, out = run_cli(capsys, "bogovskii-test", "--N", str(N), "--out", str(tmp_path))
    assert status == 0
    B = load_field(tmp_path / "bogovskii.field")
    w12 = np.sqrt(integrate(B, 2) ** 2 + integrate(gradient_magnitude(B), 2) ** 2)
    ref = w12 / integrate(annulus_dipole(B.grid, 2.0), 2)
    assert abs(out["w12_ratio"] - ref) <= 1e-13 * ref


def test_deterministic_artifacts(tmp_path, capsys):
    args = ["decay", "--p", "2", "--q", "2", "--s", "1", "--s0", "0",
            "--tmax", "8", "--points", "4", "--N", "16", "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(d1)]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--out", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "result.json").read_bytes() == (d2 / "result.json").read_bytes()
    assert (d1 / "decay.csv").read_bytes() == (d2 / "decay.csv").read_bytes()
    m1 = loads((d1 / "manifest.json").read_text())
    m2 = loads((d2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


@pytest.mark.parametrize(
    "command, payload",
    [("decay", {"nonsense": 1}), ("decay", {"N": None}), ("decay", [1, 2]),
     ("decay", {"N": "abc"}), ("check-weight", {"form": "weird"}),
     ("solve-periodic", {"force": "bogus"}), ("decay", {"N": 16.9}),
     ("feasibility", {"scan": 1.7}), ("solve-periodic", {"eps": True}),
     ("solve-periodic", {"N": True})],
    ids=["unknown-key", "null-value", "top-level-list", "non-numeric", "form-unknown",
         "force-unknown", "int-non-integral", "scan-non-integral", "float-boolean",
         "int-boolean"],
)
def test_invalid_config_file(command, payload, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(payload))
    status, out = run_cli(
        capsys, command, "--config", str(cfgfile), "--out", str(tmp_path / "out")
    )
    assert status == 2
    assert out["error"] == "invalid-config"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b'{"N": "\xff"}', b"[" * 200000 + b"]" * 200000],
    ids=["unreadable", "bad-json", "not-utf8", "nested-too-deep"],
)
def test_config_file_that_cannot_be_read(content, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    if content is not None:
        cfgfile.write_bytes(content)
    status, out = run_cli(capsys, "decay", "--config", str(cfgfile),
                          "--out", str(tmp_path / "out"))
    assert status == 2
    assert out["error"] == "invalid-config"
    assert "cannot read config file" in out["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["decay", "--help"]])
def test_help_prints_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stokeslab")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_states_where_main_writes(command, capsys, monkeypatch, tmp_path):
    # --out's stated default is the directory main makes when --out is not
    # given (inside the run for the follow-up checks), and an option whose
    # default is empty shows no default
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    entries = []
    for line in capsys.readouterr().out.split("options:")[1].splitlines():
        if line.lstrip().startswith("-"):
            entries.append(line.strip())
        elif entries:
            entries[-1] += " " + line.strip()
    for entry in entries:
        assert entry.count("default") <= 1 and "(default )" not in entry, entry
    stated = [e for e in entries if e.startswith("--out OUT")][0].split("(default ")[1][:-1]
    written = []

    def record(cfg, outdir, *inputs):
        written.append(outdir)
        raise ValueError("the output directory is recorded")

    _, description, options = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (record, description, options))
    monkeypatch.setattr(cli, "_load_run", lambda command, run: None)
    monkeypatch.chdir(tmp_path)
    run = ["--run", os.path.join("some", "run")] if "run" in options else []
    assert cli.main([command] + run) == 1
    capsys.readouterr()
    assert written == [stated.replace("<run>", os.path.join("some", "run"))]


def test_precondition_violation_is_machine_readable(tmp_path, capsys):
    status, out = run_cli(
        capsys, "decay", "--p", "4", "--q", "2", "--N", "16", "--out", str(tmp_path)
    )
    assert status == 1
    assert out["error"] == "precondition-violation"
    err = loads((tmp_path / "error.json").read_text())
    assert "detail" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_result_is_a_precondition_violation(value, tmp_path, capsys, monkeypatch):
    """Only documented fields are written as null; any other non-finite number fails."""
    _, description, options = cli._COMMANDS["admissible-range"]
    monkeypatch.setitem(cli._COMMANDS, "admissible-range",
                        (lambda cfg, outdir: ({"lo": 0.0, "hi": value}, 0), description, options))
    status, out = run_cli(capsys, "admissible-range", "--out", str(tmp_path))
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert "non-finite" in out["detail"]
    assert sorted(os.listdir(tmp_path)) == ["error.json"]


def test_memory_error_is_a_precondition_violation(tmp_path, capsys, monkeypatch):
    """An allocation numpy refuses (as at maximal --N 100000) ends in the JSON contract."""
    def refuse(cfg, outdir):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    _, description, options = cli._COMMANDS["maximal"]
    monkeypatch.setitem(cli._COMMANDS, "maximal", (refuse, description, options))
    status, out = run_cli(capsys, "maximal", "--out", str(tmp_path))
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert "out of memory" in out["detail"]
    assert loads((tmp_path / "error.json").read_text()) == out


def test_non_finite_unused_option_is_a_precondition_violation(tmp_path, capsys):
    status, out = run_cli(capsys, "feasibility", "--step", "inf", "--out", str(tmp_path))
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert "non-finite" in out["detail"]
    assert sorted(os.listdir(tmp_path)) == ["error.json"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"q": 2.0, "n": 3}))
    status, out = run_cli(
        capsys, "admissible-range", "--config", str(cfgfile), "--q", "3",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out == {"lo": -1.0, "hi": 2.0}     # q = 3 from the flag wins


def test_threads_flag_accepted(tmp_path, capsys):
    status, _ = run_cli(
        capsys, "--threads", "1", "admissible-range", "--q", "2", "--n", "3",
        "--out", str(tmp_path),
    )
    assert status == 0


def test_threads_flag_reaches_fft_backend(tmp_path, capsys, monkeypatch):
    import scipy.fft

    def probe(cfg, outdir):
        return {"workers": scipy.fft.get_workers()}, 0

    _, description, options = cli._COMMANDS["admissible-range"]
    monkeypatch.setitem(cli._COMMANDS, "admissible-range", (probe, description, options))
    status, out = run_cli(capsys, "--threads", "2", "admissible-range",
                          "--out", str(tmp_path / "a"))
    assert status == 0
    assert out == {"workers": 2}
    status, out = run_cli(capsys, "admissible-range", "--out", str(tmp_path / "b"))
    assert out == {"workers": 1}


def test_import_leaves_scipy_signal_unloaded():
    # neither importing the package nor its Fourier resampling and
    # fractional integral load scipy.signal
    code = (
        "import sys, numpy as np, stokeslab\n"
        "from stokeslab.grid import Field, Grid\n"
        "from refinement import refine_field\n"
        "from stokeslab.semigroup import fractional_integral\n"
        "f = Field(Grid(3, 8, 2.0), np.ones((8, 8, 8)))\n"
        "fractional_integral(f, 1.0), refine_field(f)\n"
        "print('scipy.signal' in sys.modules)"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_transform_free_commands_leave_scipy_fft_unloaded(tmp_path):
    # scipy.fft is imported on the first transform: the package import and
    # the closed-form weight commands never load it, and maximal does; nor
    # do they load scipy.special or scipy.ndimage, which the exterior tools
    # and the tests import where they use them
    code = (
        "import contextlib, io, json, sys, stokeslab\n"
        "from stokeslab import cli\n"
        "names = ('scipy.fft', 'scipy.special', 'scipy.ndimage')\n"
        "loaded = [[m for m in names if m in sys.modules]]\n"
        "for argv in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv.split() + ['--out', sys.argv[1]]) == 0, argv\n"
        "    loaded.append([m for m in names if m in sys.modules])\n"
        "print(json.dumps(loaded))"
    )
    commands = ["check-weight", "admissible-range", "feasibility", "feasibility --scan 1",
                "maximal --N 16"]
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *commands],
                         capture_output=True, text=True, env=env, check=True).stdout
    *closed_form, maximal = json.loads(out)
    assert closed_form == [[]] * 5 and "scipy.fft" in maximal


# --- run-directory inputs: every failure is a JSON payload, nothing is created


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("run") / "run"
    status = cli.main(["solve-periodic", "--eps", "0", "--N", "16", "--M", "8",
                       "--out", str(rundir)])
    assert status == 0
    return rundir


def _copy_run(src, dst):
    dst.mkdir()
    for name in os.listdir(src):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def _assert_rejected(capsys, run, command="periodicity-check", error="precondition-violation"):
    before = sorted(os.listdir(run)) if run.exists() else None
    status, out = run_cli(capsys, command, "--run", str(run))
    assert status == {"precondition-violation": 1, "invalid-config": 2}[error]
    assert out["error"] == error
    assert out["detail"]
    after = sorted(os.listdir(run)) if run.exists() else None
    assert after == before
    return out["detail"]


def test_weighted_report_of_zero_forcing_has_null_ratio(small_run, tmp_path, capsys):
    status, out = run_cli(capsys, "weighted-report", "--run", str(small_run),
                          "--out", str(tmp_path / "rep"))
    assert status == 0
    assert out["applicable"] is False and out["ratio"] is None
    assert loads((tmp_path / "rep" / "result.json").read_text()) == out


def test_run_missing_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    _assert_rejected(capsys, missing)
    assert not missing.exists()
    _assert_rejected(capsys, missing, "weighted-report")
    assert not missing.exists()


def test_run_without_manifest(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    assert "manifest" in _assert_rejected(capsys, run)


def test_run_empty_flag_is_invalid_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, out = run_cli(capsys, "periodicity-check")
    assert status == 2
    assert out["error"] == "invalid-config"
    assert os.listdir(tmp_path) == []


def test_run_manifest_missing_key(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    del manifest["config"]["M"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "'M'" in _assert_rejected(capsys, run)


def test_run_manifest_of_another_command(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["command"] = "decay"
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "not solve-periodic" in _assert_rejected(capsys, run)


@pytest.mark.parametrize(
    "manifest", [[1, 2], {"command": "solve-periodic", "config": 5}],
    ids=["manifest-list", "config-int"],
)
def test_run_manifest_not_an_object(manifest, small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "JSON object" in _assert_rejected(capsys, run)
    _assert_rejected(capsys, run, "weighted-report")


def test_run_manifest_config_value_of_wrong_type(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["config"]["M"] = "8"
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "'M'" in _assert_rejected(capsys, run, error="invalid-config")


@pytest.mark.parametrize("source", ["config-file", "run-manifest"])
@pytest.mark.parametrize(
    "key, value",
    [("N", 16.7), ("T", True), ("M", "8"), ("L", 10**400), ("T", 10**400), ("linear", 2),
     ("force", 5), ("bogus", 1)],
    ids=["N-16.7", "T-true", "M-string", "L-big", "T-big", "linear-2", "force-5",
         "unknown-key"],
)
def test_option_value_check_is_one_for_every_source(source, key, value, small_run, tmp_path,
                                                    capsys):
    # a config file and a run manifest hold the same solve-periodic options,
    # and the same value is refused from either as invalid-config naming it
    if source == "run-manifest":
        run = _copy_run(small_run, tmp_path / "run")
        manifest = loads((run / "manifest.json").read_text())
        manifest["config"][key] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        for command in ("periodicity-check", "weighted-report"):
            assert repr(key) in _assert_rejected(capsys, run, command, error="invalid-config")
        return
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    status, out = run_cli(capsys, "solve-periodic", "--config", str(cfgfile),
                          "--out", str(tmp_path / "out"))
    assert status == 2
    assert out["error"] == "invalid-config" and repr(key) in out["detail"]
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_run_manifest_unreadable(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    (run / "manifest.json").write_text("{not json")
    _assert_rejected(capsys, run)


def test_run_missing_node_file(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    (run / "node_003.field").unlink()
    _assert_rejected(capsys, run)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_solve_manifest_lists_node_digests(small_run):
    manifest = loads((small_run / "manifest.json").read_text())
    names = [f"node_{m:03d}.field" for m in range(8)]
    assert manifest["artifacts"] == {name: _sha256(small_run / name) for name in names}


def test_run_node_from_another_solve(small_run, tmp_path, capsys):
    # the same grid and node count, another amplitude and seed
    other = tmp_path / "other"
    assert cli.main(["solve-periodic", "--eps", "0.01", "--seed", "3", "--N", "16",
                     "--M", "8", "--out", str(other)]) == 0
    capsys.readouterr()
    run = _copy_run(small_run, tmp_path / "run")
    (run / "node_003.field").write_bytes((other / "node_003.field").read_bytes())
    for command in ("periodicity-check", "weighted-report"):
        detail = _assert_rejected(capsys, run, command)
        assert "node_003.field is not the file the solve wrote" in detail


def test_run_node_edited_byte(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    node = run / "node_005.field"
    raw = bytearray(node.read_bytes())
    raw[-1] ^= 1                     # the top byte of the last sample: still finite
    node.write_bytes(bytes(raw))
    assert "node_005.field is not the file" in _assert_rejected(capsys, run)


def test_run_manifest_without_artifacts(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    del manifest["artifacts"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "'artifacts'" in _assert_rejected(capsys, run)
    _assert_rejected(capsys, run, "weighted-report")


def test_run_manifest_artifacts_not_an_object(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["artifacts"] = ["node_000.field"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "no object of artifact digests" in _assert_rejected(capsys, run)


@pytest.mark.parametrize("edit", [{"L": 1e300}, {"M": 10}], ids=["L-1e300", "M-10"])
def test_run_manifest_out_of_range(edit, small_run, tmp_path, capsys, monkeypatch):
    # M = 10 against the 8 digests of the run: refused before the node names
    # are built, which a manifest with a huge M would make huge
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["config"].update(edit)
    (run / "manifest.json").write_text(json.dumps(manifest))
    if "M" in edit:
        monkeypatch.setattr(cli, "_node_names", lambda M: pytest.fail("node names built"))
    for command in ("periodicity-check", "weighted-report"):
        detail = _assert_rejected(capsys, run, command)
        assert ("cell volume" if "L" in edit else "10 nodes") in detail


@pytest.mark.parametrize("edit, detail", [
    ({"tol": 0.0}, "tolerance must be positive and finite, got 0.0"),
    ({"max_iter": 0}, "iteration cap max_iter must be >= 1, got 0"),
], ids=["tol-0", "max-iter-0"])
def test_run_manifest_settings_the_solver_refuses(edit, detail, small_run, tmp_path, capsys):
    # a run no solve could have written: refused with the solver's message
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["config"].update(edit)
    (run / "manifest.json").write_text(json.dumps(manifest))
    for command in ("periodicity-check", "weighted-report"):
        assert _assert_rejected(capsys, run, command) == detail


@pytest.mark.parametrize("edit", [{"force": "single-mode"}, {"eps": 1e308}],
                         ids=["force-single-mode", "eps-1e308"])
def test_run_manifest_config_edited_after_the_solve(edit, small_run, tmp_path, capsys):
    # valid option values and verified nodes, but not the config the nodes
    # were solved for: refused by config_sha256 before any march, so eps =
    # 1e308 overflows nothing
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    manifest["config"].update(edit)
    (run / "manifest.json").write_text(json.dumps(manifest))
    for command in ("periodicity-check", "weighted-report"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert "config_sha256" in _assert_rejected(capsys, run, command)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_run_manifest_without_config_digest(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    manifest = loads((run / "manifest.json").read_text())
    del manifest["config_sha256"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert "'config_sha256'" in _assert_rejected(capsys, run)


def test_run_node_header_mismatch(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    node = run / "node_002.field"
    raw = node.read_bytes()
    node.write_bytes(struct.pack("<qqdq", 3, 16, 8.0, 3) + raw[32:])   # L 16 -> 8
    assert "node_002.field header" in _assert_rejected(capsys, run)


def test_run_node_truncated(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    node = run / "node_000.field"
    node.write_bytes(node.read_bytes()[:-8])
    assert "data bytes" in _assert_rejected(capsys, run)


def test_run_node_trailing_bytes(small_run, tmp_path, capsys):
    run = _copy_run(small_run, tmp_path / "run")
    node = run / "node_007.field"
    node.write_bytes(node.read_bytes() + b"\0" * 8)
    assert "data bytes" in _assert_rejected(capsys, run, "weighted-report")


def test_run_node_not_solenoidal(small_run, tmp_path, capsys):
    # a node the manifest vouches for, but a gradient field
    run = _copy_run(small_run, tmp_path / "run")
    node = load_field(run / "node_000.field")
    g = Grid(3, node.grid.N, node.grid.L)
    save_field(gradient(random_smooth_field(g, seed=5, components=1)), run / "node_000.field")
    manifest = loads((run / "manifest.json").read_text())
    manifest["artifacts"]["node_000.field"] = _sha256(run / "node_000.field")
    (run / "manifest.json").write_text(json.dumps(manifest))
    status, out = run_cli(capsys, "periodicity-check", "--run", str(run),
                          "--out", str(tmp_path / "check"))
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert "not solenoidal" in out["detail"]


# --- out-of-range inputs: one JSON error line, never a traceback


@pytest.mark.parametrize(
    "argv, error, status",
    [
        (["decay", "--points", "0", "--N", "16"], "precondition-violation", 1),
        (["decay", "--points", "1", "--N", "16"], "precondition-violation", 1),
        (["feasibility", "--scan", "1", "--step", "0"], "precondition-violation", 1),
        (["feasibility", "--n", "3", "--scan", "1", "--step", "10"],
         "precondition-violation", 1),
        (["solve-periodic", "--force", "bogus", "--N", "16"], "invalid-config", 2),
        (["periodicity-check", "--run", "<run>", "--steps", "0"], "precondition-violation", 1),
        (["admissible-range", "--out", "<file>"], "invalid-config", 2),
        (["admissible-range", "--out", "<file>/sub"], "invalid-config", 2),
        (["--threads", "-2", "admissible-range"], "invalid-config", 2),
        (["decay", "--N", "abc"], "invalid-config", 2),
        (["decay", "--bogus", "1"], "invalid-config", 2),
        (["no-such-command"], "invalid-config", 2),
        (["check-weight", "--form", "weird"], "invalid-config", 2),
        (["check-weight", "--sides", "1,x"], "invalid-config", 2),
        (["check-weight", "--sides", "0.1,nan,1000"], "invalid-config", 2),
        (["feasibility", "--scan", "2"], "invalid-config", 2),
        (["solve-periodic", "--linear", "5", "--N", "16"], "invalid-config", 2),
        (["maximal", "--s", "nan", "--N", "16"], "precondition-violation", 1),
        (["maximal", "--s", "inf", "--N", "16"], "precondition-violation", 1),
        (["frac-integral", "--s0", "nan", "--N", "16"], "precondition-violation", 1),
        (["weighted-report", "--run", "<run>", "--s", "nan"], "precondition-violation", 1),
        (["weighted-report", "--run", "<run>", "--s", "1e20"], "precondition-violation", 1),
        (["maximal", "--L", "inf", "--N", "16"], "precondition-violation", 1),
        (["decay", "--L", "inf", "--N", "16"], "precondition-violation", 1),
        (["decay", "--tmin", "nan", "--N", "16"], "precondition-violation", 1),
        (["decay", "--tmax", "inf", "--N", "16"], "precondition-violation", 1),
        (["decay", "--tmin", "1", "--tmax", "1", "--N", "16"], "precondition-violation", 1),
        (["solve-periodic", "--max-iter", "0", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
        (["solve-periodic", "--max-iter", "-3", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
        (["check-weight", "--n", "0"], "precondition-violation", 1),
        (["check-weight", "--n", "-1"], "precondition-violation", 1),
        (["admissible-range", "--n", "0"], "precondition-violation", 1),
        (["admissible-range", "--n", "-1"], "precondition-violation", 1),
        (["bogovskii-test", "--N", "8", "--L", "100"], "precondition-violation", 1),
        (["extend", "--N", "8", "--L", "100"], "precondition-violation", 1),
        (["solve-periodic", "--T", "inf", "--N", "8", "--M", "8"], "precondition-violation", 1),
        (["solve-periodic", "--eps", "nan", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
        (["solve-periodic", "--eps", "inf", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
        (["solve-periodic", "--tol", "inf", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
        (["check-weight", "--q", "inf"], "precondition-violation", 1),
        (["admissible-range", "--q", "inf"], "precondition-violation", 1),
        (["decay", "--alpha-order", "2", "--N", "16"], "precondition-violation", 1),
        # more than 2**24 points, refused before any array exists
        (["check-weight", "--n", "7"], "precondition-violation", 1),
        (["check-weight", "--n", "12"], "precondition-violation", 1),
        (["feasibility", "--n", "3", "--scan", "1", "--step", "1e-6"],
         "precondition-violation", 1),
        # side^2 overflows: refused before any cube product
        (["check-weight", "--sides", "0.001,1e300"], "precondition-violation", 1),
        # the cell volume h^3 overflows or underflows
        (["maximal", "--N", "8", "--L", "1e300"], "precondition-violation", 1),
        (["bogovskii-test", "--N", "8", "--L", "1e300", "--R", "1e299"],
         "precondition-violation", 1),
        (["maximal", "--N", "8", "--L", "1e-300"], "precondition-violation", 1),
        # h^3 is subnormal
        (["maximal", "--N", "8", "--L", "1e-103"], "precondition-violation", 1),
        (["decay", "--N", "8", "--L", "1e-103"], "precondition-violation", 1),
        # the annulus is checked before the analytic input is built
        (["bogovskii-test", "--R", "1e300", "--N", "12", "--L", "2"],
         "precondition-violation", 1),
        (["extend", "--R", "1e300", "--N", "12", "--L", "2"], "precondition-violation", 1),
        # 2 pi / T overflows
        (["solve-periodic", "--T", "1e-320", "--N", "8", "--M", "8"],
         "precondition-violation", 1),
    ],
    ids=["decay-points-0", "decay-points-1", "scan-step-0", "scan-empty", "force-unknown",
         "steps-0", "out-is-file", "out-under-file", "threads-negative", "N-not-int",
         "unknown-flag", "unknown-command", "form-unknown", "sides-not-numbers", "sides-nan",
         "scan-2", "linear-5", "maximal-s-nan", "maximal-s-inf", "frac-s0-nan",
         "report-s-nan", "report-s-1e20", "maximal-L-inf", "decay-L-inf", "decay-tmin-nan", "decay-tmax-inf",
         "decay-ladder-duplicate", "max-iter-0", "max-iter-negative", "check-weight-n-0",
         "check-weight-n-negative", "admissible-range-n-0", "admissible-range-n-negative",
         "bogovskii-empty-annulus", "extend-empty-annulus", "solve-T-inf", "solve-eps-nan",
         "solve-eps-inf", "solve-tol-inf", "check-weight-q-inf", "admissible-range-q-inf",
         "decay-alpha-order-2", "check-weight-n-7", "check-weight-n-12", "scan-step-1e-6",
         "sides-overflow", "maximal-L-1e300", "bogovskii-L-1e300", "maximal-L-1e-300",
         "maximal-L-1e-103", "decay-L-1e-103", "bogovskii-R-1e300", "extend-R-1e300",
         "solve-T-1e-320"],
)
def test_out_of_range_inputs(argv, error, status, small_run, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = [a.replace("<run>", str(small_run)).replace("<file>", str(tmp_path / "file"))
            for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == status
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    out = loads(lines[0])
    assert out["error"] == error and out["detail"]
    if error == "invalid-config":
        assert os.listdir(tmp_path) == ["file"]
    else:
        assert loads((tmp_path / "out" / "error.json").read_text()) == out


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["extend", "--L", "inf", "--N", "16"], "L must be positive and finite"),
        (["decay", "--tmin", "nan", "--N", "16"], "positive finite times"),
        (["decay", "--tmax", "inf", "--N", "16"], "positive finite times"),
        (["solve-periodic", "--T", "inf", "--N", "8", "--M", "8"],
         "period T must be positive and finite"),
        (["solve-periodic", "--eps", "nan", "--N", "8", "--M", "8"],
         "forcing amplitude must be finite"),
        (["check-weight", "--q", "inf"], "q must be finite"),
        # (2 pi/T)(M/2) overflows although 2 pi/T does not
        (["solve-periodic", "--T", "4e-308", "--N", "8", "--M", "8"],
         "period T = 4e-308 is too short for M = 8"),
        # the weighted sum of an L^q norm overflows
        (["frac-integral", "--lam", "1e-103", "--N", "12", "--L", "3"],
         "q = 6.0 with weight exponent 0.5"),
        (["maximal", "--N", "16", "--L", "2", "--q", "1e300", "--radii", "2"],
         "q = 1e+300 with weight exponent 1.0"),
        # the singular cell's ball integral |S^2| rho^lam / lam overflows
        (["frac-integral", "--lam", "5e-324", "--q", "inf", "--s0", "1e8", "--N", "16"],
         "lam = 5e-324"),
    ],
    ids=["extend-L-inf", "decay-tmin-nan", "decay-tmax-inf", "solve-T-inf", "solve-eps-nan",
         "check-weight-q-inf", "solve-T-4e-308", "frac-lam-1e-103", "maximal-q-1e300",
         "frac-lam-5e-324"],
)
def test_non_finite_inputs_are_named_in_the_error(argv, detail, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert detail in out["detail"]


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["admissible-range"], "result.json"),
        (["decay", "--N", "16", "--points", "3"], "decay.csv"),
        (["check-weight"], "aq_report.json"),
        (["solve-periodic", "--N", "8", "--M", "8"], "node_000.field"),
        (["admissible-range"], "manifest.json"),
    ],
    ids=["result-json", "decay-csv", "aq-report-json", "node-field", "manifest-json"],
)
def test_artifact_write_failure_is_a_precondition_violation(argv, artifact, tmp_path, capsys):
    # the artifact's path is taken by a directory, so writing it raises an OSError
    (tmp_path / "out" / artifact).mkdir(parents=True)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    out = loads(lines[0])
    assert out["error"] == "precondition-violation" and out["detail"]
    assert loads((tmp_path / "out" / "error.json").read_text()) == out


def test_error_json_taken_by_a_directory(tmp_path, capsys):
    # the failure still prints one line and exits with its kind's code;
    # error.json is left unwritten
    (tmp_path / "out" / "error.json").mkdir(parents=True)
    assert cli.main(["admissible-range", "--q", "inf", "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    out = loads(lines[0])
    assert out["error"] == "precondition-violation" and out["detail"]
    assert os.listdir(tmp_path / "out" / "error.json") == []


def test_only_the_handlers_of_main_name_fail():
    # one failure path: main's except handlers are the only callers of _fail,
    # and the second runner that once held three more handlers stays gone
    import ast
    import pathlib

    def sites(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        if isinstance(node, ast.ExceptHandler):
            scope += ("except",)
        if "_fail" in (getattr(node, "attr", None), getattr(node, "id", None)):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    assert list(sites(tree, ())) == ["main.except"] * 3
    assert "_run" not in {getattr(node, "name", None) for node in ast.walk(tree)}
