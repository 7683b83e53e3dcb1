import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import pytest

from stokeslab import cli
from stokeslab.corpus import random_smooth_field
from stokeslab.grid import Grid, gradient, load_field, save_field


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
     ["solve-periodic", "--force", "single-mode", "--linear", "1", "--N", "16", "--M", "8"]],
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
     ("feasibility", {"scan": 1.7})],
    ids=["unknown-key", "null-value", "top-level-list", "non-numeric", "form-unknown",
         "force-unknown", "int-non-integral", "scan-non-integral"],
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


@pytest.mark.parametrize("content", [None, "{not json"], ids=["unreadable", "bad-json"])
def test_config_file_that_cannot_be_read(content, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    if content is not None:
        cfgfile.write_text(content)
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
        "from stokeslab.corpus import refine_field\n"
        "from stokeslab.semigroup import fractional_integral\n"
        "f = Field(Grid(3, 8, 2.0), np.ones((8, 8, 8)))\n"
        "fractional_integral(f, 1.0), refine_field(f)\n"
        "print('scipy.signal' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


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


def _assert_rejected(capsys, run, command="periodicity-check"):
    before = sorted(os.listdir(run)) if run.exists() else None
    status, out = run_cli(capsys, command, "--run", str(run))
    assert status == 1
    assert out["error"] == "precondition-violation"
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
    _assert_rejected(capsys, run)


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
    ],
    ids=["decay-points-0", "decay-points-1", "scan-step-0", "scan-empty", "force-unknown",
         "steps-0", "out-is-file", "out-under-file", "threads-negative", "N-not-int",
         "unknown-flag", "unknown-command", "form-unknown", "sides-not-numbers", "sides-nan",
         "scan-2", "linear-5", "maximal-s-nan", "maximal-s-inf", "frac-s0-nan",
         "report-s-nan", "maximal-L-inf", "decay-L-inf", "decay-tmin-nan", "decay-tmax-inf",
         "decay-ladder-duplicate", "max-iter-0", "max-iter-negative", "check-weight-n-0",
         "check-weight-n-negative", "admissible-range-n-0", "admissible-range-n-negative",
         "bogovskii-empty-annulus", "extend-empty-annulus", "solve-T-inf", "solve-eps-nan",
         "solve-eps-inf", "solve-tol-inf", "check-weight-q-inf", "admissible-range-q-inf",
         "decay-alpha-order-2"],
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
    ],
    ids=["extend-L-inf", "decay-tmin-nan", "decay-tmax-inf", "solve-T-inf", "solve-eps-nan",
         "check-weight-q-inf"],
)
def test_non_finite_inputs_are_named_in_the_error(argv, detail, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert status == 1
    assert out["error"] == "precondition-violation"
    assert detail in out["detail"]
