"""The CLI error contract as a property: every subcommand, one hostile option.

Each example runs one subcommand in process with one of its options set to
a value from HOSTILE and the others at their defaults, and checks the
contract: one JSON line on stdout and nothing on stderr, exit status 0, 1 or
2, no exception out of `cli.main` (so no traceback) and no RuntimeWarning.  A
failure is `invalid-config` with exit 2 and no output directory, or
`precondition-violation` with exit 1; whenever the output directory was
made, `error.json` there equals the failure line, and a success's line
equals its `result.json`.  `periodicity-check` and `weighted-report` read
one small solve.  A second property gives the drawn value through a
--config file instead, drawn also from values only JSON holds (true, null,
a string, a list, 16.7 and BIG): flags, config files and run manifests pass
one check.

Size options are capped: N <= 16, M <= 10, --steps <= 8, --points <= 4 and
--radii <= 4; a hostile value above its cap runs at the cap.  Each of them
sets the size of an array or of a loop, so 1e12 samples per axis or ladder
points would ask for terabytes (numpy's MemoryError path has its own test in
test_cli.py) and a large count would only spend time.  The caps keep a draw
near 15 ms, so the example budget adds a few seconds to Tier-1.  BIG, an int
beyond the float range that no draw holds, is passed uncapped by the
explicit examples: it must be refused before any array or loop is sized.
The global --threads is not drawn: it sets how many threads the transforms
start.
"""

import contextlib
import io
import itertools
import json
import math
import shutil
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from stokeslab import cli

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

HOSTILE = (0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-103, 1.0 - 1e-7, 1.0 + 1e-7, 1.01,
           3.0 - 1e-7, 3.0 + 1e-7, 1e12, 1e20, 1e300, sys.float_info.max, -1.0,
           math.inf, -math.inf, math.nan)

BIG = 10**400

CAPS = {"N": 16, "M": 10, "steps": 8, "points": 4, "radii": 4}

# options set below their defaults in every draw (the drawn option overrides)
BASE = {
    "maximal": [{"N": 16, "radii": 4}],
    "decay": [{"N": 16, "points": 4}],
    "frac-integral": [{"N": 16}],
    "bogovskii-test": [{"N": 16, "L": 4.0, "R": 1.0}],
    "extend": [{"N": 16, "L": 5.0, "R": 0.5}],
    "solve-periodic": [{"N": 8, "M": 8}],
    "periodicity-check": [{"steps": 8}],
    "feasibility": [{}, {"scan": 1}],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def _capped(key, typ, value):
    """A drawn value as it is given: an integral float as an int (capped) for
    an int option, any other value, BIG included, as drawn."""
    if typ is int and isinstance(value, float) and math.isfinite(value) and value == int(value):
        return min(int(value), CAPS.get(key, int(value)))
    return value


def _flag_value(key, typ, value):
    """The flag text of a hostile value: an int as its digits, a float as
    Python writes it."""
    value = _capped(key, typ, value)
    return str(value) if isinstance(value, int) else repr(value)


@st.composite
def hostile_runs(draw, values=HOSTILE):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    key = draw(st.sampled_from([k for k in options if k != "run"]))
    base = draw(st.sampled_from(BASE.get(command, [{}])))
    return command, base, key, draw(st.sampled_from(values))


@pytest.fixture(scope="module")
def small_solve(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("solve") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve-periodic", "--N", "8", "--M", "8", "--out", str(rundir)]) == 0
    return rundir


def check_contract(command, base, key, value, run, outdir, via_config=False):
    options = cli._COMMANDS[command][2]
    cfg = dict(base, run=run) if "run" in options else dict(base)
    cfg[key] = value
    argv = [command, "--out", str(outdir)]
    if via_config:       # the drawn value as a JSON value of a config file, beside outdir
        config = outdir.with_name(outdir.name + ".json")
        config.write_text(json.dumps({key: _capped(key, options[key][0], cfg.pop(key))}))
        argv += ["--config", str(config)]
    argv += [f"{cli._flag_name(k)}={v if k == 'run' else _flag_value(k, options[k][0], v)}"
             for k, v in cfg.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        status = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert stderr.getvalue() == "", argv
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1, argv
    line = loads(lines[0])
    if "error" not in line:
        assert status in (0, 1), argv            # 1: a solve that did not converge
        assert loads((outdir / "result.json").read_text()) == line, argv
        return
    assert status == {"invalid-config": 2, "precondition-violation": 1}[line["error"]], argv
    assert line["detail"], argv
    if line["error"] == "invalid-config":
        assert not outdir.exists(), argv
    if outdir.exists():
        assert loads((outdir / "error.json").read_text()) == line, argv
    return line


@pytest.fixture(scope="module")
def fresh_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    return (root / str(i) for i in itertools.count())


@PROPERTY
@given(hostile_runs())
# the breaches the sweep found, each run every time: an AssertionError
# (Jensen violated), an OverflowError (int(inf) grid points) and RuntimeWarnings
@example(("check-weight", {}, "q", 1e12))
@example(("check-weight", {}, "n", sys.float_info.max))
@example(("feasibility", {"scan": 1}, "step", 5e-324))
@example(("feasibility", {"scan": 1}, "n", sys.float_info.max))
@example(("decay", BASE["decay"][0], "tmax", sys.float_info.max))
@example(("solve-periodic", BASE["solve-periodic"][0], "eps", sys.float_info.max))
@example(("solve-periodic", BASE["solve-periodic"][0], "T", sys.float_info.max))
# an int option that float() cannot convert: an OverflowError in the command
@example(("check-weight", {}, "n", BIG))
@example(("admissible-range", {}, "n", BIG))
@example(("feasibility", {}, "n", BIG))
@example(("decay", BASE["decay"][0], "N", BIG))
@example(("decay", BASE["decay"][0], "points", BIG))
@example(("maximal", BASE["maximal"][0], "radii", BIG))
@example(("frac-integral", BASE["frac-integral"][0], "N", BIG))
@example(("extend", BASE["extend"][0], "N", BIG))
@example(("solve-periodic", BASE["solve-periodic"][0], "M", BIG))
@example(("periodicity-check", BASE["periodicity-check"][0], "steps", BIG))
def test_every_run_ends_in_the_json_contract(small_solve, fresh_dirs, draw):
    command, base, key, value = draw
    check_contract(command, base, key, value, str(small_solve), next(fresh_dirs))


# values that only a JSON file can hold, or that the flag parser refuses
JSON_ONLY = (True, None, "8", [1], 16.7, BIG)


@PROPERTY
@given(hostile_runs(HOSTILE + JSON_ONLY))
# an OverflowError out of the config file's own coercion, and a number for
# the string option --sides
@example(("decay", BASE["decay"][0], "L", BIG))
@example(("check-weight", {}, "sides", 5))
def test_every_config_file_value_ends_in_the_json_contract(small_solve, fresh_dirs, draw):
    command, base, key, value = draw
    check_contract(command, base, key, value, str(small_solve), next(fresh_dirs),
                   via_config=True)


@pytest.mark.parametrize("key", ["N", "M"])
def test_run_manifest_int_beyond_the_float_range(key, small_solve, tmp_path):
    # a run's config is read from its manifest, past the flag checks, and is
    # refused as the flag's value would be
    run = tmp_path / "run"
    shutil.copytree(small_solve, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"][key] = BIG
    (run / "manifest.json").write_text(json.dumps(manifest))
    line = check_contract("weighted-report", {}, "s", 1.0, str(run), tmp_path / "out")
    assert line["error"] == "invalid-config" and repr(key) in line["detail"]
