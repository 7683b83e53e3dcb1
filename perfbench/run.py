"""Benchmark of the stokeslab laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from src/.
The workloads (perfbench/workloads.py) drive the public `stokeslab` command
line with flags:

  decay-ladder       decay at N=64, L=16: the four cases of acceptance
                     criterion 2 on two seed-derived corpus fields
  periodic-cycle     solve-periodic at N=32, M=16 and eps 0.01, 1, 25 with a
                     seed-derived random force, then periodicity-check
                     (256 ETDRK4 steps) and weighted-report on the eps=25 run
  annulus-extension  bogovskii-test and extend at N=64 and 128, L=8; the
                     inputs are analytic, so this workload ignores the seed
  weights-cli        check-weight for alpha -3, -2, 0, 2, admissible-range,
                     feasibility, feasibility --scan, maximal and
                     frac-integral, each as its own `stokeslab` process

Load: a closed loop with one client.  Operations run one after another in a
worker process that pins OpenMP/OpenBLAS/MKL to one thread before numpy
loads; every measured pass gets a fresh worker.  Each operation's output is
checked against the threshold of the acceptance criterion it mirrors.

--trace 0 runs passes until --seconds are spent (at least one), then
set-up-only workers until there are SETUP_SAMPLES set-up times, and reports
medians of
  setup_s      worker start until ready for its first operation (s)
  wall_s       wall time of one pass, tracing off (s)
  cpu_s        user + system CPU of the pass, children included (s)
  peak_rss_mb  peak resident memory of worker and children (MB)
and prints fail_share (failed / attempted operations), which the last line
carries as `failed` and `attempted`.  fail_share is not a BENCHMARK.json
metric: it is 0 on a correct run, and a bound relative to 0 is undefined.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of PER_LAYER: calls and self time per layer and per named
function, computed FFT work, solver counters, file bytes, the share of the
traced pass that no top-level span covers, and the tracing overhead (traced
minus untraced wall time).  spans.json in the run directory lists calls and
self time of every wrapped function.

Each run writes env.json, digests.json (SHA-256 of every data artifact per
operation) and summary.json to perfbench/runs/<workload>/seed-<N>[-trace]/.
Passes of one run must produce identical artifacts; perfbench/compare.py
checks two run sets against each other.  Confirm a claim on HELD_OUT_SEED as
well as on the seeds used while writing the change.  perfbench/selftest.py
tests the benchmark itself.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

WORKLOADS = ("decay-ladder", "periodic-cycle", "annulus-extension", "weights-cli")
HELD_OUT_SEED = 904173
SETUP_SAMPLES = 5
DEADLINE_S = 165          # a run must end within 180 s

E2E = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# layers with a self-time total; cli has one public function, cli.main
MODULE_LAYERS = ("grid", "corpus", "semigroup", "weights", "exterior", "periodic")
LIBRARY_LAYERS = ("fft", "ndimage", "signal.resample", "linalg.tensordot")
FUNCTIONS = (
    "cli.main",
    "grid.integrate", "grid.Grid.bracket", "grid.divergence", "grid.gradient",
    "grid.save_field", "grid.load_field",
    "corpus.random_smooth_field",
    "semigroup.decay_harness", "semigroup.leray_project", "semigroup.write_decay_csv",
    "semigroup.fractional_integral",
    "periodic.picard_solve", "periodic.periodicity_check", "periodic.weighted_report",
    "exterior.bogovskii_apply", "exterior.solenoidal_extension",
    "exterior.divergence_defect",
    "weights.aq_check", "weights.maximal_function", "weights.mollifier_sup",
    "weights.feasibility_scan",
)
COUNTERS = (
    ("fft.points_computed", "count"), ("fft.flops_computed", "flop"),
    ("fft.bytes_computed", "B"),
    ("grid.save_field.bytes", "B"), ("grid.load_field.bytes", "B"),
    ("periodic.picard_iterations", "count"), ("periodic.contraction_errors", "count"),
    ("periodic.etdrk4_steps", "count"), ("periodic.force_evals", "count"),
)


def _per_layer():
    out = []
    for layer in LIBRARY_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in MODULE_LAYERS]
    for fn in FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    out += [(name, unit, "lower") for name, unit in COUNTERS]
    out += [
        ("periodic.force_eval_distinct_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("untraced_share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = _per_layer()


class BenchError(Exception):
    pass


def spawn(workload, seed, workdir, deadline, trace=False, smoke=False, setup_only=False):
    """Run one worker process to completion and return its report."""
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", workdir]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn", repr(spawned)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(os.path.join(workdir, "worker.json")) as fh:
        report = json.load(fh)
    shutil.rmtree(workdir)
    return report


def layer_metrics(trace, traced_wall, plain_wall):
    stats, layer_of, counters = trace["stats"], trace["layer_of"], trace["counters"]
    values = {}
    for layer in LIBRARY_LAYERS + MODULE_LAYERS:
        members = [stats[q] for q, lay in layer_of.items() if lay == layer]
        values[f"{layer}.calls"] = sum(c for c, _ in members)
        values[f"{layer}.self_s"] = sum(s for _, s in members)
    for fn in FUNCTIONS:
        calls, self_s = stats.get(fn, (0, 0.0))
        values[f"{fn}.calls"], values[f"{fn}.self_s"] = calls, self_s
    for name, _ in COUNTERS:
        values[name] = counters.get(name, 0)
    evals = counters.get("periodic.force_evals", 0)
    values["periodic.force_eval_distinct_ratio"] = (
        counters.get("periodic.force_distinct", 0) / evals if evals else 0.0)
    values["cli.import_s"] = trace["import_s"]
    values["untraced_share"] = max(0.0, 1.0 - trace["top_s"] / traced_wall)
    values["trace.overhead_s"] = traced_wall - plain_wall
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Measure one workload; return (result object, human-readable lines)."""
    kind = "-trace" * bool(trace) + "-smoke" * smoke
    rundir = os.path.join(RUNS, workload, f"seed-{seed}{kind}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def worker(label, **kw):
        return spawn(workload, seed, os.path.join(rundir, f"{label}-{time.monotonic_ns()}"),
                     deadline, smoke=smoke, **kw)

    passes = []
    if trace:
        passes = [worker("pass"), worker("traced", trace=True)]
    else:
        while True:
            passes.append(worker("pass"))
            elapsed = time.monotonic() - start
            if smoke or elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 15:
        setups.append(worker("setup", setup_only=True)["setup_s"])

    # every pass must reproduce the first pass's artifacts bit for bit
    reference = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    misses, op_seconds = [], {}
    for i, p in enumerate(passes):
        for op in p["ops"]:
            if op["digest"] != reference[op["name"]]:
                op["misses"].append("artifacts differ from the first pass")
            misses += [f"pass {i} {op['name']}: {m}" for m in op["misses"]]
            op_seconds.setdefault(op["name"], []).append(op["seconds"])
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(bool(op["misses"]) for p in passes for op in p["ops"])
    unrestored = sorted({a for p in passes for a in p.get("unrestored", [])})

    if trace:
        metrics = layer_metrics(passes[1]["trace"], passes[1]["wall_s"], passes[0]["wall_s"])
    else:
        med = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            med[key] = statistics.median(p[key] for p in passes)
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in E2E}
    result = {"correct": failed == 0 and not unrestored, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    env = dict(passes[0]["env"], workload=workload, seed=seed,
               held_out_seed=HELD_OUT_SEED, seconds=seconds, trace=trace, smoke=smoke)
    seed_note = " (analytic inputs: the seed is not used)" * (workload == "annulus-extension")
    lines = [
        f"workload {workload} seed {seed}{seed_note} trace {trace} passes {len(passes)} "
        f"setup samples {len(setups)}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
        + " threads=" + ",".join(f"{k}={v}" for k, v in env["threads"].items()),
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_share':<40} {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} operations)")
    lines += [f"  miss {m}" for m in misses]
    lines += [f"  unrestored attribute {a}" for a in unrestored]
    lines.append(f"  artifacts {os.path.relpath(rundir, ROOT)}/digests.json")

    summary = dict(result, misses=misses, unrestored=unrestored, setup_samples=setups,
                   pass_wall_s=[p["wall_s"] for p in passes], op_seconds=op_seconds)
    outputs = {"env.json": env, "digests.json": reference, "summary.json": summary}
    if trace:
        stats = passes[1]["trace"]["stats"]
        outputs["spans.json"] = dict(sorted(stats.items(), key=lambda kv: -kv[1][1]))
    for name, obj in outputs.items():
        with open(os.path.join(rundir, name), "w") as fh:
            json.dump(obj, fh, indent=1)
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one reduced-size pass (used by selftest.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "stokeslab", "cli.py")):
        print(f"error: no stokeslab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds,
                                                args.trace, args.smoke)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
