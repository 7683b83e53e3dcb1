"""One pass of a workload in a fresh process, so that import cost and memory
peak belong to that pass.

    python3 perfbench/worker.py --workload W --seed S --dir D --spawn T
                                [--trace] [--smoke] [--setup-only]

T is the caller's time.monotonic() when it started this process; set-up is
measured from there.  The worker writes D/worker.json and nothing to stdout.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"      # before numpy loads, here and in every child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OP_TIMEOUT_S = 170


def run_op(op, argv, trace_file):
    """Run one operation; return its exit status, stdout and error text."""
    if op.subprocess:
        if trace_file:
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), trace_file]
        else:
            cmd = [sys.executable, "-m", "stokeslab.cli"]
        try:
            proc = subprocess.run(cmd + argv, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {OP_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr[-2000:]
    import stokeslab.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = stokeslab.cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return status, buf.getvalue(), ""


def judge(op, status, stdout, error, done):
    """Missed thresholds of one operation; records its result in `done`."""
    if status != 0:
        return [f"exit status {status} {error.strip()[-300:]}"]
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return ["no JSON result"]
    if "error" in result:
        return [f"{result['error']}: {result.get('detail')}"]
    done[op.name] = result
    try:
        return op.gate(result, done)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"gate could not read the result: {exc!r}"]


def digest(outdir):
    """SHA-256 of every data artifact an operation wrote (not manifest.json)."""
    files = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            if name == "manifest.json":
                continue
            path = os.path.join(root, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            files[os.path.relpath(path, outdir)] = h.hexdigest()
    return dict(sorted(files.items()))


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def merge_spans(total, part):
    for name, (calls, self_s) in part["stats"].items():
        rec = total["stats"].setdefault(name, [0, 0.0])
        rec[0] += calls
        rec[1] += self_s
    total["layer_of"].update(part["layer_of"])
    for key, value in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + value
    total["top_s"] += part["top_s"] + part["import_s"]
    total["import_s"] += part["import_s"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.monotonic()
    import stokeslab.cli
    import_s = time.monotonic() - t_import
    if not os.path.abspath(stokeslab.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"stokeslab was imported from {stokeslab.cli.__file__}, not {SRC}")
    import spans
    import workloads

    ops = workloads.build(args.workload, args.seed, args.smoke)
    outdirs = {op.name: os.path.join(args.dir, op.name) for op in ops}
    argvs = [op.argv + ["--out", outdirs[op.name]]
             + (["--run", outdirs[op.needs_run]] if op.needs_run else []) for op in ops]
    report = {"setup_s": time.monotonic() - args.spawn, "import_s": import_s}
    if args.setup_only:
        with open(os.path.join(args.dir, "worker.json"), "w") as fh:
            json.dump(report, fh)
        return

    tracer = spans.Tracer() if args.trace else None
    trace_files = [os.path.join(args.dir, f"{op.name}.spans.json")
                   if (tracer and op.subprocess) else None for op in ops]
    records = []
    if tracer:
        tracer.install()
    try:
        cpu0, t0 = cpu_seconds(), time.monotonic()
        for op, argv, trace_file in zip(ops, argvs, trace_files):
            start = time.monotonic()
            records.append(run_op(op, argv, trace_file) + (time.monotonic() - start,))
        wall = time.monotonic() - t0
        cpu1 = cpu_seconds()
    finally:
        unrestored = tracer.uninstall() if tracer else []

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report.update(
        wall_s=wall,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak_kb / 1024.0,
        env=environment(),
        unrestored=unrestored,
        ops=[],
    )
    done = {}
    trace = None
    if tracer:
        trace = tracer.summary()
        trace.update(import_s=import_s, wall_s=wall)
    for op, (status, stdout, error, seconds), trace_file in zip(ops, records, trace_files):
        misses = judge(op, status, stdout, error, done)
        if trace_file:
            try:
                with open(trace_file) as fh:
                    part = json.load(fh)
            except (OSError, ValueError):
                misses.append("traced process left no span record")
            else:
                merge_spans(trace, part)
                report["unrestored"] += part["unrestored"]
        report["ops"].append({"name": op.name, "seconds": seconds, "misses": misses,
                              "digest": digest(outdirs[op.name])})
    report["trace"] = trace
    with open(os.path.join(args.dir, "worker.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
