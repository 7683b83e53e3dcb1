"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that
  1. BENCHMARK.json names exactly the workloads and metrics run.py emits;
  2. after the tracer is uninstalled every wrapped attribute is the original
     object again, and a traced call returns what an untraced one does;
  3. a reduced-size smoke run of every workload, with one untraced and one
     traced pass, reports every per-layer metric, restores every attribute
     and ends with fail_share 0 (the annulus workload keeps its sizes: its
     thresholds are stated at N = 64 and 128);
  4. an untraced smoke run reports every end-to-end metric.
Exits 1 on the first failed check.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E),
          "BENCHMARK.json end_to_end metrics match run.py")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == run.PER_LAYER, "BENCHMARK.json per_layer metrics match run.py")
    return bench


def snapshot():
    """Every attribute the tracer may replace, by identity."""
    import stokeslab

    owners = [stokeslab] + [importlib.import_module(f"stokeslab.{m}")
                            for m in spans.PACKAGE_LAYERS]
    owners += [cls for mod in owners[1:] for cls in vars(mod).values()
               if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    owners += [importlib.import_module(name) for name, _, _ in spans.LIBRARY]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def check_restore():
    import numpy as np
    from stokeslab.grid import Grid, integrate
    from stokeslab.corpus import random_smooth_field

    before = snapshot()
    f = random_smooth_field(Grid(3, 16, 4.0), 3)
    plain = integrate(f, 2.0, 1.0), np.fft.rfftn(f.data).sum()
    rfftn = np.fft.rfftn
    tracer = spans.Tracer()
    tracer.install()
    try:
        import stokeslab.grid
        wrapped = stokeslab.grid.integrate is not integrate and np.fft.rfftn is not rfftn
        traced = stokeslab.grid.integrate(f, 2.0, 1.0), np.fft.rfftn(f.data).sum()
    finally:
        bad = tracer.uninstall()
    after = snapshot()
    check(bool(wrapped), "install wraps package and library functions")
    check(traced == plain, "a traced call returns the untraced result")
    check(tracer.stats["grid.integrate"][0] == 1
          and tracer.stats["numpy.fft.rfftn"][0] == 1, "traced calls are counted")
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not bad and not changed and set(after) == set(before),
          "uninstall restores every wrapped attribute")


def smoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    check(ok, f"{workload} smoke run (trace {trace}) exits 0"
          + ("" if ok else f": {proc.stderr[-500:]}"))
    return json.loads(lines[-1]), lines


def main():
    bench = check_benchmark_json()
    check_restore()
    layer_names = {m["name"] for m in bench["per_layer"]}
    for workload in run.WORKLOADS:
        result, lines = smoke(workload, 1)
        check(set(result["metrics"]) == layer_names,
              f"{workload} traced run emits every per-layer metric")
        check(result["failed"] == 0 and result["correct"],
              f"{workload} smoke fail_share 0 and attributes restored "
              f"({result['failed']} of {result['attempted']} failed)"
              + "".join(f"\n  {l}" for l in lines if "miss" in l or "unrestored" in l))
    result, _ = smoke("decay-ladder", 0)
    check(set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
          and result["failed"] == 0, "untraced run emits every end-to-end metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
