"""The four benchmark workloads: the stokeslab CLI operations of one pass and
the acceptance threshold each operation's output must meet.

Every operation is a `stokeslab` command line.  In-process workloads call
`stokeslab.cli.main(argv)`; `weights-cli` runs each command as its own
`python -m stokeslab.cli` process, because there start-up is what users pay.
Inputs come from the seed only: `derived_seeds` turns the benchmark seed into
the corpus and forcing seeds the commands receive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("decay-ladder", "periodic-cycle", "annulus-extension", "weights-cli")

# acceptance criterion 2: the four (p, q, s, s0, alpha_order) cases on the
# ladder geomspace(1, 64, 9)
DECAY_CASES = (
    (2.0, 2.0, 1.0, 0.0, 0),
    (2.0, 6.0, 0.0, 0.0, 0),
    (2.0, 2.0, 0.0, 0.0, 1),
    (2.0, 4.0, 1.0, 0.0, 0),
)
# forcing amplitudes spanning few (3) to many (12-15) Picard iterations
PERIODIC_EPS = (0.01, 1.0, 25.0)
PICARD_TOL = 1e-8
# check-weight ladder: -3 is outside the A_2 window (-3, 3) of <x>^a in R^3
WEIGHT_ALPHAS = (-3.0, -2.0, 0.0, 2.0)


@dataclass
class Op:
    """One CLI invocation and the gate its JSON result must pass.

    gate(result, done) returns the list of missed thresholds; `done` maps the
    names of earlier operations of the pass to their results.
    """

    name: str
    argv: list
    gate: Callable[[dict, dict], list]
    subprocess: bool = False
    needs_run: str = ""      # name of the solve-periodic op whose directory --run names


def derived_seeds(seed: int):
    """Corpus and forcing seeds of every workload, derived from one seed."""
    from stokeslab.corpus import corpus_seeds

    s = corpus_seeds(seed, 4)
    return {"decay_fields": s[0:2], "force": s[2], "weights_field": s[3]}


def _fmt(x: float) -> str:
    return repr(float(x))


def _miss(ok: bool, text: str):
    return [] if ok else [text]


def _finite_numbers(result: dict):
    bad = [k for k, v in result.items()
           if isinstance(v, float) and not math.isfinite(v)]
    return _miss(not bad, f"non-finite values {bad}")


# --- decay-ladder ----------------------------------------------------------


def _decay_gate(result, done):
    gap = result["fitted_slope"] - result["predicted_exponent"]
    return (_miss(result["bound_compliance"] <= 1.05,
                  f"compliance {result['bound_compliance']:.4f} > 1.05")
            + _miss(gap <= 0.1, f"slope gap {gap:.3f} > 0.1"))


def _decay_ops(seeds, N, fields):
    ops = []
    for i, fseed in enumerate(seeds["decay_fields"][:fields]):
        for j, (p, q, s, s0, a) in enumerate(DECAY_CASES):
            argv = ["decay", "--p", _fmt(p), "--q", _fmt(q), "--s", _fmt(s),
                    "--s0", _fmt(s0), "--alpha-order", str(a), "--tmin", "1",
                    "--tmax", "64", "--points", "9", "--seed", str(fseed),
                    "--N", str(N), "--L", "16"]
            ops.append(Op(f"decay-f{i}-c{j}", argv, _decay_gate))
    return ops


# --- periodic-cycle --------------------------------------------------------


def _solve_gate(result, done):
    return (_miss(result["converged"] is True, "not converged")
            + _miss(result["residual"] <= PICARD_TOL,
                    f"residual {result['residual']:.2e} > tol {PICARD_TOL:.0e}"))


def _check_gate(result, done):
    return _miss(result["defect"] <= 1e-5,
                 f"periodicity defect {result['defect']:.2e} > 1e-5")


def _report_gate(result, done):
    return (_finite_numbers(result)
            + _miss(result["applicable"] is True, "forcing norm vanished"))


def _periodic_ops(seeds, N, M, eps_list, steps):
    ops = []
    for eps in eps_list:
        argv = ["solve-periodic", "--eps", _fmt(eps), "--N", str(N), "--M", str(M),
                "--force", "random", "--seed", str(seeds["force"]),
                "--tol", _fmt(PICARD_TOL)]
        ops.append(Op(f"solve-eps{eps:g}", argv, _solve_gate))
    run = ops[-1].name  # the most nonlinear solve is re-simulated and reported
    ops.append(Op("periodicity-check", ["periodicity-check", "--steps", str(steps)],
                  _check_gate, needs_run=run))
    ops.append(Op("weighted-report", ["weighted-report", "--q1", "2", "--q2", "2",
                                      "--s", "1"], _report_gate, needs_run=run))
    return ops


# --- annulus-extension -----------------------------------------------------
# The inputs are the CLI's analytic test fields, so this workload ignores the
# seed.  Grid sizes 64 and 128 are fixed by criteria 5 and 6, whose thresholds
# are stated at N = 128 and for the 128/64 ratio.


def _annulus_gate(key, exact_key, coarse):
    def gate(result, done):
        misses = _miss(result[exact_key] is True, f"{exact_key} false")
        if coarse is not None:
            d128, d64 = result[key], done[coarse][key]
            misses += _miss(d128 <= 0.1, f"{key}(128) {d128:.3f} > 0.1")
            misses += _miss(d128 / d64 <= 0.6, f"{key} ratio {d128 / d64:.2f} > 0.6")
        return misses
    return gate


def _annulus_ops():
    ops = []
    for cmd, key, exact, short in (
        ("bogovskii-test", "div_defect_rel", "support_exact", "bog"),
        ("extend", "div_v0_rel", "far_field_exact", "ext"),
    ):
        ops.append(Op(f"{short}-N64", [cmd, "--N", "64", "--L", "8"],
                      _annulus_gate(key, exact, None)))
        ops.append(Op(f"{short}-N128", [cmd, "--N", "128", "--L", "8"],
                      _annulus_gate(key, exact, f"{short}-N64")))
    return ops


# --- weights-cli -----------------------------------------------------------


def _verdict_gate(expected):
    def gate(result, done):
        return _miss(result["verdict"] == expected,
                     f"verdict {result['verdict']} != {expected}")
    return gate


def _close(got, want, what):
    return _miss(abs(got - want) <= 1e-12, f"{what} {got!r} != {want!r}")


def _range_gate(result, done):
    # <x>^(sq) in A_q iff -n < sq < n(q - 1); here q = 2, n = 3
    return _close(result["lo"], -1.5, "lo") + _close(result["hi"], 1.5, "hi")


def _feasibility_gate(result, done):
    # criterion 9: the (n, q1, q2) = (5, 4, 3) window is (1/3, 25/24)
    return (_close(result["lo"], 1.0 / 3.0, "lo")
            + _close(result["hi"], 25.0 / 24.0, "hi"))


def _scan_gate(result, done):
    # criterion 9: every window is empty at n = 3 (a documented finding)
    return _miss(result["nonempty"] == 0, f"{result['nonempty']} nonempty windows")


def _maximal_gate(result, done):
    return (_miss(result["dominates_input"] is True, "M f does not dominate |f|")
            + _miss(result["mollifier_dominated"] is True,
                    "M f does not dominate the mollifier sup")
            + _finite_numbers(result))


def _frac_gate(result, done):
    err = result["gauss_center_rel_err"]
    return (_miss(err < 1e-3, f"Gaussian oracle error {err:.2e} >= 1e-3")
            + _miss(result["two_weight_ratio"] > 0, "two-weight ratio not positive")
            + _finite_numbers(result))


def _weights_ops(seeds, alphas, maximal_N, frac_N):
    ops = [Op(f"check-weight-a{a:g}", ["check-weight", "--alpha", _fmt(a), "--q", "2",
                                        "--n", "3"],
              _verdict_gate("diverging" if a <= -3.0 else "finite"), subprocess=True)
           for a in alphas]
    ws = str(seeds["weights_field"])
    ops += [
        Op("admissible-range", ["admissible-range", "--q", "2", "--n", "3"],
           _range_gate, subprocess=True),
        Op("feasibility", ["feasibility", "--n", "5", "--q1", "4", "--q2", "3"],
           _feasibility_gate, subprocess=True),
        Op("feasibility-scan", ["feasibility", "--n", "3", "--scan", "1",
                                "--step", "0.01"], _scan_gate, subprocess=True),
        Op("maximal", ["maximal", "--seed", ws, "--N", str(maximal_N), "--L", "16"],
           _maximal_gate, subprocess=True),
        Op("frac-integral", ["frac-integral", "--seed", ws, "--N", str(frac_N),
                             "--L", "5"], _frac_gate, subprocess=True),
    ]
    return ops


def build(workload: str, seed: int, smoke: bool = False):
    """Operations of one pass.  `smoke` gives the reduced-size self-test pass."""
    seeds = derived_seeds(seed)
    if workload == "decay-ladder":
        return _decay_ops(seeds, 32, 1) if smoke else _decay_ops(seeds, 64, 2)
    if workload == "periodic-cycle":
        if smoke:
            return _periodic_ops(seeds, 16, 8, PERIODIC_EPS[:2], 64)
        return _periodic_ops(seeds, 32, 16, PERIODIC_EPS, 256)
    if workload == "annulus-extension":
        return _annulus_ops()
    if workload == "weights-cli":
        if smoke:
            return _weights_ops(seeds, (-3.0, 2.0), 32, 96)
        return _weights_ops(seeds, WEIGHT_ALPHAS, 64, 96)
    raise ValueError(f"unknown workload {workload!r}")
