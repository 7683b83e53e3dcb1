"""Reproducible experiment runner: every operation as a subcommand.

Configuration comes from an optional JSON file plus command-line flags
(flags win).  Each run writes its artifacts into an output directory
together with a manifest recording the exact configuration, its hash, and
library versions; a solve-periodic manifest also records the sha256 of each
node file, and the commands that read that directory check every node
against it before they write anything.  Identical configuration and seed
give bit-identical data artifacts (result.json, CSV, field binaries); wall
time lives only in manifest.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .corpus import PRNG_ID, random_smooth_field
from .exterior import (
    annulus_dipole, bogovskii_apply, divergence_defect, shell_potential,
    solenoidal_extension,
)
from .grid import Field, Grid, curl, fft_backend, integrate, load_field, save_field
from .periodic import (
    PeriodicSolution, check_picard_settings, periodicity_check, picard_solve,
    random_solenoidal_force, single_mode_force, weighted_report,
)
from .semigroup import decay_harness, fractional_integral, predicted_exponent, write_decay_csv
from .weights import (
    RadialWeight, admissible_range, aq_check, feasibility, feasibility_scan,
    maximal_function, mollifier_sup,
)


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # usage errors join the JSON error contract
        raise ConfigError(message)


def _build_parser():
    ap = _Parser(
        prog="stokeslab",
        description="numerical laboratory for weighted semigroup decay and "
        "time-periodic flow fixed points",
    )
    ap.add_argument("--threads", type=int, default=0,
                    help="worker threads of the FFT backend (scipy.fft workers); "
                    "0 keeps its default of one")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, description, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=description, description=description)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with option values (flags override)")
        # main's rule: a follow-up check writes inside the run it examines
        out = os.path.join("<run>" if "run" in options else "runs", name)
        sp.add_argument("--out", type=str, default=None, help=f"output directory (default {out})")
        for key, (typ, default, hlp, *_) in options.items():
            sp.add_argument(_flag_name(key), type=typ, default=None,
                            help=f"{hlp} (default {default})" if default != "" else hlp)
    return ap


def _resolve_config(args) -> dict:
    schema = _COMMANDS[args.command][2]
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        # ValueError covers JSONDecodeError and UnicodeDecodeError; RecursionError
        # is a nesting too deep for the parser
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object of option values")
    flags = {k: getattr(args, k) for k in schema if getattr(args, k) is not None}
    cfg = ({k: spec[1] for k, spec in schema.items()}       # flags override the file
           | _option_values(args.command, file_cfg) | _option_values(args.command, flags))
    _cube_sides(cfg)            # a malformed --sides fails before any directory exists
    return cfg


def _option_values(command, given) -> dict:
    """The given option values converted to their types; the one check of flags,
    config files and run manifests.  Each option must be known and hold a
    string or a number as its type asks (no JSON boolean), an int option an
    integral one, every number one that float() converts, and an enumerated
    option one of its allowed values."""
    schema = _COMMANDS[command][2]
    values = {}
    for k, v in given.items():
        if k not in schema:
            raise ConfigError(f"unknown option {k!r} for {command}")
        typ, _, _, *allowed = schema[k]
        try:
            if isinstance(v, bool) or not isinstance(v, str if typ is str else (int, float)):
                raise ValueError(f"needs a {'string' if typ is str else 'number'}, "
                                 f"got {json.dumps(v)}")
            number = None if typ is str else float(v)     # OverflowError past the float range
            if typ is int and not number.is_integer():
                raise ValueError(f"needs an integer, got {v!r}")
            values[k] = typ(v)
            if allowed and values[k] not in allowed[0]:
                raise ValueError(f"must be one of {allowed[0]}, got {values[k]!r}")
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"option {k!r}: {exc}") from None
    return values


def _cube_sides(cfg):
    """The --sides list as floats; None (the default ladder) when empty or absent."""
    try:
        sides = [float(s) for s in cfg["sides"].split(",")] if cfg.get("sides") else None
        if sides and not np.all(np.isfinite(sides)):
            raise ValueError(f"{cfg['sides']!r} holds a non-finite side")
    except ValueError as exc:
        raise ConfigError(f"option 'sides' must be comma-separated finite numbers: {exc}")
    return sides


class ConfigError(Exception):
    pass


def _null_if_not_finite(x):
    """None for the documented non-finite outputs, so they are written as null."""
    return x if math.isfinite(x) else None


def _json_text(obj, **kw) -> str:
    """Strict JSON with sorted keys; any non-finite number is a ValueError."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kw)
    except ValueError as exc:
        raise ValueError(f"a non-finite number cannot be written as strict JSON: {exc}") from None


def _write_json(path, obj) -> None:
    text = _json_text(obj, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _corpus_field(cfg, components=3):
    grid = Grid(3, cfg["N"], cfg["L"])
    return grid, random_smooth_field(grid, cfg["seed"], components=components)


def _cmd_check_weight(cfg, outdir):
    w = RadialWeight(s=cfg["alpha"], form=cfg["form"])
    report = aq_check(w, cfg["q"], cube_sides=_cube_sides(cfg), n=cfg["n"])
    # an overflowing cube product, and the sup it sets, are written as null
    samples = [{k: _null_if_not_finite(v) for k, v in asdict(s).items()}
               for s in report.samples]
    sup = _null_if_not_finite(report.sup_estimate)
    _write_json(os.path.join(outdir, "aq_report.json"), {
        "q": report.q,
        "weight": {"form": w.form, "s": w.s},
        "samples": samples,
        "sup": sup,
        "verdict": report.verdict,
    })
    return {"verdict": report.verdict, "sup_estimate": sup}, 0


def _cmd_admissible_range(cfg, outdir):
    lo, hi = admissible_range(cfg["q"], cfg["n"])
    return {"lo": lo, "hi": hi}, 0


def _cmd_feasibility(cfg, outdir):
    if cfg["scan"]:
        total, nonempty, widest = feasibility_scan(cfg["n"], cfg["step"])
        return {
            "n": cfg["n"],
            "grid_points": total,
            "nonempty": nonempty,
            "widest_window": widest,
        }, 0
    window = feasibility(cfg["n"], cfg["q1"], cfg["q2"])
    return {"lo": window.lo, "hi": window.hi, "empty": window.empty}, 0


def _cmd_maximal(cfg, outdir):
    grid, f = _corpus_field(cfg, components=1)
    ladder = np.geomspace(grid.h, grid.L, cfg["radii"])
    mf = maximal_function(f, ladder)
    ratio = integrate(mf, cfg["q"], cfg["s"]) / integrate(f, cfg["q"], cfg["s"])
    dominated = bool(np.all(mollifier_sup(f).data <= mf.data * (1 + 1e-12)))
    pointwise = bool(np.all(mf.data >= f.magnitude() - 1e-13))
    save_field(f, os.path.join(outdir, "input.field"))
    save_field(mf, os.path.join(outdir, "maximal.field"))
    return {
        "operator_norm_ratio": ratio,
        "mollifier_dominated": dominated,
        "dominates_input": pointwise,
    }, 0


def _cmd_decay(cfg, outdir):
    grid, u0 = _corpus_field(cfg)
    with np.errstate(over="ignore", invalid="ignore"):   # decay_harness rejects non-finite times
        ladder = np.geomspace(cfg["tmin"], cfg["tmax"], cfg["points"])
    series, fit, compliance = decay_harness(
        u0, cfg["p"], cfg["q"], cfg["s"], cfg["s0"], cfg["alpha_order"], ladder
    )
    write_decay_csv(os.path.join(outdir, "decay.csv"), series, fit)
    return {
        "fitted_slope": fit.slope,
        "r_squared": fit.r_squared,
        "predicted_exponent": predicted_exponent(
            3, cfg["p"], cfg["q"], cfg["s"], cfg["s0"], cfg["alpha_order"]
        ),
        "bound_compliance": compliance,
    }, 0


def _cmd_frac_integral(cfg, outdir):
    grid, f = _corpus_field(cfg, components=1)
    lam = cfg["lam"]
    out = fractional_integral(f, lam)
    ratio = integrate(out, cfg["q"], cfg["s0"]) / integrate(f, cfg["p"], cfg["s0"])
    gauss = Field(grid, np.exp(-grid.radius_sq()))
    conv = fractional_integral(gauss, 2.0)
    center = (grid.N // 2,) * 3
    oracle_err = abs(conv.data[center] - 2.0 * np.pi) / (2.0 * np.pi)
    return {
        "two_weight_ratio": ratio,
        "gauss_center_rel_err": float(oracle_err),
    }, 0


def _cmd_bogovskii_test(cfg, outdir):
    grid = Grid(3, cfg["N"], cfg["L"])
    f = annulus_dipole(grid, cfg["R"])
    B = bogovskii_apply(f, cfg["R"])
    defect = divergence_defect(B, f)
    r = np.sqrt(grid.radius_sq())
    outside = (r <= cfg["R"]) | (r >= cfg["R"] + 1.0)
    # ||B||_L2^2 + ||grad B||_L2^2 by Parseval, with the derivative wavenumbers;
    # the checks take one component at a time
    sp = grid.spectral()
    w12 = float(np.sqrt(np.sum(sp.power(sp.forward(b) for b in B.data)
                               * (1.0 + sum(k * k for k in sp.k)))))
    save_field(B, os.path.join(outdir, "bogovskii.field"))
    return {
        "div_defect_rel": defect,
        "support_exact": not any(np.any((b != 0.0) & outside) for b in B.data),
        "w12_ratio": w12 / integrate(f, 2),
    }, 0


def _cmd_extend(cfg, outdir):
    grid = Grid(3, cfg["N"], cfg["L"])
    u0 = curl(shell_potential(grid, cfg["R"]))
    v0, info = solenoidal_extension(u0, cfg["R"])
    r = np.sqrt(grid.radius_sq())
    far = r >= cfg["R"] + 3.0
    save_field(u0, os.path.join(outdir, "input.field"))
    save_field(v0, os.path.join(outdir, "extension.field"))
    return {
        "div_v0_rel": info["div_v0_rel"],
        "inner_defect": info["bog_defect"],
        "far_field_exact": not any(np.any((v != u) & far)
                                   for v, u in zip(v0.data, u0.data)),
    }, 0


def _make_force(cfg):
    if cfg["force"] == "single-mode":
        return single_mode_force(cfg["T"], amplitude=cfg["eps"])
    return random_solenoidal_force(cfg["T"], cfg["seed"], amplitude=cfg["eps"])


def _cmd_solve_periodic(cfg, outdir):
    grid = Grid(3, cfg["N"], cfg["L"])
    sol = picard_solve(_make_force(cfg), grid, M=cfg["M"], tol=cfg["tol"],
                       max_iter=cfg["max_iter"], linear_only=bool(cfg["linear"]))
    for m, name in enumerate(_node_names(cfg["M"])):
        save_field(sol.snapshot(m), os.path.join(outdir, name))
    return {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual": sol.residual_history[-1],
        "residual_history": sol.residual_history,
    }, 0 if sol.converged else 1


def _node_names(M):
    return [f"node_{m:03d}.field" for m in range(M)]


def _config_sha256(cfg) -> str:
    """The sha256 of a config's strict, key-sorted JSON text."""
    return hashlib.sha256(_json_text(cfg).encode()).hexdigest()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_run(command, run_dir):
    """The solution of a solve-periodic run directory, with its config's force and model.

    The manifest's artifacts must hold one digest per node, checked before
    any node is read.  Every node file must parse, carry the manifest's grid
    in its header and hash to the sha256 that the artifacts record for it.  A
    missing --run, or a config that _option_values refuses, is a
    ConfigError; an unreadable or inconsistent run, or a config that the
    solver refuses (check_picard_settings), or a config that does not hash to
    the manifest's config_sha256, raises OSError or ValueError (naming any
    key the manifest lacks).
    """
    if not run_dir:
        raise ConfigError(f"{command} needs --run pointing at a solve-periodic directory")
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(path):
        raise ValueError(f"{run_dir!r} holds no solve-periodic manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config", {}), dict):
        raise ValueError(f"{path!r} does not hold a JSON object with an object 'config'")
    if manifest.get("command", "solve-periodic") != "solve-periodic":
        raise ValueError(f"{run_dir!r} was written by {manifest['command']!r}, "
                         f"not solve-periodic")
    schema = _COMMANDS["solve-periodic"][2]
    lacking = [k for k in ("command", "config", "config_sha256", "artifacts")
               if k not in manifest] or [
        k for k in schema if k not in manifest["config"]]
    if lacking:
        raise ValueError(f"the run manifest lacks {', '.join(map(repr, lacking))}")
    cfg, artifacts = _option_values("solve-periodic", manifest["config"]), manifest["artifacts"]
    if not isinstance(artifacts, dict):
        raise ValueError(f"{path!r} holds no object of artifact digests")
    # before any per-node work, which a huge M would make huge
    if len(artifacts) != cfg["M"]:
        raise ValueError(f"the run manifest lists {len(artifacts)} artifact digests "
                         f"for M = {cfg['M']!r} nodes")
    grid = Grid(3, cfg["N"], cfg["L"])
    expected = (3, grid.N, grid.L, 3)
    snaps = []
    for name in _node_names(cfg["M"]):
        node = os.path.join(run_dir, name)
        f = load_field(node)
        header = (f.grid.n, f.grid.N, f.grid.L, f.components)
        if header != expected:
            raise ValueError(f"{name} header (n, N, L, components) = {header} does not "
                             f"match the run manifest {expected}")
        if _sha256(node) != artifacts.get(name):
            raise ValueError(f"{name} is not the file the solve wrote: its sha256 does "
                             f"not match the run manifest's artifacts")
        snaps.append(f.data)
    force = _make_force(cfg)
    check_picard_settings(cfg["M"], cfg["tol"], cfg["max_iter"])
    # last, so that an edited config fails its own checks first; the nodes
    # were solved for the config the writer hashed, and for no other
    if _config_sha256(manifest["config"]) != manifest["config_sha256"]:
        raise ValueError("the run manifest's config does not hash to its config_sha256: "
                         "the nodes were not solved for this config")
    return PeriodicSolution(grid=grid, force=force, snapshots=np.stack(snaps),
                            linear_only=bool(cfg["linear"]))


def _cmd_periodicity_check(cfg, outdir, sol):
    return {"defect": periodicity_check(sol, steps=cfg["steps"])}, 0


def _cmd_weighted_report(cfg, outdir, sol):
    rep = weighted_report(sol, cfg["q1"], cfg["q2"], cfg["s"])
    return {**rep, "ratio": _null_if_not_finite(rep["ratio"])}, 0   # NaN without forcing


# subcommand -> (implementation, description,
#                {option: (type, default, help[, allowed values])})
_COMMANDS = {
    "check-weight": (_cmd_check_weight, "sample the Muckenhoupt A_q cube product of a radial "
                     "weight over a cube ladder and classify it as finite/diverging/inconclusive", {
        "alpha": (float, 2.0, "weight exponent a of <x>^a (or |x|^a)"),
        "q": (float, 2.0, "Lebesgue index"),
        "n": (int, 3, "dimension"),
        "form": (str, "inhomogeneous", "inhomogeneous (<x>^a) or homogeneous (|x|^a)",
                 ("inhomogeneous", "homogeneous")),
        "sides": (str, "", "comma-separated cube sides (default: 2^-3..2^10)"),
    }),
    "admissible-range": (_cmd_admissible_range,
                         "open interval of s with <x>^(sq) in the A_q class", {
        "q": (float, 2.0, "Lebesgue index"),
        "n": (int, 3, "dimension"),
    }),
    "feasibility": (_cmd_feasibility, "window of weight exponents s compatible with the "
                    "periodic small-data hypotheses, from the min-formula over derived indices", {
        "n": (int, 5, "dimension"),
        "q1": (float, 4.0, "first integrability index, 1 < q1 < n"),
        "q2": (float, 3.0, "second integrability index, n/2 < q2 < n"),
        "scan": (int, 0, "if 1, sweep the whole (q1, q2) grid at --step instead", (0, 1)),
        "step": (float, 0.01, "grid step for --scan"),
    }),
    "maximal": (_cmd_maximal, "centered maximal function of a seeded field: weighted "
                "operator norm ratio and mollifier domination check", {
        "seed": (int, 20260809, "corpus seed"),
        "N": (int, 64, "samples per axis"),
        "L": (float, 16.0, "half-extent of the cube"),
        "q": (float, 2.0, "norm index for the operator-norm ratio"),
        "s": (float, 1.0, "weight exponent for the operator-norm ratio"),
        "radii": (int, 24, "number of ladder radii"),
    }),
    "decay": (_cmd_decay, "weighted decay ladder of the projected heat evolution with "
              "log-log exponent fit and envelope compliance", {
        "p": (float, 2.0, "source integrability index"),
        "q": (float, 6.0, "target integrability index"),
        "s": (float, 0.0, "source weight exponent"),
        "s0": (float, 0.0, "target weight exponent"),
        "alpha_order": (int, 0, "derivative order, 0 or 1"),
        "tmin": (float, 1.0, "first ladder time"),
        "tmax": (float, 64.0, "last ladder time"),
        "points": (int, 13, "ladder size (geometric)"),
        "seed": (int, 20260809, "corpus seed"),
        "N": (int, 64, "samples per axis"),
        "L": (float, 16.0, "half-extent of the cube"),
    }),
    "frac-integral": (_cmd_frac_integral, "fractional integral of a seeded field: "
                      "two-weight norm ratio and the Gaussian point oracle", {
        "lam": (float, 1.0, "order of the fractional integral, in (0, n)"),
        "p": (float, 2.0, "source index of the two-weight ratio"),
        "q": (float, 6.0, "target index of the two-weight ratio"),
        "s0": (float, 0.5, "shared weight exponent"),
        "seed": (int, 20260809, "corpus seed"),
        "N": (int, 96, "samples per axis"),
        "L": (float, 5.0, "half-extent of the cube"),
    }),
    "bogovskii-test": (_cmd_bogovskii_test, "divergence-equation solve on the annulus: "
                       "divergence defect, exact support containment, gradient-norm ratio", {
        "R": (float, 2.0, "inner radius of the annulus D_R"),
        "N": (int, 128, "samples per axis"),
        "L": (float, 8.0, "half-extent of the cube"),
    }),
    "extend": (_cmd_extend, "solenoidal extension through cut-off plus annulus correction: "
               "global divergence defect and far-field equality", {
        "R": (float, 1.0, "exterior radius: data solenoidal on |x| > R"),
        "N": (int, 128, "samples per axis"),
        "L": (float, 8.0, "half-extent of the cube"),
    }),
    "solve-periodic": (_cmd_solve_periodic, "fixed point of the periodic history-integral "
                       "map by Picard iteration; writes node snapshots", {
        "eps": (float, 0.01, "forcing amplitude"),
        "T": (float, 6.283185307179586, "period"),
        "M": (int, 16, "time nodes per period (even, >= 8)"),
        "N": (int, 32, "samples per axis"),
        "L": (float, 16.0, "half-extent of the cube"),
        "tol": (float, 1e-8, "fixed-point residual tolerance"),
        "max_iter": (int, 40, "iteration cap"),
        "linear": (int, 0, "if 1, drop the advection term", (0, 1)),
        "force": (str, "random", "forcing shape: random or single-mode",
                  ("random", "single-mode")),
        "seed": (int, 20260809, "seed of the random forcing profile"),
    }),
    "periodicity-check": (_cmd_periodicity_check, "re-simulate one period with an "
                          "exponential integrator and report the return defect", {
        "run": (str, "", "directory written by solve-periodic"),
        "steps": (int, 256, "time steps of the verification march"),
    }),
    "weighted-report": (_cmd_weighted_report,
                        "weighted solution norms against the forcing size for given exponents", {
        "run": (str, "", "directory written by solve-periodic"),
        "q1": (float, 2.0, "velocity norm index"),
        "q2": (float, 2.0, "gradient norm index"),
        "s": (float, 1.0, "weight exponent"),
    }),
}


def main(argv=None) -> int:
    outdir = None           # set once the output directory exists: error.json goes there
    try:
        args = _build_parser().parse_args(argv)
        if args.threads < 0:
            raise ConfigError(f"--threads must be >= 0, got {args.threads}")
        cfg = _resolve_config(args)
        # run-directory inputs are read and checked before anything is written
        inputs = (_load_run(args.command, cfg["run"]),) if "run" in cfg else ()
        # follow-up checks accumulate inside the run directory they examine
        outdir = _make_outdir(args.out or os.path.join(cfg.get("run") or "runs", args.command))
        t0 = time.perf_counter()
        # scipy.fft's default is one worker, so only --threads K > 0 loads the
        # backend before a command's first transform
        with fft_backend().set_workers(args.threads) if args.threads else contextlib.nullcontext():
            result, status = _COMMANDS[args.command][0](cfg, outdir, *inputs)
        manifest = {
            "command": args.command,
            "config": cfg,
            "config_sha256": _config_sha256(cfg),
            "prng": PRNG_ID,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "stokeslab": __version__,
            },
            "wall_time_s": time.perf_counter() - t0,
        }
        _write_json(os.path.join(outdir, "result.json"), result)
        if args.command == "solve-periodic":     # the one run directory other commands read
            manifest["artifacts"] = {name: _sha256(os.path.join(outdir, name))
                                     for name in _node_names(cfg["M"])}
        _write_json(os.path.join(outdir, "manifest.json"), manifest)
    except ConfigError as exc:
        return _fail("invalid-config", str(exc), outdir)
    except MemoryError as exc:          # numpy refuses an array larger than memory
        return _fail("precondition-violation", f"out of memory: {exc}", outdir)
    except (OSError, TypeError, ValueError, RuntimeError) as exc:
        return _fail("precondition-violation", str(exc), outdir)
    print(_json_text(result))
    return status


def _fail(kind: str, detail: str, outdir) -> int:
    """Print the JSON error line, copy it to outdir/error.json if given and
    writable; the exit code."""
    payload = {"error": kind, "detail": detail}
    print(_json_text(payload))
    if outdir is not None:
        with contextlib.suppress(OSError):      # e.g. error.json is taken by a directory
            _write_json(os.path.join(outdir, "error.json"), payload)
    return 2 if kind == "invalid-config" else 1


def _make_outdir(path):
    """Create the output directory and return its path; failing to is invalid-config."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from None
    return path


if __name__ == "__main__":
    sys.exit(main())
