"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of the stokeslab modules
(and the public methods of their classes) with a wrapper that records calls
and self time, in every module namespace that binds the function.  It does
the same for four library boundaries the package calls: the numpy.fft and
scipy.fft transforms (`fft`), scipy.ndimage (`ndimage`),
scipy.signal.resample and numpy.tensordot.  `uninstall()` puts every
original object back.

Self time is a span's duration minus the time its child spans cover.  A
wrapped call made while the same function (or, for a library boundary, the
same library) is already running is not a span of its own: its time counts
toward that caller.  Spans stay in memory; `summary()` returns the totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from time import perf_counter

import numpy as np

PACKAGE_LAYERS = ("cli", "grid", "corpus", "semigroup", "weights", "exterior", "periodic")

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# (namespace, attribute names, layer) of the library boundaries
LIBRARY = (
    ("numpy.fft", _FFT_NAMES, "fft"),
    ("scipy.fft", _FFT_NAMES, "fft"),
    ("scipy.ndimage", None, "ndimage"),
    ("scipy.signal", ("resample",), "signal.resample"),
    ("numpy", ("tensordot",), "linalg.tensordot"),
)


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def fft_work(name, args, kwargs, out):
    """(points, flops, bytes) of one transform call, computed from shapes.

    flops are 5 N log2 N per complex transform of N points and half that for a
    real one; bytes are the input plus the output array.
    """
    x = _arg(args, kwargs, 0, "x")
    x = np.asarray(kwargs.get("a") if x is None else x)
    real = name.startswith(("r", "ir", "h", "ih"))
    real_input = name.startswith(("r", "ih"))
    full = x if real_input else out          # the array with the logical lengths
    if name.endswith("n") or name.endswith("2"):
        s = _arg(args, kwargs, 1, "s")
        axes = _arg(args, kwargs, 2, "axes")
        if axes is None:
            if name.endswith("2"):
                axes = (-2, -1)
            elif s is not None:
                axes = tuple(range(-len(s), 0))
            else:
                axes = tuple(range(full.ndim))
        lengths = list(s) if (real_input and s is not None) else [full.shape[a] for a in axes]
    else:
        n = _arg(args, kwargs, 1, "n")
        axes = (_arg(args, kwargs, 2, "axis", -1),)
        lengths = [n] if (real_input and n is not None) else [full.shape[axes[0]]]
    per = math.prod(lengths)
    batch = full.size // max(math.prod(full.shape[a] for a in axes), 1)
    flops = batch * 5.0 * per * math.log2(per) if per > 1 else 0.0
    return batch * per, flops * (0.5 if real else 1.0), x.nbytes + out.nbytes


class Tracer:
    """Calls and self time per wrapped function, plus layer counters."""

    def __init__(self):
        self.stats = {}              # qualified name -> [calls, self seconds]
        self.layer_of = {}           # qualified name -> layer
        self.counters = {}
        self.top_s = 0.0             # summed duration of top-level spans
        self._stack = []             # child seconds of each open span
        self._active = set()
        self._patches = []           # (owner, attribute, original)
        self._forces = {}            # id -> PeriodicForce, kept alive for distinct keys
        self._force_keys = set()

    # -- recording ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, qualname, layer, fn, probe=None):
        rec = self.stats.setdefault(qualname, [0, 0.0])
        self.layer_of[qualname] = layer
        fold = layer if layer not in PACKAGE_LAYERS else qualname
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold in tracer._active:
                return fn(*args, **kwargs)
            tracer._active.add(fold)
            tracer._stack.append(0.0)
            start = perf_counter()
            out, exc = None, None
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - start
                child = tracer._stack.pop()
                tracer._active.discard(fold)
                rec[0] += 1
                rec[1] += dur - child
                if tracer._stack:
                    tracer._stack[-1] += dur
                else:
                    tracer.top_s += dur
                if probe is not None:
                    probe(args, kwargs, out, exc)
            return out
        return wrapper

    # -- probes: counters measured where the work happens ------------------

    def _probes(self):
        def fft_probe(name):
            def probe(args, kwargs, out, exc):
                if exc is None:
                    points, flops, nbytes = fft_work(name, args, kwargs, out)
                    self.count("fft.points_computed", points)
                    self.count("fft.flops_computed", flops)
                    self.count("fft.bytes_computed", nbytes)
            return probe

        def bound(fn):
            sig = inspect.signature(fn)

            def bind(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                return b.arguments
            return bind

        from stokeslab import periodic

        def picard(args, kwargs, out, exc):
            if exc is None:
                self.count("periodic.picard_iterations", out.iterations)
            elif isinstance(exc, periodic.ContractionError):
                self.count("periodic.contraction_errors")

        check_args = bound(periodic.periodicity_check)

        def check(args, kwargs, out, exc):
            self.count("periodic.etdrk4_steps", check_args(args, kwargs)["steps"])

        def force_field(args, kwargs, out, exc):
            force, t = args[0], args[2] if len(args) > 2 else kwargs["t"]
            self._forces[id(force)] = force
            self._force_keys.add((id(force), round((float(t) / force.T) % 1.0, 9) % 1.0))
            self.count("periodic.force_evals")

        def file_bytes(key, path_pos):
            def probe(args, kwargs, out, exc):
                path = _arg(args, kwargs, path_pos, "path")
                if exc is None:
                    self.count(key, os.path.getsize(path))
            return probe

        return {
            "periodic.picard_solve": picard,
            "periodic.periodicity_check": check,
            "periodic.PeriodicForce.field": force_field,
            "grid.save_field": file_bytes("grid.save_field.bytes", 1),
            "grid.load_field": file_bytes("grid.load_field.bytes", 0),
        }, fft_probe

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import stokeslab

        modules = [stokeslab] + [importlib.import_module(f"stokeslab.{m}")
                                 for m in PACKAGE_LAYERS]
        probes, fft_probe = self._probes()
        wrapped = {}                 # id(original) -> wrapper
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    wrapped[id(obj)] = self._wrap(qual, layer, obj, probes.get(qual))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            qual = f"{layer}.{name}.{attr}"
                            self._patch(obj, attr, self._wrap(qual, layer, fn,
                                                              probes.get(qual)))
        for modname, names, layer in LIBRARY:
            mod = importlib.import_module(modname)
            if names is None:
                names = [n for n in mod.__all__ if callable(getattr(mod, n))
                         and not inspect.isclass(getattr(mod, n))]
            for name in names:
                obj = getattr(mod, name, None)
                if obj is None or id(obj) in wrapped:
                    continue
                probe = fft_probe(name) if layer == "fft" else None
                wrapped[id(obj)] = self._wrap(f"{modname}.{name}", layer, obj, probe)
                self._patch(mod, name, wrapped[id(obj)])
        # rebind in every stokeslab namespace that holds a wrapped object
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not name.startswith("__"):
                    self._patch(mod, name, wrapped[id(obj)])

    def uninstall(self):
        """Restore every patched attribute; return those that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if vars(o).get(a) is not orig]
        self._patches = []
        return bad

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["periodic.force_distinct"] = len(self._force_keys)
        return {"stats": self.stats, "layer_of": self.layer_of,
                "counters": counters, "top_s": self.top_s}
