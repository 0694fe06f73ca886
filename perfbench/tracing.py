"""Tracing wrappers placed around calls into each fourierpath module.

Nothing inside the package is edited: a boundary is a function or method
of a package module, and installing the tracer swaps it, at every module
namespace and class that holds it, for a wrapper that times the call.
Per-step boundaries (curve and field evaluation) are hit millions of times
per operation, so every boundary is aggregated as counts and summed times.
Only the coarse calls also record an individual span (name, start, end,
parent), which keeps trace memory bounded.

A boundary that no longer exists fails loudly when the tracer is
installed, and a boundary that the prediction table says a workload must
hit but that recorded no call fails loudly at the end of the run, so a
refactor cannot silently turn a layer's time into zero.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

from workloads import CERTIFY, SIMULATE, SPECTRAL

ALL = frozenset((CERTIFY, SIMULATE, SPECTRAL))
SIM = frozenset((CERTIFY, SIMULATE))


def _rows_loaded(args, kwargs, result):
    return result.n_samples


def _points(args, kwargs, result):
    return np.size(args[0])


def _term_evals(args, kwargs, result):
    return np.size(args[1]) * args[0].n_terms


def _steps(args, kwargs, result):
    return result.n_rows - 1


def _rows_written(args, kwargs, result):
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    return -(-args[0].n_rows // stride)


# name -> (module, attribute path, records a span, unit counter, workloads
# that must hit it).  The workload sets are the prediction table of
# README.md, refined to the calls each command makes.
BOUNDARIES = {
    "cli.main": ("fourierpath.cli", "main", True, None, ALL),
    "cli.write_sweep_csv": ("fourierpath.cli", "_write_sweep_csv", True, None,
                            {CERTIFY, SPECTRAL}),
    "pathdata.load": ("fourierpath.pathdata", "load_path", True, _rows_loaded,
                      {SPECTRAL}),
    "pathdata.add_noise": ("fourierpath.pathdata", "add_noise", False, None, ALL),
    "fft": ("fourierpath.fft", "fft", False, _points, ALL),
    "spectrum.dft": ("fourierpath.spectrum", "dft", True, None, ALL),
    "spectrum.apply_window": ("fourierpath.spectrum", "apply_window", False, None,
                              {CERTIFY, SPECTRAL}),
    "spectrum.tail_energy": ("fourierpath.spectrum", "tail_energy", False, None,
                             {CERTIFY, SPECTRAL}),
    "spectrum.write_csv": ("fourierpath.spectrum", "write_spectrum_csv", True, None,
                           {SPECTRAL}),
    "trigpath.eval": ("fourierpath.trigpath", "TrigPath.eval", False, _term_evals, ALL),
    "trigpath.eval_with_deriv": ("fourierpath.trigpath", "TrigPath.eval_with_deriv",
                                 False, _term_evals, SIM),
    "trigpath.write_csv": ("fourierpath.trigpath", "write_reconstruction_csv", True,
                           None, {SPECTRAL}),
    "gvf.field": ("fourierpath.gvf", "_field_terms", False, None, SIM),
    "sim.integrate": ("fourierpath.sim", "integrate", True, _steps, SIM),
    "sim.write_csv": ("fourierpath.sim", "Trajectory.write_csv", True, _rows_written,
                      {SIMULATE}),
    "analysis.certify": ("fourierpath.analysis", "certify", True, None, {CERTIFY}),
    "analysis.reconstruction_mse": ("fourierpath.analysis", "reconstruction_mse",
                                    False, None, {CERTIFY}),
    "analysis.window_sweep": ("fourierpath.analysis", "window_sweep", True, None,
                              {CERTIFY, SPECTRAL}),
    "analysis.select_window": ("fourierpath.analysis", "select_window", True, None,
                               {SPECTRAL}),
    "analysis.p_bar": ("fourierpath.analysis", "p_bar", False, None,
                       {CERTIFY, SPECTRAL}),
}


class BoundaryError(RuntimeError):
    """An instrumented boundary is missing or was not hit as predicted."""


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.units = 0


class Tracer:
    """Counts, times and spans for every boundary, across traced operations."""

    def __init__(self):
        self.stats = {name: Stats() for name in BOUNDARIES}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack: list[list] = [[None, 0.0]]  # [name, child seconds]
        self._wrappers = {}
        self._saved: list[tuple[object, str, object]] = []
        for name, (module, attr, span, unit, _) in BOUNDARIES.items():
            owner, leaf, original = _resolve(name, module, attr)
            self._wrappers[name] = (owner, leaf, original,
                                    self._wrap(name, original, span, unit))

    def install(self) -> None:
        """Swap every boundary for its wrapper wherever it is bound."""
        packages = [mod for key, mod in sys.modules.items()
                    if key == "fourierpath" or key.startswith("fourierpath.")]
        for owner, leaf, original, wrapper in self._wrappers.values():
            if isinstance(owner, type):
                self._swap(owner, leaf, wrapper)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def op_span(self, start: float, end: float) -> None:
        self.spans.append(("op", start, end, None))

    def check_hits(self, workload: str) -> None:
        missing = [name for name, spec in BOUNDARIES.items()
                   if workload in spec[4] and self.stats[name].calls == 0]
        if missing:
            raise BoundaryError(
                f"{workload}: predicted boundaries recorded no call: {', '.join(missing)}")

    def _swap(self, owner, key, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, span, unit):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if span:
                    spans.append((name, start, end, stack[-1][0] or "op"))
            if unit is not None:
                stats.units += int(unit(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(name, module, attr):
    """(owner, attribute, function) for a boundary, or BoundaryError."""
    try:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise BoundaryError(f"boundary {name} ({module}:{attr}) is missing: {exc}") from exc
    if not callable(original):
        raise BoundaryError(f"boundary {name} ({module}:{attr}) is not callable")
    return owner, leaf, original
