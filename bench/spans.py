"""Span recorder and allocation probe for the traced benchmark pass.

The solver's modules import each other's functions by name
(`from .riemann import star_states`), so replacing a function on its defining
module alone would miss every call made through those imported names.
`rebound` therefore rebinds each wrapped function under every name that
refers to it in any loaded `fenepsv` module, and puts the originals back on
exit.  Spans (name, start, end, parent) are kept in memory and reduced to
per-function calls and self time when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc

# Public functions wrapped in the traced pass, by defining module.
TARGETS = {
    "model": (
        "dP_dh_frozen", "total_pressure", "is_admissible", "require_admissible",
        "free_energy", "internal_energy", "dissipation_rate",
    ),
    "riemann": (
        "relaxation_speeds", "star_states", "interface_fluxes", "energy_flux",
        "subcharacteristic_monitor",
    ),
    "timeloop": (
        "full_step", "apply_boundary", "cfl_dt", "source_step", "relax_conformations",
        "dissipation_residuals",
    ),
    "scenarios": ("run", "write_snapshot_csv", "write_svg_summary"),
    "cli": ("parse_config_file", "build_config"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# ROADMAP aim-1 layers: each share is the summed self time of its functions
# over the traced run_s.  Every `model.*` and `scenarios.*` function counts.
LAYERS = {
    "eos": tuple(f"model.{fn}" for fn in TARGETS["model"]),
    "fan": ("riemann.relaxation_speeds", "riemann.star_states"),
    "flux": ("riemann.interface_fluxes",),
    "fv_update": ("timeloop.full_step", "timeloop.apply_boundary", "timeloop.cfl_dt"),
    "source": ("timeloop.source_step", "timeloop.relax_conformations"),
    "audit": (
        "riemann.energy_flux", "riemann.subcharacteristic_monitor",
        "timeloop.dissipation_residuals",
    ),
    "io": tuple(f"scenarios.{fn}" for fn in TARGETS["scenarios"]),
}


@contextlib.contextmanager
def rebound(names, make_wrapper):
    """Replace each `module.function` in `names` by `make_wrapper(name, fn)`
    under every name bound to it in a loaded fenepsv module.

    Yields the names that were found; a name the package no longer defines
    is skipped, so the pass keeps working across refactors.
    """
    modules = [m for k, m in list(sys.modules.items()) if k == "fenepsv" or k.startswith("fenepsv.")]
    saved = []
    found = []
    try:
        for name in names:
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"fenepsv.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = make_wrapper(name, original)
            found.append(name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield found
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class SpanRecorder:
    """Records one span per call of each wrapped function.

    A span is the list [name, start, end, parent index]; parent -1 marks a
    span opened outside every other recorded span.
    """

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.spans: list = []
        self._stack: list = []
        self.found: list = []
        self._ctx = None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def __enter__(self):
        self._ctx = rebound(self.names, self._wrap)
        self.found = self._ctx.__enter__()
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    def summary(self) -> dict:
        """{name: {"calls": n, "self_s": s}} for every wrapped name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        return out


def peak_temp_bytes(call, step_name: str = "timeloop.full_step"):
    """Run `call()` with tracemalloc on inside each `step_name` call only.

    Returns (result of call, list of per-call tracemalloc peaks in bytes).
    """
    peaks = []

    def make_wrapper(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    with rebound((step_name,), make_wrapper):
        result = call()
    return result, peaks
