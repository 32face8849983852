"""Scenario configuration, the run driver, and on-disk artifacts.

A run is described by a flat `RunConfig` (physics, domain, initial data,
output policy).  `run` integrates to the final time with exact snapshot
landing and writes, per run: one CSV per snapshot, a per-step diagnostics
CSV, a machine-readable run.json, and a dependency-free SVG summary plot.
All file content is deterministic for a given configuration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    H,
    PhysParams,
    Primitive,
    SolverError,
    _checked_primitive,
    _column_runs,
    _free_energy,
    _stress_terms,
    equilibrium_sigma,
    is_admissible,
    primitive,
)
from .timeloop import Grid, SimState, StepControl, full_step

__all__ = [
    "ConfigError",
    "StepBudgetExceeded",
    "RunConfig",
    "RunResult",
    "ConvergenceResult",
    "preset_dam_break",
    "preset_uniform",
    "preset_smooth_wave",
    "initial_condition",
    "run",
    "convergence_study",
    "write_snapshot_csv",
    "write_svg_summary",
    "SNAPSHOT_COLUMNS",
]

SNAPSHOT_COLUMNS = ("x", "h", "u", "sigma_xx", "sigma_zz", "N", "stretch", "free_energy")

SCENARIOS = ("dam-break", "uniform", "smooth-wave")

# The most steps a run may project: once steps + (t_end - t)/dt exceeds it
# after a step, `run` raises StepBudgetExceeded.  A 16384-cell dam break to
# t = 0.1 takes about 19k steps.
RUN_STEP_LIMIT = 10**8


# What each setting but the states must be: a bool is no number; numpy scalars become Python's.
_BOOLS = (bool, np.bool_)
_SETTING_KINDS = {
    "params": (PhysParams, "a PhysParams"),
    "cells": (numbers.Integral, "an integer"),
    "snapshots": (numbers.Integral, "an integer"),
    "max_steps": ((numbers.Integral, type(None)), "an integer >= 1 or unset"),
    **dict.fromkeys(("x_min", "x_max", "t_end", "cfl", "jump_x"), (numbers.Real, "a real number")),
    **dict.fromkeys(("strict_dissipation", "strict_subchar"), (_BOOLS, "a bool")),
    "outdir": ((str, os.PathLike, type(None)), "unset, a str or a path"),
}


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class StepBudgetExceeded(SolverError):
    """The run needed more steps than its configured max_steps, or projected
    more than RUN_STEP_LIMIT."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run, checked when built (ConfigError).

    `left`/`right` are (h, u, sigma_xx, sigma_zz) quadruples; `uniform` uses
    only `left`, `smooth-wave` ignores both and modulates an equilibrium
    state.  `outdir=None` runs without writing any files.  `max_steps` caps
    the number of steps (None: no cap).  The domain is checked by building
    its `Grid`, and cfl and bc by building a `StepControl`.
    """

    params: PhysParams
    x_min: float = 0.0
    x_max: float = 1.0
    cells: int = 256
    t_end: float = 0.1
    cfl: float = 0.5
    bc: str = "transmissive"
    snapshots: int = 10
    scenario: str = "dam-break"
    jump_x: float = 0.5
    left: tuple = (1.0, 0.0, 1.0, 1.0)
    right: tuple = (0.1, 0.0, 1.0, 1.0)
    outdir: str | None = None
    strict_dissipation: bool = False
    strict_subchar: bool = False
    max_steps: int | None = None

    def __post_init__(self):
        for name, (kind, what) in _SETTING_KINDS.items():
            v = getattr(self, name)
            if not isinstance(v, kind) or (kind is not _BOOLS and isinstance(v, _BOOLS)):
                raise ConfigError(f"{name} must be {what}, got {v!r}")
            if isinstance(v, np.generic):
                object.__setattr__(self, name, v.item())
        if isinstance(self.outdir, os.PathLike):   # a str, as run.json holds it
            object.__setattr__(self, "outdir", os.fsdecode(self.outdir))
        for side in ("left", "right"):
            vals = getattr(self, side)
            try:   # np.shape raises on ragged entries, float on an integer past the float range
                state = (np.shape(vals) == (4,) and all(isinstance(v, numbers.Real)
                                                        and not isinstance(v, _BOOLS) for v in vals)
                         and tuple(map(float, vals)))   # as run.json holds them
            except (ValueError, OverflowError):
                state = None
            if not state:
                raise ConfigError(f"{side} state must be 4 real numbers (h u sigma_xx sigma_zz), "
                                  f"got {vals!r}")
            object.__setattr__(self, side, state)
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        for name in ("t_end", "jump_x"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        try:
            Grid.uniform(self.x_min, self.x_max, self.cells)
            StepControl(cfl=self.cfl, bc=self.bc)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        except MemoryError as e:
            raise ConfigError(f"cells={self.cells}: the grid cannot be allocated ({e})") from e
        if not self.t_end >= 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshots < 1:
            raise ConfigError(f"snapshots must be >= 1, got {self.snapshots}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be an integer >= 1 or unset, got {self.max_steps!r}")
        if self.scenario == "dam-break" and not (self.x_min < self.jump_x < self.x_max):
            raise ConfigError(f"jump_x={self.jump_x} outside the domain interior")
        for side in {"dam-break": ("left", "right"), "uniform": ("left",)}.get(self.scenario, ()):
            vals = getattr(self, side)   # a state the scenario reads
            if not np.isfinite(vals).all():
                raise ConfigError(f"{side} state {vals} has a non-finite entry")
            if not is_admissible(Primitive(*vals), self.params):
                raise ConfigError(f"{side} state {vals} is not admissible")


def _params_or_error(**kw) -> PhysParams:
    try:
        return PhysParams(**kw)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _paper_params(ell: float) -> PhysParams:
    return _params_or_error(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=float(ell))


def preset_dam_break(ell: float, cells: int = 256, **overrides) -> RunConfig:
    """Viscoelastic dam break on [0, 1]: (1,0,1,1) against (0.1,0,1,1) at x = 0.5
    to t = 0.1, RunConfig's defaults.

    g=10, G=0.1, lambda=0.1, zeta=0, free extensibility parameter ell.
    """
    return RunConfig(**(dict(params=_paper_params(ell), cells=cells) | overrides))


def preset_uniform(ell: float = 10.0, **overrides) -> RunConfig:
    """Lake at rest in relaxation equilibrium: stationary for all time."""
    params = _paper_params(ell)
    se = equilibrium_sigma(params)
    return RunConfig(**(dict(params=params, scenario="uniform", left=(1.0, 0.0, se, se)) | overrides))


def preset_smooth_wave(ell: float = 10.0, **overrides) -> RunConfig:
    """Periodic smooth pulse over an equilibrium conformation, for grid studies."""
    return RunConfig(**(dict(params=_paper_params(ell), scenario="smooth-wave", bc="periodic",
                             t_end=0.05) | overrides))


def _smooth_primitive(x, config: RunConfig):
    span = config.x_max - config.x_min
    xh = (np.asarray(x) - config.x_min) / span
    se = equilibrium_sigma(config.params)
    h = 1.0 + 0.1 * np.sin(2.0 * np.pi * xh)
    u = 0.1 * np.cos(2.0 * np.pi * xh)
    return Primitive(h, u, np.full_like(h, se), np.full_like(h, se))


def initial_condition(config: RunConfig, grid: Grid) -> np.ndarray:
    """Exact cell averages of the initial data: the (4, n) conserved state."""
    if config.scenario == "uniform":
        q = Primitive(*config.left).conserved()
        return q[:, None] * np.ones(grid.n)
    if config.scenario == "dam-break":
        ql = Primitive(*config.left).conserved()
        qr = Primitive(*config.right).conserved()
        wl = np.clip((config.jump_x - grid.edges[:-1]) / grid.dx, 0.0, 1.0)
        wr = 1.0 - wl
        q = np.empty((4, grid.n))
        for row, left, right in zip(q, ql, qr):   # no (4, n) temporary
            np.add(left * wl, right * wr, out=row)
        return q
    # smooth-wave: conserved averages by 5-point Gauss-Legendre quadrature
    # per cell, to ~1e-15 on smooth data
    lo = grid.edges[:-1]
    acc = 0.0
    for xg, wg in zip(*np.polynomial.legendre.leggauss(5)):
        xs = lo + 0.5 * grid.dx * (xg + 1.0)
        acc = acc + 0.5 * wg * _smooth_primitive(xs, config).conserved()
    return acc


@dataclass
class RunResult:
    config: RunConfig
    grid: Grid
    initial: np.ndarray
    state: SimState
    steps: int
    min_dt: float
    dissipation_violations: int
    worst_subchar_ratio: float
    snapshot_files: list
    outdir: Path | None
    wall_time: float

    def final_primitive(self) -> Primitive:
        return primitive(self.state.q)

    def summary(self) -> dict:
        mass0 = float(np.sum(self.initial[H] * self.grid.dx))
        mass1 = float(np.sum(self.state.q[H] * self.grid.dx))
        return {
            "status": "ok",
            "steps": self.steps,
            "final_time": self.state.t,
            "min_dt": self.min_dt if self.steps else None,
            "dissipation_violations": self.dissipation_violations,
            "worst_subchar_ratio": self.worst_subchar_ratio if self.steps else None,
            "mass_initial": mass0,
            "mass_final": mass1,
            "mass_drift_rel": abs(mass1 - mass0) / abs(mass0),
            "wall_time_s": self.wall_time,
        }


_ROW_TAIL = ",".join(["%r"] * (len(SNAPSHOT_COLUMNS) - 1)) + "\n"


def _row_tails(cells: np.ndarray, lengths, params: PhysParams) -> list:
    """Row text after x of each run's cell (cells[:, k] stands for lengths[k] cells), checked."""
    p = _checked_primitive(cells, params, "snapshot state", lengths)
    s, _, _, N = _stress_terms(p, params)
    cols = np.array((p.h, p.u, p.sxx, p.szz, N, s, _free_energy(p, params)))
    return [_ROW_TAIL % row for row in zip(*cols.tolist())]


# Cells joined into each piece of text: a write call per row costs more than its text.
_ROWS_PER_WRITE = 512


def _joined(heads, texts, starts, lengths):
    """heads[i] + texts[k] for each cell i of each run k (lengths[k] cells from starts[k]), in
    pieces of _ROWS_PER_WRITE cells.  Where the runs average two cells or more, a run's cells
    i..j-1 in a piece are one texts[k].join(heads[i:j]) + texts[k]; shorter runs cost less as
    the heads interleaved with a text per cell (texts repeated, or texts itself when each run
    is one cell)."""
    n = len(heads)
    if 2 * len(texts) > n:
        each = texts if len(texts) == n else np.repeat(np.array(texts, dtype=object),
                                                       lengths).tolist()
        for a in range(0, n, _ROWS_PER_WRITE):
            part = heads[a:a + _ROWS_PER_WRITE]
            parts = [None] * (2 * len(part))
            parts[::2], parts[1::2] = part, each[a:a + _ROWS_PER_WRITE]
            yield "".join(parts)
        return
    piece, edge = [], _ROWS_PER_WRITE   # edge: the first cell of the next piece
    for text, i, length in zip(texts, starts.tolist(), lengths.tolist()):
        end = i + length
        while edge < end:   # the run goes on into the next piece
            piece.append(text.join((*heads[i:edge], "")))
            yield "".join(piece)
            piece, i, edge = [], edge, edge + _ROWS_PER_WRITE
        piece += heads[i] if end - i == 1 else text.join(heads[i:end]), text
    yield "".join(piece)


@functools.lru_cache(maxsize=1)
def _grid_text(centers: bytes) -> tuple:
    """`repr(x) + ","` of every grid centre, the first field of each snapshot
    row, keyed on their bytes; `run` clears it when it starts and after its snapshots."""
    return tuple(repr(x) + "," for x in np.frombuffer(centers).tolist())


def write_snapshot_csv(path: Path, grid: Grid, q, params: PhysParams) -> None:
    """Write the snapshot CSV of q: the (4, n) state, scanned once for its runs
    of equal cells, or the runs (cells, starts, lengths) that a state in run
    space carries.  Each run's text after x is made once (see `_joined`)."""
    if isinstance(q, tuple):
        cells, starts, lengths = q
    else:
        q = np.asarray(q, dtype=np.float64)
        starts, lengths = _column_runs(q)
        cells = np.take(q, starts, axis=1)
    tails = _row_tails(cells, lengths, params)
    x_text = _grid_text(np.ascontiguousarray(grid.centers, dtype=np.float64).tobytes())
    if (m := int(np.sum(lengths))) != len(x_text):
        raise ValueError(f"{m} cells on a grid of {len(x_text)}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        f.writelines(_joined(x_text, tails, starts, lengths))


_DIAGNOSTICS_HEADER = (
    "n,t,dt,mass,momentum,free_energy,max_dissipation_residual,worst_subchar_ratio\n"
)


def _diagnostics_row(n: int, t: float, diag) -> str:
    vals = (t, diag.dt, diag.mass, diag.momentum, diag.free_energy, diag.max_dissipation_residual,
            diag.worst_subchar_ratio)
    return ",".join([str(n)] + [repr(float(v)) for v in vals]) + "\n"


def _snapshot_name(t: float, used: set) -> str:
    name = f"snapshot_{t:.6f}.csv"
    if name in used:
        name = f"snapshot_{t!r}.csv"
    used.add(name)
    return name


def _failure_record(error: SolverError, state: SimState, step: int, dt, max_dt: float) -> dict:
    """What a failed step needs to be replayed and read: its number, its
    input's t, the dt of the step before it (None before the first), its
    cap max_dt, its own dt step_dt (None when it failed before choosing it,
    in the fan or the CFL step), the error's index and the cells
    k - 1 .. k + 1 of its input around the index's last entry k.  The index
    names a cell, a padded cell or an interface (which joins cells k - 1
    and k), so those three cells hold the failing entry in each case."""
    record = {"step": step, "t": state.t, "dt": dt, "max_dt": max_dt, "step_dt": error.step_dt,
              "index": list(error.index)}
    if error.index:
        k = error.index[-1]
        p = primitive(state.q)
        cells = slice(max(k - 1, 0), min(k + 2, p.h.size))
        record["cells"] = {"first": cells.start, **{
            name: [float(v) for v in values[cells]]
            for name, values in zip(("h", "u", "sigma_xx", "sigma_zz"), (p.h, p.u, p.sxx, p.szz))
        }}
    return record


def _write_run_json(outdir: Path, config: RunConfig, **record) -> None:
    with open(outdir / "run.json", "w", encoding="utf-8") as f:
        json.dump({"config": dataclasses.asdict(config), **record}, f, indent=2, sort_keys=True)
        f.write("\n")


def run(config: RunConfig) -> RunResult:
    """Integrate the configured scenario and write its artifacts.

    Snapshot times are hit exactly: the step is clipped to the remaining
    interval, or halved when within a factor two of it, so no step ever
    shrinks below half the stable step; output time k, k t_end / snapshots
    (the last t_end itself), is made when reached.  A run that needs more than
    config.max_steps steps raises StepBudgetExceeded, naming the last step
    taken, its time and its dt.  So does a run whose step count, the steps
    taken plus (t_end - t)/dt after a step, comes out above RUN_STEP_LIMIT:
    one whose dt is so small against t_end that it cannot finish.  A step
    landing on an output time is at least half a CFL step, or the whole
    remaining interval, so no landing trips it.

    The run steps from the initial condition itself, with no copy, and a
    piecewise-constant run stays in run space between steps (see
    `timeloop.SimState`), its snapshots written from its runs; the result's
    state.q is built before the return.  An outdir that cannot be made is a
    ConfigError, and so is a MemoryError anywhere in the run (naming cells,
    with no error run.json; the files written before it stay).

    A SolverError from a step leaves with its `failure` record (see
    `_failure_record`).  With an outdir, every SolverError leaves its error
    run.json there and, from a step, failure_q.npy: the step's input cells,
    so that `full_step` on them, at the record's t, with the config's
    control and the record's max_dt, raises the error again.
    """
    try:
        return _run(config)
    except MemoryError as e:
        raise ConfigError(f"cells={config.cells}: the run does not fit in memory ({e})") from e


def _run(config: RunConfig) -> RunResult:
    t0 = time.perf_counter()
    _grid_text.cache_clear()
    grid = Grid.uniform(config.x_min, config.x_max, config.cells)
    q0 = initial_condition(config, grid)
    q0.flags.writeable = False   # stepped from itself: no step writes to its input
    state = SimState(t=0.0, q=q0)
    control = StepControl(cfl=config.cfl, bc=config.bc, strict_dissipation=config.strict_dissipation,
                          strict_subchar=config.strict_subchar)

    outdir = None
    snapshot_files = []
    used_names: set = set()
    if config.outdir is not None:
        outdir = Path(config.outdir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {outdir}: {e}") from e

    def emit(t: float) -> None:
        if outdir is None:
            return
        name = _snapshot_name(t, used_names)
        write_snapshot_csv(outdir / name, grid, state._carried_runs or state.q, config.params)
        snapshot_files.append(name)

    last = config.snapshots if config.t_end != 0.0 else 0   # t_end = 0: only t = 0
    min_dt = np.inf
    violations = 0
    worst_subchar = 0.0
    steps = 0
    # diagnostics.csv grows as steps complete, so a failed run keeps its trail.
    diag_csv = (
        open(outdir / "diagnostics.csv", "w", encoding="utf-8", newline="\n")
        if outdir is not None
        else contextlib.nullcontext()
    )
    try:
        with diag_csv as diag_file:
            emit(0.0)
            if diag_file is not None:
                diag_file.write(_DIAGNOSTICS_HEADER)
            for k in range(1, last + 1):
                t_next = k * config.t_end / config.snapshots if k < last else config.t_end
                while state.t < t_next:
                    if steps == config.max_steps:
                        raise StepBudgetExceeded(
                            f"step budget of {steps} steps spent before t_end={config.t_end!r}: "
                            f"step {steps} ended at t={state.t!r} with dt={diag.dt!r}"
                        )
                    remaining = t_next - state.t
                    control.max_dt = remaining   # run's own control: no copy per step
                    try:
                        state, diag = full_step(state, grid, config.params, control)
                    except SolverError as e:
                        e.failure = _failure_record(e, state, steps + 1,
                                                    diag.dt if steps else None, remaining)
                        if outdir is not None:
                            np.save(outdir / "failure_q.npy", state.q)
                        raise
                    if diag.dt == remaining:
                        state.t = t_next   # the step's own state keeps its carried free energy
                    steps += 1
                    min_dt = min(min_dt, diag.dt)
                    violations += diag.dissipation_violations
                    worst_subchar = max(worst_subchar, diag.worst_subchar_ratio)
                    if diag_file is not None:
                        diag_file.write(_diagnostics_row(steps, state.t, diag))
                    if (RUN_STEP_LIMIT - steps) * diag.dt < config.t_end - state.t:
                        raise StepBudgetExceeded(
                            f"t_end={config.t_end!r} out of reach: step {steps} ended at "
                            f"t={state.t!r} with dt={diag.dt!r}, which projects more than "
                            f"{RUN_STEP_LIMIT} steps"
                        )
                emit(t_next)
    except SolverError as e:
        if outdir is not None:
            failure = {} if e.failure is None else {"failure": e.failure}
            with contextlib.suppress(OSError):   # the solver error leaves, not a write error
                _write_run_json(outdir, config, status="error",
                                error=f"{type(e).__name__}: {e}", **failure)
        raise
    finally:
        _grid_text.cache_clear()

    final_q = state.q   # a state in run space builds its full cells here, not after return
    wall = time.perf_counter() - t0
    result = RunResult(
        config=config,
        grid=grid,
        initial=q0,
        state=state,
        steps=steps,
        min_dt=float(min_dt) if steps else np.inf,
        dissipation_violations=violations,
        worst_subchar_ratio=worst_subchar,
        snapshot_files=snapshot_files,
        outdir=outdir,
        wall_time=wall,
    )

    if outdir is not None:
        write_svg_summary(outdir / "final.svg", grid, q0, final_q)
        _write_run_json(outdir, config, summary=result.summary(), snapshots=snapshot_files)
    return result


# ---------------------------------------------------------------------------
# SVG summary plot, written directly (no plotting dependency).

_PANELS = ("h", "u", "sigma_xx", "sigma_zz")


def _x_points(px) -> list:
    """Screen-x texts of a polyline's points: " %.2f,", the first unspaced (no runs: x increases)."""
    text = [" %.2f," % v for v in px.tolist()]
    text[0] = text[0][1:]
    return text


def _panel_svg(ox: float, oy: float, w: float, h: float, title: str, x, y0, y1, x_texts: dict):
    """SVG elements of one panel.  `x_texts` maps a panel origin `ox` to its
    polylines' screen-x text; panels of one column share it."""
    lo = min(float(np.min(y0)), float(np.min(y1)))
    hi = max(float(np.max(y0)), float(np.max(y1)))
    pad = 0.05 * (hi - lo)
    if pad <= 1e-12 * max(1.0, abs(hi)):
        pad = max(0.05 * abs(hi), 1e-3)
    lo, hi = lo - pad, hi + pad
    xl, xr = float(x[0]), float(x[-1])
    if xr == xl:  # a single cell: centre it in a frame one unit wide
        xl, xr = xl - 0.5, xr + 0.5

    # Screen maps; applied to whole arrays for the polylines.
    def sx(v):
        return ox + (v - xl) / (xr - xl) * w

    def sy(v):
        return oy + h - (v - lo) / (hi - lo) * h

    yield (f'<rect x="{ox:.1f}" y="{oy:.1f}" width="{w:.1f}" height="{h:.1f}" '
           'fill="#ffffff" stroke="#333333" stroke-width="1"/>\n'
           f'<text x="{ox + 6:.1f}" y="{oy + 16:.1f}" font-size="13" fill="#111111">{title}</text>\n')
    for frac in (0.0, 0.5, 1.0):
        vx = xl + frac * (xr - xl)
        vy = lo + frac * (hi - lo)
        yield (f'<text x="{sx(vx):.1f}" y="{oy + h + 14:.1f}" font-size="10" fill="#555555" '
               f'text-anchor="middle">{vx:.3g}</text>\n'
               f'<text x="{ox - 4:.1f}" y="{sy(vy) + 3:.1f}" font-size="10" fill="#555555" '
               f'text-anchor="end">{vy:.4g}</text>\n')
    if ox not in x_texts:
        x_texts[ox] = _x_points(sx(x))
    for ydata, style in (
        (y0, 'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="4 3"'),
        (y1, 'fill="none" stroke="#1f6feb" stroke-width="1.5"'),
    ):
        py = sy(ydata)
        starts, lengths = _column_runs(py[None])
        yield '<polyline points="'
        yield from _joined(x_texts[ox], ["%.2f" % v for v in py[starts].tolist()], starts,
                           lengths)   # no name holds the texts on to the next polyline
        yield f'" {style}/>\n'


def write_svg_summary(path: Path, grid: Grid, q_init: np.ndarray, q_final: np.ndarray) -> None:
    """2x2 panel plot (h, u, sigma_xx, sigma_zz), final state over initial, streamed."""
    series = [(p.h, p.u, p.sxx, p.szz) for p in (primitive(q_init), primitive(q_final))]
    for name, a, b in zip(_PANELS, *series):
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise RuntimeError(f"non-finite data in panel {name}; refusing to plot")
    W, H, m = 960, 640, 50
    pw, ph = (W - 3 * m) / 2, (H - 3 * m) / 2
    x_texts: dict = {}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
                f'font-family="monospace">\n'
                f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>\n'
                '<text x="50" y="26" font-size="14" fill="#111111">'
                "final state (solid) vs initial (dashed)</text>\n")
        for k, (name, y0, y1) in enumerate(zip(_PANELS, *series)):
            col, row = k % 2, k // 2
            f.writelines(_panel_svg(m + col * (pw + m), m + row * (ph + m), pw, ph, name,
                                    grid.centers, y0, y1, x_texts))
        f.write("</svg>\n")


# ---------------------------------------------------------------------------
# Grid-refinement study.


@dataclass
class ConvergenceResult:
    levels: list
    errors: list
    orders: list
    reference: str

    def table(self) -> str:
        lines = ["cells    L1(h) error      order"]
        for i, (n, e) in enumerate(zip(self.levels, self.errors)):
            o = self.orders[i - 1] if 0 < i <= len(self.orders) else None
            o = "-" if o is None else f"{o:.3f}"
            lines.append(f"{n:<8d} {e:.6e}   {o}")
        return "\n".join(lines)


def convergence_study(config: RunConfig, levels, reference: str = "auto") -> ConvergenceResult:
    """L1(h) errors and observed orders across a sequence of grids.

    Each level must divide the next.  reference='exact-sw' compares against
    the exact dam-break solution (valid when G=0, both sides start at rest
    and the left is deeper, else a ConfigError); 'self' compares each level
    against the block-averaged finest run; 'auto' picks 'exact-sw' when
    valid, else 'self'.  The order between two levels is None unless both
    errors are positive (a lake at rest, or t_end = 0, has none to measure).
    """
    levels = [int(n) for n in levels]
    if len(levels) < 2 or levels[0] < 1:
        raise ConfigError(f"need at least two grid levels, each >= 1; got {levels}")
    for a, b in zip(levels, levels[1:]):
        if b % a != 0 or b <= a:
            raise ConfigError(f"each level must divide the next; got {a} then {b}")
    exact_ok = (
        config.scenario == "dam-break"
        and config.params.G == 0.0
        and config.left[1] == 0.0
        and config.right[1] == 0.0
        and config.left[0] > config.right[0]
    )
    if reference == "auto":
        reference = "exact-sw" if exact_ok else "self"
    if reference not in ("exact-sw", "self"):
        raise ConfigError(f"unknown reference {reference!r}")
    if reference == "exact-sw" and not exact_ok:
        raise ConfigError("reference 'exact-sw' needs a dam break with G = 0, both sides at rest "
                          "and the left depth above the right")

    runs = []
    for n in levels:
        cfg = dataclasses.replace(config, cells=n, outdir=None, snapshots=1)
        runs.append(run(cfg))

    errors = []
    if reference == "exact-sw":
        from .oracles import exact_sw_dam_break   # the oracle battery loads only where it is used

        for res in runs:
            x = res.grid.centers - config.jump_x
            h_ref, _ = exact_sw_dam_break(
                config.left[0], config.right[0], config.params.g, x, config.t_end
            )
            errors.append(float(np.sum(np.abs(res.state.q[H] - h_ref) * res.grid.dx)))
        used_levels = levels
    else:
        h_fine = runs[-1].state.q[H]
        for res in runs[:-1]:
            h_ref = h_fine.reshape(res.grid.n, -1).mean(axis=1)   # block averages
            errors.append(float(np.sum(np.abs(res.state.q[H] - h_ref) * res.grid.dx)))
        used_levels = levels[:-1]

    orders = [
        float(np.log2(e0 / e1) / np.log2(n1 / n0)) if e0 > 0 and e1 > 0 else None
        for e0, e1, n0, n1 in zip(errors, errors[1:], used_levels, used_levels[1:])
    ]
    return ConvergenceResult(list(used_levels), errors, orders, reference)
