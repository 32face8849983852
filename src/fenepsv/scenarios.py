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
import itertools
import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    H,
    PhysParams,
    Primitive,
    SolverError,
    _column_runs,
    _free_energy,
    _normal_stress,
    _trace_gap,
    equilibrium_sigma,
    is_admissible,
    primitive,
    require_admissible,
)
from .timeloop import (
    BOUNDARY_KINDS,
    Grid,
    SimState,
    StepControl,
    full_step,
)

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


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class StepBudgetExceeded(SolverError):
    """The run needed more steps than its configured max_steps, or projected
    more than RUN_STEP_LIMIT."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run.

    `left`/`right` are (h, u, sigma_xx, sigma_zz) quadruples; `uniform` uses
    only `left`, `smooth-wave` ignores both and modulates an equilibrium
    state.  `outdir=None` runs without writing any files.  `max_steps` caps
    the number of steps (None: no cap).
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
    dt_min_factor: float = 1e-12
    max_steps: int | None = None

    def validated(self) -> "RunConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.bc not in BOUNDARY_KINDS:
            raise ConfigError(f"unknown bc {self.bc!r}; choose from {BOUNDARY_KINDS}")
        for name in ("x_min", "x_max", "t_end", "jump_x", "dt_min_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        try:   # x_max > x_min, cells >= 1 and a representable cell width
            Grid.uniform(self.x_min, self.x_max, self.cells)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not self.t_end >= 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if not 0.0 < self.cfl <= 0.5:
            raise ConfigError(f"cfl must lie in (0, 1/2], got {self.cfl}")
        if not self.dt_min_factor >= 0:
            raise ConfigError(f"dt_min_factor must be >= 0, got {self.dt_min_factor}")
        if self.snapshots < 1:
            raise ConfigError(f"snapshots must be >= 1, got {self.snapshots}")
        steps = self.max_steps
        if steps is not None and (isinstance(steps, bool) or not isinstance(steps, (int, np.integer))
                                  or steps < 1):
            raise ConfigError(f"max_steps must be an integer >= 1 or unset, got {steps!r}")
        if self.scenario == "dam-break" and not (self.x_min < self.jump_x < self.x_max):
            raise ConfigError(f"jump_x={self.jump_x} outside the domain interior")
        states = (self.left, self.right) if self.scenario == "dam-break" else (self.left,)
        if self.scenario != "smooth-wave":
            for side, vals in zip(("left", "right"), states):
                if len(vals) != 4:
                    raise ConfigError(f"{side} state needs 4 entries (h u sigma_xx sigma_zz)")
                if not np.isfinite(vals).all():
                    raise ConfigError(f"{side} state {tuple(vals)} has a non-finite entry")
                p = Primitive(*map(float, vals))
                if not np.all(is_admissible(p, self.params)):
                    raise ConfigError(f"{side} state {tuple(vals)} is not admissible")
        return self

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["params"] = dataclasses.asdict(self.params)
        d["left"] = list(map(float, self.left))
        d["right"] = list(map(float, self.right))
        return d


def _params_or_error(**kw) -> PhysParams:
    try:
        return PhysParams(**kw)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def preset_dam_break(ell: float, cells: int = 256, **overrides) -> RunConfig:
    """Viscoelastic dam break on [0, 1]: (1,0,1,1) against (0.1,0,1,1).

    g=10, G=0.1, lambda=0.1, zeta=0, free extensibility parameter ell.
    """
    params = _params_or_error(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=float(ell))
    cfg = RunConfig(
        params=params,
        cells=cells,
        t_end=0.1,
        scenario="dam-break",
        jump_x=0.5,
        left=(1.0, 0.0, 1.0, 1.0),
        right=(0.1, 0.0, 1.0, 1.0),
    )
    return dataclasses.replace(cfg, **overrides).validated()


def preset_uniform(ell: float = 10.0, **overrides) -> RunConfig:
    """Lake at rest in relaxation equilibrium: stationary for all time."""
    params = _params_or_error(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=float(ell))
    se = equilibrium_sigma(params)
    cfg = RunConfig(params=params, scenario="uniform", left=(1.0, 0.0, se, se), t_end=0.1)
    return dataclasses.replace(cfg, **overrides).validated()


def preset_smooth_wave(ell: float = 10.0, **overrides) -> RunConfig:
    """Periodic smooth pulse over an equilibrium conformation, for grid studies."""
    params = _params_or_error(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=float(ell))
    cfg = RunConfig(params=params, scenario="smooth-wave", bc="periodic", t_end=0.05)
    return dataclasses.replace(cfg, **overrides).validated()


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
        q = Primitive(*map(float, config.left)).conserved()
        return q[:, None] * np.ones(grid.n)
    if config.scenario == "dam-break":
        ql = Primitive(*map(float, config.left)).conserved()
        qr = Primitive(*map(float, config.right)).conserved()
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


def _snapshot_rows(grid: Grid, q: np.ndarray, params: PhysParams):
    """The snapshot columns of q, checked once and then evaluated unchecked."""
    p = primitive(q)
    require_admissible(p, params, "snapshot state")
    cols = (
        grid.centers,
        p.h,
        p.u,
        p.sxx,
        p.szz,
        _normal_stress(p, params, _trace_gap(p, params)),
        p.sxx + p.szz,
        _free_energy(p, params),
    )
    return np.broadcast_arrays(*cols)


def _format_runs(cols, fmt: str) -> list:
    """`fmt % row` for every row of the equal-length columns `cols`, once per row-run.

    A row-run is a maximal stretch of rows in which no column's float64 bit
    pattern changes, so -0.0 and 0.0 stay apart.
    """
    a = np.array(np.broadcast_arrays(*cols), dtype=np.float64)
    starts, lengths = _column_runs(a)
    texts = np.array([fmt % row for row in zip(*a[:, starts].tolist())], dtype=object)
    return np.repeat(texts, lengths).tolist()


_ROW_TAIL = ",".join(["%r"] * (len(SNAPSHOT_COLUMNS) - 1)) + "\n"


@functools.lru_cache(maxsize=1)
def _grid_text(centers: bytes) -> tuple:
    """`repr(x) + ","` of every grid centre, the first field of each snapshot row.

    Keyed on the centres' bytes, it holds one grid's text.  `run` clears it
    when it starts, so each run formats its grid exactly once.
    """
    return tuple(repr(x) + "," for x in np.frombuffer(centers).tolist())


# Rows joined into each write: a write call per row costs more than its text.
_ROWS_PER_WRITE = 512


def write_snapshot_csv(path: Path, grid: Grid, q: np.ndarray, params: PhysParams) -> None:
    x, *cols = _snapshot_rows(grid, q, params)
    x_text = _grid_text(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    rows = map(operator.add, x_text, _format_runs(cols, _ROW_TAIL))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        while chunk := "".join(itertools.islice(rows, _ROWS_PER_WRITE)):
            f.write(chunk)


_DIAGNOSTICS_HEADER = (
    "n,t,dt,mass,momentum,free_energy,max_dissipation_residual,worst_subchar_ratio\n"
)


def _diagnostics_row(n: int, t: float, diag) -> str:
    vals = (
        t,
        diag.dt,
        diag.mass,
        diag.momentum,
        diag.free_energy,
        diag.max_dissipation_residual,
        diag.worst_subchar_ratio,
    )
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


def run(config: RunConfig) -> RunResult:
    """Integrate the configured scenario and write its artifacts.

    Snapshot times are hit exactly: the step is clipped to the remaining
    interval, or halved when within a factor two of it, so no step ever
    shrinks below half the stable step.  A run that needs more than
    config.max_steps steps raises StepBudgetExceeded, naming the last step
    taken, its time and its dt.  So does a run whose step count, the steps
    taken plus (t_end - t)/dt after a step, comes out above RUN_STEP_LIMIT:
    one whose dt is so small against t_end that it cannot finish.  A step
    landing on an output time is at least half a CFL step, or the whole
    remaining interval, so no landing trips it.

    The run steps from the initial condition itself, with no copy, and a
    piecewise-constant run stays in run space between steps (see
    `timeloop.SimState`); the result's state.q is built before the return.

    A SolverError from a step leaves with its `failure` record (see
    `_failure_record`); with an outdir, the step's input cells are written
    to failure_q.npy, so that `full_step` on them, at the record's t, with
    the config's control and the record's max_dt, raises the error again.
    """
    config = config.validated()
    t0 = time.perf_counter()
    _grid_text.cache_clear()
    grid = Grid.uniform(config.x_min, config.x_max, config.cells)
    q0 = initial_condition(config, grid)
    q0.flags.writeable = False   # stepped from itself: no step writes to its input
    state = SimState(t=0.0, q=q0)
    control = StepControl(
        cfl=config.cfl,
        bc=config.bc,
        dt_min_factor=config.dt_min_factor,
        strict_dissipation=config.strict_dissipation,
        strict_subchar=config.strict_subchar,
    )

    outdir = None
    snapshot_files = []
    used_names: set = set()
    if config.outdir is not None:
        outdir = Path(config.outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    def emit(t: float) -> None:
        if outdir is None:
            return
        name = _snapshot_name(t, used_names)
        write_snapshot_csv(outdir / name, grid, state.q, config.params)
        snapshot_files.append(name)

    targets = [k * config.t_end / config.snapshots for k in range(config.snapshots + 1)]
    targets[-1] = config.t_end
    if config.t_end == 0.0:
        targets = [0.0]
    emit(0.0)

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
    with diag_csv as diag_file:
        if diag_file is not None:
            diag_file.write(_DIAGNOSTICS_HEADER)
        for t_next in targets[1:]:
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
                    e.failure = _failure_record(e, state, steps + 1, diag.dt if steps else None,
                                                remaining)
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
        write_svg_summary(outdir / "final.svg", grid, q0, final_q, config.params)
        payload = {
            "config": config.as_dict(),
            "summary": result.summary(),
            "snapshots": snapshot_files,
        }
        with open(outdir / "run.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return result


# ---------------------------------------------------------------------------
# SVG summary plot, written directly (no plotting dependency).

_PANELS = ("h", "u", "sigma_xx", "sigma_zz")


def _polyline_points(x_text, py) -> str:
    """SVG `points` text: the screen-x texts ("%.2f,") joined to two-decimal screen y."""
    return " ".join(map(operator.add, x_text, _format_runs((py,), "%.2f")))


def _panel_svg(
    ox: float, oy: float, w: float, h: float, title: str, x, y0, y1, x_texts: dict
) -> list:
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

    out = [
        f'<rect x="{ox:.1f}" y="{oy:.1f}" width="{w:.1f}" height="{h:.1f}" '
        'fill="#ffffff" stroke="#333333" stroke-width="1"/>',
        f'<text x="{ox + 6:.1f}" y="{oy + 16:.1f}" font-size="13" fill="#111111">{title}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        vx = xl + frac * (xr - xl)
        vy = lo + frac * (hi - lo)
        out.append(
            f'<text x="{sx(vx):.1f}" y="{oy + h + 14:.1f}" font-size="10" fill="#555555" '
            f'text-anchor="middle">{vx:.3g}</text>'
        )
        out.append(
            f'<text x="{ox - 4:.1f}" y="{sy(vy) + 3:.1f}" font-size="10" fill="#555555" '
            f'text-anchor="end">{vy:.4g}</text>'
        )
    if ox not in x_texts:
        x_texts[ox] = _format_runs((sx(x),), "%.2f,")
    x_text = x_texts[ox]
    for ydata, style in (
        (y0, 'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="4 3"'),
        (y1, 'fill="none" stroke="#1f6feb" stroke-width="1.5"'),
    ):
        out.append(f'<polyline points="{_polyline_points(x_text, sy(ydata))}" {style}/>')
    return out


def write_svg_summary(path: Path, grid: Grid, q_init: np.ndarray, q_final: np.ndarray,
                      params: PhysParams) -> None:
    """2x2 panel plot (h, u, sigma_xx, sigma_zz), final state over initial."""
    p0, p1 = primitive(q_init), primitive(q_final)
    shape = (grid.n,)
    series = {
        "h": (p0.h, p1.h),
        "u": (p0.u, p1.u),
        "sigma_xx": (p0.sxx, p1.sxx),
        "sigma_zz": (p0.szz, p1.szz),
    }
    series = {k: tuple(np.broadcast_to(v, shape) for v in pair) for k, pair in series.items()}
    for name, (a, b) in series.items():
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise RuntimeError(f"non-finite data in panel {name}; refusing to plot")
    W, H, m = 960, 640, 50
    pw, ph = (W - 3 * m) / 2, (H - 3 * m) / 2
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'font-family="monospace">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>',
        '<text x="50" y="26" font-size="14" fill="#111111">'
        "final state (solid) vs initial (dashed)</text>",
    ]
    x_texts: dict = {}
    for k, name in enumerate(_PANELS):
        col, row = k % 2, k // 2
        ox = m + col * (pw + m)
        oy = m + row * (ph + m)
        y0, y1 = series[name]
        body.extend(_panel_svg(ox, oy, pw, ph, name, grid.centers, y0, y1, x_texts))
    body.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in body:   # line by line: no copy of the whole text
            f.write(line + "\n")


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


def _block_average(h_fine: np.ndarray, n_coarse: int) -> np.ndarray:
    factor = h_fine.size // n_coarse
    return h_fine.reshape(n_coarse, factor).mean(axis=1)


def convergence_study(config: RunConfig, levels, reference: str = "auto") -> ConvergenceResult:
    """L1(h) errors and observed orders across a sequence of grids.

    Each level must divide the next.  reference='exact-sw' compares against
    the exact dam-break solution (valid when G=0 and both sides start at
    rest); 'self' compares each level against the block-averaged finest run;
    'auto' picks 'exact-sw' when valid, else 'self'.  The order between two
    levels is None unless both errors are positive (a lake at rest, or
    t_end = 0, has none to measure).
    """
    levels = [int(n) for n in levels]
    if len(levels) < 2 or levels[0] < 1:
        raise ConfigError(f"need at least two grid levels, each >= 1; got {levels}")
    for a, b in zip(levels, levels[1:]):
        if b % a != 0 or b <= a:
            raise ConfigError(f"each level must divide the next; got {a} then {b}")
    if reference == "auto":
        exact_ok = (
            config.scenario == "dam-break"
            and config.params.G == 0.0
            and config.left[1] == 0.0
            and config.right[1] == 0.0
            and config.left[0] > config.right[0]
        )
        reference = "exact-sw" if exact_ok else "self"
    if reference not in ("exact-sw", "self"):
        raise ConfigError(f"unknown reference {reference!r}")

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
            h_ref = _block_average(h_fine, res.grid.n)
            errors.append(float(np.sum(np.abs(res.state.q[H] - h_ref) * res.grid.dx)))
        used_levels = levels[:-1]

    orders = [
        float(np.log2(e0 / e1) / np.log2(n1 / n0)) if e0 > 0 and e1 > 0 else None
        for e0, e1, n0, n1 in zip(errors, errors[1:], used_levels, used_levels[1:])
    ]
    return ConvergenceResult(list(used_levels), errors, orders, reference)
