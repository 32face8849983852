"""Time integration by splitting: finite-volume transport, then implicit relaxation.

Each step advances the homogeneous system with the relaxation Riemann fluxes
under a half-cell CFL restriction, then relaxes the conformations toward
equilibrium with an unconditionally stable implicit solve at frozen depth and
velocity.  Every step is audited: cells must stay admissible, and the
discrete free-energy balance

    F(q^{n+1}) - F(q^n) + dt/dx (G_{i+1/2} - G_{i-1/2}) <= dt D(q^{n+1})

is checked cell by cell (a tolerance covers roundoff).  Violations are
recorded in the step diagnostics; in strict mode they abort the run.

A state (`SimState`) is its time and its cells, the (4, n) float array of
conserved variables whose rows `model` names.  `full_step` is the only
function that advances a state; the public stage functions (`apply_boundary`,
`cfl_dt`, `source_step`, `relax_conformations`, `dissipation_residuals`)
are pieces of it.

Steps on runs.  A run of equal cells steps like three cells: its first cell,
one inner cell and its last cell, since every inner cell meets the same
(left, self, right) cells and every cell of a `Grid` has the one width dx.
On grids of piecewise-constant data (behind the one gate of `_runs`), the
step runs on these compressed cells, taken from the runs of the state: the
runs it carries from the step that made it, or those of one scan of a
state that carries nothing.  Its result stays in run space: one cell per
run, the run's start and length, and the cell's F, with no (4, n) array,
which `SimState.q` builds on first read.  The step on every cell and the
step on compressed cells are one body (`_step_cells`), and their results
are the same bits, errors included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    H,
    HU,
    PhysParams,
    Primitive,
    SolverError,
    _checked_primitive,
    _column_runs,
    _dissipation_rate,
    _free_energy,
    _holds,
    is_admissible,
    primitive,
)
from .riemann import (
    _cell_state,
    energy_flux,
    interface_fluxes,
    interface_sides,
    relaxation_speeds,
    star_states,
    subcharacteristic_monitor,
)

__all__ = [
    "Grid",
    "SimState",
    "StepControl",
    "StepDiagnostics",
    "TimeStepCollapse",
    "SourceSolveFailure",
    "SubcharacteristicViolation",
    "DissipationViolation",
    "apply_boundary",
    "cfl_dt",
    "relax_conformations",
    "source_step",
    "full_step",
    "dissipation_residuals",
]

BOUNDARY_KINDS = ("transmissive", "reflective", "periodic")

# Audit tolerance scale for the free-energy balance.
DISSIPATION_RTOL = 1e-10

# The gate of the step on runs (`_runs`).  Finding, padding and repeating the
# runs cost about what stepping 500 to 1000 more cells costs, so grids of
# fewer than RUNS_MIN_CELLS cells step every cell.  The step's cost on runs
# follows its compressed cells, so it takes them where they number at most
# COMPRESSED_MAX_SHARE per cell (see README, numerical notes, for the
# measured break-even).
RUNS_MIN_CELLS = 1024
COMPRESSED_MAX_SHARE = 0.5


class TimeStepCollapse(SolverError):
    """CFL time step fell below the collapse threshold."""


class SourceSolveFailure(SolverError):
    """The implicit relaxation solve failed to converge or broke a postcondition."""


class SubcharacteristicViolation(SolverError):
    """strict_subchar: the monitor stayed above 1 after the last speed doubling."""


class DissipationViolation(SolverError):
    """Free-energy balance violated beyond tolerance (strict mode only)."""


@dataclass
class Grid:
    """Uniform 1D finite-volume grid: n cells of one width dx on [x_min, x_max],
    placed by the read-only `edges` (np.linspace's n + 1) and `centers`.
    Raises ValueError where dx is not a positive finite float, is subnormal
    (whose coarse rounding leaves n dx off the domain by whole percents), or
    the edges do not strictly increase."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        self.x_min, self.x_max = float(self.x_min), float(self.x_max)
        self.dx = float((self.x_max - self.x_min) / self.n) if self.n >= 1 else np.nan
        domain = f"grid of {self.n} cells on [{self.x_min!r}, {self.x_max!r}]"
        if not 0.0 < self.dx < np.inf:
            raise ValueError(f"{domain}: cell width {self.dx!r} is not a positive finite float")
        if self.dx < (tiny := float(np.finfo(float).tiny)):
            raise ValueError(f"{domain}: cell width {self.dx!r} is subnormal (below {tiny!r})")
        self.edges = np.linspace(self.x_min, self.x_max, self.n + 1)
        if not _holds(self.edges[1:] > self.edges[:-1]):
            raise ValueError(f"{domain}: edges do not strictly increase")
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.edges.flags.writeable = self.centers.flags.writeable = False

    @classmethod
    def uniform(cls, x_min: float, x_max: float, cells: int) -> "Grid":
        return cls(x_min, x_max, cells)


@dataclass
class SimState:
    """Solution snapshot: the time t and the conserved state q over the grid,
    a (4, n) float array whose rows `model` names.

    A state returned by `full_step` also carries (params, F): the free energy
    of its cells, computed and checked by that step, which the next step
    reuses as its F(q^n).  A state made by the step on compressed cells is
    held in run space: it carries its runs of equal cells as (cells, starts,
    lengths), one (4, m) column per run and the run's first cell and length
    as `model._column_runs` gives them, and F per run.  It holds no (4, n)
    array until q is first read, which repeats the cells by their lengths
    once and caches the result.  The q of a state returned by `full_step` is
    read-only, so that what the state carries cannot go stale; its t may be
    set (`run` lands on output times so).  A state made by the step on
    every cell carries F alone, and is stepped on every cell, unscanned.
    Any other state (the initial condition, one built by hand or by
    `dataclasses.replace`, which reads the full q) carries nothing:
    `full_step` checks it and, on a grid large enough for runs, scans it.
    """

    t: float
    q: np.ndarray
    _carried_f: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _carried_runs: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __getattr__(self, name):
        # Reached only for the q of a state in run space before its first read.
        if name != "q" or self._carried_runs is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        cells, _, lengths = self._carried_runs
        self.q = np.repeat(cells, lengths, axis=1)
        self.q.flags.writeable = False
        return self.q


def _run_state(t: float, cells, starts, lengths, params: PhysParams, f) -> SimState:
    """The state in run space whose runs are (cells, starts, lengths), with F per run f."""
    state = object.__new__(SimState)
    state.t = t
    state._carried_runs = cells, starts, lengths
    state._carried_f = params, f
    return state


@dataclass
class StepControl:
    """Knobs of a single step, checked when built (ValueError); defaults
    reproduce the plain audited scheme."""

    cfl: float = 0.5
    bc: str = "transmissive"
    dt_min_factor: float = 1e-12   # collapse threshold = factor * dx
    strict_dissipation: bool = False
    strict_subchar: bool = False
    max_dt: float | None = None    # cap used to land exactly on output times

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 1/2], got {self.cfl}")
        if self.bc not in BOUNDARY_KINDS:
            raise ValueError(f"bc must be one of {BOUNDARY_KINDS}, got {self.bc!r}")
        if not 0.0 <= self.dt_min_factor < np.inf:
            raise ValueError(f"dt_min_factor must be finite and >= 0, got {self.dt_min_factor}")
        if self.max_dt is not None and not 0.0 < self.max_dt < np.inf:
            raise ValueError(f"max_dt must be unset or finite and > 0, got {self.max_dt}")


@dataclass
class StepDiagnostics:
    dt: float
    mass: float
    momentum: float
    free_energy: float
    max_dissipation_residual: float
    dissipation_violations: int
    worst_subchar_ratio: float


def apply_boundary(q: np.ndarray, bc: str) -> np.ndarray:
    """Pad the (4, n) cell array q with one ghost cell per side."""
    if bc == "transmissive":
        left, right = q[:, :1].copy(), q[:, -1:].copy()
    elif bc == "reflective":
        left, right = q[:, :1].copy(), q[:, -1:].copy()
        left[HU] = -left[HU]
        right[HU] = -right[HU]
    elif bc == "periodic":
        left, right = q[:, -1:].copy(), q[:, :1].copy()
    else:
        raise ValueError(f"bc must be one of {BOUNDARY_KINDS}, got {bc!r}")
    return np.concatenate([left, q, right], axis=1)


def cfl_dt(grid: Grid, fan, cfl: float, dt_min_factor: float = 1e-12) -> float:
    """Half-cell-crossing time step from the extreme fan speeds.

    dt = cfl * dx / S_max with S_max the largest |outer wave speed| over all
    interfaces.  Raises TimeStepCollapse below dt_min_factor * dx.
    """
    s_max = float(np.abs(fan.s[::2]).max())
    dx = grid.dx
    dt = cfl * dx / s_max if s_max > 0 else np.inf
    if dt < dt_min_factor * dx:
        raise TimeStepCollapse(
            f"dt={dt!r} under collapse threshold {dt_min_factor * dx!r} (S_max={s_max!r})"
        )
    return dt


def _fan(sides, x, params: PhysParams, strict_subchar: bool):
    """The fan of each interface with the given sides (see `riemann`), at
    edge x, and its subcharacteristic ratio.

    With strict_subchar, the speeds are doubled where the monitor is above
    1, up to 3 times, and a ratio still above 1 raises
    SubcharacteristicViolation.
    """
    c = relaxation_speeds(sides)
    fan = star_states(sides, c, params)
    ratio = subcharacteristic_monitor(fan, params)
    if strict_subchar:
        for _ in range(3):
            bad = ratio > 1.0
            if not bad.any():
                break
            c = np.where(bad, 2.0 * c, c)
            fan = star_states(sides, c, params)
            ratio = subcharacteristic_monitor(fan, params)
        if (ratio > 1.0).any():
            raise SubcharacteristicViolation.at(
                "subcharacteristic ratio above 1 after 3 speed doublings", ratio > 1.0,
                worst=ratio, ratio=ratio, x=x,
            )
    return fan, ratio


def _runs(starts, lengths, n: int):
    """The compressed cells of n cells whose runs of equal cells start at
    `starts` and span `lengths` cells, or None where stepping every cell
    costs less.

    Returns (rep, weight): from each run, its first cell, its second (runs
    of 3 or more) and its last (runs of 2 or more), and the number of cells
    that each stands for, itself and those up to the next one.  Every cell
    meets the (left, self, right) cells and the dx of the one that stands
    for it, ghost cells included, since `apply_boundary` pads the compressed
    cells with the same end cells.  The runs pay when there are at least
    RUNS_MIN_CELLS cells and at most COMPRESSED_MAX_SHARE compressed cells
    per cell; both are read at call time.
    """
    if n < RUNS_MIN_CELLS:
        return None
    # a run of L cells gives min(L, 3) compressed cells
    if starts.size + np.count_nonzero(lengths > 1) + np.count_nonzero(lengths > 2) \
            > COMPRESSED_MAX_SHARE * n:
        return None
    last = starts + lengths - 1
    rep = np.stack((starts, np.minimum(starts + 1, last), last), axis=1).ravel()
    new = np.ones(rep.size, dtype=bool)   # rep is nondecreasing: drop its repeats
    np.not_equal(rep[1:], rep[:-1], out=new[1:])
    rep = rep[new]
    return rep, np.diff(rep, append=n)


def _fluxes(q: np.ndarray, x, grid: Grid, params: PhysParams, control: StepControl):
    """The fluxes at every interface of the padded cells of q, at edges x,
    and the step.  q must be admissible (its padded cells are evaluated
    unchecked).  The step is the CFL one over grid.dx, shortened by
    control.max_dt to land on an output time (never below half the CFL step
    unless the cap itself is smaller).

    Returns (f_left, f_right, g, ratio, dt, fan): the fluxes seen by the
    cells left and right of each interface, the free-energy flux G and the
    subcharacteristic ratio there (see `_fan`), the step, and the fan that
    gave them.
    """
    padded = apply_boundary(q, control.bc)
    cells = _cell_state(padded, primitive(padded), params)
    del padded   # the padded cells are not read again
    fan, ratio = _fan(interface_sides(cells), x, params, control.strict_subchar)
    dt = cfl_dt(grid, fan, control.cfl, control.dt_min_factor)
    if control.max_dt is not None:
        if dt >= control.max_dt:
            dt = control.max_dt
        elif dt >= 0.5 * control.max_dt:
            dt = 0.5 * control.max_dt
    elif not np.isfinite(dt):
        raise TimeStepCollapse("CFL produced a non-finite dt and no cap was given")
    f = interface_fluxes(fan)
    return f[0], f[1], energy_flux(fan), ratio, dt, fan


def relax_conformations(sxx0, szz0, dt: float, params: PhysParams):
    """Implicit relaxation of the conformations at fixed depth and velocity.

    The trace s = sxx + szz satisfies the scalar monotone equation

        lam (s - s0)/dt - 2 + s / (1 - s/ell) = 0,

    which has exactly one root in (0, ell); it is found by Newton iterations
    safeguarded with bisection.  Both components then follow in closed form:

        sxx = (sxx0 + dt/lam) / (1 + (dt/lam)/(1 - s/ell)),

    and likewise for szz.  Unconditionally stable: any dt >= 0 keeps the
    result admissible.

    Each entry stops iterating once its residual is within tolerance: a pass
    that leaves fewer entries unconverged writes the others' roots out and
    carries on with the rest only, so every entry takes the same iterates
    as if the whole array were iterated until the last one converged.
    """
    if dt == 0.0:
        return sxx0, szz0
    ell = params.ell
    r = dt / params.lam
    sxx0 = np.asarray(sxx0, dtype=float)
    szz0 = np.asarray(szz0, dtype=float)
    s0_all = sxx0 + szz0
    tol = 1e-13 * (2.0 + ell / r)

    # root holds every entry's trace; idx and the rows of `it` cover the
    # unconverged entries: s0, the iterate s, its residual g, Q = 1 - s/ell
    # and the bracket (lo, hi).  Each pass updates the rows in place, and a
    # pass that leaves fewer entries unconverged compresses them at once.
    root = s0_all.ravel().copy()
    idx = np.arange(root.size)
    it = np.empty((6, root.size))
    it[:2] = root
    it[4] = 0.0
    it[5] = ell
    s0, s, g, Q, lo, hi = it
    tmp = np.empty_like(root)

    def update_residual():   # Q = 1 - s/ell, g = (s - s0)/r - 2 + s/Q
        np.divide(s, ell, out=Q)
        np.subtract(1.0, Q, out=Q)
        np.divide(np.subtract(s, s0, out=g), r, out=g)
        np.subtract(g, 2.0, out=g)
        np.add(g, np.divide(s, Q, out=tmp), out=g)

    update_residual()
    for passes in range(101):
        active = np.abs(g) > tol
        if not (active.size and _holds(active)):   # some entry converged, or none is left
            root[idx] = s
            idx = idx[active]
            if not idx.size:
                break
            it, tmp = it[:, active], tmp[: idx.size]
            s0, s, g, Q, lo, hi = it
        if passes == 100:
            bad = np.zeros(s0_all.shape, dtype=bool)
            bad.flat[idx] = True
            g_all = np.zeros(s0_all.shape)
            g_all.flat[idx] = g
            raise SourceSolveFailure.at(
                "trace equation not converged after 100 iterations", bad,
                s0=s0_all, g=g_all, tol=tol,
            )
        # The bracket: hi where g > 0, lo where g <= 0 (no unconverged g is NaN).
        up = g > 0
        np.copyto(hi, s, where=up)
        np.copyto(lo, s, where=~up)
        # Newton, s - g / (1/r + 1/Q^2), bisecting where it leaves the bracket.
        step = np.divide(1.0, np.square(Q, out=tmp), out=tmp)
        step += 1.0 / r
        np.subtract(s, np.divide(g, step, out=step), out=s)
        if np.count_nonzero(out := (s <= lo) | (s >= hi)):
            np.copyto(s, 0.5 * (lo + hi), where=out)
        update_residual()

    s = root.reshape(s0_all.shape)
    Q = 1.0 - s / ell
    denom = 1.0 + r / Q
    sxx = (sxx0 + r) / denom
    szz = (szz0 + r) / denom
    drift = np.abs((sxx + szz) - s)
    if not _holds(drift <= 1e-10 * ell):
        raise SourceSolveFailure.at(
            "component recovery inconsistent with the trace root", ~(drift <= 1e-10 * ell),
            worst=drift, drift=drift, bound=1e-10 * ell,
        )
    return sxx, szz


def source_step(q: np.ndarray, p: Primitive, dt: float, params: PhysParams):
    """Apply the implicit relaxation source; depth and momentum untouched.

    q must be admissible and p hold its primitive variables (the step checks
    them after transport).  Postconditions (checked): the result is
    admissible and the free energy does not increase beyond a roundoff
    allowance.  Returns the relaxed state with its primitive variables and
    free energy, (q, p, F).
    """
    sxx, szz = relax_conformations(p.sxx, p.szz, dt, params)
    out = np.array([q[H], q[HU], q[H] * sxx, q[H] * szz])
    p_new = primitive(out)
    ok = is_admissible(p_new, params)
    if not _holds(ok):
        raise SourceSolveFailure.at(
            "relaxed state inadmissible", ~ok, sxx=p_new.sxx, szz=p_new.szz, ell=params.ell
        )
    f_before = _free_energy(p, params)
    f_after = _free_energy(p_new, params)
    allowance = 1e-12 * (1.0 + np.abs(f_before))
    if not _holds(ok := f_after <= f_before + allowance):
        raise SourceSolveFailure.at(
            "free energy increased during relaxation", ~ok, worst=f_after - f_before,
            before=f_before, after=f_after,
        )
    return out, p_new, f_after


def dissipation_residuals(f_old, f_new, g_flux, d_new, dt: float, dx: float):
    """Per-cell residual of the discrete free-energy inequality and its tolerance.

    residual_i = F_i^{n+1} - F_i^n + dt/dx (G_{i+1/2} - G_{i-1/2}) - dt D_i^{n+1};
    the inequality holds when residual_i <= tol_i = 1e-10 (|F_i^n| + dt |D_i| + 1).
    """
    res = f_new - f_old + (dt / dx) * (g_flux[1:] - g_flux[:-1]) - dt * d_new
    tol = DISSIPATION_RTOL * (np.abs(f_old) + dt * np.abs(d_new) + 1.0)
    return res, tol


def _audit(f_old, f_new, g_flux, d_new, dt: float, dx: float, control: StepControl, weight=None):
    """The free-energy audit of the cells, each standing for `weight` cells
    (1 without it): (residuals, violations), a violation being a cell whose
    residual is not within its tolerance (see `dissipation_residuals`), a
    NaN residual included.  Raises DissipationViolation on a violation with
    control.strict_dissipation."""
    res, tol = dissipation_residuals(f_old, f_new, g_flux, d_new, dt, dx)
    bad = ~(res <= tol)
    violations = int(np.count_nonzero(bad) if weight is None else weight[bad].sum())
    if violations and control.strict_dissipation:
        raise DissipationViolation.at(
            "free-energy balance violated", bad, worst=res - tol, residual=res, tol=tol
        )
    return res, violations


def _step_cells(t: float, q, f_old, grid: Grid, params: PhysParams, control: StepControl,
                runs=None):
    """The step from time t and the cells q, whose free energy is f_old, and
    its diagnostics: `full_step` on every cell, or, with the `_runs` (rep,
    weight) of the grid's cells, on the compressed cells q = cells[:, rep].

    Each compressed cell meets the (left, self, right) cells and the dx of
    every cell it stands for, so the fan, the fluxes, G, the ratios, the CFL
    step, the new cells and their residuals are those of every cell bit for
    bit.  The sums of the diagnostics add each compressed cell's term
    repeated by its weight, the very array that the step on every cell sums.
    The new state of the compressed cells is in run space (see SimState):
    its runs are those of the relaxed compressed cells.
    """
    dx, x, weight = grid.dx, grid.edges, None
    if runs is not None:
        rep, weight = runs
        x = x[np.append(rep, grid.n)]
    # The fan is held until the step ends.  Freed before the source step, its
    # memory goes to the source step's outputs, the allocator hands the heap
    # top back to the system when the step ends, and the next step faults it
    # in again (on a 4096-cell periodic smooth wave, 228 page faults per step
    # against 22, and a median run() time 35% longer).
    f_left, f_right, g_flux, ratio, dt, fan = _fluxes(q, x, grid, params, control)
    # The transport, q - (dt/dx) (f_left[:, 1:] - f_right[:, :-1]) formed in
    # one buffer: cell i sees f_left of its right interface and f_right of its
    # left one.
    update = np.subtract(f_left[:, 1:], f_right[:, :-1])
    update *= dt / dx
    q_half = np.subtract(q, update, out=update)
    del f_left, f_right   # freed before the source step, unlike the fan
    try:
        p_half = _checked_primitive(q_half, params, "cell after transport")
        q_new, p_new, f_new = source_step(q_half, p_half, dt, params)
        d_new = _dissipation_rate(p_new, params)
        res, violations = _audit(f_old, f_new, g_flux, d_new, dt, dx, control, weight)
    except SolverError as e:
        e.step_dt = float(dt)
        raise

    def total(row):
        terms = row * dx
        return float((terms if weight is None else np.repeat(terms, weight)).sum())

    diag = StepDiagnostics(
        dt=float(dt),
        mass=total(q_new[H]),
        momentum=total(q_new[HU]),
        free_energy=total(f_new),
        max_dissipation_residual=float(res.max()),
        dissipation_violations=violations,
        worst_subchar_ratio=float(ratio.max()),
    )
    if runs is not None:
        first, _ = _column_runs(q_new)
        return _run_state(t + dt, np.take(q_new, first, axis=1), rep[first],
                          np.add.reduceat(weight, first), params, f_new[first]), diag
    q_new.flags.writeable = False
    new_state = SimState(t + dt, q_new)
    new_state._carried_f = (params, f_new)
    return new_state, diag


def full_step(state: SimState, grid: Grid, params: PhysParams, control: StepControl | None = None):
    """One audited step of the splitting scheme.

    Returns (new_state, StepDiagnostics).  The time step is the CFL one,
    possibly shortened by control.max_dt to land on an output time (never
    below half the CFL step unless the cap itself is smaller).

    The state is checked three times: the input (skipped when it carries
    the free energy of the step that made it, see SimState), the cells after
    transport, and the relaxed cells; everything else runs unchecked.  Where
    the runs of equal cells pay (see `_runs`), the step runs on the
    compressed cells (see `_step_cells`), taken from the runs that the state
    carries or, for a state that carries none, from one scan of its cells,
    whose check and F then run on one cell per run (a state made by the
    step on every cell is stepped on every cell).  Its bits are those of
    the step on every cell, and it returns a state in run space, whose q is
    built only when read.  A SolverError on the compressed cells is raised
    again by the step on every cell, and a failed check of one cell per run
    by `model._checked_primitive` on every cell, so its text, index and
    count name the cells and interfaces of q.  A
    SolverError raised after the step chose its dt carries that dt as
    `step_dt`.  A state whose cell count (in run space, the end of its last
    run) is not grid.n raises ValueError before any check.
    """
    control = control or StepControl()
    n = grid.n
    carried = state._carried_f
    f_old = carried[1] if carried is not None and carried[0] == params else None
    runs_in = state._carried_runs
    m = state.q.shape[-1] if runs_in is None else int(runs_in[1][-1] + runs_in[2][-1])
    if m != n:
        raise ValueError(f"a state of {m} cells on a grid of {n} cells")
    if runs_in is not None:
        cells, starts, lengths = runs_in   # f_old, if carried, is per run
    elif carried is None and n >= RUNS_MIN_CELLS:   # a state that carries nothing
        cells, (starts, lengths) = None, _column_runs(state.q)
    else:
        starts = None
    runs = None if starts is None else _runs(starts, lengths, n)
    if runs is None:
        if f_old is None:
            f_old = _free_energy(_checked_primitive(state.q, params, "cell state"), params)
        elif runs_in is not None:
            f_old = np.repeat(f_old, lengths)
        return _step_cells(state.t, state.q, f_old, grid, params, control)
    if cells is None:
        cells = np.take(state.q, starts, axis=1)
    if f_old is None:
        f_old = _free_energy(_checked_primitive(cells, params, "cell state", lengths), params)
    per_run = np.minimum(lengths, 3)
    try:
        return _step_cells(state.t, np.repeat(cells, per_run, axis=1), np.repeat(f_old, per_run),
                           grid, params, control, runs)
    except SolverError:
        _step_cells(state.t, state.q, np.repeat(f_old, lengths), grid, params, control)
        raise
