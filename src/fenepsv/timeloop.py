"""Time integration by splitting: finite-volume transport, then implicit relaxation.

Each step advances the homogeneous system with the relaxation Riemann fluxes
under a half-cell CFL restriction, then relaxes the conformations toward
equilibrium with an unconditionally stable implicit solve at frozen depth and
velocity.  Every step is audited: cells must stay admissible, and the
discrete free-energy balance

    F(q^{n+1}) - F(q^n) + dt/dx (G_{i+1/2} - G_{i-1/2}) <= dt D(q^{n+1})

is checked cell by cell (a tolerance covers roundoff).  Violations are
recorded in the step diagnostics; in strict mode they abort the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import (
    Conserved,
    PhysParams,
    Primitive,
    SolverError,
    _column_runs,
    _dissipation_rate,
    _free_energy,
    _holds,
    _on_runs,
    is_admissible,
    require_admissible,
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
    "homogeneous_step",
    "relax_conformations",
    "source_step",
    "full_step",
    "dissipation_residuals",
]

BOUNDARY_KINDS = ("transmissive", "reflective", "periodic")

# Audit tolerance scale for the free-energy balance.
DISSIPATION_RTOL = 1e-10


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
    """1D finite-volume grid defined by its cell edges (monotone, len n+1)."""

    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("grid edges must be a strictly increasing 1D array")
        # Cell widths, centers and the smallest width, computed once; read-only
        # because they are shared.
        self.dx = np.diff(self.edges)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.dx.flags.writeable = self.centers.flags.writeable = False
        self.min_dx = float(self.dx.min())

    @classmethod
    def uniform(cls, x_min: float, x_max: float, cells: int) -> "Grid":
        return cls(np.linspace(x_min, x_max, cells + 1))

    @property
    def n(self) -> int:
        return self.edges.size - 1


@dataclass
class SimState:
    """Solution snapshot: time and conserved fields over the grid.

    A state returned by `full_step` also carries (params, F): the free energy
    of its cells, computed and checked by that step, which the next step
    reuses as its F(q^n).  Its q array is read-only so that F cannot go stale;
    its t may be set (`run` lands on output times so).  Any other state
    (built by hand, or by `dataclasses.replace`) carries nothing, and
    `full_step` checks it in full.
    """

    t: float
    q: Conserved
    _carried_f: tuple | None = field(default=None, init=False, compare=False, repr=False)


@dataclass
class StepControl:
    """Knobs of a single step; defaults reproduce the plain audited scheme."""

    cfl: float = 0.5
    bc: str = "transmissive"
    dt_min_factor: float = 1e-12   # collapse threshold = factor * min dx
    strict_dissipation: bool = False
    strict_subchar: bool = False
    max_dt: float | None = None    # cap used to land exactly on output times

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 1/2], got {self.cfl}")
        if self.bc not in BOUNDARY_KINDS:
            raise ValueError(f"bc must be one of {BOUNDARY_KINDS}, got {self.bc!r}")


@dataclass
class StepDiagnostics:
    dt: float
    mass: float
    momentum: float
    free_energy: float
    max_dissipation_residual: float
    dissipation_violations: int
    worst_subchar_ratio: float


def apply_boundary(q: Conserved, bc: str) -> Conserved:
    """Pad the cell array with one ghost cell per side."""
    a = q.as_array()
    if bc == "transmissive":
        left, right = a[:, :1].copy(), a[:, -1:].copy()
    elif bc == "reflective":
        left, right = a[:, :1].copy(), a[:, -1:].copy()
        left[1] = -left[1]
        right[1] = -right[1]
    elif bc == "periodic":
        left, right = a[:, -1:].copy(), a[:, :1].copy()
    else:
        raise ValueError(f"bc must be one of {BOUNDARY_KINDS}, got {bc!r}")
    return Conserved.from_array(np.concatenate([left, a, right], axis=1))


def cfl_dt(grid: Grid, fan, cfl: float, dt_min_factor: float = 1e-12) -> float:
    """Half-cell-crossing time step from the extreme fan speeds.

    dt = cfl * min dx / S_max with S_max the largest |outer wave speed| over
    all interfaces.  Raises TimeStepCollapse below dt_min_factor * min dx.
    """
    s_max = float(np.abs(fan.s[::2]).max())
    min_dx = grid.min_dx
    dt = cfl * min_dx / s_max if s_max > 0 else np.inf
    if dt < dt_min_factor * min_dx:
        raise TimeStepCollapse(
            f"dt={dt!r} under collapse threshold {dt_min_factor * min_dx!r} (S_max={s_max!r})"
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


def _pair_runs(lengths):
    """The runs of equal interface pairs of cells whose runs of equal cells
    have `lengths`: (sides, span), sides the (2, m) array of the cell runs
    left (sides[0]) and right (sides[1]) of each pair run, span its length.

    Cell run i holds lengths[i] - 1 interfaces, all joining it to itself,
    and the next interface joins it to run i + 1.
    """
    left = np.repeat(np.arange(lengths.size), 2)[:-1]
    sides = np.stack((left, left))
    sides[1, 1::2] += 1
    span = np.ones(sides.shape[1], dtype=lengths.dtype)
    span[::2] = lengths - 1
    keep = span > 0
    return sides[:, keep], span[keep]


def _fan_runs(a: np.ndarray):
    """The runs that the fan of the padded cells a is evaluated on, or None
    when evaluating every interface costs less.

    Returns (starts, sides, span): the first cell of each run of equal
    cells and the `_pair_runs` of their lengths.  The runs pay when a has
    at least `model.RUNS_MIN_CELLS` columns and at most
    `model.PAIR_RUNS_MAX_SHARE` of its interfaces start a pair run; both
    are read at call time.
    """
    n = a.shape[1]
    if n < model.RUNS_MIN_CELLS:
        return None
    starts, lengths = _column_runs(a)
    sides, span = _pair_runs(lengths)
    return (starts, sides, span) if span.size <= model.PAIR_RUNS_MAX_SHARE * (n - 1) else None


def _fluxes(q: Conserved, grid: Grid, params: PhysParams, control: StepControl, dt=None):
    """The fluxes at every interface of the padded cells of q, and the step.

    q must be admissible (its padded cells are evaluated unchecked).  Solves
    the fan at every interface (see `_fan`).  dt=None takes the CFL step,
    shortened by control.max_dt to land on an output time (never below half
    the CFL step unless the cap itself is smaller).

    Where the padded cells' pair runs pay (`_fan_runs`), the cell state is
    evaluated on each run's first cell, and the fan, fluxes, energy flux
    and monitor on the first interface of each run of equal pairs: the
    interface k joins padded cells k and k + 1, so a pair run starts where
    a cell run starts at k or k + 1.  One `np.take` of the cell-state block
    gathers both sides of those interfaces.  Repeating the outputs gives the
    evaluation at every interface bit for bit, and the CFL step, a maximum
    over the runs, needs no repeat.  A SolverError on the runs is raised
    again by the evaluation at every interface, so its text, index and count
    name the cells and interfaces of q.

    Returns (f_left, f_right, g, ratio, dt, fan): the fluxes seen by the
    cells left and right of each interface, the free-energy flux G and the
    subcharacteristic ratio there, the step, and the fan that gave them (on
    the first interfaces of the pair runs, where runs were taken).
    """
    padded = apply_boundary(q, control.bc)

    def everywhere():
        cells = _cell_state(padded, padded.primitive(), params)
        return _fan(interface_sides(cells), grid.edges, params, control.strict_subchar)

    a = padded.as_array()
    if (runs := _fan_runs(a)) is None:
        fan, ratio = everywhere()
        lengths = None
    else:
        starts, sides, lengths = runs
        firsts = Conserved.from_array(a[:, starts])
        try:
            cells = _cell_state(firsts, firsts.primitive(), params)
            x = grid.edges[np.cumsum(lengths) - lengths]
            fan, ratio = _fan(np.take(cells, sides, axis=1), x, params, control.strict_subchar)
        except SolverError:
            everywhere()
            raise
    del padded, a   # the padded cells are not read again

    if dt is None:
        dt = cfl_dt(grid, fan, control.cfl, control.dt_min_factor)
        if control.max_dt is not None and np.isfinite(control.max_dt):
            if dt >= control.max_dt:
                dt = control.max_dt
            elif dt >= 0.5 * control.max_dt:
                dt = 0.5 * control.max_dt
        elif not np.isfinite(dt):
            raise TimeStepCollapse("CFL produced a non-finite dt and no cap was given")

    f = interface_fluxes(fan)
    g = energy_flux(fan)
    if lengths is None:
        return f[0], f[1], g, ratio, dt, fan
    # Two blocks: the fluxes' dies with the update, before the source step.
    # A block that G and the ratio held until the audit would be given back
    # to the system at the step's end and faulted in again by the next step
    # (about 350 page faults per step at 16384 cells, against about 20).
    f = np.repeat(f.reshape(8, -1), lengths, axis=1)
    g, ratio = np.repeat([g, ratio], lengths, axis=1)
    return f[:4], f[4:], g, ratio, dt, fan


def _transport(q: Conserved, grid: Grid, params: PhysParams, control: StepControl, dt=None):
    """Finite-volume transport of the cells of q over one step, unchecked.

    q must be admissible.  Applies the three-point update with the fluxes
    of `_fluxes`: cell i sees f_left of its right interface and f_right of
    its left interface.  The transported cells are not checked; the caller
    checks them.

    Returns (transported cells, dt, free-energy fluxes, subcharacteristic
    ratios, fan).
    """
    f_left, f_right, g, ratio, dt, fan = _fluxes(q, grid, params, control, dt)
    # q - (dt/dx) (f_left[:, 1:] - f_right[:, :-1]), formed in one buffer
    update = np.subtract(f_left[:, 1:], f_right[:, :-1])
    update *= dt / grid.dx
    q_half = Conserved.from_array(np.subtract(q.as_array(), update, out=update))
    return q_half, dt, g, ratio, fan


def homogeneous_step(
    state: SimState, grid: Grid, params: PhysParams, dt: float, control: StepControl | None = None
) -> SimState:
    """Transport-only update over dt (no relaxation source).

    A transported cell outside the admissible region raises AdmissibilityError.
    """
    require_admissible(state.q.primitive(), params, "cell state")
    q_half, *_ = _transport(state.q, grid, params, control or StepControl(), dt)
    require_admissible(q_half.primitive(), params, "cell after transport")
    return SimState(state.t + dt, q_half)


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


def source_step(q: Conserved, p: Primitive, dt: float, params: PhysParams):
    """Apply the implicit relaxation source; depth and momentum untouched.

    q must be admissible and p hold its primitive variables (the step checks
    them after transport).  Postconditions (checked): the result is
    admissible and the free energy does not increase beyond a roundoff
    allowance.  Returns the relaxed state with its primitive variables and
    free energy, (q, p, F).
    """
    sxx, szz = relax_conformations(p.sxx, p.szz, dt, params)
    out = Conserved.from_array(np.array([q.h, q.hu, q.h * sxx, q.h * szz]))
    p_new = out.primitive()
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


def _transported_source_step(q: Conserved, p: Primitive, dt: float, params: PhysParams):
    """`source_step` of transported cells, which it first checks: a cell
    outside the admissible region raises AdmissibilityError."""
    require_admissible(p, params, "cell after transport")
    return source_step(q, p, dt, params)


def _relax_by_runs(q: Conserved, dt: float, params: PhysParams):
    """The check of the transported cells q, their `source_step` and the
    dissipation rate of its result, evaluated once per run of equal cells
    (see `model._on_runs`); bit for bit the evaluation of every cell,
    errors included.  Returns (relaxed cells, F, D).

    On runs, each output is repeated into an array of its own, so a state
    holding the relaxed cells holds no other output.
    """
    (q_new, p_new, f_new), lengths = _on_runs(_transported_source_step, q, None, dt, params)
    d_new = _dissipation_rate(p_new, params)
    if lengths is None:
        return q_new, f_new, d_new
    q_new = Conserved.from_array(np.repeat(q_new.as_array(), lengths, axis=1))
    return q_new, np.repeat(f_new, lengths), np.repeat(d_new, lengths)


def dissipation_residuals(f_old, f_new, g_flux, d_new, dt: float, dx):
    """Per-cell residual of the discrete free-energy inequality and its tolerance.

    residual_i = F_i^{n+1} - F_i^n + dt/dx_i (G_{i+1/2} - G_{i-1/2}) - dt D_i^{n+1};
    the inequality holds when residual_i <= tol_i = 1e-10 (|F_i^n| + dt |D_i| + 1).
    """
    res = f_new - f_old + (dt / dx) * (g_flux[1:] - g_flux[:-1]) - dt * d_new
    tol = DISSIPATION_RTOL * (np.abs(f_old) + dt * np.abs(d_new) + 1.0)
    return res, tol


def full_step(state: SimState, grid: Grid, params: PhysParams, control: StepControl | None = None):
    """One audited step of the splitting scheme.

    Returns (new_state, StepDiagnostics).  The time step is the CFL one,
    possibly shortened by control.max_dt to land on an output time (never
    below half the CFL step unless the cap itself is smaller).

    The state is checked three times: the input (skipped when it carries
    the free energy of the step that made it, see SimState), the cells after
    transport, and the relaxed cells; everything else runs unchecked.  Where
    the runs of equal cells pay (see `model._dense_runs`), the cell state
    and the fan run once per run of equal cells and of equal interface
    pairs (see `_fluxes`), and the check after transport and the source
    once per run of the transported cells (see `_relax_by_runs`).  The
    update, the audit and every sum see every cell.
    """
    control = control or StepControl()
    carried = state._carried_f
    if carried is not None and carried[0] == params:
        f_old = carried[1]
    else:
        p_old = state.q.primitive()
        require_admissible(p_old, params, "cell state")
        f_old = _free_energy(p_old, params)
    # The fan is held until the step ends.  Freed before the source step, its
    # memory goes to the source step's outputs, the allocator hands the heap
    # top back to the system when the step ends, and the next step faults it
    # in again (on a 4096-cell periodic smooth wave, 228 page faults per step
    # against 22, and a median run() time 35% longer).
    q_half, dt, g_flux, ratio, fan = _transport(state.q, grid, params, control)
    q_new, f_new, d_new = _relax_by_runs(q_half, dt, params)
    res, tol = dissipation_residuals(f_old, f_new, g_flux, d_new, dt, grid.dx)
    violations = int(np.count_nonzero(res > tol))
    if violations and control.strict_dissipation:
        raise DissipationViolation.at(
            "free-energy balance violated", res > tol, worst=res - tol, residual=res, tol=tol
        )

    dx = grid.dx
    diag = StepDiagnostics(
        dt=float(dt),
        mass=float((q_new.h * dx).sum()),
        momentum=float((q_new.hu * dx).sum()),
        free_energy=float((f_new * dx).sum()),
        max_dissipation_residual=float(res.max()),
        dissipation_violations=violations,
        worst_subchar_ratio=float(ratio.max()),
    )
    q_new.as_array().flags.writeable = False
    new_state = SimState(state.t + dt, q_new)
    new_state._carried_f = (params, f_new)
    return new_state, diag
