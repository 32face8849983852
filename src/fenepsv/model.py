"""Shallow viscoelastic flow model: parameters, states, and closures.

The flow state is (h, u, sxx, szz): water depth, depth-averaged velocity,
and the two diagonal components of the polymer conformation tensor. The
polymer is finitely extensible (FENE-P): the trace sxx + szz must stay
below the extensibility bound ell, which keeps the elastic normal stress

    N = G (szz - sxx) / (1 - (sxx + szz)/ell)

finite. Momentum is driven by the total pressure P = g h^2/2 + h N.

The admissible region is

    U = { h > 0, sxx > 0, szz > 0, sxx + szz < ell }.

On U the free energy

    F = h ( u^2/2 + g h/2
          - G/(2(1-zeta)) * ( ell*log((ell-sxx-szz)/(ell-2)) + log(sxx*szz) ) )

is strictly convex in the conserved variables (h, hu, h sxx, h szz), has its
elastic part minimized at the equilibrium conformation sxx = szz = ell/(ell+2),
and decays under the relaxation source at rate `dissipation_rate` (always <= 0).

A conserved state is one float array of shape (4, ...) whose rows H, HU,
HSXX and HSZZ hold (h, hu, h sxx, h szz); `Primitive.conserved` and
`primitive` convert between the two.  All functions below operate
elementwise: fields may be Python floats or numpy arrays of matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "H",
    "HU",
    "HSXX",
    "HSZZ",
    "PhysParams",
    "Primitive",
    "primitive",
    "SolverError",
    "AdmissibilityError",
    "NonHyperbolicError",
    "is_admissible",
    "require_admissible",
    "normal_stress",
    "total_pressure",
    "dP_dh_frozen",
    "free_energy",
    "internal_energy",
    "dissipation_rate",
    "equilibrium_sigma",
]


class SolverError(RuntimeError):
    """A failed solver step: the base of every error behind exit codes 3 and 4.

    `index` is the failing entry as a tuple of int and `values` maps field
    names to plain floats there; both are empty unless the error came from `at`.
    `step_dt` is None, or the dt of the failing step when the step had
    chosen it before it failed (see `timeloop.full_step`).  `failure` is
    None, or the record of the failing step that `scenarios.run` attaches
    (see there).
    """

    def __init__(self, message: str, index: tuple = (), values: dict | None = None):
        super().__init__(message)
        self.index, self.values = index, values or {}
        self.step_dt = self.failure = None

    @classmethod
    def at(cls, what: str, bad, worst=None, **fields):
        """Name the first entry where mask `bad` holds, or the one of largest
        `worst`, with each field's value there and the count of such entries."""
        bad, *arrays = np.broadcast_arrays(np.atleast_1d(bad), *fields.values())
        flat = np.argmax(bad if worst is None else np.where(bad, worst, -np.inf))
        index = tuple(int(k) for k in np.unravel_index(flat, bad.shape))
        values = {k: float(a[index]) for k, a in zip(fields, arrays)}
        text = ", ".join(f"{k}={v!r}" for k, v in values.items())
        n = int(np.count_nonzero(bad))
        return cls(f"{what} at index {index}: {text} ({n} offending entries)", index, values)


class AdmissibilityError(SolverError, ValueError):
    """A state left the admissible region {h>0, sxx>0, szz>0, sxx+szz<ell}."""


class NonHyperbolicError(SolverError, ValueError):
    """The frozen pressure derivative dP/dh came out non-positive."""


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters, all per unit fluid density.

    Attributes:
        g: gravitational acceleration, > 0.
        G: elastic modulus, >= 0 (0 recovers plain shallow water).
        lam: polymer relaxation time, > 0.
        zeta: slip parameter interpolating between the upper-convected
            (zeta=0) and corotational-leaning (zeta=1/2) derivatives.
        ell: FENE extensibility bound on sxx + szz, > 2 so the equilibrium
            conformation ell/(ell+2) * identity is admissible.
    """

    g: float
    G: float
    lam: float
    zeta: float
    ell: float

    def __post_init__(self):
        for name in ("g", "G", "lam", "ell"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.G >= 0:
            raise ValueError(f"G must be non-negative, got {self.G}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0.0 <= self.zeta <= 0.5:
            raise ValueError(f"zeta must lie in [0, 1/2], got {self.zeta}")
        if not self.ell > 2:
            raise ValueError(f"ell must exceed 2, got {self.ell}")


# Rows of a conserved state (h, hu, h sxx, h szz), bijective with Primitive for h > 0.
H, HU, HSXX, HSZZ = 0, 1, 2, 3


@dataclass
class Primitive:
    """Primitive state (h, u, sxx, szz). Fields are floats or same-shape arrays."""

    h: np.ndarray | float
    u: np.ndarray | float
    sxx: np.ndarray | float
    szz: np.ndarray | float

    def conserved(self) -> np.ndarray:
        """The conserved state: a fresh (4, ...) float array, the fields broadcast."""
        return np.array(np.broadcast_arrays(self.h, self.h * self.u, self.h * self.sxx,
                                            self.h * self.szz), dtype=float)


def primitive(q: np.ndarray) -> Primitive:
    """The primitive state of the conserved state q; h is the row q[H] itself,
    and u, sxx and szz are the rows of one array."""
    u, sxx, szz = q[HU:] / q[H]
    return Primitive(q[H], u, sxx, szz)


def _column_runs(a: np.ndarray):
    """(starts, lengths) of the maximal runs of equal columns of the (k, n) float64 array a.

    Two columns are equal when every row's float64 bit pattern is, so -0.0
    and 0.0 stay apart.
    """
    bits = a.view(np.int64)
    n = a.shape[1]
    edges = np.ones(n + 1, dtype=bool)   # edges[i]: a run ends before column i
    (bits[:, 1:] != bits[:, :-1]).any(axis=0, out=edges[1:n])
    bounds = edges.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _holds(ok) -> bool:
    """Whether the mask ok holds at every entry (as np.all(ok), in a third of
    its time on small arrays)."""
    return np.count_nonzero(ok) == getattr(ok, "size", 1)


def is_admissible(p: Primitive, params: PhysParams):
    """Elementwise test for membership in U (strict inequalities)."""
    return (p.h > 0) & (p.sxx > 0) & (p.szz > 0) & (p.sxx + p.szz < params.ell)


def require_admissible(p: Primitive, params: PhysParams, context: str = "state"):
    ok = is_admissible(p, params)
    if not _holds(ok):
        raise AdmissibilityError.at(
            f"{context} outside admissible region", ~ok, h=p.h, sxx=p.sxx, szz=p.szz, ell=params.ell
        )


def _checked_primitive(cells: np.ndarray, params: PhysParams, context: str, lengths=None):
    """The primitive state of the cells, checked admissible; with `lengths` (cell k standing
    for lengths[k] cells), a failure is checked again on every cell, so the error names them."""
    p = primitive(cells)
    try:
        require_admissible(p, params, context)
    except SolverError:
        if lengths is not None:
            require_admissible(primitive(np.repeat(cells, lengths, axis=1)), params, context)
        raise
    return p


def _stress_terms(p: Primitive, params: PhysParams):
    """(s, gap, d, N) of p: the trace s = sxx + szz, the trace gap 1 - s/ell
    (raising AdmissibilityError where it is not positive), d = szz - sxx and
    the normal stress N = G d / gap.  The one place that computes the gap and N."""
    s = p.sxx + p.szz
    gap = 1.0 - s / params.ell
    if not _holds(gap > 0):
        raise AdmissibilityError.at(
            "conformation trace reached the extensibility bound", ~(gap > 0),
            sxx=p.sxx, szz=p.szz, ell=params.ell,
        )
    d = p.szz - p.sxx
    return s, gap, d, params.G * d / gap


# The gap and N come from `_stress_terms` alone, whose gap check guards
# normal_stress, total_pressure and dP_dh_frozen.  P, F, ehat and D each have
# one formula, an unchecked kernel (`_total_pressure`, ...) that the step and
# the fan call after their own stage checks; every other caller goes through
# the public function, which checks admissibility for F, ehat and D.


def normal_stress(p: Primitive, params: PhysParams):
    """Elastic normal-stress difference N = G (szz - sxx) / (1 - (sxx+szz)/ell)."""
    return _stress_terms(p, params)[3]


def _total_pressure(p: Primitive, params: PhysParams, N):
    return params.g * p.h**2 / 2.0 + p.h * N


def total_pressure(p: Primitive, params: PhysParams):
    """Total depth-integrated pressure P = g h^2/2 + h N."""
    return _total_pressure(p, params, _stress_terms(p, params)[3])


def dP_dh_frozen(p: Primitive, params: PhysParams, terms=None):
    """Derivative of P along compressions that transport the conformation.

    Holding w1 = sxx * h^(2(1-zeta)) and w2 = szz * h^(2(zeta-1)) fixed (the
    combinations advected by the homogeneous dynamics), the conformation
    responds to depth changes and

        dP/dh = g h + N + 2(1-zeta) G (s Q + (szz-sxx)^2/ell) / Q^2

    with s = sxx + szz and Q = 1 - s/ell.  The square of the Lagrangian
    sound speed is h^2 dP/dh; positivity is required for hyperbolicity.
    `terms` are the `_stress_terms` of p, if the caller has them.
    """
    s, Q, d, N = _stress_terms(p, params) if terms is None else terms
    out = params.g * p.h + N + 2.0 * (1.0 - params.zeta) * params.G * (s * Q + d**2 / params.ell) / Q**2
    if not _holds(out > 0):
        raise NonHyperbolicError.at(
            "dP/dh non-positive (state left the hyperbolic region)", ~(out > 0), worst=-out,
            dPdh=out, h=p.h, sxx=p.sxx, szz=p.szz,
        )
    return out


def _elastic_energy(p: Primitive, params: PhysParams, s=None):
    """Elastic free energy per unit depth (with its barrier at the bounds);
    s is the trace sxx + szz if the caller has it."""
    s = p.sxx + p.szz if s is None else s
    return (
        params.G
        / (2.0 * (1.0 - params.zeta))
        * (params.ell * np.log((params.ell - s) / (params.ell - 2.0)) + np.log(p.sxx * p.szz))
    )


def _free_energy(p: Primitive, params: PhysParams):
    return p.h * (p.u**2 / 2.0 + params.g * p.h / 2.0 - _elastic_energy(p, params))


def free_energy(p: Primitive, params: PhysParams):
    """Free energy F = h (u^2/2 + g h/2 - elastic); convex in the conserved state."""
    require_admissible(p, params, "free_energy argument")
    return _free_energy(p, params)


def _internal_energy(p: Primitive, params: PhysParams, s=None):
    return params.g * p.h / 2.0 - _elastic_energy(p, params, s)


def internal_energy(p: Primitive, params: PhysParams):
    """Internal (non-kinetic) part of F per unit depth: F/h - u^2/2."""
    require_admissible(p, params, "internal_energy argument")
    return _internal_energy(p, params)


def _dissipation_rate(p: Primitive, params: PhysParams):
    Q = _stress_terms(p, params)[1]
    return (
        -params.G
        * p.h
        / (2.0 * (1.0 - params.zeta) * params.lam)
        * ((1.0 - p.sxx / Q) ** 2 / p.sxx + (1.0 - p.szz / Q) ** 2 / p.szz)
    )


def dissipation_rate(p: Primitive, params: PhysParams):
    """Rate of free-energy decay under the relaxation source; always <= 0.

    D = -G h / (2 (1-zeta) lam) * [ (1 - sxx/Q)^2/sxx + (1 - szz/Q)^2/szz ]
    with Q = 1 - (sxx+szz)/ell.  Vanishes exactly at equilibrium.
    """
    require_admissible(p, params, "dissipation_rate argument")
    return _dissipation_rate(p, params)


def equilibrium_sigma(params: PhysParams) -> float:
    """Equilibrium conformation: sxx = szz = ell/(ell+2) zeroes the source."""
    return params.ell / (params.ell + 2.0)
