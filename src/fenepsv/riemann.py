"""Relaxation Riemann solver for the shallow viscoelastic system.

The interface Riemann problem is replaced by that of a larger system in
which the total pressure is carried by an approximate field pi relaxing to
P(q), the conformation enters through the transported combinations

    w1 = sxx * h^(2(1-zeta)),    w2 = szz * h^(2(zeta-1)),

and a Lagrangian speed parameter c is frozen per side.  Every field of the
relaxed system is linearly degenerate, so its Riemann solution is an explicit
three-wave fan: outer waves at u_l - c_l/h_l and u_r + c_r/h_r and a material
contact at u*.  The speeds c_l, c_r are chosen large enough that the star
depths stay positive and the star conformations keep their trace strictly
below the extensibility bound; both properties are asserted, not assumed.

Numerical fluxes follow the simple-solver recipe: the exact flux of an input
state plus the sum of travelling jumps on the relevant side of the interface.
Left/right flux expressions are evaluated in symmetrized floating-point form
so that mirrored data produce bitwise mirrored fluxes and the conservative
components telescope exactly.

Data layout.  A conserved state is the (4, ...) float array of `model`,
whose rows that module names H, HU, HSXX and HSZZ.  `cell_state` evaluates
every per-cell input of the fan once, into one (CELL_ROWS, n) float block
whose rows are named by the module constants below; its first four rows,
like the star states of the fan, are conserved states.  The two sides of a
set of interfaces are one (CELL_ROWS, 2, m) array, `sides`, whose index 0
along axis 1 is the left cell and 1 the right one: a strided view of
neighbouring cells (`interface_sides`) or two blocks stacked (`side_pair`).
Each one-sided formula of the fan is evaluated once on the (2, m) rows of
both sides; the other side is the same row reversed along that axis, and
each element sees the operations, in the order, of the formula written per
side.  The speeds are a (2, m) array and the fan (`WaveFan`) keeps its wave
speeds and star states as arrays of the same kind; no object is built per
state, per side or per flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    H,
    HSXX,
    HSZZ,
    HU,
    PhysParams,
    Primitive,
    SolverError,
    _holds,
    _internal_energy,
    _stress_terms,
    _total_pressure,
    dP_dh_frozen,
    primitive,
    require_admissible,
)

__all__ = [
    "WaveFan",
    "StarStateError",
    "w_bounds",
    "cell_state",
    "interface_sides",
    "side_pair",
    "relaxation_speeds",
    "star_states",
    "interface_fluxes",
    "energy_flux",
    "subcharacteristic_monitor",
]

# Relative floor keeping the relaxation speeds away from zero in degenerate data.
SPEED_FLOOR = 1e-14

# Rows of the cell-state block.  Rows 0-3 (PROJ) are the cell as an outer fan
# state, projected to conserved variables through (w1, w2): h and hu as they
# are, h sxx and h szz recomputed from w1 and w2.  They are indexed, as every
# conserved state of the fan is, by the conserved rows H, HU, HSXX and HSZZ
# of `model`.
PROJ = slice(0, 4)
# u and the total pressure P, next to each other so that the fan reads both
# at once.
U, P = 4, 5
# Rows 6-9 (FLUX): the exact flux F0 = (hu, hu u + P, h sxx u, h szz u).
FLUX = slice(6, 10)
# a = sqrt(dP/dh frozen); h a; the speed floor SPEED_FLOOR h max(1, a); the
# compression- and expansion-side amplifiers; the internal energy per unit
# depth ehat; w1 and w2; the monitor's outer term h^2 dP/dh; the energy flux
# G = u (hE + h P) / h of the cell as an outer fan state, hE = h (u^2/2 + ehat).
A, HA, FLOOR, ALPHA, BETA, EHAT, W1, W2, SOUND, G = range(10, 20)
CELL_ROWS = 20


class StarStateError(SolverError):
    """The relaxed Riemann fan violated positivity, admissibility or ordering."""


@dataclass
class WaveFan:
    """Explicit Riemann fan of a set of interfaces.

    s holds the wave speeds s1 <= s2 <= s3 as a (3, ...) array, c the
    Lagrangian speeds (c_l, c_r) as a (2, ...) array, and sides the cell
    state of the input sides (see the module docstring), whose rows PROJ
    are the outer states q_l and q_r.  star holds the star states q_l* and
    q_r* projected to conserved variables as a (4, 2, ...) array indexed
    [component, side], as the rows PROJ of sides are; hpi and hE are their
    relaxed pressure and energy, weighted by depth, as (2, ...) arrays.  The
    star states carry the w1, w2 and c of their side.
    """

    s: np.ndarray
    c: np.ndarray
    sides: np.ndarray
    star: np.ndarray
    hpi: np.ndarray
    hE: np.ndarray

    s1 = property(lambda self: self.s[0])
    s2 = property(lambda self: self.s[1])
    s3 = property(lambda self: self.s[2])


def w_bounds(p: Primitive, params: PhysParams):
    """Admissible range (w-, w+) for the compression factor of a state.

    A star state with depth ratio power w = (h*/h)^(2(1-zeta)) keeps its
    conformation trace below ell iff w- < w < w+, where, with A = szz/ell and
    B = sxx/ell,

        w+- = (1 -+ sqrt(1 - 4AB)) / (2A).

    The lower root is evaluated as 2B / (1 + sqrt(1 - 4AB)) to avoid
    cancellation when A*B is small.  Always 0 < w- < 1 < w+.
    """
    require_admissible(p, params, "w_bounds argument")
    return _w_bounds(p, params)


def _w_bounds(p: Primitive, params: PhysParams):
    """`w_bounds` without its admissibility check."""
    A = p.szz / params.ell
    B = p.sxx / params.ell
    one_disc = 1.0 + np.sqrt(np.maximum(1.0 - 4.0 * A * B, 0.0))
    w_minus = 2.0 * B / one_disc
    with np.errstate(divide="ignore"):
        w_plus = one_disc / (2.0 * A)
    return w_minus, w_plus


def cell_state(q: np.ndarray, params: PhysParams) -> np.ndarray:
    """The fan inputs of every cell of q, evaluated once: the (CELL_ROWS, ...)
    block whose rows the module constants name.

    The amplifiers come from the admissible compression range (w-, w+):
    alpha = max(2, W/(W-1)) with W = w+^(1/(2(1-zeta))) guards the lower
    bound on star depths (if w+ overflows, szz ~ 0, the bound is vacuous and
    the floor 2 applies); beta = V/(1-V) with V = w-^(1/(2(1-zeta))) in (0,1)
    guards expansions.  Raises AdmissibilityError if a cell lies outside U.
    """
    p = primitive(q)
    require_admissible(p, params, "w_bounds argument")
    return _cell_state(q, p, params)


def _cell_state(q: np.ndarray, p: Primitive, params: PhysParams) -> np.ndarray:
    """`cell_state` of admissible cells q with primitive variables
    p = primitive(q), unchecked."""
    shape = getattr(p.h, "shape", ())
    cells = np.empty((CELL_ROWS,) + (shape or (1,)))   # a row of a 0-d state is a view too
    h, u, zeta = p.h, p.u, params.zeta
    w_minus, w_plus = _w_bounds(p, params)
    expo = 1.0 / (2.0 * (1.0 - zeta))
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.power(w_plus, expo)
        np.fmax(2.0, W / (W - 1.0), out=cells[ALPHA])   # W = inf gives NaN, so 2
    V = np.power(w_minus, expo)
    np.divide(V, 1.0 - V, out=cells[BETA])
    terms = s, _, _, N = _stress_terms(p, params)   # rejects a non-positive trace gap
    dPdh = dP_dh_frozen(p, params, terms)
    # h^(2(1-zeta)) and h^(2(zeta-1)): w1 and w2 take one each, and their
    # projection back to h sxx and h szz the other.  The exponents stay
    # scalars (see `star_states`).
    up, down = np.power(h, 2.0 * (1.0 - zeta)), np.power(h, 2.0 * (zeta - 1.0))
    np.multiply(p.sxx, up, out=cells[W1])
    np.multiply(p.szz, down, out=cells[W2])
    a = q.reshape((4,) + cells.shape[1:])
    cells[:HSXX] = a[:HSXX]
    np.multiply(cells[W1], down, out=cells[HSXX])
    np.multiply(cells[W2], up, out=cells[HSZZ])
    cells[HSXX : HSZZ + 1] *= h
    cells[P] = _total_pressure(p, params, N)
    ehat = cells[EHAT] = _internal_energy(p, params, s)
    cells[FLUX.start] = a[HU]
    np.add(a[HU] * u, cells[P], out=cells[FLUX.start + 1])
    np.multiply(a[HSXX : HSZZ + 1], u, out=cells[FLUX.start + 2 : FLUX.stop])
    np.sqrt(dPdh, out=cells[A])
    np.multiply(h, cells[A], out=cells[HA])
    np.multiply(SPEED_FLOOR * h, np.maximum(1.0, cells[A]), out=cells[FLOOR])
    np.multiply(h**2, dPdh, out=cells[SOUND])
    hE = h * (u**2 / 2.0 + ehat)
    # u (hE + hP/h) is the outer state's hu/h (hE + hpi/h), u being hu/h.
    np.multiply(u, hE + h * cells[P] / h, out=cells[G])
    cells[U] = u
    return cells.reshape((CELL_ROWS,) + shape)


def interface_sides(cells: np.ndarray) -> np.ndarray:
    """The sides of the interfaces between neighbouring cells of the (k, n)
    block cells: a read-only (k, 2, n - 1) view, no copy."""
    k, n = cells.shape
    row, col = cells.strides
    sides = np.ndarray((k, 2, n - 1), cells.dtype, cells, 0, (row, col, col))
    sides.flags.writeable = False
    return sides


def side_pair(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The sides of interfaces with cell-state blocks l on the left and r on
    the right: the (k, 2, ...) array of both."""
    return np.stack((l, r), axis=1)


def relaxation_speeds(sides: np.ndarray) -> np.ndarray:
    """Lagrangian speeds (c_l, c_r) guaranteeing an admissible fan, as a
    (2, ...) array.

    Starting from the sound-speed baseline h a, a = sqrt(dP/dh frozen), each
    side is enlarged by the alpha term under compression (approach velocity
    or adverse pressure jump) and by the beta term under expansion, scaled by
    the pressure-jump estimate |pi_r - pi_l| / (h_l a_l + h_r a_r).
    """
    den = sides[HA, 0] + sides[HA, 1]
    # [[ul - ur, ur - ul], [pi_l - pi_r, pi_r - pi_l]] floored at 0: the
    # [approach, separation] velocity and each side's pressure drop towards
    # the other side.
    up = sides[U : P + 1]
    du, drop = np.maximum(up - up[:, ::-1], 0.0)
    drop /= den
    comp = du[0] + drop[::-1]
    comp *= sides[ALPHA]
    comp += sides[A]
    expn = du[1] + drop
    expn *= sides[BETA]
    c = np.maximum(comp, expn, out=comp)
    c *= sides[H]
    return np.maximum(c, sides[FLOOR], out=c)


def star_states(sides: np.ndarray, c: np.ndarray, params: PhysParams) -> WaveFan:
    """Solve the relaxed Riemann problem exactly for speeds c = (c_l, c_r).

    All expressions are grouped so that swapping sides and negating
    velocities yields the bitwise mirrored fan.  Raises StarStateError if
    a star depth fails positivity, the projected star conformations touch
    the extensibility bound, or the wave speeds come out unordered; with
    speeds from `relaxation_speeds` (or any enlargement) none of that can
    happen in exact arithmetic.  A check fails on the left star states
    before the right ones, and names the failing interface.  The one-sided
    star pressures pi_l + c_l (u_l - u*) and pi_r - c_r (u_r - u*) are
    equal by the choice of u*; that identity is checked by the oracle
    battery (`fenepsv check`) and the tests, not here.
    """
    h = sides[H].copy()   # contiguous copies of the rows read most
    up = sides[U : P + 1].copy()
    u, pi = up
    cl, cr = c
    csum = cl + cr
    s = np.empty((3,) + np.shape(csum))
    du, dpi = up - up[:, ::-1]   # [ul - ur, ur - ul] and [pi_l - pi_r, pi_r - pi_l]
    t = c * u
    u_star = np.divide((t[0] + t[1]) + dpi[0], csum, out=s[1, ...])
    t = np.multiply(c[::-1], pi, out=t)
    pi_star = ((t[0] + t[1]) + (cl * cr) * du[0]) / csum

    # h* from 1/h* = 1/h + jump/(c (c_l+c_r)), written without the double
    # reciprocal so equal input states reproduce h exactly.
    den = np.multiply(c[::-1], du[1], out=t)
    den += dpi
    del du, dpi
    den /= c * csum
    den *= h
    den += 1.0
    if not _holds(ok := den > 0):
        raise StarStateError.at("non-positive star depth", ~(ok[0] & ok[1]), c_l=cl, c_r=cr)
    ehat_star = np.subtract(pi_star**2, np.square(pi), out=np.empty_like(den))
    t = c**2
    t *= 2.0
    ehat_star /= t
    ehat_star += sides[EHAT]

    # The star states projected to conserved variables through the w1 and
    # w2 of their side.
    star = np.empty((4, 2) + np.shape(csum))
    h_star = np.divide(h, den, out=star[H])
    np.multiply(h_star, u_star, out=star[HU])
    # Scalar exponents: numpy squares for an exponent of 2 only when it is a
    # scalar, so an array of exponents would move the last bit.
    zeta = params.zeta
    conformation = star[HSXX : HSZZ + 1]
    np.power(h_star, 2.0 * (zeta - 1.0), out=conformation[0])
    np.power(h_star, 2.0 * (1.0 - zeta), out=conformation[1])
    conformation *= sides[W1 : W2 + 1]
    conformation *= h_star
    hpi = h_star * pi_star
    ehat_star += u_star**2 / 2.0
    hE = np.multiply(h_star, ehat_star, out=ehat_star)

    # Projected star conformations must stay strictly inside the admissible region.
    trace = conformation[0] + conformation[1]
    trace /= h_star
    ok = trace < params.ell
    if not (_holds(ok) and _holds(conformation > 0)):
        ok &= conformation[0] > 0
        ok &= conformation[1] > 0
        side = 0 if not _holds(ok[0]) else 1
        raise StarStateError.at("inadmissible star conformation", ~ok[side], c_l=cl, c_r=cr)

    ch = c / h
    np.subtract(u[0], ch[0], out=s[0, ...])
    np.add(u[1], ch[1], out=s[2, ...])
    if not _holds(ok := s[1:] >= s[:-1]):
        raise StarStateError.at("unordered wave speeds", ~(ok[0] & ok[1]), c_l=cl, c_r=cr)

    return WaveFan(s, c, sides, star, hpi, hE)


def interface_fluxes(fan: WaveFan) -> np.ndarray:
    """Numerical fluxes of the simple solver built on the relaxed fan, as a
    fresh (2, 4, ...) array: f_left = [0] and f_right = [1], the fluxes seen
    by the cells left and right of each interface.

    f_left  = F0(q_l) + sum_k min(s_k, 0) * jump_k,
    f_right = F0(q_r) - sum_k max(s_k, 0) * jump_k,

    with F0 the sides' exact fluxes (rows FLUX of `fan.sides`) and jumps
    taken between fan states projected to conserved variables.  The cell
    update only ever sees flux differences, so any consistent F0 gives the
    same scheme (a fan whose sides carry f = 0 exposes that).  Only the
    conformation components are one-sided: the conservative components
    (h, hu) take the algebraically identical central form 0.5*(F0_l + F0_r
    - sum_k |s_k| jump_k), shared verbatim by both outputs, which makes the
    scheme telescope exactly.  Each sum is accumulated in the order
    (w(s1) jump_1 + w(s3) jump_3) + w(s2) jump_2.
    """
    s, f0 = fan.s[:, None], fan.sides[FLUX]
    outer, star = fan.sides[PROJ], fan.star
    f = np.empty((2, 4) + s.shape[2:])

    def jumps(rows):   # [wave, component] jumps of the components `rows`
        out = np.empty((3, rows.stop - rows.start) + s.shape[2:])
        np.subtract(star[rows, 0], outer[rows, 0], out=out[0])
        np.subtract(star[rows, 1], star[rows, 0], out=out[1])
        np.subtract(outer[rows, 1], star[rows, 1], out=out[2])
        return out

    def wave_sum(terms):   # terms[k] = w(s_{k+1}) jump_{k+1}, summed into terms[0]
        terms[0] += terms[2]
        terms[0] += terms[1]
        return terms[0]

    central = np.add(f0[:2, 0], f0[:2, 1], out=f[0, :2])
    conservative = jumps(slice(0, 2))
    conservative *= np.abs(s)
    central -= wave_sum(conservative)
    central *= 0.5
    f[1, :2] = central
    del conservative   # before the conformation jumps, to keep the peak low
    conformation = jumps(slice(2, 4))
    left = wave_sum(np.minimum(s, 0.0) * conformation)
    right = wave_sum(np.multiply(conformation, np.maximum(s, 0.0), out=conformation))
    np.add(f0[2:, 0], left, out=f[0, 2:])
    np.subtract(f0[2:, 1], right, out=f[1, 2:])
    return f


def energy_flux(fan: WaveFan):
    """Free-energy flux across the interface: u (hE + pi) at the xi=0 fan state.

    The xi=0 state is the one between the waves of negative and non-negative
    speed; a wave of speed exactly 0 counts as lying right of the ray.
    Consistent with the exact entropy flux u (F + P) when both sides agree.
    """
    h_star = fan.star[H]
    g_star = fan.star[HU] / h_star * (fan.hE + fan.hpi / h_star)
    g_outer = fan.sides[G]
    # The speeds are ordered, so s3 < 0 implies s2 < 0 implies s1 < 0.
    neg = fan.s < 0
    return np.where(
        neg[0], np.where(neg[1], np.where(neg[2], g_outer[1], g_star[1]), g_star[0]), g_outer[0]
    )


def subcharacteristic_monitor(fan: WaveFan, params: PhysParams):
    """Worst ratio h^2 (dP/dh) / c^2 over the four fan states.

    Values <= 1 certify the relaxed energy dominates the true one along the
    fan (the stability requirement); values > 1 are reported, not fatal.
    The outer states reuse the input sides' h^2 dP/dh; the two star states
    take one `dP_dh_frozen` call, and where it fails, the left star state's
    failure is raised before the right one's.
    """
    c2 = fan.c**2
    p = primitive(fan.star)
    try:
        dPdh = dP_dh_frozen(p, params)
    except SolverError:
        for k in (0, 1):
            dP_dh_frozen(Primitive(p.h[k], p.u[k], p.sxx[k], p.szz[k]), params)
        raise
    worst = fan.sides[SOUND] / c2
    np.maximum(worst, p.h**2 * dPdh / c2, out=worst)
    return np.maximum(worst[0], worst[1])
