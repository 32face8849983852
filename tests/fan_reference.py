"""The fan as it was evaluated before the cell state became one block: one
dataclass per state, each side evaluated with its own calls.

Test-only reference for `fenepsv.riemann`: the production fan must give the
same bits, and raise the same errors, as this one.  `reference_fluxes` is
the time step's evaluation at every interface of the padded cells built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from fenepsv.model import (
    H,
    HSXX,
    HSZZ,
    HU,
    PhysParams,
    Primitive,
    _internal_energy,
    dP_dh_frozen,
    primitive,
    require_admissible,
    total_pressure,
)
from fenepsv.riemann import StarStateError, _w_bounds
from fenepsv.timeloop import SubcharacteristicViolation, TimeStepCollapse, apply_boundary

# Relative floor keeping the relaxation speeds away from zero in degenerate data.
SPEED_FLOOR = 1e-14
STAR_PRESSURE_RTOL = 1e-10


@dataclass
class CellState:
    """Every per-cell input of the fan, evaluated once per cell.

    q is the conserved state as a (4, ...) array, u the velocity, P the total
    pressure, dPdh its frozen derivative and a = sqrt(dPdh), ehat the
    internal energy per unit depth, hP = h P and hE = h (u^2/2 + ehat) the
    cell's relaxed-state pressure and energy, w1 and w2 the transported invariants,
    alpha and beta the compression- and expansion-side speed amplifiers,
    proj the (4, ...) conserved state projected back through w1 and w2 (the
    outer fan states), f the (4, ...) exact flux of the shallow viscoelastic
    system.  Indexing slices every field along the cell axis, so the two
    sides of all interfaces are `cells[:-1]` and `cells[1:]`; `take`
    gathers cells by position.
    """

    q: np.ndarray
    u: np.ndarray | float
    P: np.ndarray | float
    dPdh: np.ndarray | float
    a: np.ndarray | float
    ehat: np.ndarray | float
    hP: np.ndarray | float
    hE: np.ndarray | float
    w1: np.ndarray | float
    w2: np.ndarray | float
    alpha: np.ndarray | float
    beta: np.ndarray | float
    proj: np.ndarray
    f: np.ndarray

    @property
    def h(self):
        return self.q[0]

    @property
    def hu(self):
        return self.q[1]

    def __getitem__(self, idx) -> "CellState":
        return CellState(*[getattr(self, name)[..., idx] for name in _CELL_FIELDS])

    def take(self, indices) -> "CellState":
        """The cells at the integer positions `indices`, copied (`np.take`
        gathers several times faster than indexing with an array)."""
        return CellState(*[np.take(getattr(self, name), indices, axis=-1) for name in _CELL_FIELDS])


_CELL_FIELDS = tuple(f.name for f in fields(CellState))


@dataclass
class RelaxedState:
    """One constant state of the relaxed system.

    Components: depth h, momentum hu, transported conformation invariants
    w1 and w2, relaxed pressure weighted by depth hpi, total energy
    hE = h (u^2/2 + ehat) with ehat the internal energy per unit depth, and
    the frozen Lagrangian speed c.
    """

    h: np.ndarray | float
    hu: np.ndarray | float
    w1: np.ndarray | float
    w2: np.ndarray | float
    hpi: np.ndarray | float
    hE: np.ndarray | float
    c: np.ndarray | float


@dataclass
class SpeedPair:
    c_l: np.ndarray | float
    c_r: np.ndarray | float


@dataclass
class WaveFan:
    """Explicit Riemann fan: speeds s1 <= s2 <= s3 and the four states.

    `left` and `right` are the input sides; `proj` holds the four states
    projected back to conserved variables, in fan order.
    """

    s1: np.ndarray | float
    s2: np.ndarray | float
    s3: np.ndarray | float
    q_l: RelaxedState
    q_l_star: RelaxedState
    q_r_star: RelaxedState
    q_r: RelaxedState
    left: CellState
    right: CellState
    proj: tuple

    def states(self):
        return (self.q_l, self.q_l_star, self.q_r_star, self.q_r)


@dataclass
class FluxPair:
    """Fluxes seen by the two cells sharing an interface, shape (4, ...).

    Components order: (h, hu, h sxx, h szz).  The first two components are
    identical in f_left and f_right (the system is conservative there); the
    conformation components differ because their transport is not a
    conservation law.
    """

    f_left: np.ndarray
    f_right: np.ndarray


def cell_state(q: np.ndarray, params: PhysParams) -> CellState:
    """Evaluate the fan inputs of every cell of q once (see CellState).

    The amplifiers come from the admissible compression range (w-, w+):
    alpha = max(2, W/(W-1)) with W = w+^(1/(2(1-zeta))) guards the lower
    bound on star depths (if w+ overflows, szz ~ 0, the bound is vacuous and
    the floor 2 applies); beta = V/(1-V) with V = w-^(1/(2(1-zeta))) in (0,1)
    guards expansions.  Raises AdmissibilityError if a cell lies outside U.
    """
    p = primitive(q)
    require_admissible(p, params, "w_bounds argument")
    return _cell_state(q, p, params)


def _cell_state(q: np.ndarray, p: Primitive, params: PhysParams) -> CellState:
    """`cell_state` of admissible cells q with primitive variables p, unchecked."""
    w_minus, w_plus = _w_bounds(p, params)
    expo = 1.0 / (2.0 * (1.0 - params.zeta))
    with np.errstate(over="ignore"):
        W = np.power(w_plus, expo)
    inf = np.isinf(W)
    alpha = np.maximum(2.0, np.where(inf, 2.0, W / np.where(inf, 2.0, W - 1.0)))
    V = np.power(w_minus, expo)
    dPdh = dP_dh_frozen(p, params)   # also rejects a non-positive trace gap
    w1 = p.sxx * np.power(p.h, 2.0 * (1.0 - params.zeta))
    w2 = p.szz * np.power(p.h, 2.0 * (params.zeta - 1.0))
    P = total_pressure(p, params)
    ehat = _internal_energy(p, params)
    return CellState(
        q=q,
        u=p.u,
        P=P,
        dPdh=dPdh,
        a=np.sqrt(dPdh),
        ehat=ehat,
        hP=q[H] * P,
        hE=q[H] * (p.u**2 / 2.0 + ehat),
        w1=w1,
        w2=w2,
        alpha=alpha,
        beta=V / (1.0 - V),
        proj=_project(q[H], q[HU], w1, w2, params.zeta),
        f=np.stack([q[HU], q[HU] * p.u + P, q[HSXX] * p.u, q[HSZZ] * p.u]),
    )


def relaxation_speeds(l: CellState, r: CellState) -> SpeedPair:
    """Lagrangian speeds (c_l, c_r) guaranteeing an admissible fan.

    Starting from the sound-speed baseline h a, a = sqrt(dP/dh frozen), each
    side is enlarged by the alpha term under compression (approach velocity
    or adverse pressure jump) and by the beta term under expansion, scaled by
    the pressure-jump estimate |pi_r - pi_l| / (h_l a_l + h_r a_r).
    """
    den = l.h * l.a + r.h * r.a
    du_comp = np.maximum(l.u - r.u, 0.0)   # approach velocity
    du_expn = np.maximum(r.u - l.u, 0.0)   # separation velocity
    dpi_lr = np.maximum(l.P - r.P, 0.0)
    dpi_rl = np.maximum(r.P - l.P, 0.0)

    c_l = l.h * np.maximum(
        l.a + l.alpha * (du_comp + dpi_rl / den),
        l.beta * (du_expn + dpi_lr / den),
    )
    c_r = r.h * np.maximum(
        r.a + r.alpha * (du_comp + dpi_lr / den),
        r.beta * (du_expn + dpi_rl / den),
    )
    floor_l = SPEED_FLOOR * l.h * np.maximum(1.0, l.a)
    floor_r = SPEED_FLOOR * r.h * np.maximum(1.0, r.a)
    return SpeedPair(np.maximum(c_l, floor_l), np.maximum(c_r, floor_r))


def star_states(l: CellState, r: CellState, sp: SpeedPair, params: PhysParams) -> WaveFan:
    """Solve the relaxed Riemann problem exactly.

    All expressions are grouped so that swapping sides and negating
    velocities yields the bitwise mirrored fan.  Raises StarStateError if
    a star depth fails positivity, the projected star conformations touch
    the extensibility bound, or the wave speeds come out unordered; with
    speeds from `relaxation_speeds` (or any enlargement) none of that can
    happen in exact arithmetic.
    """
    pi_l, pi_r = l.P, r.P
    hl, hr = l.h, r.h
    ul, ur = l.u, r.u
    cl, cr = sp.c_l, sp.c_r

    csum = cl + cr
    u_star = ((cl * ul + cr * ur) + (pi_l - pi_r)) / csum
    pi_star = ((cr * pi_l + cl * pi_r) + (cl * cr) * (ul - ur)) / csum

    # h* from 1/h* = 1/h + jump/(c (c_l+c_r)), written without the double
    # reciprocal so equal input states reproduce h exactly.
    den_l = 1.0 + hl * ((cr * (ur - ul) + (pi_l - pi_r)) / (cl * csum))
    den_r = 1.0 + hr * ((cl * (ur - ul) + (pi_r - pi_l)) / (cr * csum))
    if not (ok := (den_l > 0) & (den_r > 0)).all():
        raise StarStateError.at("non-positive star depth", ~ok, c_l=cl, c_r=cr)
    h_l_star = hl / den_l
    h_r_star = hr / den_r

    ehat_l_star = l.ehat + (pi_star**2 - pi_l**2) / (2.0 * cl**2)
    ehat_r_star = r.ehat + (pi_star**2 - pi_r**2) / (2.0 * cr**2)

    states = (
        RelaxedState(hl, l.hu, l.w1, l.w2, l.hP, l.hE, cl),
        RelaxedState(
            h_l_star,
            h_l_star * u_star,
            l.w1,
            l.w2,
            h_l_star * pi_star,
            h_l_star * (u_star**2 / 2.0 + ehat_l_star),
            cl,
        ),
        RelaxedState(
            h_r_star,
            h_r_star * u_star,
            r.w1,
            r.w2,
            h_r_star * pi_star,
            h_r_star * (u_star**2 / 2.0 + ehat_r_star),
            cr,
        ),
        RelaxedState(hr, r.hu, r.w1, r.w2, r.hP, r.hE, cr),
    )
    stars = [project_state(st, params.zeta) for st in states[1:3]]
    fan = WaveFan(
        ul - cl / hl,
        u_star,
        ur + cr / hr,
        *states,
        left=l,
        right=r,
        proj=(l.proj, *stars, r.proj),
    )

    # Projected star conformations must stay strictly inside the admissible region.
    for proj in fan.proj[1:3]:
        trace = (proj[HSXX] + proj[HSZZ]) / proj[H]
        ok = (proj[HSXX] > 0) & (proj[HSZZ] > 0) & (trace < params.ell)
        if not ok.all():
            raise StarStateError.at("inadmissible star conformation", ~ok, c_l=cl, c_r=cr)

    if not (ok := (fan.s1 <= fan.s2) & (fan.s2 <= fan.s3)).all():
        raise StarStateError.at("unordered wave speeds", ~ok, c_l=cl, c_r=cr)

    # Single-valued star pressure: both one-sided expressions must agree.
    res = (pi_l + cl * (ul - u_star)) - (pi_r + cr * (u_star - ur))
    scale = np.maximum(
        np.maximum(np.abs(pi_l), np.abs(pi_r)),
        np.maximum(cl * np.abs(ul), cr * np.abs(ur)),
    )
    if not (ok := np.abs(res) <= STAR_PRESSURE_RTOL * scale + 1e-300).all():
        raise StarStateError.at("two-sided star pressure mismatch", ~ok, c_l=cl, c_r=cr)

    return fan


def _project(h, hu, w1, w2, zeta: float) -> np.ndarray:
    sxx = w1 * np.power(h, 2.0 * (zeta - 1.0))
    szz = w2 * np.power(h, 2.0 * (1.0 - zeta))
    return np.array([h, hu, h * sxx, h * szz])


def project_state(rs: RelaxedState, zeta: float) -> np.ndarray:
    """Project a relaxed state back to conserved variables via the invariants."""
    return _project(rs.h, rs.hu, rs.w1, rs.w2, zeta)


def interface_fluxes(fan: WaveFan) -> FluxPair:
    """Numerical fluxes of the simple solver built on the relaxed fan.

    f_left  = F0(q_l) + sum_k min(s_k, 0) * jump_k,
    f_right = F0(q_r) - sum_k max(s_k, 0) * jump_k,

    with F0 the sides' exact fluxes `fan.left.f`, `fan.right.f` and jumps
    taken between fan states projected to conserved variables.  The cell
    update only ever sees flux differences, so any consistent F0 gives the
    same scheme (a fan whose sides carry f = 0 exposes that).  Only the
    conformation components are one-sided: the conservative components
    (h, hu) take the algebraically identical central form 0.5*(F0_l + F0_r
    - sum_k |s_k| jump_k), shared verbatim by both outputs, which makes the
    scheme telescope exactly.

    Both outputs are fresh arrays, each sum accumulated in place in the
    association order written above.
    """
    proj = fan.proj
    s1, s2, s3 = fan.s1, fan.s2, fan.s3
    f0_l, f0_r = fan.left.f, fan.right.f
    f_left, f_right = np.empty_like(proj[1]), np.empty_like(proj[1])
    # Jumps d_k = proj[k] - proj[k-1] of two rows at a time, a weight per wave
    # and a scratch row pair, reused for the (h, hu) and the conformation rows.
    d1, d2, d3, tmp = np.empty((4, 2) + np.shape(s1))
    w = np.empty_like(s1)

    def jumps(rows):
        for d, k in ((d1, 1), (d2, 2), (d3, 3)):
            np.subtract(proj[k][rows], proj[k - 1][rows], out=d)

    # sum_k weight(s_k) d_k as (weight(s1) d1 + weight(s3) d3) + weight(s2) d2, into out
    def wave_sum(weight, out):
        np.multiply(weight(s1, w), d1, out=out)
        out += np.multiply(weight(s3, w), d3, out=tmp)
        out += np.multiply(weight(s2, w), d2, out=tmp)
        return out

    jumps(slice(None, 2))
    central = wave_sum(np.abs, f_left[:2])
    np.subtract(np.add(f0_l[:2], f0_r[:2], out=tmp), central, out=central)
    central *= 0.5
    f_right[:2] = central
    jumps(slice(2, None))
    left = wave_sum(lambda s, out: np.minimum(s, 0.0, out=out), f_left[2:])
    np.add(f0_l[2:], left, out=left)
    right = wave_sum(lambda s, out: np.maximum(s, 0.0, out=out), f_right[2:])
    np.subtract(f0_r[2:], right, out=right)
    return FluxPair(f_left, f_right)


def energy_flux(fan: WaveFan):
    """Free-energy flux across the interface: u (hE + pi) at the xi=0 fan state.

    The xi=0 state is the one between the waves of negative and non-negative
    speed; a wave of speed exactly 0 counts as lying right of the ray.
    Consistent with the exact entropy flux u (F + P) when both sides agree.
    """
    # The speeds are ordered, so s3 < 0 implies s2 < 0 implies s1 < 0.
    neg1, neg2, neg3 = fan.s1 < 0, fan.s2 < 0, fan.s3 < 0
    states = fan.states()

    def pick(name):
        a, b, c, d = (getattr(st, name) for st in states)
        return np.where(neg1, np.where(neg2, np.where(neg3, d, c), b), a)

    h = pick("h")
    return pick("hu") / h * (pick("hE") + pick("hpi") / h)


def subcharacteristic_monitor(fan: WaveFan, params: PhysParams):
    """Worst ratio h^2 (dP/dh) / c^2 over the four fan states.

    Values <= 1 certify the relaxed energy dominates the true one along the
    fan (the stability requirement); values > 1 are reported, not fatal.
    The outer states reuse the input sides' dP/dh.
    """
    cl, cr = fan.q_l.c, fan.q_r.c
    worst = np.maximum(
        fan.left.h**2 * fan.left.dPdh / cl**2, fan.right.h**2 * fan.right.dPdh / cr**2
    )
    for proj, c in ((fan.proj[1], cl), (fan.proj[2], cr)):
        p = primitive(proj)
        worst = np.maximum(worst, p.h**2 * dP_dh_frozen(p, params) / c**2)
    return worst


def reference_fan(l, r, x, params: PhysParams, strict_subchar: bool):
    """The fan of the interfaces between cells l and r and its ratio, the
    speeds doubled up to 3 times where the ratio is above 1 (strict_subchar)."""
    sp = relaxation_speeds(l, r)
    fan = star_states(l, r, sp, params)
    ratio = subcharacteristic_monitor(fan, params)
    if strict_subchar:
        for _ in range(3):
            bad = ratio > 1.0
            if not bad.any():
                break
            sp = SpeedPair(
                np.where(bad, 2.0 * sp.c_l, sp.c_l), np.where(bad, 2.0 * sp.c_r, sp.c_r)
            )
            fan = star_states(l, r, sp, params)
            ratio = subcharacteristic_monitor(fan, params)
        if (ratio > 1.0).any():
            raise SubcharacteristicViolation.at(
                "subcharacteristic ratio above 1 after 3 speed doublings", ratio > 1.0,
                worst=ratio, ratio=ratio, x=x,
            )
    return fan, ratio


def reference_fluxes(q: np.ndarray, grid, params: PhysParams, control):
    """(f_left, f_right, G, ratio, dt) at every interface of the padded
    cells of the admissible q, dt the CFL step (control.max_dt unset)."""
    padded = apply_boundary(q, control.bc)
    cells = _cell_state(padded, primitive(padded), params)
    fan, ratio = reference_fan(cells[:-1], cells[1:], grid.edges, params, control.strict_subchar)
    s_max = float(np.maximum(np.abs(fan.s1), np.abs(fan.s3)).max())
    dx = grid.dx
    dt = control.cfl * dx / s_max if s_max > 0 else np.inf
    if dt < control.dt_min_factor * dx:
        raise TimeStepCollapse(
            f"dt={dt!r} under collapse threshold {control.dt_min_factor * dx!r} (S_max={s_max!r})"
        )
    if not np.isfinite(dt):
        raise TimeStepCollapse("CFL produced a non-finite dt and no cap was given")
    pair = interface_fluxes(fan)
    return pair.f_left, pair.f_right, energy_flux(fan), ratio, np.float64(dt)
