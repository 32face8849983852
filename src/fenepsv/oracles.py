"""Independent verification oracles.

Each oracle derives its expected value through a different route than the
production code (finite differences instead of the closed-form derivative, a
coupled 2x2 Newton instead of the scalar trace reduction, Rankine-Hugoniot
residuals instead of the closed-form fan, the classical exact dam-break
solution instead of any numerics).  `run_all_checks` drives the full battery
with fixed seeds and returns machine-readable reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import riemann
from .model import (
    PhysParams,
    Primitive,
    dP_dh_frozen,
    dissipation_rate,
    free_energy,
    is_admissible,
    normal_stress,
    primitive,
    total_pressure,
)
from .timeloop import relax_conformations

__all__ = [
    "OracleError",
    "OracleReport",
    "sample_states",
    "fd_dP_dh",
    "newton_source_2x2",
    "rh_residuals",
    "RHReport",
    "sw_dam_break_structure",
    "exact_sw_dam_break",
    "convexity_sampler",
    "run_all_checks",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED


class OracleError(RuntimeError):
    """An oracle could not produce a trustworthy expected value."""


@dataclass
class OracleReport:
    name: str
    samples: int
    max_rel_error: float
    tol: float
    passed: bool
    details: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        # keep the report JSON-serializable regardless of numpy scalar types
        self.samples = int(self.samples)
        self.max_rel_error = float(self.max_rel_error)
        self.tol = float(self.tol)
        self.passed = bool(self.passed)
        self.details = {
            k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v) if np.isscalar(v) else v)
            for k, v in self.details.items()
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: samples={self.samples} "
            f"max_rel_error={self.max_rel_error:.3e} tol={self.tol:.1e} {status}"
        )


def sample_states(params: PhysParams, n: int, rng: np.random.Generator) -> Primitive:
    """Random admissible states spanning depth ratios of 1e4 and near-bound traces.

    h ~ 10^U(-2,2), u ~ U(-10,10), trace ~ U(0.01 ell, 0.95 ell) split by a
    ratio U(0.05, 0.95) between the two components.
    """
    h = 10.0 ** rng.uniform(-2.0, 2.0, n)
    u = rng.uniform(-10.0, 10.0, n)
    s = rng.uniform(0.01 * params.ell, 0.95 * params.ell, n)
    r = rng.uniform(0.05, 0.95, n)
    return Primitive(h, u, r * s, (1.0 - r) * s)


def _pressure_direct(h, sxx, szz, params: PhysParams):
    # Written out locally so the oracle shares nothing with the model module.
    return params.g * h * h / 2.0 + params.G * h * (szz - sxx) / (1.0 - (sxx + szz) / params.ell)


def fd_dP_dh(p: Primitive, params: PhysParams, step_fraction: float = 1e-6):
    """Finite-difference dP/dh along the frozen-invariant compression path.

    Central differences at two step sizes combined by one Richardson
    extrapolation; accurate to ~1e-8 relative on well-scaled states, checked
    against the closed form at 1e-6.
    """
    zeta, ell = params.zeta, params.ell
    w1 = p.sxx * np.power(p.h, 2.0 * (1.0 - zeta))
    w2 = p.szz * np.power(p.h, 2.0 * (zeta - 1.0))

    def P_of(h):
        sxx = w1 * np.power(h, 2.0 * (zeta - 1.0))
        szz = w2 * np.power(h, 2.0 * (1.0 - zeta))
        if not np.all((h > 0) & (sxx + szz < ell)):
            raise OracleError(
                "finite-difference step left the admissible region; "
                "reduce step_fraction or move the state off the boundary"
            )
        return _pressure_direct(h, sxx, szz, params)

    d = step_fraction * p.h
    coarse = (P_of(p.h + d) - P_of(p.h - d)) / (2.0 * d)
    fine = (P_of(p.h + 0.5 * d) - P_of(p.h - 0.5 * d)) / d
    return (4.0 * fine - coarse) / 3.0


def newton_source_2x2(sxx0, szz0, dt: float, params: PhysParams):
    """Coupled 2x2 damped Newton solve of the implicit relaxation equations.

    Solves (sigma - sigma0)/r = 1 - sigma/Q for both components jointly,
    Q = 1 - (sxx+szz)/ell, r = dt/lam, never leaving the admissible region.
    Independent of the production scalar-trace reduction.
    """
    if dt == 0.0:
        return sxx0, szz0
    ell = params.ell
    r = dt / params.lam
    x1 = np.asarray(sxx0, dtype=float).copy()
    x2 = np.asarray(szz0, dtype=float).copy()
    tol = 1e-13 * (2.0 + ell / r)

    def residual(a, b):
        Q = 1.0 - (a + b) / ell
        return (a - sxx0) / r - (1.0 - a / Q), (b - szz0) / r - (1.0 - b / Q)

    r1, r2 = residual(x1, x2)
    for _ in range(200):
        norm = np.maximum(np.abs(r1), np.abs(r2))
        active = norm > tol
        if not np.any(active):
            break
        Q = 1.0 - (x1 + x2) / ell
        base = 1.0 / r + 1.0 / Q
        j11 = base + x1 / (ell * Q * Q)
        j12 = x1 / (ell * Q * Q)
        j21 = x2 / (ell * Q * Q)
        j22 = base + x2 / (ell * Q * Q)
        det = j11 * j22 - j12 * j21
        d1 = (r1 * j22 - r2 * j12) / det
        d2 = (r2 * j11 - r1 * j21) / det
        step = np.where(active, 1.0, 0.0)
        for _ in range(60):
            c1 = x1 - step * d1
            c2 = x2 - step * d2
            n1, n2 = residual(np.maximum(c1, 1e-306), np.maximum(c2, 1e-306))
            bad = active & (
                (c1 <= 0) | (c2 <= 0) | (c1 + c2 >= ell)
                | (np.maximum(np.abs(n1), np.abs(n2)) > norm)
            )
            if not np.any(bad):
                break
            step = np.where(bad, 0.5 * step, step)
        x1 = x1 - step * d1
        x2 = x2 - step * d2
        r1, r2 = residual(x1, x2)
    else:
        raise OracleError("2x2 Newton failed to converge in 200 iterations")
    return x1, x2


@dataclass
class RHReport:
    """Rankine-Hugoniot residuals of a fan, normalized per wave and component.

    residuals has shape (3, 4, ...): waves x components (h, hu, hpi, hE).
    transport_gap is the largest jump of (w1, w2, c) across the outer waves,
    which must be exactly zero.
    """

    residuals: np.ndarray
    transport_gap: float

    def max_residual(self) -> float:
        return float(np.max(self.residuals))


@dataclass
class _RelaxedState:
    """One constant state of the relaxed system: depth h, momentum hu, the
    transported invariants w1 and w2, relaxed pressure weighted by depth hpi,
    total energy hE and the frozen Lagrangian speed c."""

    h: np.ndarray
    hu: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    hpi: np.ndarray
    hE: np.ndarray
    c: np.ndarray


def _fan_states(fan: riemann.WaveFan):
    """The four relaxed states of the fan, in fan order (q_l, q_l*, q_r*, q_r).

    The outer states are the sides' cells, with hpi = h P and
    hE = h (u^2/2 + ehat); each star state carries the depth and momentum
    of its projected row, its own hpi and hE, and the w1, w2 and c of its
    side.
    """
    sides, star = fan.sides, fan.star
    outer, stars = [], []
    for k in (0, 1):
        h = sides[riemann.H, k]
        transported = (sides[riemann.W1, k], sides[riemann.W2, k])
        hE = h * (sides[riemann.U, k] ** 2 / 2.0 + sides[riemann.EHAT, k])
        outer.append(_RelaxedState(h, sides[riemann.HU, k], *transported,
                                   h * sides[riemann.P, k], hE, fan.c[k]))
        stars.append(_RelaxedState(star[riemann.H, k], star[riemann.HU, k], *transported,
                                   fan.hpi[k], fan.hE[k], fan.c[k]))
    return outer[0], stars[0], stars[1], outer[1]


def rh_residuals(fan: riemann.WaveFan) -> RHReport:
    """Verify the fan is an exact weak solution of the relaxed system.

    For each wave, s*[q] - [flux(q)] is formed for the conserved relaxed
    components.  The hpi flux carries the u c^2 contribution across the outer
    waves, where c is single-valued; across the contact the velocity is
    continuous, so that contribution drops and hpi obeys pure transport.
    """
    states = _fan_states(fan)
    speeds = fan.s
    rows = []
    for k in range(3):
        L, R = states[k], states[k + 1]
        s = speeds[k]
        contact = k == 1
        row = []
        for comp in ("h", "hu", "hpi", "hE"):
            qL, qR = getattr(L, comp), getattr(R, comp)
            fL, fR = _relaxed_flux(L, comp, contact), _relaxed_flux(R, comp, contact)
            res = s * (qR - qL) - (fR - fL)
            scale = np.abs(s) * np.maximum(np.abs(qL), np.abs(qR)) + np.maximum(
                np.abs(fL), np.abs(fR)
            )
            row.append(np.abs(res) / (scale + 1e-300))
        rows.append(np.stack(row))
    gap = 0.0
    for L, R in ((states[0], states[1]), (states[2], states[3])):
        for comp in ("w1", "w2", "c"):
            gap = max(gap, float(np.max(np.abs(getattr(R, comp) - getattr(L, comp)))))
    return RHReport(np.stack(rows), gap)


def _relaxed_flux(st: _RelaxedState, comp: str, contact: bool):
    u = st.hu / st.h
    pi = st.hpi / st.h
    if comp == "h":
        return st.hu
    if comp == "hu":
        return st.hu * u + pi
    if comp == "hpi":
        return st.hu * pi if contact else st.hu * pi + u * st.c**2
    if comp == "hE":
        return u * (st.hE + pi)
    raise ValueError(comp)


def sw_dam_break_structure(h_l: float, h_r: float, g: float):
    """Wave structure (h_m, u_m, shock_speed, head, tail) of the dam break.

    The intermediate depth solves

        2 (sqrt(g h_l) - sqrt(g h_m)) = (h_m - h_r) sqrt(g/2 (1/h_m + 1/h_r))

    by bracketed Newton to ~1e-13 relative.
    """
    if not (h_l > h_r > 0):
        raise ValueError(f"need h_l > h_r > 0, got h_l={h_l}, h_r={h_r}")
    c_l = np.sqrt(g * h_l)

    def f_and_fp(hm):
        phi = np.sqrt(0.5 * g * (1.0 / hm + 1.0 / h_r))
        f = 2.0 * (c_l - np.sqrt(g * hm)) - (hm - h_r) * phi
        fp = -np.sqrt(g / hm) - phi + (hm - h_r) * g / (4.0 * phi * hm * hm)
        return f, fp

    lo, hi = h_r, h_l
    hm = 0.5 * (h_r + h_l)
    ftol = 1e-13 * max(1.0, 2.0 * c_l)
    for _ in range(200):
        f, fp = f_and_fp(hm)
        if abs(f) <= ftol:
            break
        if f > 0:
            lo = hm
        else:
            hi = hm
        step = hm - f / fp
        hm = step if lo < step < hi else 0.5 * (lo + hi)
    else:
        raise OracleError("dam-break depth equation failed to converge")

    c_m = np.sqrt(g * hm)
    u_m = 2.0 * (c_l - c_m)
    shock = (hm * u_m) / (hm - h_r)  # mass jump condition
    return hm, u_m, shock, -c_l, u_m - c_m


def exact_sw_dam_break(h_l: float, h_r: float, g: float, x, t: float):
    """Exact shallow-water dam break (rarefaction + shock), fluid at rest.

    Requires h_l >= h_r > 0; dam at x = 0.  Returns (h, u) sampled at x for
    time t.
    """
    if not (h_l >= h_r > 0):
        raise ValueError(f"need h_l >= h_r > 0, got h_l={h_l}, h_r={h_r}")
    x = np.asarray(x, dtype=float)
    if h_l == h_r or t == 0.0:
        return np.where(x <= 0, h_l, float(h_r)), np.zeros_like(x)

    hm, u_m, shock, head, tail = sw_dam_break_structure(h_l, h_r, g)
    c_l = np.sqrt(g * h_l)
    xi = x / t
    h_fan = ((2.0 * c_l - xi) / 3.0) ** 2 / g
    u_fan = 2.0 * (xi + c_l) / 3.0
    h = np.where(
        xi <= head, h_l, np.where(xi < tail, h_fan, np.where(xi < shock, hm, h_r))
    )
    u = np.where(
        xi <= head, 0.0, np.where(xi < tail, u_fan, np.where(xi < shock, u_m, 0.0))
    )
    return h, u


def convexity_sampler(params: PhysParams, samples: int, rng: np.random.Generator) -> OracleReport:
    """Midpoint convexity of F in conserved variables + the gradient identity.

    For random admissible pairs, F((q1+q2)/2) <= (F(q1)+F(q2))/2 must hold
    (the admissible region is convex in conserved variables, so midpoints are
    always testable).  Independently, grad_sigma F . source = D is verified
    with a locally written gradient.
    """
    p1 = sample_states(params, samples, rng)
    p2 = sample_states(params, samples, rng)
    p_mid = primitive(0.5 * (p1.conserved() + p2.conserved()))
    if not np.all(is_admissible(p_mid, params)):
        raise OracleError("midpoint left the admissible region; sampler is broken")
    f1 = free_energy(p1, params)
    f2 = free_energy(p2, params)
    fm = free_energy(p_mid, params)
    gap = fm - 0.5 * (f1 + f2)
    allow = 1e-12 * (np.abs(f1) + np.abs(f2))
    violations = int(np.sum(gap > allow))

    # gradient identity: dF/dsxx * S_xx + dF/dszz * S_zz == D
    p = sample_states(params, samples, rng)
    Q = 1.0 - (p.sxx + p.szz) / params.ell
    pref = p.h * params.G / (2.0 * (1.0 - params.zeta))
    dF_dsxx = pref * (1.0 / Q - 1.0 / p.sxx)
    dF_dszz = pref * (1.0 / Q - 1.0 / p.szz)
    S_xx = (1.0 - p.sxx / Q) / params.lam
    S_zz = (1.0 - p.szz / Q) / params.lam
    lhs = dF_dsxx * S_xx + dF_dszz * S_zz
    rhs = dissipation_rate(p, params)
    rel = np.max(np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300))
    passed = violations == 0 and rel <= 1e-10
    return OracleReport(
        name="convexity_and_gradient",
        samples=2 * samples,
        max_rel_error=float(rel),
        tol=1e-10,
        passed=bool(passed),
        details={"midpoint_violations": violations, "max_midpoint_gap": float(np.max(gap))},
    )


# ---------------------------------------------------------------------------
# Batteries used by the `check` command (and mirrored by the test suite).

_PARAM_GRID = tuple(
    PhysParams(g=10.0, G=0.1, lam=0.1, zeta=z, ell=l)
    for l in (3.0, 10.0, 100.0, 1e4)
    for z in (0.0, 0.25, 0.5)
)


def _check_fd_dP_dh(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for params in _PARAM_GRID:
        p = sample_states(params, samples, rng)
        approx = fd_dP_dh(p, params)
        exact = dP_dh_frozen(p, params)
        worst = max(worst, float(np.max(np.abs(approx - exact) / np.abs(exact))))
        total += samples
    return OracleReport("fd_dP_dh", total, worst, 1e-6, worst <= 1e-6)


def _check_source(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for ell in (3.0, 10.0, 1000.0):
        params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=ell)
        p = sample_states(params, samples, rng)
        dts = params.lam * 10.0 ** rng.uniform(-4, 2)
        got = relax_conformations(p.sxx, p.szz, float(dts), params)
        want = newton_source_2x2(p.sxx, p.szz, float(dts), params)
        for a, b in zip(got, want):
            worst = max(worst, float(np.max(np.abs(a - b) / (np.abs(b) + 1e-300))))
        total += samples
    return OracleReport("newton_source_2x2", total, worst, 1e-10, worst <= 1e-10)


def _random_pairs(params: PhysParams, n: int, rng: np.random.Generator):
    q_l = sample_states(params, n, rng).conserved()
    q_r = sample_states(params, n, rng).conserved()
    return q_l, q_r


def _fan_under_test(q_l: np.ndarray, q_r: np.ndarray, params: PhysParams):
    """Speeds (c_l, c_r) and fan of the production solver for the pairs (q_l, q_r)."""
    sides = riemann.side_pair(riemann.cell_state(q_l, params), riemann.cell_state(q_r, params))
    c = riemann.relaxation_speeds(sides)
    return c, riemann.star_states(sides, c, params)  # raises on any violation


def _check_rh(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    gap = 0.0
    total = 0
    for params in _PARAM_GRID:
        q_l, q_r = _random_pairs(params, samples, rng)
        _, fan = _fan_under_test(q_l, q_r, params)
        rep = rh_residuals(fan)
        worst = max(worst, rep.max_residual())
        gap = max(gap, rep.transport_gap)
        total += samples
    passed = worst <= 1e-10 and gap == 0.0
    return OracleReport(
        "rh_residuals", total, worst, 1e-10, passed, {"transport_gap": gap}
    )


def _check_sw_exact(seed: int, samples: int) -> OracleReport:
    g, h_l, h_r = 10.0, 1.0, 0.1
    hm, um, S, head, tail = sw_dam_break_structure(h_l, h_r, g)
    # independent check: momentum jump condition across the shock (the depth
    # equation only used the mass condition and the rarefaction invariant)
    mom_res = abs((hm * um * um + 0.5 * g * hm * hm) - 0.5 * g * h_r * h_r - S * (hm * um))
    rel = mom_res / (0.5 * g * h_l * h_l)
    x = np.linspace(-0.5, 0.5, 1001)
    h, u = exact_sw_dam_break(h_l, h_r, g, x, 0.1)
    monotone = bool(np.all(np.diff(h) <= 1e-12))
    ordered = head < tail < S and h_r < hm < h_l and 0 < um
    passed = rel <= 1e-10 and monotone and ordered
    return OracleReport(
        "exact_sw_dam_break",
        x.size,
        float(rel),
        1e-10,
        passed,
        {"h_m": hm, "shock_speed": S, "monotone_h": monotone},
    )


def _check_convexity(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    violations = 0
    total = 0
    passed = True
    for params in _PARAM_GRID:
        rep = convexity_sampler(params, samples, rng)
        worst_rel = max(worst_rel, rep.max_rel_error)
        violations += rep.details["midpoint_violations"]
        total += rep.samples
        passed &= rep.passed
    return OracleReport(
        "convexity_and_gradient",
        total,
        worst_rel,
        1e-10,
        passed,
        {"midpoint_violations": violations},
    )


def _check_fan_battery(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst_pi = 0.0
    total = 0
    ok = True
    for params in _PARAM_GRID:
        q_l, q_r = _random_pairs(params, samples, rng)
        (c_l, c_r), fan = _fan_under_test(q_l, q_r, params)
        pl, pr = primitive(q_l), primitive(q_r)
        pi_l = total_pressure(pl, params)
        pi_r = total_pressure(pr, params)
        lhs = pi_l + c_l * (pl.u - fan.s2)
        rhs = pi_r + c_r * (fan.s2 - pr.u)
        scale = np.maximum.reduce(
            [np.abs(pi_l), np.abs(pi_r), c_l * np.abs(pl.u), c_r * np.abs(pr.u)]
        )
        worst_pi = max(worst_pi, float(np.max(np.abs(lhs - rhs) / (scale + 1e-300))))
        ok &= bool(np.all((fan.s1 <= fan.s2) & (fan.s2 <= fan.s3)))
        f_left, f_right = riemann.interface_fluxes(fan)
        ok &= bool(np.array_equal(f_left[:2], f_right[:2]))
        total += samples
    return OracleReport(
        "riemann_fan_battery", total, worst_pi, 1e-10, ok and worst_pi <= 1e-10
    )


def _check_signs(seed: int, samples: int) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    total = 0
    for params in _PARAM_GRID:
        p = sample_states(params, samples, rng)
        d = dissipation_rate(p, params)
        worst = max(worst, float(np.max(d)))
        n = normal_stress(p, params)
        ok &= bool(np.all(np.sign(n) == np.sign(params.G * (p.szz - p.sxx))))
        total += samples
    passed = ok and worst <= 0.0
    return OracleReport("dissipation_sign", total, max(worst, 0.0), 0.0, passed)


def run_all_checks(seed: int = DEFAULT_SEED, samples: int = 2000) -> list[OracleReport]:
    """Run every oracle with deterministic seeding; returns one report each."""
    checks = (
        _check_fd_dP_dh,
        _check_source,
        _check_rh,
        _check_sw_exact,
        _check_convexity,
        _check_fan_battery,
        _check_signs,
    )
    return [fn(seed + i, samples) for i, fn in enumerate(checks)]
