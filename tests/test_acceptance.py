"""Acceptance battery.

One test per shipping criterion, at full sample sizes and the contractual
tolerances.  Each records a PASS/FAIL line printed in the terminal summary.
"""

import dataclasses

import numpy as np
import pytest

from fenepsv.model import (
    H,
    HSXX,
    HSZZ,
    HU,
    PhysParams,
    dP_dh_frozen,
    dissipation_rate,
    equilibrium_sigma,
    free_energy,
    primitive,
)
from fenepsv.oracles import (
    exact_sw_dam_break,
    fd_dP_dh,
    newton_source_2x2,
    rh_residuals,
    sample_states,
)
from fenepsv.riemann import (
    FLUX,
    cell_state,
    interface_fluxes,
    relaxation_speeds,
    side_pair,
    star_states,
)
from fenepsv.scenarios import preset_dam_break, preset_smooth_wave, initial_condition, run
from fenepsv.timeloop import Grid, SimState, StepControl, full_step, relax_conformations

SEED = 0x5EED

GRID_ELLS = (3.0, 10.0, 100.0, 1e4)


def params_for(ell, zeta=0.0):
    return PhysParams(g=10.0, G=0.1, lam=0.1, zeta=zeta, ell=ell)


def fluxes(q_l, q_r, params):
    """(f, fan): f[0] = f_left and f[1] = f_right."""
    sides = side_pair(cell_state(q_l, params), cell_state(q_r, params))
    fan = star_states(sides, relaxation_speeds(sides), params)
    return interface_fluxes(fan), fan


def test_eos_battery(acceptance_record):
    """Dissipation sign, free-energy convexity, closed-form pressure slope."""
    rng = np.random.default_rng(SEED)
    n_sign = 100_000
    n_fd = 1000
    worst_d = -np.inf
    convex_viol = 0
    worst_fd = 0.0
    for ell in GRID_ELLS:
        for zeta in (0.0, 0.25, 0.5):
            params = params_for(ell, zeta)
            share = n_sign // 12
            p = sample_states(params, share, rng)
            worst_d = max(worst_d, float(np.max(dissipation_rate(p, params))))

            half = share // 2
            p1 = sample_states(params, half, rng)
            p2 = sample_states(params, half, rng)
            qm = 0.5 * (p1.conserved() + p2.conserved())
            f1, f2 = free_energy(p1, params), free_energy(p2, params)
            fm = free_energy(primitive(qm), params)
            convex_viol += int(np.sum(fm - 0.5 * (f1 + f2) > 1e-12 * (np.abs(f1) + np.abs(f2))))

            pf = sample_states(params, n_fd // 12 + 1, rng)
            rel = np.abs(fd_dP_dh(pf, params) - dP_dh_frozen(pf, params)) / np.abs(
                dP_dh_frozen(pf, params)
            )
            worst_fd = max(worst_fd, float(np.max(rel)))
    ok = worst_d <= 0.0 and convex_viol == 0 and worst_fd <= 1e-6
    acceptance_record(
        "eos-battery",
        ok,
        f"max D = {worst_d:.3e} (<= 0), convexity violations = {convex_viol}/~100k, "
        f"dP/dh vs FD rel = {worst_fd:.3e} (tol 1e-6)",
    )
    assert worst_d <= 0.0
    assert convex_viol == 0
    assert worst_fd <= 1e-6


def test_riemann_battery(acceptance_record):
    """10^5 random pairs across the parameter grid: fan well-posedness."""
    rng = np.random.default_rng(SEED + 1)
    per = 100_000 // (len(GRID_ELLS) * 3)
    worst_pi = 0.0
    worst_rh = 0.0
    worst_gap = 0.0
    flux_shared = True
    worst_f0 = 0.0
    ordering_ok = True
    cond1_ok = True
    for ell in GRID_ELLS:
        for zeta in (0.0, 0.25, 0.5):
            params = params_for(ell, zeta)
            q_l = sample_states(params, per, rng).conserved()
            q_r = sample_states(params, per, rng).conserved()
            sides = side_pair(cell_state(q_l, params), cell_state(q_r, params))
            c_l, c_r = sp = relaxation_speeds(sides)
            # subcharacteristic baseline on both input states, strictly
            for q, c in ((q_l, c_l), (q_r, c_r)):
                a = np.sqrt(dP_dh_frozen(primitive(q), params))
                cond1_ok &= bool(np.all(c >= q[H] * a * (1.0 - 1e-14)))
            fan = star_states(sides, sp, params)  # raises on any positivity loss
            ordering_ok &= bool(np.all((fan.s1 <= fan.s2) & (fan.s2 <= fan.s3)))

            from fenepsv.model import total_pressure

            pl, pr = primitive(q_l), primitive(q_r)
            pi_l, pi_r = total_pressure(pl, params), total_pressure(pr, params)
            lhs = pi_l + c_l * (pl.u - fan.s2)
            rhs = pi_r + c_r * (fan.s2 - pr.u)
            scale = np.maximum.reduce(
                [np.abs(pi_l), np.abs(pi_r), c_l * np.abs(pl.u), c_r * np.abs(pr.u)]
            )
            worst_pi = max(worst_pi, float(np.max(np.abs(lhs - rhs) / (scale + 1e-300))))

            rep = rh_residuals(fan)
            worst_rh = max(worst_rh, rep.max_residual())
            worst_gap = max(worst_gap, rep.transport_gap)

            f_left, f_right = interface_fluxes(fan)
            flux_shared &= bool(np.array_equal(f_left[:2], f_right[:2]))

            zero_f0 = sides.copy()
            zero_f0[FLUX] = 0.0
            pz_left, _ = interface_fluxes(dataclasses.replace(fan, sides=zero_f0))
            f0l, f0r = sides[FLUX, 0], sides[FLUX, 1]
            recon = np.concatenate([0.5 * (f0l[:2] + f0r[:2]) + pz_left[:2], f0l[2:] + pz_left[2:]])
            scale_f = np.abs(f_left) + np.abs(f0l) + np.abs(f0r) + 1.0
            worst_f0 = max(worst_f0, float(np.max(np.abs(f_left - recon) / scale_f)))
    ok = (
        cond1_ok
        and ordering_ok
        and worst_pi <= 1e-10
        and worst_rh <= 1e-10
        and worst_gap == 0.0
        and flux_shared
        and worst_f0 <= 1e-13
    )
    acceptance_record(
        "riemann-battery",
        ok,
        f"100k pairs: positivity+admissibility by construction, ordering {ordering_ok}, "
        f"speed baseline {cond1_ok}, pi* two-sided {worst_pi:.2e} (1e-10), "
        f"RH {worst_rh:.2e} (1e-10), transport gap {worst_gap:.1e}, "
        f"conservative flux shared {flux_shared}, f0-independence {worst_f0:.2e} (1e-13)",
    )
    assert ok


def test_source_battery(acceptance_record):
    """Implicit relaxation vs the coupled 2x2 Newton oracle, 10^4 pairs."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    total = 0
    for ell in GRID_ELLS:
        params = params_for(ell)
        for expo in (-4.0, -2.0, 0.0, 2.0):
            p = sample_states(params, 10_000 // 16, rng)
            dt = params.lam * 10.0**expo
            got = relax_conformations(p.sxx, p.szz, dt, params)
            want = newton_source_2x2(p.sxx, p.szz, dt, params)
            for a, b in zip(got, want):
                worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
            total += p.h.size
    # stiff limit: dt/lambda -> infinity lands on the equilibrium conformation
    params = params_for(10.0)
    p = sample_states(params, 2000, rng)
    se = float(equilibrium_sigma(params))
    sxx, szz = relax_conformations(p.sxx, p.szz, 1e15, params)
    limit_err = float(max(np.max(np.abs(sxx - se)), np.max(np.abs(szz - se))))
    ok = worst <= 1e-10 and limit_err <= 1e-10
    acceptance_record(
        "source-battery",
        ok,
        f"{total} pairs across dt/lambda in 1e-4..1e2: max rel diff {worst:.2e} (tol 1e-10); "
        f"stiff limit error {limit_err:.2e} (tol 1e-10)",
    )
    assert ok


def test_exact_dam_break_accuracy(acceptance_record):
    """G = 0 dam break vs the exact solution: L1 error and observed order."""
    params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
    base = dataclasses.replace(preset_dam_break(10.0), params=params)
    errors = {}
    for n in (128, 256, 512, 1024):
        res = run(dataclasses.replace(base, cells=n, snapshots=1))
        h_ref, _ = exact_sw_dam_break(1.0, 0.1, 10.0, res.grid.centers - 0.5, 0.1)
        errors[n] = float(np.sum(np.abs(res.state.q[H] - h_ref) * res.grid.dx))
    order = float(np.log2(errors[128] / errors[1024]) / 3.0)
    ok = errors[1024] <= 0.01 and order >= 0.7
    acceptance_record(
        "exact-dam-break",
        ok,
        f"L1(h) at 1024 cells = {errors[1024]:.4e} (tol 1e-2), "
        f"order 128->1024 = {order:.3f} (>= 0.7)",
    )
    assert errors[1024] <= 0.01
    assert order >= 0.7


def test_conservation_periodic(acceptance_record):
    """Mass and momentum drift over 10^3 periodic steps stays at roundoff."""
    cfg = preset_smooth_wave(10.0, cells=128)
    grid = Grid.uniform(cfg.x_min, cfg.x_max, cfg.cells)
    q0 = initial_condition(cfg, grid)
    state = SimState(0.0, q0)
    control = StepControl(bc="periodic")
    mass0 = float(np.sum(q0[H] * grid.dx))
    mom0 = float(np.sum(q0[HU] * grid.dx))
    scale_m = max(1.0, abs(mom0))
    worst_mass = 0.0
    worst_mom = 0.0
    for _ in range(1000):
        state, diag = full_step(state, grid, cfg.params, control)
        worst_mass = max(worst_mass, abs(diag.mass - mass0) / mass0)
        worst_mom = max(worst_mom, abs(diag.momentum - mom0) / scale_m)
    ok = worst_mass <= 1e-12 and worst_mom <= 1e-12
    acceptance_record(
        "conservation-periodic",
        ok,
        f"1000 steps: mass drift {worst_mass:.2e}, momentum drift {worst_mom:.2e} (tol 1e-12)",
    )
    assert ok


def test_production_runs(acceptance_record):
    """Three dam-break runs: audit clean, stretch grows with extensibility."""
    stretch = {}
    clean = True
    min_dt = np.inf
    for ell in (10.0, 100.0, 1000.0):
        res = run(preset_dam_break(ell))
        clean &= res.dissipation_violations == 0
        min_dt = min(min_dt, res.min_dt)
        p = res.final_primitive()
        stretch[ell] = float(np.max(p.sxx + p.szz))
        assert res.state.t == 0.1
    ordered = stretch[10.0] < stretch[100.0] < stretch[1000.0]
    ok = clean and ordered and min_dt > 1e-6
    acceptance_record(
        "production-runs",
        ok,
        f"violations 0: {clean}; max stretch {stretch[10.0]:.3f} < {stretch[100.0]:.3f} "
        f"< {stretch[1000.0]:.3f}: {ordered}; min dt {min_dt:.3e} (> 1e-6)",
    )
    assert ok


def test_mirror_bit_exactness(acceptance_record):
    """Mirrored fluxes and a mirrored 50-step evolution agree bitwise."""
    rng = np.random.default_rng(SEED + 3)
    flux_ok = True
    for ell in GRID_ELLS:
        params = params_for(ell)
        q_l = sample_states(params, 10_000 // 4, rng).conserved()
        q_r = sample_states(params, 10_000 // 4, rng).conserved()
        (f_left, f_right), fan = fluxes(q_l, q_r, params)
        ml = np.array([q_r[H], -q_r[HU], q_r[HSXX], q_r[HSZZ]])
        mr = np.array([q_l[H], -q_l[HU], q_l[HSXX], q_l[HSZZ]])
        (mf_left, mf_right), mfan = fluxes(ml, mr, params)
        sign = np.array([-1.0, 1.0, -1.0, -1.0])[:, None]
        flux_ok &= bool(
            np.array_equal(mf_left, sign * f_right)
            and np.array_equal(mf_right, sign * f_left)
            and np.array_equal(np.asarray(mfan.s2), -np.asarray(fan.s2))
        )

    n = 128
    grid = Grid.uniform(0.0, 1.0, n)
    h = np.where(np.arange(n) < n // 2, 1.0, 0.1)
    q = np.array([h, np.zeros(n), h, h])
    state_f = SimState(0.0, q)
    state_m = SimState(0.0, np.array([h[::-1], np.zeros(n), h[::-1], h[::-1]]))
    control = StepControl()
    for _ in range(50):
        state_f, _ = full_step(state_f, grid, params_for(10.0), control)
        state_m, _ = full_step(state_m, grid, params_for(10.0), control)
    evo_ok = (
        np.array_equal(state_m.q[H], state_f.q[H, ::-1])
        and np.array_equal(state_m.q[HU], -state_f.q[HU, ::-1])
        and np.array_equal(state_m.q[HSXX], state_f.q[HSXX, ::-1])
        and np.array_equal(state_m.q[HSZZ], state_f.q[HSZZ, ::-1])
    )
    ok = flux_ok and evo_ok
    acceptance_record(
        "mirror-bit-exactness",
        ok,
        f"10k mirrored flux pairs bitwise: {flux_ok}; mirrored 50-step evolution bitwise: {evo_ok}",
    )
    assert ok


def test_determinism(acceptance_record, tmp_path):
    """Two identical runs produce byte-identical CSV artifacts."""
    outs = []
    for name in ("first", "second"):
        cfg = preset_dam_break(10.0, cells=64, t_end=0.02, outdir=str(tmp_path / name))
        run(cfg)
        outs.append(tmp_path / name)
    identical = True
    compared = 0
    for f in sorted(outs[0].iterdir()):
        if f.suffix == ".csv":
            identical &= f.read_bytes() == (outs[1] / f.name).read_bytes()
            compared += 1
    ok = identical and compared >= 12  # 11 snapshots + diagnostics
    acceptance_record(
        "determinism",
        ok,
        f"{compared} CSV files byte-identical across reruns: {identical}",
    )
    assert ok
