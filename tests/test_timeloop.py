"""Splitting scheme: boundaries, CFL, transport, source, audit."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fenepsv.model as model_mod
import fenepsv.riemann as riemann_mod
import fenepsv.timeloop as timeloop_mod
from fenepsv.model import (
    H,
    HSXX,
    HSZZ,
    HU,
    AdmissibilityError,
    NonHyperbolicError,
    PhysParams,
    Primitive,
    SolverError,
    _column_runs,
    _dissipation_rate,
    _free_energy,
    _internal_energy,
    _stress_terms,
    _total_pressure,
    dissipation_rate,
    dP_dh_frozen,
    equilibrium_sigma,
    free_energy,
    internal_energy,
    normal_stress,
    primitive,
    require_admissible,
    total_pressure,
)
from fenepsv.oracles import newton_source_2x2, sample_states
from fenepsv.riemann import (
    StarStateError,
    _cell_state,
    _w_bounds,
    cell_state,
    interface_fluxes,
    interface_sides,
    relaxation_speeds,
    side_pair,
    star_states,
    w_bounds,
)
from fenepsv.scenarios import initial_condition, preset_dam_break, preset_smooth_wave, run
from fenepsv.timeloop import (
    DissipationViolation,
    Grid,
    SimState,
    SourceSolveFailure,
    StepControl,
    SubcharacteristicViolation,
    TimeStepCollapse,
    _fluxes,
    _runs,
    apply_boundary,
    cfl_dt,
    full_step,
    relax_conformations,
    source_step,
)

P10 = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=10.0)


def dam_break_state(n=64, params=P10):
    h = np.where(np.arange(n) < n // 2, 1.0, 0.1)
    q = np.array([h, np.zeros(n), h * 1.0, h * 1.0])
    return SimState(0.0, q)


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(0.0, 1.0, 4)
        assert g.n == 4
        assert np.allclose(g.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(g.dx, 0.25)

    def test_widths_and_centers_computed_once_and_read_only(self):
        # One width, a Python float, whatever the types of the bounds and the
        # count; the edges are np.linspace's, whose widths may differ from dx
        # by rounding.
        g = Grid.uniform(np.float64(-0.3), np.float64(0.7), np.int64(300))
        assert type(g.dx) is float and g.dx == (0.7 - -0.3) / 300
        assert np.array_equal(g.edges, np.linspace(-0.3, 0.7, 301))
        assert g.centers is g.centers and g.edges is g.edges
        with pytest.raises(ValueError):
            g.edges[0] = 1.0
        with pytest.raises(ValueError):
            g.centers[0] = 1.0

    def test_rejects_nonmonotone(self):
        # A width that is not a positive finite float: a reversed domain, one
        # whose width overflows and one whose cell width underflows to 0.  A
        # subnormal width, two units of the smallest subnormal here, whose n
        # widths miss the domain by 1.2%.  And a positive width under the
        # spacing of the floats at the domain, whose linspace edges repeat.
        for x_min, x_max, n, match in [
            (1.0, 0.0, 4, "cell width -0.25 is not a positive finite float"),
            (-1e308, 1e308, 16, "cell width inf "),
            (0.0, 1e-320, 4096, "cell width 0.0 "),
            (0.0, 1e-320, 1000, r"cell width 1e-323 is subnormal \(below 2.2250738585072014e-308\)"),
            (1.0, np.nextafter(1.0, 2.0), 4, "edges do not strictly increase"),
        ]:
            with pytest.raises(ValueError, match=match):
                Grid.uniform(x_min, x_max, n)

    def test_rejects_too_few_edges(self):
        with pytest.raises(ValueError, match=r"^grid of 0 cells on \[0\.0, 1\.0\]: cell width nan"):
            Grid.uniform(0.0, 1.0, 0)


class TestBoundaries:
    def make(self):
        return np.array([
            [1.0, 2.0, 3.0],
            [0.5, -1.0, 2.0],
            [1.0, 2.0, 3.0],
            [3.0, 2.0, 1.0],
        ])

    def test_transmissive(self):
        q = apply_boundary(self.make(), "transmissive")
        assert q[H].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]
        assert q[HU].tolist() == [0.5, 0.5, -1.0, 2.0, 2.0]

    def test_reflective_negates_momentum(self):
        q = apply_boundary(self.make(), "reflective")
        assert q[H].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]
        assert q[HU].tolist() == [-0.5, 0.5, -1.0, 2.0, -2.0]
        assert q[HSXX].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]

    def test_periodic_wraps(self):
        q = apply_boundary(self.make(), "periodic")
        assert q[H].tolist() == [3.0, 1.0, 2.0, 3.0, 1.0]
        assert q[HU].tolist() == [2.0, 0.5, -1.0, 2.0, 0.5]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_boundary(self.make(), "outflow")


class TestCfl:
    def test_lake_at_rest_formula(self):
        # G = 0 at rest: both outer speeds are exactly sqrt(g h)
        params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
        n = 8
        grid = Grid.uniform(0.0, 1.0, n)
        q = Primitive(np.full(n, 2.0), np.zeros(n), np.ones(n), np.ones(n)).conserved()
        state = SimState(0.0, q)
        _, diag = full_step(state, grid, params, StepControl(cfl=0.5))
        assert diag.dt == 0.5 * (1.0 / n) / np.sqrt(10.0 * 2.0)

    def test_collapse_raises(self):
        grid = Grid.uniform(0.0, 1.0, 16)
        state = dam_break_state(16)
        with pytest.raises(TimeStepCollapse):
            full_step(state, grid, P10, StepControl(dt_min_factor=1.0))

    def test_max_dt_landing_rules(self):
        grid = Grid.uniform(0.0, 1.0, 32)
        state = dam_break_state(32)
        _, free = full_step(state, grid, P10, StepControl())
        dt_cfl = free.dt
        # remaining below the stable step: land exactly on it
        _, d1 = full_step(state, grid, P10, StepControl(max_dt=0.25 * dt_cfl))
        assert d1.dt == 0.25 * dt_cfl
        # remaining within a factor two: take half of it twice
        _, d2 = full_step(state, grid, P10, StepControl(max_dt=1.6 * dt_cfl))
        assert d2.dt == 0.5 * (1.6 * dt_cfl)
        # remaining far away: unconstrained
        _, d3 = full_step(state, grid, P10, StepControl(max_dt=5.0 * dt_cfl))
        assert d3.dt == dt_cfl

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(cfl=0.6)
        with pytest.raises(ValueError):
            StepControl(cfl=0.0)
        with pytest.raises(ValueError):
            StepControl(bc="open")

    @pytest.mark.parametrize("field, value", [
        ("dt_min_factor", np.nan), ("dt_min_factor", -1.0), ("dt_min_factor", np.inf),
        ("max_dt", 0.0), ("max_dt", -1e-6), ("max_dt", np.nan), ("max_dt", np.inf),
    ])
    def test_control_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            StepControl(**{field: value})


class TestHomogeneous:
    """The transport stage, through `full_step` at a fixed dt (max_dt below
    the CFL step).  The source step leaves the h and hu rows alone."""

    def test_uniform_state_is_fixed_point_bitwise(self):
        grid = Grid.uniform(0.0, 1.0, 12)
        q = Primitive(np.full(12, 0.7), np.full(12, 0.3), np.full(12, 1.3), np.full(12, 0.6)).conserved()
        state = SimState(0.0, q)
        for bc in ("transmissive", "periodic", "reflective"):
            out, diag = full_step(state, grid, P10, StepControl(bc=bc, max_dt=1e-3))
            assert diag.dt == 1e-3
            if bc == "reflective":
                continue  # moving fluid reflects at walls; not a fixed point
            # transport moves no bit, so the step is the source step on q
            relaxed, _, _ = source_step(q, primitive(q), diag.dt, P10)
            assert np.array_equal(out.q[H], q[H])
            assert np.array_equal(out.q[HU], q[HU])
            assert np.array_equal(out.q[HSXX], relaxed[HSXX])
            assert np.array_equal(out.q[HSZZ], relaxed[HSZZ])

    def test_rest_state_reflective_fixed_point(self):
        grid = Grid.uniform(0.0, 1.0, 12)
        q = Primitive(np.full(12, 0.7), np.zeros(12), np.full(12, 1.3), np.full(12, 0.6)).conserved()
        state = SimState(0.0, q)
        out, _ = full_step(state, grid, P10, StepControl(bc="reflective", max_dt=1e-3))
        assert np.array_equal(out.q[H], q[H]) and np.array_equal(out.q[HU], q[HU])

    def test_against_plain_suliciu_reference(self, rng):
        # same Lagrangian speeds, naive textbook assembly of the star states
        params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
        n = 40
        p = sample_states(params, n, rng)
        p = Primitive(p.h, np.clip(p.u, -3, 3), p.sxx, p.szz)
        q = p.conserved()
        grid = Grid.uniform(0.0, 1.0, n)
        dt = 5e-5   # under the CFL step of these states, so full_step takes it as it is
        out, diag = full_step(SimState(0.0, q), grid, params, StepControl(bc="periodic", max_dt=dt))
        assert diag.dt == dt

        qp = apply_boundary(q, "periodic")
        ql, qr = qp[:, :-1], qp[:, 1:]
        cl, cr = relaxation_speeds(side_pair(cell_state(ql, params), cell_state(qr, params)))
        pl, pr = primitive(ql), primitive(qr)
        pil = total_pressure(pl, params)
        pir = total_pressure(pr, params)
        us = (cl * pl.u + cr * pr.u + pil - pir) / (cl + cr)
        pis = (cr * pil + cl * pir - cl * cr * (pr.u - pl.u)) / (cl + cr)
        hls = 1.0 / (1.0 / ql[H] + (cr * (pr.u - pl.u) + pil - pir) / (cl * (cl + cr)))
        hrs = 1.0 / (1.0 / qr[H] + (cl * (pr.u - pl.u) + pir - pil) / (cr * (cl + cr)))
        s1 = pl.u - cl / ql[H]
        s3 = pr.u + cr / qr[H]
        # pure shallow-water mass/momentum flux from the sampled fan at xi = 0
        def flux_at_zero(i):
            if s1[i] > 0:
                h, u, pi = pl.h[i], pl.u[i], pil[i]
            elif us[i] > 0:
                h, u, pi = hls[i], us[i], pis[i]
            elif s3[i] > 0:
                h, u, pi = hrs[i], us[i], pis[i]
            else:
                h, u, pi = pr.h[i], pr.u[i], pir[i]
            return np.array([h * u, h * u * u + pi])

        ref = q[:2].copy()
        for i in range(n):
            fl = flux_at_zero(i)
            fr = flux_at_zero(i + 1)
            ref[:, i] -= dt / grid.dx * (fr - fl)
        got = out.q[:2]
        assert np.allclose(got, ref, rtol=1e-11, atol=1e-13)

    def test_admissibility_loss_detected(self, monkeypatch):
        grid = Grid.uniform(0.0, 1.0, 8)
        # a giant dt drains cells into negative depth
        monkeypatch.setattr(timeloop_mod, "cfl_dt", lambda *args: 1.0)
        q2 = dam_break_state(8).q
        with pytest.raises(AdmissibilityError, match="after transport"):
            full_step(SimState(0.0, q2), grid, P10, StepControl())

    def test_rejects_inadmissible_input(self):
        grid = Grid.uniform(0.0, 1.0, 4)
        q = np.array([np.ones(4), np.zeros(4), [1.0, 1.0, -1.0, 1.0], np.ones(4)])
        with pytest.raises(AdmissibilityError, match=r"^cell state outside admissible region at index \(2,\)"):
            full_step(SimState(0.0, q), grid, P10, StepControl(max_dt=1e-3))


class TestSource:
    def test_dt_zero_identity(self, rng):
        p = sample_states(P10, 100, rng)
        sxx, szz = relax_conformations(p.sxx, p.szz, 0.0, P10)
        assert np.array_equal(np.asarray(sxx), np.asarray(p.sxx))
        assert np.array_equal(np.asarray(szz), np.asarray(p.szz))

    def test_long_time_limit_equilibrium(self, rng):
        p = sample_states(P10, 500, rng)
        se = float(equilibrium_sigma(P10))
        sxx, szz = relax_conformations(p.sxx, p.szz, 1e14, P10)
        assert np.max(np.abs(sxx - se)) <= 1e-10
        assert np.max(np.abs(szz - se)) <= 1e-10

    def test_against_coupled_newton_oracle(self, rng):
        for ell in (3.0, 10.0, 1000.0):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=ell)
            p = sample_states(params, 1000, rng)
            for r in (1e-3, 0.1, 10.0):
                dt = params.lam * r
                got = relax_conformations(p.sxx, p.szz, dt, params)
                want = newton_source_2x2(p.sxx, p.szz, dt, params)
                for a, b in zip(got, want):
                    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-10

    def test_trace_moves_toward_equilibrium(self, rng):
        p = sample_states(P10, 800, rng)
        s0 = p.sxx + p.szz
        seq = 2.0 * float(equilibrium_sigma(P10))
        sxx, szz = relax_conformations(p.sxx, p.szz, 0.05, P10)
        s1 = sxx + szz
        assert np.all((s1 - s0) * (seq - s0) >= 0.0)
        assert np.all(np.abs(s1 - seq) <= np.abs(s0 - seq) * (1 + 1e-12))

    def test_source_step_preserves_mass_momentum_bitwise(self, rng):
        p = sample_states(P10, 200, rng)
        q = p.conserved()
        out, _, _ = source_step(q, primitive(q), 0.02, P10)
        assert np.array_equal(out[H], q[H])
        assert np.array_equal(out[HU], q[HU])

    def test_source_step_dissipates_free_energy(self, rng):
        p = sample_states(P10, 500, rng)
        q = p.conserved()
        f0 = free_energy(p, P10)
        out, p_out, f_out = source_step(q, primitive(q), 0.1, P10)
        f1 = free_energy(primitive(out), P10)
        assert np.all(f1 <= f0 + 1e-12 * (1.0 + np.abs(f0)))
        # The returned primitive state and free energy are those of the result.
        assert np.array_equal(p_out.sxx, primitive(out).sxx) and np.array_equal(f_out, f1)

    def test_equilibrium_is_fixed_point(self):
        se = float(equilibrium_sigma(P10))
        sxx, szz = relax_conformations(np.full(4, se), np.full(4, se), 0.3, P10)
        assert np.max(np.abs(sxx - se)) <= 5e-15
        assert np.max(np.abs(szz - se)) <= 5e-15

    @given(st.floats(1e-8, 1e6))
    def test_any_dt_keeps_admissibility(self, dt):
        p = Primitive(
            np.array([0.5, 2.0, 1.0]),
            np.zeros(3),
            np.array([0.2, 4.5, 9.0]),
            np.array([0.2, 4.5, 0.5]),
        )
        sxx, szz = relax_conformations(p.sxx, p.szz, dt, P10)
        assert np.all(sxx > 0) and np.all(szz > 0)
        assert np.all(sxx + szz < P10.ell)

    def test_failures_name_their_cell(self, monkeypatch):
        import fenepsv.timeloop as timeloop_mod

        with pytest.raises(SourceSolveFailure) as err:
            relax_conformations(np.array([0.5, np.nan]), np.array([0.5, 0.5]), 0.01, P10)
        assert str(err.value) == (
            "component recovery inconsistent with the trace root at index (1,): "
            "drift=nan, bound=1e-09 (1 offending entries)"
        )
        energies = iter([np.zeros(3), np.array([0.0, 1.0, 0.5])])
        monkeypatch.setattr(timeloop_mod, "_free_energy", lambda p, params: next(energies))
        q = dam_break_state(3).q
        with pytest.raises(SourceSolveFailure) as err:
            source_step(q, primitive(q), 0.01, P10)
        assert err.value.index == (1,) and err.value.values == {"before": 0.0, "after": 1.0}
        assert str(err.value) == (
            "free energy increased during relaxation at index (1,): "
            "before=0.0, after=1.0 (2 offending entries)"
        )

    def test_inadmissible_relaxed_state_names_its_cell(self, monkeypatch):
        def trace_ell_at_2(sxx0, szz0, dt, params):
            sxx, szz = relax_conformations(sxx0, szz0, dt, params)
            sxx[2], szz[2] = 0.5 * params.ell, 0.5 * params.ell
            return sxx, szz

        monkeypatch.setattr(timeloop_mod, "relax_conformations", trace_ell_at_2)
        q = dam_break_state(4).q
        with pytest.raises(SourceSolveFailure, match="^relaxed state inadmissible") as err:
            source_step(q, primitive(q), 0.01, P10)
        assert err.value.index == (2,)


def full_array_relax(sxx0, szz0, dt, params):
    """`relax_conformations` iterating on the whole array, converged entries
    held by masks: the reference for its compressing form.  Also returns the
    number of Newton passes each entry took."""
    ell = params.ell
    r = dt / params.lam
    sxx0 = np.asarray(sxx0, dtype=float)
    szz0 = np.asarray(szz0, dtype=float)
    s0 = sxx0 + szz0
    tol = 1e-13 * (2.0 + ell / r)

    def g_of(s):
        return (s - s0) / r - 2.0 + s / (1.0 - s / ell)

    s = s0.copy()
    lo = np.zeros_like(s)
    hi = np.full_like(s, ell)
    g = g_of(s)
    active = np.abs(g) > tol
    passes = np.zeros(s.shape, dtype=int)
    for _ in range(100):
        if not active.any():
            break
        passes += active
        hi = np.where(active & (g > 0), s, hi)
        lo = np.where(active & (g <= 0), s, lo)
        gp = 1.0 / r + 1.0 / (1.0 - s / ell) ** 2
        s_new = s - g / gp
        outside = (s_new <= lo) | (s_new >= hi)
        s_new = np.where(outside, 0.5 * (lo + hi), s_new)
        s = np.where(active, s_new, s)
        g = np.where(active, g_of(s), g)
        active = np.abs(g) > tol
    if active.any():
        raise SourceSolveFailure.at(
            "trace equation not converged after 100 iterations", active, s0=s0, g=g, tol=tol
        )

    Q = 1.0 - s / ell
    denom = 1.0 + r / Q
    sxx = (sxx0 + r) / denom
    szz = (szz0 + r) / denom
    drift = np.abs((sxx + szz) - s)
    if not (drift <= 1e-10 * ell).all():
        raise SourceSolveFailure.at(
            "component recovery inconsistent with the trace root", ~(drift <= 1e-10 * ell),
            worst=drift, drift=drift, bound=1e-10 * ell,
        )
    return sxx, szz, passes


def relax_outcome(relax, sxx0, szz0, dt, params):
    """Type, shape and bytes of a solve's (sxx, szz), or the error's type, text and entry.

    Inputs at the bound divide by zero on the way to their error, so the
    floating-point warnings are silenced here.
    """
    try:
        with np.errstate(all="ignore"):
            sxx, szz = relax(sxx0, szz0, dt, params)[:2]
    except SourceSolveFailure as e:
        return type(e), str(e), e.index
    return type(sxx), np.shape(sxx), np.asarray(sxx).tobytes(), np.asarray(szz).tobytes()


class TestSourceReference:
    """relax_conformations iterates on unconverged entries only, bit for bit the
    full-array loop."""

    @staticmethod
    def traces(ell):
        # Spread over (0, ell), the equilibrium trace, and within 1e-12 of ell.
        near = ell - np.array([1e-12, 4e-13, 1e-13])
        near = np.append(near, np.nextafter(ell, 0.0))
        spread = ell * np.array([1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-9])
        return np.concatenate([spread, [2.0 * ell / (ell + 2.0)], near])

    def assert_same(self, sxx0, szz0, dt, params):
        want = relax_outcome(full_array_relax, sxx0, szz0, dt, params)
        assert relax_outcome(relax_conformations, sxx0, szz0, dt, params) == want

    def test_grid_array_and_scalar_inputs(self):
        for ell in (2.05, 3.0, 10.0, 100.0, 1e3, 1e4):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=ell)
            s0 = self.traces(ell)
            for split in (0.5, 0.03, 0.97):
                sxx0, szz0 = split * s0, (1.0 - split) * s0
                for r in np.logspace(-6.0, 2.0, 9):
                    dt = float(r) * params.lam
                    self.assert_same(sxx0, szz0, dt, params)
                    self.assert_same(sxx0.reshape(2, -1), szz0.reshape(2, -1), dt, params)
                    for a, b in zip(sxx0[::3], szz0[::3]):
                        self.assert_same(float(a), float(b), dt, params)
            self.assert_same(np.array([]), np.array([]), 0.1, params)

    def test_entries_converging_at_different_passes(self, rng):
        params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=100.0)
        s0 = np.concatenate([self.traces(100.0), rng.uniform(0.0, 100.0, 200)])
        sxx0, szz0 = 0.4 * s0, 0.6 * s0
        for dt in (1e-5, 1e-3, 0.1, 3.0):
            passes = full_array_relax(sxx0, szz0, dt, params)[2]
            assert len(set(passes.tolist())) >= 3
            self.assert_same(sxx0, szz0, dt, params)
            self.assert_same(sxx0[::-1], szz0[::-1], dt, params)

    def test_fuzzed_arrays(self, rng):
        for _ in range(60):
            ell = float(np.exp(rng.uniform(np.log(2.05), np.log(1e4))))
            params = PhysParams(g=10.0, G=0.1, lam=1.0, zeta=0.0, ell=ell)
            n = int(rng.integers(1, 60))
            s0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, ell, n),
                          ell * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0, n)))
            split = rng.uniform(0.0, 1.0, n)
            self.assert_same(split * s0, (1.0 - split) * s0, 10.0 ** rng.uniform(-6.0, 2.0), params)

    def test_non_convergence_names_the_first_entry(self):
        # An inadmissible trace above ell whose residual never reaches the tolerance.
        params = PhysParams(g=10.0, G=0.1, lam=1.0, zeta=0.0, ell=8490.906362948828)
        dt, stuck, split = 1710.5819035951301, 9891.119843317154, 0.5160685855478787
        s0 = np.array([100.0, stuck, 4000.0, stuck, 8000.0])
        sxx0, szz0 = split * s0, (1.0 - split) * s0
        with pytest.raises(SourceSolveFailure) as err, np.errstate(all="ignore"):
            relax_conformations(sxx0, szz0, dt, params)
        assert err.value.index == (1,) and err.value.values["s0"] == stuck
        assert str(err.value).startswith(
            "trace equation not converged after 100 iterations at index (1,): s0=9891.119843317154"
        )
        assert str(err.value).endswith("(2 offending entries)")
        self.assert_same(sxx0, szz0, dt, params)
        self.assert_same(sxx0.reshape(5, 1), szz0.reshape(5, 1), dt, params)
        self.assert_same(float(sxx0[3]), float(szz0[3]), dt, params)


class TestFullStep:
    def test_equilibrium_rest_state_stationary(self):
        se = float(equilibrium_sigma(P10))
        n = 16
        grid = Grid.uniform(0.0, 1.0, n)
        q = Primitive(np.full(n, 1.0), np.zeros(n), np.full(n, se), np.full(n, se)).conserved()
        state = SimState(0.0, q)
        for _ in range(100):
            state, diag = full_step(state, grid, P10, StepControl())
        assert np.array_equal(state.q[H], q[H])
        assert np.array_equal(state.q[HU], q[HU])
        assert np.max(np.abs(state.q[HSXX] - q[HSXX])) <= 5e-13
        assert np.max(np.abs(state.q[HSZZ] - q[HSZZ])) <= 5e-13

    def test_dissipation_audit_clean_on_dam_break(self):
        grid = Grid.uniform(0.0, 1.0, 64)
        state = dam_break_state(64)
        total_violations = 0
        for _ in range(50):
            state, diag = full_step(state, grid, P10, StepControl())
            total_violations += diag.dissipation_violations
        assert total_violations == 0

    @pytest.mark.parametrize("cells", [256, 4096])
    def test_nan_residuals_count_as_violations(self, cells):
        # Conformations of 1e-300 on both sides of a dam break: every cell's
        # first residual is NaN, on every cell (256) and on the compressed
        # cells (4096), and a NaN residual is not within its tolerance.
        cfg = dataclasses.replace(preset_dam_break(10.0, cells=cells),
                                  left=(1.0, 0.0, 1e-300, 1e-300), right=(0.1, 0.0, 1e-300, 1e-300))
        grid = Grid.uniform(cfg.x_min, cfg.x_max, cells)
        state = SimState(0.0, initial_condition(cfg, grid))
        assert (runs_of(state.q) is not None) == (cells >= timeloop_mod.RUNS_MIN_CELLS)
        with np.errstate(all="ignore"):
            _, diag = full_step(state, grid, cfg.params)
            assert np.isnan(diag.max_dissipation_residual) and diag.dissipation_violations == cells
            with pytest.raises(DissipationViolation, match=r"residual=nan.*\(%d offending" % cells):
                full_step(state, grid, cfg.params, StepControl(strict_dissipation=True))

    def test_strict_dissipation_mode_passes_clean_run(self):
        grid = Grid.uniform(0.0, 1.0, 32)
        state = dam_break_state(32)
        control = StepControl(strict_dissipation=True)
        for _ in range(20):
            state, _ = full_step(state, grid, P10, control)

    def test_strict_subchar_mode_runs(self):
        grid = Grid.uniform(0.0, 1.0, 32)
        state = dam_break_state(32)
        control = StepControl(strict_subchar=True)
        for _ in range(10):
            state, diag = full_step(state, grid, P10, control)
        assert diag.worst_subchar_ratio <= 1.0 + 1e-10

    def test_strict_subchar_raises_when_ratio_stays_above_one(self, monkeypatch):
        import fenepsv.timeloop as timeloop_mod

        calls = []

        def stuck(fan, params):
            calls.append(1)
            return np.full(np.shape(fan.s1), 2.0)

        monkeypatch.setattr(timeloop_mod, "subcharacteristic_monitor", stuck)
        grid = Grid.uniform(0.0, 1.0, 8)
        msg = (
            r"^subcharacteristic ratio above 1 after 3 speed doublings at index \(0,\): "
            r"ratio=2\.0, x=0\.0 \(9 offending entries\)$"
        )
        with pytest.raises(SubcharacteristicViolation, match=msg):
            full_step(dam_break_state(8), grid, P10, StepControl(strict_subchar=True))
        assert len(calls) == 4  # the fan, then once after each of the 3 doublings
        state, diag = full_step(dam_break_state(8), grid, P10, StepControl())
        assert diag.worst_subchar_ratio == 2.0  # reported, not fatal, outside strict mode

    def test_reflective_conserves_mass(self):
        grid = Grid.uniform(0.0, 1.0, 64)
        state = dam_break_state(64)
        control = StepControl(bc="reflective")
        mass0 = float(np.sum(state.q[H] * grid.dx))
        for _ in range(100):
            sides = interface_sides(cell_state(apply_boundary(state.q, "reflective"), P10))
            mass_flux = interface_fluxes(star_states(sides, relaxation_speeds(sides), P10))[0, 0]
            assert (mass_flux[0], mass_flux[-1]) == (0.0, 0.0)
            state, _ = full_step(state, grid, P10, control)
        mass1 = float(np.sum(state.q[H] * grid.dx))
        assert abs(mass1 - mass0) / mass0 <= 1e-13

    def test_periodic_conserves_mass_and_momentum(self):
        n = 64
        grid = Grid.uniform(0.0, 1.0, n)
        x = grid.centers
        h = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        q = Primitive(h, 0.2 * np.cos(2 * np.pi * x), np.ones(n), np.full(n, 1.5)).conserved()
        state = SimState(0.0, q)
        control = StepControl(bc="periodic")
        mass0 = float(np.sum(q[H] * grid.dx))
        mom0 = float(np.sum(q[HU] * grid.dx))
        for _ in range(200):
            state, diag = full_step(state, grid, P10, control)
        assert abs(diag.mass - mass0) / mass0 <= 1e-13
        assert abs(diag.momentum - mom0) <= 1e-13 * max(1.0, abs(mom0))

    def test_mirror_evolution_bit_exact(self):
        # On every uniform grid, including those whose linspace widths differ
        # by rounding (300 and 1000 cells on [0, 1], 300 on [-0.3, 0.7]):
        # every cell steps with the one dx.
        for x_min, x_max, n in [(0.0, 1.0, 64), (0.0, 1.0, 300), (0.0, 1.0, 1000),
                                (-0.3, 0.7, 300)]:
            grid = Grid.uniform(x_min, x_max, n)
            state_f = dam_break_state(n)
            qm = state_f.q
            state_m = SimState(
                0.0,
                np.array([qm[H, ::-1], -qm[HU, ::-1], qm[HSXX, ::-1], qm[HSZZ, ::-1]]),
            )
            control = StepControl()
            for _ in range(30):
                state_f, _ = full_step(state_f, grid, P10, control)
                state_m, _ = full_step(state_m, grid, P10, control)
            assert np.array_equal(state_m.q[H], state_f.q[H, ::-1])
            assert np.array_equal(state_m.q[HU], -state_f.q[HU, ::-1])
            assert np.array_equal(state_m.q[HSXX], state_f.q[HSXX, ::-1])
            assert np.array_equal(state_m.q[HSZZ], state_f.q[HSZZ, ::-1])

    def test_free_energy_with_flux_balance_nonincreasing(self):
        # closed (reflective) domain: total free energy must not grow
        grid = Grid.uniform(0.0, 1.0, 64)
        state = dam_break_state(64)
        control = StepControl(bc="reflective")
        prev = float(np.sum(free_energy(primitive(state.q), P10) * grid.dx))
        for _ in range(100):
            state, diag = full_step(state, grid, P10, control)
            assert diag.free_energy <= prev + 1e-10 * (1.0 + abs(prev))
            prev = diag.free_energy

    def test_rejects_inadmissible_input(self):
        grid = Grid.uniform(0.0, 1.0, 4)
        q = np.array([[1.0, -1.0, 1.0, 1.0], np.zeros(4), np.ones(4), np.ones(4)])
        with pytest.raises(AdmissibilityError):
            full_step(SimState(0.0, q), grid, P10, StepControl())


@st.composite
def piecewise_cases(draw):
    """Admissible piecewise-constant data: 1-24 cells in 1-3 pieces, random parameters."""
    ell = draw(st.floats(2.05, 1e4))
    params = PhysParams(
        g=10.0,
        G=draw(st.floats(1e-3, 10.0)),
        lam=draw(st.floats(1e-4, 10.0)),
        zeta=draw(st.floats(0.0, 0.5)),
        ell=ell,
    )
    # Per piece: h, u, trace / ell, sxx / trace and the number of cells.
    piece = st.tuples(
        st.floats(1e-2, 1e2),
        st.floats(-5.0, 5.0),
        st.floats(1e-3, 0.99),
        st.floats(1e-2, 0.99),
        st.integers(1, 8),
    )
    h, u, frac, share, cells = zip(*draw(st.lists(piece, min_size=1, max_size=3)))
    h, u, trace, share = (np.repeat(v, cells) for v in (h, u, np.multiply(frac, ell), share))
    p = Primitive(h, u, share * trace, (1.0 - share) * trace)
    bc = draw(st.sampled_from(("transmissive", "reflective", "periodic")))
    return params, p, bc


class TestFuzz:
    @given(piecewise_cases())
    def test_full_steps_end_finite_or_typed(self, case):
        # Three strict steps under raising floating-point traps: each case
        # ends in a finite state or in a typed solver error.  Underflow is
        # not trapped (a subnormal is neither a NaN nor an inf).
        params, p, bc = case
        grid = Grid.uniform(0.0, 1.0, p.h.size)
        state = SimState(0.0, p.conserved())
        control = StepControl(bc=bc, strict_dissipation=True)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                for _ in range(3):
                    state, _ = full_step(state, grid, params, control)
        except SolverError:
            return
        assert np.all(np.isfinite(state.q))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def spoiled(p, k, how, ell):
    """p with cell k pushed out of the admissible region in the way `how` names."""
    h, u, sxx, szz = (np.array(v, dtype=float) for v in (p.h, p.u, p.sxx, p.szz))
    if how == "h":
        h[k] = -h[k]
    elif how == "sxx":
        sxx[k] = 0.0
    elif how == "szz":
        szz[k] = -szz[k]
    else:   # the trace exactly at the extensibility bound
        sxx[k] = szz[k] = ell / 2.0
    return Primitive(h, u, sxx, szz)


class TestKernels:
    """Each guarded public function is its check plus an unchecked kernel."""

    @given(piecewise_cases())
    def test_kernels_match_their_guards_bitwise(self, case):
        params, p, _ = case
        s, _, _, N = _stress_terms(p, params)
        for kernel, guard in (
            (_free_energy(p, params), free_energy(p, params)),
            (_internal_energy(p, params), internal_energy(p, params)),
            (_internal_energy(p, params, s), internal_energy(p, params)),
            (_dissipation_rate(p, params), dissipation_rate(p, params)),
            (N, normal_stress(p, params)),
            (_total_pressure(p, params, N), total_pressure(p, params)),
            *zip(_w_bounds(p, params), w_bounds(p, params)),
        ):
            assert same_bits(kernel, guard)
        q = p.conserved()
        assert same_bits(_cell_state(q, primitive(q), params), cell_state(q, params))

    @given(piecewise_cases())
    def test_cell_state_rows_are_the_model_formulas(self, case):
        # The fan's P and ehat rows are the one formula of each quantity,
        # the one behind the public guards.
        params, p, _ = case
        q = p.conserved()
        p = primitive(q)
        cells = cell_state(q, params)
        assert same_bits(cells[riemann_mod.P], total_pressure(p, params))
        assert same_bits(cells[riemann_mod.EHAT], internal_energy(p, params))

    @given(piecewise_cases(), st.sampled_from(("h", "sxx", "szz", "trace")), st.data())
    def test_guards_reject_inadmissible_states(self, case, how, data):
        params, p, _ = case
        k = data.draw(st.integers(0, p.h.size - 1))
        bad = spoiled(p, k, how, params.ell)
        bad_q = bad.conserved()

        def text(context, p):
            return (
                f"{context} outside admissible region at index ({k},): h={float(p.h[k])!r}, "
                f"sxx={float(p.sxx[k])!r}, szz={float(p.szz[k])!r}, ell={params.ell!r} "
                "(1 offending entries)"
            )

        for call, want in (
            (lambda: free_energy(bad, params), text("free_energy argument", bad)),
            (lambda: internal_energy(bad, params), text("internal_energy argument", bad)),
            (lambda: dissipation_rate(bad, params), text("dissipation_rate argument", bad)),
            (lambda: w_bounds(bad, params), text("w_bounds argument", bad)),
            (lambda: cell_state(bad_q, params), text("w_bounds argument", primitive(bad_q))),
        ):
            with pytest.raises(AdmissibilityError) as err:
                call()
            assert str(err.value) == want
        if how == "trace":
            for guard in (normal_stress, total_pressure, dP_dh_frozen):
                with pytest.raises(AdmissibilityError) as err:
                    guard(bad, params)
                assert str(err.value) == (
                    f"conformation trace reached the extensibility bound at index ({k},): "
                    f"sxx={float(bad.sxx[k])!r}, szz={float(bad.szz[k])!r}, ell={params.ell!r} "
                    "(1 offending entries)"
                )

    @given(piecewise_cases(), st.data())
    def test_dP_dh_frozen_rejects_non_hyperbolic_states(self, case, data):
        # A shallow cell with sxx = -szz = ell/8: trace 0, dP/dh <= g h - G ell/8 < 0.
        params, p, _ = case
        k = data.draw(st.integers(0, p.h.size - 1))
        h, u, sxx, szz = (np.array(v, dtype=float) for v in (p.h, p.u, p.sxx, p.szz))
        h[k], sxx[k], szz[k] = 1e-6, params.ell / 8.0, -params.ell / 8.0
        with pytest.raises(NonHyperbolicError) as err:
            dP_dh_frozen(Primitive(h, u, sxx, szz), params)
        dPdh = err.value.values["dPdh"]
        assert err.value.index == (k,) and dPdh < 0.0
        assert str(err.value) == (
            f"dP/dh non-positive (state left the hyperbolic region) at index ({k},): "
            f"dPdh={dPdh!r}, h=1e-06, sxx={float(sxx[k])!r}, szz={float(szz[k])!r} "
            "(1 offending entries)"
        )


@st.composite
def run_cases(draw):
    """Admissible piecewise-constant cells with runs of 1 to 6 equal cells.

    Each piece after the first is a fresh state, or its left neighbour with
    the momentum's zero of the other sign, or with one component moved by
    one last bit, so that neighbouring runs differ in their bits alone.
    Returns (params, conserved (4, n) array, bc, strict_subchar).
    """
    params, _, bc = draw(piecewise_cases())
    piece = st.tuples(
        st.floats(1e-2, 1e2), st.floats(-5.0, 5.0), st.floats(1e-3, 0.99), st.floats(1e-2, 0.99)
    )
    columns, lengths = [], []
    for kind in draw(st.lists(st.sampled_from(("new", "signed zero", "last bit")), min_size=1,
                              max_size=6)):
        if kind == "new" or not columns:
            h, u, frac, share = draw(piece)
            trace = frac * params.ell
            col = np.array([h, h * u, h * share * trace, h * (1.0 - share) * trace])
        elif kind == "signed zero":
            columns[-1][1] = draw(st.sampled_from((0.0, -0.0)))
            col = columns[-1].copy()
            col[1] = -col[1]
        else:
            col = columns[-1].copy()
            k = draw(st.integers(0, 3))
            col[k] = np.nextafter(col[k], draw(st.sampled_from((0.0, np.inf))))
        columns.append(col)
        lengths.append(draw(st.integers(1, 6)))
    q = np.repeat(np.array(columns).T, lengths, axis=1)
    return params, q, bc, draw(st.booleans())


def runs_outcome(call, *args):
    """The bytes of every array `call(*args)` returns, or its error's type, text
    (which holds its values) and entry; a returned error counts as raised.

    States outside the admissible region divide by zero or take the power
    of a negative base on their way to the error, so the floating-point
    warnings are silenced here.
    """
    try:
        with np.errstate(all="ignore"):
            out = call(*args)
    except SolverError as e:
        return type(e), str(e), e.index
    return [(type(a), str(a), a.index) if isinstance(a, SolverError) else (a.shape, a.tobytes())
            for a in out]


def force_runs(mp, on=True):
    """Patch the gate of `timeloop._runs` so that every state is stepped on
    its compressed cells (on) or on every cell (not on)."""
    if on:
        mp.setattr(timeloop_mod, "RUNS_MIN_CELLS", 0)
        mp.setattr(timeloop_mod, "COMPRESSED_MAX_SHARE", 1.0)
    else:
        mp.setattr(timeloop_mod, "RUNS_MIN_CELLS", sys.maxsize)


def with_runs(on, call, *args):
    """`runs_outcome(call, *args)` with the run path forced on or off."""
    with pytest.MonkeyPatch.context() as mp:
        force_runs(mp, on)
        return runs_outcome(call, *args)


def runs_of(q):
    """The `_runs` (rep, weight) of the cells q, from one scan, or None."""
    return _runs(*_column_runs(q), q.shape[1])


def carried_f(state):
    """The free energy that state carries, per cell (a state in run space
    carries it per run)."""
    f = state._carried_f[1]
    return f if state._carried_runs is None else np.repeat(f, state._carried_runs[2])


def compressed(q, runs):
    """The cells of the (4, n) array q that the `_runs` (rep, weight) keep."""
    return q[:, runs[0]]


def fluxes(q, grid, params, control):
    """The outputs of `_fluxes` at every interface of q and the step.  Where
    `_runs` takes q's runs, they are those of `_fluxes` on the compressed
    cells, the left end's interface once and each compressed cell's right
    interface repeated by its weight, and an error on the compressed cells
    is raised again by `_fluxes` on every cell, as `full_step` raises it
    again by the step on every cell."""
    if (runs := runs_of(q)) is None:
        *arrays, dt, _ = _fluxes(q, grid.edges, grid, params, control)
        return [*arrays, np.float64(dt)]
    rep, weight = runs
    try:
        *arrays, dt, _ = _fluxes(compressed(q, runs),
                                 grid.edges[np.append(rep, grid.n)], grid, params, control)
    except SolverError:
        _fluxes(q, grid.edges, grid, params, control)
        raise
    return [np.repeat(a, np.append(1, weight), axis=-1) for a in arrays] + [np.float64(dt)]


def stepped(q, grid, params, control, steps=3, f_old=None):
    """Per full_step from the cells q: its time, cells, carried F and
    diagnostics, then the error that stopped the steps, if any.  With f_old
    the input carries it as its F, so that the input check is skipped."""
    state, out = SimState(0.0, q.copy()), []
    if f_old is not None:
        state._carried_f = (params, f_old)
    try:
        for _ in range(steps):
            state, diag = full_step(state, grid, params, control)
            out += [np.float64(state.t), state.q, carried_f(state),
                    np.array(dataclasses.astuple(diag), dtype=float)]
    except SolverError as e:
        out.append(e)
    return out


def slowed(factor):
    """`relaxation_speeds` with both speeds scaled by factor (< 1 breaks the fan)."""

    def speeds(sides):
        return factor * relaxation_speeds(sides)

    return speeds


class TestRuns:
    """The step on the compressed cells of the runs of equal cells is bit for
    bit, errors included, the step on every cell."""

    def test_column_runs_compare_bit_patterns(self):
        a = np.array([[0.0, -0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 1.0, 1.0, np.nan, np.nan],
                      [2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0]])
        starts, lengths = _column_runs(a)
        assert starts.tolist() == [0, 1, 3, 4, 5, 7]
        assert lengths.tolist() == [1, 2, 1, 1, 2, 2]
        starts, lengths = _column_runs(np.empty((4, 0)))
        assert starts.size == lengths.size == 0
        starts, lengths = _column_runs(np.ones((4, 5)))
        assert starts.tolist() == [0] and lengths.tolist() == [5]

    @given(run_cases())
    def test_compressed_cells_meet_the_neighbours_of_their_cells(self, case):
        # rep is each run's first, second and last cell; under each bc every
        # cell's padded (left, self, right) cells are bitwise those of the
        # compressed cell that stands for it.
        _, q, _, _ = case
        n = q.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            force_runs(mp)
            runs = rep, weight = runs_of(q)
        starts, lengths = _column_runs(q)
        want = sorted({k for s, last in zip(starts.tolist(), (starts + lengths - 1).tolist())
                       for k in (s, min(s + 1, last), last)})
        assert rep.tolist() == want and rep[0] == 0 and rep[-1] == n - 1
        assert (weight >= 1).all() and weight.sum() == n
        owner = np.repeat(np.arange(rep.size), weight)
        for bc in timeloop_mod.BOUNDARY_KINDS:
            full = apply_boundary(q, bc).view(np.int64)
            comp = apply_boundary(compressed(q, runs), bc).view(np.int64)
            for k in range(3):
                assert (full[:, k : k + n] == comp[:, owner + k]).all(), (bc, k)

    @given(run_cases(), st.floats(1e-6, 1e2))
    def test_stages_on_runs_equal_stages_on_every_cell(self, case, r):
        # The fluxes, and a step whose source sees a dt capped at r lam.
        params, q, bc, strict = case
        grid = Grid.uniform(0.0, 1.0, q.shape[1])
        control = StepControl(bc=bc, strict_subchar=strict)
        capped = StepControl(bc=bc, strict_subchar=strict, max_dt=r * params.lam)
        for call, args in ((fluxes, (q, grid, params, control)),
                           (stepped, (q, grid, params, capped, 1))):
            assert with_runs(True, call, *args) == with_runs(False, call, *args)

    @given(run_cases())
    def test_steps_on_runs_equal_steps_on_every_cell(self, case):
        params, q, bc, strict = case
        args = (q, Grid.uniform(0.0, 1.0, q.shape[1]), params,
                StepControl(bc=bc, strict_subchar=strict), 4)
        assert with_runs(True, stepped, *args) == with_runs(False, stepped, *args)

    @given(run_cases())
    def test_carried_runs_are_the_runs_of_the_cells(self, case):
        # The runs, cells and F that each state in run space carries are
        # those of the same steps on every cell.
        params, q, bc, strict = case
        grid, control = Grid.uniform(0.0, 1.0, q.shape[1]), StepControl(bc=bc, strict_subchar=strict)
        on_runs = on_cells = SimState(0.0, q)
        with np.errstate(all="ignore"):
            try:
                for _ in range(4):
                    with pytest.MonkeyPatch.context() as mp:
                        force_runs(mp)
                        on_runs, _ = full_step(on_runs, grid, params, control)
                    with pytest.MonkeyPatch.context() as mp:
                        force_runs(mp, False)
                        on_cells, _ = full_step(on_cells, grid, params, control)
                    cells, starts, lengths = on_runs._carried_runs
                    assert on_cells._carried_runs is None
                    want = _column_runs(on_cells.q)
                    assert [starts.tolist(), lengths.tolist()] == [a.tolist() for a in want]
                    assert cells.tobytes() == on_cells.q[:, starts].tobytes()
                    assert on_runs._carried_f[1].tobytes() == on_cells._carried_f[1][starts].tobytes()
            except SolverError:
                pass

    @given(run_cases(), st.data())
    def test_errors_on_runs_name_cells(self, case, data):
        # A run of cells made non-hyperbolic (dP/dh < 0), and a run of traces
        # above ell, which the cell state rejects: each error names the cell,
        # and counts the cells, that the step on every cell names, in the
        # fluxes and in a step whose input is taken as checked.  A run of
        # three or more traces above 0.995 ell on which the source fails:
        # its inner cells leave the transport as they are.
        params, q, bc, strict = case
        n = q.shape[1]
        lo = data.draw(st.integers(0, n - 1))
        bad = slice(lo, data.draw(st.integers(lo + 1, n)))
        grid, control = Grid.uniform(0.0, 1.0, n), StepControl(bc=bc, strict_subchar=strict)
        spoiled = q.copy()
        spoiled[0, bad] = 1e-6
        spoiled[2, bad], spoiled[3, bad] = 1e-6 * params.ell / 8.0, -1e-6 * params.ell / 8.0
        stuck = q.copy()
        stuck[2, bad] = stuck[0, bad] * 1.1 * params.ell
        for cells, error in ((spoiled, NonHyperbolicError), (stuck, AdmissibilityError)):
            for call, args in ((fluxes, (cells, grid, params, control)),
                               (stepped, (cells, grid, params, control, 1, np.zeros(n)))):
                want = with_runs(False, call, *args)
                assert (want if call is fluxes else want[-1])[0] is error
                assert with_runs(True, call, *args) == want

        def failing(sxx0, szz0, dt, params):
            s0 = sxx0 + szz0
            if not (s0 <= 0.995 * params.ell).all():
                raise SourceSolveFailure.at("stuck", s0 > 0.995 * params.ell, worst=s0, s0=s0)
            return relax_conformations(sxx0, szz0, dt, params)

        lo = data.draw(st.integers(0, n))
        near = np.repeat([[1.0], [0.0], [0.4995 * params.ell], [0.4995 * params.ell]], 3, axis=1)
        cells = np.concatenate((q[:, :lo], near, q[:, lo:]), axis=1)
        args = (cells, Grid.uniform(0.0, 1.0, n + 3), params, control, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeloop_mod, "relax_conformations", failing)
            want = with_runs(False, stepped, *args)
            assert want[-1][0] is SourceSolveFailure
            assert with_runs(True, stepped, *args) == want

    @given(run_cases(), st.sampled_from((1e-3, 0.05, 0.3, 0.6)))
    def test_fan_errors_on_runs_name_interfaces(self, case, factor):
        params, q, bc, strict = case
        args = (q, Grid.uniform(0.0, 1.0, q.shape[1]), params,
                StepControl(bc=bc, strict_subchar=strict))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeloop_mod, "relaxation_speeds", slowed(factor))
            assert with_runs(True, fluxes, *args) == with_runs(False, fluxes, *args)
            step_args = (q, *args[1:], 2)
            assert with_runs(True, stepped, *step_args) == with_runs(False, stepped, *step_args)

    @pytest.mark.parametrize("name, stage, strict, error, index", [
        # Slowed speeds: the star depth at the jump turns negative, or its
        # conformation leaves the admissible region.
        ("relaxation_speeds", slowed(0.05), False, StarStateError, (6,)),
        ("relaxation_speeds", slowed(0.6), True, StarStateError, (6,)),
        # A monitor stuck above 1 where the left cell is shallow.
        ("subcharacteristic_monitor", lambda fan, params: np.where(fan.sides[H, 0] < 0.5, 2.0, 0.5),
         True, SubcharacteristicViolation, (7,)),
    ])
    def test_fan_errors_on_runs_are_those_of_every_interface(self, name, stage, strict, error,
                                                             index, monkeypatch):
        args = (dam_break_state(12).q, Grid.uniform(0.0, 1.0, 12), P10,
                StepControl(strict_subchar=strict))
        monkeypatch.setattr(timeloop_mod, name, stage)
        want = with_runs(False, fluxes, *args)
        assert want[0] is error and want[2] == index
        assert with_runs(True, fluxes, *args) == want
        step_args = (*args, 1)
        assert with_runs(False, stepped, *step_args) == [want]
        assert with_runs(True, stepped, *step_args) == [want]

    def test_small_arrays_and_distinct_cells_skip_the_runs(self):
        n = timeloop_mod.RUNS_MIN_CELLS
        share = timeloop_mod.COMPRESSED_MAX_SHARE

        distinct = np.arange(1.0, 4.0 * n + 1.0).reshape(4, n)
        # Runs of L >= 3 equal cells have 3 / L compressed cells per cell:
        # `short` cells per run are one too few for the gate, `short + 1`
        # enough.
        short = int(np.ceil(3.0 / share)) - 1
        sparse = np.repeat(distinct[:, : n // short + 1], short, axis=1)
        for a in (np.ones((4, n - 1)), distinct, sparse):
            assert runs_of(a) is None
        rep, weight = runs_of(np.ones((4, n)))
        assert rep.tolist() == [0, 1, n - 1] and weight.tolist() == [1, n - 2, 1]
        dense = np.repeat(distinct[:, : n // (short + 1) + 1], short + 1, axis=1)
        rep, weight = runs_of(dense)
        assert rep.size == 3 * (n // (short + 1) + 1) <= share * dense.shape[1]

    def test_ghost_cells_of_compressed_cells_are_those_of_every_cell(self):
        # Runs A B A B: a transmissive ghost copies its neighbour, a
        # reflective one flips the sign of hu (-0.0 here), a periodic one
        # copies the other end, which differs from its neighbour here and
        # equals it in A B A.  The compressed cells, three per run whatever
        # the bc, pad to the same ghost cells bit for bit, and their steps
        # are those of every cell.
        n = 2 * timeloop_mod.RUNS_MIN_CELLS
        a = np.repeat(np.array([[1.0, 0.0, 1.0, 1.0], [0.1, 0.0, 0.1, 0.1]] * 2).T, n // 4, axis=1)
        for cells, bc in ((a, "transmissive"), (a, "reflective"), (a, "periodic"),
                          (a[:, : 3 * n // 4], "periodic")):
            runs = runs_of(cells)
            assert runs[0].size == 3 * cells.shape[1] // (n // 4), bc
            ghosts = [apply_boundary(q, bc)[:, [0, -1]]
                      for q in (cells, compressed(cells, runs))]
            assert ghosts[0].tobytes() == ghosts[1].tobytes(), bc
            assert np.signbit(ghosts[1][1]).all() == (bc == "reflective"), bc
            args = (cells, Grid.uniform(0.0, 1.0, cells.shape[1]), P10, StepControl(bc=bc), 2)
            assert with_runs(True, stepped, *args) == with_runs(False, stepped, *args), bc

    @pytest.mark.parametrize("cfg, on_runs", [
        (preset_smooth_wave(10.0, cells=4096, bc="transmissive"), False),
        (preset_dam_break(10.0, cells=4096), True),
        ("one and seven", True),
        ("one and six", False),
    ])
    def test_density_gate(self, cfg, on_runs, monkeypatch):
        # The smooth wave has no runs; the dam break is a few.  Runs of one
        # cell and of seven cells alternating are 4 compressed cells per 8,
        # under the gate; of one and six, 4 per 7, over it.  On the
        # compressed cells, the cell state runs on them padded and the
        # source on them.
        sizes = []

        def spy(stage):
            def wrapper(q, *args):
                sizes.append(q.shape[1])
                return stage(q, *args)
            return wrapper

        monkeypatch.setattr(timeloop_mod, "_cell_state", spy(_cell_state))
        monkeypatch.setattr(timeloop_mod, "source_step", spy(source_step))
        if isinstance(cfg, str):
            assert 4 / 8 <= timeloop_mod.COMPRESSED_MAX_SHARE < 4 / 7
            cfg = (1, 7) if cfg == "one and seven" else (1, 6)
            pair = sum(cfg)
            n = 4096 // pair * pair
            pieces = sample_states(P10, n // pair * 2, np.random.default_rng(7)).conserved()
            q = np.repeat(pieces, cfg * (n // pair), axis=1)
            full_step(SimState(0.0, q), Grid.uniform(0.0, 1.0, n), P10, StepControl(bc="periodic"))
            m = n // pair * 4 if on_runs else n
            assert sizes == [m + 2, m]
            return
        grid = Grid.uniform(cfg.x_min, cfg.x_max, cfg.cells)
        full_step(SimState(0.0, initial_condition(cfg, grid)), grid, cfg.params,
                  StepControl(bc=cfg.bc))
        if on_runs:
            assert sizes[0] == sizes[1] + 2 and sizes[1] < 10
        else:
            assert sizes == [cfg.cells + 2, cfg.cells]

    def test_one_scan_per_step_and_none_with_carried_runs(self, monkeypatch):
        # A hand-built state is scanned once; the states the step on runs
        # makes carry their runs, across run()'s landings on output times;
        # a state without runs is scanned once, and the states that the step
        # on every cell makes are not scanned.  Scans of the runs' own
        # columns are not scans of the grid.
        scans = []

        def spy(a):
            scans.append(a.shape[1])
            return _column_runs(a)

        monkeypatch.setattr(timeloop_mod, "_column_runs", spy)
        cfg = dataclasses.replace(preset_dam_break(10.0, cells=4096), t_end=0.002, snapshots=4)
        result = run(cfg)
        assert result.steps > 4 and [k for k in scans if k >= cfg.cells] == [cfg.cells]
        assert result.state._carried_runs is not None
        smooth = preset_smooth_wave(10.0, cells=4096, bc="periodic")
        grid = Grid.uniform(smooth.x_min, smooth.x_max, smooth.cells)
        state = SimState(0.0, initial_condition(smooth, grid))
        scans.clear()
        for _ in range(3):
            state, _ = full_step(state, grid, smooth.params, StepControl(bc="periodic"))
        assert state._carried_runs is None and scans == [smooth.cells]

    def test_state_made_on_every_cell_is_not_scanned(self, monkeypatch):
        # A 4096-cell dam break stepped once on every cell (gate closed),
        # then twice with the gate open: its runs would pay, but a state made
        # by the step on every cell steps on every cell, with no scan.
        n, scans, sizes = 4096, [], []

        def scan(a):
            scans.append(a.shape[1])
            return _column_runs(a)

        def cells(q, *args):
            sizes.append(q.shape[1])
            return _cell_state(q, *args)

        monkeypatch.setattr(timeloop_mod, "_column_runs", scan)
        monkeypatch.setattr(timeloop_mod, "_cell_state", cells)
        grid = Grid.uniform(0.0, 1.0, n)
        with pytest.MonkeyPatch.context() as mp:
            force_runs(mp, False)
            state, _ = full_step(dam_break_state(n), grid, P10)
        assert runs_of(state.q) is not None and scans == []
        sizes.clear()
        for _ in range(2):
            state, _ = full_step(state, grid, P10)
            assert state._carried_runs is None
        assert scans == [] and sizes == [n + 2] * 2

    def test_run_across_the_gate_is_the_run_on_every_cell(self):
        # A 32-cell dam break with the gate open to every grid: it steps on
        # its runs until its compressed cells pass half its cells (after 6
        # steps), then on every cell.  Its times, cells, F and diagnostics
        # are those of the steps with the runs forced on and forced off.
        args = (dam_break_state(32).q, Grid.uniform(0.0, 1.0, 32), P10, StepControl(), 10)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeloop_mod, "RUNS_MIN_CELLS", 0)
            crossing = runs_outcome(stepped, *args)
            state, in_run_space = dam_break_state(32), []
            for _ in range(10):
                state, _ = full_step(state, args[1], P10)
                in_run_space.append(state._carried_runs is not None)
        assert in_run_space == [True] * 6 + [False] * 4
        assert len(crossing) == 40
        assert crossing == with_runs(True, stepped, *args) == with_runs(False, stepped, *args)

    def test_runs_do_not_survive_replace(self):
        cfg = preset_dam_break(10.0, cells=4096)
        grid = Grid.uniform(cfg.x_min, cfg.x_max, cfg.cells)
        state, _ = full_step(SimState(0.0, initial_condition(cfg, grid)), grid, cfg.params)
        assert state._carried_runs is not None
        assert dataclasses.replace(state, t=1.0)._carried_runs is None

    def test_unequal_self_pair_fluxes_step_every_cell(self, monkeypatch):
        # interface_fluxes with f_left's depth row moved where the two sides
        # are equal, on a grid whose linspace widths differ by rounding: the
        # skew moves every inner cell of a run by the same flux difference
        # over the same dx, so the step on compressed cells still gives the
        # bits of the step on every cell, with no fallback.
        def skewed(fan):
            f = interface_fluxes(fan)
            f[0, 0, (fan.sides[:4, 0] == fan.sides[:4, 1]).all(axis=0)] += 1e-9
            return f

        grid = Grid.uniform(0.0, 1.3, 17)
        assert np.unique(np.diff(grid.edges)).size > 1
        args = (dam_break_state(17).q, grid, P10, StepControl(), 3)
        plain = with_runs(False, stepped, *args)
        monkeypatch.setattr(timeloop_mod, "interface_fluxes", skewed)
        want = with_runs(False, stepped, *args)
        assert want != plain
        assert with_runs(True, stepped, *args) == want

    def test_relaxed_cells_own_their_array(self, monkeypatch):
        force_runs(monkeypatch)
        state, _ = full_step(dam_break_state(16), Grid.uniform(0.0, 1.0, 16), P10)
        assert state._carried_runs is not None
        q_new, f_new = state.q, state._carried_f[1]
        assert q_new.base is None and q_new.shape == (4, 16) and f_new.base is None
        cells = state._carried_runs[0]
        assert cells.base is None and cells.flags.c_contiguous

    def test_source_postcondition_error_names_cells(self, monkeypatch):
        # An F that the relaxation raises: the check's worst entry and count are per cell.
        se = equilibrium_sigma(P10)
        monkeypatch.setattr(timeloop_mod, "_free_energy", lambda p, params: -(p.sxx - se) ** 2)
        sxx = np.repeat([1.0, 2.0, 1.0, 3.0], [3, 1, 2, 4])
        q = np.array([np.ones(10), np.zeros(10), sxx, np.full(10, 1.0)])
        args = (q, Grid.uniform(0.0, 1.0, 10), P10, StepControl(), 1)
        want = with_runs(False, stepped, *args)
        assert want[0][0] is SourceSolveFailure and want[0][2] == (7,)
        assert want[0][1].endswith("(10 offending entries)")
        assert with_runs(True, stepped, *args) == want


class TestRunSpace:
    """A state made by the step on compressed cells holds its runs, with no
    (4, n) array until its q is read."""

    n = 4096

    def stepped(self, q=None, params=P10):
        grid = Grid.uniform(0.0, 1.0, self.n)
        state = SimState(0.0, dam_break_state(self.n).q if q is None else q)
        return full_step(state, grid, params)[0]

    def test_q_is_built_on_first_read_and_cached(self):
        state = self.stepped()
        assert "q" not in vars(state)
        cells, starts, lengths = state._carried_runs
        assert cells.shape == (4, starts.size) and lengths.sum() == self.n
        assert state._carried_f[1].shape == starts.shape
        q = state.q
        assert vars(state)["q"] is q and state.q is q and not q.flags.writeable
        assert q.shape == (4, self.n) and q.tobytes() == np.repeat(cells, lengths, axis=1).tobytes()

    @pytest.mark.parametrize("cells, grid_cells", [(4096, 8192), (4096, 2048), (100, 256), (100, 50)])
    def test_state_that_does_not_fit_the_grid(self, cells, grid_cells):
        # A ValueError naming both cell counts, before any check or scan,
        # for a plain state and a state in run space (counted from its runs,
        # with no q built), admissible or not.
        plain = dam_break_state(cells)
        spoiled = SimState(0.0, plain.q.copy())
        spoiled.q[H, 0] = -1.0
        states = [plain, spoiled]
        if cells >= timeloop_mod.RUNS_MIN_CELLS:
            states.append(full_step(plain, Grid.uniform(0.0, 1.0, cells), P10)[0])
            assert states[-1]._carried_runs is not None
        for state in states:
            with pytest.raises(ValueError) as err:
                full_step(state, Grid.uniform(0.0, 1.0, grid_cells), P10)
            assert type(err.value) is ValueError
            assert str(err.value) == f"a state of {cells} cells on a grid of {grid_cells} cells"
        if cells >= timeloop_mod.RUNS_MIN_CELLS:
            assert "q" not in vars(states[-1])

    def test_replace_reads_the_full_q_and_carries_nothing(self):
        state = self.stepped()
        plain = dataclasses.replace(state, t=1.0)
        assert plain.t == 1.0 and plain.q is state.q and plain.q.shape == (4, self.n)
        assert plain._carried_f is None and plain._carried_runs is None
        assert vars(plain)["q"] is plain.q

    def test_built_by_hand_from_t_and_q(self):
        q = dam_break_state(self.n).q
        state = SimState(t=0.25, q=q)
        assert state.t == 0.25 and state.q is q
        assert state._carried_f is None and state._carried_runs is None

    @pytest.mark.parametrize("case", ["one cell", "whole run", "new params"])
    def test_inadmissible_runs_raise_the_every_cell_error(self, case):
        # The check on one cell per run fails, and the check on every cell
        # gives the error: one cell inside the left run of 2048 cells (a run
        # of its own), the whole right run of 2048 cells, and every cell of a
        # state in run space checked under an ell below its traces.
        q = dam_break_state(self.n).q.copy()
        params, state = P10, None
        if case == "one cell":
            q[HSXX, 1000] = -q[HSXX, 1000]
        elif case == "whole run":
            q[HSXX, 2048:] = 20.0 * q[H, 2048:]
        else:
            q[HSXX:] *= 1.5   # traces of 3
            state, params = self.stepped(q), dataclasses.replace(P10, ell=2.5)
            assert state._carried_runs is not None
            q = state.q
        assert runs_of(q) is not None
        with pytest.raises(AdmissibilityError) as want:
            require_admissible(primitive(q), params, "cell state")
        with pytest.raises(AdmissibilityError) as got:
            full_step(SimState(0.0, q) if state is None else state, Grid.uniform(0.0, 1.0, self.n),
                      params)
        assert (str(got.value), got.value.index) == (str(want.value), want.value.index)
        count = {"one cell": 1, "whole run": 2048, "new params": self.n}[case]
        assert str(want.value).endswith(f"({count} offending entries)")


class TestCarry:
    """full_step's output carries its free energy into the next step."""

    @staticmethod
    def chain(params, p, bc, restart):
        # Six steps; with restart each input is rebuilt by hand, so it carries nothing.
        grid = Grid.uniform(0.0, 1.0, p.h.size)
        state = SimState(0.0, p.conserved())
        trail = []
        try:
            for _ in range(6):
                if restart:
                    state = SimState(state.t, state.q.copy())
                state, diag = full_step(state, grid, params, StepControl(bc=bc))
                trail.append((state.t, state.q.tobytes(), diag))
        except SolverError as e:
            trail.append((type(e), str(e)))
        return trail

    @given(piecewise_cases())
    def test_carried_chain_equals_rechecked_chain(self, case):
        assert self.chain(*case, restart=False) == self.chain(*case, restart=True)

    def test_output_array_is_read_only(self):
        grid = Grid.uniform(0.0, 1.0, 8)
        state, _ = full_step(dam_break_state(8), grid, P10)
        assert type(state.q) is np.ndarray and not state.q.flags.writeable
        with pytest.raises(ValueError):
            state.q[H, 0] = 2.0
        copy = state.q.copy()   # the caller's own, independent of the state
        assert copy.flags.writeable
        copy[H, 0] = 2.0
        assert state.q[H, 0] == 1.0

    def test_carried_energy_is_hidden_from_init_repr_and_eq(self):
        grid = Grid.uniform(0.0, 1.0, 8)
        state, _ = full_step(dam_break_state(8), grid, P10)
        plain = SimState(state.t, state.q)
        assert state == plain and repr(state) == repr(plain)
        with pytest.raises(TypeError):
            SimState(0.0, state.q, None)


@pytest.fixture
def guarded_calls(monkeypatch):
    """Counts of model.is_admissible and model.free_energy calls, through every
    name bound to them in a loaded fenepsv module."""
    counts = dict.fromkeys(("is_admissible", "free_energy"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "fenepsv"]
    for name in counts:
        original = getattr(model_mod, name)
        wrapper = counting(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


class TestCheckBudget:
    """The step checks each state once per stage, whatever the input."""

    grid = Grid.uniform(0.0, 1.0, 32)

    def stepped(self):
        state, _ = full_step(dam_break_state(32), self.grid, P10)
        return state

    def test_step_from_step_output(self, guarded_calls):
        state = self.stepped()
        guarded_calls.update(is_admissible=0, free_energy=0)
        full_step(state, self.grid, P10)
        assert guarded_calls["is_admissible"] <= 2 and guarded_calls["free_energy"] == 0

    def test_step_from_hand_built_state(self, guarded_calls):
        full_step(dam_break_state(32), self.grid, P10)
        assert guarded_calls["is_admissible"] <= 3 and guarded_calls["free_energy"] == 0

    def test_replace_and_new_params_drop_the_carried_energy(self, guarded_calls):
        state = self.stepped()
        for state_in, params in (
            (dataclasses.replace(state, t=1.0), P10),
            (state, dataclasses.replace(P10, ell=20.0)),
        ):
            guarded_calls.update(is_admissible=0)
            full_step(state_in, self.grid, params)
            assert guarded_calls["is_admissible"] == 3
