"""The verification oracles themselves: each must detect corruption and
agree with closed forms where those exist."""

import numpy as np
import pytest

from fenepsv.model import PhysParams, Primitive, dP_dh_frozen
from fenepsv.oracles import (
    OracleError,
    convexity_sampler,
    exact_sw_dam_break,
    fd_dP_dh,
    newton_source_2x2,
    rh_residuals,
    run_all_checks,
    sample_states,
    sw_dam_break_structure,
)
from fenepsv.riemann import H, cell_state, relaxation_speeds, side_pair, star_states

P10 = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=10.0)


class TestFiniteDifferenceOracle:
    def test_reduces_to_gh_without_elasticity(self, rng):
        params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
        p = sample_states(params, 100, rng)
        assert np.allclose(fd_dP_dh(p, params), params.g * p.h, rtol=1e-8)

    def test_matches_closed_form(self, rng):
        for zeta in (0.0, 0.25, 0.5):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=zeta, ell=10.0)
            p = sample_states(params, 500, rng)
            got = fd_dP_dh(p, params)
            want = dP_dh_frozen(p, params)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6

    def test_rejects_boundary_states(self):
        # trace so close to ell that any depth perturbation exits the region
        p = Primitive(1.0, 0.0, 5.0 - 1e-13, 5.0 - 1e-13)
        with pytest.raises(OracleError):
            fd_dP_dh(p, P10, step_fraction=1e-2)


class TestNewtonSourceOracle:
    def test_equilibrium_fixed_point(self):
        se = 10.0 / 12.0
        sxx, szz = newton_source_2x2(np.full(3, se), np.full(3, se), 0.5, P10)
        assert np.max(np.abs(sxx - se)) <= 1e-12
        assert np.max(np.abs(szz - se)) <= 1e-12

    def test_symmetric_inputs_stay_symmetric(self, rng):
        s0 = rng.uniform(0.1, 4.0, 50)
        sxx, szz = newton_source_2x2(s0, s0.copy(), 0.07, P10)
        assert np.array_equal(sxx, szz)

    def test_dt_zero_identity(self):
        sxx, szz = newton_source_2x2(np.array([1.0]), np.array([2.0]), 0.0, P10)
        assert sxx[0] == 1.0 and szz[0] == 2.0

    def test_result_solves_the_implicit_equations(self, rng):
        p = sample_states(P10, 300, rng)
        dt = 0.02
        r = dt / P10.lam
        sxx, szz = newton_source_2x2(p.sxx, p.szz, dt, P10)
        Q = 1.0 - (sxx + szz) / P10.ell
        res1 = (sxx - p.sxx) / r - (1.0 - sxx / Q)
        res2 = (szz - p.szz) / r - (1.0 - szz / Q)
        tol = 1e-12 * (2.0 + P10.ell / r)
        assert np.max(np.abs(res1)) <= tol and np.max(np.abs(res2)) <= tol


class TestRHOracle:
    def make_fan(self, rng, params=P10, n=200):
        q_l = sample_states(params, n, rng).conserved()
        q_r = sample_states(params, n, rng).conserved()
        sides = side_pair(cell_state(q_l, params), cell_state(q_r, params))
        return star_states(sides, relaxation_speeds(sides), params)

    def test_valid_fans_pass(self, rng):
        rep = rh_residuals(self.make_fan(rng))
        assert rep.max_residual() <= 1e-10
        assert rep.transport_gap == 0.0
        assert rep.residuals.shape[:2] == (3, 4)

    def test_detects_corrupted_energy(self, rng):
        fan = self.make_fan(rng, n=50)
        fan.hE[0] = fan.hE[0] * (1.0 + 1e-6)   # the left star state's
        assert rh_residuals(fan).max_residual() > 1e-8

    def test_detects_corrupted_depth(self, rng):
        fan = self.make_fan(rng, n=50)
        fan.star[H, 1] = fan.star[H, 1] * (1.0 + 1e-7)   # the right star state's
        assert rh_residuals(fan).max_residual() > 1e-9

    def test_detects_corrupted_speed(self, rng):
        fan = self.make_fan(rng, n=50)
        fan.s[1] = fan.s[1] * (1.0 + 1e-7)
        assert rh_residuals(fan).max_residual() > 1e-9


class TestExactDamBreak:
    def test_middle_state_pinned(self):
        # 40-digit solve of the depth equation for (h_l, h_r, g) = (1, 0.1, 10)
        hm, um, S, head, tail = sw_dam_break_structure(1.0, 0.1, 10.0)
        assert hm == pytest.approx(0.3961748167994429, rel=1e-13)
        assert um == pytest.approx(2.343727181371486, rel=1e-13)
        assert S == pytest.approx(3.1350595460534434, rel=1e-12)
        assert head == -np.sqrt(10.0)
        assert tail == pytest.approx(0.35331311188884973, rel=1e-12)

    def test_far_fields(self):
        x = np.array([-10.0, 10.0])
        h, u = exact_sw_dam_break(1.0, 0.1, 10.0, x, 0.1)
        assert h.tolist() == [1.0, 0.1]
        assert u.tolist() == [0.0, 0.0]

    def test_equal_states_constant(self):
        h, u = exact_sw_dam_break(1.0, 1.0, 10.0, np.linspace(-1, 1, 11), 0.5)
        assert np.all(h == 1.0) and np.all(u == 0.0)

    def test_time_zero_step(self):
        h, u = exact_sw_dam_break(1.0, 0.1, 10.0, np.array([-0.1, 0.1]), 0.0)
        assert h.tolist() == [1.0, 0.1]

    def test_depth_monotone_decreasing(self):
        x = np.linspace(-0.5, 0.5, 2001)
        h, _ = exact_sw_dam_break(1.0, 0.1, 10.0, x, 0.1)
        assert np.all(np.diff(h) <= 1e-12)

    def test_rejects_reversed_inputs(self):
        with pytest.raises(ValueError):
            exact_sw_dam_break(0.1, 1.0, 10.0, np.array([0.0]), 0.1)

    def test_rarefaction_matches_invariant(self):
        # inside the fan: u + 2 sqrt(g h) equals the left-state invariant
        x = np.linspace(-0.25, 0.01, 101)
        h, u = exact_sw_dam_break(1.0, 0.1, 10.0, x, 0.1)
        inv = u + 2.0 * np.sqrt(10.0 * h)
        assert np.allclose(inv, 2.0 * np.sqrt(10.0), rtol=1e-12)


class TestConvexityOracle:
    def test_passes_on_model(self, rng):
        rep = convexity_sampler(P10, 2000, rng)
        assert rep.passed
        assert rep.details["midpoint_violations"] == 0


class TestSamplerAndBattery:
    def test_sample_states_admissible_everywhere(self, rng):
        from fenepsv.model import is_admissible

        for ell in (3.0, 10.0, 1e4):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.25, ell=ell)
            p = sample_states(params, 5000, rng)
            assert bool(np.all(is_admissible(p, params)))
            assert p.h.min() >= 1e-2 and p.h.max() <= 1e2

    def test_run_all_checks_green(self):
        reports = run_all_checks(samples=300)
        for rep in reports:
            assert rep.passed, rep.line()
        names = {r.name for r in reports}
        assert {"fd_dP_dh", "newton_source_2x2", "rh_residuals", "exact_sw_dam_break"} <= names
