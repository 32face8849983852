"""Relaxation Riemann solver: speeds, star states, fluxes, symmetries."""

import dataclasses

import fan_reference
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fenepsv.riemann as riemann_mod
import fenepsv.timeloop as timeloop_mod
from fenepsv.model import (
    H,
    HSXX,
    HSZZ,
    HU,
    NonHyperbolicError,
    PhysParams,
    Primitive,
    dP_dh_frozen,
    free_energy,
    is_admissible,
    primitive,
    total_pressure,
)
from fenepsv.oracles import rh_residuals, sample_states
from fenepsv.riemann import (
    ALPHA,
    BETA,
    EHAT,
    FLUX,
    P,
    PROJ,
    U,
    W1,
    W2,
    StarStateError,
    cell_state,
    energy_flux,
    interface_fluxes,
    interface_sides,
    relaxation_speeds,
    side_pair,
    star_states,
    subcharacteristic_monitor,
    w_bounds,
)
from fenepsv.timeloop import Grid, StepControl, SubcharacteristicViolation
from test_timeloop import fluxes as stepped_fluxes
from test_timeloop import force_runs, runs_outcome

P10 = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=10.0)

PARAM_GRID = [
    PhysParams(g=10.0, G=0.1, lam=0.1, zeta=z, ell=l)
    for l in (3.0, 10.0, 100.0, 1e4)
    for z in (0.0, 0.25, 0.5)
]


def sides_of(q_l, q_r, params=P10):
    return side_pair(cell_state(q_l, params), cell_state(q_r, params))


def speeds(q_l, q_r, params=P10):
    """(c_l, c_r) as one (2, ...) array."""
    return relaxation_speeds(sides_of(q_l, q_r, params))


def fan_of(q_l, q_r, params=P10, c=None):
    sides = sides_of(q_l, q_r, params)
    return star_states(sides, relaxation_speeds(sides) if c is None else c, params)


def fluxes(q_l, q_r, params=P10):
    """(f, fan): f[0] = f_left and f[1] = f_right."""
    fan = fan_of(q_l, q_r, params)
    return interface_fluxes(fan), fan


def exact_flux(q, params=P10):
    return cell_state(q, params)[FLUX]


def zero_f0(fan):
    """The same fan with the sides' exact fluxes replaced by zero."""
    sides = fan.sides.copy()
    sides[FLUX] = 0.0
    return dataclasses.replace(fan, sides=sides)


def project(h, hu, w1, w2, zeta):
    """A relaxed state projected back to conserved variables via the invariants."""
    sxx = w1 * np.power(h, 2.0 * (zeta - 1.0))
    szz = w2 * np.power(h, 2.0 * (1.0 - zeta))
    return np.array([h, hu, h * sxx, h * szz])


def fan_states(fan):
    """The four fan states projected to conserved variables, in fan order:
    the (4, 4, ...) array indexed [state, component]."""
    outer = fan.sides[PROJ]
    return np.stack((outer[:, 0], fan.star[:, 0], fan.star[:, 1], outer[:, 1]))


def relaxed_states(fan):
    """(h, hu, hpi, hE) of the four fan states, in fan order; the outer states
    have hpi = h P and hE = h (u^2/2 + ehat)."""
    sides, star = fan.sides, fan.star
    outer = []
    for k in (0, 1):
        h = sides[H, k]
        hE = h * (sides[U, k] ** 2 / 2.0 + sides[EHAT, k])
        outer.append((h, sides[HU, k], h * sides[P, k], hE))
    stars = [(star[H, k], star[HU, k], fan.hpi[k], fan.hE[k]) for k in (0, 1)]
    return outer[0], stars[0], stars[1], outer[1]


def mirror_conserved(q: np.ndarray) -> np.ndarray:
    def rev(a):
        return np.flip(np.asarray(a, dtype=float), axis=-1) if np.ndim(a) else np.asarray(a)

    return np.array([rev(q[H]), -rev(q[HU]), rev(q[HSXX]), rev(q[HSZZ])])


class TestSpeedIngredients:
    def test_w_bounds_pinned(self):
        # 50-digit references for sxx = szz = 1, ell = 10
        wm, wp = w_bounds(Primitive(1.0, 0.0, 1.0, 1.0), P10)
        assert float(wm) == pytest.approx(0.1010205144336438, rel=1e-14)
        assert float(wp) == pytest.approx(9.898979485566356, rel=1e-14)

    def test_w_bounds_product_identity(self, rng):
        # w- * w+ = sxx / szz, a consequence of the quadratic they solve
        for params in PARAM_GRID[:6]:
            p = sample_states(params, 400, rng)
            wm, wp = w_bounds(p, params)
            assert np.allclose(wm * wp, p.sxx / p.szz, rtol=1e-12)

    def test_w_bounds_bracket_unity(self, rng):
        # the untouched state (w = 1) always lies strictly inside (w-, w+)
        p = sample_states(P10, 500, rng)
        wm, wp = w_bounds(p, P10)
        assert np.all(wm < 1.0) and np.all(wp > 1.0)

    def test_alpha_beta_pinned(self):
        cells = cell_state(Primitive(1.0, 0.0, 1.0, 1.0).conserved(), P10)
        assert float(cells[ALPHA]) == 2.0
        assert float(cells[BETA]) == pytest.approx(0.4659258262890683, rel=1e-14)

    def test_alpha_floor_two(self, rng):
        p = sample_states(P10, 500, rng)
        assert np.all(cell_state(p.conserved(), P10)[ALPHA] >= 2.0)

    def test_alpha_inf_guard(self):
        # szz -> 0 sends w+ -> inf; the amplifier must fall back to its floor
        p = Primitive(1.0, 0.0, 1.0, 1e-300)
        assert float(cell_state(p.conserved(), P10)[ALPHA]) == 2.0

    def test_beta_positive(self, rng):
        p = sample_states(P10, 500, rng)
        b = cell_state(p.conserved(), P10)[BETA]
        assert np.all(b > 0.0) and np.all(np.isfinite(b))

    def test_cell_state_slices_field_by_field(self, rng):
        # Each column of the block is its cell's: the block of a slice of the
        # cells is the slice of the block, and the interface sides are views.
        q = sample_states(P10, 50, rng).conserved()
        cells = cell_state(q, P10)
        part = cell_state(q[:, 3:9], P10)
        assert part.shape == (cells.shape[0], 6)
        assert part.tobytes() == cells[:, 3:9].copy().tobytes()
        assert np.array_equal(part[H], q[H, 3:9]) and np.array_equal(part[HU], q[HU, 3:9])
        sides = interface_sides(cells)
        assert sides.shape == (cells.shape[0], 2, 49) and np.shares_memory(sides, cells)
        assert np.array_equal(sides[:, 0], cells[:, :-1]) and np.array_equal(sides[:, 1], cells[:, 1:])

    def test_cell_flux_is_exact_flux_bitwise(self, rng):
        # Reference: the exact flux (hu, hu u + P, h sxx u, h szz u) written out.
        for params in (P10, PARAM_GRID[7]):
            q = sample_states(params, 500, rng).conserved()
            p = primitive(q)
            P = total_pressure(p, params)
            want = np.stack([q[HU], q[HU] * p.u + P, q[HSXX] * p.u, q[HSZZ] * p.u])
            assert cell_state(q, params)[FLUX].tobytes() == want.tobytes()

    @pytest.mark.parametrize("zeta", [0.0, 0.25, 0.5])
    def test_cell_projection_matches_per_side_projection(self, rng, zeta):
        # Reference: each side's outer fan state projected on its own.
        params = dataclasses.replace(P10, zeta=zeta)
        cells = cell_state(sample_states(params, 1000, rng).conserved(), params)
        sides = interface_sides(cells)
        fan = star_states(sides, relaxation_speeds(sides), params)
        for k, got in ((0, cells[PROJ, :-1]), (3, cells[PROJ, 1:])):
            side = sides[:, k // 3]
            want = project(side[H], side[HU], side[W1], side[W2], zeta)
            assert got.tobytes() == want.tobytes() == fan_states(fan)[k].tobytes()


class TestSpeeds:
    def test_at_rest_equal_states_yield_sound_speed(self):
        q = Primitive(1.0, 0.0, 1.0, 1.0).conserved()
        c_l, c_r = speeds(q, q)
        a = np.sqrt(dP_dh_frozen(primitive(q), P10))
        assert float(c_l) == float(q[H] * a)
        assert float(c_r) == float(q[H] * a)

    def test_dam_break_pinned(self):
        ql = Primitive(1.0, 0.0, 1.0, 1.0).conserved()
        qr = Primitive(0.1, 0.0, 1.0, 1.0).conserved()
        c_l, c_r = speeds(ql, qr)
        assert float(c_l) == pytest.approx(3.24037034920393, rel=1e-14)
        assert float(c_r) == pytest.approx(0.4168680878491373, rel=1e-14)

    def test_speeds_exceed_sound_baseline(self, rng):
        for params in PARAM_GRID[:4]:
            q_l = sample_states(params, 300, rng).conserved()
            q_r = sample_states(params, 300, rng).conserved()
            c_l, c_r = speeds(q_l, q_r, params)
            pl, pr = primitive(q_l), primitive(q_r)
            assert np.all(c_l >= q_l[H] * np.sqrt(dP_dh_frozen(pl, params)) * (1 - 1e-14))
            assert np.all(c_r >= q_r[H] * np.sqrt(dP_dh_frozen(pr, params)) * (1 - 1e-14))


class TestStarStates:
    def test_equal_states_reproduce_input_bitwise(self):
        q = Primitive(1.7, -0.3, 0.8, 1.1).conserved()
        fan = fan_of(q, q)
        q_l, q_l_star, q_r_star, _ = relaxed_states(fan)
        for h, hu, _, _ in (q_l_star, q_r_star):
            assert float(h) == float(q[H])
            assert float(hu) == float(q[H] * fan.s2)
        assert float(q_l_star[2]) == float(q_l[2])   # hpi
        assert float(q_l_star[3]) == float(q_l[3])   # hE

    def test_dam_break_star_pins(self):
        ql = Primitive(1.0, 0.0, 1.0, 1.0).conserved()
        qr = Primitive(0.1, 0.0, 1.0, 1.0).conserved()
        fan = fan_of(ql, qr)
        assert float(fan.s2) == pytest.approx(1.3534802516153732, rel=1e-14)
        assert float(fan.star[H, 0]) == pytest.approx(0.7053712954065195, rel=1e-14)
        assert float(fan.star[H, 1]) == pytest.approx(0.1480775770896768, rel=1e-14)
        pi_star = float(fan.hpi[0] / fan.star[H, 0])
        assert pi_star == pytest.approx(0.61422272443247, rel=1e-13)

    def test_ordering_and_positivity_battery(self, rng):
        for params in PARAM_GRID:
            q_l = sample_states(params, 2000, rng).conserved()
            q_r = sample_states(params, 2000, rng).conserved()
            fan = fan_of(q_l, q_r, params)
            assert np.all(fan.star[H, 0] > 0) and np.all(fan.star[H, 1] > 0)
            assert np.all(fan.s1 <= fan.s2) and np.all(fan.s2 <= fan.s3)
            # contact spacing equals the Lagrangian gap, strictly positive
            assert np.all(fan.s2 - fan.s1 > 0) and np.all(fan.s3 - fan.s2 > 0)

    def test_projected_stars_admissible(self, rng):
        for params in PARAM_GRID:
            q_l = sample_states(params, 1500, rng).conserved()
            q_r = sample_states(params, 1500, rng).conserved()
            fan = fan_of(q_l, q_r, params)
            sides = fan.sides
            for k in (0, 1):
                star = fan.star[:, k]
                want = project(star[H], star[HU], sides[W1, k], sides[W2, k], params.zeta)
                assert star.tobytes() == want.tobytes()
                proj = primitive(star)
                assert bool(np.all(is_admissible(proj, params)))

    def test_rh_residuals_battery(self, rng):
        for params in PARAM_GRID:
            q_l = sample_states(params, 1500, rng).conserved()
            q_r = sample_states(params, 1500, rng).conserved()
            fan = fan_of(q_l, q_r, params)
            rep = rh_residuals(fan)
            assert rep.max_residual() <= 1e-10
            assert rep.transport_gap == 0.0

    def test_insufficient_speeds_rejected(self):
        ql = Primitive(1.0, 8.0, 1.0, 1.0).conserved()
        qr = Primitive(0.01, -8.0, 1.0, 1.0).conserved()
        msg = (
            r"^non-positive star depth at index \(0,\): "
            r"c_l=1e-06, c_r=1e-06 \(1 offending entries\)$"
        )
        with pytest.raises(StarStateError, match=msg) as err:
            fan_of(ql, qr, c=np.array([1e-6, 1e-6]))
        assert "np." not in str(err.value)

    @given(
        st.floats(-1.5, 1.5), st.floats(-5.0, 5.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0),
        st.floats(-1.5, 1.5), st.floats(-5.0, 5.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0),
    )
    def test_never_fails_on_admissible_pairs(self, lh, lu, ls1, ls2, rh_, ru, rs1, rs2):
        q_l = Primitive(10.0**lh, lu, ls1, ls2).conserved()
        q_r = Primitive(10.0**rh_, ru, rs1, rs2).conserved()
        fan = fan_of(q_l, q_r)
        assert np.isfinite(float(fan.s2))


class TestEnergyFluxRegion:
    def test_region_selection(self):
        # energy_flux samples the ray xi = 0; shifting every wave speed by -xi
        # moves the sampled ray to xi.  Moving sides make the four fluxes distinct.
        ql = Primitive(1.0, 0.5, 1.0, 1.0).conserved()
        qr = Primitive(0.1, -0.3, 1.0, 1.0).conserved()
        fan = fan_of(ql, qr)
        s1, s2, s3 = float(fan.s1), float(fan.s2), float(fan.s3)

        def at(xi):
            return float(energy_flux(dataclasses.replace(fan, s=fan.s - xi)))

        def g(st_):
            h, hu, hpi, hE = st_
            return float(hu / h * (hE + hpi / h))

        g_l, g_ls, g_rs, g_r = (g(st_) for st_ in relaxed_states(fan))
        assert len({g_l, g_ls, g_rs, g_r}) == 4
        assert at(s1 - 1.0) == g_l
        assert at(0.5 * (s1 + s2)) == g_ls
        assert at(0.5 * (s2 + s3)) == g_rs
        assert at(s3 + 1.0) == g_r
        # ties resolve to the state left of the wave
        assert at(s1) == g_l
        assert at(s2) == g_ls
        assert at(s3) == g_rs


class TestFluxes:
    def test_equal_state_consistency_bitwise(self):
        for p in (Primitive(1.0, 0.0, 1.0, 1.0), Primitive(0.3, -2.0, 2.0, 0.5)):
            q = p.conserved()
            (f_left, f_right), _ = fluxes(q, q)
            exact = exact_flux(q)
            assert np.array_equal(f_left, exact)
            assert np.array_equal(f_right, exact)

    def test_dam_break_flux_pins(self):
        ql = Primitive(1.0, 0.0, 1.0, 1.0).conserved()
        qr = Primitive(0.1, 0.0, 1.0, 1.0).conserved()
        (f_left, f_right), _ = fluxes(ql, qr)
        want_left = (0.9547061183890778, 1.9063986017684553, -1.353480251615373, 2.103141163932926)
        want_right = (0.9547061183890778, 1.9063986017684553, 1.6920680957191732, 0.972210023364402)
        got_l = [float(v) for v in np.ravel(f_left)]
        got_r = [float(v) for v in np.ravel(f_right)]
        assert got_l == pytest.approx(want_left, rel=1e-14)
        assert got_r == pytest.approx(want_right, rel=1e-14)

    def test_conservative_components_shared(self, rng):
        q_l = sample_states(P10, 1000, rng).conserved()
        q_r = sample_states(P10, 1000, rng).conserved()
        (f_left, f_right), _ = fluxes(q_l, q_r)
        assert np.array_equal(f_left[:2], f_right[:2])

    def test_left_supersonic_upwinds(self):
        # both states moving right much faster than every wave
        q_l = Primitive(1.0, 20.0, 1.0, 1.0).conserved()
        q_r = Primitive(1.1, 21.0, 1.2, 0.9).conserved()
        (f_left, _), fan = fluxes(q_l, q_r)
        assert float(fan.s1) > 0
        exact_l = exact_flux(q_l)
        # nonconservative components upwind exactly; conservative to roundoff
        assert np.array_equal(f_left[2:], exact_l[2:])
        assert np.allclose(f_left, exact_l, rtol=1e-12)

    def test_f0_independence(self, rng):
        q_l = sample_states(P10, 1000, rng).conserved()
        q_r = sample_states(P10, 1000, rng).conserved()
        fan = fan_of(q_l, q_r)
        pe_left, pe_right = interface_fluxes(fan)
        pz_left, pz_right = interface_fluxes(zero_f0(fan))
        f0l = exact_flux(q_l)
        f0r = exact_flux(q_r)
        scale = np.abs(pe_left) + np.abs(f0l) + np.abs(f0r) + 1.0
        assert np.all(np.abs(pe_left[2:] - (f0l[2:] + pz_left[2:])) <= 1e-13 * scale[2:])
        assert np.all(np.abs(pe_right[2:] - (f0r[2:] + pz_right[2:])) <= 1e-13 * scale[2:])
        central_shift = 0.5 * (f0l[:2] + f0r[:2])
        assert np.all(np.abs(pe_left[:2] - (central_shift + pz_left[:2])) <= 1e-13 * scale[:2])

    def test_mirror_bit_exact_battery(self, rng):
        for params in (P10, PARAM_GRID[7]):
            q_l = sample_states(params, 3000, rng).conserved()
            q_r = sample_states(params, 3000, rng).conserved()
            (f_left, f_right), fan = fluxes(q_l, q_r, params)
            # mirrored problem: swap sides, negate velocities
            ml = np.array([q_r[H], -q_r[HU], q_r[HSXX], q_r[HSZZ]])
            mr = np.array([q_l[H], -q_l[HU], q_l[HSXX], q_l[HSZZ]])
            (mf_left, mf_right), mfan = fluxes(ml, mr, params)
            assert np.array_equal(np.asarray(mfan.s1), -np.asarray(fan.s3))
            assert np.array_equal(np.asarray(mfan.s2), -np.asarray(fan.s2))
            assert np.array_equal(np.asarray(mfan.s3), -np.asarray(fan.s1))
            sign = np.array([-1.0, 1.0, -1.0, -1.0])[:, None]
            assert np.array_equal(mf_left, sign * f_right)
            assert np.array_equal(mf_right, sign * f_left)

    @staticmethod
    def two_sided_pi_star_residual(q_l, q_r, params, c, fan):
        """|lhs - rhs| of the two one-sided star pressures, and 1e-10 of their scale."""
        c_l, c_r = c
        pl, pr = primitive(q_l), primitive(q_r)
        pi_l = total_pressure(pl, params)
        pi_r = total_pressure(pr, params)
        lhs = pi_l + c_l * (pl.u - fan.s2)
        rhs = pi_r + c_r * (fan.s2 - pr.u)
        scale = np.maximum.reduce(
            [np.abs(pi_l), np.abs(pi_r), c_l * np.abs(pl.u), c_r * np.abs(pr.u)]
        )
        return np.abs(lhs - rhs), 1e-10 * scale + 1e-300

    def test_two_sided_pi_star_battery(self, rng):
        # The fan does not check that the one-sided star pressures agree:
        # the contact speed u* makes them equal by algebra.  This checks the
        # identity on sampled states, and on extreme data one interface at a
        # time, where the fan returns; where it raises, the error is one of
        # the checks that rounding can break.
        for params in PARAM_GRID[::3]:
            q_l = sample_states(params, 1500, rng).conserved()
            q_r = sample_states(params, 1500, rng).conserved()
            c = speeds(q_l, q_r, params)
            res, tol = self.two_sided_pi_star_residual(q_l, q_r, params, c, fan_of(q_l, q_r, params, c))
            assert np.all(res <= tol)

        def extreme_state(params):
            # depths 1e-100 to 1e100, velocities up to +-1e150, and half the
            # traces within 1e-16 to 1e-1 of ell (relative)
            while True:
                h = 10.0 ** rng.uniform(-100.0, 100.0)
                u = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, 150.0)
                near = rng.random() < 0.5
                fraction = 1.0 - 10.0 ** rng.uniform(-16.0, -1.0) if near else rng.uniform(0.001, 0.999)
                trace = params.ell * fraction
                share = rng.uniform(0.001, 0.999)
                q = Primitive(h, u, share * trace, (1.0 - share) * trace).conserved()
                p = primitive(q)
                if is_admissible(p, params) and 1.0 - (p.sxx + p.szz) / params.ell > 0.0:
                    return q

        checks = ("non-positive star depth", "inadmissible star conformation", "unordered wave speeds")
        returned = {"production": 0, "scaled": 0}
        for _ in range(1500):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=rng.uniform(0.0, 0.5),
                                ell=2.0 + 10.0 ** rng.uniform(-4.0, 12.0))
            q_l, q_r = extreme_state(params), extreme_state(params)
            with np.errstate(all="ignore"):   # the fluxes and energies of such cells overflow
                sides = side_pair(cell_state(q_l, params), cell_state(q_r, params))
                c0 = relaxation_speeds(sides)
                for kind, c in (("production", c0), ("scaled", c0 * rng.uniform(0.05, 1.0))):
                    try:
                        fan = star_states(sides, c, params)
                    except StarStateError as e:
                        assert str(e).startswith(checks), str(e)
                        continue
                    returned[kind] += 1
                    res, tol = self.two_sided_pi_star_residual(q_l, q_r, params, c, fan)
                    assert res <= tol, (q_l, q_r, params, kind)
        assert min(returned.values()) >= 100, returned


def concatenated_fluxes(fan):
    """`interface_fluxes` written with a temporary per operation and the two
    outputs joined by np.concatenate: the reference for its in-place form."""
    proj = fan_states(fan)
    d1 = proj[1] - proj[0]
    d2 = proj[2] - proj[1]
    d3 = proj[3] - proj[2]
    s1, s2, s3 = fan.s1, fan.s2, fan.s3
    f0_l, f0_r = fan.sides[FLUX, 0], fan.sides[FLUX, 1]

    central = 0.5 * (
        (f0_l[:2] + f0_r[:2]) - ((np.abs(s1) * d1[:2] + np.abs(s3) * d3[:2]) + np.abs(s2) * d2[:2])
    )
    d1, d2, d3 = d1[2:], d2[2:], d3[2:]
    left = (np.minimum(s1, 0.0) * d1 + np.minimum(s3, 0.0) * d3) + np.minimum(s2, 0.0) * d2
    right = (np.maximum(s1, 0.0) * d1 + np.maximum(s3, 0.0) * d3) + np.maximum(s2, 0.0) * d2
    return np.concatenate([central, f0_l[2:] + left]), np.concatenate([central, f0_r[2:] - right])


class TestFluxAssembly:
    """interface_fluxes fills a fresh array in place, bit for bit the concatenated form."""

    @staticmethod
    def assert_reference_bits(fan):
        f = interface_fluxes(fan)
        for got, want in zip(f, concatenated_fluxes(fan)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        return f

    @staticmethod
    def mixed_states(params, n, rng):
        # Random states, with equal-state, resting and supersonic interfaces mixed in.
        q_l = sample_states(params, n, rng).conserved()
        q_r = sample_states(params, n, rng).conserved()
        q_r[:, ::7] = q_l[:, ::7]
        q_l[1, 1::5] = q_r[1, 1::5] = 0.0
        q_l[1, 2::9] = 40.0 * q_l[0, 2::9]
        q_r[1, 2::9] = 41.0 * q_r[0, 2::9]
        return q_l, q_r

    def test_fuzzed_fans(self, rng):
        for params in PARAM_GRID:
            fan = fan_of(*self.mixed_states(params, 600, rng), params)
            self.assert_reference_bits(fan)
            self.assert_reference_bits(zero_f0(fan))

    def test_zero_dimensional_fans(self, rng):
        p = sample_states(P10, 40, rng)
        for k in range(0, 40, 2):
            q_l = Primitive(*(float(a[k]) for a in (p.h, p.u, p.sxx, p.szz))).conserved()
            q_r = Primitive(*(float(a[k + 1]) for a in (p.h, p.u, p.sxx, p.szz))).conserved()
            for fan in (fan_of(q_l, q_r), fan_of(q_l, q_l)):
                assert np.ndim(fan.s1) == 0
                assert self.assert_reference_bits(fan)[0].shape == (4,)
                self.assert_reference_bits(zero_f0(fan))

    def test_outputs_are_fresh_arrays(self, rng):
        fan = fan_of(*self.mixed_states(P10, 50, rng))
        f = interface_fluxes(fan)
        inputs = [fan.s, fan.c, fan.sides, fan.star, fan.hpi, fan.hE]
        assert f.flags.owndata and f.flags.writeable
        for out in f:
            assert not any(np.shares_memory(out, a) for a in inputs)
        assert not np.shares_memory(f[0], f[1])
        again = interface_fluxes(fan)
        assert not np.shares_memory(again, f)


class TestEnergyAndMonitor:
    def test_energy_flux_consistent(self):
        p = Primitive(1.3, 0.8, 1.2, 0.9)
        q = p.conserved()
        got = float(energy_flux(fan_of(q, q)))
        want = float(p.u * (free_energy(p, P10) + total_pressure(p, P10)))
        assert got == pytest.approx(want, rel=1e-14)

    def test_endpoint_states_satisfy_subchar_bound(self, rng):
        # the chosen speeds dominate the sound speed of both input states;
        # star-state ratios are diagnostic only (strict mode enlarges speeds)
        for params in PARAM_GRID[:6]:
            q_l = sample_states(params, 1000, rng).conserved()
            q_r = sample_states(params, 1000, rng).conserved()
            for q, c in zip((q_l, q_r), speeds(q_l, q_r, params)):
                ratio = q[H]**2 * dP_dh_frozen(primitive(q), params) / c**2
                assert np.all(ratio <= 1.0 + 1e-12)

    def test_monitor_finite_on_random_pairs(self, rng):
        q_l = sample_states(P10, 2000, rng).conserved()
        q_r = sample_states(P10, 2000, rng).conserved()
        fan = fan_of(q_l, q_r)
        ratio = subcharacteristic_monitor(fan, P10)
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)

    def test_doubling_speeds_lowers_monitor(self):
        ql = Primitive(1.0, 5.0, 1.0, 1.0).conserved()
        qr = Primitive(0.01, -5.0, 1.0, 1.0).conserved()
        c = speeds(ql, qr)
        fan = fan_of(ql, qr, c=c)
        r0 = float(np.max(subcharacteristic_monitor(fan, P10)))
        fan2 = fan_of(ql, qr, c=2.0 * c)
        r2 = float(np.max(subcharacteristic_monitor(fan2, P10)))
        assert r2 < r0

    def test_monitor_exactly_one_at_rest(self):
        q = Primitive(1.0, 0.0, 1.0, 1.0).conserved()
        fan = fan_of(q, q)
        assert float(np.max(subcharacteristic_monitor(fan, P10))) == pytest.approx(1.0, rel=1e-14)


def fuzzed_cells(params, n, rng):
    """(4, n) admissible cells in runs of 1 to 4 equal cells, mixing resting,
    supersonic (in runs of 2 to 5, whose inner fans sample an outer state),
    near-bound and random states."""
    columns = []
    while len(columns) < n:
        length = int(rng.integers(1, 5))
        h = 10.0 ** rng.uniform(-1.0, 0.5)
        trace, share = params.ell * rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.95)
        u = rng.uniform(-2.0, 2.0)
        kind = rng.integers(4)
        if kind == 0:     # resting
            u = 0.0
        elif kind == 1:   # supersonic
            u = rng.choice((-40.0, 40.0)) * np.sqrt(params.g * h)
            length += 1
        elif kind == 2:   # near the extensibility bound
            trace, share = params.ell * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0)), rng.uniform(0.001, 0.999)
        col = [h, h * u, h * share * trace, h * (1.0 - share) * trace]
        columns.extend([col] * length)
    return np.array(columns[:n]).T.copy()


def both_fans(q_l, q_r, params, factor=1.0):
    """The fan of the pairs (q_l, q_r) with speeds scaled by factor: the
    arguments of `star_states` here and in the dataclass reference."""
    sides = sides_of(q_l, q_r, params)
    c = factor * relaxation_speeds(sides)
    l, r = fan_reference.cell_state(q_l, params), fan_reference.cell_state(q_r, params)
    return (sides, c, params), (l, r, fan_reference.SpeedPair(c[0], c[1]), params)


def mirrored(q: np.ndarray) -> np.ndarray:
    return np.array([q[H], -q[HU], q[HSXX], q[HSZZ]])


def joined(*pairs):
    """The pairs (q_l, q_r) of each argument side by side."""
    return tuple(np.stack([p[k] for p in pairs], axis=-1) for k in (0, 1))


# Pairs whose fan fails with speeds scaled by `factor` (zeta, left, right, factor).
STAR_DEPTH_PAIR = (0.5, (4.916334261664324, 5513.71380490387, 0.7078781839693354, 1.6194209250376184),
                   (4.17503707257038, -9894.693908688507, 3.740652035942647, 4.24236461441509), 0.05)
# Only the left star conformation leaves the admissible region here.
LEFT_CONFORMATION_PAIR = (
    0.0, (0.05052782509665583, -1301.0489554971584, 8.66119805870801, 1.0735033926260267),
    (3.409518983315859, -2151.9067133044364, 0.47266443497352284, 6.31979325463572), 0.5,
)
CONFORMATION_PAIR = (0.5, (0.06843477383116864, -4.902608246917508, 2.270968198517138, 2.2308364666622365),
                     (0.45760636463045185, 9910005.668687852, 6.123163686193537, 0.13018889297956243), 0.2)
ORDERING_PAIR = (0.0, (9.485445107337489, 7.082344005146935e+84, 1.145650623801955, 0.31885361685223346),
                 (10.52357994451008, 7.082344005146935e+84, 5.3716076127483525, 0.15874679637620812), 0.5)


class TestAgainstDataclassFan:
    """The fan on stacked arrays gives the bits, and raises the errors, of the
    fan on one dataclass per state (`fan_reference`)."""

    @pytest.mark.parametrize("zeta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("strict", [False, True])
    def test_fuzzed_steps_are_bitwise_the_reference(self, zeta, strict, rng):
        params = dataclasses.replace(P10, zeta=zeta)
        for bc in ("transmissive", "periodic", "reflective") * 2:
            q = fuzzed_cells(params, 160, rng)
            grid = Grid.uniform(0.0, 1.0, q.shape[1])
            control = StepControl(bc=bc, strict_subchar=strict)
            want = runs_outcome(fan_reference.reference_fluxes, q, grid, params, control)
            for on in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    force_runs(mp, on)
                    assert runs_outcome(stepped_fluxes, q, grid, params, control) == want, (bc, on)

    @pytest.mark.parametrize("case", [STAR_DEPTH_PAIR, LEFT_CONFORMATION_PAIR, CONFORMATION_PAIR,
                                      ORDERING_PAIR])
    def test_star_state_errors_are_the_reference_errors(self, case):
        # Each failing pair, its mirror (whose other star fails) and a sound
        # pair, in both orders: the left stars are checked over every
        # interface before the right ones, and only one side is counted.
        zeta, pl, pr, factor = case
        params = dataclasses.replace(P10, zeta=zeta)
        bad = (Primitive(*pl).conserved(), Primitive(*pr).conserved())
        mirror = (mirrored(bad[1]), mirrored(bad[0]))
        sound = (Primitive(1.0, 0.0, 1.0, 1.0).conserved(), Primitive(0.5, 0.1, 1.2, 0.8).conserved())
        for pairs in ((bad,), (mirror,), (mirror, sound, bad), (bad, sound, mirror, mirror)):
            q_l, q_r = joined(*pairs)
            with np.errstate(all="ignore"):
                new, old = both_fans(q_l, q_r, params, factor)
            want = runs_outcome(lambda: fan_reference.star_states(*old))
            assert want[0] is StarStateError
            assert runs_outcome(lambda: [star_states(*new).s]) == want

    def test_monitor_error_on_right_stars_is_the_reference_error(self, monkeypatch):
        # dP/dh turned negative where the star depth is below 0.3: in a dam
        # break that is the right star state of every interface only.
        q_l = Primitive(np.ones(5), np.zeros(5), np.ones(5), np.ones(5)).conserved()
        q_r = Primitive(np.full(5, 0.1), np.array([0.0, 0.0, 0.0, 0.5, 0.0]), np.ones(5), np.ones(5)).conserved()
        new, old = both_fans(q_l, q_r, P10)
        fans = star_states(*new), fan_reference.star_states(*old)
        real = dP_dh_frozen

        def shallow_fails(p, params, terms=None):
            bad = p.h < 0.3
            h, sxx, szz = (np.where(bad, v, x) for v, x in
                           ((1e-6, p.h), (params.ell / 8.0, p.sxx), (-params.ell / 8.0, p.szz)))
            return real(Primitive(h, p.u, sxx, szz), params)

        for mod in (riemann_mod, fan_reference):
            monkeypatch.setattr(mod, "dP_dh_frozen", shallow_fails)
        want = runs_outcome(lambda: [fan_reference.subcharacteristic_monitor(fans[1], P10)])
        assert want[0] is NonHyperbolicError and want[1].endswith("(5 offending entries)")
        assert runs_outcome(lambda: [subcharacteristic_monitor(fans[0], P10)]) == want

    def test_subcharacteristic_violation_is_the_reference_error(self, monkeypatch):
        q = Primitive(np.where(np.arange(12) < 6, 1.0, 0.1), np.zeros(12), np.ones(12), np.ones(12))
        args = (q.conserved(), Grid.uniform(0.0, 1.0, 12), P10, StepControl(strict_subchar=True))

        def stuck(fan, params):   # above 1 where the left cell is shallow
            h = fan.sides[H, 0] if hasattr(fan, "sides") else fan.left.h
            return np.where(h < 0.5, 2.0, 0.5)

        monkeypatch.setattr(timeloop_mod, "subcharacteristic_monitor", stuck)
        monkeypatch.setattr(fan_reference, "subcharacteristic_monitor", stuck)
        want = runs_outcome(fan_reference.reference_fluxes, *args)
        assert want[0] is SubcharacteristicViolation
        for on in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                force_runs(mp, on)
                assert runs_outcome(stepped_fluxes, *args) == want
