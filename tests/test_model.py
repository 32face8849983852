"""State containers, admissibility, pressure law, free energy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    dP_dh_frozen,
    dissipation_rate,
    equilibrium_sigma,
    free_energy,
    internal_energy,
    is_admissible,
    normal_stress,
    primitive,
    require_admissible,
    total_pressure,
)
from fenepsv.oracles import sample_states

P10 = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=10.0)


# strategy for admissible states at ell=10: trace capped at 0.95*ell
@st.composite
def admissible(draw):
    h = 10.0 ** draw(st.floats(-2.0, 2.0))
    u = draw(st.floats(-10.0, 10.0))
    s = draw(st.floats(0.01 * P10.ell, 0.95 * P10.ell))
    r = draw(st.floats(0.05, 0.95))
    return Primitive(h, u, r * s, (1.0 - r) * s)


class TestPhysParams:
    def test_valid(self):
        p = PhysParams(g=9.81, G=0.0, lam=1.0, zeta=0.5, ell=2.5)
        assert p.g == 9.81 and p.ell == 2.5

    @pytest.mark.parametrize(
        "kw",
        [
            dict(g=0.0),
            dict(g=-1.0),
            dict(G=-0.1),
            dict(lam=0.0),
            dict(zeta=-0.01),
            dict(zeta=0.51),
            dict(ell=2.0),
            dict(ell=1.0),
        ],
    )
    def test_rejects(self, kw):
        base = dict(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=10.0)
        base.update(kw)
        with pytest.raises(ValueError):
            PhysParams(**base)


class TestContainers:
    def test_round_trip_scalar(self):
        p = Primitive(2.0, -1.5, 0.3, 0.7)
        q = p.conserved()
        assert q[H] == 2.0 and q[HU] == -3.0 and q[HSXX] == 0.6 and q[HSZZ] == 1.4
        back = primitive(q)
        assert np.isclose(back.u, p.u, rtol=1e-15)
        assert np.isclose(back.sxx, p.sxx, rtol=1e-15)

    @given(admissible())
    def test_round_trip_property(self, p):
        back = primitive(p.conserved())
        for a, b in ((back.h, p.h), (back.u, p.u), (back.sxx, p.sxx), (back.szz, p.szz)):
            assert np.isclose(a, b, rtol=1e-14, atol=1e-300)

    def test_array_round_trip(self, rng):
        # `primitive` inverts `Primitive.conserved` on 0-d, 1-d and 2-d states.
        s = sample_states(P10, 64, rng)
        for shape in ((), (64,), (8, 8)):
            p = Primitive(*(np.reshape(v, shape) if shape else float(v[0])
                            for v in (s.h, s.u, s.sxx, s.szz)))
            q = p.conserved()
            assert q.shape == (4,) + shape and q.dtype == np.float64
            back = primitive(q)
            assert np.array_equal(back.h, p.h) and np.array_equal(q[HSZZ], p.h * p.szz)
            for a, b in ((back.u, p.u), (back.sxx, p.sxx), (back.szz, p.szz)):
                assert np.shape(a) == shape and np.allclose(a, b, rtol=1e-14, atol=0.0)

    def test_copy_is_independent(self):
        p = Primitive(np.ones(3), np.zeros(3), np.ones(3), np.ones(3))
        q = p.conserved()
        c = q.copy()
        c[H, 0] = 7.0
        assert q[H, 0] == 1.0
        q[H, 1] = 5.0   # `conserved` returns a fresh array: p.h is not a view into it
        assert p.h[1] == 1.0


class TestAdmissibility:
    def test_good_state(self):
        assert bool(np.all(is_admissible(Primitive(1.0, 0.0, 1.0, 1.0), P10)))

    @pytest.mark.parametrize(
        "p",
        [
            Primitive(0.0, 0.0, 1.0, 1.0),
            Primitive(-1.0, 0.0, 1.0, 1.0),
            Primitive(1.0, 0.0, 0.0, 1.0),
            Primitive(1.0, 0.0, 1.0, -0.5),
            Primitive(1.0, 0.0, 5.0, 5.0),
            Primitive(1.0, 0.0, 9.0, 2.0),
        ],
    )
    def test_bad_states(self, p):
        assert not bool(np.all(is_admissible(p, P10)))

    def test_require_raises_with_index(self):
        h = np.ones(5)
        sxx = np.ones(5)
        sxx[3] = -1.0
        with pytest.raises(AdmissibilityError, match="3") as err:
            require_admissible(Primitive(h, np.zeros(5), sxx, np.ones(5)), P10)
        msg = str(err.value)
        assert "at index (3,): h=1.0, sxx=-1.0, szz=1.0, ell=10.0 (1 offending entries)" in msg
        assert "np." not in msg

    def test_trace_gap_names_its_cell(self):
        p = Primitive(np.ones(3), np.zeros(3), np.array([1.0, 6.0, 1.0]), np.array([1.0, 5.0, 1.0]))
        with pytest.raises(AdmissibilityError) as err:
            normal_stress(p, P10)
        assert str(err.value) == (
            "conformation trace reached the extensibility bound at index (1,): "
            "sxx=6.0, szz=5.0, ell=10.0 (1 offending entries)"
        )

    def test_admissibility_errors_stay_value_errors(self):
        for cls in (AdmissibilityError, NonHyperbolicError):
            assert issubclass(cls, SolverError) and issubclass(cls, ValueError)
        with pytest.raises(ValueError):
            require_admissible(Primitive(-1.0, 0.0, 1.0, 1.0), P10)

    def test_error_names_worst_offending_entry(self):
        bad = np.array([[False, True], [True, False]])
        worst = np.array([[0.0, 1.0], [5.0, 9.0]])
        err = SolverError.at("w", bad, worst=worst, v=worst)
        assert err.index == (1, 0) and err.values == {"v": 5.0}
        assert str(err) == "w at index (1, 0): v=5.0 (2 offending entries)"
        plain = SolverError("text")
        assert (str(plain), plain.index, plain.values) == ("text", (), {})

    def test_trace_at_bound_rejected(self):
        assert not bool(np.all(is_admissible(Primitive(1.0, 0.0, 5.0, 5.0), P10)))


class TestPressureLaw:
    def test_normal_stress_zero_when_isotropic(self):
        p = Primitive(1.0, 0.0, 1.0, 1.0)
        assert normal_stress(p, P10) == 0.0
        assert total_pressure(p, P10) == pytest.approx(5.0, rel=1e-15)

    def test_normal_stress_sign(self, rng):
        p = sample_states(P10, 500, rng)
        n = normal_stress(p, P10)
        assert np.all(np.sign(n) == np.sign(p.szz - p.sxx))

    def test_dP_dh_frozen_pinned(self):
        # high-precision derivative along the frozen path: 10.755102040816326531
        p = Primitive(1.0, 0.0, 2.0, 1.0)
        assert float(dP_dh_frozen(p, P10)) == pytest.approx(10.755102040816327, rel=1e-15)

    def test_dP_dh_reduces_to_gh_without_elasticity(self, rng):
        params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
        p = sample_states(params, 200, rng)
        assert np.array_equal(np.asarray(dP_dh_frozen(p, params)), np.asarray(params.g * p.h))

    def test_dP_dh_dominates_gravity(self, rng):
        for zeta in (0.0, 0.25, 0.5):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=zeta, ell=10.0)
            p = sample_states(params, 2000, rng)
            assert np.all(dP_dh_frozen(p, params) >= params.g * p.h * (1.0 - 1e-12))

    def test_nonhyperbolic_guard(self):
        # opposite-sign conformation (inadmissible) drives dP/dh negative
        p = Primitive(1e-3, 0.0, 0.5, -0.4)
        with pytest.raises(NonHyperbolicError) as err:
            dP_dh_frozen(p, P10)
        assert str(err.value) == (
            "dP/dh non-positive (state left the hyperbolic region) at index (0,): "
            "dPdh=-0.04417814508723602, h=0.001, sxx=0.5, szz=-0.4 (1 offending entries)"
        )


class TestFreeEnergy:
    def test_pinned_values(self):
        # mpmath 50-digit references
        assert float(free_energy(Primitive(1.0, 0.0, 2.0, 1.0), P10)) == pytest.approx(
            5.032108337284264, rel=1e-15
        )
        assert float(free_energy(Primitive(1.0, 0.0, 1.0, 1.0), P10)) == pytest.approx(
            5.0, rel=1e-15
        )

    def test_kinetic_part(self):
        f0 = float(free_energy(Primitive(1.0, 0.0, 1.0, 1.0), P10))
        f1 = float(free_energy(Primitive(1.0, 3.0, 1.0, 1.0), P10))
        assert f1 - f0 == pytest.approx(0.5 * 9.0, rel=1e-14)

    def test_internal_energy_consistency(self, rng):
        p = sample_states(P10, 300, rng)
        f = free_energy(p, P10)
        e = internal_energy(p, P10)
        assert np.allclose(f, p.h * (0.5 * p.u**2 + e), rtol=1e-13)

    def test_dissipation_pinned(self):
        assert float(dissipation_rate(Primitive(1.0, 0.0, 1.0, 1.0), P10)) == -0.0625

    def test_dissipation_nonpositive(self, rng):
        for ell in (3.0, 10.0, 1e4):
            params = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.25, ell=ell)
            p = sample_states(params, 3000, rng)
            assert np.all(dissipation_rate(p, params) <= 0.0)

    def test_dissipation_zero_only_at_equilibrium(self):
        se = float(equilibrium_sigma(P10))
        assert float(dissipation_rate(Primitive(2.0, 1.0, se, se), P10)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_equilibrium_sigma_pinned(self):
        assert float(equilibrium_sigma(P10)) == pytest.approx(5.0 / 6.0, rel=1e-15)
        p100 = PhysParams(g=10.0, G=0.1, lam=0.1, zeta=0.0, ell=100.0)
        assert float(equilibrium_sigma(p100)) == pytest.approx(100.0 / 102.0, rel=1e-15)

    @given(admissible(), admissible())
    def test_midpoint_convexity(self, p1, p2):
        qm = 0.5 * (p1.conserved() + p2.conserved())
        f1 = float(free_energy(p1, P10))
        f2 = float(free_energy(p2, P10))
        fm = float(free_energy(primitive(qm), P10))
        assert fm <= 0.5 * (f1 + f2) + 1e-12 * (abs(f1) + abs(f2))
