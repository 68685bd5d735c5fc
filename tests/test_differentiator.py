import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import rhs
from stwdiff import DiffState, Params, StepScheme, init, solve_sigma, step_explicit, step_implicit

P_REF = Params(4.1, 1.1, 1.0, 4.0)
EXP = StepScheme("explicit", 5e-4)
IMP = StepScheme("implicit", 5e-4)


class TestTypes:
    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            StepScheme("midpoint", 1e-3)
        with pytest.raises(ValueError):
            StepScheme("implicit", 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                StepScheme("explicit", bad)

    def test_state_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for y1, y2 in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(ValueError, match="finite"):
                    DiffState(y1, y2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scheme", [EXP, IMP], ids=["explicit", "implicit"])
    def test_step_on_non_finite_input_raises(self, bad, scheme):
        step = step_implicit if scheme is IMP else step_explicit
        with pytest.raises(ValueError, match="finite"):
            step(DiffState(0.2, -0.1), bad, scheme, P_REF)

    # The update itself overflows here, from finite inputs: the new state's
    # own check refuses it.
    @pytest.mark.parametrize(
        "step, kind, state",
        [(step_implicit, "implicit", DiffState(0.0, 1.7e308)), (step_explicit, "explicit", DiffState(1.7e308, 1.7e308))],
        ids=["implicit", "explicit"],
    )
    def test_step_that_overflows_raises(self, step, kind, state):
        with pytest.raises(ValueError, match=re.escape("state must be finite, got (inf, 1.7e+308)")):
            step(state, 0.0, StepScheme(kind, 0.5), P_REF)

    def test_state_is_frozen(self):
        s = DiffState(0.25, -1.5)
        for name in ("y1", "y2"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, 1.0)
        assert (s.y1, s.y2) == (0.25, -1.5)

    def test_state_is_equal_and_hashed_by_value(self):
        s, same = DiffState(0.25, -1.5), DiffState(0.25, -1.5)
        assert s is not same and s == same and hash(s) == hash(same)
        assert len({s, same, DiffState(-1.5, 0.25)}) == 2
        assert s != DiffState(0.25, 1.5) and s != (0.25, -1.5)

    def test_state_has_no_instance_dict(self):
        s = DiffState(0.25, -1.5)
        assert not hasattr(s, "__dict__")
        assert DiffState.__slots__ == ("y1", "y2")

    def test_state_constructor_keeps_the_dataclass_contract(self):
        s = DiffState(y1=0.25, y2=-1.5)
        assert s == DiffState(0.25, -1.5) and repr(s) == "DiffState(y1=0.25, y2=-1.5)"
        assert DiffState.__match_args__ == ("y1", "y2")
        assert [f.name for f in dataclasses.fields(DiffState)] == ["y1", "y2"]
        for args in ((), (0.25,), (0.25, -1.5, 0.0)):
            with pytest.raises(TypeError):
                DiffState(*args)
        with pytest.raises(ValueError) as direct:
            DiffState(math.nan, -1.5)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(s, y1=math.nan)
        assert str(replaced.value) == str(direct.value) == "state must be finite, got (nan, -1.5)"


class TestInit:
    @pytest.mark.parametrize("u0", [0.0, 0.01, -3.5])
    def test_starts_on_measurement(self, u0):
        assert init(u0) == DiffState(u0, 0.0)


class TestRhs:
    def test_unit_input(self):
        assert rhs(DiffState(0.0, 0.0), 1.0, P_REF) == (4.1, 1.1)

    def test_odd(self):
        assert rhs(DiffState(1.0, 0.0), 0.0, P_REF) == (-4.1, -1.1)

    def test_selection_on_the_surface(self):
        assert rhs(DiffState(0.0, 5.0), 0.0, P_REF, selection=0.0) == (5.0, 0.0)
        assert rhs(DiffState(0.0, 5.0), 0.0, P_REF, selection=1.0) == (5.0, 1.1)
        with pytest.raises(ValueError):
            rhs(DiffState(0.0, 5.0), 0.0, P_REF, selection=1.5)


class TestExplicit:
    def test_equilibrium(self):
        assert step_explicit(DiffState(0.0, 0.0), 0.0, EXP, P_REF) == DiffState(0.0, 0.0)

    def test_hand_checked_step(self):
        got = step_explicit(init(0.0), 0.01, EXP, P_REF)
        assert got.y1 == pytest.approx(5e-4 * 4.1 * 0.1, rel=1e-15)
        assert got.y2 == pytest.approx(5e-4 * 1.1, rel=1e-15)

    def test_first_order_only(self):
        # Two half steps differ from one full step: the scheme is order one.
        s0 = DiffState(0.0, 0.3)
        full = step_explicit(s0, 1.0, EXP, P_REF)
        half_scheme = StepScheme("explicit", EXP.dt / 2)
        half = step_explicit(step_explicit(s0, 1.0, half_scheme, P_REF), 1.0, half_scheme, P_REF)
        assert (full.y1, full.y2) != (half.y1, half.y2)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            step_explicit(init(0.0), 0.0, IMP, P_REF)

    def test_is_forward_euler_on_rhs_bit_for_bit(self):
        # step_explicit does not call rhs; this ties the scheme to the field.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            p = Params(rng.uniform(2.0, 12.0), rng.uniform(0.5, 6.0), rng.uniform(0.2, 5.0), 4.0)
            scheme = StepScheme("explicit", float(rng.choice([1e-5, 1e-4, 5e-4, 2e-3])))
            s = DiffState(*rng.uniform(-3.0, 3.0, size=2).tolist())
            u = s.y1 + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 0.5))
            assert u != s.y1
            dy1, dy2 = rhs(s, u, p)
            want = (s.y1 + scheme.dt * dy1, s.y2 + scheme.dt * dy2)
            got = step_explicit(s, u, scheme, p)
            assert (got.y1.hex(), got.y2.hex()) == (want[0].hex(), want[1].hex()), (s, u, p)


class TestImplicit:
    def test_equilibrium_no_chattering(self):
        s = init(0.0)
        for _ in range(50):
            s = step_implicit(s, 0.0, IMP, P_REF)
        assert s == DiffState(0.0, 0.0)

    def test_generic_step_matches_bisection(self):
        got = step_implicit(init(0.0), 0.01, IMP, P_REF)
        sigma = 0.01 - got.y1
        assert sigma == pytest.approx(0.009796818299997902, rel=1e-12)
        assert got.y2 == pytest.approx(5.5e-4, rel=1e-15)
        a = IMP.dt * 4.1
        b = IMP.dt**2 * 1.1
        sig_oracle, _ = oracles.bisect_sigma(0.01, a, b)
        assert abs(sigma - sig_oracle) <= 1e-12 * max(1.0, abs(sigma))

    def test_deadzone_branch(self):
        got = step_implicit(init(0.0), 1e-8, IMP, P_REF)
        assert got.y1 == 1e-8
        assert got.y2 == pytest.approx(2e-5, rel=1e-12)
        # Consistency: y1' = y1 + dt * y2' when sigma = 0.
        assert got.y1 == pytest.approx(0.0 + IMP.dt * got.y2, rel=1e-12)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            step_implicit(init(0.0), 0.0, EXP, P_REF)


def implicit_residuals(s, u, dt, p, after):
    """Residuals of the backward-Euler relations at the returned state."""
    sigma = u - after.y1
    res1 = after.y1 - (s.y1 + dt * (p.lambda1 * math.sqrt(p.L) * math.copysign(math.sqrt(abs(sigma)), sigma) + after.y2))
    if sigma != 0.0:
        xi = math.copysign(1.0, sigma)
    else:
        xi = (after.y2 - s.y2) / (dt * p.lambda2 * p.L)
        assert -1.0 - 1e-12 <= xi <= 1.0 + 1e-12
    res2 = after.y2 - (s.y2 + dt * p.lambda2 * p.L * xi)
    return res1, res2


class TestImplicitProperties:
    def test_residuals_on_random_steps(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            s = DiffState(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            u = float(rng.uniform(-5, 5))
            dt = float(10 ** rng.uniform(-5, -2))
            scheme = StepScheme("implicit", dt)
            after = step_implicit(s, u, scheme, P_REF)
            scale = max(1.0, abs(after.y1), abs(after.y2))
            r1, r2 = implicit_residuals(s, u, dt, P_REF, after)
            assert abs(r1) <= 1e-12 * scale
            assert abs(r2) <= 1e-12 * scale

    def test_odd_symmetry_both_schemes(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            s = DiffState(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            neg = DiffState(-s.y1, -s.y2)
            u = float(rng.uniform(-3, 3))
            ei = step_implicit(s, u, IMP, P_REF)
            ei_n = step_implicit(neg, -u, IMP, P_REF)
            assert (ei_n.y1, ei_n.y2) == (-ei.y1, -ei.y2)
            ee = step_explicit(s, u, EXP, P_REF)
            ee_n = step_explicit(neg, -u, EXP, P_REF)
            assert (ee_n.y1, ee_n.y2) == (-ee.y1, -ee.y2)

    def test_deadzone_correctness(self):
        rng = np.random.default_rng(44)
        dt = 1e-3
        scheme = StepScheme("implicit", dt)
        b = dt * dt * P_REF.lambda2 * P_REF.L
        for _ in range(500):
            y1 = float(rng.uniform(-2, 2))
            y2 = float(rng.uniform(-2, 2))
            r = float(rng.uniform(-b, b))
            u = r + y1 + dt * y2  # engineered to land in the deadzone
            after = step_implicit(DiffState(y1, y2), u, scheme, P_REF)
            r_actual = u - y1 - dt * y2
            if abs(r_actual) <= b:  # guard against rounding pushing r outside
                assert after.y1 == u
                assert abs(after.y2 - y2) <= dt * P_REF.lambda2 * P_REF.L * (1 + 1e-12)

    def test_schemes_agree_to_second_order(self):
        # Richardson halving on a state away from the sliding surface: the
        # one-step gap between implicit and explicit shrinks like dt^2.
        s = DiffState(0.3, 0.2)
        u = 1.7
        gaps = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            imp = step_implicit(s, u, StepScheme("implicit", dt), P_REF)
            exp = step_explicit(s, u, StepScheme("explicit", dt), P_REF)
            gaps.append(math.hypot(imp.y1 - exp.y1, imp.y2 - exp.y2))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.25)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.25)


class TestSolveSigma:
    def test_random_triples_match_bisection(self):
        rng = np.random.default_rng(45)
        for _ in range(2000):
            dt = float(10 ** rng.uniform(-5, -2))
            a = dt * P_REF.lambda1 * math.sqrt(P_REF.L)
            b = dt * dt * P_REF.lambda2 * P_REF.L
            r = float(rng.uniform(-10, 10)) * (10 ** float(rng.uniform(-8, 0)))
            sigma, xi = solve_sigma(r, a, b)
            sig_o, xi_o = oracles.bisect_sigma(r, a, b)
            assert abs(sigma - sig_o) <= 1e-12 * max(1.0, abs(sigma))
            if sigma != 0.0:
                assert xi == xi_o
            else:
                assert -1.0 <= xi <= 1.0


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestSolveSigmaProperties:
    @settings(max_examples=300)
    @given(r=finite(-1e3, 1e3), a=finite(1e-8, 1e3), b=finite(1e-12, 1e3), near=st.booleans(), gap=finite(0.0, 1e-6))
    def test_residual_within_ulps_and_xi_in_sign_set(self, r, a, b, near, gap):
        if near:  # just outside the deadzone |r| <= b, or on its edge
            r = math.copysign(b * (1.0 + gap), r)
        sigma, xi = solve_sigma(r, a, b)
        if sigma != 0.0:
            assert xi == math.copysign(1.0, sigma)
        else:
            assert -1.0 <= xi <= 1.0
        # The closed form goes through a^2 + 4 (|r| - b), so its rounding is
        # relative to a^2 as well as to |r| and b.
        scale = max(abs(r), b, a * a)
        assert abs(oracles.sigma_residual(r, a, b, sigma, xi)) <= 4 * math.ulp(scale)
