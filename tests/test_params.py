import math

import numpy as np
import pytest

import oracles
from stwdiff import (
    GainInterval,
    NoiseLevel,
    Params,
    convergence_time_bound,
    error_lower_bound,
    error_upper_bound,
    lambda1_range,
    lambda2_min,
    tightness_factor,
    validate_condition,
)

P_REF = Params(lambda1=4.1, lambda2=1.1, L=1.0, alpha=4.0)


class TestTypes:
    def test_params_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Params(lambda1=0.0, lambda2=1.1, L=1.0, alpha=4.0)
        with pytest.raises(ValueError):
            Params(lambda1=4.1, lambda2=-1.0, L=1.0, alpha=4.0)
        with pytest.raises(ValueError):
            Params(lambda1=4.1, lambda2=1.1, L=0.0, alpha=4.0)
        with pytest.raises(ValueError):
            Params(lambda1=4.1, lambda2=1.1, L=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            Params(lambda1=4.1, lambda2=1.1, L=1.0, alpha=4.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, bad):
        for field in ("lambda1", "lambda2", "L"):
            kwargs = {"lambda1": 4.1, "lambda2": 1.1, "L": 1.0, "alpha": 4.0, field: bad}
            with pytest.raises(ValueError, match="finite"):
                Params(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            NoiseLevel(bad)
        for call in (
            lambda: lambda1_range(bad, 4.0),
            lambda: error_lower_bound(bad, NoiseLevel(0.01), 1.0),
            lambda: error_lower_bound(1.1, NoiseLevel(0.01), bad),
            lambda: convergence_time_bound(P_REF, bad),
            lambda: convergence_time_bound(P_REF, -bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
        for call in (lambda: lambda2_min(bad), lambda: lambda1_range(1.1, bad)):
            with pytest.raises(ValueError, match="alpha"):
                call()

    def test_params_allows_condition_violating_gains(self):
        # Divergence experiments need lambda2 < 1 to stay representable.
        p = Params(lambda1=4.1, lambda2=0.9, L=1.0, alpha=4.0)
        assert not validate_condition(p)

    def test_noise_level(self):
        assert NoiseLevel(0.0).N == 0.0
        with pytest.raises(ValueError):
            NoiseLevel(-1e-9)

    def test_gain_interval_contains(self):
        assert GainInterval(1.0, 2.0, empty=False).contains(1.5)
        assert not GainInterval(1.0, 2.0, empty=False).contains(1.0)
        assert not GainInterval(1.0, 1.0, empty=True).contains(1.0)


class TestCondition:
    def test_reference_gains_satisfy(self):
        assert validate_condition(P_REF) is True

    def test_lambda1_at_four_fails(self):
        assert validate_condition(Params(4.0, 1.1, 1.0, 4.0)) is False

    def test_lambda2_one_fails_for_any_lambda1(self):
        for lam1 in (0.5, 1.0, 3.9, 4.0, 4.1, 10.0):
            assert validate_condition(Params(lam1, 1.0, 1.0, 4.0)) is False

    def test_matches_interval_membership(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            alpha = rng.uniform(1.01, 4.0)
            lam2 = rng.uniform(0.5, 6.0)
            interval = lambda1_range(lam2, alpha)
            if interval.empty:
                for lam1 in rng.uniform(0.1, 12.0, size=4):
                    assert not validate_condition(Params(lam1, lam2, 1.0, alpha))
                continue
            frac = rng.uniform(0.05, 0.95)
            inside = interval.lo + frac * (interval.hi - interval.lo)
            assert validate_condition(Params(inside, lam2, 1.0, alpha))
            assert not validate_condition(Params(interval.lo * 0.999, lam2, 1.0, alpha))
            assert not validate_condition(Params(interval.hi * 1.001, lam2, 1.0, alpha))


class TestLambda2Min:
    def test_alpha_four_gives_one(self):
        assert lambda2_min(4.0) == 1.0

    def test_alpha_2_25_gives_seven(self):
        got = lambda2_min(2.25)
        assert got == pytest.approx(7.0, abs=1e-12)
        assert oracles.ulp_gap(got, oracles.o_lambda2_min(2.25)) <= 4

    def test_diverges_toward_one(self):
        values = [lambda2_min(a) for a in (1.5, 1.2, 1.05, 1.01, 1.001)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e5

    def test_at_least_one_with_equality_only_at_four(self):
        rng = np.random.default_rng(7)
        for alpha in rng.uniform(1.0001, 4.0, size=100):
            assert lambda2_min(float(alpha)) > 1.0
        assert lambda2_min(4.0) == 1.0

    def test_domain(self):
        for bad in (1.0, 0.5, 4.0001, -2.0):
            with pytest.raises(ValueError):
                lambda2_min(bad)


class TestLambda1Range:
    def test_reference_interval(self):
        r = lambda1_range(1.1, 4.0)
        assert not r.empty
        assert r.lo == pytest.approx(4.09878030638384, rel=1e-14)
        assert r.hi == pytest.approx(4.147575310031266, rel=1e-14)
        assert r.contains(4.1)
        lo_o, hi_o = oracles.o_lambda1_bounds(1.1, 4.0)
        assert oracles.ulp_gap(r.lo, lo_o) <= 4
        assert oracles.ulp_gap(r.hi, hi_o) <= 4

    def test_boundary_lambda2_is_empty(self):
        r = lambda1_range(1.0, 4.0)
        assert r.empty
        assert r.lo == r.hi == 4.0

    def test_lambda2_three(self):
        r = lambda1_range(3.0, 4.0)
        assert r.lo == pytest.approx(math.sqrt(32.0), rel=1e-15)
        # Interval width ratio collapses to 1 + (lambda2 - 1) / (4 (lambda2 + 1)).
        assert r.hi / r.lo == pytest.approx(1.125, rel=1e-14)

    def test_empty_iff_lambda2_below_min(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            alpha = float(rng.uniform(1.01, 4.0))
            lam2 = float(rng.uniform(0.2, 9.0))
            r = lambda1_range(lam2, alpha)
            assert r.empty == (lam2 <= lambda2_min(alpha)) or math.isclose(
                lam2, lambda2_min(alpha), rel_tol=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda1_range(0.0, 4.0)
        with pytest.raises(ValueError):
            lambda1_range(1.1, 1.0)


class TestBounds:
    def test_upper_reference(self):
        got = error_upper_bound(P_REF, NoiseLevel(0.01))
        assert got == pytest.approx(0.5796550698475775, rel=1e-15)
        assert round(got, 2) == 0.58

    def test_upper_contour_params(self):
        p = Params(4.1, 1.1, 1.0, 4.0 / 2.1)
        assert error_upper_bound(p, NoiseLevel(1.0)) == pytest.approx(4.0, rel=1e-15)

    def test_upper_zero_noise(self):
        assert error_upper_bound(P_REF, NoiseLevel(0.0)) == 0.0

    def test_lower_reference(self):
        got = error_lower_bound(1.1, NoiseLevel(0.01), 1.0)
        assert got == pytest.approx(0.28982753492378877, rel=1e-15)

    def test_lower_exact_four(self):
        assert error_lower_bound(3.0, NoiseLevel(1.0), 1.0) == 4.0

    def test_lower_zero_noise(self):
        assert error_lower_bound(2.0, NoiseLevel(0.0), 1.0) == 0.0

    def test_tightness(self):
        assert tightness_factor(P_REF) == 2.0
        assert tightness_factor(Params(4.1, 8.0, 1.0, 1.21)) == pytest.approx(1.1, rel=1e-15)

    def test_ratio_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = Params(
                lambda1=float(rng.uniform(0.5, 8.0)),
                lambda2=float(rng.uniform(0.2, 6.0)),
                L=float(rng.uniform(0.1, 50.0)),
                alpha=float(rng.uniform(1.001, 4.0)),
            )
            n = NoiseLevel(float(rng.uniform(1e-6, 10.0)))
            upper = error_upper_bound(p, n)
            lower = error_lower_bound(p.lambda2, n, p.L)
            assert abs(upper - tightness_factor(p) * lower) <= 4 * math.ulp(upper)

    def test_sqrt_scaling_in_N_and_L(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = Params(
                lambda1=float(rng.uniform(0.5, 8.0)),
                lambda2=float(rng.uniform(0.2, 6.0)),
                L=float(rng.uniform(0.1, 50.0)),
                alpha=float(rng.uniform(1.001, 4.0)),
            )
            N = float(rng.uniform(1e-6, 10.0))
            up = error_upper_bound(p, NoiseLevel(N))
            up4 = error_upper_bound(p, NoiseLevel(4.0 * N))
            assert abs(up4 - 2.0 * up) <= 2 * math.ulp(up4)
            p4 = Params(p.lambda1, p.lambda2, 4.0 * p.L, p.alpha)
            assert abs(error_upper_bound(p4, NoiseLevel(N)) - 2.0 * up) <= 2 * math.ulp(up4)
            lowN = error_lower_bound(p.lambda2, NoiseLevel(N), p.L)
            low4 = error_lower_bound(p.lambda2, NoiseLevel(4.0 * N), p.L)
            assert abs(low4 - 2.0 * lowN) <= 2 * math.ulp(low4)


class TestConvergenceTime:
    def test_reference(self):
        got = convergence_time_bound(Params(4.1, 1.1, 1.0, 4.0), 1.0)
        assert got == pytest.approx(10.0, rel=1e-14)
        assert oracles.ulp_gap(got, oracles.o_convergence_time(1.1, 1.0, 1.0)) <= 4

    def test_initialized_at_convergence(self):
        assert convergence_time_bound(Params(4.1, 1.1, 1.0, 4.0), 0.0) == 0.0

    def test_negative_initial_derivative(self):
        assert convergence_time_bound(Params(4.1, 2.0, 5.0, 4.0), -10.0) == 2.0

    def test_requires_lambda2_above_one(self):
        with pytest.raises(ValueError):
            convergence_time_bound(Params(4.1, 1.0, 1.0, 4.0), 1.0)
        with pytest.raises(ValueError):
            convergence_time_bound(Params(4.1, 0.9, 1.0, 4.0), 1.0)
