import math

import numpy as np
import pytest

from stwdiff import (
    SignalPair,
    WorstCaseSpec,
    check_membership,
    parse_pair,
    sliding_reference,
    switching_noise,
    worst_case_pair,
)

SPEC = WorstCaseSpec(tau=1.0, lambda2=1.1, N=0.01, L=1.0)


class TestSwitchingNoise:
    def test_initial_phase(self):
        assert switching_noise(0.05, 0.01, 0.011, 0.00149) == -0.01

    def test_duty_fraction(self):
        # Sample one period after activation: the +N fraction equals c2/c1.
        N, c1, c2 = 0.01, 0.011, 0.00149
        ts = 10 * c1 + np.linspace(0.0, c1, 100001)[:-1]
        vals = np.array([switching_noise(float(t), N, c1, c2) for t in ts])
        assert np.mean(vals > 0) == pytest.approx(c2 / c1, abs=2e-4)

    def test_activation_instant_is_positive(self):
        c1 = 0.011
        assert switching_noise(10 * c1, 0.01, c1, 0.00149) == 0.01

    def test_exact_switch_is_zero(self):
        # Binary-exact constants make the switch instant representable.
        assert switching_noise(10 * 0.5 + 0.125, 1.0, 0.5, 0.125) == 0.0

    def test_periodicity(self):
        N, c1, c2 = 1.0, 0.5, 0.125  # binary exact: periodicity holds exactly
        rng = np.random.default_rng(3)
        for t in 10 * c1 + rng.uniform(0, 20, size=200):
            assert switching_noise(t + c1, N, c1, c2) == switching_noise(t, N, c1, c2)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            switching_noise(1.0, 0.01, 0.011, 0.011)
        with pytest.raises(ValueError):
            switching_noise(1.0, 0.01, 0.011, 0.0)
        with pytest.raises(ValueError):
            switching_noise(-1e-9, 0.01, 0.011, 0.00149)


def quadratic_signal(t, L, sign):
    """(f, fdot, fddot) at t of the `quadratic` signal built by parse_pair."""
    pair = parse_pair(f"quadratic:L={L!r},sign={sign!r}", "none", 1.0, 0.0)
    return pair.f(t), pair.fdot(t), pair.fddot(t)


class TestQuadraticSignal:
    def test_negative_branch(self):
        assert quadratic_signal(1.0, 1.0, -1) == (-0.5, -1.0, -1.0)

    def test_origin(self):
        assert quadratic_signal(0.0, 2.0, 1) == (0.0, 0.0, 2.0)
        assert quadratic_signal(0.0, 2.0, -1) == (0.0, 0.0, -2.0)

    def test_positive_branch(self):
        assert quadratic_signal(2.0, 1.0, 1) == (2.0, 2.0, 1.0)

    def test_sign_domain(self):
        with pytest.raises(ValueError):
            quadratic_signal(1.0, 1.0, 0.5)


class TestWorstCasePair:
    def test_theta(self):
        assert SPEC.theta == pytest.approx(0.13801311186847084, rel=1e-14)

    def test_tau_must_exceed_theta(self):
        with pytest.raises(ValueError):
            WorstCaseSpec(tau=0.1, lambda2=1.1, N=0.01, L=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["tau", "lambda2", "N", "L"])
    def test_non_finite_fields_rejected(self, field, bad):
        for lambda2 in (1.1, 0.9):  # sliding ramp and divergence pair
            kwargs = {"tau": 1.0, "lambda2": lambda2, "N": 0.01, "L": 1.0, field: bad}
            with pytest.raises(ValueError, match="finite"):
                WorstCaseSpec(**kwargs)

    def test_values_at_tau(self):
        pair = worst_case_pair(SPEC)
        assert pair.f(SPEC.tau) == pytest.approx(0.009523809523809523, rel=1e-12)
        assert pair.eta(SPEC.tau) == pytest.approx(-SPEC.N, rel=1e-12)
        predicted = -(SPEC.lambda2 + 1.0) * pair.fdot(SPEC.tau)
        assert predicted == pytest.approx(-0.28982753492378877, rel=1e-10)

    def test_continuously_differentiable_at_ramp_start(self):
        pair = worst_case_pair(SPEC)
        t0 = SPEC.tau - SPEC.theta
        eps = 1e-9
        assert pair.f(t0 - eps) == 0.0
        assert pair.f(t0 + eps) <= SPEC.L * eps * eps
        assert pair.fdot(t0 - eps) == 0.0
        assert pair.fdot(t0 + eps) <= SPEC.L * eps * 1.001

    def test_sliding_input_identity(self):
        # Wherever eta > -N the measured input collapses to N - lambda2 f.
        pair = worst_case_pair(SPEC)
        for t in np.linspace(0.0, SPEC.tau, 500):
            if pair.eta(float(t)) > -SPEC.N:
                want = SPEC.N - SPEC.lambda2 * pair.f(float(t))
                assert pair.u(float(t)) == pytest.approx(want, abs=1e-15)

    def test_certified_membership(self):
        pair = worst_case_pair(SPEC)
        assert check_membership(pair, horizon=2.0 * SPEC.tau, samples=4001)

    def test_divergence_pair_for_small_lambda2(self):
        spec = WorstCaseSpec(tau=1.0, lambda2=0.9, N=0.01, L=2.0)
        pair = worst_case_pair(spec)
        assert pair.f(1.0) == 1.0  # L t^2 / 2
        assert pair.eta(123.0) == 0.01
        assert "without bound" in pair.description

    def test_degenerate_zero_noise(self):
        spec = WorstCaseSpec(tau=1.0, lambda2=1.1, N=0.0, L=1.0)
        pair = worst_case_pair(spec)
        assert pair.degenerate
        assert pair.N_cert == 0.0
        assert pair.eta(0.5) == 0.0


class TestSlidingReference:
    def test_before_ramp(self):
        ref = sliding_reference(SPEC, 0.3)
        assert (ref.y1, ref.y2) == (SPEC.N, 0.0)

    def test_at_tau(self):
        ref = sliding_reference(SPEC, SPEC.tau)
        assert ref.y2 == pytest.approx(-0.15181442305531795, rel=1e-12)
        pair = worst_case_pair(SPEC)
        assert ref.y2 - pair.fdot(SPEC.tau) == pytest.approx(-0.28982753492378877, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            sliding_reference(SPEC, SPEC.tau + 1e-9)
        with pytest.raises(ValueError):
            sliding_reference(WorstCaseSpec(tau=1.0, lambda2=0.9, N=0.01, L=1.0), 0.5)


class TestMembership:
    def test_reference_setup_is_admissible(self):
        pair = parse_pair("quadratic:sign=-1", "switching:N=0.01,c1=0.011,c2=0.00149", 1.0, 0.01)
        assert check_membership(pair, horizon=2.0, samples=4001)

    def test_halved_curvature_certificate_fails(self):
        pair = parse_pair("quadratic:sign=-1", "none", 1.0, 0.01)
        pair.L_cert = 0.5
        assert not check_membership(pair, horizon=1.0, samples=101)

    def test_second_difference_fallback(self):
        pair = SignalPair(
            f=lambda t: math.sin(t),
            fdot=lambda t: math.cos(t),
            fddot=None,
            eta=lambda t: 0.0,
            L_cert=1.0,
            N_cert=0.0,
            description="sine",
        )
        assert check_membership(pair, horizon=6.0, samples=2001)
        pair.L_cert = 0.9
        assert not check_membership(pair, horizon=6.0, samples=2001)

    def test_sample_count_domain(self):
        pair = parse_pair("quadratic", "none", 1.0, 0.0)
        with pytest.raises(ValueError):
            check_membership(pair, horizon=1.0, samples=1)


class TestParsePair:
    def test_defaults_flow_in(self):
        pair = parse_pair("quadratic", "switching", 2.0, 0.05)
        assert pair.L_cert == 2.0
        assert pair.N_cert == 0.05
        assert pair.fddot(0.0) == -2.0  # sign defaults to -1

    def test_constant_noise(self):
        pair = parse_pair("quadratic:sign=1", "constant:N=-0.02", 1.0, 0.01)
        assert pair.eta(3.0) == -0.02
        assert pair.N_cert == 0.02

    def test_worstcase_spec_via_noise(self):
        pair = parse_pair("quadratic", "worstcase:tau=2,lambda2=1.5,N=0.04,L=1", 1.0, 0.01)
        assert "worst-case" in pair.description
        assert pair.N_cert == 0.04

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            parse_pair("cubic", "none", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic", "pink", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic:sign=2", "none", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic:L", "none", 1.0, 0.01)

    @pytest.mark.parametrize(
        "signal, noise",
        [
            ("quadratic:L=inf", "none"),
            ("quadratic:L=nan", "none"),
            ("quadratic", "switching:N=inf"),
            ("quadratic", "switching:c1=nan"),
            ("quadratic", "constant:N=-inf"),
            ("worstcase:tau=inf", "none"),
        ],
    )
    def test_non_finite_values_rejected(self, signal, noise):
        with pytest.raises(ValueError, match="finite"):
            parse_pair(signal, noise, 1.0, 0.01)


def scalar_columns(pair, ts):
    """(f, fdot, eta) from the pair's scalar evaluators, one time at a time."""
    return tuple(np.array([fn(t) for t in ts.tolist()], dtype=float) for fn in (pair.f, pair.fdot, pair.eta))


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def switching_grid(c1, c2):
    """Times before activation, on and beside multiples of c1 and of c1 plus c2."""
    k = np.arange(0, 400)
    edges = np.concatenate([k * c1, k * c1 + c2, [10.0 * c1]])
    return np.concatenate([np.arange(4000) * 5e-5, edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0)])


class TestArraySampling:
    """Each built-in pair's `sample` gives its scalar evaluators' values bit for bit."""

    @pytest.mark.parametrize("sign", ["1", "-1"])
    @pytest.mark.parametrize(
        "noise",
        ["switching:c1=0.011,c2=0.00149", "switching:N=1,c1=0.5,c2=0.125", "constant:N=-0.02", "constant:N=0", "none"],
    )
    def test_quadratic_pairs(self, sign, noise):
        pair = parse_pair(f"quadratic:L=1.7,sign={sign}", noise, 1.0, 0.01)
        ts = switching_grid(0.5, 0.125) if "c1=0.5" in noise else switching_grid(0.011, 0.00149)
        want = scalar_columns(pair, ts)
        assert_same_bits(pair.sample(ts), want)
        if "c1=0.5" in noise:
            # Binary-exact constants put s == c2 on the grid: the noise is 0 there.
            assert np.count_nonzero(want[2] == 0.0) >= 300

    def test_switching_sample_rejects_negative_time(self):
        pair = parse_pair("quadratic", "switching", 1.0, 0.01)
        with pytest.raises(ValueError):
            pair.sample(np.array([0.0, -1e-9]))

    @pytest.mark.parametrize("N", [0.01, 0.0])
    def test_worst_case_ramp(self, N):
        spec = WorstCaseSpec(tau=1.0, lambda2=1.1, N=N, L=1.0)
        pair = worst_case_pair(spec)
        t0 = spec.tau - spec.theta
        ts = np.concatenate([np.linspace(0.0, 1.5, 3001), [t0, np.nextafter(t0, 0.0), np.nextafter(t0, 2.0), spec.tau]])
        want = scalar_columns(pair, ts)
        assert_same_bits(pair.sample(ts), want)
        assert want[1][0] == 0.0 and want[1].max() > 0.0  # both sides of the ramp start

    def test_divergence_pair(self):
        pair = worst_case_pair(WorstCaseSpec(tau=1.0, lambda2=0.9, N=0.01, L=2.0))
        ts = np.linspace(0.0, 7.0, 2001)
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))
