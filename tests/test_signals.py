import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stwdiff import (
    SignalPair,
    WorstCaseSpec,
    check_membership,
    parse_pair,
    sliding_reference,
    switching_noise,
    worst_case_pair,
)
from stwdiff.signals import sample_each

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

    @pytest.mark.parametrize("N, c1, c2", [(0.01, 0.011, 0.00149), (1.0, 0.5, 0.125), (0.02, 0.0137, 0.0061)])
    def test_pair_noise_is_switching_noise_bit_for_bit(self, N, c1, c2):
        # parse_pair checks (c1, c2) once and keeps the closure; the function
        # checks on every call. Both must give the same value at every time.
        eta = parse_pair("quadratic", f"switching:N={N!r},c1={c1!r},c2={c2!r}", 1.0, 0.01).eta
        rng = np.random.default_rng(41)
        ts = np.concatenate([switching_grid(c1, c2), rng.uniform(0.0, 400 * c1, size=2000)])
        got = np.array([eta(t) for t in ts.tolist()])
        want = np.array([switching_noise(t, N, c1, c2) for t in ts.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert {-N, N} <= set(got.tolist())

    def test_pair_noise_rejects_negative_time(self):
        eta = parse_pair("quadratic", "switching", 1.0, 0.01).eta
        with pytest.raises(ValueError, match="t >= 0"):
            eta(-1e-9)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, -1e-9, -5.0])
    def test_time_outside_domain_rejected_alike_by_every_entry_point(self, t):
        # The scalar form used to raise OverflowError at inf (and math.floor's
        # message at NaN) while the array form returned 0.0 with a warning.
        pair = parse_pair("quadratic", "switching", 1.0, 0.01)
        calls = (
            lambda: switching_noise(t, 0.01, 0.011, 0.00149),
            lambda: pair.eta(t),
            lambda: pair.sample(np.array([0.0, 0.5, t, 1.0])),
        )
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"noise defined for finite t >= 0, got {t}"

    @pytest.mark.parametrize("c1, c2", [(0.011, 0.011), (0.011, 0.0), (0.011, -0.001), (0.001, 0.011), (-0.011, -0.02)])
    def test_bad_period_rejected_by_both_entry_points(self, c1, c2):
        with pytest.raises(ValueError, match="0 < c2 < c1"):
            parse_pair("quadratic", f"switching:c1={c1!r},c2={c2!r}", 1.0, 0.01)
        with pytest.raises(ValueError, match="0 < c2 < c1"):
            switching_noise(1.0, 0.01, c1, c2)


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
        assert pair.description.endswith(" [degenerate: N=0, zero-noise ramp]")
        assert pair.N_cert == 0.0
        assert pair.eta(0.5) == 0.0


class TestSlidingReference:
    def test_before_ramp(self):
        assert sliding_reference(SPEC, 0.3) == (SPEC.N, 0.0)

    def test_at_tau(self):
        _, y2 = sliding_reference(SPEC, SPEC.tau)
        assert y2 == pytest.approx(-0.15181442305531795, rel=1e-12)
        pair = worst_case_pair(SPEC)
        assert y2 - pair.fdot(SPEC.tau) == pytest.approx(-0.28982753492378877, rel=1e-10)

    def test_array_is_the_pair_sliding_trajectory_bit_for_bit(self):
        # (N - lambda2 f, -lambda2 fdot) on the pair's own samples, and the
        # scalar reference at each time.
        ts = np.linspace(0.0, SPEC.tau, 1001)
        y1, y2 = sliding_reference(SPEC, ts)
        f, fdot, _ = worst_case_pair(SPEC).sample(ts)
        assert np.array_equal(y1, SPEC.N - SPEC.lambda2 * f)
        assert np.array_equal(y2, -SPEC.lambda2 * fdot)
        scalar = np.array([sliding_reference(SPEC, t) for t in ts.tolist()])
        assert np.array_equal(scalar, np.stack((y1, y2), axis=1))

    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, SPEC.tau + 1e-9]), np.array([0.5, math.nan])])
    def test_late_or_nan_time_rejected(self, t):
        with pytest.raises(ValueError, match="valid only up to tau"):
            sliding_reference(SPEC, t)

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
        # samples=2.5 used to sample t = 0, 0.667, 1.333, past the horizon.
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="integer"):
                check_membership(pair, horizon=1.0, samples=bad)
        assert check_membership(pair, horizon=1.0, samples=np.int64(3))

    @pytest.mark.parametrize(
        "f, fddot, eta",
        [
            (lambda t: t * t / 2, lambda t: 1.0, lambda t: math.nan if t > 0.5 else 0.0),
            (lambda t: t * t / 2, lambda t: math.nan if t > 0.5 else 1.0, lambda t: 0.0),
            (lambda t: math.nan if t > 0.5 else t * t / 2, None, lambda t: 0.0),
        ],
        ids=["eta", "fddot", "f-second-difference"],
    )
    def test_nan_sample_fails(self, f, fddot, eta):
        # `abs(nan) > bound` is False: only a `<=` test makes a NaN sample fail.
        pair = SignalPair(f, lambda t: t, fddot, eta, 1.0, 0.01, "nan sample")
        assert not check_membership(pair, horizon=1.0, samples=101)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # A NaN or infinite horizon used to sample nothing but NaN times and
        # pass vacuously.
        pair = parse_pair("quadratic", "constant:N=0.01", 1.0, 0.01)
        with pytest.raises(ValueError, match="horizon"):
            check_membership(pair, horizon=horizon, samples=11)


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

    # A worstcase lambda2 falls back to the run's, as L and N do; a spec that
    # sets it wins, and a four-argument call keeps the reference run's 1.1.
    @pytest.mark.parametrize(
        "signal, extra, lambda2",
        [("worstcase", (3.0,), 3.0), ("worstcase:lambda2=1.5", (3.0,), 1.5), ("worstcase", (), 1.1)],
    )
    def test_worstcase_lambda2_defaults_to_the_runs(self, signal, extra, lambda2):
        pair = parse_pair(signal, "worstcase:tau=2", 1.0, 0.01, *extra)
        assert f"lambda2={lambda2}," in pair.description

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            parse_pair("cubic", "none", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic", "pink", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic:sign=2", "none", 1.0, 0.01)
        with pytest.raises(ValueError):
            parse_pair("quadratic:L", "none", 1.0, 0.01)
        with pytest.raises(ValueError, match="bad quadratic value 'L=abc'"):
            parse_pair("quadratic:L=abc", "none", 1.0, 0.01)

    # The signal's sign is the `sign` key's alone: a negative L, given in the
    # spec or as the default, would flip it.  L = 0 is a constant signal.
    @pytest.mark.parametrize("signal, default_L", [("quadratic:L=-1,sign=-1", 1.0), ("quadratic", -0.5)])
    def test_negative_curvature_rejected(self, signal, default_L):
        with pytest.raises(ValueError, match="quadratic L must be nonnegative"):
            parse_pair(signal, "none", default_L, 0.01)

    def test_zero_curvature_accepted(self):
        pair = parse_pair("quadratic:L=0", "none", 1.0, 0.01)
        assert (pair.L_cert, pair.f(2.0), pair.fddot(2.0)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "signal, noise",
        [
            ("quadratic:sing=1", "none"),
            ("quadratic", "switching:NN=5"),
            ("quadratic", "none:N=5"),
            ("quadratic", "constant:c1=0.1"),
            ("quadratic:N=0.1", "none"),
            ("worstcase:sign=1", "none"),
            ("quadratic", "worstcase:c1=0.1"),
        ],
    )
    def test_unknown_keys_rejected(self, signal, noise):
        with pytest.raises(ValueError, match="unknown .* key"):
            parse_pair(signal, noise, 1.0, 0.01)

    def test_keys_checked_against_their_own_kind(self):
        # Each spec is checked against its own kind; a worst-case pair takes
        # its tau, lambda2, N and L from either spec, as before.
        pair = parse_pair("quadratic:L=2", "worstcase:tau=2,lambda2=1.5,n=0.04", 1.0, 0.01)
        assert (pair.L_cert, pair.N_cert) == (2.0, 0.04)
        pair = parse_pair("worstcase:tau=2", "switching:N=0.03", 1.0, 0.01)
        assert pair.N_cert == 0.03

    @pytest.mark.parametrize(
        "signal, noise, key",
        [
            ("quadratic:L=2,sign=1", "worstcase:tau=2,lambda2=1.5,n=0.04", "sign"),
            ("quadratic:sign=-1", "worstcase:tau=1", "sign"),
            ("worstcase:tau=2", "switching:N=0.03,c1=0.02,c2=0.001", "c1, c2"),
            ("worstcase:tau=2", "switching:c2=0.001", "c2"),
            ("quadratic:sign=1", "worstcase", "sign"),
        ],
    )
    def test_other_spec_keys_next_to_worstcase_rejected(self, signal, noise, key):
        # The worst-case pair has its own signal and noise, so the other spec's
        # sign, c1 and c2 would be dropped: they raise instead.
        with pytest.raises(ValueError, match=f"worstcase pair takes no {key} "):
            parse_pair(signal, noise, 1.0, 0.01)

    def test_lower_case_aliases_and_defaults(self):
        pair = parse_pair("quadratic:l=3,sign=1", "constant:n=0.5", 1.0, 0.01)
        assert (pair.fddot(0.0), pair.eta(0.0)) == (3.0, 0.5)
        pair = parse_pair("quadratic", "switching", 1.0, 0.01)
        assert pair.description == "quadratic signal sign=-1, L=1.0; switching noise N=0.01, c1=0.011, c2=0.00149"

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


class TestSampleEach:
    @pytest.mark.parametrize(
        "ts",
        [
            np.linspace(0.0, 2.0, 41),
            np.arange(41, dtype=np.int64),
            np.linspace(0.0, 2.0, 121)[::3],
            np.linspace(0.0, 2.0, 41).astype(">f8"),
        ],
        ids=["float64", "int64", "strided", "big-endian"],
    )
    def test_one_float_call_per_time_in_order(self, ts):
        calls = []

        def fn(t):
            calls.append(t)
            return math.sin(t) + 0.5 * t

        out = sample_each(fn, ts)
        assert [type(t) for t in calls] == [float] * ts.size
        assert calls == [float(t) for t in ts]
        want = np.array([fn(float(t)) for t in ts])
        assert out.dtype == np.float64 and np.array_equal(out.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize(
        "make_copy",
        [copy.copy, copy.deepcopy, dataclasses.replace, lambda pair: pair],
        ids=["copy", "deepcopy", "replace", "same-pair"],
    )
    def test_pair_without_grid_samples_its_current_evaluators(self, make_copy):
        # `sample` keeps no state: a copy, or the pair itself after attribute
        # assignment, samples the evaluators it holds when called.
        pair = SignalPair(math.sin, math.cos, None, lambda t: 0.01 * math.cos(7.0 * t), 1.0, 0.01, "sine")
        ts = np.linspace(0.0, 6.0, 601)
        twin = make_copy(pair)
        twin.f, twin.fdot, twin.eta = math.atan, math.tanh, math.sin
        assert_same_bits(twin.sample(ts), scalar_columns(twin, ts))
        if twin is not pair:
            assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))
            assert pair.f is math.sin

    def test_built_in_grid_belongs_to_its_own_evaluators(self):
        pair = parse_pair("quadratic", "switching", 1.0, 0.01)
        ts = np.linspace(0.0, 1.0, 201)
        swapped = dataclasses.replace(pair, f=math.sin)
        assert_same_bits(swapped.sample(ts), pair.sample(ts))  # the grid still evaluates the quadratic
        swapped = dataclasses.replace(pair, f=math.sin, grid=None)
        assert_same_bits(swapped.sample(ts), scalar_columns(swapped, ts))

    def test_custom_pair_gets_a_sampler_that_follows_its_evaluators(self):
        pair = SignalPair(math.sin, math.cos, None, lambda t: 0.01 * math.cos(7.0 * t), 1.0, 0.01, "sine")
        ts = np.linspace(0.0, 6.0, 601)
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))
        pair.f = math.atan  # evaluators stay settable; the sampler reads them per call
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))
        # A copy samples its own evaluators, not those of the pair it was made from.
        other = dataclasses.replace(pair, f=math.tanh, eta=math.sin)
        assert_same_bits(other.sample(ts), scalar_columns(other, ts))
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))


# Derandomized through the profile in conftest.py.
PROPERTY = settings(max_examples=100)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def with_neighbours(ts):
    """`ts` with the float just below (kept if >= 0) and just above each time."""
    ts = np.asarray(ts, dtype=float)
    below = np.nextafter(ts, -np.inf)
    return np.concatenate([ts, below[below >= 0.0], np.nextafter(ts, np.inf)])


class TestSampleProperties:
    """Over the admissible constants, every `sample` equals its pair's scalar evaluators bit for bit."""

    @PROPERTY
    @given(
        L=finite(1e-3, 1e3),
        sign=st.sampled_from([-1, 1]),
        N=finite(0.0, 10.0),
        c1=finite(1e-4, 1.0),
        duty=finite(0.01, 0.99),
        noise=st.sampled_from(["switching", "constant", "none"]),
        fractions=st.lists(finite(0.0, 1.0), max_size=50),
    )
    def test_quadratic_pairs(self, L, sign, N, c1, duty, noise, fractions):
        c2 = c1 * duty
        spec = {"switching": f"switching:N={N!r},c1={c1!r},c2={c2!r}", "constant": f"constant:N={-N!r}", "none": "none"}
        pair = parse_pair(f"quadratic:L={L!r},sign={sign}", spec[noise], 1.0, 0.01)
        k = np.arange(40)
        ts = with_neighbours(np.concatenate([k * c1, k * c1 + c2, [10.0 * c1], 40 * c1 * np.array(fractions)]))
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))

    @PROPERTY
    @given(
        lambda2=finite(1.0, 10.0),
        N=finite(0.0, 1.0),
        L=finite(1e-2, 1e2),
        extra=finite(1e-3, 5.0),
        fractions=st.lists(finite(0.0, 1.0), max_size=50),
    )
    def test_worst_case_ramps(self, lambda2, N, L, extra, fractions):
        theta = 2.0 * math.sqrt(N / ((lambda2 + 1.0) * L))
        spec = WorstCaseSpec(tau=theta + extra, lambda2=lambda2, N=N, L=L)
        pair = worst_case_pair(spec)
        t0 = spec.tau - spec.theta
        ts = with_neighbours(np.concatenate([[0.0, t0, spec.tau], 2.0 * spec.tau * np.array(fractions)]))
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))

    @PROPERTY
    @given(
        lambda2=finite(0.01, 0.99),
        N=finite(0.0, 1.0),
        L=finite(1e-2, 1e2),
        tau=finite(0.1, 5.0),
        fractions=st.lists(finite(0.0, 1.0), max_size=50),
    )
    def test_divergence_pairs(self, lambda2, N, L, tau, fractions):
        pair = worst_case_pair(WorstCaseSpec(tau=tau, lambda2=lambda2, N=N, L=L))
        ts = with_neighbours(np.concatenate([[0.0, tau], 10.0 * np.array(fractions)]))
        assert_same_bits(pair.sample(ts), scalar_columns(pair, ts))
