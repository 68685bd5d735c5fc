import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stwdiff import (
    DiffState,
    ErrorState,
    GridSpec,
    NoiseLevel,
    Params,
    SimConfig,
    StepScheme,
    Violations,
    contour_grid,
    convergence_time_bound,
    decay_rate_gamma,
    error_summary,
    error_upper_bound,
    init,
    lambda1_range,
    omega_invariance_check,
    parse_pair,
    read_trajectory_csv,
    simulate,
    simulate_error_system,
    step_explicit,
    step_implicit,
    verify_decrease,
    write_contour_csv,
    write_trajectory_csv,
)
from stwdiff import harness
from stwdiff.harness import TRAJECTORY_COLUMNS, TrajectoryRecord, write_violations_csv
from stwdiff.signals import SignalPair, WorstCaseSpec, worst_case_pair

P_REF = Params(4.1, 1.1, 1.0, 4.0)
N_REF = NoiseLevel(0.01)


def reference_pair():
    return parse_pair("quadratic:sign=-1", "switching:N=0.01,c1=0.011,c2=0.00149", 1.0, 0.01)


def g17_probes():
    """Float64 values where a vector `%.17g` can go wrong, in a fixed order, every other one negated."""
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # Around the switches between fixed and exponent notation, k = -5 | -4 and 16 | 17.
    switches = [float(f"{m}e{k}") for k in (-6, -5, -4, -3, 15, 16, 17, 18) for m in ("1", "9.9999999999999999", "1.2")]
    # Halfway between two 17-digit significands: j 2**(k - 17) with j odd, in
    # [10**k, 10**(k + 1)), is (j 5**(16 - k) / 2) 10**(k - 16) exactly.  A
    # float parsed from a 17-digit decimal followed by 5 lies up to a float
    # ulp (1 to 11 units of the 17th digit) from the tie, so near-ties are
    # picked from random floats by their exact significand.
    ties = []
    for k in range(-7, 15):
        span = 2 ** (17 - k) * Fraction(10) ** k
        ties += [float(int(j) * Fraction(2) ** (k - 17)) for j in rng.integers(int(span) + 1, int(10 * span), 30) | 1]
    for x in (rng.standard_normal(6000) * 10.0 ** rng.integers(-300, 300, 6000)).tolist():
        significand = Fraction(x) * Fraction(10) ** (16 - Decimal(x).adjusted())
        ties += [x] * (abs(significand % 1 - Fraction(1, 2)) < Fraction(1, 64))
    v = np.concatenate(
        [
            rng.integers(0, 2**64, 16000, dtype=np.uint64).view(np.float64),  # nan, inf and subnormals among them
            rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),  # subnormals
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            switches,
            ties,
            # Just above a tie, by 4e-5 to 8e-4 of the 17th digit, where the
            # long double product falls just below it.
            [6.274813004533729e258, 3.3469506586676623e298, 1.5281945549014892e245, 7.184955501738035e208],
            [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
        ]
    )
    v.view(np.uint64)[1::2] ^= np.uint64(1 << 63)
    return v


def piecewise_constant(seed, bound, hold, horizon):
    vals = np.random.default_rng(seed).uniform(-bound, bound, size=int(horizon / hold) + 2)
    last = len(vals) - 1
    return lambda t: float(vals[min(int(t / hold), last)])


def random_admissible_params(rng):
    """Gains inside the admissible interval for alpha = 4, with L drawn away from 1."""
    lam2 = float(rng.uniform(1.05, 3.0))
    iv = lambda1_range(lam2, 4.0)
    return Params(iv.lo + float(rng.uniform(0.1, 0.9)) * (iv.hi - iv.lo), lam2, float(rng.uniform(0.2, 5.0)), 4.0)


# Step counts on both sides of one and two block edges of the harness loop.
B = harness._BLOCK_STEPS
BLOCK_EDGES = [1, B - 1, B, B + 1, 2 * B + 1]


def assert_states_equal(rec, states):
    """The record's (y1, y2) columns are the stepped states, bit for bit."""
    for name in ("y1", "y2"):
        stepped = np.array([getattr(s, name) for s in states])
        assert np.array_equal(getattr(rec, name).view(np.uint64), stepped.view(np.uint64)), name


def discrete_reference(kind, dt, n, g_fn, fdot0=0.0, f0=0.0):
    """Reference (f, fdot) satisfying the scheme's own difference relations.

    Makes the change of variables between the differentiator and the error
    system exact at the discrete level, so the equivalence check compares
    integrator implementations rather than reference-signal discretization.
    """
    fs = np.empty(n + 1)
    fds = np.empty(n + 1)
    fs[0], fds[0] = f0, fdot0
    for k in range(n):
        if kind == "implicit":
            fds[k + 1] = fds[k] + dt * g_fn((k + 1) * dt)
            fs[k + 1] = fs[k] + dt * fds[k + 1]
        else:
            fds[k + 1] = fds[k] + dt * g_fn(k * dt)
            fs[k + 1] = fs[k] + dt * fds[k]
    f = lambda t: float(fs[int(round(t / dt))])
    fdot = lambda t: float(fds[int(round(t / dt))])
    return f, fdot


class TestSimulate:
    def test_zero_signal_zero_noise(self):
        pair = parse_pair("quadratic:L=1,sign=1", "none", 1.0, 0.0)
        zero = SignalPair(
            f=lambda t: 0.0, fdot=lambda t: 0.0, fddot=lambda t: 0.0,
            eta=lambda t: 0.0, L_cert=1.0, N_cert=0.0, description="zero",
        )
        for kind in ("implicit", "explicit"):
            cfg = SimConfig(StepScheme(kind, 1e-3), 0.5, P_REF, NoiseLevel(0.0))
            rec = simulate(cfg, zero)
            assert np.all(rec.y2 == 0.0)
            assert np.all(rec.error == 0.0)
        del pair

    def test_reference_run_respects_bound(self):
        cfg = SimConfig(StepScheme("implicit", 5e-4), 2.0, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        bound = error_upper_bound(P_REF, N_REF)
        assert np.max(np.abs(rec.error[rec.t >= 0.5])) <= bound

    def test_bound_sound_for_admissible_pairs(self):
        # The quadratic enters with either sign (the run description and the
        # figure disagree on it; the bound is sign-agnostic), plus constant
        # and zero noises: all admissible pairs must respect the bound.
        bound = error_upper_bound(P_REF, N_REF)
        specs = [
            ("quadratic:sign=-1", "switching"),
            ("quadratic:sign=1", "switching"),
            ("quadratic:sign=-1", "constant:N=0.01"),
            ("quadratic:sign=1", "constant:N=-0.01"),
            ("quadratic:sign=-1", "none"),
        ]
        for sig, noi in specs:
            pair = parse_pair(sig, noi, 1.0, 0.01)
            cfg = SimConfig(StepScheme("implicit", 5e-4), 2.0, P_REF, N_REF)
            rec = simulate(cfg, pair)
            assert np.max(np.abs(rec.error[rec.t >= 0.5])) <= bound, (sig, noi)

    def test_grid_and_columns(self):
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.1, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        assert rec.t.shape == (101,)
        assert np.allclose(np.diff(rec.t), 1e-3, rtol=0, atol=1e-15)
        for name in ("u", "f", "fdot", "y1", "y2", "error", "V"):
            assert np.all(np.isfinite(getattr(rec, name)))
        assert np.array_equal(rec.error, rec.y2 - rec.fdot)

    def test_horizon_must_cover_one_step(self):
        with pytest.raises(ValueError):
            SimConfig(StepScheme("implicit", 1e-2), 1e-3, P_REF, N_REF)

    def test_horizon_must_be_whole_number_of_steps(self):
        for dt, horizon in [(0.3, 1.0), (0.4, 1.0), (1e-3, 0.0105), (1e-3, math.inf), (1e-3, math.nan), (1e-300, 1e300)]:
            with pytest.raises(ValueError):
                SimConfig(StepScheme("implicit", dt), horizon, P_REF, N_REF)
        for dt, horizon, steps in [(0.1, 0.3, 3), (5e-5, 5.0, 100000), (1e-4, 3.0, 30000), (1e-3, 1e-3, 1)]:
            assert SimConfig(StepScheme("explicit", dt), horizon, P_REF, N_REF).steps == steps

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    def test_matches_repeated_steps_bit_for_bit(self, kind):
        # With L != 1 the injection gains round differently depending on the
        # order of the products, so this pins the loop to the step API.
        rng = np.random.default_rng(17)
        step = step_implicit if kind == "implicit" else step_explicit
        for dt in (1e-4, 5e-4, 2e-3):
            scheme = StepScheme(kind, dt)
            for _ in range(20):
                p = random_admissible_params(rng)
                pair = parse_pair(f"quadratic:sign={rng.choice([-1, 1])}", "switching", p.L, 0.01)
                rec = simulate(SimConfig(scheme, 200 * dt, p, N_REF), pair)
                states = [init(float(rec.u[0]))]
                for k in range(200):
                    u = rec.u[k + 1] if kind == "implicit" else rec.u[k]
                    states.append(step(states[-1], float(u), scheme, p))
                for name in ("y1", "y2"):
                    stepped = np.array([getattr(s, name) for s in states])
                    assert np.array_equal(getattr(rec, name).view(np.uint64), stepped.view(np.uint64)), (p, dt, name)

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    def test_online_steps_on_scalar_samples_match_simulate(self, kind):
        # An online user feeds one sample pair.u(t) per tick at t = (i+1) dt;
        # the explicit step takes the sample from the step start.  simulate
        # samples the pair as arrays, so this pins the step API, the scalar
        # evaluators and the cached gains to the batch path at L != 1.
        rng = np.random.default_rng(29)
        step = step_implicit if kind == "implicit" else step_explicit
        dt, n = 5e-4, 2000
        scheme = StepScheme(kind, dt)
        iv = lambda1_range(1.4, 4.0)
        for p in [Params(0.5 * (iv.lo + iv.hi), 1.4, 1.7, 4.0), random_admissible_params(rng), random_admissible_params(rng)]:
            assert p.L != 1.0
            c1 = float(rng.uniform(0.005, 0.02))
            c2 = c1 * float(rng.uniform(0.05, 0.5))
            pair = parse_pair(f"quadratic:sign={rng.choice([-1, 1])}", f"switching:c1={c1!r},c2={c2!r}", p.L, 0.01)
            rec = simulate(SimConfig(scheme, n * dt, p, N_REF), pair)
            u_prev = pair.u(0.0)
            states = [init(u_prev)]
            for i in range(n):
                u = pair.u((i + 1) * dt)
                states.append(step(states[-1], u if kind == "implicit" else u_prev, scheme, p))
                u_prev = u
            for name in ("y1", "y2"):
                stepped = np.array([getattr(s, name) for s in states])
                assert np.array_equal(getattr(rec, name).view(np.uint64), stepped.view(np.uint64)), (p, name)

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    @pytest.mark.parametrize("steps", BLOCK_EDGES)
    def test_block_stores_match_repeated_steps_bit_for_bit(self, kind, steps):
        # The loop stores its states a block at a time; step counts on both
        # sides of a block edge pin every slice store to the step API.
        step = step_implicit if kind == "implicit" else step_explicit
        p = random_admissible_params(np.random.default_rng(steps))
        scheme = StepScheme(kind, 1e-3)
        pair = parse_pair("quadratic:sign=1", "switching", p.L, 0.01)
        rec = simulate(SimConfig(scheme, steps * scheme.dt, p, N_REF), pair)
        inputs = rec.u[1:] if kind == "implicit" else rec.u[:-1]
        states = [init(float(rec.u[0]))]
        for u in inputs.tolist():
            states.append(step(states[-1], u, scheme, p))
        assert_states_equal(rec, states)

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    @pytest.mark.parametrize("run", [simulate, simulate_error_system])
    def test_non_finite_samples_rejected(self, kind, run):
        # The step API refuses a NaN sample; a whole run refuses it too,
        # instead of returning NaN states.
        eta = lambda t: math.nan if t > 0.004 else 0.0
        cfg = SimConfig(StepScheme(kind, 1e-3), 0.01, P_REF, N_REF)
        with pytest.raises(ValueError, match="finite"):
            if run is simulate:
                run(cfg, SignalPair(lambda t: 0.0, lambda t: 0.0, None, eta, 1.0, 0.01, "late NaN noise"))
            else:
                run(cfg, eta, lambda t: 0.0)

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    @pytest.mark.parametrize(
        "pair",
        [
            reference_pair(),
            parse_pair("quadratic:sign=1,L=2", "constant:N=-0.02", 1.0, 0.01),
            parse_pair("quadratic", "none", 1.0, 0.01),
            worst_case_pair(WorstCaseSpec(tau=0.5, lambda2=1.1, N=0.01, L=1.0)),
            worst_case_pair(WorstCaseSpec(tau=0.5, lambda2=0.9, N=0.01, L=1.0)),
        ],
        ids=["switching", "constant", "none", "ramp", "divergence"],
    )
    def test_array_sampling_matches_scalar_sampling(self, kind, pair):
        # Without `grid`, `sample` falls back to the scalar evaluators.
        cfg = SimConfig(StepScheme(kind, 1e-3), 0.5, P_REF, N_REF)
        rec = simulate(cfg, pair)
        ref = simulate(cfg, dataclasses.replace(pair, grid=None))
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(rec, name).view(np.uint64), getattr(ref, name).view(np.uint64)), name

    def test_readme_library_example_runs(self, capsys):
        # README's one Python block, run as written: its own assert ties the
        # step API to `simulate`, and it prints the error next to the bound.
        (block,) = re.findall(r"^```python\n(.*?)^```", (Path(__file__).parents[1] / "README.md").read_text(), re.M | re.S)
        exec(block, {})
        assert " <= " in capsys.readouterr().out


class TestTrajectoryRecord:
    def test_columns_are_the_record_fields(self):
        assert TRAJECTORY_COLUMNS == tuple(f.name for f in dataclasses.fields(TrajectoryRecord))
        assert TRAJECTORY_COLUMNS == ("t", "u", "f", "fdot", "y1", "y2", "error", "V")

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    @pytest.mark.parametrize("dt", [5e-4, 1e-5, 3e-3])
    def test_dt_is_the_scheme_step_bit_for_bit(self, kind, dt):
        cfg = SimConfig(StepScheme(kind, dt), 30 * dt, P_REF, N_REF)
        for rec in (simulate(cfg, reference_pair()), simulate_error_system(cfg, lambda t: 0.01, lambda t: 1.0)):
            buf = io.StringIO()
            write_trajectory_csv(buf, rec)
            buf.seek(0)
            for got in (rec, read_trajectory_csv(buf)):
                assert type(got.dt) is float and got.dt.hex() == dt.hex()

    def test_one_sample_record_has_zero_dt(self):
        assert TrajectoryRecord(*np.ones((len(TRAJECTORY_COLUMNS), 1))).dt == 0.0


class TestErrorSystemEquivalence:
    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    def test_matches_differentiator_per_step(self, kind):
        dt = 1e-4
        n = 10000
        g = piecewise_constant(1234, 1.0, 0.02, (n + 1) * dt)
        f, fdot = discrete_reference(kind, dt, n, g)
        eta = lambda t: float(np.sign(math.sin(90.0 * t))) * 0.01
        pair = SignalPair(f=f, fdot=fdot, fddot=g, eta=eta, L_cert=1.0, N_cert=0.01,
                          description="discrete-consistent reference")
        cfg = SimConfig(StepScheme(kind, dt), n * dt, P_REF, N_REF)
        ry = simulate(cfg, pair)
        rx = simulate_error_system(cfg, eta, g, ErrorState(eta(0.0), -fdot(0.0)))
        assert np.max(np.abs((ry.y1 - ry.f) - rx.y1)) <= 1e-9
        assert np.max(np.abs((ry.y2 - ry.fdot) - rx.y2)) <= 1e-9

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    def test_matches_error_recurrence_oracle(self, kind):
        # simulate_error_system runs the differentiator on a reference f
        # restarted from 0 every block and returns x = y - f, so x carries
        # the rounding of y at the magnitude F of |x| and one block's |f|,
        # of order 1 here and independent of the horizon: divided by dt
        # where the implicit deadzone sets y2 = (u - y1) / dt, and raised to
        # sqrt(eps F) by the explicit square root next to the sliding set.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        cases = [
            (P_REF, 1e-5, 1.0, N_REF.N, lambda t: N_REF.N, lambda t: P_REF.L, ErrorState(1.5, 1.0)),
            (P_REF, 5e-4, 12.0, 0.0, lambda t: 0.0, lambda t: -P_REF.L, ErrorState(0.0, -1.0)),
            (P_REF, 5e-4, 120.0, 0.0, lambda t: 0.0, lambda t: -P_REF.L, ErrorState(0.0, -1.0)),
            (P_REF, 1e-3, 0.5, N_REF.N, lambda t: 0.01, lambda t: 0.0, None),
        ]
        for dt in (1e-4, 5e-4, 1e-3):
            p = random_admissible_params(rng)
            x0 = ErrorState(float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.8, 0.8)))
            eta = piecewise_constant(int(rng.integers(1000)), N_REF.N, 0.013, 3.0)
            g = piecewise_constant(int(rng.integers(1000)), p.L, 0.017, 3.0)
            cases.append((p, dt, 3.0, N_REF.N, eta, g, x0))
        for p, dt, horizon, N, eta, g, x0 in cases:
            cfg = SimConfig(StepScheme(kind, dt), horizon, p, NoiseLevel(N))
            rec = simulate_error_system(cfg, eta, g, x0)
            x1s, x2s = oracles.error_system_states(cfg, eta, g, x0)
            tol = 2.0 * eps / dt + 2.0 * dt * p.lambda1 * math.sqrt(p.L) * math.sqrt(eps)
            assert np.max(np.abs(rec.y1 - x1s)) <= tol, (p, dt, horizon)
            assert np.max(np.abs(rec.y2 - x2s)) <= tol, (p, dt, horizon)
            assert np.array_equal(rec.u, [eta(t) for t in rec.t])
            assert not rec.f.any() and not rec.fdot.any()
            assert np.array_equal(rec.error, rec.y2)

    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    @pytest.mark.parametrize("steps", BLOCK_EDGES)
    def test_restarts_match_repeated_steps_bit_for_bit(self, kind, steps):
        # Every B steps the reference (f, fdot) restarts from (0, 0) at the
        # current error, so y = x there; within a block the differentiator
        # steps on u = f + eta and the record holds x = (y1 - f, y2 - fdot).
        step = step_implicit if kind == "implicit" else step_explicit
        rng = np.random.default_rng(steps)
        p = random_admissible_params(rng)
        dt = 1e-3
        scheme = StepScheme(kind, dt)
        eta = piecewise_constant(int(rng.integers(1000)), N_REF.N, 0.013, (steps + 1) * dt)
        g = piecewise_constant(int(rng.integers(1000)), p.L, 0.017, (steps + 1) * dt)
        rec = simulate_error_system(SimConfig(scheme, steps * dt, p, N_REF), eta, g, ErrorState(0.3, -0.2))
        es = [eta(k * dt) for k in range(steps + 1)]
        gs = [g(k * dt) for k in range(steps + 1)]
        xs = [DiffState(0.3, -0.2)]
        for k in range(steps):
            if k % B == 0:
                s, f, fd = xs[-1], 0.0, 0.0
            if kind == "implicit":
                fd = fd + dt * gs[k + 1]
                f = f + dt * fd
                s = step(s, f + es[k + 1], scheme, p)
            else:
                s = step(s, f + es[k], scheme, p)
                f = f + dt * fd
                fd = fd + dt * gs[k]
            xs.append(DiffState(s.y1 - f, s.y2 - fd))
        assert_states_equal(rec, xs)

    def test_zero_disturbances_zero_state(self):
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.2, P_REF, NoiseLevel(0.0))
        rec = simulate_error_system(cfg, lambda t: 0.0, lambda t: 0.0, ErrorState(0.0, 0.0))
        assert np.all(rec.y1 == 0.0)
        assert np.all(rec.y2 == 0.0)

    def test_default_start_uses_initial_noise(self):
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.05, P_REF, N_REF)
        rec = simulate_error_system(cfg, lambda t: 0.01, lambda t: 0.0)
        assert rec.y1[0] == 0.01
        assert rec.y2[0] == 0.0


class TestVDecrease:
    def test_monotone_outside_omega_under_worst_disturbances(self):
        gamma = decay_rate_gamma(P_REF).gamma
        dt = 1e-5
        cfg = SimConfig(StepScheme("implicit", dt), 1.0, P_REF, N_REF)
        rec = simulate_error_system(cfg, lambda t: N_REF.N, lambda t: P_REF.L,
                                    ErrorState(1.5, 1.0))
        V = rec.V
        outside = V[:-1] > N_REF.N + 1e-9
        dV = np.diff(rec.V)
        required = -(gamma / 2.0) * dt * np.sqrt(np.maximum(V[:-1] - N_REF.N, 0.0))
        # One-step overshoot of the discrete flow is O(dt^2).
        allowance = 50.0 * (1.0 + P_REF.lambda1**2 * P_REF.L) * dt * dt
        excess = (dV - required)[outside]
        assert excess.size > 0
        assert np.max(excess) <= allowance


class TestErrorSummary:
    def test_zero_input_run(self):
        zero = SignalPair(f=lambda t: 0.0, fdot=lambda t: 0.0, fddot=lambda t: 0.0,
                          eta=lambda t: 0.0, L_cert=1.0, N_cert=0.0, description="zero")
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.5, P_REF, NoiseLevel(0.0))
        summ = error_summary(simulate(cfg, zero), P_REF, NoiseLevel(0.0), tau=0.1)
        assert summ.sup_error_after == 0.0
        assert summ.first_entry_time == 0.0

    def test_noise_free_convergence_beats_time_bound(self):
        # Error-system realization of a noise-free start with fdot(0) = 1:
        # x2(0) = -1 under constant curvature -L; the closed-form ceiling
        # for the settling time is |fdot(0)| / ((lambda2 - 1) L) = 10.
        dt = 5e-4
        cfg = SimConfig(StepScheme("implicit", dt), 12.0, P_REF, NoiseLevel(0.0))
        rec = simulate_error_system(cfg, lambda t: 0.0, lambda t: -P_REF.L,
                                    ErrorState(0.0, -1.0))
        band = 2.0 * P_REF.L * dt  # discretization floor for the settled error
        summ = error_summary(rec, P_REF, NoiseLevel(0.0), tau=0.0, band=band)
        assert summ.first_entry_time is not None
        assert summ.first_entry_time <= 10.0

    def test_sup_nonincreasing_in_tau(self):
        cfg = SimConfig(StepScheme("implicit", 5e-4), 2.0, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        sups = [error_summary(rec, P_REF, N_REF, tau).sup_error_after
                for tau in (0.0, 0.25, 0.5, 1.0, 1.5)]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))

    def test_tau_outside_horizon(self):
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.1, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        with pytest.raises(ValueError):
            error_summary(rec, P_REF, N_REF, tau=1.0)

    @pytest.mark.parametrize("band", [math.nan, math.inf, -1e-3])
    def test_band_must_be_nonnegative_and_finite(self, band):
        # |error| > nan is False everywhere, so a NaN band used to report
        # the run as settled from its first sample.
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.1, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        with pytest.raises(ValueError, match="band"):
            error_summary(rec, P_REF, N_REF, tau=0.0, band=band)
        assert error_summary(rec, P_REF, N_REF, tau=0.0, band=0.0).first_entry_time is None


class TestConvergenceTime:
    # Noise-free runs on f = v t + s L t^2 / 2 from the standard start, where
    # the derivative error starts at -v; T = convergence_time_bound.  Once
    # settled, the explicit scheme chatters within 2.82 (lambda2 + 1) L dt
    # and the implicit one lags by 0.2 of it (measured over 60 random gain
    # sets), so dt makes 4 (lambda2 + 1) L dt the band 1e-3 |v|.  With
    # s = sign(v) the error decays linearly at (lambda2 - 1) L and enters the
    # band at 0.9991 T or later: the bound is attained to within the margin
    # 2e-3.  With the opposite sign it takes (lambda2 - 1) / (lambda2 + 1) of
    # T.  A run is 1.2 T, 5,700 to 37,000 steps.
    @pytest.mark.parametrize("kind", ["explicit", "implicit"])
    @settings(max_examples=20)
    @given(
        lam2=st.floats(1.3, 12.0), frac=st.floats(0.2, 0.8), L=st.floats(0.1, 10.0), v=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
    )
    def test_reach_time_is_within_the_bound_and_attains_it(self, kind, lam2, frac, L, v):
        iv = lambda1_range(lam2, 4.0)
        p = Params(iv.lo + frac * (iv.hi - iv.lo), lam2, L, 4.0)
        T, band = convergence_time_bound(p, v), 1e-3 * abs(v)
        dt = band / (4.0 * (lam2 + 1.0) * L)
        for s in (1.0, -1.0):
            f = lambda t: v * t + s * L * t * t / 2.0
            fdot = lambda t: v + s * L * t
            pair = SignalPair(f, fdot, None, lambda t: 0.0, L, 0.0, "ramp", lambda ts: (f(ts), fdot(ts), 0.0 * ts))
            rec = simulate(SimConfig(StepScheme(kind, dt), round(1.2 * T / dt) * dt, p, NoiseLevel(0.0)), pair)
            reach = error_summary(rec, p, NoiseLevel(0.0), 0.0, band).first_entry_time
            assert reach <= T + 2.0 * dt
            assert reach >= (1.0 - 2e-3) * T - 2.0 * dt or s * v < 0


class TestOmegaInvariance:
    def test_valid_gains_enter_and_stay(self):
        cfg = SimConfig(StepScheme("implicit", 1e-4), 8.0, P_REF, N_REF)
        rec = simulate_error_system(
            cfg,
            piecewise_constant(70, N_REF.N, 0.013, 8.0),
            piecewise_constant(71, P_REF.L, 0.017, 8.0),
            ErrorState(1.0, 1.0),
        )
        rep = omega_invariance_check(rec, P_REF, N_REF)
        assert rep.entered
        assert rep.ok
        assert bool(rep) is True

    def test_corrupted_lambda1_can_fail(self):
        # Start just inside the invariant set at a point whose V-derivative
        # is positive under a constant disturbance corner once lambda1 drops
        # below the admissible interval; the same run with valid gains stays.
        bad = Params(2.0, 1.1, 1.0, 4.0)
        start = ErrorState(0.08297024808703168, 0.5560712079396631)
        eta = lambda t: N_REF.N
        fddot = lambda t: P_REF.L
        cfg = SimConfig(StepScheme("implicit", 1e-4), 2.0, bad, N_REF)
        rep = omega_invariance_check(
            simulate_error_system(cfg, eta, fddot, start), bad, N_REF
        )
        assert rep.entered
        assert not rep.ok
        cfg_ok = SimConfig(StepScheme("implicit", 1e-4), 2.0, P_REF, N_REF)
        rep_ok = omega_invariance_check(
            simulate_error_system(cfg_ok, eta, fddot, start), P_REF, N_REF
        )
        assert rep_ok.entered
        assert rep_ok.ok

    def test_never_entered_is_vacuous(self):
        cfg = SimConfig(StepScheme("implicit", 1e-4), 0.002, P_REF, N_REF)
        rec = simulate_error_system(cfg, lambda t: 0.0, lambda t: 0.0, ErrorState(2.0, 2.0))
        rep = omega_invariance_check(rec, P_REF, N_REF)
        assert not rep.entered
        assert rep.ok
        assert rep.entry_time is None


class TestContour:
    def test_landmark_values(self):
        p = Params(4.1, 1.1, 1.0, 4.0 / 2.1)
        x1s, x2s, V = contour_grid(p, (-2.0, 2.0, -4.0, 4.0), (5, 5))
        assert V[2, 3] == 0.5  # (0, 2)
        assert V[3, 2] == 1.0  # (1, 0)
        assert V[2, 2] == 0.0  # origin

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            contour_grid(P_REF, (0.0, 0.0, -1.0, 1.0), (5, 5))
        with pytest.raises(ValueError):
            contour_grid(P_REF, (-1.0, 1.0, -1.0, 1.0), (1, 5))

    # V is evaluated from the axes, broadcast, in blocks: the call's peak is
    # V, the axes and a fixed amount per block, not coordinate grids and
    # whole-grid temporaries (176 MB traced at 1500x1500 when it built them).
    def test_grid_allocates_v_and_little_more(self):
        contour_grid(P_REF, (-3.0, 3.0, -3.0, 3.0), (3, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, _, V = contour_grid(P_REF, (-3.0, 3.0, -3.0, 3.0), (1500, 1500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.shape == (1500, 1500)
        assert peak - before <= V.nbytes + 1_000_000

    def test_overflowing_v_rejected(self):
        # V grows like x2^2, so it overflows at |x2| = 1e200 although the box is finite.
        with pytest.raises(ValueError, match="finite"):
            contour_grid(P_REF, (-1e200, 1e200, -1e200, 1e200), (3, 3))
        assert np.isfinite(contour_grid(P_REF, (-1e154, 1e154, -1e154, 1e154), (3, 3))[2]).all()


class TestCsv:
    def test_trajectory_round_trip_is_bit_exact(self):
        cfg = SimConfig(StepScheme("implicit", 5e-4), 0.25, P_REF, N_REF)
        rec = simulate(cfg, reference_pair())
        buf = io.StringIO()
        write_trajectory_csv(buf, rec)
        buf.seek(0)
        back = read_trajectory_csv(buf)
        for name in ("t", "u", "f", "fdot", "y1", "y2", "error", "V"):
            assert np.array_equal(getattr(rec, name), getattr(back, name)), name
        assert back.dt == rec.dt

    def test_trajectory_header(self):
        cfg = SimConfig(StepScheme("implicit", 1e-3), 0.01, P_REF, N_REF)
        buf = io.StringIO()
        write_trajectory_csv(buf, simulate(cfg, reference_pair()))
        assert buf.getvalue().splitlines()[0] == "t,u,f,fdot,y1,y2,error,V"
        # The reader refuses another header: a column missing, or renamed.
        for header in ("t,u,f,fdot,y1,y2,error", "t,u,f,fdot,y1,y2,err,V"):
            with pytest.raises(ValueError, match="unexpected trajectory header"):
                read_trajectory_csv(io.StringIO(header + "\n1,2,3,4,5,6,7,8\n"))

    def test_contour_csv(self):
        p = Params(4.1, 1.1, 1.0, 4.0 / 2.1)
        x1s, x2s, V = contour_grid(p, (-1.0, 1.0, -2.0, 2.0), (3, 3))
        buf = io.StringIO()
        write_contour_csv(buf, x1s, x2s, V)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x1,x2,V"
        assert len(lines) == 1 + 9
        row = lines[1 + 1 * 3 + 1].split(",")  # grid point (0, 0)
        assert [float(v) for v in row] == [0.0, 0.0, 0.0]

    def test_special_values_round_trip_bit_for_bit(self):
        specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308, np.inf, -np.inf])
        cols = [np.roll(specials, k) for k in range(len(TRAJECTORY_COLUMNS))]
        rec = TrajectoryRecord(*cols)
        buf = io.StringIO()
        write_trajectory_csv(buf, rec)
        buf.seek(0)
        back = read_trajectory_csv(buf)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(rec, name).view(np.uint64), getattr(back, name).view(np.uint64)), name

    def test_writer_matches_per_value_format_across_chunks(self):
        n = 2 * harness._CSV_CHUNK_ROWS + 3
        cols = np.random.default_rng(5).standard_normal((len(TRAJECTORY_COLUMNS), n)) * 10.0 ** np.arange(-4, 4)[:, None]
        buf = io.StringIO()
        write_trajectory_csv(buf, TrajectoryRecord(*cols))
        rows = [",".join(format(float(v), ".17g") for v in row) for row in cols.T]
        assert buf.getvalue() == "\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n"
        # A broadcast grid, x1-major, whose rows straddle the chunks; V is a
        # strided view.
        x1s, x2s, V = cols[0, :3], cols[1, : harness._CSV_CHUNK_ROWS + 5], cols[2:5, : harness._CSV_CHUNK_ROWS + 5]
        buf = io.StringIO()
        write_contour_csv(buf, x1s, x2s, V)
        rows = [
            ",".join(format(v, ".17g") for v in (a, b, V[i, j].item()))
            for i, a in enumerate(x1s.tolist())
            for j, b in enumerate(x2s.tolist())
        ]
        assert buf.getvalue() == "\n".join(["x1,x2,V", *rows]) + "\n"
        # The violations' format: each value's repr.
        buf = io.StringIO()
        write_violations_csv(buf, Violations(*cols[:6]))
        rows = [",".join(map(repr, row)) for row in cols[:6].T.tolist()]
        assert buf.getvalue() == "\n".join(["x1,x2,eta,fddot,observed,required", *rows]) + "\n"

    @pytest.mark.parametrize("vector", [True, False], ids=["vector", "per-row"])
    def test_g17_formats_as_python_byte_for_byte(self, monkeypatch, vector):
        # Without a 64-bit long double the writer formats every value per row.
        if not vector:
            monkeypatch.setattr(harness, "_LONG_DOUBLE_64", False)
        v = g17_probes()
        cols = np.resize(v, (len(TRAJECTORY_COLUMNS), -(-len(v) // 8)))
        buf = io.StringIO()
        write_trajectory_csv(buf, TrajectoryRecord(*cols))
        rows = [",".join(format(x, ".17g") for x in row) for row in cols.T.tolist()]
        assert buf.getvalue() == "\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n"
        x1s, x2s, V = v[:30], v[30:230], np.resize(v[::-1], (30, 200))
        buf = io.StringIO()
        write_contour_csv(buf, x1s, x2s, V)
        rows = [
            ",".join(format(x, ".17g") for x in (a, b, c))
            for a, row in zip(x1s.tolist(), V.tolist())
            for b, c in zip(x2s.tolist(), row)
        ]
        assert buf.getvalue() == "\n".join(["x1,x2,V", *rows]) + "\n"

    @pytest.mark.skipif(not harness._LONG_DOUBLE_64, reason="the vector path needs a 64-bit long double")
    def test_g17_powers_of_ten_are_rounded_once(self):
        # The vector path's error bound takes each 10**p within 2**-64 of itself.
        from stwdiff import _g17

        for p in range(16 - _g17.KMAX, 17 - _g17.KMIN):
            t = Fraction(*_g17.pow10(p).as_integer_ratio())
            assert abs(t / Fraction(10) ** p - 1) <= Fraction(1, 2**64)

    def test_import_compiles_no_g17_formatter(self):
        src = str(Path(harness.__file__).resolve().parents[1])
        code = "import sys, stwdiff; assert 'stwdiff._g17' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)

    # The writer formats a chunk of rows at a time from its columns'
    # broadcast, so it holds one chunk's numbers and text: 0.7 MB traced for
    # the 1500x1500 contour (whose first chunk builds the `%.17g` tables),
    # 1.6 MB for the 8 columns of a trajectory, 0.4 MB for the 52,676 rows
    # of the benchmark's 400x400 mutant probe.  The contour's repeated
    # coordinate columns took 37 MB, and the violations' whole-column lists
    # 10 MB, before the first row was written; 4,096 rows of trajectory text
    # formatted per value took 2.5 MB.  The sink stops the write after three
    # chunks, when the peak has been reached: a whole traced 1500x1500 write
    # takes 25 s.
    def test_writers_hold_one_chunk_of_rows(self):
        class Stop(Exception):
            pass

        class Sink(io.TextIOBase):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 4:
                    raise Stop

        def peak(write):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with pytest.raises(Stop):
                    write(Sink())
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        x1s, x2s, V = contour_grid(P_REF, (-3.0, 3.0, -3.0, 3.0), (1500, 1500))
        assert peak(lambda fh: write_contour_csv(fh, x1s, x2s, V)) <= 2_000_000
        rec = TrajectoryRecord(*np.random.default_rng(3).standard_normal((8, 4 * harness._CSV_CHUNK_ROWS)))
        assert peak(lambda fh: write_trajectory_csv(fh, rec)) <= 2_000_000
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400)
        violations = verify_decrease(Params(4.1, 0.5, 1.0, 4.0), N_REF, grid, gamma=decay_rate_gamma(P_REF).gamma)
        assert len(violations) == 52676
        assert peak(lambda fh: write_violations_csv(fh, violations)) <= 3_000_000

    @settings(max_examples=100)
    @given(st.binary(min_size=64, max_size=64 * 40))
    def test_random_bit_patterns_round_trip(self, raw):
        # Rows of eight float64 bit patterns; a NaN pattern becomes +0.0.
        bits = np.frombuffer(raw[: len(raw) // 64 * 64], dtype="<u8").reshape(-1, 8).T.copy()
        bits[np.isnan(bits.view(np.float64))] = 0
        buf = io.StringIO()
        write_trajectory_csv(buf, TrajectoryRecord(*bits.view(np.float64)))
        buf.seek(0)
        back = read_trajectory_csv(buf)
        assert np.array_equal(np.array([getattr(back, name) for name in TRAJECTORY_COLUMNS]).view(np.uint64), bits)

    @pytest.mark.parametrize(
        "body",
        ["", "# comment\n1,2,3,4,5,6,7,8\n", "1,2,3,4,5,6,7\n", "1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7\n", "1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,8,9\n"],
        ids=["header-only", "comment", "short", "ragged-short", "ragged-long"],
    )
    def test_malformed_trajectory_rejected_without_warning(self, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="malformed trajectory CSV"):
                read_trajectory_csv(io.StringIO("t,u,f,fdot,y1,y2,error,V\n" + body))

    def test_blank_lines_skipped(self):
        text = "t,u,f,fdot,y1,y2,error,V\n1,2,3,4,5,6,7,8\n\n   \n2,2,3,4,5,6,7,8\n"
        back = read_trajectory_csv(io.StringIO(text))
        assert back.t.tolist() == [1.0, 2.0] and back.dt == 1.0
