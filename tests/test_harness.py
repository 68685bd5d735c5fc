import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

import oracles
from stwdiff import (
    ErrorState,
    NoiseLevel,
    Params,
    SimConfig,
    StepScheme,
    contour_grid,
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
    write_contour_csv,
    write_trajectory_csv,
)
from stwdiff import harness
from stwdiff.harness import TRAJECTORY_COLUMNS, TrajectoryRecord
from stwdiff.signals import SignalPair, WorstCaseSpec, worst_case_pair

P_REF = Params(4.1, 1.1, 1.0, 4.0)
N_REF = NoiseLevel(0.01)


def reference_pair():
    return parse_pair("quadratic:sign=-1", "switching:N=0.01,c1=0.011,c2=0.00149", 1.0, 0.01)


def piecewise_constant(seed, bound, hold, horizon):
    vals = np.random.default_rng(seed).uniform(-bound, bound, size=int(horizon / hold) + 2)
    last = len(vals) - 1
    return lambda t: float(vals[min(int(t / hold), last)])


def random_admissible_params(rng):
    """Gains inside the admissible interval for alpha = 4, with L drawn away from 1."""
    lam2 = float(rng.uniform(1.05, 3.0))
    iv = lambda1_range(lam2, 4.0)
    return Params(iv.lo + float(rng.uniform(0.1, 0.9)) * (iv.hi - iv.lo), lam2, float(rng.uniform(0.2, 5.0)), 4.0)


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
        # Without `sample`, simulate falls back to the scalar evaluators.
        cfg = SimConfig(StepScheme(kind, 1e-3), 0.5, P_REF, N_REF)
        rec = simulate(cfg, pair)
        ref = simulate(cfg, dataclasses.replace(pair, sample=None))
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(rec, name).view(np.uint64), getattr(ref, name).view(np.uint64)), name


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
        rec = TrajectoryRecord(*cols, dt=0.0)
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
        write_trajectory_csv(buf, TrajectoryRecord(*cols, dt=0.0))
        rows = [",".join(format(float(v), ".17g") for v in row) for row in cols.T]
        assert buf.getvalue() == "\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n"

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
