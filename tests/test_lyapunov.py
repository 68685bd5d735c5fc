import hashlib
import io
import math

import numpy as np
import pytest

import oracles
from stwdiff import (
    ErrorState,
    GridSpec,
    NoiseLevel,
    Params,
    decay_rate_gamma,
    evaluate,
    evaluate_grid,
    omega_contains,
    region,
    sup_x2_on_omega,
    validate_condition,
    verify_decrease,
)
from stwdiff.lyapunov import _thresholds_grid, write_violations_csv

P_REF = Params(4.1, 1.1, 1.0, 4.0)
# Parameter set of the contour figure: alpha (lambda2 + 1) L = 4.
P_CONTOUR = Params(4.1, 1.1, 1.0, 4.0 / 2.1)
N_UNIT = NoiseLevel(1.0)


def branch_values(z1, z2, p):
    """Recompute the three branch formulas directly (test-side reference)."""
    lam2p1L = (p.lambda2 + 1.0) * p.L
    w1 = z2 * z2 / (2.0 * p.alpha * lam2p1L) - z1
    w2 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    w3 = z1 - z2 * z2 / (2.0 * lam2p1L)
    return w1, w2, w3


class TestRegionAndValue:
    def test_examples(self):
        r = region(ErrorState(0.0, 2.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W1", False)
        r = region(ErrorState(1.0, 0.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W3", False)
        r = region(ErrorState(0.0, -2.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W1", True)

    def test_values(self):
        assert evaluate(ErrorState(0.0, 2.0), P_CONTOUR) == 0.5
        assert evaluate(ErrorState(1.0, 0.0), P_CONTOUR) == 1.0
        assert evaluate(ErrorState(0.0, 0.0), P_CONTOUR) == 0.0
        # First threshold at x2 = 2 sits at x1 = 0.25: both branches agree there.
        assert evaluate(ErrorState(0.25, 2.0), P_CONTOUR) == 0.25

    def test_boundary_assignment_is_deterministic(self):
        lam2p1L = (P_CONTOUR.lambda2 + 1.0) * P_CONTOUR.L
        z2 = 2.0
        t1 = z2 * z2 / (4.0 * P_CONTOUR.alpha * lam2p1L)
        t2 = (2.0 * P_CONTOUR.alpha + 1.0) * t1
        assert region(ErrorState(t1, z2), P_CONTOUR).index == "W1"
        assert region(ErrorState(t1 * (1 + 1e-12), z2), P_CONTOUR).index == "W2"
        assert region(ErrorState(t2, z2), P_CONTOUR).index == "W2"
        assert region(ErrorState(t2 * (1 + 1e-12), z2), P_CONTOUR).index == "W3"

    def test_state_on_first_threshold_is_w1_for_random_gains(self):
        # region and evaluate share one threshold expression, so a state
        # placed exactly on t1 lands in W1 whatever the rounding of t1.
        rng = np.random.default_rng(71)
        for _ in range(2000):
            lam2, L, alpha = rng.uniform(0.1, 5.0), rng.uniform(0.01, 10.0), rng.uniform(1.001, 4.0)
            p = Params(4.1, lam2, L, alpha)
            z2 = rng.uniform(0.01, 5.0)
            t1 = z2 * z2 / (4.0 * alpha * ((lam2 + 1.0) * L))
            sign = rng.choice([-1.0, 1.0])
            assert region(ErrorState(sign * t1, sign * z2), p).index == "W1", (lam2, L, alpha, z2)

    def test_scalar_forms_match_array_forms_bit_for_bit(self):
        rng = np.random.default_rng(72)
        drawn = [Params(4.1, rng.uniform(0.1, 5.0), rng.uniform(0.01, 10.0), rng.uniform(1.001, 4.0)) for _ in range(8)]
        for p in [P_REF, P_CONTOUR] + drawn:
            x1 = list(rng.uniform(-5, 5, 400))
            x2 = list(rng.uniform(-5, 5, 400))
            for z2 in rng.uniform(0.01, 5.0, 50):
                t1 = z2 * z2 / (4.0 * p.alpha * ((p.lambda2 + 1.0) * p.L))
                t2 = (2.0 * p.alpha + 1.0) * t1
                x1 += [t1, t2, -t1, -t2]
                x2 += [z2, z2, -z2, -z2]
            for zero in (0.0, -0.0):
                x1 += [0.0, -0.0, 1.5, -1.5]
                x2 += [zero] * 4
            x1, x2 = np.array(x1), np.array(x2)
            scalar = np.array([evaluate(ErrorState(a, b), p) for a, b in zip(x1, x2)])
            assert np.array_equal(scalar.view(np.int64), evaluate_grid(x1, x2, p).view(np.int64))
            z1, _, t1, t2, _ = _thresholds_grid(x1, x2, p)
            branch = np.where(z1 <= t1, "W1", np.where(z1 <= t2, "W2", "W3"))
            regions = [region(ErrorState(a, b), p) for a, b in zip(x1, x2)]
            assert [r.index for r in regions] == list(branch)
            assert [r.mirrored for r in regions] == list(x2 < 0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            x1, x2 = rng.uniform(-5, 5, size=2)
            a = evaluate(ErrorState(x1, x2), P_REF)
            b = evaluate(ErrorState(-x1, -x2), P_REF)
            assert a == b

    def test_continuity_at_thresholds(self):
        rng = np.random.default_rng(6)
        lam2p1L = (P_REF.lambda2 + 1.0) * P_REF.L
        for _ in range(300):
            z2 = rng.uniform(0.01, 5.0)
            t1 = z2 * z2 / (4.0 * P_REF.alpha * lam2p1L)
            t2 = (2.0 * P_REF.alpha + 1.0) * t1
            w1, w2, w3 = branch_values(t1, z2, P_REF)
            assert abs(w1 - w2) <= 8 * math.ulp(max(abs(w1), abs(w2), 1e-300))
            w1, w2, w3 = branch_values(t2, z2, P_REF)
            assert abs(w2 - w3) <= 8 * math.ulp(max(abs(w2), abs(w3), 1e-300))

    def test_continuity_across_x2_axis(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            x1 = rng.uniform(-4, 4)
            up = evaluate(ErrorState(x1, 1e-13), P_REF)
            down = evaluate(ErrorState(x1, -1e-13), P_REF)
            assert abs(up - down) <= 1e-12 * max(1.0, abs(up))

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            x1, x2 = rng.uniform(-5, 5, size=2)
            if (x1, x2) == (0.0, 0.0):
                continue
            assert evaluate(ErrorState(x1, x2), P_REF) > 0.0

    def test_lipschitz_on_box(self):
        rng = np.random.default_rng(9)
        z2max = 6.0
        lam2p1L = (P_REF.lambda2 + 1.0) * P_REF.L
        K = 1.0 + z2max / lam2p1L  # gradient bound over the box
        for _ in range(500):
            a = rng.uniform(-6, 6, size=2)
            b = rng.uniform(-6, 6, size=2)
            num = abs(evaluate(ErrorState(*a), P_REF) - evaluate(ErrorState(*b), P_REF))
            den = float(np.hypot(*(a - b)))
            if den > 0:
                assert num <= K * den * (1 + 1e-12)

    def test_level_one_landmarks(self):
        for x1 in (1.0, -1.0):
            assert evaluate(ErrorState(x1, 0.0), P_CONTOUR) == pytest.approx(1.0, abs=1e-15)
        r8 = math.sqrt(8.0)
        for x2 in (r8, -r8):
            assert evaluate(ErrorState(0.0, x2), P_CONTOUR) == pytest.approx(1.0, rel=1e-15)
        # Flat branch at |x2| = 4 realizes the level-set maximum of |x2|.
        assert evaluate(ErrorState(2.0, 4.0), P_CONTOUR) == pytest.approx(1.0, rel=1e-15)
        x1g = np.linspace(-8, 8, 801)
        x2g = np.linspace(-6, 6, 601)
        G1, G2 = np.meshgrid(x1g, x2g, indexing="ij")
        V = evaluate_grid(G1, G2, P_CONTOUR)
        inside = V <= 1.0
        assert np.max(np.abs(G2[inside])) <= 4.0 + 1e-12


class TestOmega:
    def test_sup_closed_form(self):
        assert sup_x2_on_omega(P_CONTOUR, N_UNIT) == pytest.approx(4.0, rel=1e-15)
        assert sup_x2_on_omega(P_REF, NoiseLevel(0.01)) == pytest.approx(
            0.5796550698475775, rel=1e-15
        )
        assert sup_x2_on_omega(P_REF, NoiseLevel(0.0)) == 0.0

    def test_membership(self):
        assert omega_contains(ErrorState(1.0, 0.0), P_CONTOUR, N_UNIT)
        assert not omega_contains(ErrorState(0.0, 4.01), P_CONTOUR, N_UNIT)
        assert omega_contains(ErrorState(0.0, 0.0), P_REF, NoiseLevel(0.0))

    def test_sup_against_coarse_boundary_scan(self):
        # Finer version (1e5 points, 1e-4 tolerance) runs in the acceptance suite.
        closed = sup_x2_on_omega(P_CONTOUR, N_UNIT)
        x2s = np.linspace(-1.5 * closed, 1.5 * closed, 4001)
        x1s = np.linspace(-10.0, 10.0, 801)
        G2, G1 = np.meshgrid(x2s, x1s, indexing="ij")
        inside = evaluate_grid(G1, G2, P_CONTOUR) <= N_UNIT.N
        rows = inside.any(axis=1)
        found = np.max(np.abs(x2s[rows]))
        assert abs(found - closed) / closed <= 1e-3


class TestGamma:
    def test_reference_report(self):
        rep = decay_rate_gamma(P_REF)
        assert rep.epsilon2 == pytest.approx(0.0012196936161602047, rel=1e-13)
        assert rep.epsilon1 == pytest.approx(0.011607187132515514, rel=1e-13)
        rates = (
            rep.r_region1_neg,
            rep.r_region1_pos,
            rep.r_region1_eta,
            rep.r_region2,
            rep.r_region3,
        )
        assert all(r > 0 for r in rates)
        assert rep.gamma == min(rates)
        assert rep.gamma == rep.r_region3  # the region-3 margin binds here
        fields = oracles.o_gamma_fields(4.1, 1.1, 1.0, 4.0)
        for name, want in fields.items():
            assert oracles.ulp_gap(getattr(rep, name), want) <= 4, name

    def test_domain_error_when_condition_fails(self):
        with pytest.raises(ValueError):
            decay_rate_gamma(Params(4.0, 1.1, 1.0, 4.0))  # below the lower limit
        with pytest.raises(ValueError):
            decay_rate_gamma(Params(4.2, 1.1, 1.0, 4.0))  # above the upper limit
        with pytest.raises(ValueError):
            decay_rate_gamma(Params(4.1, 0.5, 1.0, 4.0))

    def test_margin_sign_matches_condition(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            lam2 = float(rng.uniform(1.02, 5.0))
            lam1 = float(rng.uniform(2.0, 10.0))
            p = Params(lam1, lam2, 1.0, 4.0)
            if validate_condition(p):
                decay_rate_gamma(p)
            else:
                with pytest.raises(ValueError):
                    decay_rate_gamma(p)


class TestVdot:
    def test_analytic_matches_finite_difference_away_from_kinks(self):
        rng = np.random.default_rng(19)
        n = NoiseLevel(0.01)
        lam2p1L = (P_REF.lambda2 + 1.0) * P_REF.L
        checked = 0
        while checked < 200:
            x1, x2 = rng.uniform(-2, 2, size=2)
            eta = float(rng.uniform(-n.N, n.N))
            fddot = float(rng.uniform(-1, 1))
            z1, z2 = (x1, x2) if x2 >= 0 else (-x1, -x2)
            t1 = z2 * z2 / (4.0 * P_REF.alpha * lam2p1L)
            t2 = (2.0 * P_REF.alpha + 1.0) * t1
            # Stay away from region borders, the mirror axis, and the sign kink.
            if min(abs(z1 - t1), abs(z1 - t2)) < 1e-2 or abs(x2) < 1e-2 or abs(x1 - eta) < 1e-2:
                continue
            ana = oracles.vdot_analytic(ErrorState(x1, x2), P_REF, eta, fddot)
            fd = oracles.vdot_one_sided(ErrorState(x1, x2), P_REF, eta, fddot, h=1e-7)
            assert fd == pytest.approx(ana, rel=1e-4, abs=1e-6)
            checked += 1


class TestVerifyDecrease:
    def test_clean_on_valid_gains(self):
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 120, 120)
        assert verify_decrease(P_REF, NoiseLevel(0.01), grid) == []

    def test_mutation_produces_violations(self):
        gamma = decay_rate_gamma(P_REF).gamma
        bad = Params(4.1, 0.5, 1.0, 4.0)
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 60, 60)
        violations = verify_decrease(bad, NoiseLevel(0.01), grid, gamma=gamma)
        assert violations
        for v in violations[:20]:
            assert v.observed_rate > v.required_rate + 1e-9
            assert abs(v.eta) <= 0.01 + 1e-15
            assert abs(v.fddot) == 1.0

    def test_states_inside_omega_are_skipped(self):
        # A box strictly inside the invariant set yields nothing to check.
        grid = GridSpec(-0.005, 0.005, -0.05, 0.05, 20, 20)
        assert verify_decrease(P_REF, NoiseLevel(1.0), grid) == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, -1.0, 1.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 0, 10)
        # NaN fails every comparison, so it would pass the box check vacuously.
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(4):
                bounds = [-1.0, 1.0, -1.0, 1.0]
                bounds[i] = bad
                with pytest.raises(ValueError):
                    GridSpec(*bounds, 10, 10)
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 10, 10)
        for bad in (math.nan, math.inf):
            for key in ("gamma", "margin", "tolerance"):
                with pytest.raises(ValueError):
                    verify_decrease(P_REF, NoiseLevel(0.01), grid, **{key: bad})

    # sha256 of the violations CSV written by the original whole-grid
    # certifier: a grid whose row count is not a multiple of a block, a
    # one-row grid, and rows longer than a whole block.
    @pytest.mark.parametrize(
        "box, n1, n2, count, digest",
        [
            ((-1.5, 1.5, -1.5, 1.5), 401, 397, 51546, "2c878664d27df985b70e40b4dc34068e9c3bbd02a282a30275ca51372b001a81"),
            ((0.3, 1.5, -1.5, 1.5), 1, 900, 728, "09a085af49e33f757880e97091945c015d620ebba7387321aec0f49739418c2f"),
            ((-1.5, 1.5, -1.5, 1.5), 3, 70000, 4712, "7ff3daffc81e01add4f04d85f4021bf9a5271c1c53a504cff66fa5cabb96ac58"),
        ],
    )
    def test_mutant_violations_match_golden_csv(self, box, n1, n2, count, digest):
        gamma = decay_rate_gamma(P_REF).gamma
        bad = Params(4.1, 0.5, 1.0, 4.0)
        violations = verify_decrease(bad, NoiseLevel(0.01), GridSpec(*box, n1, n2), gamma=gamma)
        buf = io.StringIO()
        write_violations_csv(buf, violations)
        assert len(violations) == count
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_violations_csv_format(self):
        gamma = decay_rate_gamma(P_REF).gamma
        bad = Params(4.1, 0.5, 1.0, 4.0)
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 30, 30)
        violations = verify_decrease(bad, NoiseLevel(0.01), grid, gamma=gamma)
        buf = io.StringIO()
        write_violations_csv(buf, violations)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x1,x2,eta,fddot,observed,required"
        assert len(lines) == len(violations) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[4] > first[5]
