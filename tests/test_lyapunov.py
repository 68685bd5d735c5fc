import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import stwdiff
from stwdiff import (
    ErrorState,
    GridSpec,
    NoiseLevel,
    Params,
    Violations,
    decay_rate_gamma,
    evaluate,
    evaluate_grid,
    omega_contains,
    region,
    sup_x2_on_omega,
    validate_condition,
    verify_decrease,
)
from stwdiff import lyapunov
from oracles import _thresholds_grid
from stwdiff.harness import write_violations_csv
from stwdiff.lyapunov import DecreaseViolation, _wdot_branches

P_REF = Params(4.1, 1.1, 1.0, 4.0)
# Parameter set of the contour figure: alpha (lambda2 + 1) L = 4.
P_CONTOUR = Params(4.1, 1.1, 1.0, 4.0 / 2.1)
N_UNIT = NoiseLevel(1.0)
N_SMALL = NoiseLevel(0.01)
# The lambda2 = 0.5 mutant of the reference gains, probed with the reference gamma.
P_MUTANT = Params(4.1, 0.5, 1.0, 4.0)
BLOCK = lyapunov._BLOCK_STATES
# Admissible gains whose 4 alpha (lambda2 + 1) L overflows: t1 would read 0 at
# every x2, so V would be 0 at (0, 1e150) instead of about 1.25e-9.
P_OVERFLOW = Params(3e154, 1e308, 1.0, 4.0)
# A box whose certifier cells are proved band by band (see the cell proof's test).
BANDS_PROVED_BOX = (1.0, 3.0, 0.05, 0.5)


def thresholds(z2, p):
    """Region thresholds (t1, t2) at z2, written as the certifier computes them."""
    t1 = z2 * z2 / (4.0 * p.alpha * ((p.lambda2 + 1.0) * p.L))
    return t1, (2.0 * p.alpha + 1.0) * t1


def violations_digest(violations):
    buf = io.StringIO()
    write_violations_csv(buf, violations)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@functools.cache
def mutant_violations(box, n1, n2):
    gamma = decay_rate_gamma(P_REF).gamma
    return verify_decrease(P_MUTANT, N_SMALL, GridSpec(*box, n1, n2), gamma=gamma)


def assert_oracle_filtered(got, ref, n):
    """`got` is the four-slot list `ref` with records at eta = x1 in place of
    the straddling-slot records and of the corner records that the oracle
    nudged off x1 = -N or N: the rest are `ref`'s exact-corner records, bit
    for bit and in order.  Only in-band states (|x1| <= N; the mirror keeps
    |x1|) have records at eta = x1, no sample repeats, and the same states
    fail."""
    at_x1 = [v.eta == v.state.x1 for v in got]
    rest = [v for v, hit in zip(got, at_x1) if not hit]
    kept = [v for slot, v in ref if slot < 2 and abs(v.eta) == n.N]
    assert rest == kept
    assert np.array_equal(record_bits(rest), record_bits(kept))
    assert all(abs(v.state.x1) <= n.N for v, hit in zip(got, at_x1) if hit)
    assert len({(v.state, v.eta, v.fddot) for v in got}) == len(got)
    assert {v.state for v in got} == {v.state for _, v in ref}


def record_bits(violations):
    """Each record's six floats as raw float64 bit patterns (so -0.0 != 0.0)."""
    rows = [(v.state.x1, v.state.x2, v.eta, v.fddot, v.observed_rate, v.required_rate) for v in violations]
    return np.array(rows, dtype=float).reshape(-1, 6).view(np.uint64)


def column_bits(v):
    """The six columns of a `Violations` as raw float64 bit patterns."""
    return np.stack([v.x1, v.x2, v.eta, v.fddot, v.observed, v.required]).view(np.uint64)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def branch_values(z1, z2, p):
    """Recompute the three branch formulas directly (test-side reference)."""
    lam2p1L = (p.lambda2 + 1.0) * p.L
    w1 = z2 * z2 / (2.0 * p.alpha * lam2p1L) - z1
    w2 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    w3 = z1 - z2 * z2 / (2.0 * lam2p1L)
    return w1, w2, w3


def kink_rates(z2, fddot, s, p):
    """The three branch rates at z1 == eta under the sign selection s, in
    closed form (mirrored frame): there sqrt|z1 - eta| = 0, so dz1 = z2."""
    k2, lam2p1L = p.injection_gains[1], (p.lambda2 + 1.0) * p.L
    q = z2 * (s * -k2 - fddot)
    return q / (p.alpha * lam2p1L) - z2, q / (2.0 * p.alpha * lam2p1L), z2 - q / lam2p1L


class TestRegionAndValue:
    def test_examples(self):
        r = region(ErrorState(0.0, 2.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W1", False)
        r = region(ErrorState(1.0, 0.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W3", False)
        r = region(ErrorState(0.0, -2.0), P_CONTOUR)
        assert (r.index, r.mirrored) == ("W1", True)

    @pytest.mark.parametrize("x1, x2", [(math.nan, 0.0), (0.0, -math.inf)])
    def test_error_state_must_be_finite(self, x1, x2):
        with pytest.raises(ValueError, match="error state must be finite"):
            ErrorState(x1, x2)

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

    # evaluate_grid takes the states of its inputs' broadcast in blocks of
    # _BLOCK_STATES.  Whatever the inputs' shape, memory order, strides or
    # dtype, and wherever a block boundary falls, it equals the scalar
    # `evaluate` and the whole-array reference bit for bit, on states that
    # lie on t1 or t2 and at x2 = 0.0 and -0.0.
    @pytest.mark.parametrize("size", (0, 1, BLOCK - 1, BLOCK, BLOCK + 1))
    @pytest.mark.parametrize("layout", ("flat", "0-d", "broadcast", "fortran", "strided", "int"))
    @settings(max_examples=2, derandomize=True)
    @given(
        gains=st.tuples(finite(0.5, 8.0), finite(0.2, 4.0), finite(0.1, 5.0), finite(1.01, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_grid_is_evaluate_in_any_layout(self, layout, size, gains, seed):
        p, rng = Params(*gains), np.random.default_rng(seed)
        x2 = rng.uniform(-5.0, 5.0, size)
        x2[rng.random(size) < 0.1] = 0.0
        x2[rng.random(size) < 0.1] = -0.0
        # Two fifths of the states lie on t1 or t2 after the mirror.
        mirror = np.where(x2 < 0, -1.0, 1.0)
        pick = rng.choice(3, size, p=(0.6, 0.2, 0.2))
        x1 = np.choose(pick, (rng.uniform(-5.0, 5.0, size), *thresholds(x2, p))) * mirror
        # Rows and columns of a 2-D grid of `size` states.
        m = max((d for d in range(1, math.isqrt(size) + 1) if size % d == 0), default=0)
        k = size // m if m else 0
        a, b = {
            "flat": lambda: (x1, x2),
            "0-d": lambda: (float(x1[0]), np.float64(x2[0])) if size else (1.5, np.array(-0.0)),
            # Row i and column i keep the states' pairing on the diagonal.
            "broadcast": lambda: (x1[:m, None], x2[:k]),
            "fortran": lambda: (np.asfortranarray(x1.reshape(m, k)), np.asfortranarray(x2.reshape(m, k))),
            "strided": lambda: (np.repeat(x1, 3)[::3], x2[::-1].copy()[::-1]),
            "int": lambda: (rng.integers(-5, 6, size, dtype=np.int32), rng.integers(-5, 6, size)),
        }[layout]()
        u, w = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        got = evaluate_grid(a, b, p)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == u.shape
        scalar = [evaluate(ErrorState(s, t), p) for s, t in zip(u.ravel().tolist(), w.ravel().tolist())]
        assert np.array_equal(got.ravel().view(np.uint64), np.array(scalar, dtype=float).view(np.uint64))
        assert np.array_equal(got.view(np.uint64), _thresholds_grid(u, w, p)[4].view(np.uint64))

    # evaluate_grid allocates its result and a fixed amount per block, not
    # temporaries the size of its inputs (6.6 MB traced on 100,001 states
    # when it evaluated whole arrays).
    def test_evaluate_grid_allocates_result_plus_fixed_per_block(self):
        x1, x2 = np.random.default_rng(9).uniform(-3.0, 3.0, (2, 100_001))
        evaluate_grid(x1[:5], x2[:5], P_REF)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = evaluate_grid(x1, x2, P_REF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= v.nbytes + 600_000

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

    def test_overflowing_constant_gains_are_admissible(self):
        assert validate_condition(P_OVERFLOW)

    def test_scalar_form_rejects_an_overflowing_constant(self):
        for fn in (evaluate, region):
            with pytest.raises(ValueError, match=r"4 alpha \(lambda2 \+ 1\) L must be finite"):
                fn(ErrorState(0.0, 1e150), P_OVERFLOW)

    def test_array_form_rejects_an_overflowing_constant(self):
        with pytest.raises(ValueError, match=r"4 alpha \(lambda2 \+ 1\) L must be finite"):
            evaluate_grid(np.zeros(3), np.array([0.0, 1.0, 1e150]), P_OVERFLOW)

    def test_certifier_rejects_an_overflowing_constant(self):
        with pytest.raises(ValueError, match=r"4 alpha \(lambda2 \+ 1\) L must be finite"):
            verify_decrease(P_OVERFLOW, N_SMALL, GridSpec(-3.0, 3.0, -3.0, 3.0, 4, 4))


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

    # decay_rate_gamma raises exactly when validate_condition fails, so the
    # two agree at every lambda1, including the few ulps around the float
    # ends of lambda1_range.
    @settings(max_examples=100)
    @given(
        alpha=finite(1.01, 4.0),
        lambda2=finite(0.2, 20.0),
        upper=st.booleans(),
        ulps=st.integers(-3, 3),
    )
    def test_condition_is_gamma_existing_at_the_float_ends(self, alpha, lambda2, upper, ulps):
        interval = stwdiff.lambda1_range(lambda2, alpha)
        assume(not interval.empty)
        lambda1 = interval.hi if upper else interval.lo
        for _ in range(abs(ulps)):
            lambda1 = math.nextafter(lambda1, math.copysign(math.inf, ulps))
        p = Params(lambda1, lambda2, 1.0, alpha)
        try:
            decay_rate_gamma(p)
        except ValueError:
            assert not validate_condition(p)
        else:
            assert validate_condition(p)

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

    # Outside the noise band the certifier samples eta only at the corners.
    # That is sound because the sign of z1 - eta is fixed there, and every
    # operation after the subtraction (sqrt, scaling by a positive constant,
    # adding a term free of eta) is monotone under rounding: each branch rate
    # at any admissible eta is at most the larger of its two corner values,
    # exactly, with no tolerance.
    @settings(max_examples=300)
    @given(
        gains=st.tuples(finite(0.05, 20.0), finite(0.05, 20.0), finite(0.01, 100.0), finite(1.0001, 4.0)),
        N=finite(1e-6, 10.0),
        gap=finite(0.0, 20.0),
        below=st.booleans(),
        z2=finite(0.0, 50.0),
        u=finite(-1.0, 1.0),
        fddot_sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_out_of_band_branch_rates_peak_at_a_noise_corner(self, gains, N, gap, below, z2, u, fddot_sign):
        p = Params(*gains)
        z1 = max(N + gap, math.nextafter(N, math.inf))
        z1 = -z1 if below else z1
        eta = u * N
        assert -N <= eta <= N
        fddots = (fddot_sign * p.L,)
        (at_eta,) = _wdot_branches(z1, z2, eta, fddots, p)
        (at_lo,) = _wdot_branches(z1, z2, -N, fddots, p)
        (at_hi,) = _wdot_branches(z1, z2, N, fddots, p)
        for mid, lo, hi in zip(at_eta, at_lo, at_hi):
            assert mid <= max(lo, hi)
        # The certifier screens the state at one corner sample per branch:
        # W1 at (-N, -L), W2 at fddot = -L (bit-equal at both eta corners)
        # and W3 at (N, L).  No corner sample exceeds those values.
        L = p.L
        corners = {(e, f): w for e in (-N, N) for f, w in zip((-L, L), _wdot_branches(z1, z2, e, (-L, L), p))}
        peaks = (corners[-N, -L][0], corners[-N, -L][1], corners[N, L][2])
        for sample in corners.values():
            for value, peak in zip(sample, peaks):
                assert value <= peak
        for f in (-L, L):
            assert float.hex(float(corners[-N, f][1])) == float.hex(float(corners[N, f][1]))

    # At z1 == eta the sign of z1 - eta is set-valued, and each branch is
    # the larger of its closed forms at s = -1 and s = +1.  On the side of
    # z1 where that selection holds (eta > z1 for W1 and W2, eta < z1 for
    # W3) no eta gives a larger rate; on the other side the rate rises
    # toward the corner.  So the kink and the two corners bound every eta
    # in the band, exactly, with no tolerance.
    @settings(max_examples=300)
    @given(
        gains=st.tuples(finite(0.05, 20.0), finite(0.05, 20.0), finite(0.01, 100.0), finite(1.0001, 4.0)),
        N=finite(1e-6, 10.0),
        u=finite(-1.0, 1.0),
        z2=finite(0.0, 50.0),
        fddot_sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_kink_is_each_branch_at_its_worst_selection(self, gains, N, u, z2, fddot_sign):
        p = Params(*gains)
        z1, fddot = u * N, fddot_sign * p.L
        (kink,) = _wdot_branches(z1, z2, z1, (fddot,), p)
        worst = [max(a, b) for a, b in zip(kink_rates(z2, fddot, -1.0, p), kink_rates(z2, fddot, 1.0, p))]
        assert [float(r) for r in kink] == worst
        near = np.linspace(max(z1 - 1e-6, -N), min(z1 + 1e-6, N), 101)
        etas = np.clip(np.concatenate([near, [math.nextafter(z1, -N - 1.0), math.nextafter(z1, N + 1.0)]]), -N, N)
        (at_etas,) = _wdot_branches(z1, z2, etas, (fddot,), p)
        ((lo,), (hi,)) = (list(_wdot_branches(z1, z2, e, (fddot,), p)) for e in (-N, N))
        for b, rising in enumerate((etas > z1, etas > z1, etas < z1)):
            assert np.all(at_etas[b][rising] <= kink[b])
            assert np.all(at_etas[b] <= max(kink[b], lo[b], hi[b]))

    # With N = 0 the band is the point eta = 0, where the kink meets signed
    # zeros: at x1 = 0, x2 < 0 the mirror gives z1 = -0.0 against eta = +0.0,
    # and the screen's -N row gives eta = -0.0 against z1 = +0.0.  Both are
    # the kink, at each branch's worst selection, whatever the zeros' signs.
    @pytest.mark.parametrize("z1, eta", [(-0.0, 0.0), (0.0, -0.0)])
    def test_kink_at_signed_zeros(self, z1, eta):
        z2 = 1.5
        for fddot in (-P_REF.L, P_REF.L):
            (kink,) = _wdot_branches(z1, z2, eta, (fddot,), P_REF)
            worst = [max(a, b) for a, b in zip(kink_rates(z2, fddot, -1.0, P_REF), kink_rates(z2, fddot, 1.0, P_REF))]
            assert [float(r) for r in kink] == worst


class TestVerifyDecrease:
    def test_clean_on_valid_gains(self):
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 120, 120)
        assert len(verify_decrease(P_REF, NoiseLevel(0.01), grid)) == 0

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
        assert len(verify_decrease(P_REF, NoiseLevel(1.0), grid)) == 0

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
        # Counts must be integers (not bools), and the box span must not overflow.
        for n1, n2 in ((2.5, 3), (3, 2.5), (True, 3), (3, False), ("3", 3), (None, 3)):
            with pytest.raises(ValueError, match="integers"):
                GridSpec(-1.0, 1.0, -1.0, 1.0, n1, n2)
        assert GridSpec(-1.0, 1.0, -1.0, 1.0, np.int64(3), 3).axes()[0].tolist() == [-1.0, 0.0, 1.0]
        for bounds in ((-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1e308, 1e308)):
            with pytest.raises(ValueError, match="span"):
                GridSpec(*bounds, 3, 3)
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 10, 10)
        for bad in (math.nan, math.inf):
            for key in ("gamma", "margin", "tolerance"):
                with pytest.raises(ValueError):
                    verify_decrease(P_REF, NoiseLevel(0.01), grid, **{key: bad})

    def test_negative_margin_and_overflowing_v_rejected(self):
        # A negative margin admits states with V < N, whose required rate is
        # NaN and which would be skipped silently.
        gamma = decay_rate_gamma(P_REF).gamma
        with pytest.raises(ValueError, match="margin"):
            verify_decrease(P_MUTANT, N_SMALL, GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41), gamma=gamma, margin=-0.5)
        assert verify_decrease(P_MUTANT, N_SMALL, GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41), gamma=gamma, margin=0.0)
        # V overflows at |x2| = 1e200, and so does the required rate at a huge gamma.
        with pytest.raises(ValueError, match="finite"):
            verify_decrease(P_REF, N_SMALL, GridSpec(-1e200, 1e200, -1e200, 1e200, 5, 5))
        with pytest.raises(ValueError, match="finite"):
            verify_decrease(P_REF, N_SMALL, GridSpec(-1e150, 1e150, -1e150, 1e150, 5, 5), gamma=1e300)

    # sha256 of the violations CSV: a grid whose row count is not a multiple
    # of a block, a one-row grid, and rows longer than a whole block.  The
    # 400x400 case is the benchmark's mutant probe.  The 3x70000 digest is
    # the one of the original whole-grid certifier and holds unchanged:
    # every failing state of that grid is in the noise band.  The other three
    # were re-taken when the straddling eta slots left the out-of-band states
    # (they were 51546 / 2c878664..., 728 / 09a085af... and 105312 /
    # 6420ff6a..., the four-slot digests that the oracle test below pins).
    # No sample of these grids fails at eta = x1, so all four held when
    # eta = x1 replaced the in-band straddling slots.
    @pytest.mark.parametrize(
        "box, n1, n2, count, digest",
        [
            ((-1.5, 1.5, -1.5, 1.5), 401, 397, 25846, "130a0f7c42cecd069e5d3cb04a8500c5194cfeb446fae3f233d5d39f0047faae"),
            ((0.3, 1.5, -1.5, 1.5), 1, 900, 364, "19f1b90499dc6561aa671373757cb883aee8e55209b9e36198cbaf5ea28e22aa"),
            ((-1.5, 1.5, -1.5, 1.5), 3, 70000, 4712, "7ff3daffc81e01add4f04d85f4021bf9a5271c1c53a504cff66fa5cabb96ac58"),
            ((-3.0, 3.0, -3.0, 3.0), 400, 400, 52676, "ac5fd624091b453111b34cc947e13331538d952f61aa0e8edb521c82bd84bf21"),
        ],
    )
    def test_mutant_violations_match_golden_csv(self, box, n1, n2, count, digest):
        violations = mutant_violations(box, n1, n2)
        assert len(violations) == count
        assert violations_digest(violations) == digest

    # The four-slot reference reproduces, bit for bit, the CSV of the
    # certifier that gave every active state all four eta slots.
    @pytest.mark.parametrize(
        "box, n1, n2, count, digest",
        [
            ((-1.5, 1.5, -1.5, 1.5), 401, 397, 51546, "2c878664d27df985b70e40b4dc34068e9c3bbd02a282a30275ca51372b001a81"),
            ((0.3, 1.5, -1.5, 1.5), 1, 900, 728, "09a085af49e33f757880e97091945c015d620ebba7387321aec0f49739418c2f"),
            ((-1.5, 1.5, -1.5, 1.5), 3, 70000, 4712, "7ff3daffc81e01add4f04d85f4021bf9a5271c1c53a504cff66fa5cabb96ac58"),
            ((-3.0, 3.0, -3.0, 3.0), 400, 400, 105312, "6420ff6a07dfc7adfea1ce6ace76605e3da052c65e9e96f55bc2be5d15631433"),
        ],
    )
    def test_golden_grids_are_the_four_slot_oracle_filtered(self, box, n1, n2, count, digest):
        gamma = decay_rate_gamma(P_REF).gamma
        ref = oracles.verify_decrease_four_slot(P_MUTANT, N_SMALL, GridSpec(*box, n1, n2), gamma)
        assert len(ref) == count
        assert violations_digest([v for _, v in ref]) == digest
        assert_oracle_filtered(mutant_violations(box, n1, n2), ref, N_SMALL)

    # Other gains, noise bounds, gammas and boxes; the last grid puts states
    # exactly on x1 = -N and x1 = +N (all of its points are binary fractions).
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_grids_are_the_four_slot_oracle_filtered(self, seed):
        rng = np.random.default_rng([seed, 11])
        p = Params(*rng.uniform((0.5, 0.2, 0.1, 1.01), (8.0, 4.0, 5.0, 4.0)).tolist())
        n = NoiseLevel(float(rng.uniform(0.005, 0.5)))
        lo, hi = -rng.uniform(0.2, 3.0, size=2), rng.uniform(0.2, 3.0, size=2)
        grid = GridSpec(lo[0], hi[0], lo[1], hi[1], *rng.integers(20, 90, size=2))
        # Large enough that some states fail and others pass.
        gamma = float(10.0 ** rng.uniform(0.0, 1.5))
        if seed == 3:
            n, grid, gamma = NoiseLevel(0.25), GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 33), 20.0
            assert {-0.25, 0.25} <= set(grid.axes()[0].tolist())
        ref = oracles.verify_decrease_four_slot(p, n, grid, gamma)
        got = verify_decrease(p, n, grid, gamma=gamma)
        assert len(got) < len(ref)
        assert any(abs(v.state.x1) <= n.N for v in got)
        assert_oracle_filtered(got, ref, n)

    # Reference gains with gamma just above the grid's smallest decrease
    # rate -Vdot / sqrt(V - N): only the few states that attain it fail, and
    # they fail by about an ulp (tolerance 0) or by 1e-6 relative, so the
    # screen must match the per-sample pass exactly at the limit.
    @pytest.mark.parametrize("nudge, tolerance", [(lambda g: math.nextafter(g, 1.0), 0.0), (lambda g: g * (1 + 1e-6), 1e-9)])
    def test_reference_grid_at_its_smallest_slack_is_the_four_slot_oracle_filtered(self, nudge, tolerance):
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 61, 59)
        # With gamma = 1 every sample whose rate ratio is below 1 fails, and
        # its required rate is -sqrt(V - N).
        slack = min(v.observed_rate / v.required_rate for _, v in oracles.verify_decrease_four_slot(P_REF, N_SMALL, grid, 1.0))
        gamma = nudge(slack)
        ref = oracles.verify_decrease_four_slot(P_REF, N_SMALL, grid, gamma, tolerance=tolerance)
        got = verify_decrease(P_REF, N_SMALL, grid, gamma=gamma, tolerance=tolerance)
        assert 0 < len({v.state for v in got}) < 0.02 * grid.n1 * grid.n2
        assert_oracle_filtered(got, ref, N_SMALL)
        assert len(verify_decrease(P_REF, N_SMALL, grid, gamma=slack, tolerance=tolerance)) == 0

    # The largest working set (memory live at once) of a block on the clean
    # reference 1500x1500 pass, read as the traced peak over the run minus
    # what was held before it; the clean pass returns nothing, so the peak is
    # one block's.  With flat blocks and batches of 2**12 states, each pass
    # allocating its own arrays, it reads 0.93 MB; the 400x400 mutant probe
    # peaks at 5.06 MB, at the join of its result (see the test below), and a
    # 1 x 2**20 grid at 9.08 MB, 8.4 MB of it its axes.  Blocks of whole rows
    # of one band of cells, over its open columns, read 0.85, 5.13 and 124 MB.
    def test_block_working_set_stays_small(self):
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 1500, 1500)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(verify_decrease(P_REF, N_SMALL, grid)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1_000_000

    # A grid of one long row has no cells, and its states are screened in
    # flat blocks, so the call holds its axes and a fixed amount per block:
    # 9.08 MB traced at 1 x 2**20, against 124 MB when a block was at least
    # one row and the column terms were computed for the whole grid.
    def test_long_row_working_set_stays_small(self):
        grid = GridSpec(0.5, 1.5, -3.0, 3.0, 1, 1 << 20)
        axes = sum(a.nbytes for a in grid.axes())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(verify_decrease(P_REF, N_SMALL, grid)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= axes + 1_000_000

    # The vertex lattice is screened in flat blocks like any other states:
    # a 4 x 2**18 grid, whose lattice is two rows of 16,385 points, reads its
    # axes plus 1.79 MB traced (plus 4.71 MB when the lattice was screened
    # in blocks of two lattice rows at least).
    def test_lattice_working_set_stays_small(self):
        grid = GridSpec(0.5, 1.5, -3.0, 3.0, 4, 1 << 18)
        axes = sum(a.nbytes for a in grid.axes())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(verify_decrease(P_REF, N_SMALL, grid)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= axes + 3_000_000

    # The failing path's peak is the join of its result: the benchmark's
    # 400x400 mutant probe returns 52,676 samples in six columns (2.53 MB),
    # and the per-batch chunks are joined into them once.  Its traced peak
    # over the call, 5.06 MB, is within twice the columns plus 1 MB.
    def test_failing_path_peaks_at_its_join(self):
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400)
        gamma = decay_rate_gamma(P_REF).gamma
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = verify_decrease(P_MUTANT, N_SMALL, grid, gamma=gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 52676
        columns = sum(c.nbytes for c in (got.x1, got.x2, got.eta, got.fddot, got.observed, got.required))
        assert peak - before <= 2 * columns + 1_000_000

    # The gain condition is sharp for V at both ends of `lambda1_range`: at
    # gamma = 0 the certifier finds no violation just inside either end, and
    # finds some just outside.  Outside the lower end (where epsilon2 reaches
    # 0) the witnesses lie outside the noise band, near its edge; outside
    # the upper end (where epsilon1 reaches 0) they lie only inside it.
    @pytest.mark.parametrize(
        "lambda2, alpha, counts", [(1.1, 4.0, (46, 0, 0, 4)), (12.0, 2.0, (16, 0, 0, 2)), (3.0, 3.0, (18, 0, 0, 4))]
    )
    def test_gain_condition_is_sharp_at_both_ends(self, lambda2, alpha, counts):
        gain = stwdiff.lambda1_range(lambda2, alpha)
        n, grid = NoiseLevel(0.01), GridSpec(-0.1, 0.1, -0.6, 0.6, 401, 401)
        lambda1s = (gain.lo * (1 - 1e-3), gain.lo * (1 + 1e-3), gain.hi * (1 - 1e-3), gain.hi * (1 + 1e-3))
        found = [verify_decrease(Params(lambda1, lambda2, 1.0, alpha), n, grid, gamma=0.0) for lambda1 in lambda1s]
        assert tuple(map(len, found)) == counts
        assert all(abs(x1) >= n.N for x1 in found[0].x1)
        assert all(abs(x1) < n.N for x1 in found[3].x1)

    # The lattice points and the open cells' states are screened in full
    # blocks, the open states carried from one band of lattice rows to the
    # next, and the states the screen keeps are checked in full batches,
    # carried from one block to the next: on the benchmark's mutant probe
    # only the last lattice block, the last flat screen and the last batch
    # are partial, and together they see each open and each kept state once.
    def test_work_runs_in_full_blocks(self, monkeypatch):
        screen, verify, prove = lyapunov._screen, lyapunov._verify_states, lyapunov._prove_cells
        screens, kept, batches, in_batch, lattice, in_lattice = [], [], [], [], [], []

        def spy_screen(chk, x1, *rest):
            result = screen(chk, x1, *rest)
            if in_lattice:
                lattice.append(x1.size)
            elif not in_batch:  # a block: not the lattice, not a batch
                screens.append(x1.size)
                kept.append(np.count_nonzero(result[2]))
            return result

        def spy_prove(*args):
            in_lattice.append(True)
            try:
                return prove(*args)
            finally:
                in_lattice.pop()

        def spy_verify(chk, x1, *rest):
            batches.append(x1.size)
            in_batch.append(True)
            try:
                return verify(chk, x1, *rest)
            finally:
                in_batch.pop()

        monkeypatch.setattr(lyapunov, "_screen", spy_screen)
        monkeypatch.setattr(lyapunov, "_verify_states", spy_verify)
        monkeypatch.setattr(lyapunov, "_prove_cells", spy_prove)
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400)
        got = verify_decrease(P_MUTANT, N_SMALL, grid, gamma=decay_rate_gamma(P_REF).gamma)
        assert len(got) == 52676
        full = lyapunov._BLOCK_STATES
        assert lattice[:-1] == [full] * (len(lattice) - 1) and 0 < lattice[-1] <= full
        for sizes in (screens, batches):
            assert len(sizes) > 2
            assert sizes[:-1] == [full] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= full
        failing = len({(v.state.x1, v.state.x2) for v in got})
        assert failing <= sum(kept) == sum(batches) < sum(screens) < grid.n1 * grid.n2

    # The result depends neither on the block size nor on the cell size.
    # Block sizes: one row per block with rows longer than a block, a size
    # whose last block is partial (where the screen sees fewer states than
    # a full block), a prime size that splits the bands' rows at
    # varying offsets, a size larger than three bands (each at most _CELL
    # rows), one block for the whole grid, and the default.  The smaller
    # sizes also cut the per-sample pass into batches of a few states.  Cell
    # sizes: one grid step (every state is a lattice point), a size that
    # leaves a partial last cell on an axis, one larger than the grid (one
    # cell), and the default; each is run with the smallest block, where a
    # lattice row can outgrow a block.  The grids: the benchmark's
    # mutant probe, one whose in-band rows include x1 = -N and x1 = +N
    # exactly, and a 1 x n and an n x 1 grid, which have no cells.
    @pytest.mark.parametrize(
        "p, n, box, n1, n2, gamma",
        [
            (P_MUTANT, N_SMALL, (-3.0, 3.0, -3.0, 3.0), 400, 400, None),
            (P_REF, NoiseLevel(0.25), (-1.0, 1.0, -1.0, 1.0), 9, 33, 20.0),
            (P_MUTANT, N_SMALL, (0.3, 1.5, -1.5, 1.5), 1, 900, None),
            (P_MUTANT, N_SMALL, (-1.5, 1.5, -1.5, 1.5), 300, 1, None),
        ],
    )
    def test_result_does_not_depend_on_the_block_size(self, monkeypatch, p, n, box, n1, n2, gamma):
        gamma = decay_rate_gamma(P_REF).gamma if gamma is None else gamma
        grid = GridSpec(*box, n1, n2)
        partial = next(r for r in (2, 3, 4, 5, 6, 7) if n1 % r or n1 == 1)
        bands = 3 * lyapunov._CELL * n2 + 1
        sizes = (max(1, n2 // 2), partial * n2 + n2 // 2, 97, bands, n1 * n2, lyapunov._BLOCK_STATES)
        partial = next(c for c in range(2, 10) if (n1 - 1) % c or (n2 - 1) % c)
        cells = (1, partial, max(n1, n2), lyapunov._CELL)
        results = []
        # Each cell size with the smallest block, and the default cell with each block size.
        for cell, size in [(c, sizes[0]) for c in cells[:-1]] + [(cells[-1], s) for s in sizes]:
            monkeypatch.setattr(lyapunov, "_CELL", cell)
            monkeypatch.setattr(lyapunov, "_BLOCK_STATES", size)
            results.append(verify_decrease(p, n, grid, gamma=gamma))
        assert len(results[-1]) > 0
        for got in results[:-1]:
            assert np.array_equal(column_bits(got), column_bits(results[-1]))
        assert_oracle_filtered(results[-1], oracles.verify_decrease_four_slot(p, n, grid, gamma), n)

    # The screen evaluates V and the required rate from the column terms of
    # its states; both are `_thresholds_grid`'s bit for bit
    # at every state it sees: the lattice corners, and the states of the
    # open cells.  N is the smallest positive V on the grid and the
    # margin is 0, so nearly all states are active and some sit exactly on
    # the boundary V = N + margin.
    @pytest.mark.parametrize("seed", range(4))
    def test_screen_value_and_required_rate_are_the_array_forms(self, monkeypatch, seed):
        rng = np.random.default_rng([seed, 23])
        p = Params(*rng.uniform((0.5, 0.2, 0.1, 1.01), (8.0, 4.0, 5.0, 4.0)).tolist())
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 33)
        x1s, x2s = grid.axes()
        values = evaluate_grid(*np.meshgrid(x1s, x2s), p)
        n = NoiseLevel(float(values[values > 0].min()))
        gamma = float(rng.uniform(0.1, 10.0))
        seen, screen = [], lyapunov._screen

        def spy(chk, x1, x2):
            # The block's states: lattice points or open states, a flat block.
            states = [a.flatten() for a in np.broadcast_arrays(x1, x2)]
            result = screen(chk, x1, x2)
            # The active mask and the required rate.
            terms = result[0]
            seen.append((*states, terms[4].ravel(), terms[7].ravel()))
            return result

        monkeypatch.setattr(lyapunov, "_screen", spy)
        monkeypatch.setattr(lyapunov, "_BLOCK_STATES", 5 * grid.n2)
        monkeypatch.setattr(lyapunov, "_CELL", 4)
        verify_decrease(p, n, grid, gamma=gamma, margin=0.0, tolerance=0.0)
        on_boundary, screened = 0, np.zeros((grid.n1, grid.n2), dtype=bool)
        for x1, x2, active, required in seen:
            screened[np.searchsorted(x1s, x1), np.searchsorted(x2s, x2)] = True
            v = _thresholds_grid(x1, x2, p)[4]
            assert np.array_equal(active, v > n.N)
            on_boundary += np.count_nonzero(v == n.N)
            expected = -gamma * np.sqrt(v[active] - n.N)
            assert np.array_equal(required[active].view(np.uint64), expected.view(np.uint64))
        assert on_boundary > 0
        # Every lattice corner (every 4th row and column) was screened.
        assert screened[np.ix_(range(0, grid.n1, 4), range(0, grid.n2, 4))].all()

    # The cell proof is sound.  Random gains: lambda2 on both sides of 1,
    # lambda1 inside the admissible interval where there is one (so that V
    # decreases and most cells are proved), anywhere otherwise.  Random noise
    # bounds (0 included), boxes that cross x2 = 0 and the band, gammas (0
    # included), tolerances, margins and cell sizes.  No state of a proved
    # cell has a failing sample in the four-slot reference, lies in the
    # band, is inactive, or lies within eps_cell of a threshold, and all of a
    # proved cell's states lie in one region and one mirror half.  The cells
    # only skip work: the result is, bit for bit, that of the same call with
    # a cell proof that proves nothing.  The first example's box misses
    # x2 = 0 and the band, and every cell of each band is proved: the open
    # states skip those bands.  The last four examples have a state
    # that fails inside a cell whose corners all pass: the proof must keep
    # its rounding slack, and fold the largest peak rate and the smallest
    # required rate over all four corners, or it proves that cell.
    @settings(max_examples=60)
    @example(  # the reference gains (lambda1 = 4.1000002): seven bands, all proved
        gains=(4.0, 1.1, 1.0, 0.025), N=0.01, box=BANDS_PROVED_BOX, counts=(100, 100), cell=16,
        gamma=decay_rate_gamma(P_REF).gamma, tolerance=1e-9, margin=1e-9,
    )
    @example(  # W1 cells with corners on both sides of the band at |x2| >= 2.4
        gains=(4.0, 1.1, 1.0, 0.5), N=0.02, box=(-1.03, 0.97, -3.0, 3.0), counts=(41, 41), cell=4,
        gamma=0.0, tolerance=1e-9, margin=1e-9,
    )
    @example(  # one W1 cell whose corner (x1 max, x2 min) lies on t1
        gains=(4.0, 1.1, 1.0, 0.5), N=0.0, box=(0.005, thresholds(1.0, P_REF)[0], 1.0, 2.0), counts=(10, 10),
        cell=9, gamma=0.0, tolerance=1e-9, margin=1e-9,
    )
    @example(  # one cell across x2 = 0 whose corners all lie in W1
        gains=(4.0, 1.1, 1.0, 0.5), N=0.0, box=(0.001, 0.009, -0.6, 0.6), counts=(10, 13), cell=12,
        gamma=0.0, tolerance=1e-9, margin=1e-9,
    )
    @example(  # one cell of 16 x2 steps of an ulp: the peak rate's rounding
        # makes an inner column fail by 4.4e-16 while the corners pass, which
        # only the slack keeps from being proved
        gains=(1.01, 1.4057584571596977, 1.0, 0.5867985714381407), N=0.01,
        box=(-0.6093318629097535, -0.6093318629097534, 0.2063106400618353, 0.20631064006183575), counts=(2, 17),
        cell=16, gamma=4.868184762063498, tolerance=0.0, margin=1e-9,
    )
    @example(  # W3 cells near the invariant set: the largest corner peak rate is in
        # the second lattice row, the strictest required rate in the first
        gains=(3.3518000350781225, 1.745268570364318, 2.1786576633596946, 0.9069285837068504), N=0.2610620651202218,
        box=(0.2620930360336218, 0.26278724065956904, 0.07192556937702203, 0.07454610511849995), counts=(15, 23),
        cell=7, gamma=8.265319209765707, tolerance=1e-9, margin=1e-9,
    )
    @example(  # W3 cells whose strictest required rate is in one lattice column
        gains=(3.56138313260945, 0.7740650899111969, 1.9775273813710075, 0.6908807825906036), N=0.1867876688312047,
        box=(0.662264618489748, 0.6667579638416525, 0.40127086867809797, 1.3142753552970976), counts=(22, 9),
        cell=9, gamma=5.981137717621873, tolerance=1e-9, margin=1e-9,
    )
    @example(  # a cell whose largest corner peak rate is in its second lattice row
        gains=(1.6152937401902512, 4.578965546010848, 2.1299289070400174, 0.9037871628105757), N=0.047195819657205436,
        box=(-2.031116414012194, 0.664223696406476, -2.099380716378717, 1.1827740438228753), counts=(21, 40),
        cell=7, gamma=4.344429233959295, tolerance=1e-9, margin=1e-9,
    )
    @given(
        gains=st.tuples(finite(1.01, 4.0), finite(0.2, 6.0), finite(0.1, 5.0), st.floats(0.0, 1.0)),
        N=st.one_of(st.just(0.0), finite(1e-3, 0.3)),
        box=st.tuples(finite(-3.0, -0.05), finite(0.05, 3.0), finite(-3.0, -0.05), finite(0.05, 3.0)),
        counts=st.tuples(st.integers(10, 60), st.integers(10, 60)),
        cell=st.integers(1, 8),
        gamma=st.one_of(st.just(0.0), finite(-6.0, 0.5).map(lambda e: 10.0**e)),
        tolerance=st.sampled_from((0.0, 1e-9)),
        margin=st.sampled_from((0.0, 1e-9)),
    )
    def test_proved_cells_hold_no_failing_state(self, gains, N, box, counts, cell, gamma, tolerance, margin):
        alpha, lambda2, L, u = gains
        gain = stwdiff.lambda1_range(lambda2, alpha)
        lambda1 = 0.5 + 7.5 * u if gain.empty else gain.lo + u * (gain.hi - gain.lo)
        p, n, grid = Params(lambda1, lambda2, L, alpha), NoiseLevel(N), GridSpec(*box, *counts)
        prove, seen = lyapunov._prove_cells, []

        def spy(*args):
            proved = prove(*args)
            # The lattice: the cell edges, with the last replaced by the last point.
            er, ec = args[-2:]
            seen.append((np.minimum(er, er[-1] - 1), np.minimum(ec, ec[-1] - 1), proved))
            return proved

        with mock.patch.object(lyapunov, "_CELL", cell):
            with mock.patch.object(lyapunov, "_prove_cells", spy):
                got = verify_decrease(p, n, grid, gamma=gamma, margin=margin, tolerance=tolerance)
            with mock.patch.object(lyapunov, "_prove_cells", lambda *args: prove(*args) & False):
                unproved = verify_decrease(p, n, grid, gamma=gamma, margin=margin, tolerance=tolerance)
        assert np.array_equal(column_bits(got), column_bits(unproved))
        ((rows, cols, proved),) = seen
        if box == BANDS_PROVED_BOX:
            assert proved.all(axis=1).any()
        x1s, x2s = grid.axes()
        x1v, x2v = np.meshgrid(x1s, x2s, indexing="ij")
        z1, _, t1, t2, v = _thresholds_grid(x1v, x2v, p)
        eps_cell = 1e-9 * np.maximum(1.0, np.abs(t2))
        # Region (0, 1 or 2 for W3, W2, W1) and mirror half, as one code.
        code = (z1 <= t1).astype(int) + (z1 <= t2) + 3 * (x2v < 0)
        covered = np.zeros((grid.n1, grid.n2), dtype=bool)
        for i, j in zip(*np.nonzero(proved)):
            cell_states = np.s_[rows[i] : rows[i + 1] + 1, cols[j] : cols[j + 1] + 1]
            covered[cell_states] = True
            assert (code[cell_states] == code[rows[i], cols[j]]).all()
        assert (v[covered] > N + margin).all()
        assert (np.abs(x1v[covered]) > N).all()
        assert (np.abs(z1 - t1)[covered] > eps_cell[covered]).all()
        assert (np.abs(z1 - t2)[covered] > eps_cell[covered]).all()
        ref = oracles.verify_decrease_four_slot(p, n, grid, gamma, margin=margin, tolerance=tolerance)
        failing = {(r.state.x1, r.state.x2) for _, r in ref}
        assert not any(covered[np.searchsorted(x1s, a), np.searchsorted(x2s, b)] for a, b in failing)

    # verify_decrease keeps nothing between calls.  Clean and mutant grids
    # of different row lengths, run back to back and interleaved, give the
    # columns that the same calls give in a fresh process.
    def test_calls_keep_no_state(self):
        gamma = decay_rate_gamma(P_REF).gamma
        ref, mutant = dataclasses.astuple(P_REF), dataclasses.astuple(P_MUTANT)
        cases = [
            (ref, 0.01, (-3.0, 3.0, -3.0, 3.0), 200, 1501, None),
            (mutant, 0.01, (-3.0, 3.0, -3.0, 3.0), 400, 400, gamma),
            (mutant, 0.01, (-1.5, 1.5, -1.5, 1.5), 3, 70000, gamma),
            (ref, 0.01, (-2.0, 2.0, -2.0, 2.0), 120, 130, None),
            (mutant, 0.01, (0.3, 1.5, -1.5, 1.5), 1, 900, gamma),
            (mutant, 0.01, (-1.5, 1.5, -1.5, 1.5), 401, 397, gamma),
        ]
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from stwdiff import GridSpec, NoiseLevel, Params, verify_decrease\n"
            "for gains, N, box, n1, n2, gamma in json.loads(sys.argv[1]):\n"
            "    v = verify_decrease(Params(*gains), NoiseLevel(N), GridSpec(*box, n1, n2), gamma=gamma)\n"
            "    cols = np.stack([v.x1, v.x2, v.eta, v.fddot, v.observed, v.required])\n"
            "    print(hashlib.sha256(cols.tobytes()).hexdigest())\n"
        )
        src = str(Path(stwdiff.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run(
            [sys.executable, "-c", script, json.dumps(cases)], env=env, capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        fresh = res.stdout.split()
        assert len(fresh) == len(cases)
        for i in [*range(len(cases)), *reversed(range(len(cases))), 1, 0, 2, 3, 4, 1, 5, 0, 5]:
            gains, N, box, n1, n2, gamma = cases[i]
            v = verify_decrease(Params(*gains), NoiseLevel(N), GridSpec(*box, n1, n2), gamma=gamma)
            assert hashlib.sha256(column_bits(v).tobytes()).hexdigest() == fresh[i]

    # One-state grids checked with a gamma so large that every (eta, fddot)
    # sample fails, so every sample is written out: states exactly on t1 and
    # t2 (both adjacent branch derivatives), at x1 = +N and x1 = -N (where
    # the corner on x1 is the kink eta = x1), strictly inside the noise band,
    # and mirrored (x2 < 0).  A state strictly inside the band (|x1| < N)
    # gets six samples, the corners' and eta = x1's; any other state gets
    # the four at the corners.  The threshold and out-of-band digests hold
    # unchanged.  The four in-band digests were re-taken when eta = x1
    # replaced the two straddling etas (they were 8077e2ea..., 2c3fc02a...,
    # ef40fbf8... and c41bba4f..., eight samples each).
    @pytest.mark.parametrize(
        "x1, x2, digest",
        [
            (thresholds(1.0, P_REF)[0], 1.0, "f4b2370eebac37736dd0d0a87184cc081d097a4f54eb113d65e7b780756f5120"),
            (thresholds(1.0, P_REF)[1], 1.0, "54b0be755047ab8939c513e840866098a9df7dc7afe53d3d03b21bcdf2cbf3bb"),
            (0.01, 1.0, "2e5b95742ff4380ddf1b02bc42a20db168587d3cb6bb3d5cba03429f3c63f497"),
            (-0.01, 1.0, "ba093cbdf3d0532756391e4ccf09c434228331fa43d3b823048b49ad615f406c"),
            (0.004, 1.0, "ec5a31201050fa090bc3b0df86a85744d53f0370af7abdab2026043e85ea635a"),
            (-thresholds(1.5, P_REF)[0], -1.5, "8c6dacb9819eac0966289341b57a829eb0d898d2ffde9eb02000d9b96deb6c64"),
            (0.004, -1.0, "4854f532bcb267bbca0b1796281b8c8f51abd69aa229bd14b48dffd603fedd1d"),
            (-0.5, -0.2, "506ea2e38eb4bab90a931709bb6686fe089765c96372f84dab817bbddc86b643"),
        ],
    )
    def test_single_state_probes_match_golden_csv(self, x1, x2, digest):
        grid = GridSpec(x1, x1 + 1.0, x2, x2 + 1.0, 1, 1)
        violations = verify_decrease(P_REF, N_SMALL, grid, gamma=1e4)
        samples = 6 if abs(x1) < N_SMALL.N else 4
        assert [(v.state.x1, v.state.x2) for v in violations] == [(x1, x2)] * samples
        assert violations_digest(violations) == digest

    # Random gains, noise bounds and active states strictly inside the band,
    # possibly mirrored.  Such a state lies in W1: V = 2 t1 - z1 exceeds N
    # only where t1 > (N + z1) / 2 > z1.  Its records at eta = x1 are W1's
    # closed form at the worst selection, and no admissible eta within 1e-6
    # of x1 gives a rate above its largest record for that fddot.
    @settings(max_examples=200)
    @given(
        gains=st.tuples(finite(0.05, 20.0), finite(0.05, 20.0), finite(0.01, 100.0), finite(1.0001, 4.0)),
        N=finite(1e-6, 10.0),
        u=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        lift=finite(1e-3, 10.0),
        mirrored=st.booleans(),
    )
    def test_in_band_record_at_eta_x1_is_the_worst_selection(self, gains, N, u, lift, mirrored):
        p = Params(*gains)
        z1 = u * N
        z2 = math.sqrt(2.0 * p.alpha * ((p.lambda2 + 1.0) * p.L) * (N + z1) * (1.0 + lift))
        x1, x2 = (-z1, -z2) if mirrored else (z1, z2)
        t1, t2 = thresholds(z2, p)
        assume(evaluate(ErrorState(x1, x2), p) > N and t1 - z1 > 1e-8 * max(1.0, t2))
        grid = GridSpec(x1, x1 + 1.0, x2, x2 + 1.0, 1, 1)
        got = verify_decrease(p, NoiseLevel(N), grid, gamma=1e100, margin=0.0)
        assert len(got) == 6
        at_x1 = [v for v in got if v.eta == x1]
        assert len(at_x1) == 2
        near = np.linspace(max(z1 - 1e-6, -N), min(z1 + 1e-6, N), 101)
        for v in at_x1:
            fddot = -v.fddot if mirrored else v.fddot
            assert v.observed_rate == max(kink_rates(z2, fddot, s, p)[0] for s in (-1.0, 1.0))
            ((w1, _, _),) = _wdot_branches(z1, z2, near, (fddot,), p)
            assert w1.max() <= max(w.observed_rate for w in got if w.fddot == v.fddot)

    # The one-state grid (0, -3), with gamma halfway between the state's
    # rate 1e-12 off x1 and its worst rate at eta = x1: it fails only at
    # eta = x1, by 2.05e-6, which the four-slot oracle's samples miss.
    def test_in_band_violation_is_found_at_eta_x1(self):
        grid, gamma = GridSpec(0.0, 1.0, -3.0, -2.0, 1, 1), 3.1031875519
        (v,) = verify_decrease(P_REF, N_SMALL, grid, gamma=gamma, tolerance=0.0)
        assert (v.state, v.eta, v.fddot) == (ErrorState(0.0, -3.0), 0.0, 1.0)
        assert v.observed_rate - v.required_rate == pytest.approx(2.05e-6, rel=1e-3)
        assert oracles.verify_decrease_four_slot(P_REF, N_SMALL, grid, gamma, tolerance=0.0) == []

    # With every sample failing, each active state writes each of its
    # samples once: the corners' (one corner if N = 0) and, strictly inside
    # the band, eta = x1's.  On x1 = -N and x1 = +N the corner on x1 is the
    # kink eta = x1.
    @pytest.mark.parametrize("N, corners", [(0.25, 2), (0.0, 1)])
    def test_no_sample_repeats(self, N, corners):
        n = NoiseLevel(N)
        got = verify_decrease(P_REF, n, GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 33), gamma=1e4)
        samples = [(v.state, v.eta, v.fddot) for v in got]
        assert len(set(samples)) == len(samples)
        per_state = Counter(v.state for v in got)
        assert {s.x1 for s in per_state} >= {-N, N}
        assert all(count == 2 * (corners + (abs(s.x1) < N)) for s, count in per_state.items())
        assert all(any(v.eta == v.state.x1 for v in got if v.state == s) for s in per_state if abs(s.x1) == N)

    # A negative gamma asks V to grow, which the divergent mutant satisfies;
    # gamma = 0 asks only that V not grow.
    def test_negative_gamma_rejected(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            verify_decrease(P_MUTANT, N_SMALL, grid, gamma=-5.0)
        assert verify_decrease(P_MUTANT, N_SMALL, grid, gamma=0.0)
        assert len(verify_decrease(P_REF, N_SMALL, grid, gamma=0.0)) == 0

    # A negative tolerance reports samples where the inequality holds: at
    # tolerance -1 the reference gains on this grid gave 256 failing samples
    # at 74 of its 400 states.
    def test_negative_tolerance_rejected(self):
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 20, 20)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            verify_decrease(P_REF, N_SMALL, grid, tolerance=-1.0)
        assert len(verify_decrease(P_REF, N_SMALL, grid, tolerance=0.0)) == 0

    # A call imports no module: in a fresh process, the first call (the
    # benchmark's mutant probe) leaves sys.modules as it found it.
    def test_call_imports_no_module(self):
        script = (
            "import sys\n"
            "from stwdiff import GridSpec, NoiseLevel, Params, decay_rate_gamma, verify_decrease\n"
            "gamma = decay_rate_gamma(Params(4.1, 1.1, 1.0, 4.0)).gamma\n"
            "p, n, grid = Params(4.1, 0.5, 1.0, 4.0), NoiseLevel(0.01), GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400)\n"
            "before = set(sys.modules)\n"
            "v = verify_decrease(p, n, grid, gamma=gamma)\n"
            "print(len(v), sorted(set(sys.modules) ^ before))\n"
        )
        src = str(Path(stwdiff.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split(maxsplit=1) == ["52676", "[]\n"]

    def test_record_types(self):
        gamma = decay_rate_gamma(P_REF).gamma
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20)
        violations = verify_decrease(Params(4.1, 0.5, 1.0, 4.0), NoiseLevel(0.01), grid, gamma=gamma)
        assert type(violations) is Violations and violations
        assert type(verify_decrease(P_REF, NoiseLevel(0.01), grid)) is Violations
        v = violations[0]
        assert type(v) is DecreaseViolation and type(v.state) is ErrorState
        # Slotted: one record per failing sample, with no per-instance dict.
        assert not hasattr(v, "__dict__") and not hasattr(v.state, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.state.x1 = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.eta = 0.0
        twin = DecreaseViolation(
            ErrorState(v.state.x1, v.state.x2), v.eta, v.fddot, v.observed_rate, v.required_rate
        )
        assert twin == v and hash(twin) == hash(v)
        assert ErrorState(1.0, 2.0) == ErrorState(1.0, 2.0)
        assert hash(ErrorState(1.0, 2.0)) == hash(ErrorState(1.0, 2.0))
        assert ErrorState(1.0, 2.0) != ErrorState(2.0, 1.0)
        assert dataclasses.replace(v, eta=-v.eta) != v

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


class TestViolations:
    def test_length_truth_and_indexing_match_the_records(self):
        violations = mutant_violations((-1.5, 1.5, -1.5, 1.5), 3, 70000)
        records = list(violations)
        assert len(violations) == len(records) == 4712 and violations
        for i in (0, 1, 4711, -1, -2, -4712):
            assert violations[i] == records[i]
        for bad in (4712, -4713):
            with pytest.raises(IndexError):
                violations[bad]
        for s in (slice(None), slice(3, 40), slice(-25, None, 3), slice(None, None, -1), slice(9, 3)):
            part = violations[s]
            assert type(part) is Violations and list(part) == records[s]
        assert np.array_equal(record_bits(violations), record_bits(records))

    def test_columns_are_read_only_float64(self):
        violations = mutant_violations((0.3, 1.5, -1.5, 1.5), 1, 900)
        for name in ("x1", "x2", "eta", "fddot", "observed", "required"):
            col = getattr(violations, name)
            assert col.dtype == np.float64 and col.shape == (len(violations),)
            with pytest.raises(ValueError):
                col[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            violations.x1 = np.zeros(len(violations))
        # The columns are copies: a caller's array cannot change the result.
        col = np.arange(3.0)
        own = Violations(col, col, col, col, col, col)
        col[0] = 7.0
        assert own.x1.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="equal length"):
            Violations(col, col, col, col, col, col[:2])
        with pytest.raises(ValueError, match="one-dimensional"):
            Violations(*[np.zeros((2, 2))] * 6)

    def test_clean_result_is_empty(self):
        clean = verify_decrease(P_REF, N_SMALL, GridSpec(-2.0, 2.0, -2.0, 2.0, 50, 50))
        assert len(clean) == 0 and not clean and list(clean) == []
        for col in (clean.x1, clean.x2, clean.eta, clean.fddot, clean.observed, clean.required):
            assert col.dtype == np.float64 and col.shape == (0,)
        assert violations_digest(clean) == violations_digest([])

    def test_csv_is_the_same_from_the_result_and_its_records(self):
        violations = mutant_violations((-1.5, 1.5, -1.5, 1.5), 401, 397)
        digest = violations_digest(violations)
        assert violations_digest(list(violations)) == digest
        assert violations_digest(iter(list(violations))) == digest

    # The records are built when read, not by the certifier: before, the
    # 400x400 mutant probe made about 105k tracked objects, which set off
    # about 150 cyclic collections during the call.
    def test_mutant_probe_sets_off_no_collection_storm(self):
        gamma = decay_rate_gamma(P_REF).gamma
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            violations = verify_decrease(P_MUTANT, N_SMALL, GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400), gamma=gamma)
        finally:
            gc.callbacks.remove(count)
        assert len(starts) <= 5
        assert len(violations) == 52676
        v = violations[-1]
        assert type(v) is DecreaseViolation and type(v.state) is ErrorState
        assert all(type(v) is DecreaseViolation and type(v.state) is ErrorState for v in violations)
