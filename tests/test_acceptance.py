"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; tolerances and budgets are pinned here, not configurable.
"""

import math
import time

import numpy as np

import oracles
from stwdiff import (
    ErrorState,
    GridSpec,
    NoiseLevel,
    Params,
    SimConfig,
    StepScheme,
    decay_rate_gamma,
    error_lower_bound,
    error_upper_bound,
    evaluate_grid,
    lambda1_range,
    lambda2_min,
    omega_invariance_check,
    parse_pair,
    simulate,
    simulate_error_system,
    sliding_reference,
    solve_sigma,
    sup_x2_on_omega,
    tightness_factor,
    verify_decrease,
    worst_case_pair,
)
from stwdiff.params import convergence_time_bound
from stwdiff.signals import WorstCaseSpec

P_REF = Params(4.1, 1.1, 1.0, 4.0)
N_REF = NoiseLevel(0.01)
P_CONTOUR = Params(4.1, 1.1, 1.0, 4.0 / 2.1)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))


def test_criterion_1_reference_run_error_bracket():
    pair = parse_pair("quadratic:sign=-1", "switching:N=0.01,c1=0.011,c2=0.00149", 1.0, 0.01)
    cfg = SimConfig(StepScheme("implicit", 5e-4), 2.0, P_REF, N_REF)
    t0 = time.perf_counter()
    rec = simulate(cfg, pair)
    elapsed = time.perf_counter() - t0
    sup = float(np.max(np.abs(rec.error[rec.t >= 0.5])))
    ok = 0.29 <= sup <= 0.5797 and elapsed < 5.0
    report("1 reference-run error bracket", ok, f"sup={sup:.4f}, {elapsed:.2f}s")
    assert sup <= 0.5797
    assert sup >= 0.29
    assert elapsed < 5.0


def test_criterion_2_lower_bound_attainment():
    spec = WorstCaseSpec(tau=1.0, lambda2=1.1, N=0.01, L=1.0)
    pair = worst_case_pair(spec)
    cfg = SimConfig(StepScheme("implicit", 1e-5), spec.tau, P_REF, N_REF)
    t0 = time.perf_counter()
    rec = simulate(cfg, pair)
    achieved = float(abs(rec.error[-1]))
    m = rec.t >= 0.2
    y1, y2 = sliding_reference(spec, rec.t[m])
    track = float(max(np.abs(rec.y1[m] - y1).max(), np.abs(rec.y2[m] - y2).max()))
    elapsed = time.perf_counter() - t0
    floor = 0.995 * error_lower_bound(spec.lambda2, N_REF, spec.L)
    ok = achieved >= floor and track <= 1e-3 and elapsed < 30.0
    report(
        "2 worst-case lower-bound attainment",
        ok,
        f"err(tau)={achieved:.6f} >= {floor:.6f}, track={track:.2e}, {elapsed:.1f}s",
    )
    assert achieved >= floor
    assert track <= 1e-3
    assert elapsed < 30.0


def test_criterion_3_decrease_certification_and_mutation():
    grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 400, 400)
    gamma = decay_rate_gamma(P_REF).gamma
    t0 = time.perf_counter()
    clean = verify_decrease(P_REF, N_REF, grid, gamma=gamma, margin=1e-9, tolerance=1e-9)
    mutated = verify_decrease(
        Params(4.1, 0.5, 1.0, 4.0), N_REF, grid, gamma=gamma, margin=1e-9, tolerance=1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = not clean and len(mutated) >= 1 and elapsed < 60.0
    report(
        "3 decrease certification + mutation",
        ok,
        f"clean={len(clean)}, mutated={len(mutated)}, {elapsed:.1f}s",
    )
    assert len(clean) == 0
    assert len(mutated) >= 1
    assert elapsed < 60.0


def test_criterion_4_sup_x2_closed_form_vs_brute_force():
    # Boundary sampling without the closed form: scan each x2 row for the
    # {V <= N} interval, refine both interval endpoints by bisection on V.
    N = 1.0
    closed = sup_x2_on_omega(P_CONTOUR, NoiseLevel(N))
    rows = 62000
    x2s = np.linspace(-4.8, 4.8, rows)
    coarse = np.linspace(-12.0, 12.0, 257)
    total_points = 0
    found = 0.0
    v_dev = 0.0
    for blk in range(0, rows, 4000):
        x2b = x2s[blk : blk + 4000]
        G2, G1 = np.meshgrid(x2b, coarse, indexing="ij")
        inside = evaluate_grid(G1, G2, P_CONTOUR) <= N
        rowmask = inside.any(axis=1)
        if not rowmask.any():
            continue
        x2v = x2b[rowmask]
        ins = inside[rowmask]
        first = np.argmax(ins, axis=1)
        last = ins.shape[1] - 1 - np.argmax(ins[:, ::-1], axis=1)
        # Bisect V(x1) = N on both flanks of the inside interval.
        for side, lo_idx, hi_idx in (("left", first - 1, first), ("right", last, last + 1)):
            lo = coarse[np.clip(lo_idx, 0, len(coarse) - 1)].astype(float).copy()
            hi = coarse[np.clip(hi_idx, 0, len(coarse) - 1)].astype(float).copy()
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                vin = evaluate_grid(mid, x2v, P_CONTOUR) <= N
                if side == "left":
                    hi = np.where(vin, mid, hi)
                    lo = np.where(vin, lo, mid)
                else:
                    lo = np.where(vin, mid, lo)
                    hi = np.where(vin, hi, mid)
            pts = 0.5 * (lo + hi)
            v_dev = max(v_dev, float(np.max(np.abs(evaluate_grid(pts, x2v, P_CONTOUR) - N))))
            total_points += pts.size
        found = max(found, float(np.max(np.abs(x2v))))
    rel = abs(found - closed) / closed
    ok = rel <= 1e-4 and total_points >= 100_000 and closed == 4.0
    report(
        "4 sup|x2| closed form vs brute force",
        ok,
        f"closed={closed}, brute={found:.6f}, rel={rel:.1e}, points={total_points}",
    )
    assert closed == 4.0
    assert total_points >= 100_000
    assert v_dev <= 1e-9  # refined points sit on the boundary
    assert rel <= 1e-4


def test_criterion_5_omega_forward_invariance():
    gamma = decay_rate_gamma(P_REF).gamma
    rng = np.random.default_rng(20260808)
    starts = []
    while len(starts) < 20:
        x1 = float(rng.uniform(-0.6, 0.6))
        x2 = float(rng.uniform(-0.8, 0.8))
        V0 = float(evaluate_grid(x1, x2, P_REF))
        if 2 * N_REF.N < V0 <= 0.2:
            starts.append((x1, x2, V0))

    def piecewise(seed, bound, hold, horizon):
        vals = np.random.default_rng(seed).uniform(-bound, bound, size=int(horizon / hold) + 2)
        last = len(vals) - 1
        return lambda t: float(vals[min(int(t / hold), last)])

    horizon = 3.0
    failures = 0
    slowest_entry = 0.0
    worst_estimate = 0.0
    for i, (x1, x2, V0) in enumerate(starts):
        cfg = SimConfig(StepScheme("implicit", 1e-5), horizon, P_REF, N_REF)
        rec = simulate_error_system(
            cfg,
            piecewise(1000 + i, N_REF.N, 0.013, horizon),
            piecewise(2000 + i, P_REF.L, 0.017, horizon),
            ErrorState(x1, x2),
        )
        rep = omega_invariance_check(rec, P_REF, N_REF)
        worst_estimate = max(worst_estimate, 2.0 * math.sqrt(V0) / gamma)
        if not (rep.entered and rep.ok):
            failures += 1
        else:
            slowest_entry = max(slowest_entry, rep.entry_time)
    ok = failures == 0
    report(
        "5 invariant-set forward invariance",
        ok,
        f"runs=20, failures={failures}, slowest entry {slowest_entry:.3f}s, "
        f"comparison-lemma estimate <= {worst_estimate:.0f}s (reported, not asserted)",
    )
    assert failures == 0


def test_criterion_6_unbounded_error_below_lambda2_one():
    p = Params(4.1, 0.9, 1.0, 4.0)
    pair = parse_pair("quadratic:sign=1", "constant:N=0.01", 1.0, 0.01)
    cfg = SimConfig(StepScheme("implicit", 5e-4), 80.0, p, N_REF)
    rec = simulate(cfg, pair)
    threshold = 10.0 * error_upper_bound(P_REF, N_REF)
    exceed = np.abs(rec.error) > threshold
    first = float(rec.t[np.argmax(exceed)]) if exceed.any() else math.inf
    ok = exceed.any() and first < 100.0
    report("6 divergence witness for lambda2 < 1", ok, f"threshold={threshold:.3f}, first exceeded at t={first:.1f}")
    assert exceed.any()
    assert first < 100.0


def test_criterion_7_closed_forms_vs_arbitrary_precision():
    checks = []

    def ulp_ok(name, value, oracle, budget=4):
        gap = oracles.ulp_gap(value, oracle)
        checks.append((name, gap, gap <= budget))

    ulp_ok("lower bound", error_lower_bound(1.1, N_REF, 1.0), oracles.o_error_lower(1.1, 0.01, 1.0))
    ulp_ok("upper bound", error_upper_bound(P_REF, N_REF), oracles.o_error_upper(1.1, 4.0, 0.01, 1.0))
    ulp_ok("lambda2 min", lambda2_min(2.25), oracles.o_lambda2_min(2.25))
    interval = lambda1_range(1.1, 4.0)
    lo_o, hi_o = oracles.o_lambda1_bounds(1.1, 4.0)
    ulp_ok("lambda1 lo", interval.lo, lo_o)
    ulp_ok("lambda1 hi", interval.hi, hi_o)
    ulp_ok("time bound", convergence_time_bound(P_REF, 1.0), oracles.o_convergence_time(1.1, 1.0, 1.0))
    ulp_ok("tightness", tightness_factor(P_REF), oracles.o_tightness(4.0))
    rep = decay_rate_gamma(P_REF)
    for name, want in oracles.o_gamma_fields(4.1, 1.1, 1.0, 4.0).items():
        ulp_ok(f"gamma report {name}", getattr(rep, name), want)

    rng = np.random.default_rng(77)
    worst_sigma_gap = 0.0
    for _ in range(10_000):
        y1 = float(rng.uniform(-5, 5))
        y2 = float(rng.uniform(-5, 5))
        u = float(rng.uniform(-5, 5))
        dt = float(10 ** rng.uniform(-5, -2))
        a = dt * P_REF.lambda1 * math.sqrt(P_REF.L)
        b = dt * dt * P_REF.lambda2 * P_REF.L
        r = u - y1 - dt * y2
        sigma, _ = solve_sigma(r, a, b)
        sig_o, _ = oracles.bisect_sigma(r, a, b)
        worst_sigma_gap = max(worst_sigma_gap, abs(sigma - sig_o) / max(1.0, abs(sigma)))
    sigma_ok = worst_sigma_gap <= 1e-12

    bad = [(n, g) for n, g, passed in checks if not passed]
    ok = not bad and sigma_ok
    worst_ulp = max(g for _, g, _ in checks)
    report(
        "7 closed-form unit suite",
        ok,
        f"worst ulp gap={worst_ulp:.2f} (budget 4), implicit-step worst gap={worst_sigma_gap:.1e} (budget 1e-12)",
    )
    assert not bad, bad
    assert sigma_ok
