"""Independent high-precision oracles used to pin expected values.

Every closed form is re-derived here with 50-digit decimal arithmetic on
the exact binary values of the float inputs, so the package results can be
compared at the ulp level.  The implicit-step oracle solves the scalar
generalized equation by bisection instead of the closed form.  The V-dot
pair cross-checks the certifier's per-branch derivative against a finite
difference of V, and the four-slot pass is the certifier as it was before
it dropped the straddling eta samples outside the noise band.  The
error-system recurrences step the paper's error dynamics directly in
x = (y1 - f, y2 - fdot), as a reference for the harness, which runs them
through the differentiator loop instead.  `_thresholds_grid` is the array
form of V as whole-array `np.where` selections, the reference for the
library's blocked form.  The gain condition is decided in exact rational
arithmetic (`fractions.Fraction`), with no rounding at all.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from stwdiff import ErrorState, Params, evaluate, region
from stwdiff import differentiator as stw
from stwdiff.lyapunov import DecreaseViolation, _wdot_branches

PREC = 50


def dec(*values):
    return tuple(Decimal(v) for v in values)


def ulp_gap(value: float, oracle: Decimal) -> float:
    """Distance between a float result and the oracle, in ulps of the float."""
    return float(abs(Decimal(value) - oracle) / Decimal(math.ulp(value) or math.ulp(1e-300)))


def o_error_lower(lambda2: float, N: float, L: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam2, n, el = dec(lambda2, N, L)
        return 2 * ((lam2 + 1) * n * el).sqrt()


def o_error_upper(lambda2: float, alpha: float, N: float, L: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam2, a, n, el = dec(lambda2, alpha, N, L)
        return 2 * (a * (lam2 + 1) * n * el).sqrt()


def o_lambda2_min(alpha: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        (a,) = dec(alpha)
        s = a.sqrt()
        return (1 + 2 * s - a) / (1 - 2 * s + a)


def o_lambda1_bounds(lambda2: float, alpha: float) -> tuple[Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam2, a = dec(lambda2, alpha)
        lam2p1 = lam2 + 1
        lo = (8 * lam2p1).sqrt()
        hi = ((a + 1) * lam2 + a - 1) * (2 * lam2p1 / a).sqrt() / lam2p1
        return lo, hi


def o_squared_ends(lambda2: float, alpha: float) -> tuple[Fraction, Fraction]:
    """The squared ends lo^2, hi^2 of the lambda1 interval, exactly."""
    lam2, a = Fraction(lambda2), Fraction(alpha)
    return 8 * (lam2 + 1), 2 * ((a + 1) * lam2 + a - 1) ** 2 / (a * (lam2 + 1))


def o_condition(lambda1: float, lambda2: float, alpha: float) -> bool:
    """The gain condition, exactly: lo^2 < lambda1^2 < hi^2 for lambda1 > 0."""
    lo2, hi2 = o_squared_ends(lambda2, alpha)
    return lo2 < Fraction(lambda1) ** 2 < hi2


def o_empty(lambda2: float, alpha: float) -> bool:
    """True iff no real lambda1 satisfies the gain condition, exactly."""
    lo2, hi2 = o_squared_ends(lambda2, alpha)
    return hi2 <= lo2


def o_tightness(alpha: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        (a,) = dec(alpha)
        return a.sqrt()


def o_convergence_time(lambda2: float, L: float, fdot0: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam2, el, f0 = dec(lambda2, L, fdot0)
        return abs(f0) / ((lam2 - 1) * el)


def o_gamma_fields(lambda1: float, lambda2: float, L: float, alpha: float) -> dict[str, Decimal]:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam1, lam2, el, a = dec(lambda1, lambda2, L, alpha)
        lam2p1 = lam2 + 1
        eps1 = ((a + 1) * lam2 + a - 1) / (a * lam2p1) - lam1 / (2 * a * lam2p1).sqrt()
        eps2 = lam1 - 2 * (2 * lam2p1).sqrt()
        fields = {
            "epsilon1": eps1,
            "epsilon2": eps2,
            "r_region1_neg": lam1 * (el / 2).sqrt(),
            "r_region1_pos": (a - 1) / a * (a * lam2p1 * el).sqrt(),
            "r_region1_eta": eps1 * (2 * a * lam2p1 * el).sqrt(),
            "r_region2": (lam2 - 1) * el.sqrt() / (a * lam2p1).sqrt(),
            "r_region3": eps2 * el.sqrt(),
        }
        fields["gamma"] = min(
            fields["r_region1_neg"],
            fields["r_region1_pos"],
            fields["r_region1_eta"],
            fields["r_region2"],
            fields["r_region3"],
        )
        return fields


def o_theta(lambda2: float, N: float, L: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        lam2, n, el = dec(lambda2, N, L)
        return 2 * (n / ((lam2 + 1) * el)).sqrt()


def bisect_sigma(r: float, a: float, b: float, iters: int = 200) -> tuple[float, float]:
    """Solve sigma + a |sigma|^(1/2) sign(sigma) + b xi = r by bisection.

    Independent of the closed form: for |r| <= b the unique solution of the
    monotone inclusion is sigma = 0 with xi = r/b; otherwise bisect the
    strictly increasing m + a sqrt(m) + b - |r| over m in [0, |r|].
    """
    if abs(r) <= b:
        return 0.0, (r / b if b > 0 else 0.0)
    lo, hi = 0.0, abs(r)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid + a * math.sqrt(mid) + b - abs(r) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    m = 0.5 * (lo + hi)
    return math.copysign(m, r), math.copysign(1.0, r)


def sigma_residual(r: float, a: float, b: float, sigma: float, xi: float) -> Decimal:
    """sigma + a |sigma|^(1/2) sign(sigma) + b xi - r, exact to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        s, r, a, b, xi = dec(sigma, r, a, b, xi)
        root = abs(s).sqrt()
        return s + a * (-root if s < 0 else root) + b * xi - r


def _thresholds_grid(x1, x2, p: Params):
    """Mirrored state, thresholds and V over arrays of coordinates: (z1, z2, t1, t2, V).

    Each step is one whole-array operation, and each branch of V is taken
    by `np.where`; the thresholds are those of the scalar `evaluate`.
    """
    flip = x2 < 0
    z1, z2 = np.where(flip, -x1, x1), np.where(flip, -x2, x2)
    lam2p1L = (p.lambda2 + 1.0) * p.L
    t1 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    t2, w3 = (2.0 * p.alpha + 1.0) * t1, z1 - z2 * z2 / (2.0 * lam2p1L)
    return z1, z2, t1, t2, np.where(z1 <= t1, 2.0 * t1 - z1, np.where(z1 <= t2, t1, w3))


def vdot_analytic(x: ErrorState, p: Params, eta: float, fddot: float) -> float:
    """Time derivative of V at x under disturbances (eta, fddot), per-region form.

    At x2 < 0 the mirror is applied to both the state and the disturbances,
    which leaves the admissible disturbance box invariant.
    """
    reg = region(x, p)
    if reg.mirrored:
        z1, z2, e, g = -x.x1, -x.x2, -eta, -fddot
    else:
        z1, z2, e, g = x.x1, x.x2, eta, fddot
    (rates,) = _wdot_branches(z1, z2, e, (g,), p)
    return float(rates[{"W1": 0, "W2": 1, "W3": 2}[reg.index]])


def verify_decrease_four_slot(p, n, grid, gamma, margin=1e-9, tolerance=1e-9):
    """Reference certifier: every active state gets all four eta slots.

    The slots are the corners -N and +N and two values straddling z1 inside
    the band, each with fddot in (-L, L), as `verify_decrease` sampled every
    state before it evaluated the straddling slots on in-band states only.
    The whole grid is one block.  Returns (slot, DecreaseViolation) pairs
    ordered by grid index, then slot, then fddot.
    """
    N, L = n.N, p.L
    x1s, x2s = grid.axes()
    x1v, x2v = np.repeat(x1s, grid.n2), np.tile(x2s, grid.n1)
    z1, z2, t1, t2, v = _thresholds_grid(x1v, x2v, p)
    idx = np.nonzero(v > N + margin)[0]
    z1, z2, t1, t2, v, x1v, x2v = (a[idx] for a in (z1, z2, t1, t2, v, x1v, x2v))
    eps_cell = 1e-9 * np.maximum(1.0, np.abs(t2))
    near_t1, near_t2 = np.abs(z1 - t1) <= eps_cell, np.abs(z1 - t2) <= eps_cell
    le1, le2 = z1 <= t1, z1 <= t2
    checks = (le1 | near_t1, (~le1 & le2) | near_t1 | near_t2, ~(le1 | le2) | near_t2)
    required = -gamma * np.sqrt(v - N)
    delta = 1e-12 * np.maximum(np.abs(z1), max(1.0, N))
    clamped = np.clip(z1, -N, N)
    slots = [
        np.full_like(z1, -N),
        np.full_like(z1, N),
        np.clip(clamped - delta, -N, N),
        np.clip(clamped + delta, -N, N),
    ]
    for e in slots:
        hit = z1 - e == 0.0
        down_ok = e - delta >= -N
        e[hit & down_ok] = (e - delta)[hit & down_ok]
        e[hit & ~down_ok] = (e + delta)[hit & ~down_ok]
    found = []
    for slot, e in enumerate(slots):
        for k, rates in enumerate(_wdot_branches(z1, z2, e, (-L, L), p)):
            observed = np.full_like(z1, -np.inf)
            for wd, check in zip(rates, checks):
                np.maximum(observed, wd, out=observed, where=check)
            j = np.flatnonzero(observed > required + tolerance)
            found.append((j, np.full(j.size, slot), np.full(j.size, k), e[j], observed[j]))
    j, slot, k, e, observed = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((k, slot, j))
    j, slot, e, g = j[order], slot[order], e[order], np.array((-L, L))[k[order]]
    mir = x2v[j] < 0
    cols = (slot, x1v[j], x2v[j], np.where(mir, -e, e), np.where(mir, -g, g), observed[order], required[j])
    return [
        (s, DecreaseViolation(ErrorState(a, b), eta, fddot, obs, req))
        for s, a, b, eta, fddot, obs, req in zip(*(c.tolist() for c in cols))
    ]


def vdot_one_sided(x: ErrorState, p: Params, eta: float, fddot: float, h: float = 1e-8) -> float:
    """One-sided finite-difference estimate of V-dot along the frozen vector field.

    Cross-check only; unreliable within O(h) of the region boundaries and
    of the sign discontinuity x1 = eta.
    """
    arg = x.x1 - eta
    s = math.copysign(1.0, arg) if arg != 0 else 0.0
    dx1 = -p.lambda1 * math.sqrt(p.L) * s * math.sqrt(abs(arg)) + x.x2
    dx2 = -p.lambda2 * p.L * s - fddot
    ahead = ErrorState(x.x1 + h * dx1, x.x2 + h * dx2)
    return (evaluate(ahead, p) - evaluate(x, p)) / h


def error_system_states(cfg, eta, fddot, x0=None):
    """Error coordinates (x1s, x2s) of cfg's scheme under the disturbances eta and fddot.

    Steps dx1 = -lambda1 sqrt(L) |x1 - eta|^(1/2) sign(x1 - eta) + x2,
    dx2 = -lambda2 L sign(x1 - eta) - fddot with forward Euler (sign(0) = 0)
    or backward Euler (the implicit step's generalized equation in x), from
    x0 or, by default, (eta(0), 0).
    """
    dt = cfg.scheme.dt
    n = cfg.steps
    ts = np.arange(n + 1) * dt

    ets = np.fromiter((eta(t) for t in ts), dtype=float, count=n + 1)
    gts = np.fromiter((fddot(t) for t in ts), dtype=float, count=n + 1)

    x1s = np.empty(n + 1)
    x2s = np.empty(n + 1)
    if x0 is None:
        x1, x2 = ets[0], 0.0
    else:
        x1, x2 = x0.x1, x0.x2
    x1s[0], x2s[0] = x1, x2

    lam1sL = cfg.params.lambda1 * math.sqrt(cfg.params.L)
    lam2L = cfg.params.lambda2 * cfg.params.L
    if cfg.scheme.kind == stw.IMPLICIT:
        a = dt * lam1sL
        b = dt * dt * lam2L
        solve = stw.solve_sigma
        for k in range(n):
            e = ets[k + 1]
            g = gts[k + 1]
            r = x1 - e + dt * x2 - dt * dt * g
            sigma, xi = solve(r, a, b)
            if sigma == 0.0:
                x2 = x2 - r / dt - dt * g
            else:
                x2 = x2 - dt * lam2L * xi - dt * g
            x1 = e + sigma
            x1s[k + 1], x2s[k + 1] = x1, x2
    else:
        for k in range(n):
            d = x1 - ets[k]
            sgn = 1.0 if d > 0.0 else (-1.0 if d < 0.0 else 0.0)
            x1 = x1 + dt * (-lam1sL * sgn * math.sqrt(abs(d)) + x2)
            x2 = x2 + dt * (-lam2L * sgn - gts[k])
            x1s[k + 1], x2s[k + 1] = x1, x2
    return x1s, x2s
