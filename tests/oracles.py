"""Independent high-precision oracles used to pin expected values.

Every closed form is re-derived here with 50-digit decimal arithmetic on
the exact binary values of the float inputs, so the package results can be
compared at the ulp level.  The implicit-step oracle solves the scalar
generalized equation by bisection instead of the closed form.  The V-dot
pair cross-checks the certifier's per-branch derivative against a finite
difference of V.
"""

import math
from decimal import Decimal, localcontext

from stwdiff import ErrorState, Params, evaluate, region
from stwdiff.lyapunov import _wdot_branch

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
    branch = {"W1": 0, "W2": 1, "W3": 2}[reg.index]
    return float(_wdot_branch(branch, z1, z2, e, g, p))


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
