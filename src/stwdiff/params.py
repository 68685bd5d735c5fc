"""Gain sets for the super-twisting differentiator and the closed-form bounds.

All bounds assume a signal with second derivative bounded by L and a
measurement noise bounded by N.  The tightness parameter alpha in (1, 4]
trades how close the error bound sits to the true worst case against how
much freedom is left in picking the gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless `value` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Params:
    """Differentiator gains lambda1, lambda2, curvature bound L, and alpha.

    A Params value may violate the gain condition on purpose (e.g. to
    exhibit divergence for lambda2 < 1); use :func:`validate_condition`
    to test satisfaction.
    """

    lambda1: float
    lambda2: float
    L: float
    alpha: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "L"):
            check_positive_finite(name, getattr(self, name))
        if not 1.0 < self.alpha <= 4.0:
            raise ValueError(f"alpha must lie in (1, 4], got {self.alpha}")


@dataclass(frozen=True)
class NoiseLevel:
    """Uniform noise amplitude bound N >= 0, in signal units."""

    N: float

    def __post_init__(self):
        if not (self.N >= 0 and math.isfinite(self.N)):
            raise ValueError(f"noise bound N must be nonnegative and finite, got {self.N}")


@dataclass(frozen=True)
class GainInterval:
    """Open interval (lo, hi) of admissible lambda1 values; empty iff lo >= hi."""

    lo: float
    hi: float
    empty: bool

    def contains(self, lambda1: float) -> bool:
        return (not self.empty) and self.lo < lambda1 < self.hi


def validate_condition(p: Params) -> bool:
    """True iff 1 < lambda1/sqrt(8(lambda2+1)) < ((alpha+1)lambda2+alpha-1)/(2 sqrt(alpha)(lambda2+1)).

    That is, iff lambda1 lies in the open interval `lambda1_range`; floating
    equality at either endpoint returns False.
    """
    return lambda1_range(p.lambda2, p.alpha).contains(p.lambda1)


def lambda2_min(alpha: float) -> float:
    """Strict lower bound on lambda2 for the gain condition to be satisfiable.

    Equals (1 + 2 sqrt(alpha) - alpha) / (1 - 2 sqrt(alpha) + alpha); always
    >= 1 on (1, 4], with equality only at alpha = 4, and diverging as
    alpha -> 1.
    """
    if not 1.0 < alpha <= 4.0:
        raise ValueError(f"alpha must lie in (1, 4], got {alpha}")
    s = math.sqrt(alpha)
    return (1.0 + 2.0 * s - alpha) / (1.0 - 2.0 * s + alpha)


def lambda1_range(lambda2: float, alpha: float) -> GainInterval:
    """Open interval of lambda1 values satisfying the gain condition.

    lo = sqrt(8(lambda2+1)); hi uses the algebraically simplified form
    ((alpha+1)lambda2 + alpha - 1) * sqrt(2(lambda2+1)/alpha) / (lambda2+1)
    to avoid cancellation near the empty-interval boundary.  The interval
    is empty exactly when lambda2 <= lambda2_min(alpha).
    """
    check_positive_finite("lambda2", lambda2)
    if not 1.0 < alpha <= 4.0:
        raise ValueError(f"alpha must lie in (1, 4], got {alpha}")
    lam2p1 = lambda2 + 1.0
    lo = math.sqrt(8.0 * lam2p1)
    hi = ((alpha + 1.0) * lambda2 + alpha - 1.0) * math.sqrt(2.0 * lam2p1 / alpha) / lam2p1
    return GainInterval(lo=lo, hi=hi, empty=lo >= hi)


def error_upper_bound(p: Params, n: NoiseLevel) -> float:
    """Worst-case steady-state differentiation error bound 2 sqrt(alpha (lambda2+1) N L)."""
    return 2.0 * math.sqrt(p.alpha * (p.lambda2 + 1.0) * n.N * p.L)


def error_lower_bound(lambda2: float, n: NoiseLevel, L: float) -> float:
    """Error level 2 sqrt((lambda2+1) N L) attained by the worst-case signal pair."""
    check_positive_finite("lambda2", lambda2)
    check_positive_finite("L", L)
    return 2.0 * math.sqrt((lambda2 + 1.0) * n.N * L)


def tightness_factor(p: Params) -> float:
    """Ratio upper/lower bound, sqrt(alpha); always in (1, 2]."""
    return math.sqrt(p.alpha)


def convergence_time_bound(p: Params, fdot0: float) -> float:
    """Worst-case noise-free convergence time |fdot(0)| / ((lambda2 - 1) L).

    Defined only for lambda2 > 1 and a finite fdot0.
    """
    if not p.lambda2 > 1.0:
        raise ValueError(f"convergence time bound requires lambda2 > 1, got {p.lambda2}")
    if not math.isfinite(fdot0):
        raise ValueError(f"fdot0 must be finite, got {fdot0}")
    return abs(fdot0) / ((p.lambda2 - 1.0) * p.L)
