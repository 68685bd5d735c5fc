"""Gain sets for the super-twisting differentiator and the closed-form bounds.

All bounds assume a signal with second derivative bounded by L and a
measurement noise bounded by N.  The tightness parameter alpha in (1, 4]
trades how close the error bound sits to the true worst case against how
much freedom is left in picking the gains.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property


def check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless `value` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def is_count(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float or a string."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the tightness parameter alpha lies in (1, 4]."""
    if not 1.0 < alpha <= 4.0:
        raise ValueError(f"alpha must lie in (1, 4], got {alpha}")


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
        check_alpha(self.alpha)

    @cached_property
    def injection_gains(self) -> tuple[float, float]:
        """Gains (lambda1 sqrt(L), lambda2 L) of the square-root and discontinuous terms.

        Computed once per instance; not a field, so not part of ==, hash or repr.
        """
        return self.lambda1 * math.sqrt(self.L), self.lambda2 * self.L


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


def _margins(p: Params) -> tuple[Decimal, Decimal]:
    """The decrease-rate margins (epsilon1, epsilon2) of the gain condition, to 50 digits.

    epsilon1 = ((alpha+1)lambda2+alpha-1)/(alpha(lambda2+1)) - lambda1/sqrt(2 alpha(lambda2+1))
    and epsilon2 = lambda1 - 2 sqrt(2(lambda2+1)) are positive exactly when
    lambda1 is below the condition's upper limit and above its lower one.
    Both are differences of nearly equal quantities that cancel near those
    limits, so they are evaluated from the gains' exact binary values in
    50-digit decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lam1, lam2, alpha = map(Decimal, (p.lambda1, p.lambda2, p.alpha))
        lam2p1 = lam2 + 1
        eps1 = ((alpha + 1) * lam2 + alpha - 1) / (alpha * lam2p1) - lam1 / (2 * alpha * lam2p1).sqrt()
        return eps1, lam1 - 2 * (2 * lam2p1).sqrt()


def validate_condition(p: Params) -> bool:
    """True iff 1 < lambda1/sqrt(8(lambda2+1)) < ((alpha+1)lambda2+alpha-1)/(2 sqrt(alpha)(lambda2+1)).

    Decided by the signs of both margins (`_margins`), the same test as
    :func:`stwdiff.lyapunov.decay_rate_gamma`'s, so the two agree on every
    gain set.  The ends of `lambda1_range`, which `stwdiff validate` prints,
    are rounded to float: within a few ulps of them, membership in that
    interval can disagree with this test.
    """
    return min(_margins(p)) > 0


def lambda2_min(alpha: float) -> float:
    """Strict lower bound on lambda2 for the gain condition to be satisfiable.

    Equals (1 + 2 sqrt(alpha) - alpha) / (1 - 2 sqrt(alpha) + alpha); always
    >= 1 on (1, 4], with equality only at alpha = 4, and diverging as
    alpha -> 1.
    """
    check_alpha(alpha)
    s = math.sqrt(alpha)
    return (1.0 + 2.0 * s - alpha) / (1.0 - 2.0 * s + alpha)


def lambda1_range(lambda2: float, alpha: float) -> GainInterval:
    """Open interval of lambda1 values satisfying the gain condition, ends rounded to float.

    lo = sqrt(8(lambda2+1)); hi uses the algebraically simplified form
    ((alpha+1)lambda2 + alpha - 1) * sqrt(2(lambda2+1)/alpha) / (lambda2+1)
    to avoid cancellation near the empty-interval boundary.  The interval
    is empty exactly when lambda2 <= lambda2_min(alpha).  Each end is
    rounded to float, so within a few ulps of an end, membership can differ
    from :func:`validate_condition`, which decides from 50-digit margins.
    """
    check_positive_finite("lambda2", lambda2)
    check_alpha(alpha)
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
