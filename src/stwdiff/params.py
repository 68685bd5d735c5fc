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
from fractions import Fraction
from functools import cached_property


def check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless `value` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_finite(name: str, value: float) -> float:
    """`value`; raises ValueError when it is not finite: a bad input, or a result that overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
    """Open interval (lo, hi) of the lambda1 values that satisfy the gain condition.

    `lo` and `hi` are the interval's exact ends rounded outward to float, so a
    float lambda1 satisfies the condition exactly when lo < lambda1 < hi.
    `empty` says that no real lambda1 does; it is not lo >= hi, since rounding
    outward can leave lo < hi around an empty interval.
    """

    lo: float
    hi: float
    empty: bool


def _root(q: Fraction, up: bool = False) -> float:
    """sqrt(q) rounded down, or up, to float, for a rational q whose root is a normal float >= 2^-75."""
    r = math.isqrt((q.numerator << 256) // q.denominator)  # floor(sqrt(q) 2^128): 53 bits or more
    cut = r.bit_length() - 53
    f = math.ldexp(r >> cut, cut - 128)
    return math.nextafter(f, math.inf) if up and Fraction(f) ** 2 < q else f


def validate_condition(p: Params) -> bool:
    """True iff 1 < lambda1/sqrt(8(lambda2+1)) < ((alpha+1)lambda2+alpha-1)/(2 sqrt(alpha)(lambda2+1)).

    Decided, exactly, as lo < lambda1 < hi on the float ends of
    :func:`lambda1_range`, the ends that `stwdiff validate` prints;
    :func:`stwdiff.lyapunov.decay_rate_gamma` raises exactly when this test
    fails.
    """
    r = lambda1_range(p.lambda2, p.alpha)
    return r.lo < p.lambda1 < r.hi


def lambda2_min(alpha: float) -> float:
    """Largest float lambda2 for which no lambda1 satisfies the gain condition.

    Some lambda1 does exactly when lambda2 exceeds
    (1 + 2 sqrt(alpha) - alpha) / (1 - 2 sqrt(alpha) + alpha), which is
    2((sqrt(alpha) + 1)/(alpha - 1))^2 - 1.  That form, free of cancellation
    as alpha -> 1, gives a float within a few ulps, which is then moved to
    the largest float whose :func:`lambda1_range` is empty.  So `empty` is
    lambda2 <= lambda2_min(alpha).  It is >= 1 on (1, 4], with equality only
    at alpha = 4, and diverges as alpha -> 1.
    """
    check_alpha(alpha)
    m = 2.0 * ((math.sqrt(alpha) + 1.0) / (alpha - 1.0)) ** 2 - 1.0
    while lambda1_range(m, alpha).empty:
        m = math.nextafter(m, math.inf)
    while not lambda1_range(m, alpha).empty:
        m = math.nextafter(m, 0.0)
    return m


def lambda1_range(lambda2: float, alpha: float) -> GainInterval:
    """Open interval of lambda1 values satisfying the gain condition, ends rounded outward.

    The squared ends lo^2 = 8(lambda2+1) and
    hi^2 = 2((alpha+1)lambda2 + alpha - 1)^2 / (alpha(lambda2+1)) are
    formed exactly, as fractions of the gains' binary values.  lo is rounded
    toward -inf and hi toward +inf, so :func:`validate_condition`,
    lo < lambda1 < hi on these floats, is the exact condition.  The interval
    is empty when hi^2 <= lo^2, that is when lambda2 <= lambda2_min(alpha).
    """
    check_positive_finite("lambda2", lambda2)
    check_alpha(alpha)
    u, a = Fraction(lambda2) + 1, Fraction(alpha)  # (alpha+1)lambda2 + alpha - 1 = (alpha+1)u - 2
    lo2, hi2 = 8 * u, 2 * ((a + 1) * u - 2) ** 2 / (a * u)
    return GainInterval(_root(lo2), _root(hi2, up=True), hi2 <= lo2)


def error_upper_bound(p: Params, n: NoiseLevel) -> float:
    """Worst-case steady-state differentiation error bound 2 sqrt(alpha (lambda2+1) N L).

    Raises ValueError when the float product overflows.
    """
    return require_finite("error upper bound", 2.0 * math.sqrt(p.alpha * (p.lambda2 + 1.0) * n.N * p.L))


def error_lower_bound(lambda2: float, n: NoiseLevel, L: float) -> float:
    """Error level 2 sqrt((lambda2+1) N L) attained by the worst-case signal pair.

    Raises ValueError when the float product overflows.
    """
    check_positive_finite("lambda2", lambda2)
    check_positive_finite("L", L)
    return require_finite("error lower bound", 2.0 * math.sqrt((lambda2 + 1.0) * n.N * L))


def tightness_factor(p: Params) -> float:
    """Ratio upper/lower bound, sqrt(alpha); always in (1, 2]."""
    return math.sqrt(p.alpha)


def convergence_time_bound(p: Params, fdot0: float) -> float:
    """Worst-case noise-free convergence time |fdot(0)| / ((lambda2 - 1) L).

    Defined only for lambda2 > 1 and a finite fdot0.  Raises ValueError
    when the quotient is not finite: it overflows, or (lambda2 - 1) L
    underflows to 0 under a nonzero fdot0.
    """
    if not p.lambda2 > 1.0:
        raise ValueError(f"convergence time bound requires lambda2 > 1, got {p.lambda2}")
    require_finite("fdot0", fdot0)
    if fdot0 == 0.0:
        return 0.0
    den = (p.lambda2 - 1.0) * p.L
    return require_finite("convergence time bound", abs(fdot0) / den if den else math.inf)
