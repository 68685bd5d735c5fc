"""Super-twisting differentiator: its two fixed-step updates and the step API.

State (y1, y2) estimates the measured signal and its first derivative from
the noisy input u; the square-root injection drives y1 onto u and the
discontinuous term lets y2 track the derivative exactly once there.

Two fixed-step discretizations are provided.  The explicit form is plain
forward Euler with sign(0) = 0.  The implicit (backward Euler) form
resolves the set-valued sign through a scalar generalized equation

    sigma + a * |sigma|^(1/2) sign(sigma) + b * xi = r,   xi in sign set of sigma,

with r = u - y1 - dt*y2, a = dt (lambda1 sqrt(L)), b = dt^2 (lambda2 L).  The
solution is closed form: a deadzone (sigma = 0, xi = r/b) for |r| <= b,
otherwise a quadratic in sqrt|sigma|.  No iteration, no chattering at the
equilibrium.

`explicit_update` and `implicit_update` are the recurrence's one source; the
step functions and the simulation loop of `harness` both call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import Params, check_positive_finite

EXPLICIT = "explicit"
IMPLICIT = "implicit"


@dataclass(frozen=True, slots=True, init=False)
class DiffState:
    """Differentiator state: y1 estimates the signal, y2 its derivative."""

    y1: float
    y2: float

    def __init__(self, y1: float, y2: float):
        if not (math.isfinite(y1) and math.isfinite(y2)):
            raise ValueError(f"state must be finite, got ({y1}, {y2})")
        _set_y1(self, y1)
        _set_y2(self, y2)


# The slots' own setters: they store past the frozen __setattr__, cheaply.
_set_y1, _set_y2 = DiffState.y1.__set__, DiffState.y2.__set__


@dataclass(frozen=True)
class StepScheme:
    """Discretization kind ('explicit' or 'implicit') and step size dt > 0."""

    kind: str
    dt: float

    def __post_init__(self):
        if self.kind not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        check_positive_finite("dt", self.dt)


def init(u0: float) -> DiffState:
    """Initial state (u0, 0): y1 starts on the first measurement, y2 at rest."""
    return DiffState(u0, 0.0)


def explicit_update(y1: float, y2: float, u: float, dt: float, k1: float, k2: float) -> tuple[float, float]:
    """Forward Euler update of (y1, y2) on the input u, with sign(0) = 0."""
    d = u - y1
    sgn = 1.0 if d > 0.0 else (-1.0 if d < 0.0 else 0.0)
    return y1 + dt * (k1 * sgn * math.sqrt(abs(d)) + y2), y2 + dt * k2 * sgn


def step_explicit(s: DiffState, u: float, scheme: StepScheme, p: Params) -> DiffState:
    """Forward Euler step with the sign(0) = 0 convention."""
    if scheme.kind != EXPLICIT:
        raise ValueError(f"step_explicit requires an explicit scheme, got {scheme.kind!r}")
    return DiffState(*explicit_update(s.y1, s.y2, u, scheme.dt, *p.injection_gains))


def solve_sigma(r: float, a: float, b: float) -> tuple[float, float]:
    """Closed-form solution (sigma, xi) of the implicit-step generalized equation.

    For |r| <= b the set-valued term absorbs r: sigma = 0 with the interior
    selection xi = r/b.  Otherwise sigma has the sign of r and
    sqrt|sigma| = (-a + sqrt(a^2 + 4(|r| - b))) / 2.
    """
    if abs(r) <= b:
        return 0.0, (r / b if b > 0.0 else 0.0)
    root = 0.5 * (-a + math.sqrt(a * a + 4.0 * (abs(r) - b)))
    return math.copysign(root * root, r), math.copysign(1.0, r)


def implicit_update(y1: float, y2: float, u: float, dt: float, k1: float, k2: float) -> tuple[float, float]:
    """Backward Euler update of (y1, y2), exact to rounding; u is sampled at the step's end."""
    r = u - y1 - dt * y2
    sigma, xi = solve_sigma(r, dt * k1, dt * dt * k2)
    return u - sigma, y2 + (r / dt if sigma == 0.0 else dt * k2 * xi)


def step_implicit(s: DiffState, u: float, scheme: StepScheme, p: Params) -> DiffState:
    """Backward Euler step; `u` is the input sampled at the step's target time."""
    if scheme.kind != IMPLICIT:
        raise ValueError(f"step_implicit requires an implicit scheme, got {scheme.kind!r}")
    return DiffState(*implicit_update(s.y1, s.y2, u, scheme.dt, *p.injection_gains))
