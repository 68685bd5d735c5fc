"""Test signals and noises with certified amplitude/curvature bounds.

Signals are pure time evaluators (closures over their constants) rather
than sampled arrays, so simulation schemes can probe them at arbitrary
times and runs stay bit-reproducible.  The built-in pairs also carry an
array form, `sample`, that evaluates (f, fdot, eta) over a whole time grid
with the same floating-point operations as the scalar closures.

Provided pairs:
  * quadratic signal +-L t^2 / 2 with the square-wave switching noise,
  * the worst-case ramp construction that makes the differentiator ride a
    sliding trajectory and realize the lower error bound exactly,
  * the divergence pair (f = L t^2 / 2, eta = N) exhibiting unbounded
    error whenever lambda2 < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .differentiator import DiffState
from .params import NoiseLevel, check_positive_finite

TimeFn = Callable[[float], float]
GridFn = Callable[[np.ndarray], np.ndarray]
SampleFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class SignalPair:
    """A concrete (f, eta) realization with certified bounds.

    `fddot` may be None for externally supplied signals; membership checks
    then fall back to second differences.  `sample`, when set, maps an array
    of nonnegative times to the arrays (f, fdot, eta) and must agree bit for
    bit with the scalar evaluators; `simulate` uses it in place of them.
    """

    f: TimeFn
    fdot: TimeFn
    fddot: Optional[TimeFn]
    eta: TimeFn
    L_cert: float
    N_cert: float
    description: str
    degenerate: bool = False
    sample: Optional[SampleFn] = None

    def u(self, t: float) -> float:
        """Measured input f(t) + eta(t)."""
        return self.f(t) + self.eta(t)


def switching_noise(t: float, N: float, c1: float, c2: float) -> float:
    """Square-wave noise: -N before t = 10 c1, then period c1 with duty c2/c1 at +N.

    Within each period the first sub-interval of length c2 sits at +N and
    the remainder at -N; exactly at the switch instant the value is 0
    (measure zero, irrelevant for admissibility).
    """
    if not 0.0 < c2 < c1:
        raise ValueError(f"need 0 < c2 < c1, got c1={c1}, c2={c2}")
    if t < 0.0:
        raise ValueError(f"noise defined for t >= 0, got {t}")
    if t < 10.0 * c1:
        return -N
    # Compensated remainder: floor in double precision can round either way
    # at period boundaries, so fold the result back into [0, c1).
    s = t - c1 * math.floor(t / c1)
    if s < 0.0:
        s += c1
    elif s >= c1:
        s -= c1
    if s < c2:
        return N
    if s > c2:
        return -N
    return 0.0


def _switching_noise_grid(ts: np.ndarray, N: float, c1: float, c2: float) -> np.ndarray:
    """`switching_noise` over an array of times, value for value."""
    if ts.size and not ts.min() >= 0.0:
        raise ValueError(f"noise defined for t >= 0, got {ts.min()}")
    s = ts - c1 * np.floor(ts / c1)
    s = np.where(s < 0.0, s + c1, np.where(s >= c1, s - c1, s))
    eta = np.where(s < c2, N, np.where(s > c2, -N, 0.0))
    eta[ts < 10.0 * c1] = -N
    return eta


@dataclass(frozen=True)
class WorstCaseSpec:
    """Constants of the worst-case ramp construction.

    theta = 2 sqrt(N / ((lambda2 + 1) L)) is the ramp duration; the target
    time tau must exceed it.
    """

    tau: float
    lambda2: float
    N: float
    L: float
    theta: float = field(init=False)

    def __post_init__(self):
        for name in ("tau", "lambda2", "L"):
            check_positive_finite(name, getattr(self, name))
        NoiseLevel(self.N)  # N must be nonnegative and finite
        theta = 2.0 * math.sqrt(self.N / ((self.lambda2 + 1.0) * self.L))
        object.__setattr__(self, "theta", theta)
        if self.lambda2 >= 1.0 and not self.tau > theta:
            raise ValueError(f"construction requires tau > theta = {theta:.6g}, got tau={self.tau}")


def _ramp(spec: WorstCaseSpec, t: float) -> tuple[float, float, float]:
    t0 = spec.tau - spec.theta
    if t < t0:
        return 0.0, 0.0, 0.0
    dt = t - t0
    return spec.L * dt * dt / 2.0, spec.L * dt, spec.L


def worst_case_pair(spec: WorstCaseSpec) -> SignalPair:
    """Signal/noise pair realizing the worst-case error at time tau.

    For lambda2 >= 1 this is the delayed ramp with the saturating noise
    eta = max(-N, N - (lambda2 + 1) f); it keeps the differentiator on a
    sliding trajectory up to tau, where the error reaches
    -2 sqrt((lambda2 + 1) N L).  For lambda2 < 1 the unbounded-error pair
    f = L t^2 / 2, eta = N is returned instead.  N = 0 degenerates to the
    plain ramp; the pair is flagged.
    """
    if spec.lambda2 < 1.0:
        L, N = spec.L, spec.N
        eta, eta_grid = _constant_noise(N)
        desc = f"divergence pair for lambda2 < 1 (L={L}, N={N}): error grows without bound"
        return _quadratic_pair(L, 1.0, eta, eta_grid, N, desc)

    lam2p1 = spec.lambda2 + 1.0
    t0 = spec.tau - spec.theta

    def f(t: float) -> float:
        return _ramp(spec, t)[0]

    def fdot(t: float) -> float:
        return _ramp(spec, t)[1]

    def fddot(t: float) -> float:
        return _ramp(spec, t)[2]

    def eta(t: float) -> float:
        return max(-spec.N, spec.N - lam2p1 * _ramp(spec, t)[0])

    def sample(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # _ramp and max(-N, .) over the grid, one ramp evaluation per time.
        # np.where mirrors max exactly; np.maximum would propagate a NaN.
        d = ts - t0
        before = ts < t0
        fv = np.where(before, 0.0, spec.L * d * d / 2.0)
        x = spec.N - lam2p1 * fv
        return fv, np.where(before, 0.0, spec.L * d), np.where(x > -spec.N, x, -spec.N)

    degenerate = spec.N == 0.0
    desc = (
        f"worst-case ramp pair (tau={spec.tau}, theta={spec.theta:.6g}, "
        f"lambda2={spec.lambda2}, N={spec.N}, L={spec.L})"
    )
    if degenerate:
        desc += " [degenerate: N=0, zero-noise ramp]"
    return SignalPair(
        f=f,
        fdot=fdot,
        fddot=fddot,
        eta=eta,
        L_cert=spec.L,
        N_cert=spec.N,
        description=desc,
        degenerate=degenerate,
        sample=sample,
    )


def sliding_reference(spec: WorstCaseSpec, t: float) -> DiffState:
    """Analytic sliding trajectory (y1, y2) = (N - lambda2 f, -lambda2 fdot).

    Valid for t <= tau only; the simulated differentiator must track it.
    """
    if spec.lambda2 < 1.0:
        raise ValueError("sliding reference exists only for lambda2 >= 1")
    if t > spec.tau:
        raise ValueError(f"sliding reference valid only up to tau={spec.tau}, got t={t}")
    fv, fd, _ = _ramp(spec, t)
    return DiffState(spec.N - spec.lambda2 * fv, -spec.lambda2 * fd)


def check_membership(pair: SignalPair, horizon: float, samples: int) -> bool:
    """Densely verify |eta| <= N_cert and |fddot| <= L_cert over [0, horizon].

    Uses the analytic second derivative when the pair carries one,
    otherwise central second differences with the boundary samples
    excluded.  Tolerance 1e-9 * max(N_cert, L_cert).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    tol = 1e-9 * max(pair.N_cert, pair.L_cert)
    h = horizon / (samples - 1)
    ts = [k * h for k in range(samples)]
    for t in ts:
        if abs(pair.eta(t)) > pair.N_cert + tol:
            return False
    if pair.fddot is not None:
        for t in ts:
            if abs(pair.fddot(t)) > pair.L_cert + tol:
                return False
    else:
        for t in ts[1:-1]:
            dd = (pair.f(t + h) - 2.0 * pair.f(t) + pair.f(t - h)) / (h * h)
            if abs(dd) > pair.L_cert + tol:
                return False
    return True


def _parse_kv(body: str, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"bad {what} option {item!r}: expected key=value")
        key, val = item.split("=", 1)
        try:
            value = float(val)
        except ValueError as exc:
            raise ValueError(f"bad {what} value {item!r}") from exc
        if not math.isfinite(value):
            raise ValueError(f"bad {what} value {item!r}: must be finite")
        out[key.strip()] = value
    return out


def _split_spec(spec: str) -> tuple[str, dict[str, float]]:
    name, _, body = spec.partition(":")
    return name.strip().lower(), _parse_kv(body.strip(), name)


def parse_pair(signal_spec: str, noise_spec: str, default_L: float, default_N: float) -> SignalPair:
    """Build a SignalPair from CLI-style spec strings.

    Grammar: NAME[:key=value,...] with
      signal:  quadratic:L=...,sign=+-1
      noise:   switching:N=...,c1=...,c2=...  |  constant:N=...  |  none
      either:  worstcase:tau=...,lambda2=...,N=...,L=...
    Missing L / N fall back to the supplied defaults.
    """
    sig_name, sig_kv = _split_spec(signal_spec)
    noi_name, noi_kv = _split_spec(noise_spec)

    if sig_name == "worstcase" or noi_name == "worstcase":
        kv = {**sig_kv, **noi_kv}
        spec = WorstCaseSpec(
            tau=kv.get("tau", 1.0),
            lambda2=kv.get("lambda2", 1.1),
            N=kv.get("N", kv.get("n", default_N)),
            L=kv.get("L", kv.get("l", default_L)),
        )
        return worst_case_pair(spec)

    if sig_name != "quadratic":
        raise ValueError(f"unknown signal kind {sig_name!r} (expected quadratic or worstcase)")
    L = sig_kv.get("L", sig_kv.get("l", default_L))
    sgn = sig_kv.get("sign", -1.0)
    if sgn not in (-1.0, 1.0):
        raise ValueError(f"quadratic sign must be +1 or -1, got {sgn}")

    if noi_name in ("none", "constant"):
        value = 0.0 if noi_name == "none" else noi_kv.get("N", noi_kv.get("n", default_N))
        eta, eta_grid = _constant_noise(value)
        n_cert = abs(value)
        noise_desc = "no noise" if noi_name == "none" else f"constant noise {value}"
    elif noi_name == "switching":
        N = noi_kv.get("N", noi_kv.get("n", default_N))
        c1 = noi_kv.get("c1", 0.011)
        c2 = noi_kv.get("c2", 0.00149)
        if not 0.0 < c2 < c1:
            raise ValueError(f"switching noise needs 0 < c2 < c1, got c1={c1}, c2={c2}")
        eta = lambda t: switching_noise(t, N, c1, c2)
        eta_grid = lambda ts: _switching_noise_grid(ts, N, c1, c2)
        n_cert = abs(N)
        noise_desc = f"switching noise N={N}, c1={c1}, c2={c2}"
    else:
        raise ValueError(f"unknown noise kind {noi_name!r} (expected switching, constant, none, worstcase)")

    desc = f"quadratic signal sign={sgn:+.0f}, L={L}; {noise_desc}"
    return _quadratic_pair(L, sgn, eta, eta_grid, n_cert, desc)


def _constant_noise(value: float) -> tuple[TimeFn, GridFn]:
    """Scalar and array forms of the noise eta(t) = value."""
    return (lambda t: value), (lambda ts: np.full(ts.shape, value, dtype=float))


def _quadratic_pair(L: float, sgn: float, eta: TimeFn, eta_grid: GridFn, n_cert: float, description: str) -> SignalPair:
    """Signal sgn * L t^2 / 2 under the noise `eta`, whose array form is `eta_grid`."""

    def f(t: float) -> float:
        return sgn * L * t * t / 2.0

    def fdot(t: float) -> float:
        return sgn * L * t

    def fddot(t: float) -> float:
        return sgn * L

    def sample(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return sgn * L * ts * ts / 2.0, sgn * L * ts, eta_grid(ts)

    return SignalPair(
        f=f,
        fdot=fdot,
        fddot=fddot,
        eta=eta,
        L_cert=abs(L),
        N_cert=n_cert,
        description=description,
        sample=sample,
    )
