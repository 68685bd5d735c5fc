"""Test signals and noises with certified amplitude/curvature bounds.

Signals are pure time evaluators (closures over their constants) rather
than sampled arrays, so simulation schemes can probe them at arbitrary
times and runs stay bit-reproducible.  Every pair also has an array form,
`sample`, that evaluates (f, fdot, eta) over a whole time grid; it is the
one way the rest of the package evaluates a pair over a grid.

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

from .params import NoiseLevel, check_positive_finite, is_count

TimeFn = Callable[[float], float]
GridFn = Callable[[np.ndarray], np.ndarray]
SampleFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def sample_each(fn: TimeFn, ts: np.ndarray) -> np.ndarray:
    """The scalar evaluator `fn` at every time of `ts`, one Python float at a time.

    `fn` is called once per time, in order, with a `float` whatever the real
    dtype, strides or byte order of `ts`: the times are read as native
    float64 through a memoryview, which yields floats without boxing numpy
    scalars.
    """
    times = memoryview(np.asarray(ts, dtype=np.float64))
    return np.fromiter(map(fn, times), dtype=float, count=len(times))


@dataclass
class SignalPair:
    """A concrete (f, eta) realization with certified bounds.

    `fddot` may be None for externally supplied signals; membership checks
    then fall back to second differences.  `grid`, set by the built-in pairs,
    is the array form of their own evaluators: it maps times to (f, fdot, eta)
    bit for bit, so a pair whose evaluator is swapped needs `grid=None` too.
    """

    f: TimeFn
    fdot: TimeFn
    fddot: Optional[TimeFn]
    eta: TimeFn
    L_cert: float
    N_cert: float
    description: str
    grid: Optional[SampleFn] = None

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (f, fdot, eta) at the times `ts`: `grid(ts)`, else the current evaluators at each time."""
        if self.grid is not None:
            return self.grid(ts)
        return tuple(sample_each(fn, ts) for fn in (self.f, self.fdot, self.eta))

    def u(self, t: float) -> float:
        """Measured input f(t) + eta(t)."""
        return self.f(t) + self.eta(t)


def _switching(N: float, c1: float, c2: float) -> tuple[TimeFn, GridFn]:
    """Scalar and array forms of `switching_noise` on finite t >= 0; checks 0 < c2 < c1 once."""
    if not 0.0 < c2 < c1:
        raise ValueError(f"switching noise needs 0 < c2 < c1, got c1={c1}, c2={c2}")
    start = 10.0 * c1
    domain = "noise defined for finite t >= 0, got {}"

    # Plain floats, no numpy: this form runs once per sample on the online path.
    def eta(t: float) -> float:
        if t < 0.0:
            raise ValueError(domain.format(t))
        if t < start:
            return -N
        # Compensated remainder: floor in double precision can round either way
        # at period boundaries, so fold the result back into [0, c1).
        try:
            s = t - c1 * math.floor(t / c1)
        except (OverflowError, ValueError):  # t / c1 is inf or NaN
            raise ValueError(domain.format(t)) from None
        if s < 0.0:
            s += c1
        elif s >= c1:
            s -= c1
        if s < c2:
            return N
        if s > c2:
            return -N
        return 0.0

    def grid(ts: np.ndarray) -> np.ndarray:
        q = ts / c1
        bad = ts[~(np.isfinite(q) & (ts >= 0.0))]
        if bad.size:
            raise ValueError(domain.format(bad[0]))
        s = ts - c1 * np.floor(q)
        s = np.where(s < 0.0, s + c1, np.where(s >= c1, s - c1, s))
        out = np.where(s < c2, N, np.where(s > c2, -N, 0.0))
        out[ts < start] = -N
        return out

    return eta, grid


def switching_noise(t: float, N: float, c1: float, c2: float) -> float:
    """Square-wave noise: -N before t = 10 c1, then period c1 with duty c2/c1 at +N.

    Within each period the first sub-interval of length c2 sits at +N and
    the remainder at -N; exactly at the switch instant the value is 0
    (measure zero, irrelevant for admissibility).
    """
    return _switching(N, c1, c2)[0](t)


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


def _ramp(L, d):
    """(f, fdot) = (L d^2 / 2, L d) a time d >= 0 after the ramp start; d is a float or an array."""
    return L * d * d / 2.0, L * d


def worst_case_pair(spec: WorstCaseSpec) -> SignalPair:
    """Signal/noise pair realizing the worst-case error at time tau.

    For lambda2 >= 1 this is the delayed ramp with the saturating noise
    eta = max(-N, N - (lambda2 + 1) f); it keeps the differentiator on a
    sliding trajectory up to tau, where the error reaches
    -2 sqrt((lambda2 + 1) N L).  For lambda2 < 1 the unbounded-error pair
    f = L t^2 / 2, eta = N is returned instead.  N = 0 degenerates to the
    plain ramp.
    """
    L, N = spec.L, spec.N
    if spec.lambda2 < 1.0:
        desc = f"divergence pair for lambda2 < 1 (L={L}, N={N}): error grows without bound"
        return _quadratic_pair(L, 1.0, _constant_noise(N), N, desc)

    lam2p1 = spec.lambda2 + 1.0
    t0 = spec.tau - spec.theta

    def f(t):
        return _ramp(L, np.maximum(t - t0, 0.0))[0]

    def fdot(t):
        return _ramp(L, np.maximum(t - t0, 0.0))[1]

    def fddot(t: float) -> float:
        return 0.0 if t < t0 else L

    def eta(t: float) -> float:
        return max(-N, N - lam2p1 * f(t))

    def eta_grid(ts: np.ndarray) -> np.ndarray:
        x = N - lam2p1 * f(ts)
        # np.where mirrors max(-N, x) exactly; np.maximum would propagate a NaN.
        return np.where(x > -N, x, -N)

    desc = (
        f"worst-case ramp pair (tau={spec.tau}, theta={spec.theta:.6g}, "
        f"lambda2={spec.lambda2}, N={spec.N}, L={spec.L})"
        + (" [degenerate: N=0, zero-noise ramp]" if N == 0.0 else "")
    )
    return _pair(f, fdot, fddot, (eta, eta_grid), L, N, desc)


def sliding_reference(spec: WorstCaseSpec, t):
    """Analytic sliding trajectory (y1, y2) = (N - lambda2 f, -lambda2 fdot) of the worst-case ramp.

    `t` is a time or an array of times, and y1 and y2 are of its shape.
    Valid for t <= tau only; the simulated differentiator must track it.
    Raises ValueError for lambda2 < 1, and for a time above tau or NaN.
    """
    if spec.lambda2 < 1.0:
        raise ValueError("sliding reference exists only for lambda2 >= 1")
    if not np.all(t <= spec.tau):  # NaN fails too
        raise ValueError(f"sliding reference valid only up to tau={spec.tau}, got t={np.max(t)}")
    fv, fd = _ramp(spec.L, np.maximum(t - (spec.tau - spec.theta), 0.0))
    return spec.N - spec.lambda2 * fv, -spec.lambda2 * fd


def check_membership(pair: SignalPair, horizon: float, samples: int) -> bool:
    """Densely verify |eta| <= N_cert and |fddot| <= L_cert over [0, horizon].

    Samples the pair at t_k = k h, with the analytic fddot when the pair has
    one, else central second differences of the inner f samples.  Tolerance
    1e-9 * max(N_cert, L_cert); each bound is tested with `<=`, so NaN fails.
    """
    check_positive_finite("horizon", horizon)
    if not is_count(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    tol = 1e-9 * max(pair.N_cert, pair.L_cert)
    h = horizon / (samples - 1)
    ts = np.arange(samples) * h
    fs, _, etas = pair.sample(ts)
    if pair.fddot is not None:
        fdds = sample_each(pair.fddot, ts)
    else:
        fdds = (fs[2:] - 2.0 * fs[1:-1] + fs[:-2]) / (h * h)
    return bool(np.all(np.abs(etas) <= pair.N_cert + tol) and np.all(np.abs(fdds) <= pair.L_cert + tol))


# Keys of each spec kind and their defaults; None stands for the default_L,
# default_N or default_lambda2 passed to `parse_pair`.  Each key also matches
# in lower case.
_SPEC_KEYS: dict[str, dict[str, Optional[float]]] = {
    "quadratic": {"L": None, "sign": -1.0},
    "switching": {"N": None, "c1": 0.011, "c2": 0.00149},
    "constant": {"N": None},
    "none": {},
    "worstcase": {"tau": 1.0, "lambda2": None, "N": None, "L": None},
}


def _split_spec(spec: str, what: str, kinds: tuple[str, ...]) -> tuple[str, dict[str, float]]:
    """Kind of `spec` and the finite values it sets, each key checked against that kind."""
    name, _, body = spec.partition(":")
    kind = name.strip().lower()
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r} (expected {', '.join(kinds)})")
    keys = {alias: key for key in _SPEC_KEYS[kind] for alias in (key, key.lower())}
    out: dict[str, float] = {}
    body = body.strip()
    for item in body.split(",") if body else ():
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValueError(f"bad {name} option {item!r}: expected key=value")
        if key not in keys:
            raise ValueError(f"unknown {kind} key {key!r} (expected {', '.join(_SPEC_KEYS[kind]) or 'no keys'})")
        try:
            value = float(val)
        except ValueError as exc:
            raise ValueError(f"bad {name} value {item!r}") from exc
        if not math.isfinite(value):
            raise ValueError(f"bad {name} value {item!r}: must be finite")
        out[keys[key]] = value
    return kind, out


def parse_pair(
    signal_spec: str, noise_spec: str, default_L: float, default_N: float, default_lambda2: float = 1.1
) -> SignalPair:
    """Build a SignalPair from CLI-style spec strings.

    Grammar: NAME[:key=value,...] with
      signal:  quadratic:L=...,sign=+-1
      noise:   switching:N=...,c1=...,c2=...  |  constant:N=...  |  none
      either:  worstcase:tau=...,lambda2=...,N=...,L=...
    Missing L / N, and a worstcase lambda2, fall back to the run's values
    passed as defaults (default_lambda2 is the reference run's unless
    given); a quadratic L must be nonnegative.  A key the kind does not take
    raises ValueError, as do sign, c1 and c2 next to a worstcase spec.
    """
    sig_name, sig_kv = _split_spec(signal_spec, "signal", ("quadratic", "worstcase"))
    noi_name, noi_kv = _split_spec(noise_spec, "noise", ("switching", "constant", "none", "worstcase"))
    fallback = {"L": default_L, "N": default_N, "lambda2": default_lambda2}

    def values(kind: str, given: dict[str, float]) -> dict[str, float]:
        unused = [key for key in given if key not in _SPEC_KEYS[kind]]
        if unused:  # only where a worstcase spec meets the other spec's keys
            raise ValueError(f"a {kind} pair takes no {', '.join(unused)} (only {', '.join(_SPEC_KEYS[kind])})")
        return {k: given.get(k, fallback[k] if d is None else d) for k, d in _SPEC_KEYS[kind].items()}

    if "worstcase" in (sig_name, noi_name):
        return worst_case_pair(WorstCaseSpec(**values("worstcase", {**sig_kv, **noi_kv})))

    sig = values("quadratic", sig_kv)
    L, sgn = sig["L"], sig["sign"]
    if sgn not in (-1.0, 1.0):
        raise ValueError(f"quadratic sign must be +1 or -1, got {sgn}")
    if L < 0:  # the sign is `sign`'s alone
        raise ValueError(f"quadratic L must be nonnegative, got {L}")

    noi = values(noi_name, noi_kv)
    N = noi.get("N", 0.0)  # "none" takes no N
    if noi_name == "switching":
        noise = _switching(N, noi["c1"], noi["c2"])
        noise_desc = f"switching noise N={N}, c1={noi['c1']}, c2={noi['c2']}"
    else:
        noise = _constant_noise(N)
        noise_desc = "no noise" if noi_name == "none" else f"constant noise {N}"

    desc = f"quadratic signal sign={sgn:+.0f}, L={L}; {noise_desc}"
    return _quadratic_pair(L, sgn, noise, abs(N), desc)


def _constant_noise(value: float) -> tuple[TimeFn, GridFn]:
    """Scalar and array forms of the noise eta(t) = value."""
    return (lambda t: value), (lambda ts: np.full(ts.shape, value, dtype=float))


def _quadratic_pair(L: float, sgn: float, noise: tuple[TimeFn, GridFn], n_cert: float, description: str) -> SignalPair:
    """Signal sgn * L t^2 / 2 under `noise` = (eta, eta_grid)."""

    def f(t):
        return sgn * L * t * t / 2.0

    def fdot(t):
        return sgn * L * t

    def fddot(t: float) -> float:
        return sgn * L

    return _pair(f, fdot, fddot, noise, L, n_cert, description)


def _pair(f, fdot, fddot, noise, L_cert, N_cert, description) -> SignalPair:
    """The one constructor of the built-in pairs; `noise` is (eta, eta_grid).

    `f` and `fdot` each take a time or an array of times, so `grid`
    evaluates them on the array itself: it is their array form by
    construction, and only the noise has a second form.
    """
    return SignalPair(f, fdot, fddot, noise[0], L_cert, N_cert, description, lambda ts: (f(ts), fdot(ts), noise[1](ts)))
