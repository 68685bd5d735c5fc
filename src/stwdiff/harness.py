"""Closed-loop simulation of the differentiator and of its error system.

Both integrators run on a uniform grid t_k = k dt.  Inputs are sampled
zero-order-hold: the explicit scheme reads them at the step start, the
implicit scheme at the step's target time (backward Euler), so trajectories
are bit-reproducible for a given configuration.

Records carry the Lyapunov value along the error trajectory, which makes
invariant-set and decrease checks a post-processing step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import differentiator as stw
from .lyapunov import ErrorState, GridSpec, evaluate_grid
from .params import NoiseLevel, Params, error_lower_bound, error_upper_bound
from .signals import SignalPair, TimeFn

TRAJECTORY_COLUMNS = ("t", "u", "f", "fdot", "y1", "y2", "error", "V")


@dataclass(frozen=True)
class SimConfig:
    """Scheme, horizon, gain set, and the noise level used for bound overlays."""

    scheme: stw.StepScheme
    horizon: float
    params: Params
    noise_level: NoiseLevel

    def __post_init__(self):
        dt = self.scheme.dt
        n = self.horizon / dt
        if not (math.isfinite(n) and round(n) >= 1 and math.isclose(round(n) * dt, self.horizon, rel_tol=1e-9)):
            raise ValueError(f"horizon must be a whole number of steps of {dt}, at least one, got {self.horizon}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.scheme.dt)


@dataclass
class TrajectoryRecord:
    """Uniformly sampled run: per-sample input, reference, state, error, and V."""

    t: np.ndarray
    u: np.ndarray
    f: np.ndarray
    fdot: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    error: np.ndarray
    V: np.ndarray
    dt: float


@dataclass
class ErrorSummary:
    """Empirical error metrics next to the closed-form bounds."""

    tau: float
    band: float
    sup_error_after: float
    first_entry_time: Optional[float]
    bound_upper: float
    bound_lower: float


@dataclass
class InvarianceReport:
    """Outcome of the invariant-set check; truthiness is the pass flag."""

    ok: bool
    entered: bool
    entry_time: Optional[float]
    slack: float
    max_excess: float

    def __bool__(self) -> bool:
        return self.ok


def _finalize(ts, us, fs, fds, y1s, y2s, p: Params, dt: float) -> TrajectoryRecord:
    error = y2s - fds
    V = evaluate_grid(y1s - fs, error, p)
    return TrajectoryRecord(t=ts, u=us, f=fs, fdot=fds, y1=y1s, y2=y2s, error=error, V=V, dt=dt)


# Step k reads sample k + 1 (implicit) or sample k (explicit).
_STEP_INPUTS = {stw.IMPLICIT: slice(1, None), stw.EXPLICIT: slice(None, -1)}
# Steps between restarts of the error system's discrete reference.
_ERROR_BLOCK_STEPS = 1024


def _integrate(cfg: SimConfig, us: np.ndarray, y1: float, y2: float) -> tuple[np.ndarray, np.ndarray]:
    """Differentiator states (y1s, y2s) on the inputs `us`, starting from (y1, y2)."""
    dt = cfg.scheme.dt
    k1, k2 = stw.injection_gains(cfg.params)
    update = stw.implicit_update if cfg.scheme.kind == stw.IMPLICIT else stw.explicit_update
    y1s, y2s = np.empty(len(us)), np.empty(len(us))
    y1s[0], y2s[0] = y1, y2
    for k, u in enumerate(us[_STEP_INPUTS[cfg.scheme.kind]].tolist(), 1):
        y1, y2 = update(y1, y2, u, dt, k1, k2)
        y1s[k], y2s[k] = y1, y2
    return y1s, y2s


def simulate(cfg: SimConfig, pair: SignalPair) -> TrajectoryRecord:
    """Run the differentiator on u = f + eta from the standard initialization.

    The inputs come from `pair.sample` over the whole time grid when the pair
    has it, and from its scalar evaluators one sample at a time otherwise.
    """
    dt = cfg.scheme.dt
    n = cfg.steps
    ts = np.arange(n + 1) * dt

    if pair.sample is not None:
        fs, fds, etas = pair.sample(ts)
        us = fs + etas
    else:
        f, eta, fdot = pair.f, pair.eta, pair.fdot
        fs = np.fromiter((f(t) for t in ts), dtype=float, count=n + 1)
        us = np.fromiter((fs[k] + eta(ts[k]) for k in range(n + 1)), dtype=float, count=n + 1)
        fds = np.fromiter((fdot(t) for t in ts), dtype=float, count=n + 1)

    y1s, y2s = _integrate(cfg, us, float(us[0]), 0.0)
    return _finalize(ts, us, fs, fds, y1s, y2s, cfg.params, dt)


def simulate_error_system(
    cfg: SimConfig,
    eta: TimeFn,
    fddot: TimeFn,
    x0: Optional[ErrorState] = None,
) -> TrajectoryRecord:
    """Integrate the error dynamics x = (y1 - f, y2 - fdot) under disturbance evaluators.

    The differentiator runs on u = f + eta, where (f, fdot) is a discrete
    reference whose second difference is fddot, sampled as the scheme samples
    u.  Both schemes are unchanged by adding c + d t to u and y1 and d to y2,
    so the reference restarts from (0, 0) at the current x every
    `_ERROR_BLOCK_STEPS` steps and x carries only one block's rounding.
    Default initial state is (eta(0), 0); pass `x0` for Lyapunov studies.
    The record reuses the trajectory layout with f = fdot = 0, u = eta, and
    (y1, y2) holding the error coordinates.
    """
    dt = cfg.scheme.dt
    n = cfg.steps
    ts = np.arange(n + 1) * dt

    ets = np.fromiter((eta(t) for t in ts), dtype=float, count=n + 1)
    gts = np.fromiter((fddot(t) for t in ts), dtype=float, count=n + 1)
    read = _STEP_INPUTS[cfg.scheme.kind]
    x1s, x2s = np.empty(n + 1), np.empty(n + 1)
    x1s[0], x2s[0] = (ets[0], 0.0) if x0 is None else (x0.x1, x0.x2)
    for lo in range(0, n, _ERROR_BLOCK_STEPS):
        hi = min(lo + _ERROR_BLOCK_STEPS, n) + 1
        fds = np.concatenate(([0.0], np.cumsum(dt * gts[lo:hi][read])))
        fs = np.concatenate(([0.0], np.cumsum(dt * fds[read])))
        y1s, y2s = _integrate(cfg, fs + ets[lo:hi], float(x1s[lo]), float(x2s[lo]))
        x1s[lo:hi] = y1s - fs
        x2s[lo:hi] = y2s - fds
    zeros = np.zeros(n + 1)
    return _finalize(ts, ets, zeros, zeros, x1s, x2s, cfg.params, dt)


def error_summary(
    rec: TrajectoryRecord,
    p: Params,
    n: NoiseLevel,
    tau: float,
    band: Optional[float] = None,
) -> ErrorSummary:
    """Sup of |error| on [tau, T] and the settling time into the error band.

    The settling time is the earliest grid time after which |error| never
    leaves the band again (robust to transient crossings); None if the run
    ends outside the band.  `band` defaults to the closed-form upper bound.
    """
    if not 0.0 <= tau <= rec.t[-1]:
        raise ValueError(f"tau={tau} outside the record horizon {rec.t[-1]}")
    upper = error_upper_bound(p, n)
    lower = error_lower_bound(p.lambda2, n, p.L)
    if band is None:
        band = upper
    tail = rec.t >= tau
    sup_after = float(np.max(np.abs(rec.error[tail])))
    outside = np.abs(rec.error) > band
    if outside[-1]:
        entry = None
    else:
        beyond = np.nonzero(outside)[0]
        entry = float(rec.t[beyond[-1] + 1]) if beyond.size else float(rec.t[0])
    return ErrorSummary(
        tau=tau,
        band=band,
        sup_error_after=sup_after,
        first_entry_time=entry,
        bound_upper=upper,
        bound_lower=lower,
    )


def omega_invariance_check(rec: TrajectoryRecord, p: Params, n: NoiseLevel) -> InvarianceReport:
    """Check that once V <= N the trajectory stays there up to discretization slack.

    The slack 2 dt (lambda2 + 1) L max|x2| accounts for one-step overshoot
    of the discrete flow; exact forward invariance holds only in continuous
    time.  A run that never enters the set passes vacuously with
    entered = False.
    """
    slack = 2.0 * rec.dt * (p.lambda2 + 1.0) * p.L * float(np.max(np.abs(rec.error)))
    inside = rec.V <= n.N
    if not np.any(inside):
        return InvarianceReport(ok=True, entered=False, entry_time=None, slack=slack, max_excess=0.0)
    i0 = int(np.argmax(inside))
    excess = float(np.max(rec.V[i0:] - n.N))
    return InvarianceReport(
        ok=excess <= slack,
        entered=True,
        entry_time=float(rec.t[i0]),
        slack=slack,
        max_excess=max(0.0, excess),
    )


def contour_grid(
    p: Params,
    box: tuple[float, float, float, float],
    resolution: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lyapunov values on a uniform grid over the box; returns (x1s, x2s, V).

    V has shape (len(x1s), len(x2s)).
    """
    n1, n2 = resolution
    if n1 < 2 or n2 < 2:
        raise ValueError(f"resolution must be at least 2x2, got {n1}x{n2}")
    x1s, x2s = GridSpec(*box, n1, n2).axes()
    g1, g2 = np.meshgrid(x1s, x2s, indexing="ij")
    return x1s, x2s, evaluate_grid(g1, g2, p)


# Rows formatted per write: bounds the text held in memory at once.
_CSV_CHUNK_ROWS = 4096


def _write_rows(fileobj, header: str, cols) -> None:
    """Write the header line, then one row per index of the equal-length columns.

    Every value is printed with 17 significant digits, so parsing the text
    back gives the same float64 bits.
    """
    fileobj.write(header + "\n")
    row = ",".join(["{:.17g}"] * len(cols)) + "\n"
    cols = [np.asarray(c, dtype=float) for c in cols]
    for lo in range(0, len(cols[0]), _CSV_CHUNK_ROWS):
        chunk = [c[lo : lo + _CSV_CHUNK_ROWS].tolist() for c in cols]
        fileobj.write("".join(map(row.format, *chunk)))


def write_trajectory_csv(fileobj, rec: TrajectoryRecord) -> None:
    """Emit the record with 17 significant digits (bit-exact round trip)."""
    _write_rows(fileobj, ",".join(TRAJECTORY_COLUMNS), [getattr(rec, name) for name in TRAJECTORY_COLUMNS])


def read_trajectory_csv(fileobj) -> TrajectoryRecord:
    """Parse a trajectory CSV back into a record; inverse of the writer."""
    header = fileobj.readline().strip()
    if tuple(header.split(",")) != TRAJECTORY_COLUMNS:
        raise ValueError(f"unexpected trajectory header {header!r}")
    body = (line for line in fileobj if line.strip())  # skip blank lines
    with warnings.catch_warnings():
        # loadtxt warns on an empty body and returns shape (0, 1), which the
        # column check below rejects.
        warnings.simplefilter("ignore", UserWarning)
        try:
            arr = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed trajectory CSV: {exc}") from exc
    if arr.shape[1] != len(TRAJECTORY_COLUMNS):
        raise ValueError("malformed trajectory CSV")
    cols = {name: arr[:, i] for i, name in enumerate(TRAJECTORY_COLUMNS)}
    dt = float(cols["t"][1] - cols["t"][0]) if cols["t"].size > 1 else 0.0
    return TrajectoryRecord(dt=dt, **cols)


def write_contour_csv(fileobj, x1s: np.ndarray, x2s: np.ndarray, V: np.ndarray) -> None:
    """Emit the contour grid as x1,x2,V rows in x1-major order."""
    _write_rows(fileobj, "x1,x2,V", [np.repeat(x1s, len(x2s)), np.tile(x2s, len(x1s)), V.ravel()])
