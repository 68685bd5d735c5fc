"""Piecewise Lyapunov function for the super-twisting error system.

The function V is built from a half-plane template W applied to the state
(mirrored through the origin when x2 < 0) and split into three parabolic
regions W1 / W2 / W3.  Outside the invariant sublevel set {V <= N} it
decreases along every admissible error trajectory at rate at least
gamma * sqrt(V - N), where gamma is the minimum of five per-case rates.

`verify_decrease` certifies the decrease inequality numerically on a grid:
the directional derivative of V is evaluated analytically per region (a
finite-difference estimate across the discontinuous sign term would
produce spurious violations) against extreme admissible disturbances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .params import NoiseLevel, Params, error_upper_bound

W1, W2, W3 = "W1", "W2", "W3"

# States per certifier block; peak memory scales with this, not with the grid.
_BLOCK_STATES = 1 << 16


@dataclass(frozen=True, slots=True)
class ErrorState:
    """Error coordinates: x1 = y1 - f (signal units), x2 = y2 - fdot (signal/time)."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError(f"error state must be finite, got ({self.x1}, {self.x2})")


@dataclass(frozen=True)
class Region:
    """Branch of the piecewise definition; `mirrored` marks the x2 < 0 half-plane."""

    index: str
    mirrored: bool


@dataclass(frozen=True)
class GammaReport:
    """Per-case decrease rates and their minimum gamma.

    The first region contributes three rates: with the sign argument
    x1 - eta nonpositive, `r_region1_neg` covers small |x2| and
    `r_region1_pos` large |x2|; `r_region1_eta` covers x1 - eta > 0 and
    carries the gain margin epsilon1.  `r_region3` carries the margin
    epsilon2 = lambda1 - 2 sqrt(2 (lambda2 + 1)).  Both margins are
    positive exactly when the gain condition holds.
    """

    r_region1_neg: float
    r_region1_pos: float
    epsilon1: float
    r_region1_eta: float
    r_region2: float
    epsilon2: float
    r_region3: float
    gamma: float


@dataclass(frozen=True, slots=True)
class DecreaseViolation:
    """Sampled state and disturbance at which the decrease check failed."""

    state: ErrorState
    eta: float
    fddot: float
    observed_rate: float
    required_rate: float


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid over the box [x1_min, x1_max] x [x2_min, x2_max]."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        if not all(math.isfinite(b) for b in (self.x1_min, self.x1_max, self.x2_min, self.x2_max)):
            raise ValueError("grid bounds must be finite")
        if self.n1 < 1 or self.n2 < 1 or self.x1_min >= self.x1_max or self.x2_min >= self.x2_max:
            raise ValueError("grid must span a nonempty box with at least one point per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_min, self.x1_max, self.n1),
            np.linspace(self.x2_min, self.x2_max, self.n2),
        )


def _thresholds(x: ErrorState, p: Params):
    """Mirrored state (z1, z2) and region thresholds (t1, t2) of one state.

    The mirror maps x2 < 0 onto the half plane where the template W is
    defined; t1 = z2^2 / (4 alpha (lambda2+1) L) and t2 = (2 alpha + 1) t1.
    """
    z1, z2 = (x.x1, x.x2) if x.x2 >= 0 else (-x.x1, -x.x2)
    t1 = z2 * z2 / (4.0 * p.alpha * ((p.lambda2 + 1.0) * p.L))
    return z1, z2, t1, (2.0 * p.alpha + 1.0) * t1


def _thresholds_grid(x1, x2, p: Params):
    """Array form of `_thresholds`, plus the value of V: (z1, z2, t1, t2, V)."""
    flip = x2 < 0
    z1, z2 = np.where(flip, -x1, x1), np.where(flip, -x2, x2)
    lam2p1L = (p.lambda2 + 1.0) * p.L
    t1 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    t2 = (2.0 * p.alpha + 1.0) * t1
    v = np.where(z1 <= t1, 2.0 * t1 - z1, np.where(z1 <= t2, t1, z1 - z2 * z2 / (2.0 * lam2p1L)))
    return z1, z2, t1, t2, v


def region(x: ErrorState, p: Params) -> Region:
    """Classify the state into W1 / W2 / W3 after the x2-sign mirror.

    Boundaries follow the closed/half-open pattern of the definition:
    W1 for z1 <= t1, W2 for t1 < z1 <= t2, W3 beyond.
    """
    z1, _, t1, t2 = _thresholds(x, p)
    idx = W1 if z1 <= t1 else W2 if z1 <= t2 else W3
    return Region(index=idx, mirrored=x.x2 < 0)


def evaluate(x: ErrorState, p: Params) -> float:
    """Value of the piecewise Lyapunov function; nonnegative, zero only at 0."""
    z1, z2, t1, t2 = _thresholds(x, p)
    if z1 <= t1:
        return 2.0 * t1 - z1
    if z1 <= t2:
        return t1
    return z1 - z2 * z2 / (2.0 * ((p.lambda2 + 1.0) * p.L))


def evaluate_grid(x1, x2, p: Params) -> np.ndarray:
    """Vectorized `evaluate` over arrays of coordinates."""
    return _thresholds_grid(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float), p)[4]


def sup_x2_on_omega(p: Params, n: NoiseLevel) -> float:
    """Largest |x2| over the invariant set {V <= N}: the error bound is this sup."""
    return error_upper_bound(p, n)


def omega_contains(x: ErrorState, p: Params, n: NoiseLevel) -> bool:
    """True iff the state lies in the invariant set, boundary included."""
    return evaluate(x, p) <= n.N


def decay_rate_gamma(p: Params) -> GammaReport:
    """Assemble the five per-case decrease rates and their minimum.

    The margins epsilon1 and epsilon2 are differences of nearly equal
    quantities and cancel catastrophically near the admissibility boundary,
    so the whole report is evaluated in extended precision and rounded
    once per field.  Raises ValueError when either margin is nonpositive
    (equivalently, when the gain condition fails), since no positive
    decrease rate exists then.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lam1, lam2, L, alpha = (Decimal(v) for v in (p.lambda1, p.lambda2, p.L, p.alpha))
        lam2p1 = lam2 + 1
        eps1 = ((alpha + 1) * lam2 + alpha - 1) / (alpha * lam2p1) - lam1 / (2 * alpha * lam2p1).sqrt()
        eps2 = lam1 - 2 * (2 * lam2p1).sqrt()
        if eps1 <= 0 or eps2 <= 0:
            raise ValueError(
                "gain condition violated: decrease-rate margins are "
                f"epsilon1={float(eps1):.6g}, epsilon2={float(eps2):.6g} (both must be positive)"
            )
        r1 = lam1 * (L / 2).sqrt()
        r2 = (alpha - 1) / alpha * (alpha * lam2p1 * L).sqrt()
        r3 = eps1 * (2 * alpha * lam2p1 * L).sqrt()
        r4 = (lam2 - 1) * L.sqrt() / (alpha * lam2p1).sqrt()
        r5 = eps2 * L.sqrt()
        gamma = min(r1, r2, r3, r4, r5)
    return GammaReport(
        r_region1_neg=float(r1),
        r_region1_pos=float(r2),
        epsilon1=float(eps1),
        r_region1_eta=float(r3),
        r_region2=float(r4),
        epsilon2=float(eps2),
        r_region3=float(r5),
        gamma=float(gamma),
    )


def _wdot_branches(z1, z2, eta, fddots, p: Params):
    """Directional derivatives of the three branches of W along the error dynamics.

    Operates in the mirrored frame; `eta` and each of `fddots` must already
    be mirrored disturbances.  Yields one (W1, W2, W3) triple per fddot;
    the terms that do not depend on fddot are computed once.
    """
    lam2p1L = (p.lambda2 + 1.0) * p.L
    arg = z1 - eta
    sign = np.sign(arg)
    dz1 = -p.lambda1 * math.sqrt(p.L) * sign * np.sqrt(np.abs(arg)) + z2
    for fddot in fddots:
        q = z2 * (-p.lambda2 * p.L * sign - fddot)
        yield q / (p.alpha * lam2p1L) - dz1, q / (2.0 * p.alpha * lam2p1L), dz1 - q / lam2p1L


def _verify_chunk(p, n, gamma, margin, tolerance, x1v, x2v):
    """Check one block of grid states; returns its violations in block order.

    Each eta slot and fddot is evaluated over the whole active block: every
    branch derivative is computed for all states and folded into the
    observed rate, in branch order, where that branch applies.  The failing
    samples are then gathered, ordered by (state, eta slot, fddot) and
    turned into records in one pass.
    """
    N, L = n.N, p.L
    z1, z2, t1, t2, v = _thresholds_grid(x1v, x2v, p)
    idx = np.nonzero(v > N + margin)[0]
    if idx.size == 0:
        return []

    z1, z2, t1, t2, v = z1[idx], z2[idx], t1[idx], t2[idx], v[idx]
    x1v, x2v = x1v[idx], x2v[idx]
    eps_cell = 1e-9 * np.maximum(1.0, np.abs(t2))
    near_t1 = np.abs(z1 - t1) <= eps_cell
    near_t2 = np.abs(z1 - t2) <= eps_cell
    # States within eps_cell of a threshold are checked on both adjacent branches.
    le1, le2 = z1 <= t1, z1 <= t2
    checks = (le1 | near_t1, (~le1 & le2) | near_t1 | near_t2, ~(le1 | le2) | near_t2)

    required = -gamma * np.sqrt(v - N)
    limit = required + tolerance
    delta = 1e-12 * np.maximum(np.abs(z1), max(1.0, N))
    clamped = np.clip(z1, -N, N)
    eta_slots = [
        np.full_like(z1, -N),
        np.full_like(z1, N),
        np.clip(clamped - delta, -N, N),
        np.clip(clamped + delta, -N, N),
    ]
    # Never evaluate exactly on the sign discontinuity: nudge eta into the
    # admissible band so both extreme selections get exercised nearby.
    for e in eta_slots:
        hit = z1 - e == 0.0
        if np.any(hit):
            down_ok = e - delta >= -N
            e[hit & down_ok] = (e - delta)[hit & down_ok]
            e[hit & ~down_ok] = (e + delta)[hit & ~down_ok]

    hits = []  # (state, slot, fddot index, eta, observed) of failing samples
    observed = np.empty_like(z1)
    for slot, e in enumerate(eta_slots):
        for k, rates in enumerate(_wdot_branches(z1, z2, e, (-L, L), p)):
            observed.fill(-np.inf)
            for wd, check in zip(rates, checks):
                np.maximum(observed, wd, out=observed, where=check)
            j = np.flatnonzero(observed > limit)
            if j.size:
                hits.append((j, np.full(j.size, slot), np.full(j.size, k), e[j], observed[j]))
    if not hits:
        return []

    j, slot, k, e, observed = (np.concatenate(col) for col in zip(*hits))
    order = np.lexsort((k, slot, j))
    j, e, g = j[order], e[order], np.array((-L, L))[k[order]]
    # Report in the original (unmirrored) coordinates.
    mir = x2v[j] < 0
    cols = (x1v[j], x2v[j], np.where(mir, -e, e), np.where(mir, -g, g), observed[order], required[j])
    return [
        DecreaseViolation(ErrorState(a, b), eta, fddot, obs, req)
        for a, b, eta, fddot, obs, req in zip(*(c.tolist() for c in cols))
    ]


def verify_decrease(
    p: Params,
    n: NoiseLevel,
    grid: GridSpec,
    gamma: float | None = None,
    margin: float = 1e-9,
    tolerance: float = 1e-9,
) -> list[DecreaseViolation]:
    """Certify V-dot <= -gamma sqrt(V - N) on the grid; returns all violations.

    Only states with V > N + margin are tested.  Each state is checked
    against the extreme disturbance corners (eta, fddot) in {-N, N} x {-L, L}
    plus eta values straddling x1 inside the noise band, so both signs of
    the discontinuous term are exercised (6 distinct samples per state in
    the typical |x1| > N case, 8 near the band).  States within a small
    band of a region threshold are checked against both adjacent branch
    derivatives.  When `gamma` is omitted it is taken from
    :func:`decay_rate_gamma`, which requires the gain condition to hold;
    passing `gamma` explicitly skips that requirement (mutation probes).
    Raises ValueError when `gamma`, `margin` or `tolerance` is not finite.
    The grid is checked in blocks of whole rows (about 2**16 states), walked
    in increasing grid index, so peak memory does not grow with the grid.
    Each block orders and builds its own records, so the list is ordered by
    grid index, then eta sample, then fddot (-L before L), with no global sort.
    """
    if gamma is None:
        gamma = decay_rate_gamma(p).gamma
    if not all(math.isfinite(v) for v in (gamma, margin, tolerance)):
        raise ValueError(f"gamma, margin and tolerance must be finite, got {gamma}, {margin}, {tolerance}")
    x1s, x2s = grid.axes()
    rows = max(1, _BLOCK_STATES // grid.n2)
    out = []
    for r0 in range(0, grid.n1, rows):
        x1v = np.repeat(x1s[r0 : r0 + rows], grid.n2)
        out += _verify_chunk(p, n, gamma, margin, tolerance, x1v, np.tile(x2s, x1v.size // grid.n2))
    return out


def write_violations_csv(fileobj, violations: list[DecreaseViolation]) -> None:
    """Emit violations as CSV with header x1,x2,eta,fddot,observed,required."""
    fileobj.write("x1,x2,eta,fddot,observed,required\n")
    for rec in violations:
        fileobj.write(
            f"{rec.state.x1!r},{rec.state.x2!r},{rec.eta!r},{rec.fddot!r},"
            f"{rec.observed_rate!r},{rec.required_rate!r}\n"
        )
