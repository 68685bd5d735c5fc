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
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from decimal import Decimal, localcontext

import numpy as np

from .params import NoiseLevel, Params, is_count, require_finite, validate_condition

W1, W2, W3 = "W1", "W2", "W3"

# States per block of V's array form and of the certifier.  `evaluate_grid`
# takes its inputs in blocks of at most this size.  The certifier screens the
# lattice points and the open cells' states alike, in flat blocks of this
# size, and checks the states that the screen keeps in batches of it.  Each
# pass allocates its own arrays of a block's size.  Fewer, larger blocks make
# fewer numpy calls.
_BLOCK_STATES = 1 << 12
# Grid steps per side of a certifier cell (see verify_decrease).
_CELL = 16


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


@dataclass(frozen=True, slots=True, eq=False)
class Violations(Sequence):
    """Failing samples of `verify_decrease` as six read-only float64 columns.

    Row i is the record DecreaseViolation(ErrorState(x1[i], x2[i]), eta[i],
    fddot[i], observed[i], required[i]).  Records are built only when read:
    an int index (negative allowed) builds one, iteration builds them in
    row order, and a slice gives the rows' own `Violations`.  The columns
    are private copies, so the result cannot change after it is made.
    Equality is identity; compare `list(result)` to compare records.
    """

    x1: np.ndarray
    x2: np.ndarray
    eta: np.ndarray
    fddot: np.ndarray
    observed: np.ndarray
    required: np.ndarray

    def __post_init__(self):
        self._adopt([np.array(c, dtype=float) for c in self._columns()])

    def _adopt(self, cols):
        """Check the float64 arrays' shapes, then keep them, uncopied, as read-only columns."""
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ValueError("violation columns must be one-dimensional and of equal length")
        for f, c in zip(fields(self), cols):
            c.flags.writeable = False
            object.__setattr__(self, f.name, c)

    def _columns(self):
        return self.x1, self.x2, self.eta, self.fddot, self.observed, self.required

    def __len__(self) -> int:
        return self.x1.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Violations(*(c[i] for c in self._columns()))
        i = range(len(self))[i]  # IndexError out of range, TypeError for a non-integer
        x1, x2, *rest = (c[i].item() for c in self._columns())
        return DecreaseViolation(ErrorState(x1, x2), *rest)

    def __iter__(self):
        x1, x2, *rest = (c.tolist() for c in self._columns())
        return map(DecreaseViolation, map(ErrorState, x1, x2), *rest)


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
        if not all(map(math.isfinite, (self.x1_min, self.x1_max, self.x2_min, self.x2_max))):
            raise ValueError("grid bounds must be finite")
        # An overflowing span would fill the axes with inf and nan.
        if not (math.isfinite(self.x1_max - self.x1_min) and math.isfinite(self.x2_max - self.x2_min)):
            raise ValueError("grid span must be finite")
        if not (is_count(self.n1) and is_count(self.n2)):
            raise ValueError(f"grid counts must be integers, got {self.n1!r} and {self.n2!r}")
        if self.n1 < 1 or self.n2 < 1 or self.x1_min >= self.x1_max or self.x2_min >= self.x2_max:
            raise ValueError("grid must span a nonempty box with at least one point per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_min, self.x1_max, self.n1),
            np.linspace(self.x2_min, self.x2_max, self.n2),
        )


# The inputs of one `verify_decrease` call, once they are checked: the gains
# (Params), the noise bound N, gamma, margin and tolerance.  The certifier's
# passes take them as their first argument.
_Check = namedtuple("_Check", "p N gamma margin tolerance")


def _lam2p1L(p: Params) -> float:
    """(lambda2 + 1) L; raises ValueError when 4 alpha times it, V's largest constant, is not finite.

    An overflowing constant would make t1 = 0 at every z2, and V wrong
    without a sign of it.
    """
    lam2p1L = (p.lambda2 + 1.0) * p.L
    require_finite("4 alpha (lambda2 + 1) L", 4.0 * p.alpha * lam2p1L)
    return lam2p1L


def _thresholds(x: ErrorState, p: Params):
    """Mirrored z1, thresholds t1, t2 and W3 value of one state.

    The mirror maps x2 < 0 onto the half plane where the template W is
    defined: (z1, z2) = (x1, x2), or (-x1, -x2) when x2 < 0.  Then
    t1 = z2^2 / (4 alpha (lambda2+1) L), t2 = (2 alpha + 1) t1 and
    W3 = z1 - z2^2 / (2 (lambda2+1) L).
    """
    z1, z2 = (x.x1, x.x2) if x.x2 >= 0 else (-x.x1, -x.x2)
    lam2p1L = _lam2p1L(p)
    t1 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    return z1, t1, (2.0 * p.alpha + 1.0) * t1, z1 - z2 * z2 / (2.0 * lam2p1L)


def region(x: ErrorState, p: Params) -> Region:
    """Classify the state into W1 / W2 / W3 after the x2-sign mirror.

    Boundaries follow the closed/half-open pattern of the definition:
    W1 for z1 <= t1, W2 for t1 < z1 <= t2, W3 beyond.
    """
    z1, t1, t2, _ = _thresholds(x, p)
    return Region(W1 if z1 <= t1 else W2 if z1 <= t2 else W3, x.x2 < 0)


def evaluate(x: ErrorState, p: Params) -> float:
    """Value of the piecewise Lyapunov function; nonnegative, zero only at 0."""
    z1, t1, t2, w3 = _thresholds(x, p)
    return 2.0 * t1 - z1 if z1 <= t1 else t1 if z1 <= t2 else w3


def evaluate_grid(x1, x2, p: Params) -> np.ndarray:
    """Vectorized `evaluate` over the broadcast of two arrays of coordinates.

    Returns a new float64 array of the broadcast shape (0-d for two
    scalars), equal to `evaluate` at each state bit for bit.  Inputs that
    do not cast safely to float64 (complex, long double) raise TypeError.
    The states are taken in blocks of at most `_BLOCK_STATES`, without
    materialising the broadcast: each block's column terms and V
    (`_column_terms`, `_value`) are computed as arrays of the block's size
    and copied into the result.  So the call allocates the result and,
    beyond it, a fixed amount, whatever the size of the inputs.
    """
    with np.nditer(
        (x1, x2, None),
        ("external_loop", "buffered", "zerosize_ok"),
        (["readonly", "contig"], ["readonly", "contig"], ["writeonly", "allocate"]),
        op_dtypes=float,
        buffersize=_BLOCK_STATES,
    ) as it:
        for a, b, v in it:
            v[...] = _value(a, _column_terms(b, p))[3]
        return it.operands[2]


def decay_rate_gamma(p: Params) -> GammaReport:
    """Assemble the five per-case decrease rates and their minimum.

    Raises ValueError exactly when :func:`stwdiff.params.validate_condition`
    fails, since no positive decrease rate exists then.  The margins
    epsilon1 = ((alpha+1)lambda2+alpha-1)/(alpha(lambda2+1)) - lambda1/sqrt(2 alpha(lambda2+1))
    and epsilon2 = lambda1 - 2 sqrt(2(lambda2+1)) cancel near the ends of the
    lambda1 interval, so the whole report is evaluated from the gains' exact
    binary values in 50-digit decimal arithmetic and rounded once per field.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lam1, lam2, L, alpha = map(Decimal, (p.lambda1, p.lambda2, p.L, p.alpha))
        lam2p1 = lam2 + 1
        eps1 = ((alpha + 1) * lam2 + alpha - 1) / (alpha * lam2p1) - lam1 / (2 * alpha * lam2p1).sqrt()
        eps2 = lam1 - 2 * (2 * lam2p1).sqrt()
        r1 = lam1 * (L / 2).sqrt()
        r2 = (alpha - 1) / alpha * (alpha * lam2p1 * L).sqrt()
        r3 = eps1 * (2 * alpha * lam2p1 * L).sqrt()
        r4 = (lam2 - 1) * L.sqrt() / (alpha * lam2p1).sqrt()
        r5 = eps2 * L.sqrt()
    if not validate_condition(p):
        raise ValueError(
            "gain condition violated: decrease-rate margins are "
            f"epsilon1={float(eps1):.6g}, epsilon2={float(eps2):.6g} (both must be positive)"
        )
    # The fields in order, each rounded once; gamma is the least rate.
    return GammaReport(*map(float, (r1, r2, eps1, r3, r4, eps2, r5, min(r1, r2, r3, r4, r5))))


def _wdot_branches(z1, z2, eta, fddots, p: Params):
    """Directional derivatives of the three branches of W along the error dynamics.

    Operates in the mirrored frame (z2 >= 0); `eta` and each of `fddots`
    must already be mirrored disturbances.  Yields one (W1, W2, W3) triple
    per fddot; the terms that do not depend on fddot are computed once.
    Where z1 == eta the sign is set-valued, and each branch takes its worst
    selection (-1 for W1 and W2, +1 for W3): its supremum as eta tends to
    z1.  The arguments may be scalars or arrays, with z2 broadcasting to
    the shape of z1 - eta; each triple is new, and its caller's to update.
    """
    k1, k2 = p.injection_gains
    lam2p1L = _lam2p1L(p)
    arg = np.subtract(z1, eta)
    kink = arg == 0.0  # 1 at the kink, 0 elsewhere
    sign = np.sign(arg)
    # dz1 = -k1 sign sqrt|z1 - eta| + z2; at the kink root = 0, so only the
    # push -k2 s depends on the selection s: sign - kink for W1 and W2, and
    # sign + kink for W3.
    dz1 = sign * -k1
    dz1 *= np.sqrt(np.abs(arg))
    dz1 += z2
    push3, push = sign + kink, sign - kink
    push3 *= -k2
    push *= -k2
    for fddot in fddots:
        q3, q = push3 - fddot, push - fddot
        q3 *= z2
        q *= z2
        r1 = q / (p.alpha * lam2p1L)
        r1 -= dz1
        q /= 2.0 * p.alpha * lam2p1L
        yield r1, q, dz1 - q3 / lam2p1L


def _column_terms(x2, p):
    """The terms of V's thresholds that depend on x2 only.

    Returns the mirror sign, t1, 2 t1, t2, the W3 offset
    -z2^2 / (2 (lambda2+1) L), eps_cell = 1e-9 max(1, |t2|) and z2, as
    arrays of x2's shape; t1, t2 and the offset plus z1 are `_thresholds`'
    bit for bit.  The mirror multiplies by the sign, which is 1 at
    x2 = -0.0, so z2 keeps -0.0's bits as np.where(x2 < 0, -x2, x2) does
    (abs would not).
    """
    lam2p1L = _lam2p1L(p)
    msign = np.where(x2 >= 0.0, 1.0, -1.0)
    z2 = x2 * msign
    t1 = z2 * z2 / (4.0 * p.alpha * lam2p1L)
    t2 = t1 * (2.0 * p.alpha + 1.0)
    # z2^2 / -c is -(z2^2 / c) exactly, and -0.0 at z2 = 0 as -0.0 - 0.0 is.
    neg_h = z2 * z2 / (-2.0 * lam2p1L)
    # t2 >= 0, so max(1, |t2|) is max(t2, 1).
    return msign, t1, t1 * 2.0, t2, neg_h, np.maximum(t2, 1.0) * 1e-9, z2


def _value(x1, cols):
    """V at the states x1 over the column terms `cols` (see `_column_terms`).

    Returns z1 = x1 times the mirror sign, the tests z1 <= t1 and z1 <= t2,
    and V, which is `evaluate`'s bit for bit.
    """
    msign, t1, two_t1, t2, neg_h = cols[:5]
    z1 = x1 * msign
    le1, le2 = z1 <= t1, z1 <= t2
    # V over its W3 value z1 - z2^2 / (2 (lambda2+1) L), which is z1 + neg_h.
    v = z1 + neg_h
    np.copyto(v, t1, where=le2)
    np.subtract(two_t1, z1, out=v, where=le1)
    return z1, le1, le2, v


def _state_terms(chk, x1, x2):
    """The terms of the states (x1, x2) that every certifier pass reads.

    x1 and x2 are a flat block of states.  Returns z1, z2, the tests
    z1 <= t1, z1 <= t2, active (V > N + margin), |z1 - t1| <= eps_cell and
    |z1 - t2| <= eps_cell, the required rate -gamma sqrt(V - N) (V - N
    where inactive) and required + tolerance.  The other column terms (see
    `_column_terms`) are dropped on return.  Raises ValueError when V or
    the required rate is not finite.
    """
    cols = _column_terms(x2, chk.p)
    z1, le1, le2, v = _value(x1, cols)
    near1, near2 = (np.abs(z1 - t) <= cols[5] for t in (cols[1], cols[3]))
    active = v > chk.N + chk.margin
    # The required rate -gamma sqrt(V - N) of the active states.
    required = v - chk.N
    np.sqrt(required, out=required, where=active)
    np.multiply(required, -chk.gamma, out=required, where=active)
    if not np.isfinite(required).all():
        raise ValueError("V and the required rate -gamma sqrt(V - N) must be finite on the grid")
    return z1, cols[6], le1, le2, active, near1, near2, required, required + chk.tolerance


def _screen(chk, x1, x2):
    """Which of the states (x1, x2) need the per-sample pass.

    x1 and x2 are as for `_state_terms`.  Kept are the active states (V > N
    + margin) that fail at the peak of their branch (see verify_decrease),
    lie in the noise band, or lie within eps_cell of a threshold (checked on
    both adjacent branches).  Returns the state terms (see `_state_terms`),
    the peak rate and the mask of the kept states.
    """
    p, N = chk.p, chk.N
    terms = z1, z2, le1, le2, active, near1, near2, _, limit = _state_terms(chk, x1, x2)
    # W1 peaks at (eta, fddot) = (-N, -L), W2 at fddot = -L and W3 at (N, L).
    ((r1, r2, worst),) = _wdot_branches(z1, z2, np.where(le1, -N, N), (np.where(le2, -p.L, p.L),), p)
    np.copyto(worst, r2, where=le2)
    np.copyto(worst, r1, where=le1)
    return terms, worst, ((worst > limit) | near1 | near2 | (np.abs(x1) <= N)) & active


def _fold(a, f):
    """The ufunc f over the four corners of each cell of lattice-shaped `a`."""
    a = f(a[:, :-1], a[:, 1:])
    return f(a[:-1], a[1:])


def _pieces(x1, x2):
    """The states x1 x x2 in grid order, as new (2, k) arrays of (x1, x2)
    rows with k at most _BLOCK_STATES: whole rows of x2, or a row in chunks."""
    h = max(1, _BLOCK_STATES // x2.size)
    for r in range(0, x1.size, h):
        for c in range(0, x2.size, _BLOCK_STATES):
            x1r, x2r = x1[r : r + h], x2[c : c + _BLOCK_STATES]
            piece = np.empty((2, x1r.size, x2r.size))
            piece[0], piece[1] = x1r[:, None], x2r
            yield piece.reshape(2, -1)


def _rebatch(pieces):
    """The columns of the (x1, x2) `pieces` in order, regrouped into blocks of
    _BLOCK_STATES columns, each a view of a join that it made; the last may
    be partial.  The remainder is split off before a block is yielded, so
    only that join, at most two blocks, stays alive while the block is used."""
    held = np.empty((2, 0))
    for piece in pieces:
        held = np.concatenate((held, piece), axis=1)
        while held.shape[1] >= _BLOCK_STATES:
            block, held = held[:, :_BLOCK_STATES], held[:, _BLOCK_STATES:]
            yield block
    if held.shape[1]:
        yield held


def _screened_cells(chk, x1l, x2l):
    """Screen the lattice x1l x x2l in flat blocks, like any states, and fold its corners.

    Returns each cell's lowest and highest corner region code (2 for W1, 1
    for W2, 0 for W3; -1 where inactive or within eps_cell of a threshold)
    and smallest corner required rate plus tolerance.
    """
    parts = []
    for block in _rebatch(_pieces(x1l, x2l)):
        (_, _, le1, le2, active, near1, near2, _, limit), _, _ = _screen(chk, *block)
        parts.append((np.where(active & ~near1 & ~near2, le1 + le2.astype(np.int8), -1), limit))
    code, limit = (np.concatenate(a).reshape(x1l.size, x2l.size) for a in zip(*parts))
    return _fold(code, np.minimum), _fold(code, np.maximum), _fold(limit, np.minimum)


def _cell_peaks(chk, x1l, x2l):
    """W1's, W2's and W3's largest corner rates at their peaks, per cell of the lattice x1l x x2l.

    The peaks are (eta, fddot) = (-N, -L) for W1 and W2 and (N, L) for W3;
    the rates are written piece by piece into one lattice-shaped array.
    """
    p, N = chk.p, chk.N
    peaks, at = np.empty((3, x1l.size, x2l.size)), 0
    lattice = peaks.reshape(3, -1)
    for piece in _pieces(x1l, x2l):
        piece *= np.where(piece[1] >= 0.0, 1.0, -1.0)  # (z1, z2): the mirror
        points = slice(at, at + piece.shape[1])
        lattice[:2, points] = next(_wdot_branches(*piece, -N, (-p.L,), p))[:2]
        lattice[2, points] = next(_wdot_branches(*piece, N, (p.L,), p))[2]
        at = points.stop
    return [_fold(a, np.maximum) for a in peaks]


def _prove_cells(chk, x1s, x2s, er, ec):
    """Which cells of the vertex lattice hold no state with a failing sample.

    Cell (i, j) spans lattice rows i, i + 1 and columns j, j + 1 (indices
    er and ec: the cell edges, with the last replaced by the last point).
    The branches' peaks are evaluated once the screen's arrays are gone
    (see verify_decrease for the rule).
    """
    p, N = chk.p, chk.N
    rows, columns = np.minimum(er, er[-1] - 1), np.minimum(ec, ec[-1] - 1)
    x1l, x2l = x1s[rows], x2s[columns]
    low, high, lmin = _screened_cells(chk, x1l, x2l)
    band = (x1l[:-1] <= N) & (x1l[1:] >= -N)  # the rows of cells whose x1 span meets [-N, N]
    z2 = x2l * np.where(x2l >= 0.0, 1.0, -1.0)
    # The largest corner peak, and in the band kink value (eta = z1, taken at
    # the columns' z2), of each branch between the corners' codes; inf where
    # no corner is valid.
    wmax = np.where(high < 0, np.inf, -np.inf)
    for b, (w, fddot) in enumerate(zip(_cell_peaks(chk, x1l, x2l), (-p.L, -p.L, p.L))):
        kink = next(_wdot_branches(N, z2, N, (fddot,), p))[b]
        np.maximum(w, np.maximum(kink[:-1], kink[1:]), out=w, where=band[:, None])
        np.maximum(wmax, w, out=wmax, where=(low <= 2 - b) & (2 - b <= high))
    half = x2l >= 0.0  # the mirror half of each lattice column
    slack = 1e-12 * (1.0 + np.abs(wmax) + np.abs(lmin) + np.maximum(z2[:-1], z2[1:]))
    return (low >= 0) & (half[:-1] == half[1:]) & (wmax + slack <= lmin)


def _open_states(x1s, x2s, er, ec, proved):
    """The states of the open cells in grid order (see `_pieces`): each band
    of lattice rows over its open cells' columns."""
    for b, band in enumerate(proved):
        if not band.all():
            # The open cells' columns; a band with no proved cell has the grid's.
            yield from _pieces(x1s[er[b] : er[b + 1]], x2s[np.repeat(~band, np.diff(ec))] if band.any() else x2s)


def _verify_states(chk, x1, x2):
    """Check states sample by sample; returns their failing samples in order.

    x1 and x2 are a flat batch of states that the screen kept; their
    branch peaks are not evaluated again.  Each eta slot and fddot is evaluated
    over the whole batch (eta = z1 too, where only the states strictly
    inside the band count), and every branch derivative is folded into the
    observed rate, in branch order, where that branch applies.  The failing
    samples are then gathered and ordered by (state, eta slot, fddot) into
    the six columns of `Violations`.
    """
    p, N = chk.p, chk.N
    fddots = (-p.L, p.L)
    z1, z2, le1, le2, _, near1, near2, required, limit = _state_terms(chk, x1, x2)
    # The branches that apply: W1, W2 and W3, and both within eps_cell of a
    # threshold.  z1 <= t1 implies z1 <= t2, so W3 applies where not le2.
    checks = (le1 | near1, (le2 > le1) | near1 | near2, le2 <= near2)
    band = np.abs(z1) < N
    # The corners (one if N = 0), and the kink eta = z1 inside the band.
    etas = [-N, N] if N else [N]
    if band.any():
        etas.append(z1)
    hits = []  # (state, fddot, eta, observed) of failing samples, by slot and fddot
    for e in etas:
        for fddot, rates in zip(fddots, _wdot_branches(z1, z2, e, fddots, p)):
            observed = np.full(z1.shape, -np.inf)
            for wd, check in zip(rates, checks):
                np.maximum(observed, wd, out=observed, where=check)
            hit = observed > limit
            if e is z1:
                hit &= band
            j = np.flatnonzero(hit)
            hits.append((j, np.full(j.size, fddot), np.broadcast_to(e, z1.shape)[j], observed[j]))
    j, g, e, observed = (np.concatenate(col) for col in zip(*hits))
    # By state; the stable sort keeps a state's samples by slot, then fddot.
    order = np.argsort(j, kind="stable")
    j, g, e = j[order], g[order], e[order]
    # Report in the original (unmirrored) coordinates.
    x1r, x2r = x1[j], x2[j]
    sign = np.where(x2r < 0, -1.0, 1.0)
    return x1r, x2r, e * sign, g * sign, observed[order], required[j]


def _failing_samples(chk, grid):
    """The grid's failing samples as columns, one batch of kept states at a time."""
    (x1s, x2s), n1, n2 = grid.axes(), grid.n1, grid.n2
    # The cell edges on each axis: every _CELL-th index, then the count; the
    # lattice is the edges with the count replaced by the axis's last point.
    # A grid with one point on an axis has no cells, and one band.
    cells = n1 > 1 and n2 > 1
    er, ec = (np.append(np.arange(0, m - 1, _CELL) if cells else 0, m) for m in (n1, n2))
    proved = _prove_cells(chk, x1s, x2s, er, ec) if cells else np.zeros((1, 1), dtype=bool)
    # The open states in full blocks, the states each block's screen keeps,
    # and those in full batches.
    blocks = _rebatch(_open_states(x1s, x2s, er, ec, proved))
    for batch in _rebatch(block[:, _screen(chk, *block)[2]] for block in blocks):
        yield _verify_states(chk, *batch)


def verify_decrease(
    p: Params,
    n: NoiseLevel,
    grid: GridSpec,
    gamma: float | None = None,
    margin: float = 1e-9,
    tolerance: float = 1e-9,
) -> Violations:
    """Certify V-dot <= -gamma sqrt(V - N) on the grid; returns every failing sample.

    Only states with V > N + margin are tested, each at fddot in {-L, L}
    and at the corners eta in {-N, N}.  A state strictly inside the noise
    band (|x1| < N) also gets eta = x1.  At eta = x1 (on a band edge, a
    corner) the sign of x1 - eta is set-valued, and the record is its worst
    selection, the supremum of the rate as eta tends to x1; on either side
    of x1 each branch is monotone in eta.  Outside the band the sign of
    x1 - eta is fixed, and in the mirrored frame W1 peaks at (eta, fddot)
    = (-N, -L), W2 at fddot = -L for either eta, and W3 at (N, L).  Every
    step after x1 - eta is monotone under rounding, so a state's rate at the
    peak of its branch is exactly the largest of its samples.  Each state
    is screened there first; only the states that fail, those in the band
    and those within eps_cell of a region threshold (checked on both
    adjacent branches) are then evaluated sample by sample.  Each failing
    sample is reported once.

    Before that, whole cells of the grid are proved from their corners.
    The vertex lattice (every 16th row and column, and the last) is screened
    like any state.  A cell of 2 x 2 lattice points is proved when its four
    corners are active, lie in one mirror half and are each farther than
    their own eps_cell from both thresholds, and its bound, plus a slack of
    1e-12 (1 + |bound| + |required| + max z2), is at most its smallest
    corner required rate plus tolerance.  The bound covers each branch whose
    region code ([z1 <= t1] + [z1 <= t2]: 2 W1, 1 W2, 0 W3) lies between
    the corners' least and greatest: its rate at each corner at its peak
    disturbance (W1's and W2's (eta, fddot) = (-N, -L), W3's (N, L)) and,
    when the cell's x1 span meets [-N, N], its kink value at the cell's z2.
    - The code is nonincreasing in z1 and nondecreasing in z2 under
      rounding, so each state's lies between the corners'.  So does the
      branch beyond a threshold that a state within eps_cell of it is also
      checked on: each distance to a threshold minus eps_cell is monotone in
      z1 and z2 and least at a corner (where the two are close z1 - t is
      exact, and moves a whole ulp of t per move of eps_cell by about 1e-9
      of one; at t2 < 1 eps_cell is constant).
    - Off the band the sign of z1 - eta is fixed, and a branch's rate at its
      peak is the largest of its samples, monotone in z1 and affine in z2:
      greatest at a corner, whatever region the corner lies in.
    - Across the band, W1's and W2's rates at eta = -N jump once, at
      z1 = -N, and W3's at eta = N once, at z1 = N.  The kink value, the
      worst selection at eta = z1, bounds each jump's high side, does not
      depend on z1 and is affine in z2.  An in-band state's worst over eta
      is the larger of its value at the peak's eta and its kink value.
    - V's largest value over the cell is at a corner: along z1 it falls in
      W1, holds in W2 and rises in W3; along z2 it falls in W3 and rises in
      W2 and W1.  It does so as computed, where W3's value just past t2 may
      step from t1 by a rounding either way.  The required rate at the
      largest corner V bounds every active state.
    - Every step after z1 - eta is monotone under rounding: each computed
      rate is monotone in z1 on either side of its jump, up to the computed
      kink value, the per-sample pass's bit for bit.  In z2 it is not: W1's
      rate adds z2 (push - fddot) / (alpha (lambda2+1) L) and subtracts z2,
      which pull opposite ways where push - fddot > 0.  Each such term is at
      most z2 in size, so the slack dominates their rounding.
    The band test is on the span: a cell of 16 steps at 1500 points over
    [-3, 3] is 0.064 wide, against a band of 0.02 at N = 0.01.  A non-finite
    V or required rate at a corner raises from the lattice's screen, and a
    non-finite bound leaves its cell open; in a proved cell V is at most its
    largest corner value, so an overflow anywhere still raises.  No state
    of a proved cell has a failing sample, so the cells only skip work: the
    open cells' states are taken in grid order, in flat blocks carried from
    one band of lattice rows to the next, and screened and reported as
    above.  A grid with one point on an axis has no cells.

    When `gamma` is omitted it is taken from :func:`decay_rate_gamma`,
    which requires the gain condition to hold; passing `gamma` explicitly
    skips that requirement (mutation probes).  Raises ValueError when
    `gamma`, `margin` or `tolerance` is not finite or is negative, and when
    V or the required rate is not finite at a tested state.  The open
    states and the lattice points are screened in flat blocks of 2**12,
    and the states the screen keeps are checked in batches of 2**12 carried
    across blocks (the last of each may be partial); each pass allocates
    its own arrays of a block's size.  Apart from the grid's axes, memory
    grows with the grid only through the lattice's region codes and
    required rates (9 bytes a lattice point), then its three branches' peak
    rates (24 bytes), and their folds.  The result is ordered by grid index, then eta slot
    (corners first), then fddot (-L before L).  It is a `Violations`: the
    samples' six float64 columns, whose `DecreaseViolation` records are
    built only when read.
    """
    if gamma is None:
        gamma = decay_rate_gamma(p).gamma
    for name, value in (("gamma", gamma), ("margin", margin), ("tolerance", tolerance)):
        if require_finite(name, value) < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    # An overflow shows as a non-finite V or required rate, which raises.
    with np.errstate(over="ignore"):
        # The first chunk is the columns of a grid without a failing sample.
        chunks = [(np.empty(0),) * 6, *_failing_samples(_Check(p, n.N, gamma, margin, tolerance), grid)]
    result = object.__new__(Violations)  # the join is its own: adopted, not copied
    result._adopt([np.concatenate(c) for c in zip(*chunks)])
    return result

