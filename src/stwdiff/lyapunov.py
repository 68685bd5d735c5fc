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

from .params import NoiseLevel, Params, error_upper_bound, is_count, require_finite, validate_condition

W1, W2, W3 = "W1", "W2", "W3"

# States per block of V's array form and of the certifier.  `evaluate_grid`
# takes its inputs in blocks of at most this size, in a workspace of seven
# float64 and two boolean rows (0.24 MB).  The certifier screens the open
# cells' states in flat blocks of this size, and checks the states that the
# screen keeps in batches of it, both in one per-call workspace of 15 float64
# and 6 boolean rows of this size (0.5 MB); the lattice is screened a block of
# lattice points at a time, two rows at least.  Fewer, larger blocks make
# fewer numpy calls; the clean 1500x1500 pass peaks at 0.80 MB traced at this
# size.
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
    (`_column_terms`, `_value`) are computed in one workspace of 0.24 MB
    and written straight into the result.  So the call allocates the
    result and, beyond it, a fixed amount, whatever the size of the inputs.
    """
    ws, le = np.empty((7, _BLOCK_STATES)), np.empty((2, _BLOCK_STATES), dtype=bool)
    with np.nditer(
        (x1, x2, None),
        ("external_loop", "buffered", "zerosize_ok"),
        (["readonly", "contig"], ["readonly", "contig"], ["writeonly", "allocate"]),
        op_dtypes=float,
        buffersize=_BLOCK_STATES,
    ) as it:
        for a, b, v in it:
            # z1 goes into the row of eps_cell, which V does not read.
            cols = _column_terms(b, p, ws[:, : v.size])
            _value(a, cols, cols[5], *le[:, : v.size], v)
        return it.operands[2]


def sup_x2_on_omega(p: Params, n: NoiseLevel) -> float:
    """Largest |x2| over the invariant set {V <= N}: the error bound is this sup."""
    return error_upper_bound(p, n)


def omega_contains(x: ErrorState, p: Params, n: NoiseLevel) -> bool:
    """True iff the state lies in the invariant set, boundary included."""
    return evaluate(x, p) <= n.N


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


def _wdot_branches(z1, z2, eta, fddots, p: Params, out=None):
    """Directional derivatives of the three branches of W along the error dynamics.

    Operates in the mirrored frame (z2 >= 0); `eta` and each of `fddots`
    must already be mirrored disturbances.  Yields one (W1, W2, W3) triple
    per fddot; the terms that do not depend on fddot are computed once.
    Where z1 == eta the sign is set-valued, and each branch takes its worst
    selection (-1 for W1 and W2, +1 for W3): its supremum as eta tends to
    z1.  With `out`, six arrays of the broadcast shape, nothing is
    allocated: each triple is written into its first three, and eta and one
    fddot may be out[0], out[1].
    """
    k1, k2 = p.injection_gains
    lam2p1L = _lam2p1L(p)
    w1, w2, w3, dz1, push, push3 = (None,) * 6 if out is None else out
    arg = np.subtract(z1, eta, out=w1)
    kink = np.equal(arg, 0.0, out=w3)  # 1 at the kink, 0 elsewhere
    sign = np.sign(arg, out=push)
    root = np.sqrt(np.abs(arg, out=w1), out=w1)
    # dz1 = -k1 sign sqrt|z1 - eta| + z2; at the kink root = 0, so only the
    # push -k2 s depends on the selection s: sign - kink for W1 and W2, and
    # sign + kink for W3.
    dz1 = np.add(np.multiply(np.multiply(sign, -k1, out=dz1), root, out=dz1), z2, out=dz1)
    push3 = np.multiply(np.add(sign, kink, out=push3), -k2, out=push3)
    push = np.multiply(np.subtract(sign, kink, out=push), -k2, out=push)
    for fddot in fddots:
        q3 = np.multiply(z2, np.subtract(push3, fddot, out=w3), out=w3)
        q = np.multiply(z2, np.subtract(push, fddot, out=w2), out=w2)
        r1 = np.subtract(np.divide(q, p.alpha * lam2p1L, out=w1), dz1, out=w1)
        r3 = np.subtract(dz1, np.divide(q3, lam2p1L, out=w3), out=w3)
        yield r1, np.divide(q, 2.0 * p.alpha * lam2p1L, out=w2), r3


def _column_terms(x2, p, out):
    """The terms of V's thresholds that depend on x2 only, written into `out`.

    The seven rows of `out` get the mirror sign, t1, 2 t1, t2, the W3
    offset -z2^2 / (2 (lambda2+1) L), eps_cell = 1e-9 max(1, |t2|) and z2;
    t1, t2 and the offset plus z1 are `_thresholds`' bit for bit, and `out`
    is returned.  The mirror multiplies by the sign, which is 1 at
    x2 = -0.0, so z2 keeps -0.0's bits as np.where(x2 < 0, -x2, x2) does
    (abs would not).
    """
    msign, t1, two_t1, t2, neg_h, eps_cell, z2 = out
    lam2p1L = _lam2p1L(p)
    np.greater_equal(x2, 0.0, out=msign)
    msign *= 2.0
    msign -= 1.0
    np.multiply(x2, msign, out=z2)
    np.divide(np.multiply(z2, z2, out=neg_h), 4.0 * p.alpha * lam2p1L, out=t1)
    np.multiply(t1, 2.0, out=two_t1)
    np.multiply(t1, 2.0 * p.alpha + 1.0, out=t2)
    # z2^2 / -c is -(z2^2 / c) exactly, and -0.0 at z2 = 0 as -0.0 - 0.0 is.
    neg_h /= -2.0 * lam2p1L
    # t2 >= 0, so max(1, |t2|) is max(t2, 1).
    np.maximum(t2, 1.0, out=eps_cell)
    eps_cell *= 1e-9
    return out


def _value(x1, cols, z1, le1, le2, v):
    """V at the states x1 over the column terms `cols` (see `_column_terms`).

    Writes z1 = x1 times the mirror sign into z1, the tests z1 <= t1 and
    z1 <= t2 into le1 and le2, and V into v, which is returned.  V is
    `evaluate`'s bit for bit.
    """
    msign, t1, two_t1, t2, neg_h = cols[:5]
    np.multiply(x1, msign, out=z1)
    np.less_equal(z1, t1, out=le1)
    np.less_equal(z1, t2, out=le2)
    # V over its W3 value z1 - z2^2 / (2 (lambda2+1) L), which is z1 + neg_h.
    np.add(z1, neg_h, out=v)
    np.copyto(v, t1, where=le2)
    return np.subtract(two_t1, z1, out=v, where=le1)


def _state_terms(chk, x1, cols, floats, flags):
    """The terms of the states x1 over `cols` that every certifier pass reads.

    x1 and `cols` are as for `_screen`, `floats` (three) and `flags` (six)
    workspace views of their shape.  On return floats hold z1, required +
    tolerance and the required rate -gamma sqrt(V - N) (V - N where
    inactive), and flags the tests z1 <= t1, z1 <= t2, active (V > N +
    margin), then scratch, |z1 - t1| <= eps_cell and |z1 - t2| <= eps_cell.
    Raises ValueError when V or the required rate is not finite.
    """
    z1, limit, required = floats
    le1, le2, active, finite, near1, near2 = flags
    # V goes into the row of the required rate, which is computed from it.
    _value(x1, cols, z1, le1, le2, required)
    for t, near in ((cols[1], near1), (cols[3], near2)):
        np.less_equal(np.abs(np.subtract(z1, t, out=limit), out=limit), cols[5], out=near)
    np.greater(required, chk.N + chk.margin, out=active)
    # The required rate -gamma sqrt(V - N) of the active states.
    np.subtract(required, chk.N, out=required)
    np.sqrt(required, out=required, where=active)
    np.multiply(required, -chk.gamma, out=required, where=active)
    if not np.isfinite(required, out=finite).all():
        raise ValueError("V and the required rate -gamma sqrt(V - N) must be finite on the grid")
    np.add(required, chk.tolerance, out=limit)


def _screen(chk, x1, cols, floats, flags):
    """Flat indices of the states x1 over `cols` that need the per-sample pass.

    x1 and the column terms `cols` (see `_column_terms`) are lattice rows
    x1[:, None] over lattice columns, or a flat block of states, and
    `floats` (nine) and `flags` (six) are workspace views of that shape;
    floats[3:] may be the rows of cols but z2, which are read before they
    are written.  Kept are the active states (V > N + margin) that fail at
    the peak of their branch (see verify_decrease), lie in the noise band,
    or lie within eps_cell of a threshold (checked on both adjacent
    branches).  On return floats[:3] and flags hold the state terms (see
    `_state_terms`), floats[5] the peak rate, and flags[3] which states
    are kept.
    """
    p, N = chk.p, chk.N
    z1, limit, _, w1, w2 = floats[:5]
    le1, le2, active, keep, near1, near2 = flags
    _state_terms(chk, x1, cols, floats[:3], flags)
    # W1 peaks at (eta, fddot) = (-N, -L), W2 at fddot = -L and W3 at (N, L).
    w1.fill(N)
    np.copyto(w1, -N, where=le1)
    w2.fill(p.L)
    np.copyto(w2, -p.L, where=le2)
    ((r1, r2, worst),) = _wdot_branches(z1, cols[6], w1, (w2,), p, out=floats[3:])
    np.copyto(worst, r2, where=le2)
    np.copyto(worst, r1, where=le1)
    np.greater(worst, limit, out=keep)
    keep |= near1
    keep |= near2
    np.logical_or(keep, np.less_equal(np.abs(x1, out=w1), N, out=w1), out=keep)
    return np.flatnonzero(np.logical_and(keep, active, out=keep))


def _fold(a, f):
    """The ufunc f over the four corners of each cell of a block of lattice points."""
    a = f(a[:, :-1], a[:, 1:])
    return f(a[:-1], a[1:])


def _prove_cells(chk, x1s, x2s, er, ec, ws):
    """Which cells of the vertex lattice hold no state with a failing sample.

    Cell (i, j) spans lattice rows i, i + 1 and columns j, j + 1 (indices
    er and ec: the cell edges, with the last replaced by the last point).
    The lattice is screened in blocks of rows, each block repeating the last
    row of the one before, and the block's corners are folded into cell
    verdicts (see verify_decrease).
    """
    rows, columns = np.minimum(er, er[-1] - 1), np.minimum(ec, ec[-1] - 1)
    cols = _column_terms(x2s[columns], chk.p, np.empty((7, columns.size)))
    one_half, z2max = cols[0, :-1] == cols[0, 1:], np.maximum(cols[6, :-1], cols[6, 1:])
    x1l = x1s[rows]
    off_band = (x1l[:-1] > chk.N) | (x1l[1:] < -chk.N)
    proved = np.empty((rows.size - 1, columns.size - 1), dtype=bool)
    k = max(2, _BLOCK_STATES // columns.size)
    for s in range(0, rows.size - 1, k - 1):
        x1r = x1l[s : s + k]
        floats, flags = (w[:, : x1r.size * columns.size].reshape(len(w), x1r.size, -1) for w in ws)
        _screen(chk, x1r[:, None], cols, floats, flags)
        # The region as a code, 2 for W1, 1 for W2 and 0 for W3; -1 where the
        # corner is inactive or kept (near a threshold, in the band, failing).
        code = np.add(flags[0], flags[1], dtype=np.int8)
        code[~flags[2] | flags[3]] = -1
        low = _fold(code, np.minimum)
        same = (low >= 0) & (low == _fold(code, np.maximum)) & one_half & off_band[s : s + x1r.size - 1, None]
        # The largest peak rate and the smallest required rate plus tolerance.
        wmax, lmin = _fold(floats[5], np.maximum), _fold(floats[1], np.minimum)
        slack = 1e-12 * (1.0 + np.abs(wmax) + np.abs(lmin) + z2max)
        proved[s : s + x1r.size - 1] = same & (wmax + slack <= lmin)
    return proved


def _open_states(x1s, x2s, er, ec, proved):
    """The states of the open cells in grid order, as (x1, x2) rows of at most
    _BLOCK_STATES states: each band of lattice rows over its open cells' columns."""
    for b, band in enumerate(proved):
        if band.all():
            continue
        # The open cells' columns; a band with no proved cell has the grid's.
        x2b = x2s[np.repeat(~band, np.diff(ec))] if band.any() else x2s
        x1b, h = x1s[er[b] : er[b + 1]], max(1, _BLOCK_STATES // x2b.size)
        for r in range(0, x1b.size, h):
            for c in range(0, x2b.size, _BLOCK_STATES):
                x1r, x2r = x1b[r : r + h], x2b[c : c + _BLOCK_STATES]
                piece = np.empty((2, x1r.size, x2r.size))
                piece[0], piece[1] = x1r[:, None], x2r
                yield piece.reshape(2, -1)


def _carry(pieces, buf):
    """Copy the columns of `pieces` into `buf` in order, carried across pieces;
    yields the count of columns held each time buf is full, and once at the end."""
    fill, size = 0, buf.shape[1]
    for piece in pieces:
        while piece.shape[1]:
            k = min(size - fill, piece.shape[1])
            buf[:, fill : fill + k] = piece[:, :k]
            piece, fill = piece[:, k:], fill + k
            if fill == size:
                yield fill
                fill = 0
    if fill:
        yield fill


def _verify_states(chk, x1, x2, ws, flags):
    """Check states sample by sample; returns their failing samples in order.

    x1 and x2 are a flat batch of states that the screen kept, and `ws`
    (eleven) and `flags` (six) workspace rows of their size.  The batch's
    state terms (see `_state_terms`) go into ws[1:4] and flags, and the
    column terms but z2 (ws[4:10]) then serve as the branches' rows; the
    branch peaks are not evaluated.  Each eta slot and fddot is evaluated
    over the whole batch (eta = z1 too, where only the states strictly
    inside the band count), and every branch derivative is folded into the
    observed rate (ws[0]), in branch order, where that branch applies.  The failing samples are then gathered and ordered by
    (state, eta slot, fddot) into the six columns of `Violations`: nothing
    else is allocated per state.
    """
    p, N = chk.p, chk.N
    fddots = (-p.L, p.L)
    cols = _column_terms(x2, p, ws[4:])
    _state_terms(chk, x1, cols, ws[1:4], flags)
    observed, z1, limit, required = ws[:4]
    le1, le2, active, _, near1, near2 = flags
    # The branches that apply: W1, W2 and W3, and both within eps_cell of a
    # threshold.  z1 <= t1 implies z1 <= t2, so W3 applies where not le2.
    c3 = np.less_equal(le2, near2, out=active)
    c2 = np.greater(le2, le1, out=le2)
    c2 |= near1
    c2 |= near2
    c1 = np.logical_or(le1, near1, out=le1)
    band, hit = np.less(np.abs(z1, out=observed), N, out=near1), near2
    # The corners (one if N = 0), and the kink eta = z1 inside the band.
    etas = [-N, N] if N else [N]
    if band.any():
        etas.append(z1)
    hits = []  # (state, fddot, eta, observed) of failing samples, by slot and fddot
    for e in etas:
        for fddot, rates in zip(fddots, _wdot_branches(z1, cols[6], e, fddots, p, out=cols[:6])):
            observed.fill(-np.inf)
            for wd, check in zip(rates, (c1, c2, c3)):
                np.maximum(observed, wd, out=observed, where=check)
            np.greater(observed, limit, out=hit)
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
    # Rows: the batch's and the block's states, the observed rate, z1,
    # required + tolerance, the required rate and the column terms, of a
    # block or of two lattice rows, whichever is larger.  The screen reuses
    # the column terms but z2 once they are read, and the lattice its first
    # nine rows.
    size = max(_BLOCK_STATES, 2 * ec.size)
    ws, flags = np.empty((15, size)), np.empty((6, size), dtype=bool)
    batch, block = ws[:2, :_BLOCK_STATES], ws[2:4, :_BLOCK_STATES]
    proved = np.zeros((1, 1), dtype=bool)
    if cells:
        proved = _prove_cells(chk, x1s, x2s, er, ec, (ws[:9], flags))

    def kept():  # the states that each block's screen keeps
        for s in _carry(_open_states(x1s, x2s, er, ec, proved), block):
            cols = _column_terms(block[1, :s], chk.p, ws[8:, :s])
            yield block[:, _screen(chk, block[0, :s], cols, ws[5:14, :s], flags[:, :s])]

    for s in _carry(kept(), batch):
        yield _verify_states(chk, *batch[:, :s], ws[4:, :s], flags[:, :s])


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
    like any state, and a cell of 2 x 2 lattice points is proved when its
    four corners are active, lie in one region and one mirror half, and are
    each farther than their own eps_cell from both thresholds; its x1 span
    misses [-N, N]; and its largest corner peak rate, plus a slack of
    1e-12 (1 + |peak| + |required| + max z2), is at most its smallest
    required rate plus tolerance.  Within such a cell the thresholds and V
    are monotone in z1 and z2 under rounding, so every state is active and
    in the corners' region, and its required rate is at least the one at
    the cell's largest V.  Each distance to a threshold minus eps_cell is
    monotone in z1 and z2 too, so it is least at a corner: where the two
    are close the subtraction z1 - t is exact, and the distance moves by
    a whole ulp of t for each move of eps_cell by about 1e-9 of one (at
    t2 < 1 eps_cell is constant).  Each branch's exact peak
    rate is monotone in z1 and affine in z2, so its maximum is at a corner.
    The computed rate is not monotone in z2 everywhere: W1's rate adds
    z2 (push - fddot) / (alpha (lambda2+1) L) and subtracts z2, which pull
    opposite ways where push - fddot > 0 (z1 < -N, or lambda2 < 1).  Both
    terms are at most z2 in size, so the slack dominates their rounding at
    any state of the cell.  The band test is on the span, not the corners:
    a cell of 16 steps at 1500 points over [-3, 3] is 0.064 wide, against a
    band of 0.02 at N = 0.01.  A non-finite V or required rate at a corner
    raises from the lattice's screen, and a non-finite peak rate fails the
    slack test, so its cells stay open; inside a proved cell V lies between
    its corner values, so an overflow anywhere still raises from the
    screen.  No state of a proved cell has a failing sample, so the cells
    only skip work: the states of the open cells are taken in grid order,
    in flat blocks carried from one band of lattice rows to the next, and
    screened and reported as above.  A grid with one point on an axis has
    no cells.

    When `gamma` is omitted it is taken from :func:`decay_rate_gamma`,
    which requires the gain condition to hold; passing `gamma` explicitly
    skips that requirement (mutation probes).  Raises ValueError when
    `gamma`, `margin` or `tolerance` is not finite or is negative, and when
    V or the required rate is not finite at a tested state.  The open
    states are screened in flat blocks of 2**12, and the states the screen
    keeps are checked in batches of 2**12 carried across blocks (the last
    of each may be partial), all inside one workspace allocated per call.
    Apart from the grid's axes, memory grows with the grid only through the
    lattice, which is screened two lattice rows at least at a time.  The
    result is ordered by grid index, then eta slot
    (corners first), then fddot (-L before L).  It is a `Violations`: the
    samples' six float64 columns, whose `DecreaseViolation` records are
    built only when read.
    """
    if gamma is None:
        gamma = decay_rate_gamma(p).gamma
    for name, value in (("gamma", gamma), ("margin", margin), ("tolerance", tolerance)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    # An overflow shows as a non-finite V or required rate, which raises.
    with np.errstate(over="ignore"):
        # The workspace is released before the join, the call's peak.
        # The first chunk is the columns of a grid without a failing sample.
        chunks = [(np.empty(0),) * 6, *_failing_samples(_Check(p, n.N, gamma, margin, tolerance), grid)]
    result = object.__new__(Violations)  # the join is its own: adopted, not copied
    result._adopt([np.concatenate(c) for c in zip(*chunks)])
    return result

