"""The error system's two exact scalings, pinned bit for bit.

Time dilation by kappa maps a run onto one where x1, N and eta scale by
kappa^2, x2 by kappa, and t and dt by kappa; L, fddot and gamma are
unchanged.  Amplitude scaling by c maps it onto one where x1, x2, N, eta, L
and fddot scale by c and gamma by sqrt(c); time is unchanged.  A power of two
kappa and a power of four c scale every float exactly, and pass exactly
through sqrt, k1 = lambda1 sqrt(L) and the implicit step's root.  So, away
from subnormals and overflow, the simulator, V, the certifier and gamma map
bit for bit, and every (L, N) reduces to L = 1 and the noise ratio N / V.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stwdiff import (
    ErrorState,
    GridSpec,
    NoiseLevel,
    Params,
    SimConfig,
    StepScheme,
    decay_rate_gamma,
    lambda1_range,
    simulate_error_system,
    verify_decrease,
)
from stwdiff.harness import TRAJECTORY_COLUMNS

# (kappa, c): dilations, amplitude scalings and one of both.
SCALINGS = [(2.0, 1.0), (0.5, 1.0), (1.0, 4.0), (1.0, 0.25), (4.0, 16.0)]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def admissible_gains(rng):
    """Random (lambda1, lambda2, alpha) inside the gain condition."""
    alpha, lambda2 = rng.uniform(2.5, 4.0), rng.uniform(1.05, 5.0)
    rng_l1 = lambda1_range(lambda2, alpha)
    assert not rng_l1.empty
    return rng_l1.lo + rng.uniform(0.05, 0.95) * (rng_l1.hi - rng_l1.lo), lambda2, alpha


def piecewise_constant(values, width):
    """Seeded disturbance: values[k] on [k width, (k + 1) width), the last value beyond."""
    last = len(values) - 1
    return lambda t: values[min(int(t / width), last)]


@pytest.mark.parametrize("kind", ["implicit", "explicit"])
@pytest.mark.parametrize("kappa, c", SCALINGS)
def test_simulator_scales_bit_for_bit(kind, kappa, c):
    rng = np.random.default_rng(19)
    for _ in range(3):
        lambda1, lambda2, alpha = admissible_gains(rng)
        L, N, dt, horizon = rng.uniform(0.5, 2.0), 0.01, 1e-3, 1.0
        etas = rng.uniform(-N, N, 200).tolist()
        fddots = rng.uniform(-L, L, 50).tolist()
        eta, fddot = piecewise_constant(etas, 7e-3), piecewise_constant(fddots, 0.031)
        x0 = ErrorState(0.3, -0.7)
        cfg = SimConfig(StepScheme(kind, dt), horizon, Params(lambda1, lambda2, L, alpha), NoiseLevel(N))
        rec = simulate_error_system(cfg, eta, fddot, x0)

        # The image run: t -> kappa t, each signal quantity in its own units.
        scaled = SimConfig(
            StepScheme(kind, kappa * dt),
            kappa * horizon,
            Params(lambda1, lambda2, c * L, alpha),
            NoiseLevel(c * kappa**2 * N),
        )
        image = simulate_error_system(
            scaled,
            lambda t: c * kappa**2 * eta(t / kappa),
            lambda t: c * fddot(t / kappa),
            ErrorState(c * kappa**2 * x0.x1, c * kappa * x0.x2),
        )
        # The record's columns in order: t, u, f, fdot, y1, y2, error, V;
        # the error system's f and fdot are zero.
        factors = (kappa, c * kappa**2, 1.0, 1.0, c * kappa**2, c * kappa, c * kappa, c * kappa**2)
        for name, factor in zip(TRAJECTORY_COLUMNS, factors, strict=True):
            assert np.array_equal(bits(getattr(image, name)), bits(factor * getattr(rec, name))), name


def test_certifier_scales_bit_for_bit():
    # The lambda2 = 0.5 mutant, which fails on a large share of the box, at
    # margin = tolerance = 0: both are absolute, in V's and rate units.
    p, N, gamma = Params(4.1, 0.5, 1.0, 4.0), 0.01, 0.2
    box = (-1.0, 1.0, -1.5, 1.5)
    base = verify_decrease(p, NoiseLevel(N), GridSpec(*box, 301, 257), gamma=gamma, margin=0.0, tolerance=0.0)
    assert len(base) > 1000
    for kappa, c in [(2.0, 1.0), (1.0, 4.0), (1.0, 0.25), (2.0, 4.0)]:
        s1, s2 = c * kappa**2, c * kappa
        grid = GridSpec(s1 * box[0], s1 * box[1], s2 * box[2], s2 * box[3], 301, 257)
        got = verify_decrease(
            Params(p.lambda1, p.lambda2, c * p.L, p.alpha),
            NoiseLevel(s1 * N),
            grid,
            gamma=math.sqrt(c) * gamma,
            margin=0.0,
            tolerance=0.0,
        )
        factors = {"x1": s1, "x2": s2, "eta": s1, "fddot": c, "observed": s2, "required": s2}
        assert len(got) == len(base)
        for name, factor in factors.items():
            assert np.array_equal(bits(getattr(got, name)), bits(factor * getattr(base, name))), name


@settings(max_examples=200)
@given(
    alpha=st.floats(1.2, 4.0),
    lambda2=st.floats(1.05, 50.0),
    u=st.floats(0.01, 0.99),
    L=st.floats(1e-3, 1e3),
    c=st.sampled_from([4.0, 0.25, 16.0]),
)
def test_gamma_scales_with_the_root_of_L(alpha, lambda2, u, L, c):
    ends = lambda1_range(lambda2, alpha)
    assume(not ends.empty)
    lambda1 = ends.lo + u * (ends.hi - ends.lo)
    assume(ends.lo < lambda1 < ends.hi)
    gamma = decay_rate_gamma(Params(lambda1, lambda2, L, alpha)).gamma
    assert decay_rate_gamma(Params(lambda1, lambda2, c * L, alpha)).gamma == math.sqrt(c) * gamma
