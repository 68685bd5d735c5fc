"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), then runs one op per `op(i)` call and
checks the library's outputs on every op.  All calls go through module
attributes of `lib` (`lib.harness.simulate`, ...) so a tracer can wrap them.
Reference gains: lambda1=4.1, lambda2=1.1, L=1, alpha=4, N=0.01.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

L_REF, N_REF, ALPHA = 1.0, 0.01, 4.0
TRAJECTORY_COLUMNS = ("t", "u", "f", "fdot", "y1", "y2", "error", "V")


@dataclass
class OpResult:
    """Outcome of one op: pass flag, reason on failure, work counts, phase times."""

    ok: bool
    problem: str = ""
    counts: dict[str, float] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)


def _piecewise(values: np.ndarray, hold: float):
    """Piecewise-constant disturbance holding each value for `hold` seconds."""
    last = len(values) - 1
    return lambda t: float(values[min(int(t / hold), last)])


def _failed(problems: list[str]) -> tuple[bool, str]:
    return (not problems, "; ".join(problems))


class Workload:
    """Base: subclasses set `name` and implement `op` and `rate_samples`."""

    name = ""
    # Ops at the start of a traced run whose per-layer counts are reported;
    # counts over this fixed prefix repeat exactly between runs.
    count_ops = 1
    # Ops in one pass over the inputs; timings use whole passes only.
    cycle = 1
    # Percentile reported as op_s.tail: the same in every run of a workload,
    # so tails of runs that complete different op counts compare.
    tail_pct = 99.0
    # Names of the per-op rates `rate_samples` returns (printed, not gated).
    rates: tuple[str, ...] = ()

    def __init__(self, lib):
        self.lib = lib
        # The runner swaps in a tracing wrapper for benchmark-made input functions.
        self.wrap_input = lambda fn: fn

    def pairs(self) -> list:
        """Signal pairs that persist across ops (wrapped by the tracer)."""
        return []

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def rate_samples(self, res: OpResult, op_s: float) -> dict[str, float]:
        """Workload-specific rates (per second) of one passed op; run.py reports their medians."""
        raise NotImplementedError


class SimLong(Workload):
    """Reference noisy run at dt=5e-5 over horizon 5, as `stwdiff simulate --out`."""

    name = "sim-long"
    # Only 10 to 20 ops run: p75 needs several slow ops to move, the maximum one.
    tail_pct = 75.0
    rates = ("sim_steps_per_s", "csv_rows_per_s")

    def __init__(self, lib, seed: int, outdir: Path, horizon: float = 5.0, dt: float = 5e-5):
        super().__init__(lib)
        rng = np.random.default_rng([seed, 1])
        # The seed nudges the switching-noise period and duty by up to 2%,
        # which changes the trajectory but not the amount of work.
        c1 = 0.011 * (1.0 + rng.uniform(-0.02, 0.02))
        c2 = 0.00149 * (1.0 + rng.uniform(-0.02, 0.02))
        self.signal_spec = "quadratic:sign=-1"
        self.noise_spec = f"switching:c1={c1!r},c2={c2!r}"
        self.params = lib.params.Params(4.1, 1.1, L_REF, ALPHA)
        self.noise = lib.params.NoiseLevel(N_REF)
        self.horizon, self.dt = horizon, dt
        self.csv_path = Path(outdir) / f"sim-long-{os.getpid()}.csv"

    def op(self, i: int) -> OpResult:
        h, d = self.lib.harness, self.lib.differentiator
        t0 = time.perf_counter()
        pair = self.lib.signals.parse_pair(self.signal_spec, self.noise_spec, default_L=L_REF, default_N=N_REF)
        cfg = h.SimConfig(d.StepScheme("implicit", self.dt), self.horizon, self.params, self.noise)
        rec = h.simulate(cfg, pair)
        t1 = time.perf_counter()
        summary = h.error_summary(rec, self.params, self.noise, tau=0.5)
        invariance = h.omega_invariance_check(rec, self.params, self.noise)
        t2 = time.perf_counter()
        try:
            with open(self.csv_path, "w", encoding="utf-8") as fh:
                h.write_trajectory_csv(fh, rec)
            nbytes = self.csv_path.stat().st_size
            with open(self.csv_path, encoding="utf-8") as fh:
                back = h.read_trajectory_csv(fh)
        finally:
            self.csv_path.unlink(missing_ok=True)
        t3 = time.perf_counter()

        problems = []
        if not summary.sup_error_after <= summary.bound_upper:
            problems.append(f"sup error {summary.sup_error_after} above bound {summary.bound_upper}")
        if not invariance.ok:
            problems.append(f"invariance broken, excess {invariance.max_excess}")
        if not all(np.array_equal(getattr(rec, c), getattr(back, c)) for c in TRAJECTORY_COLUMNS):
            problems.append("CSV round trip not bit-exact")
        ok, why = _failed(problems)
        rows = len(rec.t)
        return OpResult(
            ok,
            why,
            counts={"steps": rows - 1, "csv_rows": rows, "csv_bytes": nbytes},
            phases={"simulate": t1 - t0, "csv": t3 - t2},
        )

    def rate_samples(self, res, op_s):
        return {
            "sim_steps_per_s": res.counts["steps"] / res.phases["simulate"],
            "csv_rows_per_s": res.counts["csv_rows"] / res.phases["csv"],
        }


class Certify(Workload):
    """Clean decrease certification on 1500x1500 plus the lambda2=0.5 mutant probe on 400x400."""

    name = "certify"
    tail_pct = 75.0  # only 10 to 20 ops run, as for sim-long
    rates = ("cert_states_per_s", "violations_per_s")

    def __init__(self, lib, seed: int, outdir: Path, n_clean: int = 1500, n_mutant: int = 400):
        super().__init__(lib)
        rng = np.random.default_rng([seed, 2])
        # The seed shifts the [-3,3]^2 box by at most 0.02 per axis, which
        # moves the sample points but not their number.
        dx, dy = rng.uniform(-0.02, 0.02, size=2)
        P, lyap = lib.params, lib.lyapunov
        self.params = P.Params(4.1, 1.1, L_REF, ALPHA)
        self.mutant = P.Params(4.1, 0.5, L_REF, ALPHA)
        self.noise = P.NoiseLevel(N_REF)
        box = (-3.0 + dx, 3.0 + dx, -3.0 + dy, 3.0 + dy)
        self.clean_grid = lyap.GridSpec(*box, n_clean, n_clean)
        self.mutant_grid = lyap.GridSpec(*box, n_mutant, n_mutant)

    def op(self, i: int) -> OpResult:
        lyap = self.lib.lyapunov
        t0 = time.perf_counter()
        gamma = lyap.decay_rate_gamma(self.params).gamma
        clean = lyap.verify_decrease(self.params, self.noise, self.clean_grid, gamma=gamma)
        t1 = time.perf_counter()
        mutated = lyap.verify_decrease(self.mutant, self.noise, self.mutant_grid, gamma=gamma)
        t2 = time.perf_counter()
        problems = []
        if clean:
            problems.append(f"{len(clean)} violations on the clean grid")
        if not mutated:
            problems.append("mutant probe found no violation")
        ok, why = _failed(problems)
        g = self.clean_grid
        return OpResult(
            ok,
            why,
            counts={
                "states": g.n1 * g.n2,
                "mutant_states": self.mutant_grid.n1 * self.mutant_grid.n2,
                "violations": len(mutated),
            },
            phases={"clean": t1 - t0, "mutant": t2 - t1},
        )

    def rate_samples(self, res, op_s):
        return {
            "cert_states_per_s": res.counts["states"] / res.phases["clean"],
            "violations_per_s": res.counts["violations"] / res.phases["mutant"],
        }


@dataclass(frozen=True)
class TuningPoint:
    lambda2: float
    fraction: float  # lambda1 position inside the admissible interval
    x0: tuple[float, float]  # error-system start with 2N < V0 <= 0.2
    eta: np.ndarray = field(compare=False)
    fddot: np.ndarray = field(compare=False)


class Sweep(Workload):
    """Tuning grid of 20 lambda2 x 3 lambda1 positions; one op per point."""

    name = "sweep"
    count_ops = 3
    tail_pct = 94.0  # over 3 whole passes of 60 points, 10 ops lie beyond it
    rates = ("runs_per_s",)
    ETA_HOLD, FDDOT_HOLD = 0.013, 0.017

    def __init__(
        self,
        lib,
        seed: int,
        outdir: Path,
        n_lambda2: int = 20,
        dt: float = 1e-4,
        error_horizon: float = 3.0,
    ):
        super().__init__(lib)
        rng = np.random.default_rng([seed, 3])
        P = lib.params
        self.noise = P.NoiseLevel(N_REF)
        self.dt, self.error_horizon = dt, error_horizon
        points = []
        for lam2 in np.linspace(1.05, 3.0, n_lambda2):
            for base in (0.25, 0.5, 0.75):
                frac = base + float(rng.uniform(-0.05, 0.05))
                iv = P.lambda1_range(float(lam2), ALPHA)
                p = P.Params(iv.lo + frac * (iv.hi - iv.lo), float(lam2), L_REF, ALPHA)
                while True:
                    x1, x2 = float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.8, 0.8))
                    v0 = lib.lyapunov.evaluate(lib.lyapunov.ErrorState(x1, x2), p)
                    if 2.0 * N_REF < v0 <= 0.2:
                        break
                n_eta = int(error_horizon / self.ETA_HOLD) + 2
                n_fdd = int(error_horizon / self.FDDOT_HOLD) + 2
                points.append(
                    TuningPoint(
                        float(lam2),
                        frac,
                        (x1, x2),
                        rng.uniform(-N_REF, N_REF, size=n_eta),
                        rng.uniform(-L_REF, L_REF, size=n_fdd),
                    )
                )
        self.points = [points[k] for k in rng.permutation(len(points))]
        self.cycle = len(self.points)

    def op(self, i: int) -> OpResult:
        P, S, h, d, lyap = (self.lib.params, self.lib.signals, self.lib.harness, self.lib.differentiator, self.lib.lyapunov)
        pt = self.points[i % len(self.points)]
        iv = P.lambda1_range(pt.lambda2, ALPHA)
        p = P.Params(iv.lo + pt.fraction * (iv.hi - iv.lo), pt.lambda2, L_REF, ALPHA)
        admissible = P.validate_condition(p)
        upper = P.error_upper_bound(p, self.noise)
        lower = P.error_lower_bound(pt.lambda2, self.noise, L_REF)
        gamma = lyap.decay_rate_gamma(p).gamma

        pair = S.worst_case_pair(S.WorstCaseSpec(tau=1.0, lambda2=pt.lambda2, N=N_REF, L=L_REF))
        rec = h.simulate(h.SimConfig(d.StepScheme("implicit", self.dt), 1.0, p, self.noise), pair)
        ratio = abs(float(rec.error[-1])) / lower

        err = h.simulate_error_system(
            h.SimConfig(d.StepScheme("explicit", self.dt), self.error_horizon, p, self.noise),
            self.wrap_input(_piecewise(pt.eta, self.ETA_HOLD)),
            self.wrap_input(_piecewise(pt.fddot, self.FDDOT_HOLD)),
            lyap.ErrorState(*pt.x0),
        )
        invariance = h.omega_invariance_check(err, p, self.noise)

        problems = []
        if not admissible:
            problems.append(f"gains {p} fail the condition")
        if not (gamma > 0 and upper > lower):
            problems.append(f"gamma={gamma}, bounds ({lower}, {upper})")
        if not abs(ratio - 1.0) <= 1e-3:
            problems.append(f"worst-case ratio {ratio} off by more than 1e-3")
        if not invariance.ok:
            problems.append(f"invariance broken, excess {invariance.max_excess}")
        ok, why = _failed(problems)
        return OpResult(ok, why, counts={"steps": (len(rec.t) - 1) + (len(err.t) - 1)})

    def rate_samples(self, res, op_s):
        return {"runs_per_s": 1.0 / op_s}


@dataclass
class Channel:
    pair: object
    params: object
    scheme: object
    implicit: bool
    bound: float
    state: object
    u_prev: float


class Stream(Workload):
    """64 seeded channels, half explicit and half implicit; one op is one tick of all."""

    name = "stream"
    count_ops = 200
    rates = ("samples_per_s",)
    TAU = 0.5

    def __init__(self, lib, seed: int, outdir: Path, channels: int = 64, dt: float = 5e-4):
        super().__init__(lib)
        rng = np.random.default_rng([seed, 4])
        P, S, d = lib.params, lib.signals, lib.differentiator
        noise = P.NoiseLevel(N_REF)
        self.dt = dt
        self.channels = []
        for k in range(channels):
            lam2 = float(rng.uniform(1.05, 3.0))
            iv = P.lambda1_range(lam2, ALPHA)
            p = P.Params(iv.lo + float(rng.uniform(0.1, 0.9)) * (iv.hi - iv.lo), lam2, L_REF, ALPHA)
            c1 = float(rng.uniform(0.005, 0.02))
            c2 = c1 * float(rng.uniform(0.05, 0.5))
            sign = 1 if rng.random() < 0.5 else -1
            pair = S.parse_pair(f"quadratic:sign={sign}", f"switching:c1={c1!r},c2={c2!r}", L_REF, N_REF)
            implicit = k % 2 == 0
            scheme = d.StepScheme("implicit" if implicit else "explicit", dt)
            u0 = pair.u(0.0)
            self.channels.append(Channel(pair, p, scheme, implicit, P.error_upper_bound(p, noise), d.init(u0), u0))

    def pairs(self):
        return [ch.pair for ch in self.channels]

    def op(self, i: int) -> OpResult:
        d = self.lib.differentiator
        t = (i + 1) * self.dt
        check = t >= self.TAU
        problems = []
        for k, ch in enumerate(self.channels):
            u = ch.pair.u(t)
            # Explicit Euler uses the sample at the step start, implicit the one at its end.
            if ch.implicit:
                ch.state = d.step_implicit(ch.state, u, ch.scheme, ch.params)
            else:
                ch.state = d.step_explicit(ch.state, ch.u_prev, ch.scheme, ch.params)
            ch.u_prev = u
            err = abs(ch.state.y2 - ch.pair.fdot(t))
            if not math.isfinite(err) or (check and err > ch.bound):
                problems.append(f"channel {k}: |y2 - fdot| = {err} at t={t} (bound {ch.bound})")
        ok, why = _failed(problems)
        return OpResult(ok, why, counts={"samples": len(self.channels)})

    def rate_samples(self, res, op_s):
        return {"samples_per_s": res.counts["samples"] / op_s}


WORKLOADS = {w.name: w for w in (SimLong, Certify, Sweep, Stream)}
