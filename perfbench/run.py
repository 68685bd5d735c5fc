"""stwdiff benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from `src/` of that
checkout.  One single-threaded process generates all load (closed loop, one
client) and checks the library's outputs on every op.  With `--trace 0` the
run reports end-to-end metrics; with `--trace 1` it runs half the time
untraced, then half traced with every public library function wrapped, and
reports per-layer metrics and the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object.  Scratch
files and span dumps go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, OpResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAYERS = ("params", "signals", "differentiator", "harness", "lyapunov")
SETUP_REPS = 11

# Host-speed calibration.  On a host shared with other tenants the CPU speed
# can drift by 1.5x on a scale of seconds to minutes, which moves every raw
# time in a run together.  A fixed reference kernel is timed between
# ops (median of CAL_REPS runs, at most every CAL_INTERVAL_S) and each op time
# is scaled by KERNEL_REF_S / kernel time: gated times read as seconds on a
# host where the kernel takes KERNEL_REF_S.  Raw times are printed too.
KERNEL_REF_S = 3e-4
CAL_REPS = 5
CAL_INTERVAL_S = 0.1

# Ops one run can record.  The per-op buffers are allocated and written before
# the first op, so the process's peak RSS does not grow with the op count.
OP_CAPACITY = 1 << 20

# Span names whose call count and self time are reported (count over the
# workload's fixed op prefix, self time as seconds per op over all traced ops).
CALLS = (
    "signals.eval",
    "signals.build",
    "differentiator.solve_sigma",
    "differentiator.step",
    "harness.simulate",
    "lyapunov.gamma",
    "params",
)
SELF = CALLS + (
    "harness.analysis",
    "harness.csv_write",
    "harness.csv_read",
    "lyapunov.verify",
    "lyapunov.evaluate_grid",
)
# Per-op work counts from the workloads, reported per layer.
WORK = (
    ("harness.steps", ("steps",), "count"),
    ("harness.csv.bytes", ("csv_bytes",), "B"),
    ("lyapunov.states", ("states", "mutant_states"), "count"),
    ("lyapunov.violations", ("violations",), "count"),
)


def load_library() -> SimpleNamespace:
    """Import stwdiff afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "stwdiff" or m.startswith("stwdiff.")]:
        del sys.modules[name]
    pkg = importlib.import_module("stwdiff")
    if Path(pkg.__file__).resolve().parent != (SRC / "stwdiff").resolve():
        raise ImportError(f"stwdiff imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"stwdiff.{m}") for m in LAYERS})


class HostSpeed:
    """Times a reference kernel; `scale` converts raw seconds to reference seconds.

    The kernel is interpreter-bound float arithmetic and calls, like the step
    loops, plus a small array pass into a preallocated buffer.
    """

    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 20_000)
        self._out = np.empty_like(self._small)
        self._last = -math.inf
        self.scale = 1.0

    def _kernel(self) -> float:
        x, acc = 0.3, 0.0
        for _ in range(1500):
            d = x - 0.25
            acc += math.copysign(math.sqrt(abs(d)), d)
            x = x * 0.999 + 0.001
        out = self._out
        np.subtract(self._small, 0.5, out=out)
        np.sqrt(np.abs(out, out=out), out=out)
        return acc + float(np.add(out, self._small, out=out)[-1])

    def measure(self, reps: int = CAL_REPS) -> float:
        """Reference time over the median of `reps` timed kernel runs."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return KERNEL_REF_S / statistics.median(times)

    def refresh(self) -> None:
        """Re-measure the scale if CAL_INTERVAL_S has passed since the last time."""
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.scale = self.measure()
            self._last = time.perf_counter()


def set_up(workload: str, seed: int, host: HostSpeed):
    """Import plus input generation, SETUP_REPS times; returns the last workload and scaled times."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous rep's modules are garbage; collect them outside the timing
        scale = host.measure(3 * CAL_REPS)
        t0 = time.perf_counter()
        lib = load_library()
        wl = WORKLOADS[workload](lib, seed, OUT)
        times.append((time.perf_counter() - t0) * scale)
    return wl, times


class RunStats:
    """What a run keeps: per op the raw time, its host-speed scale and the
    workload's rate samples (in reference units, NaN for a failed op), in one
    buffer of OP_CAPACITY rows; plus failures and the first ops' results."""

    def __init__(self, rate_names: tuple[str, ...]):
        self.rate_names = rate_names
        # np.full writes every page now; np.empty or np.zeros would map them
        # as ops arrive and make peak RSS grow with the op count.
        self._rows = np.full((OP_CAPACITY, 2 + len(rate_names)), np.nan)
        self.n = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.prefix: list[OpResult] = []

    def add(self, elapsed: float, scale: float, rates: dict[str, float]) -> None:
        row = self._rows[self.n]
        row[0], row[1] = elapsed, scale
        for k, name in enumerate(self.rate_names, 2):
            if name in rates:
                row[k] = rates[name] / scale
        self.n += 1

    @property
    def times(self) -> np.ndarray:
        return self._rows[: self.n, 0]

    @property
    def scales(self) -> np.ndarray:
        return self._rows[: self.n, 1]

    def rate(self, name: str) -> np.ndarray:
        return self._rows[: self.n, 2 + self.rate_names.index(name)]


def run_ops(wl, seconds: float, min_ops: int, host: HostSpeed, tracer: Tracer | None = None) -> RunStats:
    """Closed loop: run ops back to back until `seconds` pass and `min_ops` are done
    (or OP_CAPACITY ops are recorded)."""
    stats = RunStats(wl.rates)
    op = wl.op if tracer is None else tracer.wrap("op", wl.op)
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < min_ops or time.perf_counter() < deadline) and i < OP_CAPACITY:
        host.refresh()
        before = host.scale
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            res = op(i)
        except Exception as exc:  # a library error fails the op; the run goes on
            if not stats.problems:
                traceback.print_exc(file=sys.stderr)
            res = OpResult(False, f"raised {exc!r}")
        elapsed = time.perf_counter() - t0
        # An op longer than CAL_INTERVAL_S is scaled by the mean of the
        # calibrations on either side of it.
        host.refresh()
        scale = 0.5 * (before + host.scale)
        stats.add(elapsed, scale, wl.rate_samples(res, elapsed) if res.ok else {})
        stats.attempted += 1
        if not res.ok:
            stats.problems.append(res.problem)
        if i < wl.count_ops:
            stats.prefix.append(res)
        i += 1
    return stats


def whole_cycles(samples: np.ndarray, cycle: int) -> np.ndarray:
    """Samples of the completed passes over the workload's inputs (all, if none completed)."""
    n = len(samples)
    return samples[: n - n % cycle] if n >= cycle else samples


def end_to_end(wl, setup_times, stats: RunStats) -> tuple[dict, list[str]]:
    """Gated metrics in reference seconds (see HostSpeed), plus printed-only lines."""
    raw = whole_cycles(stats.times, wl.cycle)
    times = raw * stats.scales[: len(raw)]
    tail = float(np.percentile(times, wl.tail_pct))
    failed = len(stats.problems)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (float(np.median(times)), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_s.p50": f"{len(times)} of {stats.n} ops (whole passes of {wl.cycle})",
        "op_s.tail": f"p{wl.tail_pct:g} of {len(times)} ops, {np.count_nonzero(times > tail)} beyond",
    }
    lines = [f"{k:<22} {v:<14.6g} {u:<6} {notes.get(k, '')}" for k, (v, u) in metrics.items()]
    lines.append(f"{'fail_ratio':<22} {failed / stats.attempted:<14.6g} {'ratio':<6} {failed}/{stats.attempted} ops failed")
    for name in wl.rates:
        rate = whole_cycles(stats.rate(name), wl.cycle)
        lines.append(f"{name:<22} {float(np.nanmedian(rate)):<14.6g} {'1/s':<6} median of per-op rates")
    lines.append(
        f"raw (unscaled) op_s.p50={float(np.median(raw)):.6g} s "
        f"op_s.tail={float(np.percentile(raw, wl.tail_pct)):.6g} s; "
        f"host scale median={float(np.median(stats.scales)):.4g} "
        f"(reference kernel {KERNEL_REF_S * 1e3:g} ms / measured)"
    )
    if stats.n == OP_CAPACITY:
        lines.append(f"run stopped early: {OP_CAPACITY} ops recorded")
    return metrics, lines


def layer_metrics(tracer: Tracer, stats: RunStats, base_times, count_ops: int) -> dict:
    """Per-layer metrics of a traced run: counts over the first `count_ops` ops, raw self
    time per op, and the overhead against the untraced ops' scaled `base_times`."""
    sp = tracer.spans()
    ids = {n: i for i, n in enumerate(tracer.names)}
    in_prefix = (sp["op"] >= 0) & (sp["op"] < count_ops)
    in_ops = sp["op"] >= 0
    n_ops = stats.n

    def mask(name):
        return sp["name"] == ids.get(name, -1)

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (np.count_nonzero(mask(name) & in_prefix) / count_ops, "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (float(sp["self_ns"][mask(name) & in_ops].sum()) / 1e9 / n_ops, "s")
    solves = np.count_nonzero(mask("differentiator.solve_sigma") & in_prefix)
    zeros = np.count_nonzero(sp["op"][sp["deadzone"]] < count_ops)
    metrics["differentiator.deadzone_ratio"] = (zeros / solves if solves else 0.0, "ratio")
    for name, keys, unit in WORK:
        metrics[name] = (sum(r.counts.get(k, 0) for r in stats.prefix[:count_ops] for k in keys) / count_ops, unit)
    traced = float(np.median(stats.times * stats.scales))
    metrics["trace.overhead_s"] = (traced - float(np.median(base_times)), "s")
    return metrics


def environment(seed: int, threads_env: str | None) -> str:
    cleared = "unset" if threads_env is None else repr(threads_env)
    return (
        f"env seed={seed} nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} machine={platform.machine()} "
        f"STWDIFF_THREADS=cleared(was {cleared}) processes=1"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stwdiff" / "__init__.py").is_file():
        print(f"error: no stwdiff sources under {SRC}", file=sys.stderr)
        return 2
    # Measure the serial verify_decrease path whatever the caller's environment says.
    threads_env = os.environ.pop("STWDIFF_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    host = HostSpeed()
    wl, setup_times = set_up(args.workload, args.seed, host)
    print(environment(args.seed, threads_env))
    print(f"workload={args.workload} seconds={args.seconds:g} trace={args.trace}")

    if args.trace == 0:
        stats = run_ops(wl, args.seconds, 1, host)
        metrics, lines = end_to_end(wl, setup_times, stats)
    else:
        half = args.seconds / 2.0
        base = run_ops(wl, half, 1, host)
        base_times = base.times * base.scales
        # A fresh workload, so the traced op prefix starts from the same state every run.
        wl = WORKLOADS[args.workload](wl.lib, args.seed, OUT)
        tracer = Tracer()
        try:
            tracer.instrument(wl.lib)
            for pair in wl.pairs():
                tracer.instrument_pair(pair)
            wl.wrap_input = lambda fn: tracer.wrap("inputs.eval", fn)
            stats = run_ops(wl, half, wl.count_ops, host, tracer)
        finally:
            tracer.restore()
        dump = OUT / f"trace-{args.workload}.npz"
        tracer.dump(dump)
        metrics = layer_metrics(tracer, stats, base_times, wl.count_ops)
        lines = [f"{k:<34} {v:<14.6g} {u}" for k, (v, u) in metrics.items()]
        lines.append(
            f"traced ops={stats.n} (counts over the first {wl.count_ops}), "
            f"untraced ops={len(base_times)}, {len(tracer.span_start)} spans in {dump.relative_to(ROOT)}"
        )
        # Both halves count toward correctness.
        stats.attempted += base.attempted
        stats.problems = base.problems + stats.problems

    for line in lines:
        print(line)
    for problem in stats.problems[:5]:
        print(f"FAILED op: {problem}")
    print(
        json.dumps(
            {
                "correct": not stats.problems,
                "attempted": stats.attempted,
                "failed": len(stats.problems),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
