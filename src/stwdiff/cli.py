"""Command-line front end.

Subcommands: validate, bounds, tune, simulate, verify-lyapunov, contour,
worst-case.  Flag defaults reproduce the reference run (lambda1=4.1,
lambda2=1.1, L=1, alpha=4, dt=5e-4, N=0.01, switching noise c1=0.011,
c2=0.00149, horizon 2), so `stwdiff simulate` with no flags regenerates it.

Exit codes: 0 success, 1 verification failure (condition violated or
decrease violations found), 2 refused input: a bad flag or value, an
input outside the paper's assumptions, a result that over- or underflows
float, or output that cannot be written (an `--out` file, or a closed
stdout).  Output is deterministic byte for byte; `--stamp` opts into a
timestamp line.

Each command computes everything first and returns (exit code, summary
lines, CSV writer or None); `main` alone writes.  The CSV goes to `--out`
or stdout, and the summary goes to stderr exactly when the CSV is on
stdout, to stdout otherwise.  An error therefore leaves no partial output.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys

from . import harness, lyapunov, params, signals
from .differentiator import EXPLICIT, IMPLICIT, StepScheme

DEFAULTS = {
    "lambda1": 4.1,
    "lambda2": 1.1,
    "L": 1.0,
    "alpha": 4.0,
    "N": 0.01,
    "dt": 5e-4,
    "horizon": 2.0,
}


class _Failed(Exception):
    """A verification failure found before any output: exit 1, message on stderr."""


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("box must be x1min,x1max,x2min,x2max")
    try:
        vals = tuple(float(v) for v in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad box {text!r}") from exc
    return vals  # type: ignore[return-value]


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        r, _, c = text.lower().partition("x")
        return int(r), int(c)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}: expected RxC") from exc


def _make_params(args) -> params.Params:
    return params.Params(lambda1=args.lambda1, lambda2=args.lambda2, L=args.L, alpha=args.alpha)


def _make_config(args, p: params.Params, horizon: float) -> harness.SimConfig:
    return harness.SimConfig(StepScheme(args.scheme, args.dt), horizon, p, params.NoiseLevel(args.N))


def cmd_validate(args):
    ok = params.validate_condition(_make_params(args))
    rng = params.lambda1_range(args.lambda2, args.alpha)
    return 0 if ok else 1, [
        f"condition: {'satisfied' if ok else 'violated'}",
        f"lambda2_min={params.lambda2_min(args.alpha)!r}",
        "lambda1_interval=empty" if rng.empty else f"lambda1_interval=({rng.lo!r}, {rng.hi!r})",
    ], None


def cmd_bounds(args):
    n = params.NoiseLevel(args.N)
    p = _make_params(args)
    return 0, [
        f"upper_bound={params.error_upper_bound(p, n)!r}",
        f"lower_bound={params.error_lower_bound(args.lambda2, n, args.L)!r}",
        f"tightness_factor={params.tightness_factor(p)!r}",
    ], None


def cmd_tune(args):
    n = params.NoiseLevel(args.N)
    lo = args.lambda2_start
    hi = args.lambda2_stop
    if not (lo > 1.0 and hi > lo and args.steps >= 2):
        raise ValueError("need 1 < lambda2-start < lambda2-stop and steps >= 2")
    rows = ["lambda2 time_bound error_bound lambda1_lo lambda1_hi"]
    for k in range(args.steps):
        lam2 = lo + (hi - lo) * k / (args.steps - 1)
        p = params.Params(lambda1=args.lambda1, lambda2=lam2, L=args.L, alpha=args.alpha)
        tb = params.convergence_time_bound(p, args.fdot0)
        eb = params.error_upper_bound(p, n)
        rng = params.lambda1_range(lam2, args.alpha)
        interval = "empty empty" if rng.empty else f"{rng.lo:.6g} {rng.hi:.6g}"
        rows.append(f"{lam2:.6g} {tb:.6g} {eb:.6g} {interval}")
    return 0, rows, None


def cmd_simulate(args):
    p = _make_params(args)
    pair = signals.parse_pair(args.signal, args.noise, args.L, args.N, args.lambda2)
    cfg = _make_config(args, p, args.horizon)
    rec = harness.simulate(cfg, pair)
    summ = harness.error_summary(rec, p, cfg.noise_level, tau=args.tau)
    return 0, [
        f"signal={pair.description}",
        f"sup_error_after_tau={summ.sup_error_after!r}",
        f"entry_time={'none' if summ.first_entry_time is None else repr(summ.first_entry_time)}",
        f"bound_upper={summ.bound_upper!r}",
        f"bound_lower={summ.bound_lower!r}",
    ], lambda fh: harness.write_trajectory_csv(fh, rec)


def cmd_verify_lyapunov(args):
    p = _make_params(args)
    grid = lyapunov.GridSpec(*args.box, *args.resolution)
    gamma = args.gamma
    if gamma is None:
        try:
            gamma = lyapunov.decay_rate_gamma(p).gamma
        except ValueError as exc:
            raise _Failed(str(exc)) from exc
    violations = lyapunov.verify_decrease(
        p, params.NoiseLevel(args.N), grid, gamma=gamma, margin=args.margin, tolerance=args.tolerance
    )
    return 1 if violations else 0, [
        f"gamma={gamma!r}",
        f"states={grid.n1 * grid.n2}",
        f"violations={len(violations)}",
    ], lambda fh: harness.write_violations_csv(fh, violations)


def cmd_contour(args):
    x1s, x2s, V = harness.contour_grid(_make_params(args), args.box, args.resolution)
    return 0, [], lambda fh: harness.write_contour_csv(fh, x1s, x2s, V)


def cmd_worst_case(args):
    p = _make_params(args)
    cfg = _make_config(args, p, args.tau)
    spec = signals.WorstCaseSpec(tau=args.tau, lambda2=args.lambda2, N=args.N, L=args.L)
    rec = harness.simulate(cfg, signals.worst_case_pair(spec))
    achieved = abs(float(rec.error[-1]))
    predicted = params.error_lower_bound(args.lambda2, params.NoiseLevel(args.N), args.L)
    # A zero prediction (N = 0) attained exactly is a ratio of 1, and exceeded, inf.
    ratio = achieved / predicted if predicted else math.inf if achieved else 1.0
    lines = [
        f"theta={spec.theta!r}",
        f"achieved_error={achieved!r}",
        f"predicted_error={predicted!r}",
        f"ratio={ratio!r}",
    ]
    # Deviation from the sliding reference up to tau; the divergence pair used
    # for lambda2 < 1 has no such reference.
    if spec.lambda2 >= 1.0:
        m = rec.t <= spec.tau
        y1, y2 = signals.sliding_reference(spec, rec.t[m])
        track = float(max(abs(rec.y1[m] - y1).max(), abs(rec.y2[m] - y2).max()))
        lines.append(f"max_tracking_deviation={track!r}")
    # Without --out there is no CSV, so the summary stays on stdout.
    return 0, lines, (lambda fh: harness.write_trajectory_csv(fh, rec)) if args.out else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stwdiff",
        description="Super-twisting differentiator toolkit: bounds, tuning, simulation, "
        "Lyapunov certification, and worst-case reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gains = argparse.ArgumentParser(add_help=False)
    gains.add_argument("--lambda1", type=float, default=DEFAULTS["lambda1"], help="gain of the square-root term")
    gains.add_argument("--lambda2", type=float, default=DEFAULTS["lambda2"], help="gain of the discontinuous term")
    gains.add_argument("--L", type=float, default=DEFAULTS["L"], help="bound on |f''|")
    gains.add_argument("--alpha", type=float, default=DEFAULTS["alpha"], help="bound-tightness parameter in (1, 4]")
    gains.add_argument("--stamp", action="store_true", help="include a timestamp line")
    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--N", type=float, default=DEFAULTS["N"], help="noise amplitude bound")
    step = argparse.ArgumentParser(add_help=False)
    step.add_argument("--scheme", choices=(IMPLICIT, EXPLICIT), default=IMPLICIT)
    step.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="CSV path; the summary then goes to stdout")

    def command(name, func, text, *parents):
        sp = sub.add_parser(name, parents=[gains, *parents], help=text)
        sp.set_defaults(func=func)
        return sp

    command("validate", cmd_validate, "check the gain condition and print the admissible lambda1 interval")
    command("bounds", cmd_bounds, "print the error bounds and their ratio", noise)

    sp = command("tune", cmd_tune, "convergence-time vs error-bound tradeoff over a lambda2 sweep", noise)
    sp.add_argument("--fdot0", type=float, default=1.0, help="initial derivative magnitude for the time bound")
    sp.add_argument("--lambda2-start", type=float, default=1.05)
    sp.add_argument("--lambda2-stop", type=float, default=3.0)
    sp.add_argument("--steps", type=int, default=10)

    sp = command("simulate", cmd_simulate, "run the differentiator and export the trajectory CSV", noise, step, out)
    sp.add_argument("--horizon", type=float, default=DEFAULTS["horizon"])
    sp.add_argument("--tau", type=float, default=0.5, help="summary window start")
    sp.add_argument(
        "--signal",
        default="quadratic",
        help="signal spec, e.g. quadratic:L=1,sign=-1 (L defaults to --L, sign to -1)",
    )
    sp.add_argument(
        "--noise",
        default="switching",
        help="noise spec: switching:N=..,c1=..,c2=.. | constant:N=.. | none | worstcase:tau=..",
    )

    sp = command(
        "verify-lyapunov", cmd_verify_lyapunov, "sample the decrease inequality on a grid; exit 1 on violations",
        noise, out,
    )
    sp.add_argument(
        "--box",
        type=_parse_box,
        default=(-3.0, 3.0, -3.0, 3.0),
        help="x1min,x1max,x2min,x2max (use --box=-3,3,-3,3 when the first value is negative)",
    )
    sp.add_argument("--resolution", type=_parse_resolution, default=(400, 400), help="RxC grid size")
    sp.add_argument("--margin", type=float, default=1e-9, help="skip states with V <= N + margin")
    sp.add_argument("--tolerance", type=float, default=1e-9, help="violation tolerance on the rate comparison")
    sp.add_argument("--gamma", type=float, default=None, help="override the decrease rate (mutation probes)")

    sp = command("contour", cmd_contour, "export Lyapunov values on a grid as x1,x2,V CSV", out)
    sp.add_argument("--box", type=_parse_box, default=(-2.0, 2.0, -4.5, 4.5))
    sp.add_argument("--resolution", type=_parse_resolution, default=(201, 201))

    sp = command(
        "worst-case", cmd_worst_case, "simulate the worst-case pair and compare to the predicted error",
        noise, step, out,
    )
    sp.add_argument("--tau", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, summary, write_csv = args.func(args)
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_on_stdout = write_csv is not None and args.out is None
    if write_csv is not None and not csv_on_stdout:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_csv(fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    if args.stamp:
        summary = [f"stamp={datetime.datetime.now().isoformat()}", *summary]
    try:
        if csv_on_stdout:
            write_csv(sys.stdout)
        if summary:
            print("\n".join(summary), file=sys.stderr if csv_on_stdout else sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # Text left in stdout's buffer would fail again at the flush on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
