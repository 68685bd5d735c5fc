"""Command-line front end.

Subcommands: validate, bounds, tune, simulate, verify-lyapunov, contour,
worst-case.  Flag defaults reproduce the reference run (lambda1=4.1,
lambda2=1.1, L=1, alpha=4, dt=5e-4, N=0.01, switching noise c1=0.011,
c2=0.00149, horizon 2), so `stwdiff simulate` with no flags regenerates it.

Exit codes: 0 success, 1 verification failure (condition violated or
decrease violations found), 2 flag errors.  Output is deterministic byte
for byte; `--stamp` opts into a timestamp line.  File output is opt-in via
--out; without it CSV goes to stdout and, for `simulate`/`worst-case`, the
key=value summary moves to stderr so the CSV stream stays clean.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import math
import sys

from . import harness, lyapunov, params, signals
from .differentiator import StepScheme

DEFAULTS = {
    "lambda1": 4.1,
    "lambda2": 1.1,
    "L": 1.0,
    "alpha": 4.0,
    "N": 0.01,
    "dt": 5e-4,
    "horizon": 2.0,
    "c1": 0.011,
    "c2": 0.00149,
}


def _add_gain_flags(sp):
    sp.add_argument("--lambda1", type=float, default=DEFAULTS["lambda1"], help="gain of the square-root term")
    sp.add_argument("--lambda2", type=float, default=DEFAULTS["lambda2"], help="gain of the discontinuous term")
    sp.add_argument("--L", type=float, default=DEFAULTS["L"], help="bound on |f''|")
    sp.add_argument("--alpha", type=float, default=DEFAULTS["alpha"], help="bound-tightness parameter in (1, 4]")


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


@contextlib.contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _stamp(args, out=None):
    if getattr(args, "stamp", False):
        print(f"stamp={datetime.datetime.now().isoformat()}", file=out or sys.stdout)


def _make_params(args) -> params.Params:
    return params.Params(lambda1=args.lambda1, lambda2=args.lambda2, L=args.L, alpha=args.alpha)


def _make_config(args, p: params.Params, horizon: float) -> harness.SimConfig:
    return harness.SimConfig(StepScheme(args.scheme, args.dt), horizon, p, params.NoiseLevel(args.N))


def cmd_validate(args) -> int:
    p = _make_params(args)
    ok = params.validate_condition(p)
    print(f"condition: {'satisfied' if ok else 'violated'}")
    print(f"lambda2_min={params.lambda2_min(args.alpha)!r}")
    rng = params.lambda1_range(args.lambda2, args.alpha)
    if rng.empty:
        print("lambda1_interval=empty")
    else:
        print(f"lambda1_interval=({rng.lo!r}, {rng.hi!r})")
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    n = params.NoiseLevel(args.N)
    p = _make_params(args)
    print(f"upper_bound={params.error_upper_bound(p, n)!r}")
    print(f"lower_bound={params.error_lower_bound(args.lambda2, n, args.L)!r}")
    print(f"tightness_factor={params.tightness_factor(p)!r}")
    return 0


def cmd_tune(args) -> int:
    n = params.NoiseLevel(args.N)
    lo = args.lambda2_start
    hi = args.lambda2_stop
    if not (lo > 1.0 and hi > lo and args.steps >= 2):
        print("tune: need 1 < lambda2-start < lambda2-stop and steps >= 2", file=sys.stderr)
        return 2
    _stamp(args)
    print("lambda2 time_bound error_bound lambda1_lo lambda1_hi")
    for k in range(args.steps):
        lam2 = lo + (hi - lo) * k / (args.steps - 1)
        p = params.Params(lambda1=args.lambda1, lambda2=lam2, L=args.L, alpha=args.alpha)
        tb = params.convergence_time_bound(p, args.fdot0)
        eb = params.error_upper_bound(p, n)
        rng = params.lambda1_range(lam2, args.alpha)
        interval = "empty empty" if rng.empty else f"{rng.lo:.6g} {rng.hi:.6g}"
        print(f"{lam2:.6g} {tb:.6g} {eb:.6g} {interval}")
    return 0


def _build_pair(args) -> signals.SignalPair:
    return signals.parse_pair(args.signal, args.noise, default_L=args.L, default_N=args.N)


def cmd_simulate(args) -> int:
    p = _make_params(args)
    pair = _build_pair(args)
    cfg = _make_config(args, p, args.horizon)
    rec = harness.simulate(cfg, pair)
    summary_out = sys.stdout if args.out else sys.stderr
    with _open_out(args.out) as fh:
        harness.write_trajectory_csv(fh, rec)
    summ = harness.error_summary(rec, p, cfg.noise_level, tau=args.tau)
    _stamp(args, summary_out)
    print(f"signal={pair.description}", file=summary_out)
    print(f"sup_error_after_tau={summ.sup_error_after!r}", file=summary_out)
    print(f"entry_time={'none' if summ.first_entry_time is None else repr(summ.first_entry_time)}", file=summary_out)
    print(f"bound_upper={summ.bound_upper!r}", file=summary_out)
    print(f"bound_lower={summ.bound_lower!r}", file=summary_out)
    return 0


def cmd_verify_lyapunov(args) -> int:
    p = _make_params(args)
    n = params.NoiseLevel(args.N)
    grid = lyapunov.GridSpec(
        x1_min=args.box[0],
        x1_max=args.box[1],
        x2_min=args.box[2],
        x2_max=args.box[3],
        n1=args.resolution[0],
        n2=args.resolution[1],
    )
    if args.gamma is not None:
        gamma = args.gamma
    else:
        try:
            gamma = lyapunov.decay_rate_gamma(p).gamma
        except ValueError as exc:
            print(f"gain condition violated: {exc}", file=sys.stderr)
            return 1
    violations = lyapunov.verify_decrease(
        p, n, grid, gamma=gamma, margin=args.margin, tolerance=args.tolerance
    )
    out = sys.stdout if args.out else sys.stderr
    _stamp(args, out)
    print(f"gamma={gamma!r}", file=out)
    print(f"states={grid.n1 * grid.n2}", file=out)
    print(f"violations={len(violations)}", file=out)
    with _open_out(args.out) as fh:
        lyapunov.write_violations_csv(fh, violations)
    return 1 if violations else 0


def cmd_contour(args) -> int:
    p = _make_params(args)
    x1s, x2s, V = harness.contour_grid(p, args.box, args.resolution)
    with _open_out(args.out) as fh:
        harness.write_contour_csv(fh, x1s, x2s, V)
    return 0


def cmd_worst_case(args) -> int:
    p = _make_params(args)
    spec = signals.WorstCaseSpec(tau=args.tau, lambda2=args.lambda2, N=args.N, L=args.L)
    pair = signals.worst_case_pair(spec)
    cfg = _make_config(args, p, args.tau)
    rec = harness.simulate(cfg, pair)
    achieved = abs(float(rec.error[-1]))
    predicted = params.error_lower_bound(args.lambda2, params.NoiseLevel(args.N), args.L)
    # The divergence pair used for lambda2 < 1 has no sliding reference to track.
    track = None
    if spec.lambda2 >= 1.0:
        track = 0.0
        for k, t in enumerate(rec.t):
            if t > spec.tau:
                break
            ref = signals.sliding_reference(spec, float(t))
            track = max(track, float(abs(rec.y1[k] - ref.y1)), float(abs(rec.y2[k] - ref.y2)))
    summary_out = sys.stdout
    if args.out:
        with _open_out(args.out) as fh:
            harness.write_trajectory_csv(fh, rec)
    _stamp(args, summary_out)
    print(f"theta={spec.theta!r}", file=summary_out)
    print(f"achieved_error={achieved!r}", file=summary_out)
    print(f"predicted_error={predicted!r}", file=summary_out)
    print(f"ratio={achieved / predicted if predicted else math.inf!r}", file=summary_out)
    if track is not None:
        print(f"max_tracking_deviation={track!r}", file=summary_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stwdiff",
        description="Super-twisting differentiator toolkit: bounds, tuning, simulation, "
        "Lyapunov certification, and worst-case reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the gain condition and print the admissible lambda1 interval")
    _add_gain_flags(sp)
    sp.add_argument("--stamp", action="store_true", help="include a timestamp line")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("bounds", help="print the error bounds and their ratio")
    _add_gain_flags(sp)
    sp.add_argument("--N", type=float, default=DEFAULTS["N"], help="noise amplitude bound")
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("tune", help="convergence-time vs error-bound tradeoff over a lambda2 sweep")
    _add_gain_flags(sp)
    sp.add_argument("--N", type=float, default=DEFAULTS["N"])
    sp.add_argument("--fdot0", type=float, default=1.0, help="initial derivative magnitude for the time bound")
    sp.add_argument("--lambda2-start", type=float, default=1.05)
    sp.add_argument("--lambda2-stop", type=float, default=3.0)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("simulate", help="run the differentiator and export the trajectory CSV")
    _add_gain_flags(sp)
    sp.add_argument("--N", type=float, default=DEFAULTS["N"])
    sp.add_argument("--scheme", choices=("implicit", "explicit"), default="implicit")
    sp.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    sp.add_argument("--horizon", type=float, default=DEFAULTS["horizon"])
    sp.add_argument("--tau", type=float, default=0.5, help="summary window start")
    sp.add_argument(
        "--signal",
        default="quadratic:sign=-1",
        help="signal spec, e.g. quadratic:L=1,sign=-1 (L defaults to --L)",
    )
    sp.add_argument(
        "--noise",
        default=f"switching:c1={DEFAULTS['c1']},c2={DEFAULTS['c2']}",
        help="noise spec: switching:N=..,c1=..,c2=.. | constant:N=.. | none | worstcase:tau=..",
    )
    sp.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify-lyapunov", help="sample the decrease inequality on a grid; exit 1 on violations")
    _add_gain_flags(sp)
    sp.add_argument("--N", type=float, default=DEFAULTS["N"])
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
    sp.add_argument("--out", default=None, help="violations CSV path (default stdout)")
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_verify_lyapunov)

    sp = sub.add_parser("contour", help="export Lyapunov values on a grid as x1,x2,V CSV")
    _add_gain_flags(sp)
    sp.add_argument("--box", type=_parse_box, default=(-2.0, 2.0, -4.5, 4.5))
    sp.add_argument("--resolution", type=_parse_resolution, default=(201, 201))
    sp.add_argument("--out", default=None)
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_contour)

    sp = sub.add_parser("worst-case", help="simulate the worst-case pair and compare to the predicted error")
    _add_gain_flags(sp)
    sp.add_argument("--N", type=float, default=DEFAULTS["N"])
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--scheme", choices=("implicit", "explicit"), default="implicit")
    sp.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    sp.add_argument("--out", default=None, help="trajectory CSV path (summary stays on stdout)")
    sp.add_argument("--stamp", action="store_true")
    sp.set_defaults(func=cmd_worst_case)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
