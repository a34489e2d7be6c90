"""Command-line front end: parameter sweeps, figure-data emission, state I/O.

Every command is deterministic: identical invocations produce byte-identical
output files.  CSV is the plotting interface; no plotting code ships.

Exit codes: 0 success, 1 malformed arguments, 2 numerical failure (degenerate
state, truncation), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .conditioning import beamsplit_with_vacuum
from .kerr import (
    KerrParams,
    TruncationError,
    coefficient_rows,
    fock_expand,
    kerr_decompose,
    kerr_fock_evolve,
    recommended_cutoff,
    verify_phase_identity,
)
from .metrics import (
    cat_fidelity,
    condition_at,
    conditioned_p_distribution,
    default_target_beta,
    fidelity_curve,
    precondition_p_distribution,
    success_probability,
    window_from_threshold,
)
from .noise import NoiseParams, lossy_fidelity, phase_noise_avg_fidelity
from .states import (
    DegenerateStateError,
    load_state,
    state_to_json_dict,
)

ENV_OUTDIR = "KERRCAT_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid built from integer multiples of step (exact zero, stable)."""
    return np.arange(round(lo / step), round(hi / step) + 1) * step


def _out_path(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_csv(path: str | None, header, rows) -> None:
    """Write CSV to path (or stdout); floats at 17 significant digits."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])

    path = _out_path(path)
    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        print(f"wrote {path}")


def _write_json(path: str | None, doc) -> None:
    path = _out_path(path)
    if path is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


def _resolve_n(parser: _Parser, args) -> int:
    """Components count from --n or --lambda-tau (which must equal pi/N)."""
    if args.lambda_tau is not None:
        if args.lambda_tau <= 0:
            parser.error("--lambda-tau must be positive")
        n_real = math.pi / args.lambda_tau
        n = round(n_real)
        if n < 1 or abs(n_real - n) > 1e-9 * max(1.0, n):
            parser.error(
                f"--lambda-tau {args.lambda_tau:g} is not pi/N for an integer N "
                f"(closest N = {n_real:.6f}); ring decomposition requires pi/N")
        if args.n is not None and args.n != n:
            parser.error(f"--n {args.n} conflicts with --lambda-tau (pi/{n})")
        return n
    return args.n if args.n is not None else 20


def _check_alpha(parser: _Parser, alpha: float) -> float:
    if not (alpha > 0) or not math.isfinite(alpha):
        parser.error("--alpha must be a positive real number")
    return alpha


def _add_common(sub, *, with_x=False):
    sub.add_argument("--alpha", type=float, default=20.0,
                     help="initial coherent amplitude (real, default 20)")
    sub.add_argument("--n", type=int, default=None,
                     help="ring size N; interaction phase is pi/N (default 20)")
    sub.add_argument("--lambda-tau", type=float, default=None,
                     help="interaction phase; must equal pi/N for an integer N")
    if with_x:
        sub.add_argument("--x", type=float, default=0.0,
                         help="homodyne outcome on the monitored mode (default 0)")
    sub.add_argument("--output", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format")


def build_parser() -> _Parser:
    parser = _Parser(prog="kerrcat",
                     description="Cat states from weak Kerr nonlinearity, a 50-50 "
                                 "beam splitter and homodyne conditioning.")
    parser.add_argument("--version", action="version", version=f"kerrcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="ring decomposition at interaction phase pi/N")
    _add_common(p)

    p = sub.add_parser("evolve-fock", help="number-basis evolution at arbitrary phase")
    p.add_argument("--alpha", type=float, default=20.0)
    p.add_argument("--alpha-im", type=float, default=0.0,
                   help="imaginary part of the input amplitude")
    p.add_argument("--lambda-tau", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=None,
                   help="number-basis cutoff (default |alpha|^2 + 10|alpha| + 20)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("condition", help="split on vacuum and condition on outcome X")
    _add_common(p, with_x=True)

    p = sub.add_parser("fidelity", help="phi-maximized cat fidelity of a conditioned state")
    _add_common(p, with_x=True)
    p.add_argument("--state", default=None,
                   help="JSON state file to score instead of running the pipeline")
    p.add_argument("--target-re", type=float, default=None)
    p.add_argument("--target-im", type=float, default=None)

    p = sub.add_parser("fidelity-curve", help="fidelity against the measurement outcome")
    _add_common(p)
    p.add_argument("--x-min", type=float, default=-3.0)
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--x-step", type=float, default=0.01)

    p = sub.add_parser("pdist-pre", help="P distribution before the beam splitter")
    _add_common(p)
    p.add_argument("--p-min", type=float, default=None)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--p-step", type=float, default=0.05)

    p = sub.add_parser("pdist-post", help="P distribution after conditioning")
    _add_common(p, with_x=True)
    p.add_argument("--p-min", type=float, default=None)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--p-step", type=float, default=0.05)

    p = sub.add_parser("success-prob",
                       help="probability of outcomes whose fidelity clears a threshold")
    _add_common(p)
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--scan-step", type=float, default=0.01)

    p = sub.add_parser("window", help="acceptance window {X : F(X) >= f_min}")
    _add_common(p)
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--scan-step", type=float, default=0.01)

    p = sub.add_parser("noise-loss", help="fidelity under final-stage photon loss")
    _add_common(p, with_x=True)
    p.add_argument("--loss-probs", default="0,0.1,0.2,0.3,0.4,0.5,0.6",
                   help="comma-separated loss probabilities")
    p.add_argument("--direct-flip", action="store_true",
                   help="read each probability as the phase-flip probability itself")

    p = sub.add_parser("noise-phase", help="Gaussian phase-fluctuation averaged fidelity")
    _add_common(p, with_x=True)
    p.add_argument("--sigma-max", type=float, default=0.3)
    p.add_argument("--sigma-step", type=float, default=0.01)
    p.add_argument("--magnitude-only", action="store_true",
                   help="average |<cat|psi>| instead of its square")

    p = sub.add_parser("reproduce", help="emit the canonical figure/table data series")
    p.add_argument("what", choices=("fig2", "fig3", "fig4", "fig5", "table1"))
    p.add_argument("--outdir", default=None, help="directory for the CSV files")

    p = sub.add_parser("verify", help="run the exactness and oracle cross-checks")
    p.add_argument("--fast", action="store_true", help="smaller verification grid")

    return parser


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _cmd_decompose(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    decomp = kerr_decompose(args.alpha, n)
    if (args.format or "csv") == "json":
        _write_json(args.output, state_to_json_dict(decomp.state))
    else:
        _write_csv(args.output, ("n", "re", "im", "magnitude", "zeta_n"),
                   [(k, re, im, mag, z) for k, re, im, mag, z in coefficient_rows(n)])
    return 0


def _cmd_evolve_fock(parser, args) -> int:
    alpha = complex(args.alpha, args.alpha_im)
    if alpha == 0:
        parser.error("--alpha must be nonzero")
    if args.lambda_tau <= 0:
        parser.error("--lambda-tau must be positive")
    cutoff = args.cutoff if args.cutoff is not None else recommended_cutoff(alpha)
    state = kerr_fock_evolve(KerrParams(args.lambda_tau, alpha), cutoff)
    rows = [(k, float(c.real), float(c.imag), float(abs(c) ** 2))
            for k, c in enumerate(state.amplitudes)]
    _write_csv(args.output, ("n", "re", "im", "prob"), rows)
    print(f"truncation_deficit={state.truncation_deficit:.3e}", file=sys.stderr)
    return 0


def _cmd_condition(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    psi = condition_at(args.alpha, n, args.x)
    if (args.format or "json") == "json":
        _write_json(args.output, state_to_json_dict(psi, measurement_x=args.x))
    else:
        rows = [(float(c.real), float(c.imag), float(a.real), float(a.imag))
                for c, a in zip(psi.coeffs, psi.amps)]
        _write_csv(args.output, ("coeff_re", "coeff_im", "amp_re", "amp_im"), rows)
    return 0


def _target_from_args(parser, args, n: int) -> complex:
    if (args.target_re is None) != (args.target_im is None):
        parser.error("--target-re and --target-im must be given together")
    if args.target_re is not None:
        t = complex(args.target_re, args.target_im)
        if t == 0:
            parser.error("target amplitude must be nonzero")
        return t
    return default_target_beta(kerr_decompose(args.alpha, n), 0.0)


def _cmd_fidelity(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    target = _target_from_args(parser, args, n)
    if args.state is not None:
        psi, meas_x = load_state(args.state)
        x = meas_x if meas_x is not None else args.x
        report = cat_fidelity(psi, target)
    else:
        x = args.x
        psi = condition_at(args.alpha, n, x)
        report = cat_fidelity(psi, target)
    print(f"fidelity={_fmt(report.fidelity)} phi_max={_fmt(report.phi_max)} "
          f"target_re={_fmt(report.target_beta.real)} target_im={_fmt(report.target_beta.imag)}")
    if args.output is not None:
        _write_csv(args.output, ("x", "fidelity", "phi_max"),
                   [(float(x), report.fidelity, report.phi_max)])
    return 0


def _cmd_fidelity_curve(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    if args.x_step <= 0 or args.x_max < args.x_min:
        parser.error("bad grid bounds")
    grid = _grid(args.x_min, args.x_max, args.x_step)
    pts = fidelity_curve(args.alpha, n, grid)
    _write_csv(args.output, ("x", "fidelity", "phi_max"),
               [(p.x, p.fidelity, p.phi_max) for p in pts])
    return 0


def _p_grid(args, alpha: float):
    span = math.sqrt(2.0) * alpha + 8.0
    lo = args.p_min if args.p_min is not None else -span
    hi = args.p_max if args.p_max is not None else span
    return _grid(lo, hi, args.p_step)


def _cmd_pdist_pre(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    rows = precondition_p_distribution(args.alpha, n, _p_grid(args, args.alpha))
    _write_csv(args.output, ("p", "density"), rows)
    return 0


def _cmd_pdist_post(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    rows = conditioned_p_distribution(args.alpha, n, args.x, _p_grid(args, args.alpha))
    _write_csv(args.output, ("p", "density"), rows)
    return 0


def _window_rows(alpha, n, f_min, window, prob):
    ivs = ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in window.intervals)
    return [(n, float(alpha), float(f_min), ivs, float(prob))]


def _cmd_success_prob(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    if not (0.0 < args.f_min < 1.0):
        parser.error("--f-min must lie strictly between 0 and 1")
    window = window_from_threshold(args.alpha, n, args.f_min, scan_step=args.scan_step)
    prob = success_probability(args.alpha, n, window)
    print(f"success_probability={_fmt(prob)}")
    if args.output is not None:
        _write_csv(args.output,
                   ("n", "alpha_i", "f_min", "window_intervals", "probability"),
                   _window_rows(args.alpha, n, args.f_min, window, prob))
    return 0


def _cmd_window(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    if not (0.0 < args.f_min < 1.0):
        parser.error("--f-min must lie strictly between 0 and 1")
    window = window_from_threshold(args.alpha, n, args.f_min, scan_step=args.scan_step)
    for lo, hi in window.intervals:
        print(f"[{_fmt(lo)}, {_fmt(hi)}]")
    _write_csv(args.output, ("x_lo", "x_hi"),
               [(lo, hi) for lo, hi in window.intervals])
    return 0


def _cmd_noise_loss(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    try:
        probs = [float(tok) for tok in args.loss_probs.split(",") if tok.strip()]
    except ValueError:
        parser.error("--loss-probs must be a comma-separated list of numbers")
    rows = []
    for p in probs:
        noise = NoiseParams(loss_prob=p, direct_flip=args.direct_flip)
        rows.append((float(p), lossy_fidelity(args.alpha, n, args.x, noise)))
        print(f"loss={p:g} fidelity={_fmt(rows[-1][1])}")
    if args.output is not None:
        _write_csv(args.output, ("loss_prob", "fidelity"), rows)
    return 0


def _cmd_noise_phase(parser, args) -> int:
    _check_alpha(parser, args.alpha)
    n = _resolve_n(parser, args)
    if args.sigma_step <= 0 or args.sigma_max < 0:
        parser.error("bad sigma grid")
    sigmas = _grid(0.0, args.sigma_max, args.sigma_step)
    rows = [(float(s), phase_noise_avg_fidelity(args.alpha, n, args.x, float(s),
                                                magnitude_only=args.magnitude_only))
            for s in sigmas]
    _write_csv(args.output, ("sigma", "avg_fidelity"), rows)
    return 0


def _cmd_reproduce(parser, args) -> int:
    outdir = args.outdir or os.environ.get(ENV_OUTDIR) or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.what}.csv")

    if args.what == "fig2":
        grid = _grid(-30.0, 30.0, 0.05)
        pre = precondition_p_distribution(20.0, 20, grid)
        post = conditioned_p_distribution(20.0, 20, 0.0, grid)
        rows = [(p, dpre, dpost) for (p, dpre), (_, dpost) in zip(pre, post)]
        header = ("p", "density_before_split", "density_conditioned_x0")
    elif args.what == "fig3":
        grid = _grid(-3.0, 3.0, 0.01)
        series = {n: fidelity_curve(20.0, n, grid) for n in (20, 40, 60)}
        header = ("x",
                  "fidelity_n20", "phi_max_n20",
                  "fidelity_n40", "phi_max_n40",
                  "fidelity_n60", "phi_max_n60")
        rows = [(pt20.x, pt20.fidelity, pt20.phi_max,
                 pt40.fidelity, pt40.phi_max,
                 pt60.fidelity, pt60.phi_max)
                for pt20, pt40, pt60 in zip(series[20], series[40], series[60])]
    elif args.what == "fig4":
        grid = _grid(-30.0, 30.0, 0.02)
        rows = conditioned_p_distribution(20.0, 200, 0.0, grid)
        header = ("p", "density")
    elif args.what == "fig5":
        sigmas = _grid(0.0, 0.3, 0.01)
        cols = {n: [phase_noise_avg_fidelity(20.0, n, 0.0, float(s)) for s in sigmas]
                for n in (20, 40, 60)}
        header = ("sigma", "avg_fidelity_n20", "avg_fidelity_n40", "avg_fidelity_n60")
        rows = [(float(s), cols[20][i], cols[40][i], cols[60][i])
                for i, s in enumerate(sigmas)]
    else:  # table1
        rows = []
        w20 = window_from_threshold(20.0, 20, 0.99999)
        rows.append(("success_prob_n20_fmin0.99999", success_probability(20.0, 20, w20)))
        w40 = window_from_threshold(20.0, 40, 0.99)
        rows.append(("success_prob_n40_fmin0.99", success_probability(20.0, 40, w40)))
        w60 = window_from_threshold(20.0, 60, 0.9)
        rows.append(("success_prob_n60_fmin0.9", success_probability(20.0, 60, w60)))
        grid = _grid(-3.0, 3.0, 0.01)
        rows.append(("max_fidelity_n60",
                     max(p.fidelity for p in fidelity_curve(20.0, 60, grid))))
        pk = cat_fidelity(condition_at(20.0, 20, 0.0),
                          default_target_beta(kerr_decompose(20.0, 20), 0.0))
        rows.append(("peak_fidelity_n20_x0", pk.fidelity))
        for loss in (0.10, 0.30, 0.60):
            rows.append((f"lossy_fidelity_n20_x0_loss{loss:g}",
                         lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=loss))))
        header = ("quantity", "value")

    _write_csv(path, header, rows)
    return 0


def _cmd_verify(parser, args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")
        if not ok:
            failures += 1

    ns = list(range(1, 17)) if args.fast else list(range(1, 65)) + [200, 256]
    worst = max(verify_phase_identity(n) for n in ns)
    check("ring-coefficient exactness identity", worst < 1e-12, f"max residual {worst:.2e}")

    grid_a = (1.0, 2.0, 4.0) if args.fast else (1.0, 2.0, 4.0, 6.0, 8.0)
    grid_n = (2, 3, 4) if args.fast else (2, 3, 4, 5, 8, 20)
    worst_ov = 1.0
    for a in grid_a:
        for n in grid_n:
            cutoff = int(a * a + 10 * a + 50)
            fock = kerr_fock_evolve(KerrParams(math.pi / n, a), cutoff)
            dec = fock_expand(kerr_decompose(a, n).state, cutoff)
            worst_ov = min(worst_ov, abs(fock.overlap(dec)))
    check("number-basis oracle equivalence", worst_ov >= 1.0 - 1e-8,
          f"min overlap {worst_ov:.12f}")

    norm_dev = 0.0
    for a in (1.0, 5.0, 20.0):
        for n in (2, 5, 20, 60):
            psi = kerr_decompose(a, n).state
            norm_dev = max(norm_dev, abs(psi.squared_norm() - 1.0))
            norm_dev = max(norm_dev, abs(beamsplit_with_vacuum(psi).squared_norm() - 1.0))
    check("unitarity and split-norm preservation", norm_dev < 1e-10,
          f"max deviation {norm_dev:.2e}")

    return 3 if failures else 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "evolve-fock": _cmd_evolve_fock,
    "condition": _cmd_condition,
    "fidelity": _cmd_fidelity,
    "fidelity-curve": _cmd_fidelity_curve,
    "pdist-pre": _cmd_pdist_pre,
    "pdist-post": _cmd_pdist_post,
    "success-prob": _cmd_success_prob,
    "window": _cmd_window,
    "noise-loss": _cmd_noise_loss,
    "noise-phase": _cmd_noise_phase,
    "reproduce": _cmd_reproduce,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](parser, args)
    except SystemExit as exc:  # argparse --help/--version and usage errors
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 1)
    except (DegenerateStateError, TruncationError, ArithmeticError) as exc:
        print(f"kerrcat: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"kerrcat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
