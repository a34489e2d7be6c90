"""Command-line front end: parameter sweeps, figure-data emission, state I/O.

Every command is deterministic: identical invocations produce byte-identical
output files.  CSV is the plotting interface; no plotting code ships.

Exit codes: 0 success, 1 malformed arguments or an unreadable or malformed
file, 2 numerical failure (degenerate state, truncation), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .kerr import (
    KerrParams,
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
    default_target_beta,
    fidelity_columns,
    fidelity_curve,
    max_fidelity,
    success_probability,
    window_from_threshold,
)
from .noise import NoiseParams, lossy_fidelity, phase_noise_avg_fidelity
from .states import load_state, normalization_mismatch, p_marginal_density, state_to_json_dict

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
    if not (0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise ValueError(f"bad grid {lo:g} to {hi:g} step {step:g}: "
                         "need finite values, step > 0 and max >= min")
    return np.arange(round(lo / step), round(hi / step) + 1) * step


def _write(path: str | None, emit) -> None:
    """Call emit on stdout, or on the file at path and report it."""
    if path is None:
        emit(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        emit(fh)
    print(f"wrote {path}")


def _write_csv(path: str | None, header, rows) -> None:
    """Write CSV to path (or stdout): the header line, then every row through
    one '%'-template built from the first row.

    A number prints at 17 significant digits (``%.17g``, so an int prints as
    itself) and a label, a str cell, as it is.  Raises ValueError before
    anything is written if a row's length differs from the header's or a
    label (the header's included) holds a comma, a quote, CR or LF: the
    template does not quote.
    """
    rows = list(rows)
    if set(map(len, rows)) - {len(header)}:
        raise ValueError(f"every CSV row must have the header's {len(header)} cells")
    label_cols = [i for i, v in enumerate(rows[0]) if isinstance(v, str)] if rows else []
    for label in (*header, *(row[i] for i in label_cols for row in rows)):
        if any(ch in label for ch in ',"\r\n'):
            raise ValueError(f"CSV label {label!r} holds a comma, a quote or a line break")
    template = ",".join("%s" if i in label_cols else "%.17g" for i in range(len(header))) + "\n"
    cells = tuple(itertools.chain.from_iterable(rows))
    text = ",".join(header) + "\n" + template * len(rows) % cells
    _write(path, lambda fh: fh.write(text))


def _write_json(path: str | None, doc) -> None:
    def emit(fh):
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    _write(path, emit)


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0) or not math.isfinite(alpha):
        raise ValueError("--alpha must be a positive real number")


def _add_common(sub, *, with_x=False, output="output file (default stdout)"):
    """Ring arguments (--alpha checked in main), --x and --output (``output``
    is its help)."""
    sub.add_argument("--alpha", type=float, default=20.0,
                     help="initial coherent amplitude (real, default 20)")
    sub.add_argument("--n", type=int, default=20,
                     help="ring size N; interaction phase is pi/N (default 20)")
    if with_x:
        sub.add_argument("--x", type=float, default=0.0,
                         help="homodyne outcome on the monitored mode (default 0)")
    sub.add_argument("--output", default=None, help=output)


def _decompose_args(p):
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _evolve_fock_args(p):
    p.add_argument("--alpha", type=float, default=20.0)
    p.add_argument("--alpha-im", type=float, default=0.0,
                   help="imaginary part of the input amplitude")
    p.add_argument("--lambda-tau", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=None,
                   help="number-basis cutoff (default |alpha|^2 + 10|alpha| + 20)")
    p.add_argument("--output", default=None)


def _condition_args(p):
    _add_common(p, with_x=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _fidelity_args(p):
    _add_common(p, with_x=True, output="also write x, fidelity and phi_max to this CSV "
                                       "file (the summary line is printed either way)")
    p.add_argument("--state", default=None,
                   help="JSON state file to score, normalized, instead of running the pipeline")
    p.add_argument("--target-re", type=float, default=None)
    p.add_argument("--target-im", type=float, default=None)


def _fidelity_curve_args(p):
    _add_common(p)
    p.add_argument("--x-min", type=float, default=-3.0)
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--x-step", type=float, default=0.01)


def _pdist_args(p, *, with_x):
    _add_common(p, with_x=with_x)
    p.add_argument("--p-min", type=float, default=None)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--p-step", type=float, default=0.05)


def _window_args(p, *, output):
    _add_common(p, output=output)
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--scan-step", type=float, default=0.01)


def _noise_loss_args(p):
    _add_common(p, with_x=True, output="also write loss_prob and fidelity to this CSV file "
                                       "(one line per probability is printed either way)")
    p.add_argument("--loss-probs", default="0,0.1,0.2,0.3,0.4,0.5,0.6",
                   help="comma-separated loss probabilities")
    p.add_argument("--direct-flip", action="store_true",
                   help="read each probability as the phase-flip probability itself")


def _noise_phase_args(p):
    _add_common(p, with_x=True)
    p.add_argument("--sigma-max", type=float, default=0.3)
    p.add_argument("--sigma-step", type=float, default=0.01)


def _reproduce_args(p):
    p.add_argument("what", choices=("fig2", "fig3", "fig4", "fig5", "table1"))
    p.add_argument("--outdir", default="",
                   help=f"directory for the CSV files, under ${ENV_OUTDIR} if relative "
                        f"(default ${ENV_OUTDIR}, else the current directory)")


def _verify_args(p):
    p.add_argument("--fast", action="store_true", help="smaller verification grid")


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    if args.format == "json":
        _write_json(args.output, state_to_json_dict(kerr_decompose(args.alpha, args.n)))
    else:  # the coefficients alone: main has checked --alpha, and they check --n
        _write_csv(args.output, ("n", "re", "im", "magnitude", "zeta_n"),
                   coefficient_rows(args.n))
    return 0


def _cmd_evolve_fock(args) -> int:
    alpha = complex(args.alpha, args.alpha_im)
    if alpha == 0:
        raise ValueError("--alpha must be nonzero")
    params = KerrParams(args.lambda_tau, alpha)  # checked before the cutoff is derived
    cutoff = args.cutoff if args.cutoff is not None else recommended_cutoff(alpha)
    state = kerr_fock_evolve(params, cutoff)
    rows = [(k, float(c.real), float(c.imag), float(abs(c) ** 2))
            for k, c in enumerate(state.amplitudes)]
    _write_csv(args.output, ("n", "re", "im", "prob"), rows)
    print(f"truncation_deficit={state.truncation_deficit:.3e}", file=sys.stderr)
    return 0


def _cmd_condition(args) -> int:
    psi = condition_at(args.alpha, args.n, args.x)
    if args.format == "json":
        _write_json(args.output, state_to_json_dict(psi, measurement_x=args.x))
    else:
        rows = [(float(c.real), float(c.imag), float(a.real), float(a.imag))
                for c, a in zip(psi.coeffs, psi.amps)]
        _write_csv(args.output, ("coeff_re", "coeff_im", "amp_re", "amp_im"), rows)
    return 0


def _target_from_args(args) -> complex:
    if (args.target_re is None) != (args.target_im is None):
        raise ValueError("--target-re and --target-im must be given together")
    if args.target_re is not None:
        return complex(args.target_re, args.target_im)
    return default_target_beta(kerr_decompose(args.alpha, args.n), 0.0)


def _cmd_fidelity(args) -> int:
    target = _target_from_args(args)
    if args.state is None:
        psi, x = condition_at(args.alpha, args.n, args.x), args.x
    else:
        psi, x = load_state(args.state)
        x = args.x if x is None else x
    # a flagged state is checked, not renormalized: that would move round
    # trips' last digits; cat_fidelity normalizes an unflagged one.  A null
    # norm, or one past the budget, raises either way
    if psi.is_normalized and (norm := normalization_mismatch(psi)) is not None:
        raise ValueError(f"{args.state} is marked normalized but has squared norm {norm!r}")
    report = cat_fidelity(psi, target)
    print(f"fidelity={_fmt(report.fidelity)} phi_max={_fmt(report.phi_max)} "
          f"target_re={_fmt(report.target_beta.real)} target_im={_fmt(report.target_beta.imag)}")
    if args.output is not None:
        _write_csv(args.output, ("x", "fidelity", "phi_max"),
                   [(float(x), report.fidelity, report.phi_max)])
    return 0


def _cmd_fidelity_curve(args) -> int:
    pts = fidelity_curve(args.alpha, args.n, _grid(args.x_min, args.x_max, args.x_step))
    _write_csv(args.output, ("x", "fidelity", "phi_max"),
               [(p.x, p.fidelity, p.phi_max) for p in pts])
    return 0


def _cmd_pdist(args) -> int:
    span = math.sqrt(2.0) * args.alpha + 8.0
    grid = _grid(-span if args.p_min is None else args.p_min,
                 span if args.p_max is None else args.p_max, args.p_step)
    psi = (kerr_decompose(args.alpha, args.n) if args.command == "pdist-pre"
           else condition_at(args.alpha, args.n, args.x))
    _write_csv(args.output, ("p", "density"),
               zip(grid.tolist(), p_marginal_density(psi, grid).tolist()))
    return 0


def _cmd_success_prob(args) -> int:
    window = window_from_threshold(args.alpha, args.n, args.f_min, scan_step=args.scan_step)
    prob = success_probability(args.alpha, args.n, window)
    print(f"success_probability={_fmt(prob)}")
    if args.output is not None:
        ivs = ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in window.intervals)
        _write_csv(args.output,
                   ("n", "alpha_i", "f_min", "window_intervals", "probability"),
                   [(args.n, args.alpha, args.f_min, ivs, float(prob))])
    return 0


def _cmd_window(args) -> int:
    window = window_from_threshold(args.alpha, args.n, args.f_min, scan_step=args.scan_step)
    for lo, hi in window.intervals:
        print(f"[{_fmt(lo)}, {_fmt(hi)}]")
    if args.output is not None:
        _write_csv(args.output, ("x_lo", "x_hi"), window.intervals)
    return 0


def _cmd_noise_loss(args) -> int:
    try:
        probs = [float(tok) for tok in args.loss_probs.split(",") if tok.strip()]
    except ValueError:
        probs = []
    if not probs:
        raise ValueError("--loss-probs must be a comma-separated list of numbers")
    rows = []
    for p in probs:
        noise = NoiseParams(loss_prob=p, direct_flip=args.direct_flip)
        rows.append((float(p), lossy_fidelity(args.alpha, args.n, args.x, noise)))
        print(f"loss={p:g} fidelity={_fmt(rows[-1][1])}")
    if args.output is not None:
        _write_csv(args.output, ("loss_prob", "fidelity"), rows)
    return 0


def _cmd_noise_phase(args) -> int:
    sigmas = _grid(0.0, args.sigma_max, args.sigma_step)
    avg = phase_noise_avg_fidelity(args.alpha, args.n, args.x, sigmas)
    _write_csv(args.output, ("sigma", "avg_fidelity"), zip(sigmas, avg))
    return 0


def _cmd_reproduce(args) -> int:
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.what}.csv")

    if args.what == "fig2":
        grid = _grid(-30.0, 30.0, 0.05)
        pre = p_marginal_density(kerr_decompose(20.0, 20), grid)
        post = p_marginal_density(condition_at(20.0, 20, 0.0), grid)
        rows = zip(grid.tolist(), pre.tolist(), post.tolist())
        header = ("p", "density_before_split", "density_conditioned_x0")
    elif args.what == "fig3":
        grid, ns = _grid(-3.0, 3.0, 0.01), (20, 40, 60)
        columns = [c.tolist() for n in ns for c in fidelity_columns(20.0, n, grid)[:2]]
        header = ("x", *(f"{q}_n{n}" for n in ns for q in ("fidelity", "phi_max")))
        rows = zip(grid.tolist(), *columns)
    elif args.what == "fig4":
        grid = _grid(-30.0, 30.0, 0.02)
        rows = zip(grid.tolist(), p_marginal_density(condition_at(20.0, 200, 0.0), grid).tolist())
        header = ("p", "density")
    elif args.what == "fig5":
        sigmas = _grid(0.0, 0.3, 0.01)
        avg = [phase_noise_avg_fidelity(20.0, n, 0.0, sigmas) for n in (20, 40, 60)]
        rows = zip(sigmas, *avg)
        header = ("sigma", "avg_fidelity_n20", "avg_fidelity_n40", "avg_fidelity_n60")
    else:  # table1
        rows = [(f"success_prob_n{n}_fmin{f_min:g}",
                 success_probability(20.0, n, window_from_threshold(20.0, n, f_min)))
                for n, f_min in ((20, 0.99999), (40, 0.99), (60, 0.9))]
        rows.append(("max_fidelity_n60", max_fidelity(20.0, 60, _grid(-3.0, 3.0, 0.01))))
        rows.append(("peak_fidelity_n20_x0", fidelity_curve(20.0, 20, [0.0])[0].fidelity))
        for loss in (0.10, 0.30, 0.60):
            rows.append((f"lossy_fidelity_n20_x0_loss{loss:g}",
                         lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=loss))))
        header = ("quantity", "value")

    _write_csv(path, header, rows)
    return 0


def _cmd_verify(args) -> int:
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
            dec = fock_expand(kerr_decompose(a, n), cutoff)
            worst_ov = min(worst_ov, abs(fock.overlap(dec)))
    check("number-basis oracle equivalence", worst_ov >= 1.0 - 1e-8,
          f"min overlap {worst_ov:.12f}")

    norm_dev = 0.0
    for a in (1.0, 5.0, 20.0):
        for n in (2, 5, 20, 60):
            psi = kerr_decompose(a, n)
            norm_dev = max(norm_dev, abs(psi.squared_norm() - 1.0))
    check("ring-norm unitarity", norm_dev < 1e-10,
          f"max deviation {norm_dev:.2e}")

    return 3 if failures else 0


# name -> (help, argument builder, handler), in the order --help lists them
_COMMANDS = {
    "decompose": ("ring decomposition at interaction phase pi/N",
                  _decompose_args, _cmd_decompose),
    "evolve-fock": ("number-basis evolution at arbitrary phase",
                    _evolve_fock_args, _cmd_evolve_fock),
    "condition": ("split on vacuum and condition on outcome X",
                  _condition_args, _cmd_condition),
    "fidelity": ("phi-maximized cat fidelity of a conditioned state",
                 _fidelity_args, _cmd_fidelity),
    "fidelity-curve": ("fidelity against the measurement outcome",
                       _fidelity_curve_args, _cmd_fidelity_curve),
    "pdist-pre": ("P distribution before the beam splitter",
                  functools.partial(_pdist_args, with_x=False), _cmd_pdist),
    "pdist-post": ("P distribution after conditioning",
                   functools.partial(_pdist_args, with_x=True), _cmd_pdist),
    "success-prob": ("probability of outcomes whose fidelity clears a threshold",
                     functools.partial(_window_args, output=(
                         "also write the window and its probability to this CSV file "
                         "(the probability is printed either way)")),
                     _cmd_success_prob),
    "window": ("acceptance window {X : F(X) >= f_min}",
               functools.partial(_window_args, output=(
                   "also write the window's intervals to this CSV file "
                   "(they are printed either way)")),
               _cmd_window),
    "noise-loss": ("fidelity under final-stage photon loss", _noise_loss_args, _cmd_noise_loss),
    "noise-phase": ("Gaussian phase-fluctuation averaged fidelity",
                    _noise_phase_args, _cmd_noise_phase),
    "reproduce": ("emit the canonical figure/table data series",
                  _reproduce_args, _cmd_reproduce),
    "verify": ("run the exactness and oracle cross-checks", _verify_args, _cmd_verify),
}


def build_parser(command: str | None = None) -> _Parser:
    """The kerrcat parser: every subcommand, or ``command``'s alone.

    A one-command parser lists every command in its usage line, so its usage
    errors read as the full parser's.  :func:`main` builds it only when the
    first word of argv is ``command``: an error about the command word itself
    would name that argument by the list instead of "command".
    """
    parser = _Parser(prog="kerrcat",
                     description="Cat states from weak Kerr nonlinearity, a 50-50 "
                                 "beam splitter and homodyne conditioning.")
    parser.add_argument("--version", action="version", version=f"kerrcat {__version__}")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # one subparser when the first word names it: building all 13 costs
    # about ten times as much as building one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if "n" in args:  # a ring command, built by _add_common
            _check_alpha(args.alpha)
        for dest in ("output", "outdir"):  # the one place KERRCAT_OUTDIR applies
            if getattr(args, dest, None) is not None:
                setattr(args, dest, os.path.join(os.environ.get(ENV_OUTDIR, ""),
                                                 getattr(args, dest)))
        return _COMMANDS[args.command][2](args)
    except SystemExit as exc:  # argparse --help/--version and usage errors
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 1)
    except ArithmeticError as exc:  # DegenerateStateError, TruncationError among them
        print(f"kerrcat: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"kerrcat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
