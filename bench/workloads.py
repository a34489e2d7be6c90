"""Workloads of the kerrcat benchmark: the CLI commands each one runs, the file
each command writes, and the tolerance every written value is checked to.

A command's argv may contain ``{out}``, replaced by the directory the command
writes into.  Columns not listed in ``values`` are keys (grid points, indices,
labels) and must match the reference text exactly.  ``known`` gives the
envelope of a value column that has documented baseline defects
(bench/README.md, "Expected baseline failures").  It applies only to the cells
listed in refs/known.csv, the ones that miss at the baseline: such a miss
still counts in ``failed_frac`` but does not make the run incorrect.  Any other
miss does.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tol:
    """Accept ``v`` against reference ``r`` when
    ``|v - r| <= atol + rtol * |r| + peak * max|reference column|``;
    with ``phase`` the difference is taken modulo 2 pi."""

    atol: float = 0.0
    rtol: float = 0.0
    peak: float = 0.0
    phase: bool = False


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    output: str                                  # file name in {out}; "-" = stdout
    values: dict[str, Tol]
    known: dict[str, Tol] = field(default_factory=dict)  # envelopes, see refs/known.csv
    rows: dict[str, Tol] = field(default_factory=dict)   # by first column; overrides values


# Phi-maximized fidelities: the seed agrees with the number-basis oracle and
# with an independent phi search far inside this (see make_refs.py).
FIDELITY = Tol(atol=1e-9)
PHI = Tol(atol=1e-6, phase=True)
# Window edges are bisected to 1e-6 in X and the density is below 1/sqrt(pi).
PROBABILITY = Tol(atol=2e-6)
# phase_noise_avg_fidelity documents an absolute tolerance of 1e-8.
PHASE_NOISE = Tol(atol=1e-8)
# P densities against the number-basis route: at N <= 200 both routes agree to
# ~1e-12 of the peak; at N >= 1024 a double-precision number-basis evaluation
# itself loses ~8 digits (outcome density 3.3e-14 at N=1024, X=1).
DENSITY = Tol(rtol=1e-8, peak=1e-11)
DENSITY_LARGE_N = Tol(rtol=1e-6, peak=1e-6)
# N=4096 ring coefficients (|C| = 1/64) against the integer-reduced Gauss sum.
COEFFICIENT = Tol(atol=1e-12)
COEFFICIENT_PHASE = Tol(atol=1e-10, phase=True)
VERIFY_OK = Tol()

COMMANDS: dict[str, Command] = {
    "fig3": Command(
        ("reproduce", "fig3", "--outdir", "{out}"), "fig3.csv",
        {f"{q}_n{n}": (FIDELITY if q == "fidelity" else PHI)
         for n in (20, 40, 60) for q in ("fidelity", "phi_max")}),
    "table1": Command(
        ("reproduce", "table1", "--outdir", "{out}"), "table1.csv",
        {"value": FIDELITY},
        rows={q: PROBABILITY for q in ("success_prob_n20_fmin0.99999",
                                       "success_prob_n40_fmin0.99",
                                       "success_prob_n60_fmin0.9")}),
    "fig5": Command(
        ("reproduce", "fig5", "--outdir", "{out}"), "fig5.csv",
        {f"avg_fidelity_n{n}": PHASE_NOISE for n in (20, 40, 60)},
        known={f"avg_fidelity_n{n}": Tol(atol=1e-6) for n in (20, 40, 60)}),
    "fig2": Command(
        ("reproduce", "fig2", "--outdir", "{out}"), "fig2.csv",
        {"density_before_split": DENSITY, "density_conditioned_x0": DENSITY}),
    "fig4": Command(
        ("reproduce", "fig4", "--outdir", "{out}"), "fig4.csv",
        {"density": DENSITY}),
    "verify": Command(("verify",), "-", {"ok": VERIFY_OK}),
    "decompose_n4096": Command(
        ("decompose", "--n", "4096", "--output", "{out}/decompose_n4096.csv"),
        "decompose_n4096.csv",
        {"re": COEFFICIENT, "im": COEFFICIENT, "magnitude": COEFFICIENT,
         "zeta_n": COEFFICIENT_PHASE}),
    "pdist_post_n1024_x1": Command(
        ("pdist-post", "--n", "1024", "--x", "1", "--output", "{out}/pdist_post_n1024_x1.csv"),
        "pdist_post_n1024_x1.csv",
        {"density": DENSITY_LARGE_N},
        known={"density": Tol(rtol=2e-2, peak=1e-6)}),
    "pdist_post_n4096_x0": Command(
        ("pdist-post", "--n", "4096", "--x", "0", "--output", "{out}/pdist_post_n4096_x0.csv"),
        "pdist_post_n4096_x0.csv",
        {"density": DENSITY_LARGE_N},
        known={"density": Tol(peak=1.0)}),
}

WORKLOADS: dict[str, tuple[str, ...]] = {
    "outcome-grid": ("fig3", "table1"),
    "phase-and-big-ring": ("fig5", "fig2", "fig4", "verify", "decompose_n4096",
                           "pdist_post_n1024_x1", "pdist_post_n4096_x0"),
}
