"""Cat-state quality metrics: phase-maximized fidelity, fidelity-vs-outcome
curves, acceptance windows, success probabilities and quadrature distributions.

The target of every fidelity is a two-branch cat

    N(phi) (|beta> + e^{i phi} |partner>),
    N(phi) = [2 + 2 Re(e^{i phi} <beta|partner>)]^{-1/2},

maximized over the relative phase phi.  For the ideal cat the partner branch
is -beta; for a state conditioned on an outcome X != 0 the two dominant ring
components share their real part (the measured quadrature pins it), so the
natural partner of branch beta is conj(beta) - which collapses back to -beta
at the symmetric outcome X = 0.  :func:`partner_for` encodes exactly that
rule, falling back to -beta whenever beta is real (the two-component ring).

Fidelity curves, acceptance windows and success probabilities all evaluate
against the nominal target cat the scheme aims to produce: the dominant
branch at the reference outcome X = 0.  Re-targeting every outcome separately
would score the (displaced, smaller) cats produced far from X = 0 as
successes and inflate the success probability several-fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .conditioning import _collapse, beamsplit_with_vacuum
from .kerr import KerrDecomposition, kerr_decompose
from .states import (
    CoherentSuperposition,
    DegenerateStateError,
    SQRT2,
    _log_polar,
    _overlap_log_blocks,
    _x_amplitude_log_arrays,
    coherent_overlap,
    p_marginal_density,
    superposition,
)


def partner_for(beta: complex) -> complex:
    """Second branch of the target cat paired with branch ``beta``."""
    b = complex(beta)
    if abs(b.imag) <= 1e-12 * abs(b):
        return -b
    return b.conjugate()


@dataclass(frozen=True)
class CatState:
    """Two-branch cat N(phi) (|beta> + e^{i phi} |partner_beta>).

    ``partner_beta`` defaults to -beta (the ideal cat); the normalization is
    then [2 + 2 cos(phi) e^{-2 |beta|^2}]^{-1/2}.
    """

    beta: complex
    phi: float
    partner_beta: complex | None = None

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("cat branch amplitude must be nonzero")
        if self.partner_beta is not None and \
                abs(complex(self.partner_beta) - complex(self.beta)) < 1e-9:
            raise ValueError("cat branches must be distinct")

    @property
    def partner(self) -> complex:
        return -self.beta if self.partner_beta is None else self.partner_beta

    def normalization(self) -> float:
        cross = coherent_overlap(self.beta, self.partner)
        den = 2.0 + 2.0 * (np.exp(1j * self.phi) * cross).real
        return 1.0 / math.sqrt(den)

    def to_superposition(self) -> CoherentSuperposition:
        nrm = self.normalization()
        return superposition(
            [nrm, nrm * np.exp(1j * self.phi)],
            [self.beta, self.partner],
            normalized=True,
        )


@dataclass(frozen=True)
class FidelityReport:
    """Result of a phi-maximized fidelity evaluation."""

    fidelity: float
    phi_max: float
    target_beta: complex


@dataclass(frozen=True)
class FidelityCurvePoint:
    x: float
    fidelity: float
    phi_max: float
    degenerate: bool = False


@dataclass(frozen=True)
class AcceptanceWindow:
    """Disjoint union of measurement-outcome intervals accepted as success."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"empty or inverted interval ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("intervals must be disjoint and ascending")
            prev_hi = hi

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


# --------------------------------------------------------------------------
# phi maximization
# --------------------------------------------------------------------------

def _phi_objective(A: complex, B: complex, cross: complex, phi):
    num = (abs(A) ** 2 + abs(B) ** 2
           + 2.0 * (np.conj(A) * B * np.exp(-1j * np.asarray(phi))).real)
    den = 2.0 + 2.0 * (cross * np.exp(1j * np.asarray(phi))).real
    return num / den


def _max_phi(A: complex, B: complex, cross: complex) -> tuple[float, float]:
    """Maximize |A + e^{-i phi} B|^2 N(phi)^2 over phi in closed form.

    With a = |A|^2 + |B|^2, conj(A) B = r e^{i t1} and cross = s e^{i t2} the
    objective is (a + 2 r cos(t1 - phi)) / (2 + 2 s cos(t2 + phi)), and its
    stationary points solve P sin(phi) + Q cos(phi) = -2 r s sin(t1 + t2),
    where P + i Q = a cross - 2 r e^{-i t1}.  Both roots are evaluated and the
    larger kept; phi = 0 when P = Q = 0 (the objective is then constant).
    """
    A, B, cross = complex(A), complex(B), complex(cross)
    w = A.conjugate() * B
    pq = (abs(A) ** 2 + abs(B) ** 2) * cross - 2.0 * w.conjugate()
    rho = abs(pq)
    if rho == 0.0:
        phis = (0.0,)
    else:
        delta = math.atan2(pq.imag, pq.real)
        root = math.asin(min(1.0, max(-1.0, -2.0 * (w * cross).imag / rho)))
        phis = (root - delta, math.pi - root - delta)
    vals = [float(_phi_objective(A, B, cross, phi)) for phi in phis]
    i = int(np.argmax(vals))
    return vals[i], float(phis[i] % (2.0 * np.pi))


def cat_fidelity(psi: CoherentSuperposition, target_beta: complex,
                 partner_beta: complex | None = None) -> FidelityReport:
    """max over phi of |<cat_{target_beta, phi}|psi>|^2 (psi assumed normalized)."""
    bt = complex(target_beta)
    if bt == 0:
        raise ValueError("target amplitude must be nonzero")
    pt = partner_for(bt) if partner_beta is None else complex(partner_beta)
    cross = coherent_overlap(bt, pt)
    if abs(cross) > 1.0 - 1e-12:
        raise ValueError("target and partner branches coincide; not a cat")
    fid, phi = _max_phi(*_branch_terms(psi, bt, pt), complex(cross))
    return FidelityReport(fid, phi, bt)


def cat_overlap(psi: CoherentSuperposition, target_beta: complex, phi: float,
                partner_beta: complex | None = None) -> float:
    """|<cat_{target_beta, phi}|psi>|^2 at a fixed relative phase phi."""
    bt = complex(target_beta)
    pt = partner_for(bt) if partner_beta is None else complex(partner_beta)
    cross = coherent_overlap(bt, pt)
    return float(_phi_objective(*_branch_terms(psi, bt, pt), complex(cross), phi))


def default_target_beta(decomp: KerrDecomposition, X: float) -> complex:
    """Branch amplitude of the component favored by outcome X (after the split).

    Returns beta_k / sqrt2 for the k maximizing |<X|beta_k/sqrt2>|; ties pick
    the smallest k (at X = 0 with 4 | N that is k = N/4, amplitude
    -i alpha_i / sqrt2).
    """
    split = decomp.state.amps / SQRT2
    logmag, _ = _x_amplitude_log_arrays(float(X), split)
    return complex(split[int(np.argmax(logmag))])


# --------------------------------------------------------------------------
# cached conditioning pipeline
# --------------------------------------------------------------------------

_GRAM_CACHE_LIMIT = 1024


class _Pipeline:
    """Per-(alpha_i, n) cache of the decompose -> split chain for conditioning.

    Holds the decomposition, its split, the split coefficients' log-polar form
    and, up to ``_GRAM_CACHE_LIMIT`` components, the ring Gram blocks
    <b_m|b_n> (rotation invariant, so they also serve rotated rings).
    """

    def __init__(self, alpha_i: float, n: int):
        self.decomp = kerr_decompose(alpha_i, n)
        self.two_mode = beamsplit_with_vacuum(self.decomp.state)
        self.log_c, self.arg_c = _log_polar(self.two_mode.coeffs)
        amps = self.two_mode.amps
        self.gram = _overlap_log_blocks(amps, amps) if n <= _GRAM_CACHE_LIMIT else None

    def target(self, reference_x: float = 0.0) -> complex:
        return default_target_beta(self.decomp, reference_x)

    def density(self, x: float) -> float:
        return _collapse(self.log_c, self.arg_c, self.two_mode.amps, x, self.gram).density()

    def conditioned(self, x: float, rotation: float = 0.0) -> CoherentSuperposition:
        amps = self.two_mode.amps
        if rotation != 0.0:
            amps = amps * np.exp(1j * rotation)
        return _collapse(self.log_c, self.arg_c, amps, x, self.gram).state()

    def fidelity_terms(self, x: float, bt: complex, pt: complex,
                       rotation: float = 0.0):
        """(A, B) = (<bt|psi_x>, <pt|psi_x>) of the conditioned state."""
        return _branch_terms(self.conditioned(x, rotation), bt, pt)


def _branch_terms(psi: CoherentSuperposition, bt: complex, pt: complex):
    """(A, B) = (<bt|psi>, <pt|psi>), the branch amplitudes of a cat fidelity."""

    def amplitude(beta: complex) -> complex:
        cross = np.conj(complex(beta)) * psi.amps
        row = np.exp(cross - 0.5 * (abs(beta) ** 2 + np.abs(psi.amps) ** 2))
        return complex(np.sum(psi.coeffs * row))

    return amplitude(bt), amplitude(pt)


@lru_cache(maxsize=16)
def _pipeline(alpha_i: float, n: int) -> _Pipeline:
    return _Pipeline(alpha_i, n)


def _fidelity_point(pipe: _Pipeline, x: float, bt: complex, pt: complex,
                    cross: complex) -> FidelityCurvePoint:
    try:
        A, B = pipe.fidelity_terms(x, bt, pt)
    except DegenerateStateError:
        return FidelityCurvePoint(x, 0.0, 0.0, True)
    fid, phi = _max_phi(A, B, cross)
    return FidelityCurvePoint(x, fid, phi, False)


# --------------------------------------------------------------------------
# curves, windows, probabilities
# --------------------------------------------------------------------------

def fidelity_curve(alpha_i: float, n: int, x_grid,
                   reference_x: float = 0.0,
                   workers: int | None = None) -> list[FidelityCurvePoint]:
    """Conditioned-state fidelity at each outcome in ``x_grid``.

    The target cat is fixed at the reference outcome (default X = 0):
    branch = the dominant ring component there.  Degenerate outcomes are
    flagged and scored 0.
    """
    xs = [float(x) for x in np.atleast_1d(np.asarray(x_grid, dtype=float))]
    if workers is not None and workers > 1 and len(xs) > 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, len(xs), 4 * workers + 1, dtype=int)
        chunks = [(alpha_i, n, tuple(xs[a:b]), reference_x)
                  for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        out: list[FidelityCurvePoint] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_curve_chunk, chunks):
                out.extend(FidelityCurvePoint(*p) for p in part)
        return out
    return [FidelityCurvePoint(*p) for p in _curve_chunk((alpha_i, n, tuple(xs), reference_x))]


def _curve_chunk(args):
    alpha_i, n, xs, reference_x = args
    pipe = _pipeline(alpha_i, n)
    bt = pipe.target(reference_x)
    pt = partner_for(bt)
    cross = coherent_overlap(bt, pt)
    out = []
    for x in xs:
        p = _fidelity_point(pipe, x, bt, pt, cross)
        out.append((p.x, p.fidelity, p.phi_max, p.degenerate))
    return out


def window_from_threshold(alpha_i: float, n: int, f_min: float,
                          scan_step: float = 0.01,
                          workers: int | None = None) -> AcceptanceWindow:
    """Outcome region {X : F(X) >= f_min}, scanned over [-(alpha_i+5), alpha_i+5].

    Threshold crossings are refined by bisection to 1e-6.  May be empty.
    """
    if not (0.0 < f_min < 1.0):
        raise ValueError("f_min must lie strictly between 0 and 1")
    lo, hi = -(alpha_i + 5.0), alpha_i + 5.0
    xs = np.arange(lo, hi + 0.5 * scan_step, scan_step)
    pts = fidelity_curve(alpha_i, n, xs, workers=workers)
    above = np.array([p.fidelity >= f_min for p in pts])

    pipe = _pipeline(alpha_i, n)
    bt = pipe.target(0.0)
    pt = partner_for(bt)
    cross = coherent_overlap(bt, pt)

    def fid(x: float) -> float:
        return _fidelity_point(pipe, x, bt, pt, cross).fidelity

    def bisect(a: float, b: float, want_high_at_b: bool) -> float:
        # invariant: exactly one of (a, b) is above threshold
        while b - a > 1e-6:
            m = 0.5 * (a + b)
            if (fid(m) >= f_min) == want_high_at_b:
                b = m
            else:
                a = m
        return 0.5 * (a + b)

    intervals = []
    i = 0
    while i < len(xs):
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(xs) and above[j + 1]:
            j += 1
        left = xs[i] if i == 0 else bisect(xs[i - 1], xs[i], True)
        right = xs[j] if j == len(xs) - 1 else bisect(xs[j], xs[j + 1], False)
        if left < right:
            intervals.append((float(left), float(right)))
        i = j + 1
    return AcceptanceWindow(tuple(intervals))


def success_probability(alpha_i: float, n: int, window: AcceptanceWindow) -> float:
    """Probability mass of the outcome density over the acceptance window."""
    pipe = _pipeline(alpha_i, n)
    total = 0.0
    for lo, hi in window.intervals:
        val, _ = quad(pipe.density, lo, hi, epsabs=1e-9, epsrel=1e-10, limit=300)
        total += val
    return total


def outcome_density(alpha_i: float, n: int, X: float) -> float:
    """Convenience wrapper: homodyne density of the split decomposition."""
    return _pipeline(alpha_i, n).density(float(X))


def _density_on_grid(psi: CoherentSuperposition, p_grid) -> list[tuple[float, float]]:
    return [(float(p), p_marginal_density(psi, float(p))) for p in p_grid]


def conditioned_p_distribution(alpha_i: float, n: int, X: float,
                               p_grid) -> list[tuple[float, float]]:
    """P-quadrature density of the state conditioned on outcome X."""
    psi = _pipeline(alpha_i, n).conditioned(float(X))
    return _density_on_grid(psi, np.atleast_1d(np.asarray(p_grid, dtype=float)))


def precondition_p_distribution(alpha_i: float, n: int,
                                p_grid) -> list[tuple[float, float]]:
    """P-quadrature density of the ring state before the beam splitter."""
    decomp = _pipeline(alpha_i, n).decomp
    return _density_on_grid(decomp.state, np.atleast_1d(np.asarray(p_grid, dtype=float)))


def condition_at(alpha_i: float, n: int, X: float) -> CoherentSuperposition:
    """Full chain decompose -> split -> condition at outcome X."""
    return _pipeline(alpha_i, n).conditioned(float(X))


__all__ = [
    "AcceptanceWindow",
    "CatState",
    "FidelityCurvePoint",
    "FidelityReport",
    "cat_fidelity",
    "cat_overlap",
    "condition_at",
    "conditioned_p_distribution",
    "default_target_beta",
    "fidelity_curve",
    "outcome_density",
    "partner_for",
    "precondition_p_distribution",
    "success_probability",
    "window_from_threshold",
]
