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


def _max_phi(A, B, cross: complex):
    """Maximize |A + e^{-i phi} B|^2 N(phi)^2 over phi in closed form, elementwise.

    With a = |A|^2 + |B|^2, conj(A) B = r e^{i t1} and cross = s e^{i t2} the
    objective is (a + 2 r cos(t1 - phi)) / (2 + 2 s cos(t2 + phi)), and its
    stationary points solve P sin(phi) + Q cos(phi) = -2 r s sin(t1 + t2),
    where P + i Q = a cross - 2 r e^{-i t1}.  Both roots are evaluated and the
    larger kept (the first on a tie); phi = 0 when P = Q = 0 (the objective
    is then constant).  Returns (max, phi_max) arrays shaped like A and B.
    """
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    w = np.conj(A) * B
    pq = (np.abs(A) ** 2 + np.abs(B) ** 2) * cross - 2.0 * np.conj(w)
    rho = np.abs(pq)
    flat = rho == 0.0
    delta = np.arctan2(pq.imag, pq.real)
    root = np.arcsin(np.clip(-2.0 * (w * cross).imag / np.where(flat, 1.0, rho), -1.0, 1.0))
    phis = np.where(flat, 0.0, np.stack((root - delta, np.pi - root - delta)))
    vals = _phi_objective(A, B, cross, phis)
    second = vals[1] > vals[0]
    return np.where(second, vals[1], vals[0]), np.where(second, phis[1], phis[0]) % (2.0 * np.pi)


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
    fid, phi = _max_phi(*_branch_terms(psi.coeffs, psi.amps, bt, pt), complex(cross))
    return FidelityReport(float(fid), float(phi), bt)


def cat_overlap(psi: CoherentSuperposition, target_beta: complex, phi: float,
                partner_beta: complex | None = None) -> float:
    """|<cat_{target_beta, phi}|psi>|^2 at a fixed relative phase phi."""
    bt = complex(target_beta)
    pt = partner_for(bt) if partner_beta is None else complex(partner_beta)
    cross = coherent_overlap(bt, pt)
    A, B = _branch_terms(psi.coeffs, psi.amps, bt, pt)
    return float(_phi_objective(A, B, complex(cross), phi))


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

#: Outcome rows collapsed and scored together; bounds the (rows, N) work arrays.
_BLOCK = 256


class _Pipeline:
    """Per-(alpha_i, n) cache of the decompose -> split chain for conditioning.

    Holds the decomposition, its split, the split coefficients' log-polar form,
    the target cat (dominant branch at X = 0, its partner and their overlap)
    and, up to ``_GRAM_CACHE_LIMIT`` components, the ring Gram blocks
    <b_m|b_n> (rotation invariant, so they also serve rotated rings).
    """

    def __init__(self, alpha_i: float, n: int):
        self.decomp = kerr_decompose(alpha_i, n)
        self.two_mode = beamsplit_with_vacuum(self.decomp.state)
        self.log_c, self.arg_c = _log_polar(self.two_mode.coeffs)
        amps = self.two_mode.amps
        self.gram = _overlap_log_blocks(amps, amps) if n <= _GRAM_CACHE_LIMIT else None
        self.bt = default_target_beta(self.decomp, 0.0)
        self.pt = partner_for(self.bt)
        self.cross = coherent_overlap(self.bt, self.pt)

    def collapse(self, x, rotation=None):
        return _collapse(self.log_c, self.arg_c, self.two_mode.amps, x, self.gram, rotation)

    def density(self, x: float) -> float:
        return self.collapse(x).density()

    def conditioned(self, x: float, rotation: float | None = None) -> CoherentSuperposition:
        return self.collapse(x, rotation).state()

    def fidelity_terms(self, x, rotation=None):
        """(A, B, degenerate): the target branch amplitudes (<bt|psi_g>, <pt|psi_g>)
        of each conditioned state, A = B = 0 on degenerate rows.

        ``x`` and ``rotation`` broadcast as in ``_collapse``; rows are
        collapsed ``_BLOCK`` at a time.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if rotation is not None:
            x, rotation = np.broadcast_arrays(x, np.asarray(rotation, dtype=float))
        A, B = np.zeros(len(x), dtype=complex), np.zeros(len(x), dtype=complex)
        degenerate = np.zeros(len(x), dtype=bool)
        for start in range(0, len(x), _BLOCK):
            rows = slice(start, start + _BLOCK)
            rows_c = self.collapse(x[rows], None if rotation is None else rotation[rows])
            degenerate[rows] = rows_c.degenerate()
            ok = np.flatnonzero(~degenerate[rows])
            amps = rows_c.amps if rows_c.amps.ndim == 1 else rows_c.amps[ok]
            A[start + ok], B[start + ok] = _branch_terms(rows_c.coeffs(ok), amps,
                                                         self.bt, self.pt)
        return A, B, degenerate

    def fidelity(self, x):
        """(F, phi_max, degenerate) at each outcome; F = phi_max = 0 where degenerate."""
        A, B, degenerate = self.fidelity_terms(x)
        fid, phi = _max_phi(A, B, self.cross)
        return np.where(degenerate, 0.0, fid), np.where(degenerate, 0.0, phi), degenerate


def _branch_terms(coeffs, amps, bt: complex, pt: complex):
    """(A, B) = (<bt|psi>, <pt|psi>), the branch amplitudes of a cat fidelity,
    for each row of ``coeffs`` (``amps`` one row shared by all, or one per row)."""

    def amplitude(beta: complex):
        cross = np.conj(complex(beta)) * amps
        row = np.exp(cross - 0.5 * (abs(beta) ** 2 + np.abs(amps) ** 2))
        return np.sum(coeffs * row, axis=-1)

    return amplitude(bt), amplitude(pt)


@lru_cache(maxsize=16)
def _pipeline(alpha_i: float, n: int) -> _Pipeline:
    return _Pipeline(alpha_i, n)


# --------------------------------------------------------------------------
# curves, windows, probabilities
# --------------------------------------------------------------------------

def fidelity_curve(alpha_i: float, n: int, x_grid) -> list[FidelityCurvePoint]:
    """Conditioned-state fidelity at each outcome in ``x_grid``.

    The target cat is fixed at X = 0: branch = the dominant ring component
    there.  Degenerate outcomes are flagged and scored 0.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    fid, phi, degenerate = _pipeline(alpha_i, n).fidelity(xs)
    return [FidelityCurvePoint(float(x), float(f), float(p), bool(d))
            for x, f, p, d in zip(xs, fid, phi, degenerate)]


def window_from_threshold(alpha_i: float, n: int, f_min: float,
                          scan_step: float = 0.01) -> AcceptanceWindow:
    """Outcome region {X : F(X) >= f_min}, scanned over [-(alpha_i+5), alpha_i+5].

    Threshold crossings are refined by bisection to 1e-6, all crossings
    together.  May be empty.
    """
    if not (0.0 < f_min < 1.0):
        raise ValueError("f_min must lie strictly between 0 and 1")
    lo, hi = -(alpha_i + 5.0), alpha_i + 5.0
    xs = np.arange(lo, hi + 0.5 * scan_step, scan_step)
    above = np.array([p.fidelity >= f_min for p in fidelity_curve(alpha_i, n, xs)])
    runs = np.diff(np.concatenate(([0], above.astype(int), [0])))
    first, last = np.flatnonzero(runs == 1), np.flatnonzero(runs == -1) - 1
    rise, fall = first[first > 0], last[last < len(xs) - 1]

    # invariant: exactly one end of each bracket (a, b) is above threshold
    a = np.concatenate((xs[rise - 1], xs[fall]))
    b = np.concatenate((xs[rise], xs[fall + 1]))
    high_at_b = np.arange(len(a)) < len(rise)
    pipe = _pipeline(alpha_i, n)
    while (live := np.flatnonzero(b - a > 1e-6)).size:
        m = 0.5 * (a[live] + b[live])
        to_b = (pipe.fidelity(m)[0] >= f_min) == high_at_b[live]
        b[live[to_b]] = m[to_b]
        a[live[~to_b]] = m[~to_b]
    edges = 0.5 * (a + b)

    left, right = xs[first], xs[last]
    left[first > 0] = edges[:len(rise)]
    right[last < len(xs) - 1] = edges[len(rise):]
    return AcceptanceWindow(tuple((float(x0), float(x1)) for x0, x1 in zip(left, right)
                                  if x0 < x1))


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
