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

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .conditioning import _collapse, _scaled_rows, _split
from .kerr import kerr_decompose
from .states import (
    CoherentSuperposition,
    SQRT2,
    _LOG_DEGENERATE,
    _log_polar,
    _overlap_exponent,
    _refuse,
    _ring_spectrum,
    _spectral_norms,
    _unit,
    _x_log_magnitude,
    coherent_overlap,
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
    then [2 + 2 cos(phi) e^{-2 |beta|^2}]^{-1/2}.  Raises as :func:`cat_fidelity`.
    """

    beta: complex
    phi: float
    partner_beta: complex | None = None

    def __post_init__(self):
        _target_cat(self.beta, self.partner, self.phi)

    @property
    def partner(self) -> complex:
        return -self.beta if self.partner_beta is None else self.partner_beta

    def normalization(self) -> float:
        cross = _target_cat(self.beta, self.partner)[2]
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


class FidelityCurvePoint(NamedTuple):
    """One outcome of a fidelity curve: a tuple, so it indexes and unpacks."""

    x: float
    fidelity: float
    phi_max: float
    degenerate: bool = False


@dataclass(frozen=True)
class AcceptanceWindow:
    """Disjoint union of finite measurement-outcome intervals accepted as success."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"interval ends must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"empty or inverted interval ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("intervals must be disjoint and ascending")
            prev_hi = hi


# --------------------------------------------------------------------------
# phi maximization
# --------------------------------------------------------------------------

def _phi_objective(A: complex, B: complex, cross: complex, phi):
    """|A + e^{-i phi} B|^2 / (2 + 2 Re(cross e^{i phi})); the numerator is a
    squared modulus, so it cannot go negative where the two terms cancel."""
    phi = np.asarray(phi)
    return np.abs(A + np.exp(-1j * phi) * B) ** 2 / (2.0 + 2.0 * (cross * np.exp(1j * phi)).real)


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


def _target_cat(target_beta: complex, partner_beta: complex | None, phi: float = 0.0):
    """(branch, partner, <branch|partner>); ValueError unless they make a cat
    with a finite relative phase phi."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    bt = complex(target_beta)
    if bt == 0:
        raise ValueError("target amplitude must be nonzero")
    pt = partner_for(bt) if partner_beta is None else complex(partner_beta)
    if not (cmath.isfinite(bt) and cmath.isfinite(pt)):
        raise ValueError("target and partner amplitudes must be finite")
    cross = coherent_overlap(bt, pt)
    if abs(cross) > 1.0 - 1e-12:
        raise ValueError("target and partner branches coincide; not a cat")
    return bt, pt, cross


def cat_fidelity(psi: CoherentSuperposition, target_beta: complex,
                 partner_beta: complex | None = None) -> FidelityReport:
    """max over phi of |<cat_{target_beta, phi}|psi>|^2; an unflagged psi is
    normalized first (:func:`~kerrcat.states._unit`)."""
    bt, pt, cross = _target_cat(target_beta, partner_beta)
    psi = _unit(psi)
    fid, phi = _max_phi(*_branch_terms(psi.coeffs, psi.amps, bt, pt), cross)
    return FidelityReport(float(fid), float(phi), bt)


def cat_overlap(psi: CoherentSuperposition, target_beta: complex, phi: float,
                partner_beta: complex | None = None) -> float:
    """|<cat_{target_beta, phi}|psi>|^2 at a fixed relative phase phi; raises as cat_fidelity."""
    bt, pt, cross = _target_cat(target_beta, partner_beta, phi)
    psi = _unit(psi)
    return float(_phi_objective(*_branch_terms(psi.coeffs, psi.amps, bt, pt), cross, phi))


def default_target_beta(psi: CoherentSuperposition, X: float) -> complex:
    """Branch amplitude of the component of ``psi`` favored by outcome X
    (after the split); ValueError unless X is finite.

    Returns beta_k / sqrt2 for the k maximizing |<X|beta_k/sqrt2>|; ties pick
    the smallest k (at X = 0 on a ring with 4 | N that is k = N/4, amplitude
    -i alpha_i / sqrt2).
    """
    if not math.isfinite(X := float(X)):
        raise ValueError("measurement outcome must be finite")
    split = _split(psi.amps)
    return complex(split[int(np.argmax(_x_log_magnitude(X, split)))])


# --------------------------------------------------------------------------
# cached conditioning pipeline
# --------------------------------------------------------------------------

#: Outcome rows collapsed and scored together; bounds the (rows, N) work arrays.
_BLOCK = 256

#: Cells of the (rows, shifts, N) products ``_Pipeline.ring_step_terms`` forms at once.
_SHIFT_CELLS = 1 << 16


class _Pipeline:
    """Per-(alpha_i, n) cache of the decompose -> split chain for conditioning.

    Holds the ring state ``ring``, its per-arm amplitudes ``amps`` after the split,
    the coefficients' log-polar form and the spectrum of the ring's Gram
    matrix <b_m|b_n> (rotation invariant, so it also serves turned rings),
    and builds the target cat on first use.
    Outcome rows are scored by :meth:`fidelity_terms`; rows of the turned ring
    by :meth:`ring_step_terms`, N ring steps per collapsed row.
    """

    def __init__(self, alpha_i: float, n: int):
        self.ring = kerr_decompose(alpha_i, n)
        self.amps = _split(self.ring.amps)
        self.log_c, self.arg_c = _log_polar(self.ring.coeffs)
        self.spectrum = _ring_spectrum(self.amps)

    @cached_property
    def target(self):
        """(bt, pt, <bt|pt>): the dominant branch at X = 0, its partner and
        their overlap; ValueError if they make no cat (tiny alpha), raised
        only by what scores a fidelity."""
        return _target_cat(default_target_beta(self.ring, 0.0), None)

    def collapse(self, x):
        return _collapse(self.log_c, self.arg_c, self.amps, x, self.spectrum)

    def conditioned(self, x: float) -> CoherentSuperposition:
        return self.collapse(x).state()

    def fidelity_terms(self, x):
        """(A, B, degenerate): the target branch amplitudes (<bt|psi_g>, <pt|psi_g>)
        of the state conditioned on each outcome in ``x``, A = B = 0 on
        degenerate rows; rows are collapsed ``_BLOCK`` at a time."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        A, B = np.zeros(len(x), dtype=complex), np.zeros(len(x), dtype=complex)
        degenerate = np.zeros(len(x), dtype=bool)
        bt, pt, _ = self.target
        for start in range(0, len(x), _BLOCK):
            rows = slice(start, start + _BLOCK)
            rows_c = self.collapse(x[rows])
            degenerate[rows] = rows_c.degenerate()
            ok = np.flatnonzero(~degenerate[rows])
            A[start + ok], B[start + ok] = _branch_terms(rows_c.coeffs(ok), rows_c.amps, bt, pt)
        return A, B, degenerate

    def ring_step_terms(self, x: float, rotation):
        """(A, B, degenerate), each (len(rotation), N): the target branch
        amplitudes of the state conditioned on outcome ``x`` with the ring
        turned by u_g + 2 pi k / N (row g of ``rotation``, column k), A = B = 0
        where degenerate.

        A turn by one ring step 2 pi / N moves component b_n onto b_{n+1},
        and the Kerr coefficients obey c_{n-1} = c_n (-e^{-i pi (2n+1) / N})
        (n = 0 .. N-1, indices mod N).
        So the row collapsed at u_g + 2 pi k / N is, up to a global phase,
        w^{-nk} q_gn on the ring turned by u_g (w = e^{2 i pi / N}, q_g the
        row collapsed at u_g): its transform is Q_g,j-k, its squared norm
        p_gk = sum_j lam_{j+k} |Q_gj|^2 and its branch amplitudes one FFT over
        n of q_gn <t e^{-i u_g}|b_n> per target branch t, divided by
        sqrt(p_gk).  ``_spectral_norms`` gives p_gk and its digits lost
        against the shifted spectra lam_{j+k}, and ArithmeticError is raised
        at the first ring step that loses more than ``_DIGITS_BUDGET`` digits
        there.  Rows are collapsed ``_BLOCK`` at a time and scored against
        as many shifts k at a time as keep each product under
        ``_SHIFT_CELLS`` cells.
        """
        u = np.atleast_1d(np.asarray(rotation, dtype=float))
        amps, log_circulant = self.amps, self._circulant_spectrum
        n = len(amps)
        targets = np.array(self.target[:2])[:, None, None]
        AB, degenerate = np.zeros((2, len(u), n), dtype=complex), np.zeros((len(u), n), dtype=bool)
        for start in range(0, len(u), _BLOCK):
            rows = slice(start, start + _BLOCK)
            _, top, q = _scaled_rows(self.log_c, self.arg_c,
                                     amps * np.exp(1j * u[rows])[:, None], x)
            step = max(1, _SHIFT_CELLS // q.size)
            norms = [_spectral_norms(q, log_circulant[k:k + step]) for k in range(0, n, step)]
            log_p, lost = (np.concatenate(part, axis=1) for part in zip(*norms))
            _refuse(lost, lambda g, k: f"phase-noise row at X = {float(x):g}, rotation "
                                       f"{u[start + g] + 2.0 * np.pi * k / n:g}")
            degenerate[rows] = 2.0 * top[:, None] + log_p < _LOG_DEGENERATE
            turn = np.exp(-1j * u[rows])[:, None]  # <t|b e^{iu}> = <t e^{-iu}|b>
            terms = q * np.exp(_overlap_exponent(targets * turn, amps))
            AB[:, rows] = np.where(degenerate[rows], 0.0, np.exp(-0.5 * log_p)) * np.fft.fft(terms)
        return AB[0], AB[1], degenerate

    @cached_property
    def _circulant_spectrum(self):
        """log lam_{j+k} at [k, j], k and j mod N: an (N, N) view of one
        doubled log Gram spectrum, O(N) memory."""
        return np.lib.stride_tricks.sliding_window_view(
            np.concatenate((self.spectrum, self.spectrum[:-1])), len(self.spectrum))

    @cached_property
    def _bound_terms(self):
        """(g, c): g_n = |<bt|b_n>| + |<pt|b_n>| and c = N lam_min (2 - 2|<bt|pt>|),
        the constants of :meth:`fidelity_bound`; c = 0 off a ring or where
        lam_min underflows."""
        bt, pt, cross = self.target
        amps = self.amps
        g = np.exp(_overlap_exponent(bt, amps).real) + np.exp(_overlap_exponent(pt, amps).real)
        lam_min = 0.0 if self.spectrum is None else math.exp(np.min(self.spectrum))
        return g, len(amps) * lam_min * (2.0 - 2.0 * abs(cross))

    def fidelity_bound(self, x):
        """Upper bound on the phi-maximised fidelity at each outcome in ``x``:
        (sum_n |q_gn| g_n)^2 / (c sum_n |q_gn|^2) with g and c from
        :meth:`_bound_terms`, +inf where c = 0.

        Needs only the magnitudes |q_gn| of the collapsed rows (real
        exponentials, no phases), ``_BLOCK`` rows at a time.  The bound is
        scale-free in each row, so constant factors drop out and each row is
        shifted by its own largest log|q_gn| before it is exponentiated.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g, c = self._bound_terms
        if c == 0.0:
            return np.full(len(x), np.inf)
        bound = np.empty(len(x))
        for start in range(0, len(x), _BLOCK):
            rows = slice(start, start + _BLOCK)
            lq = self.log_c + _x_log_magnitude(x[rows, None], self.amps)  # log|q_gn|
            mag = np.exp(lq - np.max(lq, axis=1, keepdims=True))
            with np.errstate(over="ignore"):  # a denormal lam_min: the bound is +inf
                bound[rows] = (mag @ g) ** 2 / (c * np.sum(mag * mag, axis=1))
        return bound

    def fidelity(self, x):
        """(F, phi_max, degenerate) at each outcome; F = phi_max = 0 where degenerate."""
        A, B, degenerate = self.fidelity_terms(x)
        fid, phi = _max_phi(A, B, self.target[2])
        return np.where(degenerate, 0.0, fid), np.where(degenerate, 0.0, phi), degenerate


def _branch_terms(coeffs, amps, bt: complex, pt: complex):
    """(A, B) = (<bt|psi>, <pt|psi>), the branch amplitudes of a cat fidelity,
    for each row of ``coeffs`` on the shared ``amps`` (bt and pt broadcast)."""

    def amplitude(beta: complex):
        # named: numpy would multiply into a temporary in place, changing bits
        row = np.exp(_overlap_exponent(beta, amps))
        return np.sum(coeffs * row, axis=-1)

    return amplitude(bt), amplitude(pt)


@lru_cache(maxsize=16)
def _pipeline(alpha_i: float, n: int) -> _Pipeline:
    return _Pipeline(alpha_i, n)


# --------------------------------------------------------------------------
# curves, windows, probabilities
# --------------------------------------------------------------------------

def fidelity_columns(alpha_i: float, n: int, x_grid):
    """(fidelity, phi_max, degenerate): arrays over the outcomes in ``x_grid``,
    the columns of :func:`fidelity_curve` (F = phi_max = 0 where degenerate)."""
    return _pipeline(alpha_i, n).fidelity(np.atleast_1d(np.asarray(x_grid, dtype=float)))


def fidelity_curve(alpha_i: float, n: int, x_grid) -> list[FidelityCurvePoint]:
    """Conditioned-state fidelity at each outcome in ``x_grid``.

    The target cat is fixed at X = 0: branch = the dominant ring component
    there.  Degenerate outcomes are flagged and scored 0.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    return list(map(FidelityCurvePoint, xs.tolist(),
                    *(column.tolist() for column in fidelity_columns(alpha_i, n, xs))))


#: Relative margin under a threshold at which a fidelity bound still keeps its
#: point: the computed F exceeds the bound by rounding alone (under 1e-12
#: relative), so a bound below (1 - margin) times the threshold proves F below it.
_BOUND_MARGIN = 1e-6

#: Outcomes of the largest bounds that :func:`max_fidelity` scores first.
_MAX_FIRST = 64


def max_fidelity(alpha_i: float, n: int, x_grid) -> float:
    """Largest fidelity over the outcomes in ``x_grid``, bit for bit
    ``max(fidelity_columns(alpha_i, n, x_grid)[0])``.

    Every outcome is bounded by :meth:`_Pipeline.fidelity_bound`; the
    ``_MAX_FIRST`` largest bounds are scored first, then every other outcome
    whose bound is not below (1 - ``_BOUND_MARGIN``) times the best score
    found (NaN and +inf bounds among them).  Each outcome dropped has
    F < best, and a row's fidelity does not depend on the rows scored with it.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    pipe = _pipeline(alpha_i, n)
    bound = pipe.fidelity_bound(xs)
    first = np.argsort(-bound)[:_MAX_FIRST]  # NaN bounds sort last: the second batch takes them
    best = np.max(pipe.fidelity(xs[first])[0])  # ValueError on an empty grid
    rest = ~(bound < (1.0 - _BOUND_MARGIN) * best)
    rest[first] = False
    if rest.any():
        best = max(best, np.max(pipe.fidelity(xs[rest])[0]))
    return float(best)


#: Growth 4 h R of the log fidelity bound over one coarse step h of a window screen.
_SCREEN_GROWTH = 8.0

#: Halvings per bisection round: 2^4 - 1 = 15 midpoints per bracket, scored at once.
_ROUND_HALVINGS = 4


def _screen(pipe: _Pipeline, xs: np.ndarray, step: float, f_min: float) -> np.ndarray:
    """Indices of the scan points ``xs`` (spaced ``step``) whose fidelity bound
    is not below (1 - ``_BOUND_MARGIN``) f_min, bounding every k-th point
    first (see window_from_threshold)."""
    keep = (1.0 - _BOUND_MARGIN) * f_min
    rate = 4.0 * SQRT2 * np.max(np.abs(pipe.amps.real))  # 4 R
    # k steps of 4 R step each grow the bound by about e^_SCREEN_GROWTH; k <= len(xs)
    stride = max(1, int(_SCREEN_GROWTH / max(rate * step, _SCREEN_GROWTH / len(xs))))
    coarse = np.append(np.arange(0, len(xs) - 1, stride), len(xs) - 1)
    bound = np.zeros(len(xs))  # 0 on the points a screened gap skips
    bound[coarse] = pipe.fidelity_bound(xs[coarse])
    ends = np.where(bound[coarse] >= np.finfo(float).tiny, bound[coarse], np.inf)
    with np.errstate(over="ignore"):
        grown = np.exp(rate * np.diff(xs[coarse])) * np.minimum(ends[:-1], ends[1:])
    inner = np.append(np.repeat(~(grown < keep), np.diff(coarse)), False)
    inner[coarse] = False
    bound[inner] = pipe.fidelity_bound(xs[inner])
    return np.flatnonzero(~(bound < keep))  # NaN bounds are scored


def _bisect(pipe: _Pipeline, f_min: float, a, b, high_at_b) -> None:
    """Halve each bracket (a, b) in place while b - a > 1e-6, keeping its end
    on the side given by ``high_at_b``; ``_ROUND_HALVINGS`` halvings a round."""
    while (live := np.flatnonzero(b - a > 1e-6)).size:
        k = len(live)
        lo, hi, mids, wide = a[live, None], b[live, None], [], []
        for _ in range(_ROUND_HALVINGS):  # one level of the bracket tree, left to right
            m = 0.5 * (lo + hi)
            mids.append(m)
            wide.append(hi - lo > 1e-6)
            lo, hi = np.stack((lo, m), -1).reshape(k, -1), np.stack((m, hi), -1).reshape(k, -1)
        mids, wide = np.concatenate(mids, axis=1), np.concatenate(wide, axis=1)
        high = np.zeros(mids.shape, dtype=bool)
        high[wide] = pipe.fidelity(mids[wide])[0] >= f_min
        rows, node, a_l, b_l = np.arange(k), np.zeros(k, dtype=int), a[live], b[live]
        for _ in range(_ROUND_HALVINGS):  # node i has children 2i + 1 (a, m) and 2i + 2 (m, b)
            at = (rows, node)
            to_b = high[at] == high_at_b[live]
            a_l = np.where(wide[at] & ~to_b, mids[at], a_l)
            b_l = np.where(wide[at] & to_b, mids[at], b_l)
            node = 2 * node + 2 - to_b
        a[live], b[live] = a_l, b_l


def window_from_threshold(alpha_i: float, n: int, f_min: float,
                          scan_step: float = 0.01) -> AcceptanceWindow:
    """Outcome region {X : F(X) >= f_min}, scanned over [-(alpha_i+5), alpha_i+5].

    Only the scan points whose :meth:`_Pipeline.fidelity_bound` is not below
    (1 - ``_BOUND_MARGIN``) f_min are scored; every other point is below
    threshold by proof.  On a ring with unit-mass Gram spectrum lam and
    collapsed row q (squared norm s = sum_j lam_j |Q_j|^2, Q its transform),
    F <= (|A| + |B|)^2 / (2 - 2|<bt|pt>|) with
    |A| + |B| <= sum_n |q_n| (|<bt|b_n>| + |<pt|b_n>|) / sqrt(s), and by
    Parseval s >= N lam_min sum_n |q_n|^2.  The computed F exceeds that
    bound by rounding alone (under 1e-12 relative), so a point dropped has
    F <= bound / (1 - 1e-12) < f_min.  Off a ring, or where lam_min
    underflows, the bound is +inf and every point is scored.

    The bound B is first evaluated at every k-th scan point.  Since
    |<X + t|b_n>| = e^{t sqrt2 Re b_n} |<X|b_n>| up to a factor common to the
    row, and B is scale-free in the row, B(X + t) <= e^{4 |t| R} B(X) with
    R = sqrt2 max_n |Re b_n|; so the points between two coarse ends
    X_j < X_{j+1} are skipped when e^{4 h R} min(B_j, B_{j+1}) is below
    (1 - ``_BOUND_MARGIN``) f_min, h = X_{j+1} - X_j, and bounded one by one
    otherwise.  k makes 4 h R about
    ``_SCREEN_GROWTH``; an end that is NaN, zero or subnormal skips nothing.
    The scored points are those a bound of every point would keep.

    Threshold crossings are refined by bisection to 1e-6, all crossings
    together, in rounds: one round scores, as one batch, the 15 midpoints of
    the next ``_ROUND_HALVINGS`` halvings of every bracket still wider than
    1e-6, then walks each bracket down its tree by the same side rule, so every
    edge is bit for bit the one a midpoint-at-a-time bisection finds.  May be
    empty.
    """
    if not (0.0 < f_min < 1.0):
        raise ValueError("f_min must lie strictly between 0 and 1")
    if not (0.0 < scan_step < math.inf):
        raise ValueError("scan_step must be positive and finite")
    lo, hi = -(alpha_i + 5.0), alpha_i + 5.0
    xs = np.arange(lo, hi + 0.5 * scan_step, scan_step)
    pipe = _pipeline(alpha_i, n)
    scored = _screen(pipe, xs, scan_step, f_min)
    above = np.zeros(len(xs), dtype=bool)
    above[scored] = [p.fidelity >= f_min for p in fidelity_curve(alpha_i, n, xs[scored])]
    # one bracket (a, b) per change of side between neighbouring scan points:
    # exactly one of its ends is above threshold
    t = np.flatnonzero(above[1:] != above[:-1])
    a, b, high_at_b = xs[t], xs[t + 1], above[t + 1]
    _bisect(pipe, f_min, a, b, high_at_b)
    # interval ends in order: the scan's ends where they are above threshold
    ends = np.concatenate((xs[:1][above[:1]], 0.5 * (a + b), xs[-1:][above[-1:]]))
    return AcceptanceWindow(tuple((float(x0), float(x1)) for x0, x1 in zip(ends[::2], ends[1::2])
                                  if x0 < x1))


#: Gauss-Legendre nodes per panel: the check rule, then the success-probability rule.
_LEGENDRE_NODES = (8, 16)


@lru_cache(maxsize=None)
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: one solve per node count."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _legendre_rule(intervals, nodes: int):
    """Composite Gauss-Legendre nodes and weights on panels of at most unit length."""
    t, w = _legendre(nodes)
    edges = [np.linspace(lo, hi, max(1, math.ceil(hi - lo)) + 1) for lo, hi in intervals]
    start = np.concatenate([e[:-1] for e in edges] + [[]])[:, None]
    half = 0.5 * (np.concatenate([e[1:] for e in edges] + [[]])[:, None] - start)
    return (start + half * (1.0 + t)).ravel(), (half * w).ravel()


def success_probability(alpha_i: float, n: int, window: AcceptanceWindow) -> float:
    """Probability mass of the outcome density over the acceptance window.

    Composite Gauss-Legendre with 16 nodes per panel (panels of at most unit
    length), both rules' nodes scored as one batch.  Raises ArithmeticError
    when a node's density fails the conditioning digits-lost budget or the
    8-node rule disagrees by more than 1e-10 relative.
    """
    (xc, wc), (xf, wf) = (_legendre_rule(window.intervals, k) for k in _LEGENDRE_NODES)
    rows = _pipeline(alpha_i, n).collapse(np.concatenate((xc, xf)))
    density = rows.densities()
    coarse, fine = float(wc @ density[:len(xc)]), float(wf @ density[len(xc):])
    if abs(fine - coarse) > 1e-10 * fine:
        raise ArithmeticError(
            f"success probability not converged: {coarse:.12g} with {_LEGENDRE_NODES[0]} "
            f"and {fine:.12g} with {_LEGENDRE_NODES[1]} nodes per panel")
    return fine


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
    "default_target_beta",
    "fidelity_columns",
    "fidelity_curve",
    "max_fidelity",
    "partner_for",
    "success_probability",
    "window_from_threshold",
]
