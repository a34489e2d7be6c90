"""Coherent-state algebra for finite superpositions of coherent states.

Quadrature convention (fixed throughout the package):

    X = (a + a^dag) / sqrt(2),     P = (a - a^dag) / (i sqrt(2)),     [X, P] = i

so every coherent-state quadrature density is a Gaussian of variance 1/2,
|<X|beta>|^2 peaking at X = sqrt(2) Re(beta) and |<P|beta>|^2 at
P = sqrt(2) Im(beta).

Amplitudes up to |beta| ~ 30 are supported: pairwise Gaussian overlaps reach
exp(-1800), far below double-precision underflow.  Coefficients therefore
stay in log-polar form until a sum needs them, and every sum over components
follows one rule, written once in :func:`_scale`: shift the logs by their
largest value, exponentiate, sum, and add the shift back to the log of the
sum.  No scaled term exceeds 1, and in a squared norm the largest diagonal
term is 1.  Every component term is computed; no sum over components
skips any.

Rings b_n = b_0 w^n, w = e^{2 i pi / N}, are recognized
(:func:`_ring_weights`): their Gram matrix is circulant, so their squared
norms are spectral (:func:`_spectral_norms`) where every other state's are
pair sums (:func:`_norms` is the one place that picks), and when N
components cost more than the photon numbers their Poisson weights reach,
their marginal densities are summed over the photon numbers whose
amplitudes can reach a cell (:func:`_fock_amplitudes`) with the
Hermite-function recurrence (:func:`_fock_densities`) instead of over their
N components.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
LOG_PI_QUARTER = -0.25 * math.log(math.pi)   # log of pi**(-1/4)

#: Squared norms below this are numerically null; normalizing would be garbage.
DEGENERATE_NORM = 1e-300
_LOG_DEGENERATE = math.log(DEGENERATE_NORM)

#: Largest digits a norm or density may lose to cancellation,
#: log10(sum |terms| / |sum|).  Against the number-basis oracle (cutoff 650,
#: alpha = 20) outcome densities within it agree to 1e-7 relative (worst:
#: N = 200, X = 25, 7.7 digits, 4e-8 off).
_DIGITS_BUDGET = 8.0


class DegenerateStateError(ArithmeticError):
    """State is numerically null (e.g. conditioned on a wildly unlikely outcome)."""


def _wrap_phase(phi):
    """Wrap angles to (-pi, pi]."""
    w = -((-np.asarray(phi) + np.pi) % (2 * np.pi) - np.pi)
    return w


def _as_complex_array(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128)).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite superposition sum_n c_n |beta_n> of coherent states.

    Immutable value object; the arrays are marked read-only.  Construct through
    :func:`superposition` (which validates the arrays and keeps every
    component) or the convenience constructors below.
    """

    coeffs: np.ndarray
    amps: np.ndarray
    is_normalized: bool = False

    def __len__(self) -> int:
        return len(self.coeffs)

    def squared_norm(self) -> float:
        return squared_norm(self)

    def normalized(self) -> "CoherentSuperposition":
        """Return the unit-norm version of this state.

        Raises
        ------
        DegenerateStateError
            If the squared norm is below ``DEGENERATE_NORM``.
        """
        log_norm = _log_squared_norm(self.coeffs, self.amps)[0]
        lc, ac = _log_polar(self.coeffs)
        new = np.exp(lc - 0.5 * log_norm) * np.exp(1j * ac)
        return superposition(new, self.amps, normalized=True)


def superposition(coeffs, amps, *, normalized: bool = False) -> CoherentSuperposition:
    """Build a CoherentSuperposition from coefficient and amplitude sequences.

    Every component is kept as given and in order.  Two components at one
    amplitude act as one with their summed coefficient: every quantity is
    computed from sums over components.
    """
    c = _as_complex_array(coeffs, "coeffs")
    a = _as_complex_array(amps, "amps")
    if len(c) != len(a):
        raise ValueError("coeffs and amps must have the same length")
    if len(c) == 0:
        raise ValueError("a physical state needs at least one component")
    c.setflags(write=False)
    a.setflags(write=False)
    return CoherentSuperposition(c, a, normalized)


def vacuum_state() -> CoherentSuperposition:
    return superposition([1.0], [0.0], normalized=True)


def coherent_state(beta: complex) -> CoherentSuperposition:
    return superposition([1.0], [beta], normalized=True)


# --------------------------------------------------------------------------
# overlaps and quadrature wavefunctions
# --------------------------------------------------------------------------

def coherent_overlap(beta1: complex, beta2: complex) -> complex:
    """<beta1|beta2> = exp(-|beta1|^2/2 - |beta2|^2/2 + conj(beta1) beta2)."""
    e = _overlap_exponent(complex(beta1), complex(beta2))
    w = float(_wrap_phase(e.imag))
    return math.exp(e.real) * complex(math.cos(w), math.sin(w))


def _overlap_exponent(a, b):
    """log <a|b> = conj(a) b - (|a|^2 + |b|^2) / 2, elementwise."""
    return np.conj(a) * b - 0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2)


def x_amplitude(X: float, beta: complex) -> complex:
    """Position-quadrature wavefunction <X|beta>.

    <X|beta> = pi^(-1/4) exp(-(X - sqrt2 Re b)^2 / 2
                             + i sqrt2 X Im b - i Re b Im b),
    the phase convention that agrees with the number-basis expansion
    sum_n b^n e^{-|b|^2/2}/sqrt(n!) psi_n(X) with real Hermite functions psi_n.
    """
    lg, ph = _x_amplitude_log_arrays(X, np.asarray([beta], dtype=complex))
    return complex(np.exp(lg[0]) * np.exp(1j * ph[0]))


def p_amplitude(P: float, beta: complex) -> complex:
    """Momentum-quadrature wavefunction <P|beta>; equals x_amplitude(P, -i beta)."""
    return x_amplitude(P, -1j * complex(beta))


def _x_log_magnitude(X, amps: np.ndarray):
    """log|<X|b>| = log pi^{-1/4} - (X - sqrt2 Re b)^2 / 2 for each b in ``amps``
    (X and ``amps`` broadcast)."""
    return LOG_PI_QUARTER - 0.5 * (X - SQRT2 * amps.real) ** 2


def _x_amplitude_log_arrays(X, amps: np.ndarray):
    """(log-magnitude, phase) arrays of <X|amps> (X and ``amps`` broadcast)."""
    re, im = amps.real, amps.imag
    return _x_log_magnitude(X, amps), SQRT2 * X * im - re * im


# --------------------------------------------------------------------------
# scaled component sums
# --------------------------------------------------------------------------

_CHUNK = 512


def _log_polar(z: np.ndarray):
    """(log|z|, arg z) with log 0 = -inf and no warnings."""
    mag = np.abs(z)
    with np.errstate(divide="ignore"):
        lg = np.log(mag)
    return lg, np.angle(z)


def _project(log_c, arg_c, amps, x):
    """(log|q|, arg q) of the rows q_gn = c_n <X_g|b_n> of a column of outcomes
    ``x``, b_n in ``amps``."""
    lq, aq = _x_amplitude_log_arrays(x, amps)
    lq += log_c
    aq += arg_c
    return lq, aq


def _scale(log_c, arg_c):
    """(M, c e^{-M}) for c = e^{log_c + i arg_c}, with M the largest log|c|
    along the last axis (0 where every entry is -inf, all zero).

    The one shift every component sum in the package makes before it
    exponentiates: the largest scaled entry has magnitude 1.  Every entry is
    computed, so a scaled row serves any later sum over it (a collapsed
    row's norm, and its P cells as a conditioned state's coefficients).
    """
    top = np.max(log_c, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return top[..., 0], np.exp(log_c - top) * np.exp(1j * arg_c)


def _pair_sum(c, amps, d=None, amps_d=None) -> tuple[complex, float]:
    """sum_{m,n} conj(c_m) d_n <a_m|b_n> over the rows c on amplitudes a and
    d on b (by default c on a: the squared norm), and the digits it loses to
    cancellation, log10(sum |terms| / |sum terms|): 0 with no terms, inf
    when they cancel exactly.

    Both rows come scaled by :func:`_scale`, so no term exceeds 1
    (|<a|b>| = e^{-|a - b|^2 / 2}); the terms are summed directly,
    ``_CHUNK`` rows at a time.
    """
    d, amps_d = (c, amps) if d is None else (d, amps_d)
    s, mass = 0j, 0.0
    for start in range(0, len(amps), _CHUNK):
        rows = slice(start, start + _CHUNK)
        overlap = np.exp(_overlap_exponent(amps[rows, None], amps_d))
        terms = np.conj(c[rows])[:, None] * d * overlap
        s += np.sum(terms)
        mass += float(np.sum(np.abs(terms)))
    return s, math.log10(mass / abs(s)) if s else (math.inf if mass else 0.0)


# --------------------------------------------------------------------------
# rings b_n = b_0 w^n, w = e^{2 i pi / N}
# --------------------------------------------------------------------------

def _ring_weights(amps: np.ndarray):
    """(k, weights): the photon numbers k = k_0, k_0 + 1, ..., k_1 within reach
    of a ring b_n = b_0 w^n, w = e^{2 i pi / N}, and their Poisson(|b_0|^2)
    weights relative to the mode's; None unless ``amps`` is such a ring to
    1e-12 relative.

    The weights are built by recurrence out from the mode; they underflow to
    0 within 40 |b_0| + 200 terms of it.
    """
    n = len(amps)
    ring = amps[0] * np.exp(2j * np.pi * np.arange(n) / n)
    if np.any(np.abs(amps - ring) > 1e-12 * abs(amps[0])):
        return None
    r2 = abs(amps[0]) ** 2
    mode = math.floor(r2)
    reach = math.ceil(40.0 * math.sqrt(r2) + 200.0)
    up = np.arange(mode + 1, mode + reach + 1)
    down = np.arange(mode, max(mode - reach, 0), -1)
    weights = np.concatenate((np.cumprod(down / r2)[::-1], [1.0], np.cumprod(r2 / up)))
    return np.arange(mode - len(down), mode + reach + 1), weights


def _ring_spectrum(amps: np.ndarray) -> np.ndarray | None:
    """Log-eigenvalues of the Gram matrix <b_m|b_n> of a ring b_n = b_0 w^n;
    None unless ``amps`` is a ring (:func:`_ring_weights`).

    The Gram matrix of a ring is circulant: <b_m|b_n> = sum_j lam_j w^{j(n-m)}
    with lam_j the Poisson(|b_0|^2) mass of the residue class k = j (mod N)
    (expand exp(|b_0|^2 w^{n-m}) in powers), normalized to unit total mass.
    """
    ring = _ring_weights(amps)
    if ring is None:
        return None
    k, weights = ring
    lam = np.bincount(k % len(amps), weights=weights, minlength=len(amps)) / np.sum(weights)
    with np.errstate(divide="ignore"):
        return np.log(lam)


def _spectral_norms(q, log_lam):
    """(log squared norm, digits lost) of each row of q on a ring with Gram
    log-eigenvalues ``log_lam`` (:func:`_ring_spectrum`), shape (G,); or,
    given a (K, N) stack of log-spectra, of each row against each, (G, K).

    With the transform Q_gj = sum_n q_gn w^{jn}, the squared norm is
    sum_j lam_j |Q_gj|^2.  The transform errs by about eps sum_n |q_gn| in
    each Q_gj, so the sum loses
    log10(sum_n |q_gn| sum_j lam_j |Q_gj| / sum_j lam_j |Q_gj|^2) digits.
    Every reduction runs along its own row: a row's bits do not depend on
    the rows batched with it.
    """
    if np.ndim(log_lam) == 2:
        q = q[:, None]
    spec = q.shape[-1] * np.fft.ifft(q, axis=-1)
    lam, amp = np.exp(log_lam), np.abs(spec)
    s = np.sum(lam * (spec.real ** 2 + spec.imag ** 2), axis=-1)
    t = np.sum(np.abs(q), axis=-1) * np.sum(lam * amp, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(s), np.log10(t / s)


def _norms(q, amps, spectrum):
    """(log squared norm, digits lost) of sum_n q_gn |b_n>, b = ``amps``, for
    each row g of q scaled by :func:`_scale`: :func:`_spectral_norms` on a
    ring (``spectrum`` its :func:`_ring_spectrum`), the pair sum on any
    other state (``spectrum`` None)."""
    if spectrum is not None:
        return _spectral_norms(q, spectrum)
    sums = [_pair_sum(row, amps) for row in q]
    return (np.array([math.log(abs(s)) if s else -math.inf for s, _ in sums]),
            np.array([lost for _, lost in sums]))


# --------------------------------------------------------------------------
# norms, inner products, marginals
# --------------------------------------------------------------------------

def _refuse(lost, name) -> None:
    """Raise ArithmeticError at the first entry of ``lost`` (any shape) past
    ``_DIGITS_BUDGET``; ``name(*index)`` names it in the message."""
    lost = np.asarray(lost)
    over = np.argwhere(lost > _DIGITS_BUDGET)
    if len(over):
        raise ArithmeticError(f"{name(*over[0])} loses {lost[tuple(over[0])]:.2f} digits "
                              f"to cancellation (budget {_DIGITS_BUDGET:g})")


def _log_squared_norm(coeffs: np.ndarray, amps: np.ndarray) -> tuple[float, float]:
    """(log <psi|psi>, digits lost) of psi = sum_n c_n |b_n> by :func:`_norms`;
    DegenerateStateError below ``DEGENERATE_NORM``, then :func:`_refuse`."""
    top, c = _scale(*_log_polar(coeffs))
    (log_norm,), (lost,) = _norms(c[None], amps, _ring_spectrum(amps))
    log_norm = 2.0 * float(top) + log_norm
    if log_norm < _LOG_DEGENERATE:
        raise DegenerateStateError(
            f"state is numerically null (log squared norm {log_norm:.1f})")
    _refuse(lost, lambda: "squared norm")
    return log_norm, lost


def squared_norm(psi: CoherentSuperposition) -> float:
    """<psi|psi> = sum_{m,n} conj(c_m) c_n <beta_m|beta_n>.

    Raises
    ------
    DegenerateStateError
        If the result falls below ``DEGENERATE_NORM``; such a state must not
        be normalized.
    """
    return math.exp(_log_squared_norm(psi.coeffs, psi.amps)[0])


def normalization_mismatch(psi: CoherentSuperposition) -> float | None:
    """<psi|psi> if it measures off 1, else None.

    The norm is measured, and refused, by :func:`_log_squared_norm`.  A sum
    that loses ``lost`` digits to cancellation errs by about eps 10^lost
    times a factor that grows with the terms and amplitudes (up to 7.6 on the
    conditioned states of `kerrcat condition` at N = 200 and 400,
    X = -25, -24, ..., 25, whose spectral norms lose up to 5.5 digits), so a
    norm within 1e-12 10^lost of 1, or within 1e-9, matches.
    """
    log_norm, lost = _log_squared_norm(psi.coeffs, psi.amps)
    norm = math.exp(log_norm)
    return norm if abs(norm - 1.0) > max(1e-9, 1e-12 * 10.0 ** lost) else None


def inner_product(psi: CoherentSuperposition, chi: CoherentSuperposition) -> complex:
    """<psi|chi>; conjugate-symmetric in its arguments."""
    (top_c, c), (top_d, d) = _scale(*_log_polar(psi.coeffs)), _scale(*_log_polar(chi.coeffs))
    s, _ = _pair_sum(c, psi.amps, d, chi.amps)
    if s == 0:
        return 0j
    # the shift joins log|s| before exp: alone it can over- or underflow
    w = float(_wrap_phase(np.angle(s)))
    return math.exp(math.log(abs(s)) + float(top_c + top_d)) * complex(math.cos(w), math.sin(w))


#: (value, component) terms per block of a marginal-density grid.
_MARGINAL_BLOCK = 1 << 16


def _marginal_densities(psi: CoherentSuperposition, values, amps) -> np.ndarray:
    """|sum_n c_n <X = v|b_n>|^2 at each of ``values``, b_n = ``amps`` (P uses
    -i psi.amps: <P|b> = <X = P|-i b>).

    A ring b_n = b_0 w^n is summed in the number basis
    (:func:`_fock_densities`) when the photon numbers its Poisson weights
    reach cost less than a sum over its N components
    (:func:`_direct_densities`); any other state is summed over its
    components.  The route depends on the state alone, and
    both compute every cell on its own, so a grid cell equals the one-point
    call bit for bit.
    """
    lc, ac = _log_polar(psi.coeffs)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValueError("quadrature values must be finite")
    ring = _ring_weights(amps)
    if ring is not None and _STEPS_PER_TERM * len(amps) > ring[0][-1] + 1:
        top, a = _fock_amplitudes(lc, ac, amps, *ring)
        # one value runs on Python floats: a ufunc call costs more than a cell
        cells = float(values[0]) if len(values) == 1 else values
        return np.atleast_1d(_fock_densities(top, a, cells))
    return _direct_densities(lc, ac, amps, values)


def _direct_densities(log_c, arg_c, amps, values) -> np.ndarray:
    """|sum_n c_n <X = v|b_n>|^2 at each of ``values``, summed over the
    components, each cell scaled by :func:`_scale`, ``_MARGINAL_BLOCK``
    terms at a time."""
    out = np.empty(len(values))
    step = max(1, _MARGINAL_BLOCK // len(log_c))
    for start in range(0, len(values), step):
        top, q = _scale(*_project(log_c, arg_c, amps, values[start:start + step, None]))
        with np.errstate(divide="ignore"):
            log_amp = top + np.log(np.abs(np.sum(q, axis=1)))
        out[start:start + step] = np.exp(np.minimum(2.0 * log_amp, 700.0))
    return out


def _fock_amplitudes(log_c, arg_c, amps, k, weights):
    """(top, a) with a_m e^top = <m|psi>, m = 0, 1, ..., M, the number-basis
    amplitudes of psi = sum_n c_n |b_n> on the ring b_n = b_0 w^n whose
    :func:`_ring_weights` are (k, weights).

    <m|b_0 w^n> = e^{-|b_0|^2/2} b_0^m / sqrt(m!) w^{nm}, so
    a_m = sqrt(p_m) e^{i m arg b_0} C_{m mod N}: p_m the weights at unit total
    mass, and C_j = sum_n c_n e^{-top} w^{nj} one FFT of the scaled
    coefficients.  sum_m |a_m|^2 over every k is the spectral squared norm
    of :func:`_spectral_norms`.  a_m = 0 below the first k.

    a stops at the last M whose tail sum_{m >= M} |a_m| exceeds
    ``_FOCK_TAIL`` sum_m |a_m|; if that sum is NaN, M = max k.  By Cramer's
    inequality |psi_m(v)| <= 1.0865 pi^{-1/4} < 0.82 for every m and real v
    (Abramowitz & Stegun 22.14.17), so the dropped terms move a cell's
    amplitude by at most 0.82 ``_FOCK_TAIL`` e^top sum_m |a_m|, 2^-11 of the
    rounding unit of the bound 0.82 e^top sum_m |a_m| on every cell.
    """
    top, c = _scale(log_c, arg_c)
    spec = len(c) * np.fft.ifft(c)
    a = np.zeros(k[-1] + 1, dtype=complex)
    a[k] = np.sqrt(weights / np.sum(weights)) * np.exp(1j * np.angle(amps[0]) * k) \
        * spec[k % len(c)]
    tail = np.cumsum(np.abs(a[::-1]))[::-1]
    keep = np.flatnonzero(~(tail <= _FOCK_TAIL * tail[0]))
    return float(top), a[:keep[-1] + 1] if keep.size else a


#: Share of sum_m |a_m| that the tail :func:`_fock_amplitudes` drops may hold.
_FOCK_TAIL = 2.0 ** -64
#: Recurrence steps of :func:`_fock_densities` that cost as much per cell as
#: one term of :func:`_direct_densities`.  On 3,001-cell P grids of rings at
#: alpha = 20 (2-core x86-64, Python 3.11, numpy 2.4) a direct term took
#: 89-154 ns and a recurrence step 5.7-8.6 ns; the routes cost the same near
#: N = 60-70, 966 steps.  The rule prices K, the photon numbers
#: :func:`_ring_weights` reaches, not the shorter trimmed recurrence
#: :func:`_fock_amplitudes` returns, and is kept so on purpose: pricing the
#: trimmed length would move more rings to the Fock route (N ~ 29-69 at
#: alpha = 20) and change their cells.
_STEPS_PER_TERM = 14
#: Recurrence steps between two rescales of a cell in :func:`_fock_densities`.
_RESCALE_STEPS = 16
#: log of half the smallest positive double: a density below it rounds to 0.
_LOG_ROUNDS_TO_ZERO = -1075.0 * math.log(2.0)


def _fock_densities(top, a, values):
    """|e^top sum_m a_m psi_m(v)|^2 at each of ``values`` (an array, or one
    float), psi_m the real Hermite functions and m = 0, 1, ..., len(a) - 1.

    psi_m(-v) = (-1)^m psi_m(v), so the recurrence runs once per distinct
    |v| (u below) and keeps two partial sums, E = sum over even m and
    O = sum over odd m of a_m psi_m(u); the cell at v gets E + O, or E - O
    where v < 0.  This is exact, not an approximation: every step below is
    odd in u for odd m and even for even m, and the rescales depend on |h|
    alone, so h_m(-u) = (-1)^m h_m(u) bit for bit; only the association of
    the final sum differs from summing the m in order.

    Each |v| runs the recurrence h_0 = 1, h_1 = sqrt2 u,
    h_{m+1} = sqrt(2/(m+1)) u h_m - sqrt(m/(m+1)) h_{m-1} for
    h_m = psi_m(u) / psi_0(u), and keeps psi_0(u) = pi^{-1/4} e^{-u^2/2} as a
    log, since past u ~ 37.6 it underflows and h_m overflows.  Every
    ``_RESCALE_STEPS`` steps it divides h_m, h_{m-1} and both partial sums
    by the power of two 2^e of its larger |h|, exactly, and adds e to its
    exponent.  Between two rescales |h| grows at most (sqrt2 u + 1)^16, so
    nothing overflows below u ~ 1e19; cells that the same bound
    |h_m| <= (sqrt2 u + 1)^m puts below the smallest double are 0.  Every
    operation is elementwise, written once for an array and a float: a
    cell's bits depend neither on the other cells nor on whether it runs
    alone.
    """
    m_max = len(a) - 1
    if isinstance(values, float):
        u, inverse = abs(values), None
    else:
        u, inverse = np.unique(np.abs(values), return_inverse=True)
    log_psi0 = top + LOG_PI_QUARTER - 0.5 * u * u
    with np.errstate(divide="ignore"):
        bound = log_psi0 + m_max * np.log1p(SQRT2 * u) + np.log(np.sum(np.abs(a)))
    live = 2.0 * bound >= _LOG_ROUNDS_TO_ZERO
    a = a.tolist()
    if inverse is None:
        # numpy's frexp and maximum would turn the cell into numpy scalars
        v, frexp, ldexp, larger = (u if live else 0.0), math.frexp, math.ldexp, max
        even, odd = a[0], 0j
    else:
        v, frexp, ldexp, larger = np.where(live, u, 0.0), np.frexp, np.ldexp, np.maximum
        even, odd = np.full(len(u), a[0]), np.zeros(len(u), dtype=complex)
    steps = np.arange(1.0, m_max + 1.0)
    up, back = np.sqrt(2.0 / steps).tolist(), np.sqrt((steps - 1.0) / steps).tolist()
    prev, cur, exponent = 0.0, 1.0, 0
    for m, (up_m, back_m, a_m) in enumerate(zip(up, back, a[1:]), 1):
        step = cur * v
        step *= up_m
        prev *= back_m
        step -= prev
        prev, cur = cur, step                        # cur = h_m
        if m % 2:
            odd += a_m * cur
        else:
            even += a_m * cur
        if m % _RESCALE_STEPS == 0:
            e = frexp(larger(abs(prev), abs(cur)))[1]
            scale = ldexp(1.0, -e)
            prev *= scale
            cur *= scale
            even *= scale
            odd *= scale
            exponent += e
    log_scale = log_psi0 + exponent * math.log(2.0)
    if inverse is None:
        total = even - odd if values < 0 else even + odd
    else:
        log_scale, live, total = log_scale[inverse], live[inverse], odd[inverse]
        np.negative(total, out=total, where=values < 0)
        total += even[inverse]
    with np.errstate(divide="ignore"):
        log_amp = log_scale + np.log(np.hypot(total.real, total.imag))
    return np.where(live, np.exp(np.minimum(2.0 * log_amp, 700.0)), 0.0)


def x_marginal_density(psi: CoherentSuperposition, X: float) -> float:
    """|<X|psi>|^2 for a pure state psi (expects psi normalized)."""
    return float(_marginal_densities(psi, X, psi.amps)[0])


def p_marginal_density(psi: CoherentSuperposition, P: float) -> float:
    """|<P|psi>|^2 for a pure state psi (expects psi normalized)."""
    return float(_marginal_densities(psi, P, -1j * psi.amps)[0])


# --------------------------------------------------------------------------
# JSON state schema
# --------------------------------------------------------------------------

def state_to_json_dict(psi: CoherentSuperposition, measurement_x: float | None = None) -> dict:
    """Serialize to the interchange schema.

    ``{"components": [{"coeff_re", "coeff_im", "amp_re", "amp_im"}, ...],
    "normalized": bool}`` with an optional ``"measurement"`` block for
    homodyne-conditioned states.
    """
    doc = {
        "components": [
            {
                "coeff_re": float(c.real),
                "coeff_im": float(c.imag),
                "amp_re": float(a.real),
                "amp_im": float(a.imag),
            }
            for c, a in zip(psi.coeffs, psi.amps)
        ],
        "normalized": bool(psi.is_normalized),
    }
    if measurement_x is not None:
        doc["measurement"] = {"quadrature": "X", "value": float(measurement_x)}
    return doc


def state_from_json_dict(doc: dict) -> tuple[CoherentSuperposition, float | None]:
    """Inverse of :func:`state_to_json_dict`; returns (state, measurement X or None).

    Raises ValueError naming the first missing field, or on a malformed value.
    """
    def number(fields, key) -> float:  # a JSON number: int or float, not bool
        if type(fields[key]) not in (int, float):
            raise ValueError(f"{key} must be a number, not {fields[key]!r}")
        return float(fields[key])
    try:
        comps = doc["components"]
        coeffs = [complex(number(c, "coeff_re"), number(c, "coeff_im")) for c in comps]
        amps = [complex(number(c, "amp_re"), number(c, "amp_im")) for c in comps]
        meas = doc.get("measurement")
        mx = None
        if meas is not None:
            if meas.get("quadrature") != "X":
                raise ValueError(f"unsupported measurement quadrature {meas.get('quadrature')!r}")
            if not math.isfinite(mx := number(meas, "value")):
                raise ValueError(f"measurement value {mx} is not finite")
        normalized = doc.get("normalized", False)
        if not isinstance(normalized, bool):
            raise ValueError(f"normalized must be true or false, not {normalized!r}")
    except KeyError as exc:
        raise ValueError(f"state JSON lacks the field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, OverflowError) as exc:  # overflow: an int past 1e308
        raise ValueError(f"malformed state JSON: {exc}") from None
    return superposition(coeffs, amps, normalized=normalized), mx


def dump_state(psi: CoherentSuperposition, path, measurement_x: float | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(psi, measurement_x), fh, indent=2)
        fh.write("\n")


def load_state(path) -> tuple[CoherentSuperposition, float | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json_dict(json.load(fh))
