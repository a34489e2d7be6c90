"""Kerr-medium evolution of a coherent state.

A single-mode Kerr medium evolves |alpha> by the phase factors e^{-i lt n^2}
on the number basis (lt = dimensionless interaction phase).  At lt = pi/N the
evolved state is exactly an N-component superposition of coherent states on
the ring -alpha e^{2 i pi n / N}, n = 1..N, with coefficients of equal
magnitude 1/sqrt(N):

    C_n = (1/N) sum_{k=0}^{N-1} (-1)^k exp(-i pi k (2n + k) / N)
        = (S/N) (-1)^n exp(i pi n^2 / N),   S = sum_j (-1)^j e^{-i pi j^2 / N}.

Both the closed-form coefficients and the truncated number-basis evolution
(the brute-force oracle) live here, together with the exactness identity that
ties them: expanding the ring superposition back onto |k> must reproduce
e^{-i pi k^2 / N} for every k.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import CoherentSuperposition, _wrap_phase, superposition


class TruncationError(ArithmeticError):
    """Number-basis cutoff too small for the requested amplitude."""


@dataclass(frozen=True)
class KerrParams:
    """Interaction phase and input amplitude of one pass through the medium."""

    lambda_tau: float
    alpha: complex

    def __post_init__(self):
        if not (0 < self.lambda_tau < math.inf):
            raise ValueError("lambda_tau must be positive and finite")
        if not cmath.isfinite(complex(self.alpha)):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class FockState:
    """Truncated number-basis amplitude vector c_0..c_cutoff."""

    amplitudes: np.ndarray
    cutoff: int

    @property
    def truncation_deficit(self) -> float:
        """1 - sum |c_n|^2: probability weight lost to the cutoff."""
        return float(1.0 - np.sum(np.abs(self.amplitudes) ** 2))

    def overlap(self, other: "FockState") -> complex:
        n = min(self.cutoff, other.cutoff) + 1
        return complex(np.vdot(self.amplitudes[:n], other.amplitudes[:n]))


MAX_COMPONENTS = 4096


def _validate_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError("number of components must be a positive integer")
    if n > MAX_COMPONENTS:
        raise ValueError(f"number of components capped at {MAX_COMPONENTS}")
    return int(n)


def kerr_coefficients(n: int) -> np.ndarray:
    """Ring coefficients C_1..C_n of the pi/n decomposition.

    Evaluated as the Gauss sum (S/n) (-1)^k e^{i pi k^2 / n} with the squares
    reduced mod 2n in integers, so every phase is exact.  Every |C_k| equals
    1/sqrt(n).
    """
    n = _validate_n(n)
    k = np.arange(n + 1, dtype=np.int64)
    phases = np.where(k % 2 == 0, 1.0, -1.0) * np.exp(1j * np.pi * ((k * k) % (2 * n)) / n)
    return (np.sum(np.conj(phases[:n])) / n) * phases[1:]


def ring_amplitudes(alpha_i: float, n: int) -> np.ndarray:
    """Component amplitudes -alpha_i e^{2 i pi k / n}, k = 1..n."""
    k = np.arange(1, n + 1)
    return -alpha_i * np.exp(2j * np.pi * k / n)


def kerr_decompose(alpha_i: float, n: int) -> CoherentSuperposition:
    """The ring state sum_k C_k |-alpha_i e^{2 i pi k / n}>: Kerr evolution of
    |alpha_i> at interaction phase pi/n.

    It is flagged unit-norm without renormalization (the evolution is unitary
    and the closed-form coefficients are exact) and keeps all n ring
    components, however close neighbouring amplitudes lie.
    """
    n = _validate_n(n)
    if not (alpha_i > 0) or not math.isfinite(alpha_i):
        raise ValueError("alpha_i must be a positive real number")
    return superposition(kerr_coefficients(n), ring_amplitudes(alpha_i, n), normalized=True)


def recommended_cutoff(alpha: complex) -> int:
    a = abs(alpha)
    return int(math.ceil(a * a + 10 * a + 20))


def _fock_log_polar(amps: np.ndarray, cutoff: int):
    """(log|<m|a>|, arg<m|a>) for m = 0..cutoff, one row per amplitude a in
    ``amps``: -|a|^2/2 + m log|a| - log(m!)/2 and m arg a, a = 0 giving the
    vacuum row."""
    m = np.arange(cutoff + 1)
    half_log_fact = 0.5 * np.array([math.lgamma(k + 1.0) for k in range(cutoff + 1)])
    r = np.hypot(amps.real, amps.imag)[:, None]  # rounds as Python's abs; np.abs may not
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at a = 0
        m_log_r = np.where(m > 0, m * np.log(r), 0.0)
    return -0.5 * r ** 2 + m_log_r - half_log_fact, m * np.angle(amps)[:, None]


def kerr_fock_evolve(params: KerrParams, cutoff: int) -> FockState:
    """Evolve |alpha> in the truncated number basis: c_n picks up e^{-i lt n^2}.

    Amplitudes are assembled through log-factorials, so cutoffs up to several
    thousand are safe from overflow.

    Raises
    ------
    TruncationError
        If more than 1e-8 of the norm is lost to the cutoff.
    """
    if int(cutoff) != cutoff or cutoff < 0:
        raise ValueError("cutoff must be a nonnegative integer")
    cutoff = int(cutoff)
    if cutoff < recommended_cutoff(params.alpha):
        warnings.warn(
            f"cutoff {cutoff} below recommended {recommended_cutoff(params.alpha)} "
            f"for |alpha| = {abs(params.alpha):.3g}",
            stacklevel=2,
        )
    (log_mag,), (arg,) = _fock_log_polar(np.array([params.alpha], dtype=complex), cutoff)
    kerr_phase = -params.lambda_tau * (np.arange(cutoff + 1.0) ** 2)
    state = FockState(np.exp(log_mag) * np.exp(1j * (arg + kerr_phase)), cutoff)
    if state.truncation_deficit > 1e-8:
        raise TruncationError(
            f"truncation deficit {state.truncation_deficit:.3e} exceeds 1e-8 "
            f"at cutoff {cutoff}")
    return state


def fock_expand(psi: CoherentSuperposition, cutoff: int) -> FockState:
    """Expand a coherent superposition onto the number basis |0..cutoff>,
    summing the components in their given order."""
    log_mag, arg = _fock_log_polar(psi.amps, cutoff)
    terms = psi.coeffs[:, None] * np.exp(log_mag) * np.exp(1j * arg)
    return FockState(terms.sum(axis=0), int(cutoff))


def verify_phase_identity(n: int) -> float:
    """Residual of the ring-coefficient exactness identity.

    Expanding sum_m C_m |-e^{2 i pi m / n}> onto the number basis must return
    the Kerr phases: max_k | sum_m C_m (-e^{2 i pi m / n})^k - e^{-i pi k^2 / n} |
    over k = 0..n-1, the sums (-1)^k n times one inverse FFT of C_n, C_1, ...,
    C_{n-1} and k^2 reduced mod 2n in integers.  Exact coefficients give
    residuals at machine precision.
    """
    n = _validate_n(n)
    k = np.arange(n, dtype=np.int64)
    lhs = np.where(k % 2 == 0, n, -n) * np.fft.ifft(np.roll(kerr_coefficients(n), 1))
    rhs = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
    return float(np.max(np.abs(lhs - rhs)))


def medium_length(lam: float, n: int, v: float) -> float:
    """Length of nonlinear cell giving interaction phase pi/n: v pi / (2 lam n)."""
    if not (lam > 0 and v > 0):
        raise ValueError("lam and v must be positive")
    n = _validate_n(n)
    return v * math.pi / (2.0 * lam * n)


def coefficient_rows(n: int):
    """Rows (k, re, im, magnitude, zeta_k) for CSV emission; zeta in (-pi, pi]."""
    coeffs = kerr_coefficients(n)
    zeta = _wrap_phase(np.angle(coeffs))
    # np.hypot matches Python's abs of each coefficient bit for bit
    re, im = coeffs.real, coeffs.imag
    return list(zip(range(1, n + 1), re.tolist(), im.tolist(), np.hypot(re, im).tolist(),
                    zeta.tolist()))
