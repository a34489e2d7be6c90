"""Independent brute-force implementations used as test oracles.

Everything here works in the truncated number basis with real Hermite
functions and log-factorials, or sums a ring's norm pair by pair; nothing
imports the package's coherent-state algebra, so agreement between the two
routes is a genuine cross-check.
"""

import math

import numpy as np
from scipy.special import gammaln

PI_QUARTER = math.pi ** -0.25
SQRT2 = math.sqrt(2.0)


def hermite_psi(x: float, nmax: int) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_0..psi_nmax at position x."""
    psi = np.zeros(nmax + 1)
    psi[0] = PI_QUARTER * math.exp(-0.5 * x * x)
    if nmax >= 1:
        psi[1] = SQRT2 * x * psi[0]
    for n in range(1, nmax):
        psi[n + 1] = math.sqrt(2.0 / (n + 1)) * x * psi[n] \
            - math.sqrt(n / (n + 1.0)) * psi[n - 1]
    return psi


def coherent_fock(beta: complex, cutoff: int) -> np.ndarray:
    """Number-basis expansion of |beta>."""
    beta = complex(beta)
    if beta == 0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    n = np.arange(cutoff + 1)
    logmag = -0.5 * abs(beta) ** 2 + n * math.log(abs(beta)) - 0.5 * gammaln(n + 1.0)
    return np.exp(logmag) * np.exp(1j * n * np.angle(beta))


def overlap_fock(b1: complex, b2: complex, cutoff: int = 200) -> complex:
    return complex(np.vdot(coherent_fock(b1, cutoff), coherent_fock(b2, cutoff)))


def x_amp_fock(x: float, beta: complex, cutoff: int = 200) -> complex:
    """<x|beta> summed over the number basis."""
    return complex(np.sum(coherent_fock(beta, cutoff) * hermite_psi(x, cutoff)))


def p_amp_fock(p: float, beta: complex, cutoff: int = 200) -> complex:
    """<p|beta>; the momentum eigenfunctions are <p|n> = (-i)^n psi_n(p)."""
    phases = (-1j) ** np.arange(cutoff + 1)
    return complex(np.sum(coherent_fock(beta, cutoff) * phases * hermite_psi(p, cutoff)))


def kerr_fock(alpha: complex, lam_tau: float, cutoff: int) -> np.ndarray:
    """Number-basis Kerr evolution: c_n -> c_n e^{-i lam_tau n^2}."""
    n = np.arange(cutoff + 1)
    return coherent_fock(alpha, cutoff) * np.exp(-1j * lam_tau * n.astype(float) ** 2)


def closed_form_ring_coefficients(n: int) -> np.ndarray:
    """Gauss-sum closed form (S/n) (-1)^k e^{i pi k^2 / n}, S = sum_j (-1)^j e^{-i pi j^2/n}."""
    j = np.arange(n)
    s = np.sum(((-1.0) ** j) * np.exp(-1j * np.pi * j.astype(float) ** 2 / n))
    k = np.arange(1, n + 1)
    return (s / n) * (-1.0) ** k * np.exp(1j * np.pi * k.astype(float) ** 2 / n)


def condition_fock(alpha: float, n_ring: int, x: float, cutoff: int):
    """Evolve at pi/n_ring, 50-50 split with vacuum, project mode 1 onto |x>.

    Returns (normalized mode-2 vector, pre-normalization density p(x)).
    The splitter acts as |n,0> -> sum_k 2^{-n/2} sqrt(C(n,k)) |k, n-k>.
    """
    psi = kerr_fock(alpha, math.pi / n_ring, cutoff)
    psi_x = hermite_psi(x, cutoff)
    out = np.zeros(cutoff + 1, dtype=complex)
    for l in range(cutoff + 1):
        k = np.arange(cutoff + 1 - l)
        tot = k + l
        logbin = 0.5 * (gammaln(tot + 1.0) - gammaln(k + 1.0) - gammaln(l + 1.0)) \
            - tot * (math.log(2.0) / 2.0)
        out[l] = np.sum(psi[tot] * np.exp(logbin) * psi_x[k])
    density = float(np.vdot(out, out).real)
    return out / math.sqrt(density), density


def x_density_fock(vec: np.ndarray, x: float) -> float:
    return abs(np.sum(vec * hermite_psi(x, len(vec) - 1))) ** 2


def p_density_fock(vec: np.ndarray, p: float) -> float:
    phases = (-1j) ** np.arange(len(vec))
    return abs(np.sum(vec * phases * hermite_psi(p, len(vec) - 1))) ** 2


def max_phi_fidelity_fock(vec: np.ndarray, target_beta: complex,
                          partner_beta: complex, n_phi: int = 200000) -> float:
    """max over phi of |<cat|vec>|^2 by dense scan (independent of the package)."""
    cutoff = len(vec) - 1
    a = np.vdot(coherent_fock(target_beta, cutoff), vec)
    b = np.vdot(coherent_fock(partner_beta, cutoff), vec)
    cross = overlap_fock(target_beta, partner_beta, cutoff)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    num = abs(a) ** 2 + abs(b) ** 2 + 2.0 * (np.conj(a) * b * np.exp(-1j * phi)).real
    den = 2.0 + 2.0 * (cross * np.exp(1j * phi)).real
    return float(np.max(num / den))


def odd_poisson_partial_sum(mu: float, nmax: int = 200) -> float:
    """sum over odd n <= nmax of e^{-mu} mu^n / n!."""
    total = 0.0
    for n in range(1, nmax + 1, 2):
        total += math.exp(-mu + n * math.log(mu) - gammaln(n + 1.0)) if mu > 0 else 0.0
    return total


def correlated_lag_norm(q: np.ndarray, amps: np.ndarray):
    """(log squared norm, digits lost) of sum_n q_n |b_n> on a ring
    b_n = b_0 w^n, w = e^{2 i pi / N}, summed directly over the N lags.

    The Gram matrix is circulant, <b_m|b_n> = g_{n-m} with
    g_k = exp(|b_0|^2 (w^k - 1)), so the squared norm is |sum_k g_k r_k| with
    r_k = sum_m conj(q_m) q_{m+k}.  The N^2 pair terms' magnitudes sum to
    sum_k |g_k| t_k with t_k = sum_m |q_m| |q_{m+k}|, so the sum loses
    log10(sum_k |g_k| t_k / |sum_k g_k r_k|) digits.  Both correlations are
    summed directly over the doubled row.
    """
    n = len(amps)
    mag = np.abs(q)
    r = np.correlate(np.concatenate((q, q)), q, "valid")[:n]
    t = np.correlate(np.concatenate((mag, mag)), mag, "valid")[:n]
    g = np.exp(abs(amps[0]) ** 2 * np.expm1(2j * np.pi * np.arange(n) / n))
    s, mass = abs(np.sum(g * r)), np.sum(np.abs(g) * t)
    return np.log(s), np.log10(mass / s)
