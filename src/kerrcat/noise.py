"""Error models: photon loss at the medium's final stage and random phase
fluctuation during propagation.

Loss model: photons lost at the final stage carry away phase information;
losing an odd number of them flips the cat's relative phase by pi, while an
even number leaves it unchanged.  With Poissonian loss of mean mu the flip
probability is P_f = sum_{odd n} e^{-mu} mu^n / n! = (1 - e^{-2 mu}) / 2 and
the surviving amplitude decays as alpha e^{-gamma tau / 2} with
mu = alpha^2 (1 - e^{-gamma tau}).  The final state is the two-term mixture
(1 - P_f) |Psi><Psi| + P_f |Phi><Phi| where |Phi> is |Psi> with the partner
branch rotated by pi.

Phase model: a fluctuation dphi rotates every ring component,
|-a e^{i(2 n pi / N + dphi)}/sqrt2>, before the homodyne projection; the
reported figure of merit is the Gaussian average over dphi of the fidelity to
the unperturbed target cat at its own maximizing relative phase.  Kerr
evolution commutes with rotation, so a turn by one ring step 2 pi / N only
relabels the components: the average samples whole ring turns and scores N
of its rotations from each collapsed row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import _collapse
from .metrics import _branch_terms, _max_phi, _phi_objective, _pipeline
from .states import CoherentSuperposition, superposition


@dataclass(frozen=True)
class NoiseParams:
    """Final-stage photon loss.

    Exactly one of ``loss_prob`` (probability of losing at least one photon at
    the final stage) or ``gamma_tau`` (decay exponent) fixes the loss; setting
    both keeps the amplitude decay tied to ``gamma_tau`` while the flip
    probability follows ``loss_prob`` (useful for probing the mixture weights
    with frozen branches).  ``direct_flip`` reads ``loss_prob`` as the flip
    probability itself instead of deriving it from Poissonian parity.
    """

    loss_prob: float | None = None
    gamma_tau: float | None = None
    direct_flip: bool = False

    def __post_init__(self):
        if self.loss_prob is not None and not (0.0 <= self.loss_prob < 1.0):
            raise ValueError("loss_prob must lie in [0, 1)")
        if self.direct_flip:
            if self.loss_prob is None:
                raise ValueError("direct_flip needs loss_prob")
            if self.loss_prob >= 0.5:
                raise ValueError("flip probability must be below 1/2 (parity equipartition)")
        if self.gamma_tau is not None and self.gamma_tau < 0:
            raise ValueError("gamma_tau must be nonnegative")

    def mean_lost_photons(self, alpha_i: float) -> float:
        if self.gamma_tau is not None:
            return alpha_i ** 2 * -math.expm1(-self.gamma_tau)
        if self.loss_prob is None:
            return 0.0
        if self.direct_flip:
            return -0.5 * math.log1p(-2.0 * self.loss_prob)
        return -math.log1p(-self.loss_prob)

    def flip_probability(self, alpha_i: float) -> float:
        if self.direct_flip:
            return float(self.loss_prob)
        if self.loss_prob is None:
            return odd_loss_probability(self.mean_lost_photons(alpha_i))
        return odd_loss_probability(-math.log1p(-self.loss_prob))

    def decayed_alpha(self, alpha_i: float) -> float:
        mu = self.mean_lost_photons(alpha_i)
        if mu >= alpha_i ** 2:
            raise ValueError("loss exceeds the state's whole energy")
        return alpha_i * math.sqrt(1.0 - mu / alpha_i ** 2)


@dataclass(frozen=True)
class LossyFinalState:
    """Mixture (1-p_flip)|branch_plus><..| + p_flip |branch_minus><..|."""

    p_flip: float
    branch_plus: CoherentSuperposition
    branch_minus: CoherentSuperposition
    decayed_alpha: float


def odd_loss_probability(mu: float) -> float:
    """Probability of losing an odd number of photons, Poisson mean mu.

    sum_{odd n} e^{-mu} mu^n / n! = (1 - e^{-2 mu}) / 2; saturates at 1/2.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return -0.5 * math.expm1(-2.0 * mu)


def _flip_partner_branch(psi: CoherentSuperposition, target_beta: complex) -> CoherentSuperposition:
    """Rotate the partner half of the ring by pi relative to the target half."""
    sign = np.where((np.conj(complex(target_beta)) * psi.amps).real < 0.0, -1.0, 1.0)
    return superposition(psi.coeffs * sign, psi.amps, normalized=psi.is_normalized)


def lossy_final_state(alpha_i: float, n: int, X: float,
                      noise: NoiseParams) -> LossyFinalState:
    """Run the pipeline at the decayed amplitude and build both mixture branches."""
    a_dec = noise.decayed_alpha(alpha_i)
    pipe = _pipeline(a_dec, n)
    plus = pipe.conditioned(float(X))
    minus = _flip_partner_branch(plus, pipe.target[0])
    return LossyFinalState(noise.flip_probability(alpha_i), plus, minus, a_dec)


def lossy_fidelity(alpha_i: float, n: int, X: float, noise: NoiseParams) -> float:
    """Fidelity of the lossy mixture to the cat matched to the decayed state.

    The target branch amplitude comes from the decayed pipeline and the
    relative phase is frozen at the flip-free maximizer, so
    F = (1 - P_f) F_plus + P_f F_minus.
    """
    final = lossy_final_state(alpha_i, n, X, noise)
    bt, pt, cross = _pipeline(final.decayed_alpha, n).target
    coeffs = np.stack((final.branch_plus.coeffs, final.branch_minus.coeffs))
    A, B = _branch_terms(coeffs, final.branch_plus.amps, bt, pt)  # both branches share amps
    f_plus, phi_max = map(float, _max_phi(A[0], B[0], cross))
    f_minus = float(_phi_objective(A[1], B[1], cross, phi_max))
    return (1.0 - final.p_flip) * f_plus + final.p_flip * f_minus


def phase_noise_state(alpha_i: float, n: int, X: float,
                      delta_phi: float) -> CoherentSuperposition:
    """Conditioned state after the whole ring is rotated by delta_phi.

    Components sit at -alpha_i e^{i(2 k pi / n + delta_phi)} / sqrt2 with
    coefficients C_k <X|rotated amplitude>, renormalized.  The turned ring
    collapses on the cached spectrum of the unturned one: a turn leaves the
    Gram matrix as it is.  ValueError unless delta_phi and X are finite.
    """
    delta_phi = float(delta_phi)
    if not math.isfinite(delta_phi):
        raise ValueError("rotation delta_phi must be finite")
    pipe = _pipeline(float(alpha_i), int(n))
    turned = pipe.two_mode.amps * np.exp(1j * delta_phi)
    return _collapse(pipe.log_c, pipe.arg_c, turned, float(X), pipe.spectrum).state()


#: Rotation nodes of the phase-noise average: at least this many at first, doubled
#: until converged; no doubling starts at or past the cap.
_FIRST_NODES, _MAX_NODES = 64, 8192


def phase_noise_avg_fidelity(alpha_i: float, n: int, X: float, sigma):
    """Gaussian-average fidelity of the phase-fluctuated conditioned state.

    Averages h(u) = |<cat(target, phi_max)|psi_u>|^2, phi_max maximizing the
    unperturbed fidelity, over ring rotations u ~ N(0, sigma^2).  h is
    2 pi-periodic and analytic: it is sampled on M equispaced rotations and
    the result is sum_m h_m e^{-sigma^2 m^2 / 2} over the Fourier coefficients
    h_m of its trigonometric interpolant (the periodic trapezoid rule with
    wrapped-Gaussian weights; h(0) at sigma = 0).  M = N 2^k, first the
    smallest such count of at least 64, so the nodes are M / N rotations in
    [0, 2 pi / N), each scored at all N ring steps from one collapsed row
    (:meth:`_Pipeline.ring_step_terms`).  M doubles on nested nodes until
    every sigma agrees to 1e-8 with the previous M; ArithmeticError is raised
    when that takes a doubling from 8192 nodes or more, or when a rotated
    row's spectral norm loses more than ``_DIGITS_BUDGET`` digits to
    cancellation.  ``sigma`` is a number or a 1-D array; the result has its
    shape.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma) & (sigma >= 0)):
        raise ValueError("sigma must be finite and nonnegative")
    n = int(n)
    pipe = _pipeline(float(alpha_i), n)
    psi = pipe.conditioned(float(X))
    bt, pt, cross = pipe.target
    _, phi_max = _max_phi(*_branch_terms(psi.coeffs, psi.amps, bt, pt), cross)

    def sample(offset, m):
        """h at the m nodes 2 pi (i + offset) / m, in order of i."""
        base = 2.0 * np.pi * (np.arange(m // n) + offset) / m  # node i = g + (m / n) k
        A, B, _ = pipe.ring_step_terms(float(X), base)  # A = B = 0 where degenerate
        return _phi_objective(A, B, cross, phi_max).T.ravel()

    weights = np.zeros(sigma.shape + (0,))  # e^{-sigma^2 m^2 / 2} at [..., m]

    def average(h):
        nonlocal weights
        coeff = np.fft.rfft(h).real / len(h)
        coeff[1:(len(h) + 1) // 2] *= 2.0  # +m and -m, below the Nyquist term of an even len(h)
        new = np.arange(weights.shape[-1], len(coeff))  # only the m not weighted yet
        weights = np.concatenate(
            (weights, np.exp(-0.5 * np.multiply.outer(sigma ** 2, new ** 2))), axis=-1)
        return weights @ coeff

    m = n
    while m < _FIRST_NODES:
        m *= 2
    h = sample(0.0, m)
    prev = average(h)
    while len(h) < _MAX_NODES:
        h = np.stack((h, sample(0.5, len(h))), axis=-1).ravel()
        cur = average(h)
        if np.all(np.abs(cur - prev) <= 1e-8):
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise ArithmeticError(f"phase-noise average not converged to 1e-8 at {len(h)} nodes")


__all__ = [
    "LossyFinalState",
    "NoiseParams",
    "lossy_fidelity",
    "lossy_final_state",
    "odd_loss_probability",
    "phase_noise_avg_fidelity",
    "phase_noise_state",
]
