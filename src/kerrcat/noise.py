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
the unperturbed target cat at its own maximizing relative phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metrics import _branch_terms, _max_phi, _phi_objective, _pipeline
from .states import CoherentSuperposition


@dataclass(frozen=True)
class NoiseParams:
    """Loss and phase-noise strengths.

    Exactly one of ``loss_prob`` (probability of losing at least one photon at
    the final stage) or ``gamma_tau`` (decay exponent) fixes the loss; setting
    both keeps the amplitude decay tied to ``gamma_tau`` while the flip
    probability follows ``loss_prob`` (useful for probing the mixture weights
    with frozen branches).  ``direct_flip`` reads ``loss_prob`` as the flip
    probability itself instead of deriving it from Poissonian parity.
    """

    loss_prob: float | None = None
    gamma_tau: float | None = None
    sigma_phase: float = 0.0
    direct_flip: bool = False

    def __post_init__(self):
        if self.loss_prob is not None and not (0.0 <= self.loss_prob < 1.0):
            raise ValueError("loss_prob must lie in [0, 1)")
        if self.direct_flip:
            if self.loss_prob is None:
                raise ValueError("direct_flip needs loss_prob")
            if self.loss_prob > 0.5:
                raise ValueError("flip probability cannot exceed 1/2 (parity equipartition)")
        if self.gamma_tau is not None and self.gamma_tau < 0:
            raise ValueError("gamma_tau must be nonnegative")
        if self.sigma_phase < 0:
            raise ValueError("sigma_phase must be nonnegative")

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
        if self.loss_prob is not None and self.gamma_tau is not None:
            mu = -math.log1p(-self.loss_prob)
        else:
            mu = self.mean_lost_photons(alpha_i)
        return odd_loss_probability(mu)

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
    flipped = (psi.coeffs * sign).copy()
    flipped.setflags(write=False)
    return CoherentSuperposition(flipped, psi.amps, psi.is_normalized)


def _target_terms(pipe, psi: CoherentSuperposition):
    """(A, B) of ``psi`` against the pipeline's target cat branches."""
    return _branch_terms(psi.coeffs, psi.amps, pipe.bt, pipe.pt)


def lossy_final_state(alpha_i: float, n: int, X: float,
                      noise: NoiseParams) -> LossyFinalState:
    """Run the pipeline at the decayed amplitude and build both mixture branches."""
    a_dec = noise.decayed_alpha(alpha_i)
    pipe = _pipeline(a_dec, n)
    plus = pipe.conditioned(float(X))
    minus = _flip_partner_branch(plus, pipe.bt)
    return LossyFinalState(noise.flip_probability(alpha_i), plus, minus, a_dec)


def lossy_fidelity(alpha_i: float, n: int, X: float, noise: NoiseParams) -> float:
    """Fidelity of the lossy mixture to the cat matched to the decayed state.

    The target branch amplitude comes from the decayed pipeline and the
    relative phase is frozen at the flip-free maximizer, so
    F = (1 - P_f) F_plus + P_f F_minus.
    """
    final = lossy_final_state(alpha_i, n, X, noise)
    pipe = _pipeline(final.decayed_alpha, n)
    f_plus, phi_max = map(float, _max_phi(*_target_terms(pipe, final.branch_plus), pipe.cross))
    f_minus = float(_phi_objective(*_target_terms(pipe, final.branch_minus), pipe.cross, phi_max))
    return (1.0 - final.p_flip) * f_plus + final.p_flip * f_minus


def phase_noise_state(alpha_i: float, n: int, X: float,
                      delta_phi: float) -> CoherentSuperposition:
    """Conditioned state after the whole ring is rotated by delta_phi.

    Components sit at -alpha_i e^{i(2 k pi / n + delta_phi)} / sqrt2 with
    coefficients C_k <X|rotated amplitude>, renormalized.
    """
    return _pipeline(float(alpha_i), int(n)).conditioned(float(X), rotation=float(delta_phi))


@lru_cache(maxsize=16)
def _hermite_rule(nodes: int):
    """Gauss-Hermite nodes t and weights times e^{t^2}, cached by node count.

    Raises ArithmeticError if the weights are not finite.
    """
    with np.errstate(all="ignore"):
        t, w = np.polynomial.hermite.hermgauss(nodes)
        weights = w * np.exp(t ** 2)
    if not np.all(np.isfinite(weights)):
        raise ArithmeticError(f"Gauss-Hermite weights overflow at {nodes} nodes")
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def phase_noise_avg_fidelity(alpha_i: float, n: int, X: float, sigma: float,
                             min_nodes: int = 64, max_nodes: int = 256,
                             tol: float = 1e-8,
                             magnitude_only: bool = False) -> float:
    """Gaussian-average fidelity of the phase-fluctuated conditioned state.

    Integrates |<cat(target, phi_max)|psi_dphi>|^2 against a zero-mean Gaussian
    of standard deviation sigma by Gauss-Hermite quadrature, doubling the node
    count from ``min_nodes`` until two successive rules agree to ``tol`` (or
    a rule of ``max_nodes`` nodes, where the doubling is capped, has been
    evaluated; the overlap collapse at large amplitude is much narrower than
    the fluctuation Gaussian, so nodes are placed on the combined scale
    1/sqrt(1/sigma^2 + alpha_i^2)).  ``magnitude_only`` averages
    |<cat|psi>| instead of its square, for curve-shape comparisons.

    phi_max is the fidelity-maximizing phase of the unperturbed state.  Raises
    ArithmeticError if a rule's weights are not finite (numpy's Gauss-Hermite
    weights overflow from about 380 nodes).
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    pipe = _pipeline(float(alpha_i), int(n))
    f0, phi_max = map(float, _max_phi(*_target_terms(pipe, pipe.conditioned(float(X))),
                                      pipe.cross))
    if sigma == 0.0:
        return math.sqrt(f0) if magnitude_only else f0

    scale = 1.0 / math.sqrt(1.0 / sigma ** 2 + alpha_i ** 2)

    def rule(nodes: int) -> float:
        t, weights = _hermite_rule(nodes)
        u = math.sqrt(2.0) * scale * t
        gauss = np.exp(-u ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
        A, B, degenerate = pipe.fidelity_terms(float(X), rotation=u)
        h = np.where(degenerate, 0.0, _phi_objective(A, B, pipe.cross, phi_max))
        if magnitude_only:
            h = np.sqrt(np.maximum(h, 0.0))
        return float(np.sum(weights * gauss * h) * math.sqrt(2.0) * scale)

    nodes = int(min_nodes)
    prev = rule(nodes)
    while nodes < max_nodes:
        nodes = min(2 * nodes, int(max_nodes))
        cur = rule(nodes)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


__all__ = [
    "LossyFinalState",
    "NoiseParams",
    "lossy_fidelity",
    "lossy_final_state",
    "odd_loss_probability",
    "phase_noise_avg_fidelity",
    "phase_noise_state",
]
