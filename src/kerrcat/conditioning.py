"""Beam splitting with vacuum and homodyne conditioning.

A 50-50 beam splitter with vacuum on the idle port maps every component
|beta> of a single-mode superposition to the two-mode product
|beta/sqrt2> (x) |beta/sqrt2>; no arm picks up a sign (conventions differing
by output-arm sign flips relabel amplitudes deterministically and change no
density or fidelity).  Measuring X on the first output mode collapses the
second onto

    sum_n  c_n <X|beta_n/sqrt2>  |beta_n/sqrt2>     (renormalized),

and the outcome density p(X) = Tr[rho_1 |X><X|] is exactly the state's
pre-normalization squared norm, with the traced-out second mode contributing
one factor <beta_m/sqrt2|beta_n/sqrt2> per component pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    CoherentSuperposition,
    DegenerateStateError,
    LogComplex,
    SQRT2,
    _LOG_DEGENERATE,
    _log_polar,
    _log_squared_norm,
    _pair_sum_log,
    _x_amplitude_log_arrays,
    superposition,
)


@dataclass(frozen=True)
class HomodyneOutcome:
    """Measured X-quadrature value on the monitored output mode."""

    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError("measurement outcome must be finite")


@dataclass(frozen=True)
class TwoModeProductSuperposition:
    """sum_n c_n |b_n> (x) |b_n>: both outputs of a 50-50 split share b_n.

    Structural property of splitting a single-mode superposition with vacuum;
    ``amps`` holds the per-arm amplitudes b_n = beta_n / sqrt2.
    """

    coeffs: np.ndarray
    amps: np.ndarray
    is_normalized: bool = False

    def __len__(self) -> int:
        return len(self.coeffs)

    def squared_norm(self) -> float:
        """Two-mode norm: component overlaps enter squared, <b_m|b_n>^2."""
        # <b_m|b_n>^2 = <sqrt2 b_m|sqrt2 b_n>: the single-mode pair sum
        return math.exp(_log_squared_norm(self.coeffs, SQRT2 * self.amps))


def beamsplit_with_vacuum(psi: CoherentSuperposition) -> TwoModeProductSuperposition:
    """50-50 split against vacuum: (c_n, beta_n) -> (c_n, beta_n/sqrt2) per arm.

    Norm is preserved exactly: the squared two-mode overlaps
    <b_m|b_n>^2 reproduce the original Gram matrix <beta_m|beta_n>.
    """
    amps = (psi.amps / SQRT2).copy()
    amps.setflags(write=False)
    return TwoModeProductSuperposition(psi.coeffs, amps, psi.is_normalized)


def _as_outcome(outcome) -> float:
    if isinstance(outcome, HomodyneOutcome):
        return outcome.x
    x = float(outcome)
    if not math.isfinite(x):
        raise ValueError("measurement outcome must be finite")
    return x


class _Collapse(NamedTuple):
    """Unnormalized collapsed state sum_n q_n |b_n>, q_n = c_n <X|b_n>.

    ``log_q``/``arg_q`` are the log-polar q_n and ``norm`` is the state's
    squared norm sum_{m,n} conj(q_m) q_n <b_m|b_n>, the outcome density p(X).
    """

    x: float
    log_q: np.ndarray
    arg_q: np.ndarray
    amps: np.ndarray
    norm: LogComplex

    def density(self) -> float:
        """p(X); an imaginary residue above 1e-12 means the pair sum lost precision."""
        if self.norm.log_magnitude == -math.inf:
            return 0.0
        if abs(self.norm.phase) > 1e-12:
            raise ArithmeticError(
                f"outcome density at X = {self.x:g} has imaginary residue "
                f"(phase {self.norm.phase:.3e})")
        return math.exp(min(self.norm.log_magnitude, 700.0))

    def state(self) -> CoherentSuperposition:
        """The renormalized state; raises DegenerateStateError below 1e-300."""
        lg = self.norm.log_magnitude
        if lg < _LOG_DEGENERATE:
            raise DegenerateStateError(
                f"conditioning on X = {self.x:g} annihilates the state "
                f"(log density {lg:.1f})")
        coeffs = np.exp(self.log_q - 0.5 * lg) * np.exp(1j * self.arg_q)
        return superposition(coeffs, self.amps, normalized=True, merge=False)


def _collapse(log_c, arg_c, amps, x: float, gram=None) -> _Collapse:
    """Project the first arm of sum_n c_n |b_n> (x) |b_n> on outcome x.

    ``log_c``/``arg_c`` are the log-polar coefficients; ``gram`` optionally
    holds the precomputed (log-magnitude, phase) blocks of <b_m|b_n>.
    """
    wl, wp = _x_amplitude_log_arrays(x, amps)
    lq, aq = log_c + wl, arg_c + wp
    return _Collapse(x, lq, aq, amps, _pair_sum_log(lq, aq, amps, gram=gram))


def x_outcome_density(two_mode: TwoModeProductSuperposition, X: float) -> float:
    """Homodyne outcome density Tr[rho_1 |X><X|]; integrates to 1 over X.

    Raises ArithmeticError if the pair sum keeps an imaginary residue above 1e-12.
    """
    return _collapse(*_log_polar(two_mode.coeffs), two_mode.amps, float(X)).density()


def condition_on_x(two_mode: TwoModeProductSuperposition, outcome) -> CoherentSuperposition:
    """Collapse the unmonitored mode on homodyne outcome X (exact projection).

    Coefficients and the normalization are assembled in the log domain, so
    outcomes deep in the Gaussian tails normalize correctly until the state is
    numerically null.

    Raises
    ------
    DegenerateStateError
        If the pre-normalization squared norm falls below 1e-300.
    """
    return _collapse(*_log_polar(two_mode.coeffs), two_mode.amps, _as_outcome(outcome)).state()
