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
    """Unnormalized collapsed states sum_n q_gn |b_gn>, q_gn = c_n <X_g|b_gn>.

    One row g per outcome: ``log_q``/``arg_q`` hold the log-polar q_gn and
    ``amps`` the amplitudes b_n, or one row of them per outcome when the ring
    is rotated.  ``log_norm``/``phase`` are the log-polar squared norms
    sum_{m,n} conj(q_gm) q_gn <b_gm|b_gn>, the outcome densities p(X_g).
    """

    x: np.ndarray
    log_q: np.ndarray
    arg_q: np.ndarray
    amps: np.ndarray
    log_norm: np.ndarray
    phase: np.ndarray

    def degenerate(self) -> np.ndarray:
        """Rows whose squared norm is below 1e-300."""
        return self.log_norm < _LOG_DEGENERATE

    def coeffs(self, rows) -> np.ndarray:
        """Renormalized coefficients of non-degenerate ``rows``."""
        lg = self.log_norm[rows, None]
        return np.exp(self.log_q[rows] - 0.5 * lg) * np.exp(1j * self.arg_q[rows])

    def density(self, g: int = 0) -> float:
        """p(X_g); an imaginary residue above 1e-12 means the pair sum lost precision."""
        lg, phase = self.log_norm[g], self.phase[g]
        if lg == -math.inf:
            return 0.0
        if abs(phase) > 1e-12:
            raise ArithmeticError(
                f"outcome density at X = {self.x[g]:g} has imaginary residue "
                f"(phase {phase:.3e})")
        return math.exp(min(lg, 700.0))

    def state(self, g: int = 0) -> CoherentSuperposition:
        """Row g renormalized; raises DegenerateStateError below 1e-300."""
        lg = self.log_norm[g]
        if lg < _LOG_DEGENERATE:
            raise DegenerateStateError(
                f"conditioning on X = {self.x[g]:g} annihilates the state "
                f"(log density {lg:.1f})")
        amps = self.amps if self.amps.ndim == 1 else self.amps[g]
        return superposition(self.coeffs(g), amps, normalized=True, merge=False)


def _collapse(log_c, arg_c, amps, x, gram=None, rotation=None) -> _Collapse:
    """Project the first arm of sum_n c_n |b_n> (x) |b_n> on each outcome in ``x``.

    ``log_c``/``arg_c`` are the log-polar coefficients; ``gram`` optionally
    holds the precomputed (log-magnitude, phase) blocks of <b_m|b_n>.  Given
    ``rotation``, row g rotates the ring first, b_n -> b_n e^{i u_g}; ``x``
    and ``rotation`` broadcast to one row per outcome.  Each row's density
    is its own pair sum.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if rotation is not None:
        x, u = np.broadcast_arrays(x, np.asarray(rotation, dtype=float))
        amps = amps * np.exp(1j * u)[:, None]
    wl, wp = _x_amplitude_log_arrays(x[:, None], amps)
    lq, aq = log_c + wl, arg_c + wp
    norms = [_pair_sum_log(lq[g], aq[g], amps if amps.ndim == 1 else amps[g], gram=gram)
             for g in range(len(x))]
    return _Collapse(x, lq, aq, amps,
                     np.array([r.log_magnitude for r in norms]),
                     np.array([r.phase for r in norms]))


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
