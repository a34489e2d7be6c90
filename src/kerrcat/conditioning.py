"""Beam splitting with vacuum and homodyne conditioning.

A 50-50 beam splitter with vacuum on the idle port maps every component
|beta> of a single-mode superposition to the two-mode product
|beta/sqrt2> (x) |beta/sqrt2>; no arm picks up a sign (conventions differing
by output-arm sign flips relabel amplitudes deterministically and change no
density or fidelity).  The split needs no state of its own: both arms share
the amplitudes b_n = beta_n/sqrt2 (:func:`_split`, the one place they are
written) and the coefficients c_n, so :func:`condition_on_x` and
:func:`x_outcome_density` take the single-mode state before the split and
the outcome X (the density also takes a 1-D array of outcomes).  Measuring
X on the first output mode collapses the second onto

    sum_n  c_n <X|b_n>  |b_n>     (renormalized),

and the outcome density p(X) = Tr[rho_1 |X><X|] is exactly the state's
pre-normalization squared norm, with the traced-out second mode contributing
one factor <b_m|b_n> per component pair.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .states import (
    CoherentSuperposition,
    DegenerateStateError,
    SQRT2,
    _DIGITS_BUDGET,
    _LOG_DEGENERATE,
    _log_polar,
    _norms,
    _project,
    _refuse,
    _ring_spectrum,
    _scale,
    _unit,
    superposition,
)


def _split(amps: np.ndarray) -> np.ndarray:
    """Per-arm amplitudes b_n = beta_n / sqrt2 of a 50-50 split against vacuum."""
    return amps / SQRT2


class _Collapse(NamedTuple):
    """Unnormalized collapsed states sum_n q_gn |b_n>, q_gn = c_n <X_g|b_n>.

    One row g per outcome X_g, scaled by :func:`_scale`: ``q`` holds every
    q_gn e^{-top_g} (they are the collapsed states' coefficients), ``top``
    the row scales top_g = max_n log|q_gn| and ``amps`` the amplitudes b_n,
    a ring turned by phase noise included.
    ``log_norm`` holds the log squared norms sum_{m,n} conj(q_gm) q_gn <b_m|b_n>,
    the outcome densities p(X_g), and ``digits_lost`` the digits each of
    those sums loses to cancellation in :func:`_norms`, the one verdict on a
    row.  Ring rows past the budget there have their ``log_norm`` from the
    sum over lags.
    """

    x: np.ndarray
    top: np.ndarray
    q: np.ndarray
    amps: np.ndarray
    log_norm: np.ndarray
    digits_lost: np.ndarray

    def degenerate(self) -> np.ndarray:
        """Rows whose squared norm is below 1e-300."""
        return self.log_norm < _LOG_DEGENERATE

    def coeffs(self, rows) -> np.ndarray:
        """Renormalized coefficients of non-degenerate ``rows``."""
        return self.q[rows] * np.exp(self.top[rows] - 0.5 * self.log_norm[rows])[..., None]

    def densities(self, rows=slice(None)) -> np.ndarray:
        """p(X) of ``rows``, refused by :func:`_refuse` past the digits-lost budget."""
        _refuse(self.digits_lost[rows], lambda g: f"outcome density at X = {self.x[rows][g]:g}")
        return np.exp(np.minimum(self.log_norm[rows], 700.0))

    def state(self, g: int = 0) -> CoherentSuperposition:
        """Row g renormalized; raises DegenerateStateError below 1e-300."""
        lg = self.log_norm[g]
        if lg < _LOG_DEGENERATE:
            raise DegenerateStateError(
                f"conditioning on X = {self.x[g]:g} annihilates the state "
                f"(log density {lg:.1f})")
        return superposition(self.coeffs(g), self.amps, normalized=True)


def _lag_norm(q, amps):
    """Log squared norm of one row q on a ring b_n = b_0 w^n, summed directly
    over the N lags k = n - m: the Gram matrix is circulant,
    <b_m|b_n> = g_{n-m} with g_k = <b_0|b_k> = exp(|b_0|^2 (w^k - 1)), so the
    squared norm is |sum_k g_k r_k| over the circular autocorrelation
    r_k = sum_m conj(q_m) q_{m+k}, a direct O(N^2) sum over the doubled row
    (by FFT it would be the spectral norm this route stands in for).  To be
    deleted once rows past the budget are refused outright.
    """
    n = len(amps)
    r = np.correlate(np.concatenate((q, q)), q, "valid")[:n]
    g = np.exp(abs(amps[0]) ** 2 * np.expm1(2j * np.pi * np.arange(n) / n))
    with np.errstate(divide="ignore"):
        return np.log(abs(np.sum(g * r)))


def _scaled_rows(log_c, arg_c, amps, x):
    """(x, top, q) of :class:`_Collapse`: the first arm of
    sum_n c_n |b_n> (x) |b_n> projected on each outcome in ``x``, each row
    scaled once by :func:`_scale`.

    ``log_c``/``arg_c`` are the log-polar coefficients and ``amps`` the b_n:
    one row shared by every outcome, or one row per outcome (a ring turned
    by its own rotation in each).  Raises ValueError unless every outcome is
    finite.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("measurement outcome must be finite")
    lq, aq = _project(log_c, arg_c, amps, x[:, None])
    return (x, *_scale(lq, aq))


def _collapse(log_c, arg_c, amps, x, spectrum: np.ndarray | None = None) -> _Collapse:
    """Project the first arm of sum_n c_n |b_n> (x) |b_n> on each outcome in ``x``.

    The rows are built by :func:`_scaled_rows`, and their entries become the
    collapsed states' coefficients.  ``spectrum`` is the :func:`_ring_spectrum`
    of ``amps``, if they are a ring; a turned ring has the Gram matrix, and so
    the spectrum, of the unturned one.  :func:`_norms` gives the densities of
    all rows and their digits lost: spectral on a ring, pair sums on any
    other state.  Ring rows that lose more than ``_DIGITS_BUDGET`` digits
    there take their log density from :func:`_lag_norm` instead.
    """
    x, top, q = _scaled_rows(log_c, arg_c, amps, x)
    log_norm, lost = _norms(q, amps, spectrum)
    if spectrum is not None:
        for g in np.flatnonzero(~(lost <= _DIGITS_BUDGET)):
            log_norm[g] = _lag_norm(q[g], amps)
    return _Collapse(x, top, q, amps, 2.0 * top + log_norm, lost)


def x_outcome_density(psi: CoherentSuperposition, X):
    """Homodyne outcome density Tr[rho_1 |X><X|] of ``psi`` split against
    vacuum: a float for a number X, the array of densities for a 1-D array
    of outcomes; ValueError for any other shape.  It integrates to 1 over X.
    An unflagged ``psi`` is normalized first (:func:`_unit`).  Every outcome
    is its own row of one :func:`_collapse`, so an array's densities equal
    the one-point calls'.

    Raises ArithmeticError if a density loses more than ``_DIGITS_BUDGET``
    digits to cancellation.
    """
    if np.ndim(X) > 1:
        raise ValueError("measurement outcomes must be a number or a 1-D array")
    amps = _split(psi.amps)
    density = _collapse(*_log_polar(_unit(psi).coeffs), amps, X,
                        _ring_spectrum(amps)).densities()
    return float(density[0]) if np.ndim(X) == 0 else density


def condition_on_x(psi: CoherentSuperposition, X: float) -> CoherentSuperposition:
    """Split ``psi`` against vacuum and collapse the unmonitored mode on
    homodyne outcome X (exact projection).

    The collapsed row is scaled by its largest coefficient before it is
    summed, so outcomes deep in the Gaussian tails normalize correctly until
    the state is numerically null.

    Raises
    ------
    DegenerateStateError
        If the pre-normalization squared norm falls below 1e-300.
    """
    amps = _split(psi.amps)
    return _collapse(*_log_polar(psi.coeffs), amps, X, _ring_spectrum(amps)).state()
