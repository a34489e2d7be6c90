"""Property tests for the pair-sum kernel, conditioning and the phi maximization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import (
    DegenerateStateError,
    condition_on_x,
    inner_product,
    kerr_decompose,
    squared_norm,
    superposition,
)
from kerrcat.metrics import _max_phi, _phi_objective

# the same examples on every run, and no example database on disk
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
complex_unit = st.builds(complex, unit, unit)
amplitude = st.builds(complex, st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))


@st.composite
def states(draw):
    k = draw(st.integers(1, 5))
    coeffs = draw(st.lists(complex_unit, min_size=k, max_size=k))
    amps = draw(st.lists(amplitude, min_size=k, max_size=k))
    return superposition(coeffs, amps)


@DETERMINISTIC
@given(states(), states())
def test_inner_product_conjugate_symmetric(psi, chi):
    ab = inner_product(psi, chi)
    ba = inner_product(chi, psi)
    assert ab == pytest.approx(ba.conjugate(), rel=1e-12, abs=1e-14)


@DETERMINISTIC
@given(st.floats(1.0, 8.0), st.integers(1, 16), st.floats(-12.0, 12.0))
def test_condition_on_x_is_unit_norm(alpha, n, x):
    try:
        psi = condition_on_x(kerr_decompose(alpha, n), x)
    except DegenerateStateError:
        return
    assert psi.is_normalized
    assert squared_norm(psi) == pytest.approx(1.0, abs=1e-10)


def _scan_max(A, B, cross, n_phi=1 << 16):
    """max over phi of the cat objective by dense scan (independent of _max_phi)."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    num = abs(A) ** 2 + abs(B) ** 2 + 2.0 * (np.conj(A) * B * np.exp(-1j * phi)).real
    den = 2.0 + 2.0 * (cross * np.exp(1j * phi)).real
    return float(np.max(num / den))


@st.composite
def crosses(draw):
    return complex(draw(st.floats(0.0, 0.9))
                   * np.exp(1j * draw(st.floats(-math.pi, math.pi))))


maybe_zero = st.one_of(st.just(0j), complex_unit)


@DETERMINISTIC
@given(maybe_zero, maybe_zero, st.one_of(st.just(0j), crosses()))
@example(0j, 0j, 0j)
@example(0j, 0.3 + 0.1j, 0.5j)
@example(0.7 - 0.2j, 0j, -0.8 + 0j)
@example(0.6 + 0.3j, -0.1 + 0.5j, 0j)
def test_max_phi_not_below_dense_scan(A, B, cross):
    fid, phi = _max_phi(A, B, cross)
    assert 0.0 <= phi <= 2.0 * math.pi
    assert fid == pytest.approx(float(_phi_objective(A, B, cross, phi)), rel=1e-14, abs=0)
    scan = _scan_max(A, B, cross)
    assert fid >= scan - 1e-13 * scan


@pytest.mark.parametrize("delta", [0j, 1e-9 * (1 + 1j)])
def test_phi_objective_near_cancellation(delta):
    # A + e^{-i phi} B = -delta: the objective is |delta|^2 / den, never
    # rounding noise of either sign
    A, phi, cross = 0.3 + 0.7j, 1.1, 0.2 - 0.1j
    B = -(A + delta) * np.exp(1j * phi)
    den = 2.0 + 2.0 * (cross * np.exp(1j * phi)).real
    got = float(_phi_objective(A, B, cross, phi))
    assert got >= 0.0
    assert got == pytest.approx(abs(delta) ** 2 / den, rel=1e-6, abs=1e-30)
