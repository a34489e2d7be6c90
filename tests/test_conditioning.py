"""Beam splitting with vacuum and homodyne conditioning."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from kerrcat import (
    DegenerateStateError,
    HomodyneOutcome,
    TwoModeProductSuperposition,
    beamsplit_with_vacuum,
    cat_fidelity,
    coherent_state,
    condition_at,
    condition_on_x,
    inner_product,
    kerr_decompose,
    outcome_density,
    superposition,
    vacuum_state,
    x_outcome_density,
)

SQRT2 = math.sqrt(2.0)


def split(alpha, n):
    return beamsplit_with_vacuum(kerr_decompose(alpha, n).state)


class TestBeamsplit:
    def test_single_coherent(self):
        tm = beamsplit_with_vacuum(coherent_state(3.0))
        assert tm.amps[0] == pytest.approx(3.0 / SQRT2, rel=1e-15)
        assert tm.coeffs[0] == 1.0

    def test_vacuum(self):
        tm = beamsplit_with_vacuum(vacuum_state())
        assert tm.amps[0] == 0.0
        assert tm.squared_norm() == pytest.approx(1.0, abs=1e-14)

    def test_flagship_norm_preserved(self):
        tm = split(20.0, 20)
        assert len(tm) == 20
        np.testing.assert_allclose(np.abs(tm.amps), 20.0 / SQRT2, atol=1e-12)
        assert tm.squared_norm() == pytest.approx(1.0, abs=1e-10)

    def test_norm_preservation_exact(self):
        # the squared two-mode Gram reproduces the pre-split Gram entrywise
        psi = superposition([0.8, 0.3j, -0.2], [1.0, -2.0, 0.5j]).normalized()
        tm = beamsplit_with_vacuum(psi)
        assert abs(tm.squared_norm() - psi.squared_norm()) < 1e-12


class TestConditionOnX:
    def test_balanced_two_component_at_zero(self):
        dec = kerr_decompose(4.0, 2)
        psi = condition_on_x(beamsplit_with_vacuum(dec.state), 0.0)
        mags = np.abs(psi.coeffs)
        assert mags[0] == pytest.approx(mags[1], rel=1e-12)
        report = cat_fidelity(psi, 4.0 / SQRT2)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_flagship_dominant_components(self):
        psi = condition_on_x(split(20.0, 20), 0.0)
        mags = np.abs(psi.coeffs)
        dom = np.argsort(mags)[-2:]
        assert set(dom) == {4, 14}  # ring positions 5 and 15
        np.testing.assert_allclose(
            sorted([psi.amps[4].imag, psi.amps[14].imag]),
            [-20.0 / SQRT2, 20.0 / SQRT2], atol=1e-9)
        # nearest neighbours (ring positions 4, 6, 14, 16) carry the Gaussian
        # ratio e^{-(sqrt2 Re b)^2 / 2} = e^{-19.1} ~ 5e-9; everything farther
        # is below 1e-30
        others = np.delete(mags, dom)
        assert np.max(others) / np.max(mags) < 1e-8
        next_ring = np.delete(mags, [2, 3, 4, 5, 12, 13, 14, 15])
        assert np.max(next_ring) / np.max(mags) < 1e-30

    def test_offset_outcome_shifts_weights(self):
        psi = condition_on_x(split(20.0, 20), 25.0)
        assert psi.squared_norm() == pytest.approx(1.0, abs=1e-10)
        top = psi.amps[int(np.argmax(np.abs(psi.coeffs)))]
        # favored component has its Gaussian center sqrt2 Re b nearest X = 25
        assert SQRT2 * top.real == pytest.approx(20.0, abs=1e-9)

    def test_accepts_outcome_object(self):
        tm = split(3.0, 4)
        a = condition_on_x(tm, 0.4)
        b = condition_on_x(tm, HomodyneOutcome(0.4))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(ValueError):
            condition_on_x(split(2.0, 2), math.nan)
        with pytest.raises(ValueError):
            HomodyneOutcome(math.inf)

    def test_degenerate_outcome_raises(self):
        tm = split(20.0, 20)
        with pytest.raises(DegenerateStateError):
            condition_on_x(tm, 48.0)

    def test_deep_tail_outcome_still_normalizes(self):
        psi = condition_on_x(split(20.0, 20), 45.0)
        assert psi.squared_norm() == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_projection(self):
        tm = split(20.0, 20)
        a = condition_on_x(tm, 0.4)
        b = condition_on_x(tm, 0.4)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.amps, b.amps)

    def test_projective_idempotence(self):
        # conditioning an already-conditioned state reapplies the same Gaussian
        # factors; at the symmetric outcome the dominant pair is untouched
        psi1 = condition_on_x(split(20.0, 20), 0.0)
        again = TwoModeProductSuperposition(psi1.coeffs, psi1.amps, True)
        psi2 = condition_on_x(again, 0.0)
        assert abs(inner_product(psi1, psi2)) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_exact_idempotence_two_components(self):
        psi1 = condition_on_x(split(5.0, 2), 0.0)
        again = TwoModeProductSuperposition(psi1.coeffs, psi1.amps, True)
        psi2 = condition_on_x(again, 0.0)
        assert abs(inner_product(psi1, psi2)) ** 2 == pytest.approx(1.0, abs=1e-13)

    def test_matches_fock_pipeline(self):
        alpha, n, x = 3.0, 5, 0.4
        psi = condition_on_x(split(alpha, n), x)
        cutoff = int(alpha ** 2 + 10 * alpha + 50)
        want, p_fock = oracles.condition_fock(alpha, n, x, cutoff)
        vec = sum(c * oracles.coherent_fock(a, cutoff) for c, a in zip(psi.coeffs, psi.amps))
        assert abs(np.vdot(want, vec)) == pytest.approx(1.0, abs=1e-10)


class TestOutcomeDensity:
    def test_vacuum_density(self):
        tm = beamsplit_with_vacuum(vacuum_state())
        for x in (0.0, 0.9, -2.0):
            assert x_outcome_density(tm, x) == pytest.approx(
                math.exp(-x * x) / math.sqrt(math.pi), rel=1e-12)

    def test_two_component_closed_form(self):
        # two humps centered at +-alpha; the cross term carries the mode-2
        # overlap <-b|b> = e^{-alpha^2}, further crushed by the X Gaussians
        alpha = 4.0
        dec = kerr_decompose(alpha, 2)
        tm = beamsplit_with_vacuum(dec.state)
        c1, c2 = dec.coefficients
        for x in (0.0, 2.0, alpha):
            g1 = math.exp(-((x - alpha) ** 2)) / math.sqrt(math.pi)
            g2 = math.exp(-((x + alpha) ** 2)) / math.sqrt(math.pi)
            cross = 2 * (c1 * np.conj(c2)).real * math.sqrt(g1 * g2) * math.exp(-alpha ** 2)
            want = abs(c1) ** 2 * g1 + abs(c2) ** 2 * g2 + cross
            assert x_outcome_density(tm, x) == pytest.approx(want, rel=1e-10)

    def test_density_equals_fock_prenorm(self):
        alpha, n, x = 3.0, 5, 0.4
        cutoff = int(alpha ** 2 + 10 * alpha + 50)
        _, p_fock = oracles.condition_fock(alpha, n, x, cutoff)
        assert x_outcome_density(split(alpha, n), x) == pytest.approx(p_fock, rel=1e-10)

    def test_flagship_center_locally_maximal(self):
        tm = split(20.0, 20)
        p0 = x_outcome_density(tm, 0.0)
        assert p0 > 0
        assert p0 > x_outcome_density(tm, 3.0)  # mid-gap toward the next center
        assert p0 > x_outcome_density(tm, -3.0)

    @pytest.mark.parametrize("alpha,n", [(5.0, 2), (5.0, 20), (20.0, 20), (20.0, 60)])
    def test_total_probability(self, alpha, n):
        tm = split(alpha, n)
        val, _ = quad(lambda x: x_outcome_density(tm, x), -(alpha + 10), alpha + 10,
                      limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_reflection_symmetry_separated_regime(self, n):
        # exact up to cross terms e^{-2 alpha^2 sin^2(pi/n)}, negligible here
        tm = split(20.0, n)
        for x in (0.3, 1.1, 2.4):
            assert abs(x_outcome_density(tm, x) - x_outcome_density(tm, -x)) < 1e-12

    def test_reflection_symmetry_flagship_scale(self):
        # at n = 20 adjacent ring components interfere at the 1e-10 level; the
        # residual asymmetry is physical (matched by the number-basis oracle)
        tm = split(20.0, 20)
        for x in (0.5, 1.5, 2.5):
            assert abs(x_outcome_density(tm, x) - x_outcome_density(tm, -x)) < 5e-10


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


class TestPipelineRoute:
    """The cached pipeline and the public functions share one collapse."""

    # reaches both Gaussian tails; at n = 200 the pair sum keeps an imaginary
    # residue above 1e-12 at several of these points (X = -20, 24, and 24.85
    # with 8.7e-9), where both density routes must raise
    GRID = [float(x) for x in np.linspace(-25.0, 25.0, 51)] + [24.85, 48.0]

    @pytest.mark.parametrize("n", [20, 60, 200])
    def test_matches_public_route(self, n):
        tm = split(20.0, n)
        for x in self.GRID:
            assert _value_or_error(outcome_density, 20.0, n, x) == \
                _value_or_error(x_outcome_density, tm, x), x
            got = _value_or_error(condition_at, 20.0, n, x)
            want = _value_or_error(condition_on_x, tm, x)
            if isinstance(want, type):
                assert got is want, x
            else:
                assert np.array_equal(got.coeffs, want.coeffs), x
                assert np.array_equal(got.amps, want.amps), x
