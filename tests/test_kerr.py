"""Ring decomposition, number-basis oracle, exactness identity."""

import math

import numpy as np
import pytest

import oracles
from kerrcat import (
    KerrParams,
    TruncationError,
    cat_fidelity,
    fock_expand,
    kerr_coefficients,
    kerr_decompose,
    kerr_fock_evolve,
    medium_length,
    recommended_cutoff,
    verify_phase_identity,
)
from kerrcat import kerr
from kerrcat.kerr import coefficient_rows, ring_amplitudes
from kerrcat.states import _ring_weights


class TestRingCoefficients:
    def test_single_component(self):
        np.testing.assert_allclose(kerr_coefficients(1), [1.0 + 0j], atol=1e-15)

    def test_two_components_hand_value(self):
        # (1/2) [1 - e^{-3 i pi / 2}] and (1/2) [1 - e^{-5 i pi / 2}]
        got = kerr_coefficients(2)
        np.testing.assert_allclose(got, [0.5 - 0.5j, 0.5 + 0.5j], atol=1e-14)

    def test_two_components_match_number_basis(self):
        # the coefficient orientation is pinned by the evolution itself
        alpha = 3.0
        ring = kerr_decompose(alpha, 2)
        vec = sum(c * oracles.coherent_fock(a, 80)
                  for c, a in zip(ring.coeffs, ring.amps))
        want = oracles.kerr_fock(alpha, math.pi / 2, 80)
        assert abs(np.vdot(want, vec)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 7, 20, 64])
    def test_equal_magnitudes(self, n):
        mags = np.abs(kerr_coefficients(n))
        np.testing.assert_allclose(mags, 1.0 / math.sqrt(n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 37, 64, 200])
    def test_matches_gauss_sum_closed_form(self, n):
        np.testing.assert_allclose(kerr_coefficients(n),
                                   oracles.closed_form_ring_coefficients(n),
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [*range(1, 65), 200, 4096])
    def test_one_ring_step_is_a_phase_ramp(self, n):
        # turning the ring by 2 pi / n relabels its components; the phase-noise
        # average scores n turns of one collapsed row on c_{m-1} = c_m (-e^{-i pi (2m+1)/n})
        c = kerr_coefficients(n)
        m = np.arange(n)
        ramp = c * -np.exp(-1j * np.pi * (2 * m + 1) / n)
        assert np.max(np.abs(np.roll(c, 1) - ramp)) <= 1e-14 * np.max(np.abs(c))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            kerr_coefficients(0)
        with pytest.raises(ValueError):
            kerr_coefficients(-3)

    def test_large_ring_sizes(self):
        mags = np.abs(kerr_coefficients(1024))
        np.testing.assert_allclose(mags, 1.0 / 32.0, atol=1e-12)
        np.testing.assert_allclose(kerr_coefficients(1024),
                                   oracles.closed_form_ring_coefficients(1024),
                                   atol=1e-11)
        with pytest.raises(ValueError):
            kerr_coefficients(4097)

    def test_csv_rows(self):
        rows = coefficient_rows(6)
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
        for _, re, im, mag, zeta in rows:
            assert mag == pytest.approx(1 / math.sqrt(6), abs=1e-12)
            assert -math.pi < zeta <= math.pi
            assert complex(re, im) == pytest.approx(mag * np.exp(1j * zeta), abs=1e-12)


class TestDecomposition:
    def test_pi_flip(self):
        ring = kerr_decompose(2.5, 1)
        assert len(ring) == 1
        assert ring.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert ring.amps[0] == pytest.approx(-2.5, abs=1e-12)

    def test_two_component_cat_form(self):
        amps = sorted(kerr_decompose(4.0, 2).amps, key=lambda a: a.real)
        assert amps[0] == pytest.approx(-4.0, abs=1e-12)
        assert amps[1] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 5.0, 10.0, 20.0, 30.0])
    def test_unitarity_across_sizes(self, alpha):
        for n in range(1, 65):
            assert abs(kerr_decompose(alpha, n).squared_norm() - 1.0) < 1e-10

    def test_flagship_norm(self):
        assert kerr_decompose(20.0, 20).squared_norm() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            kerr_decompose(0.0, 4)
        with pytest.raises(ValueError):
            kerr_decompose(-1.0, 4)

    def test_tiny_ring_keeps_every_component(self):
        # spacing 2e-13 sin(pi/8): every amplitude within 1e-13 of the first,
        # still a ring, so its norm is spectral
        ring = kerr_decompose(1e-13, 8)
        assert len(ring) == 8
        np.testing.assert_array_equal(ring.coeffs, kerr_coefficients(8))
        np.testing.assert_array_equal(ring.amps, ring_amplitudes(1e-13, 8))
        assert _ring_weights(ring.amps) is not None
        assert ring.squared_norm() == pytest.approx(1.0, abs=1e-12)


class TestFockEvolve:
    def test_full_period_is_identity(self):
        state = kerr_fock_evolve(KerrParams(2 * math.pi, 1.5), 60)
        np.testing.assert_allclose(state.amplitudes, oracles.coherent_fock(1.5, 60),
                                   atol=1e-12)

    def test_half_period_flips_sign(self):
        state = kerr_fock_evolve(KerrParams(math.pi, 3.0), 120)
        target = oracles.coherent_fock(-3.0, 120)
        assert abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-10

    def test_matches_decomposition(self):
        state = kerr_fock_evolve(KerrParams(math.pi / 20, 6.0), 200)
        dec = fock_expand(kerr_decompose(6.0, 20), 200)
        assert abs(state.overlap(dec)) >= 1 - 1e-8

    def test_periodicity(self):
        a = kerr_fock_evolve(KerrParams(0.37, 2.0), 60).amplitudes
        b = kerr_fock_evolve(KerrParams(0.37 + 2 * math.pi, 2.0), 60).amplitudes
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="cutoff"):
            kerr_fock_evolve(KerrParams(0.1, 2.0), recommended_cutoff(2.0) - 5)

    def test_truncation_error(self):
        with pytest.warns(UserWarning):
            with pytest.raises(TruncationError):
                kerr_fock_evolve(KerrParams(0.1, 3.0), 5)

    def test_deficit_reported(self):
        state = kerr_fock_evolve(KerrParams(1.0, 2.0), 80)
        assert 0 <= state.truncation_deficit < 1e-10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KerrParams(0.0, 1.0)
        for lt in (math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda_tau must be positive and finite"):
                KerrParams(lt, 2.0)
        for alpha in (math.nan, math.inf, complex(1.0, math.nan)):
            with pytest.raises(ValueError, match="alpha must be finite"):
                KerrParams(1.0, alpha)
        with pytest.raises(ValueError):
            kerr_fock_evolve(KerrParams(1.0, 1.0), -2)


class TestPhaseIdentity:
    def test_single_component_exact(self):
        assert verify_phase_identity(1) < 1e-15

    def test_two_components(self):
        assert verify_phase_identity(2) < 1e-14

    @pytest.mark.parametrize("n", [*range(1, 65), 200, 256, 4096])
    def test_working_range(self, n):
        assert verify_phase_identity(n) < 1e-14

    @pytest.mark.parametrize("n,moved", [(1, 0), (20, 7), (4096, 4095)])
    def test_catches_a_wrong_coefficient(self, monkeypatch, n, moved):
        exact = kerr.kerr_coefficients

        def wrong(m):
            c = exact(m).copy()
            c[moved] += 1e-9
            return c

        monkeypatch.setattr(kerr, "kerr_coefficients", wrong)
        assert verify_phase_identity(n) > 1e-12
        assert verify_phase_identity(n) == pytest.approx(1e-9, rel=1e-3)


class TestMediumLength:
    def test_unit_case(self):
        assert medium_length(math.pi / 2, 1, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_proportionality(self):
        assert medium_length(1.0, 8, 3.0) == pytest.approx(medium_length(1.0, 4, 3.0) / 2)

    def test_order_of_magnitude_reduction(self):
        assert medium_length(2.0, 2, 1.0) / medium_length(2.0, 20, 1.0) == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            medium_length(0.0, 2, 1.0)
        with pytest.raises(ValueError):
            medium_length(1.0, 0, 1.0)


class TestFockExpand:
    def test_coherent_expansion(self):
        from kerrcat import coherent_state
        vec = fock_expand(coherent_state(1.0 + 0.5j), 100)
        np.testing.assert_allclose(vec.amplitudes,
                                   oracles.coherent_fock(1.0 + 0.5j, 100), atol=1e-13)

    def test_yurke_stoler_limit(self):
        # pinned by the acceptance gate: relative phase pi/2 against branch +alpha
        report = cat_fidelity(kerr_decompose(2.5, 2), 2.5)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.phi_max == pytest.approx(math.pi / 2, abs=1e-4)
