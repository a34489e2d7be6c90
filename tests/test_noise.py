"""Loss phase-flip mixing and Gaussian phase-fluctuation averaging."""

import math

import numpy as np
import pytest

import oracles
from kerrcat import (
    NoiseParams,
    cat_fidelity,
    coherent_overlap,
    condition_at,
    default_target_beta,
    inner_product,
    kerr_decompose,
    lossy_fidelity,
    lossy_final_state,
    odd_loss_probability,
    phase_noise_avg_fidelity,
    phase_noise_state,
    squared_norm,
)
from kerrcat.noise import _hermite_rule


class TestOddLossProbability:
    def test_zero(self):
        assert odd_loss_probability(0.0) == 0.0

    def test_saturates_at_half(self):
        assert odd_loss_probability(50.0) == pytest.approx(0.5, abs=1e-15)

    def test_half_photon_mean(self):
        want = (1 - math.exp(-1.0)) / 2
        assert odd_loss_probability(0.5) == pytest.approx(want, rel=1e-14)
        assert odd_loss_probability(0.5) == pytest.approx(
            oracles.odd_poisson_partial_sum(0.5, 51), rel=1e-13)

    @pytest.mark.parametrize("mu", [0.01, 0.3, 1.0, 5.0, 20.0])
    def test_matches_truncated_poisson(self, mu):
        assert odd_loss_probability(mu) == pytest.approx(
            oracles.odd_poisson_partial_sum(mu, 201), abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            odd_loss_probability(-0.1)


class TestNoiseParams:
    def test_poisson_reading(self):
        p = NoiseParams(loss_prob=0.1)
        assert p.mean_lost_photons(20.0) == pytest.approx(-math.log(0.9), rel=1e-14)
        # P_f = (1 - (1 - loss)^2) / 2
        assert p.flip_probability(20.0) == pytest.approx(0.095, rel=1e-12)
        assert p.decayed_alpha(20.0) == pytest.approx(
            20.0 * math.sqrt(1 + math.log(0.9) / 400.0), rel=1e-14)

    def test_direct_reading(self):
        p = NoiseParams(loss_prob=0.3, direct_flip=True)
        assert p.flip_probability(20.0) == 0.3

    def test_gamma_tau_reading(self):
        p = NoiseParams(gamma_tau=1e-3)
        mu = 400 * (1 - math.exp(-1e-3))
        assert p.mean_lost_photons(20.0) == pytest.approx(mu, rel=1e-12)
        assert p.flip_probability(20.0) == pytest.approx(odd_loss_probability(mu), rel=1e-12)

    def test_frozen_branch_probe(self):
        # explicit gamma_tau pins the decay while loss_prob drives the flip
        p = NoiseParams(loss_prob=0.4, gamma_tau=0.0)
        assert p.decayed_alpha(20.0) == 20.0
        assert p.flip_probability(20.0) == pytest.approx(
            odd_loss_probability(-math.log(0.6)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(loss_prob=1.0)
        with pytest.raises(ValueError):
            NoiseParams(loss_prob=0.6, direct_flip=True)
        with pytest.raises(ValueError):
            NoiseParams(direct_flip=True)
        with pytest.raises(ValueError):
            NoiseParams(sigma_phase=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(gamma_tau=-1.0)


class TestLossyFidelity:
    def test_zero_loss_matches_noiseless(self):
        noiseless = cat_fidelity(condition_at(20.0, 20, 0.0),
                                 default_target_beta(kerr_decompose(20.0, 20), 0.0))
        lossy = lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=0.0))
        assert lossy == pytest.approx(noiseless.fidelity, abs=1e-12)

    def test_final_state_structure(self):
        final = lossy_final_state(20.0, 20, 0.0, NoiseParams(loss_prob=0.3))
        assert 0.0 <= final.p_flip <= 0.5
        assert final.decayed_alpha < 20.0
        assert squared_norm(final.branch_plus) == pytest.approx(1.0, abs=1e-10)
        assert squared_norm(final.branch_minus) == pytest.approx(1.0, abs=1e-10)
        # the two branches are the same cat with opposite relative phase
        assert abs(inner_product(final.branch_plus, final.branch_minus)) < 1e-6

    def test_affine_in_flip_probability(self):
        # frozen branches (gamma_tau = 0): F must be affine in P_f
        vals = []
        for p in (0.1, 0.25, 0.4):
            pf = odd_loss_probability(-math.log1p(-p))
            vals.append((pf, lossy_fidelity(20.0, 20, 0.0,
                                            NoiseParams(loss_prob=p, gamma_tau=0.0))))
        (p1, f1), (p2, f2), (p3, f3) = vals
        interp = f1 + (f3 - f1) * (p2 - p1) / (p3 - p1)
        assert f2 == pytest.approx(interp, abs=1e-12)

    def test_monotone_in_loss(self):
        fs = [lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=p))
              for p in np.arange(0.0, 0.91, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize("loss,claimed", [(0.10, 0.88), (0.30, 0.71), (0.60, 0.55)])
    def test_reported_degradation(self, loss, claimed):
        got = lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=loss))
        assert got == pytest.approx(claimed, abs=0.04)


class TestPhaseNoiseState:
    def test_zero_rotation_identity(self):
        a = phase_noise_state(20.0, 20, 0.0, 0.0)
        b = condition_at(20.0, 20, 0.0)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.amps, b.amps)

    def test_full_turn_periodicity(self):
        a = phase_noise_state(6.0, 4, 0.3, 0.0)
        b = phase_noise_state(6.0, 4, 0.3, 2 * math.pi)
        assert abs(inner_product(a, b)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        psi = phase_noise_state(20.0, 20, 0.0, 0.05)
        assert squared_norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_small_rotation_overlap_scale(self):
        # state overlap decays on the same scale as the bare branch overlap
        alpha, n = 20.0, 20
        dphi = math.pi / alpha ** 2
        s0 = phase_noise_state(alpha, n, 0.0, 0.0)
        s1 = phase_noise_state(alpha, n, 0.0, dphi)
        got = abs(inner_product(s0, s1)) ** 2
        branch = abs(coherent_overlap(alpha / math.sqrt(2),
                                      alpha * np.exp(1j * dphi) / math.sqrt(2))) ** 2
        assert 0.5 * branch < got < 1.0
        assert math.log(got) == pytest.approx(math.log(branch), abs=abs(math.log(branch)))


class TestPhaseNoiseAverage:
    def test_sigma_zero_exact(self):
        noiseless = cat_fidelity(condition_at(20.0, 20, 0.0),
                                 default_target_beta(kerr_decompose(20.0, 20), 0.0))
        assert phase_noise_avg_fidelity(20.0, 20, 0.0, 0.0) == pytest.approx(
            noiseless.fidelity, abs=1e-9)

    def test_quadrature_converges_smooth_regime(self):
        for sigma in (0.2, 0.4):
            f64 = phase_noise_avg_fidelity(2.0, 4, 0.0, sigma, min_nodes=64, max_nodes=64)
            f128 = phase_noise_avg_fidelity(2.0, 4, 0.0, sigma, min_nodes=128, max_nodes=128)
            assert abs(f64 - f128) < 1e-8

    def test_magnitude_flag_orders(self):
        sq = phase_noise_avg_fidelity(20.0, 20, 0.0, 0.05)
        mag = phase_noise_avg_fidelity(20.0, 20, 0.0, 0.05, magnitude_only=True)
        assert mag >= sq - 1e-12

    def test_large_sigma_plateau(self):
        f_28 = phase_noise_avg_fidelity(20.0, 20, 0.0, 0.28)
        f_30 = phase_noise_avg_fidelity(20.0, 20, 0.0, 0.30)
        assert f_30 < 0.3
        assert abs(f_28 - f_30) < 0.01

    def test_collapse_scale_matches_branch_overlap_average(self):
        # sigma at F = 0.75 within a factor 2 of the sigma where the Gaussian
        # average of |<a/sqrt2|a e^{i u}/sqrt2>|^2 reaches 0.5
        alpha, n = 20.0, 20

        def f_of(s):
            return phase_noise_avg_fidelity(alpha, n, 0.0, s)

        def bare_avg(s):
            t, w = np.polynomial.hermite.hermgauss(128)
            u = math.sqrt(2.0) * s * t
            vals = np.exp(-alpha ** 2 * (1 - np.cos(u)))
            return float(np.sum(w * vals) / math.sqrt(math.pi))

        def bisect(fn, level, lo, hi):
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if fn(mid) > level:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        s_f = bisect(f_of, 0.75, 1e-4, 0.2)
        s_bare = bisect(bare_avg, 0.5, 1e-4, 0.5)
        ratio = s_bare / s_f
        assert 0.5 <= ratio <= 2.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            phase_noise_avg_fidelity(20.0, 20, 0.0, -0.1)

    def test_node_doubling_capped_at_max_nodes(self, monkeypatch):
        # N=20, sigma=0.3 misses the 1e-8 tolerance, so every rule up to the cap runs
        nodes = []
        hermgauss = np.polynomial.hermite.hermgauss

        def recording(deg):
            nodes.append(deg)
            return hermgauss(deg)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", recording)
        _hermite_rule.cache_clear()
        f = phase_noise_avg_fidelity(20.0, 20, 0.0, 0.3, max_nodes=300)
        assert nodes == [64, 128, 256, 300]
        assert math.isfinite(f)

    def test_overflowing_rule_raises(self):
        # numpy's Gauss-Hermite weights are not finite at 512 nodes
        with pytest.raises(ArithmeticError, match="512 nodes"):
            phase_noise_avg_fidelity(20.0, 20, 0.0, 0.3, max_nodes=512)
