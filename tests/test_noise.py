"""Loss phase-flip mixing and Gaussian phase-fluctuation averaging."""

import math

import numpy as np
import pytest

import oracles
from kerrcat import (
    NoiseParams,
    cat_fidelity,
    cat_overlap,
    coherent_overlap,
    condition_at,
    default_target_beta,
    inner_product,
    kerr_decompose,
    lossy_fidelity,
    odd_loss_probability,
    phase_noise_avg_fidelity,
    phase_noise_state,
    squared_norm,
    superposition,
)
from kerrcat import metrics, noise
from kerrcat.cli import main
from kerrcat.conditioning import _scaled_rows
from kerrcat.metrics import _branch_terms, _pipeline
from kerrcat.states import _DIGITS_BUDGET, _ring_spectrum, _spectral_norms


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
        assert p.mean_lost_photons() == pytest.approx(-math.log(0.9), rel=1e-14)
        # P_f = (1 - (1 - loss)^2) / 2
        assert p.flip_probability() == pytest.approx(0.095, rel=1e-12)
        assert p.decayed_alpha(20.0) == pytest.approx(
            20.0 * math.sqrt(1 + math.log(0.9) / 400.0), rel=1e-14)

    def test_direct_reading(self):
        p = NoiseParams(loss_prob=0.3, direct_flip=True)
        assert p.flip_probability() == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(loss_prob=1.0)
        with pytest.raises(ValueError):
            NoiseParams(loss_prob=0.6, direct_flip=True)
        with pytest.raises(ValueError, match="below 1/2"):
            NoiseParams(loss_prob=0.5, direct_flip=True)  # log1p(-1) downstream
        with pytest.raises(TypeError):
            NoiseParams(direct_flip=True)  # loss_prob is required
        with pytest.raises(TypeError):
            NoiseParams(loss_prob=0.1, gamma_tau=1e-3)  # no decay-exponent knob


class TestLossyFidelity:
    def test_zero_loss_matches_noiseless(self):
        noiseless = cat_fidelity(condition_at(20.0, 20, 0.0),
                                 default_target_beta(kerr_decompose(20.0, 20), 0.0))
        lossy = lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=0.0))
        assert lossy == pytest.approx(noiseless.fidelity, abs=1e-12)

    # (alpha_i, N, X, noise): table1's loss, a direct flip off X = 0 and a heavy loss
    MIXTURES = [(20.0, 20, 0.0, NoiseParams(loss_prob=0.3)),
                (20.0, 60, 0.5, NoiseParams(loss_prob=0.3, direct_flip=True)),
                (20.0, 40, 0.0, NoiseParams(loss_prob=0.6))]

    @staticmethod
    def branches(alpha, n, X, noise):
        """(plus, minus, bt): the mixture's branches rebuilt from public
        calls at the decayed amplitude, minus with the partner half of the
        ring (Re(conj(bt) b) < 0) negated, and the target branch bt."""
        a_dec = noise.decayed_alpha(alpha)
        plus = condition_at(a_dec, n, X)
        bt = default_target_beta(kerr_decompose(a_dec, n), 0.0)
        sign = np.where((np.conj(bt) * plus.amps).real < 0.0, -1.0, 1.0)
        return plus, superposition(plus.coeffs * sign, plus.amps, normalized=True), bt

    def test_final_state_structure(self):
        for alpha, n, X, noise in self.MIXTURES:
            assert 0.0 <= noise.flip_probability() <= 0.5
            assert noise.decayed_alpha(alpha) < alpha
            plus, minus, _ = self.branches(alpha, n, X, noise)
            assert squared_norm(plus) == pytest.approx(1.0, abs=1e-10)
            assert squared_norm(minus) == pytest.approx(1.0, abs=1e-10)
        # at the flagship the two branches are the same cat with opposite
        # relative phase (off it the conditioned state is no clean cat)
        plus, minus, _ = self.branches(*self.MIXTURES[0])
        assert abs(inner_product(plus, minus)) < 1e-6

    def test_affine_in_flip_probability(self):
        # F = (1 - P_f) F_plus + P_f F_minus, F_minus at the flip-free phi_max
        for alpha, n, X, noise in self.MIXTURES:
            plus, minus, bt = self.branches(alpha, n, X, noise)
            best = cat_fidelity(plus, bt)
            p_flip = noise.flip_probability()
            want = (1.0 - p_flip) * best.fidelity + p_flip * cat_overlap(minus, bt, best.phi_max)
            assert lossy_fidelity(alpha, n, X, noise) == pytest.approx(want, rel=1e-14, abs=0)

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

    @pytest.mark.parametrize("n", [20, 200, 1024])
    @pytest.mark.parametrize("u", [-0.3, 0.1, 2.0])
    def test_turned_ring_keeps_spectrum(self, n, u):
        # phase_noise_state collapses the turned ring on the cached spectrum
        # of the unturned one
        pipe = _pipeline(20.0, n)
        turned = _ring_spectrum(pipe.amps * np.exp(1j * u))
        assert turned is not None
        null = np.isneginf(pipe.spectrum)
        assert np.array_equal(np.isneginf(turned), null)
        assert np.allclose(turned[~null], pipe.spectrum[~null], rtol=1e-13, atol=0)


class TestPhaseNoiseAverage:
    def test_sigma_zero_exact(self):
        noiseless = cat_fidelity(condition_at(20.0, 20, 0.0),
                                 default_target_beta(kerr_decompose(20.0, 20), 0.0))
        assert phase_noise_avg_fidelity(20.0, 20, 0.0, 0.0) == pytest.approx(
            noiseless.fidelity, abs=1e-9)

    def test_quadrature_converges_smooth_regime(self):
        # against adaptive quadrature of h(u) N(u; 0, sigma^2) over the real
        # line, h rebuilt through the public one-state route
        from scipy.integrate import quad

        for alpha, n, sigmas in ((2.0, 4, (0.2, 0.4)), (20.0, 20, (0.22,))):
            beta = default_target_beta(kerr_decompose(alpha, n), 0.0)
            phi = cat_fidelity(condition_at(alpha, n, 0.0), beta).phi_max

            def weighted(u, sigma):
                h = cat_overlap(phase_noise_state(alpha, n, 0.0, u), beta, phi)
                return h * math.exp(-0.5 * (u / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

            got = phase_noise_avg_fidelity(alpha, n, 0.0, np.array(sigmas))
            for sigma, value in zip(sigmas, got):
                want, _ = quad(weighted, -9.0 * sigma, 9.0 * sigma, args=(sigma,),
                               points=[0.0], epsabs=1e-12, epsrel=1e-12, limit=500)
                assert abs(value - want) < 1e-8, (n, sigma)

    def test_sigma_array_matches_scalar_calls(self):
        sigmas = np.array([0.0, 0.05, 0.3])
        got = phase_noise_avg_fidelity(20.0, 20, 0.0, sigmas)
        assert got.shape == sigmas.shape
        for sigma, value in zip(sigmas, got):
            assert phase_noise_avg_fidelity(20.0, 20, 0.0, float(sigma)) == \
                pytest.approx(value, abs=1e-8)

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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, [0.1, math.nan]],
                             ids=["nan", "inf", "array-nan"])
    def test_rejects_nonfinite_sigma(self, sigma):
        # a nan sigma would double the rule up to the node cap
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            phase_noise_avg_fidelity(20.0, 20, 0.0, sigma)

    def test_unconverged_average_raises(self, monkeypatch, capsys):
        # N=20 needs 2,560 rotation nodes to reach 1e-8
        monkeypatch.setattr(noise, "_MAX_NODES", 1024)
        with pytest.raises(ArithmeticError, match="not converged"):
            phase_noise_avg_fidelity(20.0, 20, 0.0, 0.1)
        assert main(["noise-phase", "--n", "20", "--sigma-max", "0.1"]) == 2
        assert "not converged" in capsys.readouterr().err


class TestRingSteps:
    @pytest.mark.parametrize("alpha,n,x", [(20.0, 20, 0.0), (20.0, 60, 0.5), (4.0, 4, 0.3),
                                           (20.0, 7, 0.5), (20.0, 65, 0.0)])
    def test_every_node_matches_its_rotated_state(self, alpha, n, x):
        # the first rule's M = N 2^k >= 64 nodes u_g + 2 pi k / N against the
        # state conditioned on the turned ring; a ring step multiplies the
        # branch amplitudes by a global phase, so |A|, |B| and conj(A) B are compared
        m = n * 2 ** max(0, math.ceil(math.log2(64 / n)))
        base = 2.0 * np.pi * np.arange(m // n) / m
        pipe = _pipeline(alpha, n)
        A, B, degenerate = pipe.ring_step_terms(x, base)
        assert not degenerate.any()
        for g, u in enumerate(base):
            for k in range(n):
                psi = phase_noise_state(alpha, n, x, u + 2.0 * np.pi * k / n)
                a, b = _branch_terms(psi.coeffs, psi.amps, *pipe.target[:2])
                got = (abs(A[g, k]), abs(B[g, k]), np.conj(A[g, k]) * B[g, k])
                assert np.max(np.abs(np.subtract(got, (abs(a), abs(b), np.conj(a) * b)))) \
                    <= 1e-12, (g, k)

    @pytest.mark.parametrize("n,want,tol", [
        (20, (0.9999999999999984, 0.44706305805494273, 0.20306502341948568), 1e-13),
        (65, (0.8689981856114531, 0.3780673036523112, 0.37595595842699525), 1e-10),
        (200, (0.332350087437252, 0.17473018109555435, 0.21419255061809792), 1e-13),
        (512, (0.425746035908502, 0.4162862181810621, 0.35858629945910775), 1e-8),
    ])
    def test_matches_the_rule_on_powers_of_two(self, n, want, tol):
        # want: sigma = 0, 0.1, 0.3 on nodes 64 2^k, the rule before ring steps;
        # N = 65 starts on 65 nodes, an odd count, and N = 512 converges on
        # other nodes than 64 2^k
        got = phase_noise_avg_fidelity(20.0, n, 0.0, np.array([0.0, 0.1, 0.3]))
        assert np.max(np.abs(got - want)) <= tol

    def test_odd_first_count_is_exact(self, monkeypatch):
        # N = 65 starts on 65 nodes; at sigma = 0 the rule returns the
        # interpolant at u = 0, h(0), on any node count, so the first doubling
        # converges only if the odd count keeps every term +m and -m
        monkeypatch.setattr(noise, "_MAX_NODES", 130)
        noiseless = cat_fidelity(condition_at(20.0, 65, 0.0),
                                 default_target_beta(kerr_decompose(20.0, 65), 0.0))
        assert phase_noise_avg_fidelity(20.0, 65, 0.0, 0.0) == pytest.approx(
            noiseless.fidelity, abs=1e-12)

    def test_rows_past_the_budget_raise(self, capsys):
        # N = 1024 ring steps lose more than 8 digits in the spectral sum;
        # N = 512 at most 3.3
        with pytest.raises(ArithmeticError, match="digits to cancellation"):
            phase_noise_avg_fidelity(20.0, 1024, 0.0, 0.1)
        assert main(["noise-phase", "--n", "1024"]) == 2
        assert "digits to cancellation" in capsys.readouterr().err

    def test_refused_row_is_measured_by_the_spectral_sum(self):
        # the first N = 1024 ring step past the spectral budget is refused
        # for the 8.02 digits it loses there (its lag sum loses 14.2)
        with pytest.raises(ArithmeticError, match=r"rotation 2\.20893 loses 8\.02 digits"):
            _pipeline(20.0, 1024).ring_step_terms(0.0, 0.0)

    @pytest.mark.parametrize("alpha,n,x", [(20.0, 20, 0.5), (4.0, 4, 0.3), (20.0, 7, 0.0)])
    def test_lag_sums_score_every_shift(self, monkeypatch, alpha, n, x):
        # with every spectral sum reported past the budget, the first ring
        # step of the first row is refused: no shift is summed again over lags
        base = 2.0 * np.pi * np.arange(3) / (3 * n)
        pipe = _pipeline(alpha, n)
        pipe.ring_step_terms(x, base)
        spectral = metrics._spectral_norms
        monkeypatch.setattr(metrics, "_spectral_norms",
                            lambda q, log_lam: (spectral(q, log_lam)[0], np.full(
                                (len(q), len(log_lam)), np.inf)))
        with pytest.raises(ArithmeticError,
                           match=rf"X = {x:g}, rotation {base[0]:g} loses inf digits"):
            pipe.ring_step_terms(x, base)

    @pytest.mark.parametrize("alpha,n,x", [(4.0, 512, 2.0), (10.0, 512, 0.0), (20.0, 1024, 0.0)])
    def test_ring_steps_past_budget_lose_it_in_the_lag_sum(self, alpha, n, x):
        # ramped rows w^{-nk} q_gn past the spectral budget (the first 40)
        # lose more than the budget in the direct sum over lags too
        base = 2.0 * np.pi * np.arange(2) / (2 * n)
        pipe = _pipeline(alpha, n)
        amps = pipe.amps
        _, _, q = _scaled_rows(pipe.log_c, pipe.arg_c, amps * np.exp(1j * base)[:, None], x)
        _, lost = _spectral_norms(q, pipe._circulant_spectrum)
        past = np.argwhere(lost > _DIGITS_BUDGET)
        assert len(past) >= 20
        for g, k in past[:40]:
            ramp = np.exp(-2j * np.pi * (np.arange(n) * k % n) / n)  # w^{-nk}
            assert oracles.correlated_lag_norm(q[g] * ramp, amps)[1] > _DIGITS_BUDGET, (g, k)
