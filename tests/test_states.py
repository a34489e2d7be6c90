"""Coherent-state algebra: overlaps, wavefunctions, norms, marginals, JSON."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from kerrcat import (
    DegenerateStateError,
    cat_fidelity,
    cat_overlap,
    coherent_overlap,
    coherent_state,
    inner_product,
    kerr_decompose,
    p_amplitude,
    p_marginal_density,
    squared_norm,
    state_from_json_dict,
    state_to_json_dict,
    superposition,
    vacuum_state,
    x_amplitude,
    x_marginal_density,
    x_outcome_density,
)
from kerrcat.cli import _grid
from kerrcat.metrics import condition_at
from kerrcat.states import (
    LOG_PI_QUARTER,
    _FOCK_TAIL,
    _LOG_ROUNDS_TO_ZERO,
    _RESCALE_STEPS,
    _direct_densities,
    _fock_amplitudes,
    _fock_densities,
    _log_polar,
    _log_squared_norm,
    _marginal_densities,
    _norms,
    _overlap_exponent,
    _ring_spectrum,
    _ring_weights,
    _scale,
    _wrap_phase,
    _x_amplitude_log_arrays,
    dump_state,
    load_state,
    normalization_mismatch,
)

PI_QUARTER = math.pi ** -0.25
SQRT2 = math.sqrt(2.0)

# frozen oracle values (number-basis sums, recomputed in the tests below)
OVERLAP_2_M2 = 3.3546262790251185e-04          # e^-8
XAMP_0_1_MAG = 0.27632364554735833             # pi^(-1/4) / e
NORM_CAT_2 = 2.000670925255805                 # 2 + 2 e^-8
EVEN_CAT_X0 = 0.00037840210090113544
YS_CAT_P0 = 0.5641895835477563                 # pi^(-1/2)


def random_complex(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class TestCoherentOverlap:
    def test_vacuum_self_overlap(self):
        assert coherent_overlap(0.0, 0.0) == pytest.approx(1.0, abs=0)

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = random_complex(rng, 10.0)
            assert coherent_overlap(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_amplitudes_fock_sum(self):
        val = coherent_overlap(2.0, -2.0)
        assert val == pytest.approx(OVERLAP_2_M2, rel=1e-12)
        assert val == pytest.approx(math.exp(-8.0), rel=1e-12)
        # independent partial-sum oracle: sum_n e^-4 2^n (-2)^n / n! = e^-4 sum (-4)^n / n!
        acc = math.exp(-4.0) * sum((-4.0) ** n / math.factorial(n) for n in range(60))
        assert val == pytest.approx(acc, rel=1e-10)

    def test_hermiticity_log_domain(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            b1 = random_complex(rng, 30.0)
            b2 = random_complex(rng, 30.0)
            f = _overlap_exponent(b1, b2)
            g = _overlap_exponent(b2, b1)
            assert f.real == pytest.approx(g.real, abs=1e-9)
            # phases are exact negatives up to the (-pi, pi] wrap
            s = (_wrap_phase(f.imag) + _wrap_phase(g.imag)) % (2 * math.pi)
            assert min(s, 2 * math.pi - s) < 1e-9

    def test_log_plain_consistency(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            b1 = random_complex(rng, 12.0)
            b2 = random_complex(rng, 12.0)
            plain = coherent_overlap(b1, b2)
            if abs(plain) < 1e-280:
                continue
            checked += 1
            assert np.exp(_overlap_exponent(b1, b2)) == pytest.approx(plain, rel=1e-12, abs=0)

    def test_deep_underflow_regime(self):
        lg = _overlap_exponent(30.0, -30.0)
        assert lg.real == pytest.approx(-1800.0, rel=1e-12)
        assert coherent_overlap(30.0, -30.0) == 0.0  # plain value underflows to zero


class TestQuadratureAmplitudes:
    def test_vacuum_at_origin(self):
        assert x_amplitude(0.0, 0.0) == pytest.approx(PI_QUARTER, rel=1e-14)
        assert abs(p_amplitude(0.0, 0.0)) == pytest.approx(PI_QUARTER, rel=1e-14)

    def test_gaussian_peak_magnitude(self):
        for a in (0.3, 1.7, -4.0):
            assert abs(x_amplitude(SQRT2 * a, a)) == pytest.approx(PI_QUARTER, rel=1e-13)

    def test_against_hermite_oracle(self):
        assert abs(x_amplitude(0.0, 1.0)) == pytest.approx(XAMP_0_1_MAG, rel=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-4, 4)
            b = random_complex(rng, 3.5)
            assert x_amplitude(x, b) == pytest.approx(oracles.x_amp_fock(x, b), abs=1e-10)
            assert p_amplitude(x, b) == pytest.approx(oracles.p_amp_fock(x, b), abs=1e-10)

    def test_p_amplitude_magnitude_and_peak(self):
        assert abs(p_amplitude(0.0, 1j)) == pytest.approx(PI_QUARTER / math.e, rel=1e-12)
        # |<P|beta>|^2 peaks at P = sqrt2 Im(beta)
        b = 1.2 + 0.9j
        grid = np.linspace(-4, 4, 1601)
        dens = np.array([abs(p_amplitude(p, b)) ** 2 for p in grid])
        assert grid[np.argmax(dens)] == pytest.approx(SQRT2 * b.imag, abs=0.01)

    def test_x_amplitude_normalized(self):
        b = 0.8 - 1.1j
        val, _ = quad(lambda x: abs(x_amplitude(x, b)) ** 2, -12, 12)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestNormsAndInnerProducts:
    def test_single_component(self):
        assert squared_norm(coherent_state(5.0)) == pytest.approx(1.0, abs=1e-14)

    def test_widely_separated_branches(self):
        psi = superposition([1, 1], [12.0, -12.0])
        assert squared_norm(psi) == pytest.approx(2.0, rel=1e-12)

    def test_small_cat_norm_frozen(self):
        psi = superposition([1, 1], [2.0, -2.0])
        assert squared_norm(psi) == pytest.approx(NORM_CAT_2, rel=1e-12)
        # number-basis cross-check
        vec = oracles.coherent_fock(2.0, 80) + oracles.coherent_fock(-2.0, 80)
        assert squared_norm(psi) == pytest.approx(float(np.vdot(vec, vec).real), rel=1e-10)

    def test_degenerate_norm_raises(self):
        psi = superposition([1e-200], [0.0])
        with pytest.raises(DegenerateStateError):
            squared_norm(psi)
        with pytest.raises(DegenerateStateError):
            psi.normalized()

    def test_normalized_deep_scaling(self):
        # log-domain normalization: |c|^2 ~ 1e-280 is two orders above the
        # degenerate threshold but far below what naive squaring tolerates
        psi = superposition([1e-140, 2e-140], [1.0, -1.0]).normalized()
        assert squared_norm(psi) == pytest.approx(1.0, rel=1e-12)

    def test_inner_product_self_is_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = superposition([random_complex(rng, 1) for _ in range(3)],
                                [random_complex(rng, 4) for _ in range(3)])
            assert inner_product(psi, psi) == pytest.approx(squared_norm(psi), rel=1e-12)

    def test_even_odd_cat_orthogonality(self):
        even = superposition([1, 1], [3.0, -3.0])
        odd = superposition([1, -1], [3.0, -3.0])
        assert abs(inner_product(even, odd)) < 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(17)
        psi = superposition([random_complex(rng, 1) for _ in range(3)],
                            [random_complex(rng, 5) for _ in range(3)])
        chi = superposition([random_complex(rng, 1) for _ in range(2)],
                            [random_complex(rng, 5) for _ in range(2)])
        assert inner_product(psi, chi) == pytest.approx(np.conj(inner_product(chi, psi)), rel=1e-12)

    def test_against_fock_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c1 = [random_complex(rng, 1) for _ in range(3)]
            a1 = [random_complex(rng, 4) for _ in range(3)]
            c2 = [random_complex(rng, 1) for _ in range(3)]
            a2 = [random_complex(rng, 4) for _ in range(3)]
            psi, chi = superposition(c1, a1), superposition(c2, a2)
            v1 = sum(c * oracles.coherent_fock(a, 200) for c, a in zip(c1, a1))
            v2 = sum(c * oracles.coherent_fock(a, 200) for c, a in zip(c2, a2))
            assert inner_product(psi, chi) == pytest.approx(complex(np.vdot(v1, v2)), abs=1e-10)

    def test_norm_of_ring_past_one_chunk(self):
        # 1024 components: the pair sum runs over two _CHUNK blocks of rows
        psi = kerr_decompose(20.0, 1024)
        assert squared_norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_inner_product_near_underflow(self):
        # <18|-18> = e^{-2 * 18^2} = e^{-648}, about 3.8e-282
        got = inner_product(coherent_state(18.0), coherent_state(-18.0))
        assert got == pytest.approx(math.exp(-648.0), rel=1e-12, abs=0.0)

    def test_inner_product_keeps_small_coefficients(self):
        # the 1e-20 component is below eps/2 of its state's largest, yet it
        # gives the largest term: <psi|chi> = e^-50 + 1e-20
        psi = superposition([1.0, 1e-20], [0.0, 10.0])
        chi = coherent_state(10.0)
        want = math.exp(-50.0) + 1e-20
        for got in (inner_product(psi, chi), inner_product(chi, psi)):
            assert abs(got - want) <= 1e-14 * want

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            psi = superposition([random_complex(rng, 1) for _ in range(3)],
                                [random_complex(rng, 8) for _ in range(3)])
            chi = superposition([random_complex(rng, 1) for _ in range(3)],
                                [random_complex(rng, 8) for _ in range(3)])
            lhs = abs(inner_product(psi, chi)) ** 2
            assert lhs <= squared_norm(psi) * squared_norm(chi) * (1 + 1e-12)


class TestNormalizationMismatch:
    def test_off_norm_measured(self):
        psi = superposition([2.0, 2.0], [14.14j, -14.14j], normalized=True)
        assert normalization_mismatch(psi) == pytest.approx(8.0)
        assert normalization_mismatch(psi.normalized()) is None

    def test_cancelling_norm_within_its_error(self):
        # c (|b> - |b + d>) with 2 c^2 (1 - e^{-d^2/2}) = 1 loses 7.7 digits;
        # its pair sum reads 1 - 5.8e-9 at b = 1.75, beyond 1e-9
        d = 3e-4
        c = 1.0 / math.sqrt(-2.0 * math.expm1(-d * d / 2))
        for b in np.linspace(0.5, 3.0, 11):
            psi = superposition([c, -c], [b, b + d], normalized=True)
            assert normalization_mismatch(psi) is None, b
        assert normalization_mismatch(superposition([c, -c], [3.0, 3.0 + d])) is None
        assert normalization_mismatch(superposition([1.001 * c, -c], [3.0, 3.0 + d])) > 1.0

    def test_null_state_raises(self):
        with pytest.raises(DegenerateStateError):
            normalization_mismatch(superposition([0.0], [1.0], normalized=True))

    def test_norm_past_the_budget_refused(self):
        # N = 4096, X = 1: the spectral sum loses 15.25 digits, so neither
        # the state nor its doubled copy is said to match
        psi = condition_at(20.0, 4096, 1.0)
        doubled = superposition(2.0 * psi.coeffs, psi.amps, normalized=True)
        for state in (psi, doubled):
            for measure in (normalization_mismatch,
                            lambda s: _log_squared_norm(s.coeffs, s.amps)):
                with pytest.raises(ArithmeticError, match=r"squared norm loses 15\.25 digits"):
                    measure(state)

    def test_ring_norm_measured_spectrally(self):
        # N = 1024, X = 1: the pair sum loses 13 digits, the spectral sum 4.97
        psi = condition_at(20.0, 1024, 1.0)
        assert normalization_mismatch(psi) is None
        doubled = superposition(2.0 * psi.coeffs, psi.amps, normalized=True)
        assert normalization_mismatch(doubled) == pytest.approx(4.0, rel=1e-10, abs=0)


class TestNormRoutes:
    """A ring's squared norm is spectral, any other state's a pair sum."""

    @pytest.mark.parametrize("alpha", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_spectral_matches_pair_sum(self, alpha, n):
        # kerrcat verify's rings, unsplit, the split arm b_n and the arm
        # scaled back (sqrt2 b_n); worst 1.2e-14 times 10^lost
        psi = kerr_decompose(alpha, n)
        arm = psi.amps / SQRT2
        _, c = _scale(*_log_polar(psi.coeffs))
        for amps in (psi.amps, SQRT2 * arm, arm):
            spectrum = _ring_spectrum(amps)
            assert spectrum is not None
            (spectral,), _ = _norms(c[None], amps, spectrum)
            (pair,), (lost,) = _norms(c[None], amps, None)
            assert abs(spectral - pair) <= 1e-12 * 10.0 ** lost


class TestMarginals:
    def test_vacuum_marginals(self):
        for x in (0.0, 0.7, -2.1):
            want = math.exp(-x * x) / math.sqrt(math.pi)
            assert x_marginal_density(vacuum_state(), x) == pytest.approx(want, rel=1e-12)
            assert p_marginal_density(vacuum_state(), x) == pytest.approx(want, rel=1e-12)

    def test_coherent_gaussians(self):
        b = 1.9
        psi = coherent_state(b)
        for x in (0.0, 1.0, 3.5):
            want = math.exp(-(x - SQRT2 * b) ** 2) / math.sqrt(math.pi)
            assert x_marginal_density(psi, x) == pytest.approx(want, rel=1e-12)
        psi_i = coherent_state(1j * b)
        for p in (0.0, 2.6):
            want = math.exp(-(p - SQRT2 * b) ** 2) / math.sqrt(math.pi)
            assert p_marginal_density(psi_i, p) == pytest.approx(want, rel=1e-12)

    def test_even_cat_interference_value(self):
        psi = superposition([1, 1], [2.0, -2.0]).normalized()
        got = x_marginal_density(psi, 0.0)
        assert got == pytest.approx(EVEN_CAT_X0, rel=1e-10)
        vec = oracles.coherent_fock(2.0, 64) + oracles.coherent_fock(-2.0, 64)
        vec = vec / np.linalg.norm(vec)
        assert got == pytest.approx(oracles.x_density_fock(vec, 0.0), rel=1e-8)

    def test_yurke_stoler_p_density(self):
        psi = superposition([1, 1j], [2.0, -2.0]).normalized()
        got = p_marginal_density(psi, 0.0)
        assert got == pytest.approx(YS_CAT_P0, rel=1e-12)
        vec = oracles.coherent_fock(2.0, 64) + 1j * oracles.coherent_fock(-2.0, 64)
        vec = vec / np.linalg.norm(vec)
        assert got == pytest.approx(oracles.p_density_fock(vec, 0.0), abs=1e-10)

    def test_marginal_normalization_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            coeffs = [random_complex(rng, 1) for _ in range(5)]
            amps = [random_complex(rng, 20.0) for _ in range(5)]
            psi = superposition(coeffs, amps).normalized()
            span = SQRT2 * 20 + 10
            val, _ = quad(lambda x: x_marginal_density(psi, x), -span, span, limit=400)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_scorers_normalize_unflagged_state(self):
        # an unflagged state scores as its normalized twin: here its squared
        # norm is 4, which an unnormalized sum would carry into every score
        psi = superposition([2], [3])
        unit = psi.normalized()
        for score in (lambda s: cat_fidelity(s, 3).fidelity,
                      lambda s: cat_overlap(s, 3, 0.4),
                      lambda s: x_marginal_density(s, 4.0),
                      lambda s: p_marginal_density(s, 0.5),
                      lambda s: x_outcome_density(s, 2.0)):
            assert score(psi) == pytest.approx(score(unit), rel=1e-15, abs=0)


class TestScaleCut:
    """No sum cuts a term: the retired eps/n cut would drop most of a large
    ring's P-cell terms, and every one of them is kept."""

    EPS = np.finfo(float).eps

    def test_p_cells_within_rounding_of_dense_sum(self):
        # N = 1024, X = 1.  The collapse is rebuilt here without the library:
        # every conditioned coefficient must be kept (a P cell may weight one
        # far below eps/n of the largest by e^200 more than the largest), and
        # every P cell of the direct kernel must stay within the rounding bound
        # (n + 1) eps sum|terms| of the dense sum over those coefficients
        ring = kerr_decompose(20.0, 1024)
        lc, ac = _log_polar(ring.coeffs)
        wl, wp = _x_amplitude_log_arrays(1.0, ring.amps / SQRT2)
        lq, aq = lc + wl, ac + wp
        q = np.exp(lq - lq.max()) * np.exp(1j * aq)
        assert np.all(q != 0)
        psi = condition_at(20.0, 1024, 1.0)
        n = len(psi)
        big = np.argmax(np.abs(q))
        assert np.allclose(psi.coeffs, q * (psi.coeffs[big] / q[big]), rtol=4 * self.EPS, atol=0)
        lc, ac = _log_polar(psi.coeffs)
        p = np.arange(-600, 601) * 0.05
        wl, wp = _x_amplitude_log_arrays(p[:, None], -1j * psi.amps)
        log_c, arg_c = lc + wl, ac + wp
        top = log_c.max(axis=1, keepdims=True)
        with np.errstate(under="ignore"):
            dense = np.exp(log_c - top) * np.exp(1j * arg_c)
        # most terms lie below eps/n of their cell's largest, where the
        # retired cut dropped them; here every one is summed
        assert np.count_nonzero(log_c - top >= math.log(self.EPS / n)) < 0.5 * log_c.size
        got = np.sqrt(_direct_densities(lc, ac, -1j * psi.amps, p)) * np.exp(-top[:, 0])
        want = np.abs(np.sum(dense, axis=1))
        err = np.abs(got - want)
        assert np.all(err <= (n + 1) * self.EPS * np.sum(np.abs(dense), axis=1) + 4 * self.EPS * want)


def _fock_terms(amps):
    """Photon numbers the Fock route sums over for a ring of amplitudes ``amps``."""
    return _ring_weights(amps)[0][-1] + 1


class TestFockRoute:
    """Rings whose N component terms cost more than the recurrence over the
    photon numbers in reach take _fock_densities; every other state takes
    _direct_densities."""

    @pytest.mark.parametrize("x", [0.3, 2.0])
    def test_matches_number_basis_oracle(self, x):
        # alpha = 5, N = 512: the split ring reaches 355 photon numbers.  Both
        # routes are within 5e-11 of the peak here; one tolerance for both
        psi = condition_at(5.0, 512, x)
        assert len(psi) > _fock_terms(psi.amps)
        vec, _ = oracles.condition_fock(5.0, 512, x, 150)
        grid = np.arange(-150, 151) * 0.1
        lc, ac = _log_polar(psi.coeffs)
        for amps, oracle in ((psi.amps, oracles.x_density_fock),
                             (-1j * psi.amps, oracles.p_density_fock)):
            fock = _fock_densities(*_fock_amplitudes(lc, ac, amps, *_ring_weights(amps)), grid)
            assert np.array_equal(_marginal_densities(psi, grid, amps), fock)
            if oracle is oracles.x_density_fock:
                assert x_marginal_density(psi, grid).tolist() == fock.tolist()
                assert [x_marginal_density(psi, v) for v in grid] == fock.tolist()
            want = np.array([oracle(vec, v) for v in grid])
            tol = 1e-10 * want.max()
            assert np.max(np.abs(fock - want)) <= tol
            assert np.max(np.abs(_direct_densities(lc, ac, amps, grid) - want)) <= tol

    def test_cells_past_underflow_keep_their_values(self):
        # alpha = 30, N = 4096 before the split: 2301 photon numbers, and P
        # out to 50.4, where pi^(-1/4) e^{-P^2/2} underflows past |P| ~ 37.6;
        # an unscaled recurrence prints 0 there (3.3e-28 at P = 40).  A
        # one-point call, which rescales Python floats, equals its grid cell
        psi = kerr_decompose(30.0, 4096)
        assert len(psi) > _fock_terms(-1j * psi.amps)
        span = SQRT2 * 30.0 + 8.0
        grid = _grid(-span, span, 0.05)
        got = p_marginal_density(psi, grid)
        want = _direct_densities(*_log_polar(psi.coeffs), -1j * psi.amps, grid)
        assert np.all(np.abs(got - want) <= 1e-8 * want + 1e-11 * want.max())
        far = np.flatnonzero(np.abs(grid) > 37.6)[::8]
        assert len(far) > 50
        assert [p_marginal_density(psi, p) for p in grid[far]] == got[far].tolist()

    def test_cells_beyond_every_term_are_zero(self):
        # the bound (sqrt2 |P| + 1)^m on psi_m / psi_0 puts these below the
        # smallest double; they are 0, with no overflow on the way
        psi = kerr_decompose(30.0, 4096)
        with np.errstate(over="raise", invalid="raise"):
            assert [p_marginal_density(psi, p) for p in (1e6, -1e30)] == [0.0, 0.0]

    @pytest.mark.parametrize("n,fock_route", [(200, True), (69, False)])
    def test_both_kernels_on_a_ring_within_reach(self, n, fock_route):
        # X = 0: 966 photon numbers, so several share a residue class mod N.
        # fig4's N = 200 (14 N > 966) takes the Fock route, and N = 69, the
        # largest with 14 N <= 966, the direct one
        psi = condition_at(20.0, n, 0.0)
        amps = -1j * psi.amps
        assert len(psi) <= _fock_terms(amps)
        lc, ac = _log_polar(psi.coeffs)
        grid = np.arange(-300, 301) * 0.1
        direct = _direct_densities(lc, ac, amps, grid)
        fock = _fock_densities(*_fock_amplitudes(lc, ac, amps, *_ring_weights(amps)), grid)
        assert np.array_equal(_marginal_densities(psi, grid, amps), fock if fock_route else direct)
        assert np.all(np.abs(fock - direct) <= 1e-8 * direct + 1e-11 * direct.max())


def _interleaved_fock_densities(top, a, values):
    """Reference for _fock_densities on a grid: every cell runs the recurrence
    on its own v, and one partial sum takes the m in order, rescaled with the
    same powers of two."""
    m_max = len(a) - 1
    log_psi0 = top + LOG_PI_QUARTER - 0.5 * values * values
    with np.errstate(divide="ignore"):
        bound = log_psi0 + m_max * np.log1p(SQRT2 * np.abs(values)) + np.log(np.sum(np.abs(a)))
    live = 2.0 * bound >= _LOG_ROUNDS_TO_ZERO
    v = np.where(live, values, 0.0)
    steps = np.arange(1.0, m_max + 1.0)
    up, back = np.sqrt(2.0 / steps).tolist(), np.sqrt((steps - 1.0) / steps).tolist()
    a = a.tolist()
    prev, cur, total, exponent = 0.0, 1.0, a[0], 0
    for m, (up_m, back_m, a_m) in enumerate(zip(up, back, a[1:]), 1):
        step = cur * v
        step *= up_m
        prev *= back_m
        step -= prev
        prev, cur = cur, step
        total += a_m * cur
        if m % _RESCALE_STEPS == 0:
            e = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            scale = np.ldexp(1.0, -e)
            prev *= scale
            cur *= scale
            total *= scale
            exponent += e
    with np.errstate(divide="ignore"):
        log_amp = log_psi0 + exponent * math.log(2.0) + np.log(np.hypot(total.real, total.imag))
    return np.where(live, np.exp(np.minimum(2.0 * log_amp, 700.0)), 0.0)


class TestFockParity:
    """_fock_densities runs the recurrence once per |v| (psi_m(-v) =
    (-1)^m psi_m(v)) and sums even and odd m apart: within rounding of the
    interleaved sum, and still one cell at a time, bit for bit."""

    @staticmethod
    def _fock_args(alpha, n, x):
        psi = condition_at(alpha, n, x)
        amps = -1j * psi.amps
        return _fock_amplitudes(*_log_polar(psi.coeffs), amps, *_ring_weights(amps))

    # fig4's grid, and the grids of pdist-post --n 1024 --x 1 and --n 4096 --x 0
    @pytest.mark.parametrize("n,x,grid", [
        (200, 0.0, _grid(-30.0, 30.0, 0.02)),
        (1024, 1.0, _grid(-SQRT2 * 20 - 8, SQRT2 * 20 + 8, 0.05)),
        (4096, 0.0, _grid(-SQRT2 * 20 - 8, SQRT2 * 20 + 8, 0.05)),
    ], ids=["fig4", "n1024-x1", "n4096-x0"])
    def test_within_rounding_of_interleaved_sum(self, n, x, grid):
        top, a = self._fock_args(20.0, n, x)
        want = _interleaved_fock_densities(top, a, grid)
        assert np.max(np.abs(_fock_densities(top, a, grid) - want)) <= 1e-14 * want.max()

    @pytest.mark.parametrize("grid", [
        np.append(np.arange(-60, 61) * 0.1, -0.0), _grid(-5.0, 7.5, 0.05)],
        ids=["symmetric", "asymmetric"])
    def test_grid_cells_equal_one_point_calls(self, grid):
        # alpha = 5, N = 512, X = 0.3: 355 photon numbers, on the Fock route
        psi = condition_at(5.0, 512, 0.3)
        got = _marginal_densities(psi, grid, -1j * psi.amps)
        assert got.tolist() == [p_marginal_density(psi, p) for p in grid]
        assert np.array_equal(_fock_densities(*self._fock_args(5.0, 512, 0.3), grid), got)

    def test_shuffled_grid_is_permuted(self):
        top, a = self._fock_args(20.0, 200, 0.0)
        grid = _grid(-30.0, 30.0, 0.02)
        order = np.random.default_rng(7).permutation(len(grid))
        assert np.array_equal(_fock_densities(top, a, grid[order]),
                              _fock_densities(top, a, grid)[order])


def _untrimmed_fock_amplitudes(log_c, arg_c, amps, k, weights):
    """Reference for _fock_amplitudes: every photon number up to max k."""
    top, c = _scale(log_c, arg_c)
    spec = len(c) * np.fft.ifft(c)
    a = np.zeros(k[-1] + 1, dtype=complex)
    a[k] = np.sqrt(weights / np.sum(weights)) * np.exp(1j * np.angle(amps[0]) * k) \
        * spec[k % len(c)]
    return float(top), a


def _p_fock_args(psi):
    """(log_c, arg_c, amps, k, weights) of psi's P marginal on the Fock route."""
    amps = -1j * psi.amps
    return (*_log_polar(psi.coeffs), amps, *_ring_weights(amps))


class TestFockTail:
    """_fock_amplitudes drops the photon numbers whose amplitudes' tail holds
    at most _FOCK_TAIL of sum |a_m|, and no more; by Cramer's inequality the
    cells move by rounding only."""

    STATES = {
        "fig4": lambda: condition_at(20.0, 200, 0.0),
        "n1024-x1": lambda: condition_at(20.0, 1024, 1.0),
        "n4096-x0": lambda: condition_at(20.0, 4096, 0.0),
        "n1024-pre": lambda: kerr_decompose(20.0, 1024),
        "a30-n4096-pre": lambda: kerr_decompose(30.0, 4096),
        "a30-n4096-x2": lambda: condition_at(30.0, 4096, 2.0),
        "a5-n512-x0.3": lambda: condition_at(5.0, 512, 0.3),
    }

    @pytest.mark.parametrize("name", list(STATES))
    def test_tail_is_bounded_and_trim_maximal(self, name):
        args = _p_fock_args(self.STATES[name]())
        top, a = _fock_amplitudes(*args)
        top_full, full = _untrimmed_fock_amplitudes(*args)
        m = len(a)
        assert top == top_full and np.array_equal(a, full[:m])
        mag = np.abs(full).tolist()
        bound = _FOCK_TAIL * math.fsum(mag)
        assert math.fsum(mag[m:]) <= bound < math.fsum(mag[m - 1:])
        assert m < len(full)

    @pytest.mark.parametrize("name", ["fig4", "n1024-x1", "n4096-x0"])
    def test_bench_states_keep_at_most_420_terms(self, name):
        # 966-967 photon numbers in reach, all on the Fock route
        args = _p_fock_args(self.STATES[name]())
        assert len(_fock_amplitudes(*args)[1]) <= 420

    # fig4's grid, the grids of pdist-post --n 1024 --x 1 and --n 4096 --x 0,
    # and pdist-pre --alpha 30 --n 4096's
    @pytest.mark.parametrize("name,grid,tol", [
        ("fig4", _grid(-30.0, 30.0, 0.02), 1e-13),
        ("n1024-x1", _grid(-SQRT2 * 20 - 8, SQRT2 * 20 + 8, 0.05), 1e-13),
        ("n4096-x0", _grid(-SQRT2 * 20 - 8, SQRT2 * 20 + 8, 0.05), 1e-13),
        ("a30-n4096-pre", _grid(-SQRT2 * 30 - 8, SQRT2 * 30 + 8, 0.05), 2e-13),
    ])
    def test_densities_match_untrimmed_sum(self, name, grid, tol):
        args = _p_fock_args(self.STATES[name]())
        want = _fock_densities(*_untrimmed_fock_amplitudes(*args), grid)
        got = _fock_densities(*_fock_amplitudes(*args), grid)
        assert np.max(np.abs(got - want)) <= tol * want.max()

    def test_nan_sum_keeps_every_term(self):
        log_c, arg_c, amps, k, weights = _p_fock_args(self.STATES["a5-n512-x0.3"]())
        arg_c = arg_c.copy()
        arg_c[3] = np.nan
        assert len(_fock_amplitudes(log_c, arg_c, amps, k, weights)[1]) == k[-1] + 1

    @pytest.mark.parametrize("m", [0, 1, 17, 200, 407, 966])
    def test_cramer_bound(self, m):
        # |psi_m(v)| <= 1.0865 pi^{-1/4} for every m and real v
        # (Abramowitz & Stegun 22.14.17): the bound the trim rests on
        a = np.zeros(m + 1, dtype=complex)
        a[m] = 1.0
        dens = _fock_densities(0.0, a, np.linspace(-45.0, 45.0, 9001))
        assert dens.max() <= (1.0865 * PI_QUARTER) ** 2


class TestRepeatedAmplitudes:
    """A state keeps every component it is given; components that share an
    amplitude score as one with their summed coefficient."""

    REPEATED = ([1.0, 2.0, 0.5], [1.5, 1.5, -3.0])
    MERGED = ([3.0, 0.5], [1.5, -3.0])

    def test_components_kept_in_order(self):
        psi = superposition(*self.REPEATED)
        assert len(psi) == 3
        np.testing.assert_array_equal(psi.coeffs, self.REPEATED[0])
        np.testing.assert_array_equal(psi.amps, self.REPEATED[1])

    def test_matches_merged_twin(self):
        rep, mer = superposition(*self.REPEATED), superposition(*self.MERGED)
        probe = superposition([1.0, 0.5j], [1.0 + 0.5j, -2.5])
        close = lambda got, want: got == pytest.approx(want, rel=1e-14, abs=0)
        assert close(squared_norm(rep), squared_norm(mer))
        assert close(inner_product(probe, rep), inner_product(probe, mer))
        rep, mer = rep.normalized(), mer.normalized()
        grid = np.linspace(-6.0, 6.0, 121)
        for amps in (lambda s: s.amps, lambda s: -1j * s.amps):
            np.testing.assert_allclose(_marginal_densities(rep, grid, amps(rep)),
                                       _marginal_densities(mer, grid, amps(mer)),
                                       rtol=1e-14, atol=0)
        for v in (-4.2, 0.0, 2.1):
            assert close(x_marginal_density(rep, v), x_marginal_density(mer, v))
            assert close(p_marginal_density(rep, v), p_marginal_density(mer, v))
        got, want = cat_fidelity(rep, 1.5), cat_fidelity(mer, 1.5)
        assert close(got.fidelity, want.fidelity)
        assert close(got.phi_max, want.phi_max)

    def test_json_round_trip_keeps_every_component(self):
        psi = superposition(*self.REPEATED)
        back, _ = state_from_json_dict(state_to_json_dict(psi))
        np.testing.assert_array_equal(back.coeffs, self.REPEATED[0])
        np.testing.assert_array_equal(back.amps, self.REPEATED[1])

    def test_cancelling_near_duplicates_refused(self):
        psi = superposition([1.0, -1.0], [1.5, 1.5 + 1e-13])
        assert len(psi) == 2
        with pytest.raises(DegenerateStateError):
            squared_norm(psi)
        with pytest.raises(DegenerateStateError):
            psi.normalized()


class TestConstructionAndJson:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            superposition([1.0], [np.inf])
        with pytest.raises(ValueError):
            superposition([np.nan], [0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            superposition([], [])

    def test_arrays_are_frozen(self):
        psi = coherent_state(2.0)
        with pytest.raises(ValueError):
            psi.coeffs[0] = 0.0

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(37)
        psi = superposition([random_complex(rng, 1) for _ in range(4)],
                            [random_complex(rng, 9) for _ in range(4)]).normalized()
        doc = state_to_json_dict(psi, measurement_x=0.75)
        assert list(doc) == ["components", "normalized", "measurement"]
        assert list(doc["components"][0]) == ["coeff_re", "coeff_im", "amp_re", "amp_im"]
        back, mx = state_from_json_dict(doc)
        assert mx == 0.75
        assert back.is_normalized
        np.testing.assert_array_equal(back.coeffs, psi.coeffs)
        np.testing.assert_array_equal(back.amps, psi.amps)

    def test_dump_load_round_trip_exact(self, tmp_path):
        psi = condition_at(20.0, 20, 0.7)
        dump_state(psi, tmp_path / "s.json", measurement_x=0.7)
        back, mx = load_state(tmp_path / "s.json")
        assert mx == 0.7
        assert back.is_normalized
        np.testing.assert_array_equal(back.coeffs, psi.coeffs)
        np.testing.assert_array_equal(back.amps, psi.amps)

    def test_json_without_measurement(self):
        doc = state_to_json_dict(coherent_state(1.0))
        assert "measurement" not in doc
        _, mx = state_from_json_dict(doc)
        assert mx is None

