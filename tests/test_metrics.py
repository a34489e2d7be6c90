"""Fidelity maximization, curves, windows, success probabilities, distributions."""

import math

import numpy as np
import pytest

import oracles
from kerrcat import (
    AcceptanceWindow,
    CatState,
    cat_fidelity,
    cat_overlap,
    conditioned_p_distribution,
    default_target_beta,
    fidelity_curve,
    kerr_decompose,
    outcome_density,
    partner_for,
    precondition_p_distribution,
    squared_norm,
    success_probability,
    superposition,
    window_from_threshold,
)

SQRT2 = math.sqrt(2.0)


def random_complex(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class TestCatState:
    def test_normalization_closed_form(self):
        cat = CatState(1.5, 0.8)
        want = (2 + 2 * math.cos(0.8) * math.exp(-2 * 1.5 ** 2)) ** -0.5
        assert cat.normalization() == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("beta,phi", [(0.5, math.pi), (2.0, 0.0), (1.0 + 2.0j, 1.3)])
    def test_superposition_is_normalized(self, beta, phi):
        assert squared_norm(CatState(beta, phi).to_superposition()) == pytest.approx(
            1.0, abs=1e-12)

    def test_conjugate_partner_form(self):
        cat = CatState(1.0 + 2.0j, 0.4, partner_beta=1.0 - 2.0j)
        assert squared_norm(cat.to_superposition()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_branch(self):
        with pytest.raises(ValueError):
            CatState(0.0, 0.0)


class TestPartnerRule:
    def test_real_branch_pairs_with_negative(self):
        assert partner_for(3.0) == -3.0

    def test_imaginary_branch(self):
        assert partner_for(-2j) == 2j

    def test_complex_branch_pairs_with_conjugate(self):
        assert partner_for(1.0 + 2.0j) == 1.0 - 2.0j


class TestCatFidelity:
    def test_self_fidelity(self):
        psi = CatState(2.0, 0.7).to_superposition()
        report = cat_fidelity(psi, 2.0)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.phi_max == pytest.approx(0.7, abs=1e-6)

    def test_phi_recovery_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            mag = rng.uniform(1.0, 15.0)
            ang = rng.uniform(0, 2 * math.pi)
            beta = mag * np.exp(1j * ang)
            phi0 = rng.uniform(0, 2 * math.pi)
            psi = CatState(complex(beta), phi0).to_superposition()
            rep = cat_fidelity(psi, complex(beta), partner_beta=-complex(beta))
            assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
            diff = abs(rep.phi_max - phi0) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) < 1e-4

    def test_single_branch_half(self):
        from kerrcat import coherent_state
        assert cat_fidelity(coherent_state(8.0), 8.0).fidelity == pytest.approx(0.5, abs=1e-6)

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            psi = superposition([random_complex(rng, 1) for _ in range(3)],
                                [random_complex(rng, 6) for _ in range(3)]).normalized()
            f = cat_fidelity(psi, random_complex(rng, 4) + 0.5).fidelity
            assert -1e-15 <= f <= 1.0 + 1e-12

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            cat_fidelity(CatState(1.0, 0).to_superposition(), 0.0)

    def test_matches_dense_scan_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            coeffs = [random_complex(rng, 1) for _ in range(3)]
            amps = [random_complex(rng, 3) for _ in range(3)]
            psi = superposition(coeffs, amps).normalized()
            bt = 1.2 - 0.7j
            vec = sum(c * oracles.coherent_fock(a, 150) for c, a in zip(psi.coeffs, psi.amps))
            want = oracles.max_phi_fidelity_fock(vec, bt, partner_for(bt))
            assert cat_fidelity(psi, bt).fidelity == pytest.approx(want, abs=1e-8)

    def test_cat_overlap_fixed_phase(self):
        psi = CatState(2.0, 0.9).to_superposition()
        assert cat_overlap(psi, 2.0, 0.9) == pytest.approx(1.0, abs=1e-12)
        rep = cat_fidelity(psi, 2.0)
        assert cat_overlap(psi, 2.0, rep.phi_max) == pytest.approx(rep.fidelity, abs=1e-12)
        assert cat_overlap(psi, 2.0, rep.phi_max + 1.0) < rep.fidelity


class TestDefaultTarget:
    def test_flagship(self):
        beta = default_target_beta(kerr_decompose(20.0, 20), 0.0)
        assert beta == pytest.approx(-1j * 20.0 / SQRT2, abs=1e-9)

    def test_n4(self):
        beta = default_target_beta(kerr_decompose(7.0, 4), 0.0)
        assert beta == pytest.approx(-1j * 7.0 / SQRT2, abs=1e-9)

    def test_offset_outcome(self):
        dec = kerr_decompose(20.0, 20)
        beta = default_target_beta(dec, 10.0)
        # component whose Gaussian center sqrt2 Re b is nearest 10
        centers = SQRT2 * (dec.state.amps / SQRT2).real
        assert SQRT2 * beta.real == pytest.approx(
            centers[int(np.argmin(np.abs(centers - 10)))], abs=1e-9)

    def test_tie_breaks_to_smallest_index(self):
        dec = kerr_decompose(5.0, 4)
        beta = default_target_beta(dec, 0.0)
        assert beta == pytest.approx(dec.state.amps[0] / SQRT2, abs=1e-12)


class TestFidelityCurve:
    def test_flagship_plateau_and_decay(self):
        pts = fidelity_curve(20.0, 20, [0.0, 1.0, 2.0, 2.5, 3.0])
        f = {p.x: p.fidelity for p in pts}
        assert f[0.0] > 0.99999
        assert f[1.0] > 0.99999
        assert f[2.5] < f[2.0]
        assert f[3.0] < f[2.5] < 0.99999

    def test_two_component_exact_at_symmetric_outcome(self):
        pts = fidelity_curve(20.0, 2, [0.0])
        assert pts[0].fidelity == pytest.approx(1.0, abs=1e-10)

    def test_two_component_branch_imbalance(self):
        # away from X = 0 the real-axis branches unbalance as e^{2 X alpha}
        # and the balanced-cat fidelity collapses to ~1/2
        pts = fidelity_curve(20.0, 2, [0.1, 0.5])
        assert pts[0].fidelity == pytest.approx(0.518309496737, abs=1e-9)
        assert pts[1].fidelity == pytest.approx(0.5, abs=1e-6)

    def test_symmetry_on_plateau(self):
        for n in (4, 8, 16):
            left = fidelity_curve(20.0, n, [-1.7, -0.4])
            right = fidelity_curve(20.0, n, [1.7, 0.4])
            assert left[0].fidelity == pytest.approx(right[0].fidelity, abs=1e-10)
            assert left[1].fidelity == pytest.approx(right[1].fidelity, abs=1e-10)

    def test_degenerate_point_flagged(self):
        pts = fidelity_curve(20.0, 20, [0.0, 48.0])
        assert not pts[0].degenerate
        assert pts[1].degenerate and pts[1].fidelity == 0.0


class TestWindowsAndSuccess:
    def test_flagship_window_edges(self):
        win = window_from_threshold(20.0, 20, 0.99999, scan_step=0.02)
        assert len(win.intervals) == 1
        lo, hi = win.intervals[0]
        assert lo == pytest.approx(-2.1588, abs=2e-3)
        assert hi == pytest.approx(2.1588, abs=2e-3)

    def test_windows_nest(self):
        loose = window_from_threshold(20.0, 20, 0.9, scan_step=0.05)
        tight = window_from_threshold(20.0, 20, 0.99999, scan_step=0.05)
        (l_lo, l_hi), (t_lo, t_hi) = loose.intervals[0], tight.intervals[0]
        assert l_lo <= t_lo and t_hi <= l_hi

    def test_empty_window(self):
        win = window_from_threshold(20.0, 60, 0.999, scan_step=0.05)
        assert win.intervals == ()
        assert success_probability(20.0, 60, win) == 0.0

    def test_total_probability(self):
        win = AcceptanceWindow(((-30.0, 30.0),))
        assert success_probability(20.0, 20, win) == pytest.approx(1.0, abs=1e-4)

    def test_probabilities_add(self):
        whole = AcceptanceWindow(((-1.0, 1.0),))
        halves = AcceptanceWindow(((-1.0, 0.25), (0.25, 1.0)))
        assert success_probability(20.0, 20, whole) == pytest.approx(
            success_probability(20.0, 20, halves), abs=1e-9)

    def test_riemann_total_mass(self):
        xs = np.arange(-30.0, 30.0, 0.02)
        mass = sum(outcome_density(20.0, 20, x) for x in xs) * 0.02
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AcceptanceWindow(((1.0, 0.5),))
        with pytest.raises(ValueError):
            AcceptanceWindow(((0.0, 1.0), (0.5, 2.0)))
        with pytest.raises(ValueError):
            window_from_threshold(20.0, 20, 1.5)


class TestDistributions:
    def test_conditioned_bimodal_flagship(self):
        grid = np.arange(-25.0, 25.0001, 0.01)
        rows = conditioned_p_distribution(20.0, 20, 0.0, grid)
        dens = np.array([d for _, d in rows])
        peaks = [(grid[i], dens[i]) for i in range(1, len(grid) - 1)
                 if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]]
        top = max(d for _, d in peaks)
        big = sorted(p for p, d in peaks if d > 0.1 * top)
        assert len(big) == 2
        assert big[0] == pytest.approx(-20.0, abs=0.5)
        assert big[1] == pytest.approx(20.0, abs=0.5)

    def test_two_component_interference_fringes(self):
        # conditioned two-component state is a cat along the real axis, so the
        # conjugate quadrature shows fringes around P = 0
        grid = np.arange(-2.0, 2.0001, 0.02)
        rows = conditioned_p_distribution(3.0, 2, 0.0, grid)
        dens = np.array([d for _, d in rows])
        maxima = sum(1 for i in range(1, len(dens) - 1)
                     if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
                     and dens[i] > 0.05 * dens.max())
        assert maxima >= 3

    def test_precondition_single_component(self):
        grid = np.arange(-6.0, 6.0001, 0.05)
        rows = precondition_p_distribution(3.0, 1, grid)
        dens = np.array([d for _, d in rows])
        assert grid[np.argmax(dens)] == pytest.approx(0.0, abs=0.06)
        want = math.exp(0.0) / math.sqrt(math.pi)
        assert dens.max() == pytest.approx(want, rel=1e-3)

    def test_precondition_flagship_ring(self):
        grid = np.arange(-36.0, 36.0001, 0.05)
        rows = precondition_p_distribution(20.0, 20, grid)
        dens = np.array([d for _, d in rows])
        # multi-peaked spread reaching out to sqrt2 * 20
        maxima = sum(1 for i in range(1, len(dens) - 1)
                     if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
                     and dens[i] > 0.05 * dens.max())
        assert maxima >= 6
        assert dens[np.abs(grid) > 25].max() > 0.01 * dens.max()
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_pre_split_fidelity_is_low(self):
        # before the splitter the ring overlaps the ideal cat at only 2/N
        dec = kerr_decompose(20.0, 20)
        rep = cat_fidelity(dec.state, -20.0j)
        assert rep.fidelity == pytest.approx(0.1, abs=1e-3)

    def test_conditioned_distribution_propagates_degenerate(self):
        from kerrcat import DegenerateStateError
        with pytest.raises(DegenerateStateError):
            conditioned_p_distribution(20.0, 20, 48.0, [0.0])

    def test_large_ring_peak_positions_regression(self):
        # at n = 200 each branch is a ~7-component cluster whose coefficient
        # phases step by 3*pi/2 per component; the resulting chirp tilts the
        # envelope maxima off +-20 (verified against the independent
        # number-basis pipeline to 1e-13)
        grid = np.arange(-1250, 1251) * 0.02
        rows = conditioned_p_distribution(20.0, 200, 0.0, grid)
        dens = np.array([d for _, d in rows])
        peaks = [(grid[i], dens[i]) for i in range(1, len(grid) - 1)
                 if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]]
        top = max(d for _, d in peaks)
        big = sorted(p for p, d in peaks if d > 0.1 * top)
        assert len(big) == 2
        assert big[0] == pytest.approx(-21.20, abs=0.05)
        assert big[1] == pytest.approx(18.72, abs=0.05)
