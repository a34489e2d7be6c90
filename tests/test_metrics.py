"""Fidelity maximization, curves, windows, success probabilities, distributions."""

import math
import os
import sys
import warnings

import numpy as np
import pytest

import oracles
from kerrcat import metrics
from kerrcat import (
    AcceptanceWindow,
    CatState,
    cat_fidelity,
    cat_overlap,
    conditioned_p_distribution,
    FidelityCurvePoint,
    default_target_beta,
    fidelity_columns,
    fidelity_curve,
    kerr_decompose,
    outcome_density,
    p_marginal_density,
    partner_for,
    precondition_p_distribution,
    squared_norm,
    success_probability,
    superposition,
    window_from_threshold,
)
from kerrcat.cli import _grid
from kerrcat.states import _log_polar, _scale, _x_amplitude_log_arrays

SQRT2 = math.sqrt(2.0)
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def random_complex(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def bench_reference(name, tol):
    """within(p, got): whether ``got`` is within bench/workloads' tolerance
    ``tol`` of the 60-digit reference density at P = p in bench/refs/``name``,
    with no known-cell envelope."""
    sys.path.insert(0, BENCH)
    try:
        import check
        import workloads
    finally:
        sys.path.remove(BENCH)
    with open(os.path.join(BENCH, "refs", name), encoding="utf-8") as fh:
        ref = {float(p): float(d) for p, d in check.parse_table(fh.read())[1:]}
    peak = max(ref.values())
    return lambda p, got: check.within(got, ref[p], getattr(workloads, tol), peak)


def sequential_window(alpha, n, f_min, scan_step=0.01):
    """(intervals, halvings): the window as found by a scan bounded point by
    point and a bisection of one midpoint per bracket and call."""
    xs = np.arange(-(alpha + 5.0), alpha + 5.0 + 0.5 * scan_step, scan_step)
    pipe = metrics._pipeline(alpha, n)
    scored = np.flatnonzero(~(pipe.fidelity_bound(xs) < 0.5 * f_min))
    above = np.zeros(len(xs), dtype=bool)
    above[scored] = pipe.fidelity(xs[scored])[0] >= f_min
    t = np.flatnonzero(above[1:] != above[:-1])
    a, b, high_at_b = xs[t], xs[t + 1], above[t + 1]
    halvings = 0
    while (live := np.flatnonzero(b - a > 1e-6)).size:
        m = 0.5 * (a[live] + b[live])
        to_b = (pipe.fidelity(m)[0] >= f_min) == high_at_b[live]
        b[live[to_b]] = m[to_b]
        a[live[~to_b]] = m[~to_b]
        halvings += 1
    ends = np.concatenate((xs[:1][above[:1]], 0.5 * (a + b), xs[-1:][above[-1:]]))
    return tuple((float(x0), float(x1)) for x0, x1 in zip(ends[::2], ends[1::2]) if x0 < x1), halvings


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

    @pytest.mark.parametrize("args", [
        (0.0, 0.0),
        (1.0, math.pi, 1.0 + 1e-8),
        (math.inf, 0.0),
        (1e-7, math.pi),
        (1.0, math.nan),
        (1.0, math.inf),
    ], ids=["zero-branch", "coinciding-partner", "infinite-branch", "tiny-branch",
            "nan-phi", "inf-phi"])
    def test_rejects_zero_branch(self, args):
        # the rule of cat_fidelity: a partner 1e-8 away, or -1e-7, overlaps
        # its branch to within 1e-12, an infinite branch is no amplitude, and
        # a non-finite phase no relative phase
        with pytest.raises(ValueError):
            CatState(*args)


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

    @pytest.mark.parametrize("score", [
        lambda psi, bt, pt: cat_fidelity(psi, bt, pt),
        lambda psi, bt, pt: cat_overlap(psi, bt, 0.5, pt),
    ], ids=["fidelity", "overlap"])
    @pytest.mark.parametrize("bt,pt", [(0.0, None), (2.0, 2.0), (2.0, 2.0 + 1e-7),
                                       (math.nan, None), (2.0, complex(math.inf, 1.0))],
                             ids=["zero-target", "equal-partner", "near-partner",
                                  "nan-target", "inf-partner"])
    def test_rejects_target_that_is_not_a_cat(self, score, bt, pt):
        with pytest.raises(ValueError):
            score(CatState(2.0, 0.0).to_superposition(), bt, pt)

    def test_cat_overlap_fixed_phase(self):
        psi = CatState(2.0, 0.9).to_superposition()
        assert cat_overlap(psi, 2.0, 0.9) == pytest.approx(1.0, abs=1e-12)
        rep = cat_fidelity(psi, 2.0)
        assert cat_overlap(psi, 2.0, rep.phi_max) == pytest.approx(rep.fidelity, abs=1e-12)
        assert cat_overlap(psi, 2.0, rep.phi_max + 1.0) < rep.fidelity

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_cat_overlap_rejects_nonfinite_phi(self, phi):
        psi = CatState(2.0, 0.9).to_superposition()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phi must be finite"):
                cat_overlap(psi, 2.0, phi)


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

    def test_pipeline_refuses_vanishing_cat(self):
        # at alpha = 1e-7 the target branches overlap to 1 - 1e-14: the
        # conditioned state is vacuum, not a cat
        with pytest.raises(ValueError, match="branches coincide"):
            fidelity_curve(1e-7, 20, [0.0])

    def test_degenerate_point_flagged(self):
        pts = fidelity_curve(20.0, 20, [0.0, 48.0])
        assert not pts[0].degenerate
        assert pts[1].degenerate and pts[1].fidelity == 0.0

    @pytest.mark.parametrize("alpha,n,xs", [(20.0, 60, _grid(-3.0, 3.0, 0.01)),
                                            (20.0, 20, _grid(-3.0, 48.0, 0.05)),
                                            (3.0, 512, _grid(-8.0, 8.0, 0.5))])
    def test_columns_match_points(self, alpha, n, xs):
        fid, phi, degenerate = fidelity_columns(alpha, n, xs)
        pts = fidelity_curve(alpha, n, xs)
        assert [p.x for p in pts] == xs.tolist()
        assert [p.fidelity for p in pts] == fid.tolist()
        assert [p.phi_max for p in pts] == phi.tolist()
        assert [p.degenerate for p in pts] == degenerate.tolist()
        assert degenerate.any() == (xs[-1] > 40.0)  # X = 48 is degenerate at N = 20
        assert fid.dtype == phi.dtype == float and degenerate.dtype == bool

    def test_point_is_a_named_tuple(self):
        p = FidelityCurvePoint(0.5, 0.9, 1.25)
        assert p._fields == ("x", "fidelity", "phi_max", "degenerate")
        assert p.degenerate is False
        assert repr(p) == "FidelityCurvePoint(x=0.5, fidelity=0.9, phi_max=1.25, degenerate=False)"
        assert tuple(p) == (0.5, 0.9, 1.25, False) and p[1] == 0.9
        x, fid, phi, degenerate = p
        assert (x, fid, phi, degenerate) == (0.5, 0.9, 1.25, False)
        assert p == FidelityCurvePoint(0.5, 0.9, 1.25, False)
        assert p != FidelityCurvePoint(0.5, 0.9, 1.25, True)
        assert hash(p) == hash(FidelityCurvePoint(0.5, 0.9, 1.25))
        with pytest.raises(AttributeError):
            p.fidelity = 1.0


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

    @pytest.mark.parametrize("n,f_min", [(20, 0.99999), (40, 0.99), (60, 0.9), (20, None),
                                         (60, None)])
    def test_matches_adaptive_quadrature(self, n, f_min):
        # table1's windows and the whole line against scipy's adaptive quad
        from scipy.integrate import quad

        win = (AcceptanceWindow(((-30.0, 30.0),)) if f_min is None
               else window_from_threshold(20.0, n, f_min))
        want = sum(quad(lambda x: outcome_density(20.0, n, x), lo, hi,
                        epsabs=1e-15, epsrel=1e-13, limit=2000)[0]
                   for lo, hi in win.intervals)
        assert success_probability(20.0, n, win) == pytest.approx(want, rel=1e-12)

    def test_unconverged_probability_raises(self, monkeypatch):
        # one node per panel cannot resolve the outcome density
        monkeypatch.setattr(metrics, "_LEGENDRE_NODES", (1, 2))
        with pytest.raises(ArithmeticError, match="not converged"):
            success_probability(20.0, 20, AcceptanceWindow(((-3.0, 3.0),)))

    def test_riemann_total_mass(self):
        xs = np.arange(-30.0, 30.0, 0.02)
        mass = sum(outcome_density(20.0, 20, x) for x in xs) * 0.02
        assert mass == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("alpha,n,f_min,count", [(2.0, 10, 0.1, 2), (2.0, 3, 0.2, 1)])
    def test_window_matches_brute_force_scan(self, alpha, n, f_min, count):
        # windows that start at the scan start (N = 10) or end at its end (N = 3)
        win = window_from_threshold(alpha, n, f_min)
        xs = np.arange(-(alpha + 5.0), alpha + 5.0 + 0.005, 0.01)
        above = np.array([p.fidelity >= f_min for p in fidelity_curve(alpha, n, xs)])
        assert len(win.intervals) == count
        if n == 10:
            assert win.intervals[0][0] == xs[0] == -7.0
        else:
            assert win.intervals[-1][1] == xs[-1]
            assert xs[-1] == pytest.approx(7.0, abs=1e-12) and xs[-1] < 7.0
        inside = np.zeros(len(xs), dtype=bool)
        for lo, hi in win.intervals:
            inside |= (lo <= xs) & (xs <= hi)
        np.testing.assert_array_equal(inside, above)
        interior = [e for iv in win.intervals for e in iv if e not in (xs[0], xs[-1])]
        assert len(interior) == np.count_nonzero(above[1:] != above[:-1])
        for e in interior:  # bisected to 1e-6: F - f_min changes sign within it
            near = fidelity_curve(alpha, n, [e - 1e-6, e + 1e-6])
            assert (near[0].fidelity >= f_min) != (near[1].fidelity >= f_min), e

    @pytest.mark.parametrize("alpha,n,f_min,step", [
        (20.0, 20, 0.99999, 0.01), (20.0, 40, 0.99, 0.01), (20.0, 60, 0.9, 0.01),
        (2.0, 10, 0.1, 0.01), (2.0, 3, 0.2, 0.01), (20.0, 20, 0.9, 0.05),
        (20.0, 20, 0.99999, 0.013)])
    def test_rounds_match_sequential_bisection(self, monkeypatch, alpha, n, f_min, step):
        # table1's windows, the windows at the scan's ends, and brackets that
        # need 16 halvings (four whole rounds) or 14 (the last round stops
        # after two)
        want, halvings = sequential_window(alpha, n, f_min, step)
        calls = []
        fidelity = metrics._Pipeline.fidelity
        monkeypatch.setattr(metrics._Pipeline, "fidelity",
                            lambda self, x: calls.append(len(x)) or fidelity(self, x))
        win = window_from_threshold(alpha, n, f_min, scan_step=step)
        assert win.intervals == want and want
        assert halvings == (16 if step == 0.05 else 14)
        assert len(calls) == 1 + math.ceil(halvings / metrics._ROUND_HALVINGS)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AcceptanceWindow(((1.0, 0.5),))
        with pytest.raises(ValueError):
            AcceptanceWindow(((0.0, 1.0), (0.5, 2.0)))
        with pytest.raises(ValueError):
            window_from_threshold(20.0, 20, 1.5)
        for step in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scan_step must be positive and finite"):
                window_from_threshold(20.0, 20, 0.9, scan_step=step)


class TestFidelityBound:
    """The phase-free bound that screens window scans, and the screen itself."""

    @pytest.mark.parametrize("alpha,n", [(2.0, 1), (5.0, 2), (20.0, 2), (3.0, 3), (30.0, 5),
                                         (5.0, 12), (20.0, 20), (20.0, 60), (30.0, 100),
                                         (10.0, 200)])
    def test_bounds_fidelity(self, alpha, n):
        pipe = metrics._pipeline(alpha, n)
        xs = np.arange(-(alpha + 5.0), alpha + 5.0, 0.05)
        bound = pipe.fidelity_bound(xs)
        fid, _, degenerate = pipe.fidelity(xs)
        assert np.isfinite(bound).all()
        ok = ~degenerate
        assert ok.sum() > len(xs) // 4
        assert (bound[ok] >= fid[ok] * (1.0 - 1e-12)).all()

    def test_infinite_where_smallest_eigenvalue_underflows(self):
        pipe = metrics._pipeline(3.0, 512)
        assert np.exp(np.min(pipe.spectrum)) == 0.0
        assert (pipe.fidelity_bound(np.linspace(-8.0, 8.0, 9)) == np.inf).all()

    @pytest.mark.parametrize("alpha,n,f_min", [(20.0, 20, 0.99999), (20.0, 40, 0.99),
                                               (20.0, 60, 0.9), (5.0, 12, 0.5),
                                               (30.0, 100, 0.9)])
    def test_screen_moves_no_window(self, monkeypatch, alpha, n, f_min):
        screened = window_from_threshold(alpha, n, f_min)
        for fill in (np.inf, np.nan):
            monkeypatch.setattr(metrics._Pipeline, "fidelity_bound",
                                lambda self, x, fill=fill: np.full(len(x), fill))
            assert window_from_threshold(alpha, n, f_min) == screened
        assert screened.intervals

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 10.0, 20.0, 30.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 20, 40, 60, 100, 200])
    def test_coarse_screen_keeps_what_the_bound_keeps(self, alpha, n):
        pipe = metrics._pipeline(alpha, n)
        rate = 4.0 * SQRT2 * np.max(np.abs(pipe.two_mode.amps.real))  # 4 R
        for step in (0.01, 0.05):
            xs = np.arange(-(alpha + 5.0), alpha + 5.0 + 0.5 * step, step)
            bound = pipe.fidelity_bound(xs)
            for f_min in (0.5, 0.9, 0.99999):
                keep = (1.0 - metrics._BOUND_MARGIN) * f_min
                np.testing.assert_array_equal(metrics._screen(pipe, xs, step, f_min),
                                              np.flatnonzero(~(bound < keep)))
            # the growth bound between neighbours, where the bound is a normal number
            grown = np.exp(rate * np.diff(xs)) * (1.0 + 1e-12)
            for near, far in ((bound[:-1], bound[1:]), (bound[1:], bound[:-1])):
                normal = near >= np.finfo(float).tiny
                assert (far[normal] <= grown[normal] * near[normal]).all()

    def test_underflowed_coarse_end_screens_nothing(self):
        # at alpha = 30, N = 3 the bound underflows to 0 next to points where
        # it is subnormal, so a zero end would drop them at a tiny threshold
        pipe = metrics._pipeline(30.0, 3)
        xs = np.arange(-35.0, 35.005, 0.01)
        bound = pipe.fidelity_bound(xs)
        assert ((bound[:-1] == 0.0) & (bound[1:] > 0.0)).any()
        f_min = 1e-323
        keep = (1.0 - metrics._BOUND_MARGIN) * f_min
        np.testing.assert_array_equal(metrics._screen(pipe, xs, 0.01, f_min),
                                      np.flatnonzero(~(bound < keep)))

    def test_table1_scans_bound_few_points(self, monkeypatch):
        rows = []
        bound = metrics._Pipeline.fidelity_bound
        monkeypatch.setattr(metrics._Pipeline, "fidelity_bound",
                            lambda self, x: rows.append(len(x)) or bound(self, x))
        for n, f_min in ((20, 0.99999), (40, 0.99), (60, 0.9)):
            window_from_threshold(20.0, n, f_min)
        assert 0 < sum(rows) < 5000

    def test_screen_stays_on(self, monkeypatch):
        scored = []

        def counting_curve(alpha_i, n, x_grid):
            scored.append(len(x_grid))
            return fidelity_curve(alpha_i, n, x_grid)

        monkeypatch.setattr(metrics, "fidelity_curve", counting_curve)
        window_from_threshold(20.0, 20, 0.99999)
        assert len(scored) == 1 and 0 < scored[0] < 1000


class TestMaxFidelity:
    """The bound-screened maximum over an outcome grid."""

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 20.0, 30.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20, 40, 60, 200])
    def test_equals_maximum_of_column(self, alpha, n):
        for xs in (_grid(-3.0, 3.0, 0.01), _grid(-(alpha + 5.0), alpha + 5.0, 0.05)):
            assert metrics.max_fidelity(alpha, n, xs) == max(fidelity_columns(alpha, n, xs)[0])

    @pytest.mark.parametrize("alpha,n,xs", [(3.0, 512, _grid(-8.0, 8.0, 0.05)),
                                            (20.0, 20, _grid(-3.0, 48.0, 0.05))],
                             ids=["infinite-bounds", "degenerate-rows"])
    def test_equals_maximum_off_the_screen(self, monkeypatch, alpha, n, xs):
        want = max(fidelity_columns(alpha, n, xs)[0])
        rows = []
        fidelity = metrics._Pipeline.fidelity
        monkeypatch.setattr(metrics._Pipeline, "fidelity",
                            lambda self, x: rows.append(len(x)) or fidelity(self, x))
        assert metrics.max_fidelity(alpha, n, xs) == want
        assert len(rows) == 2
        if n == 512:  # every bound is +inf: every row is scored
            assert sum(rows) == len(xs)

    def test_few_rows_are_scored(self, monkeypatch):
        rows = []
        fidelity = metrics._Pipeline.fidelity
        monkeypatch.setattr(metrics._Pipeline, "fidelity",
                            lambda self, x: rows.append(len(x)) or fidelity(self, x))
        best = metrics.max_fidelity(20.0, 60, _grid(-3.0, 3.0, 0.01))
        assert best == 0.97536848790336528
        assert rows[0] == metrics._MAX_FIRST and sum(rows) <= 340

    def test_short_and_empty_grids(self):
        assert metrics.max_fidelity(20.0, 20, [0.0]) == fidelity_curve(20.0, 20, [0.0])[0].fidelity
        with pytest.raises(ValueError):
            metrics.max_fidelity(20.0, 20, [])


class TestLegendreRule:
    @pytest.mark.parametrize("nodes", [8, 16])
    def test_matches_leggauss(self, nodes):
        t, w = metrics._legendre(nodes)
        want_t, want_w = np.polynomial.legendre.leggauss(nodes)
        assert t.tobytes() == want_t.tobytes() and w.tobytes() == want_w.tobytes()
        assert metrics._legendre(nodes) is metrics._legendre(nodes)
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.0

    def test_one_solve_per_node_count(self, monkeypatch):
        solves = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda k: solves.append(k) or leggauss(k))
        metrics._legendre.cache_clear()
        for n, f_min in ((20, 0.99999), (40, 0.99)):
            success_probability(20.0, n, window_from_threshold(20.0, n, f_min))
        assert solves == list(metrics._LEGENDRE_NODES)


class TestDistributions:
    @pytest.mark.parametrize("p", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite_grid(self, p):
        with pytest.raises(ValueError, match="quadrature values must be finite"):
            conditioned_p_distribution(20.0, 20, 0.0, [0.0, p])

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

    # fig2: the ring before the splitter and conditioned at X = 0 (N = 20);
    # fig4: conditioned at X = 0 (N = 200)
    @pytest.mark.parametrize("n,step,conditioned", [(20, 0.05, False), (20, 0.05, True),
                                                    (200, 0.02, True)])
    def test_grid_matches_per_point(self, n, step, conditioned):
        grid = _grid(-30.0, 30.0, step)
        if conditioned:
            rows = conditioned_p_distribution(20.0, n, 0.0, grid)
            psi = metrics.condition_at(20.0, n, 0.0)
        else:
            rows = precondition_p_distribution(20.0, n, grid)
            psi = kerr_decompose(20.0, n).state
        # fig4 takes the Fock route and is checked against the 60-digit
        # reference: 1e-13 against the sum over the components would compare
        # two double-precision sums, which differ by 1.8e-13 at P = -29.98
        # and in the trough near P = 1.6 are both rounding noise (direct
        # 6.7e-174, Fock 8.0e-31, reference 2.3e-28)
        within = bench_reference("fig4.csv", "DENSITY") if n == 200 else None
        self._assert_cells_match_points(psi, rows, within)

    def test_large_ring_grid_matches_per_point(self):
        # N = 1024 at X = 1 takes the Fock route: every cell equals the
        # one-point call bit for bit, and bench/refs' 60-digit reference at
        # the same grid points to the bench's large-N tolerance, with no
        # known-cell envelope
        within = bench_reference("pdist_post_n1024_x1.csv", "DENSITY_LARGE_N")
        psi = metrics.condition_at(20.0, 1024, 1.0)
        for p, got in conditioned_p_distribution(20.0, 1024, 1.0, _grid(-30.0, 30.0, 0.05)):
            assert got == p_marginal_density(psi, p), p
            assert within(p, got), p

    @staticmethod
    def _assert_cells_match_points(psi, rows, within=None):
        """Every grid cell equals the one-point call bit for bit, and is
        ``within`` the bench reference or, by default, the one-point
        log-domain sum over the components to 1e-13."""
        lc, ac = _log_polar(psi.coeffs)
        for p, got in rows:
            assert got == p_marginal_density(psi, p), p
            if within is not None:
                assert within(p, got), p
                continue
            # one point at a time in the log domain, as the grid was summed
            # before it was blocked; <P|b> = <X = P|-i b>
            wl, wp = _x_amplitude_log_arrays(p, -1j * psi.amps)
            top, terms = _scale(lc + wl, ac + wp)
            want = math.exp(min(2.0 * (top + math.log(abs(np.sum(terms)))), 700.0))
            assert abs(got - want) <= 1e-13 * want, p

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
