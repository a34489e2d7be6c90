"""Beam splitting with vacuum and homodyne conditioning."""

import math
import tracemalloc

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
    fidelity_curve,
    inner_product,
    kerr_decompose,
    outcome_density,
    phase_noise_state,
    superposition,
    vacuum_state,
    x_outcome_density,
)
from kerrcat.conditioning import (
    _DIGITS_BUDGET,
    _collapse,
    _lag_norm,
    _ring_spectrum,
    _scaled_rows,
)
from kerrcat.metrics import _BLOCK, _branch_terms, _pipeline
from kerrcat.states import (
    _log_polar,
    _norms,
    _scale,
    _spectral_norms,
    _x_amplitude_log_arrays,
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

    def test_null_state_raises(self):
        # the single-mode norm's verdict: 1e-400 is below 1e-300
        with pytest.raises(DegenerateStateError, match="numerically null"):
            beamsplit_with_vacuum(superposition([1e-200], [0.0])).squared_norm()

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
        # both one-shots take a HomodyneOutcome as they take its float, bit for bit
        for tm, x in ((split(3.0, 4), 0.4), (split(20.0, 20), 0.5)):
            a = condition_on_x(tm, x)
            b = condition_on_x(tm, HomodyneOutcome(x))
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
            np.testing.assert_array_equal(a.amps, b.amps)
            assert x_outcome_density(tm, HomodyneOutcome(x)) == x_outcome_density(tm, x)

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(ValueError):
            condition_on_x(split(2.0, 2), math.nan)
        with pytest.raises(ValueError):
            HomodyneOutcome(math.inf)

    @pytest.mark.parametrize("call", [
        lambda: outcome_density(20.0, 20, math.nan),
        lambda: x_outcome_density(split(20.0, 20), -math.inf),
        lambda: fidelity_curve(20.0, 20, [0.0, math.nan]),
        lambda: fidelity_curve(20.0, 20, [math.inf]),
        lambda: phase_noise_state(20.0, 20, math.nan, 0.3),
    ], ids=["density", "public-density", "curve-nan", "curve-inf", "rotation"])
    def test_collapse_rejects_nonfinite_outcome(self, call):
        with pytest.raises(ValueError, match="measurement outcome must be finite"):
            call()

    @pytest.mark.parametrize("delta_phi", [math.nan, math.inf])
    def test_phase_noise_rejects_nonfinite_rotation(self, delta_phi):
        with pytest.raises(ValueError, match="rotation delta_phi must be finite"):
            phase_noise_state(20.0, 20, 0.0, delta_phi)

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

    # reaches both Gaussian tails, where at n = 200 the log-domain pair sum
    # loses up to 8 digits to cancellation (X = 24.85: 8.03) and the spectral
    # densities at most 2.1; X = 48 is degenerate
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


class TestBatchedRows:
    """Rows collapsed in one batch equal one-row calls bit for bit."""

    # longer than one block; X = 48 is degenerate
    GRID = np.append(np.linspace(-3.0, 3.0, _BLOCK + 45), 48.0)
    ROTATIONS = np.linspace(-0.3, 0.3, _BLOCK + 45)

    @pytest.mark.parametrize("n", [20, 60, 200])
    def test_curve_rows(self, n):
        batch = fidelity_curve(20.0, n, self.GRID)
        for x, point in zip(self.GRID, batch):
            assert point == fidelity_curve(20.0, n, [x])[0], x
        assert batch[-1].degenerate
        assert batch[-1].fidelity == 0.0 and batch[-1].phi_max == 0.0
        assert not any(p.degenerate for p in batch[:-1])

    @pytest.mark.parametrize("n", [20, 60, 200])
    def test_rotated_rows(self, n):
        # ring_step_terms projects one turned ring per row; each row is the
        # turned ring collapsed alone, as phase_noise_state collapses it
        pipe = _pipeline(20.0, n)
        amps = pipe.two_mode.amps
        _, top, q = _scaled_rows(pipe.log_c, pipe.arg_c,
                                 amps * np.exp(1j * self.ROTATIONS)[:, None], 0.5)
        A, B, degenerate = pipe.ring_step_terms(0.5, self.ROTATIONS)
        assert A.shape == B.shape == degenerate.shape == (len(self.ROTATIONS), n)
        assert not degenerate.any()
        for g, u in enumerate(self.ROTATIONS):
            turned = _collapse(pipe.log_c, pipe.arg_c, amps * np.exp(1j * u), 0.5, pipe.spectrum)
            assert top[g] == turned.top[0] and np.array_equal(q[g], turned.q[0]), u
            one = phase_noise_state(20.0, n, 0.5, u)
            assert np.array_equal(turned.coeffs(0), one.coeffs), u
            assert np.array_equal(turned.state().amps, one.amps), u
            a, b, _ = pipe.ring_step_terms(0.5, u)
            assert np.array_equal(A[g], a[0]) and np.array_equal(B[g], b[0]), u

    @pytest.mark.parametrize("n", [20, 200])
    def test_turned_target_matches_turned_ring(self, n):
        # ring_step_terms turns the target by -u, <t|b e^{iu}> = <t e^{-iu}|b>;
        # the conditioned state turns the ring by u (column 0: no ring step)
        pipe = _pipeline(20.0, n)
        for u in (-0.3, 0.1, 2.0):
            A, B, _ = pipe.ring_step_terms(0.5, u)
            psi = phase_noise_state(20.0, n, 0.5, u)
            a, b = _branch_terms(psi.coeffs, psi.amps, *pipe.target[:2])
            assert abs(A[0, 0] - a) <= 1e-13 and abs(B[0, 0] - b) <= 1e-13, u


def _log_route(log_c, arg_c, rows, g):
    """Row g of ``rows`` rebuilt in log-polar form from the log-polar
    coefficients and X_g, then summed by the pair sum: (log density, digits lost)."""
    wl, wp = _x_amplitude_log_arrays(rows.x[g], rows.amps)
    top, q = _scale(log_c + wl, arg_c + wp)
    (log_norm,), (lost,) = _norms(q[None], rows.amps, None)
    return 2.0 * float(top) + log_norm, lost


def _lag_route(rows, g):
    """Row g of ``rows`` summed over lags: its log density."""
    return 2.0 * rows.top[g] + _lag_norm(rows.q[g], rows.amps)


class TestDigitsLostBudget:
    """Densities are right to their budget or raise; the spectral route agrees
    with the log-domain pair sum and alone judges a ring row.  Ring rows past
    its budget are refused, and normalized by the sum over lags."""

    XS = np.arange(-25.0, 25.5, 1.0)
    # rows within _DIGITS_BUDGET are off by 5.7e-9 at worst (N = 1024, X = 4,
    # where the double-precision oracle itself loses ~7 digits)
    RTOL = 1e-6
    # rows past the budget on the spectral route (10.3 and 14.7 digits), the
    # lag route (14.3 and 15.1) and the pair sum (15.8 and 15.6); the true
    # N = 4096 density is 6.79e-110
    PAST = [(1024, 6.0), (4096, 0.0)]

    @pytest.mark.parametrize("n", [20, 60, 200, 1024])
    def test_matches_oracle_or_raises(self, n):
        raised = []
        for x in self.XS:
            try:
                got = outcome_density(20.0, n, x)
            except ArithmeticError:
                raised.append(x)
                continue
            _, want = oracles.condition_fock(20.0, n, float(x), 650)
            assert got == pytest.approx(want, rel=self.RTOL, abs=0), x
        if n < 1024:
            assert raised == []
        else:
            # N = 1024 is accepted up to X = 4 (7.0 digits) and loses 10.3
            # digits at X = 6
            assert 1.0 not in raised and 6.0 in raised
            assert 0 < len(raised) < len(self.XS)

    @pytest.mark.parametrize("n,x", [(200, -20.0), (200, -18.0), (200, 24.0)])
    def test_accepts_cancelling_tails(self, n, x):
        _, want = oracles.condition_fock(20.0, n, x, 650)
        assert outcome_density(20.0, n, x) == pytest.approx(want, rel=1e-8, abs=0)

    # 60-digit number-basis densities (bench/make_refs.py); the pair sum is
    # 5.2e-3 and 73 % off here
    @pytest.mark.parametrize("x,want", [(1.0, 3.328515333401843e-14),
                                        (2.5, 5.413351615309458e-17)], ids=["1.0", "2.5"])
    def test_matches_high_precision_reference(self, x, want):
        assert outcome_density(20.0, 1024, x) == pytest.approx(want, rel=1e-8, abs=0)
        assert x_outcome_density(split(20.0, 1024), x) == pytest.approx(want, rel=1e-8, abs=0)

    @pytest.mark.parametrize("n,x", PAST)
    def test_rejects_past_budget(self, n, x):
        with pytest.raises(ArithmeticError, match="digits to cancellation"):
            outcome_density(20.0, n, x)
        with pytest.raises(ArithmeticError, match="digits to cancellation"):
            x_outcome_density(split(20.0, n), x)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_budget_rows_match_log_route(self, n):
        pipe = _pipeline(20.0, n)
        rows = pipe.collapse(np.linspace(-25.0, 25.0, 201))
        assert np.all(rows.digits_lost <= _DIGITS_BUDGET)
        for g in range(len(rows.x)):
            log_norm, lost = _log_route(pipe.log_c, pipe.arg_c, rows, g)
            assert abs(rows.log_norm[g] - log_norm) <= 1e-13, rows.x[g]
            assert lost <= _DIGITS_BUDGET, rows.x[g]

    @pytest.mark.parametrize("n,xs", [(4096, [0.0]), (1024, [-3.0, 1.0, 6.0])])
    def test_rows_past_budget_use_lag_route(self, n, xs):
        pipe = _pipeline(20.0, n)
        rows = pipe.collapse(xs)
        spectral, lost = _spectral_norms(rows.q, pipe.spectrum)
        assert np.any(lost > _DIGITS_BUDGET)
        for g in range(len(xs)):
            if lost[g] <= _DIGITS_BUDGET:
                want = (2.0 * rows.top[g] + spectral[g], lost[g])
            else:
                # the lag sum's log density, the spectral digits lost
                want = (_lag_route(rows, g), lost[g])
            assert (rows.log_norm[g], rows.digits_lost[g]) == want, xs[g]

    @pytest.mark.parametrize("alpha,n,count", [(5.0, 512, 41), (20.0, 1024, 41), (20.0, 4096, 9)])
    def test_lag_mass_by_fft_matches_direct_correlation(self, alpha, n, count):
        # _lag_norm is the reference's log norm, bit for bit
        pipe = _pipeline(alpha, n)
        rows = pipe.collapse(np.linspace(-alpha - 5.0, alpha + 5.0, count))
        _, lost = _spectral_norms(rows.q, pipe.spectrum)
        past = np.flatnonzero(lost > _DIGITS_BUDGET)
        assert past.size >= 3
        for g in past:
            want, _ = oracles.correlated_lag_norm(rows.q[g], rows.amps)
            assert _lag_norm(rows.q[g], rows.amps) == want, rows.x[g]

    @pytest.mark.parametrize("alpha", [5.0, 20.0, 30.0])
    @pytest.mark.parametrize("n", [20, 200, 1024])
    def test_lag_route_matches_log_route(self, alpha, n):
        # every other row on the ring turned by 0.3; worst measured: 1.1e-13
        # times 10^d
        xs = np.linspace(-alpha - 3.0, alpha + 3.0, 13)
        pipe = _pipeline(alpha, n)
        turned = pipe.two_mode.amps * np.exp(0.3j)
        batches = (pipe.collapse(xs), _collapse(pipe.log_c, pipe.arg_c, turned, xs, pipe.spectrum))
        checked = 0
        for g in range(len(xs)):
            rows = batches[g % 2]
            log_norm, lost = _log_route(pipe.log_c, pipe.arg_c, rows, g)
            if lost <= _DIGITS_BUDGET:
                checked += 1
                assert abs(_lag_route(rows, g) - log_norm) <= 10.0 ** (lost - 12.0), xs[g]
        assert checked >= 6

    def test_lag_route_keeps_rows_past_budget(self):
        # every ring row past the spectral budget loses more than the budget
        # in the direct sum over lags too, so the spectral verdict refuses no
        # row the lag sum would accept
        past = 0
        for alpha in (1.0, 3.0, 5.0, 10.0, 20.0, 30.0):
            for n in (200, 1024, 4096):
                pipe = _pipeline(alpha, n)
                xs = np.linspace(-alpha - 8.0, alpha + 8.0, 33)
                _, _, q = _scaled_rows(pipe.log_c, pipe.arg_c, pipe.two_mode.amps, xs)
                _, lost = _spectral_norms(q, pipe.spectrum)
                for g in np.flatnonzero(lost > _DIGITS_BUDGET):
                    past += 1
                    lag_lost = oracles.correlated_lag_norm(q[g], pipe.two_mode.amps)[1]
                    assert lag_lost > _DIGITS_BUDGET, (alpha, n, xs[g])
        assert past >= 100

    def test_big_ring_row_memory(self):
        # the N = 4096 row is past the spectral budget; the chunked log-domain
        # pair sum peaked at 160 MiB there
        pipe = _pipeline(20.0, 4096)
        tracemalloc.start()
        try:
            rows = pipe.collapse(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.digits_lost[0] > _DIGITS_BUDGET
        assert peak < 8 * 2 ** 20

    def test_non_ring_state_uses_log_route(self):
        # the N = 60 ring with one component moved off it by 1e-6
        tm = split(20.0, 60)
        amps = tm.amps.copy()
        amps[7] += 1e-6
        tm = TwoModeProductSuperposition(tm.coeffs, amps, True)
        assert _ring_spectrum(amps) is None
        xs = [-3.0, 0.0, 1.0]
        log_c, arg_c = _log_polar(tm.coeffs)
        rows = _collapse(log_c, arg_c, amps, xs)
        for g, x in enumerate(xs):
            log_norm, lost = _log_route(log_c, arg_c, rows, g)
            assert (rows.log_norm[g], rows.digits_lost[g]) == (log_norm, lost), x
            assert x_outcome_density(tm, x) == rows.densities([g])[0], x
        # a turned state is collapsed like any other, bit for bit
        turned = _collapse(log_c, arg_c, amps * np.exp(0.3j), 1.0)
        assert (turned.log_norm[0], turned.digits_lost[0]) == _log_route(log_c, arg_c, turned, 0)

    def test_densities_share_the_gate(self):
        pipe = _pipeline(20.0, 200)
        rows = pipe.collapse([-20.0, 0.0, 24.0, 48.0])
        got = rows.densities()
        assert list(got) == [rows.densities([g])[0] for g in range(4)]
        assert got[-1] == 0.0
        for n, x in self.PAST:
            past = _pipeline(20.0, n).collapse([x])
            with pytest.raises(ArithmeticError, match=f"X = {x:g} "):
                past.densities()
        pipe = _pipeline(20.0, 1024)
        mixed = pipe.collapse([0.0, 6.0])
        with pytest.raises(ArithmeticError, match="X = 6 "):
            mixed.densities()
        assert mixed.densities([0])[0] == pipe.collapse(0.0).densities()[0]


class TestSquaredNormBudget:
    """squared_norm shares the outcome densities' digits-lost budget."""

    @pytest.mark.parametrize("n,x", [(200, 24.0), (1024, -3.0), (1024, 1.0)])
    def test_accepts_conditioned_state(self, n, x):
        # these rings' norms are spectral and lose 1.5, 3.0 and 5.0 digits
        # (the pair sums 6.1, 7.3 and 13.0, past the budget at X = 1); the
        # old absolute 1e-12 bound on the imaginary residue rejected the
        # first two
        assert condition_at(20.0, n, x).squared_norm() == pytest.approx(1.0, abs=1e-8)

    def test_rejects_big_ring_past_budget(self):
        # the N = 4096 ring's spectral norm loses 15.25 digits at X = 1
        with pytest.raises(ArithmeticError, match="digits to cancellation"):
            condition_at(20.0, 4096, 1.0).squared_norm()

    def test_rejects_past_budget(self):
        # the norm, 1 + a^2 - 2 a e^{-|b|^2 / 2} with a = 1 - 1e-10, is ~1e-10
        # out of terms whose magnitudes sum to 4: 10.6 digits lost
        psi = superposition([1.0, -(1.0 - 1e-10)], [0.0, 1e-5])
        with pytest.raises(ArithmeticError, match="digits to cancellation"):
            psi.squared_norm()
