"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np
import pytest

import oracles
from kerrcat import (
    KerrParams,
    NoiseParams,
    cat_fidelity,
    condition_at,
    default_target_beta,
    fidelity_curve,
    fock_expand,
    kerr_decompose,
    kerr_fock_evolve,
    p_marginal_density,
    phase_noise_avg_fidelity,
    phase_noise_state,
    squared_norm,
    success_probability,
    verify_phase_identity,
    window_from_threshold,
    x_marginal_density,
    x_outcome_density,
)

SQRT2 = math.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_phase_identity():
    start = time.perf_counter()
    worst = max(verify_phase_identity(n) for n in list(range(1, 65)) + [200, 256])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-14 and elapsed < 1.0
    assert report(1, ok, f"max residual {worst:.2e} over N=1..64,200,256 in {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    worst = 1.0
    for alpha in (1.0, 2.0, 4.0, 6.0, 8.0):
        for n in (2, 3, 4, 5, 8, 20):
            cutoff = int(alpha ** 2 + 10 * alpha + 50)
            fock = kerr_fock_evolve(KerrParams(math.pi / n, alpha), cutoff)
            dec = fock_expand(kerr_decompose(alpha, n), cutoff)
            worst = min(worst, abs(fock.overlap(dec)))
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-8 and elapsed < 5.0
    assert report(2, ok, f"min overlap {worst:.12f} in {elapsed:.2f}s")


def test_criterion_03_yurke_stoler_limit():
    ok = True
    detail = []
    for alpha in (2.5, 20.0):
        rep = cat_fidelity(kerr_decompose(alpha, 2), alpha)
        dphi = abs(rep.phi_max - math.pi / 2)
        ok &= abs(rep.fidelity - 1.0) <= 1e-10 and dphi <= 1e-4
        detail.append(f"alpha={alpha}: F={rep.fidelity:.12f} phi_max={rep.phi_max:.6f}")
    assert report(3, ok, "; ".join(detail) + " (want phi = pi/2)")


def test_criterion_04_peak_fidelity():
    rep = cat_fidelity(condition_at(20.0, 20, 0.0),
                       default_target_beta(kerr_decompose(20.0, 20), 0.0))
    ok = rep.fidelity > 0.99999
    assert report(4, ok, f"F(alpha=20, N=20, X=0) = {rep.fidelity:.10f}")


@pytest.mark.parametrize("n,f_min,target,tol", [
    (20, 0.99999, 0.10, 0.02),
    (40, 0.99, 0.04, 0.01),
    (60, 0.9, 0.02, 0.005),
])
def test_criterion_05_success_probabilities(n, f_min, target, tol):
    start = time.perf_counter()
    window = window_from_threshold(20.0, n, f_min)
    prob = success_probability(20.0, n, window)
    elapsed = time.perf_counter() - start
    ok = abs(prob - target) <= tol and elapsed < 10.0
    ivs = ", ".join(f"[{lo:.3f}, {hi:.3f}]" for lo, hi in window.intervals)
    assert report(5, ok,
                  f"N={n} F>{f_min}: P={prob:.4f} (want {target}+-{tol}) "
                  f"window {ivs} in {elapsed:.1f}s")


def test_criterion_06_max_fidelity_n60():
    grid = np.arange(-300, 301) * 0.01
    best = max(p.fidelity for p in fidelity_curve(20.0, 60, grid))
    ok = abs(best - 0.975) <= 0.005
    assert report(6, ok, f"max F over X in [-3, 3] at N=60: {best:.4f} (want 0.975+-0.005)")


def test_criterion_07_bimodal_signature_n200():
    alpha, n = 20.0, 200
    grid = np.arange(-1500, 1501) * 0.02
    dens = p_marginal_density(condition_at(alpha, n, 0.0), grid)
    peaks = [i for i in range(1, len(grid) - 1)
             if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]]
    top = max(dens[i] for i in peaks)
    dominant = [i for i in peaks if dens[i] > 0.1 * top]
    two_dominant = len(dominant) == 2
    i_neg, i_pos = dominant[0], dominant[-1]
    neg_pos, pos_pos = grid[i_neg], grid[i_pos]
    seg = dens[i_neg + 1:i_pos]
    dip = seg.min() / top
    dip_ok = dip < 0.1

    # Where the peaks belong.  Conditioning at X = 0 keeps the ring components
    # k = N/4 + j and 3N/4 + j near the imaginary axis, two clusters centred at
    # P0 = +-alpha.  Component j sits d j off the axis in X (d = 2 pi alpha / N)
    # with conditioning weight e^{-d^2 j^2 / 2}, so in the P representation it
    # carries the fringe phase e^{-i d j P}, and its coefficient
    # (-1)^k e^{i pi k^2 / N} adds a quarter turn per step in j.  Poisson
    # summation over j turns the cluster into fringes centred at
    # P = -N/(4 alpha) + m N/alpha, each with the unit-width Gaussian envelope
    # of a single component, e^{-(P - P0)^2}.  When alpha^2/N is an integer
    # (400/200 = 2 here) a fringe sits at P0 - N/(4 alpha), and the product of
    # the two Gaussians peaks halfway, at P0 - N/(8 alpha) = -21.25 / +18.75.
    # Arc curvature moves each peak ~0.04 towards P = 0 (-21.21 / +18.71).
    # The single-component positions +-alpha lie 1.25 away, outside the band.
    predicted = (-alpha - n / (8 * alpha), alpha - n / (8 * alpha))
    derived_ok = all(abs(got - want) <= 0.5
                     for got, want in zip((neg_pos, pos_pos), predicted))

    # The independent number-basis route (tests/oracles.py) with criterion
    # 11's cutoff rule must put the maxima on the same grid points, give the
    # same densities there, and so back the README's agreement claim.  Its
    # P density is a Hermite recursion per point, so it is evaluated only
    # within 1.0 of the predicted peaks.
    cutoff = int(alpha ** 2 + 10 * alpha + 50)
    vec, _ = oracles.condition_fock(alpha, n, 0.0, cutoff)
    oracle_idx = []
    worst_dev = 0.0
    for want in predicted:
        near = np.flatnonzero(np.abs(grid - want) <= 1.0)
        dens_o = np.array([oracles.p_density_fock(vec, p) for p in grid[near]])
        oracle_idx.append(near[np.argmax(dens_o)])
        worst_dev = max(worst_dev, float(np.max(np.abs(dens_o - dens[near]))) / top)
    oracle_ok = (worst_dev <= 1e-10 and abs(oracle_idx[0] - i_neg) <= 1
                 and abs(oracle_idx[1] - i_pos) <= 1)

    ok = two_dominant and dip_ok and derived_ok and oracle_ok
    report(7, ok,
           f"dominant maxima at P = {neg_pos:.2f}, {pos_pos:.2f}; number-basis oracle "
           f"{grid[oracle_idx[0]]:.2f}, {grid[oracle_idx[1]]:.2f} (max deviation "
           f"{worst_dev:.1e} of peak); derived {predicted[0]:.2f}, {predicted[1]:.2f} "
           f"(want +-0.5); inter-peak dip {dip:.1e} of peak; "
           f"{len(dominant)} maxima above 10% of peak")
    assert two_dominant, "expected exactly two dominant local maxima"
    assert dip_ok, "inter-peak dip must fall below 10% of the peak"
    assert oracle_ok, (
        f"number-basis oracle peaks {grid[oracle_idx[0]]:.2f}, {grid[oracle_idx[1]]:.2f} "
        f"or densities (deviation {worst_dev:.1e} of peak) disagree with "
        f"{neg_pos:.2f}, {pos_pos:.2f}")
    assert derived_ok, (
        f"peak positions {neg_pos:.2f}, {pos_pos:.2f} outside "
        f"{predicted[0]:.2f} / {predicted[1]:.2f} +- 0.5")


def test_criterion_08_loss_model():
    # interpretation on record: loss probability p = P(at least one photon
    # lost) = 1 - e^{-mu}; flip probability from Poisson parity,
    # P_f = (1 - e^{-2 mu}) / 2; amplitude decays by sqrt(1 - mu / alpha^2).
    from kerrcat import lossy_fidelity
    got = {}
    ok = True
    for loss, want in ((0.10, 0.88), (0.30, 0.71), (0.60, 0.55)):
        f = lossy_fidelity(20.0, 20, 0.0, NoiseParams(loss_prob=loss))
        got[loss] = f
        ok &= abs(f - want) <= 0.04
    assert report(
        8, ok,
        "Poisson-parity interpretation: "
        + ", ".join(f"loss {int(100 * k)}% -> F={v:.3f}" for k, v in got.items())
        + " (want 0.88/0.71/0.55 +-0.04)")


@pytest.mark.parametrize("n", [20, 40, 60])
def test_criterion_09_phase_noise_shape(n):
    noiseless = cat_fidelity(condition_at(20.0, n, 0.0),
                             default_target_beta(kerr_decompose(20.0, n), 0.0)).fidelity
    at_zero = phase_noise_avg_fidelity(20.0, n, 0.0, 0.0)
    zero_ok = abs(at_zero - noiseless) <= 1e-9
    sigmas = np.arange(0, 31) * 0.01
    vals = phase_noise_avg_fidelity(20.0, n, 0.0, sigmas)
    worst_rise = max(b - a for a, b in zip(vals, vals[1:]))
    mono_ok = worst_rise <= 1e-9
    ok = zero_ok and mono_ok
    assert report(9, ok,
                  f"N={n}: |F(0)-noiseless|={abs(at_zero - noiseless):.1e}, "
                  f"monotone on sigma 0..0.3 (worst rise {worst_rise:.1e}), "
                  f"F(0.3)={vals[-1]:.3f}")


def test_criterion_10_normalization_suite():
    worst_norm = 0.0
    for alpha, n in ((1.0, 1), (1.0, 2), (20.0, 20), (20.0, 60), (30.0, 8)):
        worst_norm = max(worst_norm, abs(squared_norm(kerr_decompose(alpha, n)) - 1))
        for x in (0.0, 1.3, alpha):
            psi = condition_at(alpha, n, x)
            worst_norm = max(worst_norm, abs(squared_norm(psi) - 1))
    worst_norm = max(worst_norm, abs(squared_norm(condition_at(20.0, 20, 45.0)) - 1))
    worst_norm = max(worst_norm, abs(squared_norm(phase_noise_state(20.0, 20, 0.0, 0.07)) - 1))

    # densities integrate to one
    from scipy.integrate import quad
    worst_int = 0.0
    for alpha, n in ((5.0, 2), (20.0, 20), (20.0, 60)):
        ring = kerr_decompose(alpha, n)
        val, _ = quad(lambda x: x_outcome_density(ring, x),
                      -(alpha + 10), alpha + 10, limit=400)
        worst_int = max(worst_int, abs(val - 1))
    psi = condition_at(20.0, 20, 0.0)
    val, _ = quad(lambda x: x_marginal_density(psi, x), -25, 25, limit=400)
    worst_int = max(worst_int, abs(val - 1))

    ok = worst_norm <= 1e-10 and worst_int <= 1e-6
    assert report(10, ok,
                  f"max |norm-1| = {worst_norm:.1e} (tol 1e-10), "
                  f"max |integral-1| = {worst_int:.1e} (tol 1e-6)")


def test_criterion_11_small_instance_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (2.0, 4.0, 6.0):
        for n in (3, 4, 6, 8):
            for x in (0.0, 0.6):
                cutoff = int(alpha ** 2 + 10 * alpha + 50)
                bt = default_target_beta(kerr_decompose(alpha, n), 0.0)
                from kerrcat import partner_for
                pt = partner_for(bt)
                # coherent-representation pipeline
                f_coh = cat_fidelity(condition_at(alpha, n, x), bt).fidelity
                # independent number-basis pipeline + dense phi scan
                vec, _ = oracles.condition_fock(alpha, n, x, cutoff)
                f_fock = oracles.max_phi_fidelity_fock(vec, bt, pt)
                worst = max(worst, abs(f_coh - f_fock))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6
    assert report(11, ok,
                  f"max |F_coherent - F_fock| = {worst:.2e} over "
                  f"alpha<=6, N<=8 in {elapsed:.1f}s")


def test_criterion_12_symmetry_suite():
    worst_f = 0.0
    worst_d = 0.0
    xs = np.arange(1, 21) * 0.1
    for n in (2, 4, 8, 12, 16, 20):
        ring = kerr_decompose(20.0, n)
        right = fidelity_curve(20.0, n, xs)
        left = fidelity_curve(20.0, n, -xs)
        worst_f = max(worst_f, max(abs(a.fidelity - b.fidelity)
                                   for a, b in zip(right, left)))
        worst_d = max(worst_d, max(abs(x_outcome_density(ring, x)
                                       - x_outcome_density(ring, -x)) for x in xs))
    ok = worst_f <= 1e-8 and worst_d <= 1e-8
    assert report(12, ok,
                  f"max |F(X)-F(-X)| = {worst_f:.1e}, "
                  f"max |p(X)-p(-X)| = {worst_d:.1e} over even N <= 20, |X| <= 2")
