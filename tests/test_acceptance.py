"""Acceptance gate: one test per release criterion.

Each test prints a single "ACCEPTANCE k: PASS/FAIL" line with the measured
numbers before asserting, so the gate's verdict survives in the log even
when a criterion fails.
"""
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from _oracles import (brute_force_sum_capacity, energy_rate_moments,
                      scan_rho_star)
from gmac_seit import channel, cli, coder, mc, region

SYM10 = channel.from_snr(10, 10, 10, 10)
RHO_STAR = region.solve_rho_star(SYM10, 1.0, 1.0)
B_BAR = 1.0 + 10.0 + 10.0 + 2.0 * RHO_STAR * 10.0  # mean energy rate at rho*
RATE_LIMIT = 0.5 * math.log2(1.0 + 10.0 * (1.0 - RHO_STAR * RHO_STAR))
Z_999 = NormalDist().inv_cdf(0.9995)  # two-sided 99.9 %


def chi2_band_999(dof: int) -> tuple[float, float]:
    """Two-sided 99.9 % quantiles of chi-square(dof) (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * dof)
    return tuple(dof * (1.0 - h + z * math.sqrt(h)) ** 3
                 for z in (-Z_999, Z_999))


def wilson_interval_999(hits: int, trials: int) -> tuple[float, float]:
    """Two-sided 99.9 % Wilson score interval of a binomial proportion."""
    p = hits / trials
    z2 = Z_999 * Z_999
    mid = (p + z2 / (2 * trials)) / (1.0 + z2 / trials)
    half = (Z_999 / (1.0 + z2 / trials)
            * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)))
    return mid - half, mid + half


def verdict(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_acceptance_01_rho_star_solver():
    t0 = time.perf_counter()
    for _ in range(100):
        rs = region.solve_rho_star(SYM10, 1.0, 1.0)
    per_call = (time.perf_counter() - t0) / 100
    resid = abs(region.phi(SYM10, 1.0, 1.0, rs))
    scan = scan_rho_star(SYM10, 1.0, 1.0)
    ok = resid < 1e-9 and abs(rs - scan) < 1e-5 and per_call < 1e-3
    verdict(1, ok, f"rho*={rs:.12f} |phi|={resid:.2e} "
                   f"scan_gap={abs(rs - scan):.2e} {per_call * 1e6:.0f}us/call")


def test_acceptance_02_sum_capacity_vs_brute_force():
    t0 = time.perf_counter()
    bs = np.linspace(0.0, 41.0, 30)
    brute = brute_force_sum_capacity(SYM10, bs, grid_n=201, feedback=True)
    brute_nf = brute_force_sum_capacity(SYM10, bs, grid_n=201, feedback=False)
    gap = 0.0
    for b, bf, bn in zip(bs, brute, brute_nf):
        gap = max(gap, abs(region.sum_capacity_fb(SYM10, b) - bf),
                  abs(region.sum_capacity_nf(SYM10, b) - bn))
    elapsed = time.perf_counter() - t0
    ok = gap < 5e-3 and elapsed < 60.0
    verdict(2, ok, f"max |closed-form - grid| = {gap:.2e} bits, {elapsed:.1f}s")


def test_acceptance_03_crossover_energy_rate():
    gamma, b_fb = region.b_fb_at_nf_sum_capacity(SYM10)
    want = 0.1 * (math.sqrt(21.0) - 1.0)
    # gamma is pinned by: the correlation xi(b_fb) needed for b_fb leaves
    # exactly the no-feedback sum capacity in individual rates
    om = 1.0 - region.xi(SYM10, b_fb) ** 2
    lhs = 0.5 * math.log2(21.0)
    rhs = (0.5 * math.log2(1.0 + om * 10.0)
           + 0.5 * math.log2(1.0 + om * 10.0))
    ratio = region.feedback_gain_ratio(SYM10)
    ok = (abs(gamma - want) < 1e-12 and abs(lhs - rhs) < 1e-9
          and 1.0 <= ratio <= 2.0)
    verdict(3, ok, f"gamma={gamma:.15f} (closed-form gap "
                   f"{abs(gamma - want):.1e}) rate-eq residual "
                   f"{abs(lhs - rhs):.1e} ratio={ratio:.4f}")


def test_acceptance_04_gain_ratio_limits():
    lo = region.feedback_gain_ratio(channel.from_snr(*(1e-6,) * 4))
    hi = region.feedback_gain_ratio(channel.from_snr(*(1e8,) * 4))
    asym = region.feedback_gain_ratio(channel.from_snr(4e8, 1e8, 4e8, 1e8))
    ok = abs(lo - 1.0) < 1e-3 and abs(hi - 2.0) < 1e-2 and abs(asym - 1.8) < 1e-2
    verdict(4, ok, f"ratio(1e-6)={lo:.6f} ratio(1e8)={hi:.6f} "
                   f"ratio(eta=4)={asym:.6f}")


def test_acceptance_05_sum_capacity_continuity():
    gaps = []
    edge_fb = 21.0 + 20.0 * RHO_STAR
    for f, edges in ((region.sum_capacity_fb, (edge_fb, 41.0)),
                     (region.sum_capacity_nf,
                      (1.0 + 20.0 + 2.0 * math.sqrt(100.0), 41.0))):
        for e in edges:
            gaps.append(abs(f(SYM10, e - 1e-12) - f(SYM10, min(e + 1e-12,
                                                               41.0))))
    worst = max(gaps)
    ok = worst < 1e-6
    verdict(5, ok, f"worst jump across case boundaries = {worst:.2e} bits")


def test_acceptance_06_region_inclusion():
    samples = [rec.triplet for rec in region.sample_boundary_records(
        SYM10, feedback=False, resolution=32)[:1000]]
    bad = [s for s in samples
           if not region.contains(SYM10, s, feedback=True, grid_n=64)]
    ok = len(samples) >= 1000 and not bad
    verdict(6, ok, f"{len(samples) - len(bad)}/{len(samples)} no-feedback "
                   "boundary samples inside the feedback region")


def test_acceptance_07_time_sharing_strictly_worse():
    ts = region.time_sharing_sum_rate(SYM10, 31.0)
    cap = region.sum_capacity_nf(SYM10, 31.0)
    margin = cap - ts
    ok = margin > 0.01
    verdict(7, ok, f"power-splitting beats time-sharing at b=31 by "
                   f"{margin:.4f} bits ({ts:.4f} vs {cap:.4f})")


def _criterion_8_9_run():
    params = coder.SchemeParams(cfg=SYM10, n=2000, r1=0.9 * RATE_LIMIT,
                                r2=0.9 * RATE_LIMIT, beta1=1.0, beta2=1.0,
                                seed=7)
    sc = mc.SimConfig(params=params, trials=200)
    return params, mc.run(sc)


def test_acceptance_08_coder_error_probability():
    t0 = time.perf_counter()
    params, rep = _criterion_8_9_run()
    elapsed = time.perf_counter() - t0
    bound = sum(coder.error_bound(params))
    se = math.sqrt(max(rep.p_error_hat, 1.0 / rep.trials) / rep.trials)
    ok = (rep.p_error_hat <= 0.05
          and rep.p_error_hat <= bound + 3 * se
          and elapsed < 120.0)
    verdict(8, ok, f"p_error_hat={rep.p_error_hat:.4f} analytic "
                   f"bound={bound:.2e} ({elapsed:.1f}s, n=2000, 200 trials)")


def test_acceptance_09_energy_concentration():
    params_2k, rep = _criterion_8_9_run()
    mean_ok = abs(rep.mean_b - B_BAR) <= 4 * rep.stderr_b
    params = coder.SchemeParams(cfg=SYM10, n=10_000, r1=0.9 * RATE_LIMIT,
                                r2=0.9 * RATE_LIMIT, beta1=1.0, beta2=1.0,
                                seed=7)
    sc = mc.SimConfig(params=params, trials=200, target_b=B_BAR - 0.5,
                      epsilon=0.1)
    rep_10k = mc.run(sc)
    # B^(n) is a Gaussian quadratic form whose variance the oracle gives
    # exactly.  It is not (B_BAR*sqrt(2/n))^2: each normalized refinement
    # error is correlated with the next one (coefficient d_i = 0.41), which
    # raises the variance by 5.5 %, to a std of 0.512 at n = 1e4.  The
    # scheme concentrates if the measured variance follows this 1/n law at
    # both blocklengths; the outage then follows from it (a threshold 0.6
    # below the mean leaves ~12 % at n = 1e4, not the 2 % it reaches only
    # near n = 3e4).
    lo, hi = chi2_band_999(sc.trials - 1)
    moments = [energy_rate_moments(p) for p in (params_2k, params)]
    var_ratios = [r.trials * r.stderr_b ** 2 / var
                  for r, (_, var) in zip((rep, rep_10k), moments)]
    var_ok = all(lo <= (sc.trials - 1) * q <= hi for q in var_ratios)
    mu, var = moments[1]
    gap = mu - (sc.target_b - sc.effective_epsilon())
    predicted = NormalDist().cdf(-gap / math.sqrt(var))
    n_2pct = params.n * var * (NormalDist().inv_cdf(0.98) / gap) ** 2
    w_lo, w_hi = wilson_interval_999(round(rep_10k.outage_hat * sc.trials),
                                     sc.trials)
    out_ok = w_lo <= predicted <= w_hi
    ok = mean_ok and var_ok and out_ok
    verdict(9, ok, f"mean_b={rep.mean_b:.4f} (target {B_BAR:.4f} "
                   f"+- {4 * rep.stderr_b:.4f}) var/predicted at n=2000, "
                   f"10000: {var_ratios[0]:.3f}, {var_ratios[1]:.3f} "
                   f"(99.9% band [{lo / (sc.trials - 1):.3f}, "
                   f"{hi / (sc.trials - 1):.3f}]) "
                   f"outage_hat={rep_10k.outage_hat:.4f} "
                   f"(99.9% [{w_lo:.4f}, {w_hi:.4f}]) predicted "
                   f"{predicted:.4f}, below 0.02 from n={n_2pct:,.0f}")


def test_acceptance_10_steady_state_correlation():
    params = coder.SchemeParams(cfg=SYM10, n=100, r1=0.3, r2=0.3,
                                beta1=1.0, beta2=1.0, seed=1)
    sc = mc.SimConfig(params=params, trials=10_000,
                      correlation_times=(1, 10, 100))
    rep = mc.run(sc)
    se = (1.0 - RHO_STAR * RHO_STAR) / math.sqrt(sc.trials)
    devs = {t: abs(c - RHO_STAR) for t, c in rep.correlation_trace.items()}
    ok = all(d < 3 * se for d in devs.values())
    verdict(10, ok, "corr(U1,U2) dev from rho* at t=1/10/100: "
            + " ".join(f"{devs[t]:.4f}" for t in (1, 10, 100))
            + f" (3se={3 * se:.4f})")


def test_acceptance_11_mmse_rate_accounting():
    n = 200
    params = coder.SchemeParams(cfg=SYM10, n=n, r1=0.3, r2=0.3,
                                beta1=1.0, beta2=1.0, seed=0)
    sched = coder.coeff_schedule(params)
    rates = [-(1.0 / n) * sched.log2_sigma[i] for i in (0, 1)]
    gap = max(abs(r - RATE_LIMIT) for r in rates)
    ok = gap < 1e-3
    verdict(11, ok, f"-(1/n) log2 sigma_n = {rates[0]:.9f}, limit "
                    f"{RATE_LIMIT:.9f}, gap {gap:.1e}")


def test_acceptance_12_curve_shapes(tmp_path):
    out = tmp_path / "sumcap.csv"
    assert cli.main(["sumcap", "--snr", "10,10,10,10", "--points", "83",
                     "--out", str(out)]) == 0
    with open(out) as fh:
        fh.readline()
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    b, fb, nf = rows[:, 0], rows[:, 1], rows[:, 2]
    edge_fb = 21.0 + 20.0 * RHO_STAR
    flat_fb = np.all(np.abs(fb[b <= edge_fb] - fb[0]) < 1e-9)
    flat_nf = np.all(np.abs(nf[b <= 21.0] - nf[0]) < 1e-9)
    zero_end = abs(fb[-1]) < 1e-9 and abs(nf[-1]) < 1e-9

    out2 = tmp_path / "ratio.csv"
    assert cli.main(["ratio", "--points", "41", "--out", str(out2)]) == 0
    with open(out2) as fh:
        fh.readline()
        rr = np.array([[float(v) for v in line.split(",")] for line in fh])
    mono = np.all(np.diff(rr[:, 1]) > -1e-12)
    toward_2 = abs(rr[-1, 1] - 2.0) < 1e-2
    ok = flat_fb and flat_nf and zero_end and mono and toward_2
    verdict(12, ok, f"FB flat on [0,{edge_fb:.3f}]: {flat_fb}; NF flat on "
                    f"[0,21]: {flat_nf}; zero at 41: {zero_end}; ratio "
                    f"monotone to {rr[-1, 1]:.4f}: {mono and toward_2}")
