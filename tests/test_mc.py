import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import energy_rate_moments
from gmac_seit import channel, coder, mc, region

SYM10 = channel.from_snr(10, 10, 10, 10)


def make_sc(n=50, trials=20, r=0.3, beta=1.0, seed=0, target_b=0.0,
            epsilon=None, correlation_times=()):
    params = coder.SchemeParams(cfg=SYM10, n=n, r1=r, r2=r,
                                beta1=beta, beta2=beta, seed=seed)
    return mc.SimConfig(params=params, trials=trials, target_b=target_b,
                        epsilon=epsilon, correlation_times=correlation_times)


def test_run_is_reproducible():
    r1 = mc.run(make_sc(seed=5, correlation_times=(1, 25)))
    r2 = mc.run(make_sc(seed=5, correlation_times=(1, 25)))
    b1, b2 = io.StringIO(), io.StringIO()
    r1.to_json(b1)
    r2.to_json(b2)
    assert b1.getvalue() == b2.getvalue()
    r3 = mc.run(make_sc(seed=6, correlation_times=(1, 25)))
    assert r3.mean_b != r1.mean_b


def test_pure_energy_run():
    sc = make_sc(n=200, trials=50, r=0.0, beta=0.0)
    rep = mc.run(sc)
    assert rep.p_error_hat == 0.0
    want = channel.max_energy_rate(SYM10)  # 41
    assert abs(rep.mean_b - want) < 5 * rep.stderr_b
    # per-use power: W_t carries full power on the n payload uses only
    assert rep.consumed_power[0] < SYM10.p1 * 1.1


def test_outage_extremes():
    base = mc.run(make_sc(n=100, trials=60))
    lo = base.mean_b - 10 * base.stderr_b * math.sqrt(60)
    hi = base.mean_b + 10 * base.stderr_b * math.sqrt(60)
    assert mc.run(make_sc(n=100, trials=60, target_b=max(lo, 0.0),
                          epsilon=1e-9)).outage_hat == 0.0
    # target is clipped to the maximum energy rate, which a few lucky
    # trials can still brush against, so "almost all" is the right check
    assert mc.run(make_sc(n=100, trials=60, target_b=min(hi, 41.0),
                          epsilon=1e-9)).outage_hat >= 0.9


def test_default_epsilon_scales_with_mean_rate():
    # the mean energy rate is the box's b_max at (beta, beta, rho*)
    s21 = s22 = 10.0
    for beta in (0.0, 0.5, 1.0):
        sc = make_sc(beta=beta)
        rs = sc.params.rho_star()
        b_max = (1.0 + s21 + s22 + 2.0 * rs * beta * math.sqrt(s21 * s22)
                 + 2.0 * (1.0 - beta) * math.sqrt(s21 * s22))
        assert sc.effective_epsilon() == pytest.approx(0.01 * b_max)
    assert make_sc(beta=0.0).effective_epsilon() == pytest.approx(0.41)
    assert 100.0 * make_sc().effective_epsilon() == pytest.approx(35.23,
                                                                  abs=5e-3)
    assert make_sc(epsilon=0.5).effective_epsilon() == 0.5


def test_default_epsilon_refused_where_mean_rate_overflows():
    # rho* is 0 at SNR11 = 0 and b1*s21*b2*s22 overflows, so b_max is
    # 0 * sqrt(inf) = nan; an explicit epsilon still runs
    cfg = channel.from_snr(0.0, 1.0, 1e200, 1e200)
    params = coder.SchemeParams(cfg=cfg, n=5, r1=0.0, r2=0.1, beta1=1.0,
                                beta2=1.0, seed=0)
    sc = mc.SimConfig(params=params, trials=20, target_b=3.5e200)
    with pytest.raises(ValueError, match="mean energy rate is nan"):
        mc.run(sc)
    rep = mc.run(mc.SimConfig(params=params, trials=20, target_b=3.5e200,
                              epsilon=1e190))
    assert rep.outage_hat > 0.0


def test_error_rate_within_analytic_bound():
    sc = make_sc(n=60, trials=400, r=0.8, seed=3)
    rep = mc.run(sc)
    bound = sum(coder.error_bound(sc.params))
    se = math.sqrt(max(rep.p_error_hat, 1.0 / sc.trials) / sc.trials)
    assert rep.p_error_hat <= min(1.0, bound) + 3 * se


def test_correlation_trace_near_design_value():
    sc = make_sc(n=20, trials=3000, correlation_times=(1, 10, 20))
    rep = mc.run(sc)
    rs = sc.params.rho_star()
    for t, c in rep.correlation_trace.items():
        assert abs(c - rs) < 5 * (1 - rs * rs) / math.sqrt(sc.trials), (t, c)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        make_sc(trials=0)
    # every trial index must be one uint32 spawn-key word
    assert make_sc(trials=2**32).trials == 2**32
    with pytest.raises(ValueError):
        make_sc(trials=2**32 + 1)
    with pytest.raises(ValueError):
        make_sc(epsilon=-1.0)
    with pytest.raises(ValueError):
        make_sc(target_b=50.0)
    # an infeasible target is named first, even beside a bad trial count
    with pytest.raises(region.InfeasibleEnergyRateError):
        make_sc(trials=0, target_b=50.0)
    with pytest.raises(ValueError):
        make_sc(correlation_times=(0,))
    with pytest.raises(ValueError):
        make_sc(n=10, correlation_times=(11,))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            make_sc(target_b=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            make_sc(epsilon=bad)
        with pytest.raises(ValueError):
            make_sc(r=bad)


@pytest.mark.parametrize("corr", [0.0, -0.7, 0.7])
def test_energy_rate_moments_match_oracle(corr):
    # NIC carriers (beta < 1), asymmetric SNRs and correlated receiver and
    # harvester noises: every term of the oracle's autocovariance is live,
    # and corr = -/+0.7 moves the variance by +8/-4 %
    params = coder.SchemeParams(
        cfg=channel.from_snr(10, 5, 8, 12, noise_correlation=corr), n=50,
        r1=0.3, r2=0.3, beta1=0.6, beta2=0.8, seed=0)
    rep = mc.run(mc.SimConfig(params=params, trials=8000))
    mean, var = energy_rate_moments(params)
    k = rep.trials
    assert abs(rep.mean_b - mean) < 3.3 * rep.stderr_b
    # 99.9 % band of the sample variance; B^(n) is a quadratic form in 50
    # Gaussians, so its excess kurtosis (0.14-0.23 measured here) is given
    # an allowance of 0.5 on top of the Gaussian 2
    assert abs(k * rep.stderr_b ** 2 / var - 1.0) < 3.3 * math.sqrt(2.5 / k)


def report_json(sc):
    buf = io.StringIO()
    mc.run(sc).to_json(buf)
    return buf.getvalue()


def test_report_independent_of_chunking(monkeypatch):
    sc = make_sc(n=30, trials=9, r=1.0, target_b=35.0,
                 correlation_times=(1, 15, 30))
    trial_bytes = (8 * coder.PEAK_FLOATS_PER_USE * (sc.params.n + 3)
                   + coder.TRIAL_OBJECT_BYTES)
    want = report_json(sc)
    for budget, sizes in ((1, [1] * 9),  # one trial per chunk
                          (8 * trial_bytes, [4, 5]),  # trials = chunk + 1
                          (9 * trial_bytes, [9])):  # one chunk
        monkeypatch.setattr(mc, "_CHUNK_BYTES", budget)
        assert [hi - lo for lo, hi in mc._chunks(sc.trials, sc.params.n)] \
            == sizes
        assert report_json(sc) == want, budget


def test_chunks_hold_at_least_the_float_budget_trials():
    # a chunk of a 2^15-float budget held 32768 // (n + 3) trials; the byte
    # budget holds at least as many
    assert mc._chunks(318, 100) == [(0, 318)]
    assert mc._chunks(3, 10_000) == [(0, 3)]
    # the benchmark's mc workloads: 1000 trials at n = 100 in three chunks,
    # 10 at n = 2000 in one
    assert mc._chunks(1000, 100) == [(0, 333), (333, 666), (666, 1000)]
    assert mc._chunks(10, 2000) == [(0, 10)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**256 - 1),
       lo=st.sampled_from([0, 1, 2**32 - 1]))
# the entropy word-count boundaries: 1, 2, 4, 5 and 8 uint32 words
@example(seed=0, lo=0)
@example(seed=0, lo=2**32 - 1)
@example(seed=2**32 - 1, lo=0)
@example(seed=2**32 - 1, lo=2**32 - 1)
@example(seed=2**32, lo=0)
@example(seed=2**32, lo=2**32 - 1)
@example(seed=2**128 - 1, lo=0)
@example(seed=2**128 - 1, lo=2**32 - 1)
@example(seed=2**128, lo=0)
@example(seed=2**128, lo=2**32 - 1)
@example(seed=2**256 - 1, lo=0)
@example(seed=2**256 - 1, lo=2**32 - 1)
def test_spawn_states_match_seed_sequence(seed, lo):
    hi = min(lo + 3, 2**32)
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(t,))
            .generate_state(4, np.uint64) for t in range(lo, hi)]
    got = mc._spawn_states(seed, lo, hi)
    assert got.dtype == np.uint64
    assert got.tobytes() == np.array(want).tobytes()


def test_spawn_states_refuse_bad_trial_ranges():
    for lo, hi in ((5, 4), (2**32 - 1, 2**32 + 1)):
        with pytest.raises(ValueError, match="trial indices"):
            mc._spawn_states(0, lo, hi)


def test_big_seed_report_over_three_chunks(monkeypatch):
    # SHA-256 of SimReport.to_json recorded with one SeedSequence per trial;
    # the seed spans seven uint32 words and the trials three chunks
    params = coder.SchemeParams(cfg=SYM10, n=30, r1=1.35, r2=1.3, beta1=1.0,
                                beta2=0.9, seed=2**200 + 12345)
    sc = mc.SimConfig(params=params, trials=10, target_b=35.0,
                      correlation_times=(1, 30))
    monkeypatch.setattr(mc, "_CHUNK_BYTES",
                        4 * (8 * coder.PEAK_FLOATS_PER_USE * (params.n + 3)
                             + coder.TRIAL_OBJECT_BYTES))
    assert mc._chunks(sc.trials, params.n) == [(0, 3), (3, 6), (6, 10)]
    assert hashlib.sha256(report_json(sc).encode()).hexdigest() == \
        "2cf5c5acf3742fdfa226d6c83a683e5bf4bd5195ef8cd1e1cf36d3260757805d"


# SHA-256 of SimReport.to_json, recorded with the one-block-at-a-time
# simulator that preceded the batched engine
GOLDEN = {
    # decode path near the rate limit (8 of 25 trials err), correlation trace
    "decode": (make_sc(n=24, trials=25, r=1.3, seed=7,
                       correlation_times=(1, 12, 24)),
               "ed696fb4e94f610e691d8a0e845fb9b9a9762967e4a1c83b3316cc01130c2dbd"),
    # 112-bit messages: _decode_exact path, asymmetric SNRs
    "exact": (mc.SimConfig(
        params=coder.SchemeParams(cfg=channel.from_snr(10, 3, 2, 5), n=80,
                                  r1=1.4, r2=0.63, beta1=0.9, beta2=0.7,
                                  seed=3),
        trials=12, target_b=5.0),
        "38b47b86a3ce7384222f9db6334af6f388b107753e26ec3a71bbcf46c49da221"),
    # receiver and harvester noise correlated, with outages
    "noise_correlation": (mc.SimConfig(
        params=coder.SchemeParams(
            cfg=channel.from_snr(10, 10, 10, 10, noise_correlation=0.4),
            n=30, r1=0.3, r2=0.2, beta1=0.8, beta2=0.6, seed=11),
        trials=15, target_b=35.0, correlation_times=(2, 30)),
        "d7d0cb4ca8615c97b979b14807b4321a86b1eed045d0253ff38f2aed4ee103cb"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_golden_digest(name):
    sc, digest = GOLDEN[name]
    assert hashlib.sha256(report_json(sc).encode()).hexdigest() == digest
