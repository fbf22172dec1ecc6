import hashlib
import io
import math

import numpy as np
import pytest

from gmac_seit import channel, coder, mc

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


def test_empirical_energy_rate_hand_value():
    trace = coder.TransmissionTrace(
        x1=np.zeros(3), x2=np.zeros(3), y1=np.zeros(3),
        y2=np.array([1.0, -1.0, 2.0]), u1=np.zeros(3), u2=np.zeros(3),
        init_uses=[], m_true=(1, 1), m_hat=(1, 1), error=False,
        b_hat=2.0, energy1=0.0, energy2=0.0)
    assert mc.empirical_energy_rate(trace) == pytest.approx(2.0)


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


def test_outage_estimate_zero_target():
    rows = mc.outage_estimate(make_sc(n=10, trials=5), [10, 20, 40])
    assert [n for n, _ in rows] == [10, 20, 40]
    assert all(out == 0.0 for _, out in rows)


def test_default_epsilon_scales_with_mean_rate():
    sc = make_sc()
    rs = sc.params.rho_star()
    want = 0.01 * coder.expected_energy_rate(sc.params, rs)
    assert sc.effective_epsilon() == pytest.approx(want)
    assert make_sc(epsilon=0.5).effective_epsilon() == 0.5


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
    with pytest.raises(ValueError):
        make_sc(epsilon=-1.0)
    with pytest.raises(ValueError):
        make_sc(target_b=50.0)
    with pytest.raises(ValueError):
        make_sc(correlation_times=(0,))
    with pytest.raises(ValueError):
        make_sc(n=10, correlation_times=(11,))


def test_outage_table_csv():
    buf = io.StringIO()
    mc.outage_table_to_csv([(10, 0.5), (20, 0.25)], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,outage_hat"
    assert lines[1] == "10,0.5"


def report_json(sc):
    buf = io.StringIO()
    mc.run(sc).to_json(buf)
    return buf.getvalue()


def test_report_independent_of_chunking(monkeypatch):
    sc = make_sc(n=30, trials=9, r=1.0, target_b=35.0,
                 correlation_times=(1, 15, 30))
    uses = sc.params.n + 3
    want = report_json(sc)
    for budget, sizes in ((1, [1] * 9),  # one trial per chunk
                          (8 * uses, [4, 5]),  # trials = chunk + 1
                          (9 * uses, [9])):  # one chunk
        monkeypatch.setattr(mc, "_CHUNK_FLOATS", budget)
        assert [hi - lo for lo, hi in mc._chunks(sc.trials, sc.params.n)] \
            == sizes
        assert report_json(sc) == want, budget


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
