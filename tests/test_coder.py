import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import naive_posterior
from gmac_seit import channel, coder, mc, region

SYM10 = channel.from_snr(10, 10, 10, 10)


def make_params(n=20, r1=0.3, r2=0.3, beta1=1.0, beta2=1.0, seed=0,
                cfg=SYM10):
    return coder.SchemeParams(cfg=cfg, n=n, r1=r1, r2=r2,
                              beta1=beta1, beta2=beta2, seed=seed)


def fresh_decoder(params, w_seq=None):
    if w_seq is None:
        w_seq = np.zeros(params.n)
    return coder.DecoderState(mean2=[0.0, 0.0], log2_sigma=[0.0, 0.0],
                              corr=params.rho_star(), w_seq=w_seq)


# --- message points -----------------------------------------------------------

def test_message_point_values():
    assert coder.message_point(1, 1.0, 4, 9.0) == pytest.approx(3.0)
    assert coder.message_point(3, 0.5, 4, 1.0) == pytest.approx(0.0)
    pts = [coder.message_point(m, 1.0, 2, 1.0) for m in (1, 2, 3, 4)]
    deltas = np.diff(pts)
    assert np.allclose(deltas, -0.5)
    assert all(-1.0 < p <= 1.0 for p in pts)


def test_message_point_out_of_range():
    with pytest.raises(ValueError):
        coder.message_point(5, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        coder.message_point(0, 1.0, 2, 1.0)


def test_message_count_huge():
    big = coder.message_count(2000, 1.15)
    assert abs(math.log2(big) - 2300.0) < 1e-6
    assert coder.message_count(10, 0.0) == 1


# --- init phase ---------------------------------------------------------------

def test_init_phase_zero_noise():
    params = make_params()
    xi1, xi2, uses = coder.init_phase(params, 1, 1, (0.0, 0.0, 0.0))
    assert xi1 == 0.0 and xi2 == 0.0
    assert uses[0].x1 == 0.0 and uses[1].x2 == 0.0 and uses[2].x1 == 0.0
    assert uses[1].x1 == pytest.approx(math.sqrt(SYM10.p1))  # m=1 anchor


def test_init_phase_rho_zero_weights():
    params = make_params(beta2=0.0, r2=0.0)
    assert params.rho_star() == 0.0
    xi1, xi2, _ = coder.init_phase(params, 1, 1, (1.5, -2.0, 7.0))
    assert xi1 == -2.0  # Z_{-1}
    assert xi2 == 1.5   # Z_{-2}


def test_init_phase_xi_correlation():
    params = make_params()
    rs = params.rho_star()
    rng = np.random.default_rng(42)
    draws = rng.standard_normal((200_000, 3))
    # vectorized equivalent of init_phase's Xi formula
    xi1 = math.sqrt(1 - rs) * draws[:, 1] + math.sqrt(rs) * draws[:, 2]
    xi2 = math.sqrt(1 - rs) * draws[:, 0] + math.sqrt(rs) * draws[:, 2]
    # spot-check the vectorization against the real function
    for d in draws[:10]:
        a, b, _ = coder.init_phase(params, 1, 1, tuple(d))
        assert a == pytest.approx(math.sqrt(1 - rs) * d[1]
                                  + math.sqrt(rs) * d[2])
        assert b == pytest.approx(math.sqrt(1 - rs) * d[0]
                                  + math.sqrt(rs) * d[2])
    emp = float(np.mean(xi1 * xi2))
    stderr = float(np.std(xi1 * xi2) / math.sqrt(len(draws)))
    assert abs(emp - rs) < 3 * stderr


# --- encoding -----------------------------------------------------------------

def test_encode_step_pure_energy_transmitter():
    params = make_params(beta1=0.0, beta2=0.0, r1=0.0, r2=0.0)
    w = np.full(params.n, 0.7)
    dec = fresh_decoder(params, w)
    enc = coder.EncoderState(theta=(0.0, 0.0), xi=(0.3, -0.4),
                             err_norm=[0.3, -0.4])
    x1, x2 = coder.encode_step(enc, dec, params, 1)
    assert x1 == pytest.approx(math.sqrt(SYM10.p1) * 0.7)
    assert x2 == pytest.approx(math.sqrt(SYM10.p2) * 0.7)


def test_encode_step_first_use_amplitude():
    cfg = channel.from_snr(4.0, 4.0, 0.0, 0.0)
    params = make_params(cfg=cfg)
    dec = fresh_decoder(params)
    enc = coder.EncoderState(theta=(0.0, 0.0), xi=(1.0, 0.0),
                             err_norm=[1.0, 0.0])
    x1, _ = coder.encode_step(enc, dec, params, 1)
    assert x1 == pytest.approx(2.0)  # sqrt(beta1 * p1) * Xi1 with beta1*p1 = 4


def test_gamma_scale_gives_unit_power():
    params = make_params()
    dec = fresh_decoder(params)
    for t in range(1, 15):
        for i in (1, 2):
            g = coder.gamma_scale(params, dec, i)
            cov_ii = 4.0 ** dec.log2_sigma[i - 1]
            assert g * g * cov_ii == pytest.approx(
                params.beta(i) * params.cfg.power(i), rel=1e-9)
        dec = coder.receiver_update(dec, params, 0.5 * t, t)


# --- receiver update ------------------------------------------------------------

def test_receiver_update_uninformative_when_silent():
    params = make_params(beta1=0.0, beta2=0.0, r1=0.0, r2=0.0)
    dec = fresh_decoder(params)
    out = coder.receiver_update(dec, params, 1.23, 1)
    assert out.mean2 == dec.mean2
    assert out.log2_sigma == dec.log2_sigma
    assert out.corr == dec.corr


def test_single_user_covariance_closed_form():
    params = make_params(beta2=0.0, r2=0.0)
    dec = fresh_decoder(params)
    n = 12
    for t in range(1, n + 1):
        dec = coder.receiver_update(dec, params, 0.1 * t, t)
    # scalar Kalman recursion: sigma^2_t = 1/(1 + snr11)^t
    want = -0.5 * n * math.log2(1.0 + SYM10.snr11)
    assert dec.log2_sigma[0] == pytest.approx(want, abs=1e-9)
    assert dec.log2_sigma[1] == 0.0


def test_posterior_matches_naive_recursion():
    params = make_params(cfg=channel.from_snr(10, 3, 1, 1),
                         beta1=0.9, beta2=0.7)
    rng = np.random.default_rng(5)
    yps = rng.standard_normal(8)
    dec = fresh_decoder(params, np.zeros(20))
    for t, yp in enumerate(yps, start=1):
        dec = coder.receiver_update(dec, params, float(yp), t)
    mean, cov = naive_posterior(params, yps)
    assert dec.mean2[0] == pytest.approx(mean[0], abs=1e-9)
    assert dec.mean2[1] == pytest.approx(mean[1], abs=1e-9)
    got = dec.cov2()
    assert np.allclose(got, cov, atol=1e-12)


def test_covariance_determinant_never_increases():
    params = make_params(n=40)
    dec = fresh_decoder(params)
    prev = float(np.linalg.det(dec.cov2()))
    rng = np.random.default_rng(1)
    for t in range(1, 30):
        dec = coder.receiver_update(dec, params, float(rng.normal()), t)
        cur = float(np.linalg.det(dec.cov2()))
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_mirror_is_bit_identical():
    params = make_params()
    rng = np.random.default_rng(9)
    w = rng.standard_normal(params.n)
    d1 = fresh_decoder(params, w)
    d2 = d1.copy()
    for t in range(1, params.n + 1):
        y = float(rng.normal())
        d1 = coder.receiver_update(d1, params, y, t)
        d2 = coder.receiver_update(d2, params, y, t)
        assert d1.mean2 == d2.mean2
        assert d1.log2_sigma == d2.log2_sigma
        assert d1.corr == d2.corr


def test_correlation_magnitude_is_stationary():
    params = make_params(n=40, cfg=channel.from_snr(8, 2, 1, 1),
                         beta1=0.6, beta2=0.9)
    rs = params.rho_star()
    dec = fresh_decoder(params)
    for t in range(1, 40):
        dec = coder.receiver_update(dec, params, 0.0, t)
        assert abs(dec.corr) == pytest.approx(rs, abs=1e-9)


# --- decoding -----------------------------------------------------------------

def test_decode_noiseless_run():
    params = make_params(n=8, r1=0.4, r2=0.3)
    m1, m2 = 2, 3
    xi1, xi2, uses = coder.init_phase(params, m1, m2, (0.0, 0.0, 0.0))
    dec = fresh_decoder(params)
    assert coder.decode(dec, params, uses) == (m1, m2)


def test_decode_with_perfect_estimate():
    params = make_params(n=8, r1=0.4, r2=0.3)
    m1, m2 = 3, 1
    rng = np.random.default_rng(11)
    noise = tuple(rng.standard_normal(3))
    xi1, xi2, uses = coder.init_phase(params, m1, m2, noise)
    dec = fresh_decoder(params)
    dec.mean2 = [xi1, xi2]
    assert coder.decode(dec, params, uses) == (m1, m2)


def test_decode_threshold_condition():
    params = make_params(n=8, r1=0.4, r2=0.3)
    m1, m2 = 2, 2
    rng = np.random.default_rng(13)
    noise = tuple(rng.standard_normal(3))
    xi1, xi2, uses = coder.init_phase(params, m1, m2, noise)
    rs = params.rho_star()
    for i in (1, 2):
        h = SYM10.h11 if i == 1 else SYM10.h12
        delta = 2 * math.sqrt(SYM10.power(i)) / params.messages(i)
        # estimate off by just under the decision threshold
        err = 0.49 * h * math.sqrt(1 - rs) * delta
        dec = fresh_decoder(params)
        dec.mean2 = [xi1, xi2]
        dec.mean2[i - 1] -= err
        assert coder.decode(dec, params, uses) == (m1, m2)


def nearest_index(theta_hat, sp, big):
    """Index m in 1..big whose PAM point sp (1 - 2 (m-1)/big) lies nearest
    to theta_hat, ties to the smaller m; exact rational arithmetic."""
    x = (sp - theta_hat) * big / (2 * sp)  # grid coordinate m - 1
    lo = min(max(math.floor(x), 0), big - 1)
    return 1 + min((c for c in (lo, lo + 1) if c < big),
                   key=lambda c: (abs(x - c), c))


def test_decode_batch_nearest_index_rule():
    # user 1: 2^39 points with h11 = 1/2, sqrt(p1) = 2, so every grid
    # coordinate below is exact in float64, midpoints included; user 2
    # sends nothing (h12 = 0, one message)
    cfg_a = channel.ChannelConfig(h11=0.5, h12=0.0, h21=0.5, h22=1.0,
                                  p1=4.0, p2=1.0)
    pa = make_params(n=39, r1=1.0, r2=0.0, cfg=cfg_a)
    big = pa.messages(1)
    assert big == 2**39 and pa.messages(2) == 1
    xs = [j + 0.5 for j in (0, 1, 2, 12345, 2**38, big - 2)]  # midpoints
    xs += [-0.5, big - 0.5, -5.25, -1e6, big + 7.25, 1e15]  # clipping
    xs += [0.0, 3.0, 3.25, 3.75, 2**38 + 0.25, big - 1.0]
    y_a = np.zeros((len(xs), 3))
    y_a[:, 1] = [(2.0 - x * 2.0**-37) / 2.0 for x in xs]  # y = h theta
    y_a[:, 0] = np.linspace(-1e9, 1e9, len(xs))  # user 2's observation
    y_a[0, 0] = 0.0  # 0/h would be nan
    # both users just under 2^40 points, gains that round; grid
    # coordinates stay >= 0.3 from a midpoint, beyond float error
    cfg_b = channel.ChannelConfig(h11=0.8, h12=0.6, h21=0.6, h22=0.8,
                                  p1=3.0, p2=7.0)
    pb = make_params(n=40, r1=1.0 - 3e-11, r2=0.99, cfg=cfg_b)
    assert all(2**39 < pb.messages(i) < 2**40 for i in (1, 2))
    rng = np.random.default_rng(5)
    cases = [(pa, y_a)]
    y_b = np.zeros((40, 3))
    for col, i in ((1, 1), (0, 2)):
        big_i = pb.messages(i)
        sp, h = math.sqrt(cfg_b.power(i)), (cfg_b.h11, cfg_b.h12)[i - 1]
        x = (rng.integers(0, big_i, 40)
             + rng.choice([0.0, 0.2, 0.8], 40)).astype(float)
        x[:4] = (-3.7, -2e9, big_i + 2.2, 1e14)
        y_b[:, col] = h * (sp - x * (2.0 * sp / big_i))
    cases.append((pb, y_b))
    for params, y_init in cases:
        with np.errstate(all="raise"):
            m_hat = coder.decode_batch(params, np.zeros((2, len(y_init))),
                                       y_init)
        for i, col in ((1, 1), (2, 0)):
            big_i = params.messages(i)
            if big_i == 1:
                assert m_hat[i - 1].tolist() == [1] * len(y_init)
                continue
            h = Fraction((params.cfg.h11, params.cfg.h12)[i - 1])
            sp = Fraction(math.sqrt(params.cfg.power(i)))
            want = [nearest_index(Fraction(y) / h, sp, big_i)
                    for y in y_init[:, col].tolist()]
            assert m_hat[i - 1].tolist() == want
    # decode is the batch of one
    dec = fresh_decoder(pa)
    for row in y_a[:3]:
        uses = [channel.ChannelUse(0.0, 0.0, y, 0.0, 0.0, 0.0) for y in row]
        assert coder.decode(dec, pa, uses) == (
            nearest_index(Fraction(row[1]) / Fraction(0.5), Fraction(2), big),
            1)


def test_decode_exact_matches_decoder_path():
    # replay a block by hand so both decode rules see identical final states
    params = make_params(n=12, r1=0.6, r2=0.5, seed=17)
    cfg = params.cfg
    for trial in range(30):
        rng = np.random.default_rng(trial)
        z = rng.standard_normal(params.n + 3)
        w = rng.standard_normal(params.n)
        m1 = 1 + trial % params.messages(1)
        m2 = 1 + (3 * trial) % params.messages(2)
        xi1, xi2, uses = coder.init_phase(params, m1, m2, z[:3])
        enc = coder.EncoderState(theta=(uses[1].x1, uses[0].x2),
                                 xi=(xi1, xi2), err_norm=[xi1, xi2])
        dec = fresh_decoder(params, w)
        for t in range(1, params.n + 1):
            x1, x2 = coder.encode_step(enc, dec, params, t)
            use = channel.step(cfg, x1, x2, z[t + 2], 0.0)
            a1, a2, v, d1, d2 = coder._update_coeffs(dec, params)
            enc.err_norm[0] = (enc.err_norm[0] - a1 * use.y1 / v) / d1
            enc.err_norm[1] = (enc.err_norm[1] - a2 * use.y1 / v) / d2
            dec = coder.receiver_update(dec, params, use.y1, t)
        assert coder._decode_exact(enc, dec, params, (m1, m2)) == \
            coder.decode(dec, params, uses)


def replay_block(params, m1, m2, rng):
    """One block replayed use by use through the step-level API.

    Returns the trace fields in TransmissionTrace order, plus the final
    receiver state.
    """
    cfg = params.cfg
    n = params.n
    z = rng.standard_normal(n + 3)
    q_ind = rng.standard_normal(n + 3)
    c = cfg.noise_correlation
    q = c * z + math.sqrt(1.0 - c * c) * q_ind
    w = rng.standard_normal(n)
    xi1, xi2, uses = coder.init_phase(params, m1, m2, z[:3], q[:3])
    th1, th2 = uses[1].x1, uses[0].x2
    enc = coder.EncoderState(theta=(th1, th2), xi=(xi1, xi2),
                             err_norm=[xi1, xi2])
    dec = fresh_decoder(params, w)
    nic1 = math.sqrt((1.0 - params.beta1) * cfg.p1)
    nic2 = math.sqrt((1.0 - params.beta2) * cfg.p2)
    rows = []
    for t in range(1, n + 1):
        x1, x2 = coder.encode_step(enc, dec, params, t)
        use = channel.step(cfg, x1, x2, z[t + 2], q[t + 2])
        yp = use.y1 - coder._nic_gain(params) * w[t - 1]
        a1, a2, v, d1, d2 = coder._update_coeffs(dec, params)
        enc.err_norm[0] = (enc.err_norm[0] - a1 * yp / v) / d1
        enc.err_norm[1] = (enc.err_norm[1] - a2 * yp / v) / d2
        dec = coder.receiver_update(dec, params, use.y1, t)
        rows.append((x1, x2, use.y1, use.y2,
                     x1 - nic1 * w[t - 1], x2 - nic2 * w[t - 1]))
    if max(params.messages(1), params.messages(2)) <= 2**40:
        m_hat = coder.decode(dec, params, uses)
    else:
        m_hat = coder._decode_exact(enc, dec, params, (m1, m2))
    x1a, x2a, y1a, y2a, u1a, u2a = (np.array(col) for col in zip(*rows))
    fields = (x1a, x2a, y1a, y2a, u1a, u2a, uses, (m1, m2), m_hat,
              m_hat != (m1, m2), float(np.mean(y2a**2)),
              th1 * th1 + float(np.sum(x1a**2)),
              th2 * th2 + float(np.sum(x2a**2)))
    return fields, dec


def trace_fields(tr):
    return (tr.x1, tr.x2, tr.y1, tr.y2, tr.u1, tr.u2, tr.init_uses,
            tr.m_true, tr.m_hat, tr.error, tr.b_hat, tr.energy1, tr.energy2)


def as_bits(field):
    """A trace field in a form whose == compares floats bit for bit."""
    if isinstance(field, list):  # the three init ChannelUses
        return [np.array([u.x1, u.x2, u.y1, u.y2, u.z, u.q]).tobytes()
                for u in field]
    if isinstance(field, (tuple, bool)):
        return field
    return np.asarray(field, dtype=float).tobytes()


EQUIVALENCE_CASES = {
    # decode path near the rate limit, so some trials decode wrongly
    "decode": make_params(n=24, r1=1.3, r2=1.3, seed=7),
    # > 2^40 messages: the log-domain _decode_exact path; asymmetric SNRs
    # and correlated receiver/harvester noise
    "exact": make_params(n=60, r1=0.8, r2=0.45, beta1=0.9, beta2=0.7,
                         seed=2, cfg=channel.from_snr(
                             10, 3, 2, 5, noise_correlation=0.4)),
    # transmitter 1 sends pure energy (beta1 = 0, rho* = 0)
    "beta0": make_params(n=30, r1=0.0, r2=0.4, beta1=0.0, beta2=0.9,
                         seed=4, cfg=channel.from_snr(
                             8, 2, 1, 1, noise_correlation=-0.6)),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_batched_engine_matches_step_replay(name):
    params = EQUIVALENCE_CASES[name]
    trials = 8
    replays = []
    for k in range(trials):
        rng, (m1, m2) = mc._trial_inputs(params, k)
        replays.append(replay_block(params, m1, m2, rng))
    sched = coder.coeff_schedule(params)
    _, dec = replays[0]
    assert sched.log2_sigma == tuple(dec.log2_sigma)
    assert sched.corr == dec.corr
    # batch of one, through simulate_block
    for k in (0, trials - 1):
        rng, (m1, m2) = mc._trial_inputs(params, k)
        got = trace_fields(coder.simulate_block(params, m1, m2, rng))
        for i, (g, want) in enumerate(zip(got, replays[k][0])):
            assert as_bits(g) == as_bits(want), (k, i)
    # the whole set as one batch of eight
    rngs, messages = zip(*(mc._trial_inputs(params, k) for k in range(trials)))
    batch = coder.simulate_batch(params, sched, messages, rngs)
    for k in range(trials):
        got = trace_fields(batch.trace(k))
        for i, (g, want) in enumerate(zip(got, replays[k][0])):
            assert as_bits(g) == as_bits(want), (k, i)
    if name == "decode":
        assert any(batch.m_hat[k] != batch.m_true[k] for k in range(trials))


def test_error_bound_properties():
    rs = region.solve_rho_star(SYM10, 1.0, 1.0)
    lim = 0.5 * math.log2(1 + 10 * (1 - rs * rs))
    p_lo = make_params(n=1000, r1=0.5 * lim, r2=0.5 * lim)
    b1, b2 = coder.error_bound(p_lo)
    assert b1 < 1e-6 and b2 < 1e-6
    bounds = [coder.error_bound(make_params(n=50, r1=r, r2=r))[0]
              for r in (0.2, 0.5, 0.8, 1.1)]
    assert all(x <= y + 1e-18 for x, y in zip(bounds, bounds[1:]))
    p0 = make_params(n=50, r1=0.0, r2=0.0)
    assert coder.error_bound(p0)[0] <= 1.0
    trace = mc.run_trial(p0, 0)
    assert not trace.error


def test_expected_energy_rate_values():
    params = make_params(beta1=0.0, beta2=0.0, r1=0.0, r2=0.0)
    assert coder.expected_energy_rate(params, 0.0) == \
        pytest.approx(channel.max_energy_rate(SYM10))
    params = make_params(beta1=0.4, beta2=0.8)
    op = region.OperatingPoint(0.4, 0.8, 0.3)
    assert coder.expected_energy_rate(params, 0.3) == \
        pytest.approx(region.region_box_fb(SYM10, op).b_max)
    params = make_params()
    rs = params.rho_star()
    assert coder.expected_energy_rate(params, rs) == pytest.approx(35.23,
                                                                   abs=5e-3)


# --- whole blocks ---------------------------------------------------------------

def test_block_power_accounting():
    params = make_params(n=400, r1=0.5, r2=0.5, beta1=0.7, beta2=0.7)
    traces = [mc.run_trial(params, k) for k in range(40)]
    for tr in traces:
        # init phase spends at most P_i per active use
        assert tr.init_uses[1].x1 ** 2 <= SYM10.p1 + 1e-12
        assert tr.init_uses[0].x2 ** 2 <= SYM10.p2 + 1e-12
    # mean consumed energy per transmitter stays near the (n+1) P_i design
    mean_e1 = np.mean([tr.energy1 for tr in traces])
    n = params.n
    assert mean_e1 <= (n + 1) * SYM10.p1 * 1.02
    assert mean_e1 >= 0.6 * n * SYM10.p1


def test_block_u_variance_and_correlation():
    params = make_params(n=3, r1=0.2, r2=0.2)
    rs = params.rho_star()
    u1 = []
    u2 = []
    for k in range(4000):
        trace = mc.run_trial(params, k)
        u1.append(trace.u1[2])
        u2.append(trace.u2[2])
    u1, u2 = np.array(u1), np.array(u2)
    # transmitted IC power is beta_i P_i at every t
    assert np.mean(u1**2) == pytest.approx(SYM10.p1, rel=0.1)
    corr = np.mean((u1 - u1.mean()) * (u2 - u2.mean())) / (u1.std() * u2.std())
    se = (1 - rs * rs) / math.sqrt(len(u1))
    assert abs(corr - rs) < 4 * se


def test_trace_csv(tmp_path):
    params = make_params(n=5)
    trace = mc.run_trial(params, 0)
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        coder.trace_to_csv(trace, fh)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,y1,y2,u1,u2"
    assert len(lines) == 6
