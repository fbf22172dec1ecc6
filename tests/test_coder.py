import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import FixedDraws, naive_posterior, replay_block, schedule_loop
from gmac_seit import channel, coder, mc, region

SYM10 = channel.from_snr(10, 10, 10, 10)


def make_params(n=20, r1=0.3, r2=0.3, beta1=1.0, beta2=1.0, seed=0,
                cfg=SYM10):
    return coder.SchemeParams(cfg=cfg, n=n, r1=r1, r2=r2,
                              beta1=beta1, beta2=beta2, seed=seed)


def init_noise_draws(params, z_init, w=0.0):
    """Draws for a block whose only receiver noise is z_init on the three
    init uses, with no harvester noise and carrier symbols w."""
    n = params.n
    return FixedDraws(np.concatenate([z_init, np.zeros(n)]),
                      np.zeros(n + 3), np.full(n, w))


def block_of_one(params, m1, m2, rng):
    """A batch of one block, (m1, m2) sent on the draws of rng."""
    return coder.simulate_batch(params, coder.coeff_schedule(params),
                                [(m1, m2)], [rng])


def block_on_draws(params, z_init, w=0.0, m1=1, m2=1):
    """block_of_one on init_noise_draws(params, z_init, w)."""
    return block_of_one(params, m1, m2, init_noise_draws(params, z_init, w))


def receiver_states(params, steps):
    """(log2_sigma, corr) of the receiver after 0, 1, ..., steps updates,
    each read off coeff_schedule of a block that long."""
    states = [((0.0, 0.0), params.rho_star())]
    for k in range(1, steps + 1):
        sched = coder.coeff_schedule(dataclasses.replace(params, n=k))
        states.append((sched.log2_sigma, sched.corr))
    return states


def cov2(log2_sigma, corr):
    """Posterior covariance matrix of (Xi_1, Xi_2) (underflows for large t)."""
    s1 = 2.0 ** log2_sigma[0]
    s2 = 2.0 ** log2_sigma[1]
    off = corr * s1 * s2
    return np.array([[s1 * s1, off], [off, s2 * s2]])


def decode(params, err, log2_sigma, m):
    """_decode for one block: final normalized errors err, sent pair m."""
    return coder._decode(params, np.array(err, dtype=float), log2_sigma,
                         [m])[0]


# --- message points -----------------------------------------------------------

def test_message_point_values():
    assert coder.message_points([1], 1.0, 4, 9.0)[0] == pytest.approx(3.0)
    assert coder.message_points([3], 0.5, 4, 1.0)[0] == pytest.approx(0.0)
    pts = coder.message_points([1, 2, 3, 4], 1.0, 2, 1.0)
    deltas = np.diff(pts)
    assert np.allclose(deltas, -0.5)
    assert all(-1.0 < p <= 1.0 for p in pts)


def test_message_point_out_of_range():
    with pytest.raises(ValueError):
        coder.message_points([5], 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        coder.message_points([0], 1.0, 2, 1.0)


def test_message_count_huge():
    big = coder.message_count(2000, 1.15)
    assert abs(math.log2(big) - 2300.0) < 1e-6
    assert coder.message_count(10, 0.0) == 1


# --- init phase ---------------------------------------------------------------
# Xi_i is visible as the first payload IC input u_i,1 = sqrt(beta_i P_i) Xi_i
# (transmitter 2's sign is + at t = 1 since rho* >= 0)

def test_init_phase_zero_noise():
    params = make_params()
    batch = block_on_draws(params, (0.0, 0.0, 0.0))
    assert batch.u(1).tolist() == [[0.0], [0.0]]  # Xi = 0
    # no noise and no carrier: every payload input and the harvester output
    # are 0, so each transmitter spends only Theta_i^2, on its one active
    # init use
    assert not batch.x.any() and batch.b_hat == [0.0]
    th1 = coder.message_points([1], params.r1, params.n, SYM10.p1)[0]
    th2 = coder.message_points([1], params.r2, params.n, SYM10.p2)[0]
    assert th1 == pytest.approx(math.sqrt(SYM10.p1))  # m=1 anchor
    assert (batch.energy1, batch.energy2) == ([th1 * th1], [th2 * th2])


def test_init_phase_rho_zero_weights():
    params = make_params(beta2=0.0, r2=0.0)
    assert params.rho_star() == 0.0
    u1, _ = block_on_draws(params, (1.5, -2.0, 7.0)).u(1)
    assert u1[0] == math.sqrt(SYM10.p1) * -2.0  # Xi_1 = Z_{-1}
    # transmitter 2 shows its Xi only when it sends information
    params = make_params(beta1=0.0, r1=0.0)
    assert params.rho_star() == 0.0
    _, u2 = block_on_draws(params, (1.5, -2.0, 7.0)).u(1)
    assert u2[0] == math.sqrt(SYM10.p2) * 1.5  # Xi_2 = Z_{-2}


def test_init_phase_xi_correlation():
    params = make_params()
    rs = params.rho_star()
    rng = np.random.default_rng(42)
    draws = rng.standard_normal((200_000, 3))
    # vectorized equivalent of the engine's Xi formula
    xi1 = math.sqrt(1 - rs) * draws[:, 1] + math.sqrt(rs) * draws[:, 2]
    xi2 = math.sqrt(1 - rs) * draws[:, 0] + math.sqrt(rs) * draws[:, 2]
    # spot-check the vectorization against the engine
    for d in draws[:10]:
        u1, u2 = block_on_draws(params, d).u(1)
        assert u1[0] == pytest.approx(math.sqrt(SYM10.p1) * (
            math.sqrt(1 - rs) * d[1] + math.sqrt(rs) * d[2]))
        assert u2[0] == pytest.approx(math.sqrt(SYM10.p2) * (
            math.sqrt(1 - rs) * d[0] + math.sqrt(rs) * d[2]))
    emp = float(np.mean(xi1 * xi2))
    stderr = float(np.std(xi1 * xi2) / math.sqrt(len(draws)))
    assert abs(emp - rs) < 3 * stderr


# --- encoding -----------------------------------------------------------------

def test_encode_step_pure_energy_transmitter():
    params = make_params(beta1=0.0, beta2=0.0, r1=0.0, r2=0.0)
    # rho* = 0: the normalized errors start at (Z_{-1}, Z_{-2}) = (0.3, -0.4)
    x1, x2 = block_on_draws(params, (-0.4, 0.3, 0.0), w=0.7).x[0]
    assert x1 == pytest.approx(math.sqrt(SYM10.p1) * 0.7)
    assert x2 == pytest.approx(math.sqrt(SYM10.p2) * 0.7)


def test_encode_step_first_use_amplitude():
    cfg = channel.from_snr(4.0, 4.0, 0.0, 0.0)
    params = make_params(cfg=cfg)
    rs = params.rho_star()
    # Xi = (1, 0): Z_{-1} = 1/sqrt(1-rho*), Z_{-2} = Z_0 = 0
    x1, _ = block_on_draws(params, (0.0, 1.0 / math.sqrt(1.0 - rs), 0.0)).x[0]
    assert x1 == pytest.approx(2.0)  # sqrt(beta1 * p1) * Xi1 with beta1*p1 = 4


def test_gamma_scale_gives_unit_power():
    # the engine amplifies the error Xi_i - Xihat_i by
    # gamma_i = sqrt(beta_i P_i) / sigma_i; with sigma_i from coeff_schedule
    # and the posterior variance from the unnormalized oracle recursion,
    # the IC power is beta_i P_i at every step
    params = make_params()
    for t, (log2_sigma, _) in enumerate(receiver_states(params, 13), start=1):
        _, cov = naive_posterior(params, np.zeros(t - 1))
        for i in (1, 2):
            bp = params.beta(i) * params.cfg.power(i)
            g = math.sqrt(bp) * 2.0 ** (-log2_sigma[i - 1])
            assert g * g * cov[i - 1, i - 1] == pytest.approx(bp, rel=1e-9)


# --- receiver update ------------------------------------------------------------

def test_receiver_update_uninformative_when_silent():
    params = make_params(n=1, beta1=0.0, beta2=0.0, r1=0.0, r2=0.0)
    sched = coder.coeff_schedule(params)
    assert sched.log2_sigma == (0.0, 0.0)
    assert sched.corr == params.rho_star()


def test_single_user_covariance_closed_form():
    n = 12
    params = make_params(n=n, beta2=0.0, r2=0.0)
    log2_sigma = coder.coeff_schedule(params).log2_sigma
    # scalar Kalman recursion: sigma^2_t = 1/(1 + snr11)^t
    want = -0.5 * n * math.log2(1.0 + SYM10.snr11)
    assert log2_sigma[0] == pytest.approx(want, abs=1e-9)
    assert log2_sigma[1] == 0.0


def test_posterior_matches_naive_recursion():
    n = 8
    params = make_params(n=n, cfg=channel.from_snr(10, 3, 1, 1),
                         beta1=0.9, beta2=0.7)
    cfg = params.cfg
    rs = params.rho_star()
    sched = coder.coeff_schedule(params)
    # one more use shows the error left after n updates: u_i at use n + 1
    # is sqrt(beta_i P_i) en_i, transmitter 2 with the sign of corr.  The
    # engine keeps no y1, so the observations are the replay's, which
    # test_batched_engine_matches_step_replay ties to the engine's bits
    rng = np.random.default_rng(5)
    z = rng.standard_normal(n + 4)
    w = rng.standard_normal(n + 1)
    longer = dataclasses.replace(params, n=n + 1)
    draws = (z, np.zeros(n + 4), w)
    u1, u2 = block_of_one(longer, 1, 1, FixedDraws(*draws)).u(n + 1)
    fields, _ = replay_block(longer, 1, 1, FixedDraws(*draws))
    sign2 = -1.0 if sched.corr < 0.0 else 1.0
    err = (u1[0] / math.sqrt(params.beta1 * cfg.p1),
           u2[0] / (sign2 * math.sqrt(params.beta2 * cfg.p2)))
    xi = (math.sqrt(1 - rs) * z[1] + math.sqrt(rs) * z[2],
          math.sqrt(1 - rs) * z[0] + math.sqrt(rs) * z[2])
    nic_gain = (cfg.h11 * math.sqrt((1 - params.beta1) * cfg.p1)
                + cfg.h12 * math.sqrt((1 - params.beta2) * cfg.p2))
    yps = fields["y1"][:n] - nic_gain * w[:n]
    mean, cov = naive_posterior(params, yps)
    for i in (0, 1):
        # Xi_i - Xihat_i = sigma_i en_i
        assert xi[i] - mean[i] == pytest.approx(
            2.0 ** sched.log2_sigma[i] * err[i], rel=1e-9)
    got = cov2(sched.log2_sigma, sched.corr)
    assert np.allclose(got, cov, atol=1e-12)


def test_covariance_determinant_never_increases():
    params = make_params(n=40)
    dets = [float(np.linalg.det(cov2(*state)))
            for state in receiver_states(params, 29)]
    for prev, cur in zip(dets, dets[1:]):
        assert cur <= prev * (1 + 1e-12)


def test_correlation_magnitude_is_stationary():
    params = make_params(n=40, cfg=channel.from_snr(8, 2, 1, 1),
                         beta1=0.6, beta2=0.9)
    rs = params.rho_star()
    for _, corr in receiver_states(params, 39)[1:]:
        assert abs(corr) == pytest.approx(rs, abs=1e-9)


# --- decoding -----------------------------------------------------------------

def test_decode_noiseless_run():
    params = make_params(n=8, r1=0.4, r2=0.3)
    m1, m2 = 2, 3
    _, state = replay_block(params, m1, m2,
                            init_noise_draws(params, (0.0, 0.0, 0.0)))
    assert state["err"] == (0.0, 0.0)
    assert decode(params, state["err"], state["log2_sigma"], (m1, m2)) == \
        (m1, m2)
    # without any noise the engine's estimate is that same 0
    assert block_on_draws(params, (0.0, 0.0, 0.0), m1=m1, m2=m2).m_hat == \
        [(m1, m2)]


def test_decode_with_perfect_estimate():
    # Xihat = Xi leaves no error, which decodes every message to itself
    params = make_params(n=8, r1=0.4, r2=0.3)
    rng = np.random.default_rng(11)
    noise = rng.standard_normal(3)
    _, state = replay_block(params, 3, 1, init_noise_draws(params, noise))
    for m in ((3, 1), (1, params.messages(2)),
              (params.messages(1), 2)):
        assert decode(params, (0.0, 0.0), state["log2_sigma"], m) == m


def test_decode_threshold_condition():
    params = make_params(n=8, r1=0.4, r2=0.3)
    m1, m2 = 2, 2
    rng = np.random.default_rng(13)
    noise = rng.standard_normal(3)
    _, state = replay_block(params, m1, m2, init_noise_draws(params, noise))
    rs = params.rho_star()
    for i in (1, 2):
        h = SYM10.h11 if i == 1 else SYM10.h12
        delta = 2 * math.sqrt(SYM10.power(i)) / params.messages(i)
        sigma = 2.0 ** state["log2_sigma"][i - 1]
        # theta_hat - theta = sigma en / (h sqrt(1-rho*)); an estimate off by
        # just under half a grid step keeps m, just over it moves m by one,
        # toward the smaller index for a positive error
        for frac, moved in ((0.49, 0), (-0.49, 0), (0.51, -1), (-0.51, 1)):
            err = [0.0, 0.0]
            err[i - 1] = frac * h * math.sqrt(1 - rs) * delta / sigma
            want = [m1, m2]
            want[i - 1] += moved
            assert decode(params, err, state["log2_sigma"], (m1, m2)) == \
                tuple(want), (i, frac)


def decode_reference(m, en, log2_sigma, big):
    """Exact nearest-index rule at h = 1/2, P = 4, rho* = 0:
    m - floor(shift + 1/2) clipped to 1..big, with the shift
    en sigma / (h sqrt(1-rho*) delta) = en 2^log2_sigma big / 2."""
    shift = Fraction(en) * Fraction(2) ** log2_sigma * big / 2
    return min(max(m - math.floor(shift + Fraction(1, 2)), 1), big)


def test_decode_nearest_index_rule():
    # h11 = 1/2, P1 = 4 and rho* = 0 (beta2 = 0) make every log2 term but
    # log2|en| exact; user 2 sends nothing (h12 = 0, one message).  The
    # shift is en/4 at log2_sigma = -log2(big) - 1, so its log-domain value
    # is exact for a power-of-two en (the midpoints +-1/2) and otherwise
    # within a relative 1e-13 of the exact one, under the 1e-9 margins below
    cfg = channel.ChannelConfig(h11=0.5, h12=0.0, h21=0.5, h22=1.0,
                                p1=4.0, p2=1.0)
    cases = [(1, 0.5), (5, 0.5), (5, -0.5)]  # exact midpoints
    cases += [(7, 0.0), (7, -0.0)]  # en = 0
    cases += [(9, s + d) for s in (-2.5, -0.5, 0.5, 1.5, 99.5, -12345.5)
              for d in (-1e-9, 1e-9, -0.3, 0.3)]  # off a half-integer
    cases += [(50, float(s)) for s in (-7, -1, 1, 3, 40)]  # integer shifts
    cases += [(2, 5.0), (3, 1e6), (1, 0.75)]  # clipped at 1
    cases += [(9, 0.24), (9, -0.24), (9, 2.0**-40)]  # log2_shift < -2
    for n in (39, 100):  # big = 2^39, and 2^100 beyond int64
        pa = make_params(n=n, r1=1.0, r2=0.0, beta2=0.0, cfg=cfg)
        big = pa.messages(1)
        assert big == 2**n and pa.messages(2) == 1 and pa.rho_star() == 0.0
        log2_sigma = (-n - 1.0, 0.0)
        near_big = [(big - 2, -5.0), (big, -0.75),
                    (big - 12, -1e9 - 0.25)]  # clipped at big
        # log2_shift > 62 goes to the end of the grid, which the clipped
        # reference matches only while big < 2^62
        beyond = [(7, 2.0**70), (big - 7, -2.0**70)]
        ms, shifts = zip(*(cases + near_big + (beyond if n == 39 else [])))
        en = np.array(shifts) * 4.0
        err = np.concatenate((en, np.linspace(-1e9, 1e9, len(en))))
        err[len(en)] = np.nan  # user 2's errors are never read
        with np.errstate(all="raise"):
            got = coder._decode(pa, err, log2_sigma, [(m, 1) for m in ms])
        want = [(decode_reference(m, e, -n - 1, big), 1)
                for m, e in zip(ms, en.tolist())]
        assert got == want
    # a shift beyond float range goes to the end of the grid
    with np.errstate(all="raise"):
        got = coder._decode(pa, np.array([1.0, -1.0, 0.0, 0.0]),
                            (2000.0, 0.0), [(7, 1), (7, 1)])
    assert got == [(1, 1), (2**100, 1)]
    # the one-message user decodes nothing, with an error or without
    assert coder._decode(pa, np.array([0.0, 3.0]), log2_sigma, [(1, 1)]) == \
        [(1, 1)]


def test_decode_exact_matches_decoder_path():
    # the replay decides each block from its float estimate of Theta_i,
    # observation by observation; _decode decides the same 30 blocks from
    # their final normalized errors alone
    params = make_params(n=12, r1=0.6, r2=0.5, seed=17)
    messages, errs, want = [], [], []
    for trial in range(30):
        rng = np.random.default_rng(trial)
        z = rng.standard_normal(params.n + 3)
        w = rng.standard_normal(params.n)
        m = (1 + trial % params.messages(1),
             1 + (3 * trial) % params.messages(2))
        fields, state = replay_block(
            params, *m, FixedDraws(z, np.zeros(params.n + 3), w))
        assert state["log2_sigma"] == coder.coeff_schedule(params).log2_sigma
        messages.append(m)
        errs.append(state["err"])
        want.append(fields["m_hat"])
    err = np.array(errs).T.ravel()  # en_1 of every block, then en_2
    got = coder._decode(params, err, coder.coeff_schedule(params).log2_sigma,
                        messages)
    assert got == want


def as_bits(value):
    """value in a form whose == compares floats bit for bit."""
    if isinstance(value, (tuple, bool)):
        return value
    return np.asarray(value, dtype=float).tobytes()


def assert_same_bits(batch, j, fields, k):
    """Trial j of batch equals the replay fields of trial k, bitwise: both
    inputs at every use, u(t) at every t, the decisions, b_hat and the
    energies."""
    trials, n = len(batch.draws), len(batch.x)
    u = np.array([batch.u(t)[:, j] for t in range(1, n + 1)])
    got = {
        "x1": batch.x[:, j], "x2": batch.x[:, trials + j],
        "u1": u[:, 0], "u2": u[:, 1],
        "m_hat": batch.m_hat[j], "error": batch.m_hat[j] != batch.m_true[j],
        "b_hat": batch.b_hat[j], "energy1": batch.energy1[j],
        "energy2": batch.energy2[j]}
    for name, value in got.items():
        assert as_bits(value) == as_bits(fields[name]), (k, name)


EQUIVALENCE_CASES = {
    # decode path near the rate limit, so some trials decode wrongly
    "decode": make_params(n=24, r1=1.3, r2=1.3, seed=7),
    # > 2^40 messages, where the replay decides in the log domain too;
    # asymmetric SNRs and correlated receiver/harvester noise
    "exact": make_params(n=60, r1=0.8, r2=0.45, beta1=0.9, beta2=0.7,
                         seed=2, cfg=channel.from_snr(
                             10, 3, 2, 5, noise_correlation=0.4)),
    # transmitter 1 sends pure energy (beta1 = 0, rho* = 0)
    "beta0": make_params(n=30, r1=0.0, r2=0.4, beta1=0.0, beta2=0.9,
                         seed=4, cfg=channel.from_snr(
                             8, 2, 1, 1, noise_correlation=-0.6)),
    # long enough that most of coeff_schedule's table repeats its cycle;
    # a seed above 2^128 spans five uint32 words of run entropy
    "long": make_params(n=400, r1=0.4, r2=0.3, beta1=0.8, beta2=1.0,
                        seed=2**130 + 9, cfg=channel.from_snr(10, 3, 2, 5)),
}


def seeded_trial(params, trial):
    """(m1, m2, Generator) of one trial as the Monte Carlo harness defines
    it: the numpy Generator and the message Random are seeded from
    SeedSequence(entropy=seed, spawn_key=(trial,)), and the messages are
    uniform on their index sets."""
    ss = np.random.SeedSequence(entropy=params.seed, spawn_key=(trial,))
    msg_rng = random.Random(int.from_bytes(
        ss.generate_state(4, np.uint64).tobytes(), "little"))
    m1 = 1 + msg_rng.randrange(params.messages(1))
    m2 = 1 + msg_rng.randrange(params.messages(2))
    return m1, m2, np.random.default_rng(ss)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_batched_engine_matches_step_replay(name):
    params = EQUIVALENCE_CASES[name]
    trials = 8
    replays = [replay_block(params, *seeded_trial(params, k))
               for k in range(trials)]
    sched = coder.coeff_schedule(params)
    for _, state in replays:
        assert sched.log2_sigma == state["log2_sigma"]
        assert sched.corr == state["corr"]
    # batches of one
    for k in (0, trials - 1):
        assert_same_bits(block_of_one(params, *seeded_trial(params, k)), 0,
                         replays[k][0], k)
    # the whole set as one batch of eight, seeded as mc.run seeds it
    messages, rngs = mc._chunk_inputs(params, 0, trials)
    batch = coder.simulate_batch(params, sched, messages, rngs)
    for k in range(trials):
        assert_same_bits(batch, k, replays[k][0], k)
    if name == "decode":
        assert any(batch.m_hat[k] != batch.m_true[k] for k in range(trials))
    # an odd batch: a trial's outputs do not depend on the batch size
    batch = coder.simulate_batch(params, sched,
                                 *mc._chunk_inputs(params, 0, 5))
    for k in range(5):
        assert_same_bits(batch, k, replays[k][0], k)


SCHEDULE_SETTINGS = [
    (SYM10, 1.0, 1.0),
    (channel.from_snr(10, 3, 2, 5), 0.9, 0.7),
    (channel.from_snr(8, 2, 1, 1), 0.0, 0.9),  # rho* = 0
    (channel.from_snr(100, 1, 1, 1), 1.0, 0.5),
    (channel.from_snr(0.5, 2, 1, 1), 0.3, 1.0),
]


@pytest.mark.parametrize("n", [1, 2, 50, 2000, 10_000])
def test_coeff_schedule_matches_step_loop(n):
    for cfg, beta1, beta2 in SCHEDULE_SETTINGS:
        params = make_params(n=n, r1=0.0, r2=0.0, beta1=beta1, beta2=beta2,
                             cfg=cfg)
        rows, log2_sigma, corr = schedule_loop(params)
        sched = coder.coeff_schedule(params)
        got = sched.rows[sched.index]
        assert got.tobytes() == rows[:, :6].tobytes(), (beta1, beta2)
        assert sched.log2_sigma == log2_sigma
        assert sched.corr == corr


@pytest.mark.parametrize("n", [1, 2])
def test_coeff_schedule_rows_of_a_short_block(n):
    # n is shorter than the first repeat of the correlation (except at
    # rho* = 0, which repeats at once), so every step has its own row and
    # the index has no cycle
    for cfg, beta1, beta2 in SCHEDULE_SETTINGS:
        params = make_params(n=n, r1=0.0, r2=0.0, beta1=beta1, beta2=beta2,
                             cfg=cfg)
        rows, _, _ = schedule_loop(params)
        sched = coder.coeff_schedule(params)
        if params.rho_star() == 0.0:
            assert sched.index.tolist() == [0] * n
            assert sched.rows.tobytes() == rows[:1, :6].tobytes()
        else:
            assert sched.index.tolist() == list(range(n))
            assert sched.rows.tobytes() == rows[:, :6].tobytes()


@pytest.mark.parametrize("trials, n", [
    (250, 100), (10, 2000),
    # a full mc chunk at n < 10, where the Python objects that the engine
    # returns outgrow the slack in PEAK_FLOATS_PER_USE
    pytest.param(None, 1, id="chunk-1"), pytest.param(None, 3, id="chunk-3")])
def test_simulate_batch_peak_memory(trials, n):
    # 30-bit messages at n = 100, 600-bit ones at n = 2000
    params = make_params(n=n, r1=0.3, r2=0.3)
    sched = coder.coeff_schedule(params)
    if trials is None:
        lo, hi = mc._chunks(10**6, n)[0]
        trials, bound = hi - lo, mc._CHUNK_BYTES
    else:
        bound = coder.PEAK_FLOATS_PER_USE * trials * (n + 3) * 8
    messages, rngs = mc._chunk_inputs(params, 0, trials)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        coder.simulate_batch(params, sched, messages, rngs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound


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
    with pytest.raises(ValueError, match="beta_i > 0"):
        coder.error_bound(make_params(beta1=0.0))
    batch = block_of_one(p0, *seeded_trial(p0, 0))
    assert batch.m_hat == batch.m_true


# --- whole blocks ---------------------------------------------------------------

def test_block_power_accounting():
    params = make_params(n=400, r1=0.5, r2=0.5, beta1=0.7, beta2=0.7)
    batch = coder.simulate_batch(params, coder.coeff_schedule(params),
                                 *mc._chunk_inputs(params, 0, 40))
    n = params.n
    m1s, m2s = zip(*batch.m_true)
    # the init phase spends at most P_i on transmitter i's one active use
    th1 = coder.message_points(m1s, params.r1, n, SYM10.p1)
    th2 = coder.message_points(m2s, params.r2, n, SYM10.p2)
    assert (th1 ** 2 <= SYM10.p1 + 1e-12).all()
    assert (th2 ** 2 <= SYM10.p2 + 1e-12).all()
    # mean consumed energy per transmitter stays near the (n+1) P_i design
    mean_e1 = np.mean(batch.energy1)
    assert mean_e1 <= (n + 1) * SYM10.p1 * 1.02
    assert mean_e1 >= 0.6 * n * SYM10.p1


def test_block_u_variance_and_correlation():
    params = make_params(n=3, r1=0.2, r2=0.2)
    rs = params.rho_star()
    # trials 0..3999 of mc.run, as one batch
    batch = coder.simulate_batch(params, coder.coeff_schedule(params),
                                 *mc._chunk_inputs(params, 0, 4000))
    u1, u2 = batch.u(3)
    # transmitted IC power is beta_i P_i at every t
    assert np.mean(u1**2) == pytest.approx(SYM10.p1, rel=0.1)
    corr = np.mean((u1 - u1.mean()) * (u2 - u2.mean())) / (u1.std() * u2.std())
    se = (1 - rs * rs) / math.sqrt(len(u1))
    assert abs(corr - rs) < 4 * se
