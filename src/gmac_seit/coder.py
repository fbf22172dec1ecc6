"""Power-splitting feedback coding scheme with MMSE-tracking receiver.

Each transmitter embeds its message in a real PAM point Theta_i, uses three
initialization channel uses to hand the receiver-noise functional Xi_i to
the receiver, then iteratively refines the receiver's MMSE estimate of
(Xi_1, Xi_2) by retransmitting scaled estimation errors (the classic
feedback strategy), on top of a shared no-information energy carrier W_t.

Numerics: the posterior variance of Xi_i decays like
(1 + beta_i*SNR_1i*(1-rho*^2))^-t and underflows float64 within a few
hundred steps, so the recursion is carried in normalized coordinates:
err_norm_i = (Xi_i - Xihat_i)/sigma_i stays O(1) while log2_sigma_i
accumulates the decay exactly.  Transmitted symbols depend only on the
normalized error (u_i = sqrt(beta_i P_i) * err_norm_i), so the simulation
is exact at any blocklength.

Sign convention: the posterior error correlation flips sign at every
update, so transmitter 2 flips the sign of its transmitted error whenever
the current error correlation is negative; this keeps the correlation of
(U_1, U_2) pinned at +rho* each step, which both the per-step mutual
information and the coherent energy term require.

Engine: the update coefficients (a1, a2, v, d1, d2), transmitter 2's sign
and the receiver's log2_sigma depend only on SchemeParams, never on the
data, so coeff_schedule computes them once per block as a length-n table.
simulate_batch then runs a batch of independent blocks in lockstep: each
trial keeps its own numpy Generator, and the error recursion over
t = 1..n runs as numpy vectors across trials, with every element going
through the same float operations in the same order as the step-level API
(init_phase, encode_step, channel.step, receiver_update), so the results
are bit-identical to a block replayed one use at a time.  simulate_block
is the batch of one.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelUse, step
from .region import solve_rho_star


class DegenerateRhoError(ValueError):
    """rho* = 1 cannot occur at finite SNR; defensive guard."""


def message_count(n: int, rate: float) -> int:
    """floor(2^(n*rate)) as an exact integer (well beyond float range)."""
    x = n * rate
    if x < 52:
        return max(1, int(2.0 ** x))
    k = int(x)
    mant = int(2.0 ** (x - k + 52.0))
    return mant << (k - 52)


@dataclass(frozen=True)
class SchemeParams:
    """Static parameters of one coded block (n payload uses + 3 init uses)."""

    cfg: ChannelConfig
    n: int
    r1: float
    r2: float
    beta1: float
    beta2: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength n must be >= 1")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")
        if not (0.0 <= self.beta1 <= 1.0 and 0.0 <= self.beta2 <= 1.0):
            raise ValueError("power splits must lie in [0,1]")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        for i, rate in ((1, self.r1), (2, self.r2)):
            if rate > 0.0 and self.cfg.snr(1, i) <= 0.0:
                raise ValueError(f"transmitter {i} has zero SNR at the "
                                 "receiver, so its rate must be 0")

    def rho_star(self) -> float:
        """rho*(beta1, beta2), solved on first use and kept on the instance."""
        rs = self.__dict__.get("_rho_star")
        if rs is None:
            rs = solve_rho_star(self.cfg, self.beta1, self.beta2)
            object.__setattr__(self, "_rho_star", rs)
        return rs

    def messages(self, i: int) -> int:
        return message_count(self.n, self.r1 if i == 1 else self.r2)

    def beta(self, i: int) -> float:
        return self.beta1 if i == 1 else self.beta2


def message_point(m: int, rate: float, n: int, p: float) -> float:
    """PAM embedding of message index m on a grid of floor(2^(n*rate)) points."""
    big = message_count(n, rate)
    if not 1 <= m <= big:
        raise ValueError(f"message index {m} outside 1..{big}")
    sp = math.sqrt(p)
    # theta = sqrt(p) - (m-1)*delta with delta = 2 sqrt(p)/big; the ratio
    # form stays accurate when big is too large for delta to be a normal float
    num = 2 * (m - 1)
    if big < 2**52:
        frac = num / big
    else:
        frac = ((num << 64) // big) / 18446744073709551616.0
    return sp * (1.0 - frac)


@dataclass
class EncoderState:
    """Joint view of both transmitters' coding state (perfect feedback)."""

    theta: tuple[float, float]
    xi: tuple[float, float]
    err_norm: list  # normalized estimation errors (Xi_i - Xihat_i)/sigma_i


@dataclass
class DecoderState:
    """Receiver-side MMSE state, mirrored bit-identically by both encoders."""

    mean2: list  # (Xihat_1, Xihat_2)
    log2_sigma: list  # log2 of posterior std of each Xi_i
    corr: float  # posterior error correlation (sign alternates)
    w_seq: np.ndarray
    t: int = 0

    def cov2(self) -> np.ndarray:
        """Posterior covariance matrix (diagonal underflows for large t)."""
        s1 = 2.0 ** self.log2_sigma[0]
        s2 = 2.0 ** self.log2_sigma[1]
        off = self.corr * s1 * s2
        return np.array([[s1 * s1, off], [off, s2 * s2]])

    def copy(self) -> "DecoderState":
        return DecoderState(mean2=list(self.mean2),
                            log2_sigma=list(self.log2_sigma),
                            corr=self.corr, w_seq=self.w_seq, t=self.t)


@dataclass
class TransmissionTrace:
    """Everything observable about one simulated block."""

    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    init_uses: list
    m_true: tuple[int, int]
    m_hat: tuple[int, int]
    error: bool
    b_hat: float
    energy1: float  # total consumed energy, init included
    energy2: float


def gamma_scale(params: SchemeParams, dec: DecoderState, i: int) -> float:
    """Per-step amplification gamma_i,t = sqrt(beta_i P_i / cov2[i,i])."""
    bp = params.beta(i) * params.cfg.power(i)
    return math.sqrt(bp) * 2.0 ** (-dec.log2_sigma[i - 1])


def init_phase(params: SchemeParams, m1: int, m2: int, noise,
               q_noise=(0.0, 0.0, 0.0)):
    """Three bootstrap uses t = -2, -1, 0 carrying (0, Theta2), (Theta1, 0), (0, 0).

    Transmitter i recovers the receiver noise of the use it stayed silent in
    (it knows the other's contribution is absent from its own signal) plus
    Z_0, and forms Xi_i = sqrt(1-rho*) Z_{-i} + sqrt(rho*) Z_0.
    """
    cfg = params.cfg
    th1 = message_point(m1, params.r1, params.n, cfg.p1)
    th2 = message_point(m2, params.r2, params.n, cfg.p2)
    z_m2, z_m1, z_0 = noise
    uses = [step(cfg, 0.0, th2, z_m2, q_noise[0]),
            step(cfg, th1, 0.0, z_m1, q_noise[1]),
            step(cfg, 0.0, 0.0, z_0, q_noise[2])]
    xi1, xi2 = _xi(params.rho_star(), z_m2, z_m1, z_0)
    return xi1, xi2, uses


def _xi(rs: float, z_m2, z_m1, z_0):
    """(Xi_1, Xi_2) from the init-phase receiver noises (floats or arrays)."""
    return (math.sqrt(1.0 - rs) * z_m1 + math.sqrt(rs) * z_0,
            math.sqrt(1.0 - rs) * z_m2 + math.sqrt(rs) * z_0)


def _ic_amplitudes(params: SchemeParams) -> tuple[float, float]:
    cfg = params.cfg
    return (math.sqrt(params.beta1 * cfg.snr11),
            math.sqrt(params.beta2 * cfg.snr12))


def _nic_gain(params: SchemeParams) -> float:
    cfg = params.cfg
    return (cfg.h11 * math.sqrt((1.0 - params.beta1) * cfg.p1)
            + cfg.h12 * math.sqrt((1.0 - params.beta2) * cfg.p2))


def _update_coeffs(dec: DecoderState, params: SchemeParams):
    """Innovation coefficients for Y' = a1*en1 + a2*en2 + Z (en = normalized error)."""
    return _coeffs(dec.corr, *_ic_amplitudes(params))


def _coeffs(r: float, s1: float, s2: float):
    """(a1, a2, v, d1, d2) at error correlation r and IC amplitudes (s1, s2).

    s2 carries the sign flip of transmitter 2 that keeps the transmitted
    correlation nonnegative.
    """
    if r < 0.0:
        s2 = -s2
    a1 = s1 + r * s2
    a2 = s2 + r * s1
    v = s1 * s1 + s2 * s2 + 2.0 * r * s1 * s2 + 1.0
    d1 = math.sqrt(1.0 - a1 * a1 / v)  # v - a1^2 = s2^2(1-r^2) + 1 > 0
    d2 = math.sqrt(1.0 - a2 * a2 / v)
    return a1, a2, v, d1, d2


def encode_step(enc: EncoderState, dec_mirror: DecoderState,
                params: SchemeParams, t: int) -> tuple[float, float]:
    """Channel inputs at payload step t: scaled error on top of the NIC carrier."""
    if not 1 <= t <= params.n:
        raise ValueError("t outside 1..n")
    cfg = params.cfg
    sign2 = -1.0 if dec_mirror.corr < 0.0 else 1.0
    u1 = math.sqrt(params.beta1 * cfg.p1) * enc.err_norm[0]
    u2 = sign2 * math.sqrt(params.beta2 * cfg.p2) * enc.err_norm[1]
    w = dec_mirror.w_seq[t - 1]
    x1 = u1 + math.sqrt((1.0 - params.beta1) * cfg.p1) * w
    x2 = u2 + math.sqrt((1.0 - params.beta2) * cfg.p2) * w
    return x1, x2


def receiver_update(dec: DecoderState, params: SchemeParams, y1: float,
                    t: int) -> DecoderState:
    """Exact joint-Gaussian posterior update after observing y1 at step t."""
    if not 1 <= t <= params.n:
        raise ValueError("t outside 1..n")
    yp = y1 - _nic_gain(params) * dec.w_seq[t - 1]
    a1, a2, v, d1, d2 = _update_coeffs(dec, params)
    sig1 = 2.0 ** dec.log2_sigma[0]
    sig2 = 2.0 ** dec.log2_sigma[1]
    mean2 = [dec.mean2[0] + sig1 * a1 / v * yp,
             dec.mean2[1] + sig2 * a2 / v * yp]
    log2_sigma = [dec.log2_sigma[0] + 0.5 * math.log2(d1 * d1),
                  dec.log2_sigma[1] + 0.5 * math.log2(d2 * d2)]
    corr = (dec.corr - a1 * a2 / v) / (d1 * d2)
    return DecoderState(mean2=mean2, log2_sigma=log2_sigma, corr=corr,
                        w_seq=dec.w_seq, t=t)


def _nearest_index(x: float, big: int) -> int:
    """Nearest message index to grid coordinate x = m-1, ties to smaller m."""
    k = math.floor(x + 0.5)
    if x + 0.5 == k:  # exact midpoint: the smaller index wins
        k -= 1
    return min(max(k, 0), big - 1) + 1


def decode(dec: DecoderState, params: SchemeParams, y_init) -> tuple[int, int]:
    """Nearest-neighbor message decisions from the final MMSE estimates.

    Resolves message points down to float64 granularity (fine for any
    message count up to ~2^40; simulate_block switches to the equivalent
    log-domain rule beyond that).
    """
    rs = params.rho_star()
    if rs >= 1.0:
        raise DegenerateRhoError("rho* = 1")
    cfg = params.cfg
    y_m2, y_m1, y_0 = (u.y1 for u in y_init)
    out = []
    for i, y_obs in ((1, y_m1), (2, y_m2)):
        big = params.messages(i)
        if big == 1:  # nothing to decide; h may be 0
            out.append(1)
            continue
        h = cfg.h11 if i == 1 else cfg.h12
        p = cfg.power(i)
        theta_hat = (y_obs + math.sqrt(rs / (1.0 - rs)) * y_0
                     - dec.mean2[i - 1] / math.sqrt(1.0 - rs)) / h
        delta = 2.0 * math.sqrt(p) / big
        out.append(_nearest_index((math.sqrt(p) - theta_hat) / delta, big))
    return out[0], out[1]


def _decode_exact(enc: EncoderState, dec: DecoderState, params: SchemeParams,
                  m_true: tuple[int, int]) -> tuple[int, int]:
    """Nearest-neighbor rule evaluated through the normalized error.

    theta_hat - theta(m) = (Xi - Xihat)/(h sqrt(1-rho*)), so the decoded
    index is m shifted by round(err/(h sqrt(1-rho*) delta)); computing the
    shift in log2 avoids the underflow of both err and delta at large n.
    """
    rs = params.rho_star()
    if rs >= 1.0:
        raise DegenerateRhoError("rho* = 1")
    cfg = params.cfg
    out = []
    for i in (1, 2):
        big = params.messages(i)
        m = m_true[i - 1]
        en = enc.err_norm[i - 1]
        if en == 0.0 or big == 1:
            out.append(min(m, big))
            continue
        h = cfg.h11 if i == 1 else cfg.h12
        p = cfg.power(i)
        log2_delta = 1.0 + 0.5 * math.log2(p) - math.log2(big)
        log2_shift = (math.log2(abs(en)) + dec.log2_sigma[i - 1]
                      - math.log2(h) - 0.5 * math.log2(1.0 - rs) - log2_delta)
        if log2_shift < -2.0:
            out.append(m)
            continue
        if log2_shift > 62.0:
            out.append(1 if en > 0 else big)  # shift beyond the whole grid
            continue
        shift = math.copysign(2.0 ** log2_shift, en)
        # m_hat - 1 = round((m-1) - shift); floor(shift + 0.5) resolves an
        # exact midpoint toward the smaller decoded index
        k = math.floor(shift + 0.5)
        out.append(min(max(m - k, 1), big))
    return out[0], out[1]


def error_bound(params: SchemeParams) -> tuple[float, float]:
    """Union-style upper bound on each transmitter's decoding-error probability."""
    rs = params.rho_star()
    cfg = params.cfg
    out = []
    for i in (1, 2):
        s = cfg.snr(1, i)
        if params.beta(i) <= 0.0:
            raise ValueError("error_bound requires beta_i > 0")
        rate = params.r1 if i == 1 else params.r2
        big = message_count(params.n, rate)
        # sigma_n = 2^(-n/2 * log2(1 + beta*snr*(1-rs^2))); work in log2
        log2_sigma = -0.5 * params.n * math.log2(
            1.0 + params.beta(i) * s * (1.0 - rs * rs))
        log2_arg = (0.5 * math.log2(s * (1.0 - rs))
                    - math.log2(big) - log2_sigma)
        if log2_arg > 30.0:
            out.append(0.0)
            continue
        arg = 2.0 ** log2_arg
        out.append(math.erfc(arg / math.sqrt(2.0)))  # 2*Q(arg)
    return out[0], out[1]


def expected_energy_rate(params: SchemeParams, rho: float) -> float:
    """Mean empirical energy rate of the scheme at IC correlation rho."""
    cfg = params.cfg
    s21, s22 = cfg.snr21, cfg.snr22
    return (1.0 + s21 + s22
            + 2.0 * rho * math.sqrt(params.beta1 * s21 * params.beta2 * s22)
            + 2.0 * math.sqrt((1.0 - params.beta1) * s21
                              * (1.0 - params.beta2) * s22))


@dataclass(frozen=True)
class CoeffSchedule:
    """Data-independent coefficients of the n payload updates of one block.

    Row t-1 belongs to step t.  Per-user columns have shape (n, 2, 1), so
    one row broadcasts against a (2, trials) array of normalized errors.
    """

    sign2: np.ndarray  # (n,) sign transmitter 2 puts on its error
    a: np.ndarray  # (n, 2, 1) innovation coefficients a1, a2
    v: np.ndarray  # (n,) innovation variance
    d: np.ndarray  # (n, 2, 1) renormalizers d1, d2 of the errors
    gain: np.ndarray  # (n, 2, 1) mean gains 2**log2_sigma_i * a_i / v
    log2_sigma: tuple[float, float]  # receiver state after step n
    corr: float


def coeff_schedule(params: SchemeParams) -> CoeffSchedule:
    """Iterate the receiver's covariance recursion through all n steps.

    The arithmetic is receiver_update's, step by step, so every entry is
    bit-identical to what the step-level API computes at that step.
    """
    s1, s2 = _ic_amplitudes(params)
    r = params.rho_star()
    l1 = l2 = 0.0
    rows = np.empty((params.n, 8))
    for row in rows:
        a1, a2, v, d1, d2 = _coeffs(r, s1, s2)
        row[:] = (-1.0 if r < 0.0 else 1.0, a1, a2, v, d1, d2,
                  2.0 ** l1 * a1 / v, 2.0 ** l2 * a2 / v)
        l1 += 0.5 * math.log2(d1 * d1)
        l2 += 0.5 * math.log2(d2 * d2)
        r = (r - a1 * a2 / v) / (d1 * d2)
    return CoeffSchedule(sign2=rows[:, 0], a=rows[:, 1:3, None], v=rows[:, 3],
                         d=rows[:, 4:6, None], gain=rows[:, 6:8, None],
                         log2_sigma=(l1, l2), corr=r)


@dataclass
class BlockBatch:
    """A batch of simulated blocks; row k of every array is trial k.

    Time runs along the last axis.  The x, y1, y2, z and q arrays start
    with the three init uses (t = -2, -1, 0), so payload use t sits in
    column t + 2; w holds the n NIC symbols.
    """

    x: np.ndarray  # (2, trials, n+3) inputs of transmitters 1 and 2
    y1: np.ndarray  # (trials, n+3)
    y2: np.ndarray
    z: np.ndarray
    q: np.ndarray
    w: np.ndarray  # (trials, n)
    nic: np.ndarray  # (2, 1) NIC amplitudes sqrt((1-beta_i) P_i)
    m_true: list[tuple[int, int]]
    m_hat: list[tuple[int, int]]
    b_hat: list[float]
    energy1: list[float]  # total consumed energy, init included
    energy2: list[float]

    def u(self, t: int) -> np.ndarray:
        """(2, trials) IC components of both inputs at payload step t."""
        return self.x[:, :, t + 2] - self.nic * self.w[:, t - 1]

    def init_uses(self, k: int) -> list[ChannelUse]:
        return [ChannelUse(x1=self.x[0, k, j], x2=self.x[1, k, j],
                           y1=self.y1[k, j], y2=self.y2[k, j],
                           z=self.z[k, j], q=self.q[k, j]) for j in range(3)]

    def trace(self, k: int) -> TransmissionTrace:
        u = self.x[:, k, 3:] - self.nic * self.w[k]
        return TransmissionTrace(
            x1=self.x[0, k, 3:], x2=self.x[1, k, 3:], y1=self.y1[k, 3:],
            y2=self.y2[k, 3:], u1=u[0], u2=u[1], init_uses=self.init_uses(k),
            m_true=self.m_true[k], m_hat=self.m_hat[k],
            error=self.m_hat[k] != self.m_true[k], b_hat=self.b_hat[k],
            energy1=self.energy1[k], energy2=self.energy2[k])


def simulate_batch(params: SchemeParams, sched: CoeffSchedule,
                   messages: Sequence[tuple[int, int]],
                   rngs: Sequence[np.random.Generator]) -> BlockBatch:
    """Run one full block per (m1, m2) pair in messages, all in lockstep.

    sched is coeff_schedule(params).  Trial k draws from rngs[k] only, in
    simulate_block's order, so a trial's outputs do not depend on the rest
    of the batch.  Memory is about ten floats per trial and channel use.
    """
    cfg = params.cfg
    n = params.n
    k = len(rngs)
    z = np.empty((k, n + 3))
    q = np.empty((k, n + 3))
    w = np.empty((k, n))
    for row, rng in enumerate(rngs):
        rng.standard_normal(out=z[row])
        rng.standard_normal(out=q[row])
        rng.standard_normal(out=w[row])
    c = cfg.noise_correlation
    q = c * z + math.sqrt(1.0 - c * c) * q

    # init phase: uses (0, Theta2), (Theta1, 0), (0, 0)
    theta = [(message_point(m1, params.r1, n, cfg.p1),
              message_point(m2, params.r2, n, cfg.p2)) for m1, m2 in messages]
    x = np.zeros((2, k, n + 3))
    x[0, :, 1] = [th1 for th1, _ in theta]
    x[1, :, 0] = [th2 for _, th2 in theta]
    y1 = np.empty((k, n + 3))
    y1[:, :3] = cfg.h11 * x[0, :, :3] + cfg.h12 * x[1, :, :3] + z[:, :3]
    xi = _xi(params.rho_star(), z[:, 0], z[:, 1], z[:, 2])
    err = np.array(xi)  # (2, trials) normalized errors, en_i = Xi_i at t = 1

    # payload: the encoders' mirror update (err) and the receiver's mean
    amp = np.empty((n, 2, 1))
    amp[:, 0] = math.sqrt(params.beta1 * cfg.p1)
    amp[:, 1, 0] = sched.sign2 * math.sqrt(params.beta2 * cfg.p2)
    nic = np.array([[math.sqrt((1.0 - params.beta1) * cfg.p1)],
                    [math.sqrt((1.0 - params.beta2) * cfg.p2)]])
    h = np.array([[cfg.h11], [cfg.h12]])
    nic_gain = _nic_gain(params)
    mean = np.zeros((2, k))
    nw = np.empty((2, k))
    hx = np.empty((2, k))
    yp = np.empty(k)
    innov = np.empty((2, k))
    for amp_t, a_t, v_t, d_t, g_t, w_t, z_t, x_t, y_t in zip(
            amp, sched.a, sched.v, sched.d, sched.gain, w.T, z.T[3:],
            x.transpose(2, 0, 1)[3:], y1.T[3:]):
        np.multiply(amp_t, err, out=x_t)  # u_i
        np.multiply(nic, w_t, out=nw)
        x_t += nw  # x_i = u_i + nic_i * w
        np.multiply(h, x_t, out=hx)
        np.add(hx[0], hx[1], out=y_t)
        y_t += z_t  # y1 = h11 x1 + h12 x2 + z
        np.multiply(nic_gain, w_t, out=yp)
        np.subtract(y_t, yp, out=yp)  # y' = y1 - nic_gain * w
        np.multiply(a_t, yp, out=innov)
        innov /= v_t
        err -= innov
        err /= d_t  # en_i <- (en_i - a_i y' / v) / d_i
        np.multiply(g_t, yp, out=innov)
        mean += innov  # Xihat_i <- Xihat_i + sigma_i a_i / v * y'
    y2 = cfg.h21 * x[0]  # y2 = h21 x1 + h22 x2 + q, one temporary at a time
    y2 += cfg.h22 * x[1]
    y2 += q

    batch = BlockBatch(x=x, y1=y1, y2=y2, z=z, q=q, w=w, nic=nic,
                       m_true=[tuple(m) for m in messages], m_hat=[],
                       b_hat=[], energy1=[], energy2=[])
    exact = max(math.log2(params.messages(1)),
                math.log2(params.messages(2))) > 40
    for row, (m_true, (th1, th2)) in enumerate(zip(batch.m_true, theta)):
        dec = DecoderState(mean2=[mean[0, row], mean[1, row]],
                           log2_sigma=list(sched.log2_sigma),
                           corr=sched.corr, w_seq=w[row], t=n)
        if exact:
            enc = EncoderState(theta=(th1, th2), xi=(xi[0][row], xi[1][row]),
                               err_norm=[err[0, row], err[1, row]])
            batch.m_hat.append(_decode_exact(enc, dec, params, m_true))
        else:
            batch.m_hat.append(decode(dec, params, batch.init_uses(row)))
        batch.b_hat.append(float(np.mean(y2[row, 3:] ** 2)))
        batch.energy1.append(th1 * th1 + float(np.sum(x[0, row, 3:] ** 2)))
        batch.energy2.append(th2 * th2 + float(np.sum(x[1, row, 3:] ** 2)))
    return batch


def simulate_block(params: SchemeParams, m1: int, m2: int,
                   rng: np.random.Generator) -> TransmissionTrace:
    """Run one full block: init phase, n coded uses, decode.

    Draw order from rng: n+3 receiver noises, n+3 independent EH noise
    components, n shared NIC symbols.
    """
    batch = simulate_batch(params, coeff_schedule(params), [(m1, m2)], [rng])
    return batch.trace(0)


def trace_to_csv(trace: TransmissionTrace, fh) -> None:
    fh.write("t,x1,x2,y1,y2,u1,u2\n")
    for t in range(len(trace.x1)):
        row = (t + 1, trace.x1[t], trace.x2[t], trace.y1[t], trace.y2[t],
               trace.u1[t], trace.u2[t])
        fh.write(f"{row[0]}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")
