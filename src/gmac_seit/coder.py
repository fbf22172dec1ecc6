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
t = 1..n runs as numpy vectors across trials.  The per-use loop does only
what depends on the step before (inputs, y1, y' and the error update); the
NIC terms are formed for the whole block before it, the receiver's mean is
reduced from the stored y' after it, and the tail (decoding, energy rate
and consumed energies) is whole-array work across trials.  simulate_block
is the batch of one.  The tests check the engine bit for bit against
tests/_oracles.py::replay_block, an independent replay of one block in
scalar floats, use by use.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelUse
from .region import OperatingPoint, region_box_fb, solve_rho_star


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
        # 0.5*log2(1 + SNR) < 512 for every finite float64 SNR
        if not (0.0 <= self.r1 <= 512.0 and 0.0 <= self.r2 <= 512.0):
            raise ValueError("rates must lie in [0, 512] bits/use")
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


def message_points(ms: Sequence[int], rate: float, n: int,
                   p: float) -> np.ndarray:
    """PAM embedding of message indices ms on a grid of floor(2^(n*rate)) points."""
    big = message_count(n, rate)
    lo, hi = min(ms), max(ms)
    if lo < 1 or hi > big:
        raise ValueError(f"message index {lo if lo < 1 else hi} "
                         f"outside 1..{big}")
    # theta = sqrt(p) - (m-1)*delta with delta = 2 sqrt(p)/big; the ratio
    # form stays accurate when big is too large for delta to be a normal float
    if big < 2**52:
        # 2(m-1) and big are exact floats, so the quotient is rounded once
        frac = 2.0 * (np.array(ms, dtype=float) - 1.0) / big
    else:
        frac = np.array([((2 * (m - 1) << 64) // big) / 18446744073709551616.0
                         for m in ms])
    return math.sqrt(p) * (1.0 - frac)


def message_point(m: int, rate: float, n: int, p: float) -> float:
    """PAM point of one message index m; see message_points."""
    return float(message_points([m], rate, n, p)[0])


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


def decode_batch(params: SchemeParams, mean: np.ndarray,
                 y_init: np.ndarray) -> np.ndarray:
    """Nearest-neighbor message decisions of a batch of blocks.

    mean is the (2, trials) final MMSE estimate (Xihat_1, Xihat_2) and
    y_init the (trials, 3) receiver outputs of the init uses; returns the
    (2, trials) decoded indices, an exact midpoint going to the smaller
    one.  Resolves message points down to float64 granularity (fine for
    any message count up to ~2^40; simulate_batch switches to the
    equivalent log-domain rule beyond that).
    """
    rs = params.rho_star()
    if rs >= 1.0:
        raise DegenerateRhoError("rho* = 1")
    cfg = params.cfg
    out = np.ones((2, len(y_init)), dtype=np.int64)
    for i, y_obs in ((1, y_init[:, 1]), (2, y_init[:, 0])):
        big = params.messages(i)
        if big == 1:  # nothing to decide; h may be 0
            continue
        h = cfg.h11 if i == 1 else cfg.h12
        sp = math.sqrt(cfg.power(i))
        theta_hat = (y_obs + math.sqrt(rs / (1.0 - rs)) * y_init[:, 2]
                     - mean[i - 1] / math.sqrt(1.0 - rs)) / h
        xh = (sp - theta_hat) / (2.0 * sp / big) + 0.5  # grid coordinate m-1
        k = np.floor(xh)
        k[xh == k] -= 1.0  # exact midpoint: the smaller index wins
        out[i - 1] += np.clip(k, 0.0, big - 1).astype(np.int64)
    return out


def _decode_exact(params: SchemeParams, err_norm, log2_sigma,
                  m_true: tuple[int, int]) -> tuple[int, int]:
    """Nearest-neighbor rule evaluated through the normalized error.

    err_norm and log2_sigma are one block's final normalized errors and
    log2 posterior stds.  Since theta_hat - theta(m) equals
    (Xi - Xihat)/(h sqrt(1-rho*)), the decoded index is m shifted by
    round(err/(h sqrt(1-rho*) delta)); computing the shift in log2 avoids
    the underflow of both err and delta at large n.
    """
    rs = params.rho_star()
    if rs >= 1.0:
        raise DegenerateRhoError("rho* = 1")
    cfg = params.cfg
    out = []
    for i in (1, 2):
        big = params.messages(i)
        m = m_true[i - 1]
        en = err_norm[i - 1]
        if en == 0.0 or big == 1:
            out.append(min(m, big))
            continue
        h = cfg.h11 if i == 1 else cfg.h12
        p = cfg.power(i)
        log2_delta = 1.0 + 0.5 * math.log2(p) - math.log2(big)
        log2_shift = (math.log2(abs(en)) + log2_sigma[i - 1]
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
    op = OperatingPoint(params.beta1, params.beta2, rho)
    return region_box_fb(params.cfg, op).b_max


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

    Row t-1 holds the coefficients of step t at the correlation left by
    step t-1, starting from rho*; log2_sigma and corr are the state after
    step n.  Each step's coefficients are a function of the correlation
    alone, and the float recursion reaches a correlation it has seen
    before within a few dozen steps, so the steps up to that repeat are
    iterated and the rest of the table is their cycle.  log2_sigma_i is
    then a sequential running sum, as the step-by-step loop adds it.
    """
    cfg = params.cfg
    n = params.n
    s1 = math.sqrt(params.beta1 * cfg.snr11)
    s2 = math.sqrt(params.beta2 * cfg.snr12)
    r = params.rho_star()
    seen = {}  # bits of a correlation -> step at which it held
    steps = []  # (sign2, a1, a2, v, d1, d2, dl1, dl2, next corr) per step
    while len(steps) < n and r.hex() not in seen:
        seen[r.hex()] = len(steps)
        a1, a2, v, d1, d2 = _coeffs(r, s1, s2)
        r_next = (r - a1 * a2 / v) / (d1 * d2)
        steps.append((-1.0 if r < 0.0 else 1.0, a1, a2, v, d1, d2,
                      0.5 * math.log2(d1 * d1), 0.5 * math.log2(d2 * d2),
                      r_next))
        r = r_next
    # step t >= len(steps) repeats step start + (t - start) % period
    start = seen.get(r.hex(), 0)
    period = len(steps) - start
    idx = np.arange(n)
    tail = idx >= len(steps)
    idx[tail] = start + (idx[tail] - start) % period
    rows = np.array(steps)[idx]
    log2_sigma = np.add.accumulate(
        np.concatenate((np.zeros((1, 2)), rows[:, 6:8])), axis=0)
    sigma = np.array([2.0 ** l for l in log2_sigma[:n].ravel().tolist()])
    gain = sigma.reshape(n, 2) * rows[:, 1:3] / rows[:, 3:4]
    l1, l2 = log2_sigma[n].tolist()
    return CoeffSchedule(sign2=rows[:, 0], a=rows[:, 1:3, None], v=rows[:, 3],
                         d=rows[:, 4:6, None], gain=gain[:, :, None],
                         log2_sigma=(l1, l2), corr=float(rows[-1, 8]))


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

    sched is coeff_schedule(params).  Trial k draws from rngs[k] only: one
    standard_normal call fills its 3n + 6 draws, read as z (n + 3 receiver
    noises), then the n + 3 independent harvester noise components, then w
    (n carrier symbols).  The Generator's normal sampler keeps no state
    between calls, so this is the same stream as three calls in that order,
    and a trial's outputs do not depend on the rest of the batch.  Memory
    peaks at about a dozen floats per trial and channel use.
    """
    cfg = params.cfg
    n = params.n
    k = len(rngs)
    draws = np.empty((k, 3 * n + 6))
    for row, rng in zip(draws, rngs):
        rng.standard_normal(out=row)
    z = draws[:, :n + 3]
    w = draws[:, 2 * n + 6:]
    c = cfg.noise_correlation
    q = c * z + math.sqrt(1.0 - c * c) * draws[:, n + 3:2 * n + 6]

    # init phase: uses (0, Theta2), (Theta1, 0), (0, 0)
    m1s, m2s = zip(*messages)
    th = np.array((message_points(m1s, params.r1, n, cfg.p1),
                   message_points(m2s, params.r2, n, cfg.p2)))  # (2, trials)
    x = np.zeros((2, k, n + 3))
    x[0, :, 1] = th[0]
    x[1, :, 0] = th[1]
    y1 = np.empty((k, n + 3))
    y1[:, :3] = cfg.h11 * x[0, :, :3] + cfg.h12 * x[1, :, :3] + z[:, :3]
    # (2, trials) normalized errors, en_i = Xi_i = sqrt(1-rho*) Z_{-i}
    # + sqrt(rho*) Z_0 at t = 1; columns 0, 1, 2 of z are Z_{-2}, Z_{-1}, Z_0
    rs = params.rho_star()
    err = np.array((math.sqrt(1.0 - rs) * z[:, 1] + math.sqrt(rs) * z[:, 2],
                    math.sqrt(1.0 - rs) * z[:, 0] + math.sqrt(rs) * z[:, 2]))

    # payload: per use, only the encoders' mirror update of err depends on
    # the step before; the NIC terms are formed up front and the receiver's
    # mean is reduced from the stored y' after the loop
    amp = np.empty((n, 2, 1))
    amp[:, 0] = math.sqrt(params.beta1 * cfg.p1)
    amp[:, 1, 0] = sched.sign2 * math.sqrt(params.beta2 * cfg.p2)
    nic = np.array([[math.sqrt((1.0 - params.beta1) * cfg.p1)],
                    [math.sqrt((1.0 - params.beta2) * cfg.p2)]])
    h = np.array([[cfg.h11], [cfg.h12]])
    np.multiply(nic[:, :, None], w, out=x[:, :, 3:])  # nic_i * w
    nic_gain = cfg.h11 * nic[0, 0] + cfg.h12 * nic[1, 0]
    yp = np.multiply(nic_gain, w.T, order="C")  # (n, trials)
    u = np.empty((2, k))
    hx = np.empty((2, k))
    innov = np.empty((2, k))
    for amp_t, a_t, v_t, d_t, z_t, x_t, y_t, yp_t in zip(
            amp, sched.a, sched.v, sched.d, z.T[3:],
            x.transpose(2, 0, 1)[3:], y1.T[3:], yp):
        np.multiply(amp_t, err, out=u)
        x_t += u  # x_i = u_i + nic_i * w
        np.multiply(h, x_t, out=hx)
        np.add(hx[0], hx[1], out=y_t)
        y_t += z_t  # y1 = h11 x1 + h12 x2 + z
        np.subtract(y_t, yp_t, out=yp_t)  # y' = y1 - nic_gain * w
        np.multiply(a_t, yp_t, out=innov)
        innov /= v_t
        err -= innov
        err /= d_t  # en_i <- (en_i - a_i y' / v) / d_i
    # Xihat_i = sum_t sigma_i,t a_i,t / v_t * y'_t; a reduction over the
    # outer axis adds the rows in t order from +0.0, as a running sum would
    mean = np.add.reduce(sched.gain * yp[:, None, :], axis=0, initial=0.0)
    y2 = cfg.h21 * x[0]  # y2 = h21 x1 + h22 x2 + q, one temporary at a time
    y2 += cfg.h22 * x[1]
    y2 += q

    energy = th * th + np.sum(x[:, :, 3:] ** 2, axis=2)
    if max(params.messages(1), params.messages(2)) > 2**40:
        m_hat = [_decode_exact(params, err[:, row], sched.log2_sigma, m_true)
                 for row, m_true in enumerate(messages)]
    else:
        m_hat = list(zip(*decode_batch(params, mean, y1[:, :3]).tolist()))
    return BlockBatch(x=x, y1=y1, y2=y2, z=z, q=q, w=w, nic=nic,
                      m_true=[tuple(m) for m in messages], m_hat=m_hat,
                      b_hat=np.mean(y2[:, 3:] ** 2, axis=1).tolist(),
                      energy1=energy[0].tolist(), energy2=energy[1].tolist())


def simulate_block(params: SchemeParams, m1: int, m2: int,
                   rng: np.random.Generator) -> TransmissionTrace:
    """Run one full block: init phase, n coded uses, decode.

    rng supplies 3n + 6 standard normals in one call: n+3 receiver noises,
    n+3 independent EH noise components, n shared NIC symbols.
    """
    batch = simulate_batch(params, coeff_schedule(params), [(m1, m2)], [rng])
    return batch.trace(0)
