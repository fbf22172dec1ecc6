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
information and the coherent energy term require.  The decoder divides by
sqrt(1 - rho*): region.solve_rho_star returns 0 or the midpoint of a
bisection bracket inside [0, 1], so rho* < 1 always holds.

Engine: the update coefficients (a1, a2, v, d1, d2), transmitter 2's sign
and the receiver's log2_sigma depend only on SchemeParams, never on the
data, so coeff_schedule computes them once per block: the distinct steps
of the float recursion (a prefix and one cycle, a few dozen rows) and a
step -> row index.  simulate_batch then runs a batch of independent blocks
in lockstep: each trial keeps its own numpy Generator and fills its own
draw row, and the error recursion over t = 1..n runs on time-major rows
across trials.  Both users' errors are one (2*trials,) vector; x is
(n, 2*trials), prefilled with the NIC terms, and y' is (n, trials),
prefilled with the receiver's known carrier term, so each use runs eleven
ufunc calls with positional out on operands of one shape.  The engine stores
only the draws, x and y'; y1 lives in a (trials,) scratch for one use.
After the loop every block is decided from its final normalized errors
alone, by one log-domain nearest-index rule that holds at any message
count (_decode), and the tail (q, the energies and the energy rate) runs
on blocks of trials, with numpy's pairwise sums over contiguous (trials, n)
rows.
BlockBatch holds what the engine produces: x, the draws, the decisions,
b_hat and the energies, with u formed on request by the loop's own
expression; y1 and y2 are never kept.  The tests check these outputs bit
for bit against tests/_oracles.py::replay_block, an independent replay of
one block in scalar floats, use by use, on batches of one and more.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig
from .region import solve_rho_star


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
            if rate > 0.0 and (self.cfg.snr11, self.cfg.snr12)[i - 1] <= 0.0:
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
    q1 = 1.0 - a1 * a1 / v  # v - a1^2 = s2^2(1-r^2) + 1 > 0 for |r| <= 1
    q2 = 1.0 - a2 * a2 / v
    if q1 < 0.0 or q2 < 0.0:
        raise ValueError(
            f"the coder's error correlation r = {r:.6g} has been rounded to or "
            "past the edge of [-1, 1] at these SNRs (1 - a_i^2/v < 0)")
    return a1, a2, v, math.sqrt(q1), math.sqrt(q2)


def _decode(params: SchemeParams, err: np.ndarray, log2_sigma,
            messages: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Nearest-neighbor message decisions of a batch of blocks.

    err is the (2*trials,) final normalized errors (en_1 of every trial,
    then en_2), log2_sigma the receiver's final log2 posterior stds and
    messages the sent (m1, m2) pairs.  Since theta_hat - theta(m) equals
    (Xi - Xihat)/(h sqrt(1-rho*)), the decoded index is m shifted by
    round(err/(h sqrt(1-rho*) delta)), an exact midpoint going to the
    smaller index; computing the shift in log2 avoids the underflow of both
    err and delta at large n, so the rule holds at any message count.
    Only the trials whose shift is nonzero are decided in Python ints, as
    message indices can exceed int64.
    """
    rs = params.rho_star()
    cfg = params.cfg
    k = len(messages)
    decided = [list(col) for col in zip(*messages)]
    for i in (1, 2):
        big = params.messages(i)
        if big == 1:  # nothing to decide; h may be 0
            continue
        h = cfg.h11 if i == 1 else cfg.h12
        log2_delta = 1.0 + 0.5 * math.log2(cfg.power(i)) - math.log2(big)
        en = err[(i - 1) * k:i * k]
        if not (np.isfinite(en).all() and math.isfinite(log2_sigma[i - 1])):
            raise ValueError(f"transmitter {i}'s coder state overflows "
                             "float64 at these SNRs")
        # en = 0 gives log2_shift = -inf, so no shift
        with np.errstate(divide="ignore", over="ignore"):
            log2_shift = (np.log2(np.abs(en)) + log2_sigma[i - 1]
                          - math.log2(h) - 0.5 * math.log2(1.0 - rs)
                          - log2_delta)
            # m_hat - 1 = round((m-1) - shift); floor(shift + 0.5) resolves
            # an exact midpoint toward the smaller decoded index
            step = np.floor(np.copysign(np.exp2(log2_shift), en) + 0.5)
        ms = decided[i - 1]
        for j in np.flatnonzero(step).tolist():
            if log2_shift[j] > 62.0:  # shift beyond the whole grid
                ms[j] = 1 if en[j] > 0.0 else big
            else:
                ms[j] = min(max(ms[j] - int(step[j]), 1), big)
    return list(zip(*decided))


def error_bound(params: SchemeParams) -> tuple[float, float]:
    """Union-style upper bound on each transmitter's decoding-error probability."""
    rs = params.rho_star()
    cfg = params.cfg
    out = []
    for i in (1, 2):
        s = (cfg.snr11, cfg.snr12)[i - 1]
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


@dataclass(frozen=True)
class CoeffSchedule:
    """Data-independent coefficients of the n payload updates of one block.

    The steps up to the first repeated correlation are stored once, as the
    rows of rows, and step t uses row index[t - 1]; past its prefix the
    index runs through a cycle.
    """

    rows: np.ndarray  # (R, 6) sign2, a1, a2, v, d1, d2 of each distinct step
    index: np.ndarray  # (n,) row of step t at t - 1
    log2_sigma: tuple[float, float]  # receiver state after step n
    corr: float


def coeff_schedule(params: SchemeParams) -> CoeffSchedule:
    """Iterate the receiver's covariance recursion through all n steps.

    Step t's coefficients are taken at the correlation left by step t-1,
    starting from rho*; log2_sigma and corr are the state after step n.
    Each step's coefficients are a function of the correlation alone, and
    the float recursion reaches a correlation it has seen before within a
    few dozen steps, so the steps up to that repeat are iterated and the
    rest of the block indexes their cycle.  log2_sigma_i is then a
    sequential running sum, as the step-by-step loop adds it.
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
        if d1 * d2 == 0.0:
            raise ValueError("the coder's d1*d2 underflows to 0 at these SNRs")
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
    rows = np.array(steps)
    log2_sigma = np.add.accumulate(
        np.concatenate((np.zeros((1, 2)), rows[idx, 6:8])), axis=0)
    l1, l2 = log2_sigma[n].tolist()
    return CoeffSchedule(rows=rows[:, :6], index=idx, log2_sigma=(l1, l2),
                         corr=float(rows[idx[-1], 8]))


# Bound on simulate_batch's peak memory, in float64s per trial and channel
# use (n + 3 uses per trial), for n >= 10; mc sizes its chunks by it, and a
# test checks it with tracemalloc
PEAK_FLOATS_PER_USE = 9

# Bytes per trial of the Python objects that simulate_batch returns besides
# its arrays: the m_hat tuple and its two ints, the b_hat and energy floats,
# and five list slots (the m_true tuples are the caller's).  Below n ~ 10
# they outgrow the slack in PEAK_FLOATS_PER_USE, so mc counts them in its
# chunk budget as well
TRIAL_OBJECT_BYTES = 56 + 2 * 28 + 3 * 24 + 5 * 8

# the tail works on 1/_TAIL_SPLIT of the trials at a time
_TAIL_SPLIT = 8


@dataclass
class BlockBatch:
    """A batch of simulated blocks.

    x holds the payload inputs time-major: row t-1 is use t, with x1 of
    every trial followed by x2 of every trial.  Trial j's draws are row j
    of draws: z (n + 3 receiver noises, init uses first), q (the n + 3
    harvester noises, correlated with z by the tail) and w (the n NIC
    symbols).
    """

    x: np.ndarray  # (n, 2*trials) inputs of transmitters 1 and 2
    draws: np.ndarray  # (trials, 3n + 6) z | q | w of each trial
    nic: np.ndarray  # (2, 1) NIC amplitudes sqrt((1-beta_i) P_i)
    m_true: list[tuple[int, int]]
    m_hat: list[tuple[int, int]]
    b_hat: list[float]
    energy1: list[float]  # total consumed energy, init included
    energy2: list[float]

    def u(self, t: int) -> np.ndarray:
        """(2, trials) IC components of both inputs at payload step t."""
        n = len(self.x)
        w = self.draws[:, 2 * n + 5 + t]
        return self.x[t - 1].reshape(2, -1) - self.nic * w


def _run_uses(params: SchemeParams, sched: CoeffSchedule, err: np.ndarray,
              x: np.ndarray, z: np.ndarray, yp: np.ndarray) -> None:
    """The per-use loop of simulate_batch: the encoders' error recursion.

    err is the (2*trials,) normalized errors (en_1 of every trial, then
    en_2); x, z and yp are (n, 2*trials), (n, trials) and (n, trials) rows,
    x holding nic_i * w and yp nic_gain * w on entry, and z the payload
    receiver noises, read through a strided view of the draw rows.  Each
    use adds the IC inputs into its x row, turns its yp row into y' and
    updates err in place, through ufunc calls with positional out on
    operands of one shape: amp and d are (2*trials,) vectors, and a1, a2
    and v 0-d arrays, which cost no memory per trial, built once per
    distinct schedule row.
    """
    cfg = params.cfg
    k = len(err) // 2
    amp1 = math.sqrt(params.beta1 * cfg.p1)
    amp2 = math.sqrt(params.beta2 * cfg.p2)
    amps = np.repeat([[amp1, amp2], [amp1, -amp2]], k, axis=1)
    d = np.repeat(sched.rows[:, 4:6], k, axis=1)
    coefs = [(amps[int(row[0] < 0.0)], row[1, ...], row[2, ...], row[3, ...],
              d_row) for row, d_row in zip(sched.rows, d)]
    h = np.repeat((cfg.h11, cfg.h12), k)
    u = np.empty(2 * k)
    hx = np.empty(2 * k)
    hx1, hx2 = hx[:k], hx[k:]
    y = np.empty(k)
    innov = np.empty(2 * k)
    innov1, innov2 = innov[:k], innov[k:]
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    for (amp, a1, a2, v, d_t), x_t, z_t, yp_t in zip(
            [coefs[i] for i in sched.index.tolist()], x, z, yp):
        mul(amp, err, u)
        add(x_t, u, x_t)  # x_i = nic_i * w + u_i
        mul(h, x_t, hx)
        add(hx1, hx2, y)
        add(y, z_t, y)  # y1 = h11 x1 + h12 x2 + z
        sub(y, yp_t, yp_t)  # y' = y1 - nic_gain * w
        mul(a1, yp_t, innov1)
        mul(a2, yp_t, innov2)
        div(innov, v, innov)
        sub(err, innov, err)
        div(err, d_t, err)  # en_i <- (en_i - a_i y' / v) / d_i


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
    stays under PEAK_FLOATS_PER_USE floats per trial and channel use: the
    draws (3), x (2) and y' (1), plus one (2*trials,) d vector per distinct
    schedule row during the loop, or the blocks of the tail after it.
    Each block is decoded from its final normalized errors by _decode.
    """
    cfg = params.cfg
    n = params.n
    k = len(rngs)
    draws = np.empty((k, 3 * n + 6))
    for row, rng in zip(draws, rngs):
        rng.standard_normal(out=row)
    z = draws[:, :n + 3]
    q = draws[:, n + 3:2 * n + 6]  # independent components until the tail
    w = draws[:, 2 * n + 6:]

    m1s, m2s = zip(*messages)
    th = np.array((message_points(m1s, params.r1, n, cfg.p1),
                   message_points(m2s, params.r2, n, cfg.p2)))  # (2, trials)
    # normalized errors (en_1 of every trial, then en_2), at t = 1
    # en_i = Xi_i = sqrt(1-rho*) Z_{-i} + sqrt(rho*) Z_0; columns 0, 1, 2
    # of z are Z_{-2}, Z_{-1}, Z_0
    rs = params.rho_star()
    err = np.concatenate(
        (math.sqrt(1.0 - rs) * z[:, 1] + math.sqrt(rs) * z[:, 2],
         math.sqrt(1.0 - rs) * z[:, 0] + math.sqrt(rs) * z[:, 2]))

    # payload: the NIC terms are written into x and y' before the loop,
    # which then runs on time-major rows: (2*trials,) for both users,
    # (trials,) for y'
    nic1 = math.sqrt((1.0 - params.beta1) * cfg.p1)
    nic2 = math.sqrt((1.0 - params.beta2) * cfg.p2)
    x = np.empty((n, 2 * k))
    np.multiply(nic1, w.T, out=x[:, :k])
    np.multiply(nic2, w.T, out=x[:, k:])
    nic_gain = cfg.h11 * nic1 + cfg.h12 * nic2
    yp = np.multiply(nic_gain, w.T, order="C")  # (n, trials)
    _run_uses(params, sched, err, x, z[:, 3:].T, yp)

    m_hat = _decode(params, err, sched.log2_sigma, messages)
    del yp

    # tail, on blocks of trials: q = c z + sqrt(1-c^2) q_ind formed in place
    # (as sqrt(1-c^2) q_ind + c z, the same sum), then the energies and
    # b_hat = mean(y2^2) by numpy's pairwise sums over contiguous (trials, n)
    # rows, y2 = h21 x1 + h22 x2 + q
    c = cfg.noise_correlation
    s = math.sqrt(1.0 - c * c)
    sums = np.empty((2, k))
    b_hat = np.empty(k)
    size = -(-k // _TAIL_SPLIT)
    buf = np.empty((2, size * (n + 3)))
    for lo in range(0, k, size):
        hi = min(k, lo + size)
        qb = q[lo:hi]
        cz = np.multiply(c, z[lo:hi],
                         out=buf[0, :qb.size].reshape(qb.shape))
        np.multiply(qb, s, out=qb)
        np.add(qb, cz, out=qb)
        x1, x2 = x[:, lo:hi].T, x[:, k + lo:k + hi].T
        t1, t2 = buf[:, :x1.size].reshape(2, *x1.shape)
        np.square(x1, out=t1)
        np.sum(t1, axis=1, out=sums[0, lo:hi])
        np.square(x2, out=t1)
        np.sum(t1, axis=1, out=sums[1, lo:hi])
        np.multiply(cfg.h21, x1, out=t1)
        np.multiply(cfg.h22, x2, out=t2)
        t1 += t2
        t1 += q[lo:hi, 3:]
        np.square(t1, out=t1)
        b_hat[lo:hi] = np.mean(t1, axis=1)
    energy = th * th + sums
    return BlockBatch(x=x, draws=draws, nic=np.array([[nic1], [nic2]]),
                      m_true=[tuple(m) for m in messages], m_hat=m_hat,
                      b_hat=b_hat.tolist(), energy1=energy[0].tolist(),
                      energy2=energy[1].tolist())

