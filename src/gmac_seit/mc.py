"""Monte Carlo harness for the feedback coding scheme.

Trials are independent full blocks.  Trial t's randomness comes from the
state of SeedSequence(entropy=seed, spawn_key=(t,)), which seeds both its
numpy Generator (noise) and its message Random, so results are
bit-identical regardless of execution order; the aggregation below runs
serially in trial order.

run streams the trials through coder.simulate_batch in consecutive chunks
of nearly equal size.  The chunk budget is in bytes: a chunk holds at most
_CHUNK_BYTES // (8 PEAK_FLOATS_PER_USE (n + 3) + TRIAL_OBJECT_BYTES)
trials, so the engine's arrays and the Python objects it returns peak
under _CHUNK_BYTES (3 MB) whatever the trial count and block length; that
is 392 trials at n = 100, 5859 at n = 1 and 4 at n = 10^4.  The
coefficient schedule and rho* are computed once per run.  Since every
trial draws only from its own (seed, trial) streams, the report does not
depend on how the trials are chunked.  A chunk's seeding is array work:
numpy builds the run's SeedSequence pool once and _spawn_states mixes the
chunk's spawn keys into it as uint32 vectors, giving each trial's
SeedSequence state without building the trial's SeedSequence.
Within a chunk, each trial's noise is one draw, its PAM points are one
vector op per user, the per-use loop runs on time-major rows across
trials, and the decode, the energy rate and the energies are array work
after it.
The per-trial Python work left is constructing each trial's Generator,
seeding its message Random and drawing its two messages (and the decision
of a block whose error moves it off its message), plus the aggregation
below, which adds in trial order on purpose: np.sum (pairwise) or the
builtin sum (compensated since Python 3.12) would change the last bits of
the report.
Every per-trial input to it (the decisions, b_hat and the consumed
energies) comes from the engine, which the tests check bit for bit against
tests/_oracles.py::replay_block.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .coder import (PEAK_FLOATS_PER_USE, TRIAL_OBJECT_BYTES, SchemeParams,
                    coeff_schedule, simulate_batch)
from .region import _boxes, _check_feasible_b

# engine memory per chunk: the ~3 MB a budget of 2^15 floats per
# trials x (n + 3) array peaked at when the engine held 11.4 floats per use
_CHUNK_BYTES = 3_000_000

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MAX_TRIALS = 2 ** 32  # every spawn key is then one uint32 word


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: scheme, trial count, outage target."""

    params: SchemeParams
    trials: int
    target_b: float = 0.0
    epsilon: float | None = None  # default 0.01 * mean energy rate
    correlation_times: tuple[int, ...] = ()

    def __post_init__(self):
        # first, so that an infeasible target is reported as such even
        # where another field is also out of range
        _check_feasible_b(self.params.cfg, self.target_b)
        if not 1 <= self.trials <= _MAX_TRIALS:
            raise ValueError(f"trials must lie in 1..{_MAX_TRIALS}")
        if not math.isfinite(self.target_b):
            raise ValueError("target_b must be finite")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        for t in self.correlation_times:
            if not 1 <= t <= self.params.n:
                raise ValueError("correlation times must lie in 1..n")

    def effective_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        # the scheme's mean energy rate is the b_max of its box at rho*
        p = self.params
        with np.errstate(over="ignore", invalid="ignore"):
            b_max = float(_boxes(p.cfg, p.beta1, p.beta2, p.rho_star())[3])
        if not math.isfinite(b_max):
            raise ValueError(f"mean energy rate is {b_max} at these SNRs, so "
                             "the default epsilon (1% of it) is undefined; "
                             "give epsilon (--epsilon)")
        return 0.01 * b_max


@dataclass
class SimReport:
    """Aggregated Monte Carlo estimates."""

    trials: int
    p_error_hat: float
    outage_hat: float
    mean_b: float
    stderr_b: float
    consumed_power: tuple[float, float]  # per-use average incl. init
    correlation_trace: dict = field(default_factory=dict)  # t -> corr(U1, U2)

    def to_json(self, fh) -> None:
        payload = {
            "trials": self.trials,
            "p_error_hat": self.p_error_hat,
            "outage_hat": self.outage_hat,
            "mean_b": self.mean_b,
            "stderr_b": self.stderr_b,
            "consumed_power": list(self.consumed_power),
            "correlation_trace": {str(k): v
                                  for k, v in self.correlation_trace.items()},
        }
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of value (a uint32 array) under hash constant
    const; returns the hash and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x: int, y):
    """SeedSequence's mix of pool word x (an int) with y (a uint32 array)."""
    value = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _spawn_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint64 rows, row j being
    SeedSequence(entropy=seed, spawn_key=(lo + j,)).generate_state(4, np.uint64).

    numpy builds the run's pool, SeedSequence(seed).pool; each trial's spawn
    key, the last entropy word, is then mixed into it across all trials at
    once in uint32 arithmetic, and the pool is expanded into the eight
    output words.
    """
    if not 0 <= lo <= hi <= _MAX_TRIALS:
        raise ValueError(f"trial indices must lie in 0..{_MAX_TRIALS - 1}")
    from numpy.random import SeedSequence  # not at import: see _state_seq
    # the pool took 4 * max(4, w) hashmix calls for seed's w uint32 words:
    # one per word of the pool size 4 (a 0 for each missing word), 12 for
    # the cross-mix and 4 per word past the fourth; the spawn key's first
    # hashmix starts from the constant after them
    words = max(4, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32
    t = np.arange(lo, hi, dtype=np.uint32)
    pool = []
    for x in SeedSequence(seed).pool.tolist():
        key, const = _hashmix(t, const, _MULT_A)
        pool.append(_mix(x, key))
    out = np.empty((hi - lo, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        out[:, i], const = _hashmix(pool[i % 4], const, _MULT_B)
    # words 2j, 2j + 1 are the low and high halves of uint64 word j
    return out.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_seq():
    """ISeedSequence class that hands PCG64 one precomputed
    generate_state(4, np.uint64) row; defined on first use, so importing
    the package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeq(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.state):
                raise ValueError(f"{len(self.state)} state words are stored")
            return self.state

    return StateSeq


def _chunk_inputs(params: SchemeParams, lo: int, hi: int):
    """(messages, Generators) of trials lo..hi-1, keyed by (seed, trial).

    Trial t's numpy Generator and message Random are both seeded from the
    state of SeedSequence(entropy=seed, spawn_key=(t,)); its messages
    (m1, m2) are uniform on their index sets.
    """
    big1, big2 = params.messages(1), params.messages(2)
    rngs = []
    messages = []
    msg_rng = random.Random()
    seq = _state_seq()
    for row in _spawn_states(params.seed, lo, hi):
        rngs.append(np.random.Generator(np.random.PCG64(seq(row))))
        msg_rng.seed(int.from_bytes(row.tobytes(), "little"))
        messages.append((1 + msg_rng.randrange(big1),
                         1 + msg_rng.randrange(big2)))
    return messages, rngs


def _chunks(trials: int, n: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) trial ranges of near-equal size within the budget."""
    per_chunk = _CHUNK_BYTES // (8 * PEAK_FLOATS_PER_USE * (n + 3)
                                 + TRIAL_OBJECT_BYTES)
    count = -(-trials // max(1, per_chunk))
    return [(trials * i // count, trials * (i + 1) // count)
            for i in range(count)]


def run(sc: SimConfig) -> SimReport:
    params = sc.params
    eps = sc.effective_epsilon()
    n_err = 0
    n_out = 0
    sum_b = 0.0
    sum_b2 = 0.0
    sum_e1 = 0.0
    sum_e2 = 0.0
    times = sorted(sc.correlation_times)
    u_samples = {t: [] for t in times}
    sched = coeff_schedule(params)
    for lo, hi in _chunks(sc.trials, params.n):
        batch = simulate_batch(params, sched, *_chunk_inputs(params, lo, hi))
        for m_true, m_hat, b_hat, e1, e2 in zip(
                batch.m_true, batch.m_hat, batch.b_hat, batch.energy1,
                batch.energy2):
            if m_hat != m_true:
                n_err += 1
            if b_hat < sc.target_b - eps:
                n_out += 1
            sum_b += b_hat
            sum_b2 += b_hat * b_hat
            sum_e1 += e1
            sum_e2 += e2
        for t in times:
            u_samples[t].append(batch.u(t))
        del batch  # free this chunk's arrays before the next is allocated
    k = sc.trials
    mean_b = sum_b / k
    var_b = max(0.0, (sum_b2 - k * mean_b * mean_b) / (k - 1)) if k > 1 else 0.0
    corr_trace = {}
    for t in times:
        u1, u2 = np.concatenate(u_samples[t], axis=1)
        denom = u1.std() * u2.std()
        corr_trace[t] = float(np.mean((u1 - u1.mean()) * (u2 - u2.mean()))
                              / denom) if denom > 0 else 0.0
    uses = params.n + 3
    return SimReport(trials=k,
                     p_error_hat=n_err / k,
                     outage_hat=n_out / k,
                     mean_b=mean_b,
                     stderr_b=math.sqrt(var_b / k),
                     consumed_power=(sum_e1 / (k * uses), sum_e2 / (k * uses)),
                     correlation_trace=corr_trace)
