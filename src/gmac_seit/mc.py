"""Monte Carlo harness for the feedback coding scheme.

Trials are independent full blocks.  Each trial's randomness is an
independent stream derived from (seed, trial-index) via SeedSequence spawn
keys, so results are bit-identical regardless of execution order; the
aggregation below runs serially in trial order.

run streams the trials through coder.simulate_batch in consecutive chunks
of nearly equal size.  A chunk holds at most _CHUNK_FLOATS // (n + 3)
trials, which bounds each of the engine's trials x (n + 3) arrays to
_CHUNK_FLOATS floats (256 KiB) whatever the trial count.  The coefficient
schedule and rho* are computed once per run.  Since every trial draws only
from its own (seed, trial) streams, the report does not depend on how the
trials are chunked.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .channel import max_energy_rate
from .coder import (SchemeParams, TransmissionTrace, coeff_schedule,
                    expected_energy_rate, simulate_batch, simulate_block)

_CHUNK_FLOATS = 2 ** 15


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: scheme, trial count, outage target."""

    params: SchemeParams
    trials: int
    target_b: float = 0.0
    epsilon: float | None = None  # default 0.01 * mean energy rate
    correlation_times: tuple[int, ...] = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        bmax = max_energy_rate(self.params.cfg)
        if self.target_b > bmax + 1e-9 * max(1.0, bmax):
            raise ValueError("target_b exceeds the maximum energy rate")
        for t in self.correlation_times:
            if not 1 <= t <= self.params.n:
                raise ValueError("correlation times must lie in 1..n")

    def effective_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        p = self.params
        return 0.01 * expected_energy_rate(p, p.rho_star())


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


def _trial_streams(seed: int, trial: int):
    """(numpy Generator, message Random) for one trial, keyed by (seed, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng = np.random.default_rng(ss)
    msg_rng = random.Random(int.from_bytes(
        ss.generate_state(4, np.uint64).tobytes(), "little"))
    return rng, msg_rng


def _trial_inputs(params: SchemeParams, trial: int):
    """(numpy Generator, (m1, m2)) of one trial, messages uniform on their sets."""
    rng, msg_rng = _trial_streams(params.seed, trial)
    m1 = 1 + msg_rng.randrange(params.messages(1))
    m2 = 1 + msg_rng.randrange(params.messages(2))
    return rng, (m1, m2)


def run_trial(params: SchemeParams, trial: int) -> TransmissionTrace:
    """One full block with messages drawn uniformly from their index sets."""
    rng, (m1, m2) = _trial_inputs(params, trial)
    return simulate_block(params, m1, m2, rng)


def _chunks(trials: int, n: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) trial ranges of near-equal size within the budget."""
    count = -(-trials // max(1, _CHUNK_FLOATS // (n + 3)))
    return [(trials * i // count, trials * (i + 1) // count)
            for i in range(count)]


def empirical_energy_rate(trace: TransmissionTrace) -> float:
    """Time average of y2^2 over the n payload uses."""
    return float(np.mean(trace.y2**2))


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
        rngs, messages = zip(*(_trial_inputs(params, trial)
                               for trial in range(lo, hi)))
        batch = simulate_batch(params, sched, messages, rngs)
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


def outage_estimate(base: SimConfig, n_values) -> list[tuple[int, float]]:
    """Outage fraction versus blocklength, everything else held fixed."""
    rows = []
    for n in n_values:
        p = base.params
        params = SchemeParams(cfg=p.cfg, n=int(n), r1=p.r1, r2=p.r2,
                              beta1=p.beta1, beta2=p.beta2, seed=p.seed)
        sc = SimConfig(params=params, trials=base.trials,
                       target_b=base.target_b, epsilon=base.epsilon)
        rows.append((int(n), run(sc).outage_hat))
    return rows


def outage_table_to_csv(rows, fh) -> None:
    fh.write("n,outage_hat\n")
    for n, out in rows:
        fh.write(f"{n},{out:.17g}\n")
