"""One benchmark process: set up a workload, then time or trace its ops.

run.py starts this file in a fresh interpreter with PYTHONPATH pointing at
the checkout's src/ and BLAS/OpenMP pinned to one thread.  On stdout it
prints the line "ready" once set-up is done, then one JSON line with the
results.  Modes:

  setup      stop after set-up (run.py times several set-ups per run)
  measure    closed loop of ops for --seconds, untraced
  trace      a fixed number of ops traced, then the same ops untraced
  reference  a fixed number of ops, printing their output digests

Every op gets its own input derived from (seed, op index), so no op is
served from a cache filled by an earlier op with the same input.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from gmac_seit import channel, cli, coder, mc, region
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_digests.json"
DEFAULT_SEED = 0
MIN_OPS = 3
WINDOW_S = 2.0  # throughput is the median over windows of this much op time
# The host's speed drifts by tens of percent over seconds to minutes, so
# each op time is also reported rescaled by the host speed measured just
# before it: a fixed pure-Python loop of CAL_ITERS steps, timed as the
# median of three, at most CAL_EVERY_S apart.  A "ref_s" is a second on a
# host where that loop takes CAL_REF_S.
CAL_ITERS = 50_000
CAL_REF_S = 0.004
CAL_EVERY_S = 0.5
_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


class OpFailure(Exception):
    """An op raised, exited nonzero or wrote a wrong or non-finite output."""


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def calibrate() -> float:
    """Seconds one pass of the fixed loop takes on the host right now."""
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(CAL_ITERS):
            acc += k * 0.5
        passes.append(time.perf_counter() - t0)
    return sorted(passes)[1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailure(f"exit code {code}")
    return buf.getvalue()


def check_report(text: str, trials: int) -> None:
    payload = json.loads(text[:text.rindex("}") + 1])
    if payload["trials"] != trials:
        raise OpFailure(f"report has {payload['trials']} trials, not {trials}")
    if not 0.0 <= payload["p_error_hat"] <= 1.0:
        raise OpFailure("p_error_hat outside [0, 1]")


# ---------------------------------------------------------------------------
# workloads: each names its op, the work one op does, how many ops a traced
# run makes (sized to about ten seconds at the baseline) and how many ops
# at the default seed have a recorded digest (about 30 s of work)


class McLongBlock:
    """CLI simulate at the acceptance-8 configuration, n = 2000."""

    name = "mc_long_block"
    unit = "channel_uses"
    n = 2000
    trials = 10
    trace_ops = 16
    reference_ops = 120

    def __init__(self, seed: int):
        self.seed = seed
        self.uses_per_block = self.n + 3

    def op(self, i: int) -> tuple[str, float]:
        text = run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                        "--rate-frac", "0.9", "--n", str(self.n),
                        "--trials", str(self.trials),
                        "--seed", str(op_seed(self.seed, i)), "--out", "-"])
        return text, self.trials * self.uses_per_block

    def check(self, text: str) -> None:
        check_report(text, self.trials)


class McShortBlock:
    """mc.run at the acceptance-10 configuration, n = 100, many trials."""

    name = "mc_short_block"
    unit = "channel_uses"
    n = 100
    trials = 1000
    trace_ops = 3
    reference_ops = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = channel.from_snr(10.0, 10.0, 10.0, 10.0)
        self.uses_per_block = self.n + 3

    def op(self, i: int) -> tuple[str, float]:
        params = coder.SchemeParams(cfg=self.cfg, n=self.n, r1=0.3, r2=0.3,
                                    beta1=1.0, beta2=1.0,
                                    seed=op_seed(self.seed, i))
        report = mc.run(mc.SimConfig(params=params, trials=self.trials,
                                     correlation_times=(1, 10, 100)))
        buf = io.StringIO()
        report.to_json(buf)
        return buf.getvalue(), self.trials * self.uses_per_block

    def check(self, text: str) -> None:
        check_report(text, self.trials)


class RegionBoundary:
    """CLI region at res 48 on a fresh seeded SNR quadruple per op."""

    name = "region_boundary"
    unit = "grid_pts"
    res = 48
    trace_ops = 3
    reference_ops = 10
    uses_per_block = 0

    def __init__(self, seed: int):
        self.seed = seed

    def snr(self, i: int) -> str:
        rng = np.random.default_rng([self.seed, i])
        return ",".join(f"{s:.6g}" for s in 10.0 ** rng.uniform(0.5, 1.5, 4))

    def op(self, i: int) -> tuple[str, float]:
        text = run_cli(["region", "--snr", self.snr(i), "--res",
                        str(self.res), "--out", "-"])
        return text, self.res ** 3

    def check(self, text: str) -> None:
        lines = text.splitlines()
        if not lines or lines[0] != region.CSV_HEADER or len(lines) < 2:
            raise OpFailure("region output lacks header or records")
        if any(line.count(",") != 5 for line in lines[1:]):
            raise OpFailure("region output row without 6 columns")


class RegionContains:
    """region.contains at grid 48 on seeded boundary triplets, SNR 10.

    Triplets alternate between the no-feedback boundary (res 32), which
    mostly hit on the grid, and the feedback boundary sampled at res 24,
    which more often needs refinement.  Indices follow a
    golden-ratio sequence from a seeded offset, so every prefix of the op
    stream covers each boundary evenly and the mix stays the same from run
    to run.  The region's grid is built by the first op and then shared,
    as for a user checking many triplets against one region.
    """

    name = "region_contains"
    unit = "triplets"
    grid_n = 48
    trace_ops = 480
    reference_ops = 1200
    uses_per_block = 0

    def __init__(self, seed: int):
        self.cfg = channel.from_snr(10.0, 10.0, 10.0, 10.0)
        nf = region.sample_boundary_records(self.cfg, feedback=False,
                                            resolution=32)
        fb = region.sample_boundary_records(self.cfg, feedback=True,
                                            resolution=24)
        self.sources = (nf, fb)
        self.offsets = np.random.default_rng(seed).uniform(0.0, 1.0, 2)

    def triplet(self, i: int) -> region.RateTriplet:
        s, k = i % 2, i // 2
        recs = self.sources[s]
        u = (self.offsets[s] + k * 0.6180339887498949) % 1.0
        return recs[int(u * len(recs))].triplet

    def op(self, i: int) -> tuple[str, float]:
        ok = region.contains(self.cfg, self.triplet(i), feedback=True,
                             grid_n=self.grid_n)
        if not isinstance(ok, bool):
            raise OpFailure(f"contains returned {ok!r}")
        return ("1" if ok else "0"), 1

    def check(self, text: str) -> None:
        pass


WORKLOADS = {w.name: w for w in (McLongBlock, McShortBlock, RegionBoundary,
                                 RegionContains)}


# ---------------------------------------------------------------------------


class Runner:
    """Runs ops of one workload, checking and digesting each output."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.reference = []
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text()).get(
                workload.name, [])
        self.times: list[float] = []
        self.ref_times: list[float] = []  # times rescaled to CAL_REF_S
        self.cal_s: list[float] = []
        self._cal_at = -math.inf
        self.op_units: list[float] = []
        self.digests: list[str] = []
        self.errors: list[str] = []
        self.failed = 0

    def run(self, i: int) -> None:
        if time.perf_counter() - self._cal_at >= CAL_EVERY_S:
            self.cal_s.append(calibrate())
            self._cal_at = time.perf_counter()
        t0 = time.perf_counter()
        try:
            text, units = self.w.op(i)
        except Exception as exc:  # any raise is a failed op, not a crash
            text, units = "", 0
            error = f"op {i}: {type(exc).__name__}: {exc}"
        else:
            error = None
        self.times.append(time.perf_counter() - t0)
        self.ref_times.append(self.times[-1] * CAL_REF_S / self.cal_s[-1])
        self.op_units.append(units)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.digests.append(digest)
        error = error or self._check(i, text, digest)
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)

    def _check(self, i: int, text: str, digest: str) -> str | None:
        if _NON_FINITE.search(text):
            return f"op {i}: non-finite value in output"
        try:
            self.w.check(text)
        except (OpFailure, ValueError, KeyError, TypeError) as exc:
            return f"op {i}: {exc}"
        if i < len(self.reference) and digest != self.reference[i]:
            return f"op {i}: digest {digest} != reference {self.reference[i]}"
        return None

    def windowed_rate(self, times: list[float]) -> float:
        """Median over consecutive windows of at least WINDOW_S of op time
        of (work units / op time).  A trailing partial window is dropped
        when there is a full one."""
        rates = []
        units = secs = 0.0
        for u, dt in zip(self.op_units, times):
            units += u
            secs += dt
            if secs >= WINDOW_S:
                rates.append(units / secs)
                units = secs = 0.0
        if not rates:
            rates.append(units / secs)
        return float(np.median(rates))

    def summary(self) -> dict:
        n = len(self.times)
        out = {"ops": n, "failed": self.failed,
               "calibration_s": float(np.median(self.cal_s))}
        for unit, times in (("s", self.times), ("ref_s", self.ref_times)):
            t = sorted(times)
            rate = self.windowed_rate(times)
            out[f"op_time_{unit}"] = sum(t)
            out[f"op_p50_{unit}"] = float(np.median(t))
            out[f"work_units_per_{unit}"] = rate
            out[f"{self.w.unit}_per_{unit}"] = rate
            if n >= 20:
                # the highest percentile with ten ops beyond it
                out[f"op_tail_{unit}"] = t[n - 11]
                out["op_tail_percentile"] = 100.0 * (n - 10) / n
        out["digests"] = self.digests
        out["errors"] = self.errors
        return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace",
                                       "reference"), required=True)
    ap.add_argument("--spans", default=None,
                    help="where trace mode writes its spans (.npz)")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)

    result: dict = {}
    if args.mode == "measure":
        runner = Runner(workload, args.seed)
        begin = time.perf_counter()
        runner.run(0)
        # what one CLI invocation would peak at; later ops can only add
        # entries that _grid_boxes's lru_cache keeps, more of them the
        # faster the ops run
        first_op_rss = peak_rss_mb()
        i = 1
        while i < MIN_OPS or time.perf_counter() - begin < args.seconds:
            runner.run(i)
            i += 1
        result = dict(runner.summary(), peak_rss_mb=first_op_rss)
    elif args.mode == "reference":
        runner = Runner(workload, args.seed)
        runner.reference = []
        for i in range(workload.reference_ops):
            runner.run(i)
        result = runner.summary()
    elif args.mode == "trace":
        traced = Runner(workload, args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            for i in range(workload.trace_ops):
                tracer.op_id = i
                traced.run(i)
        finally:
            tracer.uninstall()
        plain = Runner(workload, args.seed)
        for i in range(workload.trace_ops):
            plain.run(i)
        layers, absent = tracer.layer_metrics(workload.uses_per_block)
        t_traced, t_plain = sum(traced.ref_times), sum(plain.ref_times)
        layers["trace.overhead_frac"] = t_traced / t_plain - 1.0
        if args.spans:
            tracer.save(args.spans)
        result = {
            "traced": traced.summary(),
            "untraced": plain.summary(),
            "ops": len(traced.times) + len(plain.times),
            "failed": traced.failed + plain.failed,
            "spans": len(tracer.start),
            "layers": layers,
            "absent": absent,
        }
    result["python"] = platform.python_version()
    result["numpy"] = np.__version__
    result["peak_rss_end_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
