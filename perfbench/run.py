"""Benchmark of the gmac-seit region engine and Monte Carlo coder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in fresh
interpreters (perfbench/worker.py) with BLAS and OpenMP pinned to one
thread.  With --trace 0 the run times set-up in several interpreters and
then a closed loop of ops for S seconds, and prints the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it traces a fixed number of ops
and prints the per-layer metrics.  The line before the last holds the full
record of the run (machine, every op's output digest, tail latency, failed
fraction, absent layers); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --record-reference

rewrites perfbench/reference_digests.json, the output digests of the
first ops of each workload at the default seed, against which later runs
at that seed are checked byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC = Path("BENCHMARK.json")
PACKAGE = Path("src") / "gmac_seit"
WORKLOADS = ("mc_long_block", "mc_short_block", "region_boundary",
             "region_contains")
DEFAULT_SEED = 0
SETUP_RUNS = 9  # set-ups timed per run; setup_s is their median
TIME_LIMIT_S = 170.0  # the whole run, set-ups included


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was ready, its result).

    The worker is killed if it is still running at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, env=child_env(), text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if first.strip() != "ready" or not lines:
        raise ChildError(f"worker printed {first!r} and no result")
    return ready_s, json.loads(lines[-1])


def machine() -> dict:
    sha = None
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def metric_block(names: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names}


def bench(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads(SPEC.read_text())
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "seconds": args.seconds,
                    "machine": machine()}
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}.npz"
        _, res = run_child(base + ["--mode", "trace", "--spans", str(spans)],
                           deadline)
        values = res["layers"]
        metrics = metric_block(spec["per_layer"], values)
        record.update(res, spans_file=os.path.relpath(spans))
    else:
        setups = [run_child(base + ["--mode", "setup"], deadline)[0]
                  for _ in range(SETUP_RUNS - 1)]
        ready_s, res = run_child(base + ["--mode", "measure"], deadline)
        setups.append(ready_s)
        values = dict(res, setup_s=statistics.median(setups))
        metrics = metric_block(spec["end_to_end"], values)
        record.update(values, setup_runs_s=setups,
                      fail_frac=res["failed"] / res["ops"])
    print(json.dumps(record))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["ops"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def record_reference() -> int:
    digests = {}
    for name in WORKLOADS:
        _, res = run_child(["--workload", name, "--seed", str(DEFAULT_SEED),
                            "--mode", "reference"], time.monotonic() + 600.0)
        if res["failed"]:
            print(f"{name}: {res['errors']}", file=sys.stderr)
            return 1
        digests[name] = res["digests"]
        print(f"{name}: {len(res['digests'])} digests", file=sys.stderr)
    (HERE / "reference_digests.json").write_text(
        json.dumps(digests, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file() or not SPEC.is_file():
        print(f"run from the root of a checkout: {PACKAGE} or {SPEC} "
              "not found", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
