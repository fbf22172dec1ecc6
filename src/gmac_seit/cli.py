"""Command-line front end: emits region/capacity/ratio/simulation data files.

Exit codes: 0 success, 1 some --verify-contains triplet not found in the
region, 2 usage error (including a request too large to allocate),
3 infeasible energy rate, 4 I/O error.  Every input, a --verify-contains
file included, is read and checked before the output file is opened, so
a rejected input leaves no data file behind.
The default simulation seed can be set via the GMAC_SEIT_SEED environment
variable, which only simulate reads; an explicit --seed flag wins, and a
value that is not a nonnegative integer exits 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import channel, coder, mc, region

EXIT_OK = 0
EXIT_NOT_CONTAINED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE_B = 3
EXIT_IO = 4

def _parse_tuple(text: str, k: int, name: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != k:
        raise argparse.ArgumentTypeError(
            f"{name} needs {k} comma-separated values, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {name}: {exc}") from None
    return vals


def _snr_quad(text: str):
    return _parse_tuple(text, 4, "--snr")


def _pair(text: str):
    return _parse_tuple(text, 2, "pair flag")


def _write(path, emit) -> None:
    """emit(fh) to stdout for None or "-", else to the file at path."""
    if path is None or path == "-":
        emit(sys.stdout)
        return
    with open(path, "w", encoding="ascii") as fh:
        emit(fh)


def _format_column(col: np.ndarray, end: str) -> np.ndarray:
    """col's values as %.17g strings, each followed by end, as an object
    array of cells; each distinct value is formatted, with end, once.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    strings.  A region table repeats most of its values (beta1, beta2 and
    rho take at most res values each), so far fewer values are formatted
    than the column has rows.  The distinct values go through one %
    operation, NUL after each cell, and one split, which saves a Python
    call per value.
    """
    bits, inv = np.unique(col.view(np.int64), return_inverse=True)
    vals = tuple(bits.view(np.float64).tolist())
    text = ((("%.17g" + end + "\0") * len(vals)) % vals).split("\0")
    text.pop()  # the empty string after the last NUL
    return np.array(text, dtype=object)[inv]


def _write_table(path, fmt: str, names: tuple[str, ...],
                 table: np.ndarray) -> None:
    """Write the rows of a 2-D float array as CSV (17 significant digits)
    or a JSON list.

    The CSV body is one join of a flat list of cells, each cell a value
    with the comma or newline that follows it (_format_column).  A table
    holding an inf or nan is refused before the file is opened.
    """
    bad = ~np.isfinite(table)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        j = int(np.flatnonzero(bad[i])[0])
        raise ValueError(f"{names[j]} is {table[i, j]} at "
                         f"{names[0]}={table[i, 0]:.17g}; no data file written")

    def emit(fh):
        if fmt == "csv":
            cells = np.empty(table.shape, dtype=object)
            last = table.shape[1] - 1
            for j, col in enumerate(table.T):
                cells[:, j] = _format_column(col, "\n" if j == last else ",")
            fh.write(",".join(names) + "\n")
            fh.write("".join(cells.ravel().tolist()))
        else:
            json.dump([dict(zip(names, row)) for row in table.tolist()], fh,
                      indent=1)
            fh.write("\n")

    _write(path, emit)


def cmd_region(args) -> int:
    cfg = channel.from_snr(*args.snr)
    if args.verify_contains is not None:
        # read and check the other file before any output is written
        with open(args.verify_contains, "r", encoding="ascii") as fh:
            triplets = [region.RateTriplet(*row[3:]) for row in
                        region.records_from_csv(fh).tolist()]
    table = region.boundary_table(cfg, feedback=args.feedback,
                                  resolution=args.res)
    _write_table(args.out, args.format, region.BoundarySample._fields, table)
    if args.verify_contains is not None:
        bad = sum(not region.contains(cfg, t, feedback=args.feedback,
                                      grid_n=args.res) for t in triplets)
        if bad:
            print(f"verify-contains: {bad} of {len(triplets)} triplets "
                  "not found in this region", file=sys.stderr)
            return EXIT_NOT_CONTAINED
        print(f"verify-contains: all {len(triplets)} triplets contained",
              file=sys.stderr)
    return EXIT_OK


def _check_points(points: int) -> None:
    if points < 0:
        raise ValueError(f"--points must be nonnegative, got {points}")


def cmd_sumcap(args) -> int:
    cfg = channel.from_snr(*args.snr)
    if args.bmax is not None and not 0.0 <= args.bmax < math.inf:
        raise ValueError("--bmax must be finite and nonnegative")
    _check_points(args.points)
    bmax = args.bmax if args.bmax is not None else channel.max_energy_rate(cfg)
    grid = np.linspace(0.0, bmax, args.points)
    names = ("b", "rsum_fb", "rsum_nf")
    rows = [(b, region.sum_capacity_fb(cfg, b), region.sum_capacity_nf(cfg, b))
            for b in grid]
    if args.timeshare:
        names += ("rsum_timeshare",)
        rows = [row + (region.time_sharing_sum_rate(cfg, row[0]),)
                for row in rows]
    _write_table(args.out, args.format, names,
                 np.array(rows, dtype=np.float64).reshape(-1, len(names)))
    return EXIT_OK


def cmd_ratio(args) -> int:
    # co-located sweep: transmitter i has the same SNR toward both receivers;
    # --asym k scales transmitter 1's SNR to k times transmitter 2's
    for name, snr in (("--snr-min", args.snr_min), ("--snr-max", args.snr_max)):
        if not 0.0 < snr < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {snr}")
    if not 0.0 < args.asym < math.inf:
        raise ValueError(f"--asym must be finite and positive, "
                         f"got {args.asym}")
    _check_points(args.points)
    grid = np.logspace(math.log10(args.snr_min), math.log10(args.snr_max),
                       args.points)
    # s and transmitter 1's SNR, asym * s, rise along the grid, so its
    # ends bound them
    ends = (("--snr-min", args.snr_min, 0), ("--snr-max", args.snr_max, -1))
    for name, value, i in ends if len(grid) else ():
        s = float(grid[i])
        if not s < math.inf:
            raise ValueError(f"{name} must be finite and positive on the "
                             f"sweep's log grid, where {value!r} reads {s}")
        if not 0.0 < args.asym * s < math.inf:
            raise ValueError(f"--asym must be finite and positive times "
                             f"every SNR, got {args.asym} * {s:.17g} = "
                             f"{args.asym * s}")
    # the limit at the --asym asked for, not at the config's SNR21 / SNR22
    limit = region.gain_ratio_limit_high_snr(args.asym)
    rows = [(s, region.feedback_gain_ratio(channel.from_snr(
        args.asym * s, s, args.asym * s, s)), limit) for s in grid]
    _write_table(args.out, args.format, ("snr", "ratio", "limit_high_snr"),
                 np.array(rows, dtype=np.float64).reshape(-1, 3))
    return EXIT_OK


def _seed(args) -> int:
    """--seed if given, else GMAC_SEIT_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("GMAC_SEIT_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError("GMAC_SEIT_SEED must be a nonnegative integer, "
                         f"got {text!r}")
    return seed


def cmd_simulate(args) -> int:
    cfg = channel.from_snr(*args.snr)
    beta1, beta2 = args.beta
    seed = _seed(args)
    if args.rate is not None:
        r1, r2 = args.rate
    else:
        params0 = coder.SchemeParams(cfg=cfg, n=args.n, r1=0.0, r2=0.0,
                                     beta1=beta1, beta2=beta2, seed=seed)
        rs = params0.rho_star()
        om = 1.0 - rs * rs
        r1 = args.rate_frac * 0.5 * math.log2(1.0 + beta1 * cfg.snr11 * om)
        r2 = args.rate_frac * 0.5 * math.log2(1.0 + beta2 * cfg.snr12 * om)
    params = coder.SchemeParams(cfg=cfg, n=args.n, r1=r1, r2=r2,
                                beta1=beta1, beta2=beta2, seed=seed)
    sc = mc.SimConfig(params=params, trials=args.trials,
                      target_b=args.target_b, epsilon=args.epsilon)
    report = mc.run(sc)
    # refused before the file is opened, as _write_table refuses a table
    for name, value in vars(report).items():
        values = (value.values() if isinstance(value, dict)
                  else value if isinstance(value, tuple) else (value,))
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{name} is {bad[0]}; no data file written")
    _write(args.out, report.to_json)
    print(f"p_error_hat={report.p_error_hat:.6g} "
          f"mean_b={report.mean_b:.6g} outage_hat={report.outage_hat:.6g}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; it reads no environment, so one serves the process."""
    parser = argparse.ArgumentParser(
        prog="gmac-seit",
        description="Information-energy capacity regions of the two-user "
                    "Gaussian MAC with feedback, and a Monte Carlo simulator "
                    "of the feedback coding scheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="sample the Pareto boundary of the "
                                      "information-energy region")
    p.add_argument("--snr", type=_snr_quad, required=True,
                   metavar="S11,S12,S21,S22")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--feedback", dest="feedback", action="store_true",
                     default=True)
    grp.add_argument("--no-feedback", dest="feedback", action="store_false")
    p.add_argument("--res", type=int, default=32)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--verify-contains", metavar="CSV", default=None,
                   help="check every triplet of this boundary CSV for "
                        "membership in the region being sampled; exit 1 "
                        "if any is not found")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sumcap", help="sum-capacity vs energy rate, with "
                                      "and without feedback")
    p.add_argument("--snr", type=_snr_quad, required=True,
                   metavar="S11,S12,S21,S22")
    p.add_argument("--bmax", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--timeshare", action="store_true",
                   help="add the time-switching baseline as column "
                        "rsum_timeshare")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sumcap)

    p = sub.add_parser("ratio", help="feedback energy-gain ratio sweep "
                                     "(co-located receivers)")
    p.add_argument("--snr-min", type=float, default=1e-6)
    p.add_argument("--snr-max", type=float, default=1e6)
    p.add_argument("--points", type=int, default=61)
    p.add_argument("--asym", type=float, default=1.0,
                   help="transmitter-1 SNR as a multiple of transmitter-2 SNR")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("simulate", help="Monte Carlo run of the feedback "
                                        "coding scheme")
    p.add_argument("--snr", type=_snr_quad, required=True,
                   metavar="S11,S12,S21,S22")
    p.add_argument("--beta", type=_pair, required=True, metavar="B1,B2")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rate", type=_pair, metavar="R1,R2")
    grp.add_argument("--rate-frac", type=float,
                     help="per-user rate as a fraction of the scheme's "
                          "large-n rate limit")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="default: GMAC_SEIT_SEED, else 0")
    p.add_argument("--target-b", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow in the closed forms is reported once, by _write_table's
        # refusal of non-finite values, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except region.InfeasibleEnergyRateError as exc:
        print(f"infeasible energy rate: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_B
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # e.g. a region --res whose grid cannot be allocated
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
