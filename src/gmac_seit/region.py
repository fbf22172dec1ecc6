"""Closed-form information-energy capacity-region engine.

Everything here is a pure function of a ChannelConfig.  Rate bounds for a
fixed power split (beta1, beta2) and input correlation rho form a box
(RegionBoxFB); the capacity region is the union of those boxes.  The
module also carries the scalar root-finders (rho*, rho_alpha), the
piecewise sum-capacity formulas with and without feedback, a time-sharing
baseline, and the feedback energy-gain analytics.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelConfig, max_energy_rate

log2 = math.log2

_RHO_TOL = 1e-12


class InfeasibleEnergyRateError(ValueError):
    """Requested energy rate exceeds the feasibility bound."""


class DegenerateSnrError(ValueError):
    """Operation undefined when an information SNR is zero."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class OperatingPoint:
    """Power splits and input correlation parameterizing one rate box."""

    beta1: float
    beta2: float
    rho: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")


@dataclass(frozen=True)
class RateTriplet:
    """Two information rates (bits/use) and one energy rate."""

    r1: float
    r2: float
    b: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.b < 0:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class RegionBoxFB:
    """Right-hand sides of the four region constraints at one operating point."""

    r1_max: float
    r2_max: float
    rsum_max: float
    b_max: float

    def dominates(self, t: RateTriplet) -> bool:
        return (t.r1 <= self.r1_max and t.r2 <= self.r2_max
                and t.r1 + t.r2 <= self.rsum_max and t.b <= self.b_max)


@dataclass(frozen=True)
class AsymmetryRatios:
    """SNR ratios nu_i = SNR_1i/SNR_1j, eta_i = SNR_2i/SNR_2j, psi_i = SNR_2i/SNR_1i."""

    nu_i: float
    eta_i: float
    psi_i: float

    def __post_init__(self):
        for name in ("nu_i", "eta_i", "psi_i"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be strictly positive and finite")

    @classmethod
    def from_config(cls, cfg: ChannelConfig, i: int = 1) -> "AsymmetryRatios":
        j = 2 if i == 1 else 1
        s1i, s1j = cfg.snr(1, i), cfg.snr(1, j)
        s2i, s2j = cfg.snr(2, i), cfg.snr(2, j)
        return cls(nu_i=s1i / s1j, eta_i=s2i / s2j, psi_i=s2i / s1i)


@dataclass(frozen=True)
class BoundarySample:
    """A Pareto-dominant rate triplet together with the operating point behind it."""

    beta1: float
    beta2: float
    rho: float
    r1: float
    r2: float
    b: float

    @property
    def triplet(self) -> RateTriplet:
        return RateTriplet(self.r1, self.r2, self.b)


# ---------------------------------------------------------------------------
# correlation root-finders


def phi(cfg: ChannelConfig, beta1: float, beta2: float, rho: float) -> float:
    """Sum-bound minus product-of-individual-bounds, both exponentiated.

    phi(0) < 0 < phi(1) whenever beta1*SNR11 and beta2*SNR12 are positive,
    so the sum-rate-optimal correlation rho* is its unique root in (0,1).
    """
    a = beta1 * cfg.snr11
    c = beta2 * cfg.snr12
    lhs = 1.0 + a + c + 2.0 * rho * math.sqrt(a * c)
    rhs = (1.0 + a * (1.0 - rho * rho)) * (1.0 + c * (1.0 - rho * rho))
    return lhs - rhs


def _bisect_root(f, lo: float, hi: float, tol: float = _RHO_TOL) -> float:
    """Bracketed bisection; assumes f(lo) < 0 < f(hi)."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_rho_star(cfg: ChannelConfig, beta1: float, beta2: float) -> float:
    """Root of phi in (0,1), or 0 when either IC component carries no power."""
    if beta1 * cfg.snr11 <= 0.0 or beta2 * cfg.snr12 <= 0.0:
        return 0.0
    return _bisect_root(lambda r: phi(cfg, beta1, beta2, r), 0.0, 1.0)


def solve_rho_alpha(cfg: ChannelConfig, alpha1: float, beta1: float,
                    beta2: float) -> float:
    """Optimal IC correlation when transmitter 1 rate-splits a fraction alpha1.

    alpha1 = 1 collapses to rho*(beta1, beta2); a zero split or zero
    information SNR collapses to 0.
    """
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError("alpha1 outside [0,1]")
    if beta1 * cfg.snr11 <= 0.0 or beta2 * cfg.snr12 <= 0.0:
        return 0.0
    if alpha1 == 1.0:
        return solve_rho_star(cfg, beta1, beta2)
    d = 1.0 + alpha1 * beta1 * cfg.snr11
    a = (1.0 - alpha1) * beta1 * cfg.snr11
    c = beta2 * cfg.snr12

    def g(x: float) -> float:
        lhs = 1.0 + (a + c + 2.0 * x * math.sqrt(a * c)) / d
        rhs = (1.0 + a * (1.0 - x * x) / d) * (1.0 + c * (1.0 - x * x) / d)
        return lhs - rhs

    return _bisect_root(g, 0.0, 1.0)


# ---------------------------------------------------------------------------
# energy-rate constraints


def _check_feasible_b(cfg: ChannelConfig, b: float) -> float:
    bmax = max_energy_rate(cfg)
    if b > bmax + 1e-9 * max(1.0, bmax):
        raise InfeasibleEnergyRateError(
            f"energy rate {b} exceeds feasibility bound {bmax}")
    return bmax


def xi(cfg: ChannelConfig, b: float) -> float:
    """Minimum input correlation needed to sustain energy rate b at full power."""
    _check_feasible_b(cfg, b)
    s21, s22 = cfg.snr21, cfg.snr22
    excess = b - (1.0 + s21 + s22)
    if excess <= 0.0:
        return 0.0
    denom = 2.0 * math.sqrt(s21 * s22)
    if denom == 0.0:
        # formula divides by zero; b > 1+s21+s22 is infeasible here anyway
        raise InfeasibleEnergyRateError(
            f"energy rate {b} infeasible with SNR21*SNR22 = 0")
    return min(1.0, excess / denom)


def rho_min(cfg: ChannelConfig, beta1: float, beta2: float, b: float) -> float:
    """Smallest IC correlation delivering b at power split (beta1, beta2)."""
    if beta1 <= 0.0 or beta2 <= 0.0:
        raise ValueError("rho_min requires beta1 > 0 and beta2 > 0")
    _check_feasible_b(cfg, b)
    s21, s22 = cfg.snr21, cfg.snr22
    nic = 2.0 * math.sqrt((1.0 - beta1) * s21 * (1.0 - beta2) * s22)
    excess = b - (1.0 + s21 + s22 + nic)
    if excess <= 0.0:
        return 0.0
    denom = 2.0 * math.sqrt(beta1 * s21 * beta2 * s22)
    if denom == 0.0:
        return 1.0
    return min(1.0, excess / denom)


# ---------------------------------------------------------------------------
# per-operating-point rate boxes


def region_box_fb(cfg: ChannelConfig, op: OperatingPoint) -> RegionBoxFB:
    b1, b2, rho = op.beta1, op.beta2, op.rho
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    om = 1.0 - rho * rho
    r1 = 0.5 * log2(1.0 + b1 * s11 * om)
    r2 = 0.5 * log2(1.0 + b2 * s12 * om)
    rsum = 0.5 * log2(1.0 + b1 * s11 + b2 * s12
                      + 2.0 * rho * math.sqrt(b1 * s11 * b2 * s12))
    bmax = (1.0 + s21 + s22 + 2.0 * rho * math.sqrt(b1 * s21 * b2 * s22)
            + 2.0 * math.sqrt((1.0 - b1) * s21 * (1.0 - b2) * s22))
    return RegionBoxFB(r1_max=r1, r2_max=r2, rsum_max=rsum, b_max=bmax)


def region_box_nf(cfg: ChannelConfig, beta1: float, beta2: float) -> RegionBoxFB:
    # no feedback: rho = 0 in the rate bounds and no correlated-IC energy term
    return region_box_fb(cfg, OperatingPoint(beta1, beta2, 0.0))


# ---------------------------------------------------------------------------
# region membership


@lru_cache(maxsize=32)
def _grid_boxes(cfg: ChannelConfig, feedback: bool, grid_n: int):
    """Flattened region-box bounds over the uniform operating-point grid."""
    g = np.linspace(0.0, 1.0, grid_n)
    rho_axis = g if feedback else np.zeros(1)
    b1, b2, rho = np.meshgrid(g, g, rho_axis, indexing="ij")
    b1, b2, rho = b1.ravel(), b2.ravel(), rho.ravel()
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    om = 1.0 - rho * rho
    r1b = 0.5 * np.log2(1.0 + b1 * s11 * om)
    r2b = 0.5 * np.log2(1.0 + b2 * s12 * om)
    rsb = 0.5 * np.log2(1.0 + b1 * s11 + b2 * s12
                        + 2.0 * rho * np.sqrt(b1 * s11 * b2 * s12))
    ic = rho * np.sqrt(b1 * s21 * b2 * s22) if feedback else 0.0
    bb = (1.0 + s21 + s22 + 2.0 * ic
          + 2.0 * np.sqrt((1.0 - b1) * s21 * (1.0 - b2) * s22))
    return b1, b2, rho, r1b, r2b, rsb, bb


def _slack(cfg: ChannelConfig, t: RateTriplet, feedback: bool,
           beta1: float, beta2: float, rho: float) -> float:
    if not feedback:
        rho = 0.0
    box = region_box_fb(cfg, OperatingPoint(beta1, beta2, rho))
    return min(box.r1_max - t.r1, box.r2_max - t.r2,
               box.rsum_max - (t.r1 + t.r2), box.b_max - t.b)


def _refine_coord(f, x: float, lo: float, hi: float, iters: int = 40) -> float:
    """Golden-section maximization of f over [lo, hi], seeded at x."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    best = 0.5 * (a + b)
    return best if f(best) >= f(x) else x


def contains(cfg: ChannelConfig, t: RateTriplet, feedback: bool = True,
             grid_n: int = 32) -> bool:
    """One-sided membership certificate for t in the capacity region.

    True means some operating point on (or refined near) a grid_n^3 grid
    dominates t; False only means none was found at this resolution.
    Comparisons carry a 1e-9 relative slack so that triplets sitting exactly
    on a box face (a closure point) are not rejected by roundoff.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    eps = 1e-9 * max(1.0, t.r1, t.r2, t.b)
    b1g, b2g, rhog, r1b, r2b, rsb, bb = _grid_boxes(cfg, feedback, grid_n)
    ok = ((r1b >= t.r1 - eps) & (r2b >= t.r2 - eps)
          & (rsb >= t.r1 + t.r2 - eps) & (bb >= t.b - eps))
    if bool(ok.any()):
        return True
    slack = np.minimum.reduce(
        [r1b - t.r1, r2b - t.r2, rsb - (t.r1 + t.r2), bb - t.b])
    h = 1.0 / (grid_n - 1)
    coords = (0, 1, 2) if feedback else (0, 1)
    # multi-start: the global slack argmax can sit in the wrong basin, so
    # refine from the best grid point of every rho-slice
    n_rho = grid_n if feedback else 1
    per_rho = slack.reshape(grid_n * grid_n, n_rho)
    for j in range(n_rho):
        k = int(np.argmax(per_rho[:, j])) * n_rho + j
        pt = [float(b1g[k]), float(b2g[k]), float(rhog[k])]
        for _ in range(2):
            for c in coords:
                lo, hi = max(0.0, pt[c] - h), min(1.0, pt[c] + h)

                def f(v, c=c):
                    q = list(pt)
                    q[c] = v
                    return _slack(cfg, t, feedback, *q)

                pt[c] = _refine_coord(f, pt[c], lo, hi)
        if _slack(cfg, t, feedback, *pt) >= -eps:
            return True
    return False


# ---------------------------------------------------------------------------
# capacity formulas in b


def max_individual_rate(cfg: ChannelConfig, i: int, b: float) -> float:
    """Largest single-user rate at energy rate b; same with or without feedback."""
    if i not in (1, 2):
        raise ValueError("transmitter index must be 1 or 2")
    x = xi(cfg, b)
    return 0.5 * log2(1.0 + (1.0 - x * x) * cfg.snr(1, i))


def sum_capacity_fb(cfg: ChannelConfig, b: float) -> float:
    """Information sum-capacity with feedback at energy rate b (0 beyond max)."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    rs = solve_rho_star(cfg, 1.0, 1.0)
    edge = 1.0 + s21 + s22 + 2.0 * rs * math.sqrt(s21 * s22)
    if b <= edge:
        return 0.5 * log2(1.0 + s11 + s12 + 2.0 * rs * math.sqrt(s11 * s12))
    bmax = max_energy_rate(cfg)
    if b < bmax:
        x = xi(cfg, b)
        om = 1.0 - x * x
        return 0.5 * log2(1.0 + om * s11) + 0.5 * log2(1.0 + om * s12)
    return 0.0


def sum_capacity_nf(cfg: ChannelConfig, b: float) -> float:
    """Information sum-capacity without feedback at energy rate b."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    if s11 > 0.0 and s12 > 0.0:
        ratio = math.sqrt(min(s11, s12) / max(s11, s12))
    else:
        ratio = 0.0
    edge = 1.0 + s21 + s22 + 2.0 * math.sqrt(s21 * s22) * ratio
    bmax = max_energy_rate(cfg)
    if b <= edge:
        x = xi(cfg, min(b, bmax))
        return 0.5 * log2(1.0 + s11 + s12 - 2.0 * x * math.sqrt(s11 * s12))
    if b < bmax:
        x = xi(cfg, b)
        s = s11 if s11 >= s12 else s12  # argmax, ties toward transmitter 1
        return 0.5 * log2(1.0 + (1.0 - x * x) * s)
    return 0.0


def time_sharing_sum_rate(cfg: ChannelConfig, b: float, grid_n: int = 101) -> float:
    """Grid lower bound on the best time-sharing sum rate at energy rate b.

    A fraction lam of the block carries information at powers (p1a, p2a);
    the rest sends deterministic max-amplitude energy signals at powers
    (p1b, p2b), chosen to saturate the average power constraint.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    _check_feasible_b(cfg, b)
    h11, h12, h21, h22 = cfg.h11, cfg.h12, cfg.h21, cfg.h22
    p1, p2 = cfg.p1, cfg.p2
    best = 0.0  # lam = 0 (pure energy) always meets any feasible b
    for lam in np.linspace(0.0, 1.0, grid_n)[1:]:
        p1a, p2a = np.meshgrid(np.linspace(0.0, p1 / lam, grid_n),
                               np.linspace(0.0, p2 / lam, grid_n), indexing="ij")
        if lam < 1.0:
            # rounding can push the residual power a hair below zero
            p1b = np.maximum(0.0, (p1 - lam * p1a) / (1.0 - lam))
            p2b = np.maximum(0.0, (p2 - lam * p2a) / (1.0 - lam))
            energy_off = (h21 * np.sqrt(p1b) + h22 * np.sqrt(p2b)) ** 2
        else:
            energy_off = 0.0
        energy = 1.0 + lam * (h21**2 * p1a + h22**2 * p2a) \
            + (1.0 - lam) * energy_off
        feas = energy >= b - 1e-12
        if not feas.any():
            continue
        obj = (lam / 2.0) * np.log2(1.0 + h11**2 * p1a + h12**2 * p2a)
        best = max(best, float(obj[feas].max()))
    return best


# ---------------------------------------------------------------------------
# feedback energy-gain analytics


def b_fb_at_nf_sum_capacity(cfg: ChannelConfig) -> tuple[float, float]:
    """(gamma, b_fb): largest energy rate compatible with the no-feedback
    maximum sum rate when feedback is available.

    gamma is the fraction of each power budget that must stay on the IC
    component; b_fb follows from putting the remaining 1-gamma on the
    coherent NIC component.
    """
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    if s11 <= 0.0 or s12 <= 0.0:
        raise DegenerateSnrError("requires SNR11 > 0 and SNR12 > 0")
    gamma = ((s11 + s12) / (2.0 * s11 * s12)) * (
        math.sqrt(1.0 + 4.0 * s11 * s12 / (s11 + s12)) - 1.0)
    b_fb = 1.0 + s21 + s22 + 2.0 * math.sqrt((1.0 - gamma) * s21 * s22)
    return gamma, b_fb


def feedback_gain_ratio(cfg: ChannelConfig) -> float:
    """Ratio b_fb / b_nf of guaranteeable energy rates at the NF sum capacity."""
    gamma, _ = b_fb_at_nf_sum_capacity(cfg)
    s21, s22 = cfg.snr21, cfg.snr22
    return 1.0 + 2.0 * math.sqrt((1.0 - gamma) * s21 * s22) / (1.0 + s21 + s22)


def gain_ratio_limit_high_snr(ratios: AsymmetryRatios) -> float:
    """High-SNR limit of feedback_gain_ratio; depends only on eta."""
    eta = ratios.eta_i
    return 1.0 + 2.0 * math.sqrt(eta) / (1.0 + eta)


# ---------------------------------------------------------------------------
# boundary sampling and serialization


def _pareto_filter(rows: np.ndarray) -> list[BoundarySample]:
    """Keep triplets maximal in (r1, r2, b); rows are (beta1,beta2,rho,r1,r2,b)."""
    rows = np.unique(rows, axis=0)
    order = np.lexsort((-rows[:, 3], -rows[:, 4], -rows[:, 5]))
    # staircase over (r1, r2) of points already accepted with b >= current
    xs: list[float] = []  # r1, ascending
    ys: list[float] = []  # r2, strictly decreasing
    out: list[BoundarySample] = []
    for k in order:
        b1, b2, rho, r1, r2, b = (float(v) for v in rows[k])
        i = bisect.bisect_left(xs, r1)
        if i < len(xs) and ys[i] >= r2:
            continue  # dominated by an earlier (higher-b) point
        out.append(BoundarySample(b1, b2, rho, r1, r2, b))
        stop = i + 1 if i < len(xs) and xs[i] == r1 else i
        j = i
        while j > 0 and ys[j - 1] <= r2:
            j -= 1
        xs[j:stop] = [r1]
        ys[j:stop] = [r2]
    return out


def sample_boundary_records(cfg: ChannelConfig, feedback: bool = True,
                            resolution: int = 32) -> list[BoundarySample]:
    """Pareto-dominant corner triplets of the region boxes on a uniform grid."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    b1g, b2g, rhog, r1b, r2b, rsb, bb = _grid_boxes(cfg, feedback, resolution)
    if not all(np.isfinite(a).all() for a in (r1b, r2b, rsb, bb)):
        raise ValueError("region bounds overflow float64 at these SNRs")
    # four rate-pair corners of each box's pentagon, each paired with b_max
    c1 = np.clip(rsb - r1b, 0.0, r2b)
    c2 = np.clip(rsb - r2b, 0.0, r1b)
    zeros = np.zeros_like(r1b)
    r1s = np.concatenate([r1b, c2, r1b, zeros])
    r2s = np.concatenate([c1, r2b, zeros, r2b])
    ops = np.concatenate([np.stack([b1g, b2g, rhog], axis=1)] * 4)
    bs = np.concatenate([bb] * 4)
    rows = np.column_stack([ops, r1s, r2s, bs])
    return _pareto_filter(rows)


def sample_boundary(cfg: ChannelConfig, feedback: bool = True,
                    resolution: int = 32) -> list[RateTriplet]:
    return [rec.triplet for rec in
            sample_boundary_records(cfg, feedback, resolution)]


CSV_HEADER = "beta1,beta2,rho,r1,r2,b"
_FIELDS = CSV_HEADER.split(",")


def records_to_csv(records, fh) -> None:
    """Write boundary samples as CSV with the mandatory header, 17 sig digits."""
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        fh.write(",".join(f"{getattr(rec, f):.17g}" for f in _FIELDS) + "\n")


def records_to_json(records, fh) -> None:
    payload = [{f: getattr(rec, f) for f in _FIELDS} for rec in records]
    json.dump(payload, fh, indent=1)
    fh.write("\n")


def records_from_csv(fh) -> list[BoundarySample]:
    header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}, got {header!r}")
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        vals = [float(v) for v in line.split(",")]
        if len(vals) != 6:
            raise ValueError(f"expected 6 columns, got {len(vals)}")
        out.append(BoundarySample(*vals))
    return out
