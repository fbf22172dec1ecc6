"""Closed-form information-energy capacity-region engine.

Everything here is a pure function of a ChannelConfig.  Rate bounds for a
fixed power split (beta1, beta2) and input correlation rho form a box,
written once as _boxes over arrays or floats; the capacity region is the
union of those boxes.  The module also carries the sum-rate-optimal
correlation rho*, the energy-rate correlation bound xi, the
piecewise sum-capacity formulas with and without feedback, the
time-switching baseline in closed form (an information phase of
independent full-power inputs, an energy phase of the coherent full-power
signal), the feedback energy-gain analytics, and the Pareto boundary
sample behind the region CSV.  No function here reads the gains or powers
of a ChannelConfig, only its SNRs.

Both grids, membership's and the boundary's, are one builder's _boxes on
broadcast (beta1, beta2, rho) axes, never a meshgrid, refused where a
bound overflows float64: r1 depends on (beta1, rho) and r2 on (beta2,
rho) only, so only rsum and b are full grids.  The membership grid is
cached rho-major, and so is a cover of its maxima, built on the first
contains call per grid: grid points, a tenth or less of them at grid 48,
such that each grid point's four bounds are at most those of one of
them.  contains tests the cover, which a triplet hits iff it hits the
grid: a bisect finds the triplet's b rank in the cover's b row, a Python
loop tests the first columns from it as floats, and numpy the rest only
if none of them hits.  On a miss it refines from the best point of every
slice of the full grid, one coordinate pass at a time.  Before each pass
it drops the starts whose slack cannot reach t anywhere in the box they
can still reach, by a bound monotone in each coordinate, so no verdict
moves; a pass scores its probes through a line kernel that evaluates the
terms free of its coordinate once.

The boundary is a 3-D maxima sweep over the two sum-rate corners of each
grid point's box, one row per point where the two are equal (a slack sum
bound).  The rows are ordered by (-b, -r2, -r1, row index): the grid is
sorted by -b with an unstable SIMD argsort and each run of equal b is put
back in index order.  The rest streams through the b-sorted points in
chunks of whole runs of equal b, about a sixteenth of the grid each:
a chunk's corners are formed from the r1 and r2 planes and the rsum grid,
cheap stable passes order its ties in r2 and r1, and a block-wise sweep
keeps the rows that no earlier row dominates, its staircase carried from
chunk to chunk.  So only b, rsum and the b order are grid-sized; where
every b is equal (SNR21 = 0, say) the one chunk is the whole grid.  The
kept rows form one (K, 6) array that the CLI writes formatting each
distinct value of a column once.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import ChannelConfig, max_energy_rate, _sqrt_product

log2 = math.log2

_RHO_TOL = 1e-12


class InfeasibleEnergyRateError(ValueError):
    """Requested energy rate exceeds the feasibility bound."""


class DegenerateSnrError(ValueError):
    """Operation undefined when an information SNR is zero, or when the
    product of the two underflows to zero."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class RateTriplet:
    """Two information rates (bits/use) and one energy rate."""

    r1: float
    r2: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.r1 < math.inf and 0.0 <= self.r2 < math.inf
                and 0.0 <= self.b < math.inf):
            raise ValueError("rates must be finite and nonnegative")


class BoundarySample(NamedTuple):
    """One region CSV row: a Pareto-dominant rate triplet and its operating point."""

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
    lhs = 1.0 + a + c + 2.0 * rho * _sqrt_product(a, c)
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


# ---------------------------------------------------------------------------
# energy-rate constraints


def _check_feasible_b(cfg: ChannelConfig, b: float) -> float:
    """b_max, after refusing a NaN b, and a b past b_max by more than a
    1e-9 relative tolerance."""
    if math.isnan(b):
        raise ValueError("energy rate must be a number")
    bmax = max_energy_rate(cfg)
    if b > bmax + 1e-9 * max(1.0, bmax):
        raise InfeasibleEnergyRateError(
            f"energy rate {b} exceeds feasibility bound {bmax}")
    return bmax


def xi(cfg: ChannelConfig, b: float) -> float:
    """Minimum input correlation needed to sustain energy rate b at full
    power: b's excess over independent inputs' energy, per unit of the
    coherent part's, clipped to [0, 1]."""
    _check_feasible_b(cfg, b)
    s21, s22 = cfg.snr21, cfg.snr22
    excess = b - (1.0 + s21 + s22)
    if excess <= 0.0:
        return 0.0
    coherent = 2.0 * _sqrt_product(s21, s22)
    if coherent == 0.0:
        raise InfeasibleEnergyRateError(
            f"energy rate {b} infeasible with SNR21*SNR22 = 0")
    return min(1.0, excess / coherent)


# ---------------------------------------------------------------------------
# per-operating-point rate boxes


def _boxes(cfg: ChannelConfig, b1, b2, rho):
    """Region-box bounds (r1_max, r2_max, rsum_max, b_max) at operating
    points given as arrays or floats, bit for bit alike: the one place the
    box closed form is written."""
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    a, c = b1 * s11, b2 * s12  # same association as written out in full
    om = 1.0 - rho * rho
    r1 = 0.5 * np.log2(1.0 + a * om)
    r2 = 0.5 * np.log2(1.0 + c * om)
    rsum = 0.5 * np.log2(1.0 + a + c + 2.0 * rho * np.sqrt(a * b2 * s12))
    bmax = (1.0 + s21 + s22 + 2.0 * (rho * np.sqrt(b1 * s21 * b2 * s22))
            + 2.0 * np.sqrt((1.0 - b1) * s21 * (1.0 - b2) * s22))
    return r1, r2, rsum, bmax


def _region_grid(cfg: ChannelConfig, feedback: bool, n: int, name: str,
                 axes: tuple[int, int, int]):
    """(g, rho, r1, r2, rsum, b): _boxes at n beta points g and rho in g (0
    without feedback), with beta1, beta2 and rho along grid axes axes[0..2].
    Refuses n < 2, calling n name, and bounds that overflow float64."""
    if n < 2:
        raise ValueError(f"{name} must be >= 2")
    g = np.linspace(0.0, 1.0, n)
    rho = g if feedback else np.zeros(1)
    # a grid too large to allocate fails here, before any part is computed
    np.empty((n, n, len(rho)))
    ops = [v.reshape([-1 if d == k else 1 for d in range(3)])
           for v, k in zip((g, g, rho), axes)]
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = _boxes(cfg, *ops)
    if not all(np.isfinite(a).all() for a in bounds):
        raise ValueError("region bounds overflow float64 at these SNRs")
    return (g, rho) + bounds


# ---------------------------------------------------------------------------
# region membership


@lru_cache(maxsize=32)
def _grid_boxes(cfg: ChannelConfig, feedback: bool, grid_n: int):
    """contains' grid, cached; [k, i, j] is the point (g[i], g[j], rho[k])."""
    return _region_grid(cfg, feedback, grid_n, "grid_n", (1, 2, 0))


def _beaten(q, p) -> np.ndarray:
    """Where each of the four bounds that q yields is at least the one that
    p yields, one of them greater; one pair is held at a time."""
    ge, gt = True, False
    for u, v in zip(q, p):
        ge, gt = ge & (u >= v), gt | (u > v)
    return ge & gt


@lru_cache(maxsize=32)
def _grid_cover(cfg: ChannelConfig, feedback: bool, grid_n: int):
    """contains' grid test set, cached: the (4, M) bounds (r1, r2, rsum, b)
    of grid points such that each grid point's four bounds are at most
    those of one of them, and the four rows as memoryviews, which index
    to Python floats without a copy of the array.

    A point leaves only for a witness whose four bounds are all at least
    its own, one of them greater, compared as floats; that order is
    strict, so every chain of witnesses ends at a point that stays.  Slice
    by slice from rho = 0 up, each point kept from an earlier slice meets
    the largest b of slice k where r1 and r2 are at least its own (r1 rises
    with beta1 and r2 with beta2, so that set is a quadrant, its corner a
    searchsorted rank in the slice's rows), and each point of slice k the
    largest b of its upper (beta1, beta2) quadrant.  Whatever order the
    floats keep, a witness is checked, so the set covers.

    The columns are in ascending b, ties in grid order, sorted once here:
    the points that reach a b threshold are then the columns from one
    bisect_left rank on, which is how contains tests them.
    """
    g, rho, r1b, r2b, rsb, bb = _grid_boxes(cfg, feedback, grid_n)
    n, n2 = grid_n, grid_n * grid_n
    r1, r2 = r1b.reshape(-1, n), r2b.reshape(-1, n)

    def bounds(f):  # of points f = k n^2 + i n + j, one at a time
        yield r1.take(f // n)
        yield r2.take(f // n2 * n + f % n)
        yield rsb.take(f)
        yield bb.take(f)

    keep = np.empty(0, np.min_scalar_type(bb.size))
    own = np.arange(n2)  # a slice's points, less k n^2
    z = np.zeros((n + 1, n + 1), complex)  # 0 past the slice's edges
    for k in range(len(rho)):
        pts = (k * n2 + own).astype(keep.dtype)
        # z[i, j]: the largest b + 1j * pts over [i:, j:], as complex
        # maxima order by the real part, then the imaginary
        z[:n, :n] = bb[k] + 1j * pts.reshape(n, n)
        for ax in (0, 1):
            r = np.flip(z, ax)
            np.maximum.accumulate(r, axis=ax, out=r)
        # each point's quadrant corner in z: by rank for the kept points,
        # (i, j) for slice k's own
        corner = np.concatenate([
            np.searchsorted(r1[k], r1[:k]).take(keep // n) * (n + 1)
            + np.searchsorted(r2[k], r2[:k]).take(keep // n2 * n + keep % n),
            own + own // n])
        keep = np.concatenate([keep, pts])
        witness = bounds(z.imag.astype(keep.dtype).take(corner))
        keep = keep[~_beaten(witness, bounds(keep))]
    keep = keep[np.argsort(bb.take(keep), kind="stable")]
    cover = np.empty((4, len(keep)))
    for row, v in zip(cover, bounds(keep)):
        row[:] = v
    return cover, tuple(memoryview(row) for row in cover)


_GOLDEN_DEPTH = 4  # golden-section steps that one score call resolves
_GOLDEN_STEPS = 40  # steps per coordinate pass, a multiple of the depth
_GR = (math.sqrt(5.0) - 1.0) / 2.0


def _probe_tree():
    """_refine_coord's pool rows and row tables, by the golden-step rule."""
    def step(node, p, left):  # (the probe's X and Y, the child)
        a, lo, hi, b = node
        return ((hi, a), (a, p, lo, hi)) if left else ((lo, b), (lo, hi, p, b))
    nodes, xy, dec, top, leaf = [(4, 5, 6, 7)], [], [], 9, 0
    code = np.arange(2 ** (2 ** (_GOLDEN_DEPTH - 1) - 1))  # inner nodes' bits
    while len(nodes) < 2 ** (_GOLDEN_DEPTH - 1):
        m = len(nodes)  # node j of this level decides by bit m - 1 + j
        leaf = leaf + np.where(code >> (m - 1 + leaf) & 1, 0, m)
        kids = [step(node, top + j + m * (not left), left)
                for left in (True, False) for j, node in enumerate(nodes)]
        xy.append((np.array([r for r, _ in kids]).T, slice(top, top + 2 * m)))
        dec += [node[1:3] for node in nodes]
        nodes, top = [kid for _, kid in kids], top + 2 * m
    n = top + len(nodes)  # rows; the score of row r is row n + r
    first = np.array([sum(step((0, 1, 2, 3), 8, go), ()) for go in (1, 0)])
    ends = np.array([t + (top + j,) for j, t in enumerate(nodes)])
    return (n, np.hstack((first, first[:, 3:5] + n)), xy, np.array(dec).T,
            ends[:, [0, 3]].T, np.hstack((ends, ends[:, [1, 2, 4]] + n))[leaf])


_ROWS, _FIRST, _XY, _DEC, _MID, _LEAF = _probe_tree()


def _slack(t: RateTriplet, r1, r2, rs, b):
    """contains' score: the least slack of t under the bounds (r1, r2, rs, b)."""
    return np.minimum(np.minimum(r1 - t.r1, r2 - t.r2),
                      np.minimum(rs - (t.r1 + t.r2), b - t.b))


def _line_slack(cfg: ChannelConfig, t: RateTriplet, pts: np.ndarray, c: int):
    """line(v): _slack(t, *_boxes(cfg, *q)) at the (m, n) probes v along row
    c of pts, q being pts with row c replaced by v, m <= _ROWS - 8, bit for
    bit.

    Every term of _boxes free of row c is evaluated once, here, and tiled
    to the largest round of probes.  A call computes the rest with _boxes'
    operations in _boxes' order (only the two operands of a sum or product
    may swap, which is exact), the log2 arguments of the rates that move
    stacked into one log2, one 0.5 * and one subtraction of t's rates.
    """
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    b1, b2, rho = pts
    e0, ts = 1.0 + s21 + s22, t.r1 + t.r2

    def tile(*terms):  # (n,) terms as one contiguous (k, _ROWS - 8, n)
        out = np.empty((len(terms), _ROWS - 8, len(rho)))
        out[:] = np.array(terms)[:, None]
        return out

    def rates(x, tr):  # log2 arguments to slacks, in place
        np.log2(x, out=x)
        x *= 0.5
        x -= tr
        return x

    a, cc = b1 * s11, b2 * s12
    if c == 2:
        f = tile(a, cc, 1.0 + a + cc, np.sqrt(a * b2 * s12),
                 np.sqrt(b1 * s21 * b2 * s22),
                 2.0 * np.sqrt((1.0 - b1) * s21 * (1.0 - b2) * s22))
        ac, (apc, sa, sb, nic) = f[:2], f[2:]
        tr = np.array([t.r1, t.r2, ts])[:, None, None]

        def line(v):
            m = len(v)
            x = np.empty((3,) + v.shape)
            np.multiply(ac[:, :m], 1.0 - v * v, out=x[:2])
            x[:2] += 1.0
            np.multiply(2.0 * v, sa[:m], out=x[2])
            x[2] += apc[:m]
            r1, r2, rs = rates(x, tr)
            b = e0 + 2.0 * (v * sb[:m]) + nic[:m]
            return np.minimum(np.minimum(r1, r2), np.minimum(rs, b - t.b))
        return line

    # off the rho row, _boxes' three square roots are sqrt(u * w * k), with
    # u = (beta1 SNR11, beta1 SNR21, (1 - beta1) SNR21) of beta1, w = (beta2,
    # beta2, 1 - beta2) of beta2 and k = (SNR12, SNR22, SNR22); the side of
    # row c moves, and the rate of the other row stays
    om = 1.0 - rho * rho
    stay = 0.5 * np.log2(1.0 + (cc, a)[c] * om) - (t.r2, t.r1)[c]
    f = tile(om, rho, 2.0 * rho, stay, cc if c == 0 else 1.0 + a,
             *((b2, b2, 1.0 - b2) if c == 0
               else (a, b1 * s21, (1.0 - b1) * s21)))
    (fom, frho, frho2, fstay, base), side = f[:5], f[5:]
    u, k = np.array([[s11, s21, s21], [s12, s22, s22]])[:, :, None, None]
    tr = np.array([(t.r1, t.r2)[c], ts])[:, None, None]

    def line(v):
        m = len(v)
        z = np.empty((3,) + v.shape)  # the moving side, then the roots
        z[:2] = v
        np.subtract(1.0, v, out=z[2])
        if c == 0:
            z *= u
            own = z[0]  # beta1 SNR11, read before z moves on
            q = base[:m] + (1.0 + own)
        else:
            own = v * s12
            q = base[:m] + own
        x = np.empty((2,) + v.shape)
        np.multiply(own, fom[:m], out=x[0])
        x[0] += 1.0
        z *= side[:, :m]
        z *= k
        np.sqrt(z, out=z)
        np.multiply(frho2[:m], z[0], out=x[1])
        x[1] += q
        r, rs = rates(x, tr)
        z[1] *= frho[:m]
        z[1:] *= 2.0
        b = e0 + z[1]
        b += z[2]
        r1, r2 = (r, fstay[:m]) if c == 0 else (fstay[:m], r)
        return np.minimum(np.minimum(r1, r2), np.minimum(rs, b - t.b))
    return line


def _refine_coord(line, pts: np.ndarray, c: int, h: float,
                  fx: np.ndarray) -> np.ndarray:
    """Golden-section maximization along coordinate c, in place.

    Each column of pts (rows beta1, beta2, rho) is a start with its own
    bracket [x - h, x + h] clipped to [0, 1].  line(v) scores the (m, n)
    probes v along row c, m <= _ROWS - 8, each against its own column of
    pts; fx is the score of pts on entry and the return value that of pts
    on exit, bit for bit.  After _GOLDEN_STEPS steps a column keeps its
    start when the bracket's midpoint scores worse, so no column's score
    ever falls.

    A step goes left where f(lo) >= f(hi).  A round's first branch is
    known, so one line call takes the 1 + 2 + 4 + 8 probes of its
    _GOLDEN_DEPTH steps (the last round's also the 8 leaves' midpoints).
    Points are rows of p, their scores rows of s: 0-3 a round's bracket, 8
    its first probe, 4-7 that step's child, the tree's root.  There, by
    _probe_tree's tables, a level's probes are X - gr * (X - Y) on one
    gather of rows, (X, Y) = (hi, a) left and (lo, b) right; one compare
    decides all 7 inner nodes, whose bits, packed, pick the leaf one flat
    take reads.  lo - gr * (lo - b) is lo + gr * (b - lo) bit for bit
    (negation is exact, rounding to nearest symmetric); line is
    elementwise, so probes, pts and scores are the step-by-step search's.
    """
    x = pts[c]
    n = x.size
    p, s = ps = np.empty((2, _ROWS, n))
    cols = np.arange(n)
    first, leaf = _FIRST[:, :, None] * n + cols, _LEAF.T * n
    a, b = np.maximum(0.0, x - h), np.minimum(1.0, x + h)
    g = _GR * (b - a)
    p[:4] = a, b - g, a + g, b
    s[1:3] = line(p[1:3])
    for last in [False] * (_GOLDEN_STEPS // _GOLDEN_DEPTH - 1) + [True]:
        k = np.where(s[1] >= s[2], first[0], first[1])
        u, v = ps.take(k[:2])
        np.subtract(u, _GR * (u - v), out=p[8])
        p[4:8] = ps.take(k[2:6])
        for rows, out in _XY:
            u, v = p.take(rows, axis=0)
            np.subtract(u, _GR * (u - v), out=p[out])
        if last:
            np.multiply(0.5, np.add(*p.take(_MID, axis=0)), out=p[out.stop:])
        end = _ROWS if last else out.stop
        s[8:end] = line(p[8:end])
        s[5:7] = ps.take(k[6:])
        lo, hi = s.take(_DEC, axis=0)
        code = np.packbits(lo >= hi, axis=0, bitorder="little")[0]
        t = ps.take(leaf.take(code, axis=1) + cols)
        p[:4], s[1:3] = t[:4], t[5:7]
    pts[c] = np.where(t[7] >= fx, t[4], x)
    return np.where(t[7] >= fx, t[7], fx)


def _slack_bound(cfg: ChannelConfig, t: RateTriplet, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """An upper bound on _slack over each column's box [lo, hi] in [0, 1]^3
    (rows beta1, beta2, rho), up to rounding.

    With rho >= 0 each bound of _boxes is monotone in each coordinate: r1
    and r2 rise with their own beta and fall with rho, rsum rises with all
    three, and of b's two square roots the first rises with all three and
    the second falls with both betas.  So r1 and r2 are taken at (beta_hi,
    rho_lo), rsum at the upper corner, and each root of b at its own
    corner.
    """
    s21, s22 = cfg.snr21, cfg.snr22
    r1, r2, rs, _ = _boxes(cfg, hi[0], hi[1], np.stack([lo[2], hi[2]]))
    b = (1.0 + s21 + s22 + 2.0 * (hi[2] * np.sqrt(hi[0] * s21 * hi[1] * s22))
         + 2.0 * np.sqrt((1.0 - lo[0]) * s21 * (1.0 - lo[1]) * s22))
    return _slack(t, r1[0], r2[0], rs[1], b)


# most grid points per block of contains' slack scan; a block holds whole
# rho slices, at least one
_SLACK_BLOCK = 8192
# rounding allowance of contains' start bound: absolute on the
# coordinates, where a pass's brackets, probes and midpoints may fall a few
# ulps outside x +- h, and relative to t on the slack, where a score and the
# bound's corner values round apart by a few ulps; thousands of ulps at
# either scale, yet a thousandth of contains' 1e-9 relative slack
_ROUNDING = 1e-12
# cover columns that contains tests first from its b threshold, one at a
# time in Python floats: at the benchmark's grid the first column covering
# a boundary triplet lies this close to it, most often at the threshold
_COVER_BLOCK = 64


def contains(cfg: ChannelConfig, t: RateTriplet, feedback: bool = True,
             grid_n: int = 32) -> bool:
    """One-sided membership certificate for t in the capacity region.

    True means some operating point on (or refined near) the uniform
    (beta1, beta2, rho) grid, grid_n^3 points (grid_n^2 at rho = 0 without
    feedback), dominates t; False only means none was found at this
    resolution.  Comparisons carry a 1e-9 relative slack eps so that
    triplets sitting exactly on a box face (a closure point) are not
    rejected by roundoff.

    The grid test runs over _grid_cover's points, built on the first call
    per grid and cached: each grid point's four bounds are at most those
    of one of them, and each is a grid point, so the same comparisons hit
    the cover iff they hit the grid.  The cover's columns are in ascending
    b, so the b comparison is one bisect_left rank in the b row, the
    rank searchsorted(..., "left") gives: the columns from it on are those
    with b >= t.b - eps.  A Python loop runs the r1, r2 and rsum
    comparisons on the first _COVER_BLOCK of them, the same float
    comparisons that numpy makes, and returns at the first hit; only if
    none hits does numpy compare the rest.  So a hit makes no numpy call:
    at grid 48 (SYM10, 2-core x86-64 host) it costs about 4 us after a
    hit and 10 us after a miss, against 8 and 18 us with a searchsorted
    rank and numpy comparisons on the first block.

    On a miss, the best grid point of every rho slice starts a coordinate
    refinement, which stops at the first pass that certifies t: no pass
    lowers a start's score, which depends on that start alone, so the
    verdict holds.  A pass scores its probes through a line kernel that
    _line_slack builds once for the pass.

    Before each pass, every start is dropped whose slack cannot reach
    -eps anywhere in the box it can still reach: its point plus or minus h
    for each pass left on each coordinate, bounded by _slack_bound with
    _ROUNDING's allowance.  A dropped start never certifies t, and every
    score is elementwise per column, so the kept starts take the same
    probes bit for bit whichever others are dropped: neither the verdict
    nor the pass that decides it depends on the drop.  With no start left,
    t is rejected.  A grid whose bounds overflow float64 raises ValueError.
    """
    scale = max(1.0, t.r1, t.r2, t.b)
    eps = 1e-9 * scale
    cover, (r1c, r2c, rsc, bc) = _grid_cover(cfg, feedback, grid_n)
    lo = bisect_left(bc, t.b - eps)
    a1, a2, a3 = t.r1 - eps, t.r2 - eps, t.r1 + t.r2 - eps
    for i in range(lo, min(lo + _COVER_BLOCK, len(bc))):
        if r1c[i] >= a1 and r2c[i] >= a2 and rsc[i] >= a3:
            return True
    rest = cover[:, lo + _COVER_BLOCK:]
    if np.count_nonzero((rest[0] >= a1) & (rest[1] >= a2) & (rest[2] >= a3)):
        return True
    g, rho, r1b, r2b, rsb, bb = _grid_boxes(cfg, feedback, grid_n)

    # multi-start: the global slack argmax can sit in the wrong basin, so
    # refine from the best grid point of every rho slice at once: its
    # first argmax, a NaN counting as the largest, taken a block of slices
    # at a time, as grid-sized temporaries would be fresh allocations from
    # the OS on every call
    n2 = grid_n * grid_n
    step = max(1, _SLACK_BLOCK // n2)
    row = np.concatenate([
        np.argmax(_slack(t, *(a[k:k + step] for a in (r1b, r2b, rsb, bb)))
                  .reshape(-1, n2), axis=1)
        for k in range(0, len(rho), step)])
    pts = np.stack([g[row // grid_n], g[row % grid_n], rho])
    h = 1.0 / (grid_n - 1)
    fx = _slack(t, *_boxes(cfg, *pts))
    floor = -eps - _ROUNDING * scale
    coords = (0, 1, 2) * 2 if feedback else (0, 1) * 2  # two sweeps
    for j, c in enumerate(coords):
        # a pass moves its coordinate by at most h, up to rounding
        reach = np.array([[coords[j:].count(k)] for k in range(3)]) * (
            h + _ROUNDING)
        keep = np.flatnonzero(_slack_bound(
            cfg, t, np.maximum(0.0, pts - reach),
            np.minimum(1.0, pts + reach)) >= floor)
        if not keep.size:
            return False
        pts, fx = pts[:, keep], fx[keep]
        fx = _refine_coord(_line_slack(cfg, t, pts, c), pts, c, h, fx)
        if bool((fx >= -eps).any()):
            return True
    return False


# ---------------------------------------------------------------------------
# capacity formulas in b


def _no_rate_left(cfg: ChannelConfig, b: float) -> bool:
    """Whether energy rate b leaves no information rate.

    Past b_max no input delivers b: InfeasibleEnergyRateError is raised,
    and within _check_feasible_b's tolerance no rate is left.  b_max
    itself takes fully correlated inputs, which carry no information;
    where SNR21*SNR22 = 0, correlation adds no energy and b_max leaves
    the full rates.
    """
    bmax = _check_feasible_b(cfg, b)
    if b < 0:
        raise ValueError("b must be nonnegative")
    return b > bmax or (b == bmax and min(cfg.snr21, cfg.snr22) > 0.0)


# below this x, 1 + x keeps only the bits of x above 2^-52, a relative
# error of up to 2^-52 / x: the sum capacities take log1p(x), and gamma a
# form of x that does not cancel; above it the closed forms keep the bits
# that the golden tables pin (the default ratio grid starts at x = 2e-6)
_SMALL_X = 2.0 ** -20


def _half_log2(arg: float, x: float) -> float:
    """0.5 * log2(arg), arg being 1 + x as the caller writes it out; below
    x = _SMALL_X, log1p(x) / (2 ln 2), x clipped at 0 as rounding may take
    it below."""
    if x < _SMALL_X:
        return math.log1p(max(0.0, x)) / (2.0 * math.log(2.0))
    return 0.5 * log2(arg)


def sum_capacity_fb(cfg: ChannelConfig, b: float) -> float:
    """Information sum-capacity with feedback at energy rate b."""
    if _no_rate_left(cfg, b):
        return 0.0
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    rs = solve_rho_star(cfg, 1.0, 1.0)
    edge = 1.0 + s21 + s22 + 2.0 * rs * _sqrt_product(s21, s22)
    if b <= edge:
        t = 2.0 * rs * _sqrt_product(s11, s12)
        return _half_log2(1.0 + s11 + s12 + t, s11 + s12 + t)
    x = xi(cfg, b)
    om = 1.0 - x * x
    return (_half_log2(1.0 + om * s11, om * s11)
            + _half_log2(1.0 + om * s12, om * s12))


def sum_capacity_nf(cfg: ChannelConfig, b: float) -> float:
    """Information sum-capacity without feedback at energy rate b."""
    if _no_rate_left(cfg, b):
        return 0.0
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    if s11 > 0.0 and s12 > 0.0:
        ratio = math.sqrt(min(s11, s12) / max(s11, s12))
    else:
        ratio = 0.0
    edge = 1.0 + s21 + s22 + 2.0 * _sqrt_product(s21, s22) * ratio
    x = xi(cfg, b)
    if b <= edge:
        t = 2.0 * x * _sqrt_product(s11, s12)
        arg = 1.0 + s11 + s12 - t
        # >= 1 + (sqrt(s11) - sqrt(s12))^2 in exact arithmetic, not in floats
        return _half_log2(max(1.0, arg) if math.isfinite(arg) else arg,
                          s11 + s12 - t)
    s = s11 if s11 >= s12 else s12  # argmax, ties toward transmitter 1
    u = (1.0 - x * x) * s
    return _half_log2(1.0 + u, u)


def time_sharing_sum_rate(cfg: ChannelConfig, b: float) -> float:
    """Best sum rate at energy rate b of time switching between an
    information phase and an energy phase, each within the full power
    budgets (Zhou, Zhang & Ho, IEEE Trans. Commun. 61(11), 2013).

    A fraction lam of the block sends independent Gaussian inputs at full
    power, delivering energy 1 + SNR21 + SNR22; the rest sends the
    coherent full-power signal, delivering b_max = that + d with
    d = 2 sqrt(SNR21 SNR22).  Rate and energy are linear in lam, so the
    best lam is the largest that meets b, clip((b_max - b) / d, 0, 1), and
    the rate is lam * 1/2 log2(1 + SNR11 + SNR12).  Where d = 0, or b
    needs no energy phase, lam = 1; at b_max with d > 0 the rate is 0.
    """
    if _no_rate_left(cfg, b):
        return 0.0
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    lam = 1.0
    if b > 1.0 + s21 + s22:  # so d > 0, as b < b_max
        lam = min(1.0, (max_energy_rate(cfg) - b)
                  / (2.0 * _sqrt_product(s21, s22)))
    return lam * _half_log2(1.0 + s11 + s12, s11 + s12)


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
    den = 2.0 * s11 * s12
    if den == 0.0:
        raise DegenerateSnrError(
            f"2*SNR11*SNR12 underflows to 0 at SNR11 = {s11}, SNR12 = {s12}")
    # x = 4 SNR11 SNR12 / (SNR11 + SNR12), as 4 / (1/S11 + 1/S12) where
    # the product overflows
    num = 4.0 * s11 * s12
    over = math.isinf(num)
    x = 4.0 / (1.0 / s11 + 1.0 / s12) if over else num / (s11 + s12)
    if x < _SMALL_X or over:
        # the same closed form, as (S11 + S12) / (2 S11 S12) = 2 / x:
        # sqrt(1 + x) - 1 cancels at small x, to gamma > 1 at SNR 1e-12,
        # and where the products overflow the closed form reads 0 * inf
        gamma = 2.0 / (1.0 + math.sqrt(1.0 + x))
    else:
        gamma = ((s11 + s12) / den) * (math.sqrt(1.0 + x) - 1.0)
    b_fb = 1.0 + s21 + s22 + 2.0 * _sqrt_product((1.0 - gamma) * s21, s22)
    return gamma, b_fb


def feedback_gain_ratio(cfg: ChannelConfig) -> float:
    """Ratio b_fb / b_nf of guaranteeable energy rates at the NF sum capacity."""
    gamma, _ = b_fb_at_nf_sum_capacity(cfg)
    s21, s22 = cfg.snr21, cfg.snr22
    return 1.0 + 2.0 * _sqrt_product((1.0 - gamma) * s21, s22) / (1.0 + s21 + s22)


def gain_ratio_limit_high_snr(eta: float) -> float:
    """High-SNR limit of feedback_gain_ratio at eta = SNR21 / SNR22."""
    return 1.0 + 2.0 * math.sqrt(eta) / (1.0 + eta)


# ---------------------------------------------------------------------------
# boundary sampling and serialization


_PARETO_BLOCK = 1024  # rows per block of the sweep in _pareto_filter
_PARETO_LIVE = 128  # most rows a block compares pairwise
_PARETO_UPPER = np.triu(np.ones((_PARETO_LIVE, _PARETO_LIVE), bool), 1)


def _pareto_filter(xs: np.ndarray, ys: np.ndarray, stair: list) -> np.ndarray:
    """Positions of the rows maximal in (r1, r2, b), given the r1 (xs) and
    r2 (ys) of rows already ordered by (-b, -r2, -r1), ties in row index.

    A row is kept iff no row before it in that order weakly dominates it in
    (r1, r2, b).  Every row before a given one has b at least as large, so
    the sweep only compares (r1, r2): against the staircase of rows kept in
    earlier blocks, then pairwise among the surviving rows of its own
    block.  A block ends early at its _PARETO_LIVE-th survivor, so the
    pairwise test stays small however many rows the staircase lets through.

    The rows may come in pieces, one call each: stair, a list that starts
    empty, then carries the staircase of every earlier piece's kept rows
    from call to call, and each call returns positions within its piece.
    """
    keep = np.zeros(len(xs), dtype=bool)
    # maxima of the kept (r1, r2): fx ascending, fy strictly decreasing,
    # with a -inf sentinel past the last step
    fx, fy = stair or (np.empty(0), np.array([-np.inf]))
    start = 0
    while start < len(xs):
        x = xs[start:start + _PARETO_BLOCK]
        y = ys[start:start + _PARETO_BLOCK]
        # the first step at or right of x is the highest one there
        live = np.flatnonzero(fy[np.searchsorted(fx, x, "left")] < y)
        if len(live) > _PARETO_LIVE:
            x, y = x[:live[_PARETO_LIVE]], y[:live[_PARETO_LIVE]]
            live = live[:_PARETO_LIVE]
        lx, ly = x[live], y[live]
        # dominated[j, k]: live row j precedes and weakly dominates row k
        dominated = ((lx[:, None] >= lx) & (ly[:, None] >= ly)
                     & _PARETO_UPPER[:len(live), :len(live)])
        new = live[~dominated.any(axis=0)]
        keep[start + new] = True
        start += len(x)
        if not len(new):
            continue
        # new staircase: scan old steps and new rows by x descending and
        # keep each point higher than every point before it
        mx = np.concatenate([fx, x[new]])
        my = np.concatenate([fy[:-1], y[new]])
        s = np.lexsort((-my, -mx))
        mx, my = mx[s], my[s]
        step = np.ones(len(my), dtype=bool)
        step[1:] = my[1:] > np.maximum.accumulate(my)[:-1]
        fx = mx[step][::-1]
        fy = np.append(my[step][::-1], -np.inf)
    stair[:] = fx, fy
    return np.flatnonzero(keep)


def _b_order(bb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pts, -bb[pts]) for pts = np.argsort(-bb, kind="stable").

    numpy's default argsort (SIMD where the CPU has it) orders by -b but
    leaves equal b in no set order; one integer sort of the keys
    (run of equal b) * len(bb) + point then puts each run in index order.
    """
    n = len(bb)
    nb = np.negative(bb)
    pts = np.argsort(nb)
    nb = nb[pts]
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(nb[1:] != nb[:-1], out=run[1:])
    run *= n
    pts += run
    pts.sort()
    pts -= run
    return pts, nb


def _chunk_points(n: int) -> int:
    """Fewest of the n grid points that a chunk of boundary_table holds: a
    sixteenth of the grid, at least one _PARETO_BLOCK.  A chunk then runs
    on to the end of its run of equal b."""
    return max(-(-n // 16), _PARETO_BLOCK)


def _sort_r1_ties(tie: np.ndarray, xs: np.ndarray, src: np.ndarray) -> None:
    """Sort each run of equal (b, r2) rows by -r1, stably, where r1 rises
    somewhere in it; tie[i] says rows i and i + 1 are in one run.  xs
    (the rows' r1) and src are permuted alike, in place."""
    bad = np.flatnonzero(tie & (xs[1:] > xs[:-1]))
    if not len(bad):
        return
    run = np.zeros(len(xs), dtype=np.int64)
    np.cumsum(~tie, out=run[1:])
    rises = np.bincount(run[bad], minlength=run[-1] + 1) > 0  # by run id
    idx = np.flatnonzero(rises[run])
    key = np.empty(len(idx), dtype=complex)
    key.real, key.imag = run[idx], -xs[idx]
    del run
    s = idx[np.argsort(key, kind="stable")]
    src[idx], xs[idx] = src[s], xs[s]


def _boundary_chunk(r1b, r2b, rsb, p, nbc, stair):
    """(points, r1, r2, -b) of the kept rows of grid points p, one chunk of
    boundary_table: p in b order with nbc = -b, whole runs of equal b.

    Each array is deleted once used, as one run of equal b can make the
    chunk the whole grid."""
    # the point (i1 * res + i2) * n_rho + k has flat position
    # i1 * n_rho + k in r1b and i2 * n_rho + k in r2b
    n_rho = r2b.shape[-1]
    i1, i2k = np.divmod(p, r2b.size)
    r2p = r2b.take(i2k)
    i1 *= n_rho
    i1 += np.remainder(i2k, n_rho, out=i2k)
    r1p = r1b.take(i1)
    del i1, i2k
    # the two sum-rate corners of each box's pentagon, (r1_max, c1) and
    # (c2, r2_max), each paired with b_max; the zero-rate corners
    # (r1_max, 0) and (0, r2_max) are weakly dominated by them since
    # c1, c2 >= 0
    c1 = rsb.take(p)
    c2 = c1 - r2p
    c1 -= r1p
    np.clip(c1, 0.0, r2p, out=c1)
    np.clip(c2, 0.0, r1p, out=c2)
    # rows 2j and 2j + 1 of the chunk's layout are the corners of point
    # p[j], so they stand in (-b, row index) order; where c1 == r2_max the
    # second corner is no row
    m = len(p)
    row = np.ones(2 * m, dtype=bool)
    np.not_equal(c1, r2p, out=row[1::2])
    x = np.empty(2 * m)
    x[0::2], x[1::2] = r1p, c2
    del r1p, c2
    # complex keys sort by the real part, then the imaginary part
    key = np.empty(2 * m, dtype=complex)
    key.real[0::2] = key.real[1::2] = nbc
    np.negative(c1, out=key.imag[0::2])
    np.negative(r2p, out=key.imag[1::2])
    del c1, r2p
    src = np.flatnonzero(row)  # layout position of each row
    x, key = x[row], key[row]
    del row
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs = x[order]
    del x
    src = src[order]  # layout position of each row, in sorted order
    del order
    ys = -key.imag
    tie = key[1:] == key[:-1]
    del key
    # rows of equal (b, r2) still stand in row-index order
    _sort_r1_ties(tie, xs, src)
    del tie
    kept = _pareto_filter(xs, ys, stair)
    j = src[kept] >> 1
    return p[j], xs[kept], ys[kept], nbc[j]


def boundary_table(cfg: ChannelConfig, feedback: bool = True,
                   resolution: int = 32) -> np.ndarray:
    """Pareto-dominant corner triplets of the region boxes on a uniform grid,
    as a (K, 6) array whose columns are the CSV's (beta1, beta2, rho, r1,
    r2, b).

    Each grid point k, in (beta1, beta2, rho) order, has two corner rows,
    2k and 2k + 1.  The kept rows are those _pareto_filter keeps, in the
    order (-b, -r2, -r1, row index).  Where a point's sum bound is slack
    (c1 == r2_max), its first corner (r1_max, r2_max) weakly dominates the
    second and precedes it, so the second is never kept and is not made a
    row.

    Only b, rsum and the b order are grid-sized; r1 and r2 stay on their
    (beta1, rho) and (beta2, rho) planes.  The grid points, sorted by -b
    with equal b in index order (_b_order), go through the rest in chunks
    of whole runs of equal b (_chunk_points), the sweep's staircase carried
    from chunk to chunk.  Every ordering key compares only rows of one run
    of equal b, and a row's verdict does not depend on where a block
    starts, so the chunks give the rows, and the order, of one pass over
    the whole grid.  A chunk is ordered in two passes: its rows by (-b,
    -r2), stably (cheap, as the rows come nearly sorted); and, only inside
    runs of equal (b, r2) whose r1 is out of order, those rows by -r1,
    stably.  Where every b is equal (SNR21 = 0, say) the one chunk is the
    whole grid.
    """
    g, rho, r1b, r2b, rsb, bb = _region_grid(cfg, feedback, resolution,
                                             "resolution", (0, 1, 2))
    pts, nb = _b_order(bb.ravel())
    del bb
    n = len(pts)
    size = _chunk_points(n)
    stair = []
    parts = []
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(nb, nb[min(n, lo + size) - 1], "right"))
        pt, r1k, r2k, nbk = _boundary_chunk(r1b, r2b, rsb, pts[lo:hi],
                                            nb[lo:hi], stair)
        i1, i2, k = np.unravel_index(pt, rsb.shape)
        parts.append(np.column_stack([g[i1], g[i2], rho[k], r1k, r2k, -nbk]))
        lo = hi
    return np.concatenate(parts)


def sample_boundary_records(cfg: ChannelConfig, feedback: bool = True,
                            resolution: int = 32) -> list[BoundarySample]:
    """boundary_table's rows as BoundarySample records."""
    return list(map(BoundarySample._make,
                    boundary_table(cfg, feedback, resolution).tolist()))


CSV_HEADER = ",".join(BoundarySample._fields)


def records_from_csv(fh) -> np.ndarray:
    """The rows of a region CSV as a (K, 6) float array.

    The header must be CSV_HEADER and every row must hold six finite
    values; blank lines are skipped.
    """
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
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"expected finite values, got {line!r}")
        out.append(vals)
    return np.array(out, dtype=np.float64).reshape(-1, 6)
