"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own code paths: dense scanning
instead of bisection, exhaustive grid maximization instead of closed
forms (the time-switching baseline's too), a naive unnormalized
covariance recursion instead of the log-domain one, a 2x2 matrix
error-state recursion for the law of
the empirical energy rate instead of the coefficient schedule, the
energy-side closed forms with each geometric mean as sqrt(x) * sqrt(y)
instead of sqrt(x * y) and rho* as a polished root of phi's quartic
instead of bisection, an
all-pairs dominance check for the region boundary instead of a sweep,
one pass over a flat grid with a per-slice first maximum for the
membership grid test instead of blocks of rho slices, a step-by-step
golden-section search that scores one probe per call instead of a tree of
probes, and a scalar use-by-use replay of one coded block with
exact-rational decisions instead of the trial-batched engine.  None of
them imports the library; tests/test_oracles_independent.py keeps it that
way.
"""
import math
from fractions import Fraction

import numpy as np


def scan_rho_star(cfg, beta1, beta2, points=1_000_001):
    """Dense-grid argmin of |phi| over [0, 1]."""
    r = np.linspace(0.0, 1.0, points)
    a = beta1 * cfg.snr11
    c = beta2 * cfg.snr12
    vals = (1.0 + a + c + 2.0 * r * math.sqrt(a * c)
            - (1.0 + a * (1.0 - r * r)) * (1.0 + c * (1.0 - r * r)))
    return float(r[np.argmin(np.abs(vals))])


def rho_min_closed_form(cfg, beta1, beta2, b):
    """Smallest IC correlation delivering energy rate b at power split
    (beta1, beta2): the NIC part's energy and the IC part's per unit
    correlation, clipped to [0, 1]."""
    s21, s22 = cfg.snr21, cfg.snr22
    nic = 2.0 * math.sqrt((1.0 - beta1) * s21) * math.sqrt((1.0 - beta2) * s22)
    ic = 2.0 * math.sqrt(beta1 * s21) * math.sqrt(beta2 * s22)
    excess = b - (1.0 + s21 + s22 + nic)
    if excess <= 0.0:
        return 0.0
    return min(1.0, excess / ic) if ic > 0.0 else 1.0


def full_power_rho_star(s11, s12):
    """rho* at beta1 = beta2 = 1: phi written out as the quartic
    -ac + 2 sqrt(ac) r + (a + c + 2ac) r^2 - ac r^4 in r, its one root in
    (0, 1) taken from numpy's companion-matrix roots and polished by
    Newton steps."""
    ac = s11 * s12
    poly = np.array([-ac, 0.0, s11 + s12 + 2.0 * ac,
                     2.0 * math.sqrt(s11) * math.sqrt(s12), -ac])
    r = min(z.real for z in np.roots(poly)
            if abs(z.imag) < 1e-9 and 0.0 < z.real < 1.0)
    slope = np.polyder(poly)
    for _ in range(3):
        r -= np.polyval(poly, r) / np.polyval(slope, r)
    return float(r)


def sum_capacities(snr, b):
    """(with feedback, without) information sum capacities at energy rate
    b <= b_max, from the piecewise closed forms.

    xi = (b - 1 - SNR21 - SNR22) / (2 sqrt(SNR21) sqrt(SNR22)), clipped to
    [0, 1], is the correlation that b needs at full power.  With feedback
    the rate is the rho* sum bound up to the energy rho* itself delivers,
    then the product of the individual bounds at xi.  Without feedback it
    is the sum bound at -xi up to the energy at correlation
    sqrt(min/max) of the information SNRs, then the stronger user alone
    at xi.
    """
    s11, s12, s21, s22 = snr
    cross = math.sqrt(s21) * math.sqrt(s22)
    base = 1.0 + s21 + s22
    xi = min(1.0, max(0.0, (b - base) / (2.0 * cross)))
    om = 1.0 - xi * xi
    info = math.sqrt(s11) * math.sqrt(s12)
    rs = full_power_rho_star(s11, s12)
    if b <= base + 2.0 * rs * cross:
        fb = 0.5 * math.log2(1.0 + s11 + s12 + 2.0 * rs * info)
    else:
        fb = 0.5 * math.log2((1.0 + om * s11) * (1.0 + om * s12))
    if b <= base + 2.0 * cross * math.sqrt(min(s11, s12) / max(s11, s12)):
        nf = 0.5 * math.log2(1.0 + s11 + s12 - 2.0 * xi * info)
    else:
        nf = 0.5 * math.log2(1.0 + om * max(s11, s12))
    return fb, nf


def brute_force_sum_capacity(cfg, b_values, grid_n=201, feedback=True):
    """Max of min(rsum bound, r1 bound + r2 bound) over the operating-point
    grid, subject to the energy bound covering each requested b.

    The point budget is grid_n**3; without feedback rho is pinned at 0,
    so the same budget buys a grid_n**1.5-per-axis grid over (beta1, beta2).
    """
    n2 = grid_n if feedback else int(grid_n ** 1.5)
    g2 = np.linspace(0.0, 1.0, n2)
    s11, s12, s21, s22 = cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22
    best = np.full(len(b_values), -np.inf)
    rho = (np.linspace(0.0, 1.0, grid_n) if feedback else np.zeros(1))[:, None]
    om = 1.0 - rho * rho
    # one (rho, beta2) plane per beta1 keeps peak memory at one 2D slice
    for b1 in g2:
        b2 = g2
        nic = 2.0 * np.sqrt((1.0 - b1) * s21 * (1.0 - b2) * s22)
        ic_amp = np.sqrt(b1 * s21 * b2 * s22)
        rate_cross = np.sqrt(b1 * s11 * b2 * s12)
        r1b = 0.5 * np.log2(1.0 + b1 * s11 * om)
        r2b = 0.5 * np.log2(1.0 + b2 * s12 * om)
        rsb = 0.5 * np.log2(1.0 + b1 * s11 + b2 * s12
                            + 2.0 * rho * rate_cross)
        val = np.minimum(rsb, r1b + r2b).ravel()
        bb = np.broadcast_to(1.0 + s21 + s22 + nic
                             + (2.0 * rho * ic_amp if feedback else 0.0),
                             (len(rho), n2)).ravel()
        # the points with bb >= b form a suffix of the bb-sorted plane, so
        # the max rate over them is a suffix maximum
        order = np.argsort(bb)
        top = np.maximum.accumulate(val[order][::-1])[::-1]
        idx = np.searchsorted(bb[order], b_values)
        hit = idx < len(order)
        best[hit] = np.maximum(best[hit], top[idx[hit]])
    return best


def brute_force_time_sharing(snr, b, n_lam=401, n_u=41):
    """Best sum rate of time switching at energy rate b, maximized over a
    grid of the information phase's share lam and power fractions (u1, u2).

    For a share lam the information phase sends independent Gaussian
    inputs at u_i times transmitter i's power, the energy phase the
    coherent full-power signal, and the block's energy rate is the
    lam-weighted mean of the two phases' energies.  lam = 0 meets every
    b <= b_max.  The grid holds lam = 1 and u = (1, 1).
    """
    s11, s12, s21, s22 = snr
    lam = np.linspace(0.0, 1.0, n_lam)[:, None, None]
    u = np.linspace(0.0, 1.0, n_u)
    u1, u2 = u[:, None], u[None, :]
    coherent = 1.0 + s21 + s22 + 2.0 * math.sqrt(s21) * math.sqrt(s22)
    energy = lam * (1.0 + u1 * s21 + u2 * s22) + (1.0 - lam) * coherent
    rate = lam * 0.5 * np.log2(1.0 + u1 * s11 + u2 * s12)
    return float(np.where(energy >= b, rate, 0.0).max())


def pareto_corners(grid):
    """Boundary rows (beta1, beta2, rho, r1, r2, b) of a grid of region boxes.

    grid holds the seven arrays (beta1, beta2, rho, r1_max, r2_max,
    rsum_max, b_max) of the operating points.  Every box contributes all
    four rate corners of its pentagon, (r1_max, c1), (c2, r2_max),
    (r1_max, 0) and (0, r2_max), where c1 = rsum_max - r1_max clipped to
    [0, r2_max] and c2 likewise, each with b_max.  Rows are ordered by
    (-b, -r2, -r1), ties by (beta1, beta2, rho), and a row is kept iff no
    row before it weakly dominates it in (r1, r2, b), tested against every
    earlier row.
    """
    rows = []
    for b1, b2, rho, r1, r2, rs, b in zip(*(a.tolist() for a in grid)):
        c1 = min(max(rs - r1, 0.0), r2)
        c2 = min(max(rs - r2, 0.0), r1)
        for x, y in ((r1, c1), (c2, r2), (r1, 0.0), (0.0, r2)):
            rows.append((b1, b2, rho, x, y, b))
    rows.sort(key=lambda r: (-r[5], -r[4], -r[3], r[0], r[1], r[2]))
    arr = np.array(rows)
    keep = [k for k in range(len(arr))
            if not (arr[:k, 3:] >= arr[k, 3:]).all(axis=1).any()]
    return arr[keep]


def grid_starts(grid, t, n_rho):
    """Membership grid verdict and refinement starts, in one flat pass.

    grid holds the seven flat arrays (beta1, beta2, rho, r1_max, r2_max,
    rsum_max, b_max) of the operating points in (beta1, beta2, rho) order,
    rho fastest over its n_rho values, and t is (r1, r2, b).  Returns
    (True, None) when some point reaches t in all four bounds to within
    the slack eps = 1e-9 max(1, r1, r2, b).  Otherwise returns (False,
    pts): column k of the (3, n_rho) pts is the point of the k-th rho
    slice with the largest least slack min(r1_max - r1, r2_max - r2,
    rsum_max - (r1 + r2), b_max - b), the first NaN one if there is one,
    else the first largest.
    """
    b1, b2, rho, r1b, r2b, rsb, bb = grid
    r1, r2, b = t
    eps = 1e-9 * max(1.0, r1, r2, b)
    if ((r1b >= r1 - eps) & (r2b >= r2 - eps) & (rsb >= r1 + r2 - eps)
            & (bb >= b - eps)).any():
        return True, None
    slack = np.minimum(np.minimum(r1b - r1, r2b - r2),
                       np.minimum(rsb - (r1 + r2), bb - b))
    pts = np.empty((3, n_rho))
    for k in range(n_rho):
        col = slack[k::n_rho]
        nan = np.flatnonzero(np.isnan(col))
        first = nan[0] if len(nan) else np.flatnonzero(col == col.max())[0]
        i = first * n_rho + k
        pts[:, k] = b1[i], b2[i], rho[i]
    return False, pts


def golden_section_replay(score, pts, c, h, fx, steps=40):
    """Golden-section maximization of score along coordinate c, one step
    and one score call at a time, for every column of pts at once.

    Each column searches its own bracket [x - h, x + h] clipped to [0, 1]
    and then moves to the bracket's midpoint unless that scores worse than
    fx.  Returns (new pts, new scores); pts is left as it was.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    pts = np.array(pts, dtype=float)

    def f(v):
        q = list(pts)
        q[c] = v
        return score(q)

    x = pts[c]
    a, b = np.maximum(0.0, x - h), np.minimum(1.0, x + h)
    lo, hi = b - gr * (b - a), a + gr * (b - a)
    flo, fhi = f(lo), f(hi)
    for _ in range(steps):
        left = flo >= fhi
        a, b = np.where(left, a, lo), np.where(left, hi, b)
        new = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fnew = f(new)
        lo, hi = np.where(left, new, hi), np.where(left, lo, new)
        flo, fhi = np.where(left, fnew, fhi), np.where(left, flo, fnew)
    best = 0.5 * (a + b)
    fb = f(best)
    pts[c] = np.where(fb >= fx, best, x)
    return pts, np.where(fb >= fx, fb, fx)


def naive_posterior(params, yprimes):
    """Unnormalized joint-Gaussian posterior recursion (underflows for large t).

    Oracle for the receiver's recursion (coeff_schedule): same observation
    model, same transmitter-2 sign rule, but carried on the raw 2x2
    covariance matrix.
    """
    rs = params.rho_star()
    cov = np.array([[1.0, rs], [rs, 1.0]])
    mean = np.zeros(2)
    s1 = math.sqrt(params.beta1 * params.cfg.snr11)
    s2 = math.sqrt(params.beta2 * params.cfg.snr12)
    for yp in yprimes:
        sg1, sg2 = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
        r = cov[0, 1] / (sg1 * sg2) if sg1 * sg2 > 0 else 0.0
        sign2 = -1.0 if r < 0.0 else 1.0
        c = np.array([s1 / sg1 if sg1 > 0 else 0.0,
                      sign2 * s2 / sg2 if sg2 > 0 else 0.0])
        sc = cov @ c
        v = float(c @ sc) + 1.0
        mean = mean + sc * (yp / v)
        cov = cov - np.outer(sc, sc) / v
    return mean, cov


def schedule_loop(params):
    """The receiver's coefficient table, one scalar step after another.

    Oracle for coeff_schedule: at correlation r (rho* first) step t uses
    transmitter 2's sign sign2 = sign(r), the innovation coefficients
    a1 = s1 + r s2', a2 = s2' + r s1 with s2' = sign2 s2, the innovation
    variance v = s1^2 + s2'^2 + 2 r s1 s2' + 1 and the renormalizers
    d_i = sqrt(1 - a_i^2 / v); the mean gains are 2^l_i a_i / v, after
    which l_i gains 0.5 log2(d_i^2) and r becomes (r - a1 a2 / v) / (d1 d2).
    Returns the (n, 8) rows (sign2, a1, a2, v, d1, d2, gain1, gain2), the
    final (l1, l2) and the final r.  It reads params' fields and
    params.rho_star() only.
    """
    cfg = params.cfg
    s1 = math.sqrt(params.beta1 * (cfg.h11 ** 2 * cfg.p1))
    s2 = math.sqrt(params.beta2 * (cfg.h12 ** 2 * cfg.p2))
    r = params.rho_star()
    l1 = l2 = 0.0
    rows = []
    for _ in range(params.n):
        sign2 = -1.0 if r < 0.0 else 1.0
        s2t = sign2 * s2
        a1 = s1 + r * s2t
        a2 = s2t + r * s1
        v = s1 * s1 + s2t * s2t + 2.0 * r * s1 * s2t + 1.0
        d1 = math.sqrt(1.0 - a1 * a1 / v)
        d2 = math.sqrt(1.0 - a2 * a2 / v)
        rows.append((sign2, a1, a2, v, d1, d2,
                     2.0 ** l1 * a1 / v, 2.0 ** l2 * a2 / v))
        l1 += 0.5 * math.log2(d1 * d1)
        l2 += 0.5 * math.log2(d2 * d2)
        r = (r - a1 * a2 / v) / (d1 * d2)
    return np.array(rows).reshape(params.n, 8), (l1, l2), r


def energy_rate_moments(params):
    """Exact mean and variance of the energy rate B^(n) = mean(y2_t^2).

    The payload inputs are linear in the noises with data-independent
    coefficients, so (y2_1..y2_n) is a zero-mean Gaussian vector and B^(n)
    a Gaussian quadratic form: E B = (1/n) sum_t Var y2_t and
    Var B = (2/n^2) sum_{s,t} Cov(y2_s, y2_t)^2.

    The normalized error state e_t (unit variances, correlation K_t[0,1])
    evolves as e_{t+1} = M_t e_t - D_t^-1 a_t z_t / v_t with
    M_t = D_t^-1 (I - a_t b_t^T / v_t), a_t = K_t b_t, v_t = b_t^T a_t + 1,
    b_t = (s1, sign2 s2) and D_t^2 = diag(K_t - a_t a_t^T / v_t); here the
    2x2 matrices are carried directly instead of the library's scalar
    closed forms.  The harvester sees y2_t = g_t^T e_t + nic*w_t + q_t with
    g_t = (sqrt(beta1 snr21), sign2 sqrt(beta2 snr22)): the NIC term is
    i.i.d. and enters only at lag 0, while the part c*z_t of q_t
    (c = noise_correlation) also drives e_{t+1}.  Lags are summed until the
    propagated cross-covariance drops below double precision.
    """
    cfg = params.cfg
    n = params.n
    c = cfg.noise_correlation
    s = np.array([math.sqrt(params.beta1 * cfg.snr11),
                  math.sqrt(params.beta2 * cfg.snr12)])
    g_abs = np.array([math.sqrt(params.beta1 * cfg.snr21),
                      math.sqrt(params.beta2 * cfg.snr22)])
    nic = (cfg.h21 * math.sqrt((1.0 - params.beta1) * cfg.p1)
           + cfg.h22 * math.sqrt((1.0 - params.beta2) * cfg.p2))
    rs = params.rho_star()
    cov_e = np.array([[1.0, rs], [rs, 1.0]])
    m = np.empty((n, 2, 2))  # M_t
    g = np.empty((n, 2))  # g_t
    lag1 = np.empty((n, 2))  # Cov(e_{t+1}, y2_t)
    var = np.empty(n)  # Var y2_t
    for t in range(n):
        flip = np.array([1.0, -1.0 if cov_e[0, 1] < 0.0 else 1.0])
        b = s * flip
        g[t] = g_abs * flip
        a = cov_e @ b
        v = float(b @ a) + 1.0
        post = cov_e - np.outer(a, a) / v
        dinv = 1.0 / np.sqrt(np.diag(post))
        m[t] = dinv[:, None] * (np.eye(2) - np.outer(a, b) / v)
        lag0 = cov_e @ g[t]  # Cov(e_t, y2_t)
        var[t] = float(g[t] @ lag0) + nic * nic + 1.0
        lag1[t] = m[t] @ lag0 - c * dinv * a / v  # z_t enters y2_t as c z_t
        # rebuilt from the one correlation: rounding in a full 2x2 update
        # seeds a skew part that the recursion amplifies within ~20 steps
        r = post[0, 1] * dinv[0] * dinv[1]
        cov_e = np.array([[1.0, r], [r, 1.0]])
    sum_sq = float(np.sum(var * var))
    tiny = np.finfo(float).eps * var.max() / max(1.0, g_abs.max())
    cross = lag1[:-1]  # row s: Cov(e_{s+k}, y2_s) at lag k = 1
    for k in range(1, n):
        lag_cov = np.einsum("si,si->s", g[k:], cross)  # Cov(y2_{s+k}, y2_s)
        sum_sq += 2.0 * float(np.sum(lag_cov * lag_cov))
        if k == n - 1 or np.abs(cross).max() <= tiny:
            break
        cross = np.einsum("sij,sj->si", m[k:n - 1], cross[:-1])
    return float(var.mean()), 2.0 * sum_sq / (n * n)


class FixedDraws:
    """Stand-in for a numpy Generator whose standard_normal calls serve
    consecutive slices of the given draws laid end to end (written into
    out= when one is passed), so one call of the total size and one call
    per draw see the same numbers, as with a real Generator."""

    def __init__(self, *draws):
        self._draws = np.concatenate([np.ravel(d) for d in draws]).astype(float)
        self._next = 0

    def standard_normal(self, size=None, out=None):
        count = out.size if out is not None else int(np.prod(size))
        draw = self._draws[self._next:self._next + count]
        if len(draw) < count:
            raise ValueError("FixedDraws ran out of draws")
        self._next += count
        if out is None:
            return draw.reshape(size).copy()
        out[...] = draw.reshape(out.shape)
        return out


def nearest_index(theta_hat, sp, big):
    """Index m in 1..big whose PAM point sp (1 - 2 (m-1)/big) lies nearest
    to theta_hat, ties to the smaller m; exact rational arithmetic."""
    x = (sp - theta_hat) * big / (2 * sp)  # grid coordinate m - 1
    lo = min(max(math.floor(x), 0), big - 1)
    return 1 + min((c for c in (lo, lo + 1) if c < big),
                   key=lambda c: (abs(x - c), c))


def replay_block(params, m1, m2, rng):
    """One block of the feedback scheme replayed use by use in scalar floats.

    This is Ozarow's MMSE error refinement (IEEE Trans. IT, 1984) with the
    shared energy carrier W_t on top: three init uses carrying (0, Theta2),
    (Theta1, 0) and (0, 0), then n uses in which transmitter i sends
    sqrt(beta_i P_i) times its normalized estimation error (transmitter 2
    with the sign of the current error correlation) plus
    sqrt((1-beta_i) P_i) W_t, and the receiver updates its MMSE estimate.
    It is written from that recursion, not from the library, but each
    float operation comes in the batch engine's order, so the two agree
    bit for bit.  It reads params' fields, params.rho_star() and
    params.messages(i) only.

    rng is drawn from in the engine's order: n+3 receiver noises, n+3
    independent harvester noise components, n carrier symbols.  Messages
    are decided by the nearest PAM point in exact rationals from the
    float estimate of Theta_i; above 2^40 messages (where that estimate
    no longer resolves the grid) m_i is shifted by the exact error
    (Xi_i - Xihat_i) / (h_1i sqrt(1-rho*) delta_i) instead.  b_hat and the
    energies are numpy sums, pairwise as in the engine.

    Returns (fields, state).  fields holds the block's observables: the
    payload-use arrays "x1", "x2", "y1", "y2", "u1" and "u2", the decisions
    "m_hat" and "error", and "b_hat", "energy1" and "energy2"; state holds
    the final "log2_sigma", "corr", "mean" (Xihat_1, Xihat_2), "err"
    (normalized errors), and "xi" and "y_init" (the init-use outputs y1).
    """
    cfg = params.cfg
    n = params.n
    h11, h12, h21, h22 = cfg.h11, cfg.h12, cfg.h21, cfg.h22
    p = (cfg.p1, cfg.p2)
    beta = (params.beta1, params.beta2)
    c = cfg.noise_correlation
    z = rng.standard_normal(n + 3).tolist()
    q_ind = rng.standard_normal(n + 3).tolist()
    w = rng.standard_normal(n).tolist()
    q = [c * zj + math.sqrt(1.0 - c * c) * qj for zj, qj in zip(z, q_ind)]
    big = (params.messages(1), params.messages(2))

    theta = []
    for i, m in ((0, m1), (1, m2)):  # PAM point sqrt(P) (1 - 2 (m-1)/big)
        num = 2 * (m - 1)
        frac = (num / big[i] if big[i] < 2**52
                else ((num << 64) // big[i]) / 2.0**64)
        theta.append(math.sqrt(p[i]) * (1.0 - frac))
    # the receiver's outputs of the init uses (0, Theta2), (Theta1, 0), (0, 0)
    y_init = tuple(h11 * x1 + h12 * x2 + z[j] for j, (x1, x2) in enumerate(
        ((0.0, theta[1]), (theta[0], 0.0), (0.0, 0.0))))

    # Xi_i = sqrt(1-rho*) Z_{-i} + sqrt(rho*) Z_0; z[0], z[1], z[2] are
    # Z_{-2}, Z_{-1}, Z_0
    rs = params.rho_star()
    xi = (math.sqrt(1.0 - rs) * z[1] + math.sqrt(rs) * z[2],
          math.sqrt(1.0 - rs) * z[0] + math.sqrt(rs) * z[2])
    e1, e2 = xi  # normalized errors (Xi_i - Xihat_i) / sigma_i
    s1 = math.sqrt(beta[0] * (h11 ** 2 * p[0]))  # IC amplitudes at receiver
    s2 = math.sqrt(beta[1] * (h12 ** 2 * p[1]))
    amp1, amp2 = math.sqrt(beta[0] * p[0]), math.sqrt(beta[1] * p[1])
    nic1 = math.sqrt((1.0 - beta[0]) * p[0])
    nic2 = math.sqrt((1.0 - beta[1]) * p[1])
    nic_gain = h11 * nic1 + h12 * nic2
    r = rs  # posterior error correlation
    l1 = l2 = 0.0  # log2 sigma_i
    mean1 = mean2 = 0.0  # Xihat_i
    cols = {key: [] for key in ("x1", "x2", "y1", "y2", "u1", "u2")}
    for t in range(n):
        sign2 = -1.0 if r < 0.0 else 1.0
        s2t = sign2 * s2
        a1 = s1 + r * s2t
        a2 = s2t + r * s1
        v = s1 * s1 + s2t * s2t + 2.0 * r * s1 * s2t + 1.0
        d1 = math.sqrt(1.0 - a1 * a1 / v)
        d2 = math.sqrt(1.0 - a2 * a2 / v)
        x1 = nic1 * w[t] + amp1 * e1
        x2 = nic2 * w[t] + sign2 * amp2 * e2
        y1 = h11 * x1 + h12 * x2 + z[t + 3]
        y2 = h21 * x1 + h22 * x2 + q[t + 3]
        yp = y1 - nic_gain * w[t]  # the carrier is known at the receiver
        mean1 += 2.0 ** l1 * a1 / v * yp
        mean2 += 2.0 ** l2 * a2 / v * yp
        e1 = (e1 - a1 * yp / v) / d1
        e2 = (e2 - a2 * yp / v) / d2
        l1 += 0.5 * math.log2(d1 * d1)
        l2 += 0.5 * math.log2(d2 * d2)
        r = (r - a1 * a2 / v) / (d1 * d2)
        for key, val in (("x1", x1), ("x2", x2), ("y1", y1), ("y2", y2),
                         ("u1", x1 - nic1 * w[t]), ("u2", x2 - nic2 * w[t])):
            cols[key].append(val)

    h = (h11, h12)
    m_hat = []
    for i, m, mean, en, log2_sigma, y_obs in (
            (0, m1, mean1, e1, l1, y_init[1]),
            (1, m2, mean2, e2, l2, y_init[0])):
        sp = Fraction(math.sqrt(p[i]))
        if big[i] == 1:
            m_hat.append(1)
        elif max(big) > 2**40:
            k = math.floor(log2_sigma)
            sigma = Fraction(2) ** k * Fraction(2.0 ** (log2_sigma - k))
            shift = (Fraction(en) * sigma * big[i] / (
                Fraction(h[i]) * Fraction(math.sqrt(1.0 - rs)) * 2 * sp))
            m_hat.append(min(max(m - math.floor(shift + Fraction(1, 2)), 1),
                             big[i]))
        else:
            theta_hat = (y_obs + math.sqrt(rs / (1.0 - rs)) * y_init[2]
                         - mean / math.sqrt(1.0 - rs)) / h[i]
            m_hat.append(nearest_index(Fraction(theta_hat), sp, big[i]))
    m_hat = tuple(m_hat)
    fields = {key: np.array(val) for key, val in cols.items()}
    fields.update(
        m_hat=m_hat, error=m_hat != (m1, m2),
        b_hat=float(np.mean(fields["y2"] ** 2)),
        energy1=theta[0] * theta[0] + float(np.sum(fields["x1"] ** 2)),
        energy2=theta[1] * theta[1] + float(np.sum(fields["x2"] ** 2)))
    state = {"log2_sigma": (l1, l2), "corr": r, "mean": (mean1, mean2),
             "err": (e1, e2), "xi": xi, "y_init": y_init}
    return fields, state
