import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import (brute_force_sum_capacity, brute_force_time_sharing,
                      golden_section_replay, grid_starts, pareto_corners,
                      rho_min_closed_form, scan_rho_star)
from gmac_seit import channel, region

SYM10 = channel.from_snr(10, 10, 10, 10)
ASYM = channel.from_snr(10, 3, 5, 7)

pos_snr = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pos_unit = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
snr_or_zero = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e) | st.just(0.0)


def boundary_triplets(cfg, feedback, resolution):
    return [rec.triplet for rec in region.sample_boundary_records(
        cfg, feedback=feedback, resolution=resolution)]


def flat_grid(cfg, feedback, resolution):
    """The seven flat arrays (beta1, beta2, rho, r1_max, r2_max, rsum_max,
    b_max) of the uniform grid in (beta1, beta2, rho) order, rho fastest."""
    g = np.linspace(0.0, 1.0, resolution)
    ops = [a.ravel() for a in np.meshgrid(g, g, g if feedback else np.zeros(1),
                                          indexing="ij")]
    return ops + list(region._boxes(cfg, *ops))


# --- phi and rho* -----------------------------------------------------------

def test_phi_hand_value():
    assert region.phi(SYM10, 1.0, 1.0, 0.0) == pytest.approx(21 - 121)


def test_phi_degenerate_split():
    assert region.phi(SYM10, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


@given(pos_snr, pos_snr, pos_unit, pos_unit)
@settings(max_examples=200)
def test_phi_bracket_and_residual(s11, s12, b1, b2):
    cfg = channel.from_snr(s11, s12, 1.0, 1.0)
    # a*c can cancel to zero in float64 at tiny SNR-split products
    assert region.phi(cfg, b1, b2, 0.0) <= 0.0
    assert region.phi(cfg, b1, b2, 1.0) >= 0.0
    rs = region.solve_rho_star(cfg, b1, b2)
    assert 0.0 <= rs < 1.0
    # residual scales with the product of the two exponentiated bounds
    scale = (1.0 + b1 * s11) * (1.0 + b2 * s12)
    assert abs(region.phi(cfg, b1, b2, rs)) < 1e-9 * scale


def test_rho_star_residual_sym10():
    rs = region.solve_rho_star(SYM10, 1.0, 1.0)
    assert abs(region.phi(SYM10, 1.0, 1.0, rs)) < 1e-9
    assert rs == pytest.approx(0.7116, abs=5e-4)


def test_rho_star_matches_dense_scan():
    rs = region.solve_rho_star(ASYM, 0.8, 0.6)
    assert rs == pytest.approx(scan_rho_star(ASYM, 0.8, 0.6), abs=1e-5)


def test_rho_star_zero_branch():
    assert region.solve_rho_star(SYM10, 0.0, 1.0) == 0.0
    assert region.solve_rho_star(channel.from_snr(0, 10, 1, 1), 1.0, 1.0) == 0.0


def test_rho_star_symmetry():
    assert region.solve_rho_star(SYM10, 0.3, 0.7) == \
        pytest.approx(region.solve_rho_star(SYM10, 0.7, 0.3), abs=1e-11)


# --- xi ----------------------------------------------------------------------

def test_xi_values():
    assert region.xi(SYM10, 15.0) == 0.0
    assert region.xi(SYM10, 31.0) == pytest.approx(0.5)
    assert region.xi(SYM10, channel.max_energy_rate(SYM10)) == \
        pytest.approx(1.0)


def test_xi_infeasible():
    with pytest.raises(region.InfeasibleEnergyRateError):
        region.xi(SYM10, 42.0)
    cfg = channel.from_snr(10, 10, 0, 10)
    with pytest.raises(region.InfeasibleEnergyRateError):
        region.xi(cfg, 11.5)  # above 1 + s21 + s22 with degenerate product
    assert region.xi(cfg, 11.0) == 0.0
    # within the feasibility tolerance of b_max = 6, but xi's formula would
    # divide by SNR21*SNR22 = 0
    with pytest.raises(region.InfeasibleEnergyRateError, match="= 0"):
        region.xi(channel.from_snr(10, 10, 0, 5), 6 + 1e-9)


@st.composite
def energy_rates(draw):
    """(cfg, b): an SNR quadruple from snr_or_zero and b in
    [0, b_max + 1e-9 b_max], the feasibility tolerance included, rounded
    as _check_feasible_b rounds it (b_max (1 + 1e-9) can round an ulp
    past it)."""
    cfg = channel.from_snr(*draw(st.tuples(*[snr_or_zero] * 4)))
    bmax = channel.max_energy_rate(cfg)
    return cfg, draw(st.floats(0.0, bmax + 1e-9 * max(1.0, bmax)))


def independent_energy(cfg):
    """1 + SNR21 + SNR22, the energy rate of independent full-power inputs."""
    return 1.0 + cfg.snr21 + cfg.snr22


DEGENERATE = channel.from_snr(10, 10, 0, 5)  # SNR21*SNR22 = 0


@given(energy_rates())
@example((SYM10, independent_energy(SYM10)))
@example((SYM10, channel.max_energy_rate(SYM10) * (1.0 + 5e-10)))
@example((DEGENERATE, independent_energy(DEGENERATE)))
@example((DEGENERATE, channel.max_energy_rate(DEGENERATE) * (1.0 + 5e-10)))
@settings(max_examples=300, deadline=None)
def test_xi_matches_closed_form(case):
    # past independent inputs' energy, b needs correlation, which adds
    # energy only where SNR21*SNR22 > 0
    cfg, b = case
    if min(cfg.snr21, cfg.snr22) == 0.0 and b > independent_energy(cfg):
        with pytest.raises(region.InfeasibleEnergyRateError, match="= 0"):
            region.xi(cfg, b)
        return
    got = region.xi(cfg, b)
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(rho_min_closed_form(cfg, 1.0, 1.0, b),
                                rel=1e-12, abs=1e-15)


def test_rho_min_hand_values():
    # rho_min at the full split beta1 = beta2 = 1 is xi; the beta-general
    # oracle that test_xi_matches_closed_form trusts is pinned here by hand
    assert region.xi(SYM10, 21.0) == 0.0
    assert rho_min_closed_form(SYM10, 1.0, 1.0, 21.0) == 0.0
    # 1 + 4 + 9 = 14 from independent inputs, 2 sqrt(4 * 9) = 12 coherent
    cfg = channel.from_snr(10, 3, 4, 9)
    for b, want in [(17.0, 0.25), (20.0, 0.5), (26.0, 1.0)]:
        assert region.xi(cfg, b) == pytest.approx(want, rel=1e-15)
        assert rho_min_closed_form(cfg, 1.0, 1.0, b) == \
            pytest.approx(want, rel=1e-15)
    # at half power the NIC part's 2 sqrt(5 * 5) = 10 already covers b = 30
    assert rho_min_closed_form(SYM10, 0.5, 0.5, 30.0) == 0.0
    # at SNR21 = 0 no correlation adds energy: the oracle saturates at 1
    # where xi raises (test_xi_infeasible)
    assert rho_min_closed_form(DEGENERATE, 0.5, 0.5, 6 + 1e-9) == 1.0


@pytest.mark.parametrize("fun", [region.sum_capacity_fb,
                                 region.sum_capacity_nf,
                                 region.time_sharing_sum_rate, region.xi])
def test_energy_rate_nan_refused(fun):
    # NaN fails every comparison, so it must be refused before them, as a
    # usage error rather than an infeasible energy rate
    with pytest.raises(ValueError, match="must be a number") as exc:
        fun(SYM10, math.nan)
    assert not isinstance(exc.value, region.InfeasibleEnergyRateError)


# --- region boxes ------------------------------------------------------------

def test_region_box_pure_energy():
    r1, r2, rsum, bmax = region._boxes(SYM10, 0.0, 0.0, 0.0)
    assert r1 == r2 == rsum == 0.0
    assert bmax == pytest.approx(channel.max_energy_rate(SYM10))


def test_region_box_hand_values():
    r1, r2, rsum, bmax = region._boxes(SYM10, 1.0, 1.0, 0.0)
    assert rsum == pytest.approx(0.5 * math.log2(21))
    assert bmax == pytest.approx(21.0)
    assert r1 == pytest.approx(0.5 * math.log2(11))
    _, nf_r2, _, nf_bmax = region._boxes(SYM10, 1.0, 0.0, 0.0)
    assert nf_bmax == pytest.approx(21.0)
    assert nf_r2 == 0.0


@given(pos_unit, pos_unit)
@settings(max_examples=100)
def test_region_box_sum_split_at_rho_star(b1, b2):
    rs = region.solve_rho_star(SYM10, b1, b2)
    r1, r2, rsum, _ = region._boxes(SYM10, b1, b2, rs)
    assert r1 + r2 == pytest.approx(rsum, abs=1e-9)


@pytest.mark.parametrize("feedback", [True, False])
@pytest.mark.parametrize("snr", [(10, 10, 10, 10), (10, 3, 2, 5)])
def test_grid_boxes_match_scalar_box_bitwise(snr, feedback):
    # one closed form: every (rho, beta1, beta2) value of the rho-major
    # grid is exactly the box at that point's Python floats, the form
    # SimConfig.effective_epsilon evaluates
    cfg = channel.from_snr(*snr)
    g, rho, *bounds = region._grid_boxes(cfg, feedback, 24)
    shape = (24 if feedback else 1, 24, 24)
    grid = np.stack([np.broadcast_to(a, shape) for a in bounds], axis=-1)
    scalar = np.array([[[region._boxes(cfg, b1, b2, r) for b2 in g.tolist()]
                        for b1 in g.tolist()] for r in rho.tolist()])
    assert g.tolist() == np.linspace(0.0, 1.0, 24).tolist()
    assert rho.tolist() == (g.tolist() if feedback else [0.0])
    assert grid.shape == scalar.shape == shape + (4,)
    assert grid.tobytes() == scalar.tobytes()


def test_grid_boxes_entry_size():
    # r1 varies over (rho, beta1) and r2 over (rho, beta2) only, so a grid
    # 48 feedback entry holds two full 48^3 arrays, not seven
    entry = region._grid_boxes(SYM10, True, 48)
    # the buffers the entry keeps alive, each counted once
    owners = {id(o): o for o in (a if a.base is None else a.base
                                 for a in entry)}.values()
    assert all(o.base is None and o.dtype == np.float64 for o in owners)
    assert sum(o.size for o in owners) <= 2 * 48 ** 3 + 4 * 48 ** 2


def test_monotonicity_in_rho():
    grid = np.linspace(0.0, 1.0, 20).tolist()
    for b1 in grid:
        for b2 in grid:
            boxes = [region._boxes(ASYM, b1, b2, r) for r in grid]
            for lo, hi in zip(boxes, boxes[1:]):
                assert hi[0] <= lo[0] + 1e-12  # r1_max
                assert hi[1] <= lo[1] + 1e-12  # r2_max
                assert hi[2] >= lo[2] - 1e-12  # rsum_max
                assert hi[3] >= lo[3] - 1e-12  # b_max


# --- membership --------------------------------------------------------------

def test_contains_trivial_point():
    assert region.contains(SYM10, region.RateTriplet(0.0, 0.0, 1.0))
    assert region.contains(ASYM, region.RateTriplet(0.0, 0.0, 1.0),
                           feedback=False)


def test_contains_q5_with_and_without_feedback():
    q5 = region.RateTriplet(0.5 * math.log2(11),
                            0.5 * math.log2(1 + 10 / 11), 21.0)
    assert region.contains(SYM10, q5, feedback=True)
    assert region.contains(SYM10, q5, feedback=False)


def test_contains_rejects_absurd_point():
    assert not region.contains(SYM10, region.RateTriplet(10.0, 10.0, 1.0))
    with pytest.raises(ValueError, match="grid_n"):
        region.contains(SYM10, region.RateTriplet(0.0, 0.0, 1.0), grid_n=1)


@pytest.mark.parametrize("feedback", [True, False])
def test_contains_rejects_overflowing_grid(feedback):
    # 600 bits exceed the sum capacity of about 333.2 bits, but a grid of
    # inf and nan sum bounds once let the grid test pass
    cfg = channel.from_snr(1e200, 1e200, 1.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="region bounds overflow float64"
                                             " at these SNRs"):
            region.contains(cfg, region.RateTriplet(300.0, 300.0, 1.0),
                            feedback=feedback)
    assert caught == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
def test_rate_triplet_rejects_non_finite_and_negative(bad):
    for k in range(3):
        comps = [0.5, 0.5, 1.0]
        comps[k] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            region.RateTriplet(*comps)
    assert region.RateTriplet(0.0, -0.0, 0.0).b == 0.0


@pytest.mark.parametrize("feedback", [True, False])
def test_refine_coord_returns_column_scores(feedback):
    # contains stops at the first pass that certifies a start; that verdict
    # is the one of all passes only if each pass returns every column's own
    # score, bit for bit, and never lowers it
    t = region.RateTriplet(1.6, 1.5, 30.0)

    def score(q):
        r1, r2, rs, b = region._boxes(SYM10, *q)
        return np.minimum(np.minimum(r1 - t.r1, r2 - t.r2),
                          np.minimum(rs - (t.r1 + t.r2), b - t.b))

    pts = np.random.default_rng(5).uniform(0.0, 1.0, (3, 16))
    if not feedback:
        pts[2] = 0.0
    fx = score(pts)
    raised = False
    for c in (0, 1, 2) * 2 if feedback else (0, 1) * 2:
        entry = fx
        fx = region._refine_coord(region._line_slack(SYM10, t, pts, c), pts,
                                  c, 0.1, entry)
        assert fx.tobytes() == score(pts).tobytes()
        assert (fx >= entry).all()
        raised |= bool((fx > entry).any())
    assert raised


def slack_score(cfg, t):
    """contains' score: the least slack of t's four bounds in the box."""
    def score(q):
        r1, r2, rs, b = region._boxes(cfg, *q)
        return np.minimum(np.minimum(r1 - t.r1, r2 - t.r2),
                          np.minimum(rs - (t.r1 + t.r2), b - t.b))
    return score


@st.composite
def plateau_scores(draw):
    """Polynomial scores of the three rows, cut into plateaus of tied
    values (levels > 0) and with a NaN window along one row."""
    center = [draw(unit) for _ in range(3)]
    weight = [draw(st.floats(0.0, 4.0)) for _ in range(3)]
    cubic = draw(st.floats(-8.0, 8.0))
    levels = draw(st.sampled_from([0, 1, 3, 16, 1000]))
    nan_row, nan_lo = draw(st.integers(0, 2)), draw(unit)
    nan_hi = nan_lo + draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5]))

    def score(q):
        d = [q[i] - center[i] for i in range(3)]
        v = cubic * (d[0] * d[0] * d[0] + d[1] * d[1] * d[1]
                     + d[2] * d[2] * d[2])
        for i in range(3):
            v = v - weight[i] * d[i] * d[i]
        if levels:
            v = np.floor(v * levels) / levels
        return np.where((q[nan_row] > nan_lo) & (q[nan_row] < nan_hi),
                        np.nan, v)
    return score


def starts(n):
    """(3, n) starts, some on the bracket-clipping edges 0 and 1."""
    return hnp.arrays(np.float64, (3, n), elements=unit | st.sampled_from(
        [0.0, 1.0, 0.5, 1.0 / 47.0]))


def on_line(score, pts, c):
    """score, a function of the three rows, as _refine_coord's line(v):
    the scores of the (m, n) probes v along row c of pts as it is now."""
    rows = pts.copy()

    def line(v):
        q = [np.broadcast_to(r, v.shape) for r in rows]
        q[c] = v
        return score(q)
    return line


def assert_replays_step_by_step(score, pts, c, h):
    fx = score(pts)
    want_pts, want = golden_section_replay(score, pts, c, h, fx)
    got = region._refine_coord(on_line(score, pts, c), pts, c, h, fx)
    assert pts.tobytes() == want_pts.tobytes()
    assert got.tobytes() == want.tobytes()


log_h = st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e)


@given(st.sampled_from([1, 48]).flatmap(starts), st.integers(0, 2), log_h,
       plateau_scores())
@settings(max_examples=150, deadline=None)
def test_refine_coord_replays_step_by_step_search(pts, c, h, score):
    # the probe tree takes each column through the brackets, probes and
    # scores of the one-probe-per-call search, bit for bit, through ties,
    # plateaus and NaN scores
    assert_replays_step_by_step(score, pts, c, h)


@given(st.sampled_from([(10, 10, 10, 10), (10, 3, 2, 5), (3, 20, 8, 1),
                        (0.5, 2, 1, 4)]),
       st.booleans(), st.sampled_from([0.999, 1.0, 1.001]),
       st.integers(0, 10 ** 6), st.integers(9, 48), st.data())
@settings(max_examples=60, deadline=None)
def test_refine_coord_replays_step_by_step_on_box_slack(snr, fb, scale, pick,
                                                        grid, data):
    cfg = channel.from_snr(*snr)
    base = boundary_triplets(cfg, True, 8)
    t0 = base[pick % len(base)]
    t = region.RateTriplet(t0.r1 * scale, t0.r2 * scale, t0.b * scale)
    pts = data.draw(starts(48 if fb else 1))
    if not fb:
        pts[2] = 0.0
    c = data.draw(st.integers(0, 2 if fb else 1))
    assert_replays_step_by_step(slack_score(cfg, t), pts, c, 1.0 / (grid - 1))


rates = st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0),
                  st.floats(0.0, 2e3)).map(lambda r: region.RateTriplet(*r))


@given(st.tuples(*[snr_or_zero] * 4), rates,
       st.sampled_from([1, 48]).flatmap(
           lambda n: st.tuples(starts(n), st.sampled_from([2, 15, 23]).flatmap(
               lambda m: hnp.arrays(np.float64, (m, n), elements=unit | (
                   st.sampled_from([0.0, 1.0])))))),
       st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_line_slack_matches_boxes_bitwise(snr, t, probes, c):
    # a pass's line kernel evaluates only the terms of row c, yet every
    # score is slack of _boxes at the probe, byte for byte
    cfg = channel.from_snr(*snr)
    pts, v = probes
    q = [np.broadcast_to(r, v.shape) for r in pts]
    q[c] = v
    want = slack_score(cfg, t)(q)
    assert region._line_slack(cfg, t, pts, c)(v).tobytes() == want.tobytes()


@given(st.tuples(*[snr_or_zero] * 4), rates,
       hnp.arrays(np.float64, (3, 2, 8), elements=unit),
       hnp.arrays(np.float64, (3, 8), elements=unit | st.sampled_from(
           [0.0, 1.0])))
@settings(max_examples=200, deadline=None)
def test_slack_bound_holds_over_box(snr, t, ends, where):
    # the start bound that lets contains drop a start holds, up to its
    # rounding allowance, at every point of the box, the corners among
    # them (where 0 or 1 picks one)
    cfg = channel.from_snr(*snr)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    p = np.clip(lo + where * (hi - lo), lo, hi)
    bound = region._slack_bound(cfg, t, lo, hi)
    mu = region._ROUNDING * max(1.0, t.r1, t.r2, t.b)
    assert (slack_score(cfg, t)(p) <= bound + mu).all()


def keep_every_start(cfg, t, lo, hi):
    """A stand-in for _slack_bound under which contains keeps every start."""
    return np.full(lo.shape[1], np.inf)


def test_refine_coord_scores_eleven_times_per_pass(monkeypatch):
    # one call for the opening pair and one per four steps: a search that
    # went back to one probe per call would make 43
    t = region.RateTriplet(1.6, 1.5, 30.0)
    calls = []

    def counted(line):
        def wrapped(v):
            calls.append(v)
            return line(v)
        return wrapped

    for n in (1, 48):
        pts = np.random.default_rng(n).uniform(0.0, 1.0, (3, n))
        score = slack_score(SYM10, t)
        calls.clear()
        region._refine_coord(counted(region._line_slack(SYM10, t, pts, 1)),
                             pts, 1, 0.1, score(pts))
        assert len(calls) == 11
    refine = region._refine_coord
    per_pass = []

    def refine_counted(line, *args):
        calls.clear()
        out = refine(counted(line), *args)
        per_pass.append(len(calls))
        return out

    monkeypatch.setattr(region, "_refine_coord", refine_counted)
    far = region.RateTriplet(3.0, 3.0, 40.0)
    # no start of this triplet can certify it, so the start bound drops
    # them all before the first pass
    for fb in (True, False):
        assert not region.contains(SYM10, far, feedback=fb, grid_n=9)
    assert per_pass == []
    monkeypatch.setattr(region, "_slack_bound", keep_every_start)
    for fb in (True, False):
        assert not region.contains(SYM10, far, feedback=fb, grid_n=9)
    assert per_pass == [11] * 10


def test_contains_verdicts_golden_digest():
    # verdicts of the full two-sweep refinement, recorded before it could
    # stop early: every 32nd res-12 feedback boundary triplet, scaled by
    # 1, 1.001 and 0.999, at two SNR quadruples, both modes, grids 8 and 16
    bits = []
    for snr in ((10, 10, 10, 10), (10, 3, 2, 5)):
        cfg = channel.from_snr(*snr)
        base = boundary_triplets(cfg, True, 12)[::32]
        for fb in (True, False):
            for grid in (8, 16):
                for s in (1.0, 1.001, 0.999):
                    bits += ["1" if region.contains(
                        cfg, region.RateTriplet(t.r1 * s, t.r2 * s, t.b * s),
                        feedback=fb, grid_n=grid) else "0" for t in base]
    verdicts = "".join(bits)
    assert (len(verdicts), verdicts.count("1")) == (264, 113)
    assert hashlib.sha256(verdicts.encode()).hexdigest() == (
        "adb7bd7754389cf2a9dba0138d21609c1a34eb4adb4c93054a7cebe6d4ff554b")


def test_contains_grid48_refinement_verdicts_golden_digest():
    # verdicts at the benchmark's grid 48, where 67 of these 103 triplets
    # go to the refinement (47 accepted there, 20 rejected after every
    # pass): every 16th res-24 SYM10 feedback boundary triplet
    verdicts = "".join(
        "1" if region.contains(SYM10, t, feedback=True, grid_n=48) else "0"
        for t in boundary_triplets(SYM10, True, 24)[::16])
    assert (len(verdicts), verdicts.count("1")) == (103, 83)
    assert hashlib.sha256(verdicts.encode()).hexdigest() == (
        "c704a45f9b7dcd3e27f70d99a35dd46ed6d2a3ba6c51692683d79b0d8f79bc3f")


def test_probe_tree_tables_follow_golden_steps():
    # the tree is rebuilt here, symbol by symbol, by the golden-step rule:
    # (a, lo, hi, b) goes left to (a, hi - gr * (hi - a), lo, hi) and
    # right to (lo, hi, lo + gr * (b - lo), b); a probe is written as its
    # rule's (X, Y), and the tables must name the same points
    def kids(node):
        a, lo, hi, b = node
        return (a, (hi, a), lo, hi), (lo, hi, (lo, b), b)

    rows = region._ROWS
    for first, want in zip(region._FIRST, kids(("a", "lo", "hi", "b"))):
        sym = {0: "a", 1: "lo", 2: "hi", 3: "b"}
        sym[8] = (sym[first[0]], sym[first[1]])
        assert tuple(sym[r] for r in first[2:6]) == want
        assert list(first[6:]) == [rows + first[3], rows + first[4]]

    tree = {(): ("A", "L", "H", "B")}  # the root, rows 4-7; True: left
    for depth in range(region._GOLDEN_DEPTH - 1):
        for path in [p for p in tree if len(p) == depth]:
            tree[path + (True,)], tree[path + (False,)] = kids(tree[path])
    sym, top = {4: "A", 5: "L", 6: "H", 7: "B"}, 9
    for depth, ((xs, ys), out) in enumerate(region._XY, 1):
        assert out == slice(top, top + len(xs))
        level = [(sym[x], sym[y]) for x, y in zip(xs, ys)]
        assert sorted(map(repr, level)) == sorted(
            repr(tree[p][1] if p[-1] else tree[p][2])
            for p in tree if len(p) == depth)
        sym.update(zip(range(out.start, out.stop), level))
        top = out.stop
    assert top == rows - 8
    inner = [p for p in tree if len(p) < region._GOLDEN_DEPTH - 1]
    dec = [(sym[lo], sym[hi]) for lo, hi in zip(*region._DEC)]
    assert sorted(dec, key=repr) == sorted((tree[p][1:3] for p in inner),
                                           key=repr)
    mid = [(sym[a], sym[b]) for a, b in zip(*region._MID)]
    for code in range(2 ** len(dec)):
        path = ()
        while path in inner:  # node i decides by bit i of code
            path += (bool(code >> dec.index(tree[path][1:3]) & 1),)
        leaf = region._LEAF[code]
        assert tuple(sym[r] for r in leaf[:4]) == tree[path]
        assert top <= leaf[4] < rows
        assert mid[leaf[4] - top] == (tree[path][0], tree[path][3])
        assert list(leaf[5:]) == [rows + r for r in leaf[[1, 2, 4]]]


def test_contains_verdicts_do_not_depend_on_slack_blocks(monkeypatch):
    # the refinement starts are a block-wise argmax over the grid; at grid
    # 24 the default takes two blocks of rho slices, and one slice per block
    # must pick the same starts
    cfg = channel.from_snr(10, 3, 2, 5)
    ts = [region.RateTriplet(t.r1 * s, t.r2 * s, t.b * s)
          for t in boundary_triplets(cfg, True, 12)[::32]
          for s in (1.001, 0.999)]

    def verdicts():
        return [region.contains(cfg, t, feedback=fb, grid_n=24)
                for t in ts for fb in (True, False)]

    want = verdicts()
    monkeypatch.setattr(region, "_SLACK_BLOCK", 1)
    assert verdicts() == want


class _FirstPass(Exception):
    """Raised by a stand-in for _refine_coord to end contains there."""


@pytest.mark.parametrize("fb", [True, False])
@pytest.mark.parametrize("grid", [2, 3, 5, 9, 17, 48])
def test_contains_grid_test_and_starts_match_flat_oracle(grid, fb,
                                                         monkeypatch):
    # contains tests the cover of its grid's maxima (built once per grid)
    # and takes the starts from blocks of whole rho slices of the full
    # grid; its verdict and the first pass's pts and scores must be those
    # of one flat pass over the grid, bit for bit:
    # every start with the start bound stood in for, and with the bound
    # the starts whose bound over the box they can reach in the two
    # sweeps, h per pass, clears -eps by the rounding allowance
    seen = []

    def first_pass(line, pts, c, h, fx):
        seen.append((pts.copy(), fx.copy()))
        raise _FirstPass

    monkeypatch.setattr(region, "_refine_coord", first_pass)
    bound = region._slack_bound
    verdicts = []
    for snr in ((10, 10, 10, 10), (10, 3, 2, 5), (3, 20, 8, 1)):
        cfg = channel.from_snr(*snr)
        flat = flat_grid(cfg, fb, grid)
        for t0 in boundary_triplets(cfg, True, 8)[::5]:
            for s in (0.999, 1.0, 1.001):
                t = region.RateTriplet(t0.r1 * s, t0.r2 * s, t0.b * s)
                hit, want = grid_starts(flat, (t.r1, t.r2, t.b),
                                        grid if fb else 1)
                verdicts.append(hit)
                if not hit:
                    scale = max(1.0, t.r1, t.r2, t.b)
                    reach = np.array([[2], [2], [2 if fb else 0]]) * (
                        1.0 / (grid - 1) + region._ROUNDING)
                    kept = bound(cfg, t, np.maximum(0.0, want - reach),
                                 np.minimum(1.0, want + reach)) >= (
                        -1e-9 * scale - region._ROUNDING * scale)
                for bounded in (False, True):
                    monkeypatch.setattr(region, "_slack_bound",
                                        bound if bounded else keep_every_start)
                    seen.clear()
                    try:
                        got = region.contains(cfg, t, feedback=fb,
                                              grid_n=grid)
                    except _FirstPass:
                        got = None
                    if hit:
                        assert got is True and seen == []
                        continue
                    cols = want[:, kept] if bounded else want
                    if not cols.size:
                        assert got is False and seen == []
                        continue
                    pts, fx = seen[0]
                    assert pts.tobytes() == cols.tobytes()
                    assert fx.tobytes() == slack_score(cfg, t)(
                        cols).tobytes()
    assert not all(verdicts)
    assert any(verdicts) or grid == 2


@given(st.tuples(*[snr_or_zero] * 4), st.sampled_from([2, 3, 5, 9, 17]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_grid_cover_covers_the_grid(snr, grid, fb):
    # every grid point's four bounds are each at most those of one cover
    # column, and every column is some grid point's bounds, bit for bit:
    # so a triplet hits the cover iff it hits the grid
    cfg = channel.from_snr(*snr)
    cover = region._grid_cover(cfg, fb, grid)[0]
    bounds = np.stack(flat_grid(cfg, fb, grid)[3:])
    above = np.ones((cover.shape[1], bounds.shape[1]), bool)
    for c, b in zip(cover, bounds):
        above &= c[:, None] >= b
    assert cover.shape[0] == 4 and above.any(axis=0).all()
    points = {col.tobytes() for col in np.ascontiguousarray(bounds.T)}
    assert all(col.tobytes() in points
               for col in np.ascontiguousarray(cover.T))


def test_grid_cover_is_small_and_lean():
    # at the benchmark's grid a tenth of the points cover the grid, and
    # building the cover of a cached grid stays inside the margin that the
    # grid build leaves under a first contains call's peak; the rows that
    # contains reads as Python floats are the cover's own memory, so what
    # the cache keeps is about the (4, M) array
    cover, rows = region._grid_cover(SYM10, True, 48)
    assert cover.shape[1] <= 0.1 * 48 ** 3
    tracemalloc.start()
    try:
        again = region._grid_cover.__wrapped__(SYM10, True, 48)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again[0].tobytes() == cover.tobytes()
    assert [row.tolist() for row in rows] == cover.tolist()
    assert peak <= 1.0e6
    assert kept <= 2 * cover.nbytes


def tie(x, thr, lo, hi):
    """The least float w in (lo, hi] at which thr, nondecreasing with
    thr(lo) < x <= thr(hi), is at least x, found by bisection: thr(w) == x
    there if any w ties thr to x."""
    while math.nextafter(lo, math.inf) < hi:
        mid = min(max(lo + (hi - lo) / 2, math.nextafter(lo, math.inf)),
                  math.nextafter(hi, -math.inf))
        lo, hi = (mid, hi) if thr(mid) < x else (lo, mid)
    return hi


def tied_b(x, r1, r2):
    """The least b at which contains' b threshold, b - 1e-9 max(1, r1, r2,
    b), is at least x: x itself where some b rounds it to x."""
    return tie(x, lambda b: b - 1e-9 * max(1.0, r1, r2, b),
               x, x + 3e-9 * max(1.0, r1, r2, x))


def tied_sum(x, r1, b):
    """The least r2 at which contains' rsum threshold, r1 + r2 - 1e-9
    max(1, r1, r2, b), is at least x >= r1: x itself where some r2 rounds
    it to x."""
    return tie(x, lambda r2: r1 + r2 - 1e-9 * max(1.0, r1, r2, b),
               x - r1, x - r1 + 3e-9 * max(1.0, r1, x, b))


def covering(cover, t):
    """The b rank of t in the b-sorted cover and the columns from it whose
    rates cover t, by contains' comparisons."""
    r1c, r2c, rsc, bc = cover
    eps = 1e-9 * max(1.0, *t)
    lo = int(np.searchsorted(bc, t[2] - eps))
    ok = ((r1c[lo:] >= t[0] - eps) & (r2c[lo:] >= t[1] - eps)
          & (rsc[lo:] >= t[0] + t[1] - eps))
    return lo, lo + np.flatnonzero(ok)


def block_edge_triplets(cover):
    """Triplets whose first covering column lies _COVER_BLOCK - 1 and
    _COVER_BLOCK columns past their b rank: the last column of contains'
    first block and the first one after it.  Found by scanning the rates
    each column covers against every b rank, preferring a triplet that no
    later column covers."""
    r1c, r2c, rsc, bc = cover
    m = len(bc)
    fit1 = np.minimum(r1c, rsc)
    fit2 = np.maximum(0.0, np.minimum(r2c, rsc - fit1))
    eps = 1e-9 * np.maximum(np.maximum(1.0, fit1), np.maximum(fit2, bc[-1]))
    covers = ((r1c >= (fit1 - eps)[:, None]) & (r2c >= (fit2 - eps)[:, None])
              & (rsc >= (fit1 + fit2 - eps)[:, None]))
    col = np.arange(m)
    nxt = np.minimum.accumulate(np.where(covers, col, m)[:, ::-1],
                                axis=1)[:, ::-1]
    ranks = np.flatnonzero(np.r_[True, bc[1:] > bc[:-1]])  # bisect_left's
    found = []
    for off in (region._COVER_BLOCK - 1, region._COVER_BLOCK):
        best = None  # (columns covering t from its rank, t)
        for j, k in zip(*np.nonzero((nxt[:, ranks] == ranks + off)
                                    & (ranks + off < m))):
            t = (fit1[j], fit2[j], tied_b(bc[ranks[k]], fit1[j], fit2[j]))
            lo, cols = covering(cover, t)
            if (cols.size and cols[0] == lo + off
                    and (best is None or cols.size < best[0])):
                best = cols.size, t
        if best:
            found.append(best[1])
    return found


class _Miss(Exception):
    """Raised by a stand-in for _grid_boxes: contains missed the cover."""


@given(st.tuples(*[snr_or_zero] * 4), st.sampled_from([2, 3, 9, 17]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example((10.0, 10.0, 10.0, 10.0), 17, True, 0)  # hits past the block
@example((10.0, 10.0, 0.0, 0.0), 9, True, 0)  # every b is equal
@settings(max_examples=60, deadline=None)
def test_cover_hit_test_matches_flat_compare(snr, grid, fb, seed):
    # contains' grid test, a bisect_left rank on the b-sorted cover and
    # the rate comparisons from there, a 64-column block first, gives the
    # verdict of the four comparisons over every grid point
    cfg = channel.from_snr(*snr)
    cover = region._grid_cover(cfg, fb, grid)[0]
    assert (np.diff(cover[3]) >= 0).all()
    rng = np.random.default_rng(seed)
    r1c, r2c, rsc, bc = cover
    # rates that each column covers, the sum bound included, at b = 0: the
    # first covering column may then lie past the first block
    fit1 = np.minimum(r1c, rsc)
    fit2 = np.maximum(0.0, np.minimum(r2c, rsc - fit1))
    ts = list(zip(fit1, fit2, np.zeros_like(bc)))
    pick = rng.permutation(cover.shape[1])[:60]
    for r1, r2, rs, b in cover.T[pick]:
        ts.append((r1, r2, b))  # the column taken exactly
        r1 = min(r1, rs)
        r2 = max(0.0, min(r2, rs - r1))
        eps = 1e-9 * max(1.0, r1, r2, b)
        d = rng.choice([-2.0, -1.0, 1.0, 2.0], 3) * eps
        ts += [
            (r1, r2, b),  # its covered rates, as they stand and moved
            tuple(max(0.0, v) for v in (r1 + d[0], r2 + d[1], b + d[2])),
            (r1, r2, tied_b(b, r1, r2)),  # the threshold on b itself
            # on its rsum face, the sum threshold on its rsum
            (r1, tied_sum(rs, r1, b), tied_b(b, r1, rs - r1))]
    top = 1.1 * cover.max(axis=1)
    ts += zip(*(rng.uniform(0.0, top[k], 30) for k in (0, 1, 3)))
    # rates every column covers, at the largest b, and at the least b whose
    # threshold passes it: no column is scanned there, so contains must
    # reach the stand-in for the refinement
    ts.append((0.0, 0.0, tied_b(bc[-1], 0.0, 0.0)))
    ts.append((0.0, 0.0, tied_b(math.nextafter(bc[-1], math.inf), 0.0, 0.0)))
    must_miss = len(ts) - 1
    edges = block_edge_triplets(cover)
    if cfg == SYM10 and grid == 17 and fb:  # one column decides each
        spans = [covering(cover, t) for t in edges]
        assert [list(cols - lo) for lo, cols in spans] == [
            [region._COVER_BLOCK - 1], [region._COVER_BLOCK]]
    ts += edges
    r1, r2, b = np.array(ts).T[:, :, None]
    eps = 1e-9 * np.maximum(np.maximum(1.0, r1), np.maximum(r2, b))
    r1b, r2b, rsb, bb = (a.ravel() for a in np.broadcast_arrays(
        *region._grid_boxes(cfg, fb, grid)[2:]))
    want = ((r1b >= r1 - eps) & (r2b >= r2 - eps) & (rsb >= r1 + r2 - eps)
            & (bb >= b - eps)).any(axis=1)
    with pytest.MonkeyPatch.context() as mp:
        def miss(*args):
            raise _Miss
        mp.setattr(region, "_grid_boxes", miss)
        for i, (t, hit) in enumerate(zip(ts, want)):
            try:
                got = region.contains(cfg, region.RateTriplet(*t),
                                      feedback=fb, grid_n=grid)
            except _Miss:
                got = False
            else:
                assert i != must_miss
            assert got == hit, (t, hit)


# --- capacities in b ----------------------------------------------------------

def test_sum_capacity_fb_values():
    rs = region.solve_rho_star(SYM10, 1.0, 1.0)
    assert region.sum_capacity_fb(SYM10, 0.0) == \
        pytest.approx(0.5 * math.log2(21 + 20 * rs))
    assert region.sum_capacity_fb(SYM10, 41.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        region.sum_capacity_fb(SYM10, -1.0)
    # past b_max (41) beyond the 1e-9 tolerance no input delivers b
    with pytest.raises(region.InfeasibleEnergyRateError):
        region.sum_capacity_fb(SYM10, 42.0)


def test_sum_capacity_nf_values():
    assert region.sum_capacity_nf(SYM10, 15.0) == \
        pytest.approx(0.5 * math.log2(21))
    assert region.sum_capacity_nf(SYM10, 31.0) == \
        pytest.approx(0.5 * math.log2(11))
    assert region.sum_capacity_nf(SYM10, 41.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        region.sum_capacity_nf(SYM10, -1.0)
    # past b_max (41) beyond the 1e-9 tolerance no input delivers b
    with pytest.raises(region.InfeasibleEnergyRateError):
        region.sum_capacity_nf(SYM10, 42.0)


def test_sum_capacity_continuity_at_edges():
    rs = region.solve_rho_star(SYM10, 1.0, 1.0)
    edge_fb = 21.0 + 20.0 * rs
    for cfg, fun, edge in [
            (SYM10, region.sum_capacity_fb, edge_fb),
            (SYM10, region.sum_capacity_fb, 41.0),
            (SYM10, region.sum_capacity_nf, 41.0),
            (ASYM, region.sum_capacity_nf,
             1 + 12 + 2 * math.sqrt(35) * math.sqrt(3 / 10)),
            (ASYM, region.sum_capacity_nf, channel.max_energy_rate(ASYM)),
            (ASYM, region.sum_capacity_fb, channel.max_energy_rate(ASYM))]:
        assert fun(cfg, edge - 1e-12) == pytest.approx(fun(cfg, edge + 1e-12),
                                                       abs=1e-6)


def test_sum_capacity_against_brute_force_asymmetric():
    bs = np.linspace(0.0, channel.max_energy_rate(ASYM), 9)
    fb = brute_force_sum_capacity(ASYM, bs, grid_n=101, feedback=True)
    nf = brute_force_sum_capacity(ASYM, bs, grid_n=101, feedback=False)
    for b, v in zip(bs, fb):
        assert region.sum_capacity_fb(ASYM, b) == pytest.approx(v, abs=1.5e-2)
        assert region.sum_capacity_fb(ASYM, b) >= v - 1e-9  # closed form wins
    for b, v in zip(bs, nf):
        assert region.sum_capacity_nf(ASYM, b) == pytest.approx(v, abs=1.5e-2)
        assert region.sum_capacity_nf(ASYM, b) >= v - 1e-9


def test_time_sharing_matches_nf_capacity_when_unconstrained():
    assert region.time_sharing_sum_rate(SYM10, 15.0) == \
        region.sum_capacity_nf(SYM10, 15.0)


def test_time_sharing_strictly_below_nf_capacity():
    val = region.time_sharing_sum_rate(SYM10, 31.0)
    assert val < region.sum_capacity_nf(SYM10, 31.0) - 0.01
    # half the block on energy: lam* = (41 - 31) / 20
    assert val == pytest.approx(0.25 * math.log2(21), rel=1e-12)


def test_time_sharing_infeasible():
    with pytest.raises(region.InfeasibleEnergyRateError):
        region.time_sharing_sum_rate(SYM10, 42.0)
    with pytest.raises(ValueError, match="nonnegative"):
        region.time_sharing_sum_rate(SYM10, -1.0)


@pytest.mark.parametrize("snr", [(10, 3, 2, 5), (10, 10, 10, 10),
                                 (3, 20, 8, 1), (10, 3, 0, 5)])
def test_time_sharing_against_brute_force(snr):
    # the oracle's best grid share lies below lam* by less than one lam
    # step, so it is short of the closed form by at most the full-power
    # sum rate over that step
    cfg = channel.from_snr(*snr)
    s = (cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22)
    n_lam = 401
    full = 0.5 * math.log2(1.0 + s[0] + s[1])
    for b in np.linspace(0.0, channel.max_energy_rate(cfg), 21):
        closed = region.time_sharing_sum_rate(cfg, b)
        brute = brute_force_time_sharing(s, b, n_lam=n_lam)
        assert brute <= closed + 1e-12
        assert closed - brute <= full / (n_lam - 1) + 1e-12


@given(st.tuples(*[snr_or_zero] * 4))
@settings(max_examples=200, deadline=None)
def test_time_sharing_never_beats_power_splitting(snr):
    # on every b of a sumcap table the time-switching column is at most
    # rsum_nf, and bit for bit equal to it where b needs no energy phase
    cfg = channel.from_snr(*snr)
    for b in np.linspace(0.0, channel.max_energy_rate(cfg), 41):
        b = float(b)
        ts = region.time_sharing_sum_rate(cfg, b)
        nf = region.sum_capacity_nf(cfg, b)
        assert 0.0 <= ts <= nf
        if b <= 1.0 + cfg.snr21 + cfg.snr22:
            assert ts == nf


# --- feedback energy gain ------------------------------------------------------

def test_gamma_closed_form_sym10():
    gamma, b_fb = region.b_fb_at_nf_sum_capacity(SYM10)
    assert gamma == pytest.approx(0.1 * (math.sqrt(21) - 1), abs=1e-12)
    assert b_fb == pytest.approx(21 + 2 * math.sqrt((1 - gamma) * 100))
    # defining constraint: NF sum capacity recovered at b_fb
    x = region.xi(SYM10, b_fb)
    lhs = 0.5 * math.log2(1 + 20)
    rhs = math.log2(1 + (1 - x * x) * 10)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_gamma_symmetric_form_and_swap():
    s = 3.7
    cfg = channel.from_snr(s, s, 1, 2)
    gamma, _ = region.b_fb_at_nf_sum_capacity(cfg)
    assert gamma == pytest.approx((1 / s) * (math.sqrt(1 + 2 * s) - 1))
    swapped = channel.from_snr(5, 2, 1, 1)
    flipped = channel.from_snr(2, 5, 1, 1)
    assert region.b_fb_at_nf_sum_capacity(swapped)[0] == \
        pytest.approx(region.b_fb_at_nf_sum_capacity(flipped)[0])


def test_gamma_vanishes_at_high_snr():
    cfg = channel.from_snr(1e8, 1e8, 1e8, 1e8)
    gamma, _ = region.b_fb_at_nf_sum_capacity(cfg)
    assert gamma < 1e-3


def test_degenerate_snr_rejected():
    with pytest.raises(region.DegenerateSnrError):
        region.b_fb_at_nf_sum_capacity(channel.from_snr(0, 10, 1, 1))


@pytest.mark.parametrize("snr", [(1e-200, 1e-200, 1e-200, 1e-200),
                                 (1e-162, 1e-162, 1, 1),
                                 (1e-300, 1e-30, 2, 5)])
def test_gain_ratio_names_snr_product_underflow(snr):
    # 2 * SNR11 * SNR12 rounds to 0 although both are positive; the gamma
    # closed form divides by it
    cfg = channel.from_snr(*snr)
    for fn in (region.b_fb_at_nf_sum_capacity, region.feedback_gain_ratio):
        with pytest.raises(region.DegenerateSnrError, match="underflows"):
            fn(cfg)


def test_gain_ratio_just_above_underflow_returns():
    # 2e-322 is subnormal, not 0: the closed form still returns a value
    cfg = channel.from_snr(1e-161, 1e-161, 1, 1)
    gamma, b_fb = region.b_fb_at_nf_sum_capacity(cfg)
    assert math.isfinite(gamma) and math.isfinite(b_fb)
    assert region.feedback_gain_ratio(cfg) >= 1.0


@given(pos_snr, pos_snr, pos_snr, pos_snr)
@settings(max_examples=1000, deadline=None)
def test_gain_ratio_bounds(s11, s12, s21, s22):
    cfg = channel.from_snr(s11, s12, s21, s22)
    ratio = region.feedback_gain_ratio(cfg)
    assert 1.0 <= ratio <= 2.0


def test_gain_ratio_limit_values():
    assert region.gain_ratio_limit_high_snr(1.0) == pytest.approx(2.0)
    assert region.gain_ratio_limit_high_snr(4.0) == pytest.approx(1.8)
    assert region.gain_ratio_limit_high_snr(0.25) == pytest.approx(1.8)


# --- boundary sampling ----------------------------------------------------------

def test_sample_boundary_includes_pure_energy_point():
    triplets = boundary_triplets(SYM10, True, 2)
    assert any(t.r1 == 0.0 and t.r2 == 0.0 and t.b == pytest.approx(41.0)
               for t in triplets)


snr_range = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@given(snr_range, snr_range, snr_range, snr_range, st.booleans(), st.just(6))
@example(10, 3, 5, 7, True, 8)  # ASYM
@example(10, 3, 5, 7, False, 8)
@settings(max_examples=40, deadline=None)
def test_sample_boundary_members_pass_contains(s11, s12, s21, s22, fb, res):
    cfg = channel.from_snr(s11, s12, s21, s22)
    for t in boundary_triplets(cfg, fb, res):
        assert region.contains(cfg, t, feedback=fb, grid_n=res)


def test_sample_boundary_leaves_grid_cache_alone():
    # only contains keeps grids; a boundary sample would hold one per call
    cfg = channel.from_snr(6, 4, 3, 2)
    before = region._grid_boxes.cache_info()
    for fb in (True, False):
        region.sample_boundary_records(cfg, feedback=fb, resolution=9)
    after = region._grid_boxes.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses
    region.contains(cfg, region.RateTriplet(0.0, 0.0, 0.0), grid_n=9)
    assert region._grid_boxes.cache_info().misses == before.misses + 1


def test_sample_boundary_is_pareto():
    ts = boundary_triplets(SYM10, True, 6)
    arr = np.array([(t.r1, t.r2, t.b) for t in ts])
    for k, p in enumerate(arr):
        ge = (arr >= p).all(axis=1)
        gt = (arr > p).any(axis=1)
        dominators = ge & gt
        dominators[k] = False
        assert not dominators.any()


@given(snr_range, snr_range, snr_range, snr_range, st.booleans(),
       st.integers(min_value=2, max_value=7))
@example(10, 10, 10, 10, True, 7)  # symmetric: many tied triplets
@example(10, 3, 2, 5, False, 7)
@example(10, 10, 0, 10, True, 7)  # s21 = 0: every b is equal
@example(10, 10, 0, 10, False, 7)
@example(10, 10, 0, 0, True, 5)
@example(0, 10, 5, 5, True, 7)  # s11 = 0: every point's corners are equal
@example(0, 10, 5, 5, False, 7)
@settings(max_examples=60, deadline=None)
def test_sample_boundary_matches_brute_force_oracle(s11, s12, s21, s22, fb,
                                                    res):
    cfg = channel.from_snr(s11, s12, s21, s22)
    recs = region.sample_boundary_records(cfg, feedback=fb, resolution=res)
    got = np.array([tuple(rec) for rec in recs])
    want = pareto_corners(flat_grid(cfg, fb, res))
    # same rows in the same order, bit for bit
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("snr", [(10, 10, 0, 10), (10, 10, 10, 10),
                                 (10, 3, 2, 5)])
@pytest.mark.parametrize("fb", [True, False])
@pytest.mark.parametrize("res", range(2, 10))
def test_b_order_is_stable_argsort(snr, fb, res):
    # at s21 = 0 every b ties, and SYM10 ties b across the beta1 <-> beta2
    # mirror; the unstable argsort's fix-up must give index order in a run
    bb = flat_grid(channel.from_snr(*snr), fb, res)[6]
    pts, nb = region._b_order(bb)
    want = np.argsort(-bb, kind="stable")
    assert pts.tolist() == want.tolist()
    assert nb.tobytes() == (-bb[want]).tobytes()


def test_b_order_on_many_ties():
    # a few distinct values in shuffled runs, long enough for the SIMD sort
    bb = np.random.default_rng(1).integers(0, 7, 5000).astype(float)
    assert (region._b_order(bb)[0].tolist()
            == np.argsort(-bb, kind="stable").tolist())


def test_boundary_records_are_csv_rows():
    # cmd_region writes boundary_table's columns in header order, and each
    # record is one of its rows
    names = tuple(region.CSV_HEADER.split(","))
    assert region.BoundarySample._fields == names
    table = region.boundary_table(ASYM, feedback=True, resolution=5)
    recs = region.sample_boundary_records(ASYM, feedback=True, resolution=5)
    assert recs
    assert table.dtype == np.float64 and table.shape == (len(recs), len(names))
    assert np.array(recs).tobytes() == table.tobytes()
    for rec in recs:
        assert isinstance(rec, tuple) and len(rec) == len(names)
        assert tuple(rec) == tuple(getattr(rec, name) for name in names)
        assert rec.triplet == region.RateTriplet(rec.r1, rec.r2, rec.b)


def pareto_keep_brute_force(xs, ys):
    """Rows that no earlier row weakly dominates in (x, y), one at a time."""
    return np.array([k for k in range(len(xs))
                     if not ((xs[:k] >= xs[k]) & (ys[:k] >= ys[k])).any()],
                    dtype=np.intp)


def _pareto_cases():
    """(xs, ys, cuts): rows for _pareto_filter, and where to cut them into
    2 to 5 pieces for a sweep that carries its staircase across calls."""
    live, block = region._PARETO_LIVE, region._PARETO_BLOCK
    rng = np.random.default_rng(3)
    pieces, cut_rng = iter([2, 3, 4, 5] * 3), np.random.default_rng(4)

    def case(xs, ys, name):
        # cut at the first block's end, then after one row, then anywhere
        k = next(pieces)
        cuts = {block, block + 1}
        while len(cuts) < k - 1:
            cuts.add(int(cut_rng.integers(1, len(xs))))
        return pytest.param(xs, ys, sorted(cuts)[:k - 1], id=name)

    up = np.arange(2 * block + 37, dtype=float)
    # every row survives, so every block ends at its live-th survivor
    yield case(up, up[::-1].copy(), "antichain")
    yield case(up[::-1].copy(), up, "antichain_reversed")
    yield case(np.full(block + 5, 0.5), np.full(block + 5, 0.5), "all_equal")
    # the first block ends at its live-th row; the second holds exactly
    # live (then live + 1) rows right of that staircase, shuffled among
    # copies of the staircase's own rows
    i = np.arange(live, dtype=float)
    for k in (live, live + 1):
        j = np.arange(k, dtype=float)
        dead = rng.integers(0, live, block - k)
        p = rng.permutation(block)
        yield case(
            np.concatenate([i, np.concatenate([1000.0 + j, i[dead]])[p]]),
            np.concatenate([live - 1.0 - i,
                            np.concatenate([-j, live - 1.0 - i[dead]])[p]]),
            f"block_of_{k}_live")
    # many ties on a coarse grid, staircase carried over several blocks
    for seed in range(3):
        r = np.random.default_rng(seed)
        yield case(r.integers(0, 40, 3 * block).astype(float),
                   r.integers(0, 40, 3 * block).astype(float),
                   f"coarse_{seed}")


@pytest.mark.parametrize("xs,ys,cuts", _pareto_cases())
def test_pareto_filter_matches_brute_force(xs, ys, cuts):
    want = pareto_keep_brute_force(xs, ys).tolist()
    assert region._pareto_filter(xs, ys, []).tolist() == want
    # the same rows in pieces, the staircase carried from piece to piece
    stair = []
    got = [lo + region._pareto_filter(xs[lo:hi], ys[lo:hi], stair)
           for lo, hi in zip([0] + cuts, cuts + [len(xs)])]
    assert np.concatenate(got).tolist() == want


@pytest.mark.parametrize("cfg", [SYM10, channel.from_snr(10, 10, 0, 10),
                                 channel.from_snr(10, 3, 2, 5)])
def test_sample_boundary_memory_per_grid_point(cfg):
    # only b, rsum and the b order are grid-sized: no (2*res^3, 6) row
    # matrix, and the chunks of rows are a sixteenth of the grid.  At
    # s21 = 0 every b is equal, so the one chunk holds the whole grid
    one_run = cfg.snr21 == 0.0
    region.sample_boundary_records(cfg, True, 4)  # warm up lazy imports
    for res, bound in [(24, 160)] if one_run else [(24, 64), (48, 64)]:
        tracemalloc.start()
        try:
            region.sample_boundary_records(cfg, True, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * res**3, res


@pytest.mark.parametrize("snr", [(10, 10, 10, 10), (10, 3, 2, 5),
                                 (10, 10, 0, 10)])
@pytest.mark.parametrize("fb", [True, False])
def test_boundary_table_does_not_depend_on_chunks(snr, fb, monkeypatch):
    # SYM10 ties b across the beta1 <-> beta2 mirror, and at s21 = 0 every
    # b ties; chunks of one grid point hold one run of equal b each
    cfg = channel.from_snr(*snr)
    res_list = (5, 17, 24)
    want = [region.boundary_table(cfg, fb, res).tobytes() for res in res_list]
    for size in (1, region._PARETO_BLOCK):
        monkeypatch.setattr(region, "_chunk_points", lambda n: size)
        got = [region.boundary_table(cfg, fb, res).tobytes()
               for res in res_list]
        assert got == want, size


@given(snr_range, snr_range, snr_range, snr_range, st.booleans(),
       st.integers(min_value=2, max_value=12))
@settings(max_examples=40, deadline=None)
def test_sample_boundary_below_sum_capacity(s11, s12, s21, s22, fb, res):
    # two independent closed forms: every boundary row lies under the sum
    # capacity at its own energy rate
    cfg = channel.from_snr(s11, s12, s21, s22)
    c_sum = region.sum_capacity_fb if fb else region.sum_capacity_nf
    for t in boundary_triplets(cfg, fb, res):
        assert t.r1 + t.r2 <= c_sum(cfg, t.b) * (1.0 + 1e-12)


def test_no_feedback_boundary_inside_feedback_region():
    for t in boundary_triplets(SYM10, False, 12):
        assert region.contains(SYM10, t, feedback=True, grid_n=12)
