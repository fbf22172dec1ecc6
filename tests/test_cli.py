import contextlib
import decimal
import hashlib
import io
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import feedback_gain_decimal, sum_capacities, ulps
from gmac_seit import channel, cli, coder, mc, region


def run_cli(argv, capsys=None):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in fh if line.strip()])
    return header, rows


def test_region_csv(tmp_path):
    out = tmp_path / "region.csv"
    rc = run_cli(["region", "--snr", "10,10,10,10", "--res", "2",
                  "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["beta1", "beta2", "rho", "r1", "r2", "b"]
    # the all-energy corner survives the Pareto filter
    bcol = rows[:, 5]
    k = int(np.argmax(bcol))
    assert bcol[k] == pytest.approx(41.0)
    assert rows[k, 3] == 0.0 and rows[k, 4] == 0.0


# The digests below hold the last bits of numpy's AVX-512 math on an x86-64
# host whose numpy (2.4.6) dispatches to X86_V4, AVX512_ICL and AVX512_SPR:
# there np.log2 differs from libm's log2 in a few hundred of 10^6
# arguments.  Run with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR", np.log2 equals libm, and sym10_fb_res48, ratio_csv,
# ratio_json and region_json_sym10_fb_res16 read other digests.

# SHA-256 of region CSV output, recorded with the np.unique and per-row
# staircase Pareto filter that preceded the blocked sweep
REGION_GOLDEN = {
    "sym10_fb_res2": (
        ["--snr", "10,10,10,10", "--res", "2"],
        "b7ef4f3bf15906e381da010283f7764a516f3bda5f59fa819372a7526b32de5e"),
    "sym10_fb_res48": (
        ["--snr", "10,10,10,10", "--res", "48"],
        "5c9713274ae22a89addd4554c1a7489633dc205cb7f051c606865f16e76a14fc"),
    "asym_nf_res64": (
        ["--snr", "10,3,2,5", "--no-feedback", "--res", "64"],
        "6fcb9ce9164bf14bd047e4fd11584d027760ec24b5a869a88307243e5595d679"),
    # every b ties at s21 = 0: the whole grid is one run of equal b, so the
    # r1 tie fix-up and the sweep's block cut both shape this file; recorded
    # with the blocked sweep, before the records became tuples
    "s21zero_fb_res48": (
        ["--snr", "10,10,0,10", "--res", "48"],
        "3586e8abea3d212b988199c9b0e827a944f841eeccf3eaa0e5eada278aecbede"),
}


@pytest.mark.parametrize("name", sorted(REGION_GOLDEN))
def test_region_csv_golden_digest(tmp_path, name):
    argv, digest = REGION_GOLDEN[name]
    out = tmp_path / "region.csv"
    assert run_cli(["region", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the other data files, recorded with the per-format writers
# that preceded cli._write_table; the rsum_timeshare digest was recorded
# from sumcap --timeshare itself once its column became the closed-form
# time-switching baseline, whose rows with b <= 1 + SNR21 + SNR22 equal
# rsum_nf bit for bit and whose b_max row reads 0; the ratio digests were
# recorded once gamma and 1 - gamma took one form that does not cancel,
# after a 60-digit decimal check put every ratio row within 1.5 ulp (6 of
# the 13 rows moved, each closer to the exact value)
TABLE_GOLDEN = {
    "region_json_sym10_fb_res16": (
        ["region", "--snr", "10,10,10,10", "--res", "16", "--format", "json"],
        "3f39f31e5ce3d68976770a981f2d241255716930e2a997ed42eabe56b2a8280d"),
    "region_json_asym_nf_res24": (
        ["region", "--snr", "10,3,2,5", "--no-feedback", "--res", "24",
         "--format", "json"],
        "1c7e2115733dbb0680388baa8dfbec137994e5468535f4ef9bd37bf2e0f78108"),
    "sumcap_csv": (
        ["sumcap", "--snr", "10,3,2,5", "--points", "21"],
        "9fca733fc2d26f95719b11933a6ee8e512c97f6c98adffe27176ab02bedae742"),
    "sumcap_json": (
        ["sumcap", "--snr", "10,3,2,5", "--points", "21", "--format", "json"],
        "f66820bb1796f8d79321c598d45006120ffc44731bda19edcd8f666a02ab7fe4"),
    "sumcap_timeshare_csv": (
        ["sumcap", "--snr", "10,3,2,5", "--points", "21", "--timeshare"],
        "55f0a1a88b684423dd784eab0382c268a4a674e4196bf711b4319387305f9baa"),
    "ratio_csv": (
        ["ratio", "--points", "13", "--asym", "4"],
        "9f5c166740b43287981eb259756f409c1a1dd2dc8ba0d9cb1ccbf31f2727fec6"),
    "ratio_json": (
        ["ratio", "--points", "13", "--asym", "4", "--format", "json"],
        "9593abf6022bfa3ab72a928413b1de6885982c318d6e8a9bb437cba62b2f5c67"),
}


@pytest.mark.parametrize("name", sorted(TABLE_GOLDEN))
def test_table_golden_digest(tmp_path, name):
    argv, digest = TABLE_GOLDEN[name]
    out = tmp_path / "table"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_region_csv_round_trip(tmp_path):
    out = tmp_path / "boundary.csv"
    assert run_cli(["region", "--snr", "10,3,5,7", "--res", "4",
                    "--out", str(out)]) == 0
    with open(out) as fh:
        back = region.records_from_csv(fh)
    cfg = channel.from_snr(10, 3, 5, 7)
    want = region.boundary_table(cfg, feedback=True, resolution=4)
    # %.17g round-trips every float64, so the array comes back bit for bit
    assert back.shape == want.shape
    assert back.tobytes() == want.tobytes()


def test_region_verify_contains(tmp_path, capsys):
    nf = tmp_path / "nf.csv"
    fb = tmp_path / "fb.csv"
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "6",
                    "--no-feedback", "--out", str(nf)]) == 0
    # no-feedback boundary must lie inside the feedback region
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "6",
                    "--out", str(fb), "--verify-contains", str(nf)]) == 0
    # but most of the feedback boundary lies outside the no-feedback region
    capsys.readouterr()
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "6",
                    "--no-feedback", "--out", str(tmp_path / "nf2.csv"),
                    "--verify-contains", str(fb)]) == 1
    assert "49 of 60 triplets not found" in capsys.readouterr().err


# values where %.17g is easy to get wrong: signed zeros, subnormals, the
# float64 extremes, and integers
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -1.0, 0.1, 1e16, 123456789.0)


@st.composite
def float_tables(draw):
    """2-D float tables whose cells repeat a few drawn values many times."""
    rows = draw(st.integers(1, 200))
    cols = draw(st.integers(1, 7))
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                   st.floats(allow_nan=False,
                                             allow_infinity=False)),
                         min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(pool)[rng.integers(0, len(pool), (rows, cols))]


@given(float_tables())
@example(np.array([[-0.0]]))
@example(np.array([[0.0, -0.0, 5e-324, -1e308]]))
@example(np.array([[0.0], [-0.0], [0.0], [-0.0]]))
@settings(max_examples=300, deadline=None)
def test_write_table_csv_matches_per_row_format(table):
    # formatting each distinct value once gives the bytes of formatting
    # every cell, row by row
    names = tuple(f"c{j}" for j in range(table.shape[1]))
    line = ",".join(["%.17g"] * len(names)) + "\n"
    want = ",".join(names) + "\n" + "".join(
        line % tuple(row) for row in table.tolist())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_table(None, "csv", names, table)
    assert buf.getvalue() == want


def test_region_json(tmp_path):
    out = tmp_path / "region.json"
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "2",
                    "--format", "json", "--out", str(out)]) == 0
    recs = json.loads(out.read_text())
    assert all(set(r) == {"beta1", "beta2", "rho", "r1", "r2", "b"}
               for r in recs)


def test_sumcap_fb_dominates_nf(tmp_path):
    # at SNR 1e-6 the no-feedback rate at b = b_max is log2 of a sum that
    # is 1 in exact arithmetic, which rounding once took below 1
    out = tmp_path / "sumcap.csv"
    for snr in ("10,10,10,10", "1e-6,1e-6,1e-6,1e-6"):
        assert run_cli(["sumcap", "--snr", snr, "--points", "41",
                        "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["b", "rsum_fb", "rsum_nf"]
        b_max = channel.max_energy_rate(
            channel.from_snr(*map(float, snr.split(","))))
        assert rows[0, 0] == 0.0 and rows[-1, 0] == b_max
        assert (rows[:, 1:] >= 0.0).all(), snr
        assert (rows[:, 1] >= rows[:, 2] - 1e-12).all()
        assert rows[-1, 1] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1, 2] == pytest.approx(0.0, abs=1e-12)


def test_sumcap_where_energy_products_overflow(tmp_path):
    # SNR21*SNR22 overflows: xi once read excess/inf = 0, and the feedback
    # edge 2*rho*sqrt(inf) = 2*0*inf was nan at the second SNRs.  Where
    # SNR11*SNR12 overflows too, sqrt(inf) once took the no-feedback sum to
    # -inf at b_max, a math domain error.  _oracles.sum_capacities cannot
    # check these rows: np.roots fails once its a*c overflows
    out = tmp_path / "sumcap.csv"
    assert run_cli(["sumcap", "--snr", "1,1,1e300,1e300", "--points", "5",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    want = [sum_capacities((1.0, 1.0, 1e300, 1e300), b) for b in rows[:, 0]]
    np.testing.assert_allclose(rows[:, 1:], want, rtol=1e-12, atol=0.0)
    assert (rows[:, 1] >= rows[:, 2]).all()
    assert (rows[-1, 1:] == 0.0).all()
    assert run_cli(["sumcap", "--snr", "1e-12,1e-12,1e300,1e30",
                    "--points", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert (rows[:, 1] >= rows[:, 2]).all()
    # below b_max, rho* and xi are 0 here and both rates read
    # 1/2 log2(1 + SNR11 + SNR12), once 1e-4 off as 1 + x kept only the
    # bits of x above 2^-52
    cfg = channel.from_snr(1e-12, 1e-12, 1e300, 1e30)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(cfg.snr11) + decimal.Decimal(cfg.snr12)
        exact = float((1 + x).ln() / (2 * decimal.Decimal(2).ln()))
    np.testing.assert_allclose(rows[:-1, 1:], exact, rtol=1e-12, atol=0.0)
    # the time-switching column once read 1.4428e-12 on every row, above
    # rsum_nf and not 0 at b_max: its grid took 1 + x without log1p
    assert run_cli(["sumcap", "--snr", "1e-12,1e-12,1e300,1e30",
                    "--points", "3", "--timeshare", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[:, 3].tolist() == rows[:, 2].tolist()
    assert rows[-1, 3] == 0.0
    assert run_cli(["sumcap", "--snr", "1e300,1e300,1e300,1e300",
                    "--points", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert (rows[:, 1] >= rows[:, 2]).all()
    assert (rows[-1, 1:] == 0.0).all()
    # at b = 0 both users send at full power, with rho* -> 1 with feedback:
    # the log2 arguments are 1 + 4e300 and, without feedback, 1 + 2e300
    np.testing.assert_allclose(
        rows[0, 1:], [0.5 * math.log2(4e300), 0.5 * math.log2(2e300)],
        rtol=1e-12, atol=0.0)
    # xi rounds to 1 - 1.1e-16 at b_max, which once left rsum_nf above 0
    assert run_cli(["sumcap", "--snr", "1,1,1e160,1e154", "--points", "5",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[-1, 1:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("asym", [None, "4", "3.7", "3.1"])
def test_ratio_rows_against_decimal(tmp_path, asym):
    # limit_high_snr is the limit at the --asym given, bit for bit, not at
    # the config's SNR21 / SNR22, which from_snr's round trip moves (7 of
    # the 13 rows at --asym 3.1 once read another limit); every ratio lies
    # within 1.5 ulp of a 60-digit evaluation at the config
    out = tmp_path / "ratio.csv"
    argv = [] if asym is None else ["--points", "13", "--asym", asym]
    assert run_cli(["ratio", *argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    k = 1.0 if asym is None else float(asym)
    assert set(rows[:, 2]) == {region.gain_ratio_limit_high_snr(k)}
    for s, ratio in rows[:, :2]:
        cfg = channel.from_snr(k * s, s, k * s, s)
        exact = feedback_gain_decimal(
            (cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22))[2]
        assert ulps(ratio, exact) <= 1.5, (s, ratio)


def test_sumcap_timeshare_at_most_nf_seed67(tmp_path):
    # row 24 of this table once read rsum_timeshare 1.1840038704229285
    # above rsum_nf 1.1840038704229283, 1.03 ulp apart in exact arithmetic:
    # time switching runs inside the no-feedback region
    out = tmp_path / "sumcap.csv"
    assert run_cli(["sumcap", "--snr", "1,3.1622776601683795,"
                    "1.000000000000003,1", "--points", "41", "--timeshare",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert (rows[:, 3] <= rows[:, 2]).all()
    assert rows[24, 3] == rows[24, 2] == 1.1840038704229283


def test_ratio_endpoints(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run_cli(["ratio", "--points", "13", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["snr", "ratio", "limit_high_snr"]
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-3)
    # symmetric case: high-SNR limit of the energy gain is 2
    assert rows[-1, 1] == pytest.approx(2.0, abs=2e-3)
    assert np.allclose(rows[:, 2], 2.0)
    assert ((rows[:, 1] >= 1.0 - 1e-12) & (rows[:, 1] <= 2.0 + 1e-12)).all()
    # at SNR 1e-12, sqrt(1 + x) - 1 in gamma's closed form once cancelled
    # to gamma > 1 and a math domain error
    assert run_cli(["ratio", "--asym", "4", "--snr-min", "1e-12",
                    "--snr-max", "1e-9", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert ((rows[:, 1] >= 1.0) & (rows[:, 1] <= 2.0)).all()
    for s in rows[:, 0]:
        cfg = channel.from_snr(4 * s, s, 4 * s, s)
        x = 4 * cfg.snr11 * cfg.snr12 / (cfg.snr11 + cfg.snr12)
        gamma, _ = region.b_fb_at_nf_sum_capacity(cfg)
        assert gamma == pytest.approx(2 / (1 + math.sqrt(1 + x)), rel=1e-12)
    # where 4 * SNR11 * SNR12 overflows, gamma's closed form once read
    # inf ("math domain error"), and from SNR 1e154 on, where 2 * SNR11 *
    # SNR12 overflows too, 0 * inf ("ratio is nan")
    for lo, hi in (("8e153", "9.4e153"), ("1e155", "1e160")):
        assert run_cli(["ratio", "--snr-min", lo, "--snr-max", hi,
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        np.testing.assert_allclose(rows[:, 1], rows[:, 2], rtol=1e-12,
                                   atol=0.0)
        assert (rows[:, 2] == 2.0).all()


def test_simulate_reproducible(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                        "--rate-frac", "0.5", "--n", "50", "--trials", "10",
                        "--seed", "4", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["trials"] == 10
    assert rep["p_error_hat"] == 0.0


def test_simulate_zero_target_per_blocklength(tmp_path):
    # the README's outage-vs-blocklength loop: one run per n, each the
    # mc.run of the same scheme at that n
    cfg = channel.from_snr(10, 10, 10, 10)
    for n in (10, 20, 40):
        out = tmp_path / f"n{n}.json"
        assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                        "--rate", "0.3,0.3", "--n", str(n), "--trials", "5",
                        "--seed", "0", "--target-b", "0",
                        "--out", str(out)]) == 0
        params = coder.SchemeParams(cfg=cfg, n=n, r1=0.3, r2=0.3, beta1=1.0,
                                    beta2=1.0, seed=0)
        want = io.StringIO()
        mc.run(mc.SimConfig(params=params, trials=5, target_b=0.0)).to_json(
            want)
        assert out.read_text() == want.getvalue()
        assert json.loads(want.getvalue())["outage_hat"] == 0.0


def test_simulate_seed_env_default(tmp_path, monkeypatch):
    argv = ["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
            "--rate", "0.1,0.1", "--n", "20", "--trials", "5"]
    out1, out2, out3 = (tmp_path / n for n in ("1.json", "2.json", "3.json"))
    monkeypatch.setenv("GMAC_SEIT_SEED", "99")
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # explicit flag wins over the environment
    assert run_cli(argv + ["--seed", "1", "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


@pytest.mark.parametrize("value", ["abc", "1e3", "-1", ""])
def test_bad_seed_env_only_stops_simulate(tmp_path, monkeypatch, capsys,
                                          value):
    monkeypatch.setenv("GMAC_SEIT_SEED", value)
    assert run_cli(["ratio", "--points", "2", "--out",
                    str(tmp_path / "r.csv")]) == 0
    assert run_cli(["sumcap", "--snr", "10,10,10,10", "--points", "2",
                    "--out", str(tmp_path / "s.csv")]) == 0
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "2",
                    "--out", str(tmp_path / "g.csv")]) == 0
    argv = ["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
            "--rate", "0.1,0.1", "--n", "10", "--trials", "2"]
    capsys.readouterr()
    out = tmp_path / "sim.json"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("invalid arguments: GMAC_SEIT_SEED must be a nonnegative "
                   f"integer, got {value!r}\n")
    assert not out.exists()
    # an explicit --seed does not read the variable
    assert run_cli(argv + ["--seed", "3", "--out", str(out)]) == 0


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["region"])  # --snr missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                 "--rate", "0.1,0.1", "--rate-frac", "0.5",
                 "--n", "10", "--trials", "2"])
    assert exc.value.code == 2
    # an infeasible energy target exits 3 even beside a bad trial count
    for trials in ("2", "0"):
        assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                        "--rate", "0.1,0.1", "--n", "10", "--trials", trials,
                        "--target-b", "50"]) == 3, trials
    assert run_cli(["sumcap", "--snr", "10,10,10,10", "--points", "3",
                    "--out", str(tmp_path / "no" / "such" / "dir.csv")]) == 4
    with pytest.raises(SystemExit) as exc:
        run_cli(["region", "--snr", "10,10,10"])  # not a quadruple
    assert exc.value.code == 2
    # non-finite rates, energy targets and margins are usage errors
    sim = ["simulate", "--snr", "10,10,10,10", "--beta", "1,1", "--n", "10",
           "--trials", "2", "--out", str(tmp_path / "sim.json")]
    for extra in (["--rate", "inf,0"], ["--rate-frac", "inf"],
                  ["--rate", "0.1,0.1", "--target-b", "nan"],
                  ["--rate", "0.1,0.1", "--target-b=-inf"],
                  ["--rate", "0.1,0.1", "--epsilon", "nan"],
                  ["--rate", "0.1,0.1", "--epsilon", "inf"]):
        assert run_cli(sim + extra) == 2, extra
    # a rate above every float64 capacity would overflow the message count
    assert run_cli(sim + ["--rate", "1e300,0"]) == 2
    for bmax in ("nan", "inf"):
        assert run_cli(["sumcap", "--snr", "10,10,10,10", "--points", "3",
                        "--bmax", bmax,
                        "--out", str(tmp_path / "sumcap.csv")]) == 2, bmax
    # a --bmax past b_max (41) is an infeasible energy rate, whether or not
    # the time-sharing column is asked for, and leaves no file
    for extra in ([], ["--timeshare"]):
        assert run_cli(["sumcap", "--snr", "10,10,10,10", "--bmax", "50",
                        "--points", "3", "--out",
                        str(tmp_path / "past.csv")] + extra) == 3, extra
        assert not (tmp_path / "past.csv").exists()
    # a report that overflowed to nan is refused before its file is opened
    # (an explicit epsilon, as the default one overflows at these SNRs)
    capsys.readouterr()
    assert run_cli(["simulate", "--snr", "1e308,0,1e308,1e308", "--beta",
                    "1,1", "--rate", "0,0", "--n", "5", "--trials", "2",
                    "--epsilon", "1", "--out", str(tmp_path / "sim.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("invalid arguments: mean_b is nan; "
                       "no data file written\n")
    # where phi's two sides both overflow, rho* is refused by name, not
    # bisected on nan as if it had a sign (it read 0.9999999999995453)
    for snr, rate in (("1e308,1e308,1,1", "0,0"),
                      ("1e308,1e308,1e308,1e308", "0.1,0.1")):
        capsys.readouterr()
        assert run_cli(["simulate", "--snr", snr, "--beta", "1,1", "--rate",
                        rate, "--n", "5", "--trials", "2", "--epsilon", "1",
                        "--out", str(tmp_path / "sim.json")]) == 2, snr
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("invalid arguments: phi is nan at rho = 0.0: its "
                           "terms overflow float64 at these SNRs\n")
    # a default epsilon of 1% of an overflowed mean energy rate is refused,
    # not compared against (it read outage_hat 0.0 with exit 0)
    capsys.readouterr()
    assert run_cli(["simulate", "--snr", "0,1,1e200,1e200", "--beta", "1,1",
                    "--rate", "0,0.1", "--n", "5", "--trials", "20",
                    "--target-b", "3.5e200",
                    "--out", str(tmp_path / "sim.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invalid arguments: mean energy rate is nan")
    assert "--epsilon" in out.err and out.err.count("\n") == 1
    assert not (tmp_path / "sim.json").exists()
    # with five messages, the overflowed coder is refused at decoding
    capsys.readouterr()
    assert run_cli(["simulate", "--snr", "1e300,1e308,1e308,1", "--beta",
                    "0.5,1", "--rate", "0.5,0", "--n", "5", "--trials", "2",
                    "--out", str(tmp_path / "sim.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("invalid arguments: transmitter 1's coder state "
                       "overflows float64 at these SNRs\n")
    assert not (tmp_path / "sim.json").exists()
    assert not (tmp_path / "sumcap.csv").exists()
    # from SNR ~1e16 the coder's step factors d1, d2 cancel to 0; the
    # schedule refuses them instead of dividing by their product
    for snr in ("1e150,1e150,1,1", "1e17,1e17,1,1"):
        capsys.readouterr()
        assert run_cli(["simulate", "--snr", snr, "--beta", "1,1",
                        "--rate-frac", "0.5", "--n", "10", "--trials", "2",
                        "--out", str(tmp_path / "sim.json")]) == 2, snr
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid arguments: ")
        assert "underflows" in out.err and out.err.count("\n") == 1
        assert not (tmp_path / "sim.json").exists()
    # rounding in the schedule's recursion takes the error correlation to
    # -1.00016, where 1 - a_i^2/v < 0: refused by name, not "math domain"
    capsys.readouterr()
    assert run_cli(["simulate", "--snr", "1e200,1e200,1e200,1e200", "--beta",
                    "1,0.5", "--rate-frac", "0.5", "--n", "8", "--trials", "3",
                    "--epsilon", "1", "--out", str(tmp_path / "sim.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invalid arguments: the coder's error "
                              "correlation r = -1.00016 ")
    assert "[-1, 1]" in out.err and out.err.count("\n") == 1
    assert not (tmp_path / "sim.json").exists()
    # a non-finite --verify-contains row, a five-name header and a
    # five-column row are usage errors, not verdicts
    header5 = region.CSV_HEADER.rsplit(",", 1)[0]
    for bad, text in (("inf", f"{region.CSV_HEADER}\n0,0,0,inf,0,1\n"),
                      ("nan", f"{region.CSV_HEADER}\n0,0,0,nan,0,1\n"),
                      ("header5", f"{header5}\n0,0,0,0,0,1\n"),
                      ("row5", f"{region.CSV_HEADER}\n0,0,0,0,1\n")):
        rows = tmp_path / f"{bad}.csv"
        rows.write_text(text)
        capsys.readouterr()
        assert run_cli(["region", "--snr", "10,10,10,10", "--res", "4",
                        "--out", str(tmp_path / "region.csv"),
                        "--verify-contains", str(rows)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: ") and err.count("\n") == 1
        # the verify file is read before the region output is written
        assert not (tmp_path / "region.csv").exists()
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "4",
                    "--out", str(tmp_path / "region.csv"),
                    "--verify-contains", str(tmp_path / "missing.csv")]) == 4
    assert not (tmp_path / "region.csv").exists()
    # blank lines in a --verify-contains file are skipped
    rows = tmp_path / "blank.csv"
    rows.write_text(f"{region.CSV_HEADER}\n\n0,0,0,0,0,1\n\n")
    capsys.readouterr()
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "4",
                    "--out", str(tmp_path / "region.csv"),
                    "--verify-contains", str(rows)]) == 0
    assert capsys.readouterr().err == ("verify-contains: all 1 triplets "
                                       "contained\n")


def test_simulate_both_users_zero_snr(tmp_path):
    # --rate-frac gives rate 0, so each user has one message and nothing
    # to divide by the zero gain
    out = tmp_path / "zero.json"
    assert run_cli(["simulate", "--snr", "0,0,10,10", "--beta", "1,1",
                    "--rate-frac", "0.5", "--n", "20", "--trials", "4",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["p_error_hat"] == 0.0


def test_simulate_one_user_zero_snr(tmp_path):
    out = tmp_path / "one.json"
    argv = ["simulate", "--snr", "0,10,10,10", "--beta", "1,1", "--n", "20",
            "--trials", "4", "--out", str(out)]
    assert run_cli(argv + ["--rate", "0,0.3"]) == 0
    assert json.loads(out.read_text())["p_error_hat"] == 0.0
    # a positive rate needs a positive SNR at the receiver
    assert run_cli(argv + ["--rate", "0.1,0.3"]) == 2


def test_region_non_finite_bounds_rejected(tmp_path, capsys):
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["region", "--snr", "1e200,1e200,1e200,1e200",
                        "--res", "4", "--out", str(out)]) == 2
    assert not out.exists()
    # the refusal is the only thing on stderr: no numpy RuntimeWarnings
    assert caught == []
    assert capsys.readouterr().err == (
        "invalid arguments: region bounds overflow float64 at these SNRs\n")


@pytest.mark.parametrize("argv", [
    ["ratio", "--snr-min", "1e300", "--snr-max", "1e308", "--points", "3"],
    ["sumcap", "--snr", "1e308,1e308,1e-6,1e30", "--points", "3"],
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_rejected(tmp_path, capsys, argv, fmt):
    # the closed forms overflow at these SNRs; no inf or nan row is written.
    # sumcap's rho* is refused first, as both sides of phi overflow
    reason = ("no data file written" if argv[0] == "ratio"
              else "overflow float64 at these SNRs")
    out = tmp_path / f"table.{fmt}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv + ["--format", fmt, "--out", str(out)]) == 2
    assert caught == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("argv,name", [
    # no row reaches from_snr's check: it exited 0 with a header-only file
    (["ratio", "--points", "0", "--asym", "-1"], "--asym"),
    (["ratio", "--asym", "nan"], "--asym"),
    (["ratio", "--asym", "inf"], "--asym"),
    # math.log10's "math domain error"
    (["ratio", "--snr-min", "0"], "--snr-min"),
    (["ratio", "--points", "0", "--snr-min", "-1"], "--snr-min"),
    (["ratio", "--snr-max", "-1"], "--snr-max"),
    (["ratio", "--snr-max", "inf"], "--snr-max"),
    (["ratio", "--snr-min", "nan"], "--snr-min"),
    # numpy's "Number of samples, -1, must be non-negative."
    (["ratio", "--points", "-1"], "--points"),
    (["sumcap", "--snr", "10,10,10,10", "--points", "-1"], "--points"),
])
def test_table_flags_checked_before_rows(tmp_path, capsys, argv, name):
    out = tmp_path / "table.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"invalid arguments: {name} must be ")
    assert err.count("\n") == 1


def test_simulate_trials_beyond_spawn_keys_rejected(tmp_path, capsys):
    # trial indices must fit one uint32 spawn-key word; the bound is checked
    # before any trial range is built
    out = tmp_path / "sim.json"
    assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                    "--rate", "0.3,0.3", "--n", "10",
                    "--trials", str(2**40), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "invalid arguments: trials must lie in 1..4294967296\n")


def test_region_grid_too_large_rejected(tmp_path, capsys):
    # 200000^3 grid points need 56.8 PiB per array, beyond any address
    # space, so numpy refuses the first one before allocating anything
    out = tmp_path / "huge.csv"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "200000",
                    "--out", str(out)]) == 2
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 65536
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1


# --- the argv grammar's exit-code contract ---------------------------------
# Run time caps: --res <= 5, --n <= 30, --trials <= 3 and --points <= 5 are
# always given, so no drawn argv runs at the larger defaults.


def mostly(valid, invalid):
    """Draws from invalid about one time in sixteen, else from valid, so
    that an argv of many flags still reaches the paths past its checks."""
    return st.integers(0, 15).flatmap(lambda k: invalid if k == 0 else valid)


def texts(*values):
    return st.sampled_from(values)


def flag(name, values, optional=True):
    """[name=value] for a drawn value, or, if optional, also nothing."""
    given_flag = values.map(lambda v: [f"{name}={v}"])
    return mostly(given_flag, st.just([])) if optional else given_flag


def joined(*parts):
    """A strategy for the concatenation of the argv pieces parts draw."""
    return st.tuples(*parts).map(lambda ps: [w for p in ps for w in p])


def pairs(values):
    return st.tuples(values, values).map(",".join)


SNR_TEXT = mostly(st.integers(-300, 308).map("1e{}".format),
                  texts("0", "nan", "inf", "-1"))
# a malformed quadruple ends in argparse's SystemExit(2)
SNR_FLAG = flag("--snr", mostly(st.lists(SNR_TEXT, min_size=4, max_size=4)
                                .map(",".join), texts("1,1,1", "1,1,1,x")),
                optional=False)
FORMAT = flag("--format", texts("csv", "json"))
POINTS = flag("--points", mostly(st.integers(0, 5), st.just(-1)),
              optional=False)
# {dir} stands for the example's directory; missing.csv is never written
VERIFY = flag("--verify-contains",
              texts("{dir}/inside.csv", "{dir}/outside.csv",
                    "{dir}/nonfinite.csv", "{dir}/missing.csv"))
RATES = mostly(
    st.one_of(flag("--rate", pairs(mostly(texts("0", "0.1", "1", "5"),
                                          texts("1e300", "inf", "nan",
                                                "-1"))), optional=False),
              flag("--rate-frac", mostly(texts("0", "0.5", "0.9", "1", "2"),
                                         texts("inf", "nan", "-1")),
                   optional=False)),
    texts([], ["--rate=0.1,0.1", "--rate-frac=0.5"]))
ARGV = st.one_of(
    joined(st.just(["region"]), SNR_FLAG,
           flag("--res", mostly(st.integers(2, 5), st.integers(-1, 1)),
                optional=False),
           texts([], ["--feedback"], ["--no-feedback"]), FORMAT, VERIFY),
    joined(st.just(["sumcap"]), SNR_FLAG, POINTS,
           flag("--bmax", mostly(texts("0", "1", "41", "1e308"),
                                 texts("nan", "inf", "-1"))),
           texts([], ["--timeshare"]), FORMAT),
    joined(st.just(["ratio"]), POINTS, flag("--snr-min", SNR_TEXT),
           flag("--snr-max", SNR_TEXT), flag("--asym", SNR_TEXT), FORMAT),
    joined(st.just(["simulate"]), SNR_FLAG,
           flag("--beta", pairs(mostly(texts("0", "0.5", "1"),
                                       texts("-1", "2", "nan"))),
                optional=False),
           RATES,
           flag("--n", mostly(st.integers(1, 30), st.integers(-1, 0)),
                optional=False),
           flag("--trials", mostly(st.integers(1, 3), st.integers(-1, 0)),
                optional=False),
           flag("--seed", mostly(st.integers(0, 3), st.just(-1))),
           flag("--target-b", mostly(texts("0", "1", "30", "50", "1e308"),
                                     texts("nan", "inf", "-1"))),
           flag("--epsilon", mostly(texts("0.1", "1"),
                                    texts("0", "-1", "nan", "inf")))),
)


def data_numbers(path):
    """Every number in a CSV (below its header) or JSON data file."""
    text = path.read_text()
    if text.startswith(("[", "{")):
        def walk(v):
            if isinstance(v, dict):
                yield from (x for w in v.values() for x in walk(w))
            elif isinstance(v, list):
                yield from (x for w in v for x in walk(w))
            else:
                yield v
        return list(walk(json.loads(text)))
    return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]


@given(ARGV, st.booleans())
@settings(max_examples=400, deadline=None)
def test_argv_grammar_exit_contract(argv, bad_out_dir):
    # every argv ends in a documented exit code, argparse's SystemExit(2)
    # included, never in another exception; a data file is left only on
    # exit 0 or 1, and it holds finite numbers alone
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, row in (("inside", "0,0,0,0,0,1"),
                          ("outside", "0,0,0,1e3,1e3,1"),
                          ("nonfinite", "0,0,0,nan,0,1")):
            (d / f"{name}.csv").write_text(f"{region.CSV_HEADER}\n{row}\n")
        out = d / "no" / "out.dat" if bad_out_dir else d / "out.dat"
        argv = [a.replace("{dir}", tmp) for a in argv] + [f"--out={out}"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 4), argv
        assert out.exists() == (code in (0, 1)), (code, argv)
        if out.exists():
            assert all(map(math.isfinite, data_numbers(out))), argv


def readme_commands():
    """Every gmac-seit command in README.md's code blocks, as argv lists.

    Continuation lines are joined, each command ends at a shell separator,
    and shell variables ($a, $n) stand for the sample value 2.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            for part in re.split(r";|&&|\|", line.split("#")[0]):
                words = shlex.split(re.sub(r"\$\{?\w+\}?", "2", part))
                if "gmac-seit" in words:
                    commands.append(words[words.index("gmac-seit") + 1:])
    return commands


def test_cli_import_leaves_numpy_random_unloaded():
    # region, sumcap and ratio never draw; loading numpy.random would add
    # its import time to every one of their runs.  Nor is a region grid or
    # cover built at import or by a RateTriplet: that work belongs to the
    # first contains call
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys, gmac_seit.cli; "
             "from gmac_seit import region; "
             "region.RateTriplet(1.0, 1.0, 1.0); "
             "print('numpy.random' in sys.modules, "
             "region._grid_boxes.cache_info().currsize, "
             "region._grid_cover.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "0", "0"]


def test_readme_commands_parse():
    commands = readme_commands()
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {"region", "sumcap", "ratio",
                                              "simulate"}
    assert any("--timeshare" in argv for argv in commands)
