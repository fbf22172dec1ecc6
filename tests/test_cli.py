import hashlib
import json
import resource
import warnings

import numpy as np
import pytest

from gmac_seit import cli, region


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
}


@pytest.mark.parametrize("name", sorted(REGION_GOLDEN))
def test_region_csv_golden_digest(tmp_path, name):
    argv, digest = REGION_GOLDEN[name]
    out = tmp_path / "region.csv"
    assert run_cli(["region", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_region_json(tmp_path):
    out = tmp_path / "region.json"
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "2",
                    "--format", "json", "--out", str(out)]) == 0
    recs = json.loads(out.read_text())
    assert all(set(r) == {"beta1", "beta2", "rho", "r1", "r2", "b"}
               for r in recs)


def test_sumcap_fb_dominates_nf(tmp_path):
    out = tmp_path / "sumcap.csv"
    assert run_cli(["sumcap", "--snr", "10,10,10,10", "--points", "41",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["b", "rsum_fb", "rsum_nf"]
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(41.0)
    assert (rows[:, 1] >= rows[:, 2] - 1e-12).all()
    assert rows[-1, 1] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1, 2] == pytest.approx(0.0, abs=1e-12)


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


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["region"])  # --snr missing
    assert exc.value.code == 2
    assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                    "--rate", "0.1,0.1", "--rate-frac", "0.5",
                    "--n", "10", "--trials", "2"]) == 2
    assert run_cli(["simulate", "--snr", "10,10,10,10", "--beta", "1,1",
                    "--rate", "0.1,0.1", "--n", "10", "--trials", "2",
                    "--target-b", "50"]) == 3
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
    assert not (tmp_path / "sim.json").exists()
    assert not (tmp_path / "sumcap.csv").exists()
    # a non-finite --verify-contains row is a usage error, not a verdict
    for bad in ("inf", "nan"):
        rows = tmp_path / f"{bad}.csv"
        rows.write_text(f"{region.CSV_HEADER}\n0,0,0,{bad},0,1\n")
        capsys.readouterr()
        assert run_cli(["region", "--snr", "10,10,10,10", "--res", "4",
                        "--out", str(tmp_path / "region.csv"),
                        "--verify-contains", str(rows)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: ") and err.count("\n") == 1


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
