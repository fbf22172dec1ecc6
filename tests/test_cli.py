import json

import numpy as np
import pytest

from gmac_seit import cli


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


def test_region_verify_contains(tmp_path):
    nf = tmp_path / "nf.csv"
    fb = tmp_path / "fb.csv"
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "6",
                    "--no-feedback", "--out", str(nf)]) == 0
    # no-feedback boundary must lie inside the feedback region
    assert run_cli(["region", "--snr", "10,10,10,10", "--res", "6",
                    "--out", str(fb), "--verify-contains", str(nf)]) == 0


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_region_non_finite_bounds_rejected(tmp_path):
    out = tmp_path / "huge.csv"
    assert run_cli(["region", "--snr", "1e200,1e200,1e200,1e200",
                    "--res", "4", "--out", str(out)]) == 2
    assert not out.exists()
