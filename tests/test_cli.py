"""Config parsing, sweep CSV contract, verify mode, and exit codes."""

import csv
import math

import numpy as np
import pytest

from noma_perf import analytic, montecarlo
from noma_perf.channel import CSI_SOS, sample_batch
from noma_perf.cli import CSV_COLUMNS, main, verify
from noma_perf.config import ConfigError, Settings, parse_config, system_config
from noma_perf.noma_core import multicast_rate, power_split


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_defaults_survive_empty_file(self, tmp_path):
        path = write_cfg(tmp_path, "# nothing but comments\n\n   \n")
        assert parse_config(path) == Settings()

    def test_value_parsing(self, tmp_path):
        path = write_cfg(tmp_path, "\n".join([
            "K = 4            # keys are case insensitive",
            "r_m=1.25",
            "csi = sos",
            "snr_db = 0, 12.5 ,3e1",
            "trials = 5000",
            "out = results.csv",
        ]))
        s = parse_config(path)
        assert s.k == 4 and isinstance(s.k, int)
        assert s.r_m == 1.25
        assert s.csi == "sos"
        assert s.snr_db == ["0", "12.5", "3e1"]  # raw tokens preserved
        assert s.trials == 5000
        assert s.out == "results.csv"

    def test_perfect_csi_forces_zero_estimation_error(self, tmp_path):
        path = write_cfg(tmp_path, "csi = perfect\nsigma2 = 0.01\n")
        assert parse_config(path).sigma2 == 0.0

    @pytest.mark.parametrize("text,fragment", [
        ("frobnicate = 1\n", "unknown key"),
        ("k 4\n", "expected 'key = value'"),
        ("k =\n", "empty value"),
        ("eta = fast\n", "bad value"),
        ("trials = 1e5\n", "bad value"),
        ("snr_db = 0,ten,20\n", "bad value"),
        ("snr_db = ,\n", "bad value"),
        ("k_values = 2,2.5\n", "bad value"),
        ("k_values = 1e1\n", "bad value"),
        ("csi = genie\n", "csi must be one of"),
    ])
    def test_rejects_malformed_input(self, tmp_path, text, fragment):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(path)

    def test_error_reports_line_number(self, tmp_path):
        path = write_cfg(tmp_path, "k = 4\nbogus = 1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))


class TestSystemConfigBridge:
    def test_db_to_linear(self):
        s = Settings()
        s.rho_db = 30.0
        assert system_config(s).rho == pytest.approx(1000.0, rel=1e-12)
        assert system_config(s, rho_db=0.0).rho == 1.0

    def test_point_overrides(self):
        s = Settings()
        cfg = system_config(s, sigma2=0.005, k=3)
        assert cfg.sigma2_zeta == 0.005 and cfg.K == 3

    def test_invalid_parameters_become_config_errors(self):
        s = Settings()
        s.sigma2 = 0.05  # not below D**-eta = 0.04
        with pytest.raises(ConfigError):
            system_config(s)


class TestSweep:
    SOS_CFG = "\n".join([
        "csi = sos",
        "k_values = 2,3",
        "rho_db = 30",
        "trials = 2000",
    ]) + "\n"

    def test_csv_contract(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self.SOS_CFG)
        out = str(tmp_path / "k.csv")
        assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "12 rows" in captured.out
        assert captured.err == ""  # nothing skipped

        rows = read_rows(out)
        assert rows[0] == list(CSV_COLUMNS)
        body = rows[1:]
        assert len(body) == 12
        # every k carries all six metric rows in a fixed order
        for k in ("2", "3"):
            assert [(r[4], r[2]) for r in body if r[1] == k] == [
                ("outage_prob", "noma"), ("outage_prob", "oma"),
                ("secrecy_throughput_surrogate", "noma"),
                ("secrecy_throughput_surrogate", "oma"),
                ("secrecy_throughput", "noma"), ("secrecy_throughput", "oma"),
            ]
        for r in body:
            assert r[0] == "k" and r[3] == "sos"
            assert r[8] == "2000" and r[9] == str(Settings().seed)
            for col in (5, 6, 7):
                float(r[col])  # numeric columns parse

    def test_analytic_column_matches_evaluator(self, tmp_path):
        path = write_cfg(tmp_path, self.SOS_CFG)
        out = str(tmp_path / "k.csv")
        main(["sweep", "--config", path, "--axis", "k", "--out", out])
        settings = parse_config(path)
        cfg = system_config(settings, k=2)
        row = next(r for r in read_rows(out)[1:]
                   if r[1] == "2" and r[2] == "noma" and r[4] == "outage_prob")
        assert row[5] == format(analytic.outage_noma_sos(cfg), ".12g")
        for k in (2, 3):
            srow = next(r for r in read_rows(out)[1:]
                        if r[1] == str(k) and r[2] == "noma" and r[4] == "secrecy_throughput")
            assert srow[5] == format(analytic.secrecy_noma_sos(system_config(settings, k=k)),
                                     ".12g")

    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_single_user_point_skips_secrecy(self, tmp_path, capsys, csi):
        path = write_cfg(tmp_path, f"csi = {csi}\nk_values = 1,2\ntrials = 2000\n")
        out = str(tmp_path / "k.csv")
        assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
        err = capsys.readouterr().err
        assert err.count("secrecy needs K >= 2") == 4
        body = read_rows(out)[1:]
        assert [(r[4], r[2]) for r in body if r[1] == "1"] == [
            ("outage_prob", "noma"), ("outage_prob", "oma"),
        ]
        assert len(body) == 8

    def test_axis_tokens_echoed_verbatim(self, tmp_path):
        path = write_cfg(tmp_path, "k = 4\nsnr_db = 1e1,30\ntrials = 500\n")
        out = str(tmp_path / "snr.csv")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        body = read_rows(out)[1:]
        assert len(body) == 12
        assert {r[1] for r in body} == {"1e1", "30"}
        assert all(r[0] == "snr_db" for r in body)

    def test_output_is_byte_stable_across_runs_and_workers(self, tmp_path):
        path = write_cfg(tmp_path, self.SOS_CFG)
        outs = [str(tmp_path / f"run{i}.csv") for i in range(3)]
        main(["sweep", "--config", path, "--axis", "k", "--out", outs[0]])
        main(["sweep", "--config", path, "--axis", "k", "--out", outs[1]])
        main(["sweep", "--config", path, "--axis", "k", "--out", outs[2],
              "--workers", "3"])
        blobs = [open(p, "rb").read() for p in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_one_sampling_pass_per_axis_point(self, tmp_path, monkeypatch):
        calls = []
        sample_batch = montecarlo.sample_batch

        def counting_sample_batch(config, rng, size):
            calls.append(config.K)
            return sample_batch(config, rng, size)

        monkeypatch.setattr(montecarlo, "sample_batch", counting_sample_batch)
        trials = 2 * montecarlo.BATCH_SIZE + 1
        path = write_cfg(tmp_path, self.SOS_CFG.replace("2000", str(trials)))
        out = str(tmp_path / "k.csv")
        assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
        per_point = math.ceil(trials / montecarlo.BATCH_SIZE)
        assert calls == [2] * per_point + [3] * per_point

        # the point's stream is its index on the axis
        settings = parse_config(path)
        for index, k in enumerate((2, 3)):
            est = montecarlo.simulate(system_config(settings, k=k), "oma", "outage_prob",
                                      trials, settings.seed, stream=index)
            row = next(r for r in read_rows(out)[1:]
                       if r[1] == str(k) and r[2] == "oma" and r[4] == "outage_prob")
            assert row[6:8] == [format(est.value, ".12g"), format(est.half_width_95, ".12g")]

    def test_sigma2_axis(self, tmp_path):
        path = write_cfg(tmp_path,
                         "k = 2\nsigma2_values = 0,0.01\ntrials = 500\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", path, "--axis", "sigma2",
                     "--out", out]) == 0
        body = read_rows(out)[1:]
        assert len(body) == 12
        assert {r[1] for r in body} == {"0", "0.01"}

    def test_distance_ranked_sigma2_axis_ignores_sigma2(self, tmp_path):
        # sigma2 = 0.01 is above D^-eta at eta = 3, and sos never reads it
        path = write_cfg(tmp_path, "csi = sos\neta = 3\nk = 3\n"
                                   "sigma2_values = 0,0.01\ntrials = 500\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", path, "--axis", "sigma2", "--out", out]) == 0
        body = read_rows(out)[1:]
        assert len(body) == 12
        analytic_cells = [[r[5] for r in body if r[1] == v] for v in ("0", "0.01")]
        assert analytic_cells[0] == analytic_cells[1]


class TestVerify:
    def test_all_checks_pass_at_defaults(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "trials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        for name in ("quadrature-selftest", "quadrature-convergence",
                     "outage-vs-mc-noma", "outage-vs-mc-oma",
                     "secrecy-vs-mc-noma", "secrecy-vs-mc-oma",
                     "power-split-identity", "determinism"):
            assert f"{name}: PASS" in out
        assert "verify: OK" in out
        assert "FAIL" not in out

    def test_broken_quadrature_is_caught(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "trials = 20000\nquad_c = 2\n")
        assert main(["verify", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "quadrature-selftest: FAIL" in out
        assert "verify: FAILED" in out

    def test_distance_ranked_without_pair_skips_secrecy(self, tmp_path):
        path = write_cfg(tmp_path, "csi = sos\nk = 1\ntrials = 20000\n")
        ok, report = verify(parse_config(path))
        assert ok
        assert "secrecy-vs-mc: SKIP (secrecy needs K >= 2)" in report
        assert "secrecy-vs-mc-noma" not in report

    @pytest.mark.parametrize("csi", ["imperfect", "perfect"])
    def test_single_user_skips_secrecy(self, tmp_path, capsys, csi):
        path = write_cfg(tmp_path, f"csi = {csi}\nk = 1\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "secrecy-vs-mc: SKIP (secrecy needs K >= 2)" in out
        assert "secrecy-vs-mc-noma" not in out

    @pytest.mark.parametrize("k", [3, 8])
    def test_distance_ranked_checks_secrecy_at_any_k(self, tmp_path, capsys, k):
        # eta = 3 with the default sigma2 = 0.01 > D^-eta: sos never reads it
        path = write_cfg(tmp_path, f"csi = sos\nk = {k}\neta = 3\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "secrecy-vs-mc-noma: PASS" in out and "secrecy-vs-mc-oma: PASS" in out


def scalar_power_split_line(settings):
    """verify's power-split-identity line from one power_split and one
    multicast_rate call per draw: the array check must reproduce it."""
    cfg = system_config(settings)
    rng = np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(10 ** 6,)))
    worst = 0.0
    theta_exact = True
    collected = 0
    for _ in range(200):
        if collected >= 10_000:
            break
        _, _, true_gains, est_gains = sample_batch(cfg, rng, 2000)
        decision = true_gains if cfg.csi_mode == CSI_SOS else est_gains
        for row_dec in decision:
            driving = float(row_dec[-1]) if cfg.csi_mode == CSI_SOS else float(np.min(row_dec))
            split = power_split(driving, cfg.rho, cfg.R_M)
            if split.outage:
                continue
            collected += 1
            worst = max(worst, abs(multicast_rate(driving, split, cfg.rho) - cfg.R_M))
            theta_exact &= (split.theta_M + split.theta_U) == 1.0
            if collected >= 10_000:
                break
    ok = collected > 0 and worst < 1e-9 and theta_exact
    return (f"power-split-identity: {'PASS' if ok else 'FAIL'} ({collected} non-outage draws, "
            f"max rate error {worst:.3e}, theta sums exact: {theta_exact})")


class TestPowerSplitIdentity:
    @pytest.mark.parametrize("text", [
        "csi = imperfect\n",
        "csi = perfect\n",
        "csi = sos\nk = 2\n",
        "csi = sos\nk = 5\nrho_db = 15\nseed = 3\n",
        "csi = imperfect\nrho_db = 10\n",  # about 5k draws from all 200 batches
        "csi = imperfect\nrho_db = 0\nr_m = 2\n",  # every draw in outage
    ])
    def test_array_check_matches_scalar_loop(self, tmp_path, text):
        settings = parse_config(write_cfg(tmp_path, text + "trials = 2000\n"))
        _, report = verify(settings)
        line = next(l for l in report.splitlines() if l.startswith("power-split-identity:"))
        assert line == scalar_power_split_line(settings)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        path = write_cfg(tmp_path, "eta = banana\n")
        assert main(["sweep", "--config", path]) == 2

    def test_override_guard(self, tmp_path):
        path = write_cfg(tmp_path, "k = 2\n")
        assert main(["sweep", "--config", path, "--trials", "1"]) == 2

    def test_large_k_sweeps(self, tmp_path):
        path = write_cfg(tmp_path, "k = 40\nsnr_db = 30\ntrials = 20000\n")
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        rows = [r for r in read_rows(out)[1:] if r[4] == "secrecy_throughput_surrogate"]
        assert len(rows) == 2
        for r in rows:
            assert abs(float(r[5]) - float(r[6])) <= 3.0 * float(r[7])

    def test_non_integer_k_value_is_a_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "k_values = 2,2.5\ntrials = 500\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", path, "--axis", "k", "--out", str(out)]) == 2
        assert ":1: bad value for 'k_values'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["inf", "1e4"])
    def test_unrepresentable_snr_is_a_config_error(self, tmp_path, capsys, snr):
        path = write_cfg(tmp_path, f"snr_db = 30,{snr}\ntrials = 500\n")
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_axis_rejected_by_argparse(self, tmp_path):
        path = write_cfg(tmp_path, "k = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--axis", "distance"])
        assert exc.value.code == 2
