"""Config parsing, sweep CSV contract, verify mode, and exit codes."""

import csv
import math
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import noma_perf
from noma_perf import analytic, cli, montecarlo
from noma_perf.channel import DEFAULT_QUAD_ORDERS, SystemConfig
from noma_perf.cli import CSV_COLUMNS, main, verify
from noma_perf.config import ConfigError, Settings, parse_config, system_config
from noma_perf.noma_core import multicast_rate, power_split
from noma_perf.specfun import gauss_legendre_rule


# (csi, scheme) -> (outage evaluator, secrecy evaluator) that sweep and
# verify pair with Monte Carlo. Both secrecy metrics read the surrogate
# evaluator, and perfect CSI runs the estimate-ranked one at sigma2 = 0.
ANALYTIC = {
    ("imperfect", "noma"): (analytic.outage_noma_imperfect, analytic.secrecy_noma_imperfect),
    ("imperfect", "oma"): (analytic.outage_oma_imperfect, analytic.secrecy_oma_imperfect),
    ("perfect", "noma"): (analytic.outage_noma_perfect, analytic.secrecy_noma_imperfect),
    ("perfect", "oma"): (analytic.outage_oma_perfect, analytic.secrecy_oma_imperfect),
    ("sos", "noma"): (analytic.outage_noma_sos, analytic.secrecy_noma_sos),
    ("sos", "oma"): (analytic.outage_oma_sos, analytic.secrecy_oma_sos),
}


def write_cfg(tmp_path, text, name="run.cfg", encoding=None):
    path = tmp_path / name
    path.write_text(text, encoding=encoding)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# an ASCII locale that neither UTF-8 mode nor locale coercion overrides
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's noma_perf."""
    src = os.path.dirname(os.path.dirname(noma_perf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(args, **env):
    return subprocess.run([sys.executable, "-m", "noma_perf.cli", *args], env=fresh_env(**env),
                          capture_output=True, text=True)


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

    def test_scalar_keys_parse_as_their_default_types(self, tmp_path):
        path = write_cfg(tmp_path, "d = 4\neta = 3\nr_m = 1\nsigma2 = 0\nrho_db = 20\n"
                                   "k = 3\ntrials = 500\nseed = 7\nworkers = 2\n"
                                   "csi = sos\nout = x.csv\n")
        s, defaults = parse_config(path), Settings()
        for key in ("d", "eta", "r_m", "sigma2", "rho_db", "k", "trials", "seed", "workers",
                    "csi", "out"):
            assert type(getattr(s, key)) is type(getattr(defaults, key)), key
        assert (s.d, s.k, s.csi) == (4.0, 3, "sos")

    def test_perfect_csi_forces_zero_estimation_error(self, tmp_path):
        # the file's value is kept; the configuration built from it has none
        path = write_cfg(tmp_path, "csi = perfect\nsigma2 = 0.01\n")
        settings = parse_config(path)
        assert settings.sigma2 == 0.01
        assert system_config(settings).sigma2_zeta == 0.0
        assert system_config(settings) == system_config(settings, sigma2=0.0)

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
        ("quad_c = 50\n", "unknown key"),
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

    def test_settings_do_not_share_lists(self):
        a, b = Settings(), Settings()
        assert a == b
        for key in ("snr_db", "sigma2_values", "k_values"):
            assert getattr(a, key) is not getattr(b, key)
        a.snr_db.append("50")
        assert a != b and b == Settings()


class TestSystemConfigBridge:
    def test_default_settings_are_the_default_operating_point(self):
        # config's defaults table and SystemConfig's field defaults name one point
        assert system_config(Settings()) == SystemConfig()

    def test_db_to_linear(self):
        s = Settings()
        s.rho_db = 30.0
        assert system_config(s).rho == pytest.approx(1000.0, rel=1e-12)
        assert system_config(s, rho_db=0.0).rho == 1.0

    def test_point_overrides(self):
        s = Settings()
        cfg = system_config(s, sigma2=0.005, k=3)
        assert cfg.sigma2_zeta == 0.005 and cfg.K == 3

    def test_k_above_batch_elements_is_a_config_error(self):
        s = Settings()
        assert system_config(s, k=montecarlo.BATCH_ELEMENTS).K == montecarlo.BATCH_ELEMENTS
        with pytest.raises(ConfigError, match=f"K must be at most {montecarlo.BATCH_ELEMENTS}"):
            system_config(s, k=montecarlo.BATCH_ELEMENTS + 1)

    @pytest.mark.parametrize("override", [{"rho": 1.0}, {"sigma_2": 0.0}, {"trials": 10}])
    def test_override_must_name_a_field_key(self, override):
        # rho is a field, not a config key; trials is a key that sets no field
        with pytest.raises(TypeError):
            system_config(Settings(), **override)

    def test_invalid_parameters_become_config_errors(self):
        s = Settings()
        s.sigma2 = 0.05  # not below D**-eta = 0.04
        with pytest.raises(ConfigError):
            system_config(s)


@pytest.fixture
def sample_calls(monkeypatch):
    """K of every montecarlo.sample_batch call, in call order."""
    calls = []
    sample_batch = montecarlo.sample_batch

    def counting_sample_batch(config, rng, size, *workspace):
        calls.append(config.K)
        return sample_batch(config, rng, size, *workspace)

    monkeypatch.setattr(montecarlo, "sample_batch", counting_sample_batch)
    return calls


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
        # every (csi, scheme, metric) entry of the lookup, at two K
        for csi in ("imperfect", "perfect", "sos"):
            path = write_cfg(tmp_path, f"csi = {csi}\nk_values = 2,3\nrho_db = 30\n"
                                       "trials = 2000\n", name=f"{csi}.cfg")
            out = str(tmp_path / f"{csi}.csv")
            assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
            settings = parse_config(path)
            body = read_rows(out)[1:]
            assert len(body) == 12 and {r[4] for r in body} == set(montecarlo.METRIC_KINDS)
            for r in body:
                outage, secrecy = ANALYTIC[(csi, r[2])]
                evaluator = outage if r[4] == "outage_prob" else secrecy
                cfg = system_config(settings, k=int(r[1]))
                assert r[5] == format(evaluator(cfg), ".12g"), (csi, r[1], r[2], r[4])

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
        blobs = [Path(p).read_bytes() for p in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_one_sampling_pass_per_axis_point(self, tmp_path, sample_calls):
        trials = 2 * montecarlo.BATCH_SIZE + 1
        path = write_cfg(tmp_path, self.SOS_CFG.replace("2000", str(trials)))
        out = str(tmp_path / "k.csv")
        assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
        per_point = math.ceil(trials / montecarlo.BATCH_SIZE)
        assert sample_calls == [2] * per_point + [3] * per_point

        # the point's stream is its index on the axis
        settings = parse_config(path)
        for index, k in enumerate((2, 3)):
            est = montecarlo.simulate(system_config(settings, k=k), "oma", "outage_prob",
                                      trials, settings.seed, stream=index)
            row = next(r for r in read_rows(out)[1:]
                       if r[1] == str(k) and r[2] == "oma" and r[4] == "outage_prob")
            assert row[6:8] == [format(est.value, ".12g"), format(est.half_width_95, ".12g")]

    @pytest.mark.parametrize("text,axis,message", [
        ("k_values = 2,4,0\n", "k",
         "error: k_values entry '0': K must be a positive integer"),
        # a row of K gains would not fit one Monte Carlo batch
        ("k_values = 2,80001\n", "k",
         "error: k_values entry '80001': K must be at most 80000"),
        # below the floor the closed forms are unresolved at every entry, so
        # the error is the configuration's, not its first entry's
        ("eta = 0.9\n", "snr", "error: eta must be at least 1: "),
    ], ids=["k-zero", "k-above-batch", "eta-below-floor"])
    def test_bad_axis_entry_rejected_before_any_point(self, tmp_path, capsys, sample_calls,
                                                      text, axis, message):
        path = write_cfg(tmp_path, text + "trials = 500\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", path, "--axis", axis, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert sample_calls == []

    @pytest.mark.parametrize("target", ["missing/x.csv", "subdir"],
                             ids=["missing-dir", "directory"])
    def test_unwritable_out_rejected_before_any_point(self, tmp_path, capsys, sample_calls,
                                                      target):
        (tmp_path / "subdir").mkdir()
        path = write_cfg(tmp_path, "k_values = 2,3\ntrials = 500\n")
        out = tmp_path / target
        before = sorted(tmp_path.rglob("*"))
        assert main(["sweep", "--config", path, "--axis", "k", "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # no file left behind
        assert sample_calls == []

    @pytest.mark.parametrize("out_words", [["--out="], ["--out", ""]], ids=["equals", "space"])
    def test_empty_out_is_honoured_and_refused(self, tmp_path, capsys, sample_calls, out_words):
        # an explicit --out wins over the config's out even when empty, so
        # an unset shell variable cannot redirect the sweep to the config's file
        cfg_out = tmp_path / "from_config.csv"
        path = write_cfg(tmp_path, f"k_values = 2,3\ntrials = 500\nout = {cfg_out}\n")
        assert main(["sweep", "--config", path, "--axis", "k", *out_words]) == 2
        assert "error: cannot write : " in capsys.readouterr().err
        assert not cfg_out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        assert sample_calls == []

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
        # sigma2 = 0.01 is above D^-eta at eta = 3, yet the entry runs: sos
        # stores sigma2 as 0, so both entries have one analytic column
        # (TestSecrecyDistanceRanked::test_ignores_estimation_error checks
        # that the sos evaluators and draws never read sigma2_zeta)
        path = write_cfg(tmp_path, "csi = sos\neta = 3\nk = 3\n"
                                   "sigma2_values = 0,0.01\ntrials = 500\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", path, "--axis", "sigma2", "--out", out]) == 0
        body = read_rows(out)[1:]
        assert len(body) == 12
        analytic_cells = [[r[5] for r in body if r[1] == v] for v in ("0", "0.01")]
        assert analytic_cells[0] == analytic_cells[1]

    def test_perfect_sigma2_axis_runs_at_zero_error(self, tmp_path):
        # every entry's point has sigma2 = 0, as under sos
        path = write_cfg(tmp_path, "csi = perfect\nk = 3\ntrials = 500\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", path, "--axis", "sigma2", "--out", out]) == 0
        body = read_rows(out)[1:]
        assert len(body) == 24
        entries = Settings().sigma2_values
        analytic_cells = [[r[5] for r in body if r[1] == v] for v in entries]
        assert len(entries) == 4 and all(cells == analytic_cells[0] for cells in analytic_cells)

    def test_perfect_csi_sweep_ignores_configured_sigma2(self, tmp_path):
        blobs = []
        for sigma2 in ("0.01", "0"):
            path = write_cfg(tmp_path, f"csi = perfect\nsigma2 = {sigma2}\nk = 3\n"
                                       "snr_db = 10,30\ntrials = 500\n")
            out = tmp_path / f"s{sigma2}.csv"
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


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

    # order 2 reads 0.16-0.98 at these eta whatever D is (the default order
    # at most 2.3e-9), so a small cell does not hide it
    @pytest.mark.parametrize("eta,d", [("2", "5"), ("1", "0.1"), ("1.5", "0.1"), ("6", "0.1")])
    def test_broken_quadrature_is_caught(self, tmp_path, capsys, monkeypatch, eta, d):
        def order_two(settings, **point):
            cfg = system_config(settings, **point)
            return cfg.replace(quad_orders=(2,) + cfg.quad_orders[1:])

        monkeypatch.setattr(cli, "system_config", order_two)
        path = write_cfg(tmp_path, f"eta = {eta}\nd = {d}\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 1
        out = capsys.readouterr().out
        rel = re.search(r"^quadrature-selftest: FAIL \(rel err (\S+), bound 1e-3\)$", out, re.M)
        assert 0.1 < float(rel.group(1)) < 1.0
        assert "verify: FAILED" in out

    def test_relative_drift_is_caught(self, tmp_path, monkeypatch):
        # at order 4 on the estimate survival and 60 dB the NOMA outage,
        # 6.1e-5, moves by 1.1e-5 under doubling: below 1e-3 absolute, but
        # 22% of the value
        monkeypatch.setattr(cli, "system_config", lambda settings, **point: system_config(
            settings, **point).replace(quad_orders=(4,) + DEFAULT_QUAD_ORDERS[1:]))
        path = write_cfg(tmp_path, "rho_db = 60\ntrials = 2000\n")
        _, report = verify(parse_config(path))
        line = re.search(r"^quadrature-convergence: FAIL \(all-order doubling drift (\S+), "
                         r"rel (\S+), over 4 values, bound 1e-3 on each\)$", report, re.M)
        assert float(line.group(1)) < 1e-3 < 0.1 < float(line.group(2))

    @pytest.mark.parametrize("eta", ["1", "1.5", "2", "6"])
    def test_quadrature_selftest_reading_ignores_cell_radius(self, tmp_path, monkeypatch, eta):
        # the self-test integrates 2w e^(-45 w^eta) whatever D is, so its
        # reading moves only by rounding at the default order, and its printed
        # value not at all at order 2
        def reading(d, orders):
            monkeypatch.setattr(cli, "system_config", lambda settings, **point: system_config(
                settings, **point).replace(quad_orders=orders))
            path = write_cfg(tmp_path, f"eta = {eta}\nd = {d}\nsigma2 = 0\ntrials = 2\n")
            _, report = verify(parse_config(path))
            return re.search(r"^quadrature-selftest: (\w+) \(rel err (\S+),", report, re.M).groups()

        radii = ("1e-3", "5", "2000", "1e5")
        default = [reading(d, DEFAULT_QUAD_ORDERS) for d in radii]
        assert {verdict for verdict, _ in default} == {"PASS"}
        rel = [float(r) for _, r in default]
        assert max(rel) < 3e-9 and max(rel) - min(rel) < 1e-15
        broken = {reading(d, (2,) + DEFAULT_QUAD_ORDERS[1:]) for d in radii}
        assert len(broken) == 1 and broken.pop()[0] == "FAIL"

    @pytest.mark.parametrize("text", [
        "d = 2000\nsigma2 = 0\nrho_db = 90\n",
        "csi = sos\nk = 2\nd = 1e5\neta = 1\n",
    ], ids=["d2000-rho90", "sos-d1e5-eta1"])
    def test_large_cells_pass(self, tmp_path, capsys, text):
        # cells of 2 km and 100 km, where every evaluator has converged
        path = write_cfg(tmp_path, text + "trials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "quadrature-selftest: PASS" in out
        assert "FAIL" not in out

    def test_secrecy_with_no_scored_trial_checks_absolute_error(self, tmp_path, capsys):
        # at 0 dB (K = 8) every trial of 2000 is in multicast outage, so the
        # NOMA surrogate scores 0 and has no relative error; the analytic
        # value, 5.8e-9, is far below the rule-of-three floor 3 / 2000
        path = write_cfg(tmp_path, "rho_db = 0\ntrials = 2000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("secrecy-vs-mc-noma:"))
        assert re.fullmatch(r"secrecy-vs-mc-noma: PASS \(analytic (\S+), mc 0, "
                            r"abs err (\S+), bound 0\.0015\)", line)
        assert "verify: OK" in out

    def test_no_scored_trial_fails_a_large_analytic_value(self, tmp_path, monkeypatch):
        # the floor is 3 / trials: an analytic value above it still fails
        reduce_batches = montecarlo.reduce_batches

        def scores_nothing(sums, trials):
            return {pair: est._replace(value=0.0) if pair[1] != montecarlo.METRIC_OUTAGE
                    else est for pair, est in reduce_batches(sums, trials).items()}

        monkeypatch.setattr(montecarlo, "reduce_batches", scores_nothing)
        ok, report = verify(parse_config(write_cfg(tmp_path, "k = 3\ntrials = 2000\n")))
        assert not ok
        assert re.search(r"^secrecy-vs-mc-noma: FAIL \(analytic \S+, mc 0, abs err \S+, "
                         r"bound 0\.0015\)$", report, re.M)

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

    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_printed_analytic_values_match_evaluators(self, tmp_path, csi):
        settings = parse_config(write_cfg(tmp_path, f"csi = {csi}\nk = 3\ntrials = 2000\n"))
        _, report = verify(settings)
        cfg = system_config(settings)
        for scheme in ("noma", "oma"):
            outage, secrecy = ANALYTIC[(csi, scheme)]
            printed = re.search(rf"outage-vs-mc-{scheme}: \w+ \(\|(\S+) - ", report).group(1)
            assert printed == format(outage(cfg), ".6g")
            printed = re.search(rf"secrecy-vs-mc-{scheme}: \w+ \(analytic (\S+),",
                                report).group(1)
            assert printed == format(secrecy(cfg), ".6g")

    def test_batches_bounded_at_large_k(self, tmp_path, monkeypatch):
        # only batch sizes are asserted: at 2000 trials a check may fail on noise
        elements = []
        draw = montecarlo.sample_batch

        def recording_sample_batch(config, rng, size, *workspace):
            elements.append(size * config.K)
            return draw(config, rng, size, *workspace)

        monkeypatch.setattr(montecarlo, "sample_batch", recording_sample_batch)
        verify(parse_config(write_cfg(tmp_path, "k = 400\ntrials = 2000\n")))
        assert elements and max(elements) <= montecarlo.BATCH_ELEMENTS

    @staticmethod
    def batches_drawn(tmp_path, monkeypatch, trials):
        """(batch, rows, into a fresh workspace) of every batch a passing
        K = 400 verify of `trials` trials draws, in call order; a batch is
        200 rows. A fresh workspace is mapped zeros, and no workspace is
        mapped while another one is alive."""
        draws, live = [], []
        run_batch, workspace = montecarlo._run_batch, montecarlo._workspace

        def recording_run_batch(config, seed, stream, index, size, workspace, out):
            draws.append((index, size, not workspace.view(np.uint64).any()))  # bits: no NaN
            return run_batch(config, seed, stream, index, size, workspace, out)

        def one_workspace(config, rows):
            assert not live, "a second workspace mapped while one is alive"
            mapped = workspace(config, rows)
            live.append(rows)
            weakref.finalize(mapped, live.pop)
            return mapped

        monkeypatch.setattr(montecarlo, "_run_batch", recording_run_batch)
        monkeypatch.setattr(montecarlo, "_workspace", one_workspace)
        _, report = verify(parse_config(write_cfg(tmp_path, f"k = 400\ntrials = {trials}\n")))
        assert "determinism: PASS" in report
        return draws

    def test_determinism_check_runs_two_batches(self, tmp_path, monkeypatch):
        # 2 * 200 trials at K = 400, not a fixed 20,000; still 20,000 at K <= 8.
        # The point drew batches 0 and 1 in turn in one workspace, so its sums
        # are the check's first side; the other draws batch 1 alone in a fresh
        # workspace, then batch 0 after it
        draws = self.batches_drawn(tmp_path, monkeypatch, 2000)
        assert draws == [(0, 200, True), *((i, 200, False) for i in range(1, 10)),
                         (1, 200, True), (0, 200, False)]
        assert 2 * montecarlo.batch_rows(8) == 20_000

    def test_determinism_check_draws_both_sides_below_two_batches(self, tmp_path, monkeypatch):
        # 300 trials are batches of 200 and 100 rows, so the check draws both
        # of its sides: batches 0 and 1 in turn, then 1 and 0 in a fresh workspace
        draws = self.batches_drawn(tmp_path, monkeypatch, 300)
        assert draws == [(0, 200, True), (1, 100, False),
                         (0, 200, True), (1, 200, False), (1, 200, True), (0, 200, False)]

    @pytest.mark.parametrize("trials", [25_137, 5_000])  # the point's sums reused, or not
    @pytest.mark.parametrize("text", ["k = 3\n", "csi = sos\nk = 2\n"], ids=["k3", "sos-k2"])
    def test_determinism_catches_scratch_carried_between_batches(self, tmp_path, monkeypatch,
                                                                 text, trials):
        # a scorer that reads scratch before it writes it: at K = 3 (and at
        # K = 2 under sos) part of that scratch lies past the draw's blocks,
        # so in a reused workspace it holds the previous batch's values and
        # in a fresh one zeros. Only the exact NOMA secrecy sums, which verify
        # reports nowhere else, carry it, so only the determinism line fails
        score_batch = montecarlo._score_batch

        def leaky_score_batch(config, gains, scratch):
            carried = np.count_nonzero(scratch[:montecarlo._VECTORS * len(gains)])
            scores = score_batch(config, gains, scratch)
            scores[-1][0] += 1e-9 * carried
            return scores

        monkeypatch.setattr(montecarlo, "_score_batch", leaky_score_batch)
        ok, report = verify(parse_config(write_cfg(tmp_path, f"{text}trials = {trials}\n")))
        assert not ok
        assert re.findall(r"^(\S+): FAIL", report, re.M) == ["determinism"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [25_000, 5_000])  # above 2R (the point's sums reused), below R
    def test_determinism_catches_a_state_dependent_draw(self, tmp_path, monkeypatch, trials,
                                                        workers):
        # a draw whose gains drift with the number of draws made before it,
        # as state leaking from one call into the next would: the two sides
        # are different calls, so only the determinism line fails
        calls = []

        def drifting_draw(config, rng, size, *workspace):
            arrays = sample_batch(config, rng, size, *workspace)
            arrays[2][...] *= 1.0 + 1e-9 * len(calls)
            calls.append(size)
            return arrays

        sample_batch = montecarlo.sample_batch
        monkeypatch.setattr(montecarlo, "sample_batch", drifting_draw)
        path = write_cfg(tmp_path, f"trials = {trials}\nworkers = {workers}\n")
        ok, report = verify(parse_config(path))
        assert not ok
        assert re.findall(r"^(\S+): FAIL", report, re.M) == ["determinism"]
        assert re.search(r"^determinism: FAIL \(value \S+ vs \S+\)$", report, re.M)

    @pytest.mark.parametrize("trials", [5_000, 15_000, 25_137])
    def test_report_does_not_depend_on_workers(self, tmp_path, capsys, trials):
        # below one batch, between one and two, and above two with a partial
        # last one (K = 8): at 25,137 a multi-worker point's sums are reused
        path = write_cfg(tmp_path, f"trials = {trials}\n")
        runs = []
        for workers in ("1", "2", "3"):
            runs.append((main(["verify", "--config", path, "--workers", workers]),
                         capsys.readouterr()))
        assert runs[0][0] == 0 and "determinism: PASS" in runs[0][1].out
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_k_above_batch_elements_exits_before_any_draw(self, tmp_path, capsys, sample_calls):
        path = write_cfg(tmp_path, "k = 80001\ntrials = 2000\n")
        assert main(["verify", "--config", path]) == 2
        assert "error: K must be at most 80000" in capsys.readouterr().err
        assert sample_calls == []

    @pytest.mark.parametrize("k", [3, 8])
    def test_distance_ranked_checks_secrecy_at_any_k(self, tmp_path, capsys, k):
        # eta = 3 with the default sigma2 = 0.01 > D^-eta: sos never reads it
        path = write_cfg(tmp_path, f"csi = sos\nk = {k}\neta = 3\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "secrecy-vs-mc-noma: PASS" in out and "secrecy-vs-mc-oma: PASS" in out

    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_passes_at_eta_floor(self, tmp_path, capsys, csi, k):
        path = write_cfg(tmp_path, f"eta = 1\ncsi = {csi}\nk = {k}\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out and "FAIL" not in out

    @pytest.mark.parametrize("rho_db", [60, 80])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect"])
    def test_passes_at_eta_floor_at_high_snr(self, tmp_path, capsys, csi, rho_db):
        # with the t map's scale floor at D^-eta K^(eta/2) / 100, the
        # order-statistic mass sat in the last 1% of [0, 1] and the
        # all-order doubling drift read 1.5e-3 (imperfect) and 1.8e-3 (perfect)
        path = write_cfg(tmp_path, f"eta = 1\ncsi = {csi}\nrho_db = {rho_db}\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^quadrature-convergence: PASS", out, re.M)
        assert "verify: OK" in out and "FAIL" not in out

    @pytest.mark.parametrize("k", [3, 8])
    def test_imperfect_general_path_loss_passes(self, tmp_path, capsys, k):
        # eta = 3 runs the estimate draw's general power u ** (-eta/2), not
        # the eta = 2 reciprocal, against the analytic forms end to end
        path = write_cfg(tmp_path, f"eta = 3\nsigma2 = 0.001\nk = {k}\ntrials = 20000\n")
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "secrecy-vs-mc-noma: PASS" in out and "secrecy-vs-mc-oma: PASS" in out


@pytest.fixture
def evaluator_calls(monkeypatch):
    """(scheme, column, quad_orders) of every call to one of analytic's public
    outage_* and secrecy_* forms, in call order; column 0 is outage and
    column 1 secrecy. Each form is patched as a module attribute, the way
    perfbench's tracer counts them."""
    calls = []

    def counting(name, evaluator):
        kind, scheme = name.split("_")[:2]

        def call(config):
            calls.append((scheme, int(kind == "secrecy"), config.quad_orders))
            return evaluator(config)
        return call

    for name in dir(analytic):
        if name.startswith(("outage_", "secrecy_")):
            monkeypatch.setattr(analytic, name, counting(name, getattr(analytic, name)))
    return calls


class TestClosedFormCalls:
    """sweep and verify run each closed form once per scheme at a point:
    both secrecy metrics read one secrecy value."""

    def test_cli_names_no_evaluator_or_csi_mode(self):
        # analytic.closed_forms picks the closed form of every row; cli pairs
        # its values with Monte Carlo whatever the CSI mode
        with open(cli.__file__, encoding="utf-8") as fh:
            source = fh.read()
        assert "closed_forms(" in source
        assert not re.findall(r"_EVALUATORS|\b(?:outage|secrecy)_\w+|\bCSI_\w+"
                              r"|\b(?:imperfect|perfect|sos)\b", source)

    @staticmethod
    def once(k, orders=DEFAULT_QUAD_ORDERS):
        """Outage for NOMA then OMA, then secrecy for both at K >= 2."""
        return [(scheme, column, orders) for column in range(1 if k == 1 else 2)
                for scheme in ("noma", "oma")]

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_one_point_sweep(self, tmp_path, evaluator_calls, csi, k):
        path = write_cfg(tmp_path, f"csi = {csi}\nk_values = {k}\ntrials = 2000\n")
        out = str(tmp_path / "k.csv")
        assert main(["sweep", "--config", path, "--axis", "k", "--out", out]) == 0
        assert evaluator_calls == self.once(k)
        assert len(read_rows(out)) == 1 + (2 if k == 1 else 6)

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_verify(self, tmp_path, evaluator_calls, csi, k):
        # once at the configured orders, once more at doubled orders
        verify(parse_config(write_cfg(tmp_path, f"csi = {csi}\nk = {k}\ntrials = 2000\n")))
        doubled = tuple(2 * o for o in DEFAULT_QUAD_ORDERS)
        assert evaluator_calls == self.once(k) + self.once(k, doubled)


def scalar_power_split_line(settings):
    """verify's power-split-identity line from one power_split and one
    multicast_rate call per gain of its grid: 10 000 gains from the
    multicast threshold eps/rho itself up to 1e12 times it. The array
    check must reproduce it."""
    cfg = system_config(settings)
    threshold = (2.0 ** cfg.R_M - 1.0) / cfg.rho
    grid = threshold * np.logspace(0.0, 12.0, 10_000)
    worst = 0.0
    theta_exact = True
    outages = 0
    for gain in grid.tolist():
        split = power_split(gain, cfg.rho, cfg.R_M)
        outages += split.outage
        worst = max(worst, abs(multicast_rate(gain, split, cfg.rho) - cfg.R_M))
        theta_exact &= (split.theta_M + split.theta_U) == 1.0
    ok = outages == 0 and worst < 1e-9 and theta_exact
    return (f"power-split-identity: {'PASS' if ok else 'FAIL'} (10000 gains from eps/rho "
            f"to 1e12 eps/rho, {outages} in outage, max rate error {worst:.3e}, "
            f"theta sums exact: {theta_exact})")


def power_split_line(report):
    return next(l for l in report.splitlines() if l.startswith("power-split-identity:"))


class TestPowerSplitIdentity:
    @pytest.mark.parametrize("text", [
        "csi = imperfect\n",
        "csi = perfect\n",
        "csi = sos\nk = 2\n",
        "csi = sos\nk = 5\nrho_db = 15\nseed = 3\n",
        "csi = imperfect\nrho_db = 10\n",
        "csi = imperfect\nrho_db = 0\nr_m = 2\n",  # every Monte Carlo draw in outage
        "k = 2\nr_m = 511\n",  # the largest valid rate: eps near 2^511
    ])
    def test_array_check_matches_scalar_loop(self, tmp_path, text):
        settings = parse_config(write_cfg(tmp_path, text + "trials = 2000\n"))
        _, report = verify(settings)
        assert power_split_line(report) == scalar_power_split_line(settings)

    def test_passes_where_every_draw_is_in_outage(self, tmp_path):
        # the grid starts on the threshold, so no draw has to clear it
        settings = parse_config(write_cfg(tmp_path, "rho_db = 0\nr_m = 2\ntrials = 2000\n"))
        _, report = verify(settings)
        assert power_split_line(report).startswith("power-split-identity: PASS (")

    @pytest.mark.parametrize("r_m", [500, 511])
    def test_passes_at_the_largest_valid_rates(self, tmp_path, r_m):
        # a share formed through a(1 + eps) overflows here (max rate error
        # 3.986e+01); z/a <= 1 keeps every step in the float range. Underflow
        # stays silent, as numpy leaves it by default
        settings = parse_config(write_cfg(tmp_path, f"k = 2\nr_m = {r_m}\ntrials = 2000\n"))
        with np.errstate(all="raise", under="ignore"):
            _, report = verify(settings)
        assert power_split_line(report).startswith("power-split-identity: PASS (")

    def test_depends_only_on_rho_and_rate(self, tmp_path):
        lines = set()
        for text in ("csi = imperfect\nk = 8\n", "csi = perfect\nk = 3\nseed = 5\n",
                     "csi = sos\nk = 2\nsigma2 = 0.02\n"):
            path = write_cfg(tmp_path, text + "rho_db = 20\nr_m = 1.5\ntrials = 2000\n")
            lines.add(power_split_line(verify(parse_config(path))[1]))
        assert len(lines) == 1

    def test_wrong_rate_is_caught(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "multicast_rate",
                            lambda alpha, split, rho: multicast_rate(alpha, split, rho) + 1e-6)
        path = write_cfg(tmp_path, "trials = 2000\n")
        assert main(["verify", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "power-split-identity: FAIL (" in out and "max rate error 1.000e-06" in out
        assert "verify: FAILED" in out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        path = write_cfg(tmp_path, "eta = banana\n")
        assert main(["sweep", "--config", path]) == 2

    def test_override_guard(self, tmp_path, capsys):
        # montecarlo states the run-parameter rule; main applies it before
        # it opens the output file
        path = write_cfg(tmp_path, "k = 2\n")
        out = tmp_path / "x.csv"
        for option, value, message in (("--trials", "1", "trials must be an integer >= 2"),
                                       ("--seed", "-1", "seed must be a nonnegative integer"),
                                       ("--workers", "0", "workers must be an integer >= 1")):
            assert main(["sweep", "--config", path, option, value, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

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

    @pytest.mark.parametrize("snr", ["inf", "1e4", "nan", "-inf", "-4000"])
    def test_unrepresentable_snr_is_a_config_error(self, tmp_path, capsys, snr):
        # rho is derived from rho_db, so the message names rho_db and its value
        message = f"rho_db = {float(snr):g} gives no finite positive linear SNR"
        out = tmp_path / "x.csv"
        path = write_cfg(tmp_path, f"snr_db = 30,{snr}\ntrials = 500\n")
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: snr_db entry '{snr}': {message}\n"
        assert not out.exists()
        assert main(["verify", "--config", write_cfg(tmp_path, f"rho_db = {snr}\n")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("text,message", [
        # SystemConfig owns the CSI-mode rule too
        ("csi = genie\n", "error: csi_mode must be one of"),
        ("r_m = 512\n", "error: R_M must be below 512"),
        ("r_m = 600\n", "error: R_M must be below 512"),
        ("csi = sos\nd = 1e160\n", "error: D must keep D^2, D^eta and D^-eta finite"),
        ("eta = 1\nsigma2 = 0\nd = 1e200\n", "error: D must keep D^2, D^eta and D^-eta finite"),
        ("d = 1e-200\n", "error: D must keep D^2, D^eta and D^-eta finite"),
    ], ids=["csi-genie", "r_m-512", "r_m-600", "sos-d-huge", "eta1-d-huge", "d-tiny"])
    def test_invalid_field_exits_before_any_file(self, tmp_path, capsys, sample_calls,
                                                 command, text, message):
        # SystemConfig's message names the field at fault, whose derived
        # scale may overflow: neither the SNR nor an axis entry is blamed
        path = write_cfg(tmp_path, text + "trials = 500\n")
        argv = [command, "--config", path]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "rho_db" not in err and "entry" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        assert sample_calls == []

    def test_unknown_axis_rejected_by_argparse(self, tmp_path):
        path = write_cfg(tmp_path, "k = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--axis", "distance"])
        assert exc.value.code == 2


class TestArguments:
    def test_equals_form_matches_space_form(self, tmp_path):
        path = write_cfg(tmp_path, "k_values = 2,3\ntrials = 500\n")
        outs = [tmp_path / "space.csv", tmp_path / "equals.csv"]
        assert main(["sweep", "--config", path, "--axis", "k", "--seed", "7",
                     "--workers", "2", "--out", str(outs[0])]) == 0
        assert main(["sweep", f"--config={path}", "--axis=k", "--seed=7", "--workers=2",
                     f"--out={outs[1]}"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_rows(outs[0])[1][9] == "7"

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--config", "{cfg}", "--bogus", "1"], "unrecognized argument: --bogus"),
        (["sweep", "--config", "{cfg}", "extra"], "unrecognized argument: extra"),
        (["sweep", "--config"], "argument --config: expected one argument"),
        (["sweep", "--config", "{cfg}", "--trials", "--seed", "3"],
         "argument --trials: expected one argument"),
        (["sweep", "--trials", "500"], "the following arguments are required: --config"),
        (["verify", "--config", "{cfg}", "--axis", "k"], "unrecognized argument: --axis"),
        (["verify", "--config", "{cfg}", "--out=x.csv"], "unrecognized argument: --out"),
        (["sweep", "--config", "{cfg}", "--seed=1.5"], "argument --seed: invalid int value"),
        (["sweep", "--config", "{cfg}", "--axis=distance"], "argument --axis: invalid choice"),
        (["plot", "--config", "{cfg}"], "the first argument must be sweep or verify"),
        ([], "the first argument must be sweep or verify"),
    ], ids=["unknown-option", "positional", "missing-value-at-end", "missing-value-before-option",
            "missing-config", "verify-axis", "verify-out", "bad-int", "bad-axis",
            "unknown-command", "empty"])
    def test_bad_arguments_exit_2_with_usage(self, tmp_path, capsys, sample_calls, argv,
                                             message):
        cfg = write_cfg(tmp_path, "trials = 500\n")
        with pytest.raises(SystemExit) as exc:
            main([word.replace("{cfg}", cfg) for word in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: noma-perf ")
        assert f"noma-perf: error: {message}" in captured.err
        assert sample_calls == []

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["sweep", "--help"],
                                      ["verify", "--config", "x.cfg", "-h"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: noma-perf sweep --config FILE")
        assert "noma-perf verify --config FILE" in captured.out
        assert captured.err == ""


class TestConfigEncoding:
    """The config file is read, and the CSV written, as UTF-8 under an ASCII locale."""

    def test_undecodable_config_exits_2(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"k = 3\n# \xff\ntrials = 500\n")
        out = tmp_path / "x.csv"
        run = run_cli(["sweep", "--config", str(path), "--out", str(out)], **ASCII_LOCALE)
        assert run.returncode == 2
        assert run.stderr.startswith(f"error: cannot read config file {path}: 'utf-8' codec")
        assert "Traceback" not in run.stderr
        assert not out.exists()

    def test_utf8_comment_verifies(self, tmp_path):
        path = write_cfg(tmp_path, "k = 3  # café\ntrials = 2000\n", encoding="utf-8")
        run = run_cli(["verify", "--config", path], **ASCII_LOCALE)
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith("verify: OK\n")

    def test_non_ascii_axis_token_is_echoed_in_utf8(self, tmp_path):
        # float() reads Arabic-Indic digits, and the token is echoed verbatim
        path = write_cfg(tmp_path, "k = 3\nsnr_db = \u0661\u0660\ntrials = 500\n",
                         encoding="utf-8")
        out = tmp_path / "x.csv"
        run = run_cli(["sweep", "--config", path, "--out", str(out)], **ASCII_LOCALE)
        assert run.returncode == 0, run.stderr
        body = out.read_bytes().decode("utf-8").splitlines()[1:]
        assert len(body) == 6
        assert all(row.startswith("snr_db,\u0661\u0660,") for row in body)


def test_runs_leave_slow_imports_unloaded(tmp_path):
    # numpy.polynomial, concurrent.futures and the logging it imports,
    # argparse with the gettext and locale it loads, dataclasses with copy,
    # csv, and numpy.random with the secrets and OpenSSL (_hashlib) it loads
    # each cost milliseconds of every start-up, and nothing needs them; checked
    # in a fresh interpreter, since pytest itself imports logging. The
    # sweep's 20 001 trials are three batches; its --workers 2 loads nothing.
    # main, not the import, freezes the heap it starts with, so shutdown's
    # full collections skip numpy's objects
    cfg = write_cfg(tmp_path, "k = 3\nsnr_db = 30\n")
    code = (
        "import gc, sys\n"
        "from noma_perf.cli import main\n"
        "frozen_by_import = gc.get_freeze_count()\n"
        "tracked = len(gc.get_objects())\n"
        f"codes = [main(['verify', '--config', {cfg!r}, '--trials', '2000']),\n"
        f"         main(['sweep', '--config', {cfg!r}, '--trials', '20001', '--workers', '2',\n"
        f"               '--out', {str(tmp_path / 'out.csv')!r}])]\n"
        "print(codes, [m for m in ('numpy.polynomial', 'concurrent.futures', 'logging',\n"
        "                          'argparse', 'gettext', 'locale', 'dataclasses', 'copy',\n"
        "                          'csv', 'numpy.random', 'secrets', '_hashlib')\n"
        "              if m in sys.modules])\n"
        "print(frozen_by_import, gc.get_freeze_count() >= tracked > 10_000)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-2:] == ["[0, 0] []", "0 True"]


def test_no_run_starts_a_thread(tmp_path, monkeypatch):
    # every batch runs on the caller's thread, whatever workers says; an
    # import check cannot pin this, since numpy itself imports threading
    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    path = write_cfg(tmp_path, "k = 3\nsnr_db = 10,30\ntrials = 25137\n")
    cfg = system_config(parse_config(path))
    assert montecarlo.simulate(cfg, "noma", "secrecy_throughput", 25_137, seed=3, workers=4) == \
        montecarlo.simulate_many(cfg, 25_137, seed=3)[("noma", "secrecy_throughput")]
    assert main(["sweep", "--config", path, "--workers", "8",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert main(["verify", "--config", path, "--workers", "3"]) == 0


def test_package_import_binds_and_loads_nothing():
    # every public name has one import path, its module: the package
    # itself re-exports nothing and imports no submodule, hence no numpy
    code = (
        "import sys, noma_perf\n"
        "print([n for n in vars(noma_perf) if not n.startswith('_')],\n"
        "      [m for m in sys.modules if m.startswith('noma_perf.') or m == 'numpy'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out == "[] []\n"


@pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
def test_runs_call_no_lapack(tmp_path, monkeypatch, csi):
    # Gauss-Legendre rules are built by Newton's method, so no run calls
    # LAPACK, whose first call maps about 1 MB of library code into the
    # process; the memo is cleared so that every rule is built afresh
    def refuse(*args, **kwargs):
        raise AssertionError("a run called LAPACK")

    for name in ("eigvalsh", "eigh", "eig", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    gauss_legendre_rule.cache_clear()
    path = write_cfg(tmp_path, f"csi = {csi}\nk = 3\nsnr_db = 10,30\ntrials = 20000\n")
    assert main(["verify", "--config", path]) == 0
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
