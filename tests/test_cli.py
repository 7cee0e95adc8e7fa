import argparse
import csv
import datetime as dt
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bigwinners as bw
from bigwinners.cli import OPTIONS, build_parser, main
from bigwinners.distributions import LogNormalParams
from bigwinners.empirical import KDE_MIN_POINTS
from bigwinners.gbm import GBMParams, PricePath, estimate_gbm, simulate_gbm, write_panel_csv
from bigwinners.lognormal_sum import MODERATELY_BROAD, NARROW, VERY_BROAD, classify_regime, regime_formula_values
from conftest import build_panel_of_paths


def make_return_panel(tmp_path, name, rhos, start="2006-01-02", end="2021-12-30"):
    lines = ["ticker,date,adj_close"]
    for i, rho in enumerate(rhos):
        lines.append(f"T{i:04d},{start},1.0")
        lines.append(f"T{i:04d},{end},{float(rho)!r}")
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_path_panel(tmp_path, name, paths):
    lines = ["ticker,date,adj_close"]
    day0 = dt.date(2006, 1, 2)
    for ticker, prices in paths.items():
        for j, px in enumerate(prices):
            lines.append(f"{ticker},{day0 + dt.timedelta(days=j)},{float(px)!r}")
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestAnalyze:
    def test_three_ticker_fixture(self, tmp_path):
        src = make_return_panel(tmp_path, "tiny", [2.5, 0.8, 1.4])
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one summary row
        assert lines[1].startswith("tiny,3,")

    def test_bad_row_exits_2_with_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("ticker,date,adj_close\nAAA,2006-01-02,1.0\nAAA,not-a-date,2.0\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_fit_failure_exits_3_with_summary_written(self, tmp_path, capsys):
        # Five of six returns fall below the left-tail cutoff, leaving one to fit.
        src = make_return_panel(tmp_path, "thin", [0.01] * 5 + [2.0])
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 3
        assert "analyze: thin: fit failure: " in capsys.readouterr().err
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 2 and summary[1].startswith("thin,6,")
        fit = (out / "lognormal_fit.csv").read_text().strip().splitlines()
        assert fit == ["index,mu,sigma,mean,median,mode,sigma_sq,c,n_used,n_removed,degenerate"]

    def test_synthetic_panel_matches_closed_form(self, tmp_path):
        rng = np.random.default_rng(60)
        rhos = rng.lognormal(0.95, 1.02, 500)
        src = make_return_panel(tmp_path, "synth", rhos)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
        row = (out / "lognormal_fit.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.95, abs=0.15)
        assert float(row[2]) == pytest.approx(1.02, abs=0.1)
        summary = (out / "summary.csv").read_text().strip().splitlines()[1].split(",")
        ratio = float(summary[8])
        assert ratio == pytest.approx(math.exp(0.5 * 1.02**2), abs=0.35)

    def test_json_format_and_qq(self, tmp_path):
        rng = np.random.default_rng(61)
        src = make_return_panel(tmp_path, "synth", rng.lognormal(0.5, 0.8, 50))
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out),
                     "--format", "json", "--qq"]) == 0
        rows = json.loads((out / "summary.json").read_text())
        assert rows[0]["index"] == "synth"
        qq = json.loads((out / "qq_synth.json").read_text())
        assert set(qq[0]) == {"theoretical_quantile", "empirical_quantile"}

    def test_window_flag(self, tmp_path):
        lines = [
            "ticker,date,adj_close",
            "AAA,2006-01-02,1.0",
            "AAA,2010-01-04,3.0",
            "AAA,2021-12-30,9.0",
            "BBB,2006-01-02,2.0",
            "BBB,2010-01-04,2.0",
            "BBB,2021-12-30,8.0",
        ]
        src = tmp_path / "win.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out", str(out),
                     "--window", "2006-01-01:2010-01-05"]) == 0
        row = (out / "summary.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx((3.0 + 1.0) / 2)  # mean of 3.0 and 1.0


class TestRegime:
    def test_curve_csv_columns_and_meta(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["regime", "--mu", "0.95", "--sigma", "1.02",
                   "--n-grid", "1,2,4", "--reps", "10000", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "curve_inline.csv").read_text().strip().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "# reps=10000"
        assert lines[2].startswith("# version=")
        assert lines[3] == "n,ratio_analytic,ratio_mc,mc_stderr"
        assert len(lines) == 7

    def test_near_zero_sigma_all_ones(self, tmp_path):
        out = tmp_path / "out"
        assert main(["regime", "--mu", "0.0", "--sigma", "1e-4",
                     "--n-grid", "1,8,64", "--out", str(out)]) == 0
        lines = (out / "curve_inline.csv").read_text().strip().splitlines()
        start = lines.index("n,ratio_analytic,ratio_mc,mc_stderr") + 1
        for line in lines[start:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-6)

    def test_missing_params_exit_2(self, tmp_path, capsys):
        assert main(["regime", "--out", str(tmp_path)]) == 2
        assert "--mu" in capsys.readouterr().err

    def test_invalid_sigma_exit_2(self, tmp_path):
        assert main(["regime", "--mu", "0.0", "--sigma", "-1.0", "--out", str(tmp_path)]) == 2

    def test_seed_required_for_mc(self, tmp_path, capsys):
        rc = main(["regime", "--mu", "0.5", "--sigma", "1.0", "--reps", "10000",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["regime", "--mu", "0.95", "--sigma", "1.02", "--n-grid", "2,4",
                "--reps", "10000", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "curve_inline.csv").read_bytes() == (out2 / "curve_inline.csv").read_bytes()

    def test_returns_far_below_one_read_the_mu_0_ratios(self, tmp_path):
        # The typical ratio does not depend on mu; at mu = -706 the KDE grid reaches
        # below log values of -709.78, where an untilted e^-t overflows a float.
        columns = {}
        for mu in ("-706", "0"):
            out = tmp_path / mu
            assert main(["regime", "--mu", mu, "--sigma", "1", "--reps", "10000", "--seed", "1",
                         "--n-grid", "1,4", "--out", str(out)]) == 0
            lines = (out / "curve_inline.csv").read_text().strip().splitlines()
            rows = list(csv.DictReader(lines[lines.index("n,ratio_analytic,ratio_mc,mc_stderr"):]))
            columns[mu] = [float(row[name]) for row in rows for name in ("ratio_mc", "mc_stderr")]
        assert columns["-706"] == pytest.approx(columns["0"], rel=1e-9)

    @pytest.mark.parametrize(
        "sigma,label",
        [("0.316", NARROW), ("0.317", MODERATELY_BROAD), ("1.999", MODERATELY_BROAD), ("2.0", VERY_BROAD)],
        ids=["narrow-edge", "moderate-low-edge", "moderate-high-edge", "very-broad-edge"],
    )
    def test_fixed_cutoffs_pick_the_regime_formula(self, tmp_path, sigma, label):
        # sigma^2 <= 0.1 is narrow and sigma^2 >= 4.0 (2.0 squared, exactly) very broad.
        p = LogNormalParams(mu=0.0, sigma=float(sigma))
        assert classify_regime(p) == label
        out = tmp_path / "out"
        assert main(["regime", "--mu", "0", "--sigma", sigma, "--n-grid", "2,64", "--out", str(out)]) == 0
        lines = (out / "curve_inline.csv").read_text().strip().splitlines()
        start = lines.index("n,ratio_analytic,ratio_mc,mc_stderr") + 1
        values = [float(line.split(",")[1]) for line in lines[start:]]
        assert values == [regime_formula_values(p, n)[label] for n in (2, 64)]


class TestGbm:
    def test_synthetic_panel(self, tmp_path):
        paths = {
            f"T{i:03d}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices
            for i in range(50)
        }
        src = make_path_panel(tmp_path, "panel", paths)
        out = tmp_path / "out"
        rc = main(["gbm", "--input", str(src), "--dt", "1.0", "--out", str(out)])
        assert rc == 0
        lines = (out / "panel.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        assert float(values["mu_mean"]) == pytest.approx(0.12, abs=0.06)
        assert float(values["sigma_mean"]) == pytest.approx(0.29, abs=0.05)
        assert any(line.startswith("# clamped_estimates=") for line in lines)
        est_lines = (out / "estimates.csv").read_text().strip().splitlines()
        assert len(est_lines) == 51

    def test_constant_panel_fit_failure_exit_3(self, tmp_path, capsys):
        paths = {f"T{i}": [5.0] * 17 for i in range(5)}
        src = make_path_panel(tmp_path, "flat", paths)
        out = tmp_path / "out"
        rc = main(["gbm", "--input", str(src), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "drift_fit" in err
        # partial results still written
        assert (out / "panel.csv").exists()
        assert (out / "estimates.csv").exists()

    def test_deterministic_growth_all_clamped(self, tmp_path):
        paths = {
            f"T{i}": list(np.exp((0.05 + 0.01 * i) * np.arange(17)))
            for i in range(6)
        }
        src = make_path_panel(tmp_path, "growth", paths)
        out = tmp_path / "out"
        main(["gbm", "--input", str(src), "--out", str(out)])
        lines = (out / "panel.csv").read_text().strip().splitlines()
        assert "# clamped_estimates=6" in lines

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["gbm", "--out", str(tmp_path)]) == 2

    def test_gbm_builds_no_price_path(self, tmp_path, monkeypatch):
        """``gbm`` reads the loaded panel's columns: with ``PricePath`` refusing
        every path it writes the panel that ``build_panel`` of the paths gives."""
        paths = {f"T{i:02d}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 0.25, seed=i).prices for i in range(12)}
        paths["SHORT"], paths["ONE"] = paths["T00"][:5], paths["T01"][:1]
        write_panel_csv(build_panel_of_paths({t: PricePath(float(p[0]), p, 0.25) for t, p in paths.items()}), tmp_path / "want.csv")
        src = make_path_panel(tmp_path, "panel", paths)
        argv = ["gbm", "--input", str(src), "--dt", "0.25", "--format", "json"]
        assert main(argv + ["--out", str(tmp_path / "before")]) == 0

        def refuse(self):
            raise AssertionError("gbm built a PricePath")

        monkeypatch.setattr(PricePath, "__post_init__", refuse)
        assert main(argv + ["--out", str(tmp_path / "after")]) == 0
        for name in ("estimates.json", "panel.csv"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes(), name
        assert (tmp_path / "after" / "panel.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_dt_exits_2_after_the_file_is_read(self, tmp_path, capsys, value):
        paths = {f"T{i}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices for i in range(4)}
        good = make_path_panel(tmp_path, "panel", paths)
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("ticker,date,adj_close\nT0,2006-01-02,x\n", encoding="utf-8")
        argv = ["gbm", "--dt", value, "--out", str(tmp_path / "out"), "--input"]
        for src, message in [
            (good, f"dt must be > 0, got {float(value)}"),
            (malformed, "line 2: bad price 'x'"),
            (tmp_path / "missing.csv", "No such file or directory"),
        ]:
            assert main(argv + [str(src)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("gbm: ") and message in err, (src.name, err)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["endpoint", "mle"])
    def test_each_estimate_row_is_estimate_gbm_of_its_path(self, tmp_path, method, fmt):
        paths = {f"T{i:02d}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 0.25, seed=i).prices for i in range(20)}
        paths["TREND"] = np.exp(0.05 * np.arange(17.0))  # drift-dominated: the endpoint form clamps it
        paths["SHORT"] = paths["T00"][:5]
        src = make_path_panel(tmp_path, "panel", paths)
        out = tmp_path / "out"
        argv = ["gbm", "--input", str(src), "--dt", "0.25", "--estimator", method, "--format", fmt]
        # A clamped sigma_hat of 0 is left out of the gamma fit, which succeeds without it.
        assert main(argv + ["--out", str(out)]) == 0
        text = (out / f"estimates.{fmt}").read_text(encoding="utf-8")
        rows = json.loads(text) if fmt == "json" else list(csv.DictReader(text.splitlines()))
        assert [row["ticker"] for row in rows] == sorted(set(paths) - {"SHORT"})
        for row in rows:
            prices = paths[row["ticker"]]
            expected = estimate_gbm(PricePath(x0=float(prices[0]), prices=prices, dt=0.25), method)
            for field in ("mu_hat", "sigma_hat", "sigma_sq_raw"):
                written = row[field] if fmt == "csv" else repr(row[field])
                assert written == repr(getattr(expected, field)), (row["ticker"], field)
            assert row["clamped"] == (str(expected.clamped) if fmt == "csv" else expected.clamped)
        assert [row["ticker"] for row in rows if row["clamped"] in (True, "True")] == (
            ["TREND"] if method == "endpoint" else []
        )

    def test_every_loaded_ticker_is_used_or_excluded(self, tmp_path):
        paths = {
            f"T{i}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices
            for i in range(6)
        }
        paths["SHORT"] = paths["T0"][:5]
        paths["ONE"] = paths["T1"][:1]
        src = make_path_panel(tmp_path, "panel", paths)
        out = tmp_path / "out"
        assert main(["gbm", "--input", str(src), "--out", str(out)]) == 0
        lines = (out / "panel.csv").read_text().strip().splitlines()
        footer = dict(line[2:].split("=") for line in lines if line.startswith("# "))
        assert (footer["tickers_used"], footer["excluded_delisted"]) == ("6", "2")


class TestModel:
    def test_closed_form_row(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1",
                   "--horizon", "16", "--out", str(out)])
        assert rc == 0
        lines = (out / "model.csv").read_text().strip().splitlines()
        header = next(l for l in lines if l.startswith("mu_d")).split(",")
        values = dict(zip(header, lines[lines.index(",".join(header)) + 1].split(",")))
        assert float(values["mean_over_median"]) == pytest.approx(1.216, abs=5e-4)
        assert float(values["mean_over_mode"]) == pytest.approx(1.796, abs=5e-4)

    def test_zero_noise_ratios_one(self, tmp_path):
        out = tmp_path / "out"
        assert main(["model", "--mu-d", "0.1", "--sigma-d", "0", "--sigma", "0",
                     "--horizon", "16", "--out", str(out)]) == 0
        lines = (out / "model.csv").read_text().strip().splitlines()
        row = lines[-1].split(",")
        header = lines[-2].split(",")
        values = dict(zip(header, row))
        assert float(values["mean_over_median"]) == 1.0

    def test_simulation_within_3se(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1",
                   "--horizon", "16", "--simulate", "100000", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "model.csv").read_text().strip().splitlines()
        assert lines[0] == "# seed=3"
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("mu_d"))
        values = dict(zip(lines[header_idx].split(","), lines[header_idx + 1].split(",")))
        mc = float(values["mc_mean_over_median"])
        se = float(values["mc_stderr"])
        assert abs(mc - math.exp(0.1952)) <= 3 * se

    def test_invalid_params_exit_2(self, tmp_path):
        assert main(["model", "--mu-d", "0.1", "--sigma-d", "-0.1", "--sigma", "0.1",
                     "--horizon", "16", "--out", str(tmp_path)]) == 2
        assert main(["model", "--mu-d", "0.1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n", [KDE_MIN_POINTS, 500])
    def test_export_sample(self, tmp_path, n):
        out = tmp_path / "out"
        rc = main(["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1",
                   "--horizon", "16", "--simulate", str(n), "--seed", "3",
                   "--export-sample", "--out", str(out)])
        assert rc == 0
        lines = (out / "sample.csv").read_text().strip().splitlines()
        assert lines[0] == "rho"
        assert len(lines) == n + 1
        assert all(float(v) > 0 for v in lines[1:])

    @pytest.mark.parametrize("config", [None, "[model]\nexport_sample = yes\n"], ids=["flag", "config"])
    def test_export_sample_without_simulate_exits_2(self, tmp_path, capsys, config):
        argv = MODEL_ARGS + ["--out", str(tmp_path / "out")]
        if config is None:
            argv.append("--export-sample")
        else:
            (tmp_path / "run.ini").write_text(config)
            argv += ["--config", str(tmp_path / "run.ini")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "model: --export-sample needs --simulate > 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1, 4])
    @pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
    def test_simulate_below_five_exits_2_before_any_work(self, tmp_path, capsys, value, config):
        argv = MODEL_ARGS + ["--seed", "1", "--out", str(tmp_path / "out")]
        if config:
            (tmp_path / "run.ini").write_text(f"[model]\nsimulate = {value}\n")
            argv += ["--config", str(tmp_path / "run.ini")]
        else:
            argv += ["--simulate", str(value)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"model: --simulate must be 0 or at least 5, got {value}\n"
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[common]\nout = {out}\nformat = csv\n\n"
            "[model]\nmu_d = 0.12\nsigma_d = 0.03\nsigma = 0.1\nhorizon = 16\n".format(
                out=tmp_path / "cfg_out"
            )
        )
        assert main(["model", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "model.csv").exists()

        # flag overrides the config value
        assert main(["model", "--config", str(cfg), "--horizon", "4"]) == 0
        lines = (tmp_path / "cfg_out" / "model.csv").read_text().strip().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("mu_d"))
        values = dict(zip(lines[header_idx].split(","), lines[header_idx + 1].split(",")))
        assert float(values["horizon"]) == 4.0

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["model", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_key_before_any_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("format = csv\n[model]\nhorizon = 16\n")
        out = tmp_path / "out"
        assert main(MODEL_ARGS + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"model: config file {cfg}: File contains no section headers." in err
        assert not out.exists()

    def test_lone_percent_exits_2_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nout = 50%\n")
        assert main(MODEL_ARGS + ["--config", str(cfg)]) == 2
        assert "model: config [model] out: '%' must be followed by" in capsys.readouterr().err


MODEL_ARGS = ["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16"]
REGIME_ARGS = ["regime", "--mu", "0.9", "--sigma", "1.0"]


def exit_code(argv):
    """Exit code of a CLI run, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfigValues:
    @pytest.mark.parametrize(
        "argv,section,key,value",
        [
            (MODEL_ARGS[:-2], "model", "horizon", "abc"),
            (REGIME_ARGS + ["--seed", "1"], "regime", "reps", "1e5"),
            (["analyze", "--input", "never-read.csv"], "common", "format", "xml"),
            (["gbm", "--input", "never-read.csv"], "gbm", "estimator", "foo"),
            (MODEL_ARGS, "model", "export_sample", "maybe"),
        ],
        ids=["model-horizon", "regime-reps", "common-format", "gbm-estimator", "model-export_sample"],
    )
    def test_malformed_value_exits_2_naming_key(self, tmp_path, capsys, argv, section, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config [{section}] {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "word,expected",
        [("1", True), ("yes", True), ("True", True), ("on", True),
         ("0", False), ("no", False), ("false", False), ("OFF", False)],
    )
    def test_qq_takes_configparser_boolean_words(self, tmp_path, word, expected):
        src = make_return_panel(tmp_path, "synth", np.random.default_rng(61).lognormal(0.5, 0.8, 40))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[analyze]\nqq = {word}\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "qq_synth.csv").exists() is expected

    def test_export_sample_takes_yes(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nexport_sample = yes\n")
        out = tmp_path / "out"
        assert main(MODEL_ARGS + ["--simulate", "50", "--seed", "3", "--config", str(cfg),
                                  "--out", str(out)]) == 0
        assert (out / "sample.csv").exists()

    def test_unknown_boolean_word_exits_2(self, tmp_path, capsys):
        src = make_return_panel(tmp_path, "synth", [2.5, 0.8, 1.4])
        cfg = tmp_path / "run.ini"
        cfg.write_text("[analyze]\nqq = maybe\n")
        assert main(["analyze", "--input", str(src), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "config [analyze] qq:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,config",
    [
        (REGIME_ARGS + ["--reps", "10000", "--seed", "-1"], ""),
        (MODEL_ARGS + ["--simulate", "10", "--seed", "-5"], ""),
        (REGIME_ARGS + ["--reps", "-5", "--seed", "1"], ""),
        (MODEL_ARGS + ["--simulate", "-4", "--seed", "1"], ""),
        (REGIME_ARGS + ["--reps", "10000"], "[common]\nseed = -1\n"),
        (MODEL_ARGS + ["--seed", "1"], "[model]\nsimulate = -4\n"),
    ],
    ids=["regime-seed-flag", "model-seed-flag", "regime-reps-flag", "model-simulate-flag",
         "common-seed-config", "model-simulate-config"],
)
def test_negative_seed_or_count_exits_2_before_any_work(tmp_path, argv, config):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert exit_code(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "--tail-threshold", "nan"], "analyze: threshold_log must not be NaN"),
        (["analyze", "--tail-threshold", "inf"], "analyze: threshold_log must be below +inf, got inf"),
    ],
    ids=["tail-threshold-nan", "tail-threshold-inf"],
)
def test_nan_or_out_of_range_option_exits_2_naming_it(tmp_path, capsys, argv, message):
    paths = {f"T{i}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices for i in range(6)}
    src = make_path_panel(tmp_path, "panel", paths)
    if argv[0] != "regime":
        argv = argv + ["--input", str(src)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,rule",
    [
        (["analyze", "--window", "bad"], "argument --window: bad window 'bad'; expected START:END ISO dates"),
        (["regime", "--n-grid", "1,x"], "argument --n-grid: bad n-grid '1,x'; expected comma-separated integers"),
        (["regime", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
        (["analyze", "--window", "2021-01-01:2020-01-01"],
         "argument --window: window end must follow start, got '2021-01-01:2020-01-01'"),
        (["regime", "--n-grid", ","], "argument --n-grid: n-grid must be nonempty"),
    ],
    ids=["window", "n-grid", "seed", "window-order", "n-grid-empty"],
)
def test_flag_error_names_the_broken_rule(capsys, argv, rule):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert rule in err
    assert not re.search(r"(?<!\w)_\w", err), err  # no private converter name


@pytest.mark.parametrize(
    "argv,flag,value,report",
    [
        (["regime", "--sigma", "1.0", "--n-grid", "1,4"], "--mu", "-1e-3", "curve_inline.csv"),
        (["model", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16"], "--mu-d", "-2e-2", "model.csv"),
        (["analyze"], "--tail-threshold", "-inf", "lognormal_fit.csv"),
    ],
    ids=["regime-mu", "model-mu-d", "tail-threshold"],
)
def test_negative_number_after_a_flag_is_its_value(tmp_path, argv, flag, value, report):
    """``--flag -1e-3`` and ``--flag -inf`` write what ``--flag=-1e-3`` and ``--flag=-inf`` write."""
    if argv[0] == "analyze":
        argv = argv + ["--input", str(make_return_panel(tmp_path, "synth", [0.01, 0.5, 1.2, 2.0, 3.5, 8.0]))]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(argv + [flag, value, "--out", str(spaced)]) == 0
    assert main(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert (spaced / report).read_bytes() == (joined / report).read_bytes()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["model", "--mu-d", "0.1", "--sigma-d", "1", "--sigma", "0.2", "--horizon", "22"],
         "model: mean_over_mode = exp(727.32) overflows a float\n"),
        (["model", "--mu-d", "1e300", "--sigma-d", "0", "--sigma", "0.1", "--horizon", "1e10"],
         "model: mu must be finite, got inf\n"),
        (["regime", "--mu", "400", "--sigma", "1", "--n-grid", "1", "--reps", "10000", "--seed", "1"],
         "regime: inline: bootstrap stderr: the spread of modes near "),
        (["model", "--mu-d", "800", "--sigma-d", "0", "--sigma", "0.1", "--horizon", "1", "--simulate", "10",
          "--seed", "1"], "model: simulated total return exp(800.055) overflows a float\n"),
        (["regime", "--mu", "705", "--sigma", "2", "--reps", "10000", "--seed", "1", "--n-grid", "1,2"],
         "regime: inline: the mean of a portfolio of n=1 log-normal draws overflows a float\n"),
        (["model", "--mu-d", "709", "--sigma-d", "0", "--sigma", "0.001", "--horizon", "1", "--simulate", "300",
          "--seed", "1"], "model: the mean of the 300 returns overflows a float\n"),
    ],
    ids=["model-ratio", "model-implied-law", "regime-stderr", "model-simulated-return", "regime-portfolio-mean",
         "model-simulated-mean"],
)
def test_overflow_exits_2_with_a_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.endswith("\n") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze"], "analyze: at least one --input price file is required"),
        (["regime", "--mu", "0", "--sigma", "0"], "regime: inline: regime analysis requires sigma > 0"),
        (["regime", "--params-file", "params.csv"], "regime: params file params.csv needs index,mu,sigma columns"),
        (MODEL_ARGS + ["--simulate", "10"], "model: --seed is required with --simulate"),
    ],
    ids=["analyze-no-input", "regime-sigma-zero", "regime-params-columns", "model-simulate-no-seed"],
)
def test_missing_or_invalid_setting_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("params.csv").write_text("index,mu\nSPX,0.5\n")
    assert main(argv + ["--out", "out"]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("dt", ["1e-320", "1e-300", "1e-120"])
def test_gbm_estimates_past_the_float_range_exit_2_with_a_message(tmp_path, capsys, dt):
    """At a tiny --dt the annualised drifts reach 1e117 and more (inf at 1e-320): gbm
    exits 2 with one line before any fit or report, where it used to warn and write
    inf and NaN."""
    paths = {f"T{i}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices for i in range(6)}
    argv = ["gbm", "--input", str(make_path_panel(tmp_path, "panel", paths)), "--dt", dt]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gbm: annualised estimates up to ") and err.count("\n") == 1
    assert err.endswith(" overflow a float in the cross-sectional fits\n")
    assert not out.exists()
    assert main(argv[:-1] + ["1e-90", "--out", str(out)]) == 0  # the same panel well inside the range


def test_regime_mean_overflow_exits_2_before_drawing(tmp_path, capsys):
    argv = ["regime", "--mu", "800", "--sigma", "1", "--reps", "10000", "--seed", "1", "--n-grid", "1"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "regime: inline: log-normal mean = exp(800.5) overflows a float\n"
    assert not out.exists()


def test_analyze_mean_overflow_exits_2_and_writes_the_other_index(tmp_path, capsys):
    big = make_return_panel(tmp_path, "big", [1e174] * 5 + [2.0] * 5)
    calm = make_return_panel(tmp_path, "calm", np.linspace(1.5, 4.0, 10))
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(big), "--input", str(calm), "--out", str(out), "--qq"]) == 2
    assert capsys.readouterr().err == "analyze: big: log-normal mean = exp(20196.3) overflows a float\n"
    fits = list(csv.DictReader((out / "lognormal_fit.csv").read_text(encoding="utf-8").splitlines()))
    assert [row["index"] for row in fits] == ["calm"]
    summary = list(csv.DictReader((out / "summary.csv").read_text(encoding="utf-8").splitlines()))
    assert [row["index"] for row in summary] == ["big", "calm"]
    assert (out / "qq_calm.csv").exists() and not (out / "qq_big.csv").exists()


def test_analyze_returns_near_the_float_maximum_exit_2_naming_the_mean(tmp_path, capsys):
    huge = make_return_panel(tmp_path, "huge", [1.7976931348623157e308] * 35 + [1.7958954417274534e308] * 5,
                             end="2016-01-04")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(huge), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "analyze: huge: the mean of the 40 returns overflows a float\n"


def test_analyze_variance_overflow_exits_2_naming_the_index(tmp_path, capsys):
    # ln rho is -1.9 or 38.1: mu = 18.1 and sigma = 20, so the mean and both
    # variance factors are finite floats but the variance is not.
    wide = make_return_panel(tmp_path, "wide", [math.exp(-1.9)] * 5 + [math.exp(38.1)] * 5)
    calm = make_return_panel(tmp_path, "calm", np.linspace(1.5, 4.0, 10))
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(wide), "--input", str(calm), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "analyze: wide: log-normal variance overflows a float at sigma = 20\n"
    fits = list(csv.DictReader((out / "lognormal_fit.csv").read_text(encoding="utf-8").splitlines()))
    assert [row["index"] for row in fits] == ["calm"]


def test_analyze_return_out_of_float_range_exits_2_naming_the_ticker(tmp_path, capsys):
    """Valid prices whose ratio over- or underflows: the first such ticker is named, with no numpy warning."""
    prices = {"A": ("1e308", "1e-308"), "B": ("1e-308", "1e308"), "C": ("1", "2"), "D": ("1", "2")}
    src = tmp_path / "f.csv"
    src.write_text("ticker,date,adj_close\n" + "".join(
        f"{ticker},2006-01-02,{start}\n{ticker},2021-12-30,{end}\n" for ticker, (start, end) in prices.items()
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(src), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "analyze: f: A: total return 1e-308 / 1e+308 leaves the float range\n"


@pytest.mark.parametrize(
    "config,where",
    [
        ("[analyze]\ntail-threshold = 5\n", "[analyze] tail-threshold"),
        ("[analyze]\nbandwith_factor = 2\n", "[analyze] bandwith_factor"),
        ("[analyze]\nmu = 0.5\n", "[analyze] mu"),
        ("[common]\ntailthreshold = 5\n", "[common] tailthreshold"),
        ("[DEFAULT]\nreps_count = 5\n", "[DEFAULT] reps_count"),
        ("[analyse]\nqq = yes\n", "[analyse]"),
        ("[analyze]\nbandwidth_factor = 1\n", "[analyze] bandwidth_factor: unknown key"),
        ("[regime]\nnarrow_max = 1\n", "[regime] narrow_max: unknown key"),
        ("[regime]\nvery_broad_min = 1\n", "[regime] very_broad_min: unknown key"),
        ("[gbm]\nmin_coverage = 1\n", "[gbm] min_coverage: unknown key"),
    ],
    ids=["dashed-key", "misspelt-key", "other-commands-key", "common", "default", "section",
         "removed-bandwidth-factor", "removed-narrow-max", "removed-very-broad-min", "removed-min-coverage"],
)
def test_unknown_config_key_exits_2_before_any_work(tmp_path, capsys, config, where):
    src = make_return_panel(tmp_path, "synth", [2.5, 0.8, 1.4])
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(src), "--config", str(cfg), "--out", str(out)]) == 2
    assert f"analyze: config {where}" in capsys.readouterr().err
    assert not out.exists()


def test_one_config_file_serves_several_commands(tmp_path):
    src = make_return_panel(tmp_path, "synth", np.random.default_rng(62).lognormal(0.5, 0.8, 40))
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[DEFAULT]\nformat = csv\n\n[common]\nseed = 4\nsigma = 1.0\n\n"
        f"[regime]\nmu = 0.5\nn_grid = 1,2\n\n[analyze]\ninput = {src}\nqq = yes\n"
    )
    out = tmp_path / "out"
    assert main(["regime", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "curve_inline.csv", "lognormal_fit.csv", "qq_synth.csv", "summary.csv",
    ]


@pytest.mark.parametrize(
    "config,horizon,sigma_d",
    [
        ("[DEFAULT]\nhorizon = 4\nsigma_d = 0.01\n", 4.0, 0.01),
        ("[DEFAULT]\nhorizon = 4\nsigma_d = 0.01\n\n[common]\nhorizon = 8\n\n[model]\nformat = csv\n", 8.0, 0.01),
        ("[DEFAULT]\nhorizon = 4\nsigma_d = 0.01\n\n[common]\nhorizon = 8\nsigma_d = 0.02\n\n"
         "[model]\nhorizon = 16\n", 16.0, 0.02),
    ],
    ids=["default-alone", "common-over-default", "command-over-both"],
)
def test_config_value_comes_from_command_then_common_then_default(tmp_path, config, horizon, sigma_d):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["model", "--mu-d", "0.12", "--sigma", "0.1", "--config", str(cfg), "--out", str(out)]) == 0
    header, values = [line for line in (out / "model.csv").read_text().splitlines() if not line.startswith("#")]
    row = dict(zip(header.split(","), values.split(",")))
    assert (float(row["horizon"]), float(row["sigma_d"])) == (horizon, sigma_d)


@pytest.mark.parametrize("config", ["[DEFAULT]\nhorizon = abc\n", "[DEFAULT]\nhorizon = abc\n\n[model]\nformat = csv\n"],
                         ids=["default-alone", "with-command-section"])
def test_bad_default_value_exits_2_naming_default(tmp_path, capsys, config):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(MODEL_ARGS[:-2] + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "model: config [DEFAULT] horizon: could not convert string to float: 'abc'\n"
    assert not out.exists()


def test_interpolation_does_not_reach_into_default(tmp_path, capsys):
    """[DEFAULT] is a plain section, so another section's %(name)s cannot name its keys."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\nhorizon = 4\n\n[model]\nsigma_d = %(horizon)s\n")
    out = tmp_path / "out"
    assert main(["model", "--mu-d", "0.12", "--sigma", "0.1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "model: config [model] sigma_d: Bad value substitution" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "gbm"])
def test_seed_is_not_an_option_of_deterministic_commands(tmp_path, capsys, command):
    src = make_return_panel(tmp_path, "synth", [2.5, 0.8, 1.4])
    out = tmp_path / "out"
    assert exit_code([command, "--input", str(src), "--seed", "1", "--out", str(out)]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_params_file_index_exits_2(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("index,mu,sigma\nSPX,0.95,1.02\nSPX,0.6,0.5\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert "regime: report name 'SPX' must be a plain file name, used once" in capsys.readouterr().err
    assert not out.exists()


def test_short_params_file_row_exits_2_naming_it(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("index,mu,sigma\nCCMP,0.41,1.10\nSPX,0.5\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert f"regime: params file {params}: row 'SPX' has no mu or sigma" in capsys.readouterr().err
    assert not out.exists()


def test_params_file_row_without_index_is_named_by_position(tmp_path):
    """A row that ends before the index column is named row<i>, not a crash."""
    params = tmp_path / "params.csv"
    params.write_text("mu,sigma,index\n0.1,1\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--n-grid", "1,2", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["curve_row0.csv"]


def test_params_file_row_without_index_or_sigma_exits_2_naming_it(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("mu,sigma,index\n0.1\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"regime: params file {params}: row 'row0' has no mu or sigma\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,fault",
    [
        ("SPX,abc,1.0", "could not convert string to float: 'abc'"),
        ("SPX,0.5,-1", "sigma must be >= 0, got -1.0"),
        ("SPX,0.5,1.0,extra", "more fields than the header"),
    ],
    ids=["bad-number", "negative-sigma", "extra-field"],
)
def test_bad_params_file_value_exits_2_naming_file_and_row(tmp_path, capsys, rows, fault):
    params = tmp_path / "params.csv"
    params.write_text(f"index,mu,sigma\nCCMP,0.41,1.10\n{rows}\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"regime: params file {params}: row 'SPX': {fault}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "gbm"])
def test_non_utf8_price_file_exits_2_naming_the_line(tmp_path, capsys, command):
    """The byte sits far past the first read-ahead chunk; its line is counted in the file."""
    src = make_return_panel(tmp_path, "prices", [1.5] * 3000)
    lines = src.read_bytes().split(b"\n")
    lines[5002] = lines[5002].replace(b"T2500", b"T2500\xe9")
    src.write_bytes(b"\n".join(lines))
    assert main([command, "--input", str(src), "--out", str(tmp_path / "out")]) == 2
    prefix = "analyze: prices" if command == "analyze" else "gbm"
    assert capsys.readouterr().err == f"{prefix}: line 5003: byte 0xe9 is not UTF-8 text\n"


@pytest.mark.parametrize("command", ["analyze", "gbm"])
def test_field_over_the_csv_limit_exits_2_naming_the_line(tmp_path, capsys, command):
    """csv.reader's field size limit is an input error on the line it is met, not a traceback."""
    src = make_return_panel(tmp_path, "prices", [1.5] * 3000)
    lines = src.read_bytes().split(b"\n")
    lines[4000] = lines[4000].replace(b"T1999", b"T1999" + b"x" * (csv.field_size_limit() + 1))
    src.write_bytes(b"\n".join(lines))
    assert main([command, "--input", str(src), "--out", str(tmp_path / "out")]) == 2
    prefix = "analyze: prices" if command == "analyze" else "gbm"
    message = f"line 4001: field larger than field limit ({csv.field_size_limit()})"
    assert capsys.readouterr().err == f"{prefix}: {message}\n"


@pytest.mark.parametrize("rows, message", [
    (b"ticker,date,adj_close\nAAA,2006-01-02,1\nAAA,bad-date,2\nBBB,2006-01-02,1\nBBB,2006-01-03,caf\xe9\n",
     "line 3: bad date 'bad-date'"),
    (b"ticker,date,adj_clos\xe9\nAAA,2006-01-02,1\n", "line 1: byte 0xe9 is not UTF-8 text"),
    (b"ticker,date,adj_close\nAAA,2006-01-02,1\nAAA,2006-01-0\xff,2\n", "line 3: byte 0xff is not UTF-8 text"),
    (b"ticker,date,adj_close\nAAA,2006-01-02,1\xe9\nAAA,bad-date,2\n", "line 2: byte 0xe9 is not UTF-8 text"),
    (b"ticker,date,adj_close\nAAA,2006-01-02,1,\xe9\n", "line 2: byte 0xe9 is not UTF-8 text"),
], ids=["bad_date_before_byte", "header", "date", "price_before_bad_date", "field_count"])
def test_non_utf8_byte_is_a_row_fault_in_file_order(tmp_path, capsys, rows, message):
    src = tmp_path / "prices.csv"
    src.write_bytes(rows)
    assert main(["analyze", "--input", str(src), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"analyze: prices: {message}\n"


def test_non_utf8_config_value_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"[model]\nformat = caf\xe9\n")
    out = tmp_path / "out"
    assert main(MODEL_ARGS + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"model: config file {cfg}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_params_file_exits_2_naming_the_file(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_bytes(b"index,mu,sigma\nSPX,0.5,1.0\xe9\n")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert f"regime: params file {params}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert not out.exists()


def test_params_file_index_cannot_leave_out_dir(tmp_path):
    params = tmp_path / "params.csv"
    params.write_text("index,mu,sigma\nsub/../../escaped,0.95,1.02\n")
    out = tmp_path / "a" / "out"
    assert main(["regime", "--params-file", str(params), "--out", str(out)]) == 2
    assert not (tmp_path / "a").exists()


def test_inputs_with_one_stem_exit_2(tmp_path, capsys):
    rhos = np.random.default_rng(63).lognormal(0.5, 0.8, 40)
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        make_return_panel(tmp_path / sub, "p", rhos)
    out = tmp_path / "out"
    argv = ["analyze", "--input", str(tmp_path / "x" / "p.csv"), "--input", str(tmp_path / "y" / "p.csv")]
    assert main(argv + ["--qq", "--out", str(out)]) == 2
    assert "analyze: report name 'p' must be a plain file name, used once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_config_and_the_table_flags(capsys, command):
    assert exit_code([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config", *("--" + key.replace("_", "-") for key in OPTIONS[command])}


def test_option_count():
    # --config plus the table: seed belongs to the stochastic commands only
    assert {command: len(options) + 1 for command, options in OPTIONS.items()} == {
        "analyze": 7, "regime": 9, "gbm": 6, "model": 10,
    }


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--bandwidth-factor", "1"], ["regime", "--narrow-max", "1"],
     ["regime", "--very-broad-min", "1"], ["gbm", "--min-coverage", "1"]],
    ids=["bandwidth-factor", "narrow-max", "very-broad-min", "min-coverage"],
)
def test_removed_tuning_flag_exits_2(capsys, argv):
    assert exit_code(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_readme_cli_section_names_every_flag():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for p in commands.choices.values() for a in p._actions for s in a.option_strings if s.startswith("--")}
    assert documented == flags


def test_readme_library_tour_prints_what_each_call_returns():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    scope = {"bw": bw}
    for assignment in re.findall(r"^(?:p|model) = .*$", section, flags=re.M):
        exec(assignment, scope)
    printed = dict(re.findall(r"^(bw\.\S.*?)\s+# (\d+\.\d+)", section, flags=re.M))
    printed["bw.typical_mean_ratio(bw.implied_lognormal(model), n=10)"] = re.search(
        r"\(closed form: (\d+\.\d+)\)", section).group(1)
    assert len(printed) == 6
    for call, digits in printed.items():
        decimals = len(digits.split(".")[1])
        assert f"{eval(call, scope):.{decimals}f}" == digits, call


# ---------------------------------------------------------------------------
# The launched program: ``run`` wraps ``main`` and freezes the heap as it ends
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def launch(argv, code=None):
    """(exit code, stdout, stderr) of ``python -m bigwinners.cli argv`` (or ``python -c code``)
    in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    program = ["-c", code] if code else ["-m", "bigwinners.cli"]
    done = subprocess.run([sys.executable, *program, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def reports(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", ["model-export-sample", "gbm", "gbm-fit-failure"])
def test_launch_writes_what_main_writes(tmp_path, capsys, case):
    """A launched run gives the same reports, stderr and exit code as ``main`` in process."""
    if case == "model-export-sample":
        argv = [*MODEL_ARGS, "--simulate", "2000", "--seed", "1", "--export-sample"]
    else:
        paths = ({f"T{i:03d}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 1.0, seed=i).prices for i in range(50)}
                 if case == "gbm" else {f"T{i}": [5.0] * 17 for i in range(5)})
        argv = ["gbm", "--input", str(make_path_panel(tmp_path, "panel", paths))]
    rc = main(argv + ["--out", str(tmp_path / "in_process")])
    err = capsys.readouterr().err
    assert rc == (3 if case == "gbm-fit-failure" else 0)
    assert launch(argv + ["--out", str(tmp_path / "launched")]) == (rc, "", err)
    assert reports(tmp_path / "launched") == reports(tmp_path / "in_process")


def test_main_in_process_freezes_nothing(tmp_path):
    assert main([*MODEL_ARGS, "--simulate", "2000", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


def test_run_freezes_the_heap_once_main_returns(tmp_path):
    code = ("import gc, bigwinners.cli\n"
            "rc = bigwinners.cli.run()\nprint(rc, gc.get_freeze_count() > 1000)\n")
    assert launch([*MODEL_ARGS, "--out", str(tmp_path)], code) == (0, "0 True\n", "")


def test_console_script_is_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^bigwinners = "(.*)"$', text, flags=re.M) == ["bigwinners.cli:run"]


def test_launched_help_exits_0_and_bad_flag_exits_2():
    rc, out, err = launch(["--help"])
    assert (rc, err) == (0, "") and out.startswith("usage: bigwinners ")
    rc, out, err = launch(["gbm", "--no-such-flag"])
    assert (rc, out) == (2, "") and "unrecognized arguments: --no-such-flag" in err
