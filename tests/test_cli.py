import datetime as dt
import json
import math
import re

import numpy as np
import pytest

from bigwinners.cli import OPTIONS, main
from bigwinners.gbm import GBMParams, simulate_gbm


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

    def test_threshold_flags_change_regime_formula(self, tmp_path):
        # sigma^2 = 1.04 is moderately broad by default; forcing the narrow
        # cutoff above it makes the analytic column the constant e^{-s2/2}.
        out = tmp_path / "out"
        assert main(["regime", "--mu", "0.95", "--sigma", "1.02", "--n-grid", "2,64",
                     "--narrow-max", "2.0", "--out", str(out)]) == 0
        lines = (out / "curve_inline.csv").read_text().strip().splitlines()
        start = lines.index("n,ratio_analytic,ratio_mc,mc_stderr") + 1
        values = [float(line.split(",")[1]) for line in lines[start:]]
        assert values[0] == pytest.approx(values[1])
        assert values[0] == pytest.approx(math.exp(-0.5 * 1.02**2))


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

    def test_export_sample(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1",
                   "--horizon", "16", "--simulate", "500", "--seed", "3",
                   "--export-sample", "--out", str(out)])
        assert rc == 0
        lines = (out / "sample.csv").read_text().strip().splitlines()
        assert lines[0] == "rho"
        assert len(lines) == 501
        assert all(float(v) > 0 for v in lines[1:])


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


def test_inconsistent_regime_cutoffs_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(REGIME_ARGS + ["--narrow-max", "5", "--very-broad-min", "1", "--out", str(out)])
    assert rc == 2
    assert "very_broad_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,rule",
    [
        (["analyze", "--window", "bad"], "argument --window: bad window 'bad'; expected START:END ISO dates"),
        (["regime", "--n-grid", "1,x"], "argument --n-grid: bad n-grid '1,x'; expected comma-separated integers"),
        (["regime", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
    ],
    ids=["window", "n-grid", "seed"],
)
def test_flag_error_names_the_broken_rule(capsys, argv, rule):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert rule in err
    assert not re.search(r"(?<!\w)_\w", err), err  # no private converter name


@pytest.mark.parametrize(
    "config,where",
    [
        ("[analyze]\ntail-threshold = 5\n", "[analyze] tail-threshold"),
        ("[analyze]\nbandwith_factor = 2\n", "[analyze] bandwith_factor"),
        ("[analyze]\nmu = 0.5\n", "[analyze] mu"),
        ("[common]\ntailthreshold = 5\n", "[common] tailthreshold"),
        ("[DEFAULT]\nreps_count = 5\n", "[DEFAULT] reps_count"),
        ("[analyse]\nqq = yes\n", "[analyse]"),
    ],
    ids=["dashed-key", "misspelt-key", "other-commands-key", "common", "default", "section"],
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
        "analyze": 8, "regime": 11, "gbm": 7, "model": 10,
    }
