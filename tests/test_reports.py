"""Exact report bytes and the CLI's handling of report and input edge cases."""

import io

import numpy as np
import pytest

from bigwinners import __version__
from bigwinners.cli import main
from bigwinners.empirical import ReturnSample, load_panel, write_report, write_returns_csv
from bigwinners.errors import ParameterError

FIELDS = ["name", "none", "float", "np_float", "flag", "count"]
ROWS = [
    ("A,B", None, 0.1, np.float64(1.0) / 3.0, True, 7),
    ("plain", None, 1e-300, np.float64(2.5e16), False, -1),
]


def _render(fmt, **kwargs):
    buf = io.StringIO()
    write_report(buf, FIELDS, ROWS, fmt, **kwargs)
    return buf.getvalue()


class TestWriteReport:
    def test_csv_bytes(self):
        assert _render("csv") == (
            "name,none,float,np_float,flag,count\n"
            '"A,B",,0.1,0.3333333333333333,True,7\n'
            "plain,,1e-300,2.5e+16,False,-1\n"
        )

    def test_csv_meta_and_footer(self):
        text = _render("csv", meta={"seed": 3, "version": "x"}, footer={"kept": 2, "note": "a b"})
        assert text == (
            "# seed=3\n"
            "# version=x\n"
            "name,none,float,np_float,flag,count\n"
            '"A,B",,0.1,0.3333333333333333,True,7\n'
            "plain,,1e-300,2.5e+16,False,-1\n"
            "# kept=2\n"
            "# note=a b\n"
        )

    def test_json_bytes_with_meta(self):
        text = _render("json", meta={"seed": 3})
        assert text == (
            "[\n"
            '  {\n    "_meta": {\n      "seed": 3\n    }\n  },\n'
            '  {\n    "name": "A,B",\n    "none": null,\n    "float": 0.1,\n'
            '    "np_float": 0.3333333333333333,\n    "flag": true,\n    "count": 7\n  },\n'
            '  {\n    "name": "plain",\n    "none": null,\n    "float": 1e-300,\n'
            '    "np_float": 2.5e+16,\n    "flag": false,\n    "count": -1\n  }\n'
            "]\n"
        )

    def test_json_without_meta_is_rows_only(self):
        assert _render("json").startswith('[\n  {\n    "name": "A,B",')

    def test_path_destination_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "r.csv"
        write_report(target, ["x"], [(1.5,)])
        assert target.read_bytes() == b"x\n1.5\n"

    def test_unknown_format_writes_nothing(self, tmp_path):
        with pytest.raises(ParameterError):
            write_report(tmp_path / "r.xml", ["x"], [(1,)], fmt="xml")
        assert not (tmp_path / "r.xml").exists()


def test_returns_csv_bytes_with_tickers(tmp_path):
    sample = ReturnSample(rho=np.array([2.5, 0.1 + 0.2]), tickers=("A,B", "C"))
    write_returns_csv(sample, tmp_path / "returns.csv")
    assert (tmp_path / "returns.csv").read_bytes() == b'ticker,rho\n"A,B",2.5\nC,0.30000000000000004\n'


def test_closed_form_model_report_bytes(tmp_path):
    argv = ["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "model.csv").read_text(encoding="utf-8") == (
        f"# version={__version__}\n"
        "mu_d,sigma_d,sigma,horizon,mu_m,sigma_m,mean_over_median,mean_over_mode,"
        "mc_mean_over_median,mc_ci_low,mc_ci_high,mc_stderr\n"
        "0.12,0.03,0.1,16.0,1.8399999999999999,0.6248199740725324,"
        "1.215554072994869,1.7960683033942908,,,,\n"
    )


def _return_panel(path, rhos, bom=False):
    lines = ["ticker,date,adj_close"]
    for i, rho in enumerate(rhos):
        lines += [f"T{i:03d},{day},{px!r}" for day, px in
                  (("2006-01-02", 1.0), ("2014-01-02", rho ** 0.5), ("2021-12-30", rho))]
    path.write_text(("\ufeff" if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_small_index_skips_only_its_qq_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    big = _return_panel(tmp_path / "big.csv", rng.lognormal(0.5, 0.8, 40).tolist())
    small = _return_panel(tmp_path / "small.csv", rng.lognormal(0.5, 0.8, 8).tolist())
    out = tmp_path / "out"
    argv = ["analyze", "--input", str(big), "--input", str(small), "--qq", "--out", str(out)]
    assert main(argv) == 3
    assert "analyze: small: qq skipped: " in capsys.readouterr().err
    for report in ("summary.csv", "lognormal_fit.csv"):
        names = [line.split(",")[0] for line in (out / report).read_text().splitlines()[1:]]
        assert names == ["big", "small"]
    assert (out / "qq_big.csv").exists()
    assert not (out / "qq_small.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "{panel}"],
        ["gbm", "--input", "{panel}"],
        ["regime", "--mu", "0.5", "--sigma", "1.0"],
        ["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    rng = np.random.default_rng(8)
    panel = _return_panel(tmp_path / "p.csv", rng.lognormal(0.5, 0.8, 20).tolist())
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = [arg.format(panel=panel) for arg in argv]
    assert main(argv + ["--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and "Not a directory" in err


def test_bom_price_file_loads_like_plain(tmp_path):
    rhos = [1.5, 0.7, 2.25, 1.1]
    plain = load_panel(_return_panel(tmp_path / "plain.csv", rhos))
    with_bom = load_panel(_return_panel(tmp_path / "bom.csv", rhos, bom=True))
    assert with_bom.tickers == plain.tickers
    assert with_bom.window == plain.window
    for ticker in plain.tickers:
        for got, want in zip(with_bom.series[ticker], plain.series[ticker]):
            np.testing.assert_array_equal(got, want)


def test_bom_params_file_keeps_index_names(tmp_path):
    params = tmp_path / "params.csv"
    params.write_text("\ufeffindex,mu,sigma\nalpha,0.5,1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["regime", "--params-file", str(params), "--n-grid", "1,4", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["curve_alpha.csv"]


# Report bytes that depend on the kernel density mode (its binned smoothing and
# bounded refine) and on the log-normal quantile, pinned so that a rewrite of
# either keeps every bit.

def _kde_panels(tmp_path):
    return [
        _return_panel(tmp_path / "alpha.csv", np.random.default_rng(0).lognormal(0.5, 0.8, 12).tolist()),
        _return_panel(tmp_path / "beta.csv", np.random.default_rng(2).lognormal(0.5, 0.8, 16).tolist()),
    ]


def test_analyze_mode_columns_are_pinned(tmp_path):
    argv = ["analyze", "--out", str(tmp_path / "out")]
    for panel in _kde_panels(tmp_path):
        argv += ["--input", str(panel)]
    assert main(argv) == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()]
    header = rows[0]
    picked = [(row[0], row[header.index("mode")], row[header.index("mean_over_mode")]) for row in rows[1:]]
    assert picked == [
        ("alpha", "0.9962465205743245", "1.9713850513374047"),
        ("beta", "1.0294328329394917", "2.0569882692663497"),
    ]


def test_analyze_qq_report_bytes(tmp_path):
    alpha = _kde_panels(tmp_path)[0]
    assert main(["analyze", "--input", str(alpha), "--qq", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "qq_alpha.csv").read_text(encoding="utf-8") == (
        "theoretical_quantile,empirical_quantile\n"
        "-0.4578587842196425,-0.5123371768368421\n"
        "-0.13038091584991443,-0.06298818864559413\n"
        "0.06010205066470201,0.001380429970118227\n"
        "0.20865222407629752,0.07146450147111114\n"
        "0.3381544150783511,0.3943161093669585\n"
        "0.45871245467262967,0.5330607834777948\n"
        "0.5766008287091048,0.5839200937224318\n"
        "0.6971588683033836,0.6005841768747148\n"
        "0.8266610593054372,0.7892760439275879\n"
        "0.9752112327170326,1.0123381203546256\n"
        "1.165694199231649,1.2576647705033936\n"
        "1.493172067601377,1.5432000361041098\n"
    )


def test_monte_carlo_regime_report_bytes(tmp_path):
    argv = ["regime", "--mu", "0.5", "--sigma", "1.0", "--reps", "10000", "--n-grid", "1,4,16",
            "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "curve_inline.csv").read_text(encoding="utf-8") == (
        "# seed=3\n"
        "# reps=10000\n"
        f"# version={__version__}\n"
        "n,ratio_analytic,ratio_mc,mc_stderr\n"
        "1,0.22313016014842985,0.21900786345691142,0.020771941083489065\n"
        "4,0.5850482074411315,0.5655835373281712,0.028976606277364567\n"
        "16,0.8581190948509415,0.8347049144367115,0.013690470918164594\n"
    )


def test_simulated_model_report_bytes(tmp_path):
    argv = ["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16",
            "--simulate", "20000", "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "model.csv").read_text(encoding="utf-8") == (
        "# seed=4\n"
        "# reps=20000\n"
        f"# version={__version__}\n"
        "mu_d,sigma_d,sigma,horizon,mu_m,sigma_m,mean_over_median,mean_over_mode,"
        "mc_mean_over_median,mc_ci_low,mc_ci_high,mc_stderr\n"
        "0.12,0.03,0.1,16.0,1.8399999999999999,0.6248199740725324,1.215554072994869,"
        "1.7960683033942908,1.2153445971145647,1.2040202533036048,1.2279669758293381,"
        "0.004873210167441456\n"
    )
