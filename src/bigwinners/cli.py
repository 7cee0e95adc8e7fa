"""Command-line driver wiring the analysis modules into reproducible runs.

Subcommands: ``analyze`` (total-return table plus log-normal fit),
``regime`` (typical-mean ratio curves), ``gbm`` (drift/volatility panel)
and ``model`` (distributed-drift closed forms with optional simulation).
Options may come from a key-value config file (INI sections ``[common]``
plus one per subcommand); command-line flags override file values.  Every
stochastic report embeds seed, reps and library version in a header
comment record, and reruns with identical config and seed are
byte-identical.

Exit codes: 0 success, 2 input or parameter error, 3 partial fit failure
(partial results are still written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as dt
import sys
from pathlib import Path

from . import __version__
from .distributions import LogNormalParams
from .empirical import (
    TAIL_THRESHOLD_LOG,
    fit_macroscopic,
    load_panel,
    qq_data,
    summarize_index,
    tail_filter,
    total_returns,
    write_report,
    write_returns_csv,
)
from .errors import (
    BigWinnersError,
    DataError,
    FitFailureError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)
from .gbm import PricePath, build_panel, write_panel_csv
from .index_model import DriftModelParams, implied_lognormal, model_ratios, sample_ratio_summary, simulate_index
from .lognormal_sum import CURVE_FIELDS, NARROW_MAX_SIGMA_SQ, VERY_BROAD_MIN_SIGMA_SQ, curve_rows, regime_curve

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_FIT_FAILURE = 3

DEFAULT_N_GRID = [2 ** k for k in range(11)]  # 1 .. 1024


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        if not Path(path).is_file():
            raise DataError(f"config file not found: {path}")
        parser.read(path)
    return parser


def _merged(args: argparse.Namespace, config: configparser.ConfigParser, key: str, convert, default):
    """CLI flag > command section > [common] section > built-in default.

    A config value that ``convert`` rejects raises ParameterError naming its section and key."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    for section in (args.command, "common"):
        if config.has_option(section, key):
            raw = config.get(section, key)
            if convert is None:
                return raw
            try:
                return convert(raw)
            except ValueError as exc:
                raise ParameterError(f"config [{section}] {key}: {exc}") from None
    return default


def _flag(convert):
    """``convert`` as an argparse ``type=`` that prints its ParameterError text
    (argparse prints only the converter's name for a ValueError)."""

    def flag(text):
        try:
            return convert(text)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag


def _non_negative_int(text) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ParameterError(f"expected a non-negative integer, got {text!r}")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ParameterError(f"expected 1/yes/true/on or 0/no/false/off, got {text!r}") from None


def _parse_window(text: str) -> tuple[dt.date, dt.date]:
    try:
        start_s, end_s = text.split(":")
        start = dt.date.fromisoformat(start_s.strip())
        end = dt.date.fromisoformat(end_s.strip())
    except ValueError:
        raise ParameterError(f"bad window {text!r}; expected START:END ISO dates") from None
    if end <= start:
        raise ParameterError(f"window end must follow start, got {text!r}")
    return start, end


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise ParameterError(f"bad n-grid {text!r}; expected comma-separated integers") from None
    if not grid:
        raise ParameterError("n-grid must be nonempty")
    return grid


def _parse_inputs(value) -> list[str]:
    if isinstance(value, list):
        return value
    return [part.strip() for part in str(value).split(",") if part.strip()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SUMMARY_FIELDS = [
    "index", "n", "top5_pct", "top10_pct", "top25_pct",
    "mean", "median", "mode", "mean_over_median", "mean_over_mode", "mode_note",
]
_FIT_FIELDS = [
    "index", "mu", "sigma", "mean", "median", "mode", "sigma_sq", "c",
    "n_used", "n_removed", "degenerate",
]
_QQ_FIELDS = ["theoretical_quantile", "empirical_quantile"]


def cmd_analyze(args, config) -> int:
    inputs = _merged(args, config, "input", _parse_inputs, None)
    if not inputs:
        print("analyze: at least one --input price file is required", file=sys.stderr)
        return EXIT_INPUT_ERROR
    window = _merged(args, config, "window", _parse_window, None)
    threshold = _merged(args, config, "tail_threshold", float, TAIL_THRESHOLD_LOG)
    bandwidth = _merged(args, config, "bandwidth_factor", float, 1.0)
    out_dir = Path(_merged(args, config, "out", None, "."))
    fmt = _merged(args, config, "format", None, "csv")
    want_qq = _merged(args, config, "qq", _parse_bool, False)

    summary_rows: list[tuple] = []
    fit_rows: list[tuple] = []
    exit_code = EXIT_OK
    for source in inputs:
        name = Path(source).stem
        try:
            panel = load_panel(source)
            sample = total_returns(panel, window=window)
            summary = summarize_index(sample, bandwidth_factor=bandwidth)
        except (ParseError, DataError, InsufficientDataError, ParameterError, OSError) as exc:
            print(f"analyze: {name}: {exc}", file=sys.stderr)
            exit_code = EXIT_INPUT_ERROR
            continue
        summary_rows.append(
            (
                name, summary.n, summary.top5, summary.top10, summary.top25,
                summary.mean, summary.median, summary.mode,
                summary.mean_over_median, summary.mean_over_mode, summary.mode_note,
            )
        )

        try:
            filtered = tail_filter(sample, threshold_log=threshold)
            params, moments, c = fit_macroscopic(filtered)
        except (FitFailureError, InsufficientDataError) as exc:
            print(f"analyze: {name}: fit failure: {exc}", file=sys.stderr)
            exit_code = EXIT_FIT_FAILURE if exit_code == EXIT_OK else exit_code
            continue
        central = (moments.mean, moments.median, moments.mode) if moments else (None, None, None)
        fit_rows.append(
            (
                name, params.mu, params.sigma, *central, params.sigma_sq, c,
                len(filtered), filtered.removed, params.degenerate,
            )
        )
        if want_qq and not params.degenerate:
            try:
                pairs = qq_data(filtered, params)
            except InsufficientDataError as exc:
                print(f"analyze: {name}: qq skipped: {exc}", file=sys.stderr)
                exit_code = EXIT_FIT_FAILURE if exit_code == EXIT_OK else exit_code
            else:
                write_report(out_dir / f"qq_{name}.{fmt}", _QQ_FIELDS, pairs.tolist(), fmt)

    write_report(out_dir / f"summary.{fmt}", _SUMMARY_FIELDS, summary_rows, fmt)
    write_report(out_dir / f"lognormal_fit.{fmt}", _FIT_FIELDS, fit_rows, fmt)
    return exit_code


def _regime_param_sets(args, config) -> list[tuple[str, LogNormalParams]]:
    params_file = _merged(args, config, "params_file", None, None)
    mu = _merged(args, config, "mu", float, None)
    sigma = _merged(args, config, "sigma", float, None)
    sets: list[tuple[str, LogNormalParams]] = []
    if params_file:
        with open(params_file, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.DictReader(fh) if not r.get("index", "").startswith("#")]
        if not rows or "mu" not in rows[0] or "sigma" not in rows[0]:
            raise DataError(f"params file {params_file} needs index,mu,sigma columns")
        for row in rows:
            sets.append(
                (
                    row.get("index") or f"row{len(sets)}",
                    LogNormalParams(mu=float(row["mu"]), sigma=float(row["sigma"])),
                )
            )
    elif mu is not None and sigma is not None:
        sets.append(("inline", LogNormalParams(mu=mu, sigma=sigma)))
    return sets


def cmd_regime(args, config) -> int:
    try:
        sets = _regime_param_sets(args, config)
    except (ValueError, DataError, OSError) as exc:
        print(f"regime: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not sets:
        print(
            "regime: provide --mu and --sigma, or --params-file with index,mu,sigma",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR

    grid = _merged(args, config, "n_grid", _parse_grid, DEFAULT_N_GRID)
    reps = _merged(args, config, "reps", _non_negative_int, 0)
    seed = _merged(args, config, "seed", _non_negative_int, None)
    narrow_max = _merged(args, config, "narrow_max", float, NARROW_MAX_SIGMA_SQ)
    very_broad_min = _merged(args, config, "very_broad_min", float, VERY_BROAD_MIN_SIGMA_SQ)
    out_dir = Path(_merged(args, config, "out", None, "."))
    fmt = _merged(args, config, "format", None, "csv")
    if reps > 0 and seed is None:
        print("regime: --seed is required when reps > 0", file=sys.stderr)
        return EXIT_INPUT_ERROR

    meta = {"seed": seed, "reps": reps, "version": __version__} if reps > 0 else {"version": __version__}
    for name, params in sorted(sets, key=lambda item: item[0]):
        try:
            curve = regime_curve(
                params,
                grid,
                reps=reps,
                seed=seed,
                narrow_max=narrow_max,
                very_broad_min=very_broad_min,
            )
        except ParameterError as exc:
            print(f"regime: {name}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        write_report(out_dir / f"curve_{name}.{fmt}", CURVE_FIELDS, curve_rows(curve), fmt, meta=meta)
    return EXIT_OK


_ESTIMATE_FIELDS = ["ticker", "mu_hat", "sigma_hat", "sigma_sq_raw", "clamped"]


def cmd_gbm(args, config) -> int:
    source = _merged(args, config, "input", None, None)
    if not source:
        print("gbm: an --input price file is required", file=sys.stderr)
        return EXIT_INPUT_ERROR
    dt_years = _merged(args, config, "dt", float, 1.0)
    method = _merged(args, config, "estimator", None, "endpoint")
    min_coverage = _merged(args, config, "min_coverage", float, 0.8)
    out_dir = Path(_merged(args, config, "out", None, "."))
    fmt = _merged(args, config, "format", None, "csv")

    panel_data = load_panel(source)
    paths = {}
    for ticker in panel_data.tickers:
        _, prices = panel_data.series[ticker]
        if prices.size < 2:
            continue
        paths[ticker] = PricePath(x0=float(prices[0]), prices=prices, dt=dt_years)
    panel = build_panel(paths, method=method, min_coverage=min_coverage)

    estimate_rows = [
        (ticker, est.mu_hat, est.sigma_hat, est.sigma_sq_raw, est.clamped)
        for ticker, est in panel.estimates
    ]
    write_report(out_dir / f"estimates.{fmt}", _ESTIMATE_FIELDS, estimate_rows, fmt)
    write_panel_csv(panel, out_dir / "panel.csv")

    if panel.fit_errors:
        for name, message in panel.fit_errors:
            print(f"gbm: fit failure in {name}: {message}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    return EXIT_OK


_MODEL_FIELDS = [
    "mu_d", "sigma_d", "sigma", "horizon", "mu_m", "sigma_m",
    "mean_over_median", "mean_over_mode",
    "mc_mean_over_median", "mc_ci_low", "mc_ci_high", "mc_stderr",
]


def cmd_model(args, config) -> int:
    mu_d = _merged(args, config, "mu_d", float, None)
    sigma_d = _merged(args, config, "sigma_d", float, None)
    sigma = _merged(args, config, "sigma", float, None)
    horizon = _merged(args, config, "horizon", float, None)
    simulate = _merged(args, config, "simulate", _non_negative_int, 0)
    seed = _merged(args, config, "seed", _non_negative_int, None)
    out_dir = Path(_merged(args, config, "out", None, "."))
    fmt = _merged(args, config, "format", None, "csv")

    if None in (mu_d, sigma_d, sigma, horizon):
        print("model: --mu-d, --sigma-d, --sigma and --horizon are required", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if simulate > 0 and seed is None:
        print("model: --seed is required with --simulate", file=sys.stderr)
        return EXIT_INPUT_ERROR
    params = DriftModelParams(mu_d=mu_d, sigma_d=sigma_d, sigma=sigma, horizon=horizon)
    implied = implied_lognormal(params)
    ratios = model_ratios(params)
    mc_columns = (None, None, None, None)
    meta = {"version": __version__}
    if simulate > 0:
        sample = simulate_index(params, simulate, seed)
        summary = sample_ratio_summary(sample, seed=seed + 1)
        mc_columns = (summary.mean_over_median, summary.ci_low, summary.ci_high, summary.stderr)
        meta = {"seed": seed, "reps": simulate, "version": __version__}
        if _merged(args, config, "export_sample", _parse_bool, False):
            write_returns_csv(sample, out_dir / "sample.csv")
    row = (
        mu_d, sigma_d, sigma, horizon, implied.mu_m, implied.sigma_m,
        ratios.mean_over_median, ratios.mean_over_mode, *mc_columns,
    )
    write_report(out_dir / f"model.{fmt}", _MODEL_FIELDS, [row], fmt, meta=meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigwinners",
        description="Impact of extreme-return stocks on index versus concentrated portfolios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
        p.add_argument("--seed", type=_flag(_non_negative_int), help="root seed for stochastic commands")

    p_analyze = sub.add_parser("analyze", help="total-return table and log-normal fit")
    common(p_analyze)
    p_analyze.add_argument("--input", action="append", help="price CSV (ticker,date,adj_close)")
    p_analyze.add_argument("--window", type=_flag(_parse_window), help="START:END ISO dates")
    p_analyze.add_argument("--tail-threshold", dest="tail_threshold", type=float,
                           help="ln-rho cutoff for the left-tail filter (default -2)")
    p_analyze.add_argument("--bandwidth-factor", dest="bandwidth_factor", type=float,
                           help="multiplier on the Scott KDE bandwidth")
    p_analyze.add_argument("--qq", action="store_const", const=True,
                           help="also write QQ pairs per index")

    p_regime = sub.add_parser("regime", help="typical-mean ratio curves")
    common(p_regime)
    p_regime.add_argument("--mu", type=float, help="log-normal location")
    p_regime.add_argument("--sigma", type=float, help="log-normal shape")
    p_regime.add_argument("--params-file", dest="params_file",
                          help="CSV with index,mu,sigma columns (analyze fit output)")
    p_regime.add_argument("--n-grid", dest="n_grid", type=_flag(_parse_grid),
                          help="comma-separated portfolio sizes")
    p_regime.add_argument("--reps", type=_flag(_non_negative_int),
                          help="Monte Carlo replications (0 = analytic only)")
    p_regime.add_argument("--narrow-max", dest="narrow_max", type=float,
                          help="sigma^2 at or below this is the narrow regime (default 0.1)")
    p_regime.add_argument("--very-broad-min", dest="very_broad_min", type=float,
                          help="sigma^2 at or above this is the very broad regime (default 4)")

    p_gbm = sub.add_parser("gbm", help="drift/volatility panel analysis")
    common(p_gbm)
    p_gbm.add_argument("--input", help="price CSV (ticker,date,adj_close)")
    p_gbm.add_argument("--dt", type=float, help="step size in years (default 1.0)")
    p_gbm.add_argument("--estimator", choices=["endpoint", "mle"],
                       help="variance estimator variant (default endpoint)")
    p_gbm.add_argument("--min-coverage", dest="min_coverage", type=float,
                       help="window-coverage fraction below which a path is excluded")

    p_model = sub.add_parser("model", help="distributed-drift closed forms")
    common(p_model)
    p_model.add_argument("--mu-d", dest="mu_d", type=float, help="mean drift per year")
    p_model.add_argument("--sigma-d", dest="sigma_d", type=float, help="drift dispersion")
    p_model.add_argument("--sigma", type=float, help="common volatility")
    p_model.add_argument("--horizon", type=float, help="horizon in years")
    p_model.add_argument("--simulate", type=_flag(_non_negative_int),
                         help="verify by simulating this many stocks")
    p_model.add_argument("--export-sample", dest="export_sample", action="store_const",
                         const=True, help="also write the simulated returns as sample.csv")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "regime": cmd_regime,
    "gbm": cmd_gbm,
    "model": cmd_model,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        return _COMMANDS[args.command](args, config)
    except FitFailureError as exc:
        print(f"{args.command}: fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    except (BigWinnersError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
