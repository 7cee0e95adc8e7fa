"""Command-line driver wiring the analysis modules into reproducible runs.

Subcommands: ``analyze`` (total-return table plus log-normal fit),
``regime`` (typical-mean ratio curves), ``gbm`` (drift/volatility panel)
and ``model`` (distributed-drift closed forms with optional simulation).
Each option is declared once, in ``OPTIONS``, and takes the first value set
by its flag or by the ``[<command>]``, ``[common]`` or ``[DEFAULT]`` section
of an INI config file.  Every stochastic report embeds seed, reps and
library version in a header comment record, and reruns with identical
config and seed are byte-identical.  ``gbm``, ``index_model`` and
``lognormal_sum`` are the package's lazy modules: each runs on first use, in
the one command that uses it, so a launch runs only its command's modules.

Exit codes: 0 success, 2 input or parameter error, 3 partial fit failure
(partial results are still written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime as dt
import gc
import re
import sys
from pathlib import Path

from . import __version__, gbm, index_model, lognormal_sum
from .distributions import LogNormalParams
from .empirical import (
    KDE_MIN_POINTS,
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
from .errors import BigWinnersError, DataError, InsufficientDataError, ParameterError

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_FIT_FAILURE = 3


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

def _non_negative_int(text) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expected 1/yes/true/on or 0/no/false/off, got {text!r}") from None


def _parse_window(text: str) -> tuple[dt.date, dt.date]:
    try:
        start_s, end_s = text.split(":")
        start = dt.date.fromisoformat(start_s.strip())
        end = dt.date.fromisoformat(end_s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; expected START:END ISO dates") from None
    if end <= start:
        raise argparse.ArgumentTypeError(f"window end must follow start, got {text!r}")
    return start, end


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}; expected comma-separated integers") from None
    if not grid:
        raise argparse.ArgumentTypeError("n-grid must be nonempty")
    return grid


def _parse_inputs(text: str) -> list[str]:
    """A config value's comma-separated paths; each ``--input`` flag is one path."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _choice(*choices: str):
    def choice(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    choice.metavar = "{" + ",".join(choices) + "}"
    return choice


# Every option once: config key -> (converter, default, help).  The flag is the
# key with dashes and its value goes through the same converter as a config value.
_SHARED = {
    "out": (Path, Path("."), "output directory"),
    "format": (_choice("csv", "json"), "csv", "report format"),
}
_SEED = {"seed": (_non_negative_int, None, "root seed for stochastic commands")}
OPTIONS = {
    "analyze": {
        **_SHARED,
        "input": (_parse_inputs, None, "price CSV (ticker,date,adj_close); repeat for several indexes"),
        "window": (_parse_window, None, "START:END ISO dates"),
        "tail_threshold": (float, TAIL_THRESHOLD_LOG, "ln-rho cutoff for the left-tail filter"),
        "qq": (_parse_bool, False, "also write QQ pairs per index"),
    },
    "regime": {
        **_SHARED, **_SEED,
        "mu": (float, None, "log-normal location"),
        "sigma": (float, None, "log-normal shape"),
        "params_file": (str, None, "CSV with index,mu,sigma columns (analyze fit output)"),
        "n_grid": (_parse_grid, [2 ** k for k in range(11)], "comma-separated portfolio sizes"),
        "reps": (_non_negative_int, 0, "Monte Carlo replications (0 = analytic only)"),
    },
    "gbm": {
        **_SHARED,
        "input": (str, None, "price CSV (ticker,date,adj_close)"),
        "dt": (float, 1.0, "step size in years"),
        "estimator": (_choice("endpoint", "mle"), "endpoint", "variance estimator variant"),
    },
    "model": {
        **_SHARED, **_SEED,
        "mu_d": (float, None, "mean drift per year"),
        "sigma_d": (float, None, "drift dispersion"),
        "sigma": (float, None, "common volatility"),
        "horizon": (float, None, "horizon in years"),
        "simulate": (_non_negative_int, 0, "verify by simulating this many stocks"),
        "export_sample": (_parse_bool, False, "also write the simulated returns as sample.csv"),
    },
}


def _load_config(path: str | None) -> configparser.ConfigParser:
    """The config file at ``path``, read with no default section so ``[DEFAULT]`` is
    a plain section.  Every key names an option: of its command in ``[<command>]``,
    of any command in ``[common]`` and ``[DEFAULT]``."""
    config = configparser.ConfigParser(default_section="")
    if path:
        if not Path(path).is_file():
            raise DataError(f"config file not found: {path}")
        try:
            config.read(path, encoding="utf-8-sig")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file {path}: {' '.join(str(exc).split())}") from None
    every = {key for options in OPTIONS.values() for key in options}
    for section in config.sections():
        known = OPTIONS.get(section, every if section in ("common", "DEFAULT") else None)
        if known is None:
            raise ParameterError(f"config [{section}]: unknown section")
        for key in config[section]:
            if key not in known:
                raise ParameterError(f"config [{section}] {key}: unknown key")
    return config


def _resolve(args: argparse.Namespace, config: configparser.ConfigParser) -> argparse.Namespace:
    """Every option of the command: its flag, else the first of its ``[<command>]``,
    ``[common]`` and ``[DEFAULT]`` config values, else its default.  A bad config
    value raises ParameterError naming its section and key."""
    for key, (convert, default, _) in OPTIONS[args.command].items():
        if getattr(args, key) is not None:
            continue
        setattr(args, key, default)
        for section in (args.command, "common", "DEFAULT"):
            if config.has_option(section, key):
                try:
                    setattr(args, key, convert(config.get(section, key)))
                except (argparse.ArgumentTypeError, ValueError, configparser.Error) as exc:
                    raise ParameterError(f"config [{section}] {key}: {exc}") from None
                break
    return args


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
_CURVE_FIELDS = ["n", "ratio_analytic", "ratio_mc", "mc_stderr"]


def _report_names(names: list[str]) -> list[str]:
    """``names``, once each is checked to be a plain file name used once: reports are named after them."""
    seen = set()
    for name in names:
        if Path(name).name != name or name in seen:
            raise DataError(f"report name {name!r} must be a plain file name, used once")
        seen.add(name)
    return names


def cmd_analyze(args) -> int:
    """total-return table and log-normal fit"""
    if not args.input:
        raise ParameterError("at least one --input price file is required")
    names = _report_names([Path(source).stem for source in args.input])
    out_dir, fmt = args.out, args.format

    summary_rows: list[tuple] = []
    fit_rows: list[tuple] = []
    exit_code = EXIT_OK
    for source, name in zip(args.input, names):
        try:
            panel = load_panel(source)
            sample = total_returns(panel, window=args.window)
            summary = summarize_index(sample)
        except (DataError, InsufficientDataError, ParameterError, OSError) as exc:
            print(f"analyze: {name}: {exc}", file=sys.stderr)
            exit_code = EXIT_INPUT_ERROR
            continue
        summary_rows.append((name, *dataclasses.astuple(summary)))

        filtered = tail_filter(sample, threshold_log=args.tail_threshold)
        try:
            params, moments = fit_macroscopic(filtered)
        except InsufficientDataError as exc:
            print(f"analyze: {name}: fit failure: {exc}", file=sys.stderr)
            exit_code = EXIT_FIT_FAILURE if exit_code == EXIT_OK else exit_code
            continue
        except ParameterError as exc:  # e.g. a fitted mean that overflows a float
            print(f"analyze: {name}: {exc}", file=sys.stderr)
            exit_code = EXIT_INPUT_ERROR
            continue
        central = (moments.mean, moments.median, moments.mode) if moments else (None, None, None)
        c = moments.coeff_variation if moments else None
        fit_rows.append(
            (
                name, params.mu, params.sigma, *central, params.sigma_sq, c,
                len(filtered), filtered.removed, params.degenerate,
            )
        )
        if args.qq and not params.degenerate:
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


def _regime_param_sets(args) -> list[tuple[str, LogNormalParams]]:
    if path := args.params_file:
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                rows = [r for r in csv.DictReader(fh) if not (r.get("index") or "").startswith("#")]
        except UnicodeDecodeError as exc:
            raise DataError(f"params file {path}: {exc}") from None
        if not rows or "mu" not in rows[0] or "sigma" not in rows[0]:
            raise DataError(f"params file {path} needs index,mu,sigma columns")
        names = _report_names([row.get("index") or f"row{i}" for i, row in enumerate(rows)])
        sets = []
        for name, row in zip(names, rows):
            if None in (row["mu"], row["sigma"]):
                raise DataError(f"params file {path}: row {name!r} has no mu or sigma")
            if None in row:  # csv.DictReader files the fields past the header under the key None
                raise DataError(f"params file {path}: row {name!r}: more fields than the header")
            try:
                sets.append((name, LogNormalParams(mu=float(row["mu"]), sigma=float(row["sigma"]))))
            except ValueError as exc:
                raise DataError(f"params file {path}: row {name!r}: {exc}") from None
        return sets
    if args.mu is not None and args.sigma is not None:
        return [("inline", LogNormalParams(mu=args.mu, sigma=args.sigma))]
    raise ParameterError("provide --mu and --sigma, or --params-file with index,mu,sigma")


def cmd_regime(args) -> int:
    """typical-mean ratio curves"""
    sets = _regime_param_sets(args)
    reps, seed, fmt = args.reps, args.seed, args.format
    if reps > 0 and seed is None:
        raise ParameterError("--seed is required when reps > 0")
    meta = {"seed": seed, "reps": reps, "version": __version__} if reps > 0 else {"version": __version__}
    for name, params in sorted(sets, key=lambda item: item[0]):
        try:
            points = lognormal_sum.regime_curve(params, args.n_grid, reps=reps, seed=seed)
        except ParameterError as exc:
            raise ParameterError(f"{name}: {exc}") from None
        rows = [dataclasses.astuple(point) for point in points]
        write_report(args.out / f"curve_{name}.{fmt}", _CURVE_FIELDS, rows, fmt, meta=meta)
    return EXIT_OK


_ESTIMATE_FIELDS = ["ticker", "mu_hat", "sigma_hat", "sigma_sq_raw", "clamped"]


def cmd_gbm(args) -> int:
    """drift/volatility panel analysis"""
    if not args.input:
        raise ParameterError("an --input price file is required")

    panel = gbm.build_panel(load_panel(args.input), args.dt, args.estimator)
    columns = (panel.mu_hats, panel.sigma_hats, panel.sigma_sq_raw, panel.clamped)
    estimate_rows = zip(panel.tickers, *(column.tolist() for column in columns))
    write_report(args.out / f"estimates.{args.format}", _ESTIMATE_FIELDS, estimate_rows, args.format)
    gbm.write_panel_csv(panel, args.out / "panel.csv")

    for name, message in panel.fit_errors:
        print(f"gbm: fit failure in {name}: {message}", file=sys.stderr)
    return EXIT_FIT_FAILURE if panel.fit_errors else EXIT_OK


_MODEL_FIELDS = [
    "mu_d", "sigma_d", "sigma", "horizon", "mu_m", "sigma_m",
    "mean_over_median", "mean_over_mode",
    "mc_mean_over_median", "mc_ci_low", "mc_ci_high", "mc_stderr",
]


def cmd_model(args) -> int:
    """distributed-drift closed forms"""
    mu_d, sigma_d, sigma, horizon = args.mu_d, args.sigma_d, args.sigma, args.horizon
    if None in (mu_d, sigma_d, sigma, horizon):
        raise ParameterError("--mu-d, --sigma-d, --sigma and --horizon are required")
    if args.simulate > 0 and args.seed is None:
        raise ParameterError("--seed is required with --simulate")
    if args.export_sample and args.simulate == 0:
        raise ParameterError("--export-sample needs --simulate > 0")
    if 0 < args.simulate < KDE_MIN_POINTS:
        raise ParameterError(f"--simulate must be 0 or at least {KDE_MIN_POINTS}, got {args.simulate}")
    params = index_model.DriftModelParams(mu_d=mu_d, sigma_d=sigma_d, sigma=sigma, horizon=horizon)
    implied = index_model.implied_lognormal(params)
    ratios = index_model.model_ratios(params)
    mc_columns = (None, None, None, None)
    meta = {"version": __version__}
    if args.simulate > 0:
        sample = index_model.simulate_index(params, args.simulate, args.seed)
        summary = index_model.sample_ratio_summary(sample, seed=args.seed + 1)
        mc_columns = (summary.mean_over_median, summary.ci_low, summary.ci_high, summary.stderr)
        meta = {"seed": args.seed, "reps": args.simulate, "version": __version__}
        if args.export_sample:
            write_returns_csv(sample, args.out / "sample.csv")
    row = (
        mu_d, sigma_d, sigma, horizon, implied.mu, implied.sigma,
        ratios.mean_over_median, ratios.mean_over_mode, *mc_columns,
    )
    write_report(args.out / f"model.{args.format}", _MODEL_FIELDS, [row], args.format, meta=meta)
    return EXIT_OK


_COMMANDS = {"analyze": cmd_analyze, "regime": cmd_regime, "gbm": cmd_gbm, "model": cmd_model}


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
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        # An argument that reads as a negative number (-1e-3, -.5, -inf) is a flag's
        # value; argparse's own pattern takes only -1 and -1.5 for numbers.
        p._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)
        p.add_argument("--config", help="INI config file; flags override its values")
        for key, (convert, default, text) in options.items():
            flag = "--" + key.replace("_", "-")
            text += f" (default {default})" if default is not None else ""
            if convert is _parse_bool:
                p.add_argument(flag, action="store_const", const=True, help=text)
            elif convert is _parse_inputs:
                p.add_argument(flag, action="append", help=text)
            else:
                p.add_argument(flag, type=convert, metavar=getattr(convert, "metavar", None), help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_resolve(args, _load_config(args.config)))
    except (BigWinnersError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> int:
    """``main`` as a program: the console script and ``python -m bigwinners.cli``.

    Once ``main`` ends, ``gc.freeze()`` moves every tracked object to the
    permanent generation, so the interpreter's cycle collection at exit skips
    the objects the imports made.  Atexit handlers, stream flushing and
    reference-count finalization still run.  ``main`` itself does not freeze:
    tests and tracers call it in process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
