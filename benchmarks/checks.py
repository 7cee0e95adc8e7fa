"""Output checks and report-derived counts for the benchmark.

Every check reads only the report files, exit code and stderr of one
command and compares them with what the workload generator knows, so a
failure means the command's output is wrong, not that it was slow.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Regime-curve points from this portfolio size up must match the closed form
# within max(3 SE, 0.03).  Smaller sizes are not checked: at n < 16 the
# regime-II formula is a known red, and at n = 32..64 it sits about 0.012
# above the Monte Carlo mode, so a 0.03 band misses on a few seeds in a
# hundred.  That gap is reported as lognormal_sum.formula_gap_max instead.
MC_CHECK_MIN_N = 128
MC_CHECK_FLOOR = 0.03
# Statistical checks accept this many standard errors.
Z_LAW = 4.0
KDE_UNSTABLE_NOTE = "kernel density mode unstable"
# Report files not written through cli.write_report, by the layer that writes them.
WRITERS = {"sample.csv": "empirical.write_returns_csv", "panel.csv": "gbm.write_panel_csv"}


@dataclass(frozen=True)
class RegimeSpec:
    mu: float
    sigma: float
    reps: int
    seed: int
    grid: tuple[int, ...]


@dataclass(frozen=True)
class ModelSpec:
    mu_d: float
    sigma_d: float
    sigma: float
    horizon: float
    simulate: int
    seed: int


def read_report(path: Path) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CSV report (``# key=value`` lines are meta) or a JSON one."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        payload = json.loads(text)
        meta = payload[0]["_meta"] if payload and "_meta" in payload[0] else {}
        return meta, payload[1:] if meta else payload
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _within(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what} is {got!r}, expected {want!r} +/- {tol:.3g}")


def _exit(rc: int, err: str, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}: {err.strip()[:200]}"]


def check_analyze(rc, err, out, panel, fmt="csv", qq=False) -> list[str]:
    problems = _exit(rc, err)
    if problems:
        return problems
    summary = read_report(out / f"summary.{fmt}")[1]
    fit = read_report(out / f"lognormal_fit.{fmt}")[1]
    if len(summary) != 1 or len(fit) != 1:
        return [f"expected one summary and one fit row, got {len(summary)} and {len(fit)}"]
    _expect(problems, "summary n", int(summary[0]["n"]), panel.full)
    _expect(problems, "fit n_used", int(fit[0]["n_used"]), panel.n_used)
    _expect(problems, "fit n_removed", int(fit[0]["n_removed"]), panel.full - panel.n_used)
    _within(problems, "fitted mu", float(fit[0]["mu"]), panel.fit_mu, Z_LAW * panel.fit_mu_se)
    _within(problems, "fitted sigma", float(fit[0]["sigma"]), panel.fit_sigma,
            Z_LAW * panel.fit_sigma_se)
    if qq:
        qq_rows = read_report(out / f"qq_{panel.spec.name}.{fmt}")[1]
        _expect(problems, "qq rows", len(qq_rows), panel.n_used)
    return problems


def check_gbm(rc, err, out, panel, fmt="csv") -> list[str]:
    problems = _exit(rc, err)
    if problems:
        return problems
    footer, rows = read_report(out / "panel.csv")
    _expect(problems, "tickers_used", int(footer.get("tickers_used", -1)), panel.full)
    _expect(problems, "excluded_delisted", int(footer.get("excluded_delisted", -1)), panel.delisted)
    _expect(problems, "fit errors", sorted(k for k in footer if k.startswith("fit_error_")), [])
    _within(problems, "sigma_mean", float(rows[0]["sigma_mean"]), panel.sigma_mean,
            Z_LAW * panel.sigma_mean_se)
    estimates = read_report(out / f"estimates.{fmt}")[1]
    _expect(problems, "estimate rows", len(estimates), panel.full)
    clamped = sum(str(row["clamped"]) == "True" for row in estimates)
    _expect(problems, "clamped estimates", clamped, int(footer.get("clamped_estimates", -1)))
    return problems


def check_reject(rc, err, out, panel) -> list[str]:
    problems = _exit(rc, err, want=2)
    if f"line {panel.bad_line}:" not in err:
        problems.append(f"stderr does not name line {panel.bad_line}: {err.strip()[:200]!r}")
    return problems


def moderate_ratio(sigma: float, n: int) -> float:
    """Regime-II typical-mean ratio (1 + (e^{s^2} - 1)/n)^(-3/2)."""
    return (1.0 + math.expm1(sigma * sigma) / n) ** -1.5


def check_regime(rc, err, out, spec: RegimeSpec) -> list[str]:
    problems = _exit(rc, err)
    if problems:
        return problems
    meta, rows = read_report(out / "curve_inline.csv")
    _expect(problems, "seed", meta.get("seed"), str(spec.seed))
    _expect(problems, "reps", meta.get("reps"), str(spec.reps))
    _expect(problems, "n grid", tuple(int(r["n"]) for r in rows), spec.grid)
    for row in rows:
        n = int(row["n"])
        analytic = float(row["ratio_analytic"])
        _within(problems, f"ratio_analytic at n={n}", analytic, moderate_ratio(spec.sigma, n),
                1e-12)
        if n >= MC_CHECK_MIN_N:
            tol = max(3.0 * float(row["mc_stderr"]), MC_CHECK_FLOOR)
            _within(problems, f"ratio_mc at n={n}", float(row["ratio_mc"]), analytic, tol)
    return problems


def check_model(rc, err, out, spec: ModelSpec) -> list[str]:
    problems = _exit(rc, err)
    if problems:
        return problems
    meta, rows = read_report(out / "model.csv")
    row = rows[0]
    t = spec.horizon
    mu_m = spec.mu_d * t - 0.5 * spec.sigma**2 * t
    sigma_m = math.sqrt(spec.sigma**2 * t + spec.sigma_d**2 * t * t)
    ratio = math.exp(0.5 * sigma_m * sigma_m)
    _expect(problems, "seed", meta.get("seed"), str(spec.seed))
    for key, want in (("mu_m", mu_m), ("sigma_m", sigma_m), ("mean_over_median", ratio),
                      ("mean_over_mode", ratio**3)):
        _within(problems, key, float(row[key]), want, 1e-12 * abs(want))
    _within(problems, "mc_mean_over_median", float(row["mc_mean_over_median"]), ratio,
            Z_LAW * float(row["mc_stderr"]))
    sample_rows = read_report(out / "sample.csv")[1]
    _expect(problems, "sample rows", len(sample_rows), spec.simulate)
    return problems


def report_counts(out: Path) -> dict[str, float]:
    """Layer counts read from one command's report files."""
    counts: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    for path in sorted(out.iterdir()):
        meta, rows = read_report(path)
        layer = WRITERS.get(path.name, "cli.write_report")
        add(f"{layer}.rows", len(rows))
        add(f"{layer}.bytes", path.stat().st_size)
        if path.name == "panel.csv":
            add("gbm.clamped_estimates", int(meta.get("clamped_estimates", 0)))
            add("gbm.fit_errors", sum(k.startswith("fit_error_") for k in meta))
        elif path.stem == "summary":
            add("empirical.kde_unstable_notes", sum(r["mode_note"] == KDE_UNSTABLE_NOTE for r in rows))
        elif path.stem == "lognormal_fit":
            add("empirical.tickers_kept", sum(int(r["n_used"]) for r in rows))
        elif path.stem.startswith("curve_"):
            reps = int(meta.get("reps", 0))
            add("lognormal_sum.draws", sum(int(r["n"]) * reps for r in rows))
            gaps = [abs(float(r["ratio_mc"]) - float(r["ratio_analytic"]))
                    for r in rows if r["ratio_mc"] and int(r["n"]) >= 16]
            counts["lognormal_sum.formula_gap_max"] = max(gaps, default=0.0)
    return counts
