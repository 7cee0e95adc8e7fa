"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not calibrated at runtime.

The typical-mean curve criterion judges the Monte Carlo mode against the
exact mode of the N-stock average (``exact_typical_mean_ratio``).  The
regime-II closed form is gated against that exact mode only for n >= 16:
it is a moment match that misses the exact mode by up to 0.07 at n <= 8,
and its signed error there is printed, not asserted.
"""

import datetime as dt
import math
import time

import numpy as np
import pytest

from bigwinners.distributions import (
    AsymmetricLaplaceParams,
    LogNormalParams,
    fit_asymmetric_laplace,
    fit_gamma,
    fit_lognormal,
    lognormal_moments,
    sample,
)
from bigwinners.empirical import ReturnSample, load_panel, summarize_index, tail_filter, total_returns
from bigwinners.gbm import GBMParams, estimate_gbm, simulate_gbm
from bigwinners.index_model import DriftModelParams, model_ratios, simulate_index
from bigwinners.lognormal_sum import (
    MODERATELY_BROAD,
    exact_typical_mean_ratio,
    mc_typical_mean,
    regime_formula_values,
    typical_mean_ratio,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)


# index, mu, sigma, mean, median, mode, C — the macroscopic fit table.
REFERENCE_FITS = (
    ("SPX", 0.95, 1.02, 4.37, 2.60, 0.92, 1.35),
    ("CCMP", 0.41, 1.10, 2.78, 1.51, 0.45, 1.54),
    ("RIY", 0.91, 1.01, 4.16, 2.49, 0.89, 1.34),
    ("RTY", 0.59, 1.07, 3.19, 1.80, 0.58, 1.46),
    ("RAY", 0.70, 1.06, 3.53, 2.01, 0.66, 1.44),
    ("RLV", 0.84, 0.93, 3.59, 2.32, 0.97, 1.18),
    ("RLG", 0.98, 1.05, 4.64, 2.67, 0.88, 1.43),
    ("NBI", 0.60, 1.27, 4.05, 1.81, 0.36, 1.99),
    ("S5COND", 0.98, 1.15, 5.18, 2.67, 0.71, 1.66),
    ("S5CONS", 1.17, 0.90, 4.82, 3.22, 1.44, 1.11),
    ("S5ENRS", 0.23, 0.62, 1.52, 1.26, 0.86, 0.68),
    ("S5FINL", 0.60, 0.99, 2.95, 1.81, 0.69, 1.28),
    ("S5HLTH", 1.10, 0.84, 4.29, 3.01, 1.48, 1.02),
    ("S5INFT", 0.93, 1.15, 4.94, 2.54, 0.67, 1.67),
    ("S5MATR", 1.07, 0.74, 3.85, 2.92, 1.68, 0.86),
    ("S5TELS", 0.39, 0.71, 1.90, 1.48, 0.89, 0.81),
    ("S5UTIL", 1.00, 0.73, 3.56, 2.73, 1.61, 0.83),
    ("S5INDU", 1.46, 0.99, 6.97, 4.29, 1.63, 1.28),
    ("DAX", 0.84, 0.89, 3.45, 2.31, 1.04, 1.11),
    ("CAC", 0.76, 0.97, 3.43, 2.15, 0.84, 1.25),
    ("UKX", 0.72, 0.83, 2.90, 2.05, 1.02, 1.00),
    ("BEL20", 0.65, 0.84, 2.72, 1.91, 0.94, 1.02),
    ("IBEX", 0.30, 0.97, 2.14, 1.35, 0.53, 1.24),
    ("KFX", 1.61, 0.94, 7.77, 4.98, 2.05, 1.20),
    ("OMX", 1.56, 0.76, 6.32, 4.75, 2.68, 0.88),
    ("SMI", 0.59, 1.10, 3.29, 1.80, 0.54, 1.53),
    ("AS51", 0.57, 1.00, 2.90, 1.77, 0.66, 1.30),
    ("NKY", 0.21, 0.87, 1.79, 1.23, 0.58, 1.06),
    ("TPX", 0.11, 0.86, 1.63, 1.12, 0.53, 1.05),
    ("IBOV", 1.05, 0.89, 4.22, 2.85, 1.30, 1.09),
    ("NIFTY", 1.65, 1.23, 11.12, 5.22, 1.15, 1.88),
    ("MXIN", 1.88, 1.12, 12.21, 6.54, 1.88, 1.58),
    ("SHCOMP", 1.47, 1.00, 7.17, 4.33, 1.59, 1.32),
    ("SHSZ300", 1.34, 0.93, 5.92, 3.83, 1.60, 1.18),
)


def test_c1_closed_form_moments_reproduce_reference_rows():
    """Closed forms reproduce the reference rows' mean/median/mode/C columns.

    The reference rows carry inputs rounded to 2 decimals, so the mean
    column (the most rounding-sensitive, d(mean) ~ mean*(dmu + sigma*dsigma))
    gets the first-order propagation bound where it exceeds 0.05; every
    other column must hold plain +-0.05, and at least 32 of the 34 rows
    must hold +-0.05 on all four columns.
    """
    t0 = time.perf_counter()
    plain_pass = 0
    failures = []
    for name, mu, sigma, t_mean, t_median, t_mode, t_c in REFERENCE_FITS:
        m = lognormal_moments(LogNormalParams(mu, sigma))
        devs = (
            abs(m.mean - t_mean),
            abs(m.median - t_median),
            abs(m.mode - t_mode),
            abs(m.coeff_variation - t_c),
        )
        if max(devs) <= 0.05:
            plain_pass += 1
        mean_tol = max(0.05, m.mean * 0.005 * (1.0 + sigma))
        checks = (
            devs[0] <= mean_tol,
            devs[1] <= 0.05,
            devs[2] <= 0.05,
            devs[3] <= 0.05,
        )
        if not all(checks):
            failures.append((name, devs))
    elapsed = time.perf_counter() - t0
    ok = not failures and plain_pass >= 32 and elapsed < 1.0
    report(
        "closed-form moments vs reference rows",
        ok,
        f"{plain_pass}/34 rows within plain ±0.05, {elapsed * 1000:.0f} ms",
    )
    assert not failures, failures
    assert plain_pass >= 32
    assert elapsed < 1.0


def test_c2_typical_mean_curve_replication():
    """MC typical-mean ratio vs the exact mode; regime-II form vs it for n >= 16.

    Two claims, gated apart.  The estimator reproduces the typical-mean
    curve: every MC point lies within max(3*SE, 0.03) of the exact ratio
    from the FFT self-convolution oracle.  The regime-II closed form
    (1 + C^2/n)^(-3/2) equals that ratio within 0.03 for n >= 16.  The
    closed form is a Fenton-Wilkinson-style moment match, exact at n=1 but
    off by -0.031 (SPX), -0.039 (CCMP) and -0.048 (NIFTY) at n=2 and by
    -0.069 at NIFTY n=4; for n < 16 its signed error is printed, not gated.
    """
    t0 = time.perf_counter()
    combos = {"SPX": (0.95, 1.02), "CCMP": (0.41, 1.10), "NIFTY": (1.65, 1.23)}
    grid = (2, 4, 8, 16, 32, 64, 128)
    seeds = np.random.SeedSequence(20260811).spawn(len(combos) * len(grid))
    mc_ok = 0
    violations = []
    mc_errors = []
    formula_errors = {name: [] for name in combos}
    small_gap = large_gap = 0.0
    i = 0
    for name, (mu, sigma) in combos.items():
        p = LogNormalParams(mu, sigma)
        for n in grid:
            mc, se = mc_typical_mean(p, n, 100_000, seeds[i])
            i += 1
            exact = exact_typical_mean_ratio(p, n)
            analytic = typical_mean_ratio(p, n)
            tol = max(3 * se, 0.03)
            mc_errors.append(mc - exact)
            error = analytic - exact
            formula_errors[name].append(f"{error:+.3f}")
            if n < 16:
                small_gap = max(small_gap, abs(error))
            else:
                large_gap = max(large_gap, abs(error))
            if abs(mc - exact) <= tol:
                mc_ok += 1
            else:
                violations.append(
                    f"{name} n={n}: |mc-exact|={abs(mc - exact):.4f} > tol={tol:.4f} "
                    f"(mc={mc:.4f}, se={se:.4f}, exact={exact:.4f})"
                )
            if n >= 16 and abs(error) > 0.03:
                violations.append(
                    f"{name} n={n}: |regime-II - exact|={abs(error):.4f} > 0.03 "
                    f"(regime-II={analytic:.4f}, exact={exact:.4f})"
                )
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    errors = "; ".join(f"{name} {'/'.join(errs)}" for name, errs in formula_errors.items())
    detail = (
        f"{mc_ok}/{len(seeds)} MC points within tolerance of the exact mode, MC minus exact "
        f"{np.mean(mc_errors):+.5f} mean, {np.mean(np.abs(mc_errors)):.5f} mean absolute; "
        f"regime-II minus exact at n={'/'.join(map(str, grid))}: {errors}; "
        f"max |error| {small_gap:.3f} at n<16 (reported), {large_gap:.3f} at n>=16 "
        f"(gated at 0.03), {elapsed:.1f} s"
    )
    report("typical-mean curve replication (MC and regime-II form vs exact mode)", ok, detail)
    assert elapsed < 60.0
    assert not violations, (
        f"max |regime-II - exact| is {small_gap:.4f} at n<16, {large_gap:.4f} at n>=16:\n"
        + "\n".join(violations)
    )


def test_c3_regime3_spot_value():
    """sigma^2=9, n=4: analytic ratio equals e^-6; MC within factor 3."""
    t0 = time.perf_counter()
    p = LogNormalParams(0.0, 3.0)
    analytic = typical_mean_ratio(p, 4)
    exact = math.exp(-6.0)
    analytic_ok = abs(analytic - exact) <= 1e-12
    mc, se = mc_typical_mean(p, 4, 1_000_000, seed=314159)
    factor = mc / exact if mc > 0 else math.inf
    mc_ok = 1.0 / 3.0 <= factor <= 3.0
    elapsed = time.perf_counter() - t0
    ok = analytic_ok and mc_ok and elapsed < 60.0
    report(
        "regime-III spot value",
        ok,
        f"analytic={analytic:.6e}, mc={mc:.3e} ({factor:.2f}x of e^-6), {elapsed:.1f} s",
    )
    assert analytic_ok
    assert mc_ok, f"mc={mc}, exact={exact}, factor={factor}"
    assert elapsed < 60.0


def test_c4_gbm_estimator_recovery():
    """10^3 seeded daily paths: median estimates near truth, clamp rate < 1%."""
    t0 = time.perf_counter()
    p = GBMParams(0.12, 0.29)
    mus, sigmas, clamps = [], [], 0
    for s in np.random.SeedSequence(4242).spawn(1000):
        est = estimate_gbm(simulate_gbm(p, 1.0, 16 * 252, 1 / 252, s))
        mus.append(est.mu_hat)
        sigmas.append(est.sigma_hat)
        clamps += est.clamped
    med_mu = float(np.median(mus))
    med_sigma = float(np.median(sigmas))
    clamp_rate = clamps / 1000.0
    elapsed = time.perf_counter() - t0
    ok = 0.28 <= med_sigma <= 0.30 and 0.09 <= med_mu <= 0.15 and clamp_rate < 0.01 and elapsed < 30.0
    report(
        "GBM estimator recovery",
        ok,
        f"median mu={med_mu:.4f}, median sigma={med_sigma:.4f}, clamp={clamp_rate:.2%}, {elapsed:.1f} s",
    )
    assert 0.28 <= med_sigma <= 0.30
    assert 0.09 <= med_mu <= 0.15
    assert clamp_rate < 0.01
    assert elapsed < 30.0


def test_c5_variance_formula_quirk():
    """Deterministic growth path: raw variance is exactly -g^2/(T-1), clamped."""
    g, t = 0.1, 16
    prices = np.exp(g * np.arange(t + 1))
    from bigwinners.gbm import PricePath

    est = estimate_gbm(PricePath(x0=1.0, prices=prices, dt=1.0))
    ok = abs(est.sigma_sq_raw - (-(g * g) / (t - 1))) <= 1e-12 and est.clamped
    report(
        "endpoint-variance formula quirk",
        ok,
        f"sigma_sq_raw={est.sigma_sq_raw:.6e}, clamped={est.clamped}",
    )
    assert est.sigma_sq_raw == pytest.approx(-(g * g) / 15.0, abs=1e-12)
    assert est.clamped
    assert est.sigma_hat == 0.0


def test_c6_toy_model_chain():
    """Closed-form ratio e^0.1952 reproduced by a 10^6-stock simulation.

    (A circulated value of 1.26 for these parameters does not follow from
    the formula: direct evaluation gives e^0.1952 = 1.2156, which is what
    both the closed form and the simulation reproduce; the 1.26 remains
    unreconciled.)
    """
    t0 = time.perf_counter()
    params = DriftModelParams(mu_d=0.12, sigma_d=0.03, sigma=0.1, horizon=16)
    ratios = model_ratios(params)
    target = math.exp(0.1952)
    closed_ok = abs(ratios.mean_over_median - target) <= 1e-12 * target

    s = simulate_index(params, 1_000_000, seed=77)
    mc = float(np.mean(s.rho) / np.median(s.rho))
    rng = np.random.default_rng(78)
    boots = np.empty(200)
    for i in range(200):
        b = s.rho[rng.integers(0, s.rho.size, s.rho.size)]
        boots[i] = np.mean(b) / np.median(b)
    se = float(np.std(boots, ddof=1))
    mc_ok = abs(mc - target) <= 3 * se
    elapsed = time.perf_counter() - t0
    ok = closed_ok and mc_ok and elapsed < 30.0
    report(
        "toy-model chain",
        ok,
        f"closed={ratios.mean_over_median:.6f}, mc={mc:.6f} ± {se:.6f}, {elapsed:.1f} s",
    )
    assert closed_ok
    assert mc_ok, f"mc={mc}, target={target}, 3se={3 * se}"
    assert elapsed < 30.0


def test_c7_pipeline_oracle(tmp_path):
    """A 500-ticker synthetic price panel run through the full pipeline."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    rho = rng.lognormal(0.95, 1.02, 500)
    lines = ["ticker,date,adj_close"]
    for i, r in enumerate(rho):
        lines.append(f"T{i:04d},2006-01-02,1.0")
        lines.append(f"T{i:04d},2021-12-30,{float(r)!r}")
    src = tmp_path / "panel.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sample_ = total_returns(load_panel(src))
    summary = summarize_index(sample_)

    target = math.exp(0.5 * 1.02**2)
    boots = np.empty(2000)
    for i in range(2000):
        b = sample_.rho[rng.integers(0, 500, 500)]
        boots[i] = np.mean(b) / np.median(b)
    lo, hi = np.quantile(boots, [0.005, 0.995])
    in_ci = lo <= target <= hi
    monotone = summary.top5 <= summary.top10 <= summary.top25
    elapsed = time.perf_counter() - t0
    ok = in_ci and monotone and elapsed < 10.0
    report(
        "pipeline oracle",
        ok,
        f"mean/median={summary.mean_over_median:.3f}, 99% CI=({lo:.3f},{hi:.3f}) "
        f"vs {target:.3f}, tops=({summary.top5:.1f},{summary.top10:.1f},{summary.top25:.1f}), "
        f"{elapsed:.1f} s",
    )
    assert in_ci
    assert monotone
    assert elapsed < 10.0


def test_c8_property_suites_200_seeds():
    """The five named identities hold across 200 randomized seeds each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)

    for _ in range(200):  # scale invariance
        mu, sigma = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 2.0)
        a = rng.uniform(0.05, 20.0)
        x = rng.lognormal(mu, sigma, 150)
        base, scaled = fit_lognormal(x), fit_lognormal(a * x)
        assert abs((scaled.mu - base.mu) - math.log(a)) <= 1e-9
        assert abs(scaled.sigma - base.sigma) <= 1e-9

    for _ in range(200):  # tail_filter idempotence
        s = ReturnSample(rho=rng.lognormal(0.0, rng.uniform(0.3, 1.8), 200))
        once = tail_filter(s)
        if len(once):
            twice = tail_filter(once)
            assert np.array_equal(once.rho, twice.rho) and twice.removed == 0

    for _ in range(200):  # mean/mode = (mean/median)^3
        p = DriftModelParams(
            rng.uniform(-0.2, 0.3), rng.uniform(0, 0.15), rng.uniform(0, 0.5), rng.uniform(1, 25)
        )
        r = model_ratios(p)
        assert abs(r.mean_over_mode - r.mean_over_median**3) <= 1e-12 * r.mean_over_mode

    for _ in range(200):  # (1 + C^2) = e^{sigma^2} at n=1
        sigma = rng.uniform(0.05, 2.5)
        s2 = sigma * sigma
        assert abs((1 + math.expm1(s2)) - math.exp(s2)) <= 1e-12 * math.exp(s2)
        moderate = regime_formula_values(LogNormalParams(0.0, sigma), 1)[MODERATELY_BROAD]
        assert abs(moderate - math.exp(-1.5 * s2)) <= 1e-12

    for _ in range(200):  # fitter round-trips (log-normal, gamma, asym. Laplace)
        n = 1200
        mu, sigma = rng.uniform(-1, 1), rng.uniform(0.2, 1.5)
        fit = fit_lognormal(rng.lognormal(mu, sigma, n))
        assert abs(fit.mu - mu) <= 5 * sigma / math.sqrt(n)
        assert abs(fit.sigma - sigma) <= 5 * sigma / math.sqrt(2 * n)

        shape, rate = rng.uniform(0.8, 6.0), rng.uniform(0.5, 12.0)
        gfit = fit_gamma(rng.gamma(shape, 1 / rate, n))
        assert abs(gfit.shape - shape) <= 0.35 * shape
        assert abs(gfit.rate - rate) <= 0.40 * rate

        kappa = rng.uniform(0.5, 2.0)
        x = sample(AsymmetricLaplaceParams(location=0.0, scale=1.0, asymmetry=kappa), n, rng)
        afit = fit_asymmetric_laplace(x)
        assert abs(afit.asymmetry - kappa) <= 0.25 * kappa

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report("property suites (200 seeds)", ok, f"{elapsed:.1f} s")
    assert elapsed < 120.0
