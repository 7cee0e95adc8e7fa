"""Distribution families used throughout the return analysis.

Parameter containers, seeded samplers, closed-form log-normal moments and
maximum-likelihood fitters for the log-normal, skew-normal, asymmetric
Laplace and gamma families, plus the robust (Huber) regression and Pearson
correlation used in the drift/volatility panel.  The normal and symmetric
Laplace laws are the ``alpha=0`` / ``asymmetry=1`` special cases of the
skew-normal and asymmetric Laplace families.

All functions are pure; samplers take an explicit seed (or a prepared
``numpy.random.Generator``) and identical inputs produce bit-identical
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np
from scipy import optimize, special, stats

from .errors import FitFailureError, InsufficientDataError, ParameterError

__all__ = [
    "LogNormalParams",
    "SkewNormalParams",
    "AsymmetricLaplaceParams",
    "GammaParams",
    "MomentSummary",
    "lognormal_moments",
    "sample",
    "pdf",
    "quantile",
    "fit_lognormal",
    "fit_skew_normal",
    "fit_gamma",
    "fit_asymmetric_laplace",
    "huber_regression",
    "pearson_correlation",
]

# Huber tuning constant: 95% efficiency at the normal model.
HUBER_TUNING = 1.345
# MAD -> standard deviation scale for the normal model.
MAD_TO_SIGMA = 1.0 / 0.6745
# |alpha| bound for the skew-normal MLE; mirrors the bounded fits visible in
# heavy-shape cases (the fit is flagged `capped` when the bound is active).
SKEW_ALPHA_CAP = 50.0
# Chi-square(1) 95% cutoff for the skew-normal symmetry guard: the profile
# likelihood is nearly flat in alpha around 0, so the raw MLE lands at
# |alpha| ~ 0.3 even on exactly normal data; asymmetry is kept only when it
# beats the nested normal fit by a significant likelihood ratio.
SKEW_SYMMETRY_LRT = 3.841


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogNormalParams:
    """Location/shape of a log-normal law: ln X ~ Normal(mu, sigma^2).

    ``sigma == 0`` is allowed and marks the degenerate point mass that a
    maximum-likelihood fit of constant data produces; moment formulas and
    samplers treat it as the zero-variance limit.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite("mu", self.mu)
        _require_finite("sigma", self.sigma)
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def degenerate(self) -> bool:
        return self.sigma == 0.0

    @property
    def sigma_sq(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class SkewNormalParams:
    """Azzalini skew-normal: location zeta, scale omega, shape alpha.

    ``capped`` marks a fit whose shape ended on the |alpha| bound.
    """

    zeta: float
    omega: float
    alpha: float
    capped: bool = False

    def __post_init__(self):
        _require_finite("zeta", self.zeta)
        _require_finite("omega", self.omega)
        _require_finite("alpha", self.alpha)
        if self.omega <= 0:
            raise ParameterError(f"omega must be > 0, got {self.omega}")

    @property
    def delta(self) -> float:
        return self.alpha / math.sqrt(1.0 + self.alpha * self.alpha)


@dataclass(frozen=True)
class AsymmetricLaplaceParams:
    """Asymmetric Laplace with location, scale and asymmetry kappa.

    Density at y = (x - location)/scale is proportional to exp(-y*kappa)
    for y >= 0 and exp(y/kappa) for y < 0; kappa = 1 is the symmetric
    Laplace law.
    """

    location: float
    scale: float
    asymmetry: float

    def __post_init__(self):
        _require_finite("location", self.location)
        _require_finite("scale", self.scale)
        _require_finite("asymmetry", self.asymmetry)
        if self.scale <= 0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")
        if self.asymmetry <= 0:
            raise ParameterError(f"asymmetry must be > 0, got {self.asymmetry}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma law with shape and rate (inverse scale).

    ``method`` records how a fit obtained the values: "mle" for the
    digamma Newton solve, "moments" for the method-of-moments fallback.
    """

    shape: float
    rate: float
    method: str = "mle"

    def __post_init__(self):
        _require_finite("shape", self.shape)
        _require_finite("rate", self.rate)
        if self.shape <= 0:
            raise ParameterError(f"shape must be > 0, got {self.shape}")
        if self.rate <= 0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class MomentSummary:
    """Closed-form statistics of a fitted law."""

    mean: float
    median: float
    mode: float
    variance: float
    coeff_variation: float


# ---------------------------------------------------------------------------
# Closed-form log-normal statistics
# ---------------------------------------------------------------------------

def lognormal_moments(p: LogNormalParams) -> MomentSummary:
    """Mean, median, mode, variance and coefficient of variation.

    mode = e^{mu - sigma^2}, median = e^{mu}, mean = e^{mu + sigma^2/2},
    variance = e^{2 mu + sigma^2}(e^{sigma^2} - 1), C = sqrt(e^{sigma^2} - 1).
    """
    if p.sigma <= 0:
        raise ParameterError("lognormal_moments requires sigma > 0")
    s2 = p.sigma_sq
    return MomentSummary(
        mean=math.exp(p.mu + 0.5 * s2),
        median=math.exp(p.mu),
        mode=math.exp(p.mu - s2),
        variance=math.exp(2.0 * p.mu + s2) * math.expm1(s2),
        coeff_variation=math.sqrt(math.expm1(s2)),
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


@singledispatch
def sample(params, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the law described by ``params``.

    ``seed`` may be an integer, a SeedSequence or a Generator; identical
    (params, n, seed) triples yield bit-identical arrays.
    """
    raise TypeError(f"no sampler registered for {type(params).__name__}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")


@sample.register
def _(params: LogNormalParams, n: int, seed) -> np.ndarray:
    _check_n(n)
    return _as_rng(seed).lognormal(params.mu, params.sigma, size=n)


@sample.register
def _(params: SkewNormalParams, n: int, seed) -> np.ndarray:
    # Representation: X = zeta + omega*(delta*|U0| + sqrt(1-delta^2)*U1).
    _check_n(n)
    rng = _as_rng(seed)
    z = rng.standard_normal(size=(2, n))
    d = params.delta
    core = d * np.abs(z[0]) + math.sqrt(1.0 - d * d) * z[1]
    return params.zeta + params.omega * core


@sample.register
def _(params: AsymmetricLaplaceParams, n: int, seed) -> np.ndarray:
    # Inverse-CDF transform of a single uniform per draw.
    _check_n(n)
    rng = _as_rng(seed)
    u = rng.uniform(size=n)
    k = params.asymmetry
    k2 = k * k
    split = k2 / (1.0 + k2)
    left = u < split
    y = np.empty(n)
    y[left] = k * np.log(u[left] * (1.0 + k2) / k2)
    y[~left] = -np.log((1.0 - u[~left]) * (1.0 + k2)) / k
    return params.location + params.scale * y


@sample.register
def _(params: GammaParams, n: int, seed) -> np.ndarray:
    _check_n(n)
    return _as_rng(seed).gamma(params.shape, 1.0 / params.rate, size=n)


# ---------------------------------------------------------------------------
# Densities and quantiles
# ---------------------------------------------------------------------------

@singledispatch
def pdf(params, x) -> np.ndarray:
    """Probability density of the law described by ``params`` at ``x``."""
    raise TypeError(f"no density registered for {type(params).__name__}")


@pdf.register
def _(params: LogNormalParams, x) -> np.ndarray:
    if params.sigma <= 0:
        raise ParameterError("density requires sigma > 0")
    return stats.lognorm.pdf(x, s=params.sigma, scale=math.exp(params.mu))


@pdf.register
def _(params: SkewNormalParams, x) -> np.ndarray:
    return stats.skewnorm.pdf(x, params.alpha, loc=params.zeta, scale=params.omega)


@pdf.register
def _(params: AsymmetricLaplaceParams, x) -> np.ndarray:
    return stats.laplace_asymmetric.pdf(
        x, params.asymmetry, loc=params.location, scale=params.scale
    )


@pdf.register
def _(params: GammaParams, x) -> np.ndarray:
    return stats.gamma.pdf(x, params.shape, scale=1.0 / params.rate)


@singledispatch
def quantile(params, q) -> np.ndarray:
    """Quantile function (inverse CDF) of the law described by ``params``."""
    raise TypeError(f"no quantile function registered for {type(params).__name__}")


@quantile.register
def _(params: LogNormalParams, q) -> np.ndarray:
    if params.sigma <= 0:
        raise ParameterError("quantile requires sigma > 0")
    return stats.lognorm.ppf(q, s=params.sigma, scale=math.exp(params.mu))


@quantile.register
def _(params: SkewNormalParams, q) -> np.ndarray:
    return stats.skewnorm.ppf(q, params.alpha, loc=params.zeta, scale=params.omega)


@quantile.register
def _(params: AsymmetricLaplaceParams, q) -> np.ndarray:
    return stats.laplace_asymmetric.ppf(
        q, params.asymmetry, loc=params.location, scale=params.scale
    )


@quantile.register
def _(params: GammaParams, q) -> np.ndarray:
    return stats.gamma.ppf(q, params.shape, scale=1.0 / params.rate)


# ---------------------------------------------------------------------------
# Fitters
# ---------------------------------------------------------------------------

def _clean(x, min_len: int, who: str, positive: bool = False) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < min_len:
        raise InsufficientDataError(f"{who} needs at least {min_len} points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{who} requires finite values")
    if positive and np.any(arr <= 0):
        raise ParameterError(f"{who} requires strictly positive values")
    return arr


def fit_lognormal(x) -> LogNormalParams:
    """Maximum-likelihood log-normal fit: moments of ln x with divisor n.

    Constant data yields sigma = 0; the result's ``degenerate`` property
    flags it instead of raising, so downstream regime classification can
    still run.
    """
    arr = _clean(x, 2, "fit_lognormal", positive=True)
    logs = np.log(arr)
    mu = float(np.mean(logs))
    sigma = float(np.sqrt(np.mean((logs - mu) ** 2)))
    return LogNormalParams(mu=mu, sigma=sigma)


def _skew_normal_nll(theta: np.ndarray, x: np.ndarray) -> float:
    zeta, omega, alpha = theta
    t = (x - zeta) / omega
    # log(2) - log(omega) + log phi(t) + log Phi(alpha*t), summed.
    ll = (
        x.size * (math.log(2.0) - math.log(omega))
        - 0.5 * x.size * math.log(2.0 * math.pi)
        - 0.5 * float(np.sum(t * t))
        + float(np.sum(special.log_ndtr(alpha * t)))
    )
    return -ll


def _skew_normal_moment_start(x: np.ndarray) -> tuple[float, float, float]:
    m = float(np.mean(x))
    sd = float(np.std(x))
    g1 = float(stats.skew(x))
    # Invert the skewness formula for delta, clipping at the attainable bound.
    g1 = float(np.clip(g1, -0.94, 0.94))
    c = abs(g1) ** (2.0 / 3.0)
    denom = c + ((4.0 - math.pi) / 2.0) ** (2.0 / 3.0)
    delta2 = (math.pi / 2.0) * c / denom if denom > 0 else 0.0
    delta = math.copysign(math.sqrt(min(delta2, 0.995)), g1)
    omega = sd / math.sqrt(max(1.0 - 2.0 * delta * delta / math.pi, 1e-6))
    zeta = m - omega * delta * math.sqrt(2.0 / math.pi)
    alpha = delta / math.sqrt(max(1.0 - delta * delta, 1e-9))
    return zeta, omega, alpha


def fit_skew_normal(x, alpha_cap: float = SKEW_ALPHA_CAP) -> SkewNormalParams:
    """Numerical MLE of the skew-normal law with a symmetry guard.

    Started from method-of-moments values; |alpha| is bounded at
    ``alpha_cap`` and the result is flagged ``capped`` when the bound is
    active.  Because the profile likelihood is almost flat in alpha near
    zero, the unconstrained MLE wanders to |alpha| ~ 0.3 on exactly
    symmetric data; the fit therefore falls back to the nested normal
    MLE (alpha = 0, zeta = mean, omega = std) unless asymmetry improves
    the likelihood ratio beyond the chi-square(1) 95% cutoff.
    """
    arr = _clean(x, 3, "fit_skew_normal")
    sd = float(np.std(arr))
    if sd == 0.0:
        raise FitFailureError("fit_skew_normal: zero dispersion")

    mean = float(np.mean(arr))
    nll_symmetric = _skew_normal_nll(np.array([mean, sd, 0.0]), arr)

    z0, w0, a0 = _skew_normal_moment_start(arr)
    a0 = float(np.clip(a0, -alpha_cap, alpha_cap))
    start = np.array([z0, max(w0, 1e-8 * sd), a0])
    bounds = [(None, None), (1e-8 * sd, None), (-alpha_cap, alpha_cap)]

    res = optimize.minimize(
        _skew_normal_nll, start, args=(arr,), method="L-BFGS-B", bounds=bounds
    )
    if not res.success:
        # The flat alpha ridge can stall the quasi-Newton step; a simplex
        # polish usually settles it.
        res2 = optimize.minimize(
            _skew_normal_nll,
            res.x,
            args=(arr,),
            method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-9, "fatol": 1e-9},
        )
        if res2.fun <= res.fun and res2.success:
            res = res2
        else:
            raise FitFailureError(
                f"fit_skew_normal did not converge: {res.message}",
                iterations=int(res.nit),
            )

    if 2.0 * (nll_symmetric - res.fun) < SKEW_SYMMETRY_LRT:
        return SkewNormalParams(zeta=mean, omega=sd, alpha=0.0)

    zeta, omega, alpha = res.x
    alpha = float(np.clip(alpha, -alpha_cap, alpha_cap))
    capped = abs(alpha) >= alpha_cap - 1e-9
    return SkewNormalParams(zeta=float(zeta), omega=float(omega), alpha=alpha, capped=capped)


GAMMA_NEWTON_TOL = 1e-10
GAMMA_NEWTON_MAXITER = 100


def fit_gamma(x) -> GammaParams:
    """Gamma MLE: Newton iteration on ln k - psi(k) = ln(mean) - mean(ln).

    Falls back to method of moments when Newton stalls; the result's
    ``method`` field records which route produced it.
    """
    arr = _clean(x, 3, "fit_gamma", positive=True)
    xbar = float(np.mean(arr))
    s = math.log(xbar) - float(np.mean(np.log(arr)))
    if s <= 0 or not math.isfinite(s):
        raise FitFailureError("fit_gamma: zero dispersion (ln-mean gap is not positive)")

    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    converged = False
    for _ in range(GAMMA_NEWTON_MAXITER):
        f = math.log(k) - float(special.digamma(k)) - s
        fprime = 1.0 / k - float(special.polygamma(1, k))
        step = f / fprime
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= GAMMA_NEWTON_TOL * max(1.0, abs(k)):
            k = k_new
            converged = True
            break
        k = k_new

    if converged and math.isfinite(k) and k > 0:
        return GammaParams(shape=k, rate=k / xbar, method="mle")

    var = float(np.var(arr))
    if var <= 0:
        raise FitFailureError("fit_gamma: zero variance", iterations=GAMMA_NEWTON_MAXITER)
    return GammaParams(shape=xbar * xbar / var, rate=xbar / var, method="moments")


def fit_asymmetric_laplace(x) -> AsymmetricLaplaceParams:
    """Exact-profile MLE of the asymmetric Laplace law.

    For a fixed location theta the likelihood maximizes in closed form:
    with A = mean(x - theta)+ and B = mean(theta - x)+, kappa = (B/A)^{1/4}
    and scale = kappa*A + B/kappa.  The location optimum sits at a sample
    point, so the profile is evaluated at every interior order statistic
    via prefix sums and the best candidate wins.
    """
    arr = _clean(x, 3, "fit_asymmetric_laplace")
    xs = np.sort(arr)
    n = xs.size
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    idx = np.arange(1, n - 1)
    theta = xs[idx]
    above = (prefix[n] - prefix[idx + 1]) - theta * (n - 1 - idx)
    below = theta * (idx + 1) - prefix[idx + 1]
    a = above / n
    b = below / n
    valid = (a > 0) & (b > 0)
    if not np.any(valid):
        raise FitFailureError("fit_asymmetric_laplace: degenerate sample (one-sided mass)")
    a = a[valid]
    b = b[valid]
    theta = theta[valid]
    kappa = (b / a) ** 0.25
    scale = kappa * a + b / kappa
    loglik = -np.log(scale) - np.log(kappa + 1.0 / kappa)
    best = int(np.argmax(loglik))
    return AsymmetricLaplaceParams(
        location=float(theta[best]),
        scale=float(scale[best]),
        asymmetry=float(kappa[best]),
    )


# ---------------------------------------------------------------------------
# Robust regression and correlation
# ---------------------------------------------------------------------------

def huber_regression(
    x,
    y,
    tuning: float = HUBER_TUNING,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> tuple[float, float, float]:
    """Huber-loss linear fit y ~ a*x + b via IRLS; returns (a, b, r2).

    The threshold is ``tuning`` times the MAD-based robust residual scale,
    re-estimated each iteration.  R^2 is reported on all points against the
    robust line, so it can go negative for adversarial data.
    """
    xa = _clean(x, 3, "huber_regression")
    ya = _clean(y, 3, "huber_regression")
    if xa.size != ya.size:
        raise ParameterError("huber_regression requires equal-length vectors")
    if float(np.ptp(xa)) == 0.0:
        raise FitFailureError("huber_regression: x has zero dispersion")

    a, b = np.polyfit(xa, ya, 1)
    y_span = float(np.max(np.abs(ya))) + 1.0
    converged = False
    for _ in range(max_iter):
        resid = ya - (a * xa + b)
        med = float(np.median(resid))
        mad = float(np.median(np.abs(resid - med)))
        scale = mad * MAD_TO_SIGMA
        if scale <= 1e-14 * y_span:
            converged = True  # residuals numerically flat: exact fit
            break
        c = tuning * scale
        absr = np.abs(resid)
        w = np.where(absr <= c, 1.0, c / np.maximum(absr, 1e-300))
        sw = float(np.sum(w))
        swx = float(np.sum(w * xa))
        swxx = float(np.sum(w * xa * xa))
        swy = float(np.sum(w * ya))
        swxy = float(np.sum(w * xa * ya))
        det = sw * swxx - swx * swx
        if det == 0.0:
            raise FitFailureError("huber_regression: degenerate weighted system")
        a_new = (sw * swxy - swx * swy) / det
        b_new = (swxx * swy - swx * swxy) / det
        if max(abs(a_new - a), abs(b_new - b)) <= tol * (1.0 + abs(a) + abs(b)):
            a, b = a_new, b_new
            converged = True
            break
        a, b = a_new, b_new
    if not converged:
        raise FitFailureError("huber_regression did not converge", iterations=max_iter)

    resid = ya - (a * xa + b)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((ya - np.mean(ya)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), float(r2)


def pearson_correlation(x, y) -> float:
    """Pearson correlation coefficient, clipped to [-1, 1]."""
    xa = _clean(x, 2, "pearson_correlation")
    ya = _clean(y, 2, "pearson_correlation")
    if xa.size != ya.size:
        raise ParameterError("pearson_correlation requires equal-length vectors")
    if float(np.ptp(xa)) == 0.0 or float(np.ptp(ya)) == 0.0:
        raise ParameterError("pearson_correlation requires nonzero dispersion")
    r = float(np.corrcoef(xa, ya)[0, 1])
    return float(np.clip(r, -1.0, 1.0))
