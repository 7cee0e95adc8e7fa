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
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, InsufficientDataError, ParameterError

__all__ = [
    "LogNormalParams",
    "SkewNormalParams",
    "AsymmetricLaplaceParams",
    "GammaParams",
    "MomentSummary",
    "lognormal_mean",
    "lognormal_moments",
    "sample",
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
HUBER_MAX_ITER = 200
HUBER_TOL = 1e-10
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
# Floor of the skew-normal scale, in sample SDs: without it a few tied drifts drive
# omega towards 0.  The stop rules of its Newton solve (``_skew_normal_mle``) follow.
SKEW_OMEGA_FLOOR = 1e-8
SKEW_NLL_RTOL = 1e-13
SKEW_NEWTON_TOL = 1e-10
SKEW_NEWTON_MAXITER = 100
# Largest x whose e^x is a finite float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_domain(params, finite, nonnegative=(), positive=()) -> None:
    """Raise ParameterError naming the first of ``params``'s listed fields that is
    not finite, then the first not >= 0, then the first not > 0."""
    for name in finite:
        if not math.isfinite(value := getattr(params, name)):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    for name in nonnegative:
        if (value := getattr(params, name)) < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")
    for name in positive:
        if (value := getattr(params, name)) <= 0:
            raise ParameterError(f"{name} must be > 0, got {value}")


def _check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int, once it is an integer (not NaN or +-inf) >= ``minimum``."""
    with np.errstate(invalid="ignore"):  # a numpy +-inf warns in the remainder
        fractional = value % 1 != 0  # also NaN and +-inf
    if fractional:
        raise ParameterError(f"{name} must be an integer, got {value}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


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
        _check_domain(self, ("mu", "sigma"), nonnegative=("sigma",))

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
        _check_domain(self, ("zeta", "omega", "alpha"), positive=("omega",))

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
        _check_domain(self, ("location", "scale", "asymmetry"), positive=("scale", "asymmetry"))


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
        _check_domain(self, ("shape", "rate"), positive=("shape", "rate"))


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

def lognormal_mean(p: LogNormalParams) -> float:
    """mean = e^{mu + sigma^2/2}; ParameterError when it overflows a float."""
    x = p.mu + 0.5 * p.sigma_sq
    if x > LOG_FLOAT_MAX:
        raise ParameterError(f"log-normal mean = exp({x:.6g}) overflows a float")
    return math.exp(x)


def lognormal_moments(p: LogNormalParams) -> MomentSummary:
    """Mean, median, mode, variance and coefficient of variation.

    mode = e^{mu - sigma^2}, median = e^{mu}, mean = e^{mu + sigma^2/2},
    variance = e^{2 mu + sigma^2}(e^{sigma^2} - 1), C = sqrt(e^{sigma^2} - 1).
    Raises ParameterError when the mean, the variance or either of its factors overflows a float.
    """
    if p.sigma <= 0:
        raise ParameterError("lognormal_moments requires sigma > 0")
    s2 = p.sigma_sq
    mean = lognormal_mean(p)
    if max(2.0 * p.mu + s2, s2) > LOG_FLOAT_MAX or math.isinf(
        variance := math.exp(2.0 * p.mu + s2) * math.expm1(s2)
    ):
        raise ParameterError(f"log-normal variance overflows a float at sigma = {p.sigma:.6g}")
    return MomentSummary(
        mean=mean,
        median=math.exp(p.mu),
        mode=math.exp(p.mu - s2),
        variance=variance,
        coeff_variation=math.sqrt(math.expm1(s2)),
    )


# ---------------------------------------------------------------------------
# Sampling and quantiles
# ---------------------------------------------------------------------------

def sample(params, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the law described by ``params``.

    ``seed`` may be an integer, a SeedSequence or a Generator; identical
    (params, n, seed) triples yield bit-identical arrays.
    """
    n = _check_count(n, "sample size", 1)
    rng = np.random.default_rng(seed)
    if isinstance(params, LogNormalParams):
        return rng.lognormal(params.mu, params.sigma, size=n)
    if isinstance(params, SkewNormalParams):
        # Representation: X = zeta + omega*(delta*|U0| + sqrt(1-delta^2)*U1).
        z = rng.standard_normal(size=(2, n))
        d = params.delta
        return params.zeta + params.omega * (d * np.abs(z[0]) + math.sqrt(1.0 - d * d) * z[1])
    if isinstance(params, AsymmetricLaplaceParams):
        # Inverse-CDF transform of a single uniform per draw.
        u = rng.uniform(size=n)
        k = params.asymmetry
        k2 = k * k
        left = u < k2 / (1.0 + k2)
        y = np.empty(n)
        y[left] = k * np.log(u[left] * (1.0 + k2) / k2)
        y[~left] = -np.log((1.0 - u[~left]) * (1.0 + k2)) / k
        return params.location + params.scale * y
    raise TypeError(f"no sampler for {type(params).__name__}")


def quantile(p: LogNormalParams, q) -> np.ndarray:
    """Quantile function (inverse CDF) of a log-normal law: exp(sigma * ndtri(q)) * e^mu.

    scipy's ``lognorm.ppf`` term by term (0 at q = 0, inf at q = 1, NaN off
    [0, 1]).  A degenerate law (``sigma == 0``) raises ParameterError.
    """
    if p.sigma <= 0:
        raise ParameterError("log-normal law requires sigma > 0")
    return np.exp(p.sigma * _ndtri(q)) * math.exp(p.mu)


# Cephes ``ndtri`` (S. Moshier): rational approximations in (q - 1/2)^2 for
# e^-2 < q < 1 - e^-2, and beyond in 1/x, x = sqrt(-2 ln q), split at x = 8 (q = e^-32).
# Numerators, then denominators with their leading 1, highest power first.
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    """Horner's sum of the polynomial with ``coefs`` (highest power first) at ``x``, in Cephes' order."""
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _erfc(x) -> np.ndarray:
    """erfc(x) element by element, by ``math.erfc``: numpy has no erfc."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _ndtr(z) -> np.ndarray:
    """Phi(z) = erfc(-z/sqrt 2)/2, the standard normal CDF.  Where Phi(z) is a normal float
    (z >= -37) it is within 4 eps (1 + z^2) of scipy's ``ndtr`` relative: erfc errs by about
    2 x^2 eps at a rounded argument x (``tests/test_scipy_reference.py``)."""
    return 0.5 * _erfc(-np.asarray(z, dtype=float) * math.sqrt(0.5))


def _ndtri(q) -> np.ndarray:
    """Inverse of the standard normal CDF: Cephes ``ndtri``, which scipy's ``special.ndtri``
    runs, step for step, so the two agree to the bit (``tests/test_scipy_reference.py``).

    -inf at q = 0, inf at q = 1, NaN off [0, 1], and a NaN q negated, as Cephes hands it
    back.  The tail logarithms are ``math.log``, one element at a time: the C library's, as
    in Cephes; numpy's vectorized log can differ in the last bits.
    """
    q = np.asarray(q, dtype=float)
    x = np.where(np.isnan(q), -q, np.nan)
    x[q == 0.0], x[q == 1.0] = -np.inf, np.inf
    upper = q > 1.0 - _NDTRI_EXP_M2
    y = np.where(upper, 1.0 - q, q)
    mid = y > _NDTRI_EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    x[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _NDTRI_SQRT_2PI
    tail = (y > 0.0) & ~mid
    t = np.sqrt(-2.0 * np.fromiter(map(math.log, y[tail].tolist()), float))
    w = 1.0 / t
    series = np.where(t < 8.0, w * _polevl(w, _NDTRI_P1) / _polevl(w, _NDTRI_Q1),
                      w * _polevl(w, _NDTRI_P2) / _polevl(w, _NDTRI_Q2))
    r = t - np.fromiter(map(math.log, t.tolist()), float, t.size) / t - series
    x[tail] = np.where(upper[tail], r, -r)
    return x


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


# Below this z, erfc(-z/sqrt 2) nears the subnormal floats and ``_log_ndtr`` sums the
# asymptotic series of Phi, whose coefficients are (-1)^k (2k - 1)!!: at z = -37 the first
# term left out is below 1e-20.
LOG_NDTR_SERIES_BELOW = -37.0
_LOG_NDTR_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0, 2027025.0, -34459425.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# The trigamma and digamma series' coefficients, highest power first: the Bernoulli
# numbers B_2k for k = 7 down to 1, and B_2k/(2k).
_TRIGAMMA_SERIES = (7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0)
_DIGAMMA_SERIES = tuple(b / (2 * k) for k, b in zip(range(7, 0, -1), _TRIGAMMA_SERIES))


def _log_ndtr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(z) and the Mills ratio phi(z)/Phi(z) of the standard normal law, element by element.

    At z <= -1, Phi(z) = erfc(x)/2 with x = -z/sqrt 2; above, log Phi(z) = log1p(-erfc(x)/2)
    with x = z/sqrt 2 (``math.erfc``, one element at a time).  The ratio is
    e^{-x^2}/(sqrt(2 pi) Phi) at that same rounded x, with x^2 split so that e^{-x^2} is
    exact to rounding; on the left the rounding of x then cancels.  Below
    LOG_NDTR_SERIES_BELOW, Phi(z) = phi(z)/(-z) (1 - 1/z^2 + 3/z^4 - ...).  Over z in
    [-1e6, 0], both agree with scipy's ``log_ndtr`` and sqrt(2/pi)/``erfcx``(-z/sqrt 2)
    within 8 eps relative; above, within 8 eps (1 + z^2), since there both follow erfc's
    error at a rounded argument, about 2 x^2 eps, as scipy's own do
    (``tests/test_scipy_reference.py``).
    """
    z = np.asarray(z, dtype=float)
    far = z < LOG_NDTR_SERIES_BELOW
    if far.any():  # split off the far tail only where there is one
        zf, near = z[far], ~far
        log_cdf, mills = np.empty_like(z), np.empty_like(z)
        log_cdf[near], mills[near] = _log_ndtr(z[near])
        series = _polevl(1.0 / (zf * zf), _LOG_NDTR_SERIES[::-1])
        log_cdf[far] = np.log(series / -zf) - 0.5 * zf * zf - _LOG_SQRT_2PI
        mills[far] = -zf / series
        return log_cdf, mills
    left = z <= -1.0
    x = np.where(left, -z, z) * math.sqrt(0.5)
    half = 0.5 * _erfc(x)
    # e^{-x^2} is 0 past x = 27.3; capping x at 30 keeps the split's remainder
    # (hi - x)(hi + x), about 2^-26 x^2, from overflowing its exp at large x.
    x = np.minimum(x, 30.0)
    hi = (big := 134217729.0 * x) - (big - x)  # x's 26 leading bits: hi * hi is exact
    gauss = np.exp(-hi * hi) * np.exp((hi - x) * (hi + x))
    cdf = np.where(left, half, 1.0 - half)
    log_cdf = np.log(cdf, where=left, out=np.empty_like(z))
    np.log1p(-half, where=~left, out=log_cdf)
    return log_cdf, gauss / (math.sqrt(2.0 * math.pi) * cdf)


def _psi(k: float) -> tuple[float, float]:
    """Digamma and trigamma of k > 0.

    The recurrences psi(k) = psi(k + 1) - 1/k and psi'(k) = psi'(k + 1) + 1/k^2 carry k up
    to 20 or more, where the asymptotic series in the Bernoulli numbers,
    psi(k) = ln k - 1/(2k) - sum B_2n/(2n k^2n) and psi'(k) = 1/k + 1/(2k^2) + sum B_2n/k^(2n+1),
    leave out about 1e-20 relative.  Over k in [1e-8, 1e12] digamma is within 4e-15 of
    scipy's times max(1, |psi|), and trigamma within 2e-15 relative
    (``tests/test_scipy_reference.py``).
    """
    digamma = trigamma = 0.0
    while k < 20.0:
        digamma -= 1.0 / k
        trigamma += 1.0 / (k * k)
        k += 1.0
    w = 1.0 / (k * k)
    digamma += math.log(k) - 0.5 / k - w * _polevl(w, _DIGAMMA_SERIES)
    trigamma += 1.0 / k + 0.5 * w + w / k * _polevl(w, _TRIGAMMA_SERIES)
    return digamma, trigamma


def _skew_normal_nll(theta, t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood of the sample ``t`` at theta = (zeta, ln omega, alpha),
    with its gradient and Hessian in theta."""
    # Sums of products are np.sum(a * b), not a @ b: BLAS splits a long dot product
    # over its threads, so its bits and its time would follow the thread count.
    zeta, eta, alpha = theta
    n, inv_omega = t.size, math.exp(-eta)
    u = (t - zeta) * inv_omega
    z = alpha * u
    # log(omega) - log(2) + log(2 pi)/2 + u^2/2 - log Phi(alpha u), summed.
    suu = float(np.sum(u * u))
    log_cdf, m = _log_ndtr(z)
    nll = n * (eta - math.log(2.0) + _LOG_SQRT_2PI) + 0.5 * suu - float(np.sum(log_cdf))
    # The Mills ratio m = phi(z)/Phi(z) has the slope dm/dz = -m (z + m).
    dm = -m * (z + m)
    dmu = dm * u
    su, sm, smu = float(np.sum(u)), float(np.sum(m)), float(np.sum(m * u))
    sdm, sdmu, sdmuu = float(np.sum(dm)), float(np.sum(dmu)), float(np.sum(dmu * u))
    grad = np.array([inv_omega * (alpha * sm - su), n - suu + alpha * smu, -smu])
    h_zeta = inv_omega * np.array([
        inv_omega * (n - alpha * alpha * sdm),
        2.0 * su - alpha * sm - alpha * alpha * sdmu,
        sm + alpha * sdmu,
    ])
    hess = np.array([
        h_zeta,
        [h_zeta[1], 2.0 * suu - alpha * alpha * sdmuu - alpha * smu, smu + alpha * sdmuu],
        [h_zeta[2], smu + alpha * sdmuu, -sdmuu],
    ])
    return nll, grad, hess


def _skew_normal_moment_start(x: np.ndarray) -> tuple[float, float, float]:
    m = float(np.mean(x))
    sd = float(np.std(x))
    # Biased moment skewness, as scipy's stats.skew: NaN once m2 is lost to rounding.
    d = x - m
    m2 = np.mean(d * d)
    g1 = math.nan if m2 <= (np.finfo(float).eps * m) ** 2 else float(np.mean(d * d * d) / m2**1.5)
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


def _skew_normal_mle(t: np.ndarray) -> tuple[np.ndarray, float]:
    """theta = (zeta, ln omega, alpha) minimising ``_skew_normal_nll`` of the standardized
    sample ``t``, and the minimum, from the method-of-moments start.

    Damped Newton: a variable on its bound (omega >= SKEW_OMEGA_FLOOR, |alpha| <=
    SKEW_ALPHA_CAP) is held while the gradient pushes it outward; the Hessian of the
    others, where indefinite or near-singular, is shifted past definite by the
    gradient's norm; the step is clipped to the bounds and halved until the NLL falls.
    The solve stops once the step's predicted gain, -grad.step/2, is at most
    SKEW_NLL_RTOL of the NLL (about what a sum of n log-densities resolves), or once
    halving leaves no step longer than SKEW_NEWTON_TOL (relative) that lowers it; it
    raises FitFailureError after SKEW_NEWTON_MAXITER steps.
    """
    lower = np.array([-np.inf, math.log(SKEW_OMEGA_FLOOR), -SKEW_ALPHA_CAP])
    upper = np.array([np.inf, np.inf, SKEW_ALPHA_CAP])
    zeta, omega, alpha = _skew_normal_moment_start(t)
    theta = np.clip([zeta, math.log(max(omega, SKEW_OMEGA_FLOOR)), alpha], lower, upper)
    nll, grad, hess = _skew_normal_nll(theta, t)
    for _ in range(SKEW_NEWTON_MAXITER):
        free = ~((theta <= lower) & (grad > 0) | (theta >= upper) & (grad < 0))
        h = hess[np.ix_(free, free)]
        eig = np.linalg.eigvalsh(h)
        floor = 1e-8 * float(eig[-1])
        shift = 0.0 if eig[0] > floor else floor - float(eig[0]) + float(np.linalg.norm(grad[free]))
        step = np.zeros(3)
        step[free] = np.linalg.solve(h + shift * np.eye(h.shape[0]), -grad[free])
        if -float(grad @ step) <= 2.0 * SKEW_NLL_RTOL * abs(nll):
            return theta, nll
        tol = SKEW_NEWTON_TOL * (1.0 + float(np.max(np.abs(theta))))
        while np.max(np.abs((trial := np.clip(theta + step, lower, upper)) - theta)) > tol:
            if (terms := _skew_normal_nll(trial, t))[0] < nll:
                break
            step *= 0.5
        else:  # no step longer than the tolerance lowers the NLL
            return theta, nll
        theta, (nll, grad, hess) = trial, terms
    raise FitFailureError("fit_skew_normal did not converge", iterations=SKEW_NEWTON_MAXITER)


def fit_skew_normal(x) -> SkewNormalParams:
    """Maximum-likelihood skew-normal fit with a symmetry guard.

    The sample is standardized and the likelihood maximised by ``_skew_normal_mle``'s
    bounded, damped Newton solve in (zeta, ln omega, alpha) (its docstring gives the
    stop rules), started from method-of-moments values: omega >= SKEW_OMEGA_FLOOR
    times the sample SD, and |alpha| <= SKEW_ALPHA_CAP, where the result is flagged
    ``capped``.  Equal values raise FitFailureError (zero dispersion).  Because the
    profile likelihood is almost flat in alpha near zero, the unconstrained MLE
    wanders to |alpha| ~ 0.3 on exactly symmetric data; the fit therefore falls back
    to the nested normal MLE (alpha = 0, zeta = mean, omega = std) unless asymmetry
    improves the likelihood ratio beyond the chi-square(1) 95% cutoff.
    """
    arr = _clean(x, 3, "fit_skew_normal")
    # Moments of a copy scaled by a power of two, which is exact, so the squares cannot overflow.
    e = math.frexp(float(np.max(np.abs(arr))))[1]
    scaled = np.ldexp(arr, -e)
    sd = float(np.std(scaled))
    if sd == 0.0 or arr.min() == arr.max():  # equal values can round to sd > 0
        raise FitFailureError("fit_skew_normal: zero dispersion")

    mean = float(np.mean(scaled))
    t = (scaled - mean) / sd
    mean, sd = math.ldexp(mean, e), math.ldexp(sd, e)
    (zeta, eta, alpha), nll = _skew_normal_mle(t)
    nll_symmetric = 0.5 * (t.size * math.log(2.0 * math.pi) + float(np.sum(t * t)))  # at theta = 0, Phi(0) = 1/2
    if 2.0 * (nll_symmetric - nll) < SKEW_SYMMETRY_LRT:
        return SkewNormalParams(zeta=mean, omega=sd, alpha=0.0)
    alpha = float(alpha)
    return SkewNormalParams(
        zeta=mean + sd * float(zeta), omega=sd * math.exp(eta), alpha=alpha, capped=abs(alpha) >= SKEW_ALPHA_CAP
    )


GAMMA_NEWTON_TOL = 1e-10
GAMMA_NEWTON_MAXITER = 100
# The rounding stop holds only while its band is at most this much of k; beyond, f is noise.
GAMMA_ROUNDING_STOP_MAX = 1e-8


def fit_gamma(x) -> GammaParams:
    """Gamma MLE: Newton iteration on ln k - psi(k) = s, s = ln(mean) - mean(ln).

    Newton returns ``method="mle"`` once a step moves k by at most GAMMA_NEWTON_TOL
    relative, or by no more than the rounding of f = ln k - psi(k) - s explains,
    2 eps (|ln k| + |psi(k)|) / |f'(k)|, while that is at most GAMMA_ROUNDING_STOP_MAX of k
    (near k = 1e5 it exceeds the tolerance, beyond k near 4e5 that cap).  A gap
    s within 16 eps max(1, max |ln x|) is rounding, not data, so Newton is skipped; that,
    a slope that rounds to 0, or GAMMA_NEWTON_MAXITER steps give ``method="moments"``,
    and a variance that rounds to 0 raises FitFailureError.
    """
    arr = _clean(x, 3, "fit_gamma", positive=True)
    xbar = float(np.mean(arr))
    s = math.log(xbar) - float(np.mean(np.log(arr)))
    low, high = arr.min(), arr.max()
    if s <= 0 or not math.isfinite(s) or low == high:  # equal values can round to s > 0
        raise FitFailureError("fit_gamma: zero dispersion (ln-mean gap is not positive)")

    eps = sys.float_info.epsilon
    if s > 16.0 * eps * max(1.0, -math.log(low), math.log(high)):
        k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        for _ in range(GAMMA_NEWTON_MAXITER):
            digamma, trigamma = _psi(k)
            log_k = math.log(k)
            f = log_k - digamma - s
            fprime = 1.0 / k - trigamma
            if fprime == 0:  # k so large that the slope rounds to 0: Newton has stalled
                break
            k_new = k - f / fprime
            if k_new <= 0:
                k_new = k / 2.0
            moved, rounding = abs(k_new - k), 2.0 * eps * (abs(log_k) + abs(digamma)) / abs(fprime)
            if moved <= GAMMA_NEWTON_TOL * max(1.0, abs(k)) or moved <= rounding <= GAMMA_ROUNDING_STOP_MAX * k:
                return GammaParams(shape=k_new, rate=k_new / xbar, method="mle")
            k = k_new

    var = float(np.var(arr))
    if var <= 0:
        raise FitFailureError("fit_gamma: zero variance")
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

def huber_regression(x, y) -> tuple[float, float, float]:
    """Huber-loss linear fit y ~ a*x + b via IRLS; returns (a, b, r2).

    The threshold is HUBER_TUNING times the MAD-based robust residual scale,
    re-estimated each iteration, for at most HUBER_MAX_ITER iterations
    until the coefficients move less than HUBER_TOL (relative).  When they run
    out, the least-squares line through the unit-weight points is the fit if it
    passes within 1e-14 of the y span of each of them; else FitFailureError.
    R^2 is reported on all points against the robust line, so it can go
    negative for adversarial data.
    """
    xa = _clean(x, 3, "huber_regression")
    ya = _clean(y, 3, "huber_regression")
    if xa.size != ya.size:
        raise ParameterError("huber_regression requires equal-length vectors")
    if float(np.ptp(xa)) == 0.0:
        raise FitFailureError("huber_regression: x has zero dispersion")

    with warnings.catch_warnings():  # a rank-deficient x is left to the IRLS's own error
        warnings.simplefilter("ignore", getattr(np, "exceptions", np).RankWarning)
        a, b = np.polyfit(xa, ya, 1)
    y_span = float(np.max(np.abs(ya))) + 1.0
    for _ in range(HUBER_MAX_ITER):
        resid = ya - (a * xa + b)
        med = float(np.median(resid))
        mad = float(np.median(np.abs(resid - med)))
        scale = mad * MAD_TO_SIGMA
        if scale <= 1e-14 * y_span:
            break  # residuals numerically flat: exact fit
        c = HUBER_TUNING * scale
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
        settled = max(abs(a_new - a), abs(b_new - b)) <= HUBER_TOL * (1.0 + abs(a) + abs(b))
        a, b = a_new, b_new
        if settled:
            break
    else:
        # On points that lie on a line but for a few, the MAD scale shrinks only about 0.9 a
        # step; the least-squares line through the unit-weight points is the fit when it
        # passes through them to rounding.
        xs, ys = xa[w == 1.0], ya[w == 1.0]
        line = np.polyfit(xs, ys, 1) if np.unique(xs).size >= 2 else None
        if line is None or np.max(np.abs(ys - np.polyval(line, xs))) > 1e-14 * y_span:
            raise FitFailureError("huber_regression did not converge", iterations=HUBER_MAX_ITER)
        a, b = line

    # Residuals and deviations scaled by a power of two, which is exact, so the squares cannot overflow.
    e = math.frexp(float(np.max(np.abs(ya))))[1]
    resid, dev = (np.ldexp(v, -e) for v in (ya - (a * xa + b), ya - np.mean(ya)))
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum(dev ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), float(r2)


def pearson_correlation(x, y) -> float:
    """Pearson correlation coefficient, clipped to [-1, 1]."""
    xa = _clean(x, 2, "pearson_correlation")
    ya = _clean(y, 2, "pearson_correlation")
    if xa.size != ya.size:
        raise ParameterError("pearson_correlation requires equal-length vectors")
    # The largest magnitude of each vector scaled into [0.5, 1) by a power of two, which is
    # exact, so the sums of squares cannot overflow and in-range results keep their bits.
    xa, ya = (np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1]) for v in (xa, ya))
    if float(np.ptp(xa)) == 0.0 or float(np.ptp(ya)) == 0.0:
        raise ParameterError("pearson_correlation requires nonzero dispersion")
    r = float(np.corrcoef(xa, ya)[0, 1])
    return float(np.clip(r, -1.0, 1.0))
