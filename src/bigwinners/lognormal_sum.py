"""Typical behavior of the finite sample average of log-normal variables.

The average of N draws from a broad log-normal law sits, typically, well
below the true mean: the closed forms here give the ratio of the typical
(modal) sample mean to the true mean in three shape regimes, the Monte
Carlo estimator measures the same ratio directly from simulated portfolios,
and the exact oracle reads it off the convolution power of exact bin masses.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .distributions import LOG_FLOAT_MAX, LogNormalParams, _check_count, _ndtr, lognormal_mean
from .empirical import kde_mode, kde_mode_bootstrap_stderr
from .errors import ParameterError

__all__ = [
    "CurvePoint",
    "NARROW",
    "MODERATELY_BROAD",
    "VERY_BROAD",
    "classify_regime",
    "typical_mean_ratio",
    "regime_formula_values",
    "mc_typical_mean",
    "exact_typical_mean_ratio",
    "regime_curve",
]

NARROW = "narrow"
MODERATELY_BROAD = "moderately_broad"
VERY_BROAD = "very_broad"

# Shape thresholds on sigma^2.  The closed forms are stated asymptotically
# (<< 1, ~ 1, >> 1); these cutoffs make the choice deterministic.
NARROW_MAX_SIGMA_SQ = 0.1
VERY_BROAD_MIN_SIGMA_SQ = 4.0

# Exponent of N in the very-broad formula.
_BROAD_EXPONENT = math.log(1.5) / math.log(2.0)

MIN_MC_REPS = 10_000
# Log-normal values drawn per block: small enough to be reused from the
# allocator instead of mapped afresh on every block.
MC_BLOCK_DRAWS = 2**16

# Lattice of the exact oracle: EXACT_POINTS bins over [0, W), W = 4 n E[X];
# the n-draw sum's mode must lie at least EXACT_MIN_BINS bins above zero.
EXACT_POINTS = 2**18
EXACT_MIN_BINS = 100


@dataclass(frozen=True)
class CurvePoint:
    n: int
    ratio_analytic: float
    ratio_mc: float | None = None
    mc_stderr: float | None = None


def _check_params(p: LogNormalParams, n: int = 1) -> int:
    """The portfolio size ``n`` as an int, once sigma > 0 and n is an integer >= 1."""
    if p.sigma <= 0:
        raise ParameterError("regime analysis requires sigma > 0")
    return _check_count(n, "portfolio size", 1)


def classify_regime(p: LogNormalParams) -> str:
    """The shape regime's label from sigma^2."""
    _check_params(p)
    s2 = p.sigma_sq
    if s2 <= NARROW_MAX_SIGMA_SQ:
        return NARROW
    if s2 >= VERY_BROAD_MIN_SIGMA_SQ:
        return VERY_BROAD
    return MODERATELY_BROAD


def regime_formula_values(p: LogNormalParams, n: int) -> dict[str, float]:
    """Evaluate all three regime formulas at (p, n).

    Useful near the regime boundaries (1 <= sigma^2 <= 4), where the
    moderate and very-broad forms visibly disagree.
    """
    n = _check_params(p, n)
    s2 = p.sigma_sq
    # c^2 = e^{s2} - 1 overflows a float past LOG_FLOAT_MAX, where the moderate form's limit is 0.
    c_sq = math.expm1(s2) if s2 <= LOG_FLOAT_MAX else math.inf
    return {
        NARROW: math.exp(-0.5 * s2),  # typical mean e^mu against true mean e^{mu + s2/2}
        MODERATELY_BROAD: (1.0 + c_sq / n) ** -1.5,
        VERY_BROAD: math.exp(-1.5 * s2 / n ** _BROAD_EXPONENT),
    }


def typical_mean_ratio(p: LogNormalParams, n: int) -> float:
    """Typical-sample-mean / true-mean ratio from the regime's closed form."""
    return regime_formula_values(p, n)[classify_regime(p)]


def _portfolio_means(p: LogNormalParams, n: int, reps: int, seed) -> tuple[np.ndarray, np.random.Generator]:
    """Averages of ``reps`` portfolios of ``n`` log-normal draws, and the generator after them.

    The draws come in blocks of about MC_BLOCK_DRAWS values; one generator
    yields the same stream whatever the block size.  Numpy releases the
    interpreter lock while drawing and averaging, so calls on separate
    generators run in parallel on threads.
    """
    rng = np.random.default_rng(seed)
    y = np.empty(reps)
    block = max(1, MC_BLOCK_DRAWS // n)
    with np.errstate(over="ignore"):  # numpy's error state is per thread: set it in the worker
        for done in range(0, reps, block):
            b = min(block, reps - done)
            y[done : done + b] = rng.lognormal(p.mu, p.sigma, size=(b, n)).mean(axis=1)
    if not np.isfinite(y).all():
        raise ParameterError(f"the mean of a portfolio of n={n} log-normal draws overflows a float")
    return y, rng


def _mode_ratio(true_mean: float, y: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """KDE mode of the portfolio means over the true mean, and its bootstrap standard error."""
    mode = kde_mode(y).mode
    stderr = kde_mode_bootstrap_stderr(y, seed=rng) / true_mean
    return mode / true_mean, stderr


def mc_typical_mean(p: LogNormalParams, n: int, reps: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of the typical-to-true mean ratio.

    Draws ``reps`` portfolios of ``n`` i.i.d. log-normal returns, takes
    each portfolio's average, estimates the mode of the resulting
    distribution by the shared KDE machinery and divides by the true mean.
    Returns (mode_ratio, standard error from ``kde_mode_bootstrap_stderr``
    at its default 32 replicates).
    """
    n = _check_params(p, n)
    reps = _check_count(reps, "reps", MIN_MC_REPS)
    return _mode_ratio(lognormal_mean(p), *_portfolio_means(p, n, reps, seed))


def exact_typical_mean_ratio(p: LogNormalParams, n: int) -> float:
    """Typical-to-true mean ratio from the exact law of the n-draw average.

    An oracle independent of the closed forms and of Monte Carlo.  The n-th
    convolution power of one draw's exact bin masses over [0, W), W = 4 n E[X],
    cut back to [0, W) after each product, is the law of the sum below W,
    exactly: the draws are >= 0, so such a sum has every partial sum below W.
    Each draw adds its mean offset within its bin (exact partial expectations);
    a parabola through the log masses refines the mode, which must lie
    EXACT_MIN_BINS bins above zero.
    """
    n = _check_params(p, n)
    mean = lognormal_mean(p)
    edges = np.linspace(0.0, 4 * n * mean, EXACT_POINTS + 1)
    with np.errstate(divide="ignore"):
        z = (np.log(edges) - p.mu) / p.sigma
    masses = np.diff(_ndtr(z))
    offset = (mean * _ndtr(z[-1] - p.sigma) - np.sum(edges[:-1] * masses)) / masses.sum()
    size = 2 * EXACT_POINTS  # a product of two EXACT_POINTS-term arrays fits without wrapping
    spectrum = np.fft.rfft(masses, size) if n & (n - 1) else None  # a power of two only squares
    conv = masses
    for bit in bin(n)[3:]:  # square-and-multiply, each product cut back to [0, W)
        square = np.fft.rfft(conv, size)
        conv = np.fft.irfft(square * square, size)[:EXACT_POINTS]
        if bit == "1":
            conv = np.fft.irfft(np.fft.rfft(conv, size) * spectrum, size)[:EXACT_POINTS]
    k = int(np.argmax(conv))
    if not EXACT_MIN_BINS <= k < EXACT_POINTS - 1:
        raise ParameterError(f"exact oracle: the {n}-draw sum's mode is in lattice bin {k} of {EXACT_POINTS}")
    a, b, c = np.log(conv[k - 1 : k + 2])
    mode = (k + 0.5 * (a - c) / (a - 2 * b + c)) * edges[1] + n * offset
    return float(mode / (n * mean))


def regime_curve(
    p: LogNormalParams,
    n_grid,
    reps: int = 0,
    seed=None,
) -> tuple[CurvePoint, ...]:
    """Analytic (and optionally Monte Carlo) ratio curve over ``n_grid``, one point per n.

    ``reps=0`` skips the simulation columns.  Each grid point gets its own
    child seed, so extending the grid never perturbs earlier points.  The
    points' draws run on up to ``os.cpu_count()`` threads, largest n first;
    their KDE modes run on the calling thread in grid order, each once its
    point's draws are done and while the larger n still draw, so every
    point equals ``mc_typical_mean(p, n, reps, child_seed)`` whatever the
    thread count.
    """
    grid = [_check_params(p, n) for n in n_grid]
    if not grid:
        raise ParameterError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("n_grid must be strictly increasing")

    analytic = [typical_mean_ratio(p, n) for n in grid]
    if reps <= 0:
        return tuple(CurvePoint(n=n, ratio_analytic=a) for n, a in zip(grid, analytic))

    reps = _check_count(reps, "reps", MIN_MC_REPS)
    mean = lognormal_mean(p)
    from concurrent.futures import ThreadPoolExecutor

    seeds = dict(zip(grid, np.random.SeedSequence(seed).spawn(len(grid))))
    with ThreadPoolExecutor(max_workers=min(len(grid), os.cpu_count() or 1)) as pool:
        draws = {n: pool.submit(_portfolio_means, p, n, reps, seeds[n]) for n in reversed(grid)}
        return tuple(
            CurvePoint(n, a, *_mode_ratio(mean, *draws[n].result()))
            for n, a in zip(grid, analytic)
        )
