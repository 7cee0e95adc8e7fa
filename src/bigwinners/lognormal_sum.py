"""Typical behavior of the finite sample average of log-normal variables.

The average of N draws from a broad log-normal law sits, typically, well
below the true mean: the closed forms here give the ratio of the typical
(modal) sample mean to the true mean in three shape regimes, the Monte
Carlo estimator measures the same ratio directly from simulated portfolios,
and the exact oracle reads it off the FFT power of exact bin masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .distributions import LogNormalParams
from .empirical import kde_mode, kde_mode_bootstrap_stderr, write_report
from .errors import ParameterError

__all__ = [
    "RegimeLabel",
    "RegimeCurve",
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
    "write_curve_csv",
]

NARROW = "narrow"
MODERATELY_BROAD = "moderately_broad"
VERY_BROAD = "very_broad"

# Shape thresholds on sigma^2.  The closed forms are stated asymptotically
# (<< 1, ~ 1, >> 1); these cutoffs make the choice deterministic and can be
# overridden per call.
NARROW_MAX_SIGMA_SQ = 0.1
VERY_BROAD_MIN_SIGMA_SQ = 4.0

# Exponent of N in the very-broad formula.
_BROAD_EXPONENT = math.log(1.5) / math.log(2.0)

MIN_MC_REPS = 10_000

# Lattice of the exact oracle: EXACT_POINTS bins over [0, W), W doubled from
# 4 n E[X] (at most EXACT_MAX_DOUBLINGS times) until at most EXACT_WRAP_TOL of
# the n-draw sum can wrap around the FFT window.
EXACT_POINTS = 2**18
EXACT_WRAP_TOL = 1e-6
EXACT_MAX_DOUBLINGS = 24
EXACT_MIN_BINS = 100


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    sigma_sq: float


@dataclass(frozen=True)
class CurvePoint:
    n: int
    ratio_analytic: float
    ratio_mc: float | None = None
    mc_stderr: float | None = None


@dataclass(frozen=True)
class RegimeCurve:
    """Typical-to-true mean ratio as a function of portfolio size."""

    params: LogNormalParams
    points: tuple[CurvePoint, ...]


def _check_params(p: LogNormalParams, n: int = 1) -> None:
    if p.sigma <= 0:
        raise ParameterError("regime analysis requires sigma > 0")
    if n < 1:
        raise ParameterError(f"portfolio size must be >= 1, got {n}")


def classify_regime(
    p: LogNormalParams,
    narrow_max: float = NARROW_MAX_SIGMA_SQ,
    very_broad_min: float = VERY_BROAD_MIN_SIGMA_SQ,
) -> RegimeLabel:
    """Assign the shape regime from sigma^2; needs ``narrow_max < very_broad_min``."""
    _check_params(p)
    if narrow_max >= very_broad_min:
        raise ParameterError(f"narrow_max {narrow_max} must be below very_broad_min {very_broad_min}")
    s2 = p.sigma_sq
    if s2 <= narrow_max:
        label = NARROW
    elif s2 >= very_broad_min:
        label = VERY_BROAD
    else:
        label = MODERATELY_BROAD
    return RegimeLabel(label=label, sigma_sq=s2)


def _ratio_narrow(s2: float, n: int) -> float:
    # Typical mean e^mu against true mean e^{mu + s2/2}; independent of n.
    return math.exp(-0.5 * s2)


def _ratio_moderate(s2: float, n: int) -> float:
    c_sq = math.expm1(s2)
    return (1.0 + c_sq / n) ** -1.5


def _ratio_broad(s2: float, n: int) -> float:
    return math.exp(-1.5 * s2 / n ** _BROAD_EXPONENT)


_FORMULAS = {
    NARROW: _ratio_narrow,
    MODERATELY_BROAD: _ratio_moderate,
    VERY_BROAD: _ratio_broad,
}


def regime_formula_values(p: LogNormalParams, n: int) -> dict[str, float]:
    """Evaluate all three regime formulas at (p, n).

    Useful near the regime boundaries (1 <= sigma^2 <= 4), where the
    moderate and very-broad forms visibly disagree.
    """
    _check_params(p, n)
    return {label: fn(p.sigma_sq, n) for label, fn in _FORMULAS.items()}


def typical_mean_ratio(
    p: LogNormalParams,
    n: int,
    narrow_max: float = NARROW_MAX_SIGMA_SQ,
    very_broad_min: float = VERY_BROAD_MIN_SIGMA_SQ,
) -> float:
    """Typical-sample-mean / true-mean ratio from the regime's closed form."""
    _check_params(p, n)
    regime = classify_regime(p, narrow_max=narrow_max, very_broad_min=very_broad_min)
    return _FORMULAS[regime.label](regime.sigma_sq, n)


def mc_typical_mean(p: LogNormalParams, n: int, reps: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of the typical-to-true mean ratio.

    Draws ``reps`` portfolios of ``n`` i.i.d. log-normal returns, takes
    each portfolio's average, estimates the mode of the resulting
    distribution by the shared KDE machinery and divides by the true mean.
    Returns (mode_ratio, standard error from ``kde_mode_bootstrap_stderr``
    at its default 32 replicates).
    """
    _check_params(p, n)
    if reps < MIN_MC_REPS:
        raise ParameterError(f"reps must be >= {MIN_MC_REPS}, got {reps}")

    rng = np.random.default_rng(seed)
    y = np.empty(reps)
    block = max(1, (1 << 22) // n)
    done = 0
    while done < reps:
        b = min(block, reps - done)
        draws = rng.lognormal(p.mu, p.sigma, size=(b, n))
        y[done : done + b] = draws.mean(axis=1)
        done += b

    true_mean = math.exp(p.mu + 0.5 * p.sigma_sq)
    mode = kde_mode(y).mode
    stderr = kde_mode_bootstrap_stderr(y, seed=rng) / true_mean
    return mode / true_mean, stderr


def exact_typical_mean_ratio(p: LogNormalParams, n: int) -> float:
    """Typical-to-true mean ratio from the exact law of the n-draw average.

    An oracle independent of the closed forms and of Monte Carlo.  The FFT
    power of one draw's exact bin masses over [0, W), zero-padded to twice
    that, is the law of the sum below W, exactly: such a sum has every draw
    below W.  The wrapped mass is bounded on 1024 coarse bins convolved with
    no wrap: flooring a draw loses less than a coarse bin, so it is at most
    the mass from coarse bin 2048 - n up, which needs n < 2048.  Each draw
    adds its mean offset within its bin (exact partial expectations); a
    parabola through the log masses refines the mode, which must lie
    EXACT_MIN_BINS bins above zero.
    """
    _check_params(p)
    if not 1 <= n < 2048:
        raise ParameterError(f"the exact oracle takes portfolio sizes 1..2047, got {n}")
    mean = math.exp(p.mu + p.sigma_sq / 2)
    width = 4 * n * mean
    for _ in range(EXACT_MAX_DOUBLINGS):
        edges = np.linspace(0.0, width, EXACT_POINTS + 1)
        with np.errstate(divide="ignore"):
            z = (np.log(edges) - p.mu) / p.sigma
        masses = np.diff(scipy.special.ndtr(z))
        size = 1 << (n * 1024 - 1).bit_length()
        coarse = np.fft.rfft(masses.reshape(1024, -1).sum(axis=1), size)
        if n <= 2 or np.fft.irfft(coarse**n, size)[2048 - n :].sum() <= EXACT_WRAP_TOL:
            break
        width *= 2
    else:
        raise ParameterError(f"exact oracle: the {n}-draw sum still wraps around the window W = {width / 2:.3g}")
    offset = (mean * scipy.special.ndtr(z[-1] - p.sigma) - edges[:-1] @ masses) / masses.sum()
    size = 2 * EXACT_POINTS
    conv = np.fft.irfft(np.fft.rfft(masses, size) ** n, size)[:EXACT_POINTS]
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
    narrow_max: float = NARROW_MAX_SIGMA_SQ,
    very_broad_min: float = VERY_BROAD_MIN_SIGMA_SQ,
) -> RegimeCurve:
    """Analytic (and optionally Monte Carlo) ratio curve over ``n_grid``.

    ``reps=0`` skips the simulation columns.  Each grid point gets its own
    child seed, so extending the grid never perturbs earlier points.
    """
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ParameterError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("n_grid must be strictly increasing")
    _check_params(p)

    seeds = np.random.SeedSequence(seed).spawn(len(grid)) if reps > 0 else [None] * len(grid)
    points = []
    for n, child in zip(grid, seeds):
        analytic = typical_mean_ratio(
            p, n, narrow_max=narrow_max, very_broad_min=very_broad_min
        )
        if reps > 0:
            mc, se = mc_typical_mean(p, n, reps, child)
            points.append(CurvePoint(n=n, ratio_analytic=analytic, ratio_mc=mc, mc_stderr=se))
        else:
            points.append(CurvePoint(n=n, ratio_analytic=analytic))
    return RegimeCurve(params=p, points=tuple(points))


CURVE_FIELDS = ("n", "ratio_analytic", "ratio_mc", "mc_stderr")


def curve_rows(curve: RegimeCurve) -> list[tuple]:
    """The curve's points as report rows in ``CURVE_FIELDS`` order."""
    return [(pt.n, pt.ratio_analytic, pt.ratio_mc, pt.mc_stderr) for pt in curve.points]


def write_curve_csv(curve: RegimeCurve, destination) -> None:
    """Write a curve as CSV with columns n, ratio_analytic, ratio_mc, mc_stderr."""
    write_report(destination, CURVE_FIELDS, curve_rows(curve))
