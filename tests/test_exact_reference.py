"""The lattice ``exact_typical_mean_ratio`` against the fixed-grid oracle it replaced.

``reference_exact_typical_mean_ratio`` is that oracle, kept verbatim with
one fix: index k of its n-fold convolution of midpoint samples sits at
(k + n/2) * EXACT_DX, not at (k + 0.5) * EXACT_DX, which put its ratio low by
(n - 1) * EXACT_DX / (2 n E[X]).  It samples the density on a fixed grid up
to EXACT_XMAX, so it serves only where the n-draw sum stays well inside it.
"""

import math

import numpy as np
import pytest
import scipy

from bigwinners.distributions import LogNormalParams
from bigwinners.errors import ParameterError
from bigwinners.lognormal_sum import _check_params, exact_typical_mean_ratio

EXACT_XMAX = 2000.0
EXACT_DX = 0.001
EXACT_WRAP_TOL = 1e-6
_WRAP_BINS = 1024


def _wrapped_mass(p: LogNormalParams, n: int, window: float) -> float:
    """Upper bound on P(sum of n draws >= window), draws truncated at EXACT_XMAX.

    Exact bin masses on a coarse grid are convolved in a window wide enough
    that nothing wraps.  Flooring each draw to its bin loses less than one
    bin per draw, so the tail is summed from n bins below the window.
    """
    edges = np.linspace(0.0, EXACT_XMAX, _WRAP_BINS + 1)
    start = math.floor(window / edges[1]) - n
    if start <= 0:
        return 1.0
    with np.errstate(divide="ignore"):
        cdf = scipy.special.ndtr((np.log(edges) - p.mu) / p.sigma)
    size = 1 << (n * _WRAP_BINS - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(np.diff(cdf), size) ** n, size)
    return float(conv[start:].sum())


def reference_exact_typical_mean_ratio(p: LogNormalParams, n: int) -> float:
    """Typical-to-true mean ratio from the exact density of the n-draw average.

    An oracle independent of the closed forms and of Monte Carlo: the
    log-normal density on a linear grid of step EXACT_DX up to EXACT_XMAX
    is self-convolved n times by FFT, and the mode of the sum is read off
    the grid.  Cutting the density at EXACT_XMAX leaves the density of the
    sum below EXACT_XMAX exact, since such a sum has every draw below it.
    Raises ParameterError when more than EXACT_WRAP_TOL of the sum's
    probability lies beyond the circular FFT window, or when the sum's mode
    is not below EXACT_XMAX.  About 0.5 s per call.
    """
    _check_params(p)
    if n < 1:
        raise ParameterError(f"portfolio size must be >= 1, got {n}")
    mu, sigma = p.mu, p.sigma
    m = int(EXACT_XMAX / EXACT_DX)
    size = 1 << (2 * m - 1).bit_length()
    wrapped = _wrapped_mass(p, n, size * EXACT_DX)
    if wrapped > EXACT_WRAP_TOL:
        raise ParameterError(
            f"exact oracle: up to {wrapped:.2g} of the {n}-draw sum lies beyond "
            f"the FFT window at {size * EXACT_DX:.0f}"
        )
    x = (np.arange(m) + 0.5) * EXACT_DX
    dens = np.exp(-((np.log(x) - mu) ** 2) / (2 * sigma * sigma)) / (
        x * sigma * math.sqrt(2 * math.pi)
    )
    conv = np.fft.irfft(np.fft.rfft(dens * EXACT_DX, size) ** n, size)[:m]
    k = int(np.argmax(conv))
    if k == m - 1:
        raise ParameterError(
            f"exact oracle: the mode of the {n}-draw sum is beyond {EXACT_XMAX:.0f}"
        )
    return float((k + n / 2) * EXACT_DX / n / math.exp(mu + sigma * sigma / 2))


# The points of the typical-mean acceptance criterion (C2).
C2_LAWS = {"SPX": (0.95, 1.02), "CCMP": (0.41, 1.10), "NIFTY": (1.65, 1.23)}
C2_GRID = (2, 4, 8, 16, 32, 64, 128)


@pytest.mark.parametrize("name", list(C2_LAWS))
def test_matches_fixed_grid_reference_at_c2_points(name):
    # The reference reads its mode to one grid step, EXACT_DX / (n E[X]) of
    # the ratio: at most 1.1e-4 here, so half a step bounds its own error.
    p = LogNormalParams(*C2_LAWS[name])
    for n in C2_GRID:
        exact = exact_typical_mean_ratio(p, n)
        reference = reference_exact_typical_mean_ratio(p, n)
        assert abs(exact - reference) <= 1e-4, (name, n, exact, reference)
