"""The KDE mode's numerics against the scipy routines they transcribe.

``empirical._smooth`` must equal ``scipy.ndimage.gaussian_filter1d`` and
``empirical._fminbound`` must equal ``scipy.optimize.minimize_scalar`` with
``method="bounded"`` bit for bit, so KDE modes stay the same while the package
loads neither scipy module.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage, optimize

from bigwinners.empirical import (
    KDE_GRID_SIZE,
    _exact_neg_objective,
    _fminbound,
    _grid_objective,
    _kde_axis,
    _smooth,
)

SUITE = settings(max_examples=300, derandomize=True, deadline=None)


def _reference_smooth(counts, sigma):
    return ndimage.gaussian_filter1d(np.asarray(counts, dtype=float), sigma=sigma, mode="constant", truncate=6.0)


@SUITE
@given(sigma=st.floats(0.01, 128.0), n=st.integers(1, KDE_GRID_SIZE), seed=st.integers(0, 2**32 - 1))
@example(sigma=1.0 / 12.0 - 1e-12, n=KDE_GRID_SIZE, seed=0)  # radius 0: the counts themselves
@example(sigma=1.0 / 12.0, n=KDE_GRID_SIZE, seed=0)  # radius 1
@example(sigma=128.0, n=3, seed=0)  # radius far beyond the grid
def test_smooth_equals_gaussian_filter1d(sigma, n, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rng.integers(1, 10**6), rng.dirichlet(np.full(n, 0.3)))
    assert np.array_equal(_smooth(counts, sigma, 1.0), _reference_smooth(counts, sigma))


def test_smooth_of_a_stack_is_row_by_row():
    rng = np.random.default_rng(3)
    stack = rng.multinomial(5000, rng.dirichlet(np.ones(KDE_GRID_SIZE)), size=32)
    h, width = 0.21, 0.013  # sigma = h / width, as the KDE passes it
    expected = np.array([_reference_smooth(row, h / width) for row in stack])
    assert np.array_equal(_smooth(stack, h, width), expected)


def _bounded(func, lo, hi, xatol):
    res = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return res.x, res.success


def _kde_refine_problem(seed):
    """The exact objective and grid bracket ``kde_mode`` refines on, for a seeded sample."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.5, 0.8, 200) if seed % 2 else rng.normal(0.0, 1.0, 200) - 5.0
    _, t, h, log_scale = _kde_axis(x, "test")
    centers, obj = _grid_objective(t, h, log_scale)
    k = int(np.argmax(obj))
    lo, hi = centers[max(k - 1, 0)], centers[min(k + 1, KDE_GRID_SIZE - 1)]
    return (lambda s: _exact_neg_objective(s, t, h, log_scale)), lo, hi, 1e-10 * max(1.0, abs(hi - lo))


@pytest.mark.parametrize("seed", range(40))
def test_fminbound_equals_scipy_on_kde_objectives(seed):
    func, lo, hi, xatol = _kde_refine_problem(seed)
    x, success = _fminbound(func, lo, hi, xatol)
    assert success
    assert (x, success) == _bounded(func, lo, hi, xatol)


@pytest.mark.parametrize(
    "func, lo, hi",
    [
        (lambda s: (s - 0.3) ** 2, -1.0, 2.0),
        (lambda s: abs(s - 0.7), 0.0, 1.0),  # a kink: golden-section steps
        (lambda s: 1.0, 0.0, 1.0),  # flat: every step ties
        (lambda s: math.nan if s > 0.4 else (s - 0.3) ** 2, 0.0, 1.0),  # NaN off the minimum
        (lambda s: -math.cos(7.0 * s), -0.2, 3.0),
    ],
)
def test_fminbound_equals_scipy_on_test_functions(func, lo, hi):
    assert _fminbound(func, lo, hi, 1e-10) == _bounded(func, lo, hi, 1e-10)


def test_fminbound_reports_maxiter_like_scipy():
    """With no tolerance, a kink at zero takes every one of the 500 evaluations."""
    x, success = _fminbound(abs, -1.0, 1.0, 0.0)
    assert not success
    assert (x, success) == _bounded(abs, -1.0, 1.0, 0.0)


def test_fminbound_reports_nan_like_scipy():
    x, success = _fminbound(lambda s: math.nan, 0.0, 1.0, 1e-10)
    assert not success
    assert (x, success) == _bounded(lambda s: math.nan, 0.0, 1.0, 1e-10)
