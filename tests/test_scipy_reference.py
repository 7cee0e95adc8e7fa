"""The KDE's smoothing against the scipy routine it transcribes.

``empirical._smooth`` must equal ``scipy.ndimage.gaussian_filter1d`` bit for
bit, so KDE modes and their bootstrap stay the same while the package does not
load ``scipy.ndimage``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from bigwinners.empirical import KDE_GRID_SIZE, _smooth

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

