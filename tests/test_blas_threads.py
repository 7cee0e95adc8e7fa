"""The fits and the exact oracle give the same bits at any BLAS thread count.

numpy's BLAS splits a long float dot product (``a @ b``) over its threads, and
the split changes the order of the additions, so the last bits of the sum
follow the thread count.  ``fit_skew_normal`` and ``exact_typical_mean_ratio``
therefore sum their products with numpy's own reductions.  The same code runs
here in two fresh interpreters, with one and with two BLAS threads, and must
print the same ``float.hex`` values.  Needs only numpy and pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CODE = """\
from bigwinners.distributions import LogNormalParams, SkewNormalParams, fit_skew_normal, sample
from bigwinners.lognormal_sum import exact_typical_mean_ratio

fit = fit_skew_normal(sample(SkewNormalParams(0.06, 0.09, 1.88), 19042, 3))
print(fit.zeta.hex(), fit.omega.hex(), fit.alpha.hex())
for mu, sigma, n in [(0.5, 1.0, 4), (0.5, 1.23, 16)]:
    print(exact_typical_mean_ratio(LogNormalParams(mu, sigma), n).hex())
"""
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def printed_at(threads: int) -> str:
    """What ``CODE`` prints in a fresh interpreter whose BLAS has ``threads`` threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{name: str(threads) for name in THREAD_VARIABLES})
    done = subprocess.run([sys.executable, "-c", CODE], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_skew_normal_fit_and_exact_oracle_bits_do_not_follow_blas_threads():
    one = printed_at(1)
    assert len(one.split()) == 5
    assert printed_at(2) == one
