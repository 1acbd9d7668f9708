"""Fixed reference kernels that measure how fast the machine runs right now.

The benchmark's times are divided by the machine's speed, measured with one
of these kernels between the operations of a pass: each reported time is
the raw time times ``REFERENCE_S[kernel] / measured kernel time``.  A shared
host can run the same code up to 1.9 times slower, for 0.1 s or for a
minute at a time (a busy neighbour on the same physical core); a run cannot
average that out, but the kernel slows down with the package and the ratio
stays put.

The kernels use numpy and scipy only, never the package, so a change to the
package cannot move them:

* ``python`` -- scipy and numpy calls on 6x6 matrices, which spend most of
  their time in the interpreter and in call overhead, like the Gaussian
  modules (``scan``, ``point`` and the import measured by ``setup_s``);
* ``blas``   -- sparse-times-dense products, elementwise passes over
  megabyte arrays and dense complex matrix products, like the Fock oracle
  (``oracle``).
"""

import statistics
import time

import numpy as np
from scipy import linalg, sparse

REPS = 21  # measure() takes the median of this many runs of the kernel
# A fixed time per kernel, about its run time on the machine the bounds were
# tuned on (2 vCPUs of a shared x86-64 host), so reported times read roughly
# as seconds there.  Changing one rescales every time measured with it.
REFERENCE_S = {"python": 0.0009, "blas": 0.017}

_rng = np.random.default_rng(12345)
_small = _rng.standard_normal((6, 6)) + 6 * np.eye(6)
_symmetric = _small + _small.T
_sparse = sparse.random(1000, 1000, density=0.01, random_state=12345, format="csr") * 0.1
_dense = _rng.standard_normal((1000, 64)) + 1j * _rng.standard_normal((1000, 64))
_square = (_rng.standard_normal((180, 180)) + 1j * _rng.standard_normal((180, 180))) / 180


def _python() -> float:
    total = 0.0
    for _ in range(25):
        total += float(linalg.expm(0.1 * _small)[0, 0])
        total += float(np.linalg.eigh(_symmetric)[0][0])
    return total


def _blas() -> float:
    term = _dense
    out = _dense.copy()
    for k in range(1, 9):
        term = _sparse @ term / k
        out += term
        np.abs(term).max()
    square = _square
    for _ in range(3):
        square = square @ square
    return float(np.abs(out).max() + np.abs(square).max())


KERNELS = {"python": _python, "blas": _blas}
# how often a pass is interrupted to run the kernel: about 3% of its time,
# often enough to follow a machine whose speed can change within 0.1 s
PERIOD_S = {"python": 0.04, "blas": 0.5}


def measure(kernel: str) -> float:
    """Median seconds of one run of ``kernel`` right now."""
    fn = KERNELS[kernel]
    fn()  # warm-up: first calls into numpy are slower
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
