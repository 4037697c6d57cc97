"""Process set-up shared by the benchmark's entry points.

Kept free of numpy imports: ``pin_blas`` must run before numpy loads, because
OpenBLAS reads its thread count once, at load time, and gridsec's outputs
differ in the last digits across BLAS thread counts.
"""

import os
import sys

# One BLAS thread: the stored references were made this way, and it is
# at most the core count of any machine.
BLAS_THREADS = 1
_BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def pin_blas():
    """Pin every BLAS thread-count variable; fails if numpy is loaded."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source():
    """Import gridsec from ``src/`` of the checkout that holds this benchmark.

    Raises ImportError when that source tree is absent, so that an installed
    copy of gridsec elsewhere is never measured by mistake.
    """
    package = os.path.join(SRC, "gridsec", "__init__.py")
    if not os.path.isfile(package):
        raise ImportError(f"no gridsec source at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gridsec

    if os.path.realpath(gridsec.__file__) != os.path.realpath(package):
        raise ImportError(f"gridsec imported from {gridsec.__file__}, not {package}")
    return gridsec
