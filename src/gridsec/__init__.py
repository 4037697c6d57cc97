"""gridsec: contingency-labeled operating-condition datasets and online-trained
neural security classification for power grids."""

import os

# BLAS runs one thread whatever the environment says, as a threaded BLAS moves
# the outputs' last digits: the variables pin a BLAS loaded later and every
# subprocess; the call pins numpy's bundled OPENBLAS (None where it is absent).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import ctypes, glob, numpy  # noqa: E401, E402
_libs = glob.glob(os.path.join(numpy.__path__[0], os.pardir, "numpy.libs", "libscipy_openblas64_*"))
_lib = ctypes.CDLL(_libs[0]) if _libs else None
OPENBLAS = _lib if hasattr(_lib, "scipy_openblas_set_num_threads64_") else None
if OPENBLAS is not None:
    OPENBLAS.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    OPENBLAS.scipy_openblas_set_num_threads64_.restype = None
    OPENBLAS.scipy_openblas_set_num_threads64_(1)

from .errors import GridSecError
from .model import (
    Branch,
    Bus,
    BusKind,
    Generator,
    Load,
    NetworkCase,
    apply_outage,
    load_bundled_case,
    load_case,
    parse_case,
)
from .powerflow import build_ybus, solve_powerflow, trace_pv_curve
from .security import Category, Label, check_limits, compute_piv, run_contingency_screen

__all__ = [
    "GridSecError",
    "Branch", "Bus", "BusKind", "Generator", "Load", "NetworkCase",
    "apply_outage", "load_bundled_case", "load_case", "parse_case",
    "build_ybus", "solve_powerflow", "trace_pv_curve",
    "Category", "Label", "check_limits", "compute_piv", "run_contingency_screen",
]

__version__ = "0.1.0"
