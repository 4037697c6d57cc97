"""gridsec: contingency-labeled operating-condition datasets and online-trained
neural security classification for power grids."""

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
from .security import (
    Category,
    Label,
    check_limits,
    classify_configuration,
    compute_piv,
    run_contingency_screen,
)

__all__ = [
    "GridSecError",
    "Branch", "Bus", "BusKind", "Generator", "Load", "NetworkCase",
    "apply_outage", "load_bundled_case", "load_case", "parse_case",
    "build_ybus", "solve_powerflow", "trace_pv_curve",
    "Category", "Label", "check_limits",
    "classify_configuration", "compute_piv", "run_contingency_screen",
]

__version__ = "0.1.0"
