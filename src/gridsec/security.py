"""Voltage performance index, configuration categorization, and N-1 screening.

A configuration is one branch outage. Configurations whose voltage
performance index stays at or below 0.1 are negligible; above that they are
split by flow impact: under 200 MW of worst-branch active-flow change they
are topology changes (TCs, folded into the operating condition itself), at
200 MW or more they are critical system contingencies (CSCs) that decide the
Secure/Insecure label. The N-1 screen stops at the first contingency that
fails, since that one decides the Insecure label. Dataset labelling
warm-starts each contingency solve from the operating condition's own
converged voltages. A contingency fails on a bus voltage outside the
operating limits or a branch loaded above ``LOADING_LIMIT`` of its rating.
The limit check and the flow-change rule take the in-service branches from
the case's array view (``case.arrays.branches.pos``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GridSecError, IslandingError, SettingError
from .model import NetworkCase, apply_outage
from .powerflow import PowerFlowSolution, solve_powerflow

PIV_THRESHOLD = 0.1
PIV_DV_LIMIT = 0.05  # acceptable per-bus voltage deviation, per-unit
TC_FLOW_DELTA_MW = 200.0
LOADING_LIMIT = 1.0  # fraction of a branch's mva_rating


class Category(enum.Enum):
    NEGLIGIBLE = "Negligible"
    TC = "TC"
    CSC = "CSC"


class Label(enum.Enum):
    SECURE = "Secure"
    INSECURE = "Insecure"


@dataclass(frozen=True)
class OperatingLimits:
    v_min: float = 0.90
    v_max: float = 1.10

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise SettingError("v_min must be below v_max")


@dataclass(frozen=True)
class Violation:
    kind: str  # low-voltage | high-voltage | overload
    element: str  # "bus 7" or a branch label
    value: float
    limit: float


@dataclass
class ConfigurationAssessment:
    configuration: str  # branch outage label
    pi_v: float
    max_flow_delta_mw: float
    category: Category


@dataclass
class ContingencyResult:
    contingency: str
    converged: bool
    islanded: bool
    violations: tuple
    secure: bool


@dataclass
class ScreenResult:
    label: Label
    # ContingencyResult per contingency screened, in list order; the screen
    # stops at the first failure, so an Insecure result ends with it
    details: list
    first_failure: str | None = None


def _check_solutions(pre, post):
    if not pre.converged or not post.converged:
        raise GridSecError("performance index needs converged pre and post solutions")
    if pre.v_mag.shape != post.v_mag.shape:
        raise GridSecError("pre and post solutions have different bus counts")


def compute_piv(pre: PowerFlowSolution, post: PowerFlowSolution) -> float:
    """Sum of squared post-vs-pre voltage deviations: PI_V with w = 1, n = 1.

    Each bus contributes 0.5 * (dV / PIV_DV_LIMIT)^2.
    """
    _check_solutions(pre, post)
    return float(np.sum(0.5 * ((post.v_mag - pre.v_mag) / PIV_DV_LIMIT) ** 2))


def max_flow_delta_mw(pre: PowerFlowSolution, post: PowerFlowSolution, post_case: NetworkCase) -> float:
    """Largest per-branch |active flow change| in MW, over branches still in
    service after the configuration change."""
    live = post_case.arrays.branches.pos
    return float(np.max(np.abs(post.p_from[live] - pre.p_from[live]))) if live.size else 0.0


def categorize(pi_v: float, flow_delta_mw: float) -> Category:
    """Pure decision rule on (PI_V, flow delta); boundary at PI_V == 0.1 is
    Negligible, at exactly 200 MW is CSC."""
    if pi_v <= PIV_THRESHOLD:
        return Category.NEGLIGIBLE
    if flow_delta_mw < TC_FLOW_DELTA_MW:
        return Category.TC
    return Category.CSC


def classify_configuration(
    pre: PowerFlowSolution,
    post: PowerFlowSolution,
    post_case: NetworkCase,
    configuration: str,
) -> ConfigurationAssessment:
    pi_v = compute_piv(pre, post)
    delta = max_flow_delta_mw(pre, post, post_case)
    return ConfigurationAssessment(
        configuration=configuration,
        pi_v=pi_v,
        max_flow_delta_mw=delta,
        category=categorize(pi_v, delta),
    )


def check_limits(
    solution: PowerFlowSolution,
    case: NetworkCase,
    limits: OperatingLimits | None = None,
) -> list:
    """All bus-voltage and branch-loading violations; empty means secure.

    Buses come first, then in-service branches, each in case order.
    """
    limits = limits or OperatingLimits()
    if not solution.converged:
        raise GridSecError("limit check needs a converged solution")
    vm = solution.v_mag
    low = vm < limits.v_min
    high = vm > limits.v_max
    violations = []
    for pos in np.flatnonzero(low | high):
        kind, limit = ("low-voltage", limits.v_min) if low[pos] else ("high-voltage", limits.v_max)
        violations.append(Violation(kind, f"bus {case.buses[pos].id}", float(vm[pos]), limit))
    live = case.arrays.branches.pos
    ratings = np.array([case.branches[k].mva_rating for k in live.tolist()])
    s_from = np.hypot(solution.p_from[live], solution.q_from[live])
    s_to = np.hypot(solution.p_to[live], solution.q_to[live])
    loading = np.maximum(s_from, s_to) / ratings
    violations += [
        Violation("overload", f"branch {case.branches[live[j]].label()}",
                  float(loading[j]), LOADING_LIMIT)
        for j in np.flatnonzero(loading > LOADING_LIMIT)
    ]
    return violations


def run_contingency_screen(
    case: NetworkCase,
    csc_list,
    limits: OperatingLimits | None = None,
    start=None,
) -> ScreenResult:
    """Label one operating condition against a list of branch outage labels.

    Secure iff every contingency converges with no limit violations. The
    screen stops at the first contingency that fails: it decides the
    Insecure label and is ``first_failure``. Islanding outages are Insecure
    without a solve attempt. A listed branch that is already out of service
    in this OC's topology is skipped. ``start``, when set, is the
    pre-contingency ``(v_mag, v_ang)``: every post-contingency solve starts
    from it instead of a flat start.
    """
    csc_list = list(csc_list)
    if not csc_list:
        raise GridSecError("no contingencies configured")
    limits = limits or OperatingLimits()
    details = []
    for name in csc_list:
        index = case.find_branch(name)
        if index not in case.arrays.branches.pos:
            continue  # outage already part of the OC topology
        try:
            outaged = apply_outage(case, index)
        except IslandingError:
            result = ContingencyResult(name, False, True, (), False)
        else:
            sol = solve_powerflow(outaged, start)
            if sol.converged:
                violations = tuple(check_limits(sol, outaged, limits))
                result = ContingencyResult(name, True, False, violations, not violations)
            else:
                result = ContingencyResult(name, False, False, (), False)
        details.append(result)
        if not result.secure:
            return ScreenResult(label=Label.INSECURE, details=details, first_failure=name)
    return ScreenResult(label=Label.SECURE, details=details)


def parse_contingency_list(text: str) -> list:
    """One branch outage label per line, '#' comments allowed."""
    specs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            specs.append(line)
    return specs


def screen_configurations(case: NetworkCase, config_specs) -> list:
    """Assess and categorize a list of candidate branch outages at the base
    operating point; results sorted by descending PI_V. Every solve starts
    flat."""
    base = solve_powerflow(case)
    if not base.converged:
        raise GridSecError("base case did not converge")
    assessments = []
    for spec in config_specs:
        index = case.find_branch(spec)
        try:
            outaged = apply_outage(case, index)
        except IslandingError:
            assessments.append(
                ConfigurationAssessment(spec, float("inf"), float("inf"), Category.CSC)
            )
            continue
        post = solve_powerflow(outaged)
        if not post.converged:
            assessments.append(
                ConfigurationAssessment(spec, float("inf"), float("inf"), Category.CSC)
            )
            continue
        assessments.append(classify_configuration(base, post, outaged, spec))
    return sorted(assessments, key=lambda a: -a.pi_v)
