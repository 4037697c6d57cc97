"""Voltage performance index, configuration categorization, and N-1 screening.

A configuration is one branch outage. Configurations whose voltage
performance index stays at or below 0.1 are negligible; above that they are
split by flow impact: under 200 MW of worst-branch active-flow change they
are topology changes (TCs, folded into the operating condition itself), at
200 MW or more they are critical system contingencies (CSCs) that decide the
Secure/Insecure label. A contingency fails on islanding, divergence, a bus
voltage outside that bus's ``[v_min, v_max]`` band from the case file, or a
branch loaded above ``LOADING_LIMIT`` of its rating.

``screen_configurations`` solves each candidate outage from a flat start
and builds every record through ``categorize``: an outage in
``case.topology.cuts`` islands buses and gets no solve, and it and a
diverging outage read PI_V and flow change ``inf``, hence CSC.

The N-1 screen stops at the first contingency that fails, since that one
decides the Insecure label. It screens in the DC contingency-selection order
(Ejebe & Wollenberg, "Automatic Contingency Selection", IEEE Trans. PAS
1979; Wood & Wollenberg, *Power Generation, Operation and Control*, ch. 7):
islanding outages first, then the rest by descending predicted post-outage
loading from line-outage distribution factors (LODFs) and the operating
condition's own flows. Every contingency solve warm-starts from the
operating condition's converged voltages, so each outcome, and hence the
label, does not depend on the order. The top-ranked contingency gets an
exact Newton-Raphson solve; when it passes, ``powerflow.chord_screen``
solves all the others at once from the operating condition's inverted
Jacobian (the compensation method; Wood & Wollenberg, ch. 7), and accepts
one as secure only when it converged clear of every limit by a guard band
and no generator came near a Q limit. Every other contingency, and so every
failure, is decided by the exact solver as before, so the screen's result
does not depend on the chord's bits. The limit check, the flow-change rule
and the ranking read the bus voltage bands, the in-service branches, their
ratings and their DC susceptances from the case's cached arrays
(``case.topology`` and ``case.branch_table``). What the topology alone fixes
is made once per outage set, in the memo that every edit of a parsed case
shares (``Topology.recall``): the ranking's LODF columns, hence the B' solve,
and the screen's in-service CSC positions. Only the flows are per OC, so
every predicted loading is the same float as a fresh computation's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GridSecError
from .model import NetworkCase, apply_outage
from .powerflow import LOADING_LIMIT, PowerFlowSolution, chord_screen, outage_rows, solve_powerflow

PIV_THRESHOLD = 0.1
PIV_DV_LIMIT = 0.05  # acceptable per-bus voltage deviation, per-unit
TC_FLOW_DELTA_MW = 200.0


class Category(enum.Enum):
    NEGLIGIBLE = "Negligible"
    TC = "TC"
    CSC = "CSC"


class Label(enum.Enum):
    SECURE = "Secure"
    INSECURE = "Insecure"


@dataclass(frozen=True)
class Violation:
    kind: str  # low-voltage | high-voltage | overload
    element: str  # "bus 7" or a branch label
    value: float
    limit: float  # the bus's own v_min or v_max, or LOADING_LIMIT


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
    # ContingencyResult per contingency screened, in ranked order (islanding
    # outages first, then by descending predicted loading); the screen stops
    # at the first failure, so an Insecure result ends with it
    details: list
    first_failure: str | None = None


def compute_piv(pre: PowerFlowSolution, post: PowerFlowSolution) -> float:
    """Sum of squared post-vs-pre voltage deviations: PI_V with w = 1, n = 1.

    Each bus contributes 0.5 * (dV / PIV_DV_LIMIT)^2.
    """
    if not pre.converged or not post.converged:
        raise GridSecError("performance index needs converged pre and post solutions")
    if pre.v_mag.shape != post.v_mag.shape:
        raise GridSecError("pre and post solutions have different bus counts")
    return float(np.sum(0.5 * ((post.v_mag - pre.v_mag) / PIV_DV_LIMIT) ** 2))


def max_flow_delta_mw(pre: PowerFlowSolution, post: PowerFlowSolution, post_case: NetworkCase) -> float:
    """Largest per-branch |active flow change| in MW, over branches still in
    service after the configuration change."""
    live = post_case.branch_table.pos
    return float(np.max(np.abs(post.p_from[live] - pre.p_from[live]))) if live.size else 0.0


def categorize(pi_v: float, flow_delta_mw: float) -> Category:
    """Pure decision rule on (PI_V, flow delta); boundary at PI_V == 0.1 is
    Negligible, at exactly 200 MW is CSC."""
    if pi_v <= PIV_THRESHOLD:
        return Category.NEGLIGIBLE
    if flow_delta_mw < TC_FLOW_DELTA_MW:
        return Category.TC
    return Category.CSC


def check_limits(solution: PowerFlowSolution, case: NetworkCase) -> list:
    """All bus-voltage and branch-loading violations; empty means secure.

    Each bus is held to its own ``v_min``/``v_max`` from the case. Buses
    come first, then in-service branches, each in case order.
    """
    if not solution.converged:
        raise GridSecError("limit check needs a converged solution")
    vm = solution.v_mag
    v_min, v_max = case.topology.v_limits
    low = vm < v_min
    high = vm > v_max
    violations = []
    for pos in np.flatnonzero(low | high):
        kind, limit = ("low-voltage", v_min[pos]) if low[pos] else ("high-voltage", v_max[pos])
        violations.append(Violation(kind, f"bus {case.buses[pos].id}", float(vm[pos]),
                                    float(limit)))
    tb = case.branch_table
    live = tb.pos
    s_from = np.hypot(solution.p_from[live], solution.q_from[live])
    s_to = np.hypot(solution.p_to[live], solution.q_to[live])
    loading = np.maximum(s_from, s_to) / tb.rating
    violations += [
        Violation("overload", f"branch {case.branches[live[j]].label()}",
                  float(loading[j]), LOADING_LIMIT)
        for j in np.flatnonzero(loading > LOADING_LIMIT)
    ]
    return violations


def predicted_loading(case: NetworkCase, p_from, outages) -> np.ndarray:
    """DC estimate of each outage's worst post-outage branch loading.

    For each in-service branch position ``k`` in ``outages``,
    ``max_l |p_l + LODF_lk p_k| / rating_l`` over the other in-service
    branches ``l``, where ``p_from`` holds the pre-outage active flows (MW,
    by branch position). The PTDF columns of all outages come from one solve
    of the slack-grounded DC susceptance matrix B' with one right-hand side
    per outage, and ``LODF_lk = PTDF_lk / (1 - PTDF_kk)``. The LODF columns
    depend on the topology only, so they are made once per outage set and
    outage list (``Topology.recall``). An islanding outage has no LODF, and
    it and an out-of-service one raise ``GridSecError`` (``outage_rows``).
    """
    rows, cols, lodf = case.topology.recall(("lodf", tuple(outages)),
                                            lambda: _lodf(case, outages))
    tb = case.branch_table
    p = p_from[tb.pos]
    post = p[:, None] + lodf * p[rows]
    post[rows, cols] = 0.0  # the outaged branch itself carries nothing
    return np.max(np.abs(post) / tb.rating[:, None], axis=0)


def _lodf(case: NetworkCase, outages):
    """``predicted_loading``'s table rows of ``outages``, their column
    numbers and the (branches, outages) LODF columns, read-only."""
    tb = case.branch_table
    rows = outage_rows(case, outages, "predicted loading")
    n = len(case.buses)
    # B' summed branch by branch into Ybus's flat cells: diagonals, then off-diagonals
    b = np.bincount(tb.cells.T.ravel(), np.concatenate([tb.b_dc, tb.b_dc, -tb.b_dc, -tb.b_dc]),
                    minlength=n * n).reshape(n, n)
    cols = np.arange(len(rows))
    # a unit transfer from each outaged branch's from bus to its to bus
    rhs = np.zeros((n, len(rows)))
    rhs[tb.f[rows], cols] = 1.0
    rhs[tb.t[rows], cols] = -1.0
    # grounding the slack (angle 0) is solving the slack-reduced system
    slack = case.topology.slack
    b[slack, :] = 0.0
    b[:, slack] = 0.0
    b[slack, slack] = 1.0
    rhs[slack] = 0.0
    theta = np.linalg.solve(b, rhs)
    ptdf = tb.b_dc[:, None] * (theta[tb.f] - theta[tb.t])
    lodf = ptdf / (1.0 - ptdf[rows, cols])
    for a in (rows, cols, lodf):
        a.setflags(write=False)
    return rows, cols, lodf


def run_contingency_screen(case: NetworkCase, solution: PowerFlowSolution,
                           csc_list) -> ScreenResult:
    """Label one operating condition against a list of branch outage labels.

    ``solution`` is the OC's converged power flow. Secure iff every
    contingency converges with no limit violations. A listed branch that is
    already out of service in this OC's topology is skipped; a branch listed
    twice or a screen left with no contingency raises ``GridSecError``.
    Islanding outages come first and are Insecure without a solve attempt.
    The rest are screened by descending ``predicted_loading`` from the
    solution's flows, ties in list order, each solve warm-started from the
    solution's voltages. When the first passes, ``chord_screen`` checks the
    rest in one batch; each one it does not accept gets the exact solve and
    limit check, in ranked order. The screen stops at the first contingency
    that fails: it decides the Insecure label and is ``first_failure``.
    """
    csc_list = list(csc_list)
    if not csc_list:
        raise GridSecError("no contingencies configured")
    if not solution.converged:
        raise GridSecError("the screen needs the operating condition's converged solution")
    pending = case.topology.recall(("pending", tuple(csc_list)),
                                   lambda: _in_service(case, csc_list))
    if not pending:
        raise GridSecError(
            f"no contingency left to screen: {', '.join(csc_list)} already out of service")
    cuts = case.topology.cuts
    for name, k in pending:
        if k in cuts:
            return ScreenResult(Label.INSECURE, [ContingencyResult(name, False, True, (), False)],
                                first_failure=name)
    loading = predicted_loading(case, solution.p_from, [k for _, k in pending])
    ranked = [pending[j] for j in np.argsort(-loading, kind="stable").tolist()]
    start = (solution.v_mag, solution.v_ang)
    details = []
    for rank, (name, k) in enumerate(ranked):
        if rank == 1:  # the top-ranked CSC passed
            outcomes = chord_screen(case, start, [k for _, k in ranked[1:]])
        if rank and outcomes[rank - 1] == "accepted":
            details.append(ContingencyResult(name, True, False, (), True))
            continue
        outaged = apply_outage(case, k)
        sol = solve_powerflow(outaged, start)
        if sol.converged:
            violations = tuple(check_limits(sol, outaged))
            result = ContingencyResult(name, True, False, violations, not violations)
        else:
            result = ContingencyResult(name, False, False, (), False)
        details.append(result)
        if not result.secure:
            return ScreenResult(label=Label.INSECURE, details=details, first_failure=name)
    return ScreenResult(label=Label.SECURE, details=details)


def _in_service(case: NetworkCase, names) -> tuple:
    """(name, branch position) of each listed branch in service in ``case``.
    A branch listed twice, under either orientation, is a ``GridSecError``."""
    found = [(name, case.find_branch(name)) for name in names]
    first = {}
    for name, k in found:
        if k in first:
            raise GridSecError(f"contingency {name} repeats {first[k]} in the list")
        first[k] = name
    live = case.branch_table.in_service([k for _, k in found])
    return tuple(pair for pair, ok in zip(found, live) if ok)


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
    operating point; results sorted by descending PI_V, ties in list order.
    Every solve starts flat. An islanding outage (no solve) or a diverging
    one reads PI_V and flow change ``inf``, which ``categorize`` calls CSC."""
    base = solve_powerflow(case)
    if not base.converged:
        raise GridSecError("base case did not converge")
    cuts = case.topology.cuts
    assessments = []
    for spec in config_specs:
        index = case.find_branch(spec)
        pi_v = delta = float("inf")
        if index not in cuts:
            outaged = apply_outage(case, index)
            post = solve_powerflow(outaged)
            if post.converged:
                pi_v = compute_piv(base, post)
                delta = max_flow_delta_mw(base, post, outaged)
        assessments.append(ConfigurationAssessment(spec, pi_v, delta, categorize(pi_v, delta)))
    return sorted(assessments, key=lambda a: -a.pi_v)
