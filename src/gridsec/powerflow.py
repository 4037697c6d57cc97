"""Newton-Raphson AC power flow and a stepwise load-scaling PV-curve tracer.

The solver works in polar coordinates on the full complex bus-admittance
matrix. It reads the case through its cached array view
(``NetworkCase.arrays``), the one source of its layout: one branch table
feeds both the admittance matrix, which one ``np.add.at`` sums from the
table's flat ``cells`` and ``stamps``, and the branch flows, and the bus
spec is read from the same view: the slack position and the ``pv``/``pq``
masks. A solve copies only the three arrays a Q-limit pin rewrites,
``s_spec``, ``pv`` and ``pq``.
Each NR iteration evaluates the Jacobian only at Ybus's nonzero cells (and
its diagonal) and scatters the values into the reduced ``pvpq``/``pq``
matrix. The cells and their scatter map come from the case view
(``Topology.jacobian``), made once per parsed case and shared by its edits,
which only remove branches; a solve gathers Ybus at those cells and drops
the off-diagonal ones that are zero, and after a pin it asks
``arrays.jacobian_scatter`` for the pinned masks' map. Each entry equals,
bit for bit, the same entry selected from the dense 2n x 2n ``dSbus_dV``.
Reactive-limit switching is one-way: a PV bus whose generators would exceed
their Q capability is pinned there as a PQ bus and never switches back to PV
within the solve. Non-convergence is an outcome, not an exception:
downstream screening treats a diverged post-contingency solve as an Insecure
label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import JacobianCells, JacobianScatter, jacobian_scatter
from .errors import CaseValidationError, InfeasibleError, SettingError
from .model import NetworkCase, reschedule_generation, scale_loads


TOLERANCE = 1e-8  # per-unit power mismatch
MAX_ITER = 20


@dataclass
class PowerFlowSolution:
    v_mag: np.ndarray  # per-unit, by bus position
    v_ang: np.ndarray  # radians
    p_from: np.ndarray  # MW, by branch position (0 for out-of-service)
    q_from: np.ndarray  # MVar
    p_to: np.ndarray
    q_to: np.ndarray
    i_from: np.ndarray  # per-unit current magnitude at the from end
    converged: bool
    iterations: int
    max_mismatch: float  # per-unit
    q_limited: tuple = ()  # (bus position, pinned Q_gen pu) pairs
    diagnostic: str = ""


@dataclass
class PvCurve:
    points: list  # (load_scale, v_mag at the monitored bus), converged only
    nose_scale: float  # last converged multiplier


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Dense complex bus-admittance matrix; standard pi model with the
    off-nominal tap on the from side."""
    tb = case.arrays.branches
    n = len(case.buses)
    y = np.zeros(n * n, dtype=complex)
    # Stamps go in per branch as ff, tt, ft, tf; np.add.at sums repeated cells
    # in index order, so each entry adds up its branches in case order.
    np.add.at(y, tb.cells.ravel(), tb.stamps.ravel())
    return y.reshape(n, n)


def _pin_q(s_spec, is_pv, is_pq, q_load, i, q_gen):
    """Turn bus ``i`` into a PQ bus whose generators supply ``q_gen`` (pu):
    rewrites ``s_spec`` and the masks ``is_pv`` and ``is_pq``, which must be
    the caller's copies."""
    is_pv[i] = False
    is_pq[i] = True
    s_spec[i] = s_spec[i].real + 1j * (q_gen - q_load[i])


def calc_injections(ybus, v):
    """Complex bus power injections S = V conj(Y V) in per-unit."""
    return v * np.conj(ybus @ v)


def mismatch_vector(ybus, v, s_spec, pvpq, pq):
    """Stacked [dP at PV+PQ; dQ at PQ] for the current complex voltages."""
    ds = calc_injections(ybus, v) - s_spec
    return np.concatenate([ds[pvpq].real, ds[pq].imag])


class _JacobianLayout(NamedTuple):
    """Where the Jacobian's entries at the parsed case's cells go in the
    reduced matrix of one PV/PQ choice."""

    y: np.ndarray  # Ybus at each cell; the first n cells are the diagonal
    rows: np.ndarray  # bus positions of each cell
    cols: np.ndarray
    src: np.ndarray  # flat positions in the (4, cells) block values ...
    dest: np.ndarray  # ... and their flat positions in the m x m Jacobian
    m: int


def _jacobian_layout(ybus, cells: JacobianCells, scatter: JacobianScatter) -> _JacobianLayout:
    """Scatter layout of the reduced Jacobian for ``scatter``'s masks.

    ``cells`` are the parsed case's, which cover this case's Ybus. The layout
    keeps every diagonal cell, so a bus's diagonal terms have a place even
    where its Ybus entry is zero, and the off-diagonal cells where Ybus is
    nonzero; a cell whose branches are all out scatters nothing.
    """
    y = ybus.ravel()[cells.flat]
    keep = y != 0
    keep[:len(ybus)] = True
    sel = np.concatenate([keep] * 4)[scatter.src]
    return _JacobianLayout(y, cells.rows, cells.cols, scatter.src[sel], scatter.dest[sel],
                           scatter.m)


def jacobian(layout: _JacobianLayout, v, s_bus):
    """Analytic polar Jacobian of the mismatch vector, reduced to ``layout``'s
    ``pvpq``/``pq`` rows and columns.

    MATPOWER's ``dSbus_dV`` at Ybus's nonzeros (Tinney & Hart 1967): with
    T = diag(V) conj(Y diag(V)), dS/dVa = j(diag(V conj(I)) - T) and
    dS/dVm = T diag(1/|V|) + diag(conj(I) V/|V|), where ``s_bus`` is
    V conj(I). Each cell is computed once and scattered into a zeroed
    ``m x m`` array.
    """
    inv_vm = 1.0 / np.abs(v)
    t = v[layout.rows] * np.conj(layout.y * v[layout.cols])
    vals = np.empty((4, len(t)))
    # the blocks in src order; 1-D views index faster than vals[i, d]
    dp_dva, dp_dvm, dq_dva, dq_dvm = vals
    dp_dva[:] = t.imag
    dq_dva[:] = -t.real
    t *= inv_vm[layout.cols]
    dp_dvm[:] = t.real
    dq_dvm[:] = t.imag
    n = len(v)  # the first n cells are the diagonal, in bus order
    dp_dva[:n] -= s_bus.imag
    dq_dva[:n] += s_bus.real
    dp_dvm[:n] += s_bus.real * inv_vm
    dq_dvm[:n] += s_bus.imag * inv_vm
    out = np.zeros(layout.m * layout.m)
    out[layout.dest] = vals.ravel()[layout.src]
    return out.reshape(layout.m, layout.m)


def _branch_flows(case, v):
    """Rows p_from, q_from, p_to, q_to (MW, MVar) and i_from (pu) by branch
    position; zero for out-of-service branches."""
    table = case.arrays.branches
    v_f, v_t = v[table.f], v[table.t]
    i_from = table.yff * v_f + table.yft * v_t
    i_to = table.ytt * v_t + table.yft * v_f
    s_from = v_f * np.conj(i_from) * case.base_mva
    s_to = v_t * np.conj(i_to) * case.base_mva
    flows = np.zeros((5, len(case.branches)))
    flows[:, table.pos] = (s_from.real, s_from.imag, s_to.real, s_to.imag, np.abs(i_from))
    return flows


def solve_powerflow(case: NetworkCase, start=None, tolerance: float = TOLERANCE) -> PowerFlowSolution:
    """Newton-Raphson solve with PV->PQ reactive-limit switching.

    ``start``, when given, is a ``(v_mag, v_ang)`` warm start; otherwise the
    solve starts flat. It stops when the largest per-unit mismatch is at or
    below ``tolerance``, or after ``MAX_ITER`` iterations. Returns a solution
    object in all cases; check ``converged``. The slack bus keeps angle 0 and
    its setpoint magnitude throughout.
    """
    if tolerance <= 0:
        raise SettingError("tolerance must be positive")
    inj, topo = case.arrays.injections, case.arrays.topology
    if topo.slack is None:
        raise CaseValidationError("no slack bus")
    ybus = build_ybus(case)
    s_spec, is_pv, is_pq = inj.s_spec.copy(), topo.pv.copy(), topo.pq.copy()
    n = len(case.buses)

    if start is not None:
        vm = np.array(start[0], dtype=float)
        va = np.array(start[1], dtype=float)
    else:
        vm = np.ones(n)
        va = np.zeros(n)
    regulated = ~is_pq
    vm[regulated] = topo.vset[regulated]
    va = va - va[topo.slack]

    cells = topo.jacobian
    scatter = cells.scatter  # the solve's masks are the parsed case's until a pin
    layout = _jacobian_layout(ybus, cells, scatter)
    watch = is_pv & inj.has_gen  # the PV buses whose Q limits are checked
    q_hi, q_lo = inj.qg_max + 1e-9, inj.qg_min - 1e-9
    q_limited = []
    iterations = 0
    converged = False
    diagnostic = ""
    for iteration in range(MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        s_bus = calc_injections(ybus, v)

        if iteration >= 1:
            # One switch check per iteration: pin any PV bus whose generators
            # would have to exceed their reactive capability. A pinned bus
            # stays PQ for the rest of the solve.
            q_gen = s_bus.imag + inj.q_load
            over = q_gen > q_hi
            under = q_gen < q_lo
            hits = np.flatnonzero(watch & (over | under))
            for i in hits:
                pinned = inj.qg_max[i] if over[i] else inj.qg_min[i]
                _pin_q(s_spec, is_pv, is_pq, inj.q_load, i, pinned)
                q_limited.append((int(i), pinned))
            if hits.size:
                scatter = jacobian_scatter(cells.rows, cells.cols, is_pv, is_pq)
                layout = _jacobian_layout(ybus, cells, scatter)
                watch = is_pv & inj.has_gen

        f = (s_bus - s_spec).view(float)[scatter.mismatch]
        max_mis = float(np.max(np.abs(f))) if f.size else 0.0
        if not math.isfinite(max_mis):
            diagnostic = "non-finite mismatch"
            break
        if max_mis <= tolerance:
            converged = True
            iterations = iteration
            break
        if iteration == MAX_ITER:
            diagnostic = f"mismatch {max_mis:.3e} after {MAX_ITER} iterations"
            iterations = iteration
            break
        jac = jacobian(layout, v, s_bus)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            diagnostic = "singular Jacobian"
            iterations = iteration
            break
        npvpq = len(scatter.pvpq)
        va[scatter.pvpq] += dx[:npvpq]
        vm[scatter.pq] += dx[npvpq:]
        iterations = iteration + 1

    v = vm * np.exp(1j * va)
    p_f, q_f, p_t, q_t, i_f = _branch_flows(case, v)
    return PowerFlowSolution(
        v_mag=np.abs(v),
        v_ang=np.angle(v),
        p_from=p_f, q_from=q_f, p_to=p_t, q_to=q_t,
        i_from=i_f,
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mis,
        q_limited=tuple(q_limited),
        diagnostic=diagnostic,
    )


def recompute_max_mismatch(case: NetworkCase, solution: PowerFlowSolution) -> float:
    """Independent mismatch recomputation from the returned voltages.

    Replays the solution's Q-limit pins: those PV buses are PQ with the
    pinned reactive output.
    """
    inj, topo = case.arrays.injections, case.arrays.topology
    s_spec, is_pv, is_pq = inj.s_spec.copy(), topo.pv.copy(), topo.pq.copy()
    for i, pinned in solution.q_limited:
        _pin_q(s_spec, is_pv, is_pq, inj.q_load, i, pinned)
    v = solution.v_mag * np.exp(1j * solution.v_ang)
    f = mismatch_vector(build_ybus(case), v, s_spec, np.flatnonzero(is_pv | is_pq),
                        np.flatnonzero(is_pq))
    return float(np.max(np.abs(f))) if f.size else 0.0


def trace_pv_curve(case: NetworkCase, monitored_bus: int, step: float) -> PvCurve:
    """Stepwise load-scaling PV curve at one bus.

    Loads are scaled uniformly by 1.0, 1.0+step, ...; the extra demand is
    rescheduled across non-slack generators capacity-proportionally (slack
    absorbs anything beyond their limits). Each solve warm-starts from the
    previous point. Tracing stops at the first non-converged solve, or past a
    multiplier of 50; the last converged multiplier is the nose. The
    multiplier is rounded to 12 decimals, so ``step`` must be at least 1e-12.
    """
    if not 0.0 < step < np.inf:
        raise SettingError("step must be positive and finite")
    if step < 1e-12:  # a smaller step can round back to the same load scale
        raise SettingError(f"step {step} is below 1e-12, the resolution of the load scale")
    pos = case.bus_index().get(monitored_bus)
    if pos is None:
        raise CaseValidationError(f"no bus {monitored_bus} in case")
    base_p, _ = case.total_load()
    points = []
    warm = None
    scale = 1.0
    while scale <= 50.0 + 1e-12:
        scaled = scale_loads(case, scale)
        scaled = reschedule_generation(scaled, (scale - 1.0) * base_p)
        sol = solve_powerflow(scaled, warm)
        if not sol.converged:
            break
        points.append((scale, float(sol.v_mag[pos])))
        warm = (sol.v_mag, sol.v_ang)
        scale = round(scale + step, 12)
    if not points:
        raise InfeasibleError("base case infeasible")
    return PvCurve(points=points, nose_scale=points[-1][0])
