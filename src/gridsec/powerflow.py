"""Newton-Raphson AC power flow and a stepwise load-scaling PV-curve tracer.

The solver works in polar coordinates on the full complex bus-admittance
matrix. It reads the case through its cached arrays (``NetworkCase.topology``,
``branch_table`` and ``injections``), the one source of its layout: one
branch table feeds both the admittance matrix, which one ``np.add.at`` sums
from the table's flat ``cells`` and ``stamps``, and the branch flows, and the
bus spec is read from the topology: the slack position and the ``pv``/``pq``
masks. A solve copies only the three arrays a Q-limit pin rewrites,
``s_spec``, ``pv`` and ``pq``.
Each NR iteration evaluates the Jacobian only at Ybus's nonzero cells (and
its diagonal) and scatters the values into the reduced ``pvpq``/``pq``
matrix. The cells and their scatter map are one ``arrays.JacobianMap``
(``Topology.jacobian``), made once per parsed case and shared by its edits,
which only remove branches; a solve gathers Ybus at those cells and drops
the off-diagonal ones that are zero, and after a pin it asks
``arrays.jacobian_map`` for the pinned masks' map. Each entry equals,
bit for bit, the same entry selected from the dense 2n x 2n ``dSbus_dV``.
These live maps are kept in a dict by PV mask (on one Ybus the PV mask
fixes the PQ mask), which lives as long as its Ybus: one solve in
``solve_powerflow``, every step of a curve in ``trace_pv_curve``, whose
steps each restart from the case's masks and so re-pin the same buses.
The Jacobian's values, its LU solve and the mismatch stay per iteration.
``mismatch_vector`` is the one residual, the one test of convergence, for
both NR and the chord: S_bus - S_spec gathered at the map's ``mismatch``.
Reactive-limit switching is one-way: a PV bus whose generators would exceed
their Q capability is pinned there as a PQ bus and never switches back to PV
within the solve. One NR loop, ``_newton``, serves ``solve_powerflow`` and
``trace_pv_curve``; a PV curve builds its branch table and Ybus once and
keeps them off the caller's case. Non-convergence is an outcome, not an
exception: downstream screening treats a diverged post-contingency solve as
an Insecure label. ``chord_screen`` checks many branch outages of one case at once by
chord iterations on its inverted Jacobian, with a low-rank correction per
outage; it only ever accepts an outage as clearly secure, and leaves every
other to ``solve_powerflow``. It and ``security.predicted_loading`` find an
outage's table row through ``outage_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import Injections, JacobianMap, _bus_sums, jacobian_map
from .errors import CaseValidationError, GridSecError, InfeasibleError, SettingError
from .model import NetworkCase, _dispatch


TOLERANCE = 1e-8  # per-unit power mismatch
MAX_ITER = 20
LOADING_LIMIT = 1.0  # fraction of a branch's mva_rating
# Guards of chord_screen. An outage is accepted only when every bus voltage
# and branch loading clears its limit by more than MARGIN_BAND: the chord
# solution differs from NR's by under 1e-9 pu, far inside it. NR pins a PV
# bus on its own iterates, which after the first differ from the chord's, so
# a watched bus whose Q comes within Q_BAND (pu) of a limit at any iterate
# goes to the exact solver, as does an outage the chord has not solved after
# CHORD_MAX_ITER iterations.
MARGIN_BAND = 1e-6
Q_BAND = 0.05
CHORD_MAX_ITER = 20
_CHORD_OUTCOMES = ("", "non-finite", "q-limit", "accepted", "no-convergence", "band")


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
    return _ybus(case.branch_table, len(case.buses))


def _ybus(tb, n):
    """Ybus of the ``n`` buses from the branch table ``tb``."""
    y = np.zeros(n * n, dtype=complex)
    # Stamps go in per branch as ff, tt, ft, tf; np.add.at sums repeated cells
    # in index order, so each entry adds up its branches in case order.
    np.add.at(y, tb.cells.ravel(), tb.stamps.ravel())
    return y.reshape(n, n)


def calc_injections(ybus, v):
    """Complex bus power injections S = V conj(Y V) in per-unit."""
    return v * np.conj(ybus @ v)


def mismatch_vector(s_bus, s_spec, mismatch):
    """The NR residual [dP at PV+PQ; dQ at PQ] of the injections ``s_bus``
    (one row per outage on the leading axes) against ``s_spec``, gathered at
    a ``JacobianMap``'s ``mismatch`` floats."""
    return (s_bus - s_spec).view(float)[..., mismatch]


def _live_map(ybus, jmap: JacobianMap):
    """Ybus at ``jmap``'s cells, the first n of which are the diagonal, and
    ``jmap`` without the off-diagonal cells where Ybus is zero.

    ``jmap``'s cells are the parsed case's, which cover this case's Ybus. It
    keeps every diagonal cell, so a bus's diagonal terms have a place even
    where its Ybus entry is zero; a cell whose branches are all out scatters
    nothing.
    """
    y = ybus.ravel()[jmap.flat]
    keep = y != 0
    keep[:len(ybus)] = True
    sel = np.concatenate([keep] * 4)[jmap.src]
    return y, JacobianMap(jmap.flat, jmap.rows, jmap.cols, jmap.pvpq, jmap.pq, jmap.src[sel],
                          jmap.dest[sel], jmap.m, jmap.mismatch)


def jacobian(layout: JacobianMap, y, v, s_bus):
    """Analytic polar Jacobian of the mismatch vector, reduced to ``layout``'s
    ``pvpq``/``pq`` rows and columns, from Ybus at its cells, ``y``.

    MATPOWER's ``dSbus_dV`` at Ybus's nonzeros (Tinney & Hart 1967): with
    T = diag(V) conj(Y diag(V)), dS/dVa = j(diag(V conj(I)) - T) and
    dS/dVm = T diag(1/|V|) + diag(conj(I) V/|V|), where ``s_bus`` is
    V conj(I). Each cell is computed once and scattered into a zeroed
    ``m x m`` array.
    """
    inv_vm = 1.0 / np.abs(v)
    t = v[layout.rows] * np.conj(y * v[layout.cols])
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
    position on the last axis, for bus voltages ``v`` on theirs; zero for
    out-of-service branches."""
    table = case.branch_table
    y_ff, y_tt, y_ft, y_tf = table.stamps.T
    v_f, v_t = v[..., table.f], v[..., table.t]
    i_from = y_ff * v_f + y_ft * v_t
    i_to = y_tt * v_t + y_tf * v_f
    s_from = v_f * np.conj(i_from) * case.base_mva
    s_to = v_t * np.conj(i_to) * case.base_mva
    flows = np.zeros((5, *v.shape[:-1], len(case.branches)))
    flows[..., table.pos] = (s_from.real, s_from.imag, s_to.real, s_to.imag, np.abs(i_from))
    return flows


def _first_iterate(topo, start):
    """The first iterate ``(v_mag, v_ang)``, as new arrays, from the warm start
    ``start`` or a flat one: PV and slack magnitudes at their setpoints, and
    angles measured from the slack's."""
    if start is None:
        vm, va = 1.0, np.zeros(len(topo.vset))
    else:
        vm, va = start[0], np.asarray(start[1], dtype=float)
    return np.where(topo.pq, vm, topo.vset), va - va[topo.slack]


def _newton(topo, inj: Injections, ybus, maps, start, tolerance):
    """``solve_powerflow``'s NR loop on ``topo``'s bus spec, ``inj`` and Ybus.
    ``maps`` holds the ``_live_map`` of each PV mask, by ``is_pv.tobytes()``,
    for this Ybus; the loop adds the masks it meets. Returns the last
    iterate's complex voltages, then the solution's fields from
    ``converged`` on."""
    s_spec, is_pv, is_pq = inj.s_spec.copy(), topo.pv.copy(), topo.pq.copy()
    vm, va = _first_iterate(topo, start)
    key = is_pv.tobytes()
    if key not in maps:
        maps[key] = _live_map(ybus, topo.jacobian)
    y, layout = maps[key]
    watch = is_pv & inj.has_gen  # the PV buses whose Q limits are checked
    q_hi, q_lo = inj.qg_max + 1e-9, inj.qg_min - 1e-9
    q_limited = []
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
                # bus i turns PQ, its generators supplying the pinned Q
                pinned = inj.qg_max[i] if over[i] else inj.qg_min[i]
                is_pv[i], is_pq[i] = False, True
                s_spec[i] = s_spec[i].real + 1j * (pinned - inj.q_load[i])
                q_limited.append((int(i), pinned))
            if hits.size:
                # within one Ybus the PV mask fixes the PQ mask: the pinned
                # buses are the PV buses no longer in it
                key = is_pv.tobytes()
                if key not in maps:
                    maps[key] = _live_map(ybus, jacobian_map(layout.flat, layout.rows, layout.cols,
                                                             is_pv, is_pq))
                y, layout = maps[key]
                watch = is_pv & inj.has_gen

        f = mismatch_vector(s_bus, s_spec, layout.mismatch)
        max_mis = float(np.abs(f).max()) if f.size else 0.0
        if not math.isfinite(max_mis):
            diagnostic = "non-finite mismatch"
            break
        if max_mis <= tolerance:
            converged = True
            break
        if iteration == MAX_ITER:
            diagnostic = f"mismatch {max_mis:.3e} after {MAX_ITER} iterations"
            break
        jac = jacobian(layout, y, v, s_bus)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            diagnostic = "singular Jacobian"
            break
        npvpq = len(layout.pvpq)
        va[layout.pvpq] += dx[:npvpq]
        vm[layout.pq] += dx[npvpq:]
    # every exit breaks before the update: v is vm and va's
    return v, converged, iteration, max_mis, tuple(q_limited), diagnostic


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
    inj, topo = case.injections, case.topology
    ybus = build_ybus(case)
    v, *outcome = _newton(topo, inj, ybus, {}, start, tolerance)
    p_f, q_f, p_t, q_t, i_f = _branch_flows(case, v)
    return PowerFlowSolution(np.abs(v), np.angle(v), p_f, q_f, p_t, q_t, i_f, *outcome)


def outage_rows(case: NetworkCase, outages, what) -> np.ndarray:
    """The branch table rows of ``outages``, branch positions that must be in
    service (``BranchTable.rows``) and island no bus; ``what`` names the
    result that an islanding outage has none of."""
    cuts = case.topology.cuts
    for k in outages:
        if k in cuts:
            raise GridSecError(f"no {what} for branch {case.branches[k].label()}: "
                               "its outage islands buses")
    return case.branch_table.rows(outages, case.branches)


def chord_screen(case: NetworkCase, start, outages) -> list:
    """Solve the outage of each in-service, non-islanding branch position in
    ``outages`` by chord iterations from the warm start ``start`` (as in
    ``solve_powerflow``), and say for each whether it is clearly secure.

    Compensation (Alsac, Stott & Tinney, IEEE Trans. PAS 1983): the case's
    reduced Jacobian at the start is inverted once. An outage changes Ybus on
    its branch's two end buses only, and so the Jacobian, which is linear in
    Ybus, by a rank-4 term on their P/Q rows and angle/magnitude columns.
    Sherman-Morrison-Woodbury makes that a 4 x 4 correction of the inverse,
    so no outage's Jacobian or Ybus is built. Every outage then iterates
    ``x <- x - Jk^-1 f(x)`` in one batch, on the case's PV/PQ masks; the
    first iterate is NR's.

    Returns one outcome per outage: ``"accepted"`` when it converged within
    ``CHORD_MAX_ITER`` iterations and every bus voltage and branch loading
    (against ``LOADING_LIMIT`` of its rating) clears its limit by more than
    ``MARGIN_BAND``; else ``"non-finite"``, ``"q-limit"`` (a watched PV bus
    within ``Q_BAND`` of a Q limit at an iterate), ``"no-convergence"`` or
    ``"band"``. Only the exact solver may decide an outage not accepted.
    An outage that is out of service or islands buses is a ``GridSecError``.
    """
    inj, topo, tb, k = case.injections, case.topology, case.branch_table, len(outages)
    rows = outage_rows(case, outages, "chord screen")
    ybus = build_ybus(case)
    vm, va = _first_iterate(topo, start)
    v = vm * np.exp(1j * va)
    y, layout = _live_map(ybus, topo.jacobian)
    j0 = jacobian(layout, y, v, calc_injections(ybus, v))
    # each outage's Ybus change on its end buses [f, t], and the Jacobian's at
    # the start (dS/dVa, dS/dVm as in jacobian()) on rows P_f P_t Q_f Q_t
    each, ends = np.arange(k)[:, None], np.stack([tb.f[rows], tb.t[rows]], axis=1)
    dy = -tb.stamps[rows][:, [0, 2, 3, 1]].reshape(k, 2, 2)
    tm = v[ends][:, :, None] * np.conj(dy * v[ends][:, None, :])
    ds = np.eye(2) * tm.sum(axis=2)[:, :, None]
    c = np.concatenate([1j * (ds - tm), (tm + ds) / vm[ends][:, None, :]], axis=2)
    c = np.concatenate([c.real, c.imag], axis=1)
    # reduced positions of those rows, which columns Va/Vm of the same buses
    # share; where NR does not solve for one, it points at 0 and c is zeroed
    pos = np.full(2 * len(vm), -1)
    pos[layout.mismatch] = np.arange(layout.m)
    idx = pos[np.concatenate([2 * ends, 2 * ends + 1], axis=1)]
    c *= (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    idx[idx < 0] = 0
    p = len(layout.pvpq)
    try:
        # A = J0^-1 by blocks (Schur complement of the dP/dVa block), written
        # over J0: on case68 (m = 119, one BLAS thread) it takes about half the
        # time of np.linalg.inv(J0), and allocates no m x m array of its own
        a11 = np.linalg.inv(j0[:p, :p])
        b = a11 @ j0[:p, p:]
        s22 = np.linalg.inv(j0[p:, p:] - j0[p:, :p] @ b)
        cc = j0[p:, :p] @ a11
        inv = j0
        inv[p:, p:] = s22
        inv[:p, p:] = -(b @ s22)
        inv[p:, :p] = -(s22 @ cc)
        inv[:p, :p] = a11 - inv[:p, p:] @ cc
        # Jk^-1 = A - A U C (I + U'A U C)^-1 U'A, so Jk^-1 f is g = A f less
        # g[idx] (I + C'A'[idx, idx])^-1 C' (A U)'
        ct = c.transpose(0, 2, 1)
        corr = np.linalg.solve(np.eye(4) + ct @ inv.T[idx[:, :, None], idx[:, None, :]], ct)
        corr = corr @ inv.T[idx]
    except np.linalg.LinAlgError:
        return ["non-finite"] * k
    vm, va = np.tile(vm, (k, 1)), np.tile(va, (k, 1))
    watch = topo.pv & inj.has_gen
    q_lo, q_hi = inj.qg_min[watch] + Q_BAND, inj.qg_max[watch] - Q_BAND
    out = np.zeros(k, dtype=int)  # an index into _CHORD_OUTCOMES; 0 while open
    with np.errstate(all="ignore"):
        for iteration in range(CHORD_MAX_ITER + 1):
            v = vm * np.exp(1j * va)
            # one matrix-vector product per outage: a first GEMM here would
            # raise the peak RSS
            i = (ybus @ v[:, :, None])[:, :, 0]
            i[each, ends] += (dy * v[each, ends][:, None, :]).sum(axis=2)
            s_bus = v * np.conj(i)
            f = mismatch_vector(s_bus, inj.s_spec, layout.mismatch)
            err = np.abs(f).max(axis=1)
            # an outage's first event settles it: non-finite, then Q near a
            # limit (NR checks from its iterate 1), then convergence
            open_ = out == 0
            out[open_ & (err <= TOLERANCE)] = 3
            if iteration:
                q = s_bus.imag[:, watch] + inj.q_load[watch]
                out[open_ & ((q < q_lo) | (q > q_hi)).any(axis=1)] = 2
            out[open_ & ~np.isfinite(err)] = 1
            if out.all() or iteration == CHORD_MAX_ITER:
                break
            g = (inv @ f[:, :, None])[:, :, 0]
            dx = g - (g[each, idx][:, None] @ corr)[:, 0]
            va[:, layout.pvpq] -= dx[:, :p]
            vm[:, layout.pq] -= dx[:, p:]
        out[out == 0] = 4
        p_f, q_f, p_t, q_t, _ = _branch_flows(case, v)[:, :, tb.pos]
        loading = np.maximum(np.hypot(p_f, q_f), np.hypot(p_t, q_t)) / tb.rating
        loading[each[:, 0], rows] = 0.0  # the outaged branch
        margin = np.minimum(np.minimum(vm - topo.v_limits[0], topo.v_limits[1] - vm).min(axis=1),
                            LOADING_LIMIT - loading.max(axis=1))
        out[(out == 3) & ~(margin > MARGIN_BAND)] = 5
    return [_CHORD_OUTCOMES[o] for o in out]


def trace_pv_curve(case: NetworkCase, monitored_bus: int, step: float) -> PvCurve:
    """Stepwise load-scaling PV curve at one bus.

    Loads are scaled uniformly by 1.0, 1.0+step, ...; the extra demand is
    rescheduled across non-slack generators capacity-proportionally (slack
    absorbs anything beyond their limits), as ``scale_loads`` and
    ``reschedule_generation`` would. Each solve warm-starts from the
    previous point. Tracing stops at the first non-converged solve, or past a
    multiplier of 50; the last converged multiplier is the nose. A step
    that could take more than 1e6 solves to reach 50 (one below 4.9e-5) is
    rejected before any solve; so is every step too small to move the
    multiplier, which is rounded to 12 decimals.

    A curve builds its branch table and Ybus once, and keeps them off
    ``case`` (a study stores many outaged cases), and maps each PV mask its
    steps pin only once; a step makes only its ``Injections`` for
    ``_newton``: no case, no branch flows.
    """
    if not 0.0 < step < np.inf:
        raise SettingError("step must be positive and finite")
    if (50.0 - 1.0) / step > 1e6:  # one solve per step until the nose or 50
        raise SettingError(f"step {step} could take more than 1e6 solves to reach a load scale of 50")
    pos = case.bus_index().get(monitored_bus)
    if pos is None:
        raise CaseValidationError(f"no bus {monitored_bus} in case")
    inj, topo, n = case.injections, case.topology, len(case.buses)
    ybus = _ybus(topo.branches(), n)
    maps = {}  # every step's live maps, by PV mask
    gens = [(i, g) for i, g in enumerate(case.generators) if g.in_service]
    gen_bus = np.array([topo.bus_index[g.bus] for _, g in gens], dtype=int)
    load_bus = np.array([topo.bus_index[l.bus] for l in case.loads], dtype=int)
    p_load, q_load = np.array([(l.p_mw, l.q_mvar) for l in case.loads], dtype=float).reshape(-1, 2).T
    slack_id = case.buses[topo.slack].id
    base_p, _ = case.total_load()
    points = []
    warm = None
    scale = 1.0
    while scale <= 50.0 + 1e-12:
        p_gen = _dispatch(case.generators, slack_id, (scale - 1.0) * base_p)
        s_spec, q_pu = _bus_sums(n, case.base_mva, gen_bus, [p_gen.get(i, g.p_mw) for i, g in gens],
                                 load_bus, p_load * scale, q_load * scale)
        v, converged, *_ = _newton(topo, Injections(s_spec, inj.qg_min, inj.qg_max, q_pu, inj.has_gen),
                                   ybus, maps, warm, TOLERANCE)
        if not converged:
            break
        v_mag = np.abs(v)
        points.append((scale, float(v_mag[pos])))
        warm = (v_mag, np.angle(v))
        scale = round(scale + step, 12)
    if not points:
        raise InfeasibleError("base case infeasible")
    return PvCurve(points=points, nose_scale=points[-1][0])
