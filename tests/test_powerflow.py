import dataclasses
import math

import numpy as np
import pytest

from gridsec import powerflow
from gridsec.arrays import jacobian_map
from gridsec.errors import (
    CaseValidationError,
    GridSecError,
    InfeasibleError,
    IslandingError,
    SettingError,
)
from gridsec.model import (
    BusKind,
    apply_outage,
    bundled_case_path,
    parse_case,
    reschedule_generation,
    scale_loads,
)
from gridsec.powerflow import (
    TOLERANCE,
    build_ybus,
    calc_injections,
    chord_screen,
    jacobian,
    mismatch_vector,
    solve_powerflow,
    trace_pv_curve,
)
from tests.test_security import q_limited


def injections(case, sol):
    """Complex net bus injections (gen - load) of a solution, MW + j MVar."""
    return calc_injections(build_ybus(case), sol.v_mag * np.exp(1j * sol.v_ang)) * case.base_mva


def stacked_mismatch(ybus, v, s_spec, pvpq, pq):
    """Stacked [dP at PV+PQ; dQ at PQ] for the complex voltages ``v``: the
    tests' oracle of the solver's gathered ``mismatch_vector``."""
    ds = calc_injections(ybus, v) - s_spec
    return np.concatenate([ds[pvpq].real, ds[pq].imag])


def recompute_max_mismatch(case, solution):
    """Independent mismatch recomputation from the returned voltages.

    Replays the solution's Q-limit pins from the case's records: each pinned
    PV bus is PQ, and its net Q injection is the pinned generator output
    less the Q of the loads at that bus.
    """
    topo, index = case.topology, case.bus_index()
    s_spec, is_pq = case.injections.s_spec.copy(), topo.pq.copy()
    for i, pinned in solution.q_limited:
        q_load = sum(l.q_mvar for l in case.loads if index[l.bus] == i) / case.base_mva
        is_pq[i] = True
        s_spec[i] = complex(s_spec[i].real, pinned - q_load)
    v = solution.v_mag * np.exp(1j * solution.v_ang)
    f = stacked_mismatch(build_ybus(case), v, s_spec, np.flatnonzero(topo.pv | topo.pq),
                         np.flatnonzero(is_pq))
    return float(np.max(np.abs(f))) if f.size else 0.0


def two_bus_oracle(p_pu, x_pu):
    """Closed-form receiving-end voltage for a lossless two-bus case with a
    pure active-power load: u^2 - u + (PX)^2 = 0 in u = V2^2, high root."""
    px = p_pu * x_pu
    disc = 1.0 - 4.0 * px * px
    if disc < 0:
        return None
    u = (1.0 + math.sqrt(disc)) / 2.0
    v2 = math.sqrt(u)
    delta = -math.asin(px / v2)
    return v2, delta


def test_ybus_two_bus(case2):
    y = build_ybus(case2)
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y, expected, atol=1e-12)


def test_ybus_out_of_service_branch_contributes_nothing(case2):
    branches = (dataclasses.replace(case2.branches[0], in_service=False),)
    dead = dataclasses.replace(case2, branches=branches)
    assert np.all(build_ybus(dead) == 0)


def test_ybus_shunt_halved_on_diagonal(case2):
    branches = (dataclasses.replace(case2.branches[0], b_shunt=0.2),)
    shunted = dataclasses.replace(case2, branches=branches)
    y = build_ybus(shunted) - build_ybus(case2)
    assert y[0, 0] == pytest.approx(0.1j, abs=1e-12)
    assert y[1, 1] == pytest.approx(0.1j, abs=1e-12)
    assert y[0, 1] == 0 and y[1, 0] == 0


def tapped_case9(case9):
    """case9 with off-nominal taps on its generator transformers 1-4, 2-7 and
    3-9, where y_ff = (ys + bc) / tap^2 differs from y_tt = ys + bc."""
    taps = (1.05, 0.95, 1.025) + (1.0,) * 6
    return dataclasses.replace(case9, branches=tuple(
        dataclasses.replace(br, tap=tap) for br, tap in zip(case9.branches, taps)))


def stacked_ybus(case):
    """Ybus scattered from (row, column) index pairs stacked per branch as
    ff, tt, ft, tf, with pi stamps computed here from ``case.branches``: the
    builder's bit-for-bit oracle."""
    tb = case.branch_table
    stamps = []
    for k in tb.pos.tolist():
        br = case.branches[k]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_shunt / 2.0
        stamps.append(((ys + bc) / (br.tap * br.tap), ys + bc, -ys / br.tap, -ys / br.tap))
    y = np.zeros((len(case.buses),) * 2, dtype=complex)
    rows = np.stack([tb.f, tb.t, tb.f, tb.t], axis=1).ravel()
    cols = np.stack([tb.f, tb.t, tb.t, tb.f], axis=1).ravel()
    np.add.at(y, (rows, cols), np.array(stamps, dtype=complex).ravel())
    return y


def test_ybus_bit_identical_to_stacked_oracle(case9, case68):
    """The table's flat cells sum each entry's branches in the oracle's order,
    signed zeros included, and drop the same rows as ``pos`` on an outage."""
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    tc = apply_outage(case68, case68.find_branch("18-42"))
    csc = apply_outage(tc, case68.find_branch("18-49"))
    parallel = parallel_case9()
    cases = (case9, case68, outaged, csc, parallel, cancelled_diagonal_case(), tapped_case9(case9))
    for case in cases:
        assert build_ybus(case).tobytes() == stacked_ybus(case).tobytes()
    n = len(case68.buses)
    full = case68.branch_table
    for case in (outaged, csc):
        tb = case.branch_table
        keep = np.isin(full.pos, tb.pos)
        assert len(tb.pos) == len(full.pos) - len(case.topology.out)
        assert np.array_equal(tb.cells, full.cells[keep])
        assert np.array_equal(tb.stamps, full.stamps[keep])
        assert np.array_equal(tb.cells, np.stack(
            [tb.f * (n + 1), tb.t * (n + 1), tb.f * n + tb.t, tb.t * n + tb.f], axis=1))


def test_two_bus_analytic_solution(case2):
    half = scale_loads(case2, 0.5)  # 50 MW = 0.5 pu
    sol = solve_powerflow(half)
    v2, delta = two_bus_oracle(0.5, 0.1)
    assert sol.converged
    assert sol.v_mag[1] == pytest.approx(v2, abs=1e-6)
    assert math.degrees(sol.v_ang[1]) == pytest.approx(math.degrees(delta), abs=1e-4)
    assert sol.v_ang[0] == 0.0


def test_flat_case_zero_injection(case2):
    empty = dataclasses.replace(case2, loads=())
    sol = solve_powerflow(empty)
    assert sol.converged
    assert sol.iterations <= 1
    assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
    assert np.allclose(sol.v_ang, 0.0, atol=1e-12)
    assert np.allclose(sol.p_from, 0.0, atol=1e-9)


def test_beyond_loadability_diverges(case2):
    heavy = scale_loads(case2, 6.0)  # (PX)^2 > 0.25: no real solution
    sol = solve_powerflow(heavy)
    assert not sol.converged
    assert two_bus_oracle(6.0, 0.1) is None


def test_nonconvergence_is_not_an_error(case2):
    sol = solve_powerflow(scale_loads(case2, 10.0))
    assert sol.converged is False
    assert sol.diagnostic


def slackless_case9(case9):
    """case9 built without validation and with its slack bus made PV."""
    buses = tuple(dataclasses.replace(b, kind=BusKind.PV) if b.kind is BusKind.SLACK else b
                  for b in case9.buses)
    return dataclasses.replace(case9, buses=buses)


def test_solve_without_slack_is_an_error(case9):
    """A case built without validation and without a slack bus gets no view,
    and its solve and PV trace raise instead of referencing a missing slack."""
    slackless = slackless_case9(case9)
    with pytest.raises(CaseValidationError, match="no slack bus"):
        slackless.topology
    with pytest.raises(CaseValidationError, match="no slack bus"):
        solve_powerflow(slackless)
    with pytest.raises(CaseValidationError, match="no slack bus"):
        trace_pv_curve(slackless, 5, 0.1)


# branch position 3 is 4-5, which islands nothing; a slackless case has no label map
@pytest.mark.parametrize("call", [
    lambda case: case.topology,
    solve_powerflow,
    lambda case: trace_pv_curve(case, 5, 0.1),
    lambda case: apply_outage(case, 3),
    lambda case: reschedule_generation(case, 10.0),
    lambda case: chord_screen(case, None, [3]),
], ids=["topology", "solve_powerflow", "trace_pv_curve", "apply_outage",
        "reschedule_generation", "chord_screen"])
def test_every_entry_rejects_a_case_without_slack(case9, call):
    """``Topology.of`` is the one place that rejects a case with no slack, and
    every solve, edit and trace reaches it first."""
    with pytest.raises(CaseValidationError, match="no slack bus"):
        call(slackless_case9(case9))


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, float("nan"), float("inf")])
def test_solve_rejects_a_tolerance_not_positive_and_finite(case9, tolerance):
    """NaN would run every iteration and report no convergence, and inf would
    accept the flat start's mismatch."""
    with pytest.raises(SettingError, match="^tolerance must be positive and finite"):
        solve_powerflow(case9, tolerance=tolerance)


def test_solve_rejects_a_start_without_one_value_per_bus(case9):
    """A warm start holds one magnitude, or a scalar, and one angle per bus;
    the error names both lengths."""
    sol = solve_powerflow(case9)
    with pytest.raises(SettingError, match=r"^start v_mag has shape \(3,\), not one value "
                                           r"per bus \(9,\)$"):
        solve_powerflow(case9, (np.ones(3), np.zeros(3)))
    with pytest.raises(SettingError, match=r"^start v_ang has shape \(8,\)"):
        solve_powerflow(case9, (sol.v_mag, sol.v_ang[1:]))
    with pytest.raises(SettingError, match=r"^start v_ang has shape \(\)"):
        solve_powerflow(case9, (sol.v_mag, 0.0))
    assert solve_powerflow(case9, (1.0, np.zeros(9))).converged  # a scalar v_mag broadcasts
    warm = solve_powerflow(case9, (sol.v_mag, sol.v_ang))
    assert warm.converged and warm.iterations <= 1


def test_mismatch_oracle(case9):
    sol = solve_powerflow(case9)
    assert sol.converged
    assert abs(recompute_max_mismatch(case9, sol) - sol.max_mismatch) <= 1e-12
    assert sol.max_mismatch <= 1e-8


def test_mismatch_oracle_sees_a_wrong_pin(case68):
    """The oracle replays each pin on its own: a pinned Q shifted by 0.01 pu
    shows as a mismatch far above the solver's tolerance."""
    tight = q_limited(case68, 0.8)
    sol = solve_powerflow(tight)
    assert sol.converged and sol.q_limited
    assert recompute_max_mismatch(tight, sol) <= TOLERANCE
    (i, pinned), *rest = sol.q_limited
    shifted = dataclasses.replace(sol, q_limited=((i, pinned + 0.01), *rest))
    assert recompute_max_mismatch(tight, shifted) > 1e-6


def test_power_balance(case9):
    sol = solve_powerflow(case9)
    generation = float(injections(case9, sol).real.sum()) + sum(l.p_mw for l in case9.loads)
    losses = float(np.sum(sol.p_from + sol.p_to))
    imbalance = generation - sum(l.p_mw for l in case9.loads) - losses
    assert abs(imbalance) / case9.base_mva <= 10 * 1e-8


def test_branch_flows_sum_to_bus_injections_with_taps(case9):
    """With off-nominal taps, the flows leaving each bus add up to its
    injection V conj(Ybus V): each end's flow reads the stamps of its own end
    (y_ff and y_ft at the from end, y_tt and y_tf at the to end). At tap 1
    y_ff equals y_tt, and a swap would not show."""
    tapped = tapped_case9(case9)
    sol = solve_powerflow(tapped)
    assert sol.converged
    index = tapped.bus_index()
    leaving = np.zeros(len(tapped.buses), dtype=complex)
    for k, br in enumerate(tapped.branches):
        leaving[index[br.from_bus]] += sol.p_from[k] + 1j * sol.q_from[k]
        leaving[index[br.to_bus]] += sol.p_to[k] + 1j * sol.q_to[k]
    assert np.allclose(leaving, injections(tapped, sol), rtol=0, atol=1e-9)


def masks(n, pvpq, pq):
    """The PV and PQ masks of ``n`` buses whose NR index sets are ``pvpq``/``pq``."""
    is_pv, is_pq = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    is_pv[pvpq] = True
    is_pq[pq] = True
    return is_pv & ~is_pq, is_pq


def reduced_jacobian(case, v, pvpq, pq):
    """The solver's Jacobian of ``case`` for these bus sets, on the layout a
    solve gathers from the case view's cells."""
    ybus = build_ybus(case)
    cells = case.topology.jacobian
    layout = jacobian_map(cells.flat, cells.rows, cells.cols, *masks(len(v), pvpq, pq))
    return jacobian(layout, ybus.ravel()[cells.flat], v, calc_injections(ybus, v))


def test_jacobian_matches_finite_differences(case9):
    ybus = build_ybus(case9)
    n = len(case9.buses)
    rng = np.random.default_rng(5)
    pvpq = list(range(1, n))
    pq = list(range(3, n))
    s_spec = rng.normal(0, 0.5, n) + 1j * rng.normal(0, 0.2, n)
    for _ in range(5):
        vm = 1.0 + rng.uniform(-0.05, 0.05, n)
        va = rng.uniform(-0.2, 0.2, n)
        va[0] = 0.0

        def f(x):
            vm2, va2 = vm.copy(), va.copy()
            va2[pvpq] += x[: len(pvpq)]
            vm2[pq] += x[len(pvpq):]
            v = vm2 * np.exp(1j * va2)
            return stacked_mismatch(ybus, v, s_spec, pvpq, pq)

        v = vm * np.exp(1j * va)
        jac = reduced_jacobian(case9, v, pvpq, pq)
        m = len(pvpq) + len(pq)
        h = 1e-6
        fd = np.zeros((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd[:, j] = (f(e) - f(-e)) / (2 * h)
        scale = np.abs(jac).max()
        assert np.abs(jac - fd).max() / scale <= 1e-6


def dense_jacobian(ybus, v, pvpq, pq):
    """Reference polar Jacobian from dense diagonal-matrix products."""
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    j11 = ds_dva[np.ix_(pvpq, pvpq)].real
    j12 = ds_dvm[np.ix_(pvpq, pq)].real
    j21 = ds_dva[np.ix_(pq, pvpq)].imag
    j22 = ds_dvm[np.ix_(pq, pq)].imag
    return np.block([[j11, j12], [j21, j22]])


def test_jacobian_matches_dense_oracle(case68):
    ybus = build_ybus(case68)
    sol = solve_powerflow(case68)
    assert sol.converged
    kinds = [b.kind for b in case68.buses]
    pvpq = [i for i, k in enumerate(kinds) if k is not BusKind.SLACK]
    pq = [i for i, k in enumerate(kinds) if k is BusKind.PQ]
    pv = [i for i, k in enumerate(kinds) if k is BusKind.PV]
    pinned = sorted(pq + pv[:2])  # two PV buses switched to PQ at a Q limit
    rng = np.random.default_rng(11)
    n = len(case68.buses)
    solved = sol.v_mag * np.exp(1j * sol.v_ang)
    perturbed = ((sol.v_mag + rng.uniform(-0.05, 0.05, n))
                 * np.exp(1j * (sol.v_ang + rng.uniform(-0.1, 0.1, n))))
    for v in (solved, perturbed):
        for q_set in (pq, pinned):
            want = dense_jacobian(ybus, v, pvpq, q_set)
            scale = np.abs(want).max()
            got = reduced_jacobian(case68, v, pvpq, q_set)
            assert got.shape == want.shape == (len(pvpq) + len(q_set),) * 2
            assert np.abs(got - want).max() <= 1e-12 * scale


def broadcast_jacobian(ybus, v, pvpq, pq):
    """The reduced Jacobian selected from the full 2n x 2n one built by
    broadcasting: the dense form, the scatter's bit-for-bit oracle."""
    n = len(v)
    inv_vm = 1.0 / np.abs(v)
    t = v[:, None] * np.conj(ybus * v)
    s_bus = v * np.conj(ybus @ v)
    full = np.empty((2 * n, 2 * n))
    full[:n, :n] = t.imag
    full[n:, :n] = -t.real
    t *= inv_vm
    full[:n, n:] = t.real
    full[n:, n:] = t.imag
    diag = np.arange(n)
    full[diag, diag] -= s_bus.imag
    full[diag + n, diag] += s_bus.real
    full[diag, diag + n] += s_bus.real * inv_vm
    full[diag + n, diag + n] += s_bus.imag * inv_vm
    rows = np.concatenate([np.asarray(pvpq, dtype=int), n + np.asarray(pq, dtype=int)])
    return full[rows][:, rows]


def parallel_case9():
    """case9 with a second, identical circuit beside 4-5: one Ybus cell sums
    two branches."""
    text = bundled_case_path("case9").read_text(encoding="utf-8")
    line = "4 5 0.010  0.085  0.176 1.0 250.0 1\n"
    return parse_case(text.replace(line, line + "4 5 0.010  0.085  0.176 1.0 250.0 1 2\n"))


def test_jacobian_bit_identical_to_broadcast(case9, case68):
    parallel = parallel_case9()
    assert build_ybus(parallel)[3, 4] == pytest.approx(2 * build_ybus(case9)[3, 4])
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    rng = np.random.default_rng(12)
    for case in (case9, case68, outaged, parallel):
        ybus = build_ybus(case)
        sol = solve_powerflow(case)
        assert sol.converged
        topo = case.topology
        pvpq = np.flatnonzero(topo.pv | topo.pq)
        pq = np.flatnonzero(topo.pq)
        pinned = np.sort(np.concatenate([pq, np.flatnonzero(topo.pv)[:2]]))
        n = len(case.buses)
        solved = sol.v_mag * np.exp(1j * sol.v_ang)
        perturbed = ((sol.v_mag + rng.uniform(-0.05, 0.05, n))
                     * np.exp(1j * (sol.v_ang + rng.uniform(-0.1, 0.1, n))))
        for v in (solved, perturbed):
            for q_set in (pq, pinned):
                want = broadcast_jacobian(ybus, v, pvpq, q_set)
                got = reduced_jacobian(case, v, pvpq, q_set)
                assert np.array_equal(got, want)
                f = stacked_mismatch(ybus, v, case.injections.s_spec, pvpq, q_set)
                assert np.linalg.solve(got, -f).tobytes() == np.linalg.solve(want, -f).tobytes()


def cancelled_diagonal_case():
    """Three buses where a series capacitor cancels a line at bus 2: Y_22 is
    zero while its row keeps off-diagonal entries."""
    return parse_case("""\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pq 345.0 - 0.9 1.1
3 pq 345.0 - 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 -0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
[LOAD]
3 30.0 10.0
""")


def test_jacobian_zero_ybus_diagonal():
    """With Y_22 cancelled to zero, bus 2's diagonal terms must still appear."""
    case = cancelled_diagonal_case()
    ybus = build_ybus(case)
    assert ybus[1, 1] == 0 and ybus[1, 0] != 0 and ybus[1, 2] != 0
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = (1.0 + rng.uniform(-0.05, 0.05, 3)) * np.exp(1j * rng.uniform(-0.2, 0.2, 3))
        want = broadcast_jacobian(ybus, v, [1, 2], [1, 2])
        assert np.array_equal(reduced_jacobian(case, v, [1, 2], [1, 2]), want)
        assert want[0, 0] != 0


def scan_jacobian(ybus, pattern, v, pvpq, pq):
    """The reduced Jacobian of ``ybus`` on a layout scanned from
    ``pattern != 0`` (and the diagonal) and mapped from the index sets at
    every call, as each solve once made it from its own Ybus: with the
    parsed case's Ybus as ``pattern``, the bit-for-bit oracle of the layout
    gathered from the case view's cells."""
    n = len(ybus)
    nonzero = pattern != 0
    np.fill_diagonal(nonzero, True)
    flat = np.flatnonzero(nonzero)
    rows, cols = np.divmod(flat, n)
    m = len(pvpq) + len(pq)
    ang, mag = np.full(n, -1), np.full(n, -1)
    ang[pvpq] = np.arange(len(pvpq))
    mag[pq] = np.arange(len(pvpq), m)
    ra, rm, ca, cm = ang[rows], mag[rows], ang[cols], mag[cols]
    r = np.concatenate([ra, ra, rm, rm])
    c = np.concatenate([ca, cm, ca, cm])
    src = np.flatnonzero((r >= 0) & (c >= 0))
    s_bus = calc_injections(ybus, v)
    inv_vm = 1.0 / np.abs(v)
    t = v[rows] * np.conj(ybus.ravel()[flat] * v[cols])
    vals = np.empty((4, len(t)))
    dp_dva, dp_dvm, dq_dva, dq_dvm = vals
    dp_dva[:] = t.imag
    dq_dva[:] = -t.real
    t *= inv_vm[cols]
    dp_dvm[:] = t.real
    dq_dvm[:] = t.imag
    d = np.flatnonzero(rows == cols)
    dp_dva[d] -= s_bus.imag
    dq_dva[d] += s_bus.real
    dp_dvm[d] += s_bus.real * inv_vm
    dq_dvm[d] += s_bus.imag * inv_vm
    out = np.zeros(m * m)
    out[r[src] * m + c[src]] = vals.ravel()[src]
    return out.reshape(m, m)


def test_jacobian_bit_identical_to_scan_oracle(case9, case68):
    """The parsed case's cells cover every edit's Ybus pattern. The layout
    gathered from them gives, byte for byte, the Jacobian scanned from the
    parsed case's Ybus pattern, and the solver's ``mismatch_vector`` the
    stacked oracle, for the case's own masks and for pinned ones. On an
    edit's own pattern the scan leaves out the cells of its outaged
    branches, where the gathered layout writes zeros of either sign: the
    two Jacobians are equal and their solves byte-identical."""
    tc = apply_outage(case68, case68.find_branch("18-42"))
    csc = apply_outage(tc, case68.find_branch("18-49"))
    parallel = parallel_case9()
    one_circuit = apply_outage(parallel, parallel.find_branch("4-5:2"))
    assert build_ybus(one_circuit)[3, 4] != 0
    cancelled = cancelled_diagonal_case()
    rng = np.random.default_rng(14)
    for case, parsed in ((case9, case9), (case68, case68), (csc, case68),
                         (one_circuit, parallel), (cancelled, cancelled)):
        ybus = build_ybus(case)
        n = len(case.buses)
        cells = case.topology.jacobian
        assert set(np.flatnonzero((ybus != 0) | np.eye(n, dtype=bool))) <= set(cells.flat)
        topo = case.topology
        pvpq, pq = np.flatnonzero(topo.pv | topo.pq), np.flatnonzero(topo.pq)
        pinned = np.sort(np.concatenate([pq, np.flatnonzero(topo.pv)[:2]]))
        if not topo.pv.any():
            pinned = pq[1:]  # no PV bus to pin: make the first PQ bus PV instead
        sol = solve_powerflow(case)
        assert sol.converged
        perturbed = ((sol.v_mag + rng.uniform(-0.05, 0.05, n))
                     * np.exp(1j * (sol.v_ang + rng.uniform(-0.1, 0.1, n))))
        for v in (sol.v_mag * np.exp(1j * sol.v_ang), perturbed):
            for q_set in (pq, pinned):
                got = reduced_jacobian(case, v, pvpq, q_set)
                want = scan_jacobian(ybus, build_ybus(parsed), v, pvpq, q_set)
                assert got.tobytes() == want.tobytes()
                jmap = jacobian_map(cells.flat, cells.rows, cells.cols, *masks(n, pvpq, q_set))
                s_spec = case.injections.s_spec
                f = mismatch_vector(calc_injections(ybus, v), s_spec, jmap.mismatch)
                assert f.tobytes() == stacked_mismatch(ybus, v, s_spec, pvpq, q_set).tobytes()
                own = scan_jacobian(ybus, ybus, v, pvpq, q_set)
                assert np.array_equal(got, own)
                assert np.linalg.solve(got, -f).tobytes() == np.linalg.solve(own, -f).tobytes()


def test_jacobian_cells_shared_and_never_stored_by_a_solve(case9, case68):
    """Edits hand the parsed case's Jacobian cells on as one object, and a
    solve that pins a Q limit maps the pinned masks without storing them."""
    cells = case68.topology.jacobian
    scaled = scale_loads(case68, 1.1)
    children = [scaled, reschedule_generation(scaled, 10.0),
                apply_outage(case68, case68.find_branch("17-43")),
                apply_outage(apply_outage(scaled, case68.find_branch("18-42")),
                             case68.find_branch("18-49"))]
    for child in children:
        assert child.topology.jacobian is cells
    assert np.array_equal(cells.pvpq, np.flatnonzero(case68.topology.pv | case68.topology.pq))
    gens = (case9.generators[0], dataclasses.replace(case9.generators[1], q_max=2.0),
            *case9.generators[2:])
    tight = dataclasses.replace(case9, generators=gens)
    topo = tight.topology
    before = tuple(topo)
    saved = [np.copy(a) for a in topo.jacobian]
    assert solve_powerflow(tight).q_limited
    assert all(a is b for a, b in zip(topo, before, strict=True))
    with pytest.raises(AttributeError):  # a topology holds its fields and nothing else
        topo.maps = {}
    assert all(np.array_equal(a, b) for a, b in zip(topo.jacobian, saved))


def test_q_pin_rebuilds_the_jacobian_layout(case9, monkeypatch):
    """A pin turns a PV bus into PQ mid-solve, so the Jacobian gains that
    bus's magnitude row and column from the next iteration on."""
    shapes = []

    def recording(layout, y, v, s_bus):
        jac = jacobian(layout, y, v, s_bus)
        shapes.append(jac.shape)
        return jac

    monkeypatch.setattr(powerflow, "jacobian", recording)
    gens = (case9.generators[0], dataclasses.replace(case9.generators[1], q_max=2.0),
            *case9.generators[2:])
    tight = dataclasses.replace(case9, generators=gens)
    sol = solve_powerflow(tight)
    assert sol.converged
    assert [pos for pos, _ in sol.q_limited] == [1]
    assert recompute_max_mismatch(tight, sol) <= TOLERANCE
    m = 8 + 6  # angles of the non-slack buses, magnitudes of the PQ buses
    pinned_at = shapes.index((m + 1, m + 1))
    assert pinned_at >= 1
    assert shapes == [(m, m)] * pinned_at + [(m + 1, m + 1)] * (len(shapes) - pinned_at)
    assert len(shapes) == sol.iterations


# a PV bus at 2 with a tiny Q ceiling, feeding a load at 3
PINNED_PV = """\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pv 345.0 1.05 0.9 1.1
3 pq 345.0 - 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
2 50.0 -5.0 5.0 100.0 1
[LOAD]
3 80.0 40.0
"""


def test_q_limit_switching(case9):
    # a PV bus with a tiny Q ceiling must be pinned at it
    case = parse_case(PINNED_PV)
    limited = solve_powerflow(case)
    assert limited.converged
    assert limited.q_limited, "expected the PV bus to hit its Q ceiling"
    pos, pinned = limited.q_limited[0]
    assert pos == 1 and pinned == pytest.approx(0.05)
    assert limited.v_mag[1] < 1.05  # no longer holding setpoint
    # the mismatch replay must pin the same bus at the recorded output
    assert abs(recompute_max_mismatch(case, limited) - limited.max_mismatch) <= 1e-12
    repinned = dataclasses.replace(limited, q_limited=((1, 0.0),))
    assert recompute_max_mismatch(case, repinned) == pytest.approx(0.05, abs=1e-6)

    # a meshed network: bus 2 (6.7 MVar unlimited) hits a 2 MVar ceiling and
    # bus 3 (-10.9 MVar unlimited) a -5 MVar floor
    gens = (case9.generators[0],
            dataclasses.replace(case9.generators[1], q_max=2.0),
            dataclasses.replace(case9.generators[2], q_min=-5.0))
    tight = dataclasses.replace(case9, generators=gens)
    meshed = solve_powerflow(tight)
    assert meshed.converged
    assert dict(meshed.q_limited) == {1: pytest.approx(0.02), 2: pytest.approx(-0.05)}
    q_inj = injections(tight, meshed).imag
    assert q_inj[1] == pytest.approx(2.0, abs=1e-6)
    assert q_inj[2] == pytest.approx(-5.0, abs=1e-6)
    assert meshed.v_mag[1] < 1.025 < meshed.v_mag[2]
    assert abs(recompute_max_mismatch(tight, meshed) - meshed.max_mismatch) <= 1e-12


def test_q_pin_nets_out_the_bus_load():
    """A pinned PV bus that also carries a load injects the pinned generator
    output less the load's Q; no bundled case has a load at a PV bus."""
    case = parse_case(PINNED_PV.replace("[LOAD]\n", "[LOAD]\n2 10.0 20.0\n"))
    sol = solve_powerflow(case)
    assert sol.converged
    assert [(pos, float(q)) for pos, q in sol.q_limited] == [(1, 0.05)]
    assert injections(case, sol).imag[1] == pytest.approx(5.0 - 20.0, abs=1e-6)
    assert abs(recompute_max_mismatch(case, sol) - sol.max_mismatch) <= 1e-12


def test_trace_pv_curve_nose_two_bus(case2):
    curve = trace_pv_curve(case2, 2, 0.05)
    assert curve.nose_scale == pytest.approx(5.0, abs=0.05)  # P_max = 1/(2X)
    scales = [s for s, _ in curve.points]
    assert scales == sorted(scales)
    # monotone voltage decline on a radial case
    vmags = [v for _, v in curve.points]
    assert all(b <= a + 1e-12 for a, b in zip(vmags, vmags[1:]))


def test_trace_pv_curve_nose_scales_with_impedance(case2):
    branches = (dataclasses.replace(case2.branches[0], x=0.2),)
    weaker = dataclasses.replace(case2, branches=branches)
    curve = trace_pv_curve(weaker, 2, 0.05)
    assert curve.nose_scale == pytest.approx(2.5, abs=0.05)


def test_trace_infeasible_base(case2):
    hopeless = scale_loads(case2, 10.0)
    with pytest.raises(InfeasibleError, match="base case infeasible"):
        trace_pv_curve(hopeless, 2, 0.05)


def test_outage_noses_never_exceed_base(case9):
    base = trace_pv_curve(case9, 5, 0.05).nose_scale
    for k, br in enumerate(case9.branches):
        try:
            outaged = apply_outage(case9, k)
        except IslandingError:
            continue
        nose = trace_pv_curve(outaged, 5, 0.05).nose_scale
        assert nose <= base + 1e-9, f"outage {br.label()} raised the nose"


def composed_trace(case, bus, step):
    """The PV trace as one case per load step: ``scale_loads``, then
    ``reschedule_generation``, then ``solve_powerflow`` warm-started from
    the last point's solution. Returns the converged points and the bus
    positions their solves pinned at a Q limit."""
    pos = case.bus_index()[bus]
    base_p, _ = case.total_load()
    points, pinned, warm, scale = [], set(), None, 1.0
    while scale <= 50.0 + 1e-12:
        oc = reschedule_generation(scale_loads(case, scale), (scale - 1.0) * base_p)
        sol = solve_powerflow(oc, warm)
        if not sol.converged:
            break
        points.append((scale, float(sol.v_mag[pos])))
        pinned |= {i for i, _ in sol.q_limited}
        warm = (sol.v_mag, sol.v_ang)
        scale = round(scale + step, 12)
    return points, pinned


def assert_trace_is_composed(case, bus, step):
    """The curve equals the composed steps; returns the buses they pinned."""
    points, pinned = composed_trace(case, bus, step)
    curve = trace_pv_curve(case, bus, step)
    assert len(points) > 1
    assert repr(curve.points) == repr(points)
    assert curve.nose_scale == points[-1][0]
    return pinned


def test_trace_matches_the_composed_steps_case9(case9):
    assert_trace_is_composed(case9, 5, 0.02)


@pytest.mark.parametrize("outage", [None, "1-2", "16-17", "18-19"])
def test_trace_matches_the_composed_steps_case68(case68, outage):
    case = case68 if outage is None else apply_outage(case68, case68.find_branch(outage))
    assert_trace_is_composed(case, 8, 0.01)


def test_trace_matches_the_composed_steps_with_shared_buses(case9):
    """Three loads on bus 5, two generators on bus 2, an out-of-service one
    on bus 3, and a small unit that the rescheduling drives to its p_max:
    the bus sums add several units in case order (three loads sum to other
    bits in another order), and the clamp path runs."""
    slack, g2, g3 = case9.generators
    small = dataclasses.replace(g2, p_mw=40.0, p_max=45.0)
    spare = dataclasses.replace(g3, p_mw=50.0, in_service=False)
    extra = (dataclasses.replace(case9.loads[0], p_mw=20.1, q_mvar=5.0),
             dataclasses.replace(case9.loads[0], p_mw=0.7, q_mvar=0.3))
    loads = case9.loads[:1] + extra + case9.loads[1:]
    case = dataclasses.replace(case9, generators=(slack, g2, small, g3, spare), loads=loads)
    points, _ = composed_trace(case, 5, 0.02)
    nose = reschedule_generation(case, (points[-1][0] - 1.0) * case.total_load()[0])
    assert nose.generators[2].p_mw == 45.0  # the clamp path ran
    assert_trace_is_composed(case, 5, 0.02)


def q_bound_case9(case9):
    """case9 with bus 3's generator floored at -8 MVar, which it is under on
    the first load steps only, and bus 2's capped at 30 MVar, which it is
    over from a scale of about 1.25 on."""
    slack, g2, g3 = case9.generators
    return dataclasses.replace(case9, generators=(slack, dataclasses.replace(g2, q_max=30.0),
                                                   dataclasses.replace(g3, q_min=-8.0)))


def test_a_curve_maps_each_pinned_mask_once(case9, monkeypatch):
    """A curve's steps share their pinned Jacobian maps: each distinct PV
    mask is mapped once per curve, and two masks that pin as many buses
    (bus 3 alone on the first steps, bus 2 alone later) stay apart."""
    case = q_bound_case9(case9)
    pv = case.topology.pv
    pinned = []

    def recording(flat, rows, cols, is_pv, is_pq):
        pinned.append(tuple(np.flatnonzero(pv & ~is_pv).tolist()))
        return jacobian_map(flat, rows, cols, is_pv, is_pq)

    monkeypatch.setattr(powerflow, "jacobian_map", recording)
    trace_pv_curve(case, 5, 0.05)
    assert pinned == [(2,), (1,), (1, 2)]  # bus positions
    monkeypatch.undo()
    assert_trace_is_composed(case, 5, 0.05)


def test_case68_curves_map_each_pinned_mask_once(case68, monkeypatch):
    """The study's 74 case68 curves at bus 8, the base case and every
    non-islanding outage (some infeasible): each curve builds one pinned map
    per distinct PV mask its steps meet, however many steps pin it."""
    masks = []  # the PV mask of each map the current curve builds

    def recording(flat, rows, cols, is_pv, is_pq):
        masks.append(is_pv.tobytes())
        return jacobian_map(flat, rows, cols, is_pv, is_pq)

    monkeypatch.setattr(powerflow, "jacobian_map", recording)
    bases = [case68] + [apply_outage(case68, k) for k in case68.branch_table.pos.tolist()
                        if k not in case68.topology.cuts]
    assert len(bases) == 74
    most = 0
    for base in bases:
        masks.clear()
        try:
            trace_pv_curve(base, 8, 0.01)
        except InfeasibleError:
            pass
        assert len(masks) == len(set(masks))
        most = max(most, len(masks))
    assert most > 1  # some curve pins more than one mask


@pytest.mark.parametrize("outage", ["4-6", "8-9"])
def test_trace_matches_the_composed_steps_pinned_on_an_outaged_base(case9, outage):
    """A curve on an outaged base whose steps pin Q limits: the pinned maps
    hold the parsed case's cells, the outaged branch's included, and those
    scatter zeros that leave every point bit-identical."""
    case = q_bound_case9(case9)
    outaged = apply_outage(case, case.find_branch(outage))
    assert outaged.topology.jacobian is case.topology.jacobian
    assert 1 in assert_trace_is_composed(outaged, 5, 0.05)  # bus 2 pins at its cap


def test_curves_on_two_topologies_share_no_map(case9):
    """Curves on two Ybus that pin the same bus, one after the other: each
    curve's maps are its own."""
    case = q_bound_case9(case9)
    outaged = apply_outage(case, case.find_branch("4-6"))
    for c in (case, outaged, case):
        assert_trace_is_composed(c, 5, 0.05)


def test_chord_rejects_an_outage_out_of_service_or_islanding(case68):
    """The chord reads an outage's table row through ``BranchTable.rows``:
    a branch already out is named in an error, not answered for by the next
    in-service branch, and so is one whose outage islands buses."""
    k = case68.find_branch("54-55")
    oc = apply_outage(case68, k)
    sol = solve_powerflow(oc)
    start = (sol.v_mag, sol.v_ang)
    assert chord_screen(oc, start, [k + 1]) == ["accepted"]
    for outages in ([k], [k + 1, k]):
        with pytest.raises(GridSecError, match="branch 54-55 is not in service"):
            chord_screen(oc, start, outages)
    island = case68.find_branch("11-56")
    assert island in oc.topology.cuts
    with pytest.raises(GridSecError, match="no chord screen for branch 11-56: its outage islands"):
        chord_screen(oc, start, [k + 1, island])


def test_trace_leaves_its_case_as_it_found_it(case68):
    """A curve's branch table and Ybus stay local: a table cached on each
    outaged case a study keeps would add up."""
    outaged = apply_outage(case68, case68.find_branch("1-2"))
    keys = set(vars(outaged))
    trace_pv_curve(outaged, 8, 0.05)
    assert set(vars(outaged)) == keys
