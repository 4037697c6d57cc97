import dataclasses
import math

import numpy as np
import pytest

from gridsec import powerflow
from gridsec.errors import IslandingError
from gridsec.model import BusKind, apply_outage, bundled_case_path, parse_case, scale_loads
from gridsec.powerflow import (
    TOLERANCE,
    _jacobian_layout,
    build_ybus,
    calc_injections,
    jacobian,
    mismatch_vector,
    recompute_max_mismatch,
    solve_powerflow,
    trace_pv_curve,
)


def injections(case, sol):
    """Complex net bus injections (gen - load) of a solution, MW + j MVar."""
    return calc_injections(build_ybus(case), sol.v_mag * np.exp(1j * sol.v_ang)) * case.base_mva


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


def test_mismatch_oracle(case9):
    sol = solve_powerflow(case9)
    assert sol.converged
    assert abs(recompute_max_mismatch(case9, sol) - sol.max_mismatch) <= 1e-12
    assert sol.max_mismatch <= 1e-8


def test_power_balance(case9):
    sol = solve_powerflow(case9)
    generation = float(injections(case9, sol).real.sum()) + sum(l.p_mw for l in case9.loads)
    losses = float(np.sum(sol.p_from + sol.p_to))
    imbalance = generation - sum(l.p_mw for l in case9.loads) - losses
    assert abs(imbalance) / case9.base_mva <= 10 * 1e-8


def reduced_jacobian(ybus, v, pvpq, pq):
    """The solver's Jacobian for these bus sets, on a layout of its own."""
    return jacobian(_jacobian_layout(ybus, pvpq, pq), v, calc_injections(ybus, v))


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
            return mismatch_vector(ybus, v, s_spec, pvpq, pq)

        v = vm * np.exp(1j * va)
        jac = reduced_jacobian(ybus, v, pvpq, pq)
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
            for index in (list, np.array):
                got = reduced_jacobian(ybus, v, index(pvpq), index(q_set))
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
        kinds = case.arrays.topology.kinds
        pvpq = np.flatnonzero(kinds != BusKind.SLACK)
        pq = np.flatnonzero(kinds == BusKind.PQ)
        pinned = np.sort(np.concatenate([pq, np.flatnonzero(kinds == BusKind.PV)[:2]]))
        n = len(case.buses)
        solved = sol.v_mag * np.exp(1j * sol.v_ang)
        perturbed = ((sol.v_mag + rng.uniform(-0.05, 0.05, n))
                     * np.exp(1j * (sol.v_ang + rng.uniform(-0.1, 0.1, n))))
        for v in (solved, perturbed):
            for q_set in (pq, pinned):
                want = broadcast_jacobian(ybus, v, pvpq, q_set)
                got = reduced_jacobian(ybus, v, pvpq, q_set)
                assert np.array_equal(got, want)
                f = mismatch_vector(ybus, v, case.arrays.injections.s_spec, pvpq, q_set)
                assert np.linalg.solve(got, -f).tobytes() == np.linalg.solve(want, -f).tobytes()


def test_jacobian_zero_ybus_diagonal():
    """A series capacitor cancelling a line at bus 2 zeroes Y_22 while its row
    keeps off-diagonal entries; the bus's diagonal terms must still appear."""
    case = parse_case("""\
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
    ybus = build_ybus(case)
    assert ybus[1, 1] == 0 and ybus[1, 0] != 0 and ybus[1, 2] != 0
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = (1.0 + rng.uniform(-0.05, 0.05, 3)) * np.exp(1j * rng.uniform(-0.2, 0.2, 3))
        want = broadcast_jacobian(ybus, v, [1, 2], [1, 2])
        assert np.array_equal(reduced_jacobian(ybus, v, [1, 2], [1, 2]), want)
        assert want[0, 0] != 0


def test_q_pin_rebuilds_the_jacobian_layout(case9, monkeypatch):
    """A pin turns a PV bus into PQ mid-solve, so the Jacobian gains that
    bus's magnitude row and column from the next iteration on."""
    shapes = []

    def recording(layout, v, s_bus):
        jac = jacobian(layout, v, s_bus)
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


def test_q_limit_switching(case9):
    # a PV bus with a tiny Q ceiling must be pinned at it
    case = parse_case("""\
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
""")
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
    from gridsec.errors import InfeasibleError

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
