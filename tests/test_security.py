import dataclasses

import numpy as np
import pytest

from gridsec.data import extract_features, feature_names, generate_oc
from gridsec.errors import GridSecError, IslandingError
from gridsec.model import NetworkCase, apply_outage, scale_loads
from gridsec.powerflow import solve_powerflow
from gridsec.security import (
    LOADING_LIMIT,
    Category,
    Label,
    OperatingLimits,
    Violation,
    categorize,
    check_limits,
    classify_configuration,
    compute_piv,
    max_flow_delta_mw,
    parse_contingency_list,
    run_contingency_screen,
    screen_configurations,
)


class FakeSolution:
    converged = True

    def __init__(self, v_mag):
        self.v_mag = np.asarray(v_mag, dtype=float)


def test_piv_zero_when_voltages_unchanged():
    pre = FakeSolution([1.0, 0.97, 1.02])
    assert compute_piv(pre, pre) == pytest.approx(0.0, abs=1e-12)


def test_piv_unit_deviation_closed_form():
    # one bus moved by exactly dv_limit: contribution w/(2n) * 1 = 0.5
    pre = FakeSolution([1.0, 1.0])
    post = FakeSolution([1.0, 0.95])
    assert compute_piv(pre, post) == pytest.approx(0.5, abs=1e-12)


def test_piv_sum_of_contributions():
    # deviations of 1x and 2x the limit: 0.5 * (1 + 4) = 2.5
    pre = FakeSolution([1.0, 1.0])
    post = FakeSolution([0.95, 1.10])
    assert compute_piv(pre, post) == pytest.approx(2.5, abs=1e-12)


def test_piv_permutation_invariance():
    rng = np.random.default_rng(3)
    pre = rng.uniform(0.95, 1.05, 12)
    post = pre + rng.uniform(-0.06, 0.06, 12)
    perm = rng.permutation(12)
    a = compute_piv(FakeSolution(pre), FakeSolution(post))
    b = compute_piv(FakeSolution(pre[perm]), FakeSolution(post[perm]))
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("piv,flow,expected", [
    (0.05, 0.0, Category.NEGLIGIBLE),
    (0.1, 1000.0, Category.NEGLIGIBLE),     # boundary: not strictly above
    (0.10000001, 0.0, Category.TC),
    (0.5, 199.999, Category.TC),
    (0.5, 200.0, Category.CSC),             # boundary: at threshold -> CSC
    (0.5, 350.0, Category.CSC),
    (0.0, 400.0, Category.NEGLIGIBLE),      # flow alone never promotes
])
def test_categorize_decision_table(piv, flow, expected):
    assert categorize(piv, flow) is expected


def test_classify_configuration_on_network(case68):
    pre = solve_powerflow(case68)
    spec = "47-53"
    idx = next(k for k, b in enumerate(case68.branches) if b.label() == spec)
    post_case = apply_outage(case68, idx)
    post = solve_powerflow(post_case)
    assert pre.converged and post.converged
    result = classify_configuration(pre, post, post_case, spec)
    assert result.pi_v > 0.1
    assert result.category in (Category.TC, Category.CSC)
    assert result.max_flow_delta_mw == pytest.approx(
        max_flow_delta_mw(pre, post, post_case))


def test_check_limits_clean(case9):
    sol = solve_powerflow(case9)
    violations = check_limits(sol, case9, OperatingLimits())
    assert violations == []


def test_check_limits_flags_voltage(case9):
    sol = solve_powerflow(case9)
    tight = OperatingLimits(v_min=0.90, v_max=1.02)
    violations = check_limits(sol, case9, tight)
    assert any(v.kind == "high-voltage" for v in violations)


def derated(case, factor):
    """The case with every branch's ``mva_rating`` scaled by ``factor``."""
    branches = tuple(dataclasses.replace(br, mva_rating=br.mva_rating * factor)
                     for br in case.branches)
    return NetworkCase(case.base_mva, case.buses, branches, case.generators, case.loads)


def test_check_limits_flags_loading(case9):
    light = derated(case9, 0.2)
    violations = check_limits(solve_powerflow(light), light)
    assert any(v.kind == "overload" for v in violations)


def loop_violations(solution, case, limits):
    """Reference check_limits: one Python pass over buses, then branches."""
    violations = []
    for pos, bus in enumerate(case.buses):
        vm = float(solution.v_mag[pos])
        if vm < limits.v_min:
            violations.append(Violation("low-voltage", f"bus {bus.id}", vm, limits.v_min))
        elif vm > limits.v_max:
            violations.append(Violation("high-voltage", f"bus {bus.id}", vm, limits.v_max))
    for k, br in enumerate(case.branches):
        if not br.in_service:
            continue
        s_from = float(np.hypot(solution.p_from[k], solution.q_from[k]))
        s_to = float(np.hypot(solution.p_to[k], solution.q_to[k]))
        loading = max(s_from, s_to) / br.mva_rating
        if loading > LOADING_LIMIT:
            violations.append(
                Violation("overload", f"branch {br.label()}", loading, LOADING_LIMIT))
    return violations


def with_flow_on(solution, positions):
    """The solution with a 10 GW flow left on the branches at ``positions``."""
    p_from = solution.p_from.copy()
    p_from[list(positions)] = 1e4
    return dataclasses.replace(solution, p_from=p_from)


def test_check_limits_matches_loop_reference(case9):
    light = derated(case9, 0.3)
    k = light.find_branch("6-9")
    outaged = apply_outage(light, k)
    # a flow left on the switched-out branch must not count as an overload
    sol = with_flow_on(solve_powerflow(outaged), [k])
    limits = OperatingLimits(v_min=1.0, v_max=1.02)
    got = check_limits(sol, outaged, limits)
    assert got == loop_violations(sol, outaged, limits)
    # buses by position, high and low interleaved, then branches by position
    assert [v.kind for v in got] == (["high-voltage"] * 3 + ["low-voltage"] * 2
                                     + ["high-voltage"] + ["overload"] * 5)
    assert "branch 6-9" not in {v.element for v in got}


def loop_features(solution, base_case):
    """Reference extract_features: one Python pass per channel."""
    index = base_case.bus_index()
    buses = [index[i] for i in sorted({l.bus for l in base_case.loads})]
    live = [k for k, br in enumerate(base_case.branches) if br.in_service]
    return np.array([solution.v_mag[i] for i in buses] + [solution.v_ang[i] for i in buses]
                    + [solution.i_from[k] for k in live] + [solution.p_from[k] for k in live]
                    + [solution.q_from[k] for k in live])


def test_double_outage_read_through_the_view(case68):
    """A TC topology plus a CSC outage: the view holds both outaged
    positions, and the limit check, the flow-change rule and the measurement
    vector skip both, as their loop references do."""
    oc, pre, _, _ = generate_oc(case68, (7, 1), tc="18-42")
    post_case = apply_outage(oc, oc.find_branch("18-49"))
    out = post_case.arrays.topology.out
    assert len(out) == 2
    # flows left on the switched-out branches must count nowhere
    post = with_flow_on(solve_powerflow(post_case, (pre.v_mag, pre.v_ang)), out)
    limits = OperatingLimits(v_min=1.0, v_max=1.02)
    violations = check_limits(post, post_case, limits)
    assert violations == loop_violations(post, post_case, limits)
    assert any(v.kind == "overload" for v in violations)
    live = [k for k, br in enumerate(post_case.branches) if br.in_service]
    assert max_flow_delta_mw(pre, post, post_case) == max(
        abs(post.p_from[k] - pre.p_from[k]) for k in live)
    for base in (case68, post_case):
        assert np.array_equal(extract_features(post, base), loop_features(post, base))
    assert len(feature_names(post_case)) == 2 * 52 + 3 * 81


def test_screen_islanding_is_insecure(case2):
    result = run_contingency_screen(case2, ["1-2"], OperatingLimits())
    assert result.label is Label.INSECURE
    assert result.first_failure == "1-2"
    assert result.details[0].islanded


def test_screen_light_nine_bus_secure(case9):
    light = scale_loads(case9, 0.8)
    result = run_contingency_screen(light, ["4-5", "7-8", "6-9"], OperatingLimits())
    assert result.label is Label.SECURE


def test_screen_base_nine_bus_insecure(case9):
    result = run_contingency_screen(case9, ["4-5", "7-8", "6-9"], OperatingLimits())
    assert result.label is Label.INSECURE
    assert result.first_failure


def test_screen_monotone_in_contingency_set(case9):
    """Removing contingencies can only weaken the screen."""
    full = run_contingency_screen(case9, ["4-5", "7-8", "6-9"], OperatingLimits())
    failing = full.first_failure.split()[0] if full.first_failure else None
    reduced = [c for c in ("4-5", "7-8", "6-9") if c != "4-5"]
    partial = run_contingency_screen(case9, reduced, OperatingLimits())
    if partial.label is Label.INSECURE:
        assert full.label is Label.INSECURE


def test_screen_requires_contingencies(case9):
    with pytest.raises(GridSecError, match="no contingencies"):
        run_contingency_screen(case9, [], OperatingLimits())


def test_screen_stressed_68_bus(case68):
    stressed = scale_loads(case68, 1.05)
    csc = ["18-49", "21-22", "30-61", "36-61", "40-41", "40-48", "41-42", "67-68"]
    result = run_contingency_screen(stressed, csc, OperatingLimits())
    assert result.label in (Label.SECURE, Label.INSECURE)
    assert len(result.details) >= 1


def exhaustive_screen(case, csc_list, limits, start):
    """Reference label and first failure: every in-service CSC through
    apply_outage, solve_powerflow and check_limits, with no early stop."""
    failures = []
    for name in csc_list:
        index = case.find_branch(name)
        if not case.branches[index].in_service:
            continue
        try:
            outaged = apply_outage(case, index)
        except IslandingError:
            failures.append(name)
            continue
        sol = solve_powerflow(outaged, start)
        if not sol.converged or check_limits(sol, outaged, limits):
            failures.append(name)
    return (Label.INSECURE if failures else Label.SECURE), (failures[0] if failures else None)


def test_screen_stops_at_first_failure_and_matches_exhaustive(case68):
    from tests.conftest import CSC_LINES

    limits = OperatingLimits()
    # (draw, TC): Secure and Insecure OCs with and without a TC; the
    # Insecure ones fail first at CSC positions 0, 3 and 4
    draws = [(0, None), (2, None), (1, "18-42"), (3, "38-46"), (39, "54-55")]
    seen = set()
    for draw, tc in draws:
        oc, sol, _, _ = generate_oc(case68, (7, draw), tc=tc)
        ocs = [(oc, tc)]
        if draw == 0:  # a CSC already out in the OC's topology is skipped
            ocs.append((apply_outage(oc, oc.find_branch("21-22")), "21-22"))
        for case, tc_used in ocs:
            warm = (sol.v_mag, sol.v_ang)
            result = run_contingency_screen(case, CSC_LINES, limits, start=warm)
            expected = exhaustive_screen(case, CSC_LINES, limits, warm)
            assert (result.label, result.first_failure) == expected
            live = [c for c in CSC_LINES if case.branches[case.find_branch(c)].in_service]
            names = [d.contingency for d in result.details]
            assert names == live[:len(names)]
            assert all(d.secure for d in result.details[:-1])
            if result.label is Label.INSECURE:
                assert names[-1] == result.first_failure and not result.details[-1].secure
            else:
                assert names == live
            seen.add((tc_used is not None, result.label))
    assert seen == {(t, label) for t in (False, True) for label in Label}


def test_parse_contingency_list():
    text = "# comment\n17-43\n\n54-55  # trailing note\n"
    assert parse_contingency_list(text) == ["17-43", "54-55"]


def test_screen_configurations_ranked(case68, tc_and_csc_lines):
    rows = screen_configurations(case68, tc_and_csc_lines)
    pivs = [r.pi_v for r in rows]
    assert pivs == sorted(pivs, reverse=True)
    assert len(rows) == len(tc_and_csc_lines)


@pytest.fixture(scope="module")
def tc_and_csc_lines():
    from tests.conftest import TC_LINES, CSC_LINES

    return TC_LINES + CSC_LINES
