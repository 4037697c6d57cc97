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
    predicted_loading,
    run_contingency_screen,
    screen_configurations,
)

from tests.conftest import CSC_LINES


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
    result = run_contingency_screen(case2, solve_powerflow(case2), ["1-2"], OperatingLimits())
    assert result.label is Label.INSECURE
    assert result.first_failure == "1-2"
    assert result.details[0].islanded


def test_screen_light_nine_bus_secure(case9):
    light = scale_loads(case9, 0.8)
    result = run_contingency_screen(light, solve_powerflow(light), ["4-5", "7-8", "6-9"],
                                    OperatingLimits())
    assert result.label is Label.SECURE


def test_screen_base_nine_bus_insecure(case9):
    result = run_contingency_screen(case9, solve_powerflow(case9), ["4-5", "7-8", "6-9"],
                                    OperatingLimits())
    assert result.label is Label.INSECURE
    assert result.first_failure


def test_screen_monotone_in_contingency_set(case9):
    """Removing contingencies can only weaken the screen."""
    base = solve_powerflow(case9)
    full = run_contingency_screen(case9, base, ["4-5", "7-8", "6-9"], OperatingLimits())
    failing = full.first_failure.split()[0] if full.first_failure else None
    reduced = [c for c in ("4-5", "7-8", "6-9") if c != "4-5"]
    partial = run_contingency_screen(case9, base, reduced, OperatingLimits())
    if partial.label is Label.INSECURE:
        assert full.label is Label.INSECURE


def test_screen_requires_contingencies(case9):
    with pytest.raises(GridSecError, match="no contingencies"):
        run_contingency_screen(case9, solve_powerflow(case9), [], OperatingLimits())


def test_screen_stressed_68_bus(case68):
    stressed = scale_loads(case68, 1.05)
    csc = ["18-49", "21-22", "30-61", "36-61", "40-41", "40-48", "41-42", "67-68"]
    result = run_contingency_screen(stressed, solve_powerflow(stressed), csc, OperatingLimits())
    assert result.label in (Label.SECURE, Label.INSECURE)
    assert len(result.details) >= 1


def exhaustive_screen(case, csc_list, limits, start):
    """Reference outcomes: every in-service CSC through apply_outage,
    solve_powerflow (from ``start``, flat when None) and check_limits, with
    no early stop. Returns the label and {CSC: secure}."""
    secure = {}
    for name in csc_list:
        index = case.find_branch(name)
        if not case.branches[index].in_service:
            continue
        try:
            outaged = apply_outage(case, index)
        except IslandingError:
            secure[name] = False
            continue
        sol = solve_powerflow(outaged, start)
        secure[name] = sol.converged and not check_limits(sol, outaged, limits)
    return (Label.SECURE if all(secure.values()) else Label.INSECURE), secure


def loop_ranking(case, sol, csc_list):
    """Reference screening order: islanding CSCs in list order, then the
    rest by descending max_l |p_l + LODF_lk p_k| / rating_l, list order on
    ties, from a dense inverse of the slack-reduced DC B matrix and a loop
    over branches. Returns [(CSC, predicted loading or None)]."""
    buses = {b.id: i for i, b in enumerate(case.buses)}
    slack = buses[case.slack_bus().id]
    live = [k for k, br in enumerate(case.branches) if br.in_service]
    n = len(case.buses)
    b = np.zeros((n, n))
    for k in live:
        br = case.branches[k]
        f, t, y = buses[br.from_bus], buses[br.to_bus], 1.0 / (br.x * br.tap)
        b[f, f] += y
        b[t, t] += y
        b[f, t] -= y
        b[t, f] -= y
    keep = [i for i in range(n) if i != slack]
    x = np.zeros((n, n))
    x[np.ix_(keep, keep)] = np.linalg.inv(b[np.ix_(keep, keep)])

    def ptdf(l, k):
        bl, bk = case.branches[l], case.branches[k]
        fl, tl, fk, tk = (buses[bl.from_bus], buses[bl.to_bus], buses[bk.from_bus], buses[bk.to_bus])
        return (x[fl, fk] - x[fl, tk] - x[tl, fk] + x[tl, tk]) / (bl.x * bl.tap)

    bridges = case.arrays.topology.bridges
    islanding, ranked = [], []
    for name in csc_list:
        k = case.find_branch(name)
        if k not in live:
            continue
        if k in bridges:
            islanding.append((name, None))
            continue
        lodf = {l: ptdf(l, k) / (1.0 - ptdf(k, k)) for l in live if l != k}
        ranked.append((name, max(abs(sol.p_from[l] + lodf[l] * sol.p_from[k])
                                 / case.branches[l].mva_rating for l in lodf)))
    return islanding + sorted(ranked, key=lambda item: -item[1])


def check_ranked_screen(case, sol, csc_list, limits):
    """The screen against the exhaustive reference and the loop ranking:
    the same label, each screened CSC's exhaustive outcome, the ranked
    order, all but the last secure. Returns the result."""
    result = run_contingency_screen(case, sol, csc_list, limits)
    label, secure = exhaustive_screen(case, csc_list, limits, (sol.v_mag, sol.v_ang))
    assert result.label is label
    names = [d.contingency for d in result.details]
    order = loop_ranking(case, sol, csc_list)
    if order[0][1] is None:  # an islanding CSC decides without a solve
        assert names == [order[0][0]] and result.details[0].islanded
    else:
        reference = dict(order)
        k = [case.find_branch(name) for name in reference]
        assert np.allclose(predicted_loading(case, sol.p_from, k),
                           list(reference.values()), rtol=1e-9, atol=0.0)
        # descending predicted loading; values within rounding of each other
        # (often the same unaffected branch sets every maximum) may swap
        ranked = [reference[name] for name in names]
        assert all(a >= b * (1 - 1e-9) for a, b in zip(ranked, ranked[1:]))
        if len(names) < len(reference):
            assert ranked[-1] >= max(reference[n] for n in reference if n not in names) * (1 - 1e-9)
    assert [secure[name] for name in names] == [d.secure for d in result.details]
    assert all(d.secure for d in result.details[:-1])
    if result.label is Label.INSECURE:
        assert names[-1] == result.first_failure and not result.details[-1].secure
    else:
        assert sorted(names) == sorted(secure) and result.first_failure is None
    return result


def test_screen_stops_at_first_failure_and_matches_exhaustive(case68):
    limits = OperatingLimits()
    # (draw, TC): Secure and Insecure OCs with and without a TC
    draws = [(0, None), (2, None), (1, "18-42"), (3, "38-46"), (39, "54-55")]
    seen = set()
    for draw, tc in draws:
        oc, sol, _, _ = generate_oc(case68, (7, draw), tc=tc)
        ocs = [(oc, sol, tc)]
        if draw == 0:  # a CSC already out in the OC's topology is skipped
            out = apply_outage(oc, oc.find_branch("21-22"))
            ocs.append((out, solve_powerflow(out, (sol.v_mag, sol.v_ang)), "21-22"))
        for case, oc_sol, tc_used in ocs:
            result = check_ranked_screen(case, oc_sol, CSC_LINES, limits)
            if tc_used == "21-22":
                assert "21-22" not in [d.contingency for d in result.details]
            seen.add((tc_used is not None, result.label))
    assert seen == {(t, label) for t in (False, True) for label in Label}


def test_screen_ties_keep_list_order(case68):
    """With no pre-outage flow every predicted loading is 0: list order."""
    oc, sol, _, _ = generate_oc(case68, (7, 0))
    still = dataclasses.replace(sol, p_from=np.zeros_like(sol.p_from))
    result = run_contingency_screen(oc, still, CSC_LINES[::-1], OperatingLimits())
    assert [d.contingency for d in result.details] == list(CSC_LINES[::-1])


def test_screen_needs_a_converged_solution(case9):
    diverged = dataclasses.replace(solve_powerflow(case9), converged=False)
    with pytest.raises(GridSecError, match="converged solution"):
        run_contingency_screen(case9, diverged, ["4-5"], OperatingLimits())


def test_screen_with_no_contingency_left_raises(case9):
    oc = apply_outage(case9, case9.find_branch("4-5"))
    with pytest.raises(GridSecError, match="no contingency left"):
        run_contingency_screen(oc, solve_powerflow(oc), ["4-5"], OperatingLimits())


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
