import dataclasses

import numpy as np
import pytest

from gridsec.errors import CaseFormatError, CaseValidationError, IslandingError
from gridsec.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    apply_outage,
    bundled_case_path,
    connected_buses,
    parse_case,
    reschedule_generation,
    scale_loads,
)
from gridsec.powerflow import build_ybus, solve_powerflow

from tests.conftest import TC_LINES

MINIMAL = """\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pq 345.0 - 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
[LOAD]
2 50.0 0.0
"""


def test_parse_minimal_two_bus():
    case = parse_case(MINIMAL)
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert case.buses[0].kind is BusKind.SLACK
    assert case.total_load() == (50.0, 0.0)


def test_parse_68_bus_totals(case68):
    p, q = case68.total_load()
    assert p == pytest.approx(17620.7, rel=1e-9)
    assert q == pytest.approx(2021.76, rel=1e-9)
    assert len(case68.buses) == 68
    assert len(case68.generators) == 16
    assert len(case68.branches) == 83


def test_two_slack_buses_rejected():
    bad = MINIMAL.replace("2 pq 345.0 - 0.9 1.1", "2 slack 345.0 1.0 0.9 1.1")
    with pytest.raises(CaseValidationError, match="multiple slack buses"):
        parse_case(bad)


def test_no_slack_rejected():
    bad = MINIMAL.replace("1 slack 345.0 1.0 0.9 1.1", "1 pv 345.0 1.0 0.9 1.1")
    with pytest.raises(CaseValidationError, match="no slack bus"):
        parse_case(bad)


def test_disconnected_bus_rejected():
    bad = MINIMAL.replace("[BRANCH]", "3 pq 345.0 - 0.9 1.1\n[BRANCH]")
    with pytest.raises(CaseValidationError, match="disconnected bus 3"):
        parse_case(bad)


def test_syntax_error_carries_line_number():
    bad = MINIMAL.replace("2 50.0 0.0", "2 fifty 0.0")
    with pytest.raises(CaseFormatError, match="line 12"):
        parse_case(bad)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_number_rejected(token):
    bad = MINIMAL.replace("1 2 0.0 0.1", f"1 2 {token} 0.1")
    with pytest.raises(CaseFormatError, match=f"line 8: bad r '{token}'"):
        parse_case(bad)


@pytest.mark.parametrize("tap", ["0.0", "-1.0"])
def test_non_positive_tap_rejected(tap):
    bad = MINIMAL.replace("1 2 0.0 0.1 0.0 1.0 600.0 1", f"1 2 0.0 0.1 0.0 {tap} 600.0 1")
    with pytest.raises(CaseValidationError, match="branch 1-2: tap must be positive"):
        parse_case(bad)


@pytest.mark.parametrize("section, line, flag", [
    ("BRANCH", 8, "7"), ("BRANCH", 8, "-1"), ("GEN", 10, "7"), ("GEN", 10, "-1"),
])
def test_in_service_flag_must_be_0_or_1(section, line, flag):
    rows = {"BRANCH": "1 2 0.0 0.1 0.0 1.0 600.0 1", "GEN": "1 0.0 -500.0 500.0 600.0 1"}
    bad = MINIMAL.replace(rows[section], rows[section][:-1] + flag)
    with pytest.raises(CaseFormatError, match=f"line {line}: bad in_service flag '{flag}'"):
        parse_case(bad)


def test_duplicate_branch_label_rejected():
    # "4-1" and "1-4" name the same branch, so the second could never be
    # outaged by label: find_branch("4-1") would return the first
    text = bundled_case_path("case9").read_text(encoding="utf-8")
    first = "1 4 0.0    0.0576 0.0   1.0 300.0 1\n"
    bad = text.replace(first, first + "4 1 0.0 0.0576 0.0 1.0 300.0 1\n")
    with pytest.raises(CaseValidationError,
                       match="branch 4-1: same ends and circuit as branch 1-4"):
        parse_case(bad)
    # a second circuit on the same ends is a different branch
    parse_case(text.replace(first, first + "4 1 0.0 0.0576 0.0 1.0 300.0 1 2\n"))


def test_missing_version_header():
    with pytest.raises(CaseFormatError, match="format_version"):
        parse_case(MINIMAL.replace("format_version: 1\n", ""))


def test_outage_islanding_two_bus(case2):
    with pytest.raises(IslandingError, match="outage disconnects bus set"):
        apply_outage(case2, 0)


def test_outage_68_bus_named_line(case68):
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    assert len(outaged.arrays.branches.pos) == 82
    # value semantics: original untouched
    assert all(br.in_service for br in case68.branches)


def test_double_outage_rejected(case9):
    once = apply_outage(case9, case9.find_branch("4-5"))
    with pytest.raises(CaseValidationError, match="already out of service"):
        apply_outage(once, once.find_branch("4-5"))


def test_outage_index_out_of_range(case9):
    with pytest.raises(CaseValidationError, match="out of range"):
        apply_outage(case9, 99)


def test_case_is_immutable(case9):
    with pytest.raises(dataclasses.FrozenInstanceError):
        case9.base_mva = 200.0
    scaled = scale_loads(case9, 2.0)
    assert case9.loads[0].p_mw == 125.0
    assert scaled.loads[0].p_mw == 250.0


def test_reschedule_zero_is_identity(case9):
    assert reschedule_generation(case9, 0.0) == case9


def test_reschedule_capacity_proportional():
    case = parse_case("""\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pv 345.0 1.0 0.9 1.1
3 pv 345.0 1.0 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
2 50.0 -500.0 500.0 100.0 1
3 50.0 -500.0 500.0 300.0 1
[LOAD]
3 100.0 0.0
""")
    up = reschedule_generation(case, 40.0)
    assert up.generators[1].p_mw == pytest.approx(60.0)
    assert up.generators[2].p_mw == pytest.approx(80.0)

    # pushing one unit past p_max clamps it and spills the rest to the others
    big = reschedule_generation(case, 260.0)
    assert big.generators[1].p_mw == pytest.approx(100.0)
    assert big.generators[2].p_mw == pytest.approx(260.0)
    total_delta = (big.generators[1].p_mw - 50.0) + (big.generators[2].p_mw - 50.0)
    assert total_delta == pytest.approx(260.0)

    # beyond aggregate capacity: both units pin at p_max, the slack takes the rest
    over = reschedule_generation(case, 500.0)
    assert over.generators[1].p_mw == 100.0
    assert over.generators[2].p_mw == 300.0


def test_reschedule_waterfilling_oracle():
    # brute-force oracle: tiny increments, proportional to p_max over unclamped units
    case = parse_case("""\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pv 345.0 1.0 0.9 1.1
3 pv 345.0 1.0 0.9 1.1
4 pv 345.0 1.0 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 0.1 0.0 1.0 600.0 1
3 4 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 900.0 1
2 40.0 -500.0 500.0 50.0 1
3 10.0 -500.0 500.0 200.0 1
4 100.0 -500.0 500.0 400.0 1
[LOAD]
4 100.0 0.0
""")
    delta = 180.0
    outputs = np.array([40.0, 10.0, 100.0])
    p_max = np.array([50.0, 200.0, 400.0])
    remaining = delta
    for _ in range(2_000_000):
        free = outputs < p_max
        if remaining <= 1e-9 or not free.any():
            break
        inc = min(remaining, 1e-3) * p_max * free / (p_max * free).sum()
        inc = np.minimum(inc, p_max - outputs)
        outputs += inc
        remaining -= inc.sum()
    got = reschedule_generation(case, delta)
    for g, expected in zip(got.generators[1:], outputs):
        assert g.p_mw == pytest.approx(expected, abs=1e-2)


# --- islanding from the bridge set ---------------------------------------------

def _bfs_lost(case, k):
    """Bus ids that a BFS from the slack misses once branch ``k`` is out, on a
    case built cold from field values."""
    branches = list(case.branches)
    branches[k] = dataclasses.replace(branches[k], in_service=False)
    cold = NetworkCase(case.base_mva, case.buses, tuple(branches), case.generators, case.loads)
    return {b.id for b in case.buses} - connected_buses(cold)


def check_outages(case):
    """Every in-service branch islands iff the BFS misses a bus, and the
    error names the missed set; returns (outages, islanding)."""
    islanding = 0
    live = case.arrays.branches.pos.tolist()
    for k in live:
        lost = _bfs_lost(case, k)
        if lost:
            islanding += 1
            with pytest.raises(IslandingError) as err:
                apply_outage(case, k)
            assert err.value.buses == lost
        else:
            assert not apply_outage(case, k).branches[k].in_service
    return len(live), islanding


def test_bridge_rule_matches_bfs_on_bundled_cases(case9, case68):
    check_outages(case9)
    totals = np.array(check_outages(case68))
    for tc in TC_LINES:
        totals += check_outages(apply_outage(case68, case68.find_branch(tc)))
    assert totals.tolist() == [739, 93]


# --- the cached array view ------------------------------------------------------

def _cold(case):
    """The same case rebuilt from its field values, so it inherits no view."""
    return NetworkCase(case.base_mva, case.buses, case.branches, case.generators, case.loads)


def _assert_same_as_cold(case):
    cold = _cold(case)
    assert "arrays" not in cold.__dict__
    topo, kinds = case.arrays.topology, [b.kind for b in case.buses]
    assert topo.slack == cold.arrays.topology.slack == kinds.index(BusKind.SLACK)
    for mask, kind in ((topo.pv, BusKind.PV), (topo.pq, BusKind.PQ)):
        assert mask.dtype == bool and mask.tolist() == [k is kind for k in kinds]
    assert np.array_equal(build_ybus(case), build_ybus(cold))
    warm, ref = solve_powerflow(case), solve_powerflow(cold)
    for field in ("v_mag", "v_ang", "p_from", "q_from", "p_to", "q_to", "i_from"):
        assert np.array_equal(getattr(warm, field), getattr(ref, field)), field
    assert warm.q_limited == ref.q_limited


def _outages(case):
    for k in case.arrays.branches.pos.tolist():
        try:
            yield apply_outage(case, k)
        except IslandingError:
            pass


def test_views_equal_cold_rebuilds(case9, case68):
    """Every view an edit hands on gives the solver what a cold case gives."""
    scaled = scale_loads(case68, np.linspace(0.85, 1.05, len(case68.loads)))
    oc = reschedule_generation(scaled, scaled.total_load()[0] - case68.total_load()[0])
    for case in (case9, case68, oc):
        _assert_same_as_cold(case)
        for outaged in _outages(case):
            _assert_same_as_cold(outaged)
            # every edit hands its parent's bus masks down instead of rebuilding them
            assert outaged.arrays.topology.pv is case.arrays.topology.pv
            assert outaged.arrays.topology.pq is case.arrays.topology.pq
    for child in (scaled, oc):
        assert child.arrays.topology.pv is case68.arrays.topology.pv
        assert child.arrays.topology.pq is case68.arrays.topology.pq


def test_view_arrays_are_read_only(case9):
    outaged = apply_outage(case9, case9.find_branch("4-5"))
    for case in (case9, outaged, scale_loads(outaged, 1.1)):
        view = case.arrays
        cells = view.topology.jacobian
        arrays = [view.topology.pv, view.topology.pq, view.topology.vset, *view.branches,
                  *view.injections, *cells[:3], *cells.scatter[:4], cells.scatter.mismatch]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    with pytest.raises(TypeError):
        case9.bus_index()[1] = 5
    # a solve pins Q limits in its own copy of the bus spec, not in the view
    gens = (case9.generators[0], dataclasses.replace(case9.generators[1], q_max=2.0),
            *case9.generators[2:])
    tight = dataclasses.replace(case9, generators=gens)
    topo = tight.arrays.topology
    s_spec, pv, pq = tight.arrays.injections.s_spec.copy(), topo.pv.copy(), topo.pq.copy()
    assert solve_powerflow(tight).q_limited
    assert np.array_equal(tight.arrays.injections.s_spec, s_spec)
    assert np.array_equal(topo.pv, pv) and np.array_equal(topo.pq, pq)


# --- branch labels ----------------------------------------------------------------

def test_find_branch_same_position_in_edited_cases(case68):
    """Edits hand the parsed case's label map down, so every label, the
    outaged branch's own included, keeps its position in either orientation."""
    k = case68.find_branch("17-43")
    oc = scale_loads(case68, np.linspace(0.9, 1.1, len(case68.loads)))
    children = [oc, reschedule_generation(oc, 25.0), apply_outage(case68, k), apply_outage(oc, k)]
    labels = case68.arrays.topology.labels
    for child in children:
        assert child.arrays.topology.labels is labels
    for position, br in enumerate(case68.branches):
        a, b = br.from_bus, br.to_bus
        for spec in (f"{a}-{b}", f"{b}-{a}", f"{a}-{b}:{br.circuit}", f" {b}-{a}:{br.circuit} "):
            assert case68.find_branch(spec) == position
            for child in children:
                assert child.find_branch(spec) == position
    assert not children[2].branches[k].in_service


def test_find_branch_circuits_and_first_match(case9):
    text = bundled_case_path("case9").read_text(encoding="utf-8")
    line = "4 5 0.010  0.085  0.176 1.0 250.0 1\n"
    parallel = parse_case(text.replace(line, line + "5 4 0.010  0.085  0.176 1.0 250.0 1 2\n"))
    k = case9.find_branch("4-5")
    assert parallel.find_branch("4-5") == parallel.find_branch("5-4:1") == k
    assert parallel.find_branch("4-5:2") == parallel.find_branch("5-4:2") == k + 1
    assert apply_outage(parallel, k).find_branch("4-5:2") == k + 1
    # a case built without validation may repeat a label; the first branch wins
    twin = dataclasses.replace(case9.branches[k], from_bus=5, to_bus=4)
    unchecked = NetworkCase(case9.base_mva, case9.buses, case9.branches + (twin,),
                            case9.generators, case9.loads)
    assert unchecked.find_branch("5-4") == k


@pytest.mark.parametrize("spec, error, message", [
    ("17", CaseFormatError, "bad branch label '17'"),
    ("17-x", CaseFormatError, "bad branch label '17-x'"),
    ("17-43:x", CaseFormatError, "bad branch label '17-43:x'"),
    ("", CaseFormatError, "bad branch label ''"),
    ("17-43:2", CaseValidationError, "no branch '17-43:2' in case"),
    ("17-44", CaseValidationError, "no branch '17-44' in case"),
    ("999-1", CaseValidationError, "no branch '999-1' in case"),
])
def test_find_branch_errors(case68, spec, error, message):
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    for case in (case68, scale_loads(case68, 1.1), outaged):
        with pytest.raises(error) as err:
            case.find_branch(spec)
        assert type(err.value) is error and str(err.value) == message
